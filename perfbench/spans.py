"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` replaces each function at the module attribute its caller
resolves (a module-level name for calls inside a module, `module.name` for
calls through a module object) with a wrapper that records one span:
name, start, end, parent span and operation index.  Spans stay in memory
and are written once, when the run ends.  `uninstall` puts the original
functions back, so untraced passes run the package unchanged.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module the caller resolves through, attribute, layer name)
LAYERS = (
    ("cli", "main", "cli.main"),
    ("serialize", "load_protocol", "serialize.load_protocol"),
    ("serialize", "save_decomposition", "serialize.save_decomposition"),
    ("serialize", "load_basis", "serialize.load_basis"),
    ("serialize", "save_eigenvalues_csv", "serialize.save_eigenvalues_csv"),
    ("randlab", "distinguishability_experiment", "randlab.distinguishability_experiment"),
    ("randlab", "random_protocol_ensemble", "randlab.random_protocol_ensemble"),
    ("randlab", "haar_unitary", "randlab.haar_unitary"),
    ("randlab", "esd", "randlab.esd"),
    ("randlab", "kolmogorov_distance", "randlab.kolmogorov_distance"),
    ("randlab", "mean_sqrt_esd", "randlab.mean_sqrt_esd"),
    ("randlab", "pgm_success", "protocol.pgm_success"),
    ("rigidity", "verify_errorless", "protocol.verify_errorless"),
    ("rigidity", "canonicalize", "rigidity.canonicalize"),
    ("rigidity", "to_nice_form", "rigidity.to_nice_form"),
    ("rigidity", "block_diagonalize", "rigidity.block_diagonalize"),
    ("rigidity", "match_blocks", "rigidity.match_blocks"),
    ("rigidity", "common_eigenvector", "rigidity.common_eigenvector"),
    ("rigidity", "pauli_frame", "rigidity.pauli_frame"),
    ("rigidity", "verify_decomposition", "rigidity.verify_decomposition"),
    ("numkit", "spectral_decomposition", "numkit.spectral_decomposition"),
    ("numkit", "polar_decomposition", "numkit.polar_decomposition"),
    ("numkit", "partial_trace", "numkit.partial_trace"),
    ("numkit", "permute_factors", "numkit.permute_factors"),
    ("numkit", "trace_distance", "numkit.trace_distance"),
    ("numkit", "psd_sqrt", "numkit.psd_sqrt"),
    ("bases", "certify_not_clock_shift", "bases.certify_not_clock_shift"),
    ("bases", "verify_orthogonal_unitary_basis", "bases.verify_orthogonal_unitary_basis"),
)

# layers whose raised exceptions are counted: the canonicalization stages
# and the triangle search, which catches its own misses
ERROR_LAYERS = (
    "rigidity.canonicalize",
    "rigidity.to_nice_form",
    "rigidity.block_diagonalize",
    "rigidity.match_blocks",
    "rigidity.common_eigenvector",
    "rigidity.pauli_frame",
)


def layer_metrics(totals: dict, ops: int) -> dict:
    """Self seconds, calls and errors per operation for every layer, used or not."""
    out = {}
    for _, _, layer in LAYERS:
        self_s, calls, errors = totals.get(layer, (0.0, 0, 0))
        out[f"{layer}.self_s"] = (self_s / ops, "s")
        out[f"{layer}.calls"] = (calls / ops, "count")
        if layer in ERROR_LAYERS:
            out[f"{layer}.errors"] = (errors / ops, "count")
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, op, ok)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            ok = False
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, ok)

        return traced

    def install(self) -> None:
        for mod_name, attr, layer in LAYERS:
            module = importlib.import_module(f"superdense.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_totals(self):
        """Per layer: (self seconds, calls, errors) summed over all spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0, 0])
        for k, (name, start, end, _, _, ok) in enumerate(self.spans):
            t = totals[name]
            t[0] += end - start - child[k]
            t[1] += 1
            t[2] += 0 if ok else 1
        return totals

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op", "ok"],
            "names": names,
            "spans": [[index[n], s, e, p, op, int(ok)] for n, s, e, p, op, ok in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
