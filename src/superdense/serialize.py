"""JSON and CSV serialization for bases, protocols, and decompositions.

Matrices are stored as nested lists of rows, each entry a [re, im] pair of
decimal doubles, so files are flat, language-neutral, and diffable.  Floats
go through Python's shortest round-trip repr, which makes load(save(x))
bit-exact.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from . import numkit as nk
from .bases import UnitaryBasis
from .protocol import Protocol
from .rigidity import CanonicalDecomposition


class SerializationError(ValueError):
    """Malformed file content; carries the offending path and field."""

    def __init__(self, path: str, field: str, detail: str):
        super().__init__(f"{path}: field '{field}': {detail}")
        self.path = path
        self.field = field


def matrix_to_json(m: np.ndarray) -> list:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(data: Any, path: str, field: str) -> np.ndarray:
    try:
        rows = []
        width = None
        for row in data:
            vals = [complex(float(re), float(im)) for re, im in row]
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise ValueError("ragged rows")
            rows.append(vals)
        if not rows:
            raise ValueError("empty matrix")
        return np.array(rows, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise SerializationError(path, field, f"not a valid complex matrix: {exc}") from exc


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SerializationError(path, "<file>", "file not found") from None
    except json.JSONDecodeError as exc:
        raise SerializationError(path, "<document>", f"invalid JSON: {exc}") from exc


def _dump_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _require(doc: dict, key: str, path: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise SerializationError(path, key, "missing required field")
    return doc[key]


def _is_positive_int(val: Any) -> bool:
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(val, int) and not isinstance(val, bool) and val >= 1


def _require_list(doc: dict, key: str, path: str) -> list:
    val = _require(doc, key, path)
    if not isinstance(val, list):
        raise SerializationError(path, key, f"expected a JSON list, got {type(val).__name__}")
    return val


def basis_to_json(b: UnitaryBasis) -> dict:
    doc = {"d": b.d, "elements": [matrix_to_json(e) for e in b.elements]}
    if b.labels is not None:
        doc["labels"] = list(b.labels)
    return doc


def save_basis(b: UnitaryBasis, path: str) -> None:
    _dump_json(basis_to_json(b), path)


def load_basis(path: str) -> UnitaryBasis:
    doc = _load_json(path)
    d = _require(doc, "d", path)
    if not _is_positive_int(d):
        raise SerializationError(path, "d", f"expected a positive integer, got {d!r}")
    elements = [
        matrix_from_json(e, path, f"elements[{k}]")
        for k, e in enumerate(_require_list(doc, "elements", path))
    ]
    for k, e in enumerate(elements):
        if e.shape != (d, d):
            raise SerializationError(
                path, f"elements[{k}]", f"shape {e.shape} is not {d}x{d}"
            )
    labels = doc.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise SerializationError(path, "labels", f"expected a JSON list of strings, got {labels!r}")
    if labels is not None and len(labels) != d * d:
        raise SerializationError(path, "labels", f"expected {d * d} labels, got {len(labels)}")
    try:
        return UnitaryBasis(
            d=d, elements=tuple(elements), labels=tuple(labels) if labels else None
        )
    except ValueError as exc:
        raise SerializationError(path, "elements", str(exc)) from exc


def save_protocol(p: Protocol, path: str) -> None:
    doc = {
        "dim_a_prime": p.dim_a_prime,
        "dim_a_dbl": p.dim_a_dbl,
        "dim_b": p.dim_b,
        "tau": matrix_to_json(p.tau),
        "encoders": [matrix_to_json(u) for u in p.encoders],
    }
    _dump_json(doc, path)


def load_protocol(path: str) -> Protocol:
    doc = _load_json(path)
    dims = {}
    for key in ("dim_a_prime", "dim_a_dbl", "dim_b"):
        val = _require(doc, key, path)
        if not _is_positive_int(val):
            raise SerializationError(path, key, f"expected a positive integer, got {val!r}")
        dims[key] = val
    tau = matrix_from_json(_require(doc, "tau", path), path, "tau")
    encoders = tuple(
        matrix_from_json(u, path, f"encoders[{k}]")
        for k, u in enumerate(_require_list(doc, "encoders", path))
    )
    p = Protocol(dims["dim_a_prime"], dims["dim_a_dbl"], dims["dim_b"], tau, encoders)
    n = p.dim_a * p.dim_b
    if tau.shape != (n, n):
        raise SerializationError(path, "tau", f"shape {tau.shape} does not match dims")
    if not nk.is_density(tau):
        raise SerializationError(path, "tau", "not a density matrix (Hermitian, PSD, trace 1)")
    for k, u in enumerate(encoders):
        if u.shape != (p.dim_a, p.dim_a):
            raise SerializationError(
                path, f"encoders[{k}]", f"shape {u.shape} is not {p.dim_a}x{p.dim_a}"
            )
        if not nk.is_unitary(u):
            raise SerializationError(path, f"encoders[{k}]", "not a unitary matrix")
    if len(encoders) != p.dim_a_dbl**2:
        raise SerializationError(
            path, "encoders", f"expected {p.dim_a_dbl ** 2} encoders, got {len(encoders)}"
        )
    return p


def save_decomposition(dec: CanonicalDecomposition, path: str) -> None:
    doc = {
        "v": matrix_to_json(dec.v),
        "w": matrix_to_json(dec.w),
        "c": [matrix_to_json(c) for c in dec.c],
        "rho": matrix_to_json(dec.rho),
        "blocks": [
            {"p": matrix_to_json(p), "s": matrix_to_json(s), "sign": int(sign)}
            for p, s, sign in dec.blocks
        ],
    }
    _dump_json(doc, path)


def load_decomposition(path: str) -> CanonicalDecomposition:
    doc = _load_json(path)
    v = matrix_from_json(_require(doc, "v", path), path, "v")
    w = matrix_from_json(_require(doc, "w", path), path, "w")
    c = tuple(
        matrix_from_json(m, path, f"c[{k}]")
        for k, m in enumerate(_require_list(doc, "c", path))
    )
    rho = matrix_from_json(_require(doc, "rho", path), path, "rho")
    blocks = []
    for k, blk in enumerate(_require_list(doc, "blocks", path)):
        p = matrix_from_json(_require(blk, "p", path), path, f"blocks[{k}].p")
        s = matrix_from_json(_require(blk, "s", path), path, f"blocks[{k}].s")
        sign = _require(blk, "sign", path)
        if sign not in (-1, 1):
            raise SerializationError(path, f"blocks[{k}].sign", f"expected +-1, got {sign!r}")
        blocks.append((p, s, int(sign)))
    return CanonicalDecomposition(v=v, w=w, c=c, rho=rho, blocks=tuple(blocks))


def save_eigenvalues_csv(eigenvalues, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("eigenvalue\n")
        for lam in eigenvalues:
            fh.write(f"{float(lam)!r}\n")


def load_eigenvalues_csv(path: str) -> list[float]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except FileNotFoundError:
        raise SerializationError(path, "<file>", "file not found") from None
    if not lines or lines[0] != "eigenvalue":
        raise SerializationError(path, "header", "expected header line 'eigenvalue'")
    try:
        return [float(ln) for ln in lines[1:]]
    except ValueError as exc:
        raise SerializationError(path, "rows", f"non-numeric eigenvalue: {exc}") from exc
