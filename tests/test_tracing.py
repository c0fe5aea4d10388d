"""The benchmark's tracer (perfbench/spans.py) can wrap every layer it names.

`Tracer.install` looks each traced function up by name in the package, so a
layer renamed or removed in the package breaks the traced benchmark pass;
this test breaks with it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from superdense import protocol, randlab, rigidity

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_layer():
    spans = load_spans()
    targets = [(importlib.import_module(f"superdense.{mod}"), attr) for mod, attr, _ in spans.LAYERS]
    originals = [getattr(module, attr) for module, attr in targets]
    p, _ = protocol.random_scrambled_bw(np.random.default_rng(3), 2, 2, 1)
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (module, attr), original in zip(targets, originals):
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr} not wrapped"
        tracer.op = 0
        randlab.distinguishability_experiment(2, 1, seed=0)
        rigidity.canonicalize(p)
    finally:
        tracer.uninstall()
    for (module, attr), original in zip(targets, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
    recorded = {name for name, *_ in tracer.spans}
    assert {"randlab.distinguishability_experiment", "randlab.random_protocol_ensemble",
            "randlab.mean_sqrt_esd", "randlab.kolmogorov_distance"} <= recorded
    # canonicalize resolves its stages through the module globals
    assert {"rigidity.canonicalize", "rigidity.match_blocks",
            "rigidity.pauli_frame"} <= recorded
