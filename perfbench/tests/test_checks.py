"""The benchmark's output checks accept real outputs and reject corrupted ones."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
from superdense import bases, cli, protocol, randlab, serialize  # noqa: E402

import workload  # noqa: E402


def _run(argv):
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def random_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("random")
    csv, out = tmp / "esd.csv", tmp / "stats.json"
    _run(["random", "run", "--d", 8, "--trials", 4, "--seed", 11, "--esd-csv", csv, "-o", out])
    return csv, checks.read_json(out)


def _write_csv(path, values):
    path.write_text("eigenvalue\n" + "".join(f"{float(v)!r}\n" for v in values), encoding="utf-8")


def test_random_run_accepted(random_run):
    csv, doc = random_run
    eig = checks.read_eigenvalue_csv(csv)
    checks.check_random_run(8, 4, eig, doc)
    ens = randlab.random_protocol_ensemble(8, np.random.default_rng([11, 0]))
    checks.check_gram(eig, ens.states)


def test_csv_with_one_eigenvalue_changed_rejected(random_run, tmp_path):
    csv, doc = random_run
    eig = checks.read_eigenvalue_csv(csv)
    bad = eig.copy()
    bad[3] += 1e-6
    _write_csv(tmp_path / "bad.csv", bad)
    bad = checks.read_eigenvalue_csv(tmp_path / "bad.csv")
    with pytest.raises(checks.CheckError):
        checks.check_random_run(8, 4, bad, doc)
    ens = randlab.random_protocol_ensemble(8, np.random.default_rng([11, 0]))
    with pytest.raises(checks.CheckError):
        checks.check_gram(bad, ens.states)


def test_trace_preserving_change_rejected_by_gram(random_run):
    """Two eigenvalues moved by opposite amounts keep the trace; the Gram check still sees it."""
    csv, _ = random_run
    eig = checks.read_eigenvalue_csv(csv)
    eig[0] += 1e-6
    eig[-1] -= 1e-6
    ens = randlab.random_protocol_ensemble(8, np.random.default_rng([11, 0]))
    with pytest.raises(checks.CheckError):
        checks.check_gram(eig, ens.states)


@pytest.fixture(scope="module")
def canonicalized(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("canon")
    p, _ = protocol.random_scrambled_bw(np.random.default_rng([3, 7]), 3, 2, 2)
    serialize.save_protocol(p, str(tmp / "p.json"))
    _run(["protocol", "canonicalize", tmp / "p.json", "-o", tmp / "dec.json"])
    return p, checks.read_decomposition(str(tmp / "dec.json"))


def test_decomposition_accepted(canonicalized):
    p, dec = canonicalized
    checks.check_decomposition(p.tau, p.encoders, p.dim_a_prime, p.dim_b, dec, 1e-7)


def test_decomposition_with_one_c_perturbed_rejected(canonicalized):
    p, dec = canonicalized
    h = np.array([[0.3, 0.1 - 0.2j, 0], [0.1 + 0.2j, -0.5, 0.4], [0, 0.4, 0.2]])
    w, v = np.linalg.eigh(h)
    rotation = (v * np.exp(1e-3j * w)) @ v.conj().T  # stays unitary: only the relation breaks
    bad = dict(dec, c=list(dec["c"]))
    bad["c"][2] = dec["c"][2] @ rotation
    with pytest.raises(checks.CheckError, match="encoder 2 relation"):
        checks.check_decomposition(p.tau, p.encoders, p.dim_a_prime, p.dim_b, bad, 1e-7)
    bad["c"][2] = dec["c"][2] + 1e-3
    with pytest.raises(checks.CheckError, match="C_2"):
        checks.check_decomposition(p.tau, p.encoders, p.dim_a_prime, p.dim_b, bad, 1e-7)


def test_decomposition_with_wrong_rho_rejected(canonicalized):
    p, dec = canonicalized
    rho = dec["rho"].copy()
    rho[0, 0] += 1e-4
    rho[1, 1] -= 1e-4
    with pytest.raises(checks.CheckError, match="rho"):
        checks.check_decomposition(p.tau, p.encoders, p.dim_a_prime, p.dim_b, dict(dec, rho=rho), 1e-7)


def _certify(tmp_path, b):
    serialize.save_basis(b, str(tmp_path / "b.json"))
    _run(["basis", "certify", tmp_path / "b.json", "-o", tmp_path / "c.json"])
    return checks.read_json(tmp_path / "c.json")["certificates"]


def test_kinds_of_untransformed_battery_match_table():
    for family, b in workload.certify_battery():
        kinds = {c.kind for c in bases.certify_not_clock_shift(b)}
        assert kinds == checks.EXPECTED_KINDS[family], (family, b.d)


def test_certificates_accepted_after_equivalence(tmp_path):
    rng = np.random.default_rng(5)
    b = bases.matching_basis(5)
    moved = bases.apply_basis_equivalence(
        b, np.exp(2j * np.pi * rng.random(25)), randlab.haar_unitary(5, rng), randlab.haar_unitary(5, rng)
    )
    checks.check_certificates(moved.elements, "matching", _certify(tmp_path, moved))


def test_ratio_witness_at_wrong_pair_rejected(tmp_path):
    b = bases.matching_basis(5)
    certs = _certify(tmp_path, b)
    ratio = next(c for c in certs if c["kind"] == checks.KIND_RATIO)
    i, j = ratio["witness"]
    # pair (0, 1) is Z^0, Z^1: its eigenvalue ratios are all 5th roots of unity
    ratio["witness"] = [0, 1] if (i, j) != (0, 1) else [0, 2]
    with pytest.raises(checks.CheckError, match="no eigenvalue ratio"):
        checks.check_certificates(b.elements, "matching", certs)


def test_projective_witness_at_wrong_pair_rejected(tmp_path):
    b = bases.werner3_basis(complex(math.cos(math.pi / 3), math.sin(math.pi / 3)))
    certs = _certify(tmp_path, b)
    certs[0]["witness"] = [0, 0, 1]
    with pytest.raises(checks.CheckError):
        checks.check_certificates(b.elements, "werner3", certs)


def test_missing_kind_rejected(tmp_path):
    b = bases.pauli_tensor_basis(4)
    with pytest.raises(checks.CheckError, match="kinds"):
        checks.check_certificates(b.elements, "pauli-tensor", [])
    certs = _certify(tmp_path, b)
    certs[0]["witness_value"] = 4
    with pytest.raises(checks.CheckError, match="distinct"):
        checks.check_certificates(b.elements, "pauli-tensor", certs)


def test_benchmark_json_lists_every_layer_metric():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer"]]
    reported = list(spans.layer_metrics({}, 1))
    assert listed[: len(reported)] == reported
    assert listed[len(reported):] == ["trace.untraced_op_s", "trace.self_sum_s", "trace.ops_per_s_ratio"]
