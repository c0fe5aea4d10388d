"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The random-matrix
criteria (5 and 6) take a few minutes; everything else is fast.
"""

import math

import numpy as np

from superdense import bases
from superdense import numkit as nk
from superdense import protocol as pr
from superdense import randlab as rl
from superdense import rigidity as rg

EIGHT_3PI = 8.0 / (3.0 * math.pi)


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    return ok


def constructed_bases():
    """The basis battery shared by criteria 1-3."""
    out = []
    for d in range(2, 13):
        out.append((f"clock-shift-{d}", bases.clock_shift_basis(d)))
    for d in (4, 8):
        out.append((f"pauli-tensor-{d}", bases.pauli_tensor_basis(d)))
    for d in range(5, 13):
        out.append((f"matching-{d}", bases.matching_basis(d)))
    out.append(("werner3", bases.werner3_basis(np.exp(1j * np.pi / 3))))
    return out


def scramble_configs(count=50):
    """Deterministic sweep of dim A' in 1..6, blocks in 1..3, dim B' in 1..4."""
    configs = []
    s = 0
    while len(configs) < count:
        a1 = (s % 6) + 1
        blocks = min((s % 3) + 1, a1)
        b1 = max(blocks, (s % 4) + 1)
        configs.append((s, a1, b1, blocks))
        s += 1
    return configs


def test_criterion_1_basis_validity():
    worst = 0.0
    worst_name = ""
    for name, b in constructed_bases():
        rep = bases.verify_orthogonal_unitary_basis(b, tol=1e-9)
        violation = max(rep.max_unitarity_violation, rep.max_orthogonality_violation)
        if violation > worst:
            worst, worst_name = violation, name
        if not rep.passed:
            assert report(1, "basis validity", False, f"{name} failed: {violation:.2e}")
    ok = worst < 1e-9
    assert report(1, "basis validity", ok, f"max violation {worst:.2e} ({worst_name})")


def test_criterion_2_nonequivalence_certificates():
    problems = []
    for d in range(5, 13):
        kinds = {c.kind for c in bases.certify_not_clock_shift(bases.matching_basis(d))}
        if bases.KIND_EIGENVALUE_RATIO not in kinds:
            problems.append(f"matching-{d} missing eigenvalue-ratio")
    for d in (4, 8):
        kinds = {c.kind for c in bases.certify_not_clock_shift(bases.pauli_tensor_basis(d))}
        if bases.KIND_DISTINCT_COUNT not in kinds:
            problems.append(f"pauli-tensor-{d} missing distinct-count")
    kinds = {
        c.kind
        for c in bases.certify_not_clock_shift(bases.werner3_basis(np.exp(1j * np.pi / 3)))
    }
    if bases.KIND_PROJECTIVE not in kinds:
        problems.append("werner3 missing projective-noncommutativity")
    for d in range(2, 9):
        fired = bases.certify_not_clock_shift(bases.clock_shift_basis(d))
        if fired:
            problems.append(f"clock-shift-{d} fired {[c.kind for c in fired]}")
    ok = not problems
    assert report(2, "non-equivalence certificates", ok, "; ".join(problems) or "all as required")


def test_criterion_3_errorless_verification():
    worst = 0.0
    worst_name = ""
    protos = [("bennett-wiesner", pr.bennett_wiesner())]
    protos += [(name, pr.canonical_protocol(b)) for name, b in constructed_bases()]
    for name, p in protos:
        rep = pr.verify_errorless(p, tol=1e-10)
        if rep.max_state_overlap > worst:
            worst, worst_name = rep.max_state_overlap, name
        if not rep.passed:
            assert report(3, "errorless verification", False, f"{name}: {rep.max_state_overlap:.2e}")
    ok = worst < 1e-10
    assert report(
        3, "errorless verification", ok,
        f"{len(protos)} protocols, max Tr(rho_i rho_j) = {worst:.2e} ({worst_name})",
    )


def test_criterion_4_rigidity_round_trip():
    worst = 0.0
    failures = []
    for seed, a1, b1, blocks in scramble_configs(50):
        rng = np.random.default_rng([424242, seed])
        p, _ = pr.random_scrambled_bw(rng, a1, b1, blocks)
        try:
            dec, _ = rg.canonicalize(p)
        except Exception as exc:  # any stage failure is a criterion failure
            failures.append(f"seed {seed} ({a1},{b1},{blocks}): {exc}")
            continue
        rep = rg.verify_decomposition(p, dec, tol=1e-7)
        resid = max(rep.state_residual, max(rep.encoder_residuals))
        worst = max(worst, resid)
        if not rep.passed:
            failures.append(f"seed {seed}: residual {resid:.2e}")
    ok = not failures
    assert report(
        4, "rigidity round-trip", ok,
        "; ".join(failures) or f"50 instances, worst residual {worst:.2e} < 1e-7",
    )


def test_criterion_4_blocks_are_the_planted_blocks():
    # canonicalize returns the coarsest refinement: one block per planted block,
    # of its rank, never a planted block split into pieces
    for seed, a1, b1, blocks in scramble_configs(50):
        p, planted = pr.random_scrambled_bw(np.random.default_rng([424242, seed]), a1, b1, blocks)
        dec, _ = rg.canonicalize(p)
        ranks = sorted(round(np.trace(p_r).real) for p_r, _, _ in dec.blocks)
        assert ranks == sorted(round(np.trace(p_r).real) for p_r, _, _ in planted.blocks), seed


def test_criterion_4_scrambles_equal_the_explicit_construction():
    # random_scrambled_bw transports canonical_form along (V^*, C, W^*); spelled
    # out, that is (V (x) W)^* (rho (x) EPR)(V (x) W) and (C_i (x) 1)(sum_r ...) V
    for seed, a1, b1, blocks in scramble_configs(50):
        p, dec = pr.random_scrambled_bw(np.random.default_rng([424242, seed]), a1, b1, blocks)
        vw = np.kron(dec.v, dec.w)
        assert np.array_equal(p.tau, vw.conj().T @ pr.canonical_state(dec.rho, a1, b1) @ vw)
        for c_i, sigma, u in zip(dec.c, nk.PAULIS, p.encoders, strict=True):
            block_sum = np.zeros((2 * a1, 2 * a1), dtype=complex)
            for p_r, s_r, _sign in dec.blocks:
                block_sum += np.kron(p_r, s_r @ sigma @ s_r.conj().T)
            assert np.array_equal(u, np.kron(c_i, np.eye(2)) @ block_sum @ dec.v)


def test_criterion_5_random_protocol_limit():
    stats = rl.distinguishability_experiment(d=32, trials=10, seed=20260808)
    dev = abs(stats.hc_mean - EIGHT_3PI)
    error_bound = 1.0 - stats.hc_mean
    ok = dev <= 0.02 and error_bound >= 0.10
    assert report(
        5, "random-protocol limit", ok,
        f"mean sqrt-eigenvalue {stats.hc_mean:.5f} vs 8/(3pi) = {EIGHT_3PI:.5f} "
        f"(dev {dev:.4f} <= 0.02); certified decoding error {error_bound:.3f} >= 0.10",
    )


def test_criterion_6_marchenko_pastur_fit():
    stats = rl.distinguishability_experiment(d=64, trials=5, seed=20260809)
    max_eig = max(stats.max_eig)
    ok = stats.ks_distance <= 0.05 and max_eig < 5.0
    assert report(
        6, "Marchenko-Pastur fit", ok,
        f"pooled KS distance {stats.ks_distance:.4f} <= 0.05; "
        f"largest eigenvalue {max_eig:.3f} < 5",
    )


def test_criterion_7_m_operator():
    m2 = rl.m_operator_closed_form(2)
    coeff_ok = abs(m2.beta - 1 / 12) < 1e-15 and abs(m2.gamma + 1 / 24) < 1e-15
    devs = []
    for d in (2, 3):
        rng = np.random.default_rng([77, d])
        mc = rl.m_operator_monte_carlo(d, 100_000, rng)
        devs.append(float(np.abs(mc - rl.m_operator_closed_form(d).matrix).max()))
    ok = coeff_ok and all(dev < 5e-3 for dev in devs)
    assert report(
        7, "M-operator", ok,
        f"d=2 coefficients (1/12, -1/24) exact: {coeff_ok}; "
        f"MC deviation d=2: {devs[0]:.2e}, d=3: {devs[1]:.2e} (< 5e-3)",
    )


def test_criterion_8_discrimination_sandwich():
    rng = np.random.default_rng(88)
    worst_gap = 0.0
    helstrom_dev = 0.0
    for k in range(100):
        m = 2 if k % 3 == 0 else int(rng.integers(2, 9))
        dim = int(rng.integers(2, 9))
        kets = []
        for _ in range(m):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            kets.append(v / np.linalg.norm(v))
        e = pr.StateEnsemble(probs=(1 / m,) * m, states=tuple(kets))
        pgm, hc = pr.pgm_success(e), pr.hc_quantity(e)
        worst_gap = max(worst_gap, pgm - hc, hc - 1.0)
        if m == 2:
            overlap = abs(np.vdot(kets[0], kets[1]))
            helstrom = 0.5 * (1 + math.sqrt(1 - overlap**2))
            helstrom_dev = max(helstrom_dev, abs(pgm - helstrom))
    ok = worst_gap <= 1e-10 and helstrom_dev <= 1e-10
    assert report(
        8, "discrimination sandwich", ok,
        f"100 ensembles: max(pgm - hc, hc - 1) = {worst_gap:.2e}; "
        f"two-state PGM vs Helstrom deviation {helstrom_dev:.2e} <= 1e-10",
    )


def test_criterion_9_pseudo_isotropy():
    # the fixed half-dimensional projector family: first half of the Fourier
    # basis (a standard-basis half would align with rows of the unitary and
    # make the quadratic form constant)
    ratios = []
    below = []
    for d in (4, 8, 16):
        n = d * d
        fourier = np.fft.fft(np.eye(n)) / math.sqrt(n)
        half = fourier[:, : n // 2]
        a = half @ half.conj().T
        rng = np.random.default_rng([99, d])
        var = rl.pseudo_isotropy_variance(d, a, samples=10_000, rng=rng)
        bound = rl.pseudo_isotropy_bound(d, a)
        below.append(var < bound)
        ratios.append(var / n**2)
    monotone = ratios[0] > ratios[1] > ratios[2]
    ok = all(below) and monotone
    assert report(
        9, "pseudo-isotropy", ok,
        f"variance/n^2 at d=4,8,16: {ratios[0]:.2e} > {ratios[1]:.2e} > {ratios[2]:.2e}; "
        f"all below the proof bound: {all(below)}",
    )
