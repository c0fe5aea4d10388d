import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from superdense import bases
from superdense import numkit as nk
from superdense import protocol as pr
from superdense.numkit import ID2, PAULI_X, PAULI_Y, PAULI_Z
from superdense.numkit import haar_unitary as haar


def bell_states():
    epr = nk.max_entangled(2)
    out = []
    for sig in nk.PAULIS:
        v = np.kron(sig, ID2) @ epr
        out.append(np.outer(v, v.conj()))
    return out


class TestBennettWiesner:
    def test_encoder_order(self):
        p = pr.bennett_wiesner()
        for enc, ref in zip(p.encoders, (ID2, PAULI_Z, PAULI_X, PAULI_Y)):
            assert np.allclose(enc, ref)

    def test_encoded_states_are_bell(self):
        ens = pr.encoded_states(pr.bennett_wiesner())
        for got, ref in zip(ens.states, bell_states()):
            assert np.allclose(got, ref, atol=1e-12)

    def test_errorless(self):
        rep = pr.verify_errorless(pr.bennett_wiesner())
        assert rep.passed and rep.max_state_overlap < 1e-12

    def test_validate(self):
        pr.bennett_wiesner().validate()

    @pytest.mark.parametrize(
        "change, field",
        [
            (lambda p: {"tau": np.eye(3) / 3}, "tau"),
            (lambda p: {"tau": np.zeros((4, 4))}, "tau"),
            (lambda p: {"encoders": (p.encoders[0], np.eye(3)) + p.encoders[2:]}, "encoders[1]"),
            (lambda p: {"encoders": p.encoders[:2] + (2 * p.encoders[2],) + p.encoders[3:]},
             "encoders[2]"),
            (lambda p: {"encoders": p.encoders[:3]}, "encoders"),
            # encoders are checked one by one before their count
            (lambda p: {"encoders": (p.encoders[0], 2 * p.encoders[1])}, "encoders[1]"),
        ],
    )
    def test_validate_names_field(self, change, field):
        bw = pr.bennett_wiesner()
        bad = dataclasses.replace(bw, **change(bw))
        with pytest.raises(pr.InvalidProtocolError) as err:
            bad.validate()
        assert err.value.field == field and f"field '{field}'" in str(err.value)


class TestCanonicalProtocol:
    @pytest.mark.parametrize(
        "basis",
        [bases.clock_shift_basis(3), bases.matching_basis(5)],
        ids=["clock-shift-3", "matching-5"],
    )
    def test_errorless(self, basis):
        p = pr.canonical_protocol(basis)
        assert len(p.encoders) == basis.d**2
        assert pr.verify_errorless(p, 1e-10).passed

    def test_pauli_case_matches_bw_states(self):
        p = pr.canonical_protocol(bases.clock_shift_basis(2))
        got = [s for s in pr.encoded_states(p).states]
        refs = bell_states()
        for g in got:
            assert any(nk.trace_distance(g, r) < 1e-10 for r in refs)

    def test_rejects_invalid_basis(self):
        broken = bases.UnitaryBasis(d=2, elements=(2 * ID2, PAULI_Z, PAULI_X, PAULI_Y))
        with pytest.raises(ValueError):
            pr.canonical_protocol(broken)


class TestEncodedStates:
    def test_uniform_and_normalized(self):
        ens = pr.encoded_states(pr.bennett_wiesner())
        assert ens.is_uniform()
        for k in range(len(ens)):
            assert abs(np.trace(ens.density(k)) - 1) < 1e-12

    def test_equal_encoders_give_equal_states(self):
        bw = pr.bennett_wiesner()
        p = pr.Protocol(1, 2, 2, bw.tau, (ID2,) * 4)
        ens = pr.encoded_states(p)
        for k in range(1, 4):
            assert nk.trace_distance(ens.density(0), ens.density(k)) < 1e-12


def overlap_reference(p):
    """Pairwise Tr(rho_i rho_j) of the encoded states as the six-index
    contraction of the encoded factors, sum_{alpha,beta} ||F_{j,beta}^H F_{i,alpha}||_F^2."""
    a1, d, b = p.dims
    n = len(p.encoders)
    e = pr._encoded_factors(p).reshape(n, a1, d * b, -1)
    t = np.einsum("iaur,jbus->iajbrs", e, e.conj())
    return np.einsum("iajbrs,iajbrs->ij", t, t.conj()).real


def criterion_4_scrambles():
    """Criterion 4's 50 scrambles: dim A' in 1..6, blocks in 1..3, dim B' in 1..4."""
    for s in range(50):
        a1 = s % 6 + 1
        blocks = min(s % 3 + 1, a1)
        rng = np.random.default_rng([424242, s])
        yield pr.random_scrambled_bw(rng, a1, max(blocks, s % 4 + 1), blocks)[0]


def with_encoder_noise(p, seed, eps):
    """p with eps * (G + iG') added to each encoder, made unitary again."""
    rng = np.random.default_rng([6, seed])
    encoders = tuple(nk.polar_decomposition(u + eps * (rng.standard_normal(u.shape)
                                                       + 1j * rng.standard_normal(u.shape)))[1]
                     for u in p.encoders)
    return pr.Protocol(p.dim_a_prime, p.dim_a_dbl, p.dim_b, p.tau, encoders)


def repeated_encoder_protocols():
    """Bennett-Wiesner with one encoder repeated: the overlap of that pair is 1."""
    bw = pr.bennett_wiesner()
    u = bw.encoders
    return [(pr.Protocol(1, 2, 2, bw.tau, (u[0], u[0], u[2], u[3])), {0, 1}),
            (pr.Protocol(1, 2, 2, bw.tau, (u[0], u[1], u[2], u[1])), {1, 3})]


def overlap_cases():
    scrambles = list(criterion_4_scrambles())
    noisy = [with_encoder_noise(p, s, 1e-6) for s, p in enumerate(scrambles)]
    return scrambles + noisy + [p for p, _ in repeated_encoder_protocols()]


class TestVerifyErrorless:
    def test_overlaps_agree_with_the_contraction(self):
        # an entry of T = X X^H is an inner product of length n = d dim B,
        # with rounding of at most about n eps |x_k| |x_l|; an encoder's rows
        # have sum |x|^2 = Tr tau = 1, so a block sum S of |T|^2 moves by at
        # most about 2 n eps sqrt(S), in the product and in the reference,
        # and summing the squares adds a relative error of a few eps
        eps = np.finfo(float).eps
        for p in overlap_cases():
            ref = overlap_reference(p)
            np.fill_diagonal(ref, 0.0)
            rep = pr.verify_errorless(p)
            slack = 4 * p.dim_a_dbl * p.dim_b * eps
            bound = slack * np.sqrt(ref) + slack**2 + 16 * eps * ref
            assert abs(rep.max_state_overlap - ref.max()) <= bound.max()
            assert abs(rep.max_state_overlap - ref[rep.worst_pair]) <= bound.max()
            # the worst unordered pair is the reference's wherever rounding cannot swap it
            pairs = sorted((ref[i, j], (i, j)) for i in range(4) for j in range(i + 1, 4))
            if pairs[-1][0] - pairs[-2][0] > 2 * bound.max():
                assert set(rep.worst_pair) == set(pairs[-1][1])

    def test_cli_exit_codes_follow_the_contraction(self, tmp_path, capsys):
        from superdense import cli, serialize

        path = str(tmp_path / "p.json")
        for p in overlap_cases():
            ref = overlap_reference(p)
            np.fill_diagonal(ref, 0.0)
            serialize.save_protocol(p, path)
            for tol in (1e-9, 1e-5):
                ok = ref.max() <= tol and pr.verify_errorless(p, tol).max_operator_violation <= tol
                assert cli.main(["protocol", "verify", path, "--tol", str(tol)]) == (0 if ok else 1)
        capsys.readouterr()

    def test_duplicate_encoder_fails(self):
        for p, pair in repeated_encoder_protocols():
            rep = pr.verify_errorless(p)
            assert not rep.passed
            assert rep.max_state_overlap == pytest.approx(1.0)
            assert set(rep.worst_pair) == pair

    def test_scrambles_pass(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p, _ = pr.random_scrambled_bw(rng, 2, 2, 2)
            assert pr.verify_errorless(p, 1e-9).passed

    def test_iff_hc_is_one(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            a1 = int(rng.integers(1, 4))
            blocks = min(2, a1)
            p, _ = pr.random_scrambled_bw(rng, a1, max(blocks, a1 - 1), blocks)
            ens = pr.encoded_states(p)
            assert pr.verify_errorless(p).passed
            assert pr.hc_quantity(ens) == pytest.approx(1.0, abs=1e-9)
            # perturb one encoder unitarily toward another
            enc = list(p.encoders)
            mix = 0.8 * enc[1] + 0.2 * enc[2]
            _, t = nk.polar_decomposition(mix)
            bad = pr.Protocol(p.dim_a_prime, 2, p.dim_b, p.tau, tuple(enc[:1] + [t] + enc[2:]))
            assert not pr.verify_errorless(bad, 1e-6).passed
            assert pr.hc_quantity(pr.encoded_states(bad)) < 1 - 1e-6


class TestHolevoCurlander:
    def test_orthogonal_pure(self):
        kets = [np.eye(4)[:, k] for k in range(4)]
        e = pr.StateEnsemble(probs=(0.25,) * 4, states=tuple(kets))
        assert pr.hc_quantity(e) == pytest.approx(1.0)

    def test_identical_states(self):
        m = 5
        ket = np.zeros(3, dtype=complex)
        ket[0] = 1
        e = pr.StateEnsemble(probs=(1 / m,) * m, states=(ket,) * m)
        assert pr.hc_quantity(e) == pytest.approx(1 / np.sqrt(m))

    def test_zero_plus_pair(self):
        # closed form: eigenvalues of the two-state average are (1 +- c)/4
        c = 1 / np.sqrt(2)
        expected = 0.5 * (np.sqrt(1 + c) + np.sqrt(1 - c))
        assert expected == pytest.approx(0.92388, abs=5e-6)
        zero = np.array([1, 0], dtype=complex)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        e = pr.StateEnsemble(probs=(0.5, 0.5), states=(zero, plus))
        assert pr.hc_quantity(e) == pytest.approx(expected)

    def test_mixed_state_path(self):
        rng = np.random.default_rng(3)
        states = []
        for _ in range(3):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = g @ g.conj().T
            states.append(rho / np.trace(rho))
        e = pr.StateEnsemble(probs=(0.2, 0.3, 0.5), states=tuple(states))
        acc = sum(p * p * (r @ r) for p, r in zip(e.probs, states))
        expected = np.trace(nk.psd_sqrt(acc)).real
        assert pr.hc_quantity(e) == pytest.approx(expected)


class TestPgm:
    def test_orthogonal(self):
        kets = [np.eye(3)[:, k] for k in range(3)]
        e = pr.StateEnsemble(probs=(1 / 3,) * 3, states=tuple(kets))
        assert pr.pgm_success(e) == pytest.approx(1.0)

    def test_identical(self):
        m = 4
        ket = np.array([0, 1], dtype=complex)
        e = pr.StateEnsemble(probs=(1 / m,) * m, states=(ket,) * m)
        assert pr.pgm_success(e) == pytest.approx(1 / m)

    def test_two_state_helstrom(self):
        zero = np.array([1, 0], dtype=complex)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        e = pr.StateEnsemble(probs=(0.5, 0.5), states=(zero, plus))
        overlap = abs(np.vdot(zero, plus))
        helstrom = 0.5 * (1 + np.sqrt(1 - overlap**2))
        assert helstrom == pytest.approx((1 + 1 / np.sqrt(2)) / 2)
        assert pr.pgm_success(e) == pytest.approx(helstrom, abs=1e-10)

    def test_random_two_state_matches_helstrom(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
            e = pr.StateEnsemble(probs=(0.5, 0.5), states=(v1, v2))
            helstrom = 0.5 * (1 + np.sqrt(1 - abs(np.vdot(v1, v2)) ** 2))
            assert pr.pgm_success(e) == pytest.approx(helstrom, abs=1e-10)

    def test_sandwich(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m, dim = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            kets = []
            for _ in range(m):
                v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                kets.append(v / np.linalg.norm(v))
            e = pr.StateEnsemble(probs=(1 / m,) * m, states=tuple(kets))
            pgm, hc = pr.pgm_success(e), pr.hc_quantity(e)
            assert pgm <= hc + 1e-10
            assert hc <= 1 + 1e-10
            assert 2 * hc - 1 <= hc + 1e-12

    def test_rejects_nonuniform(self):
        zero = np.array([1, 0], dtype=complex)
        one = np.array([0, 1], dtype=complex)
        e = pr.StateEnsemble(probs=(0.7, 0.3), states=(zero, one))
        with pytest.raises(ValueError):
            pr.pgm_success(e)

    def test_sandwich_bounds_helper(self):
        zero = np.array([1, 0], dtype=complex)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        e = pr.StateEnsemble(probs=(0.5, 0.5), states=(zero, plus))
        lower, upper = pr.distinguishability_bounds(e)
        assert lower == pytest.approx(pr.pgm_success(e))  # pgm beats 2hc - 1 here
        assert upper == pytest.approx(pr.hc_quantity(e))
        assert lower <= upper
        # non-uniform ensembles fall back to the 2hc - 1 lower bound
        e2 = pr.StateEnsemble(probs=(0.7, 0.3), states=(zero, plus))
        lower2, upper2 = pr.distinguishability_bounds(e2)
        assert lower2 == pytest.approx(2 * pr.hc_quantity(e2) - 1)
        assert lower2 <= upper2 <= 1

    def test_rejects_mixed(self):
        e = pr.StateEnsemble(probs=(0.5, 0.5), states=(np.eye(2) / 2, np.eye(2) / 2))
        with pytest.raises(ValueError):
            pr.pgm_success(e)

    @staticmethod
    def root_formula(kets):
        """The square-root reference: (1/m) sum_i |(sqrt G)_ii|^2."""
        psi = np.column_stack(kets)
        root = nk.psd_sqrt(psi.conj().T @ psi, 1e-8)
        return float(np.sum(np.abs(np.diag(root)) ** 2) / len(kets))

    @staticmethod
    def random_kets(rng, m, dim):
        v = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
        return tuple(v / np.linalg.norm(v, axis=1, keepdims=True))

    @staticmethod
    def frame_formula(kets):
        """(1/m) sum_i <psi_i| S^(-1/2) |psi_i>^2 with S = Psi Psi^H of full
        rank: sqrt G = Psi^H S^(-1/2) Psi, without G's null space."""
        psi = np.column_stack(kets)
        w, v = np.linalg.eigh(psi @ psi.conj().T)
        inv_root = (v / np.sqrt(w)) @ v.conj().T
        diag = np.einsum("ji,jk,ki->i", psi.conj(), inv_root, psi).real
        return float(np.mean(diag**2))

    @pytest.mark.parametrize("m, dim", [(5, 2), (9, 3), (16, 4)])
    def test_more_kets_than_dimension(self, m, dim):
        # G is m x m of rank dim; its m - dim null eigenvalues come out as
        # rounding noise of order 1e-16, whose square roots would move the
        # result by up to about 1e-8.  pgm_success cuts them; the square-root
        # formula keeps them
        kets = self.random_kets(np.random.default_rng([37, m]), m, dim)
        e = pr.StateEnsemble(probs=(1 / m,) * m, states=kets)
        exact = self.frame_formula(kets)
        assert abs(pr.pgm_success(e) - exact) <= 1e-12
        assert abs(self.root_formula(kets) - exact) <= 1e-7

    def test_tetrahedron_is_tight_frame(self):
        # four qubit states summing to 2 * identity: G = 2 P with P a rank-2
        # projector, so (sqrt G)_ii = 1/sqrt(2) and the PGM succeeds w.p. 1/2
        c, s = 1 / np.sqrt(3), np.sqrt(2 / 3)
        kets = [np.array([1, 0], dtype=complex)] + [
            np.array([c, s * np.exp(2j * np.pi * k / 3)]) for k in range(3)
        ]
        e = pr.StateEnsemble(probs=(0.25,) * 4, states=tuple(kets))
        assert self.frame_formula(kets) == pytest.approx(0.5, abs=1e-14)
        assert pr.pgm_success(e) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m, dim", [(2, 5), (3, 6), (4, 9)])
    def test_fewer_kets_than_dimension(self, m, dim):
        kets = self.random_kets(np.random.default_rng([41, m]), m, dim)
        e = pr.StateEnsemble(probs=(1 / m,) * m, states=kets)
        assert abs(pr.pgm_success(e) - self.root_formula(kets)) <= 1e-12
        if m == 2:
            helstrom = 0.5 * (1 + np.sqrt(1 - abs(np.vdot(*kets)) ** 2))
            assert pr.pgm_success(e) == pytest.approx(helstrom, abs=1e-10)

    def test_non_psd_gram_raises(self):
        # an eigendecomposition with an eigenvalue below the PSD floor
        w, v = np.linalg.eigh(np.diag([1.0, 1.0, -0.5]))
        with pytest.raises(ValueError, match="not PSD"):
            pr.pgm_from_eigh(w, v)
        # the floor is -max(tol, 1e-8) * max(1, ||G||_F): noise above it is
        # clipped to zero, anything below it raises
        for tol, top in ((1e-9, 0.5), (1e-9, 100.0), (1e-6, 100.0)):
            floor = max(tol, 1e-8) * max(1.0, top * np.sqrt(2))
            w = np.array([-1.5 * floor, top, top])
            with pytest.raises(ValueError, match="not PSD"):
                pr.pgm_from_eigh(w, np.eye(3), tol)
            w[0] = -0.5 * floor
            assert pr.pgm_from_eigh(w, np.eye(3), tol) == pytest.approx(2 * top / 3)


class TestPureSplit:
    """Kets make a pure ensemble; density matrices, even of rank 1, do not."""

    @staticmethod
    def ensembles():
        rng = np.random.default_rng(29)
        kets = []
        for _ in range(3):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            kets.append(v / np.linalg.norm(v))
        probs = (1 / 3,) * 3
        rank1 = tuple(np.outer(v, v.conj()) for v in kets)
        return pr.StateEnsemble(probs, tuple(kets)), pr.StateEnsemble(probs, rank1)

    def test_pure_flag_and_kets(self):
        ket_ens, rank1_ens = self.ensembles()
        assert ket_ens.pure and not rank1_ens.pure
        assert ket_ens.kets() == ket_ens.states
        with pytest.raises(ValueError):
            rank1_ens.kets()

    def test_hc_agrees_across_representations(self):
        ket_ens, rank1_ens = self.ensembles()
        assert abs(pr.hc_quantity(rank1_ens) - pr.hc_quantity(ket_ens)) <= 1e-12

    def test_pgm_rejects_density_matrices(self):
        _, rank1_ens = self.ensembles()
        with pytest.raises(ValueError):
            pr.pgm_success(rank1_ens)

    def test_bounds_fall_back_to_hc(self):
        ket_ens, rank1_ens = self.ensembles()
        hc = pr.hc_quantity(rank1_ens)
        assert pr.distinguishability_bounds(rank1_ens) == (2 * hc - 1, hc)
        # the ket ensemble gets the PGM, which beats 2 hc - 1 here
        lower, _ = pr.distinguishability_bounds(ket_ens)
        assert lower == pr.pgm_success(ket_ens) > 2 * hc - 1


class TestLocalEquivalence:
    def test_identity_is_noop(self):
        p = pr.bennett_wiesner()
        q = pr.apply_local_equivalence(p, np.eye(2), [np.eye(1)] * 4, np.eye(2))
        assert np.allclose(q.tau, p.tau)
        for a, b in zip(q.encoders, p.encoders):
            assert np.allclose(a, b)

    def test_preserves_errorless(self):
        rng = np.random.default_rng(13)
        p, _ = pr.random_scrambled_bw(rng, 2, 2, 2)
        q = pr.apply_local_equivalence(
            p, haar(4, rng), [haar(2, rng) for _ in range(4)], haar(4, rng)
        )
        assert pr.verify_errorless(q, 1e-9).passed

    def test_composition(self):
        rng = np.random.default_rng(17)
        p = pr.bennett_wiesner()
        v1, v2 = haar(2, rng), haar(2, rng)
        w1, w2 = haar(2, rng), haar(2, rng)
        c1 = [haar(1, rng) for _ in range(4)]
        c2 = [haar(1, rng) for _ in range(4)]
        step = pr.apply_local_equivalence(pr.apply_local_equivalence(p, v1, c1, w1), v2, c2, w2)
        combined = pr.apply_local_equivalence(
            p, v2 @ v1, [a @ b for a, b in zip(c2, c1)], w2 @ w1
        )
        assert np.allclose(step.tau, combined.tau, atol=1e-12)
        for a, b in zip(step.encoders, combined.encoders):
            assert np.allclose(a, b, atol=1e-12)

    def test_isometry_w_matches_the_explicit_construction(self):
        # W: B -> B' (x) B'' with dim B' = 3 > dim B / 2, as to_nice_form builds it
        rng = np.random.default_rng(23)
        p, _ = pr.random_scrambled_bw(rng, 2, 2, 1)
        v, w = haar(4, rng), haar(6, rng)[:, :4]
        cs = [haar(2, rng) for _ in range(4)]
        q = pr.apply_local_equivalence(p, v, cs, w)
        assert q.dims == (2, 2, 6)
        vw = np.kron(v, w)
        assert np.allclose(q.tau, vw @ p.tau @ vw.conj().T, atol=1e-12)
        for c_i, u, moved in zip(cs, p.encoders, q.encoders, strict=True):
            assert np.allclose(moved, np.kron(c_i, np.eye(2)) @ u @ v.conj().T, atol=1e-12)
        assert pr.verify_errorless(q, 1e-9).passed

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"v": np.eye(3)}, "v must act on A: expected shape (2, 2), got (3, 3)"),
            ({"w": np.eye(3)}, "w must map B to Bob's space: expected shape (m, 2), got (3, 3)"),
            ({"c": [np.eye(1)] * 3}, "c must hold one correction per encoder: expected 4, got 3"),
            ({"c": [np.eye(1)] * 2 + [np.eye(2)] * 2},
             "c[2] must act on A': expected shape (1, 1), got (2, 2)"),
        ],
        ids=["v", "w", "c", "c[k]"],
    )
    def test_wrong_shape_or_count_names_the_argument(self, bad, message):
        args = {"v": np.eye(2), "c": [np.eye(1)] * 4, "w": np.eye(2)}
        with pytest.raises(ValueError) as err:
            pr.apply_local_equivalence(pr.bennett_wiesner(), **{**args, **bad})
        assert str(err.value) == message

    def test_spectra_preserved_up_to_bob_rotation(self):
        rng = np.random.default_rng(19)
        p, _ = pr.random_scrambled_bw(rng, 2, 2, 1)
        before = pr.encoded_states(p)
        q = pr.apply_local_equivalence(
            p, haar(4, rng), [haar(2, rng) for _ in range(4)], haar(4, rng)
        )
        after = pr.encoded_states(q)
        for k in range(len(before)):
            sa = np.sort(np.linalg.eigvalsh(before.density(k)))
            sb = np.sort(np.linalg.eigvalsh(after.density(k)))
            assert np.max(np.abs(sa - sb)) < 1e-10


class TestCanonicalForm:
    def test_one_identity_block_is_bennett_wiesner(self):
        one = np.eye(1, dtype=complex)
        p = pr.canonical_form(one, 1, ((one, ID2, 1),))
        bw = pr.bennett_wiesner()
        assert p.dims == bw.dims
        assert np.array_equal(p.tau, bw.tau)
        for a, b in zip(p.encoders, bw.encoders, strict=True):
            assert np.array_equal(a, b)

    def test_protocol_and_serialize_leave_rigidity_unloaded(self):
        script = "import sys, superdense.serialize, superdense.protocol; print(sorted(sys.modules))"
        src = str(Path(pr.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "'superdense.protocol'" in proc.stdout
        assert "'superdense.rigidity'" not in proc.stdout


class TestRandomScrambledBW:
    @pytest.mark.parametrize("seed", range(4))
    def test_errorless_and_planted_verifies(self, seed):
        from superdense.rigidity import verify_decomposition

        rng = np.random.default_rng(seed)
        a1 = int(rng.integers(1, 5))
        blocks = int(rng.integers(1, min(3, a1) + 1))
        b1 = int(rng.integers(blocks, 4))
        p, planted = pr.random_scrambled_bw(rng, a1, b1, blocks)
        p.validate()
        assert pr.verify_errorless(p, 1e-9).passed
        assert verify_decomposition(p, planted, 1e-9).passed

    def test_rejects_bad_blocks(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            pr.random_scrambled_bw(rng, 2, 1, 2)
        with pytest.raises(ValueError):
            pr.random_scrambled_bw(rng, 1, 3, 2)
