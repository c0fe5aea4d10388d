import math

import numpy as np
import pytest

from superdense import numkit as nk
from superdense import protocol as pr
from superdense import randlab as rl


class TestHaarUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 5, 16):
            u = rl.haar_unitary(d, rng)
            assert np.linalg.norm(u.conj().T @ u - np.eye(d)) < 1e-12

    def test_d1_is_unit_phase(self):
        rng = np.random.default_rng(1)
        phases = np.array([rl.haar_unitary(1, rng)[0, 0] for _ in range(2000)])
        assert np.max(np.abs(np.abs(phases) - 1)) < 1e-12
        # uniform phase: the mean of exp(i theta) vanishes like 1/sqrt(n)
        assert abs(phases.mean()) < 5 / math.sqrt(2000)

    def test_first_moment(self):
        # E|U_00|^2 = 1/d for Haar, estimated within 3 standard errors
        rng = np.random.default_rng(2)
        d, n = 2, 100_000
        vals = np.abs(nk.haar_unitaries(d, n, rng)[:, 0, 0]) ** 2
        se = vals.std() / math.sqrt(n)
        assert abs(vals.mean() - 1 / d) < 3 * se

    def test_left_invariance_moment(self):
        # |Tr(V U)|^2 has the same Haar mean as |Tr U|^2 (both 1 for d >= 2)
        rng = np.random.default_rng(3)
        d, n = 3, 20_000
        draws = nk.haar_unitaries(d, n + 1, rng)
        v, us = draws[0], draws[1:]
        t_plain = np.abs(np.trace(us, axis1=1, axis2=2)) ** 2
        t_rot = np.abs(np.trace(v @ us, axis1=1, axis2=2)) ** 2
        se = math.sqrt(t_plain.var() / n + t_rot.var() / n)
        assert abs(t_plain.mean() - t_rot.mean()) < 3 * se


class TestRandomProtocolEnsemble:
    def test_unit_norms_and_gram_diagonal(self):
        rng = np.random.default_rng(5)
        ens = rl.random_protocol_ensemble(3, rng)
        assert len(ens) == 9
        for ket in ens.states:
            assert abs(np.linalg.norm(ket) - 1) < 1e-12

    def test_bob_marginal_maximally_mixed(self):
        rng = np.random.default_rng(6)
        ens = rl.random_protocol_ensemble(3, rng)
        for k in range(len(ens)):
            marg = nk.partial_trace(ens.density(k), [3, 3], [1])
            assert np.linalg.norm(marg - np.eye(3) / 3) < 1e-12

    def test_matches_explicit_construction(self):
        rng = np.random.default_rng(7)
        d = 4
        ens = rl.random_protocol_ensemble(d, rng)
        rng2 = np.random.default_rng(7)
        u0 = rl.haar_unitary(d, rng2)
        explicit = np.kron(u0, np.eye(d)) @ nk.max_entangled(d)
        assert np.allclose(ens.states[0], explicit)


class TestEsd:
    def test_orthogonal_states(self):
        kets = tuple(np.eye(4)[:, k].astype(complex) for k in range(4))
        e = pr.StateEnsemble(probs=(0.25,) * 4, states=kets)
        s = rl.esd(e)
        assert np.allclose(sorted(s), [1, 1, 1, 1])

    def test_trace_identity(self):
        rng = np.random.default_rng(8)
        ens = rl.random_protocol_ensemble(4, rng)
        s = rl.esd(ens)
        assert abs(s.sum() - s.size) < 1e-6 * s.size
        assert s.min() > -1e-9
        assert list(s) == sorted(s, reverse=True)
        assert s.flags.c_contiguous

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_equals_full_product_gram(self, d):
        # Q from zherk's lower triangle gives the spectrum of psi psi^H
        # formed as a full product, bit for bit
        ens = rl.random_protocol_ensemble(d, np.random.default_rng([17, d]))
        psi = np.column_stack(ens.states)
        expected = np.linalg.eigvalsh(psi @ psi.conj().T)[::-1]
        assert np.array_equal(rl.esd(ens), expected)


class TestMarchenkoPastur:
    def test_density_value_r1(self):
        # oracle: evaluate (1/2pi) sqrt((4 - x)/x) at x = 2
        p = rl.MPParams(r=1.0)
        oracle = (1 / (2 * math.pi)) * math.sqrt((4 - 2.0) / 2.0)
        assert oracle == pytest.approx(0.15915, abs=5e-6)
        assert rl.mp_density(p, 2.0) == pytest.approx(oracle)

    def test_cdf_endpoints_r1(self):
        p = rl.MPParams(r=1.0)
        assert rl.mp_cdf(p, 0.0) == 0.0
        assert rl.mp_cdf(p, 4.0) == pytest.approx(1.0, abs=1e-8)

    def test_atom_r2(self):
        p = rl.MPParams(r=2.0)
        assert p.atom == pytest.approx(0.5)
        assert rl.mp_cdf(p, 1e-9) == pytest.approx(0.5, abs=1e-9)
        assert rl.mp_cdf(p, p.b) == pytest.approx(1.0, abs=1e-8)

    def test_density_integrates_to_one(self):
        for r in (0.5, 1.0, 2.0):
            p = rl.MPParams(r=r)
            assert rl.mp_cdf(p, p.b + 1) == pytest.approx(1.0, abs=1e-8)

    def test_sqrt_moment_is_8_over_3pi(self):
        from scipy import integrate

        p = rl.MPParams(r=1.0)
        val, _ = integrate.quad(lambda x: math.sqrt(x) * rl.mp_density(p, x), 0, 4)
        assert val == pytest.approx(rl.EIGHT_OVER_3PI, abs=1e-9)

    @pytest.mark.parametrize("r", [0.25, 1.0, 4.0])
    def test_cdf_matches_quadrature(self, r):
        from scipy import integrate

        p = rl.MPParams(r=r)
        xs = np.linspace(-0.5, p.b + 0.5, 301)
        want = []
        for x in xs:
            total = 0.0 if x < 0 else p.atom
            if x > p.a:
                val, _ = integrate.quad(
                    lambda t: rl.mp_density(p, t), p.a, min(x, p.b),
                    limit=200, epsabs=1e-14, epsrel=1e-13,
                )
                total += val
            want.append(total)
        got = rl.mp_cdf(p, xs)
        assert got.shape == xs.shape
        assert np.max(np.abs(got - np.array(want))) <= 1e-10

    def test_cdf_r1_closed_form(self):
        xs = np.linspace(0.0, 4.0, 41)
        oracle = (np.sqrt(xs * (4 - xs)) + 4 * np.arcsin(np.sqrt(xs) / 2)) / (2 * math.pi)
        assert np.max(np.abs(rl.mp_cdf(rl.MPParams(r=1.0), xs) - oracle)) <= 1e-14

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_invalid_ratio(self, r):
        with pytest.raises(ValueError, match="finite and positive"):
            rl.MPParams(r=r)


class TestKolmogorov:
    def test_quantile_sample(self):
        p = rl.MPParams(r=1.0)
        n = 200
        # invert the cdf by bisection at midpoint ranks
        xs = []
        for k in range(n):
            target = (k + 0.5) / n
            lo, hi = 0.0, 4.0
            for _ in range(60):
                mid = (lo + hi) / 2
                if rl.mp_cdf(p, mid) < target:
                    lo = mid
                else:
                    hi = mid
            xs.append((lo + hi) / 2)
        assert rl.kolmogorov_distance(tuple(xs), p) <= 1.0 / n + 1e-6

    def test_all_zeros_sample(self):
        assert rl.kolmogorov_distance((0.0,) * 5, rl.MPParams(r=1.0)) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rl.kolmogorov_distance((), rl.MPParams(1.0))


class TestMeanSqrt:
    def test_all_ones(self):
        assert rl.mean_sqrt_esd((1.0,) * 4) == 1.0

    def test_equals_hc_quantity(self):
        rng = np.random.default_rng(11)
        for d in (2, 3):
            ens = rl.random_protocol_ensemble(d, rng)
            assert rl.mean_sqrt_esd(rl.esd(ens)) == pytest.approx(
                pr.hc_quantity(ens), abs=1e-10
            )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rl.mean_sqrt_esd((1.0, -0.5, 0, 0))


class TestMOperator:
    def test_d2_coefficients(self):
        m = rl.m_operator_closed_form(2)
        assert m.beta == pytest.approx(1 / 12)
        assert m.gamma == pytest.approx(-1 / 24)

    @pytest.mark.parametrize("d", [2, 3])
    def test_trace_one_hermitian(self, d):
        m = rl.m_operator_closed_form(d)
        assert np.trace(m.matrix).real == pytest.approx(1.0)
        assert nk.is_hermitian(m.matrix, 1e-12)

    def test_monte_carlo_agrees(self):
        rng = np.random.default_rng(13)
        m = rl.m_operator_closed_form(2)
        mc = rl.m_operator_monte_carlo(2, 20_000, rng)
        assert np.abs(mc - m.matrix).max() < 2e-3

    def test_psd(self):
        m = rl.m_operator_closed_form(3)
        assert np.linalg.eigvalsh(m.matrix).min() > -1e-12


class TestPseudoIsotropy:
    def test_identity_has_zero_variance(self):
        rng = np.random.default_rng(17)
        var = rl.pseudo_isotropy_variance(3, np.eye(9), 200, rng)
        assert var < 1e-20

    def test_projector_below_bound(self):
        rng = np.random.default_rng(19)
        d = 4
        n = d * d
        fourier = np.fft.fft(np.eye(n)) / math.sqrt(n)
        a = fourier[:, : n // 2] @ fourier[:, : n // 2].conj().T
        var = rl.pseudo_isotropy_variance(d, a, 2000, rng)
        assert 0 < var < rl.pseudo_isotropy_bound(d, a)

    def test_rejects_large_norm(self):
        rng = np.random.default_rng(23)
        with pytest.raises(ValueError):
            rl.pseudo_isotropy_variance(2, 2 * np.eye(4), 10, rng)


class TestExperiment:
    def test_reproducible(self):
        a = rl.distinguishability_experiment(4, 3, seed=123)
        b = rl.distinguishability_experiment(4, 3, seed=123)
        assert a == b

    def test_seed_changes_result(self):
        a = rl.distinguishability_experiment(4, 2, seed=1)
        b = rl.distinguishability_experiment(4, 2, seed=2)
        assert a.hc != b.hc

    def test_sandwich_and_fields(self):
        st = rl.distinguishability_experiment(4, 3, seed=5)
        assert st.trials == 3 and len(st.hc) == 3
        for hc, pgm in zip(st.hc, st.pgm):
            assert pgm is not None  # d=4 <= pgm limit
            assert pgm <= hc + 1e-10
            assert hc <= 1 + 1e-10

    def test_pgm_gated_above_limit(self):
        st = rl.distinguishability_experiment(8, 1, seed=7, pgm_limit=4)
        assert st.pgm == (None,)

    def test_first_spectrum_is_trial_zero(self):
        st = rl.distinguishability_experiment(4, 3, seed=9)
        trial0 = rl.esd(rl.random_protocol_ensemble(4, np.random.default_rng([9, 0])))
        assert st.first_spectrum == tuple(trial0)
        assert len(st.first_spectrum) == 16
        assert st.max_eig[0] == st.first_spectrum[0]
        assert st.hc[0] == rl.mean_sqrt_esd(trial0)

    def test_concentration_qualitative(self):
        stds = []
        for d in (4, 8, 16):
            st = rl.distinguishability_experiment(d, 6, seed=31)
            stds.append(st.hc_std)
        assert stds[2] < stds[0]
