import dataclasses
import math
import signal
import threading
import time

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
        # G from zherk's lower triangle gives the spectrum of psi^H psi
        # formed as a full product, bit for bit, through the same eigensolver
        ens = rl.random_protocol_ensemble(d, np.random.default_rng([17, d]))
        psi = np.column_stack(ens.states)
        expected = nk.hermitian_eigenvalues(psi.conj().T @ psi)[::-1]
        assert np.array_equal(rl.esd(ens), expected)


class TestSharedEigensolve:
    """One eigh of G = Psi^H Psi feeds the spectrum and the PGM."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_matches_separate_spectrum_and_root(self, d):
        kets = rl.random_protocol_ensemble(d, np.random.default_rng([61, d])).kets()
        n = d * d
        w, pgm = rl.spectrum_and_pgm(kets)
        psi = np.column_stack(kets)
        g = psi.conj().T @ psi
        assert np.abs(w - np.linalg.eigvalsh(g)[::-1]).max() <= 1e-12 * n
        assert list(w) == sorted(w, reverse=True)
        # the square-root formula it replaces: (1/n) sum_i |(sqrt G)_ii|^2
        root = nk.psd_sqrt(g, 1e-8)
        assert abs(pgm - np.sum(np.abs(np.diag(root)) ** 2) / n) <= 1e-12

    def test_experiment_above_pgm_limit_uses_esd(self):
        st = rl.distinguishability_experiment(4, 1, seed=2, pgm_limit=3)
        ens = rl.random_protocol_ensemble(4, np.random.default_rng([2, 0]))
        assert st.first_spectrum == tuple(rl.esd(ens))
        assert st.pgm == (None,)

    def test_ensemble_kets_are_the_sampler_array(self):
        ens = rl.random_protocol_ensemble(3, np.random.default_rng(12))
        kets = ens.kets()
        assert isinstance(kets, np.ndarray) and kets.shape == (9, 9)
        assert kets.flags.c_contiguous and kets is ens.states


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

    @pytest.mark.parametrize("samples", [0, -1])
    def test_monte_carlo_rejects_no_samples(self, samples):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            rl.m_operator_monte_carlo(2, samples, np.random.default_rng(13))

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

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_no_samples(self, samples):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            rl.pseudo_isotropy_variance(3, np.eye(9), samples, np.random.default_rng(17))

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
        ens = rl.random_protocol_ensemble(4, np.random.default_rng([9, 0]))
        trial0, pgm0 = rl.spectrum_and_pgm(ens.kets())  # d=4 <= pgm limit
        assert st.pgm[0] == pgm0
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


class TestSpectralIdentities:
    """Each spectrum against identities that do not depend on the eigensolver."""

    TRIALS = 200

    def check_identities(self, w, g):
        # g holds the lower triangle of G only, so ||G||_F^2 = 2 sum |g|^2 - sum |g_ii|^2
        n, eps = len(w), np.finfo(float).eps
        diag = np.diag(g).real
        trace, frobenius = diag.sum(), 2 * np.vdot(g, g).real - np.sum(diag**2)
        top = np.abs(w).max()
        assert abs(w.sum() - trace) <= 4 * n * eps * top
        assert abs(np.sum(w**2) - frobenius) <= 8 * n * eps * top**2

    def test_second_moment_and_identities_d8(self):
        # E |<psi_i|psi_j>|^2 = E |Tr U_i^* U_j|^2 / d^2 = 1/d^2 for i != j, so
        # E (1/n) sum lambda^2 = (1/n) E ||G||_F^2 = 2 - 1/n (Marchenko-Pastur: 2);
        # the overlaps are pairwise independent, so one trial's sd is about sqrt(2)/n
        d = 8
        n = d * d
        moments = []
        for t in range(self.TRIALS):
            kets = rl.random_protocol_ensemble(d, np.random.default_rng([2012, t])).kets()
            w, _ = rl.spectrum_and_pgm(kets)
            self.check_identities(w, nk.gram(kets))
            moments.append(np.sum(w**2) / n)
        assert abs(np.mean(moments) - (2 - 1 / n)) <= 5 * math.sqrt(2) / (n * math.sqrt(self.TRIALS))

    @pytest.mark.parametrize("t", [0, 1])
    def test_identities_two_stage_d17(self, t):
        ens = rl.random_protocol_ensemble(17, np.random.default_rng([2012, t]))
        self.check_identities(rl.esd(ens), nk.gram(ens.kets()))

    @pytest.mark.parametrize("d", [8, 17])
    def test_runtime_check_names_the_identity(self, d):
        # d = 8 is the eigh path's size, d = 17 the two-stage solver's
        ens = rl.random_protocol_ensemble(d, np.random.default_rng([2012, 0]))
        g = nk.gram(ens.kets())
        w = nk.hermitian_eigenvalues(g)
        rl.check_spectrum(w, g)
        shift = np.zeros_like(w)
        shift[-1] = 1e-10
        with pytest.raises(np.linalg.LinAlgError, match="Gram trace"):
            rl.check_spectrum(w + shift, g)
        # the same sum, another sum of squares
        shift[0] = -1e-10
        with pytest.raises(np.linalg.LinAlgError, match="Gram Frobenius norm"):
            rl.check_spectrum(w + shift, g)


class TestTrialPool:
    """The trials of `distinguishability_experiment` on a thread pool."""

    @pytest.mark.parametrize("d, trials", [(4, 7), (17, 3)])  # the PGM path, the esd path
    def test_stats_do_not_depend_on_workers(self, d, trials, monkeypatch):
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(rl, "_trial_workers", lambda n, t, workers=workers: workers)
            runs.append(rl.distinguishability_experiment(d, trials, seed=41))
        for field in dataclasses.fields(rl.ExperimentStats):
            # repr round-trips a float exactly, so equal reprs are equal bits
            assert len({repr(getattr(run, field.name)) for run in runs}) == 1

    @pytest.mark.parametrize("threads, cpus, n, trials, workers", [
        (None, 8, 64, 40, 1),     # no OpenBLAS thread count
        (2, 2, 64, 40, 1),        # BLAS threads take every CPU
        (4, 2, 64, 40, 1),
        (1, 8, 64, 1, 1),         # one trial
        (1, 64, 4096, 3, 1),      # d = 64: the memory cap
        (1, 8, 64, 40, 8),        # CPUs // BLAS threads
        (2, 8, 64, 40, 4),
        (1, 8, 64, 3, 3),         # the trial count
        (1, 64, 1024, 40, 5),     # d = 32: _POOL_ENTRIES // (3 n^2)
    ])
    def test_worker_rule(self, threads, cpus, n, trials, workers, monkeypatch):
        monkeypatch.setattr(nk, "blas_threads", lambda: threads)
        monkeypatch.setattr(rl.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert rl._trial_workers(n, trials) == workers

    def test_worker_rule_without_affinity(self, monkeypatch):
        monkeypatch.setattr(nk, "blas_threads", lambda: 1)
        monkeypatch.delattr(rl.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(rl.os, "cpu_count", lambda: 6)
        assert rl._trial_workers(64, 40) == 6

    def test_only_a_pool_starts_threads(self, monkeypatch):
        # two BLAS slots leave a CPU idle; a lone trial still runs on the
        # calling thread, and only two or more workers make a thread pool
        made, ran_on = [], []

        class Recorder(rl.ThreadPoolExecutor):
            def __init__(self, workers):
                made.append(workers)
                super().__init__(workers)

        real = rl._trial

        def trial(*args, **kwargs):
            ran_on.append(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(rl, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(rl, "_trial", trial)
        monkeypatch.setattr(rl, "_blas_slots", lambda: 2)
        start = threading.active_count()
        rl.distinguishability_experiment(20, 1, seed=1)
        assert made == [] and ran_on == [threading.current_thread()]
        assert threading.active_count() == start
        rl.distinguishability_experiment(20, 2, seed=1)
        assert made == [2]

    def test_blas_threads_reads_numpys_openblas(self):
        if nk._zheevd_2stage() is None:
            pytest.skip("numpy is not linked against its vendored OpenBLAS")
        assert nk.blas_threads() >= 1

    @pytest.mark.parametrize("ctrl_c", [False, True])
    def test_failure_stops_trials_not_started(self, ctrl_c, monkeypatch):
        # trial 2 raises, or the caller's thread gets SIGINT while trial 2 runs
        if ctrl_c and not hasattr(signal, "pthread_kill"):
            pytest.skip("needs signal.pthread_kill")
        started, failed = [], threading.Event()
        real = rl._trial

        def trial(d, seed, pgm_limit, t):
            started.append(t)
            if t == 2:
                if not ctrl_c:
                    failed.set()
                    raise np.linalg.LinAlgError("trial 2")
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                time.sleep(0.5)  # the caller handles the signal meanwhile
                failed.set()
            if t < 2:
                assert failed.wait(timeout=10)  # trials 0-2 run at once
            return real(d, seed, pgm_limit, t)

        monkeypatch.setattr(rl, "_trial", trial)
        monkeypatch.setattr(rl, "_trial_workers", lambda n, trials: 3)
        with pytest.raises(KeyboardInterrupt if ctrl_c else np.linalg.LinAlgError):
            rl.distinguishability_experiment(2, 40, seed=0)
        # trials 0-2 finish, and no worker starts another
        assert sorted(started) == [0, 1, 2]
