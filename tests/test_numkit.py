import ctypes
import functools
import glob
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from superdense import numkit as nk
from superdense import randlab as rl
from superdense.numkit import ID2, PAULI_X, PAULI_Y, PAULI_Z


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n):
    m = random_matrix(rng, n)
    return (m + m.conj().T) / 2


def random_density(rng, n):
    m = random_matrix(rng, n)
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def tensor_all(*factors):
    return functools.reduce(np.kron, factors)


def is_projector(m, tol):
    return nk.is_hermitian(m, tol) and np.linalg.norm(m @ m - m) <= tol * max(1.0, np.linalg.norm(m))


class TestTensor:
    def test_identity_factor(self):
        out = nk.tensor(ID2, PAULI_Z)
        assert np.allclose(out, np.diag([1, -1, 1, -1]))

    def test_xx_antidiagonal(self):
        out = nk.tensor(PAULI_X, PAULI_X)
        assert np.allclose(out, np.fliplr(np.eye(4)))

    def test_basis_projector(self):
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        out = nk.tensor(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1  # |01> is index 1 with left factor slow
        assert np.allclose(out, expected)


class TestTensorEqualsKron:
    """`tensor` is `np.kron` of two matrices: same dtype, same bits."""

    @staticmethod
    def matrix(rng, shape, kind):
        # signed zeros and infinities mixed in, so the bits of 0 * x show
        vals = np.concatenate([rng.standard_normal(12), [0.0, -0.0, 1.0, -1.0, np.inf]])
        if kind == "real":
            return rng.choice(vals, size=shape)
        out = np.empty(shape, dtype=complex)
        out.real, out.imag = rng.choice(vals, size=shape), rng.choice(vals, size=shape)
        return out

    @pytest.mark.parametrize("kinds", [("real", "real"), ("complex", "complex"),
                                       ("real", "complex"), ("complex", "real")])
    @pytest.mark.parametrize("shape_a, shape_b", [((1, 3), (1, 4)), ((3, 1), (4, 1)), ((3, 3), (2, 2)),
                                                  ((1, 3), (4, 1)), ((3, 3), (1, 2)), ((2, 1), (3, 3))])
    def test_bits(self, kinds, shape_a, shape_b):
        rng = np.random.default_rng([61, *shape_a, *shape_b])
        a, b = self.matrix(rng, shape_a, kinds[0]), self.matrix(rng, shape_b, kinds[1])
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN in both
            assert same_bits(nk.tensor(a, b), np.kron(a, b))

    def test_rejects_non_matrices(self):
        with pytest.raises(ValueError, match="two matrices"):
            nk.tensor(np.ones(2), np.eye(2))


class TestPartialTrace:
    def test_epr_reduction(self):
        epr = nk.max_entangled(2)
        rho = np.outer(epr, epr.conj())
        assert np.allclose(nk.partial_trace(rho, [2, 2], [0]), np.eye(2) / 2)
        assert np.allclose(nk.partial_trace(rho, [2, 2], [1]), np.eye(2) / 2)

    def test_product_state(self):
        rng = np.random.default_rng(7)
        rho, sigma = random_density(rng, 2), random_density(rng, 3)
        out = nk.partial_trace(nk.tensor(rho, sigma), [2, 3], [1])
        assert np.allclose(out, np.trace(rho) * sigma)

    def test_cnot_second_qubit(self):
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        # oracle: explicit sum over the traced index
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                expected[i, j] = sum(cnot[2 * i + x, 2 * j + x] for x in range(2))
        assert np.allclose(expected, np.diag([2, 0]))
        assert np.allclose(nk.partial_trace(cnot, [2, 2], [0]), expected)

    def test_three_factor_middle(self):
        rng = np.random.default_rng(3)
        a, b, c = (random_density(rng, d) for d in (2, 3, 2))
        out = nk.partial_trace(tensor_all(a, b, c), [2, 3, 2], [0, 2])
        assert np.allclose(out, nk.tensor(a, c))

    def test_density_stays_density(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_density(rng, 12)
            red = nk.partial_trace(rho, [3, 4], [1])
            assert abs(np.trace(red) - 1) < 1e-10
            assert nk.is_psd(red, 1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nk.partial_trace(np.eye(5), [2, 2], [0])


class TestSpectralDecomposition:
    def test_pauli_z(self):
        groups = nk.spectral_decomposition(PAULI_Z)
        assert len(groups) == 2
        (l1, b1), (l2, b2) = groups
        assert l1 == pytest.approx(1.0) and l2 == pytest.approx(-1.0)
        assert np.allclose(b1 @ b1.conj().T, np.diag([1, 0]))
        assert np.allclose(b2 @ b2.conj().T, np.diag([0, 1]))

    def test_degenerate_spectrum(self):
        groups = nk.spectral_decomposition(np.eye(2) / 2)
        assert len(groups) == 1
        lam, basis = groups[0]
        assert lam == pytest.approx(0.5)
        assert np.allclose(basis @ basis.conj().T, np.eye(2))

    def test_grouping_policy(self):
        h = np.diag([1.0, 1.0 + 1e-12])
        # oracle: the raw eigensolver sees two distinct values
        raw = np.linalg.eigvalsh(h)
        assert raw[1] - raw[0] > 0
        groups = nk.spectral_decomposition(h, group_tol=1e-9)
        assert len(groups) == 1
        basis = groups[0][1]
        assert np.allclose(basis @ basis.conj().T, np.eye(2))

    def test_reconstruction_and_structure(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = random_hermitian(rng, 8)
            groups = nk.spectral_decomposition(h)
            projs = [b @ b.conj().T for _, b in groups]
            recon = sum(lam * p for (lam, _), p in zip(groups, projs))
            assert np.linalg.norm(h - recon) <= 1e-10 * np.linalg.norm(h)
            assert np.allclose(sum(projs), np.eye(8), atol=1e-10)
            for i, p in enumerate(projs):
                assert is_projector(p, 1e-9)
                for q in projs[i + 1:]:
                    assert np.linalg.norm(p @ q) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            nk.spectral_decomposition(np.array([[0, 1], [0, 0]], dtype=complex))


class TestPolarDecomposition:
    def test_zero_matrix_convention(self):
        d, t = nk.polar_decomposition(np.zeros((3, 3)))
        assert np.allclose(d, 0) and np.allclose(t, np.eye(3))

    def test_unitary_input(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(random_matrix(rng, 4))
        d, t = nk.polar_decomposition(q)
        assert np.allclose(d, np.eye(4), atol=1e-10)
        assert np.allclose(t, q, atol=1e-10)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_pinned_singular_example(self):
        f = np.array([[0, 2], [0, 0]], dtype=complex)
        d, t = nk.polar_decomposition(f)
        # oracle: d must equal sqrt(f f*) computed independently
        assert np.allclose(d, scipy.linalg.sqrtm(f @ f.conj().T), atol=1e-10)
        assert np.allclose(d, np.diag([2, 0]), atol=1e-12)
        assert np.allclose(t, np.array([[0, 1], [1, 0]]), atol=1e-12)

    def test_invariants_random(self):
        rng = np.random.default_rng(13)
        for k in range(30):
            n = int(rng.integers(1, 9))
            f = random_matrix(rng, n)
            if k % 3 == 0:
                f[:, : n // 2] = 0
            d, t = nk.polar_decomposition(f)
            assert np.linalg.norm(f - d @ t) <= 1e-10 * (1 + np.linalg.norm(f))
            assert np.linalg.norm(t.conj().T @ t - np.eye(n)) <= 1e-10
            assert nk.is_psd(d, 1e-9)


class TestComplementBasis:
    def test_spanning_non_orthonormal_columns_leave_nothing(self):
        # four columns spanning C^4, orthonormal only to 1e-6: each standard
        # basis vector keeps a residual above the 1e-8 cut after projection,
        # so a stop test made after the append returned four surplus vectors
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(random_matrix(rng, 4))
        cols = q + 1e-6 * random_matrix(rng, 4)
        assert nk._complement_basis(cols, 4).shape == (4, 0)
        assert nk._complement_basis(cols[:, :2], 4).shape == (4, 2)


class TestPsdSqrt:
    def test_diagonal(self):
        assert np.allclose(nk.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2, 3]))

    def test_projector_idempotence(self):
        v = np.array([1, 1j]) / np.sqrt(2)
        p = np.outer(v, v.conj())
        assert np.allclose(nk.psd_sqrt(p), p, atol=1e-12)

    def test_orthogonal_projector_sum(self):
        m = 3
        p = np.diag([1.0, 1.0, 1.0, 0.0])
        assert np.allclose(nk.psd_sqrt(p / m**2), p / m, atol=1e-12)

    def test_square_property(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = random_density(rng, 6) * rng.uniform(0.5, 10)
            s = nk.psd_sqrt(p)
            assert np.linalg.norm(s @ s - p) <= 1e-9 * np.linalg.norm(p)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            nk.psd_sqrt(np.diag([1.0, -0.5]))


class TestPsdSpectrumAndGram:
    def test_clip_keeps_noise_and_rejects_below_slack(self):
        w = np.array([-1e-12, 0.5, 2.0])
        assert np.array_equal(nk.clip_psd_spectrum(w, 1e-9), [0.0, 0.5, 2.0])
        with pytest.raises(ValueError, match="not PSD"):
            nk.clip_psd_spectrum(w, 1e-13)

    @pytest.mark.parametrize("m, dim", [(3, 3), (5, 2), (2, 6), (1, 1)])
    def test_gram_lower_triangle(self, m, dim, monkeypatch):
        rng = np.random.default_rng([43, m, dim])
        rows = random_matrix(rng, max(m, dim))[:m, :dim].copy()
        strided = np.repeat(rows, 2, axis=0)[::2]  # the same kets, not C-contiguous
        ref = rows.conj() @ rows.T  # G_ij = <psi_i|psi_j>
        # the path is a loop, not a parameter, so the test keeps one id per shape
        for path in ("openblas", "fallback"):
            with monkeypatch.context() as mp:
                if path == "fallback":
                    mp.setattr(nk, "_zherk", lambda: None)
                g = nk.gram(rows)
                assert g.shape == (m, m)
                assert np.abs(np.tril(g) - np.tril(ref)).max() <= 1e-13
                assert not np.triu(g, 1).any()
                assert np.allclose(np.linalg.eigvalsh(g, UPLO="L"), np.linalg.eigvalsh(ref))
                # a sequence of kets and a strided view give the contiguous array's bits
                for kets in (tuple(rows), strided):
                    assert same_bits(nk.gram(kets), g), path


class CountingExecutor(ThreadPoolExecutor):
    """One helper thread that counts the tasks it was given."""

    def __init__(self):
        super().__init__(1)
        self.tasks = 0

    def submit(self, fn, /, *args, **kwargs):
        self.tasks += 1
        return super().submit(fn, *args, **kwargs)


class TestSplitGram:
    """`gram` with a helper thread: the bits of one zherk call."""

    @pytest.mark.parametrize("m, n", [(2, 16), (3, 5), (255, 264), (256, 136), (256, 300),
                                      (257, 8), (257, 256), (1024, 1032), (1024, 1024)])
    def test_equals_one_zherk(self, m, n):
        if nk._zgemm() is None:
            pytest.skip("numpy's OpenBLAS has no zgemm")
        rng = np.random.default_rng([67, m, n])
        rows = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        ref = nk.gram(rows)
        strided = np.repeat(rows, 2, axis=0)[::2]  # the same kets, not C-contiguous
        with CountingExecutor() as pool:
            for kets in (rows, tuple(rows), strided):
                g = nk.gram(kets, pool)
                assert same_bits(g, ref) and g.flags.f_contiguous
                assert not np.triu(g, 1).any()
        # the helper took the block below the diagonal exactly where the rule allows
        assert pool.tasks == (3 if nk._gram_splits(m, n) else 0)

    @pytest.mark.parametrize("d", [20, 24, 28, 36, 40, 44, 48])
    def test_equals_one_zherk_at_d_squared(self, d):
        # the d^2 kets of d^2 entries that `random run` splits from d = 20,
        # those with 4 | d (1024 = 32^2 is above), checked at the running
        # machine's BLAS kernels and thread count
        if nk._zgemm() is None:
            pytest.skip("numpy's OpenBLAS has no zgemm")
        n = d * d
        assert nk._gram_splits(n, n)
        rng = np.random.default_rng([67, d])
        rows = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        with CountingExecutor() as pool:
            assert same_bits(nk.gram(rows, pool), nk.gram(rows))
        assert pool.tasks == 1

    def test_split_rule(self):
        if nk._zgemm() is None:
            pytest.skip("numpy's OpenBLAS has no zgemm")
        assert nk._gram_splits(1024, 1024) and nk._gram_splits(16, 8)
        assert not nk._gram_splits(15, 8)        # a diagonal block of fewer than 8 kets
        assert not nk._gram_splits(1024, 1025)   # a ket length OpenBLAS blocks differently
        assert nk._zherk(ctypes.CDLL) is not nk._zherk()


class TestSchur:
    """`nk.schur` against `scipy.linalg.schur(a, output="complex")`, the reference."""

    @pytest.mark.parametrize("path", ["openblas", "fallback"])
    @pytest.mark.parametrize("kind", ["random", "unitary"])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_schur_form_and_reference_bits(self, n, kind, path, monkeypatch):
        if path == "fallback":
            monkeypatch.setattr(nk, "_zgees", lambda: None)
        a = random_matrix(np.random.default_rng([75, n]), n)
        if kind == "unitary":
            a = np.linalg.qr(a)[0]
        before = a.copy()
        t, z = nk.schur(a)
        assert np.array_equal(a, before)
        assert np.abs(z @ t @ z.conj().T - a).max() <= 1e-12 * max(1.0, np.abs(a).max())
        assert nk.is_unitary(z, 1e-12)
        assert not np.tril(t, -1).any()
        t_ref, z_ref = scipy.linalg.schur(a, output="complex")
        assert same_bits(t, t_ref) and same_bits(z, z_ref)
        assert t.flags.f_contiguous and z.flags.f_contiguous

    @pytest.mark.parametrize("path", ["openblas", "fallback"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_input_raises(self, bad, path, monkeypatch):
        # checked before LAPACK on both paths: LAPACKE's NaN check misses
        # infinities, and scipy.linalg.schur raises a plain ValueError
        if path == "fallback":
            monkeypatch.setattr(nk, "_zgees", lambda: None)
        a = np.eye(3, dtype=complex)
        a[0, 2] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            nk.schur(a)

    def test_rejects_non_square(self):
        with pytest.raises(np.linalg.LinAlgError, match="square"):
            nk.schur(np.zeros((2, 3)))


class TestHermitianEigenvalues:
    """The two-stage solver against `np.linalg.eigvalsh(a, UPLO="L")`."""

    @pytest.mark.parametrize("d", [2, 3, 5, 17, 32])
    def test_agrees_with_eigvalsh_on_random_gram(self, d):
        g = nk.gram(rl.random_protocol_ensemble(d, np.random.default_rng([71, d])).kets())
        ref = np.linalg.eigvalsh(g, UPLO="L")
        w = nk.hermitian_eigenvalues(g)
        assert w.shape == (d * d,) and w.dtype == np.float64
        assert np.all(np.diff(w) >= 0)
        assert np.abs(w - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_order_does_not_matter_and_input_is_kept(self):
        h = random_hermitian(np.random.default_rng(72), 40)
        f = np.asfortranarray(h)
        before = h.copy()
        w = nk.hermitian_eigenvalues(h)
        assert w.tobytes() == nk.hermitian_eigenvalues(f).tobytes()
        assert np.array_equal(h, before) and np.array_equal(f, before)

    def test_reads_lower_triangle_only(self):
        h = random_hermitian(np.random.default_rng(73), 9)
        junk = h + np.triu(np.full_like(h, 5.0 + 7.0j), 1)
        assert nk.hermitian_eigenvalues(junk).tobytes() == nk.hermitian_eigenvalues(h).tobytes()

    @pytest.mark.parametrize("path", ["two-stage", "fallback"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    def test_non_finite_input_raises(self, bad, path, monkeypatch):
        if path == "fallback":
            monkeypatch.setattr(nk, "_zheevd_2stage", lambda: None)
        # eigvalsh returns NaN eigenvalues for this NaN input, and raises for the others
        h = np.eye(4, dtype=complex)
        h[2, 1] = bad
        with pytest.raises(np.linalg.LinAlgError):
            nk.hermitian_eigenvalues(h)

    def test_rejects_non_square(self):
        with pytest.raises(np.linalg.LinAlgError, match="square"):
            nk.hermitian_eigenvalues(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_fallback_is_eigvalsh(self, n, monkeypatch):
        monkeypatch.setattr(nk, "_zheevd_2stage", lambda: None)
        h = random_hermitian(np.random.default_rng([74, n]), n)
        assert nk.hermitian_eigenvalues(h).tobytes() == np.linalg.eigvalsh(h, UPLO="L").tobytes()

    def test_routine_found_in_numpys_openblas(self):
        libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        if not glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
            pytest.skip("this numpy build vendors no scipy-openblas64")
        assert nk._zheevd_2stage() is not None
        assert nk._zherk() is not None and nk._zgees() is not None


def haar_reference(d, rng):
    """One Haar draw at a time: the reference `haar_unitaries` must match bit for bit."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestHaarUnitaries:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
    def test_equals_per_draw_reference(self, d, monkeypatch):
        # blocks of at most 256 draws keep the reference loop short; from
        # d = 8 up that is the package's own block size
        monkeypatch.setattr(nk, "_HAAR_BLOCK", min(nk._HAAR_BLOCK, 256 * d * d))
        step = nk._HAAR_BLOCK // (d * d)
        counts = (0, 1, step - 1, step, step + 1, 3 * step + 1)
        rng = np.random.default_rng([41, d])
        ref, states = [], [rng.bit_generator.state]
        for _ in range(max(counts)):
            ref.append(haar_reference(d, rng))
            states.append(rng.bit_generator.state)
        for m in counts:
            rng = np.random.default_rng([41, d])
            expected = np.array(ref[:m], dtype=complex).reshape(m, d, d)
            assert same_bits(nk.haar_unitaries(d, m, rng), expected)
            # the same state, so the generator's next draw is the same too
            assert rng.bit_generator.state == states[m]

    @pytest.mark.parametrize("d", [1, 2, 8, 17, 32])
    def test_helper_keeps_bits_and_stream(self, d, monkeypatch):
        # four draws a block, so a few draws cross several block boundaries
        monkeypatch.setattr(nk, "_HAAR_BLOCK", 4 * d * d)
        with CountingExecutor() as pool:
            for m in (0, 1, 4, 5, 8, 9, 13):
                rng, rng2 = np.random.default_rng([71, d, m]), np.random.default_rng([71, d, m])
                assert same_bits(nk.haar_unitaries(d, m, rng, pool), nk.haar_unitaries(d, m, rng2))
                assert same_bits(rng.standard_normal(3), rng2.standard_normal(3))
        # every second block of 4 draws went to the helper
        assert pool.tasks == sum((m + 3) // 4 // 2 for m in (0, 1, 4, 5, 8, 9, 13))

    def test_single_draw(self):
        rng, rng2 = np.random.default_rng(43), np.random.default_rng(43)
        assert same_bits(nk.haar_unitary(5, rng), haar_reference(5, rng2))

    def test_empty_and_invalid(self):
        rng = np.random.default_rng(47)
        assert nk.haar_unitaries(3, 0, rng).shape == (0, 3, 3)
        with pytest.raises(ValueError, match="draw count"):
            nk.haar_unitaries(3, -1, rng)
        for d in (0, -2):
            with pytest.raises(ValueError, match="dimension"):
                nk.haar_unitaries(d, 2, rng)
        with pytest.raises(ValueError, match="dimension"):
            nk.haar_unitary(0, rng)

    @pytest.mark.parametrize("d", [2, 8])
    def test_protocol_ensemble_kets(self, d):
        ens = rl.random_protocol_ensemble(d, np.random.default_rng([53, d]))
        rng = np.random.default_rng([53, d])
        ref = [haar_reference(d, rng).reshape(-1) / np.sqrt(d) for _ in range(d * d)]
        assert same_bits(np.stack(ens.kets()), np.stack(ref))

    @pytest.mark.parametrize("d", [2, 3])
    def test_m_operator_monte_carlo(self, d):
        samples, batch = 500, 200
        mc = rl.m_operator_monte_carlo(d, samples, np.random.default_rng([59, d]), batch=batch)
        # reference: one draw and one np.kron per row
        rng = np.random.default_rng([59, d])
        total = np.zeros((d**4, d**4), dtype=complex)
        done = 0
        while done < samples:
            m = min(batch, samples - done)
            phis = np.empty((m, d**4), dtype=complex)
            for k in range(m):
                psi = haar_reference(d, rng).reshape(-1) / np.sqrt(d)
                phis[k] = np.kron(psi, psi)
            total += phis.T @ phis.conj()
            done += m
        assert same_bits(mc, total / samples)


class TestMaxEntangled:
    def test_d2(self):
        ket = nk.max_entangled(2)
        expected = np.zeros(4)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        assert np.allclose(ket, expected)

    def test_d3_amplitudes(self):
        ket = nk.max_entangled(3)
        for i in range(3):
            assert ket[i * 3 + i] == pytest.approx(1 / np.sqrt(3))
        assert np.count_nonzero(ket) == 3

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_unit_norm(self, d):
        assert np.linalg.norm(nk.max_entangled(d)) == pytest.approx(1.0)


class TestHsInner:
    def test_pauli_orthogonality(self):
        assert nk.hs_inner(PAULI_X, PAULI_Z) == pytest.approx(0)

    def test_self_inner_unitary(self):
        rng = np.random.default_rng(23)
        for d in (2, 3, 5):
            q, _ = np.linalg.qr(random_matrix(rng, d))
            assert nk.hs_inner(q, q) == pytest.approx(d)

    def test_z_xz(self):
        # oracle: direct entrywise trace of Z* (XZ)
        prod = PAULI_Z.conj().T @ (PAULI_X @ PAULI_Z)
        assert complex(np.trace(prod)) == pytest.approx(0)
        assert nk.hs_inner(PAULI_Z, PAULI_X @ PAULI_Z) == pytest.approx(0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nk.hs_inner(np.eye(2), np.eye(3))

    def test_sesquilinear(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a, b, c = (random_matrix(rng, 3) for _ in range(3))
            alpha, beta = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            lhs = nk.hs_inner(a, alpha * b + beta * c)
            assert lhs == pytest.approx(alpha * nk.hs_inner(a, b) + beta * nk.hs_inner(a, c))
            lhs2 = nk.hs_inner(alpha * a, b)
            assert lhs2 == pytest.approx(np.conj(alpha) * nk.hs_inner(a, b))
            assert nk.hs_inner(a, b) == pytest.approx(np.conj(nk.hs_inner(b, a)))


class TestTraceDistance:
    def test_identical(self):
        rng = np.random.default_rng(31)
        rho = random_density(rng, 4)
        assert nk.trace_distance(rho, rho) == pytest.approx(0)

    def test_orthogonal_pure(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        assert nk.trace_distance(p0, p1) == pytest.approx(1.0)

    def test_mixed_vs_pure(self):
        # oracle: eigenvalues of I/2 - |0><0| are -1/2, +1/2
        diff = np.eye(2) / 2 - np.diag([1.0, 0.0])
        assert sorted(np.linalg.eigvalsh(diff)) == pytest.approx([-0.5, 0.5])
        assert nk.trace_distance(np.eye(2) / 2, np.diag([1.0, 0.0])) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nk.trace_distance(np.eye(2), np.eye(3))


class TestPredicates:
    def test_hermitian_unitary_psd(self):
        assert nk.is_hermitian(PAULI_Y)
        assert nk.is_unitary(PAULI_Y)
        assert not nk.is_psd(PAULI_Z)
        assert nk.is_psd(np.diag([0.0, 1.0]))

    def test_tolerance_respected(self):
        almost = np.eye(2) + 1e-12
        assert nk.is_unitary(almost, 1e-9)
        assert not nk.is_unitary(np.eye(2) * 1.01, 1e-9)


class TestPermuteFactors:
    def test_swap_two(self):
        rng = np.random.default_rng(37)
        a, b = random_matrix(rng, 2), random_matrix(rng, 3)
        swapped = nk.permute_factors(nk.tensor(a, b), [2, 3], [1, 0])
        assert np.allclose(swapped, nk.tensor(b, a))

    def test_four_factor_reorder(self):
        rng = np.random.default_rng(41)
        ms = [random_matrix(rng, d) for d in (2, 3, 2, 2)]
        full = tensor_all(*ms)
        perm = [0, 2, 1, 3]
        out = nk.permute_factors(full, [2, 3, 2, 2], perm)
        assert np.allclose(out, tensor_all(*(ms[p] for p in perm)))
