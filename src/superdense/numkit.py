"""Dense complex linear algebra and quantum-state primitives.

Matrices and kets are plain numpy arrays (complex128): a matrix is a 2-D
array in row-major order, a ket a 1-D array.  Everything here is a pure
function; nothing mutates its arguments, except `_eigvalsh_overwrite`.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os

import numpy as np

DEFAULT_TOL = 1e-9
NOT_HERMITIAN = "spectral_decomposition requires a Hermitian matrix"


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m


def _scale(a: np.ndarray) -> float:
    """Norm-based scale factor for structural predicates (never below 1)."""
    return max(1.0, float(np.linalg.norm(a)))


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    m = _as_matrix(a)
    return m.shape[0] == m.shape[1] and np.linalg.norm(m - m.conj().T) <= tol * _scale(m)


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        return False
    return np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])) <= tol * _scale(m)


def is_psd(a, tol: float = DEFAULT_TOL) -> bool:
    m = _as_matrix(a)
    if not is_hermitian(m, tol):
        return False
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return bool(w.min(initial=0.0) >= -tol * _scale(m))


def is_density(a, tol: float = DEFAULT_TOL) -> bool:
    m = _as_matrix(a)
    return is_psd(m, tol) and abs(np.trace(m).real - 1.0) <= tol * _scale(m)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices; the left factor is the slow index.

    One broadcast product, with `np.kron`'s dtype and bits: its products
    are the same elementwise multiplications.  Stacks (..., m, n) give the
    product of each pair, broadcast over the leading axes.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"expected two matrices, got ndim={a.ndim} and {b.ndim}")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def frobenius(a) -> np.ndarray:
    """Frobenius norm of a matrix, or of each matrix of a stack (..., m, n):
    `np.linalg.norm`'s formula, with its bits on a row-major complex matrix."""
    a = np.asarray(a)
    f = a.reshape(*a.shape[:-2], a.shape[-2] * a.shape[-1])
    return np.sqrt(np.vecdot(f.real, f.real) + np.vecdot(f.imag, f.imag))


def partial_trace(m, dims, keep) -> np.ndarray:
    """Reduce a square matrix on a tensor-product space to the kept factors.

    Parameters
    ----------
    m : matrix on the product space, dimension ``prod(dims)``.
    dims : dimensions of the tensor factors, slow index first.
    keep : iterable of factor indices to retain (original order preserved).
    """
    m = _as_matrix(m)
    dims = [int(d) for d in dims]
    n = math.prod(dims)
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")
    traced = [i for i in range(len(dims)) if i not in keep]
    t = m.reshape(dims + dims)
    # contract each traced factor pairwise; indices shift as axes disappear
    for count, i in enumerate(traced):
        ax = i - sum(1 for j in traced[:count] if j < i)
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    dk = math.prod(dims[i] for i in keep)
    return t.reshape(dk, dk)


def permute_factors(m, dims, perm) -> np.ndarray:
    """Reorder the tensor factors of a square matrix.

    ``perm[i]`` is the old position of the factor that ends up at new
    position ``i``.
    """
    m = _as_matrix(m)
    dims = [int(d) for d in dims]
    k = len(dims)
    perm = list(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{k - 1}")
    t = m.reshape(dims + dims)
    t = t.transpose(perm + [p + k for p in perm])
    n = math.prod(dims)
    return t.reshape(n, n)


def spectral_decomposition(h, group_tol: float = DEFAULT_TOL,
                           tol: float = DEFAULT_TOL) -> tuple[tuple[float, np.ndarray], ...]:
    """Group the spectrum of a Hermitian matrix into eigenspaces.

    Returns a tuple of (eigenvalue, basis) pairs, eigenvalues sorted
    descending.  Consecutive eigenvalues within ``group_tol`` of each other
    land in one group; the group eigenvalue is their mean.  ``basis`` holds
    the group's orthonormal eigenvector columns, a column slice of one
    eigendecomposition, so the bases side by side form a unitary and the
    projectors B B^H sum to the identity.
    """
    h = _as_matrix(h)
    if not is_hermitian(h, tol):
        raise ValueError(NOT_HERMITIAN)
    return group_eigenpairs(*np.linalg.eigh((h + h.conj().T) / 2), group_tol)


def group_eigenpairs(w, v, group_tol: float) -> tuple[tuple[float, np.ndarray], ...]:
    """`spectral_decomposition`'s groups of `np.linalg.eigh`'s output (w, v)."""
    order = np.argsort(w)[::-1]          # descending, deterministic ties by index
    w, v = w[order], v[:, order]
    groups = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or (w[i - 1] - w[i]) > group_tol:
            groups.append((float(np.mean(w[start:i])), v[:, start:i]))
            start = i
    return tuple(groups)


def _complement_basis(vectors: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis (columns) of the complement of span(columns), built
    by Gram-Schmidt over the standard basis in index order.

    Stops once n - (column count) vectors are found, checked before each
    append: columns that already span C^n, even when not exactly
    orthonormal, give an n x 0 basis.
    """
    cols = [vectors[:, j] for j in range(vectors.shape[1])]
    need = n - vectors.shape[1]
    out = []
    for k in range(n):
        if len(out) >= need:
            break
        w = np.zeros(n, dtype=complex)
        w[k] = 1.0
        for c in cols:
            w -= c * (c.conj() @ w)
        for c in out:
            w -= c * (c.conj() @ w)
        norm = np.linalg.norm(w)
        if norm > 1e-8:
            out.append(w / norm)
    return np.column_stack(out) if out else np.zeros((n, 0), dtype=complex)


def polar_decomposition(f) -> tuple[np.ndarray, np.ndarray]:
    """Left polar decomposition f = d @ t with d PSD and t unitary.

    Built from the SVD; on a singular input (a singular value at most 1e-12
    times the largest) the unitary factor is completed by pairing left/right
    null bases (Gram-Schmidt over the standard basis, index order), so the
    result is deterministic: f = 0 yields t = identity, and [[0,2],[0,0]]
    yields t = [[0,1],[1,0]].  A stack (..., n, n) is decomposed by one
    stacked SVD, and each singular member is completed on its own.
    """
    f = np.asarray(f, dtype=complex)
    if f.ndim < 2 or f.shape[-2] != f.shape[-1]:
        raise ValueError("polar decomposition requires a square matrix")
    n = f.shape[-1]
    u, s, vh = np.linalg.svd(f)
    d = (u * s[..., None, :]) @ u.conj().swapaxes(-1, -2)
    t = u @ vh
    ranks = np.sum(s > 1e-12 * s[..., :1], axis=-1)
    for idx in map(tuple, np.argwhere(ranks < n)):  # () for one matrix
        ur, vr = u[idx][:, :ranks[idx]], vh[idx][:ranks[idx]].conj().T
        t[idx] = ur @ vr.conj().T + _complement_basis(ur, n) @ _complement_basis(vr, n).conj().T
    return d, t


def psd_sqrt(p, tol: float = DEFAULT_TOL) -> np.ndarray:
    """PSD square root via eigendecomposition.

    Eigenvalues in [-tol*scale, 0) are clipped to zero; anything lower is an
    error.
    """
    p = _as_matrix(p)
    w, v = np.linalg.eigh((p + p.conj().T) / 2)
    w = clip_psd_spectrum(w, tol * _scale(p))
    return (v * np.sqrt(w)) @ v.conj().T


def clip_psd_spectrum(w: np.ndarray, slack: float) -> np.ndarray:
    """Eigenvalues of a PSD matrix with rounding noise clipped to zero.

    An eigenvalue below -slack is an error: the matrix is not PSD.
    """
    if w.min(initial=0.0) < -slack:
        raise ValueError(f"matrix is not PSD: eigenvalue {w.min()} below {-slack}")
    return np.clip(w, 0.0, None)


# CBLAS and LAPACKE codes for column-major storage, the lower triangle and
# the conjugate transpose
_LAPACK_COL_MAJOR = 102
_CBLAS_LOWER = 122
_CBLAS_CONJ_TRANS = 113


@functools.cache
def _openblas_symbol(name: str):
    """Function `name` of numpy's own OpenBLAS, or None.

    numpy's wheels vendor OpenBLAS with 64-bit integers and a `scipy_`
    symbol prefix in `numpy.libs/`, beside the package; the process has
    already loaded it, so this opens the same copy.  No other library is
    tried.  It is opened through `ctypes.CDLL`, so a call releases the
    interpreter lock.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            return getattr(ctypes.CDLL(path), name)
        except (OSError, AttributeError):
            continue
    return None


def _bind(name: str, argtypes: list, restype):
    """`_openblas_symbol(name)` with its C signature set, or None."""
    fn = _openblas_symbol(name)
    if fn is not None:
        fn.argtypes, fn.restype = argtypes, restype
    return fn


@functools.cache
def _zherk():
    """CBLAS zherk from numpy's own OpenBLAS, or None.

    The call holds the interpreter lock, as SciPy's f2py wrapper does: the
    Gram of a small trial, the kind that runs on several threads, is too
    short to hand the lock to another trial thread and then wait for it.
    """
    # (layout, uplo, trans, n, k, alpha, a, lda, beta, c, ldc), integers 64-bit;
    # a PYFUNCTYPE call holds the lock, as a call through `ctypes.PyDLL` does
    i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    held = ctypes.PYFUNCTYPE(None, *[ctypes.c_int] * 3, i64, i64, dbl, ptr, i64, dbl, ptr, i64)
    fn = _openblas_symbol("scipy_cblas_zherk64_")
    return None if fn is None else held(ctypes.cast(fn, ctypes.c_void_p).value)


@functools.cache
def _zgees():
    """LAPACKE zgees from numpy's own OpenBLAS, or None."""
    # (layout, jobvs, sort, select, n, a, lda, sdim, w, vs, ldvs) -> info, integers 64-bit
    i64, ptr, ch = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
    return _bind("scipy_LAPACKE_zgees64_",
                 [ctypes.c_int, ch, ch, ptr, i64, ptr, i64, ptr, ptr, ptr, i64], i64)


@functools.cache
def _zheevd_2stage():
    """LAPACKE zheevd_2stage from numpy's own OpenBLAS, or None."""
    # (layout, jobz, uplo, n, a, lda, w) -> info, integers 64-bit
    i64, ptr, ch = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
    return _bind("scipy_LAPACKE_zheevd_2stage64_", [ctypes.c_int, ch, ch, i64, ptr, i64, ptr], i64)


def gram(kets) -> np.ndarray:
    """Gram matrix G = Psi^H Psi, G_ij = <psi_i|psi_j>, lower triangle only.

    `kets` holds one ket per row: an (m, N) array, read in place when it is
    C-contiguous, or a sequence of kets, stacked once.  The strict upper
    triangle of the result is zero; read it with UPLO="L".  The result is
    Fortran-ordered, as BLAS writes it.
    """
    rows = np.ascontiguousarray(kets, dtype=complex)
    m, n = rows.shape
    zherk = _zherk()
    if zherk is None:
        from scipy.linalg import blas
        return blas.zherk(1.0, rows.T, trans=2, lower=1)
    # read column-major, C-contiguous rows are the N x m matrix A = rows.T
    # with the kets as its columns, and the conjugate-transpose update A^H A is G
    g = np.zeros((m, m), dtype=complex, order="F")
    zherk(_LAPACK_COL_MAJOR, _CBLAS_LOWER, _CBLAS_CONJ_TRANS, m, n,
          1.0, rows.ctypes.data, max(1, n), 0.0, g.ctypes.data, max(1, m))
    return g


def schur(a) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form a = Z T Z^H: T upper triangular, Z unitary.

    LAPACK's zgees with Schur vectors and no eigenvalue ordering, from
    numpy's own OpenBLAS; without it, `scipy.linalg.schur(a, output="complex")`,
    which gives the same bits.  T and Z are Fortran-ordered, as LAPACK
    writes them.  Raises `np.linalg.LinAlgError` on a non-square matrix, on
    non-finite entries or on a LAPACK error.
    """
    m = _as_matrix(a)
    n = m.shape[0]
    if m.shape != (n, n):
        raise np.linalg.LinAlgError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("the matrix has non-finite entries")
    zgees = _zgees()
    if zgees is None:
        import scipy.linalg
        return scipy.linalg.schur(m, output="complex")
    t = np.array(m, order="F")
    z = np.empty((n, n), dtype=complex, order="F")
    w = np.empty(n, dtype=complex)
    sdim = ctypes.c_int64()
    info = zgees(_LAPACK_COL_MAJOR, b"V", b"N", None, n, t.ctypes.data, max(1, n),
                 ctypes.byref(sdim), w.ctypes.data, z.ctypes.data, max(1, n))
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACKE zgees failed with info = {info}")
    return t, z


def blas_threads() -> int | None:
    """The thread count of numpy's own OpenBLAS, or None without the library
    or its `openblas_get_num_threads`."""
    fn = _bind("scipy_openblas_get_num_threads64_", [], ctypes.c_int)
    return None if fn is None else int(fn())


def hermitian_eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, read from its lower
    triangle: the contract of `np.linalg.eigvalsh(a, UPLO="L")`.

    Computed by LAPACK's two-stage routine zheevd_2stage (Haidar, Ltaief &
    Dongarra, SC'11: a BLAS-3 reduction to band form, then bulge chasing to
    tridiagonal form).  The routine overwrites its input, so it works on a
    column-major copy.  Without the routine in numpy's OpenBLAS this is
    `np.linalg.eigvalsh`.  Raises `np.linalg.LinAlgError` on a non-square
    matrix, on a LAPACK error (NaN entries give info = -5) or on a non-finite
    eigenvalue (infinite entries).
    """
    return _eigvalsh_overwrite(np.array(_as_matrix(a), order="F"))


def _eigvalsh_overwrite(m: np.ndarray) -> np.ndarray:
    """`hermitian_eigenvalues` that consumes its input: a writeable
    column-major complex matrix is solved in place and left overwritten."""
    n = m.shape[0]
    if m.shape != (n, n):
        raise np.linalg.LinAlgError(f"expected a square matrix, got shape {m.shape}")
    solver = _zheevd_2stage()
    if solver is None:
        w = np.linalg.eigvalsh(m, UPLO="L")
    else:
        work = np.require(m, complex, ["F", "W"])
        w = np.empty(n)
        info = solver(_LAPACK_COL_MAJOR, b"N", b"L", n, work.ctypes.data, max(1, n), w.ctypes.data)
        if info != 0:
            raise np.linalg.LinAlgError(f"LAPACKE zheevd_2stage failed with info = {info}")
    if not np.isfinite(w).all():
        raise np.linalg.LinAlgError("non-finite eigenvalue: the matrix has non-finite entries")
    return w


def max_entangled(d: int) -> np.ndarray:
    """Unit ket (1/sqrt(d)) * sum_i |i>|i> on C^d (x) C^d."""
    if d < 1:
        raise ValueError("dimension must be positive")
    ket = np.zeros(d * d, dtype=complex)
    ket[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return ket


# complex entries per Ginibre block: larger stacks raise peak memory and run no faster
_HAAR_BLOCK = 2**14


def haar_unitaries(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m independent Haar-distributed d x d unitaries, shape (m, d, d).

    Each is the QR factor of a complex Ginibre matrix with the triangular
    factor's diagonal phases normalized away (Mezzadri,
    arXiv:math-ph/0609050).  Draws are taken in stacked blocks, each draw's
    real part then its imaginary part, so the result and the generator's
    state afterwards equal those of m calls to `haar_unitary`.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    if m < 0:
        raise ValueError(f"draw count must be non-negative, got {m}")
    out = np.empty((m, d, d), dtype=complex)
    step = max(1, _HAAR_BLOCK // (d * d))
    for start in range(0, m, step):
        g = rng.standard_normal((min(step, m - start), 2, d, d))
        # (g0 + i g1) / sqrt(2) and the phase product in place: the same
        # operations (addition commutes bit for bit), fewer temporaries
        z = 1j * g[:, 1]
        z += g[:, 0]
        z /= np.sqrt(2)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=1, axis2=2)
        np.multiply(q, (diag / np.abs(diag))[:, None, :], out=out[start:start + len(g)])
    return out


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed d x d unitary: `haar_unitaries` with m = 1."""
    return haar_unitaries(d, 1, rng)[0]


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(a^* b)."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.sum(a.conj() * b))


def trace_distance(r, s) -> float:
    """Half the trace norm of the difference of two Hermitian matrices."""
    r, s = _as_matrix(r), _as_matrix(s)
    if r.shape != s.shape:
        raise ValueError(f"shape mismatch {r.shape} vs {s.shape}")
    diff = r - s
    w = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(0.5 * np.abs(w).sum())


# Single-qubit constants used throughout the package.
ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (ID2, PAULI_Z, PAULI_X, PAULI_Y)  # encoder order: 1, Z, X, Y
