"""Dense complex linear algebra and quantum-state primitives.

Matrices and kets are plain numpy arrays (complex128): a matrix is a 2-D
array in row-major order, a ket a 1-D array.  Everything here is a pure
function; nothing mutates its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


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


def is_projector(a, tol: float = DEFAULT_TOL) -> bool:
    m = _as_matrix(a)
    return is_hermitian(m, tol) and np.linalg.norm(m @ m - m) <= tol * _scale(m)


def is_density(a, tol: float = DEFAULT_TOL) -> bool:
    m = _as_matrix(a)
    return is_psd(m, tol) and abs(np.trace(m).real - 1.0) <= tol * _scale(m)


def tensor(a, b) -> np.ndarray:
    """Kronecker product; the left factor is the slow index."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def tensor_all(*factors) -> np.ndarray:
    out = _as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, _as_matrix(f))
    return out


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
    n = int(np.prod(dims))
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
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
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
    n = int(np.prod(dims))
    return t.reshape(n, n)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalue groups of a Hermitian matrix.

    ``groups`` is a list of (eigenvalue, projector) pairs, eigenvalues sorted
    descending; eigenvalues closer than the grouping tolerance are merged
    into a single projector.  The projectors sum to the identity.
    """

    groups: tuple[tuple[float, np.ndarray], ...]
    tol_used: float

    def reconstruct(self) -> np.ndarray:
        n = self.groups[0][1].shape[0]
        out = np.zeros((n, n), dtype=complex)
        for lam, proj in self.groups:
            out += lam * proj
        return out


def spectral_decomposition(h, group_tol: float = DEFAULT_TOL,
                           tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Group the spectrum of a Hermitian matrix into eigenspaces.

    Consecutive eigenvalues (in descending order) within ``group_tol`` of
    each other land in one group; the group eigenvalue is their mean.
    """
    h = _as_matrix(h)
    if not is_hermitian(h, tol):
        raise ValueError("spectral_decomposition requires a Hermitian matrix")
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    order = np.argsort(w)[::-1]          # descending, deterministic ties by index
    w, v = w[order], v[:, order]
    groups = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or (w[i - 1] - w[i]) > group_tol:
            block = v[:, start:i]
            proj = block @ block.conj().T
            groups.append((float(np.mean(w[start:i])), proj))
            start = i
    return SpectralDecomposition(groups=tuple(groups), tol_used=group_tol)


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


def polar_decomposition(f, rank_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Left polar decomposition f = d @ t with d PSD and t unitary.

    Built from the SVD; on a singular input the unitary factor is completed
    by pairing left/right null bases (Gram-Schmidt over the standard basis,
    index order), so the result is deterministic: f = 0 yields t = identity,
    and [[0,2],[0,0]] yields t = [[0,1],[1,0]].
    """
    f = _as_matrix(f)
    if f.shape[0] != f.shape[1]:
        raise ValueError("polar decomposition requires a square matrix")
    n = f.shape[0]
    u, s, vh = np.linalg.svd(f)
    d = (u * s) @ u.conj().T
    r = int(np.sum(s > rank_tol * (s[0] if s.size else 0.0)))
    if r == n:
        return d, u @ vh
    ur, vr = u[:, :r], vh[:r].conj().T
    left_null = _complement_basis(ur, n)
    right_null = _complement_basis(vr, n)
    t = ur @ vr.conj().T + left_null @ right_null.conj().T
    return d, t


def psd_sqrt(p, tol: float = DEFAULT_TOL) -> np.ndarray:
    """PSD square root via eigendecomposition.

    Eigenvalues in [-tol*scale, 0) are clipped to zero; anything lower is an
    error.
    """
    p = _as_matrix(p)
    w, v = np.linalg.eigh((p + p.conj().T) / 2)
    floor = -tol * _scale(p)
    if w.min(initial=0.0) < floor:
        raise ValueError(f"matrix is not PSD: eigenvalue {w.min()} below {floor}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


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
        q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))
        diag = np.diagonal(r, axis1=1, axis2=2)
        out[start:start + len(g)] = q * (diag / np.abs(diag))[:, None, :]
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
