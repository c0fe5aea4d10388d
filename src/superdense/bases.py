"""Orthogonal unitary bases and non-equivalence certificates.

A basis here is a set of d^2 unitaries on C^d that are pairwise orthogonal
under the Hilbert-Schmidt inner product.  Besides the clock/shift family,
the module constructs bases from disjoint perfect matchings of K_{d,d} and
from the dimension-3 phase-twist family, and certifies that they cannot be
mapped onto the clock/shift basis by any (phases, left unitary, right
unitary) equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numkit as nk

KIND_EIGENVALUE_RATIO = "eigenvalue-ratio"
KIND_DISTINCT_COUNT = "distinct-count"
KIND_PROJECTIVE = "projective-noncommutativity"

# Complex entries in one span of pair products of the certificate scan.
# Blocks of 2^16 entries and more ran slower at d >= 7: their fresh stacks
# page-fault and miss the cache.
_PAIR_BLOCK = 2**13


class InvalidBasisError(ValueError):
    """The input is not an orthogonal unitary basis within tolerance."""


@dataclass(frozen=True)
class UnitaryBasis:
    d: int
    elements: tuple[np.ndarray, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if len(self.elements) != self.d * self.d:
            raise ValueError(
                f"need {self.d * self.d} elements for dimension {self.d}, got {len(self.elements)}"
            )
        if self.labels is not None and len(self.labels) != len(self.elements):
            raise ValueError("labels length must match element count")

    @cached_property
    def stack(self) -> np.ndarray:
        """The elements as one read-only (d^2, d, d) array, stacked once."""
        e = np.stack(self.elements)
        e.flags.writeable = False
        return e


@dataclass(frozen=True)
class NonEquivalenceCertificate:
    kind: str
    witness: tuple[int, ...]
    witness_value: complex | float | int


@dataclass(frozen=True)
class BasisReport:
    passed: bool
    element_count_ok: bool
    max_unitarity_violation: float
    max_orthogonality_violation: float
    tol: float


def clock_matrix(d: int) -> np.ndarray:
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def shift_matrix(d: int) -> np.ndarray:
    x = np.zeros((d, d), dtype=complex)
    for k in range(d):
        x[(k + 1) % d, k] = 1.0
    return x


def clock_shift_basis(d: int) -> UnitaryBasis:
    """The d^2 operators X^i Z^j, i then j ascending."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    x, z = shift_matrix(d), clock_matrix(d)
    elements, labels = [], []
    xi = np.eye(d, dtype=complex)
    for i in range(d):
        zj = np.eye(d, dtype=complex)
        for j in range(d):
            elements.append(xi @ zj)
            labels.append(f"X^{i}Z^{j}")
            zj = zj @ z
        xi = xi @ x
    return UnitaryBasis(d=d, elements=tuple(elements), labels=tuple(labels))


def tensor_product_basis(b1: UnitaryBasis, b2: UnitaryBasis) -> UnitaryBasis:
    """All pairwise tensor products; orthogonality is inherited from the factors."""
    elements, labels = [], []
    for i, e1 in enumerate(b1.elements):
        for j, e2 in enumerate(b2.elements):
            elements.append(nk.tensor(e1, e2))
            l1 = b1.labels[i] if b1.labels else str(i)
            l2 = b2.labels[j] if b2.labels else str(j)
            labels.append(f"({l1})x({l2})")
    return UnitaryBasis(d=b1.d * b2.d, elements=tuple(elements), labels=tuple(labels))


def pauli_tensor_basis(d: int) -> UnitaryBasis:
    """Iterated tensor powers of the two-dimensional clock/shift (Pauli) basis."""
    k = d.bit_length() - 1
    if d < 4 or 2**k != d:
        raise ValueError("pauli tensor basis needs d a power of two, at least 4")
    basis = clock_shift_basis(2)
    for _ in range(k - 1):
        basis = tensor_product_basis(basis, clock_shift_basis(2))
    return basis


def smallest_nondividing(d: int) -> int:
    """Least k in [2, d-2] that does not divide d (exists for every d >= 5)."""
    if d < 5:
        raise ValueError("defined only for d >= 5")
    for k in range(2, d - 1):
        if d % k != 0:
            return k
    raise AssertionError(f"no non-divisor in [2, {d - 2}] for {d}")  # unreachable


def _augment(u, adj_list, match_right, seen):
    for v in adj_list[u]:
        if not seen[v]:
            seen[v] = True
            if match_right[v] < 0 or _augment(match_right[v], adj_list, match_right, seen):
                match_right[v] = u
                return True
    return False


def _perfect_matching(adjacency: np.ndarray) -> list[int]:
    """One perfect matching of a bipartite graph via augmenting paths.

    Left vertices are scanned in ascending order, so the result is
    deterministic.  Returns image[a] = matched right vertex of a.
    """
    d = adjacency.shape[0]
    adj_list = [list(np.nonzero(adjacency[a])[0]) for a in range(d)]
    match_right = [-1] * d
    for a in range(d):
        if not _augment(a, adj_list, match_right, [False] * d):
            raise RuntimeError("no perfect matching; input was not regular")
    image = [-1] * d
    for b, a in enumerate(match_right):
        image[a] = b
    return image


def regular_bipartite_edge_coloring(
    d: int, adjacency: np.ndarray, k: int
) -> list[tuple[int, ...]]:
    """Split a k-regular bipartite graph into k disjoint perfect matchings.

    Repeatedly extracts a maximum matching (Hall's theorem guarantees each
    residual stays regular enough to contain one).  Each matching is its
    image tuple: left vertex a is matched to right vertex image[a].
    """
    adj = np.asarray(adjacency, dtype=bool).copy()
    if adj.shape != (d, d):
        raise ValueError(f"adjacency must be {d}x{d}")
    if not (np.all(adj.sum(axis=0) == k) and np.all(adj.sum(axis=1) == k)):
        raise ValueError("graph is not k-regular")
    matchings = []
    for _ in range(k):
        image = _perfect_matching(adj)
        matchings.append(tuple(image))
        for a, b in enumerate(image):
            adj[a, b] = False
    if adj.any():
        raise RuntimeError("edges left over after k matchings; input was not k-regular")
    return matchings


def matching_basis(d: int) -> UnitaryBasis:
    """Basis {P_i Z^j} from disjoint matchings of K_{d,d}.

    P_0 is the identity and P_1 carries a cycle of length k with k not
    dividing d, which is what blocks equivalence with the clock/shift
    family.  The remaining matchings come from edge-coloring the residual
    (d-2)-regular graph.
    """
    if d < 5:
        raise ValueError("matching basis needs d >= 5")
    k = smallest_nondividing(d)
    p0 = tuple(range(d))
    p1 = tuple([(a + 1) % k for a in range(k)] + [k + (a - k + 1) % (d - k) for a in range(k, d)])
    adj = np.ones((d, d), dtype=bool)
    for a in range(d):
        adj[a, p0[a]] = False
        adj[a, p1[a]] = False
    rest = regular_bipartite_edge_coloring(d, adj, d - 2)
    z = clock_matrix(d)
    elements, labels = [], []
    for i, image in enumerate([p0, p1] + rest):
        pm = np.zeros((d, d), dtype=complex)
        pm[image, np.arange(d)] = 1.0
        zj = np.eye(d, dtype=complex)
        for j in range(d):
            elements.append(pm @ zj)
            labels.append(f"P{i}Z^{j}")
            zj = zj @ z
    return UnitaryBasis(d=d, elements=tuple(elements), labels=tuple(labels))


def werner3_basis(beta: complex) -> UnitaryBasis:
    """Dimension-3 basis with one column twisted by M = diag(beta, 1, 1).

    Any unit-modulus beta gives an orthogonal unitary basis; beta != 1
    breaks projective commutativity.
    """
    if not abs(abs(beta) - 1.0) <= 1e-12:
        raise ValueError("beta must be finite with unit modulus")
    x, z = shift_matrix(3), clock_matrix(3)
    m = np.diag([beta, 1.0, 1.0]).astype(complex)
    elements, labels = [], []
    for i in range(3):
        zi = np.linalg.matrix_power(z, i)
        for j in range(3):
            if j == 1:
                elements.append(x @ zi @ m)
                labels.append(f"XZ^{i}M")
            else:
                elements.append(np.linalg.matrix_power(x, j) @ zi)
                labels.append(f"X^{j}Z^{i}")
    return UnitaryBasis(d=3, elements=tuple(elements), labels=tuple(labels))


def verify_orthogonal_unitary_basis(b: UnitaryBasis, tol: float = nk.DEFAULT_TOL) -> BasisReport:
    """Check element count, unitarity, and pairwise HS orthogonality."""
    d = b.d
    count_ok = len(b.elements) == d * d
    e = b.stack
    worst = np.abs(e.conj().transpose(0, 2, 1) @ e - np.eye(d)).max(axis=(1, 2))
    unit_viol = float(worst.max(initial=0.0))
    flat = e.reshape(len(e), -1)
    gram = flat.conj() @ flat.T
    orth_viol = float(np.abs(gram - d * np.eye(len(b.elements))).max())
    passed = count_ok and unit_viol <= tol and orth_viol <= tol
    return BasisReport(
        passed=passed,
        element_count_ok=count_ok,
        max_unitarity_violation=unit_viol,
        max_orthogonality_violation=orth_viol,
        tol=tol,
    )


def _distinct_counts(w: np.ndarray, tol: float) -> np.ndarray:
    """Greedy distinct-value count of each row of w.

    Slot a is a new representative iff it is farther than tol from every
    earlier representative of its row.
    """
    rep = np.ones(w.shape, dtype=bool)
    for a in range(1, w.shape[1]):
        far = np.abs(w[:, a : a + 1] - w[:, :a]) > tol
        rep[:, a] = np.all(far | ~rep[:, :a], axis=1)
    return rep.sum(axis=1)


def _scalar_defects(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c = Tr A / d and ||A - c I||_F for each matrix A of the stack a."""
    d = a.shape[-1]
    c = np.trace(a, axis1=1, axis2=2) / d
    f = a.reshape(len(a), -1).copy()
    f[:, :: d + 1] -= c[:, None]
    return c, nk.frobenius(f.reshape(a.shape))


def _pair_spans(n: int, d: int, first: int) -> list[tuple[int, int]]:
    """Spans [lo, hi) of the pairs (i, j), i < j, in row-major order.

    The first span ends at pair `first`, and blocks of consecutive pairs
    follow.  No span of more than one pair holds more than _PAIR_BLOCK
    complex entries of d x d products.
    """
    step = max(1, _PAIR_BLOCK // (d * d))
    total = n * (n - 1) // 2
    cuts = (0, min(first, total), total)
    return [
        (lo, min(lo + step, hi))
        for start, hi in zip(cuts, cuts[1:])
        for lo in range(start, hi, step)
    ]


def certify_not_clock_shift(
    b: UnitaryBasis, tol: float = nk.DEFAULT_TOL
) -> list[NonEquivalenceCertificate]:
    """Run the three sufficient non-equivalence tests against clock/shift.

    All statistics are built from pairwise products A* B (and, for the
    commutativity test, products anchored at element 0), which transform by
    a phase and a one-sided conjugation under any basis equivalence, so each
    test fires on a basis iff it fires on every equivalent basis.

    T1 (eigenvalue-ratio): in any basis equivalent to clock/shift, A* B is
    phase-similar to some X^a Z^b, whose eigenvalue ratios are all d-th
    roots of unity.  A ratio r with |r^d - 1| > tol*d rules equivalence out.

    T2 (distinct-count): an equivalent basis contains a pair whose A* B is
    phase-similar to the clock operator, with d distinct eigenvalues.  If no
    pair reaches d distinct eigenvalues, equivalence is impossible.

    T3 (projective-noncommutativity): the anchored products G_i = U_i U_0*
    of an equivalent basis are phase-conjugates of clock/shift elements and
    hence commute up to a phase; a pair whose commutator defect
    ||G_i G_j G_i* G_j* - c I||_F exceeds tol*d rules equivalence out.

    Pairs (i, j), i < j, are scanned in row-major order, in spans of
    consecutive pairs (_pair_spans), no span of more than one pair holding
    more than _PAIR_BLOCK complex entries of products.  The first span is
    where a test can stop early: for T1/T2 a head of row 0's first d pairs,
    for T3 rows 0 and 1.  Blocks follow it.  The layouts depend on n and d
    alone.  The T1 and T3 witnesses are the first pair in that order that
    fires; the T2 witness is the first strict maximum (argmax over a span
    returns the first).  Each test stops at the span that settles it: T3 at
    the span holding its witness, and the T1/T2 scan between spans once T1
    has a witness and some pair reaches d distinct eigenvalues, since no
    later pair can change any of these results.  On the matching bases, T1
    and T2 are settled by the head and T3 fires in row 1.  Each span forms
    its products pair by pair in one stacked matmul, so every statistic has
    the bits of the one-pair computation.

    T2 is sound only while its threshold max(10 tol, 1e-7) stays below the
    spacing 2 sin(pi/d) of the clock's eigenvalues; a tol whose threshold
    reaches sin(pi/d) is a ValueError.

    Every span after the head is screened before any eigensolve, with one
    matrix power per pair.  Let k be the running maximum distinct count at
    the span's start (k = d once T2 is settled), M = A* B, P = M^k,
    c = Tr P / d and s = ||P - c I||_F.  Every eigenvalue of P is within s of
    c (spectral radius <= norm).  Both bounds below add a rounding allowance
    of 4 d^2 eps and need |c| > s; no unitarity of M is assumed.

    T2 bound: by the binomial series of (1 + x)^(1/k), every eigenvalue of M
    is within rho = s |c|^(1/k) / (k (|c| - s)) of one of the k k-th roots
    of c, so the eigenvalues fall in at most k discs of diameter 2 rho.  If
    2 rho plus the allowance is at most half the distinct-count threshold
    max(10 tol, 1e-7), the greedy count is at most k and cannot beat the
    running maximum, which must be beaten strictly.  Halving the threshold
    leaves the eigensolver's own rounding at least 2.5e-8 per eigenvalue.

    T1 bound: when k divides d, each eigenvalue ratio r of M has
    |r^k - 1| <= beta = 2 s / (|c| - s), hence
    |r^d - 1| <= (1 + beta)^(d/k) - 1, which is beta (2s for unitary M) at
    k = d.  If that plus the allowance is at most tol*d/2, no ratio can
    fire.  The ratio test's own rounding, the largest |r^d - 1| over all
    pairs of clock/shift, raw and under random equivalences at one BLAS
    thread, measured 3.0 d^2 eps at d = 4, 3.7 at 8, 4.8 at 9, 4.8 at 12,
    8.1 at 15, 3.5 at 16 and 10.2 at 20.  From d = 15 it can exceed the
    8 d^2 eps that the allowance and the halved threshold leave it, so
    there, near the smallest tols, the byte-identity argument below is
    unproven (ROADMAP.md item 3, a tol floor).

    A pair is cleared when every test still open passes its bound, and only
    the uncleared pairs go to the eigensolver.  While T1 is open and k does
    not divide d a span is not screened; no basis that this package or its
    tests build reaches that state.  A cleared pair can neither fire T1 nor
    raise T2 above the k it was screened with, and that k is at most the
    running count, so the first witness among the kept pairs of a span is
    the span's first witness, and the T1 and T2 certificates (kind, witness
    and repr(witness_value)) are those of the full eigenvalue scan.

    An empty result is NOT a proof of equivalence.
    """
    if b.d < 2:
        raise ValueError(f"certify_not_clock_shift needs d >= 2, got d = {b.d}")
    d = b.d
    count_tol = max(tol * 10, 1e-7)
    if count_tol >= np.sin(np.pi / d):
        raise ValueError(
            f"tol = {tol!r} is too large for d = {d}: the distinct-count threshold "
            f"max(10 tol, 1e-7) must stay below sin(pi/d) = {np.sin(np.pi / d):.6g}"
        )
    report = verify_orthogonal_unitary_basis(b, max(tol, 1e-8))
    if not report.passed:
        raise InvalidBasisError(
            "certify_not_clock_shift requires a valid orthogonal unitary basis"
        )
    e = b.stack
    n = len(e)
    ec = e.conj()
    rows, cols = np.triu_indices(n, 1)
    certificates: list[NonEquivalenceCertificate] = []

    ratio_witness = None
    max_distinct = 0
    max_distinct_witness = (0, 0)
    allowance = 4 * d * d * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi in _pair_spans(n, d, d):
            if ratio_witness is not None and max_distinct == d:
                break
            ii, jj = rows[lo:hi], cols[lo:hi]
            m = ec[ii].transpose(0, 2, 1) @ e[jj]
            k = max_distinct
            if lo > 0 and (ratio_witness is not None or d % k == 0):
                c, s = _scalar_defects(np.linalg.matrix_power(m, k))
                gap = np.maximum(np.abs(c) - s, 0.0)
                clear = np.ones(len(m), dtype=bool)
                if k < d:  # T2 open
                    rho = s * np.abs(c) ** (1 / k) / (k * gap)
                    clear &= 2 * rho + allowance <= count_tol / 2
                if ratio_witness is None:  # T1 open
                    beta = 2 * s / gap
                    clear &= np.expm1(d // k * np.log1p(beta)) + allowance <= tol * d / 2
                keep = np.flatnonzero(~clear)
                if keep.size == 0:
                    continue
                m, ii, jj = m[keep], ii[keep], jj[keep]
            w = np.linalg.eigvals(m)
            if max_distinct < d:
                counts = _distinct_counts(w, count_tol)
                a = int(np.argmax(counts))
                if counts[a] > max_distinct:
                    max_distinct, max_distinct_witness = int(counts[a]), (int(ii[a]), int(jj[a]))
            if ratio_witness is None:
                ratios = w[:, :, None] / w[:, None, :]
                bad = np.abs(ratios**d - 1.0) > tol * d
                if bad.any():
                    a, p, q = np.argwhere(bad)[0]
                    ratio_witness = ((int(ii[a]), int(jj[a])), complex(ratios[a, p, q]))
    if ratio_witness is not None:
        certificates.append(
            NonEquivalenceCertificate(
                kind=KIND_EIGENVALUE_RATIO,
                witness=ratio_witness[0],
                witness_value=ratio_witness[1],
            )
        )
    if max_distinct < d:
        certificates.append(
            NonEquivalenceCertificate(
                kind=KIND_DISTINCT_COUNT,
                witness=max_distinct_witness,
                witness_value=max_distinct,
            )
        )

    g = e @ e[0].conj().T
    gc = g.conj()
    for lo, hi in _pair_spans(n, d, 2 * n - 3):
        ii, jj = rows[lo:hi], cols[lo:hi]
        comm = g[ii] @ g[jj] @ gc[ii].transpose(0, 2, 1) @ gc[jj].transpose(0, 2, 1)
        defects = _scalar_defects(comm)[1]
        over = np.flatnonzero(defects > tol * d)
        if over.size:
            a = over[0]
            certificates.append(
                NonEquivalenceCertificate(
                    kind=KIND_PROJECTIVE,
                    witness=(0, int(ii[a]), int(jj[a])),
                    witness_value=float(defects[a]),
                )
            )
            break
    return certificates


def apply_basis_equivalence(
    b: UnitaryBasis, phases, v: np.ndarray, w: np.ndarray
) -> UnitaryBasis:
    """Map each element U_i to phases[i] * v @ U_i @ w (a known equivalence)."""
    elements = tuple(ph * (v @ e @ w) for ph, e in zip(phases, b.elements))
    return UnitaryBasis(d=b.d, elements=elements, labels=b.labels)
