"""Constructive canonicalization of errorless qubit superdense coding protocols.

The pipeline normalizes a protocol in four stages: gauge away the first
encoder and extract the EPR pair (`to_nice_form`), split each remaining
encoder into projector-controlled 2x2 Hermitian unitaries
(`block_diagonalize`), match the blocks across encoders as the products of
their commuting projectors (`match_blocks`), and rotate each matched triple
onto (Z, X, Y) (`pauli_frame`).  `canonicalize` composes the stages
and tracks every Alice-side correction into a `protocol.CanonicalDecomposition`,
which `verify_decomposition` checks against the original protocol through
`protocol.canonical_form`.  Every move of a protocol along (V, C_i, W), in
`to_nice_form` and `verify_decomposition`, is `protocol.apply_local_equivalence`.

Each stage computes a fact once and passes it on, and holds an eigenspace
as the orthonormal eigenvector columns of the eigendecomposition that found
it.  `to_nice_form` groups the spectrum of rho^{A'} once into (eigenvalue,
basis) pairs; item 3 splits each encoder's marginal, a unitary conjugate of
rho^{A'}, at those group sizes instead of grouping it again.  The positive
eigenspaces and their support projector go to `block_diagonalize`, which
hands the support on to `match_blocks`.

All stage tolerances derive from a single knob (default 1e-8).  Every stage
residual goes through one helper, `_check`, which raises `NiceFormError`
naming the requirement (item) that failed unless the residual is within its
threshold; a NaN residual fails.  The items are ``errorless``, ``item2``,
``item3``, ``item4`` (nice form), ``block-restriction``, ``block-traceless``,
``block-kernel``, ``block-hermitian``, ``block-phases`` (block
diagonalization), ``match`` (block matching), ``frame`` (Pauli frames) and
``verify``: `canonicalize` ends by running `verify_decomposition` on its own
result at ``tol``, so it returns a decomposition that verifies or raises.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .numkit import ID2, PAULI_X, PAULI_Y, PAULI_Z
from .protocol import CanonicalDecomposition, Protocol, _state_factor, apply_local_equivalence
from .protocol import canonical_form, canonical_state, verify_errorless

DEFAULT_STAGE_TOL = 1e-8


class NiceFormError(ValueError):
    """A structural requirement of the normal form failed beyond tolerance."""

    def __init__(self, item: str, detail: str):
        super().__init__(f"nice-form requirement '{item}' violated: {detail}")
        self.item = item


def _check(item: str, what: str, value: float, limit: float) -> None:
    """Raise NiceFormError(item) unless value <= limit (so a NaN fails)."""
    if not value <= limit:
        raise NiceFormError(item, f"{what} {value:.3e} exceeds {limit:.1e}")


@dataclass(frozen=True)
class NiceFormData:
    protocol: Protocol  # state on A' (x) A'' (x) B' (x) B'', first encoder = 1
    v: np.ndarray  # unitary on A' (x) A''
    w: np.ndarray  # isometry B -> B' (x) B'', shape (2*dim_b_prime, dim_b)
    c: tuple[np.ndarray, ...]  # 4 unitaries on A'
    rho: np.ndarray  # density on A' (x) B'
    # positive eigenspaces of rho^{A'}, eigenvalues descending: (lam, orthonormal basis)
    eigenspaces: tuple[tuple[float, np.ndarray], ...]
    support: np.ndarray  # projector on supp(rho^{A'}), the span of the eigenspaces


@dataclass(frozen=True)
class BlockForm:
    """Per-encoder block data for encoders 2..4 (indices 1..3 of the protocol).

    ``blocks[i]`` lists (Q, R) pairs: Q a projector on A', R a traceless
    Hermitian unitary on the qubit.  The Q's of one encoder are orthogonal
    and sum to the support projector.  ``corrections[i]`` is the Alice-side
    unitary already applied to reach this form.
    """

    blocks: tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]
    corrections: tuple[np.ndarray, ...]
    support: np.ndarray


@dataclass(frozen=True)
class MatchedBlocks:
    """Coarsest common refinement of the encoders' blocks, one 2x2 triple
    (encoders 2, 3, 4) per projector."""

    k_projectors: tuple[np.ndarray, ...]
    triples: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    sign_corrections: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class DecompositionReport:
    passed: bool
    state_residual: float
    encoder_residuals: tuple[float, ...]
    tol: float


def _principal_unitary_sqrt(u: np.ndarray) -> np.ndarray:
    """Square root of a unitary with eigenphases halved within (-pi, pi]."""
    t, z = nk.schur(u)
    phases = np.angle(np.diag(t))
    return (z * np.exp(0.5j * phases)) @ z.conj().T


def to_nice_form(p: Protocol, tol: float = DEFAULT_STAGE_TOL) -> NiceFormData:
    """Normalize an errorless qubit protocol per the four nice-form items.

    Constructive steps: V := U_1 and C_1 := 1; purify the state into a
    reference system of dimension rank(tau); verify the Bob-traced encoded
    state factors as rho^{RA'} (x) 1/2; read off orthonormal Bob-side
    vectors in an eigenbasis of rho^{RA'} and map them to a standard-form
    purification (the explicit Uhlmann step), which yields the isometry W;
    finally align each encoder's Alice marginal with the reference one by a
    basis-matching unitary C_i, splitting its descending eigenvectors at the
    reference group sizes.  Item 2's product-form check reads the state of
    the nice protocol, the gauged one moved along (1, C_i, W), after item 3.
    """
    if p.dim_a_dbl != 2:
        raise ValueError("nice form is implemented for qubit messages (d = 2)")
    report = verify_errorless(p, tol)
    _check("errorless", "state overlap", report.max_state_overlap, tol)
    _check("errorless", "operator violation", report.max_operator_violation, tol)
    a1, _, b = p.dims
    dim_a = p.dim_a

    v = p.encoders[0]
    gauged = apply_local_equivalence(p, v, None, np.eye(b))

    # purification into a reference system of dimension rank(tau)
    factor = _state_factor(gauged.tau, tol)
    r0 = factor.shape[1]
    pur = factor.T.reshape(-1)  # order (R, A', A'', B)

    # Tr_B of the first encoded pure state must factor as rho^{RA'} (x) 1/2
    t_mat = pur.reshape(r0 * a1 * 2, b)
    theta = t_mat @ t_mat.conj().T
    rho_ra = nk.partial_trace(theta, [r0 * a1, 2], [0])
    factor_resid = np.linalg.norm(theta - nk.tensor(rho_ra, ID2 / 2))
    _check("item2", "Tr_B factorization residual", factor_resid, tol * 10)

    # Schmidt-vector matching: Bob vectors in the eigenbasis of rho^{RA'}
    nu_all, f_all = np.linalg.eigh((rho_ra + rho_ra.conj().T) / 2)
    order = np.argsort(nu_all)[::-1]
    nu_all, f_all = nu_all[order], f_all[:, order]
    pos = nu_all > tol * max(nu_all.max(initial=0.0), 1.0)
    nu, f = nu_all[pos], f_all[:, pos]
    r1 = int(nu.size)
    dim_b_prime = max(r1, math.ceil(b / 2))

    tp = pur.reshape(r0 * a1, 2, b)
    g = np.einsum("km,kxb->mxb", f.conj(), tp)
    h = g / np.sqrt(nu / 2)[:, None, None]
    h_flat = h.reshape(2 * r1, b)
    gram_resid = np.linalg.norm(h_flat @ h_flat.conj().T - np.eye(2 * r1))
    _check("item2", "Bob-vector orthonormality residual", gram_resid, tol * 10)

    w_iso = np.zeros((2 * dim_b_prime, b), dtype=complex)
    w_iso[: 2 * r1] = h_flat.conj()
    extra = nk._complement_basis(h_flat.T, b)  # complement of span(h) in C^b
    for j in range(extra.shape[1]):
        w_iso[2 * r1 + j] = extra[:, j].conj()

    # standard-form purification of rho^{RA'}: B' indexes its eigenvectors
    rho_pur = (f * np.sqrt(nu)).reshape(r0, a1, r1)
    pad = np.zeros((r0, a1, dim_b_prime), dtype=complex)
    pad[:, :, :r1] = rho_pur
    rho_vec = pad.reshape(r0, a1 * dim_b_prime)
    rho = np.einsum("ka,kb->ab", rho_vec, rho_vec.conj())

    # Alice marginal and eigenspace alignment (items 3 and 4)
    tau_a = nk.partial_trace(gauged.tau, [dim_a, b], [0])
    zeta = nk.partial_trace(tau_a, [a1, 2], [0])
    group_tol = math.sqrt(tol)
    groups = nk.spectral_decomposition(zeta, group_tol=group_tol, tol=1e-6)
    cut = tol * max(groups[0][0], 1.0)
    positive = tuple(g for g in groups if g[0] > cut)
    rank = sum(basis.shape[1] for _, basis in positive)
    cols = np.hstack([basis for _, basis in groups])  # zeta's eigenvectors, descending
    support = sum(basis @ basis.conj().T for _, basis in positive)

    cs = [np.eye(a1, dtype=complex)]
    for i, u in enumerate(gauged.encoders[1:], start=1):
        m_i = u @ tau_a @ u.conj().T
        zeta_i = nk.partial_trace(m_i, [a1, 2], [0])
        half_resid = np.linalg.norm(m_i - nk.tensor(zeta_i, ID2 / 2))
        _check("item3", f"encoder {i}: marginal factorization residual", half_resid, tol * 10)
        w_i, v_i = np.linalg.eigh((zeta_i + zeta_i.conj().T) / 2)
        w_i, v_i = w_i[::-1], v_i[:, ::-1]
        _check("item3", f"encoder {i}: eigenvalue past the rank", w_i[rank:].max(initial=0.0), cut)
        c_i = cols[:, rank:] @ v_i[:, rank:].conj().T
        start = 0
        for lam, basis in positive:
            stop = start + basis.shape[1]
            shift = np.abs(w_i[start:stop] - lam).max()
            _check("item3", f"encoder {i}: eigenvalue shift", shift, group_tol * 10)
            c_i += basis @ v_i[:, start:stop].conj().T
            start = stop
        cs.append(c_i)
    nice = apply_local_equivalence(gauged, None, cs, w_iso)

    item2_resid = nk.trace_distance(nice.tau, canonical_state(rho, a1, dim_b_prime))
    _check("item2", "product-form trace distance", item2_resid, tol * 10)

    lifted = [(lam, nk.tensor(basis, ID2)) for lam, basis in positive]
    # pair (j, i)'s residual is the adjoint of pair (i, j)'s, with the same norm
    for i, j in itertools.combinations(range(4), 2):
        prod = nice.encoders[i] @ nice.encoders[j].conj().T
        for lam, bk in lifted:
            # Tr_{A''} of P_k prod P_k, read in the eigenspace's own basis
            delta = nk.partial_trace(bk.conj().T @ prod @ bk, [bk.shape[1] // 2, 2], [0])
            what = f"encoders ({i},{j}) eigenspace {lam:.4g}: residual"
            _check("item4", what, np.linalg.norm(delta), tol * 10)

    return NiceFormData(
        protocol=nice,
        v=v,
        w=w_iso,
        c=tuple(cs),
        rho=rho,
        eigenspaces=positive,
        support=support,
    )


def _adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def block_diagonalize(n: NiceFormData, tol: float = DEFAULT_STAGE_TOL) -> BlockForm:
    """Write each encoder (2..4) as sum_l Q_l (x) R_l on the support of the marginal.

    Within each eigenspace of the Alice marginal the encoder has the block
    layout [F G; H -F]; polar decompositions of F, G, H produce commuting
    data (K, W_G, W_H), a unitary E = Gamma + E0 with E0 a principal square
    root on ker(K) makes the block Hermitian, and joint diagonalization of K
    with the restricted unitaries extracts the projectors and the traceless
    Hermitian unitary 2x2 factors.

    Items, one per (encoder, eigenspace), are stacked by eigenspace
    dimension, and each product, polar decomposition and `eigh` is one
    numpy call on the stack, which makes the 2-D call's LAPACK or BLAS call
    on each matrix: no bit changes.  Per item run the kernel correction, the
    grouping of K's spectrum, the Schur clusters and the checks, in encoder
    order; a stack stops at its first item that fails the first two checks.
    """
    a1 = n.protocol.dim_a_prime
    group_tol = math.sqrt(tol)
    limit = tol * 100
    items = [(i, basis) for i in (1, 2, 3) for _, basis in n.eigenspaces]
    by_dim = {m: [j for j, (_, basis) in enumerate(items) if basis.shape[1] == m]
              for m in {basis.shape[1] for _, basis in items}}
    unit, trace, stages = np.empty(len(items)), np.empty(len(items)), {}
    for m, idx in by_dim.items():
        basis2 = nk.tensor(np.stack([items[j][1] for j in idx]), ID2)
        mat = _adj(basis2) @ np.stack([n.protocol.encoders[items[j][0]] for j in idx]) @ basis2
        unit[idx] = nk.frobenius(mat @ _adj(mat) - np.eye(2 * m))
        trace[idx] = nk.frobenius(mat[:, 0::2, 0::2] + mat[:, 1::2, 1::2])
        live = np.logical_and.accumulate((unit[idx] <= limit) & (trace[idx] <= limit)).sum()
        stages.update(zip(idx, _stacked_blocks(mat[:live], tol)))
    all_blocks, corrections = ([], [], []), [np.eye(a1, dtype=complex) - n.support] * 3
    for j, (i, basis) in enumerate(items):
        _check("block-restriction", "encoder block unitarity residual", unit[j], limit)
        _check("block-traceless", "diagonal block sum", trace[j], limit)
        y_resid, herm_resid, k_hermitian, kw, kv, ew_g, k_mat, l_mat, s_ik = stages[j]
        if y_resid is not None:
            _check("block-kernel", "kernel rotation unitarity residual", y_resid, limit)
        _check("block-hermitian", "hermitianization residual", herm_resid, limit)
        if not k_hermitian:
            raise ValueError(nk.NOT_HERMITIAN)
        for _, c_r in nk.group_eigenpairs(kw, kv, group_tol):
            x_r = c_r.conj().T @ ew_g @ c_r
            x_resid = np.linalg.norm(x_r @ x_r.conj().T - np.eye(x_r.shape[0]))
            _check("block-phases", "restricted rotation residual", x_resid, limit)
            t_s, z_s = nk.schur(x_r)
            betas = np.diag(t_s)
            used = np.zeros(len(betas), dtype=bool)
            for s in range(len(betas)):
                if used[s]:
                    continue
                cluster = (np.abs(betas - betas[s]) <= group_tol) & ~used
                used |= cluster
                zc = c_r @ z_s[:, cluster]
                rank = zc.shape[1]
                # read the block's diagonal/off-diagonal values from the
                # Hermitian form itself; sqrt(1 - alpha^2) would blow up
                # roundoff near alpha = 1
                alpha = float(np.einsum("sm,mt,ts->", zc.conj().T, k_mat, zc).real) / rank
                lam = complex(np.einsum("sm,mt,ts->", zc.conj().T, l_mat, zc)) / rank
                nrm = math.hypot(alpha, abs(lam))
                _check("block-phases", "block column norm defect", abs(nrm - 1.0), limit)
                alpha, lam = alpha / nrm, lam / nrm
                q = basis @ (zc @ zc.conj().T) @ basis.conj().T
                r_2x2 = np.array([[alpha, lam], [np.conj(lam), -alpha]], dtype=complex)
                all_blocks[i - 1].append((q, r_2x2))
        corrections[i - 1] = corrections[i - 1] + basis @ s_ik @ basis.conj().T
    return BlockForm(tuple(map(tuple, all_blocks)), tuple(corrections), n.support)


def _stacked_blocks(mat: np.ndarray, tol: float) -> list[tuple]:
    """`block_diagonalize`'s stages on a stack of restricted blocks, per item:
    the kernel residual (None if ker(K) = 0), the Hermitianization residual,
    whether K's block is Hermitian, its `eigh`, E W_G, K, L and E T_F^*."""
    d, t = nk.polar_decomposition(
        np.concatenate((mat[:, 0::2, 0::2], mat[:, 0::2, 1::2], mat[:, 1::2, 0::2])))
    (d_f, _, _), (t_f, t_g, t_h) = np.split(d, 3), np.split(t, 3)
    k_op = _adj(t_f) @ d_f @ t_f
    w_g = _adj(t_f) @ t_g
    w_h = _adj(t_h) @ t_f
    kw, kv = np.linalg.eigh((k_op + _adj(k_op)) / 2)
    in_supp = kw > tol
    e_op = kv @ _adj(kv)  # Gamma, all of it where ker(K) = 0
    y_resids = [None] * len(mat)
    for p in np.flatnonzero(~in_supp.all(axis=1)):
        sup, null = kv[p][:, in_supp[p]], kv[p][:, ~in_supp[p]]
        y = null.conj().T @ (w_h[p] @ w_g[p].conj().T) @ null
        y_resids[p] = np.linalg.norm(y @ y.conj().T - np.eye(y.shape[0]))
        e_op[p] = sup @ sup.conj().T + null @ _principal_unitary_sqrt(y) @ null.conj().T
    s_ik = e_op @ _adj(t_f)
    herm = nk.tensor(s_ik, ID2) @ mat
    herm_resid = nk.frobenius(herm - _adj(herm))
    herm = (herm + _adj(herm)) / 2
    k_mat, l_mat = herm[:, 0::2, 0::2], herm[:, 0::2, 1::2]
    k_hermitian = nk.frobenius(k_mat - _adj(k_mat)) <= 1e-6 * np.maximum(1.0, nk.frobenius(k_mat))
    kw, kv = np.linalg.eigh((k_mat + _adj(k_mat)) / 2)
    return list(zip(y_resids, herm_resid, k_hermitian, kw, kv, e_op @ w_g, k_mat, l_mat, s_ik))


def common_eigenvector(c, d, e, tol: float = DEFAULT_STAGE_TOL) -> np.ndarray:
    """Shared unit eigenvector of three projectors whose triple product has norm 1.

    Takes the leading right singular vector of c @ d @ e; the spectral-norm
    precondition guarantees it is fixed by all three projectors.
    """
    prod = np.asarray(c) @ np.asarray(d) @ np.asarray(e)
    _, s, vh = np.linalg.svd(prod)
    _check("match", "triple product norm defect", 1.0 - s[0], tol)
    return vh[0].conj()


def match_blocks(bf: BlockForm, tol: float = DEFAULT_STAGE_TOL) -> MatchedBlocks:
    """Align the three encoders' blocks into one refinement with a triple per block.

    First merges each encoder's blocks whose 2x2 factors agree up to sign,
    folding the signs into per-encoder corrections.  The merged projectors
    of the three encoders then commute, so their coarsest common refinement
    is the set of nonzero products Q_2 Q_3 Q_4, each with the triple
    (R_2, R_3, R_4) of its factors.  They commute because each merged Q is a
    sum of canonical projectors P_r: in the canonical frame an encoder is
    sum_g S_g (x) A_g, with S_g sums of P_r and A_g traceless Hermitian
    unitaries, A_g != +-A_h.  Any two such A_g, A_h are linearly
    independent, so if (D (x) 1) sum_g S_g (x) A_g is Hermitian, Alice's
    correction D is block diagonal over the S_g.  Each product keeps the
    eigenvectors of its Hermitian part above 1/2; NiceFormError('match') is
    raised unless every product is the projector it keeps and the kept
    projectors sum to the support.
    """
    a1 = bf.support.shape[0]
    merge_thr = tol * math.sqrt(2.0)
    coarse: list[list[list]] = []  # per encoder: [Q, R]
    sign_ops = []
    for enc_blocks in bf.blocks:
        groups: list[list] = []
        sgn = np.eye(a1, dtype=complex) - bf.support
        for q, r in enc_blocks:
            hit = next(((g, s) for g in groups for s in (1.0, -1.0)
                        if np.linalg.norm(r - s * g[1]) <= merge_thr), None)
            if hit is None:
                groups.append([q, r])
                sgn = sgn + q
            else:
                g, s = hit
                g[0] = g[0] + q
                sgn = sgn + s * q
        coarse.append(groups)
        sign_ops.append(sgn)

    k_projectors, triples = [], []
    for (q2, r2), (q3, r3), (q4, r4) in itertools.product(*coarse):
        prod = q2 @ q3 @ q4
        w, v = np.linalg.eigh((prod + prod.conj().T) / 2)
        basis = v[:, w > 0.5]
        k_r = basis @ basis.conj().T
        _check("match", "merged projectors' commutation defect", np.linalg.norm(prod - k_r), tol * 10)
        if basis.shape[1]:
            k_projectors.append(k_r)
            triples.append((r2, r3, r4))
    cover = np.linalg.norm(sum(k_projectors) - bf.support)
    _check("match", "block projectors' distance from the support", cover, tol * 10)

    return MatchedBlocks(
        k_projectors=tuple(k_projectors),
        triples=tuple(triples),
        sign_corrections=tuple(sign_ops),
    )


def pauli_frame(r2, r3, r4, tol: float = DEFAULT_STAGE_TOL):
    """Unitary S with r2 = S Z S*, r3 = S X S*, r4 = sign * S Y S*.

    Follows the three-step construction: diagonalize r2, rotate the phase of
    r3's off-diagonal, then read off the orientation of r4.  Unitary
    conjugation cannot flip the orientation of a triple, so the sign is
    genuine data and is returned explicitly.
    """
    mats = [np.asarray(m, dtype=complex) for m in (r2, r3, r4)]
    for m in mats:
        if m.shape != (2, 2):
            raise ValueError("pauli_frame expects 2x2 matrices")
        _check("frame", "input trace", abs(np.trace(m)), tol * 10)
        if not (nk.is_hermitian(m, tol * 10) and nk.is_unitary(m, tol * 10)):
            raise NiceFormError("frame", "inputs must be Hermitian unitaries")
    for a in range(3):
        for b in range(a + 1, 3):
            overlap = abs(nk.hs_inner(mats[a], mats[b]))
            _check("frame", f"HS inner product ({a},{b})", overlap, tol * 10)
    r2, r3, r4 = mats

    w, vec = np.linalg.eigh(r2)  # ascending: -1 then +1
    # fix eigenvector phases (largest-magnitude entry real positive) for determinism
    for k in (0, 1):
        col = vec[:, k]
        pivot = col[np.argmax(np.abs(col))]
        vec[:, k] = col * (np.conj(pivot) / abs(pivot))
    s1 = np.stack([vec[:, 1].conj(), vec[:, 0].conj()])  # rows: <a|, <b|
    r3p = s1 @ r3 @ s1.conj().T
    theta = float(np.angle(r3p[0, 1]))
    s2 = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    s = s1.conj().T @ s2.conj().T

    orient = -1j * (r2 @ r3)  # equals S Y S* for a right-handed triple
    sign = 1 if np.linalg.norm(r4 - orient) <= np.linalg.norm(r4 + orient) else -1
    for target, ref in ((PAULI_Z, r2), (PAULI_X, r3), (sign * PAULI_Y, r4)):
        _check("frame", "frame residual", np.linalg.norm(s @ target @ s.conj().T - ref), tol * 100)
    return s, sign


def canonicalize(
    p: Protocol, tol: float = DEFAULT_STAGE_TOL
) -> tuple[CanonicalDecomposition, DecompositionReport]:
    """Full pipeline: nice form, block diagonalization, matching, Pauli frames.

    All Alice-side corrections (eigenspace alignment, Hermitianization,
    sign folding, and the orientation sign of the fourth encoder) are
    accumulated into the final C_i, so the decomposition satisfies
    (C_i^* (x) 1) U_i V^* =_tau' sum_r P_r (x) S_r sigma_i S_r^* with the
    vacuous block appended on the complement of the support.  The P_r are
    `match_blocks`' coarsest common refinement: a block keeps its whole rank
    rather than splitting into rank-one pieces.

    Returns the decomposition with its `verify_decomposition` report at
    ``tol``; a decomposition that fails it raises NiceFormError('verify').
    A protocol whose message dimension is not 2 raises a plain ValueError.
    """
    nf = to_nice_form(p, tol)
    bf = block_diagonalize(nf, tol)
    mb = match_blocks(bf, tol)
    frames = [pauli_frame(*triple, tol) for triple in mb.triples]

    residual = np.eye(p.dim_a_prime, dtype=complex) - nf.support  # projector on ker(rho^{A'})
    orient = residual.copy()
    for k_r, (_, sign) in zip(mb.k_projectors, frames):
        orient += sign * k_r

    cs = []
    for i in range(4):
        if i == 0:
            total = nf.c[0]
        else:
            total = mb.sign_corrections[i - 1] @ bf.corrections[i - 1] @ nf.c[i]
        if i == 3:
            total = orient @ total
        cs.append(total.conj().T)

    blocks = [
        (k_r, frame[0], frame[1]) for k_r, frame in zip(mb.k_projectors, frames)
    ]
    if np.trace(residual).real > 0.5:
        blocks.append((residual, np.eye(2, dtype=complex), 1))
    dec = CanonicalDecomposition(v=nf.v, w=nf.w, c=tuple(cs), rho=nf.rho, blocks=tuple(blocks))
    report = verify_decomposition(p, dec, tol)
    _check("verify", "state residual", report.state_residual, tol)
    _check("verify", "encoder residual", np.max(report.encoder_residuals), tol)
    return dec, report


def verify_decomposition(
    p: Protocol, dec: CanonicalDecomposition, tol: float = DEFAULT_STAGE_TOL
) -> DecompositionReport:
    """Check a decomposition against a protocol in the =_tau' sense.

    p moves along (V, C_i^*, W) by `apply_local_equivalence`, which raises
    ValueError on a wrong count or shape of the C_i or a wrong V or W shape;
    a W whose row count is not the canonical form's 2 dim B' raises too.
    (a) (V (x) W) tau (V (x) W)^* must be rho (x) EPR;
    (b) for each i the operators (C_i^* (x) 1) U_i V^* and
        sum_r P_r (x) S_r sigma_i S_r^* must act identically on tau'.
    Each encoder's products stay separate 2-D calls: one (4, N, N) stack of
    them would hold four times the N x N temporaries at once.
    """
    a1, d, b = p.dims
    if d != 2:
        raise ValueError("decompositions are defined for qubit messages")
    moved = apply_local_equivalence(p, dec.v, [c_i.conj().T for c_i in dec.c], dec.w)
    canon = canonical_form(dec.rho, a1, dec.blocks)
    if moved.dim_b != canon.dim_b:
        expected = (canon.dim_b, b)
        raise ValueError(f"w must map B to B' (x) B'': expected shape {expected}, got {dec.w.shape}")
    state_resid = nk.trace_distance(moved.tau, canon.tau)

    eye_b = np.eye(canon.dim_b)
    enc_resids = []
    for left, target in zip(moved.encoders, canon.encoders):
        lhs = nk.tensor(left, eye_b)
        rhs = nk.tensor(target, eye_b)
        enc_resids.append(
            nk.trace_distance(lhs @ moved.tau @ lhs.conj().T, rhs @ moved.tau @ rhs.conj().T)
        )

    passed = state_resid <= tol and all(r <= tol for r in enc_resids)
    return DecompositionReport(
        passed=passed,
        state_residual=float(state_resid),
        encoder_residuals=tuple(float(r) for r in enc_resids),
        tol=tol,
    )
