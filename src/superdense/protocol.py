"""Superdense coding protocols: errorless verification and distinguishability.

A protocol is a shared density matrix on A' (x) A'' (x) B together with d^2
encoding unitaries on A' (x) A''; A'' is the d-dimensional system that gets
sent.  Factor order everywhere is (A', A'', B), left factor slow.
The canonical qubit protocol (`canonical_form`) and a local equivalence to
it (`CanonicalDecomposition`) live here: `random_scrambled_bw` plants one,
`rigidity` recovers one.  Every move of a protocol along (V, C_i, W), W a
unitary or a Bob-side isometry, is `apply_local_equivalence`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit as nk


class InvalidProtocolError(ValueError):
    """A protocol field fails its requirement; ``field`` names it."""

    def __init__(self, field: str, detail: str):
        super().__init__(f"field '{field}': {detail}")
        self.field = field
        self.detail = detail


@dataclass(frozen=True)
class Protocol:
    dim_a_prime: int
    dim_a_dbl: int  # the message dimension d
    dim_b: int
    tau: np.ndarray
    encoders: tuple[np.ndarray, ...]

    @property
    def dim_a(self) -> int:
        return self.dim_a_prime * self.dim_a_dbl

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.dim_a_prime, self.dim_a_dbl, self.dim_b)

    def validate(self, tol: float = nk.DEFAULT_TOL) -> None:
        """Raise InvalidProtocolError naming the first field that fails: the
        state's shape, then its density, each encoder's shape and unitarity,
        then the encoder count."""
        n = self.dim_a * self.dim_b
        if self.tau.shape != (n, n):
            raise InvalidProtocolError("tau", f"shape {self.tau.shape} does not match dims")
        if not nk.is_density(self.tau, tol):
            raise InvalidProtocolError("tau", "not a density matrix (Hermitian, PSD, trace 1)")
        a = self.dim_a
        for k, u in enumerate(self.encoders):
            if u.shape != (a, a):
                raise InvalidProtocolError(f"encoders[{k}]", f"shape {u.shape} is not {a}x{a}")
            if not nk.is_unitary(u, tol):
                raise InvalidProtocolError(f"encoders[{k}]", "not a unitary matrix")
        if len(self.encoders) != self.dim_a_dbl**2:
            raise InvalidProtocolError(
                "encoders", f"expected {self.dim_a_dbl ** 2} encoders, got {len(self.encoders)}"
            )


@dataclass(frozen=True)
class StateEnsemble:
    """States with probabilities; a state is a density matrix or a pure ket.

    `states` is a tuple of states, or one 2-D array whose rows are the kets,
    which `kets()` hands out without a copy.
    """

    probs: tuple[float, ...]
    states: tuple[np.ndarray, ...] | np.ndarray

    def __post_init__(self):
        if len(self.probs) != len(self.states):
            raise ValueError("probability/state count mismatch")

    def __len__(self) -> int:
        return len(self.states)

    def density(self, k: int) -> np.ndarray:
        s = self.states[k]
        return np.outer(s, s.conj()) if s.ndim == 1 else s

    def is_uniform(self, tol: float = 1e-12) -> bool:
        return all(abs(p - 1.0 / len(self)) <= tol for p in self.probs)

    @property
    def pure(self) -> bool:
        """Every member is a 1-D ket; a density matrix, even of rank 1, is not."""
        if isinstance(self.states, np.ndarray):
            return self.states.ndim == 2  # one row per ket
        return all(s.ndim == 1 for s in self.states)

    def kets(self) -> tuple[np.ndarray, ...] | np.ndarray:
        """The members of a pure ensemble; raises ValueError otherwise."""
        if not self.pure:
            raise ValueError("ensemble members are density matrices, not kets")
        return self.states


@dataclass(frozen=True)
class ErrorlessReport:
    passed: bool
    max_state_overlap: float
    worst_pair: tuple[int, int]
    max_operator_violation: float
    tol: float


@dataclass(frozen=True)
class CanonicalDecomposition:
    """A protocol's local equivalence (V, W, C_i) to its `canonical_form`."""

    v: np.ndarray
    w: np.ndarray
    c: tuple[np.ndarray, ...]
    rho: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray, int], ...]  # (P_r, S_r, sign_r)


def bennett_wiesner() -> Protocol:
    """The qubit protocol: EPR pair, encoders (1, Z, X, Y)."""
    epr = nk.max_entangled(2)
    return Protocol(
        dim_a_prime=1,
        dim_a_dbl=2,
        dim_b=2,
        tau=np.outer(epr, epr.conj()),
        encoders=tuple(np.array(s) for s in nk.PAULIS),
    )


def canonical_protocol(basis) -> Protocol:
    """Maximally entangled state with a given orthogonal unitary basis as encoders."""
    from .bases import verify_orthogonal_unitary_basis

    if not verify_orthogonal_unitary_basis(basis, 1e-8).passed:
        raise ValueError("canonical_protocol requires a valid orthogonal unitary basis")
    d = basis.d
    ket = nk.max_entangled(d)
    return Protocol(
        dim_a_prime=1,
        dim_a_dbl=d,
        dim_b=d,
        tau=np.outer(ket, ket.conj()),
        encoders=tuple(np.array(e) for e in basis.elements),
    )


def canonical_state(rho: np.ndarray, dim_a_prime: int, dim_b_prime: int) -> np.ndarray:
    """rho (x) EPR with factors reordered from (A', B', A'', B'') to (A', A'', B', B'')."""
    epr = nk.max_entangled(2)
    return nk.permute_factors(
        nk.tensor(rho, np.outer(epr, epr.conj())),
        [dim_a_prime, dim_b_prime, 2, 2],
        [0, 2, 1, 3],
    )


def canonical_form(rho: np.ndarray, dim_a_prime: int, blocks) -> Protocol:
    """The canonical qubit protocol every errorless one is locally equivalent to.

    State rho (x) EPR on A' (x) A'' (x) B' (x) B'' (rho on A' (x) B'), and
    encoders sum_r P_r (x) S_r sigma_i S_r^* over blocks (P_r, S_r, sign_r)
    and sigma_i in (1, Z, X, Y); the signs are not read.  Unlike
    `canonical_protocol`, which puts a d-dimensional basis on a maximally
    entangled state, this is the qubit normal form with an ancilla.
    """
    a1, b1 = dim_a_prime, rho.shape[0] // dim_a_prime
    encoders = []
    for sigma in nk.PAULIS:
        u = np.zeros((2 * a1, 2 * a1), dtype=complex)
        for p_r, s_r, _sign in blocks:
            u += nk.tensor(p_r, s_r @ sigma @ s_r.conj().T)
        encoders.append(u)
    return Protocol(a1, 2, 2 * b1, canonical_state(rho, a1, b1), tuple(encoders))


def _state_factor(tau: np.ndarray, cut: float = 1e-13) -> np.ndarray:
    """C with tau = C C^H, columns scaled eigenvectors (rank columns)."""
    w, v = np.linalg.eigh((tau + tau.conj().T) / 2)
    keep = w > cut * max(w.max(initial=0.0), 1.0)
    return v[:, keep] * np.sqrt(w[keep])


def _encoded_factors(p: Protocol) -> np.ndarray:
    """Array of shape (n, dim_a, dim_b, rank): (U_i (x) 1) applied to a factor of tau."""
    c = _state_factor(p.tau)
    rank = c.shape[1]
    c3 = c.reshape(p.dim_a, p.dim_b, rank)
    stack = np.stack(p.encoders)  # (n, dim_a, dim_a)
    return np.einsum("iax,xbr->iabr", stack, c3)


def encoded_states(p: Protocol) -> StateEnsemble:
    """Uniform ensemble of the d^2 reduced encoded states on A'' (x) B."""
    e = _encoded_factors(p)
    n = len(p.encoders)
    a1, d, b = p.dims
    u = d * b
    e = e.reshape(n, a1, d, b, -1).reshape(n, a1, u, -1)
    states = []
    for i in range(n):
        rho = np.einsum("aur,avr->uv", e[i], e[i].conj())
        states.append(rho)
    return StateEnsemble(probs=(1.0 / n,) * n, states=tuple(states))


def verify_errorless(p: Protocol, tol: float = nk.DEFAULT_TOL) -> ErrorlessReport:
    """Check the two orthogonality conditions of a zero-error protocol.

    (a) pairwise Tr(rho_i rho_j) <= tol for the encoded ensemble; orthogonal
        supports are necessary and are sufficient for a perfectly
        distinguishing projective measurement to exist.
    (b) the operator condition Tr_{A''}(U_i tau^A U_j^*) = 0, as a cross
        check.

    (a) is read off T = X X^H, one BLAS product: the rows (i, alpha, r) of X
    are the columns of the factors F_{i,alpha}, and Tr(rho_i rho_j) =
    sum_{alpha,beta} ||F_{j,beta}^H F_{i,alpha}||_F^2 is the sum of |T|^2
    over T's block (i, j).  On an errorless protocol every overlap, and so
    the worst pair, is rounding noise of T's entries.
    """
    a1, d, b = p.dims
    n = len(p.encoders)
    e = _encoded_factors(p).reshape(n, a1, d * b, -1)
    x = e.transpose(0, 1, 3, 2).reshape(-1, d * b)
    sq = (x @ x.conj().T).view(float)  # T's real and imaginary parts
    sq *= sq  # in place: T is the only array of its size
    overlaps = sq.reshape(n, len(x) // n, n, -1).sum(axis=(1, 3))
    off = overlaps - np.diag(np.diag(overlaps))
    worst = int(np.argmax(off))
    worst_pair = (worst // n, worst % n)
    max_overlap = float(off.max(initial=0.0))

    tau_a = nk.partial_trace(p.tau, [p.dim_a, b], [0])
    s = _state_factor(tau_a)
    z = np.einsum("iax,xr->iar", np.stack(p.encoders), s).reshape(n, a1, d, -1)
    cross = np.einsum("iaur,jbur->ijab", z, z.conj())
    op_norms = np.sqrt(np.einsum("ijab,ijab->ij", cross, cross.conj()).real)
    np.fill_diagonal(op_norms, 0.0)
    max_op = float(op_norms.max(initial=0.0))

    return ErrorlessReport(
        passed=(max_overlap <= tol and max_op <= tol),
        max_state_overlap=max_overlap,
        worst_pair=worst_pair,
        max_operator_violation=max_op,
        tol=tol,
    )


def hc_quantity(e: StateEnsemble) -> float:
    """Holevo-Curlander scalar Tr sqrt(sum_i p_i^2 rho_i^2)."""
    if e.pure:
        # for unit kets sum_i p_i^2 rho_i^2 = sum_i |p_i psi_i><p_i psi_i|, whose
        # nonzero spectrum is that of the Gram matrix of the kets p_i psi_i
        weighted = np.asarray(e.probs)[:, None] * np.asarray(e.kets())
        w = np.linalg.eigvalsh(nk.gram(weighted), UPLO="L")
        return float(np.sqrt(np.clip(w, 0.0, None)).sum())
    acc = None
    for k, p in enumerate(e.probs):
        rho = e.density(k)
        term = (p * p) * (rho @ rho)
        acc = term if acc is None else acc + term
    w = np.linalg.eigvalsh((acc + acc.conj().T) / 2)
    slack = nk.DEFAULT_TOL * max(1.0, float(np.linalg.norm(acc)))
    return float(np.sqrt(nk.clip_psd_spectrum(w, slack)).sum())


def pgm_success(e: StateEnsemble, tol: float = nk.DEFAULT_TOL) -> float:
    """Success probability of the square-root measurement.

    Defined for uniform ensembles of kets; computed from the Gram
    matrix G = Psi^H Psi of the state vectors as (1/m) sum_i ((sqrt G)_{ii})^2
    by `pgm_from_eigh`, after one Hermitian eigensolve of G.  The PGM is an
    actual measurement, so this is always a lower bound on the ensemble's
    distinguishability.
    """
    if not e.is_uniform(max(tol, 1e-10)):
        raise ValueError("pgm_success requires a uniform ensemble")
    w, v = np.linalg.eigh(nk.gram(e.kets()), UPLO="L")
    return pgm_from_eigh(w, v, tol)


def pgm_from_eigh(w: np.ndarray, v: np.ndarray, tol: float = nk.DEFAULT_TOL) -> float:
    """PGM success (1/m) sum_i ((sqrt G)_{ii})^2 of a uniform ensemble of m kets,
    from the eigendecomposition G = V diag(w) V^H of its Gram matrix.

    (sqrt G)_{ii} = sum_k |V_{ik}|^2 sqrt(w_k), so the diagonal costs O(m^2)
    and sqrt G is never formed.  `numkit.clip_psd_spectrum` raises ValueError
    on an eigenvalue below -max(tol, 1e-8) * max(1, ||G||_F); ||G||_F is
    taken from the spectrum.  Eigenvalues at or below m * eps * max(w) are
    rounding noise of a rank-deficient G (more kets than dimensions) and
    count as 0; their square roots, near sqrt(eps), would bias the result
    upward.
    """
    w = nk.clip_psd_spectrum(w, max(tol, 1e-8) * max(1.0, float(np.linalg.norm(w))))
    w[w <= w.size * np.finfo(float).eps * w.max(initial=0.0)] = 0.0
    diag = (v.real**2 + v.imag**2) @ np.sqrt(w)
    return float(np.mean(diag**2))


def distinguishability_bounds(e: StateEnsemble, tol: float = nk.DEFAULT_TOL):
    """Computable sandwich around the ensemble's distinguishability.

    Returns (lower, upper) = (max(pgm, 2 hc - 1), hc); the PGM enters only
    for uniform ensembles of kets.  The exact value is a semidefinite program
    and is deliberately not computed; the PGM is an achievable measurement and
    the Holevo-Curlander scalar bounds from both sides.
    """
    hc = hc_quantity(e)
    lower = 2.0 * hc - 1.0
    if e.pure and e.is_uniform(max(tol, 1e-10)):
        lower = max(lower, pgm_success(e, tol))
    return lower, hc


def apply_local_equivalence(p: Protocol, v, c, w) -> Protocol:
    """Transport a protocol along a local equivalence (V, C_i, W).

    v acts on A' (x) A'', each c[i] on A', and w maps B into Bob's new space:
    a unitary, or an isometry such as W: B -> B' (x) B'', whose row count is
    the result's dim_b.  The state becomes (v (x) w) tau (v (x) w)^*, the
    encoders (c[i] (x) 1) U_i v^*.  v = None or c = None stands for the
    identity, and the encoders skip its product.  A wrong shape or count
    raises ValueError naming v, w, c or c[k].
    """
    a1, d, b = p.dims
    v_id = v is None
    v = np.eye(p.dim_a, dtype=complex) if v_id else np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if v.shape != (p.dim_a,) * 2:
        raise ValueError(f"v must act on A: expected shape {(p.dim_a,) * 2}, got {v.shape}")
    if w.ndim != 2 or w.shape[1] != b:
        raise ValueError(f"w must map B to Bob's space: expected shape (m, {b}), got {w.shape}")
    n = len(p.encoders)
    if c is not None and len(c) != n:
        raise ValueError(f"c must hold one correction per encoder: expected {n}, got {len(c)}")
    vw = nk.tensor(v, w)
    tau = vw @ p.tau @ vw.conj().T
    eye_d = np.eye(d)
    encoders = []
    for k, u in enumerate(p.encoders):
        if c is not None:
            ci = np.asarray(c[k], dtype=complex)
            if ci.shape != (a1, a1):
                raise ValueError(f"c[{k}] must act on A': expected shape {(a1, a1)}, got {ci.shape}")
            u = nk.tensor(ci, eye_d) @ u
        encoders.append(u if v_id else u @ v.conj().T)
    return Protocol(a1, d, w.shape[0], tau, tuple(encoders))


def _split_sizes(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def random_scrambled_bw(
    rng: np.random.Generator,
    dim_a_prime: int = 1,
    dim_b_prime: int = 1,
    blocks: int = 1,
):
    """Sample an errorless qubit protocol with a planted canonical form.

    Samples rho, blocks (P_r, S_r, 1), C_i, V and W, and returns the
    `canonical_form` of (rho, blocks) under the local equivalence
    (V^*, C, W^*), together with that planted decomposition.

    rho is sampled block-classically: Alice-block r is paired with its own
    band of B', so Bob's side of the ancilla reveals r.  That correlation is
    what makes the planted protocol errorless, and it forces
    blocks <= min(dim A', dim B').
    """
    a1, b1 = int(dim_a_prime), int(dim_b_prime)
    if a1 < 1 or b1 < 1 or blocks < 1:
        raise ValueError("dimensions and block count must be positive")
    if blocks > a1 or blocks > b1:
        raise ValueError("blocks must not exceed dim A' or dim B'")

    a_sizes = _split_sizes(a1, blocks)
    b_sizes = _split_sizes(b1, blocks)
    q_basis = nk.haar_unitary(a1, rng)
    weights = rng.dirichlet(np.ones(blocks))

    planted_blocks = []
    rho = np.zeros((a1 * b1, a1 * b1), dtype=complex)
    a_off = b_off = 0
    for r in range(blocks):
        qa = q_basis[:, a_off : a_off + a_sizes[r]]
        eb = np.eye(b1, dtype=complex)[:, b_off : b_off + b_sizes[r]]
        planted_blocks.append((qa @ qa.conj().T, nk.haar_unitary(2, rng), 1))
        m = a_sizes[r] * b_sizes[r]
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        small = g @ g.conj().T
        small /= np.trace(small).real
        embed = nk.tensor(qa, eb)
        rho += weights[r] * (embed @ small @ embed.conj().T)
        a_off += a_sizes[r]
        b_off += b_sizes[r]

    cs = tuple(nk.haar_unitary(a1, rng) for _ in range(4))
    v = nk.haar_unitary(2 * a1, rng)
    w = nk.haar_unitary(2 * b1, rng)

    blocks = tuple(planted_blocks)
    proto = apply_local_equivalence(canonical_form(rho, a1, blocks), v.conj().T, cs, w.conj().T)
    return proto, CanonicalDecomposition(v=v, w=w, c=cs, rho=rho, blocks=blocks)
