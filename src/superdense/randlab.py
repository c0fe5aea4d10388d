"""Haar-random encoder experiments.

Monte-Carlo machinery for protocols whose d^2 encoders are independent
Haar-random unitaries: spectra of the ensemble-average matrix Q, comparison
with the Marchenko-Pastur law, the closed-form second-moment operator of a
random maximally entangled state, pseudo-isotropy variance checks, and the
distinguishability statistics whose large-d mean approaches 8/(3*pi).
Haar unitaries are drawn in batches by `numkit.haar_unitaries`, which
consumes the generator exactly as one draw at a time would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from . import numkit as nk
from .numkit import haar_unitaries
# unused here; perfbench/ wraps and calls it as `randlab.haar_unitary`
from .numkit import haar_unitary  # noqa: F401
from .protocol import StateEnsemble, pgm_success

EIGHT_OVER_3PI = 8.0 / (3.0 * math.pi)


@dataclass(frozen=True)
class MPParams:
    """Marchenko-Pastur parameters for aspect ratio r."""

    r: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"Marchenko-Pastur ratio r must be finite and positive, got {self.r}")

    @property
    def a(self) -> float:
        return (1.0 - math.sqrt(self.r)) ** 2

    @property
    def b(self) -> float:
        return (1.0 + math.sqrt(self.r)) ** 2

    @property
    def atom(self) -> float:
        return max(0.0, 1.0 - 1.0 / self.r)


@dataclass(frozen=True)
class MOperator:
    d: int
    beta: float
    gamma: float
    matrix: np.ndarray


@dataclass(frozen=True)
class ExperimentStats:
    d: int
    trials: int
    seed: int
    hc: tuple[float, ...]
    pgm: tuple[float | None, ...]
    max_eig: tuple[float, ...]
    hc_mean: float
    hc_std: float
    max_eig_mean: float
    ks_distance: float
    first_spectrum: tuple[float, ...]


def random_protocol_ensemble(d: int, rng: np.random.Generator) -> StateEnsemble:
    """Uniform ensemble of n = d^2 states (U_i (x) 1)|mes_d> with Haar U_i.

    Uses the identity (U (x) 1)|mes_d> = vec(U)/sqrt(d) (row-major vec).
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    n = d * d
    kets = haar_unitaries(d, n, rng).reshape(n, n)
    kets /= np.sqrt(d)
    return StateEnsemble(probs=(1.0 / n,) * n, states=tuple(kets))


def esd(e: StateEnsemble) -> np.ndarray:
    """Eigenvalues of the unnormalized ensemble average Q = sum |psi><psi|,
    sorted descending."""
    # the kets are the rows of the stack, so its transpose is psi as an
    # F-contiguous view that zherk reads without a copy; zherk fills only the
    # lower triangle of Q, which is all eigvalsh reads with UPLO="L"
    psi = np.stack(e.kets()).T
    q = blas.zherk(1.0, psi, lower=1)
    return np.linalg.eigvalsh(q, UPLO="L")[::-1].copy()


def mp_density(p: MPParams, x: float) -> float:
    """Continuous part of the Marchenko-Pastur density (the atom lives in the cdf)."""
    if x <= p.a or x >= p.b or x <= 0:
        return 0.0
    return math.sqrt((x - p.a) * (p.b - x)) / (2.0 * math.pi * p.r * x)


def mp_cdf(p: MPParams, x) -> np.ndarray:
    """Cumulative distribution, atom at 0 included, in closed form.

    `x` is a scalar or an array; the result has its shape.  On (a, b) the
    continuous part integrates to
    [R + m (atan2(x - m, R) + pi/2) - s (atan2(m x - a b, s R) + pi/2)] / (2 pi r)
    with R = sqrt((x - a)(b - x)), m = 1 + r and s = |1 - r| = sqrt(a b); the
    atan2 forms stay accurate next to the edges, where arcsin loses half its
    digits.  For r = 1 this is (sqrt(x(4-x)) + 4 asin(sqrt(x)/2)) / (2 pi).
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x < 0, 0.0, np.where(x < p.b, p.atom, 1.0))
    inside = (x > p.a) & (x < p.b)
    t = x[inside]
    m, s = 1.0 + p.r, abs(1.0 - p.r)
    big_r = np.sqrt((t - p.a) * (p.b - t))
    cont = (
        big_r
        + m * (np.arctan2(t - m, big_r) + math.pi / 2)
        - s * (np.arctan2(m * t - s * s, s * big_r) + math.pi / 2)
    )
    out[inside] = np.minimum(p.atom + cont / (2.0 * math.pi * p.r), 1.0)
    return out


def kolmogorov_distance(eigenvalues, p: MPParams) -> float:
    """Two-sided one-sample Kolmogorov statistic at the sample points."""
    xs = np.sort(np.asarray(eigenvalues, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("empty sample")
    ref = mp_cdf(p, xs)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(ref - upper), np.abs(ref - lower))))


def mean_sqrt_esd(eigenvalues, tol: float = nk.DEFAULT_TOL) -> float:
    """(1/n) sum_i sqrt(lambda_i); equals the Holevo-Curlander scalar of the
    underlying uniform pure ensemble."""
    w = np.asarray(eigenvalues, dtype=float)
    if w.min(initial=0.0) < -tol:
        raise ValueError(f"negative eigenvalue {w.min()} in ESD sample")
    return float(np.sqrt(np.clip(w, 0.0, None)).sum() / w.size)


def _swap_operator(d: int) -> np.ndarray:
    return np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)


def m_operator_closed_form(d: int) -> MOperator:
    """Exact E |psi><psi|^(x)2 for psi = (U (x) 1)|mes_d>, U Haar.

    The four tensor factors are labeled A, B, C, D; the swap F acts on the
    pairs (A,C) and (B,D).  Coefficients: beta = 1/(d^2 (d^2-1)),
    gamma = -1/(d^3 (d^2-1)).
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    f = _swap_operator(d)
    eye2 = np.eye(d * d)
    dims = [d, d, d, d]
    perm = [0, 2, 1, 3]  # (A, C, B, D) -> (A, B, C, D)
    f_ac_f_bd = nk.permute_factors(np.kron(f, f), dims, perm)
    f_ac_1bd = nk.permute_factors(np.kron(f, eye2), dims, perm)
    one_ac_f_bd = nk.permute_factors(np.kron(eye2, f), dims, perm)
    beta = 1.0 / (d * d * (d * d - 1))
    gamma = -1.0 / (d**3 * (d * d - 1))
    m = beta * (np.eye(d**4) + f_ac_f_bd) + gamma * (one_ac_f_bd + f_ac_1bd)
    return MOperator(d=d, beta=beta, gamma=gamma, matrix=m)


def m_operator_monte_carlo(
    d: int, samples: int, rng: np.random.Generator, batch: int = 2000
) -> np.ndarray:
    """Monte-Carlo estimate of E |psi><psi|^(x)2 over Haar draws."""
    total = np.zeros((d**4, d**4), dtype=complex)
    done = 0
    while done < samples:
        m = min(batch, samples - done)
        psi = haar_unitaries(d, m, rng).reshape(m, d * d) / np.sqrt(d)
        # row k is np.kron(psi[k], psi[k]): the same products, in one pass
        phis = (psi[:, :, None] * psi[:, None, :]).reshape(m, d**4)
        total += phis.T @ phis.conj()
        done += m
    return total / samples


def pseudo_isotropy_bound(d: int, a: np.ndarray) -> float:
    """Variance bound (1/(n-1))|Tr a|^2 + n^2/(n-1) + 2 sqrt(n)/(n-1), n = d^2."""
    n = d * d
    tr = abs(complex(np.trace(a)))
    return (tr * tr) / (n - 1) + (n * n) / (n - 1) + 2.0 * math.sqrt(n) / (n - 1)


def pseudo_isotropy_variance(
    d: int, a: np.ndarray, samples: int, rng: np.random.Generator
) -> float:
    """Empirical variance of <xi| a |xi> with xi = d (U (x) 1)|mes_d>."""
    a = np.asarray(a, dtype=complex)
    n = d * d
    if a.shape != (n, n):
        raise ValueError(f"matrix must act on C^{n}")
    if np.linalg.norm(a, ord=2) > 1.0 + 1e-9:
        raise ValueError("spectral norm must be at most 1")
    xis = haar_unitaries(d, samples, rng).reshape(samples, n)
    xis *= np.sqrt(d)
    # one vdot per draw: a batched product would change the summation order
    vals = np.array([np.vdot(xi, a @ xi) for xi in xis], dtype=complex)
    return float(np.mean(np.abs(vals - vals.mean()) ** 2))


def distinguishability_experiment(
    d: int, trials: int, seed: int, pgm_limit: int = 16
) -> ExperimentStats:
    """Independent random-protocol trials with pooled eigenvalue statistics.

    Trial t draws its own stream seeded by (seed, t), so runs are
    reproducible and trials are independent.  The Holevo-Curlander scalar of
    a uniform pure ensemble equals (1/n) sum sqrt(lambda_i) of its Q matrix,
    so `hc` is computed from the spectrum; the PGM success probability costs
    an n x n square root and is only computed for d <= pgm_limit.
    `first_spectrum` is trial 0's spectrum, kept so that writing it costs no
    second draw.
    """
    if d < 2 or trials < 1:
        raise ValueError("need d >= 2 and at least one trial")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    hcs, pgms, maxes, spectra = [], [], [], []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        ens = random_protocol_ensemble(d, rng)
        w = esd(ens)
        hcs.append(mean_sqrt_esd(w))
        maxes.append(float(w[0]))
        pgms.append(pgm_success(ens) if d <= pgm_limit else None)
        spectra.append(w)
    ks = kolmogorov_distance(np.concatenate(spectra), MPParams(r=1.0))
    return ExperimentStats(
        d=d,
        trials=trials,
        seed=seed,
        hc=tuple(hcs),
        pgm=tuple(pgms),
        max_eig=tuple(maxes),
        hc_mean=float(np.mean(hcs)),
        hc_std=float(np.std(hcs)),
        max_eig_mean=float(np.mean(maxes)),
        ks_distance=ks,
        first_spectrum=tuple(float(x) for x in spectra[0]),
    )
