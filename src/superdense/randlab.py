"""Haar-random encoder experiments.

Monte-Carlo machinery for protocols whose d^2 encoders are independent
Haar-random unitaries: spectra of the ensemble-average matrix Q, comparison
with the Marchenko-Pastur law, the closed-form second-moment operator of a
random maximally entangled state, pseudo-isotropy variance checks, and the
distinguishability statistics whose large-d mean approaches 8/(3*pi).
Haar unitaries are drawn in batches by `numkit.haar_unitaries`, which
consumes the generator exactly as one draw at a time would.

The n = d^2 kets of a random protocol are the rows of one (n, n) array.
Each trial forms their Gram matrix G = Psi^H Psi once (`numkit.gram`); G
and Q = Psi Psi^H share their spectrum.  Where the PGM is computed, one
Hermitian eigensolve of G feeds both the spectrum and the PGM
(`spectrum_and_pgm`); elsewhere `esd` computes the eigenvalues alone,
with LAPACK's two-stage solver (`numkit.hermitian_eigenvalues`).  Both
check the spectrum against G's trace and Frobenius norm.  Trials are
independent, so `distinguishability_experiment` runs them on the CPUs that
BLAS leaves idle.  Where they run on one worker and BLAS leaves a second
CPU free, as for one trial at one BLAS thread on two CPUs, each trial of
at least `_HELPER_MIN_KETS` kets also gets a helper thread: it QR-factors
every second Haar block and forms the Gram block below the diagonal.
Each block gets the same LAPACK or BLAS call on the same input either
way, so no bit of the output changes.  At d = 32 that took one trial at
one BLAS thread from 434 to 381 ms (medians of 21 alternating in-process
calls on a 2-vCPU Xeon, numpy 2.4.6 with OpenBLAS 0.3.31): sampling
83 -> 64 ms, the Gram 80 -> 55 ms; the eigensolve stays on the trial's
thread.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .numkit import haar_unitaries
# unused here; perfbench/ wraps and calls it as `randlab.haar_unitary`
from .numkit import haar_unitary  # noqa: F401
from .protocol import StateEnsemble, pgm_from_eigh
# unused here; perfbench/ wraps it as `randlab.pgm_success`
from .protocol import pgm_success  # noqa: F401

EIGHT_OVER_3PI = 8.0 / (3.0 * math.pi)

# kets per trial (d = 20) from which a trial may get a helper thread.  One
# trial at one BLAS thread, in-process, helper on against off, medians of 41
# to 61 alternating calls: d = 8 +20 %, 12 +10 %, 16 -0.2 %, 17 -0.4 %,
# 18 +2.6 %, 19 -1.2 %, 20 -6.4 %, 22 -4.0 %, 24 -8.5 %, 32 -12.3 %
_HELPER_MIN_KETS = 20 * 20

# complex entries that concurrent trials may hold together; a running trial
# holds about 3 n^2 (kets, Gram matrix, solver copy or eigenvectors).  2^24
# (256 MiB) admits 85 trials at d = 16 and 5 at d = 32, but never two at
# d = 64 (n = 4096, 805 MB a trial), criterion 6's dimension
_POOL_ENTRIES = 2**24


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


def random_protocol_ensemble(d: int, rng: np.random.Generator, *, executor=None) -> StateEnsemble:
    """Uniform ensemble of n = d^2 states (U_i (x) 1)|mes_d> with Haar U_i.

    Uses the identity (U (x) 1)|mes_d> = vec(U)/sqrt(d) (row-major vec).
    The states are the rows of one (n, n) array, as the sampler returns them.
    `executor` is passed to `haar_unitaries`.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    n = d * d
    kets = haar_unitaries(d, n, rng, executor).reshape(n, n)
    kets /= np.sqrt(d)
    return StateEnsemble(probs=(1.0 / n,) * n, states=kets)


def esd(e: StateEnsemble, *, executor=None) -> np.ndarray:
    """Eigenvalues of the Gram matrix G = Psi^H Psi of a pure ensemble's kets,
    sorted descending.

    G shares its nonzero eigenvalues with the unnormalized ensemble average
    Q = sum |psi><psi|; for the d^2 kets of a random protocol both are
    d^2 x d^2, so this is Q's spectrum.  The spectrum is checked against G
    by `check_spectrum`.  `executor` is passed to `numkit.gram`.
    """
    g = nk.gram(e.kets(), executor)
    w = nk.hermitian_eigenvalues(g)
    check_spectrum(w, g)
    return w[::-1].copy()


def spectrum_and_pgm(kets, *, executor=None) -> tuple[np.ndarray, float]:
    """`esd` and `pgm_success` of a uniform ensemble from one eigensolve.

    `kets` holds one ket per row.  One `eigh` of their Gram matrix gives the
    descending spectrum and, through `pgm_from_eigh`, the PGM success.
    `executor` is passed to `numkit.gram`.
    """
    g = nk.gram(kets, executor)
    w, v = np.linalg.eigh(g, UPLO="L")
    check_spectrum(w, g)
    return w[::-1].copy(), pgm_from_eigh(w, v)


def check_spectrum(w: np.ndarray, g: np.ndarray) -> None:
    """Check eigenvalues `w` against two identities of the Gram matrix `g`,
    which holds its lower triangle only (`numkit.gram`).

    Sum lambda = Tr G within 4 n eps max|lambda|, and
    sum lambda^2 = ||G||_F^2 = 2 sum |g|^2 - sum |g_ii|^2 within
    8 n eps max lambda^2.  Neither side depends on the eigensolver, and both
    cost O(n^2).  Raises `np.linalg.LinAlgError` naming the identity that
    fails.  `g` is read without a copy through `g.T`, C-contiguous where
    zherk's output is F-ordered.  sum |g|^2 is summed per row, then across
    rows: one running sum over all n^2 entries (`np.vdot`) drifts by up to
    9.5 n eps max lambda^2 at n = 4096, against 0.2 per row.
    """
    n, eps = w.size, np.finfo(float).eps
    gt = g.T
    diag = gt.diagonal().real
    top = float(np.abs(w).max(initial=0.0))
    trace_gap = abs(float(w.sum()) - float(diag.sum()))
    if not trace_gap <= 4 * n * eps * top:
        raise np.linalg.LinAlgError(
            f"eigenvalue sum differs from the Gram trace by {trace_gap:.3e}")
    parts = np.ascontiguousarray(gt).view(np.float64)  # re, im side by side
    frobenius = 2 * float(np.einsum("ij,ij->i", parts, parts).sum()) - float(np.sum(diag**2))
    square_gap = abs(float(np.sum(w**2)) - frobenius)
    if not square_gap <= 8 * n * eps * top**2:
        raise np.linalg.LinAlgError(
            f"eigenvalue square sum differs from the Gram Frobenius norm by {square_gap:.3e}")


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


def mean_sqrt_esd(eigenvalues) -> float:
    """(1/n) sum_i sqrt(lambda_i); equals the Holevo-Curlander scalar of the
    underlying uniform pure ensemble."""
    w = np.asarray(eigenvalues, dtype=float)
    if w.min(initial=0.0) < -nk.DEFAULT_TOL:
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
    f_ac_f_bd = nk.permute_factors(nk.tensor(f, f), dims, perm)
    f_ac_1bd = nk.permute_factors(nk.tensor(f, eye2), dims, perm)
    one_ac_f_bd = nk.permute_factors(nk.tensor(eye2, f), dims, perm)
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
    so `hc` is computed from the spectrum.  Each trial forms one Gram matrix
    G = Psi^H Psi of its kets.  For d <= pgm_limit one eigendecomposition of
    G feeds both the spectrum and the PGM success probability
    (`spectrum_and_pgm`); above it `esd` computes the eigenvalues alone and
    the PGM is None.  Each spectrum passes `check_spectrum`.
    `first_spectrum` is trial 0's spectrum, kept so that writing it costs no
    second draw.  With more than one worker (`_trial_workers`) the trials run
    on a thread pool; no trial's arithmetic changes, and the results are
    gathered in trial order, so the statistics do not depend on the worker
    count.  With one worker where BLAS leaves a second CPU free, each trial
    of at least `_HELPER_MIN_KETS` kets also gets a helper thread for its
    sampling and its Gram matrix (`_trial_workers`); no bit changes with it
    either.
    """
    if d < 2 or trials < 1:
        raise ValueError("need d >= 2 and at least one trial")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    n = d * d
    trial = functools.partial(_trial, d, seed, pgm_limit)
    workers = _trial_workers(n, trials)
    if workers > 1:
        results = _run_trials(trial, trials, workers)
    elif n < _HELPER_MIN_KETS or (_blas_slots() or 0) < 2:
        results = [trial(t) for t in range(trials)]
    else:
        # leaving the block waits for a helper task still running
        with ThreadPoolExecutor(1) as helper:
            results = [trial(t, executor=helper) for t in range(trials)]
    hcs, pgms, maxes, spectra = zip(*results)
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


def _trial(d: int, seed: int, pgm_limit: int, t: int, executor=None):
    """Trial t of `distinguishability_experiment`: (hc, pgm, max_eig, spectrum).

    `executor`, if given, is the trial's helper for sampling and the Gram."""
    ens = random_protocol_ensemble(d, np.random.default_rng([seed, t]), executor=executor)
    if d <= pgm_limit:
        w, pgm = spectrum_and_pgm(ens.kets(), executor=executor)
    else:
        w, pgm = esd(ens, executor=executor), None
    return mean_sqrt_esd(w), pgm, float(w[0]), w


def _run_trials(trial, trials: int, workers: int) -> list:
    """[trial(t) for t in range(trials)] on `workers` threads.

    Each thread takes the next trial index from one shared counter until
    none is left, so the results need no reordering and a slow trial holds
    up no other.  One task per thread, not one per trial: per-trial futures
    cost every trial a hand-off through the executor's queue and a wake-up of
    the caller.  Where the platform allows, each thread is pinned to its own
    share of the CPUs this process may run on: threads that hand the
    interpreter lock to each other are woken on each other's CPU, and left
    free, two of them often shared one CPU while the other idled.  A failed
    trial, or an interrupt in the calling thread, stops every thread before
    its next trial; the exception then propagates.
    """
    results = [None] * trials
    indices = itertools.count()  # next() is atomic under the interpreter lock
    stop = threading.Event()
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    share = len(cpus) // workers

    def run(k: int):
        if share:
            os.sched_setaffinity(0, cpus[k * share:(k + 1) * share])  # this thread only
        for t in indices:
            if t >= trials or stop.is_set():
                return
            try:
                results[t] = trial(t)
            except BaseException:
                stop.set()
                raise

    pool = ThreadPoolExecutor(workers)
    try:
        for runner in [pool.submit(run, k) for k in range(workers)]:
            runner.result()
    finally:
        stop.set()  # before the shutdown, which waits for the trials running
        pool.shutdown()
    return results


def _trial_workers(n: int, trials: int) -> int:
    """Threads for `distinguishability_experiment`'s trials of n kets each.

    The smallest of the trial count, `_blas_slots()`, and the trials whose
    3 n^2 complex entries fit in `_POOL_ENTRIES`; at least 1, and 1 where
    the OpenBLAS thread count cannot be read.  That count governs every call
    in a trial: the Gram's zherk and the eigensolves all run in numpy's
    OpenBLAS.  Trials share no state, and their LAPACK calls release the
    interpreter lock.  Where this gives one worker and the slots are at
    least 2, as at one BLAS thread on two CPUs for `--trials 1` or for
    d >= 41 (through the memory cap), each trial of at least
    `_HELPER_MIN_KETS` kets gets one helper thread, shared by the trials in
    turn.  A pool of two or more workers gets no helpers: that case was not
    measured, and its workers pin themselves to CPUs that a helper thread
    created from them would inherit.  The helper QR-factors every second
    Haar block (`numkit.haar_unitaries`) and forms the Gram block below the
    diagonal with zgemm (`numkit.gram`); the blocks get the same calls on
    the same inputs, so no bit changes.  One d = 32 trial at one BLAS
    thread took 381 ms with it against 434 ms without (medians of 21
    alternating in-process calls, 2-vCPU Xeon).
    """
    slots = _blas_slots()
    if slots is None:
        return 1
    return max(1, min(trials, slots, _POOL_ENTRIES // (3 * n * n)))


def _blas_slots() -> int | None:
    """The CPUs this process may run on divided by numpy's OpenBLAS thread
    count, or None where that count cannot be read."""
    threads = nk.blas_threads()
    if threads is None:
        return None
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus // threads
