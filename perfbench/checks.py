"""Output checks of the benchmark, written apart from the package.

Each check reads what the CLI wrote and tests it with plain numpy, either
against a computation made here or against properties the method must
have.  Nothing here imports `superdense`: a fault in the package cannot
hide itself by also sitting in the check.  Every check raises `CheckError`
naming the property that failed.
"""

from __future__ import annotations

import json
import math

import numpy as np

EIGHT_OVER_3PI = 8.0 / (3.0 * math.pi)

KIND_RATIO = "eigenvalue-ratio"
KIND_DISTINCT = "distinct-count"
KIND_PROJECTIVE = "projective-noncommutativity"

# Certificate kinds each basis family must get (criterion 2), transformed or not.
EXPECTED_KINDS = {
    "clock-shift": frozenset(),
    "matching": frozenset({KIND_RATIO, KIND_PROJECTIVE}),
    "pauli-tensor": frozenset({KIND_DISTINCT}),
    "werner3": frozenset({KIND_PROJECTIVE}),
}

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
)


class CheckError(Exception):
    """An output of the program is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def read_eigenvalue_csv(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split()
    require(bool(lines) and lines[0] == "eigenvalue", f"{path}: header is not 'eigenvalue'")
    return np.array([float(x) for x in lines[1:]])


def matrix(data) -> np.ndarray:
    """A matrix stored as rows of [re, im] pairs."""
    pairs = np.asarray(data, dtype=float)
    require(pairs.ndim == 3 and pairs.shape[2] == 2, "matrix is not rows of [re, im] pairs")
    return pairs[..., 0] + 1j * pairs[..., 1]


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _is_unitary(m: np.ndarray, tol: float) -> bool:
    return m.shape[0] == m.shape[1] and np.linalg.norm(m.conj().T @ m - np.eye(len(m))) <= tol


def check_spectrum(d: int, eigenvalues: np.ndarray) -> None:
    """Q = sum_i |psi_i><psi_i| over d^2 unit kets: PSD with trace d^2."""
    n = d * d
    require(eigenvalues.shape == (n,), f"CSV holds {eigenvalues.size} eigenvalues, expected {n}")
    require(eigenvalues.min() >= -1e-9, f"negative eigenvalue {eigenvalues.min():.3e}")
    require(
        abs(eigenvalues.sum() - n) <= 1e-8 * n,
        f"eigenvalues sum to {eigenvalues.sum()!r}, not the trace {n}",
    )


def check_random_run(d: int, trials: int, eigenvalues: np.ndarray, doc: dict) -> None:
    """The CSV of trial 0 and the JSON statistics of `random run`."""
    check_spectrum(d, eigenvalues)
    require(doc["d"] == d and doc["trials"] == trials, "d or trials echoed wrongly")
    hc, pgm, max_eig = doc["hc"], doc["pgm"], doc["max_eig"]
    require(len(hc) == len(pgm) == len(max_eig) == trials, "per-trial lists have the wrong length")
    own_hc0 = float(np.sqrt(np.clip(eigenvalues, 0.0, None)).sum()) / (d * d)
    require(abs(hc[0] - own_hc0) <= 1e-12, f"hc[0] = {hc[0]!r}, CSV gives {own_hc0!r}")
    require(abs(max_eig[0] - eigenvalues.max()) <= 1e-12, "max_eig[0] is not the CSV maximum")
    for t in range(trials):
        require(hc[t] <= 1.0 + 1e-12, f"trial {t}: hc {hc[t]!r} above 1")
        if pgm[t] is not None:
            require(pgm[t] <= hc[t] + 1e-12, f"trial {t}: pgm {pgm[t]!r} above hc {hc[t]!r}")
    require(abs(doc["hc_mean"] - float(np.mean(hc))) <= 1e-12, "hc_mean is not the mean of hc")
    # criteria 5 and 6
    require(abs(doc["hc_mean"] - EIGHT_OVER_3PI) <= 0.02, f"hc_mean {doc['hc_mean']!r} off 8/(3 pi)")
    require(doc["ks_distance"] <= 0.05, f"KS distance {doc['ks_distance']!r} above 0.05")
    require(max(max_eig) < 5.0, f"largest eigenvalue {max(max_eig)!r} not below 5")


def check_gram(eigenvalues: np.ndarray, kets) -> None:
    """The CSV equals the spectrum of the Gram matrix Psi^H Psi formed here."""
    psi = np.column_stack(kets)
    own = np.sort(np.linalg.eigvalsh(psi.conj().T @ psi))
    got = np.sort(eigenvalues)
    require(own.shape == got.shape, "CSV and Gram spectrum differ in size")
    err = float(np.abs(own - got).max())
    require(err <= 1e-9, f"CSV differs from the Gram spectrum by {err:.3e}")


def read_decomposition(path: str) -> dict:
    doc = read_json(path)
    return {
        "v": matrix(doc["v"]),
        "w": matrix(doc["w"]),
        "c": [matrix(c) for c in doc["c"]],
        "rho": matrix(doc["rho"]),
        "blocks": [(matrix(b["p"]), matrix(b["s"]), b["sign"]) for b in doc["blocks"]],
    }


def check_decomposition(tau, encoders, dim_a_prime: int, dim_b: int, dec: dict, tol: float) -> None:
    """A canonical decomposition of a qubit protocol on (A', A'', B).

    Structure first (unitaries, isometry, projectors, density), then the
    two relations: (V (x) W) tau (V (x) W)^* = rho (x) Phi+ in factor order
    (A', A'', B', B''), and (C_i^* (x) 1) U_i V^* acts on tau' as
    sum_r P_r (x) S_r sigma_i S_r^* does.
    """
    a1 = dim_a_prime
    v, w, cs, rho, blocks = dec["v"], dec["w"], dec["c"], dec["rho"], dec["blocks"]
    require(v.shape == (2 * a1, 2 * a1) and _is_unitary(v, tol), "V is not a unitary on A")
    require(w.shape[1] == dim_b and w.shape[0] % 2 == 0, f"W has shape {w.shape}")
    require(np.linalg.norm(w.conj().T @ w - np.eye(dim_b)) <= tol, "W is not an isometry")
    b1 = w.shape[0] // 2
    require(len(cs) == 4, f"{len(cs)} corrections, expected 4")
    for i, c in enumerate(cs):
        require(c.shape == (a1, a1) and _is_unitary(c, tol), f"C_{i} is not a unitary on A'")
    total = np.zeros((a1, a1), dtype=complex)
    for r, (p, s, sign) in enumerate(blocks):
        require(sign in (-1, 1), f"block {r}: sign {sign!r}")
        require(s.shape == (2, 2) and _is_unitary(s, tol), f"S_{r} is not a qubit unitary")
        require(np.linalg.norm(p - p.conj().T) <= tol, f"P_{r} is not Hermitian")
        for q, (p2, _, _) in enumerate(blocks):
            want = p if q == r else np.zeros_like(p)
            require(np.linalg.norm(p @ p2 - want) <= tol, f"P_{r} P_{q} is not {'P' if q == r else 0}")
        total = total + p
    require(np.linalg.norm(total - np.eye(a1)) <= tol, "block projectors do not sum to 1 on A'")
    require(rho.shape == (a1 * b1, a1 * b1), f"rho has shape {rho.shape}")
    require(np.linalg.norm(rho - rho.conj().T) <= tol, "rho is not Hermitian")
    require(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -tol, "rho is not PSD")
    require(abs(np.trace(rho) - 1.0) <= tol, "rho does not have trace 1")

    vw = np.kron(v, w)
    tau_p = vw @ tau @ vw.conj().T
    phi = np.zeros(4, dtype=complex)
    phi[[0, 3]] = 1.0 / math.sqrt(2.0)
    phi4 = np.outer(phi, phi.conj()).reshape(2, 2, 2, 2)  # (A'', B'') rows, cols
    rho4 = rho.reshape(a1, b1, a1, b1)  # (A', B') rows, cols
    n = 4 * a1 * b1
    target = np.einsum("abcd,xyzw->axbyczdw", rho4, phi4).reshape(n, n)
    err = np.linalg.norm(tau_p - target)
    require(err <= tol, f"(V (x) W) tau (V (x) W)^* is off rho (x) Phi+ by {err:.3e}")

    eye_b = np.eye(2 * b1)
    for i, (u, c) in enumerate(zip(encoders, cs)):
        left = np.kron(np.kron(c.conj().T, np.eye(2)) @ u @ v.conj().T, eye_b)
        right = sum(np.kron(p, s @ PAULIS[i] @ s.conj().T) for p, s, _ in blocks)
        right = np.kron(right, eye_b)
        err = np.linalg.norm(left @ tau_p @ left.conj().T - right @ tau_p @ right.conj().T)
        require(err <= tol, f"encoder {i} relation off by {err:.3e} on tau'")


def _distinct(values: np.ndarray, tol: float) -> int:
    reps: list[complex] = []
    for x in values:
        if all(abs(x - r) > tol for r in reps):
            reps.append(x)
    return len(reps)


def check_certificates(elements, family: str, certs: list, tol: float = 1e-9) -> None:
    """Kinds match the family; every witness is re-derived from the basis."""
    d = elements[0].shape[0]
    n = len(elements)
    kinds = [c["kind"] for c in certs]
    require(len(set(kinds)) == len(kinds), f"repeated certificate kinds {kinds}")
    require(
        set(kinds) == EXPECTED_KINDS[family],
        f"{family}: kinds {sorted(kinds)}, expected {sorted(EXPECTED_KINDS[family])}",
    )
    for c in certs:
        wit, val = c["witness"], c["witness_value"]
        if c["kind"] == KIND_RATIO:
            i, j = wit
            require(0 <= i < j < n, f"ratio witness {wit} out of range")
            lam = np.linalg.eigvals(elements[i].conj().T @ elements[j])
            r = complex(val[0], val[1])
            gap = float(np.abs(np.divide.outer(lam, lam) - r).min())
            require(gap <= 1e-9, f"ratio {r} is no eigenvalue ratio of pair {wit} (off {gap:.2e})")
            require(abs(r**d - 1.0) > tol * d, f"ratio {r} is a {d}-th root of unity")
        elif c["kind"] == KIND_DISTINCT:
            i, j = wit
            require(0 <= i < j < n, f"distinct-count witness {wit} out of range")
            lam = np.linalg.eigvals(elements[i].conj().T @ elements[j])
            count = _distinct(lam, max(tol * 10, 1e-7))
            require(count == val and val < d, f"pair {wit} has {count} distinct eigenvalues, cert says {val}")
        else:
            zero, i, j = wit
            require(zero == 0 and 0 <= i < j < n, f"projective witness {wit} out of range")
            anchor = elements[0].conj().T
            gi, gj = elements[i] @ anchor, elements[j] @ anchor
            comm = gi @ gj @ gi.conj().T @ gj.conj().T
            defect = float(np.linalg.norm(comm - (np.trace(comm) / d) * np.eye(d)))
            require(abs(defect - val) <= 1e-9 * max(1.0, val), f"defect {defect!r} at {wit}, cert says {val!r}")
            require(defect > tol * d, f"defect {defect!r} at {wit} within tolerance")
