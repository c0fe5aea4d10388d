"""One workload process: set up, then drive `superdense.cli.main` in a closed loop.

Started by `run.py`, which times set-up from the moment it starts this
interpreter to the `ready` line printed here.  Set-up is importing
`superdense.cli` and writing the workload's input files.  With
`--setup-only` the process stops there.  Otherwise it runs whole passes
over the workload's inputs, one caller, until `--seconds` have passed,
checks every output with `checks.py`, and prints one JSON line: the run's
result plus a `record` of provenance and sample counts.

`run.py` starts this process with one BLAS thread in its environment
(`BLAS_THREADS`); the process refuses to run otherwise.

With `--trace 1` passes alternate between the package as it is and the
package with spans around its public functions (`spans.py`); the traced
passes give the per-layer figures and the untraced ones the overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import superdense  # noqa: E402
from superdense import bases, cli, protocol, randlab, serialize  # noqa: E402
from superdense import numkit as nk  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("random-large", "random-small", "canonicalize", "certify")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

NOISY_SEEDS = (0, 1, 2)  # (3,3,2) scrambles default_rng([5, s]) with noise default_rng([6, s])
NOISE = 1e-6
NOISY_TOL = 1e-5


@dataclass
class Op:
    argv: list[str]
    # True: acceptable outcome; False: the operation failed; raises
    # checks.CheckError when the program returned a wrong result.
    check: Callable[[int, str], bool]


@dataclass
class Workload:
    pass_size: int
    op: Callable[[int], Op]
    final_check: Callable[[], None] = lambda: None


def op_seed(seed: int, k: int) -> int:
    """Seed of operation k, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def random_workload(d: int, trials: int, seed: int, work: Path) -> Workload:
    csv, out, first = work / "esd.csv", work / "stats.json", work / "first.csv"

    def op(k: int) -> Op:
        def check(rc: int, _stderr: str) -> bool:
            if rc != 0:
                return False
            if k == 0:
                shutil.copyfile(csv, first)
            checks.check_random_run(d, trials, checks.read_eigenvalue_csv(csv), checks.read_json(out))
            return True

        argv = ["random", "run", "--d", str(d), "--trials", str(trials), "--seed",
                str(op_seed(seed, k)), "--esd-csv", str(csv), "-o", str(out)]
        return Op(argv, check)

    def final_check() -> None:
        # once per run, outside the timed loop: trial 0 of operation 0
        if not first.exists():
            return  # operation 0 failed, and is counted as failed
        ens = randlab.random_protocol_ensemble(d, np.random.default_rng([op_seed(seed, 0), 0]))
        checks.check_gram(checks.read_eigenvalue_csv(first), ens.states)

    return Workload(pass_size=1, op=op, final_check=final_check)


def scramble_configs(count: int = 30):
    """Criterion 4's sweep: dim A' in 1..6, blocks in 1..3, dim B' in 1..4."""
    out = []
    for s in range(count):
        a1 = s % 6 + 1
        blocks = min(s % 3 + 1, a1)
        out.append((a1, max(blocks, s % 4 + 1), blocks))
    return out


def noisy_protocol(s: int) -> protocol.Protocol:
    p, _ = protocol.random_scrambled_bw(np.random.default_rng([5, s]), 3, 3, 2)
    rng = np.random.default_rng([6, s])
    encoders = []
    for u in p.encoders:
        g = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
        encoders.append(nk.polar_decomposition(u + NOISE * g)[1])
    return protocol.Protocol(p.dim_a_prime, p.dim_a_dbl, p.dim_b, p.tau, tuple(encoders))


def canonicalize_workload(seed: int, work: Path) -> Workload:
    inputs = []  # (protocol, tol, noisy)
    for k, (a1, b1, blocks) in enumerate(scramble_configs()):
        p, _ = protocol.random_scrambled_bw(np.random.default_rng([seed, k]), a1, b1, blocks)
        inputs.append((p, None, False))
    inputs += [(noisy_protocol(s), NOISY_TOL, True) for s in NOISY_SEEDS]
    ops = []
    for k, (p, tol, noisy) in enumerate(inputs):
        path, dec_path = work / f"protocol{k:02d}.json", work / f"decomposition{k:02d}.json"
        serialize.save_protocol(p, str(path))
        argv = ["protocol", "canonicalize", str(path), "-o", str(dec_path)]
        if tol is not None:
            argv += ["--tol", repr(tol)]

        def check(rc: int, stderr: str, p=p, dec_path=dec_path, tol=tol, noisy=noisy) -> bool:
            if rc == 0:
                dec = checks.read_decomposition(str(dec_path))
                check_tol = 10 * (tol or 1e-8)
                checks.check_decomposition(p.tau, p.encoders, p.dim_a_prime, p.dim_b, dec, check_tol)
                return True
            # a noisy input may be rejected, but only with a typed NiceFormError
            return noisy and rc == 1 and "error: canonicalization failed: nice-form requirement" in stderr

        ops.append(Op(argv, check))
    return Workload(pass_size=len(ops), op=lambda k: ops[k % len(ops)])


def certify_battery():
    """Criterion 2's battery at 3 <= d <= 8.

    Thirteen bases, an odd count, so the median operation time falls inside
    a group of like operations.  With clock-shift 2 as well, half of every
    pass sat on each side of the gap between matching-5/clock-shift-5 and
    matching-6, and op_p50_s jumped across that gap from run to run.
    """
    out = [("clock-shift", bases.clock_shift_basis(d)) for d in range(3, 9)]
    out += [("matching", bases.matching_basis(d)) for d in range(5, 9)]
    out += [("pauli-tensor", bases.pauli_tensor_basis(d)) for d in (4, 8)]
    out.append(("werner3", bases.werner3_basis(complex(math.cos(math.pi / 3), math.sin(math.pi / 3)))))
    return out


def certify_workload(seed: int, work: Path) -> Workload:
    ops = []
    for k, (family, b) in enumerate(certify_battery()):
        rng = np.random.default_rng([seed, k])
        v, w = randlab.haar_unitary(b.d, rng), randlab.haar_unitary(b.d, rng)
        phases = np.exp(2j * np.pi * rng.random(len(b.elements)))
        moved = bases.apply_basis_equivalence(b, phases, v, w)
        path, out = work / f"basis{k:02d}.json", work / f"certificates{k:02d}.json"
        serialize.save_basis(moved, str(path))

        def check(rc: int, _stderr: str, elements=moved.elements, family=family, out=out) -> bool:
            if rc != 0:
                return False
            checks.check_certificates(elements, family, checks.read_json(str(out))["certificates"])
            return True

        ops.append(Op(["basis", "certify", str(path), "-o", str(out)], check))
    return Workload(pass_size=len(ops), op=lambda k: ops[k % len(ops)])


def make_workload(name: str, seed: int, work: Path) -> Workload:
    if name == "random-large":
        return random_workload(32, 1, seed, work)
    if name == "random-small":
        return random_workload(8, 40, seed, work)
    if name == "canonicalize":
        return canonicalize_workload(seed, work)
    return certify_workload(seed, work)


def run_loop(wl: Workload, seconds: float, tracer: spans.Tracer | None):
    """Whole passes until `seconds` have passed; with a tracer, odd passes are traced."""
    times, traced_times, untraced_times = [], [], []
    failures: dict[str, int] = {}
    correct, k, passes = True, 0, 0
    start = time.monotonic()
    cpu0 = time.process_time()
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        for _ in range(wl.pass_size):
            op = wl.op(k)
            if tracer is not None:
                tracer.op = k
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc, cause = cli.main(op.argv), None
                except Exception as exc:  # an escaped exception is a failed operation
                    rc, cause = None, type(exc).__name__
                dt = time.perf_counter() - t0
            times.append(dt)
            (traced_times if traced else untraced_times).append(dt)
            if rc is not None:
                try:
                    ok = op.check(rc, err.getvalue())
                except checks.CheckError as exc:
                    print(f"check failed on operation {k} {op.argv}: {exc}", file=sys.stderr)
                    correct, ok = False, True
                cause = None if ok else f"exit {rc}"
            if cause is not None:
                failures[cause] = failures.get(cause, 0) + 1
            k += 1
        if traced:
            tracer.uninstall()
        passes += 1
        if time.monotonic() - start >= seconds and (tracer is None or passes >= 2):
            break
    loop = {"wall_s": time.monotonic() - start, "cpu_s": time.process_time() - cpu0, "passes": passes}
    return times, traced_times, untraced_times, failures, correct, loop


def tail(times: list[float]):
    """Highest percentile with at least ten samples beyond it, and that percentile.

    Below 40 samples there is no tail to speak of: (None, None).
    """
    n = len(times)
    if n < 40:
        return None, None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def provenance(name: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "superdense": superdense.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args()
    if any(os.environ.get(var) != "1" for var in BLAS_THREADS):
        print(f"error: start with {', '.join(BLAS_THREADS)} set to 1 (run.py does)", file=sys.stderr)
        return 2

    work = ROOT / "perfbench" / "out" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = make_workload(args.workload, args.seed, work)
        print(f"ready {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0
        tracer = spans.Tracer() if args.trace else None
        times, traced_t, untraced_t, failures, correct, loop = run_loop(wl, args.seconds, tracer)
        try:
            wl.final_check()
        except checks.CheckError as exc:
            print(f"final check failed: {exc}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(times), sum(failures.values())
    record = provenance(args.workload, args.seed)
    record.update(loop=loop, ops_per_pass=wl.pass_size, failures=failures)
    if tracer is None:
        tail_s, pct = tail(times)
        record.update(tail_s=tail_s, tail_percentile=pct, samples=attempted, op_times_s=times)
        metrics = {
            "ops_per_s": ((attempted - failed) / sum(times), "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        n = len(traced_t)
        totals = tracer.layer_totals()
        metrics = spans.layer_metrics(totals, n)
        untraced = statistics.fmean(untraced_t)
        metrics["trace.untraced_op_s"] = (untraced, "s")
        metrics["trace.self_sum_s"] = (sum(t[0] for t in totals.values()) / n, "s")
        metrics["trace.ops_per_s_ratio"] = (untraced / statistics.fmean(traced_t), "ratio")
        record.update(traced_ops=n, untraced_ops=len(untraced_t), spans=len(tracer.spans))
        if args.spans:
            tracer.write(args.spans)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": record,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
