"""Benchmark of the three superdense CLI flows, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload random-small --seed 1 --seconds 20 --trace 0

Workloads: random-large, random-small, canonicalize, certify (see README.md).
The command starts set-up alone in fresh interpreters, then one workload
process (`workload.py`) that sets up again, drives `superdense.cli.main`
for `--seconds` and checks every output.  `setup_s` is the median of the
set-up times.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer ones with `--trace 1`.  A record of each run,
with provenance, goes to `perfbench/out/`; a traced run also writes its
spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("random-large", "random-small", "canonicalize", "certify")
# One BLAS thread in the workload process, set before numpy loads: with two
# OpenBLAS threads on a shared 2-core machine a d=32 operation used 1.8x its
# wall time in CPU and its times moved with other tenants' load.
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_ONLY_RUNS = 2  # plus the workload process itself: a median of three
SETUP_TIMEOUT_S = 20  # each; with the loop's margin below a run ends within 180 s


def start(argv: list[str], timeout: float):
    """Run workload.py to its end; return its set-up seconds and the lines after `ready`."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *argv],
        cwd=ROOT, env={**os.environ, **BLAS_ENV}, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise RuntimeError(f"workload process {argv} exited with {proc.returncode}")
    return float(lines[0].split()[1]) - t0, lines[1:]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "superdense" / "cli.py").is_file():
        print(f"error: no superdense package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [start(common + ["--setup-only"], SETUP_TIMEOUT_S)[0] for _ in range(SETUP_ONLY_RUNS)]
        argv = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            argv += ["--spans", str(OUT / f"{tag}.spans.json")]
        setup, lines = start(argv, args.seconds + 90)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    result = json.loads(lines[-1])
    record = result.pop("record")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    record.update(setup_samples_s=setups, correct=result["correct"],
                  attempted=result["attempted"], failed=result["failed"], metrics=result["metrics"])
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
