"""Command-line harness for reproducible experiments.

Subcommands: ``basis build|check|certify``, ``protocol
scramble|verify|canonicalize``, ``random run|mp``.  Data goes to files or
stdout, diagnostics to stderr.  Exit codes: 0 success, 1 verification
failure, 2 usage or parse error, a file that cannot be read or written, or
an array that cannot be allocated.
A fixed seed makes outputs byte-identical across runs of the same build at
the same BLAS thread count.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys

import numpy as np

from . import bases, randlab, rigidity, serialize
from . import protocol as protocol_mod


def tolerance(text: str) -> float:
    """argparse type of every --tol flag: a finite positive float."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text!r}")
    return value


def angle(text: str) -> float:
    """argparse type of --beta-angle: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle must be finite, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """argparse type of --points: a positive integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


# --kind's choices, in --help order, each with its builder
_BASIS_KINDS = {
    "clock-shift": lambda args: bases.clock_shift_basis(args.d),
    "pauli-tensor": lambda args: bases.pauli_tensor_basis(args.d),
    "matching": lambda args: bases.matching_basis(args.d),
    "werner3": lambda args: bases.werner3_basis(
        complex(math.cos(args.beta_angle), math.sin(args.beta_angle))
    ),
}


def _cmd_basis_build(args) -> int:
    serialize.save_basis(_BASIS_KINDS[args.kind](args), args.output)
    return 0


def _cmd_basis_check(args) -> int:
    basis = serialize.load_basis(args.input)
    report = bases.verify_orthogonal_unitary_basis(basis, args.tol)
    serialize.emit(report, args.output)
    return 0 if report.passed else 1


def _cmd_basis_certify(args) -> int:
    basis = serialize.load_basis(args.input)
    try:
        certs = bases.certify_not_clock_shift(basis, args.tol)
    except bases.InvalidBasisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    serialize.emit({"certificates": certs}, args.output)
    return 0


def _cmd_protocol_scramble(args) -> int:
    rng = np.random.default_rng(args.seed)
    proto, planted = protocol_mod.random_scrambled_bw(
        rng, args.dim_a_prime, args.dim_b_prime, args.blocks
    )
    serialize.save_protocol(proto, args.output)
    if args.planted:
        serialize.save_decomposition(planted, args.planted)
    return 0


def _cmd_protocol_verify(args) -> int:
    proto = serialize.load_protocol(args.input)
    report = protocol_mod.verify_errorless(proto, args.tol)
    serialize.emit(report, args.output)
    return 0 if report.passed else 1


def _cmd_protocol_canonicalize(args) -> int:
    proto = serialize.load_protocol(args.input)
    try:
        dec, report = rigidity.canonicalize(proto, args.tol)
    except rigidity.NiceFormError as exc:
        print(f"error: canonicalization failed: {exc}", file=sys.stderr)
        return 1
    if args.output:
        serialize.save_decomposition(dec, args.output)
    serialize.emit(report)
    return 0


def _cmd_random_run(args) -> int:
    for path in (args.output, args.esd_csv):  # fail before the trials, not after
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    for path in (args.esd_csv, args.output):  # in the order they are written
        if path and os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    stats = randlab.distinguishability_experiment(
        args.d, args.trials, args.seed, pgm_limit=args.pgm_limit
    )
    if args.esd_csv:
        serialize.save_eigenvalues_csv(stats.first_spectrum, args.esd_csv)
    doc = dict(vars(stats), limit_8_over_3pi=randlab.EIGHT_OVER_3PI)
    del doc["first_spectrum"]
    serialize.emit(doc, args.output)
    return 0


def _cmd_random_mp(args) -> int:
    params = randlab.MPParams(r=args.r)
    if args.esd_csv:
        eigenvalues = serialize.load_eigenvalues_csv(args.esd_csv)
        serialize.emit(
            {
                "r": args.r,
                "n": len(eigenvalues),
                "ks_distance": randlab.kolmogorov_distance(eigenvalues, params),
            },
            args.output,
        )
        return 0
    xs = np.linspace(0.0, params.b, args.points)
    lines = ["x,density,cdf"]
    for x, cdf in zip(xs, randlab.mp_cdf(params, xs)):
        lines.append(f"{float(x)!r},{randlab.mp_density(params, float(x))!r},{float(cdf)!r}")
    serialize.write_text("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the whole command tree; `main` keeps one of its own."""
    parser = argparse.ArgumentParser(
        prog="superdense",
        description="Workbench for superdense coding protocols and random-encoder experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    basis_p = sub.add_parser("basis", help="orthogonal unitary bases")
    basis_sub = basis_p.add_subparsers(dest="subcommand", required=True)

    build = basis_sub.add_parser("build", help="construct a basis and write it as JSON")
    build.add_argument("--kind", required=True, choices=list(_BASIS_KINDS))
    build.add_argument("--d", type=int, default=3, help="dimension (ignored for werner3)")
    build.add_argument(
        "--beta-angle",
        type=angle,
        default=math.pi / 3,
        help="werner3 phase angle in radians (default pi/3)",
    )
    build.add_argument("-o", "--output", default=None)
    build.set_defaults(func=_cmd_basis_build)

    check = basis_sub.add_parser("check", help="verify orthogonality and unitarity")
    check.add_argument("input")
    check.add_argument("--tol", type=tolerance, default=1e-9)
    check.add_argument("-o", "--output", default=None)
    check.set_defaults(func=_cmd_basis_check)

    certify = basis_sub.add_parser("certify", help="non-equivalence certificates")
    certify.add_argument("input")
    certify.add_argument("--tol", type=tolerance, default=1e-9)
    certify.add_argument("-o", "--output", default=None)
    certify.set_defaults(func=_cmd_basis_certify)

    proto_p = sub.add_parser("protocol", help="superdense coding protocols")
    proto_sub = proto_p.add_subparsers(dest="subcommand", required=True)

    scramble = proto_sub.add_parser("scramble", help="sample a scrambled qubit protocol")
    scramble.add_argument("--seed", type=int, default=0)
    scramble.add_argument("--dim-a-prime", type=int, default=2)
    scramble.add_argument("--dim-b-prime", type=int, default=2)
    scramble.add_argument("--blocks", type=int, default=1)
    scramble.add_argument("-o", "--output", required=True)
    scramble.add_argument("--planted", default=None, help="also write the planted decomposition")
    scramble.set_defaults(func=_cmd_protocol_scramble)

    verify = proto_sub.add_parser("verify", help="check errorless-ness")
    verify.add_argument("input")
    verify.add_argument("--tol", type=tolerance, default=1e-9)
    verify.add_argument("-o", "--output", default=None)
    verify.set_defaults(func=_cmd_protocol_verify)

    canon = proto_sub.add_parser("canonicalize", help="recover the canonical decomposition")
    canon.add_argument("input")
    canon.add_argument("--tol", type=tolerance, default=rigidity.DEFAULT_STAGE_TOL)
    canon.add_argument("-o", "--output", default=None)
    canon.set_defaults(func=_cmd_protocol_canonicalize)

    random_p = sub.add_parser("random", help="Haar-random encoder experiments")
    random_sub = random_p.add_subparsers(dest="subcommand", required=True)

    run = random_sub.add_parser("run", help="distinguishability statistics")
    run.add_argument("--d", type=int, default=8)
    run.add_argument("--trials", type=int, default=5)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--pgm-limit", type=int, default=16)
    run.add_argument("--esd-csv", default=None, help="write first-trial eigenvalues as CSV")
    run.add_argument("-o", "--output", default=None)
    run.set_defaults(func=_cmd_random_run)

    mp = random_sub.add_parser("mp", help="Marchenko-Pastur reference curve or KS distance")
    mp.add_argument("--r", type=float, default=1.0)
    mp.add_argument("--points", type=positive_int, default=201)
    mp.add_argument("--esd-csv", default=None, help="compare stored eigenvalues instead")
    mp.add_argument("-o", "--output", default=None)
    mp.set_defaults(func=_cmd_random_mp)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it found it, so main builds one per process
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # SerializationError, unreadable or unwritable files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an array too large to allocate, e.g. random run at large d
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
