"""Command-line interface.

Subcommands: certify, verify, rank-table, sweep, validate-sff.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import product

from . import pipeline, sff
from .certificate import format_certificate, save_certificate
from .field import PrimeModulus
from .pipeline import DEFAULT_PRIME, DEFAULT_RETRIES, DEFAULT_SWEEP_CAP
from .poly import contract


def _u64(raw: str) -> int:
    value = int(raw)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chowcert",
        description=(
            "Generate and verify replayable rank certificates for the "
            "uniqueness of cubic decompositions into products of linear forms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run one randomized check and record it")
    p.add_argument("--n", type=int, required=True, help="number of variables minus 1")
    p.add_argument(
        "--r",
        type=int,
        default=None,
        help="number of points (default: generic rank minus 1)",
    )
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=_u64, default=None, help="64-bit replay seed")
    p.add_argument("--retries", type=int, default=DEFAULT_RETRIES)
    p.add_argument("--out", required=True, help="certificate file to write")

    p = sub.add_parser("verify", help="re-run a certificate's recorded data")
    p.add_argument("file", help="certificate file")

    p = sub.add_parser("rank-table", help="dimension bookkeeping per n")
    p.add_argument("--min", type=int, required=True, dest="n_min")
    p.add_argument("--max", type=int, required=True, dest="n_max")

    p = sub.add_parser("sweep", help="certify r_gen - 1 over a range of n")
    p.add_argument("--min", type=int, required=True, dest="n_min")
    p.add_argument("--max", type=int, required=True, dest="n_max")
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=_u64, default=None)
    p.add_argument("--csv", required=True, help="output CSV file")
    p.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_SWEEP_CAP,
        help="refuse ranges beyond this n unless raised",
    )
    p.add_argument("--retries", type=int, default=DEFAULT_RETRIES)

    p = sub.add_parser(
        "validate-sff", help="check the closed-form curvature tables at (d, n)"
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    return parser


def _unwritable(path) -> str | None:
    """Why `path` cannot be opened for writing, or None.

    Checked before any computing, so that a long run does not end in an
    output it cannot write.  Opens the file for appending, which changes
    nothing in a file that exists; one that did not exist is removed
    again.
    """
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        return f"cannot write {path}: {exc.strerror or exc}"
    if not existed:
        os.remove(path)
    return None


def _cmd_certify(args) -> int:
    problem = _unwritable(args.out)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    try:
        cert = pipeline.certify(
            args.n,
            args.r,
            args.prime,
            args.seed,
            retries=args.retries,
        )
    except (ValueError, pipeline.GenericityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save_certificate(cert, args.out)
    print(format_certificate(cert), end="")
    if cert.verdict and cert.r > 1:
        print(f"(implies not-k-TWD for every k <= {cert.r})")
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    report = pipeline.verify(args.file)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_rank_table(args) -> int:
    try:
        rows = pipeline.rank_table(args.n_min, args.n_max)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header = f"{'n':>4} {'dim':>9} {'cone':>5} {'r_gen':>6} {'r_id<=':>7} {'perfect':>8}"
    print(header)
    for row in rows:
        print(
            f"{row.n:>4} {row.dim_ambient:>9} {row.cone_dim:>5} {row.r_gen:>6} "
            f"{row.r_identifiable_bound:>7} {'yes' if row.perfect else '':>8}"
        )
    return 0


def _cmd_sweep(args) -> int:
    def progress(row):
        print(
            f"n={row.n:>3} r={row.r:>4} tangent {row.tangent_rank:>6} "
            f"hessian {row.hessian_rank if row.hessian_rank is not None else '-':>4} "
            f"{'TRUE' if row.verdict else 'FALSE'} {row.seconds:8.3f}s "
            f"(total {row.cumulative_seconds:8.3f}s)"
        )

    problem = _unwritable(args.csv)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    try:
        rows = pipeline.sweep(
            args.n_min,
            args.n_max,
            args.prime,
            args.seed,
            csv_path=args.csv,
            cap=args.cap,
            retries=args.retries,
            progress=progress,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [row.n for row in rows if not row.verdict]
    print(f"wrote {args.csv}")
    if failures:
        print(f"FAILED cases: n in {failures}", file=sys.stderr)
        return 1
    print(f"all {len(rows)} cases TRUE")
    return 0


def _cmd_validate_sff(args) -> int:
    d, n = args.d, args.n
    try:
        modulus = PrimeModulus(DEFAULT_PRIME)
        counts = {label: 0 for label in sff.CASE_LABELS}
        bad = 0
        for k, l, i, j in product(range(d), range(d), range(n + 1), range(n + 1)):
            case = sff.classify_component(d, n, k, i, l, j, modulus)
            computed = sff.sff_component(d, n, k, i, l, j, modulus)
            counts[case.label] += 1
            if computed != case.predicted:
                bad += 1
        normal = sff.special_normal_form(d, n, modulus)
        table_ok = True
        for k, l, i, j in product(range(d), range(d), range(n + 1), range(n + 1)):
            lhs = contract(sff.sff_component(d, n, k, i, l, j, modulus), normal).value
            if lhs != sff.contraction_value(d, k, i, l, j):
                table_ok = False
        report = sff.gh_check(sff.gh_build(d, n, modulus))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"component projections at d={d}, n={n} (per case):")
    for label in sff.CASE_LABELS:
        print(f"  {label:>14}: {counts[label]:>6} tuples")
    print(f"  projection vs closed form: {'PASS' if bad == 0 else f'FAIL ({bad})'}")
    print("  normal form normality:     PASS")
    print(f"  contraction 0/1 table:     {'PASS' if table_ok else 'FAIL'}")
    print(
        f"  assembled block diagonal:  {'PASS' if report.assembly_ok else 'FAIL'}"
    )
    print(
        f"  G: order {report.g_order}, rank {report.g_rank}, "
        f"(G-{d - 2}I)(G+I)=0 {'PASS' if report.g_annihilated else 'FAIL'}"
    )
    print(
        f"  H: order {report.h_order}, rank {report.h_rank}, "
        f"(H-{d - 1}I)(H+I)=0 {'PASS' if report.h_annihilated else 'FAIL'}"
    )
    ok = bad == 0 and table_ok and report.ok
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


_COMMANDS = {
    "certify": _cmd_certify,
    "verify": _cmd_verify,
    "rank-table": _cmd_rank_table,
    "sweep": _cmd_sweep,
    "validate-sff": _cmd_validate_sff,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
