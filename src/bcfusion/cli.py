"""Command-line front end: alcove/fusion queries, character tables, verification.

Exit codes: 0 success, 1 a verification suite failed, 2 usage or domain error,
3 internal error (a broken invariant of the package itself, or any other
unexpected exception such as MemoryError; KeyboardInterrupt still propagates).
A stdout or stderr whose reader has gone ends the output and keeps the code.
All numeric output is printed with 12 significant digits and JSON keys are
ordered, so reports are diff-stable.
"""
from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys

from .bmwdual import duality_passed, duality_report
from .errors import DomainError, WeightParseError
from .fusion import AlcoveParams, FusionTable, alcove_enumerate, fuse, fuse_matrix
from .qchar import QuantumParams, dim_mu_vector, positive_character
from .rootdata import Weight, make_root_datum
from .unitarity import audit, audit_grid
from .verify import DEFAULT_GRID, format_results, run_suite


# largest n^3 that `matrix` without --lhs prints: the JSON of 10**8 entries is
# about 200 MB and its int16 table 200 MB; B(4,21) has n^3 = 74,088,000
MATRIX_TABLE_CAP = 10 ** 8


def parse_weight(text: str) -> Weight:
    """Parse 'a,b,...' with integer or half-integer (n/2) entries."""
    doubled = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "/" in part:
                num, den = part.split("/")
                if int(den) != 2:
                    raise ValueError
                doubled.append(int(num))
            else:
                doubled.append(2 * int(part))
        except ValueError:
            raise WeightParseError(f"malformed weight entry {part!r} in {text!r}") from None
    if not doubled:
        raise WeightParseError("empty weight")
    w = Weight(tuple(doubled))
    if not w.has_uniform_parity:
        raise WeightParseError(f"{text!r} mixes integral and half-integral entries")
    return w


def parse_cell(text: str) -> tuple[int, int]:
    """Parse 'rank,ell' into a pair of integers."""
    try:
        rank, ell = map(int, text.split(","))
    except ValueError:
        raise ValueError(f"malformed cell {text!r}; expected rank,ell") from None
    return rank, ell


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _print(text: str, stream, lost=BrokenPipeError) -> None:
    """Print text to stream and flush it.  A write that fails with ``lost`` (by
    default, a reader that closed the pipe) ends the output: the stream's
    descriptor is pointed at os.devnull, so the flush at exit cannot fail."""
    try:
        print(text, file=stream, flush=True)
    except lost:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _emit(text: str, path: str | None) -> None:
    """Print text, or write it to path; a path that cannot be written is a usage error."""
    if not path:
        _print(text, sys.stdout)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise DomainError(f"cannot write --output {path}: {exc.strerror or exc}") from None


def _check_output(path: str) -> None:
    """Raise, before the command runs, the usage error ``_emit`` would raise for
    a path that is a directory or whose parent is not one.  Nothing is created
    or truncated; any other failure to write still surfaces in ``_emit``."""
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))  # ENOENT or ENOTDIR
    except OSError as exc:
        raise DomainError(f"cannot write --output {path}: {exc.strerror or exc}") from None


def _alcove_params(args) -> AlcoveParams:
    return AlcoveParams(make_root_datum(args.family, args.rank), args.ell)


def cmd_alcove(args) -> int:
    labels = alcove_enumerate(_alcove_params(args))
    if args.format == "json":
        payload = {"family": args.family, "rank": args.rank, "ell": args.ell,
                   "labels": [list(w.doubled) for w in labels]}
        _emit(json.dumps(payload, sort_keys=True), args.output)
    else:
        _emit("\n".join(str(w) for w in labels), args.output)
    return 0


def cmd_fuse(args) -> int:
    params = _alcove_params(args)
    items = fuse(params, parse_weight(args.lhs), parse_weight(args.rhs)).items()
    if args.format == "json":
        _emit(json.dumps({str(w): c for w, c in items}, sort_keys=True), args.output)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["nu", "coefficient"])
        writer.writerows((str(w), c) for w, c in items)
        _emit(buf.getvalue().rstrip("\n"), args.output)
    else:
        _emit("\n".join(f"{w}  {c}" for w, c in items), args.output)
    return 0


def cmd_matrix(args) -> int:
    params = _alcove_params(args)
    if args.lhs is None:
        n = len(alcove_enumerate(params))
        if n ** 3 > MATRIX_TABLE_CAP:
            raise DomainError(f"the whole table has n^3 = {n ** 3} entries at n = {n}, above "
                              f"the cap of {MATRIX_TABLE_CAP}; print one fusion matrix with --lhs")
        # whole table, in the byte-stable canonical serialization
        _emit(FusionTable.build(params).to_json(), args.output)
        return 0
    lam = parse_weight(args.lhs)
    labels = alcove_enumerate(params)
    M = fuse_matrix(params, lam)
    if args.format == "json":
        payload = {"family": args.family, "rank": args.rank, "ell": args.ell,
                   "labels": [list(w.doubled) for w in labels],
                   "lambda": list(lam.doubled), "N": M.tolist()}
        _emit(json.dumps(payload, sort_keys=True), args.output)
    else:
        rows = [" ".join(f"{int(x):2d}" for x in row) for row in M]
        _emit("\n".join(rows), args.output)
    return 0


def cmd_chars(args) -> int:
    params = _alcove_params(args)
    z = args.z if args.z is not None else 1
    dims = list(positive_character(params).values())
    labels = alcove_enumerate(params)
    spins = dim_mu_vector(QuantumParams(params, z), params.datum.spin_weight, labels).tolist()
    if args.format == "json":
        payload = {
            "family": "B", "rank": args.rank, "ell": args.ell, "z": z,
            "labels": [list(w.doubled) for w in labels],
            "Dim": [float(_fmt(x)) for x in dims],
            "dim_spin": [float(_fmt(x)) for x in spins],
        }
        _emit(json.dumps(payload, sort_keys=True), args.output)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter="\t" if args.format == "table" else ",",
                            lineterminator="\n")
        writer.writerow(["label", "Dim", f"dim_spin@z={z}"])
        writer.writerows([str(w), _fmt(d), _fmt(x)] for w, d, x in zip(labels, dims, spins))
        _emit(buf.getvalue().rstrip("\n"), args.output)
    return 0


def cmd_verify(args) -> int:
    cells = [(args.rank, args.ell)] if args.rank is not None else list(DEFAULT_GRID)
    all_ok = True
    chunks, payload = [], []
    for (k, ell) in cells:
        results = run_suite(k, ell)
        chunks.append(format_results(k, ell, results))
        payload.append({"rank": k, "ell": ell,
                        "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                                   for r in results]})
        all_ok = all_ok and all(r.ok for r in results)
    if args.format == "json":
        _emit(json.dumps(payload, sort_keys=True), args.output)
    else:
        _emit("\n".join(chunks), args.output)
    return 0 if all_ok else 1


def cmd_duality(args) -> int:
    report = duality_report(args.rank, args.ell)
    if args.format == "json":
        _emit(json.dumps(report, sort_keys=True), args.output)
    else:
        lines = [f"duality report k={report['k']} ell={report['ell']} (dual type C rank {report['r']})",
                 f"  |Gamma| = {report['gamma_size']}, |alcove| = {report['alcove_size']}",
                 f"  box graph == fusion graph under Psi: {report['homeq_ok']}",
                 f"  ranklevel: {report['ranklevel']}"]
        _emit("\n".join(lines), args.output)
    return 0 if duality_passed(report) else 1


def cmd_unitarity(args) -> int:
    if args.rank is not None:
        reports = [audit(args.rank, args.ell)]
    elif args.max_ell is None:
        reports = audit_grid()
    else:
        reports = audit_grid(max_ell=args.max_ell)
    if args.format == "json":
        _emit(json.dumps([r.to_json_dict() for r in reports], sort_keys=True), args.output)
    else:
        _emit("\n\n".join(r.format_table() for r in reports), args.output)
    return 0 if all(r.passed or not r.conclusive for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcfusion",
        description="Fusion rings of type B/C quantum groups at odd roots of unity.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, families=("B", "C"), formats=("json", "csv", "table")):
        p.add_argument("--family", choices=families, default="B")
        p.add_argument("--rank", type=int, required=True)
        p.add_argument("--ell", type=int, required=True)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")

    p = sub.add_parser("alcove", help="list the alcove labels")
    common(p, formats=("json", "table"))
    p.set_defaults(func=cmd_alcove)

    p = sub.add_parser("fuse", help="fusion product of two labels")
    common(p)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("matrix", help="fusion matrix of one label, or the whole table")
    common(p, formats=("json", "table"))
    p.add_argument("--lhs", default=None,
                   help="label; omit to dump the full table as JSON (up to n^3 = 10^8 entries)")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("chars", help="positive character and spin character at z")
    common(p, families=("B",))
    p.add_argument("--z", type=int, default=None)
    p.set_defaults(func=cmd_chars)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--family", choices=("B",), default="B")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("duality", help="Gamma/Psi/rank-level duality report")
    common(p, families=("B",), formats=("json", "table"))
    p.set_defaults(func=cmd_duality)

    p = sub.add_parser("unitarity", help="unitarity-failure audit")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--max-ell", type=int, default=None,
                   help="audit the grid of every ell <= this (default 25); not with --rank/--ell")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_unitarity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "z", None) is not None and args.command == "chars":
        if math.gcd(args.z, args.ell) != 1:
            parser.error(f"--z {args.z} is not coprime to ell={args.ell}")
    if args.command in ("verify", "unitarity") and (args.rank is None) != (args.ell is None):
        parser.error("--rank and --ell must be given together")
    if args.command == "unitarity" and args.max_ell is not None:
        if args.rank is not None:
            parser.error("--max-ell sets the grid; it cannot be combined with --rank/--ell")
        # the first conclusive cell, 2(2k+1) < ell at k = 2, is ell = 11
        if args.max_ell < 11:
            parser.error(f"--max-ell {args.max_ell} selects no conclusive cell; it must be >= 11")
    return run_checked(_run, args)


def _run(args) -> int:
    if args.output:
        _check_output(args.output)
    return args.func(args)


def run_checked(func, *args) -> int:
    """func(*args) as an exit code: a usage or domain error (any ValueError)
    prints one line and gives 2, any other exception gives 3.  The line is
    dropped if stderr cannot take it, so the code stays 2 or 3."""
    try:
        return func(*args)
    except ValueError as exc:
        _print(f"error: {exc}", sys.stderr, OSError)
        return 2
    except Exception as exc:  # never exit 1, which means "verification failed"
        _print(f"internal error: {type(exc).__name__}: {exc}", sys.stderr, OSError)
        return 3


if __name__ == "__main__":
    sys.exit(main())
