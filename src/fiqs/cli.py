"""Command line interface.

Subcommands: enumerate (record export), invariants (one record),
classify (normal form + series of a raw third row), count (census table,
optional plot data file) and verify (claim report).  A third row's length
gives its rho: 4, 5 or 6 entries for rho 1, 2 or 3.

Exit codes: 0 on success, 1 on usage or input errors, 2 when verification
fails.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import nullcontext

from .canon import NormalFormError, RawMatrix, canonicalize, classify
from .census import _key_from_fields, _read_int, count, export_records, record_to_json_line
from .invariants import record_from_matrix, surface_record
from .series import SERIES_TAGS, SeriesKey, _check_index, _check_rho
from .verify import verify_claims


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# A plain decimal integer: no sign but '-', no '_' separators, ASCII digits only.
_DECIMAL = re.compile(r"-?[0-9]+")


def _parse_third_row(text: str) -> RawMatrix:
    """The raw matrix of a third row, its rho read from the row's length."""
    parts = [p.strip() for p in text.split(",")]
    for i, part in enumerate(parts, 1):
        if not _DECIMAL.fullmatch(part):
            raise ValueError(f"matrix entry {i} must be a decimal integer, got {part!r}")
    if not 4 <= len(parts) <= 6:
        raise ValueError(f"a third row has 4, 5 or 6 entries (rho 1, 2 or 3), got {len(parts)}")
    return RawMatrix(len(parts) - 3, tuple(_read_int(f"matrix entry {i}", part) for i, part in enumerate(parts, 1)))


def _parse_eta(text: str) -> SeriesKey:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) < 4:
        raise ValueError("eta needs at least RHO,SERIES,IOTA+,IOTA-")
    for name, part in zip(("rho", "series", "iota_plus", "iota_minus", "c", "d"), parts):
        if name != "series" and not _DECIMAL.fullmatch(part):
            raise ValueError(f"field {name!r} must be a decimal integer, got {part!r}")
    rho = _read_int("field 'rho'", parts[0])
    _check_rho(rho)
    if len(parts) != rho + 3:
        raise ValueError(f"eta for rho={rho} needs {rho + 3} fields, got {len(parts)}")
    return _key_from_fields(rho, parts[1].lower(), *parts[2:], *[None] * (3 - rho))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fiqs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="export surface records")
    p_enum.add_argument("--rho", type=int, choices=(1, 2, 3), required=True)
    group = p_enum.add_mutually_exclusive_group(required=True)
    group.add_argument("--iota", type=int, help="a single Gorenstein index")
    group.add_argument("--iota-max", type=int, help="all Gorenstein indices up to this")
    p_enum.add_argument("--series", choices=SERIES_TAGS)
    p_enum.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p_enum.add_argument("--out", help="output path (default: stdout)")

    p_inv = sub.add_parser("invariants", help="full invariant record of one surface")
    group = p_inv.add_mutually_exclusive_group(required=True)
    group.add_argument("--eta", help="RHO,SERIES,IOTA+,IOTA-[,C[,D]]")
    group.add_argument("--matrix", help="comma-separated third row; its length gives rho")

    p_cls = sub.add_parser("classify", help="canonicalize a raw third row and name its series")
    p_cls.add_argument("--matrix", required=True, help="comma-separated third row; its length gives rho")

    p_count = sub.add_parser("count", help="census table per Gorenstein index")
    p_count.add_argument("--rho", type=int, choices=(1, 2, 3), required=True)
    p_count.add_argument("--iota-max", type=int, required=True)
    p_count.add_argument("--plot-data", help="also write 'iota cumulative' lines to this path")

    p_verify = sub.add_parser("verify", help="re-check the census totals and oracle suites")
    p_verify.add_argument("--iota-max", type=int, required=True)

    return parser


def _cmd_enumerate(args) -> int:
    name, bound = ("iota_max", args.iota_max) if args.iota is None else ("iota", args.iota)
    _check_index(name, bound)  # before --out is opened
    ctx = open(args.out, "w", encoding="ascii") if args.out else nullcontext(sys.stdout)
    with ctx as sink:
        n = export_records(
            args.rho,
            args.iota_max or 0,
            args.format,
            sink,
            iota=args.iota,
            series=args.series,
        )
    print(f"{n} records", file=sys.stderr)
    return 0


def _cmd_invariants(args) -> int:
    if args.eta is not None:
        rec = surface_record(_parse_eta(args.eta))
    else:
        rec = record_from_matrix(canonicalize(_parse_third_row(args.matrix)))
    print(record_to_json_line(rec))
    return 0


def _cmd_classify(args) -> int:
    m = canonicalize(_parse_third_row(args.matrix))
    key = classify(m)
    eta = ",".join(str(x) for x in key.eta())
    print(
        f"series={key.series.tag} rho={key.rho} eta=({eta}) iota={key.iota} "
        f"matrix={','.join(str(x) for x in m.third_row())}"
    )
    return 0


def _cmd_count(args) -> int:
    table = count(args.rho, args.iota_max)
    ctx = open(args.plot_data, "w", encoding="ascii") if args.plot_data else nullcontext()
    with ctx as plot:  # opened before the table is written, so a bad path writes nothing
        sys.stdout.write("# iota exact cumulative ke ke_cumulative\n")
        sys.stdout.write(table.to_text())
        if plot is not None:
            plot.write(table.to_plot_text())
    return 0


def _cmd_verify(args) -> int:
    report = verify_claims(args.iota_max)
    sys.stdout.write(report.to_text())
    return 0 if report.ok else 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "enumerate": _cmd_enumerate,
        "invariants": _cmd_invariants,
        "classify": _cmd_classify,
        "count": _cmd_count,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, NormalFormError, OSError) as exc:
        print(f"fiqs: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
