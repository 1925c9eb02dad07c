"""Command-line front end: every computation as reproducible table output.

One table, ``_COMMANDS``, lists each subcommand once with its help, its
handler and its size option (name, minimum, maximum, default); it builds
the parser and dispatches.  Each handler returns one table, written
as TSV (default) or JSON to stdout or to ``--output PATH``.  Output is
byte-identical across runs for identical arguments.  Exit codes: 0
success, 1 verification failures (``verify`` only), 2 usage error (a size
outside its range, an unreadable or malformed reference file, an
unwritable ``--output``), 3 internal consistency error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import __version__
from .asymptotics import asymptotic_report, max_ratio_degree
from .generators import beta_table, primitive_counts
from .mzv import DEPTH_DIAGONAL_CHECKED_MAX, CrossCheckError, mzv_counts
from .series import IndexOutOfRange, WeightMismatch
from .transforms import (
    NegativeExponent,
    NonIntegerExponent,
    NonUnitConstant,
    euler_expand,
)
from .verify import ReferenceFormatError, run_all

_INTERNAL_ERRORS = (
    CrossCheckError,
    IndexOutOfRange,
    NegativeExponent,
    NonIntegerExponent,
    NonUnitConstant,
    WeightMismatch,
)

Cell = int | float | str


@dataclass
class OutputTable:
    """A subcommand's table, its notes for stderr and its exit code; cells render by ``str``."""

    columns: list[str]
    rows: list[list[Cell]]
    notes: list[str] = field(default_factory=list)
    code: int = 0

    def to_tsv(self) -> str:
        lines = ["\t".join(self.columns)]
        for row in self.rows:
            lines.append("\t".join(map(str, row)))
        return "\n".join(lines) + "\n"

    def to_json(self, command: str) -> str:
        doc = {
            "columns": self.columns,
            "rows": self.rows,
            "meta": {"command": command, "version": __version__},
        }
        return json.dumps(doc) + "\n"


def _beta_handler(args) -> OutputTable:
    max_m = args.max_degree
    table = beta_table(max_m)
    max_u = 0 if max_m == 0 else max(2, max_m - (max_m % 2))
    columns = ["m"] + [f"u={u}" for u in range(0, max_u + 1, 2)]
    rows: list[list[Cell]] = [
        [m] + [table.entries.get((m, u), "") for u in range(0, max_u + 1, 2)]
        for m in range(max_m + 1)
    ]
    return OutputTable(columns, rows)


def _primitives_handler(args) -> OutputTable:
    counts = primitive_counts(args.max_degree)
    rows: list[list[Cell]] = [[m + 1, c] for m, c in enumerate(counts)]
    return OutputTable(["m", "P_m"], rows)


def _euler_handler(min_degree: int, column: str):
    """A handler for the Euler transform of the P_m from ``min_degree`` on."""

    def handler(args) -> OutputTable:
        max_m = args.max_degree
        exponents = {m + 1: p for m, p in enumerate(primitive_counts(max_m))}
        series = euler_expand(exponents, min_degree, max_m)
        rows: list[list[Cell]] = [[m, series[m]] for m in range(1, max_m + 1)]
        return OutputTable(["m", column], rows)

    return handler


def _mzv_handler(args) -> OutputTable:
    counts = mzv_counts(args.max_weight)
    euler_sums = args.euler_sums
    column = "M" if euler_sums else "D"
    lookup = counts.euler_count if euler_sums else counts.mzv_count
    rows: list[list[Cell]] = []
    for w, d in counts.grid():
        note = ""
        if not euler_sums and w == 3 * d and d > DEPTH_DIAGONAL_CHECKED_MAX:
            note = "extrapolated beyond checked range"
        rows.append([w, d, lookup(w, d), note])
    return OutputTable(["w", "d", column, "note"], rows)


def _asymptote_handler(args) -> OutputTable:
    report = asymptotic_report(args.max_degree)
    rows: list[list[Cell]] = [
        ["r", report.root],
        ["C", report.constant],
        ["abs(r^4-r^3-1)", report.quartic_residual],
        ["abs(1-1/r-1/r^4)", report.reciprocal_residual],
    ]
    for m, ratio in report.ratios:
        rows.append([f"P_{m}/r^{m}", ratio])
    return OutputTable(["quantity", "value"], rows)


def _verify_handler(args) -> OutputTable:
    report = run_all(args.data)
    rows: list[list[Cell]] = [[r.claim_id, r.status, r.expected, r.actual] for r in report.results]
    notes = report.notes + [f"{report.passed} passed, {report.failed} failed"]
    columns = ["claim", "status", "expected", "actual"]
    return OutputTable(columns, rows, notes, 0 if report.ok else 1)


# Subcommand -> (help, handler, size option, its minimum, its maximum, its
# default), in the order of the help page.  verify takes no size.  Each
# maximum but asymptote's keeps one run within about 2 s and 150 MB (the
# README lists the cost at each); asymptote's is the largest finite r**m.
_COMMANDS = {
    "beta": ("bigraded dimension grid", _beta_handler, "--max-degree", 0, 1000, 20),
    "primitives": ("primitive counts P_m", _primitives_handler, "--max-degree", 1, 20000, 20),
    "knots": ("knot invariant counts V_m", _euler_handler(2, "V_m"), "--max-degree", 1, 2000, 20),
    "framed": ("framed-knot invariant counts F_m", _euler_handler(1, "F_m"),
               "--max-degree", 1, 2000, 20),
    "mzv": ("irreducible counts by weight and depth", _mzv_handler, "--max-weight", 3, 300, 23),
    "asymptote": ("growth root, limit constant, ratios", _asymptote_handler,
                  "--max-degree", 2, max_ratio_degree(), 40),
    "verify": ("replay the reference data", _verify_handler, None, None, None, None),
}


def _size_in(minimum: int, maximum: int):
    """An argparse type: an integer size in [minimum, maximum]."""

    def size(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        if int(text) > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}")
        return int(text)

    return size


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("tsv", "json"), default="tsv", help="output format"
    )
    common.add_argument("--output", default=None, help="write to PATH instead of stdout")

    parser = argparse.ArgumentParser(
        prog="gfenum",
        description="exact generating-function tables for graded enumeration conjectures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, size, minimum, maximum, default) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        if size:
            p.add_argument(size, type=_size_in(minimum, maximum), default=default)
    sub.choices["mzv"].add_argument(
        "--euler-sums", action="store_true", help="tabulate Euler-sum counts"
    )
    sub.choices["verify"].add_argument(
        "--data", default=None, help="override the reference data file"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        table = args.handler(args)
        rendered = table.to_json(args.command) if args.format == "json" else table.to_tsv()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered)
    except _INTERNAL_ERRORS as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ReferenceFormatError) as exc:  # verify's --data or the --output file
        print(f"gfenum {args.command}: error: {exc}", file=sys.stderr)
        return 2
    if not args.output:
        sys.stdout.write(rendered)
    for note in table.notes:
        print(note, file=sys.stderr)
    return table.code


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
