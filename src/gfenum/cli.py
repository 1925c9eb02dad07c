"""Command-line front end: every computation as reproducible table output.

One table, ``_COMMANDS``, lists each subcommand once with its help, its
handler and its size option (name, minimum, maximum, default); it builds
the parser and dispatches.  Each handler returns one table, written
as TSV (default) or JSON to stdout or to ``--output PATH``.  Output is
byte-identical across runs for identical arguments.  Exit codes: 0
success, 1 verification failures (``verify`` only), 2 usage error (a size
outside its range, an unreadable or malformed reference file, an
unwritable ``--output``), 3 internal consistency error.

Each handler imports the modules it runs, so a subcommand loads only
those, and the error types are imported only once an exception reaches
``main``.
"""

from __future__ import annotations

import argparse
import re  # loaded by argparse already
import sys

from . import __version__
from .series import _Record

Cell = int | float | str


class OutputTable(_Record):
    """A subcommand's table, its notes for stderr and its exit code; cells render by ``str``."""

    _fields = ("columns", "rows", "notes", "code")

    def __init__(self, columns: list[str], rows: list[list[Cell]],
                 notes: list[str] | None = None, code: int = 0) -> None:
        super().__init__(columns, rows, [] if notes is None else notes, code)

    def to_tsv(self) -> str:
        lines = ["\t".join(self.columns)]
        for row in self.rows:
            lines.append("\t".join(map(str, row)))
        return "\n".join(lines) + "\n"

    def to_json(self, command: str) -> str:
        import json

        doc = {
            "columns": self.columns,
            "rows": self.rows,
            "meta": {"command": command, "version": __version__},
        }
        return json.dumps(doc) + "\n"


def _beta_handler(args) -> OutputTable:
    from .generators import beta_table

    table = beta_table(args.max_degree).rows  # table[m][u // 2] is beta(m, u)
    width = max(map(len, table))
    columns = ["m"] + [f"u={2 * i}" for i in range(width)]
    rows: list[list[Cell]] = [[m, *row] + [""] * (width - len(row)) for m, row in enumerate(table)]
    return OutputTable(columns, rows)


def _primitives_handler(args) -> OutputTable:
    from .generators import primitive_counts

    counts = primitive_counts(args.max_degree)
    rows: list[list[Cell]] = [[m + 1, c] for m, c in enumerate(counts)]
    return OutputTable(["m", "P_m"], rows)


def _euler_handler(min_degree: int, column: str):
    """A handler for the Euler transform of the P_m from ``min_degree`` on."""

    def handler(args) -> OutputTable:
        from .generators import primitive_counts
        from .transforms import euler_expand

        max_m = args.max_degree
        exponents = {m + 1: p for m, p in enumerate(primitive_counts(max_m))}
        series = euler_expand(exponents, min_degree, max_m)
        rows: list[list[Cell]] = [[m, c] for m, c in enumerate(series.coeffs[1:], 1)]
        return OutputTable(["m", column], rows)

    return handler


def _mzv_handler(args) -> OutputTable:
    from .mzv import DEPTH_DIAGONAL_CHECKED_MAX, mzv_counts

    counts = mzv_counts(args.max_weight)
    euler_sums = args.euler_sums
    column = "M" if euler_sums else "D"
    rows: list[list[Cell]] = []
    for (w, d), count in (counts.euler if euler_sums else counts.mzv).items():
        note = ""
        if not euler_sums and w == 3 * d and d > DEPTH_DIAGONAL_CHECKED_MAX:
            note = "extrapolated beyond checked range"
        rows.append([w, d, count, note])
    return OutputTable(["w", "d", column, "note"], rows)


def _asymptote_handler(args) -> OutputTable:
    from .asymptotics import asymptotic_report

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
    from .verify import run_all

    report = run_all(args.data)
    rows: list[list[Cell]] = [[r.claim_id, r.status, r.expected, r.actual] for r in report.results]
    notes = report.notes + [f"{report.passed} passed, {report.failed} failed"]
    columns = ["claim", "status", "expected", "actual"]
    return OutputTable(columns, rows, notes, 0 if report.ok else 1)


def _max_ratio_degree() -> int:
    from .asymptotics import max_ratio_degree

    return max_ratio_degree()


# Subcommand -> (help, handler, size option, its minimum, its maximum, its
# default), in the order of the help page.  verify takes no size.  Each
# maximum but asymptote's keeps one run within about 2 s and 150 MB (the
# README lists the cost at each); asymptote's is the largest finite r**m,
# read only when a size is parsed.
_COMMANDS = {
    "beta": ("bigraded dimension grid", _beta_handler, "--max-degree", 0, 1000, 20),
    "primitives": ("primitive counts P_m", _primitives_handler, "--max-degree", 1, 20000, 20),
    "knots": ("knot invariant counts V_m", _euler_handler(2, "V_m"), "--max-degree", 1, 2000, 20),
    "framed": ("framed-knot invariant counts F_m", _euler_handler(1, "F_m"),
               "--max-degree", 1, 2000, 20),
    "mzv": ("irreducible counts by weight and depth", _mzv_handler, "--max-weight", 3, 300, 23),
    "asymptote": ("growth root, limit constant, ratios", _asymptote_handler,
                  "--max-degree", 2, _max_ratio_degree, 40),
    "verify": ("replay the reference data", _verify_handler, None, None, None, None),
}


def _size_in(minimum: int, maximum):
    """An argparse type: an integer size in [minimum, maximum], a maximum int or its function.

    A size is written as the reference file writes an integer: ASCII digits with an optional
    minus sign, and nothing else.
    """

    def size(text: str) -> int:
        if not re.fullmatch(r"-?[0-9]+", text):
            raise ValueError(text)  # argparse reports it as an invalid size value
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        limit = maximum() if callable(maximum) else maximum
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be <= {limit}")
        return value

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


def _internal_errors() -> tuple[type[Exception], ...]:
    from .mzv import CrossCheckError
    from .series import IndexOutOfRange
    from .transforms import NegativeExponent, NonIntegerExponent, NonUnitConstant

    return (CrossCheckError, IndexOutOfRange, NegativeExponent, NonIntegerExponent,
            NonUnitConstant)


def _usage_errors() -> tuple[type[Exception], ...]:
    from .verify import ReferenceFormatError

    return (OSError, ReferenceFormatError)


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
    except _internal_errors() as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except _usage_errors() as exc:  # verify's --data or the --output file
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
