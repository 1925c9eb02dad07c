"""Reference-data replay: every tabulated value checked against the engine.

The reference set lives in a plain text file (UTF-8, one claim per line,
tab-separated fields ``id  location  kind  payload``, ``#`` comments) so
it can be audited independently of the code.  Claim kinds:

  exact_value       payload is one integer, compared for equality
  saturated_bound   a published lower bound asserted to be attained exactly
  lower_bound       computed value must be >= the payload integer
  sequence          payload is comma-separated integers, compared elementwise
  decimal_constant  payload is ``value,tolerance``, compared within tolerance

The three integer kinds compare an int value, ``sequence`` a list and
``decimal_constant`` a float; a claim whose kind does not fit its value
fails as malformed.

Every integer is written ``-?[0-9]+``: no empty field, space, ``+`` or ``_``.

Claim ids are structured (``table1:m05:u02``, ``seq:P``, ``tally:m16``,
``mzv:D:w23:d07``, ``const:r``, ``identity:...``).  One ordered table maps
each id pattern to an evaluator over the library's cached tables, which
reach degree 20 and weight 36 (the engine horizon).  Failures become
report entries, never exceptions: an unknown id or identity name, a
payload that does not parse or fit its claim, and a claim past the
horizon each fail only their own claim.
"""

from __future__ import annotations

import os
import re
from importlib.resources import files
from math import isfinite
from pathlib import Path

from .asymptotics import growth_constant, growth_root
from .generators import (
    beta_table,
    floor_formula_col0,
    floor_formula_diag1,
    floor_formula_diag2,
    p_closed,
    p_from_b,
    primitive_counts,
)
from .mzv import DEPTH_DIAGONAL_CHECKED_MAX, build_mzv_rhs, mzv_counts
from .series import IndexOutOfRange, _Frozen, _Record
from .transforms import euler_expand

# Claim kind -> the type of engine value it compares; any other value fails the claim
KINDS = {
    "exact_value": int,
    "lower_bound": int,
    "saturated_bound": int,
    "sequence": list,
    "decimal_constant": float,
}

_MAX_DEGREE = 20
_MZV_WEIGHT = 36
_DUAL_ROUTE_DEGREE = 40


class ReferenceFormatError(ValueError):
    """A reference file that is not UTF-8 or holds no claim, or a malformed claim line."""


class ReferenceEntry(_Frozen):
    _fields = ("claim_id", "location", "kind", "payload")


class ClaimResult(_Frozen):
    _fields = ("claim_id", "ok", "expected", "actual")

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"


class VerificationReport(_Record):
    _fields = ("results", "notes")

    def __init__(self, results: list[ClaimResult], notes: list[str] | None = None) -> None:
        super().__init__(results, [] if notes is None else notes)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def default_data_path():
    return files("gfenum").joinpath("data/reference.tsv")


def resolve_data_path(data_path: str | os.PathLike | None = None):
    """Explicit argument, then the GFENUM_DATA variable, then the packaged file."""
    if data_path is not None:
        return Path(data_path)
    env = os.environ.get("GFENUM_DATA")
    if env:
        return Path(env)
    return default_data_path()


def load_reference(path) -> list[ReferenceEntry]:
    try:
        text = path.read_text(encoding="utf-8-sig")  # a leading BOM is not part of line 1
    except UnicodeDecodeError as exc:
        raise ReferenceFormatError(f"{path}: not UTF-8: {exc}") from exc
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = raw.split("\t")  # before trimming, so an empty first or last field counts
        if len(fields) != 4:
            raise ReferenceFormatError(f"{path}: line {lineno}: expected 4 tab-separated fields")
        claim_id, location, kind, payload = fields
        claim_id, payload = claim_id.lstrip(), payload.rstrip()
        if kind not in KINDS:
            raise ReferenceFormatError(f"{path}: line {lineno}: unknown claim kind {kind!r}")
        entries.append(ReferenceEntry(claim_id, location, kind, payload))
    if not entries:  # an empty or comments-only file would pass vacuously
        raise ReferenceFormatError(f"{path}: no claims")
    return entries


def _invariants(min_degree: int) -> list[int]:
    """V_m (min_degree 2) or F_m (min_degree 1) for m = 1 .. _MAX_DEGREE, from P_m."""
    exponents = {m + 1: p for m, p in enumerate(primitive_counts(_MAX_DEGREE))}
    return list(euler_expand(exponents, min_degree, _MAX_DEGREE).coeffs[1:])


def _index(digits: str) -> int:
    """A claim-id index; past 18 significant digits it is past every table (and maybe int())."""
    significant = digits.lstrip("0")
    if len(significant) > 18:
        raise IndexOutOfRange(f"an index of {len(significant)} digits lies past every table")
    return int(significant or "0")


def _beta(m: int, u: int) -> int:
    return beta_table(_MAX_DEGREE).get(m, u)


def _zeta(w: int, d: int) -> int:
    return mzv_counts(_MZV_WEIGHT).mzv_count(w, d)


def _euler_sum(w: int, d: int) -> int:
    return mzv_counts(_MZV_WEIGHT).euler_count(w, d)


def _framed_minus_knots() -> bool:
    v, f = _invariants(2), _invariants(1)
    return all(v[m] == f[m] - f[m - 1] for m in range(1, _MAX_DEGREE))


# Identity name -> predicate over the engine's tables
_IDENTITIES = {
    "dual-route-primitives": lambda: p_from_b(_DUAL_ROUTE_DEGREE) == p_closed(_DUAL_ROUTE_DEGREE),
    "framed-minus-knots": _framed_minus_knots,
    "col0-col2-shift": lambda: all(_beta(m, 0) == _beta(m + 1, 2) for m in range(2, _MAX_DEGREE)),
    "floor-diag1": lambda: all(
        _beta(2 * j + 1, 2 * j) == floor_formula_diag1(j)
        for j in range((_MAX_DEGREE - 1) // 2 + 1)
    ),
    "floor-diag2": lambda: all(
        _beta(2 * j + 2, 2 * j) == floor_formula_diag2(j)
        for j in range((_MAX_DEGREE - 2) // 2 + 1)
    ),
    "floor-col0": lambda: all(
        _beta(m, 0) == floor_formula_col0(m) for m in range(_MAX_DEGREE + 1)
    ),
}

# Claim-id pattern -> evaluator of the engine's value (an int, a list of ints
# or a float), called with the pattern's groups; the first full match wins,
# and \d matches ASCII digits only.
# Each evaluator looks the library's cached entry points up when it runs.
_CLAIMS = (
    (r"table1:m(\d+):u(\d+)", lambda m, u: _beta(_index(m), _index(u))),
    (r"seq:P", lambda: primitive_counts(_MAX_DEGREE)),
    (r"seq:V", lambda: _invariants(2)),
    (r"seq:F", lambda: _invariants(1)),
    (r"tally:m(\d+)", lambda m: beta_table(_MAX_DEGREE).tally_terms(_index(m))),
    (r"mzv:D:w(\d+):d(\d+)", lambda w, d: _zeta(_index(w), _index(d))),
    (r"mzv:M:w(\d+):d(\d+)", lambda w, d: _euler_sum(_index(w), _index(d))),
    (r"mzv:depth1", lambda: [_zeta(w, 1) for w in range(3, 22, 2)]),
    (r"mzv:depth2", lambda: [_zeta(8 + 2 * j, 2) for j in range((_MZV_WEIGHT - 8) // 2 + 1)]),
    (r"mzv:d3d", lambda: [_zeta(3 * d, d) for d in range(1, DEPTH_DIAGONAL_CHECKED_MAX + 1)]),
    (r"mzv:x0slice", lambda: list(build_mzv_rhs(_MZV_WEIGHT).coeffs[0])),
    (r"const:r", lambda: growth_root()),
    (r"const:C", lambda: growth_constant()),
    (rf"identity:({'|'.join(_IDENTITIES)})", lambda name: int(_IDENTITIES[name]())),
)


def _parse_int(text: str) -> int:
    """An ASCII decimal integer with an optional minus sign, and nothing else."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _compare(kind: str, payload: str, actual: int | list[int] | float) -> tuple[bool, str]:
    """Whether the engine's value meets the claim, and the claim's value as reported.

    A payload that does not parse, or a kind that does not take the value's
    type, raises TypeError or ValueError.
    """
    if not isinstance(actual, KINDS[kind]):
        raise TypeError(f"{kind} does not take the engine's {type(actual).__name__} value")
    if kind == "sequence":
        expected = [_parse_int(x) for x in payload.split(",")]
        return expected == actual, ",".join(map(str, expected))
    if kind == "decimal_constant":
        value_text, tol_text = payload.split(",")
        value, tol = float(value_text), float(tol_text)
        if not (isfinite(value) and isfinite(tol) and tol >= 0):
            raise ValueError(f"need a finite value and tolerance >= 0, got {payload!r}")
        return abs(actual - value) <= tol, value_text
    bound = _parse_int(payload)
    return (actual >= bound if kind == "lower_bound" else actual == bound), str(bound)


def _evaluate(entry: ReferenceEntry) -> ClaimResult:
    for pattern, evaluator in _CLAIMS:
        match = re.fullmatch(pattern, entry.claim_id, re.ASCII)
        if match:
            break
    else:
        return ClaimResult(entry.claim_id, False, entry.payload, "unrecognized claim id")
    try:
        actual = evaluator(*match.groups())
    except IndexOutOfRange as exc:  # a claim past the tables computed here
        actual_text = f"outside the engine horizon: {exc}"
        return ClaimResult(entry.claim_id, False, entry.payload, actual_text)

    try:  # a payload that does not parse, or does not fit the claim's value, fails it
        ok, expected = _compare(entry.kind, entry.payload, actual)
    except (TypeError, ValueError) as exc:
        return ClaimResult(entry.claim_id, False, entry.payload, f"malformed claim: {exc}")
    actual_text = ",".join(map(str, actual)) if isinstance(actual, list) else str(actual)
    return ClaimResult(entry.claim_id, ok, expected, actual_text)


_PREDICTED_CELLS = ((15, 10), (16, 12), (19, 16))  # grid cells no independent check reaches
_EXTENSION_NOTE = (
    f"depth-diagonal counts at depth > {DEPTH_DIAGONAL_CHECKED_MAX}"
    " extend the generator beyond its checked range"
)


def run_all(data_path: str | os.PathLike | None = None) -> VerificationReport:
    """Evaluate every reference claim; the report is ordered by claim id."""
    entries = load_reference(resolve_data_path(data_path))
    results = [_evaluate(entry) for entry in entries]
    results.sort(key=lambda r: r.claim_id)
    predicted = ", ".join(f"beta({m},{u})={_beta(m, u)}" for m, u in _PREDICTED_CELLS)
    prediction_note = f"predictions with no independent check: {predicted}"
    return VerificationReport(results, notes=[prediction_note, _EXTENSION_NOTE])
