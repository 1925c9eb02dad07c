"""Reference-data replay: every tabulated value checked against the engine.

The reference set lives in a plain text file (UTF-8, one claim per line,
tab-separated fields ``id  location  kind  payload``, ``#`` comments) so
it can be audited independently of the code.  Claim kinds:

  exact_value       payload is one integer, compared for equality
  saturated_bound   a published lower bound asserted to be attained exactly
  lower_bound       computed value must be >= the payload integer
  sequence          payload is comma-separated integers, compared elementwise
  decimal_constant  payload is ``value,tolerance``, compared within tolerance

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
from dataclasses import dataclass, field
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
from .series import IndexOutOfRange
from .transforms import euler_expand

KINDS = ("exact_value", "lower_bound", "saturated_bound", "sequence", "decimal_constant")

_MAX_DEGREE = 20
_MZV_WEIGHT = 36
_DUAL_ROUTE_DEGREE = 40


class ReferenceFormatError(ValueError):
    """A reference file that is not UTF-8, or a line that is not a well-formed claim."""


@dataclass(frozen=True)
class ReferenceEntry:
    claim_id: str
    location: str
    kind: str
    payload: str


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    ok: bool
    expected: str
    actual: str

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"


@dataclass
class VerificationReport:
    results: list[ClaimResult]
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def failing_ids(self) -> list[str]:
        return [r.claim_id for r in self.results if not r.ok]


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
        fields = line.split("\t")
        if len(fields) != 4:
            raise ReferenceFormatError(f"{path}: line {lineno}: expected 4 tab-separated fields")
        claim_id, location, kind, payload = fields
        if kind not in KINDS:
            raise ReferenceFormatError(f"{path}: line {lineno}: unknown claim kind {kind!r}")
        entries.append(ReferenceEntry(claim_id, location, kind, payload))
    return entries


def _invariants(min_degree: int) -> list[int]:
    """V_m (min_degree 2) or F_m (min_degree 1) for m = 1 .. _MAX_DEGREE, from P_m."""
    exponents = {m + 1: p for m, p in enumerate(primitive_counts(_MAX_DEGREE))}
    return list(euler_expand(exponents, min_degree, _MAX_DEGREE).coeffs[1:])


def _beta(m: int, u: int) -> int:
    return beta_table(_MAX_DEGREE).get(m, u)


def _zeta(w: int, d: int) -> int:
    return mzv_counts(_MZV_WEIGHT).mzv_count(w, d)


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
# or a float), called with the pattern's groups; the first full match wins.
# Each evaluator looks the library's cached entry points up when it runs.
_CLAIMS = (
    (r"table1:m(\d+):u(\d+)", lambda m, u: _beta(int(m), int(u))),
    (r"seq:P", lambda: primitive_counts(_MAX_DEGREE)),
    (r"seq:V", lambda: _invariants(2)),
    (r"seq:F", lambda: _invariants(1)),
    (r"tally:m(\d+)", lambda m: beta_table(_MAX_DEGREE).tally_terms(int(m))),
    (r"mzv:D:w(\d+):d(\d+)", lambda w, d: _zeta(int(w), int(d))),
    (r"mzv:M:w(\d+):d(\d+)", lambda w, d: mzv_counts(_MZV_WEIGHT).euler_count(int(w), int(d))),
    (r"mzv:depth1", lambda: [_zeta(w, 1) for w in range(3, 22, 2)]),
    (r"mzv:depth2", lambda: [_zeta(8 + 2 * j, 2) for j in range((_MZV_WEIGHT - 8) // 2 + 1)]),
    (r"mzv:d3d", lambda: [_zeta(3 * d, d) for d in range(1, DEPTH_DIAGONAL_CHECKED_MAX + 1)]),
    (r"mzv:x0slice", lambda: list(build_mzv_rhs(_MZV_WEIGHT).slice_x(0).coeffs)),
    (r"const:r", lambda: growth_root()),
    (r"const:C", lambda: growth_constant()),
    (rf"identity:({'|'.join(_IDENTITIES)})", lambda name: int(_IDENTITIES[name]())),
)


def _parse_ints(payload: str) -> list[int]:
    return [int(x) for x in payload.split(",") if x != ""]


def _sequence_result(claim_id: str, expected: list[int], actual: list[int]) -> ClaimResult:
    ok = expected == actual
    return ClaimResult(
        claim_id,
        ok,
        ",".join(str(v) for v in expected),
        ",".join(str(v) for v in actual),
    )


def _evaluate(entry: ReferenceEntry) -> ClaimResult:
    for pattern, evaluator in _CLAIMS:
        match = re.fullmatch(pattern, entry.claim_id)
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
        if entry.kind == "sequence":
            return _sequence_result(entry.claim_id, _parse_ints(entry.payload), list(actual))

        if entry.kind == "decimal_constant":
            value_text, tol_text = entry.payload.split(",")
            expected, tol = float(value_text), float(tol_text)
            if not (isfinite(expected) and isfinite(tol) and tol >= 0):
                raise ValueError(f"need a finite value and tolerance >= 0, got {entry.payload!r}")
            ok = abs(actual - expected) <= tol
            return ClaimResult(entry.claim_id, ok, value_text, repr(actual))

        expected_int = int(entry.payload)
        if entry.kind == "lower_bound":
            ok = actual >= expected_int
        else:  # exact_value, saturated_bound
            ok = actual == expected_int
    except (TypeError, ValueError) as exc:
        return ClaimResult(entry.claim_id, False, entry.payload, f"malformed claim: {exc}")
    return ClaimResult(entry.claim_id, ok, str(expected_int), str(actual))


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
