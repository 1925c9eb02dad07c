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
``mzv:D:w23:d07``, ``const:r``, ``identity:...``) and the evaluator
dispatches on them.  Failures become report entries, never exceptions.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from importlib.resources import files
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
from .mzv import build_mzv_rhs, mzv_counts
from .transforms import euler_expand

KINDS = ("exact_value", "lower_bound", "saturated_bound", "sequence", "decimal_constant")

_MAX_DEGREE = 20
_MZV_WEIGHT = 36
_DUAL_ROUTE_DEGREE = 40


class ReferenceFormatError(ValueError):
    """A reference file line that is not a well-formed claim."""


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
    entries = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
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


class _Engine:
    """Lazily computed quantities shared by all claims in one run."""

    @cached_property
    def beta(self):
        return beta_table(_MAX_DEGREE)

    @cached_property
    def primitives(self) -> list[int]:
        return primitive_counts(_MAX_DEGREE)

    @cached_property
    def _exponents(self) -> dict[int, int]:
        return {m + 1: p for m, p in enumerate(self.primitives)}

    @cached_property
    def knots(self) -> list[int]:
        v = euler_expand(self._exponents, 2, _MAX_DEGREE)
        return [v[m] for m in range(1, _MAX_DEGREE + 1)]

    @cached_property
    def framed(self) -> list[int]:
        f = euler_expand(self._exponents, 1, _MAX_DEGREE)
        return [f[m] for m in range(1, _MAX_DEGREE + 1)]

    @cached_property
    def counts(self):
        return mzv_counts(_MZV_WEIGHT)

    @cached_property
    def root(self) -> float:
        return growth_root()

    @cached_property
    def constant(self) -> float:
        return growth_constant()


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


def _identity_holds(name: str, eng: _Engine) -> int | None:
    if name == "dual-route-primitives":
        return int(p_from_b(_DUAL_ROUTE_DEGREE) == p_closed(_DUAL_ROUTE_DEGREE))
    if name == "framed-minus-knots":
        v, f = eng.knots, eng.framed
        return int(all(v[m] == f[m] - f[m - 1] for m in range(1, _MAX_DEGREE)))
    if name == "col0-col2-shift":
        return int(
            all(eng.beta.get(m, 0) == eng.beta.get(m + 1, 2) for m in range(2, _MAX_DEGREE))
        )
    if name == "floor-diag1":
        return int(
            all(
                eng.beta.get(2 * j + 1, 2 * j) == floor_formula_diag1(j)
                for j in range((_MAX_DEGREE - 1) // 2 + 1)
            )
        )
    if name == "floor-diag2":
        return int(
            all(
                eng.beta.get(2 * j + 2, 2 * j) == floor_formula_diag2(j)
                for j in range((_MAX_DEGREE - 2) // 2 + 1)
            )
        )
    if name == "floor-col0":
        return int(
            all(eng.beta.get(m, 0) == floor_formula_col0(m) for m in range(_MAX_DEGREE + 1))
        )
    return None


def _compute_actual(entry: ReferenceEntry, eng: _Engine):
    """Return the engine's value for a claim: an int, a list of ints, or a float."""
    cid = entry.claim_id

    m = re.fullmatch(r"table1:m(\d+):u(\d+)", cid)
    if m:
        return eng.beta.get(int(m.group(1)), int(m.group(2)))

    if cid == "seq:P":
        return eng.primitives
    if cid == "seq:V":
        return eng.knots
    if cid == "seq:F":
        return eng.framed

    m = re.fullmatch(r"tally:m(\d+)", cid)
    if m:
        return eng.beta.tally_terms(int(m.group(1)))

    m = re.fullmatch(r"mzv:([DM]):w(\d+):d(\d+)", cid)
    if m:
        table = eng.counts.mzv_count if m.group(1) == "D" else eng.counts.euler_count
        return table(int(m.group(2)), int(m.group(3)))

    if cid == "mzv:depth1":
        return [eng.counts.mzv_count(w, 1) for w in range(3, 22, 2)]
    if cid == "mzv:depth2":
        return [eng.counts.mzv_count(8 + 2 * j, 2) for j in range((_MZV_WEIGHT - 8) // 2 + 1)]
    if cid == "mzv:d3d":
        return [eng.counts.mzv_count(3 * d, d) for d in range(1, 8)]
    if cid == "mzv:x0slice":
        slice_y = build_mzv_rhs(_MZV_WEIGHT).slice_x(0)
        return [slice_y[k] for k in range(slice_y.trunc_order + 1)]

    if cid == "const:r":
        return eng.root
    if cid == "const:C":
        return eng.constant

    m = re.fullmatch(r"identity:([a-z0-9-]+)", cid)
    if m:
        return _identity_holds(m.group(1), eng)

    return None


def _evaluate(entry: ReferenceEntry, eng: _Engine) -> ClaimResult:
    actual = _compute_actual(entry, eng)
    if actual is None:
        return ClaimResult(entry.claim_id, False, entry.payload, "unrecognized claim id")

    try:  # a payload that does not parse, or does not fit the claim's value, fails it
        if entry.kind == "sequence":
            return _sequence_result(entry.claim_id, _parse_ints(entry.payload), list(actual))

        if entry.kind == "decimal_constant":
            value_text, tol_text = entry.payload.split(",")
            expected, tol = float(value_text), float(tol_text)
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


_PREDICTION_NOTE = (
    "predictions with no independent check: beta(15,10)=28, beta(16,12)=28, beta(19,16)=25"
)
_EXTENSION_NOTE = (
    "depth-diagonal counts at depth > 7 extend the generator beyond its checked range"
)


def run_all(data_path: str | os.PathLike | None = None) -> VerificationReport:
    """Evaluate every reference claim; the report is ordered by claim id."""
    entries = load_reference(resolve_data_path(data_path))
    eng = _Engine()
    results = [_evaluate(entry, eng) for entry in entries]
    results.sort(key=lambda r: r.claim_id)
    return VerificationReport(results, notes=[_PREDICTION_NOTE, _EXTENSION_NOTE])
