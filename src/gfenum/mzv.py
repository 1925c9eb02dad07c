"""Counts of irreducible multiple zeta values and alternating Euler sums.

Both families carry a weight/depth bigrading (w, d).  The counts appear
as exponents of an infinite product over monomials x**j * y**d with
w = 2j + 3d, so the series substrate uses variable weights (2, 3) and
truncating by total weight keeps every count with w <= max_weight exact.

The depth diagonal w = 3d of the zeta-value table is generated by
1/(1 - y - y**4), the relation catalogued as A020999.  Independent checks
of that diagonal stop at depth 7; deeper entries are a consistent
extension of the same generator and are flagged as such in tabulated
output.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from itertools import islice, repeat
from operator import eq, itemgetter, sub
from types import MappingProxyType

from .generators import _expand_rational, _grown, g_series
from .series import BiSeries, IndexOutOfRange, _Frozen
from .transforms import _peel_rational

DEPTH_DIAGONAL_CHECKED_MAX = 7


class CrossCheckError(ArithmeticError):
    """An embedded consistency check failed: the generator transcription is broken."""


# The zeta-value product side over its common denominator, monomials (j, d) = x**j * y**d
_MZV_NUMERATOR = {
    (0, 0): 1, (0, 1): -1, (0, 4): -1, (1, 1): -1, (2, 0): -1,
    (3, 0): -1, (3, 1): 1, (3, 2): 1, (4, 1): 1, (5, 0): 1,
}
_MZV_DENOMINATOR = ({(0, 0): 1, (2, 0): -1}, {(0, 0): 1, (3, 0): -1})
# The Euler-sum product side, 1 - y/(1 - x) = (1 - x - y)/(1 - x)
_EUL_NUMERATOR = {(0, 0): 1, (1, 0): -1, (0, 1): -1}
_EUL_DENOMINATOR = ({(0, 0): 1, (1, 0): -1},)


def build_mzv_rhs(max_weight: int) -> BiSeries:
    """The product side of the zeta-value count generator.

        1 - y/(1 - x) - (y**2/(1 - x**2)) * ((y**2 - x**3)/(1 - x**3))

    as an exact weight-(2, 3) series through max_weight.  Since
    1/(1 - x) = (1 + x)/(1 - x**2), it is one ten-term numerator over the
    common denominator (1 - x**2)(1 - x**3), expanded by dividing the
    numerator by each factor in place on the grid.
    """
    rows = _expand_rational(_MZV_NUMERATOR, _MZV_DENOMINATOR, 2, 3, max_weight)
    return BiSeries(2, 3, max_weight, rows)


def _grid(max_weight: int) -> list[tuple[int, int]]:
    """The (w, d) points with d >= 1 and w = 2j + 3d <= max_weight, weight-major."""
    return [(w, d) for w in range(3, max_weight + 1) for d in range(2 - w % 2, w // 3 + 1, 2)]


class MzvCounts(_Frozen):
    """Irreducible counts by (weight, depth), for the full grid w <= max_weight.

    ``mzv`` holds the zeta-value counts, ``euler`` the alternating-sum
    counts.  Zero entries are stored too: a vanishing count is data.  Both
    are read-only mappings over the grid keys in increasing (w, d) order,
    built on first read, as ``BetaTable.entries`` is: a table holds the
    first entries of the largest expansion's two weight-major dicts, shared
    by every cut, so a cut copies nothing, and a mapping is the dict itself
    behind a proxy when the table is the whole expansion.  A table given to
    the constructor must hold exactly the grid keys in that order, else
    ValueError, and is copied.  The two tables first differ at weight 12,
    at depth 2 (D = 1, M = 2) and at depth 4 (D = 1, M = 0), and the two
    differences cancel: forgetting depth (x = X**2, y = X**3, where
    y**2 - x**3 vanishes) turns both product sides into
    (1 - X**2 - X**3)/(1 - X**2), so the depth sums sum_d D(w, d) and
    sum_d M(w, d) agree at every weight.
    """

    _fields = ("max_weight", "mzv", "euler")

    def __init__(self, max_weight: int, mzv: Mapping[tuple[int, int], int],
                 euler: Mapping[tuple[int, int], int]) -> None:
        grid = _grid(max_weight)
        self._share(max_weight, dict(mzv), dict(euler), len(grid))  # checks the bound first
        if not list(mzv) == list(euler) == grid:
            raise ValueError(f"a table's keys must be the (w, d) grid through weight {max_weight}, "
                             "in order")

    def _share(self, max_weight: int, mzv: dict[tuple[int, int], int],
               euler: dict[tuple[int, int], int], size: int) -> MzvCounts:
        """Hold the first ``size`` entries of two weight-major dicts, unchecked; return self."""
        if max_weight < 0:
            raise ValueError("weight bound must be >= 0")
        # direct sets: every cut builds one, and the base's constructor is slower
        vars(self).update(max_weight=max_weight, _mzv=mzv, _euler=euler, _size=size)
        return self

    def _prefix(self, table: dict[tuple[int, int], int]) -> Mapping[tuple[int, int], int]:
        """This table's entries of a shared dict, read-only: the dict itself if they fill it."""
        if len(table) > self._size:
            table = dict(islice(table.items(), self._size))
        return MappingProxyType(table)

    @cached_property
    def mzv(self) -> Mapping[tuple[int, int], int]:
        """The zeta-value counts, read-only: built on first read, not by a cut."""
        return self._prefix(self._mzv)

    @cached_property
    def euler(self) -> Mapping[tuple[int, int], int]:
        """The Euler-sum counts, read-only: built on first read, not by a cut."""
        return self._prefix(self._euler)

    def _lookup(self, table: dict[tuple[int, int], int], w: int, d: int) -> int:
        if w > self.max_weight:
            raise IndexOutOfRange(f"weight {w} exceeds the computed bound {self.max_weight}")
        return table.get((w, d), 0)  # the keys are the grid, so an off-grid point reads 0

    def mzv_count(self, w: int, d: int) -> int:
        return self._lookup(self._mzv, w, d)

    def euler_count(self, w: int, d: int) -> int:
        return self._lookup(self._euler, w, d)

    def truncate(self, max_weight: int) -> MzvCounts:
        """The tables through a smaller weight bound: the same prefix of both shared dicts."""
        if max_weight > self.max_weight:
            raise IndexOutOfRange(f"cannot extend weight bound {self.max_weight} to {max_weight}")
        size = (max_weight * max_weight + 6) // 12  # the grid points: A001399 at max_weight - 3
        return MzvCounts.__new__(MzvCounts)._share(max_weight, self._mzv, self._euler, size)


@_grown("max_weight", 0)
def mzv_counts(max_weight: int) -> MzvCounts:
    """Peel both generators from their rational data and return the (w, d) count tables.

    A weight of at least 23 reaches the depth-7 weight-23 zeta count that
    anchors the deep end of the table.  Embedded cross-checks compare the
    shallow-depth diagonals against their pseudopolynomial forms and raise
    CrossCheckError on any mismatch.
    """
    grid = _grid(max_weight)
    rows_mzv = _peel_rational(_MZV_NUMERATOR, _MZV_DENOMINATOR, 2, 3, max_weight)
    _cross_check_diagonals(rows_mzv, max_weight)
    rows_eul = _peel_rational(_EUL_NUMERATOR, _EUL_DENOMINATOR, 2, 3, max_weight)
    mzv, euler = (  # keyed (w, d) weight-major, so a cut is a prefix
        {(w, d): rows[(w - 3 * d) // 2][d] for w, d in grid} for rows in (rows_mzv, rows_eul)
    )
    return MzvCounts.__new__(MzvCounts)._share(max_weight, mzv, euler, len(grid))


def _cross_check_diagonals(rows: list[list[int]], w: int) -> None:
    """Compare the zeta-value counts D(w', d <= 3), in rows[(w' - 3d) // 2][d], with g_series."""
    # D(w, 1) = 1 at odd w >= 3, as 1/(1 - x); D(w, 2) from w = 8 follows 1/((1 - x)(1 - x**3));
    # from w = 13, D(w, 3) - D(w - 3, 2), in one row, follows the next diagonal fit
    for depth, first, k, what in ((1, 3, 0, "count"), (2, 8, 1, "count"), (3, 13, 2, "offset")):
        if w >= first:
            expect = g_series(k, (w - first) // 2).coeffs
            part = rows[(first - 3 * depth) // 2 :][: len(expect)]
            less = map(itemgetter(2), part) if depth == 3 else repeat(0)
            found = tuple(map(sub, map(itemgetter(depth), part), less))
            if found != expect:
                j = [*map(eq, found, expect)].index(False)
                raise CrossCheckError(f"depth-{depth} {what} at weight {first + 2 * j} is off")
    if w >= 6 and rows[0][2]:
        raise CrossCheckError("depth-2 count at weight 6 should vanish")
    if w >= 11 and rows[1][3] != rows[1][2]:
        raise CrossCheckError("depth-3 count at weight 11 should match depth 2 at weight 8")
