"""Closed-form generators for the bigraded dimensions of primitive diagrams.

beta(m, u) is the number of independent connected diagrams of degree m with
u univalent and 2m - u trivalent vertices, modulo the antisymmetry and
Jacobi relations.  The conjectured two-variable generator stores
beta(2j + k, 2j) - 1 at x**j * y**k; with weights (2, 1) the total weight
of a monomial equals the degree m, so truncating at weight W yields every
degree m <= W exactly.

Conventions baked in here: beta vanishes for odd u (mirror symmetry),
beta(2j, 2j) = 1, beta(0, 0) = 1, and the single u > m entry beta(1, 2) = 1
is stored as data in row 1 of the beta table, since the (j, k) grid cannot
reach it.

The primitive count P_m = sum_{u >= 2} beta(m, u) has two independent
routes: summing the rows of the beta table read from the two-variable
generator, or expanding a closed univariate rational form.  They must
agree coefficient for coefficient; `verify` enforces that.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, wraps
from itertools import accumulate, chain, repeat
from operator import add, mul, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .series import BiSeries, IndexOutOfRange, UniSeries, _Frozen, _zero_rows


class UnsupportedDiagonal(ValueError):
    """No closed form is available for diagonals beyond the sixth."""


Poly = Mapping[int, int]
Terms = Mapping[tuple[int, int], int]  # {(j, d): coeff} for monomials x**j * y**d


def _grown(name: str, least: int):
    """Memoise a prefix-stable expansion on ``functools.lru_cache``, growing it by doubling.

    A miss above the largest expansion expands max(size, 2 * largest), the first miss exactly
    its size; any other miss is the largest's ``truncate(size)``.  A size below ``least`` raises.
    """

    def decorate(expand):
        slot = [-1, None]  # the size of the largest expansion so far, and that expansion

        def grow(size):
            if size < least:
                raise ValueError(f"{name} must be >= {least}")
            if size > slot[0]:
                top = max(size, 2 * slot[0])
                slot[:] = -1, None  # drop the old expansion before the new one is computed
                slot[:] = top, expand(top)
            return slot[1] if size == slot[0] else slot[1].truncate(size)

        grown = wraps(expand)(lru_cache(maxsize=None)(grow))  # __wrapped__ is expand, not grow
        clear = grown.cache_clear

        def cache_clear() -> None:  # clears the lru_cache and drops the largest expansion
            clear()
            slot[:] = -1, None

        grown.cache_clear = cache_clear
        return grown

    return decorate


def _one_minus(*degrees: int) -> dict[int, int]:
    """The polynomial 1 - sum of the given monomials, e.g. 1 - y - y**4."""
    poly = {0: 1}
    for d in degrees:
        poly[d] = poly.get(d, 0) - 1
    return poly


def _expand_rational(
    numerator: Terms, factors: Sequence[Terms], weight_x: int, weight_y: int, max_weight: int
) -> list[list[int]]:
    """Coefficient rows of numerator / prod(factors) on the weighted grid of BiSeries.

    The numerator is placed on the grid and divided by one factor at a
    time, in place, row by row: row[j][d] -= c * rows[j - fj][d - fd] for
    each nonconstant term c * x**fj * y**fd.  Terms with fj > 0 read rows
    already divided, and no shorter: one chain of maps per row, C speed.
    Terms with fj = 0 then leave a recurrence along the row: a running sum
    per residue class for 1 - y**k, else one loop that multiplies only by
    lags other than 1.  Until a factor has an x-term, only the numerator's
    rows are divided; the rest stay zero.  The factors are never multiplied
    together.  A one-grading series is the j = 0 row with weights (N + 1, 1).
    """
    if any(factor.get((0, 0)) != 1 for factor in factors):
        raise ValueError("denominator factors must have constant term 1")
    if any(j < 0 or d < 0 for poly in (numerator, *factors) for j, d in poly):
        raise ValueError("negative degrees are not representable")
    rows = _zero_rows(weight_x, weight_y, max_weight)
    live = 0  # rows from here on hold only int zeros
    for (j, d), c in numerator.items():
        if weight_x * j + weight_y * d <= max_weight:
            rows[j][d] += c
            live = max(live, j + 1)
    for factor in factors:
        # row += -c * y**fd * rows[j - fj] per x-term, with no product when c = 1 or -1
        earlier = [(fj, fd, add if c == -1 else sub, None if c in (1, -1) else c)
                   for (fj, fd), c in factor.items() if fj and c]
        lags = [(fd, -c) for (fj, fd), c in factor.items() if not fj and fd and c]
        k = lags[0][0] if len(lags) == 1 and lags[0][1] == 1 else 0  # 1 - y**k: running sums
        if earlier:
            live = len(rows)
        for j, row in enumerate(rows[:live]):
            out = row  # the x-terms' passes folded into one assignment
            for fj, fd, op, c in earlier:
                if fj <= j:
                    source = rows[j - fj] if c is None else map(mul, repeat(c), rows[j - fj])
                    out = map(op, out, chain(repeat(0, fd), source) if fd else source)
            if k == 1:  # with the running sum folded in too
                row[:] = accumulate(out)
            elif out is not row:
                row[:] = out
            if k > 1:  # one running sum per residue class
                for r in range(min(k, len(row))):
                    row[r::k] = accumulate(row[r::k])
            elif lags and not k:
                for d in range(len(row)):
                    acc = row[d]
                    for fd, a in lags:
                        if fd <= d:
                            acc += row[d - fd] if a == 1 else a * row[d - fd]
                    row[d] = acc
    return rows


def _expand_uni(numerator: Poly, factors: Iterable[Poly], trunc_order: int) -> UniSeries:
    """numerator / prod(factors) through trunc_order: the j = 0 row of the division kernel."""
    if trunc_order < 0:
        raise ValueError("truncation order must be >= 0")
    (row,) = _expand_rational(
        {(0, d): c for d, c in numerator.items()},
        [{(0, d): c for d, c in f.items()} for f in factors],
        trunc_order + 1, 1, trunc_order,
    )
    return UniSeries(trunc_order, tuple(row))


# The closed rational form of sum_m (P_m - 1) y**m
_P_NUMERATOR = {4: 1, 8: -1, 10: -1, 12: -1, 17: -1}
_P_FACTORS = (_one_minus(1), _one_minus(2), _one_minus(3), _one_minus(6), _one_minus(1, 4))


@_grown("max_m", 1)
def p_closed(max_m: int) -> UniSeries:
    """sum_m (P_m - 1) y**m from the closed rational form; P_m = coeff + 1."""
    return _expand_uni(_P_NUMERATOR, _P_FACTORS, max_m)


# build_b over its common denominator, as monomials (j, d) = x**j * y**d
_B_NUMERATOR = {
    (0, 4): 1, (0, 5): -1, (1, 3): 1, (1, 4): -1, (2, 2): 1, (2, 4): -2, (3, 1): 1,
    (3, 3): -1, (3, 4): -1, (4, 1): 1, (4, 3): -1, (4, 4): -1, (4, 5): -1, (4, 6): 1,
}
_B_DENOMINATOR = (
    {(0, 0): 1, (0, 1): -1},
    {(0, 0): 1, (0, 2): -1},
    {(0, 0): 1, (0, 3): -1},
    {(0, 0): 1, (3, 0): -1},
    {(0, 0): 1, (0, 1): -1, (2, 0): -1},
)


@lru_cache(maxsize=None)  # no growth rule: beta_table asks only at its own expansion sizes
def build_b(max_weight: int) -> BiSeries:
    """The conjectured two-variable generator of beta(2j + k, 2j) - 1.

    The generator is

        (b0*y**4 + b1*x*y**3 + b2*x**2*y**2) / (1 - x**3)
      + (b3*x**3*y + b4*x**4) / ((1 - x**3) * (1 - y - x**2))

    where b0 = b1 = 1/((1-y)(1-y**2)(1-y**3)), b2 = (1+y)*b0,
    b3 = (1-y**3)*b0 and b4 = b0 - 1.  The 1/(1 - y - x**2) coupling factor
    is what later produces the quartic growth root of the primitive counts.
    It is stored as one 14-term numerator over the common denominator
    (1-y)(1-y**2)(1-y**3)(1-x**3)(1-y-x**2) and expanded by dividing the
    numerator by each factor in place on the weight-(2, 1) grid.
    """
    rows = _expand_rational(_B_NUMERATOR, _B_DENOMINATOR, 2, 1, max_weight)
    return BiSeries(2, 1, max_weight, rows)


class BetaTable(_Frozen):
    """beta(m, u) for 0 <= m <= max_m and even u <= m, and beta(1, 2) = 1 once max_m >= 1.

    ``rows[m][u // 2]`` is beta(m, u): row 1 is (beta(1, 0), beta(1, 2)), each other row m
    holds m // 2 + 1 values, so a cut to a smaller degree is a slice sharing the rows.
    """

    _fields = ("max_m", "rows")

    def __init__(self, max_m: int, rows: tuple[tuple[int, ...], ...]) -> None:
        if max_m < 0:
            raise ValueError("degree bound must be >= 0")
        if len(rows) != max_m + 1 or max_m >= 1 and len(rows[1]) != 2:
            raise ValueError("need max_m + 1 rows, and row 1 as (beta(1, 0), beta(1, 2))")
        # direct sets: every cut builds one, and the base's constructor is slower
        object.__setattr__(self, "max_m", max_m)
        object.__setattr__(self, "rows", rows)

    def _row(self, m: int) -> tuple[int, ...]:
        if not 0 <= m <= self.max_m:
            raise IndexOutOfRange(f"degree {m} is outside the table range [0, {self.max_m}]")
        return self.rows[m]

    @cached_property
    def entries(self) -> Mapping[tuple[int, int], int]:
        """Every value keyed (m, u), read-only: built on first read, not by a cut."""
        entries = {(m, 2 * i): n for m, row in enumerate(self.rows) for i, n in enumerate(row)}
        return MappingProxyType(entries)

    def get(self, m: int, u: int) -> int:
        row = self._row(m)
        if u < 0:
            raise IndexOutOfRange("univalent count must be >= 0")
        if u // 2 < len(row) and not u % 2:
            return row[u // 2]
        if u > m:
            raise IndexOutOfRange(f"beta({m}, {u}) with u > m is undefined")
        return 0  # odd u <= m

    def tally_terms(self, m: int) -> list[int]:
        """The u >= 2 contributions to the primitive count at degree m."""
        return list(self._row(m)[1:])

    def truncate(self, max_m: int) -> BetaTable:
        """The table through a smaller degree: a slice of the rows, sharing them."""
        if max_m > self.max_m:
            raise IndexOutOfRange(f"cannot extend degree bound {self.max_m} to {max_m}")
        return BetaTable(max_m, self.rows[: max_m + 1])


@_grown("max_m", 0)
def beta_table(max_m: int) -> BetaTable:
    """Full table of beta values through degree max_m.

    Built from the two-variable generator at matching weight, so no entry
    can silently read a stale zero; odd-u entries are zero by convention.
    """
    coeffs = build_b(max_m).coeffs  # coeffs[j][m - 2j] = beta(m, 2j) - 1
    # row j shifted right by 2j holds beta(m, 2j) in column m, so a transpose reads the table
    shifted = [(0,) * (2 * j) + tuple(map(add, row, repeat(1))) for j, row in enumerate(coeffs)]
    rows = [column[: m // 2 + 1] for m, column in enumerate(zip(*shifted))]
    if max_m:
        rows[1] += (1,)  # beta(1, 2) = 1
    return BetaTable(max_m, tuple(rows))


# The diagonal generators as sums of x**a / prod_t (1 - x**t), one
# (a, (t, ...)) pair per term.  g_0 = 1/(1-x), g_1 = g_0/(1-x**3),
# g_2 = g_1/(1-x**2), and from k = 3 on g_k = g_{k-1}/(1-x**2) plus
# x/((1-x**2)(1-x**3)), 1/(1-x**3) and x/(1-x**2) in turn.
_DIAGONALS = (
    ((0, (1,)),),
    ((0, (1, 3)),),
    ((0, (1, 3, 2)),),
    ((0, (1, 3, 2, 2)), (1, (2, 3))),
    ((0, (1, 3, 2, 2, 2)), (1, (2, 3, 2)), (0, (3,))),
    ((0, (1, 3, 2, 2, 2, 2)), (1, (2, 3, 2, 2)), (0, (3, 2)), (1, (2,))),
)


def g_series(k: int, trunc_order: int) -> UniSeries:
    """Diagonal generator: coefficient j is beta(2j + k, 2j), for k <= 5.

    These are built from their own pseudopolynomial closed forms, not from
    the two-variable generator, precisely so they can cross-check it.
    """
    if not 0 <= k <= 5:
        raise UnsupportedDiagonal(f"no closed form for diagonal k={k}")
    rows = [
        _expand_uni({a: 1}, map(_one_minus, degrees), trunc_order).coeffs
        for a, degrees in _DIAGONALS[k]
    ]
    return UniSeries(trunc_order, tuple(map(sum, zip(*rows))))


def floor_formula_diag1(j: int) -> int:
    """beta(2j + 1, 2j) = floor((j + 3) / 3)."""
    if j < 0:
        raise ValueError("index must be >= 0")
    return (j + 3) // 3


def floor_formula_diag2(j: int) -> int:
    """beta(2j + 2, 2j) = floor(((j + 3)**2 + 3) / 12)."""
    if j < 0:
        raise ValueError("index must be >= 0")
    return ((j + 3) ** 2 + 3) // 12


def floor_formula_col0(m: int) -> int:
    """beta(m, 0) = 1 + floor(((m - 1)**2 + 3) / 12), catalogued as A014591."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    return 1 + ((m - 1) ** 2 + 3) // 12


@_grown("max_m", 1)
def p_from_b(max_m: int) -> UniSeries:
    """sum_m (P_m - 1) y**m from the beta table: P_m = sum_{u >= 2} beta(m, u), its row sums.

    There is no P_0: the y**0 coefficient is 0, as in the closed form.
    """
    rows = beta_table(max_m).rows
    return UniSeries(max_m, (0, *(sum(row[1:]) - 1 for row in rows[1:])))


def primitive_counts(max_m: int) -> list[int]:
    """P_1 .. P_max_m, from the closed univariate form."""
    return [c + 1 for c in p_closed(max_m).coeffs[1:]]
