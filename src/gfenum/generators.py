"""Closed-form generators for the bigraded dimensions of primitive diagrams.

beta(m, u) is the number of independent connected diagrams of degree m with
u univalent and 2m - u trivalent vertices, modulo the antisymmetry and
Jacobi relations.  The conjectured two-variable generator stores
beta(2j + k, 2j) - 1 at x**j * y**k; with weights (2, 1) the total weight
of a monomial equals the degree m, so truncating at weight W yields every
degree m <= W exactly.

Conventions baked in here: beta vanishes for odd u (mirror symmetry),
beta(2j, 2j) = 1, beta(0, 0) = 1, and the single u > m entry beta(1, 2) = 1
is kept as an explicit special case since the (j, k) grid cannot reach it.

The primitive count P_m = sum_{u >= 2} beta(m, u) has two independent
routes: assembling it from the two-variable generator via the x -> y**2
substitution, or expanding a closed univariate rational form.  They must
agree coefficient for coefficient; `verify` enforces that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .series import BiSeries, IndexOutOfRange, UniSeries


class UnsupportedDiagonal(ValueError):
    """No closed form is available for diagonals beyond the sixth."""


class UnsupportedColumn(ValueError):
    """No closed form is available for columns beyond the fourth."""


Poly = Mapping[int, int]


def _one_minus(*degrees: int) -> dict[int, int]:
    """The polynomial 1 - sum of the given monomials, e.g. 1 - y - y**4."""
    poly = {0: 1}
    for d in degrees:
        poly[d] = poly.get(d, 0) - 1
    return poly


@dataclass(frozen=True)
class RationalGF:
    """A univariate rational generating function.

    Stored as a sparse numerator polynomial and a list of denominator
    factors, each with constant term exactly 1 so the expansion to any
    truncation order is well defined and exact.
    """

    numerator: tuple[tuple[int, int], ...]
    denominator_factors: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        for factor in self.denominator_factors:
            if dict(factor).get(0) != 1:
                raise ValueError("denominator factors must have constant term 1")
        for poly in (self.numerator, *self.denominator_factors):
            if any(d < 0 for d, _ in poly):
                raise ValueError("negative degrees are not representable")

    @classmethod
    def build(cls, numerator: Poly, factors: Iterable[Poly]) -> RationalGF:
        return cls(
            tuple(sorted(numerator.items())),
            tuple(tuple(sorted(f.items())) for f in factors),
        )

    def expand(self, trunc_order: int) -> UniSeries:
        """Coefficients through trunc_order, in O(trunc_order * nnz) operations.

        The denominator factors are multiplied into one sparse polynomial
        Q with Q(0) = 1, and out = numerator / Q is the linear recurrence
        out_n = numerator_n - sum_{0 < d <= n} Q_d * out_{n-d}.
        """
        den = {0: 1}
        for factor in self.denominator_factors:
            product: dict[int, int] = {}
            for d1, c1 in den.items():
                for d2, c2 in factor:
                    product[d1 + d2] = product.get(d1 + d2, 0) + c1 * c2
            den = product
        tail = [(d, c) for d, c in sorted(den.items()) if d > 0 and c != 0]
        num = dict(self.numerator)
        out: list[int] = []
        for n in range(trunc_order + 1):
            acc = num.get(n, 0)
            for d, c in tail:
                if d > n:
                    break
                acc -= c * out[n - d]
            out.append(acc)
        return UniSeries(trunc_order, tuple(out))


@lru_cache(maxsize=None)
def p_closed_form() -> RationalGF:
    """Closed rational form of sum_m (P_m - 1) y**m."""
    return RationalGF.build(
        {4: 1, 8: -1, 10: -1, 12: -1, 17: -1},
        [_one_minus(1), _one_minus(2), _one_minus(3), _one_minus(6), _one_minus(1, 4)],
    )


@lru_cache(maxsize=None)
def p_closed(max_m: int) -> UniSeries:
    """sum_m (P_m - 1) y**m from the closed rational form; P_m = coeff + 1."""
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    return p_closed_form().expand(max_m)


def _embed(series_in_y: UniSeries, j: int, k: int, max_weight: int) -> BiSeries:
    """x**j * y**k times a series in y, as a weight-(2, 1) bivariate series."""
    terms = {
        (j, k + t): series_in_y[t]
        for t in range(min(series_in_y.trunc_order, max_weight) + 1)
    }
    return BiSeries.from_terms(2, 1, max_weight, terms)


@lru_cache(maxsize=None)
def build_b(max_weight: int) -> BiSeries:
    """The conjectured two-variable generator of beta(2j + k, 2j) - 1.

    Assembled exactly as

        (b0*y**4 + b1*x*y**3 + b2*x**2*y**2) / (1 - x**3)
      + (b3*x**3*y + b4*x**4) / ((1 - x**3) * (1 - y - x**2))

    where b0 = b1 = 1/((1-y)(1-y**2)(1-y**3)), b2 = (1+y)*b0,
    b3 = (1-y**3)*b0 and b4 = b0 - 1.  The 1/(1 - y - x**2) coupling factor
    is what later produces the quartic growth root of the primitive counts.
    """
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    w = max_weight
    base = (
        UniSeries.from_terms(w, _one_minus(1))
        * UniSeries.from_terms(w, _one_minus(2))
        * UniSeries.from_terms(w, _one_minus(3))
    ).inverse()
    b2 = base * UniSeries.from_terms(w, {0: 1, 1: 1})
    b3 = base * UniSeries.from_terms(w, _one_minus(3))
    b4 = base - UniSeries.one(w)

    inv_x3 = BiSeries.from_terms(2, 1, w, {(0, 0): 1, (3, 0): -1}).inverse()
    part1 = (_embed(base, 0, 4, w) + _embed(base, 1, 3, w) + _embed(b2, 2, 2, w)) * inv_x3

    coupling = BiSeries.from_terms(2, 1, w, {(0, 0): 1, (0, 1): -1, (2, 0): -1})
    part2 = (_embed(b3, 3, 1, w) + _embed(b4, 4, 0, w)) * inv_x3 * coupling.inverse()
    return part1 + part2


@dataclass(frozen=True)
class BetaTable:
    """beta(m, u) for 0 <= m <= max_m, even u <= m, plus the (1, 2) entry."""

    max_m: int
    entries: Mapping[tuple[int, int], int]

    def get(self, m: int, u: int) -> int:
        if not 0 <= m <= self.max_m:
            raise IndexOutOfRange(f"degree {m} is outside the table range [0, {self.max_m}]")
        if u < 0:
            raise IndexOutOfRange("univalent count must be >= 0")
        if (m, u) == (1, 2):
            return self.entries[(1, 2)]
        if u > m:
            raise IndexOutOfRange(f"beta({m}, {u}) with u > m is undefined")
        if u % 2:
            return 0
        return self.entries[(m, u)]

    def tally_terms(self, m: int) -> list[int]:
        """The u >= 2 contributions to the primitive count at degree m."""
        if m == 1:
            return [self.get(1, 2)]
        return [self.get(m, u) for u in range(2, m + 1, 2)]

    def primitive_count(self, m: int) -> int:
        if m < 1:
            raise ValueError("primitive counts start at degree 1")
        return sum(self.tally_terms(m))


@lru_cache(maxsize=None)
def beta_table(max_m: int) -> BetaTable:
    """Full table of beta values through degree max_m.

    Built from the two-variable generator at matching weight, so no entry
    can silently read a stale zero; odd-u entries are zero by convention
    and beta(1, 2) = 1 is inserted explicitly.
    """
    if max_m < 0:
        raise ValueError("max_m must be >= 0")
    b = build_b(max_m)
    entries: dict[tuple[int, int], int] = {}
    for m in range(max_m + 1):
        for u in range(0, m + 1, 2):
            entries[(m, u)] = b[(u // 2, m - u)] + 1
    if max_m >= 1:
        entries[(1, 2)] = 1
    return BetaTable(max_m, entries)


def g_series(k: int, trunc_order: int) -> UniSeries:
    """Diagonal generator: coefficient j is beta(2j + k, 2j), for k <= 5.

    These are built from their own pseudopolynomial closed forms, not from
    the two-variable generator, precisely so they can cross-check it.
    """
    if not 0 <= k <= 5:
        raise UnsupportedDiagonal(f"no closed form for diagonal k={k}")
    n = trunc_order
    x = UniSeries.from_terms(n, {1: 1})
    inv_x2 = UniSeries.from_terms(n, _one_minus(2)).inverse()
    inv_x3 = UniSeries.from_terms(n, _one_minus(3)).inverse()
    g = UniSeries.from_terms(n, _one_minus(1)).inverse()
    if k >= 1:
        g = g * inv_x3
    if k >= 2:
        g = g * inv_x2
    if k >= 3:
        g = g * inv_x2 + x * inv_x2 * inv_x3
    if k >= 4:
        g = g * inv_x2 + inv_x3
    if k >= 5:
        g = g * inv_x2 + x * inv_x2
    return g


def h_series(j: int, trunc_order: int, orientable_only: bool = False) -> UniSeries:
    """Column generator: coefficient k is beta(2j + k, 2j) - 1, for j <= 3.

    With ``orientable_only`` the 1/(1 - y**3) factor is dropped, giving the
    variant that matches the contributions from orientable surfaces.
    """
    if not 0 <= j <= 3:
        raise UnsupportedColumn(f"no closed form for column j={j}")
    numerators = {
        0: {4: 1},
        1: {3: 1},
        2: {2: 1, 3: 1},
        3: {1: 1, 2: 1, 3: 1, 4: 1},
    }
    out = UniSeries.from_terms(trunc_order, numerators[j])
    out = out * UniSeries.from_terms(trunc_order, _one_minus(1)).inverse()
    out = out * UniSeries.from_terms(trunc_order, _one_minus(2)).inverse()
    if not orientable_only:
        out = out * UniSeries.from_terms(trunc_order, _one_minus(3)).inverse()
    return out


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


@lru_cache(maxsize=None)
def p_from_b(max_m: int) -> UniSeries:
    """sum_m (P_m - 1) y**m assembled from the two-variable generator.

    The x -> y**2 substitution collects every even-u column of a fixed
    degree; subtracting the u = 0 column and adding y**4/((1-y)(1-y**2))
    repairs the "-1 per column" offset so the coefficient of y**m is
    exactly P_m - 1.
    """
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    b = build_b(max_m)
    correction = RationalGF.build({4: 1}, [_one_minus(1), _one_minus(2)]).expand(max_m)
    return b.substitute_x() - b.slice_x(0) + correction


def primitive_counts(max_m: int) -> list[int]:
    """P_1 .. P_max_m, from the closed univariate form."""
    gap = p_closed(max_m)
    return [gap[m] + 1 for m in range(1, max_m + 1)]
