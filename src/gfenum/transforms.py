"""Euler transform and its inverse, product peeling, over one or two gradings.

The Euler transform maps graded exponents {e_n} to the series
prod_n (1 - m_n)**(-e_n) over monomials m_n; with nonnegative exponents
its coefficients count multisets of graded objects.  Peeling inverts it:
given a series with constant term 1 it recovers the exponents.  Two sign
conventions are supported, a product of inverse factors and a plain
product; they differ by one negation of the exponent family.

Exponent families are plain mappings, ``{degree: exponent}`` for one
grading and ``{(j, d): exponent}`` for monomials x**j * y**d in two.
Absent indices mean zero.  A one-grading series is the j = 0 row of a
two-grading grid, so one pair of kernels serves both.

Both kernels use the log-derivative recurrence of Bernstein and Sloane
("Some canonical sequences of integers", 1995), generalised to a weighted
grid.  With wt(n) the total weight of monomial n, applying the weighted
Euler operator to log F turns the product into

    wt(n) * a_n = sum_{0 < k <= n} c_k * a_{n-k},
    c_n = sum_{k | n} wt(k) * e_k,

where k <= n is componentwise and k | n means n = t*k for an integer
t >= 1.  The forward kernel builds c from e and then a from c.  The peel
recovers c from a by the same recurrence (a_0 = 1, so no division) and
then e from c by Moebius inversion over the multiples.  Everything stays in
integers.  Forward, the right-hand side equals wt(n) * a_n and a product
of integer factors has integer a_n, so the division is exact; it is
checked anyway.  In the peel, c is integral whenever a is (a_0 = 1 needs
no division), and an inexact division by wt(n) is exactly the case where
no integer exponent family exists, so it raises NonIntegerExponent
instead of producing a rational.
"""

from __future__ import annotations

from operator import mul
from typing import Mapping, Sequence

from .series import BiSeries, Coeff, UniSeries, _zero_rows

PRODUCT_OF_INVERSES = "product_of_inverses"
PRODUCT_PLAIN = "product_plain"
_FORMS = (PRODUCT_OF_INVERSES, PRODUCT_PLAIN)

Monomial = tuple[int, int]


class NonUnitConstant(ValueError):
    """A peeled series must have constant term exactly 1."""


class NonIntegerExponent(ArithmeticError):
    """The input series is not an exact product of the expected form."""


class NegativeExponent(ValueError):
    """Euler expansion is defined for nonnegative exponents only."""


def _sign(form: str) -> int:
    """+1 if exponents of ``form`` are those of a product of inverses, else -1."""
    if form not in _FORMS:
        raise ValueError(f"form must be one of {_FORMS}, got {form!r}")
    return 1 if form == PRODUCT_OF_INVERSES else -1


def _monomials(weight_x: int, weight_y: int, max_weight: int) -> list[tuple[int, int, int]]:
    """(wt, d, j) for every nonconstant monomial of the grid, in increasing order.

    Every proper divisor and every componentwise-smaller monomial of n has
    smaller weight, so this order visits them all before n.
    """
    return sorted(
        (weight_x * j + weight_y * d, d, j)
        for j in range(max_weight // weight_x + 1)
        for d in range((max_weight - weight_x * j) // weight_y + 1)
        if j or d
    )


def _convolve(c: list[list[Coeff]], a: Sequence[Sequence[Coeff]], j: int, d: int) -> Coeff:
    """sum over k <= (j, d) componentwise of c_k * a_{(j, d) - k}."""
    return sum(sum(map(mul, c[i][: d + 1], a[j - i][d::-1])) for i in range(j + 1))


def _add_to_multiples(rows: list[list[Coeff]], j: int, d: int, value: Coeff) -> None:
    """Add value at t * (j, d) for every t >= 1 that lies in the grid."""
    t = 1
    while t * j < len(rows) and t * d < len(rows[t * j]):
        rows[t * j][t * d] += value
        t += 1


def _euler(
    exponents: Mapping[Monomial, int], weight_x: int, weight_y: int, max_weight: int
) -> list[list[Coeff]]:
    """Coefficient rows of prod_n (1 - x**j * y**d)**(-e_n), n = (j, d)."""
    if weight_x < 1 or weight_y < 1 or max_weight < 0:
        raise ValueError(
            f"grid needs weights >= 1 and a bound >= 0, got ({weight_x}, {weight_y}, {max_weight})"
        )
    c = _zero_rows(weight_x, weight_y, max_weight)
    for (j, d), e in exponents.items():
        if j < 0 or d < 0 or j == d == 0:
            raise ValueError(f"exponent key {(j, d)} is not a positively graded monomial")
        _add_to_multiples(c, j, d, (weight_x * j + weight_y * d) * e)
    a = _zero_rows(weight_x, weight_y, max_weight)
    a[0][0] = 1
    for wt, d, j in _monomials(weight_x, weight_y, max_weight):
        a[j][d], rest = divmod(_convolve(c, a, j, d), wt)
        if rest:
            raise ArithmeticError(f"inexact division by weight {wt} at monomial {(j, d)}")
    return a


def _peel(
    rows: Sequence[Sequence[Coeff]], weight_x: int, weight_y: int, max_weight: int
) -> dict[Monomial, int]:
    """The nonzero e_n with prod_n (1 - x**j * y**d)**(-e_n) == rows.

    ``rows[0][0]`` must be 1.  Keys come out in increasing weight, ties
    broken by increasing d.
    """
    c = _zero_rows(weight_x, weight_y, max_weight)
    # wt(k) * e_k summed over the divisors k of each monomial peeled so far;
    # at n that is exactly the proper divisors
    divisor_sums = _zero_rows(weight_x, weight_y, max_weight)
    exponents: dict[Monomial, int] = {}
    for wt, d, j in _monomials(weight_x, weight_y, max_weight):
        c[j][d] = wt * rows[j][d] - _convolve(c, rows, j, d)
        residue = c[j][d] - divisor_sums[j][d]
        e, rest = divmod(residue, wt)
        if rest:
            raise NonIntegerExponent(f"exponent of monomial {(j, d)} is {residue / wt}")
        if e:
            exponents[(j, d)] = e
            _add_to_multiples(divisor_sums, j, d, wt * e)
    return exponents


def euler_expand(exponents: Mapping[int, int], min_degree: int, trunc_order: int) -> UniSeries:
    """Expand prod_{m >= min_degree} (1 - y**m)**(-e_m) through trunc_order."""
    if min_degree < 1:
        raise ValueError("min_degree must be >= 1")
    for m, e in exponents.items():
        if e < 0:
            raise NegativeExponent(f"exponent {e} at degree {m}")
    keyed = {(0, m): e for m, e in exponents.items() if m >= min_degree}
    (row,) = _euler(keyed, trunc_order + 1, 1, trunc_order)
    return UniSeries(trunc_order, tuple(row))


def expand_exponents_uni(exponents: Mapping[int, int], trunc_order: int, form: str) -> UniSeries:
    """Re-expand a peeled exponent family, in either sign convention."""
    keyed = {(0, m): e for m, e in exponents.items()}
    return expand_exponents_bi(keyed, trunc_order + 1, 1, trunc_order, form).slice_x(0)


def expand_exponents_bi(
    exponents: Mapping[Monomial, int],
    weight_x: int,
    weight_y: int,
    max_weight: int,
    form: str,
) -> BiSeries:
    """Re-expand a bivariate exponent family over monomials x**j * y**d."""
    sign = _sign(form)
    signed = {jd: sign * e for jd, e in exponents.items()}
    rows = _euler(signed, weight_x, weight_y, max_weight)
    return BiSeries(weight_x, weight_y, max_weight, rows)


def peel_uni(series: UniSeries, form: str) -> dict[int, int]:
    """Recover {e_m} with prod_m (1 - y**m)**(sign * e_m) == series.

    Raises NonUnitConstant unless the constant term is 1, and
    NonIntegerExponent if an exponent is fractional, which falsifies the
    product form.
    """
    n = series.trunc_order
    exponents = peel_bi(BiSeries(n + 1, 1, n, (series.coeffs,)), form)
    return {m: e for (_, m), e in exponents.items()}


def peel_bi(series: BiSeries, form: str = PRODUCT_PLAIN) -> dict[Monomial, int]:
    """Recover {(j, d): e} with prod (1 - x**j * y**d)**(sign * e) == series.

    Only monomials with positive y-degree are peeled, so the input must
    satisfy F(x, 0) == 1; a pure-x term means the input was not a product
    of the expected form and raises NonIntegerExponent.  Keys come out in
    increasing total weight with ties broken by increasing d.
    """
    sign = _sign(form)
    if series[(0, 0)] != 1:
        raise NonUnitConstant(f"constant term is {series[(0, 0)]}, expected 1")
    for j in range(1, series.j_limit + 1):
        if series[(j, 0)] != 0:
            raise NonIntegerExponent(
                f"residual x**{j} coefficient {series[(j, 0)]}; the input is not an "
                "exact product over positive-depth monomials"
            )
    exponents = _peel(series.coeffs, series.weight_x, series.weight_y, series.max_weight)
    return {jd: sign * e for jd, e in exponents.items()}
