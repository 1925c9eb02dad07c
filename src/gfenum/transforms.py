"""Euler transform and its inverse, product peeling.

The Euler transform maps graded exponents {e_m} to the series
prod_m (1 - y**m)**(-e_m); with nonnegative exponents its coefficients
count multisets of graded objects.  `euler_expand` is its one entry
point, turning the primitive counts P_m into V_m and F_m over the one
grading, the degree.  Peeling inverts it over one grading (`peel_uni`)
or two (`peel_bi`, monomials x**j * y**d): given a series with constant
term 1 it recovers the exponents.  The peel takes two sign conventions,
a product of inverse factors and a plain product; they differ by one
negation of the exponent family.

Exponent families are plain mappings, ``{degree: exponent}`` for one
grading and ``{(j, d): exponent}`` for two.  Absent indices mean zero.
Only the peel works on a weighted grid; a one-grading series is its
j = 0 row.

Both directions use the log-derivative recurrence of Bernstein and Sloane
("Some canonical sequences of integers", 1995).  With wt(n) the total
weight of monomial n (the degree n itself over one grading), applying
the weighted Euler operator E to log F turns the product into

    wt(n) * a_n = sum_{0 < k <= n} c_k * a_{n-k},
    c_n = sum_{k | n} wt(k) * e_k,

where k <= n is componentwise and k | n means n = t*k for an integer
t >= 1, so c = E(F)/F.  Forward, `euler_expand` builds c from e and then
a from c by the recurrence over the degree.  A product of integer
factors has integer a_n, so the division by n is exact; it is checked
anyway.  The peel takes F as a quotient N / prod(f), a series being the
quotient F / 1, and gets c = E(N)/N - sum_f E(f)/f by one sparse
division per polynomial, never expanding F.  Moebius inversion over the
multiples then recovers e from c.  An inexact division by wt(n) there is
exactly the case where no integer exponent family exists, so it raises
NonIntegerExponent instead of producing a rational.
"""

from __future__ import annotations

from operator import add, mul
from typing import Mapping, Sequence

from .generators import Terms, _expand_rational
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
    """+1 if exponents of ``form`` are those of a plain product, else -1."""
    if form not in _FORMS:
        raise ValueError(f"form must be one of {_FORMS}, got {form!r}")
    return 1 if form == PRODUCT_PLAIN else -1


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


def _add_to_multiples(rows: list[list[Coeff]], j: int, d: int, value: Coeff) -> None:
    """Add value at t * (j, d) for every t >= 1 that lies in the grid."""
    t = 1
    while t * j < len(rows) and t * d < len(rows[t * j]):
        rows[t * j][t * d] += value
        t += 1


def _exponents(
    c: Sequence[Sequence[Coeff]], weight_x: int, weight_y: int, max_weight: int
) -> dict[Monomial, int]:
    """The nonzero e_n with c_n = sum_{k | n} wt(k) * e_k, keyed by increasing weight, then d."""
    # wt(k) * e_k summed over the divisors k of each monomial inverted so far;
    # at n that is exactly the proper divisors
    divisor_sums = _zero_rows(weight_x, weight_y, max_weight)
    exponents: dict[Monomial, int] = {}
    for wt, d, j in _monomials(weight_x, weight_y, max_weight):
        residue = c[j][d] - divisor_sums[j][d]
        e, rest = divmod(residue, wt)
        if rest:
            raise NonIntegerExponent(f"exponent of monomial {(j, d)} is {residue / wt}")
        if e:
            exponents[(j, d)] = e
            _add_to_multiples(divisor_sums, j, d, wt * e)
    return exponents


def _peel_rational(
    numerator: Terms, factors: Sequence[Terms], weight_x: int, weight_y: int, max_weight: int
) -> dict[Monomial, int]:
    """The plain-product exponents of F = numerator / prod(factors), never expanding F.

    The log-derivative of 1/F is sum_f E(f)/f - E(N)/N, one sparse
    division per polynomial; its product-of-inverses exponents are the
    plain-product exponents of F.  A nonzero exponent at d = 0 means
    F(x, 0) != 1, so F is no product over positive depth, and raises
    NonIntegerExponent.
    """
    if numerator.get((0, 0)) != 1:
        raise NonUnitConstant(f"constant term is {numerator.get((0, 0), 0)}, expected 1")
    grid = weight_x, weight_y, max_weight
    c = _zero_rows(*grid)
    for poly, sign in ((numerator, -1), *((factor, 1) for factor in factors)):
        euler_op = {(j, d): sign * (weight_x * j + weight_y * d) * t for (j, d), t in poly.items()}
        for row, term in zip(c, _expand_rational(euler_op, [poly], *grid)):
            row[:] = map(add, row, term)
    exponents = _exponents(c, *grid)
    if any(not d for _, d in exponents):
        raise NonIntegerExponent("a pure-x factor remains; F is not a product over positive depth")
    return exponents


def euler_expand(exponents: Mapping[int, int], min_degree: int, trunc_order: int) -> UniSeries:
    """Expand prod_{m >= min_degree} (1 - y**m)**(-e_m) through trunc_order."""
    if min_degree < 1:
        raise ValueError("min_degree must be >= 1")
    if trunc_order < 0:
        raise ValueError("truncation order must be >= 0")
    for m, e in exponents.items():
        if e < 0:
            raise NegativeExponent(f"exponent {e} at degree {m}")
    c = [0] * (trunc_order + 1)
    for m, e in exponents.items():
        if m >= min_degree:
            c[m::m] = [x + m * e for x in c[m::m]]
    a = [1] + [0] * trunc_order
    for n in range(1, trunc_order + 1):
        a[n], rest = divmod(sum(map(mul, c[1 : n + 1], a[n - 1 :: -1])), n)
        if rest:
            raise ArithmeticError(f"inexact division at degree {n}")
    return UniSeries(trunc_order, tuple(a))


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
    terms = {(j, d): c for j, d, c in series.nonzero_terms()}
    exponents = _peel_rational(terms, (), series.weight_x, series.weight_y, series.max_weight)
    return {jd: sign * e for jd, e in exponents.items()}
