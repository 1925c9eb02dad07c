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
division over the common denominator N * prod(f), never expanding F.
Moebius inversion along each ray of monomials {m * n : m >= 1} then
recovers e from c.  An inexact division by wt(n) there is exactly the
case where no integer exponent family exists, so it raises
NonIntegerExponent instead of producing a rational.
"""

from __future__ import annotations

from functools import reduce
from operator import floordiv, mod, mul, sub
from typing import Mapping, Sequence

from .generators import Terms, _expand_rational
from .series import BiSeries, Coeff, UniSeries

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


def _times(a: Terms, b: Terms) -> dict[Monomial, Coeff]:
    """The product of two sparse polynomials."""
    out: dict[Monomial, Coeff] = {}
    for (j, d), s in a.items():
        for (k, e), t in b.items():
            out[j + k, d + e] = out.get((j + k, d + e), 0) + s * t
    return out


def _exponents(c: list[list[Coeff]], weight_x: int, weight_y: int) -> list[list[int]]:
    """The rows of e with c_n = sum_{k | n} wt(k) * e_k, inverting c in place; e(0, 0) reads 0.

    On each ray {m * n : m >= 1} c is a divisor sum over m, so Moebius
    inversion recovers wt * e: per prime p, one strided pass per row j,
    last row first, subtracts row j from every p-th entry of row p * j.
    """
    length = max(len(c), len(c[0]))
    composite = set()
    for p in range(2, length):
        if p not in composite:
            composite.update(range(p * p, length, p))
            for j in range((len(c) - 1) // p, -1, -1):
                c[p * j][::p] = map(sub, c[p * j][::p], c[j])
    rows, failed = [], []
    for j, row in enumerate(c):
        d0 = 0 if j else 1  # the first d with an exponent: the constant monomial has none
        weights = range(weight_x * j + weight_y * d0, weight_x * j + weight_y * len(row), weight_y)
        if any(map(mod, row[d0:], weights)):
            failed += [(wt, d, j) for d, wt in enumerate(weights, d0) if row[d] % wt]
        rows.append([0] * d0 + list(map(floordiv, row[d0:], weights)))
    if failed:  # the first in (weight, d) order, where an inversion in that order stops
        wt, d, j = min(failed)
        raise NonIntegerExponent(f"exponent of monomial {(j, d)} is {c[j][d] / wt}")
    return rows


def _peel_rational(
    numerator: Terms, factors: Sequence[Terms], weight_x: int, weight_y: int, max_weight: int
) -> list[list[int]]:
    """The rows of plain-product exponents of F = numerator / prod(factors), never expanding F.

    The log-derivative of 1/F, sum_f E(f)/f - E(N)/N, is (N * E(D) - E(N) * D) / (N * D)
    with D = prod(f), as E is a derivation: one sparse division, whose
    product-of-inverses exponents are the plain-product exponents of F.
    A nonzero exponent at d = 0 means F(x, 0) != 1, so F is no product
    over positive depth, and raises NonIntegerExponent.
    """
    if numerator.get((0, 0)) != 1:
        raise NonUnitConstant(f"constant term is {numerator.get((0, 0), 0)}, expected 1")
    denominator = reduce(_times, factors, {(0, 0): 1})
    top: dict[Monomial, Coeff] = {}
    for (j, d), s in numerator.items():
        for (k, e), t in denominator.items():
            scale = weight_x * (k - j) + weight_y * (e - d)
            top[j + k, d + e] = top.get((j + k, d + e), 0) + scale * s * t
    c = _expand_rational(top, (numerator, *factors), weight_x, weight_y, max_weight)
    exponents = _exponents(c, weight_x, weight_y)
    if any(row[0] for row in exponents):
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
    rows = _peel_rational(terms, (), series.weight_x, series.weight_y, series.max_weight)
    keys = sorted((series.weight_x * j + series.weight_y * d, d, j)
                  for j, row in enumerate(rows) for d, e in enumerate(row) if e)
    return {(j, d): sign * rows[j][d] for _, d, j in keys}
