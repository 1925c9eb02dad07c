"""Euler transform and its inverse, the rational peel.

The Euler transform maps graded exponents {e_m} to the series
prod_m (1 - y**m)**(-e_m); with nonnegative exponents its coefficients
count multisets of graded objects.  `euler_expand` is its one entry
point, turning the primitive counts P_m into V_m and F_m over the one
grading, the degree.  `_peel_rational` is its one inverse, over two
gradings (monomials x**j * y**d): from the rational data of a series F
with constant term 1 it recovers the exponents e with
F = prod (1 - x**j * y**d)**e, and `mzv_counts` runs it on both count
generators.

Forward exponent families are plain mappings ``{degree: exponent}``,
absent degrees meaning zero; the peel returns its family as grid rows,
``rows[j][d]``.

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
anyway.  The peel takes F as N / prod(f) over binomials 1 - x**a * y**b
and gets c = E(N)/N by one sparse division, never expanding F; Moebius
inversion along each ray {m * n : m >= 1} recovers N's exponents from
c, and each binomial takes 1 off its monomial's.  An inexact division by
wt(n) is exactly the case where no integer exponent family exists, so it
raises NonIntegerExponent instead of a rational.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import floordiv, mod, mul, sub
from typing import Mapping, Sequence

from .generators import Terms, _expand_rational
from .series import Coeff, UniSeries


class NonUnitConstant(ValueError):
    """A peeled series must have constant term exactly 1."""


class NonIntegerExponent(ArithmeticError):
    """The input series is not an exact product of the expected form."""


class NegativeExponent(ValueError):
    """Euler expansion is defined for nonnegative exponents only."""


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
    spans = [range(weight_x * j, weight_x * j + weight_y * len(row), weight_y)
             for j, row in enumerate(c)]
    flat, weights = [*chain.from_iterable(c)], [*chain.from_iterable(spans)]  # c and wt, end to end
    flat[0], weights[0] = 0, 1  # the constant monomial has no exponent
    if any(map(mod, flat, weights)):  # the first in (weight, d) order: where a push form stops
        wt, d, j = min((wt, d, j) for j, span in enumerate(spans)
                       for d, wt in enumerate(span) if wt and c[j][d] % wt)
        raise NonIntegerExponent(f"exponent of monomial {(j, d)} is {c[j][d] / wt}")
    quotients = [*map(floordiv, flat, weights)]
    return [quotients[end - len(row) : end] for row, end in zip(c, accumulate(map(len, c)))]


def _peel_rational(
    numerator: Terms, factors: Sequence[Terms], weight_x: int, weight_y: int, max_weight: int
) -> list[list[int]]:
    """The rows of plain-product exponents of F = numerator / prod(factors), never expanding F.

    Every factor is a binomial 1 - x**a * y**b, whose one plain-product
    exponent is 1 at (a, b); families add over products, so e(F) = e(N) -
    sum_f [(a, b)].  e(N) are the product-of-inverses exponents of the
    log-derivative of 1/N, -E(N)/N: one sparse division.  A nonzero
    exponent at d = 0 means F(x, 0) != 1, so F is no product over positive
    depth, and raises NonIntegerExponent; any other factor, ValueError.
    """
    if numerator.get((0, 0)) != 1:
        raise NonUnitConstant(f"constant term is {numerator.get((0, 0), 0)}, expected 1")
    monomials = [max(factor, default=(0, 0)) for factor in factors]  # (a, b) of 1 - x**a * y**b
    for factor, (a, b) in zip(factors, monomials):
        if len(factor) != 2 or factor.get((0, 0)) != 1 or factor[a, b] != -1 or min(a, b) < 0:
            raise ValueError(f"each factor must be 1 - x**a * y**b, got {factor}")
    top = {(j, d): -(weight_x * j + weight_y * d) * c for (j, d), c in numerator.items()}
    c = _expand_rational(top, (numerator,), weight_x, weight_y, max_weight)
    exponents = _exponents(c, weight_x, weight_y)
    for a, b in monomials:
        if weight_x * a + weight_y * b <= max_weight:
            exponents[a][b] -= 1
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
