"""Test-only oracles that never call the library's transform or division kernels.

The generator assemblies below use only the dense series products and
inverses, so they are an independent reference for the division kernel.
"""

from gfenum.series import BiSeries, UniSeries


def multiset_oracle(exponents, min_degree, target):
    """Count multisets of graded objects with total degree == target.

    There are e_m distinct objects of degree m.  The count is obtained by
    direct recursive enumeration over (object, multiplicity) choices, with
    no series arithmetic at all, so it is an independent cross-check of
    `euler_expand`.
    """
    if target < 0:
        raise ValueError("target degree must be >= 0")
    objects = []
    for m in sorted(exponents, reverse=True):
        if min_degree <= m <= target:
            objects.extend([m] * max(exponents[m], 0))

    def count(idx, remaining):
        if remaining == 0:
            return 1
        if idx == len(objects):
            return 0
        degree = objects[idx]
        total = 0
        for copies in range(remaining // degree + 1):
            total += count(idx + 1, remaining - copies * degree)
        return total

    return count(0, target)


def _one_minus(*degrees):
    """The polynomial 1 - sum of the given monomials, e.g. 1 - y - y**4."""
    poly = {0: 1}
    for d in degrees:
        poly[d] = poly.get(d, 0) - 1
    return poly


def _embed(series_in_y, j, k, max_weight):
    """x**j * y**k times a series in y, as a weight-(2, 1) bivariate series."""
    terms = {
        (j, k + t): series_in_y[t]
        for t in range(min(series_in_y.trunc_order, max_weight) + 1)
    }
    return BiSeries.from_terms(2, 1, max_weight, terms)


def build_b_dense(max_weight):
    """The two-variable beta generator from dense series products and inverses."""
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


def build_mzv_rhs_dense(max_weight):
    """1 - y/(1 - x) - (y**2/(1 - x**2)) * ((y**2 - x**3)/(1 - x**3)), densely."""
    w = max_weight
    one = BiSeries.one(2, 3, w)
    y = BiSeries.from_terms(2, 3, w, {(0, 1): 1})
    inv_1mx = BiSeries.from_terms(2, 3, w, {(0, 0): 1, (1, 0): -1}).inverse()
    inv_1mx2 = BiSeries.from_terms(2, 3, w, {(0, 0): 1, (2, 0): -1}).inverse()
    inv_1mx3 = BiSeries.from_terms(2, 3, w, {(0, 0): 1, (3, 0): -1}).inverse()
    y2_minus_x3 = BiSeries.from_terms(2, 3, w, {(0, 2): 1, (3, 0): -1})
    return one - y * inv_1mx - y * y * inv_1mx2 * y2_minus_x3 * inv_1mx3


def build_eul_rhs_dense(max_weight):
    """1 - y/(1 - x), densely."""
    w = max_weight
    one = BiSeries.one(2, 3, w)
    y = BiSeries.from_terms(2, 3, w, {(0, 1): 1})
    inv_1mx = BiSeries.from_terms(2, 3, w, {(0, 0): 1, (1, 0): -1}).inverse()
    return one - y * inv_1mx
