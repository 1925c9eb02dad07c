"""Test-only oracles that never call the library's transform or division kernels,
and the test-only entry points to those kernels.

The dense series algebra lives here, not in the library: constructors
(`uni_from_coeffs`, `uni_from_terms`, `bi_from_terms`, the ones and
zeros), the nonzero terms (`nonzero_terms`), the x = 0 row
(`bi_x0_row`), sums and differences, schoolbook
products (`uni_mul`, `bi_mul`) and term-by-term inverses (`uni_inverse`,
`bi_inverse`) over the `UniSeries` and `BiSeries` containers, and the
forward Euler product built from them (`product_oracle`), and the
x = y**2 substitution (`substitute_x`).  `push_exponents` inverts a
log-derivative grid monomial by monomial in weight order, the reference
for the peel's ray-wise Moebius inversion, and `peel_rational_reference`
is the peel as first written, over the common denominator of the
numerator and its factors (`times` multiplies them out), with a dense
division.  A sum or product is valid exactly through the minimum
truncation of its operands.
The generator assemblies below use only these, so they are an
independent reference for the division kernel, and so is the column
oracle `h_series`, the closed form of each column j <= 3 of the beta
generator; the multiset count uses no series at all.  `scaled_floats`
keeps the series route's float rescaling in the form it was first
written, and `series_constant` the whole route over a stored
coefficient row: ten Horner passes, one per offset, then Neville
extrapolation.

Four functions do call the kernels, so they are no oracles: `peel_bi`
and `peel_uni` run `transforms._peel_rational` on a stored series in
either sign convention (`PRODUCT_OF_INVERSES`, `PRODUCT_PLAIN`; `SIGN`
gives each one's power of the factors), `build_eul_rhs` expands the
Euler-sum generator with the division kernel, and `beta_rows_from_b`
reads the beta table's rows from `build_b` plus one, a second route to
the table that `beta_table` divides out of its own numerator.
"""

import math
from fractions import Fraction
from functools import reduce

from gfenum import mzv
from gfenum.generators import _expand_rational, build_b
from gfenum.series import BiSeries, UniSeries, _zero_rows
from gfenum.transforms import NonIntegerExponent, NonUnitConstant, _peel_rational


class WeightMismatch(ValueError):
    """A bivariate series carries variable weights the operation does not support."""


def uni_from_coeffs(coeffs, trunc_order=None):
    """Series with the given low-order coefficients, zero-padded to fit.

    Coefficients beyond an explicit ``trunc_order`` are discarded: the
    result represents the input only through its truncation.
    """
    data = list(coeffs)
    if trunc_order is None:
        if not data:
            raise ValueError("empty coefficient list needs an explicit truncation order")
        trunc_order = len(data) - 1
    data = data[: trunc_order + 1]
    data += [0] * (trunc_order + 1 - len(data))
    return UniSeries(trunc_order, tuple(data))


def uni_from_terms(trunc_order, terms):
    """Series of a sparse polynomial; terms beyond the truncation are dropped."""
    data = [0] * (trunc_order + 1)
    for degree, coeff in terms.items():
        if degree < 0:
            raise ValueError("negative degrees are not representable")
        if degree <= trunc_order:
            data[degree] = coeff
    return UniSeries(trunc_order, tuple(data))


def uni_one(trunc_order):
    return uni_from_terms(trunc_order, {0: 1})


def uni_zero(trunc_order):
    return uni_from_terms(trunc_order, {})


def uni_neg(a):
    return UniSeries(a.trunc_order, tuple(-c for c in a.coeffs))


def uni_add(a, b):
    n = min(a.trunc_order, b.trunc_order)
    return UniSeries(n, tuple(a.coeffs[d] + b.coeffs[d] for d in range(n + 1)))


def uni_sub(a, b):
    return uni_add(a, uni_neg(b))


def bi_from_terms(weight_x, weight_y, max_weight, terms):
    """Series of a sparse polynomial; terms outside the triangle are dropped."""
    rows = _zero_rows(weight_x, weight_y, max_weight)
    for (j, k), coeff in terms.items():
        if j < 0 or k < 0:
            raise ValueError("negative exponents are not representable")
        if j * weight_x + k * weight_y <= max_weight:
            rows[j][k] = coeff
    return BiSeries(weight_x, weight_y, max_weight, rows)


def nonzero_terms(a):
    """(j, k, c) for every nonzero coefficient of a bivariate series, row by row."""
    return [(j, k, c) for j, row in enumerate(a.coeffs) for k, c in enumerate(row) if c != 0]


def bi_x0_row(a):
    """The series in y multiplying x**0, exact through the weight bound."""
    return UniSeries(len(a.coeffs[0]) - 1, a.coeffs[0])


def bi_one(weight_x, weight_y, max_weight):
    return bi_from_terms(weight_x, weight_y, max_weight, {(0, 0): 1})


def bi_zero(weight_x, weight_y, max_weight):
    return bi_from_terms(weight_x, weight_y, max_weight, {})


def _check_weights(a, b):
    if (a.weight_x, a.weight_y) != (b.weight_x, b.weight_y):
        raise WeightMismatch(
            f"weights {(a.weight_x, a.weight_y)} vs "
            f"{(b.weight_x, b.weight_y)}"
        )


def substitute_x(a):
    """Evaluate at x = y**2, valid for weights (2, 1) only.

    The substitution maps x**j * y**k to y**(2j + k), which is the total
    weight, so the result is exact through the same bound.
    """
    if (a.weight_x, a.weight_y) != (2, 1):
        raise WeightMismatch("x = y**2 substitution preserves truncation only for weights (2, 1)")
    out = [0] * (a.max_weight + 1)
    for j, k, c in nonzero_terms(a):
        out[2 * j + k] += c
    return UniSeries(a.max_weight, tuple(out))


def bi_neg(a):
    rows = tuple(tuple(-c for c in row) for row in a.coeffs)
    return BiSeries(a.weight_x, a.weight_y, a.max_weight, rows)


def bi_add(a, b):
    _check_weights(a, b)
    w = min(a.max_weight, b.max_weight)
    # zip stops at the shorter row list and the shorter row: the sum cut to weight w
    rows = tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.coeffs, b.coeffs)
    )
    return BiSeries(a.weight_x, a.weight_y, w, rows)


def bi_sub(a, b):
    return bi_add(a, bi_neg(b))


class ZeroConstantTerm(ZeroDivisionError):
    """Series inversion requires a nonzero constant term."""


def _norm(value):
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def _reciprocal(value):
    if value == 0:
        raise ZeroConstantTerm("constant term is zero, series is not invertible")
    return _norm(Fraction(1) / Fraction(value))


def uni_mul(a, b):
    """The product of two univariate series, through the smaller truncation."""
    n = min(a.trunc_order, b.trunc_order)
    out = [0] * (n + 1)
    for i, x in enumerate(a.coeffs[: n + 1]):
        if x == 0:
            continue
        for j in range(n + 1 - i):
            y = b.coeffs[j]
            if y != 0:
                out[i + j] += x * y
    return UniSeries(n, tuple(out))


def uni_inverse(a):
    """Multiplicative inverse through the truncation order.

    Raises ZeroConstantTerm when the constant term vanishes.
    """
    inv0 = _reciprocal(a.coeffs[0])
    out = [inv0] + [0] * a.trunc_order
    for n in range(1, a.trunc_order + 1):
        acc = 0
        for k in range(1, n + 1):
            x = a.coeffs[k]
            if x != 0:
                acc += x * out[n - k]
        out[n] = _norm(-inv0 * acc)
    return UniSeries(a.trunc_order, tuple(out))


def bi_mul(a, b):
    """The product of two bivariate series, through the smaller weight bound."""
    _check_weights(a, b)
    wx, wy = a.weight_x, a.weight_y
    w = min(a.max_weight, b.max_weight)
    rows = _zero_rows(wx, wy, w)
    terms_b = nonzero_terms(b)
    for j1, k1, c1 in nonzero_terms(a):
        w1 = j1 * wx + k1 * wy
        if w1 > w:
            continue
        budget = w - w1
        for j2, k2, c2 in terms_b:
            if j2 * wx + k2 * wy <= budget:
                rows[j1 + j2][k1 + k2] += c1 * c2
    return BiSeries(wx, wy, w, tuple(tuple(r) for r in rows))


def bi_inverse(a):
    """Multiplicative inverse on the weighted triangle."""
    inv0 = _reciprocal(a.coeffs[0][0])
    wx, wy, w = a.weight_x, a.weight_y, a.max_weight
    out = _zero_rows(wx, wy, w)
    out[0][0] = inv0
    for j in range(len(out)):
        for k in range(len(out[j])):
            if j == 0 and k == 0:
                continue
            acc = 0
            for j1 in range(min(j + 1, len(a.coeffs))):
                row = a.coeffs[j1]
                for k1 in range(min(k, len(row) - 1) + 1):
                    if j1 == 0 and k1 == 0:
                        continue
                    x = row[k1]
                    if x != 0:
                        acc += x * out[j - j1][k - k1]
            out[j][k] = _norm(-inv0 * acc)
    return BiSeries(wx, wy, w, tuple(tuple(r) for r in out))


def product_oracle(exponents, weight_x, weight_y, max_weight, sign):
    """prod (1 - x**j * y**d)**(sign * e) over ``{(j, d): e}``, multiplied out densely.

    A factor whose power is negative is inverted first, so this is the
    forward Euler product of either sign convention with no transform
    kernel involved.
    """
    product = bi_one(weight_x, weight_y, max_weight)
    for (j, d), e in exponents.items():
        factor = bi_from_terms(weight_x, weight_y, max_weight, {(0, 0): 1, (j, d): -1})
        if sign * e < 0:
            factor = bi_inverse(factor)
        for _ in range(abs(e)):
            product = bi_mul(product, factor)
    return product


def monomials(rows, weight_x, weight_y):
    """(wt, d, j) for every nonconstant monomial of the grid ``rows``, in increasing order.

    Every proper divisor and every componentwise-smaller monomial of n has
    smaller weight, so this order visits them all before n.
    """
    return sorted(
        (weight_x * j + weight_y * d, d, j)
        for j, row in enumerate(rows)
        for d in range(len(row))
        if j or d
    )


def add_to_multiples(rows, j, d, value):
    """Add value at t * (j, d) for every t >= 1 that lies in the grid."""
    t = 1
    while t * j < len(rows) and t * d < len(rows[t * j]):
        rows[t * j][t * d] += value
        t += 1


def push_exponents(c, weight_x, weight_y):
    """The rows of e with c_n = sum_{k | n} wt(k) * e_k; e at (0, 0) reads 0.

    Monomials are inverted in increasing weight: the residue of c_n after
    every proper divisor k has pushed wt(k) * e_k to its multiples is
    wt(n) * e_n.  The first residue that wt(n) does not divide raises
    NonIntegerExponent.  Takes and returns what `transforms._exponents`
    does, and leaves c as it is, so a test can patch it in.
    """
    divisor_sums = [[0] * len(row) for row in c]
    exponents = [[0] * len(row) for row in c]
    for wt, d, j in monomials(c, weight_x, weight_y):
        residue = c[j][d] - divisor_sums[j][d]
        e, rest = divmod(residue, wt)
        if rest:
            raise NonIntegerExponent(f"exponent of monomial {(j, d)} is {residue / wt}")
        if e:
            exponents[j][d] = e
            add_to_multiples(divisor_sums, j, d, wt * e)
    return exponents


def times(a, b):
    """The product of two sparse polynomials ``{(j, d): coeff}``."""
    out = {}
    for (j, d), s in a.items():
        for (k, e), t in b.items():
            out[j + k, d + e] = out.get((j + k, d + e), 0) + s * t
    return out


def peel_rational_reference(numerator, factors, weight_x, weight_y, max_weight):
    """The plain-product exponent rows of F = numerator / prod(factors), as first written.

    The log-derivative of 1/F, sum_f E(f)/f - E(N)/N, is
    (N * E(D) - E(N) * D) / (N * D) with D = prod(f), as E is a
    derivation; its product-of-inverses exponents are the plain-product
    exponents of F.  The division is dense (`bi_mul` by each
    `bi_inverse`) and the inversion is `push_exponents`, so no library
    kernel runs, and any factor with constant term 1 is taken.
    """
    if numerator.get((0, 0)) != 1:
        raise NonUnitConstant(f"constant term is {numerator.get((0, 0), 0)}, expected 1")
    denominator = reduce(times, factors, {(0, 0): 1})
    top = {}
    for (j, d), s in numerator.items():
        for (k, e), t in denominator.items():
            scale = weight_x * (k - j) + weight_y * (e - d)
            top[j + k, d + e] = top.get((j + k, d + e), 0) + scale * s * t
    c = bi_from_terms(weight_x, weight_y, max_weight, top)
    for divisor in (numerator, *factors):
        c = bi_mul(c, bi_inverse(bi_from_terms(weight_x, weight_y, max_weight, divisor)))
    exponents = push_exponents([list(row) for row in c.coeffs], weight_x, weight_y)
    if any(row[0] for row in exponents):
        raise NonIntegerExponent("a pure-x factor remains; F is not a product over positive depth")
    return exponents


# the power of each factor (1 - m_n) is SIGN[form] * e_n
PRODUCT_OF_INVERSES = "product_of_inverses"
PRODUCT_PLAIN = "product_plain"
SIGN = {PRODUCT_OF_INVERSES: -1, PRODUCT_PLAIN: 1}


def peel_bi(series, form=PRODUCT_PLAIN):
    """{(j, d): e} with prod (1 - x**j * y**d)**(SIGN[form] * e) == series, by the library's peel.

    Runs `transforms._peel_rational` on the series' nonzero terms as a
    numerator with no factors, so it raises what the peel raises.  Keys
    come out in increasing total weight with ties broken by increasing d.
    """
    if form not in SIGN:
        raise ValueError(f"form must be one of {tuple(SIGN)}, got {form!r}")
    terms = {(j, d): c for j, d, c in nonzero_terms(series)}
    rows = _peel_rational(terms, (), series.weight_x, series.weight_y, series.max_weight)
    keys = sorted((series.weight_x * j + series.weight_y * d, d, j)
                  for j, row in enumerate(rows) for d, e in enumerate(row) if e)
    return {(j, d): SIGN[form] * rows[j][d] for _, d, j in keys}


def peel_uni(series, form):
    """{m: e} with prod_m (1 - y**m)**(SIGN[form] * e_m) == series: `peel_bi` on one row."""
    n = series.trunc_order
    exponents = peel_bi(BiSeries(n + 1, 1, n, (series.coeffs,)), form)
    return {m: e for (_, m), e in exponents.items()}


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
    return bi_from_terms(2, 1, max_weight, terms)


class UnsupportedColumn(ValueError):
    """No closed form is available for columns beyond the fourth."""


# Column j's numerator over (1 - y)(1 - y**2)(1 - y**3), for j <= 3
_COLUMNS = ({4: 1}, {3: 1}, {2: 1, 3: 1}, {1: 1, 2: 1, 3: 1, 4: 1})


def h_series(j, trunc_order):
    """Column oracle: coefficient k is beta(2j + k, 2j) - 1, for j <= 3, densely."""
    if not 0 <= j <= 3:
        raise UnsupportedColumn(f"no closed form for column j={j}")
    factors = (uni_from_terms(trunc_order, _one_minus(t)) for t in (1, 2, 3))
    return uni_mul(uni_from_terms(trunc_order, _COLUMNS[j]), uni_inverse(reduce(uni_mul, factors)))


def build_b_dense(max_weight):
    """The two-variable beta generator from dense series products and inverses."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    w = max_weight
    base = uni_inverse(
        uni_mul(
            uni_mul(uni_from_terms(w, _one_minus(1)), uni_from_terms(w, _one_minus(2))),
            uni_from_terms(w, _one_minus(3)),
        )
    )
    b2 = uni_mul(base, uni_from_terms(w, {0: 1, 1: 1}))
    b3 = uni_mul(base, uni_from_terms(w, _one_minus(3)))
    b4 = uni_sub(base, uni_one(w))

    inv_x3 = bi_inverse(bi_from_terms(2, 1, w, {(0, 0): 1, (3, 0): -1}))
    top = bi_add(bi_add(_embed(base, 0, 4, w), _embed(base, 1, 3, w)), _embed(b2, 2, 2, w))
    part1 = bi_mul(top, inv_x3)

    coupling = bi_from_terms(2, 1, w, {(0, 0): 1, (0, 1): -1, (2, 0): -1})
    part2 = bi_mul(
        bi_mul(bi_add(_embed(b3, 3, 1, w), _embed(b4, 4, 0, w)), inv_x3), bi_inverse(coupling)
    )
    return bi_add(part1, part2)


def beta_rows_from_b(max_m):
    """The beta table's rows through degree max_m from build_b: B + 1, shifted, transposed.

    Row j of B, plus one and shifted right by 2j, holds beta(m, 2j) in column m, so the
    transpose reads the table; beta(1, 2) = 1 is appended to row 1.
    """
    coeffs = build_b.__wrapped__(max_m).coeffs  # coeffs[j][m - 2j] = beta(m, 2j) - 1
    shifted = [(0,) * (2 * j) + tuple(c + 1 for c in row) for j, row in enumerate(coeffs)]
    rows = [column[: m // 2 + 1] for m, column in enumerate(zip(*shifted))]
    if max_m:
        rows[1] += (1,)
    return tuple(rows)


def build_mzv_rhs_dense(max_weight):
    """1 - y/(1 - x) - (y**2/(1 - x**2)) * ((y**2 - x**3)/(1 - x**3)), densely."""
    w = max_weight
    one = bi_one(2, 3, w)
    y = bi_from_terms(2, 3, w, {(0, 1): 1})
    inv_1mx = bi_inverse(bi_from_terms(2, 3, w, {(0, 0): 1, (1, 0): -1}))
    inv_1mx2 = bi_inverse(bi_from_terms(2, 3, w, {(0, 0): 1, (2, 0): -1}))
    inv_1mx3 = bi_inverse(bi_from_terms(2, 3, w, {(0, 0): 1, (3, 0): -1}))
    y2_minus_x3 = bi_from_terms(2, 3, w, {(0, 2): 1, (3, 0): -1})
    tail = bi_mul(bi_mul(bi_mul(bi_mul(y, y), inv_1mx2), y2_minus_x3), inv_1mx3)
    return bi_sub(bi_sub(one, bi_mul(y, inv_1mx)), tail)


def build_eul_rhs_dense(max_weight):
    """1 - y/(1 - x), densely."""
    w = max_weight
    one = bi_one(2, 3, w)
    y = bi_from_terms(2, 3, w, {(0, 1): 1})
    inv_1mx = bi_inverse(bi_from_terms(2, 3, w, {(0, 0): 1, (1, 0): -1}))
    return bi_sub(one, bi_mul(y, inv_1mx))


def build_eul_rhs(max_weight):
    """1 - y/(1 - x), expanded from `mzv`'s Euler-sum data by the library's division kernel."""
    rows = _expand_rational(mzv._EUL_NUMERATOR, mzv._EUL_DENOMINATOR, 2, 3, max_weight)
    return BiSeries(2, 3, max_weight, rows)


def scaled_floats(coeffs, scale):
    """c_m * scale**m as floats from a 64-bit mantissa and a power-of-two exponent.

    The float rescaling of `asymptotics.growth_constant_from_series` in the
    form it was first written, with `max` and a branch for c == 0.
    """
    log2_scale = math.log2(scale)
    out = []
    for m, c in enumerate(coeffs):
        if c == 0:
            out.append(0.0)
            continue
        bits = c.bit_length()
        shift = max(0, bits - 64)
        mantissa = float(c >> shift)
        exponent = shift + m * log2_scale
        whole = math.floor(exponent)
        out.append(math.ldexp(mantissa * 2.0 ** (exponent - whole), whole))
    return out


def series_constant(coeffs, r):
    """growth_constant_from_series in its first form, from the gap coefficients c_0 .. c_T.

    The rescaled floats are stored, each offset y = 1/r - 0.08 * 0.65**i, i < 10, runs its own
    Horner pass over them, and Neville's scheme extrapolates the ten values to offset 0.
    """
    offsets = [0.08 * 0.65 ** i for i in range(10)]
    scale = 0.70
    floats = scaled_floats(coeffs, scale)
    table = []
    for t in offsets:
        y = 1.0 / r - t
        growth = y / scale
        acc = 0.0
        for c in reversed(floats):
            acc = acc * growth + c
        table.append((1.0 - r * y) * acc)
    for level in range(1, 10):
        for i in range(10 - level):
            t_lo, t_hi = offsets[i], offsets[i + level]
            table[i] = (t_lo * table[i + 1] - t_hi * table[i]) / (t_lo - t_hi)
    return table[0]
