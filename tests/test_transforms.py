import copy
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfenum import mzv, transforms
from gfenum.generators import primitive_counts
from gfenum.series import BiSeries, _zero_rows
from gfenum.transforms import (
    PRODUCT_OF_INVERSES,
    PRODUCT_PLAIN,
    NegativeExponent,
    NonIntegerExponent,
    NonUnitConstant,
    _exponents,
    _peel_rational,
    euler_expand,
    peel_bi,
    peel_uni,
)

from literals import DEPTH_DIAGONAL_7, F20, V20
from oracles import (
    bi_from_terms,
    bi_x0_row,
    bi_zero,
    multiset_oracle,
    add_to_multiples,
    peel_rational_reference,
    product_oracle,
    push_exponents,
    uni_from_coeffs,
    uni_from_terms,
    uni_inverse,
    uni_one,
)


def nonzero(rows):
    """The nonzero entries of exponent rows, keyed (j, d)."""
    return {(j, d): e for j, row in enumerate(rows) for d, e in enumerate(row) if e}


def p_exponents(max_m=20):
    return {m + 1: p for m, p in enumerate(primitive_counts(max_m))}


def naive_product_expansion(exponents, trunc):
    # test-local re-expander for prod (1 - y**m)**(-e_m): repeatedly
    # convolve with the closed geometric-power expansions, no library calls
    coeffs = [1] + [0] * trunc
    for m, e in sorted(exponents.items()):
        for _ in range(e):
            # one factor 1/(1 - y**m): running partial sums with stride m
            for n in range(m, trunc + 1):
                coeffs[n] += coeffs[n - m]
    return coeffs


# the power of each factor (1 - m_n) is SIGN[form] * e_n
SIGN = {PRODUCT_OF_INVERSES: -1, PRODUCT_PLAIN: 1}

BI_WEIGHT = 16


def bi_families():
    # exponent families over weight-(2, 3) monomials of positive depth up
    # to weight BI_WEIGHT, with either sign of exponent
    keys = st.tuples(st.integers(0, 8), st.integers(1, 5)).filter(
        lambda jd: 2 * jd[0] + 3 * jd[1] <= BI_WEIGHT
    )
    return st.dictionaries(keys, st.integers(-3, 3).filter(bool), max_size=5)


class TestEulerExpand:
    def test_knot_counts(self):
        series = euler_expand(p_exponents(), 2, 20)
        assert [series[m] for m in range(1, 21)] == V20

    def test_framed_knot_counts(self):
        series = euler_expand(p_exponents(), 1, 20)
        assert [series[m] for m in range(1, 21)] == F20

    def test_empty_product_is_one(self):
        assert euler_expand({}, 1, 8) == uni_one(8)

    def test_difference_identity(self):
        v = euler_expand(p_exponents(), 2, 20)
        f = euler_expand(p_exponents(), 1, 20)
        for m in range(1, 20):
            assert v[m + 1] == f[m + 1] - f[m]

    def test_negative_exponents_rejected(self):
        with pytest.raises(NegativeExponent):
            euler_expand({3: -1}, 1, 6)

    def test_matches_naive_expansion(self):
        exponents = {1: 2, 2: 1, 4: 3}
        series = euler_expand(exponents, 1, 10)
        assert list(series.coeffs) == naive_product_expansion(exponents, 10)

    def test_keys_below_min_degree_are_ignored(self):
        assert euler_expand({-1: 4, 0: 2, 1: 3, 2: 1}, 2, 9) == euler_expand({2: 1}, 2, 9)

    @given(
        st.dictionaries(st.integers(1, 14), st.integers(0, 4), max_size=6),
        st.integers(1, 3),
    )
    @settings(deadline=None)
    def test_matches_naive_expansion_property(self, exponents, min_degree):
        kept = {m: e for m, e in exponents.items() if m >= min_degree}
        series = euler_expand(exponents, min_degree, 14)
        assert list(series.coeffs) == naive_product_expansion(kept, 14)


class TestOutOfGradingKeys:
    @pytest.mark.parametrize("degree", [0, -2])
    def test_uni_nonpositive_degree_rejected(self, degree):
        # the grading starts at degree 1; a factor (1 - y**0) has no
        # multiples that leave the grid
        with pytest.raises(ValueError, match="min_degree"):
            euler_expand({degree: 1}, degree, 5)


class TestGridValidation:
    @pytest.mark.parametrize("trunc_order", [-1, -10**30])  # the second is past any list size
    def test_negative_truncation_order_rejected(self, trunc_order):
        with pytest.raises(ValueError, match="truncation order"):
            euler_expand({1: 1}, 1, trunc_order)

    # the peel reads its grid off a BiSeries, whose construction checks it
    def test_negative_weight_bound_rejected(self):
        with pytest.raises(ValueError, match="max_weight"):
            BiSeries(2, 3, -1, ())

    @pytest.mark.parametrize("weights", [(0, 3), (2, 0)])
    def test_zero_weight_rejected(self, weights):
        with pytest.raises(ValueError, match="weights"):
            BiSeries(*weights, 12, ((1,),))


class TestPeelUni:
    def test_quadrinacci_depth_diagonal(self):
        generator = uni_inverse(uni_from_terms(12, {0: 1, 1: -1, 4: -1}))
        exponents = peel_uni(generator, PRODUCT_OF_INVERSES)
        assert [exponents.get(d, 0) for d in range(1, 8)] == DEPTH_DIAGONAL_7
        assert [exponents.get(d, 0) for d in range(8, 13)] == [1, 2, 2, 3, 3]

    def test_both_conventions_agree_on_reciprocal_inputs(self):
        poly = uni_from_terms(12, {0: 1, 1: -1, 4: -1})
        assert peel_uni(poly, PRODUCT_PLAIN) == peel_uni(uni_inverse(poly), PRODUCT_OF_INVERSES)

    def test_reexpansion_reproduces_the_input(self):
        generator = uni_inverse(uni_from_terms(12, {0: 1, 1: -1, 4: -1}))
        exponents = peel_uni(generator, PRODUCT_OF_INVERSES)
        assert euler_expand(exponents, 1, 12) == generator
        # and against arithmetic that never touches the library expander
        assert list(generator.coeffs) == naive_product_expansion(exponents, 12)

    # 320 is the largest euler_pair size of the deep benchmark workload
    @pytest.mark.parametrize("n", [12, 320])
    @pytest.mark.parametrize("min_degree", [1, 2])
    def test_primitive_count_roundtrip(self, min_degree, n):
        exponents = {m + 1: p for m, p in enumerate(primitive_counts(n))}
        series = euler_expand(exponents, min_degree, n)
        kept = {m: p for m, p in exponents.items() if m >= min_degree}
        assert peel_uni(series, PRODUCT_OF_INVERSES) == kept

    def test_peel_of_one_is_empty(self):
        assert peel_uni(uni_one(9), PRODUCT_PLAIN) == {}

    def test_constant_term_must_be_one(self):
        with pytest.raises(NonUnitConstant):
            peel_uni(uni_from_coeffs([2, 1], 4), PRODUCT_PLAIN)

    def test_fractional_residual_is_loud(self):
        series = uni_from_coeffs([1, Fraction(1, 2)], 4)
        with pytest.raises(NonIntegerExponent):
            peel_uni(series, PRODUCT_PLAIN)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            peel_uni(uni_one(3), "product_other")

    @given(
        st.dictionaries(
            st.integers(1, 12), st.integers(-5, 5).filter(bool), max_size=6
        ),
        st.sampled_from([PRODUCT_OF_INVERSES, PRODUCT_PLAIN]),
    )
    @settings(deadline=None)
    def test_roundtrip_property(self, exponents, form):
        keyed = {(0, m): e for m, e in exponents.items()}
        series = bi_x0_row(product_oracle(keyed, 13, 1, 12, SIGN[form]))
        assert peel_uni(series, form) == exponents


class TestPeelBi:
    def test_roundtrip_seeded(self):
        rng = random.Random(11)
        for _ in range(50):
            exponents = {}
            for _ in range(rng.randint(0, 5)):
                d = rng.randint(1, 4)
                j = rng.randint(0, (18 - 3 * d) // 2)
                exponents[(j, d)] = rng.randint(1, 5)
            series = product_oracle(exponents, 2, 3, 18, SIGN[PRODUCT_PLAIN])
            assert peel_bi(series, PRODUCT_PLAIN) == exponents

    def test_constant_term_must_be_one(self):
        with pytest.raises(NonUnitConstant):
            peel_bi(bi_zero(2, 3, 9))

    # F(x, 0) != 1: an integer pure-x exponent, a fractional one, and a
    # pure-x leftover among positive-depth terms
    @pytest.mark.parametrize(
        "terms",
        [
            {(0, 0): 1, (1, 0): 1},
            {(0, 0): 1, (1, 0): Fraction(1, 2)},
            {(0, 0): 1, (0, 1): -1, (1, 1): 2, (2, 0): 1},
        ],
        ids=["integer", "fractional", "mixed"],
    )
    def test_pure_x_leftover_is_loud(self, terms):
        series = bi_from_terms(2, 3, 9, terms)
        with pytest.raises(NonIntegerExponent):
            peel_bi(series)

    def test_fractional_residual_is_loud(self):
        series = bi_from_terms(2, 3, 9, {(0, 0): 1, (0, 1): Fraction(1, 3)})
        with pytest.raises(NonIntegerExponent):
            peel_bi(series)

    @given(bi_families(), st.sampled_from([PRODUCT_OF_INVERSES, PRODUCT_PLAIN]))
    @settings(deadline=None)
    def test_roundtrip_property(self, exponents, form):
        series = product_oracle(exponents, 2, 3, BI_WEIGHT, SIGN[form])
        assert peel_bi(series, form) == exponents


class TestPeelRational:
    @pytest.mark.parametrize(
        "numerator, factors, build",
        [
            (mzv._MZV_NUMERATOR, mzv._MZV_DENOMINATOR, mzv.build_mzv_rhs),
            (mzv._EUL_NUMERATOR, mzv._EUL_DENOMINATOR, mzv.build_eul_rhs),
        ],
        ids=["zeta", "euler"],
    )
    def test_equals_peel_bi_of_the_expanded_generator(self, numerator, factors, build):
        for weight in [*range(61), 100, 150]:
            rows = _peel_rational(numerator, factors, 2, 3, weight)
            expected = peel_bi(build(weight))
            assert [len(row) for row in rows] == [len(row) for row in build(weight).coeffs]
            assert nonzero(rows) == expected, weight
            # peel_bi's keys run in increasing weight, then d
            order = sorted(expected, key=lambda jd: (2 * jd[0] + 3 * jd[1], jd[1]))
            assert list(expected) == order, weight

    @pytest.mark.parametrize(
        "numerator, factors, build",
        [
            (mzv._MZV_NUMERATOR, mzv._MZV_DENOMINATOR, mzv.build_mzv_rhs),
            (mzv._EUL_NUMERATOR, mzv._EUL_DENOMINATOR, mzv.build_eul_rhs),
        ],
        ids=["zeta", "euler"],
    )
    def test_dense_reexpansion_reproduces_the_generator(self, numerator, factors, build):
        # peel_bi runs the same division, so the independent check is a dense re-expansion
        exponents = nonzero(_peel_rational(numerator, factors, 2, 3, 30))
        assert product_oracle(exponents, 2, 3, 30, SIGN[PRODUCT_PLAIN]) == build(30)

    @given(bi_families())
    @settings(deadline=None)
    def test_recovers_a_product_split_into_numerator_and_factors(self, exponents):
        positive = {jd: e for jd, e in exponents.items() if e > 0}
        expanded = product_oracle(positive, 2, 3, BI_WEIGHT, SIGN[PRODUCT_PLAIN])
        numerator = {(j, d): c for j, d, c in expanded.nonzero_terms()}
        factors = [{(0, 0): 1, jd: -1} for jd, e in exponents.items() for _ in range(-e)]
        assert nonzero(_peel_rational(numerator, factors, 2, 3, BI_WEIGHT)) == exponents

    def test_a_pure_x_factor_is_not_a_product_over_positive_depth(self):
        with pytest.raises(NonIntegerExponent, match="pure-x"):
            _peel_rational({(0, 0): 1, (1, 0): -1}, [], 2, 3, 9)

    def test_numerator_constant_must_be_one(self):
        with pytest.raises(NonUnitConstant):
            _peel_rational({(0, 0): 2, (0, 1): -1}, [], 2, 3, 9)

    @pytest.mark.parametrize(
        "factor",
        [
            {(0, 0): 1, (1, 0): -1, (0, 1): -1},  # a trinomial
            {(0, 0): 1, (1, 1): 2},
            {(0, 0): 1, (1, 1): 1},
            {(0, 0): 2, (1, 0): -1},
            {(1, 0): -1, (0, 1): 1},  # no constant term
            {(0, 0): 1},
            {},
            {(0, 0): 1, (0, -1): -1},
            {(0, 0): 1, (-1, 2): -1},
        ],
    )
    def test_a_factor_other_than_a_binomial_is_rejected(self, factor):
        with pytest.raises(ValueError, match=r"^each factor must be 1 - x\*\*a \* y\*\*b"):
            _peel_rational({(0, 0): 1, (0, 1): -1}, [{(0, 0): 1, (1, 0): -1}, factor], 2, 3, 9)


# the weighted grids the peel runs on: mzv's, one of weight (2, 1), and peel_uni's one row
GRIDS = [
    pytest.param(lambda size: (2, 3, size), id="weights-2-3"),
    pytest.param(lambda size: (2, 1, size), id="weights-2-1"),
    pytest.param(lambda size: (size + 1, 1, size), id="one-row"),
]
COEFFS = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=4))


def outcome(peel, *args):
    """What a peel returns, or the type and message of what it raises."""
    try:
        return peel(*args)
    except (NonIntegerExponent, NonUnitConstant) as exc:
        return type(exc), str(exc)


def product_grid(weight_x, weight_y, max_weight, data):
    """A random integer exponent family on the grid, as rows, and its log-derivative grid c."""
    exponents = _zero_rows(weight_x, weight_y, max_weight)
    c = _zero_rows(weight_x, weight_y, max_weight)
    cells = [(j, d) for j, row in enumerate(c) for d in range(len(row)) if j or d]
    family = data.draw(st.lists(st.sampled_from(cells), max_size=8, unique=True)) if cells else []
    for j, d in family:
        exponents[j][d] = data.draw(st.integers(-5, 5))
        add_to_multiples(c, j, d, (weight_x * j + weight_y * d) * exponents[j][d])
    return exponents, c, cells


def peel_outcome(peel, *args):
    """`outcome`, naming only the monomial of a NonIntegerExponent.

    The value printed for that monomial may differ by an integer between the
    two forms, when the monomial is also a factor's.
    """
    result = outcome(peel, *args)
    if isinstance(result, tuple) and result[1].startswith("exponent"):
        return result[0], result[1].split(" is ")[0]
    return result


# binomials 1 - x**a * y**b, pure x and of positive depth, some past any weight bound drawn
BINOMIALS = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any), max_size=3)


@pytest.mark.parametrize("grid", GRIDS)
class TestNumeratorAlonePeel:
    """e(N / prod(f)) = e(N) - sum_f [(a, b)] against the peel over the common denominator."""

    def check(self, numerator, monomials, *grid):
        args = numerator, [{(0, 0): 1, ab: -1} for ab in monomials], *grid
        assert peel_outcome(_peel_rational, *args) == peel_outcome(peel_rational_reference, *args)

    @given(st.integers(0, 16), st.data())
    @settings(deadline=None, max_examples=60)
    def test_binomial_factors_peel_alike(self, grid, size, data):
        weight_x, weight_y, max_weight = grid(size)
        cells = [(j, d) for j, row in enumerate(_zero_rows(weight_x, weight_y, max_weight))
                 for d in range(len(row)) if j or d]
        terms = {}
        if cells:
            terms = data.draw(st.dictionaries(st.sampled_from(cells), COEFFS, max_size=6))
        numerator = {(0, 0): data.draw(st.sampled_from([1, 1, Fraction(1), 2])), **terms}
        self.check(numerator, data.draw(BINOMIALS), weight_x, weight_y, max_weight)

    @given(st.integers(0, 16), st.data())
    @settings(deadline=None, max_examples=30)
    def test_a_product_with_binomials_split_off_peels_alike(self, grid, size, data):
        # N a product of binomials, so no exponent is fractional
        weight_x, weight_y, max_weight = grid(size)
        exponents = {ab: data.draw(st.integers(-3, 3)) for ab in data.draw(BINOMIALS)}
        product = product_oracle(exponents, weight_x, weight_y, max_weight, SIGN[PRODUCT_PLAIN])
        numerator = {(j, d): c for j, d, c in product.nonzero_terms()}
        self.check(numerator, data.draw(BINOMIALS), weight_x, weight_y, max_weight)


def test_the_constant_cell_has_no_exponent():
    # a grid too short for any prime pass: c(0, 0) is ignored, not divided by weight 0
    assert _exponents([[7, 3]], 4, 3) == [[0, 1]]


@pytest.mark.parametrize("grid", GRIDS)
class TestRayInversion:
    """The ray-wise Moebius inversion against the weight-ordered push form of tests/oracles.py."""

    @given(st.integers(0, 18), st.data())
    @settings(deadline=None, max_examples=40)
    def test_recovers_integer_exponent_families(self, grid, size, data):
        weight_x, weight_y, max_weight = grid(size)
        expected, c, _ = product_grid(weight_x, weight_y, max_weight, data)
        assert push_exponents(c, weight_x, weight_y) == expected
        assert _exponents(c, weight_x, weight_y) == expected

    @given(st.integers(2, 18), st.booleans(), st.data())
    @settings(deadline=None, max_examples=40)
    def test_a_grid_moved_off_a_product_fails_alike(self, grid, size, fractions, data):
        # one cell n moved by a non-multiple of wt(n), and maybe some heavier cells moved too,
        # all of one number type: the first failure is at n, with one message from both forms
        weight_x, weight_y, max_weight = grid(size)
        _, c, cells = product_grid(weight_x, weight_y, max_weight, data)
        weight = {(j, d): weight_x * j + weight_y * d for j, d in cells}
        if fractions:
            c = [list(map(Fraction, row)) for row in c]
            values = st.fractions(-9, 9, max_denominator=4)
            j, d = data.draw(st.sampled_from(cells))
            c[j][d] += data.draw(values.filter(lambda v: v.denominator > 1))
        else:
            values = st.integers(-9, 9)
            j, d = data.draw(st.sampled_from([jd for jd in cells if weight[jd] > 1]))
            c[j][d] += data.draw(values.filter(lambda v: v % weight[j, d]))
        heavier = [jd for jd in cells if weight[jd] > weight[j, d]]
        for k, e in data.draw(st.lists(st.sampled_from(heavier), max_size=3)) if heavier else ():
            c[k][e] += data.draw(values)
        expected = outcome(push_exponents, c, weight_x, weight_y)
        assert expected[0] is NonIntegerExponent and f"monomial {(j, d)} is " in expected[1]
        assert outcome(_exponents, copy.deepcopy(c), weight_x, weight_y) == expected

    @given(st.integers(0, 18), st.data())
    @settings(deadline=None, max_examples=40)
    def test_a_random_series_peels_alike(self, grid, size, data):
        # numerators of ints and fractions, so the log-derivative grids mix both types
        weight_x, weight_y, max_weight = grid(size)
        cells = [(j, d) for j, row in enumerate(_zero_rows(weight_x, weight_y, max_weight))
                 for d in range(len(row)) if j or d]
        terms = {}
        if cells:
            terms = data.draw(st.dictionaries(st.sampled_from(cells), COEFFS, max_size=6))
        numerator = {(0, 0): data.draw(st.sampled_from([1, Fraction(1)])), **terms}
        args = numerator, (), weight_x, weight_y, max_weight
        with mock.patch.object(transforms, "_exponents", push_exponents):
            expected = outcome(_peel_rational, *args)
        assert outcome(_peel_rational, *args) == expected


class TestMultisetOracle:
    def test_spot_values(self):
        assert multiset_oracle(p_exponents(12), 2, 6) == 9
        assert multiset_oracle(p_exponents(12), 2, 0) == 1
        assert multiset_oracle({1: 1}, 1, 7) == 1

    def test_agrees_with_euler_expand_on_small_inputs(self):
        exponents = {2: 2, 3: 1, 5: 2}
        series = euler_expand(exponents, 2, 9)
        for target in range(10):
            assert multiset_oracle(exponents, 2, target) == series[target]

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            multiset_oracle({2: 1}, 1, -1)
