import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfenum.generators import primitive_counts
from gfenum.series import BiSeries, UniSeries
from gfenum.transforms import (
    PRODUCT_OF_INVERSES,
    PRODUCT_PLAIN,
    NegativeExponent,
    NonIntegerExponent,
    NonUnitConstant,
    euler_expand,
    peel_bi,
    peel_uni,
)

from literals import DEPTH_DIAGONAL_7, F20, V20
from oracles import (
    bi_from_terms,
    bi_zero,
    multiset_oracle,
    product_oracle,
    uni_from_coeffs,
    uni_inverse,
    uni_one,
)


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
    def test_negative_truncation_order_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            euler_expand({1: 1}, 1, -1)

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
        generator = uni_inverse(UniSeries.from_terms(12, {0: 1, 1: -1, 4: -1}))
        exponents = peel_uni(generator, PRODUCT_OF_INVERSES)
        assert [exponents.get(d, 0) for d in range(1, 8)] == DEPTH_DIAGONAL_7
        assert [exponents.get(d, 0) for d in range(8, 13)] == [1, 2, 2, 3, 3]

    def test_both_conventions_agree_on_reciprocal_inputs(self):
        poly = UniSeries.from_terms(12, {0: 1, 1: -1, 4: -1})
        assert peel_uni(poly, PRODUCT_PLAIN) == peel_uni(uni_inverse(poly), PRODUCT_OF_INVERSES)

    def test_reexpansion_reproduces_the_input(self):
        generator = uni_inverse(UniSeries.from_terms(12, {0: 1, 1: -1, 4: -1}))
        exponents = peel_uni(generator, PRODUCT_OF_INVERSES)
        assert euler_expand(exponents, 1, 12) == generator
        # and against arithmetic that never touches the library expander
        assert list(generator.coeffs) == naive_product_expansion(exponents, 12)

    def test_primitive_count_roundtrip(self):
        exponents = {m + 1: p for m, p in enumerate(primitive_counts(12))}
        series = euler_expand(exponents, 1, 12)
        assert peel_uni(series, PRODUCT_OF_INVERSES) == exponents

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
        series = product_oracle(keyed, 13, 1, 12, SIGN[form]).slice_x(0)
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

    def test_pure_x_leftover_is_loud(self):
        series = bi_from_terms(2, 3, 9, {(0, 0): 1, (1, 0): 1})
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
