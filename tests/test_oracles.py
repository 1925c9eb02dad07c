from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfenum.series import BiSeries, UniSeries

from oracles import (
    WeightMismatch,
    ZeroConstantTerm,
    bi_add,
    bi_from_terms,
    bi_inverse,
    bi_mul,
    bi_one,
    nonzero_terms,
    substitute_x,
    uni_add,
    uni_from_coeffs,
    uni_from_terms,
    uni_inverse,
    uni_mul,
    uni_one,
)

coeff_st = st.integers(min_value=-9, max_value=9)


@st.composite
def uni_series(draw, max_order=12):
    order = draw(st.integers(0, max_order))
    coeffs = draw(st.lists(coeff_st, min_size=order + 1, max_size=order + 1))
    return UniSeries(order, tuple(coeffs))


@st.composite
def uni_series_triple(draw, max_order=10):
    # one shared truncation, so exact ring identities hold degree by degree
    order = draw(st.integers(0, max_order))
    series = []
    for _ in range(3):
        coeffs = draw(st.lists(coeff_st, min_size=order + 1, max_size=order + 1))
        series.append(UniSeries(order, tuple(coeffs)))
    return series


@st.composite
def bi_series_pair(draw, max_weight=8):
    w = draw(st.integers(0, max_weight))
    pair = []
    for _ in range(2):
        rows = []
        for j in range(w // 2 + 1):
            width = (w - 2 * j) + 1
            rows.append(tuple(draw(st.lists(coeff_st, min_size=width, max_size=width))))
        pair.append(BiSeries(2, 1, w, tuple(rows)))
    return pair


class TestUniSeries:
    def test_difference_of_squares(self):
        a = uni_from_coeffs([1, 1], 2)
        b = uni_from_coeffs([1, -1], 2)
        assert uni_mul(a, b).coeffs == (1, 0, -1)

    def test_multiplicative_identity(self):
        a = uni_from_coeffs([3, -2, 0, 7], 5)
        assert uni_mul(a, uni_one(5)) == a

    def test_geometric_times_complement(self):
        ones = uni_from_coeffs([1] * 11)
        assert uni_mul(ones, uni_from_coeffs([1, -1], 10)) == uni_one(10)

    def test_inverse_quadrinacci(self):
        a = uni_from_terms(8, {0: 1, 1: -1, 4: -1})
        assert uni_inverse(a).coeffs == (1, 1, 1, 1, 2, 3, 4, 5, 7)

    def test_inverse_of_one(self):
        assert uni_inverse(uni_one(6)) == uni_one(6)

    def test_inverse_geometric(self):
        a = uni_from_coeffs([1, -1], 5)
        assert uni_inverse(a).coeffs == (1, 1, 1, 1, 1, 1)

    def test_inverse_with_rational_leading_coefficient(self):
        a = uni_from_coeffs([2, 1], 3)
        assert uni_mul(a, uni_inverse(a)) == uni_one(3)
        assert uni_inverse(a)[0] == Fraction(1, 2)

    def test_inverse_needs_nonzero_constant(self):
        with pytest.raises(ZeroConstantTerm):
            uni_inverse(uni_from_coeffs([0, 1], 3))

    def test_products_take_minimum_truncation(self):
        a, b = uni_one(9), uni_one(4)
        assert uni_mul(a, b).trunc_order == 4

    def test_sums_take_minimum_truncation(self):
        a, b = uni_one(9), uni_one(4)
        assert uni_add(a, b).trunc_order == 4

    def test_division_is_inverse_multiplication(self):
        num = uni_from_terms(8, {4: 1})
        den = uni_from_terms(8, {0: 1, 1: -1})
        q = uni_mul(num, uni_inverse(den))
        assert q.coeffs == (0, 0, 0, 0, 1, 1, 1, 1, 1)


class TestBiSeries:
    def test_inverse_of_coupling_factor_matches_multinomial_count(self):
        # 1/(1 - (y + x**2)) = sum_n (y + x**2)**n, so the coefficient of
        # x**(2i) * y**k is the multinomial count C(i + k, i)
        a = bi_from_terms(2, 1, 6, {(0, 0): 1, (0, 1): -1, (2, 0): -1})
        inv = bi_inverse(a)
        for j, row in enumerate(inv.coeffs):
            for k in range(len(row)):
                expected = comb(j // 2 + k, k) if j % 2 == 0 else 0
                assert inv[(j, k)] == expected
        assert inv[(2, 2)] == 3

    def test_inverse_of_one_minus_x_cubed(self):
        a = bi_from_terms(2, 1, 7, {(0, 0): 1, (3, 0): -1})
        inv = bi_inverse(a)
        assert len(inv.coeffs) == 4
        for j, k, c in nonzero_terms(inv):
            assert (j, k) in ((0, 0), (3, 0)) and c == 1

    def test_multiplicative_identity(self):
        a = bi_from_terms(2, 1, 6, {(0, 0): 2, (1, 2): -3, (2, 1): 5})
        assert bi_mul(a, bi_one(2, 1, 6)) == a

    def test_inverse_roundtrip(self):
        a = bi_from_terms(2, 1, 8, {(0, 0): 1, (0, 1): 2, (1, 0): -1, (2, 2): 4})
        assert bi_mul(a, bi_inverse(a)) == bi_one(2, 1, 8)

    def test_products_take_minimum_weight(self):
        a, b = bi_one(2, 1, 9), bi_one(2, 1, 4)
        assert bi_mul(a, b).max_weight == 4

    def test_sums_take_minimum_weight(self):
        a, b = bi_one(2, 1, 9), bi_one(2, 1, 4)
        assert bi_add(a, b).max_weight == 4
        a = bi_from_terms(2, 1, 9, {(0, 0): 1, (1, 2): 2, (1, 3): 6, (4, 1): 7})
        b = bi_from_terms(2, 1, 4, {(0, 0): 3, (2, 0): 5})
        assert bi_add(a, b) == bi_from_terms(2, 1, 4, {(0, 0): 4, (1, 2): 2, (2, 0): 5})

    def test_sum_weight_mismatch(self):
        with pytest.raises(WeightMismatch):
            bi_add(bi_one(2, 1, 6), bi_one(2, 3, 6))

    def test_weight_mismatch(self):
        a = bi_one(2, 1, 6)
        b = bi_one(2, 3, 6)
        with pytest.raises(WeightMismatch):
            bi_mul(a, b)

    def test_zero_constant_term_not_invertible(self):
        with pytest.raises(ZeroConstantTerm):
            bi_inverse(bi_from_terms(2, 1, 4, {(1, 0): 1}))


class TestRingProperties:
    @given(uni_series_triple())
    @settings(deadline=None)
    def test_mul_commutes_and_distributes(self, triple):
        a, b, c = triple
        assert uni_mul(a, b) == uni_mul(b, a)
        assert uni_mul(a, uni_add(b, c)) == uni_add(uni_mul(a, b), uni_mul(a, c))

    @given(uni_series_triple())
    @settings(deadline=None)
    def test_mul_associates(self, triple):
        a, b, c = triple
        assert uni_mul(uni_mul(a, b), c) == uni_mul(a, uni_mul(b, c))

    @given(uni_series())
    @settings(deadline=None)
    def test_inverse_roundtrip_for_unit_constant(self, a):
        unit = UniSeries(a.trunc_order, (1,) + a.coeffs[1:])
        assert uni_mul(unit, uni_inverse(unit)) == uni_one(a.trunc_order)

    @given(bi_series_pair())
    @settings(deadline=None)
    def test_bi_mul_commutes(self, pair):
        a, b = pair
        assert bi_mul(a, b) == bi_mul(b, a)

    @given(bi_series_pair())
    @settings(deadline=None)
    def test_substitution_is_a_ring_map(self, pair):
        a, b = pair
        assert substitute_x(bi_mul(a, b)) == uni_mul(substitute_x(a), substitute_x(b))
        assert substitute_x(bi_add(a, b)) == uni_add(substitute_x(a), substitute_x(b))
