import math
import operator
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfenum.asymptotics import (
    _gap_coeffs,
    _scaled_floats,
    asymptotic_report,
    growth_constant,
    growth_constant_from_series,
    growth_root,
    max_ratio_degree,
    ratio_table,
)
from gfenum.generators import _P_FACTORS, _P_NUMERATOR, _one_minus, p_closed, primitive_counts

from literals import GROWTH_CONSTANT, GROWTH_ROOT
from oracles import scaled_floats, uni_from_terms, uni_inverse, uni_mul


class TestGrowthRoot:
    def test_bracket_is_valid(self):
        assert (1.0 ** 4 - 1.0 ** 3 - 1.0) < 0 < (2.0 ** 4 - 2.0 ** 3 - 1.0)

    def test_matches_published_digits(self):
        assert abs(growth_root() - GROWTH_ROOT) < 1e-12

    def test_residuals(self):
        r = growth_root()
        assert abs(r ** 4 - r ** 3 - 1.0) < 1e-13
        assert abs(1.0 - 1.0 / r - 1.0 / r ** 4) < 1e-13

    def test_root_is_in_range(self):
        assert 1.0 < growth_root() < 2.0

    def test_root_bits_are_pinned(self):
        assert growth_root().hex() == "0x1.6159deeaad37dp+0"


class TestGrowthConstant:
    def test_matches_published_digits(self):
        assert abs(growth_constant() - GROWTH_CONSTANT) < 1e-11

    def test_constant_bits_are_pinned(self):
        assert growth_constant().hex() == "0x1.1006e9d09c523p+0"

    def test_pinned_constant_is_one_ulp_above_the_certified_value(self):
        # bracket r * 2**200 between consecutive integers by bisection on
        # r**4 - r**3 - 1, then evaluate the residue C = A(1/r) * r**4 / (r**3 + 4),
        # A(y) = (22y**3 + 46y**2 + 16y + 51)/49, exactly at both ends
        scale = 1 << 200
        lo, hi = scale, 2 * scale
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if mid ** 4 - mid ** 3 * scale - scale ** 4 < 0:
                lo = mid
            else:
                hi = mid

        def residue(r):
            y = 1 / r
            return (22 * y ** 3 + 46 * y ** 2 + 16 * y + 51) / 49 * r ** 4 / (r ** 3 + 4)

        ends = [float(residue(Fraction(n, scale))) for n in (lo, hi)]
        certified = float.fromhex("0x1.1006e9d09c522p+0")
        assert ends == [certified, certified]
        assert growth_constant() == math.nextafter(certified, math.inf)

    def test_series_extrapolation_route_agrees(self):
        assert abs(growth_constant_from_series() - growth_constant()) < 1e-10

    @pytest.mark.parametrize("terms", [0, 10, 6033])
    def test_series_route_rejects_a_tail_above_its_bound(self, terms):
        # (1 - r * 0.08 * 0.65**9)**terms exceeds 1e-6 below 6,034 terms
        with pytest.raises(ValueError, match="tail bound"):
            growth_constant_from_series(terms)

    def test_series_route_accepts_its_minimum(self):
        assert abs(growth_constant_from_series(6034) - growth_constant()) < 1e-4

    def test_gap_recurrence_matches_the_closed_expansion(self):
        # the sparse recurrence against dense inverse-then-multiply products
        for n in (40, 200):
            oracle = uni_from_terms(n, _P_NUMERATOR)
            for factor in _P_FACTORS:
                oracle = uni_mul(oracle, uni_inverse(uni_from_terms(n, factor)))
            assert p_closed(n) == oracle

    def test_closed_expansion_satisfies_its_recurrence_far_out(self):
        # D = prod(_P_FACTORS) multiplied out densely; sum_k D_k * a_{n-k} = N_n for all n
        denominator = uni_from_terms(16, {0: 1})
        for factor in _P_FACTORS:
            denominator = uni_mul(denominator, uni_from_terms(16, factor))
        lags = [(k, c) for k, c in enumerate(denominator.coeffs) if c]
        assert len(lags) == 15 and lags[-1][0] == 16
        a = p_closed(20000).coeffs
        wrong = [
            n for n in range(len(a))
            if sum(c * a[n - k] for k, c in lags if k <= n) != _P_NUMERATOR.get(n, 0)
        ]
        assert wrong == []

    def test_gap_stream_matches_the_closed_expansion(self):
        # the window hard-codes the last factor's lags; a reordered _P_FACTORS must fail here
        assert _P_FACTORS[-1] == _one_minus(1, 4)
        for n in range(9):  # the window's start-up; p_closed starts at max_m = 1
            assert tuple(_gap_coeffs(n)) == p_closed(8).coeffs[: n + 1]
        for n in (40, 2000):
            assert tuple(_gap_coeffs(n)) == p_closed(n).coeffs

    def test_series_route_holds_no_expansion_and_fills_no_cache(self):
        # the whole 20,000-term expansion is 13.2 MiB of big integers
        growth_root()
        p_closed.cache_clear()
        tracemalloc.start()
        try:
            growth_constant_from_series(20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        assert p_closed.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "terms, bits",
        [
            (6034, "0x1.100621b2770b5p+0"),
            (8000, "0x1.1006e797d28fbp+0"),
            (14000, "0x1.1006e9d0a1a03p+0"),
            (20000, "0x1.1006e9d0a1c00p+0"),
        ],
    )
    def test_series_route_bits_are_pinned(self, terms, bits):
        assert growth_constant_from_series(terms).hex() == bits


def _bits(n):
    return st.integers(2 ** (n - 1), 2 ** n - 1)


_MAGNITUDE = st.one_of(
    st.just(0), st.integers(1, 2 ** 62), _bits(63), _bits(64), _bits(65), _bits(1025),
    st.integers(2 ** 1025, 2 ** 3000),
)


def _rescaled(scale_floats, coeffs, scale):
    """The hex of every rescaled float, or the exception when one is past the float range."""
    try:
        return [x.hex() for x in scale_floats(coeffs, scale)]
    except OverflowError as exc:
        return type(exc)


class TestScaledFloats:
    @given(
        st.lists(st.builds(operator.mul, _MAGNITUDE, st.sampled_from([1, -1])), max_size=40),
        st.floats(2.0 ** -60, 0.99),
    )
    @example((0,) * 30 + (2 ** 1100 + 12345, -(2 ** 1030), 2 ** 64 - 1, 0, -(2 ** 63)), 2.0 ** -10)
    # 65 bits whose cut to 64 (then 63) bits rounds to a different double than one bit more
    @example((2 ** 64 + 2 ** 11 + 1, 2 ** 64 + 2 ** 11 + 2), 0.5)
    @settings(deadline=None)
    def test_matches_the_first_form_bit_for_bit(self, coeffs, scale):
        coeffs = tuple(coeffs)
        expected = _rescaled(scaled_floats, coeffs, scale)
        assert _rescaled(_scaled_floats, coeffs, scale) == expected
        # the series route passes a one-shot generator, not a tuple
        assert _rescaled(_scaled_floats, iter(coeffs), scale) == expected


class TestConvergence:
    def test_ratio_examples(self):
        counts = primitive_counts(20)
        assert (counts[11], counts[10]) == (55, 39)
        assert (counts[19], counts[18]) == (726, 532)
        assert abs(counts[11] / counts[10] - 1.410) < 1e-3
        assert abs(counts[19] / counts[18] - 1.365) < 1e-3

    def test_first_ratio_entry(self):
        table = ratio_table(5)
        assert table[0] == (1, 1.0 / growth_root())

    def test_tail_converges_monotonically(self):
        report = asymptotic_report(40)
        gaps = [abs(ratio - report.constant) for _, ratio in report.ratios]
        assert all(gaps[m] > gaps[m + 1] for m in range(30, 39))

    def test_degree_forty_gap(self):
        # the degree-40 ratio still sits about 1.7e-3 above the limit; the
        # error decays like m**3 / r**m, so this shrinks by ~0.79 per degree
        r = growth_root()
        p40 = primitive_counts(40)[-1]
        gap = abs(p40 / r ** 40 - growth_constant())
        assert gap < 2e-3

    def test_degree_forty_gap_is_the_periodic_part(self):
        # Partial fractions split the gap series into A/Q, Q = 1 - y - y**4,
        # which carries the pole, and a part over (1-y)(1-y**2)(1-y**3)(1-y**6)
        # whose coefficients q(m) are, from m = 2 on, a cubic quasi-polynomial
        # of period 6, so their 6-step fourth differences vanish.  A/Q gives
        # C * r**m plus terms from the other roots of Q, which decay, so the
        # criterion-9 gap P_40/r**40 - C is (1 + q(40))/r**40 up to those.
        numerator = {0: 51, 1: 16, 2: 46, 3: 22}  # A = (22y**3 + 46y**2 + 16y + 51)/49
        size = 70
        a: list[Fraction] = []
        for m in range(size + 1):
            a.append(Fraction(numerator.get(m, 0), 49) + sum(a[m - d] for d in (1, 4) if d <= m))
        counts = [None] + primitive_counts(size)
        q = [None] + [counts[m] - 1 - a[m] for m in range(1, size + 1)]
        for m in range(2, size - 23):
            assert q[m + 24] - 4 * q[m + 18] + 6 * q[m + 12] - 4 * q[m + 6] + q[m] == 0
        assert 1 + q[40] == Fraction(32882, 49)
        r = growth_root()
        gap = counts[40] / r ** 40 - growth_constant()
        assert abs(gap - (32882 / 49) / r ** 40) < 1e-7


class TestRatioLimit:
    def test_largest_degree_is_where_r_to_the_m_stays_finite(self):
        assert max_ratio_degree() == 2202
        assert ratio_table(2202)[-1][0] == 2202

    @pytest.mark.parametrize("max_m", [1, 2203])
    def test_sizes_outside_the_range_are_rejected(self, max_m):
        with pytest.raises(ValueError, match=r"max_m must be in \[2, 2202\]"):
            ratio_table(max_m)
