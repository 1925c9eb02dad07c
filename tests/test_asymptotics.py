import math
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfenum import asymptotics
from gfenum.asymptotics import (
    _EXACT_BELOW,
    _PERIODIC,
    _POLE,
    _pole_window,
    asymptotic_report,
    growth_constant,
    growth_constant_from_series,
    growth_root,
    max_ratio_degree,
    ratio_table,
)
from gfenum.generators import _P_FACTORS, _P_NUMERATOR, p_closed, primitive_counts

from literals import GROWTH_CONSTANT, GROWTH_ROOT
from oracles import scaled_floats, series_constant, uni_from_terms, uni_inverse, uni_mul


@pytest.fixture(scope="module")
def gaps():
    """c_0 .. c_20001 of the closed form, expanded apart from p_closed's cache."""
    return p_closed.__wrapped__(20001).coeffs


def _pole_part(size):
    """a_0 .. a_size by the forward recurrence a_m = a_{m-1} + a_{m-4}, from the pole data."""
    a = list(accumulate(_POLE))
    for m in range(4, size + 1):
        a.append(a[m - 1] + a[m - 4])
    return a[: size + 1]


def _periodic_part(m):
    """e_m, where 72 * e_m = 49m**3 - 490m**2 + b*m + g, (g, b) = _PERIODIC[m % 6], exactly."""
    g, b = _PERIODIC[m % 6]
    e, rest = divmod(49 * m ** 3 - 490 * m ** 2 + b * m + g, 72)
    assert rest == 0, m
    return e


def _traced_route(terms):
    """The route's value and its scaled terms in increasing m, as its math.ldexp returns them."""
    seen = []

    def ldexp(x, i):
        seen.append(math.ldexp(x, i))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        spy = SimpleNamespace(log2=math.log2, floor=math.floor, ldexp=ldexp)
        patch.setattr(asymptotics, "math", spy)
        try:
            value = growth_constant_from_series(terms)
        except OverflowError as exc:
            return type(exc), None
    return value, [x.hex() for x in reversed(seen)]


def _rescaled(coeffs, scale):
    """The hex of every rescaled float, or the exception when one is past the float range."""
    try:
        return [x.hex() for x in scaled_floats(coeffs, scale)]
    except OverflowError as exc:
        return type(exc)


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
        assert peak < 64 * 2 ** 10  # measured: 20 KiB
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


_RANDOM_TERMS = random.Random(29).sample(range(6034, 20002), 3)


class TestPoleSplit:
    def test_split_matches_the_closed_expansion(self, gaps):
        # 49 * c_m = a_m + e_m: the pole part A/Q and the periodic part over
        # (1-y)(1-y**2)(1-y**3)(1-y**6) of the closed form, from m = 2 on
        a = _pole_part(20000)
        assert gaps[0] == gaps[1] == 0
        assert [m for m in range(2, 20001) if 49 * gaps[m] != a[m] + _periodic_part(m)] == []

    @pytest.mark.parametrize("top", [*range(9), _EXACT_BELOW, 455, 6034, 20000])
    def test_pole_window_matches_the_forward_recurrence(self, top):
        # below 3 the window reaches a_{-1} .. a_{-3}, the recurrence run backward
        a = _pole_part(max(top, 3))
        before = [a[3] - a[2], a[2] - a[1], a[1] - a[0]]
        extended = before[::-1] + a
        assert _pole_window(top) == tuple(extended[top + 3 - k] for k in range(4))

    def test_periodic_part_is_nonnegative_from_eleven(self):
        """e_m < 0 exactly for 2 <= m <= 10.

        72 * e_m = 49m**2 (m - 10) + b*m + g, and every b >= 336 and g >= -8534,
        so from m = 11 on it is at least 49m**2 + 336m - 8534 >= 1091.
        """
        assert [m for m in range(2, 2000) if _periodic_part(m) < 0] == list(range(2, 11))
        assert min(b for _, b in _PERIODIC) == 336 and min(g for g, _ in _PERIODIC) == -8534

    def test_window_bound_holds_from_the_threshold(self):
        """0 <= e_m < 2**t with t = bits(a_m) - 134 for every m >= _EXACT_BELOW, not at one less.

        Checked directly through m = 2,000.  Beyond, by growth: e_m < m**3, as
        72 * e_m <= 49m**3 - 490m**2 + 623m; a_m >= 2 a_{m-4}, as a increases, so
        t gains at least one every four steps; and (m + 4)**3 < 2 m**3 from m = 16
        on.  So m**3 <= 2**t at four consecutive m >= 16 holds at every later m.
        """
        a = _pole_part(2000)

        def bound(m):
            return 1 << (a[m].bit_length() - 134)

        assert not 0 <= _periodic_part(_EXACT_BELOW - 1) < bound(_EXACT_BELOW - 1)
        assert all(0 <= _periodic_part(m) < bound(m) for m in range(_EXACT_BELOW, 2001))
        assert all(m ** 3 <= bound(m) for m in range(1997, 2001))
        assert max(b for _, b in _PERIODIC) == 623 and max(g for g, _ in _PERIODIC) < 0

    @pytest.mark.parametrize("terms", [6034, 6035, 8000, 14000, 20000, 20001, *_RANDOM_TERMS])
    def test_route_matches_the_first_form(self, gaps, terms):
        # term by term too: at 20,000 terms one term in all of them, m = 16,701,
        # shows the 65-bit quotient cut to 64 bits before it is rounded
        value, seen = _traced_route(terms)
        assert value.hex() == series_constant(gaps[: terms + 1], growth_root()).hex()
        assert seen == _rescaled(gaps[: terms + 1], 0.70)

    @pytest.mark.parametrize(
        "guard, fewest, most",
        [(asymptotics._GUARD, _EXACT_BELOW, _EXACT_BELOW), (0, 6035, 6035), (1, _EXACT_BELOW + 1, 6034)],
    )
    def test_an_all_ones_guard_takes_the_exact_path(self, gaps, guard, fewest, most):
        # A guard of 0 reads as all ones at every term, so every term is cut from c_m
        # computed exactly; a guard of 1 does so wherever bit t of a_m is set.  The
        # exact path reads _PERIODIC once per term; the fast path never does.
        a = _pole_part(6034)
        exact = [m for m in range(6034, -1, -1) if m < _EXACT_BELOW
                 or (a[m] >> (a[m].bit_length() - 134)) & guard == guard]
        read = []

        class Periodic(tuple):
            def __getitem__(self, i):
                read.append(i)
                return tuple.__getitem__(self, i)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(asymptotics, "_GUARD", guard)
            patch.setattr(asymptotics, "_PERIODIC", Periodic(_PERIODIC))
            value, terms = _traced_route(6034)
        assert read == [m % 6 for m in exact] and fewest <= len(read) <= most
        assert terms == _rescaled(gaps[:6035], 0.70)
        assert value.hex() == "0x1.100621b2770b5p+0"


class TestScaledFloats:
    @given(st.integers(6034, 8000), st.floats(2.0 ** -60, 0.99))
    @example(6034, 0.70)
    @example(8000, 2.0 ** -10)
    @settings(deadline=None)
    def test_route_terms_match_the_first_form_bit_for_bit(self, gaps, terms, scale):
        # every rescaled term of the route, read at its math.ldexp, against the first form;
        # from about scale 0.7245 = 1/r on, both run past the float range
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(asymptotics, "_SCALE", scale)
            value, seen = _traced_route(terms)
        expected = _rescaled(gaps[: terms + 1], scale)
        assert (value if expected is OverflowError else seen) == expected


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
        numerator = dict(enumerate(_POLE))  # 49A, A = (22y**3 + 46y**2 + 16y + 51)/49
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
