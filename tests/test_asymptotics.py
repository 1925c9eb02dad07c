import pytest

from gfenum.asymptotics import (
    asymptotic_report,
    growth_constant,
    growth_constant_from_series,
    growth_root,
    ratio_table,
)
from gfenum.generators import p_closed_form, primitive_counts
from gfenum.series import UniSeries

from literals import GROWTH_CONSTANT, GROWTH_ROOT
from oracles import uni_inverse, uni_mul


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


class TestGrowthConstant:
    def test_matches_published_digits(self):
        assert abs(growth_constant() - GROWTH_CONSTANT) < 1e-11

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
        gf = p_closed_form()
        for n in (40, 200):
            oracle = UniSeries.from_terms(n, dict(gf.numerator))
            for factor in gf.denominator_factors:
                oracle = uni_mul(oracle, uni_inverse(UniSeries.from_terms(n, dict(factor))))
            assert gf.expand(n) == oracle


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
