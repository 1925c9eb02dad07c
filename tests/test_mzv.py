from fractions import Fraction
from unittest import mock

import pytest

from gfenum import transforms
from gfenum.mzv import (
    _MZV_DENOMINATOR,
    _MZV_NUMERATOR,
    DEPTH_DIAGONAL_CHECKED_MAX,
    CrossCheckError,
    _cross_check_diagonals,
    build_mzv_rhs,
    mzv_counts,
)
from gfenum.series import IndexOutOfRange
from gfenum.transforms import NonIntegerExponent, _peel_rational, euler_expand

from literals import DEPTH_DIAGONAL_7
from oracles import (
    PRODUCT_PLAIN,
    bi_from_terms,
    bi_x0_row,
    build_eul_rhs,
    build_eul_rhs_dense,
    build_mzv_rhs_dense,
    nonzero_terms,
    peel_bi,
    peel_uni,
    product_oracle,
    push_exponents,
    uni_from_terms,
)


class TestGenerators:
    def test_zeta_rhs_slice_at_x_zero(self):
        rhs = build_mzv_rhs(23)
        assert bi_x0_row(rhs) == uni_from_terms(7, {0: 1, 1: -1, 4: -1})

    def test_zeta_rhs_low_terms(self):
        rhs = build_mzv_rhs(18)
        assert rhs[(0, 0)] == 1
        assert rhs[(0, 1)] == -1

    def test_euler_rhs_structure(self):
        rhs = build_eul_rhs(24)
        for j in range(len(rhs.coeffs)):
            if 2 * j + 3 <= 24:
                assert rhs[(j, 1)] == -1
        for j, k, _ in nonzero_terms(rhs):
            assert k <= 1

    @pytest.mark.parametrize("weight", [0, 3, 12, 36, 60])
    def test_both_sides_match_the_dense_assembly(self, weight):
        assert build_mzv_rhs(weight) == build_mzv_rhs_dense(weight)
        assert build_eul_rhs(weight) == build_eul_rhs_dense(weight)


class TestCounts:
    def test_deep_confirmed_value(self):
        assert mzv_counts(23).mzv_count(23, 7) == 4

    def test_weight_twelve_split(self):
        counts = mzv_counts(23)
        assert counts.mzv_count(12, 4) == 1
        assert counts.euler_count(12, 4) == 0
        # the depth-4 irreducible is traded for an extra depth-2 Euler sum
        assert counts.mzv_count(12, 2) == 1
        assert counts.euler_count(12, 2) == 2

    def test_counts_are_prefix_stable(self):
        # the log-derivative peel visits monomials by increasing weight;
        # both cold, since the cache itself serves smaller sizes as cuts
        deep, shallow = mzv_counts.__wrapped__(60), mzv_counts.__wrapped__(30)
        assert {k: v for k, v in deep.mzv.items() if k[0] <= 30} == shallow.mzv
        assert {k: v for k, v in deep.euler.items() if k[0] <= 30} == shallow.euler

    def test_tables_agree_through_weight_eleven(self):
        counts = mzv_counts(23)
        for w, d in counts.mzv:
            if w <= 11:
                assert counts.mzv_count(w, d) == counts.euler_count(w, d)
        differing = sorted(w for w, d in counts.mzv
                           if counts.mzv_count(w, d) != counts.euler_count(w, d))
        assert differing[0] == 12

    @pytest.mark.parametrize("weight", [3, 8, 23, 60])
    def test_grid_is_the_weight_depth_triangle(self, weight):
        explicit = sorted(
            (2 * j + 3 * d, d)
            for d in range(1, weight // 3 + 1)
            for j in range((weight - 3 * d) // 2 + 1)
        )
        counts = mzv_counts(weight)
        assert list(counts.mzv) == explicit
        assert sorted(counts.euler) == explicit

    def test_depth_sums_agree_at_every_weight(self):
        # forgetting depth sends both product sides to (1 - X**2 - X**3)/(1 - X**2)
        counts = mzv_counts(48)
        for w in range(3, 49):
            depths = range(1, w // 3 + 1)
            assert sum(counts.mzv_count(w, d) for d in depths) == sum(
                counts.euler_count(w, d) for d in depths
            ), w

    def test_forgetting_depth_gives_the_padovan_numbers(self):
        # Y = 1 (Broadhurst-Kreimer): with D_2 = 1 for zeta(2), the Euler
        # transform of the depth sums is Zagier's 1/(1 - X**2 - X**3)
        padovan = [1, 0, 1]
        while len(padovan) <= 60:
            padovan.append(padovan[-2] + padovan[-3])
        counts = mzv_counts(60)
        for table in (counts.mzv, counts.euler):
            depth_sums = {2: 1}
            for (w, _), e in table.items():
                depth_sums[w] = depth_sums.get(w, 0) + e
            assert list(euler_expand(depth_sums, 1, 60).coeffs) == padovan

    def test_depth_one_counts(self):
        counts = mzv_counts(23)
        assert [counts.mzv_count(w, 1) for w in range(3, 22, 2)] == [1] * 10
        assert [counts.euler_count(w, 1) for w in range(3, 22, 2)] == [1] * 10

    @pytest.mark.parametrize("weight", [0, 1, 2])
    def test_weights_below_three_give_empty_tables(self, weight):
        # no count lives below weight 3, so the depth-1 cross-check has nothing to read
        counts = mzv_counts(weight)
        assert dict(counts.mzv) == dict(counts.euler) == {}
        assert counts.mzv_count(weight, 1) == 0

    def test_off_grid_lookups(self):
        counts = mzv_counts(23)
        assert counts.mzv_count(10, 3) == 0  # parity excludes (10, 3)
        assert counts.mzv_count(5, 2) == 0  # below minimum weight 3d
        assert counts.euler_count(9, 0) == counts.mzv_count(-3, -1) == 0  # depth below 1
        with pytest.raises(IndexOutOfRange):
            counts.mzv_count(24, 1)

    def test_reexpansion_reproduces_both_generators(self):
        counts = mzv_counts(23)
        for table, rhs in ((counts.mzv, build_mzv_rhs(23)), (counts.euler, build_eul_rhs(23))):
            exponents = {((w - 3 * d) // 2, d): e for (w, d), e in table.items() if e}
            assert product_oracle(exponents, 2, 3, 23, 1) == rhs  # plain product: power +e


    def test_tables_match_the_push_form_peel_through_the_cli_maximum(self):
        # the oracle inverts the same log-derivative grids monomial by monomial, in weight order
        for weight in [*range(151), 300]:
            counts = mzv_counts.__wrapped__(weight)
            with mock.patch.object(transforms, "_exponents", push_exponents):
                expected = mzv_counts.__wrapped__(weight)
            assert list(counts.mzv.items()) == list(expected.mzv.items()), weight
            assert list(counts.euler.items()) == list(expected.euler.items()), weight


class TestDepthDiagonal:
    def test_matches_the_univariate_peel(self):
        counts = mzv_counts(36)
        quadrinacci = uni_from_terms(12, {0: 1, 1: -1, 4: -1})
        exponents = peel_uni(quadrinacci, PRODUCT_PLAIN)
        for d in range(1, 13):
            assert counts.mzv_count(3 * d, d) == exponents.get(d, 0)

    def test_checked_range_values(self):
        counts = mzv_counts(21)
        assert [counts.mzv_count(3 * d, d) for d in range(1, 8)] == DEPTH_DIAGONAL_7
        assert DEPTH_DIAGONAL_CHECKED_MAX == 7

    def test_slice_peel_equals_diagonal(self):
        rhs = build_mzv_rhs(36)
        exponents = peel_uni(bi_x0_row(rhs), PRODUCT_PLAIN)
        counts = mzv_counts(36)
        for d in range(1, 13):
            assert exponents.get(d, 0) == counts.mzv_count(3 * d, d)


class TestConsistencyGuards:
    @pytest.mark.parametrize(
        "cell, message",
        [
            ((5, 1), "depth-1 count at weight 5 is off"),
            ((10, 2), "depth-2 count at weight 10 is off"),
            ((13, 3), "depth-3 offset at weight 13 is off"),
            ((6, 2), "depth-2 count at weight 6 should vanish"),
            ((11, 3), "depth-3 count at weight 11 should match depth 2 at weight 8"),
        ],
        ids=["w5d1", "w10d2", "w13d3", "w6d2", "w11d3"],
    )
    def test_cross_check_rejects_a_corrupted_table(self, cell, message):
        # the check reads the zeta-value peel rows, D(w, d) at rows[(w - 3d) // 2][d]
        rows = _peel_rational(_MZV_NUMERATOR, _MZV_DENOMINATOR, 2, 3, 23)
        _cross_check_diagonals(rows, 23)
        w, d = cell
        rows[(w - 3 * d) // 2][d] += 1
        with pytest.raises(CrossCheckError, match=f"^{message}$"):
            _cross_check_diagonals(rows, 23)

    @pytest.mark.parametrize("weight", [23, 24])
    @pytest.mark.parametrize("depth, message", [(1, "depth-1 count"), (2, "depth-2 count"),
                                                (3, "depth-3 offset")])
    def test_cross_check_reads_each_diagonal_to_the_weight_bound(self, weight, depth, message):
        rows = _peel_rational(_MZV_NUMERATOR, _MZV_DENOMINATOR, 2, 3, weight)
        last = weight - (weight - depth) % 2  # the last weight of that depth's diagonal
        rows[(last - 3 * depth) // 2][depth] -= 1
        with pytest.raises(CrossCheckError, match=f"^{message} at weight {last} is off$"):
            _cross_check_diagonals(rows, weight)

    def test_fractional_input_propagates(self):
        series = bi_from_terms(2, 3, 9, {(0, 0): 1, (0, 1): Fraction(1, 2)})
        with pytest.raises(NonIntegerExponent):
            peel_bi(series, PRODUCT_PLAIN)
