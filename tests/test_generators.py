from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfenum.generators import (
    _BETA_NUMERATOR,
    _B_NUMERATOR,
    UnsupportedDiagonal,
    _expand_rational,
    _expand_uni,
    beta_table,
    build_b,
    floor_formula_col0,
    floor_formula_diag1,
    floor_formula_diag2,
    g_series,
    p_closed,
    p_from_b,
    primitive_counts,
)
from gfenum.mzv import _MZV_NUMERATOR
from gfenum.series import BiSeries, IndexOutOfRange

from literals import P20, TABLE1, TALLIES, table1_cells
from oracles import (
    UnsupportedColumn,
    beta_rows_from_b,
    bi_from_terms,
    bi_inverse,
    bi_mul,
    build_b_dense,
    h_series,
    nonzero_terms,
    substitute_x,
    times,
    uni_from_terms,
    uni_inverse,
    uni_mul,
)


class TestBuildB:
    def test_known_coefficients(self):
        assert build_b(5)[(1, 3)] == 1  # beta(5, 2) = 2
        assert build_b(8)[(4, 0)] == 0  # beta(8, 8) = 1
        assert build_b(12)[(3, 6)] == 14  # beta(12, 6) = 15

    def test_coefficients_are_nonnegative_integers(self):
        b = build_b(20)
        for _, _, c in nonzero_terms(b):
            assert isinstance(c, int) and c > 0

    def test_top_row_vanishes(self):
        # beta(2j, 2j) = 1, so the stored k = 0 row is identically zero
        b = build_b(16)
        assert all(b[(j, 0)] == 0 for j in range(len(b.coeffs)))

    def test_substitution_collects_table_row(self):
        # the y**5 coefficient of the substituted series sums the degree-5
        # row of the grid: (2-1) + (2-1) + (1-1)
        assert substitute_x(build_b(8))[5] == 2

    @pytest.mark.parametrize("weight", [0, 1, 4, 7, 23, 50, 80, 120])
    def test_matches_the_dense_assembly(self, weight):
        assert build_b(weight) == build_b_dense(weight)

    def test_expansion_is_prefix_stable(self):
        # the kernel writes in row-major order, so each row of a deeper
        # expansion, cut to the shallower weight, is the shallower one's row
        for deep, shallow in ((60, 30), (200, 120)):
            deep_rows = build_b.__wrapped__(deep).coeffs
            shallow_rows = build_b.__wrapped__(shallow).coeffs
            assert len(shallow_rows) == shallow // 2 + 1
            for j, row in enumerate(shallow_rows):
                assert deep_rows[j][: shallow - 2 * j + 1] == row, (deep, j)


class TestBetaTable:
    def test_reproduces_the_published_grid(self):
        table = beta_table(14)
        for m, u, value in table1_cells():
            assert table.get(m, u) == value, (m, u)

    def test_spot_values(self):
        table = beta_table(15)
        assert table.get(10, 4) == 8
        assert table.get(7, 3) == 0
        assert table.get(15, 10) == 28

    def test_conventions(self):
        table = beta_table(12)
        assert table.get(0, 0) == 1
        assert table.get(1, 2) == 1
        for j in range(7):
            assert table.get(2 * j, 2 * j) == 1
        for m in range(13):
            for u in range(1, m + 1, 2):
                assert table.get(m, u) == 0

    def test_even_entries_are_positive(self):
        table = beta_table(20)
        for m in range(21):
            for u in range(0, m + 1, 2):
                assert table.get(m, u) >= 1

    @pytest.mark.parametrize("max_m", [0, 1, 2, 12])
    def test_rows_hold_the_even_entries_and_beta_1_2(self, max_m):
        # rows[m][u // 2] is beta(m, u); row 1 also stores beta(1, 2), the one entry with u > m
        table = beta_table.__wrapped__(max_m)
        widths = [2 if m == 1 else m // 2 + 1 for m in range(max_m + 1)]
        assert [len(row) for row in table.rows] == widths
        assert table.rows[1:2] == ((1, 1),)[:max_m]  # (beta(1, 0), beta(1, 2)) once max_m >= 1
        evens = {(m, u): table.get(m, u) for m in range(max_m + 1) for u in range(0, m + 1, 2)}
        assert table.entries == (evens | {(1, 2): 1} if max_m else evens)

    def test_rows_equal_build_b_plus_one(self):
        for max_m in (*range(151), 400):
            assert beta_table.__wrapped__(max_m).rows == beta_rows_from_b(max_m), max_m

    def test_numerator_is_b_plus_one_over_the_common_denominator(self):
        # sum beta(2j + k, 2j) x**j y**k = B + 1/((1 - x)(1 - y)), and over B's denominator
        # 1/((1 - x)(1 - y)) is (1 + x + x**2)(1 - y**2)(1 - y**3)(1 - y - x**2)
        factors = ({(0, 0): 1, (1, 0): 1, (2, 0): 1}, {(0, 0): 1, (0, 2): -1},
                   {(0, 0): 1, (0, 3): -1}, {(0, 0): 1, (0, 1): -1, (2, 0): -1})
        plus_one = reduce(times, factors)
        expected = {key: _B_NUMERATOR.get(key, 0) + plus_one.get(key, 0)
                    for key in _B_NUMERATOR | plus_one}
        assert _BETA_NUMERATOR == {key: c for key, c in expected.items() if c}

    @pytest.mark.parametrize("served", ["cold", "cut"])
    def test_out_of_range_lookups_raise(self, served):
        # get's whole contract: every value it reads, and each error with its message and order
        if served == "cold":
            table = beta_table.__wrapped__(10)
        else:
            beta_table.cache_clear()
            largest = beta_table(30)
            table = beta_table(10)
            assert table.max_m == 10 and table.rows[10] is largest.rows[10]  # a cut sharing rows
        for m in range(11):
            for u in range(m + 1):
                assert table.get(m, u) == (0 if u % 2 else table.rows[m][u // 2]), (m, u)
        assert table.get(1, 2) == 1
        # the degree is checked first, so a bad degree wins over a bad u
        outside = r"^degree {} is outside the table range \[0, {}\]$"
        for m, u in ((11, 0), (-1, 0), (11, -1), (-1, -1)):
            with pytest.raises(IndexOutOfRange, match=outside.format(m, 10)):
                table.get(m, u)
        for m, u in ((5, -2), (1, -2)):
            with pytest.raises(IndexOutOfRange, match=r"^univalent count must be >= 0$"):
                table.get(m, u)
        for m, u in ((5, 6), (0, 2), (1, 4), (1, 3), (2, 4)):
            undefined = rf"^beta\({m}, {u}\) with u > m is undefined$"
            with pytest.raises(IndexOutOfRange, match=undefined):
                table.get(m, u)
        with pytest.raises(IndexOutOfRange, match=outside.format(1, 0)):
            beta_table.__wrapped__(0).get(1, 2)
        for m in (-2, -1, 11):
            with pytest.raises(IndexOutOfRange, match=outside.format(m, 10)):
                table.tally_terms(m)

    def test_column_shift_identity(self):
        # beta(m, 0) == beta(m + 1, 2)
        table = beta_table(20)
        for m in range(2, 20):
            assert table.get(m, 0) == table.get(m + 1, 2)

    def test_row_sums_match_primitive_counts(self):
        table = beta_table(20)
        for m in range(1, 21):
            assert sum(table.tally_terms(m)) == P20[m - 1]

    def test_tally_rows(self):
        table = beta_table(20)
        for m, terms in TALLIES.items():
            assert table.tally_terms(m) == terms


class TestDiagonalsAndColumns:
    def test_first_diagonals(self):
        g1 = g_series(1, 6)
        assert list(g1.coeffs) == [1, 1, 1, 2, 2, 2, 3]
        assert g_series(0, 9).coeffs == (1,) * 10
        assert g_series(2, 6)[6] == 7  # beta(14, 12)
        assert g_series(5, 5)[2] == 6  # beta(9, 4)

    def test_predicted_entries_beyond_the_grid_data(self):
        assert g_series(5, 5)[5] == 28  # beta(15, 10)
        assert g_series(4, 6)[6] == 28  # beta(16, 12)
        assert g_series(3, 8)[8] == 25  # beta(19, 16)

    def test_diagonals_cross_check_the_generator(self):
        table = beta_table(20)
        for k in range(6):
            g = g_series(k, (20 - k) // 2)
            for j in range(g.trunc_order + 1):
                assert g[j] == table.get(2 * j + k, 2 * j), (k, j)

    def test_columns_cross_check_the_generator(self):
        table = beta_table(20)
        for j in range(4):
            h = h_series(j, 20 - 2 * j)
            for k in range(h.trunc_order + 1):
                assert h[k] + 1 == table.get(2 * j + k, 2 * j), (j, k)

    def test_column_values(self):
        assert h_series(1, 11)[11] == 10  # beta(13, 2) = 11
        assert h_series(0, 12)[12] == 10  # beta(12, 0) = 11

    def test_no_closed_forms_beyond_the_fitted_range(self):
        with pytest.raises(UnsupportedDiagonal):
            g_series(6, 5)
        with pytest.raises(UnsupportedColumn):
            h_series(4, 5)


class TestFloorFormulas:
    def test_examples(self):
        assert floor_formula_diag2(6) == 7
        assert floor_formula_col0(12) == 11
        assert floor_formula_diag1(0) == 1

    def test_agree_with_the_table(self):
        table = beta_table(20)
        for j in range(10):
            assert table.get(2 * j + 1, 2 * j) == floor_formula_diag1(j)
        for j in range(10):
            assert table.get(2 * j + 2, 2 * j) == floor_formula_diag2(j)
        for m in range(21):
            assert table.get(m, 0) == floor_formula_col0(m)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            floor_formula_diag1(-1)


class TestPrimitiveSeries:
    @pytest.mark.parametrize("max_m", [1, 2, 3, 4, 40, 400])
    def test_both_routes_agree(self, max_m):
        for cache in (p_from_b, beta_table, build_b, p_closed):
            cache.cache_clear()
        assert p_from_b(max_m) == p_closed(max_m)

    def test_counts_from_the_generator_route(self):
        gap = p_from_b(20)
        assert gap[12] + 1 == 55
        assert gap[1] + 1 == 1
        assert gap[20] + 1 == 726

    def test_counts_from_the_closed_route(self):
        gap = p_closed(17)
        assert gap[4] == 1  # P_4 = 2
        assert gap[14] + 1 == 108
        assert gap[17] + 1 == 284

    def test_closed_route_is_prefix_stable(self):
        assert p_closed.__wrapped__(200).truncate(40) == p_closed.__wrapped__(40)

    def test_twenty_term_sequence(self):
        assert primitive_counts(20) == P20

    def test_published_rows_force_the_numerator(self):
        # through degree 12 the gap coefficients are exactly the proven
        # table row sums minus one
        gap = p_closed(12)
        table = beta_table(12)
        for m in range(1, 13):
            assert gap[m] == sum(table.tally_terms(m)) - 1
            assert sum(table.tally_terms(m)) == sum(TABLE1[m][1:])


class TestExpandUni:
    def test_denominator_factors_must_be_unit(self):
        with pytest.raises(ValueError):
            _expand_uni({0: 1}, [{0: 2, 1: -1}], 0)

    def test_expansion_matches_direct_division(self):
        direct = uni_mul(
            uni_from_terms(12, {4: 1}),
            uni_inverse(
                uni_mul(
                    uni_from_terms(12, {0: 1, 1: -1}),
                    uni_from_terms(12, {0: 1, 2: -1}),
                )
            ),
        )
        assert _expand_uni({4: 1}, [{0: 1, 1: -1}, {0: 1, 2: -1}], 12) == direct

    def test_negative_degrees_rejected(self):
        # the sparse recurrence would silently drop them
        with pytest.raises(ValueError):
            _expand_uni({-1: 1}, [{0: 1, 1: -1}], 0)
        with pytest.raises(ValueError):
            _expand_uni({0: 1}, [{0: 1, -2: 1}], 0)
        with pytest.raises(ValueError, match="truncation order"):
            _expand_uni({0: 1}, [{0: 1, 1: -1}], -1)


@st.composite
def rational_data(draw):
    """Random sparse numerator and unit-constant factors on one of three grids."""
    grid = draw(st.sampled_from(["x2y1", "x2y3", "row"]))
    max_weight = draw(st.integers(0, 24))
    weight_x, weight_y = {"x2y1": (2, 1), "x2y3": (2, 3), "row": (max_weight + 1, 1)}[grid]
    j_st = st.just(0) if grid == "row" else st.integers(0, 5)
    monomial = st.tuples(j_st, st.integers(0, 8))
    coeff = st.integers(-3, 3)
    numerator = draw(st.dictionaries(monomial, coeff, max_size=5))
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        tail = draw(st.dictionaries(monomial.filter(lambda jd: jd != (0, 0)), coeff, max_size=3))
        factors.append({(0, 0): 1, **tail})
    return numerator, factors, weight_x, weight_y, max_weight


# factors for the row-skipping orders: 1 - y (running sums), 1 - y - y**4 (the lag loop),
# 1 - x**3 and 1 - y - x**2
Y1 = {(0, 0): 1, (0, 1): -1}
Y14 = {(0, 0): 1, (0, 1): -1, (0, 4): -1}
X3 = {(0, 0): 1, (3, 0): -1}
COUPLING = {(0, 0): 1, (0, 1): -1, (2, 0): -1}


class TestDivisionKernel:
    @given(rational_data())
    @settings(deadline=None)
    def test_matches_the_dense_product_of_inverses(self, data):
        numerator, factors, wx, wy, w = data
        expected = bi_from_terms(wx, wy, w, numerator)
        for factor in factors:
            expected = bi_mul(expected, bi_inverse(bi_from_terms(wx, wy, w, factor)))
        rows = _expand_rational(numerator, factors, wx, wy, w)
        assert BiSeries(wx, wy, w, tuple(tuple(r) for r in rows)) == expected

    @pytest.mark.parametrize("grid", ["x2y1", "x2y3", "row"])
    @pytest.mark.parametrize(
        "tail",
        [
            {(0, 1): -1},  # 1 - y**k: running sums along each row
            {(0, 4): -1},
            {(0, 12): -1},  # k past the length of the later rows
            {(0, 30): -1},  # k past every row
            {(1, 0): -1},  # 1 - x**k: one row added into another
            {(3, 0): -1},
            {(0, 2): 1},  # the rest take the generic loop
            {(0, 1): -2},
            {(2, 0): 1},
            {(1, 1): -1},
        ],
    )
    def test_single_term_factors_match_the_dense_inverse(self, grid, tail):
        w = 20
        wx, wy = {"x2y1": (2, 1), "x2y3": (2, 3), "row": (w + 1, 1)}[grid]
        numerator = {(0, 0): 1, (0, 1): 2, (1, 0): -1, (1, 2): 3, (2, 1): 1}
        factor = {(0, 0): 1, **tail}
        expected = bi_from_terms(wx, wy, w, numerator)
        for _ in range(2):  # the second pass divides rows the first already divided
            expected = bi_mul(expected, bi_inverse(bi_from_terms(wx, wy, w, factor)))
        rows = _expand_rational(numerator, [factor, factor], wx, wy, w)
        assert BiSeries(wx, wy, w, rows) == expected

    @pytest.mark.parametrize("grid", ["x2y1", "x2y3", "row"])
    @pytest.mark.parametrize(
        "tail",
        [
            pytest.param({(0, 1): -1, (0, 4): -1}, id="1-y-y4"),  # two unit lags
            pytest.param({(0, 1): -1, (2, 0): -1}, id="1-y-x2"),  # a row pass, then running sums
            pytest.param(_MZV_NUMERATOR, id="mzv-numerator"),  # +1 and -1 across rows
            pytest.param({(1, 0): 2, (2, 1): 1}, id="earlier-2-and-plus-1"),
            pytest.param({(1, 12): -1, (0, 2): -1}, id="earlier-past-row-end"),
            pytest.param({(0, 1): -1, (0, 3): 3}, id="same-row-minus-1-and-3"),
        ],
    )
    def test_multi_term_factors_match_the_dense_inverse(self, grid, tail):
        self.test_single_term_factors_match_the_dense_inverse(grid, tail)

    @pytest.mark.parametrize("grid", ["x2y1", "x2y3", "row"])
    @pytest.mark.parametrize(
        "factors",
        [
            pytest.param([Y1, Y14, X3, COUPLING], id="y-only-first"),
            pytest.param([X3, Y1, Y14], id="x-factor-first"),
            pytest.param([Y1, X3, Y14], id="y-only-after-x"),
        ],
    )
    def test_rows_past_the_numerator_wait_for_an_x_factor(self, grid, factors):
        # y-only factors before the first x-factor divide rows 0-2 only
        w = 24
        wx, wy = {"x2y1": (2, 1), "x2y3": (2, 3), "row": (w + 1, 1)}[grid]
        numerator = {(0, 0): 1, (0, 3): -2, (1, 1): 3, (2, 0): 1, (2, 2): -1}
        expected = bi_from_terms(wx, wy, w, numerator)
        for factor in factors:
            expected = bi_mul(expected, bi_inverse(bi_from_terms(wx, wy, w, factor)))
        rows = _expand_rational(numerator, factors, wx, wy, w)
        assert BiSeries(wx, wy, w, rows) == expected

    def test_factors_must_have_unit_constant_term(self):
        for factor in ({(0, 0): 2, (0, 1): -1}, {(0, 1): -1}, {(0, 0): -1, (1, 0): 1}):
            with pytest.raises(ValueError, match="constant term 1"):
                _expand_rational({(0, 0): 1}, [factor], 2, 1, 6)

    def test_negative_exponents_are_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            _expand_rational({(0, -1): 1}, [], 2, 1, 6)
        with pytest.raises(ValueError, match="negative"):
            _expand_rational({(0, 0): 1}, [{(0, 0): 1, (-1, 2): 1}], 2, 1, 6)
