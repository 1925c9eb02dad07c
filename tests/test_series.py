import pytest

import gfenum
from gfenum.series import BiSeries, IndexOutOfRange, UniSeries, WeightMismatch


class TestUniSeries:
    def test_read_outside_truncation_is_an_error(self):
        a = UniSeries.one(4)
        with pytest.raises(IndexOutOfRange):
            a[5]
        with pytest.raises(IndexOutOfRange):
            a[-1]

    def test_results_take_minimum_truncation(self):
        a, b = UniSeries.one(9), UniSeries.one(4)
        assert (a + b).trunc_order == 4


class TestBiSeries:
    def test_results_take_minimum_weight(self):
        a, b = BiSeries.one(2, 1, 9), BiSeries.one(2, 1, 4)
        assert (a + b).max_weight == 4

    def test_sum_weight_mismatch(self):
        with pytest.raises(WeightMismatch):
            BiSeries.one(2, 1, 6) + BiSeries.one(2, 3, 6)

    def test_read_outside_triangle_is_an_error(self):
        a = BiSeries.one(2, 1, 6)
        with pytest.raises(IndexOutOfRange):
            a[(2, 3)]  # weight 7 > 6
        with pytest.raises(IndexOutOfRange):
            a[(-1, 0)]


class TestSubstitution:
    def test_monomial_maps_to_total_weight(self):
        a = BiSeries.from_terms(2, 1, 5, {(1, 1): 1})
        assert a.substitute_x() == UniSeries.from_terms(5, {3: 1})

    def test_zero_maps_to_zero(self):
        assert BiSeries.zero(2, 1, 5).substitute_x() == UniSeries.zero(5)

    def test_requires_weights_two_one(self):
        with pytest.raises(WeightMismatch):
            BiSeries.one(2, 3, 6).substitute_x()


class TestSlices:
    def test_slice_of_zero_series(self):
        z = BiSeries.zero(2, 1, 6)
        assert z.slice_x(1) == UniSeries.zero(4)
        assert z.slice_y(2) == UniSeries.zero(2)

    def test_slice_truncations_follow_weight_budget(self):
        a = BiSeries.one(2, 1, 9)
        assert a.slice_x(0).trunc_order == 9
        assert a.slice_x(3).trunc_order == 3
        assert a.slice_y(5).trunc_order == 2

    def test_slice_index_out_of_range(self):
        a = BiSeries.one(2, 1, 6)
        with pytest.raises(IndexOutOfRange):
            a.slice_x(4)
        with pytest.raises(IndexOutOfRange):
            a.slice_y(7)


class TestContainersOnly:
    def test_the_library_has_no_dense_algebra(self):
        # series are expanded by the kernels; products and inverses are test oracles
        for cls in (UniSeries, BiSeries):
            for name in ("__mul__", "__truediv__", "inverse"):
                assert not hasattr(cls, name), (cls.__name__, name)
        assert not hasattr(gfenum, "ZeroConstantTerm")
        assert "ZeroConstantTerm" not in gfenum.__all__
