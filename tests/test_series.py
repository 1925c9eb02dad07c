import pytest

import gfenum
from gfenum.series import BiSeries, IndexOutOfRange, UniSeries, WeightMismatch

from oracles import bi_from_terms, bi_one, bi_zero, uni_from_terms, uni_one, uni_zero


class TestUniSeries:
    def test_read_outside_truncation_is_an_error(self):
        a = uni_one(4)
        with pytest.raises(IndexOutOfRange):
            a[5]
        with pytest.raises(IndexOutOfRange):
            a[-1]


class TestBiSeries:
    def test_read_outside_triangle_is_an_error(self):
        a = bi_one(2, 1, 6)
        with pytest.raises(IndexOutOfRange):
            a[(2, 3)]  # weight 7 > 6
        with pytest.raises(IndexOutOfRange):
            a[(-1, 0)]


class TestSubstitution:
    def test_monomial_maps_to_total_weight(self):
        a = bi_from_terms(2, 1, 5, {(1, 1): 1})
        assert a.substitute_x() == uni_from_terms(5, {3: 1})

    def test_zero_maps_to_zero(self):
        assert bi_zero(2, 1, 5).substitute_x() == uni_zero(5)

    def test_requires_weights_two_one(self):
        with pytest.raises(WeightMismatch):
            bi_one(2, 3, 6).substitute_x()


class TestContainersOnly:
    # series are expanded by the kernels; their algebra and the constructors
    # that only tests need are plain functions in the test oracles
    REMOVED = {
        UniSeries: ("from_coeffs", "from_terms", "one", "zero", "__add__", "__sub__", "__neg__"),
        BiSeries: (
            "from_terms", "one", "zero", "__add__", "__sub__", "__neg__", "slice_y", "slice_x",
            "k_limit", "j_limit", "_check_weights",
        ),
    }

    def test_the_library_has_no_dense_algebra(self):
        for cls in (UniSeries, BiSeries):
            for name in ("__mul__", "__truediv__", "inverse"):
                assert not hasattr(cls, name), (cls.__name__, name)
        assert not hasattr(gfenum, "ZeroConstantTerm")
        assert "ZeroConstantTerm" not in gfenum.__all__

    @pytest.mark.parametrize("cls", [UniSeries, BiSeries], ids=lambda cls: cls.__name__)
    def test_the_containers_have_no_arithmetic_or_test_only_constructors(self, cls):
        for name in self.REMOVED[cls]:
            assert not hasattr(cls, name), (cls.__name__, name)
