"""The grow-once caches of build_b, p_closed, p_from_b, beta_table and mzv_counts are invisible.

Each is a functools.lru_cache that keeps one expansion, grown by
doubling, and serves every smaller size as that expansion's truncate.
Whatever order sizes are asked in, every value must equal the cold
expansion at that size (``__wrapped__``, which never touches the
cache), invalid sizes must raise as they do cold, and cache_clear must
drop everything, the expansion included.  A cut costs what it returns:
a beta_table cut is a slice of the largest table's rows, and an
mzv_counts cut is the same prefix of both dicts, whose keys run in
increasing (w, d) order.
"""

import random
from functools import lru_cache
from unittest import mock

import pytest

import gfenum
from gfenum import generators, mzv
from gfenum.generators import BetaTable, beta_table, build_b, p_closed, p_from_b
from gfenum.mzv import MzvCounts, mzv_counts
from gfenum.series import IndexOutOfRange


def _arg(index):
    """The size of a kernel call: its positional argument at index."""
    return lambda call: call.args[index]


def _zeta_side(call):
    """The weight of a zeta-value peel; each expansion also peels the Euler-sum side."""
    return call.args[4] if call.args[0] is mzv._MZV_NUMERATOR else None


# (grown function, least valid size, kernel call that expands it, size of a call or None)
GROWN = [
    pytest.param(build_b, 0, (generators, "_expand_rational"), _arg(4), id="build_b"),
    pytest.param(p_closed, 1, (generators, "_expand_uni"), _arg(2), id="p_closed"),
    pytest.param(p_from_b, 1, (generators, "build_b"), _arg(0), id="p_from_b"),
    pytest.param(beta_table, 0, (generators, "build_b"), _arg(0), id="beta_table"),
    pytest.param(mzv_counts, 0, (mzv, "_peel_rational"), _zeta_side, id="mzv_counts"),
]


def expanded_sizes(grown, kernel, size_of, sizes, cold=True):
    """Call grown at each size, from a cleared cache if cold; return the sizes the kernel expanded."""
    if cold:
        grown.cache_clear()
    with mock.patch.object(*kernel, wraps=getattr(*kernel)) as spy:
        for size in sizes:
            grown(size)
    expanded = map(size_of, spy.call_args_list)
    return [size for size in expanded if size is not None]


@pytest.mark.parametrize("grown, least, kernel, size_of", GROWN)
class TestGrownCache:
    def test_sweep_up_with_revisits_then_down_serves_cold_values(
        self, grown, least, kernel, size_of
    ):
        rng = random.Random(13)
        walk = []
        for size in range(least, 41):  # past two doublings from any start
            walk.append(size)
            walk += [rng.randrange(least, size + 1) for _ in range(3)]
        walk += range(40, least - 1, -1)
        grown.cache_clear()
        cold = {size: grown.__wrapped__(size) for size in set(walk)}
        for size in walk:
            assert grown(size) == cold[size], size

    def test_an_upward_walk_expands_only_at_doublings(self, grown, least, kernel, size_of):
        sizes = range(max(least, 3), 41)
        assert expanded_sizes(grown, kernel, size_of, sizes) == [3, 6, 12, 24, 48]

    def test_a_smaller_size_is_cut_and_memoised(self, grown, least, kernel, size_of):
        assert expanded_sizes(grown, kernel, size_of, [30, 10, 20, 10, 30]) == [30]
        info = grown.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 3, 3)

    def test_clear_drops_the_expansion_and_the_next_call_recomputes(
        self, grown, least, kernel, size_of
    ):
        grown(30)
        grown.cache_clear()
        assert grown.cache_info().currsize == 0
        assert expanded_sizes(grown, kernel, size_of, [20]) == [20]
        info = grown.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)

    def test_the_wrapped_expansion_leaves_the_cache_alone(self, grown, least, kernel, size_of):
        grown.cache_clear()
        grown.__wrapped__(30)
        assert grown.cache_info().currsize == 0
        assert expanded_sizes(grown, kernel, size_of, [20], cold=False) == [20]

    def test_a_failed_expansion_serves_cold_values_after(self, grown, least, kernel, size_of):
        grown.cache_clear()
        grown(12)
        with mock.patch.object(*kernel, side_effect=MemoryError), pytest.raises(MemoryError):
            grown(30)
        for size in (20, 12, 6):
            assert grown(size) == grown.__wrapped__(size), size

    def test_invalid_size_raises_warm_and_cold(self, grown, least, kernel, size_of):
        grown.cache_clear()
        for _ in ("cold", "warm"):
            with pytest.raises(ValueError, match=f"must be >= {least}"):
                grown(least - 1)
            grown(30)


def test_every_size_keyed_cache_can_be_inspected_and_cleared():
    cached = {name for name in gfenum.__all__ if hasattr(getattr(gfenum, name), "cache_clear")}
    sized = {"beta_table", "build_b", "p_closed", "p_from_b", "mzv_counts"}
    assert cached == sized | {"growth_root", "growth_constant"}
    cache_info = type(lru_cache(maxsize=None)(abs).cache_info())
    for name in sorted(cached):
        info = getattr(gfenum, name).cache_info()
        assert type(info) is cache_info and info.maxsize is None, name
    for name in sorted(sized):
        function = getattr(gfenum, name)
        function(12)
        assert function.cache_info().currsize >= 1
        function.cache_clear()
        assert function.cache_info().currsize == 0


def test_mzv_counts_cut_cannot_extend():
    with pytest.raises(IndexOutOfRange):
        mzv_counts(12).truncate(13)


def test_beta_table_cut_cannot_extend():
    with pytest.raises(IndexOutOfRange):
        beta_table(12).truncate(13)


def _read(lookup, *index):
    """lookup(*index), or the type of the exception it raises."""
    try:
        return lookup(*index)
    except IndexOutOfRange as exc:
        return type(exc)


LARGEST = 40


def test_every_beta_table_cut_equals_its_cold_expansion():
    beta_table.cache_clear()
    beta_table(LARGEST)
    for size in range(LARGEST):
        cut, cold = beta_table(size), beta_table.__wrapped__(size)
        assert cut == cold, size  # the rows
        assert cut.entries == cold.entries, size
        assert list(cut.entries) == list(cold.entries), size
        for m in range(-1, size + 2):
            assert _read(cut.tally_terms, m) == _read(cold.tally_terms, m), (size, m)
            for u in range(-1, m + 3):
                assert _read(cut.get, m, u) == _read(cold.get, m, u), (size, m, u)


def test_every_mzv_counts_cut_equals_its_cold_expansion():
    mzv_counts.cache_clear()
    mzv_counts(LARGEST)
    for size in range(LARGEST):
        cut, cold = mzv_counts(size), mzv_counts.__wrapped__(size)
        assert cut == cold, size
        for name in ("mzv", "euler"):
            cut_table, cold_table = getattr(cut, name), getattr(cold, name)
            assert cut_table == cold_table, (size, name)
            assert list(cut_table) == list(cold_table) == sorted(cold_table), (size, name)
        for w in range(-1, size + 2):
            for d in range(-1, w // 3 + 2):
                for lookup in ("mzv_count", "euler_count"):
                    cut_value = _read(getattr(cut, lookup), w, d)
                    assert cut_value == _read(getattr(cold, lookup), w, d), (size, lookup, w, d)


def test_a_beta_table_cut_shares_the_rows_and_builds_no_entries():
    beta_table.cache_clear()
    largest = beta_table(LARGEST)
    cut = beta_table(25)
    assert len(cut.rows) == 26
    assert all(row is whole for row, whole in zip(cut.rows, largest.rows))
    for m in range(26):
        cut.get(m, 0)
        cut.tally_terms(m)
    assert "entries" not in vars(cut) and "entries" not in vars(largest)
    assert cut.entries[(25, 4)] == cut.get(25, 4)
    assert "entries" in vars(cut) and "entries" not in vars(largest)


@pytest.mark.parametrize("grown", [beta_table, mzv_counts], ids=["beta_table", "mzv_counts"])
def test_a_cut_to_a_negative_bound_raises(grown):
    grown.cache_clear()
    with pytest.raises(ValueError, match="bound must be >= 0"):
        grown(10).truncate(-3)


def test_a_table_with_a_negative_bound_cannot_be_constructed():
    with pytest.raises(ValueError, match="degree bound must be >= 0"):
        BetaTable(-3, ())
    with pytest.raises(ValueError, match="degree bound must be >= 0"):
        BetaTable(-1, ())
    with pytest.raises(ValueError, match="weight bound must be >= 0"):
        MzvCounts(-3, {}, {})
    assert BetaTable(0, ((1,),)).entries == {(0, 0): 1}
    assert MzvCounts(0, {}, {}).grid() == []
