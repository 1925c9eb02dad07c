"""The memos of build_b, p_closed, p_from_b, beta_table and mzv_counts are invisible.

They are gfenum's only memos.  build_b is a plain functools.lru_cache,
which expands each size it is asked for once; no other memo calls it,
and beta_table divides its own numerator with the same kernel.  The
other four are grown: each is a functools.lru_cache that keeps one
expansion, grown by doubling, and serves every smaller size as that
expansion's truncate.
Whatever order sizes are asked in, every value must equal the cold
expansion at that size (``__wrapped__``, which never touches the
cache), invalid sizes must raise as they do cold, and cache_clear must
drop everything, the expansion included.  The expansion and its size
sit in one slot, emptied before a larger expansion is computed, so
growth never holds two in the slot at once.  A cut is O(1) Python work
plus the slice it returns: a beta_table cut is a slice of the largest
table's rows, and an mzv_counts cut shares the largest expansion's two
dicts, whose keys run in increasing (w, d) order, and holds how many of
their first entries are its own, (w**2 + 6) // 12 at weight w, the
partitions of w - 3 into parts of at most 3 (A001399).  Neither cut
builds its mappings (``entries``, ``mzv``, ``euler``) until they are
read.  No served value can be changed in place, so no caller can change
what a later call is served.
"""

import gc
import importlib
import pkgutil
import random
import sys
import weakref
from functools import lru_cache
from operator import delitem, setitem
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


def _beta_side(call):
    """The weight of a beta-table division; build_b divides another numerator."""
    return call.args[4] if call.args[0] is generators._BETA_NUMERATOR else None


# (memo, least valid size, kernel call that expands it, size of a call or None)
BUILD_B = pytest.param(build_b, 0, (generators, "_expand_rational"), _arg(4), id="build_b")
GROWN = [
    pytest.param(p_closed, 1, (generators, "_expand_uni"), _arg(2), id="p_closed"),
    pytest.param(p_from_b, 1, (generators, "beta_table"), _arg(0), id="p_from_b"),
    pytest.param(beta_table, 0, (generators, "_expand_rational"), _beta_side, id="beta_table"),
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


every_memo = pytest.mark.parametrize("grown, least, kernel, size_of", [BUILD_B, *GROWN])
grown_only = pytest.mark.parametrize("grown, least, kernel, size_of", GROWN)


class TestGrownCache:
    """What every memo keeps, and the doubling and cuts that only the grown four add."""

    @every_memo
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

    @grown_only
    def test_an_upward_walk_expands_only_at_doublings(self, grown, least, kernel, size_of):
        sizes = range(max(least, 3), 41)
        assert expanded_sizes(grown, kernel, size_of, sizes) == [3, 6, 12, 24, 48]

    @grown_only
    def test_a_smaller_size_is_cut_and_memoised(self, grown, least, kernel, size_of):
        assert expanded_sizes(grown, kernel, size_of, [30, 10, 20, 10, 30]) == [30]
        info = grown.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 3, 3)

    @every_memo
    def test_clear_drops_the_expansion_and_the_next_call_recomputes(
        self, grown, least, kernel, size_of
    ):
        grown(30)
        grown.cache_clear()
        assert grown.cache_info().currsize == 0
        assert expanded_sizes(grown, kernel, size_of, [20]) == [20]
        info = grown.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)

    @every_memo
    def test_the_wrapped_expansion_leaves_the_cache_alone(self, grown, least, kernel, size_of):
        grown.cache_clear()
        grown.__wrapped__(30)
        assert grown.cache_info().currsize == 0
        assert expanded_sizes(grown, kernel, size_of, [20], cold=False) == [20]

    @every_memo
    def test_a_failed_expansion_serves_cold_values_after(self, grown, least, kernel, size_of):
        grown.cache_clear()
        grown(12)
        with mock.patch.object(*kernel, side_effect=MemoryError), pytest.raises(MemoryError):
            grown(30)
        for size in (20, 12, 6):
            assert grown(size) == grown.__wrapped__(size), size

    @every_memo
    def test_invalid_size_raises_warm_and_cold(self, grown, least, kernel, size_of):
        grown.cache_clear()
        for _ in ("cold", "warm"):
            with pytest.raises(ValueError, match=f"must be >= {least}"):
                grown(least - 1)
            grown(30)


# Every memo in gfenum: the five caches a cold benchmark job clears, and no other
CACHES = {"build_b", "p_closed", "p_from_b", "beta_table", "mzv_counts"}


def test_every_size_keyed_cache_can_be_inspected_and_cleared():
    modules = [gfenum] + [importlib.import_module(f"gfenum.{info.name}")
                          for info in pkgutil.iter_modules(gfenum.__path__)]
    found = {}  # every object with either cache method in a module or a class's namespace
    for module in modules:
        for value in vars(module).values():
            for obj in [value, *vars(value).values()] if isinstance(value, type) else [value]:
                obj = getattr(obj, "__func__", obj)  # a staticmethod or classmethod's function
                if hasattr(obj, "cache_clear") or hasattr(obj, "cache_info"):
                    found[id(obj)] = obj
    caches = {obj.__name__: obj for obj in found.values()}
    assert len(caches) == len(found) and set(caches) == CACHES
    exported = {name for name in gfenum.__all__ if hasattr(getattr(gfenum, name), "cache_clear")}
    assert exported == CACHES
    cache_info = type(lru_cache(maxsize=None)(abs).cache_info())
    for name, cache in caches.items():  # a module-level callable of the module it was defined in
        assert callable(cache) and getattr(sys.modules[cache.__module__], name) is cache, name
        info = cache.cache_info()
        assert type(info) is cache_info and info.maxsize is None, name
    for name in CACHES:
        caches[name](12)
    assert all(cache.cache_info().currsize >= 1 for cache in caches.values())
    for cache in caches.values():
        cache.cache_clear()
    assert {name: cache.cache_info().currsize for name, cache in caches.items()} == dict.fromkeys(
        CACHES, 0
    )


def test_build_b_expands_each_size_it_is_asked_once():
    _, _, kernel, size_of = BUILD_B.values
    assert expanded_sizes(build_b, kernel, size_of, [30, 10, 20, 10, 30]) == [30, 10, 20]
    info = build_b.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 3, 3)


def test_build_b_expands_every_size_of_an_upward_walk():
    _, _, kernel, size_of = BUILD_B.values
    sizes = range(3, 41)  # the walk that the grown four expand only at 3, 6, 12, 24 and 48
    assert expanded_sizes(build_b, kernel, size_of, sizes) == list(sizes)
    info = build_b.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, len(sizes), len(sizes))


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


def test_an_mzv_counts_cut_shares_the_dicts_and_builds_no_mappings():
    mzv_counts.cache_clear()
    largest = mzv_counts(LARGEST)
    cut = mzv_counts(25)
    for w in range(26):
        for d in range(w // 3 + 1):
            cut.mzv_count(w, d)
            cut.euler_count(w, d)
    for name in ("mzv", "euler"):
        assert name not in vars(cut) and name not in vars(largest), name
        assert getattr(cut, name) is getattr(cut, name), name
        assert name in vars(cut) and name not in vars(largest), name
    assert list(cut.mzv) == list(largest.mzv)[: len(cut.mzv)] == mzv._grid(25)
    assert cut.mzv[(25, 5)] == cut.mzv_count(25, 5) and cut.euler[(25, 5)] == cut.euler_count(25, 5)


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
    assert list(MzvCounts(0, {}, {}).mzv) == []


def test_an_mzv_counts_cut_views_the_largest_expansions_dicts():
    mzv_counts.cache_clear()
    largest = mzv_counts(96)
    cut = mzv_counts(60)
    assert cut._mzv is largest._mzv and cut._euler is largest._euler
    assert (cut._size, largest._size) == (len(cut.mzv), len(largest.mzv)) == (300, 768)
    whole = mzv_counts.__wrapped__(12)  # cold, so changing its dicts reaches no cache
    for name in ("mzv", "euler"):  # a whole expansion's mapping is its dict, not a copy
        mapping = getattr(whole, name)
        getattr(whole, f"_{name}")[(3, 1)] = 5
        assert mapping[(3, 1)] == 5, name


# Keys absent from a weight-60 table: past its prefix, off the grid, and not pairs at all
ABSENT_KEYS = [(61, 1), (62, 2), (96, 32), (4, 1), (60, 1), (60, 0), "w", 7, (3, 1, 0), None]


def _absent(table, key):
    """How the table reads a key: membership, get, get with a default, and [] (or its error)."""
    try:
        item = table[key]
    except KeyError:
        item = KeyError
    return key in table, table.get(key), table.get(key, "absent"), item


def test_an_mzv_counts_view_reads_as_the_dict_it_replaces():
    mzv_counts.cache_clear()
    largest = mzv_counts(96)
    cut = mzv_counts(60)
    for name in ("mzv", "euler"):
        view, whole = getattr(cut, name), getattr(largest, name)
        plain = {key: value for key, value in whole.items() if key[0] <= 60}
        assert len(view) == len(plain) == 300
        assert list(view) == list(view.keys()) == list(plain)
        assert list(view.items()) == list(plain.items())
        assert list(view.values()) == list(plain.values())
        assert len(view.items()) == len(view.values()) == len(view.keys()) == 300
        assert ((60, 2), plain[(60, 2)]) in view.items() and (61, 1) not in view.keys()
        assert all(view[key] == view.get(key) == value for key, value in plain.items())
        for key in ABSENT_KEYS:
            assert _absent(view, key) == _absent(plain, key) == (False, None, "absent", KeyError)
        assert view == plain and plain == view and not view != plain and not plain != view
        changed = {**plain, (3, 1): 2}
        assert view != changed and changed != view and view != whole and whole != view
        assert repr(view) == f"mappingproxy({plain!r})"
    with pytest.raises(TypeError):
        hash(cut)
    with pytest.raises(TypeError):
        hash(MzvCounts(3, {(3, 1): 1}, {(3, 1): 1}))


def test_a_table_given_as_a_plain_mapping_is_copied():
    mzv, euler = {(3, 1): 1}, {(3, 1): 1}
    counts = MzvCounts(3, mzv, euler)
    mzv[(3, 1)] = euler[(3, 1)] = 5
    assert counts.mzv_count(3, 1) == counts.euler_count(3, 1) == 1
    assert counts.truncate(3) == counts and list(counts.truncate(2).mzv) == []


# The grid keys through weight 9, weight-major: the only keys a plain table may hold
GRID_9 = [(3, 1), (5, 1), (6, 2), (7, 1), (8, 2), (9, 1), (9, 3)]


@pytest.mark.parametrize("max_weight, keys", [
    (5, [(3, 1), (9, 3)]),  # past the bound: the view listed (9, 3) but could not read it
    (9, [(9, 3), (3, 1)]),  # out of order and short: a cut to 5 kept (9, 3)
    (9, GRID_9[::-1]),
    (9, GRID_9[:-1]),
    (9, GRID_9 + [(10, 2)]),
    (4, [(3, 1), (4, 2)]),
])
def test_a_plain_mapping_must_hold_exactly_the_grid_in_order(max_weight, keys):
    mzv_counts.cache_clear()
    assert list(mzv_counts(9).mzv) == GRID_9
    table, grid = dict.fromkeys(keys, 7), {key: 1 for key in GRID_9 if key[0] <= max_weight}
    for mzv, euler in ((table, grid), (grid, table)):
        with pytest.raises(ValueError, match=r"the \(w, d\) grid through weight"):
            MzvCounts(max_weight, mzv, euler)
    counts = MzvCounts(max_weight, grid, grid)
    assert list(counts.mzv) == list(counts.euler) == list(grid)
    assert list(counts.truncate(4).mzv) == GRID_9[:1]


# Each memo, with the attempts to change a value it serves in place
MUTATIONS = [
    pytest.param(build_b, 0, lambda b: [
        (setitem, b.coeffs, 0, ()), (setitem, b.coeffs[0], 0, 9), (setattr, b, "coeffs", ()),
    ], id="build_b"),
    pytest.param(p_closed, 1, lambda p: [
        (setitem, p.coeffs, 0, 9), (setattr, p, "coeffs", ()), (setattr, p, "trunc_order", 0),
    ], id="p_closed"),
    pytest.param(p_from_b, 1, lambda p: [
        (setitem, p.coeffs, 0, 9), (setattr, p, "coeffs", ()), (setattr, p, "trunc_order", 0),
    ], id="p_from_b"),
    pytest.param(beta_table, 0, lambda t: [
        (setitem, t.rows, 0, ()), (setitem, t.rows[-1], 0, 9),
        (setitem, t.entries, (t.max_m, 0), -5), (delitem, t.entries, (0, 0)),
        (setattr, t, "entries", {}), (setattr, t, "rows", ()),
    ], id="beta_table"),
    pytest.param(mzv_counts, 0, lambda c: [
        (setitem, c.mzv, (3, 1), 99), (setitem, c.euler, (3, 1), 99),
        (delitem, c.mzv, (3, 1)), (setitem, c.mzv, (c.max_weight + 1, 1), 1),
        (setattr, c, "mzv", {}), (setattr, c, "max_weight", 3),
    ], id="mzv_counts"),
]


def _contents(value):
    """A value's fields, and a beta table's entries, which its == does not compare."""
    return value, dict(value.entries) if isinstance(value, BetaTable) else None


@pytest.mark.parametrize("grown, least, attempts", MUTATIONS)
def test_a_served_value_cannot_be_changed_in_place(grown, least, attempts):
    grown.cache_clear()
    for size in (LARGEST, 12):  # the expansion and a cut
        for mutate, *args in attempts(grown(size)):
            with pytest.raises((TypeError, AttributeError)):
                mutate(*args)
    for size in range(least, LARGEST + 1):
        assert _contents(grown(size)) == _contents(grown.__wrapped__(size)), size


def test_the_mzv_cut_size_is_the_closed_form_through_the_cli_maximum():
    # grid points through weight w: partitions of w - 3 into parts <= 3 (A001399)
    for w in range(301):
        assert (w * w + 6) // 12 == len(mzv._grid(w)), w


def test_every_cut_of_one_weight_120_expansion_equals_its_cold_expansion():
    mzv_counts.cache_clear()
    largest = mzv_counts(120)
    for size in range(121):
        cut, cold = largest.truncate(size), mzv_counts.__wrapped__(size)
        assert cut.mzv == cold.mzv and cut.euler == cold.euler, size
        assert list(cut.mzv) == list(cold.euler) == mzv._grid(size), size
        for w, d in cold.mzv:
            assert cut.mzv_count(w, d) == cold.mzv_count(w, d), (size, w, d)


class _Expansion:
    """A toy prefix-stable expansion that can be weakly referenced."""

    def __init__(self, size):
        self.size = size

    def truncate(self, size):
        return _Expansion(size)


def _tracked(expanded, alone):
    """A toy expand that appends a weak reference to each expansion it makes to expanded.

    If alone, it first asserts that no earlier expansion is alive.
    """

    def expand(size):
        assert not alone or all(ref() is None for ref in expanded), "an earlier one is alive"
        value = _Expansion(size)
        expanded.append(weakref.ref(value))
        return value

    return expand


WALK = (3, 2, 4, 7, 5, 30, 29)  # expands 3, 6, 12 and 30


def test_the_slot_drops_the_old_expansion_before_the_next_expand_starts():
    expanded = []
    # a memo that holds nothing, so only the slot can keep an expansion alive
    with mock.patch.object(generators, "lru_cache", lambda maxsize: lru_cache(maxsize=0)):
        grown = generators._grown("size", 0)(_tracked(expanded, alone=True))
    for size in WALK:
        assert grown(size).size == size
        gc.collect()
    assert [ref() and ref().size for ref in expanded] == [None, None, None, 30]
    grown.cache_clear()
    gc.collect()
    assert all(ref() is None for ref in expanded)


def test_after_cache_clear_no_expansion_is_alive():
    expanded = []
    grown = generators._grown("size", 0)(_tracked(expanded, alone=False))
    for size in WALK:
        grown(size)
    grown.cache_clear()
    gc.collect()
    assert len(expanded) == 4 and all(ref() is None for ref in expanded)
