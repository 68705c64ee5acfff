from collections import OrderedDict
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freshsim.baselines import CounterTreeConfig, CounterTreeState
from freshsim.caches import FlatCache, LruSets, SetAssocCache, set_index
from freshsim.core import ConfigError
from freshsim.version_store import FULL_SLOTS
from helpers import filled_lines, is_cached, resident_count, resident_keys


class TestLruCache:
    """A fully associative cache is one set: SetAssocCache(n, n)."""

    def test_fill_and_evict_oldest(self):
        c = SetAssocCache(2, 2)
        assert c.access(1) == 1
        assert c.access(2) == 1
        assert c.access(3) == 1  # the clean victim 1 moves no line
        assert resident_keys(c) == [2, 3]

    def test_get_refreshes_recency(self):
        c = SetAssocCache(2, 2)
        c.access(1)
        c.access(2)
        assert c.access(1) == 0  # the hit makes 2 the least recent
        assert c.access(3) == 1
        assert resident_keys(c) == [1, 3]

    def test_hit_miss_counters(self):
        c = SetAssocCache(4, 4)
        assert [c.access(k) for k in (1, 1, 2, 1)] == [1, 0, 1, 0]
        assert (c.hits, c.misses) == (2, 2)

    def test_invalidate(self):
        c = SetAssocCache(2, 2)
        c.access(1)
        c.invalidate_range([1])
        assert resident_keys(c) == [] and resident_count(c) == 0
        c.invalidate_range([1])
        assert resident_count(c) == 0

    def test_put_existing_updates_value(self):
        # a clean hit moves a dirty line to most recent and keeps it dirty
        c = SetAssocCache(2, 2)
        c.access(1, dirty=True)
        c.access(2)
        assert c.access(1) == 0
        assert resident_keys(c) == [2, 1]
        assert c.access(3) == 1
        assert resident_keys(c) == [1, 3]
        assert c.access(4) == 2  # the fill and 1's write-back
        assert resident_keys(c) == [3, 4]


class _LruModel:
    """Reference: plain OrderedDict of key -> dirty with move-to-end discipline."""

    def __init__(self, n):
        self.n = n
        self.d = OrderedDict()

    def get(self, k):
        if k not in self.d:
            return False
        self.d.move_to_end(k)
        return True

    def put(self, k, dirty):
        if k in self.d:
            self.d[k] = self.d[k] or dirty
            self.d.move_to_end(k)
            return None
        self.d[k] = dirty
        if len(self.d) > self.n:
            return self.d.popitem(last=False)
        return None

    def access(self, k, dirty):
        """Lines moved: 0 on a hit, 1 for a fill, 2 if it evicts a dirty line."""
        if not self.get(k):
            evicted = self.put(k, dirty)
            return 2 if evicted is not None and evicted[1] else 1
        if dirty:
            self.d[k] = True
        return 0

    def invalidate(self, k):
        return self.d.pop(k, None) is not None


def _assert_matches(cache, model):
    """The one-set cache's lines, recency order and dirty bits equal the
    model's, and its residency index names only resident keys, each with
    the set that holds it."""
    assert cache._sets.keys() <= {0}
    assert list(cache._sets.get(0, {}).items()) == list(model.d.items())
    assert resident_count(cache) == len(model.d) and resident_keys(cache) == list(model.d)
    assert all(k in s and s is cache._sets[0] for k, s in cache._index.items())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(
        st.tuples(st.sampled_from(["read", "write", "inval"]), st.integers(0, 9)),
        max_size=200,
    ),
)
def test_lru_matches_reference_model(capacity, ops):
    real = SetAssocCache(capacity, capacity)
    model = _LruModel(capacity)
    for op, key in ops:
        if op == "inval":
            real.invalidate_range((key,))
            model.invalidate(key)
        else:
            assert real.access(key, op == "write") == model.access(key, op == "write")
        _assert_matches(real, model)


class TestSetAssocCache:
    def test_same_set_lru_eviction(self):
        c = SetAssocCache(lines=4, assoc=4)  # one set
        for k in range(4):
            assert c.access(k) == 1
        assert c.access(4) == 1
        assert resident_keys(c) == [1, 2, 3, 4]

    def test_get_refreshes_within_set(self):
        c = SetAssocCache(lines=2, assoc=2)
        c.access(0)
        c.access(1)
        c.access(0)
        c.access(2)
        assert resident_keys(c) == [0, 2]

    def test_dirty_flag_travels_with_eviction(self):
        c = SetAssocCache(lines=2, assoc=2)
        c.access(0)
        c.access(1, dirty=True)
        assert c.access(2) == 1
        assert resident_keys(c) == [1, 2]
        assert c.access(3) == 2
        assert resident_keys(c) == [2, 3]

    def test_mark_dirty(self):
        c = SetAssocCache(lines=1, assoc=1)
        c.access(5)
        assert c.access(5, True) == 0
        assert c.access(6) == 2
        assert resident_keys(c) == [6]

    def test_invalidate(self):
        c = SetAssocCache(lines=4, assoc=2)
        c.access(3)
        c.invalidate_range([3])
        assert 3 not in resident_keys(c) and resident_count(c) == 0

    def test_invalidate_absent_key_changes_nothing(self):
        c = SetAssocCache(lines=4, assoc=2)
        c.access(1)
        c.access(1)
        c.invalidate_range([2])
        assert (c.hits, c.misses, resident_count(c), resident_keys(c)) == (1, 1, 1, [1])

    def test_resident_keys(self):
        c = SetAssocCache(lines=8, assoc=2)
        for k in (10, 20, 30):
            c.access(k)
        assert sorted(resident_keys(c)) == [10, 20, 30]

    def test_disjoint_sets_do_not_interfere(self):
        c = SetAssocCache(lines=32, assoc=2)
        # overfill one set's worth of slots with distinct keys: evictions
        # must only ever remove keys from the same set as the newcomer
        evictions = 0
        for k in range(200):
            before = set(resident_keys(c))
            assert c.access(k) == 1
            evicted = before - set(resident_keys(c))
            if evicted:
                evictions += 1
                (victim,) = evicted
                assert _hashed_set(16, victim) == _hashed_set(16, k)
        assert resident_count(c) == 32
        assert evictions == 200 - 32

    def test_only_lines_that_hit_are_indexed(self):
        # the index holds each resident line that hit since its fill, with
        # its own set; a fill, an eviction and an invalidation leave none
        c = SetAssocCache(lines=8, assoc=2)
        a, b, d = [k for k in range(100) if _hashed_set(4, k) == _hashed_set(4, 0)][:3]
        assert (c.access(a), c.access(b)) == (1, 1)
        assert c._index == {}
        assert c.access(a) == 0
        home = c._sets[_hashed_set(4, a)]
        assert c._index == {a: home} and a in home
        assert (c.access(a), c.access(b)) == (0, 0)
        assert c._index == {a: home, b: home}
        assert c.access(d) == 1  # evicts a, the least recent
        assert c._index == {b: home} and list(home) == [b, d]
        c.invalidate_range([b, d])  # d never hit, yet leaves the cache too
        assert c._index == {} and resident_count(c) == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["read", "write", "inval"]), st.integers(0, 25)),
        max_size=150,
    )
)
def test_single_set_cache_behaves_like_lru(ops):
    sa = SetAssocCache(lines=4, assoc=4)
    lru = _LruModel(4)
    hits = 0
    for op, key in ops:
        if op == "inval":
            assert (key in resident_keys(sa)) == lru.invalidate(key)
            sa.invalidate_range((key,))
        else:
            moved = lru.access(key, op == "write")
            hits += not moved
            assert sa.access(key, op == "write") == moved
        _assert_matches(sa, lru)
    assert sa.hits == hits


def _contents(cache):
    """Every set the cache made, by index: its lines in recency order with
    their dirty bits."""
    return {i: list(s.items()) for i, s in cache._sets.items()}


@lru_cache(maxsize=1 << 16)
def _hashed_set(num_sets, key):
    """Index of the set ``access``'s hash picks for ``key``."""
    probe = SetAssocCache(num_sets, 1)
    probe.access(key)
    (index,) = probe._sets
    return index


def test_sets_are_made_on_first_fill():
    c = SetAssocCache(1 << 20, 1)
    assert len(c._sets) == 0 and resident_keys(c) == []
    # drops of absent keys make no set
    c.invalidate_range(range(100))
    assert len(c._sets) == 0
    keys = [0, 1, 77, 1 << 40, 12345, 2**64 + 3]
    for n, k in enumerate(keys, 1):
        assert c.access(k, k % 2 == 0) == 1
        assert len(c._sets) <= n
    made = dict(c._sets)
    # hits and drops make none either
    resident = resident_keys(c)
    assert [c.access(k) for k in resident] == [0] * len(resident)
    c.invalidate_range(range(1000, 1100))
    c.invalidate_range(resident)
    assert resident_count(c) == 0 and c._sets.keys() == made.keys()
    assert all(c._sets[i] is s for i, s in made.items())
    # the overflow buffer: pages with no lines, probes and drops make none,
    # and a page's fill makes at most one set per line
    f = FlatCache(4, LruSets(1 << 20, 1))
    for page in range(10):
        assert _read(f, page, 0) == -1
    f.drop(8)
    assert len(f.overflow._sets) == 0
    f.write(7, FULL_SLOTS)
    f.write(9, 1)  # an UPDATE grows the page to its first line
    assert 0 < len(f.overflow._sets) <= FULL_SLOTS + 1
    made = dict(f.overflow._sets)
    assert f.read(7) == 0 and f.read(9) == 0
    f.drop(7)
    f.drop(9)
    assert resident_count(f.overflow) == 0 and f.overflow._sets.keys() == made.keys()
    assert all(f.overflow._sets[i] is s for i, s in made.items())


def _engine_count(op, count, filled):
    """The line count the engine passes for ``op`` on a page that filled
    ``filled`` lines, or None when it is not cached: a read of a cached page
    refills the lines it filled, and a write's format only grows, except that
    a write whose reset left the page flat passes 0 and the re-key drops it."""
    if op == "read" and filled is not None:
        return filled
    return max(count, filled or 0) if count else count


def _read(cache, page, count):
    """``read`` as the engine drives it: a flat miss is followed by the
    device READ's response, which fills the page's ``count`` lines.
    Returns what ``read`` returned."""
    got = cache.read(page)
    if got < 0:
        cache.write(page, count)
    return got


_MEMO_PAGES = st.one_of(st.integers(0, 15), st.integers(0, 2**38 - 1))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 3, 32, 1024]),
    st.integers(1, 3),
    st.integers(1, 4),
    st.lists(
        st.tuples(st.sampled_from(["read", "write", "drop"]), _MEMO_PAGES,
                  st.integers(0, FULL_SLOTS)),
        max_size=40,
    ),
)
def test_page_memo_is_exact_and_bounded(num_sets, assoc, entries, ops):
    c = FlatCache(entries, LruSets(num_sets * assoc, assoc))
    sets = c.overflow._sets
    most = {}  # page -> the most lines it ever filled
    for op, page, count in ops:
        count = _engine_count(op, count, filled_lines(c, page) if is_cached(c, page) else None)
        if op == "drop":
            c.drop(page)
        else:
            if op == "write":
                c.write(page, count)
            else:
                _read(c, page, count)
            if count:  # a read leaves the page's lines filled, too
                most[page] = max(most.get(page, 0), count)
        # only pages that filled lines are memoised, each with no more lines
        # than it filled: a page of one line keeps its set bare
        assert c._memo.keys() == most.keys()
        for p, memo in c._memo.items():
            if most[p] == 1:
                memo = ((p * FULL_SLOTS, memo),)
            assert [k for k, _ in memo] == list(range(p * FULL_SLOTS, p * FULL_SLOTS + most[p]))
            # every memoised set is the one access's hash picks for the line
            for k, s in memo:
                assert s is sets.get(_hashed_set(num_sets, k))
        for i, s in sets.items():
            assert all(_hashed_set(num_sets, k) == i for k in s)


_WALK_INDEX = st.one_of(st.integers(0, 300), st.integers(0, 2**40 - 1))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 4),
    st.lists(st.tuples(_WALK_INDEX, st.booleans()), max_size=60),
)
def test_tree_walk_matches_per_level_access(arity, levels, num_sets, assoc, walks):
    # the counter tree's walk against its definition: one access per level on
    # a twin cache, stopping at the first hit
    leaves = 2**40  # a leaf per index drawn, each holding 8 blocks' counters (512 B)
    tree = CounterTreeState(CounterTreeConfig(
        arity=arity,
        # the root region covers the level above the walk's last
        root_bytes=-(-leaves // arity**levels) * (64 // arity),
        counter_cache_bytes=num_sets * assoc * 64, counter_cache_assoc=assoc),
        leaves * 512, 64)
    assert tree.depth == levels
    walked = tree.cache
    stepped = SetAssocCache(num_sets * assoc, assoc)
    fetches = writebacks = 0
    for index, dirty in walks:
        misses = 0
        for level in range(levels):
            moved = stepped.access(index // arity**level * 64 + level, dirty)
            if not moved:
                break
            misses += 1
            writebacks += moved == 2
        fetches += misses
        assert tree.access(index * 512, dirty) == misses
        assert (tree.fetches, tree.dirty_writebacks) == (fetches, writebacks)
        # contents, recency order and dirty bits, set by set
        assert _contents(walked) == _contents(stepped)
        assert (walked.hits, walked.misses) == (stepped.hits, stepped.misses)
        for k, s in walked._index.items():
            assert k in s and s is walked._sets.get(_hashed_set(num_sets, k))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63, 2**64 - 1),
              st.integers(0, 2**20)),
    st.one_of(st.integers(1, 64), st.integers(1, 2**32)),
)
def test_set_index_is_exact_in_wrapping_uint64(key, num_sets):
    # the same formula on a numpy uint64 array, whose products wrap modulo
    # 2**64: only the low 64 bits of each product reach the result
    k = np.array([key], dtype=np.uint64)
    mult, shift = np.uint64(0x45D9F3B), np.uint64(16)
    h = (k ^ (k >> shift)) * mult
    h = (h ^ (h >> shift)) * mult
    wrapped = ((h ^ (h >> shift)) & np.uint64(0xFFFFFFFF)) % np.uint64(num_sets)
    assert set_index(key, num_sets) == int(wrapped[0])


class TestRangeOps:
    """A page's run of overflow lines, filled, probed and dropped together,
    and ``SetAssocCache.invalidate_range``."""

    def test_probe_checks_every_line_after_a_miss(self):
        c = FlatCache(4, LruSets(4, 4))
        c.write(0, FULL_SLOTS)
        c.write(1, 1)  # page 1's line evicts line 0, the least recent
        assert resident_keys(c.overflow) == [1, 2, 3, 4]
        assert c.read(0) == FULL_SLOTS  # a line missed: the READ refills all four
        assert (c.overflow.hits, c.overflow.misses) == (3, 1)
        assert resident_keys(c.overflow) == [0, 1, 2, 3]  # the READ refilled the page

    def test_probe_of_all_resident_lines_hits(self):
        c = FlatCache(2, LruSets(4, 4))
        c.write(0, 2)
        assert c.read(0) == 0
        assert (c.hits, c.misses, c.overflow.hits, c.overflow.misses) == (1, 0, 2, 0)

    def test_empty_range_changes_nothing(self):
        c = FlatCache(2, LruSets(4, 4))
        c.write(1, 1)
        c.write(0, 0)
        assert c.read(0) == 0
        c.drop(0)
        assert c.read(0) == -1
        assert (c.overflow.hits, c.overflow.misses, resident_keys(c.overflow)) == (0, 0, [4])

    def test_fill_refreshes_resident_lines_in_order(self):
        c = FlatCache(4, LruSets(3, 3))
        c.write(0, 1)
        c.write(1, 1)
        c.write(0, 2)  # line 0 refreshed, line 1 filled
        assert resident_keys(c.overflow) == [4, 0, 1]
        c.write(2, 1)  # evicts page 1's line, the least recent
        assert resident_keys(c.overflow) == [0, 1, 8]
        assert filled_lines(c, 1) == 1 and is_cached(c, 1)  # the page stays cached without it

    def test_invalidate_range_skips_absent_keys(self):
        c = SetAssocCache(4, 2)
        for k in (1, 2, 3):
            c.access(k)
        c.invalidate_range(range(2, 6))
        assert resident_keys(c) == [1] and resident_count(c) == 1
        assert (c.hits, c.misses) == (0, 3)


class _FlatModel:
    """Reference for ``FlatCache``, driven line by line: an ``_LruModel`` of
    pages, a count of the lines each cached page filled, and the overflow
    buffer as one ``_LruModel`` per set index, each line in the set that
    ``access``'s hash picks."""

    def __init__(self, entries, num_sets, assoc):
        self.lru = _LruModel(entries)
        self.filled = {}
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets = {}  # set index -> _LruModel of its lines, made on first fill
        self.hits = self.misses = 0
        self.line_hits = self.line_misses = 0

    def _keys(self, page, count):
        return range(page * FULL_SLOTS, page * FULL_SLOTS + count)

    def _fill(self, page):
        evicted = self.lru.put(page, False)
        self.filled.setdefault(page, 0)
        if evicted is not None:
            self.drop(evicted[0])

    def _fill_lines(self, page, count):
        """The device response: every line of the page's format, one by one."""
        self.filled[page] = count
        for k in self._keys(page, count):
            index = _hashed_set(self.num_sets, k)
            self.sets.setdefault(index, _LruModel(self.assoc)).put(k, False)

    def _probe(self, k):
        s = self.sets.get(_hashed_set(self.num_sets, k))
        hit = s is not None and s.get(k)
        self.line_hits += hit
        self.line_misses += not hit
        return hit

    def read(self, page, count):
        """A flat miss, or a hit with any missed line, costs a device READ,
        which fills the page's lines."""
        if not self.lru.get(page):
            self.misses += 1
            self._fill(page)
            self._fill_lines(page, count)
            return False, None
        self.hits += 1
        if not count:
            return True, None
        lines_hit = all([self._probe(k) for k in self._keys(page, count)])
        if not lines_hit:
            self._fill_lines(page, count)
        return True, lines_hit

    def write(self, page, count):
        """A device UPDATE; a page it left flat keeps the lines it filled."""
        self._fill(page)
        if count:
            self._fill_lines(page, count)

    def drop(self, page):
        self.lru.invalidate(page)
        for k in self._keys(page, self.filled.pop(page, 0)):
            s = self.sets.get(_hashed_set(self.num_sets, k))
            if s is not None:
                s.invalidate(k)

    def contents(self):
        return {i: list(s.d.items()) for i, s in self.sets.items()}


def _run_flat(real, model, ops, pages):
    """Drive the cache and its model through the same ops, comparing the
    cached pages, their lines and the buffer set by set after each one."""
    for op, page, count in ops:
        count = _engine_count(op, count, model.filled.get(page))
        if op == "read":
            # the model's (flat hit, all lines hit) as read returns it: -1 on
            # a flat miss, 0 when nothing missed, else the lines it refilled
            want = model.read(page, count)
            assert _read(real, page, count) == {(False, None): -1, (True, None): 0,
                                                (True, True): 0, (True, False): count}[want]
        elif op == "write":
            real.write(page, count)
            model.write(page, count)
        else:
            real.drop(page)
            model.drop(page)
        assert (real.hits, real.misses) == (model.hits, model.misses)
        assert [p for p in pages if is_cached(real, p)] == [p for p in pages if p in model.lru.d]
        assert [filled_lines(real, p) for p in pages] == [model.filled.get(p, 0) for p in pages]
        ov = real.overflow
        # residency and recency set by set, every line clean
        assert _contents(ov) == model.contents()
        assert resident_keys(ov) == [k for i in sorted(model.sets) for k in model.sets[i].d]
        assert (ov.hits, ov.misses) == (model.line_hits, model.line_misses)
        assert resident_count(ov) == sum(len(s.d) for s in model.sets.values())
        # inclusive: every resident line belongs to a cached page that filled it
        assert all(k % FULL_SLOTS < filled_lines(real, k // FULL_SLOTS) for k in resident_keys(ov))


def _flat_ops(pages):
    return st.lists(
        st.tuples(st.sampled_from(["read", "write", "drop"]),
                  st.integers(0, pages - 1), st.integers(0, FULL_SLOTS)),
        max_size=120,
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), _flat_ops(6))
def test_flat_cache_matches_reference_model(entries, assoc, sets, ops):
    real = FlatCache(entries, LruSets(assoc * sets, assoc))
    _run_flat(real, _FlatModel(entries, sets, assoc), ops, range(6))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), _flat_ops(13))
def test_range_ops_match_reference_model(capacity, ops):
    # one set and room for every page: the buffer is one LRU of all the
    # lines, so recency is compared across pages
    real = FlatCache(13, LruSets(capacity, capacity))
    _run_flat(real, _FlatModel(13, 1, capacity), ops, range(13))


@settings(max_examples=40, deadline=None)
@given(_flat_ops(61))
def test_range_ops_match_per_key_ops_across_sets(ops):
    # the page ops against a SetAssocCache driven one line at a time with
    # access and invalidate_range, which places each line by access's hash
    real = FlatCache(61, LruSets(8, 2))
    per_key = SetAssocCache(8, 2)
    filled = {}
    hits = misses = 0
    for op, page, count in ops:
        count = _engine_count(op, count, filled.get(page))
        keys = range(page * FULL_SLOTS, page * FULL_SLOTS + count)
        if op == "drop":
            real.drop(page)
            per_key.invalidate_range(range(page * FULL_SLOTS,
                                           page * FULL_SLOTS + filled.pop(page, 0)))
        elif op == "write":
            real.write(page, count)
            filled[page] = count or filled.get(page, 0)
            for k in keys:
                per_key.access(k)
        else:
            result = _read(real, page, count)
            if page not in filled:
                assert result == -1
            elif count:
                resident = set(resident_keys(per_key))
                hit = [k in resident for k in keys]
                hits, misses = hits + sum(hit), misses + count - sum(hit)
                assert result == (0 if all(hit) else count)
            else:
                assert result == 0
            filled[page] = count or filled.get(page, 0)
            for k in keys:  # a hit refreshes; a READ refreshes or fills every line
                per_key.access(k)
        assert _contents(real.overflow) == _contents(per_key)
        assert (real.overflow.hits, real.overflow.misses) == (hits, misses)


class TestFlatCache:
    def test_eviction_drops_the_victims_lines(self):
        c = FlatCache(2, LruSets(8, 8))
        for page in (0, 1):
            c.write(page, FULL_SLOTS)
        assert _read(c, 2, 0) == -1  # the READ's fill evicts page 0, the least recent
        assert not is_cached(c, 0) and resident_keys(c.overflow) == [4, 5, 6, 7]
        assert c.read(1) == 0
        assert (c.hits, c.misses) == (1, 1)

    def test_write_counts_nothing_and_refreshes_recency(self):
        c = FlatCache(2, LruSets(8, 8))
        c.write(0, 1)
        c.write(1, 0)
        c.write(0, 1)  # page 1 is now the least recent
        c.write(2, 0)
        assert not is_cached(c, 1) and is_cached(c, 0) and resident_keys(c.overflow) == [0]
        assert (c.hits, c.misses, c.overflow.hits, c.overflow.misses) == (0, 0, 0, 0)

    def test_write_left_flat_keeps_lines_for_the_drop(self):
        # a write whose reset left the page flat passes 0 lines; the re-key
        # that follows must still find and drop the lines the page filled
        c = FlatCache(2, LruSets(8, 8))
        c.write(0, FULL_SLOTS)
        c.write(0, 0)
        assert filled_lines(c, 0) == FULL_SLOTS
        c.drop(0)
        assert [k for k in resident_keys(c.overflow) if k // FULL_SLOTS == 0] == []

    def test_read_fills_lines_exactly_on_a_device_read(self):
        # a direct-mapped buffer: a line of another page that hashes to line
        # 1's set, and not to line 0's, evicts line 1 alone
        c = FlatCache(4, LruSets(8, 1))
        assert c.read(0) == -1  # a flat miss fills nothing
        assert not is_cached(c, 0) and resident_keys(c.overflow) == []
        c.write(0, 2)  # the READ's response fills both lines
        assert sorted(resident_keys(c.overflow)) == [0, 1] and filled_lines(c, 0) == 2
        rival = next(p for p in range(1, 100)
                     if _hashed_set(8, p * FULL_SLOTS) == _hashed_set(8, 1) != _hashed_set(8, 0))
        c.write(rival, 1)
        assert sorted(resident_keys(c.overflow)) == [0, rival * FULL_SLOTS]
        assert c.read(0) == 2  # a missed line: the READ refills both
        assert sorted(resident_keys(c.overflow)) == [0, 1]
        assert c.read(0) == 0  # all hit: no READ, nothing filled
        assert (c.hits, c.misses, c.overflow.hits, c.overflow.misses) == (2, 1, 3, 1)

    def test_rejects_no_entries(self):
        with pytest.raises(ConfigError):
            FlatCache(0, LruSets(4, 4))
