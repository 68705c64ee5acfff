from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from freshsim.caches import FlatCache, SetAssocCache
from freshsim.core import ConfigError
from freshsim.version_store import FULL_SLOTS


class TestLruCache:
    """A fully associative cache is one set: SetAssocCache(n, n)."""

    def test_fill_and_evict_oldest(self):
        c = SetAssocCache(2, 2)
        assert c.access(1) == 1
        assert c.access(2) == 1
        assert c.access(3) == 1  # the clean victim 1 moves no line
        assert c.resident_keys() == [2, 3]

    def test_get_refreshes_recency(self):
        c = SetAssocCache(2, 2)
        c.put_range([1, 2])
        assert c.get_range([1]) is True
        assert c.access(3) == 1
        assert c.resident_keys() == [1, 3]

    def test_hit_miss_counters(self):
        c = SetAssocCache(4, 4)
        c.put_range([1])
        assert c.get_range([1]) is True
        assert c.get_range([2]) is False
        assert c.access(1) == 0
        assert (c.hits, c.misses) == (2, 1)

    def test_invalidate(self):
        c = SetAssocCache(2, 2)
        c.put_range([1])
        c.invalidate_range([1])
        assert c.resident_keys() == [] and len(c) == 0
        c.invalidate_range([1])
        assert len(c) == 0

    def test_put_existing_updates_value(self):
        # refreshing a resident key moves it to most recent and keeps it dirty
        c = SetAssocCache(2, 2)
        c.access(1, dirty=True)
        c.put_range([2])
        c.put_range([1])
        assert c.resident_keys() == [2, 1]
        assert c.access(3) == 1
        assert c.resident_keys() == [1, 3]
        assert c.access(4) == 2  # the fill and 1's write-back
        assert c.resident_keys() == [3, 4]


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
    model's, and its residency index names exactly the resident keys."""
    assert cache._sets.keys() <= {0}
    assert list(cache._sets.get(0, {}).items()) == list(model.d.items())
    assert cache._index.keys() == model.d.keys() and len(cache) == len(model.d)
    assert cache.resident_keys() == list(model.d)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(
        st.tuples(st.sampled_from(["get", "put", "access", "inval"]), st.integers(0, 9)),
        max_size=200,
    ),
)
def test_lru_matches_reference_model(capacity, ops):
    real = SetAssocCache(capacity, capacity)
    model = _LruModel(capacity)
    for op, key in ops:
        if op == "get":
            assert real.get_range((key,)) == model.get(key)
        elif op == "put":
            real.put_range((key,))
            model.put(key, False)
        elif op == "access":
            assert real.access(key, key % 2 == 0) == model.access(key, key % 2 == 0)
        else:
            real.invalidate_range((key,))
            model.invalidate(key)
        _assert_matches(real, model)


class TestSetAssocCache:
    def test_same_set_lru_eviction(self):
        c = SetAssocCache(lines=4, assoc=4)  # one set
        for k in range(4):
            assert c.access(k) == 1
        assert c.access(4) == 1
        assert c.resident_keys() == [1, 2, 3, 4]

    def test_get_refreshes_within_set(self):
        c = SetAssocCache(lines=2, assoc=2)
        c.put_range([0, 1])
        c.get_range([0])
        c.access(2)
        assert c.resident_keys() == [0, 2]

    def test_dirty_flag_travels_with_eviction(self):
        c = SetAssocCache(lines=2, assoc=2)
        c.access(0)
        c.access(1, dirty=True)
        assert c.access(2) == 1
        assert c.resident_keys() == [1, 2]
        assert c.access(3) == 2
        assert c.resident_keys() == [2, 3]

    def test_mark_dirty(self):
        c = SetAssocCache(lines=1, assoc=1)
        c.put_range([5])
        assert c.access(5, True) == 0
        assert c.access(6) == 2
        assert c.resident_keys() == [6]

    def test_invalidate(self):
        c = SetAssocCache(lines=4, assoc=2)
        c.put_range([3])
        c.invalidate_range([3])
        assert 3 not in c.resident_keys() and len(c) == 0

    def test_invalidate_absent_key_changes_nothing(self):
        c = SetAssocCache(lines=4, assoc=2)
        c.put_range([1])
        c.get_range([1])
        c.get_range([2])
        c.invalidate_range([2])
        assert (c.hits, c.misses, len(c), c.resident_keys()) == (1, 1, 1, [1])

    def test_resident_keys(self):
        c = SetAssocCache(lines=8, assoc=2)
        c.put_range([10, 20, 30])
        assert sorted(c.resident_keys()) == [10, 20, 30]

    def test_disjoint_sets_do_not_interfere(self):
        c = SetAssocCache(lines=32, assoc=2)
        # overfill one set's worth of slots with distinct keys: evictions
        # must only ever remove keys from the same set as the newcomer
        evictions = 0
        for k in range(200):
            home = dict(c._index)  # resident key -> its set, before the fill
            assert c.access(k) == 1
            evicted = home.keys() - c._index.keys()
            if evicted:
                evictions += 1
                (victim,) = evicted
                assert home[victim] is c._index[k]
        assert len(c) == 32
        assert evictions == 200 - 32


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["get", "put", "access"]), st.integers(0, 25)),
        max_size=150,
    )
)
def test_single_set_cache_behaves_like_lru(ops):
    sa = SetAssocCache(lines=4, assoc=4)
    lru = _LruModel(4)
    hits = 0
    for op, key in ops:
        if op == "get":
            hit = lru.get(key)
            hits += hit
            assert sa.get_range((key,)) == hit
        elif op == "access":
            moved = lru.access(key, key % 2 == 0)
            hits += not moved
            assert sa.access(key, key % 2 == 0) == moved
        else:
            sa.put_range((key,))
            lru.put(key, False)
        _assert_matches(sa, lru)
    assert sa.hits == hits


def _model_range(model, op, keys):
    """A range operation on the model, one key at a time; returns the
    result and the (hits, misses) it counted."""
    if op == "put":
        for k in keys:
            model.put(k, False)
        return None, (0, 0)
    if op == "get":
        hits = [model.get(k) for k in keys]
        return all(hits), (sum(hits), len(hits) - sum(hits))
    for k in keys:
        model.invalidate(k)
    return None, (0, 0)


_RANGE_OPS = {"put": "put_range", "get": "get_range", "inval": "invalidate_range"}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8),
    st.lists(
        st.tuples(st.sampled_from(sorted(_RANGE_OPS)), st.integers(0, 12), st.integers(0, 5)),
        max_size=80,
    ),
)
def test_range_ops_match_reference_model(capacity, ops):
    real = SetAssocCache(capacity, capacity)
    model = _LruModel(capacity)
    hits = misses = 0
    for op, first, count in ops:
        keys = range(first, first + count)
        expected, (h, m) = _model_range(model, op, keys)
        assert getattr(real, _RANGE_OPS[op])(keys) == expected
        hits, misses = hits + h, misses + m
        assert real.resident_keys() == list(model.d.keys())  # residency and recency
        assert (real.hits, real.misses, len(real)) == (hits, misses, len(model.d))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(_RANGE_OPS)), st.integers(0, 60), st.integers(0, 5)),
        max_size=120,
    ),
)
def test_range_ops_match_per_key_ops_across_sets(ops):
    ranged = SetAssocCache(lines=8, assoc=2)
    per_key = SetAssocCache(lines=8, assoc=2)
    for op, first, count in ops:
        keys = range(first, first + count)
        result = getattr(ranged, _RANGE_OPS[op])(keys)
        if op == "put":
            for k in keys:
                per_key.put_range((k,))
        elif op == "get":
            assert result == all([per_key.get_range((k,)) for k in keys])
        else:
            for k in keys:
                per_key.invalidate_range((k,))
        assert _contents(ranged) == _contents(per_key)
        assert (ranged.hits, ranged.misses, len(ranged)) == (
            per_key.hits, per_key.misses, len(per_key))


def _contents(cache):
    """Every set the cache made, by index: its lines in recency order with
    their dirty bits."""
    return {i: list(s.items()) for i, s in cache._sets.items()}


def _hashed_set(num_sets, key):
    """Index of the set ``access``'s hash picks for ``key``."""
    probe = SetAssocCache(num_sets, 1)
    probe.access(key)
    (index,) = probe._sets
    return index


def test_sets_are_made_on_first_fill():
    c = SetAssocCache(1 << 20, 1)
    assert len(c._sets) == 0 and c.resident_keys() == []
    # misses that do not fill, and drops, make no set
    assert c.get_range(range(100)) is False
    c.invalidate_range(range(100))
    assert len(c._sets) == 0
    keys = [0, 1, 77, 1 << 40, 12345, 2**64 + 3]
    for n, k in enumerate(keys, 1):
        assert c.access(k, k % 2 == 0) == 1
        assert len(c._sets) <= n
    c.put_range(range(500, 504))
    assert len(c._sets) <= len(keys) + 4
    made = dict(c._sets)
    # hits, range lookups and drops make none either
    resident = c.resident_keys()
    assert [c.access(k) for k in resident] == [0] * len(resident)
    assert c.get_range(resident) is True
    assert c.get_range(range(1000, 1100)) is False
    c.invalidate_range(range(1000, 1100))
    c.invalidate_range(resident)
    assert len(c) == 0 and c._sets.keys() == made.keys()
    assert all(c._sets[i] is s for i, s in made.items())


_MEMO_KEYS = st.lists(st.one_of(st.integers(0, 15), st.integers(0, 2**40 - 1)), max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 3, 32, 1024]),
    st.integers(1, 3),
    st.lists(st.tuples(st.sampled_from(["put", "inval", "access"]), _MEMO_KEYS), max_size=40),
)
def test_put_range_memo_is_exact_and_bounded(num_sets, assoc, ops):
    # a twin driven one key at a time names the keys each put_range places
    real = SetAssocCache(num_sets * assoc, assoc)
    twin = SetAssocCache(num_sets * assoc, assoc)
    placed = set()
    for op, keys in ops:
        if op == "put":
            for k in keys:
                if k not in twin._index:
                    placed.add(k)
                twin.put_range((k,))
            real.put_range(keys)
        elif op == "inval":
            real.invalidate_range(keys)
            twin.invalidate_range(keys)
        else:
            for k in keys:
                assert real.access(k, k % 2 == 0) == twin.access(k, k % 2 == 0)
        assert _contents(real) == _contents(twin)
        # only put_range grows the memo, and every key it placed sits in its
        # hashed set: _fill's hash is access's
        assert real._homes.keys() == placed
        for k, home in real._homes.items():
            assert home is real._sets.get(_hashed_set(num_sets, k))
        for k, s in real._index.items():
            assert s is real._sets.get(_hashed_set(num_sets, k))


_WALK_INDEX = st.one_of(st.integers(0, 300), st.integers(0, 2**40 - 1))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 4),
    st.lists(st.tuples(_WALK_INDEX, st.booleans()), max_size=60),
)
def test_climb_matches_per_level_access(arity, levels, num_sets, assoc, walks):
    # the walk against its definition: one access per level on a twin cache,
    # stopping at the first hit
    walked = SetAssocCache(num_sets * assoc, assoc)
    stepped = SetAssocCache(num_sets * assoc, assoc)
    for index, dirty in walks:
        misses = writebacks = 0
        for level in range(levels):
            moved = stepped.access(index // arity**level * 64 + level, dirty)
            if not moved:
                break
            misses += 1
            writebacks += moved == 2
        assert walked.climb(index, arity, levels, dirty) == (misses, writebacks)
        # contents, recency order and dirty bits, set by set
        assert _contents(walked) == _contents(stepped)
        assert (walked.hits, walked.misses) == (stepped.hits, stepped.misses)
        # the walk's inline hash is access's
        for k, s in walked._index.items():
            assert s is walked._sets.get(_hashed_set(num_sets, k))


class TestRangeOps:
    def test_get_range_probes_every_key_after_a_miss(self):
        c = SetAssocCache(4, 4)
        c.put_range(range(1, 4))  # 0 is absent, 1..3 resident
        c.put_range([9])  # most recent
        assert c.get_range(range(0, 4)) is False
        assert (c.hits, c.misses) == (3, 1)
        assert c.resident_keys() == [9, 1, 2, 3]  # hits refreshed in order

    def test_get_range_all_hit(self):
        c = SetAssocCache(4, 4)
        c.put_range([5, 6])
        assert c.get_range([5, 6]) is True
        assert (c.hits, c.misses) == (2, 0)

    def test_empty_range_changes_nothing(self):
        c = SetAssocCache(4, 4)
        c.put_range([1])
        assert c.get_range(range(0)) is True
        c.put_range(range(0))
        c.invalidate_range(range(0))
        assert (c.hits, c.misses, c.resident_keys()) == (0, 0, [1])

    def test_put_range_refreshes_and_keeps_dirty_bit(self):
        c = SetAssocCache(3, 3)
        c.access(1, dirty=True)
        c.put_range([2])
        c.put_range([1, 3])  # 1 refreshed, still dirty; 3 filled clean
        assert c.resident_keys() == [2, 1, 3]
        assert c.access(4) == 1
        assert c.resident_keys() == [1, 3, 4]
        assert c.access(5) == 2
        assert c.resident_keys() == [3, 4, 5]

    def test_invalidate_range_skips_absent_keys(self):
        c = SetAssocCache(4, 2)
        c.put_range([1, 2, 3])
        c.invalidate_range(range(2, 6))
        assert c.resident_keys() == [1] and len(c) == 1
        assert (c.hits, c.misses) == (0, 0)


class _FlatModel:
    """Reference for ``FlatCache``: an ``_LruModel`` of pages, a per-page
    count of filled lines and a twin overflow cache driven key by key."""

    def __init__(self, entries, lines, assoc):
        self.lru = _LruModel(entries)
        self.filled = {}
        self.overflow = SetAssocCache(lines, assoc)
        self.hits = self.misses = 0

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
            self.overflow.put_range((k,))

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
        lines_hit = all([self.overflow.get_range((k,)) for k in self._keys(page, count)])
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
            self.overflow.invalidate_range((k,))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 3),
    st.lists(
        st.tuples(st.sampled_from(["read", "write", "drop"]),
                  st.integers(0, 5), st.integers(0, FULL_SLOTS)),
        max_size=120,
    ),
)
def test_flat_cache_matches_reference_model(entries, assoc, sets, ops):
    # counts follow the engine: a cached page's format only grows, except that
    # a write whose reset left the page flat passes 0 and the re-key drops it
    real = FlatCache(entries, SetAssocCache(assoc * sets, assoc))
    model = _FlatModel(entries, assoc * sets, assoc)
    for op, page, count in ops:
        if op != "write" or count:
            count = max(count, model.filled.get(page, 0))
        if op == "read":
            assert real.read(page, count) == model.read(page, count)
        elif op == "write":
            real.write(page, count)
            model.write(page, count)
        else:
            real.drop(page)
            model.drop(page)
        assert (real.hits, real.misses) == (model.hits, model.misses)
        assert [p for p in range(6) if p in real] == [p for p in range(6) if p in model.lru.d]
        assert [real.lines(p) for p in range(6)] == [model.filled.get(p, 0) for p in range(6)]
        ov, ov_model = real.overflow, model.overflow
        assert ov.resident_keys() == ov_model.resident_keys()
        assert (ov.hits, ov.misses) == (ov_model.hits, ov_model.misses)
        # inclusive: every resident line belongs to a cached page that filled it
        assert all(k % FULL_SLOTS < real.lines(k // FULL_SLOTS) for k in ov.resident_keys())


class TestFlatCache:
    def test_eviction_drops_the_victims_lines(self):
        c = FlatCache(2, SetAssocCache(8, 8))
        for page in (0, 1):
            c.write(page, FULL_SLOTS)
        assert c.read(2, 0) == (False, None)  # evicts page 0, the least recent
        assert 0 not in c and c.overflow.resident_keys() == [4, 5, 6, 7]
        assert c.read(1, FULL_SLOTS) == (True, True)
        assert (c.hits, c.misses) == (1, 1)

    def test_write_counts_nothing_and_refreshes_recency(self):
        c = FlatCache(2, SetAssocCache(8, 8))
        c.write(0, 1)
        c.write(1, 0)
        c.write(0, 1)  # page 1 is now the least recent
        c.write(2, 0)
        assert 1 not in c and 0 in c and c.overflow.resident_keys() == [0]
        assert (c.hits, c.misses, c.overflow.hits, c.overflow.misses) == (0, 0, 0, 0)

    def test_write_left_flat_keeps_lines_for_the_drop(self):
        # a write whose reset left the page flat passes 0 lines; the re-key
        # that follows must still find and drop the lines the page filled
        c = FlatCache(2, SetAssocCache(8, 8))
        c.write(0, FULL_SLOTS)
        c.write(0, 0)
        assert c.lines(0) == FULL_SLOTS
        c.drop(0)
        assert [k for k in c.overflow.resident_keys() if k // FULL_SLOTS == 0] == []

    def test_read_fills_lines_exactly_on_a_device_read(self):
        c = FlatCache(2, SetAssocCache(8, 8))
        assert c.read(0, 2) == (False, None)  # flat miss: the READ fills both lines
        assert c.overflow.resident_keys() == [0, 1] and c.lines(0) == 2
        c.overflow.invalidate_range([1])
        assert c.read(0, 2) == (True, False)  # a missed line: the READ refills it
        assert c.overflow.resident_keys() == [0, 1]
        assert c.read(0, 2) == (True, True)  # all hit: no READ, nothing filled
        assert (c.overflow.hits, c.overflow.misses) == (3, 1)

    def test_rejects_no_entries(self):
        with pytest.raises(ConfigError):
            FlatCache(0, SetAssocCache(4, 4))
