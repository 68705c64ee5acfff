from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from freshsim.caches import SetAssocCache


class TestLruCache:
    """A fully associative cache is one set: SetAssocCache(n, n)."""

    def test_fill_and_evict_oldest(self):
        c = SetAssocCache(2, 2)
        assert c.put(1) is None
        assert c.put(2) is None
        assert c.put(3) == (1, False)
        assert 1 not in c and 2 in c and 3 in c

    def test_get_refreshes_recency(self):
        c = SetAssocCache(2, 2)
        c.put(1)
        c.put(2)
        assert c.get(1) is True
        assert c.put(3) == (2, False)

    def test_hit_miss_counters(self):
        c = SetAssocCache(4, 4)
        c.put(1)
        assert c.get(1) is True
        assert c.get(2) is False
        c.get(1)
        assert (c.hits, c.misses) == (2, 1)

    def test_invalidate(self):
        c = SetAssocCache(2, 2)
        c.put(1)
        assert c.invalidate(1) is True
        assert c.invalidate(1) is False
        assert 1 not in c

    def test_put_existing_updates_value(self):
        # refreshing a resident key moves it to most recent and keeps it dirty
        c = SetAssocCache(2, 2)
        c.put(1, dirty=True)
        c.put(2)
        assert c.put(1) is None
        assert c.put(3) == (2, False)
        assert c.put(4) == (1, True)


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
        if not self.get(k):
            return False, self.put(k, dirty)
        if dirty:
            self.d[k] = True
        return True, None

    def invalidate(self, k):
        return self.d.pop(k, None) is not None


def _assert_index_matches(cache, model):
    assert len(cache) == len(cache.resident_keys())
    assert all(cache.probe(k) for k in model.d)


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
            assert real.get(key) == model.get(key)
        elif op == "put":
            assert real.put(key, key % 3 == 0) == model.put(key, key % 3 == 0)
        elif op == "access":
            assert real.access(key, key % 2 == 0) == model.access(key, key % 2 == 0)
        else:
            assert real.invalidate(key) == model.invalidate(key)
        _assert_index_matches(real, model)
    assert real.resident_keys() == list(model.d.keys())


class TestSetAssocCache:
    def test_same_set_lru_eviction(self):
        c = SetAssocCache(lines=4, assoc=4)  # one set
        for k in range(4):
            assert c.put(k) is None
        evicted = c.put(4)
        assert evicted == (0, False)

    def test_get_refreshes_within_set(self):
        c = SetAssocCache(lines=2, assoc=2)
        c.put(0)
        c.put(1)
        c.get(0)
        assert c.put(2)[0] == 1

    def test_probe_does_not_count(self):
        c = SetAssocCache(lines=4, assoc=2)
        c.put(1)
        assert c.probe(1) is True
        assert c.probe(99) is False
        assert (c.hits, c.misses) == (0, 0)
        c.get(1)
        c.get(99)
        assert (c.hits, c.misses) == (1, 1)

    def test_probe_does_not_refresh(self):
        c = SetAssocCache(lines=2, assoc=2)
        c.put(1)
        c.put(2)
        assert c.probe(1)
        assert c.put(3) == (1, False)  # 1 still oldest

    def test_dirty_flag_travels_with_eviction(self):
        c = SetAssocCache(lines=2, assoc=2)
        c.put(0)
        c.put(1, dirty=True)
        assert c.put(2) == (0, False)
        k, dirty = c.put(3)
        assert (k, dirty) == (1, True)

    def test_mark_dirty(self):
        c = SetAssocCache(lines=1, assoc=1)
        c.put(5)
        assert c.access(5, True) == (True, None)
        assert c.put(6) == (5, True)

    def test_invalidate(self):
        c = SetAssocCache(lines=4, assoc=2)
        c.put(3)
        assert c.invalidate(3) is True
        assert c.invalidate(3) is False
        assert not c.probe(3)

    def test_invalidate_absent_key_changes_nothing(self):
        c = SetAssocCache(lines=4, assoc=2)
        c.put(1)
        c.get(1)
        c.get(2)
        assert c.invalidate(2) is False
        assert (c.hits, c.misses, len(c), c.resident_keys()) == (1, 1, 1, [1])

    def test_resident_keys(self):
        c = SetAssocCache(lines=8, assoc=2)
        for k in (10, 20, 30):
            c.put(k)
        assert sorted(c.resident_keys()) == [10, 20, 30]

    def test_disjoint_sets_do_not_interfere(self):
        c = SetAssocCache(lines=32, assoc=2)
        # overfill one set's worth of slots with distinct keys: evictions
        # must only ever remove keys from the same set as the newcomer
        evictions = 0
        for k in range(200):
            home = dict(c._index)  # resident key -> its set, before the fill
            ev = c.put(k)
            if ev is not None:
                evictions += 1
                assert home[ev[0]] is c._index[k]
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
            assert sa.get(key) == hit
        elif op == "access":
            hit, evicted = lru.access(key, key % 2 == 0)
            hits += hit
            assert sa.access(key, key % 2 == 0) == (hit, evicted)
        else:
            assert sa.put(key) == lru.put(key, False)
        _assert_index_matches(sa, lru)
    assert sa.resident_keys() == list(lru.d.keys())
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
                per_key.put(k)
        elif op == "get":
            assert result == all([per_key.get(k) for k in keys])
        else:
            for k in keys:
                per_key.invalidate(k)
        assert [list(s) for s in ranged._sets] == [list(s) for s in per_key._sets]
        assert (ranged.hits, ranged.misses, len(ranged)) == (
            per_key.hits, per_key.misses, len(per_key))


class TestRangeOps:
    def test_get_range_probes_every_key_after_a_miss(self):
        c = SetAssocCache(4, 4)
        c.put_range(range(1, 4))  # 0 is absent, 1..3 resident
        c.put(9)  # most recent
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
        c.put(1)
        assert c.get_range(range(0)) is True
        c.put_range(range(0))
        c.invalidate_range(range(0))
        assert (c.hits, c.misses, c.resident_keys()) == (0, 0, [1])

    def test_put_range_refreshes_and_keeps_dirty_bit(self):
        c = SetAssocCache(3, 3)
        c.put(1, dirty=True)
        c.put(2)
        c.put_range([1, 3])  # 1 refreshed, still dirty; 3 filled clean
        assert c.resident_keys() == [2, 1, 3]
        assert c.put(4) == (2, False)
        assert c.put(5) == (1, True)

    def test_invalidate_range_skips_absent_keys(self):
        c = SetAssocCache(4, 2)
        c.put_range([1, 2, 3])
        c.invalidate_range(range(2, 6))
        assert c.resident_keys() == [1] and len(c) == 1
        assert (c.hits, c.misses) == (0, 0)
