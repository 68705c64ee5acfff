"""LRU cache model used by the host engine and the baselines.

A cache tracks residency, recency, and one dirty bit per key; it stores no
payloads, since no counted number depends on them.  A fully associative
cache of ``n`` entries is ``SetAssocCache(n, n)``.  Hit/miss counters live on
the cache so statistics fall out for free.
"""

from __future__ import annotations

from .core import ConfigError


class SetAssocCache:
    """Set-associative write-back LRU cache keyed by integers.

    Each set is a plain dict of key -> dirty bit in recency order: a touched
    key is re-inserted at the end and eviction takes the first key.  A
    residency index maps every resident key to its set, so only a fill
    hashes a key.  A line's ``(key, dirty)`` pair is returned on eviction so
    the caller can charge write-back traffic.
    """

    def __init__(self, lines: int, assoc: int) -> None:
        if lines <= 0 or assoc <= 0 or lines % assoc:
            raise ConfigError(f"bad cache shape: {lines} lines, {assoc}-way")
        self.lines = lines
        self.assoc = assoc
        self.num_sets = lines // assoc
        self._sets: list[dict[int, bool]] = [{} for _ in range(self.num_sets)]
        self._index: dict[int, dict[int, bool]] = {}  # resident key -> its set
        self.hits = 0
        self.misses = 0

    def _fill(self, key: int, dirty: bool) -> tuple[int, bool] | None:
        """Insert a non-resident key; returns the evicted (key, dirty) or None."""
        if self.num_sets == 1:
            s = self._sets[0]
        else:
            # cheap deterministic integer hash; Python's hash() is identity
            # for ints, which would put striding keys in lockstep with the
            # set count
            h = (key ^ (key >> 16)) * 0x45D9F3B
            h = (h ^ (h >> 16)) * 0x45D9F3B
            s = self._sets[((h ^ (h >> 16)) & 0xFFFFFFFF) % self.num_sets]
        s[key] = dirty
        self._index[key] = s
        if len(s) > self.assoc:
            for victim in s:  # the first key is the least recently used
                break
            del self._index[victim]
            return victim, s.pop(victim)
        return None

    def get(self, key: int) -> bool:
        """Look up a line, counting the hit or miss and refreshing recency."""
        s = self._index.get(key)
        if s is None:
            self.misses += 1
            return False
        s[key] = s.pop(key)
        self.hits += 1
        return True

    def probe(self, key: int) -> bool:
        """Residency check without touching recency or counters."""
        return key in self._index

    __contains__ = probe

    def put(self, key: int, dirty: bool = False) -> tuple[int, bool] | None:
        """Fill or refresh a line.  Returns the evicted (key, dirty) or None."""
        s = self._index.get(key)
        if s is None:
            return self._fill(key, dirty)
        s[key] = s.pop(key) or dirty
        return None

    def access(self, key: int, dirty: bool = False) -> tuple[bool, tuple[int, bool] | None]:
        """``get``, then ``put`` on a miss; a write (``dirty``) hit marks the
        line dirty.  Returns (hit, evicted (key, dirty) or None)."""
        s = self._index.get(key)
        if s is None:
            self.misses += 1
            return False, self._fill(key, dirty)
        s[key] = s.pop(key) or dirty
        self.hits += 1
        return True, None

    def invalidate(self, key: int) -> bool:
        """Drop a line without write-back (caller has already persisted it)."""
        s = self._index.pop(key, None)
        if s is None:
            return False
        del s[key]
        return True

    # -- range operations: ``put``, ``get`` or ``invalidate`` on every key of
    # a run of keys (a page's dynamic lines), in order, in one call

    def put_range(self, keys) -> None:
        """``put(key)`` (clean) on every key; evictions are not reported."""
        index = self._index
        fill = self._fill
        for key in keys:
            s = index.get(key)
            if s is None:
                fill(key, False)
            else:
                s[key] = s.pop(key)

    def get_range(self, keys) -> bool:
        """``get`` on every key, with no short-circuit: each key counts its
        hit or miss and a hit refreshes recency.  True if all keys hit."""
        index = self._index
        hits = 0
        missed = 0
        for key in keys:
            s = index.get(key)
            if s is None:
                missed += 1
            else:
                s[key] = s.pop(key)
                hits += 1
        self.hits += hits
        self.misses += missed
        return not missed

    def invalidate_range(self, keys) -> None:
        """``invalidate`` every key."""
        pop = self._index.pop
        for key in keys:
            s = pop(key, None)
            if s is not None:
                del s[key]

    def resident_keys(self) -> list[int]:
        """Resident keys, set by set, least recently used first."""
        out: list[int] = []
        for s in self._sets:
            out.extend(s.keys())
        return out

    def __len__(self) -> int:
        return len(self._index)
