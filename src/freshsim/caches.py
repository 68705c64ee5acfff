"""LRU cache model used by the host engine and the baselines.

A cache tracks residency, recency, and one dirty bit per key; it stores no
payloads, since no counted number depends on them.  A fully associative
cache of ``n`` entries is ``SetAssocCache(n, n)``.  Hit/miss counters live on
the cache so statistics fall out for free.
"""

from __future__ import annotations

from collections import OrderedDict

from .core import ConfigError


class SetAssocCache:
    """Set-associative write-back LRU cache keyed by integers.

    Each set maps key -> dirty bit in recency order.  A line's
    ``(key, dirty)`` pair is returned on eviction so the caller can charge
    write-back traffic.
    """

    def __init__(self, lines: int, assoc: int) -> None:
        if lines <= 0 or assoc <= 0 or lines % assoc:
            raise ConfigError(f"bad cache shape: {lines} lines, {assoc}-way")
        self.lines = lines
        self.assoc = assoc
        self.num_sets = lines // assoc
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def _set(self, key: int) -> OrderedDict:
        if self.num_sets == 1:
            return self._sets[0]
        # cheap deterministic integer hash; Python's hash() is identity for
        # ints, which would put striding keys in lockstep with the set count
        key = (key ^ (key >> 16)) * 0x45D9F3B
        key = (key ^ (key >> 16)) * 0x45D9F3B
        return self._sets[((key ^ (key >> 16)) & 0xFFFFFFFF) % self.num_sets]

    def get(self, key: int) -> bool:
        """Look up a line, counting the hit or miss and refreshing recency."""
        s = self._set(key)
        if key in s:
            s.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def probe(self, key: int) -> bool:
        """Residency check without touching recency or counters."""
        return key in self._set(key)

    __contains__ = probe

    def put(self, key: int, dirty: bool = False) -> tuple[int, bool] | None:
        """Fill or refresh a line.  Returns the evicted (key, dirty) or None."""
        s = self._set(key)
        if key in s:
            s[key] = dirty or s[key]
            s.move_to_end(key)
            return None
        s[key] = dirty
        if len(s) > self.assoc:
            return s.popitem(last=False)
        return None

    def access(self, key: int, dirty: bool = False) -> tuple[bool, tuple[int, bool] | None]:
        """``get``, then ``put`` on a miss; a write (``dirty``) hit marks the
        line dirty.  Returns (hit, evicted (key, dirty) or None)."""
        s = self._set(key)
        if key in s:
            s.move_to_end(key)
            self.hits += 1
            if dirty:
                s[key] = True
            return True, None
        self.misses += 1
        s[key] = dirty
        if len(s) > self.assoc:
            return False, s.popitem(last=False)
        return False, None

    def invalidate(self, key: int) -> bool:
        """Drop a line without write-back (caller has already persisted it)."""
        return self._set(key).pop(key, None) is not None

    def resident_keys(self) -> list[int]:
        """Resident keys, set by set, least recently used first."""
        out: list[int] = []
        for s in self._sets:
            out.extend(s.keys())
        return out

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)
