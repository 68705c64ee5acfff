"""LRU cache models used by the host engine and the baselines.

A cache tracks residency and recency, plus one dirty bit per line; it stores
no payloads, since no counted number depends on them.  A set-associative
cache makes each set on its first fill, so building one costs the same at
any size and a cache of 2^30 sets holds only the sets a trace filled.
Hit/miss counters live on the cache so statistics fall out for free.
``FlatCache`` is the host's fully associative cache of flat entries, which
owns an inclusive overflow buffer of the pages' dynamic lines and counts the
lines each page filled.
"""

from __future__ import annotations

from collections import defaultdict

from .core import ConfigError
from .version_store import FULL_SLOTS


def check_shape(cache_bytes: int, line_bytes: int, assoc: int, keys: str) -> None:
    """Reject a cache of no line or no way, whose lines do not split into
    whole sets, or whose bytes are not a whole number of lines."""
    lines = cache_bytes // line_bytes
    if lines <= 0 or assoc <= 0 or lines % assoc:
        raise ConfigError(f"bad cache shape: {keys} give {lines} lines, {assoc}-way")
    if cache_bytes % line_bytes:
        raise ConfigError(f"bad cache shape: {keys} give {cache_bytes} bytes, "
                          f"not a whole number of {line_bytes}-byte lines")


class SetAssocCache:
    """Set-associative write-back LRU cache keyed by integers.

    Each set is a plain dict of key -> dirty bit in recency order: a touched
    key is re-inserted at the end and eviction takes the first key.  Sets
    live in a dict from set index to set and a set is made on its first
    fill; a lookup, a hit, ``get_range`` or ``invalidate_range`` makes none.
    A residency index maps every resident key to its set, so only a fill
    hashes a key, and ``put_range`` memoises the set of each key it places.
    The set hash has three copies, in ``access``, ``climb`` and ``_fill``, so
    that no fill pays a call for it; tests pin them to one another.
    """

    def __init__(self, lines: int, assoc: int) -> None:
        check_shape(lines, 1, assoc, "lines and assoc")
        self.lines = lines
        self.assoc = assoc
        self.num_sets = lines // assoc
        self._sets: defaultdict[int, dict[int, bool]] = defaultdict(dict)  # made on first fill
        self._index: dict[int, dict[int, bool]] = {}  # resident key -> its set
        self._homes: dict[int, dict[int, bool]] = {}  # key put_range placed -> its set
        self.hits = 0
        self.misses = 0

    def _fill(self, key: int) -> None:
        """Place a non-resident key clean, evicting without write-back; only
        ``put_range``'s first placement of a key comes here."""
        # cheap deterministic integer hash; Python's hash() is identity for
        # ints, which would put striding keys in lockstep with the set count.
        # access and climb repeat it inline and must stay bit-identical to it
        h = (key ^ (key >> 16)) * 0x45D9F3B
        h = (h ^ (h >> 16)) * 0x45D9F3B
        s = self._sets[((h ^ (h >> 16)) & 0xFFFFFFFF) % self.num_sets]
        s[key] = False
        self._index[key] = s
        if len(s) > self.assoc:
            for victim in s:  # the first key is the least recently used
                break
            del s[victim], self._index[victim]

    def access(self, key: int, dirty: bool = False) -> int:
        """Look up a line, counting the hit or miss and refreshing recency,
        and fill it on a miss; a write (``dirty``) marks the line dirty.
        Returns the lines moved: 0 on a hit, 1 for the fill, 2 when the
        fill evicted a dirty line that is written back."""
        s = self._index.get(key)
        if s is not None:
            s[key] = s.pop(key) or dirty
            self.hits += 1
            return 0
        self.misses += 1
        # _fill inline, as climb does: the same hash, with no call per miss
        h = (key ^ (key >> 16)) * 0x45D9F3B
        h = (h ^ (h >> 16)) * 0x45D9F3B
        s = self._sets[((h ^ (h >> 16)) & 0xFFFFFFFF) % self.num_sets]
        s[key] = dirty
        self._index[key] = s
        if len(s) > self.assoc:
            for victim in s:  # the first key is the least recently used
                break
            del self._index[victim]
            if s.pop(victim):
                return 2
        return 1

    def climb(self, index: int, arity: int, levels: int, dirty: bool) -> tuple[int, int]:
        """Walk a counter tree leaf to root, as one ``access`` per level would:
        level ``l``'s key is ``(index // arity**l) * 64 + l`` (levels are
        sparse, below 64, so they interleave under the index bits).  The walk
        stops at the first hit; every miss is filled, dirty on a write.
        Returns (misses, evicted lines that were dirty)."""
        resident = self._index
        misses = writebacks = 0
        for level in range(levels):
            key = index * 64 + level
            s = resident.get(key)
            if s is not None:
                s[key] = s.pop(key) or dirty
                self.hits += 1
                break
            misses += 1
            # _fill inline: the same hash, with no call and no tuple per level
            h = (key ^ (key >> 16)) * 0x45D9F3B
            h = (h ^ (h >> 16)) * 0x45D9F3B
            s = self._sets[((h ^ (h >> 16)) & 0xFFFFFFFF) % self.num_sets]
            s[key] = dirty
            resident[key] = s
            if len(s) > self.assoc:
                for victim in s:
                    break
                del resident[victim]
                if s.pop(victim):
                    writebacks += 1
            index //= arity
        self.misses += misses
        return misses, writebacks

    # -- range operations: fill, look up or drop every key of a run of keys
    # (a page's dynamic lines), in order, in one call

    def put_range(self, keys) -> None:
        """Fill every absent key clean and refresh every resident one, keeping
        its dirty bit; counts nothing, and evictions are not reported."""
        index = self._index
        homes = self._homes
        for key in keys:
            s = index.get(key)
            if s is not None:
                s[key] = s.pop(key)
            elif (s := homes.get(key)) is None:  # first placement: _fill hashes it
                self._fill(key)
                homes[key] = index[key]
            else:
                s[key] = False
                index[key] = s
                if len(s) > self.assoc:
                    for victim in s:
                        break
                    del s[victim], index[victim]

    def get_range(self, keys) -> bool:
        """Look up every key, with no short-circuit and no fill: each key
        counts its hit or miss and a hit refreshes recency.  True if all
        keys hit."""
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
        """Drop every resident key without write-back (the caller has
        already persisted it)."""
        pop = self._index.pop
        for key in keys:
            s = pop(key, None)
            if s is not None:
                del s[key]

    def resident_keys(self) -> list[int]:
        """Resident keys, set by set in index order, least recently used first."""
        out: list[int] = []
        for i in sorted(self._sets):
            out.extend(self._sets[i])
        return out

    def __len__(self) -> int:
        return len(self._index)


class FlatCache:
    """Fully associative LRU cache of flat entries that owns the inclusive
    ``overflow`` buffer of the pages' dynamic lines (line ``i`` of page ``p``
    is key ``p * FULL_SLOTS + i``).

    Each resident page, least recently used first, maps to the count of lines
    it filled.  A page's format only grows until a reset drops it, so its
    resident lines are among those; evicting or dropping a page invalidates
    them in the same call.
    """

    def __init__(self, entries: int, overflow: SetAssocCache) -> None:
        if entries <= 0:
            raise ConfigError(f"bad cache shape: {entries} flat entries")
        self.entries = entries
        self.overflow = overflow
        self._pages: dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def read(self, page: int, count: int) -> tuple[bool, bool | None]:
        """Look up a page whose format has ``count`` lines, filling it on a miss.
        Returns the flat hit and, for a hit with lines, whether all lines hit;
        any miss costs a device READ, whose response fills all the lines."""
        pages = self._pages
        filled = pages.pop(page, None)
        if filled is None:  # what write() does, inline on the common read path
            self.misses += 1
            pages[page] = count
            if len(pages) > self.entries:
                self.drop(next(iter(pages)))  # the least recently used page
            if count:
                self.overflow.put_range(range(page * FULL_SLOTS, page * FULL_SLOTS + count))
            return False, None
        pages[page] = filled
        self.hits += 1
        if not count:
            return True, None
        if self.overflow.get_range(range(page * FULL_SLOTS, page * FULL_SLOTS + count)):
            return True, True
        self.write(page, count)
        return True, False

    def write(self, page: int, count: int) -> None:
        """Refresh or fill a page and its first ``count`` lines, as a device
        response does; counts nothing.  A page an UPDATE left flat keeps its
        count of filled lines, so the re-key that follows a reset drops them."""
        pages = self._pages
        filled = pages.pop(page, 0)
        pages[page] = count or filled
        if len(pages) > self.entries:
            self.drop(next(iter(pages)))
        if count:
            self.overflow.put_range(range(page * FULL_SLOTS, page * FULL_SLOTS + count))

    def drop(self, page: int) -> None:
        """Invalidate a page and its lines."""
        count = self._pages.pop(page, 0)
        if count:
            first = page * FULL_SLOTS
            self.overflow.invalidate_range(range(first, first + count))

    def lines(self, page: int) -> int:
        """Overflow lines a resident page filled; 0 for any other page."""
        return self._pages.get(page, 0)

    def __contains__(self, page: int) -> bool:
        return page in self._pages
