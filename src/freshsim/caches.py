"""LRU cache models used by the host engine and the baselines.

A cache tracks residency and recency, plus one dirty bit per line; it stores
no payloads, since no counted number depends on them.  A set-associative
cache makes each set on its first fill, so building one costs the same at
any size and a cache of 2^30 sets holds only the sets a trace filled.
Hit/miss counters live on the cache so statistics fall out for free.
Every fill places its key in a set with one hash, ``set_index``.
``SetAssocCache`` indexes a line once it hits, so a hit on a line that has
not hit before hashes once, and so does invalidating such a line; neither
makes a set.
``FlatCache``, the host's cache of flat entries, fills, probes and drops
its inclusive overflow buffer of the pages' dynamic lines a page at a time.
The counter tree's walk is ``baselines``' own: one ``access`` per level.
"""

from __future__ import annotations

from collections import defaultdict

from .core import ConfigError
from .version_store import FULL_SLOTS


def set_index(key: int, num_sets: int) -> int:
    """The set a key fills: a cheap deterministic integer hash, since
    Python's hash() is identity for ints, which would put striding keys in
    lockstep with the set count.  Only the low 64 bits of each product
    reach the result, so it is exact in wrapping uint64 arithmetic too."""
    h = (key ^ (key >> 16)) * 0x45D9F3B
    h = (h ^ (h >> 16)) * 0x45D9F3B
    return ((h ^ (h >> 16)) & 0xFFFFFFFF) % num_sets


def check_shape(cache_bytes: int, line_bytes: int, assoc: int, keys: str) -> None:
    """Reject a cache of no line or no way, whose lines do not split into
    whole sets, or whose bytes are not a whole number of lines."""
    lines = cache_bytes // line_bytes
    if lines <= 0 or assoc <= 0 or lines % assoc:
        raise ConfigError(f"bad cache shape: {keys} give {lines} lines, {assoc}-way")
    if cache_bytes % line_bytes:
        raise ConfigError(f"bad cache shape: {keys} give {cache_bytes} bytes, "
                          f"not a whole number of {line_bytes}-byte lines")


class LruSets:
    """The sets of a set-associative LRU cache of integer keys, with hit and
    miss counters; ``FlatCache`` uses one as its overflow buffer.  Each set
    is a plain dict in recency order: a touched key is re-inserted at the
    end and eviction takes the first key.  Sets live in a dict from set
    index to set and a set is made on its first fill."""

    def __init__(self, lines: int, assoc: int) -> None:
        check_shape(lines, 1, assoc, "lines and assoc")
        self.lines = lines
        self.assoc = assoc
        self.num_sets = lines // assoc
        self._sets: defaultdict[int, dict[int, bool]] = defaultdict(dict)  # made on first fill
        self.hits = self.misses = 0


class SetAssocCache(LruSets):
    """Set-associative write-back LRU cache keyed by integers; each set maps
    a key to its dirty bit.  A residency index maps each resident key that
    has hit since its fill to its set, so a repeat hit hashes nothing.  A
    fill leaves the index alone: a key it lacks is hashed once, and the
    probe of its set tells a first hit, which indexes it, from a miss.
    Invalidating a key the index lacks hashes it once too.  Only a fill
    makes a set."""

    def __init__(self, lines: int, assoc: int) -> None:
        super().__init__(lines, assoc)
        self._index: dict[int, dict[int, bool]] = {}  # key that hit since its fill -> its set

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
        s = self._sets[set_index(key, self.num_sets)]
        if key in s:  # its first hit since the fill
            self._index[key] = s
            s[key] = s.pop(key) or dirty
            self.hits += 1
            return 0
        self.misses += 1
        s[key] = dirty
        if len(s) > self.assoc:
            for victim in s:  # the first key is the least recently used
                break
            self._index.pop(victim, None)
            if s.pop(victim):
                return 2
        return 1

    def invalidate_range(self, keys) -> None:
        """Drop every resident key of a run of keys without write-back (the
        caller has already persisted it)."""
        pop, sets, num_sets = self._index.pop, self._sets, self.num_sets
        for key in keys:
            s = pop(key, None)
            if s is None:
                s = sets.get(set_index(key, num_sets))
                if s is None:
                    continue
            s.pop(key, None)


class FlatCache:
    """Fully associative LRU cache of flat entries that owns the inclusive
    ``overflow`` buffer of the pages' dynamic lines (line ``i`` of page ``p``
    is key ``p * FULL_SLOTS + i``), whose lines are always clean.

    Each resident page, least recently used first, maps to the (key, set)
    pairs of the lines it filled, so a page's lines are filled, probed and
    dropped together, straight in their sets, as the device sends a page's
    entry and lines in one round trip; the buffer keeps no index of its own.
    A page's resident lines are among those it filled, all its format has
    (each device response passes that count, and the re-key after a reset
    drops the page); evicting or dropping it pops them.
    """

    def __init__(self, entries: int, overflow: LruSets) -> None:
        if entries <= 0:
            raise ConfigError(f"bad cache shape: {entries} flat entries")
        self.entries = entries
        self.overflow = overflow
        self._pages: dict[int, tuple] = {}
        # page -> its line 0's set or, once it filled more lines, the
        # (key, set) pairs of those lines: only pages that filled lines
        self._memo: dict[int, dict[int, bool] | tuple] = {}
        self.hits = self.misses = 0

    def _lines(self, page: int, count: int, known: tuple) -> tuple:
        """The (key, set) pairs of a page's first ``count`` lines, from the
        pairs ``known`` of its memo, hashing only the lines those lack."""
        if count < len(known):
            return known[:count]
        sets, num_sets, first = self.overflow._sets, self.overflow.num_sets, page * FULL_SLOTS
        lines = known + tuple((key, sets[set_index(key, num_sets)])
                              for key in range(first + len(known), first + count))
        self._memo[page] = lines[0][1] if count == 1 else lines
        return lines

    def read(self, page: int) -> int:
        """Look up a page and probe every line it filled, counting each hit or
        miss here and in ``overflow``.  Returns -1 on a flat miss, filling
        nothing: the device READ learns the format and fills through ``write``.
        Returns 0 when the page and all its lines hit; else the READ refills
        them all, and their count is returned."""
        pages = self._pages
        lines = pages.pop(page, None)
        if lines is None:
            self.misses += 1
            return -1
        pages[page] = lines
        self.hits += 1
        if not lines:
            return 0
        hits = 0
        for key, s in lines:
            if key in s:
                del s[key]
                s[key] = False
                hits += 1
        self.overflow.hits += hits
        count = len(lines)
        if hits == count:
            return 0
        self.overflow.misses += count - hits
        self.write(page, count)
        return count

    def write(self, page: int, count: int) -> None:
        """Refresh or fill a page and its first ``count`` lines, as a device
        response does; counts nothing.  A page an UPDATE left flat keeps its
        filled lines, so the re-key that follows a reset drops them."""
        pages = self._pages
        lines = pages.pop(page, None)
        if lines is None:  # so none of its lines is resident
            lines = ()
            if len(pages) >= self.entries:
                for victim in pages:  # the least recently used page
                    break
                for key, s in pages.pop(victim):
                    s.pop(key, None)
        elif count:  # dropping its lines and filling them in order leaves
            for key, s in lines:  # each set as refreshing them in place would
                s.pop(key, None)
        if count:
            if len(lines) != count:
                lines = self._memo.get(page, ())
                if lines.__class__ is dict:  # a one-line page memoises its bare set
                    lines = ((page * FULL_SLOTS, lines),)
                if len(lines) != count:
                    lines = self._lines(page, count, lines)
            assoc = self.overflow.assoc
            for key, s in lines:
                if len(s) == assoc:
                    for victim in s:
                        break
                    del s[victim]
                s[key] = False
        pages[page] = lines

    def drop(self, page: int) -> None:
        """Invalidate a page and its lines."""
        for key, s in self._pages.pop(page, ()):
            s.pop(key, None)
