"""LRU cache models used by the host engine and the baselines.

A cache tracks residency and recency, plus one dirty bit per line; it stores
no payloads, since no counted number depends on them.  A set-associative
cache makes each set on its first fill, so building one costs the same at
any size and a cache of 2^30 sets holds only the sets a trace filled.
Hit/miss counters live on the cache so statistics fall out for free.
Every fill places its key in a set with one hash, ``set_index``; the
per-event probes write its formula out inline, so hashing costs no call.
``SetAssocCache``, the MAC cache, indexes a line once it hits, so a hit on
a line that has not hit before hashes once, and so does invalidating such
a line; neither makes a set.
``FlatCache``, the host's cache of flat entries, fills, probes and drops
its inclusive overflow buffer of the pages' dynamic lines a page at a time,
in one ``access`` call per event.
``CounterCache``, the counter tree's cache, walks every level of one
verification in one call.
"""

from __future__ import annotations

from collections import defaultdict

from .core import ConfigError
from .version_store import FULL_SLOTS


def set_index(key: int, num_sets: int) -> int:
    """The set a key fills: a cheap deterministic integer hash, since
    Python's hash() is identity for ints, which would put striding keys in
    lockstep with the set count.  Only the low 64 bits of each product
    reach the result, so it is exact in wrapping uint64 arithmetic too.
    This is the reference formula: the two per-event probes,
    ``SetAssocCache.access`` and ``CounterCache.walk``, write it out inline
    to save a call, each held to it by a named test.  Add no other copy
    without a measured end-to-end gain."""
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
    """Set-associative write-back LRU cache keyed by integers, the MAC
    cache; each set maps a key to its dirty bit.  A residency index maps
    each resident key that has hit since its fill to its set, so a repeat
    hit hashes nothing.  A fill leaves the index alone: a key it lacks is
    hashed once, and the probe of its set tells a first hit, which indexes
    it, from a miss.  Invalidating a key the index lacks hashes it once
    too.  Only a fill makes a set."""

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
        h = (key ^ (key >> 16)) * 0x45D9F3B  # set_index, inline
        h = (h ^ (h >> 16)) * 0x45D9F3B
        s = self._sets[((h ^ (h >> 16)) & 0xFFFFFFFF) % self.num_sets]
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


class CounterCache(LruSets):
    """The counter tree's write-back LRU cache of node keys; each set maps a
    key to its dirty bit.  It keeps no residency index: its one operation,
    ``walk``, hashes each level's key inline with ``set_index``'s formula,
    so a probe costs no call."""

    def walk(self, leaf: int, arity: int, depth: int, dirty: bool) -> tuple[int, int]:
        """Probe the nodes of one verification, leaf level first, and stop
        at the first hit, or after ``depth`` levels.  Level ``l``'s node key
        is ``(leaf // arity**l) * 64 + l``: levels stay below 64, so they
        interleave under the node index bits.  A hit refreshes its node, and
        a write (``dirty``) marks it dirty; each miss fills its node, dirty
        on a write, and a dirty victim is written back.  Returns the nodes
        fetched and the lines moved: one per fill, plus one per write-back."""
        sets, num_sets, assoc = self._sets, self.num_sets, self.assoc
        fetched = moved = 0
        while fetched < depth:  # the level walked is the count fetched so far
            key = leaf * 64 + fetched
            h = (key ^ (key >> 16)) * 0x45D9F3B  # set_index, inline
            h = (h ^ (h >> 16)) * 0x45D9F3B
            s = sets[((h ^ (h >> 16)) & 0xFFFFFFFF) % num_sets]
            if key in s:
                s[key] = s.pop(key) or dirty
                self.hits += 1
                break
            s[key] = dirty
            fetched += 1
            moved += 1
            if len(s) > assoc:
                for victim in s:  # the first key is the least recently used
                    break
                if s.pop(victim):
                    moved += 1
            leaf //= arity
        self.misses += fetched
        return fetched, moved


class FlatCache:
    """Fully associative LRU cache of flat entries that owns the inclusive
    ``overflow`` buffer of the pages' dynamic lines (line ``i`` of page ``p``
    is key ``p * FULL_SLOTS + i``), whose lines are always clean.

    Each resident page, least recently used first, maps to the (key, set)
    pairs of the lines it filled, so a page's lines are filled, probed and
    dropped together, straight in their sets, as the device sends a page's
    entry and lines in one round trip; the buffer keeps no index of its own.
    A page's resident lines are among those it filled, all its format has
    (each device response fills that count, and the re-key after a reset
    drops the page); evicting or dropping it pops them.  A flat miss reads
    the page's line count from ``store.line_count(page)``.  A memo of each
    page's line sets hashes a line once, however often the buffer thrashes
    it out and back in.
    """

    def __init__(self, entries: int, overflow: LruSets, store) -> None:
        if entries <= 0:
            raise ConfigError(f"bad cache shape: {entries} flat entries")
        self.entries = entries
        self.overflow = overflow
        self._store = store  # not its bound line_count: a wrapper on the store sees calls
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

    def access(self, page: int, count: int) -> int:
        """The one call per event.  A ``count`` of -1 probes the page and
        every line it filled, counting each hit or miss here and in
        ``overflow``: -1 when all hit, else the device READ fills the page,
        with the store's ``line_count(page)`` lines on a flat miss or all it
        filled.  A ``count`` of 0 or more is an UPDATE's response: it counts
        nothing and fills the page's first ``count`` lines; a page left flat
        keeps its lines for the re-key after its reset.  Returns the lines
        filled."""
        pages = self._pages
        lines = pages.pop(page, None)
        if count < 0:
            if lines is None:
                self.misses += 1
                count = self._store.line_count(page)  # draws an untouched page's base
            else:
                self.hits += 1
                hits = 0
                for key, s in lines:
                    if key in s:
                        del s[key]
                        s[key] = False
                        hits += 1
                self.overflow.hits += hits
                count = len(lines)
                if hits == count:
                    pages[page] = lines
                    return -1
                self.overflow.misses += count - hits
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
        return count

    def drop(self, page: int) -> None:
        """Invalidate a page and its lines."""
        for key, s in self._pages.pop(page, ()):
            s.pop(key, None)
