"""Views of simulator state, version arithmetic and a reference model that
only tests use.

Each view reads the same state the simulator keeps, so a test can check a
cache's contents, a page's base or what a call charged without the
simulator carrying an accessor that no program calls.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from freshsim.core import EncodingError
from freshsim.version_store import TAG_BITS


class Charges(NamedTuple):
    """What a call added to an engine's totals: channel bytes, device
    transactions, resets, re-encrypted blocks, and in ``latency_ns`` the
    read latency it summed."""

    local_bytes: int = 0
    pool_bytes: int = 0
    mac_bytes: int = 0
    device_bytes: int = 0
    device_transactions: int = 0
    resets: int = 0
    reencrypted_blocks: int = 0
    latency_ns: float = 0.0


def _totals(engine) -> Charges:
    return Charges(engine.local_bytes, engine.pool_bytes, engine.mac_bytes,
                   engine.device_bytes,
                   getattr(engine, "device_reads", 0) + getattr(engine, "device_updates", 0),
                   engine.resets, engine.reencrypted_blocks, engine.read_latency_total)


def charged(engine, call: str, *args) -> Charges:
    """Run ``engine.<call>(*args)``: what it added to the engine's totals."""
    before = _totals(engine)
    getattr(engine, call)(*args)
    return Charges(*(after - was for after, was in zip(_totals(engine), before)))


def resident_keys(cache) -> list[int]:
    """Resident keys of an ``LruSets``, set by set in index order, least
    recently used first."""
    return [key for i in sorted(cache._sets) for key in cache._sets[i]]


def resident_count(cache) -> int:
    """Lines resident in an ``LruSets``."""
    return sum(map(len, cache._sets.values()))


def filled_lines(flat, page: int) -> int:
    """Overflow lines a page resident in a ``FlatCache`` filled; 0 for any
    other page."""
    return len(flat._pages.get(page, ()))


def is_cached(flat, page: int) -> bool:
    """Whether a ``FlatCache`` holds the page."""
    return page in flat._pages


def page_base(store, page: int) -> int:
    """Base field of a ``VersionStore`` page's entry (the leading version for
    a full page).  An untouched page materializes (draws its base), and a
    page outside the protected range is refused before any draw."""
    e = store._entry(page)
    return (e >> TAG_BITS) & store.params.stealth_mask if type(e) is int else e.base


def pages_touched(store) -> int:
    """Pages a ``VersionStore`` has materialized, in any format."""
    return len(store._entries)


def stealth_add(value: int, delta: int, stealth_bits: int) -> int:
    """Add ``delta`` to a stealth version, wrapping modulo 2**stealth_bits."""
    if value < 0 or delta < 0:
        raise EncodingError("stealth versions and deltas are unsigned")
    mask = (1 << stealth_bits) - 1
    if value > mask:
        raise EncodingError(f"stealth value {value} exceeds {stealth_bits} bits")
    return (value + delta) & mask


class ReferenceMap:
    """Uncompressed oracle of the version store: one plain counter per
    block.  It shares the store's draw protocol, so both consume the same
    seeded stream: an S-bit draw at first page touch, an R-bit draw on each
    strict leading-version advance, and an S-bit redraw when that fires
    zero."""

    def __init__(self, seed, params):
        self.draw = random.Random(seed).getrandbits
        self.s = params.stealth_bits
        self.r = params.reset_exp
        self.pages = {}

    def _page(self, page):
        v = self.pages.get(page)
        if v is None:
            v = [self.draw(self.s)] * 64
            self.pages[page] = v
        return v

    def read(self, page, block):
        return self._page(page)[block] % (1 << self.s)

    def write(self, page, block):
        v = self._page(page)
        lead = max(v)
        v[block] += 1
        if v[block] > lead and self.draw(self.r) == 0:
            fresh = self.draw(self.s)
            self.pages[page] = v = [fresh] * 64
        return v[block] % (1 << self.s)

    def reset(self, page):
        """An explicit reset, as ``VersionStore.reset_page``: the page
        materializes first, then takes a fresh base, which is returned."""
        self._page(page)
        self.pages[page] = [self.draw(self.s)] * 64
        return self.read(page, 0)
