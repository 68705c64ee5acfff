"""Views of simulator state and version arithmetic that only tests use.

Each reads the same state the simulator keeps, so a test can check a cache's
contents or a page's base without the simulator carrying an accessor that
no program calls.
"""

from __future__ import annotations

from freshsim.core import EncodingError
from freshsim.version_store import TAG_BITS


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


def stealth_add(value: int, delta: int, stealth_bits: int) -> int:
    """Add ``delta`` to a stealth version, wrapping modulo 2**stealth_bits."""
    if value < 0 or delta < 0:
        raise EncodingError("stealth versions and deltas are unsigned")
    mask = (1 << stealth_bits) - 1
    if value > mask:
        raise EncodingError(f"stealth value {value} exceeds {stealth_bits} bits")
    return (value + delta) & mask
