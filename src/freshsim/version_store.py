"""Device-side version store with tri-level page entries.

Every protected 4 KiB page owns one 12-byte entry in a static flat array.
A page starts ``flat``: a shared S-bit base version plus a 64-bit coverage
vector, one bit per block, encoding per-block versions of base or base+1.
When a block is written a second time within the same base the page upgrades
to ``uneven`` (a 56-byte line of 64 seven-bit offsets from the base) and,
once any offset would pass 127, to ``full`` (a 216-byte line of 64 raw S-bit
versions).  Uneven and full lines live in a dynamic region carved into
56-byte slots; a full line occupies four contiguous slots.  The allocator
always takes the lowest run of free slots that fits, whatever the order in
which slots were freed, and starts its search at a low-water hint below
which no slot is free, so an upgrade's cost does not grow with the slots in use.

Entry layout (12 bytes at the default S=27, least-significant bits first):

    bits [0, 2)       format tag (0 flat, 1 uneven, 2 full)
    bits [2, 2+S)     base field: shared base (flat/uneven) or the page's
                      leading version (full)
    bits [2+S, 2+S+67) payload:
        flat    64-bit coverage vector
        uneven  locator (48 bits) | min_off (7) | max_off (7)
        full    locator (48 bits)

In host memory an untouched page takes nothing.  A touched flat page is
one int, its packed static entry (tag 0), so its image is the int's bytes.
Only an uneven or full page is an ``_Entry``: an uneven page holds its
offsets in a ``bytearray`` (each stays at most 127), a full page its
versions in a list of ints.  A reset turns the page back into an int.

Resets: an update that advances the page's leading version triggers a check
that, with probability 2**-R, discards the page's stealth state: the entry
drops back to flat with a fresh uniformly random base and an empty coverage
vector.  ``reset_triggered`` among an update's events tells the caller to
bump the page's upper version.
"""

from __future__ import annotations

import random

from .core import (
    AddressRangeError,
    ConfigError,
    Geometry,
    SecurityParams,
    SimError,
    pack_bitfields,
    unpack_bitfields,
)

FLAT, UNEVEN, FULL = 0, 1, 2
FORMAT_NAMES = {FLAT: "flat", UNEVEN: "uneven", FULL: "full"}

OFFSET_BITS = 7
OFFSET_MAX = (1 << OFFSET_BITS) - 1  # 127; a required offset of 128 forces full
LOCATOR_BITS = 48
PAYLOAD_BITS = 67
TAG_BITS = 2
SLOT_BYTES = 56
FULL_SLOTS = 4  # full line is allocated as 4 contiguous slots (224 B reserved)
LINE_COUNT = (0, 1, FULL_SLOTS)  # dynamic lines behind an entry, by format


class CapacityError(SimError):
    """Dynamic region exhausted; the update was rejected without effect."""


def flat_entry_bytes(params: SecurityParams) -> int:
    """Packed size of one static entry: tag + base + payload, byte-rounded."""
    return (TAG_BITS + params.stealth_bits + PAYLOAD_BITS + 7) // 8


def uneven_entry_bytes(geometry: Geometry) -> int:
    return (geometry.blocks_per_page * OFFSET_BITS + 7) // 8


def full_entry_bytes(geometry: Geometry, params: SecurityParams) -> int:
    return (geometry.blocks_per_page * params.stealth_bits + 7) // 8


def entry_cost_bytes(fmt: int, geometry: Geometry, params: SecurityParams) -> int:
    """Total bytes a page in the given format consumes (static + dynamic)."""
    flat = flat_entry_bytes(params)
    if fmt == FLAT:
        return flat
    if fmt == UNEVEN:
        return flat + uneven_entry_bytes(geometry)
    if fmt == FULL:
        return flat + full_entry_bytes(geometry, params)
    raise ConfigError(f"unknown format {fmt}")


def compression_ratio(fmt: int, geometry: Geometry, params: SecurityParams) -> int:
    """Page bytes per metadata byte, rounded to the nearest integer."""
    return round(geometry.page_bytes / entry_cost_bytes(fmt, geometry, params))


def flat_array_bytes(protected_bytes: int, geometry: Geometry, params: SecurityParams) -> int:
    """Size of the static flat array covering the whole protected range."""
    if protected_bytes <= 0 or protected_bytes % geometry.page_bytes:
        raise ConfigError("protected_bytes must be a positive multiple of the page size")
    return (protected_bytes // geometry.page_bytes) * flat_entry_bytes(params)


def data_partition_bytes(total_bytes: int, geometry: Geometry) -> int:
    """The largest whole-page data partition that fits ``total_bytes`` of one
    memory node together with its MACs, one MAC block per ``macs_per_block``
    data blocks: 8/9 of the node by default."""
    data = total_bytes * geometry.macs_per_block // (geometry.macs_per_block + 1)
    return data - data % geometry.page_bytes


def decode_entry_image(image: bytes, params: SecurityParams) -> tuple[int, int, int]:
    """Unpack a packed static entry into (tag, base field, payload bits)."""
    acc = int.from_bytes(image, "little")
    tag = acc & ((1 << TAG_BITS) - 1)
    base = (acc >> TAG_BITS) & params.stealth_mask
    payload = (acc >> (TAG_BITS + params.stealth_bits)) & ((1 << PAYLOAD_BITS) - 1)
    return tag, base, payload


def decode_uneven_line(line: bytes, geometry: Geometry) -> list[int]:
    return unpack_bitfields(line, OFFSET_BITS, geometry.blocks_per_page)


def decode_full_lines(lines: list[bytes], geometry: Geometry, params: SecurityParams) -> list[int]:
    return unpack_bitfields(b"".join(lines), params.stealth_bits, geometry.blocks_per_page)


# the ASCII digits of a bit string, as the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class _Entry:
    """A page that holds dynamic lines: uneven or full, never flat."""

    __slots__ = ("tag", "base", "offsets", "max_off", "versions", "slot")

    def __init__(self, base: int, offsets: bytearray, slot: int) -> None:
        self.tag = UNEVEN
        self.base = base          # shared base, or leading version when full
        self.offsets: bytearray | None = offsets
        self.max_off = 2          # an upgrade writes offset 2
        self.versions: list[int] | None = None
        self.slot = slot          # first dynamic-region slot of the line(s)


class VersionStore:
    """The trusted device: static flat array plus a slotted dynamic region.

    ``rng`` is the device's entropy source, a seeded ``random.Random``;
    every draw is one ``getrandbits`` call.  Pages materialize lazily: the
    first touch of a page (read or update) draws its random initial base,
    and a page outside the protected range is refused before any draw.
    This keeps tera-scale protected ranges cheap while preserving the
    distribution; the draw order is part of the deterministic contract
    shared with the tests' reference model.  A geometry or parameters whose
    lines would not fit their slots are refused when the store is built.

    The store counts its upgrades, normalizations and resets, and keeps its
    page-format census (``pages_flat``, ``pages_uneven``, ``pages_full``)
    and device occupancy (``static_bytes``, ``dynamic_bytes``,
    ``peak_dynamic_bytes``) as attributes, which the engine's ``stats()``
    reads.
    """

    def __init__(
        self,
        protected_bytes: int,
        device_capacity_bytes: int,
        rng: random.Random,
        geometry: Geometry | None = None,
        params: SecurityParams | None = None,
    ) -> None:
        self.geometry = geometry or Geometry()
        self.params = params or SecurityParams()
        bpp = self.geometry.blocks_per_page
        self._uneven_bytes = uneven_entry_bytes(self.geometry)
        self._full_bytes = full_entry_bytes(self.geometry, self.params)
        if self._uneven_bytes > SLOT_BYTES or self._full_bytes > FULL_SLOTS * SLOT_BYTES:
            raise ConfigError(
                f"{bpp}-block pages of {self.params.stealth_bits}-bit versions need a "
                f"{self._uneven_bytes}-byte uneven and a {self._full_bytes}-byte full "
                f"line, but their slots hold {SLOT_BYTES} and {FULL_SLOTS * SLOT_BYTES}"
            )
        self.static_bytes = flat_array_bytes(protected_bytes, self.geometry, self.params)
        self.total_pages = protected_bytes // self.geometry.page_bytes
        if device_capacity_bytes < self.static_bytes:
            raise ConfigError(
                f"device capacity {device_capacity_bytes} cannot hold the "
                f"{self.static_bytes}-byte flat array"
            )
        self.device_capacity_bytes = device_capacity_bytes
        self.dynamic_capacity_slots = (device_capacity_bytes - self.static_bytes) // SLOT_BYTES
        self.rng = rng
        self._getrandbits = rng.getrandbits

        # page -> its packed entry (an int) when flat, else its _Entry
        self._entries: dict[int, int | _Entry] = {}
        # one byte per dynamic slot, nonzero when used; always ends in
        # FULL_SLOTS free bytes and grows on demand
        self._used = bytearray(FULL_SLOTS)
        self._hint = 0  # no slot below it is free

        self.peak_dynamic_bytes = 0
        self.pages_uneven = 0
        self.pages_full = 0
        self.upgrades_to_uneven = 0
        self.upgrades_to_full = 0
        self.normalizations = 0
        self.resets = 0

        self._page_bytes = self.geometry.page_bytes
        self._block_bytes = self.geometry.block_bytes
        self._blocks_per_page = bpp
        self._reset_exp = self.params.reset_exp
        self._smask = self.params.stealth_mask
        self._full_vector = (1 << bpp) - 1
        self._vec_shift = TAG_BITS + self.params.stealth_bits  # coverage vector's first bit
        self._bits_format = f"0{bpp}b"
        self._entry_bytes = flat_entry_bytes(self.params)

    # -- page materialization -------------------------------------------------

    def _entry(self, page: int) -> int | _Entry:
        """The page's entry.  An untouched page materializes: it draws its
        base and is held flat.  A page outside the protected range is
        refused before any draw."""
        e = self._entries.get(page)
        if e is None:
            if not 0 <= page < self.total_pages:
                raise AddressRangeError(f"page {page} outside protected range")
            e = self._entries[page] = self._getrandbits(self.params.stealth_bits) << TAG_BITS
        return e

    @property
    def pages_flat(self) -> int:
        return len(self._entries) - self.pages_uneven - self.pages_full

    @property
    def dynamic_bytes(self) -> int:
        return self.pages_uneven * self._uneven_bytes + self.pages_full * self._full_bytes

    # -- slot allocator --------------------------------------------------------

    def _find_run(self, slots: int, freeing: int = -1) -> int:
        """First slot of the lowest run of ``slots`` free slots, counting the
        ``freeing`` slot as free; -1 when that run does not fit the region.
        The search starts at the hint (or ``freeing``), and the tail is free."""
        used = self._used
        if freeing >= 0:
            used[freeing] = 0
        start = used.find(bytes(slots), self._hint if freeing < 0 else min(freeing, self._hint))
        if freeing >= 0:
            used[freeing] = 1
        return start if start + slots <= self.dynamic_capacity_slots else -1

    def _take(self, start: int, slots: int) -> None:
        used = self._used
        grow = start + slots + FULL_SLOTS - len(used)
        if grow > 0:
            used.extend(bytes(grow))
        used[start:start + slots] = b"\x01" * slots
        if start <= self._hint < start + slots:
            self._hint = start + slots

    def _free(self, start: int, slots: int) -> None:
        self._used[start:start + slots] = bytes(slots)
        if start < self._hint:
            self._hint = start

    # -- reads -----------------------------------------------------------------

    def read_version(self, addr: int) -> int:
        """Current stealth version of the block holding ``addr``.  ``_entry``
        refuses a page outside the protected range, before any draw."""
        e = self._entry(addr // self._page_bytes)
        block = addr // self._block_bytes % self._blocks_per_page
        if type(e) is int:
            return ((e >> TAG_BITS) + ((e >> (self._vec_shift + block)) & 1)) & self._smask
        if e.tag == UNEVEN:
            return (e.base + e.offsets[block]) & self._smask
        return e.versions[block]

    def page_format(self, page: int) -> int:
        if not 0 <= page < self.total_pages:
            raise AddressRangeError(f"page {page} outside protected range")
        e = self._entries.get(page)
        return FLAT if e is None or type(e) is int else e.tag

    def line_count(self, page: int) -> int:
        """Dynamic lines behind the page's entry as the device reads it: an
        untouched page materializes (draws its base); one out of range is refused."""
        e = self._entries.get(page)
        if e is None:
            e = self._entry(page)
        return 0 if type(e) is int else LINE_COUNT[e.tag]

    # -- updates ---------------------------------------------------------------

    def update_version(self, addr: int) -> tuple[int, int, tuple[str, ...]]:
        """Increment the version of one block, applying format transitions.
        Returns a plain ``(new_version, format_after, events)`` tuple: the block's
        version after it all (post-reset when a reset fired), the page's format and a
        tuple from {"upgraded_to_uneven", "normalized", "upgraded_to_full", "reset_triggered"}.

        Rejection on dynamic-region exhaustion happens before any state
        changes, so a failed update leaves the store (and its randomness)
        untouched and the caller may retry after freeing pages.  ``_entry``
        refuses a page outside the protected range, before any draw.
        """
        page = addr // self._page_bytes
        block = addr // self._block_bytes % self._blocks_per_page
        e = self._entries.get(page)
        if e is None:
            e = self._entry(page)
        events: tuple[str, ...] = ()
        smask = self._smask

        if type(e) is int:  # flat: base, then the coverage vector
            bitvec = e >> self._vec_shift
            base = (e >> TAG_BITS) & smask
            if not (bitvec >> block) & 1:
                advance = not bitvec
                bitvec |= 1 << block
                if bitvec == self._full_vector:
                    # all blocks one ahead: fold into the base, never at rest
                    self._entries[page] = ((base + 1) & smask) << TAG_BITS
                else:
                    self._entries[page] = e | 1 << (self._vec_shift + block)
                fmt = FLAT
                version = (base + 1) & smask
            else:
                slot = self._find_run(1)
                if slot < 0:
                    raise CapacityError(
                        f"page {page}: no slot free for uneven upgrade"
                    )
                self._take(slot, 1)
                # one byte per block, LSB first: bit i of the vector is offset i
                offsets = bytearray(
                    format(bitvec, self._bits_format)[::-1].encode().translate(_BIT_BYTES))
                offsets[block] = 2
                self._entries[page] = e = _Entry(base, offsets, slot)
                self.pages_uneven += 1
                self.upgrades_to_uneven += 1
                self.peak_dynamic_bytes = max(self.peak_dynamic_bytes, self.dynamic_bytes)
                events = ("upgraded_to_uneven",)
                advance = True
                fmt = UNEVEN
                version = (base + 2) & smask

        elif e.tag == UNEVEN:
            off = e.offsets[block]
            advance = off == e.max_off
            m = min(e.offsets) if off == OFFSET_MAX else -1
            if m == 0:
                # normalization cannot rescue a 128-wide spread: go full
                start = self._find_run(FULL_SLOTS, e.slot)
                if start < 0:
                    raise CapacityError(
                        f"page {page}: no contiguous slots free for full upgrade"
                    )
                base = e.base
                self._free(e.slot, 1)
                self._take(start, FULL_SLOTS)
                e.slot = start
                e.tag = fmt = FULL
                e.versions = [(base + o) & smask for o in e.offsets]
                version = e.versions[block] = (e.versions[block] + 1) & smask
                lead = (base + e.max_off) & smask
                e.base = version if advance else lead
                e.offsets = None
                self.pages_uneven -= 1
                self.pages_full += 1
                self.upgrades_to_full += 1
                self.peak_dynamic_bytes = max(self.peak_dynamic_bytes, self.dynamic_bytes)
                events = ("upgraded_to_full",)
            else:
                if m > 0:
                    # slide the window down by the minimum offset
                    e.base = (e.base + m) & smask
                    e.offsets = bytearray(o - m for o in e.offsets)
                    e.max_off -= m
                    off -= m
                    self.normalizations += 1
                    events = ("normalized",)
                new_off = off + 1
                e.offsets[block] = new_off
                if new_off > e.max_off:
                    e.max_off = new_off
                fmt = UNEVEN
                version = (e.base + new_off) & smask

        else:  # FULL
            v = e.versions[block]
            advance = v == e.base
            version = e.versions[block] = (v + 1) & smask
            if advance:
                e.base = version
            fmt = FULL

        if advance and self._getrandbits(self._reset_exp) == 0:
            version = self._reset(page, e)
            fmt = FLAT
            events += ("reset_triggered",)

        return version, fmt, events

    # -- resets ----------------------------------------------------------------

    def _reset(self, page: int, e: int | _Entry) -> int:
        """Free the page's lines and hold it flat with a fresh base, which
        is returned."""
        if type(e) is not int:
            self._free(e.slot, LINE_COUNT[e.tag])
            if e.tag == UNEVEN:
                self.pages_uneven -= 1
            else:
                self.pages_full -= 1
        base = self._getrandbits(self.params.stealth_bits)
        self._entries[page] = base << TAG_BITS
        self.resets += 1
        return base

    def reset_page(self, page: int) -> int:
        """Explicit reset (page free / remap): downgrade to flat, new base.

        Returns the fresh base; the caller bumps the page's upper version.
        """
        return self._reset(page, self._entry(page))

    # -- packed images ----------------------------------------------------------

    def entry_image(self, page: int) -> bytes:
        """The page's packed static entry, as the host would cache it."""
        e = self._entry(page)
        if type(e) is int:
            return e.to_bytes(self._entry_bytes, "little")
        if e.tag == UNEVEN:
            payload = (e.slot | (min(e.offsets) << LOCATOR_BITS)
                       | (e.max_off << (LOCATOR_BITS + OFFSET_BITS)))
        else:
            payload = e.slot
        acc = e.tag | (e.base << TAG_BITS) | (payload << self._vec_shift)
        return acc.to_bytes(self._entry_bytes, "little")

    def entry_lines(self, page: int) -> list[bytes]:
        """Dynamic-region lines backing the page: [] / one 56 B / four 56 B,
        zero-padded to whole slots."""
        e = self._entry(page)
        if type(e) is int:
            return []
        if e.tag == UNEVEN:
            raw = pack_bitfields(e.offsets, OFFSET_BITS)
        else:
            raw = pack_bitfields(e.versions, self.params.stealth_bits)
        count = LINE_COUNT[e.tag]
        raw = raw.ljust(count * SLOT_BYTES, b"\x00")
        return [raw[i * SLOT_BYTES:(i + 1) * SLOT_BYTES] for i in range(count)]
