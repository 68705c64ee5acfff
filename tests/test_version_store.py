import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from freshsim.core import (
    AddressRangeError,
    ConfigError,
    Geometry,
    SecurityParams,
)
from freshsim.version_store import (
    FLAT,
    FULL,
    FULL_SLOTS,
    LINE_COUNT,
    SLOT_BYTES,
    UNEVEN,
    CapacityError,
    VersionStore,
    compression_ratio,
    decode_entry_image,
    decode_full_lines,
    decode_uneven_line,
    entry_cost_bytes,
    flat_array_bytes,
    flat_entry_bytes,
    full_entry_bytes,
    uneven_entry_bytes,
)
from helpers import ReferenceMap, page_base, stealth_add

G = Geometry()
P = SecurityParams()
PAGE = G.page_bytes
BLOCK = G.block_bytes


def make_store(pages=4, slots=None, seed=1, params=P, geometry=G):
    protected = pages * geometry.page_bytes
    flat = flat_array_bytes(protected, geometry, params)
    extra = slots * 56 if slots is not None else 1 << 23
    return VersionStore(
        protected_bytes=protected,
        device_capacity_bytes=flat + extra,
        rng=random.Random(seed),
        geometry=geometry,
        params=params,
    )


class TestEntrySizes:
    def test_static_entry_is_twelve_bytes(self):
        assert flat_entry_bytes(P) == 12

    def test_dynamic_entry_sizes(self):
        assert uneven_entry_bytes(G) == 56
        assert full_entry_bytes(G, P) == 216

    def test_per_format_page_cost(self):
        assert entry_cost_bytes(FLAT, G, P) == 12
        assert entry_cost_bytes(UNEVEN, G, P) == 68
        assert entry_cost_bytes(FULL, G, P) == 228

    def test_compression_ratios(self):
        assert compression_ratio(FLAT, G, P) == 341
        assert compression_ratio(UNEVEN, G, P) == 60
        assert compression_ratio(FULL, G, P) == 18

    def test_flat_array_sizing(self):
        assert flat_array_bytes(4096, G, P) == 12
        assert flat_array_bytes(1 << 40, G, P) == 3 * (1 << 30)
        with pytest.raises(ConfigError):
            flat_array_bytes(4097, G, P)


class TestInitialState:
    def test_everything_starts_flat_and_shared(self):
        s = make_store(pages=2, seed=7)
        base = page_base(s, 0)
        for block in range(64):
            assert s.read_version(block * BLOCK) == base
        assert s.pages_flat == s.pages_touched
        assert s.dynamic_bytes == 0
        assert s.static_bytes == 2 * 12

    def test_capacity_must_cover_static_array(self):
        with pytest.raises(ConfigError):
            VersionStore(
                protected_bytes=8 * PAGE,
                device_capacity_bytes=8 * 12 - 1,
                rng=random.Random(1),
            )

    def test_out_of_range_address(self):
        s = make_store(pages=1)
        with pytest.raises(AddressRangeError):
            s.read_version(PAGE)
        with pytest.raises(AddressRangeError):
            s.update_version(PAGE)


class TestFlatTransitions:
    def test_first_update_sets_one_bit(self):
        s = make_store(seed=3)
        base = page_base(s, 0)
        new_version, format_after, events = s.update_version(3 * BLOCK)
        assert format_after == FLAT
        assert new_version == stealth_add(base, 1, 27)
        tag, b, payload = decode_entry_image(s.entry_image(0), P)
        assert (tag, b, payload) == (FLAT, base, 1 << 3)
        assert s.entry_lines(0) == []  # a flat page has no dynamic lines
        # untouched neighbours still read the base
        assert s.read_version(4 * BLOCK) == base

    def test_full_vector_folds_into_base(self):
        s = make_store(seed=3)
        base = page_base(s, 0)
        for block in range(64):
            s.update_version(block * BLOCK)
        tag, b, payload = decode_entry_image(s.entry_image(0), P)
        assert (tag, payload) == (FLAT, 0)
        assert b == stealth_add(base, 1, 27)
        assert s.read_version(0) == stealth_add(base, 1, 27)
        assert s.dynamic_bytes == 0

    def test_three_full_sweeps_stay_flat(self):
        s = make_store(seed=5)
        base = page_base(s, 0)
        for _ in range(3):
            for block in range(64):
                s.update_version(block * BLOCK)
        assert s.page_format(0) == FLAT
        assert s.read_version(0) == stealth_add(base, 3, 27)


class TestUnevenTransitions:
    def test_second_update_of_same_block_upgrades(self):
        s = make_store(seed=3)
        base = page_base(s, 0)
        s.update_version(5 * BLOCK)
        new_version, format_after, events = s.update_version(5 * BLOCK)
        assert format_after == UNEVEN
        assert "upgraded_to_uneven" in events
        assert new_version == stealth_add(base, 2, 27)
        offsets = decode_uneven_line(s.entry_lines(0)[0], G)
        assert offsets[5] == 2
        assert sum(offsets) == 2
        _, b, payload = decode_entry_image(s.entry_image(0), P)
        assert b == base
        assert (payload >> 48) & 0x7F == 0  # min offset
        assert (payload >> 55) & 0x7F == 2  # max offset
        assert s.dynamic_bytes == 56

    def test_bitvector_carried_into_offsets(self):
        s = make_store(seed=4)
        s.update_version(0)
        s.update_version(9 * BLOCK)
        s.update_version(0)  # upgrade
        offsets = decode_uneven_line(s.entry_lines(0)[0], G)
        assert offsets[0] == 2
        assert offsets[9] == 1
        assert all(o == 0 for i, o in enumerate(offsets) if i not in (0, 9))

    def test_normalization_slides_window(self):
        s = make_store(seed=6)
        base = page_base(s, 0)
        # raise the floor: every block written once, block 0 three times
        s.update_version(0)
        s.update_version(0)
        s.update_version(0)
        for block in range(1, 64):
            s.update_version(block * BLOCK)
        # drive block 0 to the 7-bit ceiling, then once more
        for _ in range(127 - 3):
            s.update_version(0)
        assert s.page_format(0) == UNEVEN
        _, _, payload = decode_entry_image(s.entry_image(0), P)
        assert (payload >> 48) & 0x7F == 1  # packed min offset: the floor
        new_version, format_after, events = s.update_version(0)
        assert "normalized" in events
        assert (s.upgrades_to_uneven, s.normalizations, s.upgrades_to_full) == (1, 1, 0)
        assert format_after == UNEVEN
        assert new_version == stealth_add(base, 128, 27)
        offsets = decode_uneven_line(s.entry_lines(0)[0], G)
        _, b, _ = decode_entry_image(s.entry_image(0), P)
        assert b == stealth_add(base, 1, 27)  # floor folded into the base
        assert offsets[0] == 127
        assert min(offsets) == 0

    def test_min_max_tracked_through_updates(self):
        s = make_store(seed=8)
        s.update_version(2 * BLOCK)
        s.update_version(2 * BLOCK)
        for _ in range(5):
            s.update_version(7 * BLOCK)
        _, _, payload = decode_entry_image(s.entry_image(0), P)
        assert (payload >> 48) & 0x7F == 0
        assert (payload >> 55) & 0x7F == 5


class TestFullTransitions:
    def hammer(self, s, block, n):
        for _ in range(n):
            s.update_version(block * BLOCK)

    def test_offset_127_still_uneven_128_goes_full(self):
        s = make_store(seed=9)
        base = page_base(s, 0)
        self.hammer(s, 7, 127)
        assert s.page_format(0) == UNEVEN
        new_version, format_after, events = s.update_version(7 * BLOCK)
        assert format_after == FULL
        assert "upgraded_to_full" in events
        assert (s.upgrades_to_uneven, s.normalizations, s.upgrades_to_full) == (1, 0, 1)
        assert new_version == stealth_add(base, 128, 27)
        versions = decode_full_lines(s.entry_lines(0), G, P)
        assert versions[7] == stealth_add(base, 128, 27)
        assert all(v == base for i, v in enumerate(versions) if i != 7)
        _, lead, _ = decode_entry_image(s.entry_image(0), P)
        assert lead == stealth_add(base, 128, 27)
        assert s.dynamic_bytes == 216

    def test_full_keeps_counting(self):
        s = make_store(seed=9)
        base = page_base(s, 0)
        self.hammer(s, 0, 200)
        assert s.page_format(0) == FULL
        assert s.read_version(0) == stealth_add(base, 200, 27)

    def test_entry_lines_span_four_slots(self):
        s = make_store(seed=9)
        self.hammer(s, 0, 130)
        lines = s.entry_lines(0)
        assert len(lines) == 4
        assert all(len(line) == 56 for line in lines)


class TestPackedLimits:
    @pytest.mark.parametrize("geometry, params", [
        (Geometry(page_bytes=8192), P),  # 128 offsets: a 112-byte uneven line
        (G, SecurityParams(stealth_bits=32, upper_bits=37, reset_exp=20)),  # 256-byte full line
    ], ids=["page_8k", "stealth_32"])
    def test_geometry_the_lines_cannot_hold_rejected(self, geometry, params):
        with pytest.raises(ConfigError, match="slots hold"):
            make_store(geometry=geometry, params=params)

    @pytest.mark.parametrize("geometry, params", [
        (G, SecurityParams(stealth_bits=28, upper_bits=37, reset_exp=20)),  # exactly 224 B
        (Geometry(page_bytes=1024), P),  # short lines, zero-padded to whole slots
    ], ids=["stealth_28", "page_1k"])
    def test_lines_that_fit_round_trip(self, geometry, params):
        s = make_store(pages=3, geometry=geometry, params=params, seed=4)
        s.update_version(geometry.page_bytes)
        s.update_version(geometry.page_bytes)  # page 1 uneven
        for _ in range(140):
            s.update_version(2 * geometry.page_bytes)  # page 2 full
        assert [s.page_format(page) for page in (1, 2)] == [UNEVEN, FULL]
        assert [len(b"".join(s.entry_lines(page))) for page in (1, 2)] == [56, 224]
        _, base, _ = decode_entry_image(s.entry_image(1), params)
        offsets = decode_uneven_line(s.entry_lines(1)[0], geometry)
        versions = decode_full_lines(s.entry_lines(2), geometry, params)
        for block in range(geometry.blocks_per_page):
            addr = block * geometry.block_bytes
            uneven = (base + offsets[block]) & params.stealth_mask
            assert uneven == s.read_version(geometry.page_bytes + addr)
            assert versions[block] == s.read_version(2 * geometry.page_bytes + addr)


class TestResetPage:
    def test_full_page_downgrades_and_frees(self):
        s = make_store(seed=11)
        for _ in range(150):
            s.update_version(0)
        assert s.dynamic_bytes == 216
        new_base = s.reset_page(0)
        assert s.page_format(0) == FLAT
        assert s.dynamic_bytes == 0
        for block in range(64):
            assert s.read_version(block * BLOCK) == new_base

    def test_uneven_page_frees_56(self):
        s = make_store(seed=11)
        s.update_version(0)
        s.update_version(0)
        assert s.dynamic_bytes == 56
        s.reset_page(0)
        assert s.dynamic_bytes == 0

    def test_flat_page_reset_is_format_idempotent(self):
        s = make_store(seed=11)
        s.update_version(0)
        before = s.dynamic_bytes
        s.reset_page(0)
        assert s.page_format(0) == FLAT
        assert s.dynamic_bytes == before == 0
        _, _, payload = decode_entry_image(s.entry_image(0), P)
        assert payload == 0

    def test_reset_is_deterministic_per_seed(self):
        bases = []
        for _ in range(2):
            s = make_store(seed=21)
            s.update_version(0)
            bases.append(s.reset_page(0))
        assert bases[0] == bases[1]


class TestCapacity:
    def test_uneven_upgrade_rejected_without_slot(self):
        s = make_store(pages=2, slots=1, seed=13)
        s.update_version(0)
        s.update_version(0)  # page 0 takes the only slot
        s.update_version(PAGE)
        before = s.read_version(PAGE)
        with pytest.raises(CapacityError):
            s.update_version(PAGE)
        # rejected update left no trace
        assert s.read_version(PAGE) == before
        assert s.page_format(1) == FLAT
        assert s.dynamic_bytes == 56
        # freeing page 0 makes the retry succeed
        s.reset_page(0)
        _, format_after, _ = s.update_version(PAGE)
        assert format_after == UNEVEN

    def test_full_upgrade_needs_four_slots(self):
        s = make_store(slots=3, seed=13)
        for _ in range(127):
            s.update_version(0)
        with pytest.raises(CapacityError):
            s.update_version(0)
        assert s.page_format(0) == UNEVEN
        assert s.read_version(0) == stealth_add(page_base(s, 0), 127, 27)

        s4 = make_store(slots=4, seed=13)
        for _ in range(128):
            s4.update_version(0)
        assert s4.page_format(0) == FULL

    def test_slots_recycled_after_reset(self):
        s = make_store(pages=3, slots=2, seed=14)
        for page in range(2):
            s.update_version(page * PAGE)
            s.update_version(page * PAGE)
        s.reset_page(0)
        s.update_version(2 * PAGE)
        _, format_after, _ = s.update_version(2 * PAGE)
        assert format_after == UNEVEN
        assert s.dynamic_bytes == 112

    def test_scattered_freed_slots_reused(self):
        s = make_store(pages=16, slots=8)
        for page in range(8):
            s.update_version(page * PAGE)
            s.update_version(page * PAGE)  # uneven: one slot each
        for page in range(0, 8, 2):
            s.reset_page(page)
        accepted = 0
        for page in range(8, 16):
            s.update_version(page * PAGE)
            try:
                s.update_version(page * PAGE)
                accepted += 1
            except CapacityError:
                pass
        assert accepted == 4

    @pytest.mark.parametrize("order", [(2, 0), (0, 2)])
    def test_lowest_fit_ignores_free_order(self, order):
        # pages 0-3 hold slots 0-3 of 6; freeing two of them in either order
        # leaves holes 0 and 2, and the lowest fits: page 4 takes slot 0, so
        # page 3's full upgrade finds slots 2-5 (its own slot 3 counts free)
        params = SecurityParams(stealth_bits=27, upper_bits=37, reset_exp=26)
        s = make_store(pages=8, slots=6, params=params)
        for page in range(4):
            s.update_version(page * PAGE)
            s.update_version(page * PAGE)
        for page in order:
            s.reset_page(page)
        s.update_version(4 * PAGE)
        s.update_version(4 * PAGE)
        _, _, payload = decode_entry_image(s.entry_image(4), params)
        assert payload & ((1 << 48) - 1) == 0  # page 4's slot
        for _ in range(140):
            s.update_version(3 * PAGE)
        assert s.page_format(3) == FULL


class TestPagesOutsideTheRange:
    @pytest.mark.parametrize("call, page", [
        ("page_base", -1), ("page_base", 10**6), ("line_count", -5), ("line_count", 256),
        ("entry_image", 256), ("entry_lines", -1), ("reset_page", 256),
    ])
    def test_refused_before_any_draw(self, call, page):
        s = make_store(pages=256)
        s.update_version(0)
        before = _state(s)
        with pytest.raises(AddressRangeError, match="outside protected range"):
            if call == "page_base":  # a test helper, not a method
                page_base(s, page)
            else:
                getattr(s, call)(page)
        assert _state(s) == before
        assert (s.pages_touched, s.pages_flat) == (1, 1)


class TestHostMemoryPerPage:
    """Traced host bytes per touched page of a 4 GiB store.  Held as an
    object per page, with a list of offsets when uneven, these read 200
    (flat, read), 236 (flat, written) and 774 (uneven)."""

    PAGES = 1 << 20

    def _bytes_per_page(self, count, touch):
        s = make_store(pages=self.PAGES)
        addrs = [p * PAGE for p in random.Random(5).sample(range(self.PAGES), count)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for addr in addrs:
                touch(s, addr)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert s.pages_touched == count
        return s, held / count

    def test_flat_read_page(self):
        s, per_page = self._bytes_per_page(100_000, VersionStore.read_version)
        assert s.pages_flat == 100_000
        assert per_page <= 130

    def test_flat_written_page(self):
        # the last block sets the top bit of the coverage vector
        s, per_page = self._bytes_per_page(
            100_000, lambda s, addr: s.update_version(addr + 63 * BLOCK))
        assert s.pages_flat == 100_000
        assert per_page <= 130

    def test_uneven_page(self):
        def upgrade(s, addr):
            s.update_version(addr)
            s.update_version(addr)
        s, per_page = self._bytes_per_page(20_000, upgrade)
        assert s.pages_uneven == 20_000
        assert per_page <= 400


class TestAccounting:
    def test_identity_under_random_traffic(self):
        s = make_store(pages=8, seed=15)
        rng = np.random.default_rng(15)
        addrs = rng.integers(0, 8 * 64, size=6000) * BLOCK
        hot = rng.integers(0, 8, size=400) * PAGE
        for a in addrs.tolist() + np.repeat(hot, 8).tolist():
            s.update_version(a)
        assert s.dynamic_bytes == s.pages_uneven * 56 + s.pages_full * 216
        assert s.static_bytes == 8 * 12
        assert s.peak_dynamic_bytes >= s.dynamic_bytes


class TestMonotonicity:
    def test_block_version_advances_by_one_across_formats(self):
        s = make_store(seed=16)
        prev = s.read_version(0)
        for _ in range(400):  # crosses flat -> uneven -> full
            new_version, _, _ = s.update_version(0)
            assert new_version == stealth_add(prev, 1, 27)
            prev = new_version


@pytest.mark.parametrize(
    "params",
    [
        SecurityParams(stealth_bits=27, upper_bits=37, reset_exp=6),
        SecurityParams(stealth_bits=8, upper_bits=8, reset_exp=4),
    ],
)
def test_reads_match_uncompressed_reference(params):
    for seed in (3, 17):
        s = make_store(pages=16, seed=seed, params=params)
        ref = ReferenceMap(seed, params)
        rng = np.random.default_rng(seed + 99)
        blocks = rng.integers(0, 16 * 64, size=20000)
        writes = rng.random(20000) < 0.6
        for b, w in zip(blocks.tolist(), writes.tolist()):
            page, block = divmod(b, 64)
            addr = b * BLOCK
            if w:
                assert s.update_version(addr)[0] == ref.write(page, block)
            else:
                assert s.read_version(addr) == ref.read(page, block)
        assert s.resets > 0  # the reset path was actually exercised


def test_no_full_version_repeats_at_reduced_widths():
    params = SecurityParams(stealth_bits=10, upper_bits=6, reset_exp=5)
    for seed in range(100):
        s = make_store(pages=1, seed=seed, params=params)
        uv = 0
        seen = set()
        for _ in range(1 << 14):
            new_version, _, events = s.update_version(0)
            if "reset_triggered" in events:
                uv += 1
            pair = (uv, new_version)
            assert pair not in seen
            seen.add(pair)


MACHINE_PARAMS = SecurityParams(stealth_bits=27, upper_bits=37, reset_exp=8)
MACHINE_PAGES = 6


def _dynamic(store):
    """The pages that hold dynamic lines: every one not held as a flat int."""
    return [e for e in store._entries.values() if type(e) is not int]


def _held_slots(store):
    """Dynamic slots the entries hold, one item per slot."""
    held = []
    for e in _dynamic(store):
        if e.tag == UNEVEN:
            held.append(e.slot)
        elif e.tag == FULL:
            held.extend(range(e.slot, e.slot + FULL_SLOTS))
    return held


def _check_store(store):
    # a flat page is its packed entry, tag 0; an _Entry is uneven or full
    for page, e in store._entries.items():
        assert 0 <= page < store.total_pages, "phantom page"
        if type(e) is int:
            assert e & 3 == FLAT and e >> (2 + store.params.stealth_bits) != store._full_vector
        elif e.tag == UNEVEN:
            assert e.versions is None and type(e.offsets) is bytearray
            assert e.max_off == max(e.offsets) <= 127
        else:
            assert e.tag == FULL and e.offsets is None and type(e.versions) is list
    held = _held_slots(store)
    assert len(held) == len(set(held)), "two entries share a slot"
    assert {i for i, b in enumerate(store._used) if b} == set(held)
    assert store._used[-FULL_SLOTS:] == bytes(FULL_SLOTS)
    assert all(0 <= i < store.dynamic_capacity_slots for i in held)
    tags = [e.tag for e in _dynamic(store)]
    assert (store.pages_uneven, store.pages_full) == (tags.count(UNEVEN), tags.count(FULL))
    assert store.dynamic_bytes == store.pages_uneven * 56 + store.pages_full * 216
    assert store.peak_dynamic_bytes >= store.dynamic_bytes
    # the packed entry and lines the device sends decode to every block's version
    mask = store.params.stealth_mask
    for page in store._entries:
        tag, base, payload = decode_entry_image(store.entry_image(page), store.params)
        lines = store.entry_lines(page)
        assert tag == store.page_format(page) and len(lines) == LINE_COUNT[tag]
        assert all(len(line) == SLOT_BYTES for line in lines)
        if tag == FLAT:
            decoded = [(base + (payload >> block & 1)) & mask for block in range(64)]
        elif tag == UNEVEN:
            decoded = [(base + off) & mask for off in decode_uneven_line(lines[0], G)]
        else:
            decoded = decode_full_lines(lines, G, store.params)
        assert decoded == [store.read_version(page * PAGE + block * BLOCK)
                           for block in range(64)], "entry decode drift"


def _state(store):
    """Everything an update may change, the randomness included: a flat
    page's whole packed entry, and every field of an uneven or full one."""
    entries = {
        page: e if type(e) is int else (
            e.tag, e.base, None if e.offsets is None else bytes(e.offsets),
            e.max_off, None if e.versions is None else tuple(e.versions), e.slot)
        for page, e in store._entries.items()
    }
    return (entries, bytes(store._used), store.rng.getstate(),
            store.dynamic_bytes, store.peak_dynamic_bytes, store.pages_uneven,
            store.pages_full, store.upgrades_to_uneven, store.upgrades_to_full,
            store.normalizations, store.resets)


class StoreMachine(RuleBasedStateMachine):
    """The store against the uncompressed oracle (the same draw protocol as
    ACCEPTANCE 05's), at 1-12 dynamic slots.  A rejected update must leave
    every piece of state, the randomness included, as it found it."""

    @initialize(slots=st.integers(1, 12), seed=st.integers(0, 1 << 16))
    def setup(self, slots, seed):
        self.store = make_store(pages=MACHINE_PAGES, slots=slots, seed=seed,
                                params=MACHINE_PARAMS)
        self.ref = ReferenceMap(seed, MACHINE_PARAMS)
        self.seen = Counter()  # update events strings, plus explicit resets

    def _write(self, page, blocks):
        """Update each block in turn against the oracle; stop at the first
        rejected update, which must leave the store as it found it."""
        for block in blocks:
            before = _state(self.store)
            try:
                new_version, _, events = self.store.update_version(page * PAGE + block * BLOCK)
            except CapacityError:
                assert _state(self.store) == before, "rejected update changed state"
                break
            assert new_version == self.ref.write(page, block)
            self.seen.update(events)

    @rule(page=st.integers(0, MACHINE_PAGES - 1), block=st.integers(0, 63),
          times=st.sampled_from([1, 2, 3, 64, 130]))
    def update(self, page, block, times):
        self._write(page, [block] * times)

    @rule(page=st.integers(0, MACHINE_PAGES - 1))
    def sweep(self, page):
        """Write every block of the page once: with it, a block run to the
        top offset can find the page's minimum above 0 and normalize."""
        self._write(page, range(64))

    @rule(page=st.integers(0, MACHINE_PAGES - 1), block=st.integers(0, 63))
    def climb(self, page, block):
        """Write the block twice (uneven at offset 2), sweep the page (every
        offset at least 1), then run the block to the top offset: the window
        slides once before the spread forces the page full."""
        self._write(page, [block] * 2 + list(range(64)) + [block] * 130)

    @rule(page=st.integers(0, MACHINE_PAGES - 1), block=st.integers(0, 63))
    def read(self, page, block):
        assert self.store.read_version(page * PAGE + block * BLOCK) == self.ref.read(page, block)

    @rule(page=st.integers(0, MACHINE_PAGES - 1))
    def reset(self, page):
        base = self.store.reset_page(page)
        self.seen["reset_triggered"] += 1
        assert base == self.ref.reset(page)

    @invariant()
    def consistent(self):
        _check_store(self.store)
        s = self.store
        assert 0 not in s._used[:s._hint], "a free slot lies below the allocator's hint"
        assert (s.upgrades_to_uneven, s.upgrades_to_full, s.normalizations, s.resets) == (
            self.seen["upgraded_to_uneven"], self.seen["upgraded_to_full"],
            self.seen["normalized"], self.seen["reset_triggered"])


StoreMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
TestStoreMachine = StoreMachine.TestCase


def test_store_machine_reaches_a_normalization():
    # seed 2 fires no reset on the way
    m = StoreMachine()
    m.setup(slots=12, seed=2)
    m.climb(page=0, block=5)
    m.consistent()
    s = m.store
    assert (s.normalizations, s.upgrades_to_full, s.resets) == (1, 1, 0)
    for block in range(64):
        m.read(page=0, block=block)
