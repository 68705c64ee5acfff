import dataclasses
import math
import random
import sys
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freshsim.core import (
    AddressRangeError,
    ConfigError,
    Geometry,
    SecurityParams,
    SimError,
    pack_full,
)
from freshsim.baselines import (
    CiEngine,
    CounterTreeConfig,
    MerkleEngine,
    NoneEngine,
    tree_depth,
)
from freshsim.cli import build_engine, resolve_config, resolve_trace
from freshsim.version_store import (
    FLAT,
    FULL,
    LINE_COUNT,
    SLOT_BYTES,
    UNEVEN,
    data_partition_bytes,
    flat_array_bytes,
)
from freshsim.engine import (
    AccessOutcome,
    EngineConfig,
    FreshnessViolation,
    FunctionalBlockStore,
    HostEngine,
    ProtectionEngine,
    SimulationHalted,
    UvOverflowError,
)
from helpers import Charges, charged, is_cached, resident_keys

G = Geometry()
PAGE = G.page_bytes
BLOCK = G.block_bytes
CIPHER_NS = 40 / 2.25


def make_engine(pages=16, **kw):
    kw.setdefault("protected_bytes", pages * PAGE)
    return HostEngine(EngineConfig(**kw))


def step(e, op, addr):
    """Run one event: what it charged (``helpers.charged``), and the (hits,
    misses) it added to each of the engine's caches, by attribute name."""
    caches = [name for name in ("flat_cache", "overflow", "mac_cache") if hasattr(e, name)]
    before = {name: (getattr(e, name).hits, getattr(e, name).misses) for name in caches}
    out = charged(e, "process_access", op, addr)
    return out, {name: (getattr(e, name).hits - hits, getattr(e, name).misses - misses)
                 for name, (hits, misses) in before.items()}


class TestMemoryLayout:
    def test_mac_partition_is_one_eighth(self):
        # what the data partition leaves of a node is its MAC partition
        total = (1 << 20) * 9 // 8
        assert total - data_partition_bytes(total, G) == (1 << 20) // 8

    def test_data_must_be_page_aligned(self):
        # a node of no whole number of pages still gets a whole-page partition
        data = data_partition_bytes(9 * 8 * PAGE + 9 * 64, G)
        assert data == 8 * 8 * PAGE
        assert data_partition_bytes(9 * PAGE - 1, G) == 7 * PAGE

    def test_from_total_splits_eight_ninths(self):
        data = data_partition_bytes(9 * 8 * PAGE, G)
        assert data == 8 * 8 * PAGE
        mac = -(-data // BLOCK // G.macs_per_block) * BLOCK
        assert data + mac <= 9 * 8 * PAGE

    @pytest.mark.parametrize("engine_class", [CiEngine, HostEngine, MerkleEngine])
    def test_mac_line_covers_eight_blocks(self, engine_class):
        # a data block's MAC sits in the 64-byte MAC line above the data
        # partition that holds the MACs of its run of eight blocks
        e = engine_class(EngineConfig(protected_bytes=16 * PAGE))
        e.process_access("W", 0)
        assert resident_keys(e.mac_cache) == [16 * PAGE // BLOCK]
        assert step(e, "R", 7 * BLOCK)[1]["mac_cache"] == (1, 0)
        assert step(e, "R", 8 * BLOCK)[1]["mac_cache"] == (0, 1)
        assert sorted(resident_keys(e.mac_cache)) == [16 * PAGE // BLOCK, 16 * PAGE // BLOCK + 1]


class TestConfig:
    def test_spare_bits_must_hold_upper_version(self):
        with pytest.raises(ConfigError):
            EngineConfig(params=SecurityParams(stealth_bits=27, upper_bits=65, reset_exp=20))

    def test_overflow_must_align_to_lines(self):
        with pytest.raises(ConfigError):
            EngineConfig(overflow_bytes=1000)

    def test_local_bytes_must_be_whole_pages(self):
        # else one page would straddle the two channels, and its blocks and
        # its reset re-encryption would be charged to different ones
        with pytest.raises(ConfigError, match="local_bytes"):
            EngineConfig(protected_bytes=4 * PAGE, local_bytes=100)
        EngineConfig(protected_bytes=4 * PAGE, local_bytes=PAGE)

    @pytest.mark.parametrize("doc, keys", [
        ({"overflow_bytes": 6 * 56, "overflow_assoc": 4}, "overflow_bytes and overflow_assoc"),
        ({"mac_cache_bytes": 6 * 64, "mac_assoc": 4}, "mac_cache_bytes and mac_assoc"),
        ({"mac_cache_bytes": 10}, "mac_cache_bytes and mac_assoc"),
    ])
    def test_cache_shape_names_its_keys(self, doc, keys):
        with pytest.raises(ConfigError, match=f"bad cache shape: {keys} give"):
            EngineConfig(**doc)

    @pytest.mark.parametrize("doc, key, line", [
        ({"mac_cache_bytes": 1100, "mac_assoc": 1}, "mac_cache_bytes", 64),
        ({"overflow_bytes": 16 * 56 + 8}, "overflow_bytes", 56),
    ])
    def test_cache_of_part_lines_is_refused(self, doc, key, line):
        # 1100 bytes would run a 17-line MAC cache and drop the rest
        with pytest.raises(ConfigError, match=f"{key} and .* not a whole number of {line}-byte"):
            EngineConfig(**doc)

    def test_derived_latencies(self):
        c = EngineConfig()
        assert c.cipher_ns == pytest.approx(CIPHER_NS)
        assert c.pool_ns == 145.0
        assert c.device_ns == 110.0


class TestChargingModel:
    def test_flat_write_costs_two_messages(self):
        e = make_engine()
        out = charged(e, "process_access", "W", 0)
        assert out.device_bytes == 2 * 64
        assert out.device_transactions == 1
        assert out.mac_bytes == BLOCK  # fetch-for-ownership miss
        assert out.local_bytes == BLOCK

    def test_uneven_write_costs_three_messages(self):
        e = make_engine()
        e.process_access("W", 0)
        out = charged(e, "process_access", "W", 0)
        assert e.store.upgrades_to_uneven == 1
        assert out.device_bytes == 3 * 64
        assert out.mac_bytes == 0  # mac line already owned

    def test_full_write_costs_six_messages(self):
        e = make_engine()
        for _ in range(127):
            e.process_access("W", 0)
        assert e.store.upgrades_to_full == 0
        out = charged(e, "process_access", "W", 0)
        assert e.store.upgrades_to_full == 1
        assert out.device_bytes == 6 * 64

    def test_warm_read_moves_no_metadata(self):
        e = make_engine()
        e.process_access("W", 0)
        out, counted = step(e, "R", 0)
        assert counted == {"flat_cache": (1, 0), "overflow": (0, 0), "mac_cache": (1, 0)}
        assert out.device_bytes == out.mac_bytes == 0
        assert out.device_transactions == 0
        assert out.local_bytes == BLOCK
        assert out.latency_ns == pytest.approx(50 + CIPHER_NS)

    def test_cold_read_pays_device_and_mac(self):
        e = make_engine()
        out, counted = step(e, "R", 0)
        assert counted == {"flat_cache": (0, 1), "overflow": (0, 0), "mac_cache": (0, 1)}
        assert out.device_bytes == 2 * 64
        assert out.device_transactions == 1
        assert out.mac_bytes == BLOCK
        # device fetch (95 + 15) dominates the parallel mac fetch
        assert out.latency_ns == pytest.approx(50 + 110 + CIPHER_NS)

    def test_mac_only_miss_waits_on_dram(self):
        e = make_engine()
        e.process_access("W", 0)
        e.mac_cache.invalidate_range([e.config.protected_bytes // BLOCK])
        out, counted = step(e, "R", 0)
        assert counted == {"flat_cache": (1, 0), "overflow": (0, 0), "mac_cache": (0, 1)}
        assert out.device_bytes == 0
        assert out.latency_ns == pytest.approx(50 + 50 + CIPHER_NS)

    def test_read_refetches_missing_overflow_line(self):
        e = make_engine(overflow_bytes=56, overflow_assoc=1)  # one line
        e.process_access("W", 0)
        e.process_access("W", 0)  # page now uneven, line cached
        e.process_access("W", PAGE)
        e.process_access("W", PAGE)  # page 1's line takes the only slot
        assert resident_keys(e.overflow) == [1 * 4] and is_cached(e.flat_cache, 0)
        out, counted = step(e, "R", 0)
        assert counted["flat_cache"] == (1, 0)
        assert counted["overflow"] == (0, 1)  # the page's one line missed
        assert out.device_bytes == 3 * 64
        assert out.device_transactions == 1

    def test_mac_dirty_writebacks_are_charged(self):
        e = make_engine(pages=32, mac_cache_bytes=16 * BLOCK, mac_assoc=16)
        for page in range(17):
            e.process_access("W", page * PAGE)
        assert e.mac_bytes == 18 * BLOCK  # 17 fills + 1 dirty eviction

    def test_reset_reencryption_on_the_pool_page_channel(self):
        e = make_engine(pages=4, local_bytes=PAGE)
        out = charged(e, "handle_uv_update", 1)
        assert (out.local_bytes, out.pool_bytes) == (0, 64 * BLOCK)
        assert (e.local_bytes, e.pool_bytes) == (0, 64 * BLOCK)

    def test_pool_channel_and_latency(self):
        e = make_engine(pages=16, local_bytes=0)
        out = charged(e, "process_access", "W", 0)
        assert out.pool_bytes == BLOCK and out.local_bytes == 0
        warm = charged(e, "process_access", "R", 0)
        assert warm.latency_ns == pytest.approx(145 + CIPHER_NS)

    def test_rejects_addresses_outside_partition(self):
        e = make_engine(pages=2)
        with pytest.raises(AddressRangeError):
            e.process_access("R", 2 * PAGE)
        with pytest.raises(ConfigError):
            e.process_access("X", 0)


class TestInclusivity:
    def test_evicting_flat_image_drops_lines(self):
        e = make_engine(flat_cache_entries=2)
        for page in (0, 1):
            e.process_access("W", page * PAGE)
            e.process_access("W", page * PAGE)
        assert 0 in resident_keys(e.overflow)
        e.process_access("W", 2 * PAGE)  # evicts page 0's image
        assert not is_cached(e.flat_cache, 0)
        assert 0 not in resident_keys(e.overflow)
        # page 1 untouched
        assert 1 * 4 in resident_keys(e.overflow)

    @pytest.mark.parametrize("doc, reached", [
        # resets, full pages and overflow thrash on a small shape
        ({"reset_exp": 10, "flat_cache_entries": 32, "overflow_bytes": 1792,
          "overflow_assoc": 4,
          "trace": {"pattern": {"kind": "hot_block", "footprint_bytes": 4194304,
                                "op_count": 20000, "hot_set_bytes": 262144,
                                "write_fraction": 0.7, "seed": 7}}},
         ("full", "resets", "overflow_hits", "overflow_misses")),
        # the default 256 flat entries and 512-line 16-way overflow buffer:
        # 192 hot pages driven full, four lines each, thrash the buffer
        ({"reset_exp": 11,
          "trace": {"pattern": {"kind": "hot_block", "footprint_bytes": 4194304,
                                "op_count": 40000, "hot_set_bytes": 786432,
                                "write_fraction": 0.7, "seed": 6}}},
         ("full", "resets", "overflow_hits", "overflow_misses")),
        # 16 hot pages stay in 32 flat entries, so a reset re-keys a page
        # the flat cache holds, with the lines its UPDATE left it
        ({"reset_exp": 6, "flat_cache_entries": 32,
          "trace": {"pattern": {"kind": "hot_block", "footprint_bytes": 4194304,
                                "op_count": 6000, "hot_set_bytes": 65536,
                                "write_fraction": 0.7, "seed": 7}}},
         ("full", "resets", "cached_resets")),
    ], ids=["small_caches", "default_caches", "hot_set_in_flat_cache"])
    def test_lines_stay_inclusive_and_reads_decode_under_traffic(self, doc, reached):
        # after every event, each overflow line is one its cached page
        # filled, each cached page filled exactly the lines of its format
        # (so a flat-cache hit needs no device READ to learn it), and a
        # read's packed entry and lines decode to the store's version of
        # the block
        cfg = resolve_config(dict(doc, mode="toleo", protected_bytes=4194304))
        e = build_engine(cfg)
        cached, sets = e.flat_cache._pages, e.overflow._sets.values()
        cached_resets = 0  # resets of a page the flat cache held with lines
        for op, addr in resolve_trace(cfg, None):
            held, resets = bool(cached.get(addr // PAGE)), e.resets
            e.process_access(op, addr)
            cached_resets += held and e.resets > resets
            filled = dict(chain.from_iterable(cached.values()))  # key -> its set
            assert filled.keys() >= set(chain.from_iterable(sets)), "line its page did not fill"
            for page, lines in cached.items():
                assert len(lines) == LINE_COUNT[e.store.page_format(page)], page
            if op == "R":
                assert e._decode_version(addr) == e.store.read_version(addr)
        s = e.stats()
        counts = {"full": s["page_formats"]["full"], "resets": s["resets"],
                  "overflow_hits": s["caches"]["overflow"]["hits"],
                  "overflow_misses": s["caches"]["overflow"]["misses"],
                  "cached_resets": cached_resets}
        assert all(counts[name] > 0 for name in reached), counts


class TestUvUpdates:
    def params(self, reset_exp=1):
        return SecurityParams(stealth_bits=27, upper_bits=37, reset_exp=reset_exp)

    def test_reset_triggers_page_reencryption(self):
        e = make_engine(params=self.params(), seed=3)
        out = None
        for i in range(64):
            out = charged(e, "process_access", "W", 0)
            if out.reencrypted_blocks:
                break
        assert out.reencrypted_blocks == 64
        assert e.store.resets == 1
        assert out.local_bytes == BLOCK + 64 * BLOCK
        assert out.mac_bytes >= 8 * BLOCK
        assert e.resets == 1
        assert e.uv[0] == 1
        # cached metadata was dropped: next read goes to the device
        assert step(e, "R", 0)[1]["flat_cache"] == (0, 1)

    def test_direct_uv_update_accounting(self):
        e = make_engine()
        e.process_access("W", 0)
        assert charged(e, "handle_uv_update", 0) == Charges(
            local_bytes=64 * BLOCK, mac_bytes=8 * BLOCK, resets=1, reencrypted_blocks=64)
        assert (e.uv, e.resets, e.reencrypted_blocks) == ({0: 1}, 1, 64)

    def test_upper_version_exhaustion(self):
        e = make_engine(params=SecurityParams(stealth_bits=27, upper_bits=2, reset_exp=20))
        for uv in (1, 2, 3):
            assert charged(e, "handle_uv_update", 0).reencrypted_blocks == 64
            assert e.uv[0] == uv
        totals = (e.local_bytes, e.mac_bytes, e.resets, e.reencrypted_blocks)
        with pytest.raises(UvOverflowError):
            e.handle_uv_update(0)
        # the fourth bump overflows and charges nothing
        assert (e.local_bytes, e.mac_bytes, e.resets, e.reencrypted_blocks) == totals
        assert totals == (3 * 64 * BLOCK, 3 * 8 * BLOCK, 3, 3 * 64)
        assert e.uv[0] == 3


    @pytest.mark.parametrize("geometry, lines", [
        (Geometry(macs_per_block=3), 22),  # 64 blocks span MAC lines 21-42
        (Geometry(page_bytes=256), 1),  # four blocks share one line of eight MACs
    ], ids=["three_macs", "small_page"])
    @pytest.mark.parametrize("call", ["os_free_page", "handle_uv_update"])
    def test_rekey_covers_every_mac_line_of_the_page(self, call, geometry, lines):
        e = make_engine(geometry=geometry)
        e.process_access("W", 2 * geometry.page_bytes - BLOCK)  # page 1's last block
        assert len(resident_keys(e.mac_cache)) == 1
        assert charged(e, call, 1).mac_bytes == lines * BLOCK
        assert resident_keys(e.mac_cache) == []

    @pytest.mark.parametrize("page", [16, -1])
    @pytest.mark.parametrize("call", ["os_free_page", "handle_uv_update"])
    def test_out_of_range_page_changes_nothing(self, call, page):
        e = make_engine(pages=16)
        e.process_access("W", 0)
        before = (dict(e.uv), e.stats())
        with pytest.raises(AddressRangeError):
            getattr(e, call)(page)
        assert (dict(e.uv), e.stats()) == before


class TestCapacityHalt:
    def test_capacity_exhaustion_halts_engine(self):
        cfg = EngineConfig(protected_bytes=2 * PAGE, device_capacity_bytes=2 * 12 + 56)
        e = HostEngine(cfg)
        e.process_access("W", 0)
        e.process_access("W", 0)  # page 0 takes the only line
        e.process_access("W", PAGE)
        local = e.local_bytes
        with pytest.raises(SimulationHalted):
            e.process_access("W", PAGE)
        # the halted event's outcome holds what the totals got: its data bytes
        assert e.local_bytes - local == BLOCK
        assert e.outcome == AccessOutcome(local_bytes=BLOCK)
        with pytest.raises(SimulationHalted):
            e.process_access("R", 0)  # terminal: even reads refuse
        assert e.outcome == AccessOutcome(local_bytes=BLOCK)  # and touch no outcome
        assert "capacity" in e.halted


class TestFailurePaths:
    @pytest.mark.parametrize("engine_class", [NoneEngine, CiEngine, HostEngine, MerkleEngine])
    def test_bad_op_is_not_counted(self, engine_class):
        e = engine_class(EngineConfig(protected_bytes=16 * PAGE))
        e.process_access("W", 0)
        with pytest.raises(ConfigError):
            e.process_access("X", 0)
        e.process_access("R", 0)
        s = e.stats()
        assert (s["events"], s["reads"], s["writes"]) == (2, 1, 1)
        assert s["channels"]["local_bytes"] == 2 * BLOCK

    def test_os_free_page_honours_kill_switch(self):
        e = make_engine(seed=9)
        old = e.functional_write(0, b"A" * 64)
        e.functional_write(0, b"B" * 64)
        assert e.inject_replay(0, old) == "detected"
        mac_bytes = e.mac_bytes
        with pytest.raises(SimulationHalted):
            e.os_free_page(0)
        assert e.mac_bytes == mac_bytes
        assert 0 not in e.uv

    @pytest.mark.parametrize("state", ["killed", "halted"])
    @pytest.mark.parametrize("call", ["handle_uv_update", "os_free_page"])
    def test_terminal_engine_refuses_page_rekey(self, call, state):
        if state == "killed":
            e = make_engine(seed=9)
            old = e.functional_write(0, b"A" * 64)
            e.functional_write(0, b"B" * 64)
            assert e.inject_replay(0, old) == "detected"
            page = 0
        else:
            e = HostEngine(EngineConfig(protected_bytes=2 * PAGE, device_capacity_bytes=2 * 12 + 56))
            for addr in (0, 0, PAGE):
                e.process_access("W", addr)
            with pytest.raises(SimulationHalted):
                e.process_access("W", PAGE)  # no slot left for page 1's upgrade
            page = 1
        before = (dict(e.uv), e.stats())
        with pytest.raises(SimulationHalted):
            getattr(e, call)(page)
        assert (dict(e.uv), e.stats()) == before

    def test_uv_overflow_halts_engine(self):
        # one upper-version bit and a reset at half of all leading advances:
        # a page's second reset has no upper version left (event 7 here)
        params = SecurityParams(stealth_bits=8, upper_bits=1, reset_exp=1)
        e = make_engine(pages=4, params=params)
        channels = ("local_bytes", "pool_bytes", "mac_bytes", "device_bytes")
        with pytest.raises(SimulationHalted):
            for i in range(200):
                before = [getattr(e, name) for name in channels]
                e.process_access("W", i % 4 * PAGE)
        assert e.stats()["events"] == 7
        # the halted event's outcome holds exactly what the totals got: its
        # data, MAC and device charges, but no re-key or re-encryption
        out = e.outcome
        assert [getattr(out, name) for name in channels] == [
            getattr(e, name) - was for name, was in zip(channels, before)]
        assert out.device_transactions == 1 and "reset_triggered" in out.events
        assert "upper version" in e.halted
        # the store reset the page before its upper version ran out
        assert e.stats()["resets"] == e.store.resets
        with pytest.raises(SimulationHalted):
            e.process_access("R", 0)
        assert e.stats()["events"] == 7


_ENGINES = {"none": NoneEngine, "ci": CiEngine, "toleo": HostEngine, "merkle": MerkleEngine}


def each_event(engine, trace):
    """A bare ``process_access`` loop, as a library caller writes one."""
    for op, addr in trace:
        engine.process_access(op, addr)


def stop(replay, engine, trace):
    """Run ``replay(engine, trace)``: the type and message of the error it
    raised (None, None if none), and the events the engine counted."""
    try:
        replay(engine, trace)
    except SimError as exc:
        return type(exc), str(exc), engine.reads + engine.writes
    return None, None, engine.reads + engine.writes


class TestRun:
    @settings(max_examples=150, deadline=None)
    @given(mode=st.sampled_from(sorted(_ENGINES)), pages=st.integers(1, 4),
           device_slots=st.one_of(st.none(), st.integers(0, 4)),
           upper_bits=st.integers(1, 3), reset_exp=st.integers(1, 8),
           seed=st.integers(0, 2**16), events=st.integers(0, 300),
           write_share=st.sampled_from([0.3, 0.7, 1.0]),
           bad=st.one_of(st.none(), st.tuples(st.integers(0, 300), st.booleans())))
    # a capacity halt, an upper-version halt, a bad op and an address past the range
    @example(mode="toleo", pages=2, device_slots=0, upper_bits=3, reset_exp=8, seed=1,
             events=300, write_share=1.0, bad=None)
    @example(mode="toleo", pages=1, device_slots=None, upper_bits=1, reset_exp=1, seed=1,
             events=300, write_share=1.0, bad=None)
    @example(mode="merkle", pages=2, device_slots=None, upper_bits=3, reset_exp=8, seed=2,
             events=300, write_share=0.3, bad=(150, True))
    @example(mode="ci", pages=2, device_slots=None, upper_bits=3, reset_exp=8, seed=3,
             events=300, write_share=0.3, bad=(299, False))
    def test_run_stops_where_a_bare_loop_does(self, mode, pages, device_slots, upper_bits,
                                             reset_exp, seed, events, write_share, bad):
        # the same error, after the same events, and the same stats after it
        params = SecurityParams(upper_bits=upper_bits, reset_exp=reset_exp)
        config = EngineConfig(
            protected_bytes=pages * PAGE, flat_cache_entries=2, mac_cache_bytes=4 * BLOCK,
            mac_assoc=2, device_capacity_bytes=None if device_slots is None else
            flat_array_bytes(pages * PAGE, G, params) + device_slots * SLOT_BYTES,
            params=params, seed=seed)
        rng = random.Random(seed)
        trace = [("W" if rng.random() < write_share else "R", rng.randrange(pages * 64) * BLOCK)
                 for _ in range(events)]
        if bad is not None:
            at, bad_op = bad
            trace.insert(at, ("X", 0) if bad_op else ("R", pages * PAGE))
        ran, looped = _ENGINES[mode](config), _ENGINES[mode](config)
        assert stop(ProtectionEngine.run, ran, trace) == stop(each_event, looped, trace)
        assert ran.stats() == looped.stats()


LATENCY_KEYS = ("local_ns", "cxl_ns", "pool_dram_ns", "device_dram_ns", "cipher_cycles",
                "clock_ghz")


def declared_range(klass, name):
    """(low, high) of a ``bounded`` field, as its dataclass declares it."""
    f = next(f for f in dataclasses.fields(klass) if f.name == name)
    return f.metadata["low"], f.metadata["high"]


def slowest_latencies() -> dict:
    """Each latency input at its high bound and the clock at its low one:
    the slowest read an ``EngineConfig`` takes."""
    slowest = {name: declared_range(EngineConfig, name)[1] for name in LATENCY_KEYS}
    slowest["clock_ghz"] = declared_range(EngineConfig, "clock_ghz")[0]
    return slowest


def deepest_tree() -> CounterTreeConfig:
    """The counter tree with the most levels: the fewest children a node and
    counters a leaf its ranges take, and a root region of one child counter."""
    arity = declared_range(CounterTreeConfig, "arity")[0]
    return CounterTreeConfig(arity=arity, root_bytes=CounterTreeConfig.node_bytes // arity,
                             counters_per_leaf_node=declared_range(
                                 CounterTreeConfig, "counters_per_leaf_node")[0],
                             counter_cache_bytes=CounterTreeConfig.node_bytes)


# one-byte blocks, the smallest a geometry takes, so the most of them
ONE_BYTE_BLOCKS = {"geometry": Geometry(block_bytes=1, mac_bits=1, macs_per_block=1),
                   "params": SecurityParams(upper_bits=7), "mac_cache_bytes": 16}


class TestReadLatency:
    @pytest.mark.parametrize("mode", sorted(_ENGINES))
    def test_direct_reads_at_the_slowest_latencies_stay_finite(self, mode):
        # a library loop over process_access, with no run() around it, over
        # the widest range and every read on the slower pool channel; 2000
        # reads at local_ns=1e306 once summed to inf, which JSON writes as
        # Infinity.  The merkle tree is the deepest there is: 64 levels.
        config = EngineConfig(protected_bytes=declared_range(EngineConfig, "protected_bytes")[1],
                              local_bytes=0, **slowest_latencies(),
                              **({} if mode == "toleo" else ONE_BYTE_BLOCKS))
        e = MerkleEngine(config, deepest_tree()) if mode == "merkle" else _ENGINES[mode](config)
        for i in range(2000):
            e.process_access("R", i * 0x9E3779B97F4A7C15 % config.protected_bytes)
        assert e.reads == 2000
        assert math.isfinite(e.read_latency_total) and e.read_latency_total > 0
        assert math.isfinite(e.stats()["avg_read_latency_ns"])
        if mode == "merkle":
            assert e.tree.depth == 64 and e.tree.fetches > 2000 * 60

    def test_the_slowest_reads_of_the_widest_range_sum_within_float_range(self):
        # the worst case from the declared ranges alone: a read makes a trip
        # on its channel for the data and one for its MAC line or each tree
        # level, a device hop and the cipher delay (summed here, though the
        # engine overlaps the fetches), and 2**64 such reads stay finite
        slowest = slowest_latencies()
        trip = max(slowest["local_ns"], slowest["cxl_ns"] + slowest["pool_dram_ns"])
        device = slowest["cxl_ns"] + slowest["device_dram_ns"]
        blocks = declared_range(EngineConfig, "protected_bytes")[1]  # of one byte each
        levels = tree_depth(deepest_tree(), blocks)
        assert levels == 64
        read = (1 + levels) * trip + device + slowest["cipher_cycles"] / slowest["clock_ghz"]
        assert read * blocks < sys.float_info.max


class TestFunctionalLayer:
    def test_roundtrip_and_cipher_freshness(self):
        e = make_engine(seed=9)
        msg = bytes(range(64))
        rec1 = e.functional_write(0, msg)
        got = e.functional_read(0)
        assert got == msg
        rec2 = e.functional_write(0, msg)
        assert rec1.cipher != rec2.cipher  # version advanced, keystream moved
        rec3 = e.functional_write(BLOCK, msg)
        assert rec3.cipher != rec2.cipher  # address is in the tweak

    def test_replay_of_stale_record_is_detected(self):
        e = make_engine(seed=9)
        old = e.functional_write(0, b"A" * 64)
        e.functional_write(0, b"B" * 64)
        assert e.inject_replay(0, old) == "detected"
        assert e.killed
        with pytest.raises(SimulationHalted):
            e.process_access("R", 0)
        e.rearm_kill_switch()
        e.functional_write(0, b"C" * 64)
        assert e.functional_read(0) == b"C" * 64

    def test_replayed_record_stays_in_memory(self):
        # the replay substitutes the stale record, so after a re-arm the
        # next functional read meets it again and fails again
        e = make_engine(seed=9)
        old = e.functional_write(0, b"A" * 64)
        e.functional_write(0, b"B" * 64)
        assert e.inject_replay(0, old) == "detected"
        assert e.functional.get(0) is old
        e.rearm_kill_switch()
        with pytest.raises(FreshnessViolation):
            e.functional_read(0)
        assert e.killed

    def test_replay_of_current_record_passes(self):
        e = make_engine(seed=9)
        rec = e.functional_write(0, b"A" * 64)
        assert e.inject_replay(0, rec) == "silent_success"

    def test_replay_out_of_range_stores_no_record(self):
        # the record entered functional.records before the address was refused
        e = make_engine(pages=4)
        rec = e.functional_write(0, b"A" * 64)
        with pytest.raises(AddressRangeError):
            e.inject_replay(4 * PAGE, rec)
        assert list(e.functional.records) == [0]

    def test_os_free_scrambles_page(self):
        e = make_engine(seed=9)
        e.functional_write(0, b"secret!" * 8 + b"\0" * 8)
        # no re-encryption traffic
        assert charged(e, "os_free_page", 0) == Charges(mac_bytes=8 * BLOCK)
        with pytest.raises(FreshnessViolation):
            e.functional_read(0)
        assert e.killed

    def test_uv_update_reencrypts_instead(self):
        e = make_engine(seed=9)
        rec = e.functional_write(0, b"D" * 64)
        assert charged(e, "handle_uv_update", 0).reencrypted_blocks == 64
        assert e.functional.get(0).uv == 1
        assert e.functional.get(0) is not rec
        assert e.functional_read(0) == b"D" * 64

    def test_writes_seal_under_the_pages_upper_version_across_resets(self):
        # every reset bumps the page's upper version, so a block written again
        # and again never seals two records under one (full version, address)
        # pair, although each reset draws its stealth base again from 2^8
        params = SecurityParams(stealth_bits=8, reset_exp=2)
        e = make_engine(params=params, seed=5)
        sealed = set()
        for i in range(300):
            rec = e.functional_write(BLOCK, bytes([i % 256]) * 64)
            assert rec.uv == e.uv.get(0, 0)
            pair = (pack_full(rec.uv, rec.stealth, params), BLOCK)
            assert pair not in sealed, i
            sealed.add(pair)
        assert e.resets > 40 and e.uv[0] == e.resets

    def test_reset_reencrypts_only_its_page(self):
        e = make_engine(seed=9)
        texts = {addr: bytes([i]) * 64 for i, addr in enumerate((0, BLOCK, PAGE, PAGE + BLOCK))}
        recs = {addr: e.functional_write(addr, text) for addr, text in texts.items()}
        e.handle_uv_update(0)
        assert e.resets == 1 and e.uv == {0: 1}
        for addr, text in texts.items():
            rec = e.functional.get(addr)
            if addr < PAGE:
                assert rec is not recs[addr] and rec.uv == 1
            else:
                assert rec is recs[addr]
            assert e.functional_read(addr) == text

    def test_roundtrip_through_uneven_full_and_reset(self):
        # every block is sealed while its page is flat; writes to block 0 then
        # make the page uneven, then full, until a reset re-seals the page.
        # At each stage every block opens under the version the functional
        # layer decodes from the page's packed entry and lines
        params = SecurityParams(stealth_bits=27, upper_bits=37, reset_exp=6)
        e = make_engine(params=params, seed=2)  # resets page 0 once it is full
        texts = {b * BLOCK: bytes([b]) * 64 for b in range(64)}
        for addr, text in texts.items():
            e.functional_write(addr, text)
        stages = []
        while not e.resets:
            if e.store.page_format(0) not in stages:
                stages.append(e.store.page_format(0))
                for addr, text in texts.items():
                    assert e.functional_read(addr) == text
            e.functional_write(0, texts[0])
        assert stages == [FLAT, UNEVEN, FULL]
        assert e.uv == {0: 1} and e.store.page_format(0) == FLAT
        for addr, text in texts.items():
            assert e.functional_read(addr) == text


class TestMacLayer:
    def test_mac_is_truncated_to_56_bits(self):
        fn = FunctionalBlockStore(G, SecurityParams(), seed=1)
        mac = fn.compute_mac(12345, 0, b"x" * 64)
        assert len(mac) == 7

    @pytest.mark.parametrize("mac_bits", [1, 12, 57])
    def test_mac_is_truncated_to_its_width(self, mac_bits):
        # whole bytes, the top one keeping only the bits the width needs
        fn = FunctionalBlockStore(Geometry(mac_bits=mac_bits), SecurityParams(), seed=1)
        for version in range(16):
            mac = fn.compute_mac(version, 64, b"x" * 64)
            assert len(mac) == -(-mac_bits // 8)
            assert int.from_bytes(mac, "little") < 2**mac_bits

    def test_mac_binds_version_address_cipher(self):
        fn = FunctionalBlockStore(G, SecurityParams(), seed=1)
        base = fn.compute_mac(5, 64, b"x" * 64)
        assert fn.compute_mac(6, 64, b"x" * 64) != base
        assert fn.compute_mac(5, 128, b"x" * 64) != base
        assert fn.compute_mac(5, 64, b"y" * 64) != base


class TestConservation:
    @pytest.mark.parametrize("engine_class", [NoneEngine, CiEngine, HostEngine, MerkleEngine],
                             ids=["none", "ci", "toleo", "merkle"])
    def test_outcome_sums_match_engine_totals(self, engine_class):
        # half the pages local, half on the pool, so both channels carry traffic
        e = engine_class(EngineConfig(
            protected_bytes=8 * PAGE,
            local_bytes=4 * PAGE,
            flat_cache_entries=4,
            mac_cache_bytes=16 * BLOCK,
            params=SecurityParams(stealth_bits=27, upper_bits=37, reset_exp=4),
            seed=6,
        ))
        rng = np.random.default_rng(6)
        blocks = rng.integers(0, 8 * 64, size=5000)
        writes = rng.random(5000) < 0.5
        fields = ("local_bytes", "pool_bytes", "mac_bytes", "device_bytes",
                  "device_transactions")
        totals = dict.fromkeys(fields, 0)
        events = Counter()
        for b, w in zip(blocks.tolist(), writes.tolist()):
            out = e.process_access("W" if w else "R", b * BLOCK)
            for name in fields:
                totals[name] += getattr(out, name)
            events.update(out.events)
        s = e.stats()
        assert totals == {**s["channels"], "device_transactions": s["device"]["transactions"]}
        assert totals["local_bytes"] > 0 and totals["pool_bytes"] > 0
        # each store event is reported by the one event whose UPDATE fired it
        store = getattr(e, "store", None)
        assert events == (Counter() if store is None else Counter({
            "upgraded_to_uneven": store.upgrades_to_uneven,
            "normalized": store.normalizations,
            "upgraded_to_full": store.upgrades_to_full,
            "reset_triggered": store.resets}))
        if e.mode == "toleo":
            assert e.resets > 0  # the reset path fired during the run
        # the engine refills one record per event rather than making one
        assert e.process_access("R", 0) is e.process_access("W", 0)

    def test_every_write_is_one_update(self):
        e = make_engine(pages=4)
        rng = np.random.default_rng(7)
        for b in rng.integers(0, 4 * 64, size=800).tolist():
            e.process_access("W", b * BLOCK)
        assert e.device_updates == 800
        assert e.stats()["device"]["transactions"] == e.device_updates + e.device_reads

    def test_two_runs_same_seed_are_identical(self):
        def run():
            e = make_engine(pages=8, seed=11,
                            params=SecurityParams(stealth_bits=27, upper_bits=37, reset_exp=5))
            rng = np.random.default_rng(11)
            for b in rng.integers(0, 8 * 64, size=4000).tolist():
                e.process_access("W", b * BLOCK)
                e.process_access("R", b * BLOCK)
            return e.stats()

        assert run() == run()


class TestStatsSchema:
    def test_fixed_keys(self):
        e = make_engine()
        e.process_access("W", 0)
        s = e.stats()
        assert s["mode"] == "toleo"
        assert set(s) == {
            "mode", "events", "reads", "writes", "channels", "caches",
            "resets", "reencrypted_blocks", "avg_read_latency_ns",
            "page_formats", "device",
        }
        assert set(s["channels"]) == {"local_bytes", "pool_bytes", "mac_bytes", "device_bytes"}
        assert set(s["device"]) == {
            "static_bytes", "dynamic_bytes", "peak_bytes",
            "transactions", "reads", "updates",
        }
        assert s["events"] == s["reads"] + s["writes"] == 1
