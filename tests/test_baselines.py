import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freshsim.baselines import (
    CiEngine,
    CounterTreeConfig,
    CounterTreeState,
    MerkleEngine,
    NoneEngine,
    tree_depth,
)
from freshsim.core import AddressRangeError, ConfigError, Geometry, SecurityParams
from freshsim.engine import EngineConfig, HostEngine, SimulationHalted
from freshsim.version_store import SLOT_BYTES, flat_array_bytes
from helpers import charged

G = Geometry()
PAGE = G.page_bytes
BLOCK = G.block_bytes
CIPHER_NS = 40 / 2.25
TIB = 1 << 40
MIB = 1 << 20


class TestTreeGeometry:
    def test_root_region_covers_384_counters(self):
        cfg = CounterTreeConfig(protected_bytes=4 * MIB)
        assert cfg.root_coverage == 384
        assert cfg.leaf_nodes == 4 * MIB // 64 // 8

    def test_depth_at_datacenter_scale(self):
        cfg = CounterTreeConfig(protected_bytes=28 * TIB)
        assert tree_depth(cfg) == 10

    def test_depth_with_tiny_root(self):
        cfg = CounterTreeConfig(protected_bytes=128 * MIB, root_bytes=64)
        assert tree_depth(cfg) == 5

    def test_leaf_level_always_fetched(self):
        # root region covers every leaf counter, yet the leaf node itself
        # still has to come from memory
        cfg = CounterTreeConfig(protected_bytes=PAGE)
        assert cfg.leaf_nodes <= cfg.root_coverage
        assert tree_depth(cfg) == 1

    def test_depth_shrinks_with_wider_fanout(self):
        narrow = CounterTreeConfig(protected_bytes=1 * TIB, arity=2)
        wide = CounterTreeConfig(protected_bytes=1 * TIB, arity=64)
        assert tree_depth(narrow) > tree_depth(wide)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CounterTreeConfig(protected_bytes=4 * MIB, arity=1)
        with pytest.raises(ConfigError):
            CounterTreeConfig(protected_bytes=32)
        with pytest.raises(ConfigError):
            CounterTreeConfig(protected_bytes=4 * MIB, root_bytes=4)

    @pytest.mark.parametrize("cache_bytes, assoc", [(6 * 64, 4), (10, 16), (64, 0)])
    def test_bad_counter_cache_shape_is_rejected(self, cache_bytes, assoc):
        # 6 lines do not fill 4-way sets, and 10 bytes hold no 64-byte line
        with pytest.raises(ConfigError, match="counter_cache_bytes and counter_cache_assoc"):
            CounterTreeConfig(protected_bytes=4 * MIB, counter_cache_bytes=cache_bytes,
                              counter_cache_assoc=assoc)

    def test_counter_cache_of_part_lines_is_refused(self):
        # 100 bytes would run a one-line counter cache
        with pytest.raises(ConfigError, match="counter_cache_bytes and counter_cache_assoc give "
                                              "100 bytes, not a whole number of 64-byte lines"):
            CounterTreeConfig(protected_bytes=4 * MIB, counter_cache_bytes=100)

    def test_counter_cache_smaller_than_its_ways_is_fully_associative(self):
        cache = CounterTreeState(CounterTreeConfig(protected_bytes=4 * MIB,
                                                   counter_cache_bytes=2 * 64)).cache
        assert (cache.lines, cache.assoc) == (2, 2)


class TestTreeWalk:
    def make_state(self, **kw):
        kw.setdefault("protected_bytes", 4 * MIB)  # depth 2 with defaults
        return CounterTreeState(CounterTreeConfig(**kw))

    def test_cold_walk_touches_every_level(self):
        st = self.make_state()
        assert st.depth == 2
        assert st.access(0, is_write=False) == st.depth

    def test_repeat_access_hits_leaf(self):
        st = self.make_state()
        st.access(0, False)
        assert st.access(0, False) == 0
        assert st.access(5 * BLOCK, False) == 0  # same leaf node

    def test_sibling_stops_at_shared_parent(self):
        st = self.make_state()
        st.access(0, False)
        # next leaf node over: new leaf, cached parent
        assert st.access(8 * BLOCK, False) == 1

    def test_walk_never_exceeds_depth(self):
        st = self.make_state(protected_bytes=64 * MIB)
        rng = np.random.default_rng(2)
        for addr in (rng.integers(0, 64 * MIB // 64, size=3000) * 64).tolist():
            assert 0 <= st.access(addr, is_write=bool(addr & 64)) <= st.depth

    def test_dirty_evictions_are_counted(self):
        st = self.make_state(counter_cache_bytes=2 * 64)
        for leaf in range(64):
            st.access(leaf * 8 * BLOCK, True)
        assert st.dirty_writebacks > 0

    def test_out_of_range_rejected(self):
        st = self.make_state()
        with pytest.raises(AddressRangeError):
            st.access(4 * MIB, False)


def run_trace(engine, events):
    for op, addr in events:
        engine.process_access(op, addr)
    return engine.stats()


def sample_trace(pages=32, n=2000, seed=4):
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, pages * 64, size=n)
    writes = rng.random(n) < 0.3
    return [("W" if w else "R", int(b) * BLOCK) for b, w in zip(blocks, writes)]


class TestBaselineEngines:
    def test_none_is_pure_data_traffic(self):
        e = NoneEngine(EngineConfig(protected_bytes=32 * PAGE))
        s = run_trace(e, sample_trace())
        assert s["mode"] == "none"
        assert s["channels"]["mac_bytes"] == 0
        assert s["channels"]["device_bytes"] == 0
        assert s["avg_read_latency_ns"] == pytest.approx(50.0)
        assert s["channels"]["local_bytes"] == s["events"] * BLOCK

    def test_ci_adds_cipher_and_macs_only(self):
        e = CiEngine(EngineConfig(protected_bytes=32 * PAGE))
        cold = charged(e, "process_access", "R", 0)
        assert cold.latency_ns == pytest.approx(50 + 50 + CIPHER_NS)
        warm = charged(e, "process_access", "R", 0)
        assert warm.latency_ns == pytest.approx(50 + CIPHER_NS)
        s = e.stats()
        assert s["channels"]["mac_bytes"] == BLOCK
        assert s["channels"]["device_bytes"] == 0

    def test_ci_mac_traffic_matches_protected_engine(self):
        # one write per page up front so the protected engine's flat cache is
        # warm and the only latency difference could come from the MAC side
        trace = [("W", p * PAGE) for p in range(32)] + sample_trace()
        ci = run_trace(CiEngine(EngineConfig(protected_bytes=32 * PAGE)), trace)
        toleo = run_trace(HostEngine(EngineConfig(protected_bytes=32 * PAGE)), trace)
        assert ci["channels"]["mac_bytes"] == toleo["channels"]["mac_bytes"]
        assert ci["caches"]["mac"] == toleo["caches"]["mac"]
        assert ci["avg_read_latency_ns"] == pytest.approx(toleo["avg_read_latency_ns"])

    def test_unknown_op_rejected(self):
        e = NoneEngine(EngineConfig(protected_bytes=PAGE))
        with pytest.raises(ConfigError):
            e.process_access("Z", 0)
        with pytest.raises(AddressRangeError):
            e.process_access("R", PAGE)


_SHAPE = st.tuples(st.integers(1, 4), st.integers(1, 4))  # sets, ways


def random_trace(pages, seed, events, write_share):
    """``events`` accesses to uniform random blocks of ``pages`` pages, each
    a write with probability ``write_share``."""
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, pages * PAGE // BLOCK, size=events).tolist()
    return [("W" if write else "R", block * BLOCK)
            for write, block in zip((rng.random(events) < write_share).tolist(), blocks)]


@settings(max_examples=100, deadline=None)
@given(
    pages=st.integers(1, 6),
    local_pages=st.integers(0, 6),
    flat_entries=st.integers(1, 4),
    overflow=_SHAPE,
    mac=_SHAPE,
    counter_cache=_SHAPE,
    arity=st.integers(2, 8),
    root_counters=st.integers(1, 4),
    reset_exp=st.integers(2, 6),
    seed=st.integers(0, 2**16),
    events=st.integers(0, 300),
    write_share=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
def test_modes_agree_on_data_traffic(pages, local_pages, flat_entries, overflow, mac,
                                     counter_cache, arity, root_counters, reset_exp, seed,
                                     events, write_share):
    # every mode moves each event's block once on its channel; a stealth reset
    # re-encrypts its page, which only toleo does, so its blocks come off first
    config = EngineConfig(
        protected_bytes=pages * PAGE, local_bytes=local_pages * PAGE,
        flat_cache_entries=flat_entries,
        overflow_bytes=overflow[0] * overflow[1] * SLOT_BYTES, overflow_assoc=overflow[1],
        mac_cache_bytes=mac[0] * mac[1] * BLOCK, mac_assoc=mac[1],
        params=SecurityParams(reset_exp=reset_exp), seed=seed,
    )
    tree = CounterTreeConfig(
        protected_bytes=pages * PAGE, arity=arity, root_bytes=64 // arity * root_counters,
        counter_cache_bytes=counter_cache[0] * counter_cache[1] * 64,
        counter_cache_assoc=counter_cache[1],
    )
    engines = [NoneEngine(config), CiEngine(config), HostEngine(config), MerkleEngine(config, tree)]
    trace = random_trace(pages, seed, events, write_share)
    writes = [op for op, _ in trace].count("W")
    for engine in engines:
        summed = dict.fromkeys(("local_bytes", "pool_bytes", "mac_bytes", "device_bytes"), 0)
        for op, addr in trace:
            out = engine.process_access(op, addr)
            for key in summed:
                summed[key] += getattr(out, key)
            assert engine.mode != "toleo" or out.device_transactions <= 1
        s = engine.stats()
        ch = s["channels"]
        assert summed == ch
        assert (s["reads"], s["writes"]) == (len(trace) - writes, writes)
        data = ch["local_bytes"] + ch["pool_bytes"] - s["reencrypted_blocks"] * BLOCK
        assert data == len(trace) * BLOCK
        if engine.mode in ("none", "ci"):
            assert ch["device_bytes"] == 0


def mac_counts(engine) -> tuple[int, int, int]:
    return engine.mac_bytes, engine.mac_cache.hits, engine.mac_cache.misses


@settings(max_examples=100, deadline=None)
@given(
    pages=st.integers(1, 6),
    local_pages=st.integers(0, 6),
    flat_entries=st.integers(1, 4),
    mac=_SHAPE,
    counter_cache=_SHAPE,
    arity=st.integers(2, 8),
    root_counters=st.integers(1, 4),
    reset_exp=st.integers(1, 20),
    upper_bits=st.sampled_from([1, 37]),
    device_slots=st.one_of(st.none(), st.integers(0, 6)),
    seed=st.integers(0, 2**16),
    events=st.integers(0, 300),
    write_share=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
def test_modes_agree_on_metadata_after_every_event(pages, local_pages, flat_entries, mac,
                                                   counter_cache, arity, root_counters,
                                                   reset_exp, upper_bits, device_slots, seed,
                                                   events, write_share):
    # ci, toleo and merkle share the skeleton's MAC path, so after every
    # event ci and merkle have moved the same MAC bytes with the same hits
    # and misses, and so has toleo until a reset re-keys a page (which drops
    # its MAC lines) or the device halts it; until then each toleo write is
    # one device UPDATE; and merkle's device bytes are its node fetches and
    # dirty write-backs.  One upper-version bit and a few dynamic slots make
    # toleo halt
    params = SecurityParams(upper_bits=upper_bits, reset_exp=reset_exp)
    config = EngineConfig(
        protected_bytes=pages * PAGE, local_bytes=local_pages * PAGE,
        flat_cache_entries=flat_entries,
        mac_cache_bytes=mac[0] * mac[1] * BLOCK, mac_assoc=mac[1],
        device_capacity_bytes=None if device_slots is None else
        flat_array_bytes(pages * PAGE, G, params) + device_slots * SLOT_BYTES,
        params=params, seed=seed,
    )
    tree_config = CounterTreeConfig(
        protected_bytes=pages * PAGE, arity=arity, root_bytes=64 // arity * root_counters,
        counter_cache_bytes=counter_cache[0] * counter_cache[1] * 64,
        counter_cache_assoc=counter_cache[1],
    )
    ci, toleo, merkle = CiEngine(config), HostEngine(config), MerkleEngine(config, tree_config)
    tree = merkle.tree
    for op, addr in random_trace(pages, seed, events, write_share):
        ci.process_access(op, addr)
        merkle.process_access(op, addr)
        if not toleo.halted:
            try:
                toleo.process_access(op, addr)
            except SimulationHalted:
                pass
        assert mac_counts(merkle) == mac_counts(ci)
        if not (toleo.halted or toleo.resets):
            assert mac_counts(toleo) == mac_counts(ci)
        if not toleo.halted:
            assert toleo.device_updates == toleo.writes
        assert merkle.device_bytes == (tree.fetches + tree.dirty_writebacks) * 64


class TestMerkleEngine:
    def make(self, protected=4 * MIB, **tree_kw):
        cfg = EngineConfig(protected_bytes=protected)
        tree = CounterTreeConfig(protected_bytes=protected, **tree_kw) if tree_kw else None
        return MerkleEngine(cfg, tree)

    def test_cold_read_walks_and_charges_tree(self):
        e = self.make()
        depth = e.tree.depth
        out = charged(e, "process_access", "R", 0)
        assert e.tree.fetches == depth
        assert out.device_bytes == depth * 64
        assert out.latency_ns == pytest.approx(50 + depth * 50 + CIPHER_NS)
        assert e.first_access_fetches == depth

    def test_cold_pool_read_walks_on_the_pool_channel(self):
        # each level's node fetch is one more trip on the data's channel
        e = MerkleEngine(EngineConfig(protected_bytes=4 * MIB, local_bytes=0))
        depth = e.tree.depth
        out = charged(e, "process_access", "R", 0)
        assert (out.local_bytes, out.pool_bytes) == (0, BLOCK)
        assert e.tree.fetches == depth and out.device_bytes == depth * 64
        assert out.latency_ns == pytest.approx(145 + depth * 145 + CIPHER_NS)

    def test_warm_read_skips_tree(self):
        e = self.make()
        e.process_access("R", 0)
        fetches = e.tree.fetches
        out = charged(e, "process_access", "R", 0)
        assert e.tree.fetches == fetches
        assert out.device_bytes == 0
        assert out.latency_ns == pytest.approx(50 + CIPHER_NS)

    def test_tree_must_cover_protected_range(self):
        with pytest.raises(ConfigError):
            MerkleEngine(
                EngineConfig(protected_bytes=4 * MIB),
                CounterTreeConfig(protected_bytes=2 * MIB),
            )

    def test_writeback_traffic_lands_on_device_channel(self):
        e = self.make(counter_cache_bytes=2 * 64)
        for leaf in range(64):
            e.process_access("W", leaf * 8 * BLOCK)
        s = e.stats()
        fetch_bytes = s["tree"]["fetches"] * 64
        wb_bytes = s["tree"]["dirty_writebacks"] * 64
        assert s["tree"]["dirty_writebacks"] > 0
        assert s["channels"]["device_bytes"] == fetch_bytes + wb_bytes

    def test_stats_schema_adds_tree_section(self):
        e = self.make()
        e.process_access("R", 0)
        s = e.stats()
        assert set(s["tree"]) == {"depth", "fetches", "dirty_writebacks", "first_access_fetches"}
        base_keys = {
            "mode", "events", "reads", "writes", "channels", "caches",
            "resets", "reencrypted_blocks", "avg_read_latency_ns",
            "page_formats", "device", "tree",
        }
        assert set(s) == base_keys
        assert s["mode"] == "merkle"
