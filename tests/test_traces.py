import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshsim import traces
from freshsim.core import ConfigError, Geometry, SecurityParams
from freshsim.traces import (
    PATTERN_KINDS,
    PatternSpec,
    TraceParseError,
    encode_binary_trace,
    encode_text_trace,
    generate,
    load_trace,
    parse_binary_trace,
    parse_text_trace,
    parse_trace,
    save_trace,
)
from freshsim.version_store import FLAT, FULL, UNEVEN, VersionStore, flat_array_bytes

SAMPLE = [("R", 0x1040), ("W", 0), ("R", 0x40)]


class TestTextFormat:
    def test_encode_shape(self):
        assert encode_text_trace(SAMPLE) == "R 0x1040\nW 0x0\nR 0x40\n"

    def test_roundtrip(self):
        assert parse_text_trace(encode_text_trace(SAMPLE)) == SAMPLE

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n  R 0x40\n# tail\nW 0x80\n"
        assert parse_text_trace(text) == [("R", 0x40), ("W", 0x80)]

    def test_addresses_are_block_aligned(self):
        assert parse_text_trace("R 0x41\n") == [("R", 0x40)]

    def test_bad_op_carries_line_number(self):
        with pytest.raises(TraceParseError, match="line 2"):
            parse_text_trace("R 0x40\nX 0x80\n")

    def test_bad_address(self):
        with pytest.raises(TraceParseError, match="bad address"):
            parse_text_trace("R zz\n")
        with pytest.raises(TraceParseError):
            parse_text_trace("R\n")


class TestBinaryFormat:
    def test_record_is_nine_bytes(self):
        blob = encode_binary_trace(SAMPLE)
        assert len(blob) == 9 * len(SAMPLE)
        assert blob[0] == 0 and blob[9] == 1

    def test_roundtrip(self):
        assert parse_binary_trace(encode_binary_trace(SAMPLE)) == SAMPLE

    def test_length_must_divide(self):
        with pytest.raises(TraceParseError, match="multiple"):
            parse_binary_trace(b"\x00" * 10)

    def test_bad_opcode(self):
        with pytest.raises(TraceParseError, match="opcode"):
            parse_binary_trace(b"\x07" + b"\x00" * 8)

    def test_first_bad_opcode_named_by_byte_offset(self):
        record = b"\x00" * 8
        blob = b"\x01" + record + b"\x07" + record + b"\x02" + record
        with pytest.raises(TraceParseError, match="^byte offset 9: bad opcode 7$"):
            parse_binary_trace(blob)

    def test_top_address_is_block_aligned(self):
        blob = b"\x00" + (2**64 - 1).to_bytes(8, "little")
        assert parse_binary_trace(blob) == [("R", 2**64 - 64)]

    @pytest.mark.parametrize("event, index", [
        (("X", 64), 1), (("w", 64), 1), (("R", -64), 2), (("W", 2**64), 2), (("R", 64.5), 1),
    ])
    def test_unencodable_event_refused_by_index(self, tmp_path, event, index):
        events = [("R", 0), ("W", 64)]
        events.insert(index, event)
        text_refuses = event[1] != 2**64  # the text form has no upper address bound
        refusal = rf"^event {index}: {re.escape(repr(event))} "
        with pytest.raises(ConfigError, match=refusal):
            encode_binary_trace(events)
        if text_refuses:
            with pytest.raises(ConfigError, match=refusal):
                encode_text_trace(events)
        for name in ("t.bin", "t.trace") if text_refuses else ("t.bin",):
            path = tmp_path / name
            with pytest.raises(ConfigError):
                save_trace(events, str(path))
            assert not path.exists()


class TestAutoDetect:
    def test_detects_both_forms(self):
        assert parse_trace(encode_binary_trace(SAMPLE)) == SAMPLE
        assert parse_trace(encode_text_trace(SAMPLE).encode()) == SAMPLE
        assert parse_trace(encode_text_trace(SAMPLE)) == SAMPLE

    def test_garbage_rejected(self):
        with pytest.raises(TraceParseError):
            parse_trace(b"\xff\xfe binary junk")

    def test_file_roundtrip(self, tmp_path):
        for name in ("t.trace", "t.bin"):
            path = str(tmp_path / name)
            save_trace(SAMPLE, path)
            assert load_trace(path) == SAMPLE


class TestPatternSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PatternSpec(kind="nope", footprint_bytes=4096, op_count=1)
        with pytest.raises(ConfigError):
            PatternSpec(kind="zipfian", footprint_bytes=32, op_count=1)
        with pytest.raises(ConfigError):
            PatternSpec(kind="zipfian", footprint_bytes=4096, op_count=0)
        with pytest.raises(ConfigError):
            PatternSpec(kind="zipfian", footprint_bytes=4096, op_count=1, write_fraction=1.5)
        with pytest.raises(ConfigError):
            PatternSpec(kind="strided", footprint_bytes=4096, op_count=1, stride_bytes=32)
        with pytest.raises(ConfigError, match="zipf_skew"):
            PatternSpec(kind="zipfian", footprint_bytes=4096, op_count=1, zipf_skew=float("nan"))
        with pytest.raises(ConfigError, match="zipf_skew"):
            PatternSpec(kind="zipfian", footprint_bytes=4096, op_count=1, zipf_skew=float("inf"))
        with pytest.raises(ConfigError, match="hot_set_bytes"):
            PatternSpec(kind="hot_block", footprint_bytes=4096, op_count=1, hot_set_bytes=-4096)


@pytest.mark.parametrize("kind", PATTERN_KINDS)
def test_generators_are_deterministic_and_bounded(kind):
    # 10000 ops > one write sweep of the footprint, so every kind has a
    # seeded component (write_once_read_many is seedless until its read tail)
    spec = PatternSpec(kind=kind, footprint_bytes=64 * 4096, op_count=10000, seed=12)
    a = generate(spec)
    b = generate(spec)
    assert a == b
    assert len(a) == 10000
    assert generate(PatternSpec(kind=kind, footprint_bytes=64 * 4096,
                                op_count=10000, seed=13)) != a
    for op, addr in a:
        assert op in ("R", "W")
        assert addr % 64 == 0
        assert 0 <= addr < 64 * 4096
    # a numpy scalar would change engine arithmetic, so every parsed or
    # generated field is a plain str or int
    for events in (a, parse_text_trace(encode_text_trace(a)),
                   parse_binary_trace(encode_binary_trace(a))):
        assert events == a
        assert all(type(op) is str and type(addr) is int for op, addr in events)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(PATTERN_KINDS),
    pages=st.integers(min_value=1, max_value=32),
    ops=st.integers(min_value=1, max_value=500),
    wf=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_generator_alignment_property(kind, pages, ops, wf, seed):
    spec = PatternSpec(kind=kind, footprint_bytes=pages * 4096, op_count=ops,
                       write_fraction=wf, seed=seed)
    for op, addr in generate(spec):
        assert addr % 64 == 0
        assert 0 <= addr < spec.footprint_bytes
        # write_once_read_many derives its op split from the footprint instead
        if kind != "write_once_read_many":
            if wf == 1.0:
                assert op == "W"
            elif wf == 0.0:
                assert op == "R"


def reference_zipf_cdf(n_blocks, skew):
    """The whole normalised CDF at once, as the sliced search must reproduce."""
    ranks = np.arange(1, n_blocks + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -skew)
    cdf /= cdf[-1]
    return cdf


def reference_zipfian(spec):
    rng = np.random.default_rng(spec.seed)
    n_blocks = spec.footprint_bytes // 64
    draws = rng.random(spec.op_count)
    rank_idx = np.searchsorted(reference_zipf_cdf(n_blocks, spec.zipf_skew), draws, side="left")
    blocks = (rank_idx.astype(np.int64) * (0x9E3779B1 | 1)) % n_blocks
    ops = ["W" if w else "R" for w in traces._rw_flags(spec, rng)]
    return list(zip(ops, (blocks * 64).tolist()))


SLICE = traces._ZIPF_SLICE
# one block, either side of one slice, and several slices plus a remainder
ZIPF_BLOCKS = (1, SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 123)
# 3.7: the cumsum stops growing long before the last rank
ZIPF_SKEWS = (0, 0.5, 0.99, 1.2, 3.7)


@pytest.mark.parametrize("n_blocks", ZIPF_BLOCKS)
@pytest.mark.parametrize("skew", ZIPF_SKEWS)
def test_sliced_zipfian_equals_the_whole_cdf_search(n_blocks, skew):
    for seed, op_count in ((1, 1), (7, 997), (12, 5000)):
        spec = PatternSpec(kind="zipfian", footprint_bytes=n_blocks * 64, op_count=op_count,
                           write_fraction=0.3, zipf_skew=skew, seed=seed)
        assert generate(spec) == reference_zipfian(spec)
    # draws that sit on every CDF value and one ulp either side of it: a
    # sum rounded differently anywhere moves one of them to another rank
    cdf = reference_zipf_cdf(n_blocks, skew)
    draws = np.concatenate([cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 2)])
    np.random.default_rng(3).shuffle(draws)
    assert np.array_equal(traces._zipf_ranks(n_blocks, skew, draws),
                          np.searchsorted(cdf, draws, side="left"))


def test_zipfian_memory_does_not_grow_with_the_footprint():
    # a whole CDF over a 1 GiB footprint would hold 3 x 16M float64s (384 MiB)
    spec = PatternSpec(kind="zipfian", footprint_bytes=1 << 30, op_count=1000, seed=5)
    tracemalloc.start()
    try:
        events = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) == 1000
    assert peak < 32 << 20


def test_write_fraction_is_respected():
    spec = PatternSpec(kind="zipfian", footprint_bytes=1 << 20, op_count=20000,
                       write_fraction=0.25, seed=3)
    events = generate(spec)
    frac = sum(op == "W" for op, _ in events) / len(events)
    assert frac == pytest.approx(0.25, abs=0.02)


def test_strided_steps_by_stride():
    spec = PatternSpec(kind="strided", footprint_bytes=4096, op_count=20,
                       stride_bytes=256, write_fraction=0.0, seed=1)
    addrs = [addr for _, addr in generate(spec)]
    assert addrs[:4] == [0, 256, 512, 768]
    assert addrs[16] == 0  # wrapped


def test_write_once_read_many_shape():
    spec = PatternSpec(kind="write_once_read_many", footprint_bytes=4 * 4096,
                       op_count=1000, seed=2)
    events = generate(spec)
    writes = [addr for op, addr in events if op == "W"]
    assert len(writes) == 4 * 64
    assert writes == [i * 64 for i in range(4 * 64)]
    assert not any(op == "W" for op, _ in events[len(writes):])


def drive_store(events, pages, params=None):
    params = params or SecurityParams()
    store = VersionStore(
        protected_bytes=pages * 4096,
        device_capacity_bytes=flat_array_bytes(pages * 4096, Geometry(), params) + (1 << 20),
        rng=random.Random(5),
        params=params,
    )
    for op, addr in events:
        if op == "W":
            store.update_version(addr)
    return store


class TestFormatRegimes:
    """The generator shape guarantees the store's compression tiers rely on."""

    def test_page_uniform_writes_keep_pages_flat(self):
        spec = PatternSpec(kind="page_uniform", footprint_bytes=16 * 4096,
                           op_count=5000, write_fraction=0.7, seed=8)
        store = drive_store(generate(spec), 16)
        u = store.usage_stats()
        assert u["pages_uneven"] == 0 and u["pages_full"] == 0
        assert u["pages_flat"] == u["pages_touched"]

    def test_sequential_writes_keep_pages_flat(self):
        spec = PatternSpec(kind="sequential", footprint_bytes=8 * 4096,
                           op_count=3000, write_fraction=0.5, seed=8)
        store = drive_store(generate(spec), 8)
        assert store.usage_stats()["pages_uneven"] == 0
        assert store.usage_stats()["pages_full"] == 0

    def test_hot_block_drives_uneven_then_full(self):
        base = dict(kind="hot_block", footprint_bytes=4 * 4096, hot_set_bytes=4096,
                    write_fraction=1.0, seed=8)
        store = drive_store(generate(PatternSpec(op_count=64, **base)), 4)
        assert store.page_format(0) == UNEVEN
        store = drive_store(generate(PatternSpec(op_count=129, **base)), 4)
        assert store.page_format(0) == FULL

    def test_zipfian_mixes_formats(self):
        # light write density: the zipf head revisits blocks (uneven pages)
        # while the scattered tail leaves other pages flat
        spec = PatternSpec(kind="zipfian", footprint_bytes=64 * 4096,
                           op_count=3000, write_fraction=0.2, zipf_skew=0.99, seed=8)
        store = drive_store(generate(spec), 64)
        u = store.usage_stats()
        assert u["pages_flat"] > 0
        assert u["pages_uneven"] > 0

    def test_gaussian_concentrates_near_center(self):
        spec = PatternSpec(kind="gaussian_kv", footprint_bytes=64 * 4096,
                           op_count=10000, hot_set_bytes=2048, seed=8)
        addrs = [addr for _, addr in generate(spec)]
        center = 64 * 4096 / 2
        within = sum(abs(a - center) <= 3 * 2048 for a in addrs)
        assert within / len(addrs) > 0.95
