import os
import random
import re
import threading
import tracemalloc
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshsim import traces
from freshsim.core import ConfigError, Geometry, SecurityParams
from freshsim.traces import (
    PATTERN_KINDS,
    PatternSpec,
    Trace,
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
from helpers import pages_touched

SAMPLE = [("R", 0x1040), ("W", 0), ("R", 0x40)]


class TestTextFormat:
    def test_encode_shape(self):
        assert encode_text_trace(SAMPLE) == "R 0x1040\nW 0x0\nR 0x40\n"

    def test_roundtrip(self):
        assert list(parse_text_trace(encode_text_trace(SAMPLE))) == SAMPLE

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n  R 0x40\n# tail\nW 0x80\n"
        assert list(parse_text_trace(text)) == [("R", 0x40), ("W", 0x80)]

    def test_addresses_are_block_aligned(self):
        assert list(parse_text_trace("R 0x41\n")) == [("R", 0x40)]

    def test_bad_op_carries_line_number(self):
        with pytest.raises(TraceParseError, match="line 2"):
            parse_text_trace("R 0x40\nX 0x80\n")

    def test_bad_address(self):
        with pytest.raises(TraceParseError, match="bad address"):
            parse_text_trace("R zz\n")
        with pytest.raises(TraceParseError):
            parse_text_trace("R\n")

    def test_written_one_chunk_at_a_time(self, tmp_path, monkeypatch):
        # a file gets each chunk as it is joined, never the whole text
        monkeypatch.setattr(traces, "_TEXT_CHUNK", 2)
        trace = generate(PatternSpec(kind="zipfian", footprint_bytes=4096, op_count=5))
        chunks = list(traces.text_chunks(trace))
        assert [chunk.count("\n") for chunk in chunks] == [2, 2, 1]
        assert "".join(chunks) == encode_text_trace(trace)
        path = tmp_path / "t.trace"
        save_trace(trace, str(path))
        assert path.read_text() == encode_text_trace(trace)

    def test_address_beyond_64_bits_refused_by_line(self):
        # a parsed trace holds 64-bit addresses, as the binary form does
        with pytest.raises(TraceParseError,
                           match="^line 2: address 0x10000000000000000 does not fit 64 bits$"):
            parse_text_trace("R 0x40\nW 0x10000000000000000\n")


class TestBinaryFormat:
    def test_record_is_nine_bytes(self):
        blob = encode_binary_trace(SAMPLE)
        assert len(blob) == 9 * len(SAMPLE)
        assert blob[0] == 0 and blob[9] == 1

    def test_roundtrip(self):
        assert list(parse_binary_trace(encode_binary_trace(SAMPLE))) == SAMPLE

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
        assert list(parse_binary_trace(blob)) == [("R", 2**64 - 64)]

    def test_addresses_of_the_top_half_come_out_unsigned(self):
        blob = b"\x01" + (2**63).to_bytes(8, "little") + b"\x00" + (2**64 - 64).to_bytes(8, "little")
        pairs = list(parse_binary_trace(blob))
        assert pairs == [("W", 2**63), ("R", 2**64 - 64)]
        assert [type(addr) for _, addr in pairs] == [int, int]

    @pytest.mark.parametrize("event, index", [
        (("X", 64), 1), (("w", 64), 1), (("R", -64), 2), (("W", 2**64), 2), (("R", 64.5), 1),
        (("R", 64, 0), 1), (("W",), 2),
    ])
    def test_unencodable_event_refused_by_index(self, tmp_path, event, index):
        events = [("R", 0), ("W", 64)]
        events.insert(index, event)
        refusal = rf"^event {index}: {re.escape(repr(event))} "
        with pytest.raises(ConfigError, match=refusal):
            encode_binary_trace(events)
        with pytest.raises(ConfigError, match=refusal):
            encode_text_trace(events)
        for name in ("t.bin", "t.trace"):
            path = tmp_path / name
            with pytest.raises(ConfigError):
                save_trace(events, str(path))
            assert not path.exists()


class TestAutoDetect:
    def test_detects_both_forms(self):
        assert list(parse_trace(encode_binary_trace(SAMPLE))) == SAMPLE
        assert list(parse_trace(encode_text_trace(SAMPLE).encode())) == SAMPLE
        assert list(parse_trace(encode_text_trace(SAMPLE))) == SAMPLE

    def test_garbage_rejected(self):
        with pytest.raises(TraceParseError):
            parse_trace(b"\xff\xfe binary junk")

    def test_file_roundtrip(self, tmp_path):
        for name in ("t.trace", "t.bin"):
            path = str(tmp_path / name)
            save_trace(SAMPLE, path)
            assert list(load_trace(path)) == SAMPLE

    def test_empty_file_loads_as_an_empty_trace(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert load_trace(str(path)) == parse_trace(b"") == Trace("", np.zeros(0, np.uint64))

    @pytest.mark.parametrize("name", ["t.bin", "t.trace"])
    def test_pipe_is_read_whole(self, tmp_path, name):
        # a pipe has no size to preallocate from, so it is parsed as read
        trace = generate(PatternSpec(kind="zipfian", footprint_bytes=1 << 20, op_count=300))
        save_trace(trace, str(tmp_path / name))
        fifo = str(tmp_path / "fifo")
        os.mkfifo(fifo)

        def write():
            with open(fifo, "wb") as f:
                f.write((tmp_path / name).read_bytes())

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        assert load_trace(fifo) == trace
        writer.join(timeout=10)
        assert not writer.is_alive()


# an opcode byte, now and then a bad one
OPCODES = st.sampled_from((0, 1) * 6 + (2, 9, 255))


def expected_parse(records, tail):
    """What parsing the records and the trailing bytes must give: the pairs,
    or the message of the error it must raise."""
    if tail:
        size = 9 * len(records) + len(tail)
        return f"binary trace length {size} is not a multiple of the 9-byte record"
    for i, (op, _) in enumerate(records):
        if op > 1:
            return f"byte offset {9 * i}: bad opcode {op}"
    return [("RW"[op], addr & ~63) for op, addr in records]


LINES = st.sampled_from(["R 0x40", "W 0x1C0", " R 0x80\t", "# note", "", "\x1f", "X 0x0", "R zz"])
LINE_ENDS = st.sampled_from(["\n", "\r", "\r\n", "\n\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])


class TestStreamingLoad:
    """``load_trace`` reads a binary file one chunk of records at a time,
    and a text file one chunk of bytes at a time."""

    @settings(max_examples=300, deadline=None)
    @given(chunk=st.integers(1, 5), lines=st.lists(st.tuples(LINES, LINE_ENDS), max_size=10),
           last=LINES, tail=st.sampled_from([b"", b"\xe9"]))
    def test_streamed_text_load_equals_the_whole_parse(self, tmp_path_factory, chunk, lines,
                                                       last, tail):
        # lines, and "\r\n", split across chunks; a non-ASCII byte at the end
        # is refused before any bad line
        data = "".join(line + end for line, end in lines).encode() + last.encode() + tail
        path = tmp_path_factory.getbasetemp() / "streamed.txt"
        path.write_bytes(data)
        with patch.object(traces, "_TEXT_LOAD_CHUNK", chunk):
            try:
                expected = parse_trace(data)
            except TraceParseError as exc:
                with pytest.raises(TraceParseError, match=f"^{re.escape(str(exc))}$"):
                    load_trace(str(path))
            else:
                assert load_trace(str(path)) == expected

    @settings(max_examples=300, deadline=None)
    @given(chunk=st.integers(1, 4), first=st.sampled_from((0, 1)),
           records=st.lists(st.tuples(OPCODES, st.integers(0, 2**64 - 1)),
                            min_size=1, max_size=12),
           tail=st.binary(max_size=8))
    def test_streamed_load_equals_the_whole_buffer_parse(self, tmp_path_factory, chunk, first,
                                                         records, tail):
        # the first opcode is valid so that the file is taken as binary
        records[0] = (first, records[0][1])
        data = b"".join(bytes([op]) + addr.to_bytes(8, "little") for op, addr in records) + tail
        path = tmp_path_factory.getbasetemp() / "streamed.bin"
        path.write_bytes(data)
        expected = expected_parse(records, tail)
        with patch.object(traces, "_LOAD_CHUNK", chunk):
            if isinstance(expected, str):
                for parse in (lambda: parse_binary_trace(data), lambda: load_trace(str(path))):
                    with pytest.raises(TraceParseError, match=f"^{re.escape(expected)}$"):
                        parse()
            else:
                loaded = load_trace(str(path))
                assert loaded == parse_binary_trace(data)
                assert list(loaded) == expected

    def test_bad_opcode_in_a_later_chunk_named_by_its_offset(self, tmp_path, monkeypatch):
        monkeypatch.setattr(traces, "_LOAD_CHUNK", 2)
        data = bytearray(encode_binary_trace(SAMPLE * 3))
        data[9 * 5] = 3
        path = tmp_path / "t.bin"
        path.write_bytes(data)
        with pytest.raises(TraceParseError, match="^byte offset 45: bad opcode 3$"):
            load_trace(str(path))

    def test_file_shorter_than_its_size_refused(self, tmp_path, monkeypatch):
        # a file cut short between its stat and its last read would leave
        # the columns' tail unwritten
        path = tmp_path / "t.bin"
        path.write_bytes(encode_binary_trace(SAMPLE))
        real_fstat = traces.fstat
        monkeypatch.setattr(traces, "fstat", lambda fd: SimpleNamespace(
            st_mode=real_fstat(fd).st_mode, st_size=real_fstat(fd).st_size + 9))
        with pytest.raises(TraceParseError, match="shrank"):
            load_trace(str(path))

    def test_load_peaks_at_most_13_bytes_per_event(self, tmp_path):
        # the columns take 9 B per event; reading the whole file first (9 B
        # more) and building the op str from a copy of the opcodes peaked at
        # 19, and keeping the read buffer and the letters while the Trace was
        # built at 15
        path = str(tmp_path / "t.bin")
        save_trace(generate(PatternSpec(
            kind="zipfian", footprint_bytes=64 << 20, op_count=200_000, seed=7)), path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = load_trace(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == 200_000
        assert peak / len(trace) <= 13


TRACE = generate(PatternSpec(kind="zipfian", footprint_bytes=1 << 20, op_count=10000, seed=9))
PAIRS = list(TRACE)


class TestTrace:
    """The columnar form: columns at rest, plain pairs out."""

    @pytest.mark.parametrize("kind", PATTERN_KINDS)
    def test_every_producer_iterates_plain_pairs(self, tmp_path, kind):
        # a numpy scalar would change engine arithmetic, so every op is
        # exactly a str and every address exactly an int
        spec = PatternSpec(kind=kind, footprint_bytes=64 * 4096, op_count=len(TRACE), seed=4)
        generated = generate(spec)
        forms = [generated]
        for name in ("t.bin", "t.trace"):
            save_trace(generated, str(tmp_path / name))
            forms.append(load_trace(str(tmp_path / name)))
        for trace in forms:
            assert isinstance(trace, Trace)
            assert trace == generated
            assert trace.addrs.dtype == np.uint64 and len(trace.ops) == len(trace)
            pairs = list(trace)
            assert len(pairs) == len(trace)
            assert {type(op) for op, _ in pairs} == {str}
            assert {type(addr) for _, addr in pairs} == {int}

    @settings(max_examples=80, deadline=None)
    @given(start=st.none() | st.integers(-len(PAIRS) - 9, len(PAIRS) + 9),
           stop=st.none() | st.integers(-len(PAIRS) - 9, len(PAIRS) + 9),
           step=st.none() | st.integers(-5000, 5000).filter(bool))
    def test_slice_iterates_as_the_list_slice(self, start, stop, step):
        part = TRACE[start:stop:step]
        assert isinstance(part, Trace)
        assert list(part) == PAIRS[start:stop:step]
        assert len(part) == len(PAIRS[start:stop:step])

    def test_index_gives_a_plain_pair(self):
        for i in (0, 1, 5000, -1, -len(PAIRS)):
            op, addr = TRACE[i]
            assert (op, addr) == PAIRS[i] and type(op) is str and type(addr) is int
        with pytest.raises(IndexError):
            TRACE[len(PAIRS)]

    def test_equality_compares_the_columns(self):
        assert TRACE == TRACE[:] and not TRACE != TRACE[:]
        assert TRACE != TRACE[:-1]
        assert TRACE != Trace(TRACE.ops.translate({ord("R"): "W", ord("W"): "R"}), TRACE.addrs)
        assert TRACE != Trace(TRACE.ops, TRACE.addrs + np.uint64(64))
        assert TRACE != PAIRS  # a list of pairs is not a Trace

    @pytest.mark.parametrize("ops, addrs", [
        ("RX", np.zeros(2, np.uint64)),
        ("Rw", np.zeros(2, np.uint64)),
        ("RW", np.zeros(2, np.int64)),
        ("RW", np.zeros(3, np.uint64)),
        ("RW", np.zeros((2, 1), np.uint64)),
        # letters outside ASCII, one that encodes to no UTF-8, and lowercase
        ("\uff32", np.zeros(1, np.uint64)),
        ("\u00e9", np.zeros(1, np.uint64)),
        ("R\ud800", np.zeros(2, np.uint64)),
        ("r", np.zeros(1, np.uint64)),
        ("RWR", np.zeros(2, np.uint64)),
        ("RW", np.zeros(2, np.float64)),
    ])
    def test_bad_columns_refused(self, ops, addrs):
        with pytest.raises(ValueError, match="Trace needs"):
            Trace(ops, addrs)

    def test_encoders_read_the_columns_as_the_pairs(self):
        assert encode_binary_trace(TRACE) == encode_binary_trace(PAIRS)
        assert encode_text_trace(TRACE) == encode_text_trace(PAIRS)
        empty = TRACE[:0]
        assert encode_binary_trace(empty) == b"" and encode_text_trace(empty) == ""

    def test_parsed_binary_trace_holds_at_most_16_bytes_per_event(self):
        # a list of (str, int) tuples holds about 96 B per event
        data = encode_binary_trace(generate(PatternSpec(
            kind="zipfian", footprint_bytes=64 << 20, op_count=100_000, seed=7)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = parse_binary_trace(data)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == 100_000
        assert held / len(trace) <= 16


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

    def test_footprint_must_stay_below_2_47_blocks(self):
        # the zipfian scatter is exact in uint64 only below 2**47 blocks
        with pytest.raises(ConfigError, match="footprint_bytes"):
            PatternSpec(kind="zipfian", footprint_bytes=2**53, op_count=1)
        PatternSpec(kind="zipfian", footprint_bytes=2**53 - 64, op_count=1)

    @pytest.mark.parametrize("key, value", [("footprint_bytes", 65632), ("footprint_bytes", 4097),
                                            ("stride_bytes", 100), ("stride_bytes", 65)])
    def test_sizes_must_be_whole_blocks(self, key, value):
        # either used to be floored to whole blocks without a word
        doc = {"kind": "strided", "footprint_bytes": 65536, "op_count": 1, key: value}
        with pytest.raises(ConfigError,
                           match=rf"^{key} must lie in \[64, .* and be a multiple of 64, got {value}$"):
            PatternSpec(**doc)


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
    ops = "".join("W" if w else "R" for w in traces._rw_flags(spec, rng))
    return Trace(ops, (blocks * 64).astype(np.uint64))


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


def test_zipfian_rebuilds_only_the_slices_that_hold_a_draw(monkeypatch):
    built = []
    build = traces._zipf_slice

    def counted(start, *args):
        built.append(start)
        return build(start, *args)

    monkeypatch.setattr(traces, "_zipf_slice", counted)
    n_blocks = 256 * SLICE  # a 1 GiB footprint
    ranks = traces._zipf_ranks(n_blocks, 0.99, np.random.default_rng(5).random(1000))
    holding = np.unique(ranks // SLICE) * SLICE
    assert len(holding) < 256
    # every slice once for the running totals, then only those holding a draw
    assert built == list(range(0, n_blocks, SLICE)) + holding.tolist()


@pytest.mark.parametrize("n_blocks", [3 * 2**31, 2**47 - 1])
def test_zipf_scatter_is_exact_where_int64_products_wrap(n_blocks):
    # rank * multiplier passes 2**63 here: an int64 product wraps above
    # 3,474,701,543 blocks and sends rank n - 1 of 3 * 2**31 to 5935498831
    ranks = np.array([0, 1, 2**31, n_blocks // 2, n_blocks - 2, n_blocks - 1])
    want = [rank * traces._ZIPF_MULT % n_blocks for rank in ranks.tolist()]
    assert traces._zipf_scatter(ranks, n_blocks).tolist() == want
    if n_blocks == 3 * 2**31:
        assert want[-1] == 3788015183


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
        assert store.pages_uneven == 0 and store.pages_full == 0
        assert store.pages_flat == pages_touched(store)

    def test_sequential_writes_keep_pages_flat(self):
        spec = PatternSpec(kind="sequential", footprint_bytes=8 * 4096,
                           op_count=3000, write_fraction=0.5, seed=8)
        store = drive_store(generate(spec), 8)
        assert store.pages_uneven == 0
        assert store.pages_full == 0

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
        assert store.pages_flat > 0
        assert store.pages_uneven > 0

    def test_gaussian_concentrates_near_center(self):
        spec = PatternSpec(kind="gaussian_kv", footprint_bytes=64 * 4096,
                           op_count=10000, hot_set_bytes=2048, seed=8)
        addrs = [addr for _, addr in generate(spec)]
        center = 64 * 4096 / 2
        within = sum(abs(a - center) <= 3 * 2048 for a in addrs)
        assert within / len(addrs) > 0.95
