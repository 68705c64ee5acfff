"""Traces, their file forms, and deterministic synthetic generators.

A trace is a ``Trace``: two columns, ``ops``, an ASCII str of "R" and "W"
(1 B per event), and ``addrs``, a uint64 numpy array of block-aligned
addresses (8 B per event; the low 6 bits are dropped on parse and
generation).  It iterates plain ``(op, addr)`` pairs, a str and a Python
int, making each int only as iteration reaches it, so a trace never sits
in memory as Python objects and no numpy scalar reaches an engine.  Two
interchangeable file forms exist:

* text: one event per line, ``R 0x1040`` / ``W 0x1040``; ``#`` comments and
  blank lines are ignored.  Lines end where ``str.splitlines`` ends them.
* binary: 9-byte records, one opcode byte (0 read, 1 write) followed by the
  address as a 64-bit little-endian integer; ``save_trace`` writes this
  form to a ``.bin`` path and text to any other.  ``load_trace`` reads a
  binary file one fixed chunk of records at a time into the preallocated
  columns, and a text file one chunk of bytes at a time, so the whole file
  image is never held.

Generators are pure functions of their PatternSpec, so the same spec always
yields a byte-identical trace.  Two patterns carry shape guarantees the
version store relies on in tests: ``sequential`` and ``page_uniform`` issue
writes in strict block order (wrapping), so no block is ever written twice
within one sweep and every page stays flat; ``hot_block`` hammers one block
per page to force uneven and full entries.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from itertools import starmap
from math import inf
from operator import index
from os import fstat
from stat import S_ISREG

import numpy as np

from .core import MAX_ARRAY_ITEMS, ConfigError, SimError, bounded, check_fields

BLOCK = 64
_ALIGN = ~(BLOCK - 1)
# one binary record: opcode byte, then the little-endian 64-bit address
_RECORD = np.dtype([("op", "u1"), ("addr", "<u8")])
_OPS = ("R", "W")  # indexed by opcode
# the first byte of a binary trace, which never begins a text one
_BINARY_LEADS = (b"\x00", b"\x01")
_ADDR_MASK = ~np.uint64(BLOCK - 1)
# bytes.translate tables between opcode bytes (0/1, or bools) and op letters
_OPCODE_TO_OP = bytes.maketrans(b"\x00\x01", b"RW")
_OP_TO_OPCODE = bytes.maketrans(b"RW", b"\x00\x01")
# ranks per slice of the zipfian CDF: generation holds one slice at a time,
# so its memory does not grow with the footprint
_ZIPF_SLICE = 1 << 16
# lines per chunk of the text form: encoding joins one chunk at a time
_TEXT_CHUNK = 1 << 16
# records per read of a binary file: loading holds one chunk of the file
_LOAD_CHUNK = 1 << 16
# bytes per read of a text file: loading holds about one chunk of its lines
_TEXT_LOAD_CHUNK = 1 << 20
# the ASCII characters that end a line for str.splitlines ("\r\n" ends one)
_EOLS = "\n\r\x0b\x0c\x1c\x1d\x1e"
# fixed odd multiplier that scatters zipfian ranks over the footprint
_ZIPF_MULT = 0x9E3779B1
# the scatter is exact in uint64 below this many blocks (see _zipf_scatter)
_MAX_BLOCKS = 1 << 47


class TraceParseError(SimError):
    """Malformed trace input; the message carries the line or byte offset."""


class Trace:
    """A trace as two columns: ``ops``, a str of "R"/"W", and ``addrs``, a
    uint64 array of the same length.

    ``len``, slicing (which gives a Trace) and indexing (which gives a pair)
    work as on a list of pairs; iteration yields plain ``(str, int)`` pairs.
    Two Traces are equal when their columns are.
    """

    __slots__ = ("ops", "addrs")

    def __init__(self, ops: str, addrs: np.ndarray) -> None:
        # isascii first: encode would raise on a lone surrogate
        if not (ops.isascii() and not ops.encode().translate(None, b"RW")
                and addrs.dtype == np.uint64 and addrs.shape == (len(ops),)):
            raise ValueError("a Trace needs a str of R/W ops and a uint64 address "
                             "array of the same length")
        self.ops = ops
        self.addrs = addrs

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        # one-character strs are cached by CPython, so the op column makes no
        # object per event; the memoryview makes each address int only as
        # iteration reaches it
        return zip(self.ops, memoryview(self.addrs))

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Trace(self.ops[key], self.addrs[key])
        return self.ops[key], int(self.addrs[key])

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return self.ops == other.ops and np.array_equal(self.addrs, other.addrs)

    __hash__ = None


def _trace(writes: np.ndarray, addrs: np.ndarray) -> Trace:
    """A Trace from one-byte write flags (bools or 0/1 opcodes) and
    non-negative int64 or uint64 addresses."""
    return Trace(writes.tobytes().translate(_OPCODE_TO_OP).decode("ascii"),
                 addrs.view(np.uint64))


@dataclass(frozen=True)
class PatternSpec:
    """Parameters of one synthetic trace.

    ``write_fraction`` splits ops between reads and writes; the locality
    fields only matter to the kinds that read them (``zipf_skew`` for
    zipfian, ``stride_bytes`` for strided, ``hot_set_bytes`` for the hot
    region of hot_block and the spread of gaussian_kv).
    """

    kind: str
    footprint_bytes: int = bounded(low=BLOCK, high=(_MAX_BLOCKS - 1) * BLOCK, unit=BLOCK)
    op_count: int = bounded(low=1, high=MAX_ARRAY_ITEMS)  # items per event column
    write_fraction: float = bounded(0.5, high=1)
    zipf_skew: float = bounded(0.99, low=-inf)
    stride_bytes: int = bounded(256, low=BLOCK, high=(1 << 63) - BLOCK, unit=BLOCK)  # an int64
    hot_set_bytes: int = bounded(0)  # 0: kind-specific default
    seed: int = bounded(1)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind not in PATTERN_KINDS:
            raise ConfigError(f"unknown pattern kind {self.kind!r}")


# -- file formats ---------------------------------------------------------------


def parse_text_trace(text: str) -> Trace:
    return _parse_text((text,))


def _parse_text(pieces) -> Trace:
    """The Trace of the text form given as strs that each end at a line end
    (the last need not), so that each splits into the lines the whole does."""
    ops, addrs, lineno = [], array("Q"), 0
    for piece in pieces:
        letters, lineno = _parse_lines(piece, lineno, addrs)
        ops.append(letters)
    return Trace("".join(ops), np.frombuffer(addrs, np.uint64))


def _parse_lines(text: str, lineno: int, addrs: array) -> tuple[str, int]:
    """Append the addresses of the events in ``text``, whose lines follow
    line ``lineno``, to ``addrs``: their op letters, and the number of the
    last line."""
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=lineno + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in _OPS:
            raise TraceParseError(f"line {lineno}: expected 'R 0x<addr>' or 'W 0x<addr>', got {raw!r}")
        try:
            addr = int(parts[1], 16)
        except ValueError as exc:
            raise TraceParseError(f"line {lineno}: bad address {parts[1]!r}") from exc
        if addr < 0:
            raise TraceParseError(f"line {lineno}: negative address")
        if addr >> 64:
            raise TraceParseError(f"line {lineno}: address {parts[1]} does not fit 64 bits")
        ops.append(parts[0])
        addrs.append(addr & _ALIGN)
    return "".join(ops), lineno


def _line_pieces(chunks):
    """The strs ``chunks`` regrouped into pieces that end at a line end
    (the last need not), so a line never spans two pieces."""
    pending = []
    for chunk in chunks:
        # a trailing "\r" may pair with a "\n" that begins the next chunk
        body = chunk[:-1] if chunk.endswith("\r") else chunk
        cut = max(map(body.rfind, _EOLS)) + 1
        if cut:
            pending.append(chunk[:cut])
            yield "".join(pending)
            pending = [chunk[cut:]]
        else:  # a long line goes on: joined once it ends, not once per chunk
            pending.append(chunk)
    yield "".join(pending)


def _binary_columns(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Empty op-letter and address columns for ``size`` bytes of records."""
    n, part = divmod(size, _RECORD.itemsize)
    if part:
        raise TraceParseError(
            f"binary trace length {size} is not a multiple of the 9-byte record"
        )
    return np.empty(n, np.uint8), np.empty(n, np.uint64)


def _decode_records(data, start: int, letters: np.ndarray, addrs: np.ndarray) -> None:
    """Fill the columns from index ``start`` with the whole records in
    ``data``, refusing the first bad opcode by its byte offset in the trace."""
    records = np.frombuffer(data, _RECORD)
    opcodes = records["op"]
    if opcodes.max(initial=0) > 1:
        first = np.flatnonzero(opcodes > 1)[0]
        raise TraceParseError(f"byte offset {9 * (start + first)}: bad opcode {opcodes[first]}")
    end = start + len(records)
    # opcode 0 is "R" and 1 is "W", so the letter is "R" + opcode * ("W" - "R")
    np.multiply(opcodes, ord("W") - ord("R"), out=letters[start:end])
    letters[start:end] += ord("R")
    np.bitwise_and(records["addr"], _ADDR_MASK, out=addrs[start:end])


def parse_binary_trace(data: bytes) -> Trace:
    letters, addrs = _binary_columns(len(data))
    _decode_records(data, 0, letters, addrs)
    return Trace(str(letters, "ascii"), addrs)


def _read_records(f, letters: np.ndarray, addrs: np.ndarray) -> None:
    """Fill the columns from the binary file ``f``, read one chunk of
    records at a time into one reused buffer, which is freed on return."""
    buf = memoryview(bytearray(_LOAD_CHUNK * _RECORD.itemsize))
    for start in range(0, len(addrs), _LOAD_CHUNK):
        chunk = buf[:min(_LOAD_CHUNK, len(addrs) - start) * _RECORD.itemsize]
        if f.readinto(chunk) != len(chunk):
            raise TraceParseError("binary trace file shrank while it was read")
        _decode_records(chunk, start, letters, addrs)


def _load_binary(f, size: int) -> Trace:
    """The Trace of the ``size``-byte binary file ``f``."""
    letters, addrs = _binary_columns(size)
    _read_records(f, letters, addrs)
    ops = str(letters, "ascii")
    del letters  # so the op column is held twice at most: the str and Trace's check copy
    return Trace(ops, addrs)


def parse_trace(data: bytes | str) -> Trace:
    """Parse either format; binary records start with 0x00/0x01 which never
    begins a text trace."""
    if isinstance(data, str):
        return parse_text_trace(data)
    if data[:1] in _BINARY_LEADS:
        return parse_binary_trace(data)
    return parse_text_trace(_ascii(data))


def _ascii(data: bytes) -> str:
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise TraceParseError("trace is neither 9-byte records nor ASCII text") from exc


def _load_text(f) -> Trace:
    """The Trace of the text file ``f``, read one chunk at a time.  A
    non-ASCII byte anywhere in it is refused before any bad line, as a
    whole read refuses it."""
    chunks = map(_ascii, iter(partial(f.read, _TEXT_LOAD_CHUNK), b""))
    try:
        return _parse_text(_line_pieces(chunks))
    except TraceParseError:
        for _ in chunks:
            pass
        raise


def _as_trace(events) -> Trace:
    """``events``, a Trace or any sequence of (op, addr) pairs, as a Trace.
    Of a sequence, an event that is not a pair, an op other than R or W, or
    an address that is not an integer (``operator.index``) in [0, 2**64),
    is refused by the index of the first event that has one; a Trace is
    valid as built."""
    if isinstance(events, Trace):
        return events
    n = len(events)
    try:
        return _trace(np.fromiter((_OPS.index(op) for op, _ in events), np.uint8, n),
                      np.fromiter((index(addr) for _, addr in events), np.uint64, n))
    except (ValueError, OverflowError, TypeError):
        for i, event in enumerate(events):
            try:
                op, addr = event
                if op in _OPS and 0 <= index(addr) < 1 << 64:
                    continue
            except (ValueError, TypeError):
                pass
            raise ConfigError(f"event {i}: {event!r} is not an (op, addr) pair with op R or W "
                              "and addr an integer in [0, 2**64)") from None
        raise


def text_chunks(events):
    """The text form of ``events`` (as ``_as_trace`` takes them), as an
    iterator of strs of one chunk of lines each; a bad event is refused
    before any chunk is made."""
    events = _as_trace(events)
    # one chunk's line strs are alive at a time, not one str per event
    line = "{} 0x{:X}\n".format
    return ("".join(starmap(line, events[i:i + _TEXT_CHUNK]))
            for i in range(0, len(events), _TEXT_CHUNK))


def encode_text_trace(events) -> str:
    """The text form of ``events`` (see ``text_chunks``)."""
    return "".join(text_chunks(events))


def encode_binary_trace(events) -> bytes:
    """The 9-byte record form of ``events`` (as ``_as_trace`` takes them),
    taken from the Trace's columns."""
    events = _as_trace(events)
    records = np.empty(len(events), dtype=_RECORD)
    records["op"] = np.frombuffer(events.ops.encode("ascii").translate(_OP_TO_OPCODE), np.uint8)
    records["addr"] = events.addrs
    return records.tobytes()


def load_trace(path: str) -> Trace:
    """The trace in the file at ``path``, in either form, as ``parse_trace``
    parses it.  A regular file is read one chunk at a time; a pipe is read
    whole."""
    with open(path, "rb") as f:
        st = fstat(f.fileno())
        if not S_ISREG(st.st_mode):
            return parse_trace(f.read())
        if f.peek(1)[:1] in _BINARY_LEADS:
            return _load_binary(f, st.st_size)
        return _load_text(f)


def save_trace(events, path: str) -> None:
    """Write the binary form to a ``.bin`` path and text, one chunk at a time,
    to any other; a trace that cannot be encoded leaves no file."""
    binary = path.endswith(".bin")
    data = [encode_binary_trace(events)] if binary else text_chunks(events)
    with open(path, "wb" if binary else "w") as f:
        f.writelines(data)


# -- generators ------------------------------------------------------------------


def _rw_flags(spec: PatternSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.write_fraction >= 1.0:
        return np.ones(spec.op_count, dtype=bool)
    if spec.write_fraction <= 0.0:
        return np.zeros(spec.op_count, dtype=bool)
    return rng.random(spec.op_count) < spec.write_fraction


def _blocks(spec: PatternSpec) -> int:
    return spec.footprint_bytes // BLOCK


def _gen_sweep(spec: PatternSpec, sequential_reads: bool, span: int = 0,
               step: int = BLOCK) -> Trace:
    # writes step a cursor of ``step`` bytes over ``span`` positions (0: every
    # block), wrapping; by default each block is written at most once within
    # a sweep, so every page stays flat
    rng = np.random.default_rng(spec.seed)
    writes = _rw_flags(spec, rng)
    n_blocks = _blocks(spec)
    addrs = np.empty(spec.op_count, dtype=np.int64)
    w_idx = np.flatnonzero(writes)
    addrs[w_idx] = (np.arange(len(w_idx), dtype=np.int64) % (span or n_blocks)) * step
    r_idx = np.flatnonzero(~writes)
    if len(r_idx):
        if sequential_reads:
            addrs[r_idx] = (np.arange(len(r_idx), dtype=np.int64) % n_blocks) * BLOCK
        else:
            addrs[r_idx] = rng.integers(0, n_blocks, len(r_idx)) * BLOCK
    return _trace(writes, addrs)


def gen_sequential(spec: PatternSpec) -> Trace:
    """Stream through the footprint; reads and writes each keep their own cursor."""
    return _gen_sweep(spec, sequential_reads=True)


def gen_page_uniform(spec: PatternSpec) -> Trace:
    """Uniform page-by-page sweeps of writes with uniformly random reads."""
    return _gen_sweep(spec, sequential_reads=False)


def gen_write_once_read_many(spec: PatternSpec) -> Trace:
    """Populate each block once, then read the footprint uniformly forever."""
    rng = np.random.default_rng(spec.seed)
    n_blocks = _blocks(spec)
    n_writes = min(n_blocks, spec.op_count)
    writes = np.zeros(spec.op_count, dtype=bool)
    writes[:n_writes] = True
    addrs = np.empty(spec.op_count, dtype=np.int64)
    addrs[:n_writes] = np.arange(n_writes, dtype=np.int64) * BLOCK
    rest = spec.op_count - n_writes
    if rest:
        addrs[n_writes:] = rng.integers(0, n_blocks, rest) * BLOCK
    return _trace(writes, addrs)


def gen_hot_block(spec: PatternSpec) -> Trace:
    """Hammer the first block of every hot page, round-robin.

    The hot region is the first ``hot_set_bytes`` of the footprint (whole
    footprint when 0).  Reads fall uniformly over the footprint.
    """
    hot_bytes = min(spec.hot_set_bytes or spec.footprint_bytes, spec.footprint_bytes)
    return _gen_sweep(spec, sequential_reads=False, span=max(1, hot_bytes // 4096), step=4096)


def _zipf_slice(start: int, n_blocks: int, skew: float, carry) -> np.ndarray:
    """The unnormalised CDF over the slice of ranks from ``start + 1``:
    ``cum[i]`` is the sum of ``rank ** -skew`` over ranks 1 to
    ``start + i + 1``, given ``carry``, that sum up to rank ``start``.  The
    carry is added into the slice's first weight before its cumsum, so every
    addition happens in the order of one ``np.cumsum`` over all ranks and
    the sums are bit-identical to it."""
    cum = np.arange(start + 1, min(start + _ZIPF_SLICE, n_blocks) + 1, dtype=np.float64)
    cum **= -skew
    cum[0] += carry
    return np.cumsum(cum, out=cum)


def _zipf_ranks(n_blocks: int, skew: float, draws: np.ndarray) -> np.ndarray:
    """Each draw's rank index: the first rank whose normalised CDF value is at
    least the draw, exactly as ``np.searchsorted(cdf, draws, side="left")``
    over the whole CDF, in memory of O(len(draws) + one slice + one float
    per slice).

    A first pass keeps each slice's running total; the second rebuilds only
    the slices that some draw resolves in."""
    starts = range(0, n_blocks, _ZIPF_SLICE)
    ends = np.empty(len(starts))
    carry = 0.0
    for k, start in enumerate(starts):
        carry = ends[k] = _zipf_slice(start, n_blocks, skew, carry)[-1]
    total = ends[-1]
    order = np.argsort(draws)
    ordered = draws[order]
    # the draws up to a slice's last normalised value resolve in it; the
    # last slice takes every draw that remains
    his = np.searchsorted(ordered, ends / total, side="right")
    his[-1] = len(draws)
    los = np.concatenate(([0], his[:-1]))
    ranks = np.empty(len(draws), dtype=np.intp)
    for k in np.flatnonzero(his > los).tolist():
        start, lo, hi = starts[k], los[k], his[k]
        cum = _zipf_slice(start, n_blocks, skew, ends[k - 1] if k else 0.0)
        cum /= total
        ranks[order[lo:hi]] = np.searchsorted(cum, ordered[lo:hi], side="left") + start
    return ranks


def _zipf_scatter(rank_idx: np.ndarray, n_blocks: int) -> np.ndarray:
    """``rank_idx * _ZIPF_MULT % n_blocks``, exact in uint64 while n_blocks
    is below 2**47: the multiplier goes in as two 16-bit halves, so no
    intermediate reaches 2**64."""
    hi, lo = (np.uint64(half) for half in divmod(_ZIPF_MULT, 1 << 16))
    n = np.uint64(n_blocks)
    ranks = rank_idx.astype(np.uint64)
    return (((ranks * hi % n) << np.uint64(16)) + ranks * lo) % n


def gen_zipfian(spec: PatternSpec) -> Trace:
    """Zipf-distributed block popularity, ranks scattered over the footprint.

    Memory is O(op_count): the CDF is built one slice of ranks at a time.
    Time is still O(footprint).
    """
    rng = np.random.default_rng(spec.seed)
    n_blocks = _blocks(spec)
    rank_idx = _zipf_ranks(n_blocks, spec.zipf_skew, rng.random(spec.op_count))
    # the scatter sends neighboring ranks to distant blocks, so the hot set
    # spans many pages and the store sees mixed formats
    blocks = _zipf_scatter(rank_idx, n_blocks)
    return _trace(_rw_flags(spec, rng), blocks * np.uint64(BLOCK))


def gen_gaussian_kv(spec: PatternSpec) -> Trace:
    """Gaussian key popularity around the footprint center (key-value style).

    ``hot_set_bytes`` sets the standard deviation (footprint/8 when 0).
    """
    rng = np.random.default_rng(spec.seed)
    n_blocks = _blocks(spec)
    sigma_blocks = max(1, (spec.hot_set_bytes or spec.footprint_bytes // 8) // BLOCK)
    raw = rng.normal(loc=n_blocks / 2, scale=sigma_blocks, size=spec.op_count)
    blocks = np.clip(np.rint(raw), 0, n_blocks - 1).astype(np.int64)
    return _trace(_rw_flags(spec, rng), blocks * BLOCK)


def gen_strided(spec: PatternSpec) -> Trace:
    """Constant-stride walk over the footprint, wrapping at the end."""
    rng = np.random.default_rng(spec.seed)
    addrs = (np.arange(spec.op_count, dtype=np.int64) * spec.stride_bytes) % spec.footprint_bytes
    return _trace(_rw_flags(spec, rng), addrs)


_GENERATORS = {
    "sequential": gen_sequential,
    "page_uniform": gen_page_uniform,
    "write_once_read_many": gen_write_once_read_many,
    "hot_block": gen_hot_block,
    "zipfian": gen_zipfian,
    "gaussian_kv": gen_gaussian_kv,
    "strided": gen_strided,
}
PATTERN_KINDS = tuple(_GENERATORS)


def generate(spec: PatternSpec) -> Trace:
    try:
        return _GENERATORS[spec.kind](spec)
    except MemoryError:
        raise ConfigError(f"op_count {spec.op_count} over footprint_bytes {spec.footprint_bytes} "
                          "needs more memory than the host grants") from None
