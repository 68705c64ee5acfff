"""Trace events, file formats, and deterministic synthetic generators.

An event is an (op, address) pair, op "R" or "W", address block-aligned
(the low 6 bits are dropped on parse and generation).  Two interchangeable
file forms exist:

* text: one event per line, ``R 0x1040`` / ``W 0x1040``; ``#`` comments and
  blank lines are ignored.
* binary: 9-byte records, one opcode byte (0 read, 1 write) followed by the
  address as a 64-bit little-endian integer.

Generators are pure functions of their PatternSpec, so the same spec always
yields a byte-identical trace.  Two patterns carry shape guarantees the
version store relies on in tests: ``sequential`` and ``page_uniform`` issue
writes in strict block order (wrapping), so no block is ever written twice
within one sweep and every page stays flat; ``hot_block`` hammers one block
per page to force uneven and full entries.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .core import ConfigError, SimError

BLOCK = 64
_ALIGN = ~(BLOCK - 1)


class TraceParseError(SimError):
    """Malformed trace input; the message carries the line or byte offset."""


class TraceEvent(NamedTuple):
    op: str  # "R" or "W"
    addr: int

    @property
    def is_write(self) -> bool:
        return self.op == "W"


PATTERN_KINDS = (
    "sequential",
    "page_uniform",
    "write_once_read_many",
    "hot_block",
    "zipfian",
    "gaussian_kv",
    "strided",
)


@dataclass(frozen=True)
class PatternSpec:
    """Parameters of one synthetic trace.

    ``write_fraction`` splits ops between reads and writes; the locality
    fields only matter to the kinds that read them (``zipf_skew`` for
    zipfian, ``stride_bytes`` for strided, ``hot_set_bytes`` for the hot
    region of hot_block and the spread of gaussian_kv).
    """

    kind: str
    footprint_bytes: int
    op_count: int
    write_fraction: float = 0.5
    zipf_skew: float = 0.99
    stride_bytes: int = 256
    hot_set_bytes: int = 0  # 0: kind-specific default
    seed: int = 1

    def __post_init__(self) -> None:
        if self.kind not in PATTERN_KINDS:
            raise ConfigError(f"unknown pattern kind {self.kind!r}")
        if self.footprint_bytes < BLOCK:
            raise ConfigError("footprint must cover at least one block")
        if self.op_count <= 0:
            raise ConfigError("op_count must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("write_fraction must lie in [0, 1]")
        if self.stride_bytes < BLOCK:
            raise ConfigError("stride must be at least one block")
        if self.seed < 0:
            raise ConfigError(f"pattern seed must be non-negative, got {self.seed}")


# -- file formats ---------------------------------------------------------------


def parse_text_trace(text: str) -> list[TraceEvent]:
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("R", "W"):
            raise TraceParseError(f"line {lineno}: expected 'R 0x<addr>' or 'W 0x<addr>', got {raw!r}")
        try:
            addr = int(parts[1], 16)
        except ValueError as exc:
            raise TraceParseError(f"line {lineno}: bad address {parts[1]!r}") from exc
        if addr < 0:
            raise TraceParseError(f"line {lineno}: negative address")
        events.append(TraceEvent(parts[0], addr & _ALIGN))
    return events


def parse_binary_trace(data: bytes) -> list[TraceEvent]:
    if len(data) % 9:
        raise TraceParseError(
            f"binary trace length {len(data)} is not a multiple of the 9-byte record"
        )
    events = []
    for off in range(0, len(data), 9):
        opcode = data[off]
        if opcode not in (0, 1):
            raise TraceParseError(f"byte offset {off}: bad opcode {opcode}")
        (addr,) = struct.unpack_from("<Q", data, off + 1)
        events.append(TraceEvent("W" if opcode else "R", addr & _ALIGN))
    return events


def parse_trace(data: bytes | str) -> list[TraceEvent]:
    """Parse either format; binary records start with 0x00/0x01 which never
    begins a text trace."""
    if isinstance(data, str):
        return parse_text_trace(data)
    if data[:1] in (b"\x00", b"\x01"):
        return parse_binary_trace(data)
    try:
        return parse_text_trace(data.decode("ascii"))
    except UnicodeDecodeError as exc:
        raise TraceParseError("trace is neither 9-byte records nor ASCII text") from exc


def encode_text_trace(events: Iterable[TraceEvent]) -> str:
    return "".join(f"{e.op} 0x{e.addr:X}\n" for e in events)


def encode_binary_trace(events: Iterable[TraceEvent]) -> bytes:
    return b"".join(
        struct.pack("<BQ", 1 if e.op == "W" else 0, e.addr) for e in events
    )


def load_trace(path: str) -> list[TraceEvent]:
    with open(path, "rb") as f:
        return parse_trace(f.read())


def save_trace(events: Iterable[TraceEvent], path: str, form: str = "text") -> None:
    if form == "text":
        with open(path, "w") as f:
            f.write(encode_text_trace(events))
    elif form == "binary":
        with open(path, "wb") as f:
            f.write(encode_binary_trace(events))
    else:
        raise ConfigError(f"unknown trace form {form!r}")


# -- generators ------------------------------------------------------------------


def _rw_flags(spec: PatternSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.write_fraction >= 1.0:
        return np.ones(spec.op_count, dtype=bool)
    if spec.write_fraction <= 0.0:
        return np.zeros(spec.op_count, dtype=bool)
    return rng.random(spec.op_count) < spec.write_fraction


def _blocks(spec: PatternSpec) -> int:
    return spec.footprint_bytes // BLOCK


def _emit(writes: np.ndarray, addrs: np.ndarray) -> list[TraceEvent]:
    return [
        TraceEvent("W" if w else "R", int(a))
        for w, a in zip(writes.tolist(), addrs.tolist())
    ]


def _gen_sweep(spec: PatternSpec, sequential_reads: bool) -> list[TraceEvent]:
    # writes advance a block cursor in address order (wrapping), so within a
    # sweep each block is written at most once and every page stays flat
    rng = np.random.default_rng(spec.seed)
    writes = _rw_flags(spec, rng)
    n_blocks = _blocks(spec)
    addrs = np.empty(spec.op_count, dtype=np.int64)
    w_idx = np.flatnonzero(writes)
    addrs[w_idx] = (np.arange(len(w_idx), dtype=np.int64) % n_blocks) * BLOCK
    r_idx = np.flatnonzero(~writes)
    if len(r_idx):
        if sequential_reads:
            addrs[r_idx] = (np.arange(len(r_idx), dtype=np.int64) % n_blocks) * BLOCK
        else:
            addrs[r_idx] = rng.integers(0, n_blocks, len(r_idx)) * BLOCK
    return _emit(writes, addrs)


def gen_sequential(spec: PatternSpec) -> list[TraceEvent]:
    """Stream through the footprint; reads and writes each keep their own cursor."""
    return _gen_sweep(spec, sequential_reads=True)


def gen_page_uniform(spec: PatternSpec) -> list[TraceEvent]:
    """Uniform page-by-page sweeps of writes with uniformly random reads."""
    return _gen_sweep(spec, sequential_reads=False)


def gen_write_once_read_many(spec: PatternSpec) -> list[TraceEvent]:
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
    return _emit(writes, addrs)


def gen_hot_block(spec: PatternSpec) -> list[TraceEvent]:
    """Hammer the first block of every hot page, round-robin.

    The hot region is the first ``hot_set_bytes`` of the footprint (whole
    footprint when 0).  Reads fall uniformly over the footprint.
    """
    rng = np.random.default_rng(spec.seed)
    hot_bytes = spec.hot_set_bytes or spec.footprint_bytes
    hot_pages = max(1, min(hot_bytes, spec.footprint_bytes) // 4096)
    writes = _rw_flags(spec, rng)
    addrs = np.empty(spec.op_count, dtype=np.int64)
    w_idx = np.flatnonzero(writes)
    addrs[w_idx] = (np.arange(len(w_idx), dtype=np.int64) % hot_pages) * 4096
    r_idx = np.flatnonzero(~writes)
    if len(r_idx):
        addrs[r_idx] = rng.integers(0, _blocks(spec), len(r_idx)) * BLOCK
    return _emit(writes, addrs)


def gen_zipfian(spec: PatternSpec) -> list[TraceEvent]:
    """Zipf-distributed block popularity, ranks scattered over the footprint."""
    rng = np.random.default_rng(spec.seed)
    n_blocks = _blocks(spec)
    ranks = np.arange(1, n_blocks + 1, dtype=np.float64)
    weights = ranks ** -spec.zipf_skew
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    draws = rng.random(spec.op_count)
    rank_idx = np.searchsorted(cdf, draws, side="left")
    # fixed odd multiplier sends neighboring ranks to distant blocks, so the
    # hot set spans many pages and the store sees mixed formats
    mult = 0x9E3779B1 | 1
    blocks = (rank_idx.astype(np.int64) * mult) % n_blocks
    return _emit(_rw_flags(spec, rng), blocks * BLOCK)


def gen_gaussian_kv(spec: PatternSpec) -> list[TraceEvent]:
    """Gaussian key popularity around the footprint center (key-value style).

    ``hot_set_bytes`` sets the standard deviation (footprint/8 when 0).
    """
    rng = np.random.default_rng(spec.seed)
    n_blocks = _blocks(spec)
    sigma_blocks = max(1, (spec.hot_set_bytes or spec.footprint_bytes // 8) // BLOCK)
    raw = rng.normal(loc=n_blocks / 2, scale=sigma_blocks, size=spec.op_count)
    blocks = np.clip(np.rint(raw), 0, n_blocks - 1).astype(np.int64)
    return _emit(_rw_flags(spec, rng), blocks * BLOCK)


def gen_strided(spec: PatternSpec) -> list[TraceEvent]:
    """Constant-stride walk over the footprint, wrapping at the end."""
    rng = np.random.default_rng(spec.seed)
    step = (spec.stride_bytes // BLOCK) * BLOCK
    addrs = (np.arange(spec.op_count, dtype=np.int64) * step) % spec.footprint_bytes
    addrs &= _ALIGN
    return _emit(_rw_flags(spec, rng), addrs)


_GENERATORS = {
    "sequential": gen_sequential,
    "page_uniform": gen_page_uniform,
    "write_once_read_many": gen_write_once_read_many,
    "hot_block": gen_hot_block,
    "zipfian": gen_zipfian,
    "gaussian_kv": gen_gaussian_kv,
    "strided": gen_strided,
}


def generate(spec: PatternSpec) -> list[TraceEvent]:
    return _GENERATORS[spec.kind](spec)
