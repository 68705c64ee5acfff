"""Protection engines: the per-event skeleton every mode shares, and the
host engine backed by the device version store.

``ProtectionEngine`` does what all modes do alike: channel routing (local
DRAM or a CXL-attached pool), data and MAC byte charging, the MAC cache and
read latency.  Each mode adds only its freshness scheme, as a hook the
skeleton calls once per event; a mode with none (``none``, ``ci``) makes no
hook call.  Every charge lands on the engine's totals, which ``stats()``
reports; ``process_access`` also returns what the one event charged, an
``AccessOutcome``, whose docstring states its contract.

The device-backed engine keeps two small caches of freshness metadata,
beside the set-associative write-back cache of 64-byte MAC blocks that the
skeleton keeps in every MAC mode:

* a fully associative cache of flat entries (one per hot page),
* an inclusive overflow buffer of 56-byte dynamic lines (uneven offsets and
  the four quarters of a full entry), which the flat cache owns.

The caches track residency only.  Byte and transaction counts depend only on
which keys are resident and on the page's format, never on a version.  A
read whose entry and lines are all resident asks the device nothing; any
other read costs one device READ.
Writes are write-through: every write issues exactly one device UPDATE whose
response carries the refreshed entry and any dynamic lines, so one round
trip keeps the caches coherent.

Read latency is modeled analytically: the data fetch on its channel, plus the
slowest outstanding metadata fetch (device or MAC, issued in parallel), plus
a fixed cipher-pipeline delay.  Only its sum over the reads is kept, for
``avg_read_latency_ns``; a write computes no latency, as nothing reports one.
The latency inputs' ranges keep that sum a finite float on every path.

The host engine's functional layer actually enciphers block payloads under a
keyed pseudorandom transform of (key, full version, address) and MACs them,
which lets tests replay stale records and watch verification fail.  It
holds only the blocks written through ``functional_write``, so a plain
trace run costs it nothing.  It learns each stealth version as the host
does: by decoding the packed entry and dynamic lines the device sends.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .caches import FlatCache, LruSets, SetAssocCache, check_shape
from .core import (
    AddressRangeError,
    ConfigError,
    Geometry,
    SecurityParams,
    SimError,
    bounded,
    check_fields,
    pack_full,
)
from .version_store import (
    FLAT,
    LINE_COUNT,
    SLOT_BYTES,
    UNEVEN,
    CapacityError,
    VersionStore,
    decode_entry_image,
    decode_full_lines,
    decode_uneven_line,
    flat_array_bytes,
)

TIB = 1 << 40
GIB = 1 << 30
# each latency input's high bound (ns, cycles or GHz); the clock's low bound
# is its inverse.  A read makes at most 65 trips of at most 2e12 ns (a tree
# over 2**64 blocks has at most 64 levels), one device hop and a cipher delay
# of at most 1e24 ns, so even 2**64 reads sum to a finite float.
LATENCY_MAX = 10 ** 12


class UvOverflowError(SimError):
    """A page's upper version hit 2**U; the memory's lifetime is exhausted."""


class FreshnessViolation(SimError):
    """MAC verification failed: stale or tampered data was served."""


class SimulationHalted(SimError):
    """The engine is in a terminal state (kill switch or capacity)."""


@dataclass(frozen=True)
class EngineConfig:
    """Every knob of a simulation run; defaults match the reference platform:
    2.25 GHz cores, 40-cycle cipher pipeline, 95 ns CXL hop, 15 ns device
    DRAM, 256-entry flat cache, 28 KiB overflow buffer, 1 MiB MAC cache
    (32 KiB per core across 32 cores)."""

    geometry: Geometry = field(default_factory=Geometry)
    params: SecurityParams = field(default_factory=SecurityParams)
    protected_bytes: int = bounded(1 * GIB, high=1 << 64)  # trace addresses are uint64
    device_capacity_bytes: int | None = bounded(None)
    local_bytes: int = bounded(3 * TIB)
    local_ns: float = bounded(50.0, high=LATENCY_MAX)
    cxl_ns: float = bounded(95.0, high=LATENCY_MAX)
    pool_dram_ns: float = bounded(50.0, high=LATENCY_MAX)
    device_dram_ns: float = bounded(15.0, high=LATENCY_MAX)
    cipher_cycles: int = bounded(40, high=LATENCY_MAX)
    clock_ghz: float = bounded(2.25, low=1 / LATENCY_MAX, high=LATENCY_MAX)
    flat_cache_entries: int = bounded(256, low=1)
    overflow_bytes: int = 28672
    overflow_assoc: int = 16
    mac_cache_bytes: int = 32 * 1024 * 32
    mac_assoc: int = 16
    device_message_bytes: int = bounded(64)
    seed: int = bounded(1, high=(1 << 128) - 1)  # the functional layer keys on 16 bytes

    def __post_init__(self) -> None:
        check_fields(self)
        if self.geometry.spare_bits < self.params.upper_bits:
            raise ConfigError(
                f"MAC-block spare bits ({self.geometry.spare_bits}) cannot hold a "
                f"{self.params.upper_bits}-bit upper version"
            )
        page = self.geometry.page_bytes
        if self.protected_bytes <= 0 or self.protected_bytes % page:
            raise ConfigError(f"protected_bytes must be a positive multiple of the {page}-byte "
                              f"page, got {self.protected_bytes}")
        if self.local_bytes % page:
            raise ConfigError(f"local_bytes must be a multiple of the {page}-byte page, "
                              f"got {self.local_bytes}")
        check_shape(self.overflow_bytes, SLOT_BYTES, self.overflow_assoc,
                    "overflow_bytes and overflow_assoc")
        check_shape(self.mac_cache_bytes, self.geometry.block_bytes, self.mac_assoc,
                    "mac_cache_bytes and mac_assoc")

    @property
    def cipher_ns(self) -> float:
        return self.cipher_cycles / self.clock_ghz

    @property
    def pool_ns(self) -> float:
        return self.cxl_ns + self.pool_dram_ns

    @property
    def device_ns(self) -> float:
        return self.cxl_ns + self.device_dram_ns

    def resolved_device_capacity(self) -> int:
        if self.device_capacity_bytes is not None:
            return self.device_capacity_bytes
        return flat_array_bytes(self.protected_bytes, self.geometry, self.params) + (8 << 20)


@dataclass(slots=True)
class AccessOutcome:
    """What one event charged onto the engine's channel and device totals,
    and the version store's events for its UPDATE (``reset_triggered``
    among them when the write reset its page), and nothing else.

    Byte fields mirror exactly what the event added to the engine's channel
    counters, a reset's re-encryption included, so summing outcomes over a
    run reproduces the totals.  An engine makes one record, its ``outcome``,
    so the per-event path allocates none, and ``process_access`` returns it.
    The next event overwrites it: a caller that keeps an outcome past the
    next event must copy it.

    Each field is set with ``=`` by the layer that charges it: the skeleton
    sets ``local_bytes`` and ``pool_bytes``; in a MAC mode the MAC step sets
    ``mac_bytes``, 0 on a hit; a mode's freshness hook sets
    ``device_bytes``, ``device_transactions`` and ``events`` if its mode
    charges them.  A field no layer of the mode writes keeps its zero from
    construction.  ``_after_write`` adds onto the record what its later
    charges (a reset's re-encryption) added to the totals.  A page re-key
    outside an event charges the totals alone.  A rejected event raises
    before it touches the record; an event that halts part-way leaves on it
    exactly the charges the totals also got.
    """

    local_bytes: int = 0
    pool_bytes: int = 0
    mac_bytes: int = 0
    device_bytes: int = 0
    device_transactions: int = 0
    events: tuple = ()


@dataclass(slots=True)
class Record:
    """One enciphered block as it sits in untrusted memory.

    ``uv`` rides along because upper versions are stored next to the MACs in
    ordinary memory; an adversary replays them together.  ``stealth`` is kept
    so page re-encryption can recover the plaintext; verification never
    consults it.
    """

    cipher: bytes
    mac: bytes
    uv: int
    stealth: int


class FunctionalBlockStore:
    """Keyed cipher + MAC layer over block payloads.

    cipher = plaintext XOR PRF(key, full_version, address)
    mac    = keyed_hash(full_version, address, cipher), truncated to mac_bits
    """

    def __init__(self, geometry: Geometry, params: SecurityParams, seed: int) -> None:
        self.geometry = geometry
        self.params = params
        seed_bytes = seed.to_bytes(16, "little", signed=False)
        self._enc_key = hashlib.blake2b(b"enc", key=seed_bytes, digest_size=32).digest()
        self._mac_key = hashlib.blake2b(b"mac", key=seed_bytes, digest_size=32).digest()
        # page -> {addr: Record}, so a page re-encryption visits only its page
        self.records: dict[int, dict[int, Record]] = {}

    def get(self, addr: int) -> Record | None:
        """The record held for the block at ``addr``, or None."""
        return self.records.get(addr // self.geometry.page_bytes, {}).get(addr)

    def put(self, addr: int, record: Record) -> None:
        """Hold ``record`` for the block at ``addr``, replacing any other."""
        self.records.setdefault(addr // self.geometry.page_bytes, {})[addr] = record

    def _tweak(self, full_version: int, addr: int) -> bytes:
        return full_version.to_bytes(16, "little") + addr.to_bytes(8, "little")

    def _keystream(self, full_version: int, addr: int) -> bytes:
        out = b""
        counter = 0
        tweak = self._tweak(full_version, addr)
        while len(out) < self.geometry.block_bytes:
            out += hashlib.blake2b(
                tweak + counter.to_bytes(4, "little"),
                key=self._enc_key,
                digest_size=64,
            ).digest()
            counter += 1
        return out[: self.geometry.block_bytes]

    def compute_mac(self, full_version: int, addr: int, cipher: bytes) -> bytes:
        bits = self.geometry.mac_bits
        nbytes = (bits + 7) // 8
        digest = hashlib.blake2b(
            self._tweak(full_version, addr) + cipher,
            key=self._mac_key,
            digest_size=max(nbytes, 1),
        ).digest()
        if bits % 8:
            # truncate the top byte to the configured tag width
            head = digest[-1] & ((1 << (bits % 8)) - 1)
            digest = digest[:-1] + bytes([head])
        return digest

    def seal(self, addr: int, plaintext: bytes, uv: int, stealth: int) -> Record:
        if len(plaintext) != self.geometry.block_bytes:
            raise ConfigError(f"plaintext must be {self.geometry.block_bytes} bytes")
        full = pack_full(uv, stealth, self.params)
        ks = self._keystream(full, addr)
        cipher = bytes(p ^ k for p, k in zip(plaintext, ks))
        return Record(cipher=cipher, mac=self.compute_mac(full, addr, cipher),
                      uv=uv, stealth=stealth)

    def open(self, addr: int, record: Record, current_stealth: int) -> bytes:
        """Verify and decrypt under the record's UV and the device's stealth.

        The UV is taken from the record because it lives in untrusted memory;
        only the stealth version comes from the trusted device.  Raises
        FreshnessViolation on MAC mismatch.
        """
        full = pack_full(record.uv, current_stealth, self.params)
        if self.compute_mac(full, addr, record.cipher) != record.mac:
            raise FreshnessViolation(
                f"MAC mismatch at {addr:#x}: stored version is stale or forged"
            )
        ks = self._keystream(full, addr)
        return bytes(c ^ k for c, k in zip(record.cipher, ks))


class ProtectionEngine:
    """Per-event skeleton shared by every protection mode.

    It refuses events once the engine is halted or killed, validates the
    event, routes the data access to its channel (local DRAM below
    ``local_bytes``, the CXL pool above), charges data and MAC traffic, runs
    the MAC cache, and sums read latency.  A mode plugs its freshness scheme
    in through two hooks.  ``_freshness(out, addr, is_write, data_ns)`` runs
    before the MAC access, charges its metadata traffic onto ``out`` and the
    totals, and returns the metadata fetch latency of a read; ``data_ns`` is
    one trip on the data's channel.  ``_after_write(out, addr)`` runs once a
    write's MAC line is owned, only if the hook set ``out.events``.

    The class attributes declare a mode: ``uses_mac`` switches on the MAC
    cache and the cipher delay together (with neither, this is unprotected
    memory), and a mode with no freshness scheme leaves ``_freshness`` None
    and makes no hook call.  ``__init__`` reads both once into instance
    flags, which is all the per-event path tests.

    ``outcome`` is the engine's one ``AccessOutcome``, which
    ``process_access`` returns; that class's docstring says which layer
    writes each field.
    """

    mode = "none"
    uses_mac = False
    _freshness = None  # a mode's freshness hook, if it has a scheme

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        g = config.geometry
        self.mac_cache = SetAssocCache(
            lines=config.mac_cache_bytes // g.block_bytes, assoc=config.mac_assoc
        )
        self._cipher_ns = config.cipher_ns if self.uses_mac else 0.0
        self._data_bytes = config.protected_bytes
        self._local_limit = config.local_bytes
        self._local_ns = config.local_ns
        self._pool_ns = config.pool_ns
        self._block_bytes = g.block_bytes
        # MAC-cache key of a data block: the index of the 64-byte MAC line,
        # above the data partition, that holds the MACs of its run of blocks
        self._mac_key_base = config.protected_bytes // g.block_bytes
        self._mac_key_span = g.block_bytes * g.macs_per_block
        self.killed: str | None = None
        self.halted: str | None = None
        self.outcome = AccessOutcome()
        # the mode's switches, read once: per event, an instance attribute
        # loads faster than a class attribute looked up through the instance
        self._uses_mac = self.uses_mac
        self._has_freshness = self._freshness is not None

        self.reads = 0
        self.writes = 0
        self.local_bytes = 0
        self.pool_bytes = 0
        self.mac_bytes = 0
        self.device_bytes = 0
        self.resets = 0
        self.reencrypted_blocks = 0
        self.read_latency_total = 0.0

    # -- the main entry point ----------------------------------------------------------

    def process_access(self, op: str, addr: int) -> AccessOutcome:
        """Run one trace event through the engine.  ``op`` is "R" or "W".
        Returns what the event charged: ``self.outcome``, rewritten, valid
        until the next event.

        A rejected event (bad op or address, terminal engine) counts nothing
        and leaves the outcome as the last event left it.
        """
        if self.halted or self.killed:
            raise SimulationHalted(self.halted or self.killed)
        if not 0 <= addr < self._data_bytes:
            raise AddressRangeError(
                f"address {addr:#x} outside the {self._data_bytes}-byte data partition"
            )
        if op == "R":
            is_write = False
        elif op == "W":
            is_write = True
        else:
            raise ConfigError(f"unknown op {op!r}")
        nbytes = self._block_bytes
        out = self.outcome  # each field is set by the layer that charges it
        if addr < self._local_limit:
            out.local_bytes = nbytes
            out.pool_bytes = 0
            self.local_bytes += nbytes
            data_ns = self._local_ns
        else:
            out.local_bytes = 0
            out.pool_bytes = nbytes
            self.pool_bytes += nbytes
            data_ns = self._pool_ns
        if is_write:
            self.writes += 1
            if self._has_freshness:
                self._freshness(out, addr, True, data_ns)
        else:
            self.reads += 1
            fresh_ns = self._freshness(out, addr, False, data_ns) if self._has_freshness else 0.0
        mac_ns = 0.0
        if self._uses_mac:
            # access returns the MAC lines moved on the data's channel: none on a
            # hit, the fetched line (for ownership, on a write) on a miss, plus
            # a dirty victim's write-back; a write leaves the line dirty
            moved = self.mac_cache.access(
                self._mac_key_base + addr // self._mac_key_span, is_write)
            if moved:
                nbytes *= moved
                out.mac_bytes = nbytes
                self.mac_bytes += nbytes
                mac_ns = data_ns
            else:
                out.mac_bytes = 0
        if not is_write:
            self.read_latency_total += (
                data_ns + (mac_ns if mac_ns > fresh_ns else fresh_ns) + self._cipher_ns)
        elif out.events:
            self._after_write(out, addr)
        return out

    def run(self, events) -> None:
        """Replay ``events``, (op, addr) pairs, through ``process_access``.
        A halt raises ``SimulationHalted``, and any other bad event its
        ``SimError``, at that event."""
        process = self.process_access
        for op, addr in events:
            process(op, addr)

    # -- statistics --------------------------------------------------------------------

    def stats(self) -> dict:
        """One schema for every mode; a mode fills in the sections it owns."""
        return {
            "mode": self.mode,
            "events": self.reads + self.writes,
            "reads": self.reads,
            "writes": self.writes,
            "channels": {
                "local_bytes": self.local_bytes,
                "pool_bytes": self.pool_bytes,
                "mac_bytes": self.mac_bytes,
                "device_bytes": self.device_bytes,
            },
            "caches": {
                "flat": {"hits": 0, "misses": 0},
                "overflow": {"hits": 0, "misses": 0},
                "mac": _cache_counts(self.mac_cache),
            },
            "resets": self.resets,
            "reencrypted_blocks": self.reencrypted_blocks,
            "avg_read_latency_ns": (
                self.read_latency_total / self.reads if self.reads else 0.0
            ),
            "page_formats": {"flat": 0, "uneven": 0, "full": 0},
            "device": {"static_bytes": 0, "dynamic_bytes": 0, "peak_bytes": 0,
                       "transactions": 0, "reads": 0, "updates": 0},
        }


def _cache_counts(cache: SetAssocCache) -> dict:
    return {"hits": cache.hits, "misses": cache.misses}


class HostEngine(ProtectionEngine):
    """Device-backed protection engine (mode tag ``toleo``).

    A page re-key (``handle_uv_update``, ``os_free_page``) returns nothing
    (see ``AccessOutcome``); the functional layer returns the sealed record
    or the plaintext.
    """

    mode = "toleo"
    uses_mac = True

    def __init__(self, config: EngineConfig) -> None:
        super().__init__(config)
        self.store = VersionStore(
            protected_bytes=config.protected_bytes,
            device_capacity_bytes=config.resolved_device_capacity(),
            rng=random.Random(config.seed),
            geometry=config.geometry,
            params=config.params,
        )
        self.overflow = LruSets(config.overflow_bytes // SLOT_BYTES, config.overflow_assoc)
        self.flat_cache = FlatCache(config.flat_cache_entries, self.overflow, self.store)
        self.functional = FunctionalBlockStore(config.geometry, config.params, config.seed)
        self.uv: dict[int, int] = {}
        self._page_bytes = config.geometry.page_bytes
        self._device_ns = config.device_ns
        self._message_bytes = config.device_message_bytes
        self.device_reads = 0
        self.device_updates = 0

    # -- metadata caches -----------------------------------------------------------

    def _freshness(self, out: AccessOutcome, addr: int, is_write: bool, data_ns: float) -> float:
        """One ``flat_cache.access`` call per event.  A write is one device
        UPDATE; it runs before the MAC write, so a capacity halt charges no
        MAC traffic, and it counts no flat-cache hits.  A read probes the flat
        cache and every line the page filled, all its format has, and asks
        the device nothing when all hit.  Any miss costs one device READ, whose
        latency is returned; only a flat miss asks the store for the page's
        line count.  Each device response fills the page's lines; the functional layer decodes
        versions from the same entry and lines.  Every path sets ``out``'s
        ``events``, ``device_bytes`` and ``device_transactions``; a capacity
        halt also clears ``mac_bytes``, as it stops the event before the MAC
        step."""
        page = addr // self._page_bytes
        if is_write:
            try:
                _, fmt, out.events = self.store.update_version(addr)
            except CapacityError as exc:
                # the halt comes before the MAC step, so it clears what that
                # step and this hook would have set
                out.mac_bytes = out.device_bytes = out.device_transactions = 0
                out.events = ()
                self.halted = f"device capacity exhausted at page {page}: {exc}"
                raise SimulationHalted(self.halted) from exc
            self.device_updates += 1
            count = self.flat_cache.access(page, LINE_COUNT[fmt])
            latency = 0.0
        else:
            out.events = ()
            count = self.flat_cache.access(page, -1)
            if count < 0:
                out.device_bytes = out.device_transactions = 0
                return 0.0
            self.device_reads += 1
            latency = self._device_ns
        # request and entry messages, plus one per dynamic line the response fills
        out.device_transactions = 1
        nbytes = (2 + count) * self._message_bytes
        out.device_bytes = nbytes
        self.device_bytes += nbytes
        return latency

    def _after_write(self, out: AccessOutcome, addr: int) -> None:
        """A reset the UPDATE fired re-encrypts the written page.  It follows
        the MAC write, as it invalidates the page's MAC lines.  On every path
        ``out`` gets what the re-key added to the channel totals, so the
        record still equals the event's charges.  With no upper version left
        the engine halts; the store's reset alone is counted."""
        if "reset_triggered" in out.events:
            local, pool, mac = self.local_bytes, self.pool_bytes, self.mac_bytes
            try:
                self.handle_uv_update(addr // self._page_bytes)
            except UvOverflowError as exc:
                self.resets += 1
                self.halted = str(exc)
                raise SimulationHalted(self.halted) from exc
            finally:
                out.local_bytes += self.local_bytes - local
                out.pool_bytes += self.pool_bytes - pool
                out.mac_bytes += self.mac_bytes - mac

    # -- page-level operations -----------------------------------------------------

    def _rekey_page(self, page: int) -> int:
        """The re-key a reset and a page free share: bump the page's upper
        version, charge the rewrite of every MAC line that holds a MAC of one
        of its blocks to the totals, and drop the page's cached metadata,
        which refills lazily.  Returns the page's first address.

        A terminal engine raises SimulationHalted, a page outside the
        protected range AddressRangeError, and an upper version that would
        reach 2**U UvOverflowError, each before anything changes.
        """
        if self.halted or self.killed:
            raise SimulationHalted(self.halted or self.killed)
        if not 0 <= page < self.store.total_pages:
            raise AddressRangeError(f"page {page} outside protected range")
        uv = self.uv.get(page, 0) + 1
        bits = self.config.params.upper_bits
        if uv >= (1 << bits):
            raise UvOverflowError(f"page {page} exhausted its {bits}-bit upper version")
        self.uv[page] = uv
        page_addr = page * self._page_bytes
        first = self._mac_key_base + page_addr // self._mac_key_span
        last = self._mac_key_base + (page_addr + self._page_bytes - 1) // self._mac_key_span
        self.mac_bytes += (last + 1 - first) * self._block_bytes
        self.flat_cache.drop(page)
        self.mac_cache.invalidate_range(range(first, last + 1))
        return page_addr

    def handle_uv_update(self, page: int) -> None:
        """Re-key the page (``_rekey_page``) and re-encrypt all of it.

        Charged to the engine totals as 64 data-block writes on the channel
        of the page's first byte, by ``process_access``'s rule, plus the
        re-key's MAC-block writes, and counted as a reset.
        """
        page_addr = self._rekey_page(page)
        # every block of the page, rewritten on its first byte's channel
        if page_addr < self._local_limit:
            self.local_bytes += self._page_bytes
        else:
            self.pool_bytes += self._page_bytes
        self.reencrypted_blocks += self.config.geometry.blocks_per_page
        self.resets += 1
        fn = self.functional
        records = fn.records.get(page, {})
        for addr, rec in records.items():
            plaintext = fn.open(addr, rec, rec.stealth)
            records[addr] = fn.seal(addr, plaintext, self.uv[page], self._decode_version(addr))

    def os_free_page(self, page: int) -> None:
        """Free/remap a page: re-key it (``_rekey_page``) and reset its
        versions, nothing more.

        The freed page is not re-encrypted, so any stale contents fail their
        MAC on the next verified read; that is the cheap scrambling the OS
        relies on.
        """
        self._rekey_page(page)
        self.store.reset_page(page)

    # -- functional layer ------------------------------------------------------------

    def _decode_version(self, addr: int) -> int:
        """The stealth version of the block at ``addr``, decoded from the
        packed entry and dynamic lines the device sends for its page."""
        g = self.config.geometry
        params = self.config.params
        page, block = divmod(addr // g.block_bytes, g.blocks_per_page)
        tag, base, payload = decode_entry_image(self.store.entry_image(page), params)
        if tag == FLAT:
            return (base + ((payload >> block) & 1)) & params.stealth_mask
        lines = self.store.entry_lines(page)
        if tag == UNEVEN:
            return (base + decode_uneven_line(lines[0], g)[block]) & params.stealth_mask
        return decode_full_lines(lines, g, params)[block]

    def functional_write(self, addr: int, plaintext: bytes) -> Record:
        """Write the block as one event and seal ``plaintext`` under its new
        version; the record is held and returned."""
        fn = self.functional
        self.process_access("W", addr)
        record = fn.seal(addr, plaintext, self.uv.get(addr // self._page_bytes, 0),
                         self._decode_version(addr))
        fn.put(addr, record)
        return record

    def functional_read(self, addr: int) -> bytes:
        """Read the block as one event and return its verified plaintext."""
        fn = self.functional
        self.process_access("R", addr)
        record = fn.get(addr)
        if record is None:
            raise ConfigError(f"no record was ever written at {addr:#x}")
        try:
            plaintext = fn.open(addr, record, self._decode_version(addr))
        except FreshnessViolation as exc:
            self.killed = str(exc)
            raise
        return plaintext

    def inject_replay(self, addr: int, old_record: Record) -> str:
        """Substitute a captured record and read it back.

        Returns "detected" (MAC failed under the current version; the kill
        switch latches) or "silent_success" (the captured stealth version
        matches the current one, so the stale data verifies).  Metadata
        traffic is not charged for the injected read.
        """
        fn = self.functional
        version = self._decode_version(addr)  # refuses an address out of range
        fn.put(addr, old_record)
        try:
            fn.open(addr, old_record, version)
        except FreshnessViolation as exc:
            self.killed = str(exc)
            return "detected"
        return "silent_success"

    def rearm_kill_switch(self) -> None:
        """Test/experiment hook: clear the terminal detection state."""
        self.killed = None

    # -- statistics --------------------------------------------------------------------

    def stats(self) -> dict:
        s = super().stats()
        store = self.store
        s["caches"]["flat"] = _cache_counts(self.flat_cache)
        s["caches"]["overflow"] = _cache_counts(self.overflow)
        s["page_formats"] = {
            "flat": store.pages_flat,
            "uneven": store.pages_uneven,
            "full": store.pages_full,
        }
        s["device"] = {
            "static_bytes": store.static_bytes,
            "dynamic_bytes": store.dynamic_bytes,
            "peak_bytes": store.static_bytes + store.peak_dynamic_bytes,
            "transactions": self.device_reads + self.device_updates,
            "reads": self.device_reads,
            "updates": self.device_updates,
        }
        return s
