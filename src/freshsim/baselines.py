"""Baseline protection schemes the device-backed engine is compared against.

* ``none``: raw memory, no metadata at all.
* ``ci``: confidentiality and integrity only (cipher + MAC cache), no
  freshness, so writes cost no metadata traffic beyond MAC dirtying.
* ``merkle``: a counter hash tree over the protected range.  Only access
  counts are modeled, never hash values: each verification walks leaf to
  root until a counter-cache hit, each step one counter-cache ``access``
  and, on its miss, one 64-byte node fetch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caches import CounterCache, check_shape
from .core import AddressRangeError, ConfigError, bounded, check_fields
from .engine import AccessOutcome, EngineConfig, ProtectionEngine


class NoneEngine(ProtectionEngine):
    """Unprotected memory: data traffic and raw latency only."""

    mode = "none"


class CiEngine(ProtectionEngine):
    """Confidentiality + integrity: cipher latency and a MAC cache, no
    freshness metadata, and therefore never any device traffic."""

    mode = "ci"
    uses_mac = True


# -- counter hash tree ---------------------------------------------------------------


@dataclass(frozen=True)
class CounterTreeConfig:
    """Shape of the counter tree and its on-chip root region.

    Each 64-byte leaf node packs counters for ``counters_per_leaf_node``
    data blocks; interior nodes fan out ``arity`` children.  The root region
    pins ``root_bytes / (node_bytes / arity)`` child counters on chip, so any
    level with no more nodes than that verifies without leaving the chip.
    The range the tree covers is not part of its shape: the engine passes
    its own protected range and block size in.
    """

    arity: int = bounded(8, low=2)
    node_bytes: int = 64
    counters_per_leaf_node: int = bounded(8, low=1)
    root_bytes: int = 3072
    counter_cache_bytes: int = 32 * 1024
    counter_cache_assoc: int = 16

    def __post_init__(self) -> None:
        check_fields(self)
        if self.node_bytes < self.arity:
            raise ConfigError("tree node_bytes must be at least arity")
        check_shape(self.counter_cache_bytes, self.node_bytes, self.counter_cache_shape[1],
                    "tree counter_cache_bytes and counter_cache_assoc")
        if self.root_bytes < self.node_bytes // self.arity:
            raise ConfigError("root region cannot hold even one child counter")

    @property
    def counter_cache_shape(self) -> tuple[int, int]:
        """(lines, ways) of the counter cache; it has no more ways than lines."""
        lines = self.counter_cache_bytes // self.node_bytes
        return lines, min(self.counter_cache_assoc, lines)

    @property
    def root_coverage(self) -> int:
        return self.root_bytes // (self.node_bytes // self.arity)


def tree_depth(config: CounterTreeConfig, blocks: int) -> int:
    """Off-chip node levels on a worst-case (cold) verification walk over
    the counters of ``blocks`` data blocks.

    Starting from the leaf-counter level, every level with more nodes than
    the root region covers must be fetched; the first level small enough to
    be verified on chip ends the walk.  The leaf level is always fetched
    (it holds the counter being checked), hence the minimum of 1.
    """
    depth = 0
    count = -(-blocks // config.counters_per_leaf_node)  # leaf nodes
    while count > config.root_coverage:
        depth += 1
        count = -(-count // config.arity)
    return max(depth, 1)


class CounterTreeState:
    """Counter cache over the nodes of a tree covering ``protected_bytes`` in
    ``block_bytes`` blocks; only residency is tracked."""

    def __init__(self, config: CounterTreeConfig, protected_bytes: int, block_bytes: int) -> None:
        self.depth = tree_depth(config, protected_bytes // block_bytes)
        self.cache = CounterCache(*config.counter_cache_shape)
        self.fetches = 0
        self.dirty_writebacks = 0
        self._protected_bytes = protected_bytes
        self._leaf_span = block_bytes * config.counters_per_leaf_node
        self._arity = config.arity

    def access(self, addr: int, is_write: bool) -> int:
        """Verify (and on write, bump) the counter path for ``addr``.

        Returns the number of node fetches: the counter cache's ``walk``
        climbs leaf to root and stops at the first hit, or at the root
        region.  Every fetched node is filled, dirty on a write, and each
        dirty eviction counts as write-back traffic.
        """
        if addr < 0 or addr >= self._protected_bytes:
            raise AddressRangeError(f"address {addr:#x} outside the protected range")
        fetched, moved = self.cache.walk(addr // self._leaf_span, self._arity, self.depth,
                                         is_write)
        self.fetches += fetched
        self.dirty_writebacks += moved - fetched  # each fill moves one line, plus its write-back
        return fetched


class MerkleEngine(ProtectionEngine):
    """CI plus a counter hash tree for freshness.

    Tree-node traffic is reported on the ``device_bytes`` channel so that the
    freshness-metadata column lines up across modes in comparisons.
    """

    mode = "merkle"
    uses_mac = True

    def __init__(self, config: EngineConfig, tree_config: CounterTreeConfig | None = None) -> None:
        super().__init__(config)
        tree_config = tree_config or CounterTreeConfig()
        self.tree = CounterTreeState(
            tree_config, config.protected_bytes, config.geometry.block_bytes)
        self._node_bytes = tree_config.node_bytes

    def _freshness(self, out: AccessOutcome, addr: int, is_write: bool, data_ns: float) -> float:
        tree = self.tree
        before = tree.dirty_writebacks
        fetched = tree.access(addr, is_write)
        nbytes = (fetched + tree.dirty_writebacks - before) * self._node_bytes
        out.device_bytes = nbytes
        self.device_bytes += nbytes
        # dependent chain: each level's verification needs the next node
        return fetched * data_ns

    def stats(self) -> dict:
        s = super().stats()
        tree = self.tree
        s["tree"] = {
            "depth": tree.depth,
            "fetches": tree.fetches,
            "dirty_writebacks": tree.dirty_writebacks,
            # the first walk finds the counter cache cold, so fetches every level
            "first_access_fetches": tree.depth if s["events"] else 0,
        }
        return s
