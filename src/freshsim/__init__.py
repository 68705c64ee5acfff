"""freshsim: trace-driven simulation of memory-freshness protection.

The package models a trusted version-store device holding per-block write
counters in a tri-level compressed page format, the host engine that caches
and verifies that metadata, conventional baselines (integrity-only and a
counter hash tree), synthetic trace generation, and the probabilistic
analysis of version exhaustion and replay success.
"""

from .core import (
    AddressRangeError,
    ConfigError,
    EncodingError,
    Geometry,
    SecurityParams,
    SimError,
    pack_full,
)
from .version_store import (
    FLAT,
    FULL,
    UNEVEN,
    CapacityError,
    VersionStore,
    compression_ratio,
    data_partition_bytes,
    entry_cost_bytes,
    flat_array_bytes,
)
from .engine import (
    AccessOutcome,
    EngineConfig,
    FreshnessViolation,
    FunctionalBlockStore,
    HostEngine,
    Record,
    SimulationHalted,
    UvOverflowError,
)
from .baselines import (
    CiEngine,
    CounterTreeConfig,
    CounterTreeState,
    MerkleEngine,
    NoneEngine,
    tree_depth,
)
from .traces import (
    PATTERN_KINDS,
    PatternSpec,
    Trace,
    TraceParseError,
    generate,
    load_trace,
    parse_trace,
    save_trace,
)
from .analysis import (
    ExhaustionQuery,
    McEstimate,
    analytic_exhaustion_prob,
    exhaustion_bound,
    mc_exhaustion,
    mc_replay,
    no_reset_prob,
    replay_success_prob,
)

__all__ = [
    "AddressRangeError",
    "ConfigError",
    "EncodingError",
    "Geometry",
    "SecurityParams",
    "SimError",
    "pack_full",
    "FLAT",
    "FULL",
    "UNEVEN",
    "CapacityError",
    "VersionStore",
    "compression_ratio",
    "data_partition_bytes",
    "entry_cost_bytes",
    "flat_array_bytes",
    "AccessOutcome",
    "EngineConfig",
    "FreshnessViolation",
    "FunctionalBlockStore",
    "HostEngine",
    "Record",
    "SimulationHalted",
    "UvOverflowError",
    "CiEngine",
    "CounterTreeConfig",
    "CounterTreeState",
    "MerkleEngine",
    "NoneEngine",
    "tree_depth",
    "PATTERN_KINDS",
    "PatternSpec",
    "Trace",
    "TraceParseError",
    "generate",
    "load_trace",
    "parse_trace",
    "save_trace",
    "ExhaustionQuery",
    "McEstimate",
    "analytic_exhaustion_prob",
    "exhaustion_bound",
    "mc_exhaustion",
    "mc_replay",
    "no_reset_prob",
    "replay_success_prob",
]

__version__ = "0.1.0"
