"""Grow the protected memory from 64 MiB to 28 TiB and watch the tree climb.

The paper's case against Merkle trees is that their extra memory accesses
grow with the protected size, while a device-held version store answers
every lookup in one round trip.  Each row replays a uniform trace spread
over the whole protected range, every access on the pool channel: the
counter tree deepens and its walks lengthen, while ``toleo``'s read latency
and device traffic stay level with plain ``ci``.
"""

from freshsim.baselines import CiEngine, MerkleEngine
from freshsim.engine import EngineConfig, HostEngine
from freshsim.traces import PatternSpec, generate

MIB, GIB, TIB = 1 << 20, 1 << 30, 1 << 40
SIZES = [("64 MiB", 64 * MIB), ("1 GiB", GIB), ("64 GiB", 64 * GIB),
         ("1 TiB", TIB), ("28 TiB", 28 * TIB)]


def device_bytes_per_event(s):
    return s["channels"]["device_bytes"] / s["events"]


def main():
    print("page_uniform trace, 20000 ops, 30% writes, all on the pool channel\n")
    header = (f"{'protected':<10} {'ci read ns':>10} {'toleo read ns':>13} {'toleo B/ev':>10} "
              f"{'merkle read ns':>14} {'merkle B/ev':>11} {'depth':>5}")
    print(header)
    print("-" * len(header))
    for label, size in SIZES:
        events = generate(PatternSpec(kind="page_uniform", footprint_bytes=size,
                                      op_count=20_000, write_fraction=0.3, seed=7))
        cfg = EngineConfig(protected_bytes=size, local_bytes=0)
        engines = CiEngine(cfg), HostEngine(cfg), MerkleEngine(cfg)
        for engine in engines:
            engine.run(events)
        ci, toleo, merkle = (engine.stats() for engine in engines)
        print(f"{label:<10} {ci['avg_read_latency_ns']:>10.1f} "
              f"{toleo['avg_read_latency_ns']:>13.1f} {device_bytes_per_event(toleo):>10.1f} "
              f"{merkle['avg_read_latency_ns']:>14.1f} {device_bytes_per_event(merkle):>11.1f} "
              f"{merkle['tree']['depth']:>5}")


if __name__ == "__main__":
    main()
