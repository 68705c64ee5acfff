"""Replay one trace under all four protection modes and compare traffic.

The interesting column is device_bytes: the freshness-metadata channel.
With a warm, read-heavy working set the device-backed scheme moves a few
percent of the data traffic while the counter tree pays a node walk on
every cache miss.
"""

from freshsim.baselines import CiEngine, MerkleEngine, NoneEngine
from freshsim.engine import EngineConfig, HostEngine
from freshsim.traces import PatternSpec, generate

FOOTPRINT = 96 * 4096


def main():
    spec = PatternSpec(
        kind="zipfian",
        footprint_bytes=FOOTPRINT,
        op_count=50_000,
        write_fraction=0.01,
        seed=21,
    )
    events = generate(spec)
    # protect a full gigabyte so the counter tree has real height; the
    # trace touches the first 96 pages of it
    cfg = EngineConfig(protected_bytes=1 << 30)
    engines = [
        NoneEngine(cfg),
        CiEngine(cfg),
        HostEngine(cfg),
        MerkleEngine(cfg),
    ]

    print(f"trace: {spec.kind}, {spec.op_count} ops, "
          f"{FOOTPRINT // 4096} pages, {spec.write_fraction:.0%} writes\n")
    header = f"{'mode':<8} {'data MB':>8} {'mac KB':>8} {'device KB':>10} {'read ns':>9}"
    print(header)
    print("-" * len(header))
    for eng in engines:
        eng.run(events)
        s = eng.stats()
        data = (s["channels"]["local_bytes"] + s["channels"]["pool_bytes"]) / 1e6
        print(f"{s['mode']:<8} {data:>8.2f} "
              f"{s['channels']['mac_bytes'] / 1e3:>8.1f} "
              f"{s['channels']['device_bytes'] / 1e3:>10.1f} "
              f"{s['avg_read_latency_ns']:>9.2f}")
        if s["mode"] == "toleo":
            pf = s["page_formats"]
            print(f"{'':<8} page formats: {pf['flat']} flat / "
                  f"{pf['uneven']} uneven / {pf['full']} full")
        if s["mode"] == "merkle":
            print(f"{'':<8} tree depth {s['tree']['depth']}, "
                  f"{s['tree']['fetches']} node fetches")


if __name__ == "__main__":
    main()
