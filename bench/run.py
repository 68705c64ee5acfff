"""freshsim benchmark: host time per simulated event for every protection mode.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

For the chosen workload the benchmark generates a seeded trace, writes it to
a binary trace file and runs it through all four modes several times.  Each
four-mode run loads the file and builds one engine per mode through the
public ``freshsim.cli`` functions (set-up), then replays the whole trace
through every engine's ``process_access`` in this one process and thread (a
closed loop with a single caller).  Every run builds fresh engines, so the
host caches start empty as in a ``simulate`` run.

A first, checked run feeds the correctness gate and gives the reference
SHA-256 stats digests.  ``--trace 0`` then repeats timed runs to fill
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` alternates
timed runs with traced ones and prints the per-layer metrics (see
``tracing.py`` and ``NOTES.md``).  Every run must reproduce the reference
digests.  The last stdout line is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
import tracemalloc
from collections import Counter, OrderedDict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

if not (SRC / "freshsim" / "__init__.py").is_file():
    sys.exit(f"error: no freshsim sources under {SRC}; run from a freshsim checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from freshsim import cli  # noqa: E402
from freshsim.core import SimError  # noqa: E402
from freshsim.traces import (  # noqa: E402
    PatternSpec,
    encode_binary_trace,
    encode_text_trace,
    generate,
    parse_binary_trace,
    parse_text_trace,
)
from tracing import ROOT_SPAN, Instrumented, SpanRecorder  # noqa: E402

MIB = 1 << 20
FOOTPRINT = 64 * MIB  # 64x the flat cache's reach, 8x the MAC cache's data
EVENTS = 100_000
MODES = ("none", "ci", "toleo", "merkle")
BASELINES = ("none", "ci", "merkle")
SETUP_SAMPLES = 7
MIN_TIMED_RUNS = 3  # so that every segment's median can drop one outlier
SEGMENT_EVENTS = 2_000
# Host speed on a shared machine drifts by tens of percent over seconds to
# minutes.  Host times are therefore reported normalized: multiplied by
# CAL_NOMINAL_S over the time the calibration kernel (``calibrate``) took
# right beside them.  CAL_NOMINAL_S is its typical time on a quiet 2-vCPU
# host under CPython 3.11, so normalized figures read as seconds there.
CAL_ITERATIONS = 3_000
CAL_NOMINAL_S = 0.0015

# Why each workload is here: see NOTES.md.
WORKLOADS = {
    "zipf_mixed": {"kind": "zipfian", "zipf_skew": 0.99, "write_fraction": 0.3},
    "hot_write": {"kind": "hot_block", "write_fraction": 0.7, "hot_set_bytes": 1 * MIB},
    "uniform_read": {"kind": "page_uniform", "write_fraction": 0.05},
}

END_TO_END = {
    "setup_s": "s",
    "none_events_per_s": "events/s",
    "ci_events_per_s": "events/s",
    "toleo_events_per_s": "events/s",
    "merkle_events_per_s": "events/s",
    "compare_s": "s",
    "peak_rss_mib": "MiB",
    "toleo_sim_read_ns": "sim_ns",
    "merkle_sim_read_ns": "sim_ns",
    "toleo_sim_device_bytes_per_event": "B/event",
    "merkle_sim_device_bytes_per_event": "B/event",
}

PER_LAYER = {
    "traces.generate_events_per_s": "events/s",
    "traces.encode_binary_events_per_s": "events/s",
    "traces.parse_binary_events_per_s": "events/s",
    "traces.parse_text_events_per_s": "events/s",
    "traces.bytes_per_event": "B/event",
    "cli.load_trace_s": "s",
    "cli.build_engine_s": "s",
    "version_store.update_per_s": "updates/s",
    "version_store.update_version_self_s": "s",
    "version_store.update_version_calls": "count",
    "version_store.entry_image_self_s": "s",
    "version_store.entry_image_calls": "count",
    "version_store.entry_lines_self_s": "s",
    "version_store.entry_lines_calls": "count",
    "version_store.upgrades_to_uneven": "count",
    "version_store.normalizations": "count",
    "version_store.upgrades_to_full": "count",
    "version_store.resets": "count",
    "version_store.pages_uneven": "count",
    "version_store.pages_full": "count",
    "version_store.peak_dynamic_bytes": "B",
    "core.pack_bitfields_self_s": "s",
    "core.pack_bitfields_calls": "count",
    "core.unpack_bitfields_self_s": "s",
    "core.unpack_bitfields_calls": "count",
    "caches.flat_self_s": "s",
    "caches.overflow_self_s": "s",
    "caches.mac_self_s": "s",
    "caches.overflow_invalidate_calls": "count",
    "caches.flat_hit_ratio": "ratio",
    "caches.flat_hits": "count",
    "caches.flat_misses": "count",
    "caches.overflow_hit_ratio": "ratio",
    "caches.overflow_hits": "count",
    "caches.overflow_misses": "count",
    "caches.mac_hit_ratio": "ratio",
    "caches.mac_hits": "count",
    "caches.mac_misses": "count",
    "engine.process_access_s": "s",
    "engine.self_s": "s",
    "engine.decode_self_s": "s",
    "engine.device_transactions_per_event": "tx/event",
    "engine.trace_overhead_ratio": "ratio",
    "baselines.tree_access_self_s": "s",
    "baselines.tree_access_per_s": "accesses/s",
    "baselines.tree_fetches_per_event": "fetches/event",
    "baselines.counter_cache_hit_ratio": "ratio",
    "baselines.none_self_s": "s",
    "baselines.ci_self_s": "s",
    "baselines.merkle_self_s": "s",
}

LADDER_EVENTS = {
    "upgraded_to_uneven": "version_store.upgrades_to_uneven",
    "normalized": "version_store.normalizations",
    "upgraded_to_full": "version_store.upgrades_to_full",
    "reset_triggered": "version_store.resets",
}


# -- environment ------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "events": args.events,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- replay loops ----------------------------------------------------------------------


def replay(engine, events) -> dict:
    """The bare event loop of ``simulate``; raised events are counted, not fatal."""
    access = engine.process_access
    failed = 0
    t0 = perf_counter()
    for op, addr in events:
        try:
            access(op, addr)
        except SimError:
            failed += 1
    return {"seconds": perf_counter() - t0, "failed": failed}


def checked_replay(engine, events) -> dict:
    """Replay that also sums every AccessOutcome for the correctness gate."""
    access = engine.process_access
    failed = local = pool = mac = device = max_tx = 0
    ladder: Counter = Counter()
    for op, addr in events:
        try:
            out = access(op, addr)
        except SimError:
            failed += 1
            continue
        local += out.local_bytes
        pool += out.pool_bytes
        mac += out.mac_bytes
        device += out.device_bytes
        if out.device_transactions > max_tx:
            max_tx = out.device_transactions
        if out.events:
            ladder.update(out.events)
    result = {
        "failed": failed,
        "outcome_bytes": {"local_bytes": local, "pool_bytes": pool,
                          "mac_bytes": mac, "device_bytes": device},
        "max_device_transactions": max_tx,
        "ladder": ladder,
    }
    tree = getattr(engine, "tree", None)
    if tree is not None:
        result["counter_cache"] = (tree.cache.hits, tree.cache.misses)
    return result


def traced_replay(spans_prefix: Path | None):
    def run(engine, events) -> dict:
        recorder = SpanRecorder()
        with Instrumented(recorder, engine):
            result = replay(engine, events)
        result["spans"] = recorder.summary()
        if spans_prefix is not None:
            OUT_DIR.mkdir(exist_ok=True)
            recorder.save(f"{spans_prefix}-{engine.mode}.spans.npz")
        return result

    return run


def calibrate() -> float:
    """Host seconds for a fixed slice of pure-Python work shaped like the
    simulator's own (integer arithmetic, dict counters, an OrderedDict LRU).

    The cyclic collector is paused so that a collection owed to the
    simulator's allocations is never charged to the kernel."""
    gc.disable()
    t0 = perf_counter()
    lru: OrderedDict = OrderedDict()
    counts: dict = {}
    x = 12345
    for i in range(CAL_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 1023
        if key in lru:
            lru.move_to_end(key)
        else:
            lru[key] = i
            if len(lru) > 256:
                lru.popitem(last=False)
        counts[key] = counts.get(key, 0) + 1
    seconds = perf_counter() - t0
    gc.enable()
    return seconds


def setup(configs: dict, trace_path: str):
    """What a user pays before the first event: load the trace, build engines.

    Calibration runs bracket the set-up, so its time can be normalized."""
    ref0 = calibrate()
    t0 = perf_counter()
    events = cli.resolve_trace(configs["toleo"], trace_path)
    t1 = perf_counter()
    engines = {mode: cli.build_engine(configs[mode]) for mode in MODES}
    t2 = perf_counter()
    ref1 = calibrate()
    timing = {
        "load_s": t1 - t0,
        "build_s": t2 - t1,
        "setup_s": t2 - t0,
        "setup_norm_s": (t2 - t0) * 2 * CAL_NOMINAL_S / (ref0 + ref1),
        "ref_s": ref1,
    }
    return events, engines, timing


def four_mode_run(configs: dict, trace_path: str, runner) -> dict:
    """Set up, then replay the trace through every mode back to back."""
    gc.collect()
    events, engines, run = setup(configs, trace_path)
    run["modes"] = {}
    for mode in MODES:
        result = runner(engines[mode], events)
        result["stats"] = engines[mode].stats()
        run["modes"][mode] = result
    run["events"] = len(events)
    return run


def interleaved_run(configs: dict, trace_path: str) -> dict:
    """Set up, then replay the trace segment by segment, each segment through
    every mode in turn, with a calibration run between any two replays.

    Each engine still sees the whole trace in order, so its stats equal those
    of a back-to-back replay.  Interleaving exposes every mode to the same
    host conditions, and each segment time is normalized by the calibration
    runs on either side of it.
    """
    gc.collect()
    events, engines, run = setup(configs, trace_path)
    chunks = [events[i:i + SEGMENT_EVENTS] for i in range(0, len(events), SEGMENT_EVENTS)]
    modes = {mode: {"segments": [], "norm_segments": [], "failed": 0} for mode in MODES}
    ref = run["ref_s"]
    for chunk in chunks:
        for mode in MODES:
            result = replay(engines[mode], chunk)
            ref_next = calibrate()
            modes[mode]["segments"].append(result["seconds"])
            modes[mode]["norm_segments"].append(
                result["seconds"] * 2 * CAL_NOMINAL_S / (ref + ref_next)
            )
            modes[mode]["failed"] += result["failed"]
            ref = ref_next
    for mode in MODES:
        modes[mode]["stats"] = engines[mode].stats()
        modes[mode]["seconds"] = sum(modes[mode]["segments"])
    run["modes"] = modes
    run["events"] = len(events)
    return run


def digest(stats: dict) -> str:
    canonical = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- correctness gate -------------------------------------------------------------------


def gate(checked: dict, trace_reads: int, trace_writes: int, block_bytes: int) -> list[str]:
    problems = []
    data_bytes = None
    for mode, result in checked["modes"].items():
        s = result["stats"]
        ch = s["channels"]
        if s["events"] != s["reads"] + s["writes"]:
            problems.append(f"{mode}: events {s['events']} != reads + writes")
        if (s["reads"], s["writes"]) != (trace_reads, trace_writes):
            problems.append(
                f"{mode}: {s['reads']} reads / {s['writes']} writes, "
                f"trace has {trace_reads} / {trace_writes}"
            )
        # a stealth reset re-encrypts its page: extra data writes, toleo only
        mode_data = ch["local_bytes"] + ch["pool_bytes"] - s["reencrypted_blocks"] * block_bytes
        if data_bytes is None:
            data_bytes = mode_data
        elif mode_data != data_bytes:
            problems.append(
                f"{mode}: local + pool bytes less re-encryption {mode_data} != {data_bytes}"
            )
        if mode in ("none", "ci") and ch["device_bytes"] != 0:
            problems.append(f"{mode}: device_bytes {ch['device_bytes']} != 0")
        if mode == "toleo" and result["max_device_transactions"] > 1:
            problems.append(
                f"toleo: {result['max_device_transactions']} device transactions in one event"
            )
        for key, total in result["outcome_bytes"].items():
            if total != ch[key]:
                problems.append(f"{mode}: AccessOutcome {key} sum {total} != stats {ch[key]}")
    return problems


def digest_problems(reference: dict, run: dict, what: str) -> list[str]:
    return [
        f"{mode}: {what} stats digest {digest(run['modes'][mode]['stats'])[:16]} "
        f"!= checked run's {reference[mode][:16]}"
        for mode in MODES
        if digest(run["modes"][mode]["stats"]) != reference[mode]
    ]


# -- metrics -----------------------------------------------------------------------------


def ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def replay_seconds(runs: list[dict], mode: str, key: str) -> float:
    """Whole-trace replay time of a mode: the sum over segments of each
    segment's median time across the timed runs."""
    per_run = [r["modes"][mode][key] for r in runs]
    return sum(statistics.median(times) for times in zip(*per_run))


def host_times(runs: list[dict], setups: list[float], key: str) -> dict:
    n = runs[0]["events"]
    replays = {mode: replay_seconds(runs, mode, key) for mode in MODES}
    setup_s = statistics.median(setups)
    metrics = {"setup_s": setup_s, "compare_s": setup_s + sum(replays.values())}
    for mode in MODES:
        metrics[f"{mode}_events_per_s"] = n / replays[mode]
    return metrics


def end_to_end(checked: dict, runs: list[dict], setups: list[float]) -> dict:
    """Host times normalized by calibration; simulated figures are exact."""
    n = checked["events"]
    toleo = checked["modes"]["toleo"]["stats"]
    merkle = checked["modes"]["merkle"]["stats"]
    metrics = host_times(runs, setups, "norm_segments")
    metrics.update({
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "toleo_sim_read_ns": toleo["avg_read_latency_ns"],
        "merkle_sim_read_ns": merkle["avg_read_latency_ns"],
        "toleo_sim_device_bytes_per_event": toleo["channels"]["device_bytes"] / n,
        "merkle_sim_device_bytes_per_event": merkle["channels"]["device_bytes"] / n,
    })
    return metrics


def span_metrics(run: dict) -> dict:
    """Per-layer self times and call counts from one traced four-mode run."""
    spans = {mode: run["modes"][mode]["spans"] for mode in MODES}
    toleo = spans["toleo"]

    def calls(name):
        return toleo.get(name, (0, 0.0, 0.0))[0]

    def own(name, mode="toleo"):
        return spans[mode].get(name, (0, 0.0, 0.0))[2]

    def own_prefix(prefix):
        return sum(v[2] for k, v in toleo.items() if k.startswith(prefix))

    metrics = {
        "engine.process_access_s": toleo[ROOT_SPAN][1],
        "engine.self_s": toleo[ROOT_SPAN][2],
        "engine.decode_self_s": own_prefix("engine.decode_"),
        "caches.flat_self_s": own_prefix("flat_cache."),
        "caches.overflow_self_s": own_prefix("overflow."),
        "caches.mac_self_s": own_prefix("mac_cache."),
        "caches.overflow_invalidate_calls": calls("overflow.invalidate"),
        "baselines.tree_access_self_s": own("tree.access", "merkle"),
    }
    for method in ("update_version", "entry_image", "entry_lines"):
        metrics[f"version_store.{method}_self_s"] = own(f"store.{method}")
        metrics[f"version_store.{method}_calls"] = calls(f"store.{method}")
    for fn in ("pack_bitfields", "unpack_bitfields"):
        metrics[f"core.{fn}_self_s"] = own(f"version_store.{fn}")
        metrics[f"core.{fn}_calls"] = calls(f"version_store.{fn}")
    for mode in BASELINES:
        metrics[f"baselines.{mode}_self_s"] = own(ROOT_SPAN, mode)
    return metrics


def counted_metrics(checked: dict) -> dict:
    """Per-layer numbers the simulator counts; identical in every run."""
    n = checked["events"]
    toleo = checked["modes"]["toleo"]
    s = toleo["stats"]
    merkle = checked["modes"]["merkle"]
    metrics = {
        "version_store.pages_uneven": s["page_formats"]["uneven"],
        "version_store.pages_full": s["page_formats"]["full"],
        "version_store.peak_dynamic_bytes": s["device"]["peak_bytes"] - s["device"]["static_bytes"],
        "engine.device_transactions_per_event": s["device"]["transactions"] / n,
        "baselines.tree_fetches_per_event": merkle["stats"]["tree"]["fetches"] / n,
        "baselines.counter_cache_hit_ratio": ratio(*merkle["counter_cache"]),
    }
    for event, name in LADDER_EVENTS.items():
        metrics[name] = toleo["ladder"][event]
    for cache in ("flat", "overflow", "mac"):
        c = s["caches"][cache]
        metrics[f"caches.{cache}_hits"] = c["hits"]
        metrics[f"caches.{cache}_misses"] = c["misses"]
        metrics[f"caches.{cache}_hit_ratio"] = ratio(c["hits"], c["misses"])
    return metrics


def standalone_metrics(events, data: bytes, configs: dict) -> dict:
    """Layer timings that need no engine: trace formats, store, counter tree."""
    n = len(events)
    t0 = perf_counter()
    parse_binary_trace(data)
    t1 = perf_counter()
    text = encode_text_trace(events)
    t2 = perf_counter()
    parse_text_trace(text)
    t3 = perf_counter()
    del text

    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    parsed = parse_binary_trace(data)
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    del parsed

    store = cli.build_engine(configs["toleo"]).store
    write_addrs = [addr for op, addr in events if op == "W"]
    update = store.update_version
    t4 = perf_counter()
    for addr in write_addrs:
        update(addr)
    t5 = perf_counter()

    tree_access = cli.build_engine(configs["merkle"]).tree.access
    t6 = perf_counter()
    for op, addr in events:
        tree_access(addr, op == "W")
    t7 = perf_counter()
    return {
        "traces.parse_binary_events_per_s": n / (t1 - t0),
        "traces.parse_text_events_per_s": n / (t3 - t2),
        "traces.bytes_per_event": held / n,
        "version_store.update_per_s": len(write_addrs) / (t5 - t4) if write_addrs else 0.0,
        "baselines.tree_access_per_s": n / (t7 - t6),
    }


# -- command line ------------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float,
                   help="measuring time; whole four-mode runs are repeated to fill it")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1),
                   help="0: end-to-end metrics; 1: traced run, per-layer metrics")
    p.add_argument("--events", type=int, default=EVENTS,
                   help=f"trace length (default {EVENTS}; smaller only for smoke tests)")
    args = p.parse_args(argv)
    if args.events < 1 or args.seconds <= 0:
        p.error("--events and --seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    seed = args.seed
    spec = PatternSpec(footprint_bytes=FOOTPRINT, op_count=args.events, seed=seed,
                       **WORKLOADS[args.workload])
    configs = {
        mode: cli.resolve_config(
            {"mode": mode, "protected_bytes": FOOTPRINT, "reset_exp": 20, "seed": seed}
        )
        for mode in MODES
    }
    print("env " + json.dumps(environment(args), sort_keys=True))

    layer: dict = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as tmp:
        trace_path = os.path.join(tmp, "trace.bin")
        t0 = perf_counter()
        events = generate(spec)
        t1 = perf_counter()
        data = encode_binary_trace(events)
        t2 = perf_counter()
        with open(trace_path, "wb") as fh:
            fh.write(data)
        trace_writes = sum(1 for op, _ in events if op == "W")
        trace_reads = len(events) - trace_writes
        if args.trace:
            layer["traces.generate_events_per_s"] = len(events) / (t1 - t0)
            layer["traces.encode_binary_events_per_s"] = len(events) / (t2 - t1)
            layer.update(standalone_metrics(events, data, configs))
        del events, data

        t0 = perf_counter()
        checked = four_mode_run(configs, trace_path, checked_replay)
        checked_s = perf_counter() - t0
        problems = gate(checked, trace_reads, trace_writes, configs["toleo"]["block_bytes"])
        reference = {mode: digest(checked["modes"][mode]["stats"]) for mode in MODES}
        runs, traced = [], []
        if args.trace:
            for i in range(max(1, round(args.seconds / (3 * checked_s)))):
                runs.append(interleaved_run(configs, trace_path))
                spans_prefix = OUT_DIR / args.workload if i == 0 else None
                traced.append(four_mode_run(configs, trace_path, traced_replay(spans_prefix)))
        else:
            repeats = max(MIN_TIMED_RUNS, round(args.seconds / checked_s))
            runs = [interleaved_run(configs, trace_path) for _ in range(repeats)]
        for run in runs:
            problems += digest_problems(reference, run, "untraced")
        for run in traced:
            problems += digest_problems(reference, run, "traced")

        everything = [checked] + runs + traced
        setups = everything[:]
        while len(setups) < SETUP_SAMPLES:
            gc.collect()
            setups.append(setup(configs, trace_path)[2])

    attempted = sum(r["events"] * len(MODES) for r in everything)
    failed = sum(m["failed"] for r in everything for m in r["modes"].values())
    for mode in MODES:
        print(f"digest {mode} {reference[mode]}")
    print(f"metric failed_event_share {failed / attempted!r} ratio")

    if args.trace:
        layer["cli.load_trace_s"] = statistics.median(r["load_s"] for r in setups)
        layer["cli.build_engine_s"] = statistics.median(r["build_s"] for r in setups)
        layer.update(counted_metrics(checked))
        per_run = [span_metrics(r) for r in traced]
        for name in per_run[0]:
            layer[name] = statistics.median(m[name] for m in per_run)
        layer["engine.trace_overhead_ratio"] = (
            statistics.median(r["modes"]["toleo"]["seconds"] for r in traced)
            / statistics.median(r["modes"]["toleo"]["seconds"] for r in runs)
        )
        values, units = layer, PER_LAYER
    else:
        values = end_to_end(checked, runs, [r["setup_norm_s"] for r in setups])
        units = END_TO_END
        raw = host_times(runs, [r["setup_s"] for r in setups], "segments")
        for name, value in raw.items():
            print(f"raw {name} {value!r} {END_TO_END[name]}")
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
