"""Batch front-end: run trace simulations from JSON configs, generate
synthetic traces, evaluate the security bounds, and compare protection
modes into a CSV.

Exit status is 0 on success and 2 on any configuration error, trace
problem, capacity rejection, or kill-switch, with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from .analysis import (
    ExhaustionQuery,
    analytic_exhaustion_prob,
    exhaustion_bound,
    mc_exhaustion,
    mc_replay,
    replay_success_prob,
)
from .baselines import CiEngine, CounterTreeConfig, MerkleEngine, NoneEngine
from .core import ConfigError, Geometry, SecurityParams, SimError
from .engine import EngineConfig, HostEngine, SimulationHalted
from .traces import PatternSpec, generate, load_trace, save_trace

MODES = ("none", "ci", "toleo", "merkle")

_GEOMETRY_KEYS = ("page_bytes", "block_bytes", "mac_bits", "macs_per_block")
_SECURITY_KEYS = ("stealth_bits", "upper_bits", "reset_exp")
_ENGINE_KEYS = (
    "protected_bytes",
    "device_capacity_bytes",
    "local_bytes",
    "local_ns",
    "cxl_ns",
    "pool_dram_ns",
    "device_dram_ns",
    "cipher_cycles",
    "clock_ghz",
    "flat_cache_entries",
    "overflow_bytes",
    "overflow_assoc",
    "mac_cache_bytes",
    "mac_assoc",
    "device_message_bytes",
    "functional",
    "debug",
    "seed",
)
_TREE_KEYS = (
    "arity",
    "node_bytes",
    "counters_per_leaf_node",
    "root_bytes",
    "counter_cache_bytes",
    "counter_cache_assoc",
)
_TOP_KEYS = frozenset(
    ("mode", "trace", "tree") + _GEOMETRY_KEYS + _SECURITY_KEYS + _ENGINE_KEYS
)

# JSON value types a dataclass field accepts, by its annotation: (types,
# description).  A bool is not an integer here, although Python treats it
# as one.
_ACCEPTS = {
    "int": ((int,), "an integer"),
    "int | None": ((int, type(None)), "an integer or null"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
}
_INT = _ACCEPTS["int"]


def _field_types(klass, keys=None) -> dict:
    return {
        f.name: _ACCEPTS[f.type]
        for f in dataclasses.fields(klass)
        if keys is None or f.name in keys
    }


_RUN_TYPES = {
    **_field_types(Geometry, _GEOMETRY_KEYS),
    **_field_types(SecurityParams, _SECURITY_KEYS),
    **_field_types(EngineConfig, _ENGINE_KEYS),
}
_TREE_TYPES = _field_types(CounterTreeConfig, _TREE_KEYS)
_PATTERN_TYPES = _field_types(PatternSpec)


def default_config() -> dict:
    """Full default run configuration; a config file overrides parts of it."""
    cfg: dict = {"mode": "toleo", "trace": None, "tree": {}}
    for klass, keys in (
        (Geometry, _GEOMETRY_KEYS),
        (SecurityParams, _SECURITY_KEYS),
        (EngineConfig, _ENGINE_KEYS),
    ):
        defaults = {f.name: f.default for f in dataclasses.fields(klass)}
        for key in keys:
            cfg[key] = defaults[key]
    return cfg


def _check_keys(doc: dict, allowed, what: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")


def _check_types(doc, types: dict, what: str) -> None:
    """Reject a non-object ``doc`` and any value of a key in ``types`` whose
    JSON type that key does not accept."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    for key, value in doc.items():
        accepts = types.get(key)
        if accepts is not None and type(value) not in accepts[0]:
            raise ConfigError(f"{what} key {key!r} must be {accepts[1]}, got {value!r}")


def resolve_config(doc: dict | None) -> dict:
    cfg = default_config()
    if doc:
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        _check_keys(doc, _TOP_KEYS, "config")
        cfg.update(doc)
    if cfg["mode"] not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {cfg['mode']!r}")
    _check_types(cfg, _RUN_TYPES, "config")
    _check_types(cfg["tree"] or {}, _TREE_TYPES, "tree")
    return cfg


def _pattern_spec(doc) -> PatternSpec:
    _check_types(doc, _PATTERN_TYPES, "pattern")
    return PatternSpec.from_json(doc)


def build_engine(cfg: dict):
    geometry = Geometry(**{k: cfg[k] for k in _GEOMETRY_KEYS})
    params = SecurityParams(**{k: cfg[k] for k in _SECURITY_KEYS})
    ecfg = EngineConfig(
        geometry=geometry, params=params, **{k: cfg[k] for k in _ENGINE_KEYS}
    )
    mode = cfg["mode"]
    if mode == "toleo":
        return HostEngine(ecfg)
    if mode == "none":
        return NoneEngine(ecfg)
    if mode == "ci":
        return CiEngine(ecfg)
    tree_doc = cfg.get("tree") or {}
    _check_keys(tree_doc, _TREE_KEYS, "tree")
    tree = CounterTreeConfig(
        protected_bytes=ecfg.protected_bytes, geometry=geometry, **tree_doc
    )
    return MerkleEngine(ecfg, tree)


def resolve_trace(cfg: dict, trace_flag: str | None):
    source = {"file": trace_flag} if trace_flag else cfg.get("trace")
    if not source:
        raise ConfigError("no trace source: set 'trace' in the config or pass --trace")
    if not isinstance(source, dict):
        raise ConfigError("config 'trace' must be {'file': ...} or {'pattern': ...}")
    if "file" in source:
        return load_trace(source["file"])
    if "pattern" in source:
        return generate(_pattern_spec(source["pattern"]))
    raise ConfigError("config 'trace' must contain a 'file' or 'pattern' entry")


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit_json(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_run_config(args) -> dict:
    doc = _read_json(args.config) if args.config else None
    cfg = resolve_config(doc)
    if getattr(args, "mode", None):
        cfg["mode"] = args.mode
        if cfg["mode"] not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}")
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _run(engine, events) -> int:
    try:
        for ev in events:
            engine.process_access(ev.op, ev.addr)
    except SimulationHalted as exc:
        print(f"simulation halted: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
    events = resolve_trace(cfg, args.trace)
    engine = build_engine(cfg)
    code = _run(engine, events)
    _emit_json(engine.stats(), args.out)
    return code


def cmd_gen_trace(args) -> int:
    if not args.config:
        raise ConfigError("gen-trace needs --config with a pattern description")
    doc = _read_json(args.config)
    if "kind" not in doc:
        # full run config: pull the inline pattern out of it
        trace = resolve_config(doc).get("trace") or {}
        doc = trace.get("pattern")
        if doc is None:
            raise ConfigError("config has no trace.pattern to generate from")
    if args.seed is not None:
        doc = dict(doc, seed=args.seed)
    events = generate(_pattern_spec(doc))
    if args.out:
        form = "binary" if args.out.endswith(".bin") else "text"
        save_trace(events, args.out, form=form)
    else:
        from .traces import encode_text_trace

        sys.stdout.write(encode_text_trace(events))
    return 0


def _mc_params(doc, required: tuple, optional: tuple, what: str) -> dict:
    """A Monte Carlo section: integer values, every required key present."""
    _check_types(doc, dict.fromkeys(required + optional, _INT), what)
    _check_keys(doc, required + optional, what)
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"{what} needs key(s): {', '.join(missing)}")
    return dict(doc)


def cmd_analyze_security(args) -> int:
    doc = _read_json(args.config) if args.config else {}
    _check_types(doc, {}, "analysis")
    _check_keys(doc, ("exhaustion", "replay", "monte_carlo"), "analysis")

    ex_doc = doc.get("exhaustion") or {}
    _check_types(ex_doc, _field_types(ExhaustionQuery), "exhaustion")
    _check_keys(
        ex_doc,
        ("total_updates", "interval_updates", "interval_count", "reset_exp"),
        "exhaustion",
    )
    query = ExhaustionQuery(**ex_doc)
    replay_doc = doc.get("replay") or {}
    _check_types(replay_doc, {"stealth_bits": _INT}, "replay")
    _check_keys(replay_doc, ("stealth_bits",), "replay")
    stealth_bits = replay_doc.get("stealth_bits", SecurityParams().stealth_bits)

    report = {
        "exhaustion": {
            "query": dataclasses.asdict(query),
            "analytic": exhaustion_bound(query),
        },
        "replay": {
            "stealth_bits": stealth_bits,
            "analytic": replay_success_prob(stealth_bits),
        },
    }

    mc_doc = doc.get("monte_carlo") or {}
    _check_types(mc_doc, {}, "monte_carlo")
    _check_keys(mc_doc, ("exhaustion", "replay"), "monte_carlo")
    if "exhaustion" in mc_doc:
        p = _mc_params(
            mc_doc["exhaustion"],
            ("stealth_bits", "reset_exp"),
            ("addresses", "updates_per_address", "trials", "seed"),
            "monte_carlo.exhaustion",
        )
        if args.seed is not None:
            p["seed"] = args.seed
        est = mc_exhaustion(**p)
        p.setdefault("addresses", 1)
        p.setdefault("updates_per_address", 4 << p["stealth_bits"])
        report["exhaustion"]["monte_carlo"] = {
            "estimate": est.estimate,
            "stderr": est.stderr,
            "trials": est.trials,
            "analytic": analytic_exhaustion_prob(
                p["stealth_bits"], p["reset_exp"], p["updates_per_address"], p["addresses"]
            ),
            "parameters": {k: v for k, v in sorted(p.items()) if k != "trials"},
        }
    if "replay" in mc_doc:
        p = _mc_params(
            mc_doc["replay"], ("stealth_bits",), ("trials", "seed"), "monte_carlo.replay"
        )
        if args.seed is not None:
            p["seed"] = args.seed
        est = mc_replay(**p)
        report["replay"]["monte_carlo"] = {
            "estimate": est.estimate,
            "stderr": est.stderr,
            "trials": est.trials,
            "analytic": replay_success_prob(p["stealth_bits"]),
            "parameters": {k: v for k, v in sorted(p.items()) if k != "trials"},
        }
    _emit_json(report, args.out)
    return 0


# compare CSV: one column per (name, dotted path into stats()); a mode
# without the section (only merkle has "tree") reports 0
CSV_FIELDS = (
    ("mode", "mode"),
    ("events", "events"),
    ("reads", "reads"),
    ("writes", "writes"),
    ("local_bytes", "channels.local_bytes"),
    ("pool_bytes", "channels.pool_bytes"),
    ("mac_bytes", "channels.mac_bytes"),
    ("device_bytes", "channels.device_bytes"),
    ("device_transactions", "device.transactions"),
    ("resets", "resets"),
    ("reencrypted_blocks", "reencrypted_blocks"),
    ("avg_read_latency_ns", "avg_read_latency_ns"),
    ("pages_flat", "page_formats.flat"),
    ("pages_uneven", "page_formats.uneven"),
    ("pages_full", "page_formats.full"),
    ("device_static_bytes", "device.static_bytes"),
    ("device_dynamic_bytes", "device.dynamic_bytes"),
    ("device_peak_bytes", "device.peak_bytes"),
    ("tree_depth", "tree.depth"),
    ("tree_fetches", "tree.fetches"),
)
CSV_COLUMNS = tuple(name for name, _ in CSV_FIELDS)


def _csv_value(stats: dict, path: str):
    value = stats
    for key in path.split("."):
        if key not in value:
            return 0
        value = value[key]
    return value


def cmd_compare(args) -> int:
    if len(args.configs) < 2:
        raise ConfigError("compare needs at least two configs")
    reference_events = None
    rows = []
    for path in args.configs:
        cfg = resolve_config(_read_json(path))
        if args.seed is not None:
            cfg["seed"] = args.seed
        events = resolve_trace(cfg, args.trace)
        if reference_events is None:
            reference_events = events
        elif events != reference_events:
            raise ConfigError(
                f"trace mismatch: {path} does not replay the same events as {args.configs[0]}"
            )
        engine = build_engine(cfg)
        code = _run(engine, events)
        if code:
            return code
        stats = engine.stats()
        rows.append([_csv_value(stats, path) for _, path in CSV_FIELDS])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freshsim",
        description="Trace-driven simulator for device-backed memory freshness protection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trace=False, mode=False):
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument("--seed", type=int, metavar="N", help="override the config seed")
        p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
        if trace:
            p.add_argument("--trace", metavar="PATH", help="trace file (overrides config)")
        if mode:
            p.add_argument("--mode", choices=MODES, help="protection mode (overrides config)")

    p = sub.add_parser("simulate", help="run one mode over a trace, emit JSON stats")
    common(p, trace=True, mode=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen-trace", help="generate a synthetic trace from a pattern spec")
    common(p)
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("analyze-security", help="evaluate reset/exhaustion/replay bounds")
    common(p)
    p.set_defaults(func=cmd_analyze_security)

    p = sub.add_parser("compare", help="run several configs on one trace, emit merged CSV")
    common(p, trace=True)
    p.add_argument("configs", nargs="+", metavar="CONFIG", help="config files (>= 2)")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SimError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
