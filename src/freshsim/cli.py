"""Batch front-end: run trace simulations from JSON configs, generate
synthetic traces, evaluate the security bounds, and compare protection
modes into a CSV.

Each input section's keys are the fields of the dataclass it builds (a run
config's are those of ``Geometry``, ``SecurityParams`` and ``EngineConfig``,
plus ``mode``, ``trace`` and ``tree``).  ``_check`` refuses a section that is
no object, an unknown key and a missing required key; each value is checked
once, by building its dataclass (``core.check_fields``).  Both name the key.
``resolve_config`` builds a run config's engine and inline pattern before
any trace is read, and ``compare`` resolves every config before it replays
any.  The CLI checks only what no dataclass reads: ``mode`` is one of
``MODES``, ``trace.file`` a string, a seed that ``--seed`` replaces an
integer, and no Monte Carlo key is null.

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
    ExhaustionRun,
    ReplayQuery,
    ReplayRun,
    RunModelCapError,
    analytic_exhaustion_prob,
    exhaustion_bound,
    mc_exhaustion,
    mc_replay,
    replay_success_prob,
)
from .baselines import CiEngine, CounterTreeConfig, MerkleEngine, NoneEngine
from .core import ConfigError, Geometry, SecurityParams, SimError
from .engine import EngineConfig, HostEngine, SimulationHalted
from .traces import PatternSpec, generate, load_trace, save_trace, text_chunks

MODES = ("none", "ci", "toleo", "merkle")


def _schema(klass, *skip: str) -> dict:
    """A section's schema: the fields of ``klass`` but ``skip``."""
    return dict.fromkeys(f.name for f in dataclasses.fields(klass) if f.name not in skip)


def _required(klass) -> tuple:
    """The fields of ``klass`` a section must give: those with no default."""
    return tuple(f.name for f in dataclasses.fields(klass) if f.default is dataclasses.MISSING)


# A schema maps each key to None, or a nested section to its own schema,
# which is checked on its own.
_GEOMETRY = _schema(Geometry)
_SECURITY = _schema(SecurityParams)
_ENGINE = _schema(EngineConfig, "geometry", "params")
_TREE = _schema(CounterTreeConfig)
_PATTERN = _schema(PatternSpec)
_TRACE = {"file": None, "pattern": _PATTERN}
_RUN = {**_GEOMETRY, **_SECURITY, **_ENGINE, "mode": None, "trace": _TRACE, "tree": _TREE}
_ANALYSIS = {
    "exhaustion": _schema(ExhaustionQuery),
    "replay": _schema(ReplayQuery),
    "monte_carlo": {"exhaustion": _schema(ExhaustionRun), "replay": _schema(ReplayRun)},
}
# a document holding any of these is a bare pattern, not a run config
_PATTERN_ONLY = _PATTERN.keys() - _RUN.keys()


def _check(doc, schema: dict, what: str, required=()) -> None:
    """Reject a non-object ``doc``, a key ``schema`` lacks and a missing
    ``required`` key, naming the key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(doc.keys() - schema.keys())
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"{what} needs key(s): {', '.join(missing)}")


def _section(doc):
    """A document or section as read: null means absent, so empty."""
    return {} if doc is None else doc


def _seeded(doc: dict, seed: int | None) -> dict:
    """``doc`` with ``seed`` (``--seed``), when given, over its own seed,
    which no dataclass then reads: so it must be an integer all the same."""
    if seed is not None and type(doc.get("seed", 0)) is not int:
        raise ConfigError(f"seed must be an integer, got {doc['seed']!r}")
    return doc if seed is None else {**doc, "seed": seed}


def default_config() -> dict:
    """Full default run configuration; a config file overrides parts of it."""
    cfg: dict = {"mode": "toleo", "trace": None, "tree": {}}
    for klass, schema in ((Geometry, _GEOMETRY), (SecurityParams, _SECURITY),
                          (EngineConfig, _ENGINE)):
        defaults = klass()
        cfg.update((key, getattr(defaults, key)) for key in schema)
    return cfg


def resolve_config(doc: dict | None, mode: str | None = None, seed: int | None = None) -> dict:
    """The defaults overlaid with ``doc``, then with ``mode`` and ``seed``
    (``--mode``, ``--seed``) where given, checked by building its engine and
    its inline pattern."""
    doc = _section(doc)
    _check(doc, _RUN, "config")
    cfg = {**default_config(), **doc}
    if cfg["mode"] not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {cfg['mode']!r}")
    cfg = _seeded({**cfg, "mode": mode or cfg["mode"]}, seed)
    if cfg["tree"] is not None:
        _check(cfg["tree"], _TREE, "tree")
    trace = cfg["trace"]
    if trace is not None:
        _check(trace, _TRACE, "trace")
        if type(trace.get("file", "")) is not str:
            raise ConfigError(f"trace key 'file' must be a string, got {trace['file']!r}")
        if "pattern" in trace:
            _check(trace["pattern"], _PATTERN, "pattern", _required(PatternSpec))
            PatternSpec(**trace["pattern"])
    build_engine(cfg)
    return cfg


def build_engine(cfg: dict):
    geometry = Geometry(**{k: cfg[k] for k in _GEOMETRY})
    params = SecurityParams(**{k: cfg[k] for k in _SECURITY})
    ecfg = EngineConfig(geometry=geometry, params=params, **{k: cfg[k] for k in _ENGINE})
    tree = CounterTreeConfig(**_section(cfg.get("tree")))  # range-checked in every mode
    if cfg["mode"] == "merkle":
        return MerkleEngine(ecfg, tree)
    return {"toleo": HostEngine, "none": NoneEngine, "ci": CiEngine}[cfg["mode"]](ecfg)


def resolve_trace(cfg: dict, trace_flag: str | None):
    """The events of ``--trace``, else of the config's (checked) trace."""
    source = {"file": trace_flag} if trace_flag else cfg.get("trace")
    if not source:
        raise ConfigError("no trace source: set 'trace' in the config or pass --trace")
    if "file" in source:
        return load_trace(source["file"])
    return generate(PatternSpec(**source["pattern"]))


def _read_json(path: str):
    """The JSON document at ``path``.  Text that is not UTF-8 or not JSON, an
    integer past CPython's digit limit and nesting past its recursion limit
    all raise ConfigError, naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path} is not a JSON document: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text`` to ``out_path`` as is, or to stdout when there is none."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out_path: str | None) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)


def _run(engine, events) -> int:
    try:
        engine.run(events)
    except SimulationHalted as exc:
        print(f"simulation halted: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_simulate(args) -> int:
    cfg = resolve_config(_read_json(args.config) if args.config else None, args.mode, args.seed)
    events = resolve_trace(cfg, args.trace)
    engine = build_engine(cfg)
    code = _run(engine, events)
    _emit_json(engine.stats(), args.out)
    return code


def cmd_gen_trace(args) -> int:
    if not args.config:
        raise ConfigError("gen-trace needs --config with a pattern description")
    doc = _read_json(args.config)
    if isinstance(doc, dict) and not _PATTERN_ONLY.isdisjoint(doc):
        _check(doc, _PATTERN, "pattern", _required(PatternSpec))
        doc = _seeded(doc, args.seed)
    else:
        # full run config: pull the inline pattern out of it, --seed applied
        # before resolve_config checks it
        trace = doc.get("trace") if isinstance(doc, dict) else None
        if isinstance(trace, dict) and isinstance(trace.get("pattern"), dict):
            doc = {**doc, "trace": {**trace, "pattern": _seeded(trace["pattern"], args.seed)}}
        doc = (resolve_config(doc)["trace"] or {}).get("pattern")
        if doc is None:
            raise ConfigError("config has no trace.pattern to generate from")
    events = generate(PatternSpec(**doc))
    if args.out:
        save_trace(events, args.out)
    else:
        sys.stdout.writelines(text_chunks(events))
    return 0


def _mc_params(doc, klass, what: str, seed: int | None) -> dict:
    """A Monte Carlo section's parameters, the fields of ``klass`` it runs
    with, and ``seed`` (``--seed``), when given, over the section's own.  No
    key takes null: one left out takes its default."""
    _check(doc, _schema(klass), what, _required(klass))
    null = next((key for key, value in doc.items() if value is None), None)
    if null:
        raise ConfigError(f"{null} must be an integer, got None")
    return _seeded(doc, seed)


def _mc_report(est, analytic: float, given: dict) -> dict:
    """A Monte Carlo section's report: the estimate beside its analytic value,
    and the parameters it ran with but ``trials``; ``seed`` shows only when
    ``given``."""
    return {
        "estimate": est.estimate,
        "stderr": est.stderr,
        "trials": est.trials,
        "analytic": analytic,
        "parameters": {k: v for k, v in sorted(est.parameters.items())
                       if k != "trials" and (k != "seed" or k in given)},
    }


def cmd_analyze_security(args) -> int:
    doc = _section(_read_json(args.config) if args.config else None)
    _check(doc, _ANALYSIS, "analysis")

    ex_doc = _section(doc.get("exhaustion"))
    _check(ex_doc, _ANALYSIS["exhaustion"], "exhaustion")
    query = ExhaustionQuery(**ex_doc)
    replay_doc = _section(doc.get("replay"))
    _check(replay_doc, _ANALYSIS["replay"], "replay")
    stealth_bits = ReplayQuery(**replay_doc).stealth_bits

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

    mc_doc = _section(doc.get("monte_carlo"))
    _check(mc_doc, _ANALYSIS["monte_carlo"], "monte_carlo")
    if "exhaustion" in mc_doc:
        p = _mc_params(mc_doc["exhaustion"], ExhaustionRun, "monte_carlo.exhaustion", args.seed)
        try:  # refused before the Monte Carlo loop, which runs once per update
            est = mc_exhaustion(**p)
        except RunModelCapError as exc:
            raise ConfigError(f"monte_carlo.exhaustion.{exc}") from None
        ran = est.parameters
        analytic = analytic_exhaustion_prob(ran["stealth_bits"], ran["reset_exp"],
                                            ran["updates_per_address"], ran["addresses"])
        report["exhaustion"]["monte_carlo"] = _mc_report(est, analytic, p)
    if "replay" in mc_doc:
        p = _mc_params(mc_doc["replay"], ReplayRun, "monte_carlo.replay", args.seed)
        report["replay"]["monte_carlo"] = _mc_report(
            mc_replay(**p), replay_success_prob(p["stealth_bits"]), p)
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
    configs = [resolve_config(_read_json(path), seed=args.seed) for path in args.configs]
    reference_events = None
    rows = []
    for path, cfg in zip(args.configs, configs):
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
    _emit(buf.getvalue(), args.out)
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
    except (SimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
