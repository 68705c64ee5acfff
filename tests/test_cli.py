import ast
import contextlib
import csv
import glob
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import guards
from cli_cases import CASES, PAGE, child_env, mismatch, pattern_doc, run_doc, run_in_process
from freshsim.baselines import CounterTreeConfig
from freshsim.cli import CSV_COLUMNS, MODES, default_config, main
from freshsim.core import MAX_ARRAY_ITEMS, Geometry
from freshsim.traces import PatternSpec, generate, load_trace, parse_text_trace, save_trace


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_config(tmp_path, name="run.json", **kw):
    return write_json(tmp_path, name, run_doc(**kw))


class TestSimulate:
    def test_stats_file_schema(self, tmp_path):
        out = str(tmp_path / "stats.json")
        code = main(["simulate", "--config", run_config(tmp_path), "--out", out])
        assert code == 0
        stats = json.loads(open(out).read())
        assert stats["mode"] == "toleo"
        assert stats["events"] == 2000
        assert stats["events"] == stats["reads"] + stats["writes"]
        assert stats["page_formats"]["flat"] == 32
        assert stats["page_formats"]["uneven"] == 0
        assert stats["device"]["updates"] == stats["writes"]

    def test_runs_are_byte_identical(self, tmp_path):
        cfg = run_config(tmp_path)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["simulate", "--config", cfg, "--out", a]) == 0
        assert main(["simulate", "--config", cfg, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_merkle_runs_are_byte_identical(self, tmp_path):
        cfg = run_config(tmp_path, mode="merkle", tree={"arity": 4})
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["simulate", "--config", cfg, "--out", a]) == 0
        assert main(["simulate", "--config", cfg, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        assert "tree" in json.loads(open(a).read())

    def test_mode_flag_overrides_config(self, tmp_path):
        out = str(tmp_path / "stats.json")
        code = main(["simulate", "--config", run_config(tmp_path),
                     "--mode", "none", "--out", out])
        assert code == 0
        stats = json.loads(open(out).read())
        assert stats["mode"] == "none"
        assert stats["channels"]["device_bytes"] == 0
        assert stats["channels"]["mac_bytes"] == 0

    def test_trace_flag_overrides_config(self, tmp_path):
        trace_path = str(tmp_path / "short.trace")
        events = generate(PatternSpec(**pattern_doc(op_count=77)))
        save_trace(events, trace_path)
        out = str(tmp_path / "stats.json")
        code = main(["simulate", "--config", run_config(tmp_path),
                     "--trace", trace_path, "--out", out])
        assert code == 0
        assert json.loads(open(out).read())["events"] == 77

    def test_stdout_when_no_out_flag(self, tmp_path, capsys):
        assert main(["simulate", "--config", run_config(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["events"] == 2000

    def test_capacity_halt_exits_2_but_writes_stats(self, tmp_path, capsys):
        cfg = run_config(
            tmp_path,
            protected_bytes=2 * PAGE,
            device_capacity_bytes=2 * 12 + 56,
            trace={"pattern": pattern_doc(kind="hot_block", footprint_bytes=2 * PAGE,
                                          hot_set_bytes=PAGE, write_fraction=1.0,
                                          op_count=300)},
        )
        out = str(tmp_path / "stats.json")
        assert main(["simulate", "--config", cfg, "--out", out]) == 2
        assert "halted" in capsys.readouterr().err
        stats = json.loads(open(out).read())
        assert 0 < stats["events"] < 300

    def test_uv_overflow_halt_exits_2_but_writes_stats(self, tmp_path, capsys):
        cfg = run_config(
            tmp_path,
            protected_bytes=4 * PAGE,
            stealth_bits=8, upper_bits=1, reset_exp=1,
            trace={"pattern": pattern_doc(footprint_bytes=4 * PAGE, write_fraction=1.0,
                                          op_count=200)},
        )
        out = str(tmp_path / "stats.json")
        assert main(["simulate", "--config", cfg, "--out", out]) == 2
        assert "upper version" in capsys.readouterr().err
        stats = json.loads(open(out).read())
        assert 0 < stats["events"] < 200


class TestConfigHandling:
    @pytest.mark.parametrize("mode", ["none", "ci", "merkle"])
    def test_baselines_take_any_page_size(self, tmp_path, mode):
        cfg = run_config(tmp_path, mode=mode, page_bytes=8192)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s.json")]) == 0

    def test_numbers_accepted_where_floats_go(self, tmp_path):
        cfg = run_config(tmp_path, cxl_ns=95, clock_ghz=2.25, device_capacity_bytes=None)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s.json")]) == 0

    def test_type_error_inside_engine_propagates(self, tmp_path, monkeypatch):
        from freshsim.engine import HostEngine

        def broken(self, op, addr):
            raise TypeError("programming error")

        monkeypatch.setattr(HostEngine, "process_access", broken)
        cfg = run_config(tmp_path)
        with pytest.raises(TypeError, match="programming error"):
            main(["simulate", "--config", cfg])

    def test_default_config_covers_every_knob(self):
        cfg = default_config()
        assert cfg["mode"] == "toleo"
        assert cfg["stealth_bits"] == 27
        assert cfg["reset_exp"] == 20
        assert cfg["page_bytes"] == 4096
        assert cfg["flat_cache_entries"] == 256


class TestGenTrace:
    def test_bare_pattern_to_file(self, tmp_path):
        spec_doc = pattern_doc(kind="zipfian", op_count=500)
        cfg = write_json(tmp_path, "pat.json", spec_doc)
        out = str(tmp_path / "t.trace")
        assert main(["gen-trace", "--config", cfg, "--out", out]) == 0
        assert load_trace(out) == generate(PatternSpec(**spec_doc))

    def test_binary_extension_selects_binary(self, tmp_path):
        cfg = write_json(tmp_path, "pat.json", pattern_doc(op_count=100))
        out = str(tmp_path / "t.bin")
        assert main(["gen-trace", "--config", cfg, "--out", out]) == 0
        blob = open(out, "rb").read()
        assert len(blob) == 9 * 100
        assert load_trace(out) == generate(PatternSpec(**pattern_doc(op_count=100)))

    def test_stdout_text(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "pat.json", pattern_doc(op_count=5))
        assert main(["gen-trace", "--config", cfg]) == 0
        events = parse_text_trace(capsys.readouterr().out)
        assert len(events) == 5

    def test_stdout_equals_the_text_file(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "pat.json", pattern_doc(op_count=100))
        out = tmp_path / "t.trace"
        assert main(["gen-trace", "--config", cfg, "--out", str(out)]) == 0
        assert main(["gen-trace", "--config", cfg]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_run_config_pattern_is_accepted(self, tmp_path):
        cfg = run_config(tmp_path)
        out = str(tmp_path / "t.trace")
        assert main(["gen-trace", "--config", cfg, "--out", out]) == 0
        assert len(load_trace(out)) == 2000

    def test_seed_flag_changes_trace(self, tmp_path):
        cfg = write_json(tmp_path, "pat.json", pattern_doc(kind="zipfian", op_count=2000))
        a, b = str(tmp_path / "a.trace"), str(tmp_path / "b.trace")
        assert main(["gen-trace", "--config", cfg, "--seed", "9", "--out", a]) == 0
        assert main(["gen-trace", "--config", cfg, "--seed", "10", "--out", b]) == 0
        assert open(a).read() != open(b).read()

    def test_requires_pattern(self, tmp_path, capsys):
        assert main(["gen-trace"]) == 2
        cfg = run_config(tmp_path, trace=None)
        assert main(["gen-trace", "--config", cfg]) == 2


class TestAnalyzeSecurity:
    def test_default_report(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["analyze-security", "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["exhaustion"]["analytic"] == pytest.approx(1.722026278061991e-19,
                                                                 rel=1e-9)
        assert report["exhaustion"]["query"] == {
            "total_updates": 1 << 56, "interval_updates": 1 << 26,
            "interval_count": 1 << 30, "reset_exp": 20,
        }
        assert report["replay"]["analytic"] == pytest.approx(2.0 ** -27)
        assert report["replay"]["stealth_bits"] == 27
        assert "monte_carlo" not in report["exhaustion"]

    def test_monte_carlo_sections(self, tmp_path):
        cfg = write_json(tmp_path, "mc.json", {
            "monte_carlo": {
                "exhaustion": {"stealth_bits": 3, "reset_exp": 2,
                               "updates_per_address": 24, "trials": 2000},
                "replay": {"stealth_bits": 8, "trials": 20000},
            },
        })
        out = str(tmp_path / "report.json")
        assert main(["analyze-security", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(out).read())
        mc = report["exhaustion"]["monte_carlo"]
        assert set(mc) == {"estimate", "stderr", "trials", "analytic", "parameters"}
        assert mc["trials"] == 2000
        assert abs(mc["estimate"] - mc["analytic"]) < 5 * max(mc["stderr"], 1e-9)
        rmc = report["replay"]["monte_carlo"]
        assert rmc["analytic"] == pytest.approx(1 / 256)
        assert "trials" not in rmc["parameters"]

    def test_same_seed_reports_identical(self, tmp_path):
        cfg = write_json(tmp_path, "mc.json", {
            "monte_carlo": {"replay": {"stealth_bits": 8, "trials": 5000}},
        })
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["analyze-security", "--config", cfg, "--seed", "3", "--out", a]) == 0
        assert main(["analyze-security", "--config", cfg, "--seed", "3", "--out", b]) == 0
        assert open(a).read() == open(b).read()

    def test_custom_query(self, tmp_path):
        cfg = write_json(tmp_path, "q.json", {
            "exhaustion": {"total_updates": 64, "interval_updates": 8,
                           "interval_count": 8, "reset_exp": 2},
            "replay": {"stealth_bits": 8},
        })
        out = str(tmp_path / "report.json")
        assert main(["analyze-security", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["replay"]["analytic"] == pytest.approx(1 / 256)
        assert 0 < report["exhaustion"]["analytic"] < 1

    def test_null_section_means_absent(self, tmp_path):
        cfg = write_json(tmp_path, "q.json", {"exhaustion": None, "replay": None})
        assert main(["analyze-security", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0

    def test_null_document_runs_default_query(self, tmp_path):
        # as for simulate, gen-trace and compare, a document holding null is absent
        cfg = write_json(tmp_path, "q.json", None)
        out, default = str(tmp_path / "r.json"), str(tmp_path / "default.json")
        assert main(["analyze-security", "--config", cfg, "--out", out]) == 0
        assert main(["analyze-security", "--out", default]) == 0
        assert open(out).read() == open(default).read()


# The documented Monte Carlo rules, written out plainly: every key is an
# integer of less than 2^1024 in its [low, high], a section gives its
# required keys, and two rules read more than one key.
_MC_RANGES = {
    "exhaustion": {"stealth_bits": (1, 24), "reset_exp": (0, None), "addresses": (1, None),
                   "updates_per_address": (0, None), "trials": (1, None), "seed": (0, None)},
    "replay": {"stealth_bits": (1, 20), "trials": (1, MAX_ARRAY_ITEMS), "seed": (0, None)},
}
_MC_REQUIRED = {"exhaustion": ("stealth_bits", "reset_exp"), "replay": ("stealth_bits",)}
_ABSENT = object()
# a key's value: absent, a small integer (in every key's range), or an odd
# one: an integer at or past an edge of some key's range, or not an integer
_MC_ODD = st.one_of(
    st.sampled_from([-1, 0, 20, 21, 22, 24, 25, 2**30, 2**40, 2**63, 10**7 + 1, 10**7 + 2,
                     2**1023, 2**1024, 10**400]),
    st.none(), st.booleans(), st.floats(), st.text("-0189e.x", max_size=3))
_MC_KEY = st.sampled_from(["absent", "small", "small", "odd"]).flatmap(
    lambda kind: {"absent": st.just(_ABSENT), "small": st.integers(1, 8), "odd": _MC_ODD}[kind])


def _mc_section(section: str):
    """``(section, doc)``: a ``monte_carlo.<section>`` document of drawn keys."""
    keys = st.fixed_dictionaries(dict.fromkeys(_MC_RANGES[section], _MC_KEY))
    return keys.map(lambda doc: (section, {k: v for k, v in doc.items() if v is not _ABSENT}))


def _mc_faults(section: str, doc: dict, seed_flag) -> set:
    """The keys the documented rules find at fault in ``monte_carlo.<section>``
    run with ``--seed seed_flag``; an empty set when the section runs."""
    faults = {key for key, value in doc.items() if type(value) is not int}
    faults |= {key for key in _MC_REQUIRED[section] if key not in doc}
    if faults:
        return faults
    values = dict(doc) if seed_flag is None else dict(doc, seed=seed_flag)
    for key, value in values.items():
        low, high = _MC_RANGES[section][key]
        if not (low <= value < 2**1024 and (high is None or value <= high)):
            faults.add(key)
    if faults or section == "replay":
        return faults
    if values.get("trials", 100_000) * values.get("addresses", 1) > MAX_ARRAY_ITEMS:
        return {"trials", "addresses"}
    updates = values.get("updates_per_address", 4 << values["stealth_bits"])
    if updates - 1 > 10**7:  # the run model's cap
        return {"updates_per_address" if "updates_per_address" in values else "stealth_bits"}
    return set()


class _Drew(Exception):
    """Raised in place of the Monte Carlo's first draw."""


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_mc_section("exhaustion") | _mc_section("replay"),
       seed_flag=st.none() | st.sampled_from([-3, 0, 5, 10**400]))
# no float holds a seed of 10^400: refused, in a section or from --seed
@example(case=("exhaustion", {"stealth_bits": 3, "reset_exp": 2, "seed": 10**400}),
         seed_flag=None)
@example(case=("replay", {"stealth_bits": 8, "seed": 10**400}), seed_flag=None)
@example(case=("replay", {"stealth_bits": 8}), seed_flag=10**400)
# the two rules that read more than one key
@example(case=("exhaustion", {"stealth_bits": 3, "reset_exp": 2, "trials": 2**30,
                              "addresses": 2**30}), seed_flag=None)
@example(case=("exhaustion", {"stealth_bits": 22, "reset_exp": 20, "trials": 1}),
         seed_flag=None)
def test_monte_carlo_section_runs_only_when_the_rules_accept_it(tmp_path, monkeypatch, case,
                                                                seed_flag):
    """A ``monte_carlo`` section either exits 2 before any draw, naming a key
    the rules find at fault, or reaches its first draw when they find none."""
    def drew(seed):
        raise _Drew

    monkeypatch.setattr("freshsim.analysis.np.random.default_rng", drew)
    section, doc = case
    path = tmp_path / "mc.json"
    path.write_text(json.dumps({"monte_carlo": {section: doc}}))
    argv = ["analyze-security", "--config", str(path)]
    if seed_flag is not None:
        argv += ["--seed", str(seed_flag)]
    faults = _mc_faults(section, doc, seed_flag)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        if not faults:
            with pytest.raises(_Drew):
                main(argv)
            return
        assert main(argv) == 2
    assert any(re.search(rf"\b{key}\b", err.getvalue()) for key in faults), \
        (faults, err.getvalue())


class TestCompare:
    def configs(self, tmp_path):
        return [run_config(tmp_path, f"{mode}.json", mode=mode) for mode in MODES]

    def test_csv_layout_and_row_order(self, tmp_path):
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", "--out", out] + self.configs(tmp_path)) == 0
        rows = list(csv.reader(open(out)))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert [r[0] for r in rows[1:]] == ["none", "ci", "toleo", "merkle"]
        header = {name: i for i, name in enumerate(rows[0])}
        by_mode = {r[0]: r for r in rows[1:]}
        assert by_mode["none"][header["device_bytes"]] == "0"
        assert by_mode["ci"][header["device_bytes"]] == "0"
        assert int(by_mode["toleo"][header["device_bytes"]]) > 0
        assert by_mode["ci"][header["mac_bytes"]] == by_mode["toleo"][header["mac_bytes"]]
        assert int(by_mode["merkle"][header["tree_depth"]]) >= 1
        assert by_mode["toleo"][header["tree_depth"]] == "0"
        # every mode replayed the same events
        assert len({r[header["events"]] for r in rows[1:]}) == 1

    def test_trace_equality_is_by_events_not_by_file(self, tmp_path, capsys):
        # the same events in both file forms replay as one trace; one
        # address moved by a block is another trace
        events = list(generate(PatternSpec(**pattern_doc(op_count=300))))
        moved = events[:-1] + [(events[-1][0], events[-1][1] ^ 64)]
        for name, pairs in (("a.bin", events), ("a.trace", events), ("b.bin", moved)):
            save_trace(pairs, str(tmp_path / name))
        configs = [run_config(tmp_path, f"{name}.json", trace={"file": str(tmp_path / name)})
                   for name in ("a.bin", "a.trace", "b.bin")]
        out = str(tmp_path / "modes.csv")
        assert main(["compare", "--out", out, *configs[:2]]) == 0
        assert main(["compare", *configs]) == 2
        assert "trace mismatch" in capsys.readouterr().err

    def test_read_heavy_hot_set_keeps_device_traffic_marginal(self, tmp_path):
        # warm working set, 0.5% writes: freshness metadata stays under 2%
        # of the data traffic the unprotected baseline would move
        pattern = pattern_doc(footprint_bytes=96 * PAGE, op_count=40_000,
                              write_fraction=0.005, seed=21)
        cfgs = [run_config(tmp_path, f"{m}.json", mode=m, protected_bytes=96 * PAGE,
                           trace={"pattern": pattern}) for m in ("none", "toleo")]
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", "--out", out] + cfgs) == 0
        rows = list(csv.reader(open(out)))
        header = {name: i for i, name in enumerate(rows[0])}
        by_mode = {r[0]: r for r in rows[1:]}
        data = int(by_mode["none"][header["local_bytes"]])
        device = int(by_mode["toleo"][header["device_bytes"]])
        assert device <= 0.02 * data

    def test_seed_flag_does_not_desync_traces(self, tmp_path):
        # --seed only overrides engine seeds; pattern seeds stay put
        out = str(tmp_path / "cmp.csv")
        a = run_config(tmp_path, "a.json", mode="none")
        b = run_config(tmp_path, "b.json", mode="ci")
        assert main(["compare", "--seed", "7", "--out", out, a, b]) == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "freshsim", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "analyze-security" in proc.stdout


@pytest.mark.parametrize("mode, keys", [
    ("ci", {"mac_cache_bytes": 2**40}),
    ("toleo", {"mac_cache_bytes": 2**64}),
    ("merkle", {"mac_cache_bytes": 10**400}),
    ("merkle", {"tree": {"counter_cache_bytes": 2**40}}),
], ids=["ci-mac-2^40", "toleo-mac-2^64", "merkle-mac-10^400", "merkle-counter-2^40"])
def test_huge_cache_runs_in_bounded_memory(tmp_path, mode, keys):
    # a 1 TiB or larger cache makes only the sets the trace fills; built
    # whole, a 2^40-byte 16-way cache is a list of 2^30 dicts
    footprint = 64 << 20  # 131072 MAC lines, 8x the default MAC cache
    trace = generate(PatternSpec(kind="zipfian", footprint_bytes=footprint, op_count=4000,
                                 write_fraction=0.3, seed=7))
    save_trace(trace, str(tmp_path / "trace.bin"))
    config = write_json(tmp_path, "huge.json", {"mode": mode, "protected_bytes": footprint, **keys})
    out = tmp_path / "stats.json"
    # in a child whose address space is capped at 1 GiB, so that a cache that
    # builds its sets up front cannot take the machine; one BLAS thread, so
    # that a many-core host's thread pool fits the cap
    status, _ = guards.run(("simulate", "--config", config, "--trace", str(tmp_path / "trace.bin"),
                            "--out", str(out)), child_env(OPENBLAS_NUM_THREADS="1"), cap=1 << 30)
    assert status == 0
    stats = json.loads(out.read_text())
    g = Geometry()
    addrs = [int(a) for a in trace.addrs]
    if "mac_cache_bytes" in keys:
        # such a cache never evicts: each MAC line misses once and moves once
        mac_lines = {a // (g.block_bytes * g.macs_per_block) for a in addrs}
        assert stats["caches"]["mac"]["misses"] == len(mac_lines)
        assert stats["channels"]["mac_bytes"] == g.block_bytes * len(mac_lines)
    else:
        # nor does such a counter cache: each node on a touched path is fetched once
        tree = CounterTreeConfig()
        leaves = {a // (g.block_bytes * tree.counters_per_leaf_node) for a in addrs}
        nodes = {(leaf // tree.arity**level, level)
                 for leaf in leaves for level in range(stats["tree"]["depth"])}
        assert stats["tree"]["fetches"] == len(nodes)
        assert stats["tree"]["dirty_writebacks"] == 0


def test_sources_parse_as_python_3_10():
    """Every source file parses as Python 3.10, which CI lists beside a
    newer interpreter.  This checks syntax only, and not all of it: the
    parser refuses ``except*`` under 3.10 but accepts PEP 646 unpacking
    (``*Ts`` in an annotation or a subscript), and nothing here checks that
    a module, function or keyword argument exists in 3.10."""
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    ast.parse("def f(*args: *Ts): pass\n", feature_version=(3, 10))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [path for part in ("src", "tests", "bench", "demos")
             for path in glob.glob(os.path.join(root, part, "**", "*.py"), recursive=True)]
    assert len(paths) >= 30
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), path, feature_version=(3, 10))


def _table_test(rows):
    """A test that runs ``rows`` of cli_cases.CASES through ``cli.main``:
    plain for one row named without a [param], else parametrized by them."""
    if len(rows) == 1 and "[" not in rows[0].name:
        def test(self, tmp_path, case=rows[0]):
            assert mismatch(case, *run_in_process(case, tmp_path)) is None
        return test

    @pytest.mark.parametrize("case", rows, ids=[row.name.partition("[")[2][:-1] for row in rows])
    def test(self, tmp_path, case):
        assert mismatch(case, *run_in_process(case, tmp_path)) is None
    return test


# every row of the table is collected under its name, Class::test[param]
_ROWS = {}
for _row in CASES:
    _ROWS.setdefault(_row.name.partition("[")[0], []).append(_row)
for _name, _rows in _ROWS.items():
    _class, _test = _name.split("::")
    setattr(globals()[_class], _test, _table_test(_rows))
