import builtins
import csv
import json
import os
import re
import subprocess
import sys

import pytest

import freshsim
from freshsim.baselines import CounterTreeConfig
from freshsim.cli import CSV_COLUMNS, default_config, main
from freshsim.core import Geometry
from freshsim.traces import PatternSpec, generate, load_trace, parse_text_trace, save_trace

PAGE = 4096


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def pattern_doc(**kw):
    doc = {"kind": "page_uniform", "footprint_bytes": 32 * PAGE,
           "op_count": 2000, "write_fraction": 0.5, "seed": 4}
    doc.update(kw)
    return doc


def run_config(tmp_path, name="run.json", **kw):
    doc = {"mode": "toleo", "protected_bytes": 32 * PAGE,
           "trace": {"pattern": pattern_doc()}}
    doc.update(kw)
    return write_json(tmp_path, name, doc)


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

    def test_top_half_address_reaches_the_engine_as_is(self, tmp_path, capsys):
        # the trace's uint64 column keeps 2**63 unsigned, so the engine
        # names the address the file holds
        trace_path = tmp_path / "high.bin"
        trace_path.write_bytes(b"\x00" + (2**63).to_bytes(8, "little"))
        code = main(["simulate", "--config", run_config(tmp_path), "--trace", str(trace_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: address 0x8000000000000000 outside the 131072-byte data partition\n")

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
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = run_config(tmp_path, typo_key=1)
        assert main(["simulate", "--config", cfg]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_functional_is_no_longer_a_key(self, tmp_path, capsys):
        cfg = run_config(tmp_path, functional=True)
        assert main(["simulate", "--config", cfg]) == 2
        assert "unknown config key(s): functional" in capsys.readouterr().err

    def test_debug_is_no_longer_a_key(self, tmp_path, capsys):
        cfg = run_config(tmp_path, debug=True)
        assert main(["simulate", "--config", cfg]) == 2
        assert "unknown config key(s): debug" in capsys.readouterr().err

    def test_unknown_mode_rejected(self, tmp_path, capsys):
        cfg = run_config(tmp_path, mode="fancy")
        assert main(["simulate", "--config", cfg]) == 2
        assert "mode" in capsys.readouterr().err

    def test_bad_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b"\xff\xfe{}",  # not UTF-8
        b'{"seed": ' + b"1" * 5000 + b"}",  # past CPython's 4300-digit int limit
        b"[" * 100_000,  # past the decoder's recursion limit
    ], ids=["not_utf8", "5000_digits", "deep_nesting"])
    @pytest.mark.parametrize("command", ["simulate", "gen-trace", "analyze-security", "compare"])
    def test_undecodable_config_names_the_path(self, tmp_path, capsys, command, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        args = [command, str(path), str(path)] if command == "compare" else [
            command, "--config", str(path)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {path} is not a JSON document: ")

    def test_missing_trace_rejected(self, tmp_path, capsys):
        cfg = run_config(tmp_path, trace=None)
        assert main(["simulate", "--config", cfg]) == 2
        assert "trace" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("flat_cache_entries", "256"),
        ("page_bytes", 4096.0),
        ("cxl_ns", "95"),
        ("seed", True),
        ("device_capacity_bytes", "1 MiB"),
    ])
    def test_wrong_value_type_names_the_key(self, tmp_path, capsys, key, value):
        cfg = run_config(tmp_path, **{key: value})
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert key in err and "bad parameter" not in err

    def test_wrong_tree_value_type_names_the_key(self, tmp_path, capsys):
        cfg = run_config(tmp_path, mode="merkle", tree={"arity": "8"})
        assert main(["simulate", "--config", cfg]) == 2
        assert "arity" in capsys.readouterr().err

    def test_wrong_pattern_value_type_names_the_key(self, tmp_path, capsys):
        cfg = run_config(tmp_path, trace={"pattern": pattern_doc(seed="4")})
        assert main(["simulate", "--config", cfg]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("trace, key", [
        ({"file": None}, "file"),
        ({"file": ["t.bin"]}, "file"),
        ({"file": 5}, "file"),
        ({"file": True}, "file"),
        ({"file": "t.bin", "bogus": 1}, "bogus"),
        ({"pattern": {k: v for k, v in pattern_doc().items() if k != "op_count"}},
         "op_count"),
        ({"pattern": pattern_doc(bogus_field=1)}, "bogus_field"),
    ])
    def test_malformed_trace_names_the_key(self, tmp_path, capsys, monkeypatch, trace, key):
        monkeypatch.chdir(tmp_path)
        save_trace(generate(PatternSpec(**pattern_doc(op_count=10))), "t.bin")
        real_open = builtins.open

        def path_only_open(file, *args, **kwargs):
            # open() takes an int (or a bool) for a file descriptor
            assert isinstance(file, (str, os.PathLike)), f"open({file!r})"
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", path_only_open)
        cfg = run_config(tmp_path, trace=trace)
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err and "__init__" not in err

    @pytest.mark.parametrize("mode, tree, key", [
        ("none", {"bogus": 1}, "bogus"),
        ("ci", {"bogus": 1}, "bogus"),
        ("toleo", {"bogus": 1}, "bogus"),
        ("toleo", 0, "tree"),
    ])
    def test_tree_checked_in_every_mode(self, tmp_path, capsys, mode, tree, key):
        cfg = run_config(tmp_path, mode=mode, tree=tree)
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("doc, flags, key", [
        ({"mode": "merkle", "tree": {"counter_cache_assoc": 0}}, [], "counter_cache_assoc"),
        ({"mode": "merkle", "tree": {"node_bytes": 0}}, [], "node_bytes"),
        ({"mode": "merkle", "tree": {"node_bytes": 4}}, [], "node_bytes"),
        ({"mode": "merkle", "tree": {"counters_per_leaf_node": 0}}, [], "counters_per_leaf_node"),
        ({"clock_ghz": 0}, [], "clock_ghz"),
        ({"seed": -1}, [], "seed"),
        ({"seed": 2**128}, [], "seed"),
        ({}, ["--seed", "-3"], "seed"),
        ({"trace": {"pattern": pattern_doc(seed=-1)}}, [], "seed"),
        ({"mode": "toleo", "device_message_bytes": -64}, [], "device_message_bytes"),
        ({"mode": "toleo", "cxl_ns": -95}, [], "cxl_ns"),
        ({"mode": "toleo", "cipher_cycles": -40}, [], "cipher_cycles"),
        ({"local_ns": -50}, [], "local_ns"),
        ({"local_bytes": -1}, [], "local_bytes"),
        ({"mode": "toleo", "local_bytes": 100}, [], "local_bytes"),
        ({"mode": "merkle", "tree": {"counter_cache_bytes": 384, "counter_cache_assoc": 4}}, [],
         "counter_cache_bytes and counter_cache_assoc"),
        ({"mode": "merkle", "tree": {"counter_cache_bytes": 10}}, [], "counter_cache_bytes"),
        ({"mode": "toleo", "mac_cache_bytes": 384, "mac_assoc": 4}, [], "mac_assoc"),
        ({"mode": "toleo", "overflow_bytes": 336, "overflow_assoc": 4}, [], "overflow_assoc"),
        ({"mode": "toleo", "mac_cache_bytes": 1100, "mac_assoc": 1}, [], "mac_cache_bytes"),
        ({"mode": "merkle", "tree": {"counter_cache_bytes": 100}}, [], "counter_cache_bytes"),
        ({"trace": {"pattern": pattern_doc(footprint_bytes=2**53)}}, [], "footprint_bytes"),
        ({"mode": "merkle", "pool_dram_ns": -1}, [], "pool_dram_ns"),
        ({"mode": "toleo", "device_dram_ns": -1}, [], "device_dram_ns"),
        ({"mode": "toleo", "cxl_ns": float("nan")}, [], "cxl_ns"),
        ({"local_ns": float("inf")}, [], "local_ns"),
        ({"mode": "toleo", "cxl_ns": float("inf")}, [], "cxl_ns"),
        ({"mode": "toleo", "clock_ghz": float("inf")}, [], "clock_ghz"),
        ({"mode": "none", "protected_bytes": 4160}, [], "protected_bytes"),
        ({"mode": "merkle", "protected_bytes": 0}, [], "protected_bytes"),
    ], ids=["tree_assoc_0", "tree_node_0", "tree_node_4", "tree_leaf_0", "clock_0",
            "seed_negative", "seed_2_128", "seed_flag_negative", "pattern_seed_negative",
            "message_bytes_negative", "cxl_ns_negative", "cipher_cycles_negative",
            "local_ns_negative", "local_bytes_negative", "local_bytes_unaligned",
            "tree_cache_shape", "tree_cache_no_line", "mac_cache_shape", "overflow_shape",
            "mac_cache_part_line", "tree_cache_part_line", "pattern_footprint_2_53",
            "pool_dram_ns_negative",
            "device_dram_ns_negative", "cxl_ns_nan", "local_ns_inf", "cxl_ns_inf",
            "clock_ghz_inf", "protected_bytes_unaligned", "protected_bytes_zero"])
    def test_out_of_range_value_names_the_key(self, tmp_path, capsys, doc, flags, key):
        cfg = run_config(tmp_path, **doc)
        assert main(["simulate", "--config", cfg, *flags]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["toleo", "merkle"])
    @pytest.mark.parametrize("key", ["local_ns", "cxl_ns", "pool_dram_ns", "device_dram_ns",
                                     "cipher_cycles"])
    def test_integer_past_float_range_names_the_key(self, tmp_path, capsys, mode, key):
        # it passed the range check and ended in an OverflowError traceback
        # once the engine computed a latency with it
        cfg = run_config(tmp_path, mode=mode, **{key: 10 ** 400})
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"^error: {key} must lie in \[0, inf\), got 10{{400}}$", err, re.M), err

    @pytest.mark.parametrize("mode", ["none", "ci", "toleo", "merkle"])
    @pytest.mark.parametrize("key, value, rule", [
        ("flat_cache_entries", 0, r"\[1, inf\)"),
        ("device_capacity_bytes", -5, r"\[0, inf\)"),
    ], ids=["flat_cache_entries_0", "device_capacity_negative"])
    def test_engine_sizes_checked_in_every_mode(self, tmp_path, capsys, mode, key, value, rule):
        # only toleo uses them, but every mode builds the same EngineConfig
        cfg = run_config(tmp_path, mode=mode, **{key: value})
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"^error: {key} must lie in {rule}, got {value}$", err, re.M), err

    @pytest.mark.parametrize("doc", [[], 0, False, ""])
    def test_falsy_non_object_config_rejected(self, tmp_path, capsys, doc):
        cfg = write_json(tmp_path, "bad.json", doc)
        trace = str(tmp_path / "t.bin")
        save_trace(generate(PatternSpec(**pattern_doc(op_count=10))), trace)
        assert main(["simulate", "--config", cfg, "--trace", trace]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("page_bytes", 8192), ("stealth_bits", 32)])
    def test_toleo_rejects_lines_the_device_cannot_hold(self, tmp_path, capsys, key, value):
        cfg = run_config(tmp_path, **{key: value})
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "slots hold" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("doc, key", [
        (5, "config"), (None, "trace"), ({"trace": 5}, "trace"),
        (pattern_doc(kind="zipfian", zipf_skew=float("nan")), "zipf_skew"),
        (pattern_doc(kind="hot_block", hot_set_bytes=-4096), "hot_set_bytes"),
        # sizes that are not whole blocks were floored to them
        (pattern_doc(kind="strided", footprint_bytes=65632), "footprint_bytes"),
        (pattern_doc(kind="strided", stride_bytes=100), "stride_bytes"),
        # past float range: the zipfian CDF raised OverflowError on it
        (pattern_doc(kind="zipfian", zipf_skew=10 ** 400), "zipf_skew"),
    ])
    def test_malformed_config_names_the_key(self, tmp_path, capsys, doc, key):
        cfg = write_json(tmp_path, "bad.json", doc)
        assert main(["gen-trace", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err


    def test_bare_pattern_without_kind_names_it(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "pat.json", {"footprint_bytes": 4096, "op_count": 5})
        assert main(["gen-trace", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "pattern needs key(s): kind" in err


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

    @pytest.mark.parametrize("doc, key", [
        ({"exhaustion": {"reset_exp": "20"}}, "reset_exp"),
        ({"replay": {"stealth_bits": 8.0}}, "stealth_bits"),
        ({"monte_carlo": {"replay": {"stealth_bits": 8, "trials": "9"}}}, "trials"),
        ({"monte_carlo": {"exhaustion": {"stealth_bits": 3}}}, "reset_exp"),
        # past float range: 2.0 ** -reset_exp raised OverflowError on it
        ({"exhaustion": {"reset_exp": 10 ** 400}}, "reset_exp"),
    ])
    def test_bad_analysis_value_names_the_key(self, tmp_path, capsys, doc, key):
        cfg = write_json(tmp_path, "bad.json", doc)
        assert main(["analyze-security", "--config", cfg]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("doc, flags, key", [
        ({"monte_carlo": {"exhaustion": {"stealth_bits": 3, "reset_exp": 2, "seed": -1}}}, [],
         "seed"),
        ({"monte_carlo": {"replay": {"stealth_bits": 8, "seed": -1}}}, [], "seed"),
        ({"monte_carlo": {"replay": {"stealth_bits": 8}}}, ["--seed", "-3"], "seed"),
        ({"monte_carlo": {"exhaustion": {"stealth_bits": 3, "reset_exp": 2}}}, ["--seed", "-3"],
         "seed"),
        ({"monte_carlo": {"exhaustion": {"stealth_bits": 3, "reset_exp": -3}}}, [], "reset_exp"),
        ({"monte_carlo": {"exhaustion": {"stealth_bits": 3, "reset_exp": 2,
                                         "updates_per_address": -1}}}, [],
         "updates_per_address"),
    ], ids=["mc_exhaustion_seed", "mc_replay_seed", "seed_flag_replay", "seed_flag_exhaustion",
            "mc_reset_exp", "mc_updates"])
    def test_negative_monte_carlo_value_names_the_key(self, tmp_path, capsys, doc, flags, key):
        # a negative seed used to reach numpy and end in a traceback, and a
        # negative reset_exp ran with a reset chance of 2**3 per update
        cfg = write_json(tmp_path, "bad.json", doc)
        assert main(["analyze-security", "--config", cfg, *flags]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"^error: {key} must be non-negative, got -\d+$", err, re.M), err

    @pytest.mark.parametrize("doc, section", [
        ({"exhaustion": []}, "exhaustion"),
        ({"replay": False}, "replay"),
        ({"replay": 0}, "replay"),
        ({"monte_carlo": ""}, "monte_carlo"),
    ])
    def test_falsy_non_object_section_rejected(self, tmp_path, capsys, doc, section):
        cfg = write_json(tmp_path, "bad.json", doc)
        assert main(["analyze-security", "--config", cfg]) == 2
        assert f"{section} must be a JSON object" in capsys.readouterr().err

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

    def test_unknown_analysis_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "bad.json", {"exhaustion": {"warp_factor": 9}})
        assert main(["analyze-security", "--config", cfg]) == 2
        assert "warp_factor" in capsys.readouterr().err


class TestCompare:
    def configs(self, tmp_path):
        shared = {"protected_bytes": 32 * PAGE, "trace": {"pattern": pattern_doc()}}
        return [
            write_json(tmp_path, f"{mode}.json", dict(shared, mode=mode))
            for mode in ("none", "ci", "toleo", "merkle")
        ]

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

    def test_needs_two_configs(self, tmp_path, capsys):
        cfg = self.configs(tmp_path)[0]
        assert main(["compare", cfg]) == 2
        assert "two configs" in capsys.readouterr().err

    def test_refuses_mismatched_traces(self, tmp_path, capsys):
        a = run_config(tmp_path, "a.json")
        b = run_config(tmp_path, "b.json",
                       trace={"pattern": pattern_doc(seed=99)})
        assert main(["compare", a, b]) == 2
        assert "trace mismatch" in capsys.readouterr().err

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
        shared = {"protected_bytes": 96 * PAGE, "trace": {"pattern": pattern}}
        cfgs = [
            write_json(tmp_path, f"{m}.json", dict(shared, mode=m))
            for m in ("none", "toleo")
        ]
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


# simulate in a child process whose address space is capped at 1 GiB; the
# cap keeps a cache that builds its sets up front from taking the machine
_BOUNDED_SIMULATE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from freshsim.cli import main
sys.exit(main(sys.argv[1:]))
"""


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
    src = os.path.dirname(os.path.dirname(freshsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # one BLAS thread, so that a many-core host's thread pool fits the cap
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _BOUNDED_SIMULATE, "simulate", "--config", config,
         "--trace", str(tmp_path / "trace.bin"), "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
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
        tree = CounterTreeConfig(protected_bytes=footprint)
        leaves = {a // (g.block_bytes * tree.counters_per_leaf_node) for a in addrs}
        nodes = {(leaf // tree.arity**level, level)
                 for leaf in leaves for level in range(stats["tree"]["depth"])}
        assert stats["tree"]["fetches"] == len(nodes)
        assert stats["tree"]["dirty_writebacks"] == 0
