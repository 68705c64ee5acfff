"""Bad input the ``freshsim`` command line must refuse: one table of cases.

A row names a subcommand, the files it writes into an empty directory
(name -> bytes), the arguments after the subcommand, the exit status and a
regex that stderr must match (``re.M``).  No stderr may hold a traceback or
a constructor's ``__init__``.  ``tests/test_cli.py`` runs every row in
process through ``cli.main``, collected under the row's name, a pytest id
(``Class::test[param]``).  Run as a script, this module runs every row as a
child, ``python -m freshsim`` with the checkout's ``src`` first on
PYTHONPATH, and exits 1 if any fails: ``python tests/cli_cases.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from typing import NamedTuple
from unittest import mock

PAGE = 4096
TRACE = bytes(9)  # a binary trace of one read of address 0
BIG = 10 ** 400  # an integer past float range
LATENCY_RANGE = r"\[0, 1000000000000\]"  # a latency input's, 10^12 at most


def pattern_doc(**keys) -> dict:
    doc = {"kind": "page_uniform", "footprint_bytes": 32 * PAGE,
           "op_count": 2000, "write_fraction": 0.5, "seed": 4}
    doc.update(keys)
    return doc


def run_doc(**keys) -> dict:
    doc = {"mode": "toleo", "protected_bytes": 32 * PAGE, "trace": {"pattern": pattern_doc()}}
    doc.update(keys)
    return doc


class Case(NamedTuple):
    name: str
    command: str
    files: dict
    argv: tuple
    status: int
    stderr: str


def case(name, command, doc, stderr, *flags, files=None) -> Case:
    """``command --config bad.json *flags``, bad.json holding ``doc`` (bytes
    as they are, anything else as JSON), beside ``files``."""
    text = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
    return Case(name, command, {"bad.json": text, **(files or {})},
                ("--config", "bad.json", *flags), 2, stderr)


def text_case(name, text: bytes, stderr) -> Case:
    """``simulate`` of a good config over the text trace ``text``."""
    return Case(f"TestSimulate::test_text_trace_{name}", "simulate",
                {"run.json": json.dumps(run_doc()).encode(), "t.txt": text},
                ("--config", "run.json", "--trace", "t.txt"), 2, stderr)


_CONFIG = "TestConfigHandling::test_"
_GEN = "TestGenTrace::test_"
_ANALYZE = "TestAnalyzeSecurity::test_"
_UNDECODABLE = {"not_utf8": b"\xff\xfe{}",
                "5000_digits": b'{"seed": ' + b"1" * 5000 + b"}",  # past the digit limit
                "deep_nesting": b"[" * 100_000}  # past the decoder's recursion limit

CASES = [
    Case("TestSimulate::test_top_half_address_reaches_the_engine_as_is", "simulate",
         {"run.json": json.dumps(run_doc()).encode(),
          "high.bin": b"\x00" + (2**63).to_bytes(8, "little")},
         ("--config", "run.json", "--trace", "high.bin"), 2,
         r"\Aerror: address 0x8000000000000000 outside the 131072-byte data partition\n\Z"),
    # a text trace's lines end where str.splitlines ends them, also when it
    # is read a chunk at a time, and a non-ASCII byte anywhere is refused
    # before any bad line
    *(text_case(f"line_ends_as_splitlines_ends_them[{param}]",
                f"R 0x0{end}W 0x40{end}X 0x80{end}".encode(),
                r"^error: line 3: expected 'R 0x<addr>' or 'W 0x<addr>', got 'X 0x80'$")
      for param, end in [("lf", "\n"), ("cr", "\r"), ("crlf", "\r\n"), ("vt", "\x0b"),
                         ("ff", "\x0c"), ("fs", "\x1c"), ("gs", "\x1d"), ("rs", "\x1e")]),
    text_case("late_bad_line_named_by_its_number", b"R 0x40\r\n" * 150_000 + b"W 0xZZ\r\n",
              r"^error: line 150001: bad address '0xZZ'$"),
    text_case("non_ascii_byte_refused_before_an_earlier_bad_line",
              b"X 0x0\n" + b"R 0x40\n" * 200_000 + b"\xff\n",
              r"^error: trace is neither 9-byte records nor ASCII text$"),
    case(_CONFIG + "unknown_key_rejected", "simulate", run_doc(typo_key=1), "typo_key"),
    *(case(f"{_CONFIG}{key}_is_no_longer_a_key", "simulate", run_doc(**{key: True}),
           re.escape(f"unknown config key(s): {key}")) for key in ("functional", "debug")),
    case(_CONFIG + "unknown_mode_rejected", "simulate", run_doc(mode="fancy"), "mode"),
    case(_CONFIG + "bad_json_rejected", "simulate", b"{not json", "error:"),
    *(Case(f"{_CONFIG}undecodable_config_names_the_path[{command}-{name}]", command,
           {"bad.json": text},
           ("bad.json", "bad.json") if command == "compare" else ("--config", "bad.json"),
           2, r"\Aerror: bad\.json is not a JSON document: ")
      for command in ("simulate", "gen-trace", "analyze-security", "compare")
      for name, text in _UNDECODABLE.items()),
    case(_CONFIG + "missing_trace_rejected", "simulate", run_doc(trace=None), "trace"),
    *(case(f"{_CONFIG}wrong_value_type_names_the_key[{key}-{value}]", "simulate",
           run_doc(**{key: value}),
           rf"\Aerror: {key} must {rule}, got {re.escape(repr(value))}\n\Z")
      for key, value, rule in [
          ("flat_cache_entries", "256", "be an integer"), ("page_bytes", 4096.0, "be an integer"),
          ("cxl_ns", "95", f"lie in {LATENCY_RANGE}"), ("seed", True, "be an integer"),
          ("device_capacity_bytes", "1 MiB", "be an integer")]),
    # a bool is no number, though Python counts it as one
    *(case(f"{_CONFIG}bool_where_a_number_goes_names_the_key[{key}]", "simulate",
           run_doc(**{key: value}), rf"\Aerror: {key} must lie in {span}, got {value}\n\Z")
      for key, value, span in [("cxl_ns", True, LATENCY_RANGE),
                               ("clock_ghz", False, r"\[1e-12, 1000000000000\]")]),
    # a seed that --seed replaces is no dataclass's input, and is held to an
    # integer all the same
    *(case(f"{test}seed_the_flag_replaces_is_still_an_integer[{param}]", command, doc,
           rf"\Aerror: seed must be an integer, got {re.escape(repr(value))}\n\Z", "--seed", "5")
      for test, param, command, doc, value in [
          (_CONFIG, "simulate", "simulate", run_doc(seed="7"), "7"),
          (_GEN, "bare_pattern", "gen-trace", pattern_doc(seed=None), None),
          (_GEN, "run_config", "gen-trace", run_doc(trace={"pattern": pattern_doc(seed=4.0)}),
           4.0),
          (_ANALYZE, "mc_exhaustion", "analyze-security",
           {"monte_carlo": {"exhaustion": {"stealth_bits": 3, "reset_exp": 2, "seed": True}}},
           True),
          (_ANALYZE, "mc_replay", "analyze-security",
           {"monte_carlo": {"replay": {"stealth_bits": 8, "seed": "5"}}}, "5")]),
    # the config is built before its trace is read, so a missing file
    # cannot hide its error
    case(_CONFIG + "config_error_reported_before_the_trace_is_read", "simulate",
         run_doc(cxl_ns=-1, trace={"file": "missing.bin"}),
         rf"\Aerror: cxl_ns must lie in {LATENCY_RANGE}, got -1\n\Z"),
    # the inline pattern is checked even where --trace replaces it
    case(_CONFIG + "pattern_checked_where_the_trace_flag_replaces_it", "simulate",
         run_doc(trace={"pattern": pattern_doc(seed="4")}),
         r"\Aerror: seed must be an integer, got '4'\n\Z", "--trace", "t.bin",
         files={"t.bin": TRACE}),
    case(_CONFIG + "wrong_tree_value_type_names_the_key", "simulate",
         run_doc(mode="merkle", tree={"arity": "8"}), "arity"),
    case(_CONFIG + "wrong_pattern_value_type_names_the_key", "simulate",
         run_doc(trace={"pattern": pattern_doc(seed="4")}), "seed"),
    *(case(f"{_CONFIG}malformed_trace_names_the_key[{param}]", "simulate", run_doc(trace=trace),
           key, files={"t.bin": TRACE}) for param, trace, key in [
        ("trace0-file", {"file": None}, "file"),
        ("trace1-file", {"file": ["t.bin"]}, "file"),
        ("trace2-file", {"file": 5}, "file"),
        ("trace3-file", {"file": True}, "file"),
        ("trace4-bogus", {"file": "t.bin", "bogus": 1}, "bogus"),
        ("trace5-op_count", {"pattern": {k: v for k, v in pattern_doc().items()
                                         if k != "op_count"}}, "op_count"),
        ("trace6-bogus_field", {"pattern": pattern_doc(bogus_field=1)}, "bogus_field")]),
    *(case(f"{_CONFIG}tree_checked_in_every_mode[{param}]", "simulate",
           run_doc(mode=mode, tree=tree), key) for param, mode, tree, key in [
        ("none-tree0-bogus", "none", {"bogus": 1}, "bogus"),
        ("ci-tree1-bogus", "ci", {"bogus": 1}, "bogus"),
        ("toleo-tree2-bogus", "toleo", {"bogus": 1}, "bogus"),
        ("toleo-0-tree", "toleo", 0, "tree")]),
    # only merkle builds a tree, but every mode range-checks the section
    *(case(f"{_CONFIG}tree_range_checked_in_every_mode[{mode}]", "simulate",
           run_doc(mode=mode, tree={"arity": 1}),
           r"\Aerror: arity must lie in \[2, inf\), got 1\n\Z")
      for mode in ("none", "ci", "toleo")),
    *(case(f"{_CONFIG}out_of_range_value_names_the_key[{param}]", "simulate", run_doc(**keys),
           re.escape(key), *flags) for param, keys, key, *flags in [
        ("tree_assoc_0", {"mode": "merkle", "tree": {"counter_cache_assoc": 0}},
         "counter_cache_assoc"),
        ("tree_node_0", {"mode": "merkle", "tree": {"node_bytes": 0}}, "node_bytes"),
        ("tree_node_4", {"mode": "merkle", "tree": {"node_bytes": 4}}, "node_bytes"),
        ("tree_leaf_0", {"mode": "merkle", "tree": {"counters_per_leaf_node": 0}},
         "counters_per_leaf_node"),
        ("clock_0", {"clock_ghz": 0}, "clock_ghz"),
        ("seed_negative", {"seed": -1}, "seed"),
        ("seed_2_128", {"seed": 2**128}, "seed"),
        ("seed_flag_negative", {}, "seed", "--seed", "-3"),
        ("pattern_seed_negative", {"trace": {"pattern": pattern_doc(seed=-1)}}, "seed"),
        ("message_bytes_negative", {"device_message_bytes": -64}, "device_message_bytes"),
        ("cxl_ns_negative", {"cxl_ns": -95}, "cxl_ns"),
        ("cipher_cycles_negative", {"cipher_cycles": -40}, "cipher_cycles"),
        ("local_ns_negative", {"local_ns": -50}, "local_ns"),
        ("local_bytes_negative", {"local_bytes": -1}, "local_bytes"),
        ("local_bytes_unaligned", {"local_bytes": 100}, "local_bytes"),
        ("tree_cache_shape", {"mode": "merkle", "tree": {"counter_cache_bytes": 384,
                                                         "counter_cache_assoc": 4}},
         "counter_cache_bytes and counter_cache_assoc"),
        ("tree_cache_no_line", {"mode": "merkle", "tree": {"counter_cache_bytes": 10}},
         "counter_cache_bytes"),
        ("mac_cache_shape", {"mac_cache_bytes": 384, "mac_assoc": 4}, "mac_assoc"),
        ("overflow_shape", {"overflow_bytes": 336, "overflow_assoc": 4}, "overflow_assoc"),
        ("mac_cache_part_line", {"mac_cache_bytes": 1100, "mac_assoc": 1}, "mac_cache_bytes"),
        ("tree_cache_part_line", {"mode": "merkle", "tree": {"counter_cache_bytes": 100}},
         "counter_cache_bytes"),
        ("pattern_footprint_2_53", {"trace": {"pattern": pattern_doc(footprint_bytes=2**53)}},
         "footprint_bytes"),
        ("pool_dram_ns_negative", {"mode": "merkle", "pool_dram_ns": -1}, "pool_dram_ns"),
        ("device_dram_ns_negative", {"device_dram_ns": -1}, "device_dram_ns"),
        ("cxl_ns_nan", {"cxl_ns": float("nan")}, "cxl_ns"),
        ("local_ns_inf", {"local_ns": float("inf")}, "local_ns"),
        ("cxl_ns_inf", {"cxl_ns": float("inf")}, "cxl_ns"),
        ("clock_ghz_inf", {"clock_ghz": float("inf")}, "clock_ghz"),
        ("protected_bytes_unaligned", {"mode": "none", "protected_bytes": 4160},
         "protected_bytes"),
        ("protected_bytes_zero", {"mode": "merkle", "protected_bytes": 0}, "protected_bytes"),
        # past the uint64 addresses a trace holds: a toleo run ended in an
        # OverflowError once its stats averaged the device bytes per page
        ("protected_bytes_past_2_64",
         {"protected_bytes": BIG - BIG % PAGE,
          "trace": {"pattern": pattern_doc(kind="zipfian", footprint_bytes=4 << 20)}},
         "protected_bytes")]),
    # each value is finite but a read's latency, their sum, was not: an
    # OverflowError on the first event.  Each is past its field's high bound.
    *(case(f"{_CONFIG}read_latency_past_float_range_names_the_keys[{param}]", "simulate",
           run_doc(**keys), rf"^error: {key} must lie in {LATENCY_RANGE}, got {keys[key]}$")
      for param, keys, key in [
          ("ci-local", {"mode": "ci", "local_ns": 2**1023}, "local_ns"),
          ("toleo-pool", {"local_bytes": 0, "cxl_ns": 2**1023, "pool_dram_ns": 2**1023},
           "cxl_ns"),
          ("toleo-device", {"cxl_ns": 2**1023, "device_dram_ns": 2**1023}, "cxl_ns"),
          ("merkle-depth-3", {"mode": "merkle", "protected_bytes": 1 << 26, "local_ns": 2**1022},
           "local_ns")]),
    # each read's latency is finite but their sum over the trace was not: the
    # run exited 0 with "avg_read_latency_ns": Infinity
    case(_CONFIG + "summed_read_latency_past_float_range_names_the_keys", "simulate",
         run_doc(mode="ci", local_ns=1e306),
         rf"^error: local_ns must lie in {LATENCY_RANGE}, got 1e\+306$"),
    *(case(f"{_CONFIG}integer_past_float_range_names_the_key[{key}-{mode}]", "simulate",
           run_doc(mode=mode, **{key: BIG}),
           rf"^error: {key} must lie in {LATENCY_RANGE}, got 10{{400}}$")
      for key in ("local_ns", "cxl_ns", "pool_dram_ns", "device_dram_ns", "cipher_cycles")
      for mode in ("toleo", "merkle")),
    *(case(f"{_CONFIG}engine_sizes_checked_in_every_mode[{param}-{mode}]", "simulate",
           run_doc(mode=mode, **{key: value}), rf"^error: {key} must lie in {rule}, got {value}$")
      for param, key, value, rule in [
          ("flat_cache_entries_0", "flat_cache_entries", 0, r"\[1, inf\)"),
          ("device_capacity_negative", "device_capacity_bytes", -5, r"\[0, inf\)")]
      for mode in ("none", "ci", "toleo", "merkle")),
    *(case(f"{_CONFIG}falsy_non_object_config_rejected[{param}]", "simulate", doc,
           "config must be a JSON object", "--trace", "t.bin", files={"t.bin": TRACE})
      for param, doc in [("doc0", []), ("0", 0), ("False", False), ("", "")]),
    *(case(f"{_CONFIG}toleo_rejects_lines_the_device_cannot_hold[{key}-{value}]", "simulate",
           run_doc(**{key: value}), "slots hold") for key, value in [("page_bytes", 8192),
                                                                      ("stealth_bits", 32)]),
    *(case(f"{_GEN}malformed_config_names_the_key[{param}]", "gen-trace", doc, key)
      for param, doc, key in [
          ("5-config", 5, "config"), ("None-trace", None, "trace"),
          ("doc2-trace", {"trace": 5}, "trace"),
          ("doc3-zipf_skew", pattern_doc(kind="zipfian", zipf_skew=float("nan")), "zipf_skew"),
          ("doc4-hot_set_bytes", pattern_doc(kind="hot_block", hot_set_bytes=-4096),
           "hot_set_bytes"),
          # sizes that are not whole blocks were floored to them
          ("doc5-footprint_bytes", pattern_doc(kind="strided", footprint_bytes=65632),
           "footprint_bytes"),
          ("doc6-stride_bytes", pattern_doc(kind="strided", stride_bytes=100), "stride_bytes"),
          # past float range: the zipfian CDF raised OverflowError on it
          ("doc7-zipf_skew", pattern_doc(kind="zipfian", zipf_skew=BIG), "zipf_skew"),
          # past int64: the strided walk raised OverflowError on it
          ("stride_2_63", pattern_doc(kind="strided", stride_bytes=2**63),
           r"^error: stride_bytes must lie in \[64, 9223372036854775744\]")]),
    # sizes no host holds: 2^63 events is past what numpy can be asked for
    # and 2^40 past what an allocator grants (8 TiB per column); a row must
    # never use a size some host could grant, as tier-1 runs it uncapped
    *(case(f"{_CONFIG}size_the_host_cannot_hold_names_the_key[{param}]", command, doc, key)
      for param, command, doc, key in [
          ("gen-trace-op_count_2_63", "gen-trace", pattern_doc(op_count=2**63),
           r"^error: op_count must lie in \[1, 1152921504606846975\], got 9223372036854775808$"),
          ("gen-trace-op_count_2_40", "gen-trace", pattern_doc(op_count=2**40),
           r"^error: op_count 1099511627776 over footprint_bytes 131072 needs more memory "),
          ("simulate-op_count_2_63", "simulate",
           run_doc(trace={"pattern": pattern_doc(op_count=2**63)}), r"^error: op_count must lie in"),
          ("simulate-op_count_2_40", "simulate",
           run_doc(trace={"pattern": pattern_doc(op_count=2**40)}),
           r"^error: op_count 1099511627776 over .* needs more memory than the host grants$")]),
    # a run config is checked whole, as simulate checks it
    *(case(f"{_GEN}run_config_checked_as_simulate_checks_it[{param}]", "gen-trace",
           run_doc(**keys), stderr) for param, keys, stderr in [
        ("cxl_ns", {"cxl_ns": -1}, rf"\Aerror: cxl_ns must lie in {LATENCY_RANGE}, got -1\n\Z"),
        ("tree_arity", {"tree": {"arity": 1}}, r"\Aerror: arity must lie in \[2, inf\), got 1\n\Z")]),
    case(_GEN + "bare_pattern_without_kind_names_it", "gen-trace",
         {"footprint_bytes": 4096, "op_count": 5}, re.escape("pattern needs key(s): kind")),
    *(case(f"{_ANALYZE}bad_analysis_value_names_the_key[{param}]", "analyze-security", doc, key)
      for param, doc, key in [
          ("doc0-reset_exp", {"exhaustion": {"reset_exp": "20"}}, "reset_exp"),
          ("doc1-stealth_bits", {"replay": {"stealth_bits": 8.0}}, "stealth_bits"),
          ("doc2-trials", {"monte_carlo": {"replay": {"stealth_bits": 8, "trials": "9"}}},
           "trials"),
          ("doc3-reset_exp", {"monte_carlo": {"exhaustion": {"stealth_bits": 3}}}, "reset_exp"),
          # past float range: 2.0 ** -reset_exp raised OverflowError on it
          ("doc4-reset_exp", {"exhaustion": {"reset_exp": BIG}}, "reset_exp"),
          ("mc_reset_exp_10^400",
           {"monte_carlo": {"exhaustion": {"stealth_bits": 3, "reset_exp": BIG}}},
           r"^error: reset_exp must lie in \[0, inf\), got 10{400}$"),
          ("mc_stealth_bits_10^400", {"monte_carlo": {"replay": {"stealth_bits": BIG}}},
           r"^error: stealth_bits must lie in \[1, 20\], got 10{400}$"),
          # no float holds a seed this large, as no PatternSpec seed may be
          ("mc_exhaustion_seed_10^400",
           {"monte_carlo": {"exhaustion": {"stealth_bits": 3, "reset_exp": 2, "seed": BIG}}},
           r"^error: seed must lie in \[0, inf\), got 10{400}$"),
          ("mc_replay_seed_10^400", {"monte_carlo": {"replay": {"stealth_bits": 8, "seed": BIG}}},
           r"^error: seed must lie in \[0, inf\), got 10{400}$")]),
    *(case(f"{_ANALYZE}negative_monte_carlo_value_names_the_key[{param}]", "analyze-security",
           {"monte_carlo": {section: doc}}, rf"^error: {key} must lie in \[0, inf\), got -\d+$",
           *flags) for param, section, doc, key, *flags in [
        ("mc_exhaustion_seed", "exhaustion", {"stealth_bits": 3, "reset_exp": 2, "seed": -1},
         "seed"),
        ("mc_replay_seed", "replay", {"stealth_bits": 8, "seed": -1}, "seed"),
        ("seed_flag_replay", "replay", {"stealth_bits": 8}, "seed", "--seed", "-3"),
        ("seed_flag_exhaustion", "exhaustion", {"stealth_bits": 3, "reset_exp": 2}, "seed",
         "--seed", "-3"),
        ("mc_reset_exp", "exhaustion", {"stealth_bits": 3, "reset_exp": -3}, "reset_exp"),
        ("mc_updates", "exhaustion",
         {"stealth_bits": 3, "reset_exp": 2, "updates_per_address": -1},
         "updates_per_address")]),
    # null is no Monte Carlo value: a key left out takes its default
    *(case(f"{_ANALYZE}monte_carlo_null_names_the_key[{section}-{key}]", "analyze-security",
           {"monte_carlo": {section: dict(doc, **{key: None})}},
           rf"\Aerror: {key} must be an integer, got None\n\Z")
      for section, doc, key in [
          ("exhaustion", {"stealth_bits": 3, "reset_exp": 2}, "updates_per_address"),
          ("exhaustion", {"stealth_bits": 3, "reset_exp": 2}, "trials"),
          ("replay", {"stealth_bits": 8}, "seed")]),
    *(case(f"{_ANALYZE}size_the_host_cannot_hold_names_the_key[{param}]", "analyze-security",
           {"monte_carlo": {section: doc}}, stderr) for param, section, doc, stderr in [
        ("exhaustion_trials_2_63", "exhaustion",
         {"stealth_bits": 3, "reset_exp": 2, "trials": 2**63},
         r"^error: trials x addresses must be at most 1152921504606846975, "
         r"got 9223372036854775808 x 1$"),
        ("exhaustion_trials_2_40", "exhaustion",
         {"stealth_bits": 3, "reset_exp": 2, "trials": 2**40},
         r"^error: trials x addresses = 1099511627776 x 1 streams need more memory "),
        ("exhaustion_addresses_2_40", "exhaustion",
         {"stealth_bits": 3, "reset_exp": 2, "trials": 1, "addresses": 2**40},
         r"^error: trials x addresses = 1 x 1099511627776 streams need more memory "),
        ("replay_trials_2_63", "replay", {"stealth_bits": 8, "trials": 2**63},
         r"^error: trials must lie in \[1, 1152921504606846975\], got 9223372036854775808$"),
        ("replay_trials_2_40", "replay", {"stealth_bits": 8, "trials": 2**40},
         r"^error: trials 1099511627776 needs more memory than the host grants$")]),
    # the exact run model refuses more than 10^7 draws: refused before the
    # Monte Carlo loop, which runs once per update, not after it
    *(case(f"{_ANALYZE}long_exhaustion_run_refused_before_monte_carlo[{param}]",
           "analyze-security", {"monte_carlo": {"exhaustion": doc}},
           rf"^error: monte_carlo\.exhaustion\.updates_per_address {doc['updates_per_address']} "
           r"is too many: run model capped at 1e7 draws; use exhaustion_bound$")
      for param, doc in [
          ("2_64", {"stealth_bits": 3, "reset_exp": 2, "updates_per_address": 2**64}),
          ("10_7_plus_5", {"stealth_bits": 3, "reset_exp": 2, "updates_per_address": 10**7 + 5,
                           "trials": 1}),
          # whatever the closed form answers: a reset probability of 1, and
          # fewer draws than a run of 2^24 - 1 misses needs
          ("closed_form_reset_exp_0", {"stealth_bits": 3, "reset_exp": 0,
                                       "updates_per_address": 2**64, "trials": 1}),
          ("closed_form_short_run", {"stealth_bits": 24, "reset_exp": 30,
                                     "updates_per_address": 16_000_000, "trials": 1})]),
    # the default updates_per_address, 4 << stealth_bits, passes the cap from
    # stealth_bits 22 on: refused naming stealth_bits, which the document gave
    *(case(f"{_ANALYZE}default_exhaustion_run_past_the_cap_names_stealth_bits[{bits}]",
           "analyze-security",
           {"monte_carlo": {"exhaustion": {"stealth_bits": bits, "reset_exp": 20, "trials": 1}}},
           rf"^error: monte_carlo\.exhaustion\.stealth_bits {bits}: its default "
           rf"updates_per_address {4 << bits} is too many: run model capped at 1e7 draws; "
           r"use exhaustion_bound$") for bits in (22, 24)),
    *(case(f"{_ANALYZE}falsy_non_object_section_rejected[{param}]", "analyze-security",
           {section: value}, f"{section} must be a JSON object") for param, section, value in [
        ("doc0-exhaustion", "exhaustion", []), ("doc1-replay", "replay", False),
        ("doc2-replay", "replay", 0), ("doc3-monte_carlo", "monte_carlo", "")]),
    case(_ANALYZE + "unknown_analysis_key", "analyze-security",
         {"exhaustion": {"warp_factor": 9}}, "warp_factor"),
    Case("TestCompare::test_needs_two_configs", "compare",
         {"run.json": json.dumps(run_doc()).encode()}, ("run.json",), 2, "two configs"),
    Case("TestCompare::test_refuses_mismatched_traces", "compare",
         {"a.json": json.dumps(run_doc()).encode(),
          "b.json": json.dumps(run_doc(trace={"pattern": pattern_doc(seed=99)})).encode()},
         ("a.json", "b.json"), 2, "trace mismatch"),
]


def mismatch(row: Case, status: int, stderr: str) -> str | None:
    """What of ``row`` a run that exited ``status`` with ``stderr`` broke,
    or None."""
    for word in ("Traceback", "__init__"):
        if word in stderr:
            return f"stderr holds {word!r}:\n{stderr}"
    if status != row.status:
        return f"exit {status}, expected {row.status}; stderr:\n{stderr}"
    if not re.search(row.stderr, stderr, re.M):
        return f"stderr does not match {row.stderr!r}:\n{stderr}"
    return None


def _write_files(row: Case, directory) -> None:
    for name, data in row.files.items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)


def run_in_process(row: Case, directory) -> tuple[int, str]:
    """Run ``row`` through ``cli.main`` in ``directory``: (status, stderr).
    No row may reach open() with an int (or a bool), a file descriptor."""
    from freshsim.cli import main

    def path_only_open(file, *args, **kwargs):
        assert isinstance(file, (str, os.PathLike)), f"open({file!r})"
        return real_open(file, *args, **kwargs)

    _write_files(row, directory)
    real_open, err, cwd = open, io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                mock.patch("builtins.open", path_only_open):
            status = main([row.command, *row.argv])
    finally:
        os.chdir(cwd)
    return status, err.getvalue()


def run_child(row: Case, directory, env: dict) -> tuple[int, str]:
    """Run ``row`` as ``python -m freshsim`` in ``directory``: (status, stderr)."""
    _write_files(row, directory)
    proc = subprocess.run([sys.executable, "-m", "freshsim", row.command, *row.argv],
                          cwd=directory, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120)
    return proc.returncode, proc.stderr.decode("utf-8", "replace")


def child_env(**extra) -> dict:
    """The environment with the checkout's ``src`` first on PYTHONPATH, and
    ``extra``, for a child that runs ``python -m freshsim``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def main() -> int:
    env = child_env()
    failed = 0
    with tempfile.TemporaryDirectory() as root:
        for i, row in enumerate(CASES):
            directory = os.path.join(root, str(i))
            os.mkdir(directory)
            problem = mismatch(row, *run_child(row, directory, env))
            failed += problem is not None
            print(f"FAIL {row.name}: {problem}" if problem else f"ok   {row.name}", flush=True)
    print(f"{len(CASES) - failed} of {len(CASES)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
