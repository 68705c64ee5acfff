"""Mutations the tests must catch: one table of them, and a runner.

An entry names a file of the checkout, its exact old text, a replacement,
and the pytest node ids that must fail once the replacement is made.  Each
entry is a fault some test was written or rewritten to catch, so a refactor
that leaves one uncaught shows here.  Run as a script:

    python tests/mutations.py [NAME ...]

The runner copies the checkout to a temporary directory and runs the listed
tests there once unmutated: every one must pass.  Then, for each entry (or
each one named), it makes the replacement, runs the entry's tests, requires
every one to fail, and puts the file back.  An entry whose old text does not
occur exactly once in its file fails the runner: port it to the new code,
never delete it to get a pass.  Exit status 0 when every entry is caught.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

from hypothesis import Phase, settings

ENGINE = "src/freshsim/engine.py"
CACHES = "src/freshsim/caches.py"
BASELINES = "src/freshsim/baselines.py"
STORE = "src/freshsim/version_store.py"
TRACES = "src/freshsim/traces.py"
CLI = "src/freshsim/cli.py"

_CHARGING = "tests/test_engine.py::TestChargingModel::test_"
_INCLUSIVE = ("tests/test_engine.py::TestInclusivity::"
              "test_lines_stay_inclusive_and_reads_decode_under_traffic")
_CONSERVED = "tests/test_engine.py::TestConservation::test_outcome_sums_match_engine_totals"
_FUNCTIONAL = "tests/test_engine.py::TestFunctionalLayer::test_"
_MERKLE = "tests/test_baselines.py::TestMerkleEngine::test_"
_RANGE = "tests/test_caches.py::TestRangeOps::test_"
_FLAT = "tests/test_caches.py::TestFlatCache::test_"
_CACHES = "tests/test_caches.py::test_"
_ACROSS_MODES = "tests/test_baselines.py::test_modes_agree_on_metadata_after_every_event"
_EACH_OUTCOME = "tests/test_baselines.py::test_each_outcome_is_what_its_event_charged"
_HALT = "tests/test_engine.py::TestCapacityHalt::test_capacity_exhaustion_halts_engine"
_STORE = "tests/test_version_store.py::"
_TEXT_LOAD = ("tests/test_traces.py::TestStreamingLoad::"
              "test_streamed_text_load_equals_the_whole_parse")


class Mutation(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


MUTATIONS = [
    # -- the per-event skeleton ---------------------------------------------------------
    Mutation("mac_charged_on_a_hit", ENGINE,
             "            if moved:\n                nbytes *= moved\n",
             "            if True:\n                nbytes *= moved or 1\n",
             (_CHARGING + "warm_read_moves_no_metadata",)),
    Mutation("local_event_outcome_charges_nothing", ENGINE,
             "            out.local_bytes = nbytes\n",
             "            out.local_bytes = 0\n",
             tuple(f"{_CONSERVED}[{mode}]" for mode in ("none", "ci", "toleo", "merkle"))),
    Mutation("mac_bytes_left_off_the_outcome", ENGINE,
             "                out.mac_bytes = nbytes\n                self.mac_bytes += nbytes\n",
             "                self.mac_bytes += nbytes\n",
             tuple(f"{_CONSERVED}[{mode}]" for mode in ("ci", "toleo", "merkle"))),
    Mutation("mac_hit_keeps_the_last_events_mac_bytes", ENGINE,
             "            else:\n                out.mac_bytes = 0\n", "",
             tuple(f"{_CONSERVED}[{mode}]" for mode in ("ci", "toleo", "merkle"))),
    Mutation("read_latency_sums_the_overlapping_fetches", ENGINE,
             "mac_ns if mac_ns > fresh_ns else fresh_ns",
             "mac_ns + fresh_ns",
             (_CHARGING + "cold_read_pays_device_and_mac",)),
    # -- toleo's metadata path ----------------------------------------------------------
    Mutation("outcome_keeps_the_last_events_device_charges", ENGINE,
             "                out.device_bytes = out.device_transactions = 0\n"
             "                return 0.0\n",
             "                return 0.0\n",
             (f"{_CONSERVED}[toleo]",)),
    Mutation("outcome_keeps_the_last_events_store_events", ENGINE,
             "        else:\n            out.events = ()\n", "        else:\n",
             (f"{_CONSERVED}[toleo]",)),
    Mutation("halt_keeps_the_last_events_mac_bytes", ENGINE,
             "                out.mac_bytes = out.device_bytes = out.device_transactions = 0\n",
             "                out.device_bytes = out.device_transactions = 0\n",
             (_HALT,)),
    Mutation("halt_keeps_the_last_events_store_events", ENGINE,
             "                out.events = ()\n                self.halted = ",
             "                self.halted = ",
             (_EACH_OUTCOME,)),
    Mutation("rekey_skips_the_flat_cache_drop", ENGINE,
             "        self.flat_cache.drop(page)\n", "",
             (f"{_INCLUSIVE}[default_caches]", f"{_INCLUSIVE}[hot_set_in_flat_cache]",
              "tests/test_engine.py::TestUvUpdates::test_reset_triggers_page_reencryption")),
    Mutation("update_drops_the_pages_mac_lines", ENGINE,
             "            self.device_updates += 1\n",
             "            self.device_updates += 1\n"
             "            self.mac_cache.invalidate_range(range(\n"
             "                self._mac_key_base + page * self._page_bytes // self._mac_key_span,\n"
             "                self._mac_key_base + (page + 1) * self._page_bytes // self._mac_key_span))\n",
             (_ACROSS_MODES,)),
    Mutation("read_miss_fills_one_line_too_few", ENGINE,
             "                count = LINE_COUNT[self.store.fetch_format(page)]\n"
             "                self.flat_cache.write(page, count)\n",
             "                count = LINE_COUNT[self.store.fetch_format(page)]\n"
             "                self.flat_cache.write(page, max(count - 1, 0))\n",
             (f"{_INCLUSIVE}[small_caches]",)),
    Mutation("flat_hit_counted_as_a_miss", CACHES,
             "        pages[page] = lines\n        self.hits += 1\n",
             "        pages[page] = lines\n        self.misses += 1\n",
             (_CHARGING + "warm_read_moves_no_metadata", _CHARGING + "mac_only_miss_waits_on_dram",
              _CHARGING + "read_refetches_missing_overflow_line")),
    Mutation("missed_line_not_counted", CACHES,
             "        self.overflow.misses += count - hits\n",
             "",
             (_CHARGING + "read_refetches_missing_overflow_line",
              _RANGE + "probe_checks_every_line_after_a_miss")),
    Mutation("read_does_not_refill_a_missed_line", CACHES,
             "        self.overflow.misses += count - hits\n        self.write(page, count)\n",
             "        self.overflow.misses += count - hits\n",
             (_FLAT + "read_fills_lines_exactly_on_a_device_read",
              _RANGE + "probe_checks_every_line_after_a_miss",
              _CACHES + "flat_cache_matches_reference_model")),
    Mutation("probe_stops_at_the_first_miss", CACHES,
             "                hits += 1\n        self.overflow.hits += hits\n",
             "                hits += 1\n            else:\n                break\n"
             "        self.overflow.hits += hits\n",
             (_RANGE + "probe_checks_every_line_after_a_miss",
              _CACHES + "flat_cache_matches_reference_model")),
    Mutation("fill_evicts_the_most_recent_line", CACHES,
             "                    for victim in s:\n                        break\n"
             "                    del s[victim]\n",
             "                    victim = next(reversed(s))\n                    del s[victim]\n",
             (_CACHES + "flat_cache_matches_reference_model",
              _CACHES + "range_ops_match_reference_model")),
    Mutation("page_eviction_leaves_the_victims_last_line", CACHES,
             "                for key, s in pages.pop(victim):\n",
             "                for key, s in pages.pop(victim)[:-1]:\n",
             (_FLAT + "eviction_drops_the_victims_lines",
              _CACHES + "flat_cache_matches_reference_model")),
    Mutation("memoised_line_in_another_set", CACHES,
             "        lines = known + tuple((key, sets[set_index(key, num_sets)])\n",
             "        lines = known + tuple((key, sets[set_index(key + 1, num_sets)])\n",
             (_CACHES + "page_memo_is_exact_and_bounded",)),
    Mutation("set_index_one_shift_changed", CACHES,
             "    h = (key ^ (key >> 16)) * 0x45D9F3B\n",
             "    h = (key ^ (key >> 15)) * 0x45D9F3B\n",
             (_CACHES + "set_index_is_exact_in_wrapping_uint64",)),
    Mutation("clean_mac_eviction_charged", CACHES,
             "            if s.pop(victim):\n                return 2\n",
             "            s.pop(victim)\n            return 2\n",
             ("tests/test_caches.py::TestSetAssocCache::test_dirty_flag_travels_with_eviction",
              _CACHES + "lru_matches_reference_model")),
    Mutation("evicted_line_left_in_the_index", CACHES,
             "            self._index.pop(victim, None)\n", "",
             (_CACHES + "lru_matches_reference_model",)),
    Mutation("invalidate_skips_lines_that_never_hit", CACHES,
             "                s = sets.get(set_index(key, num_sets))\n"
             "                if s is None:\n                    continue\n",
             "                continue\n",
             ("tests/test_caches.py::TestLruCache::test_invalidate",)),
    Mutation("invalidate_makes_sets", CACHES,
             "sets.get(set_index(key, num_sets))", "sets[set_index(key, num_sets)]",
             (_CACHES + "sets_are_made_on_first_fill",)),
    Mutation("hit_left_unindexed", CACHES,
             "            self._index[key] = s\n", "",
             ("tests/test_caches.py::TestSetAssocCache::test_only_lines_that_hit_are_indexed",)),
    # -- the store's transition counters ------------------------------------------------
    Mutation("full_upgrade_not_counted", STORE,
             "                self.upgrades_to_full += 1\n", "",
             (_STORE + "TestFullTransitions::test_offset_127_still_uneven_128_goes_full",)),
    Mutation("uneven_upgrade_not_counted", STORE,
             "                self.upgrades_to_uneven += 1\n", "",
             (_STORE + "TestUnevenTransitions::test_normalization_slides_window",)),
    Mutation("normalization_not_counted", STORE,
             "                    self.normalizations += 1\n", "",
             (_STORE + "TestUnevenTransitions::test_normalization_slides_window",)),
    Mutation("uneven_upgrade_leaves_the_peak", STORE,
             "                self.upgrades_to_uneven += 1\n"
             "                self.peak_dynamic_bytes = max(self.peak_dynamic_bytes, "
             "self.dynamic_bytes)\n",
             "                self.upgrades_to_uneven += 1\n",
             ("tests/test_pinned_outputs.py::test_capacity_halted_toleo_run_is_pinned",)),
    # -- the wire format the functional layer decodes ----------------------------------
    Mutation("entry_lines_pack_each_offset_plus_one", STORE,
             "            raw = pack_bitfields(e.offsets, OFFSET_BITS)\n",
             "            raw = pack_bitfields([o + 1 for o in e.offsets], OFFSET_BITS)\n",
             (f"{_INCLUSIVE}[small_caches]",
              _FUNCTIONAL + "roundtrip_through_uneven_full_and_reset")),
    Mutation("decode_uneven_line_offset_plus_one", STORE,
             "    return unpack_bitfields(line, OFFSET_BITS, geometry.blocks_per_page)\n",
             "    return [o + 1 for o in unpack_bitfields(line, OFFSET_BITS, "
             "geometry.blocks_per_page)]\n",
             (f"{_INCLUSIVE}[small_caches]",
              _FUNCTIONAL + "roundtrip_through_uneven_full_and_reset")),
    Mutation("decode_full_lines_flips_the_last_version", STORE,
             "    return unpack_bitfields(b\"\".join(lines), params.stealth_bits, "
             "geometry.blocks_per_page)\n",
             "    v = unpack_bitfields(b\"\".join(lines), params.stealth_bits, "
             "geometry.blocks_per_page)\n    v[-1] ^= 1\n    return v\n",
             (_FUNCTIONAL + "roundtrip_through_uneven_full_and_reset",)),
    # -- loading a text trace a chunk at a time ---------------------------------------
    Mutation("text_load_splits_a_crlf_across_chunks", TRACES,
             "        body = chunk[:-1] if chunk.endswith(\"\\r\") else chunk\n",
             "        body = chunk\n",
             (_TEXT_LOAD,)),
    Mutation("text_load_names_a_bad_line_before_a_later_non_ascii_byte", TRACES,
             "        for _ in chunks:\n            pass\n", "",
             (_TEXT_LOAD, "tests/test_cli.py::TestSimulate::"
              "test_text_trace_non_ascii_byte_refused_before_an_earlier_bad_line")),
    # -- the merkle baseline ------------------------------------------------------------
    Mutation("merkle_walk_also_touches_the_mac_cache", BASELINES,
             "        fetched = tree.access(addr, is_write)\n",
             "        fetched = tree.access(addr, is_write)\n"
             "        self.mac_cache.access(addr // self._block_bytes, False)\n",
             (_ACROSS_MODES,)),
    Mutation("merkle_adds_to_the_last_events_device_bytes", BASELINES,
             "        out.device_bytes = nbytes\n", "        out.device_bytes += nbytes\n",
             (f"{_CONSERVED}[merkle]",)),
    Mutation("merkle_walk_on_the_local_channel", BASELINES,
             "        return fetched * data_ns\n",
             "        return fetched * self._local_ns\n",
             (_MERKLE + "cold_pool_read_walks_on_the_pool_channel",)),
    Mutation("tree_walk_one_level_short", BASELINES,
             "        while fetched < depth:",
             "        while fetched < depth - 1:",
             (_MERKLE + "cold_read_walks_and_charges_tree",
              "tests/test_acceptance.py::test_criterion_07_tree_depth_versus_device")),
    Mutation("tree_hit_counted_as_a_fetch", BASELINES,
             "            if not lines:\n                break\n            fetched += 1\n",
             "            fetched += 1\n            if not lines:\n                break\n",
             (_MERKLE + "warm_read_skips_tree",)),
    Mutation("first_access_fetches_reports_every_fetch", BASELINES,
             '"first_access_fetches": tree.depth if s["events"] else 0,',
             '"first_access_fetches": tree.fetches,',
             (_MERKLE + "first_access_fetches_is_the_cold_walks_depth",)),
    # -- the command line ---------------------------------------------------------------
    Mutation("tree_range_checked_only_under_merkle", CLI,
             '    tree = CounterTreeConfig(**_section(cfg.get("tree")))'
             '  # range-checked in every mode\n    mode = cfg["mode"]\n',
             '    mode = cfg["mode"]\n'
             '    if mode == "merkle":\n'
             '        tree = CounterTreeConfig(**_section(cfg.get("tree")))\n',
             tuple(f"tests/test_cli.py::TestConfigHandling::"
                   f"test_tree_range_checked_in_every_mode[{mode}]"
                   for mode in ("none", "ci", "toleo"))),
]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                               ".bench*", "*.egg-info")
_OUTCOMES = "MUTATIONS_OUTCOMES"  # the file the plugin below writes


# -- a pytest plugin, loaded into the child run with ``-p mutations`` ---------------------


class _Recorder:
    """Whether each test that ran failed in any phase, written as JSON to
    ``path`` when the session ends."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.failed: dict[str, bool] = {}

    def pytest_runtest_logreport(self, report) -> None:
        self.failed[report.nodeid] = self.failed.get(report.nodeid, False) or report.failed

    def pytest_sessionfinish(self) -> None:
        with open(self.path, "w") as fh:
            json.dump(self.failed, fh)


def pytest_configure(config) -> None:
    # a mutation is caught by any failing example, so the child skips
    # Hypothesis's search for the smallest one
    settings.register_profile("mutations", phases=[p for p in Phase if p is not Phase.shrink])
    settings.load_profile("mutations")
    config.pluginmanager.register(_Recorder(os.environ[_OUTCOMES]))


# -- the runner ------------------------------------------------------------------------


def run_tests(tree: str, tests) -> dict[str, bool]:
    """Run ``tests`` in the copy ``tree``: node id -> whether it failed, for
    each test that ran."""
    outcomes = os.path.join(tree, ".outcomes.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(tree, "src"),
                                                       os.path.join(tree, "tests")]),
               PYTHONDONTWRITEBYTECODE="1", **{_OUTCOMES: outcomes})
    if os.path.exists(outcomes):
        os.remove(outcomes)
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "-p", "mutations", "--hypothesis-seed=0", *sorted(set(tests))],
                   cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=600)
    if not os.path.exists(outcomes):
        return {}
    with open(outcomes) as fh:
        return json.load(fh)


def check(tree: str, m: Mutation) -> str | None:
    """Apply ``m`` in ``tree``, run its tests and put the file back: what
    went wrong, or None when every listed test failed."""
    path = os.path.join(tree, m.path)
    with open(path) as fh:
        original = fh.read()
    if original.count(m.old) != 1:
        return f"old text occurs {original.count(m.old)} times in {m.path}, not once"
    if not m.tests:
        return "lists no test"
    with open(path, "w") as fh:
        fh.write(original.replace(m.old, m.new))
    try:
        failed = run_tests(tree, m.tests)
    finally:
        with open(path, "w") as fh:
            fh.write(original)
    missed = [t for t in m.tests if not failed.get(t)]
    return f"still pass or did not run: {', '.join(missed)}" if missed else None


def main(names) -> int:
    chosen = [m for m in MUTATIONS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTATIONS}
    if unknown:
        print(f"unknown mutation(s): {', '.join(sorted(unknown))}")
        return 2
    start, problems = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        tests = [t for m in chosen for t in m.tests]
        failed = run_tests(tree, tests)
        bad = sorted(t for t in set(tests) if failed.get(t, True))
        if bad:
            print("FAIL unmutated tree: these fail or did not run:\n  " + "\n  ".join(bad))
            return 1
        print(f"ok   unmutated tree: {len(set(tests))} tests pass", flush=True)
        for m in chosen:
            t0 = time.perf_counter()
            problem = check(tree, m)
            problems += problem is not None
            took = time.perf_counter() - t0
            print(f"FAIL {m.name}: {problem}" if problem
                  else f"ok   {m.name} ({len(m.tests)} tests fail, {took:.1f} s)", flush=True)
    print(f"{len(chosen) - problems} of {len(chosen)} mutations caught "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
