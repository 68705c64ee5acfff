"""Acceptance gate: ten externally pinned checks, one PASS/FAIL line each.

Every criterion prints exactly one line of the form

    [ACCEPTANCE nn] PASS — <measured values>

and fails the suite if its pinned tolerance is violated.  The checks are
deliberately self-contained: where a criterion needs an independent model
(the uncompressed version map of ``helpers``, the binomial window), it
comes from the tests, never from the code under test.
"""

import filecmp
import json
import math
import random
import time

from freshsim.analysis import (
    ExhaustionQuery,
    analytic_exhaustion_prob,
    exhaustion_bound,
    log_no_reset_prob,
    mc_exhaustion,
    mc_replay,
    replay_success_prob,
)
from freshsim.baselines import (
    CounterTreeConfig,
    CounterTreeState,
    MerkleEngine,
    tree_depth,
)
from freshsim.cli import main
from freshsim.core import Geometry, SecurityParams, pack_full
from freshsim.engine import (
    EngineConfig,
    FunctionalBlockStore,
    HostEngine,
)
from freshsim.traces import PATTERN_KINDS, PatternSpec, generate
from freshsim.version_store import (
    FLAT,
    FULL,
    UNEVEN,
    VersionStore,
    compression_ratio,
    data_partition_bytes,
    entry_cost_bytes,
    flat_array_bytes,
)
from helpers import ReferenceMap, page_base, stealth_add

G = Geometry()
P = SecurityParams()
PAGE = G.page_bytes
GIB = 1 << 30
TIB = 1 << 40


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def make_store(pages, seed, params=P, extra=1 << 22):
    return VersionStore(
        protected_bytes=pages * PAGE,
        device_capacity_bytes=flat_array_bytes(pages * PAGE, G, params) + extra,
        rng=random.Random(seed),
        params=params,
    )


def test_criterion_01_entry_costs_and_ratios():
    expected = {FLAT: (12, 341), UNEVEN: (68, 60), FULL: (228, 18)}
    got = {
        fmt: (entry_cost_bytes(fmt, G, P), compression_ratio(fmt, G, P))
        for fmt in expected
    }
    ok = got == expected
    _report(
        1,
        ok,
        "page entry costs "
        + ", ".join(f"{cost} B -> {ratio}:1" for cost, ratio in got.values()),
    )


def test_criterion_02_device_sizing():
    data = data_partition_bytes(28 * TIB, G)
    flat = flat_array_bytes(data, G, P)
    flat_gib = flat / GIB
    dynamic_gib = 168.0 - flat_gib
    one_tib_flat = flat_array_bytes(1 * TIB, G, P)
    ok = (
        74.4 <= flat_gib <= 74.8
        and abs(dynamic_gib - 93.4) <= 0.2
        and abs(one_tib_flat - 3 * GIB) <= 0.01 * 3 * GIB
    )
    _report(
        2,
        ok,
        f"28 TiB node -> {data / TIB:.2f} TiB data, "
        f"flat {flat_gib:.2f} GiB, dynamic {dynamic_gib:.2f} GiB of 168 GiB; "
        f"1 TiB -> {one_tib_flat / GIB:.2f} GiB flat",
    )


def test_criterion_03_exhaustion_bound():
    bound = exhaustion_bound()
    q = ExhaustionQuery()
    # independent log-domain recompute of 1 - (1 - p0)^K
    log_p0 = q.interval_updates * math.log1p(-(2.0 ** -q.reset_exp))
    recompute = -math.expm1(q.interval_count * math.log1p(-math.exp(log_p0)))
    import freshsim.analysis as analysis_mod

    documented = "1.6e-26" in analysis_mod.__doc__ and "1.604e-28" in analysis_mod.__doc__
    ok = (
        1.6e-19 <= bound <= 1.8e-19
        and math.isclose(bound, recompute, rel_tol=1e-9)
        and documented
    )
    _report(
        3,
        ok,
        f"bound {bound:.6e} in [1.6e-19, 1.8e-19], recompute {recompute:.6e}, "
        f"intermediate-constant note documented: {documented}",
    )


def test_criterion_04_monte_carlo_agreement():
    t0 = time.monotonic()
    ex = mc_exhaustion(stealth_bits=10, reset_exp=5, trials=100_000, seed=1)
    ex_analytic = analytic_exhaustion_prob(10, 5, 4 << 10)
    ex_sigma = max(ex.stderr, math.sqrt(ex_analytic * (1 - ex_analytic) / ex.trials), 1e-12)
    rp = mc_replay(8, trials=1_000_000, seed=1)
    rp_analytic = replay_success_prob(8)
    rp_sigma = max(rp.stderr, math.sqrt(rp_analytic * (1 - rp_analytic) / rp.trials))
    elapsed = time.monotonic() - t0
    ex_ok = abs(ex.estimate - ex_analytic) <= 3 * ex_sigma
    rp_ok = abs(rp.estimate - rp_analytic) <= 3 * rp_sigma
    ok = ex_ok and rp_ok and ex.trials >= 100_000 and rp.trials >= 100_000 and elapsed < 120
    _report(
        4,
        ok,
        f"exhaustion {ex.estimate:.3e} vs {ex_analytic:.3e} (3sigma {3 * ex_sigma:.2e}), "
        f"replay {rp.estimate:.6f} vs {rp_analytic:.6f} "
        f"(z {abs(rp.estimate - rp_analytic) / rp_sigma:.2f}), {elapsed:.1f}s < 120s",
    )


def test_criterion_05_compressed_store_equals_uncompressed_map():
    pages = 128
    ops_per_trace = 100_000
    n_traces = 100
    fractions = (0.05, 0.2, 0.5, 0.8, 1.0)
    mismatches = 0
    total_ops = 0
    for i in range(n_traces):
        spec = PatternSpec(
            kind=PATTERN_KINDS[i % len(PATTERN_KINDS)],
            footprint_bytes=pages * PAGE,
            op_count=ops_per_trace,
            write_fraction=fractions[i % len(fractions)],
            seed=1000 + i,
        )
        store = make_store(pages, seed=2000 + i)
        ref = ReferenceMap(2000 + i, P)
        for op, addr in generate(spec):
            page, block = addr // PAGE, (addr // 64) % 64
            if op == "W":
                got = store.update_version(addr)[0]
                want = ref.write(page, block)
            else:
                got = store.read_version(addr)
                want = ref.read(page, block)
            mismatches += got != want
            total_ops += 1
    ok = mismatches == 0 and total_ops == n_traces * ops_per_trace
    _report(
        5,
        ok,
        f"{n_traces} traces x {ops_per_trace} ops over {pages} pages: "
        f"{mismatches} version mismatches (tolerance 0)",
    )


def test_criterion_06_format_regimes():
    # page-uniform write sweeps: every page flat, base advanced once per sweep
    store = make_store(64, seed=42)
    bases = [page_base(store, p) for p in range(64)]
    spec = PatternSpec(kind="page_uniform", footprint_bytes=64 * PAGE,
                       op_count=3 * 64 * 64, write_fraction=1.0, seed=7)
    for _, addr in generate(spec):
        store.update_version(addr)
    uniform_ok = (
        store.pages_flat == store.pages_touched == 64
        and store.resets == 0
        and all(
            store.read_version(p * PAGE) == stealth_add(bases[p], 3, P.stealth_bits)
            for p in range(64)
        )
    )

    def hot_format(op_count):
        s = make_store(2, seed=5)
        spec = PatternSpec(kind="hot_block", footprint_bytes=2 * PAGE,
                           hot_set_bytes=PAGE, write_fraction=1.0,
                           op_count=op_count, seed=5)
        for _, addr in generate(spec):
            s.update_version(addr)
        return s.page_format(0)

    formats = (hot_format(64), hot_format(129), hot_format(300))
    hot_ok = formats == (UNEVEN, FULL, FULL)
    _report(
        6,
        uniform_ok and hot_ok,
        f"page_uniform: 64/64 flat, bases +3; hot_block 64/129/300 writes -> "
        f"formats {formats} (expect (1, 2, 2))",
    )


def test_criterion_07_tree_depth_versus_device():
    cfg = CounterTreeConfig()
    depth = tree_depth(cfg, 28 * TIB // G.block_bytes)
    cold = CounterTreeState(cfg, 28 * TIB, G.block_bytes).access(0, is_write=False)

    spec = PatternSpec(kind="zipfian", footprint_bytes=512 * PAGE,
                       op_count=5000, seed=77)
    events = generate(spec)
    merkle = MerkleEngine(EngineConfig(protected_bytes=28 * TIB))
    merkle.process_access(*events[0])
    first = merkle.tree.fetches  # the counter tree's fetches after the first event
    toleo = HostEngine(EngineConfig(protected_bytes=28 * TIB))
    toleo.run(events)
    txns = toleo.stats()["device"]["transactions"]
    ok = depth == 10 and cold == 10 and first == 10 and txns <= len(events)
    _report(
        7,
        ok,
        f"28 TiB tree depth {depth} (expect 10), cold walk {cold} fetches, "
        f"engine first access {first}; same trace on the "
        f"device engine: {txns} transactions <= {len(events)} events",
    )


def test_criterion_08_replay_detection():
    # exhaustive at 4 stealth bits: every (captured, current) version pair
    small = SecurityParams(stealth_bits=4, upper_bits=8, reset_exp=3)
    fn = FunctionalBlockStore(G, small, seed=5)
    cipher = bytes(range(64))
    missed = 0
    false_alarms = 0
    for old in range(16):
        mac_old = fn.compute_mac(pack_full(0, old, small), PAGE, cipher)
        for cur in range(16):
            mac_cur = fn.compute_mac(pack_full(0, cur, small), PAGE, cipher)
            if old != cur and mac_old == mac_cur:
                missed += 1
            if old == cur and mac_old != mac_cur:
                false_alarms += 1

    # randomized at the deployed width
    import numpy as np

    fn27 = FunctionalBlockStore(G, P, seed=5)
    rng = np.random.default_rng(5)
    n = 1_000_000
    old_v = rng.integers(0, 1 << 27, size=n, dtype=np.int64)
    cur_v = rng.integers(0, 1 << 27, size=n, dtype=np.int64)
    missed27 = 0
    for o, c in zip(old_v.tolist(), cur_v.tolist()):
        if o == c:
            continue
        if fn27.compute_mac(pack_full(0, o, P), PAGE, cipher) == fn27.compute_mac(
            pack_full(0, c, P), PAGE, cipher
        ):
            missed27 += 1

    # end to end: a stale record trips the kill switch, the current one passes
    eng = HostEngine(EngineConfig(protected_bytes=4 * PAGE, seed=9))
    stale = eng.functional_write(0, b"A" * 64)
    eng.functional_write(0, b"B" * 64)
    detected = eng.inject_replay(0, stale) == "detected"
    eng.rearm_kill_switch()
    current = eng.functional_write(0, b"C" * 64)
    silent = eng.inject_replay(0, current) == "silent_success"

    ok = missed == 0 and false_alarms == 0 and missed27 == 0 and detected and silent
    _report(
        8,
        ok,
        f"exhaustive 16x16 pairs: {missed} missed / {false_alarms} false; "
        f"randomized 10^6 pairs at 27 bits: {missed27} missed; "
        f"engine replay detected={detected}, current-version replay passes={silent}",
    )


def test_criterion_09_reset_rate():
    params = SecurityParams(stealth_bits=27, upper_bits=37, reset_exp=7)
    store = make_store(1, seed=1, params=params)
    n = 1_000_000
    for _ in range(n):
        store.update_version(0)  # single hot block: every update leads
    mean = n / 128
    sigma = math.sqrt(n * (1 / 128) * (127 / 128))
    ok = abs(store.resets - mean) <= 4 * sigma
    _report(
        9,
        ok,
        f"{store.resets} resets in {n} leading advances; "
        f"binomial mean {mean:.1f}, |dev| {abs(store.resets - mean):.1f} <= "
        f"4 sigma = {4 * sigma:.1f}",
    )


def test_criterion_10_reproducible_runs(tmp_path):
    identical = []
    for mode, extra in (("toleo", {}), ("merkle", {"tree": {"arity": 4}})):
        cfg_path = tmp_path / f"{mode}.json"
        cfg_path.write_text(json.dumps({
            "mode": mode,
            "protected_bytes": 64 * PAGE,
            "seed": 3,
            "trace": {"pattern": {"kind": "zipfian", "footprint_bytes": 64 * PAGE,
                                   "op_count": 20_000, "write_fraction": 0.4,
                                   "seed": 3}},
            **extra,
        }))
        a = str(tmp_path / f"{mode}_a.json")
        b = str(tmp_path / f"{mode}_b.json")
        assert main(["simulate", "--config", str(cfg_path), "--out", a]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", b]) == 0
        identical.append(filecmp.cmp(a, b, shallow=False))
    ok = all(identical)
    _report(
        10,
        ok,
        f"two identical simulate runs byte-identical: toleo={identical[0]}, "
        f"merkle={identical[1]}",
    )
