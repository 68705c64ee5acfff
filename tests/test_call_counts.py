"""Python calls per event, counted with ``sys.setprofile``.

The per-event path is where the simulator spends its time, and a call is
the costliest thing CPython does on it.  These guards pin how many Python
functions one event enters in each mode, so a refactor that puts a call
back on the path (a hash helper, a second flat-cache call) shows here.
"""

import random
import sys

import pytest

from freshsim.baselines import CiEngine, MerkleEngine, NoneEngine
from freshsim.core import Geometry, SecurityParams
from freshsim.engine import EngineConfig, HostEngine

G = Geometry()
PAGE = G.page_bytes
BLOCK = G.block_bytes


def qualname(frame) -> str:
    """``Class.method`` for a method's frame, found on its ``self``'s class
    (``co_qualname`` is new in Python 3.11), else the function's bare name."""
    code = frame.f_code
    owner = frame.f_locals.get("self")
    for klass in type(owner).__mro__ if owner is not None else ():
        if getattr(vars(klass).get(code.co_name), "__code__", None) is code:
            return f"{klass.__name__}.{code.co_name}"
    return code.co_name


def calls_of(fn, *args) -> list[tuple[str, str]]:
    """Run ``fn(*args)``: the (function, caller) qualified names of every
    Python call it made, ``fn`` itself first, in the order they began."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append((qualname(frame), qualname(frame.f_back)))

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def called(fn, *args) -> list[str]:
    return [name for name, _ in calls_of(fn, *args)]


def test_none_event_is_one_call():
    e = NoneEngine(EngineConfig(protected_bytes=4 * PAGE))
    for op, addr in (("R", 0), ("W", BLOCK), ("R", 3 * PAGE)):
        assert called(e.process_access, op, addr) == ["ProtectionEngine.process_access"]


def test_ci_event_is_two_calls_and_a_mac_miss_calls_no_hash():
    e = CiEngine(EngineConfig(protected_bytes=4 * PAGE))
    steps = [("R", 0), ("W", BLOCK), ("R", 0), ("R", 0), ("W", 3 * PAGE)]
    misses = []
    for op, addr in steps:
        before = e.mac_cache.misses
        assert called(e.process_access, op, addr) == [
            "ProtectionEngine.process_access", "SetAssocCache.access"]
        misses.append(e.mac_cache.misses - before)
    # a miss, a first hit (hashed), a repeat hit (indexed) and a second miss
    assert misses == [1, 0, 0, 0, 1]


@pytest.mark.parametrize("engine_class, per_event", [
    (NoneEngine, ["ProtectionEngine.process_access"]),
    (CiEngine, ["ProtectionEngine.process_access", "SetAssocCache.access"]),
], ids=["none", "ci"])
def test_run_adds_no_call_per_event(engine_class, per_event):
    e = engine_class(EngineConfig(protected_bytes=4 * PAGE))
    trace = [("R", 0), ("W", BLOCK), ("R", 0), ("R", 3 * PAGE), ("W", 3 * PAGE)]
    calls = calls_of(e.run, trace)
    names = [name for name, _ in calls]
    assert names[0] == "ProtectionEngine.run" and names.count("ProtectionEngine.run") == 1
    # run's own calls: each event, and nothing else
    assert [name for name, caller in calls if caller == "ProtectionEngine.run"] == [
        "ProtectionEngine.process_access"] * len(trace)
    first = names.index("ProtectionEngine.process_access")
    assert names[first:] == per_event * len(trace)


def test_toleo_read_miss_on_a_touched_page_is_five_calls():
    e = HostEngine(EngineConfig(protected_bytes=4 * PAGE, flat_cache_entries=1))
    e.process_access("W", 0)
    e.process_access("W", PAGE)  # evicts page 0's flat entry
    misses = e.flat_cache.misses
    assert called(e.process_access, "R", BLOCK) == [
        "ProtectionEngine.process_access", "HostEngine._freshness", "FlatCache.access",
        "VersionStore.line_count", "SetAssocCache.access"]
    assert e.flat_cache.misses == misses + 1 and e.device_reads == 1


def test_merkle_event_is_five_calls():
    # the tree walks in one call, whatever it fetches, and the MAC step follows
    e = MerkleEngine(EngineConfig(protected_bytes=4 * PAGE, local_bytes=2 * PAGE))
    steps = [("R", 0), ("W", BLOCK), ("R", 0), ("W", 3 * PAGE)]  # cold, write, warm, pool
    fetches = []
    for op, addr in steps:
        before = e.tree.fetches
        assert called(e.process_access, op, addr) == [
            "ProtectionEngine.process_access", "MerkleEngine._freshness",
            "CounterTreeState.access", "CounterCache.walk", "SetAssocCache.access"]
        fetches.append(e.tree.fetches - before)
    assert fetches[0] > 0 and fetches[2] == 0 and e.pool_bytes == BLOCK


def test_every_toleo_event_enters_the_flat_cache_once():
    # small caches, few pages and frequent resets: flat hits and misses,
    # missed lines, uneven and full pages, and re-keys all occur
    params = SecurityParams(reset_exp=3)
    e = HostEngine(EngineConfig(protected_bytes=8 * PAGE, flat_cache_entries=3,
                                overflow_bytes=4 * 56, overflow_assoc=2, params=params))
    rng = random.Random(3)
    for _ in range(1500):
        op = "W" if rng.random() < 0.6 else "R"
        addr = rng.randrange(8) * PAGE + rng.randrange(4) * BLOCK
        entered = [name for name, caller in calls_of(e.process_access, op, addr)
                   if name.startswith("FlatCache.") and not caller.startswith("FlatCache.")]
        # a reset's re-key also drops the page
        assert entered == ["FlatCache.access"] + ["FlatCache.drop"] * (
            "reset_triggered" in e.outcome.events)
    s = e.stats()
    assert e.resets > 20 and s["page_formats"]["full"] + s["page_formats"]["uneven"] > 0
    assert min(s["caches"]["flat"].values()) > 100 and s["caches"]["overflow"]["misses"] > 0
