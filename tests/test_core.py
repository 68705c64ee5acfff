import dataclasses
import math
import re
import sys

import pytest
from hypothesis import given, strategies as st

import numpy as np

from freshsim.analysis import ExhaustionQuery, ExhaustionRun, ReplayRun, mc_exhaustion, mc_replay
from freshsim.baselines import CounterTreeConfig
from freshsim.core import (
    ConfigError,
    EncodingError,
    Geometry,
    SecurityParams,
    check_fields,
    pack_bitfields,
    pack_full,
    unpack_bitfields,
)
from freshsim.engine import EngineConfig
from freshsim.traces import PatternSpec
from helpers import stealth_add


class TestGeometry:
    def test_defaults(self):
        g = Geometry()
        assert g.page_bytes == 4096
        assert g.block_bytes == 64
        assert g.blocks_per_page == 64
        assert g.mac_bits == 56
        assert g.macs_per_block == 8
        # 8 x 56 = 448 bits of MACs leave 64 spare bits in a 512-bit block
        assert g.spare_bits == 64

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            Geometry(page_bytes=4000)
        with pytest.raises(ConfigError):
            Geometry(block_bytes=48)

    def test_rejects_macs_overflowing_block(self):
        with pytest.raises(ConfigError):
            Geometry(mac_bits=56, macs_per_block=10)

    def test_small_geometry(self):
        g = Geometry(page_bytes=512, block_bytes=64)
        assert g.blocks_per_page == 8


class TestSecurityParams:
    def test_defaults(self):
        p = SecurityParams()
        assert (p.stealth_bits, p.upper_bits, p.reset_exp) == (27, 37, 20)
        assert p.stealth_bits + p.upper_bits == 64  # a full version's bits
        assert p.stealth_mask == (1 << 27) - 1

    def test_reset_exp_must_sit_inside_stealth_width(self):
        with pytest.raises(ConfigError):
            SecurityParams(stealth_bits=10, upper_bits=6, reset_exp=10)
        with pytest.raises(ConfigError):
            SecurityParams(stealth_bits=10, upper_bits=6, reset_exp=0)
        SecurityParams(stealth_bits=10, upper_bits=6, reset_exp=9)


# every dataclass with ``bounded`` fields, and the required fields it needs
BOUNDED_CLASSES = [
    (Geometry, {}),
    (SecurityParams, {}),
    (EngineConfig, {}),
    (CounterTreeConfig, {}),
    (PatternSpec, {"kind": "strided", "footprint_bytes": 4096, "op_count": 1}),
    (ExhaustionQuery, {}),
]
BOUNDED = [(klass, required, f) for klass, required in BOUNDED_CLASSES
           for f in dataclasses.fields(klass) if f.metadata]
# a bound that a plain check refuses on its own, by class and field
PLAIN_REFUSED = {("EngineConfig", "protected_bytes"): "protected_bytes must be a positive"}
# the largest integer a float holds, refused by a range or a cross-field
# rule, by class and field; every other bounded field accepts it
BIG_REFUSED = {("Geometry", "mac_bits"), ("Geometry", "macs_per_block"),
               ("SecurityParams", "reset_exp"), ("EngineConfig", "seed"),
               ("EngineConfig", "protected_bytes"),
               # past the latency inputs' high bound
               ("EngineConfig", "local_ns"), ("EngineConfig", "cxl_ns"),
               ("EngineConfig", "pool_dram_ns"), ("EngineConfig", "device_dram_ns"),
               ("EngineConfig", "cipher_cycles"), ("EngineConfig", "clock_ghz"),
               ("CounterTreeConfig", "arity"), ("PatternSpec", "footprint_bytes"),
               ("PatternSpec", "write_fraction"), ("PatternSpec", "stride_bytes"),
               ("PatternSpec", "op_count")}


def build_with(klass, required, name, value):
    """``klass`` with ``name`` set to ``value``, and the partner fields of a
    cross-field rule set so that a value inside the field's range meets it."""
    kw = dict(required)
    if klass is SecurityParams and name == "stealth_bits":
        kw["reset_exp"] = 1
    if klass is ExhaustionQuery and name in ("interval_updates", "interval_count"):
        other = "interval_count" if name == "interval_updates" else "interval_updates"
        kw["total_updates"] = value * getattr(ExhaustionQuery(), other)
    return klass(**{**kw, name: value})


def test_every_class_with_a_range_is_covered():
    assert {klass.__name__ for klass, _, _ in BOUNDED} == {
        klass.__name__ for klass, _ in BOUNDED_CLASSES}
    assert len(BOUNDED) >= 25


@pytest.mark.parametrize("klass, required, f", BOUNDED,
                         ids=[f"{klass.__name__}.{f.name}" for klass, _, f in BOUNDED])
def test_bounded_field_refuses_by_key_and_takes_its_bounds(klass, required, f):
    low, high, unit = f.metadata["low"], f.metadata["high"], f.metadata["unit"]
    is_float = f.type == "float"
    step = unit or 1
    refused, accepted = [], []
    if low > -math.inf:
        refused.append(math.nextafter(low, -math.inf) if is_float else low - step)
        accepted.append(low)
    if high < math.inf:
        refused.append(math.nextafter(high, math.inf) if is_float else high + step)
        accepted.append(high)
    if unit:
        refused.append(low + 1)
    if is_float:
        refused += [math.nan, math.inf, -math.inf, None, "5"]
    assert refused
    for value in refused:
        with pytest.raises(ConfigError,
                           match=rf"^{f.name} must lie in .*, got {re.escape(repr(value))}$"):
            build_with(klass, required, f.name, value)
    for value in accepted:
        if (klass.__name__, f.name) in PLAIN_REFUSED and value == low:
            with pytest.raises(ConfigError, match=PLAIN_REFUSED[klass.__name__, f.name]):
                build_with(klass, required, f.name, value)
        else:
            assert getattr(build_with(klass, required, f.name, value), f.name) == value


@pytest.mark.parametrize("klass, required, f", BOUNDED,
                         ids=[f"{klass.__name__}.{f.name}" for klass, _, f in BOUNDED])
def test_integer_past_float_range_keeps_its_outcome(klass, required, f):
    # the largest integer that converts to a float keeps the outcome it had
    # before the float rule; one past float range never converts, so every
    # field refuses it by key (a float-valued field used to crash on it later)
    largest = int(sys.float_info.max)
    if (klass.__name__, f.name) in BIG_REFUSED:
        with pytest.raises(ConfigError):
            build_with(klass, required, f.name, largest)
    else:
        assert getattr(build_with(klass, required, f.name, largest), f.name) == largest
    big = 10 ** 400
    refusal = rf"^{f.name} must lie in .*, got {big}$"
    with pytest.raises(ConfigError, match=refusal):
        build_with(klass, required, f.name, big)
    # the field's own rule, applied alone, refuses it however wide its range
    obj = build_with(klass, required, f.name, f.metadata["low"] if f.default is
                     dataclasses.MISSING else f.default)
    object.__setattr__(obj, f.name, big)
    with pytest.raises(ConfigError, match=refusal):
        check_fields(obj)


# every field annotated an integer, of every class check_fields checks
INTEGER = [(klass, required, f) for klass, required in BOUNDED_CLASSES + [
               (ExhaustionRun, {"stealth_bits": 3, "reset_exp": 2}),
               (ReplayRun, {"stealth_bits": 3})]
           for f in dataclasses.fields(klass) if f.type in ("int", "int | None")]


@pytest.mark.parametrize("klass, required, f", INTEGER,
                         ids=[f"{klass.__name__}.{f.name}" for klass, _, f in INTEGER])
def test_integer_field_refuses_a_non_integer_by_key(klass, required, f):
    refused = [2.5, 8.0, True, "8", np.float64(8)]
    if f.default is not None:  # None passes only as the default
        refused.append(None)
    for value in refused:
        with pytest.raises(ConfigError,
                           match=rf"^{f.name} must be an integer, got {re.escape(repr(value))}$"):
            klass(**{**required, f.name: value})
    # a numpy integer is an integer
    value = required.get(f.name, f.default)
    value = np.int64(1 if value is None else value)
    assert getattr(build_with(klass, required, f.name, value), f.name) == value


@pytest.mark.parametrize("call, key", [
    (lambda: mc_replay(8.5, trials=10), "stealth_bits"),
    (lambda: mc_exhaustion(3, 2, trials=2.5), "trials"),
    (lambda: PatternSpec(kind="zipfian", footprint_bytes=4096, op_count=10.0), "op_count"),
    (lambda: EngineConfig(flat_cache_entries=2.5), "flat_cache_entries"),
], ids=["mc_replay", "mc_exhaustion", "PatternSpec", "EngineConfig"])
def test_library_call_with_a_float_count_names_the_key(monkeypatch, call, key):
    import freshsim.analysis as mod

    def no_draws(seed):
        raise AssertionError("drew before checking its inputs")

    monkeypatch.setattr(mod.np.random, "default_rng", no_draws)
    with pytest.raises(ConfigError, match=rf"^{key} must be an integer, got "):
        call()


class TestStealthArithmetic:
    def test_add_identity(self):
        assert stealth_add(5, 0, 27) == 5

    def test_add_wraps(self):
        assert stealth_add((1 << 27) - 1, 1, 27) == 0

    def test_add_plain(self):
        assert stealth_add(100, 130, 27) == 230

    def test_add_group_property_exhaustive(self):
        # adding d then 2^S - d returns to the start, for every pair
        s = 4
        for v in range(16):
            for d in range(16):
                assert stealth_add(stealth_add(v, d, s), 16 - d, s) == v

    @given(st.integers(0, (1 << 27) - 1), st.integers(0, 1 << 30))
    def test_add_matches_modular_arithmetic(self, v, d):
        assert stealth_add(v, d, 27) == (v + d) % (1 << 27)


class TestFullVersionPacking:
    def test_zero(self):
        assert pack_full(0, 0, SecurityParams()) == 0

    def test_uv_one(self):
        assert pack_full(1, 0, SecurityParams()) == 1 << 27

    def test_all_ones(self):
        p = SecurityParams()
        assert pack_full((1 << 37) - 1, (1 << 27) - 1, p) == (1 << 64) - 1

    def test_width_violations(self):
        p = SecurityParams()
        with pytest.raises(EncodingError):
            pack_full(1 << 37, 0, p)
        with pytest.raises(EncodingError):
            pack_full(0, 1 << 27, p)

    def test_injective_and_invertible_at_reduced_widths(self):
        p = SecurityParams(stealth_bits=4, upper_bits=5, reset_exp=3)
        seen = set()
        for uv in range(32):
            for sv in range(16):
                packed = pack_full(uv, sv, p)
                assert packed not in seen
                seen.add(packed)
                assert divmod(packed, 1 << p.stealth_bits) == (uv, sv)
        assert len(seen) == 512


class TestBitfields:
    def test_roundtrip_64x7(self):
        values = [(i * 37) % 128 for i in range(64)]
        packed = pack_bitfields(values, 7)
        assert len(packed) == 56
        assert unpack_bitfields(packed, 7, 64) == values

    @given(
        st.integers(1, 30).flatmap(
            lambda w: st.tuples(
                st.just(w), st.lists(st.integers(0, (1 << w) - 1), min_size=1, max_size=80)
            )
        )
    )
    def test_roundtrip_arbitrary_widths(self, case):
        width, values = case
        assert unpack_bitfields(pack_bitfields(values, width), width, len(values)) == values


def test_package_exports_resolve_once():
    import freshsim

    names = freshsim.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(freshsim, name)] == []
    namespace = {}
    exec("from freshsim import *", namespace)  # raises on a stale export
    assert set(names) <= namespace.keys()
