import pytest
from hypothesis import given, strategies as st

from freshsim.core import (
    ConfigError,
    EncodingError,
    Geometry,
    SecurityParams,
    pack_bitfields,
    pack_full,
    stealth_add,
    unpack_bitfields,
)


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
        assert p.full_bits == 64
        assert p.stealth_mask == (1 << 27) - 1

    def test_reset_exp_must_sit_inside_stealth_width(self):
        with pytest.raises(ConfigError):
            SecurityParams(stealth_bits=10, upper_bits=6, reset_exp=10)
        with pytest.raises(ConfigError):
            SecurityParams(stealth_bits=10, upper_bits=6, reset_exp=0)
        SecurityParams(stealth_bits=10, upper_bits=6, reset_exp=9)


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
