"""Shared primitives: geometry, security parameters, full-version and bit
packing, and the field ranges every config dataclass declares (``bounded``)
and checks (``check_fields``).

Version numbers are split into two fields.  The low ``stealth_bits`` (S) live
in a trusted device and wrap modulo 2**S; the high ``upper_bits`` (U) live in
spare bits of MAC blocks in ordinary memory and only ever grow.  The full
nonce used for encryption and MACs is the concatenation ``upper || stealth``
with the upper field in the high bits.  All widths are configurable so the
probabilistic machinery can be exercised at reduced scale.

A byte address is split inline, once checked against its range, into page
``addr // page_bytes`` and block ``addr // block_bytes % blocks_per_page``.
The device's entropy source is a seeded ``random.Random``: the version store
draws every base and reset check from its ``getrandbits``.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from math import inf, isfinite


class SimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimError):
    """Invalid geometry, parameter, or run configuration."""


class AddressRangeError(SimError):
    """Address outside the protected range."""


class EncodingError(SimError):
    """A field value does not fit its configured width."""


# the most items one numpy array of 8-byte items is asked for: a larger
# request raises ValueError, not the MemoryError of a refused allocation
MAX_ARRAY_ITEMS = (1 << 60) - 1
# the annotations, as strings, of the fields check_fields holds to integers
_INTEGER = ("int", "int | None")


def bounded(default=MISSING, low=0, high=inf, unit=None):
    """A dataclass field whose value ``check_fields`` requires to be no bool,
    to convert to a finite float, to lie in [low, high] and, given a ``unit``,
    to be a whole multiple of it.  With no ``default`` the field is required."""
    return field(default=default, metadata={"low": low, "high": high, "unit": unit})


def check_fields(obj) -> None:
    """Refuse, naming its key, the first field of ``obj`` whose value breaks
    its rule: a field annotated ``int`` or ``int | None`` takes an integer
    (a value with ``__index__``, so numpy's too) and never a bool, and a
    ``bounded`` field its range, which holds no bool.  None passes only
    where it is the default (an optional field left unset)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is None and f.default is None:
            continue
        if f.type in _INTEGER and (type(value) is bool or not hasattr(value, "__index__")):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if not f.metadata:
            continue
        low, high, unit = f.metadata["low"], f.metadata["high"], f.metadata["unit"]
        try:
            finite = type(value) is not bool and isfinite(value)
        except (OverflowError, TypeError):  # an int past float range, or no number
            finite = False
        if finite and low <= value <= high and (unit is None or value % unit == 0):
            continue
        span = (f"[{low}" if low > -inf else "(-inf") + (f", {high}]" if high < inf else ", inf)")
        whole = f" and be a multiple of {unit}" if unit else ""
        raise ConfigError(f"{f.name} must lie in {span}{whole}, got {value!r}")


@dataclass(frozen=True)
class Geometry:
    """Page/block shape and MAC packing of the protected memory.

    Defaults: 4 KiB pages of 64-byte blocks, 56-bit MACs packed eight to a
    64-byte MAC block.  Eight 56-bit MACs occupy 448 of the 512 bits of a MAC
    block; the remaining spare bits carry the page's upper version field.
    """

    page_bytes: int = 4096
    block_bytes: int = 64
    mac_bits: int = bounded(56, low=1)
    macs_per_block: int = bounded(8, low=1)

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("page_bytes", "block_bytes"):
            n = getattr(self, name)
            if n <= 0 or n & (n - 1):
                raise ConfigError(f"{name} must be a power of two, got {n}")
        if self.block_bytes > self.page_bytes:
            raise ConfigError("block_bytes cannot exceed page_bytes")
        if self.macs_per_block * self.mac_bits > self.block_bytes * 8:
            raise ConfigError(
                f"{self.macs_per_block} MACs of {self.mac_bits} bits do not fit a "
                f"{self.block_bytes}-byte MAC block"
            )

    @property
    def blocks_per_page(self) -> int:
        return self.page_bytes // self.block_bytes

    @property
    def spare_bits(self) -> int:
        """Bits left in a MAC block after packing the MACs (holds the UV)."""
        return self.block_bytes * 8 - self.macs_per_block * self.mac_bits


@dataclass(frozen=True)
class SecurityParams:
    """Width of the version fields and the reset probability exponent.

    ``reset_exp`` (R) makes each leading-version advance reset the page's
    stealth versions with probability 2**-R.  R must stay below S or resets
    could not keep up with wraparound.
    """

    stealth_bits: int = bounded(27, low=2)  # above reset_exp, which is at least 1
    upper_bits: int = bounded(37, low=1)
    reset_exp: int = bounded(20, low=1)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.reset_exp >= self.stealth_bits:
            raise ConfigError(
                f"reset_exp must be below stealth_bits, got R={self.reset_exp} "
                f"S={self.stealth_bits}"
            )

    @property
    def stealth_mask(self) -> int:
        return (1 << self.stealth_bits) - 1


def pack_full(upper: int, stealth: int, params: SecurityParams) -> int:
    """Concatenate the upper and stealth fields into one full version.

    The upper field occupies the high bits, so full versions sort first by
    upper version and then by stealth value.
    """
    if not 0 <= upper < (1 << params.upper_bits):
        raise EncodingError(f"upper version {upper} does not fit {params.upper_bits} bits")
    if not 0 <= stealth < (1 << params.stealth_bits):
        raise EncodingError(
            f"stealth version {stealth} does not fit {params.stealth_bits} bits"
        )
    return (upper << params.stealth_bits) | stealth


def pack_bitfields(values: list[int], width: int) -> bytes:
    """Pack equal-width unsigned fields into little-endian bytes, LSB first."""
    acc = 0
    mask = (1 << width) - 1
    for i, v in enumerate(values):
        if not 0 <= v <= mask:
            raise EncodingError(f"field value {v} does not fit {width} bits")
        acc |= v << (i * width)
    nbytes = (len(values) * width + 7) // 8
    return acc.to_bytes(nbytes, "little")


def unpack_bitfields(data: bytes, width: int, count: int) -> list[int]:
    """Inverse of :func:`pack_bitfields`."""
    if len(data) * 8 < width * count:
        raise EncodingError(
            f"{len(data)} bytes cannot hold {count} fields of {width} bits"
        )
    acc = int.from_bytes(data, "little")
    mask = (1 << width) - 1
    return [(acc >> (i * width)) & mask for i in range(count)]
