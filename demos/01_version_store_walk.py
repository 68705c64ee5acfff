"""Walk one page through every version-store format.

Shows the compression tiers at work: a page starts as a 12-byte flat entry,
grows a 56-byte offset line once any block is written twice, slides its
offset window when the spread allows, and finally expands to a full
per-block entry.  A stealth reset collapses it back to flat.
"""

import random

from freshsim.core import Geometry, SecurityParams
from freshsim.version_store import (
    FORMAT_NAMES,
    VersionStore,
    decode_entry_image,
    decode_uneven_line,
    entry_cost_bytes,
    flat_array_bytes,
)

G = Geometry()
P = SecurityParams()


def show(store, label):
    fmt = store.page_format(0)
    tag, base, payload = decode_entry_image(store.entry_image(0), P)
    print(f"{label:<38} {FORMAT_NAMES[fmt]:<7} "
          f"{entry_cost_bytes(fmt, G, P):>3} B/page   base={base:<9}"
          f" dynamic={store.dynamic_bytes} B")
    return fmt, base, payload


def main():
    store = VersionStore(
        protected_bytes=4096,
        device_capacity_bytes=flat_array_bytes(4096, G, P) + 4 * 56,
        rng=random.Random(11),
        params=P,
    )
    show(store, "fresh page")

    store.update_version(0)
    _, _, payload = show(store, "write block 0")
    print(f"{'':>38} bit vector {payload:#06x}")

    for block in range(1, 64):
        store.update_version(block * 64)
    show(store, "write blocks 1..63 (vector full)")

    store.update_version(0)
    store.update_version(0)
    show(store, "write block 0 twice more")
    offsets = decode_uneven_line(store.entry_lines(0)[0], G)
    print(f"{'':>38} offsets[0..3] = {offsets[:4]}, max = {max(offsets)}")

    for _ in range(127 - offsets[0]):
        store.update_version(0)
    show(store, "block 0 at the 7-bit offset ceiling")

    store.update_version(0)
    show(store, "one more write: full entry")

    base = store.reset_page(0)
    show(store, "stealth reset")
    print(f"{'':>38} fresh base {base}; the host bumps the page's upper version")


if __name__ == "__main__":
    main()
