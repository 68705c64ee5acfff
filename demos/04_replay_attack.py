"""Stage a replay attack against the functional engine and watch it fail.

The functional layer actually enciphers and MACs block payloads, so a
captured record can be substituted back into memory.  Verification folds
the device-held stealth version into the MAC: once the version has moved,
the stale record cannot verify, and the engine latches its kill switch.
Freeing a page bumps only its upper version -- cheap scrambling with the
same effect.
"""

from freshsim.engine import EngineConfig, FreshnessViolation, HostEngine

ADDR = 0x2040


def main():
    engine = HostEngine(EngineConfig(protected_bytes=16 * 4096, seed=3))

    secret = b"account balance: 1000.00 credits".ljust(64, b"\0")
    captured, _ = engine.functional_write(ADDR, secret)
    print(f"victim writes block, stealth version {captured.stealth}")
    print(f"attacker captures ciphertext {captured.cipher[:8].hex()}...\n")

    updated = b"account balance:    0.00 credits".ljust(64, b"\0")
    engine.functional_write(ADDR, updated)
    print(f"victim overwrites block, stealth version {engine.store.read_version(ADDR)}")

    verdict = engine.inject_replay(ADDR, captured)
    print(f"attacker replays the captured record: {verdict}")
    print(f"engine kill switch: {engine.killed!r}")
    print("the stale record is still in memory; every read now fails\n")

    engine.rearm_kill_switch()
    engine.functional_write(ADDR, updated)
    plaintext, _ = engine.functional_read(ADDR)
    print(f"victim rewrites the block; reads verify again: "
          f"{plaintext.rstrip(bytes(1)).decode()!r}")

    page = ADDR // 4096
    engine.os_free_page(page)
    print(f"\nOS frees page {page} (upper version bump, no re-encryption)")
    try:
        engine.functional_read(ADDR)
    except FreshnessViolation as exc:
        print(f"stale read after free: {exc}")


if __name__ == "__main__":
    main()
