"""Bounded-memory guards: runs the simulator must finish below a peak RSS.

Each guard is one row: the files its set-up steps make (not measured), the
measured ``freshsim`` run, its peak RSS bound, an optional address-space cap
and the outputs it must write.  Each run is a child, ``python -m freshsim``
with the checkout's ``src`` first on PYTHONPATH, in one shared scratch
directory.  A child's peak is its own, from ``os.wait4``: ``RUSAGE_CHILDREN``
is the largest peak of every child waited for so far.  It starts from this
process's peak, which a vfork'd child inherits, so set-up steps stream.

    python tests/guards.py   # exits 1 if any guard fails

pytest does not collect this module: the guards take tens of seconds.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

from cli_cases import child_env

MIB = 1 << 20
GIB = 1 << 30
TIB28 = 30_786_325_577_728  # the paper's 28 TiB pool: 7,516,192,768 pages


def _pattern(footprint: int, op_count: int, **keys) -> dict:
    return {"kind": "zipfian", "footprint_bytes": footprint, "op_count": op_count,
            "write_fraction": 0.3, "seed": 7, **keys}


CONFIGS = {
    "big.json": {"kind": "zipfian", "footprint_bytes": 4 * GIB, "op_count": 2000, "seed": 7},
    "huge_pattern.json": _pattern(64 * MIB, 10_000),
    "huge_mac.json": {"mode": "ci", "protected_bytes": 64 * MIB, "mac_cache_bytes": 1 << 40},
    "huge_tree.json": {"mode": "merkle", "protected_bytes": 64 * MIB,
                       "tree": {"counter_cache_bytes": 1 << 40}},
    "uniform64.json": {"kind": "page_uniform", "footprint_bytes": 64 * GIB,
                       "op_count": 1_000_000, "write_fraction": 0, "seed": 7},
    "toleo64.json": {"mode": "toleo", "protected_bytes": 64 * GIB, "local_bytes": 0},
    "long.json": _pattern(64 * MIB, 2_000_000),
    "long_none.json": {"mode": "none", "protected_bytes": 64 * MIB},
    "uniform28T.json": {"kind": "page_uniform", "footprint_bytes": TIB28, "op_count": 16_000,
                        "write_fraction": 0.3, "seed": 7},
    "toleo28T.json": {"mode": "toleo", "protected_bytes": TIB28, "local_bytes": 0},
}


def gen(config: str, out: str) -> tuple:
    return ("gen-trace", "--config", config, "--out", out)


def simulate(config: str, trace: str, out: str) -> tuple:
    return ("simulate", "--config", config, "--trace", trace, "--out", out)


class Guard(NamedTuple):
    name: str
    setup: dict  # file -> freshsim argv, or a step(file) call, that makes it
    argv: tuple  # the measured freshsim run
    bound_mib: float  # its peak RSS must stay below this
    cap: int | None  # RLIMIT_AS of the measured child, in bytes
    checks: tuple  # (file, "bytes" | "lines" | "events", expected count)


HUGE = {"huge.bin": gen("huge_pattern.json", "huge.bin")}
LONG = {"long.bin": gen("long.json", "long.bin")}


def top_pages(out: str) -> None:
    """uniform28T.txt's events, then 4,000 more on the four highest pages of
    the 28 TiB range, round-robin: a sweep of 48 of one page's blocks (it
    goes uneven), one block of the next and three of the one below (both go
    full), and a read of one of the four."""
    top = TIB28 - 4096
    with open("uniform28T.txt", encoding="ascii") as src, \
            open(out, "w", encoding="ascii") as dst:
        shutil.copyfileobj(src, dst)
        for i in range(1000):
            dst.write(f"W 0x{top + i % 48 * 64:X}\nW 0x{top - 4096:X}\n"
                      f"W 0x{top - 2 * 4096 + i % 3 * 64:X}\n"
                      f"R 0x{top - i % 4 * 4096 + i * 7 % 64 * 64:X}\n")


def five_copies(out: str) -> None:
    with open("long.bin", "rb") as src, open(out, "wb") as dst:
        for _ in range(5):
            src.seek(0)
            shutil.copyfileobj(src, dst)  # a buffer at a time; see the docstring


GUARDS = [
    # the CDF is built one slice of ranks at a time, so the peak does not
    # grow with the footprint; a whole CDF here would take about 1.5 GiB
    Guard("zipfian-4GiB", {}, gen("big.json", "big.bin"), 256, None,
          (("big.bin", "bytes", 2000 * 9),)),
    # a cache makes each set on its first fill, so a 1 TiB MAC or counter
    # cache (2^30 sets) holds only the sets the trace fills; with every set
    # built up front, both runs ended in MemoryError under this cap
    Guard("mac-cache-1TiB", HUGE, simulate("huge_mac.json", "huge.bin", "huge_mac.stats"),
          128, GIB, (("huge_mac.stats", "events", 10_000),)),
    Guard("counter-cache-1TiB", HUGE, simulate("huge_tree.json", "huge.bin", "huge_tree.stats"),
          128, GIB, (("huge_tree.stats", "events", 10_000),)),
    # 10^6 uniform page reads touch about 970k pages of 64 GiB; a flat page
    # is held as one int, its packed entry, so this run peaks at about 149
    # MiB; held as one object per page it peaked at 234 MiB
    Guard("toleo-64GiB", {"uniform64.bin": gen("uniform64.json", "uniform64.bin")},
          simulate("toleo64.json", "uniform64.bin", "toleo64_stats.json"), 180, None,
          (("uniform64.bin", "bytes", 9_000_000), ("toleo64_stats.json", "events", 1_000_000))),
    # a loaded trace is two columns, about 9 B per event; held as a list of
    # (op, addr) tuples, this run peaked at about 290 MiB
    Guard("none-2M-events", LONG, simulate("long_none.json", "long.bin", "long_stats.json"),
          160, None, (("long_stats.json", "events", 2_000_000),)),
    # five copies make a 10M-event trace; a binary file is read one chunk of
    # records at a time, so its 86 MiB image is never held beside the 86 MiB
    # of columns; read whole first, this run peaked at 223.7 MiB
    Guard("none-10M-events", {**LONG, "long10.bin": five_copies},
          simulate("long_none.json", "long10.bin", "long10_stats.json"), 160, None,
          (("long10_stats.json", "events", 10_000_000),)),
    # the text form is written one chunk of lines at a time, so the whole
    # text is never held; built whole from one str per event this run
    # peaked at about 226 MiB, and joined from chunks at about 126
    Guard("text-2M-lines", {}, gen("long.json", "long.txt"), 120, None,
          (("long.txt", "lines", 2_000_000),)),
    # a text file is read one chunk at a time into the two columns; read
    # whole, decoded and split into one str per line, this run peaked at
    # about 267 MiB, against 52 MiB for the binary form
    Guard("none-2M-text-events", {"long.txt": gen("long.json", "long.txt")},
          simulate("long_none.json", "long.txt", "long_text_stats.json"), 96, None,
          (("long_text_stats.json", "events", 2_000_000),)),
    # the paper's 28 TiB pool: a flat array of 7.5e9 pages costs nothing
    # until a page is touched, and the trace touches about 11,300; this run
    # peaks at about 36 MiB
    Guard("toleo-28TiB", {"uniform28T.txt": gen("uniform28T.json", "uniform28T.txt"),
                          "tib28.txt": top_pages},
          simulate("toleo28T.json", "tib28.txt", "toleo28T_stats.json"), 48, None,
          (("toleo28T_stats.json", "events", 20_000),)),
]


def _count(path: str, what: str) -> int:
    if what == "bytes":
        return os.path.getsize(path)
    if what == "lines":
        with open(path, "rb") as fh:
            return sum(1 for _ in fh)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["events"]


def run(argv: tuple, env: dict, cap: int | None = None) -> tuple[int, float]:
    """Run ``python -m freshsim *argv`` to its end: (exit status, the
    child's own peak RSS in MiB)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.Popen([sys.executable, "-m", "freshsim", *argv], env=env,
                            preexec_fn=limit if cap else None)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024  # KiB on Linux


def check(guard: Guard, env: dict) -> str | None:
    """Run ``guard`` in the working directory: what it broke, or None."""
    for out, step in guard.setup.items():
        if os.path.exists(out):
            continue
        if callable(step):
            step(out)
        elif run(step, env)[0]:
            return f"set-up of {out} failed"
    status, peak_mib = run(guard.argv, env, guard.cap)
    print(f"{guard.name}: exit {status}, peak RSS {peak_mib:.1f} MiB "
          f"(bound {guard.bound_mib} MiB)", flush=True)
    if status:
        return f"exited {status}"
    if peak_mib >= guard.bound_mib:
        return f"peaked at {peak_mib:.1f} MiB, not below {guard.bound_mib} MiB"
    for path, what, expected in guard.checks:
        got = _count(path, what)
        if got != expected:
            return f"{path}: expected {expected} {what}, got {got}"
    return None


def main() -> int:
    # one BLAS thread, so that a many-core host's thread pool fits a cap
    env = child_env(OPENBLAS_NUM_THREADS="1")
    failed = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, doc in CONFIGS.items():
                with open(name, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            for guard in GUARDS:
                problem = check(guard, env)
                if problem:
                    print(f"FAIL {guard.name}: {problem}", flush=True)
                    failed.append(guard.name)
        finally:
            os.chdir(cwd)
    print(f"failed: {', '.join(failed)}" if failed else "every guard passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
