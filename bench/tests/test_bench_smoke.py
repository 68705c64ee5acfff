"""Smoke tests for the benchmark: every workload at a tiny size, untraced and
traced, plus the span recorder's self-time arithmetic.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from tracing import Instrumented, SpanRecorder  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:],
           "--workload", workload, "--seed", "5", "--seconds", "0.5",
           "--trace", str(trace), "--events", "1500"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_and_the_gate_passes(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool), name
        assert f"metric {name} {m['value']!r} {m['unit']}" in lines

    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"commit", "python", "numpy", "nproc", "seed"} <= set(env)
    assert env["seed"] == 5 and env["workload"] == workload
    digests = [line.split() for line in lines if line.startswith("digest ")]
    assert [d[1] for d in digests] == ["none", "ci", "toleo", "merkle"]
    assert all(len(d[2]) == 64 for d in digests)


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_times_partition_the_root_spans():
    rec = SpanRecorder()
    leaf = rec.wrap("leaf", lambda: sum(range(200)))

    def middle():
        leaf()
        return leaf()

    middle = rec.wrap("middle", middle)

    def root():
        middle()
        leaf()

    root = rec.wrap("root", root, root=True)
    for _ in range(3):
        root()

    summary = rec.summary()
    assert {name: calls for name, (calls, _, _) in summary.items()} == {
        "leaf": 9, "middle": 3, "root": 3}
    total_root = summary["root"][1]
    assert sum(own for _, _, own in summary.values()) == pytest.approx(total_root, rel=1e-9)
    assert list(rec.event) == [0] * 5 + [1] * 5 + [2] * 5
    assert all(own >= 0 for _, _, own in summary.values())


def test_instrumentation_is_undone():
    import freshsim.engine
    import freshsim.version_store
    from freshsim import EngineConfig, HostEngine

    originals = (freshsim.engine.decode_entry_image, freshsim.version_store.pack_bitfields)
    engine = HostEngine(EngineConfig(protected_bytes=1 << 20))
    rec = SpanRecorder()
    with Instrumented(rec, engine):
        engine.process_access("W", 0)
        engine.process_access("R", 64)
        assert freshsim.engine.decode_entry_image is not originals[0]
    assert (freshsim.engine.decode_entry_image, freshsim.version_store.pack_bitfields) == originals
    assert "process_access" not in vars(engine)
    assert "update_version" not in vars(engine.store)
    summary = rec.summary()
    assert summary["engine.process_access"][0] == 2
    assert summary["store.update_version"][0] == 1


def _checked_run(reencrypted_blocks: int, toleo_extra_bytes: int) -> dict:
    def mode_result(extra_data: int, reencrypted: int, device: int) -> dict:
        channels = {"local_bytes": 64 * 10 + extra_data, "pool_bytes": 0,
                    "mac_bytes": 0, "device_bytes": device}
        return {
            "stats": {"events": 10, "reads": 6, "writes": 4, "channels": channels,
                      "reencrypted_blocks": reencrypted},
            "outcome_bytes": dict(channels),
            "max_device_transactions": 1 if device else 0,
        }

    return {"modes": {
        "none": mode_result(0, 0, 0),
        "ci": mode_result(0, 0, 0),
        "toleo": mode_result(toleo_extra_bytes, reencrypted_blocks, 640),
        "merkle": mode_result(0, 0, 192),
    }}


def test_gate_allows_reset_reencryption_and_flags_other_data_traffic():
    import run

    assert run.gate(_checked_run(64, 64 * 64), 6, 4, 64) == []
    problems = run.gate(_checked_run(0, 64), 6, 4, 64)
    assert len(problems) == 1 and problems[0].startswith("toleo: local + pool bytes")
