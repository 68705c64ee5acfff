"""Byte-for-byte pins of the ``simulate`` JSON and the ``compare`` CSV.

The digests below were taken from the reference implementation.  A change
that only restructures or speeds up the simulator must leave every one of
them unchanged; a change that alters a counted number has to update them
on purpose.  The configs are small but reach every accounting path: resets
(``reset_exp`` 4), uneven and full pages, flat-cache evictions that drop
overflow lines, overflow and MAC evictions, dirty counter-tree write-backs,
both data channels (``local_bytes`` below the footprint) and a run halted by
device capacity.
"""

import hashlib
import json

import pytest

from freshsim.cli import MODES, main

PAGE = 4096
PAGES = 64

SMALL_CACHES = {
    "protected_bytes": PAGES * PAGE,
    "local_bytes": PAGES // 2 * PAGE,
    "flat_cache_entries": 8,
    "overflow_bytes": 8 * 56,
    "overflow_assoc": 2,
    "mac_cache_bytes": 16 * 64,
    "mac_assoc": 4,
    "seed": 3,
    "tree": {"counter_cache_bytes": 8 * 64, "counter_cache_assoc": 2, "root_bytes": 16},
}

WORKLOADS = {
    "zipf_resets": {
        "reset_exp": 4,
        "trace": {"pattern": {"kind": "zipfian", "footprint_bytes": PAGES * PAGE,
                              "op_count": 6000, "write_fraction": 0.4, "seed": 5}},
    },
    "hot_full": {
        "reset_exp": 12,
        "trace": {"pattern": {"kind": "hot_block", "footprint_bytes": PAGES * PAGE,
                              "hot_set_bytes": 8 * PAGE, "op_count": 6000,
                              "write_fraction": 0.7, "seed": 6}},
    },
}

# static flat array (12 B per page) plus six 56-byte dynamic slots
HALT_CAPACITY = PAGES * 12 + 6 * 56

SIMULATE_DIGESTS = {
    ("zipf_resets", "none"): "655b617b8796a530f49d1729ecf0dd978037c1cc0b30f77fc237dd094c6bf738",
    ("zipf_resets", "ci"): "ba8a3db7c1a6fc3b5e3fcd768f2a3558c708bd666a19c65e43134a211a89de92",
    ("zipf_resets", "toleo"): "683be8e4418a9aaeda8bed11b7a19132e5c8c219bba2189c6094b9b8552f159c",
    ("zipf_resets", "merkle"): "3a5b577f2203e6684a0bdf7abf984cce0e4533dc619472551455f7e3249d61a4",
    ("hot_full", "none"): "c1faaecdc7bb0a8d3c241f6e37ed25a700b8a81e2ea2ab83fe01d874faee8229",
    ("hot_full", "ci"): "3db519be267f91924190acfabce6bee883513b65537bd57630c8d44b41fb1efb",
    ("hot_full", "toleo"): "99fc9f91294bfe5c4bb28fdb4c7843bc14caa4d0a29f39dd3f586482af39c514",
    ("hot_full", "merkle"): "9b711092ff3c509ff3534a76e8ec9bf5cbc7c4fde2242d8cc7f02b6068828db3",
}
HALTED_TOLEO_DIGEST = "c93e75cb75c99a575957ce9f7d86b43eb6e8c6b28e58130339cf48e19355aba3"
COMPARE_DIGEST = "43fad06f8cd572526c86e0ebb0e3b2bd38bde2250a437ab9829fe0b7c9472d26"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, name: str, **doc) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def simulate(tmp_path, name: str, doc: dict) -> tuple[int, str]:
    out = tmp_path / f"{name}.out.json"
    code = main(["simulate", "--config", write_config(tmp_path, name, **doc),
                 "--out", str(out)])
    return code, sha256(out)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_simulate_json_is_pinned(tmp_path, workload, mode):
    doc = dict(SMALL_CACHES, **WORKLOADS[workload], mode=mode)
    code, digest = simulate(tmp_path, f"{workload}-{mode}", doc)
    assert code == 0
    assert digest == SIMULATE_DIGESTS[workload, mode]


def test_debug_checks_leave_toleo_output_unchanged(tmp_path):
    doc = dict(SMALL_CACHES, **WORKLOADS["zipf_resets"], mode="toleo", debug=True)
    assert simulate(tmp_path, "debug", doc) == (0, SIMULATE_DIGESTS["zipf_resets", "toleo"])


def test_capacity_halted_toleo_run_is_pinned(tmp_path, capsys):
    doc = dict(SMALL_CACHES, **WORKLOADS["hot_full"], mode="toleo",
               device_capacity_bytes=HALT_CAPACITY)
    code, digest = simulate(tmp_path, "halt", doc)
    assert code == 2
    assert "capacity" in capsys.readouterr().err
    assert digest == HALTED_TOLEO_DIGEST


def test_compare_csv_is_pinned(tmp_path):
    configs = [
        write_config(tmp_path, mode, **SMALL_CACHES, **WORKLOADS["zipf_resets"], mode=mode)
        for mode in MODES
    ]
    out = tmp_path / "compare.csv"
    assert main(["compare", "--out", str(out)] + configs) == 0
    assert sha256(out) == COMPARE_DIGEST
