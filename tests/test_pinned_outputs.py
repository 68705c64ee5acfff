"""Byte-for-byte pins of the CLI's outputs: ``simulate`` JSON, ``compare``
CSV, ``gen-trace`` files and ``analyze-security`` JSON.

The digests below were taken from the reference implementation.  A change
that only restructures or speeds up the simulator must leave every one of
them unchanged; a change that alters a counted number has to update them
on purpose.  The configs are small but reach every accounting path: resets
(``reset_exp`` 4), uneven and full pages, flat-cache evictions that drop
overflow lines, overflow and MAC evictions, dirty counter-tree write-backs,
both data channels (``local_bytes`` below the footprint) and a run halted by
device capacity.  One more ``toleo`` pin runs at the default cache sizes
(256 flat entries, a 512-line 16-way overflow buffer) on hot pages driven
full, which thrash the overflow buffer.  Three more run ``ci``, ``toleo``
and ``merkle`` over the paper's 28 TiB pool, on the trace of the 28 TiB
memory guard (``guards.top_pages``): its MAC keys pass 2^38, its tree is 10
levels deep, its flat array holds 7.5e9 pages, and the trace drives some of
the highest pages uneven and full.  The ``gen-trace`` pins cover every
pattern kind at write fractions 0, 0.3 and 1 in both file forms; the
``analyze-security`` pins cover both Monte Carlo sections, with and without
``--seed``.
"""

import hashlib
import json

import pytest

import guards
from freshsim.cli import MODES, main
from freshsim.traces import PATTERN_KINDS

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
# 192 hot pages of four overflow lines each, at the default cache sizes
DEFAULT_CACHES_TOLEO = {
    "mode": "toleo",
    "protected_bytes": 1024 * PAGE,
    "seed": 3,
    "trace": {"pattern": {"kind": "hot_block", "footprint_bytes": 1024 * PAGE,
                          "hot_set_bytes": 192 * PAGE, "op_count": 40000,
                          "write_fraction": 0.7, "seed": 6}},
}
DEFAULT_CACHES_TOLEO_DIGEST = "dffe23f8b52b112bc2a8eec2d7bb1040378d79902741107513ab4d67dc48c0df"
HALTED_TOLEO_DIGEST = "c93e75cb75c99a575957ce9f7d86b43eb6e8c6b28e58130339cf48e19355aba3"
COMPARE_DIGEST = "43fad06f8cd572526c86e0ebb0e3b2bd38bde2250a437ab9829fe0b7c9472d26"
TIB28_DIGESTS = {
    "ci": "d4cc5aa9ad69819531a20436d72ab19ec89a2ce93227ec09bcd697901f3137cc",
    "toleo": "e5dab0bfa5467cf1db626fdd243259d29de86c7a9703e50dfc4e1aa023af6916",
    "merkle": "57da7fce9cfd338175a203084a4a4fa69d776a6c30d1cf7c47d31b4d0cffc816",
}


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


def test_toleo_at_default_cache_sizes_is_pinned(tmp_path):
    assert simulate(tmp_path, "default-caches", DEFAULT_CACHES_TOLEO) == (
        0, DEFAULT_CACHES_TOLEO_DIGEST)
    stats = json.loads((tmp_path / "default-caches.out.json").read_text())
    assert stats["page_formats"]["full"] == 192
    assert min(stats["caches"]["overflow"].values()) > 0  # hits and misses


def test_capacity_halted_toleo_run_is_pinned(tmp_path, capsys):
    doc = dict(SMALL_CACHES, **WORKLOADS["hot_full"], mode="toleo",
               device_capacity_bytes=HALT_CAPACITY)
    code, digest = simulate(tmp_path, "halt", doc)
    assert code == 2
    assert "capacity" in capsys.readouterr().err
    assert digest == HALTED_TOLEO_DIGEST


@pytest.mark.parametrize("mode", sorted(TIB28_DIGESTS))
def test_paper_scale_run_is_pinned(tmp_path, monkeypatch, mode):
    monkeypatch.chdir(tmp_path)
    pattern = write_config(tmp_path, "uniform28T", **guards.CONFIGS["uniform28T.json"])
    assert main(["gen-trace", "--config", pattern, "--out", "uniform28T.txt"]) == 0
    guards.top_pages("tib28.txt")
    doc = {"mode": mode, "protected_bytes": guards.TIB28, "local_bytes": 0,
           "trace": {"file": "tib28.txt"}}
    code, digest = simulate(tmp_path, mode, doc)
    assert (code, digest) == (0, TIB28_DIGESTS[mode])
    stats = json.loads((tmp_path / f"{mode}.out.json").read_text())
    assert stats["events"] == 20_000
    if mode == "toleo":
        assert stats["page_formats"]["uneven"] and stats["page_formats"]["full"]


def test_compare_csv_is_pinned(tmp_path):
    configs = [
        write_config(tmp_path, mode, **SMALL_CACHES, **WORKLOADS["zipf_resets"], mode=mode)
        for mode in MODES
    ]
    out = tmp_path / "compare.csv"
    assert main(["compare", "--out", str(out)] + configs) == 0
    assert sha256(out) == COMPARE_DIGEST


# a footprint of six pages, so a 1000-op sweep wraps, and a hot set that is
# not a whole number of pages
PATTERN = {"footprint_bytes": 6 * PAGE, "op_count": 1000, "hot_set_bytes": 3 * PAGE + 100,
           "stride_bytes": 320, "seed": 9}
WRITE_FRACTIONS = (0, 0.3, 1)

GEN_TRACE_DIGESTS = {
    "sequential": "335ae8168439f89ebb8a290bd6babc2179e3d7b131a84985c56e613cf0105dd5",
    "page_uniform": "52a4326096a78b408eae6201b2ed7b9fd30b6789d500ddb79a8158b62e157233",
    "write_once_read_many": "7399c7a9dcd0ea04ce9747ef9514982cdfb67f19961b2c6909978f3182416d8e",
    "hot_block": "6c8f69bd250e97b1c5048f766c78229891fc36093a88f07a4861861b0e1836b2",
    "zipfian": "4a693e74b74d8af4183d40e7a3b365956dddbb2074d88a584b0096754f3a79d5",
    "gaussian_kv": "c6628e344a0260e44337630cfadfd433b967f45358f3d9702a3d9a5eb0ed3f6a",
    "strided": "2398df9b635eb6491f41ca1b8a5d5ca54383eb8d3362a141612c2417dd9118a6",
}

ANALYSIS = {
    "exhaustion": {"total_updates": 1 << 40, "interval_updates": 1 << 20,
                   "interval_count": 1 << 20, "reset_exp": 12},
    "replay": {"stealth_bits": 20},
    "monte_carlo": {
        "exhaustion": {"stealth_bits": 4, "reset_exp": 2, "addresses": 3, "trials": 400,
                       "seed": 5},
        "replay": {"stealth_bits": 5, "trials": 3000, "seed": 6},
    },
}
ANALYSIS_DIGESTS = {
    None: "849b35b7777376216b17b00fa1d3a9d24408f2f0a0595944fb35049ecf8f4400",
    "8": "2a5c62baefeb65f0fd9bec021dab7d03fa54da795dfd638c89b3f02dc0f60e2d",
}


@pytest.mark.parametrize("kind", PATTERN_KINDS)
def test_gen_trace_is_pinned(tmp_path, kind):
    digest = hashlib.sha256()
    for fraction in WRITE_FRACTIONS:
        name = f"{kind}-{fraction}"
        config = write_config(tmp_path, name, kind=kind, write_fraction=fraction, **PATTERN)
        for suffix in (".txt", ".bin"):
            out = tmp_path / (name + suffix)
            assert main(["gen-trace", "--config", config, "--out", str(out)]) == 0
            digest.update(out.read_bytes())
    assert digest.hexdigest() == GEN_TRACE_DIGESTS[kind]


@pytest.mark.parametrize("seed", sorted(ANALYSIS_DIGESTS, key=str))
def test_analyze_security_json_is_pinned(tmp_path, seed):
    out = tmp_path / "report.json"
    argv = ["analyze-security", "--config", write_config(tmp_path, "analysis", **ANALYSIS),
            "--out", str(out)]
    assert main(argv + (["--seed", seed] if seed else [])) == 0
    assert sha256(out) == ANALYSIS_DIGESTS[seed]
