"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

TINY = 0.003
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _generate(tmp_path: Path, name: str, seed: int, label: str) -> dict:
    out = tmp_path / label
    out.mkdir()
    harness.WORKLOADS[name].generate(out, seed, TINY)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_generator_is_deterministic_in_the_seed(tmp_path, name):
    first = _generate(tmp_path, name, 5, "a")
    assert first == _generate(tmp_path, name, 5, "b")
    other = _generate(tmp_path, name, 6, "c")
    assert other.keys() == first.keys()
    assert all(other[f] != first[f] for f in first)


def test_generator_has_the_features_the_workloads_rely_on(tmp_path):
    hist = inputs.hist_arb(tmp_path, 3, 0.01)
    seconds = (hist["kline_ts_ms"][-1] - hist["kline_ts_ms"][0]) // 1000 + 1
    assert len(hist["kline_ts_ms"]) < seconds  # missing kline seconds
    assert (hist["block_s"][-1] - hist["block_s"][0]) // 12 + 1 > len(hist["block_s"])
    assert inputs.sweep_dense(tmp_path, 3, 0.01)["duplicates"] > 0
    swaps = inputs.fees_compare(tmp_path, 3, 0.01)["swap_block"]
    assert len(set(swaps.tolist())) < len(swaps)  # multi-swap blocks


def test_benchmark_json_names_every_metric():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [m["unit"] for m in SPEC["end_to_end"]] == list(harness.END_TO_END.values())
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert [m["unit"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_tiny_pass_emits_every_metric(name):
    result = harness.measure(name, 2, 0, TINY)
    assert (result["attempted"], result["failed"]) == (1, 0), result["problems"]
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = tracing.trace_run(name, 2, 0, TINY)
    assert traced["failed"] == 0, traced["problems"]
    assert traced["absent"] == []
    assert set(traced["metrics"]) == set(tracing.PER_LAYER)
    values = {k: m["value"] for k, m in traced["metrics"].items()}
    assert values["cli.self_s"] >= 0
    assert values["arbitrage.calls"] >= values["simulation.events"] > 0


def test_corrupted_digest_counts_as_failed():
    clean = harness.measure("sweep_dense", 2, 0, TINY)
    assert clean["failed"] == 0
    corrupted = {table: "0" * 64 for table in clean["digests"]}
    result = harness.measure("sweep_dense", 2, 0, TINY, corrupted)
    assert result["failed"] == result["attempted"] == 1
    assert result["failed_frac"] == 1.0
    assert "sha256" in result["problems"][0]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "hist_arb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
