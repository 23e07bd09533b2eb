"""Result tables pinned by their sha256, in tests/data/table_digests.json.

The inputs are the benchmark's generated files (perfbench/inputs.py at seed 1
and scale 0.01) and the swaps fixture. The generator uses only uniform draws
and IEEE arithmetic, so its bytes do not depend on the CPU. No case replays
synth-gbm output: np.exp's last bit may differ between CPUs and numpy builds.

A change that alters a table records the new digests with
``PYTHONPATH=src python tests/test_table_digests.py`` and lists each changed
digest, with its reason, in CHANGES.md.
"""
import hashlib
import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

from lvrsim.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).parent / "data" / "table_digests.json"
FIXTURE = Path(__file__).parent / "data" / "swaps_fixture.csv"
SEED, SCALE = 1, 0.01
WORKLOADS = ("hist_arb", "sweep_dense", "fees_compare")


def make_inputs(root: Path) -> dict:
    """Each benchmark workload's input files, generated into a directory of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    dirs = {}
    for name in WORKLOADS:
        dirs[name] = root / name
        dirs[name].mkdir()
        getattr(generator, name)(dirs[name], SEED, SCALE)
    return dirs


def argv(case: str, dirs: dict) -> list:
    hist, dense, fees = (dirs[name] for name in WORKLOADS)
    klines_over_blocks = ["simulate-arb", "--klines", hist / "klines.csv",
                          "--blocks", hist / "blocks.csv", "--fee-bps"]
    return {  # the first three are the benchmark's workload commands
        "hist_arb": [*klines_over_blocks, 30],
        "sweep_dense": ["sweep-blocktime", "--quotes", dense / "quotes.csv", "--fee-bps", 0],
        "fees_compare": ["compare", "--swaps", fees / "swaps.csv", "--klines",
                         fees / "klines.csv", "--interval-ms", 12000, "--fee-bps", 5,
                         "--position-liquidity", 500, "--concentration-k", 2],
        "klines_over_blocks_0bp": [*klines_over_blocks, 0],
        "klines_over_blocks_5bp": [*klines_over_blocks, 5],
        "sweep_fee": ["sweep-fee", "--quotes", dense / "quotes.csv", "--interval-ms", 1000],
        "fees_per_block": ["fees", "--swaps", FIXTURE, "--position-liquidity", 500,
                           "--per-block"],
    }[case]


CASES = ("hist_arb", "sweep_dense", "fees_compare", "klines_over_blocks_0bp",
         "klines_over_blocks_5bp", "sweep_fee", "fees_per_block")


def table_digests(case: str, dirs: dict, out: Path) -> dict:
    """sha256 of each CSV table the case's command writes."""
    assert main([str(a) for a in argv(case, dirs)] + ["--out", str(out)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("*.csv"))}


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    return make_inputs(tmp_path_factory.mktemp("inputs"))


def test_every_case_is_pinned():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_tables_match_their_pinned_digests(dirs, tmp_path, case):
    assert table_digests(case, dirs, tmp_path / "out") == json.loads(DIGESTS.read_text())[case]


if __name__ == "__main__":  # record the digests of the code as it stands
    with tempfile.TemporaryDirectory() as scratch:
        inputs = make_inputs(Path(scratch))
        digests = {case: table_digests(case, inputs, Path(scratch) / "out" / case)
                   for case in CASES}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
