"""Result tables pinned by their sha256, in tests/data/table_digests.json.

The inputs are the benchmark's generated files (perfbench/inputs.py at seed 1
and scale 0.01; the fees_compare files once more at scale 0.035, whose 17 500
swaps span two of the 16 384-swap chunks fee attribution works in, with a block
of three across the edge) and the swaps fixture. Every compare case but one uses
the 30-day ratio window, longer than its input; compare_short_window's 0.05-day
window starts inside the data, on 9 025 rows. The generator uses only
uniform draws and IEEE arithmetic, so its bytes do not depend on the CPU. No
case replays synth-gbm output: np.exp's last bit may differ between CPUs and
numpy builds.

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
CHUNKED_SCALE = 0.035  # fees_chunks: 17 500 swaps, more than feeds._CHUNK
# the 864 s of sweep_dense quotes at SCALE, which start at the first hist_arb block
QUOTES_WINDOW = "1698796800000:1698797663900"


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
    dirs["fees_chunks"] = root / "fees_chunks"
    dirs["fees_chunks"].mkdir()
    generator.fees_compare(dirs["fees_chunks"], SEED, CHUNKED_SCALE)
    return dirs


def argv(case: str, dirs: dict) -> list:
    hist, dense, fees, chunks = (dirs[name] for name in (*WORKLOADS, "fees_chunks"))
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
        "fees_per_swap": ["fees", "--swaps", FIXTURE, "--position-liquidity", 500],
        "compare_fixture": ["compare", "--swaps", FIXTURE, "--klines", fees / "klines.csv",
                            "--interval-ms", 12000, "--fee-bps", 5, "--position-liquidity", 500,
                            "--concentration-k", 3],
        "compare_per_block_chunks": ["compare", "--swaps", chunks / "swaps.csv", "--klines",
                                     chunks / "klines.csv", "--interval-ms", 12000,
                                     "--fee-bps", 5, "--position-liquidity", 500,
                                     "--per-block"],
        "compare_short_window": ["compare", "--swaps", chunks / "swaps.csv", "--klines",
                                 chunks / "klines.csv", "--interval-ms", 12000, "--fee-bps", 30,
                                 "--position-liquidity", 500, "--ratio-window-days", 0.05],
        "quotes_over_blocks_5bp": ["simulate-arb", "--quotes", dense / "quotes.csv", "--blocks",
                                   hist / "blocks.csv", "--window", QUOTES_WINDOW,
                                   "--fee-bps", 5],
        "fixed_grid_0bp": ["simulate-arb", "--quotes", dense / "quotes.csv", "--interval-ms",
                           100, "--fee-bps", 0],
    }[case]


CASES = ("hist_arb", "sweep_dense", "fees_compare", "klines_over_blocks_0bp",
         "klines_over_blocks_5bp", "sweep_fee", "fees_per_block", "fees_per_swap",
         "compare_fixture", "compare_per_block_chunks", "compare_short_window",
         "quotes_over_blocks_5bp", "fixed_grid_0bp")


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
