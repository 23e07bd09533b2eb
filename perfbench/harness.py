"""Workload definitions, timed CLI runs and output checks.

Each workload is one ``python -m lvrsim`` subcommand on generated inputs.
Runs are a closed loop with one client: the next CLI process starts only
after the previous one has exited, which suits a 2-core machine. Every run's
result tables are checked:

* the sha256 of each table must equal the reference digest recorded for the
  default seed and scale, or, on other seeds, the first run's digest;
* the manifest's ``results`` must equal what in-process library calls give
  on the same inputs, built from the generator's arrays rather than parsed;
* each table must have the expected number of rows.

Reported times are scaled by a calibration loop run on the same CPU (see
``calibrate``); the unscaled medians are kept in the record.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
REFERENCES = Path(__file__).resolve().parent / "reference_digests.json"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

DEFAULT_SEED = 1
DEFAULT_SCALE = 0.25
SETUP_REPEATS = 4
CALIBRATION_ROWS = 100_000
CALIBRATION_S = 0.15  # nominal calibrate() time that reported times are scaled to
# A contended CPU slows the CLI, which also waits on memory and the kernel,
# less than the pure-interpreter calibration loop: in log terms about two thirds
# as much (fitted over 30 runs, 10 seeds of each workload, on a 2-vCPU Xeon VM).
CALIBRATION_EXPONENT = 2 / 3
RUN_TIMEOUT_S = 100.0
DAY_MS = 86_400_000
SWEEP_GRID_MS = (100, 250, 500, 1000, 2000, 4000, 8000, 12000, 16000)

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "rows_per_s": "1/s",
    "setup_s": "s",
}


def library():
    """The package under test, imported from the checkout's own ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lvrsim

    return lvrsim


# --- workloads -----------------------------------------------------------------

def _hist_arb_argv(d: Path) -> list[str]:
    return ["simulate-arb", "--klines", str(d / "klines.csv"), "--blocks",
            str(d / "blocks.csv"), "--fee-bps", "30"]


def _hist_arb_expected(meta: dict) -> tuple[dict, dict]:
    lv = library()
    blocks_ms = meta["block_s"] * 1000
    aligned, _ = lv.align_to_blocks(lv.PriceSeries(meta["kline_ts_ms"], meta["opens"]), blocks_ms)
    initial = lv.PoolState(1.0, float(aligned.prices[0]), 30.0 / 1e4)
    run = lv.run_arb_sim(initial, lv.quotes_from_prices(aligned),
                         lv.BlockSchedule.from_blocks(blocks_ms))
    results = {"total_relative_loss": run.total_relative_loss,
               "n_events": int(len(run.losses)), "window_ms": run.window_ms}
    return results, {"losses.csv": len(blocks_ms)}


def _sweep_dense_argv(d: Path) -> list[str]:
    return ["sweep-blocktime", "--quotes", str(d / "quotes.csv"), "--fee-bps", "0"]


def _sweep_dense_expected(meta: dict) -> tuple[dict, dict]:
    lv = library()
    bids, asks = meta["bids"], meta["asks"]
    initial = lv.PoolState(1.0, 0.5 * (float(bids[0]) + float(asks[0])), 0.0)
    sweep = lv.blocktime_sweep(initial, lv.QuoteSeries(meta["ts_ms"], bids, asks),
                               SWEEP_GRID_MS)
    return ({"total_losses": [float(v) for v in sweep.total_losses]},
            {"sweep.csv": len(SWEEP_GRID_MS)})


def _fees_compare_argv(d: Path) -> list[str]:
    return ["compare", "--swaps", str(d / "swaps.csv"), "--klines", str(d / "klines.csv"),
            "--interval-ms", "12000", "--fee-bps", "5", "--position-liquidity", "500",
            "--concentration-k", "2"]


def _fees_compare_expected(meta: dict) -> tuple[dict, dict]:
    lv = library()
    k, liquidity = 2.0, 500.0
    records = [
        lv.SwapRecord(b, t, "X" if x else "Y", a, meta["fee_rate"], p, q)
        for b, t, x, a, p, q in zip(
            meta["swap_block"].tolist(), meta["swap_ts_ms"].tolist(), meta["is_x"].tolist(),
            meta["amounts"].tolist(), meta["post_price"].tolist(), meta["liquidity"].tolist())
    ]
    ledger = lv.attribute_fees(records, liquidity)
    ts, opens = meta["kline_ts_ms"], meta["opens"]
    schedule = lv.BlockSchedule.fixed(12000, int(ts[0]), int(ts[-1]))
    initial = lv.PoolState(1.0, float(opens[0]), 5.0 / 1e4)
    run = lv.run_arb_sim(initial, lv.quotes_from_prices(lv.PriceSeries(ts, opens)), schedule)
    run = run.scaled(k)
    ledger = lv.accumulate(lv.PositionLedger(liquidity),
                           lv.concentration_scale(ledger.returns, k), ledger.timestamps)
    report = lv.fees_vs_losses(ledger, run, 30 * DAY_MS)
    return dict(report.totals), {"comparison.csv": len(report.timestamps)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[Path, int, float], dict]  # writes the inputs, returns their arrays
    argv: Callable[[Path], list[str]]  # CLI arguments without --out
    expected: Callable[[dict], tuple[dict, dict]]  # manifest results, table row counts


WORKLOADS = {
    w.name: w for w in (
        Workload("hist_arb",
                 "simulate-arb on 1 s klines and 12 s blocks; CSV ingestion dominates",
                 inputs.hist_arb, _hist_arb_argv, _hist_arb_expected),
        Workload("sweep_dense",
                 "zero-fee sweep-blocktime on 100 ms quotes; the replay kernel and sweep dominate",
                 inputs.sweep_dense, _sweep_dense_argv, _sweep_dense_expected),
        Workload("fees_compare",
                 "compare on swaps in blocks of 1-3; swap parsing, attribution, writing dominate",
                 inputs.fees_compare, _fees_compare_argv, _fees_compare_expected),
    )
}


# --- running -------------------------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    problems: list = field(default_factory=list)


def run_cli(argv: list[str], out: Path, log: Path) -> Sample:
    """One CLI process, timed from spawn to reap by launch.py."""
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(LAUNCH), str(RUN_TIMEOUT_S),
           sys.executable, "-m", "lvrsim", *argv, "--out", str(out)]
    with open(log, "wb") as err:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              timeout=RUN_TIMEOUT_S + 30, check=True)
    return Sample(**json.loads(done.stdout))


def check_outputs(out: Path, expected_results: dict, expected_rows: dict,
                  digests: dict) -> tuple[dict, list[str]]:
    """Digest each table and compare tables and manifest with what is expected.

    ``digests`` maps table name to the digest it must have; an empty mapping
    accepts any digest. Returns the digests found and the problems seen.
    """
    problems, found = [], {}
    for table, rows in expected_rows.items():
        path = out / table
        if not path.is_file():
            problems.append(f"{table} missing")
            continue
        data = path.read_bytes()
        found[table] = hashlib.sha256(data).hexdigest()
        n_rows = data.count(b"\n") - 1
        if n_rows != rows:
            problems.append(f"{table} has {n_rows} rows, expected {rows}")
        if table in digests and digests[table] != found[table]:
            problems.append(f"{table} sha256 {found[table][:12]} != {digests[table][:12]}")
    try:
        results = json.loads((out / "manifest.json").read_text())["results"]
    except (OSError, ValueError, KeyError) as exc:
        return found, problems + [f"manifest unreadable: {exc}"]
    for key, value in expected_results.items():
        if results.get(key) != value:
            problems.append(f"manifest results[{key!r}] = {results.get(key)!r}, "
                            f"library gives {value!r}")
    return found, problems


def reference_digests(workload: str, seed: int, scale: float) -> dict:
    """Recorded table digests, which apply only at the default seed and scale."""
    if seed != DEFAULT_SEED or scale != DEFAULT_SCALE:
        return {}
    return json.loads(REFERENCES.read_text())["tables"].get(workload, {})


def setup(workload: Workload, seed: int, scale: float, work: Path,
          repeats: int = SETUP_REPEATS) -> tuple[dict, list[float], list[float]]:
    """Generate the inputs ``repeats`` times, each after a calibration.

    Returns the metadata, each set-up time and each calibration time.
    """
    data = work / "inputs"
    times, calibrations = [], []
    _calibration_text()
    for _ in range(repeats):
        shutil.rmtree(data, ignore_errors=True)
        data.mkdir(parents=True)
        calibrations.append(calibrate())
        start = time.perf_counter()
        meta = workload.generate(data, seed, scale)
        times.append(time.perf_counter() - start)
    return meta, times, calibrations


def input_summary(meta: dict) -> dict:
    files = meta["files"]
    return {"files": files, "rows": sum(f["rows"] for f in files.values()),
            "bytes": sum(f["bytes"] for f in files.values())}


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


@functools.cache
def _calibration_text() -> str:
    return "\n".join(f"{1_700_000_000_000 + 100 * i},{2000 + i * 0.0137!r},"
                     f"{2000.2 + i * 0.0137!r}" for i in range(CALIBRATION_ROWS))


def calibrate() -> float:
    """Seconds for a fixed CSV-parsing and arithmetic loop, the kind of work the CLI does.

    On a shared virtual machine other tenants can change a CPU's speed by up to 2x
    over seconds to minutes, independently on each CPU (seen on a 2-vCPU Xeon VM).
    Run on the CPU the CLI runs on, this loop sees much of the same slowdown, and
    scaling by it steadies the reported times.
    """
    start = time.perf_counter()
    rows = [(int(t), float(b), float(a))
            for t, b, a in csv.reader(io.StringIO(_calibration_text()))]
    total = 0.0
    for _, bid, ask in rows:
        if ask > bid:
            total += 0.5 * (ask - bid)
    return time.perf_counter() - start


def speed_factor(calibrations: list[float]) -> float:
    """Factor that scales a time measured alongside ``calibrations`` to nominal speed."""
    return (CALIBRATION_S / statistics.median(calibrations)) ** CALIBRATION_EXPONENT


def pin_to_one_cpu() -> None:
    """Keep the benchmark, its calibration and every CLI run on one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def compile_package() -> None:
    """Byte-compile the package once so no timed run pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "lvrsim")],
                   check=True, stdout=subprocess.DEVNULL, timeout=60)


def measure(name: str, seed: int, seconds: float, scale: float,
            digests: dict | None = None) -> dict:
    """End-to-end metrics of one workload: CLI runs for ``seconds``, all checked.

    Times are scaled by ``speed_factor``, calibrated around every CLI run and
    before every set-up; the unscaled medians are kept in the record.
    """
    workload = WORKLOADS[name]
    work = WORK / name
    meta, setup_times, setup_calibrations = setup(workload, seed, scale, work)
    expected_results, expected_rows = workload.expected(meta)
    compile_package()
    argv = workload.argv(work / "inputs")
    digests = dict(digests or {})
    samples: list[Sample] = []
    calibrations: list[float] = []
    start = time.perf_counter()
    while not samples or (time.perf_counter() - start
                          + statistics.median(s.wall_s for s in samples) <= seconds):
        calibrations.append(calibrate())
        sample = run_cli(argv, work / "out", work / "stderr.log")
        calibrations.append(calibrate())
        if sample.code != 0:
            sample.problems.append(f"exit code {sample.code}: "
                                   + (work / "stderr.log").read_text()[-500:])
        else:
            found, sample.problems = check_outputs(work / "out", expected_results,
                                                   expected_rows, digests)
            if not digests and not sample.problems:
                digests = found
        samples.append(sample)
    info = input_summary(meta)
    walls = [s.wall_s for s in samples]
    raw = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "setup_s": statistics.median(setup_times),
    }
    speed = speed_factor(calibrations)
    wall = raw["wall_s"] * speed
    failed = sum(1 for s in samples if s.problems)
    metrics = {
        "wall_s": wall,
        "cpu_s": raw["cpu_s"] * speed,
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "rows_per_s": info["rows"] / wall,
        "setup_s": raw["setup_s"] * speed_factor(setup_calibrations),
    }
    shutil.rmtree(work / "inputs", ignore_errors=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    return {
        "workload": name, "seed": seed, "scale": scale, "seconds": seconds,
        "machine": machine_info(), "inputs": info,
        "attempted": len(samples), "failed": failed, "failed_frac": failed / len(samples),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "raw": raw, "speed_factor": speed,
        "samples": {"wall_s": walls, "calibration_s": calibrations,
                    "setup_s": setup_times, "setup_calibration_s": setup_calibrations},
        "problems": [p for s in samples for p in s.problems][:20],
        "digests": digests,
    }
