import gzip
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import lvrsim
import lvrsim.cli as cli
import lvrsim.simulation as simulation
from lvrsim import (
    BlockSchedule,
    PoolState,
    SweepResult,
    fixed_schedule,
    gbm_generate,
    load_block_timestamps,
    load_klines,
    load_quote_updates,
    loglog_slope,
    no_arb_band,
    quotes_from_prices,
    run_arb_sim,
)
from lvrsim.cli import (
    _CHUNK_ROWS,
    COMMANDS,
    OPTIONS,
    SCHEMA_VERSION,
    _merge_config,
    _write_table,
    build_parser,
    main,
)
from lvrsim.errors import InputError

FIXTURE = Path(__file__).parent / "data" / "swaps_fixture.csv"


def run_cli(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture()
def gbm_klines(tmp_path):
    out = tmp_path / "synth"
    code = run_cli("synth-gbm", "--sigma", 0.5, "--step-ms", 1000,
                   "--horizon-ms", 600_000, "--seed", 5, "--price0", 2000,
                   "--out", out)
    assert code == 0
    return out / "gbm_klines.csv"


def constant_klines(tmp_path, price=2000.0, n=100, step=1000):
    path = tmp_path / "const_klines.csv"
    lines = ["timestamp_ms,open,high,low,close,volume"]
    for i in range(n):
        lines.append(f"{i * step},{price},{price},{price},{price},0")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSynthGbm:
    def test_reproducible(self, tmp_path):
        for name in ("a", "b"):
            assert run_cli("synth-gbm", "--sigma", 0.4, "--step-ms", 500,
                           "--horizon-ms", 50_000, "--seed", 9,
                           "--out", tmp_path / name) == 0
        a = (tmp_path / "a" / "gbm_klines.csv").read_bytes()
        b = (tmp_path / "b" / "gbm_klines.csv").read_bytes()
        assert a == b

    def test_sigma_zero_constant_file(self, tmp_path):
        assert run_cli("synth-gbm", "--sigma", 0, "--step-ms", 1000,
                       "--horizon-ms", 10_000, "--seed", 1, "--price0", 42,
                       "--out", tmp_path) == 0
        rows = (tmp_path / "gbm_klines.csv").read_text().strip().splitlines()[1:]
        assert all(row.split(",")[1] == "42.0" for row in rows)

    @pytest.mark.parametrize("step", [0, -1000])
    def test_step_must_be_positive(self, tmp_path, capsys, step):
        assert run_cli("synth-gbm", "--sigma", 0.5, "--step-ms", step, "--horizon-ms", 10_000,
                       "--seed", 1, "--out", tmp_path / "bad") == 2
        assert capsys.readouterr().err == (
            f"error: --step-ms must be a positive integer, got '{step}'\n")
        assert not (tmp_path / "bad").exists()

    def test_horizon_step_mismatch_is_config_error(self, tmp_path, capsys):
        code = run_cli("synth-gbm", "--sigma", 0.5, "--step-ms", 300,
                       "--horizon-ms", 1000, "--seed", 1, "--out", tmp_path)
        assert code == 2

    def test_quotes_format_reingests(self, tmp_path):
        assert run_cli("synth-gbm", "--sigma", 0.3, "--step-ms", 1000,
                       "--horizon-ms", 20_000, "--seed", 2, "--format", "quotes",
                       "--out", tmp_path) == 0
        from lvrsim import load_quote_updates

        series = load_quote_updates(str(tmp_path / "gbm_quotes.csv"))
        assert len(series) == 21
        assert np.array_equal(series.bids, series.asks)


class TestSimulateArb:
    def test_constant_price_all_zero(self, tmp_path):
        klines = constant_klines(tmp_path)
        out = tmp_path / "run"
        assert run_cli("simulate-arb", "--klines", klines, "--fee-bps", 30,
                       "--interval-ms", 1000, "--out", out) == 0
        rows = (out / "losses.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        cum = header.index("cumulative_relative_loss")
        assert all(float(r.split(",")[cum]) == 0.0 for r in rows[1:])

    def test_missing_input_exits_2_naming_path(self, tmp_path, capsys):
        code = run_cli("simulate-arb", "--klines", tmp_path / "nope.csv",
                       "--fee-bps", 30, "--interval-ms", 1000,
                       "--out", tmp_path / "o")
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_directory_input_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("simulate-arb", "--klines", tmp_path, "--fee-bps", 30,
                       "--interval-ms", 1000, "--out", out) == 2
        assert capsys.readouterr().err == f"error: input path is not a regular file: {tmp_path}\n"
        assert not out.exists()

    def test_rerun_byte_identical(self, tmp_path, gbm_klines):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli("simulate-arb", "--klines", gbm_klines, "--fee-bps", 30,
                           "--interval-ms", 2000, "--out", out) == 0
            outs.append((out / "losses.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_contents(self, tmp_path, gbm_klines):
        out = tmp_path / "run"
        assert run_cli("simulate-arb", "--klines", gbm_klines, "--fee-bps", 30,
                       "--interval-ms", 2000, "--pair", "TOK-QUO", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate-arb"
        assert manifest["parameters"]["pair"] == "TOK-QUO"
        assert manifest["parameters"]["fee"] == 0.003
        (input_info,) = manifest["inputs"].values()
        assert len(input_info["sha256"]) == 64
        assert "created_utc" in manifest

    def test_blocks_schedule_with_fills(self, tmp_path):
        klines = constant_klines(tmp_path, n=60)
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("block_number,timestamp_s\n1,10\n2,22\n3,35\n")
        out = tmp_path / "run"
        assert run_cli("simulate-arb", "--klines", klines, "--blocks", blocks,
                       "--fee-bps", 5, "--out", out) == 0
        rows = (out / "losses.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 3

    def test_concentration_scales_losses(self, tmp_path, gbm_klines):
        base, scaled = tmp_path / "base", tmp_path / "k10"
        for out, extra in ((base, []), (scaled, ["--concentration-k", 10])):
            assert run_cli("simulate-arb", "--klines", gbm_klines, "--fee-bps", 10,
                           "--interval-ms", 2000, "--out", out, *extra) == 0
        read = lambda p: np.array(
            [float(r.split(",")[2]) for r in (p / "losses.csv").read_text().strip().splitlines()[1:]]
        )
        assert np.allclose(read(scaled), 10.0 * read(base), rtol=1e-12)

    def test_config_file_with_flag_override(self, tmp_path, gbm_klines):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "klines": str(gbm_klines), "fee_bps": 30, "interval_ms": 2000,
            "out": str(tmp_path / "from_cfg"),
        }))
        assert run_cli("simulate-arb", "--config", config) == 0
        assert (tmp_path / "from_cfg" / "losses.csv").exists()
        # flag overrides the config file value
        assert run_cli("simulate-arb", "--config", config,
                       "--out", tmp_path / "flag_wins") == 0
        assert (tmp_path / "flag_wins" / "losses.csv").exists()


class TestStreamedLosses:
    """losses.csv is written a row chunk at a time: each chunk's instants worked out, its
    events scattered onto them and its cumulative loss carried on from the chunk before.
    At every chunk size it must give the bytes of the whole-array build it replaced."""

    STEP_MS, N_QUOTES = 500, 3001

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """Quotes every 500 ms whose mid moves at each one, with a 2e-9 relative spread, so
        that at zero fee every instant that reads a new quote trades; and blocks on 80 % of
        the whole seconds, more than 1024 of them."""
        d = tmp_path_factory.mktemp("streamed")
        series = gbm_generate(2.0, 0.0, self.STEP_MS, self.STEP_MS * (self.N_QUOTES - 1),
                              seed=11, price0=2000.0)
        rows = [f"{t},{p * (1 - 1e-9)!r},{p * (1 + 1e-9)!r}"
                for t, p in zip(series.timestamps.tolist(), series.prices.tolist())]
        (d / "quotes.csv").write_text("timestamp_ms,bid,ask\n" + "\n".join(rows) + "\n")
        seconds = np.flatnonzero(np.random.default_rng(2).random(1501) < 0.8)
        (d / "blocks.csv").write_text("block_number,timestamp_s\n" + "".join(
            f"{100 + i},{t}\n" for i, t in enumerate(seconds.tolist())))
        return d

    @staticmethod
    def whole_array(quotes, schedule, fee) -> tuple[bytes, np.ndarray]:
        """losses.csv's bytes built from whole columns, and the rows of the events."""
        run = run_arb_sim(PoolState(1.0, 2000.0, fee), quotes, schedule)
        instants = schedule.timestamps
        loss, profit = np.zeros((2, len(instants)))
        rows = np.searchsorted(instants, run.timestamps)
        loss[rows], profit[rows] = run.losses, run.profits
        cumulative = 1.0 - np.cumprod(1.0 - loss)
        header = ["schema_version", "timestamp_ms", "lp_relative_loss", "arb_profit",
                  "cumulative_relative_loss"]
        table = zip([SCHEMA_VERSION] * len(instants), instants, loss, profit, cumulative)
        return TestColumnWriter().expected(header, table), rows

    @pytest.mark.parametrize("fee_bps", [0, 30])
    @pytest.mark.parametrize("schedule", ["on-step", "off-step", "blocks"])
    def test_every_chunk_size_gives_the_whole_array_bytes(self, tmp_path, monkeypatch, files,
                                                          schedule, fee_bps):
        quotes = load_quote_updates(files / "quotes.csv")
        if schedule == "blocks":
            flags = ("--blocks", files / "blocks.csv")
            built = BlockSchedule.from_blocks(load_block_timestamps(files / "blocks.csv"))
        else:
            interval = self.STEP_MS if schedule == "on-step" else 700
            flags, built = ("--interval-ms", interval), fixed_schedule(quotes, interval)
        expected, rows = self.whole_array(quotes, built, fee_bps / 1e4)
        assert built.n_instants > 1024
        for size in (1, 2, 3, 7, 1024):
            if fee_bps == 0:  # events on the first and on the last row of a chunk
                assert {0, size - 1} <= set((rows % size).tolist())
            monkeypatch.setattr(cli, "_CHUNK_ROWS", size)
            out = tmp_path / f"chunks-{size}"
            assert run_cli("simulate-arb", "--quotes", files / "quotes.csv", *flags,
                           "--fee-bps", fee_bps, "--initial-price", 2000, "--out", out) == 0
            assert (out / "losses.csv").read_bytes() == expected, size


class TestSimulateArbMemory:
    """Traced peak of an in-process zero-fee simulate-arb over 6 h of 100 ms GBM klines, the
    prices TestReplayMemory replays. losses.csv is streamed a row chunk at a time, and the
    losses at k = 1 are not copied, so the run peaks in its replay: the loaded klines, 16
    bytes a quote, and the events, 24 bytes each. Every new quote trades: each instant of the
    100 ms grid, every other one of the 50 ms grid."""

    @pytest.fixture(scope="class")
    def klines(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("replay-klines")
        assert run_cli("synth-gbm", "--sigma", 0.5, "--step-ms", 100, "--horizon-ms",
                       6 * 3600 * 1000, "--seed", 5, "--price0", 2000, "--out", out) == 0
        return out / "gbm_klines.csv"

    @pytest.mark.parametrize("interval, bound", [(100, 44), (50, 23)])
    def test_peak_bytes_per_instant(self, tmp_path, klines, interval, bound):
        out = tmp_path / "run"
        tracemalloc.start()
        try:
            assert run_cli("simulate-arb", "--klines", klines, "--interval-ms", interval,
                           "--fee-bps", 0, "--out", out) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        manifest = json.loads((out / "manifest.json").read_text())
        instants = manifest["parameters"]["n_instants"]
        assert manifest["results"]["n_events"] > 0.99 * min(instants, 6 * 36_000)
        assert peak / instants <= bound


def test_importing_the_cli_loads_no_openssl():
    """hashlib's OpenSSL module loads when a run hashes its inputs, not on import, so that
    its libcrypto is not resident through the run. numpy may load it itself (numpy 1.24:
    numpy.random imports secrets, and so hmac), so only the modules the cli adds count."""
    root = str(Path(lvrsim.__file__).resolve().parent.parent)
    code = ("import sys, numpy; before = set(sys.modules); import lvrsim.cli; "
            "print(*set(sys.modules) - before)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")]))}
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "lvrsim.cli" in added
    assert "_hashlib" not in added


class TestFeesCommand:
    def test_runs_on_fixture(self, tmp_path):
        out = tmp_path / "fees"
        assert run_cli("fees", "--swaps", FIXTURE, "--position-liquidity", 500,
                       "--out", out) == 0
        rows = (out / "fee_returns.csv").read_text().strip().splitlines()
        assert len(rows) == 1001
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["cumulative_fee_return"] == pytest.approx(
            2.2638787300643948e-4, rel=1e-9
        )

    def test_per_block_mode(self, tmp_path):
        out = tmp_path / "fees_block"
        assert run_cli("fees", "--swaps", FIXTURE, "--position-liquidity", 500,
                       "--per-block", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["n_periods"] == 417


class TestCompare:
    def write_inputs(self, tmp_path):
        # constant price: zero losses; fixture provides fee events
        klines = tmp_path / "klines.csv"
        lines = ["timestamp_ms,open,high,low,close,volume"]
        start = 1_672_531_200_000
        for i in range(0, 40_000_000, 500_000):
            lines.append(f"{start + i},2000.0,2000.0,2000.0,2000.0,0")
        klines.write_text("\n".join(lines) + "\n")
        return klines

    def test_fee_only_difference_increases(self, tmp_path):
        klines = self.write_inputs(tmp_path)
        out = tmp_path / "cmp"
        assert run_cli("compare", "--klines", klines, "--swaps", FIXTURE,
                       "--fee-bps", 30, "--interval-ms", 500_000,
                       "--position-liquidity", 500, "--out", out) == 0
        rows = (out / "comparison.csv").read_text().strip().splitlines()[1:]
        diffs = [float(r.split(",")[4]) for r in rows]
        assert all(b >= a for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] > 0

    def test_ratio_absent_when_no_losses(self, tmp_path):
        klines = self.write_inputs(tmp_path)
        out = tmp_path / "cmp"
        assert run_cli("compare", "--klines", klines, "--swaps", FIXTURE,
                       "--fee-bps", 30, "--interval-ms", 500_000,
                       "--position-liquidity", 500, "--out", out) == 0
        rows = (out / "comparison.csv").read_text().strip().splitlines()
        ratio_col = rows[0].split(",").index("trailing_ratio")
        assert all(r.split(",")[ratio_col] == "" for r in rows[1:])


    def test_empty_run_writes_every_result_key(self, tmp_path):
        """No swap and a flat feed: the same results keys as a run with rows."""
        klines = self.write_inputs(tmp_path)
        swaps = tmp_path / "swaps.csv"
        swaps.write_text("block_number,timestamp_ms,input_token,amount_in,fee_rate,"
                         "post_swap_price,post_swap_liquidity\n")
        results = {}
        for name, path in (("empty", swaps), ("full", FIXTURE)):
            assert run_cli("compare", "--klines", klines, "--swaps", path, "--fee-bps", 30,
                           "--interval-ms", 500_000, "--position-liquidity", 500,
                           "--out", tmp_path / name) == 0
            results[name] = manifest_results(tmp_path / name)
        assert results["empty"].keys() == results["full"].keys()
        assert results["empty"] == dict.fromkeys(results["full"], 0.0)
        assert (tmp_path / "empty" / "comparison.csv").read_text() == (
            "schema_version,timestamp_ms,fee_return,loss_return,cumulative_difference,"
            "trailing_ratio\n")

    def test_ratio_window_past_int64_ms_covers_the_timeline(self, tmp_path, gbm_klines):
        tables = {}
        for days in ("1e5", "1e20", "1e300"):
            out = tmp_path / days
            assert run_cli("compare", "--klines", gbm_klines, "--swaps", FIXTURE,
                           "--fee-bps", 0, "--interval-ms", 2000, "--position-liquidity", 500,
                           "--ratio-window-days", days, "--out", out) == 0
            tables[days] = (out / "comparison.csv").read_bytes()
        rows = [row.split(",") for row in tables["1e5"].decode().splitlines()[1:]]
        # each window, the shortest too, holds the whole timeline
        assert int(rows[-1][1]) - int(rows[0][1]) < 1e5 * simulation.DAY_MS
        assert sum(row[-1] != "" for row in rows) > 100
        assert tables["1e20"] == tables["1e5"] and tables["1e300"] == tables["1e5"]


class TestTablesAgreeWithManifests:
    """The last cumulative cell of a table is its manifest total, bit for bit."""

    @staticmethod
    def last_cell(path, column):
        rows = path.read_text().strip().splitlines()
        return float(rows[-1].split(",")[rows[0].split(",").index(column)])

    @pytest.mark.parametrize("factor", [1, 3])
    def test_losses_table(self, tmp_path, gbm_klines, factor):
        out = tmp_path / "run"
        assert run_cli("simulate-arb", "--klines", gbm_klines, "--fee-bps", 5,
                       "--interval-ms", 2000, "--concentration-k", factor, "--out", out) == 0
        results = manifest_results(out)
        assert results["n_events"] > 0
        last = self.last_cell(out / "losses.csv", "cumulative_relative_loss")
        assert last == results["total_relative_loss"]

    @pytest.mark.parametrize("per_block", [[], ["--per-block"]])
    @pytest.mark.parametrize("factor", [1, 3])
    def test_fee_table(self, tmp_path, factor, per_block):
        out = tmp_path / "fees"
        assert run_cli("fees", "--swaps", FIXTURE, "--position-liquidity", 500, *per_block,
                       "--concentration-k", factor, "--out", out) == 0
        last = self.last_cell(out / "fee_returns.csv", "cumulative_growth")
        assert last - 1.0 == manifest_results(out)["cumulative_fee_return"]


class TestSweeps:
    def test_blocktime_sweep_reproducible(self, tmp_path, gbm_klines):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert run_cli("sweep-blocktime", "--klines", gbm_klines, "--fee-bps", 5,
                           "--intervals-ms", "1000,2000,4000,8000", "--out", out) == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_slope_and_fit_range_in_manifest(self, tmp_path, gbm_klines):
        out = tmp_path / "sweep"
        assert run_cli("sweep-blocktime", "--klines", gbm_klines, "--fee-bps", 5,
                       "--intervals-ms", "1000,2000,4000,8000",
                       "--fit-range", "1000:8000", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        fit = manifest["parameters"]["fit"]
        assert fit["fit_range"] == [1000.0, 8000.0]
        assert fit["slope"] is None or isinstance(fit["slope"], float)

    def test_fee_sweep_fit_range_is_recorded_in_the_fee_unit(self, tmp_path):
        # --fit-range is given in bps, as --fees-bps is, and recorded as the fee
        # fractions of the table's fee column; fees_bps stays in bps
        synth = tmp_path / "feed"
        assert run_cli("synth-gbm", "--sigma", 2.0, "--step-ms", 1000,
                       "--horizon-ms", 3_600_000, "--seed", 5, "--price0", 2000,
                       "--out", synth) == 0
        out = tmp_path / "fsweep"
        assert run_cli("sweep-fee", "--klines", synth / "gbm_klines.csv", "--interval-ms", 2000,
                       "--fees-bps", "5,10,20,30,50,100", "--fit-range", "10:50",
                       "--out", out) == 0
        parameters = json.loads((out / "manifest.json").read_text())["parameters"]
        assert parameters["fees_bps"] == [5.0, 10.0, 20.0, 30.0, 50.0, 100.0]
        assert parameters["fit"]["fit_range"] == [0.001, 0.005]
        fees, losses = np.array([row for row in sweep_totals(out)
                                 if 0.001 <= row[0] <= 0.005]).T
        assert fees.tolist() == [0.001, 0.002, 0.003, 0.005]
        sweep = SweepResult("fee", fees, losses, np.zeros(4), np.zeros(4, dtype=np.int64))
        assert parameters["fit"]["slope"] == loglog_slope(sweep)[0]

    def test_interval_below_resolution_rejected(self, tmp_path, gbm_klines, capsys):
        code = run_cli("sweep-blocktime", "--klines", gbm_klines, "--fee-bps", 5,
                       "--intervals-ms", "10,1000", "--out", tmp_path / "bad")
        assert code == 2
        assert "resolution" in capsys.readouterr().err

    def test_fee_sweep_outputs(self, tmp_path, gbm_klines):
        out = tmp_path / "fsweep"
        assert run_cli("sweep-fee", "--klines", gbm_klines, "--interval-ms", 2000,
                       "--fees-bps", "10,30,100", "--out", out) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0].startswith("schema_version,fee,")
        assert len(rows) == 4

    def test_extended_grid_reaches_300s(self, tmp_path):
        synth = tmp_path / "feed"
        assert run_cli("synth-gbm", "--sigma", 0.5, "--step-ms", 100,
                       "--horizon-ms", 600_000, "--seed", 4, "--price0", 2000,
                       "--out", synth) == 0
        out = tmp_path / "sweep"
        assert run_cli("sweep-blocktime", "--klines", synth / "gbm_klines.csv",
                       "--fee-bps", 5, "--extended", "--out", out) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        assert rows[-1].split(",")[1] == "300000.0"


class TestQuotesFeed:
    def write_quotes(self, tmp_path):
        quotes = tmp_path / "quotes.csv"
        lines = ["timestamp_ms,bid,ask"]
        price = 2000.0
        for i in range(200):
            price *= 1.0005 if i % 3 else 0.999
            lines.append(f"{i * 500},{price * 0.999!r},{price * 1.001!r}")
        quotes.write_text("\n".join(lines) + "\n")
        return quotes

    def test_simulate_arb_on_bid_ask_updates(self, tmp_path):
        quotes = self.write_quotes(tmp_path)
        out = tmp_path / "run"
        assert run_cli("simulate-arb", "--quotes", quotes, "--fee-bps", 10,
                       "--interval-ms", 1000, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["feed_kind"] == "bid_ask"

    def test_quotes_feed_with_block_schedule(self, tmp_path):
        quotes = self.write_quotes(tmp_path)
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("block_number,timestamp_s\n1,10\n2,30\n3,60\n4,90\n")
        out = tmp_path / "run"
        assert run_cli("simulate-arb", "--quotes", quotes, "--blocks", blocks,
                       "--fee-bps", 10, "--out", out) == 0
        rows = (out / "losses.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["10000", "30000", "60000", "90000"]

    def test_blocks_spanning_past_int64_report_their_window(self, tmp_path):
        # the span of -9e18 and 9e18 ms is worked out in Python ints, with no int64 wrap
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("timestamp_ms,bid,ask\n-9000000000000000000,2000.0,2000.0\n"
                          "0,2100.0,2100.0\n9000000000000000000,1900.0,1900.0\n")
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("block_number,timestamp_s\n1,-9000000000000000\n2,9000000000000000\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("simulate-arb", "--quotes", quotes, "--blocks", blocks,
                           "--fee-bps", 30, "--out", tmp_path / "run") == 0
        assert [str(w.message) for w in caught] == []
        assert manifest_results(tmp_path / "run")["window_ms"] == 18000000000000000000

    @pytest.mark.parametrize("fee_bps", [0, 30])
    def test_evenly_spaced_blocks_match_the_fixed_grid(self, tmp_path, fee_bps):
        # the blocks take the index path and the grid the strided view, alike
        assert run_cli("synth-gbm", "--sigma", 5, "--step-ms", 1000, "--horizon-ms", 600_000,
                       "--seed", 5, "--price0", 2000, "--format", "quotes",
                       "--out", tmp_path / "feed") == 0
        quotes = tmp_path / "feed" / "gbm_quotes.csv"
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("".join(f"{i},{12 * i}\n" for i in range(51)))  # 0 to 600 s
        tables = []
        for name, schedule in (("blocks", ["--blocks", blocks]),
                               ("grid", ["--interval-ms", 12_000])):
            assert run_cli("simulate-arb", "--quotes", quotes, *schedule, "--fee-bps", fee_bps,
                           "--out", tmp_path / name) == 0
            tables.append((tmp_path / name / "losses.csv").read_bytes())
        assert tables[0] == tables[1]
        assert manifest_results(tmp_path / "grid")["n_events"] > 10


class TestKlinesOverBlocks:
    """--klines with --blocks against the same prices given as --quotes, over the same blocks.

    1 h of 1 s prices with a 30 s gap every 240 s, and a block every 12 s: two
    blocks in each of the 15 gaps. The klines are replayed as the quotes they
    are, so the second block of a gap reads the quote the first block read.
    """

    def outs(self, tmp_path, fee_bps):
        prices = gbm_generate(0.5, 0.0, 1000, 3_600_000, seed=11, price0=2000.0)
        kept = prices.timestamps % 240_000 < 210_000
        rows = list(zip(prices.timestamps[kept].tolist(), prices.prices[kept].tolist()))
        feeds = {"klines": "".join(f"{t},{p!r},{p!r},{p!r},{p!r},0\n" for t, p in rows),
                 "quotes": "".join(f"{t},{p!r},{p!r}\n" for t, p in rows)}
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("".join(f"{i},{12 * i}\n" for i in range(301)))  # 0 to 3600 s
        outs = []
        for kind, text in feeds.items():
            feed, out = tmp_path / f"{kind}.csv", tmp_path / kind
            feed.write_text(text)
            assert run_cli("simulate-arb", f"--{kind}", feed, "--blocks", blocks,
                           "--fee-bps", fee_bps, "--out", out) == 0
            outs.append(out)
        return outs

    def runs(self, tmp_path, fee_bps):
        runs = []
        for out in self.outs(tmp_path, fee_bps):
            results = manifest_results(out)
            runs.append(((out / "losses.csv").read_bytes(), results["n_events"],
                         results["n_dropped"]))
        return runs

    def test_zero_fee_klines_match_quotes(self, tmp_path):
        klines, quotes = self.runs(tmp_path, 0)
        assert klines == quotes

    def test_fee_bearing_klines_match_quotes(self, tmp_path):
        klines, quotes = self.runs(tmp_path, 5)
        assert klines == quotes
        assert klines[1] > 10

    def test_klines_manifest_counts_fills_at_the_klines_resolution(self, tmp_path):
        klines, quotes = (json.loads((out / "manifest.json").read_text())
                          for out in self.outs(tmp_path, 5))
        assert klines["fill_counters"] == {"block_price_fills": 2 * 15, "blocks": 301}
        assert quotes["fill_counters"] == {}
        assert (klines["parameters"]["quote_resolution_ms"]
                == quotes["parameters"]["quote_resolution_ms"] == 1000)


def manifest_results(out):
    return json.loads((out / "manifest.json").read_text())["results"]


def sweep_totals(out):
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    return [(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_seed_is_recorded_in_the_manifest(tmp_path, gbm_klines, command):
    args = {
        "simulate-arb": ["--klines", gbm_klines, "--fee-bps", 30, "--interval-ms", 2000],
        "fees": ["--swaps", FIXTURE, "--position-liquidity", 500],
        "compare": ["--klines", gbm_klines, "--swaps", FIXTURE, "--fee-bps", 30,
                    "--interval-ms", 2000, "--position-liquidity", 500],
        "sweep-blocktime": ["--klines", gbm_klines, "--fee-bps", 30,
                            "--intervals-ms", "1000,2000"],
        "sweep-fee": ["--klines", gbm_klines, "--interval-ms", 2000],
        "synth-gbm": ["--sigma", 0.5, "--step-ms", 1000, "--horizon-ms", 10_000],
    }[command]
    out = tmp_path / "run"
    assert run_cli(command, *args, "--seed", 7, "--out", out) == 0
    assert json.loads((out / "manifest.json").read_text())["parameters"]["seed"] == 7


@pytest.mark.parametrize("command, args", [
    ("simulate-arb", ["--fee-bps", 30, "--interval-ms", 100]),  # below the resolution: exit 0
    ("compare", ["--swaps", FIXTURE, "--fee-bps", 30, "--interval-ms", 2000,
                 "--position-liquidity", 500]),
    ("sweep-blocktime", ["--fee-bps", 30, "--intervals-ms", "1000,2000"]),
    ("sweep-fee", ["--interval-ms", 2000]),
])
def test_quote_resolution_is_recorded(tmp_path, gbm_klines, command, args):
    out = tmp_path / "run"
    assert run_cli(command, "--klines", gbm_klines, *args, "--out", out) == 0
    parameters = json.loads((out / "manifest.json").read_text())["parameters"]
    assert parameters["quote_resolution_ms"] == 1000


@pytest.mark.parametrize("command, args", [
    ("simulate-arb", []),
    ("compare", ["--swaps", FIXTURE, "--position-liquidity", 500]),
])
def test_dropped_band_exits_are_reported(tmp_path, command, args):
    # a constant price one ulp above the band: every instant exits it, and the
    # profit guard drops every trade
    state = PoolState(1.0, 2000.0, 0.003)
    price = float(np.nextafter(no_arb_band(state)[1], np.inf))
    klines = tmp_path / "k.csv"
    klines.write_text("".join(f"{t},{price!r},{price!r},{price!r},{price!r},0\n"
                              for t in range(0, 60_001, 1000)))
    out = tmp_path / "run"
    assert run_cli(command, "--klines", klines, "--fee-bps", 30, "--interval-ms", 1000,
                   "--initial-price", 2000, *args, "--out", out) == 0
    quotes = quotes_from_prices(load_klines(str(klines)))
    run = run_arb_sim(state, quotes, fixed_schedule(quotes, 1000))
    assert run.n_dropped == 61
    assert manifest_results(out)["n_dropped"] == run.n_dropped


class TestSweepsMatchSimulateArb:
    WINDOW = "3600000:7200000"

    @pytest.fixture()
    def two_hour_klines(self, tmp_path):
        out = tmp_path / "synth2h"
        assert run_cli("synth-gbm", "--sigma", 0.8, "--step-ms", 1000,
                       "--horizon-ms", 7_200_000, "--seed", 31, "--price0", 2000,
                       "--out", out) == 0
        return out / "gbm_klines.csv"

    def simulate(self, tmp_path, klines, fee_bps, interval_ms):
        out = tmp_path / f"sim_{fee_bps}_{interval_ms}"
        assert run_cli("simulate-arb", "--klines", klines, "--fee-bps", fee_bps,
                       "--interval-ms", interval_ms, "--window", self.WINDOW,
                       "--out", out) == 0
        return manifest_results(out)["total_relative_loss"]

    def test_sweep_fee_rows_equal_simulate_arb(self, tmp_path, two_hour_klines):
        out = tmp_path / "fsweep"
        assert run_cli("sweep-fee", "--klines", two_hour_klines, "--interval-ms", 12_000,
                       "--fees-bps", "10,30", "--window", self.WINDOW, "--out", out) == 0
        rows = sweep_totals(out)
        assert [fee for fee, _ in rows] == [0.001, 0.003]
        for (fee, total), bps in zip(rows, (10, 30)):
            assert total > 0
            assert total == self.simulate(tmp_path, two_hour_klines, bps, 12_000)

    def test_sweep_blocktime_rows_equal_simulate_arb(self, tmp_path, two_hour_klines):
        out = tmp_path / "bsweep"
        assert run_cli("sweep-blocktime", "--klines", two_hour_klines, "--fee-bps", 10,
                       "--intervals-ms", "4000,12000", "--window", self.WINDOW,
                       "--out", out) == 0
        for interval, total in sweep_totals(out):
            assert total > 0
            assert total == self.simulate(tmp_path, two_hour_klines, 10, int(interval))


class TestBadInputExits2:
    def write_config(self, tmp_path, **values):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"out": str(tmp_path / "out"), **values}))
        return path

    def two_row_feed(self, tmp_path, feed):
        """A --quotes or --klines file with price 2.0 at 1000 and 2000 ms."""
        path = tmp_path / "feed.csv"
        cells = "2.0,2.0" if feed == "quotes" else "2.0,2,2,2,1"
        path.write_text(f"1000,{cells}\n2000,{cells}\n")
        return path

    @pytest.mark.parametrize("command, key", [
        ("simulate-arb", "fee_bp"), ("fees", "concentraton_k"), ("fees", "fee_bps"),
    ])
    def test_undeclared_config_key(self, tmp_path, capsys, command, key):
        config = self.write_config(tmp_path, **{key: 30})
        assert run_cli(command, "--config", config) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("fee_bps", "abc"), ("interval_ms", "2s"), ("concentration_k", [2]),
        ("window", [0, 60_000]), ("out", 5), ("pair", 3),
    ])
    def test_config_value_the_flag_rejects(self, tmp_path, gbm_klines, capsys, key, value):
        config = self.write_config(tmp_path, **{"klines": str(gbm_klines), "fee_bps": 30,
                                                "interval_ms": 2000, key: value})
        assert run_cli("simulate-arb", "--config", config) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [("fees", "per_block"),
                                              ("sweep-blocktime", "extended")])
    def test_on_off_config_values_must_be_json_booleans(self, tmp_path, capsys, command, key):
        config = self.write_config(tmp_path, **{key: "false"})
        assert run_cli(command, "--config", config) == 2
        assert key in capsys.readouterr().err

    def test_per_block_json_booleans_match_flag(self, tmp_path):
        periods = {}
        for value in (True, False):
            config = self.write_config(tmp_path, swaps=str(FIXTURE), per_block=value,
                                       position_liquidity=500)
            assert run_cli("fees", "--config", config) == 0
            periods[value] = manifest_results(tmp_path / "out")["n_periods"]
        assert periods == {True: 417, False: 1000}

    def test_grid_config_values_may_be_json_lists(self, tmp_path, gbm_klines):
        config = self.write_config(tmp_path, klines=str(gbm_klines), interval_ms=2000,
                                   fees_bps=[10, 30])
        assert run_cli("sweep-fee", "--config", config) == 0
        assert [fee for fee, _ in sweep_totals(tmp_path / "out")] == [0.001, 0.003]
        config = self.write_config(tmp_path, klines=str(gbm_klines), fee_bps=10,
                                   intervals_ms=[1000, 4000])
        assert run_cli("sweep-blocktime", "--config", config) == 0
        assert [ms for ms, _ in sweep_totals(tmp_path / "out")] == [1000.0, 4000.0]

    def test_fit_range_not_a_range(self, tmp_path, gbm_klines, capsys):
        code = run_cli("sweep-fee", "--klines", gbm_klines, "--interval-ms", 2000,
                       "--fit-range", "abc", "--out", tmp_path / "bad")
        assert code == 2
        assert "fit range" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", [0, -12000])
    @pytest.mark.parametrize("feed", ["klines", "missing"])
    @pytest.mark.parametrize("command, args", [
        ("simulate-arb", ["--fee-bps", 30]),
        ("compare", ["--fee-bps", 30, "--swaps", FIXTURE, "--position-liquidity", 500]),
        ("sweep-fee", []),
    ], ids=["simulate-arb", "compare", "sweep-fee"])
    def test_zero_interval_names_the_interval(self, tmp_path, gbm_klines, capsys, command,
                                              args, feed, interval):
        # rejected where the option is read, before any file is
        klines = gbm_klines if feed == "klines" else tmp_path / "missing.csv"
        code = run_cli(command, "--klines", klines, *args, "--interval-ms", interval,
                       "--out", tmp_path / "bad")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --interval-ms must be a positive integer, got '{interval}'\n")
        assert not (tmp_path / "bad").exists()

    def test_concentration_taking_whole_position(self, tmp_path, gbm_klines, capsys):
        code = run_cli("simulate-arb", "--klines", gbm_klines, "--fee-bps", 10,
                       "--interval-ms", 2000, "--concentration-k", 1e9,
                       "--out", tmp_path / "bad")
        assert code == 2
        assert "leaves its range" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()  # the replay ran, but nothing is written

    @pytest.mark.parametrize("days", ["nan", "inf", "0", "-1", "1e-12"])
    def test_ratio_window_days_out_of_range(self, tmp_path, gbm_klines, capsys, days):
        code = run_cli("compare", "--klines", gbm_klines, "--swaps", FIXTURE,
                       "--fee-bps", 30, "--interval-ms", 2000, "--position-liquidity", 500,
                       "--ratio-window-days", days, "--out", tmp_path / "bad")
        assert code == 2
        assert "--ratio-window-days" in capsys.readouterr().err

    @pytest.mark.parametrize("command, args", [
        ("simulate-arb", ["--klines", "--fee-bps", 30, "--interval-ms", 1000]),
        ("compare", ["--klines", "--fee-bps", 30, "--interval-ms", 1000,
                     "--swaps", FIXTURE, "--position-liquidity", 500]),
        ("sweep-fee", ["--klines", "--interval-ms", 1000]),
        ("sweep-blocktime", ["--quotes", "--fee-bps", 30]),
    ], ids=["simulate-arb", "compare", "sweep-fee", "sweep-blocktime"])
    def test_feed_without_data_rows(self, tmp_path, capsys, command, args):
        header = ("timestamp_ms,bid,ask" if args[0] == "--quotes"
                  else "timestamp_ms,open,high,low,close,volume")
        feed = tmp_path / "header_only.csv"
        feed.write_text(header + "\n")
        assert run_cli(command, args[0], feed, *args[1:], "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert str(feed) in err and "Traceback" not in err


    @pytest.mark.parametrize("window", [
        "0:99999999999999999999999", "0:9000000000000000000", "-12000:60000",
        "-99999999999999999999999:60000",
    ])
    @pytest.mark.parametrize("command, args", [
        ("simulate-arb", ["--fee-bps", 30, "--interval-ms", 12000]),
        ("compare", ["--fee-bps", 30, "--interval-ms", 12000, "--swaps", FIXTURE,
                     "--position-liquidity", 500]),
        ("sweep-fee", ["--interval-ms", 12000]),
        ("sweep-blocktime", ["--fee-bps", 30, "--intervals-ms", "1000,12000"]),
    ], ids=["simulate-arb", "compare", "sweep-fee", "sweep-blocktime"])
    def test_window_beyond_the_quotes(self, tmp_path, gbm_klines, capsys, command, args, window):
        code = run_cli(command, "--klines", gbm_klines, *args, f"--window={window}",
                       "--out", tmp_path / "bad")
        assert code == 2
        err = capsys.readouterr().err
        assert "--window" in err and "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("window, needs", [
        ("-12000:60000", "[-12000, 60000]"), ("0:700000", "[0, 696000]"),
    ], ids=["starts-before", "ends-after"])
    @pytest.mark.parametrize("command, args", [
        ("simulate-arb", ["--fee-bps", 30, "--interval-ms", 12000]),
        ("sweep-fee", ["--interval-ms", 12000]),
        ("sweep-blocktime", ["--fee-bps", 30, "--intervals-ms", "12000,24000"]),
    ], ids=["simulate-arb", "sweep-fee", "sweep-blocktime"])
    def test_window_outside_the_quotes_gets_the_coverage_message(
            self, tmp_path, gbm_klines, capsys, command, args, window, needs):
        # the 12000 ms grid is checked first
        code = run_cli(command, "--klines", gbm_klines, *args, f"--window={window}",
                       "--out", tmp_path / "bad")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --klines {gbm_klines}: quotes cover [0, 600000] but the schedule "
            f"needs {needs} over --window {window}\n")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("window, code", [
        ("-9223372036854775808:9223372036854775807", 0),
        ("-9223372036854775809:0", 2), ("0:9223372036854775808", 2),
    ])
    def test_window_is_in_the_int64_range(self, window, code):
        result = merged(["sweep-blocktime", f"--window={window}"])
        assert result[0] == code
        if code:
            assert result[1].startswith("--window must be") and "int64" in result[1]

    def test_timestamp_beyond_int64_names_file_and_line(self, tmp_path, capsys):
        klines = tmp_path / "k.csv"
        klines.write_text("1000,2.0,2,2,2,1\n99999999999999999999,2.0,2,2,2,1\n")
        code = run_cli("simulate-arb", "--klines", klines, "--fee-bps", 30,
                       "--interval-ms", 1000, "--out", tmp_path / "bad")
        assert code == 2
        assert f"{klines}:2: bad timestamp_ms" in capsys.readouterr().err


    def test_block_second_beyond_int64_milliseconds(self, tmp_path, gbm_klines, capsys):
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("block_number,timestamp_s\n1,12\n2,9223372036854776\n")
        code = run_cli("simulate-arb", "--klines", gbm_klines, "--blocks", blocks,
                       "--fee-bps", 30, "--out", tmp_path / "bad")
        assert code == 2
        err = capsys.readouterr().err
        assert f"{blocks}:3: bad timestamp_s" in err and "Traceback" not in err

    def test_cell_over_the_csv_field_limit(self, tmp_path, capsys):
        # loadtxt rejects the open cell, and the row parser's csv.reader refuses it
        klines = tmp_path / "k.csv"
        klines.write_text('1000,2.0,2,2,2,1\n2000,"' + "x" * 200_000 + '",2,2,2,1\n')
        code = run_cli("simulate-arb", "--klines", klines, "--fee-bps", 30,
                       "--interval-ms", 1000, "--out", tmp_path / "bad")
        assert code == 2
        err = capsys.readouterr().err
        assert f"{klines}:2: unreadable row" in err and "Traceback" not in err

    @pytest.mark.parametrize("per_block", [[], ["--per-block"]])
    def test_block_number_going_back_names_file_and_line(self, tmp_path, capsys, per_block):
        swaps = tmp_path / "swaps.csv"
        swaps.write_text("5,1000,X,5.0,0.003,2000.0,1e6\n4,2000,Y,5.0,0.003,2000.0,1e6\n"
                         "5,3000,X,5.0,0.003,2000.0,1e6\n")
        code = run_cli("fees", "--swaps", swaps, "--position-liquidity", 500, *per_block,
                       "--out", tmp_path / "bad")
        assert code == 2
        err = capsys.readouterr().err
        assert f"{swaps}:2: block numbers decreasing: 4 after 5" in err and "Traceback" not in err

    @pytest.mark.parametrize("liquidity", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("swaps", ["header", "fixture"])
    def test_position_liquidity_not_finite_and_positive(self, tmp_path, capsys, liquidity,
                                                        swaps):
        path = FIXTURE
        if swaps == "header":
            path = tmp_path / "swaps.csv"
            path.write_text("block_number,timestamp_ms,input_token,amount_in,fee_rate,"
                            "post_swap_price,post_swap_liquidity\n")
        code = run_cli("fees", "--swaps", path, f"--position-liquidity={liquidity}",
                       "--out", tmp_path / "bad")
        assert code == 2
        err = capsys.readouterr().err
        assert "--position-liquidity" in err and "Traceback" not in err
        assert not (tmp_path / "bad" / "manifest.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, option, name", [
        ("simulate-arb", "--concentration-k", "--concentration-k"),
        ("fees", "--concentration-k", "--concentration-k"),
        ("compare", "--concentration-k", "--concentration-k"),
        ("simulate-arb", "--initial-price", "--initial-price"),
        ("sweep-blocktime", "--initial-price", "--initial-price"),
        ("simulate-arb", "--initial-reserve-x", "--initial-reserve-x"),
        ("sweep-fee", "--initial-reserve-x", "--initial-reserve-x"),
        ("synth-gbm", "--mu", "mu"), ("synth-gbm", "--price0", "price0"),
    ])
    def test_non_finite_option_names_it(self, tmp_path, gbm_klines, capsys, command, option,
                                        name, value):
        args = {
            "simulate-arb": ["--klines", gbm_klines, "--fee-bps", 30, "--interval-ms", 2000],
            "fees": ["--swaps", FIXTURE, "--position-liquidity", 500],
            "compare": ["--klines", gbm_klines, "--swaps", FIXTURE, "--fee-bps", 30,
                        "--interval-ms", 2000, "--position-liquidity", 500],
            "sweep-blocktime": ["--klines", gbm_klines, "--fee-bps", 30,
                                "--intervals-ms", "1000,2000"],
            "sweep-fee": ["--klines", gbm_klines, "--interval-ms", 2000],
            "synth-gbm": ["--sigma", 0.5, "--step-ms", 1000, "--horizon-ms", 10_000],
        }[command]
        capsys.readouterr()
        assert run_cli(command, *args, f"{option}={value}", "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must") and "Traceback" not in err
        assert not (tmp_path / "bad" / "manifest.json").exists()

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_initial_reserve_not_positive_names_it(self, tmp_path, gbm_klines, capsys, value):
        assert run_cli("simulate-arb", "--klines", gbm_klines, "--fee-bps", 30,
                       "--interval-ms", 2000, f"--initial-reserve-x={value}",
                       "--out", tmp_path / "bad") == 2
        assert capsys.readouterr().err.startswith("error: --initial-reserve-x must")
        assert not (tmp_path / "bad" / "manifest.json").exists()

    @pytest.mark.parametrize("feed", ["quotes", "klines"])
    @pytest.mark.parametrize("price, reserve_x, named", [
        ("1e200", "1e200", "times --initial-price 1e+200 gives a Y reserve of inf"),
        ("1e-200", "1e-200", "times --initial-price 1e-200 gives a Y reserve of 0.0"),
        (None, "1e308", "times 2.0, the --{feed} mid at 1000, gives a Y reserve of inf"),
    ])
    def test_initial_reserve_y_out_of_range_names_the_flags(self, tmp_path, capsys, feed,
                                                            price, reserve_x, named):
        path = self.two_row_feed(tmp_path, feed)
        given = ["--initial-price", price] if price else []
        assert run_cli("simulate-arb", f"--{feed}", path, "--interval-ms", 1000, "--fee-bps", 30,
                       *given, "--initial-reserve-x", reserve_x, "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --initial-reserve-x") and "Traceback" not in err
        assert named.format(feed=feed) in err
        assert not (tmp_path / "bad" / "manifest.json").exists()

    @pytest.mark.parametrize("prices, reserve_x, named", [
        (("2.0", "2.1"), "1e160",
         "--initial-reserve-x 1e+160 times 2.0, the --klines mid at 1000, gives a Y reserve "
         "of 2e+160 and a reserve product of inf; the product must be finite and positive"),
        (("2.0", "2.1"), "1e-320",
         "--initial-reserve-x 1e-320 times 2.0, the --klines mid at 1000, gives a Y reserve "
         "of 2e-320 and a reserve product of 0.0; the product must be finite and positive"),
        (("1e200", "1.1e200"), None, "the trade at price 1.1e+200 overflows against reserves"),
    ], ids=["product-inf", "product-zero", "trade-overflow"])
    def test_pool_arithmetic_out_of_range_exits_2(self, tmp_path, capsys, prices, reserve_x,
                                                   named):
        # losses are scale-invariant, so an overflow is the pool's scale, not zero loss
        klines = tmp_path / "k.csv"
        klines.write_text(f"1000,{prices[0]},2,2,2,1\n2000,{prices[1]},2,2,2,1\n")
        given = ["--initial-reserve-x", reserve_x] if reserve_x else []
        assert run_cli("simulate-arb", "--klines", klines, "--interval-ms", 1000, "--fee-bps", 30,
                       *given, "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and "Traceback" not in err
        assert not (tmp_path / "bad" / "manifest.json").exists()

    @pytest.mark.parametrize("initial_price", [None, "2"], ids=["mid", "initial-price"])
    @pytest.mark.parametrize("feed", ["quotes", "klines"])
    @pytest.mark.parametrize("blocks, needs", [
        ("1,0\n2,2\n", "[0, 2000]"), ("1,1\n2,3\n", "[1000, 3000]"),
    ], ids=["starts-before", "ends-after"])
    @pytest.mark.parametrize("command, args", [
        ("simulate-arb", []), ("compare", ["--swaps", FIXTURE, "--position-liquidity", 500]),
    ], ids=["simulate-arb", "compare"])
    def test_blocks_outside_the_feed_get_the_coverage_message(
            self, tmp_path, capsys, command, args, blocks, needs, feed, initial_price):
        # checked where the schedule is made, before the pool is priced at its start
        path = self.two_row_feed(tmp_path, feed)
        blocks_path = tmp_path / "blocks.csv"
        blocks_path.write_text(blocks)
        given = ["--initial-price", initial_price] if initial_price else []
        assert run_cli(command, f"--{feed}", path, "--blocks", blocks_path, "--fee-bps", 30,
                       *given, *args, "--out", tmp_path / "bad") == 2
        assert capsys.readouterr().err == (
            f"error: --{feed} {path}: quotes cover [1000, 2000] but the schedule needs "
            f"{needs}\n")
        assert not (tmp_path / "bad").exists()

    def test_klines_block_outside_the_window_needs_no_cover(self, tmp_path, gbm_klines):
        # the klines cover [0, 600000]; the block at 700 s lies outside --window, as for quotes
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("".join(f"{t},{o},{o}\n" for t, o, *_ in
                                  (line.split(",") for line in
                                   gbm_klines.read_text().splitlines()[1:])))
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("block_number,timestamp_s\n1,12\n2,24\n3,36\n4,48\n5,700\n")
        tables = []
        for kind, feed in (("klines", gbm_klines), ("quotes", quotes)):
            assert run_cli("simulate-arb", f"--{kind}", feed, "--blocks", blocks,
                           "--fee-bps", 0, "--window", "0:60000", "--out", tmp_path / kind) == 0
            tables.append((tmp_path / kind / "losses.csv").read_bytes())
        assert tables[0] == tables[1]
        assert tables[0].count(b"\n") == 5  # the header and the blocks at 12 to 48 s


@pytest.mark.parametrize("command", ["simulate-arb", "compare"])
def test_blocks_file_parsed_once(tmp_path, monkeypatch, command):
    import lvrsim.cli

    calls = []
    original = lvrsim.cli.load_block_timestamps

    def counting(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(lvrsim.cli, "load_block_timestamps", counting)
    klines = TestCompare().write_inputs(tmp_path)
    blocks = tmp_path / "blocks.csv"
    blocks.write_text("block_number,timestamp_s\n1,1672531212\n2,1672531224\n3,1672531248\n")
    extra = ["--swaps", FIXTURE, "--position-liquidity", 500] if command == "compare" else []
    assert run_cli(command, "--klines", klines, "--blocks", blocks, "--fee-bps", 30,
                   "--out", tmp_path / "out", *extra) == 0
    assert len(calls) == 1


class TestFeedStep:
    """Each input is read once and recorded; --window limits a --blocks schedule."""

    WINDOW = "3600000:7200000"

    @pytest.fixture()
    def feed(self, tmp_path):
        """A 2 h GBM path as klines and as quotes, 12 s blocks, and the blocks in WINDOW."""
        for fmt in ("klines", "quotes"):
            assert run_cli("synth-gbm", "--sigma", 0.8, "--step-ms", 1000,
                           "--horizon-ms", 7_200_000, "--seed", 3, "--price0", 2000,
                           "--format", fmt, "--out", tmp_path / "synth") == 0
        seconds = range(0, 7_201, 12)
        blocks, inside = tmp_path / "blocks.csv", tmp_path / "blocks_in_window.csv"
        blocks.write_text("".join(f"{i},{t}\n" for i, t in enumerate(seconds)))
        inside.write_text("".join(f"{i},{t}\n" for i, t in enumerate(seconds)
                                  if 3_600 <= t <= 7_200))
        return {"klines": tmp_path / "synth" / "gbm_klines.csv",
                "quotes": tmp_path / "synth" / "gbm_quotes.csv",
                "blocks": blocks, "inside": inside}

    @staticmethod
    def extra(command):
        return ["--swaps", FIXTURE, "--position-liquidity", 500] if command == "compare" else []

    @pytest.mark.parametrize("command", ["simulate-arb", "compare"])
    def test_quotes_with_blocks_records_blocks_parsed_once(self, tmp_path, monkeypatch,
                                                           feed, command):
        import lvrsim.cli

        calls = []
        original = lvrsim.cli.load_block_timestamps

        def counting(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(lvrsim.cli, "load_block_timestamps", counting)
        out = tmp_path / "out"
        assert run_cli(command, "--quotes", feed["quotes"], "--blocks", feed["blocks"],
                       "--fee-bps", 30, "--out", out, *self.extra(command)) == 0
        assert len(calls) == 1
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        digest = hashlib.sha256(feed["blocks"].read_bytes()).hexdigest()
        assert inputs[str(feed["blocks"])]["sha256"] == digest

    @pytest.mark.parametrize("command, files, rest", [
        ("synth-gbm", [], ["--sigma", 0.5, "--step-ms", 1000, "--horizon-ms", 10_000]),
        ("simulate-arb", ["--quotes", "--blocks"], ["--fee-bps", 30]),
        ("fees", ["--swaps"], []),
        ("compare", ["--klines", "--blocks", "--swaps"], ["--fee-bps", 30]),
        ("sweep-blocktime", ["--klines"], ["--fee-bps", 30, "--intervals-ms", "12000,24000"]),
        ("sweep-fee", ["--quotes"], ["--interval-ms", 12_000]),
    ], ids=["synth-gbm", "simulate-arb-quotes-blocks", "fees", "compare-klines-blocks",
            "sweep-blocktime-klines", "sweep-fee-quotes"])
    def test_manifest_inputs_are_the_file_options_given(self, tmp_path, feed, command, files,
                                                        rest):
        paths = {"--swaps": FIXTURE, **{f"--{name}": path for name, path in feed.items()}}
        out = tmp_path / "out"
        given = [arg for flag in files for arg in (flag, paths[flag])]
        assert run_cli(command, *given, *rest, "--out", out) == 0
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs.keys() == {str(paths[flag]) for flag in files}
        for flag in files:
            digest = hashlib.sha256(paths[flag].read_bytes()).hexdigest()
            assert inputs[str(paths[flag])] == {"sha256": digest,
                                                "bytes": paths[flag].stat().st_size}

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("source", ["klines", "quotes"])
    @pytest.mark.parametrize("command, grid", [("sweep-fee", ["--interval-ms", 12_000]),
                                               ("sweep-blocktime", ["--fee-bps", 30])],
                             ids=["sweep-fee", "sweep-blocktime"])
    def test_sweep_takes_no_blocks(self, tmp_path, capsys, feed, command, grid, source, given):
        args = [command, f"--{source}", feed[source], *grid, "--out", tmp_path / "out"]
        if given == "flag":
            with pytest.raises(SystemExit) as exit_:
                run_cli(*args, "--blocks", feed["blocks"])
            assert exit_.value.code == 2
            assert "unrecognized arguments: --blocks" in capsys.readouterr().err
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"blocks": str(feed["blocks"])}))
            assert run_cli(*args, "--config", config) == 2
            assert capsys.readouterr().err == (
                f"error: config file {config}: {command} has no option 'blocks'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate-arb", "compare"])
    def test_window_limits_block_schedule(self, tmp_path, feed, command):
        results = []
        for name, blocks, window in (("windowed", feed["blocks"], ["--window", self.WINDOW]),
                                     ("inside", feed["inside"], [])):
            out = tmp_path / name
            assert run_cli(command, "--klines", feed["klines"], "--blocks", blocks,
                           "--fee-bps", 30, "--out", out, *window, *self.extra(command)) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            results.append((manifest["results"]["total_relative_loss"],
                            manifest["results"].get("n_events"),
                            manifest["parameters"].get("n_instants")))
        assert results[0] == results[1]
        assert results[0][0] > 0

    @pytest.mark.parametrize("command", ["simulate-arb", "compare"])
    @pytest.mark.parametrize("source", ["klines", "quotes"])
    def test_header_only_blocks_names_blocks(self, tmp_path, capsys, feed, command, source):
        blocks, out = tmp_path / "header_only.csv", tmp_path / "out"
        blocks.write_text("block_number,timestamp_s\n")
        assert run_cli(command, f"--{source}", feed[source], "--blocks", blocks, "--fee-bps", 30,
                       "--out", out, *self.extra(command)) == 2
        assert capsys.readouterr().err == f"error: --blocks {blocks} holds no data rows\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate-arb", "compare"])
    @pytest.mark.parametrize("source", ["klines", "quotes"])
    def test_window_holding_no_block_names_both(self, tmp_path, capsys, feed, command, source):
        out = tmp_path / "out"
        assert run_cli(command, f"--{source}", feed[source], "--blocks", feed["blocks"],
                       "--window", "1:11999", "--fee-bps", 30, "--out", out,
                       *self.extra(command)) == 2
        assert capsys.readouterr().err == "error: --window 1:11999 holds none of the --blocks\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate-arb", "compare"])
    def test_blocks_with_interval_rejected(self, tmp_path, capsys, feed, command):
        assert run_cli(command, "--klines", feed["klines"], "--blocks", feed["blocks"],
                       "--interval-ms", 4000, "--fee-bps", 30, "--out", tmp_path / "out",
                       *self.extra(command)) == 2
        err = capsys.readouterr().err
        assert "--blocks" in err and "--interval-ms" in err


class TestColumnWriter:
    """_write_table gives the bytes of the per-cell rule it replaced."""

    @staticmethod
    def per_cell(value) -> str:
        if isinstance(value, (float, np.floating)):
            return "" if math.isnan(value) else repr(float(value))
        return str(int(value))

    def expected(self, header, rows) -> bytes:
        lines = [",".join(header)] + [",".join(map(self.per_cell, row)) for row in rows]
        return ("\n".join(lines) + "\n").encode()

    def test_bytes_match_per_cell_rule(self, tmp_path):
        n = 2 * _CHUNK_ROWS + 1
        rng = np.random.default_rng(0)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1]
        floats[:7] = special
        floats[_CHUNK_ROWS - 3:_CHUNK_ROWS + 4] = special  # across a chunk boundary
        floats[-1] = math.nan
        ints = 2**53 + 1 + np.arange(n, dtype=np.int64) * 1_000_003
        ints[1::2] *= -1
        path = tmp_path / "table.csv"
        _write_table(path, [{"schema_version": SCHEMA_VERSION, "x": floats, "n": ints,
                             "volume": 0.0}])
        rows = [(SCHEMA_VERSION, f, k, 0.0) for f, k in zip(floats, ints)]
        assert path.read_bytes() == self.expected(["schema_version", "x", "n", "volume"], rows)

    def test_runs_of_equal_values_match_per_cell_rule(self, tmp_path):
        n = 3 * _CHUNK_ROWS
        other_nan = np.frombuffer(np.uint64(0x7FF8_0000_0000_0001).tobytes(), np.float64)[0]
        signs = np.zeros(n)
        signs[:8] = [-0.0, 0.0, 0.0, -0.0, math.nan, other_nan, other_nan, math.nan]
        assert len(set(signs[4:8].view(np.int64).tolist())) == 2  # two NaN payloads
        signs[_CHUNK_ROWS - 5:_CHUNK_ROWS + 5] = 7.5  # a run across a chunk boundary
        events = np.zeros(n)  # the shape of losses.csv: single events in a long 0.0 run
        events[[0, 17, _CHUNK_ROWS - 1, _CHUNK_ROWS, n - 1]] = [1e-3, 2.5e-7, 0.1, 0.2, 3e-9]
        cumulative = 1.0 - np.cumprod(1.0 - events)  # constant between events
        path = tmp_path / "table.csv"
        _write_table(path, [{"signs": signs, "events": events, "cumulative": cumulative}])
        rows = list(zip(signs, events, cumulative))
        assert path.read_bytes() == self.expected(["signs", "events", "cumulative"], rows)
        assert path.read_bytes().count(b"\n-0.0,") == 2

    def test_header_only_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        _write_table(path, [{"schema_version": SCHEMA_VERSION, "timestamp_ms":
                             np.array([], dtype=np.int64), "loss": np.array([])}])
        assert path.read_bytes() == b"schema_version,timestamp_ms,loss\n"

    def test_unequal_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="unequal"):
            _write_table(path, [{"a": np.zeros(3), "b": np.zeros(2), "c": 1}])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rows", [5_000, 100_000])
    def test_traced_peak_is_one_chunk_of_text(self, tmp_path, rows):
        """comparison.csv's columns: the writer holds one chunk's cells, whatever the length."""
        rng = np.random.default_rng(3)
        fees = rng.uniform(0, 1e-4, rows)
        losses = np.where(np.arange(rows) % 2, rng.uniform(0, 1e-4, rows), 0.0)
        ratio = np.divide(fees, losses, out=np.full(rows, math.nan), where=losses != 0)
        columns = {"schema_version": SCHEMA_VERSION,
                   "timestamp_ms": 1_700_000_000_000 + 6000 * np.arange(rows, dtype=np.int64),
                   "fee_return": fees, "loss_return": losses,
                   "cumulative_difference": np.cumsum(fees - losses), "trailing_ratio": ratio}
        tracemalloc.start()
        try:
            _write_table(tmp_path / "comparison.csv", [columns])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "comparison.csv").read_bytes().count(b"\n") == rows + 1
        assert peak <= 1 << 20


def merged(argv) -> tuple[int, object]:
    """(0, the merged options) of a command line, or (2, the InputError text)."""
    try:
        return 0, _merge_config(build_parser().parse_args([str(a) for a in argv]))
    except InputError as exc:
        return 2, str(exc)


class TestOptionDeclarations:
    """Each option is converted and checked by its OPTIONS entry, from a flag or a config key."""

    VALID = {
        "--pair": "ETH-USDC", "--out": "out", "--seed": "7", "--quotes": "q.csv",
        "--klines": "k.csv", "--blocks": "b.csv", "--window": "0:60000",
        "--initial-price": "2000", "--initial-reserve-x": "3", "--fee-bps": "30",
        "--interval-ms": "12000", "--concentration-k": "2", "--swaps": "s.csv",
        "--position-liquidity": "500", "--ratio-window-days": "7",
        "--intervals-ms": "1000,4000", "--fees-bps": "10,30", "--fit-range": "1:100",
        "--sigma": "0.5", "--mu": "0.1", "--step-ms": "1000", "--horizon-ms": "60000",
        "--price0": "2000", "--start-ms": "5", "--format": "quotes",
    }
    # options whose config value is a JSON string only: a JSON number is no path or label
    TEXT = {"--pair", "--out", "--quotes", "--klines", "--blocks", "--swaps", "--window",
            "--fit-range", "--format"}
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, _, flags) in COMMANDS.items() for flag in flags
        if flag not in ("--config", "--per-block", "--extended")])
    def test_config_value_converts_as_the_flag_text(self, tmp_path, command, flag):
        key = flag[2:].replace("-", "_")
        config = tmp_path / "cfg.json"
        for text in (self.VALID[flag], "", "nan", "2.5", "true", "-1"):
            value = text
            if flag not in self.TEXT:
                try:
                    value = json.loads(text)
                except ValueError:
                    pass
            config.write_text(json.dumps({key: value}))
            by_flag = merged([command, f"{flag}={text}"])
            by_config = merged([command, "--config", config])
            assert by_flag[0] == by_config[0], (text, by_flag, by_config)
            if by_flag[0] == 0:
                assert repr(by_flag[1]) == repr(by_config[1]), text
            else:
                assert by_flag[1].startswith(f"{flag} must be "), by_flag
                assert by_config[1].startswith(f"config file {config}: {key} must be ")
        assert merged([command, f"{flag}={self.VALID[flag]}"])[0] == 0

    @pytest.mark.parametrize("command, flag", [("fees", "--per-block"),
                                               ("sweep-blocktime", "--extended")])
    def test_switch_flag_is_json_true(self, tmp_path, command, flag):
        key = flag[2:].replace("-", "_")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: True}))
        assert merged([command, flag]) == merged([command, "--config", config])
        assert merged([command])[1][key] is False

    def test_defaults_filled_in(self):
        code, cfg = merged(["compare"])
        assert code == 0
        assert (cfg["concentration_k"], cfg["position_liquidity"], cfg["initial_reserve_x"],
                cfg["ratio_window_days"], cfg["per_block"], cfg["pair"]) == (1.0, 1.0, 1.0,
                                                                              30.0, False, "")
        assert cfg["fee_bps"] is None and cfg["window"] is None
        assert merged(["sweep-fee"])[1]["fees_bps"] == [10.0, 20.0, 30.0, 50.0, 100.0]

    @pytest.mark.parametrize("key, value", [("fee_bps", True), ("interval_ms", 2500.7),
                                            ("seed", 1.9), ("concentration_k", False)])
    def test_config_value_the_flag_text_would_reject(self, tmp_path, gbm_klines, capsys,
                                                      key, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"klines": str(gbm_klines), "fee_bps": 30,
                                      "interval_ms": 2000, key: value}))
        assert run_cli("simulate-arb", "--config", config, "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config}: {key} must be ")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("command, args, empty", [
        ("simulate-arb", ["--fee-bps", 30, "--interval-ms", 2000], "--window"),
        ("simulate-arb", ["--fee-bps", 30, "--interval-ms", 2000], "--blocks"),
        ("simulate-arb", ["--fee-bps", 30, "--interval-ms", 2000], "--out"),
        ("sweep-blocktime", ["--fee-bps", 30], "--intervals-ms"),
        ("sweep-fee", ["--interval-ms", 2000], "--fit-range"),
        ("sweep-fee", ["--interval-ms", 2000], "--fees-bps"),
    ])
    def test_empty_option_is_given(self, tmp_path, gbm_klines, capsys, monkeypatch, command,
                                   args, empty):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        out = [] if empty == "--out" else ["--out", tmp_path / "bad"]
        assert run_cli(command, "--klines", gbm_klines, *args, *out, f"{empty}=") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {empty} must be ") and "got ''" in err
        assert not (tmp_path / "bad").exists() and not any(work.iterdir())

    def test_quotes_and_klines_exclude_each_other(self, tmp_path, gbm_klines, capsys):
        assert run_cli("simulate-arb", "--quotes", gbm_klines, "--klines", tmp_path / "none.csv",
                       "--fee-bps", 30, "--interval-ms", 2000, "--out", tmp_path / "bad") == 2
        assert capsys.readouterr().err == "error: give --quotes or --klines, not both\n"
        assert not (tmp_path / "bad" / "manifest.json").exists()

    @pytest.mark.parametrize("command, flag, grid, shown", [
        ("sweep-fee", "--fees-bps", "10,20000", "20000"),
        ("sweep-fee", "--fees-bps", "30,10", "30,10"),
        ("sweep-fee", "--fees-bps", "10,10", "10,10"),
        ("sweep-fee", "--fees-bps", "10,nan", "nan"),
        ("sweep-fee", "--fees-bps", "-5,10", "-5"),
        ("sweep-blocktime", "--intervals-ms", "4000,1000", "4000,1000"),
        ("sweep-blocktime", "--intervals-ms", "0,1000", "0,1000"),
        ("sweep-blocktime", "--intervals-ms", "-1000,1000", "-1000"),
    ])
    def test_grid_fault_names_its_flag_in_its_unit(self, tmp_path, gbm_klines, capsys, command,
                                                   flag, grid, shown):
        other = ["--interval-ms", 2000] if command == "sweep-fee" else ["--fee-bps", 30]
        assert run_cli(command, "--klines", gbm_klines, *other, f"{flag}={grid}",
                       "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be strictly increasing") and shown in err
        assert not (tmp_path / "bad").exists()

    def test_ratio_window_past_the_float_range_exits_2(self, tmp_path, gbm_klines, capsys):
        # finite in days, but not in milliseconds
        assert run_cli("compare", "--klines", gbm_klines, "--swaps", FIXTURE, "--fee-bps", 30,
                       "--interval-ms", 2000, "--position-liquidity", 500,
                       "--ratio-window-days", "1e305", "--out", tmp_path / "bad") == 2
        assert capsys.readouterr().err.startswith("error: --ratio-window-days must be finite")

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_lists_the_declared_options(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        flags = COMMANDS[command][2]
        assert set(re.findall(r"^  (?:-h, )?(--[\w-]+)", text, re.M)) == {"--help", *flags}
        for flag in flags:
            if isinstance(OPTIONS[flag].get("default"), str) and OPTIONS[flag]["default"]:
                assert f"(default {OPTIONS[flag]['default']})" in " ".join(text.split())


class TestDamagedGzipInput:
    @pytest.mark.parametrize("damage", ["plain text", "cut at 3000 bytes"])
    def test_exits_2_naming_the_file(self, tmp_path, gbm_klines, capsys, damage):
        text = gbm_klines.read_bytes()
        path = tmp_path / "k.csv.gz"
        path.write_bytes(text if damage == "plain text" else gzip.compress(text)[:3000])
        assert run_cli("simulate-arb", "--klines", path, "--fee-bps", 30, "--interval-ms", 2000,
                       "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:") and "unreadable gzip data" in err
        assert "Traceback" not in err
        assert not (tmp_path / "bad" / "manifest.json").exists()


class TestExit2NotExit1:
    """Input the declared option checks pass, but the program cannot use: exit 2, no manifest."""

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be a non-negative integer, got -1"),
        ("--start-ms", "99999999999999999999999",
         "start_ms must fit in int64 milliseconds, got 99999999999999999999999"),
        ("--start-ms", "9223372036854770000",
         "start_ms + horizon_ms must fit in int64 milliseconds, got 9223372036854780000"),
    ], ids=["negative-seed", "start-past-int64", "end-past-int64"])
    def test_synth_gbm_value_outside_its_range(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "out"
        assert run_cli("synth-gbm", "--sigma", 0.5, "--step-ms", 1000, "--horizon-ms", 10_000,
                       "--seed", 1, flag, value, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_synth_gbm_step_count_limit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulation, "MAX_STEPS", 10)
        args = ("synth-gbm", "--sigma", 0.5, "--step-ms", 1000)
        assert run_cli(*args, "--horizon-ms", 10_000, "--out", tmp_path / "ten") == 0
        out = tmp_path / "out"
        assert run_cli(*args, "--horizon-ms", 11_000, "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: --horizon-ms 11000 / --step-ms 1000 is 11 steps; at most 10 are generated\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("simulate-arb", ("--fee-bps", 0, "--interval-ms", 1)),
        ("compare", ("--swaps", FIXTURE, "--fee-bps", 0, "--interval-ms", 1)),
        ("sweep-blocktime", ("--fee-bps", 0, "--intervals-ms", "1,2,3")),
        ("sweep-fee", ("--interval-ms", 1)),
    ])
    def test_fixed_grid_of_more_than_max_steps_instants(self, tmp_path, capsys, command,
                                                        flags):
        """A 1 ms grid over quotes spanning 1e15 ms is rejected before any replay, which
        would visit every instant."""
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("timestamp_ms,bid,ask\n0,2000,2000\n1,2000,2000\n"
                          "1000000000000000,2000,2000\n")
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run_cli(command, "--quotes", quotes, *flags, "--out", out) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: {flags[-2]} 1 over the window 0:1000000000000000 is 1000000000000001 "
            "instants; at most 1000000000 are replayed\n")
        assert not out.exists()

    def test_synth_gbm_horizon_past_any_array(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("synth-gbm", "--sigma", 0.5, "--step-ms", 1,
                       "--horizon-ms", 4_000_000_000_000_000_000, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --horizon-ms 4000000000000000000 / --step-ms 1 is ")
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
    def test_out_that_is_a_file(self, tmp_path, capsys, below):
        existing = tmp_path / "taken"
        existing.write_text("kept\n")
        out = existing / below if below else existing
        assert run_cli("synth-gbm", "--sigma", 0.5, "--step-ms", 1000, "--horizon-ms", 10_000,
                       "--out", out) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {existing} is not a directory\n"
        assert existing.read_text() == "kept\n"

    @pytest.mark.parametrize("feed", ["--quotes", "--klines"])
    def test_feed_that_is_not_utf8(self, tmp_path, capsys, feed):
        path = tmp_path / "feed.csv"
        path.write_bytes(b"\xff\xfe,1,2\n")
        out = tmp_path / "out"
        assert run_cli("simulate-arb", feed, path, "--fee-bps", 30, "--interval-ms", 1000,
                       "--out", out) == 2
        assert capsys.readouterr().err == f"error: {path}:1: not UTF-8 text: byte 0xff\n"
        assert not out.exists()
