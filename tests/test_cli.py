import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lvrsim.cli import _CHUNK_ROWS, SCHEMA_VERSION, _write_table, main

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


def manifest_results(out):
    return json.loads((out / "manifest.json").read_text())["results"]


def sweep_totals(out):
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    return [(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows]


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

    def test_zero_interval_names_the_interval(self, tmp_path, gbm_klines, capsys):
        code = run_cli("simulate-arb", "--klines", gbm_klines, "--fee-bps", 30,
                       "--interval-ms", 0, "--out", tmp_path / "bad")
        assert code == 2
        assert "interval must be positive" in capsys.readouterr().err

    def test_concentration_taking_whole_position(self, tmp_path, gbm_klines, capsys):
        code = run_cli("simulate-arb", "--klines", gbm_klines, "--fee-bps", 10,
                       "--interval-ms", 2000, "--concentration-k", 1e9,
                       "--out", tmp_path / "bad")
        assert code == 2
        assert "leaves its range" in capsys.readouterr().err

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
        # the quote sends the file to the row parser, whose csv.reader refuses the cell
        klines = tmp_path / "k.csv"
        klines.write_text('1000,2.0,2,2,2,1\n2000,2.0,2,2,2,"' + "x" * 200_000 + '"\n')
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

    @pytest.mark.parametrize("feed", ["quotes", "klines"])
    def test_feed_starting_after_the_first_block_names_it(self, tmp_path, capsys, feed):
        path = self.two_row_feed(tmp_path, feed)
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("1,0\n2,2\n")
        assert run_cli("simulate-arb", f"--{feed}", path, "--blocks", blocks, "--fee-bps", 30,
                       "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --{feed} {path}: ") and "Traceback" not in err
        assert "instant 0; the first is at 1000" in err
        assert not (tmp_path / "bad" / "manifest.json").exists()


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

    @pytest.mark.parametrize("command, grid", [("sweep-fee", ["--interval-ms", 12_000]),
                                               ("sweep-blocktime", ["--fee-bps", 30])],
                             ids=["sweep-fee", "sweep-blocktime"])
    def test_sweep_rejects_blocks_with_quotes(self, tmp_path, capsys, feed, command, grid):
        assert run_cli(command, "--quotes", feed["quotes"], "--blocks", feed["blocks"],
                       *grid, "--out", tmp_path / "out") == 2
        assert "--blocks" in capsys.readouterr().err

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
        _write_table(path, {"schema_version": SCHEMA_VERSION, "x": floats, "n": ints,
                            "volume": 0.0})
        rows = [(SCHEMA_VERSION, f, k, 0.0) for f, k in zip(floats, ints)]
        assert path.read_bytes() == self.expected(["schema_version", "x", "n", "volume"], rows)

    def test_header_only_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        _write_table(path, {"schema_version": SCHEMA_VERSION, "timestamp_ms":
                            np.array([], dtype=np.int64), "loss": np.array([])})
        assert path.read_bytes() == b"schema_version,timestamp_ms,loss\n"

    def test_unequal_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="unequal"):
            _write_table(path, {"a": np.zeros(3), "b": np.zeros(2), "c": 1})
        assert list(tmp_path.iterdir()) == []
