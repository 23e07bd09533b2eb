import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_feeds import _klines, _swaps, write

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
    _sha256,
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


@pytest.fixture(scope="module")
def compare_inputs(tmp_path_factory):
    """100 000 swaps in blocks of 3, one a second, and 10 000 klines of 1 s."""
    root = tmp_path_factory.mktemp("compare-inputs")
    return (write(root, "swaps.csv", _swaps(TestCompareMemory.ROWS)),
            write(root, "klines.csv", _klines(TestCompareMemory.ROWS // 10)))


class TestCompareMemory:
    """Traced peak of an in-process compare on 100 000 swaps in blocks of 3, in bytes per
    swap. Fee attribution reads the swaps a chunk of 16 384 at a time, so the run never
    holds them: it holds the ledger (16 bytes a return) and one chunk, and compare drops the
    ledger once its fees are on the report's timeline. Per swap, the run peaks while
    comparison.csv is written: the report's 40 bytes a row and a block of cells (49.6 in
    all); per block, at 24.8, in attribution or the writer. With the loaded swaps' 56-byte
    records held through attribution, it peaked at 78-83 and 68; the whole-array
    attribution before that, at 91 and 86."""

    ROWS = 100_000

    @pytest.mark.parametrize("per_block, bound", [(False, 52), (True, 27)],
                             ids=["per-swap", "per-block"])
    def test_peak_bytes_per_swap(self, tmp_path, compare_inputs, per_block, bound):
        swaps, klines = compare_inputs
        args = ["compare", "--swaps", swaps, "--klines", klines, "--interval-ms", 12000,
                "--fee-bps", 5, "--position-liquidity", 500, "--concentration-k", 2,
                "--out", tmp_path / "run"] + (["--per-block"] if per_block else [])
        tracemalloc.start()
        try:
            assert run_cli(*args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["fill_counters"] == {} and manifest["results"]["sum_fee_returns"] > 0
        assert peak / self.ROWS <= bound


class TestHashPoint:
    """Traced bytes still held when the manifest hashes its first input. hashlib is imported
    there, and OpenSSL's libcrypto loads about 3.5 MB onto the heap the run leaves resident,
    so main lets each table go as soon as it is written: the hash runs on the run's low-water
    heap, whatever the row count. While main held the tables to the end, compare's report
    (five timeline-length columns) was still there, 2.9 MiB on the 125 000 swaps of the
    benchmark's fees_compare inputs, and the load set compare's peak RSS."""

    BOUND = 1 << 20

    RUNS = {
        "compare-per-swap": lambda swaps, klines: [
            "compare", "--swaps", swaps, "--klines", klines, "--interval-ms", 12000,
            "--fee-bps", 5, "--position-liquidity", 500, "--concentration-k", 2],
        "compare-per-block": lambda swaps, klines: [
            "compare", "--swaps", swaps, "--klines", klines, "--interval-ms", 12000,
            "--fee-bps", 5, "--position-liquidity", 500, "--per-block"],
        "fees": lambda swaps, klines: ["fees", "--swaps", swaps, "--position-liquidity", 500],
        "simulate-arb": lambda swaps, klines: [
            "simulate-arb", "--klines", klines, "--interval-ms", 1000, "--fee-bps", 0],
        "sweep-blocktime": lambda swaps, klines: [
            "sweep-blocktime", "--klines", klines, "--fee-bps", 0,
            "--intervals-ms", "1000,2000,4000,12000"],
    }

    @pytest.mark.parametrize("run", RUNS)
    def test_inputs_are_hashed_after_the_tables_go(self, tmp_path, compare_inputs, run):
        args, held, sha256 = self.RUNS[run](*compare_inputs), [], cli._sha256

        def probe(path):
            if not held:
                held.append(tracemalloc.get_traced_memory()[0])
            return sha256(path)

        out = tmp_path / "run"
        with mock.patch.object(cli, "_sha256", probe):
            tracemalloc.start()
            try:
                assert run_cli(*args, "--out", out) == 0
            finally:
                tracemalloc.stop()
        assert held and held[0] <= self.BOUND, held
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert sorted(inputs) == sorted(set(compare_inputs) & set(args))
        for path, entry in inputs.items():
            data = Path(path).read_bytes()
            assert entry == {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


SWAP_HEADER = ("block_number,timestamp_ms,input_token,amount_in,fee_rate,post_swap_price,"
               "post_swap_liquidity\n")


def _held_ledger(path, position_liquidity, per_block):
    """The ledger and swap count of the whole file loaded first, then attributed: what the
    streamed fee attribution of fees and compare must give."""
    swaps = lvrsim.load_swap_records(path)
    return lvrsim.attribute_fees(swaps, position_liquidity, per_block=per_block), len(swaps)


def _outputs(out: Path):
    """The tables and the manifest of a run, but for its creation time."""
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["created_utc"]
    return {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}, manifest


class TestStreamedFees:
    """fees and compare read the swaps 16 384 rows at a time through one handle, and attribute
    each chunk as it comes. Their tables and manifests are those of attribute_fees on
    load_swap_records, bit for bit: at the chunk edges, where a block of 3 swaps spans each,
    and on every form of file."""

    CHUNK = 16_384

    @staticmethod
    def runs(tmp_path, swaps, klines, per_block, held=False):
        """fees' and compare's outputs on the swaps; held: through _held_ledger."""
        runs = {}
        for command in ("fees", "compare"):
            out = tmp_path / f"{command}-{'held' if held else 'streamed'}"
            feed = (["--klines", klines, "--interval-ms", 60_000, "--fee-bps", 5]
                    if command == "compare" else [])
            with (mock.patch.object(cli, "_attributed_file", _held_ledger) if held
                  else contextlib.nullcontext()):
                assert run_cli(command, "--swaps", swaps, *feed, "--position-liquidity", 500,
                               "--concentration-k", 2, "--out", out,
                               *(["--per-block"] if per_block else [])) == 0
            runs[command] = _outputs(out)
        return runs

    def check(self, tmp_path, swaps, per_block, rows):
        klines = write(tmp_path, "klines.csv", _klines(2_000))
        streamed = self.runs(tmp_path, swaps, klines, per_block)
        assert streamed == self.runs(tmp_path, swaps, klines, per_block, held=True)
        fees_manifest = streamed["fees"][1]
        assert fees_manifest["fill_counters"] == {"n_records": rows}
        assert fees_manifest["results"]["n_periods"] == (-(-rows // 3) if per_block else rows)

    @pytest.mark.parametrize("per_block", [False, True], ids=["per-swap", "per-block"])
    @pytest.mark.parametrize("rows", [CHUNK - 1, CHUNK, CHUNK + 1,
                                      2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1])
    def test_chunk_edges(self, tmp_path, rows, per_block):
        text = _swaps(rows)
        blocks = [line.split(",", 1)[0] for line in text.splitlines()]
        assert all(blocks[edge - 1] == blocks[edge] for edge in (self.CHUNK, 2 * self.CHUNK)
                   if edge < rows)  # a block spans each chunk edge inside the file
        self.check(tmp_path, write(tmp_path, "swaps.csv", text), per_block, rows)

    @staticmethod
    def quoted(text):
        return re.sub(r"[^,\n]+", lambda cell: f'"{cell[0]}"', text)

    @staticmethod
    def on_line(text, line, change):
        """text with change applied to its line (1-based)."""
        lines = text.splitlines(keepends=True)
        lines[line - 1] = change(lines[line - 1])
        return "".join(lines)

    FORMS = {
        "header": lambda text: SWAP_HEADER + text,
        "quoted": quoted.__func__,
        "header-quoted": lambda text: SWAP_HEADER + TestStreamedFees.quoted(text),
        # a quoted cell over two lines in each chunk, the first ending chunk 1
        "cell-over-two-lines": lambda text: TestStreamedFees.on_line(
            TestStreamedFees.on_line(text, 16_384, lambda line: re.sub(
                r",([^,]*)\n$", r',"\1\n"\n', line)),
            20_000, lambda line: re.sub(",([XY]),", r',"\1\n",', line)),
        # np.loadtxt rejects the second chunk, which the row parser reads
        "whitespace-line": lambda text: TestStreamedFees.on_line(
            text, 20_000, lambda line: "  \n" + line),
        "underscore": lambda text: TestStreamedFees.on_line(
            text, 20_000, lambda line: line.replace(",0.003,", ",0.00_3,")),
        # np.loadtxt misreads a padded token, which the row parser strips
        "padded-token": lambda text: TestStreamedFees.on_line(
            text, 20_000, lambda line: re.sub(",([XY]),", r", \1 ,", line)),
    }

    @pytest.mark.parametrize("per_block", [False, True], ids=["per-swap", "per-block"])
    @pytest.mark.parametrize("form", [*FORMS, "gz", "header-gz"])
    def test_file_forms(self, tmp_path, form, per_block):
        rows = 2 * self.CHUNK + 1
        text = _swaps(rows)
        if form.endswith("gz"):
            path = tmp_path / "swaps.csv.gz"
            path.write_bytes(gzip.compress(
                ((SWAP_HEADER if form == "header-gz" else "") + text).encode()))
            swaps = str(path)
        else:
            swaps = write(tmp_path, "swaps.csv", self.FORMS[form](text))
            assert self.FORMS[form](text) != text
        self.check(tmp_path, swaps, per_block, rows)


class TestStreamedFeesFaults:
    """A row fault anywhere in the swaps file wins over an attribution fault at an earlier
    swap, as when the whole file was loaded before attribution: exit 2, the row's line, and
    no --out. 20 000 swaps in blocks of 3, read in two chunks; the position is 500."""

    ROWS = 20_000
    ATTRIBUTION_FAULTS = {
        "liquidity": "position liquidity 500.0 exceeds pool in-range liquidity 100.0",
        "overflow": "the fees of the swaps overflow the float range: returns must be finite "
                    "and > -1",
    }

    def run(self, tmp_path, command, per_block, earlier, last=None):
        """command's exit code on swaps with an attribution fault in the first chunk and, if
        last is given, a row fault on the last line."""
        rows = [line.split(",") for line in _swaps(self.ROWS).splitlines()]
        if earlier == "liquidity":
            rows[11][6] = "100.0"  # the end of the fourth block, below the position
        else:
            rows[10][3:6] = ["1e308", "0.003", "1e300"]  # an X fee past the float range in Y
        if last == "bad-cell":
            rows[-1][3] = "abc"
        elif last == "timestamp-back":
            rows[-1][1] = "1"
        path = write(tmp_path, "swaps.csv", "".join(",".join(row) + "\n" for row in rows))
        feed = (["--klines", write(tmp_path, "klines.csv", _klines(2_000)), "--interval-ms",
                 60_000, "--fee-bps", 5] if command == "compare" else [])
        code = run_cli(command, "--swaps", path, *feed, "--position-liquidity", 500,
                       "--out", tmp_path / "out", *(["--per-block"] if per_block else []))
        assert not (tmp_path / "out").exists()
        return code, path

    @pytest.mark.parametrize("command", ["fees", "compare"])
    @pytest.mark.parametrize("per_block", [False, True], ids=["per-swap", "per-block"])
    @pytest.mark.parametrize("earlier", ATTRIBUTION_FAULTS)
    @pytest.mark.parametrize("last, message", [
        ("bad-cell", "{path}:20000: bad amount_in: 'abc'"),
        ("timestamp-back", "{path}:20000: timestamps decreasing: 1 after 19998000"),
    ])
    def test_row_fault_wins(self, tmp_path, capsys, command, per_block, earlier, last,
                            message):
        code, path = self.run(tmp_path, command, per_block, earlier, last)
        assert (code, capsys.readouterr().err) == (2, f"error: {message.format(path=path)}\n")

    @pytest.mark.parametrize("command", ["fees", "compare"])
    @pytest.mark.parametrize("per_block", [False, True], ids=["per-swap", "per-block"])
    @pytest.mark.parametrize("earlier", ATTRIBUTION_FAULTS)
    def test_attribution_fault_without_a_row_fault(self, tmp_path, capsys, command, per_block,
                                                   earlier):
        code, _ = self.run(tmp_path, command, per_block, earlier)
        assert (code, capsys.readouterr().err) == (
            2, f"error: {self.ATTRIBUTION_FAULTS[earlier]}\n")


class TestScheduleMemory:
    """What _make_schedule holds beyond the loaded blocks and klines, in traced bytes, grows
    by less than 0.1 byte a block from 100 000 to 400 000 blocks: a --window is a slice of
    the blocks, the fills are counted a chunk of blocks at a time, and the schedule holds
    the blocks unchecked, as the loader has checked them. A block lands each second, a
    kline every other second, so every other block is a fill."""

    @staticmethod
    def held(tmp_path, n, window):
        blocks = 1000 * np.arange(n, dtype=np.int64)
        stamps = 2000 * np.arange(n // 2 + 1, dtype=np.int64)
        quotes = quotes_from_prices(lvrsim.PriceSeries(stamps, 2000.0 + 0.01 * stamps))
        blocks_file = write(tmp_path, "blocks.csv", "")  # read through the patch below
        cfg = {"blocks": blocks_file, "interval_ms": None,
               "window": (1000, 1000 * (n - 2)) if window else None}
        with mock.patch.object(cli, "load_block_timestamps", lambda path: blocks):
            tracemalloc.start()
            try:
                schedule, counters = cli._make_schedule(cfg, quotes, {"feed_kind": "mid"})
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert schedule.n_instants == counters["blocks"]
        assert counters == {"block_price_fills": (n - 2) // 2 if window else n // 2,
                            "blocks": n - 2 if window else n}
        return peak

    @pytest.mark.parametrize("window", [False, True], ids=["all-blocks", "window"])
    def test_held_bytes_do_not_grow_with_the_blocks(self, tmp_path, window):
        growth = self.held(tmp_path, 400_000, window) - self.held(tmp_path, 100_000, window)
        assert growth / 300_000 < 0.1


def test_hashing_reads_through_one_small_buffer(tmp_path):
    """_sha256 reads a file into one reused 64 KiB buffer, not a new block per read."""
    path = tmp_path / "input.bin"
    data = np.random.default_rng(0).bytes(4 << 20)
    path.write_bytes(data)
    _sha256(str(path))  # hashlib imported before tracing
    tracemalloc.start()
    try:
        digest = _sha256(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == {"sha256": hashlib.sha256(data).hexdigest(), "bytes": 4 << 20}
    assert peak <= 128 << 10


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


def test_logging_loads_at_the_first_warning(tmp_path):
    """Importing the cli does not load logging; the loader imports it where it warns, so a
    quotes file with a repeated millisecond still logs its one warning (through logging's
    last-resort handler, as the installed script has no other)."""
    path = write(tmp_path, "q.csv", "0,99,101\n5,99,100\n5,98,102\n6,1,2\n")
    root = str(Path(lvrsim.__file__).resolve().parent.parent)
    code = ("import sys, numpy; before = set(sys.modules); import lvrsim.cli; "
            "print('logging' in set(sys.modules) - before); "
            "print(len(lvrsim.cli.load_quote_updates(sys.argv[1])))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code, path], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout.split() == ["False", "3"]
    assert result.stderr == f"{path}: dropped 1 earlier duplicate-timestamp updates\n"


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

    @pytest.mark.parametrize("feed", ["klines", "quotes"])
    @pytest.mark.parametrize("command, args, grid", [
        ("sweep-blocktime", ["--fee-bps", 5, "--intervals-ms", "250,1000"],
         "the --intervals-ms grid's interval 250ms"),
        ("sweep-blocktime", ["--fee-bps", 5, "--extended"], "the --extended grid's interval 100ms"),
        ("sweep-blocktime", ["--fee-bps", 5], "the default --intervals-ms grid's interval 100ms"),
        ("sweep-fee", ["--interval-ms", 500], "--interval-ms 500ms"),
    ], ids=["intervals-ms", "extended", "default", "sweep-fee"])
    def test_resolution_fault_names_the_grid_and_the_feed(self, tmp_path, gbm_klines, capsys,
                                                          feed, command, args, grid):
        """The sweeps' resolution rule is checked before the pool is priced (at 1e300 here,
        which would overflow its reserves), and names the grid's flag and the feed's."""
        path = gbm_klines
        if feed == "quotes":
            path = tmp_path / "quotes.csv"
            rows = (line.split(",") for line in Path(gbm_klines).read_text().splitlines())
            path.write_text("".join(f"{stamp},{mid},{mid}\n" for stamp, mid, *_ in rows))
        out = tmp_path / "bad"
        assert run_cli(command, f"--{feed}", path, *args, "--initial-reserve-x", "1e300",
                       "--initial-price", "1e300", "--out", out) == 2
        assert capsys.readouterr().err == (f"error: {grid} is below the --{feed} feed's "
                                           "quote-update resolution of 1000ms\n")
        assert not out.exists()

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

    def simulate(self, tmp_path, klines, fee_bps, interval_ms, window=WINDOW):
        out = tmp_path / f"sim_{fee_bps}_{interval_ms}"
        assert run_cli("simulate-arb", "--klines", klines, "--fee-bps", fee_bps,
                       "--interval-ms", interval_ms, *(["--window", window] if window else []),
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

    def test_zero_fee_sweep_rows_equal_simulate_arb_over_several_blocks(self, tmp_path):
        """5000 s of 100 ms klines: 50 001 instants at 100 ms and 20 001 at 250 ms, more
        than the 16 384 a replay block holds, and at zero fee each new quote trades."""
        feed = tmp_path / "synth100ms"
        assert run_cli("synth-gbm", "--sigma", 0.8, "--step-ms", 100,
                       "--horizon-ms", 5_000_000, "--seed", 32, "--price0", 2000,
                       "--out", feed) == 0
        out = tmp_path / "dense"
        assert run_cli("sweep-blocktime", "--klines", feed / "gbm_klines.csv", "--fee-bps", 0,
                       "--intervals-ms", "100,250", "--out", out) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        assert min(int(row.split(",")[4]) for row in rows) > 16_384  # events per point
        for interval, total in sweep_totals(out):
            assert total > 0
            assert total == self.simulate(tmp_path, feed / "gbm_klines.csv", 0, int(interval),
                                          window=None)


@st.composite
def replay_cases(draw) -> dict:
    """A small feed (klines or quotes, 1 s or 100 ms steps), a fee, an interval at or
    above the feed's step, a window inside it or none, and an initial price, some of
    them degenerate."""
    step = draw(st.sampled_from([1000, 100]))
    n = draw(st.integers(2, 60))
    span = (n - 1) * step
    window = None
    if draw(st.booleans()):
        start = draw(st.integers(0, span - 1))
        window = (start, draw(st.integers(start + 1, span)))
    return {"feed": draw(st.sampled_from(["klines", "quotes"])), "step": step, "n": n,
            "seed": draw(st.integers(0, 2**16)),
            "fee_bps": draw(st.sampled_from([0.0, 5.0, 30.0])),
            "interval_ms": draw(st.integers(step, 5 * step)), "window": window,
            "initial_price": draw(st.sampled_from([None, 1e-300, 1e300, 1e-6, 2100.0]))}


class TestSubcommandsAgree:
    """simulate-arb, compare, sweep-blocktime and sweep-fee replay one feed alike: at one
    fee, interval, window and pool, each gives the same total loss, bit for bit, or each
    exits 2 with the same message."""

    @staticmethod
    def outcomes(directory: Path, case: dict) -> dict:
        """Each subcommand's exit code, stderr, and total loss at the case's fee and interval
        (None on exit 2), run in-process on the case's feed."""
        rng = np.random.default_rng(case["seed"])
        mids = 2000.0 * np.exp(np.cumsum(rng.normal(0.0, 0.002, case["n"])))
        stamps = np.arange(case["n"]) * case["step"]
        path = directory / f"{case['feed']}.csv"
        if case["feed"] == "klines":
            rows = [f"{t},{m!r},{m!r},{m!r},{m!r},0" for t, m in zip(stamps, mids.tolist())]
            path.write_text("timestamp_ms,open,high,low,close,volume\n" + "\n".join(rows))
        else:
            rows = [f"{t},{m * 0.9998!r},{m * 1.0002!r}" for t, m in zip(stamps, mids.tolist())]
            path.write_text("timestamp_ms,bid,ask\n" + "\n".join(rows))
        fee, interval = case["fee_bps"], case["interval_ms"]
        common = [f"--{case['feed']}", path]
        if case["window"] is not None:
            common += ["--window", "{}:{}".format(*case["window"])]
        if case["initial_price"] is not None:
            common += ["--initial-price", repr(case["initial_price"])]
        runs = {  # each sweep's grid starts at the case's value, and goes on past it
            "simulate-arb": ["--fee-bps", fee, "--interval-ms", interval],
            "compare": ["--fee-bps", fee, "--interval-ms", interval, "--swaps", FIXTURE],
            "sweep-blocktime": ["--fee-bps", fee, "--intervals-ms", f"{interval},{2 * interval}"],
            "sweep-fee": ["--interval-ms", interval, "--fees-bps", f"{fee!r},{fee + 10!r}"],
        }
        outcomes = {}
        for command, args in runs.items():
            out, err = directory / command, io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run_cli(command, *common, *args, "--out", out)
            total = None
            if code == 0:
                results = manifest_results(out)
                total = (results["total_losses"][0] if "total_losses" in results
                         else results["total_relative_loss"])
            outcomes[command] = (code, err.getvalue(), total)
        return outcomes

    def check(self, case: dict) -> None:
        with tempfile.TemporaryDirectory() as directory:
            outcomes = self.outcomes(Path(directory), case)
        assert len(set(outcomes.values())) == 1, outcomes
        assert outcomes["simulate-arb"][0] in (0, 2)

    @settings(max_examples=60)
    @given(replay_cases())
    # the first arbitrage, from a pool priced at 1e-300, rounds to a loss of 1
    @example({"feed": "klines", "step": 1000, "n": 60, "seed": 1, "fee_bps": 30.0,
              "interval_ms": 1000, "window": None, "initial_price": 1e-300})
    def test_same_total_or_same_error(self, case):
        self.check(case)

    @pytest.mark.xfail(strict=True, reason="simulate-arb and compare replay a grid finer than "
                       "the quotes' resolution, which both sweeps reject")
    def test_grid_finer_than_the_quotes(self):
        self.check({"feed": "klines", "step": 1000, "n": 60, "seed": 1, "fee_bps": 5.0,
                    "interval_ms": 100, "window": None, "initial_price": None})


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

    @pytest.mark.parametrize("fit_range", ["nan:inf", "5000:1000", "1000:1000", "-inf:4000"])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_fit_range_must_be_finite_and_increasing(self, tmp_path, gbm_klines, capsys,
                                                     fit_range, form):
        args = ["--klines", gbm_klines, "--fee-bps", 30, "--intervals-ms", "1000,2000,4000"]
        if form == "flag":
            args.append(f"--fit-range={fit_range}")  # a leading - is no flag here
            named = "--fit-range"
        else:
            config = self.write_config(tmp_path, fit_range=fit_range)
            args += ["--config", config]
            named = f"config file {config}: fit_range"
        assert run_cli("sweep-blocktime", *args, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"error: {named} must be a fit range LO:HI with finite LO < HI, got '{fit_range}'\n")
        assert not (tmp_path / "out").exists()

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
    @pytest.mark.parametrize("price, reserve_x, message", [
        ("1e200", "1e200", "reserve_y must be positive, got inf; the pool is priced at "
                           "--initial-reserve-x 1e+200 times --initial-price 1e+200"),
        ("1e-200", "1e-200", "reserve_y must be positive, got 0.0; the pool is priced at "
                             "--initial-reserve-x 1e-200 times --initial-price 1e-200"),
        (None, "1e308", "reserve_y must be positive, got inf; the pool is priced at "
                        "--initial-reserve-x 1e+308 times 2.0, the --{feed} mid at 1000"),
    ])
    def test_initial_reserve_y_out_of_range_names_the_flags(self, tmp_path, capsys, feed,
                                                            price, reserve_x, message):
        """PoolState's fault, then the options that priced the pool."""
        path = self.two_row_feed(tmp_path, feed)
        given = ["--initial-price", price] if price else []
        assert run_cli("simulate-arb", f"--{feed}", path, "--interval-ms", 1000, "--fee-bps", 30,
                       *given, "--initial-reserve-x", reserve_x, "--out", tmp_path / "bad") == 2
        assert capsys.readouterr().err == f"error: {message.format(feed=feed)}\n"
        assert not (tmp_path / "bad" / "manifest.json").exists()

    @pytest.mark.parametrize("prices, reserve_x, named", [
        (("2.0", "2.1"), "1e160",
         "reserve product must be finite and positive, got inf; the pool is priced at "
         "--initial-reserve-x 1e+160 times 2.0, the --klines mid at 1000\n"),
        (("2.0", "2.1"), "1e-320",
         "reserve product must be finite and positive, got 0.0; the pool is priced at "
         "--initial-reserve-x 1e-320 times 2.0, the --klines mid at 1000\n"),
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


class TestFeedStep:
    """--window limits a --blocks schedule, and the sweeps take no --blocks."""

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
    def test_window_holding_no_block_names_both(self, tmp_path, capsys, feed, command, source):
        out = tmp_path / "out"
        assert run_cli(command, f"--{source}", feed[source], "--blocks", feed["blocks"],
                       "--window", "1:11999", "--fee-bps", 30, "--out", out,
                       *self.extra(command)) == 2
        assert capsys.readouterr().err == "error: --window 1:11999 holds none of the --blocks\n"
        assert not out.exists()



FEED_COMMANDS = ("simulate-arb", "compare", "sweep-blocktime", "sweep-fee")
# the swaps are read by the fee attribution that reads them a chunk at a time, whose first
# argument is their path
LOADERS = {"--klines": "load_klines", "--quotes": "load_quote_updates",
           "--blocks": "load_block_timestamps", "--swaps": "_attributed_file"}


def _assembly_cases() -> list:
    """(command, input flags given, other arguments) for every subcommand and every
    feed/schedule combination it takes."""
    rest = {"simulate-arb": ["--fee-bps", 30], "compare": ["--fee-bps", 30],
            "sweep-blocktime": ["--fee-bps", 30, "--intervals-ms", "12000,24000"],
            "sweep-fee": ["--interval-ms", 12_000]}
    cases = [("synth-gbm", [], ["--sigma", 0.5, "--step-ms", 1000, "--horizon-ms", 10_000]),
             ("fees", ["--swaps"], [])]
    for command in FEED_COMMANDS:
        swaps = ["--swaps"] if command == "compare" else []
        for feed in ("--klines", "--quotes"):
            if command.startswith("sweep"):
                cases.append((command, [feed], rest[command]))
            else:
                cases.append((command, [feed, "--blocks", *swaps], rest[command]))
                cases.append((command, [feed, *swaps], [*rest[command], "--interval-ms", 12_000]))
    return cases


ASSEMBLY_CASES = _assembly_cases()


class TestRunAssembly:
    """simulate-arb, compare and the sweeps are assembled alike: the same errors in the same
    order, the same feed parameters in the manifest, and each input file parsed once and
    recorded."""

    @pytest.fixture()
    def files(self, tmp_path, gbm_klines):
        """10 min of 1 s prices as klines and as quotes, a block every 12 s inside them, and
        a header-only file of each kind."""
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("".join(f"{t},{o},{o}\n" for t, o, *_ in
                                  (line.split(",") for line in
                                   gbm_klines.read_text().splitlines()[1:])))
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("block_number,timestamp_s\n"
                          + "".join(f"{t // 12},{t}\n" for t in range(12, 600, 12)))
        empty = {"klines": "timestamp_ms,open,high,low,close,volume\n",
                 "quotes": "timestamp_ms,bid,ask\n", "blocks": "block_number,timestamp_s\n"}
        for name, header in empty.items():
            (tmp_path / f"empty_{name}.csv").write_text(header)
        return {"klines": gbm_klines, "quotes": quotes, "blocks": blocks, "swaps": FIXTURE,
                **{f"empty_{name}": tmp_path / f"empty_{name}.csv" for name in empty}}

    @pytest.mark.parametrize("source", ["klines", "quotes"])
    @pytest.mark.parametrize("given, message", [
        (["--interval-ms", 12_000], "a price feed is required: give --quotes or --klines"),
        (["--{source}", "{feed}"], "a schedule is required: give --blocks or --interval-ms"),
        (["--{source}", "{feed}", "--blocks", "{blocks}", "--interval-ms", 12_000],
         "give --blocks or --interval-ms, not both"),
        (["--{source}", "{feed}", "--blocks", "{empty_blocks}"],
         "--blocks {empty_blocks} holds no data rows"),
        (["--{source}", "{feed}", "--blocks", "{empty_blocks}", "--interval-ms", 12_000],
         "--blocks {empty_blocks} holds no data rows"),
        (["--{source}", "{empty_feed}", "--blocks", "{blocks}"],
         "feed file {empty_feed} holds no data rows"),
    ], ids=["no-feed", "no-schedule", "both-schedules", "empty-blocks",
            "empty-blocks-and-interval", "empty-feed"])
    @pytest.mark.parametrize("command", ["simulate-arb", "compare"])
    def test_assembly_errors(self, tmp_path, capsys, files, command, source, given, message):
        names = {**files, "source": source, "feed": files[source],
                 "empty_feed": files[f"empty_{source}"]}
        swaps = ["--swaps", FIXTURE, "--position-liquidity", 500] if command == "compare" else []
        out = tmp_path / "out"
        assert run_cli(command, *(str(arg).format(**names) for arg in given), "--fee-bps", 30,
                       *swaps, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message.format(**names)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source, kind", [("klines", "mid"), ("quotes", "bid_ask")])
    @pytest.mark.parametrize("command, rest, keys", [
        ("simulate-arb", ["--fee-bps", 30, "--interval-ms", 12_000],
         ["concentration_k", "fee", "feed_kind", "interval_ms", "n_instants", "pair",
          "quote_resolution_ms", "seed"]),
        ("compare", ["--fee-bps", 30, "--interval-ms", 12_000, "--swaps", FIXTURE],
         ["concentration_k", "fee", "feed_kind", "pair", "position_liquidity",
          "quote_resolution_ms", "ratio_window_ms", "seed"]),
        ("sweep-blocktime", ["--fee-bps", 30, "--intervals-ms", "12000,24000"],
         ["fee", "feed_kind", "fit", "intervals_ms", "pair", "quote_resolution_ms", "seed",
          "window"]),
        ("sweep-fee", ["--interval-ms", 12_000],
         ["feed_kind", "fees_bps", "fit", "interval_ms", "pair", "quote_resolution_ms", "seed",
          "window"]),
    ], ids=FEED_COMMANDS)
    def test_manifest_parameter_keys(self, tmp_path, files, command, rest, keys, source, kind):
        out = tmp_path / "out"
        assert run_cli(command, f"--{source}", files[source], *rest, "--out", out) == 0
        parameters = json.loads((out / "manifest.json").read_text())["parameters"]
        assert sorted(parameters) == keys
        assert parameters["feed_kind"] == kind
        assert parameters["quote_resolution_ms"] == 1000

    @pytest.mark.parametrize("command, inputs, rest", ASSEMBLY_CASES,
                             ids=[" ".join([command, *inputs])
                                  for command, inputs, _ in ASSEMBLY_CASES])
    def test_each_input_parsed_once_and_recorded(self, tmp_path, files, command, inputs,
                                                 rest):
        # the loaders are patched on lvrsim.cli, where the benchmark's tracer patches them too
        paths = {flag: files[flag[2:]] for flag in inputs}
        out = tmp_path / "out"
        with contextlib.ExitStack() as stack:
            loaders = {flag: stack.enter_context(mock.patch.object(cli, name,
                                                                   wraps=getattr(cli, name)))
                       for flag, name in LOADERS.items()}
            assert run_cli(command, *(arg for item in paths.items() for arg in item), *rest,
                           "--out", out) == 0
        for flag, loader in loaders.items():
            expected = [(str(paths[flag]),)] if flag in paths else []
            assert [call.args[:1] for call in loader.call_args_list] == expected, flag
        recorded = json.loads((out / "manifest.json").read_text())["inputs"]
        assert recorded == {str(path): {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                                        "bytes": path.stat().st_size}
                            for path in paths.values()}

    @pytest.mark.parametrize("given", ["flags", "config"])
    def test_intervals_and_extended_exclude_each_other(self, tmp_path, capsys, files, given):
        out = tmp_path / "out"
        if given == "flags":
            args = ["--intervals-ms", "12000,24000", "--extended"]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"intervals_ms": [12000, 24000], "extended": True}))
            args = ["--config", config]
        assert run_cli("sweep-blocktime", "--klines", files["klines"], "--fee-bps", 30, *args,
                       "--out", out) == 2
        assert capsys.readouterr().err == "error: give --intervals-ms or --extended, not both\n"
        assert not out.exists()

    def test_extended_false_leaves_the_intervals_given(self, tmp_path, files):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"intervals_ms": [12000, 24000], "extended": False}))
        out = tmp_path / "out"
        assert run_cli("sweep-blocktime", "--klines", files["klines"], "--fee-bps", 30,
                       "--config", config, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["intervals_ms"] == [12000, 24000]


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

    KS = [math.nan, math.inf, -math.inf, 0.999, 1.0, 3.0, 1e308]

    @pytest.mark.parametrize("k", KS)
    def test_concentration_flag_and_scaling_accept_alike(self, k):
        """--concentration-k and concentration_scale run one rule, pool._is_concentration,
        each with its own message."""
        code, flag = merged(["fees", f"--concentration-k={k!r}"])
        try:
            lvrsim.concentration_scale([0.5], k)
            library = None
        except InputError as exc:
            library = str(exc)
        assert (code == 0, library is None) == (k in (1.0, 3.0, 1e308),) * 2
        if code:
            assert flag == f"--concentration-k must be finite and >= 1, got {repr(k)!r}"
            assert library == f"concentration factor must be >= 1, got {k}"

    def test_concentration_rule_holds_of_a_column(self):
        ks = np.array(self.KS)
        assert lvrsim.pool._is_concentration(ks).tolist() == [
            bool(lvrsim.pool._is_concentration(k)) for k in self.KS]

    # NaN, the infinities, both zeros, the largest float below 1e4 bps and 1e4 bps
    FEES_BPS = [math.nan, math.inf, -math.inf, -0.0, 0.0, math.nextafter(1e4, 0.0), 1e4]

    @pytest.mark.parametrize("bps", FEES_BPS)
    def test_fee_flags_and_pool_accept_alike(self, bps):
        """--fee-bps, --fees-bps and PoolState's fee run one rule, pool._is_fee, on bps / 1e4,
        each with its own message."""
        code, flag = merged(["simulate-arb", f"--fee-bps={bps!r}"])
        grid_code, grid_flag = merged(["sweep-fee", f"--fees-bps={bps!r}"])
        try:
            PoolState(1.0, 1.0, bps / 1e4)
            library = None
        except InputError as exc:
            library = str(exc)
        accepted = 0.0 <= bps < 1e4
        assert (code == 0, grid_code == 0, library is None) == (accepted,) * 3
        if not accepted:
            assert flag == f"--fee-bps must be in [0, 10000), got {repr(bps)!r}"
            assert grid_flag == ("--fees-bps must be strictly increasing values in [0, 10000), "
                                 f"got {repr(bps)!r}")
            assert library == f"fee must be in [0, 1), got {bps / 1e4}"

    def test_fee_rule_holds_of_a_column(self):
        fees = np.array(self.FEES_BPS) / 1e4
        assert lvrsim.pool._is_fee(fees).tolist() == [
            bool(lvrsim.pool._is_fee(fee)) for fee in fees.tolist()]

    @pytest.mark.parametrize("value", [-(2**63) - 1, -(2**63), 2**63 - 1, 2**63])
    def test_int64_flag_loader_and_generator_accept_alike(self, tmp_path, value):
        """--window, a feed's timestamp_ms cell and gbm_generate's stamps run one rule,
        pool._in_int64, each with its own message: at both int64 edges and one past each."""
        window = (value, 2**63 - 1) if value < 0 else (-(2**63), value)  # the other end fits
        code, flag = merged(["simulate-arb", "--window={}:{}".format(*window)])
        path = tmp_path / "k.csv"
        path.write_text(f"{value},2,2,2,2,1\n")
        stamps = (value, value + 1000) if value < 0 else (value - 1000, value)  # first, last
        outcomes = []
        for make in (lambda: load_klines(str(path)),
                     lambda: gbm_generate(0.5, 0.0, 1000, 1000, seed=1, start_ms=stamps[0])):
            try:
                make()
                outcomes.append(None)
            except InputError as exc:
                outcomes.append(str(exc))
        accepted = -(2**63) <= value < 2**63
        assert (code == 0, *(outcome is None for outcome in outcomes)) == (accepted,) * 3
        if not accepted:
            assert flag == ("--window must be START_MS:END_MS with START_MS < END_MS, both in "
                            "the int64 range, got '{}:{}'".format(*window))
            assert outcomes[0] == f"{path}:1: bad timestamp_ms: '{value}' does not fit in 64 bits"
            name = "start_ms" if value < 0 else "start_ms + horizon_ms"
            assert outcomes[1] == f"{name} must fit in int64 milliseconds, got {value}"

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

    @pytest.mark.parametrize("command", ["fees", "compare"])
    @pytest.mark.parametrize("cause", ["concentration-k", "swaps"])
    def test_fee_growth_past_the_float_range(self, tmp_path, gbm_klines, capsys, command,
                                             cause):
        """Fee returns whose compounded growth overflows, by the factor or by the swaps'
        own fees, exit 2 naming that cause before anything is written, with no warning."""
        swaps, args = FIXTURE, []
        if cause == "swaps":  # two swaps of 1e300 Y: each return is about 3e289
            lines = FIXTURE.read_text().splitlines(keepends=True)
            for i in (1, 2):
                cells = lines[i].split(",")
                cells[3] = "1e300"
                lines[i] = ",".join(cells)
            swaps = write(tmp_path, "swaps.csv", "".join(lines))
            message = ("the fees of the swaps overflow the float range: "
                       "returns compound to a growth of inf; it must be finite")
        else:
            args = ["--concentration-k", "1e300"]
            message = ("concentration factor 1e+300 scales the fee returns past the float "
                       "range: returns compound to a growth of inf; it must be finite")
        if command == "compare":
            args += ["--klines", gbm_klines, "--fee-bps", 30, "--interval-ms", 12000]
        out = tmp_path / "out"
        assert run_cli(command, "--swaps", swaps, *args, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, args", [
        ("simulate-arb", ["--fee-bps", 30, "--interval-ms", 12000]),
        ("compare", ["--fee-bps", 30, "--interval-ms", 12000, "--swaps", FIXTURE]),
        ("sweep-blocktime", ["--fee-bps", 30, "--intervals-ms", "1000,2000,4000"]),
        ("sweep-fee", ["--interval-ms", 1000]),
    ], ids=["simulate-arb", "compare", "sweep-blocktime", "sweep-fee"])
    def test_replay_loss_of_one_in_every_replaying_subcommand(self, tmp_path, gbm_klines,
                                                               capsys, command, args):
        """The replay rejects a loss of 1 for every subcommand, with one message: it names
        the arbitrage that took the whole position, not the factor, which scales nothing at
        its default of 1, and then the option that priced the pool. The sweeps wrote a total
        loss of 1.0 for every point."""
        out = tmp_path / "out"
        assert run_cli(command, "--klines", gbm_klines, *args, "--initial-price", 1e-300,
                       "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: the first arbitrage, at 0 ms, takes the whole position from the initial "
            "pool: a relative loss of 1.0; the pool is priced at --initial-price 1e-300\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--mu", "1e300", "--sigma 0.5, --mu 1e+300"),
        ("--mu", "-1e300", "--sigma 0.5, --mu -1e+300"),
        ("--sigma", "1e10", "--sigma 10000000000.0, --mu 0.0"),
    ], ids=["mu-overflow", "mu-underflow", "sigma-overflow"])
    def test_synth_gbm_path_past_the_float_range(self, tmp_path, capsys, flag, value, named):
        """numpy's overflow is no warning, and no error without the flags: one line names
        them, also where warnings are errors, as CI's console-script step makes them."""
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("synth-gbm", "--sigma", 0.5, "--step-ms", 1000,
                           "--horizon-ms", 600_000, "--seed", 1, f"{flag}={value}",
                           "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: {named}, --price0 1.0 and --horizon-ms 600000 give a price path past the "
            "float range; it must be finite and positive\n")
        assert not out.exists()


# --- the exit contract, as a property over OPTIONS ---------------------------------

# what every option is tried with, beside its own edges in EXIT_CONTRACT_VALUES
EDGE_VALUES = [0, 1, -1, 5e-324, 1e300, math.inf, -math.inf, math.nan, -(2**63), 2**63 - 1]
FLOAT_MAX = sys.float_info.max

# each option's values inside its check, at its bounds and just past them; path options
# name the files of exit_contract_files, and --out names a new directory, a path below a
# regular file or nothing
EXIT_CONTRACT_VALUES = {
    "--config": ["missing", "directory", "not-json", "json-list", "unknown-key", "pair-key"],
    "--pair": ["ETH-USDC", ""],
    "--out": ["new", "below-a-file", ""],
    "--seed": [7, 0, -1],
    "--quotes": ["quotes", "", "missing", "directory"],
    "--klines": ["klines", "", "missing", "directory"],
    "--blocks": ["blocks", "", "missing", "directory"],
    "--swaps": ["swaps", "", "missing", "directory"],
    "--window": [(0, 60_000), (0, 1), (1, 1), (1, 0), (-(2**63), 2**63 - 1), (0, 2**63)],
    "--initial-price": [2000.0, 5e-324, FLOAT_MAX, -0.0],
    "--initial-reserve-x": [3.0, 5e-324, FLOAT_MAX, -0.0],
    "--fee-bps": [30.0, 0.0, -5e-324, 9999.999999999998, 10_000.0],
    "--interval-ms": [12_000, 1, 0],
    "--concentration-k": [2.0, 1.0, 0.9999999999999999, FLOAT_MAX],
    "--position-liquidity": [500.0, 5e-324, FLOAT_MAX, 0.0],
    "--per-block": [True, False],
    "--ratio-window-days": [7.0, 1 / 86_400_000, 0.99 / 86_400_000, FLOAT_MAX],
    "--intervals-ms": [[1000, 2000], [1], [0, 1000], [2000, 1000], [1000, 1000]],
    "--extended": [True, False],
    "--fees-bps": [[10.0, 30.0], [0.0], [-5e-324], [9999.999999999998], [10_000.0],
                   [30.0, 10.0]],
    "--fit-range": [(1.0, 100.0), (1.0, 1.0), (100.0, 1.0), (-FLOAT_MAX, FLOAT_MAX)],
    "--sigma": [0.5, 0.0, -5e-324],
    "--mu": [0.1, 0.0],
    "--step-ms": [1000, 1, 0],
    "--horizon-ms": [60_000, 1000, 1500, 0],
    "--price0": [2000.0, 5e-324, -5e-324],
    "--start-ms": [5, -(2**63), 2**63 - 1],
    "--format": ["klines", "quotes", "other"],
}

# a valid run of each command; the drawn option is put in, in place of its either-or partner
EXIT_CONTRACT_BASE = {
    "simulate-arb": {"--klines": "klines", "--fee-bps": 30, "--interval-ms": 12_000},
    "fees": {"--swaps": "swaps", "--position-liquidity": 500},
    "compare": {"--klines": "klines", "--swaps": "swaps", "--fee-bps": 30,
                "--interval-ms": 12_000, "--position-liquidity": 500},
    "sweep-blocktime": {"--klines": "klines", "--fee-bps": 30, "--intervals-ms": [1000, 2000]},
    "sweep-fee": {"--klines": "klines", "--interval-ms": 2000},
    "synth-gbm": {"--sigma": 0.5, "--step-ms": 1000, "--horizon-ms": 60_000},
}
EITHER_OR = {"--quotes": "--klines", "--klines": "--quotes", "--blocks": "--interval-ms",
             "--interval-ms": "--blocks", "--extended": "--intervals-ms",
             "--intervals-ms": "--extended"}


def option_kind(flag: str) -> str:
    """How OPTIONS reads the option: a switch, a pair, a grid, text or a number."""
    spec = OPTIONS[flag]
    if spec.get("argparse", {}).get("action") == "store_const":
        return "switch"
    if spec["type"] is cli._text:
        return "text"
    return {cli._pair: "pair", cli._grid: "grid"}.get(getattr(spec["type"], "func", None),
                                                      "number")


def exit_contract_values(flag: str) -> list:
    """The option's own values, then EDGE_VALUES in its form: alone, in a pair or a grid."""
    kind = option_kind(flag)
    edges = {"pair": [(0, e) for e in EDGE_VALUES] + [(e, 60_000) for e in EDGE_VALUES],
             "grid": [[e] for e in EDGE_VALUES] + [[1000, e] for e in EDGE_VALUES]}
    return EXIT_CONTRACT_VALUES[flag] + ([] if flag == "--out" else edges.get(kind, EDGE_VALUES))


@st.composite
def exit_contract_cases(draw):
    """(command, flag, value, as_config): one option of a command, at one of its values,
    given as a flag or as a config key (--config itself only as a flag)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flag = draw(st.sampled_from(COMMANDS[command][2]))
    value = draw(st.sampled_from(exit_contract_values(flag)))
    return command, flag, value, flag != "--config" and draw(st.booleans())


def flag_text(value) -> str:
    if isinstance(value, tuple):
        return ":".join(map(flag_text, value))
    if isinstance(value, list):
        return ",".join(map(flag_text, value))
    return value if isinstance(value, str) else repr(value)


@pytest.fixture(scope="module")
def exit_contract_files(tmp_path_factory):
    """The inputs the cases name: 2 min of 1 s klines and quotes, 12 s blocks, the swaps
    fixture, config files, a directory; "missing" names no file."""
    root = tmp_path_factory.mktemp("exit-contract")
    mids = 2000.0 * np.exp(np.cumsum(np.random.default_rng(3).normal(0.0, 0.002, 120)))
    files = {"swaps": str(FIXTURE), "missing": str(root / "missing.csv"),
             "directory": str(root)}
    contents = {
        "klines": "".join(f"{1000 * i},{m!r},{m!r},{m!r},{m!r},0\n"
                          for i, m in enumerate(mids.tolist())),
        "quotes": "".join(f"{1000 * i},{m * 0.9998!r},{m * 1.0002!r}\n"
                          for i, m in enumerate(mids.tolist())),
        "blocks": "".join(f"{i},{12 * i}\n" for i in range(1, 10)),
        "not-json": "{", "json-list": "[1]", "unknown-key": '{"nope": 1}',
        "pair-key": '{"pair": "ETH-USDC"}',
    }
    for name, text in contents.items():
        (root / name).write_text(text)
        files[name] = str(root / name)
    return files


class TestExitContract:
    """Every option, at its edges, as a flag or a config key: the run exits 0 with strict
    JSON, no inf or nan cell and nothing on stderr, or exits 2 with one error line naming
    something the user gave, and no --out. Warnings are errors, and MAX_STEPS is cut to
    10**4, so that no grid or synth-gbm path holds more than a few MB."""

    # the words a message names an option by, besides its flag, its key and the key's words
    ALIASES = {"--concentration-k": "concentration factor"}

    @staticmethod
    def run(files: dict, command: str, flag: str, value, as_config: bool) -> tuple:
        """(exit code, stderr, the --out text, the names given, argv, the tables written on
        exit 0) of one case, run in-process."""
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            outs = {"new": work / "new", "below-a-file": Path(files["klines"]) / "out", "": ""}
            options = {key: files.get(v, v) if isinstance(v, str) else v
                       for key, v in EXIT_CONTRACT_BASE[command].items()}
            options.pop(EITHER_OR.get(flag), None)
            options["--out"] = str(work / "out")
            if isinstance(value, str) and option_kind(flag) == "text":
                value = str(outs[value]) if flag == "--out" else files.get(value, value)
            config = {}
            if as_config:
                options.pop(flag, None)
                key = flag[2:].replace("-", "_")
                config[key] = flag_text(value) if isinstance(value, tuple) else value
            else:
                options[flag] = value
            argv = [command]
            for name, given in options.items():
                if option_kind(name) != "switch":
                    argv.append(f"{name}={flag_text(given)}")
                elif given is True:
                    argv.append(name)
            if config:
                (work / "cfg.json").write_text(json.dumps(config))
                argv.append(f"--config={work / 'cfg.json'}")
            # an option given as a flag or a key is named by either, or in words
            given = {**{name: v for name, v in options.items() if v is not False},
                     **{"--" + key.replace("_", "-"): v for key, v in config.items()}}
            names = [str(work / "cfg.json")] * bool(config) + [
                name for flag in given for name in (
                    flag, flag[2:].replace("-", "_"), flag[2:].replace("-", " "),
                    TestExitContract.ALIASES.get(flag, flag))]
            names += [flag_text(v) for flag, v in given.items()  # the files given
                      if option_kind(flag) == "text" and flag_text(v)]
            err, cwd = io.StringIO(), os.getcwd()
            os.chdir(work)  # a relative path among the values stays in the case's directory
            try:
                with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                        mock.patch.object(simulation, "MAX_STEPS", 10**4):
                    warnings.simplefilter("error")
                    code = main(argv)
            finally:
                os.chdir(cwd)
            out = str(options["--out"] if "--out" in options else config["out"])
            written = ({path.name: path.read_text() for path in Path(out).iterdir()}
                       if code == 0 else None)
            return code, err.getvalue(), out, names, argv, written

    def check(self, files: dict, case: tuple) -> None:
        code, err, out, names, argv, written = self.run(files, *case)
        assert code in (0, 2), (argv, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), \
                (argv, err)
            named = [name for name in names
                     if re.search(rf"(?<![\w-]){re.escape(name)}(?![\w])", err)]
            assert named, (argv, err)
            assert not (out and Path(out).exists()), argv
            return
        assert err == "", (argv, err)
        manifest = json.loads(written.pop("manifest.json"),
                              parse_constant=lambda constant: pytest.fail(
                                  f"{argv}: manifest.json holds {constant}"))
        assert manifest["command"] == case[0]
        for name, text in written.items():
            cells = set(text.replace("\n", ",").split(","))
            assert not cells & {"inf", "-inf", "nan"}, (argv, name)

    def test_every_option_is_declared(self):
        assert set(EXIT_CONTRACT_VALUES) == set(OPTIONS)

    @settings(max_examples=500)
    @given(exit_contract_cases())
    def test_exit_0_or_2(self, exit_contract_files, case):
        self.check(exit_contract_files, case)

    @pytest.mark.parametrize("flag, value", [("--initial-price", 5e-324),
                                             ("--initial-price", 1e300),
                                             ("--initial-price", FLOAT_MAX)])
    def test_replay_fault_names_the_pool_option(self, exit_contract_files, flag, value):
        """A pool priced far off the feed fails at its first event, and the replay's fault
        names the option that priced it after its own text."""
        code, err, _, _, argv, _ = self.run(exit_contract_files, "simulate-arb", flag, value,
                                            False)
        assert code == 2, (argv, err)
        assert re.match(r"error: (reserve product must be finite and positive, got |the first "
                        r"arbitrage, at \d+ ms, takes the whole position)", err), (argv, err)
        assert err.endswith(f"; the pool is priced at {flag} {value!r}\n"), (argv, err)

    @pytest.mark.parametrize("flag, value", [("--extended", True), ("--extended", False)])
    def test_grid_below_the_resolution_names_its_flag(self, exit_contract_files, flag, value):
        """The sweeps' resolution rule names the grid by the flag it is from, or as the default
        --intervals-ms grid, and the feed by its flag."""
        code, err, _, _, argv, _ = self.run(exit_contract_files, "sweep-blocktime", flag, value,
                                            False)
        grid = "the --extended grid's" if value else "the default --intervals-ms grid's"
        assert (code, err) == (2, f"error: {grid} interval 100ms is below the --klines feed's "
                                  "quote-update resolution of 1000ms\n"), argv
