"""Command-line entry point: ingestion, simulation, sweeps, report files.

Subcommands: simulate-arb, fees, compare, sweep-blocktime, sweep-fee,
synth-gbm. Options may come from flags or a JSON config file (--config);
flags override file values. Every run writes CSV result tables plus a
manifest.json recording parameters, input hashes, and fill counters.

Exit codes: 0 success, 1 runtime failure, 2 configuration/validation
failure. Result tables are deterministic for a given config and seed; only
the manifest's created_utc field differs between reruns.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FitError, InputError, InsufficientDataError
from .feeds import (
    QuoteSeries,
    _locf_index,
    align_to_blocks,
    load_block_timestamps,
    load_klines,
    load_quote_updates,
    quotes_from_prices,
)
from .fees import PositionLedger, accumulate, attribute_fees, load_swap_records
from .pool import PoolState, concentration_scale
from .simulation import (
    DAY_MS,
    DEFAULT_INTERVALS_MS,
    EXTENDED_INTERVALS_MS,
    BlockSchedule,
    blocktime_sweep,
    fee_sweep,
    fees_vs_losses,
    gbm_generate,
    loglog_slope,
    run_arb_sim,
)

SCHEMA_VERSION = 1


# --- output helpers ---------------------------------------------------------

# rows formatted and written at a time; a whole table is never held as text
_CHUNK_ROWS = 8192


def _atomic_write(path: Path, chunks) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cells(column: np.ndarray) -> list[str]:
    """A float is its shortest repr (NaN an empty cell); anything else its str.

    A float is formatted once per run of bit-identical values (so -0.0 and 0.0,
    or two NaN payloads, are separate runs): loss columns are mostly 0.0.
    """
    if column.dtype.kind != "f":
        return [str(v) for v in column.tolist()]
    bits = column.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([len(bits) > 0], bits[1:] != bits[:-1])))
    texts = ["" if v != v else repr(v) for v in column[starts].tolist()]
    return np.repeat(np.array(texts, dtype=object), np.diff(starts, append=len(bits))).tolist()


def _write_table(path: Path, columns: dict) -> None:
    """CSV of header -> column; a column is an array, or a scalar filling every row."""
    columns = {name: np.asarray(column) for name, column in columns.items()}
    lengths = {len(c) for c in columns.values() if c.ndim}
    if len(lengths) > 1:
        raise ValueError(f"{path.name}: columns of unequal lengths {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0

    def chunks():
        yield ",".join(columns) + "\n"
        for start in range(0, n_rows, _CHUNK_ROWS):
            size = min(_CHUNK_ROWS, n_rows - start)
            cells = [_cells(c[start:start + size]) if c.ndim else _cells(c.reshape(1)) * size
                     for c in columns.values()]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    _atomic_write(path, chunks())


def _sha256(path: str) -> dict:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return {"sha256": digest.hexdigest(), "bytes": os.path.getsize(path)}


def _write_manifest(out_dir: Path, command: str, params: dict, inputs: list[str],
                    counters: dict | None = None, results: dict | None = None) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "command": command,
        "parameters": params,
        "inputs": {name: _sha256(name) for name in inputs},
        "fill_counters": counters or {},
        "results": results or {},
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    _atomic_write(out_dir / "manifest.json", [json.dumps(manifest, indent=2, sort_keys=True)])


# --- config ------------------------------------------------------------------

def _merge_config(args: argparse.Namespace) -> dict:
    """Flags override JSON config-file values; None means 'not given'.

    Each config key must name a flag of the subcommand, and its value goes
    through that flag's declaration in OPTIONS: the same type and choices,
    and only JSON true/false for an on/off flag. JSON null means 'not given'.
    """
    cfg: dict = {}
    if args.config:
        _require_file(args.config)
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                loaded = json.load(handle)
            except json.JSONDecodeError as exc:
                raise InputError(f"bad config file {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise InputError(f"config file {args.config} must hold a JSON object")
        flags = {flag[2:].replace("-", "_"): flag for flag in COMMANDS[args.command][2]}
        for key, value in loaded.items():
            if key not in flags:
                raise InputError(
                    f"config file {args.config}: {args.command} has no option {key!r}"
                )
            if value is not None:
                cfg[key] = _config_value(args.config, key, value, OPTIONS[flags[key]])
    for key, value in vars(args).items():
        if key not in ("config", "command") and value is not None:
            cfg[key] = value
    return cfg


def _config_value(path: str, key: str, value, spec: dict):
    if spec.get("action") == "store_const":
        if not isinstance(value, bool):
            raise InputError(f"config file {path}: {key} must be true or false, got {value!r}")
        return value
    text = (str, list) if key in ("intervals_ms", "fees_bps") else str  # a grid may be a list
    if "type" not in spec and not isinstance(value, text):
        raise InputError(f"config file {path}: {key} must be a JSON string, got {value!r}")
    try:
        value = spec.get("type", lambda v: v)(value)
    except (TypeError, ValueError):
        raise InputError(f"config file {path}: bad {key} value {value!r}") from None
    if "choices" in spec and value not in spec["choices"]:
        raise InputError(
            f"config file {path}: {key} must be one of {', '.join(spec['choices'])}, "
            f"got {value!r}"
        )
    return value


def _require_file(path: str) -> str:
    if not path or not os.path.isfile(path):
        raise InputError(f"input file does not exist: {path}")
    return path


def _require(cfg: dict, key: str):
    value = cfg.get(key)
    if value is None:
        raise InputError(f"missing required option --{key.replace('_', '-')}")
    return value


def _parse_window(text: str) -> tuple[int, int]:
    try:
        start, end = str(text).split(":")
        window = (int(start), int(end))
    except ValueError:
        raise InputError(f"bad window {text!r}, expected START_MS:END_MS") from None
    if window[1] <= window[0]:
        raise InputError(f"window is empty: {text}")
    return window


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = str(text).split(":")
        return float(lo), float(hi)
    except ValueError:
        raise InputError(f"bad fit range {text!r}, expected LO:HI") from None


def _parse_list(text, kind=float) -> list:
    try:
        if isinstance(text, (list, tuple)):
            return [kind(v) for v in text]
        return [kind(v) for v in str(text).split(",") if v.strip()]
    except (TypeError, ValueError):
        raise InputError(f"bad list value {text!r}") from None


def _fee_from_bps(cfg: dict) -> float:
    bps = _require(cfg, "fee_bps")
    fee = bps / 1e4
    if not (0.0 <= fee < 1.0):
        raise InputError(f"fee-bps {bps} is outside [0, 10000)")
    return fee


# --- feed / schedule assembly -------------------------------------------------

@dataclass(frozen=True)
class Feed:
    """The quotes a run replays, every file read for them, and the --window."""

    quotes: QuoteSeries
    kind: str  # "bid_ask" (--quotes) or "mid" (--klines)
    inputs: list  # each file read, hashed into the manifest
    counters: dict
    blocks: np.ndarray | None  # --blocks timestamps in ms
    window: tuple[int, int] | None  # --window

    @property
    def span(self) -> tuple[int, int]:
        """The --window, or else the span of the quotes."""
        return self.window or (int(self.quotes.timestamps[0]), int(self.quotes.timestamps[-1]))


def _load_feed(cfg: dict) -> Feed:
    """Parse --quotes or --klines, and --blocks and --window when given, once each."""
    if cfg.get("quotes"):
        kind, source, load = "bid_ask", "quotes", load_quote_updates
    elif cfg.get("klines"):
        kind, source, load = "mid", "klines", load_klines
    else:
        raise InputError("a price feed is required: give --quotes or --klines")
    inputs = [cfg[source]]
    series = load(_require_file(cfg[source]))
    if not len(series):
        raise InputError(f"feed file {cfg[source]} holds no data rows")
    blocks, counters = None, {}
    if cfg.get("blocks"):
        blocks = load_block_timestamps(_require_file(cfg["blocks"]))
        inputs.append(cfg["blocks"])
        if kind == "mid":
            series, fills = align_to_blocks(series, blocks)  # all blocks, not the window
            counters = {"block_price_fills": fills, "blocks": int(len(blocks))}
    quotes = series if kind == "bid_ask" else quotes_from_prices(series)
    window = _parse_window(cfg["window"]) if cfg.get("window") else None
    return Feed(quotes, kind, inputs, counters, blocks, window)


def _check_grid(feed: Feed, interval_ms: int) -> None:
    """Exit 2 naming --window when the fixed grid over it leaves the quotes.

    run_arb_sim rejects such a grid as well, but only once it is built; the
    grid's first and last instants are found here without building it.
    """
    if feed.window is None or interval_ms <= 0:  # BlockSchedule.fixed names the interval
        return
    start, end = feed.window
    last = start + (end - start) // interval_ms * interval_ms
    first_quote, last_quote = (int(t) for t in feed.quotes.timestamps[[0, -1]])
    if start < first_quote or last > last_quote:
        raise InputError(
            f"--window {start}:{end} puts {interval_ms} ms blocks over [{start}, {last}], "
            f"but the quotes cover [{first_quote}, {last_quote}]"
        )


def _make_schedule(cfg: dict, feed: Feed) -> BlockSchedule:
    """The blocks inside the window, or the fixed grid over the window."""
    if feed.blocks is not None:
        if cfg.get("interval_ms") is not None:
            raise InputError("give --blocks or --interval-ms, not both")
        blocks = feed.blocks
        if feed.window:
            blocks = blocks[(blocks >= feed.window[0]) & (blocks <= feed.window[1])]
        return BlockSchedule.from_blocks(blocks)
    if cfg.get("interval_ms") is not None:
        _check_grid(feed, cfg["interval_ms"])
        return BlockSchedule.fixed(cfg["interval_ms"], *feed.span)
    raise InputError("a schedule is required: give --blocks or --interval-ms")


def _initial_state(cfg: dict, quotes, start_ms: int, fee: float) -> PoolState:
    """Pool at the --initial-price, or at the quote mid prevailing at start_ms."""
    price = cfg.get("initial_price")
    if price is None:
        i = _locf_index(quotes.timestamps, [start_ms])[0]
        price = 0.5 * (float(quotes.bids[i]) + float(quotes.asks[i]))
    elif not (math.isfinite(price) and price > 0):
        raise InputError(f"--initial-price must be finite and positive, got {price}")
    reserve_x = cfg.get("initial_reserve_x", 1.0)
    if not (math.isfinite(reserve_x) and reserve_x > 0):
        raise InputError(f"--initial-reserve-x must be finite and positive, got {reserve_x}")
    reserve_y = reserve_x * price
    feed = "quotes" if cfg.get("quotes") else "klines"
    named = (f"--initial-price {price}" if cfg.get("initial_price") is not None
             else f"{price}, the --{feed} mid at {start_ms},")
    gives = f"--initial-reserve-x {reserve_x} times {named} gives a Y reserve of {reserve_y}"
    if not 0.0 < reserve_y < math.inf:
        raise InputError(f"{gives}; it must be finite and positive")
    if not 0.0 < reserve_x * reserve_y < math.inf:
        raise InputError(f"{gives} and a reserve product of {reserve_x * reserve_y}; "
                         "the product must be finite and positive")
    return PoolState(reserve_x, reserve_y, fee)


def _concentration(cfg: dict) -> float:
    k = cfg.get("concentration_k", 1.0)
    if not (math.isfinite(k) and k >= 1.0):
        raise InputError(f"--concentration-k must be finite and >= 1, got {k}")
    return k


def _arb_run(cfg: dict, fee: float, factor: float):
    """Losses of the feed replayed over the schedule, scaled by the factor k."""
    feed = _load_feed(cfg)
    schedule = _make_schedule(cfg, feed)
    initial = _initial_state(cfg, feed.quotes, schedule.timestamps[0], fee)
    return run_arb_sim(initial, feed.quotes, schedule).scaled(factor), schedule, feed


def _fee_ledger(cfg: dict, factor: float):
    """Fee ledger of the --swaps position, its returns scaled by the factor k."""
    swaps_path = _require_file(_require(cfg, "swaps"))
    liquidity = cfg.get("position_liquidity", 1.0)
    if not (math.isfinite(liquidity) and liquidity > 0):
        raise InputError(f"--position-liquidity must be finite and positive, got {liquidity}")
    swaps = load_swap_records(swaps_path)
    ledger = attribute_fees(swaps, liquidity, per_block=cfg.get("per_block", False))
    ledger = accumulate(
        PositionLedger(liquidity), concentration_scale(ledger.returns, factor), ledger.timestamps
    )
    return ledger, swaps_path, len(swaps)


def _out_dir(cfg: dict) -> Path:
    out = Path(_require(cfg, "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- subcommands ---------------------------------------------------------------

def cmd_simulate_arb(cfg: dict) -> int:
    out = _out_dir(cfg)
    fee = _fee_from_bps(cfg)
    factor = _concentration(cfg)
    run, schedule, feed = _arb_run(cfg, fee, factor)

    loss_by_instant = np.zeros(len(schedule.timestamps))
    profit_by_instant = np.zeros(len(schedule.timestamps))
    event_idx = np.searchsorted(schedule.timestamps, run.timestamps)
    loss_by_instant[event_idx] = run.losses
    profit_by_instant[event_idx] = run.profits
    _write_table(out / "losses.csv", {
        "schema_version": SCHEMA_VERSION, "timestamp_ms": schedule.timestamps,
        "lp_relative_loss": loss_by_instant, "arb_profit": profit_by_instant,
        "cumulative_relative_loss": 1.0 - np.cumprod(1.0 - loss_by_instant),
    })
    _write_manifest(
        out, "simulate-arb",
        {"pair": cfg.get("pair", ""), "fee": fee, "feed_kind": feed.kind,
         "concentration_k": factor, "interval_ms": schedule.interval_ms,
         "n_instants": int(run.n_instants), "seed": cfg.get("seed")},
        feed.inputs, feed.counters,
        {"total_relative_loss": run.total_relative_loss,
         "n_events": int(len(run.losses)), "window_ms": run.window_ms},
    )
    return 0


def cmd_fees(cfg: dict) -> int:
    out = _out_dir(cfg)
    factor = _concentration(cfg)
    ledger, swaps_path, n_records = _fee_ledger(cfg, factor)
    _write_table(out / "fee_returns.csv", {
        "schema_version": SCHEMA_VERSION, "timestamp_ms": ledger.timestamps,
        "relative_fee_return": ledger.returns,
        "cumulative_growth": np.cumprod(1.0 + ledger.returns),
    })
    _write_manifest(
        out, "fees",
        {"pair": cfg.get("pair", ""), "position_liquidity": ledger.position_liquidity,
         "per_block": cfg.get("per_block", False), "concentration_k": factor},
        [swaps_path], {"n_records": n_records},
        {"cumulative_fee_return": float(ledger.cumulative_growth) - 1.0,
         "n_periods": int(len(ledger.returns))},
    )
    return 0


def cmd_compare(cfg: dict) -> int:
    out = _out_dir(cfg)
    fee = _fee_from_bps(cfg)
    factor = _concentration(cfg)
    days = cfg.get("ratio_window_days", 30.0)
    if not (math.isfinite(days) and days * DAY_MS >= 1):
        raise InputError(f"--ratio-window-days must be finite and at least 1 ms, got {days}")
    window_ms = int(days * DAY_MS)
    ledger, swaps_path, _ = _fee_ledger(cfg, factor)
    run, _, feed = _arb_run(cfg, fee, factor)
    report = fees_vs_losses(ledger, run, window_ms)
    _write_table(out / "comparison.csv", {
        "schema_version": SCHEMA_VERSION, "timestamp_ms": report.timestamps,
        "fee_return": report.fee_returns, "loss_return": report.loss_returns,
        "cumulative_difference": report.cumulative_difference,
        "trailing_ratio": report.trailing_ratio,
    })
    _write_manifest(
        out, "compare",
        {"pair": cfg.get("pair", ""), "fee": fee, "feed_kind": feed.kind,
         "concentration_k": factor, "position_liquidity": ledger.position_liquidity,
         "ratio_window_ms": window_ms},
        feed.inputs + [swaps_path], feed.counters, report.totals,
    )
    return 0


def _write_sweep(out: Path, sweep, fit_range) -> dict:
    try:
        slope, residual = loglog_slope(sweep, fit_range)
        fit = {"slope": slope, "residual": residual,
               "fit_range": list(fit_range) if fit_range else
               [float(sweep.values[0]), float(sweep.values[-1])]}
    except FitError as exc:
        fit = {"slope": None, "residual": None, "error": str(exc)}
    _write_table(out / "sweep.csv", {
        "schema_version": SCHEMA_VERSION, sweep.parameter: sweep.values,
        "total_relative_loss": sweep.total_losses,
        "annualized_loss": sweep.annualized_losses, "n_events": sweep.n_events,
    })
    return fit


def cmd_sweep(command: str, cfg: dict) -> int:
    """sweep-blocktime or sweep-fee: total loss per grid value on one feed."""
    out = _out_dir(cfg)
    if cfg.get("quotes") and cfg.get("blocks"):
        raise InputError("sweeps take --blocks only with --klines, to align them")
    feed = _load_feed(cfg)
    fit_range = _parse_range(cfg["fit_range"]) if cfg.get("fit_range") else None
    if command == "sweep-fee":
        interval = _require(cfg, "interval_ms")
        _check_grid(feed, interval)
        fees_bps = _parse_list(cfg.get("fees_bps", "10,20,30,50,100"), float)
        # only the reserves are used; each grid point sets its own fee
        pool = _initial_state(cfg, feed.quotes, feed.span[0], 0.0)
        sweep = fee_sweep(pool.reserve_x, pool.reserve_y, feed.quotes, interval,
                          [bps / 1e4 for bps in fees_bps], feed.span)
        if fit_range:
            fit_range = (fit_range[0] / 1e4, fit_range[1] / 1e4)
        grid = {"interval_ms": interval, "fees_bps": fees_bps}
    else:
        fee = _fee_from_bps(cfg)
        if cfg.get("intervals_ms"):
            intervals = _parse_list(cfg["intervals_ms"], int)
        elif cfg.get("extended"):
            intervals = list(EXTENDED_INTERVALS_MS)
        else:
            intervals = list(DEFAULT_INTERVALS_MS)
        for interval in intervals:
            _check_grid(feed, interval)
        sweep = blocktime_sweep(_initial_state(cfg, feed.quotes, feed.span[0], fee),
                                feed.quotes, intervals, feed.span)
        grid = {"fee": fee, "intervals_ms": intervals}
    fit = _write_sweep(out, sweep, fit_range)
    _write_manifest(
        out, command,
        {**grid, "pair": cfg.get("pair", ""), "feed_kind": feed.kind,
         "window": feed.window, "seed": cfg.get("seed"), "fit": fit},
        feed.inputs, feed.counters,
        {"total_losses": [float(v) for v in sweep.total_losses]},
    )
    return 0


def cmd_synth_gbm(cfg: dict) -> int:
    out = _out_dir(cfg)
    sigma = _require(cfg, "sigma")
    series = gbm_generate(
        sigma=sigma,
        mu=cfg.get("mu", 0.0),
        step_ms=_require(cfg, "step_ms"),
        horizon_ms=_require(cfg, "horizon_ms"),
        seed=cfg.get("seed", 0),
        price0=cfg.get("price0", 1.0),
        start_ms=cfg.get("start_ms", 0),
    )
    fmt = cfg.get("format", "klines")
    # synthetic feeds are written in the exact ingestion schemas so they can
    # be fed straight back into the other subcommands
    if fmt == "klines":
        prices = {**dict.fromkeys(("open", "high", "low", "close"), series.prices), "volume": 0.0}
    else:
        prices = dict.fromkeys(("bid", "ask"), series.prices)
    written = f"gbm_{fmt}.csv"
    _write_table(out / written, {"timestamp_ms": series.timestamps, **prices})
    _write_manifest(
        out, "synth-gbm",
        {"pair": cfg.get("pair", "synthetic"), "sigma": sigma,
         "mu": cfg.get("mu", 0.0), "step_ms": cfg["step_ms"],
         "horizon_ms": cfg["horizon_ms"], "seed": cfg.get("seed", 0),
         "price0": cfg.get("price0", 1.0), "format": fmt, "file": written},
        [],
        {"n_points": len(series)},
    )
    return 0


# --- parser --------------------------------------------------------------------

# Every flag is declared once; a subcommand lists the flags it takes, and a
# config-file key is checked against that list and converted by this entry.
OPTIONS = {
    "--config": {"help": "JSON config file; flags override its values"},
    "--pair": {"help": "trading pair label for outputs"},
    "--out": {"help": "output directory"},
    "--seed": {"type": int, "help": "random seed (recorded in the manifest)"},
    "--quotes": {"help": "bid/ask update CSV (timestamp_ms,bid,ask)"},
    "--klines": {"help": "kline CSV (timestamp_ms,open,...)"},
    "--blocks": {"help": "block timestamp CSV (block_number,timestamp_s)"},
    "--window": {"help": "schedule window START_MS:END_MS"},
    "--initial-price": {"type": float,
                        "help": "initial pool price (default: first prevailing quote mid)"},
    "--initial-reserve-x": {"type": float,
                            "help": "initial X reserve (losses are scale-invariant; default 1)"},
    "--fee-bps": {"type": float, "help": "pool fee in basis points"},
    "--interval-ms": {"type": int, "help": "fixed block interval"},
    "--concentration-k": {"type": float,
                          "help": "concentration factor applied to relative losses and fees"},
    "--swaps": {"help": "swap record CSV"},
    "--position-liquidity": {"type": float, "help": "position size in L units (default 1)"},
    "--per-block": {"action": "store_const", "const": True,
                    "help": "aggregate swaps per block with end-of-block liquidity"},
    "--ratio-window-days": {"type": float, "help": "trailing ratio window in days (default 30)"},
    "--intervals-ms": {"help": "comma-separated interval grid (default 100ms..16s)"},
    "--extended": {"action": "store_const", "const": True,
                   "help": "use the extended grid up to 300s"},
    "--fees-bps": {"help": "comma-separated fee grid in bps (default 10,20,30,50,100)"},
    "--fit-range": {"help": "log-log fit range LO:HI in the grid's unit (ms or bps)"},
    "--sigma": {"type": float, "help": "volatility per sqrt(year)"},
    "--mu": {"type": float, "help": "drift per year (default 0)"},
    "--step-ms": {"type": int},
    "--horizon-ms": {"type": int},
    "--price0": {"type": float, "help": "initial price (default 1)"},
    "--start-ms": {"type": int},
    "--format": {"choices": ("klines", "quotes"), "help": "output schema (default klines)"},
}

_COMMON = ("--config", "--pair", "--out", "--seed")
_FEED = ("--quotes", "--klines", "--blocks", "--window", "--initial-price",
         "--initial-reserve-x")

COMMANDS = {  # name -> (function, help, flags)
    "simulate-arb": (cmd_simulate_arb, "replay arbitrage losses over a schedule",
                     _COMMON + _FEED + ("--fee-bps", "--interval-ms", "--concentration-k")),
    "fees": (cmd_fees, "attribute historical swap fees to a position",
             _COMMON + ("--swaps", "--position-liquidity", "--per-block",
                        "--concentration-k")),
    "compare": (cmd_compare, "fees versus arbitrage losses over time",
                _COMMON + _FEED + ("--swaps", "--fee-bps", "--interval-ms",
                                   "--position-liquidity", "--per-block",
                                   "--ratio-window-days", "--concentration-k")),
    "sweep-blocktime": (functools.partial(cmd_sweep, "sweep-blocktime"),
                        "total loss per block interval",
                        _COMMON + _FEED + ("--fee-bps", "--intervals-ms", "--extended",
                                           "--fit-range")),
    "sweep-fee": (functools.partial(cmd_sweep, "sweep-fee"), "total loss per pool fee",
                  _COMMON + _FEED + ("--interval-ms", "--fees-bps", "--fit-range")),
    "synth-gbm": (cmd_synth_gbm, "generate a synthetic GBM feed",
                  _COMMON + ("--sigma", "--mu", "--step-ms", "--horizon-ms", "--price0",
                             "--start-ms", "--format")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvrsim",
        description="Arbitrage-loss and fee-income backtesting for constant-product AMM positions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        for flag in flags:
            sub.add_argument(flag, **OPTIONS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return COMMANDS[args.command][0](cfg)
    except InsufficientDataError as exc:  # the feed misses an instant of the schedule
        feed = "quotes" if cfg.get("quotes") else "klines"
        print(f"error: --{feed} {cfg[feed]}: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: input file does not exist: {exc.filename}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
