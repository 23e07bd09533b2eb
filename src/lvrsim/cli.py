"""Command-line entry point: ingestion, simulation, sweeps, report files.

Subcommands: simulate-arb, fees, compare, sweep-blocktime, sweep-fee,
synth-gbm. Options may come from flags or a JSON config file (--config);
flags override file values. A subcommand computes its CSV result tables
and manifest.json (parameters, input hashes, fill counters); main writes them.

Exit codes: 0 success, 1 runtime failure, 2 configuration/validation
failure. Result tables are deterministic for a given config and seed; only
the manifest's created_utc field differs between reruns.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, simulation
from .errors import FitError, InputError, InsufficientDataError
from .feeds import (
    QuoteSeries,
    _check_coverage,
    _locf_index,
    load_block_timestamps,
    load_klines,
    load_quote_updates,
    quotes_from_prices,
)
from .fees import attribute_fees, load_swap_records
from .pool import PoolState
from .simulation import (
    DAY_MS,
    DEFAULT_INTERVALS_MS,
    EXTENDED_INTERVALS_MS,
    BlockSchedule,
    _fold,
    _grid_window,
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
_CHUNK_ROWS = 1024


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


def _write_table(path: Path, blocks) -> None:
    """CSV of a table: an iterable of column blocks, written one after the other.

    A block maps header -> column, an array or a scalar filling each of its rows;
    the first block's header heads the file. A table held in memory is one block,
    and a streamed one a generator whose blocks are worked out as they are written.
    """
    def chunks():
        for number, block in enumerate(blocks):
            columns = {name: np.asarray(column) for name, column in block.items()}
            lengths = {len(c) for c in columns.values() if c.ndim}
            if len(lengths) > 1:
                raise ValueError(f"{path.name}: columns of unequal lengths {sorted(lengths)}")
            n_rows = lengths.pop() if lengths else 0
            if number == 0:
                yield ",".join(columns) + "\n"
            for start in range(0, n_rows, _CHUNK_ROWS):
                size = min(_CHUNK_ROWS, n_rows - start)
                cells = [_cells(c[start:start + size]) if c.ndim else
                         _cells(c.reshape(1)) * size for c in columns.values()]
                yield "\n".join(map(",".join, zip(*cells))) + "\n"

    _atomic_write(path, chunks())


def _sha256(path: str) -> dict:
    import hashlib  # here, not at the top: OpenSSL's libcrypto then loads after a run's peak

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return {"sha256": digest.hexdigest(), "bytes": os.path.getsize(path)}


@dataclass(frozen=True)
class Output:
    """What a subcommand computed, before main writes any of it: tables, manifest sections.

    A streamed table (losses.csv) is computed while main writes it, a block at a time.
    """

    tables: dict  # file name -> column blocks, as _write_table takes them
    parameters: dict
    fill_counters: dict
    results: dict


def _write_manifest(out_dir: Path, command: str, cfg: dict, output: Output) -> None:
    """manifest.json; its inputs are the input file options given (a run reads each, or exits 2)."""
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "command": command,
        "parameters": output.parameters,
        "inputs": {cfg[key]: _sha256(cfg[key]) for key in ("quotes", "klines", "blocks", "swaps")
                   if cfg.get(key) is not None},
        "fill_counters": output.fill_counters,
        "results": output.results,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    _atomic_write(out_dir / "manifest.json", [json.dumps(manifest, indent=2, sort_keys=True)])


# --- config ------------------------------------------------------------------

def _merge_config(args: argparse.Namespace) -> dict:
    """Every option of the subcommand: its flag, else its config-file key, else its default.

    A flag's text, a config value and a default go through the option's one
    declaration in OPTIONS alike; a bad value raises the InputError naming the
    flag, or the config file and key. JSON null means 'not given'. The result
    holds every option but --config, None for one not given without default.
    """
    options = {flag[2:].replace("-", "_"): flag for flag in COMMANDS[args.command][2]
               if flag != "--config"}
    cfg = {}
    if args.config is not None:
        path = _require_file(_convert("--config", args.config, OPTIONS["--config"]))
        with open(path, "r", encoding="utf-8") as handle:
            try:
                loaded = json.load(handle)
            except json.JSONDecodeError as exc:
                raise InputError(f"bad config file {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise InputError(f"config file {path} must hold a JSON object")
        for key, value in loaded.items():
            if key not in options:
                raise InputError(f"config file {path}: {args.command} has no option {key!r}")
            if value is not None:
                cfg[key] = _convert(f"config file {path}: {key}", value, OPTIONS[options[key]])
    for key, flag in options.items():
        value = getattr(args, key)
        if value is None and key not in cfg:
            value = OPTIONS[flag].get("default")
        if value is not None:
            cfg[key] = _convert(flag, value, OPTIONS[flag])
    return {key: cfg.get(key) for key in options}


def _convert(name: str, value, spec: dict):
    """The option's value from a flag's text or a config value, or an InputError naming it."""
    try:
        converted = spec["type"](value)
        if spec.get("check", lambda _: True)(converted):
            return converted
    except ValueError:
        pass
    raise InputError(f"{name} must be {spec['rule']}, got {value!r}")


def _text(value, numeric: bool = False) -> str:
    """A flag's text; in a config file, a JSON string, or a JSON number written out."""
    if isinstance(value, str):
        return value
    if numeric and isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(value)
    raise ValueError(value)


def _number(value, kind):
    """Text read by kind (float or int): the number 2.5 is no int, and true no number."""
    return kind(_text(value, numeric=True))


def _pair(value, kind) -> tuple:
    """START:END text read as a pair of kind."""
    first, second = _text(value).split(":")
    return kind(first), kind(second)


def _grid(value, kind) -> list:
    """Comma-separated text, or a JSON list, read item by item by kind."""
    items = value if isinstance(value, list) else _text(value, numeric=True).split(",")
    return [_number(item, kind) for item in items]


def _in_fee_range(value: float) -> bool:
    return 0.0 <= value < 1e4  # NaN fails


def _increasing(ok):
    """A grid check: non-empty, each value ok, strictly increasing."""
    return lambda grid: (len(grid) > 0 and all(map(ok, grid))
                         and all(a < b for a, b in zip(grid, grid[1:])))


def _require_file(path: str) -> str:
    if not os.path.isfile(path):
        problem = "path is not a regular file" if os.path.exists(path) else "file does not exist"
        raise InputError(f"input {problem}: {path}")
    return path


def _require(cfg: dict, key: str):
    if (value := cfg[key]) is None:
        raise InputError(f"missing required option --{key.replace('_', '-')}")
    return value


# --- feed / schedule assembly -------------------------------------------------

@dataclass(frozen=True)
class Feed:
    """The quotes a run replays, the --blocks, and the --window."""

    quotes: QuoteSeries
    kind: str  # "bid_ask" (--quotes) or "mid" (--klines)
    blocks: np.ndarray | None  # --blocks timestamps in ms
    window: tuple[int, int] | None  # --window


def _load_feed(cfg: dict) -> Feed:
    """Parse --quotes or --klines, and --blocks when given, once each."""
    if cfg["quotes"] is not None and cfg["klines"] is not None:
        raise InputError("give --quotes or --klines, not both")
    if cfg["quotes"] is not None:
        kind, source, load = "bid_ask", "quotes", load_quote_updates
    elif cfg["klines"] is not None:
        kind, source, load = "mid", "klines", load_klines
    else:
        raise InputError("a price feed is required: give --quotes or --klines")
    series = load(_require_file(cfg[source]))
    if not len(series):
        raise InputError(f"feed file {cfg[source]} holds no data rows")
    blocks = None
    if cfg.get("blocks") is not None:  # the sweeps take no --blocks
        blocks = load_block_timestamps(_require_file(cfg["blocks"]))
        if not len(blocks):
            raise InputError(f"--blocks {cfg['blocks']} holds no data rows")
    quotes = series if kind == "bid_ask" else quotes_from_prices(series)
    return Feed(quotes, kind, blocks, cfg["window"])


def _make_schedule(cfg: dict, feed: Feed) -> tuple[BlockSchedule, dict]:
    """The blocks inside the window, or the fixed grid over it (by default the quotes'), and
    the manifest's fill counters."""
    if feed.blocks is not None:
        if cfg["interval_ms"] is not None:
            raise InputError("give --blocks or --interval-ms, not both")
        blocks = feed.blocks
        if feed.window is not None:
            blocks = blocks[(blocks >= feed.window[0]) & (blocks <= feed.window[1])]
            if not len(blocks):
                raise InputError("--window {}:{} holds none of the --blocks".format(*feed.window))
        _check_coverage(feed.quotes, blocks)
        counters = {}
        if feed.kind == "mid":  # a block in a second with no kline reads the kline before
            at = feed.quotes.timestamps[_locf_index(feed.quotes.timestamps, blocks)]
            counters = {"block_price_fills": int(np.sum(at != blocks)), "blocks": int(len(blocks))}
        return BlockSchedule.from_blocks(blocks), counters
    if (interval := cfg["interval_ms"]) is not None:
        return BlockSchedule.fixed(interval, *_grid_window(feed.quotes, [interval], feed.window,
                                                           "--interval-ms")), {}
    raise InputError("a schedule is required: give --blocks or --interval-ms")


def _initial_state(cfg: dict, quotes, start_ms: int, fee: float) -> PoolState:
    """Pool at the --initial-price, or at the quote mid at start_ms, a checked schedule's start."""
    price, reserve_x = cfg["initial_price"], cfg["initial_reserve_x"]
    if price is None:
        i = _locf_index(quotes.timestamps, [start_ms])[0]
        price = 0.5 * (float(quotes.bids[i]) + float(quotes.asks[i]))
    reserve_y = reserve_x * price
    feed = "quotes" if cfg["quotes"] is not None else "klines"
    named = (f"--initial-price {price}" if cfg["initial_price"] is not None
             else f"{price}, the --{feed} mid at {start_ms},")
    gives = f"--initial-reserve-x {reserve_x} times {named} gives a Y reserve of {reserve_y}"
    if not 0.0 < reserve_y < math.inf:
        raise InputError(f"{gives}; it must be finite and positive")
    if not 0.0 < reserve_x * reserve_y < math.inf:
        raise InputError(f"{gives} and a reserve product of {reserve_x * reserve_y}; "
                         "the product must be finite and positive")
    return PoolState(reserve_x, reserve_y, fee)


def _arb_run(cfg: dict, fee: float, factor: float):
    """Losses of the feed replayed over the schedule, scaled by the factor k."""
    feed = _load_feed(cfg)
    schedule, counters = _make_schedule(cfg, feed)
    initial = _initial_state(cfg, feed.quotes, schedule.first_ms, fee)
    return run_arb_sim(initial, feed.quotes, schedule).scaled(factor), schedule, feed, counters


def _fee_ledger(cfg: dict):
    """Fee ledger of the --swaps position, its returns scaled by --concentration-k."""
    swaps = load_swap_records(_require_file(_require(cfg, "swaps")))
    ledger = attribute_fees(swaps, cfg["position_liquidity"], per_block=cfg["per_block"])
    return ledger.scaled(cfg["concentration_k"]), len(swaps)


def _out_dir(cfg: dict) -> Path:
    """The --out directory; the first table written makes it, so rejected input leaves none."""
    out = Path(_require(cfg, "out"))
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise InputError(f"--out {out}: {existing} is not a directory")
    return out


# --- subcommands ---------------------------------------------------------------

def _losses_table(run, schedule: BlockSchedule):
    """losses.csv, one row per schedule instant, in blocks of _CHUNK_ROWS instants: the
    run's events are scattered onto their instants, the other rows are zero."""
    product, done = 1.0, 0  # the loss multiplier so far, and the events written
    for lo in range(0, schedule.n_instants, _CHUNK_ROWS):
        instants = schedule._at(np.arange(lo, min(lo + _CHUNK_ROWS, schedule.n_instants),
                                          dtype=np.int64))
        end = done + int(np.searchsorted(run.timestamps[done:], instants[-1], side="right"))
        loss, profit = np.zeros((2, len(instants)))
        at = np.searchsorted(instants, run.timestamps[done:end])
        loss[at], profit[at] = run.losses[done:end], run.profits[done:end]
        done = end
        factors = 1.0 - loss
        product = _fold(factors, product)
        yield {"schema_version": SCHEMA_VERSION, "timestamp_ms": instants,
               "lp_relative_loss": loss, "arb_profit": profit,
               "cumulative_relative_loss": np.subtract(1.0, factors, out=factors)}


def cmd_simulate_arb(cfg: dict) -> Output:
    fee, factor = _require(cfg, "fee_bps") / 1e4, cfg["concentration_k"]
    run, schedule, feed, counters = _arb_run(cfg, fee, factor)
    return Output(
        {"losses.csv": _losses_table(run, schedule)},
        {"pair": cfg["pair"], "fee": fee, "feed_kind": feed.kind, "seed": cfg["seed"],
         "concentration_k": factor, "interval_ms": schedule.interval_ms,
         "quote_resolution_ms": feed.quotes.resolution_ms, "n_instants": int(run.n_instants)},
        counters,
        {"total_relative_loss": run.total_relative_loss, "n_events": int(len(run.losses)),
         "n_dropped": run.n_dropped, "window_ms": run.window_ms},
    )


def cmd_fees(cfg: dict) -> Output:
    ledger, n_records = _fee_ledger(cfg)
    return Output(
        {"fee_returns.csv": [{
            "schema_version": SCHEMA_VERSION, "timestamp_ms": ledger.timestamps,
            "relative_fee_return": ledger.returns,
            "cumulative_growth": np.cumprod(1.0 + ledger.returns),
        }]},
        {"pair": cfg["pair"], "position_liquidity": ledger.position_liquidity,
         "per_block": cfg["per_block"], "concentration_k": cfg["concentration_k"],
         "seed": cfg["seed"]},
        {"n_records": n_records},
        {"cumulative_fee_return": float(ledger.cumulative_growth) - 1.0,
         "n_periods": int(len(ledger.returns))},
    )


def cmd_compare(cfg: dict) -> Output:
    fee, factor = _require(cfg, "fee_bps") / 1e4, cfg["concentration_k"]
    window_ms = int(cfg["ratio_window_days"] * DAY_MS)
    ledger, _ = _fee_ledger(cfg)
    run, _, feed, counters = _arb_run(cfg, fee, factor)
    report = fees_vs_losses(ledger, run, window_ms)
    return Output(
        {"comparison.csv": [{
            "schema_version": SCHEMA_VERSION, "timestamp_ms": report.timestamps,
            "fee_return": report.fee_returns, "loss_return": report.loss_returns,
            "cumulative_difference": report.cumulative_difference,
            "trailing_ratio": report.trailing_ratio,
        }]},
        {"pair": cfg["pair"], "fee": fee, "feed_kind": feed.kind, "seed": cfg["seed"],
         "concentration_k": factor, "position_liquidity": ledger.position_liquidity,
         "quote_resolution_ms": feed.quotes.resolution_ms, "ratio_window_ms": window_ms},
        counters, {**report.totals, "n_dropped": run.n_dropped},
    )


def _fit(sweep, fit_range) -> dict:
    """The log-log slope of the sweep over the fit range, or the reason there is none."""
    try:
        slope, residual = loglog_slope(sweep, fit_range)
        return {"slope": slope, "residual": residual,
                "fit_range": list(fit_range) if fit_range is not None else
                [float(sweep.values[0]), float(sweep.values[-1])]}
    except FitError as exc:
        return {"slope": None, "residual": None, "error": str(exc)}


def cmd_sweep(command: str, cfg: dict) -> Output:
    """sweep-blocktime or sweep-fee: total loss per grid value on one feed."""
    feed = _load_feed(cfg)
    fit_range = cfg["fit_range"]
    if command == "sweep-fee":
        interval = _require(cfg, "interval_ms")
        fees_bps = cfg["fees_bps"]
        start, _ = _grid_window(feed.quotes, [interval], feed.window,  # checked before pricing
                                "--interval-ms")
        pool = _initial_state(cfg, feed.quotes, start, 0.0)  # each point sets its own fee
        sweep = fee_sweep(pool.reserve_x, pool.reserve_y, feed.quotes, interval,
                          [bps / 1e4 for bps in fees_bps], feed.window)
        if fit_range is not None:
            fit_range = (fit_range[0] / 1e4, fit_range[1] / 1e4)
        grid = {"interval_ms": interval, "fees_bps": fees_bps}
    else:
        fee = _require(cfg, "fee_bps") / 1e4
        intervals = cfg["intervals_ms"]
        if intervals is None:
            intervals = list(EXTENDED_INTERVALS_MS if cfg["extended"] else DEFAULT_INTERVALS_MS)
        start, _ = _grid_window(feed.quotes, intervals, feed.window,  # checked before pricing
                                "--intervals-ms")
        sweep = blocktime_sweep(_initial_state(cfg, feed.quotes, start, fee),
                                feed.quotes, intervals, feed.window)
        grid = {"fee": fee, "intervals_ms": intervals}
    return Output(
        {"sweep.csv": [{
            "schema_version": SCHEMA_VERSION, sweep.parameter: sweep.values,
            "total_relative_loss": sweep.total_losses,
            "annualized_loss": sweep.annualized_losses, "n_events": sweep.n_events,
        }]},
        {**grid, "pair": cfg["pair"], "feed_kind": feed.kind,
         "quote_resolution_ms": feed.quotes.resolution_ms, "window": feed.window,
         "seed": cfg["seed"], "fit": _fit(sweep, fit_range)},
        {},
        {"total_losses": [float(v) for v in sweep.total_losses]},
    )


def cmd_synth_gbm(cfg: dict) -> Output:
    sigma = _require(cfg, "sigma")
    seed = 0 if cfg["seed"] is None else cfg["seed"]
    step, horizon = _require(cfg, "step_ms"), _require(cfg, "horizon_ms")
    # gbm_generate rejects this too, but names its parameters, not the flags
    if (steps := horizon // step) > simulation.MAX_STEPS:
        raise InputError(f"--horizon-ms {horizon} / --step-ms {step} is {steps} steps; "
                         f"at most {simulation.MAX_STEPS} are generated")
    series = gbm_generate(sigma=sigma, mu=cfg["mu"], step_ms=step, horizon_ms=horizon, seed=seed,
                          price0=cfg["price0"], start_ms=cfg["start_ms"])
    fmt = cfg["format"]
    # synthetic feeds are written in the exact ingestion schemas so they can
    # be fed straight back into the other subcommands
    if fmt == "klines":
        prices = {**dict.fromkeys(("open", "high", "low", "close"), series.prices), "volume": 0.0}
    else:
        prices = dict.fromkeys(("bid", "ask"), series.prices)
    written = f"gbm_{fmt}.csv"
    return Output(
        {written: [{"timestamp_ms": series.timestamps, **prices}]},
        {"pair": cfg["pair"] or "synthetic", "sigma": sigma,  # an empty label is none
         "mu": cfg["mu"], "step_ms": cfg["step_ms"], "horizon_ms": cfg["horizon_ms"],
         "seed": seed, "price0": cfg["price0"], "format": fmt, "file": written},
        {"n_points": len(series)}, {},
    )


# --- parser --------------------------------------------------------------------

# Every option is declared once: "type" reads a flag's text or a config value
# (raising ValueError), "check" accepts the value, "rule" says what both
# require, "default" is the text an option not given takes, and "argparse"
# holds extra add_argument keywords. A subcommand lists the flags it takes;
# its config-file keys are those flags' names.
_PATH = {"type": _text, "check": bool, "rule": "a path"}
_NUMBER = {"type": functools.partial(_number, kind=float), "rule": "a number"}
_INTEGER = {"type": functools.partial(_number, kind=int), "rule": "an integer"}
_POSITIVE_INTEGER = {**_INTEGER, "check": lambda ms: ms > 0, "rule": "a positive integer"}
_POSITIVE = {**_NUMBER, "check": lambda v: math.isfinite(v) and v > 0,
             "rule": "finite and positive"}
# an on/off flag given is True; its config value is JSON true or false
_SWITCH = {"type": lambda value: value, "check": lambda value: isinstance(value, bool),
           "rule": "true or false", "default": False,
           "argparse": {"action": "store_const", "const": True}}

OPTIONS = {
    "--config": {**_PATH, "help": "JSON config file; flags override its values"},
    "--pair": {"type": _text, "rule": "text", "default": "", "help": "trading pair label"},
    "--out": {**_PATH, "help": "output directory"},
    "--seed": {**_INTEGER, "help": "random seed (recorded in the manifest)"},
    "--quotes": {**_PATH, "help": "bid/ask update CSV (timestamp_ms,bid,ask)"},
    "--klines": {**_PATH, "help": "kline CSV (timestamp_ms,open,...)"},
    "--blocks": {**_PATH, "help": "block timestamp CSV (block_number,timestamp_s)"},
    "--window": {"type": functools.partial(_pair, kind=int),
                 "check": lambda w: -(2**63) <= w[0] < w[1] < 2**63,
                 "rule": "START_MS:END_MS with START_MS < END_MS, both in the int64 range",
                 "help": "schedule window START_MS:END_MS"},
    "--initial-price": {**_POSITIVE,
                        "help": "initial pool price (default: first prevailing quote mid)"},
    "--initial-reserve-x": {**_POSITIVE, "default": "1",
                            "help": "initial X reserve (losses are scale-invariant)"},
    "--fee-bps": {**_NUMBER, "check": _in_fee_range, "rule": "in [0, 10000)",
                  "help": "pool fee in basis points"},
    "--interval-ms": {**_POSITIVE_INTEGER, "help": "fixed block interval"},
    "--concentration-k": {**_NUMBER, "check": lambda k: math.isfinite(k) and k >= 1.0,
                          "rule": "finite and >= 1", "default": "1",
                          "help": "concentration factor applied to relative losses and fees"},
    "--swaps": {**_PATH, "help": "swap record CSV"},
    "--position-liquidity": {**_POSITIVE, "default": "1", "help": "position size in L units"},
    "--per-block": {**_SWITCH, "help": "aggregate swaps per block with end-of-block liquidity"},
    "--ratio-window-days": {**_NUMBER, "check": lambda days: 1 <= days * DAY_MS < math.inf,
                            "rule": "finite and at least 1 ms",
                            "default": "30", "help": "trailing ratio window in days"},
    "--intervals-ms": {"type": functools.partial(_grid, kind=int),
                       "check": _increasing(lambda ms: ms > 0),
                       "rule": "strictly increasing positive integers",
                       "help": "comma-separated interval grid (default "
                               f"{','.join(map(str, DEFAULT_INTERVALS_MS))})"},
    "--extended": {**_SWITCH, "help": "use the extended grid up to "
                                      f"{EXTENDED_INTERVALS_MS[-1]} ms"},
    "--fees-bps": {"type": functools.partial(_grid, kind=float),
                   "check": _increasing(_in_fee_range),
                   "rule": "strictly increasing values in [0, 10000)",
                   "default": "10,20,30,50,100", "help": "comma-separated fee grid in bps"},
    "--fit-range": {"type": functools.partial(_pair, kind=float), "rule": "a fit range LO:HI",
                    "help": "log-log fit range LO:HI in the grid's unit (ms or bps)"},
    "--sigma": {**_NUMBER, "help": "volatility per sqrt(year)"},
    "--mu": {**_NUMBER, "default": "0", "help": "drift per year"},
    "--step-ms": {**_POSITIVE_INTEGER, "help": "price step"},
    "--horizon-ms": {**_INTEGER, "help": "length of the path"},
    "--price0": {**_NUMBER, "default": "1", "help": "initial price"},
    "--start-ms": {**_INTEGER, "default": "0", "help": "timestamp of the first price"},
    "--format": {"type": _text, "check": lambda name: name in ("klines", "quotes"),
                 "rule": "klines or quotes", "default": "klines",
                 "help": "output schema: klines or quotes"},
}

_COMMON = ("--config", "--pair", "--out", "--seed")
_FEED = ("--quotes", "--klines", "--window", "--initial-price", "--initial-reserve-x")

COMMANDS = {  # name -> (function, help, flags)
    "simulate-arb": (cmd_simulate_arb, "replay arbitrage losses over a schedule",
                     _COMMON + _FEED + ("--blocks", "--fee-bps", "--interval-ms",
                                         "--concentration-k")),
    "fees": (cmd_fees, "attribute historical swap fees to a position",
             _COMMON + ("--swaps", "--position-liquidity", "--per-block",
                        "--concentration-k")),
    "compare": (cmd_compare, "fees versus arbitrage losses over time",
                _COMMON + _FEED + ("--blocks", "--swaps", "--fee-bps", "--interval-ms",
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
            spec = OPTIONS[flag]
            shown = f" (default {spec['default']})" if spec.get("default") else ""
            sub.add_argument(flag, help=spec["help"] + shown, **spec.get("argparse", {}))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        out = _out_dir(cfg)
        output = COMMANDS[args.command][0](cfg)
        for name, blocks in output.tables.items():
            _write_table(out / name, blocks)
        _write_manifest(out, args.command, cfg, output)
        return 0
    except InsufficientDataError as exc:  # the feed misses an instant of the schedule
        feed = "quotes" if cfg["quotes"] is not None else "klines"
        over = " over --window {}:{}".format(*cfg["window"]) if cfg["window"] else ""
        print(f"error: --{feed} {cfg[feed]}: {exc}{over}", file=sys.stderr)
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
