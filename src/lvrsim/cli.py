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
import contextlib
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

from . import __version__
from .errors import FitError, InputError, InsufficientDataError, ReplayError
from .feeds import (
    QuoteSeries,
    _block_fills,
    _locf_index,
    load_block_timestamps,
    load_klines,
    load_quote_updates,
    quotes_from_prices,
)
from .fees import _attributed_file
from .pool import PoolState, _fold, _in_int64, _is_concentration, _is_fee, _is_positive
from .simulation import (
    DAY_MS,
    DEFAULT_INTERVALS_MS,
    EXTENDED_INTERVALS_MS,
    BlockSchedule,
    _grids,
    _merged,
    _resolution_rule,
    _running_sums,
    blocktime_sweep,
    fee_sweep,
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
    # here, not at the top: OpenSSL's libcrypto then loads after the run's data peak. Its
    # 3.5 MB of pages land on the heap the run leaves resident, as glibc keeps freed heap, so
    # main hashes only once every table is written and let go: the load lands on the run's
    # low-water heap. It still sets compare's peak RSS: on the benchmark's fees_compare inputs
    # it ends at about 35.5 MB, on the 32.1 MB left once the report is released, and within
    # 0.8 MB of fee attribution's 34.7 MB high
    import hashlib

    digest = hashlib.sha256()
    buffer = bytearray(1 << 16)  # one 64 KiB buffer, read into again and again
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(buffer):
            digest.update(view[:size])
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


def _increasing(ok):
    """A grid check: non-empty, each value ok, strictly increasing."""
    return lambda grid: (len(grid) > 0 and all(map(ok, grid))
                         and all(a < b for a, b in zip(grid, grid[1:])))


def _require_file(path: str) -> str:
    if not os.path.isfile(path):
        problem = "path is not a regular file" if os.path.exists(path) else "file does not exist"
        raise InputError(f"input {problem}: {path}")
    return path


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _require(cfg: dict, key: str):
    if (value := cfg[key]) is None:
        raise InputError(f"missing required option {_flag(key)}")
    return value


def _one_of(cfg: dict, first: str, second: str, what: str | None = None) -> str | None:
    """Which of two exclusive options is given, by key, or None for neither (a switch is
    given when true). Both raise, and so does neither when what names a choice the run needs."""
    given = [key for key in (first, second) if cfg[key]]
    either = f"{_flag(first)} or {_flag(second)}"
    if len(given) > 1:
        raise InputError(f"give {either}, not both")
    if not given and what is not None:
        raise InputError(f"{what} is required: give {either}")
    return given[0] if given else None


# --- feed / schedule assembly -------------------------------------------------

def _load_feed(cfg: dict) -> tuple[QuoteSeries, dict]:
    """The --quotes or --klines, parsed once, and the manifest parameters describing them."""
    source = _one_of(cfg, "quotes", "klines", "a price feed")
    path = _require_file(cfg[source])
    series = load_quote_updates(path) if source == "quotes" else load_klines(path)
    if not len(series):
        raise InputError(f"feed file {path} holds no data rows")
    quotes = series if source == "quotes" else quotes_from_prices(series)
    return quotes, {"feed_kind": "bid_ask" if source == "quotes" else "mid",
                    "quote_resolution_ms": quotes.resolution_ms}


def _make_schedule(cfg: dict, quotes: QuoteSeries, feed: dict) -> tuple[BlockSchedule, dict]:
    """The --blocks inside the --window, or the fixed grid over it (by default the quotes'),
    and the manifest's fill counters."""
    window = cfg["window"]
    if cfg["blocks"] is not None:  # read before the choice of schedule is checked
        blocks = load_block_timestamps(_require_file(cfg["blocks"]))
        if not len(blocks):
            raise InputError(f"--blocks {cfg['blocks']} holds no data rows")
    if _one_of(cfg, "blocks", "interval_ms", "a schedule") == "interval_ms":
        return _grids(quotes, [cfg["interval_ms"]], window, "--interval-ms")[0], {}
    if window is not None:  # a view: the loader checked that the blocks increase
        blocks = blocks[np.searchsorted(blocks, window[0]):
                        np.searchsorted(blocks, window[1], "right")]
        if not len(blocks):
            raise InputError("--window {}:{} holds none of the --blocks".format(*window))
    fills = _block_fills(quotes, blocks)  # the coverage rule, then the blocks with no kline
    counters = ({"block_price_fills": fills, "blocks": int(len(blocks))}
                if feed["feed_kind"] == "mid" else {})
    return BlockSchedule.from_blocks(blocks), counters


@contextlib.contextmanager
def _initial_state(cfg: dict, quotes, start_ms: int, fee: float):
    """Pool at the --initial-price, or at the quote mid at start_ms, a checked schedule's start.
    PoolState's fault, and a replay fault in the block, come out with the words naming that
    price after their own: that option or the feed's mid set the pool out of range."""
    price, reserve_x = cfg["initial_price"], cfg["initial_reserve_x"]
    if price is None:
        i = _locf_index(quotes.timestamps, [start_ms])[0]
        price = 0.5 * (float(quotes.bids[i]) + float(quotes.asks[i]))
        named = f"{price}, the {_flag(_one_of(cfg, 'quotes', 'klines'))} mid at {start_ms}"
    else:
        named = f"--initial-price {price}"
    try:
        pool = PoolState(reserve_x, reserve_x * price, fee)
    except InputError as exc:  # a reserve or their product past the float range
        raise InputError(f"{exc}; the pool is priced at --initial-reserve-x {reserve_x} "
                         f"times {named}") from None
    try:
        yield pool
    except ReplayError as exc:
        raise InputError(f"{exc}; the pool is priced at {named}") from None


def _arb_run(cfg: dict, fee: float):
    """Losses of the feed replayed over the schedule, scaled by --concentration-k, the
    schedule, the manifest parameters of the run and its fill counters."""
    quotes, feed = _load_feed(cfg)
    schedule, counters = _make_schedule(cfg, quotes, feed)
    with _initial_state(cfg, quotes, schedule.first_ms, fee) as initial:
        run = run_arb_sim(initial, quotes, schedule)
    factor = cfg["concentration_k"]
    parameters = {**feed, "pair": cfg["pair"], "fee": fee, "seed": cfg["seed"],
                  "concentration_k": factor}
    return run.scaled(factor), schedule, parameters, counters


def _fee_ledger(cfg: dict):
    """Fee ledger of the --swaps position, its returns scaled by --concentration-k, and the
    number of swaps: the file is read and attributed a chunk at a time, never held whole."""
    ledger, n_records = _attributed_file(_require_file(_require(cfg, "swaps")),
                                         cfg["position_liquidity"], cfg["per_block"])
    return ledger.scaled(cfg["concentration_k"]), n_records


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
    run, schedule, parameters, counters = _arb_run(cfg, _require(cfg, "fee_bps") / 1e4)
    return Output(
        {"losses.csv": _losses_table(run, schedule)},
        {**parameters, "interval_ms": schedule.interval_ms, "n_instants": int(run.n_instants)},
        counters,
        {"total_relative_loss": run.total_relative_loss, "n_events": int(len(run.losses)),
         "n_dropped": run.n_dropped, "window_ms": run.window_ms},
    )


def _fee_returns_table(ledger):
    """fee_returns.csv, one row per ledger return, in blocks of _CHUNK_ROWS returns: each
    block folds its cumulative growth on from the block before, as _losses_table does."""
    product = 1.0  # the growth so far
    for lo in range(0, max(len(ledger.returns), 1), _CHUNK_ROWS):  # an empty ledger: a header
        returns = ledger.returns[lo:lo + _CHUNK_ROWS]
        growth = 1.0 + returns
        if len(growth):
            product = _fold(growth, product)
        yield {"schema_version": SCHEMA_VERSION,
               "timestamp_ms": ledger.timestamps[lo:lo + _CHUNK_ROWS],
               "relative_fee_return": returns, "cumulative_growth": growth}


def cmd_fees(cfg: dict) -> Output:
    ledger, n_records = _fee_ledger(cfg)
    return Output(
        {"fee_returns.csv": _fee_returns_table(ledger)},
        {"pair": cfg["pair"], "position_liquidity": ledger.position_liquidity,
         "per_block": cfg["per_block"], "concentration_k": cfg["concentration_k"],
         "seed": cfg["seed"]},
        {"n_records": n_records},
        {"cumulative_fee_return": float(ledger.cumulative_growth) - 1.0,
         "n_periods": int(len(ledger.returns))},
    )


def cmd_compare(cfg: dict) -> Output:
    fee = _require(cfg, "fee_bps") / 1e4  # before the --swaps are read
    window_ms = int(cfg["ratio_window_days"] * DAY_MS)
    ledger, _ = _fee_ledger(cfg)
    run, _, parameters, counters = _arb_run(cfg, fee)
    position_liquidity, merged = ledger.position_liquidity, _merged(ledger, run)
    del ledger  # the fees are on the timeline: the ledger goes before the running sums are built
    report = _running_sums(*merged, window_ms)
    return Output(
        {"comparison.csv": [{
            "schema_version": SCHEMA_VERSION, "timestamp_ms": report.timestamps,
            "fee_return": report.fee_returns, "loss_return": report.loss_returns,
            "cumulative_difference": report.cumulative_difference,
            "trailing_ratio": report.trailing_ratio,
        }]},
        {**parameters, "position_liquidity": position_liquidity, "ratio_window_ms": window_ms},
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
    quotes, feed = _load_feed(cfg)
    window, fit_range = cfg["window"], cfg["fit_range"]
    if command == "sweep-fee":  # the pool is priced at fee 0; each point sets its own
        intervals, fee, flag = [_require(cfg, "interval_ms")], 0.0, "--interval-ms"
        named = flag  # the grid, by its flag, in the resolution rule's fault
        grid = {"interval_ms": intervals[0], "fees_bps": cfg["fees_bps"]}
        if fit_range is not None:
            fit_range = (fit_range[0] / 1e4, fit_range[1] / 1e4)
    else:
        fee, flag = _require(cfg, "fee_bps") / 1e4, "--intervals-ms"
        given = _one_of(cfg, "intervals_ms", "extended")
        named = f"the {_flag(given) if given else 'default ' + flag} grid's interval"
        intervals = cfg["intervals_ms"] or list(EXTENDED_INTERVALS_MS if cfg["extended"]
                                                else DEFAULT_INTERVALS_MS)
        grid = {"fee": fee, "intervals_ms": intervals}
    grids = _grids(quotes, intervals, window, flag)  # checked before pricing
    _resolution_rule(quotes, grids, named, f"the {_flag(_one_of(cfg, 'quotes', 'klines'))} "
                     "feed's quote-update resolution")
    with _initial_state(cfg, quotes, grids[0].first_ms, fee) as pool:
        if command == "sweep-fee":
            sweep = fee_sweep(pool.reserve_x, pool.reserve_y, quotes, intervals[0],
                              [bps / 1e4 for bps in grid["fees_bps"]], window)
        else:
            sweep = blocktime_sweep(pool, quotes, intervals, window)
    del quotes  # the quotes go before the fit, the table and the hashes
    return Output(
        {"sweep.csv": [{
            "schema_version": SCHEMA_VERSION, sweep.parameter: sweep.values,
            "total_relative_loss": sweep.total_losses,
            "annualized_loss": sweep.annualized_losses, "n_events": sweep.n_events,
        }]},
        {**grid, **feed, "pair": cfg["pair"], "window": window, "seed": cfg["seed"],
         "fit": _fit(sweep, fit_range)},
        {},
        {"total_losses": [float(v) for v in sweep.total_losses]},
    )


def cmd_synth_gbm(cfg: dict) -> Output:
    sigma, step, horizon = (_require(cfg, key) for key in ("sigma", "step_ms", "horizon_ms"))
    seed = 0 if cfg["seed"] is None else cfg["seed"]
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
_POSITIVE = {**_NUMBER, "check": _is_positive, "rule": "finite and positive"}
_FEE_BPS = {**_NUMBER, "check": lambda bps: _is_fee(bps / 1e4), "rule": "in [0, 10000)"}
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
                 "check": lambda w: w[0] < w[1] and _in_int64(w[0]) and _in_int64(w[1]),
                 "rule": "START_MS:END_MS with START_MS < END_MS, both in the int64 range",
                 "help": "schedule window START_MS:END_MS"},
    "--initial-price": {**_POSITIVE,
                        "help": "initial pool price (default: first prevailing quote mid)"},
    "--initial-reserve-x": {**_POSITIVE, "default": "1",
                            "help": "initial X reserve (losses are scale-invariant)"},
    "--fee-bps": {**_FEE_BPS, "help": "pool fee in basis points"},
    "--interval-ms": {**_POSITIVE_INTEGER, "help": "fixed block interval"},
    "--concentration-k": {**_NUMBER, "check": _is_concentration,
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
                   "check": _increasing(_FEE_BPS["check"]),
                   "rule": "strictly increasing values in [0, 10000)",
                   "default": "10,20,30,50,100", "help": "comma-separated fee grid in bps"},
    "--fit-range": {"type": functools.partial(_pair, kind=float),
                    "check": lambda r: -math.inf < r[0] < r[1] < math.inf,  # NaN fails
                    "rule": "a fit range LO:HI with finite LO < HI",
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
        for name in list(output.tables):  # each table is let go once written: see _sha256
            _write_table(out / name, output.tables.pop(name))
        _write_manifest(out, args.command, cfg, output)
        return 0
    except InsufficientDataError as exc:  # the feed misses an instant of the schedule
        feed = _one_of(cfg, "quotes", "klines")
        over = " over --window {}:{}".format(*cfg["window"]) if cfg["window"] else ""
        print(f"error: {_flag(feed)} {cfg[feed]}: {exc}{over}", file=sys.stderr)
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
