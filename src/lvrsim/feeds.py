"""External market data: loading, normalization, derivation, resampling.

File schemas (CSV, header row optional, gzip detected by .gz suffix):
  klines:        timestamp_ms,open,high,low,close,volume
  quote updates: timestamp_ms,bid,ask
  blocks:        block_number,timestamp_s

Timestamps are UTC integer milliseconds everywhere inside the package;
block timestamps (whole seconds) are multiplied by 1000 at ingestion.
All resampling is last-observation-carried-forward: the most recent known
quote is the only price an arbitrageur can actually act on, and
interpolation would leak future information.
"""
from __future__ import annotations

import csv
import gzip
import io
import itertools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .arbitrage import Quote
from .errors import InputError, InsufficientDataError, ParseError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PricePoint:
    timestamp: int  # ms
    price: float


@dataclass(frozen=True)
class PriceSeries:
    """Mid/open price series, strictly increasing in time."""

    timestamps: np.ndarray  # int64 ms
    prices: np.ndarray  # float64
    pair: str = ""
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.int64))
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=float))
        if self.timestamps.shape != self.prices.shape:
            raise InputError("timestamps and prices must have equal length")
        if np.any(self.timestamps[1:] <= self.timestamps[:-1]):  # np.diff can wrap
            raise InputError("price series timestamps must be strictly increasing")
        if np.any(self.prices <= 0) or not np.all(np.isfinite(self.prices)):
            raise InputError("prices must be finite and positive")

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i: int) -> PricePoint:
        return PricePoint(int(self.timestamps[i]), float(self.prices[i]))


@dataclass(frozen=True)
class QuoteSeries:
    """Best bid/ask series, strictly increasing in time."""

    timestamps: np.ndarray  # int64 ms
    bids: np.ndarray
    asks: np.ndarray
    pair: str = ""
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.int64))
        object.__setattr__(self, "bids", np.asarray(self.bids, dtype=float))
        object.__setattr__(self, "asks", np.asarray(self.asks, dtype=float))
        if not (self.timestamps.shape == self.bids.shape == self.asks.shape):
            raise InputError("timestamps, bids and asks must have equal length")
        if np.any(self.timestamps[1:] <= self.timestamps[:-1]):  # np.diff can wrap
            raise InputError("quote series timestamps must be strictly increasing")
        if not np.all((0 < self.bids) & (self.bids <= self.asks) & (self.asks < np.inf)):
            raise InputError("quotes must be finite and satisfy 0 < bid <= ask")

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i: int) -> Quote:
        return Quote(int(self.timestamps[i]), float(self.bids[i]), float(self.asks[i]))


def quotes_from_prices(series: PriceSeries) -> QuoteSeries:
    """Treat a mid/open price series as a zero-spread quote series."""
    return QuoteSeries(
        series.timestamps, series.prices, series.prices, series.pair, series.source
    )


def _open_text(path: str) -> io.TextIOBase:
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", newline="")
    return open(path, "r", encoding="utf-8", newline="")


def _iter_rows(path: str, n_columns: int, exact: bool = True):
    """Yield (line_number, row) for each data row; a header row is skipped.

    exact=False allows extra trailing columns (exchange dumps append them).
    """
    with _open_text(path) as handle:
        reader = csv.reader(handle)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1:
                try:
                    float(row[0])
                except ValueError:
                    continue  # header
            if len(row) < n_columns or (exact and len(row) != n_columns):
                expected = str(n_columns) if exact else f"at least {n_columns}"
                raise ParseError(
                    str(path), lineno, f"expected {expected} columns, got {len(row)}"
                )
            yield lineno, row


def _unquoted(lines):
    """The lines, failing at the first '"'.

    csv.reader reads a quoted cell on across line breaks and np.loadtxt does
    not, so a file whose unparsed columns hold a quote goes to the row parser.
    """
    for line in lines:
        if '"' in line:
            raise ValueError("quoted cell")
        yield line


def _read_columns(path: str, n_columns: int, exact: bool, dtypes) -> tuple | None:
    """The leading len(dtypes) columns of a CSV, read in one np.loadtxt call.

    This is the fast path of every loader; None means loadtxt rejected the
    file, and the loader then re-reads it with _iter_rows, whose ParseError
    names the file and line. The header is found by the same first-line
    test. dtypes holds one dtype per column read, from the first; with
    exact=True that is every column, and a quote fails a conversion or the
    loader's checks. With exact=False, column n_columns - 1 is read as well,
    unparsed, so that a short row fails here too.
    """
    fields = [(f"c{i}", dtype) for i, dtype in enumerate(dtypes)]
    usecols = None
    if not exact:
        usecols = (*range(len(fields)), n_columns - 1)
        fields.append(("last", "U1"))
    with _open_text(path) as handle:
        line = handle.readline()
        if '"' in line:  # csv.reader unquotes the header test's cell
            return None
        if line.strip():
            try:
                float(line.split(",", 1)[0])
            except ValueError:
                line = handle.readline()  # header
        while line and not line.strip():
            line = handle.readline()
        if not line:  # loadtxt would warn that the file holds no data
            return tuple(np.empty(0, dtype) for dtype in dtypes)
        lines = itertools.chain([line], handle)
        try:
            # comments=None: the row parser rejects what '#' would skip
            table = np.loadtxt(lines if exact else _unquoted(lines), dtype=fields,
                               delimiter=",", comments=None, usecols=usecols, ndmin=1)
        except ValueError:
            return None
    return tuple(np.ascontiguousarray(table[name]) for name, _ in fields[:len(dtypes)])


def _parse_int(path: str, lineno: int, text: str, name: str, int64: bool = True) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(str(path), lineno, f"bad {name}: {text!r}") from None
    if int64 and not -(2**63) <= value < 2**63:
        raise ParseError(str(path), lineno, f"bad {name}: {text!r} does not fit in 64 bits")
    return value


def _parse_float(path: str, lineno: int, text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(str(path), lineno, f"bad {name}: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(str(path), lineno, f"bad {name}: {text!r}")
    return value


def _positive(values: np.ndarray) -> bool:
    """Every value finite and above zero (NaN fails both comparisons)."""
    return bool(np.all((values > 0) & (values < np.inf)))


def load_klines(path: str, pair: str = "", source: str = "") -> PriceSeries:
    """Load per-second open prices from a kline CSV.

    Only timestamp_ms and open are consumed. Rows must be strictly
    increasing in time; duplicates are rejected.
    """
    columns = _read_columns(path, 6, False, (np.int64, np.float64))
    if columns is not None:
        ts, opens = columns
        if np.all(ts[1:] > ts[:-1]) and _positive(opens):
            return PriceSeries(ts, opens, pair, source)
    ts, opens = [], []
    for lineno, row in _iter_rows(path, 6, exact=False):
        t = _parse_int(path, lineno, row[0], "timestamp_ms")
        p = _parse_float(path, lineno, row[1], "open")
        if p <= 0:
            raise ParseError(str(path), lineno, f"open price must be positive, got {p}")
        if ts and t <= ts[-1]:
            raise ParseError(
                str(path), lineno,
                f"timestamps not strictly increasing: {t} after {ts[-1]}",
            )
        ts.append(t)
        opens.append(p)
    return PriceSeries(np.array(ts, dtype=np.int64), np.array(opens), pair, source)


def load_quote_updates(path: str, pair: str = "", source: str = "") -> QuoteSeries:
    """Load best bid/ask updates from a quote CSV.

    Rows with bid > ask are rejected. Several updates within the same
    millisecond collapse to the last one (exchange dumps emit them in
    sequence); the number dropped is logged.
    """
    columns = _read_columns(path, 3, True, (np.int64, np.float64, np.float64))
    if columns is not None:
        ts, bids, asks = columns
        if (np.all(ts[1:] >= ts[:-1]) and _positive(bids) and np.all(bids <= asks)
                and _positive(asks)):
            keep = np.ones(len(ts), dtype=bool)
            keep[:-1] = ts[1:] > ts[:-1]  # the last update of each millisecond
            if not keep.all():
                logger.warning("%s: dropped %d earlier duplicate-timestamp updates",
                               path, len(ts) - np.count_nonzero(keep))
            return QuoteSeries(ts[keep], bids[keep], asks[keep], pair, source)
    ts, bids, asks = [], [], []
    dropped = 0
    for lineno, row in _iter_rows(path, 3):
        t = _parse_int(path, lineno, row[0], "timestamp_ms")
        bid = _parse_float(path, lineno, row[1], "bid")
        ask = _parse_float(path, lineno, row[2], "ask")
        if bid <= 0 or ask < bid:
            raise ParseError(str(path), lineno, f"invalid quote bid={bid} ask={ask}")
        if ts and t < ts[-1]:
            raise ParseError(
                str(path), lineno, f"timestamps decreasing: {t} after {ts[-1]}"
            )
        if ts and t == ts[-1]:
            bids[-1], asks[-1] = bid, ask
            dropped += 1
            continue
        ts.append(t)
        bids.append(bid)
        asks.append(ask)
    if dropped:
        logger.warning("%s: dropped %d earlier duplicate-timestamp updates", path, dropped)
    return QuoteSeries(np.array(ts, dtype=np.int64), np.array(bids), np.array(asks), pair, source)


def load_block_timestamps(path: str) -> np.ndarray:
    """Load block timestamps (seconds) and return them in milliseconds."""
    columns = _read_columns(path, 2, True, (np.int64, np.int64))
    if columns is not None:
        numbers, ts = columns
        if np.all(numbers[1:] > numbers[:-1]) and np.all(ts[1:] > ts[:-1]):
            return ts * 1000
    numbers, ts = [], []
    for lineno, row in _iter_rows(path, 2):
        n = _parse_int(path, lineno, row[0], "block_number")
        t = _parse_int(path, lineno, row[1], "timestamp_s")
        if numbers and n <= numbers[-1]:
            raise ParseError(str(path), lineno, f"block numbers not increasing at {n}")
        if ts and t <= ts[-1]:
            raise ParseError(str(path), lineno, f"block timestamps not increasing at {t}")
        numbers.append(n)
        ts.append(t)
    return np.array(ts, dtype=np.int64) * 1000


def resample_locf(
    series: QuoteSeries, interval_ms: int, window: tuple[int, int]
) -> QuoteSeries:
    """Sample the series on a regular grid, carrying the last update forward.

    Grid points are start, start+interval, ... up to and including end.
    Requires at least one update at or before the window start.
    """
    if interval_ms <= 0:
        raise InputError(f"interval must be positive, got {interval_ms}")
    start, end = int(window[0]), int(window[1])
    if end < start:
        raise InputError(f"window end {end} before start {start}")
    grid = np.arange(start, end + 1, int(interval_ms), dtype=np.int64)
    idx = np.searchsorted(series.timestamps, grid, side="right") - 1
    if len(idx) == 0 or idx[0] < 0:
        raise InsufficientDataError(
            f"no quote update at or before window start {start}"
        )
    return QuoteSeries(
        grid, series.bids[idx], series.asks[idx], series.pair, series.source
    )


def derive_cross_pair(a, b, pair: str = ""):
    """Cross rate A/B from two series quoted against a common leg.

    Mid/open series divide directly. Bid/ask series combine conservatively:
    the A/B buyer pays A's ask with B sold at its bid, so
    bid_A/B = bid_A / ask_B and ask_A/B = ask_A / bid_B.
    Both inputs must sit on an identical timestamp grid.
    """
    if not np.array_equal(a.timestamps, b.timestamps):
        raise InputError("cross-pair inputs must share the same timestamp grid")
    if isinstance(a, PriceSeries) and isinstance(b, PriceSeries):
        return PriceSeries(
            a.timestamps, a.prices / b.prices, pair, f"{a.source}/{b.source}"
        )
    if isinstance(a, QuoteSeries) and isinstance(b, QuoteSeries):
        return QuoteSeries(
            a.timestamps, a.bids / b.asks, a.asks / b.bids, pair,
            f"{a.source}/{b.source}",
        )
    raise InputError("cross-pair inputs must both be PriceSeries or both QuoteSeries")


def substitute_gap(primary, fallback, gap: tuple[int, int]):
    """Splice fallback data over [start, end]; primary is used outside it.

    The fallback must span the gap window. An empty interval returns the
    primary unchanged.
    """
    start, end = int(gap[0]), int(gap[1])
    if start >= end:
        return primary
    if type(primary) is not type(fallback):
        raise InputError("primary and fallback series must be the same type")
    if (
        len(fallback) == 0
        or fallback.timestamps[0] > start
        or fallback.timestamps[-1] < end
    ):
        raise InsufficientDataError(
            f"fallback does not cover the gap [{start}, {end}]"
        )
    keep = (primary.timestamps < start) | (primary.timestamps > end)
    take = (fallback.timestamps >= start) & (fallback.timestamps <= end)
    ts = np.concatenate([primary.timestamps[keep], fallback.timestamps[take]])
    order = np.argsort(ts, kind="stable")
    logger.info(
        "substitute_gap [%d, %d]: %d primary rows replaced by %d fallback rows",
        start, end, int(np.sum(~keep)), int(np.sum(take)),
    )

    def pick(column_primary, column_fallback):
        return np.concatenate([column_primary[keep], column_fallback[take]])[order]

    if isinstance(primary, PriceSeries):
        return replace(primary, timestamps=ts[order], prices=pick(primary.prices, fallback.prices))
    return replace(
        primary,
        timestamps=ts[order],
        bids=pick(primary.bids, fallback.bids),
        asks=pick(primary.asks, fallback.asks),
    )


def align_to_blocks(
    series: PriceSeries, block_timestamps_ms: np.ndarray
) -> tuple[PriceSeries, int]:
    """Opening price of the second each block lands in, one point per block.

    When the block's second is missing from the feed, the most recent
    earlier price is carried forward; the number of such fills is returned
    so runs can report it.
    """
    blocks = np.asarray(block_timestamps_ms, dtype=np.int64)
    if len(blocks) == 0:
        return PriceSeries(blocks, np.array([]), series.pair, series.source), 0
    if len(series) == 0 or blocks[0] < series.timestamps[0]:
        raise InsufficientDataError("price series does not cover the first block")
    idx = np.searchsorted(series.timestamps, blocks, side="right") - 1
    fills = int(np.sum(series.timestamps[idx] != blocks))
    return (
        PriceSeries(blocks, series.prices[idx], series.pair, series.source),
        fills,
    )
