"""External market data: loading, normalization, alignment.

File schemas (CSV, header row optional, gzip detected by .gz suffix):
  klines:        timestamp_ms,open,high,low,close,volume
  quote updates: timestamp_ms,bid,ask
  blocks:        block_number,timestamp_s

Timestamps are UTC integer milliseconds everywhere inside the package;
block timestamps (whole seconds) are multiplied by 1000 at ingestion.
The price at an instant is the last update at or before it (last
observation carried forward, _locf_index): the most recent known quote is
the only price an arbitrageur can actually act on, and interpolation would
leak future information.
"""
from __future__ import annotations

import csv
import gzip
import io
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .arbitrage import Quote
from .errors import InputError, InsufficientDataError, ParseError

logger = logging.getLogger(__name__)


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

    The line number is the physical line the row starts on. exact=False
    allows extra trailing columns (exchange dumps append them).
    """
    with _open_text(path) as handle:
        reader = csv.reader(handle)
        line = 1  # where the next row starts
        try:
            for row in reader:
                lineno, line = line, reader.line_num + 1
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if lineno == 1:
                    try:
                        float(row[0])
                    except ValueError:
                        continue  # header
                if len(row) < n_columns or (exact and len(row) != n_columns):
                    expected = str(n_columns) if exact else f"at least {n_columns}"
                    raise ParseError(str(path), lineno,
                                     f"expected {expected} columns, got {len(row)}")
                yield lineno, row
        except csv.Error as err:  # e.g. a cell over csv.field_size_limit()
            raise ParseError(str(path), line, f"unreadable row: {err}") from None


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
    """The leading len(dtypes) columns of a CSV in one np.loadtxt call, or None.

    None means loadtxt rejected the file. With exact=False, column
    n_columns - 1 is read as well, unparsed, so that a short row fails here too.
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
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(str(path), lineno, f"bad {name}: {text!r}")
    return value


def _load_columns(path: str, n_columns: int, exact: bool, columns, rules) -> tuple:
    """The leading columns of a CSV as arrays, or the ParseError of its first faulty row.

    columns holds a (name, cell parser, dtype) per column; rules(*arrays) gives
    the loader's ordered (row mask, message for row i) pairs. Unless a mask
    fires on the loadtxt columns, _iter_rows reads the rows again through the
    cell parsers, and the rules run on those columns once they hold the row
    flagged (or 8192 rows), then at each doubling. The first faulty row wins;
    within it a cell that does not parse, then the first rule.
    """
    dtypes = [dtype for _, _, dtype in columns]
    fast = _read_columns(path, n_columns, exact, dtypes)
    fault = None if fast is None else _first_fault(rules(*fast))
    if fast is not None and fault is None:
        return fast
    check_at = 8192 if fault is None else fault[0] + 1
    values, lines, error = tuple([] for _ in columns), [], None

    def arrays():
        return tuple(np.array(column, dtype) for column, dtype in zip(values, dtypes))

    try:
        for line, row in _iter_rows(path, n_columns, exact):
            cells = [parse(path, line, text, name) for (name, parse, _), text in zip(columns, row)]
            for column, cell in zip(values, cells):
                column.append(cell)
            lines.append(line)
            if len(lines) == check_at:
                if _first_fault(rules(*arrays())):
                    break
                check_at *= 2
    except ParseError as err:
        error = err
    fault = _first_fault(rules(*(result := arrays())))
    if fault or error:  # a rule fault lies on a row before the one that does not parse
        raise ParseError(str(path), lines[fault[0]], fault[1]) if fault else error
    return result


def _first_fault(rules) -> tuple | None:
    """(row, message) of the first row a mask flags, the earlier rule on a tie."""
    hits = [(int(mask.argmax()), n) for n, (mask, _) in enumerate(rules) if mask.any()]
    if hits:
        i, n = min(hits)
        return i, rules[n][1](i)


def _not_positive(values: np.ndarray) -> np.ndarray:
    return ~((values > 0) & (values < np.inf))  # NaN fails both comparisons


def _vs_previous(values: np.ndarray, fault) -> np.ndarray:
    """Row mask of fault(previous value, value); the first row has no previous."""
    mask = np.zeros(len(values), dtype=bool)
    mask[1:] = fault(values[:-1], values[1:])
    return mask


def load_klines(path: str, pair: str = "", source: str = "") -> PriceSeries:
    """Load per-second open prices from a kline CSV.

    Only timestamp_ms and open are consumed. Rows must be strictly
    increasing in time; duplicates are rejected.
    """
    ts, opens = _load_columns(
        path, 6, False, [("timestamp_ms", _parse_int, np.int64),
                         ("open", _parse_float, np.float64)],
        lambda ts, opens: [
            (_not_positive(opens), lambda i: f"open price must be positive, got {opens[i]}"),
            (_vs_previous(ts, np.greater_equal),
             lambda i: f"timestamps not strictly increasing: {ts[i]} after {ts[i - 1]}")])
    return PriceSeries(ts, opens, pair, source)


def load_quote_updates(path: str, pair: str = "", source: str = "") -> QuoteSeries:
    """Load best bid/ask updates from a quote CSV.

    Rows with bid > ask are rejected. Several updates within the same
    millisecond collapse to the last one (exchange dumps emit them in
    sequence); the number dropped is logged.
    """
    ts, bids, asks = _load_columns(
        path, 3, True, [("timestamp_ms", _parse_int, np.int64), ("bid", _parse_float, np.float64),
                        ("ask", _parse_float, np.float64)],
        lambda ts, bids, asks: [
            (~((0 < bids) & (bids <= asks) & (asks < np.inf)),
             lambda i: f"invalid quote bid={bids[i]} ask={asks[i]}"),
            (_vs_previous(ts, np.greater),
             lambda i: f"timestamps decreasing: {ts[i]} after {ts[i - 1]}")])
    keep = np.ones(len(ts), dtype=bool)
    keep[:-1] = ts[1:] > ts[:-1]  # the last update of each millisecond
    if not keep.all():
        logger.warning("%s: dropped %d earlier duplicate-timestamp updates",
                       path, len(ts) - np.count_nonzero(keep))
    return QuoteSeries(ts[keep], bids[keep], asks[keep], pair, source)


# block seconds whose milliseconds fit in int64
_BLOCK_S_LIMIT = 2**63 // 1000


def load_block_timestamps(path: str) -> np.ndarray:
    """Load block timestamps (seconds) and return them in milliseconds."""
    _, seconds = _load_columns(
        path, 2, True,
        [("block_number", _parse_int, np.int64), ("timestamp_s", _parse_int, np.int64)],
        lambda numbers, ts: [
            ((ts <= -_BLOCK_S_LIMIT) | (ts >= _BLOCK_S_LIMIT),
             lambda i: f"bad timestamp_s: {ts[i]} does not fit in 64 bits in milliseconds"),
            (_vs_previous(numbers, np.greater_equal),
             lambda i: f"block numbers not increasing at {numbers[i]}"),
            (_vs_previous(ts, np.greater_equal),
             lambda i: f"block timestamps not increasing at {ts[i]}")])
    return seconds * 1000


def _locf_index(timestamps: np.ndarray, instants) -> np.ndarray:
    """Index of the last stamp at or before each instant (last observation carried forward).

    The instants are in increasing order. An empty series, or a first instant
    before the first stamp, raises InsufficientDataError; an instant past the
    last stamp gets the last index.
    """
    instants = np.asarray(instants, dtype=np.int64)
    if len(timestamps) == 0:
        raise InsufficientDataError("the series holds no update to carry forward")
    if len(instants) and instants[0] < timestamps[0]:
        raise InsufficientDataError(
            f"no update at or before instant {instants[0]}; the first is at {timestamps[0]}"
        )
    return np.searchsorted(timestamps, instants, side="right") - 1


def align_to_blocks(
    series: PriceSeries, block_timestamps_ms: np.ndarray
) -> tuple[PriceSeries, int]:
    """Opening price of the second each block lands in, one point per block.

    When the block's second is missing from the feed, the most recent
    earlier price is carried forward; the number of such fills is returned
    so runs can report it.
    """
    blocks = np.asarray(block_timestamps_ms, dtype=np.int64)
    idx = _locf_index(series.timestamps, blocks)
    fills = int(np.sum(series.timestamps[idx] != blocks))
    return (
        PriceSeries(blocks, series.prices[idx], series.pair, series.source),
        fills,
    )
