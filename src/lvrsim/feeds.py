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

import contextlib
import csv
import functools
import gzip
import io
import itertools
import math
import os
import re
import warnings
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .arbitrage import _BAND_FAULT, Quote
from .errors import InputError, InsufficientDataError, ParseError
from .pool import _in_band, _in_int64, _is_positive

_GZIP_ERRORS = (EOFError, zlib.error, gzip.BadGzipFile)  # reading a damaged or non-gzip .gz
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # a non-UTF-8 byte, as surrogateescape reads it
_CHUNK = 16384  # rows a chunked pass holds at a time, so that it holds no full-length array


@dataclass(frozen=True)
class PriceSeries:
    """Mid/open price series, strictly increasing in time."""

    timestamps: np.ndarray  # int64 ms
    prices: np.ndarray  # float64

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.int64))
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=float))
        if self.timestamps.shape != self.prices.shape:
            raise InputError("timestamps and prices must have equal length")
        _check(lambda ts, prices: [_positive(prices, "price"), _stamp_order(ts)],
               self.timestamps, self.prices)

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class QuoteSeries:
    """Best bid/ask series, strictly increasing in time (a quotes file may repeat a stamp)."""

    timestamps: np.ndarray  # int64 ms
    bids: np.ndarray
    asks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.int64))
        object.__setattr__(self, "bids", np.asarray(self.bids, dtype=float))
        object.__setattr__(self, "asks", np.asarray(self.asks, dtype=float))
        if not (self.timestamps.shape == self.bids.shape == self.asks.shape):
            raise InputError("timestamps, bids and asks must have equal length")
        _check(lambda ts, bids, asks: [_quote_band(bids, asks), _stamp_order(ts, strict=False),
                                       _stamp_order(ts)],
               self.timestamps, self.bids, self.asks)

    def __len__(self) -> int:
        return len(self.timestamps)

    @functools.cached_property
    def resolution_ms(self) -> int:
        """Least gap between neighbouring updates, 0 for fewer than two."""
        return _min_gap(self.timestamps)

    def __getitem__(self, i: int) -> Quote:
        return Quote(int(self.timestamps[i]), float(self.bids[i]), float(self.asks[i]))


def quotes_from_prices(series: PriceSeries) -> QuoteSeries:
    """Treat a mid/open price series as a zero-spread quote series."""
    # increasing stamps and finite positive prices: what QuoteSeries checks when bids are asks
    return _unchecked(QuoteSeries, series.timestamps, series.prices, series.prices)


def _unchecked(cls, *values):
    """A cls holding values as its fields, in order, without the checks of cls.__post_init__:
    for values that have passed rules covering every one of those checks."""
    instance = object.__new__(cls)
    for f, value in zip(fields(cls), values):
        object.__setattr__(instance, f.name, value)
    return instance


def _open_bytes(path: str):
    """The file's bytes, decompressed when its name ends in .gz."""
    return gzip.open(path, "rb") if str(path).endswith(".gz") else open(path, "rb")


def _csv_rows(path: str):
    """Yield (line_number, row) for each data row; blank rows and a line-1 header are skipped.

    The line number is the physical line the row starts on. A byte that is not
    UTF-8, a row csv.reader refuses and damaged gzip data raise a ParseError.
    """
    def lines(handle):
        for number, text in enumerate(handle, 1):
            if not text.isascii() and (byte := _ESCAPED_BYTE.search(text)):
                raise ParseError(str(path), number,
                                 f"not UTF-8 text: byte 0x{ord(byte[0]) - 0xDC00:02x}")
            yield text

    with io.TextIOWrapper(_open_bytes(path), encoding="utf-8", errors="surrogateescape",
                          newline="") as handle:
        reader = csv.reader(lines(handle))
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
                yield lineno, row
        except csv.Error as err:  # e.g. a cell over csv.field_size_limit()
            raise ParseError(str(path), line, f"unreadable row: {err}") from None
        except _GZIP_ERRORS as err:
            raise ParseError(str(path), line, f"unreadable gzip data: {err}") from None


def _iter_rows(path: str, n_columns: int, exact: bool = True):
    """_csv_rows' rows, of n_columns cells; exact=False allows more (exchange dumps add some)."""
    for lineno, row in _csv_rows(path):
        if len(row) < n_columns or (exact and len(row) != n_columns):
            expected = str(n_columns) if exact else f"at least {n_columns}"
            raise ParseError(str(path), lineno, f"expected {expected} columns, got {len(row)}")
        yield lineno, row


def _read_chunks(path: str, n_columns: int, exact: bool, dtypes, rows: int | None = None):
    """The leading len(dtypes) columns of a CSV as np.loadtxt reads them: one chunk from one
    call on the path (rows=None), else chunks of up to rows rows through one open handle, each
    call going on from the row the last one ended at; a file with no row gives one empty chunk.

    None, yielded last, sends the file to the row parser: a file that is not regular (it could
    not be read twice) or whose suffix numpy would decompress, at once; one that loadtxt
    rejects or that does not decompress, from there. loadtxt splits quoted cells as csv.reader
    does, and starts at the first row _csv_rows yields, whose ParseError is the row parser's.
    With exact=False, column n_columns - 1 is read as well, into a zero-width field, so that a
    short row fails in loadtxt too. A path is read whole because numpy reads a str path in
    blocks and any other source line by line: through a handle, klines parse 15-22 % slower
    and quotes 13-17 %, which buys holding no more than a chunk.
    """
    if str(path).endswith((".bz2", ".xz", ".lzma")) or not os.path.isfile(path):
        yield None
        return
    with contextlib.closing(_csv_rows(path)) as data:
        first = next(data, None)
    if first is None:  # loadtxt would warn that the file holds no data
        yield tuple(np.empty(0, dtype) for dtype in dtypes)
        return
    fields = [(f"c{i}", dtype) for i, dtype in enumerate(dtypes)]
    usecols = None
    if not exact:
        usecols = (*range(len(fields)), n_columns - 1)
        fields.append(("last", "U0"))
    skip = first[0] - 1
    # absolute, so that numpy does not take a name like a://b/k.csv for a URL
    with (contextlib.nullcontext(os.path.abspath(path)) if rows is None else
          io.TextIOWrapper(_open_bytes(path), encoding="utf-8")) as source:
        while True:
            try:
                with warnings.catch_warnings():  # a file ending at a chunk's end has no more
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    # comments=None: the row parser rejects what '#' would skip
                    table = np.loadtxt(source, dtype=fields, delimiter=",", comments=None,
                                       quotechar='"', skiprows=skip, usecols=usecols,
                                       max_rows=rows, ndmin=1, encoding="utf-8")
            except (ValueError, *_GZIP_ERRORS):
                yield None
                return
            # strided views, not copies, whose records hold nothing but the columns yielded
            yield tuple(table[name] for name in table.dtype.names[:len(dtypes)])
            if rows is None or len(table) < rows:
                return
            skip = 0


def _parse_int(path: str, lineno: int, text: str, name: str, int64: bool = True) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(str(path), lineno, f"bad {name}: {text!r}") from None
    if int64 and not _in_int64(value):
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
    """The leading columns of a CSV as arrays, or the ParseError of its first faulty row:
    _column_chunks' one chunk, read by one np.loadtxt call on the path."""
    first, *rest = _column_chunks(path, n_columns, exact, columns, rules)
    # a second chunk only where loadtxt misread a row that the row parser reads
    return tuple(np.concatenate(parts) for parts in zip(first, *rest)) if rest else first


def _column_chunks(path: str, n_columns: int, exact: bool, columns, rules, rows=None):
    """The leading columns of a CSV as chunks of arrays, each checked as it is read, or the
    ParseError of the file's first faulty row.

    _read_chunks reads them: rows=None gives one chunk, from one np.loadtxt call on the
    path; else loadtxt reads chunks of rows rows through one open handle. columns holds a
    (name, cell parser, dtype) per column; rules(*arrays) gives the loader's ordered (row
    mask, message for row i) pairs, which _chunk_fault applies to each chunk, with the last
    row of the chunk before. From the first chunk that loadtxt rejects or that a mask fires
    on, the row parser reads the file instead (_parsed_chunks).
    """
    dtypes = [dtype for _, _, dtype in columns]
    done, before, flagged = 0, None, None  # rows yielded, the last of them, the row flagged
    for chunk in _read_chunks(path, n_columns, exact, dtypes, rows):
        if chunk is None:
            break
        if fault := _chunk_fault(rules, chunk, before):
            flagged = done + fault[0]
            break
        yield chunk
        if n := len(chunk[0]):
            done, before = done + n, tuple(column[-1:].copy() for column in chunk)
    else:
        return
    yield from _parsed_chunks(
        path, n_columns, exact, lambda line, row: [
            parse(path, line, text, name) for (name, parse, _), text in zip(columns, row)],
        dtypes, rules, rows, done, before, flagged)


def _parsed_chunks(path: str, n_columns: int, exact: bool, cells, dtypes, rules, rows=None,
                   done: int = 0, before=None, flagged=None):
    """_column_chunks from row done on, after the row before, read by _iter_rows: cells(line,
    row) gives a row's values, of dtypes, or raises its ParseError (the cell parsers, or
    convert_raw_swap_export's conversion of a raw row).

    The rows before done are parsed too, so that the first row of the file that does not
    parse is the one named. The first chunk ends at the row flagged on loadtxt's columns, if
    any, so that the pass stops there; a rule fault comes before the row that does not parse,
    and the first faulty row wins. Rows that loadtxt misread (a padded token) are read on.
    """
    def parsed():
        for number, (line, row) in enumerate(_iter_rows(path, n_columns, exact)):
            row = cells(line, row)
            if number >= done:
                yield line, row

    parsed_rows = parsed()
    first = [] if flagged is None else [flagged - done + 1]
    for size in itertools.chain(first, itertools.repeat(rows)):
        values, lines, error = tuple([] for _ in dtypes), [], None
        try:
            for line, row in itertools.islice(parsed_rows, size):
                for column, cell in zip(values, row):
                    column.append(cell)
                lines.append(line)
        except ParseError as err:
            error = err
        chunk = tuple(np.array(column, dtype) for column, dtype in zip(values, dtypes))
        if fault := _chunk_fault(rules, chunk, before):
            raise ParseError(str(path), lines[fault[0]], fault[1])
        if error:
            raise error
        yield chunk
        if size is None or len(lines) < size:
            return
        before = tuple(column[-1:] for column in chunk)


def _chunk_fault(rules, chunk, before) -> tuple | None:
    """_first_fault of a chunk whose first row comes after before, a row of each column (or
    None): that row's order against before is checked on the two rows alone, whose first,
    checked with its own chunk, no mask flags."""
    if before is not None and len(chunk[0]):
        edge = tuple(np.concatenate([last, column[:1]]) for last, column in zip(before, chunk))
        if fault := _first_fault(rules, edge):
            return 0, fault[1]
    return _first_fault(rules, chunk)


def _first_fault(rules, columns) -> tuple | None:
    """(row, message) of the first row that a mask of rules(*columns) flags, the earlier rule
    on a tie.

    The rules run on _CHUNK rows at a time, each chunk after the first with the row before
    it, whose masks are not read: so _stamp_order compares every row with the one before,
    and no mask is longer than a chunk and a row. The row and the message are those of one
    scan of the whole columns.
    """
    n = len(columns[0])
    for start in range(0, n, _CHUNK):
        carried = min(start, 1)  # the row before the chunk
        rules_of_chunk = rules(*(column[start - carried:start + _CHUNK] for column in columns))
        hits = [(int(mask[carried:].argmax()), k)
                for k, (mask, _) in enumerate(rules_of_chunk) if mask[carried:].any()]
        if hits:
            i, k = min(hits)
            return start + i, rules_of_chunk[k][1](carried + i)
    return None


def _check(rules, *columns) -> None:
    """A series type's check: _first_fault's message raised as an InputError, with no line."""
    if fault := _first_fault(rules, columns):
        raise InputError(fault[1])


# The rules that loaders and series types share: each gives (row mask, message for row i)
def _rule(holds, message: str, *columns) -> tuple:
    """A value rule (pool._is_positive, pool._in_band, fees._SWAP_RULES) on columns: the rows
    it does not hold of, and message formatted with row i's values, as a scalar type does."""
    return ~holds(*columns), lambda i: message.format(*(column[i] for column in columns))


def _positive(values: np.ndarray, name: str) -> tuple:
    """Each value finite and above 0."""
    return _rule(_is_positive, name + " must be positive, got {}", values)


def _quote_band(bids: np.ndarray, asks: np.ndarray) -> tuple:
    """0 < bid <= ask < inf, with Quote's message."""
    return _rule(_in_band, _BAND_FAULT, bids, asks)


def _stamp_order(values: np.ndarray, name: str = "timestamps", strict: bool = True) -> tuple:
    """Each value above the one before (strict), else not below it; the first has no previous."""
    mask = np.zeros(len(values), dtype=bool)
    (np.greater_equal if strict else np.greater)(values[:-1], values[1:], out=mask[1:])
    fault = "not strictly increasing" if strict else "decreasing"
    return mask, lambda i: f"{name} {fault}: {values[i]} after {values[i - 1]}"


def load_klines(path: str) -> PriceSeries:
    """Load per-second open prices from a kline CSV.

    Only timestamp_ms and open are consumed. Rows must be strictly
    increasing in time; duplicates are rejected.
    """
    ts, opens = _load_columns(
        path, 6, False, [("timestamp_ms", _parse_int, np.int64),
                         ("open", _parse_float, np.float64)],
        lambda ts, opens: [_positive(opens, "open price"), _stamp_order(ts)])
    return _unchecked(PriceSeries, ts, opens)  # PriceSeries' rules: only a column name differs


def load_quote_updates(path: str) -> QuoteSeries:
    """Load best bid/ask updates from a quote CSV.

    Rows with bid > ask are rejected. Several updates within the same
    millisecond collapse to the last one (exchange dumps emit them in
    sequence); the number dropped is logged.
    """
    ts, bids, asks = _load_columns(
        path, 3, True, [("timestamp_ms", _parse_int, np.int64), ("bid", _parse_float, np.float64),
                        ("ask", _parse_float, np.float64)],
        lambda ts, bids, asks: [_quote_band(bids, asks), _stamp_order(ts, strict=False)])
    kept = _keep_last_of_each_stamp(ts, bids, asks)
    if kept < len(ts):
        import logging  # here, not at the top: a run that never warns need not load it

        logging.getLogger(__name__).warning("%s: dropped %d earlier duplicate-timestamp updates",
                                            path, len(ts) - kept)
    # QuoteSeries' rules: the repeats its strict order rejects are dropped
    return _unchecked(QuoteSeries, ts[:kept], bids[:kept], asks[:kept])


def _keep_last_of_each_stamp(ts: np.ndarray, *columns: np.ndarray) -> int:
    """Move the last row of each run of equal stamps to the front of every column, in place,
    and return their number. A kept row only moves to an index at or below its own, so each
    chunk is read before anything overwrites it; no column is copied whole."""
    n, kept = len(ts), 0
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        later = ts[start + 1:stop + 1]
        keep = np.ones(stop - start, dtype=bool)  # the last row has no later one
        np.greater(later, ts[start:start + len(later)], out=keep[:len(later)])
        n_kept = int(np.count_nonzero(keep))
        if kept < start or n_kept < stop - start:  # else every row so far stays where it is
            for column in (ts, *columns):
                column[kept:kept + n_kept] = column[start:stop][keep]
        kept += n_kept
    return kept


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
            _stamp_order(numbers, "block numbers"), _stamp_order(ts, "block timestamps")])
    return seconds * 1000


def _locf_index(timestamps: np.ndarray, instants) -> np.ndarray:
    """Index of the last stamp at or before each instant (last observation carried forward).

    Precondition: the instants are increasing and covered, as _check_coverage
    checks, so the stamps are not empty and no instant is before the first.
    An instant past the last stamp gets the last index.
    """
    return np.searchsorted(timestamps, instants, side="right") - 1


def _min_gap(values: np.ndarray) -> int:
    """Least difference of neighbours in strictly increasing int64 values; 0 for fewer than two."""
    # unsigned, so that a gap wider than the int64 range does not wrap
    values = np.asarray(values, dtype=np.int64).view(np.uint64)
    return min((int(np.diff(values[i:i + _CHUNK + 1]).min())
                for i in range(0, len(values) - 1, _CHUNK)), default=0)


def _check_coverage(series: PriceSeries | QuoteSeries, instants) -> None:
    """The coverage rule: a schedule needs an update at or before its first instant and
    updates reaching its last (only its ends are read); an empty series covers none."""
    cover = series.timestamps[[0, -1]].tolist() if len(series) else []  # shown as [a, b]
    needs = [int(instants[0]), int(instants[-1])] if len(instants) else []
    if not cover or needs and not (cover[0] <= needs[0] and needs[1] <= cover[1]):
        updates = "quotes" if isinstance(series, QuoteSeries) else "prices"
        raise InsufficientDataError(f"{updates} cover {cover} but the schedule needs {needs}")


def _block_fills(series: PriceSeries | QuoteSeries, blocks: np.ndarray) -> int:
    """The coverage rule on increasing blocks, then the number of them whose instant has no
    update of its own and reads the one before: _CHUNK blocks at a time."""
    _check_coverage(series, blocks)
    stamps = series.timestamps
    return sum(int(np.count_nonzero(stamps[_locf_index(stamps, chunk)] != chunk))
               for chunk in (blocks[i:i + _CHUNK] for i in range(0, len(blocks), _CHUNK)))


def align_to_blocks(
    series: PriceSeries, block_timestamps_ms: np.ndarray
) -> tuple[PriceSeries, int]:
    """Opening price of the second each block lands in, one point per block.

    The prices must cover the blocks at both ends, as quotes must cover a
    schedule; _check_coverage checks this before any block is priced. When a
    block's second is missing from the feed, the most recent earlier price is
    carried forward; the number of such fills is returned so runs can report it.
    """
    blocks = np.asarray(block_timestamps_ms, dtype=np.int64)
    fills = _block_fills(series, blocks)
    return PriceSeries(blocks, series.prices[_locf_index(series.timestamps, blocks)]), fills
