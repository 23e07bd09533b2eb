import dataclasses
import gzip
import logging
import math
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import lvrsim.feeds as feeds
import lvrsim.fees as fees
import lvrsim.simulation as simulation
from lvrsim import (
    BlockSchedule,
    InputError,
    InsufficientDataError,
    ParseError,
    PoolState,
    PriceSeries,
    Quote,
    QuoteSeries,
    SwapTable,
    align_to_blocks,
    fixed_schedule,
    load_block_timestamps,
    load_klines,
    load_quote_updates,
    load_swap_records,
    quotes_from_prices,
    run_arb_sim,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadKlines:
    def test_extracts_timestamp_and_open(self, tmp_path):
        path = write(tmp_path, "k.csv",
                     "1672531200000,1200.50,1210,1190,1205,333.3\n"
                     "1672531201000,1205.00,1210,1200,1207,12.0\n")
        series = load_klines(path)
        assert len(series) == 2
        assert series.timestamps[0] == 1672531200000
        assert series.prices[0] == 1200.50

    def test_header_detected(self, tmp_path):
        path = write(tmp_path, "k.csv",
                     "timestamp_ms,open,high,low,close,volume\n1000,2.5,3,2,2.6,1\n")
        series = load_klines(path)
        assert len(series) == 1 and series.prices[0] == 2.5

    def test_empty_file(self, tmp_path):
        assert len(load_klines(write(tmp_path, "k.csv", ""))) == 0

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = write(tmp_path, "k.csv", "1000,2.5,3,2,2.6,1\n1000,2.6,3,2,2.7,1\n")
        with pytest.raises(ParseError) as err:
            load_klines(path)
        assert err.value.line == 2

    def test_unsorted_rejected(self, tmp_path):
        path = write(tmp_path, "k.csv", "2000,2.5,3,2,2.6,1\n1000,2.6,3,2,2.7,1\n")
        with pytest.raises(ParseError):
            load_klines(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = write(tmp_path, "k.csv", "1000,2.5,3,2,2.6,1\n2000,not-a-price,3,2,2.7,1\n")
        with pytest.raises(ParseError) as err:
            load_klines(path)
        assert err.value.line == 2

    def test_gzip_by_suffix(self, tmp_path):
        path = tmp_path / "k.csv.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("1000,2.5,3,2,2.6,1\n2000,2.6,3,2,2.7,1\n")
        assert len(load_klines(str(path))) == 2

    def test_extra_exchange_columns_tolerated(self, tmp_path):
        path = write(tmp_path, "k.csv", "1000,2.5,3,2,2.6,1,99,98,97\n")
        assert load_klines(path).prices[0] == 2.5

    def test_quote_file_rejected_as_klines(self, tmp_path):
        path = write(tmp_path, "q.csv", "1000,99,101\n")
        with pytest.raises(ParseError):
            load_klines(path)


class TestLoadQuoteUpdates:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "q.csv", "0,99,101\n")
        series = load_quote_updates(path)
        assert series[0].bid == 99 and series[0].ask == 101

    def test_crossed_quote_rejected(self, tmp_path):
        path = write(tmp_path, "q.csv", "0,101,99\n")
        with pytest.raises(ParseError):
            load_quote_updates(path)

    def test_same_millisecond_last_wins(self, tmp_path):
        path = write(tmp_path, "q.csv", "0,99,101\n5,99,100\n5,98,102\n")
        series = load_quote_updates(path)
        assert len(series) == 2
        assert series[1].bid == 98 and series[1].ask == 102

    def test_kline_file_rejected_as_quotes(self, tmp_path):
        path = write(tmp_path, "k.csv", "1000,2.5,3.0,2.0,2.6,1\n")
        with pytest.raises(ParseError):
            load_quote_updates(path)


class TestLoadBlocks:
    def test_seconds_to_ms(self, tmp_path):
        path = write(tmp_path, "b.csv", "100,12\n101,24\n")
        assert load_block_timestamps(path).tolist() == [12000, 24000]

    def test_duplicate_block_second_rejected(self, tmp_path):
        path = write(tmp_path, "b.csv", "100,12\n101,12\n")
        with pytest.raises(ParseError):
            load_block_timestamps(path)


# a value cell's text: the edges of the rules and of the float range (1.8e308 reads as inf),
# any float, and tokens that are no number
VALUE_TOKENS = (st.sampled_from(["0", "-0.0", "nan", "inf", "-inf", "5e-324", "1.8e308", "1.0",
                                 "2.0", "-1.0", "", "abc", "1e", "0x1", "1.0.0"])
                | st.floats().map(repr))


def message(call, *args):
    """The text of the InputError that call(*args) raises; None where it returns."""
    try:
        call(*args)
    except InputError as err:
        return str(err)
    return None


def check_as_the_loader(load, path, make, texts):
    """make(*values), the text of the InputError that a scalar type raises on the values of
    texts (None where it accepts), is the text that load(path), a one-row file of texts, gives
    after its `path:1: ` prefix. A text that is no finite number is a cell the loader does not
    read (`bad <column>: ...`): the type rejects the values of those that parse (NaN and inf)
    too, and texts that do not parse stop the check there."""
    loaded = message(load, path)
    if loaded is not None:
        assert loaded.startswith(f"{path}:1: "), loaded
        loaded = loaded[len(f"{path}:1: "):]
    try:
        values = [float(text) for text in texts]
    except ValueError:
        assert loaded is not None and loaded.startswith("bad "), loaded
        return
    built = make(*values)
    if loaded is not None and loaded.startswith("bad "):
        assert not all(map(math.isfinite, values)) and built is not None, (loaded, built)
    else:
        assert built == loaded


class TestOneMessage:
    """A loader and its series type state each rule once, in feeds: loading a file gives
    `file:line: M`, and building the type from the file's columns gives M, but for the column
    name a rule is given."""

    @pytest.mark.parametrize("load, header, rows, make, message, names", [
        (load_quote_updates, "timestamp_ms,bid,ask", [(0, 1.0, 1.5), (1000, 2.0, 1.0)],
         QuoteSeries, "invalid quote bid=2.0 ask=1.0", None),
        (load_klines, "timestamp_ms,open,high,low,close,volume",
         [(0, 2.5, 3, 2, 2.6, 1), (1000, -1.0, 3, 2, 2.6, 1)],
         PriceSeries, "{} must be positive, got -1.0", ("open price", "price")),
        (load_klines, "timestamp_ms,open,high,low,close,volume",
         [(1000, 2.5, 3, 2, 2.6, 1), (1000, 2.6, 3, 2, 2.7, 1)],
         PriceSeries, "timestamps not strictly increasing: 1000 after 1000", None),
    ], ids=["crossed-quote", "non-positive-open", "repeated-kline-stamp"])
    def test_loader_and_type(self, tmp_path, load, header, rows, make, message, names):
        path = write(tmp_path, "f.csv", "\n".join([header, *(",".join(map(str, row))
                                                             for row in rows)]) + "\n")
        in_file, in_type = names or ("", "")
        columns = [np.array(column) for column in zip(*rows)]
        fields = len(dataclasses.fields(make))
        assert str(raised(ParseError, load, path)) == f"{path}:3: {message.format(in_file)}"
        assert str(raised(InputError, make, *columns[:fields])) == message.format(in_type)

    @given(bid=VALUE_TOKENS, ask=VALUE_TOKENS)
    def test_quote_and_loader(self, tmp_path_factory, bid, ask):
        """Quote checks a bid and an ask with the quotes loader's rule and message."""
        path = write(tmp_path_factory.mktemp("q"), "q.csv", f"0,{bid},{ask}\n")
        check_as_the_loader(load_quote_updates, path,
                            lambda bid, ask: message(Quote, 0, bid, ask), [bid, ask])

    def test_repeated_block_stamp(self, tmp_path):
        path = write(tmp_path, "b.csv", "block_number,timestamp_s\n1,12\n2,12\n")
        wording = "block timestamps not strictly increasing: {0} after {0}"
        assert str(raised(ParseError, load_block_timestamps, path)) == (
            f"{path}:3: {wording.format(12)}")  # in seconds
        assert str(raised(InputError, BlockSchedule.from_blocks, [12_000, 12_000])) == (
            wording.format(12_000))  # in milliseconds

    @pytest.mark.parametrize("make", [
        lambda ts, prices: PriceSeries(ts, prices),
        lambda ts, prices: QuoteSeries(ts, prices, prices),
        lambda ts, prices: BlockSchedule.from_blocks(ts),
    ], ids=["PriceSeries", "QuoteSeries", "BlockSchedule.from_blocks"])
    def test_a_type_checks_a_chunk_at_a_time(self, make):
        # 10**6 valid rows, 16 MB of columns: a full-length mask would be 1 MB
        ts = 1000 * np.arange(10**6, dtype=np.int64)
        prices = np.linspace(1000.0, 3000.0, 10**6)
        tracemalloc.start()
        try:
            made = make(ts, prices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(made.timestamps) == 10**6
        assert peak <= 2**18


# --- the columnar fast path against the row parser --------------------------

LOADERS = {"klines": load_klines, "quotes": load_quote_updates, "blocks": load_block_timestamps}


def row_path(load, path):
    """What the loader gives with its columnar fast path switched off."""
    with mock.patch.object(feeds, "_read_chunks", lambda *args: iter([None])):
        return load(path)


def columnar_only(load, path):
    """What the loader gives when reaching the row parser is an error."""
    with mock.patch.object(feeds, "_iter_rows", side_effect=AssertionError("row parser reached")):
        return load(path)


def assert_bitwise_equal(a, b):
    def arrays(result):
        if isinstance(result, np.ndarray):
            return [result]
        return [getattr(result, name) for name in ("timestamps", "prices", "bids", "asks")
                if hasattr(result, name)]

    for x, y in zip(arrays(a), arrays(b), strict=True):
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


KLINE = "1000,2.5,3,2,2.6,1\n"

MALFORMED = {
    "klines": {
        "nan": "1000,nan,3,2,2.6,1\n",
        "inf": KLINE + "2000,inf,3,2,2.6,1\n",
        "zero-price": KLINE + "2000,0,3,2,2.6,1\n",
        "underflow-to-zero": KLINE + "2000,1e-400,3,2,2.6,1\n",
        "decreasing": "2000,2.5,3,2,2.6,1\n" + KLINE,
        "duplicate": KLINE + "1000,2.6,3,2,2.7,1\n",
        "wraps-past-int64": "9223372036854775807,2.5,1,1,1,1\n-9223372036854775808,2.5,1,1,1,1\n",
        "short-row": KLINE + "2000,2.6,3,2,2.7\n",
        "short-row-after-a-quoted-cell": KLINE + '2000,2.6,3,2,2.7,"1,5"\n3000,2.7,3,2,2.8\n',
        "int64-overflow": "99999999999999999999,2.0,2,2,2,1\n",
        "int64-underflow": "-9223372036854775809,2.0,2,2,2,1\n",
        "float-timestamp": "1e3,2.5,3,2,2.6,1\n",
        "comment-line": KLINE + "# 2000,2.6,3,2,2.7,1\n",
        "comment-in-cell": "1000,2.5#x,3,2,2.6,1\n",
        "header-not-first": "\ntimestamp_ms,open,high,low,close,volume\n" + KLINE,
    },
    "quotes": {
        "nan": "0,nan,101\n",
        "inf": "0,99,101\n1,99,inf\n",
        "zero-bid": "0,0,101\n",
        "bid-above-ask": "0,99,101\n1,101,99\n",
        "decreasing": "5,99,101\n4,99,101\n",
        "short-row": "0,99\n",
        "extra-column": "0,99,101,7\n",
        "extra-column-later": "0,99,101\n1,99,101,7\n",
        "int64-overflow": "99999999999999999999,99,101\n",
        "comment-line": "0,99,101\n#1,99,101\n",
    },
    "blocks": {
        "duplicate-second": "100,12\n101,12\n",
        "duplicate-number": "100,12\n100,24\n",
        "decreasing": "100,24\n101,12\n",
        "short-row": "100\n",
        "extra-column": "100,12,5\n",
        "block-number-overflow": "99999999999999999999,12\n",
        "int64-overflow": "100,99999999999999999999\n",
        "comment-line": "100,12\n# 101,24\n",
        "float-seconds": "100,12.0\n",
    },
}

# files the row parser accepts and np.loadtxt does not
LOADTXT_REJECTS = {
    "klines": {
        "underscore": "1_000,2.5,3,2,2.6,1\n",
        "whitespace-line": KLINE + "   \n2000,2.6,3,2,2.7,1\n",
    },
    "quotes": {
        "underscore": "0,99,1_01\n",
        "whitespace-line": "0,99,101\n \t \n1,99,101\n",
    },
    "blocks": {
        "underscore": "1_00,12\n",
        "whitespace-line": "100,12\n  \n101,24\n",
    },
}

# quoted cells, which np.loadtxt splits as csv.reader does; and sixth kline
# cells, which it reads into a zero-width field whatever they hold
QUOTED = {
    "klines": {
        "empty-sixth-cell": KLINE + "2000,2.6,3,2,2.7,\n",
        "long-sixth-cell": KLINE + "2000,2.6,3,2,2.7,1234567.890123\n",
        "sixth-cell-quoted-around-a-comma": KLINE + '2000,2.6,3,2,2.7,"1,5"\n',
        "non-ascii-sixth-cell": KLINE + "2000,2.6,3,2,2.7,\u00e9\u20ac\U0001f600\n",
        "quoted-cells": '"1000","2.5",3,2,2.6,1\n2000,2.6,3,2,2.7,1\n',
        "quoted-cell-over-two-lines": KLINE + '2000,2.5,3,2,2.6,"a\n3000,3.0,1,1,1,b"\n',
        "quoted-header": '"timestamp_ms",open,high,low,close,volume\n' + KLINE,
        "header-over-two-lines": '"timestamp\r\n_ms",open,high,low,close,volume\r\n' + KLINE,
        "escaped-quote-and-comma": KLINE + '2000,2.6,"a""b,c",2,2.7,1\n',
        "text-after-a-closing-quote": KLINE + '2000,2.6,"a"b,2,2.7,1\n',
        "quote-inside-a-cell": KLINE + '2000,2.6,a"b,2,2.7,1\n',
        "unterminated-quote": KLINE + '2000,2.6,3,2,2.7,"1\n3000,2.7,3,2,2.8,1\n',
    },
    "quotes": {
        "quoted-cells": '0,"99",101\n',
    },
    "blocks": {
        "quoted-cells": '"100",12\n',
    },
}


SWAP = "1,1000,X,1.5,0.003,2000.0,1000000.0\n"

# what else the streamed reader meets: a header, a header alone, and swaps files, which
# fees and compare read streamed
STREAMED = {
    "klines": {"header-only": "timestamp_ms,open,high,low,close,volume\n"},
    "quotes": {"header": "timestamp_ms,bid,ask\n0,99,101\n1,99,101\n2,98,102\n",
               "header-only": "timestamp_ms,bid,ask\n"},
    "blocks": {"header": "block_number,timestamp_s\n100,12\n101,24\n102,36\n",
               "header-only": "block_number,timestamp_s\n"},
    "swaps": {
        "rows": SWAP + "1,1000,Y,2.5,0.003,2001.0,1000000.0\n2,2000,X,1.5,0.003,1999.0,2e6\n",
        "header": "block_number,timestamp_ms,input_token,amount_in,fee_rate,post_swap_price,"
                  "post_swap_liquidity\n" + SWAP + "2,2000,Y,1.5,0.003,2000.0,1e6\n",
        "header-only": "block_number,timestamp_ms,input_token,amount_in,fee_rate,"
                       "post_swap_price,post_swap_liquidity\n",
        "quoted-cells": SWAP + '"2","2000","Y",1.5,0.003,"2000.0",1e6\n',
        "padded-token": SWAP + "2,2000, Y ,1.5,0.003,2000.0,1e6\n3,3000,X,1.5,0.003,2000.0,1e6\n",
        "whitespace-line": SWAP + "  \n2,2000,Y,1.5,0.003,2000.0,1e6\n",
        "bad-token": SWAP + "2,2000,Z,1.5,0.003,2000.0,1e6\n",
        "decreasing": SWAP + "2,2000,Y,1.5,0.003,2000.0,1e6\n2,1500,Y,1.5,0.003,2000.0,1e6\n",
        "short-row": SWAP + "2,2000,Y,1.5,0.003,2000.0\n",
    },
}
LOAD_COLUMNS = feeds._load_columns


def cases(table):
    return [pytest.param(kind, text, id=f"{kind}-{name}")
            for kind, files in table.items() for name, text in files.items()]


def loaded_columns(load, path, rows=None):
    """The columns that load(path) takes from feeds._load_columns, as (dtype, contents), or
    its ParseError's text. With rows, _column_chunks(..., rows=rows) joined stand in for
    them: the one reader's streamed mode, as fees and compare read the swaps."""
    taken = []

    def columns(*args):
        chunks = [LOAD_COLUMNS(*args)] if rows is None else feeds._column_chunks(*args, rows)
        joined = tuple(np.concatenate(parts) for parts in zip(*chunks))
        taken.extend((c.dtype, c.tolist() if c.dtype == object else c.tobytes()) for c in joined)
        return joined

    with mock.patch.object(feeds, "_load_columns", columns), \
            mock.patch.object(fees, "_load_columns", columns):
        try:
            load(path)
        except ParseError as err:
            return str(err)
    return taken


class TestColumnarParity:
    @pytest.mark.parametrize("kind, text", cases(MALFORMED))
    def test_malformed_file_raises_the_row_parser_error(self, tmp_path, kind, text):
        path = write(tmp_path, "f.csv", text)
        with pytest.raises(ParseError) as expected:
            row_path(LOADERS[kind], path)
        with pytest.raises(ParseError) as err:
            LOADERS[kind](path)
        assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize("kind, text", cases(LOADTXT_REJECTS))
    def test_file_loadtxt_rejects_loads_through_row_parser(self, tmp_path, kind, text):
        path = write(tmp_path, "f.csv", text)
        with mock.patch.object(feeds, "_iter_rows", wraps=feeds._iter_rows) as rows:
            result = LOADERS[kind](path)
        assert rows.called and len(result) > 0
        assert_bitwise_equal(result, row_path(LOADERS[kind], path))

    @pytest.mark.parametrize("kind, text", cases(QUOTED))
    def test_quoted_file_takes_the_fast_path(self, tmp_path, kind, text):
        path = write(tmp_path, "f.csv", text)
        result = columnar_only(LOADERS[kind], path)
        assert len(result) > 0
        assert_bitwise_equal(result, row_path(LOADERS[kind], path))

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gz"])
    @pytest.mark.parametrize("kind, text", cases(MALFORMED) + cases(LOADTXT_REJECTS)
                             + cases(QUOTED) + cases(STREAMED))
    def test_streamed_reader_gives_the_loaded_columns(self, tmp_path, kind, text, compress):
        path = save(tmp_path, (text, compress))
        whole = loaded_columns(EDGE_LOADERS[kind], path)
        for rows in [1, 2, 3, 7, feeds._CHUNK]:
            assert loaded_columns(EDGE_LOADERS[kind], path, rows) == whole, rows

    def test_cr_line_ends(self, tmp_path):
        path = write(tmp_path, "k.csv", "1000,2.5,3,2,2.6,1\r2000,2.6,3,2,2.7,1\r")
        assert_bitwise_equal(columnar_only(load_klines, path), row_path(load_klines, path))

    def test_quoted_cell_over_two_lines_is_one_row(self, tmp_path):
        path = write(tmp_path, "k.csv", QUOTED["klines"]["quoted-cell-over-two-lines"])
        assert load_klines(path).timestamps.tolist() == [1000, 2000]

    def test_int64_overflow_names_file_and_line(self, tmp_path):
        path = write(tmp_path, "k.csv", KLINE + "99999999999999999999,2.0,2,2,2,1\n")
        with pytest.raises(ParseError) as err:
            load_klines(path)
        assert str(err.value) == (
            f"{path}:2: bad timestamp_ms: '99999999999999999999' does not fit in 64 bits"
        )

    @pytest.mark.parametrize("text", ["", "timestamp_ms,bid,ask\n", "\n\n", "timestamp_ms\r\n\r\n"])
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_file_without_rows_is_empty_without_warning(self, tmp_path, kind, text):
        path = write(tmp_path, "f.csv", text)
        assert_bitwise_equal(columnar_only(LOADERS[kind], path), row_path(LOADERS[kind], path))

    @pytest.mark.parametrize("seconds", [2**63 // 1000, -(2**63 // 1000), 2**63 - 1])
    def test_block_seconds_beyond_int64_milliseconds(self, tmp_path, seconds):
        path = write(tmp_path, "b.csv", f"100,12\n101,{seconds}\n")
        with pytest.raises(ParseError) as expected:
            row_path(load_block_timestamps, path)
        with pytest.raises(ParseError) as err:
            load_block_timestamps(path)
        assert str(err.value) == str(expected.value) == (
            f"{path}:2: bad timestamp_s: {seconds} does not fit in 64 bits in milliseconds"
        )

    def test_last_block_second_in_range_loads_exactly(self, tmp_path):
        last = 2**63 // 1000 - 1
        path = write(tmp_path, "b.csv", f"100,{-last}\n101,{last}\n")
        assert columnar_only(load_block_timestamps, path).tolist() == [-last * 1000, last * 1000]
        assert row_path(load_block_timestamps, path).tolist() == [-last * 1000, last * 1000]

    def test_cell_over_the_csv_field_limit_names_file_and_line(self, tmp_path):
        # loadtxt rejects the open cell, and the row parser's csv.reader refuses it
        path = write(tmp_path, "k.csv", KLINE + '2000,"' + "x" * 200_000 + '",2,2,2,1\n')
        with pytest.raises(ParseError) as err:
            load_klines(path)
        assert str(err.value) == (
            f"{path}:2: unreadable row: field larger than field limit (131072)"
        )

    @pytest.mark.parametrize("cell", ['"' + "x" * 200_000 + '"', "x" * 200_000],
                             ids=["quoted", "unquoted"])
    def test_cell_over_the_csv_field_limit_in_an_unparsed_column_loads(self, tmp_path, cell):
        path = write(tmp_path, "k.csv", KLINE + f"2000,2.6,{cell},2,2.7,1\n")
        series = columnar_only(load_klines, path)
        assert series.timestamps.tolist() == [1000, 2000]
        assert series.prices.tolist() == [2.5, 2.6]

    @pytest.mark.parametrize("first", [KLINE[:-2] + "1" * 200_000 + "\n",
                                       "timestamp_ms," + "x" * 200_000 + "\n" + KLINE],
                             ids=["data-row", "header"])
    def test_cell_over_the_csv_field_limit_in_the_first_row(self, tmp_path, first):
        # no quote: the fast path asks the row reader where the data starts, and it refuses
        path = write(tmp_path, "k.csv", first + "2000,2.6,3,2,2.7,1\n")
        with pytest.raises(ParseError) as expected:
            row_path(load_klines, path)
        with pytest.raises(ParseError) as err:
            load_klines(path)
        assert str(err.value) == str(expected.value) == (
            f"{path}:1: unreadable row: field larger than field limit (131072)"
        )

    def test_line_after_a_cell_over_two_lines_is_the_physical_line(self, tmp_path):
        path = write(tmp_path, "k.csv",
                     '1000,2.5,3,2,2.6,"a\nb"\n2000,2.5,3,2,2.6,1\n3000,-1,3,2,2.6,1\n')
        with pytest.raises(ParseError) as err:
            load_klines(path)
        assert str(err.value) == f"{path}:4: open price must be positive, got -1.0"

    def test_bad_row_over_two_lines_names_the_line_it_starts_on(self, tmp_path):
        path = write(tmp_path, "k.csv", KLINE + '2000,-1,3,2,2.6,"a\nb"\n3000,2.5,3,2,2.6,1\n')
        with pytest.raises(ParseError) as err:
            load_klines(path)
        assert str(err.value) == f"{path}:2: open price must be positive, got -1.0"

    def test_cell_over_the_csv_field_limit_after_a_cell_over_two_lines(self, tmp_path):
        path = write(tmp_path, "k.csv", '1000,2.5,3,2,2.6,"a\nb"\n2000,"'
                     + "x" * 200_000 + '",2,2,2,1\n')
        with pytest.raises(ParseError) as err:
            load_klines(path)
        assert str(err.value) == (
            f"{path}:3: unreadable row: field larger than field limit (131072)"
        )

    def test_rule_fault_stops_the_row_pass_at_its_row(self, tmp_path):
        path = write(tmp_path, "k.csv", "".join(
            f"{1000 * i},{-1 if i == 1 else 2.5},3,2,2.6,1\n" for i in range(10_000)))
        iter_rows, consumed = feeds._iter_rows, []

        def counting(*args):
            for row in iter_rows(*args):
                consumed.append(row)
                yield row

        with mock.patch.object(feeds, "_iter_rows", counting):
            with pytest.raises(ParseError) as err:
                load_klines(path)
        assert str(err.value) == f"{path}:2: open price must be positive, got -1.0"
        assert len(consumed) <= 2

    @pytest.mark.parametrize("blank", [None, 10_000], ids=["fast-path", "row-pass"])
    def test_each_loaded_row_is_checked_once(self, tmp_path, blank):
        # a whitespace-only line sends the file to the row pass, which skips it
        n = 20_000
        path = write(tmp_path, "k.csv", "".join(
            ("   \n" if i == blank else "") + f"{1000 * i},2.5,3,2,2.6,1\n" for i in range(n)))
        first_fault, read_chunks, checked, fast = feeds._first_fault, feeds._read_chunks, [], []

        def counting(rules, columns):
            checked.append(len(columns[0]))
            return first_fault(rules, columns)

        def reading(*args):
            fast.append(list(read_chunks(*args)))
            return iter(fast[-1])

        with mock.patch.object(feeds, "_first_fault", counting), \
                mock.patch.object(feeds, "_read_chunks", reading):
            series = load_klines(path)
        assert len(series) == n
        assert (fast[0] == [None]) == (blank is not None)
        assert checked == [n]  # 44 576 rows in three checks, when the row pass had a schedule

    def test_same_millisecond_collapse_logged_alike(self, tmp_path, caplog):
        path = write(tmp_path, "q.csv", "0,99,101\n5,99,100\n5,98,102\n5,97,103\n6,1,2\n")
        with caplog.at_level("WARNING", logger="lvrsim.feeds"):
            fast = columnar_only(load_quote_updates, path)
            slow = row_path(load_quote_updates, path)
        assert_bitwise_equal(fast, slow)
        assert fast.bids.tolist() == [99, 97, 1]
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: dropped 2 earlier duplicate-timestamp updates"] * 2


# --- the rules a chunk at a time ------------------------------------------------

# row i of a valid file of each kind, as its cells
EDGE_ROWS = {
    "klines": lambda i: [str(1000 * (i + 1)), repr(2.5 + i / 8), "3", "2", "2.6", "1"],
    "quotes": lambda i: [str(100 * (i + 1)), repr(99.0 + i), repr(100.0 + i)],
    "blocks": lambda i: [str(100 + i), str(12 * (i + 1))],
    "swaps": lambda i: [str(1 + i // 2), str(1000 * (i + 1)), "XY"[i % 2], "5.0", "0.003",
                        "2000.0", "1e6"],
}

# (kind, rule): the column a fault at row r sets, and its text from the rows; a fault
# against the row before is put only on a row that has one
EDGE_FAULTS = {
    ("klines", "open-not-positive"): (1, lambda rows, r: "-1"),
    ("klines", "stamp-repeated"): (0, lambda rows, r: rows[r - 1][0]),
    ("quotes", "bid-above-ask"): (1, lambda rows, r: "1000.0"),
    ("quotes", "stamp-decreasing"): (0, lambda rows, r: str(int(rows[r - 1][0]) - 1)),
    ("blocks", "seconds-beyond-int64-ms"): (1, lambda rows, r: str(2**63 // 1000)),
    ("blocks", "number-repeated"): (0, lambda rows, r: rows[r - 1][0]),
    ("blocks", "second-repeated"): (1, lambda rows, r: rows[r - 1][1]),
    ("swaps", "token"): (2, lambda rows, r: "Z"),
    ("swaps", "amount"): (3, lambda rows, r: "0"),
    ("swaps", "fee-rate"): (4, lambda rows, r: "1.5"),
    ("swaps", "price"): (5, lambda rows, r: "-1"),
    ("swaps", "liquidity"): (6, lambda rows, r: "0"),
    ("swaps", "stamp-decreasing"): (1, lambda rows, r: str(int(rows[r - 1][1]) - 1)),
    ("swaps", "block-decreasing"): (0, lambda rows, r: str(int(rows[r - 1][0]) - 1)),
}
EDGE_LOADERS = {**LOADERS, "swaps": load_swap_records}
SWAP_CELLS = (int, int, str, float, float, float, float)


def faulty_rows(kind, rule, r, n=10):
    rows = [EDGE_ROWS[kind](i) for i in range(n)]
    column, text = EDGE_FAULTS[kind, rule]
    rows[r][column] = text(rows, r)
    return rows


def edge_rows(rule, chunk):
    """The rows c - 1, c and c + 1 around the first chunk edge, those with a row before them
    for a rule against the row before."""
    against_previous = "repeated" in rule or "decreasing" in rule
    return [r for r in (chunk - 1, chunk, chunk + 1) if r or not against_previous]


def raised(exception, load, *args):
    with pytest.raises(exception) as err:
        load(*args)
    return err.value


class TestChunkEdges:
    """_first_fault runs the rules feeds._CHUNK rows at a time, each chunk with the row before
    it. A fault on the last row of a chunk, on the first of the next or on the one after is
    what one scan of the whole columns finds, on the loaders' two paths and in SwapTable."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    @pytest.mark.parametrize("kind, rule", EDGE_FAULTS)
    def test_loaders(self, tmp_path, kind, rule, chunk):
        load = EDGE_LOADERS[kind]
        for r in edge_rows(rule, chunk):
            path = write(tmp_path, f"{r}.csv", "".join(
                ",".join(row) + "\n" for row in faulty_rows(kind, rule, r)))
            with mock.patch.object(feeds, "_CHUNK", 10**9):  # one chunk: the whole columns
                whole = raised(ParseError, load, path)
            oracle = raised(ParseError, row_path, load, path)
            with mock.patch.object(feeds, "_CHUNK", chunk):
                chunked = [raised(ParseError, load, path),
                           raised(ParseError, row_path, load, path)]
            assert whole.line == r + 1
            assert [str(e) for e in chunked] == [str(whole)] * 2 == [str(oracle)] * 2

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    @pytest.mark.parametrize("rule", [rule for kind, rule in EDGE_FAULTS if kind == "swaps"])
    def test_swap_table(self, tmp_path, rule, chunk):
        for r in edge_rows(rule, chunk):
            rows = faulty_rows("swaps", rule, r)
            columns = [list(map(cell, column)) for cell, column in zip(SWAP_CELLS, zip(*rows))]
            with mock.patch.object(feeds, "_CHUNK", 10**9):
                whole = raised(InputError, SwapTable, *columns)
            with mock.patch.object(feeds, "_CHUNK", chunk):
                chunked = raised(InputError, SwapTable, *columns)
            path = write(tmp_path, f"{r}.csv", "".join(",".join(row) + "\n" for row in rows))
            assert str(chunked) == str(whole)
            assert str(raised(ParseError, load_swap_records, path)) == f"{path}:{r + 1}: {whole}"


    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    @pytest.mark.parametrize("rule", [rule for kind, rule in EDGE_FAULTS if kind == "swaps"])
    def test_swaps_read_a_chunk_at_a_time(self, tmp_path, rule, chunk):
        """fees and compare read the swaps chunk rows at a time, each chunk checked after
        the last row of the one before, by np.loadtxt or by the row parser: the ParseError
        of the whole file."""
        for r in edge_rows(rule, chunk):
            path = write(tmp_path, f"{r}.csv", "".join(
                ",".join(row) + "\n" for row in faulty_rows("swaps", rule, r)))
            whole = raised(ParseError, load_swap_records, path)
            with mock.patch.object(fees, "_CHUNK", chunk):
                streamed = raised(ParseError, fees._attributed_file, path, 1.0, True)
                with mock.patch.object(feeds, "_read_chunks", lambda *args: iter([None])):
                    parsed = raised(ParseError, fees._attributed_file, path, 1.0, True)
            assert str(streamed) == str(parsed) == str(whole)


KLINES = "timestamp_ms,open,high,low,close,volume\n" + KLINE + "2000,2.6,3,2,2.7,1\n"


class TestLoaderPaths:
    """np.loadtxt opens the file by its path; the loaders read what they read before."""

    @pytest.mark.parametrize("name", ["k.csv.bz2", "k.csv.xz", "k.csv.lzma"])
    def test_names_numpy_would_decompress_are_plain_text(self, tmp_path, name):
        series = load_klines(write(tmp_path, name, KLINES))
        assert series.timestamps.tolist() == [1000, 2000]
        assert series.prices.tolist() == [2.5, 2.6]

    def test_relative_name_like_a_url_is_a_local_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a:" / "b").mkdir(parents=True)
        (tmp_path / "a:" / "b" / "k.csv").write_text(KLINES)
        series = columnar_only(load_klines, "a://b/k.csv")
        assert series.timestamps.tolist() == [1000, 2000]
        assert series.prices.tolist() == [2.5, 2.6]

    def test_gzip_quote_in_an_unparsed_column_takes_the_fast_path(self, tmp_path):
        path = tmp_path / "k.csv.gz"
        text = KLINE + '2000,2.6,3,2,2.7,"1"\n'
        path.write_bytes(gzip.compress(text.encode(), mtime=0))
        series = columnar_only(load_klines, str(path))
        assert series.timestamps.tolist() == [1000, 2000]
        assert series.prices.tolist() == [2.5, 2.6]
        path.write_bytes(gzip.compress((text + "3000,-1,3,2,2.7,1\n").encode(), mtime=0))
        with pytest.raises(ParseError) as err:
            load_klines(str(path))
        assert str(err.value) == f"{path}:3: open price must be positive, got -1.0"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_once(self):
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, KLINES.encode())
            os.close(write_end)
            series = load_klines(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert series.timestamps.tolist() == [1000, 2000]

    @staticmethod
    def damaged_gzip(tmp_path, bad_row):
        """Rows past what the header probe reads, cut off before the gzip trailer."""
        text = "".join(f"{1000 * i},{'x' if i == bad_row else 2.5},3,2,2.6,1\n"
                       for i in range(20_000))
        path = tmp_path / "k.csv.gz"
        path.write_bytes(gzip.compress(text.encode(), mtime=0)[:-100])
        return str(path)

    def test_damaged_gzip_names_a_bad_row_before_the_damage(self, tmp_path):
        path = self.damaged_gzip(tmp_path, bad_row=5)
        with pytest.raises(ParseError) as err:
            load_klines(path)
        assert str(err.value) == f"{path}:6: bad open: 'x'"

    def test_damaged_gzip_names_a_rule_fault_before_the_damage(self, tmp_path):
        text = "".join(f"{1000 * max(i, 1)},2.5,3,2,2.6,1\n" for i in range(20_000))
        path = tmp_path / "k.csv.gz"
        path.write_bytes(gzip.compress(text.encode(), mtime=0)[:-100])
        with pytest.raises(ParseError) as err:
            load_klines(str(path))
        assert str(err.value) == f"{path}:2: timestamps not strictly increasing: 1000 after 1000"

    def test_damaged_gzip_of_valid_rows_raises_the_read_error(self, tmp_path):
        path = self.damaged_gzip(tmp_path, bad_row=None)
        with pytest.raises(ParseError, match=rf"^{re.escape(path)}:\d+: unreadable gzip data: "
                                             "Compressed file ended") as err:
            load_klines(path)
        assert 1 < err.value.line <= 20_000


class TestNotUtf8:
    """A byte that is not UTF-8 is a ParseError naming the line that holds it."""

    @pytest.mark.parametrize("kind", ["klines", "quotes"])
    def test_one_row_file(self, tmp_path, kind):
        path = tmp_path / "f.csv"
        path.write_bytes(b"\xff\xfe,1,2\n")
        with pytest.raises(ParseError) as err:
            LOADERS[kind](str(path))
        assert str(err.value) == f"{path}:1: not UTF-8 text: byte 0xff"

    @pytest.mark.parametrize("name", ["k.csv", "k.csv.gz"])
    @pytest.mark.parametrize("text, line", [
        (b"timestamp_ms,op\xe9n,high,low,close,volume\n" + KLINE.encode(), 1),
        ("".join(f"{1000 * i},2.5,3,2,2.6,1\n" for i in range(1, 20_001)).encode()
         + b"20001000,2.5,3,2,2.6,\xc3\n", 20_001),
        (KLINE.encode() + b'2000,2.5,3,2,2.6,"a\r\nb\x80"\n', 3),  # in a quoted cell's second line
    ], ids=["header", "after-20000-rows", "quoted-cell"])
    def test_names_the_line_of_the_byte(self, tmp_path, name, text, line):
        path = tmp_path / name
        path.write_bytes(gzip.compress(text, mtime=0) if name.endswith(".gz") else text)
        with pytest.raises(ParseError) as err:
            load_klines(str(path))
        assert err.value.line == line
        assert re.fullmatch(rf"{re.escape(str(path))}:{line}: not UTF-8 text: byte 0x[0-9a-f]{{2}}",
                            str(err.value))

    def test_bad_row_before_the_byte_wins(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_bytes(KLINE.encode() + b"2000,-1,3,2,2.6,1\n3000,2.5,3,2,2.6,\xff\n")
        with pytest.raises(ParseError) as err:
            load_klines(str(path))
        assert str(err.value) == f"{path}:2: open price must be positive, got -1.0"


class TestLoadedViews:
    """Loaders return the fields of np.loadtxt's structured array, not copies."""

    @pytest.mark.parametrize("interval", [2000, 1500], ids=["slice", "index"])
    def test_replay_on_strided_views_matches_contiguous_copies(self, tmp_path, interval):
        rng = np.random.default_rng(3)
        prices = 2000.0 * np.exp(np.cumsum(rng.normal(0.0, 1e-3, 3600)))
        path = write(tmp_path, "k.csv", "".join(
            f"{1000 * i},{p!r},1,1,1,{i % 7}\n" for i, p in enumerate(prices.tolist())))
        quotes = quotes_from_prices(load_klines(path))
        assert quotes.bids.strides == (16,) and quotes.timestamps.strides == (16,)
        copies = QuoteSeries(*map(np.ascontiguousarray,
                                  (quotes.timestamps, quotes.bids, quotes.asks)))
        schedule = fixed_schedule(quotes, interval)
        _, lookup = next(simulation._visits(quotes, schedule))
        assert isinstance(lookup, slice) == (interval == 2000)
        runs = [run_arb_sim(PoolState(1.0, 2000.0, 0.0005), q, schedule)
                for q in (quotes, copies)]
        for field in ("timestamps", "losses", "profits"):
            views, contiguous = (getattr(run, field) for run in runs)
            assert views.tobytes() == contiguous.tobytes()
        assert len(runs[0].losses) > 100
        assert [(run.final_state, run.n_dropped) for run in runs[1:]] == [
            (runs[0].final_state, runs[0].n_dropped)]


def _klines(n):
    return "".join(f"{1000 * i},{2000.0 + 0.01 * i!r},1,1,1,{i}\n" for i in range(n))


def _quotes(n, repeat_every=0):
    """100 ms quotes; with repeat_every, every repeat_every-th row repeats the stamp before."""
    stamps = [i - i // repeat_every if repeat_every else i for i in range(n)]
    return "".join(f"{100 * t},{1999.5 + 0.01 * i!r},{2000.5 + 0.01 * i!r}\n"
                   for i, t in enumerate(stamps))


def _blocks(n):
    return "".join(f"{18_000_000 + i},{1_700_000_000 + 12 * i}\n" for i in range(n))


def _swaps(n):
    return "".join(f"{18_000_000 + i // 3},{1000 * i},{'XY'[i % 2]},{1.5 + 0.001 * i!r},0.003,"
                   f"{2000.0 + 0.01 * i!r},{1e6 + i!r}\n" for i in range(n))


class TestLoaderMemory:
    """Traced peak of each loader on a file of 100 000 rows, in bytes per row.

    A loader holds one structured array of exactly the columns it returns (16
    bytes a row for klines and blocks, 24 for quotes, 56 for swaps). Each bound
    is that record and a quarter more for loadtxt's growth as it reads, which
    sets the peak; blocks add the 8 bytes of the returned milliseconds. The
    rules hold their masks a chunk at a time, so they add no bytes a row
    (TestCheckMemory). Quotes drop their repeats in place, so with repeats they
    have the bound they have without.
    """

    ROWS = 100_000

    @pytest.mark.parametrize("load, text, bound", [
        (load_klines, _klines, 24),
        (load_quote_updates, _quotes, 36),
        (load_quote_updates, lambda n: _quotes(n, repeat_every=100), 36),
        (load_block_timestamps, _blocks, 30),
        (load_swap_records, _swaps, 80),
    ], ids=["klines", "quotes", "quotes-with-repeats", "blocks", "swaps"])
    def test_peak_bytes_per_row(self, tmp_path, load, text, bound):
        path = write(tmp_path, "f.csv", text(self.ROWS))
        tracemalloc.start()
        try:
            loaded = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) >= 0.99 * self.ROWS
        assert peak / self.ROWS <= bound


def prebuilt(kind, n):
    """The columns np.loadtxt gives for n valid rows of a kind: the fields of one structured
    array, built without a file. Quotes repeat every hundredth stamp."""
    i = np.arange(n)
    columns = {
        "klines": [1000 * i, 2000.0 + 0.01 * i],
        "quotes": [100 * (i - i // 100), 1999.5 + 0.01 * i, 2000.5 + 0.01 * i],
        "blocks": [18_000_000 + i, 1_700_000_000 + 12 * i],
        "swaps": [18_000_000 + i // 3, 1000 * i, np.where(i % 2, "Y", "X").astype(object),
                  1.5 + 0.001 * i, np.full(n, 0.003), 2000.0 + 0.01 * i, 1e6 + i],
    }[kind]
    table = np.empty(n, [(f"c{k}", column.dtype) for k, column in enumerate(columns)])
    for k, column in enumerate(columns):
        table[f"c{k}"] = column
    return tuple(table[name] for name in table.dtype.names)


class TestCheckMemory:
    """What a loader holds beyond the columns np.loadtxt returns and beyond what it returns,
    in traced bytes, grows by less than 0.1 byte a row from 100 000 to 400 000 rows: the
    rules and the dropping of repeats go through the columns a chunk at a time, and the
    loaded columns are not checked again. _read_chunks yields prebuilt columns, so that
    loadtxt's own growth as it reads, a quarter of each record, is not measured."""

    @staticmethod
    def held(kind, n):
        columns = prebuilt(kind, n)
        with mock.patch.object(feeds, "_read_chunks", lambda *args: iter([columns])):
            tracemalloc.start()
            try:
                loaded = EDGE_LOADERS[kind]("prebuilt.csv")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        returned = ([loaded] if isinstance(loaded, np.ndarray) else
                    [getattr(loaded, f.name) for f in dataclasses.fields(loaded)])
        assert len(loaded) >= 0.99 * n
        # the loader's own arrays among those it returns (blocks: the milliseconds)
        return peak - sum(a.nbytes for a in returned
                          if not np.may_share_memory(a, columns[0].base))

    @pytest.mark.parametrize("kind", sorted(EDGE_LOADERS))
    def test_held_bytes_do_not_grow_with_the_rows(self, kind):
        growth = self.held(kind, 400_000) - self.held(kind, 100_000)
        assert growth / 300_000 < 0.1


@st.composite
def repeat_patterns(draw):
    """Stamps of quote rows, in runs of equal stamps: a run may hold several rows, at the
    start, in the middle or at the end, and one millisecond may hold every row."""
    runs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=12))
    if not draw(st.integers(0, 5)):
        runs = [sum(runs)]
    gaps = draw(st.lists(st.integers(1, 10**6), min_size=len(runs) - 1,
                         max_size=len(runs) - 1))
    stamps = draw(st.integers(-(10**12), 10**12)) + np.cumsum([0, *gaps], dtype=np.int64)
    return np.repeat(stamps, runs)


class TestRepeatCompaction:
    """load_quote_updates keeps the last update of each millisecond, moving the kept rows
    within the loaded columns a chunk at a time; on both loader paths it gives what
    gathering them with a keep mask gives."""

    @staticmethod
    def check(directory, ts, chunk):
        bids = 1.0 + np.arange(len(ts)) / 8  # every row its own quote
        asks = bids + 0.5
        path = write(directory, "q.csv", "".join(
            f"{t},{b!r},{a!r}\n" for t, b, a in zip(ts.tolist(), bids.tolist(), asks.tolist())))
        keep = np.ones(len(ts), dtype=bool)
        keep[:-1] = ts[1:] > ts[:-1]
        dropped = len(ts) - int(np.count_nonzero(keep))
        logged = [mock.call("%s: dropped %d earlier duplicate-timestamp updates", path, dropped)]
        for load in (columnar_only, row_path):
            with mock.patch.object(feeds, "_CHUNK", chunk), \
                    mock.patch.object(logging.getLogger("lvrsim.feeds"), "warning") as warn:
                loaded = load(load_quote_updates, path)
            assert_bitwise_equal(loaded, QuoteSeries(ts[keep], bids[keep], asks[keep]))
            assert warn.call_args_list == (logged if dropped else [])

    @given(ts=repeat_patterns(), chunk=st.integers(1, 6))
    @example(ts=np.zeros(5, np.int64), chunk=2)  # one millisecond holds every row
    @example(ts=np.array([0, 0, 1, 2, 3, 3], np.int64), chunk=2)  # repeats at both ends
    def test_equals_the_gather(self, tmp_path_factory, ts, chunk):
        self.check(tmp_path_factory.mktemp("q"), ts, chunk)

    def test_equals_the_gather_across_whole_chunks(self, tmp_path):
        ts = np.arange(40_000, dtype=np.int64)
        ts[16_380:16_390] = 16_380  # a run across the first chunk's end
        self.check(tmp_path, ts - ts // 7, feeds._CHUNK)


def quoted(text):
    """text as one quoted CSV cell, each '"' in it doubled."""
    return '"' + text.replace('"', '""') + '"'


# Numbers in every layout both parsers read to the same value, bare or quoted,
# and unparsed kline cells of any text: bare without a delimiter, quote or
# line break, or quoted around any of them.
INTS = st.integers(-(2**63), 2**63 - 1)
POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)
INT_TEXT = st.sampled_from(["{}", "{:+d}", " {} ", "{:05d}", "\t{}",
                            '"{}"', '" {:+d}"', '"{}\r\n"']).map(lambda layout: layout.format)
FLOAT_TEXT = st.sampled_from(["{!r}", "{:.17e}", "{:+.17g}", " {!r}\t", "{:.17E}",
                              '"{!r}"', '"{:.17e} "', '"\n{!r}"']).map(
    lambda layout: layout.format)
CELL = (st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
                max_size=4)
        | st.text(st.sampled_from(',"\r\n') | st.characters(blacklist_categories=("Cs",)),
                  max_size=4).map(quoted))


def headers(names):
    """The header bare, each name quoted, or its first name quoted around a line break."""
    first, rest = names.split(",", 1)
    return (st.sampled_from([names, ",".join(map(quoted, names.split(",")))])
            | st.sampled_from(["\n", "\r\n", "\r"]).map(
                lambda br: quoted(first[:4] + br + first[4:]) + "," + rest))


@st.composite
def csv_file(draw, rows, header):
    """(text, gzip) of the rows, with blank lines and optionally a header and CRLF."""
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    if draw(st.booleans()):
        lines.insert(0, draw(headers(header)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + (newline if lines else ""), draw(st.booleans())


def save(directory, content):
    text, compress = content
    path = directory / ("f.csv.gz" if compress else "f.csv")
    data = text.encode("utf-8")
    path.write_bytes(gzip.compress(data, mtime=0) if compress else data)
    return str(path)


@st.composite
def data_first_file(draw, rows, header):
    """(text, gzip): a header or none, 0-3 blank or whitespace lines, then 1-20 rows."""
    assume(rows)
    lines = [draw(headers(header))] if draw(st.booleans()) else []
    lines += draw(st.lists(st.sampled_from(["", " ", "\t", " \t "]), max_size=3))
    lines += [",".join(row) for row in rows[:20]]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline, draw(st.booleans())


@st.composite
def kline_files(draw, layout=csv_file):
    stamps = sorted(draw(st.lists(INTS, max_size=20, unique=True)))
    rows = [[draw(INT_TEXT)(t), draw(FLOAT_TEXT)(draw(POSITIVE)),
             *draw(st.lists(CELL, min_size=4, max_size=7))] for t in stamps]
    return draw(layout(rows, "timestamp_ms,open,high,low,close,volume"))


@st.composite
def quote_files(draw, layout=csv_file):
    stamps = sorted(draw(st.lists(INTS, max_size=12, unique=True)))
    rows = []
    for t in stamps:
        for _ in range(draw(st.integers(1, 3))):  # updates in the same millisecond
            bid, ask = sorted(draw(st.lists(POSITIVE, min_size=2, max_size=2)))
            rows.append([draw(INT_TEXT)(t), draw(FLOAT_TEXT)(bid), draw(FLOAT_TEXT)(ask)])
    return draw(layout(rows, "timestamp_ms,bid,ask"))


@st.composite
def block_files(draw, layout=csv_file):
    n = draw(st.integers(0, 20))
    numbers = sorted(draw(st.lists(INTS, min_size=n, max_size=n, unique=True)))
    # seconds whose milliseconds fit in int64; the rest are rejected
    in_range = st.integers(-(2**63 // 1000) + 1, 2**63 // 1000 - 1)
    seconds = sorted(draw(st.lists(in_range, min_size=n, max_size=n, unique=True)))
    rows = [[draw(INT_TEXT)(b), draw(INT_TEXT)(s)] for b, s in zip(numbers, seconds)]
    return draw(layout(rows, "block_number,timestamp_s"))


class TestColumnarProperty:
    """Valid files: the fast path alone gives the row parser's arrays, bit for bit."""

    @given(content=kline_files())
    def test_klines(self, tmp_path_factory, content):
        path = save(tmp_path_factory.mktemp("k"), content)
        assert_bitwise_equal(columnar_only(load_klines, path), row_path(load_klines, path))

    @given(content=quote_files())
    def test_quotes(self, tmp_path_factory, content):
        path = save(tmp_path_factory.mktemp("q"), content)
        assert_bitwise_equal(columnar_only(load_quote_updates, path),
                             row_path(load_quote_updates, path))

    @given(content=block_files())
    def test_blocks(self, tmp_path_factory, content):
        path = save(tmp_path_factory.mktemp("b"), content)
        assert_bitwise_equal(columnar_only(load_block_timestamps, path),
                             row_path(load_block_timestamps, path))

    @pytest.mark.parametrize("kind, files", [
        ("klines", kline_files), ("quotes", quote_files), ("blocks", block_files)])
    @given(data=st.data())
    def test_both_paths_start_the_data_at_the_same_line(self, tmp_path_factory, kind, files,
                                                        data):
        path = save(tmp_path_factory.mktemp(kind), data.draw(files(data_first_file)))
        assert_bitwise_equal(columnar_only(LOADERS[kind], path), row_path(LOADERS[kind], path))


def quotes(ts, bids, asks=None):
    bids = np.asarray(bids, float)
    return QuoteSeries(np.asarray(ts, np.int64), bids,
                       bids if asks is None else np.asarray(asks, float))


@st.composite
def locf_cases(draw):
    """(stamps, instants): strictly increasing stamps, covered instants in increasing order.

    Covered as _check_coverage requires: the stamps are not empty and no instant
    is before the first. Instants land on stamps, between them and far past the last.
    """
    stamps = sorted(draw(st.sets(st.integers(-1000, 1000), min_size=1, max_size=20)))
    instant = (st.integers(stamps[0], 1010) | st.integers(2**40, 2**62)
               | st.sampled_from(stamps))
    instants = sorted(draw(st.lists(instant, max_size=20)))
    return np.array(stamps, np.int64), np.array(instants, np.int64)


class TestLocfIndex:
    """feeds._locf_index, the one last-observation-carried-forward lookup, on covered
    instants; an uncovered schedule is rejected where it is made (TestAlignToBlocks,
    test_simulation.py::TestCoverage)."""

    @given(case=locf_cases())
    @example(case=(np.array([0, 10], np.int64), np.array([], np.int64)))
    @example(case=(np.array([0, 10], np.int64), np.array([10, 2**62], np.int64)))
    @example(case=(np.array([0, 10], np.int64), np.array([0, 10, 11, 2**62], np.int64)))
    def test_matches_per_instant_loop(self, case):
        stamps, instants = case
        ts = stamps.tolist()
        expected = [max(i for i, s in enumerate(ts) if s <= t) for t in instants.tolist()]
        assert feeds._locf_index(stamps, instants).tolist() == expected

    def test_hand_example(self):
        series = quotes([0, 5000], [99, 100], [101, 102])
        idx = feeds._locf_index(series.timestamps, [0, 4000, 8000])
        assert series.bids[idx].tolist() == [99, 99, 100]
        assert series.asks[idx].tolist() == [101, 101, 102]

    def test_constant_quote_carried_across_window(self):
        series = quotes([0], [10.0])
        window = BlockSchedule.fixed(1000, 0, 10_000).timestamps
        idx = feeds._locf_index(series.timestamps, window)
        assert len(idx) == 11
        assert np.all(series.bids[idx] == 10.0)

    def test_requires_update_at_or_before_start(self):
        # the first instant on the one stamp is covered; one before it is
        # test_block_before_the_first_stamp_rejected's
        assert feeds._locf_index(np.array([5000]), [5000, 8000]).tolist() == [0, 0]


class TestAlignToBlocks:
    def test_exact_seconds(self):
        series = PriceSeries(np.arange(0, 30_000, 1000, dtype=np.int64),
                             np.linspace(1.0, 1.29, 30))
        out, fills = align_to_blocks(series, np.array([12_000, 24_000]))
        assert fills == 0
        assert out.timestamps.tolist() == [12_000, 24_000]
        assert out.prices[0] == series.prices[12]

    def test_missing_second_filled_and_counted(self):
        series = PriceSeries(np.array([12_000, 14_000]), np.array([5.0, 6.0]))
        out, fills = align_to_blocks(series, np.array([13_000]))
        assert fills == 1
        assert out.prices.tolist() == [5.0]

    def test_empty_blocks(self):
        series = PriceSeries(np.array([0]), np.array([1.0]))
        out, fills = align_to_blocks(series, np.array([], dtype=np.int64))
        assert len(out) == 0 and fills == 0

    def test_uncovered_block_rejected(self):
        series = PriceSeries(np.array([12_000]), np.array([5.0]))
        with pytest.raises(InsufficientDataError) as exc:
            align_to_blocks(series, np.array([11_000]))
        assert str(exc.value) == "prices cover [12000, 12000] but the schedule needs [11000, 11000]"

    def test_block_before_the_first_stamp_rejected(self):
        # the coverage message names the first block as it names the last
        series = PriceSeries(np.array([12_000, 13_000]), np.array([5.0, 6.0]))
        with pytest.raises(InsufficientDataError) as exc:
            align_to_blocks(series, np.array([10_000, 12_000, 13_000]))
        assert str(exc.value) == "prices cover [12000, 13000] but the schedule needs [10000, 13000]"

    def test_block_past_the_last_stamp_rejected(self):
        series = PriceSeries(np.array([12_000, 13_000]), np.array([5.0, 6.0]))
        with pytest.raises(InsufficientDataError) as exc:
            align_to_blocks(series, np.array([13_000, 20_000, 30_000]))
        assert str(exc.value) == "prices cover [12000, 13000] but the schedule needs [13000, 30000]"

    def test_empty_series_rejected_even_without_blocks(self):
        series = PriceSeries(np.array([], np.int64), np.array([], float))
        with pytest.raises(InsufficientDataError, match=re.escape("prices cover []")):
            align_to_blocks(series, np.array([], dtype=np.int64))


class TestQuotesFromPrices:
    def test_zero_spread(self):
        series = PriceSeries(np.array([0, 1]), np.array([2.0, 3.0]))
        out = quotes_from_prices(series)
        assert np.array_equal(out.bids, out.asks)


class TestQuoteSeriesValidation:
    @pytest.mark.parametrize("columns, value", [
        (("bids",), np.nan), (("asks",), np.nan), (("bids", "asks"), np.inf),
    ], ids=["nan-bid", "nan-ask", "inf"])
    def test_non_finite_quote_rejected(self, columns, value):
        quotes = {"bids": np.array([1.0, 2.0, 3.0]), "asks": np.array([1.0, 2.0, 3.0])}
        for column in columns:
            quotes[column][1] = value
        with pytest.raises(InputError) as err:
            QuoteSeries(np.array([0, 1, 2]), quotes["bids"], quotes["asks"])
        # the quotes loader's message: the band rule is one function
        assert str(err.value) == f"invalid quote bid={quotes['bids'][1]} ask={quotes['asks'][1]}"

    def test_resolution_does_not_wrap(self):
        ones = np.ones(2)
        assert QuoteSeries(np.array([-(2**63), 2**63 - 1]), ones, ones).resolution_ms == 2**64 - 1
        assert QuoteSeries(np.array([7]), ones[:1], ones[:1]).resolution_ms == 0


@pytest.mark.parametrize("make", [
    lambda ts: PriceSeries(ts, np.ones(2)),
    lambda ts: QuoteSeries(ts, np.ones(2), np.ones(2)),
    BlockSchedule.from_blocks,
], ids=["price", "quote", "schedule"])
def test_time_order_check_does_not_wrap(make):
    make(np.array([-(2**63), 0]))  # increasing by more than the int64 range
    with pytest.raises(InputError):
        make(np.array([2**63 - 1, -(2**63)]))  # np.diff wraps this to +1
