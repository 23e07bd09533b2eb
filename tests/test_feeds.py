import gzip
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import lvrsim.feeds as feeds
from lvrsim import (
    BlockSchedule,
    InputError,
    InsufficientDataError,
    ParseError,
    PriceSeries,
    QuoteSeries,
    align_to_blocks,
    load_block_timestamps,
    load_klines,
    load_quote_updates,
    quotes_from_prices,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
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


# --- the columnar fast path against the row parser --------------------------

LOADERS = {"klines": load_klines, "quotes": load_quote_updates, "blocks": load_block_timestamps}


def row_path(load, path):
    """What the loader gives with its columnar fast path switched off."""
    with mock.patch.object(feeds, "_read_columns", lambda *args: None):
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
        "quoted-cells": '"1000","2.5",3,2,2.6,1\n2000,2.6,3,2,2.7,1\n',
        "quoted-cell-over-two-lines": KLINE + '2000,2.5,3,2,2.6,"a\n3000,3.0,1,1,1,b"\n',
        "quoted-header": '"timestamp_ms",open,high,low,close,volume\n' + KLINE,
        "underscore": "1_000,2.5,3,2,2.6,1\n",
        "whitespace-line": KLINE + "   \n2000,2.6,3,2,2.7,1\n",
    },
    "quotes": {
        "quoted-cells": '0,"99",101\n',
        "underscore": "0,99,1_01\n",
        "whitespace-line": "0,99,101\n \t \n1,99,101\n",
    },
    "blocks": {
        "quoted-cells": '"100",12\n',
        "underscore": "1_00,12\n",
        "whitespace-line": "100,12\n  \n101,24\n",
    },
}


def cases(table):
    return [pytest.param(kind, text, id=f"{kind}-{name}")
            for kind, files in table.items() for name, text in files.items()]


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

    def test_cr_line_ends(self, tmp_path):
        path = write(tmp_path, "k.csv", "1000,2.5,3,2,2.6,1\r2000,2.6,3,2,2.7,1\r")
        assert_bitwise_equal(columnar_only(load_klines, path), row_path(load_klines, path))

    def test_quoted_cell_over_two_lines_is_one_row(self, tmp_path):
        path = write(tmp_path, "k.csv", LOADTXT_REJECTS["klines"]["quoted-cell-over-two-lines"])
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
        # the quote sends the file to the row parser, whose csv.reader refuses the cell
        path = write(tmp_path, "k.csv", KLINE + '2000,2.0,2,2,2,"' + "x" * 200_000 + '"\n')
        with pytest.raises(ParseError) as err:
            load_klines(path)
        assert str(err.value) == (
            f"{path}:2: unreadable row: field larger than field limit (131072)"
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
        path = write(tmp_path, "k.csv", '1000,2.5,3,2,2.6,"a\nb"\n2000,2.0,2,2,2,"'
                     + "x" * 200_000 + '"\n')
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

    def test_same_millisecond_collapse_logged_alike(self, tmp_path, caplog):
        path = write(tmp_path, "q.csv", "0,99,101\n5,99,100\n5,98,102\n5,97,103\n6,1,2\n")
        with caplog.at_level("WARNING", logger="lvrsim.feeds"):
            fast = columnar_only(load_quote_updates, path)
            slow = row_path(load_quote_updates, path)
        assert_bitwise_equal(fast, slow)
        assert fast.bids.tolist() == [99, 97, 1]
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: dropped 2 earlier duplicate-timestamp updates"] * 2


# Numbers in every layout both parsers read to the same value, and unparsed
# kline cells of any text without a delimiter, quote or line break.
INTS = st.integers(-(2**63), 2**63 - 1)
POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)
INT_TEXT = st.sampled_from(["{}", "{:+d}", " {} ", "{:05d}", "\t{}"]).map(
    lambda layout: layout.format)
FLOAT_TEXT = st.sampled_from(["{!r}", "{:.17e}", "{:+.17g}", " {!r}\t", "{:.17E}"]).map(
    lambda layout: layout.format)
CELL = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
               max_size=4)


@st.composite
def csv_file(draw, rows, header):
    """(text, gzip) of the rows, with blank lines and optionally a header and CRLF."""
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    if draw(st.booleans()):
        lines.insert(0, header)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + (newline if lines else ""), draw(st.booleans())


def save(directory, content):
    text, compress = content
    path = directory / ("f.csv.gz" if compress else "f.csv")
    data = text.encode("utf-8")
    path.write_bytes(gzip.compress(data, mtime=0) if compress else data)
    return str(path)


@st.composite
def kline_files(draw):
    stamps = sorted(draw(st.lists(INTS, max_size=20, unique=True)))
    rows = [[draw(INT_TEXT)(t), draw(FLOAT_TEXT)(draw(POSITIVE)),
             *draw(st.lists(CELL, min_size=4, max_size=7))] for t in stamps]
    return draw(csv_file(rows, "timestamp_ms,open,high,low,close,volume"))


@st.composite
def quote_files(draw):
    stamps = sorted(draw(st.lists(INTS, max_size=12, unique=True)))
    rows = []
    for t in stamps:
        for _ in range(draw(st.integers(1, 3))):  # updates in the same millisecond
            bid, ask = sorted(draw(st.lists(POSITIVE, min_size=2, max_size=2)))
            rows.append([draw(INT_TEXT)(t), draw(FLOAT_TEXT)(bid), draw(FLOAT_TEXT)(ask)])
    return draw(csv_file(rows, "timestamp_ms,bid,ask"))


@st.composite
def block_files(draw):
    n = draw(st.integers(0, 20))
    numbers = sorted(draw(st.lists(INTS, min_size=n, max_size=n, unique=True)))
    # seconds whose milliseconds fit in int64; the rest are rejected
    in_range = st.integers(-(2**63 // 1000) + 1, 2**63 // 1000 - 1)
    seconds = sorted(draw(st.lists(in_range, min_size=n, max_size=n, unique=True)))
    rows = [[draw(INT_TEXT)(b), draw(INT_TEXT)(s)] for b, s in zip(numbers, seconds)]
    return draw(csv_file(rows, "block_number,timestamp_s"))


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


def quotes(ts, bids, asks=None):
    bids = np.asarray(bids, float)
    return QuoteSeries(np.asarray(ts, np.int64), bids,
                       bids if asks is None else np.asarray(asks, float))


@st.composite
def locf_cases(draw):
    """(stamps, instants): strictly increasing stamps, instants in increasing order.

    Instants land on stamps, between them, before the first and far past the last.
    """
    stamps = sorted(draw(st.sets(st.integers(-1000, 1000), max_size=20)))
    instant = st.integers(-1010, 1010) | st.integers(2**40, 2**62)
    if stamps:
        instant |= st.sampled_from(stamps)
    instants = sorted(draw(st.lists(instant, max_size=20)))
    return np.array(stamps, np.int64), np.array(instants, np.int64)


class TestLocfIndex:
    """feeds._locf_index, the one last-observation-carried-forward lookup."""

    @given(case=locf_cases())
    @example(case=(np.array([], np.int64), np.array([5], np.int64)))
    @example(case=(np.array([], np.int64), np.array([], np.int64)))
    @example(case=(np.array([0, 10], np.int64), np.array([], np.int64)))
    @example(case=(np.array([0, 10], np.int64), np.array([-1, 10, 2**62], np.int64)))
    @example(case=(np.array([0, 10], np.int64), np.array([0, 10, 11, 2**62], np.int64)))
    def test_matches_per_instant_loop(self, case):
        stamps, instants = case
        ts = stamps.tolist()
        expected = [max((i for i, s in enumerate(ts) if s <= t), default=-1)
                    for t in instants.tolist()]
        if not ts or -1 in expected:  # nothing at or before some instant
            with pytest.raises(InsufficientDataError):
                feeds._locf_index(stamps, instants)
        else:
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
        with pytest.raises(InsufficientDataError, match="instant 0; the first is at 5000"):
            feeds._locf_index(np.array([5000]), [0, 8000])
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
        with pytest.raises(InsufficientDataError):
            align_to_blocks(series, np.array([11_000]))

    def test_blocks_past_the_last_stamp_carry_it_forward_as_fills(self):
        series = PriceSeries(np.array([12_000, 13_000]), np.array([5.0, 6.0]))
        out, fills = align_to_blocks(series, np.array([13_000, 20_000, 30_000]))
        assert out.prices.tolist() == [6.0, 6.0, 6.0]
        assert fills == 2

    def test_empty_series_rejected_even_without_blocks(self):
        series = PriceSeries(np.array([], np.int64), np.array([], float))
        with pytest.raises(InsufficientDataError, match="no update"):
            align_to_blocks(series, np.array([], dtype=np.int64))


class TestQuotesFromPrices:
    def test_zero_spread(self):
        series = PriceSeries(np.array([0, 1]), np.array([2.0, 3.0]), pair="A/B")
        out = quotes_from_prices(series)
        assert np.array_equal(out.bids, out.asks)
        assert out.pair == "A/B"


class TestQuoteSeriesValidation:
    @pytest.mark.parametrize("columns, value", [
        (("bids",), np.nan), (("asks",), np.nan), (("bids", "asks"), np.inf),
    ], ids=["nan-bid", "nan-ask", "inf"])
    def test_non_finite_quote_rejected(self, columns, value):
        quotes = {"bids": np.array([1.0, 2.0, 3.0]), "asks": np.array([1.0, 2.0, 3.0])}
        for column in columns:
            quotes[column][1] = value
        with pytest.raises(InputError, match="finite"):
            QuoteSeries(np.array([0, 1, 2]), quotes["bids"], quotes["asks"])


@pytest.mark.parametrize("make", [
    lambda ts: PriceSeries(ts, np.ones(2)),
    lambda ts: QuoteSeries(ts, np.ones(2), np.ones(2)),
    BlockSchedule.from_blocks,
], ids=["price", "quote", "schedule"])
def test_time_order_check_does_not_wrap(make):
    make(np.array([-(2**63), 0]))  # increasing by more than the int64 range
    with pytest.raises(InputError):
        make(np.array([2**63 - 1, -(2**63)]))  # np.diff wraps this to +1
