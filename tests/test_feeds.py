import gzip

import numpy as np
import pytest

from lvrsim import (
    InputError,
    InsufficientDataError,
    ParseError,
    PriceSeries,
    QuoteSeries,
    align_to_blocks,
    derive_cross_pair,
    load_block_timestamps,
    load_klines,
    load_quote_updates,
    quotes_from_prices,
    resample_locf,
    substitute_gap,
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
        assert series[0].timestamp == 1672531200000
        assert series[0].price == 1200.50

    def test_header_detected(self, tmp_path):
        path = write(tmp_path, "k.csv",
                     "timestamp_ms,open,high,low,close,volume\n1000,2.5,3,2,2.6,1\n")
        series = load_klines(path)
        assert len(series) == 1 and series[0].price == 2.5

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
        assert load_klines(path)[0].price == 2.5

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


def quotes(ts, bids, asks=None):
    bids = np.asarray(bids, float)
    return QuoteSeries(np.asarray(ts, np.int64), bids,
                       bids if asks is None else np.asarray(asks, float))


class TestResampleLocf:
    def test_hand_example(self):
        series = quotes([0, 5000], [99, 100], [101, 102])
        out = resample_locf(series, 4000, (0, 8000))
        assert out.timestamps.tolist() == [0, 4000, 8000]
        assert out.bids.tolist() == [99, 99, 100]
        assert out.asks.tolist() == [101, 101, 102]

    def test_interval_larger_than_window(self):
        series = quotes([0], [10.0])
        out = resample_locf(series, 100_000, (0, 500))
        assert out.timestamps.tolist() == [0]

    def test_constant_quote_sample_count(self):
        series = quotes([0], [10.0])
        out = resample_locf(series, 1000, (0, 10_000))
        assert len(out) == 11
        assert np.all(out.bids == 10.0)

    def test_requires_update_before_start(self):
        series = quotes([5000], [10.0])
        with pytest.raises(InsufficientDataError):
            resample_locf(series, 1000, (0, 8000))

    def test_grid_is_arithmetic_and_values_subset(self):
        rng = np.random.default_rng(1)
        ts = np.cumsum(rng.integers(1, 500, size=200))
        series = quotes(ts, rng.uniform(10, 11, size=200))
        out = resample_locf(series, 700, (int(ts[0]), int(ts[-1])))
        assert np.all(np.diff(out.timestamps) == 700)
        assert set(out.bids.tolist()) <= set(series.bids.tolist())

    def test_coarsening_consistency(self):
        # resampling at d then 2d equals direct resampling at 2d
        rng = np.random.default_rng(2)
        ts = np.cumsum(rng.integers(1, 900, size=300))
        series = quotes(ts, rng.uniform(1, 2, size=300))
        window = (int(ts[0]), int(ts[0]) + 60_000)
        fine = resample_locf(series, 500, window)
        coarse_via_fine = resample_locf(fine, 1000, window)
        coarse = resample_locf(series, 1000, window)
        assert np.array_equal(coarse_via_fine.bids, coarse.bids)
        assert np.array_equal(coarse_via_fine.timestamps, coarse.timestamps)


class TestDeriveCrossPair:
    def test_mid_division(self):
        a = PriceSeries(np.array([0]), np.array([2.5]))
        b = PriceSeries(np.array([0]), np.array([2500.0]))
        assert derive_cross_pair(a, b).prices.tolist() == [0.001]

    def test_self_is_unity(self):
        series = PriceSeries(np.array([0, 1]), np.array([3.0, 4.0]))
        assert derive_cross_pair(series, series).prices.tolist() == [1.0, 1.0]

    def test_bid_ask_conservative(self):
        a = quotes([0], [2.4], [2.6])
        b = quotes([0], [2400.0], [2600.0])
        out = derive_cross_pair(a, b)
        assert out.bids[0] == pytest.approx(2.4 / 2600, rel=1e-15)
        assert out.asks[0] == pytest.approx(2.6 / 2400, rel=1e-15)

    def test_self_quote_brackets_unity(self):
        series = quotes([0, 1], [99.0, 100.0], [101.0, 102.0])
        out = derive_cross_pair(series, series)
        assert np.all(out.bids <= 1.0) and np.all(out.asks >= 1.0)

    def test_grid_mismatch_rejected(self):
        a = PriceSeries(np.array([0]), np.array([1.0]))
        b = PriceSeries(np.array([1]), np.array([1.0]))
        with pytest.raises(InputError):
            derive_cross_pair(a, b)


class TestSubstituteGap:
    def test_splice(self):
        primary = PriceSeries(np.array([0, 1000, 5000, 6000]),
                              np.array([1.0, 1.1, 1.5, 1.6]))
        fallback = PriceSeries(np.array([1000, 2000, 3000, 4000, 5000]),
                               np.array([2.0, 2.1, 2.2, 2.3, 2.4]))
        out = substitute_gap(primary, fallback, (2000, 4000))
        assert out.timestamps.tolist() == [0, 1000, 2000, 3000, 4000, 5000, 6000]
        assert out.prices.tolist() == [1.0, 1.1, 2.1, 2.2, 2.3, 1.5, 1.6]

    def test_empty_gap_is_identity(self):
        primary = PriceSeries(np.array([0, 1000]), np.array([1.0, 1.1]))
        fallback = PriceSeries(np.array([0]), np.array([9.0]))
        assert substitute_gap(primary, fallback, (500, 500)) is primary

    def test_fills_hole_in_primary(self):
        primary = PriceSeries(np.array([0, 10_000]), np.array([1.0, 1.2]))
        fallback = PriceSeries(np.array([0, 2000, 4000, 6000, 8000, 10_000]),
                               np.array([1.0, 1.02, 1.05, 1.1, 1.15, 1.2]))
        out = substitute_gap(primary, fallback, (1000, 9000))
        assert len(out) == 6
        assert np.all(np.diff(out.timestamps) > 0)

    def test_missing_coverage_rejected(self):
        primary = PriceSeries(np.array([0, 10_000]), np.array([1.0, 1.2]))
        fallback = PriceSeries(np.array([2000, 3000]), np.array([1.0, 1.1]))
        with pytest.raises(InsufficientDataError):
            substitute_gap(primary, fallback, (1000, 9000))


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
