import dataclasses
import itertools
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_feeds import (FLOAT_TEXT, INT_TEXT, INTS, POSITIVE, VALUE_TOKENS, _swaps, cases,
                        check_as_the_loader, csv_file, message, save, write)

import lvrsim.feeds as feeds
import lvrsim.fees as fees
from lvrsim import (
    InputError,
    ParseError,
    PositionLedger,
    SwapRecord,
    SwapTable,
    accumulate,
    attribute_fees,
    concentration_scale,
    convert_raw_swap_export,
    fee_earned,
    load_swap_records,
    position_value_of_liquidity,
    relative_fee_return,
    sqrt_price_x96_to_price,
)

FIXTURE = Path(__file__).parent / "data" / "swaps_fixture.csv"


def record(**overrides):
    base = dict(
        block_number=1, timestamp=1000, input_token="Y", amount_in=10_000.0,
        fee_rate=0.003, post_swap_price=2000.0, post_swap_liquidity=1_000_000.0,
    )
    base.update(overrides)
    return SwapRecord(**base)


class TestSwapRecord:
    def test_rejects_zero_amount(self):
        with pytest.raises(InputError):
            record(amount_in=0.0)

    def test_rejects_bad_token(self):
        with pytest.raises(InputError):
            record(input_token="Z")

    def test_rejects_fee_out_of_range(self):
        with pytest.raises(InputError):
            record(fee_rate=0.0)
        with pytest.raises(InputError):
            record(fee_rate=1.0)

    @given(token=st.sampled_from(["X", "Y", "Z", "x", "", "XY"]),
           values=st.lists(VALUE_TOKENS | st.sampled_from(["0.003", "0.5", "1", "1e6"]),
                           min_size=4, max_size=4))
    def test_checks_as_the_loader(self, tmp_path_factory, token, values):
        """SwapRecord checks a row with load_swap_records' rules, in its order, and gives its
        messages."""
        path = write(tmp_path_factory.mktemp("s"), "s.csv", ",".join(["1,1000", token, *values]))
        check_as_the_loader(load_swap_records, path,
                            lambda *floats: message(SwapRecord, 1, 1000, token, *floats), values)


class TestFeeEarned:
    def test_one_percent_share(self):
        r = record()
        assert fee_earned(r, 10_000.0) == pytest.approx(0.30, rel=1e-12)

    def test_full_share(self):
        r = record()
        assert fee_earned(r, 1_000_000.0) == pytest.approx(30.0, rel=1e-12)

    def test_rejects_position_larger_than_pool(self):
        with pytest.raises(InputError):
            fee_earned(record(), 2_000_000.0)

    @pytest.mark.parametrize("liquidity", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_position_not_finite_and_positive(self, liquidity):
        with pytest.raises(InputError, match="finite and positive"):
            fee_earned(record(), liquidity)
        with pytest.raises(InputError, match="finite and positive"):
            PositionLedger(liquidity)

    def test_linear_in_amount_and_share(self):
        r1 = fee_earned(record(amount_in=5000.0), 10_000.0)
        r2 = fee_earned(record(amount_in=10_000.0), 10_000.0)
        assert r2 == pytest.approx(2 * r1, rel=1e-12)
        s1 = fee_earned(record(), 10_000.0)
        s2 = fee_earned(record(), 20_000.0)
        assert s2 == pytest.approx(2 * s1, rel=1e-12)

    def test_disjoint_slices_sum_to_whole(self):
        r = record()
        whole = fee_earned(r, 30_000.0)
        parts = fee_earned(r, 10_000.0) + fee_earned(r, 20_000.0)
        assert parts == pytest.approx(whole, rel=1e-12)


class TestRelativeFeeReturn:
    def test_y_fee(self):
        assert relative_fee_return(record(), 0.30, 4000.0) == pytest.approx(7.5e-5)

    def test_x_fee_converted(self):
        r = record(input_token="X")
        assert relative_fee_return(r, 0.001, 4000.0) == pytest.approx(0.0005)

    def test_zero_fee(self):
        assert relative_fee_return(record(), 0.0, 4000.0) == 0.0

    def test_rejects_nonpositive_value(self):
        with pytest.raises(InputError):
            relative_fee_return(record(), 0.1, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_value_that_is_not_finite(self, value):
        with pytest.raises(InputError, match="^position value must be positive, got "):
            relative_fee_return(record(), 0.1, value)


class TestAccumulate:
    def test_compounding(self):
        ledger = accumulate(PositionLedger(1.0), [0.01, 0.01])
        assert ledger.cumulative_growth == pytest.approx(1.0201, rel=1e-12)

    def test_empty_is_identity(self):
        ledger = PositionLedger(1.0)
        out = accumulate(ledger, [])
        assert out.cumulative_growth == 1.0 and len(out.returns) == 0

    def test_zero_return_recorded(self):
        out = accumulate(PositionLedger(1.0), [0.0])
        assert out.cumulative_growth == 1.0 and len(out.returns) == 1

    def test_rejects_return_at_minus_one(self):
        with pytest.raises(InputError):
            accumulate(PositionLedger(1.0), [-1.0])

    def test_growth_matches_product(self):
        rng = np.random.default_rng(4)
        returns = rng.uniform(0, 1e-3, size=500)
        ledger = accumulate(PositionLedger(2.0), returns)
        product = 1.0
        for r in returns:
            product *= 1.0 + r
        assert ledger.cumulative_growth == product


class TestPositionLedger:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, -3.0])
    def test_hand_built_returns_are_checked(self, bad):
        with pytest.raises(InputError, match=r"^returns must be finite and > -1$"):
            PositionLedger(1.0, np.array([0.01, bad]), np.array([1, 2]))
        with pytest.raises(InputError, match=r"^returns must be finite and > -1$"):
            accumulate(PositionLedger(1.0), [0.01, bad], [1, 2])

    def test_growth_past_the_float_range_is_rejected(self):
        # each return is finite; their fold is not, and numpy's overflow warning is an error
        message = r"returns compound to a growth of inf; it must be finite$"
        with pytest.raises(InputError, match="^" + message):
            PositionLedger(1.0, np.array([1e200, 1e200]), np.array([1, 2]))
        ledger = PositionLedger(1.0, np.array([1e100, 1e100]), np.array([1, 2]))
        for factor, fault in [(1e150, "compound to a growth of inf; it must be finite"),
                              (1e300, "must be finite and > -1")]:  # an inf return
            with pytest.raises(InputError) as err:
                ledger.scaled(factor)
            assert str(err.value) == (f"concentration factor {factor} scales the fee returns "
                                      f"past the float range: returns {fault}")

    def test_unequal_columns_rejected(self):
        message = "^timestamps and returns must have equal length$"
        with pytest.raises(InputError, match=message):
            PositionLedger(1.0, np.array([0.01, 0.02]), np.array([1]))
        with pytest.raises(InputError, match=message):
            accumulate(PositionLedger(1.0), [0.01, 0.02], [1])
        # the returns are checked first
        with pytest.raises(InputError, match=r"^returns must be finite and > -1$"):
            PositionLedger(1.0, np.array([math.nan, -3.0]), np.array([1]))

    def test_returns_are_checked_a_chunk_at_a_time(self):
        """The return rule runs through feeds._check, so its masks are a chunk long: on 10^6
        returns the constructor traces 0.07 MiB, where full-length masks took 1.91."""
        returns, stamps = np.full(10**6, 1e-9), np.arange(10**6)
        PositionLedger(1.0, returns[:10], stamps[:10])  # anything imported on first use
        tracemalloc.start()
        try:
            PositionLedger(1.0, returns, stamps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**18

    def test_columns_are_coerced(self):
        ledger = PositionLedger(1.0, [0, 0.5], [1000, 2000])
        assert ledger.returns.dtype == np.float64 and ledger.timestamps.dtype == np.int64
        assert ledger.cumulative_growth == 1.5
        empty = PositionLedger(1.0)
        assert empty.returns.dtype == np.float64 and empty.timestamps.dtype == np.int64
        assert empty.returns.shape == empty.timestamps.shape == (0,)

    def test_scaled_is_the_concentration_scale_of_the_returns(self):
        ledger = attribute_fees(load_swap_records(str(FIXTURE)), 500.0, per_block=True)
        scaled = ledger.scaled(3.0)
        assert scaled.returns.tobytes() == concentration_scale(ledger.returns, 3.0).tobytes()
        assert scaled.timestamps.tobytes() == ledger.timestamps.tobytes()
        assert scaled.position_liquidity == ledger.position_liquidity
        with pytest.raises(InputError, match="concentration factor must be >= 1"):
            ledger.scaled(0.5)


def table(**overrides):
    """A SwapTable of three valid swaps as plain lists, with columns replaced."""
    columns = dict(block_numbers=[1, 2, 2], timestamps=[1000, 2000, 2000],
                   input_tokens=["X", "Y", "Y"], amounts_in=[5.0, 7.0, 1.0],
                   fee_rates=[0.003] * 3, post_swap_prices=[2000.0, 2001.0, 2002.0],
                   post_swap_liquidities=[1e6] * 3)
    columns.update(overrides)
    return SwapTable(**columns)


class TestSwapTable:
    def test_hand_built_arrays_are_checked(self):
        # a token that is neither X nor Y, and a negative amount
        with pytest.raises(InputError, match="^input_token must be X or Y, got 'Z'$"):
            SwapTable(np.array([1]), np.array([1000]), np.array(["Z"]), np.array([-5.0]),
                      np.array([0.003]), np.array([2000.0]), np.array([1e6]))
        with pytest.raises(InputError, match="^amount_in must be positive, got -5.0$"):
            SwapTable(np.array([1]), np.array([1000]), np.array(["X"]), np.array([-5.0]),
                      np.array([0.003]), np.array([2000.0]), np.array([1e6]))

    @pytest.mark.parametrize("name, column, bad", [
        ("input_token", "input_tokens", ["x", "Z"]), ("amount_in", "amounts_in", [-1.0, 0.0]),
        ("fee_rate", "fee_rates", [1.0, math.nan]),
        ("post_swap_price", "post_swap_prices", [math.inf, -1.0]),
        ("post_swap_liquidity", "post_swap_liquidities", [0.0, math.nan]),
    ])
    def test_first_rejected_row_gives_the_record_message(self, name, column, bad):
        with pytest.raises(InputError) as expected:
            record(**{name: bad[0]})
        valid = getattr(table(), column)[0]
        with pytest.raises(InputError) as err:
            table(**{column: [valid, *bad]})
        assert str(err.value) == str(expected.value)

    def test_columns_are_coerced(self):
        swaps = table()
        assert swaps.block_numbers.dtype == np.int64 and swaps.timestamps.dtype == np.int64
        assert swaps.input_tokens.dtype == object
        assert swaps.amounts_in.dtype == np.float64
        assert swaps[1] == record(block_number=2, timestamp=2000, amount_in=7.0,
                                  post_swap_price=2001.0)

    @pytest.mark.parametrize("column, values, message", [
        ("timestamps", [2000, 1000, 3000], "^timestamps decreasing: 1000 after 2000$"),
        ("block_numbers", [2, 1, 2], "^block numbers decreasing: 1 after 2$"),
    ])
    def test_order_checked(self, column, values, message):
        with pytest.raises(InputError, match=message):
            table(**{column: values})

    def test_unequal_columns_rejected(self):
        with pytest.raises(InputError, match="equal length"):
            table(amounts_in=[5.0])


class TestAttributeFees:
    def test_fixture_totals(self):
        records = load_swap_records(str(FIXTURE))
        assert len(records) == 1000
        ledger = attribute_fees(records, 500.0)
        # frozen from the spreadsheet-style recomputation over the fixture
        assert ledger.cumulative_growth - 1.0 == pytest.approx(
            2.2638787300643948e-4, rel=1e-9
        )

    def test_per_block_close_to_per_swap(self):
        records = load_swap_records(str(FIXTURE))
        per_swap = attribute_fees(records, 500.0).cumulative_growth - 1.0
        per_block = attribute_fees(records, 500.0, per_block=True).cumulative_growth - 1.0
        assert abs(per_block - per_swap) / per_swap < 1e-3

    def test_rejects_out_of_order_records(self):
        records = [record(timestamp=2000), record(timestamp=1000)]
        with pytest.raises(InputError):
            attribute_fees(records, 1.0)

    def test_rejects_block_numbers_going_back(self):
        records = [record(block_number=5), record(block_number=4, timestamp=2000),
                   record(block_number=5, timestamp=3000)]
        for per_block in (False, True):
            with pytest.raises(InputError, match="^block numbers decreasing: 4 after 5$"):
                attribute_fees(records, 1.0, per_block=per_block)

    def test_timestamp_order_checked_before_block_order(self):
        records = [record(block_number=5), record(block_number=4, timestamp=900)]
        with pytest.raises(InputError, match="^timestamps decreasing: 900 after 1000$"):
            attribute_fees(records, 1.0)

    @pytest.mark.parametrize("per_block, liquidity", [(False, 3.0), (True, 2.0)])
    def test_position_above_pool_liquidity_names_it(self, per_block, liquidity):
        # per block, each swap is checked against the end-of-block liquidity
        records = [record(post_swap_liquidity=3.0), record(post_swap_liquidity=9.0),
                   record(block_number=2, post_swap_liquidity=2.0)]
        with pytest.raises(InputError) as err:
            attribute_fees(records, 4.0, per_block=per_block)
        assert str(err.value) == ("position liquidity 4.0 exceeds pool in-range "
                                  f"liquidity {liquidity}")

    def test_returns_scale_with_amounts(self):
        records = [record(), record(timestamp=2000, amount_in=20_000.0)]
        ledger = attribute_fees(records, 500.0)
        assert ledger.returns[1] == pytest.approx(2 * ledger.returns[0], rel=1e-12)


class TestLoadSwapRecords:
    def test_bad_token_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,1000,Q,5.0,0.003,2000.0,1e6\n")
        with pytest.raises(ParseError) as err:
            load_swap_records(str(path))
        assert err.value.line == 1

    def test_block_number_going_back_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(MALFORMED_SWAPS["block-decreasing"])
        with pytest.raises(ParseError) as err:
            load_swap_records(str(path))
        assert str(err.value) == f"{path}:2: block numbers decreasing: 4 after 5"

    def test_one_load_applies_the_rules_once(self, monkeypatch):
        """Each row is checked once: the rules run on chunks of 300 rows, each chunk after
        the first with the row before it."""
        calls = []
        rules = fees._swap_rules
        monkeypatch.setattr(fees, "_swap_rules",
                            lambda *columns: calls.append(len(columns[0])) or rules(*columns))
        monkeypatch.setattr(feeds, "_CHUNK", 300)
        table = load_swap_records(str(FIXTURE))
        assert calls == [300, 301, 301, 101]
        # the loaded columns are what the checked constructor makes of them
        rebuilt = SwapTable(*(getattr(table, f.name) for f in dataclasses.fields(SwapTable)))
        for f in dataclasses.fields(SwapTable):
            loaded, checked = getattr(table, f.name), getattr(rebuilt, f.name)
            assert loaded.dtype == checked.dtype and loaded.tolist() == checked.tolist()

    def test_table_rows_are_records(self):
        table = load_swap_records(str(FIXTURE))
        records = list(table)
        assert len(table) == len(records) == 1000
        assert table[-1] == records[999] and table[-1000] == records[0]
        assert typed([table[-1]]) == typed(records[-1:])
        with pytest.raises(IndexError):
            table[1000]


GOOD_SWAP = (1, 1000, "X", 5.0, 0.003, 2000.0, 1e6)


@pytest.mark.parametrize("column, value", [
    (2, "Z"), (3, -5.0), (4, 1.5), (5, 0.0), (6, -1.0), (1, 999), (0, 0),
], ids=["token", "amount", "fee-rate", "price", "liquidity", "timestamp-back", "block-back"])
def test_table_and_file_report_a_fault_alike(tmp_path, column, value):
    rows = [GOOD_SWAP, (*GOOD_SWAP[:column], value, *GOOD_SWAP[column + 1:])]
    with pytest.raises(InputError) as table_err:
        SwapTable(*map(list, zip(*rows)))
    path = tmp_path / "swaps.csv"
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
    with pytest.raises(ParseError) as file_err:
        load_swap_records(str(path))
    assert str(file_err.value) == f"{path}:2: {table_err.value}"


def row_path(path):
    """Swap records with the columnar fast path switched off."""
    with mock.patch.object(feeds, "_read_chunks", lambda *args: iter([None])):
        return load_swap_records(path)


def columnar_only(path):
    """Swap records when reaching the row parser is an error."""
    with mock.patch.object(feeds, "_iter_rows", side_effect=AssertionError("row parser reached")):
        return load_swap_records(path)


def typed(records):
    """Each record with the type of each field, so that 1 and 1.0 differ."""
    return [(r, *map(type, dataclasses.astuple(r))) for r in records]


SWAP = "1,1000,X,5.0,0.003,2000.0,1e6\n"

MALFORMED_SWAPS = {
    "nan-amount": "1,1000,X,nan,0.003,2000.0,1e6\n",
    "inf-price": SWAP + "1,1000,Y,5.0,0.003,inf,1e6\n",
    "zero-amount": "1,1000,X,0,0.003,2000.0,1e6\n",
    "zero-price": "1,1000,X,5.0,0.003,0,1e6\n",
    "zero-fee": "1,1000,X,5.0,0,2000.0,1e6\n",
    "fee-of-one": "1,1000,X,5.0,1,2000.0,1e6\n",
    "nan-fee": "1,1000,X,5.0,nan,2000.0,1e6\n",
    "negative-liquidity": "1,1000,X,5.0,0.003,2000.0,-1e6\n",
    "inf-liquidity": "1,1000,X,5.0,0.003,2000.0,inf\n",
    "decreasing": SWAP + "2,999,Y,5.0,0.003,2000.0,1e6\n",
    "block-decreasing": ("5,1000,X,5.0,0.003,2000.0,1e6\n4,2000,Y,5.0,0.003,2000.0,1e6\n"
                         "5,3000,X,5.0,0.003,2000.0,1e6\n"),
    "short-row": "1,1000,X,5.0,0.003,2000.0\n",
    "extra-column": SWAP + "1,1000,X,5.0,0.003,2000.0,1e6,7\n",
    "token-XY": "1,1000,XY,5.0,0.003,2000.0,1e6\n",
    "token-X-tab-tab-Q": "1,1000,X\t\tQ,5.0,0.003,2000.0,1e6\n",
    "token-Y-nul": "1,1000,Y\x00,5.0,0.003,2000.0,1e6\n",
    "token-empty": "1,1000,,5.0,0.003,2000.0,1e6\n",
    "token-lowercase": "1,1000,x,5.0,0.003,2000.0,1e6\n",
    "block-int64-overflow": "99999999999999999999,1000,X,5.0,0.003,2000.0,1e6\n",
    "timestamp-int64-overflow": "1,99999999999999999999,X,5.0,0.003,2000.0,1e6\n",
    "float-block-number": "1.0,1000,X,5.0,0.003,2000.0,1e6\n",
    "comment-line": SWAP + "#1,1000,X,5.0,0.003,2000.0,1e6\n",
}

# files the row parser accepts and the fast path hands to it
FALLBACK_SWAPS = {
    "padded-token": "1,1000, X ,5.0,0.003,2000.0,1e6\n",
    "underscore": "1,1_000,X,5.0,0.003,2000.0,1e6\n",
    "whitespace-line": SWAP + "  \n" + SWAP,
}


class TestSwapColumnarParity:
    @pytest.mark.parametrize("kind, text", cases({"swaps": MALFORMED_SWAPS}))
    def test_malformed_file_raises_the_row_parser_error(self, tmp_path, kind, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as expected:
            row_path(str(path))
        with pytest.raises(ParseError) as err:
            load_swap_records(str(path))
        assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize("kind, text", cases({"swaps": FALLBACK_SWAPS}))
    def test_fallback_file_loads_through_row_parser(self, tmp_path, kind, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with mock.patch.object(feeds, "_iter_rows", wraps=feeds._iter_rows) as rows:
            records = load_swap_records(str(path))
        assert rows.called and records
        assert typed(records) == typed(row_path(str(path)))

    def test_rows_after_a_padded_token_are_kept(self, tmp_path):
        """np.loadtxt keeps the spaces of a padded token, which the rule flags; the row parser
        strips them, and reads the rows after it too, where the table ended at that row."""
        path = tmp_path / "s.csv"
        path.write_text("".join(f"{i},{1000 * i},{' Y ' if i == 2 else 'XY'[i % 2]},5.0,0.003,"
                                f"2000.0,1e6\n" for i in range(1, 6)))
        records = load_swap_records(str(path))
        assert [r.input_token for r in records] == ["Y", "Y", "Y", "X", "Y"]
        assert typed(records) == typed(row_path(str(path)))

    def test_quoted_token_takes_the_fast_path(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text('1,1000,"Y",5.0,0.003,2000.0,1e6\n')
        records = columnar_only(str(path))
        assert records and typed(records) == typed(row_path(str(path)))

    def test_fixture_takes_the_fast_path(self):
        assert typed(columnar_only(str(FIXTURE))) == typed(row_path(str(FIXTURE)))

    def test_records_built_across_chunks(self, tmp_path):
        n = 16_387  # past the 16 384 rows that the rules take at a time
        path = tmp_path / "s.csv"
        path.write_text("".join(f"{i // 2},{i // 3},{'XY'[i % 2]},{i + 1}.5,0.003,2000.0,1e6\n"
                                for i in range(n)))
        records = columnar_only(str(path))
        assert len(records) == n
        assert typed(records) == typed(row_path(str(path)))


@st.composite
def swap_files(draw):
    # repeats allowed: several swaps in one block or in one ms
    stamps = sorted(draw(st.lists(INTS, max_size=20)))
    blocks = sorted(draw(st.lists(INTS, min_size=len(stamps), max_size=len(stamps))))
    fee = st.floats(0, 1, exclude_min=True, exclude_max=True)
    token = st.sampled_from(["X", "Y", '"X"', '"Y"'])
    rows = [[draw(INT_TEXT)(b), draw(INT_TEXT)(t), draw(token),
             draw(FLOAT_TEXT)(draw(POSITIVE)), draw(FLOAT_TEXT)(draw(fee)),
             draw(FLOAT_TEXT)(draw(POSITIVE)), draw(FLOAT_TEXT)(draw(POSITIVE))]
            for b, t in zip(blocks, stamps)]
    return draw(csv_file(rows, "block_number,timestamp_ms,input_token,amount_in,fee_rate,"
                               "post_swap_price,post_swap_liquidity"))


@given(content=swap_files())
def test_valid_swaps_fast_path_equals_row_parser(tmp_path_factory, content):
    path = save(tmp_path_factory.mktemp("s"), content)
    assert typed(columnar_only(path)) == typed(row_path(path))


def record_loop_ledger(records, position_liquidity, per_block):
    """The ledger of a loop over the record functions, the oracle of attribute_fees.

    Per block, each swap takes the end-of-block liquidity and its fee in Y is
    added in file order; relative_fee_return over a value of 1 is that fee.
    """
    returns, stamps = [], []
    if not per_block:
        for r in records:
            value = position_value_of_liquidity(position_liquidity, r.post_swap_price)
            returns.append(relative_fee_return(r, fee_earned(r, position_liquidity), value))
            stamps.append(r.timestamp)
    else:
        for _, group in itertools.groupby(records, lambda r: r.block_number):
            block = list(group)
            last = block[-1]
            fee_y = 0.0
            for r in block:
                r = dataclasses.replace(r, post_swap_liquidity=last.post_swap_liquidity)
                fee_y += relative_fee_return(r, fee_earned(r, position_liquidity), 1.0)
            value = position_value_of_liquidity(position_liquidity, last.post_swap_price)
            returns.append(fee_y / value)
            stamps.append(last.timestamp)
    return accumulate(PositionLedger(position_liquidity), returns, stamps)


@st.composite
def block_swap_files(draw):
    """(file, position liquidity): blocks of 1 to 14 swaps, X and Y mixed.

    Amounts and prices span twelve orders of magnitude, so that adding a
    block's fees in any order but file order changes the sum.
    """
    liquidities = st.floats(1.0, 1e9)
    rows, block, ts = [], 18_000_000, 1_700_000_000_000
    for size in draw(st.lists(st.integers(1, 14), max_size=6)):
        block += draw(st.integers(1, 3))
        for _ in range(size):
            ts += draw(st.integers(0, 2))
            rows.append([str(block), str(ts), draw(st.sampled_from("XY")),
                         *map(repr, [draw(st.floats(1e-6, 1e6)), draw(st.floats(1e-4, 0.05)),
                                     draw(st.floats(1e-6, 1e6)), draw(liquidities)])])
        ts += draw(st.integers(1, 12_000))
    # a liquidity of the file, or one no swap is below
    pool = [float(row[6]) for row in rows]
    position = draw(st.sampled_from(pool) if pool and draw(st.booleans()) else st.floats(1e-3, 1.0))
    content = draw(csv_file(rows, "block_number,timestamp_ms,input_token,amount_in,fee_rate,"
                                  "post_swap_price,post_swap_liquidity"))
    return content, position


@given(case=block_swap_files())
def test_attribution_equals_record_loop(tmp_path_factory, case):
    content, position = case
    table = load_swap_records(save(tmp_path_factory.mktemp("s"), content))
    records = list(table)
    for per_block, swaps in itertools.product((False, True), (table, records)):
        try:
            expected = record_loop_ledger(records, position, per_block)
        except InputError as exc:  # a position above some pool liquidity
            with pytest.raises(InputError) as err:
                attribute_fees(swaps, position, per_block=per_block)
            assert str(err.value) == str(exc)
            continue
        ledger = attribute_fees(swaps, position, per_block=per_block)
        assert ledger.returns.tobytes() == expected.returns.tobytes()
        assert ledger.timestamps.tobytes() == expected.timestamps.tobytes()
        assert ledger.cumulative_growth == expected.cumulative_growth


def whole_array_ledger(swaps: SwapTable, position_liquidity: float, per_block: bool):
    """attribute_fees over whole columns, in one pass with no chunks: the reference for it."""
    ends = np.ones(len(swaps), dtype=bool)
    if per_block:
        ends[:-1] = swaps.block_numbers[1:] != swaps.block_numbers[:-1]
    last = np.flatnonzero(ends)
    block = np.cumsum(ends) - ends
    liquidity = swaps.post_swap_liquidities[last].take(block)
    over = position_liquidity > liquidity
    if over.any():
        raise InputError(f"position liquidity {position_liquidity} exceeds pool in-range "
                         f"liquidity {float(liquidity[over.argmax()])}")
    fee = swaps.fee_rates * swaps.amounts_in * (position_liquidity / liquidity)
    fee = np.where(swaps.input_tokens == "X", fee * swaps.post_swap_prices, fee)
    sums = np.zeros(len(last))
    np.add.at(sums, block, fee)
    sums /= 2.0 * position_liquidity * np.sqrt(swaps.post_swap_prices[last])
    return PositionLedger(position_liquidity, sums, swaps.timestamps[last])


class TestAttributionChunks:
    """attribute_fees works through the swaps fees._CHUNK at a time, each chunk ending at a
    block end; its ledgers are those of the whole-array pass, bit for bit, at any chunk size."""

    CHUNKS = (1, 2, 3, 7, feeds._CHUNK)

    @staticmethod
    def swaps(sizes, liquidity=None) -> SwapTable:
        """Blocks of the given sizes, one block number apart, the swaps 1 ms apart."""
        n = sum(sizes)
        rng = np.random.default_rng(n)
        blocks = np.repeat(18_000_000 + np.arange(len(sizes)), sizes)
        return SwapTable(blocks, 1_700_000_000_000 + np.arange(n), rng.choice(["X", "Y"], n),
                         rng.uniform(1e-3, 1e4, n), rng.uniform(1e-4, 0.01, n),
                         rng.uniform(1e2, 1e4, n),
                         rng.uniform(1e5, 1e7, n) if liquidity is None else liquidity)

    @staticmethod
    def same(ledger, expected) -> bool:
        return (ledger.position_liquidity == expected.position_liquidity
                and ledger.returns.tobytes() == expected.returns.tobytes()
                and ledger.timestamps.tobytes() == expected.timestamps.tobytes())

    @pytest.mark.parametrize("per_block", [False, True], ids=["per-swap", "per-block"])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_ledger_equals_the_whole_array_pass(self, chunk, per_block):
        # blocks of 1 to 5 swaps in a shuffled order: blocks straddle the edges of every
        # chunk size, and a block of 5 is longer than chunks of 1 to 3
        sizes = np.random.default_rng(7).permutation(np.tile(np.arange(1, 6), 8)).tolist()
        swaps = self.swaps(sizes)
        expected = whole_array_ledger(swaps, 500.0, per_block)
        assert len(expected.returns) == (len(sizes) if per_block else sum(sizes))
        with mock.patch.object(fees, "_CHUNK", chunk):
            ledger = attribute_fees(swaps, 500.0, per_block=per_block)
        assert self.same(ledger, expected)
        assert ledger.returns.flags.c_contiguous and ledger.timestamps.flags.c_contiguous

    @pytest.mark.parametrize("per_block", [False, True], ids=["per-swap", "per-block"])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_position_above_a_later_chunk_names_the_first_such_swap(self, chunk, per_block):
        sizes = [3, 1, 4, 1, 5, 2, 3, 5, 2, 4]
        liquidity = np.full(sum(sizes), 1e6)
        liquidity[17] = 300.0  # mid-block: swaps 16 to 18, past chunks of up to 7 swaps
        liquidity[23] = 200.0  # the end of the next block, swaps 19 to 23
        liquidity[25] = 100.0  # the end of the block after
        swaps = self.swaps(sizes, liquidity)
        with pytest.raises(InputError) as expected:
            whole_array_ledger(swaps, 500.0, per_block)
        # per block, each swap is checked against its block's end: swap 19 comes first
        assert str(expected.value).endswith("liquidity 200.0" if per_block else "liquidity 300.0")
        with mock.patch.object(fees, "_CHUNK", chunk), pytest.raises(InputError) as err:
            attribute_fees(swaps, 500.0, per_block=per_block)
        assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize("per_block", [False, True], ids=["per-swap", "per-block"])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_file_read_a_chunk_at_a_time(self, tmp_path, chunk, per_block):
        """fees and compare read and attribute the file chunk rows at a time: the ledger of
        the loaded file, bit for bit, and its number of swaps."""
        sizes = np.random.default_rng(7).permutation(np.tile(np.arange(1, 6), 8)).tolist()
        swaps = self.swaps(sizes)
        path = tmp_path / "s.csv"
        columns = [getattr(swaps, f.name).tolist() for f in dataclasses.fields(SwapTable)]
        path.write_text("".join(f"{b},{t},{token},{a!r},{f!r},{p!r},{q!r}\n"
                                for b, t, token, a, f, p, q in zip(*columns)))
        expected = attribute_fees(load_swap_records(str(path)), 500.0, per_block=per_block)
        with mock.patch.object(fees, "_CHUNK", chunk):
            ledger, n = fees._attributed_file(str(path), 500.0, per_block)
        assert n == len(swaps) and self.same(ledger, expected)

    @pytest.mark.parametrize("per_block", [False, True], ids=["per-swap", "per-block"])
    def test_no_swaps_give_an_empty_ledger(self, per_block):
        ledger = attribute_fees(self.swaps([]), 500.0, per_block=per_block)
        assert len(ledger.returns) == len(ledger.timestamps) == 0
        assert ledger.cumulative_growth == 1.0


@pytest.mark.parametrize("fold", [1, 2, 3, 7, 1024])
def test_cumulative_growth_folds_in_chunks(fold):
    """cumulative_growth carries its product across chunks of _FOLD factors: the fold of the
    whole series, bit for bit."""
    returns = np.random.default_rng(3).uniform(0.0, 1e-3, 2500)
    ledger = PositionLedger(1.0, returns, np.arange(len(returns)))
    with mock.patch("lvrsim.pool._FOLD", fold):
        assert ledger.cumulative_growth == float(np.cumprod(1.0 + returns)[-1])


class TestAttributionMemory:
    """Traced peak of attribute_fees on 100 000 loaded swaps in blocks of 3, per swap.

    The loaded table is not counted. Attribution writes each return and its stamp
    (16 bytes) into the ledger's columns, and holds one byte a swap of block ends. Its
    other arrays belong to one chunk of feeds._CHUNK swaps: a block index, a fee and a
    share per swap, a liquidity and a sum per block, at most 40 bytes a swap of the
    chunk, about 0.6 MB, or 6.5 bytes a swap here. The whole-array pass it replaced
    peaked at 34 bytes a swap per swap and 29 per block.
    """

    ROWS = 100_000

    @pytest.mark.parametrize("per_block, bound", [(False, 24), (True, 14)],
                             ids=["per-swap", "per-block"])
    def test_peak_bytes_per_swap(self, tmp_path, per_block, bound):
        swaps = load_swap_records(write(tmp_path, "swaps.csv", _swaps(self.ROWS)))
        tracemalloc.start()
        try:
            ledger = attribute_fees(swaps, 500.0, per_block=per_block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ledger.returns) == (-(-self.ROWS // 3) if per_block else self.ROWS)
        assert peak / self.ROWS <= bound


class TestRawConversion:
    def test_sqrt_price_identity_decimals(self):
        # sqrtPriceX96 = 2^96 means price 1.0 at equal decimals
        assert sqrt_price_x96_to_price(2**96) == 1.0

    def test_sqrt_price_decimal_adjustment(self):
        raw = int(math.sqrt(2000e-12) * 2**96)
        price = sqrt_price_x96_to_price(raw, decimals_x=18, decimals_y=6)
        assert price == pytest.approx(2000.0, rel=1e-9)

    def test_convert_export_roundtrip(self, tmp_path):
        src = tmp_path / "raw.csv"
        dest = tmp_path / "swaps.csv"
        sqrt_price = int(math.sqrt(2000.0) * 2**96)
        src.write_text(
            "block_number,timestamp_ms,amount_x,amount_y,sqrt_price_x96,liquidity\n"
            f"100,1000,2500000000000000000,-4990000000000000000000,{sqrt_price},5000000000000000000000\n"
            f"101,2000,-1000000000000000000,2010000000000000000000,{sqrt_price},5000000000000000000000\n"
        )
        written = convert_raw_swap_export(str(src), str(dest), fee_rate=0.003)
        assert written == 2
        records = load_swap_records(str(dest))
        assert records[0].input_token == "X"
        assert records[0].amount_in == pytest.approx(2.5)
        assert records[1].input_token == "Y"
        assert records[1].amount_in == pytest.approx(2010.0)
        assert records[0].post_swap_price == pytest.approx(2000.0, rel=1e-9)
        assert records[0].post_swap_liquidity == pytest.approx(5000.0)

    @pytest.mark.parametrize("sqrt_price, decimals, price", [
        (2**96 * 10**160, (18, 18), "inf"),  # the square is past the float range
        (2**96, (400, 0), "inf"),  # the decimal scale is
        (2**96 * 10**5, (300, 0), "inf"),  # the scaled price is
        (2**96, (0, 400), "0.0"),  # the decimal scale underflows
        (2**1200, (18, 18), "inf"),  # the division is past the float range
    ], ids=["squared", "scale", "scaled", "scale-underflow", "divided"])
    def test_price_outside_the_float_range_names_sqrt_price(self, sqrt_price, decimals, price):
        with pytest.raises(InputError) as err:
            sqrt_price_x96_to_price(sqrt_price, *decimals)
        assert str(err.value) == (f"sqrt_price_x96 at decimals {decimals[0]} and {decimals[1]} "
                                  f"gives a price of {price}, outside the float range")

    RAW = f"100,1000,1,-1,{2**96},1\n101,2000,1,-1,{2**96},1\n"

    @pytest.mark.parametrize("decimals", [
        (309, 18), (18, 400),  # 10.0**d is past the float range
        (-324, 18), (18, -400),  # 10.0**d is 0
        (1.5, 18), (18, 6.5), (math.nan, 18), (18, math.inf), ("18", 18), (18, None),
    ], ids=["x-309", "y-400", "x-neg-324", "y-neg-400", "x-half", "y-half", "x-nan", "y-inf",
            "x-text", "y-none"])
    def test_decimals_are_checked_before_any_row(self, tmp_path, decimals):
        """Each decimals is a whole number whose scale is finite and nonzero, checked before
        the raw file is read (it does not exist here) or dest is opened."""
        dest = tmp_path / "swaps.csv"
        dest.write_bytes(b"kept\n")
        name, value = next((name, d) for name, d in zip(("decimals_x", "decimals_y"), decimals)
                           if d != 18)
        with pytest.raises(InputError) as err:
            convert_raw_swap_export(str(tmp_path / "absent.csv"), str(dest), 0.003, *decimals)
        assert type(err.value) is InputError
        assert str(err.value) == f"{name} must be a whole number from -323 to 308, got {value!r}"
        assert dest.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("decimals, cell", [((308, 308), "1"), ((-323, -323), "1e-300"),
                                                ((18.0, np.int64(6)), "1")],
                             ids=["308", "neg-323", "float-and-numpy"])
    def test_decimals_at_the_ends_of_the_range_convert(self, tmp_path, decimals, cell):
        """The amounts and the liquidity are divided by finite, nonzero scales."""
        src, dest = tmp_path / "raw.csv", tmp_path / "swaps.csv"
        src.write_text(f"100,1000,{cell},-1,{2**96},{cell}\n")
        assert convert_raw_swap_export(str(src), str(dest), 0.003, *decimals) == 1
        dx, dy = (int(d) for d in decimals)
        swaps = load_swap_records(str(dest))
        assert swaps.amounts_in.tolist() == [float(cell) / 10.0**dx]
        assert swaps.post_swap_prices.tolist() == [10.0 ** (dx - dy)]
        assert swaps.post_swap_liquidities.tolist() == [float(cell) / 10.0 ** ((dx + dy) / 2)]

    def test_numpy_fee_rate_is_written_as_its_value(self, tmp_path):
        # not as its repr, np.float64(0.003), which load_swap_records rejects
        src, dest = tmp_path / "raw.csv", tmp_path / "swaps.csv"
        src.write_text(self.RAW)
        convert_raw_swap_export(str(src), str(dest), fee_rate=np.float64(0.003))
        assert load_swap_records(str(dest)).fee_rates.tolist() == [0.003, 0.003]

    @pytest.mark.parametrize("existing", [None, b"kept\n"], ids=["no-dest", "dest-exists"])
    def test_bad_row_leaves_dest_as_it_was(self, tmp_path, existing):
        src, dest = tmp_path / "raw.csv", tmp_path / "swaps.csv"
        src.write_text(self.RAW + f"102,3000,abc,-1,{2**96},1\n")
        if existing is not None:
            dest.write_bytes(existing)
        with pytest.raises(ParseError) as err:
            convert_raw_swap_export(str(src), str(dest), fee_rate=0.003)
        assert str(err.value) == f"{src}:3: bad amount_x: 'abc'"
        assert (dest.read_bytes() if dest.exists() else None) == existing

    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        src, dest = tmp_path / "raw.csv", tmp_path / "swaps.csv"
        src.write_bytes(self.RAW.encode() + f"102,3000,1,-1,{2**96},\xff\n".encode("latin-1"))
        with pytest.raises(ParseError) as err:
            convert_raw_swap_export(str(src), str(dest), fee_rate=0.003)
        assert str(err.value) == f"{src}:3: not UTF-8 text: byte 0xff"
        assert not dest.exists()

    @pytest.mark.parametrize("row, decimals, message", [
        ("102,3000,1,-1,0,1", (18, 18), "sqrt_price_x96 must be positive"),
        (f"102,1500,1,-1,{2**96},1", (18, 18), "timestamps decreasing: 1500 after 2000"),
        (f"99,3000,1,-1,{2**96},1", (18, 18), "block numbers decreasing: 99 after 101"),
        (f"102,3000,1,-1,{2**96},0", (18, 18), "post_swap_liquidity must be positive, got 0.0"),
        (f"102,3000,1,-1,{2**96 * 10**160},1", (18, 18),  # the square is past the float range
         "sqrt_price_x96 at decimals 18 and 18 gives a price of inf, outside the float range"),
        (f"102,3000,1,-1,{2**96 * 10**5},1", (300, 0),  # the decimal scale takes it past
         "sqrt_price_x96 at decimals 300 and 0 gives a price of inf, outside the float range"),
        ("102,3000,1e-310,-1,1,1", (18, 18), "amount_in must be positive, got 0.0"),
    ], ids=["zero-sqrt-price", "time-back", "block-back", "zero-liquidity", "price-squared-inf",
            "price-scaled-inf", "amount-underflow"])
    def test_converted_rows_meet_the_swap_rules(self, tmp_path, row, decimals, message):
        """What convert_raw_swap_export writes passes load_swap_records; a row that would not
        is named by the raw file's line, and nothing is written."""
        src, dest = tmp_path / "raw.csv", tmp_path / "swaps.csv"
        src.write_text(self.RAW + row + "\n")
        with pytest.raises(ParseError) as err:
            convert_raw_swap_export(str(src), str(dest), 0.003, *decimals)
        assert str(err.value) == f"{src}:3: {message}"
        assert not dest.exists()

    def test_first_faulty_row_wins(self, tmp_path):
        """A rule fault on an earlier row comes before a cell that does not parse, as in
        load_swap_records."""
        src, dest = tmp_path / "raw.csv", tmp_path / "swaps.csv"
        src.write_text(self.RAW + f"102,1500,1,-1,{2**96},1\n103,4000,abc,-1,{2**96},1\n")
        with pytest.raises(ParseError) as err:
            convert_raw_swap_export(str(src), str(dest), fee_rate=0.003)
        assert str(err.value) == f"{src}:3: timestamps decreasing: 1500 after 2000"
        assert not dest.exists()

    def test_block_number_beyond_int64_names_line(self, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text(f"99999999999999999999,1000,1,-1,{2**96},1\n")
        with pytest.raises(ParseError) as err:
            convert_raw_swap_export(str(src), str(tmp_path / "swaps.csv"), fee_rate=0.003)
        assert str(err.value).startswith(f"{src}:1: bad block_number")
