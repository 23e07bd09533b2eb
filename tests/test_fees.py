import dataclasses
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_feeds import FLOAT_TEXT, INT_TEXT, INTS, POSITIVE, cases, csv_file, save

import lvrsim.fees as fees
from lvrsim import (
    InputError,
    ParseError,
    PositionLedger,
    SwapRecord,
    accumulate,
    attribute_fees,
    convert_raw_swap_export,
    fee_earned,
    load_swap_records,
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
        assert abs(ledger.cumulative_growth / product - 1.0) <= 1e-12


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


def row_path(path):
    """Swap records with the columnar fast path switched off."""
    with mock.patch.object(fees, "_read_columns", lambda *args: None):
        return load_swap_records(path)


def columnar_only(path):
    """Swap records when reaching the row parser is an error."""
    with mock.patch.object(fees, "_iter_rows", side_effect=AssertionError("row parser reached")):
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
    "quoted-token": '1,1000,"Y",5.0,0.003,2000.0,1e6\n',
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
        with mock.patch.object(fees, "_iter_rows", wraps=fees._iter_rows) as rows:
            records = load_swap_records(str(path))
        assert rows.called and records
        assert typed(records) == typed(row_path(str(path)))

    def test_fixture_takes_the_fast_path(self):
        assert typed(columnar_only(str(FIXTURE))) == typed(row_path(str(FIXTURE)))

    def test_records_built_across_chunks(self, tmp_path):
        n = 2 * fees._RECORD_CHUNK + 3
        path = tmp_path / "s.csv"
        path.write_text("".join(f"{i // 2},{i // 3},{'XY'[i % 2]},{i + 1}.5,0.003,2000.0,1e6\n"
                                for i in range(n)))
        records = columnar_only(str(path))
        assert len(records) == n
        assert typed(records) == typed(row_path(str(path)))


@st.composite
def swap_files(draw):
    stamps = sorted(draw(st.lists(INTS, max_size=20)))  # repeats allowed: one block, one ms
    fee = st.floats(0, 1, exclude_min=True, exclude_max=True)
    rows = [[draw(INT_TEXT)(draw(INTS)), draw(INT_TEXT)(t), draw(st.sampled_from("XY")),
             draw(FLOAT_TEXT)(draw(POSITIVE)), draw(FLOAT_TEXT)(draw(fee)),
             draw(FLOAT_TEXT)(draw(POSITIVE)), draw(FLOAT_TEXT)(draw(POSITIVE))]
            for t in stamps]
    return draw(csv_file(rows, "block_number,timestamp_ms,input_token,amount_in,fee_rate,"
                               "post_swap_price,post_swap_liquidity"))


@given(content=swap_files())
def test_valid_swaps_fast_path_equals_row_parser(tmp_path_factory, content):
    path = save(tmp_path_factory.mktemp("s"), content)
    assert typed(columnar_only(path)) == typed(row_path(path))


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

    def test_block_number_beyond_int64_names_line(self, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text(f"99999999999999999999,1000,1,-1,{2**96},1\n")
        with pytest.raises(ParseError) as err:
            convert_raw_swap_export(str(src), str(tmp_path / "swaps.csv"), fee_rate=0.003)
        assert str(err.value).startswith(f"{src}:1: bad block_number")
