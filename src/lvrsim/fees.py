"""Fee income attribution for a simulated full-range liquidity position.

Each historical swap pays fee_rate * amount_in in the input token; the
simulated position receives its pro-rata share of the liquidity in range at
the post-swap marginal price. Relative returns are taken against the value
of the position (2 * L * sqrt(price) for a full-range position) and are
compounded multiplicatively on a ledger.

The position is assumed small: its share is computed from its initial
liquidity and does not alter pool behavior. Note that scaling both the fee
share and the position value by the ledger growth cancels, so this yields
the same relative returns as re-depositing earned fees each period.

Swap-record CSV schema:
  block_number,timestamp_ms,input_token,amount_in,fee_rate,post_swap_price,post_swap_liquidity
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InputError, ParseError
from .feeds import _iter_rows, _parse_float, _parse_int, _positive, _read_columns
from .pool import position_value_of_liquidity

TOKEN_X = "X"
TOKEN_Y = "Y"


@dataclass(frozen=True)
class SwapRecord:
    """One historical swap event."""

    block_number: int
    timestamp: int  # ms
    input_token: str  # "X" or "Y"
    amount_in: float
    fee_rate: float
    post_swap_price: float
    post_swap_liquidity: float  # in L = sqrt(x*y) units

    def __post_init__(self):
        if self.input_token not in (TOKEN_X, TOKEN_Y):
            raise InputError(f"input_token must be X or Y, got {self.input_token!r}")
        if not (math.isfinite(self.amount_in) and self.amount_in > 0):
            raise InputError(f"amount_in must be positive, got {self.amount_in}")
        if not (0.0 < self.fee_rate < 1.0):
            raise InputError(f"fee_rate must be in (0, 1), got {self.fee_rate}")
        if not (math.isfinite(self.post_swap_price) and self.post_swap_price > 0):
            raise InputError(f"post_swap_price must be positive, got {self.post_swap_price}")
        if not (math.isfinite(self.post_swap_liquidity) and self.post_swap_liquidity > 0):
            raise InputError(
                f"post_swap_liquidity must be positive, got {self.post_swap_liquidity}"
            )


@dataclass(frozen=True)
class PositionLedger:
    """Compounded fee returns of one position; fees only ever add value."""

    position_liquidity: float
    cumulative_growth: float = 1.0
    returns: np.ndarray = None
    timestamps: np.ndarray = None

    def __post_init__(self):
        if self.position_liquidity <= 0:
            raise InputError("position_liquidity must be positive")
        if self.returns is None:
            object.__setattr__(self, "returns", np.array([], dtype=float))
        if self.timestamps is None:
            object.__setattr__(self, "timestamps", np.array([], dtype=np.int64))


def fee_earned(record: SwapRecord, position_liquidity: float) -> float:
    """Fee received by the position from one swap, in input-token units.

    The position must not exceed the pool's in-range liquidity (the
    simulation assumes it is small enough not to change trader behavior).
    """
    if position_liquidity <= 0:
        raise InputError("position_liquidity must be positive")
    if position_liquidity > record.post_swap_liquidity:
        raise InputError(
            f"position liquidity {position_liquidity} exceeds pool in-range "
            f"liquidity {record.post_swap_liquidity}"
        )
    share = position_liquidity / record.post_swap_liquidity
    return record.fee_rate * record.amount_in * share


def _fee_in_y(record: SwapRecord, fee_amount: float) -> float:
    """A fee in the swap's input token, converted to Y at the post-swap price."""
    return fee_amount * record.post_swap_price if record.input_token == TOKEN_X else fee_amount


def relative_fee_return(
    record: SwapRecord, fee_amount: float, position_value_y: float
) -> float:
    """Fee amount converted to Y at the post-swap price, over position value."""
    if position_value_y <= 0:
        raise InputError(f"position value must be positive, got {position_value_y}")
    return _fee_in_y(record, fee_amount) / position_value_y


def accumulate(
    ledger: PositionLedger,
    returns: Sequence[float],
    timestamps: Sequence[int] | None = None,
) -> PositionLedger:
    """Append per-period returns to the ledger, compounding the growth."""
    new = np.asarray(returns, dtype=float)
    if new.size and (not np.all(np.isfinite(new)) or np.any(new <= -1.0)):
        raise InputError("returns must be finite and > -1")
    growth = ledger.cumulative_growth
    for r in new:
        growth *= 1.0 + r
    if timestamps is None:
        ts = np.concatenate([ledger.timestamps, np.zeros(new.size, dtype=np.int64)])
    else:
        ts = np.concatenate([ledger.timestamps, np.asarray(timestamps, dtype=np.int64)])
        if ts.size != ledger.returns.size + new.size:
            raise InputError("timestamps and returns must have equal length")
    return replace(
        ledger,
        cumulative_growth=growth,
        returns=np.concatenate([ledger.returns, new]),
        timestamps=ts,
    )


def attribute_fees(
    records: Sequence[SwapRecord],
    position_liquidity: float,
    per_block: bool = False,
) -> PositionLedger:
    """Run fee attribution over chronological swap records.

    per_block=False compounds one return per swap, using each swap's own
    post-swap liquidity and price. per_block=True assumes liquidity is
    constant over each block instead: all swaps of a block share the
    end-of-block liquidity, and one return per block is compounded against
    the position value at the end-of-block price.
    """
    last_ts = None
    for r in records:
        if last_ts is not None and r.timestamp < last_ts:
            raise InputError(f"swap records out of order at timestamp {r.timestamp}")
        last_ts = r.timestamp

    ledger = PositionLedger(position_liquidity)
    if not records:
        return ledger

    returns: list[float] = []
    stamps: list[int] = []
    if not per_block:
        for r in records:
            fee = fee_earned(r, position_liquidity)
            value = position_value_of_liquidity(position_liquidity, r.post_swap_price)
            returns.append(relative_fee_return(r, fee, value))
            stamps.append(r.timestamp)
    else:
        i = 0
        n = len(records)
        while i < n:
            j = i
            while j < n and records[j].block_number == records[i].block_number:
                j += 1
            last = records[j - 1]
            fee_y = 0.0
            for r in records[i:j]:
                block_view = replace(r, post_swap_liquidity=last.post_swap_liquidity)
                fee_y += _fee_in_y(r, fee_earned(block_view, position_liquidity))
            value = position_value_of_liquidity(position_liquidity, last.post_swap_price)
            returns.append(fee_y / value)
            stamps.append(last.timestamp)
            i = j
    return accumulate(ledger, returns, stamps)


# rows turned into records at a time, so that no whole column is held as objects
_RECORD_CHUNK = 8192


def load_swap_records(path: str) -> list[SwapRecord]:
    """Load swap records from the canonical CSV schema."""
    columns = _read_columns(path, 7, True, (np.int64, np.int64, object) + (np.float64,) * 4)
    if columns is not None:
        _, ts, token, amount, fee_rate, price, liquidity = columns
        if (np.all((token == TOKEN_X) | (token == TOKEN_Y)) and _positive(amount)
                and np.all((fee_rate > 0) & (fee_rate < 1)) and _positive(price)
                and _positive(liquidity) and np.all(ts[1:] >= ts[:-1])):
            records = []
            for start in range(0, len(ts), _RECORD_CHUNK):
                chunk = (column[start:start + _RECORD_CHUNK].tolist() for column in columns)
                records.extend(map(SwapRecord, *chunk))
            return records
    records: list[SwapRecord] = []
    for lineno, row in _iter_rows(path, 7):
        try:
            record = SwapRecord(
                block_number=_parse_int(path, lineno, row[0], "block_number"),
                timestamp=_parse_int(path, lineno, row[1], "timestamp_ms"),
                input_token=row[2].strip(),
                amount_in=_parse_float(path, lineno, row[3], "amount_in"),
                fee_rate=_parse_float(path, lineno, row[4], "fee_rate"),
                post_swap_price=_parse_float(path, lineno, row[5], "post_swap_price"),
                post_swap_liquidity=_parse_float(path, lineno, row[6], "post_swap_liquidity"),
            )
        except InputError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(str(path), lineno, str(exc)) from None
        if records and record.timestamp < records[-1].timestamp:
            raise ParseError(str(path), lineno, "timestamps not sorted")
        records.append(record)
    return records


# --- raw export conversion ------------------------------------------------

Q96 = 2**96


def sqrt_price_x96_to_price(
    sqrt_price_x96: int, decimals_x: int = 18, decimals_y: int = 18
) -> float:
    """Convert a Q64.96 square-root price to a plain Y-per-X price.

    On-chain pools encode sqrt(price of token0 in token1) in raw integer
    units; dividing out 2^96 and the token decimal difference yields the
    human-scale price.
    """
    if sqrt_price_x96 <= 0:
        raise InputError("sqrt_price_x96 must be positive")
    ratio = (sqrt_price_x96 / Q96) ** 2
    return ratio * 10.0 ** (decimals_x - decimals_y)


def convert_raw_swap_export(
    src: str,
    dest: str,
    fee_rate: float,
    decimals_x: int = 18,
    decimals_y: int = 18,
) -> int:
    """Rewrite a raw swap-event export into the canonical swap schema.

    Raw schema: block_number,timestamp_ms,amount_x,amount_y,sqrt_price_x96,liquidity
    with amounts signed from the pool's perspective (positive = paid in).
    Amounts and liquidity are in raw integer token units. Returns the number
    of rows written.
    """
    if not (0.0 < fee_rate < 1.0):
        raise InputError(f"fee_rate must be in (0, 1), got {fee_rate}")
    scale_x = 10.0**decimals_x
    scale_y = 10.0**decimals_y
    scale_l = 10.0 ** ((decimals_x + decimals_y) / 2.0)
    written = 0
    with open(dest, "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(
            ["block_number", "timestamp_ms", "input_token", "amount_in",
             "fee_rate", "post_swap_price", "post_swap_liquidity"]
        )
        for lineno, row in _iter_rows(src, 6):
            block = _parse_int(src, lineno, row[0], "block_number")
            ts = _parse_int(src, lineno, row[1], "timestamp_ms")
            amount_x = _parse_float(src, lineno, row[2], "amount_x")
            amount_y = _parse_float(src, lineno, row[3], "amount_y")
            sqrt_px = _parse_int(src, lineno, row[4], "sqrt_price_x96", int64=False)
            liquidity = _parse_float(src, lineno, row[5], "liquidity")
            if amount_x > 0:
                token, amount = TOKEN_X, amount_x / scale_x
            elif amount_y > 0:
                token, amount = TOKEN_Y, amount_y / scale_y
            else:
                raise ParseError(str(src), lineno, "no positive input amount")
            price = sqrt_price_x96_to_price(sqrt_px, decimals_x, decimals_y)
            writer.writerow(
                [block, ts, token, repr(amount), repr(fee_rate), repr(price),
                 repr(liquidity / scale_l)]
            )
            written += 1
    return written
