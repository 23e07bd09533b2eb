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

Swaps come as columns, from a SwapTable or from a file read a chunk at a
time, and are attributed in one array path, a bounded chunk at a time, whose
expressions and operation order are those of fee_earned, relative_fee_return
and position_value_of_liquidity.
SwapRecord and those functions are the readable reference and the test oracle.

Swap-record CSV schema, rows in order of timestamp and of block number:
  block_number,timestamp_ms,input_token,amount_in,fee_rate,post_swap_price,post_swap_liquidity
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .errors import InputError, ParseError
from .feeds import (_CHUNK, _check, _column_chunks, _load_columns, _parse_float, _parse_int,
                    _parsed_chunks, _rule, _stamp_order, _unchecked)
from .pool import _fold_series, _is_positive, concentration_scale

TOKEN_X = "X"
TOKEN_Y = "Y"

# SwapRecord's value rules in its order, field -> (predicate, message); each predicate holds
# of a value or of each value of a column, so the swap loaders run them too (_swap_rules)
_SWAP_RULES = {
    "input_token": (lambda token: (token == TOKEN_X) | (token == TOKEN_Y),
                    "input_token must be X or Y, got {!r}"),
    "amount_in": (_is_positive, "amount_in must be positive, got {}"),
    "fee_rate": (lambda rate: (rate > 0) & (rate < 1), "fee_rate must be in (0, 1), got {}"),
    "post_swap_price": (_is_positive, "post_swap_price must be positive, got {}"),
    "post_swap_liquidity": (_is_positive, "post_swap_liquidity must be positive, got {}"),
}


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
        for name, (holds, message) in _SWAP_RULES.items():
            if not holds(value := getattr(self, name)):
                raise InputError(message.format(value))


@dataclass(frozen=True)
class SwapTable:
    """Swaps as columns, in file order; indexing gives one SwapRecord."""

    block_numbers: np.ndarray  # int64
    timestamps: np.ndarray  # int64 ms
    input_tokens: np.ndarray  # str objects, "X" or "Y"
    amounts_in: np.ndarray
    fee_rates: np.ndarray
    post_swap_prices: np.ndarray
    post_swap_liquidities: np.ndarray

    def __post_init__(self):
        columns = [np.asarray(getattr(self, f.name), dtype)
                   for f, (_, _, dtype) in zip(fields(self), _SWAP_COLUMNS)]
        if len({c.shape for c in columns}) > 1:
            raise InputError("swap columns must have equal length")
        for f, column in zip(fields(self), columns):
            object.__setattr__(self, f.name, column)
        _check(_swap_rules, *columns)

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i: int) -> SwapRecord:
        return SwapRecord(
            int(self.block_numbers[i]), int(self.timestamps[i]), self.input_tokens[i],
            float(self.amounts_in[i]), float(self.fee_rates[i]),
            float(self.post_swap_prices[i]), float(self.post_swap_liquidities[i]),
        )


@dataclass(frozen=True)
class PositionLedger:
    """Compounded fee returns of one position; fees only ever add value."""

    position_liquidity: float
    returns: np.ndarray = ()  # float64, each finite and > -1
    timestamps: np.ndarray = ()  # int64 ms, one per return

    def __post_init__(self):
        _check_position_liquidity(self.position_liquidity)
        object.__setattr__(self, "returns", np.asarray(self.returns, dtype=np.float64))
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.int64))
        _check(_return_rule, self.returns)
        if self.returns.shape != self.timestamps.shape:
            raise InputError("timestamps and returns must have equal length")
        if not math.isfinite(growth := self.cumulative_growth):
            raise InputError(f"returns compound to a growth of {growth}; it must be finite")

    @property
    def cumulative_growth(self) -> float:
        """prod(1 + r_t), folded left to right; 1.0 without returns.

        Folded _FOLD factors at a time, as LossSeries.multiplier is: no full-length temporary.
        """
        with np.errstate(over="ignore"):  # a growth past the float range is inf
            return _fold_series(np.add, self.returns)

    def scaled(self, factor_k: float) -> "PositionLedger":
        """Fee ledger of a position with concentration factor k; LossSeries.scaled's rule.

        A factor that takes a return or the compounded growth past the float range is rejected.
        """
        with np.errstate(over="ignore"):  # such a return is inf, which the new ledger rejects
            returns = concentration_scale(self.returns, factor_k)
        try:
            return replace(self, returns=returns)
        except InputError as exc:  # this ledger passed the same checks: the factor fails them
            raise InputError(f"concentration factor {factor_k} scales the fee returns past the "
                             f"float range: {exc}") from None


def _return_rule(returns: np.ndarray) -> list:
    """Each return finite and above -1 (NaN fails both comparisons)."""
    return [(~((returns > -1.0) & (returns < np.inf)), lambda i: "returns must be finite and > -1")]


def _check_position_liquidity(value: float) -> None:
    if not _is_positive(value):
        raise InputError(f"position_liquidity must be finite and positive, got {value}")


def fee_earned(record: SwapRecord, position_liquidity: float) -> float:
    """Fee received by the position from one swap, in input-token units.

    The position must not exceed the pool's in-range liquidity (the
    simulation assumes it is small enough not to change trader behavior).
    """
    _check_position_liquidity(position_liquidity)
    if position_liquidity > record.post_swap_liquidity:
        raise InputError(
            f"position liquidity {position_liquidity} exceeds pool in-range "
            f"liquidity {record.post_swap_liquidity}"
        )
    share = position_liquidity / record.post_swap_liquidity
    return record.fee_rate * record.amount_in * share


def _fee_in_y(input_token, fee_amount: np.ndarray, post_swap_price) -> np.ndarray:
    """Fees in the swaps' input tokens converted to Y at the post-swap prices, in place."""
    return np.multiply(fee_amount, post_swap_price, out=fee_amount,
                       where=input_token == TOKEN_X)


def relative_fee_return(
    record: SwapRecord, fee_amount: float, position_value_y: float
) -> float:
    """Fee amount converted to Y at the post-swap price, over position value."""
    if not _is_positive(position_value_y):
        raise InputError(f"position value must be positive, got {position_value_y}")
    fee_y = _fee_in_y(record.input_token, np.array(fee_amount, np.float64),
                      record.post_swap_price)
    return fee_y / position_value_y


def accumulate(
    ledger: PositionLedger,
    returns: Sequence[float],
    timestamps: Sequence[int] | None = None,
) -> PositionLedger:
    """Append per-period returns to the ledger, which checks them; stamps default to 0."""
    new = np.asarray(returns, dtype=float)
    stamps = np.asarray(np.zeros(new.size) if timestamps is None else timestamps, np.int64)
    return replace(ledger, returns=np.concatenate([ledger.returns, new]),
                   timestamps=np.concatenate([ledger.timestamps, stamps]))


def attribute_fees(
    swaps: SwapTable | Sequence[SwapRecord],
    position_liquidity: float,
    per_block: bool = False,
) -> PositionLedger:
    """Run fee attribution over chronological swaps, as a table or as records.

    per_block=False compounds one return per swap, using each swap's own
    post-swap liquidity and price. per_block=True assumes liquidity is
    constant over each block instead: all swaps of a block share the
    end-of-block liquidity, and one return per block is compounded against
    the position value at the end-of-block price. Both take one array path,
    _attributed, on _CHUNK swaps of the table at a time.
    """
    if not isinstance(swaps, SwapTable):
        swaps = SwapTable(*([getattr(r, f.name) for r in swaps] for f in fields(SwapRecord)))
    columns = [getattr(swaps, f.name) for f in fields(SwapTable)]
    chunks = (tuple(column[lo:lo + _CHUNK] for column in columns)
              for lo in range(0, len(swaps), _CHUNK))
    blocks = swaps.block_numbers
    size = len(blocks) if not per_block else int(len(blocks) > 0) + sum(  # block ends
        int(np.count_nonzero(np.diff(blocks[lo:lo + _CHUNK + 1])))
        for lo in range(0, len(blocks) - 1, _CHUNK))
    return _attributed(chunks, position_liquidity, per_block, size)[0]


def _attributed_file(path: str, position_liquidity: float,
                     per_block: bool) -> tuple[PositionLedger, int]:
    """attribute_fees on the swaps of a CSV, and their number. The file is read and checked
    _CHUNK rows at a time through one handle, as load_swap_records reads it whole, so that
    neither it nor its SwapTable is held: the same ledger, and the same ParseError."""
    return _attributed(_column_chunks(path, 7, True, _SWAP_COLUMNS, _swap_rules, _CHUNK),
                       position_liquidity, per_block)


def _attributed(chunks, position_liquidity: float, per_block: bool,
                size: int | None = None) -> tuple:
    """attribute_fees on swaps that come as chunks of checked columns, and their number.

    Each chunk's blocks are attributed as it comes; its block index, fees and shares are
    dropped before the next. The returns and stamps are written into the ledger's two
    columns when their number, size, is known; else each chunk's are kept apart and joined
    at the end, which leaves less of the heap resident than columns that grow. A block that
    may go on in the next chunk is carried into it, so that each block is summed in one
    _attribute_chunk call. A position above a pool's liquidity is raised only at the end of
    the chunks, so that a row fault later in the file, which reading the chunks raises, wins
    over it as when the file was loaded first.
    """
    _check_position_liquidity(position_liquidity)
    returns, stamps = np.empty(size or 0), np.empty(size or 0, dtype=np.int64)
    n, fault = 0, None
    open_block = []  # copies of the rows of a block that may go on in the next chunk, by chunk
    parts = []  # each chunk's returns and stamps, views of those columns when size is known

    def attribute(columns, ends):
        k = int(np.count_nonzero(ends))
        if size is None:
            r, t = np.empty(k), np.empty(k, dtype=np.int64)
        else:
            done = sum(len(r) for r, _ in parts)
            r, t = returns[done:done + k], stamps[done:done + k]
        _attribute_chunk(columns, ends, position_liquidity, r, t)
        parts.append((r, t))

    def close_block(pieces):  # the rows of one block, in pieces
        columns = tuple(np.concatenate(column) for column in zip(*pieces))
        ends = np.zeros(len(columns[0]), dtype=bool)
        ends[-1] = True
        attribute(columns, ends)

    for chunk in chunks:
        n += len(chunk[0])
        if fault or not len(chunk[0]):
            continue
        try:
            if open_block:  # the rows that go on with it: block numbers do not go back
                head = int(np.searchsorted(chunk[0], open_block[0][0][0], side="right"))
                open_block.append(tuple(column[:head].copy() for column in chunk))
                if head == len(chunk[0]):
                    continue
                close_block(open_block)
                chunk, open_block = tuple(column[head:] for column in chunk), []
            ends = np.ones(len(chunk[0]), dtype=bool)  # per swap, each swap is a block of one
            if per_block:
                np.not_equal(chunk[0][1:], chunk[0][:-1], out=ends[:-1])
                ends[-1] = False  # the last block may go on in the next chunk
                cut = len(ends) - int(ends[::-1].argmax()) if ends.any() else 0
                open_block = [tuple(column[cut:].copy() for column in chunk)]
                chunk, ends = tuple(column[:cut] for column in chunk), ends[:cut]
            attribute(chunk, ends)
        except InputError as exc:
            fault, open_block = exc, []
    if open_block:  # the last block
        try:
            close_block(open_block)
        except InputError as exc:
            fault = exc
    if fault:
        raise fault
    if size is None and parts:
        returns = np.concatenate([r for r, _ in parts])
        stamps = np.concatenate([t for _, t in parts])
    del parts
    try:
        return PositionLedger(position_liquidity, returns, stamps), n
    except InputError as exc:  # the swaps passed their rules: their fees overflow
        raise InputError(f"the fees of the swaps overflow the float range: {exc}") from None


# a fee past the float range gives an inf or NaN return, which _attributed's ledger rejects
@np.errstate(over="ignore", invalid="ignore")
def _attribute_chunk(columns, ends: np.ndarray, position_liquidity: float,
                     returns: np.ndarray, stamps: np.ndarray) -> None:
    """attribute_fees on a chunk of swap columns that ends at a block end: each of its
    blocks' return and stamp, written into returns and stamps. ends is the chunk's block-end
    mask."""
    _, timestamps, tokens, amounts, fee_rates, prices, liquidities = columns
    last = np.flatnonzero(ends)
    stamps[:] = timestamps[last]
    value = returns  # the position value at each block's end price, then the block's return
    value[:] = prices[last]
    np.multiply(2.0 * position_liquidity, np.sqrt(value, out=value), out=value)
    liquidity = liquidities[last]  # each block's end-of-block liquidity
    del last
    over = position_liquidity > liquidity
    if over.any():  # the first such block holds the first such swap
        raise InputError(f"position liquidity {position_liquidity} exceeds pool in-range "
                         f"liquidity {float(liquidity[over.argmax()])}")
    block = np.cumsum(ends)
    block -= ends  # each swap's block in the chunk: the count of block ends before it
    fee = np.divide(position_liquidity, liquidity, out=liquidity).take(block)  # each share
    del liquidity
    fee *= fee_rates * amounts
    _fee_in_y(tokens, fee, prices)
    sums = np.zeros(len(value))
    np.add.at(sums, block, fee)  # in file order, as a loop adds
    np.divide(sums, value, out=value)


_SWAP_COLUMNS = [("block_number", _parse_int, np.int64), ("timestamp_ms", _parse_int, np.int64),
                 ("input_token", lambda path, lineno, text, name: text.strip(), object),
                 *((name, _parse_float, np.float64) for name in
                   ("amount_in", "fee_rate", "post_swap_price", "post_swap_liquidity"))]


def _swap_rules(*columns):
    """SwapRecord's rules, with its messages; then a timestamp or block going back."""
    record = dict(zip((f.name for f in fields(SwapRecord)), columns))
    return [*(_rule(holds, message, record[name])
              for name, (holds, message) in _SWAP_RULES.items()),
            _stamp_order(record["timestamp"], strict=False),
            _stamp_order(record["block_number"], "block numbers", strict=False)]


def load_swap_records(path: str) -> SwapTable:
    """Load the swaps of a CSV in the canonical schema as columns."""
    # _load_columns has applied _swap_rules, naming the faulty row's line, to equal-length
    # columns of the SwapTable dtypes: __post_init__ would only repeat that check
    return _unchecked(SwapTable, *_load_columns(path, 7, True, _SWAP_COLUMNS, _swap_rules))


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
    if not _is_positive(sqrt_price_x96):
        raise InputError("sqrt_price_x96 must be positive")
    try:
        price = (sqrt_price_x96 / Q96) ** 2 * 10.0 ** (decimals_x - decimals_y)
    except OverflowError:  # the square or the decimal scale is past the float range
        price = math.inf
    if not _is_positive(price):
        raise InputError(f"sqrt_price_x96 at decimals {decimals_x} and {decimals_y} gives a "
                         f"price of {price}, outside the float range")
    return price


def _decimals(name: str, decimals) -> int:
    """A token's decimals as an int, or an InputError naming the parameter: a whole number
    whose scale 10.0**decimals is finite and nonzero, so from -323 to 308."""
    try:
        whole = math.floor(decimals)
        ok = whole == decimals and _is_positive(10.0**whole)
    except (TypeError, ValueError, OverflowError):  # no number, NaN, inf, past the range
        ok = False
    if not ok:
        raise InputError(f"{name} must be a whole number from -323 to 308, got {decimals!r}")
    return whole


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
    of rows written. Its row parser (feeds._parsed_chunks) reads, converts and
    checks the rows with load_swap_records' rules before dest is opened; a
    fault names the raw file's line, and the first faulty row wins, as in
    load_swap_records.
    """
    holds, message = _SWAP_RULES["fee_rate"]
    if not holds(fee_rate):
        raise InputError(message.format(fee_rate))
    decimals_x = _decimals("decimals_x", decimals_x)
    decimals_y = _decimals("decimals_y", decimals_y)
    scale_x = 10.0**decimals_x
    scale_y = 10.0**decimals_y
    scale_l = 10.0 ** ((decimals_x + decimals_y) / 2.0)  # between the two: finite and nonzero

    def converted(lineno, row):
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
        try:
            price = sqrt_price_x96_to_price(sqrt_px, decimals_x, decimals_y)
        except InputError as exc:
            raise ParseError(str(src), lineno, str(exc)) from None
        return block, ts, token, amount, fee_rate, price, liquidity / scale_l

    [columns] = _parsed_chunks(src, 6, True, converted,
                               [dtype for _, _, dtype in _SWAP_COLUMNS], _swap_rules)
    with open(dest, "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(name for name, _, _ in _SWAP_COLUMNS)
        writer.writerows(zip(*(column.tolist() for column in columns)))  # a float as its repr
    return len(columns[0])
