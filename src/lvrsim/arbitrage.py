"""Optimal arbitrage against an external quote and LP loss accounting.

An arbitrageur sees the pool's fee-adjusted marginal price and the external
best bid/ask. When the external price exits the no-arbitrage band, the
profit-maximizing trade moves the pool until the marginal execution price
(fees included) equals the targeted bid or ask. The LP's loss per event is
the arbitrageur's net profit relative to the position value at the external
execution price.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError
from .pool import Direction, PoolState, _in_band, position_value, spot_price, swap_exact_in


# Quote's and optimal_arb_trade's messages, which the quote loaders and the replay give too
_BAND_FAULT = "invalid quote bid={} ask={}"
_OVERFLOW_FAULT = ("the trade at price {} overflows against reserves x={}, y={}; losses are "
                   "scale-invariant: use smaller ones")


@dataclass(frozen=True)
class Quote:
    """Best bid/ask at an instant. A mid-price feed uses bid == ask."""

    timestamp: int  # milliseconds since epoch, UTC
    bid: float
    ask: float

    def __post_init__(self):
        if not _in_band(self.bid, self.ask):
            raise InputError(_BAND_FAULT.format(self.bid, self.ask))

    @property
    def mid(self) -> float:
        return 0.5 * (self.bid + self.ask)


@dataclass(frozen=True)
class ArbTrade:
    """One optimal arbitrage execution against the pool."""

    direction: Direction
    amount_in: float
    amount_out: float
    execution_price_ext: float  # the bid or ask the arbitrageur trades at
    arb_profit: float  # in Y units, net of the pool fee
    lp_relative_loss: float  # arb_profit over the position value at execution_price_ext


def no_arb_band(state: PoolState) -> tuple[float, float]:
    """Price interval around the pool price where no arbitrage is profitable.

    Returns (p*(1-f), p/(1-f)). A trade exists only if the external bid is
    above the upper edge or the external ask below the lower edge.
    """
    p = spot_price(state)
    return p * (1.0 - state.fee), p / (1.0 - state.fee)


def optimal_arb_trade(state: PoolState, quote: Quote) -> Optional[ArbTrade]:
    """Profit-maximizing arbitrage trade against a quote, if one exists.

    Selling Y to the pool (buying X, selling it externally at the bid) is
    optimal at size (sqrt((1-f)*k*bid) - y)/(1-f); the symmetric form holds
    for the ask side. At the optimum the marginal execution price including
    the fee equals the targeted external price. Equality with a band edge
    yields no trade (the profit would be zero).
    """
    lower, upper = no_arb_band(state)
    omf = 1.0 - state.fee
    k = state.k

    if quote.bid > upper:
        price = quote.bid
        amount_in = (math.sqrt(omf * k * price) - state.reserve_y) / omf
        amount_out = state.reserve_x - k / (state.reserve_y + omf * amount_in)
        profit = price * amount_out - amount_in
        direction = Direction.Y_FOR_X
    elif quote.ask < lower:
        price = quote.ask
        amount_in = (math.sqrt(omf * k / price) - state.reserve_x) / omf
        amount_out = state.reserve_y - k / (state.reserve_x + omf * amount_in)
        profit = amount_out - price * amount_in
        direction = Direction.X_FOR_Y
    else:
        return None

    # guard against degenerate trades just outside the band at float noise
    if not (amount_in > 0 and profit > 0):
        if not math.isfinite(amount_in):
            raise InputError(_OVERFLOW_FAULT.format(price, state.reserve_x, state.reserve_y))
        return None
    loss = profit / position_value(state, price)
    return ArbTrade(direction, amount_in, amount_out, price, profit, loss)


def apply_arbitrage(state: PoolState, trade: Optional[ArbTrade]) -> PoolState:
    """Pool state after executing a trade; the fee stays in the reserves.

    A trade whose amount_out is off the swap's against this state by over 1e-9
    relative raises InputError.
    """
    if trade is None or trade.amount_in == 0:
        return state
    result = swap_exact_in(state, trade.direction, trade.amount_in)
    scale = max(abs(trade.amount_out), abs(result.amount_out), 1e-300)
    if abs(result.amount_out - trade.amount_out) > 1e-9 * scale:
        raise InputError(
            "trade is inconsistent with the pool state: expected amount_out "
            f"{result.amount_out}, trade carries {trade.amount_out}"
        )
    return result.new_state


def rebalancing_portfolio_value(
    events: Sequence[tuple[Quote, Optional[ArbTrade]]],
    initial_state: PoolState,
) -> np.ndarray:
    """Value series of the benchmark portfolio that mirrors the pool's trades.

    The portfolio starts with the pool's initial reserves and executes the
    same asset deltas as each trade, but at the external execution price
    instead of the pool price. Values are marked in Y units at each quote's
    mid. The running difference against the pool value is the cumulative
    loss-versus-rebalancing.
    """
    hold_x = initial_state.reserve_x
    hold_y = initial_state.reserve_y
    values = np.empty(len(events), dtype=float)
    last_ts = None
    for i, (quote, trade) in enumerate(events):
        if last_ts is not None and quote.timestamp < last_ts:
            raise InputError(
                f"quotes out of order: {quote.timestamp} after {last_ts}"
            )
        last_ts = quote.timestamp
        if trade is not None and trade.amount_in > 0:
            price = trade.execution_price_ext
            if trade.direction is Direction.Y_FOR_X:
                # pool sells amount_out of X; the portfolio sells the same
                # amount externally at the bid
                hold_x -= trade.amount_out
                hold_y += trade.amount_out * price
            else:
                hold_x += trade.amount_in
                hold_y -= trade.amount_in * price
        values[i] = hold_x * quote.mid + hold_y
    return values
