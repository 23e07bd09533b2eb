"""Constant-product pool state and swap math.

Conventions used throughout the package:
  - Y is the quote asset; prices are Y per X.
  - The fee is charged on the input amount; the full input (fee included)
    stays in the pool reserves, as in Uniswap v2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError

# factors _fold_series (LossSeries.multiplier, PositionLedger.cumulative_growth) takes at a
# time: 8 KB of them
_FOLD = 1024


class Direction(str, Enum):
    """Swap direction, named by what the trader sends in."""

    Y_FOR_X = "YforX"  # trader pays Y, receives X
    X_FOR_Y = "XforY"  # trader pays X, receives Y


@dataclass(frozen=True)
class PoolState:
    """Reserves of a two-asset constant-product pool plus its fee fraction."""

    reserve_x: float
    reserve_y: float
    fee: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.reserve_x) and self.reserve_x > 0):
            raise InputError(f"reserve_x must be positive, got {self.reserve_x}")
        if not (math.isfinite(self.reserve_y) and self.reserve_y > 0):
            raise InputError(f"reserve_y must be positive, got {self.reserve_y}")
        if not 0.0 < self.reserve_x * self.reserve_y < math.inf:
            raise InputError(f"reserve product must be finite and positive, got {self.k}")
        if not (0.0 <= self.fee < 1.0):
            raise InputError(f"fee must be in [0, 1), got {self.fee}")

    @property
    def k(self) -> float:
        """Invariant product of the reserves."""
        return self.reserve_x * self.reserve_y


@dataclass(frozen=True)
class SwapResult:
    amount_in: float
    fee_paid: float
    amount_out: float
    new_state: PoolState


def spot_price(state: PoolState) -> float:
    """Marginal price of X in Y units, reserve_y / reserve_x."""
    return state.reserve_y / state.reserve_x


def position_value(state: PoolState, external_price: float) -> float:
    """Value of the pool position in Y units at an external price of X."""
    if not (math.isfinite(external_price) and external_price > 0):
        raise InputError(f"external price must be positive, got {external_price}")
    return state.reserve_x * external_price + state.reserve_y


def position_value_of_liquidity(liquidity: float, price: float) -> float:
    """Value in Y of a full-range position with L = sqrt(x*y) at a price.

    A full-range constant-product position with liquidity L holds
    x = L/sqrt(P) and y = L*sqrt(P), worth 2*L*sqrt(P).
    """
    if liquidity <= 0:
        raise InputError(f"liquidity must be positive, got {liquidity}")
    if price <= 0:
        raise InputError(f"price must be positive, got {price}")
    return 2.0 * liquidity * math.sqrt(price)


def swap_exact_in(state: PoolState, direction: Direction, amount_in: float) -> SwapResult:
    """Execute a swap for a fixed input amount.

    The effective input is (1-fee)*amount_in; the fee portion is retained in
    the pool reserves. A zero amount is a legal no-op. Trade sizes that are
    not finite are rejected (reserves may never be drained).
    """
    if not math.isfinite(amount_in) or amount_in < 0:
        raise InputError(f"amount_in must be finite and >= 0, got {amount_in}")
    if amount_in == 0:
        return SwapResult(0.0, 0.0, 0.0, state)

    k = state.k
    effective = (1.0 - state.fee) * amount_in
    fee_paid = state.fee * amount_in
    if direction is Direction.Y_FOR_X:
        new_x = k / (state.reserve_y + effective)
        amount_out = state.reserve_x - new_x
        new_state = PoolState(new_x, state.reserve_y + amount_in, state.fee)
    elif direction is Direction.X_FOR_Y:
        new_y = k / (state.reserve_x + effective)
        amount_out = state.reserve_y - new_y
        new_state = PoolState(state.reserve_x + amount_in, new_y, state.fee)
    else:
        raise InputError(f"unknown swap direction: {direction!r}")
    return SwapResult(amount_in, fee_paid, amount_out, new_state)


def concentration_scale(relative_returns, factor_k: float) -> np.ndarray:
    """Scale per-period relative returns/losses by a concentration factor.

    A position holding k-times less capital for the same in-range liquidity
    earns k-times the relative fee return and suffers k-times the relative
    loss, as long as the price stays in range. The compounded totals of
    LossSeries and PositionLedger are folded from the scaled series. At k = 1,
    the default, each value is its own scaled value: the series itself is
    returned, not a copy of it.
    """
    if not (math.isfinite(factor_k) and factor_k >= 1.0):
        raise InputError(f"concentration factor must be >= 1, got {factor_k}")
    series = np.asarray(relative_returns, dtype=float)
    return series if factor_k == 1.0 else series * factor_k


def _fold(factors: np.ndarray, product: float) -> float:
    """One chunk of a left fold: the factors become their running product, in place, carried
    on from the product of the chunks before; returns the product so far.

    np.cumprod multiplies left to right, so the chunks give the whole fold's bits.
    """
    factors[0] *= product
    return float(np.cumprod(factors, out=factors)[-1])


def _fold_series(op, series: np.ndarray, product: float = 1.0) -> float:
    """product * prod(op(1.0, x) for x in series), folded left to right _FOLD factors at a
    time (op is np.subtract for losses, np.add for returns): no full-length temporary."""
    for i in range(0, len(series), _FOLD):
        product = _fold(op(1.0, series[i:i + _FOLD]), product)
    return product
