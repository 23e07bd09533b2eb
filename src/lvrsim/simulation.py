"""Arbitrage-loss simulation over block schedules, sweeps, and reports.

The simulator replays a quote series against a constant-product pool: at
each block instant the prevailing quote (last observation carried forward)
is checked against the pool's no-arbitrage band, and the optimal arbitrage
trade is applied whenever one exists. Losses compound multiplicatively.

Blocks are fixed-interval grids or explicit historical timestamps; there is
no stochastic arrival model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import FitError, InputError, InsufficientDataError
from .feeds import PriceSeries, QuoteSeries, _locf_index
from .fees import PositionLedger
from .pool import PoolState, concentration_scale

YEAR_MS = 365 * 86400 * 1000
DAY_MS = 86400 * 1000

# default sweep grid; the extended grid reaches 5-minute blocks
DEFAULT_INTERVALS_MS = (100, 250, 500, 1000, 2000, 4000, 8000, 12000, 16000)
EXTENDED_INTERVALS_MS = DEFAULT_INTERVALS_MS + (32000, 60000, 120000, 300000)

# instants the replay checks one at a time before it scans numpy chunks
_SCALAR_SCAN = 16


@dataclass(frozen=True)
class BlockSchedule:
    """Instants at which arbitrageurs may trade against the pool."""

    timestamps: np.ndarray  # int64 ms, strictly increasing
    interval_ms: Optional[int] = None  # set for fixed-interval schedules

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        object.__setattr__(self, "timestamps", ts)
        if len(ts) == 0:
            raise InputError("schedule must contain at least one instant")
        if np.any(ts[1:] <= ts[:-1]):  # np.diff can wrap
            raise InputError("schedule instants must be strictly increasing")

    @classmethod
    def fixed(cls, interval_ms: int, start_ms: int, end_ms: int) -> "BlockSchedule":
        if interval_ms <= 0:
            raise InputError(f"interval must be positive, got {interval_ms}")
        if end_ms < start_ms:
            raise InputError(f"window end {end_ms} before start {start_ms}")
        grid = np.arange(int(start_ms), int(end_ms) + 1, int(interval_ms), dtype=np.int64)
        return cls(grid, int(interval_ms))

    @classmethod
    def from_blocks(cls, block_timestamps_ms) -> "BlockSchedule":
        return cls(np.asarray(block_timestamps_ms, dtype=np.int64))

    @property
    def span_ms(self) -> int:
        return int(self.timestamps[-1] - self.timestamps[0])


@dataclass(frozen=True)
class LossSeries:
    """Per-event arbitrage losses of one run plus the compounded total."""

    timestamps: np.ndarray  # int64 ms of each arbitrage event
    losses: np.ndarray  # per-event relative LP loss
    profits: np.ndarray  # per-event arbitrageur profit, Y units
    n_instants: int
    initial_state: PoolState
    final_state: PoolState
    window_ms: int
    n_dropped: int = 0  # band exits whose trade the profit guard discarded

    @property
    def multiplier(self) -> float:
        """prod(1 - loss_t), folded left to right; 1.0 without events."""
        return float(np.cumprod(np.append(1.0, 1.0 - self.losses))[-1])

    @property
    def total_relative_loss(self) -> float:
        return 1.0 - self.multiplier

    def scaled(self, factor_k: float) -> "LossSeries":
        """Loss series of a position with concentration factor k.

        A scaled loss of 1 or more would take the whole position, so the
        price has left its range and the scaling no longer holds: rejected.
        """
        scaled = concentration_scale(self.losses, factor_k)
        if np.any(scaled >= 1.0):
            raise InputError(
                f"concentration factor {factor_k} scales a loss of "
                f"{float(np.max(self.losses))} to >= 1; the position leaves its range"
            )
        return replace(self, losses=scaled)


@dataclass(frozen=True)
class SweepResult:
    """Total relative loss per swept parameter value."""

    parameter: str  # "interval_ms" or "fee"
    values: np.ndarray
    total_losses: np.ndarray
    annualized_losses: np.ndarray
    n_events: np.ndarray
    window_ms: int

    def __post_init__(self):
        if np.any(np.diff(self.values) <= 0):
            raise InputError("sweep parameter values must be strictly increasing")
        if np.any(self.total_losses < 0):
            raise InputError("sweep losses must be non-negative")


@dataclass(frozen=True)
class ComparisonReport:
    """Merged fee-vs-loss timeline with trailing-window ratios."""

    timestamps: np.ndarray  # int64 ms, union of fee and loss event times
    fee_returns: np.ndarray
    loss_returns: np.ndarray
    cumulative_difference: np.ndarray  # running sum of (fee - loss)
    trailing_ratio: np.ndarray  # NaN where the trailing loss sum is zero
    window_ms: int
    totals: dict


def run_arb_sim(
    initial: PoolState, quotes: QuoteSeries, schedule: BlockSchedule
) -> LossSeries:
    """Replay quotes over a block schedule, applying optimal arb trades.

    The prevailing quote at each instant is the last update at or before
    it. The quote series must cover the whole schedule window.

    The pool is kept as plain floats. Each step uses the expressions of
    no_arb_band, optimal_arb_trade and swap_exact_in in their operation
    order, so the result is bit-identical to replaying those per instant.
    """
    grid = schedule.timestamps
    pos = _locf_index(quotes.timestamps, grid)
    if quotes.timestamps[-1] < grid[-1]:
        raise InsufficientDataError(
            f"quotes cover [{quotes.timestamps[0]}, {quotes.timestamps[-1]}] but the "
            f"schedule needs [{grid[0]}, {grid[-1]}]"
        )
    bids = quotes.bids[pos]
    asks = quotes.asks[pos]
    bid_at = memoryview(bids)  # indexing gives Python floats
    ask_at = memoryview(asks)

    rx, ry, fee = initial.reserve_x, initial.reserve_y, initial.fee
    omf = 1.0 - fee
    events: list[int] = []
    losses: list[float] = []
    profits: list[float] = []
    dropped = 0

    n = len(grid)
    i = 0
    while i < n:
        p = ry / rx
        lower, upper = p * omf, p / omf
        # after a trade the next instants often exit the band again (zero-fee
        # feeds trade at every price change): look at a few in Python first
        j = i
        stop = min(i + _SCALAR_SCAN, n)
        while j < stop and not (bid_at[j] > upper or ask_at[j] < lower):
            j += 1
        if j == stop:
            j = -1
            s = stop
            chunk = 64
            while s < n:
                e = min(s + chunk, n)
                mask = (bids[s:e] > upper) | (asks[s:e] < lower)
                hit = int(np.argmax(mask))
                if mask[hit]:
                    j = s + hit
                    break
                s = e
                chunk = min(chunk * 2, 1 << 16)
            if j < 0:
                break
        k = rx * ry
        price = bid_at[j]
        if price > upper:  # sell Y to the pool, the X out at the bid
            amount_in = (math.sqrt(omf * k * price) - ry) / omf
            new_x = k / (ry + omf * amount_in)
            new_y = ry + amount_in
            profit = price * (rx - new_x) - amount_in
        else:  # sell X to the pool, bought at the ask
            price = ask_at[j]
            amount_in = (math.sqrt(omf * k / price) - rx) / omf
            new_y = k / (rx + omf * amount_in)
            new_x = rx + amount_in
            profit = (ry - new_y) - price * amount_in
        # guard against degenerate trades just outside the band at float noise
        if amount_in > 0 and profit > 0:
            if not (0.0 < new_x < math.inf and 0.0 < new_y < math.inf):
                PoolState(new_x, new_y, fee)  # raises the InputError naming the reserve
            loss = profit / (rx * price + ry)
            events.append(j)
            losses.append(loss)
            profits.append(profit)
            rx, ry = new_x, new_y
        else:
            dropped += 1
        i = j + 1

    return LossSeries(
        timestamps=grid[np.array(events, dtype=np.intp)],
        losses=np.array(losses, dtype=float),
        profits=np.array(profits, dtype=float),
        n_instants=n,
        initial_state=initial,
        final_state=PoolState(rx, ry, fee),
        window_ms=schedule.span_ms,
        n_dropped=dropped,
    )


def _annualized(total_loss: float, window_ms: int) -> float:
    """Scale a window's compounded loss to a 365-day year via the log multiplier."""
    if window_ms <= 0:
        return float("nan")
    multiplier = 1.0 - total_loss
    if multiplier <= 0:
        return 1.0
    return 1.0 - math.exp(math.log(multiplier) * (YEAR_MS / window_ms))


def _quote_resolution_ms(quotes: QuoteSeries) -> int:
    if len(quotes) < 2:
        return 0
    return int(np.diff(quotes.timestamps).min())


def _sweep(
    parameter: str,
    values: Sequence[float],
    points: Sequence[tuple[PoolState, int]],
    quotes: QuoteSeries,
    window: Optional[tuple[int, int]],
) -> SweepResult:
    """One arb simulation per (pool state, block interval) point on identical quotes."""
    shortest = min(interval for _, interval in points)
    resolution = _quote_resolution_ms(quotes)
    if resolution and shortest < resolution:
        raise InputError(
            f"interval {shortest}ms is below the quote-update resolution of {resolution}ms"
        )
    if window is None:
        window = (int(quotes.timestamps[0]), int(quotes.timestamps[-1]))
    totals, annuals, counts = [], [], []
    span = 0
    for state, interval in points:
        run = run_arb_sim(state, quotes, BlockSchedule.fixed(interval, *window))
        total = run.total_relative_loss
        totals.append(total)
        annuals.append(_annualized(total, run.window_ms))
        counts.append(len(run.losses))
        span = max(span, run.window_ms)
    return SweepResult(
        parameter=parameter,
        values=np.array(values, dtype=float),
        total_losses=np.array(totals),
        annualized_losses=np.array(annuals),
        n_events=np.array(counts, dtype=np.int64),
        window_ms=span,
    )


def blocktime_sweep(
    initial: PoolState,
    quotes: QuoteSeries,
    intervals_ms: Sequence[int] = DEFAULT_INTERVALS_MS,
    window: Optional[tuple[int, int]] = None,
) -> SweepResult:
    """Run the arb simulation at several block intervals on identical quotes."""
    if len(intervals_ms) == 0:
        raise InputError("at least one interval is required")
    if list(intervals_ms) != sorted(set(int(v) for v in intervals_ms)):
        raise InputError("intervals must be strictly increasing")
    points = [(initial, interval) for interval in intervals_ms]
    return _sweep("interval_ms", intervals_ms, points, quotes, window)


def fee_sweep(
    reserve_x: float,
    reserve_y: float,
    quotes: QuoteSeries,
    interval_ms: int,
    fees: Sequence[float],
    window: Optional[tuple[int, int]] = None,
) -> SweepResult:
    """Run the arb simulation at several pool fees and one block interval."""
    if len(fees) == 0:
        raise InputError("at least one fee is required")
    for fee in fees:
        if not (0.0 <= fee < 1.0):
            raise InputError(f"fee must be in [0, 1), got {fee}")
    if list(fees) != sorted(set(fees)):
        raise InputError("fees must be strictly increasing")
    points = [(PoolState(reserve_x, reserve_y, fee), interval_ms) for fee in fees]
    return _sweep("fee", fees, points, quotes, window)


def gbm_generate(
    sigma: float,
    mu: float,
    step_ms: int,
    horizon_ms: int,
    seed: int,
    price0: float = 1.0,
    start_ms: int = 0,
    pair: str = "synthetic",
) -> PriceSeries:
    """Geometric Brownian motion price path on a fixed millisecond grid.

    P_{t+1} = P_t * exp((mu - sigma^2/2) dt + sigma sqrt(dt) z) with dt in
    365-day years and z standard normal; deterministic under a fixed seed.
    sigma == 0 yields a deterministic (drift-only) path.
    """
    if sigma < 0 or not math.isfinite(sigma):
        raise InputError(f"sigma must be >= 0, got {sigma}")
    if step_ms <= 0:
        raise InputError(f"step must be positive, got {step_ms}")
    if horizon_ms <= 0 or horizon_ms % step_ms != 0:
        raise InputError(
            f"horizon ({horizon_ms}ms) must be a positive multiple of the step ({step_ms}ms)"
        )
    if not math.isfinite(mu):
        raise InputError(f"mu must be finite, got {mu}")
    if not (math.isfinite(price0) and price0 > 0):
        raise InputError(f"price0 must be finite and positive, got {price0}")
    n = horizon_ms // step_ms
    dt = step_ms / YEAR_MS
    rng = np.random.default_rng(seed)
    increments = (mu - 0.5 * sigma * sigma) * dt + sigma * math.sqrt(dt) * rng.standard_normal(n)
    prices = np.empty(n + 1)
    prices[0] = price0
    prices[1:] = price0 * np.exp(np.cumsum(increments))
    timestamps = int(start_ms) + np.arange(n + 1, dtype=np.int64) * int(step_ms)
    return PriceSeries(timestamps, prices, pair=pair, source=f"gbm(seed={seed})")


def loglog_slope(
    sweep: SweepResult, fit_range: Optional[tuple[float, float]] = None
) -> tuple[float, float]:
    """OLS slope of log(loss) on log(parameter) within the fit range.

    Returns (slope, rms_residual). Requires at least three in-range points,
    all with positive losses.
    """
    values = sweep.values
    losses = sweep.total_losses
    if fit_range is not None:
        lo, hi = fit_range
        mask = (values >= lo) & (values <= hi)
        values, losses = values[mask], losses[mask]
    if len(values) < 3:
        raise FitError(f"need at least 3 points in the fit range, got {len(values)}")
    if np.any(losses <= 0):
        raise FitError("all losses in the fit range must be positive")
    if np.any(values <= 0):
        raise FitError("all parameter values in the fit range must be positive")
    lx, ly = np.log(values), np.log(losses)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), residual


def fees_vs_losses(
    ledger: PositionLedger, losses: LossSeries, window_ms: int = 30 * DAY_MS
) -> ComparisonReport:
    """Merge fee returns and arb losses into a comparison timeline.

    The difference series is the running sum of per-period fee return minus
    loss. The trailing ratio is the sum of fees over the trailing window
    divided by the sum of losses over it; where the loss sum is zero the
    ratio is reported as NaN (absent), never infinity.
    """
    if window_ms <= 0:
        raise InputError(f"window must be positive, got {window_ms}")
    timeline = np.unique(np.concatenate([ledger.timestamps, losses.timestamps]))
    fee_at = np.zeros(len(timeline))
    loss_at = np.zeros(len(timeline))
    np.add.at(fee_at, np.searchsorted(timeline, ledger.timestamps), ledger.returns)
    np.add.at(loss_at, np.searchsorted(timeline, losses.timestamps), losses.losses)

    cumulative = np.cumsum(fee_at - loss_at)
    fee_prefix = np.concatenate([[0.0], np.cumsum(fee_at)])
    loss_prefix = np.concatenate([[0.0], np.cumsum(loss_at)])
    left = np.searchsorted(timeline, timeline - window_ms, side="right")
    right = np.arange(1, len(timeline) + 1)
    fee_sum = fee_prefix[right] - fee_prefix[left]
    loss_sum = loss_prefix[right] - loss_prefix[left]
    ratio = np.full(len(timeline), np.nan)
    nonzero = loss_sum != 0
    ratio[nonzero] = fee_sum[nonzero] / loss_sum[nonzero]

    totals = {
        "total_fee_return": float(ledger.cumulative_growth - 1.0),
        "total_relative_loss": losses.total_relative_loss,
        "sum_fee_returns": float(np.sum(fee_at)),
        "sum_losses": float(np.sum(loss_at)),
        "final_difference": float(cumulative[-1]) if len(timeline) else 0.0,
    }
    return ComparisonReport(
        timestamps=timeline,
        fee_returns=fee_at,
        loss_returns=loss_at,
        cumulative_difference=cumulative,
        trailing_ratio=ratio,
        window_ms=window_ms,
        totals=totals,
    )
