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
from array import array
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import FitError, InputError
from .feeds import _CHUNK, PriceSeries, QuoteSeries, _check_coverage, _locf_index
from .fees import PositionLedger
from .pool import PoolState, concentration_scale

YEAR_MS = 365 * 86400 * 1000
DAY_MS = 86400 * 1000

# default sweep grid; the extended grid reaches 5-minute blocks
DEFAULT_INTERVALS_MS = (100, 250, 500, 1000, 2000, 4000, 8000, 12000, 16000)
EXTENDED_INTERVALS_MS = DEFAULT_INTERVALS_MS + (32000, 60000, 120000, 300000)

# instants the replay checks one at a time before it scans numpy chunks
_SCALAR_SCAN = 16

# losses LossSeries.multiplier folds at a time: 8 KB of factors
_FOLD = 1024

# most steps gbm_generate makes, and most instants a fixed grid may hold (a year of
# 100 ms steps is 3.2e8); 10**9 steps take 24 GB, and a grid's losses.csv tens of GB
MAX_STEPS = 10**9


@dataclass(frozen=True)
class BlockSchedule:
    """Instants at which arbitrageurs may trade against the pool.

    Block stamps (from_blocks) are held as their array. A fixed grid (fixed) is
    held as its first instant, its interval and its instant count alone, and its
    instants are worked out where they are read: a replay over it holds nothing
    per instant.
    """

    blocks: Optional[np.ndarray]  # int64 ms, strictly increasing; None for a fixed grid
    interval_ms: Optional[int] = field(default=None, init=False)  # set by fixed() alone
    first_ms: int = field(default=0, init=False)
    n_instants: int = field(default=0, init=False)

    def __post_init__(self):
        ts = np.asarray(self.blocks, dtype=np.int64)
        if len(ts) == 0:
            raise InputError("schedule must contain at least one instant")
        if np.any(ts[1:] <= ts[:-1]):  # np.diff can wrap
            raise InputError("schedule instants must be strictly increasing")
        for name, value in (("blocks", ts), ("first_ms", int(ts[0])), ("n_instants", len(ts))):
            object.__setattr__(self, name, value)

    @classmethod
    def fixed(cls, interval_ms: int, start_ms: int, end_ms: int) -> "BlockSchedule":
        if interval_ms <= 0:
            raise InputError(f"interval must be positive, got {interval_ms}")
        if end_ms < start_ms:
            raise InputError(f"window end {end_ms} before start {start_ms}")
        start, interval = int(start_ms), int(interval_ms)
        schedule = object.__new__(cls)  # no blocks to check
        for name, value in (("blocks", None), ("interval_ms", interval), ("first_ms", start),
                            ("n_instants", (int(end_ms) - start) // interval + 1)):
            object.__setattr__(schedule, name, value)
        return schedule

    @classmethod
    def from_blocks(cls, block_timestamps_ms) -> "BlockSchedule":
        return cls(np.asarray(block_timestamps_ms, dtype=np.int64))

    @property
    def last_ms(self) -> int:
        if self.blocks is not None:
            return int(self.blocks[-1])
        return self.first_ms + (self.n_instants - 1) * self.interval_ms

    @property
    def span_ms(self) -> int:
        return self.last_ms - self.first_ms  # Python ints: a span past int64 does not wrap

    @property
    def timestamps(self) -> np.ndarray:
        """The instants, int64 ms: a grid's are built anew on each read, 8 bytes an instant."""
        if self.blocks is not None:
            return self.blocks
        return self._at(np.arange(self.n_instants, dtype=np.int64))

    def _at(self, positions: np.ndarray) -> np.ndarray:
        """The instants at these int64 positions in the schedule, written over them."""
        if self.blocks is not None:
            return np.take(self.blocks, positions, out=positions)
        # first + k * interval in uint64, where it cannot wrap; np.arange sizes a grid in
        # floats, which can drop the last instant of one that spans more than 2**53 ms
        k = positions.view(np.uint64)
        k *= np.uint64(self.interval_ms if self.n_instants > 1 else 0)  # else past the span
        k += np.uint64(self.first_ms % 2**64)
        return positions


def _fold(factors: np.ndarray, product: float) -> float:
    """One chunk of a left fold: the factors become their running product, in place, carried
    on from the product of the chunks before; returns the product so far.

    np.cumprod multiplies left to right, so the chunks give the whole fold's bits.
    """
    factors[0] *= product
    return float(np.cumprod(factors, out=factors)[-1])


@dataclass(frozen=True)
class LossSeries:
    """Per-event arbitrage losses of one run plus the compounded total."""

    timestamps: np.ndarray  # int64 ms of each arbitrage event
    losses: np.ndarray  # per-event relative LP loss
    profits: np.ndarray  # per-event arbitrageur profit, Y units
    n_instants: int
    final_state: PoolState
    window_ms: int
    n_dropped: int = 0  # band exits whose trade the profit guard discarded

    @property
    def multiplier(self) -> float:
        """prod(1 - loss_t), folded left to right; 1.0 without events.

        Folded _FOLD factors at a time, so that it holds no full-length temporary.
        """
        product = 1.0
        for i in range(0, len(self.losses), _FOLD):
            product = _fold(1.0 - self.losses[i:i + _FOLD], product)
        return product

    @property
    def total_relative_loss(self) -> float:
        return 1.0 - self.multiplier

    def scaled(self, factor_k: float) -> "LossSeries":
        """Loss series of a position with concentration factor k.

        A scaled loss of 1 or more would take the whole position, so the
        price has left its range and the scaling no longer holds: rejected.
        """
        scaled = concentration_scale(self.losses, factor_k)
        # scaling by k >= 1 keeps the order, so the largest loss decides; no full-length mask
        if len(scaled) and scaled.max() >= 1.0:
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
    totals: dict


def _grid_window(quotes: QuoteSeries, intervals_ms: Sequence[int],
                 window: Optional[tuple[int, int]], name: str = "interval") -> tuple[int, int]:
    """The window (default: the quotes' span) once each interval's fixed grid over it lies
    inside the quotes and holds at most MAX_STEPS instants; the grids' instants are counted,
    not built. A grid past the limit raises the InputError naming the interval as name."""
    _check_coverage(quotes, ())  # without updates there is no span, nor a grid inside it
    start, end = map(int, quotes.timestamps[[0, -1]] if window is None else window)
    for interval in intervals_ms:
        if interval > 0 and start <= end:  # else BlockSchedule.fixed names the fault
            steps = (end - start) // interval
            _check_coverage(quotes, (start, start + steps * interval))
            if steps + 1 > MAX_STEPS:
                raise InputError(f"{name} {interval} over the window {start}:{end} is "
                                 f"{steps + 1} instants; at most {MAX_STEPS} are replayed")
    return start, end


def fixed_schedule(quotes: QuoteSeries, interval_ms: int,
                   window: Optional[tuple[int, int]] = None) -> BlockSchedule:
    """The fixed grid over the window (default: the quotes' span), once it lies inside the
    quotes."""
    return BlockSchedule.fixed(interval_ms, *_grid_window(quotes, [interval_ms], window))


def _visits(quotes: QuoteSeries, schedule: BlockSchedule):
    """The instants the replay visits and the selector of their quotes in the series,
    yielded a block of at most _CHUNK schedule instants at a time.

    Each block is (positions, selector): the positions of its visited instants in
    the schedule, a range where it visits them all, else an int64 array. The
    quotes must cover the schedule (_check_coverage), and an instant's quote is
    the last at or before it. The selector is a basic slice, whose use gives a
    strided view instead of a gathered copy, when the schedule is a fixed grid
    whose interval is a multiple of the quotes' resolution and the stamps are
    uniform. Otherwise it is an index array: (t - first) // step on uniform
    stamps, else _locf_index's. On uniform stamps a fixed grid at least a step
    apart reads each quote once; elsewhere only the first instant of each run on
    the same quote is visited, across the blocks too.
    """
    _check_coverage(quotes, (schedule.first_ms, schedule.last_ms))  # so it ends in the quotes
    stamps, n = quotes.timestamps, schedule.n_instants
    step, interval, first = quotes.resolution_ms, schedule.interval_ms, int(stamps[0])
    # every gap is at least the least one: with the endpoints, all are equal
    uniform = step > 0 and int(stamps[-1]) - first == step * (len(stamps) - 1)
    stride = interval // step if uniform and interval and interval % step == 0 else 0
    offset = (schedule.first_ms - first) // step if stride else 0
    previous = -1  # the quote of the last instant of the block before
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        if stride:
            yield range(lo, hi), slice(offset + lo * stride, offset + (hi - 1) * stride + 1,
                                       stride)
            continue
        instants = schedule._at(np.arange(lo, hi, dtype=np.int64))
        if uniform:  # exact in uint64, where t - first cannot wrap; at most len(stamps) - 1
            at = instants.view(np.uint64) - stamps[:1].view(np.uint64)
            at = np.floor_divide(at, np.uint64(step), out=at).view(np.int64)
        else:
            at = _locf_index(stamps, instants)
        del instants
        fresh = np.empty(len(at), dtype=bool)  # the first instant of each quote
        fresh[0] = at[0] != previous
        np.not_equal(at[1:], at[:-1], out=fresh[1:])
        previous = int(at[-1])
        if fresh.all():
            yield range(lo, hi), at
        else:
            positions = np.flatnonzero(fresh)
            positions += lo
            yield positions, at[fresh]


def run_arb_sim(
    initial: PoolState, quotes: QuoteSeries, schedule: BlockSchedule
) -> LossSeries:
    """Replay quotes over a block schedule, applying optimal arb trades.

    The prevailing quote at each instant is the last update at or before
    it. The quote series must cover the whole schedule window. An instant
    whose quote is the previous instant's is skipped: the pool already
    rests where that quote left it, so a recheck could trade only dust.

    The pool is kept as plain floats. Each step uses the expressions of
    no_arb_band, optimal_arb_trade and swap_exact_in in their operation
    order, so the result is bit-identical to replaying those at each
    instant that is not skipped. The schedule is replayed a block of
    _visits at a time, the pool carried from one block to the next.
    """
    rx, ry, fee = initial.reserve_x, initial.reserve_y, initial.fee
    omf = 1.0 - fee
    # instant position, loss and profit: 24 bytes an event, where lists of boxed numbers take
    # ~100; each position becomes its instant in place once the replay ends
    events, losses, profits = array("q"), array("d"), array("d")
    dropped = 0
    # locals: the loop below runs once per instant and per event, and a local
    # read is cheaper than a global, attribute or method lookup
    sqrt, inf, scan = math.sqrt, math.inf, _SCALAR_SCAN
    add_event, add_loss, add_profit = events.append, losses.append, profits.append

    for positions, at in _visits(quotes, schedule):
        bids = quotes.bids[at]  # a strided view where at is a slice, else a gathered copy
        asks = quotes.asks[at]
        bid_at = memoryview(bids)  # indexing gives Python floats
        ask_at = memoryview(asks)
        before = len(events)
        n = len(bids)
        j = 0
        while j < n:
            p = ry / rx
            lower, upper = p * omf, p / omf
            # after a trade the next instants often exit the band again (zero-fee
            # feeds trade at every price change): look at a few in Python first
            stop = j + scan
            if stop > n:
                stop = n
            while j < stop:
                bid = bid_at[j]
                if bid > upper or ask_at[j] < lower:
                    break
                j += 1
            else:  # no exit among them: scan numpy chunks of 64, 128, ... up to 1 << 16
                chunk = 64
                while j < n:
                    mask = (bids[j:j + chunk] > upper) | (asks[j:j + chunk] < lower)
                    hit = mask.argmax()
                    if mask[hit]:
                        j += int(hit)
                        break
                    j += chunk
                    if chunk < 1 << 16:
                        chunk += chunk
                else:  # no exit before the end of the block
                    break
                bid = bid_at[j]
            k = rx * ry
            if bid > upper:  # sell Y to the pool, the X out at the bid
                price = bid
                amount_in = (sqrt(omf * k * price) - ry) / omf
                new_x = k / (ry + omf * amount_in)
                new_y = ry + amount_in
                profit = price * (rx - new_x) - amount_in
            else:  # sell X to the pool, bought at the ask
                price = ask_at[j]
                amount_in = (sqrt(omf * k / price) - rx) / omf
                new_y = k / (rx + omf * amount_in)
                new_x = rx + amount_in
                profit = (ry - new_y) - price * amount_in
            # guard against degenerate trades just outside the band at float noise
            if amount_in > 0 and profit > 0:
                if not (0.0 < new_x < inf and 0.0 < new_y < inf):
                    PoolState(new_x, new_y, fee)  # raises the InputError naming the reserve
                add_event(j)
                add_loss(profit / (rx * price + ry))
                add_profit(profit)
                rx, ry = new_x, new_y
            else:
                if not math.isfinite(amount_in):
                    raise InputError(f"the trade at price {price} overflows against reserves "
                                     f"x={rx}, y={ry}; losses are scale-invariant: "
                                     "use smaller ones")
                dropped += 1
            j += 1
        if len(events) > before:  # the block's events, from places in it to schedule positions
            placed = np.frombuffer(events, dtype=np.int64)[before:]
            if isinstance(positions, range):
                placed += positions.start
            else:
                np.take(positions, placed, out=placed)
            del placed  # an array cannot grow while a view of it is held

    return LossSeries(
        timestamps=schedule._at(np.frombuffer(events, dtype=np.int64)),
        losses=np.frombuffer(losses, dtype=float),
        profits=np.frombuffer(profits, dtype=float),
        n_instants=schedule.n_instants,
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


def _sweep(
    parameter: str,
    values: Sequence[float],
    points: Sequence[tuple[PoolState, int]],
    quotes: QuoteSeries,
    window: Optional[tuple[int, int]],
) -> SweepResult:
    """One arb simulation per (pool state, block interval) point on identical quotes."""
    intervals = [interval for _, interval in points]
    window = _grid_window(quotes, intervals, window)  # every grid, before the first replay
    resolution = quotes.resolution_ms
    if resolution and min(intervals) < resolution:
        raise InputError(f"interval {min(intervals)}ms is below the quote-update resolution "
                         f"of {resolution}ms")
    totals, annuals, counts = [], [], []
    for state, interval in points:
        run = run_arb_sim(state, quotes, BlockSchedule.fixed(interval, *window))
        total = run.total_relative_loss
        totals.append(total)
        annuals.append(_annualized(total, run.window_ms))
        counts.append(len(run.losses))
        del run  # so that the next replay does not run beside this one's events
    return SweepResult(
        parameter=parameter,
        values=np.array(values, dtype=float),
        total_losses=np.array(totals),
        annualized_losses=np.array(annuals),
        n_events=np.array(counts, dtype=np.int64),
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
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    start_ms = int(start_ms)
    for name, value in (("start_ms", start_ms), ("start_ms + horizon_ms", start_ms + horizon_ms)):
        if not -(2**63) <= value < 2**63:
            raise InputError(f"{name} must fit in int64 milliseconds, got {value}")
    n = horizon_ms // step_ms
    if n > MAX_STEPS:
        raise InputError(f"horizon_ms {horizon_ms} / step_ms {step_ms} is {n} steps; "
                         f"at most {MAX_STEPS} are generated")
    dt = step_ms / YEAR_MS
    rng = np.random.default_rng(seed)
    increments = (mu - 0.5 * sigma * sigma) * dt + sigma * math.sqrt(dt) * rng.standard_normal(n)
    prices = np.empty(n + 1)
    prices[0] = price0
    prices[1:] = price0 * np.exp(np.cumsum(increments))
    timestamps = start_ms + np.arange(n + 1, dtype=np.int64) * int(step_ms)
    return PriceSeries(timestamps, prices)


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


def _window_sums(values: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Sum of values[left[i]:i + 1] for each i, as a difference of prefix sums."""
    prefix = np.zeros(len(values) + 1)
    np.cumsum(values, out=prefix[1:])
    sums = prefix[left]
    return np.subtract(prefix[1:], sums, out=sums)


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
    # both stamp series are sorted, so the stable sort merges two runs
    stamps = np.concatenate([ledger.timestamps, losses.timestamps])
    stamps.sort(kind="stable")
    first = np.ones(len(stamps), dtype=bool)
    np.not_equal(stamps[1:], stamps[:-1], out=first[1:])
    timeline = stamps[first]
    del stamps, first
    fee_at = np.zeros(len(timeline))
    loss_at = np.zeros(len(timeline))
    np.add.at(fee_at, np.searchsorted(timeline, ledger.timestamps), ledger.returns)
    np.add.at(loss_at, np.searchsorted(timeline, losses.timestamps), losses.losses)

    cumulative = fee_at - loss_at
    np.cumsum(cumulative, out=cumulative)
    # each window's first row; one that reaches back before the first stamp starts there
    left = np.zeros(len(timeline), dtype=np.intp)
    if len(timeline) and (edge := int(timeline[0]) + window_ms) < 2**63:
        reach = int(np.searchsorted(timeline, edge))  # the rows a whole window past the first
        # stamp - window_ms in uint64, which cannot wrap: it lies in [first stamp, stamp]
        since = timeline[reach:].view(np.uint64) - np.uint64(window_ms)
        left[reach:] = np.searchsorted(timeline, since.view(np.int64), side="right")
    fee_sum, loss_sum = (_window_sums(at, left) for at in (fee_at, loss_at))
    del left
    ratio = np.full(len(timeline), np.nan)
    np.divide(fee_sum, loss_sum, out=ratio, where=loss_sum != 0)

    totals = {
        "total_fee_return": float(ledger.cumulative_growth - 1.0),
        "total_relative_loss": losses.total_relative_loss,
        "sum_fee_returns": float(np.sum(ledger.returns)),
        "sum_losses": float(np.sum(losses.losses)),
        "final_difference": float(cumulative[-1]) if len(timeline) else 0.0,
    }
    return ComparisonReport(
        timestamps=timeline,
        fee_returns=fee_at,
        loss_returns=loss_at,
        cumulative_difference=cumulative,
        trailing_ratio=ratio,
        totals=totals,
    )
