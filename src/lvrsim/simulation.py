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

from .arbitrage import _OVERFLOW_FAULT
from .errors import FitError, InputError, ReplayError
from .feeds import (_CHUNK, PriceSeries, QuoteSeries, _check, _check_coverage, _locf_index,
                    _stamp_order, _unchecked)
from .fees import PositionLedger
from .pool import _FOLD, PoolState, _fold_series, _in_int64, _is_positive, concentration_scale

YEAR_MS = 365 * 86400 * 1000
DAY_MS = 86400 * 1000

# default sweep grid; the extended grid reaches 5-minute blocks
DEFAULT_INTERVALS_MS = (100, 250, 500, 1000, 2000, 4000, 8000, 12000, 16000)
EXTENDED_INTERVALS_MS = DEFAULT_INTERVALS_MS + (32000, 60000, 120000, 300000)

# instants the replay checks one at a time before it scans numpy chunks
_SCALAR_SCAN = 16

# most steps gbm_generate makes, and most instants a fixed grid may hold (a year of
# 100 ms steps is 3.2e8); 10**9 steps take 24 GB, and a grid's losses.csv tens of GB
MAX_STEPS = 10**9


def _whole_ms(**values) -> list[int]:
    """The millisecond rule: each value an int, a numpy integer or an integral float, as an
    int; else the InputError naming its parameter."""
    for name, value in values.items():
        if not (isinstance(value, (int, np.integer)) or isinstance(value, (float, np.floating))
                and float(value).is_integer()):
            raise InputError(f"{name} must be a whole number of milliseconds, got {value}")
    return [int(value) for value in values.values()]


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
        _check(lambda ts: [_stamp_order(ts, "block timestamps")], ts)
        for name, value in (("blocks", ts), ("first_ms", int(ts[0])), ("n_instants", len(ts))):
            object.__setattr__(self, name, value)

    @classmethod
    def fixed(cls, interval_ms: int, start_ms: int, end_ms: int) -> "BlockSchedule":
        interval, start, end = _whole_ms(interval_ms=interval_ms, start_ms=start_ms, end_ms=end_ms)
        if interval <= 0:
            raise InputError(f"interval must be positive, got {interval}")
        if end < start:
            raise InputError(f"window end {end} before start {start}")
        # no blocks to check: blocks, interval_ms, first_ms, n_instants
        return _unchecked(cls, None, interval, start, (end - start) // interval + 1)

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
        return _fold_series(np.subtract, self.losses)

    @property
    def total_relative_loss(self) -> float:
        return 1.0 - self.multiplier

    def scaled(self, factor_k: float) -> "LossSeries":
        """Loss series of a position with concentration factor k.

        A scaled loss of 1 or more would take the whole position, so the
        price has left its range and the scaling no longer holds: rejected.
        A replay's own losses are below 1, as _replay rejects a loss of 1.
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


def _grids(quotes: QuoteSeries, intervals_ms: Sequence[int],
           window: Optional[tuple[int, int]], name: str = "interval") -> list[BlockSchedule]:
    """The fixed grid of each interval over the window (default: the quotes' span), once each
    lies inside the quotes and holds at most MAX_STEPS instants; the grids' instants are
    counted, not built. A grid past the limit raises the InputError naming the interval as
    name."""
    _check_coverage(quotes, ())  # without updates there is no span, nor a grid inside it
    start, end = quotes.timestamps[[0, -1]].tolist() if window is None else window
    grids = [BlockSchedule.fixed(interval, start, end) for interval in intervals_ms]
    for interval, grid in zip(intervals_ms, grids):
        _check_coverage(quotes, (grid.first_ms, grid.last_ms))
        if grid.n_instants > MAX_STEPS:
            raise InputError(f"{name} {interval} over the window {start}:{end} is "
                             f"{grid.n_instants} instants; at most {MAX_STEPS} are replayed")
    return grids


def _resolution_rule(quotes, grids, grid="interval", feed="the quote-update resolution"):
    """The sweeps' rule, no grid finer than the quotes' resolution, in grid's and feed's words."""
    if (finest := min(schedule.interval_ms for schedule in grids)) < quotes.resolution_ms:
        raise InputError(f"{grid} {finest}ms is below {feed} of {quotes.resolution_ms}ms")


def fixed_schedule(quotes: QuoteSeries, interval_ms: int,
                   window: Optional[tuple[int, int]] = None) -> BlockSchedule:
    """The fixed grid over the window (default: the quotes' span), once it lies in the quotes."""
    return _grids(quotes, [interval_ms], window)[0]


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


def _replay(initial: PoolState, quotes: QuoteSeries, schedule: BlockSchedule,
            events: array, losses: array, profits: array):
    """The replay of run_arb_sim: it appends each event's schedule position, loss and profit
    to the caller's buffers ("q", "d", "d": 24 bytes an event, where lists of boxed numbers
    take ~100), and yields (pool, n_dropped) as each block of _visits ends.

    The pool and the dropped count are carried from each block to the next. The
    caller may fold and empty the buffers at each yield, so a caller that keeps no
    events holds one block of them; a view it takes of them must go before the
    replay resumes, as an array that exports its buffer cannot grow.

    A trade that overflows, a reserve that leaves the float range and a loss of 1
    raise a ReplayError at their event, for every caller alike. In LVR's accounting
    a loss is the arbitrageur's profit over the pool's value, below 1 for a finite
    pool (arXiv:2208.06046), so a loss of 1 is rounding: the trade took the whole
    position.
    """
    rx, ry, fee = initial.reserve_x, initial.reserve_y, initial.fee
    omf = 1.0 - fee
    dropped = counted = 0  # counted: the events of the blocks before, which may be emptied
    # locals: the loop below runs once per instant and per event, and a local
    # read is cheaper than a global, attribute or method lookup
    sqrt, inf, scan = math.sqrt, math.inf, _SCALAR_SCAN
    add_event, add_loss, add_profit = events.append, losses.append, profits.append

    for positions, at in _visits(quotes, schedule):
        bids = quotes.bids[at]  # a strided view where at is a slice, else a gathered copy
        asks = quotes.asks[at]
        bid_at = memoryview(bids)  # indexing gives Python floats
        ask_at = memoryview(asks)
        start = len(events)  # each event of the block appends its place in the block
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
                loss = profit / (rx * price + ry)
                # pool._is_positive inline: this runs once per event, and a call costs more
                if loss >= 1.0 or not (0.0 < new_x < inf and 0.0 < new_y < inf):
                    try:
                        PoolState(new_x, new_y, fee)
                    except InputError as exc:  # it names the reserve
                        raise ReplayError(str(exc)) from None
                    number = counted + len(events) - start + 1
                    which = "the first arbitrage" if number == 1 else f"arbitrage {number}"
                    at_ms = int(schedule._at(np.array([positions[j]], dtype=np.int64))[0])
                    raise ReplayError(
                        f"{which}, at {at_ms} ms, takes the whole position"
                        f"{' from the initial pool' if number == 1 else ''}: a relative loss "
                        f"of {loss}")
                add_event(j)
                add_loss(loss)
                add_profit(profit)
                rx, ry = new_x, new_y
            else:
                if not math.isfinite(amount_in):
                    raise ReplayError(_OVERFLOW_FAULT.format(price, rx, ry))
                dropped += 1
            j += 1
        del bids, asks, bid_at, ask_at  # a block's gathered quotes go before it yields
        places = np.frombuffer(events, dtype=np.int64)[start:]  # made schedule positions
        if isinstance(positions, range):
            places += positions.start
        else:
            np.take(positions, places, out=places)
        del places  # so that the caller may empty the buffers, and the next block append
        counted += len(events) - start
        yield PoolState(rx, ry, fee), dropped


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
    _visits at a time (_replay), into one set of event buffers.
    """
    # each position becomes its instant in place once the replay ends
    events, losses, profits = array("q"), array("d"), array("d")
    for final_state, dropped in _replay(initial, quotes, schedule, events, losses, profits):
        pass

    return LossSeries(
        timestamps=schedule._at(np.frombuffer(events, dtype=np.int64)),
        losses=np.frombuffer(losses, dtype=float),
        profits=np.frombuffer(profits, dtype=float),
        n_instants=schedule.n_instants,
        final_state=final_state,
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


def _sweep(parameter: str, values: Sequence[float], points: Sequence[tuple[PoolState, int]],
           quotes: QuoteSeries, window: Optional[tuple[int, int]]) -> SweepResult:
    """One arb simulation per (pool state, interval) point on identical quotes, once the
    values pass the grid rule (some, strictly increasing) and every grid its checks.

    Each point's losses are folded a block of _replay at a time, as the block ends, its
    events counted and the buffers emptied: a sweep holds the quotes and one block of events.
    """
    what = parameter.removesuffix("_ms")
    if len(values) == 0:
        raise InputError(f"at least one {what} is required")
    if not all(a < b for a, b in zip(values, values[1:])):
        raise InputError(f"{what}s must be strictly increasing")
    states, intervals = zip(*points)
    grids = _grids(quotes, intervals, window)
    _resolution_rule(quotes, grids)
    totals, annuals, counts = [], [], []
    events, losses, profits = array("q"), array("d"), array("d")  # one block's events
    for state, schedule in zip(states, grids):
        multiplier, count = 1.0, 0
        for _ in _replay(state, quotes, schedule, events, losses, profits):
            multiplier = _fold_series(np.subtract, np.frombuffer(losses, dtype=float),
                                      multiplier)
            count += len(losses)
            del events[:], losses[:], profits[:]
        totals.append(1.0 - multiplier)
        annuals.append(_annualized(totals[-1], schedule.span_ms))
        counts.append(count)
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
    step_ms, horizon_ms, start_ms = _whole_ms(step_ms=step_ms, horizon_ms=horizon_ms,
                                              start_ms=start_ms)
    if step_ms <= 0:
        raise InputError(f"step must be positive, got {step_ms}")
    if horizon_ms <= 0 or horizon_ms % step_ms != 0:
        raise InputError(f"horizon_ms {horizon_ms} must be a positive multiple of step_ms "
                         f"{step_ms}")
    if not math.isfinite(mu):
        raise InputError(f"mu must be finite, got {mu}")
    if not _is_positive(price0):
        raise InputError(f"price0 must be finite and positive, got {price0}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    for name, value in (("start_ms", start_ms), ("start_ms + horizon_ms", start_ms + horizon_ms)):
        if not _in_int64(value):
            raise InputError(f"{name} must fit in int64 milliseconds, got {value}")
    # this fault and the path's name synth-gbm's flags, which pass these parameters unchanged
    n = horizon_ms // step_ms
    if n > MAX_STEPS:
        raise InputError(f"--horizon-ms {horizon_ms} / --step-ms {step_ms} is {n} steps; at most "
                         f"{MAX_STEPS} are generated")
    dt = step_ms / YEAR_MS
    rng = np.random.default_rng(seed)
    prices = np.empty(n + 1)
    prices[0] = price0
    with np.errstate(over="ignore", invalid="ignore"):  # such a path is rejected below
        increments = ((mu - 0.5 * sigma * sigma) * dt
                      + sigma * math.sqrt(dt) * rng.standard_normal(n))
        prices[1:] = price0 * np.exp(np.cumsum(increments))
    if not _is_positive(prices).all():
        raise InputError(f"--sigma {sigma}, --mu {mu}, --price0 {price0} and --horizon-ms "
                         f"{horizon_ms} give a price path past the float range; it must be "
                         "finite and positive")
    timestamps = start_ms + np.arange(n + 1, dtype=np.int64) * step_ms
    return _unchecked(PriceSeries, timestamps, prices)  # the stamps increase by a positive step


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
    return _running_sums(*_merged(ledger, losses), window_ms)


def _merged(ledger: PositionLedger, losses: LossSeries) -> tuple:
    """fees_vs_losses' merge step: the timeline, its fee and loss columns and the totals of
    both series. Nothing after it reads the ledger, so that a caller can let it go."""
    # both stamp series are sorted, so the stable sort merges two runs
    stamps = np.concatenate([ledger.timestamps, losses.timestamps])
    stamps.sort(kind="stable")
    first = np.ones(len(stamps), dtype=bool)
    np.not_equal(stamps[1:], stamps[:-1], out=first[1:])
    timeline = stamps[first]
    del stamps, first
    fee_at = np.zeros(len(timeline))
    loss_at = np.zeros(len(timeline))
    for at, stamps, values in ((fee_at, ledger.timestamps, ledger.returns),
                               (loss_at, losses.timestamps, losses.losses)):
        for i in range(0, len(stamps), _FOLD):  # add.at adds in row order, as one call would
            np.add.at(at, np.searchsorted(timeline, stamps[i:i + _FOLD]), values[i:i + _FOLD])
    totals = {
        "total_fee_return": float(ledger.cumulative_growth - 1.0),
        "total_relative_loss": losses.total_relative_loss,
        "sum_fee_returns": float(np.sum(ledger.returns)),
        "sum_losses": float(np.sum(losses.losses)),
    }
    return timeline, fee_at, loss_at, totals


def _running_sums(timeline: np.ndarray, fee_at: np.ndarray, loss_at: np.ndarray, totals: dict,
                  window_ms: int) -> ComparisonReport:
    """fees_vs_losses' running-sum step, on _merged's timeline, columns and totals.

    A window reads the running sums at and before its row, so the window sums are worked out
    a chunk at a time, last chunk first, and each chunk's ratio is written over its fee
    running sums; the running difference is then written over the loss running sums.
    """
    if window_ms <= 0:
        raise InputError(f"window must be positive, got {window_ms}")
    ratio, loss_run = np.cumsum(fee_at), np.cumsum(loss_at)
    reach = len(timeline)  # rows from reach on lie a whole window past the first stamp
    if len(timeline) and (edge := int(timeline[0]) + window_ms) < 2**63:
        reach = int(np.searchsorted(timeline, edge))
    for start in reversed(range(0, len(timeline), _FOLD)):
        chunk = ratio[start:start + _FOLD]
        stop = start + len(chunk)
        # each row's window's first row; one that reaches back before the first stamp starts there
        left = np.zeros(len(chunk), dtype=np.intp)
        if (cut := max(reach, start)) < stop:
            # stamp - window_ms in uint64, which cannot wrap: it lies in [first stamp, stamp]
            since = timeline[cut:stop].view(np.uint64) - np.uint64(window_ms)
            left[cut - start:] = np.searchsorted(timeline, since.view(np.int64), side="right")
        # the running sum at the row less the one just before the window, or less 0.0
        fee_sum, loss_sum = (run[start:stop] - np.where(left > 0, run[left - 1], 0.0)
                             for run in (ratio, loss_run))
        np.divide(fee_sum, loss_sum, out=chunk, where=loss_sum != 0)
        chunk[loss_sum == 0] = np.nan
    cumulative = np.subtract(fee_at, loss_at, out=loss_run)
    np.cumsum(cumulative, out=cumulative)
    return ComparisonReport(
        timestamps=timeline,
        fee_returns=fee_at,
        loss_returns=loss_at,
        cumulative_difference=cumulative,
        trailing_ratio=ratio,
        totals={**totals,
                "final_difference": float(cumulative[-1]) if len(timeline) else 0.0},
    )
