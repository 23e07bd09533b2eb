import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lvrsim import (
    BlockSchedule,
    Direction,
    FitError,
    InputError,
    InsufficientDataError,
    LossSeries,
    PoolState,
    PositionLedger,
    PriceSeries,
    QuoteSeries,
    SweepResult,
    accumulate,
    apply_arbitrage,
    concentration_scale,
    blocktime_sweep,
    fee_sweep,
    fees_vs_losses,
    gbm_generate,
    loglog_slope,
    no_arb_band,
    optimal_arb_trade,
    quotes_from_prices,
    run_arb_sim,
)
from lvrsim.simulation import DAY_MS, YEAR_MS, _SCALAR_SCAN


def constant_quotes(price, start=0, end=100_000, step=1000):
    ts = np.arange(start, end + 1, step, dtype=np.int64)
    prices = np.full(len(ts), float(price))
    return QuoteSeries(ts, prices, prices)


def step_quotes(p0, p1, jump_ms, start=0, end=100_000, step=1000):
    ts = np.arange(start, end + 1, step, dtype=np.int64)
    prices = np.where(ts < jump_ms, float(p0), float(p1))
    return QuoteSeries(ts, prices, prices)


def loss_series(timestamps, losses):
    losses = np.asarray(losses, float)
    state = PoolState(1.0, 1.0)
    return LossSeries(
        timestamps=np.asarray(timestamps, np.int64),
        losses=losses,
        profits=losses.copy(),
        n_instants=len(losses),
        initial_state=state,
        final_state=state,
        window_ms=int(timestamps[-1] - timestamps[0]) if len(timestamps) else 0,
    )


class TestBlockSchedule:
    def test_fixed_grid(self):
        schedule = BlockSchedule.fixed(4000, 0, 8000)
        assert schedule.timestamps.tolist() == [0, 4000, 8000]
        assert schedule.interval_ms == 4000

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            BlockSchedule(np.array([], dtype=np.int64))

    def test_rejects_unsorted(self):
        with pytest.raises(InputError):
            BlockSchedule.from_blocks([2, 1])


class TestRunArbSim:
    def test_constant_quote_no_trades(self):
        quotes = constant_quotes(2000.0)
        run = run_arb_sim(PoolState(1.0, 2000.0, 0.003), quotes,
                          BlockSchedule.fixed(1000, 0, 100_000))
        assert len(run.losses) == 0
        assert run.total_relative_loss == 0.0
        assert run.final_state == run.initial_state

    def test_single_step_single_trade(self):
        quotes = step_quotes(2000.0, 2100.0, jump_ms=50_000)
        run = run_arb_sim(PoolState(1.0, 2000.0, 0.003), quotes,
                          BlockSchedule.fixed(1000, 0, 100_000))
        assert len(run.losses) == 1
        assert run.timestamps[0] == 50_000

    def test_deterministic(self):
        prices = gbm_generate(0.5, 0.0, 1000, 200_000, seed=11, price0=2000.0)
        quotes = quotes_from_prices(prices)
        state = PoolState(1.0, 2000.0, 0.001)
        schedule = BlockSchedule.fixed(1000, 0, 200_000)
        first = run_arb_sim(state, quotes, schedule)
        second = run_arb_sim(state, quotes, schedule)
        assert np.array_equal(first.losses, second.losses)
        assert first.multiplier == second.multiplier

    def test_multiplier_matches_product(self):
        prices = gbm_generate(0.5, 0.0, 1000, 500_000, seed=12, price0=2000.0)
        run = run_arb_sim(PoolState(1.0, 2000.0, 0.0005), quotes_from_prices(prices),
                          BlockSchedule.fixed(1000, 0, 500_000))
        product = 1.0
        for loss in run.losses:
            product *= 1.0 - loss
        assert run.multiplier == product
        assert run.total_relative_loss == 1.0 - run.multiplier

    def test_loss_independent_of_position_size(self):
        # sigma 4, so that the path trades (30 events). A loss is a difference of
        # reserve-sized terms over the pool value, so a scale of 1e6 moves it by
        # ulps of 1 (0.44 at most here) and a profit by up to 2.9e-7 relative.
        prices = gbm_generate(4.0, 0.0, 1000, 300_000, seed=13, price0=1500.0)
        quotes = quotes_from_prices(prices)
        schedule = BlockSchedule.fixed(2000, 0, 300_000)
        small = run_arb_sim(PoolState(1.0, 1500.0, 0.003), quotes, schedule)
        large = run_arb_sim(PoolState(1e6, 1.5e9, 0.003), quotes, schedule)
        assert len(small.losses) >= 25
        assert large.timestamps.tobytes() == small.timestamps.tobytes()
        np.testing.assert_allclose(large.losses, small.losses, rtol=0,
                                   atol=4 * np.finfo(float).eps)
        np.testing.assert_allclose(large.profits, 1e6 * small.profits, rtol=1e-6, atol=0)
        # a power-of-two scale rounds every operation alike
        exact = run_arb_sim(PoolState(2.0**20, 1500.0 * 2.0**20, 0.003), quotes, schedule)
        assert exact.losses.tobytes() == small.losses.tobytes()
        assert exact.profits.tobytes() == (2.0**20 * small.profits).tobytes()

    def test_superset_schedule_on_step_path(self):
        # a single monotone price step: denser schedules never lose less
        quotes = step_quotes(2000.0, 2200.0, jump_ms=50_000)
        state = PoolState(1.0, 2000.0, 0.003)
        fine = run_arb_sim(state, quotes, BlockSchedule.fixed(1000, 0, 100_000))
        coarse = run_arb_sim(state, quotes, BlockSchedule.fixed(10_000, 0, 100_000))
        missed = run_arb_sim(state, quotes, BlockSchedule.from_blocks([0, 10_000]))
        assert fine.total_relative_loss >= coarse.total_relative_loss
        assert coarse.total_relative_loss >= missed.total_relative_loss
        assert missed.total_relative_loss == 0.0

    def test_rejects_uncovered_schedule(self):
        quotes = constant_quotes(2000.0, start=10_000, end=50_000)
        with pytest.raises(InsufficientDataError):
            run_arb_sim(PoolState(1.0, 2000.0), quotes, BlockSchedule.fixed(1000, 0, 50_000))

    def test_rejects_schedule_past_the_last_quote(self):
        quotes = constant_quotes(2000.0, start=0, end=40_000)
        with pytest.raises(InsufficientDataError, match="schedule needs"):
            run_arb_sim(PoolState(1.0, 2000.0), quotes, BlockSchedule.fixed(1000, 0, 50_000))

    @pytest.mark.parametrize("spread", [0.0, 0.002])
    def test_matches_naive_per_instant_loop(self, spread):
        from lvrsim import Direction, apply_arbitrage, optimal_arb_trade

        # One hour: sigma*sqrt(T) ~ 0.85 %, far wider than the 8 bp band (plus
        # the spread), so the pool trades in both directions and the scan
        # meets quiet stretches longer than its first chunk.
        prices = gbm_generate(0.8, 0.0, 1000, 3_600_000, seed=21, price0=900.0)
        half = 0.5 * spread
        quotes = QuoteSeries(prices.timestamps, prices.prices * (1.0 - half),
                             prices.prices * (1.0 + half))
        schedule = BlockSchedule.fixed(1000, 0, 3_600_000)
        run = run_arb_sim(PoolState(2.0, 1800.0, 0.0008), quotes, schedule)

        state = PoolState(2.0, 1800.0, 0.0008)
        naive = []
        directions = set()
        for i in range(len(schedule.timestamps)):
            trade = optimal_arb_trade(state, quotes[i])
            if trade is not None:
                state = apply_arbitrage(state, trade)
                naive.append(trade.lp_relative_loss)
                directions.add(trade.direction)
        assert len(naive) > 5
        assert directions == set(Direction)
        assert np.array_equal(run.losses, np.array(naive))
        assert state == run.final_state

    @pytest.mark.parametrize("fee", [0.0, 0.0005, 0.003, 0.01])
    @pytest.mark.parametrize("side", ["bid", "ask"])
    def test_quote_one_ulp_outside_the_band_is_dropped(self, fee, side):
        state = PoolState(1.0, 2000.0, fee)
        lower, upper = no_arb_band(state)
        price = np.nextafter(upper, np.inf) if side == "bid" else np.nextafter(lower, 0.0)
        quotes = constant_quotes(price, end=4000)
        assert quotes[0].bid > upper or quotes[0].ask < lower
        assert optimal_arb_trade(state, quotes[0]) is None

        run = run_arb_sim(state, quotes, BlockSchedule.fixed(1000, 0, 4000))
        assert run.n_dropped == 5  # every instant exits the band, none trades
        assert len(run.losses) == 0 and run.multiplier == 1.0
        assert run.final_state == state
        assert run.scaled(2.0).n_dropped == 5

    def test_scaled_series(self):
        run = loss_series([0, 1000, 2000], [0.001, 0.002, 0.0005])
        scaled = run.scaled(10.0)
        assert np.allclose(scaled.losses, 10.0 * run.losses, rtol=1e-15)
        expected = (1 - 0.01) * (1 - 0.02) * (1 - 0.005)
        assert scaled.multiplier == pytest.approx(expected, rel=1e-12)

    def test_scaled_rejects_loss_of_whole_position(self):
        run = loss_series([0, 1000, 2000], [0.001, 0.02, 0.0005])
        assert run.scaled(49.0).multiplier > 0
        for factor in (50.0, 60.0):  # 50 * 0.02 == 1 exactly
            with pytest.raises(InputError, match="leaves its range"):
                run.scaled(factor)


def left_fold(factors) -> float:
    """The product of the factors, multiplied in one at a time from the left."""
    product = 1.0
    for factor in factors:
        product *= factor
    return product


# zeros, values down to 1e-300, values near 1 and anything in between
PER_PERIOD = st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e-6),
                                st.floats(0.99, 1.0, exclude_max=True),
                                st.floats(0.0, 1.0, exclude_max=True)), max_size=30)


@example(losses=[], factor=1.0)
@given(losses=PER_PERIOD, factor=st.floats(1.0, 1e3))
def test_multiplier_is_the_left_fold(losses, factor):
    run = loss_series(np.arange(len(losses), dtype=np.int64), losses)
    assert run.multiplier == left_fold(1.0 - loss for loss in losses)
    assert run.total_relative_loss == 1.0 - run.multiplier
    if all(factor * loss < 1.0 for loss in losses):
        scaled = run.scaled(factor)
        assert scaled.multiplier == left_fold(1.0 - factor * loss for loss in losses)
    else:
        with pytest.raises(InputError, match="leaves its range"):
            run.scaled(factor)


@example(parts=[[]], factor=1.0)
@given(parts=st.lists(PER_PERIOD, min_size=1, max_size=3), factor=st.floats(1.0, 1e3))
def test_cumulative_growth_is_the_left_fold(parts, factor):
    """1 to 3 appends, then the k-scaled returns as `fees --concentration-k` takes them."""
    ledger = PositionLedger(1.0)
    for part in parts:
        ledger = accumulate(ledger, part)
    returns = [r for part in parts for r in part]
    assert ledger.cumulative_growth == left_fold(1.0 + r for r in returns)
    scaled = accumulate(PositionLedger(1.0), concentration_scale(ledger.returns, factor))
    assert scaled.cumulative_growth == left_fold(1.0 + factor * r for r in returns)


# The replay checks _SCALAR_SCAN instants in Python, then numpy chunks of 64,
# 128, 256, ... A quiet stretch longer than the first three makes it double.
QUIET_MIN = _SCALAR_SCAN + 64 + 128


@st.composite
def replay_cases(draw):
    """(pool, quotes, schedule): a GBM path with a quiet stretch and two jumps.

    In the quiet stretch the spread is 10 %, wider than any band the pool
    can reach, so no instant trades. A 10 % jump up and one down later make
    the pool trade in both directions whatever the path and the fee; the up
    jump may end the quiet stretch, so exits land on chunk edges too.
    """
    interval = draw(st.sampled_from([1000, 2000, 5000]))
    ratio = interval // 1000  # quote steps per instant
    lead = draw(st.integers(0, 200))
    quiet = draw(st.integers(QUIET_MIN, QUIET_MIN + 2 * 256))
    instants = lead + quiet + draw(st.integers(2, 300))
    prices = gbm_generate(draw(st.floats(0.5, 20.0)), 0.0, 1000, instants * interval,
                          seed=draw(st.integers(0, 2**32 - 1)), price0=2000.0)
    mid = prices.prices
    half = 0.5 * draw(st.sampled_from([0.0, 0.0005, 0.004]))
    bids, asks = mid * (1.0 - half), mid * (1.0 + half)
    start, end = lead * ratio, (lead + quiet) * ratio
    bids[start:end] = 0.95 * mid[max(start - 1, 0)]
    asks[start:end] = 1.05 * mid[max(start - 1, 0)]
    up = draw(st.integers(lead + quiet, instants - 1))
    down = draw(st.integers(up + 1, instants))
    for at, factor in ((up, 1.1), (down, 1.0 / 1.1)):
        bids[at * ratio:] *= factor
        asks[at * ratio:] *= factor
    fee = draw(st.sampled_from([0.0, 0.0005, 0.003, 0.01]))
    pool = PoolState(draw(st.floats(0.01, 100.0)), 2000.0 * draw(st.floats(0.5, 2.0)), fee)
    schedule = BlockSchedule.fixed(interval, 0, instants * interval)
    return pool, QuoteSeries(prices.timestamps, bids, asks), schedule


class TestReplayKernel:
    """run_arb_sim on plain floats against a per-instant dataclass replay."""

    @given(case=replay_cases())
    def test_bit_identical_to_dataclass_replay(self, case):
        pool, quotes, schedule = case
        state = pool
        stamps, losses, profits, directions = [], [], [], set()
        multiplier, dropped = 1.0, 0
        position = np.searchsorted(quotes.timestamps, schedule.timestamps, side="right") - 1
        for t, i in zip(schedule.timestamps.tolist(), position.tolist()):
            quote = quotes[i]
            trade = optimal_arb_trade(state, quote)
            if trade is None:
                lower, upper = no_arb_band(state)
                dropped += quote.bid > upper or quote.ask < lower
                continue
            state = apply_arbitrage(state, trade)
            multiplier *= 1.0 - trade.lp_relative_loss
            stamps.append(t)
            losses.append(trade.lp_relative_loss)
            profits.append(trade.arb_profit)
            directions.add(trade.direction)
        assert directions == set(Direction)

        run = run_arb_sim(pool, quotes, schedule)
        assert run.timestamps.dtype == np.int64
        assert run.timestamps.tobytes() == np.array(stamps, dtype=np.int64).tobytes()
        assert run.losses.tobytes() == np.array(losses, dtype=float).tobytes()
        assert run.profits.tobytes() == np.array(profits, dtype=float).tobytes()
        assert run.multiplier == multiplier
        assert run.final_state == state
        assert run.n_instants == len(schedule.timestamps)
        assert run.n_dropped == dropped


FEES = (0.0, 0.0005, 0.003, 0.01)


@st.composite
def short_replays(draw, fees=FEES):
    """(pool, quotes, schedule): up to 60 instants of GBM at a random fee and spread.

    The quotes run one step past the schedule, so that an instant 1 ms after
    the last one still has the quote of the last one.
    """
    interval = draw(st.sampled_from([1000, 2000, 5000]))
    end = draw(st.integers(1, 59)) * interval
    prices = gbm_generate(draw(st.floats(2.0, 50.0)), 0.0, 1000, end + 1000,
                          seed=draw(st.integers(0, 2**32 - 1)), price0=2000.0)
    half = 0.5 * draw(st.sampled_from([0.0, 0.0005, 0.004]))
    quotes = QuoteSeries(prices.timestamps, prices.prices * (1.0 - half),
                         prices.prices * (1.0 + half))
    fee = draw(st.sampled_from(fees))
    pool = PoolState(draw(st.floats(0.01, 100.0)), 2000.0 * draw(st.floats(0.5, 2.0)), fee)
    return pool, quotes, BlockSchedule.fixed(interval, 0, end)


def assert_one_ms_later_adds_no_event(pool, quotes, schedule):
    run = run_arb_sim(pool, quotes, schedule)
    doubled = np.sort(np.concatenate([schedule.timestamps, schedule.timestamps + 1]))
    again = run_arb_sim(pool, quotes, BlockSchedule.from_blocks(doubled))
    assert again.timestamps.tobytes() == run.timestamps.tobytes()
    assert again.losses.tobytes() == run.losses.tobytes()
    assert again.profits.tobytes() == run.profits.tobytes()
    assert again.final_state == run.final_state and again.multiplier == run.multiplier


class TestReplayInvariants:
    @given(case=short_replays())
    def test_losses_in_unit_interval_and_k_never_decreases(self, case):
        pool, quotes, schedule = case
        run = run_arb_sim(pool, quotes, schedule)
        assert np.all((run.losses >= 0.0) & (run.losses < 1.0))
        # the replay one instant at a time: each run ends where the next starts
        state, k = pool, [pool.reserve_x * pool.reserve_y]
        for t in schedule.timestamps:
            state = run_arb_sim(state, quotes, BlockSchedule.from_blocks([t])).final_state
            k.append(state.reserve_x * state.reserve_y)
        assert state == run.final_state
        # the fee stays in the pool; at zero fee k is kept up to a few roundings
        k = np.array(k)
        assert np.all(k[1:] >= k[:-1] * (1.0 - 4 * np.finfo(float).eps))

    @given(case=short_replays(fees=FEES[1:]))
    def test_instant_one_ms_later_adds_no_event(self, case):
        assert_one_ms_later_adds_no_event(*case)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="zero-width band: the pool ends a rounding away from the quote "
                              "and the profit guard lets a dust trade through")
    def test_zero_fee_instant_one_ms_later_adds_no_event(self):
        # one trade at 0 to the quote; at 1 ms the same quote trades a loss of 1.9e-18
        assert_one_ms_later_adds_no_event(PoolState(1.0, 1000.0, 0.0), constant_quotes(2000.0),
                                          BlockSchedule.from_blocks([0]))

    @given(case=short_replays(), scale=st.floats(1e-3, 1e3), power=st.integers(-30, 30))
    def test_reserve_scale_leaves_events_unchanged(self, case, scale, power):
        pool, quotes, schedule = case
        run = run_arb_sim(pool, quotes, schedule)

        def scaled(c):
            return run_arb_sim(PoolState(c * pool.reserve_x, c * pool.reserve_y, pool.fee),
                               quotes, schedule)

        # a loss is a difference of reserve-sized terms over the pool value, so
        # rescaling changes its rounding by a few ulps of 1, not of the loss
        other = scaled(scale)
        assert other.timestamps.tobytes() == run.timestamps.tobytes()
        assert np.all(np.abs(other.losses - run.losses) <= 8 * np.finfo(float).eps)
        # a power of two scales every operation exactly
        exact = scaled(2.0**power)
        assert exact.timestamps.tobytes() == run.timestamps.tobytes()
        assert exact.losses.tobytes() == run.losses.tobytes()
        assert exact.profits.tobytes() == (2.0**power * run.profits).tobytes()
        assert exact.multiplier == run.multiplier and exact.n_dropped == run.n_dropped


def test_zero_fee_loss_matches_lvr_formula():
    # LVR = sigma^2/8 of pool value per year (Milionis, Moallemi, Roughgarden,
    # Zhang, arXiv:2208.06046). At zero fee each 1 s step trades, and
    # -ln(1 - loss) = ln cosh(z/2) ~ z^2/8 for the step's log return z, so the
    # ratio below has mean 1 and a standard deviation of sqrt(2/n) = 0.14 %
    # over n = 10^6 steps. A scan of 40 seed groups gave a spread of 0.139 %.
    # The bound is about 5 standard deviations.
    sigma, horizon = 0.5, 200_000_000
    log_loss = 0.0
    for seed in range(5):
        prices = gbm_generate(sigma, 0.0, 1000, horizon, seed=seed, price0=2000.0)
        run = run_arb_sim(PoolState(1.0, 2000.0, 0.0), quotes_from_prices(prices),
                          BlockSchedule.fixed(1000, 0, horizon))
        assert len(run.losses) + run.n_dropped == horizon // 1000  # every step exits the band
        log_loss -= math.log(run.multiplier)
    assert log_loss / (sigma**2 / 8 * 5 * horizon / YEAR_MS) == pytest.approx(1.0, abs=0.0075)


def poisson_block_log_loss(sigma, fee, mean_block_ms, days, seed):
    """-ln(multiplier) of a replay over Poisson blocks, and its span in years.

    The GBM is drawn exactly at the block instants: no trade happens between
    blocks, so the path in between does not change the losses.
    """
    rng = np.random.default_rng(seed)
    n = int(days * DAY_MS / mean_block_ms)
    gaps = np.maximum(1, np.round(rng.exponential(mean_block_ms, n))).astype(np.int64)
    ts = np.concatenate([[0], np.cumsum(gaps)])
    dt = np.diff(ts) / YEAR_MS
    log_returns = sigma * np.sqrt(dt) * rng.standard_normal(n) - sigma**2 / 2 * dt
    prices = 2000.0 * np.exp(np.concatenate([[0.0], np.cumsum(log_returns)]))
    run = run_arb_sim(PoolState(1.0, 2000.0, fee), quotes_from_prices(PriceSeries(ts, prices)),
                      BlockSchedule.from_blocks(ts))
    return -math.log(run.multiplier), ts[-1] / YEAR_MS


@pytest.mark.parametrize("fee_bps, mean_block_s, seeds", [(5, 2, 2), (5, 12, 3), (30, 12, 24)])
def test_fee_loss_on_poisson_blocks_matches_formula(fee_bps, mean_block_s, seeds):
    # Under Poisson blocks of mean interval dt, a constant-product pool with fee
    # f loses LVR * P_trade, P_trade = 1 / (1 + sqrt(2/dt) * gamma / sigma) and
    # gamma = -ln(1 - f) (Milionis, Moallemi, Roughgarden, arXiv:2305.14604).
    # P_trade is 0.22, 0.41 and 0.10 for the three cases. Each case pools
    # 30-day paths at sigma = 0.8 so that the ratio has a standard deviation
    # of 0.3-0.4 % (a scan of 20 seed groups per case, in CHANGES.md, gave
    # ratios from 0.990 to 1.009). The bound is 5 to 7 standard deviations.
    sigma, fee, mean_block_ms = 0.8, fee_bps / 1e4, mean_block_s * 1000
    p_trade = 1 / (1 + math.sqrt(2 * YEAR_MS / mean_block_ms) * -math.log(1 - fee) / sigma)
    log_loss = years = 0.0
    for seed in range(seeds):
        loss, span = poisson_block_log_loss(sigma, fee, mean_block_ms, 30, seed)
        log_loss += loss
        years += span
    assert log_loss / (sigma**2 / 8 * p_trade * years) == pytest.approx(1.0, abs=0.02)


class TestBlocktimeSweep:
    def test_degenerate_single_interval(self):
        prices = gbm_generate(0.5, 0.0, 1000, 300_000, seed=14, price0=2000.0)
        quotes = quotes_from_prices(prices)
        state = PoolState(1.0, 2000.0, 0.001)
        sweep = blocktime_sweep(state, quotes, [5000])
        run = run_arb_sim(state, quotes, BlockSchedule.fixed(5000, 0, 300_000))
        assert sweep.total_losses[0] == run.total_relative_loss

    def test_sweep_totals_match_individual_runs(self):
        prices = gbm_generate(0.5, 0.0, 1000, 400_000, seed=15, price0=2000.0)
        quotes = quotes_from_prices(prices)
        state = PoolState(1.0, 2000.0, 0.0005)
        intervals = [1000, 4000, 16_000]
        sweep = blocktime_sweep(state, quotes, intervals)
        for interval, total in zip(intervals, sweep.total_losses):
            run = run_arb_sim(state, quotes, BlockSchedule.fixed(interval, 0, 400_000))
            assert total == run.total_relative_loss

    def test_constant_price_all_zero(self):
        quotes = constant_quotes(1000.0)
        sweep = blocktime_sweep(PoolState(1.0, 1000.0, 0.003), quotes, [1000, 10_000])
        assert np.all(sweep.total_losses == 0.0)

    def test_interval_below_resolution_rejected(self):
        quotes = constant_quotes(1000.0, step=100)
        with pytest.raises(InputError):
            blocktime_sweep(PoolState(1.0, 1000.0), quotes, [10, 100])

    def test_zero_pool_fee_scaling_is_flat(self):
        # with no fee the pool captures the path's full quadratic variation
        # regardless of the block interval, so the log-log slope is ~0 (the
        # sqrt scaling of the acceptance suite needs a positive fee)
        slopes = []
        for seed in range(3):
            prices = gbm_generate(0.5, 0.0, 1000, DAY_MS, seed=seed, price0=2000.0)
            quotes = quotes_from_prices(prices)
            sweep = blocktime_sweep(PoolState(1.0, 2000.0, 0.0), quotes,
                                    [1000, 4000, 16_000])
            slope, _ = loglog_slope(sweep)
            slopes.append(slope)
        assert abs(float(np.mean(slopes))) < 0.05


class TestFeeSweep:
    def test_zero_fee_is_maximal(self):
        prices = gbm_generate(0.5, 0.0, 1000, 300_000, seed=16, price0=2000.0)
        quotes = quotes_from_prices(prices)
        sweep = fee_sweep(1.0, 2000.0, quotes, 2000, [0.0, 0.003, 0.01])
        assert sweep.total_losses[0] == np.max(sweep.total_losses)

    def test_huge_fee_no_trades(self):
        prices = gbm_generate(0.2, 0.0, 1000, 300_000, seed=17, price0=2000.0)
        quotes = quotes_from_prices(prices)
        sweep = fee_sweep(1.0, 2000.0, quotes, 2000, [0.5])
        assert sweep.total_losses[0] == 0.0
        assert sweep.n_events[0] == 0

    def test_rejects_fee_of_one(self):
        quotes = constant_quotes(1.0)
        with pytest.raises(InputError):
            fee_sweep(1.0, 1.0, quotes, 1000, [0.003, 1.0])

    def test_matches_individual_runs(self):
        prices = gbm_generate(0.5, 0.0, 1000, 300_000, seed=18, price0=2000.0)
        quotes = quotes_from_prices(prices)
        sweep = fee_sweep(1.0, 2000.0, quotes, 2000, [0.001, 0.005])
        for fee, total in zip([0.001, 0.005], sweep.total_losses):
            run = run_arb_sim(PoolState(1.0, 2000.0, fee), quotes,
                              BlockSchedule.fixed(2000, 0, 300_000))
            assert total == run.total_relative_loss


class TestGbmGenerate:
    def test_deterministic_bit_identical(self):
        a = gbm_generate(0.5, 0.1, 100, 100_000, seed=42)
        b = gbm_generate(0.5, 0.1, 100, 100_000, seed=42)
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.timestamps, b.timestamps)

    def test_different_seeds_differ(self):
        a = gbm_generate(0.5, 0.0, 100, 100_000, seed=1)
        b = gbm_generate(0.5, 0.0, 100, 100_000, seed=2)
        assert not np.array_equal(a.prices, b.prices)

    def test_zero_sigma_zero_mu_constant(self):
        series = gbm_generate(0.0, 0.0, 1000, 50_000, seed=0, price0=123.0)
        assert np.all(series.prices == 123.0)

    def test_log_return_variance(self):
        # sample variance of log returns over 1e6 steps within 2% of sigma^2 dt
        sigma, step = 0.5, 1000
        series = gbm_generate(sigma, 0.0, step, 10**9, seed=7)
        log_returns = np.diff(np.log(series.prices))
        dt = step / (365 * 86400 * 1000)
        assert np.var(log_returns) == pytest.approx(sigma * sigma * dt, rel=0.02)

    def test_grid_and_start(self):
        series = gbm_generate(0.1, 0.0, 500, 2000, seed=3, start_ms=10_000)
        assert series.timestamps.tolist() == [10_000, 10_500, 11_000, 11_500, 12_000]

    def test_rejects_bad_parameters(self):
        with pytest.raises(InputError):
            gbm_generate(-0.1, 0.0, 100, 1000, seed=0)
        with pytest.raises(InputError):
            gbm_generate(0.1, 0.0, 0, 1000, seed=0)
        with pytest.raises(InputError):
            gbm_generate(0.1, 0.0, 300, 1000, seed=0)  # horizon not a multiple


class TestLoglogSlope:
    def test_constructed_power_law(self):
        values = np.array([100.0, 1000.0, 10_000.0, 100_000.0])
        sweep = SweepResult(
            parameter="interval_ms", values=values,
            total_losses=3.7e-6 * values**0.5,
            annualized_losses=np.zeros(4), n_events=np.ones(4, dtype=np.int64),
            window_ms=1,
        )
        slope, residual = loglog_slope(sweep)
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_constant_losses_zero_slope(self):
        values = np.array([1.0, 2.0, 4.0, 8.0])
        sweep = SweepResult(
            parameter="interval_ms", values=values,
            total_losses=np.full(4, 2e-4),
            annualized_losses=np.zeros(4), n_events=np.ones(4, dtype=np.int64),
            window_ms=1,
        )
        slope, _ = loglog_slope(sweep)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_fit_range_restricts_points(self):
        values = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        losses = np.array([1.0, 2.0, 4.0, 8.0, 100.0])
        sweep = SweepResult(
            parameter="interval_ms", values=values, total_losses=losses,
            annualized_losses=np.zeros(5), n_events=np.ones(5, dtype=np.int64),
            window_ms=1,
        )
        slope, _ = loglog_slope(sweep, (1.0, 8.0))
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_errors(self):
        sweep = SweepResult(
            parameter="interval_ms", values=np.array([1.0, 2.0]),
            total_losses=np.array([1e-4, 2e-4]),
            annualized_losses=np.zeros(2), n_events=np.ones(2, dtype=np.int64),
            window_ms=1,
        )
        with pytest.raises(FitError):
            loglog_slope(sweep)
        zero = SweepResult(
            parameter="interval_ms", values=np.array([1.0, 2.0, 4.0]),
            total_losses=np.array([0.0, 1e-4, 2e-4]),
            annualized_losses=np.zeros(3), n_events=np.ones(3, dtype=np.int64),
            window_ms=1,
        )
        with pytest.raises(FitError):
            loglog_slope(zero)


class TestFeesVsLosses:
    def ledger(self, timestamps, returns):
        return accumulate(PositionLedger(1.0), returns, timestamps)

    def test_fees_equal_losses(self):
        ts = [0, DAY_MS, 2 * DAY_MS]
        values = [1e-4, 2e-4, 3e-4]
        report = fees_vs_losses(self.ledger(ts, values), loss_series(ts, values))
        assert np.allclose(report.cumulative_difference, 0.0, atol=1e-18)
        assert np.allclose(report.trailing_ratio, 1.0, rtol=1e-12)

    def test_zero_fees(self):
        ts = [0, DAY_MS]
        losses = [1e-4, 2e-4]
        report = fees_vs_losses(self.ledger([], []), loss_series(ts, losses))
        assert np.allclose(report.cumulative_difference, -np.cumsum(losses), rtol=1e-12)

    def test_constant_ratio(self):
        ts = list(range(0, 10 * DAY_MS, DAY_MS))
        losses = [2e-4] * 10
        fees = [0.8 * 2e-4] * 10
        report = fees_vs_losses(self.ledger(ts, fees), loss_series(ts, losses))
        assert np.allclose(report.trailing_ratio, 0.8, rtol=1e-12)

    def test_ratio_absent_when_no_trailing_losses(self):
        report = fees_vs_losses(
            self.ledger([40 * DAY_MS], [1e-4]),
            loss_series([0], [2e-4]),
            window_ms=30 * DAY_MS,
        )
        assert math.isnan(report.trailing_ratio[-1])
        assert not math.isnan(report.trailing_ratio[0])

    def test_empty_timeline_takes_the_general_path(self):
        ts, values = [0, DAY_MS], [1e-4, 2e-4]
        full = fees_vs_losses(self.ledger(ts, values), loss_series(ts, values))
        empty = fees_vs_losses(self.ledger([], []), loss_series([], []))
        assert empty.totals.keys() == full.totals.keys()
        assert empty.totals == dict.fromkeys(full.totals, 0.0)
        assert len(empty.timestamps) == 0 and empty.timestamps.dtype == np.int64

    def test_difference_is_running_sum(self):
        rng = np.random.default_rng(8)
        fee_ts = np.sort(rng.choice(np.arange(0, 100 * DAY_MS, DAY_MS // 7), 40, replace=False))
        loss_ts = np.sort(rng.choice(np.arange(0, 100 * DAY_MS, DAY_MS // 5), 60, replace=False))
        fees = rng.uniform(0, 1e-4, 40)
        losses = rng.uniform(0, 1e-4, 60)
        report = fees_vs_losses(self.ledger(fee_ts, fees), loss_series(loss_ts, losses))
        recomputed = np.cumsum(report.fee_returns - report.loss_returns)
        assert np.allclose(report.cumulative_difference, recomputed, rtol=1e-9)
        assert report.cumulative_difference[-1] == pytest.approx(
            float(np.sum(fees) - np.sum(losses)), rel=1e-9
        )
