import functools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_feeds import _swaps, write

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
    attribute_fees,
    concentration_scale,
    blocktime_sweep,
    fee_sweep,
    fees_vs_losses,
    fixed_schedule,
    gbm_generate,
    load_swap_records,
    loglog_slope,
    no_arb_band,
    optimal_arb_trade,
    quotes_from_prices,
    run_arb_sim,
)
import lvrsim.simulation as simulation
from lvrsim.feeds import load_quote_updates
from lvrsim.simulation import DAY_MS, DEFAULT_INTERVALS_MS, YEAR_MS, _SCALAR_SCAN


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
    return LossSeries(
        timestamps=np.asarray(timestamps, np.int64),
        losses=losses,
        profits=losses.copy(),
        n_instants=len(losses),
        final_state=PoolState(1.0, 1.0),
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

    def test_only_fixed_sets_the_interval(self):
        # the replay reads a strided view of the quotes on the strength of interval_ms
        with pytest.raises(TypeError):
            BlockSchedule(np.array([0, 1000, 2000]), 1000)
        assert BlockSchedule.from_blocks([0, 1000, 2000]).interval_ms is None
        assert BlockSchedule.fixed(1000, 0, 2000).interval_ms == 1000

    def test_rejects_unsorted(self):
        with pytest.raises(InputError):
            BlockSchedule.from_blocks([2, 1])

    @pytest.mark.parametrize("interval, start, end, count", [
        (2**62, -(2**63) + 5, 5, 3),  # np.arange, sizing in floats, gives 2 instants
        (2**61 + 3, -(2**63) + 5, -(2**63) + 5 + 3 * (2**61 + 3), 4),
        (2**64 + 7, -(2**63), 2**63 - 1, 1),  # an interval past the span holds the start
        (1, 2**63 - 1, 2**63 - 1, 1),
    ])
    def test_grid_over_the_int64_range_keeps_every_instant(self, interval, start, end, count):
        grid = BlockSchedule.fixed(interval, start, end).timestamps
        assert grid.tolist() == [start + k * interval for k in range(count)]

    @pytest.mark.parametrize("interval, start, end", [
        (2**50 + 3, -(2**62), 2**62),  # a span past 2**53: 8192 instants
        (2**52 + 1, 0, 2**55 + 5),
        (7, -(2**63), -(2**63) + 100),  # near the int64 minimum
        (7, 2**63 - 101, 2**63 - 1),  # and the maximum
        (2**62, -(2**63) + 5, 5),
        (1000, 5, 999),  # an interval longer than the span holds the start
        (2**64 + 7, -(2**63), 2**63 - 1),
    ])
    def test_instants_are_the_grid_array_built_before(self, interval, start, end):
        # the array BlockSchedule.fixed held before it held start, interval and count alone
        span = end - start
        held = np.arange(span // interval + 1, dtype=np.uint64)
        held *= np.uint64(min(interval, span or 1))
        held += np.uint64(start % 2**64)
        schedule = BlockSchedule.fixed(interval, start, end)
        assert schedule.timestamps.dtype == np.int64
        assert schedule.timestamps.tobytes() == held.view(np.int64).tobytes()
        assert schedule.n_instants == len(held)
        assert [schedule.first_ms, schedule.last_ms] == held.view(np.int64)[[0, -1]].tolist()
        assert schedule.timestamps is not schedule.timestamps  # built on each read, not held

    def test_grid_ending_within_one_interval_of_the_int64_maximum(self):
        interval, start = 1000, 2**63 - 1 - 10_999
        schedule = BlockSchedule.fixed(interval, start, 2**63 - 1)
        assert schedule.n_instants == 11
        assert schedule.span_ms == 10_000 and schedule.last_ms == 2**63 - 1000
        # zero fee, a higher price every 500 ms: every instant of the grid but the first trades
        stamps = start + 500 * np.arange(22, dtype=np.int64)
        prices = 2000.0 * 1.01 ** np.arange(22)
        run = run_arb_sim(PoolState(1.0, 2000.0, 0.0), QuoteSeries(stamps, prices, prices),
                          schedule)
        assert run.timestamps.dtype == np.int64
        assert run.timestamps.tolist() == [start + k * interval for k in range(1, 11)]
        assert run.n_instants == 11 and run.window_ms == 10_000


class TestCoverage:
    """One rule where a schedule meets the quotes: an update at or before its first
    instant, and quotes reaching its last, with one message for either end."""

    QUOTES = constant_quotes(2000.0, start=10_000, end=50_000)

    @pytest.mark.parametrize("schedule, needs", [
        (BlockSchedule.fixed(1000, 0, 50_000), "[0, 50000]"),
        (BlockSchedule.fixed(1000, 10_000, 60_000), "[10000, 60000]"),
        (BlockSchedule.from_blocks([9_999, 20_000]), "[9999, 20000]"),
        (BlockSchedule.from_blocks([10_000, 50_001]), "[10000, 50001]"),
    ], ids=["fixed-starts-before", "fixed-ends-after", "blocks-start-before",
            "blocks-end-after"])
    def test_either_end_outside_gets_one_message(self, schedule, needs):
        with pytest.raises(InsufficientDataError) as exc:
            run_arb_sim(PoolState(1.0, 2000.0), self.QUOTES, schedule)
        assert str(exc.value) == f"quotes cover [10000, 50000] but the schedule needs {needs}"

    def test_no_quotes_cover_nothing(self):
        empty = QuoteSeries(np.array([], dtype=np.int64), [], [])
        with pytest.raises(InsufficientDataError, match=re.escape("quotes cover [] but")):
            run_arb_sim(PoolState(1.0, 2000.0), empty, BlockSchedule.fixed(1000, 0, 5000))
        with pytest.raises(InsufficientDataError, match=re.escape("quotes cover [] but")):
            fixed_schedule(empty, 1000, (0, 10**18))
        with pytest.raises(InsufficientDataError, match=re.escape("quotes cover [] but")):
            fixed_schedule(empty, 1000)  # no span to default the window to

    @pytest.mark.parametrize("call", [
        lambda quotes, window: blocktime_sweep(PoolState(1.0, 2000.0), quotes, [1000, 4000],
                                               window=window),
        lambda quotes, window: fee_sweep(1.0, 2000.0, quotes, 1000, [0.001, 0.003],
                                         window=window),
        lambda quotes, window: fixed_schedule(quotes, 1000, window),
    ], ids=["blocktime_sweep", "fee_sweep", "fixed_schedule"])
    def test_window_far_past_the_quotes_allocates_no_grid(self, call):
        # a 1000 ms grid over this window would hold 10**15 instants
        tracemalloc.start()
        try:
            with pytest.raises(InsufficientDataError, match=re.escape(
                    "quotes cover [10000, 50000] but the schedule needs "
                    "[10000, 1000000000000000000]")):
                call(self.QUOTES, (10_000, 10**18))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_fixed_schedule_defaults_to_the_quote_span(self):
        schedule = fixed_schedule(self.QUOTES, 4000)
        assert schedule.timestamps.tolist() == list(range(10_000, 50_001, 4000))
        assert schedule.interval_ms == 4000

    @pytest.mark.parametrize("window, needs", [
        ((10_000, 53_999), None),  # the grid's last instant is 50000
        ((10_000, 54_000), "[10000, 54000]"),
        ((9_000, 40_000), "[9000, 37000]"),
    ])
    def test_fixed_schedule_checks_the_grid_not_the_window(self, window, needs):
        if needs is None:
            assert fixed_schedule(self.QUOTES, 4000, window).timestamps[-1] == 50_000
            return
        with pytest.raises(InsufficientDataError) as exc:
            fixed_schedule(self.QUOTES, 4000, window)
        assert str(exc.value) == f"quotes cover [10000, 50000] but the schedule needs {needs}"

    @pytest.mark.parametrize("interval, window, message", [
        (0, None, "interval must be positive"),
        (-1000, (10_000, 10**18), "interval must be positive"),
        (1000, (50_000, 10_000), "window end 10000 before start 50000"),
    ])
    def test_fixed_schedule_leaves_bad_arguments_to_block_schedule(self, interval, window,
                                                                   message):
        with pytest.raises(InputError, match=message):
            fixed_schedule(self.QUOTES, interval, window)

    def test_sweep_checks_every_grid_before_the_first_replay(self, monkeypatch):
        # the 1000 ms grid ends at 50000, inside the quotes; the 20300 ms one at 50600
        replays = []
        replay = simulation.run_arb_sim
        monkeypatch.setattr(simulation, "run_arb_sim",
                            lambda *args: replays.append(args) or replay(*args))
        with pytest.raises(InsufficientDataError, match=re.escape("needs [10000, 50600]")):
            blocktime_sweep(PoolState(1.0, 2000.0), self.QUOTES, [1000, 20_300],
                            window=(10_000, 50_600))
        assert replays == []

    @pytest.mark.parametrize("call", [
        lambda quotes, interval, window: fixed_schedule(quotes, interval, window),
        lambda quotes, interval, window: blocktime_sweep(PoolState(1.0, 2000.0), quotes,
                                                         [interval], window),
        lambda quotes, interval, window: fee_sweep(1.0, 2000.0, quotes, interval, [0.003],
                                                   window),
    ], ids=["fixed_schedule", "blocktime_sweep", "fee_sweep"])
    def test_grid_of_more_than_max_steps_instants_is_rejected_before_any_replay(
            self, monkeypatch, call):
        replays = []
        replay = simulation.run_arb_sim
        monkeypatch.setattr(simulation, "run_arb_sim",
                            lambda *args: replays.append(args) or replay(*args))
        monkeypatch.setattr(simulation, "MAX_STEPS", 11)
        call(self.QUOTES, 4000, None)  # 11 instants, the last at 50000
        accepted = len(replays)
        with pytest.raises(InputError) as exc:
            call(self.QUOTES, 3636, None)  # 12 instants, the last at 49996
        assert str(exc.value) == ("interval 3636 over the window 10000:50000 is 12 instants; "
                                  "at most 11 are replayed")
        assert len(replays) == accepted

@st.composite
def visit_cases(draw):
    """(stamps, instants, interval): uniform, even-ended or irregular stamps, and instants.

    The instants are mostly a grid, whose spacing may or may not be a multiple
    of the stamps' step; it may start off the stamps, never before the first,
    and it may hold a single instant. Mostly they end at or before the last
    stamp (the quotes cover them), else they may reach past it. interval is the
    grid's spacing where the schedule is made by BlockSchedule.fixed, and None
    where the same grid, or irregular instants, come as blocks. A quarter of
    the cases are stretched over the int64 range, so that the span of the
    stamps may be wider than int64 holds.
    """
    step = draw(st.integers(1, 5))
    n = draw(st.integers(1, 25))
    gaps = [step] * (n - 1)
    kind = draw(st.sampled_from(["uniform", "even-ends", "irregular"]))
    if kind == "even-ends" and n > 2 and step > 1:  # like 0, 2, 3, 6: the ends fit a grid
        i, j = draw(st.lists(st.integers(0, n - 2), min_size=2, max_size=2, unique=True))
        shift = draw(st.integers(1, step - 1))
        gaps[i], gaps[j] = step - shift, step + shift
    elif kind == "irregular":
        gaps = draw(st.lists(st.integers(1, 3 * step), min_size=n - 1, max_size=n - 1))
    stamps = draw(st.integers(-50, 50)) + np.cumsum([0, *gaps], dtype=np.int64)
    start = draw(st.integers(int(stamps[0]), int(stamps[-1])))
    interval = None
    if draw(st.integers(0, 4)):
        interval = draw(st.integers(1, 4)) * step if draw(st.booleans()) \
            else draw(st.integers(1, 4 * step))
        instants = start + interval * np.arange(draw(st.integers(1, 15)), dtype=np.int64)
        if not draw(st.integers(0, 3)):
            interval = None
    else:
        later = draw(st.sets(st.integers(start + 1, start + 60), max_size=14))
        instants = np.array(sorted({start, *later}), np.int64)
    if draw(st.integers(0, 4)):
        instants = instants[instants <= stamps[-1]]  # still holds the start
    if not draw(st.integers(0, 3)):  # t -> -2**63 + scale * (t - lo) keeps every relation
        lo, hi = int(stamps[0]), max(int(stamps[-1]), int(instants[-1]))
        scale = (2**64 - 1) // max(hi - lo, 1)

        def stretch(values):
            return np.array([-(2**63) + scale * (v - lo) for v in values.tolist()], np.int64)

        stamps, instants = stretch(stamps), stretch(instants)
        interval = None if interval is None else scale * interval
    return stamps, instants, interval


def visits(quotes, schedule):
    """(instants, quote indices) of the visits of every block _visits yields, joined.

    Block b holds schedule positions b * _CHUNK up to the next block's; its
    positions are their range where it visits them all, else the increasing
    int64 positions it visits.
    """
    instants, picked, everyone, size = [], [], np.arange(len(quotes)), simulation._CHUNK
    blocks = list(simulation._visits(quotes, schedule))
    assert len(blocks) == -(-schedule.n_instants // size)
    for b, (positions, selector) in enumerate(blocks):
        lo, hi = b * size, min(b * size + size, schedule.n_instants)
        if isinstance(positions, np.ndarray):
            assert positions.dtype == np.int64 and np.all(positions[1:] > positions[:-1])
            assert np.all((lo <= positions) & (positions < hi))
        else:
            assert positions == range(lo, hi)
        instants.append(schedule.timestamps[np.asarray(positions, dtype=np.int64)])
        picked.append(everyone[selector])
        assert len(instants[-1]) == len(picked[-1])
    return np.concatenate(instants), np.concatenate(picked)


BLOCK_SIZES = (1, 2, 3, 7)  # instants a block of _visits holds, besides _CHUNK's


class TestVisits:
    """simulation._visits, the replay's one visit rule: the first instant of each run on the
    same quote, whose quote a slice selects on uniform fixed grids, else an index array;
    yielded a block of at most _CHUNK instants at a time."""

    @staticmethod
    def schedule(instants, interval):
        if interval is None:
            return BlockSchedule.from_blocks(instants)
        return BlockSchedule.fixed(interval, int(instants[0]), int(instants[-1]))

    @given(case=visit_cases())
    @settings(max_examples=500)  # enough to find the 0, 2, 3, 6 trap without its example
    @example(case=(np.array([0, 2, 3, 6], np.int64), np.array([1, 3, 5], np.int64), 2))
    @example(case=(np.array([0, 2, 3, 6], np.int64), np.arange(0, 9, 1, dtype=np.int64), 1))
    @example(case=(np.array([0, 10, 20], np.int64), np.array([29], np.int64), 10))
    @example(case=(np.array([0, 10, 20], np.int64), np.array([5, 25], np.int64), 20))
    @example(case=(np.array([0, 10, 20], np.int64), np.array([10, 30], np.int64), 20))
    @example(case=(np.array([0, 2, 3, 6], np.int64), np.arange(0, 7, 1, dtype=np.int64), 1))
    @example(case=(np.array([0, 10, 20, 30], np.int64), np.array([29], np.int64), 10))
    @example(case=(np.array([0, 10, 20], np.int64), np.array([0, 10, 20], np.int64), None))
    @example(case=(-(2**63) + 3 * 2**61 * np.arange(3, dtype=np.int64),  # a span past int64
                   -(2**63) + 2**62 * np.arange(3, dtype=np.int64), 2**62))
    @example(case=(-(2**63) + 3 * 2**61 * np.arange(3, dtype=np.int64),
                   np.array([-(2**63) + 2**62, 2**62 - 1], np.int64), None))
    def test_matches_the_per_instant_loop_bit_for_bit(self, case):
        """Bit for bit against a plain loop, at every block size; a schedule the quotes do
        not cover is rejected."""
        stamps, instants, interval = case
        prices = np.arange(1.0, len(stamps) + 1.0)
        quotes = QuoteSeries(stamps, prices, prices)
        schedule = self.schedule(instants, interval)
        if instants[-1] > stamps[-1]:
            with pytest.raises(InsufficientDataError):
                next(simulation._visits(quotes, schedule))
            return
        ts, kept, previous = stamps.tolist(), [], None
        for t in instants.tolist():
            i = max(i for i, s in enumerate(ts) if s <= t)  # the last stamp at or before t
            if i != previous:
                kept.append((t, i))
            previous = i
        for size in (*BLOCK_SIZES, simulation._CHUNK):
            with mock.patch.object(simulation, "_CHUNK", size):
                visited, picked = visits(quotes, schedule)
            assert visited.dtype == np.int64
            assert visited.tobytes() == np.array([t for t, _ in kept], np.int64).tobytes()
            assert picked.tobytes() == np.array([i for _, i in kept], picked.dtype).tobytes()

    def test_uniform_fixed_grid_gives_a_strided_view(self):
        prices = np.arange(1.0, 11.0)
        series = QuoteSeries(np.arange(1000, 2000, 100), prices, prices)
        schedule = BlockSchedule.fixed(200, 1150, 1750)
        [(positions, selector)] = simulation._visits(series, schedule)
        assert positions == range(4) and selector == slice(1, 8, 2)
        view = series.bids[selector]
        assert view.base is series.bids and view.tolist() == [2.0, 4.0, 6.0, 8.0]
        with mock.patch.object(simulation, "_CHUNK", 3):  # blocks of views, still no copy
            blocks = list(simulation._visits(series, schedule))
        assert blocks == [(range(3), slice(1, 6, 2)), (range(3, 4), slice(7, 8, 2))]
        assert all(series.bids[selector].base is series.bids for _, selector in blocks)

    @pytest.mark.parametrize("stamps, instants, interval", [
        ([0, 2, 3, 6], [0, 2, 4, 6], 2),  # the first gap spans the endpoints: uneven all the same
        ([0, 10, 20, 30], [0, 15, 30], 15),  # spacing not a multiple of the step
        ([0, 10, 20, 30], [0, 10, 25], None),  # instants not a grid
        ([0, 10, 20], [0, 10, 20], None),  # evenly spaced blocks: no schedule says grid
    ])
    def test_otherwise_gives_the_index_array(self, stamps, instants, interval):
        prices = np.ones(len(stamps))
        quotes = QuoteSeries(np.array(stamps, np.int64), prices, prices)
        schedule = self.schedule(np.array(instants), interval)
        for size in (2, simulation._CHUNK):
            with mock.patch.object(simulation, "_CHUNK", size):
                selectors = [selector for _, selector in simulation._visits(quotes, schedule)]
            assert selectors and all(isinstance(s, np.ndarray) for s in selectors)

    @pytest.mark.parametrize("instants, interval, picked", [
        ([0, 15, 30], 15, [0, 1, 3]),  # a grid not a multiple of the step
        ([0, 4, 8, 12], 4, [0, 1]),  # a grid below the step: repeats are not visited
        ([0, 5, 10, 25, 29], None, [0, 1, 2]),  # blocks
    ])
    def test_uniform_stamps_are_indexed_without_a_search(self, instants, interval, picked):
        prices = np.arange(1.0, 5.0)
        quotes = QuoteSeries(np.array([0, 10, 20, 30], np.int64), prices, prices)
        with mock.patch.object(simulation, "_locf_index", side_effect=AssertionError("searched")):
            _, selector = visits(quotes, self.schedule(np.array(instants), interval))
        assert selector.tolist() == picked


class TestRunArbSim:
    def test_constant_quote_no_trades(self):
        quotes = constant_quotes(2000.0)
        initial = PoolState(1.0, 2000.0, 0.003)
        run = run_arb_sim(initial, quotes, BlockSchedule.fixed(1000, 0, 100_000))
        assert len(run.losses) == 0
        assert run.total_relative_loss == 0.0
        assert run.final_state == initial

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

        # an instant whose quote is the previous instant's is skipped, so the
        # guard counts each quote once; n_instants counts the whole schedule
        repeats = run_arb_sim(state, quotes, BlockSchedule.from_blocks([0, 1, 2, 1000, 1001]))
        assert repeats.n_dropped == 2 and repeats.n_instants == 5

    @pytest.mark.parametrize("state, price", [
        (PoolState(1.0, 1e200, 0.003), 1.1e200), (PoolState(1e200, 1.0, 0.003), 0.9e-200),
    ], ids=["bid", "ask"])
    def test_overflowing_trade_raises_in_kernel_and_oracle(self, state, price):
        # the pool is valid; only sqrt((1-f)*k*bid), or sqrt((1-f)*k/ask), overflows
        prices = [state.reserve_y / state.reserve_x, price]
        quotes = QuoteSeries([0, 1000], prices, prices)
        with pytest.raises(InputError, match="overflows against reserves") as kernel:
            run_arb_sim(state, quotes, BlockSchedule.fixed(1000, 0, 1000))
        with pytest.raises(InputError, match="overflows against reserves") as oracle:
            optimal_arb_trade(state, quotes[1])
        assert str(kernel.value) == str(oracle.value)

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

    def test_scaled_holds_the_copy_and_no_mask(self):
        # 8 B a loss for the scaled copy; a 1 B range mask beside it takes the peak past 8.5
        n = 10**6
        run = loss_series(np.arange(n, dtype=np.int64), np.full(n, 1e-4))
        tracemalloc.start()
        try:
            scaled = run.scaled(2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.5 * n
        assert scaled.losses.max() == 2e-4
        assert len(loss_series([], []).scaled(2.0).losses) == 0


REPLAY_HORIZON_MS = 6 * 3600 * 1000


@functools.cache
def replay_quotes() -> QuoteSeries:
    """6 h of 100 ms GBM quotes."""
    return quotes_from_prices(gbm_generate(0.5, 0.0, 100, REPLAY_HORIZON_MS, seed=5,
                                           price0=2000.0))


def traced_peak(call):
    """(call's result, the traced peak of the allocations it made), from its second call.

    The first call, untraced, warms the replay up: traced cold, the same zero-fee replay
    took 8-10 s where it takes 2-3 s warm.
    """
    call()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@functools.cache
def replay_peak(fee: float, interval: int = 100) -> tuple[int, int, int]:
    """(instants, events, traced peak) of one replay of replay_quotes() on a fixed grid,
    whose quotes are made before the trace starts."""
    quotes, schedule = replay_quotes(), BlockSchedule.fixed(interval, 0, REPLAY_HORIZON_MS)
    run, peak = traced_peak(lambda: run_arb_sim(PoolState(1.0, 2000.0, fee), quotes, schedule))
    return run.n_instants, len(run.losses), peak


class TestReplayMemory:
    """Traced peak of one replay of 6 h of 100 ms quotes on a fixed grid.

    The grid is held as its start, interval and count, and the replay holds one
    block of _CHUNK instants at a time: on a grid that is a multiple of the
    quotes' step it reads them through strided views, elsewhere it gathers the
    block's quotes. The events go to 24-byte-an-event buffers, not lists of
    boxed numbers. At zero fee each new quote trades: every instant of the
    100 ms and 250 ms grids, every other instant of the 50 ms one.
    """

    @pytest.mark.parametrize("fee, interval, bound", [
        (0.0, 100, 28), (0.003, 100, 2), (0.0, 250, 36), (0.0, 50, 18),
    ], ids=["zero-fee", "30bp", "zero-fee-250ms", "zero-fee-50ms"])
    def test_peak_bytes_per_instant(self, fee, interval, bound):
        instants, events, peak = replay_peak(fee, interval)
        if fee == 0.0:  # every new quote trades
            assert events > 0.99 * min(instants, REPLAY_HORIZON_MS // 100)
        assert peak / instants <= bound


class TestSweepMemory:
    """A sweep releases each replay before the next, so that its traced peak is that of its
    largest replay: here the zero-fee one on the 100 ms grid, where every instant trades.

    The fee sweep's second fee is low enough that its replay trades at most instants too,
    so that holding the first replay's events beside it would show.
    """

    @pytest.mark.parametrize("sweep", [
        lambda quotes: blocktime_sweep(PoolState(1.0, 2000.0, 0.0), quotes),
        lambda quotes: fee_sweep(1.0, 2000.0, quotes, 100, [0.0, 1e-5]),
    ], ids=["blocktime", "fee"])
    def test_peak_is_the_largest_replay(self, sweep):
        instants, _, replay = replay_peak(0.0)
        quotes = replay_quotes()
        result, peak = traced_peak(lambda: sweep(quotes))
        assert result.n_events[0] > 0.99 * instants
        assert peak <= 1.02 * replay


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
    for fold in (1, 2, 3, 7):  # the product carried across chunks of the fold
        with mock.patch.object(simulation, "_FOLD", fold):
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


def dataclass_replay(pool, quotes, schedule):
    """The replay instant by instant with the dataclass API, as run_arb_sim replays.

    An instant whose quote is the previous instant's is skipped. Returns the
    LossSeries fields it checks, and the set of trade directions.
    """
    state, previous = pool, -1
    stamps, losses, profits, directions = [], [], [], set()
    multiplier, dropped = 1.0, 0
    position = np.searchsorted(quotes.timestamps, schedule.timestamps, side="right") - 1
    for t, i in zip(schedule.timestamps.tolist(), position.tolist()):
        if i == previous:
            continue
        previous = i
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
    return stamps, losses, profits, multiplier, state, dropped, directions


class TestReplayKernel:
    """run_arb_sim on plain floats against a per-instant dataclass replay."""

    @staticmethod
    def assert_bit_identical(pool, quotes, schedule, run=None):
        """Returns the run and the directions the dataclass replay traded in.

        run is run_arb_sim's replay of the schedule; it is made here unless given.
        """
        stamps, losses, profits, multiplier, state, dropped, directions = dataclass_replay(
            pool, quotes, schedule)
        if run is None:
            run = run_arb_sim(pool, quotes, schedule)
        assert run.timestamps.dtype == np.int64
        assert run.timestamps.tobytes() == np.array(stamps, dtype=np.int64).tobytes()
        assert run.losses.tobytes() == np.array(losses, dtype=float).tobytes()
        assert run.profits.tobytes() == np.array(profits, dtype=float).tobytes()
        assert run.multiplier == multiplier
        assert run.final_state == state
        assert run.n_instants == len(schedule.timestamps)
        assert run.n_dropped == dropped
        return run, directions

    @given(case=replay_cases())
    def test_bit_identical_to_dataclass_replay(self, case):
        _, directions = self.assert_bit_identical(*case)
        assert directions == set(Direction)

    @given(case=replay_cases(), offsets=st.sets(st.integers(1, 999), min_size=1, max_size=3))
    def test_repeated_quotes_skipped_as_in_dataclass_replay(self, case, offsets):
        pool, quotes, schedule = case
        grid = schedule.timestamps
        # instants after each grid instant but the last, within its 1 s quote:
        # the schedule repeats quotes and takes the LOCF index array path
        later = (grid[:-1, None] + np.array(sorted(offsets), dtype=np.int64)).ravel()
        dense = BlockSchedule.from_blocks(np.sort(np.concatenate([grid, later])))
        run, _ = self.assert_bit_identical(pool, quotes, dense)
        on_grid = run_arb_sim(pool, quotes, schedule)
        assert run.timestamps.tobytes() == on_grid.timestamps.tobytes()
        assert run.losses.tobytes() == on_grid.losses.tobytes()
        assert run.n_dropped == on_grid.n_dropped

    def test_dense_zero_fee_sweep_points_match_dataclass_replay(self, tmp_path, monkeypatch):
        """Each point of a zero-fee sweep over 10 min of 100 ms quotes with a 1 bp spread.

        Three rows are preceded by a same-millisecond update, which the loader
        drops. Intervals that are multiples of 100 ms read strided views of the
        quotes; 250 ms takes the LOCF index array path.
        """
        mid = gbm_generate(0.7, 0.0, 100, 600_000, seed=3, price0=2000.0)
        ts, half = mid.timestamps, mid.prices * 0.5e-4
        bids, asks = mid.prices - half, mid.prices + half
        rows = ["timestamp_ms,bid,ask"]
        for i, (t, bid, ask) in enumerate(zip(ts.tolist(), bids.tolist(), asks.tolist())):
            if i in (7, 1000, 4321):  # overwritten within its millisecond
                rows.append(f"{t},{bid * 1.0001!r},{ask * 1.0001!r}")
            rows.append(f"{t},{bid!r},{ask!r}")
        path = tmp_path / "quotes.csv"
        path.write_text("\n".join(rows) + "\n")
        quotes = load_quote_updates(str(path))
        assert quotes.timestamps.tobytes() == ts.tobytes()
        assert quotes.bids.tobytes() == bids.tobytes() and quotes.asks.tobytes() == asks.tobytes()

        runs = []

        def recorded(*args):
            runs.append((args, run_arb_sim(*args)))
            return runs[-1][1]

        monkeypatch.setattr(simulation, "run_arb_sim", recorded)
        pool = PoolState(1.0, 2000.0, 0.0)
        sweep = blocktime_sweep(pool, quotes)
        assert [s.interval_ms for (_, _, s), _ in runs] == list(DEFAULT_INTERVALS_MS)
        for (state, replayed, schedule), run in runs:
            strided = isinstance(next(simulation._visits(replayed, schedule))[1], slice)
            assert strided == (schedule.interval_ms != 250)
            self.assert_bit_identical(state, replayed, schedule, run)
        assert sweep.total_losses.tolist() == [run.total_relative_loss for _, run in runs]
        assert sweep.n_events.tolist() == [len(run.losses) for _, run in runs]
        assert len(runs[0][1].losses) > 0.3 * len(ts)  # dense: a third of 100 ms instants trade

    @pytest.mark.parametrize("doublings", [10, 11], ids=["reaches-the-cap", "held-at-the-cap"])
    def test_exit_on_the_first_element_of_a_capped_chunk(self, doublings):
        """A quiet stretch long enough for the chunk scan to reach its cap of 1 << 16.

        After _SCALAR_SCAN instants the replay scans chunks of 64, 128, ...,
        1 << 16 (the 11th), then 1 << 16 again. The one band exit is the first
        instant of the 11th or the 12th chunk.
        """
        exit_at = _SCALAR_SCAN + 64 * (2**doublings - 1)
        n = exit_at + 100
        ts = np.arange(n, dtype=np.int64) * 1000
        bids, asks = np.full(n, 1900.0), np.full(n, 2100.0)
        bids[exit_at:], asks[exit_at:] = 2100.0, 2110.0
        pool = PoolState(1.0, 2000.0, 0.003)
        quotes = QuoteSeries(ts, bids, asks)
        lower, upper = no_arb_band(pool)
        first = int(np.flatnonzero((bids > upper) | (asks < lower))[0])
        assert first == exit_at
        run = run_arb_sim(pool, quotes, BlockSchedule.fixed(1000, 0, int(ts[-1])))
        assert run.timestamps[0] == ts[first]
        trade = optimal_arb_trade(pool, quotes[first])
        assert run.losses[0] == trade.lp_relative_loss and run.profits[0] == trade.arb_profit


@st.composite
def block_replays(draw):
    """(pool, quotes, schedule) on visit_cases' stamps and schedules that the quotes cover,
    with prices that repeat, step a little or jump, at a random fee and spread."""
    covered = visit_cases().filter(lambda case: case[1][-1] <= case[0][-1])
    stamps, instants, interval = draw(covered)
    moves = draw(st.lists(st.sampled_from([0.0, 0.0, 2e-4, -2e-4, 5e-3, -5e-3, 0.05, -0.05]),
                          min_size=len(stamps), max_size=len(stamps)))
    mid = 2000.0 * np.exp(np.cumsum(moves))
    half = 0.5 * draw(st.sampled_from([0.0, 0.0005]))
    fee = draw(st.sampled_from([0.0, 0.0005, 0.003]))
    schedule = TestVisits.schedule(instants, interval)
    return PoolState(1.0, 2000.0, fee), QuoteSeries(stamps, mid * (1 - half), mid * (1 + half)), \
        schedule


def assert_same_run(run, other):
    for name in ("timestamps", "losses", "profits"):
        assert getattr(run, name).tobytes() == getattr(other, name).tobytes(), name
    assert run.timestamps.dtype == other.timestamps.dtype == np.int64
    assert (run.n_dropped, run.n_instants, run.window_ms) == \
        (other.n_dropped, other.n_instants, other.window_ms)
    assert run.final_state == other.final_state


class TestReplayBlocks:
    """run_arb_sim replays _visits' blocks one after the other, the pool carried across: at
    any block size it is the one-block replay and the per-instant dataclass replay."""

    @given(case=block_replays())
    @settings(max_examples=300)
    def test_every_block_size_replays_alike(self, case):
        pool, quotes, schedule = case
        whole, _ = TestReplayKernel.assert_bit_identical(pool, quotes, schedule)
        for size in BLOCK_SIZES:
            with mock.patch.object(simulation, "_CHUNK", size):
                run = run_arb_sim(pool, quotes, schedule)
            assert_same_run(run, whole)  # and so the dataclass replay's

    STAMPS = np.arange(0, 301, 10, dtype=np.int64)
    IRREGULAR = np.cumsum([0, 7, 13, 10, 9, 11, 4, 16, 10, 12, 8, 10, 3, 17, 10, 10, 9])

    @pytest.mark.parametrize("stamps, schedule, repeats", [
        (STAMPS, BlockSchedule.fixed(20, 0, 300), False),  # strided views
        (STAMPS, BlockSchedule.fixed(15, 0, 300), False),  # (t - first) // step
        (STAMPS, BlockSchedule.fixed(4, 0, 300), True),  # the same, with repeated quotes
        (IRREGULAR, BlockSchedule.fixed(5, 0, int(IRREGULAR[-1])), True),  # searched
        (STAMPS, BlockSchedule.from_blocks([0, 3, 6, 10, 12, 18, 20, 21, 29, 30, 44, 50, 51,
                                            52, 60, 75, 80, 99, 100]), True),
    ], ids=["grid-multiple", "grid-not-multiple", "grid-below-step", "irregular-stamps",
            "blocks"])
    def test_trade_on_a_block_first_instant_and_repeats_across_blocks(self, stamps, schedule,
                                                                      repeats):
        # zero fee and a new price at every stamp: each quote visited trades
        prices = 2000.0 * 1.01 ** np.arange(len(stamps))
        quotes, pool = QuoteSeries(stamps, prices, prices), PoolState(1.0, 2000.0, 0.0)
        whole, _ = TestReplayKernel.assert_bit_identical(pool, quotes, schedule)
        grid = schedule.timestamps
        quote_of = np.searchsorted(stamps, grid, side="right") - 1
        traded = np.searchsorted(grid, whole.timestamps)  # the positions of the events
        for size in (3, 7):
            assert np.any(traded[traded > 0] % size == 0)  # a block opens on a trade
            straddles = [p for p in range(size, len(grid), size) if quote_of[p] == quote_of[p - 1]]
            assert bool(straddles) == repeats  # a repeated quote opens a block
            with mock.patch.object(simulation, "_CHUNK", size):
                run = run_arb_sim(pool, quotes, schedule)
            assert_same_run(run, whole)


@st.composite
def short_replays(draw):
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
    fee = draw(st.sampled_from([0.0, 0.0005, 0.003, 0.01]))
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

    @given(case=short_replays())
    def test_instant_one_ms_later_adds_no_event(self, case):
        assert_one_ms_later_adds_no_event(*case)

    def test_zero_fee_instant_one_ms_later_adds_no_event(self):
        # one trade at 0 to the quote; replayed at 1 ms, the same quote would trade
        # a loss of 1.9e-18, as the pool ends a rounding away from it
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


def unit_pool_trade(z, fee):
    """(z', L) of the optimal trade at log mispricings z = ln(P / p_pool), for fee f.

    Losses do not depend on the pool's scale, so the pool is x = y = 1 and
    P = e^z. Outside the band |z| <= gamma = -ln(1 - f) the arbitrageur trades
    until the marginal price of the next unit, fee included, is P. Selling Y
    for X, the input counted net of the fee moves the pool along x * y = 1, so
    with y_e that net Y reserve the marginal price is y_e^2 / (1 - f), and it
    is P at y_e = sqrt((1 - f) P). The trader pays a = (y_e - 1) / (1 - f) and
    gets 1 - 1 / y_e of X; the fee stays in the pool, at x' = 1 / y_e and
    y' = 1 + a. Selling X for Y is the mirror image. The loss L is the
    trader's profit over the pool's value P + 1, and z' = ln(P x' / y').
    Inside the band there is no trade: z' = z and L = 0.
    """
    omf = 1.0 - fee
    gamma = -math.log(omf)
    price = np.exp(z)
    after, loss = z.copy(), np.zeros_like(z)
    up, down = z > gamma, z < -gamma
    y_e = np.sqrt(omf * price[up])
    paid = (y_e - 1.0) / omf
    loss[up] = (price[up] * (1.0 - 1.0 / y_e) - paid) / (price[up] + 1.0)
    after[up] = z[up] - np.log(y_e * (1.0 + paid))
    x_e = np.sqrt(omf / price[down])
    paid = (x_e - 1.0) / omf
    loss[down] = ((1.0 - 1.0 / x_e) - price[down] * paid) / (price[down] + 1.0)
    after[down] = z[down] + np.log(x_e * (1.0 + paid))
    return after, loss


def mispricing_chain_log_loss(sigma, interval_ms, fee, n=3001):
    """Expected -ln(1 - L) per block of fixed blocks, with no simulation.

    From block to block the log mispricing z is a Markov chain: the trade maps
    z to z' (unit_pool_trade), then z' moves by the GBM log step of the
    interval, N(-sigma^2 dt / 2, sigma^2 dt) for mu = 0. The chain lives on n
    points over [-gamma - 8s, gamma + 8s], s = sigma sqrt(dt); each row of its
    transition matrix is the Gaussian density at the points, normalised. Its
    stationary distribution pi solves pi K = pi with sum(pi) = 1, directly.
    """
    dt = interval_ms / YEAR_MS
    s, drift = sigma * math.sqrt(dt), -0.5 * sigma**2 * dt
    reach = -math.log(1.0 - fee) + 8 * s
    z = np.linspace(-reach, reach, n)
    after, loss = unit_pool_trade(z, fee)
    # built in place: the matrix is n^2 doubles, 72 MB at n = 3001
    kernel = np.subtract.outer(after + drift, z)
    kernel /= s
    kernel *= kernel
    kernel *= -0.5
    np.exp(kernel, out=kernel)
    kernel /= kernel.sum(axis=1, keepdims=True)
    # (K - I)^T pi = 0, with its last equation replaced by sum(pi) = 1
    kernel[np.diag_indices(n)] -= 1.0
    kernel[:, -1] = 1.0
    total = np.zeros(n)
    total[-1] = 1.0
    pi = np.linalg.solve(kernel.T, total)
    return float(pi @ -np.log1p(-loss))


def test_fixed_block_loss_matches_mispricing_chain():
    # The absolute oracle for fixed blocks with a fee, the regime of the
    # paper's block-time claim. The seeds, 1000-1019 of 30 days each, were
    # fixed before any run. One 4 s GBM path per seed serves every setting:
    # 12 s blocks read every third price. Per seed, simulation / oracle
    # spreads with a standard deviation of 0.55 % (12 s, 5 bp), 1.8 % (12 s,
    # 30 bp) and 0.39 % (4 s, 5 bp), so the pooled ratio over 20 seeds has
    # 0.12, 0.40 and 0.09 %; the 1 % bound is 2.5 to 11 of those. The pooled
    # ratios are 1.0004, 0.9996 and 1.0005. The 4 s to 12 s ratio of losses
    # per unit time, the paper's quantity, shares its paths and is checked to
    # 2 %; it is 1.0001 of the oracle's. The replays take most of the test's
    # time: the 4 s ones make 3.9 M events.
    sigma, days = 0.8, 30
    settings = [(12_000, 5), (12_000, 30), (4_000, 5)]  # (interval_ms, fee_bps)
    log_loss, blocks = dict.fromkeys(settings, 0.0), dict.fromkeys(settings, 0)
    for seed in range(1000, 1020):
        quotes = quotes_from_prices(gbm_generate(sigma, 0.0, 4000, days * DAY_MS, seed=seed))
        for interval, fee_bps in settings:
            run = run_arb_sim(PoolState(1.0, 1.0, fee_bps / 1e4), quotes,
                              BlockSchedule.fixed(interval, 0, days * DAY_MS))
            log_loss[interval, fee_bps] -= math.log(run.multiplier)
            blocks[interval, fee_bps] += run.n_instants - 1  # the first instant has z = 0
    simulated = {key: log_loss[key] / blocks[key] for key in settings}
    oracle = {key: mispricing_chain_log_loss(sigma, key[0], key[1] / 1e4) for key in settings}
    for key in settings:
        assert simulated[key] / oracle[key] == pytest.approx(1.0, abs=0.01), key
    rate = {key: value / key[0] for key, value in simulated.items()}
    oracle_rate = {key: value / key[0] for key, value in oracle.items()}
    assert (rate[4000, 5] / rate[12_000, 5]) / (oracle_rate[4000, 5] / oracle_rate[12_000, 5]) \
        == pytest.approx(1.0, abs=0.02)


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


    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
        ({"start_ms": 10**23}, f"start_ms must fit in int64 milliseconds, got {10**23}"),
        ({"start_ms": -(2**63) - 1}, f"start_ms must fit in int64 milliseconds, got {-(2**63) - 1}"),
        ({"start_ms": 9223372036854770000},  # the last stamp would wrap
         "start_ms + horizon_ms must fit in int64 milliseconds, got 9223372036854780000"),
    ], ids=["negative-seed", "float-seed", "start-past-int64", "start-before-int64",
            "end-past-int64"])
    def test_rejects_seed_and_stamps_outside_their_range(self, kwargs, message):
        with pytest.raises(InputError) as err:
            gbm_generate(**{"sigma": 0.5, "mu": 0.0, "step_ms": 1000, "horizon_ms": 10_000,
                            "seed": 1, **kwargs})
        assert str(err.value) == message

    def test_step_count_limit(self, monkeypatch):
        monkeypatch.setattr(simulation, "MAX_STEPS", 10)
        assert len(gbm_generate(0.5, 0.0, 1000, 10_000, seed=1)) == 11
        with pytest.raises(InputError) as err:
            gbm_generate(0.5, 0.0, 1000, 11_000, seed=1)
        assert str(err.value) == "horizon_ms 11000 / step_ms 1000 is 11 steps; at most 10 are generated"

    def test_last_stamp_at_the_int64_limit(self):
        series = gbm_generate(0.5, 0.0, 1000, 10_000, seed=1, start_ms=2**63 - 1 - 10_000)
        assert series.timestamps.tolist()[-1] == 2**63 - 1


class TestLoglogSlope:
    def test_constructed_power_law(self):
        values = np.array([100.0, 1000.0, 10_000.0, 100_000.0])
        sweep = SweepResult(
            parameter="interval_ms", values=values,
            total_losses=3.7e-6 * values**0.5,
            annualized_losses=np.zeros(4), n_events=np.ones(4, dtype=np.int64),
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
        )
        slope, _ = loglog_slope(sweep)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_fit_range_restricts_points(self):
        values = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        losses = np.array([1.0, 2.0, 4.0, 8.0, 100.0])
        sweep = SweepResult(
            parameter="interval_ms", values=values, total_losses=losses,
            annualized_losses=np.zeros(5), n_events=np.ones(5, dtype=np.int64),
        )
        slope, _ = loglog_slope(sweep, (1.0, 8.0))
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_errors(self):
        sweep = SweepResult(
            parameter="interval_ms", values=np.array([1.0, 2.0]),
            total_losses=np.array([1e-4, 2e-4]),
            annualized_losses=np.zeros(2), n_events=np.ones(2, dtype=np.int64),
        )
        with pytest.raises(FitError):
            loglog_slope(sweep)
        zero = SweepResult(
            parameter="interval_ms", values=np.array([1.0, 2.0, 4.0]),
            total_losses=np.array([0.0, 1e-4, 2e-4]),
            annualized_losses=np.zeros(3), n_events=np.ones(3, dtype=np.int64),
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

    def test_each_sum_depends_on_its_own_series_only(self):
        # five orders of magnitude, so that adding zero cells of the other series
        # in between would change the grouping of the sum and its last digits
        rng = np.random.default_rng(1)
        ts = np.arange(0, 20 * DAY_MS, DAY_MS)
        values = 10.0 ** rng.uniform(-8, -3, len(ts))
        on_a_stamp, between = [0], [DAY_MS // 2]
        fees = [fees_vs_losses(self.ledger(ts, values), loss_series(other, [1e-4])).totals
                for other in (on_a_stamp, between)]
        losses = [fees_vs_losses(self.ledger(other, [1e-4]), loss_series(ts, values)).totals
                  for other in (on_a_stamp, between)]
        total = float(np.sum(values))
        assert [t["sum_fee_returns"].hex() for t in fees] == [total.hex()] * 2
        assert [t["sum_losses"].hex() for t in losses] == [total.hex()] * 2

    def test_window_near_the_int64_minimum_does_not_wrap(self):
        stamps = np.array([5, 1005, 2005], np.int64)
        reports = [fees_vs_losses(self.ledger(stamps + shift, [1e-3, 2e-3, 3e-3]),
                                  loss_series(stamps + shift, [1e-3] * 3), 30 * DAY_MS)
                   for shift in (-(2**63), 0)]
        assert reports[1].trailing_ratio.tolist() == [1.0, 1.5, 2.0]
        for name in ("fee_returns", "loss_returns", "cumulative_difference", "trailing_ratio"):
            assert getattr(reports[0], name).tobytes() == getattr(reports[1], name).tobytes()

    @pytest.mark.parametrize("window_ms", [1000, 30 * DAY_MS, 2**62, 2**63 - 1006, 2**63 - 1,
                                           2**63, 2**64, 10**400],
                             ids=["1s", "30d", "2^62", "2^63-1006", "2^63-1", "2^63", "2^64",
                                  "1e400"])
    def test_windows_over_the_int64_range_are_the_loop(self, window_ms):
        """Stamps half the int64 range apart; a window past int64, or past any float, too."""
        stamps = [-(2**63), -(2**63) + 1005, -(2**63) + 2005, -1]
        fees, losses = [1e-3, 2e-3, 3e-3, 4e-3], [4e-3, 1e-3, 2e-3, 3e-3]
        report = fees_vs_losses(self.ledger(stamps, fees), loss_series(stamps, losses), window_ms)
        expected = comparison_loop(stamps, fees, stamps, losses, window_ms)
        assert report.trailing_ratio.tobytes() == expected["trailing_ratio"].tobytes()

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


def comparison_loop(fee_ts, fees, loss_ts, losses, window_ms):
    """fees_vs_losses' columns from a loop over the merged stamps.

    Each stamp's values are added in input order. The running difference and
    both prefix sums are folded left to right, and a trailing window's sum is
    the difference of two prefix sums, with NaN where the loss sum is zero.
    """
    timeline = sorted(set(fee_ts) | set(loss_ts))
    fee_at, loss_at = dict.fromkeys(timeline, 0.0), dict.fromkeys(timeline, 0.0)
    for t, value in zip(fee_ts, fees):
        fee_at[t] += value
    for t, value in zip(loss_ts, losses):
        loss_at[t] += value
    difference, fee_prefix, loss_prefix = [], [0.0], [0.0]
    running = 0.0
    for t in timeline:
        running += fee_at[t] - loss_at[t]
        difference.append(running)
        fee_prefix.append(fee_prefix[-1] + fee_at[t])
        loss_prefix.append(loss_prefix[-1] + loss_at[t])
    ratio = []
    for i, t in enumerate(timeline):
        left = sum(1 for s in timeline if s <= t - window_ms)
        fee_sum = fee_prefix[i + 1] - fee_prefix[left]
        loss_sum = loss_prefix[i + 1] - loss_prefix[left]
        ratio.append(math.nan if loss_sum == 0 else fee_sum / loss_sum)
    return {"timestamps": np.array(timeline, np.int64),
            "fee_returns": np.array([fee_at[t] for t in timeline], np.float64),
            "loss_returns": np.array([loss_at[t] for t in timeline], np.float64),
            "cumulative_difference": np.array(difference, np.float64),
            "trailing_ratio": np.array(ratio, np.float64)}


# stamps on a 500 ms lattice and windows of whole seconds, so that stamps are
# often shared by both series and often exactly one window apart; zero values,
# so that some windows hold losses that sum to zero
STAMPS = st.lists(st.integers(0, 24).map(lambda k: 500 * k), max_size=12).map(sorted)
VALUES = st.one_of(st.just(0.0), st.floats(1e-12, 1e-2))


@example(fee_ts=[], fees=[], loss_ts=[], losses=[], window_ms=1000)
@example(fee_ts=[0, 1000], fees=[1e-4, 2e-4], loss_ts=[0, 1000], losses=[0.0, 3e-4],
         window_ms=1000)
@given(fee_ts=STAMPS, fees=st.lists(VALUES, min_size=12, max_size=12), loss_ts=STAMPS,
       losses=st.lists(VALUES, min_size=12, max_size=12),
       window_ms=st.integers(1, 6).map(lambda k: 1000 * k))
def test_fees_vs_losses_is_the_loop(fee_ts, fees, loss_ts, losses, window_ms):
    fees, losses = fees[:len(fee_ts)], losses[:len(loss_ts)]
    ledger = accumulate(PositionLedger(1.0), fees, fee_ts)
    report = fees_vs_losses(ledger, loss_series(loss_ts, losses), window_ms)
    expected = comparison_loop(fee_ts, fees, loss_ts, losses, window_ms)
    for name, column in expected.items():
        assert getattr(report, name).dtype == column.dtype
        assert getattr(report, name).tobytes() == column.tobytes(), name
    # the totals that are folds; sum_fee_returns and sum_losses are numpy's sums
    assert report.totals["total_fee_return"] == left_fold(1.0 + r for r in fees) - 1.0
    assert report.totals["total_relative_loss"] == 1.0 - left_fold(1.0 - x for x in losses)
    difference = expected["cumulative_difference"]
    assert report.totals["final_difference"] == (difference[-1] if len(difference) else 0.0)


class TestComparisonMemory:
    """Traced peak of fees_vs_losses, in bytes per timeline row.

    100 000 swaps a second apart, and a loss every 2 s, half of them on a swap's
    stamp: 125 000 rows. The report's five columns are 40 bytes a row; the
    merged stamps, the prefix sums and the window sums are built in place.
    """

    ROWS = 100_000

    def test_peak_bytes_per_row(self, tmp_path):
        ledger = attribute_fees(load_swap_records(write(tmp_path, "s.csv", _swaps(self.ROWS))),
                                500.0)
        k = np.arange(self.ROWS // 2)
        losses = loss_series(2000 * k + 500 * (k % 2), np.full(len(k), 1e-5))
        tracemalloc.start()
        try:
            report = fees_vs_losses(ledger, losses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.timestamps) == self.ROWS + self.ROWS // 4
        assert peak / len(report.timestamps) <= 80
