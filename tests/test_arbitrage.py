import math
import random

import numpy as np
import pytest

from lvrsim import (
    Direction,
    InputError,
    PoolState,
    Quote,
    apply_arbitrage,
    no_arb_band,
    optimal_arb_trade,
    position_value,
    rebalancing_portfolio_value,
    spot_price,
)

STATE = PoolState(100.0, 200000.0, 0.003)


def brute_force_profit(state, price, side, n=10_000):
    """Grid-search the arbitrageur's profit over trade sizes."""
    omf = 1.0 - state.fee
    k = state.k
    if side == "bid":
        hi = 3.0 * max((math.sqrt(omf * k * price) - state.reserve_y) / omf, 1e-9)
        amounts = np.linspace(0.0, hi, n)
        outs = state.reserve_x - k / (state.reserve_y + omf * amounts)
        profits = price * outs - amounts
    else:
        hi = 3.0 * max((math.sqrt(omf * k / price) - state.reserve_x) / omf, 1e-9)
        amounts = np.linspace(0.0, hi, n)
        outs = state.reserve_y - k / (state.reserve_x + omf * amounts)
        profits = outs - price * amounts
    return float(np.max(profits))


class TestQuote:
    def test_mid(self):
        assert Quote(0, 99.0, 101.0).mid == 100.0

    def test_rejects_crossed(self):
        with pytest.raises(InputError):
            Quote(0, 101.0, 99.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            Quote(0, 0.0, 1.0)


class TestNoArbBand:
    def test_thirty_bp(self):
        lower, upper = no_arb_band(STATE)
        assert lower == pytest.approx(1994.0, rel=1e-12)
        assert upper == pytest.approx(2006.0180541624875, rel=1e-12)

    def test_collapses_at_zero_fee(self):
        assert no_arb_band(PoolState(100.0, 200000.0, 0.0)) == (2000.0, 2000.0)

    def test_half_fee(self):
        lower, upper = no_arb_band(PoolState(1.0, 1.0, 0.5))
        assert (lower, upper) == (0.5, 2.0)


class TestOptimalArbTrade:
    def test_bid_side_example(self):
        trade = optimal_arb_trade(STATE, Quote(0, 2100.0, 2100.0))
        # frozen from the brute-force oracle (1e6-point grid)
        assert trade.direction is Direction.Y_FOR_X
        assert trade.amount_in == pytest.approx(4645.311828823015, rel=1e-12)
        assert trade.amount_out == pytest.approx(2.2632775023467673, rel=1e-12)
        assert trade.arb_profit == pytest.approx(107.57092610519612, rel=1e-12)
        assert trade.execution_price_ext == 2100.0

    def test_quote_inside_band(self):
        assert optimal_arb_trade(STATE, Quote(0, 1998.0, 2002.0)) is None

    def test_pool_at_price_zero_fee(self):
        state = PoolState(100.0, 200000.0, 0.0)
        assert optimal_arb_trade(state, Quote(0, 2000.0, 2000.0)) is None

    def test_exact_boundary_is_no_trade(self):
        lower, upper = no_arb_band(STATE)
        assert optimal_arb_trade(STATE, Quote(0, upper, upper)) is None
        assert optimal_arb_trade(STATE, Quote(0, lower, lower)) is None

    def test_beats_brute_force_both_sides(self):
        rng = random.Random(5)
        for _ in range(50):
            state = PoolState(
                rng.uniform(1.0, 500.0), rng.uniform(1000.0, 1e6),
                rng.choice([0.0, 0.0005, 0.003, 0.01]),
            )
            p = spot_price(state)
            bid = p * rng.uniform(1.001, 1.3)
            trade = optimal_arb_trade(state, Quote(0, bid, bid))
            if trade is not None:
                best = brute_force_profit(state, bid, "bid")
                assert trade.arb_profit >= best - 1e-9 * abs(best)
            ask = p * rng.uniform(0.7, 0.999)
            trade = optimal_arb_trade(state, Quote(0, ask, ask))
            if trade is not None:
                best = brute_force_profit(state, ask, "ask")
                assert trade.arb_profit >= best - 1e-9 * abs(best)

    def test_marginal_price_reaches_target(self):
        # at the optimum the fee-adjusted marginal price equals the quote
        trade = optimal_arb_trade(STATE, Quote(0, 2100.0, 2100.0))
        virtual_y = STATE.reserve_y + (1.0 - STATE.fee) * trade.amount_in
        virtual_x = STATE.k / virtual_y
        marginal = (virtual_y / virtual_x) / (1.0 - STATE.fee)
        assert marginal == pytest.approx(2100.0, rel=1e-9)

    def test_fixpoint_no_second_trade(self):
        rng = random.Random(9)
        for _ in range(200):
            state = PoolState(
                rng.uniform(0.5, 50.0), rng.uniform(100.0, 1e5),
                rng.choice([0.0, 0.003, 0.01]),
            )
            mid = spot_price(state) * rng.uniform(0.6, 1.6)
            spread = mid * rng.uniform(0.0, 0.002)
            quote = Quote(0, mid - spread / 2, mid + spread / 2)
            trade = optimal_arb_trade(state, quote)
            if trade is None:
                continue
            after = apply_arbitrage(state, trade)
            assert optimal_arb_trade(after, quote) is None

    def test_scale_invariance(self):
        quote = Quote(0, 2100.0, 2100.0)
        base = optimal_arb_trade(STATE, quote)
        for c in (0.01, 3.0, 1e6):
            scaled_state = PoolState(STATE.reserve_x * c, STATE.reserve_y * c, STATE.fee)
            scaled = optimal_arb_trade(scaled_state, quote)
            assert scaled.arb_profit == pytest.approx(base.arb_profit * c, rel=1e-12)
            assert scaled.lp_relative_loss == pytest.approx(base.lp_relative_loss, rel=1e-12)


class TestLpLoss:
    def test_example_value(self):
        trade = optimal_arb_trade(STATE, Quote(0, 2100.0, 2100.0))
        assert trade.lp_relative_loss == pytest.approx(
            trade.arb_profit / 410000.0, rel=1e-12
        )
        assert trade.lp_relative_loss == pytest.approx(2.623681124516979e-4, rel=1e-12)

    def test_vanishing_opportunity(self):
        lower, upper = no_arb_band(STATE)
        quote = Quote(0, upper * (1.0 + 1e-12), upper * (1.0 + 1e-12))
        trade = optimal_arb_trade(STATE, quote)
        if trade is not None:
            assert trade.lp_relative_loss < 1e-12

    def test_rejects_mismatched_state(self):
        trade = optimal_arb_trade(STATE, Quote(0, 2100.0, 2100.0))
        other = PoolState(50.0, 200000.0, 0.003)
        with pytest.raises(InputError):
            apply_arbitrage(other, trade)


class TestApplyArbitrage:
    def test_none_is_noop(self):
        assert apply_arbitrage(STATE, None) is STATE

    def test_fee_retained_in_reserves(self):
        trade = optimal_arb_trade(STATE, Quote(0, 2100.0, 2100.0))
        after = apply_arbitrage(STATE, trade)
        assert after.reserve_y == pytest.approx(STATE.reserve_y + trade.amount_in, rel=1e-15)
        assert after.k > STATE.k

    def test_marginal_price_after_trade_hits_quote(self):
        # the marginal execution price (fee included) lands on the bid;
        # with the fee retained the spot itself sits just above the ask edge
        trade = optimal_arb_trade(STATE, Quote(0, 2100.0, 2100.0))
        after = apply_arbitrage(STATE, trade)
        virtual_y = STATE.reserve_y + (1.0 - STATE.fee) * trade.amount_in
        marginal = (virtual_y * virtual_y / STATE.k) / (1.0 - STATE.fee)
        assert marginal == pytest.approx(2100.0, rel=1e-9)
        assert spot_price(after) / (1.0 - STATE.fee) >= 2100.0

    def test_zero_fee_spot_equals_quote(self):
        state = PoolState(100.0, 200000.0, 0.0)
        trade = optimal_arb_trade(state, Quote(0, 2100.0, 2100.0))
        after = apply_arbitrage(state, trade)
        assert spot_price(after) == pytest.approx(2100.0, rel=1e-9)


class TestRebalancingPortfolio:
    def test_empty_trades_constant_value(self):
        quotes = [(Quote(t, 2000.0, 2000.0), None) for t in range(0, 5000, 1000)]
        values = rebalancing_portfolio_value(quotes, STATE)
        assert np.allclose(values, position_value(STATE, 2000.0))

    def test_single_trade_difference_is_profit(self):
        state = PoolState(100.0, 200000.0, 0.0)
        quote = Quote(0, 2100.0, 2100.0)
        trade = optimal_arb_trade(state, quote)
        values = rebalancing_portfolio_value([(quote, trade)], state)
        pool_after = apply_arbitrage(state, trade)
        diff = values[0] - position_value(pool_after, quote.mid)
        assert diff == pytest.approx(trade.arb_profit, rel=1e-9)

    def test_two_trades_difference_adds(self):
        state = PoolState(100.0, 200000.0, 0.0)
        q1 = Quote(0, 2100.0, 2100.0)
        t1 = optimal_arb_trade(state, q1)
        s1 = apply_arbitrage(state, t1)
        q2 = Quote(1000, 1900.0, 1900.0)
        t2 = optimal_arb_trade(s1, q2)
        s2 = apply_arbitrage(s1, t2)
        values = rebalancing_portfolio_value([(q1, t1), (q2, t2)], state)
        diff = values[-1] - position_value(s2, q2.mid)
        assert diff == pytest.approx(t1.arb_profit + t2.arb_profit, rel=1e-9)

    def test_rejects_out_of_order(self):
        quotes = [(Quote(1000, 1.0, 1.0), None), (Quote(0, 1.0, 1.0), None)]
        with pytest.raises(InputError):
            rebalancing_portfolio_value(quotes, PoolState(1.0, 1.0))


class TestBandSoundness:
    def test_trade_iff_band_exited(self):
        rng = random.Random(77)
        for _ in range(5000):
            state = PoolState(
                math.exp(rng.uniform(-2, 6)), math.exp(rng.uniform(-2, 12)),
                rng.choice([0.0, 0.0005, 0.003, 0.01]),
            )
            lower, upper = no_arb_band(state)
            mid = spot_price(state) * math.exp(rng.uniform(-0.3, 0.3))
            spread = mid * rng.uniform(0.0, 0.01)
            quote = Quote(0, mid, mid + spread)
            trade = optimal_arb_trade(state, quote)
            outside = quote.bid > upper or quote.ask < lower
            if trade is not None:
                assert outside
                assert trade.arb_profit > 0
                assert 0 < trade.lp_relative_loss < 1
