import math
import random

import numpy as np
import pytest

from lvrsim import (
    Direction,
    InputError,
    PoolState,
    concentration_scale,
    position_value,
    position_value_of_liquidity,
    spot_price,
    swap_exact_in,
)


class TestPoolState:
    def test_rejects_nonpositive_reserves(self):
        with pytest.raises(InputError):
            PoolState(0.0, 1.0)
        with pytest.raises(InputError):
            PoolState(1.0, -5.0)

    def test_rejects_bad_fee(self):
        with pytest.raises(InputError):
            PoolState(1.0, 1.0, fee=1.0)
        with pytest.raises(InputError):
            PoolState(1.0, 1.0, fee=-0.01)

    def test_invariant_product(self):
        assert PoolState(100.0, 200000.0).k == 2e7

    @pytest.mark.parametrize("reserve_x, reserve_y, product", [
        (1e160, 2e160, "inf"), (1e-320, 2e-320, "0.0"), (1e200, 1e200, "inf"),
    ])
    def test_rejects_product_out_of_range(self, reserve_x, reserve_y, product):
        with pytest.raises(InputError, match=f"^reserve product must be finite and positive, "
                                             f"got {product}$"):
            PoolState(reserve_x, reserve_y)

    def test_product_at_the_float_limits_accepted(self):
        assert PoolState(1e154, 1e154).k == 1e308
        assert PoolState(1e-160, 1e-160).k > 0


class TestSpotPrice:
    def test_definition(self):
        assert spot_price(PoolState(100.0, 200000.0)) == 2000.0

    def test_symmetric_pool(self):
        assert spot_price(PoolState(1.0, 1.0)) == 1.0

    def test_inverted(self):
        assert spot_price(PoolState(2.0, 1.0)) == 0.5


class TestPositionValue:
    def test_linear_valuation(self):
        assert position_value(PoolState(1.0, 2000.0), 2000.0) == 4000.0

    def test_tiny_reserve(self):
        assert position_value(PoolState(0.5, 1e-12), 10.0) == pytest.approx(5.0)

    def test_arithmetic(self):
        assert position_value(PoolState(100.0, 200000.0), 2100.0) == 410000.0

    def test_rejects_nonpositive_price(self):
        with pytest.raises(InputError):
            position_value(PoolState(1.0, 1.0), 0.0)

    def test_linear_in_price(self):
        state = PoolState(3.7, 8200.0)
        rng = random.Random(11)
        for _ in range(50):
            p1 = rng.uniform(0.1, 5000.0)
            p2 = rng.uniform(0.1, 5000.0)
            lhs = position_value(state, p1) + position_value(state, p2)
            rhs = 2.0 * position_value(state, (p1 + p2) / 2.0)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_full_range_liquidity_value(self):
        # L = sqrt(x*y) holds x = L/sqrt(P), y = L*sqrt(P)
        state = PoolState(100.0, 200000.0)
        liquidity = math.sqrt(state.k)
        assert position_value_of_liquidity(liquidity, spot_price(state)) == pytest.approx(
            position_value(state, spot_price(state)), rel=1e-12
        )

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_liquidity_value_rejects_what_is_not_finite_and_positive(self, value):
        with pytest.raises(InputError, match="^liquidity must be positive, got "):
            position_value_of_liquidity(value, 2000.0)
        with pytest.raises(InputError, match="^price must be positive, got "):
            position_value_of_liquidity(1.0, value)


class TestSwapExactIn:
    def test_zero_fee_doubling(self):
        result = swap_exact_in(PoolState(100.0, 200000.0, 0.0), Direction.Y_FOR_X, 200000.0)
        assert result.amount_out == pytest.approx(50.0, rel=1e-12)
        assert result.new_state.reserve_x == pytest.approx(50.0, rel=1e-12)
        assert result.new_state.reserve_y == 400000.0

    def test_fee_bearing_example(self):
        result = swap_exact_in(PoolState(100.0, 200000.0, 0.003), Direction.Y_FOR_X, 4645.4)
        # frozen from direct evaluation of x - k/(y + 0.997*4645.4)
        assert result.amount_out == pytest.approx(2.2633194886034858, rel=1e-12)
        assert result.fee_paid == pytest.approx(0.003 * 4645.4, rel=1e-12)

    def test_zero_amount_is_noop(self):
        state = PoolState(3.0, 7.0, 0.01)
        result = swap_exact_in(state, Direction.X_FOR_Y, 0.0)
        assert result.amount_out == 0.0
        assert result.new_state is state

    def test_rejects_negative_amount(self):
        with pytest.raises(InputError):
            swap_exact_in(PoolState(1.0, 1.0), Direction.Y_FOR_X, -1.0)

    def test_output_below_reserve(self):
        state = PoolState(10.0, 50.0, 0.0)
        result = swap_exact_in(state, Direction.Y_FOR_X, 1e12)
        assert 0 < result.amount_out < state.reserve_x

    def test_zero_fee_preserves_k(self):
        # spec tolerance: relative 1e-12 over 1e5 random states and sizes
        rng = random.Random(42)
        for _ in range(100_000):
            x = math.exp(rng.uniform(-3, 12))
            y = math.exp(rng.uniform(-3, 12))
            state = PoolState(x, y, 0.0)
            if rng.random() < 0.5:
                direction, amount = Direction.Y_FOR_X, y * math.exp(rng.uniform(-6, 4))
            else:
                direction, amount = Direction.X_FOR_Y, x * math.exp(rng.uniform(-6, 4))
            new = swap_exact_in(state, direction, amount).new_state
            assert abs(new.k / state.k - 1.0) <= 1e-12

    def test_fee_swap_grows_k(self):
        rng = random.Random(7)
        for _ in range(1000):
            state = PoolState(rng.uniform(1, 100), rng.uniform(1, 100), 0.003)
            new = swap_exact_in(state, Direction.Y_FOR_X, rng.uniform(0.1, 10)).new_state
            assert new.k >= state.k

    def test_round_trip_zero_fee(self):
        rng = random.Random(3)
        for _ in range(200):
            state = PoolState(rng.uniform(0.1, 1000), rng.uniform(0.1, 1000), 0.0)
            amount = rng.uniform(0.01, 10.0)
            first = swap_exact_in(state, Direction.Y_FOR_X, amount)
            back = swap_exact_in(first.new_state, Direction.X_FOR_Y, first.amount_out)
            assert back.amount_out == pytest.approx(amount, rel=1e-9)

    def test_output_increasing_and_concave(self):
        state = PoolState(100.0, 200000.0, 0.003)
        amounts = np.linspace(0.0, 50000.0, 200)
        outs = np.array(
            [swap_exact_in(state, Direction.Y_FOR_X, a).amount_out for a in amounts]
        )
        assert np.all(np.diff(outs) > 0)
        assert np.all(np.diff(outs, 2) <= 1e-12)


class TestConcentrationScale:
    def test_scales_returns(self):
        assert concentration_scale([0.01], 10.0).tolist() == [0.10]

    def test_identity_at_one(self):
        series = np.array([0.004, -0.002, 0.03])
        assert concentration_scale(series, 1.0).tolist() == series.tolist()

    def test_linear(self):
        assert concentration_scale([0.008, 0.002], 2.0).tolist() == [0.016, 0.004]

    def test_rejects_factor_below_one(self):
        with pytest.raises(InputError):
            concentration_scale([0.01], 0.5)

    def test_compounding_on_scaled_series(self):
        series = [0.001, 0.002, 0.0005]
        scaled = concentration_scale(series, 4.0)
        direct = 1.0
        for r in series:
            direct *= 1.0 + 4.0 * r
        recomputed = 1.0
        for r in scaled:
            recomputed *= 1.0 + r
        assert recomputed == pytest.approx(direct, rel=1e-15)
