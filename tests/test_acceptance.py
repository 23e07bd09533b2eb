"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -s
(or, from a source checkout without ``pip install -e .``:
PYTHONPATH=src python -m pytest tests/test_acceptance.py -s).
Budgeted criteria assert their own wall-clock limits. Criterion 9 runs the
CLI as ``python -m lvrsim`` from a temporary directory; its subprocesses get
the root of the imported package on PYTHONPATH, so they find it either way.
"""
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lvrsim
from lvrsim import (
    DEFAULT_INTERVALS_MS,
    BlockSchedule,
    PoolState,
    Quote,
    accumulate,
    PositionLedger,
    apply_arbitrage,
    attribute_fees,
    blocktime_sweep,
    concentration_scale,
    fee_sweep,
    gbm_generate,
    load_swap_records,
    loglog_slope,
    no_arb_band,
    optimal_arb_trade,
    position_value,
    quotes_from_prices,
    rebalancing_portfolio_value,
    run_arb_sim,
    spot_price,
)

DAY_MS = 86400 * 1000
FIXTURE = Path(__file__).parent / "data" / "swaps_fixture.csv"

# pool fee used by the synthetic scaling runs (criteria 4-6). The sqrt and
# 1/fee laws hold in the regime where the fee dominates the per-block price
# move (fee >> sigma*sqrt(dt)); at 30bp that holds across the whole grid,
# while a no-fee pool captures the path's quadratic variation at any block
# spacing and scales flat.
SCALING_POOL_FEE = 0.003
SCALING_SIGMA = 0.5  # per sqrt(year)
N_SEEDS = 30


def _report(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: PASS{suffix}")


# --- criterion 1 -------------------------------------------------------------

def test_criterion_1_arbitrage_optimality():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    fees = [0.0, 0.0005, 0.003, 0.01]
    n_with_trade = 0
    for i in range(1000):
        state = PoolState(
            math.exp(rng.uniform(-2, 6)), math.exp(rng.uniform(-2, 12)), fees[i % 4]
        )
        p = spot_price(state)
        if rng.random() < 0.8:
            # push the quote meaningfully outside the band
            factor = math.exp(rng.uniform(0.02, 0.4)) if rng.random() < 0.5 else \
                math.exp(rng.uniform(-0.4, -0.02))
            mid = p * factor
        else:
            lower, upper = no_arb_band(state)
            mid = rng.uniform(lower, upper)
        quote = Quote(0, mid, mid)
        trade = optimal_arb_trade(state, quote)

        omf = 1.0 - state.fee
        k = state.k
        if trade is not None:
            hi = 2.0 * trade.amount_in
            n_with_trade += 1
        else:
            hi = 0.5 * (state.reserve_y if mid > p else state.reserve_x)
        amounts = np.linspace(0.0, hi, 10_000)
        if mid > p:
            outs = state.reserve_x - k / (state.reserve_y + omf * amounts)
            profits = mid * outs - amounts
        else:
            outs = state.reserve_y - k / (state.reserve_x + omf * amounts)
            profits = outs - mid * amounts
        grid_max = float(np.max(profits))
        closed = trade.arb_profit if trade is not None else 0.0
        if trade is not None:
            assert closed >= grid_max - 1e-9 * abs(grid_max)
        else:
            # inside the band the grid profit never exceeds float noise
            assert grid_max <= 1e-12 * position_value(state, mid)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    assert n_with_trade >= 700
    _report(1, "arbitrage optimality oracle",
            f"{n_with_trade}/1000 instances traded, {elapsed:.1f}s")


# --- criterion 2 -------------------------------------------------------------

def test_criterion_2_no_arb_band_soundness():
    rng = np.random.default_rng(202)
    fees = [0.0, 0.0005, 0.003, 0.01]
    n_boundary = 0
    for i in range(100_000):
        state = PoolState(
            math.exp(rng.uniform(-2, 5)), math.exp(rng.uniform(-2, 10)), fees[i % 4]
        )
        lower, upper = no_arb_band(state)
        draw = rng.random()
        if draw < 0.3:
            bid = upper * math.exp(rng.uniform(1e-6, 0.3))
            ask = bid * (1.0 + rng.uniform(0.0, 0.01))
        elif draw < 0.6:
            ask = lower * math.exp(-rng.uniform(1e-6, 0.3))
            bid = ask / (1.0 + rng.uniform(0.0, 0.01))
        elif draw < 0.9:
            bid = ask = rng.uniform(lower, upper)
        elif draw < 0.95:
            bid = ask = upper  # exact boundary
            n_boundary += 1
        else:
            bid = ask = lower  # exact boundary
            n_boundary += 1
        quote = Quote(0, bid, ask)
        trade = optimal_arb_trade(state, quote)
        exits_band = quote.bid > upper or quote.ask < lower
        assert (trade is not None) == exits_band
        if trade is not None:
            assert trade.arb_profit > 0
            assert 0.0 < trade.lp_relative_loss < 1.0
    assert n_boundary > 5000
    _report(2, "no-arb band soundness", f"100000 instances, {n_boundary} at the exact boundary")


# --- criterion 3 -------------------------------------------------------------

def test_criterion_3_lvr_definitional_equivalence():
    started = time.monotonic()
    n_steps = 100_000
    step_ms = 1000
    horizon = n_steps * step_ms
    for seed in range(10):
        prices = gbm_generate(SCALING_SIGMA, 0.0, step_ms, horizon, seed=300 + seed,
                              price0=2000.0)
        quotes = quotes_from_prices(prices)
        initial = PoolState(1.0, 2000.0, 0.0)
        run = run_arb_sim(initial, quotes, BlockSchedule.fixed(step_ms, 0, horizon))

        # independent oracle: thread the pool through the same quotes and
        # account the benchmark portfolio at the holdings level
        state = initial
        events = []
        pool_values = np.empty(len(quotes))
        value_before = []
        event_index = []
        for i in range(len(quotes)):
            quote = quotes[i]
            trade = optimal_arb_trade(state, quote)
            events.append((quote, trade))
            if trade is not None:
                value_before.append(position_value(state, trade.execution_price_ext))
                event_index.append(i)
                state = apply_arbitrage(state, trade)
            pool_values[i] = position_value(state, quote.mid)
        portfolio_values = rebalancing_portfolio_value(events, initial)
        shortfall = portfolio_values - pool_values

        # compounded loss from the portfolio increments, same valuation
        # convention as the loss series (pre-trade value at execution price)
        multiplier = 1.0
        previous = 0.0
        for j, idx in enumerate(event_index):
            multiplier *= 1.0 - (shortfall[idx] - previous) / value_before[j]
            previous = shortfall[idx]
        oracle_total = 1.0 - multiplier

        assert len(run.losses) == len(event_index)
        assert oracle_total > 0
        assert abs(run.total_relative_loss - oracle_total) <= 1e-6 * oracle_total
        # additive identity: final portfolio-pool gap equals summed profits
        assert shortfall[-1] == pytest.approx(float(np.sum(run.profits)), rel=1e-9)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(3, "definitional LVR equivalence", f"10 paths x 1e5 steps, {elapsed:.1f}s")


# --- criteria 4 and 6 ---------------------------------------------------------

@pytest.fixture(scope="module")
def blocktime_scaling_runs():
    started = time.monotonic()
    slopes = []
    losses = []
    for seed in range(N_SEEDS):
        prices = gbm_generate(SCALING_SIGMA, 0.0, 100, 7 * DAY_MS, seed=400 + seed,
                              price0=2000.0)
        quotes = quotes_from_prices(prices)
        sweep = blocktime_sweep(
            PoolState(1.0, 2000.0, SCALING_POOL_FEE), quotes, list(DEFAULT_INTERVALS_MS)
        )
        slope, _ = loglog_slope(sweep)
        slopes.append(slope)
        losses.append(sweep.total_losses)
    return {
        "slopes": np.array(slopes),
        "losses": np.array(losses),
        "elapsed": time.monotonic() - started,
    }


def test_criterion_4_sqrt_blocktime_scaling(blocktime_scaling_runs):
    data = blocktime_scaling_runs
    assert data["elapsed"] < 300.0
    mean_slope = float(np.mean(data["slopes"]))
    assert 0.4 <= mean_slope <= 0.6
    _report(4, "square-root block-time scaling",
            f"mean slope {mean_slope:.3f} over {N_SEEDS} seeds, {data['elapsed']:.0f}s")


def test_criterion_6_monotone_in_blocktime(blocktime_scaling_runs):
    fractions = []
    for row in blocktime_scaling_runs["losses"]:
        pairs = np.diff(row) >= 0
        fraction = float(np.mean(pairs))
        fractions.append(fraction)
        assert fraction >= 0.95
    _report(6, "monotonicity in block time",
            f"min non-decreasing fraction {min(fractions):.3f} across seeds")


# --- criterion 5 -------------------------------------------------------------

def test_criterion_5_inverse_fee_proportionality():
    fees = [0.001, 0.002, 0.003, 0.005, 0.010]
    interval = 12_000
    slopes = []
    for seed in range(N_SEEDS):
        prices = gbm_generate(SCALING_SIGMA, 0.0, interval, 21 * DAY_MS,
                              seed=500 + seed, price0=2000.0)
        quotes = quotes_from_prices(prices)
        sweep = fee_sweep(1.0, 2000.0, quotes, interval, fees)
        slope, _ = loglog_slope(sweep)
        slopes.append(slope)
        assert np.all(np.diff(sweep.total_losses) <= 0)  # every seed monotone
    mean_slope = float(np.mean(slopes))
    assert -1.3 <= mean_slope <= -0.7
    _report(5, "inverse fee proportionality",
            f"mean slope {mean_slope:.3f} over {N_SEEDS} seeds, monotone on all")


# --- criterion 7 -------------------------------------------------------------

def test_criterion_7_fee_attribution_fixture():
    records = load_swap_records(str(FIXTURE))
    assert len(records) == 1000
    position = 500.0

    ledger = attribute_fees(records, position)

    # spreadsheet-style recomputation, kept deliberately flat
    growth = 1.0
    for record in records:
        fee_tokens = record.fee_rate * record.amount_in * (position / record.post_swap_liquidity)
        if record.input_token == "X":
            fee_y = fee_tokens * record.post_swap_price
        else:
            fee_y = fee_tokens
        growth *= 1.0 + fee_y / (2.0 * position * math.sqrt(record.post_swap_price))
    independent_total = growth - 1.0

    total = ledger.cumulative_growth - 1.0
    assert total == pytest.approx(independent_total, rel=1e-9)
    assert total == pytest.approx(2.2638787300643948e-4, rel=1e-9)  # frozen

    per_block = attribute_fees(records, position, per_block=True).cumulative_growth - 1.0
    assert abs(per_block - total) / total < 1e-3
    _report(7, "fee attribution fixture",
            f"total {total:.6e}, per-block delta {abs(per_block - total) / total:.2e}")


# --- criterion 8 -------------------------------------------------------------

def test_criterion_8_concentration_scaling():
    factor = 10.0
    records = load_swap_records(str(FIXTURE))
    ledger = attribute_fees(records, 500.0)
    scaled_fees = concentration_scale(ledger.returns, factor)
    assert np.all(scaled_fees == factor * ledger.returns)  # exact per period

    scaled_ledger = accumulate(PositionLedger(500.0), scaled_fees, ledger.timestamps)
    direct = 1.0
    for value in ledger.returns:
        direct *= 1.0 + factor * value
    assert scaled_ledger.cumulative_growth == direct

    prices = gbm_generate(SCALING_SIGMA, 0.0, 1000, 2 * 3600 * 1000, seed=808,
                          price0=2000.0)
    run = run_arb_sim(
        PoolState(1.0, 2000.0, 0.0005), quotes_from_prices(prices),
        BlockSchedule.fixed(1000, 0, 2 * 3600 * 1000),
    )
    assert len(run.losses) > 50
    scaled_run = run.scaled(factor)
    assert np.all(scaled_run.losses == factor * run.losses)
    direct = 1.0
    for value in run.losses:
        direct *= 1.0 - factor * value
    assert scaled_run.multiplier == direct
    _report(8, "concentration scaling",
            f"k={factor:g} exact on {len(ledger.returns)} fee and {len(run.losses)} loss periods")


# --- criterion 9 -------------------------------------------------------------

def _cli_env() -> dict:
    """The test's environment with the imported package's root first on PYTHONPATH.

    The CLI runs from a temporary directory, where a relative entry such as
    ``src`` no longer resolves; the absolute root makes the subprocess run the
    same code this test imports, installed or not.
    """
    env = dict(os.environ)
    package_root = str(Path(lvrsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def _run_cli(args, cwd) -> None:
    result = subprocess.run(
        [sys.executable, "-m", "lvrsim", *[str(a) for a in args]],
        cwd=cwd, capture_output=True, text=True, env=_cli_env(),
    )
    assert result.returncode == 0, f"{args}: {result.stderr}"


def test_criterion_9_pipeline_determinism(tmp_path):
    synth = tmp_path / "feed"
    _run_cli(["synth-gbm", "--sigma", 0.5, "--step-ms", 1000, "--horizon-ms", 900_000,
              "--seed", 99, "--price0", 2000, "--out", synth], tmp_path)
    _run_cli(["synth-gbm", "--sigma", 0.5, "--step-ms", 1000, "--horizon-ms", 900_000,
              "--seed", 99, "--price0", 2000, "--format", "quotes", "--out", synth],
             tmp_path)
    klines = synth / "gbm_klines.csv"
    quotes = synth / "gbm_quotes.csv"
    blocks = tmp_path / "blocks.csv"
    blocks.write_text(
        "block_number,timestamp_s\n" +
        "".join(f"{i},{i * 12}\n" for i in range(1, 60))
    )

    commands = {
        "synth-gbm": ["synth-gbm", "--sigma", 0.5, "--step-ms", 1000,
                      "--horizon-ms", 900_000, "--seed", 99, "--price0", 2000],
        "simulate-arb": ["simulate-arb", "--klines", klines, "--fee-bps", 30,
                         "--interval-ms", 4000],
        "simulate-arb-blocks": ["simulate-arb", "--klines", klines, "--blocks", blocks,
                                "--fee-bps", 5],
        "fees": ["fees", "--swaps", FIXTURE, "--position-liquidity", 500],
        "compare": ["compare", "--quotes", quotes, "--swaps", FIXTURE, "--fee-bps", 30,
                    "--interval-ms", 4000, "--position-liquidity", 500],
        "sweep-blocktime": ["sweep-blocktime", "--klines", klines, "--fee-bps", 5,
                            "--intervals-ms", "1000,2000,4000,8000,16000"],
        "sweep-fee": ["sweep-fee", "--quotes", quotes, "--interval-ms", 4000,
                      "--fees-bps", "10,20,30,50,100"],
    }
    n_tables = 0
    for name, args in commands.items():
        paths = []
        for attempt in ("first", "second"):
            out = tmp_path / name / attempt
            _run_cli([*args, "--out", out, "--seed", 7], tmp_path)
            paths.append(out)
        first_tables = sorted(p.name for p in paths[0].glob("*.csv"))
        second_tables = sorted(p.name for p in paths[1].glob("*.csv"))
        assert first_tables == second_tables and first_tables, name
        for table in first_tables:
            assert (paths[0] / table).read_bytes() == (paths[1] / table).read_bytes(), \
                f"{name}/{table} differs between reruns"
            n_tables += 1
    _report(9, "pipeline determinism",
            f"{len(commands)} subcommands, {n_tables} tables byte-identical")
