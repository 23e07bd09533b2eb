"""Simulation and backtesting of LP profitability on constant-product AMMs.

Quantifies (a) losses a liquidity position incurs to optimal arbitrageurs
trading against external market prices and (b) fee income attributed to the
position from historical swaps, and measures how arbitrage losses vary with
block interval and pool fee.
"""

__version__ = "0.1.0"

from .arbitrage import (
    ArbTrade,
    Quote,
    apply_arbitrage,
    lp_loss,
    no_arb_band,
    optimal_arb_trade,
    rebalancing_portfolio_value,
)
from .errors import FitError, InputError, InsufficientDataError, ParseError
from .feeds import (
    PriceSeries,
    QuoteSeries,
    align_to_blocks,
    load_block_timestamps,
    load_klines,
    load_quote_updates,
    quotes_from_prices,
)
from .fees import (
    PositionLedger,
    SwapRecord,
    SwapTable,
    accumulate,
    attribute_fees,
    convert_raw_swap_export,
    fee_earned,
    load_swap_records,
    relative_fee_return,
    sqrt_price_x96_to_price,
)
from .pool import (
    Direction,
    PoolState,
    SwapResult,
    concentration_scale,
    position_value,
    position_value_of_liquidity,
    spot_price,
    swap_exact_in,
)
from .simulation import (
    DEFAULT_INTERVALS_MS,
    EXTENDED_INTERVALS_MS,
    BlockSchedule,
    ComparisonReport,
    LossSeries,
    SweepResult,
    blocktime_sweep,
    fee_sweep,
    fees_vs_losses,
    gbm_generate,
    loglog_slope,
    run_arb_sim,
)

__all__ = [
    "ArbTrade",
    "BlockSchedule",
    "ComparisonReport",
    "DEFAULT_INTERVALS_MS",
    "Direction",
    "EXTENDED_INTERVALS_MS",
    "FitError",
    "InputError",
    "InsufficientDataError",
    "LossSeries",
    "ParseError",
    "PoolState",
    "PositionLedger",
    "PriceSeries",
    "Quote",
    "QuoteSeries",
    "SwapRecord",
    "SwapTable",
    "SwapResult",
    "SweepResult",
    "accumulate",
    "align_to_blocks",
    "apply_arbitrage",
    "attribute_fees",
    "blocktime_sweep",
    "concentration_scale",
    "convert_raw_swap_export",
    "fee_earned",
    "fee_sweep",
    "fees_vs_losses",
    "gbm_generate",
    "load_block_timestamps",
    "load_klines",
    "load_quote_updates",
    "load_swap_records",
    "loglog_slope",
    "lp_loss",
    "no_arb_band",
    "optimal_arb_trade",
    "position_value",
    "position_value_of_liquidity",
    "quotes_from_prices",
    "rebalancing_portfolio_value",
    "relative_fee_return",
    "run_arb_sim",
    "spot_price",
    "sqrt_price_x96_to_price",
    "swap_exact_in",
]
