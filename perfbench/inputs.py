"""Deterministic input files for the benchmark workloads.

Built from numpy alone, never from lvrsim, so that a change to the program
cannot change what it is benchmarked on. Prices use only uniform draws and
IEEE arithmetic (no SIMD transcendental functions), and every float is
written with ``repr``, so the same seed gives the same bytes and the files
parse back to exactly the arrays returned here.

Sizes are given at ``scale`` 1.0, the historical sizes the benchmark is
named after; the benchmark runs them at a fraction of that.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

YEAR_S = 365 * 86400
DAY_S = 86400
T0_S = 1_698_796_800  # 2023-11-01T00:00:00Z
SIGMA = 0.7  # per sqrt(year)
PRICE0 = 2000.0
FIRST_BLOCK = 18_000_000


def _gbm(rng: np.random.Generator, n: int, step_s: float) -> np.ndarray:
    """Multiplicative random walk with unit-variance uniform shocks."""
    shocks = (rng.random(n - 1) - 0.5) * (math.sqrt(12.0) * SIGMA * math.sqrt(step_s / YEAR_S))
    prices = np.empty(n)
    prices[0] = PRICE0
    prices[1:] = PRICE0 * np.cumprod(1.0 + shocks)
    return prices


def _strs(values: np.ndarray) -> list[str]:
    return list(map(repr, values.tolist()))


def _write_csv(path: Path, header: str, columns: list[list[str]]) -> dict:
    text = header + "\n" + "\n".join(map(",".join, zip(*columns))) + "\n"
    data = text.encode("ascii")
    path.write_bytes(data)
    return {"rows": len(columns[0]), "bytes": len(data)}


def _klines(path: Path, ts_ms: np.ndarray, opens: np.ndarray, rng) -> dict:
    # close is the next open; high and low reuse those strings, since float
    # formatting is most of the set-up time
    opens_s = _strs(opens)
    closes_s = opens_s[1:] + opens_s[-1:]
    rising = (np.append(opens[1:], opens[-1]) > opens).tolist()
    highs = [c if r else o for o, c, r in zip(opens_s, closes_s, rising)]
    lows = [o if r else c for o, c, r in zip(opens_s, closes_s, rising)]
    volumes = _strs(rng.integers(1, 100_000, size=len(opens)))
    return _write_csv(path, "timestamp_ms,open,high,low,close,volume",
                      [_strs(ts_ms), opens_s, highs, lows, closes_s, volumes])


def hist_arb(out: Path, seed: int, scale: float) -> dict:
    """30 days of 1 s klines (~0.2 % of seconds missing) and 12 s blocks (~1 % missed)."""
    rng = np.random.default_rng([seed, 1])
    n = max(int(30 * DAY_S * scale), 120)
    prices = _gbm(rng, n, 1.0)
    keep = rng.random(n) >= 0.002
    keep[0] = True
    ts_ms = (T0_S + np.arange(n, dtype=np.int64))[keep] * 1000
    opens = prices[keep]
    slots = T0_S + 12 * np.arange(n // 12, dtype=np.int64)
    block_s = slots[rng.random(len(slots)) >= 0.01]
    numbers = FIRST_BLOCK + np.arange(len(block_s), dtype=np.int64)
    files = {
        "klines": _klines(out / "klines.csv", ts_ms, opens, rng),
        "blocks": _write_csv(out / "blocks.csv", "block_number,timestamp_s",
                             [_strs(numbers), _strs(block_s)]),
    }
    return {"files": files, "kline_ts_ms": ts_ms, "opens": opens, "block_s": block_s}


def sweep_dense(out: Path, seed: int, scale: float) -> dict:
    """24 h of 100 ms bid/ask quotes, ~1 % of them preceded by a same-millisecond update."""
    rng = np.random.default_rng([seed, 2])
    n = max(int(10 * DAY_S * scale), 2000)
    mids = _gbm(rng, n, 0.1)
    half = mids * 0.5e-4
    ts = T0_S * 1000 + 100 * np.arange(n, dtype=np.int64)
    bids, asks = mids - half, mids + half
    dup = rng.random(n) < 0.01
    dup[0] = False
    # an overwritten update goes just before the row that replaces it
    jitter = 1.0 + (rng.random(int(dup.sum())) - 0.5) * 2e-4
    order = np.argsort(np.concatenate([np.flatnonzero(dup), np.arange(n)]), kind="stable")
    rows_ts = np.concatenate([ts[dup], ts])[order]
    rows_bid = np.concatenate([bids[dup] * jitter, bids])[order]
    rows_ask = np.concatenate([asks[dup] * jitter, asks])[order]
    files = {"quotes": _write_csv(out / "quotes.csv", "timestamp_ms,bid,ask",
                                  [_strs(rows_ts), _strs(rows_bid), _strs(rows_ask)])}
    return {"files": files, "ts_ms": ts, "bids": bids, "asks": asks,
            "duplicates": int(dup.sum())}


def fees_compare(out: Path, seed: int, scale: float) -> dict:
    """500 k swaps over 30 days in blocks of 1-3 swaps, with 30 days of 1-minute klines."""
    rng = np.random.default_rng([seed, 3])
    minutes = max(int(30 * 1440 * scale), 60)
    prices = _gbm(rng, minutes, 60.0)
    kline_ts = (T0_S + 60 * np.arange(minutes, dtype=np.int64)) * 1000

    n_swaps = max(int(500_000 * scale), 100)
    per_block = rng.integers(1, 4, size=n_swaps)
    per_block = per_block[: int(np.searchsorted(np.cumsum(per_block), n_swaps)) + 1]
    per_block[-1] -= int(per_block.sum()) - n_swaps
    n_blocks = len(per_block)
    span = int(kline_ts[-1] - kline_ts[0])
    gaps = rng.integers(1, 1000, size=n_blocks)
    block_ts = kline_ts[0] + np.cumsum(gaps) * (span // int(gaps.sum()))
    block_no = FIRST_BLOCK + np.cumsum(rng.integers(1, 3, size=n_blocks))
    swap_block = np.repeat(np.arange(n_blocks), per_block)
    ts = block_ts[swap_block]
    minute = (ts - kline_ts[0]) // 60_000
    is_x = rng.random(n_swaps) < 0.5
    size = 0.25 + 4.0 * rng.random(n_swaps) ** 3
    amounts = np.where(is_x, 2.5 * size, 5000.0 * size)
    post_price = prices[minute] * (1.0 + (rng.random(n_swaps) - 0.5) * 1e-3)
    liquidity = 1e6 * np.cumprod(1.0 + (rng.random(n_swaps) - 0.5) * 2e-3)
    fee_rate = 0.0005
    files = {
        "swaps": _write_csv(
            out / "swaps.csv",
            "block_number,timestamp_ms,input_token,amount_in,fee_rate,"
            "post_swap_price,post_swap_liquidity",
            [_strs(block_no[swap_block]), _strs(ts), np.where(is_x, "X", "Y").tolist(),
             _strs(amounts), [repr(fee_rate)] * n_swaps, _strs(post_price),
             _strs(liquidity)],
        ),
        "klines": _klines(out / "klines.csv", kline_ts, prices, rng),
    }
    return {"files": files, "kline_ts_ms": kline_ts, "opens": prices,
            "swap_block": block_no[swap_block], "swap_ts_ms": ts, "is_x": is_x,
            "amounts": amounts, "fee_rate": fee_rate, "post_price": post_price,
            "liquidity": liquidity}
