"""Invariants of the tick replay that hold on any quote stream.

Hypothesis draws random-walk streams with hops, jumps past the curves'
trade bounds and crossed quotes, replays them with ``run_simulation`` and
checks what the arbitrage model guarantees:

- every fee is nonnegative, so the cumulative fee series never fall;
- after every tick whose no-trade band is not crossed, the pool spot lies
  inside that band clipped to the trade bounds (Angeris and Chitra 2020,
  "Improved price oracles: constant function market makers");
- every fill is profitable for the arbitrageur at its execution price, net
  of the fee;
- in ``pool_spot`` mode every realized LVR increment is nonnegative, by
  concavity of the pool value (Milionis et al. 2022, "Automated market
  making and loss-versus-rebalancing").

Fill sizes are differences of holdings known to rounding, so profit and
LVR may miss zero by ROUNDING times the pool value at the price of the
trade (and the LVR increments, read off the cumulative series, by ROUNDING
times its running total).
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammvol import ConcentratedCpmm, Cpmm, FillSide, SimConfig, StableSwap, TickSeries, run_simulation

CURVES = {
    "cpmm": Cpmm(1.0),
    "range": ConcentratedCpmm(1.0, 0.8, 1.25),
    "stable": StableSwap(100.0, 2.0, 1.0),
    "stable_steep": StableSwap(1000.0, 3.0, 1.5),
}
ROUNDING = 1e-12
INVARIANT = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# log-mid steps: moves of a few ulps, hops, and jumps past the trade bounds
steps = st.one_of(
    st.floats(-1e-12, 1e-12),
    st.floats(-0.02, 0.02),
    st.sampled_from([0.0, -40.0, -6.0, 6.0, 40.0]),
)
# bid = mid*(1 - s/2), ask = mid*(1 + s/2); negative s crosses the quote
spreads = st.sampled_from([0.0, 1e-4, 0.01, -1e-4, -0.01, -0.5])
streams = st.lists(st.tuples(steps, spreads), min_size=1, max_size=60)
replays = st.tuples(
    st.sampled_from(sorted(CURVES)),
    st.sampled_from(["trade_side", "pool_spot"]),
    st.sampled_from([0.0, 1e-4, 0.003, 0.2]),
    st.floats(0.5, 2.0),
    streams,
)


def replay(kind, mode, fee_rate, p0, stream):
    log_mid = math.log(p0)
    ts, bids, asks = [], [], []
    for i, (step, spread) in enumerate(stream):
        log_mid = min(max(log_mid + step, -45.0), 45.0)
        mid = math.exp(log_mid)
        ts.append(10 * i)
        bids.append(mid * (1.0 - 0.5 * spread))
        asks.append(mid * (1.0 + 0.5 * spread))
    series = TickSeries(ts, bids, asks)
    ledger = run_simulation(CURVES[kind], series, fee_rate, SimConfig(100.0, mode))
    return series, ledger


@INVARIANT
@given(replays)
# a crossed first tick whose bid leg moves the spot one ulp, where rounding
# leaves the pool's y falling
@example(("stable", "trade_side", 0.2, 1.1645536717112017, [(1e-05, -0.5)]))
def test_fees_are_nonnegative(case):
    _, ledger = replay(*case)
    assert all(fill.fee_paid >= 0.0 for fill in ledger.fills)
    for cum in (ledger.event_cum_fees_x, ledger.event_cum_fees_y, ledger.event_cum_fees_usd):
        assert np.all(np.diff(cum, prepend=0.0) >= 0.0)


@INVARIANT
@given(replays)
def test_spot_ends_every_uncrossed_tick_inside_the_no_trade_band(case):
    series, ledger = replay(*case)
    om = 1.0 - ledger.fee_rate
    lo, hi = ledger.curve.trade_bounds
    spots = ledger.spot_at(series.timestamps)
    for bid, ask, spot in zip(series.bids.tolist(), series.asks.tolist(), spots.tolist()):
        lower, upper = bid * om, ask / om
        if lower <= upper:
            assert min(max(lower, lo), hi) <= spot <= min(max(upper, lo), hi)


@INVARIANT
@given(replays)
def test_every_fill_profits_the_arbitrageur_at_its_execution_price(case):
    _, ledger = replay(*case)
    for fill in ledger.fills:
        p = fill.execution_price
        tol = ROUNDING * ledger.curve.pool_value_grid(np.array([p]))[0]
        if fill.side is FillSide.POOL_SELLS_X:
            profit = -fill.delta_x * p - (fill.delta_y + fill.fee_paid)
        else:
            profit = -fill.delta_y - (fill.delta_x + fill.fee_paid) * p
        assert profit >= -tol, (fill, profit)


@INVARIANT
@given(replays)
def test_pool_spot_lvr_increments_are_nonnegative(case):
    kind, _, fee_rate, p0, stream = case
    _, ledger = replay(kind, "pool_spot", fee_rate, p0, stream)
    cum = np.concatenate([[0.0], ledger.event_cum_lvr_usd])
    tol = ROUNDING * (ledger.curve.pool_value_grid(ledger.event_spot) + np.abs(cum[:-1]))
    increments = np.diff(cum)
    assert np.all(increments >= -tol), increments.min()
