"""The scalar arbitrage step and the replay, pinned by digest.

``test_replay_oracle.py`` compares the scan replay with a fold of
``arbitrage_step``, but on a crossed tick both sides of that comparison run
the same scalar code, so a change there goes unseen.  These digests pin
that code's outputs: a fold of ``arbitrage_step`` and ``run_simulation``
over one stream, for both constant-product curves, four fee rates and both
LVR modes.

The stream mixes holds, hops, jumps past both ends of the concentrated
range, quotes crossed past every fee band (so both legs fire, and on the
range's edge the clamp cancels one) and single-step moves near 4.5e11,
where a step of 1e-4 is under two ulps and often leaves both holdings
bitwise unchanged (a zero-size leg).  Prices are integers on a 1e-4 grid,
so every output comes from sqrt and the four arithmetic operations on
exact inputs: the digests have one value on every CPU and numpy.
"""

import hashlib
import random

import numpy as np

from ammvol import (
    ConcentratedCpmm,
    Cpmm,
    FillSide,
    PoolSimState,
    QuoteTick,
    SimConfig,
    TickSeries,
    arbitrage_step,
    run_simulation,
)

GRID = 10_000  # price units per 1.0
CURVES = (Cpmm(1.0), ConcentratedCpmm(1.0, 0.8, 1.25))
FEE_RATES = (0.0, 1e-4, 0.003, 0.2)
LVR_MODES = ("trade_side", "pool_spot")
STEP_DIGEST = "9ef4ac40713b420ff4ed435a853ff54d07d03e491c906ca352d34adedac12694"
REPLAY_DIGEST = "2d7a964cfc803d11a05bbe3cd6bade87343695ec62288cadcdd133904683435c"


def stream(seed=7, n=600):
    """(timestamp, bid, ask) rows; random() is the one draw Python keeps stable."""
    rng = random.Random(seed)
    mid = GRID
    rows = []
    for i in range(n):
        u = rng.random()
        if u < 0.06:  # a jump: under and over the range, home, or far up
            mid = (GRID // 2, 2 * GRID, GRID, 12_500, 2**52)[int(rng.random() * 5)]
        elif u < 0.35:
            mid += int(rng.random() * 7) - 3  # a step of up to 3 grid units
        elif u < 0.6:
            mid += int(rng.random() * 101) - 50
        # half the spread; a negative one crosses the quote, by up to 60 %
        half = (0, 0, mid // 2_000, -1, -(mid // 20_000), -(mid * 3 // 10))[int(rng.random() * 6)]
        rows.append((10 * i, (mid - half) / GRID, (mid + half) / GRID))
    return rows


ROWS = stream()


def configs():
    for curve in CURVES:
        for fee_rate in FEE_RATES:
            for mode in LVR_MODES:
                yield curve, fee_rate, mode


def update(digest, *values, dtype="<f8"):
    digest.update(np.ascontiguousarray(values, dtype=dtype).tobytes())


def test_arbitrage_step_is_pinned_by_digest():
    digest = hashlib.sha256()
    both_legs = cancelled = zero_size = 0
    for curve, fee_rate, mode in configs():
        state = PoolSimState(curve, 1.0, fee_rate)
        om = 1.0 - fee_rate
        for row in ROWS:
            tick = QuoteTick(*row)
            new, fills = arbitrage_step(state, tick, mode)
            update(digest, new.spot_price, new.cum_fees_x, new.cum_fees_y, new.cum_lvr)
            for fill in fills:
                update(digest, fill.timestamp, dtype="<i8")
                update(digest, fill.side is FillSide.POOL_SELLS_X, dtype="u1")
                update(digest, fill.delta_x, fill.delta_y, fill.fee_paid, fill.execution_price)
            both_fire = tick.bid * om > state.spot_price and tick.ask / om < state.spot_price
            both_legs += len({fill.side for fill in fills}) == 2
            cancelled += both_fire and len(fills) < 2 and curve is CURVES[1]
            zero_size += new is not state and not fills
            state = new
    # the stream reaches every branch of the step
    assert both_legs > 0 and cancelled > 0 and zero_size > 0
    assert digest.hexdigest() == STEP_DIGEST


def test_crossed_replay_is_pinned_by_digest():
    series = TickSeries(*zip(*ROWS))
    digest = hashlib.sha256()
    for curve, fee_rate, mode in configs():
        ledger = run_simulation(curve, series, fee_rate, SimConfig(None, mode))
        update(digest, ledger.event_ts, dtype="<i8")
        for values in (ledger.event_spot, ledger.event_cum_fees_x, ledger.event_cum_fees_y,
                       ledger.event_cum_fees_usd, ledger.event_cum_lvr_usd):
            update(digest, values)
        for column, dtype in zip(ledger.fills.columns, ("<i8", "u1", "<f8", "<f8", "<f8", "<f8")):
            update(digest, column, dtype=dtype)
    assert digest.hexdigest() == REPLAY_DIGEST
