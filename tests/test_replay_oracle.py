"""The scan replay against a fold of the scalar ``arbitrage_step``.

``run_simulation`` computes the spot path as a clamp prefix scan and the
fills from one vectorized holdings evaluation; the reference applies
``arbitrage_step`` tick by tick from the ledger's opening state.  Streams
mix constant stretches, moves of a few ulps, small hops, jumps far past
the curves' trade bounds and crossed quotes, some crossed past the fee band
so that both legs can fire.

Event timestamps and spots, fill timestamps, sides and execution prices
must match exactly.  Fill sizes, fees and the cumulative series must be
bit-equal for Cpmm; for the other curves, whose holdings come from the
same arithmetic in the scalar and array methods but with no closed form,
they must agree to a relative 1e-12 or an absolute 1e-12 of the pool's
opening value.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammvol import (
    ConcentratedCpmm,
    Cpmm,
    FillSide,
    PoolSimState,
    SimConfig,
    StableSwap,
    TickSeries,
    arbitrage_step,
    run_simulation,
)

CURVES = {
    "cpmm": Cpmm(1.0),
    "range": ConcentratedCpmm(1.0, 0.8, 1.25),
    "stable": StableSwap(100.0, 2.0, 1.0),
    "stable_steep": StableSwap(1000.0, 3.0, 1.5),
}
REL_TOL = 1e-12
ABS_TOL = 1e-12  # of the pool value at the opening spot

moves = st.one_of(
    st.just(("hold", 0.0)),
    st.tuples(st.just("ulp"), st.integers(-3, 3)),
    st.tuples(st.just("hop"), st.floats(-0.02, 0.02)),
    st.tuples(st.just("jump"), st.sampled_from([-40.0, -6.0, 6.0, 40.0])),
)
# bid = mid*(1 - s/2), ask = mid*(1 + s/2); negative s crosses the quote
spreads = st.sampled_from([0.0, 0.0, 1e-4, 0.01, -1e-4, -0.01, -0.5])
streams = st.lists(st.tuples(moves, spreads), min_size=1, max_size=40)


def make_series(p0, stream):
    log_mid = math.log(p0)
    mid = p0
    ts, bids, asks = [], [], []
    for i, ((kind, size), spread) in enumerate(stream):
        if kind == "ulp":
            for _ in range(abs(size)):
                mid = math.nextafter(mid, math.copysign(math.inf, size))
            log_mid = math.log(mid)
        elif kind in ("hop", "jump"):
            log_mid = min(max(log_mid + size, -45.0), 45.0)
            mid = math.exp(log_mid)
        ts.append(10 * i)
        bids.append(mid * (1.0 - 0.5 * spread))
        asks.append(mid * (1.0 + 0.5 * spread))
    return TickSeries(ts, bids, asks)


def fold(ledger, series):
    """Events, fills and cumulative series from arbitrage_step per tick."""
    state = PoolSimState(ledger.curve, ledger.initial_spot, ledger.fee_rate)
    events, fills, cums = [], [], []
    usd = 0.0
    for i in range(len(series)):
        tick = series.tick(i)
        new, tick_fills = arbitrage_step(state, tick, ledger.lvr_mode)
        if new is state:
            continue
        tick_usd = 0.0
        for fill in tick_fills:
            tick_usd += fill.fee_paid if fill.side is FillSide.POOL_SELLS_X else fill.fee_paid * tick.mid
        usd += tick_usd
        state = new
        events.append((tick.timestamp, state.spot_price))
        fills.extend(tick_fills)
        cums.append((state.cum_fees_x, state.cum_fees_y, usd, state.cum_lvr))
    return events, fills, cums


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(CURVES)),
    st.sampled_from(["trade_side", "pool_spot"]),
    st.sampled_from([0.0, 1e-4, 0.003, 0.2]),
    st.sampled_from([None, 100.0]),
    st.floats(0.5, 2.0),
    streams,
)
@example("cpmm", "trade_side", 0.003, None, 1.0, [(("hold", 0.0), -0.5), (("hop", 0.01), -0.5)])
@example("range", "pool_spot", 0.0, 100.0, 1.0, [(("jump", 40.0), 0.0), (("jump", -40.0), -0.5)])
@example("stable", "trade_side", 0.0, 100.0, 1.0, [(("ulp", 1), 0.0)] * 5 + [(("ulp", -3), 0.0)])
@example("stable_steep", "pool_spot", 1e-4, None, 1.5, [(("jump", 40.0), 0.0), (("jump", -6.0), -0.5)])
def test_scan_replay_matches_arbitrage_step_fold(kind, mode, fee_rate, investment, p0, stream):
    series = make_series(p0, stream)
    ledger = run_simulation(CURVES[kind], series, fee_rate, SimConfig(investment, mode))
    events, fills, cums = fold(ledger, series)

    assert list(zip(ledger.event_ts.tolist(), ledger.event_spot.tolist())) == events
    assert [(f.timestamp, f.side, f.execution_price) for f in ledger.fills] == [
        (f.timestamp, f.side, f.execution_price) for f in fills
    ]
    got = [(f.delta_x, f.delta_y, f.fee_paid) for f in ledger.fills]
    want = [(f.delta_x, f.delta_y, f.fee_paid) for f in fills]
    columns = (
        ledger.event_cum_fees_x, ledger.event_cum_fees_y,
        ledger.event_cum_fees_usd, ledger.event_cum_lvr_usd,
    )
    got_cums = list(zip(*(c.tolist() for c in columns)))
    if kind == "cpmm":
        assert got == want
        assert got_cums == cums
        return
    atol = ABS_TOL * ledger.curve.pool_value(ledger.initial_spot)
    for row, ref in zip(got + got_cums, want + cums):
        for a, b in zip(row, ref):
            assert math.isclose(a, b, rel_tol=REL_TOL, abs_tol=atol), (row, ref)
