"""Tick replay, arbitrage mechanics, window statistics, fits.

Single-tick goldens are hand-derived for the unit constant-product pool:
a quote at b with fee gamma moves the spot to b*(1-gamma) (bid side) or
b/(1-gamma) (ask side), and the fee equals gamma/(1-gamma) times the net
input leg.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammvol import (
    ConcentratedCpmm,
    Cpmm,
    DegenerateInput,
    EmptyInput,
    Fill,
    FillSide,
    GbmParams,
    InsufficientData,
    InvalidParams,
    PoolEventSeries,
    PoolSimState,
    QuoteTick,
    SimConfig,
    StableSwap,
    TickSeries,
    UnsortedInput,
    arbitrage_step,
    historical_volatility,
    linear_fit,
    realized_lvr_increment,
    replay_pool_events,
    rolling_windows,
    run_simulation,
    synthetic_gbm_ticks,
)

CPMM = Cpmm(1.0)
NO_SCALE = SimConfig(initial_investment=None)


def flat_series(prices, t0=0):
    ts = np.arange(t0, t0 + len(prices), dtype=np.int64)
    p = np.asarray(prices, dtype=float)
    return TickSeries(ts, p, p)


# ----- quote containers -------------------------------------------------------


def test_quote_tick_basics():
    tick = QuoteTick(5, 0.99, 1.01)
    assert tick.mid == pytest.approx(1.0)
    with pytest.raises(InvalidParams):
        QuoteTick(0, -1.0, 1.0)
    with pytest.raises(InvalidParams):
        QuoteTick(0, 1.0, 0.0)
    # crossed quotes are representable; validate() decides acceptability
    QuoteTick(0, 1.2, 0.8)


def test_tick_series_validate():
    ts = flat_series([1.0, 1.1, 1.2])
    assert ts.validate() is ts
    with pytest.raises(UnsortedInput):
        TickSeries(np.array([0, 0]), np.array([1.0, 1.0]), np.array([1.0, 1.0])).validate()
    with pytest.raises(EmptyInput):
        TickSeries(np.array([], dtype=np.int64), np.array([]), np.array([])).validate()
    crossed = TickSeries(np.array([0, 1]), np.array([1.0, 1.3]), np.array([1.0, 0.9]))
    with pytest.raises(InvalidParams, match="row 1"):
        crossed.validate()
    crossed.validate(allow_crossed=True)


def test_tick_series_validate_reports_the_first_offending_row():
    # row 1 breaks the quote rule, row 3 the order: row 1 is reported
    series = TickSeries(np.array([0, 1, 2, 2]), np.array([1.0, 0.0, 1.0, 1.0]), np.ones(4))
    with pytest.raises(InvalidParams, match="row 1"):
        series.validate()
    # on one row the quote rule comes before the crossed check and the order
    series = TickSeries(np.array([0, 0]), np.array([1.0, np.nan]), np.ones(2))
    with pytest.raises(InvalidParams, match="row 1: quotes"):
        series.validate()
    series = TickSeries(np.array([0, 0]), np.array([1.0, 1.5]), np.ones(2))
    with pytest.raises(InvalidParams, match="row 1: crossed"):
        series.validate()
    with pytest.raises(UnsortedInput, match="row 1"):
        series.validate(allow_crossed=True)


def test_pool_event_series_validate_reports_the_first_offending_row():
    events = PoolEventSeries(np.array([0, 1, 1]), np.array([1.0, 1.0, -1.0]), np.zeros(3), np.zeros(3))
    with pytest.raises(UnsortedInput, match="row 2"):
        PoolEventSeries(np.array([0, 1, 1]), np.ones(3), np.zeros(3), np.zeros(3)).validate()
    with pytest.raises(InvalidParams, match="row 2: price"):
        events.validate()
    events.fees_y[1] = -0.5
    with pytest.raises(InvalidParams, match="row 1: fee"):
        events.validate()


def test_tick_series_round_trip_from_ticks():
    ticks = [QuoteTick(0, 0.99, 1.01), QuoteTick(3, 1.04, 1.08)]
    series = TickSeries.from_ticks(ticks)
    assert len(series) == 2
    assert series.tick(1) == ticks[1]
    assert series.mids[1] == pytest.approx(1.06)


# ----- single-tick arbitrage ---------------------------------------------------


def test_bid_arbitrage_zero_fee_golden():
    state = PoolSimState(CPMM, spot_price=1.0, fee_rate=0.0)
    new, fills = arbitrage_step(state, QuoteTick(7, 1.1, 1.1))
    assert len(fills) == 1
    fill = fills[0]
    assert fill.side is FillSide.POOL_SELLS_X
    assert fill.timestamp == 7
    assert fill.execution_price == 1.1
    assert fill.delta_x == pytest.approx(-0.04653741075440776, rel=1e-14)
    assert fill.delta_y == pytest.approx(0.04880884817015163, rel=1e-14)
    assert fill.fee_paid == 0.0
    assert new.spot_price == pytest.approx(1.1, rel=1e-15)
    assert new.cum_lvr == pytest.approx(0.0023823036596969105, rel=1e-12)
    assert new.cum_fees_x == 0.0 and new.cum_fees_y == 0.0


def test_bid_arbitrage_fee_golden():
    state = PoolSimState(CPMM, spot_price=1.0, fee_rate=0.003)
    new, fills = arbitrage_step(state, QuoteTick(0, 1.1, 1.1))
    assert new.spot_price == pytest.approx(1.1 * 0.997, rel=1e-15)
    assert new.cum_fees_y == pytest.approx(0.00014212974889092796, rel=1e-12)
    assert new.cum_fees_x == 0.0
    assert fills[0].fee_paid == pytest.approx(new.cum_fees_y, rel=1e-15)
    # trade-side valuation books the fill at the external price
    assert new.cum_lvr == pytest.approx(0.002379936740361882, rel=1e-12)


def test_bid_arbitrage_pool_spot_mode():
    state = PoolSimState(CPMM, spot_price=1.0, fee_rate=0.003)
    new, _ = arbitrage_step(state, QuoteTick(0, 1.1, 1.1), lvr_mode="pool_spot")
    assert new.cum_lvr == pytest.approx(0.0022310935704965354, rel=1e-12)
    with pytest.raises(InvalidParams):
        arbitrage_step(state, QuoteTick(0, 1.1, 1.1), lvr_mode="nope")


def test_ask_arbitrage_zero_fee_golden():
    state = PoolSimState(CPMM, spot_price=1.0, fee_rate=0.0)
    new, fills = arbitrage_step(state, QuoteTick(2, 0.9, 0.9))
    fill = fills[0]
    assert fill.side is FillSide.POOL_BUYS_X
    assert fill.delta_x == pytest.approx(0.05409255338945984, rel=1e-14)
    assert fill.delta_y == pytest.approx(-0.05131670194948623, rel=1e-14)
    assert new.spot_price == pytest.approx(0.9, rel=1e-15)
    assert new.cum_lvr > 0.0


def test_quote_inside_band_is_a_no_op():
    state = PoolSimState(CPMM, spot_price=1.0, fee_rate=0.003)
    new, fills = arbitrage_step(state, QuoteTick(0, 1.001, 1.002))
    assert fills == []
    assert new is state


def test_crossed_tick_runs_both_legs():
    state = PoolSimState(CPMM, spot_price=1.0, fee_rate=0.0)
    new, fills = arbitrage_step(state, QuoteTick(0, 1.3, 0.8))
    assert [f.side for f in fills] == [FillSide.POOL_SELLS_X, FillSide.POOL_BUYS_X]
    assert new.spot_price == pytest.approx(0.8, rel=1e-15)
    assert new.cum_lvr > 0.0


def test_crossed_tick_runs_the_order_collecting_less_fee():
    fee_rate, bid, ask = 0.003, 1.3, 0.8
    om, mid = 1.0 - fee_rate, 0.5 * (bid + ask)
    new, fills = arbitrage_step(PoolSimState(CPMM, 1.0, fee_rate), QuoteTick(0, bid, ask))
    assert [f.side for f in fills] == [FillSide.POOL_BUYS_X, FillSide.POOL_SELLS_X]
    assert new.spot_price == bid * om

    def fees(order):
        """(fee_x, fee_y) of the legs run in ``order`` from spot 1, each the
        fee rate over 1 - fee rate times the net input."""
        spots = [1.0] + [ask / om if leg == "ask" else bid * om for leg in order]
        held = [CPMM.holdings(s) for s in spots]
        fee_x = fee_y = 0.0
        for leg, before, after in zip(order, held, held[1:]):
            if leg == "ask":
                fee_x += fee_rate * (after.x_qty - before.x_qty) / om
            else:
                fee_y += fee_rate * (after.y_qty - before.y_qty) / om
        return fee_x, fee_y

    ask_x, ask_y = fees(("ask", "bid"))
    bid_x, bid_y = fees(("bid", "ask"))
    assert ask_y + ask_x * mid < bid_y + bid_x * mid
    assert (new.cum_fees_x, new.cum_fees_y) == (ask_x, ask_y)


def test_arbitrage_clamps_at_range_boundary():
    pool = ConcentratedCpmm(1.0, 0.9, 1.05)
    state = PoolSimState(pool, spot_price=1.0, fee_rate=0.0)
    new, fills = arbitrage_step(state, QuoteTick(0, 2.0, 2.0))
    assert new.spot_price == pytest.approx(1.05, rel=1e-15)
    assert pool.holdings(1.05).x_qty == pytest.approx(0.0, abs=1e-15)
    # pinned at the boundary: an even better quote cannot move it
    again, fills2 = arbitrage_step(new, QuoteTick(1, 3.0, 3.0))
    assert fills2 == []
    assert again is new


def test_fill_profitability_never_negative():
    # the arbitrageur only trades to the band edge, so net of fees every
    # fill makes money against the external quote
    params = GbmParams(1.0)
    series = synthetic_gbm_ticks(params, 1.0, 0.0, 6 * 3600, 5, seed=41)
    ledger = run_simulation(CPMM, series, 0.001, NO_SCALE)
    assert len(ledger.fills) > 100
    by_ts = {int(t): (float(b), float(a)) for t, b, a in zip(ledger.timestamps, series.bids, series.asks)}
    for fill in ledger.fills:
        bid, ask = by_ts[fill.timestamp]
        if fill.side is FillSide.POOL_SELLS_X:
            profit = -fill.delta_x * bid - (fill.delta_y + fill.fee_paid)
        else:
            profit = -fill.delta_y - (fill.delta_x + fill.fee_paid) * ask
        assert profit >= -1e-12


# ----- full replay ---------------------------------------------------------------


def test_constant_quotes_produce_empty_ledger():
    series = flat_series([1.0] * 8)
    ledger = run_simulation(CPMM, series, 0.003, NO_SCALE)
    assert ledger.fills == []
    assert ledger.total_fees_usd == 0.0
    assert ledger.total_lvr_usd == 0.0
    assert ledger.final_state.spot_price == pytest.approx(1.0)
    assert ledger.spot_at(4) == pytest.approx(1.0)
    assert ledger.cum_fees_usd_at(7) == 0.0
    assert ledger.span_seconds == 7


def test_two_tick_fee_golden():
    series = flat_series([1.0, 1.1])
    ledger = run_simulation(CPMM, series, 0.003, NO_SCALE)
    assert len(ledger.fills) == 1
    assert ledger.total_fees_usd == pytest.approx(0.00014212974889092796, rel=1e-12)
    assert ledger.final_state.spot_price == pytest.approx(1.0967, rel=1e-15)
    # cumulative lookups: before the fill nothing has accrued
    assert ledger.cum_fees_usd_at(0) == 0.0
    assert ledger.cum_fees_usd_at(1) == pytest.approx(ledger.total_fees_usd, rel=1e-15)
    state0 = ledger.state_at(0)
    assert state0.cum_fees_y == 0.0 and state0.spot_price == pytest.approx(1.0)


def test_zero_fee_pool_tracks_mids_exactly():
    series = flat_series([1.0, 1.05, 0.97, 1.02, 1.02])
    ledger = run_simulation(CPMM, series, 0.0, NO_SCALE)
    spots = ledger.spot_at(ledger.timestamps)
    assert np.allclose(spots, series.mids, rtol=1e-14)
    assert ledger.total_fees_usd == 0.0
    assert ledger.total_lvr_usd > 0.0


def test_initial_investment_scaling():
    series = flat_series([2.0, 2.0])
    ledger = run_simulation(CPMM, series, 0.003, SimConfig(initial_investment=100.0))
    assert ledger.curve.liquidity_tokens == pytest.approx(35.35533905932737, rel=1e-14)
    assert ledger.curve.pool_value(2.0) == pytest.approx(100.0, rel=1e-12)  # in y units
    assert ledger.initial_state.spot_price == pytest.approx(2.0)


def test_initial_spot_clamped_into_tradeable_range():
    pool = ConcentratedCpmm(1.0, 2.0, 3.0)
    series = flat_series([1.0, 1.0])
    ledger = run_simulation(pool, series, 0.0, NO_SCALE)
    assert ledger.initial_spot == pytest.approx(2.0)


def test_accumulators_monotone_and_fees_close_to_lvr():
    params = GbmParams(0.5)
    series = synthetic_gbm_ticks(params, 1.0, 0.0, 86400, 1, seed=5)
    ledger = run_simulation(CPMM, series, 0.003, SimConfig(initial_investment=100.0))
    assert len(ledger.fills) > 1000
    assert np.all(np.diff(ledger.event_cum_fees_usd) > 0.0)
    assert np.all(np.diff(ledger.event_cum_lvr_usd) > 0.0)
    assert np.all(np.diff(ledger.event_cum_fees_x) >= 0.0)
    ratio = ledger.total_lvr_usd / ledger.total_fees_usd
    # trade-side realized LVR = fees + arbitrageur profit, slightly above 1
    assert 1.0 < ratio < 1.3


# fees/LVR minus 1 - P_trade, the largest over seeds 1-3 of the streams below
CAPTURE_GAP = {
    (0.5, 1): 0.0450, (0.5, 5): 0.0181, (0.5, 30): 0.0037,
    (1.0, 1): 0.0487, (1.0, 5): 0.0295, (1.0, 30): 0.0070,
}


@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_fee_capture_sits_just_above_the_poisson_block_formula(sigma):
    # Milionis, Moallemi and Roughgarden (arXiv:2305.14604): with blocks at
    # rate lambda, an arbitrageur trades in a block with probability
    # P_trade = 1 / (1 + sqrt(2 lambda) gamma / sigma_s), sigma_s the vol per
    # sqrt(second), and the LPs keep fees/LVR = 1 - P_trade.  Ticks every
    # second (lambda = 1/s) capture a little more than Poisson blocks do;
    # the bound is the measured gap plus a margin of 0.005.
    sigma_s = sigma / math.sqrt(365.25 * 86400.0)
    for seed in (1, 2, 3):
        series = synthetic_gbm_ticks(GbmParams(sigma), 1.0, 0.0, 2 * 86400, 1, seed=seed)
        for bp in (1, 5, 30):
            gamma = bp * 1e-4
            ledger = run_simulation(CPMM, series, gamma)
            p_trade = 1.0 / (1.0 + math.sqrt(2.0) * gamma / sigma_s)
            gap = ledger.total_fees_usd / ledger.total_lvr_usd - (1.0 - p_trade)
            assert 0.0 < gap < CAPTURE_GAP[sigma, bp] + 0.005, (seed, bp, gap)


def test_run_simulation_rejects_bad_fee_rate():
    series = flat_series([1.0, 1.0])
    with pytest.raises(InvalidParams):
        run_simulation(CPMM, series, 1.0, NO_SCALE)
    with pytest.raises(InvalidParams):
        run_simulation(CPMM, series, -0.1, NO_SCALE)


def test_fractions_in_zero_one_are_one_typed_rule():
    # a number's text converts, as for every other number rule; a non-number
    # is InvalidParams, not a TypeError from comparing it with 0
    state = PoolSimState(CPMM, 1.0, "0.003")
    assert type(state.fee_rate) is float and state.fee_rate == 0.003
    with pytest.raises(InvalidParams, match=r"fee_rate must lie in \[0, 1\), got None"):
        run_simulation(CPMM, flat_series([1.0, 1.0]), None, NO_SCALE)
    with pytest.raises(InvalidParams, match=r"spread must lie in \[0, 1\), got 'x'"):
        synthetic_gbm_ticks(GbmParams(0.5), 1.0, "x", 10, 1)
    with pytest.raises(InvalidParams, match="fee_rate"):
        PoolSimState(CPMM, 1.0, "x")
    with pytest.raises(InvalidParams, match="lvr_mode must be one of"):
        SimConfig(lvr_mode="nope")


def test_ledger_lookup_before_first_event():
    series = flat_series([1.0, 1.2], t0=100)
    ledger = run_simulation(CPMM, series, 0.0, NO_SCALE)
    assert ledger.cum_fees_usd_at(99) == 0.0
    assert ledger.spot_at(100) == pytest.approx(1.0)
    assert ledger.spot_at(101) == pytest.approx(1.2)
    arr = ledger.cum_lvr_usd_at(np.array([99, 100, 101]))
    assert arr[0] == 0.0 and arr[1] == 0.0 and arr[2] > 0.0


def test_zero_size_leg_moves_spot_without_a_fill():
    # sqrt(1 + 2**-52) rounds to 1, so the unit pool's holdings stay bitwise
    q = math.nextafter(1.0, 2.0)
    assert CPMM.holdings(q) == CPMM.holdings(1.0)
    ledger = run_simulation(CPMM, flat_series([1.0, q]), 0.0, NO_SCALE)
    assert ledger.fills == []
    assert ledger.spot_at(1) == q
    assert ledger.total_fees_usd == 0.0 and ledger.total_lvr_usd == 0.0
    new, fills = arbitrage_step(PoolSimState(CPMM, 1.0, 0.0), QuoteTick(1, q, q))
    assert fills == []
    assert new.spot_price == q and new.cum_lvr == 0.0


@pytest.mark.parametrize("amp", [100.0, 1000.0, 20000.0])
def test_stableswap_fills_are_holdings_differences(amp):
    # 2,000 hops of 1e-3 near the flat center, where a warm-started scalar
    # inversion drifted off `holdings` by up to 7e-11 of the holdings
    pool = StableSwap(amp, 2.0, 1.0)
    rng = np.random.default_rng(23)
    q = [1.0]
    for step in rng.choice([-1e-3, 1e-3], size=2000):
        nxt = q[-1] * (1.0 + step)
        q.append(nxt if 0.9 <= nxt <= 1.1 else q[-1] * (1.0 - step))
    ledger = run_simulation(pool, flat_series(q), 5e-4, NO_SCALE)
    assert len(ledger.fills) > 1000
    before = pool.holdings(ledger.initial_spot)
    for fill in ledger.fills:
        after = pool.holdings(ledger.spot_at(fill.timestamp))
        assert abs(fill.delta_x - (after.x_qty - before.x_qty)) <= 1e-12 * before.x_qty
        assert abs(fill.delta_y - (after.y_qty - before.y_qty)) <= 1e-12 * before.y_qty
        before = after


# ----- pool event replay ----------------------------------------------------------


def test_replay_pool_events_matches_increment_oracle():
    prices = np.array([1.0, 1.1, 0.9, 1.05])
    events = PoolEventSeries(np.arange(4), prices, np.zeros(4), np.zeros(4))
    config = SimConfig(initial_investment=None, lvr_mode="pool_spot")
    ledger = replay_pool_events(CPMM, events, config)
    assert ledger.lvr_mode == "pool_spot"
    cum = 0.0
    for k in range(3):
        cum += realized_lvr_increment(
            CPMM.holdings(prices[k]), prices[k], prices[k + 1], 1.0, 1.0, CPMM
        )
        assert ledger.cum_lvr_usd_at(k + 1) == pytest.approx(cum, rel=1e-12)
    assert ledger.cum_lvr_usd_at(1) == pytest.approx(0.0023823036596969144, rel=1e-12)
    assert ledger.cum_lvr_usd_at(2) == pytest.approx(
        0.0023823036596969144 + 0.009558582390157222, rel=1e-12
    )


def test_replay_pool_events_dollarizes_fees():
    events = PoolEventSeries(
        np.arange(3),
        np.array([1.0, 1.0, 0.9]),
        np.array([0.0, 0.0, 0.2]),
        np.array([0.0, 0.1, 0.0]),
    )
    ledger = replay_pool_events(CPMM, events, SimConfig(initial_investment=None, lvr_mode="pool_spot"))
    assert ledger.total_fees_usd == pytest.approx(0.1 + 0.2 * 0.9, rel=1e-14)
    assert ledger.cum_fees_x_at(2) == pytest.approx(0.2)
    assert ledger.cum_fees_y_at(1) == pytest.approx(0.1)


def test_pool_event_series_validation():
    with pytest.raises(UnsortedInput):
        PoolEventSeries(np.array([0, 0]), np.ones(2), np.zeros(2), np.zeros(2)).validate()
    with pytest.raises(InvalidParams):
        PoolEventSeries(np.array([0, 1]), np.ones(2), np.zeros(2), -np.ones(2)).validate()
    with pytest.raises(EmptyInput):
        PoolEventSeries(np.array([], dtype=np.int64), np.array([]), np.array([]), np.array([])).validate()
    with pytest.raises(InvalidParams):
        PoolEventSeries(np.array([0, 1]), np.ones(2), np.zeros(1), np.zeros(2))


def test_replay_records_compare_by_identity():
    # their array columns have no single truth value, so == is identity
    series = synthetic_gbm_ticks(GbmParams(0.5), 1.0, 0.0, 600, 1, seed=3)
    first, second = (run_simulation(CPMM, series, 5e-4, NO_SCALE) for _ in range(2))
    events = PoolEventSeries(np.arange(2), np.ones(2), np.zeros(2), np.zeros(2))
    assert first == first and series == series and events == events
    assert first != second
    assert series != synthetic_gbm_ticks(GbmParams(0.5), 1.0, 0.0, 600, 1, seed=3)
    assert events != PoolEventSeries(np.arange(2), np.ones(2), np.zeros(2), np.zeros(2))


# ----- windows, volatility, fits ----------------------------------------------------


def test_rolling_windows_count_and_telescoping():
    params = GbmParams(0.5)
    series = synthetic_gbm_ticks(params, 1.0, 0.0, 100, 1, seed=13)
    ledger = run_simulation(CPMM, series, 0.001, NO_SCALE)
    stats = rolling_windows(ledger, window_seconds=30, stride_seconds=10)
    assert len(stats) == (100 - 30) // 10 + 1
    assert stats[0].window_start == 0 and stats[0].window_end == 30
    assert stats[-1].window_start == 70
    assert math.isnan(stats[0].fee_vol)
    # non-overlapping windows telescope to the covered total
    tiling = rolling_windows(ledger, 25, 25)
    total = sum(w.fees for w in tiling)
    assert total == pytest.approx(
        float(ledger.cum_fees_usd_at(100) - ledger.cum_fees_usd_at(0)), rel=1e-12
    )


def test_rolling_windows_need_enough_span():
    series = flat_series([1.0] * 10)
    ledger = run_simulation(CPMM, series, 0.001, NO_SCALE)
    with pytest.raises(InsufficientData):
        rolling_windows(ledger, window_seconds=60, stride_seconds=10)
    with pytest.raises(InvalidParams):
        rolling_windows(ledger, 0, 10)


def test_rolling_window_hist_vol_recovers_sigma():
    params = GbmParams(0.5)
    series = synthetic_gbm_ticks(params, 1.0, 0.0, 2 * 86400, 5, seed=2)
    ledger = run_simulation(CPMM, series, 0.003, NO_SCALE)
    stats = rolling_windows(ledger, 86400, 6 * 3600)
    assert len(stats) == 5
    for w in stats:
        assert w.hist_vol == pytest.approx(0.5, rel=0.05)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_ticks=st.integers(3, 300),
    max_gap=st.integers(1, 5),
    drift=st.floats(1e-6, 1e-2) | st.floats(-1e-2, -1e-6),
    log10_ratio=st.floats(0.0, 10.0),
    window_frac=st.floats(0.0, 1.0),
    stride_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
# one-second ticks, drift 1e-3 and noise 1e-11 per tick, 3,600 s windows: the
# one-pass variance S2 - S1**2/n read 0.0 on both windows, against 5.6e-8
@example(n_ticks=7201, max_gap=1, drift=1e-3, log10_ratio=8.0, window_frac=0.5, stride_frac=0.5, seed=2)
def test_window_hist_vol_is_the_two_pass_sample_sd(
    n_ticks, max_gap, drift, log10_ratio, window_frac, stride_frac, seed
):
    rng = np.random.default_rng(seed)
    ts = np.concatenate(([0], np.cumsum(rng.integers(1, max_gap + 1, n_ticks - 1))))
    noise = abs(drift) / 10.0**log10_ratio
    mids = np.exp(np.concatenate(([0.0], np.cumsum(drift + noise * rng.standard_normal(n_ticks - 1)))))
    ledger = run_simulation(CPMM, TickSeries(ts, mids, mids), 0.003, NO_SCALE)
    span = int(ts[-1])
    window = max(1, round(window_frac * span))
    stats = rolling_windows(ledger, window, max(1, round(stride_frac * span)))
    assert stats
    log_mids = np.log(ledger.mids)
    for w in stats:
        inside = np.flatnonzero((ts >= w.window_start) & (ts <= w.window_end))
        if inside.size < 3:  # no return: missing; one return: no dispersion
            assert w.hist_vol == 0.0 if inside.size == 2 else math.isnan(w.hist_vol)
            continue
        a, b = int(inside[0]), int(inside[-1])
        per_tick = np.std(np.diff(log_mids[a : b + 1]), ddof=1)
        want = per_tick * math.sqrt(365.25 * 86400.0 / ((ts[b] - ts[a]) / (b - a)))
        assert math.isclose(w.hist_vol, want, rel_tol=1e-13), (w, want)


def test_historical_volatility_conventions():
    assert historical_volatility([1.0, 1.0, 1.0], 60.0) == 0.0
    # a single return carries no dispersion information once demeaned
    assert historical_volatility([1.0, 1.3], 60.0) == 0.0
    with pytest.raises(InsufficientData):
        historical_volatility([1.0], 60.0)
    with pytest.raises(InvalidParams):
        historical_volatility([1.0, 2.0], 0.0)
    with pytest.raises(InvalidParams):
        historical_volatility([1.0, -2.0], 60.0)


def test_historical_volatility_gbm_consistency():
    series = synthetic_gbm_ticks(GbmParams(0.5), 1.0, 0.0, 86400, 1, seed=3)
    vol = historical_volatility(series.mids, 1.0)
    assert vol == pytest.approx(0.5, rel=0.02)


def test_linear_fit_goldens():
    slope, intercept, pearson = linear_fit([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert slope == pytest.approx(2.0, rel=1e-14)
    assert intercept == 0.0
    assert pearson == pytest.approx(1.0, rel=1e-12)
    # proportional series recover the factor exactly through the origin
    xs = np.array([0.3, 1.1, 0.7, 2.0])
    slope, _, pearson = linear_fit(xs, 0.97 * xs)
    assert slope == pytest.approx(0.97, rel=1e-14)
    assert pearson == pytest.approx(1.0, rel=1e-12)
    # origin fit does not demean
    slope, _, _ = linear_fit([1.0, 2.0], [1.0, 3.0])
    assert slope == pytest.approx(1.4, rel=1e-14)


def test_linear_fit_with_intercept():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    slope, intercept, pearson = linear_fit(xs, 2.0 * xs + 1.0, with_intercept=True)
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert intercept == pytest.approx(1.0, rel=1e-12)
    assert pearson == pytest.approx(1.0, rel=1e-12)


def test_linear_fit_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        linear_fit([1.0], [1.0])
    with pytest.raises(DegenerateInput):
        linear_fit([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateInput):
        linear_fit([2.0, 2.0], [1.0, 3.0])
    slope, _, pearson = linear_fit([1.0, 2.0], [3.0, 3.0])
    assert slope > 0.0
    assert math.isnan(pearson)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1.0, 1e200, 1e300])
def test_linear_fit_is_scale_free(scale):
    # moments of the raw series would under- or overflow at these scales
    xs, ys = [1.0, 2.0, 3.0], [1.0, 2.0, 3.5]
    for with_intercept in (False, True):
        ref_slope, ref_intercept, ref_pearson = linear_fit(xs, ys, with_intercept)
        slope, intercept, pearson = linear_fit([scale * x for x in xs], [scale * y for y in ys], with_intercept)
        assert slope == pytest.approx(ref_slope, rel=1e-12)
        assert intercept == pytest.approx(scale * ref_intercept, rel=1e-12)
        assert pearson == pytest.approx(ref_pearson, rel=1e-12)


def test_linear_fit_rejects_non_finite_series_and_slope():
    with pytest.raises(DegenerateInput):
        linear_fit([1.0, math.inf], [1.0, 2.0])
    with pytest.raises(DegenerateInput):
        linear_fit([1.0, 2.0], [math.nan, 2.0])
    with pytest.raises(DegenerateInput):
        linear_fit([1e-200, 2e-200, 3e-200], [1e200, 2e200, 3.5e200])


# ----- synthetic tick generator ------------------------------------------------------


def test_synthetic_gbm_zero_vol_is_deterministic_drift():
    params = GbmParams(0.0, r=0.05)
    series = synthetic_gbm_ticks(params, 2.0, 0.0, 3600, 60, seed=9)
    assert len(series) == 61
    t_years = 60.0 * np.arange(61) / (365.25 * 86400.0)
    assert np.allclose(series.mids, 2.0 * np.exp(0.05 * t_years), rtol=1e-12)
    assert np.allclose(series.bids, series.asks)


def test_synthetic_gbm_spread_and_timestamps():
    series = synthetic_gbm_ticks(GbmParams(0.3), 1.0, 0.001, 100, 10, seed=1, start_timestamp=500)
    assert series.timestamps[0] == 500
    assert series.timestamps[-1] == 600
    rel = (series.asks - series.bids) / series.mids
    assert np.allclose(rel, 0.001, rtol=1e-9)


def test_synthetic_gbm_deterministic_per_seed():
    a = synthetic_gbm_ticks(GbmParams(0.4), 1.0, 0.0, 600, 1, seed=7)
    b = synthetic_gbm_ticks(GbmParams(0.4), 1.0, 0.0, 600, 1, seed=7)
    c = synthetic_gbm_ticks(GbmParams(0.4), 1.0, 0.0, 600, 1, seed=8)
    assert np.array_equal(a.mids, b.mids)
    assert not np.array_equal(a.mids, c.mids)


def test_synthetic_gbm_uses_effective_pair_volatility():
    # sigma_x = sigma_y with rho = 1 nets out to a constant ratio
    params = GbmParams(0.4, 0.4, 1.0)
    series = synthetic_gbm_ticks(params, 1.0, 0.0, 600, 1, seed=4)
    assert np.allclose(series.mids, 1.0, rtol=1e-12)
    with pytest.raises(InvalidParams):
        synthetic_gbm_ticks(params, -1.0, 0.0, 600, 1)
    with pytest.raises(InvalidParams):
        synthetic_gbm_ticks(params, 1.0, 1.5, 600, 1)
