"""Non-finite quotes, prices, fees, rates, vols and Monte Carlo inputs are
rejected at the validation point, and so is a seed the generator cannot take,
a fractional count and a request whose values overflow a double.

NaN compares false against every bound, so sign checks alone let it through
and a replay would carry it silently into window statistics; an infinite
maturity, vol or price turns a Monte Carlo estimate into NaN, and an
infinite vol prices the floating leg at the whole pool value.
"""

import math

import numpy as np
import pytest

from ammvol import (
    ConcentratedCpmm,
    Cpmm,
    GbmParams,
    InvalidParams,
    McConfig,
    PoolEventSeries,
    RangeError,
    SimConfig,
    StableSwap,
    SwapSpec,
    TickSeries,
    fee_vol_from_realized,
    floating_leg_value,
    historical_volatility,
    implied_corr,
    implied_vol,
    implied_vol_cpmm_closed_form,
    lognormal_kernel_expectation,
    mc_expected_pool_value,
    mc_fee_plus_terminal_value,
    mc_floating_leg,
    replay_pool_events,
    rolling_windows,
    run_simulation,
    synthetic_gbm_ticks,
)
from ammvol.fees import concentrated_lvr_with_rate, cpmm_unit_lvr_with_rate

NON_FINITE = (np.nan, np.inf, -np.inf)
LEDGER = run_simulation(Cpmm(1.0), synthetic_gbm_ticks(GbmParams(0.5), 1.0, 0.0, 3600, 60, seed=4), 5e-4)
STABLE_SPEC = SwapSpec(StableSwap(100.0, 2.0), 0.5, 1.0)
# liquidity_tokens * p0y, the swap notional, overflows a double
HUGE_NOTIONAL = SwapSpec(Cpmm(1.0), 1.0, 1.0, 1e300, liquidity_tokens=1e300)


def mc_run(n_paths=4, n_steps=2):
    return mc_fee_plus_terminal_value(Cpmm(1.0), GbmParams(0.5), 1.0, 1.0, 1.0, n_paths=n_paths, n_steps=n_steps)


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("field", ["bids", "asks"])
def test_tick_series_rejects_non_finite_quotes(field, bad):
    series = synthetic_gbm_ticks(GbmParams(0.5), 1.0, 0.0, 2 * 3600, 60, seed=4)
    getattr(series, field)[30] = bad
    with pytest.raises(InvalidParams, match="row 30"):
        series.validate(allow_crossed=True)
    with pytest.raises(InvalidParams):
        run_simulation(Cpmm(1.0), series, 5e-4, SimConfig(initial_investment=100.0))


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("field", ["prices", "fees_x", "fees_y"])
def test_pool_events_reject_non_finite_values(field, bad):
    events = PoolEventSeries(np.arange(4), np.array([1.0, 1.1, 0.9, 1.05]), np.zeros(4), np.zeros(4))
    getattr(events, field)[2] = bad
    with pytest.raises(InvalidParams):
        events.validate()
    with pytest.raises(InvalidParams):
        replay_pool_events(Cpmm(1.0), events)


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_martingale_mc_rejects_non_finite_maturity(bad):
    with pytest.raises(InvalidParams, match="maturity"):
        mc_fee_plus_terminal_value(Cpmm(1.0), GbmParams(0.5), 1.0, 1.0, bad, n_paths=4, n_steps=2)


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("name", ["p0", "sigma", "maturity"])
def test_mc_expected_pool_value_rejects_non_finite_inputs(name, bad):
    args = {"p0": 1.0, "sigma": 0.5, "maturity": 1.0, name: bad}
    with pytest.raises(InvalidParams, match=name):
        mc_expected_pool_value(Cpmm(1.0), mc=McConfig(n_paths=16), **args)


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("name", ["p0", "sigma", "maturity"])
def test_lognormal_kernel_expectation_rejects_non_finite_inputs(name, bad):
    args = {"p0": 1.0, "sigma": 0.5, "maturity": 1.0, name: bad}
    with pytest.raises(InvalidParams, match=name):
        lognormal_kernel_expectation(Cpmm(1.0), **args)


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("leg", [floating_leg_value, mc_floating_leg], ids=lambda f: f.__name__)
def test_floating_legs_reject_non_finite_sigma(leg, bad):
    with pytest.raises(InvalidParams, match="sigma"):
        leg(SwapSpec(Cpmm(1.0), 1.0, 1.0), bad)


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda bad: cpmm_unit_lvr_with_rate(1.0, bad, 0.5),
        lambda bad: cpmm_unit_lvr_with_rate(1.0, 0.0, bad),
        lambda bad: concentrated_lvr_with_rate(1.0, 0.0, bad, 1.0, 0.5, 2.0),
        lambda bad: concentrated_lvr_with_rate(1.0, bad, 0.5, 1.0, 0.5, 2.0),
        lambda bad: historical_volatility([1.0, bad, 1.1], 1.0),
        lambda bad: implied_vol_cpmm_closed_form(bad, 0.1, 1.0),
        lambda bad: implied_vol_cpmm_closed_form(1.0, 0.1, bad),
        lambda bad: implied_vol_cpmm_closed_form(1.0, 0.1, 1.0, bad),
        lambda bad: rolling_windows(LEDGER, bad, 600),
        lambda bad: rolling_windows(LEDGER, 600, bad),
        lambda bad: synthetic_gbm_ticks(GbmParams(0.5), 1.0, 0.0, bad, 60),
        lambda bad: mc_run(n_paths=bad),
        lambda bad: mc_run(n_steps=bad),
    ],
    ids=["cpmm-rate", "cpmm-sigma", "concentrated-sigma", "concentrated-rate", "historical",
         "closed-form-p0x", "closed-form-maturity", "closed-form-liquidity", "window", "stride",
         "gbm-duration", "mc-paths", "mc-steps"],
)
def test_rates_and_vol_estimates_reject_non_finite_inputs(call, bad):
    with pytest.raises(InvalidParams):
        call(bad)


@pytest.mark.parametrize(
    "error, call",
    [
        (InvalidParams, lambda: mc_run(n_paths=10.5)),
        (InvalidParams, lambda: mc_run(n_steps=2.5)),
        (InvalidParams, lambda: synthetic_gbm_ticks(GbmParams(0.5), 1.0, 0.0, 10.5, 1)),
        (InvalidParams, lambda: implied_vol(STABLE_SPEC, 0.05, McConfig(256), tol=2.0)),
        (InvalidParams, lambda: fee_vol_from_realized(0.05, STABLE_SPEC, tol=1.0)),
        (RangeError, lambda: concentrated_lvr_with_rate(1.0, 0.0, 0.5, 1.0, 0.5, math.inf)),
        (InvalidParams, lambda: SwapSpec(Cpmm(1.0), 1.0, 1e-300, 1e300)),
        (InvalidParams, lambda: implied_vol(HUGE_NOTIONAL, 0.5, McConfig(256))),
        (InvalidParams, lambda: mc_floating_leg(HUGE_NOTIONAL, 0.5, McConfig(256))),
        (InvalidParams, lambda: floating_leg_value(SwapSpec(ConcentratedCpmm(1.0, 0.5, 2.0), 5e16, 1.0), 1e300)),
        (InvalidParams, lambda: floating_leg_value(SwapSpec(StableSwap(100.0, 2.0), 5e16, 1.0), 1e300)),
    ],
    ids=["mc-paths-fraction", "mc-steps-fraction", "gbm-duration-fraction", "solve-tol", "fee-vol-tol",
         "range-to-infinity", "price-ratio-underflow", "solve-notional", "price-notional",
         "concentrated-leg", "stableswap-leg"],
)
def test_fractions_and_overflowing_values_raise_typed_errors(error, call):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call",
    [
        # pi_bar / leg underflows to 0 at every trial vol: the solve bisects
        lambda: implied_vol(SwapSpec(Cpmm(3.4e38), 1e7, 6.5e299), 2.8e-238, McConfig(256)),
        lambda: implied_corr(SwapSpec(Cpmm(1.0), 1.0, 1.0), 1e-300, 1e-300, 0.0, McConfig(256)),
        lambda: implied_corr(SwapSpec(Cpmm(1.0), 1.0, 1.0), 1e200, 1e200, 1.0, McConfig(256)),
    ],
    ids=["solve-quote-underflow", "corr-tiny-vols", "corr-huge-vols"],
)
def test_solves_at_extreme_scales_return_finite_answers(call):
    solution = call()
    assert all(math.isfinite(value) for value in vars(solution).values())


def test_closed_form_vol_survives_an_overflowing_variance():
    # sigma**2 = 8 log(cap / (cap - pi_bar)) / T overflows; sigma does not
    assert implied_vol_cpmm_closed_form(1.0, 1.0, 1e-310) == pytest.approx(2.354820045030953e155, rel=1e-15)
    near_cap = math.nextafter(2.0, 0.0)
    sigma = implied_vol_cpmm_closed_form(1.0, near_cap, 1e-306)
    assert sigma == pytest.approx(math.sqrt(8.0 * math.log(2.0 / (2.0 - near_cap))) * 1e153, rel=1e-14)
    # an ordinary maturity keeps the one-expression result bit for bit
    assert implied_vol_cpmm_closed_form(1.0, 0.1, 0.25) == math.sqrt(8.0 / 0.25 * math.log(2.0 / 1.9))


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_monte_carlo_path_counts_must_be_finite(bad):
    with pytest.raises(InvalidParams, match="n_paths"):
        McConfig(n_paths=bad)
    assert McConfig(n_paths=1000.0).n_paths == 1000


@pytest.mark.parametrize("seed", [-1, 2.0, "3"], ids=repr)
def test_monte_carlo_seeds_must_be_nonnegative_integers(seed):
    with pytest.raises(InvalidParams, match="seed"):
        McConfig(n_paths=16, seed=seed)
    with pytest.raises(InvalidParams, match="seed"):
        synthetic_gbm_ticks(GbmParams(0.5), 1.0, 0.0, 3600, 60, seed=seed)
    with pytest.raises(InvalidParams, match="seed"):
        mc_fee_plus_terminal_value(Cpmm(1.0), GbmParams(0.5), 1.0, 1.0, 1.0, n_paths=4, n_steps=2, seed=seed)
