"""Non-finite quotes, prices, fees, rates, vols and Monte Carlo inputs are
rejected at the validation point, and so is a seed the generator cannot take.

NaN compares false against every bound, so sign checks alone let it through
and a replay would carry it silently into window statistics; an infinite
maturity, vol or price turns a Monte Carlo estimate into NaN, and an
infinite vol prices the floating leg at the whole pool value.
"""

import numpy as np
import pytest

from ammvol import (
    Cpmm,
    GbmParams,
    InvalidParams,
    McConfig,
    PoolEventSeries,
    SimConfig,
    SwapSpec,
    TickSeries,
    floating_leg_value,
    historical_volatility,
    lognormal_kernel_expectation,
    mc_expected_pool_value,
    mc_fee_plus_terminal_value,
    mc_floating_leg,
    replay_pool_events,
    run_simulation,
    synthetic_gbm_ticks,
)
from ammvol.fees import concentrated_lvr_with_rate, cpmm_unit_lvr_with_rate

NON_FINITE = (np.nan, np.inf, -np.inf)


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
    ],
    ids=["cpmm-rate", "cpmm-sigma", "concentrated-sigma", "concentrated-rate", "historical"],
)
def test_rates_and_vol_estimates_reject_non_finite_inputs(call, bad):
    with pytest.raises(InvalidParams):
        call(bad)


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
