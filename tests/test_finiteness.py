"""Non-finite quotes, prices, fees and Monte Carlo inputs are rejected at
the validation point.

NaN compares false against every bound, so sign checks alone let it through
and a replay would carry it silently into window statistics; an infinite
maturity, vol or price turns a Monte Carlo estimate into NaN.
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
    TickSeries,
    lognormal_kernel_expectation,
    mc_expected_pool_value,
    mc_fee_plus_terminal_value,
    replay_pool_events,
    run_simulation,
    synthetic_gbm_ticks,
)

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
