"""Floating-leg pricing and the implied volatility / correlation inversions.

Constant-product pools admit a closed form: the expected pool value after a
lognormal price move at volatility sigma over horizon T is the current value
times exp(-sigma**2 T / 8), so the floating leg and its inverse are exact.
Those exact numbers anchor the Monte Carlo paths for the other curve kinds.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ammvol import (
    ArbitrageViolation,
    ConcentratedCpmm,
    Cpmm,
    CorrSolution,
    GbmParams,
    InvalidParams,
    IvSolution,
    McConfig,
    OutOfBounds,
    SimConfig,
    StableSwap,
    SwapSpec,
    attach_fee_vols,
    fee_vol_from_realized,
    floating_leg_value,
    implied_corr,
    implied_corr_bounds,
    implied_vol,
    implied_vol_cpmm_closed_form,
    lognormal_kernel_expectation,
    mc_expected_pool_value,
    mc_floating_leg,
    rolling_windows,
    run_simulation,
    synthetic_gbm_ticks,
)

CPMM_SPEC = SwapSpec(curve=Cpmm(1.0), maturity=1.0, p0x=1.0)
STABLE = StableSwap(100.0, 2.0, 1.0)
CONC = ConcentratedCpmm(1.0, 0.25, 4.0)

# 2*(1 - exp(-1/8)): floating leg of the unit constant-product pool at
# sigma=1, T=1, p0=1
LEG_AT_ONE = 2.0 * (1.0 - math.exp(-0.125))


def test_swap_spec_validation():
    with pytest.raises(InvalidParams):
        SwapSpec(curve="cpmm", maturity=1.0, p0x=1.0)
    with pytest.raises(InvalidParams):
        SwapSpec(curve=Cpmm(1.0), maturity=0.0, p0x=1.0)
    with pytest.raises(InvalidParams):
        SwapSpec(curve=Cpmm(1.0), maturity=1.0, p0x=-1.0)
    spec = SwapSpec(curve=Cpmm(1.0), maturity=1.0, p0x=3.0, p0y=2.0, liquidity_tokens=5.0)
    assert spec.q0 == pytest.approx(1.5)
    assert spec.notional_scale == pytest.approx(10.0)
    assert spec.pool_value_now() == pytest.approx(10.0 * 2.0 * math.sqrt(1.5), rel=1e-12)


def test_mc_config_validation():
    with pytest.raises(InvalidParams):
        McConfig(n_paths=1)
    assert McConfig().n_paths == 100_000


# ----- kernel expectation --------------------------------------------------------


def test_kernel_zero_vol_is_current_value():
    for curve in (Cpmm(1.0), CONC, STABLE):
        want = curve.pool_value(1.3)
        assert lognormal_kernel_expectation(curve, 1.3, 0.0, 1.0) == pytest.approx(want, rel=1e-12)


def test_kernel_cpmm_exact_golden():
    got = lognormal_kernel_expectation(Cpmm(1.0), 1.0, 1.0, 1.0)
    assert got == pytest.approx(1.764993805169191, rel=1e-15)
    assert got == pytest.approx(2.0 * math.exp(-0.125), rel=1e-15)


def test_mc_expected_pool_value_matches_cpmm_closed_form():
    mc = McConfig(n_paths=20_000, seed=12)
    for sigma in (0.1, 0.5, 1.0, 2.0):
        mean, se = mc_expected_pool_value(Cpmm(1.0), 1.0, sigma, 1.0, mc)
        want = 2.0 * math.exp(-sigma * sigma / 8.0)
        assert se > 0.0
        assert abs(mean - want) <= 3.0 * se
        assert se < 0.01


def test_floating_leg_monotone_in_sigma_under_crn():
    spec = SwapSpec(curve=STABLE, maturity=1.0, p0x=1.0)
    mc = McConfig(n_paths=4096, seed=3)
    values = [floating_leg_value(spec, s, mc) for s in (0.25, 0.5, 1.0, 2.0)]
    assert values == sorted(values)
    assert values[0] > 0.0


def test_floating_leg_cpmm_goldens():
    assert floating_leg_value(CPMM_SPEC, 0.0) == 0.0
    assert floating_leg_value(CPMM_SPEC, 1.0) == pytest.approx(LEG_AT_ONE, rel=1e-14)
    # enormous volatility drains the pool value entirely
    assert floating_leg_value(CPMM_SPEC, 50.0) == pytest.approx(2.0, rel=1e-9)
    value, stderr = mc_floating_leg(CPMM_SPEC, 1.0)
    assert stderr == 0.0
    assert value == pytest.approx(LEG_AT_ONE, rel=1e-14)


def test_floating_leg_scales_with_notional():
    spec = SwapSpec(curve=Cpmm(1.0), maturity=1.0, p0x=1.0, p0y=3.0, liquidity_tokens=2.0)
    # p0y=3 changes both the numeraire and q0
    base = 2.0 * math.sqrt(1.0 / 3.0) * (1.0 - math.exp(-0.125))
    assert floating_leg_value(spec, 1.0) == pytest.approx(6.0 * base, rel=1e-12)


# ----- implied volatility ----------------------------------------------------------


def test_closed_form_round_trip_golden():
    sigma = implied_vol_cpmm_closed_form(1.0, LEG_AT_ONE, 1.0)
    assert abs(sigma - 1.0) <= 1e-12


def test_closed_form_at_unit_fixed_leg():
    sigma = implied_vol_cpmm_closed_form(1.0, 1.0, 1.0)
    assert sigma == pytest.approx(math.sqrt(8.0 * math.log(2.0)), rel=1e-15)
    assert sigma == pytest.approx(2.3548200450309493, rel=1e-15)


def test_closed_form_edge_cases():
    assert implied_vol_cpmm_closed_form(1.0, 0.0, 1.0) == 0.0
    with pytest.raises(ArbitrageViolation):
        implied_vol_cpmm_closed_form(1.0, 2.0, 1.0)
    with pytest.raises(ArbitrageViolation):
        implied_vol_cpmm_closed_form(1.0, 2.1, 1.0)
    with pytest.raises(InvalidParams):
        implied_vol_cpmm_closed_form(1.0, -0.5, 1.0)
    with pytest.raises(InvalidParams):
        implied_vol_cpmm_closed_form(0.0, 0.5, 1.0)
    # scale invariance: L and sqrt(p0x) only enter through the cap
    a = implied_vol_cpmm_closed_form(4.0, 1.0, 1.0, liquidity_tokens=1.0)
    b = implied_vol_cpmm_closed_form(1.0, 1.0, 1.0, liquidity_tokens=2.0)
    assert a == pytest.approx(b, rel=1e-15)


def test_implied_vol_cpmm_solver_matches_closed_form():
    sol = implied_vol(CPMM_SPEC, 1.0)
    assert isinstance(sol, IvSolution)
    assert sol.sigma == pytest.approx(2.3548200450309493, abs=3e-6)
    assert sol.stderr == 0.0
    assert sol.iterations > 0


def test_implied_vol_zero_and_arbitrage():
    assert implied_vol(CPMM_SPEC, 0.0) == IvSolution(0.0, 0.0, 0)
    with pytest.raises(ArbitrageViolation):
        implied_vol(CPMM_SPEC, 2.0)
    with pytest.raises(InvalidParams):
        implied_vol(CPMM_SPEC, -1.0)
    with pytest.raises(InvalidParams):
        implied_vol(CPMM_SPEC, 1.0, tol=0.0)


@pytest.mark.parametrize(
    "curve",
    [Cpmm(1.5), ConcentratedCpmm(1.0, 0.25, 4.0), StableSwap(100.0, 2.0, 1.0)],
    ids=lambda c: c.kind,
)
def test_implied_vol_round_trip_light(curve):
    spec = SwapSpec(curve=curve, maturity=0.5, p0x=1.1)
    mc = McConfig(n_paths=1 << 14, seed=21)
    for sigma in (0.3, 1.2):
        value = floating_leg_value(spec, sigma, mc)
        sol = implied_vol(spec, value, mc)
        # same draws on both sides, so the inversion is tolerance-exact
        assert abs(sol.sigma - sigma) <= 2e-6 * max(1.0, sigma)
        assert sol.stderr >= 0.0


def test_implied_vol_stderr_reflects_path_count():
    spec = SwapSpec(curve=STABLE, maturity=1.0, p0x=1.0)
    value = floating_leg_value(spec, 0.5, McConfig(n_paths=1 << 14, seed=77))
    small = implied_vol(spec, value, McConfig(n_paths=1 << 10, seed=5))
    large = implied_vol(spec, value, McConfig(n_paths=1 << 16, seed=5))
    assert small.stderr > large.stderr > 0.0


# ----- implied correlation -----------------------------------------------------------


def test_corr_bounds_golden():
    lo, hi = implied_corr_bounds(CPMM_SPEC, 2.0, 1.0)
    assert lo == pytest.approx(LEG_AT_ONE, rel=1e-14)
    assert hi == pytest.approx(2.0 * (1.0 - math.exp(-9.0 / 8.0)), rel=1e-14)
    assert round(lo, 4) == 0.2350
    assert round(hi, 4) == 1.3507


def test_corr_endpoints_pin_rho():
    lo = implied_corr(CPMM_SPEC, 2.0, 1.0, 0.2350)
    assert lo.rho == 1.0
    assert lo.sigma_bar == pytest.approx(1.0)
    assert lo.stderr == 0.0 and lo.iterations == 0
    hi = implied_corr(CPMM_SPEC, 2.0, 1.0, 1.3507)
    assert hi.rho == -1.0
    assert hi.sigma_bar == pytest.approx(3.0)


def test_corr_midpoint_golden():
    # sigma_bar**2 = 4 + 1 at rho = 0, so this fixed leg implies exactly zero
    pi_bar = 2.0 * (1.0 - math.exp(-5.0 / 8.0))
    sol = implied_corr(CPMM_SPEC, 2.0, 1.0, pi_bar)
    assert isinstance(sol, CorrSolution)
    assert abs(sol.rho) <= 2e-6
    assert sol.sigma_bar == pytest.approx(math.sqrt(5.0), abs=3e-6)


def test_corr_out_of_bounds_and_validation():
    with pytest.raises(OutOfBounds):
        implied_corr(CPMM_SPEC, 2.0, 1.0, 1.4)
    with pytest.raises(OutOfBounds):
        implied_corr(CPMM_SPEC, 2.0, 1.0, 0.1)
    with pytest.raises(InvalidParams):
        implied_corr(CPMM_SPEC, 0.0, 1.0, 0.5)
    with pytest.raises(InvalidParams):
        implied_corr(CPMM_SPEC, 2.0, 1.0, math.inf)


def test_corr_symmetric_in_component_vols():
    pi_bar = 0.9
    a = implied_corr(CPMM_SPEC, 2.0, 1.0, pi_bar)
    b = implied_corr(CPMM_SPEC, 1.0, 2.0, pi_bar)
    assert a.rho == pytest.approx(b.rho, abs=1e-12)
    assert a.sigma_bar == pytest.approx(b.sigma_bar, abs=1e-12)


def test_corr_monotone_in_fixed_leg():
    # richer floating leg means higher effective variance means lower rho
    legs = [0.4, 0.7, 1.0, 1.3]
    rhos = [implied_corr(CPMM_SPEC, 2.0, 1.0, leg).rho for leg in legs]
    assert rhos == sorted(rhos, reverse=True)


def test_corr_stable_curve_round_trip():
    spec = SwapSpec(curve=STABLE, maturity=1.0, p0x=1.0)
    mc = McConfig(n_paths=1 << 14, seed=9)
    sx, sy, rho_true = 0.8, 0.5, -0.25
    sigma_bar = math.sqrt(sx * sx - 2 * rho_true * sx * sy + sy * sy)
    pi_bar = floating_leg_value(spec, sigma_bar, mc)
    sol = implied_corr(spec, sx, sy, pi_bar, mc)
    assert sol.rho == pytest.approx(rho_true, abs=1e-5)
    assert sol.stderr > 0.0


# ----- realized fee vol ---------------------------------------------------------------


def test_fee_vol_from_realized_zero_and_validation():
    assert fee_vol_from_realized(0.0, CPMM_SPEC) == 0.0
    with pytest.raises(InvalidParams):
        fee_vol_from_realized(-0.1, CPMM_SPEC)
    with pytest.raises(InvalidParams):
        fee_vol_from_realized(math.nan, CPMM_SPEC)


def test_fee_vol_from_realized_cpmm_closed_form():
    got = fee_vol_from_realized(LEG_AT_ONE, CPMM_SPEC)
    assert got == pytest.approx(1.0, abs=1e-12)
    # scaled notional: same curve rescaled, fees scale linearly
    spec = SwapSpec(curve=Cpmm(1.0), maturity=1.0, p0x=1.0, liquidity_tokens=10.0)
    assert fee_vol_from_realized(10.0 * LEG_AT_ONE, spec) == pytest.approx(1.0, abs=1e-12)


def test_fee_vol_general_path_agrees_with_closed_form_shape():
    spec = SwapSpec(curve=STABLE, maturity=0.25, p0x=1.0)
    mc = McConfig(n_paths=1 << 14, seed=31)
    fees = floating_leg_value(spec, 0.6, mc)
    assert fee_vol_from_realized(fees, spec) == pytest.approx(0.6, abs=2e-6)


def test_attach_fee_vols_round_trip():
    series = synthetic_gbm_ticks(GbmParams(0.5), 1.0, 0.0, 12 * 3600, 5, seed=15)
    ledger = run_simulation(Cpmm(1.0), series, 0.003, SimConfig(initial_investment=100.0))
    stats = rolling_windows(ledger, 3 * 3600, 3 * 3600)
    assert all(math.isnan(w.fee_vol) for w in stats)
    attached = attach_fee_vols(ledger, stats)
    assert len(attached) == len(stats)
    for w in attached:
        assert math.isfinite(w.fee_vol)
        assert 0.2 <= w.fee_vol <= 0.8  # rough: realized fees track sigma=0.5
    # original list untouched
    assert all(math.isnan(w.fee_vol) for w in stats)


def test_fee_vol_reads_sigma_times_root_capture():
    # Where the leg grows like sigma**2, fee vol over the vol implied by the
    # window's LVR is sqrt(fees / LVR): on cpmm to two solves at tol 1e-6.
    # StableSwap's leg is no power of sigma, and the ratio strays by at most
    # 1.4 % on four seeds of this stream; checked at 3 %.  Its capture per
    # window is cpmm's, so a fee vol off 0.5 there is path sampling.
    series = synthetic_gbm_ticks(GbmParams(0.5), 1.0, 0.0, 4 * 86400, 1, seed=11)
    captures = []
    for curve, rtol in ((Cpmm(1.0), 1e-5), (STABLE, 0.03)):
        ledger = run_simulation(curve, series, 5e-4)
        windows = rolling_windows(ledger, 2 * 3600, 2 * 3600)
        fee_vol = np.array([w.fee_vol for w in attach_fee_vols(ledger, windows)])
        lvr_windows = [replace(w, fees=w.lvr) for w in windows]
        lvr_vol = np.array([w.fee_vol for w in attach_fee_vols(ledger, lvr_windows)])
        capture = np.array([w.fees / w.lvr for w in windows])
        np.testing.assert_allclose(fee_vol / lvr_vol, np.sqrt(capture), rtol=rtol)
        captures.append(capture)
    np.testing.assert_allclose(captures[1], captures[0], atol=0.01)
