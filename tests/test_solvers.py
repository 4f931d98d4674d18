"""Floating-leg pricing and the implied volatility / correlation inversions.

Constant-product pools admit a closed form: the expected pool value after a
lognormal price move at volatility sigma over horizon T is the current value
times exp(-sigma**2 T / 8), so the floating leg and its inverse are exact.
Those exact numbers anchor the Monte Carlo paths for the other curve kinds.
"""

import math
from dataclasses import replace

import fee_vol_reference
import numpy as np
import pytest

from ammvol import (
    AmmVolError,
    ArbitrageViolation,
    ConcentratedCpmm,
    Cpmm,
    CorrSolution,
    GbmParams,
    InvalidParams,
    IvSolution,
    McConfig,
    NoConvergence,
    OutOfBounds,
    SimConfig,
    StableSwap,
    SwapSpec,
    WindowStat,
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
from ammvol.dataio import read_windows, write_windows
from ammvol.fees import MAX_PATHS

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
    with pytest.raises(InvalidParams, match="at most"):
        McConfig(n_paths=MAX_PATHS + 2)
    assert McConfig(n_paths=MAX_PATHS).n_paths == MAX_PATHS
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
    # at the pool value the quote is an arbitrage before any band applies
    with pytest.raises(ArbitrageViolation):
        implied_corr(CPMM_SPEC, 2.0, 1.0, 2.0)
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


# ----- the batched fee-vol Newton against the scalar oracle ------------------------------


def _fee_vol_stream(curve, seed=21):
    """A 2-day 5 s stream's ledger on ``curve`` and its 30-minute windows on a
    15-minute stride, every 7th with zero fees."""
    series = synthetic_gbm_ticks(GbmParams(0.5), 1.0, 0.0, 2 * 86400, 5, seed=seed)
    ledger = run_simulation(curve, series, 5e-4, SimConfig(initial_investment=100.0))
    windows = rolling_windows(ledger, 1800, 900)
    return ledger, [replace(w, fees=0.0) if k % 7 == 3 else w for k, w in enumerate(windows)]


@pytest.mark.parametrize("curve", [Cpmm(1.0), ConcentratedCpmm(1.0, 0.5, 2.0), STABLE], ids=lambda c: c.kind)
def test_batched_fee_vols_match_the_scalar_oracle(curve):
    ledger, windows = _fee_vol_stream(curve)
    assert len(windows) >= 100  # over 300 windows across the three curves
    got = attach_fee_vols(ledger, windows)
    want = fee_vol_reference.attach_fee_vols(ledger, windows)
    assert [w.fee_vol == 0.0 for w in got] == [w.fees == 0.0 for w in windows]
    for k, (g, w) in enumerate(zip(got, want)):
        assert g.fee_vol == pytest.approx(w.fee_vol, rel=1e-9, abs=0.0), k
        assert g.fee_vol_iterations == w.fee_vol_iterations, k
        assert (g.fee_vol_iterations == 0) == (g.fees == 0.0), k


def _windows_with_fees(fees):
    return [WindowStat(3600 * k, 3600 * (k + 1), fee, 0.0, 0.5) for k, fee in enumerate(fees)]


@pytest.mark.parametrize(
    "fees",
    [
        [0.01, 250.0, 0.01],  # fees at or above the pool value: refused before any iteration
        # the second window needs a vol above the cap, which takes a full
        # bisection to find; the third is refused before any iteration
        [0.01, 60.0, 250.0],
        # the same across a chunk boundary, the late failure ending the first chunk
        [0.01] * 15 + [60.0, 250.0],
        # a leg beyond the float range fails at the first iteration, after a late failure
        [0.01, 60.0, 0.02],
    ],
    ids=["arbitrage", "late-then-early", "across-chunks", "late-then-overflow"],
)
def test_the_first_failing_window_raises_its_error(fees, monkeypatch):
    ledger = run_simulation(Cpmm(1.0), synthetic_gbm_ticks(GbmParams(0.5), 1.0, 0.0, 20 * 3600, 60, seed=4),
                            5e-4, SimConfig(initial_investment=100.0))
    windows = _windows_with_fees(fees)
    if fees[-1] == 0.02:  # the last window's leg overflows at any vol
        spot = ledger.spot_at(windows[-1].window_start)
        assert all(ledger.spot_at(w.window_start) != spot for w in windows[:-1])
        legs = Cpmm.floating_leg_grid

        def overflowing(self, q0, s):
            value, vega = legs(self, q0, s)
            return np.where(q0 == spot, math.inf, value), vega

        monkeypatch.setattr(Cpmm, "floating_leg_grid", overflowing)
    with pytest.raises(AmmVolError) as want:
        fee_vol_reference.attach_fee_vols(ledger, windows)
    with pytest.raises(AmmVolError) as got:
        attach_fee_vols(ledger, windows)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert "60" in str(got.value) or "250" in str(got.value)


class _AboveEveryQuote(ConcentratedCpmm):
    """A leg that stays above any quote below the pool value, whatever the vol."""

    def floating_leg_grid(self, q0, s):
        return np.full(np.shape(q0), 0.5), np.zeros(np.shape(q0))


def test_a_leg_that_never_crosses_the_quote_is_no_convergence():
    # a bisection toward sigma = 0 used to stop at 2**-20 and return it as the root
    spec = SwapSpec(curve=_AboveEveryQuote(1.0, 0.5, 2.0), maturity=1.0, p0x=1.0)
    assert spec.pool_value_now() > 0.5
    with pytest.raises(NoConvergence, match="every floating leg evaluated lies above it") as err:
        fee_vol_from_realized(0.2, spec)
    with pytest.raises(NoConvergence) as oracle:
        fee_vol_reference._solve_leg(spec, 0.2, spec.pool_value_now(), 1e-6)
    assert str(err.value) == str(oracle.value)
    with pytest.raises(NoConvergence, match="without bracketing"):
        implied_vol(spec, 0.2, McConfig(n_paths=256))


def test_attach_fee_vols_carries_iterations_outside_the_windows_csv(tmp_path):
    ledger, windows = _fee_vol_stream(STABLE)
    attached = attach_fee_vols(ledger, windows[:20])
    assert all(w.fee_vol_iterations == 0 for w in windows)
    assert [w.fee_vol_iterations > 0 for w in attached] == [w.fees > 0.0 for w in attached]
    assert max(w.fee_vol_iterations for w in attached) <= 100
    path = tmp_path / "w.csv"
    write_windows(path, attached)
    assert path.read_text().splitlines()[0] == "start,end,fees,lvr,hist_vol,fee_vol"
    back = read_windows(path)
    assert all(w.fee_vol_iterations == 0 for w in back)
    assert back == attached  # a diagnostic, not part of a window's value
