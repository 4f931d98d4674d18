"""Implied fee rate, realized-LVR increment and martingale engine tests.

Analytic goldens from the unit-liquidity constant-product algebra:
lvr(q) = sigma**2/4 * sqrt(q), and the one-step realized increment with
py = 1 collapses to (sqrt(q1) - sqrt(q0))**2 / sqrt(q0).  The martingale
Monte Carlo must equal, bit for bit, a plain copy of its step loop that
draws the antithetic mates by concatenating -z.
"""

import math

import numpy as np
import pytest

from ammvol import (
    ConcentratedCpmm,
    Cpmm,
    GbmParams,
    InvalidParams,
    RangeError,
    StableSwap,
    cpmm_unit_lvr_with_rate,
    concentrated_lvr_with_rate,
    dollar_pool_value,
    effective_variance,
    implied_fee_rate_dollars,
    instantaneous_lvr,
    mc_fee_plus_terminal_value,
    realized_lvr_increment,
)
from ammvol.fees import mc_mean_stderr

CPMM = Cpmm(1.0)


def test_effective_variance_goldens():
    assert effective_variance(GbmParams(0.2)) == pytest.approx(0.04, rel=1e-15)
    assert effective_variance(GbmParams(2.0, 1.0, 0.5)) == pytest.approx(3.0, rel=1e-15)
    assert effective_variance(GbmParams(1.0, 1.0, 1.0)) == 0.0
    assert effective_variance(GbmParams(1.0, 1.0, -1.0)) == pytest.approx(4.0, rel=1e-15)


def test_gbm_params_validation():
    with pytest.raises(InvalidParams):
        GbmParams(-0.1)
    with pytest.raises(InvalidParams):
        GbmParams(0.1, rho=1.5)
    with pytest.raises(InvalidParams):
        GbmParams(0.1, sigma_y=-1.0)


def test_gbm_params_dict_round_trip():
    params = GbmParams(0.8, 0.3, 0.5, 0.03)
    assert GbmParams.from_dict(params.to_dict()) == params
    assert GbmParams.from_dict({"sigmaX": 0.4}) == GbmParams(0.4)
    with pytest.raises(InvalidParams):
        GbmParams.from_dict({"sigmaY": 0.4})
    with pytest.raises(InvalidParams):
        GbmParams.from_dict([0.4])


def test_instantaneous_lvr_cpmm_golden():
    # sigma**2/4 * sqrt(q): 0.04/4 at q=1
    assert instantaneous_lvr(CPMM, 1.0, GbmParams(0.2)) == pytest.approx(0.01, rel=1e-14)
    assert instantaneous_lvr(CPMM, 9.0, GbmParams(0.2)) == pytest.approx(0.03, rel=1e-14)


def test_instantaneous_lvr_two_forms_agree():
    # -q**2 x' and +q y' give the same rate on every curve by tangency
    params = GbmParams(0.7, 0.2, -0.4)
    var = effective_variance(params)
    for curve in (CPMM, ConcentratedCpmm(2.0, 0.25, 4.0), StableSwap(100.0, 2.0, 1.0)):
        for q in (0.5, 1.0, 1.9):
            _, yp = curve.first_derivs(q)
            alt = 0.5 * var * q * yp
            assert instantaneous_lvr(curve, q, params) == pytest.approx(alt, rel=1e-9)


def test_lvr_only_depends_on_effective_variance():
    flat = instantaneous_lvr(CPMM, 2.0, GbmParams(math.sqrt(3.0)))
    combined = instantaneous_lvr(CPMM, 2.0, GbmParams(2.0, 1.0, 0.5))
    assert combined == pytest.approx(flat, rel=1e-12)


def test_implied_fee_rate_dollars_golden():
    params = GbmParams(0.2)
    want = 3.0 * 0.01 * math.sqrt(2.0 / 3.0)
    assert implied_fee_rate_dollars(CPMM, 2.0, 3.0, params) == pytest.approx(want, rel=1e-13)


def test_implied_fee_rate_dollars_homogeneous():
    params = GbmParams(0.5, 0.1, 0.2)
    base = implied_fee_rate_dollars(CPMM, 1.3, 0.7, params)
    assert implied_fee_rate_dollars(CPMM, 2.6, 1.4, params) == pytest.approx(2 * base, rel=1e-12)


def test_cpmm_unit_lvr_with_rate_golden():
    assert cpmm_unit_lvr_with_rate(0.25, 0.1, 0.3) == pytest.approx(0.06125, rel=1e-14)
    # r = 0 reduces to the flat-numeraire rate at unit liquidity
    assert cpmm_unit_lvr_with_rate(4.0, 0.0, 0.2) == pytest.approx(
        instantaneous_lvr(CPMM, 4.0, GbmParams(0.2)), rel=1e-13
    )
    with pytest.raises(InvalidParams):
        cpmm_unit_lvr_with_rate(1.0, -0.1, 0.3)


def test_concentrated_lvr_with_rate_golden():
    got = concentrated_lvr_with_rate(1.0, 0.1, 0.3, 2.0, 0.25, 4.0)
    assert got == pytest.approx(2.0 * (0.1225 - 0.05), rel=1e-14)
    # closed interval: endpoints owe fees
    edge = concentrated_lvr_with_rate(0.25, 0.1, 0.3, 2.0, 0.25, 4.0)
    assert edge == pytest.approx(2.0 * (0.1225 * 0.5 - 0.05), rel=1e-14)
    assert concentrated_lvr_with_rate(0.2, 0.1, 0.3, 2.0, 0.25, 4.0) == 0.0
    assert concentrated_lvr_with_rate(5.0, 0.1, 0.3, 2.0, 0.25, 4.0) == 0.0


def test_concentrated_lvr_below_full_range_when_r_positive():
    # the range position never owes the idle money-market rate on the
    # p_lo boundary stock
    for q in (0.3, 1.0, 3.9):
        ranged = concentrated_lvr_with_rate(q, 0.05, 0.4, 3.0, 0.25, 4.0)
        full = 3.0 * cpmm_unit_lvr_with_rate(q, 0.05, 0.4)
        assert ranged < full
    # and matches it exactly when r = 0
    assert concentrated_lvr_with_rate(1.7, 0.0, 0.4, 3.0, 0.25, 4.0) == pytest.approx(
        3.0 * cpmm_unit_lvr_with_rate(1.7, 0.0, 0.4), rel=1e-13
    )


def test_concentrated_lvr_validation():
    with pytest.raises(RangeError):
        concentrated_lvr_with_rate(1.0, 0.1, 0.3, 1.0, 4.0, 0.25)
    with pytest.raises(InvalidParams):
        concentrated_lvr_with_rate(1.0, 0.1, -0.3, 1.0, 0.25, 4.0)


# ----- realized increments --------------------------------------------------------


def test_realized_increment_golden():
    inc = realized_lvr_increment(CPMM.holdings(1.0), 1.0, 1.01, 1.0, 1.0, CPMM)
    assert inc == pytest.approx((math.sqrt(1.01) - 1.0) ** 2, rel=1e-10)


def test_realized_increment_matches_definition_both_legs_moving():
    x, y = CPMM.holdings(1.0)
    inc = realized_lvr_increment(CPMM.holdings(1.0), 1.0, 1.02, 1.0, 0.99, CPMM)
    want = (x * 0.02 + y * -0.01) - (
        dollar_pool_value(CPMM, 1.02, 0.99) - dollar_pool_value(CPMM, 1.0, 1.0)
    )
    assert inc == pytest.approx(want, rel=1e-12)
    assert inc > 0.0


def test_realized_increment_nonnegative_property():
    rng = np.random.Generator(np.random.Philox(11))
    curves = [CPMM, ConcentratedCpmm(1.0, 0.25, 4.0), StableSwap(100.0, 2.0, 1.0)]
    for _ in range(200):
        curve = curves[rng.integers(len(curves))]
        q0 = float(np.exp(rng.uniform(-0.5, 0.5)))
        py0 = float(np.exp(rng.uniform(-0.3, 0.3)))
        px1 = q0 * py0 * float(np.exp(rng.uniform(-0.2, 0.2)))
        py1 = py0 * float(np.exp(rng.uniform(-0.2, 0.2)))
        inc = realized_lvr_increment(curve.holdings(q0), q0 * py0, px1, py0, py1, curve)
        assert inc >= -1e-12


def test_realized_increment_unbiased_one_step():
    # E[inc]/dt -> lvr(q0) as dt -> 0; with exact GBM sampling the residual
    # bias is O(dt), far below Monte Carlo noise here
    sigma, dt, n = 0.5, 1e-4, 200_000
    rng = np.random.Generator(np.random.Philox(17))
    z = rng.standard_normal(n)
    q1 = np.exp(-0.5 * sigma * sigma * dt + sigma * math.sqrt(dt) * z)
    inc = (np.sqrt(q1) - 1.0) ** 2  # unit cpmm, py = 1, q0 = 1
    rate = instantaneous_lvr(CPMM, 1.0, GbmParams(sigma))
    mean = float(inc.mean()) / dt
    se = float(inc.std(ddof=1)) / math.sqrt(n) / dt
    assert abs(mean - rate) <= 3.0 * se
    assert se < 0.01 * rate


def test_realized_increment_gap_shrinks_like_sqrt_dt():
    # The summed gap (realized minus accrued lvr over a fixed horizon) is a
    # mean-zero martingale with per-step variance O(dt**2), so its RMS
    # scales like sqrt(dt): quartering dt should halve it.
    sigma, horizon, n_rep = 0.5, 0.01, 512

    def rms_gap(n_steps, seed):
        dt = horizon / n_steps
        rng = np.random.Generator(np.random.Philox(seed))
        z = rng.standard_normal((n_rep, n_steps))
        logq = np.cumsum(-0.5 * sigma * sigma * dt + sigma * math.sqrt(dt) * z, axis=1)
        rq = np.exp(0.5 * np.hstack([np.zeros((n_rep, 1)), logq]))  # sqrt(q_k)
        incs = (rq[:, 1:] - rq[:, :-1]) ** 2 / rq[:, :-1]
        accrued = 0.25 * sigma * sigma * rq[:, :-1] * dt
        gap = (incs - accrued).sum(axis=1)
        return float(np.sqrt((gap**2).mean()))

    ratio = rms_gap(64, seed=23) / rms_gap(16, seed=29)
    assert 0.35 <= ratio <= 0.7


# ----- martingale engine -----------------------------------------------------------


def test_mc_fee_plus_terminal_value_cpmm():
    params = GbmParams(0.4, 0.2, 0.3, 0.05)
    mean, stderr = mc_fee_plus_terminal_value(
        CPMM, params, p0x=1.2, p0y=0.9, maturity=0.1, n_paths=4000, n_steps=200, seed=3
    )
    assert stderr > 0.0
    want = dollar_pool_value(CPMM, 1.2, 0.9)
    assert abs(mean - want) <= 3.0 * stderr


def test_mc_fee_plus_terminal_value_deterministic():
    params = GbmParams(0.4, 0.2, 0.3, 0.05)
    a = mc_fee_plus_terminal_value(CPMM, params, 1.0, 1.0, 0.1, 512, 16, seed=9)
    b = mc_fee_plus_terminal_value(CPMM, params, 1.0, 1.0, 0.1, 512, 16, seed=9)
    assert a == b
    c = mc_fee_plus_terminal_value(CPMM, params, 1.0, 1.0, 0.1, 512, 16, seed=10)
    assert c != a


def test_mc_validation_and_stablecoin_warning():
    params = GbmParams(0.4)
    with pytest.raises(InvalidParams):
        mc_fee_plus_terminal_value(CPMM, params, 1.0, 1.0, 0.0, 100, 10)
    with pytest.raises(InvalidParams):
        mc_fee_plus_terminal_value(CPMM, params, 1.0, 1.0, 1.0, 1, 10)


def reference_fee_plus_terminal_value(curve, params, p0x, p0y, maturity, n_paths, n_steps, seed, antithetic):
    """The martingale Monte Carlo step loop in its plainest form."""
    rng = np.random.Generator(np.random.Philox(seed))
    half = n_paths // 2 if antithetic else n_paths
    n_eff = 2 * half if antithetic else n_paths
    dt = maturity / n_steps
    r = params.r
    sx = params.sigma_x * math.sqrt(dt)
    sy = params.sigma_y * math.sqrt(dt)
    drift_x = (r - 0.5 * params.sigma_x**2) * dt
    drift_y = (r - 0.5 * params.sigma_y**2) * dt
    rho = params.rho
    rho_c = math.sqrt(max(1.0 - rho * rho, 0.0))
    var = effective_variance(params)

    ln_px = np.full(n_eff, math.log(p0x))
    ln_py = np.full(n_eff, math.log(p0y))
    fees = np.zeros(n_eff)
    for k in range(n_steps):
        px = np.exp(ln_px)
        py = np.exp(ln_py)
        q = px / py
        xp = curve.xprime_grid(q)
        fee_rate = py * (-0.5 * var * q * q * xp)
        fees += math.exp(-r * k * dt) * fee_rate * dt

        z = rng.standard_normal((2, half))
        if antithetic:
            z = np.concatenate([z, -z], axis=1)
        zx = z[0]
        zy = rho * z[0] + rho_c * z[1]
        ln_px += drift_x + sx * zx
        ln_py += drift_y + sy * zy

    px = np.exp(ln_px)
    py = np.exp(ln_py)
    totals = fees + math.exp(-r * maturity) * py * curve.pool_value_grid(px / py)
    return mc_mean_stderr(totals, antithetic)


# the "-False" suffix keeps the names these cases had beside a variant with a frozen py
@pytest.mark.parametrize("n_paths", [255, 256], ids=lambda n: f"{n}-False")
@pytest.mark.parametrize("antithetic", [True, False])
@pytest.mark.parametrize(
    "curve", [CPMM, ConcentratedCpmm(1.0, 0.5, 2.0), StableSwap(100.0, 2.0, 1.0)], ids=lambda c: c.kind
)
def test_mc_fee_plus_terminal_value_equals_the_plain_loop(curve, antithetic, n_paths):
    params = GbmParams(0.8, 0.3, 0.5, 0.03)
    args = (curve, params, 1.2, 0.9, 0.25, n_paths, 50, 2024, antithetic)
    got = mc_fee_plus_terminal_value(*args)
    want = reference_fee_plus_terminal_value(*args)
    assert got == want
