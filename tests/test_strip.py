"""The deterministic floating-leg kernel against its independent oracles.

Each curve prices C(q0) - E[C(Q)] as a strip of out-of-the-money options
weighted by its liquidity.  The raw Monte Carlo estimator
``mc_expected_pool_value`` checks the strip within 3 standard errors, the
constant-product closed form checks a range position wide enough to cover
the whole kernel, central differences check the analytic vega, and
scipy's ndtr checks the kernel's own normal CDF.  A StableSwap strip off
the center matches the same strip at 128 times the intervals, which holds
only when its spot node sits on the spot.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from ammvol import (
    ConcentratedCpmm,
    Cpmm,
    McConfig,
    StableSwap,
    SwapSpec,
    floating_leg_value,
    mc_expected_pool_value,
    mc_floating_leg,
)
import ammvol.curves
from ammvol.curves import _ndtr

TOTAL_VOLS = (0.005, 0.05, 0.5, 2.0)
RANGE = ConcentratedCpmm(1.0, 0.5, 2.0)
STABLE = StableSwap(100.0, 2.0, 1.0)
STABLE_SCALED = STABLE.scaled_to_value(100.0, 1.0)
MC = McConfig(n_paths=1 << 16, seed=11)

# 0.4 and 2.2 sit outside the range; 0.99 is the edge of the StableSwap
# liquidity peak and 1.3 lies in its thin wing.  Above the range the pool
# value is flat, so draws that never cross into the range are identical and
# the sample stderr cannot see rarer crossings: 2.2 keeps them frequent.
CASES = (
    [(RANGE, q0) for q0 in (0.4, 1.0, 1.9, 2.2)]
    + [(curve, q0) for curve in (STABLE, STABLE_SCALED) for q0 in (1.0, 0.99, 1.3)]
    + [(StableSwap(50.0, 3.0, 1.5), 1.5)]
)


def _id(case):
    curve, q0 = case
    size = f"-D{curve.invariant_scale:g}" if isinstance(curve, StableSwap) else ""
    return f"{curve.kind}{size}-q{q0}"


@pytest.mark.parametrize("case", CASES, ids=[_id(c) for c in CASES])
def test_strip_matches_raw_monte_carlo(case):
    curve, q0 = case
    c0 = float(curve.pool_value_grid(np.array([q0]))[0])
    for s in TOTAL_VOLS:
        leg, _ = curve.floating_leg(q0, s)
        mean, stderr = mc_expected_pool_value(curve, q0, s, 1.0, MC)
        z = (leg - (c0 - mean)) / stderr if stderr > 0.0 else 0.0
        print(f"{_id(case)} s={s}: leg={leg:.6e} z={z:+.2f}")
        assert abs(leg - (c0 - mean)) <= 3.0 * stderr + 1e-12 * c0


def test_wide_range_matches_cpmm_closed_form():
    wide = ConcentratedCpmm(1.5, 1e-8, 1e8)
    for q0 in (0.5, 1.0, 2.0):
        for s in TOTAL_VOLS:
            leg, vega = wide.floating_leg(q0, s)
            want, want_vega = Cpmm(1.5).floating_leg(q0, s)
            assert leg == pytest.approx(want, rel=1e-5)
            assert vega == pytest.approx(want_vega, rel=1e-5)


@pytest.mark.parametrize("pool", [(100.0, 2.0, 1.0), (1000.0, 3.0, 1.5), (0.5, 1.0, 1.0)], ids=str)
def test_stableswap_strip_converges_off_the_center(pool, monkeypatch):
    # at s = 0.005 the kink at the spot dominates the quadrature error unless
    # it falls on a node; the reference strip has 2**18 intervals
    curve = StableSwap(*pool)
    for q0 in (0.9 * curve.price_center, 1.3 * curve.price_center):
        leg, _ = curve.floating_leg(q0, 0.005)
        with monkeypatch.context() as patch:
            patch.setattr(ammvol.curves, "_STRIP_INTERVALS", 2**18)
            fine, _ = curve.floating_leg(q0, 0.005)
        assert leg == pytest.approx(fine, rel=1e-9), q0


@pytest.mark.parametrize("curve", [Cpmm(1.0), RANGE, STABLE], ids=lambda c: c.kind)
def test_leg_strictly_increasing_in_sigma(curve):
    spec = SwapSpec(curve=curve, maturity=0.5, p0x=1.02)
    legs = [floating_leg_value(spec, sigma) for sigma in np.geomspace(1e-3, 4.0, 60)]
    assert np.all(np.diff(legs) > 0.0)
    assert legs[-1] < spec.pool_value_now()


@pytest.mark.parametrize("curve", [Cpmm(1.0), RANGE, STABLE], ids=lambda c: c.kind)
def test_analytic_vega_matches_central_difference(curve):
    for q0 in (0.99, 1.0, 1.3):
        for s in TOTAL_VOLS:
            h = 1e-4 * s
            up, _ = curve.floating_leg(q0, s + h)
            down, _ = curve.floating_leg(q0, s - h)
            _, vega = curve.floating_leg(q0, s)
            assert vega == pytest.approx((up - down) / (2.0 * h), rel=1e-5)


def test_mc_floating_leg_is_the_sampled_oracle():
    spec = SwapSpec(curve=STABLE, maturity=1.0, p0x=1.0, liquidity_tokens=3.0)
    value, stderr = mc_floating_leg(spec, 0.5, MC)
    assert stderr > 0.0
    assert abs(value - floating_leg_value(spec, 0.5)) <= 3.0 * stderr
    # closed-form curves skip sampling
    assert mc_floating_leg(SwapSpec(Cpmm(1.0), 1.0, 1.0), 1.0, MC) == (
        floating_leg_value(SwapSpec(Cpmm(1.0), 1.0, 1.0), 1.0),
        0.0,
    )
    assert math.isfinite(value)


def test_normal_cdf_matches_scipy():
    # the strip's Black-Scholes legs use a numpy-only normal CDF
    z = np.concatenate([np.linspace(-40.0, 40.0, 80001), np.random.default_rng(3).normal(0.0, 4.0, 20000)])
    ours = _ndtr(z)
    ref = ndtr(z)
    assert np.max(np.abs(ours - ref)) <= 3e-16
    tail = ref > 1e-300
    assert np.max(np.abs(ours[tail] / ref[tail] - 1.0)) <= 1e-14
    np.testing.assert_array_equal(_ndtr(np.array([-np.inf, np.inf, 0.0])), [0.0, 1.0, 0.5])
    assert np.isnan(_ndtr(np.array([np.nan])))[0]
