"""The deterministic floating-leg kernel against its independent oracles.

Each curve prices C(q0) - E[C(Q)] as a strip of out-of-the-money options
weighted by its liquidity.  The raw Monte Carlo estimator
``mc_expected_pool_value`` checks the strip within 3 standard errors, a
dense quadrature of the tangent gap over the solved holdings checks it
deterministically on the same cases and in tails the sampler misses, so
does the LVR accrued over the horizon (the paper's martingale identity, on
x' alone), the constant-product closed form checks a range position wide
enough to cover the whole kernel, central differences check the analytic
vega, and scipy's ndtr checks the kernel's own normal CDF.  A StableSwap
strip off the center matches the same strip at 455 times the nodes, which
holds only when the spot is a cut and the nodes do not crowd the flat
center.  At the largest amplification a pool may have, the strip stays
below the constant-sum limit and still resolves its distance from it.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from ammvol import (
    ConcentratedCpmm,
    Cpmm,
    InvalidParams,
    McConfig,
    StableSwap,
    SwapSpec,
    floating_leg_value,
    mc_expected_pool_value,
    mc_floating_leg,
)
import ammvol.curves
from ammvol.curves import _gauss_legendre, _ndtr

ROOT = Path(__file__).resolve().parents[1]

TOTAL_VOLS = (0.005, 0.02, 0.05, 0.5, 2.0)
RANGE = ConcentratedCpmm(1.0, 0.5, 2.0)
STABLE = StableSwap(100.0, 2.0, 1.0)
STABLE_SCALED = STABLE.scaled_to_value(100.0, 1.0)
MC = McConfig(n_paths=1 << 16, seed=11)

# 0.4 and 2.2 sit outside the range; 0.99 is the edge of the StableSwap
# liquidity peak and 1.3 lies in its thin wing.  Above the range the pool
# value is flat, so draws that never cross into the range are identical and
# the sample stderr cannot see rarer crossings: 2.2 keeps them frequent at
# every total vol but 0.02, where a draw crosses with probability 1e-6, so
# that one pair is not sampled.  At 0.02 a StableSwap strip from 0.9 reaches
# across the flat center, where most of the liquidity sits at A >= 1e4.
CASES = (
    [(RANGE, q0) for q0 in (0.4, 1.0, 1.9, 2.2)]
    + [(curve, q0) for curve in (STABLE, STABLE_SCALED) for q0 in (1.0, 0.99, 1.3)]
    + [(StableSwap(50.0, 3.0, 1.5), 1.5)]
    + [(StableSwap(amplification, 2.0, 1.0), 0.9) for amplification in (1e4, 1e5)]
)


def _id(case):
    curve, q0 = case
    if not isinstance(curve, StableSwap):
        return f"{curve.kind}-q{q0}"
    # only the strongly amplified pools name their A
    amplification = f"-A{curve.amplification:g}" if curve.amplification >= 1e3 else ""
    return f"{curve.kind}{amplification}-D{curve.invariant_scale:g}-q{q0}"


@pytest.mark.parametrize("case", CASES, ids=[_id(c) for c in CASES])
def test_strip_matches_raw_monte_carlo(case):
    curve, q0 = case
    c0 = float(curve.pool_value_grid(np.array([q0]))[0])
    for s in TOTAL_VOLS:
        if (curve, q0, s) == (RANGE, 2.2, 0.02):
            continue
        leg, _ = curve.floating_leg(q0, s)
        mean, stderr = mc_expected_pool_value(curve, q0, s, 1.0, MC)
        z = (leg - (c0 - mean)) / stderr if stderr > 0.0 else 0.0
        print(f"{_id(case)} s={s}: leg={leg:.6e} z={z:+.2f}")
        assert abs(leg - (c0 - mean)) <= 3.0 * stderr + 1e-12 * c0


# The tangent-gap oracle: C(q0) - E[C(Q)] = E[Q (x0 - x(Q)) + (y0 - y(Q))]
# since E[Q] = q0, a nonnegative integrand that needs holdings only, found by
# the price->holdings solve, not by x'.  The trapezoid rule in Z on
# [-GAP_WIDTH, GAP_WIDTH] with GAP_NODES nodes, solved GAP_CHUNK prices at
# a time to keep the arrays small, reads within 7.3e-10 of the strip on
# CASES x TOTAL_VOLS.  The
# worst case, A = 1e5 at s = 0.005, reads the same at 40,001 and 1,600,001
# nodes: it is the solve's own tolerance, seen through the small gaps of a
# narrow spread.  The bound leaves two orders of margin.
GAP_WIDTH = 12.0
GAP_NODES = 200_001
GAP_CHUNK = 8192
GAP_RTOL = 1e-7


def tangent_gap_leg(curve, q0, s):
    h = 2.0 * GAP_WIDTH / (GAP_NODES - 1)
    z = np.linspace(-GAP_WIDTH, GAP_WIDTH, GAP_NODES)
    weight = np.exp(-0.5 * z * z) * (h / math.sqrt(2.0 * math.pi))
    weight[[0, -1]] *= 0.5
    (x0,), (y0,) = curve.holdings_grid(np.array([q0]))
    total = 0.0
    for lo in range(0, GAP_NODES, GAP_CHUNK):
        q = q0 * np.exp(s * z[lo : lo + GAP_CHUNK] - 0.5 * s * s)
        x, y = curve.holdings_grid(q)
        total += (q * (x0 - x) + (y0 - y)) @ weight[lo : lo + GAP_CHUNK]
    return float(total)


@pytest.mark.parametrize("case", CASES, ids=[_id(c) for c in CASES])
def test_strip_matches_tangent_gap_quadrature(case):
    # every pair, (RANGE, 2.2, 0.02) too: the oracle does not sample; a
    # spot far below the range holds a leg of about 1e-34 at s = 0.02
    curve, q0 = case
    c0 = float(curve.pool_value_grid(np.array([q0]))[0])
    for s in TOTAL_VOLS:
        leg, _ = curve.floating_leg(q0, s)
        assert leg == pytest.approx(tangent_gap_leg(curve, q0, s), rel=GAP_RTOL, abs=1e-30 * c0), s


# The paper's identity: fees accruing at the LVR rate l(q) = -sigma**2 q**2 x'(q)/2
# make the LP position a martingale, so E[int_0^T l(Q_t) dt] = C(q0) - E[C(Q_T)],
# the floating leg.  It is an oracle on x' alone.  Only sigma**2 T = s**2 matters,
# so take T = 1 and sigma = s and substitute t = v**2: the left side is
# s**2 int_0^1 v E[-Q**2 x'(Q)] dv, Q lognormal at total vol s*v.  Both integrals
# are Gauss-Legendre on panels of their own, not the strip's:
# - in v, on [0, 2**-LVR_OCTAVES] and the octaves above it, because the
#   expectation turns where s*v reaches the distance from the spot to a cut;
# - in Z, on unit panels over [-LVR_WIDTH, LVR_WIDTH], cut where log q crosses
#   an end of trade_bounds and, for StableSwap, log c and log c +- tau * 2**j:
#   the liquidity sits within tau = 2/(2A + 1) of log c and decays over
#   decades, and x' is smooth only piecewise about c.
# It reads within 5.8e-13 of the strip on CASES x TOTAL_VOLS, except on the
# range spots far outside the range at s <= 0.05: their legs of 1e-11 and
# 1.3e-10 it reads within 2.4e-10 relative, 6e-21 absolute.  The bounds leave
# two orders of margin.
LVR_OCTAVES = 16
LVR_V_NODES = 12
LVR_WIDTH = 13
LVR_Z_NODES = 16
LVR_RTOL = 1e-10
LVR_ATOL = 1e-17  # times C(q0)


def accrued_lvr_leg(curve, q0, s):
    cuts = [math.log(b) for b in curve.trade_bounds if 0.0 < b < math.inf]
    if isinstance(curve, StableSwap):
        tau = 2.0 / (2.0 * curve.amplification + 1.0)
        steps = tau * 2.0 ** np.arange(64)
        steps = steps[steps < 2.0 * LVR_WIDTH * s]
        log_c = math.log(curve.price_center)
        cuts += [log_c, *(log_c + steps), *(log_c - steps)]
    cuts = np.array(cuts)

    def panels(edges, rule):
        x, w = rule
        half = 0.5 * np.diff(edges)[:, None]
        return (edges[:-1, None] + half * (1.0 + x)).ravel(), (half * w).ravel()

    v_rule, z_rule = (np.polynomial.legendre.leggauss(n) for n in (LVR_V_NODES, LVR_Z_NODES))
    v, v_weight = panels(np.append(0.0, 2.0 ** np.arange(-LVR_OCTAVES, 1.0)), v_rule)
    unit = np.arange(-LVR_WIDTH, LVR_WIDTH + 1.0)
    total = 0.0
    for vol, weight in zip(s * v, s * s * v * v_weight):
        z_cuts = (cuts - math.log(q0) + 0.5 * vol * vol) / vol
        z, z_weight = panels(np.union1d(unit, z_cuts[np.abs(z_cuts) < LVR_WIDTH]), z_rule)
        q = q0 * np.exp(vol * z - 0.5 * vol * vol)
        density = z_weight * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        total += weight * float((-q * q * curve.xprime_grid(q)) @ density)
    return total


@pytest.mark.parametrize("case", CASES, ids=[_id(c) for c in CASES])
def test_strip_matches_the_accrued_lvr(case):
    curve, q0 = case
    c0 = float(curve.pool_value_grid(np.array([q0]))[0])
    for s in TOTAL_VOLS:
        leg, _ = curve.floating_leg(q0, s)
        assert accrued_lvr_leg(curve, q0, s) == pytest.approx(leg, rel=LVR_RTOL, abs=LVR_ATOL * c0), s


def test_wide_range_matches_cpmm_closed_form():
    wide = ConcentratedCpmm(1.5, 1e-8, 1e8)
    for q0 in (0.5, 1.0, 2.0):
        for s in TOTAL_VOLS:
            leg, vega = wide.floating_leg(q0, s)
            want, want_vega = Cpmm(1.5).floating_leg(q0, s)
            assert leg == pytest.approx(want, rel=1e-5)
            assert vega == pytest.approx(want_vega, rel=1e-5)


@pytest.mark.parametrize(
    "pool",
    [(100.0, 2.0, 1.0), (1000.0, 3.0, 1.5), (0.5, 1.0, 1.0), (1e4, 2.0, 1.0), (1e5, 2.0, 1.0)],
    ids=str,
)
def test_stableswap_strip_converges_off_the_center(pool, monkeypatch):
    # at s = 0.005 the kink at the spot dominates the quadrature error unless
    # it falls on a cut; at s = 0.02 the strip spans the flat center, where
    # the nodes must not crowd; the reference strip has 2**18 nodes
    curve = StableSwap(*pool)
    for s in (0.005, 0.02):
        for q0 in (0.9 * curve.price_center, 1.3 * curve.price_center):
            leg, _ = curve.floating_leg(q0, s)
            with monkeypatch.context() as patch:
                patch.setattr(ammvol.curves, "_STRIP_INTERVALS", 2**18)
                fine, _ = curve.floating_leg(q0, s)
            assert leg == pytest.approx(fine, rel=1e-9), (q0, s)


def test_strip_at_the_amplification_bound_stays_below_the_constant_sum_limit():
    # StableSwap(A, 2) tends to the constant-sum pool C(q) = 2 min(q, 1) as
    # 1/sqrt(A), so its leg from q0 = 1 stays below 2 E[(1 - Q)+].  At the
    # bound the gap to that limit is 1.6e-5 and the strip reads within 1e-8
    # of the tangent-gap quadrature; a decade above it, 2.7e-7 off, and at
    # A = 1e13 above the limit.  The raw MC cannot tell any of these apart.
    bound = ammvol.curves._MAX_AMPLIFICATION
    curve = StableSwap(bound, 2.0)
    s = 0.5
    limit = 2.0 * (2.0 * ndtr(0.5 * s) - 1.0)
    leg, _ = curve.floating_leg(1.0, s)
    mean, stderr = mc_expected_pool_value(curve, 1.0, s, 1.0, MC)
    assert leg <= limit
    assert abs(leg - (curve.pool_value(1.0) - mean)) <= 3.0 * stderr
    assert leg == pytest.approx(tangent_gap_leg(curve, 1.0, s), rel=GAP_RTOL)
    with pytest.raises(InvalidParams, match="amplification"):
        StableSwap(math.nextafter(bound, math.inf), 2.0)


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


def test_gauss_legendre_rule_matches_numpy():
    x, w = _gauss_legendre()
    want_x, want_w = np.polynomial.legendre.leggauss(ammvol.curves._GL_ORDER)
    np.testing.assert_allclose(x, want_x, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(w, want_w, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("curve", [STABLE, RANGE], ids=["stableswap", "range"])
def test_strip_at_tiny_total_vol_is_half_s_squared_times_the_liquidity(curve):
    # each strike's cash band is integrated, not a difference of two CDFs
    # near 1/2 that would keep only eps/s of it; at q0 = 1 the nodes' log
    # prices carry no rounding of their own
    density = curve.liquidity(1.0)
    for s in (1e-9, 1e-12, 1e-15, 1e-20):
        leg, vega = curve.floating_leg(1.0, s)
        assert leg == pytest.approx(0.5 * s * s * density, rel=1e-10, abs=0.0), s
        assert vega == pytest.approx(s * density, rel=1e-10, abs=0.0), s


TINY_CENTER = 1e-190


@pytest.mark.parametrize(
    "curve, q0",
    [(curve, q0) for curve in (STABLE, RANGE) for q0 in (0.9, 1.3)]
    + [(StableSwap(100.0, 2.0, TINY_CENTER), q * TINY_CENTER) for q in (0.9, 1.3)],
    ids=["stableswap-q0.9", "stableswap-q1.3", "range-q0.9", "range-q1.3", "tiny-center-q0.9c", "tiny-center-q1.3c"],
)
def test_strip_off_the_center_at_tiny_total_vol_keeps_its_digits(curve, q0):
    # the nodes are offsets from the spot: placed in absolute log price,
    # log(k/q0) kept only the ulp of log q0, 1.4e-6 of the leg at s = 1e-12
    density = curve.liquidity(q0)
    for s in (1e-9, 1e-12, 1e-15, 1e-18):
        leg, vega = curve.floating_leg(q0, s)
        assert leg == pytest.approx(0.5 * s * s * density, rel=1e-12, abs=0.0), s
        assert vega == pytest.approx(s * density, rel=1e-12, abs=0.0), s


def test_band_rule_matches_numpy():
    x, w = _gauss_legendre(ammvol.curves._BAND_ORDER)
    want_x, want_w = np.polynomial.legendre.leggauss(ammvol.curves._BAND_ORDER)
    np.testing.assert_allclose(x, want_x, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w, want_w, rtol=0.0, atol=1e-15)


def test_strips_import_no_module():
    # a lazily imported numpy submodule would raise the peak RSS of every
    # process that prices a strip
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys, ammvol; before = set(sys.modules); "
        "ammvol.StableSwap(100.0, 2.0, 1.0).floating_leg(0.9, 0.02); "
        "ammvol.ConcentratedCpmm(1.0, 0.5, 2.0).floating_leg(0.9, 0.02); "
        "print(sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
