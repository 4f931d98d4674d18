"""Geometry of the three curve families.

Golden values are frozen from independent derivations: constant-product
algebra by hand, the stableswap point (A=100, D=2, c=1, q=1) by solving the
quadratic root and the implicit-derivative chain symbolically (x''=150.75
and y''=-50.25 are exact rationals there), and finite differences as a
cross-check oracle throughout.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from stableswap_reference import implicit_derivs

from ammvol import (
    ConcentratedCpmm,
    Cpmm,
    DegenerateCurve,
    DomainError,
    InvalidParams,
    RangeError,
    StableSwap,
    curvature,
    curve_from_dict,
    dollar_pool_value,
    equivalent_cpmm_liquidity,
)

CPMM = Cpmm(1.0)
CONC = ConcentratedCpmm(1.0, 0.25, 4.0)
STABLE = StableSwap(100.0, 2.0, 1.0)

ALL_CURVES = [CPMM, CONC, STABLE]


def grid_for(curve, n=100):
    if isinstance(curve, StableSwap):
        return np.geomspace(0.3, 3.0, n)
    if isinstance(curve, ConcentratedCpmm):
        # straddles the active range on purpose
        return np.geomspace(0.1, 10.0, n)
    return np.geomspace(0.05, 20.0, n)


def fd_first(curve, q, h=None):
    h = 1e-6 * q if h is None else h
    x1, y1 = curve.holdings(q + h)
    x0, y0 = curve.holdings(q - h)
    return (x1 - x0) / (2 * h), (y1 - y0) / (2 * h)


# ----- constant product goldens ------------------------------------------------


def test_cpmm_holdings_golden():
    x, y = CPMM.holdings(4.0)
    assert x == pytest.approx(0.5, abs=0)
    assert y == pytest.approx(2.0, abs=0)
    assert CPMM.pool_value(4.0) == pytest.approx(4.0, rel=1e-15)


def test_cpmm_derivative_goldens():
    assert CPMM.first_derivs(1.0) == pytest.approx((-0.5, 0.5), rel=1e-15)
    xp, yp = CPMM.first_derivs(4.0)
    assert xp == pytest.approx(-1.0 / 16.0, rel=1e-15)
    assert yp == pytest.approx(0.25, rel=1e-15)


def test_cpmm_curvature_golden():
    # 1/(2**1.5 * 0.5) at q=1
    assert curvature(CPMM, 1.0) == pytest.approx(2.0**-0.5, rel=1e-12)
    # scales as 1/L
    assert curvature(Cpmm(5.0), 1.0) == pytest.approx(2.0**-0.5 / 5.0, rel=1e-12)


def test_cpmm_equivalent_liquidity_is_identically_L():
    for L in (1.0, 7.0):
        curve = Cpmm(L)
        for q in grid_for(curve):
            assert equivalent_cpmm_liquidity(curve, q) == pytest.approx(L, rel=1e-12)


def test_cpmm_solve_trade_golden():
    (x0, y0), (x1, y1) = CPMM.holdings(1.0), CPMM.holdings(4.0)
    dx, dy = x1 - x0, y1 - y0
    assert dx == pytest.approx(-0.5, rel=1e-15)
    assert dy == pytest.approx(1.0, rel=1e-15)


def test_cpmm_product_invariant_along_grid():
    qs = grid_for(CPMM)
    x, y = CPMM.holdings_grid(qs)
    assert np.all(np.abs(x * y - 1.0) <= 1e-9)


def test_dollar_pool_value_numeraire():
    # py * value(px/py): at px=2, py=3 the dollar value is 3*2*sqrt(2/3)
    want = 3.0 * 2.0 * math.sqrt(2.0 / 3.0)
    assert dollar_pool_value(CPMM, 2.0, 3.0) == pytest.approx(want, rel=1e-14)


# ----- concentrated position ----------------------------------------------------


def test_concentrated_holdings_inside_and_clamped():
    x, y = CONC.holdings(1.0)
    assert x == pytest.approx(0.5, rel=1e-15)
    assert y == pytest.approx(0.5, rel=1e-15)
    # below the range: all x, none of y
    assert CONC.holdings(0.1) == pytest.approx((1.5, 0.0), abs=1e-15)
    assert CONC.holdings(0.25) == pytest.approx((1.5, 0.0), abs=1e-15)
    # above: all y
    assert CONC.holdings(9.0) == pytest.approx((0.0, 1.5), abs=1e-15)


def test_concentrated_derivs_vanish_out_of_range():
    assert CONC.first_derivs(0.1) == (0.0, 0.0)
    assert CONC.first_derivs(9.0) == (0.0, 0.0)
    # inside the range it is plain constant-product
    assert CONC.first_derivs(1.0) == pytest.approx(CPMM.first_derivs(1.0), rel=1e-15)


def test_concentrated_equivalent_liquidity_indicator():
    assert equivalent_cpmm_liquidity(CONC, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert equivalent_cpmm_liquidity(CONC, 0.2) == 0.0
    assert equivalent_cpmm_liquidity(CONC, 5.0) == 0.0
    # +0.0, not -0.0, also on the range's own ends
    for q in (0.2, 0.25, 4.0, 5.0):
        assert math.copysign(1.0, equivalent_cpmm_liquidity(CONC, q)) == 1.0
    assert math.copysign(1.0, equivalent_cpmm_liquidity(ConcentratedCpmm(1.0, 0.5, 2.0), 2.0)) == 1.0


def test_concentrated_value_plateaus():
    lo = CONC.pool_value(0.2)
    lo2 = CONC.pool_value(0.1)
    assert lo == pytest.approx(0.2 * 1.5, rel=1e-15)
    assert lo2 == pytest.approx(0.1 * 1.5, rel=1e-15)
    hi = CONC.pool_value(9.0)
    assert hi == pytest.approx(1.5, rel=1e-15)
    assert CONC.pool_value(100.0) == pytest.approx(hi, rel=1e-15)


def test_concentrated_validation():
    with pytest.raises(RangeError):
        ConcentratedCpmm(1.0, 2.0, 0.5)
    with pytest.raises(RangeError):
        ConcentratedCpmm(1.0, 0.0, 2.0)
    with pytest.raises(InvalidParams):
        ConcentratedCpmm(-1.0, 0.5, 2.0)


# ----- stableswap ----------------------------------------------------------------


def stable_v_oracle(curve, u):
    """Independent positive root of the invariant, direct bracketed solve."""
    A, D = curve.amplification, curve.invariant_scale

    def residual(v):
        return 4 * A * (u + v) + D - 4 * A * D - D**3 / (4 * u * v)

    return brentq(residual, 1e-18, 1e6 * D, xtol=1e-15, rtol=8.9e-16, maxiter=300)


def test_stableswap_center_golden():
    x, y = STABLE.holdings(1.0)
    assert x == pytest.approx(1.0, rel=1e-10)
    assert y == pytest.approx(1.0, rel=1e-10)
    assert STABLE.pool_value(1.0) == pytest.approx(2.0, rel=1e-10)
    xp, yp = STABLE.first_derivs(1.0)
    assert xp == pytest.approx(-100.5, rel=1e-9)
    assert yp == pytest.approx(100.5, rel=1e-9)


def test_stableswap_second_derivs_golden():
    # exact rationals at the symmetric point: 9648/64 and -201/4
    _, _, xpp, ypp = implicit_derivs(STABLE, 1.0)
    assert xpp == pytest.approx(150.75, rel=1e-8)
    assert ypp == pytest.approx(-50.25, rel=1e-8)


def test_stableswap_holdings_match_invariant_oracle():
    rng = np.random.Generator(np.random.Philox(5))
    for q in np.exp(rng.uniform(math.log(0.5), math.log(2.0), 25)):
        x, y = STABLE.holdings(q)
        v = stable_v_oracle(STABLE, x * STABLE.price_center)
        assert y == pytest.approx(v, rel=1e-9)


def test_stableswap_price_matches_fd_of_oracle():
    # q(u) = -c * v'(u): differentiate the independent oracle numerically
    for q in (0.7, 1.0, 1.4):
        x, _ = STABLE.holdings(q)
        u = x * STABLE.price_center
        h = 1e-6 * u
        slope = (stable_v_oracle(STABLE, u + h) - stable_v_oracle(STABLE, u - h)) / (2 * h)
        assert -STABLE.price_center * slope == pytest.approx(q, rel=1e-7)


def test_stableswap_first_derivs_match_fd():
    for q in (0.6, 0.9, 1.0, 1.3, 2.2):
        xp, yp = STABLE.first_derivs(q)
        fxp, fyp = fd_first(STABLE, q)
        assert fxp == pytest.approx(xp, rel=3e-6)
        assert fyp == pytest.approx(yp, rel=3e-6)


def test_stableswap_second_derivs_match_fd():
    # third derivative is O(A^2) here, so Richardson-extrapolate the
    # central difference to kill the h^2 truncation term
    def fd2(component, q, h):
        hi = implicit_derivs(STABLE, q + h)[component]
        lo = implicit_derivs(STABLE, q - h)[component]
        return (hi - lo) / (2 * h)

    for q in (0.8, 1.0, 1.6):
        _, _, xpp, ypp = implicit_derivs(STABLE, q)
        h = 1e-4 * q
        fxpp = (4 * fd2(0, q, h / 2) - fd2(0, q, h)) / 3
        fypp = (4 * fd2(1, q, h / 2) - fd2(1, q, h)) / 3
        assert fxpp == pytest.approx(xpp, rel=1e-5)
        assert fypp == pytest.approx(ypp, rel=1e-5)


def test_stableswap_curvature_much_flatter_than_cpmm():
    # same pool value at the center, two orders of magnitude flatter
    cpmm_same_value = Cpmm(1.0)
    assert cpmm_same_value.pool_value(1.0) == pytest.approx(STABLE.pool_value(1.0))
    k_stable = curvature(STABLE, 1.0)
    assert k_stable == pytest.approx(1.0 / (2.0**1.5 * 100.5), rel=1e-9)
    assert k_stable < curvature(cpmm_same_value, 1.0) / 100.0


def test_stableswap_equivalent_liquidity_center_golden():
    assert equivalent_cpmm_liquidity(STABLE, 1.0) == pytest.approx(201.0, rel=1e-9)


def test_stableswap_center_scales_prices():
    shifted = StableSwap(100.0, 2.0, price_center=5.0)
    x, y = shifted.holdings(5.0)
    assert x == pytest.approx(0.2, rel=1e-9)  # u = c*x stays D/2
    assert y == pytest.approx(1.0, rel=1e-9)
    assert equivalent_cpmm_liquidity(shifted, 5.0) > 0.0


def test_stableswap_scale_homogeneity():
    big = StableSwap(100.0, 20.0, 1.0)
    for q in (0.8, 1.0, 1.25):
        x, y = STABLE.holdings(q)
        X, Y = big.holdings(q)
        assert X == pytest.approx(10 * x, rel=1e-9)
        assert Y == pytest.approx(10 * y, rel=1e-9)


def test_stableswap_domain_errors():
    lo, hi = STABLE.q_bounds
    with pytest.raises(DomainError):
        STABLE.holdings(hi * 2.0)
    with pytest.raises(DomainError):
        STABLE.first_derivs(lo / 2.0)


@pytest.mark.parametrize(
    "curve", [STABLE, StableSwap(1e-2, 1e-3, 0.6), StableSwap(2e4, 1e6, 3.0)], ids=lambda c: f"A{c.amplification:g}"
)
def test_stableswap_first_derivs_vanish_at_the_domain_ends(curve):
    # a holding sits at its floor there, so x' is 0 as in xprime_grid; just
    # inside, implicit differentiation is the oracle
    lo, hi = curve.q_bounds
    ends = np.array([lo, hi])
    assert np.all(curve.xprime_grid(ends) == 0.0)
    for q in ends:
        assert curve.first_derivs(float(q)) == (0.0, 0.0)
        assert equivalent_cpmm_liquidity(curve, float(q)) == 0.0
    inside = np.array([lo * 1.01, hi / 1.01])
    implicit = [implicit_derivs(curve, float(q))[0] for q in inside]
    assert all(xp < 0.0 for xp in implicit)
    np.testing.assert_allclose(curve.xprime_grid(inside), implicit, rtol=1e-10)


@pytest.mark.parametrize("center", [1e12, 1e17, 1e-200])
def test_stableswap_centers_far_from_1_are_valid(center):
    # the holdings floor sits on u = c*x and v, so the domain is c times the
    # center-1 domain and the pool is the center-1 pool in q/c
    curve = curve_from_dict({"kind": "stableswap", "A": 100.0, "D": 2.0, "center": center})
    lo, hi = STABLE.q_bounds
    assert curve.q_bounds == (center * lo, center * hi)
    assert curve.pool_value(center) == pytest.approx(STABLE.pool_value(1.0), rel=1e-12)
    assert curve.liquidity(center) == pytest.approx(STABLE.liquidity(1.0), rel=1e-12)


@pytest.mark.parametrize("center", [1e300, 1e-310, 1e-305, 1e-300, 2.7e-292])
def test_stableswap_center_whose_domain_leaves_the_float_range_is_invalid(center):
    # c * 1.25e16 overflows at c = 1e300, and c * 8e-17 underflows to 0 at
    # 1e-310; at 1e-305 the x = u/c held at the lower end, about 5e4 / c,
    # overflows; at 1e-300 and 2.7e-292 c * 8e-17 is subnormal, too few
    # digits for q/c
    with pytest.raises(InvalidParams, match="center"):
        StableSwap(100.0, 2.0, center)
    with pytest.raises(InvalidParams):
        curve_from_dict({"kind": "stableswap", "A": 100.0, "D": 2.0, "center": center})


@pytest.mark.parametrize("scale", [5e-324, 1e-310, 2.2e-308])
def test_stableswap_subnormal_scale_is_invalid(scale):
    # holdings and value are D times the unit pool's, and a subnormal D keeps
    # too few digits for them: at 5e-324 the floating leg read -5e-324
    with pytest.raises(InvalidParams, match="scale"):
        StableSwap(100.0, scale)


def _refuse_to_solve(*args):
    raise AssertionError("StableSwap construction ran the price->holdings solve")


def test_stableswap_construction_runs_no_solve(monkeypatch):
    # the holdings at the domain ends follow from its definition: c*x = v(floor)
    # and y = floor at the lower end, the reverse at the upper
    StableSwap(100.0, 1.0).q_bounds  # builds and caches the seed table, which solves
    monkeypatch.setattr(StableSwap, "_newton", _refuse_to_solve)
    for scale, center in [(2.0, 1.0), (1.0, 3.0), (2.0, 1e-200), (1e300, 1.0), (1e250, 1e12)]:
        StableSwap(100.0, scale, center)
    for scale, center in [(1e305, 1.0), (2.0, 1e-305)]:
        with pytest.raises(InvalidParams, match="beyond the float range"):
            StableSwap(100.0, scale, center)


@pytest.mark.parametrize("amplification", [1e-2, 100.0, 1e5])
def test_stableswap_domain_is_the_center_1_domain_times_the_center(amplification):
    # and it does not depend on the scale D
    lo, hi = StableSwap(amplification, 1.0).q_bounds
    for scale in (0.5, 2.0, 20.0, 2000.0):
        for center in (2.0**-700, 1e-190, 0.6, 1.0, 3.0, 1e200):
            assert StableSwap(amplification, scale, center).q_bounds == (center * lo, center * hi)


@pytest.mark.parametrize("k", [-600, -40, -1, 1, 3, 600])
def test_stableswap_density_at_a_power_of_two_center_is_the_center_1_density_bit_for_bit(k):
    # scaling q and c by 2**k is exact, and the density reads only q/c
    center = 2.0**k
    rng = np.random.default_rng(k + 600)
    q1 = np.exp(rng.uniform(-45.0, 45.0, 2000))  # beyond both ends as well
    q1[:3] = (1.0, *STABLE.q_bounds)
    shifted = StableSwap(100.0, 2.0, center)
    assert np.array_equal(shifted.liquidity_grid(center * q1), STABLE.liquidity_grid(q1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(-250.0, 250.0).map(lambda e: 10.0**e), st.floats(-30.0, 30.0))
def test_stableswap_density_depends_on_the_price_over_the_center_alone(center, log_q1):
    # rounding c * q1 moves log(q/c) by an ulp, which the density's slope
    # in log q amplifies by at most about A near the knee
    q1 = math.exp(log_q1)
    got = StableSwap(100.0, 2.0, center).liquidity(center * q1)
    assert got == pytest.approx(STABLE.liquidity(q1), rel=1e-13)


def test_slopes_beyond_a_double_are_a_domain_error():
    # x' is about -1e382 at the center of this pool, and -inf for Cpmm(1) at 1e-300
    tiny = StableSwap(100.0, 2.0, 1e-190)
    with pytest.raises(DomainError, match="beyond the float range"):
        tiny.first_derivs(1e-190)
    with pytest.raises(DomainError, match="beyond the float range"):
        curvature(tiny, 1e-190)
    with pytest.raises(DomainError, match="beyond the float range"):
        CPMM.first_derivs(1e-300)


def test_stableswap_holdings_near_matches_cold_solve():
    rng = np.random.default_rng(11)
    q = 1.0
    x_prev, _ = STABLE.holdings(q)
    for _ in range(300):
        q *= math.exp(rng.normal(0.0, 3e-4))  # tick-sized hops
        cold = STABLE.holdings(q)
        warm = STABLE.holdings_near(q, x_prev)
        assert warm.x_qty == pytest.approx(cold.x_qty, rel=1e-11)
        assert warm.y_qty == pytest.approx(cold.y_qty, rel=1e-11)
        x_prev = warm.x_qty
    # far-off, zero and missing hints all still land on the cold answer
    for hint in (1e6, 0.0, None):
        far = STABLE.holdings_near(2.4, hint)
        cold = STABLE.holdings(2.4)
        assert far.x_qty == pytest.approx(cold.x_qty, rel=1e-11)
        assert far.y_qty == pytest.approx(cold.y_qty, rel=1e-11)
    with pytest.raises(DomainError):
        STABLE.holdings_near(STABLE.q_bounds[1] * 2.0, x_prev)


@pytest.mark.parametrize("amp", [100.0, 1000.0, 20000.0])
def test_stableswap_xprime_grid_fed_back_matches_scalar(amp):
    # tick-sized hops across the flat center, where d log q / d log u is
    # about 1/A, are the hard part
    curve = StableSwap(amp, 2.0, 1.0)
    rng = np.random.default_rng(23)
    qs = np.exp(rng.normal(0.0, 0.01, 16))
    for _ in range(30):
        qs = qs * np.exp(rng.normal(0.0, 1e-3, qs.size))  # tick-sized hops
        xp = curve.xprime_grid(qs)
        implicit = [implicit_derivs(curve, float(q))[0] for q in qs]
        np.testing.assert_allclose(xp, implicit, rtol=1e-10)


# StableSwap's xprime_grid interpolates the seed table of its A, read at
# q/c, so the sweep covers centers on both sides of 1
XPRIME_TABLE_POOLS = [StableSwap(a, 2.0, c) for a in (1e-2, 1.0, 100.0, 1e3, 2e4, 1e5) for c in (0.6, 1.0, 3.0)]


@pytest.mark.parametrize(
    "curve", XPRIME_TABLE_POOLS, ids=lambda c: f"A{c.amplification:g}-c{c.price_center:g}"
)
def test_stableswap_xprime_table_matches_implicit_differentiation(curve):
    c = curve.price_center
    lo, hi = curve.q_bounds
    rng = np.random.default_rng(17)
    qs = np.concatenate(
        [
            np.exp(rng.uniform(math.log(lo), math.log(hi), 150)),
            c * np.exp(rng.normal(0.0, 0.01, 50)),
            c * np.exp(rng.normal(0.0, 0.5, 50)),
        ]
    )
    qs = qs[(qs > lo) & (qs < hi)]
    xp = curve.xprime_grid(qs)
    implicit = np.array([implicit_derivs(curve, float(q))[0] for q in qs])
    np.testing.assert_allclose(xp, implicit, rtol=1e-11, atol=0.0)
    # the clip ends and everything beyond them hold x' at exactly zero
    ends = np.array([0.0, 0.5 * lo, lo, hi, 2.0 * hi, math.inf])
    assert np.all(curve.xprime_grid(ends) == 0.0)
    # u <-> v symmetry of the invariant: x'(q) = (c/q)**3 x'(c**2/q)
    mirror = c * c / qs
    both = (mirror > lo) & (mirror < hi)
    assert np.count_nonzero(both) >= 0.5 * qs.size
    np.testing.assert_allclose(
        xp[both], (c / qs[both]) ** 3 * curve.xprime_grid(mirror[both]), rtol=1e-12, atol=0.0
    )


# ----- shared invariants, 100-point grids ---------------------------------------


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.kind)
def test_tangency_identity(curve):
    lo, hi = curve.trade_bounds
    for q in grid_for(curve):
        if not (lo < q < hi):
            continue
        h = 1e-6 * q
        if not (lo < q - h and q + h < hi):
            continue
        xp, yp = fd_first(curve, q, h)
        assert abs(q * xp + yp) <= 1e-8 * (abs(q * xp) + abs(yp) + 1e-300)


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.kind)
def test_holdings_monotonicity(curve):
    qs = grid_for(curve)
    x, y = curve.holdings_grid(qs)
    assert np.all(np.diff(x) <= 1e-12)
    assert np.all(np.diff(y) >= -1e-12)


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.kind)
def test_pool_value_nondecreasing_concave(curve):
    qs = grid_for(curve)
    vals = curve.pool_value_grid(qs)
    assert np.all(np.diff(vals) >= -1e-12)
    slopes = np.diff(vals) / np.diff(qs)
    dd = np.diff(slopes) / (qs[2:] - qs[:-2])
    assert np.all(dd <= 1e-10)


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.kind)
def test_divergence_loss_nonnegative(curve):
    # the frozen old portfolio valued at any new price dominates the pool
    qs = grid_for(curve)
    x, y = curve.holdings_grid(qs)
    vals = curve.pool_value_grid(qs)
    held = np.outer(qs, x) + y[None, :]  # held[i, j] = q_i * x(q_j) + y(q_j)
    assert np.all(held - vals[:, None] >= -1e-9)


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.kind)
def test_curvature_matches_parametric_quotient(curve):
    lo, hi = curve.trade_bounds
    for q in grid_for(curve):
        if not (lo < q < hi):
            continue
        xp, yp = curve.first_derivs(q)
        if isinstance(curve, StableSwap):
            _, _, xpp, ypp = implicit_derivs(curve, q)
        else:
            L = curve.liquidity_tokens
            xpp, ypp = 0.75 * L * q**-2.5, -0.25 * L * q**-1.5
        quotient = (xp * ypp - yp * xpp) / (xp * xp + yp * yp) ** 1.5
        assert abs(quotient) == pytest.approx(curvature(curve, q), rel=1e-8)


@pytest.mark.parametrize(
    "curve",
    [CPMM, CONC, STABLE, StableSwap(100.0, 2.0, 3.0)],
    ids=lambda c: f"{c.kind}-c{c.price_center:g}" if isinstance(c, StableSwap) else c.kind,
)
def test_xprime_grid_is_bit_equal_to_first_derivs(curve):
    qs = np.linspace(0.6, 1.6, 20_000)
    xp = curve.xprime_grid(qs)
    scalar = np.array([curve.first_derivs(float(q))[0] for q in qs])
    assert np.array_equal(xp, scalar), int(np.count_nonzero(xp != scalar))
    # +0.0 where the density is 0, also at q = 0 and q = inf
    ends = curve.xprime_grid(np.array([0.0, np.inf]))
    assert np.all(ends == 0.0) and np.all(np.copysign(1.0, ends) == 1.0)


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.kind)
def test_grid_methods_agree_with_scalar(curve):
    qs = grid_for(curve)
    x, y = curve.holdings_grid(qs)
    vals = curve.pool_value_grid(qs)
    xp = curve.xprime_grid(qs)
    for i, q in enumerate(qs):
        q = float(q)
        xs, ys = curve.holdings(q)
        assert x[i] == pytest.approx(xs, rel=1e-9, abs=1e-12)
        assert y[i] == pytest.approx(ys, rel=1e-9, abs=1e-12)
        assert vals[i] == pytest.approx(q * xs + ys, rel=1e-9)
        if curve.is_interior(q):
            assert xp[i] == pytest.approx(curve.first_derivs(q)[0], rel=1e-8)
        else:
            assert xp[i] == 0.0


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.kind)
def test_scaled_to_value(curve):
    target = 123.0
    q = 1.0
    scaled = curve.scaled_to_value(target, q)
    assert scaled.pool_value(q) == pytest.approx(target, rel=1e-9)
    assert type(scaled) is type(curve)


def test_scaled_to_value_degenerate_concentrated():
    # all-x boundary portfolio still has positive value, so scaling works
    scaled = CONC.scaled_to_value(50.0, 0.25)
    assert scaled.pool_value(0.25) == pytest.approx(50.0, rel=1e-12)


# ----- json round trip ------------------------------------------------------------


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.kind)
def test_curve_dict_round_trip(curve):
    rebuilt = curve_from_dict(curve.to_dict())
    assert rebuilt.to_dict() == curve.to_dict()


def test_curve_from_dict_ignores_unused_keys():
    curve = curve_from_dict({"kind": "cpmm", "L": 2.0, "pL": 1.0, "note": "x"})
    assert isinstance(curve, Cpmm)
    assert curve.liquidity_tokens == 2.0


def test_curve_from_dict_errors():
    with pytest.raises(InvalidParams):
        curve_from_dict({"kind": "nope"})
    with pytest.raises(InvalidParams):
        curve_from_dict({"kind": "cpmm"})
    with pytest.raises(InvalidParams):
        curve_from_dict({"kind": "concentrated", "L": 1.0, "pL": 0.5})
    with pytest.raises(RangeError):
        curve_from_dict({"kind": "concentrated", "L": 1.0, "pL": 2.0, "pU": 0.5})
    with pytest.raises(InvalidParams):
        curve_from_dict(["cpmm"])


def test_curvature_errors():
    with pytest.raises(DomainError):
        curvature(CONC, 0.1)
    with pytest.raises(DomainError):
        curvature(CPMM, -1.0)


def test_degenerate_curvature_via_zero_derivative():
    # out-of-range concentrated point reached through trade_bounds is a
    # DomainError; the DegenerateCurve path needs x'==0 strictly inside,
    # which no shipped family produces, so probe the guard directly.
    class Flat(ConcentratedCpmm):
        def first_derivs(self, q):
            return (0.0, 0.0)

    flat = Flat(1.0, 0.5, 2.0)
    with pytest.raises(DegenerateCurve):
        curvature(flat, 1.0)
