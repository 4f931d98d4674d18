"""Curve invariants over random parameters, for all three families.

The scalar ``holdings``, ``pool_value`` and ``first_derivs`` are the
vectorized kernels at one validated point, so these properties guard both:

- tangency q*x'(q) + y'(q) = 0, with x' and y' from central differences of
  the holdings kernel and from ``first_derivs``;
- x nonincreasing and y nondecreasing in the price;
- a concave pool value;
- ``scaled_to_value`` hits its target and scales the holdings at every
  price by the one factor target / value (the curves are 1-homogeneous in
  their size parameter).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ammvol import ConcentratedCpmm, Cpmm, StableSwap


def log_decade(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


cpmms = st.builds(Cpmm, log_decade(-3.0, 3.0))
ranges = st.builds(
    lambda L, p_lo, width: ConcentratedCpmm(L, p_lo, p_lo * width),
    log_decade(-3.0, 3.0), log_decade(-2.0, 2.0), log_decade(0.01, 2.0),
)
stableswaps = st.builds(StableSwap, log_decade(0.0, 4.0), log_decade(-2.0, 3.0), log_decade(-1.0, 1.0))
curves = st.one_of(cpmms, ranges, stableswaps)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def center(curve):
    if isinstance(curve, StableSwap):
        return curve.price_center
    if isinstance(curve, ConcentratedCpmm):
        return math.sqrt(curve.p_lo * curve.p_hi)
    return 1.0


def price_grid(curve, n=200):
    """Prices uniform in log q, reaching past a range position's band."""
    lo, hi = curve.q_bounds
    c = center(curve)
    qs = np.geomspace(c / 50.0, c * 50.0, n)
    return np.clip(qs, lo, hi)


@PROPERTY
@given(curves, st.floats(-1.5, 1.5))
def test_tangency_identity(curve, log_offset):
    q = center(curve) * math.exp(log_offset)
    lo, hi = curve.trade_bounds
    h = 1e-6 * q
    assume(lo < q - h and q + h < hi)
    x, y = curve.holdings_grid(np.array([q - h, q + h]))
    # both holdings must move by more than their rounding for differences to mean anything
    assume(abs(x[1] - x[0]) > 1e-6 * x[1] and abs(y[1] - y[0]) > 1e-6 * y[1])
    fd_xp, fd_yp = (x[1] - x[0]) / (2 * h), (y[1] - y[0]) / (2 * h)
    scale = abs(q * fd_xp) + abs(fd_yp)
    assert abs(q * fd_xp + fd_yp) <= 1e-6 * scale
    xp, yp = curve.first_derivs(q)
    assert xp == pytest.approx(fd_xp, rel=1e-5)
    assert yp == pytest.approx(fd_yp, rel=1e-5)
    assert abs(q * xp + yp) <= 1e-12 * (abs(q * xp) + abs(yp))


@PROPERTY
@given(curves)
def test_holdings_monotone(curve):
    qs = price_grid(curve)
    x, y = curve.holdings_grid(qs)
    assert np.all(np.diff(x) <= 0.0)
    assert np.all(np.diff(y) >= 0.0)
    # the scalar method is the kernel at one point
    for q in qs[:: len(qs) // 4]:
        xs, ys = curve.holdings(float(q))
        i = int(np.searchsorted(qs, q))
        assert (xs, ys) == (x[i], y[i])


@PROPERTY
@given(curves)
def test_pool_value_concave(curve):
    qs = np.unique(price_grid(curve))
    vals = curve.pool_value_grid(qs)
    assert np.all(np.diff(vals) >= -1e-15 * vals[-1])
    slopes = np.diff(vals) / np.diff(qs)
    # a slope is good to about eps * value / dq, and dq is at least 2 % of q
    tol = 1e-12 * np.max(vals / qs)
    assert np.all(np.diff(slopes) <= tol)


@PROPERTY
@given(curves, log_decade(-2.0, 4.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_scaled_to_value_is_homogeneous(curve, target, log_offset, other_offset):
    q = center(curve) * math.exp(log_offset)
    lo, hi = curve.q_bounds
    assume(lo <= q <= hi and curve.pool_value(q) > 0.0)
    scaled = curve.scaled_to_value(target, q)
    assert scaled.pool_value(q) == pytest.approx(target, rel=1e-12)
    factor = target / curve.pool_value(q)
    q2 = center(curve) * math.exp(other_offset)
    assume(lo <= q2 <= hi)
    for price in (q, q2):
        x, y = curve.holdings(price)
        xs, ys = scaled.holdings(price)
        assert xs == pytest.approx(factor * x, rel=1e-11)
        assert ys == pytest.approx(factor * y, rel=1e-11)
