"""The martingale identity, sharpened: the MC's time-step bias, computed and seen.

``mc_fee_plus_terminal_value`` accrues the fee rate as a left Riemann sum
over N steps, so its mean sits above today's pool value V0 by an O(dt)
bias that its plain standard error hides on StableSwap.  Under the y
numeraire the price ratio Q_t is a driftless lognormal at the ratio's
effective vol, each accrual term's mean is py0 * var/2 * E[l(Q_t_k)] * dt
(the discount cancels the numeraire's drift), and the terminal value's is
py0 * (C(q0) - leg), with leg the floating leg at total vol sqrt(var T).
So the estimator's mean is a sum of 1-D lognormal quadratures of the
liquidity density l, the kernel of the accrued-LVR oracle in
``test_strip.py``, and part (a) checks that its bias falls as O(dt).

Part (b) runs the estimator in its own loop, with the rebalancing
portfolio of the pool's own holdings as a control variate: its discounted
P&L, sum_k e^(-r t_k) [x_k (e^(-r dt) px_k+1 - px_k) + y_k (e^(-r dt) py_k+1 - py_k)],
has mean exactly 0 for any adapted holdings, since the paths step GBM
exactly at drift r.  With the pool's holdings it is the rebalancing leg of
LVR (Milionis, Moallemi, Roughgarden and Zhang, arXiv:2208.06046), so what
is left is the discretization noise.  The controlled mean must match
part (a) within 3 of its own standard errors, with no allowance for bias.
"""

import math

import numpy as np
import pytest

from ammvol import ConcentratedCpmm, Cpmm, GbmParams, StableSwap
from ammvol.curves import dollar_pool_value
from ammvol.fees import effective_variance

# the parameters of test_acceptance.py::test_martingale_fee_accrual
PARAMS = GbmParams(sigma_x=0.8, sigma_y=0.3, rho=0.5, r=0.03)
MATURITY = 0.25
CURVES = (Cpmm(1.0), ConcentratedCpmm(1.0, 0.5, 2.0), StableSwap(100.0, 2.0, 1.0))

STEPS = (500, 1000, 2000, 4000)  # part (a); each divides the last
MC_STEPS = 400  # part (b), also a divisor of STEPS[-1]
MC_PATHS = {"cpmm": 2000, "concentrated": 2000, "stableswap": 16000}
SEED = 2024

# E[l(Q)] is Gauss-Legendre in Z on unit panels over [-WIDTH, WIDTH], cut
# where log Q crosses an end of trade_bounds and, for StableSwap, log c and
# log c +- tau * 2**j, as in test_strip.py.  It reads within 2e-10 of the
# strip's vega / s, its derivative identity, on these curves.
WIDTH = 8
Z_NODES = 12


def expected_liquidity(curve, q0, vols):
    """E[l(Q)] for Q = q0 * exp(v Z - v**2 / 2), at each total vol v > 0."""
    cuts = [math.log(b) for b in curve.trade_bounds if 0.0 < b < math.inf]
    if isinstance(curve, StableSwap):
        tau = 2.0 / (2.0 * curve.amplification + 1.0)
        steps = tau * 2.0 ** np.arange(64)
        steps = steps[steps < 2.0 * WIDTH * vols.max()]
        log_c = math.log(curve.price_center)
        cuts += [log_c, *(log_c + steps), *(log_c - steps)]
    v = vols[:, None]
    # a cut beyond the width clips to an empty panel at its end
    z_cuts = np.clip((np.array(cuts) - math.log(q0) + 0.5 * v * v) / v, -WIDTH, WIDTH)
    unit = np.broadcast_to(np.arange(-WIDTH, WIDTH + 1.0), (len(vols), 2 * WIDTH + 1))
    edges = np.sort(np.concatenate([unit, z_cuts], axis=1), axis=1)
    x, w = np.polynomial.legendre.leggauss(Z_NODES)
    half = 0.5 * np.diff(edges, axis=1)[..., None]
    z = edges[:, :-1, None] + half * (1.0 + x)
    q = q0 * np.exp(v[..., None] * (z - 0.5 * v[..., None]))
    density = curve.liquidity_grid(q) * half * w * np.exp(-0.5 * z * z)
    return density.sum(axis=(1, 2)) / math.sqrt(2.0 * math.pi)


def controlled_mc(curve, var, n_paths, n_steps, seed):
    """(mean, stderr) of fees plus terminal value minus the holdings' rebalancing P&L."""
    p = PARAMS
    rng = np.random.default_rng(seed)
    dt = MATURITY / n_steps
    sx, sy = p.sigma_x * math.sqrt(dt), p.sigma_y * math.sqrt(dt)
    drift_x, drift_y = (p.r - 0.5 * p.sigma_x**2) * dt, (p.r - 0.5 * p.sigma_y**2) * dt
    rho_c = math.sqrt(1.0 - p.rho**2)
    grow = math.exp(-p.r * dt)
    px, py = np.ones(n_paths), np.ones(n_paths)
    fees, hedge = np.zeros(n_paths), np.zeros(n_paths)
    for k in range(n_steps):
        discount = math.exp(-p.r * k * dt)
        q = px / py
        x, y = curve.holdings_grid(q)
        fees += discount * 0.5 * var * dt * py * curve.liquidity_grid(q)
        z = rng.standard_normal((2, n_paths))
        px_next = px * np.exp(drift_x + sx * z[0])
        py_next = py * np.exp(drift_y + sy * (p.rho * z[0] + rho_c * z[1]))
        hedge += discount * (x * (grow * px_next - px) + y * (grow * py_next - py))
        px, py = px_next, py_next
    totals = fees + math.exp(-p.r * MATURITY) * py * curve.pool_value_grid(px / py) - hedge
    return float(totals.mean()), float(totals.std(ddof=1) / math.sqrt(n_paths))


@pytest.mark.parametrize("curve", CURVES, ids=[c.kind for c in CURVES])
def test_martingale_bias_is_o_dt_and_the_controlled_mc_matches_it(curve):
    var = effective_variance(PARAMS)
    n_max = STEPS[-1]
    vols = np.sqrt(var * MATURITY * np.arange(1, n_max) / n_max)
    mean_liquidity = np.concatenate([[curve.liquidity(1.0)], expected_liquidity(curve, 1.0, vols)])
    for k in (0, 99, n_max - 2):  # the kernel against the strip's vega / s
        _, vega = curve.floating_leg(1.0, vols[k])
        assert mean_liquidity[k + 1] == pytest.approx(vega / vols[k], rel=1e-8)

    v0 = dollar_pool_value(curve, 1.0, 1.0)
    leg, _ = curve.floating_leg(1.0, math.sqrt(var * MATURITY))

    def bias(n):  # E[estimator at n steps] - V0, at p0x = p0y = 1
        return 0.5 * var * (MATURITY / n) * mean_liquidity[:: n_max // n].sum() - leg

    # (a) E l(Q_t) falls in t, so the left sum lies above; halving dt halves it
    biases = [bias(n) for n in STEPS]
    print(curve.kind, "bias at", dict(zip(STEPS, (f"{b:.3e}" for b in biases))))
    for coarse, fine in zip(biases, biases[1:]):
        assert fine > 0.0
        assert 1.8 <= coarse / fine <= 2.4

    # (b) the controlled MC at MC_STEPS against V0 plus that bias
    mean, stderr = controlled_mc(curve, var, MC_PATHS[curve.kind], MC_STEPS, SEED)
    want = v0 + bias(MC_STEPS)
    z = (mean - want) / stderr
    print(f"{curve.kind}: mean={mean:.6f} want={want:.6f} bias={want - v0:.2e} stderr={stderr:.1e} z={z:+.2f}")
    assert abs(mean - want) <= 3.0 * stderr
    if isinstance(curve, StableSwap):
        assert stderr <= 5e-4
        assert want - v0 > 10.0 * stderr  # the bias the plain check cannot see
