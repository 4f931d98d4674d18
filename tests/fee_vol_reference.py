"""The scalar fee-vol solve, one window at a time: the oracle the batched
Newton of ``ammvol.solvers._solve_legs`` is held to.

``_solve_leg`` takes the same safeguarded Newton steps on one fixed leg at
a time, each on the one-element strip ``solvers._leg``; ``attach_fee_vols``
loops it over the windows in order, so the first window that fails raises.
Beside each vol it returns the iteration count the batched solve reports.
"""

import math
from dataclasses import replace

from ammvol.errors import ArbitrageViolation, InvalidParams, NoConvergence, check_nonnegative
from ammvol.fees import YEAR_SECONDS
from ammvol.solvers import _SIGMA_CAP, _MAX_NEWTON_STEPS, SwapSpec, _check_quote, _leg


def _solve_leg(spec, pi_bar, cap, tol):
    """(sigma, vega at the last evaluation, iterations) with leg(sigma) = pi_bar.

    Newton on log(leg) against log(sigma), from the vol a constant-product
    pool of value cap would need; steps leaving the bracket [lo, hi] that
    every evaluation tightens bisect it, and so does an evaluation whose
    pi_bar / leg is not a positive double.  Stops once a step is within
    tol * max(1, sigma), but returns a bisection midpoint only once legs on
    both sides of pi_bar were evaluated.
    """
    if not 0.0 < tol < 1.0:
        raise InvalidParams(f"tol must lie in (0, 1), got {tol!r}")
    if pi_bar == 0.0:
        return 0.0, 0.0, 0
    lo, hi, sides = 0.0, _SIGMA_CAP, set()
    sigma = min(math.sqrt(-8.0 / spec.maturity * math.log1p(-pi_bar / cap)), _SIGMA_CAP)
    for iterations in range(1, _MAX_NEWTON_STEPS + 1):
        value, vega = _leg(spec, sigma)
        if value < pi_bar:
            lo = sigma
            sides.add("below")
        else:
            hi = sigma
            sides.add("above")
        elasticity = sigma * vega / value if value > 0.0 else 0.0
        ratio = pi_bar / value if value > 0.0 else 0.0
        if 0.0 < elasticity < math.inf and 0.0 < ratio < math.inf:
            step = math.log(ratio) / elasticity
        else:
            step = math.inf
        nxt = sigma * math.exp(step) if abs(step) < 700.0 else -1.0
        newton = lo <= nxt <= hi
        if not newton:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - sigma) <= tol * max(1.0, nxt):
            if nxt >= _SIGMA_CAP * (1.0 - tol):
                raise ArbitrageViolation(
                    f"no volatility below {_SIGMA_CAP} reproduces fixed leg {pi_bar:.6g} "
                    f"against pool value {cap:.6g}"
                )
            if not newton and len(sides) < 2:
                raise NoConvergence(
                    f"bisection stopped at sigma={nxt!r} without bracketing fixed leg {pi_bar:.6g}: "
                    f"every floating leg evaluated lies {sides.pop()} it"
                )
            return nxt, vega, iterations
        sigma = nxt
    raise NoConvergence(f"Newton solve did not reach tolerance {tol:g} within {_MAX_NEWTON_STEPS} iterations")


def attach_fee_vols(ledger, stats, tol=1e-6):
    """Each window's (fee_vol, iterations) attached by one scalar solve per
    window, in order."""
    out = []
    for stat in stats:
        spec = SwapSpec(
            curve=ledger.curve,
            maturity=(stat.window_end - stat.window_start) / YEAR_SECONDS,
            p0x=ledger.spot_at(stat.window_start),
            p0y=1.0,
        )
        fees = check_nonnegative(stat.fees, "window_fees")
        sigma, _, iterations = _solve_leg(spec, fees, _check_quote(spec, fees)[0], tol)
        out.append(replace(stat, fee_vol=sigma, fee_vol_iterations=iterations))
    return out
