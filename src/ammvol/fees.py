"""Implied fee rates (loss-versus-rebalancing) for AMM pools.

Under risk-neutral correlated geometric Brownian prices with per-year
volatilities sigma_x, sigma_y and correlation rho, a pool on curve
(x(q), y(q)) bleeds value to arbitrageurs at the instantaneous rate

    lvr(q) = -0.5 * sigma_bar**2 * q**2 * x'(q)
           = +0.5 * sigma_bar**2 * q * y'(q)

per unit time, where sigma_bar**2 = sigma_x**2 - 2*rho*sigma_x*sigma_y +
sigma_y**2 is the variance of the price ratio.  Charging trading fees that
accrue at exactly this rate makes the LP position a martingale: the fee
stream is the fair "implied fee" for the liquidity.  In dollar terms the
rate is F(px, py) = py * lvr(px/py).

The module also provides the discrete realized-LVR increment used by the
tick simulator (rebalancing P&L minus pool P&L over one step) and a Monte
Carlo engine that verifies the martingale property by accruing F dt along
discretized GBM paths.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curves import AmmCurve, Holdings, _check_price, dollar_pool_value
from .errors import InvalidParams, RangeError

# Annualization convention: 365.25 days of 86400 seconds.
YEAR_SECONDS = 365.25 * 86400.0


@dataclass(frozen=True)
class GbmParams:
    """Risk-neutral GBM parameters: rate r and per-sqrt-year vols."""

    sigma_x: float
    sigma_y: float = 0.0
    rho: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        for name in ("sigma_x", "sigma_y", "r"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise InvalidParams(f"{name} must be >= 0, got {value!r}")
            object.__setattr__(self, name, value)
        rho = float(self.rho)
        if not math.isfinite(rho) or not -1.0 <= rho <= 1.0:
            raise InvalidParams(f"rho must lie in [-1, 1], got {rho!r}")
        object.__setattr__(self, "rho", rho)

    def to_dict(self) -> dict:
        return {"r": self.r, "sigmaX": self.sigma_x, "sigmaY": self.sigma_y, "rho": self.rho}

    @classmethod
    def from_dict(cls, record: dict) -> "GbmParams":
        if not isinstance(record, dict):
            raise InvalidParams(f"GBM record must be an object, got {type(record).__name__}")
        try:
            return cls(
                sigma_x=record["sigmaX"],
                sigma_y=record.get("sigmaY", 0.0),
                rho=record.get("rho", 0.0),
                r=record.get("r", 0.0),
            )
        except KeyError as exc:
            raise InvalidParams(f"GBM record is missing key {exc.args[0]!r}") from None


def effective_variance(params: GbmParams) -> float:
    """Per-year variance of the price ratio: sx**2 - 2*rho*sx*sy + sy**2."""
    var = params.sigma_x**2 - 2.0 * params.rho * params.sigma_x * params.sigma_y + params.sigma_y**2
    # rho = +/-1 with equal vols can round a hair below zero
    return max(var, 0.0)


def instantaneous_lvr(curve: AmmCurve, q: float, params: GbmParams) -> float:
    """Implied fee rate -0.5 * sigma_bar**2 * q**2 * x'(q), in y per year."""
    q = _check_price(q)
    xp, _ = curve.first_derivs(q)
    return -0.5 * effective_variance(params) * q * q * xp


def implied_fee_rate_dollars(curve: AmmCurve, px: float, py: float, params: GbmParams) -> float:
    """Dollar fee rate F(px, py) = py * lvr(px/py), dollars per year."""
    px = _check_price(px)
    py = _check_price(py)
    return py * instantaneous_lvr(curve, px / py, params)


def cpmm_unit_lvr_with_rate(q: float, r: float, sigma: float) -> float:
    """Unit-liquidity Cpmm fee rate (r + sigma**2/4) * sqrt(q).

    Applies when asset y is a tokenized money-market account earning r, so
    the rebalancing benchmark grows at the rate as well.
    """
    q = _check_price(q)
    if r < 0.0 or sigma < 0.0:
        raise InvalidParams("r and sigma must be >= 0")
    return (r + sigma * sigma / 4.0) * math.sqrt(q)


def concentrated_lvr_with_rate(
    q: float, r: float, sigma: float, liquidity_tokens: float, p_lo: float, p_hi: float
) -> float:
    """Money-market-numeraire fee rate of a range position.

    L * ((r + sigma**2/4)*sqrt(q) - r*sqrt(p_lo)) while q is inside
    [p_lo, p_hi], zero outside.  Strictly below L times the full-range rate
    whenever r > 0: the idle rate on the p_lo boundary stock is not owed.
    """
    q = _check_price(q)
    if r < 0.0 or sigma < 0.0:
        raise InvalidParams("r and sigma must be >= 0")
    if not (0.0 < p_lo < p_hi):
        raise RangeError(f"need 0 < p_lo < p_hi, got [{p_lo!r}, {p_hi!r}]")
    if liquidity_tokens < 0.0:
        raise InvalidParams("liquidity_tokens must be >= 0")
    if not (p_lo <= q <= p_hi):
        return 0.0
    return liquidity_tokens * ((r + sigma * sigma / 4.0) * math.sqrt(q) - r * math.sqrt(p_lo))


def realized_lvr_increment(
    holdings: Holdings,
    px_prev: float,
    px_next: float,
    py_prev: float,
    py_next: float,
    curve: AmmCurve,
) -> float:
    """One-step realized LVR: rebalancing P&L minus pool P&L, in dollars.

    ``holdings`` must be the pool portfolio at the previous price ratio
    px_prev/py_prev.  The rebalancing benchmark holds that portfolio
    through the move; the pool slides along its curve.  Nonnegative for any
    price move by concavity of the pool value.
    """
    x, y = holdings
    rebalance = x * (px_next - px_prev) + y * (py_next - py_prev)
    pool = dollar_pool_value(curve, px_next, py_next) - dollar_pool_value(curve, px_prev, py_prev)
    return rebalance - pool


def mc_mean_stderr(vals: np.ndarray, antithetic: bool) -> tuple[float, float]:
    """Path mean and its stderr; antithetic mates fill the second half."""
    if antithetic:
        half = vals.size // 2
        pair = 0.5 * (vals[:half] + vals[half:])
        mean = float(pair.mean())
        stderr = float(pair.std(ddof=1) / math.sqrt(half)) if half > 1 else 0.0
    else:
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return mean, stderr


def _walk(ln_p: np.ndarray, drift: float, shock: np.ndarray) -> None:
    """Add drift + shock to ln_p, and drift - shock to the antithetic mates
    in its second half when ln_p is twice as long as shock."""
    if ln_p.size == shock.size:
        ln_p += drift + shock
    else:
        ln_p[: shock.size] += drift + shock
        ln_p[shock.size :] += drift - shock


def mc_fee_plus_terminal_value(
    curve: AmmCurve,
    params: GbmParams,
    p0x: float,
    p0y: float,
    maturity: float,
    n_paths: int,
    n_steps: int,
    seed: int = 0,
    antithetic: bool = True,
    stablecoin_flat: bool = False,
) -> tuple[float, float]:
    """Sample mean and standard error of discounted fees plus terminal value.

    Simulates exact-discretization GBM paths for (px, py), accrues the
    dollar fee rate F(px, py) as a left Riemann sum discounted at r, adds
    the discounted terminal pool value, and returns (mean, stderr) over
    paths.  When fees accrue at the implied rate the expectation equals the
    initial dollar pool value, which is what the test suite checks.  Each
    step evaluates x' on all paths with one ``xprime_grid`` call.  With
    ``antithetic`` the second half of the paths are the mates of the first:
    each step draws normals z for the first half and moves the mates by
    drift - s*z, which equals drift + s*(-z) exactly.

    ``stablecoin_flat`` freezes py at p0y (a literal zero-drift stablecoin
    leg).  With r > 0 this breaks the martingale property; it exists for
    experimentation and warns when enabled.
    """
    p0x = _check_price(p0x)
    p0y = _check_price(p0y)
    if not (math.isfinite(maturity) and maturity > 0.0):
        raise InvalidParams(f"maturity must be a positive finite number, got {maturity!r}")
    if n_paths < 2 or n_steps < 1:
        raise InvalidParams("need n_paths >= 2 and n_steps >= 1")
    if stablecoin_flat:
        warnings.warn(
            "stablecoin_flat freezes py with nonzero r: the fee identity no "
            "longer prices the pool consistently across curves",
            RuntimeWarning,
            stacklevel=2,
        )

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
    rate = -0.5 * var
    for k in range(n_steps):
        py = np.exp(ln_py)
        q = np.exp(ln_px)
        q /= py
        xp = curve.xprime_grid(q)
        # the fee rate py * (-var/2 * q**2 * x'(q)), discounted, over dt
        fee = q * rate
        fee *= q
        fee *= xp
        fee *= py
        fee *= math.exp(-r * k * dt)
        fee *= dt
        fees += fee

        z = rng.standard_normal((2, half))
        zy = rho * z[0] + rho_c * z[1]
        _walk(ln_px, drift_x, sx * z[0])
        if not stablecoin_flat:
            _walk(ln_py, drift_y, sy * zy)

    px = np.exp(ln_px)
    py = np.exp(ln_py)
    totals = fees + math.exp(-r * maturity) * py * curve.pool_value_grid(px / py)

    return mc_mean_stderr(totals, antithetic)
