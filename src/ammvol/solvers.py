"""Implied volatility and implied correlation from a fee-swap fixed leg.

A fixed-for-floating fee swap pays the pool's fee/LVR stream over [0, T]
against an upfront fixed payment pi_bar.  Valued in money-market units the
floating leg of one unit of liquidity reduces to

    value(sigma) = C(q0) - E[ C(q0 * exp(-sigma**2*T/2 + sigma*sqrt(T)*Z)) ]

with C the pool value function and Z standard normal: the expected pool
value against a driftless lognormal kernel.  value(sigma) is continuous,
zero at sigma=0 and strictly increasing toward C(q0), so a quoted fixed
leg in [0, C(q0)) identifies a unique implied volatility.  For a
two-risky-asset pair the same machinery prices the effective pair
volatility sigma_bar, and the implied correlation follows from

    sigma_bar**2 = sigma_x**2 - 2*rho*sigma_x*sigma_y + sigma_y**2.

Every valuation and inversion goes through the curve's deterministic
``floating_leg`` kernel, an option strip (see ``ammvol.curves``), and its
analytic vega; implied vols are safeguarded Newton solves on it.  Monte
Carlo stays as the independent oracle (``mc_expected_pool_value``,
``mc_floating_leg``) and as the stderr ``implied_vol`` reports.  Only
``floating_leg_value`` still takes an McConfig it ignores: the benchmark
passes one to it by position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import AmmCurve
from .errors import ArbitrageViolation, InvalidParams, NoConvergence, OutOfBounds
from .fees import YEAR_SECONDS, _check_nonnegative, _check_seed, mc_mean_stderr
from .simulation import SimLedger, WindowStat

# implied vols are sought on (0, _SIGMA_CAP]
_SIGMA_CAP = 64.0
_MAX_NEWTON_STEPS = 100


@dataclass(frozen=True)
class SwapSpec:
    """Terms of one fee swap: the pool, the horizon and the start prices.

    liquidity_tokens scales the notional on top of the curve's own size.
    The rate r is carried for reporting; pricing works in money-market
    units, so only the driftless kernel is ever simulated.
    """

    curve: AmmCurve
    maturity: float
    p0x: float
    p0y: float = 1.0
    r: float = 0.0
    liquidity_tokens: float = 1.0

    def __post_init__(self):
        if not isinstance(self.curve, AmmCurve):
            raise InvalidParams(f"curve must be an AmmCurve, got {type(self.curve).__name__}")
        if not (math.isfinite(self.maturity) and self.maturity > 0.0):
            raise InvalidParams(f"maturity must be a positive number of years, got {self.maturity!r}")
        if not (math.isfinite(self.p0x) and self.p0x > 0.0 and math.isfinite(self.p0y) and self.p0y > 0.0):
            raise InvalidParams("start prices must be positive")
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise InvalidParams(f"rate must be nonnegative, got {self.r!r}")
        if not (math.isfinite(self.liquidity_tokens) and self.liquidity_tokens >= 0.0):
            raise InvalidParams(f"liquidity_tokens must be nonnegative, got {self.liquidity_tokens!r}")

    @property
    def q0(self) -> float:
        return self.p0x / self.p0y

    @property
    def notional_scale(self) -> float:
        return self.liquidity_tokens * self.p0y

    def pool_value_now(self) -> float:
        """Dollar pool value of the swap notional at the start prices.

        Beyond the curve's price domain the pool holds the boundary portfolio.
        """
        lo, hi = self.curve.q_bounds
        x, y = self.curve.holdings(min(max(self.q0, lo), hi))
        return self.notional_scale * (self.q0 * x + y)


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings; antithetic pairing halves the draw count."""

    n_paths: int = 100_000
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        try:  # NaN and inf have no int(), a string no isfinite()
            n_paths = int(self.n_paths) if math.isfinite(self.n_paths) else None
        except TypeError:
            n_paths = None
        if n_paths is None or n_paths != self.n_paths or n_paths < 2:
            raise InvalidParams(f"n_paths must be an integer >= 2, got {self.n_paths!r}")
        object.__setattr__(self, "n_paths", n_paths)  # so 1000.0 draws 1000 paths
        _check_seed(self.seed)


@dataclass(frozen=True)
class IvSolution:
    sigma: float
    stderr: float
    iterations: int


@dataclass(frozen=True)
class CorrSolution:
    rho: float
    sigma_bar: float
    stderr: float
    iterations: int


def _draw_normals(mc: McConfig) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(mc.seed))
    if mc.antithetic:
        z = rng.standard_normal(mc.n_paths // 2)
        return np.concatenate([z, -z])
    return rng.standard_normal(mc.n_paths)


def _check_kernel(p0: float, sigma: float, maturity: float) -> None:
    if not (math.isfinite(p0) and p0 > 0.0):
        raise InvalidParams(f"p0 must be a positive finite number, got {p0!r}")
    _check_nonnegative(sigma, "sigma")
    if not (math.isfinite(maturity) and maturity > 0.0):
        raise InvalidParams(f"maturity must be a positive finite number, got {maturity!r}")


def mc_expected_pool_value(
    curve: AmmCurve, p0: float, sigma: float, maturity: float, mc: McConfig | None = None
) -> tuple[float, float]:
    """Raw Monte Carlo estimate of E[C(p0 * kernel(sigma))] and its stderr.

    No closed-form shortcuts: this is the estimator the exact formulas are
    validated against.
    """
    mc = mc or McConfig()
    _check_kernel(p0, sigma, maturity)
    z = _draw_normals(mc)
    q = p0 * np.exp(-0.5 * sigma * sigma * maturity + sigma * math.sqrt(maturity) * z)
    vals = curve.pool_value_grid(q)
    return mc_mean_stderr(vals, mc.antithetic)


def lognormal_kernel_expectation(curve: AmmCurve, p0: float, sigma: float, maturity: float) -> float:
    """E[C(p0 * kernel(sigma))] from the curve's floating-leg kernel.

    Exact for sigma=0 and for Cpmm.
    """
    _check_kernel(p0, sigma, maturity)
    c0 = float(curve.pool_value_grid(np.array([p0]))[0])
    if sigma == 0.0:
        return c0
    return c0 - curve.floating_leg(p0, sigma * math.sqrt(maturity))[0]


def _leg(spec: SwapSpec, sigma: float) -> tuple[float, float]:
    """(floating leg, d leg/d sigma) in dollars for the swap notional."""
    scale = spec.notional_scale
    if sigma == 0.0 or scale == 0.0:
        return 0.0, 0.0
    root_t = math.sqrt(spec.maturity)
    value, vega = spec.curve.floating_leg(spec.q0, sigma * root_t)
    return scale * value, scale * vega * root_t


def mc_floating_leg(spec: SwapSpec, sigma: float, mc: McConfig | None = None) -> tuple[float, float]:
    """(floating leg value, MC stderr) in dollars for the swap notional.

    Curves whose leg has a closed form, a zero vol and a zero notional
    return the kernel's leg with zero stderr.
    """
    sigma = _check_nonnegative(sigma, "sigma")
    scale = spec.notional_scale
    if spec.curve.exact_floating_leg or sigma == 0.0 or scale == 0.0:
        return _leg(spec, sigma)[0], 0.0
    c0 = spec.pool_value_now() / scale
    mean, stderr = mc_expected_pool_value(spec.curve, spec.q0, sigma, spec.maturity, mc)
    return scale * (c0 - mean), scale * stderr


def floating_leg_value(spec: SwapSpec, sigma: float, mc: McConfig | None = None) -> float:
    """Present value of the accrued fee/LVR stream over the swap horizon."""
    return _leg(spec, _check_nonnegative(sigma, "sigma"))[0]


def _solve_leg(spec: SwapSpec, pi_bar: float, cap: float, tol: float) -> tuple[float, float, int]:
    """(sigma, vega at the last evaluation, iterations) with leg(sigma) = pi_bar.

    Newton on log(leg) against log(sigma), exact in one step where the leg
    grows like sigma**2, starting from the vol a constant-product pool of
    value cap would need; steps leaving the bracket [lo, hi] that every
    evaluation tightens bisect it.  Stops once a step is within
    tol * max(1, sigma).
    """
    lo, hi = 0.0, _SIGMA_CAP
    sigma = min(math.sqrt(-8.0 / spec.maturity * math.log1p(-pi_bar / cap)), _SIGMA_CAP)
    for iterations in range(1, _MAX_NEWTON_STEPS + 1):
        value, vega = _leg(spec, sigma)
        if value < pi_bar:
            lo = sigma
        else:
            hi = sigma
        # the slope of log(leg) against log(sigma) is the elasticity
        elasticity = sigma * vega / value if value > 0.0 else 0.0
        step = math.log(pi_bar / value) / elasticity if elasticity > 0.0 else math.inf
        nxt = sigma * math.exp(step) if abs(step) < 700.0 else -1.0  # else exp overflows
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - sigma) <= tol * max(1.0, nxt):
            if nxt >= _SIGMA_CAP * (1.0 - tol):
                raise ArbitrageViolation(
                    f"no volatility below {_SIGMA_CAP} reproduces fixed leg {pi_bar:.6g} "
                    f"against pool value {cap:.6g}"
                )
            return nxt, vega, iterations
        sigma = nxt
    raise NoConvergence(
        f"Newton solve did not reach tolerance {tol:g} within {_MAX_NEWTON_STEPS} iterations"
    )


def _require_below_cap(spec: SwapSpec, pi_bar: float) -> float:
    cap = spec.pool_value_now()
    if pi_bar >= cap:
        raise ArbitrageViolation(
            f"fixed leg {pi_bar:.6g} >= pool value {cap:.6g}: "
            "paying it admits a risk-free profit"
        )
    return cap


def implied_vol(
    spec: SwapSpec, pi_bar: float, mc: McConfig | None = None, tol: float = 1e-6
) -> IvSolution:
    """Invert the floating leg: the volatility at which it is worth pi_bar.

    A safeguarded Newton solve on the floating-leg kernel and its analytic
    vega, converged to tol * max(1, sigma).  The stderr is the MC price noise
    of ``mc_floating_leg`` at the solution over the vega (zero for closed
    forms): how far sampling noise in a quote would move the implied vol.
    """
    mc = mc or McConfig()
    pi_bar = float(pi_bar)
    if not math.isfinite(pi_bar) or pi_bar < 0.0:
        raise InvalidParams(f"fixed leg must be a nonnegative number, got {pi_bar!r}")
    if not tol > 0.0:
        raise InvalidParams(f"tol must be positive, got {tol!r}")
    cap = _require_below_cap(spec, pi_bar)
    if pi_bar == 0.0:
        return IvSolution(0.0, 0.0, 0)
    sigma, vega, iterations = _solve_leg(spec, pi_bar, cap, tol)
    _, price_se = mc_floating_leg(spec, sigma, mc)
    if price_se == 0.0:
        stderr = 0.0
    else:
        stderr = price_se / vega if vega > 0.0 else math.inf
    return IvSolution(sigma=sigma, stderr=stderr, iterations=iterations)


def implied_vol_cpmm_closed_form(
    p0x: float, pi_bar: float, maturity: float, liquidity_tokens: float = 1.0
) -> float:
    """Constant-product implied volatility in closed form.

    Inverts pi_bar = 2L*sqrt(p0x)*(1 - exp(-sigma**2*T/8)).
    """
    p0x = float(p0x)
    pi_bar = float(pi_bar)
    maturity = float(maturity)
    liquidity_tokens = float(liquidity_tokens)
    if not (p0x > 0.0 and maturity > 0.0 and liquidity_tokens > 0.0):
        raise InvalidParams("p0x, maturity and liquidity_tokens must be positive")
    if not math.isfinite(pi_bar) or pi_bar < 0.0:
        raise InvalidParams(f"fixed leg must be a nonnegative number, got {pi_bar!r}")
    cap = 2.0 * liquidity_tokens * math.sqrt(p0x)
    if pi_bar >= cap:
        raise ArbitrageViolation(
            f"fixed leg {pi_bar:.6g} >= pool value {cap:.6g}: paying it admits a risk-free profit"
        )
    if pi_bar == 0.0:
        return 0.0
    return math.sqrt(8.0 / maturity * math.log(cap / (cap - pi_bar)))


def implied_corr_bounds(spec: SwapSpec, sigma_x: float, sigma_y: float) -> tuple[float, float]:
    """Fixed-leg interval consistent with correlations in [-1, +1].

    The effective pair volatility ranges over [|sx-sy|, sx+sy], so the
    endpoints are the floating-leg values at those volatilities.
    """
    if not (sigma_x > 0.0 and sigma_y > 0.0):
        raise InvalidParams("component volatilities must be positive")
    lo = floating_leg_value(spec, abs(sigma_x - sigma_y))
    hi = floating_leg_value(spec, sigma_x + sigma_y)
    return lo, hi


def implied_corr(
    spec: SwapSpec,
    sigma_x: float,
    sigma_y: float,
    pi_bar: float,
    mc: McConfig | None = None,
    tol: float = 1e-6,
) -> CorrSolution:
    """Correlation implied by the fixed leg given both single-asset vols.

    Solves for the effective pair volatility in numeraire-changed units
    (the y asset is the unit), then maps it through
    rho = (sx**2 + sy**2 - sigma_bar**2) / (2*sx*sy).  Quotes at (or within
    a small slack of) the interval endpoints pin rho to exactly +1 or -1;
    anything further outside is rejected.
    """
    sigma_x = float(sigma_x)
    sigma_y = float(sigma_y)
    if not (sigma_x > 0.0 and sigma_y > 0.0):
        raise InvalidParams("component volatilities must be positive")
    pi_bar = float(pi_bar)
    if not math.isfinite(pi_bar):
        raise InvalidParams(f"fixed leg must be a finite number, got {pi_bar!r}")
    pi_lo, pi_hi = implied_corr_bounds(spec, sigma_x, sigma_y)
    slack = 1e-3 * spec.pool_value_now()
    if pi_bar < pi_lo - slack or pi_bar > pi_hi + slack:
        raise OutOfBounds(
            f"fixed leg {pi_bar:.6g} lies outside the correlation-implied interval "
            f"[{pi_lo:.6g}, {pi_hi:.6g}]"
        )
    if pi_bar <= pi_lo:
        sigma_bar, sig_stderr, iterations = abs(sigma_x - sigma_y), 0.0, 0
    elif pi_bar >= pi_hi:
        sigma_bar, sig_stderr, iterations = sigma_x + sigma_y, 0.0, 0
    else:
        sol = implied_vol(spec, pi_bar, mc, tol)
        sigma_bar, sig_stderr, iterations = sol.sigma, sol.stderr, sol.iterations
    rho = (sigma_x * sigma_x + sigma_y * sigma_y - sigma_bar * sigma_bar) / (2.0 * sigma_x * sigma_y)
    rho = min(max(rho, -1.0), 1.0)
    stderr = sig_stderr * sigma_bar / (sigma_x * sigma_y)
    return CorrSolution(rho=rho, sigma_bar=sigma_bar, stderr=stderr, iterations=iterations)


def fee_vol_from_realized(window_fees: float, spec: SwapSpec, tol: float = 1e-6) -> float:
    """Volatility implied by treating realized window fees as the fixed leg.

    spec.p0x should be the pool spot at the window start and spec.maturity
    the window length in years, so windows of equal length are comparable.
    No Monte Carlo runs: every curve inverts its floating-leg kernel.
    """
    fees = float(window_fees)
    if not math.isfinite(fees) or fees < 0.0:
        raise InvalidParams(f"window fees must be nonnegative, got {fees!r}")
    if fees == 0.0:
        return 0.0
    if not tol > 0.0:
        raise InvalidParams(f"tol must be positive, got {tol!r}")
    return _solve_leg(spec, fees, _require_below_cap(spec, fees), tol)[0]


def attach_fee_vols(ledger: SimLedger, stats: list[WindowStat]) -> list[WindowStat]:
    """Fill in each window's fee_vol from its realized fees.

    Each window is priced as its own swap: spot at the window start, window
    length as maturity, the ledger's (already scaled) pool as the curve.
    """
    out = []
    for stat in stats:
        spec = SwapSpec(
            curve=ledger.curve,
            maturity=(stat.window_end - stat.window_start) / YEAR_SECONDS,
            p0x=ledger.spot_at(stat.window_start),
            p0y=1.0,
        )
        out.append(replace(stat, fee_vol=fee_vol_from_realized(stat.fees, spec)))
    return out
