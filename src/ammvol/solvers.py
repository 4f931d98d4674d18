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
``floating_leg_grid`` kernel, an option strip (see ``ammvol.curves``), and
its analytic vega; implied vols come from one safeguarded Newton on it,
``_solve_legs``, batched over a stream's windows and run on one element
for a single quote.  The no-arbitrage cap C(q0) is the curve's
``pool_value_grid``, computed once per quote or stream.  Monte Carlo stays
as the independent oracle (``mc_expected_pool_value``, ``mc_floating_leg``)
and as the stderr ``implied_vol`` reports.  Only ``floating_leg_value``
still takes an McConfig it ignores: the benchmark passes one to it by
position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import AmmCurve
from .errors import (
    ArbitrageViolation,
    InvalidParams,
    NoConvergence,
    OutOfBounds,
    check_count,
    check_nonnegative,
    check_positive,
    check_seed,
)
from .fees import MAX_PATHS, YEAR_SECONDS, mc_mean_stderr
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
        for name in ("maturity", "p0x", "p0y"):
            object.__setattr__(self, name, check_positive(getattr(self, name), name))
        for name in ("r", "liquidity_tokens"):
            object.__setattr__(self, name, check_nonnegative(getattr(self, name), name))
        check_positive(self.q0, "p0x / p0y")

    @property
    def q0(self) -> float:
        return self.p0x / self.p0y

    @property
    def notional_scale(self) -> float:
        return self.liquidity_tokens * self.p0y

    def pool_value_now(self) -> float:
        """Dollar pool value of the swap notional at the start prices: the
        notional times the curve's ``pool_value_grid`` at the spot.  A value
        beyond the float range raises InvalidParams."""
        with np.errstate(over="ignore"):  # an overflow is refused just below
            value = self.notional_scale * self.curve.pool_value_grid(_one(self.q0))[0]
        return check_nonnegative(value, "the pool value at the start prices")


def _one(value: float) -> np.ndarray:
    return np.array([value], dtype=float)


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings; antithetic pairing halves the draw count."""

    n_paths: int = 100_000
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        object.__setattr__(self, "n_paths", check_count(self.n_paths, "n_paths", 2, MAX_PATHS))
        check_seed(self.seed)


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


def _check_kernel(p0: float, sigma: float, maturity: float) -> tuple[float, float, float]:
    p0 = check_positive(p0, "p0")
    sigma = check_nonnegative(sigma, "sigma")
    maturity = check_positive(maturity, "maturity")
    if sigma * sigma * maturity == math.inf:
        raise InvalidParams(f"sigma**2 * maturity must be finite, got sigma={sigma!r}, maturity={maturity!r}")
    return p0, sigma, maturity


def mc_expected_pool_value(
    curve: AmmCurve, p0: float, sigma: float, maturity: float, mc: McConfig | None = None
) -> tuple[float, float]:
    """Raw Monte Carlo estimate of E[C(p0 * kernel(sigma))] and its stderr.

    No closed-form shortcuts: this is the estimator the exact formulas are
    validated against.
    """
    mc = mc or McConfig()
    p0, sigma, maturity = _check_kernel(p0, sigma, maturity)
    z = _draw_normals(mc)
    q = p0 * np.exp(-0.5 * sigma * sigma * maturity + sigma * math.sqrt(maturity) * z)
    vals = curve.pool_value_grid(q)
    return mc_mean_stderr(vals, mc.antithetic)


def lognormal_kernel_expectation(curve: AmmCurve, p0: float, sigma: float, maturity: float) -> float:
    """E[C(p0 * kernel(sigma))] from the curve's floating-leg kernel.

    Exact for sigma=0 and for Cpmm.
    """
    p0, sigma, maturity = _check_kernel(p0, sigma, maturity)
    c0 = float(curve.pool_value_grid(np.array([p0]))[0])
    if sigma == 0.0:
        return c0
    return c0 - curve.floating_leg(p0, sigma * math.sqrt(maturity))[0]


def _legs(curve: AmmCurve, q0, root_t, scale, sigma) -> tuple[np.ndarray, np.ndarray]:
    """(floating legs, d leg/d sigma) in dollars, elementwise over arrays of
    spots q0, square-root horizons, notionals and vols; zero where sigma or
    the notional is.  What overflows is left for the caller to refuse."""
    if not (sigma.all() and scale.all()):
        value, vega = np.zeros(sigma.shape), np.zeros(sigma.shape)
        live = (sigma != 0.0) & (scale != 0.0)
        value[live], vega[live] = _legs(curve, q0[live], root_t[live], scale[live], sigma[live])
        return value, vega
    with np.errstate(all="ignore"):
        value, vega = curve.floating_leg_grid(q0, sigma * root_t)
        value *= scale
        vega *= scale
        vega *= root_t
    return value, vega


def _leg(spec: SwapSpec, sigma: float) -> tuple[float, float]:
    """(floating leg, d leg/d sigma) in dollars for the swap notional.

    A leg or vega beyond the float range raises InvalidParams.
    """
    value, vega = _legs(spec.curve, *map(_one, (spec.q0, math.sqrt(spec.maturity), spec.notional_scale, sigma)))
    value, vega = float(value[0]), float(vega[0])
    if not (math.isfinite(value) and math.isfinite(vega)):
        raise InvalidParams(f"the floating leg at sigma={sigma!r} is beyond the float range")
    return value, vega


def mc_floating_leg(spec: SwapSpec, sigma: float, mc: McConfig | None = None) -> tuple[float, float]:
    """(floating leg value, MC stderr) in dollars for the swap notional.

    Curves whose leg has a closed form, a zero vol and a zero notional
    return the kernel's leg with zero stderr.
    """
    sigma = check_nonnegative(sigma, "sigma")
    scale = spec.notional_scale
    if spec.curve.exact_floating_leg or sigma == 0.0 or scale == 0.0:
        return _leg(spec, sigma)[0], 0.0
    c0 = spec.pool_value_now() / scale
    mean, stderr = mc_expected_pool_value(spec.curve, spec.q0, sigma, spec.maturity, mc)
    return scale * (c0 - mean), scale * stderr


def floating_leg_value(spec: SwapSpec, sigma: float, mc: McConfig | None = None) -> float:
    """Present value of the accrued fee/LVR stream over the swap horizon.
    ``mc`` is ignored; it stays only because the benchmark workloads pass it
    (ROADMAP item 2)."""
    return _leg(spec, check_nonnegative(sigma, "sigma"))[0]


def _solve_legs(curve: AmmCurve, q0, maturity, scale, target, cap, tol: float):
    """(sigma, vega at the last evaluation, iterations, errors): elementwise
    over arrays of spots, horizons, notionals, fixed legs and pool values,
    the vol at which the floating leg is worth the fixed leg; ``errors``
    maps the index of each element that fails to its exception.

    One safeguarded Newton on log(leg) against log(sigma), exact in one step
    where the leg grows like sigma**2, from the vol a constant-product pool
    of value cap would need.  Every evaluation tightens a bracket [lo, hi];
    a step leaving it bisects, and so does an evaluation whose target / leg
    is not a positive double.  An element freezes once its step is within
    tol * max(1, sigma).  Each iteration prices one strip over the elements
    still moving, and then steps each of them in scalar arithmetic, cheaper
    than array calls at these sizes.  A solve that stops on a bisection
    returns only once legs on both sides of its target were evaluated; one
    that never brackets its target raises NoConvergence.  tol must lie in
    (0, 1).
    """
    if not 0.0 < tol < 1.0:
        raise InvalidParams(f"tol must lie in (0, 1), got {tol!r}")
    root_t = np.sqrt(maturity)
    sigma_out, vega_out = np.zeros(target.shape), np.zeros(target.shape)
    iterations = np.zeros(target.shape, dtype=np.int64)
    errors: dict[int, Exception] = {}
    # (element, lo, hi, sigma, sides evaluated: 1 below the target, 2 above)
    todo = [
        (k, 0.0, _SIGMA_CAP, min(math.sqrt(-8.0 / t * math.log1p(-pi_bar / c)), _SIGMA_CAP), 0)
        for k, (t, pi_bar, c) in enumerate(zip(maturity.tolist(), target.tolist(), cap.tolist()))
        if pi_bar > 0.0  # a zero fixed leg is a zero vol
    ]
    targets, rows = target.tolist(), None
    for iteration in range(1, _MAX_NEWTON_STEPS + 1):
        if not todo:
            break
        if rows is None or rows.size != len(todo):  # the elements still moving
            rows = np.array([state[0] for state in todo])
            args = q0[rows], root_t[rows], scale[rows]
        values, vegas = _legs(curve, *args, np.array([state[3] for state in todo]))
        moving = []
        for (k, lo, hi, sigma, sides), value, vega in zip(todo, values.tolist(), vegas.tolist()):
            pi_bar = targets[k]
            if not (math.isfinite(value) and math.isfinite(vega)):
                errors[k] = InvalidParams(f"the floating leg at sigma={sigma!r} is beyond the float range")
                continue
            if value < pi_bar:
                lo, sides = sigma, sides | 1
            else:
                hi, sides = sigma, sides | 2
            # the slope of log(leg) against log(sigma) is the elasticity
            elasticity = sigma * vega / value if value > 0.0 else 0.0
            ratio = pi_bar / value if value > 0.0 else 0.0
            if 0.0 < elasticity < math.inf and 0.0 < ratio < math.inf:
                step = math.log(ratio) / elasticity
            else:
                step = math.inf
            nxt = sigma * math.exp(step) if abs(step) < 700.0 else -1.0  # else exp overflows
            newton = lo <= nxt <= hi
            if not newton:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - sigma) > tol * max(1.0, nxt):
                moving.append((k, lo, hi, nxt, sides))
            elif nxt >= _SIGMA_CAP * (1.0 - tol):
                errors[k] = ArbitrageViolation(
                    f"no volatility below {_SIGMA_CAP} reproduces fixed leg {pi_bar:.6g} "
                    f"against pool value {float(cap[k]):.6g}"
                )
            elif not newton and sides != 3:
                errors[k] = NoConvergence(
                    f"bisection stopped at sigma={nxt!r} without bracketing fixed leg {pi_bar:.6g}: "
                    f"every floating leg evaluated lies {'above' if sides == 2 else 'below'} it"
                )
            else:
                sigma_out[k], vega_out[k], iterations[k] = nxt, vega, iteration
        # once an element has failed, the results of those after it no longer matter
        todo = [state for state in moving if state[0] < min(errors)] if errors else moving
    for state in todo:
        errors[state[0]] = NoConvergence(
            f"Newton solve did not reach tolerance {tol:g} within {_MAX_NEWTON_STEPS} iterations"
        )
    return sigma_out, vega_out, iterations, errors


def _solve_quote(spec: SwapSpec, pi_bar: float, cap: float, tol: float) -> tuple[float, float, int]:
    """(sigma, vega at the last evaluation, iterations) with leg(sigma) =
    pi_bar: ``_solve_legs`` on one element, raising its error."""
    sigma, vega, iterations, errors = _solve_legs(
        spec.curve, *map(_one, (spec.q0, spec.maturity, spec.notional_scale, pi_bar, cap)), tol
    )
    if errors:
        raise errors[0]
    return float(sigma[0]), float(vega[0]), int(iterations[0])


def _check_quote(spec: SwapSpec, pi_bar: float, sigmas=None) -> tuple[float, tuple[float, float] | None]:
    """(pool value, correlation band or None): the one no-arbitrage rule for
    a fixed leg.  pi_bar at or above the pool value raises ArbitrageViolation
    (``_check_below_cap``); only then, given (sigma_x, sigma_y), pi_bar
    outside ``implied_corr_bounds`` widened by a slack of the pool value
    raises OutOfBounds."""
    cap = _check_below_cap(pi_bar, spec.pool_value_now())
    if sigmas is None:
        return cap, None
    pi_lo, pi_hi = implied_corr_bounds(spec, *sigmas)
    slack = 1e-3 * cap
    if pi_bar < pi_lo - slack or pi_bar > pi_hi + slack:
        raise OutOfBounds(
            f"fixed leg {pi_bar:.6g} lies outside the correlation-implied interval "
            f"[{pi_lo:.6g}, {pi_hi:.6g}]"
        )
    return cap, (pi_lo, pi_hi)


def _check_below_cap(pi_bar: float, cap: float) -> float:
    """cap, once pi_bar lies below it: paying a fixed leg at or above the
    pool value admits a risk-free profit, and raises ArbitrageViolation."""
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

    The quote passes ``_check_quote`` once, and its pool value seeds a
    safeguarded Newton solve on the floating-leg kernel and its analytic
    vega, converged to tol * max(1, sigma).  The stderr is the MC noise of
    the expected pool value at the solution (zero for closed forms) over the
    vega: how far sampling noise in a quote would move the implied vol.
    """
    pi_bar = check_nonnegative(pi_bar, "pi_bar")
    return _implied_vol(spec, pi_bar, _check_quote(spec, pi_bar)[0], mc, tol)


def _implied_vol(spec: SwapSpec, pi_bar: float, cap: float, mc: McConfig | None, tol: float) -> IvSolution:
    """``implied_vol`` of a quote already checked below its pool value cap;
    the price noise is the expected pool value's, as C(q0) carries none."""
    sigma, vega, iterations = _solve_quote(spec, pi_bar, cap, tol)
    stderr = 0.0
    if not (spec.curve.exact_floating_leg or sigma == 0.0):
        price_se = spec.notional_scale * mc_expected_pool_value(spec.curve, spec.q0, sigma, spec.maturity, mc)[1]
        if price_se != 0.0:
            stderr = price_se / vega if vega > 0.0 else math.inf
    return IvSolution(sigma=sigma, stderr=stderr, iterations=iterations)


def implied_vol_cpmm_closed_form(
    p0x: float, pi_bar: float, maturity: float, liquidity_tokens: float = 1.0
) -> float:
    """Constant-product implied volatility in closed form.

    Inverts pi_bar = 2L*sqrt(p0x)*(1 - exp(-sigma**2*T/8)).
    """
    p0x = check_positive(p0x, "p0x")
    pi_bar = check_nonnegative(pi_bar, "pi_bar")
    maturity = check_positive(maturity, "maturity")
    liquidity_tokens = check_positive(liquidity_tokens, "liquidity_tokens")
    cap = check_positive(2.0 * liquidity_tokens * math.sqrt(p0x), "the pool value 2*L*sqrt(p0x)")
    _check_below_cap(pi_bar, cap)
    if pi_bar == 0.0:
        return 0.0
    log_ratio = math.log(cap / (cap - pi_bar))
    variance = 8.0 / maturity * log_ratio
    if math.isfinite(variance):
        return math.sqrt(variance)
    # a maturity so short that sigma**2 overflows, though sigma does not
    return math.sqrt(8.0 * log_ratio) / math.sqrt(maturity)


def implied_corr_bounds(spec: SwapSpec, sigma_x: float, sigma_y: float) -> tuple[float, float]:
    """Fixed-leg interval consistent with correlations in [-1, +1].

    The effective pair volatility ranges over [|sx-sy|, sx+sy], so the
    endpoints are the floating-leg values at those volatilities.
    """
    sigma_x = check_positive(sigma_x, "sigma_x")
    sigma_y = check_positive(sigma_y, "sigma_y")
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
    rho = (sx**2 + sy**2 - sigma_bar**2) / (2*sx*sy), taken in units of a
    power of two near max(sx, sy): exact, and no square over- or underflows.
    The quote must pass ``_check_quote``, the rule ``validate_quote`` also
    applies, once; quotes at or within its slack of the band's ends pin rho
    to exactly +1 or -1, and its pool value seeds ``implied_vol``'s solve.
    """
    sigma_x = check_positive(sigma_x, "sigma_x")
    sigma_y = check_positive(sigma_y, "sigma_y")
    pi_bar = check_nonnegative(pi_bar, "pi_bar")
    cap, (pi_lo, pi_hi) = _check_quote(spec, pi_bar, (sigma_x, sigma_y))
    if pi_bar <= pi_lo:
        return CorrSolution(rho=1.0, sigma_bar=abs(sigma_x - sigma_y), stderr=0.0, iterations=0)
    if pi_bar >= pi_hi:
        return CorrSolution(rho=-1.0, sigma_bar=sigma_x + sigma_y, stderr=0.0, iterations=0)
    sol = _implied_vol(spec, pi_bar, cap, mc, tol)
    unit = math.ldexp(1.0, math.frexp(max(sigma_x, sigma_y))[1] - 1)
    a, b, c = sigma_x / unit, sigma_y / unit, sol.sigma / unit
    rho = min(max((a * a + b * b - c * c) / (2.0 * a * b), -1.0), 1.0)
    stderr = sol.stderr * c / (a * b) / unit
    return CorrSolution(rho=rho, sigma_bar=sol.sigma, stderr=stderr, iterations=sol.iterations)


def fee_vol_from_realized(window_fees: float, spec: SwapSpec, tol: float = 1e-6) -> float:
    """Volatility implied by treating realized window fees as the fixed leg.

    spec.p0x should be the pool spot at the window start and spec.maturity
    the window length in years, so windows of equal length are comparable.
    No Monte Carlo runs: every curve inverts its floating-leg kernel.
    """
    fees = check_nonnegative(window_fees, "window_fees")
    return _solve_quote(spec, fees, _check_quote(spec, fees)[0], tol)[0]


# windows per batched solve: a strip's temporaries peak at about 70 kB per
# window, so a chunk adds about 1 MB whatever the stream's length
_FEE_VOL_CHUNK = 16


def _window_terms(stat: WindowStat) -> tuple[int, float, float]:
    """(start second, length in years, fees) of one window; InvalidParams
    naming it where the start is not an int64 or the length is beyond a double."""
    try:
        return int(np.int64(stat.window_start)), (stat.window_end - stat.window_start) / YEAR_SECONDS, stat.fees
    except OverflowError:
        raise InvalidParams(f"window [{stat.window_start!r}, {stat.window_end!r}) is out of range: its start "
                            "must be an int64 second and its length in years a double") from None


def attach_fee_vols(ledger: SimLedger, stats: list[WindowStat]) -> list[WindowStat]:
    """Fill in each window's fee_vol, and its Newton iterations, from its
    realized fees.

    Each window is priced as its own swap of unit notional: spot at the
    window start, window length as maturity, the ledger's (already scaled)
    pool as the curve.  One pass takes all windows' terms and pool values as
    arrays and finds the first window that ``SwapSpec`` or ``_check_quote``
    refuses; the windows above it are solved _FEE_VOL_CHUNK at a time, in
    one ``_solve_legs`` each.  The first window that fails raises its error.
    """
    rows = []
    for stat in stats:
        try:
            rows.append(_window_terms(stat))
        except InvalidParams:  # raised below, unless a window above it fails first
            break
    start, maturity, fees = np.array(rows, dtype=object).reshape(-1, 3).T
    spot, maturity, fees = ledger.spot_at(start.astype(np.int64)), maturity.astype(float), fees.astype(float)
    with np.errstate(all="ignore"):  # a pool value that is not a double fails below
        caps = ledger.curve.pool_value_grid(spot)
    ok = (0.0 < maturity) & (0.0 < spot) & (0.0 <= fees) & (fees < caps) & np.isfinite([maturity, spot, caps]).all(0)
    n = len(rows) if ok.all() else int(np.argmin(ok))
    out = []
    for first in range(0, n, _FEE_VOL_CHUNK):
        part = slice(first, min(first + _FEE_VOL_CHUNK, n))
        sigma, _, iterations, errors = _solve_legs(
            ledger.curve, spot[part], maturity[part], np.ones_like(fees[part]), fees[part], caps[part], 1e-6
        )
        if errors:
            raise errors[min(errors)]
        out.extend(
            replace(stat, fee_vol=vol, fee_vol_iterations=steps)
            for stat, vol, steps in zip(stats[part], sigma.tolist(), iterations.tolist())
        )
    if n < len(stats):  # the failing window's error, as SwapSpec and _check_quote raise it
        start, maturity, fee = _window_terms(stats[n])
        spec = SwapSpec(ledger.curve, maturity, ledger.spot_at(start), 1.0)
        _check_quote(spec, check_nonnegative(fee, "window_fees"))
    return out
