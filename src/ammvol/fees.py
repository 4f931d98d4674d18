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

The module also provides the discrete realized-LVR increment (rebalancing
P&L minus pool P&L over one step; the tick replay computes the same
quantity inline) and a Monte Carlo engine that verifies the martingale
property by accruing F dt along discretized GBM paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import AmmCurve, ConcentratedCpmm, Holdings, dollar_pool_value
from .errors import DomainError, InvalidParams, check_count, check_nonnegative, check_positive, check_seed

# Annualization convention: 365.25 days of 86400 seconds.
YEAR_SECONDS = 365.25 * 86400.0

# The most Monte Carlo paths a run may ask for: price-swap on StableSwap peaks
# near 2 GB at 2**24, and numpy refuses far larger counts with a bare error.
MAX_PATHS = 2**24

# Bytes of normals per draw buffer of the martingale Monte Carlo: a block of
# 8 steps at 10,000 antithetic paths.
_DRAW_BLOCK_BYTES = 640_000


@dataclass(frozen=True)
class GbmParams:
    """Risk-neutral GBM parameters: rate r and per-sqrt-year vols."""

    sigma_x: float
    sigma_y: float = 0.0
    rho: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        for name in ("sigma_x", "sigma_y", "r"):
            object.__setattr__(self, name, check_nonnegative(getattr(self, name), name))
        rho = float(self.rho)
        if not -1.0 <= rho <= 1.0:
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
    """Per-year variance of the price ratio: sx**2 - 2*rho*sx*sy + sy**2.

    Taken in units of a power of two near max(sx, sy), as ``implied_corr``
    takes rho: exact, and no square overflows, so equal vols at rho = 1
    give 0 at any size.  A variance beyond a double raises InvalidParams.
    """
    unit = math.ldexp(1.0, math.frexp(max(params.sigma_x, params.sigma_y))[1] - 1)
    a, b = params.sigma_x / unit, params.sigma_y / unit
    # rho = +/-1 with equal vols can round a hair below zero
    var = max(a * a - 2.0 * params.rho * a * b + b * b, 0.0) * unit * unit
    if var == math.inf:
        raise InvalidParams(
            f"the price-ratio variance of sigma_x {params.sigma_x!r} and sigma_y {params.sigma_y!r} "
            "is beyond the float range"
        )
    return var


def instantaneous_lvr(curve: AmmCurve, q: float, params: GbmParams) -> float:
    """Implied fee rate sigma_bar**2/2 * liquidity(q), liquidity = -q**2 x'(q), in y per year."""
    return _finite_rate(q, 0.5 * effective_variance(params) * curve.liquidity(q))


def _finite_rate(q: float, rate: float) -> float:
    if not math.isfinite(rate):
        raise DomainError(f"the fee rate at price {q!r} is not a finite number")
    return rate


def implied_fee_rate_dollars(curve: AmmCurve, px: float, py: float, params: GbmParams) -> float:
    """Dollar fee rate F(px, py) = py * lvr(px/py), dollars per year."""
    px = check_positive(px, "price", DomainError)
    py = check_positive(py, "price", DomainError)
    rate = py * instantaneous_lvr(curve, px / py, params)
    if not math.isfinite(rate):
        raise DomainError(f"the dollar fee rate at prices {px!r}, {py!r} is not a finite number")
    return rate


def cpmm_unit_lvr_with_rate(q: float, r: float, sigma: float) -> float:
    """Unit-liquidity Cpmm fee rate (r + sigma**2/4) * sqrt(q).

    Applies when asset y is a tokenized money-market account earning r, so
    the rebalancing benchmark grows at the rate as well.
    """
    q = check_positive(q, "price", DomainError)
    r = check_nonnegative(r, "r")
    sigma = check_nonnegative(sigma, "sigma")
    return _finite_rate(q, (r + sigma * sigma / 4.0) * math.sqrt(q))


def concentrated_lvr_with_rate(
    q: float, r: float, sigma: float, liquidity_tokens: float, p_lo: float, p_hi: float
) -> float:
    """Money-market-numeraire fee rate of a range position.

    L * ((r + sigma**2/4)*sqrt(q) - r*sqrt(p_lo)) while q is inside
    [p_lo, p_hi], zero outside.  Strictly below L times the full-range rate
    whenever r > 0: the idle rate on the p_lo boundary stock is not owed.
    """
    q = check_positive(q, "price", DomainError)
    r = check_nonnegative(r, "r")
    sigma = check_nonnegative(sigma, "sigma")
    p_lo, p_hi = ConcentratedCpmm(1.0, p_lo, p_hi).trade_bounds  # the range rule
    liquidity_tokens = check_nonnegative(liquidity_tokens, "liquidity_tokens")
    if not (p_lo <= q <= p_hi):
        return 0.0
    return _finite_rate(q, liquidity_tokens * ((r + sigma * sigma / 4.0) * math.sqrt(q) - r * math.sqrt(p_lo)))


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
        vals = 0.5 * (vals[:half] + vals[half:])
    mean = float(vals.mean())
    if vals.size < 2:
        return mean, 0.0
    # the std of the values over 2**e: scaling by a power of two is exact,
    # and the squares cannot overflow
    e = math.frexp(float(np.max(np.abs(vals))))[1]
    return mean, math.ldexp(float(np.ldexp(vals, -e).std(ddof=1)) / math.sqrt(vals.size), e)


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
) -> tuple[float, float]:
    """Sample mean and standard error of discounted fees plus terminal value.

    Simulates exact-discretization GBM paths for (px, py), accrues the
    dollar fee rate F(px, py) as a left Riemann sum discounted at r, adds
    the discounted terminal pool value, and returns (mean, stderr) over
    paths.  When fees accrue at the implied rate the expectation equals the
    initial dollar pool value, which is what the test suite checks, up to
    the left Riemann sum's O(dt) bias.  The expected rate falls fastest
    near t = 0, while the price leaves a StableSwap knee about 1% wide: at
    2,000 steps StableSwap(100, 2) reads +2.09e-3 above that value, about
    1e-3 of it, which the check's stderr of 3.1e-3 at 10,000 paths hides.
    Each step evaluates x' on all paths with one ``xprime_grid`` call.  With
    ``antithetic`` the second half of the paths are the mates of the first:
    each step draws normals z for the first half and moves the mates by
    drift - s*z, which equals drift + s*(-z) exactly.

    The normals come from one executor thread that draws the next block of
    steps into one of two buffers while the price walk runs on the other,
    so the draws overlap the curve work.  Only that thread touches the
    generator and it fills the blocks in order, so the result does not
    depend on thread scheduling: it equals one (2, half) draw per step, bit
    for bit.  A path total that is not finite, from paths that left the
    curve's float range, raises DomainError.
    """
    p0x = check_positive(p0x, "price", DomainError)
    p0y = check_positive(p0y, "price", DomainError)
    maturity = check_positive(maturity, "maturity")
    n_paths = check_count(n_paths, "n_paths", 2, MAX_PATHS)
    n_steps = check_count(n_steps, "n_steps", 1)
    check_seed(seed)

    rng = np.random.Generator(np.random.Philox(seed))
    half = n_paths // 2 if antithetic else n_paths
    n_eff = 2 * half if antithetic else n_paths

    dt = maturity / n_steps
    r = params.r
    sx = params.sigma_x * math.sqrt(dt)
    sy = params.sigma_y * math.sqrt(dt)
    var = effective_variance(params)
    try:  # equal vols at rho = 1 pass effective_variance at any size
        drift_x = (r - 0.5 * params.sigma_x**2) * dt
        drift_y = (r - 0.5 * params.sigma_y**2) * dt
    except OverflowError:
        raise InvalidParams("the drift of a vol this large is beyond the float range") from None
    rho = params.rho
    rho_c = math.sqrt(max(1.0 - rho * rho, 0.0))

    ln_px = np.full(n_eff, math.log(p0x))
    ln_py = np.full(n_eff, math.log(p0y))
    fees = np.zeros(n_eff)
    rate = -0.5 * var
    block = max(1, min(n_steps, _DRAW_BLOCK_BYTES // (16 * half)))
    bufs = np.empty((2, block, 2, half))
    # imported here: at module level it would load into every CLI command
    from concurrent.futures import ThreadPoolExecutor

    # a path leaving the curve's float range shows in its total, checked once below
    with np.errstate(all="ignore"), ThreadPoolExecutor(max_workers=1, thread_name_prefix="ammvol-normals") as worker:
        # the worker fills block i + 1 while the steps of block i run; the last may be short.
        # The walk stays on this thread: on the worker too it ran slower, from GIL hand-offs.
        pending = worker.submit(rng.standard_normal, out=bufs[0])
        for i, start in enumerate(range(0, n_steps, block)):
            zs = pending.result()
            if start + block < n_steps:
                pending = worker.submit(rng.standard_normal, out=bufs[(i + 1) % 2, : n_steps - start - block])
            for k, z in enumerate(zs, start):
                py = np.exp(ln_py)
                q = np.exp(ln_px)
                q /= py
                # the fee rate py * (-var/2 * q**2 * x'(q)), discounted, over dt; x'
                # and not liquidity_grid, the call the benchmark tracer counts (ROADMAP item 2)
                fee = curve.xprime_grid(q) * q
                fee *= q
                fee *= py
                fee *= rate * math.exp(-r * k * dt) * dt
                fees += fee

                zy = rho * z[0] + rho_c * z[1]
                _walk(ln_px, drift_x, sx * z[0])
                _walk(ln_py, drift_y, sy * zy)

        px = np.exp(ln_px)
        py = np.exp(ln_py)
        totals = fees + math.exp(-r * maturity) * py * curve.pool_value_grid(px / py)
    if not np.isfinite(totals).all():
        raise DomainError("a path total is not a finite number: the paths left the curve's float range")
    return mc_mean_stderr(totals, antithetic)
