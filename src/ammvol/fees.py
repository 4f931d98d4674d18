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
import threading
from dataclasses import dataclass

import numpy as np

from .curves import AmmCurve, ConcentratedCpmm, Holdings, dollar_pool_value
from .errors import DomainError, InvalidParams, check_count, check_nonnegative, check_positive, check_seed

# Annualization convention: 365.25 days of 86400 seconds.
YEAR_SECONDS = 365.25 * 86400.0

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
    """Per-year variance of the price ratio: sx**2 - 2*rho*sx*sy + sy**2."""
    var = params.sigma_x**2 - 2.0 * params.rho * params.sigma_x * params.sigma_y + params.sigma_y**2
    # rho = +/-1 with equal vols can round a hair below zero
    return max(var, 0.0)


def instantaneous_lvr(curve: AmmCurve, q: float, params: GbmParams) -> float:
    """Implied fee rate -0.5 * sigma_bar**2 * q**2 * x'(q), in y per year."""
    q = check_positive(q, "price", DomainError)
    xp, _ = curve.first_derivs(q)
    return -0.5 * effective_variance(params) * q * q * xp


def implied_fee_rate_dollars(curve: AmmCurve, px: float, py: float, params: GbmParams) -> float:
    """Dollar fee rate F(px, py) = py * lvr(px/py), dollars per year."""
    px = check_positive(px, "price", DomainError)
    py = check_positive(py, "price", DomainError)
    return py * instantaneous_lvr(curve, px / py, params)


def cpmm_unit_lvr_with_rate(q: float, r: float, sigma: float) -> float:
    """Unit-liquidity Cpmm fee rate (r + sigma**2/4) * sqrt(q).

    Applies when asset y is a tokenized money-market account earning r, so
    the rebalancing benchmark grows at the rate as well.
    """
    q = check_positive(q, "price", DomainError)
    r = check_nonnegative(r, "r")
    sigma = check_nonnegative(sigma, "sigma")
    return (r + sigma * sigma / 4.0) * math.sqrt(q)


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


class _NormalsAhead:
    """The (2, half) standard normals of n_steps steps, drawn by one worker
    thread a block of steps ahead of the caller.

    Blocks of up to ``block`` steps alternate between two buffers allocated
    once.  The worker fills them in order, each with one
    ``standard_normal(out=...)``, which equals k sequential (2, half) draws
    bit for bit, so the stream does not depend on scheduling.  Iterating
    yields the steps in order; at the first step of a block the caller takes
    that block and hands back the buffer of the one before.  Use as a
    context manager: leaving it stops and joins the worker, also when the
    caller raises.
    """

    def __init__(self, rng: np.random.Generator, n_steps: int, block: int, half: int):
        bufs = np.empty((2, block, 2, half))
        # the views are made here, so the worker only draws; the last may be short
        self._blocks = [bufs[i % 2, : n_steps - start] for i, start in enumerate(range(0, n_steps, block))]
        self._free = threading.Semaphore(2)
        self._filled = threading.Semaphore(0)
        self._stop = False
        self._failure: list[Exception] = []
        self._worker = threading.Thread(target=self._fill, args=(rng,), name="ammvol-normals", daemon=True)

    def _fill(self, rng: np.random.Generator) -> None:
        try:
            for out in self._blocks:
                self._free.acquire()
                if self._stop:
                    return
                rng.standard_normal(out=out)
                self._filled.release()
        except Exception as exc:  # raised again on the caller's thread
            self._failure.append(exc)
            self._filled.release()

    def __enter__(self) -> "_NormalsAhead":
        self._worker.start()
        return self

    def __exit__(self, *exc_info) -> None:
        # one release wakes a worker waiting for a buffer, to see _stop
        self._stop = True
        self._free.release()
        self._worker.join()

    def __iter__(self):
        for i, zs in enumerate(self._blocks):
            self._filled.acquire()
            if self._failure:
                raise self._failure[0]
            if i:
                self._free.release()
            yield from zs


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
    initial dollar pool value, which is what the test suite checks.  Each
    step evaluates x' on all paths with one ``xprime_grid`` call.  With
    ``antithetic`` the second half of the paths are the mates of the first:
    each step draws normals z for the first half and moves the mates by
    drift - s*z, which equals drift + s*(-z) exactly.

    The normals come from one worker thread that draws a block of steps
    ahead of the price walk (``_NormalsAhead``), so the draws overlap the
    curve work.  Only that thread touches the generator and it fills the
    blocks in order, so the result does not depend on thread scheduling:
    it equals one (2, half) draw per step, bit for bit.
    """
    p0x = check_positive(p0x, "price", DomainError)
    p0y = check_positive(p0y, "price", DomainError)
    maturity = check_positive(maturity, "maturity")
    n_paths = check_count(n_paths, "n_paths", 2)
    n_steps = check_count(n_steps, "n_steps", 1)
    check_seed(seed)

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
    block = max(1, min(n_steps, _DRAW_BLOCK_BYTES // (16 * half)))
    with _NormalsAhead(rng, n_steps, block, half) as draws:
        for k, z in enumerate(draws):
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

            zy = rho * z[0] + rho_c * z[1]
            _walk(ln_px, drift_x, sx * z[0])
            _walk(ln_py, drift_y, sy * zy)

    px = np.exp(ln_px)
    py = np.exp(ln_py)
    totals = fees + math.exp(-r * maturity) * py * curve.pool_value_grid(px / py)

    return mc_mean_stderr(totals, antithetic)
