"""AMM pool geometry.

An automated market maker holding two assets is summarized by its
portfolio-update functions ``q -> (x(q), y(q))``: the holdings the pool is
left with once arbitrageurs have aligned its marginal price with an
external price ``q`` (units of y per unit of x).  Along the efficient
boundary of the reachable set the tangency identity

    q * x'(q) + y'(q) = 0

holds, ``x`` never increases and ``y`` never decreases with the price, and
the pool value in y units

    value(q) = q * x(q) + y(q)

is nondecreasing and concave.  Three curve families are provided:

``Cpmm``
    Constant product ``x * y = L**2``, so ``x = L/sqrt(q)`` and
    ``y = L*sqrt(q)``.
``ConcentratedCpmm``
    A constant-product position active only on a price range
    ``[p_lo, p_hi]``; outside it the pool holds the boundary portfolio and
    both derivatives vanish.
``StableSwap``
    Curve-v1 style pool with amplification ``A``, scale ``D`` and price
    center ``c``.  The invariant is 1-homogeneous in (x, y, D), so a pool
    holds D times the unit pool's holdings at every price, and in centered
    units ``u = c*x/D``, ``v = y/D`` the level set is the unit pool's

        4*A*(u + v) + 1 = 4*A + 1 / (4*u*v)

    Holdings are read off a dense table, shared by every pool with the same
    amplification, of the inverse of the strictly decreasing marginal price
    map ``q(u)``: its interpolant gives u and the invariant v, with no
    evaluation of the map.  A safeguarded Newton solve builds the table from
    its two closed-form end nodes, the center and the domain floor, and
    refines it until the interpolant lies within rounding of the root.  The
    table also holds the log of the density and its slope, differentiated
    implicitly at each node from the build's own solve, for
    ``liquidity_grid`` and the scalar ``first_derivs``; the implicit
    derivatives at the holdings, the oracle the table is held to, live in
    ``tests/stableswap_reference.py``.

Each curve states its liquidity density ``-q**2 * x'(q)`` once, in
``liquidity_grid``; the LVR rate is sigma**2/2 times it.  The fee-swap
floating leg ``C(q0) - E[C(Q)]`` for a driftless lognormal ``Q`` is a strip
of out-of-the-money Black-Scholes options per unit strike weighted by the
density, since ``C'' = x'`` (Carr & Madan 1998): in closed form for ``Cpmm``,
otherwise by Gauss-Legendre panels in ``z = sign(t) * log1p(|t| / tau)``,
``t = log(k/c)``, linear across a flat center and logarithmic beyond it.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import DegenerateCurve, DomainError, InvalidParams, NoConvergence, RangeError, check_positive

# Holdings smaller than this fraction of the pool scale count as exhausted;
# they bound the StableSwap price domain.
HOLDINGS_FLOOR = 1e-12

# Floating-leg strips reach this many standard deviations into both tails
# with this many nodes, in Gauss-Legendre panels of _GL_ORDER nodes.
_STRIP_WIDTH = 8.0
_STRIP_INTERVALS = 576
_GL_ORDER = 24

# Below total volatility _BAND_SPLIT a strike's cash band Phi(d1) - Phi(d1 - s)
# is integrated on _BAND_ORDER Gauss-Legendre nodes, exact to rounding there;
# as a difference of two CDFs near 1/2 it would keep only eps/s of itself.
_BAND_SPLIT = 0.5
_BAND_ORDER = 6

# The StableSwap solve that builds the seed table freezes an element once a
# step moves log u by at most _SOLVE_XTOL or its log-price residual is within
# _SOLVE_RTOL of the target's magnitude (the rounding floor); one still moving
# after _SOLVE_MAX_ITER iterations raises NoConvergence, and bisecting a whole
# cell to _SOLVE_XTOL takes about 40.  Brackets are padded by _SOLVE_PAD in
# log u so that a root within rounding of a node stays in.
_SOLVE_XTOL = 1e-13
_SOLVE_PAD = 1e-9
_SOLVE_RTOL = 4.0 * np.finfo(float).eps
_SOLVE_MAX_ITER = 64

# The seed table is refined from its two end nodes through the _SEED_LEVELS
# node counts, _SEED_CHUNK nodes at a time, then halved at most
# _SEED_HALVINGS times until every cell midpoint lies within _SOLVE_XTOL of
# the interpolant; the last _SEED_CACHE tables stay cached.  The node count
# follows from A: _SEED_NODES up to 1e4 (midpoints within 9e-14), 32,767 to
# about 5e6, 65,533 beyond.  The build takes under three evaluations of the
# price map per final node, about 1.7 times the levels alone at A <= 1e4 and
# 4 times at 1e9, paid at each set-up of a fresh process.  Solving a whole
# level at once is a little faster but raises peak memory by 2 MB.
_SEED_NODES = 16384
_SEED_LEVELS = (64, 4096, _SEED_NODES)
_SEED_HALVINGS = 3
_SEED_CHUNK = 8192
_SEED_CACHE = 16

# Above this amplification the floating-leg strip no longer resolves a
# StableSwap pool from its constant-sum limit, which it approaches as
# 1/sqrt(A); tests/test_strip.py checks the strip at the bound.
_MAX_AMPLIFICATION = 1e9


class Holdings(NamedTuple):
    """Pool holdings (x_qty, y_qty), both nonnegative."""

    x_qty: float
    y_qty: float


# The standard normal CDF is Phi(-z) = phi(z) * R(z) for z >= 0, where the
# Mills ratio R is smooth and slowly varying.  S(x) = R(sqrt(2) * x) obeys
# S' = 2*x*S - sqrt(2) and S^(n+1) = 2*n*S^(n-1) + 2*x*S^(n), which gives its
# Taylor coefficients at nodes x = k * _NDTR_STEP up to _NDTR_END, where
# Phi(-z) falls to 1e-307; six terms reach rounding between the nodes.
_NDTR_STEP = 1.0 / 256.0
_NDTR_END = 26.5


@cache
def _ndtr_taylor() -> np.ndarray:
    """S^(n)(x_k) / n! for n = 5..0 in the rows, one node x_k per column."""
    x = np.arange(round(_NDTR_END / _NDTR_STEP) + 1) * _NDTR_STEP
    s = np.array([math.sqrt(0.5 * math.pi) * math.erfc(t) * math.exp(t * t) for t in x])
    coef = [s, 2.0 * x * s - math.sqrt(2.0)]
    for n in range(1, 5):
        coef.append((2.0 * coef[n - 1] + 2.0 * x * coef[n]) / (n + 1))
    table = np.stack(coef[::-1])
    table.flags.writeable = False  # shared by every caller
    return table


def _ndtr(v: np.ndarray) -> np.ndarray:
    """Standard normal CDF, to within 3e-16 absolute."""
    taylor = _ndtr_taylor()
    x = np.abs(v) * math.sqrt(0.5)
    node = np.fmin(x, _NDTR_END)  # NaN and the far tail take the last node
    k = (node / _NDTR_STEP + 0.5).astype(np.intp)
    d = node - k * _NDTR_STEP
    mills = taylor[0].take(k)
    for row in taylor[1:]:
        mills *= d
        mills += row.take(k)
    x *= x
    np.negative(x, out=x)
    mills *= np.exp(x, out=x)
    mills /= math.sqrt(2.0 * math.pi)
    return np.where(v < 0.0, mills, 1.0 - mills)


@cache
def _gauss_legendre(n: int = _GL_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-node Gauss-Legendre rule on
    [-1, 1]: Newton on the Legendre recurrence (Numerical Recipes 4.6)."""
    x = -np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p, p_prev = x, np.ones(n)
        for j in range(2, n + 1):
            p, p_prev = ((2 * j - 1) * x * p - (j - 1) * p_prev) / j, p
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False  # shared by every caller
    return x, w


def _strip_reach(s):
    # log Q has mean -s**2/2, and +s**2/2 under the calls' share measure
    return _STRIP_WIDTH * s + 0.5 * s * s


@lru_cache(maxsize=4)
def _strip_panels(intervals: int) -> np.ndarray:
    """Panel edges of a strip of ``intervals`` nodes from its four candidate
    cuts (lower end, lower kink, upper kink, upper end): edges =
    table[2 * (lower kink inside) + (upper kink inside)] @ cuts.

    Each of the one to three parts between the cuts in use gets intervals //
    (_GL_ORDER * parts) equal panels, at least one, the j-th of n starting
    j/n of the way along it.  A layout with fewer panels than the longest
    ends in empty panels at the upper end.  At 576 nodes each has 24."""
    layouts = []
    for used in ([0, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2, 3]):
        n = max(1, intervals // (_GL_ORDER * (len(used) - 1)))
        layouts.append([(a, b, j / n) for a, b in zip(used, used[1:]) for j in range(n)])
    table = np.zeros((4, max(map(len, layouts)) + 1, 4))
    for rows, layout in zip(table, layouts):
        for row, (a, b, f) in zip(rows, layout):
            row[a] += 1.0 - f
            row[b] += f
        rows[len(layout):, 3] = 1.0  # the upper end, where the unused panels collapse
    table.flags.writeable = False  # shared by every caller
    return table


class AmmCurve(ABC):
    """A two-asset AMM described by portfolio-update functions x(q), y(q).

    Each curve states its geometry once, in the vectorized kernels
    ``holdings_grid``, ``liquidity_grid`` and ``pool_value_grid``.  They take
    numpy arrays without per-element validation and extend beyond the
    tradeable range by valuing the boundary portfolio the pool actually
    holds there.  The scalar ``holdings``, ``liquidity``, ``pool_value`` and
    ``first_derivs`` are those kernels at one validated point: they raise
    :class:`~ammvol.errors.DomainError` outside ``q_bounds``.
    """

    kind: ClassVar[str]
    exact_floating_leg: ClassVar[bool] = False

    @property
    @abstractmethod
    def q_bounds(self) -> tuple[float, float]:
        """Price interval on which holdings are defined."""

    @property
    def trade_bounds(self) -> tuple[float, float]:
        """Price interval within which trades can move the pool spot."""
        return self.q_bounds

    def is_interior(self, q: float) -> bool:
        lo, hi = self.trade_bounds
        return lo < q < hi

    def _require_in_domain(self, q: float) -> float:
        q = check_positive(q, "price", DomainError)
        q_lo, q_hi = self.q_bounds
        if not (q_lo <= q <= q_hi):
            raise DomainError(f"price {q!r} outside {self.kind} domain [{q_lo:.6g}, {q_hi:.6g}]")
        return q

    def holdings(self, q: float) -> Holdings:
        x, y = self.holdings_grid(np.array([self._require_in_domain(q)]))
        return Holdings(float(x[0]), float(y[0]))

    def holdings_near(self, q: float, x_hint: float | None = None) -> Holdings:
        """holdings(q), the hint ignored.  Stays only because the benchmark
        tracer looks this name up (ROADMAP item 2)."""
        return self.holdings(q)

    def first_derivs(self, q: float) -> tuple[float, float]:
        """(x'(q), y'(q)); zero once either holding is exhausted.

        y' follows from the tangency identity q*x' + y' = 0, written so that
        a vanishing x' gives +0.0.  An x' beyond a double raises DomainError.
        """
        q = self._require_in_domain(q)
        xp = float(self.xprime_grid(np.array([q]))[0])
        yp = 0.0 - q * xp
        if not (math.isfinite(xp) and math.isfinite(yp)):
            raise DomainError(f"the slopes x', y' at price {q!r} are beyond the float range")
        return xp, yp

    def liquidity(self, q: float) -> float:
        """The liquidity density -q**2 * x'(q) at one price."""
        return float(self.liquidity_grid(np.array([self._require_in_domain(q)]))[0])

    def second_derivs(self, q: float) -> tuple[float, float]:
        """Not provided.  Stays only because the benchmark tracer looks this
        name up (ROADMAP item 2)."""
        raise NotImplementedError("second_derivs is not provided")

    def pool_value(self, q: float) -> float:
        """Pool value q*x(q) + y(q) in units of y."""
        return float(self.pool_value_grid(np.array([self._require_in_domain(q)]))[0])

    @abstractmethod
    def holdings_grid(self, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ...

    def pool_value_grid(self, qs: np.ndarray) -> np.ndarray:
        qs = np.asarray(qs, dtype=float)
        x, y = self.holdings_grid(qs)
        return qs * x + y

    def pool_value_grid_warm(self, qs: np.ndarray) -> tuple[np.ndarray, None]:
        """(pool_value_grid(qs), None).  Stays only because the benchmark
        tracer looks this name up (ROADMAP item 2)."""
        return self.pool_value_grid(qs), None

    def floating_leg(self, q0: float, s: float) -> tuple[float, float]:
        """(C(q0) - E[C(Q)], its derivative in s) with C the pool value: the
        ``floating_leg_grid`` kernel at one spot and total volatility."""
        value, vega = self.floating_leg_grid(np.array([q0], dtype=float), np.array([s], dtype=float))
        return float(value[0]), float(vega[0])

    def floating_leg_grid(self, q0: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(C(q0) - E[C(Q)], its derivative in s) elementwise over 1-D arrays.

        Q = q0 * exp(-s**2/2 + s*Z) for standard normal Z and total
        volatility s = sigma*sqrt(T) > 0.  ``exact_floating_leg`` marks
        curves that evaluate it in closed form rather than by quadrature.

        Otherwise a strip of Black-Scholes puts below q0 and calls above per
        unit strike, weighted by density(k) dk/k: the integrand over the
        nodes that ``_strip_nodes`` places, one row of them per element, all
        rows evaluated together.
        """
        q0, s = np.asarray(q0, dtype=float), np.asarray(s, dtype=float)
        lm, weight = self._strip_nodes(q0, s)
        s = s[:, None]
        mass = self.liquidity_grid(q0[:, None] * np.exp(lm))
        mass *= weight
        d1 = 0.5 * s - lm / s
        side = np.where(lm >= 0.0, 1.0, -1.0)  # calls above the spot, puts below
        near = _ndtr(side * d1)
        # the OTM option per unit strike, side * (q0/k * Phi(side * d1) - Phi(side * (d1 - s))),
        # is the cash band Phi(d1) - Phi(d1 - s) plus side * (q0/k - 1) * Phi(side * d1)
        narrow = s[:, 0] < _BAND_SPLIT  # there the band as the integral of phi over [d1 - s, d1]
        band = np.empty_like(lm)
        if narrow.any():
            bx, bw = _gauss_legendre(_BAND_ORDER)
            half = 0.5 * s[narrow]
            u = (d1[narrow] - half) + half * bx[:, None, None]  # a node of the rule per leading index
            u *= u
            u *= -0.5
            band[narrow] = (bw @ np.exp(u, out=u).reshape(_BAND_ORDER, -1)).reshape(half.size, -1)
            band[narrow] *= half / math.sqrt(2.0 * math.pi)
        if not narrow.all():
            wide = ~narrow
            band[wide] = side[wide] * (near[wide] - _ndtr(side[wide] * (d1[wide] - s[wide])))
        otm = side * np.expm1(-lm)
        otm *= near
        otm += band
        vega = d1 * d1
        vega *= -0.5
        vega -= lm
        vega = np.einsum("ij,ij->i", np.exp(vega, out=vega), mass)
        return np.einsum("ij,ij->i", otm, mass), vega / math.sqrt(2.0 * math.pi)

    def _strip_nodes(self, q0: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lm, weight): one row per element of the 1-D q0 and s, holding the
        strip's nodes as lm = log(k/q0) and their weights in log k.

        The nodes are Gauss-Legendre panels in ``_strip_axis``'s z, cut at
        the spot and z = 0 (kinks) and clipped to ``trade_bounds``: each of
        the one to three parts gets an equal share of the panels, laid out
        by ``_strip_panels``.  Nodes are offsets d = z - z0 from the spot's
        z0, and each node's lm is formed from d alone, so no node near the
        spot loses its digits to log q0.  With t0 = log(q0/c), a node on the
        spot's side of z = 0 has lm = sign(t0)*(tau+|t0|)*expm1(sign(t0)*d);
        across it, lm is a sum of two terms of one sign.  A row whose strip
        is empty has zero weights.
        """
        tau, log_c = self._strip_axis()
        lo, hi = self.trade_bounds
        log_lo, log_hi = math.log(lo) if lo > 0.0 else -math.inf, math.log(hi) if hi < math.inf else math.inf
        rows = []
        for q, vol in zip(q0.tolist(), s.tolist()):  # a few scalars a row: cheaper as floats
            lq0 = math.log(q)
            t0 = abs(lq0 - log_c)
            sign = 1.0 if lq0 >= log_c else -1.0  # the spot's side of z = 0
            az0, span = math.log1p(t0 / tau), tau + t0  # |z0|, and d log k/dz at the spot
            reach = _strip_reach(vol)
            a, b = max(-reach, log_lo - lq0), min(reach, log_hi - lq0)
            # the ends as offsets: u = sign * log(k/q0) moves away from z = 0
            # on the spot's side of it, and crosses it below -t0
            da, db = (
                sign * math.log1p(u / span) if u >= -t0 else -sign * (math.log1p((-u - t0) / tau) + az0)
                for u in (sign * a, sign * b)
            )
            # the kinks at the spot (d = 0) and at z = 0 (d = -z0), ascending,
            # and which of them fall strictly inside: one where z0 = 0
            kinks = sorted((0.0, -sign * az0))
            lower = da < kinks[0] < db
            upper = da < kinks[1] < db and kinks[1] != kinks[0]
            rows.append((sign, t0, az0, span, a >= b, 2 * lower + upper, da, *kinks, db))
        rows = np.array(rows, dtype=float).reshape(len(q0), 10)
        sign, t0, az0, span, empty = (rows[:, k:k + 1] for k in range(5))
        edges = _strip_panels(_STRIP_INTERVALS)[rows[:, 5].astype(np.intp)] @ rows[:, 6:, None]
        half = edges[:, 1:] - edges[:, :-1]
        half *= 0.5
        x, w = _gauss_legendre()
        d = edges[:, :-1] + half * (1.0 + x)
        weight = half * w
        d, weight = (a.reshape(len(q0), d.shape[1] * d.shape[2]) for a in (d, weight))
        # on the spot's side of z = 0 sign * lm = span * expm1(sign * d);
        # across it, -(t0 + t) with t = tau * expm1(|z|), |z| = -(|z0| + sign * d)
        d *= sign
        lm = np.expm1(d)
        jacobian = np.exp(d)
        lm *= span
        jacobian *= span
        d += az0
        across = d < 0.0
        if across.any():
            np.negative(d, out=d)
            t = np.expm1(d, out=d)
            t *= tau
            np.copyto(jacobian, t + tau, where=across)
            t += t0
            np.negative(t, out=t)
            np.copyto(lm, t, where=across)
        lm *= sign
        weight *= jacobian
        if empty.any():
            weight[empty[:, 0] > 0.0] = 0.0
        return lm, weight

    def _strip_axis(self) -> tuple[float, float]:
        """(tau, log c) of the strip variable z; see ``floating_leg``."""
        return 1.0, 0.0

    @abstractmethod
    def liquidity_grid(self, qs: np.ndarray) -> np.ndarray:
        """Vectorized liquidity density -q**2 x'(q), zero outside the tradeable range."""

    def xprime_grid(self, qs: np.ndarray) -> np.ndarray:
        """Vectorized x'(q) = -liquidity_grid(q) / q**2, zero where the density is."""
        qs = np.asarray(qs, dtype=float)
        xp = np.asarray(self.liquidity_grid(qs))  # a fresh array; 0-d for a 0-d qs
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # beyond a double: -inf
            # one division: times 1/q twice keeps q**2's range problem away
            inv = np.divide(1.0, qs)
            xp *= inv
            xp *= inv
        np.subtract(0.0, xp, out=xp)  # +0.0 where the density is 0
        # 0 * inf at q = 0, and inf * 0 at q = inf, are nan: x' is 0 there
        return np.fmin(xp, 0.0, out=xp)

    @abstractmethod
    def scaled_to_value(self, target_value: float, q: float) -> "AmmCurve":
        """A copy of this curve rescaled so that pool_value(q) == target_value."""

    @abstractmethod
    def to_dict(self) -> dict:
        ...

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items() if k != "kind")
        return f"{type(self).__name__}({fields})"


@dataclass(frozen=True, repr=False)
class Cpmm(AmmCurve):
    """Constant product pool x*y = L**2 with L liquidity tokens."""

    liquidity_tokens: float

    kind: ClassVar[str] = "cpmm"
    exact_floating_leg: ClassVar[bool] = True

    def __post_init__(self):
        object.__setattr__(
            self, "liquidity_tokens", check_positive(self.liquidity_tokens, "liquidity_tokens")
        )

    @property
    def q_bounds(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def holdings_grid(self, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        qs = np.asarray(qs, dtype=float)
        rq = np.sqrt(np.maximum(qs, 0.0))
        L = self.liquidity_tokens
        with np.errstate(divide="ignore"):
            x = np.where(rq > 0.0, L / rq, np.inf)
        return x, L * rq

    def pool_value_grid(self, qs: np.ndarray) -> np.ndarray:
        qs = np.asarray(qs, dtype=float)
        return 2.0 * self.liquidity_tokens * np.sqrt(np.maximum(qs, 0.0))

    def liquidity_grid(self, qs: np.ndarray) -> np.ndarray:
        return 0.5 * self.liquidity_tokens * np.sqrt(np.maximum(qs, 0.0))

    def floating_leg_grid(self, q0: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # E[sqrt(Q)] = sqrt(q0) * exp(-s**2/8), the lognormal half-moment
        q0, s = np.asarray(q0, dtype=float), np.asarray(s, dtype=float)
        c0 = 2.0 * self.liquidity_tokens * np.sqrt(q0)
        return -c0 * np.expm1(-s * s / 8.0), 0.25 * c0 * s * np.exp(-s * s / 8.0)

    def scaled_to_value(self, target_value: float, q: float) -> "Cpmm":
        q = check_positive(q, "price", DomainError)
        target_value = check_positive(target_value, "target_value")
        return Cpmm(target_value / (2.0 * math.sqrt(q)))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "L": self.liquidity_tokens}


@dataclass(frozen=True, repr=False)
class ConcentratedCpmm(AmmCurve):
    """Constant-product position active only on the price range [p_lo, p_hi].

    Inside the range the holdings are the range-shifted constant-product
    portfolio x = L*(1/sqrt(q) - 1/sqrt(p_hi)), y = L*(sqrt(q) - sqrt(p_lo)).
    Below p_lo the position is all x, above p_hi all y, and the holdings
    stay clamped at those boundary portfolios.
    """

    liquidity_tokens: float
    p_lo: float
    p_hi: float

    kind: ClassVar[str] = "concentrated"

    def __post_init__(self):
        object.__setattr__(
            self, "liquidity_tokens", check_positive(self.liquidity_tokens, "liquidity_tokens")
        )
        p_lo = check_positive(self.p_lo, "p_lo", RangeError)
        p_hi = check_positive(self.p_hi, "p_hi", RangeError)
        if not p_lo < p_hi:
            raise RangeError(f"need p_lo < p_hi, got [{p_lo!r}, {p_hi!r}]")
        object.__setattr__(self, "p_lo", p_lo)
        object.__setattr__(self, "p_hi", p_hi)

    @property
    def q_bounds(self) -> tuple[float, float]:
        return (0.0, math.inf)

    @property
    def trade_bounds(self) -> tuple[float, float]:
        return (self.p_lo, self.p_hi)

    def holdings_grid(self, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        qs = np.asarray(qs, dtype=float)
        qc = np.clip(qs, self.p_lo, self.p_hi)
        L = self.liquidity_tokens
        x = np.maximum(L * (1.0 / np.sqrt(qc) - 1.0 / math.sqrt(self.p_hi)), 0.0)
        y = np.maximum(L * (np.sqrt(qc) - math.sqrt(self.p_lo)), 0.0)
        return x, y

    def liquidity_grid(self, qs: np.ndarray) -> np.ndarray:
        qs = np.asarray(qs, dtype=float)
        inside = (qs > self.p_lo) & (qs < self.p_hi)
        return 0.5 * self.liquidity_tokens * np.sqrt(np.where(inside, qs, 0.0))

    def scaled_to_value(self, target_value: float, q: float) -> "ConcentratedCpmm":
        q = check_positive(q, "price", DomainError)
        target_value = check_positive(target_value, "target_value")
        current = self.pool_value(q)
        if current <= 0.0:
            raise DegenerateCurve("position has zero value at this price, cannot rescale")
        return ConcentratedCpmm(self.liquidity_tokens * target_value / current, self.p_lo, self.p_hi)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "L": self.liquidity_tokens, "pL": self.p_lo, "pU": self.p_hi}


@dataclass(frozen=True, repr=False)
class StableSwap(AmmCurve):
    """Two-asset Curve-v1 pool: amplification A, scale D, price center c.

    At the symmetric point c*x = y = D/2 the marginal price equals c and
    the pool value equals D.  The price domain is the interval on which both
    c*x and y stay above HOLDINGS_FLOOR * D: c times a domain set by A
    alone, which narrows as A grows.  Everything is solved on the unit pool
    D = 1 and scaled by D on the way out.  A is at most _MAX_AMPLIFICATION.
    """

    amplification: float
    invariant_scale: float
    price_center: float = 1.0

    kind: ClassVar[str] = "stableswap"

    def __post_init__(self):
        for name in ("amplification", "invariant_scale", "price_center"):
            object.__setattr__(self, name, check_positive(getattr(self, name), name))
        if self.amplification > _MAX_AMPLIFICATION:
            raise InvalidParams(
                f"stableswap amplification {self.amplification!r} is above "
                f"{_MAX_AMPLIFICATION:g}, where the floating-leg strip misprices the pool"
            )
        # The unit pool at c = 1 is the seed table's own, well inside the
        # float range.  Otherwise an end of the domain c * (q_lo, q_hi) can
        # leave that range (a subnormal q_lo keeps too few digits for q/c),
        # or the holdings and value there, D times the unit pool's, overflow.
        # A subnormal D likewise keeps too few digits for them.
        if (self.invariant_scale, self.price_center) != (1.0, 1.0):
            q_lo, q_hi = self.q_bounds
            fits = sys.float_info.min <= min(q_lo, self.invariant_scale) and q_hi < math.inf
            if fits:  # the products holdings_grid and pool_value_grid form there
                # c*x = v(floor) and y = floor at q_lo, the reverse at q_hi; the
                # solve lands within 1e-13 of these, hence a 1e-12 margin on D
                big = self._grid_v(np.array([HOLDINGS_FLOOR]))[0]
                x, y = np.array([[big, HOLDINGS_FLOOR], [HOLDINGS_FLOOR, big]])
                ends = np.array([q_lo, q_hi])
                with np.errstate(over="ignore"):
                    x /= self.price_center
                    fits = np.isfinite(np.array([x, y, ends * x + y]) * (self.invariant_scale * (1 + 1e-12))).all()
            if not fits:
                raise InvalidParams(
                    f"stableswap center {self.price_center!r} and scale {self.invariant_scale!r} put its "
                    f"price domain [{q_lo:.6g}, {q_hi:.6g}] or its holdings or value there beyond the float range"
                )

    @cached_property
    def q_bounds(self) -> tuple[float, float]:
        # u or, by the u <-> v symmetry, v at its floor: |log(q/c)| = t_max
        t_max = _seed_table(self.amplification).t_max
        return self.price_center * math.exp(-t_max), self.price_center * math.exp(t_max)

    # ----- unit-pool machinery in centered units u = c*x/D, v = y/D -------

    # The kernels below work in place, in an order that keeps few
    # temporaries alive at once: at Monte Carlo sizes each is tens of kB, and
    # memory beyond what the allocator retains is paged in afresh per call.

    def _grid_v(self, u: np.ndarray) -> np.ndarray:
        # Positive root of 16*A*u*v**2 + 4*u*(4*A*(u - 1) + 1)*v - 1 = 0,
        # written to avoid cancellation for either sign of b: with a = 16*A*u
        # and p = sqrt(b**2 + 4*a) + |b| it is 2/p for b >= 0, else p/(2a).
        A = self.amplification
        b = u - 1.0
        b *= 4.0 * A
        b += 1.0
        b *= 4.0 * u
        a = u * (16.0 * A)
        p = a * 4.0
        p += b * b
        np.sqrt(p, out=p)
        p += np.abs(b)
        a *= 2.0
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(p, a, out=a)
            np.divide(2.0, p, out=a, where=b >= 0.0)
        return a

    def _grid_eval(self, log_u: np.ndarray):
        """(u, v, log(q/c), d log q / d log u, d log v / d log u) at log u on
        the unit pool.

        With alpha = 16*A*u**2*v and beta = 16*A*u*v**2 the price
        is q/c = (beta + v/u)/(beta + 1) = (alpha + 1)/(alpha + u/v), so
        log(q/c) is log1p of a nonnegative term on either side of the center,
        and the slope -2*(alpha**2 - alpha*beta + beta**2 + alpha + beta + 1)
        / ((alpha + 1)*(beta + 1)**2) is a sum of positive terms: both keep
        full relative precision in the flat region where q barely moves.
        """
        u = np.exp(log_u)
        v = self._grid_v(u)
        beta = u * (16.0 * self.amplification)
        alpha = beta * u
        alpha *= v
        beta *= v
        beta *= v
        # the slope's numerator; then alpha + 1 and beta + 1 in place
        slope = alpha * alpha
        slope -= alpha * beta
        slope += beta * beta
        slope += alpha
        slope += beta
        slope += 1.0
        alpha += 1.0
        beta += 1.0
        slope *= -2.0
        log_qc = beta * beta
        log_qc *= alpha
        slope /= log_qc
        # log(q/c) = +-log1p(|v - u| / den), den = (beta + 1)*u above the center
        # and (alpha + 1)*v below it, both positive
        np.multiply(alpha, v, out=log_qc)
        d = v - u
        np.multiply(beta, u, out=log_qc, where=d >= 0.0)
        np.divide(d, log_qc, out=log_qc)
        np.abs(log_qc, out=log_qc)
        np.log1p(log_qc, out=log_qc)
        np.copysign(log_qc, d, out=log_qc)
        # d log v / d log u = -(alpha + 1)/(beta + 1)
        np.negative(alpha, out=alpha)
        alpha /= beta
        return u, v, log_qc, slope, alpha

    def _newton(self, t: np.ndarray, w: np.ndarray, w_lo: np.ndarray, w_hi: np.ndarray):
        """(smaller holding, larger holding, d log q / dw, d log v / d log u,
        Newton update of w) at the roots w = log min(u, v) of log(q/c) = t
        >= 0, from seeds w inside brackets [w_lo, w_hi]: the solve that
        builds ``_seed_table``, which the holdings then read.

        Each iteration takes the Newton step if it stays inside the bracket
        and bisects otherwise (rtsafe, Press et al., Numerical Recipes 9.4).
        An element is frozen once its Newton step is at most _SOLVE_XTOL or
        its residual is at the rounding floor: its first four outputs are
        evaluated at the last w, and the fifth is the step from there, the
        root to rounding; one still moving after _SOLVE_MAX_ITER iterations
        raises NoConvergence.  Elements that iterate again are written back
        into the first evaluation's arrays.
        """
        out = None
        todo = None
        for _ in range(_SOLVE_MAX_ITER):
            small, big, f, slope, elast = self._grid_eval(w)
            f -= t  # log(q/c) - t, decreasing in w
            done = np.abs(f) <= _SOLVE_RTOL * t
            step = f / slope
            np.subtract(w, step, out=step)
            # a step of at most _SOLVE_XTOL stays inside the bracket unless
            # the bracket is narrower than that, and then so is the bisection
            done |= np.abs(step - w) <= _SOLVE_XTOL
            if out is None:
                out = (small, big, slope, elast, step)
            else:
                frozen = todo[done]
                for row, value in zip(out, (small, big, slope, elast, step)):
                    row[frozen] = value[done]
            if done.all():
                return out
            keep = np.flatnonzero(~done)
            todo = keep if todo is None else todo[keep]
            above = f[keep] > 0.0
            w = w[keep]
            w_lo = np.where(above, w, w_lo[keep])
            w_hi = np.where(above, w_hi[keep], w)
            step = step[keep]
            w = np.where((step >= w_lo) & (step <= w_hi), step, 0.5 * (w_lo + w_hi))
            t = t[keep]
        raise NoConvergence(
            f"stableswap price inversion left {todo.size} of {out[0].size} prices "
            f"unconverged after {_SOLVE_MAX_ITER} iterations"
        )

    def _distance(self, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(qs clipped to q_bounds, t = |log(q/c)| there clamped to the seed
        table's reach), both flat, t to full relative precision on both sides
        of the center.  As the invariant is symmetric in (u, v) with q ->
        c**2/q, the seed table at t holds the u of max(q, c**2/q) >= c, the
        smaller holding: below the center u is the larger one and d log q =
        -d log(c**2/q), and each caller maps back the outputs it uses."""
        qs = np.clip(qs, *self.q_bounds).ravel()
        if np.isnan(qs).any():
            raise DomainError("stableswap price grid contains NaN")
        c = self.price_center
        t = qs - c
        np.abs(t, out=t)
        t /= np.minimum(qs, c)
        np.log1p(t, out=t)
        np.minimum(t, _seed_table(self.amplification).t_max, out=t)
        return qs, t

    # ----- public surface -------------------------------------------------

    def _unit_holdings(self, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) of the unit pool at prices qs, clipped to q_bounds: the
        seed table's min(u, v) and the invariant's other holding there."""
        qc, t = self._distance(qs)
        small, _, _ = _dense_seed(_seed_table(self.amplification), t)
        np.exp(small, out=small)
        big = self._grid_v(small)
        mirror = qc < self.price_center
        u = np.where(mirror, big, small)
        u /= self.price_center
        return u.reshape(qs.shape), np.where(mirror, small, big).reshape(qs.shape)

    def holdings_grid(self, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, y = self._unit_holdings(np.asarray(qs, dtype=float))
        return np.multiply(x, self.invariant_scale, out=x), np.multiply(y, self.invariant_scale, out=y)

    def pool_value_grid(self, qs: np.ndarray) -> np.ndarray:
        qs = np.asarray(qs, dtype=float)
        value, y = self._unit_holdings(qs)
        value *= qs
        value += y
        value *= self.invariant_scale
        return value

    def _strip_axis(self) -> tuple[float, float]:
        return _seed_table(self.amplification).tau, math.log(self.price_center)

    def liquidity_grid(self, qs: np.ndarray) -> np.ndarray:
        qs = np.asarray(qs, dtype=float)
        qc, t = self._distance(qs)
        seed = _seed_table(self.amplification)
        density, _, _ = _interpolate(seed, seed.g, seed.gm, t)  # G at |log(q/c)|
        np.exp(density, out=density)
        # times max(q/c, 1), then D; q/c lies in the center-1 domain at any
        # c, and 1/c is a normal double for every accepted c, exact at c = 2**k
        np.multiply(qc, 1.0 / self.price_center, out=t)
        np.maximum(t, 1.0, out=t)
        density *= t
        density *= self.invariant_scale
        # the clip lands on an end point exactly where qs is outside
        q_lo, q_hi = self.q_bounds
        density[(qc == q_lo) | (qc == q_hi)] = 0.0
        return density.reshape(qs.shape)

    def scaled_to_value(self, target_value: float, q: float) -> "StableSwap":
        # The invariant is 1-homogeneous in (u, v, D): scaling D scales the
        # holdings and value at fixed price.
        q = self._require_in_domain(q)
        target_value = check_positive(target_value, "target_value")
        current = self.pool_value(q)
        return StableSwap(self.amplification, self.invariant_scale * target_value / current, self.price_center)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "A": self.amplification,
            "D": self.invariant_scale,
            "center": self.price_center,
        }


def _interpolate(seed: "_SeedTable", values: np.ndarray, slopes: np.ndarray, t: np.ndarray):
    """(cubic Hermite interpolant of a table column at targets t, its values
    at each cell's lower and upper node), from the column's ``values`` and
    ``slopes`` per unit cell.  Each target's cell [j, j + 1] and position r
    in it are read off the node spacing directly."""
    r = t / seed.tau
    np.log1p(r, out=r)
    r /= seed.h
    j = np.floor(r)  # whole floats: cheaper to clamp and subtract than ints
    np.minimum(j, seed.w.size - 2, out=j)
    r -= j
    j = j.astype(np.intp)
    a, ma = values.take(j), slopes.take(j)
    j += 1
    b, mb = values.take(j), slopes.take(j)
    # a + r*(b - a) + r*(1 - r)*((1 - r)*(ma - ab) - r*(mb - ab)), ab = b - a
    ab = b - a
    ma -= ab
    mb -= ab
    rc = 1.0 - r
    ma *= rc
    mb *= r
    ma -= mb
    rc *= r
    ma *= rc
    ab *= r
    ab += a
    ab += ma
    return ab, a, b


def _dense_seed(seed: "_SeedTable", t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(seed, lower, upper bracket) of w = log min(u, v) at targets t: the
    interpolant, clipped into its cell's end nodes padded by _SOLVE_PAD."""
    w, a, b = _interpolate(seed, seed.w, seed.m, t)
    # log s falls as the price rises: node j + 1 bounds the root from below
    b -= _SOLVE_PAD
    a += _SOLVE_PAD
    return np.clip(w, b, a, out=w), b, a


class _SeedTable(NamedTuple):
    """Dense seed of the StableSwap solve and density, on the unit pool.

    Node k sits at the target t_k = tau * expm1(k * h), uniform in
    z = log1p(t / tau), and holds w_k and its slope h * dw/dz.  Each solved
    table also holds G_k = log(-q x'(q)) at center 1 and q = exp(t_k), and
    its slope h * dG/dz; the closed-form end nodes that start the build do
    not.  As x'(q) = q**-3 x'(1/q) at center 1, the density -q**2 x'(q) of
    a pool is D exp(G) max(q/c, 1) on both sides of its center.  At center
    1 x = u, so with sigma = d log q / dw < 0

        G = w - log(-sigma),   h * dG/dz = h * ((tau + t) / sigma) * (1 - sigma_w / sigma).

    With alpha = 16*A*u**2*v and beta = 16*A*u*v**2, sigma = -2*N / Dn for
    N = alpha**2 - alpha*beta + beta**2 + alpha + beta + 1 and Dn =
    (alpha + 1)*(beta + 1)**2, and with e = d log v / dw, alpha_w =
    alpha*(2 + e) and beta_w = beta*(1 + 2e), so

        sigma_w / sigma = N_w / N - alpha_w / (alpha + 1) - 2*beta_w / (beta + 1).
    """

    tau: float
    h: float
    t_max: float
    w: np.ndarray
    m: np.ndarray
    g: np.ndarray | None = None
    gm: np.ndarray | None = None


def _solve_nodes(unit: StableSwap, seed: _SeedTable, h: float, k: np.ndarray):
    """((w, m, G, h * dG/dz) of ``_SeedTable`` at the nodes z = k * h, the
    largest distance of a root from its seed), solved by ``_newton`` from
    ``seed``, _SEED_CHUNK nodes at a time."""
    t = np.minimum(seed.tau * np.expm1(k * h), seed.t_max)
    w, m, g, gm = columns = tuple(np.empty(t.size) for _ in range(4))
    miss = 0.0
    for lo in range(0, t.size, _SEED_CHUNK):
        part = slice(lo, lo + _SEED_CHUNK)
        start, w_lo, w_hi = _dense_seed(seed, t[part])
        u, v, slope, elast, w[part] = unit._newton(t[part], start, w_lo, w_hi)
        miss = max(miss, float(np.max(np.abs(w[part] - start))))
        # m = h * dw/dz with dw/dt = 1/slope and dt/dz = tau + t
        m[part] = (seed.tau + t[part]) * h / slope
        alpha = 16.0 * unit.amplification * u * u * v
        beta = 16.0 * unit.amplification * u * v * v
        alpha_w = alpha * (2.0 + elast)
        beta_w = beta * (1.0 + 2.0 * elast)
        big_n = alpha * alpha - alpha * beta + beta * beta + alpha + beta + 1.0
        n_w = (2.0 * alpha - beta + 1.0) * alpha_w + (2.0 * beta - alpha + 1.0) * beta_w
        sigma_w_over_sigma = n_w / big_n - alpha_w / (alpha + 1.0) - 2.0 * beta_w / (beta + 1.0)
        g[part], gm[part] = w[part] - np.log(-slope), m[part] * (1.0 - sigma_w_over_sigma)
    return columns, miss


@lru_cache(maxsize=_SEED_CACHE)
def _seed_table(amplification: float) -> _SeedTable:
    """The dense seed of every StableSwap(amplification, D, c).

    The unit pool's map from log u to log(q/c) involves neither D nor c,
    so the table and its reach t_max, where u reaches the domain floor
    HOLDINGS_FLOOR, depend on A alone.  tau is -d log q / d log u at the
    center, 2 / (2A + 1): linear spacing in t across the flat center,
    logarithmic beyond it.  The table starts from its two end nodes, known
    in closed form: the center (w = log 1/2, t = 0, slope -tau) and the
    floor (w = log HOLDINGS_FLOOR, t = t_max).  Each of the _SEED_LEVELS
    finer tables, and its density columns, is solved from the one before.
    The interpolant errs most near cell midpoints, so the build then solves
    those; while one lies beyond _SOLVE_XTOL of its seed, they join the
    table as nodes, at most _SEED_HALVINGS times before NoConvergence.
    """
    unit = StableSwap(amplification, 1.0)
    tau = 2.0 / (2.0 * amplification + 1.0)
    w_floor = math.log(HOLDINGS_FLOOR)
    _, _, t_floor, slope_floor, _ = unit._grid_eval(np.array([w_floor]))
    t_max = float(t_floor[0])
    z_max = math.log1p(t_max / tau)
    seed = _SeedTable(tau, z_max, t_max, np.array([math.log(0.5), w_floor]),
                      np.array([-z_max, (tau + t_max) * z_max / slope_floor[0]]))
    for n in _SEED_LEVELS:
        h = z_max / (n - 1)
        seed = _SeedTable(tau, h, t_max, *_solve_nodes(unit, seed, h, np.arange(n))[0])
    for halving in range(_SEED_HALVINGS + 1):
        n, h = seed.w.size, 0.5 * seed.h  # exact: the old nodes keep their places
        mid, miss = _solve_nodes(unit, seed, h, np.arange(1, 2 * n - 1, 2))
        if miss <= _SOLVE_XTOL:
            break
        if halving == _SEED_HALVINGS:
            raise NoConvergence(f"the stableswap seed table for A={amplification!r} still seeds a cell "
                                f"midpoint {miss:.3g} from its root at {n} nodes")
        # the slope columns are per unit cell, so the old nodes' slopes halve
        old = (seed.w, 0.5 * seed.m, seed.g, 0.5 * seed.gm)
        seed = _SeedTable(tau, h, t_max, *(np.insert(a, np.arange(1, n), b) for a, b in zip(old, mid)))
    for column in seed[3:]:
        column.flags.writeable = False  # shared by every pool with this key
    return seed


# ----- module-level operations ---------------------------------------------


def dollar_pool_value(curve: AmmCurve, px: float, py: float) -> float:
    """Dollar pool value px*x(px/py) + py*y(px/py) = py * value(px/py)."""
    px = check_positive(px, "price", DomainError)
    py = check_positive(py, "price", DomainError)
    return py * curve.pool_value(px / py)


def curvature(curve: AmmCurve, q: float) -> float:
    """Curve curvature at q, q**2 / ((1 + q**2)**1.5 * density(q)) with the
    liquidity density -q**2 * x'(q): that is -1 / ((1 + q**2)**1.5 * x'(q)).

    The magnitude matches the parametric curvature quotient
    (x'y'' - y'x'') / (x'**2 + y'**2)**1.5 of the holdings path; this form
    fixes the orientation so flatter (more amplified) curves give smaller
    positive values.  It is formed from the mantissas of q and the density,
    with their exponents added back last, so nothing over- or underflows on
    the way to a curvature that is a double; one beyond the float range
    raises DomainError.
    """
    q = check_positive(q, "price", DomainError)
    if not curve.is_interior(q):
        raise DomainError(f"price {q!r} is not interior to the curve domain")
    density = curve.liquidity(q)
    if density == 0.0:
        raise DegenerateCurve(f"the liquidity density vanishes at q={q!r}; curvature undefined")
    (mq, eq), (md, ed) = math.frexp(q), math.frexp(density)
    try:
        if q <= 1.0:  # q**2 / (1 + q**2)**1.5
            return math.ldexp(mq * mq / ((1.0 + q * q) ** 1.5 * md), 2 * eq - ed)
        r = 1.0 / q  # 1 / (q * (1 + q**-2)**1.5)
        return math.ldexp(1.0 / ((1.0 + r * r) ** 1.5 * mq * md), -eq - ed)
    except OverflowError:
        raise DomainError(f"the curvature at price {q!r} is beyond the float range") from None


def equivalent_cpmm_liquidity(curve: AmmCurve, q: float) -> float:
    """Local constant-product liquidity -2 * q**1.5 * x'(q), read as twice
    the liquidity density over sqrt(q).

    Equals L identically for a Cpmm(L); zero wherever the position is out
    of range and the holdings are frozen.
    """
    return 2.0 * curve.liquidity(q) / math.sqrt(q)


_CURVE_KINDS = {"cpmm": Cpmm, "concentrated": ConcentratedCpmm, "stableswap": StableSwap}


def curve_from_dict(record: dict) -> AmmCurve:
    """Build a curve from its JSON record; unused keys are ignored per kind.

    Record shape: {"kind": "cpmm"|"concentrated"|"stableswap", "L":, "pL":,
    "pU":, "A":, "D":, "center":}.
    """
    if not isinstance(record, dict):
        raise InvalidParams(f"curve record must be an object, got {type(record).__name__}")
    kind = record.get("kind")
    if kind not in _CURVE_KINDS:
        raise InvalidParams(f"unknown curve kind {kind!r}; expected one of {sorted(_CURVE_KINDS)}")
    try:
        if kind == "cpmm":
            return Cpmm(record["L"])
        if kind == "concentrated":
            return ConcentratedCpmm(record["L"], record["pL"], record["pU"])
        return StableSwap(record["A"], record["D"], record.get("center", 1.0))
    except KeyError as exc:
        raise InvalidParams(f"curve record for kind {kind!r} is missing key {exc.args[0]!r}") from None
