"""Uniform-price batch auction for the fee swap, plus quote validation.

LPs offer the floating fee stream of their liquidity tokens at a minimum
fixed price (asks); buyers bid the maximum fixed price they would pay.
One clearing per batch: the price maximizing matched volume where the
aggregate supply and demand steps cross.  The maximizing price set is a
closed interval; its midpoint is quoted, splitting the surplus
symmetrically.  At the marginal price level fills are rationed pro-rata
by quantity with any indivisible remainder going to the earliest
timestamp.

Quantities are exact decimals with 18 fractional digits and prices with 8,
so conservation (total ask fills == total bid fills == matched quantity)
holds with zero error; the rationing works on integer quanta of 1e-18.
"""

from __future__ import annotations

import enum
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation

from .errors import ArbitrageViolation, InvalidParams, OutOfBounds
from .solvers import SwapSpec, _check_quote

QTY_QUANTUM = Decimal("1e-18")
PRICE_QUANTUM = Decimal("1e-8")


class OrderSide(enum.Enum):
    OFFER_FLOATING = "offer"  # LP asks a minimum fixed price
    BID_FIXED = "bid"  # buyer bids a maximum fixed price

    @classmethod
    def parse(cls, text) -> "OrderSide":
        if isinstance(text, cls):
            return text
        name = str(text).strip().lower()
        if name in ("offer", "ask", "sell", "offer_floating"):
            return cls.OFFER_FLOATING
        if name in ("bid", "buy", "bid_fixed"):
            return cls.BID_FIXED
        raise InvalidParams(f"unknown order side {text!r}; expected offer/ask or bid")


def _as_decimal(value, quantum: Decimal, name: str) -> Decimal:
    try:
        d = value if isinstance(value, Decimal) else Decimal(str(value))
    except InvalidOperation:
        raise InvalidParams(f"{name} is not a number: {value!r}") from None
    if not d.is_finite():
        raise InvalidParams(f"{name} must be finite, got {value!r}")
    try:
        return d.quantize(quantum, rounding=ROUND_HALF_EVEN)
    except InvalidOperation:  # more digits than the decimal context holds
        raise InvalidParams(f"{name} is too large to hold to {quantum} precision: {value!r}") from None


@dataclass(frozen=True)
class SwapOrder:
    """One sealed order: price in dollars per liquidity token, quantity in
    tokens.  Prices are snapped to 8 and quantities to 18 decimal places on
    construction."""

    order_id: str
    side: OrderSide
    limit_price: Decimal
    quantity: Decimal
    timestamp: int

    def __post_init__(self):
        object.__setattr__(self, "order_id", str(self.order_id))
        object.__setattr__(self, "side", OrderSide.parse(self.side))
        object.__setattr__(
            self, "limit_price", _as_decimal(self.limit_price, PRICE_QUANTUM, "limit_price")
        )
        object.__setattr__(self, "quantity", _as_decimal(self.quantity, QTY_QUANTUM, "quantity"))
        object.__setattr__(self, "timestamp", int(self.timestamp))
        if self.limit_price < 0:
            raise InvalidParams(f"limit_price must be nonnegative, got {self.limit_price}")
        if self.quantity <= 0:
            raise InvalidParams(f"quantity must be positive, got {self.quantity}")


@dataclass(frozen=True)
class ClearingResult:
    """clearing_price is None exactly when matched_quantity is zero.
    allocations holds filled quantity per order id (only filled orders);
    unmatched carries the residual book, partially filled orders included
    at their residual quantity."""

    clearing_price: Decimal | None
    matched_quantity: Decimal
    allocations: dict[str, Decimal]
    unmatched: list[SwapOrder]


def _quanta(d: Decimal) -> int:
    return int(d.scaleb(18))


def _ration_side(orders: list[SwapOrder], price_priority_desc: bool, m_star_u: int) -> dict[str, int]:
    """Fill m_star_u quanta by price priority; pro-rata at the marginal level,
    remainder to the earliest timestamp (ties by order id)."""
    filled: dict[str, int] = {}
    remaining = m_star_u
    key = (lambda o: -o.limit_price) if price_priority_desc else (lambda o: o.limit_price)
    for _, group in itertools.groupby(sorted(orders, key=key), key=key):
        if remaining == 0:
            break
        level = list(group)
        level_u = {o.order_id: _quanta(o.quantity) for o in level}
        total_u = sum(level_u.values())
        if total_u <= remaining:
            filled.update(level_u)
            remaining -= total_u
            continue
        base = {oid: remaining * qu // total_u for oid, qu in level_u.items()}
        leftover = remaining - sum(base.values())
        for order in sorted(level, key=lambda o: (o.timestamp, o.order_id)):
            if leftover == 0:
                break
            take = min(level_u[order.order_id] - base[order.order_id], leftover)
            base[order.order_id] += take
            leftover -= take
        filled.update({oid: qu for oid, qu in base.items() if qu > 0})
        remaining = 0
    return filled


def clear_batch(orders) -> ClearingResult:
    """Clear one batch of sealed orders at a single uniform price.

    The clearing price maximizes min(supply(p), demand(p)) over prices; the
    maximizing set is the closed interval spanned by the optimal limit
    prices and the midpoint is quoted.  An empty or uncrossed book clears
    nothing and returns the book unchanged.
    """
    orders = list(orders)
    seen = set()
    for order in orders:
        if order.order_id in seen:
            raise InvalidParams(f"duplicate order id {order.order_id!r}")
        seen.add(order.order_id)

    asks = [o for o in orders if o.side is OrderSide.OFFER_FLOATING]
    bids = [o for o in orders if o.side is OrderSide.BID_FIXED]
    zero = Decimal(0).quantize(QTY_QUANTUM)
    if not asks or not bids:
        return ClearingResult(None, zero, {}, orders)

    # supply S(p): ask quantity with limit <= p; demand D(p): bid quantity
    # with limit >= p.  Both are step functions over the limit-price grid.
    ask_prices = sorted(o.limit_price for o in asks)
    bid_prices = sorted(o.limit_price for o in bids)
    ask_cum: dict[Decimal, int] = {}
    acc = 0
    for o in sorted(asks, key=lambda o: o.limit_price):
        acc += _quanta(o.quantity)
        ask_cum[o.limit_price] = acc
    bid_cum: dict[Decimal, int] = {}
    acc = 0
    for o in sorted(bids, key=lambda o: o.limit_price, reverse=True):
        acc += _quanta(o.quantity)
        bid_cum[o.limit_price] = acc
    ask_keys = sorted(ask_cum)
    bid_keys = sorted(bid_cum)

    def supply_u(p: Decimal) -> int:
        i = bisect_right(ask_keys, p)
        return ask_cum[ask_keys[i - 1]] if i else 0

    def demand_u(p: Decimal) -> int:
        i = bisect_left(bid_keys, p)
        return bid_cum[bid_keys[i]] if i < len(bid_keys) else 0

    grid = sorted({*ask_prices, *bid_prices})
    matched = [min(supply_u(p), demand_u(p)) for p in grid]
    m_star_u = max(matched)
    if m_star_u == 0:
        return ClearingResult(None, zero, {}, orders)
    optimal = [p for p, m in zip(grid, matched) if m == m_star_u]
    lo, hi = optimal[0], optimal[-1]
    price = ((lo + hi) / 2).quantize(PRICE_QUANTUM, rounding=ROUND_HALF_EVEN)

    ask_fills = _ration_side([o for o in asks if o.limit_price <= price], False, m_star_u)
    bid_fills = _ration_side([o for o in bids if o.limit_price >= price], True, m_star_u)
    allocations = {
        oid: Decimal(qu).scaleb(-18).quantize(QTY_QUANTUM)
        for oid, qu in {**ask_fills, **bid_fills}.items()
    }
    unmatched = []
    for order in orders:
        residual_u = _quanta(order.quantity) - ask_fills.get(order.order_id, 0) - bid_fills.get(
            order.order_id, 0
        )
        if residual_u > 0:
            unmatched.append(
                SwapOrder(
                    order.order_id,
                    order.side,
                    order.limit_price,
                    Decimal(residual_u).scaleb(-18),
                    order.timestamp,
                )
            )
    return ClearingResult(
        clearing_price=price,
        matched_quantity=Decimal(m_star_u).scaleb(-18).quantize(QTY_QUANTUM),
        allocations=allocations,
        unmatched=unmatched,
    )


class QuoteVerdict(enum.Enum):
    OK = "ok"
    SINGLE_ASSET_ARBITRAGE = "single_asset_arbitrage"
    CORRELATION_BOUND_VIOLATION = "correlation_bound_violation"


def validate_quote(
    pi_bar: float,
    spec: SwapSpec,
    sigma_x: float | None = None,
    sigma_y: float | None = None,
) -> QuoteVerdict:
    """Check a fixed-leg quote against arbitrage bounds.

    A negative quote hands someone a risk-free profit.  Otherwise the quote
    goes through ``solvers._check_quote``, the one rule the solvers apply:
    at or above the current pool value it is a single-asset arbitrage, and
    when both component volatilities are supplied it must then lie inside
    the fixed-leg interval spanned by correlations in [-1, +1], up to that
    rule's slack.
    """
    pi_bar = float(pi_bar)
    if not math.isfinite(pi_bar):
        raise InvalidParams(f"fixed leg must be a finite number, got {pi_bar!r}")
    pair = sigma_x is not None and sigma_y is not None and pi_bar >= 0.0
    try:
        _check_quote(spec, pi_bar, (sigma_x, sigma_y) if pair else None)
    except ArbitrageViolation:
        return QuoteVerdict.SINGLE_ASSET_ARBITRAGE
    except OutOfBounds:
        return QuoteVerdict.CORRELATION_BOUND_VIOLATION
    return QuoteVerdict.SINGLE_ASSET_ARBITRAGE if pi_bar < 0.0 else QuoteVerdict.OK
