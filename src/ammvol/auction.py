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
holds with zero error.  A clear sorts each side once, by price priority, and
works on integer quanta of 1e-18, read once per order.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
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
        object.__setattr__(self, "limit_price", _as_decimal(self.limit_price, PRICE_QUANTUM, "limit_price"))
        object.__setattr__(self, "quantity", _as_decimal(self.quantity, QTY_QUANTUM, "quantity"))
        try:  # an int of any size stays exact; 1.5, nan or "7" is refused
            object.__setattr__(self, "timestamp", operator.index(self.timestamp))
        except TypeError:
            raise InvalidParams(f"timestamp must be an integer, got {self.timestamp!r}") from None
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


def _ration_side(side: list[SwapOrder], units: dict[str, int], m_star_u: int) -> dict[str, int]:
    """Fill m_star_u quanta down a side in price priority: the level that
    reaches it pro-rata, the remainder to the earliest (timestamp, order id)."""
    filled: dict[str, int] = {}
    remaining = m_star_u
    for _, group in itertools.groupby(side, key=lambda o: o.limit_price):
        level = list(group)
        total_u = sum(units[o.order_id] for o in level)
        if total_u < remaining:
            filled.update((o.order_id, units[o.order_id]) for o in level)
            remaining -= total_u
            continue
        base = {o.order_id: remaining * units[o.order_id] // total_u for o in level}
        leftover = remaining - sum(base.values())
        for order in sorted(level, key=lambda o: (o.timestamp, o.order_id)):
            if leftover == 0:
                break
            take = min(units[order.order_id] - base[order.order_id], leftover)
            base[order.order_id] += take
            leftover -= take
        filled.update({oid: qu for oid, qu in base.items() if qu > 0})
        break
    return filled


def clear_batch(orders) -> ClearingResult:
    """Clear one batch of sealed orders at a single uniform price.

    The clearing price maximizes min(supply(p), demand(p)) over prices; the
    maximizing set is the closed interval spanned by the optimal limit
    prices and the midpoint is quoted.  An empty or uncrossed book clears
    nothing and returns the book unchanged.
    """
    orders = list(orders)
    units: dict[str, int] = {}  # each order's quantity in quanta of 1e-18
    for order in orders:
        if order.order_id in units:
            raise InvalidParams(f"duplicate order id {order.order_id!r}")
        units[order.order_id] = int(order.quantity.scaleb(18))

    price = operator.attrgetter("limit_price")
    asks = sorted((o for o in orders if o.side is OrderSide.OFFER_FLOATING), key=price)
    bids = sorted((o for o in orders if o.side is OrderSide.BID_FIXED), key=price, reverse=True)
    zero = Decimal(0).quantize(QTY_QUANTUM)
    if not asks or not bids:
        return ClearingResult(None, zero, {}, orders)

    # supply S(p): ask quanta with limit <= p; demand D(p): bid quanta with
    # limit >= p.  Up the limit-price grid asks join S, and bids leave D.
    grid = sorted({o.limit_price for o in orders})
    matched, i, j, supply, demand = [], 0, len(bids), 0, sum(units[o.order_id] for o in bids)
    for p in grid:
        while i < len(asks) and asks[i].limit_price <= p:
            supply += units[asks[i].order_id]
            i += 1
        while j and bids[j - 1].limit_price < p:
            j -= 1
            demand -= units[bids[j].order_id]
        matched.append(min(supply, demand))
    m_star_u = max(matched)
    if m_star_u == 0:
        return ClearingResult(None, zero, {}, orders)
    optimal = [p for p, m in zip(grid, matched) if m == m_star_u]
    lo, hi = optimal[0], optimal[-1]
    clearing = ((lo + hi) / 2).quantize(PRICE_QUANTUM, rounding=ROUND_HALF_EVEN)

    # S(lo) and D(hi) both hold m_star_u: rationing stops inside the limits
    fills = {**_ration_side(asks, units, m_star_u), **_ration_side(bids, units, m_star_u)}
    unmatched = [
        SwapOrder(o.order_id, o.side, o.limit_price, Decimal(f"{residual_u}e-18"), o.timestamp)
        for o in orders
        if (residual_u := units[o.order_id] - fills.get(o.order_id, 0)) > 0
    ]
    return ClearingResult(
        clearing_price=clearing,
        matched_quantity=Decimal(f"{m_star_u}e-18"),
        allocations={oid: Decimal(f"{qu}e-18") for oid, qu in fills.items()},
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
