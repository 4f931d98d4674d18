"""Batch auction clearing: goldens, rationing, and brute-force comparison.

The oracle recomputes max_p min(supply(p), demand(p)) over every limit
price in exact Decimal arithmetic and checks the engine's matched volume,
conservation, and individual rationality against it on random books.
"""

import math
import random
from decimal import Decimal

import pytest

from ammvol import (
    ClearingResult,
    Cpmm,
    InvalidParams,
    OrderSide,
    QuoteVerdict,
    SwapOrder,
    SwapSpec,
    clear_batch,
    validate_quote,
)

D = Decimal


def ask(oid, price, qty, ts=0):
    return SwapOrder(oid, "offer", price, qty, ts)


def bid(oid, price, qty, ts=0):
    return SwapOrder(oid, "bid", price, qty, ts)


# ----- order construction -------------------------------------------------------


def test_order_side_parsing():
    assert OrderSide.parse("ask") is OrderSide.OFFER_FLOATING
    assert OrderSide.parse("SELL") is OrderSide.OFFER_FLOATING
    assert OrderSide.parse("Buy") is OrderSide.BID_FIXED
    assert OrderSide.parse(OrderSide.BID_FIXED) is OrderSide.BID_FIXED
    with pytest.raises(InvalidParams):
        OrderSide.parse("hold")


def test_order_snapping_and_validation():
    order = ask("a", "1.000000005", "1.1234567890123456789", ts=3)
    assert order.limit_price == D("1.00000000")  # banker's rounding
    assert order.quantity == D("1.123456789012345679")
    assert ask("b", "1.000000015", 1).limit_price == D("1.00000002")
    with pytest.raises(InvalidParams):
        ask("c", -1, 1)
    with pytest.raises(InvalidParams):
        ask("d", 1, 0)
    with pytest.raises(InvalidParams):
        ask("e", "abc", 1)
    with pytest.raises(InvalidParams):
        ask("f", math.inf, 1)


def test_order_too_large_to_quantize_is_invalid_params():
    # 1e30 at 18 decimal places needs more digits than the decimal context holds
    with pytest.raises(InvalidParams, match="quantity"):
        SwapOrder("o", "bid", "1", "1e30", 0)
    with pytest.raises(InvalidParams, match="limit_price"):
        SwapOrder("o", "bid", "1e30", "1", 0)


# ----- golden clears -------------------------------------------------------------


def test_single_cross_clears_at_midpoint():
    result = clear_batch([ask("a", "1.0", 10), bid("b", "2.0", 10)])
    assert result.clearing_price == D("1.50000000")
    assert result.matched_quantity == D("10.000000000000000000")
    assert result.allocations == {
        "a": D("10.000000000000000000"),
        "b": D("10.000000000000000000"),
    }
    assert result.unmatched == []


def test_uncrossed_book_clears_nothing():
    book = [ask("a", "2.0", 10), bid("b", "1.0", 10)]
    result = clear_batch(book)
    assert result.clearing_price is None
    assert result.matched_quantity == 0
    assert result.allocations == {}
    assert result.unmatched == book


def test_empty_and_one_sided_books():
    assert clear_batch([]).clearing_price is None
    only_asks = [ask("a", "1.0", 5)]
    result = clear_batch(only_asks)
    assert result.clearing_price is None
    assert result.unmatched == only_asks


def test_volume_maximizing_interval_midpoint():
    # optimal prices span [1.0, 1.1]: below 1.2 only the cheap ask supplies
    result = clear_batch(
        [ask("a1", "1.0", 5), ask("a2", "1.2", 5), bid("b1", "1.1", 8)]
    )
    assert result.clearing_price == D("1.05000000")
    assert result.matched_quantity == D("5.000000000000000000")
    assert result.allocations["a1"] == D("5.000000000000000000")
    assert result.allocations["b1"] == D("5.000000000000000000")
    assert "a2" not in result.allocations
    residual = {o.order_id: o.quantity for o in result.unmatched}
    assert residual == {"a2": D("5.000000000000000000"), "b1": D("3.000000000000000000")}


def test_pro_rata_remainder_to_earliest_timestamp():
    # marginal ask level of 5 quanta against 3 demanded: floor split gives
    # one each, the indivisible quantum goes to the older order
    result = clear_batch(
        [
            ask("a1", "1.0", D("3e-18"), ts=5),
            ask("a2", "1.0", D("2e-18"), ts=2),
            bid("b1", "1.0", D("3e-18"), ts=9),
        ]
    )
    assert result.clearing_price == D("1.00000000")
    assert result.matched_quantity == D("3e-18")
    assert result.allocations["a1"] == D("1e-18")
    assert result.allocations["a2"] == D("2e-18")
    assert result.allocations["b1"] == D("3e-18")


def test_pro_rata_timestamp_tie_breaks_by_order_id():
    result = clear_batch(
        [
            ask("z", "1.0", D("3e-18"), ts=1),
            ask("a", "1.0", D("3e-18"), ts=1),
            bid("b", "1.0", D("3e-18"), ts=1),
        ]
    )
    # equal floor shares, leftover quantum to lexicographically first id
    assert result.allocations["a"] == D("2e-18")
    assert result.allocations["z"] == D("1e-18")


def test_duplicate_order_ids_rejected():
    with pytest.raises(InvalidParams):
        clear_batch([ask("x", 1, 1), bid("x", 2, 1)])


def test_partial_fill_keeps_residual_order_properties():
    result = clear_batch([ask("a", "1.0", 4), bid("b", "1.0", 10, ts=7)])
    assert result.matched_quantity == D(4)
    (residual,) = result.unmatched
    assert residual.order_id == "b"
    assert residual.side is OrderSide.BID_FIXED
    assert residual.quantity == D(6)
    assert residual.timestamp == 7
    assert isinstance(result, ClearingResult)


# ----- randomized brute force ------------------------------------------------------


def random_book(rng, max_orders=12):
    lattice = [D("0.5"), D("1.0"), D("1.5"), D("2.0"), D("2.5")]
    orders = []
    for k in range(rng.randint(1, max_orders)):
        side = rng.choice(["offer", "bid"])
        if rng.random() < 0.5:
            price = rng.choice(lattice)
        else:
            price = D(str(round(rng.uniform(0.1, 3.0), 4)))
        if rng.random() < 0.2:
            qty = D(rng.randint(1, 9)).scaleb(-18)  # force quantum rationing
        else:
            qty = D(str(round(rng.uniform(0.001, 20.0), 6)))
        orders.append(SwapOrder(f"o{k}", side, price, qty, rng.randint(0, 5)))
    return orders


def brute_force_max_match(orders):
    asks = [o for o in orders if o.side is OrderSide.OFFER_FLOATING]
    bids = [o for o in orders if o.side is OrderSide.BID_FIXED]
    best = D(0)
    for p in {o.limit_price for o in orders}:
        supply = sum((o.quantity for o in asks if o.limit_price <= p), D(0))
        demand = sum((o.quantity for o in bids if o.limit_price >= p), D(0))
        best = max(best, min(supply, demand))
    return best


def check_clearing(orders, result):
    assert result.matched_quantity == brute_force_max_match(orders)
    qty_by_id = {o.order_id: o.quantity for o in orders}
    side_by_id = {o.order_id: o.side for o in orders}
    if result.clearing_price is None:
        assert result.matched_quantity == 0
        assert result.allocations == {}
        assert result.unmatched == orders
        return
    p = result.clearing_price
    ask_total = D(0)
    bid_total = D(0)
    for oid, filled in result.allocations.items():
        assert 0 < filled <= qty_by_id[oid]
        limit = next(o.limit_price for o in orders if o.order_id == oid)
        if side_by_id[oid] is OrderSide.OFFER_FLOATING:
            assert limit <= p  # individual rationality, seller side
            ask_total += filled
        else:
            assert limit >= p
            bid_total += filled
    assert ask_total == result.matched_quantity  # exact conservation
    assert bid_total == result.matched_quantity
    residual = {o.order_id: o.quantity for o in result.unmatched}
    for oid, qty in qty_by_id.items():
        assert residual.get(oid, D(0)) + result.allocations.get(oid, D(0)) == qty


def test_random_books_match_brute_force():
    rng = random.Random(20240811)
    for _ in range(400):
        orders = random_book(rng)
        check_clearing(orders, clear_batch(orders))


def test_adding_orders_never_reduces_matched_volume():
    rng = random.Random(99)
    for _ in range(100):
        orders = random_book(rng, max_orders=8)
        before = clear_batch(orders).matched_quantity
        extra = random_book(rng, max_orders=2)
        renamed = [
            SwapOrder(f"x{k}", o.side, o.limit_price, o.quantity, o.timestamp)
            for k, o in enumerate(extra)
        ]
        after = clear_batch(orders + renamed).matched_quantity
        assert after >= before


# ----- quote validation --------------------------------------------------------------


SPEC = SwapSpec(curve=Cpmm(1.0), maturity=1.0, p0x=1.0)


def test_validate_quote_verdicts():
    assert validate_quote(0.0, SPEC) is QuoteVerdict.OK
    assert validate_quote(1.0, SPEC) is QuoteVerdict.OK
    assert validate_quote(2.0, SPEC) is QuoteVerdict.SINGLE_ASSET_ARBITRAGE
    assert validate_quote(2.5, SPEC) is QuoteVerdict.SINGLE_ASSET_ARBITRAGE
    assert validate_quote(-0.1, SPEC) is QuoteVerdict.SINGLE_ASSET_ARBITRAGE


def test_validate_quote_with_component_vols():
    assert validate_quote(1.4, SPEC, 2.0, 1.0) is QuoteVerdict.CORRELATION_BOUND_VIOLATION
    assert validate_quote(0.1, SPEC, 2.0, 1.0) is QuoteVerdict.CORRELATION_BOUND_VIOLATION
    assert validate_quote(0.9, SPEC, 2.0, 1.0) is QuoteVerdict.OK
    # endpoint quotes stay acceptable thanks to the slack
    assert validate_quote(0.2350, SPEC, 2.0, 1.0) is QuoteVerdict.OK
    with pytest.raises(InvalidParams):
        validate_quote(math.nan, SPEC)
