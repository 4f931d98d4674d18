"""Batch auction clearing: goldens, rationing, and brute-force comparison.

The oracle recomputes max_p min(supply(p), demand(p)) over every limit
price in exact Decimal arithmetic, the half-even midpoint of the prices
that reach it, and each side's fills level by level, and checks the
engine's matched volume, clearing price, allocations, conservation and
individual rationality against it on random books.  A digest pins the
engine's output bytes on 2,000 more.
"""

import hashlib
import json
import math
import random
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

import numpy as np
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
from ammvol.dataio import clearing_result_to_dict

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
    # a timestamp is an integer, held exactly; anything else is refused, not truncated
    assert ask("g", 1, 1, ts=10**30).timestamp == 10**30
    assert type(ask("h", 1, 1, ts=np.int64(7)).timestamp) is int
    for ts in (1.5, 2.0, "x", "7", math.nan, math.inf):
        with pytest.raises(InvalidParams, match="timestamp"):
            ask("i", 1, 1, ts=ts)


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


def test_matched_volume_beyond_the_decimal_context():
    # 1.2e10 tokens take 29 digits at 18 decimal places, one more than the
    # default decimal context holds
    book = [ask("a1", "1.0", "6e9"), ask("a2", "1.0", "6e9"), bid("b1", "1.0", "9e9"), bid("b2", "1.0", "9e9")]
    result = clear_batch(book)
    assert result.matched_quantity == D("12000000000")
    assert result.allocations == {oid: D("6e9") for oid in ("a1", "a2", "b1", "b2")}


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


def random_book(rng, max_orders=12, digits=4):
    lattice = [D("0.5"), D("1.0"), D("1.5"), D("2.0"), D("2.5")]
    orders = []
    for k in range(rng.randint(1, max_orders)):
        side = rng.choice(["offer", "bid"])
        if rng.random() < 0.5:
            price = rng.choice(lattice)
        else:
            price = D(str(round(rng.uniform(0.1, 3.0), digits)))
        if rng.random() < 0.2:
            qty = D(rng.randint(1, 9)).scaleb(-18)  # force quantum rationing
        else:
            qty = D(str(round(rng.uniform(0.001, 20.0), 6)))
        orders.append(SwapOrder(f"o{k}", side, price, qty, rng.randint(0, 5)))
    return orders


def brute_force_clearing(orders):
    """(matched volume, clearing price): the largest min(supply, demand) over
    the limit prices, and the half-even midpoint of the limit prices that
    reach it (None when nothing matches)."""
    asks = [o for o in orders if o.side is OrderSide.OFFER_FLOATING]
    bids = [o for o in orders if o.side is OrderSide.BID_FIXED]
    volume = {}
    for p in {o.limit_price for o in orders}:
        supply = sum((o.quantity for o in asks if o.limit_price <= p), D(0))
        demand = sum((o.quantity for o in bids if o.limit_price >= p), D(0))
        volume[p] = min(supply, demand)
    best = max(volume.values(), default=D(0))
    if best == 0:
        return best, None
    optimal = [p for p, v in volume.items() if v == best]
    return best, ((min(optimal) + max(optimal)) / 2).quantize(D("1e-8"), rounding=ROUND_HALF_EVEN)


def expected_fills(orders, side, matched):
    """One side's fills: levels better than the marginal one fill in full and
    worse ones not at all; the marginal level gets its pro-rata floor in
    quanta of 1e-18, and the quanta left over go to its orders by
    (timestamp, order id), each taking what it can until none are left."""
    mine = [o for o in orders if o.side is side]
    fills, need = {}, Fraction(matched)
    for p in sorted({o.limit_price for o in mine}, reverse=side is OrderSide.BID_FIXED):
        level = [o for o in mine if o.limit_price == p]
        total = sum(Fraction(o.quantity) for o in level)
        if need >= total:
            fills.update((o.order_id, o.quantity) for o in level)
            need -= total
            continue
        quanta = {o.order_id: math.floor(need * Fraction(o.quantity) / total * 10**18) for o in level}
        leftover = int(need * 10**18) - sum(quanta.values())
        for o in sorted(level, key=lambda o: (o.timestamp, o.order_id)):
            take = min(int(o.quantity * 10**18) - quanta[o.order_id], leftover)
            quanta[o.order_id] += take
            leftover -= take
        fills.update((oid, D(u).scaleb(-18)) for oid, u in quanta.items() if u)
        break
    return fills


def check_clearing(orders, result):
    matched, price = brute_force_clearing(orders)
    assert result.matched_quantity == matched
    assert result.clearing_price == price
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
    assert result.allocations == {
        **expected_fills(orders, OrderSide.OFFER_FLOATING, matched),
        **expected_fills(orders, OrderSide.BID_FIXED, matched),
    }
    residual = {o.order_id: o.quantity for o in result.unmatched}
    for oid, qty in qty_by_id.items():
        assert residual.get(oid, D(0)) + result.allocations.get(oid, D(0)) == qty


def test_random_books_match_brute_force():
    rng = random.Random(20240811)
    for _ in range(400):
        orders = random_book(rng)
        check_clearing(orders, clear_batch(orders))
    # limit prices on the 1e-8 grid put half a tick in some midpoints
    for _ in range(200):
        orders = random_book(rng, digits=8)
        check_clearing(orders, clear_batch(orders))


def test_seeded_books_clear_to_pinned_bytes():
    # a digest of clearing_result_to_dict over 2,000 seeded books: a change
    # to any price, fill, residual or the order of the residuals shows here
    rng = random.Random(2015)
    digest = hashlib.sha256()
    for _ in range(2000):
        levels = [D(rng.randint(1, 10**9)).scaleb(-8) for _ in range(rng.randint(1, 8))]
        book = [
            SwapOrder(
                f"o{rng.randint(0, 99)}-{k}",
                rng.choice(["offer", "bid"]),
                rng.choice(levels),
                D(rng.randint(1, 10 ** rng.randint(1, 24))).scaleb(-18),
                rng.randint(0, 3),
            )
            for k in range(rng.randint(0, 30))
        ]
        digest.update(json.dumps(clearing_result_to_dict(clear_batch(book)), sort_keys=True).encode())
    assert digest.hexdigest() == "fd7bbc4ca3abb98bebf175a776c8544a4280da1c8b2c3ce1efbdf2b1fd9cb634"


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
