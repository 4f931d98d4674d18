"""File formats: tick/pool-event/ledger/window CSVs, order books, curve JSON.

All floats are written with repr(float(x)) so the shortest round-tripping
representation is emitted and re-runs are byte-identical.  Readers report
the 1-based line number of the first offending row.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .auction import ClearingResult, SwapOrder
from .curves import AmmCurve, curve_from_dict
from .errors import EmptyInput, InvalidParams, ParseError, RangeError, UnsortedInput
from .simulation import PoolEventSeries, SimLedger, TickSeries, WindowStat

_TICK_HEADER = ["timestamp", "bid", "ask"]
_EVENT_HEADER = ["timestamp", "price", "fee_x", "fee_y"]
_LEDGER_HEADER = ["timestamp", "spot", "cum_fees_usd", "cum_lvr_usd"]
_WINDOW_HEADER = ["start", "end", "fees", "lvr", "hist_vol", "fee_vol"]
_ORDER_HEADER = ["order_id", "side", "limit_price", "quantity", "timestamp"]


def _fmt(value) -> str:
    return repr(float(value))


def _dec_str(value) -> str:
    # fixed-point, never scientific: Decimal("0E-18") prints as 0.000...0
    return format(value, "f")


def _check_header(row, expected, path):
    if row is None:
        raise ParseError(f"{os.path.basename(path)} is empty; expected header {','.join(expected)!r}", line=1)
    if [field.strip() for field in row] != expected:
        raise ParseError(
            f"expected header {','.join(expected)!r}, got {','.join(row)!r}", line=1
        )


# ----- ticks -----------------------------------------------------------------


def read_ticks(path: str, allow_crossed: bool = False) -> TickSeries:
    """Load a tick CSV, validating as it goes.

    Crossed quotes are rejected with their line number unless allow_crossed;
    the arbitrage engine itself can replay them.
    """
    ts: list[int] = []
    bids: list[float] = []
    asks: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), _TICK_HEADER, path)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", line=line)
            try:
                t = int(row[0])
                bid = float(row[1])
                ask = float(row[2])
            except ValueError:
                raise ParseError(f"could not parse row {','.join(row)!r}", line=line) from None
            if not (math.isfinite(bid) and bid > 0.0 and math.isfinite(ask) and ask > 0.0):
                raise ParseError("quotes must be positive finite numbers", line=line)
            if not allow_crossed and bid > ask:
                raise ParseError(f"crossed quote: bid {bid!r} > ask {ask!r}", line=line)
            if ts and t <= ts[-1]:
                raise UnsortedInput(f"line {line}: timestamp {t} does not increase")
            ts.append(t)
            bids.append(bid)
            asks.append(ask)
    if not ts:
        raise EmptyInput(f"{os.path.basename(path)} has no data rows")
    return TickSeries(np.array(ts, dtype=np.int64), np.array(bids), np.array(asks))


def write_ticks(path: str, series: TickSeries) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_TICK_HEADER) + "\n")
        fh.writelines(
            f"{int(t)},{_fmt(b)},{_fmt(a)}\n"
            for t, b, a in zip(series.timestamps, series.bids, series.asks)
        )


# ----- pool events -----------------------------------------------------------


def read_pool_events(path: str) -> PoolEventSeries:
    ts: list[int] = []
    prices: list[float] = []
    fees_x: list[float] = []
    fees_y: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), _EVENT_HEADER, path)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", line=line)
            try:
                t = int(row[0])
                price = float(row[1])
                fx = float(row[2])
                fy = float(row[3])
            except ValueError:
                raise ParseError(f"could not parse row {','.join(row)!r}", line=line) from None
            if not (math.isfinite(price) and price > 0.0):
                raise ParseError("price must be positive and finite", line=line)
            if not (math.isfinite(fx) and fx >= 0.0 and math.isfinite(fy) and fy >= 0.0):
                raise ParseError("fee accruals must be nonnegative", line=line)
            if ts and t <= ts[-1]:
                raise UnsortedInput(f"line {line}: timestamp {t} does not increase")
            ts.append(t)
            prices.append(price)
            fees_x.append(fx)
            fees_y.append(fy)
    if not ts:
        raise EmptyInput(f"{os.path.basename(path)} has no data rows")
    return PoolEventSeries(
        np.array(ts, dtype=np.int64), np.array(prices), np.array(fees_x), np.array(fees_y)
    )


# ----- ledger and windows -----------------------------------------------------


def write_ledger(path: str, ledger: SimLedger) -> None:
    """Per-tick expansion of the event ledger: one row per input tick."""
    ts = ledger.timestamps
    spots = ledger.spot_at(ts)
    fees = ledger.cum_fees_usd_at(ts)
    lvr = ledger.cum_lvr_usd_at(ts)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_LEDGER_HEADER) + "\n")
        fh.writelines(
            f"{int(t)},{_fmt(s)},{_fmt(f)},{_fmt(v)}\n"
            for t, s, f, v in zip(ts, spots, fees, lvr)
        )


def write_windows(path: str, stats: list[WindowStat]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_WINDOW_HEADER) + "\n")
        fh.writelines(
            f"{w.window_start},{w.window_end},{_fmt(w.fees)},{_fmt(w.lvr)},"
            f"{_fmt(w.hist_vol)},{_fmt(w.fee_vol)}\n"
            for w in stats
        )


def read_windows(path: str) -> list[WindowStat]:
    stats: list[WindowStat] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), _WINDOW_HEADER, path)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 6:
                raise ParseError(f"expected 6 fields, got {len(row)}", line=line)
            try:
                stats.append(
                    WindowStat(
                        window_start=int(row[0]),
                        window_end=int(row[1]),
                        fees=float(row[2]),
                        lvr=float(row[3]),
                        hist_vol=float(row[4]),
                        fee_vol=float(row[5]),
                    )
                )
            except ValueError:
                raise ParseError(f"could not parse row {','.join(row)!r}", line=line) from None
    return stats


# ----- order books -------------------------------------------------------------


def read_orders(path: str) -> list[SwapOrder]:
    orders: list[SwapOrder] = []
    seen: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), _ORDER_HEADER, path)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 5:
                raise ParseError(f"expected 5 fields, got {len(row)}", line=line)
            order_id = row[0].strip()
            if not order_id:
                raise ParseError("order_id must be non-empty", line=line)
            if order_id in seen:
                raise ParseError(
                    f"duplicate order_id {order_id!r} (first seen on line {seen[order_id]})",
                    line=line,
                )
            try:
                order = SwapOrder(order_id, row[1], row[2], row[3], int(row[4]))
            except InvalidParams as exc:
                raise ParseError(str(exc), line=line) from None
            except ValueError:
                raise ParseError(f"could not parse row {','.join(row)!r}", line=line) from None
            seen[order_id] = line
            orders.append(order)
    return orders


def clearing_result_to_dict(result: ClearingResult) -> dict:
    """JSON-ready view of a clearing result; decimals become strings."""
    return {
        "clearing_price": None if result.clearing_price is None else _dec_str(result.clearing_price),
        "matched_quantity": _dec_str(result.matched_quantity),
        "allocations": {oid: _dec_str(qty) for oid, qty in sorted(result.allocations.items())},
        "unmatched": [
            {
                "order_id": o.order_id,
                "side": o.side.value,
                "limit_price": _dec_str(o.limit_price),
                "quantity": _dec_str(o.quantity),
                "timestamp": o.timestamp,
            }
            for o in result.unmatched
        ],
    }


# ----- curve records ------------------------------------------------------------


def read_json(source: str, what: str, record: str):
    """Inline JSON (starts with '{') or the JSON file at that path, parsed;
    ``what`` names the file and ``record`` its content in ParseError text."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {what} file {source!r}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{record} is not valid JSON: {exc}") from None


def read_curve(source: str) -> AmmCurve:
    """Curve from inline JSON (starts with '{') or a JSON file path."""
    record = read_json(source, "curve", "curve record")
    try:
        return curve_from_dict(record)
    except (InvalidParams, RangeError) as exc:
        raise ParseError(str(exc)) from None
