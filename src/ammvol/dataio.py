"""File formats: tick/pool-event/ledger/window CSVs, order books, curve JSON.

All floats are written with repr(float(x)) so the shortest round-tripping
representation is emitted and re-runs are byte-identical.

The four CSV readers share one row loop, ``_read_rows``: it checks the
header, skips blank rows, checks the field count and parses each row.  Tick
and pool-event columns then meet the rules of ``TickSeries.fault`` and
``PoolEventSeries.fault``.  Errors name the 1-based line of the first
offending row; within a row the field count comes first, then the parse,
then the rules in their listed order.  Bytes that are not UTF-8, a field
over csv's size limit and a timestamp beyond int64 are malformed rows too,
so the CLI exits 2 on them.

Tick and pool-event files are parsed in one vectorized pass,
``_load_columns`` (one ``np.loadtxt`` call), whose columns meet the same
``fault`` rules.  It takes only files that it reads exactly as the row loop
would: the first line is exactly the header, the data rows hold only the
bytes of ``_NUMBER_BYTES``, no line is longer than csv's field-size limit,
and loadtxt neither raises nor warns (numpy 1.23 to 1.26 read ``1.5`` into
an int64 column as 1, with a DeprecationWarning; every numpy warns on a
file without data rows).  Any other file, and any file that breaks a rule,
is read again by the row loop, which reports the error.  The tick and
ledger writers format blocks of rows from whole columns.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import warnings

import numpy as np

from .auction import ClearingResult, SwapOrder
from .curves import AmmCurve, curve_from_dict
from .errors import EmptyInput, InvalidParams, ParseError, RangeError
from .simulation import PoolEventSeries, SimLedger, TickSeries, WindowStat

_TICK_HEADER = ["timestamp", "bid", "ask"]
_EVENT_HEADER = ["timestamp", "price", "fee_x", "fee_y"]
_LEDGER_HEADER = ["timestamp", "spot", "cum_fees_usd", "cum_lvr_usd"]
_WINDOW_HEADER = ["start", "end", "fees", "lvr", "hist_vol", "fee_vol"]
_ORDER_HEADER = ["order_id", "side", "limit_price", "quantity", "timestamp"]


def _fmt(value) -> str:
    return repr(float(value))


# rows formatted per block: as fast as whole columns, without holding a
# Python object per value of the file
_WRITE_BLOCK = 4096


def _write_columns(path, header, timestamps, *columns) -> None:
    """``header``, then one row per timestamp: the integer, then each float
    column as ``_fmt`` writes it, a block of rows formatted at once."""
    row = ",".join(["{}"] + ["{!r}"] * len(columns)) + "\n"
    cols = [np.asarray(timestamps, dtype=np.int64)] + [np.asarray(col, dtype=float) for col in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(cols[0]), _WRITE_BLOCK):
            fh.writelines(map(row.format, *(col[start:start + _WRITE_BLOCK].tolist() for col in cols)))


def _dec_str(value) -> str:
    # fixed-point, never scientific: Decimal("0E-18") prints as 0.000...0
    return format(value, "f")


# ----- the row loop --------------------------------------------------------------


def _read_rows(path, header, parse) -> tuple[list, ParseError | None]:
    """(values, error): the tuples ``parse(row)`` of the data rows,
    concatenated into one list (smaller than a tuple per row), and the
    ParseError of the first malformed row, where reading stopped, or None.
    The error is returned, not raised, so that the caller can check its
    rules on the rows above first."""
    values = []
    extend = values.extend
    width = len(header)
    # a byte that is not UTF-8 reads as a lone surrogate, which fails the parse
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            row = next(reader, None)
            if row is None:
                raise ParseError(f"{os.path.basename(path)} is empty; expected header {','.join(header)!r}", 1)
            if [field.strip() for field in row] != header:
                raise ParseError(f"expected header {','.join(header)!r}, got {','.join(row)!r}", 1)
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    return values, ParseError(f"expected {width} fields, got {len(row)}", reader.line_num)
                extend(parse(row))
        except ParseError:
            raise
        except csv.Error as exc:
            return values, ParseError(f"unreadable CSV row: {exc}", reader.line_num)
        except (ValueError, ArithmeticError) as exc:
            message = str(exc) if isinstance(exc, InvalidParams) else f"could not parse row {','.join(row)!r}"
            return values, ParseError(message, reader.line_num)
    return values, None


def _line_of(path, header, index: int) -> int:
    """File line of data row ``index``, found by reading the file again."""
    rows = itertools.count()

    def stop_at_index(row):
        if next(rows) == index:
            raise ValueError
        return ()

    return _read_rows(path, header, stop_at_index)[1].line


# Bytes the data rows may hold on the vectorized pass.  It leaves out
# \x1c-\x1f, which loadtxt strips as blanks and int() and float() refuse.
# Finite numbers need no letter besides e, so leaving out the rest (quotes,
# "_", "#", non-ASCII digits, nan, inf) costs a valid file nothing.
_NUMBER_BYTES = b"0123456789+-.eE, \t\r\n"


def _load_columns(path, header, series_type):
    """``series_type`` from one ``np.loadtxt`` pass over the data rows, with
    C-contiguous columns, or None where the row loop must read the file."""
    with open(path, "rb") as fh:
        head, body = fh.readline(), fh.read()
    if head.rstrip(b"\r\n") != ",".join(header).encode() or body.translate(None, _NUMBER_BYTES):
        return None
    # csv refuses a field over its size limit, and no field outgrows its line
    ends = np.flatnonzero(np.frombuffer(body, np.uint8) == ord("\n"))
    if np.diff(ends, prepend=-1, append=len(body)).max() - 1 > csv.field_size_limit():
        return None
    dtype = np.dtype([(header[0], np.int64)] + [(name, float) for name in header[1:]])
    with io.TextIOWrapper(io.BytesIO(body), encoding="ascii", newline="\n") as lines, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:  # a lone \r, a field count other than the header's, a bad number or a warning raise
            rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    return series_type(*(np.ascontiguousarray(rows[name]) for name in header))


def _read_series(path, header, parse, series_type, **rules):
    """A tick or pool-event CSV, rows (int timestamp, floats...), as a
    ``series_type`` whose ``fault(**rules)`` finds no broken rule.  A file
    that ``_load_columns`` cannot take, or whose columns break a rule, is
    read again by ``_read_rows``, which finds the first offending line."""
    series = _load_columns(path, header, series_type)
    if series is not None and series.fault(**rules) is None:
        return series
    values, error = _read_rows(path, header, parse)
    width = len(header)
    stamps = values[0::width]
    n = len(stamps)
    try:
        timestamps = np.array(stamps, dtype=np.int64)
    except OverflowError:  # the first such timestamp makes its row the malformed one
        n = next(k for k, t in enumerate(stamps) if not -(2**63) <= t < 2**63)
        error = ParseError(f"timestamp {stamps[n]} does not fit in int64", _line_of(path, header, n))
        timestamps = np.array(stamps[:n], dtype=np.int64)
    series = series_type(timestamps, *(np.array(values[j:n * width:width], dtype=float) for j in range(1, width)))
    fault = series.fault(**rules)
    if fault is not None:
        row, cls, message = fault
        line = _line_of(path, header, row)
        raise ParseError(message, line) if cls is InvalidParams else cls(f"line {line}: {message}")
    if error is not None:
        raise error
    if n == 0:
        raise EmptyInput(f"{os.path.basename(path)} has no data rows")
    return series


# ----- ticks -----------------------------------------------------------------


def read_ticks(path: str, allow_crossed: bool = False) -> TickSeries:
    """Load a tick CSV.  Crossed quotes are rejected with their line number
    unless allow_crossed; the arbitrage engine itself can replay them."""
    parse = lambda r: (int(r[0]), float(r[1]), float(r[2]))
    return _read_series(path, _TICK_HEADER, parse, TickSeries, allow_crossed=allow_crossed)


def write_ticks(path: str, series: TickSeries) -> None:
    _write_columns(path, _TICK_HEADER, series.timestamps, series.bids, series.asks)


# ----- pool events -----------------------------------------------------------


def read_pool_events(path: str) -> PoolEventSeries:
    parse = lambda r: (int(r[0]), float(r[1]), float(r[2]), float(r[3]))
    return _read_series(path, _EVENT_HEADER, parse, PoolEventSeries)


# ----- ledger and windows -----------------------------------------------------


def write_ledger(path: str, ledger: SimLedger) -> None:
    """Per-tick expansion of the event ledger: one row per input tick."""
    ts = ledger.timestamps
    _write_columns(path, _LEDGER_HEADER, ts, ledger.spot_at(ts), ledger.cum_fees_usd_at(ts),
                   ledger.cum_lvr_usd_at(ts))


def write_windows(path: str, stats: list[WindowStat]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_WINDOW_HEADER) + "\n")
        fh.writelines(
            f"{w.window_start},{w.window_end},{_fmt(w.fees)},{_fmt(w.lvr)},"
            f"{_fmt(w.hist_vol)},{_fmt(w.fee_vol)}\n"
            for w in stats
        )


def read_windows(path: str) -> list[WindowStat]:
    stats, error = _read_rows(
        path, _WINDOW_HEADER, lambda r: (WindowStat(int(r[0]), int(r[1]), *map(float, r[2:])),)
    )
    if error is not None:
        raise error
    return stats


# ----- order books -------------------------------------------------------------


def read_orders(path: str) -> list[SwapOrder]:
    seen: dict[str, int] = {}  # order_id -> its data row

    def parse(row):
        order_id = row[0].strip()
        if not order_id:
            raise InvalidParams("order_id must be non-empty")
        if order_id in seen:
            first = _line_of(path, _ORDER_HEADER, seen[order_id])
            raise InvalidParams(f"duplicate order_id {order_id!r} (first seen on line {first})")
        order_id.encode()  # a byte that is not UTF-8 raises here
        order = SwapOrder(order_id, row[1], row[2], row[3], int(row[4]))
        seen[order_id] = len(seen)
        return (order,)

    orders, error = _read_rows(path, _ORDER_HEADER, parse)
    if error is not None:
        raise error
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
    ``what`` names the file and ``record`` its content in ParseError text.
    NaN and Infinity are not JSON, and the commands echo requests back, so
    a number beyond the range of a double (1e400) is refused too."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {what} file {source!r}: {exc}") from None

    def reject(constant):
        raise ParseError(f"{record} is not valid JSON: {constant} is not a number")

    def finite(literal):
        value = float(literal)
        if not math.isfinite(value):
            raise ParseError(f"{record} holds {literal}, beyond the range of a double")
        return value

    try:
        return json.loads(text, parse_constant=reject, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{record} is not valid JSON: {exc}") from None


def read_curve(source: str) -> AmmCurve:
    """Curve from inline JSON (starts with '{') or a JSON file path."""
    record = read_json(source, "curve", "curve record")
    try:
        return curve_from_dict(record)
    except (InvalidParams, RangeError) as exc:
        raise ParseError(str(exc)) from None
