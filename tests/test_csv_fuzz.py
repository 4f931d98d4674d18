"""CSV readers fuzzed against a row-by-row reference.

Valid tick, pool-event, window and order files get one or two random
edits: dropped or extra fields, junk and non-UTF-8 bytes, quoted fields,
blank lines, lone carriage returns, CRLF line endings, NaN/inf/negative
values, crossed quotes, swapped rows, duplicate order ids, timestamps
beyond int64 and fields over csv's size limit.  Each reader must return
or raise only ParseError (a window start that is not after the row above
it is one), UnsortedInput or EmptyInput, with the class and line that
``reference`` gives, and the CLI must never exit 1 on the file.  Where the
vectorized tick and pool-event pass takes a file, the row loop takes it too,
reads the same bits and puts each row on the same line.

``reference`` reads the file one row at a time and checks each row
completely before the next: header, field count, a parse in which bytes
that are not UTF-8 and timestamps beyond int64 fail, then the rules in
their documented order.  So its first error is the first offending row's.
"""

import contextlib
import csv
import io
import math
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammvol import EmptyInput, ParseError, UnsortedInput, WindowStat, dataio
from ammvol.auction import SwapOrder
from ammvol.cli import main
from ammvol.dataio import read_orders, read_pool_events, read_ticks, read_windows
from ammvol.errors import InvalidParams
from ammvol.simulation import PoolEventSeries, TickSeries

HEADERS = {
    "ticks": ["timestamp", "bid", "ask"],
    "events": ["timestamp", "price", "fee_x", "fee_y"],
    "windows": ["start", "end", "fees", "lvr", "hist_vol", "fee_vol"],
    "orders": ["order_id", "side", "limit_price", "quantity", "timestamp"],
}
ROWS = {
    "ticks": [[str(t), "1.0", "1.0"] for t in range(5)],
    "events": [[str(10 * t), "1.0", "0.0", "0.5"] for t in range(5)],
    "windows": [["0", "100", "1.0", "1.1", "0.5", "0.4"], ["50", "150", "1.2", "1.3", "0.6", "nan"],
                ["100", "200", "0.9", "1.0", "0.5", "0.5"]],
    "orders": [["o1", "offer", "1.0", "10", "0"], ["o2", "bid", "2.0", "10", "1"],
               ["o3", "bid", "1.5", "4", "2"], ["o4", "ask", "1.2", "3", "3"]],
}
INT64_MAX = 2**63 - 1


# ----- the reference --------------------------------------------------------------


def _parse_row(kind, row, seen):
    """Raise ValueError or ArithmeticError (InvalidParams for rule faults)
    unless the row parses; returns the row's rule values."""
    "".join(row).encode()  # a byte that is not UTF-8 cannot be encoded back
    if kind == "ticks" or kind == "events":
        t = int(row[0])
        if not -INT64_MAX - 1 <= t <= INT64_MAX:
            raise OverflowError
        return t, [float(x) for x in row[1:]]
    if kind == "windows":
        return WindowStat(int(row[0]), int(row[1]), *map(float, row[2:])).window_start, []
    order_id = row[0].strip()
    if not order_id or order_id in seen:
        raise InvalidParams(order_id)
    SwapOrder(order_id, row[1], row[2], row[3], int(row[4]))
    seen.add(order_id)
    return None, []


def _rule_error(kind, values, allow_crossed):
    if kind == "ticks":
        bid, ask = values
        if not (math.isfinite(bid) and bid > 0.0 and math.isfinite(ask) and ask > 0.0):
            return ParseError
        if not allow_crossed and bid > ask:
            return ParseError
    if kind == "events":
        price, fx, fy = values
        if not (math.isfinite(price) and price > 0.0):
            return ParseError
        if not (math.isfinite(fx) and fx >= 0.0 and math.isfinite(fy) and fy >= 0.0):
            return ParseError
    return None


def reference(path, kind, allow_crossed=False):
    """(error class, line) of the first offending row, or None."""
    header = HEADERS[kind]
    rows = 0
    previous = None
    seen = set()
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None or [field.strip() for field in first] != header:
                return ParseError, 1
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != len(header):
                    return ParseError, line
                try:
                    t, values = _parse_row(kind, row, seen)
                except (ValueError, ArithmeticError):
                    return ParseError, line
                cls = _rule_error(kind, values, allow_crossed)
                if cls is not None:
                    return cls, line
                if t is not None:
                    if previous is not None and t <= previous:
                        return (ParseError if kind == "windows" else UnsortedInput), line
                    previous = t
                rows += 1
        except csv.Error:
            return ParseError, reader.line_num
    if rows == 0 and kind in ("ticks", "events"):
        return EmptyInput, None
    return None


# ----- file edits -----------------------------------------------------------------

JUNK = ["", " ", "abc", "nan", "inf", "-inf", "-1", "0", "-0.0", "1e999", "1e30", "0x10",
        "1_0", " 7 ", str(2**63), str(-2**63 - 1), str(INT64_MAX), "+5", "\u0663", "1.0"]
BAD_BYTES = [b"\xff", b"\xc3\x28", b"\x80abc", b"\xe2\x82", b"\x00"]
# weighted by repetition; a field over the size limit is slow to write, so rarer
EDITS = (
    ["junk", "bytes", "swap", "copy_row", "crossed"] * 4
    + ["drop", "extra", "quote", "newline_in_quotes", "blank", "lone_cr", "crlf"] * 2
    + ["big_field", "big_number", "header", "no_rows"]
)


@st.composite
def edited_file(draw, kind):
    """(bytes of a valid file of ``kind`` after one or two random edits)."""
    rows = [[field.encode() for field in row] for row in ROWS[kind]]
    header = [field.encode() for field in HEADERS[kind]]
    blank_after = set()
    newline = b"\n"
    ends = {}  # row -> line terminator other than newline
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(header) - 1))
        edit = draw(st.sampled_from(EDITS))
        row = rows[i]
        if edit == "drop" and len(row) > 1:
            del row[j % len(row)]
        elif edit == "extra":
            row.insert(j, draw(st.sampled_from(JUNK)).encode())
        elif edit == "junk" and j < len(row):
            row[j] = draw(st.sampled_from(JUNK)).encode()
        elif edit == "bytes" and j < len(row):
            k = draw(st.integers(0, len(row[j])))
            row[j] = row[j][:k] + draw(st.sampled_from(BAD_BYTES)) + row[j][k:]
        elif edit == "quote" and j < len(row):
            row[j] = b'"' + row[j] + b'"'
        elif edit == "newline_in_quotes" and j < len(row):
            row[j] = b'"' + row[j] + b'\n"'
        elif edit == "blank":
            blank_after.add(i)
        elif edit == "swap":
            k = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[k] = rows[k], rows[i]
        elif edit == "copy_row":  # a duplicate order id, or a repeated timestamp
            rows.insert(draw(st.integers(i + 1, len(rows))), list(row))
        elif edit == "crossed" and len(row) >= 3:
            row[1], row[2] = b"1.5", b"0.5"
        elif edit == "lone_cr":
            ends[i] = b"\r"
        elif edit == "crlf":  # every line, the header's and blank ones too
            newline = b"\r\n"
        elif edit == "big_field" and j < len(row):
            row[j] = b"1" * 131_073
        elif edit == "big_number" and j < len(row):  # over the limit, yet a float
            row[j] = b"1." + b"0" * 131_073
        elif edit == "header":
            header = header[:-1] if draw(st.booleans()) else header + [b"x"]
        elif edit == "no_rows":
            rows, blank_after = [], {-1}
            break
    body = (newline if -1 in blank_after else b"") + b"".join(
        b",".join(row) + ends.get(i, newline) + (newline if i in blank_after else b"")
        for i, row in enumerate(rows)
    )
    return b",".join(header) + newline + body


def _outcome(read, path):
    try:
        read(path)
    except (ParseError, UnsortedInput, EmptyInput) as exc:
        line = exc.line if isinstance(exc, ParseError) else _line_in_message(exc)
        return type(exc), line
    return None


def _line_in_message(exc):
    text = str(exc)
    return int(text.split(":")[0].split()[1]) if text.startswith("line ") else None


def _cli_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


READERS = {
    "ticks": [(read_ticks, False), (lambda p: read_ticks(p, allow_crossed=True), True)],
    "events": [(read_pool_events, False)],
    "windows": [(read_windows, False)],
    "orders": [(read_orders, False)],
}
CLI = {
    "ticks": lambda p: ["simulate", "--ticks", p, "--curve", '{"kind": "cpmm", "L": 1.0}',
                        "--no-fee-vol"],
    "windows": lambda p: ["analyze", "--windows", p],
    "orders": lambda p: ["auction", "--orders", p],
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(HEADERS)).flatmap(lambda kind: st.tuples(st.just(kind), edited_file(kind))))
def test_readers_match_row_by_row_reference(case):
    kind, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{kind}.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        for read, allow_crossed in READERS[kind]:
            assert _outcome(read, path) == reference(path, kind, allow_crossed), data
        if kind in CLI:
            assert _cli_code(CLI[kind](path)) != 1, data


SERIES = {"ticks": TickSeries, "events": PoolEventSeries}


def _row_loop(read, path):
    """What ``read`` returns with the vectorized pass switched off."""
    with mock.patch.object(dataio, "_load_columns", return_value=None):
        return read(path)


def _bits(series):
    return [col.view(np.uint64).tolist() for col in vars(series).values()]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SERIES)).flatmap(lambda kind: st.tuples(st.just(kind), edited_file(kind))))
# a blank \r\n line in a CRLF file, the one case the length cut of _file_line decides
@example(("ticks", b"timestamp,bid,ask\r\n0,1.0,1.0\r\n\r\n1,1.0,1.0\r\n2,1.0,1.0\r\n"))
def test_vectorized_pass_reads_what_the_row_loop_reads(case):
    kind, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{kind}.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        loaded = dataio._load_columns(path, HEADERS[kind], SERIES[kind])
        if loaded is None:
            return
        fast, ends = loaded
        for col in vars(fast).values():
            assert col.flags.c_contiguous, data
        _, lines, error = dataio._read_rows(path, HEADERS[kind], lambda row: ())
        assert error is None, data
        assert [dataio._file_line(ends, row) for row in range(fast.timestamps.size)] == lines.tolist(), data
        for read, allow_crossed in READERS[kind]:
            rules = {"allow_crossed": allow_crossed} if kind == "ticks" else {}
            if fast.fault(**rules) is None:
                assert _bits(_row_loop(read, path)) == _bits(fast), data
