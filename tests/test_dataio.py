"""CSV and JSON IO: byte-exact round trips and line-numbered parse errors."""

import json
import math
import warnings

import numpy as np
import pytest

from ammvol import (
    Cpmm,
    EmptyInput,
    GbmParams,
    ParseError,
    SimConfig,
    StableSwap,
    SwapOrder,
    TickSeries,
    UnsortedInput,
    WindowStat,
    clear_batch,
    run_simulation,
    synthetic_gbm_ticks,
)
from ammvol.dataio import (
    _fmt,
    clearing_result_to_dict,
    read_curve,
    read_orders,
    read_pool_events,
    read_ticks,
    read_windows,
    write_ledger,
    write_ticks,
    write_windows,
)
from ammvol.simulation import SimLedger


@pytest.fixture
def tick_series():
    return synthetic_gbm_ticks(GbmParams(0.4), 1.0, 0.001, 120, 10, seed=6)


# ----- ticks ---------------------------------------------------------------------


def test_tick_round_trip_is_byte_identical(tmp_path, tick_series):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_ticks(p1, tick_series)
    loaded = read_ticks(p1)
    assert np.array_equal(loaded.timestamps, tick_series.timestamps)
    assert np.array_equal(loaded.bids, tick_series.bids)
    assert np.array_equal(loaded.asks, tick_series.asks)
    write_ticks(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_tick_header_checked(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time,bid,ask\n0,1.0,1.0\n")
    with pytest.raises(ParseError) as err:
        read_ticks(path)
    assert err.value.line == 1
    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        read_ticks(path)


def test_tick_row_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("timestamp,bid,ask\n0,1.0,1.0\n5,bogus,1.0\n")
    with pytest.raises(ParseError, match="line 3") as err:
        read_ticks(path)
    assert err.value.line == 3

    path.write_text("timestamp,bid,ask\n0,1.0\n")
    with pytest.raises(ParseError, match="expected 3 fields"):
        read_ticks(path)

    path.write_text("timestamp,bid,ask\n0,1.0,1.0\n1,-2.0,1.0\n")
    with pytest.raises(ParseError, match="positive"):
        read_ticks(path)

    path.write_text("timestamp,bid,ask\n0,1.0,1.0\n1,1.0,1.0\n1,1.0,1.0\n")
    with pytest.raises(UnsortedInput, match="line 4"):
        read_ticks(path)

    path.write_text("timestamp,bid,ask\n")
    with pytest.raises(EmptyInput):
        read_ticks(path)


def test_crossed_ticks_controlled_by_flag(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("timestamp,bid,ask\n0,1.2,0.8\n")
    with pytest.raises(ParseError, match="crossed"):
        read_ticks(path)
    series = read_ticks(path, allow_crossed=True)
    assert series.bids[0] == 1.2


def test_first_offending_row_wins(tmp_path):
    path = tmp_path / "t.csv"
    # a rule broken above a malformed row is reported, not the malformed row
    path.write_text("timestamp,bid,ask\n0,1.0,1.0\n1,-2.0,1.0\n2,1.0,1.0\n3,1.0\n")
    with pytest.raises(ParseError, match="positive") as err:
        read_ticks(path)
    assert err.value.line == 3
    path.write_bytes(b"timestamp,bid,ask\n0,1.0,1.0\n0,1.0,1.0\n\n2,1.\xff0,1.0\n")
    with pytest.raises(UnsortedInput, match="line 3"):
        read_ticks(path)
    # a malformed row above a broken rule is reported
    path.write_text("timestamp,bid,ask\n0,1.0,1.0\n1,x,1.0\n0,1.0,1.0\n")
    with pytest.raises(ParseError, match="could not parse") as err:
        read_ticks(path)
    assert err.value.line == 3
    # within a row, the quotes come before the order
    path.write_text("timestamp,bid,ask\n5,1.0,1.0\n\n4,nan,1.0\n")
    with pytest.raises(ParseError, match="positive") as err:
        read_ticks(path)
    assert err.value.line == 4
    path.write_text("timestamp,bid,ask\n5,1.0,1.0\n4,1.2,1.0\n")
    with pytest.raises(ParseError, match="crossed"):
        read_ticks(path)
    with pytest.raises(UnsortedInput, match="line 3"):
        read_ticks(path, allow_crossed=True)


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_ticks, b"timestamp,bid,ask\n0,1.0,1.0\n1,1.0,\xc3\x28\n"),
        (read_pool_events, b"timestamp,price,fee_x,fee_y\n0,1.0,0.0,0.0\n1,\xff,0.0,0.0\n"),
        (read_windows, b"start,end,fees,lvr,hist_vol,fee_vol\n0,1,1.0,1.0,0.5,0.5\n1,2,\x80,1.0,0.5,0.5\n"),
        (read_orders, b"order_id,side,limit_price,quantity,timestamp\no1,bid,1,1,0\no\xff2,bid,1,1,1\n"),
    ],
    ids=["ticks", "events", "windows", "orders"],
)
def test_bytes_that_are_not_utf8_are_a_parse_error(tmp_path, reader, text):
    path = tmp_path / "f.csv"
    path.write_bytes(text)
    with pytest.raises(ParseError) as err:
        reader(path)
    assert err.value.line == 3


def test_unreadable_fields_are_parse_errors(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("timestamp,bid,ask\n0,1.0,1.0\n" + "1," + "9" * 131_073 + ",1.0\n")
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        read_ticks(path)
    assert err.value.line == 3
    for stamp in (2**63, -(2**63) - 1):
        path.write_text(f"timestamp,bid,ask\n0,1.0,1.0\n\n{stamp},1.0,1.0\n")
        with pytest.raises(ParseError, match="int64") as err:
            read_ticks(path)
        assert err.value.line == 4
    path.write_text(f"timestamp,bid,ask\n{2**63 - 1},1.0,1.0\n")
    assert read_ticks(path).timestamps[0] == 2**63 - 1
    path = tmp_path / "o.csv"
    path.write_text("order_id,side,limit_price,quantity,timestamp\no1,bid,1.0,1e30,0\n")
    with pytest.raises(ParseError) as err:
        read_orders(path)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "row", ["0,1." + "0" * 131_073 + ",1.5", "0,1.0\x1c,1.5"], ids=["over_field_limit", "file_separator"]
)
def test_rows_loadtxt_parses_are_refused_as_the_row_loop_refuses_them(tmp_path, row):
    # np.loadtxt reads either row as (0, 1.0, 1.5); csv and float() refuse it
    path = tmp_path / "t.csv"
    path.write_text("timestamp,bid,ask\n" + row + "\n")
    with pytest.raises(ParseError) as err:
        read_ticks(path)
    assert err.value.line == 2


def _loadtxt_through_a_float(real):
    # numpy 1.23 to 1.26: an int64 field that is not an integer is read
    # through a float, with a DeprecationWarning, instead of raising
    def loadtxt(lines, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return real(lines, dtype=[(name, float) for name in dtype.names], **kwargs).astype(dtype)

    return loadtxt


@pytest.mark.parametrize("numpy_1_2x", [False, True], ids=["installed_numpy", "numpy_1_2x"])
@pytest.mark.parametrize("stamp", ["1.5", "1e3", str(2**63)])
def test_timestamps_that_are_not_int64_are_refused_on_any_numpy(tmp_path, monkeypatch, numpy_1_2x, stamp):
    if numpy_1_2x:
        monkeypatch.setattr(np, "loadtxt", _loadtxt_through_a_float(np.loadtxt))
    path = tmp_path / "t.csv"
    path.write_text(f"timestamp,bid,ask\n{stamp},1.0,1.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # as a user's default filters would hide it
        with pytest.raises(ParseError) as err:
            read_ticks(path)
    assert err.value.line == 2


@pytest.mark.parametrize("reader, header", [(read_ticks, "timestamp,bid,ask"),
                                            (read_pool_events, "timestamp,price,fee_x,fee_y")])
@pytest.mark.parametrize("rest", ["", "\n\r\n"])
def test_header_only_file_is_empty_input_without_a_warning(tmp_path, reader, header, rest):
    path = tmp_path / "h.csv"
    path.write_text(header + "\n" + rest)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EmptyInput, match="no data rows"):
            reader(path)
    assert caught == []


# ----- pool events ------------------------------------------------------------------


def test_pool_events_read(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text(
        "timestamp,price,fee_x,fee_y\n0,1.0,0.0,0.0\n10,1.1,0.01,0.0\n20,0.9,0.0,0.02\n"
    )
    events = read_pool_events(path)
    assert len(events) == 3
    assert events.prices[1] == 1.1
    assert events.fees_y[2] == 0.02


def test_pool_events_errors(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("timestamp,price,fee_x,fee_y\n0,1.0,0.0,-0.1\n")
    with pytest.raises(ParseError, match="nonnegative") as err:
        read_pool_events(path)
    assert err.value.line == 2
    path.write_text("timestamp,price,fee_x,fee_y\n0,1.0,0.0\n")
    with pytest.raises(ParseError, match="expected 4 fields"):
        read_pool_events(path)


def test_pool_events_first_offending_row_wins(tmp_path):
    path = tmp_path / "e.csv"
    # an unsorted row above a bad price is reported
    path.write_text("timestamp,price,fee_x,fee_y\n5,1.0,0.0,0.0\n5,1.0,0.0,0.0\n6,0.0,0.0,0.0\n")
    with pytest.raises(UnsortedInput, match="line 3"):
        read_pool_events(path)
    path.write_text("timestamp,price,fee_x,fee_y\n5,1.0,0.0,0.0\n5,inf,0.0,0.0\n")
    with pytest.raises(ParseError, match="price") as err:
        read_pool_events(path)
    assert err.value.line == 3
    path.write_text(f"timestamp,price,fee_x,fee_y\n{2**64},1.0,0.0,0.0\n")
    with pytest.raises(ParseError, match="int64"):
        read_pool_events(path)


# ----- ledger and windows --------------------------------------------------------------


def test_write_ledger_expands_per_tick(tmp_path, tick_series):
    ledger = run_simulation(Cpmm(1.0), tick_series, 0.0005, SimConfig(initial_investment=None))
    path = tmp_path / "ledger.csv"
    write_ledger(path, ledger)
    lines = path.read_text().splitlines()
    assert lines[0] == "timestamp,spot,cum_fees_usd,cum_lvr_usd"
    assert len(lines) == len(tick_series) + 1
    last = lines[-1].split(",")
    assert int(last[0]) == int(tick_series.timestamps[-1])
    # repr round trip: the written floats parse back exactly
    assert float(last[2]) == ledger.total_fees_usd
    assert float(last[3]) == ledger.total_lvr_usd


def test_writers_match_a_per_row_reference(tmp_path):
    # long enough to span the writers' blocks of rows
    ts = np.arange(10_007) * 1_000_003 - 5
    values = np.resize([0.1, 1e-05, 1e16, 5e-324, 1.7976931348623157e308], ts.size)
    spread = np.roll(values, 2)  # no row has ask == bid

    def per_row(header, *cols):
        rows = (",".join([str(int(t))] + [_fmt(v) for v in row]) + "\n" for t, *row in zip(*cols))
        return (",".join(header) + "\n" + "".join(rows)).encode()

    path = tmp_path / "t.csv"
    write_ticks(path, TickSeries(ts, values, spread))
    assert path.read_bytes() == per_row(["timestamp", "bid", "ask"], ts, values, spread)
    ledger = SimLedger(
        curve=Cpmm(1.0), fee_rate=0.0005, lvr_mode="trade_side", timestamps=ts, mids=values,
        initial_spot=1.0, fills=[], event_ts=ts, event_spot=values, event_cum_fees_x=values,
        event_cum_fees_y=values, event_cum_fees_usd=spread, event_cum_lvr_usd=np.roll(values, 4),
    )
    write_ledger(path, ledger)
    assert path.read_bytes() == per_row(
        ["timestamp", "spot", "cum_fees_usd", "cum_lvr_usd"], ts, values, spread, np.roll(values, 4)
    )


def test_windows_round_trip_preserves_nan(tmp_path):
    stats = [
        WindowStat(0, 100, 1.25, 1.3, 0.52, 0.49),
        WindowStat(50, 150, 0.0, 0.0, 0.0, math.nan),
    ]
    path = tmp_path / "w.csv"
    write_windows(path, stats)
    loaded = read_windows(path)
    assert loaded[0] == stats[0]
    assert loaded[1].window_start == 50
    assert loaded[1].fees == 0.0
    assert math.isnan(loaded[1].fee_vol)
    # byte-identical on rewrite
    path2 = tmp_path / "w2.csv"
    write_windows(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_read_windows_errors(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("start,end,fees,lvr,hist_vol,fee_vol\n0,100,1.0\n")
    with pytest.raises(ParseError, match="expected 6 fields"):
        read_windows(path)
    path.write_text("start,end,fees,lvr,hist_vol,fee_vol\n0,100,a,b,c,d\n")
    with pytest.raises(ParseError) as err:
        read_windows(path)
    assert err.value.line == 2


# ----- orders ----------------------------------------------------------------------------


ORDER_CSV = (
    "order_id,side,limit_price,quantity,timestamp\n"
    "o1,offer,1.0,10,0\n"
    "o2,bid,2.0,10,1\n"
)


def test_read_orders(tmp_path):
    path = tmp_path / "o.csv"
    path.write_text(ORDER_CSV)
    orders = read_orders(path)
    assert [o.order_id for o in orders] == ["o1", "o2"]
    assert orders[0].side.value == "offer"
    assert orders[1].timestamp == 1


def test_read_orders_duplicate_id(tmp_path):
    path = tmp_path / "o.csv"
    path.write_text(ORDER_CSV + "o1,bid,1.5,2,2\n")
    with pytest.raises(ParseError, match=r"duplicate order_id 'o1' \(first seen on line 2\)") as err:
        read_orders(path)
    assert err.value.line == 4


def test_read_orders_field_errors(tmp_path):
    path = tmp_path / "o.csv"
    path.write_text("order_id,side,limit_price,quantity,timestamp\no1,hold,1.0,1,0\n")
    with pytest.raises(ParseError, match="unknown order side"):
        read_orders(path)
    path.write_text("order_id,side,limit_price,quantity,timestamp\no1,bid,1.0,0,0\n")
    with pytest.raises(ParseError, match="quantity"):
        read_orders(path)
    path.write_text("order_id,side,limit_price,quantity,timestamp\n,bid,1.0,1,0\n")
    with pytest.raises(ParseError, match="non-empty"):
        read_orders(path)
    path.write_text("order_id,side,limit_price,quantity,timestamp\no1,bid,1.0,1,xx\n")
    with pytest.raises(ParseError, match="could not parse"):
        read_orders(path)
    path.write_text("order_id,side,limit_price,quantity,timestamp\n")
    assert read_orders(path) == []  # empty book is legal


# ----- clearing result JSON ------------------------------------------------------------


def test_clearing_result_to_dict_golden():
    result = clear_batch(
        [SwapOrder("a", "offer", "1.0", 10, 0), SwapOrder("b", "bid", "2.0", 4, 1)]
    )
    record = clearing_result_to_dict(result)
    assert record["clearing_price"] == "1.50000000"
    assert record["matched_quantity"] == "4.000000000000000000"
    assert record["allocations"] == {
        "a": "4.000000000000000000",
        "b": "4.000000000000000000",
    }
    assert record["unmatched"] == [
        {
            "order_id": "a",
            "side": "offer",
            "limit_price": "1.00000000",
            "quantity": "6.000000000000000000",
            "timestamp": 0,
        }
    ]
    json.dumps(record)  # must be serializable as-is


def test_clearing_result_to_dict_no_trade():
    record = clearing_result_to_dict(clear_batch([]))
    assert record["clearing_price"] is None
    assert record["matched_quantity"] == "0.000000000000000000"


# ----- curve records --------------------------------------------------------------------


def test_read_curve_inline_and_file(tmp_path):
    curve = read_curve('{"kind": "cpmm", "L": 2.0}')
    assert isinstance(curve, Cpmm)
    assert curve.liquidity_tokens == 2.0
    path = tmp_path / "curve.json"
    path.write_text('{"kind": "stableswap", "A": 100.0, "D": 2.0}')
    loaded = read_curve(str(path))
    assert isinstance(loaded, StableSwap)
    assert loaded.amplification == 100.0


def test_read_curve_errors(tmp_path):
    with pytest.raises(ParseError, match="not valid JSON"):
        read_curve("{bad json")
    with pytest.raises(ParseError, match="cannot read curve file"):
        read_curve(str(tmp_path / "missing.json"))
    with pytest.raises(ParseError):
        read_curve('{"kind": "unknown"}')
    with pytest.raises(ParseError):
        read_curve('{"kind": "concentrated", "L": 1.0, "pL": 2.0, "pU": 0.5}')
