"""The columnar fill ledger: ``FillTable`` as a ``Sequence[Fill]``.

A replay keeps its fills as numpy columns and builds a ``Fill`` only when
one is read.  The protocol is checked on a small table, and on a tick file
with crossed quotes the table must list the same fills, in the same order,
as building one ``Fill`` per scan row and merging in the crossed ticks'
scalar fills by a stable sort on timestamp.
"""

import math
from collections.abc import Sequence

import numpy as np
import pytest

from ammvol import (
    Cpmm,
    Fill,
    FillSide,
    FillTable,
    PoolEventSeries,
    PoolSimState,
    SimConfig,
    arbitrage_step,
    replay_pool_events,
    run_simulation,
)
from ammvol.dataio import read_ticks

SELLS, BUYS = FillSide.POOL_SELLS_X, FillSide.POOL_BUYS_X
FILLS = [
    Fill(3, SELLS, -0.5, 0.25, 1e-4, 1.5),
    Fill(7, BUYS, 0.125, -0.0, 0.0, 2.0),
    Fill(7, SELLS, -1e-300, 5e-324, 0.0, 0.75),
    Fill(12, BUYS, 2.0, -3.0, 0.01, 1.25),
]


def assert_fill_types(fill):
    assert type(fill.timestamp) is int
    assert type(fill.side) is FillSide
    for name in ("delta_x", "delta_y", "fee_paid", "execution_price"):
        assert type(getattr(fill, name)) is float


def test_fill_table_is_a_sequence_of_fills():
    table = FillTable.from_fills(FILLS)
    assert isinstance(table, Sequence)
    assert len(table) == 4
    assert table[0] == FILLS[0]
    assert table[-1] == FILLS[-1]
    assert table[np.int64(2)] == FILLS[2]
    with pytest.raises(IndexError):
        table[4]
    part = table[1:3]
    assert isinstance(part, FillTable)
    assert len(part) == 2 and part == FILLS[1:3] and list(part) == FILLS[1:3]
    assert table[::-1] == FILLS[::-1]
    assert list(table) == FILLS
    assert table == FILLS and FILLS == table
    assert table == tuple(FILLS)
    assert table != FILLS[:3] and table != FILLS[::-1]
    assert table != "abcd"
    assert FILLS[1] in table and table.index(FILLS[3]) == 3
    for fill in [table[0], table[-1], *table, *table[1:3]]:
        assert_fill_types(fill)
    # -0.0 survives the column
    assert math.copysign(1.0, table[1].delta_y) == -1.0
    columns = table.columns
    assert [col.dtype for col in columns] == [np.int64, bool] + [np.float64] * 4
    assert columns[1].tolist() == [True, False, True, False]


def test_empty_fill_table_equals_an_empty_list():
    assert FillTable() == [] and [] == FillTable()
    assert len(FillTable()) == 0 and list(FillTable()) == []
    assert FillTable.from_fills([]) == ()
    assert FillTable() != FILLS
    assert FillTable.from_fills(FILLS)[4:] == []


def test_pool_event_replay_has_an_empty_fill_table():
    events = PoolEventSeries([0, 10, 20], [1.0, 1.1, 0.9], [0.0, 0.01, 0.0], [0.02, 0.0, 0.01])
    ledger = replay_pool_events(Cpmm(1.0), events)
    assert isinstance(ledger.fills, FillTable)
    assert ledger.fills == []


def write_crossed_ticks(path, n=3000, seed=8):
    """A 1 s stream with a 2 bp spread whose every 25th quote is crossed
    by 1 %, past a 5 bp pool's fee band, so both legs fire there."""
    rng = np.random.default_rng(seed)
    mids = np.exp(np.cumsum(rng.normal(0.0, 1e-3, n)))
    bids, asks = mids * (1 - 1e-4), mids * (1 + 1e-4)
    bids[::25], asks[::25] = mids[::25] * 1.005, mids[::25] * 0.995
    with open(path, "w") as fh:
        fh.write("timestamp,bid,ask\n")
        fh.writelines(f"{t},{b!r},{a!r}\n" for t, b, a in zip(range(n), bids.tolist(), asks.tolist()))


def test_crossed_stream_fills_match_the_list_construction(tmp_path):
    path = tmp_path / "ticks.csv"
    write_crossed_ticks(path)
    series = read_ticks(path, allow_crossed=True)
    fee_rate = 5e-4
    ledger = run_simulation(Cpmm(1.0), series, fee_rate, SimConfig(initial_investment=100.0))
    table = ledger.fills
    assert isinstance(table, FillTable)

    # the crossed ticks' fills, from arbitrage_step at the scan's spot
    om = 1.0 - fee_rate
    crossed = series.bids * om > series.asks / om
    crossed_fills = []
    for i in np.flatnonzero(crossed).tolist():
        state = PoolSimState(ledger.curve, ledger.spot_at(int(series.timestamps[i]) - 1), fee_rate)
        crossed_fills += arbitrage_step(state, series.tick(i))[1]
    assert sum(f.timestamp == g.timestamp for f, g in zip(crossed_fills, crossed_fills[1:])) > 10

    # one Fill per scan row, then the crossed fills merged by a stable sort
    scan = ~np.isin(table.timestamp, series.timestamps[crossed])
    rows = zip(*(col[scan].tolist() for col in table.columns))
    scan_fills = [Fill(t, SELLS if u else BUYS, a, b, f, p) for t, u, a, b, f, p in rows]
    want = sorted(scan_fills + crossed_fills, key=lambda fill: fill.timestamp)

    got = list(table)
    assert len(got) == len(want) > 1000
    assert got == want
    assert table == want
    for fill in got[:50]:
        assert_fill_types(fill)
