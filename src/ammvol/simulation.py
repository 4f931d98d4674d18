"""Stale-price arbitrage replay of bid/ask tick data against an AMM pool.

The pool charges a proportional fee ``gamma`` on the arbitrageur's input
asset, which opens a no-arbitrage band around the pool spot ``s``: a trade
is profitable only when ``bid*(1-gamma) > s`` (arbitrageur buys x from the
pool and sells at the bid) or ``ask/(1-gamma) < s`` (buys at the ask and
sells x to the pool).  Each profitable tick produces a fill that moves the
spot exactly to the band edge; fees are collected outside the pool so the
curve itself never absorbs them.  A leg too small to change either holding
still moves the spot but books no fill.  Off crossed bands a tick clamps the
spot to the band edges clipped to the tradeable range, and clamps compose,
so the replay's spot path is one prefix scan (Blelloch 1990); ticks whose
band is crossed, where both legs can fire, take the scalar path.

Alongside fees the simulator accrues realized LVR, the shortfall of the
pool against a portfolio that rebalances at the same trades.  Two
valuation modes exist:

``trade_side``
    rebalancing at the external bid/ask actually hit by the arbitrageur
    (equity-style replication).  Per fill this equals arbitrageur profit
    plus the fee, so fees and LVR track each other closely on arb-only
    flow.
``pool_spot``
    rebalancing at the pool's own post-trade spot (on-chain style
    replication).  On an arbitrage-only stream the spot only moves by
    band-exit overshoot, so this mode collects almost no quadratic
    variation; it is mainly useful for replaying real pool event data.

Asset y is the quote/numeraire asset throughout: tick prices, fees in y,
and LVR are all "dollars"; fees paid in x are converted at the tick mid.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .curves import AmmCurve
from .errors import (
    DegenerateInput,
    EmptyInput,
    InsufficientData,
    InvalidParams,
    UnsortedInput,
    check_count,
    check_nonnegative,
    check_positive,
    check_seed,
)
from .fees import YEAR_SECONDS, GbmParams, effective_variance

_LVR_MODES = ("trade_side", "pool_spot")


# ----- input rules ------------------------------------------------------------
# Written once for ``validate`` and the CSV readers.  A check is (flags, error
# class, message template); a fault, (row, class, message), is the first flagged
# row, and within a row the first check listed.


def _quotes_ok(bids, asks):
    """Quotes are positive finite numbers (scalars or arrays)."""
    return np.isfinite(bids) & np.isfinite(asks) & (bids > 0.0) & (asks > 0.0)


def _order_check(timestamps: np.ndarray):
    later = np.zeros(timestamps.shape, dtype=bool)
    later[1:] = timestamps[1:] <= timestamps[:-1]
    return later, UnsortedInput, "timestamp {timestamp} does not increase"


def _first_fault(checks, **columns) -> tuple[int, type, str] | None:
    """The first fault of ``checks``, its message filled in from that row of ``columns``."""
    rows = [int(flags.argmax()) if flags.any() else math.inf for flags, _, _ in checks]
    row = min(rows)
    if row == math.inf:
        return None
    _, cls, template = checks[rows.index(row)]
    return row, cls, template.format(**{name: col[row].item() for name, col in columns.items()})


def _raise_fault(fault) -> None:
    if fault is not None:
        raise fault[1](f"row {fault[0]}: {fault[2]}")


@dataclass(frozen=True)
class QuoteTick:
    """One top-of-book observation. Crossed quotes (bid > ask) are legal
    input to the arbitrage engine but are rejected by file ingestion unless
    explicitly allowed."""

    timestamp: int
    bid: float
    ask: float

    def __post_init__(self):
        object.__setattr__(self, "timestamp", int(self.timestamp))
        bid = float(self.bid)
        ask = float(self.ask)
        if not _quotes_ok(bid, ask):
            raise InvalidParams(f"quotes must be positive, got bid={bid!r} ask={ask!r}")
        object.__setattr__(self, "bid", bid)
        object.__setattr__(self, "ask", ask)

    @property
    def mid(self) -> float:
        return 0.5 * (self.bid + self.ask)


@dataclass(eq=False)
class TickSeries:
    """Column-oriented tick storage: int64 timestamps, float bids/asks."""

    timestamps: np.ndarray
    bids: np.ndarray
    asks: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.bids = np.asarray(self.bids, dtype=float)
        self.asks = np.asarray(self.asks, dtype=float)
        if not (self.timestamps.shape == self.bids.shape == self.asks.shape):
            raise InvalidParams("timestamps, bids and asks must have equal length")

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @property
    def mids(self) -> np.ndarray:
        return 0.5 * (self.bids + self.asks)

    def tick(self, i: int) -> QuoteTick:
        return QuoteTick(int(self.timestamps[i]), float(self.bids[i]), float(self.asks[i]))

    @classmethod
    def from_ticks(cls, ticks: Sequence[QuoteTick]) -> "TickSeries":
        ticks = list(ticks)
        return cls(
            np.array([t.timestamp for t in ticks], dtype=np.int64),
            np.array([t.bid for t in ticks], dtype=float),
            np.array([t.ask for t in ticks], dtype=float),
        )

    def fault(self, allow_crossed: bool = False) -> tuple[int, type, str] | None:
        """The first fault of a tick rule, or None.  The rules, in their order
        within a row: quotes are positive finite numbers, bid <= ask unless
        allow_crossed, and timestamps strictly increase."""
        bids, asks = self.bids, self.asks
        return _first_fault([
            (~_quotes_ok(bids, asks), InvalidParams, "quotes must be positive finite numbers"),
            ((bids > asks) & (not allow_crossed), InvalidParams, "crossed quote: bid {bid!r} > ask {ask!r}"),
            _order_check(self.timestamps),
        ], timestamp=self.timestamps, bid=bids, ask=asks)

    def validate(self, allow_crossed: bool = False) -> "TickSeries":
        if len(self) == 0:
            raise EmptyInput("tick series is empty")
        _raise_fault(self.fault(allow_crossed))
        return self


class FillSide(enum.Enum):
    """Direction of a fill from the pool's perspective."""

    POOL_SELLS_X = "pool_sells_x"  # arbitrageur lifts the pool, sells at the external bid
    POOL_BUYS_X = "pool_buys_x"  # arbitrageur buys at the external ask, sells to the pool


@dataclass(frozen=True)
class Fill:
    """One executed arbitrage trade. delta_x/delta_y are the pool's holding
    changes (net of fees, which never enter the pool); fee_paid is in the
    arbitrageur's input asset: y when the pool sells x, x otherwise."""

    timestamp: int
    side: FillSide
    delta_x: float
    delta_y: float
    fee_paid: float
    execution_price: float


@dataclass(frozen=True, eq=False)
class FillTable(Sequence):
    """The fills of a replay as columns, one row per fill in time order.
    A ``Sequence[Fill]``: an item is a ``Fill`` built when it is read, a
    slice is a ``FillTable``, and a table equals any sequence of equal
    fills (``ledger.fills == []`` when nothing filled).  ``sells_x`` is True
    where the side is ``FillSide.POOL_SELLS_X``."""

    timestamp: np.ndarray = ()
    sells_x: np.ndarray = ()
    delta_x: np.ndarray = ()
    delta_y: np.ndarray = ()
    fee_paid: np.ndarray = ()
    execution_price: np.ndarray = ()

    def __post_init__(self):
        for column, dtype in zip(fields(self), (np.int64, bool, float, float, float, float)):
            object.__setattr__(self, column.name, np.asarray(getattr(self, column.name), dtype=dtype))

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, column.name) for column in fields(self))

    @classmethod
    def from_fills(cls, fills: Iterable[Fill]) -> "FillTable":
        rows = [(f.timestamp, f.side is FillSide.POOL_SELLS_X, f.delta_x, f.delta_y, f.fee_paid,
                 f.execution_price) for f in fills]
        return cls(*zip(*rows)) if rows else cls()

    def __len__(self) -> int:
        return int(self.timestamp.size)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return FillTable(*(col[index] for col in self.columns))
        return _fill(*(col[index].item() for col in self.columns))

    def __iter__(self):
        return map(_fill, *(col.tolist() for col in self.columns))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _fill(timestamp, sells_x, delta_x, delta_y, fee_paid, execution_price) -> Fill:
    side = FillSide.POOL_SELLS_X if sells_x else FillSide.POOL_BUYS_X
    return Fill(timestamp, side, delta_x, delta_y, fee_paid, execution_price)


@dataclass(frozen=True)
class PoolSimState:
    """Pool state between ticks: fee accumulators are in asset units, the
    LVR accumulator in dollars (y units)."""

    curve: AmmCurve
    spot_price: float
    fee_rate: float
    cum_fees_x: float = 0.0
    cum_fees_y: float = 0.0
    cum_lvr: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.fee_rate < 1.0):
            raise InvalidParams(f"fee_rate must lie in [0, 1), got {self.fee_rate!r}")


@dataclass(frozen=True)
class SimConfig:
    """Run configuration.

    initial_investment: dollar value the pool is rescaled to at the first
    mid price (None keeps the curve as passed).  lvr_mode selects the
    realized-LVR valuation price, see the module docstring.
    """

    initial_investment: float | None = 100.0
    lvr_mode: str = "trade_side"

    def __post_init__(self):
        if self.lvr_mode not in _LVR_MODES:
            raise InvalidParams(f"lvr_mode must be one of {_LVR_MODES}, got {self.lvr_mode!r}")
        if self.initial_investment is not None:
            check_positive(self.initial_investment, "initial_investment")


@dataclass(frozen=True)
class WindowStat:
    """Aggregates for one rolling window; fee_vol is nan until attached by
    the implied-vol layer, which also counts the Newton iterations of its
    solve in fee_vol_iterations (a diagnostic, not part of the window's
    value: it is not compared, nor written to the windows CSV)."""

    window_start: int
    window_end: int
    fees: float
    lvr: float
    hist_vol: float
    fee_vol: float = math.nan
    fee_vol_iterations: int = field(default=0, compare=False)

    def __post_init__(self):
        if not self.window_start < self.window_end:
            raise InvalidParams(
                f"window must start before it ends, got [{self.window_start!r}, {self.window_end!r})"
            )
        check_nonnegative(self.fees, "window fees")
        if not math.isfinite(self.lvr):
            raise InvalidParams(f"window lvr must be finite, got {self.lvr!r}")
        for name in ("hist_vol", "fee_vol"):
            vol = getattr(self, name)
            if not (math.isnan(vol) or 0.0 <= vol < math.inf):
                raise InvalidParams(f"window {name} must be nan (missing) or finite and >= 0, got {vol!r}")


# ----- single-tick arbitrage ------------------------------------------------


def _execute_leg(pool, spot, x, y, target, side, exec_price, fee_rate, timestamp):
    """Move the spot toward ``target`` (clamped to the tradeable range).

    Returns None when the clamp nullifies the move, else (fill, new_spot,
    new_x, new_y, fee_x, fee_y) with fill None if neither holding changes.
    """
    lo, hi = pool.trade_bounds
    target = min(max(target, lo), hi)
    if side is FillSide.POOL_SELLS_X:
        if not target > spot:
            return None
    else:
        if not target < spot:
            return None
    x1, y1 = pool.holdings(target)
    dx = x1 - x
    dy = y1 - y
    if dx == 0.0 and dy == 0.0:
        return None, target, x1, y1, 0.0, 0.0
    gamma = fee_rate
    # the fee is withheld from the arbitrageur's gross input; a leg of a
    # few ulps can leave the input holding falling by rounding, and pays none
    if side is FillSide.POOL_SELLS_X:
        fee_y = gamma * max(dy, 0.0) / (1.0 - gamma)
        fee_x = 0.0
        fee_paid = fee_y
    else:
        fee_x = gamma * max(dx, 0.0) / (1.0 - gamma)
        fee_y = 0.0
        fee_paid = fee_x
    fill = Fill(timestamp, side, dx, dy, fee_paid, exec_price)
    return fill, target, x1, y1, fee_x, fee_y


def _run_legs(pool, spot, x, y, order, bid, ask, mid, timestamp, fee_rate, trade_side):
    """Execute the given leg order, each leg re-checked at the current spot.

    Returns (fills, spot, x, y, fee_x, fee_y, fee_usd, lvr_usd).
    """
    om = 1.0 - fee_rate
    fills: list[Fill] = []
    fee_x_tot = fee_y_tot = fee_usd = lvr_usd = 0.0
    for side in order:
        if side is FillSide.POOL_SELLS_X:
            target = bid * om
            exec_price = bid
        else:
            target = ask / om
            exec_price = ask
        leg = _execute_leg(pool, spot, x, y, target, side, exec_price, fee_rate, timestamp)
        if leg is None:
            continue
        fill, spot, x, y, fee_x, fee_y = leg
        if fill is None:
            continue
        fills.append(fill)
        fee_x_tot += fee_x
        fee_y_tot += fee_y
        fee_usd += fee_y + fee_x * mid
        ref = exec_price if trade_side else spot
        lvr_usd += -(fill.delta_x * ref + fill.delta_y)
    return fills, spot, x, y, fee_x_tot, fee_y_tot, fee_usd, lvr_usd


def _tick_outcome(pool, spot, x, y, bid, ask, mid, timestamp, fee_rate, trade_side):
    """Best arbitrage response to one tick.

    When the no-arbitrage band is crossed in both directions (possible with
    crossed or interval-aggregated quotes) both leg orderings are evaluated
    and the one collecting less total fee value wins, ties to bid-first.
    """
    om = 1.0 - fee_rate
    do_bid = bid * om > spot
    do_ask = ask / om < spot
    if not (do_bid or do_ask):
        return [], spot, x, y, 0.0, 0.0, 0.0, 0.0
    if do_bid and do_ask:
        first = _run_legs(
            pool, spot, x, y, (FillSide.POOL_SELLS_X, FillSide.POOL_BUYS_X),
            bid, ask, mid, timestamp, fee_rate, trade_side,
        )
        second = _run_legs(
            pool, spot, x, y, (FillSide.POOL_BUYS_X, FillSide.POOL_SELLS_X),
            bid, ask, mid, timestamp, fee_rate, trade_side,
        )
        return first if first[6] <= second[6] else second
    side = FillSide.POOL_SELLS_X if do_bid else FillSide.POOL_BUYS_X
    return _run_legs(pool, spot, x, y, (side,), bid, ask, mid, timestamp, fee_rate, trade_side)


def arbitrage_step(
    state: PoolSimState, tick: QuoteTick, lvr_mode: str = "trade_side"
) -> tuple[PoolSimState, list[Fill]]:
    """Apply one tick of stale-price arbitrage to the pool state.

    Returns the post-tick state and the executed fills.  Fee accumulators
    grow in asset units; cum_lvr grows by the realized LVR of the fills
    under the chosen valuation mode, with x fees valued at the tick mid.
    The state is returned unchanged when the spot stays and nothing fills.
    """
    if lvr_mode not in _LVR_MODES:
        raise InvalidParams(f"lvr_mode must be one of {_LVR_MODES}, got {lvr_mode!r}")
    x, y = state.curve.holdings(state.spot_price)
    fills, spot, _, _, fee_x, fee_y, _, lvr_usd = _tick_outcome(
        state.curve, state.spot_price, x, y,
        tick.bid, tick.ask, tick.mid, tick.timestamp,
        state.fee_rate, lvr_mode == "trade_side",
    )
    if not fills and spot == state.spot_price:
        return state, []
    new_state = replace(
        state,
        spot_price=spot,
        cum_fees_x=state.cum_fees_x + fee_x,
        cum_fees_y=state.cum_fees_y + fee_y,
        cum_lvr=state.cum_lvr + lvr_usd,
    )
    return new_state, fills


# ----- full-series replay -----------------------------------------------------


@dataclass(eq=False)
class SimLedger:
    """Immutable record of one replay.

    Pool state changes only at events, ticks that move the spot or fill, so
    cumulative series are stored per event and looked up by timestamp; the
    ``state_at``/``spot_at``/``cum_*_at`` helpers rebuild the per-tick view.
    ``timestamps``/``mids`` keep the external price series for window stats.
    """

    curve: AmmCurve
    fee_rate: float
    lvr_mode: str
    timestamps: np.ndarray
    mids: np.ndarray
    initial_spot: float
    fills: FillTable = field(repr=False)
    event_ts: np.ndarray = field(repr=False)
    event_spot: np.ndarray = field(repr=False)
    event_cum_fees_x: np.ndarray = field(repr=False)
    event_cum_fees_y: np.ndarray = field(repr=False)
    event_cum_fees_usd: np.ndarray = field(repr=False)
    event_cum_lvr_usd: np.ndarray = field(repr=False)

    def _lookup(self, values: np.ndarray, ts, fill_value: float):
        ts_arr = np.asarray(ts)
        if self.event_ts.size == 0:
            out = np.full(ts_arr.shape, fill_value, dtype=float)
        else:
            idx = np.searchsorted(self.event_ts, ts_arr, side="right") - 1
            out = np.where(idx >= 0, values[np.maximum(idx, 0)], fill_value)
        return float(out) if ts_arr.ndim == 0 else out

    def spot_at(self, ts):
        return self._lookup(self.event_spot, ts, self.initial_spot)

    def cum_fees_x_at(self, ts):
        return self._lookup(self.event_cum_fees_x, ts, 0.0)

    def cum_fees_y_at(self, ts):
        return self._lookup(self.event_cum_fees_y, ts, 0.0)

    def cum_fees_usd_at(self, ts):
        return self._lookup(self.event_cum_fees_usd, ts, 0.0)

    def cum_lvr_usd_at(self, ts):
        return self._lookup(self.event_cum_lvr_usd, ts, 0.0)

    def state_at(self, ts) -> PoolSimState:
        return PoolSimState(
            curve=self.curve,
            spot_price=self.spot_at(ts),
            fee_rate=self.fee_rate,
            cum_fees_x=self.cum_fees_x_at(ts),
            cum_fees_y=self.cum_fees_y_at(ts),
            cum_lvr=self.cum_lvr_usd_at(ts),
        )

    @property
    def initial_state(self) -> PoolSimState:
        return PoolSimState(self.curve, self.initial_spot, self.fee_rate)

    @property
    def final_state(self) -> PoolSimState:
        return self.state_at(int(self.timestamps[-1]))

    @property
    def total_fees_usd(self) -> float:
        return float(self.event_cum_fees_usd[-1]) if self.event_ts.size else 0.0

    @property
    def total_lvr_usd(self) -> float:
        return float(self.event_cum_lvr_usd[-1]) if self.event_ts.size else 0.0

    @property
    def span_seconds(self) -> int:
        return int(self.timestamps[-1] - self.timestamps[0])


def _clamp_scan(lo: np.ndarray, hi: np.ndarray, buf: np.ndarray) -> None:
    """Turn clamps s -> min(max(s, lo[i]), hi[i]) into their prefix
    compositions in place.  Clamp (a, b) then (c, d) is the clamp (clamp(a,
    c, d), clamp(b, c, d)): it only selects endpoints, so any grouping is
    exact.  Pairs fold into the odd slots, which are scanned, then each even
    slot composes with the odd one before it; ``buf`` holds n // 2 floats."""
    n = lo.size
    if n < 2:
        return
    m, k = n // 2, (n - 1) // 2
    _compose(lo[0 : 2 * m : 2], hi[0 : 2 * m : 2], lo[1::2], hi[1::2], buf[:m])
    _clamp_scan(lo[1::2], hi[1::2], buf)
    _compose(lo[1 : 2 * k : 2], hi[1 : 2 * k : 2], lo[2::2], hi[2::2], buf[:k])


def _compose(lo0, hi0, lo1, hi1, tmp) -> None:
    """(lo1, hi1) becomes clamp (lo0, hi0) followed by clamp (lo1, hi1)."""
    np.clip(hi0, lo1, hi1, out=tmp)
    np.clip(lo0, lo1, hi1, out=lo1)
    hi1[...] = tmp


def run_simulation(
    curve: AmmCurve,
    ticks: TickSeries | Iterable[QuoteTick],
    fee_rate: float,
    config: SimConfig | None = None,
) -> SimLedger:
    """Replay a tick series against a fee-charging pool.

    The pool opens at the first tick's mid (clamped to the tradeable
    range), optionally rescaled to config.initial_investment dollars.  The
    result equals folding :func:`arbitrage_step` over the ticks, with fees
    dollarized at the mid of the tick where they accrue (see the module
    docstring for the scan).  Deterministic for given inputs.
    """
    config = config or SimConfig()
    series = ticks if isinstance(ticks, TickSeries) else TickSeries.from_ticks(list(ticks))
    series.validate(allow_crossed=True)
    if not (0.0 <= fee_rate < 1.0):
        raise InvalidParams(f"fee_rate must lie in [0, 1), got {fee_rate!r}")

    ts = series.timestamps
    bids = series.bids
    asks = series.asks
    mids = series.mids
    lo, hi = curve.trade_bounds
    spot = min(max(float(mids[0]), lo), hi)
    pool = curve
    if config.initial_investment is not None:
        pool = curve.scaled_to_value(config.initial_investment, spot)
        lo, hi = pool.trade_bounds
        spot = min(max(spot, lo), hi)
    initial_spot = spot
    trade_side = config.lvr_mode == "trade_side"

    om = 1.0 - fee_rate
    path = bids * om  # lower band edges, then the spot after each tick
    upper = asks / om
    crossed = np.flatnonzero(path > upper).tolist()
    np.clip(path, lo, hi, out=path)
    np.clip(upper, lo, hi, out=upper)
    n = path.size
    buf = np.empty(n // 2)
    scalar = {}  # crossed tick -> _tick_outcome
    start = 0
    for c in crossed + [n]:
        _clamp_scan(path[start:c], upper[start:c], buf)
        np.clip(spot, path[start:c], upper[start:c], out=path[start:c])
        if c < n:
            spot = float(path[c - 1]) if c > start else spot
            scalar[c] = _tick_outcome(
                pool, spot, *pool.holdings(spot), float(bids[c]), float(asks[c]),
                float(mids[c]), int(ts[c]), fee_rate, trade_side,
            )
            spot = path[c] = scalar[c][1]
            start = c + 1

    # events: ticks that moved the spot, or crossed ticks that filled
    moved = np.empty(n, dtype=bool)
    moved[0] = path[0] != initial_spot
    np.not_equal(path[1:], path[:-1], out=moved[1:])
    for c, outcome in scalar.items():
        moved[c] |= bool(outcome[0])
    ev = np.flatnonzero(moved)
    ev_spot = path[ev]
    xs, ys = pool.holdings_grid(np.concatenate(([initial_spot], ev_spot)))
    dx, dy = np.diff(xs), np.diff(ys)
    up = ev_spot > np.concatenate(([initial_spot], ev_spot[:-1]))
    fee = np.where(up, dy, dx)
    fee = fee_rate * np.maximum(fee, 0.0, out=fee) / om
    fee_x, fee_y = np.where(up, 0.0, fee), np.where(up, fee, 0.0)
    fee_usd = fee_y + fee_x * mids[ev]
    exec_price = np.where(up, bids[ev], asks[ev])
    lvr = -(dx * (exec_price if trade_side else ev_spot) + dy)
    keep = (dx != 0.0) | (dy != 0.0)  # a zero-size leg moves the spot, books nothing
    crossed_fills = []
    for c, outcome in scalar.items():
        if moved[c]:
            e = int(np.searchsorted(ev, c))
            fee_x[e], fee_y[e], fee_usd[e], lvr[e] = outcome[4:]
            keep[e] = False
            crossed_fills += outcome[0]

    fills = FillTable(*(col[keep] for col in (ts[ev], up, dx, dy, fee, exec_price)))
    if crossed_fills:  # merged in time order, scan fills first on a tie
        crossed_table = FillTable.from_fills(crossed_fills)
        merged = [np.concatenate(pair) for pair in zip(fills.columns, crossed_table.columns)]
        order = np.argsort(merged[0], kind="stable")
        fills = FillTable(*(col[order] for col in merged))
    # arbitrage_step sums onto 0.0; adding 0.0 likewise turns -0.0 into 0.0
    cum_fx, cum_fy, cum_usd, cum_lvr = (np.cumsum(a) + 0.0 for a in (fee_x, fee_y, fee_usd, lvr))

    return SimLedger(
        curve=pool,
        fee_rate=fee_rate,
        lvr_mode=config.lvr_mode,
        timestamps=ts,
        mids=mids,
        initial_spot=initial_spot,
        fills=fills,
        event_ts=ts[ev],
        event_spot=ev_spot,
        event_cum_fees_x=cum_fx,
        event_cum_fees_y=cum_fy,
        event_cum_fees_usd=cum_usd,
        event_cum_lvr_usd=cum_lvr,
    )


# ----- on-chain pool event replay ---------------------------------------------


@dataclass(eq=False)
class PoolEventSeries:
    """Pre-extracted per-block pool data: spot price and fee accruals."""

    timestamps: np.ndarray
    prices: np.ndarray
    fees_x: np.ndarray
    fees_y: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.prices = np.asarray(self.prices, dtype=float)
        self.fees_x = np.asarray(self.fees_x, dtype=float)
        self.fees_y = np.asarray(self.fees_y, dtype=float)
        shapes = {a.shape for a in (self.timestamps, self.prices, self.fees_x, self.fees_y)}
        if len(shapes) != 1:
            raise InvalidParams("pool event columns must have equal length")

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def fault(self) -> tuple[int, type, str] | None:
        """The first fault of a pool-event rule, or None.  The rules, in their
        order within a row: the price is positive and finite, fee accruals are
        nonnegative and finite, and timestamps strictly increase."""
        p, fx, fy = self.prices, self.fees_x, self.fees_y
        return _first_fault([
            (~(np.isfinite(p) & (p > 0.0)), InvalidParams, "price must be positive and finite"),
            (~(np.isfinite(fx) & np.isfinite(fy) & (fx >= 0.0) & (fy >= 0.0)), InvalidParams,
             "fee accruals must be nonnegative and finite"),
            _order_check(self.timestamps),
        ], timestamp=self.timestamps)

    def validate(self) -> "PoolEventSeries":
        if len(self) == 0:
            raise EmptyInput("pool event series is empty")
        _raise_fault(self.fault())
        return self


def replay_pool_events(
    curve: AmmCurve, events: PoolEventSeries, config: SimConfig | None = None
) -> SimLedger:
    """Replay recorded pool spots and fee accruals (on-chain replication).

    Realized LVR is accrued along the given spot path with the pool's own
    prices (holdings at the previous spot, revalued at the next), i.e. the
    pool_spot mode; fees are dollarized at the concurrent pool price.
    """
    config = config or SimConfig(lvr_mode="pool_spot")
    events.validate()
    prices = events.prices
    lo, hi = curve.trade_bounds
    p0 = min(max(float(prices[0]), lo), hi)
    pool = curve
    if config.initial_investment is not None:
        pool = curve.scaled_to_value(config.initial_investment, p0)

    xs, _ = pool.holdings_grid(prices)
    values = pool.pool_value_grid(prices)
    # holdings at the previous spot, revalued at the next, minus pool drift
    lvr_inc = xs[:-1] * np.diff(prices) - np.diff(values)
    cum_lvr = np.concatenate([[0.0], np.cumsum(lvr_inc)])
    fees_usd = events.fees_y + events.fees_x * prices
    cum_fees_usd = np.cumsum(fees_usd)
    cum_fx = np.cumsum(events.fees_x)
    cum_fy = np.cumsum(events.fees_y)

    return SimLedger(
        curve=pool,
        fee_rate=0.0,
        lvr_mode="pool_spot",
        timestamps=events.timestamps,
        mids=prices,
        initial_spot=p0,
        fills=FillTable(),
        event_ts=events.timestamps.copy(),
        event_spot=np.clip(prices, lo, hi),
        event_cum_fees_x=cum_fx,
        event_cum_fees_y=cum_fy,
        event_cum_fees_usd=cum_fees_usd,
        event_cum_lvr_usd=cum_lvr,
    )


# ----- window aggregation and fits ---------------------------------------------


def _log_return_vol(log_mids: np.ndarray, spacing_seconds: float) -> float:
    """Annualized two-pass sample sd (ddof=1) of the log returns of
    ``log_mids`` taken ``spacing_seconds`` apart; one return reads 0.  The
    one-pass S2 - S1**2/n cancels away the variance of a trending series."""
    r = np.diff(log_mids)
    return float(r.std(ddof=1)) * math.sqrt(YEAR_SECONDS / spacing_seconds) if r.size > 1 else 0.0


def rolling_windows(ledger: SimLedger, window_seconds: int, stride_seconds: int) -> list[WindowStat]:
    """Rolling per-window fees, LVR and historical volatility.

    Window sums are differences of the cumulative accumulators at the
    window edges, exactly what an LP present for that interval earns.
    hist_vol is the sample sd of the external mid's log returns over the
    window's ticks, annualized by their mean tick spacing (nan below two
    ticks).  fee_vol is left as nan; the implied-vol layer attaches it.
    """
    window_seconds = check_count(window_seconds, "window_seconds", 1)
    stride_seconds = check_count(stride_seconds, "stride_seconds", 1)
    ts = ledger.timestamps
    span = int(ts[-1] - ts[0])
    if span < window_seconds:
        raise InsufficientData(f"ledger spans {span}s, shorter than the {window_seconds}s window")

    t0 = int(ts[0])
    starts = np.arange(t0, int(ts[-1]) - window_seconds + 1, stride_seconds, dtype=np.int64)
    ends = starts + window_seconds

    fees = ledger.cum_fees_usd_at(ends) - ledger.cum_fees_usd_at(starts)
    lvr = ledger.cum_lvr_usd_at(ends) - ledger.cum_lvr_usd_at(starts)

    ia = np.searchsorted(ts, starts, side="left")
    ib = np.searchsorted(ts, ends, side="right") - 1
    spacing = (ts[ib] - ts[ia]) / np.maximum(ib - ia, 1)

    log_mids = np.log(ledger.mids)
    rows = (starts, ends, fees, lvr, ia, ib, spacing)
    return [
        WindowStat(start, end, fee, loss, _log_return_vol(log_mids[a : b + 1], dt) if b > a else math.nan)
        for start, end, fee, loss, a, b, dt in zip(*(col.tolist() for col in rows))
    ]


def historical_volatility(mids, sampling_interval_seconds: float) -> float:
    """Annualized sample sd (ddof=1) of log returns at a fixed sampling step,
    the estimator of :func:`rolling_windows`; a single return reads 0."""
    mids = np.asarray(mids, dtype=float)
    if mids.size < 2:
        raise InsufficientData("need at least 2 samples for a volatility estimate")
    sampling_interval_seconds = check_positive(sampling_interval_seconds, "sampling_interval_seconds")
    if not np.all((mids > 0.0) & np.isfinite(mids)):
        raise InvalidParams("prices must be positive and finite")
    return _log_return_vol(np.log(mids), sampling_interval_seconds)


def _unit_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(values / 2**e, e) with 2**e just above the largest magnitude.

    Dividing by a power of two is exact, so moments of the scaled series
    are those of the original times a power of two, and they cannot
    overflow.
    """
    e = math.frexp(float(np.max(np.abs(values))))[1]
    return np.ldexp(values, -e), e


def linear_fit(xs, ys, with_intercept: bool = False) -> tuple[float, float, float]:
    """(slope, intercept, pearson) of ys on xs.

    with_intercept=False fits least squares through the origin; the Pearson
    correlation is always that of the raw series.  Each series is scaled by
    a power of two to magnitudes at most 1 before its moments are taken, so
    finite series of any size fit; a slope or intercept beyond the float
    range raises DegenerateInput.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise DegenerateInput("series must be one-dimensional and of equal length")
    if xs.size < 2:
        raise DegenerateInput("need at least 2 points to fit")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise DegenerateInput("series must be finite")
    xs, ex = _unit_scaled(xs)
    ys, ey = _unit_scaled(ys)
    var_x = float(np.var(xs))
    if var_x == 0.0:
        raise DegenerateInput("xs has zero variance")
    if with_intercept:
        slope = float(np.cov(xs, ys, bias=True)[0, 1] / var_x)
        intercept = float(ys.mean() - slope * xs.mean())
    else:
        denom = float(np.dot(xs, xs))
        if denom == 0.0:
            raise DegenerateInput("xs is identically zero")
        slope = float(np.dot(xs, ys) / denom)
        intercept = 0.0
    try:
        slope = math.ldexp(slope, ey - ex)
        intercept = math.ldexp(intercept, ey)
    except OverflowError:
        raise DegenerateInput("the fitted line is beyond the float range") from None
    var_y = float(np.var(ys))
    if var_y == 0.0:
        pearson = math.nan
    else:
        pearson = float(np.corrcoef(xs, ys)[0, 1])
    return slope, intercept, pearson


# ----- synthetic fixtures -------------------------------------------------------


def synthetic_gbm_ticks(
    params: GbmParams,
    p0: float,
    spread: float,
    duration_seconds: int,
    interval_seconds: int,
    seed: int = 0,
    start_timestamp: int = 0,
) -> TickSeries:
    """Exact-discretization GBM mid path with a proportional spread.

    The mid is a single GBM with drift params.r and the effective pair
    volatility sigma_bar; bid = mid*(1 - spread/2), ask = mid*(1 + spread/2).
    Deterministic per seed (counter-based generator).  A path that
    overflows a double, or timestamps beyond int64, raise InvalidParams, as
    any invalid series does.
    """
    p0 = check_positive(p0, "p0")
    if not 0.0 <= spread < 1.0:
        raise InvalidParams("spread must lie in [0, 1)")
    duration_seconds = check_count(duration_seconds, "duration_seconds", 1)
    interval_seconds = check_count(interval_seconds, "interval_seconds", 1)
    check_seed(seed)

    n = duration_seconds // interval_seconds + 1
    int64 = np.iinfo(np.int64)
    if not int64.min <= start_timestamp <= start_timestamp + interval_seconds * (n - 1) <= int64.max:
        raise InvalidParams(f"the timestamps of a stream from {start_timestamp!r} do not fit int64")
    timestamps = start_timestamp + interval_seconds * np.arange(n, dtype=np.int64)
    dt = interval_seconds / YEAR_SECONDS
    sigma = math.sqrt(effective_variance(params))
    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.standard_normal(n - 1)
    steps = (params.r - 0.5 * sigma * sigma) * dt + sigma * math.sqrt(dt) * z
    with np.errstate(over="ignore"):  # validate() names the first overflowed row
        log_mid = math.log(p0) + np.concatenate([[0.0], np.cumsum(steps)])
        mids = np.exp(log_mid)
        series = TickSeries(timestamps, mids * (1.0 - 0.5 * spread), mids * (1.0 + 0.5 * spread))
    return series.validate()
