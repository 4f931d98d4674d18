"""Spans and counts recorded from outside the package.

The tracer wraps public functions of the ammvol modules and the public
methods of the three curve classes by rebinding them, records one span per
call (name, start, end, parent span, request id, plus a few counts taken
from arguments and results) in memory, and restores the originals on
``uninstall``.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import json
import os
import sys
import time

# public functions that ammvol.cli, the workloads and those functions call
FUNCTIONS = {
    "dataio": (
        "read_ticks", "write_ticks", "read_windows", "write_windows", "write_ledger",
        "read_orders", "read_curve", "clearing_result_to_dict",
    ),
    "simulation": ("synthetic_gbm_ticks", "run_simulation", "rolling_windows", "linear_fit"),
    "solvers": (
        "attach_fee_vols", "fee_vol_from_realized", "implied_vol", "implied_corr",
        "implied_corr_bounds", "mc_floating_leg", "floating_leg_value",
        "mc_expected_pool_value", "lognormal_kernel_expectation",
        "implied_vol_cpmm_closed_form",
    ),
    "auction": ("clear_batch",),
    "fees": ("mc_fee_plus_terminal_value", "effective_variance"),
    "curves": ("curve_from_dict", "dollar_pool_value"),
}
CURVE_CLASSES = ("Cpmm", "ConcentratedCpmm", "StableSwap")
CURVE_METHODS = (
    "holdings", "holdings_near", "first_derivs", "second_derivs", "pool_value",
    "holdings_grid", "pool_value_grid", "pool_value_grid_warm", "xprime_grid",
    "scaled_to_value",
)
GRID_METHODS = ("holdings_grid", "pool_value_grid", "pool_value_grid_warm", "xprime_grid")


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _len_arg(index):
    return lambda args, kwargs, result: {"n": len(args[index])}


def _grid_points(args, kwargs, result):
    return {"n": int(getattr(args[1], "size", 1))}


# counts attached to spans: (args, kwargs, result) -> dict
NOTES = {
    "dataio.read_ticks": _file_bytes,
    "dataio.write_ticks": _file_bytes,
    "simulation.run_simulation": lambda a, k, r: {"ticks": len(a[1]), "fills": len(r.fills)},
    "solvers.attach_fee_vols": _len_arg(1),
    "solvers.implied_vol": lambda a, k, r: {"iterations": r.iterations},
    "auction.clear_batch": lambda a, k, r: {"n": len(a[0])},
    "fees.mc_fee_plus_terminal_value": lambda a, k, r: {"curve": a[0].kind},
}


class Tracer:
    """In-memory span recorder; single-threaded by design."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request = None
        self._undo: list = []

    def _wrap(self, name, fn, note=None):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            span_name = name(args) if callable(name) else name
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [span_name, start, end, parent, self.request, None]
            if note is not None:
                spans[idx][5] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, cli_main_owner) -> None:
        """Rebind every traced function in every loaded ammvol module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ammvol" or n.startswith("ammvol.")]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"ammvol.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original, NOTES.get(f"{layer}.{fname}"))
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._rebind(module, fname, wrapped)
        curves = sys.modules["ammvol.curves"]
        for cls_name in CURVE_CLASSES:
            cls = getattr(curves, cls_name)
            for method in CURVE_METHODS:
                original = getattr(cls, method)
                note = _grid_points if method in GRID_METHODS else None
                self._rebind(cls, method, self._wrap(f"curves.{method}", original, note))
        original_main = cli_main_owner.main
        self._rebind(
            cli_main_owner, "main",
            self._wrap(lambda args: f"cli.{args[0][0]}", original_main),
        )

    def _rebind(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old, had = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def write_jsonl(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "request", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans, first: int, last: int) -> dict:
    """Per-name totals over spans[first:last] (one traced pass).

    Returns {name: {"calls", "s", "self_s", "outer_calls", "outer_s",
    "counts": {...}}} where ``outer_*`` counts only spans whose parent has a
    different name (so recursion and self-delegation are not double counted)
    and self time is a span's duration minus its direct children's.
    """
    child_ns = {}
    for span in spans[first:last]:
        parent = span[3]
        if parent >= first:
            child_ns[parent] = child_ns.get(parent, 0) + (span[2] - span[1])
    out: dict = {}
    for idx in range(first, last):
        name, start, end, parent, _request, counts = spans[idx]
        dur = end - start
        agg = out.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "outer_calls": 0, "outer_s": 0.0, "counts": {}}
        )
        agg["calls"] += 1
        agg["s"] += dur * 1e-9
        agg["self_s"] += (dur - child_ns.get(idx, 0)) * 1e-9
        parent_name = spans[parent][0] if parent >= first else None
        if parent_name != name:
            agg["outer_calls"] += 1
            agg["outer_s"] += dur * 1e-9
        if counts:
            for key, value in counts.items():
                if isinstance(value, (int, float)):
                    agg["counts"][key] = agg["counts"].get(key, 0) + value
                else:
                    agg["counts"].setdefault(key, []).append((value, dur * 1e-9))
    return out


def grid_outer(spans, first: int, last: int) -> tuple[int, int, float]:
    """(calls, points, seconds) of curve grid calls not nested in another grid call."""
    grid_names = {f"curves.{m}" for m in GRID_METHODS}
    calls = points = 0
    seconds = 0.0
    for idx in range(first, last):
        name, start, end, parent, _request, counts = spans[idx]
        if name not in grid_names:
            continue
        if parent >= first and spans[parent][0] in grid_names:
            continue
        calls += 1
        points += counts["n"] if counts else 0
        seconds += (end - start) * 1e-9
    return calls, points, seconds


def evals_under(spans, first: int, last: int, ancestor: str) -> int:
    """Outer grid evaluations that have a span named ``ancestor`` above them."""
    grid_names = {f"curves.{m}" for m in GRID_METHODS}
    n = 0
    for idx in range(first, last):
        name, _s, _e, parent, _r, _c = spans[idx]
        if name not in grid_names or (parent >= first and spans[parent][0] in grid_names):
            continue
        while parent >= first:
            if spans[parent][0] == ancestor:
                n += 1
                break
            parent = spans[parent][3]
    return n


COMMANDS = ("gen-ticks", "simulate", "analyze", "solve-vol", "solve-corr", "price-swap", "auction")
CURVE_KINDS = ("cpmm", "concentrated", "stableswap")


def layer_seconds(spans, first: int, last: int) -> tuple[dict, dict]:
    """Seconds per layer and counts for one traced pass.

    Returns (seconds, counts): seconds are named ``<module>.<function>_s``
    (time in the outermost calls of that function), ``*_self_s`` (minus
    child spans), ``cli.command_s.<command>`` and ``cli.self_s.<command>``
    (the whole ``ammvol.cli.main`` call, and that minus every traced call
    below it), and ``fees.mc_s.<curve>``.
    """
    agg = summarize(spans, first, last)

    def total(name, key="outer_s"):
        return agg[name][key] if name in agg else 0.0

    def counted(name, key):
        return agg[name]["counts"].get(key, 0) if name in agg else 0

    seconds = {}
    for name in (
        "dataio.write_ticks", "dataio.read_ticks", "dataio.write_windows", "dataio.read_windows",
        "dataio.read_orders", "simulation.synthetic_gbm_ticks", "simulation.run_simulation",
        "simulation.rolling_windows", "curves.holdings_near", "solvers.attach_fee_vols",
        "solvers.implied_vol", "solvers.mc_floating_leg", "auction.clear_batch",
    ):
        seconds[f"{name}_s"] = total(name)
    seconds["solvers.attach_fee_vols_self_s"] = total("solvers.attach_fee_vols", "self_s")
    grid_calls, grid_points, seconds["curves.grid_s"] = grid_outer(spans, first, last)
    for command in COMMANDS:
        seconds[f"cli.command_s.{command}"] = total(f"cli.{command}")
        seconds[f"cli.self_s.{command}"] = total(f"cli.{command}", "self_s")
    per_curve = dict.fromkeys(CURVE_KINDS, 0.0)
    for kind, dur in counted("fees.mc_fee_plus_terminal_value", "curve") or ():
        per_curve[kind] += dur
    for kind, dur in per_curve.items():
        seconds[f"fees.mc_s.{kind}"] = dur

    ticks = counted("simulation.run_simulation", "ticks")
    fills = counted("simulation.run_simulation", "fills")
    solves = agg["solvers.implied_vol"]["outer_calls"] if "solvers.implied_vol" in agg else 0
    orders = counted("auction.clear_batch", "n")
    reads = agg["dataio.read_ticks"]["calls"] if "dataio.read_ticks" in agg else 0

    def rate(amount, secs):
        return amount / secs if secs > 0 else 0.0

    counts = {
        "dataio.write_ticks_mb_per_s": rate(counted("dataio.write_ticks", "bytes") / 1e6, seconds["dataio.write_ticks_s"]),
        "dataio.read_ticks_mb_per_s": rate(counted("dataio.read_ticks", "bytes") / 1e6, seconds["dataio.read_ticks_s"]),
        "dataio.tick_csv_bytes": counted("dataio.read_ticks", "bytes") / reads if reads else 0,
        "simulation.ticks": ticks,
        "simulation.fills": fills,
        "simulation.fill_ratio": fills / ticks if ticks else 0.0,
        "solvers.windows": counted("solvers.attach_fee_vols", "n"),
        "curves.holdings_near_calls": agg["curves.holdings_near"]["outer_calls"] if "curves.holdings_near" in agg else 0,
        "curves.grid_calls": grid_calls,
        "curves.grid_points": grid_points,
        "solvers.implied_vol_iterations": counted("solvers.implied_vol", "iterations"),
        "solvers.curve_evals_per_solve": evals_under(spans, first, last, "solvers.implied_vol") / solves if solves else 0.0,
        "auction.orders": orders,
        "auction.orders_per_s": rate(orders, seconds["auction.clear_batch_s"]),
    }
    return seconds, counts


def share_name(seconds_name: str) -> str:
    """``dataio.read_ticks_s`` -> ``dataio.read_ticks_share``, component-wise."""
    return ".".join(part[:-2] + "_share" if part.endswith("_s") else part for part in seconds_name.split("."))
