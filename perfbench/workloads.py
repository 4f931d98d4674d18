"""The four benchmark workloads: inputs, oracles, one pass, output checks.

Each workload builds its inputs and oracle values from the seed in
``setup`` (untimed), runs one pass of its job in ``run_pass`` (timed by
the harness, one ``Op`` per CLI invocation or library call) and checks a
pass's outputs in ``check`` against the oracles and against the warm-up
pass, recording failures on the ops that produced them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from decimal import Decimal
from statistics import median

import numpy as np

DAY = 86400
YEAR_SECONDS = 365.25 * DAY


class Op:
    """One operation of a pass: a CLI invocation or a library call."""

    __slots__ = ("kind", "seconds", "failures", "out", "err", "code", "info")

    def __init__(self, kind):
        self.kind = kind
        self.seconds = 0.0
        self.failures: list[str] = []
        self.out = self.err = ""
        self.code = None
        self.info: dict = {}

    def expect(self, condition, message):
        if not condition:
            self.failures.append(message)


def call_cli(am, tracer, request_id, argv) -> Op:
    """Run ``ammvol.cli.main(argv)`` in-process with stdout/stderr captured."""
    op = Op(argv[0])
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.request = request_id
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        op.code = am.cli.main(argv)
        op.seconds = time.perf_counter() - t0
    op.out, op.err = out.getvalue(), err.getvalue()
    return op


def _json_or_none(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


# ----- pipelines ---------------------------------------------------------------


class Pipeline:
    """``gen-ticks -> simulate --windows-out (fee vol on) -> analyze``.

    A 1-second GBM stream with sigma 0.5, a 5 bp pool fee and 2-hour windows
    with a 2-hour stride, replayed against one curve.
    """

    sigma = 0.5
    fee_bps = 5.0
    window_s = 2 * 3600

    def __init__(self, curve: dict, seed: int, smoke: bool, workdir):
        self.curve = curve
        self.seed = seed
        self.days = 0.25 if smoke else 1.0
        self.paths = 1024 if smoke else 16384
        self.ticks_path = str(workdir / "ticks.csv")
        self.windows_path = str(workdir / "windows.csv")
        self.curve_kind = curve["kind"]
        self.ref: dict | None = None

    def setup(self, am):
        duration = int(round(self.days * DAY))
        self.n_ticks = duration + 1
        series = am.simulation.synthetic_gbm_ticks(
            am.fees.GbmParams(sigma_x=self.sigma), 1.0, 0.0, duration, 1, self.seed
        )
        ledger = am.simulation.run_simulation(
            am.curves.curve_from_dict(self.curve), series, self.fee_bps / 1e4,
            am.simulation.SimConfig(initial_investment=100.0),
        )
        starts = np.arange(0, duration - self.window_s + 1, self.window_s, dtype=np.int64)
        ends = starts + self.window_s
        self.starts = starts
        self.fills = len(ledger.fills)
        self.total_fees = ledger.total_fees_usd
        self.fees = ledger.cum_fees_usd_at(ends) - ledger.cum_fees_usd_at(starts)
        log_mids = np.log(0.5 * (series.bids + series.asks))
        self.hist_vol = np.array([
            np.std(np.diff(log_mids[a:b + 1]), ddof=1) * math.sqrt(YEAR_SECONDS)
            for a, b in zip(starts, ends)
        ])
        self.specs = [
            am.solvers.SwapSpec(
                curve=ledger.curve, maturity=self.window_s / YEAR_SECONDS,
                p0x=float(ledger.spot_at(int(a))),
            )
            for a in starts
        ]
        self.mc = am.solvers.McConfig(self.paths, self.seed, True)
        window_days = repr(self.window_s / DAY)
        self.argv = [
            ["gen-ticks", "--out", self.ticks_path, "--sigma", repr(self.sigma),
             "--days", repr(self.days), "--seed", str(self.seed)],
            ["simulate", "--ticks", self.ticks_path, "--curve", json.dumps(self.curve),
             "--fee-bps", repr(self.fee_bps), "--window-days", window_days,
             "--stride-days", window_days, "--windows-out", self.windows_path,
             "--paths", str(self.paths), "--seed", str(self.seed)],
            ["analyze", "--windows", self.windows_path],
        ]

    def run_pass(self, am, tracer, pass_no):
        return [call_cli(am, tracer, f"{pass_no}.{i}", argv) for i, argv in enumerate(self.argv)]

    def check(self, am, ops):
        gen, sim, ana = ops
        n_windows = len(self.starts)
        with open(self.ticks_path, "rb") as fh:
            tick_bytes = fh.read()
        with open(self.windows_path, "rb") as fh:
            window_bytes = fh.read()
        outputs = {
            "stdout": [op.out for op in ops],
            "ticks_sha": hashlib.sha256(tick_bytes).hexdigest(),
            "windows": window_bytes,
        }

        for op in ops:
            op.expect(op.code == 0, f"{op.kind} exited {op.code}: {op.err.strip()[:200]}")
        summary = _json_or_none(gen.out) or {}
        gen.expect(summary.get("ticks") == self.n_ticks, f"gen-ticks reported {summary.get('ticks')} ticks")
        gen.expect(tick_bytes.count(b"\n") == self.n_ticks + 1, "tick CSV row count differs from the generator")

        summary = _json_or_none(sim.out) or {}
        sim.expect(summary.get("ticks") == self.n_ticks, f"simulate read {summary.get('ticks')} ticks")
        sim.expect(summary.get("fills") == self.fills, f"simulate made {summary.get('fills')} fills, library {self.fills}")
        sim.expect(summary.get("windows") == n_windows, f"simulate wrote {summary.get('windows')} windows")
        total = summary.get("total_fees_usd")
        sim.expect(
            isinstance(total, float) and math.isclose(total, self.total_fees, rel_tol=1e-9),
            "total fees differ from the library replay",
        )
        rows = window_bytes.decode().splitlines()[1:]
        sim.expect(len(rows) == n_windows, f"windows CSV has {len(rows)} rows, expected {n_windows}")
        if len(rows) == n_windows and not sim.failures:
            self._check_windows(am, sim, rows)

        report = _json_or_none(ana.out) or {}
        ana.expect(report.get("windows") == n_windows, f"analyze saw {report.get('windows')} windows")
        fit = report.get("fees_vs_lvr") or {}
        ana.expect(isinstance(fit.get("pearson"), float) and math.isfinite(fit["pearson"]),
                   "fees-vs-LVR fit is not finite")

        if self.ref is None:
            self.ref = outputs
        for op, out, ref in zip(ops, outputs["stdout"], self.ref["stdout"]):
            op.expect(out == ref, f"{op.kind} stdout differs from the first pass")
        gen.expect(outputs["ticks_sha"] == self.ref["ticks_sha"], "tick CSV differs from the first pass")
        sim.expect(outputs["windows"] == self.ref["windows"], "windows CSV differs from the first pass")

    def _check_windows(self, am, sim, rows):
        fee_vols = []
        for k, row in enumerate(rows):
            start, end, fees, _lvr, hist_vol, fee_vol = row.split(",")
            fees, hist_vol, fee_vol = float(fees), float(hist_vol), float(fee_vol)
            sim.expect(int(start) == self.starts[k] and int(end) == self.starts[k] + self.window_s,
                       f"window {k} spans [{start}, {end})")
            sim.expect(math.isclose(fees, self.fees[k], rel_tol=1e-9, abs_tol=1e-15),
                       f"window {k} fees {fees!r} differ from the library replay")
            sim.expect(math.isclose(hist_vol, self.hist_vol[k], rel_tol=1e-6),
                       f"window {k} hist_vol {hist_vol!r}, oracle {float(self.hist_vol[k])!r}")
            sim.expect(math.isfinite(fee_vol) and fee_vol > 0.0, f"window {k} fee_vol {fee_vol!r}")
            if not (math.isfinite(fee_vol) and fee_vol > 0.0):
                continue
            fee_vols.append(fee_vol)
            # round trip through the pricing kernel: the quoted fees must sit
            # between the floating leg just below and just above fee_vol
            delta = 2e-6 * max(1.0, fee_vol)
            below = am.solvers.floating_leg_value(self.specs[k], fee_vol - delta, self.mc)
            above = am.solvers.floating_leg_value(self.specs[k], fee_vol + delta, self.mc)
            sim.expect(below <= fees <= above,
                       f"window {k}: fee_vol {fee_vol!r} does not reprice fees {fees!r} "
                       f"(leg in [{below!r}, {above!r}])")
        in_band = float(np.mean(np.abs(np.array(fee_vols) - self.sigma) <= 0.1)) if fee_vols else 0.0
        sim.info["fee_vol_in_band"] = in_band
        if self.curve_kind == "cpmm":
            sim.expect(in_band >= 0.8, f"only {in_band:.2f} of windows have fee vol within 0.1 of sigma")

    def end_to_end(self, passes):
        walls = [p["wall"] for p in passes]
        out = {
            "gen_ticks_s": (median(_op_seconds(passes, "gen-ticks")), "s"),
            "simulate_s": (median(_op_seconds(passes, "simulate")), "s"),
            "analyze_s": (median(_op_seconds(passes, "analyze")), "s"),
            "pipeline_ticks_per_s": (self.n_ticks / median(walls), "ticks/s"),
        }
        in_band = [op.info["fee_vol_in_band"] for p in passes for op in p["ops"] if "fee_vol_in_band" in op.info]
        if in_band:
            out["fee_vol_in_band"] = (in_band[-1], "fraction")
        return out


# ----- quote requests ------------------------------------------------------------------


class QuoteRequests:
    """Closed loop, one client: a seeded list of CLI requests, replayed per pass."""

    curve = {"kind": "stableswap", "A": 100.0, "D": 2.0, "center": 1.0}
    maturity = 1.0
    vol_anchors = (0.25, 0.5, 0.75, 1.0)
    swap_anchors = (0.25, 0.5, 0.75, 1.0)
    corr_anchors = (-0.4, 0.4)
    sigma_x, sigma_y = 0.8, 0.5
    n_errors = 2

    def __init__(self, seed: int, smoke: bool, workdir):
        self.seed = seed
        self.paths = 1024 if smoke else 16384
        self.n_books = 2 if smoke else 4
        self.book_orders = 200 if smoke else 2000
        self.workdir = workdir
        self.ref: list | None = None

    def setup(self, am):
        rng = np.random.default_rng(self.seed)
        spec = am.solvers.SwapSpec(am.curves.curve_from_dict(self.curve), self.maturity, 1.0)
        mc = am.solvers.McConfig(self.paths, self.seed, True)
        base = {"curve": self.curve, "T": self.maturity, "p0x": 1.0, "paths": self.paths, "seed": self.seed}
        requests = []
        for anchor in self.vol_anchors:
            sigma = anchor * (1.0 + rng.uniform(-0.05, 0.05))
            quote = am.solvers.floating_leg_value(spec, sigma, mc)
            requests.append(("solve-vol", {**base, "piBar": quote}, {"sigma": sigma}))
        for anchor in self.corr_anchors:
            rho = anchor + rng.uniform(-0.05, 0.05)
            sigma_bar = math.sqrt(self.sigma_x**2 - 2 * rho * self.sigma_x * self.sigma_y + self.sigma_y**2)
            quote = am.solvers.floating_leg_value(spec, sigma_bar, mc)
            requests.append(("solve-corr", {**base, "piBar": quote, "sigmaX": self.sigma_x,
                                            "sigmaY": self.sigma_y}, {"rho": rho}))
        cap = spec.pool_value_now()
        for anchor in self.swap_anchors:
            sigma = anchor * (1.0 + rng.uniform(-0.05, 0.05))
            # the raw MC estimator is the oracle for any floating-leg kernel
            mean, stderr = am.solvers.mc_expected_pool_value(spec.curve, spec.q0, sigma, self.maturity, mc)
            requests.append(("price-swap", {**base, "sigma": sigma},
                             {"value": cap - mean, "stderr": stderr, "cap": cap}))
        for k in range(self.n_books):
            path, book, matched = self._write_book(rng, k)
            requests.append(("auction", path, {"book": book, "matched": matched}))
        for k in range(self.n_errors):
            pi_bar = cap if k == 0 else cap * (1.0 + rng.uniform(0.01, 0.5))
            requests.append(("solve-vol", {**base, "piBar": pi_bar}, {"error": "arbitrage_violation", "code": 3}))
        order = rng.permutation(len(requests))
        self.requests = [requests[i] for i in order]
        self.argv = [
            ["auction", "--orders", payload] if kind == "auction" else [kind, json.dumps(payload)]
            for kind, payload, _ in self.requests
        ]

    def _write_book(self, rng, k):
        """A crossed order book on a 1-cent grid with milli-unit quantities,
        plus its matched quantity from an integer supply/demand sweep."""
        n = self.book_orders
        is_bid = rng.random(n) < 0.5
        level = np.where(is_bid, rng.integers(5, 41, n), rng.integers(0, 36, n))  # price 0.80 + level/100
        milli = rng.integers(1, 1_000_000, n)
        at_level = np.zeros((2, 41), dtype=np.int64)
        np.add.at(at_level, (is_bid.astype(int), level), milli)
        supply = np.cumsum(at_level[0])  # offers with limit <= price
        demand = np.cumsum(at_level[1][::-1])[::-1]  # bids with limit >= price
        matched = int(np.max(np.minimum(supply, demand)))
        path = str(self.workdir / f"book{k}.csv")
        book = {}
        with open(path, "w") as fh:
            fh.write("order_id,side,limit_price,quantity,timestamp\n")
            for i in range(n):
                oid = f"o{i}"
                qty = Decimal(int(milli[i])).scaleb(-3)
                book[oid] = ("bid" if is_bid[i] else "offer", qty)
                fh.write(f"{oid},{book[oid][0]},{Decimal(80 + int(level[i])).scaleb(-2)},{qty},{i}\n")
        return path, book, Decimal(matched).scaleb(-3)

    def run_pass(self, am, tracer, pass_no):
        ops = []
        for i, (argv, (_kind, _payload, oracle)) in enumerate(zip(self.argv, self.requests)):
            op = call_cli(am, tracer, f"{pass_no}.{i}", argv)
            if "error" in oracle:
                op.kind = "error"
            ops.append(op)
        return ops

    def check(self, am, ops):
        for op, (kind, _payload, oracle) in zip(ops, self.requests):
            if "error" in oracle:
                err = _json_or_none(op.err) or {}
                op.expect(op.code == oracle["code"], f"error request exited {op.code}, expected {oracle['code']}")
                op.expect(err.get("error") == oracle["error"], f"error key {err.get('error')!r}")
                op.expect(op.out == "", "error request wrote to stdout")
                continue
            op.expect(op.code == 0, f"{kind} exited {op.code}: {op.err.strip()[:200]}")
            result = _json_or_none(op.out)
            if op.code != 0 or result is None:
                op.expect(result is not None, f"{kind} printed no JSON")
                continue
            if kind == "solve-vol":
                sigma = oracle["sigma"]
                got = result.get("sigma", math.nan)
                op.expect(abs(got - sigma) <= 2e-6 * max(1.0, sigma), f"solve-vol {got!r}, true {sigma!r}")
            elif kind == "solve-corr":
                got = result.get("rho", math.nan)
                op.expect(abs(got - oracle["rho"]) <= 1e-5, f"solve-corr {got!r}, true {oracle['rho']!r}")
            elif kind == "price-swap":
                got = result.get("value", math.nan)
                tol = 3.0 * oracle["stderr"] + 1e-12 * oracle["cap"]
                op.expect(abs(got - oracle["value"]) <= tol, f"price-swap {got!r}, oracle {oracle['value']!r}")
            else:
                self._check_auction(op, result, oracle)
        if self.ref is None:
            self.ref = [(op.out, op.err) for op in ops]
        for op, ref in zip(ops, self.ref):
            op.expect((op.out, op.err) == ref, f"{op.kind} output differs from the first pass")

    @staticmethod
    def _check_auction(op, result, oracle):
        matched = Decimal(result["matched_quantity"])
        op.expect(matched == oracle["matched"], f"auction matched {matched}, sweep {oracle['matched']}")
        book = oracle["book"]
        filled = {"bid": Decimal(0), "offer": Decimal(0)}
        for oid, qty in result["allocations"].items():
            side, size = book[oid]
            qty = Decimal(qty)
            op.expect(Decimal(0) < qty <= size, f"order {oid} allocated {qty} of {size}")
            filled[side] += qty
        op.expect(filled["bid"] == filled["offer"] == matched,
                  f"allocations not conserved: bids {filled['bid']}, offers {filled['offer']}")
        residual = {o["order_id"]: Decimal(o["quantity"]) for o in result["unmatched"]}
        for oid, (_side, size) in book.items():
            got = Decimal(result["allocations"].get(oid, "0")) + residual.get(oid, Decimal(0))
            if got != size:
                op.expect(False, f"order {oid}: filled plus residual {got} != {size}")
                break

    def end_to_end(self, passes):
        walls = [p["wall"] for p in passes]
        out = {"requests_per_s": (len(self.requests) / median(walls), "req/s")}
        for kind in ("solve-vol", "solve-corr", "price-swap", "auction"):
            out[f"{kind.replace('-', '_')}_p50_ms"] = (1e3 * median(_op_seconds(passes, kind)), "ms")
        samples = sorted(_op_seconds(passes, "solve-vol"))
        beyond = 10
        if len(samples) > beyond:
            rank = len(samples) - beyond
            out["solve_vol_tail_ms"] = (1e3 * samples[rank - 1], "ms")
            out["solve_vol_tail_percentile"] = (100.0 * rank / len(samples), "%")
            out["solve_vol_samples"] = (len(samples), "count")
        return out


# ----- martingale Monte Carlo ---------------------------------------------------------


class Martingale:
    """``fees.mc_fee_plus_terminal_value`` on the three curves, with the
    parameters and MC seed of the martingale acceptance test.

    The MC seed stays the acceptance test's: the check is a 3-stderr
    hypothesis test, so drawing the MC seed from the benchmark seed would
    report a failure of correct code in roughly one curve run in 370.  The
    benchmark seed orders the curves within a pass.
    """

    maturity = 0.25
    mc_seed = 2024

    def __init__(self, seed: int, smoke: bool, workdir):
        self.seed = seed
        self.n_paths = 64 if smoke else 10_000
        self.n_steps = 200 if smoke else 2000
        self.ref: list | None = None

    def setup(self, am):
        c = am.curves
        curves = [c.Cpmm(1.0), c.ConcentratedCpmm(1.0, 0.5, 2.0), c.StableSwap(100.0, 2.0, 1.0)]
        order = np.random.default_rng(self.seed).permutation(len(curves))
        self.curves = [curves[i] for i in order]
        self.targets = [c.dollar_pool_value(curve, 1.0, 1.0) for curve in self.curves]
        self.params = am.fees.GbmParams(sigma_x=0.8, sigma_y=0.3, rho=0.5, r=0.03)

    def run_pass(self, am, tracer, pass_no):
        ops = []
        for i, curve in enumerate(self.curves):
            op = Op(curve.kind)
            if tracer is not None:
                tracer.request = f"{pass_no}.{i}"
            t0 = time.perf_counter()
            try:
                op.info["result"] = am.fees.mc_fee_plus_terminal_value(
                    curve, self.params, 1.0, 1.0, self.maturity,
                    n_paths=self.n_paths, n_steps=self.n_steps, seed=self.mc_seed,
                )
                op.code = 0
            except Exception as exc:  # reported as a failed operation
                op.failures.append(f"{type(exc).__name__}: {exc}")
            op.seconds = time.perf_counter() - t0
            ops.append(op)
        return ops

    def check(self, am, ops):
        for op, target in zip(ops, self.targets):
            if "result" not in op.info:
                continue
            mean, stderr = op.info["result"]
            op.info["z"] = (mean - target) / stderr if stderr > 0 else math.inf
            op.expect(abs(mean - target) <= 3.0 * stderr,
                      f"{op.kind}: mean {mean!r} is {op.info['z']:+.2f} stderr from {target!r}")
        results = [op.info.get("result") for op in ops]
        if self.ref is None:
            self.ref = results
        for op, got, ref in zip(ops, results, self.ref):
            op.expect(got == ref, f"{op.kind} result differs from the first pass")

    def end_to_end(self, passes):
        walls = [p["wall"] for p in passes]
        out = {"path_steps_per_s": (3 * self.n_paths * self.n_steps / median(walls), "path*steps/s")}
        for curve in self.curves:
            out[f"mc_s.{curve.kind}"] = (median(_op_seconds(passes, curve.kind)), "s")
        return out


def _op_seconds(passes, kind):
    return [op.seconds for p in passes for op in p["ops"] if op.kind == kind]


def make(name: str, seed: int, smoke: bool, workdir):
    if name == "pipeline_cpmm":
        return Pipeline({"kind": "cpmm", "L": 1.0}, seed, smoke, workdir)
    if name == "pipeline_stableswap":
        return Pipeline({"kind": "stableswap", "A": 100.0, "D": 2.0, "center": 1.0}, seed, smoke, workdir)
    if name == "quote_requests":
        return QuoteRequests(seed, smoke, workdir)
    if name == "martingale_mc":
        return Martingale(seed, smoke, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pipeline_cpmm", "pipeline_stableswap", "quote_requests", "martingale_mc")
