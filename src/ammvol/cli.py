"""Command-line front end.

Subcommands: gen-ticks, simulate, analyze, solve-vol, solve-corr,
price-swap, auction.  Results go to stdout as strict JSON (sorted keys, so
re-runs are byte-identical; a missing or undefined number is null, never
NaN); every error path writes one line of
{"error": code, "detail": message} to stderr and exits nonzero:

    2  parse/validation problems (bad flags, malformed files, bad params)
    3  arbitrage violation (fixed leg at or above the pool value)
    4  quote outside the correlation-implied interval
    5  not enough data for the requested statistic
    6  iterative solver failed to converge
    1  anything else
"""

from __future__ import annotations

import json
import math
import sys

import click

from .auction import clear_batch
from .curves import curve_from_dict
from .dataio import (
    clearing_result_to_dict,
    read_curve,
    read_json,
    read_orders,
    read_ticks,
    read_windows,
    write_ledger,
    write_ticks,
    write_windows,
)
from .errors import (
    AmmVolError,
    ArbitrageViolation,
    DegenerateInput,
    InsufficientData,
    NoConvergence,
    OutOfBounds,
    ParseError,
)
from .fees import GbmParams, effective_variance
from .simulation import SimConfig, linear_fit, rolling_windows, run_simulation, synthetic_gbm_ticks
from .solvers import McConfig, SwapSpec, attach_fee_vols, implied_corr, implied_vol, mc_floating_leg

DAY_SECONDS = 86400


def _echo_json(payload: dict, out: str | None = None) -> None:
    """Print payload as strict JSON, and also write it to the file ``out``."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)


def _seconds(days: float, option: str) -> int:
    """Whole seconds in a day count given on the command line."""
    seconds = days * DAY_SECONDS
    if not math.isfinite(seconds):
        raise ParseError(f"{option} must be a finite number of days, got {days!r}")
    return int(round(seconds))


def _or_null(value: float) -> float | None:
    return value if math.isfinite(value) else None


@click.group()
def cli():
    """Model AMM fee streams, solve implied volatility, clear fee swaps."""


# ----- fixtures ------------------------------------------------------------


@cli.command("gen-ticks")
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="tick CSV to write")
@click.option("--p0", default=1.0, show_default=True, help="initial mid price")
@click.option("--sigma", default=0.5, show_default=True, help="volatility of asset x")
@click.option("--sigma-y", default=0.0, show_default=True, help="volatility of asset y")
@click.option("--rho", default=0.0, show_default=True, help="correlation between the assets")
@click.option("--rate", default=0.0, show_default=True, help="risk-free drift")
@click.option("--spread", default=0.0, show_default=True, help="proportional bid/ask spread")
@click.option("--days", default=30.0, show_default=True, help="stream length in days")
@click.option("--interval", default=1, show_default=True, help="seconds between ticks")
@click.option("--seed", default=0, show_default=True)
@click.option("--start-ts", default=0, show_default=True, help="epoch second of the first tick")
def cmd_gen_ticks(out, p0, sigma, sigma_y, rho, rate, spread, days, interval, seed, start_ts):
    """Write a synthetic GBM tick stream."""
    params = GbmParams(sigma_x=sigma, sigma_y=sigma_y, rho=rho, r=rate)
    series = synthetic_gbm_ticks(
        params, p0, spread, _seconds(days, "--days"), interval, seed, start_ts
    )
    write_ticks(out, series)
    _echo_json({"out": out, "ticks": len(series), "seed": seed})


# ----- simulation ------------------------------------------------------------


@cli.command("simulate")
@click.option("--ticks", "ticks_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--curve", "curve_src", required=True, help="curve JSON (inline or file path)")
@click.option("--fee-bps", default=30.0, show_default=True, help="pool fee in basis points")
@click.option("--ledger-out", default=None, type=click.Path(dir_okay=False))
@click.option("--windows-out", default=None, type=click.Path(dir_okay=False))
@click.option("--window-days", default=30.0, show_default=True, help="rolling window length")
@click.option("--stride-days", default=None, type=float, help="window stride [default: window/4]")
@click.option("--investment", default=100.0, show_default=True, help="initial pool value in dollars")
@click.option("--no-scale", is_flag=True, help="keep the curve as given instead of rescaling")
@click.option("--lvr-mode", type=click.Choice(["trade_side", "pool_spot"]), default="trade_side",
              show_default=True)
@click.option("--fee-vol/--no-fee-vol", "with_fee_vol", default=True, show_default=True,
              help="attach per-window implied fee volatility")
@click.option("--paths", default=16384, show_default=True,
              help="ignored: fee volatility no longer uses Monte Carlo; kept so "
                   "existing command lines parse")
@click.option("--seed", default=0, show_default=True, help="ignored, like --paths")
@click.option("--allow-crossed", is_flag=True, help="accept crossed bid/ask rows")
def cmd_simulate(ticks_path, curve_src, fee_bps, ledger_out, windows_out, window_days,
                 stride_days, investment, no_scale, lvr_mode, with_fee_vol, paths, seed,
                 allow_crossed):
    """Replay a tick stream against a pool and write ledger/window CSVs."""
    if windows_out:
        window_seconds = _seconds(window_days, "--window-days")
        stride_seconds = _seconds(window_days / 4.0 if stride_days is None else stride_days, "--stride-days")
    series = read_ticks(ticks_path, allow_crossed=allow_crossed)
    curve = read_curve(curve_src)
    config = SimConfig(
        initial_investment=None if no_scale else investment, lvr_mode=lvr_mode
    )
    ledger = run_simulation(curve, series, fee_bps / 1e4, config)
    summary = {
        "ticks": len(series),
        "fills": len(ledger.fills),
        "total_fees_usd": ledger.total_fees_usd,
        "total_lvr_usd": ledger.total_lvr_usd,
        "final_spot": float(ledger.spot_at(int(series.timestamps[-1]))),
    }
    if ledger_out:
        write_ledger(ledger_out, ledger)
        summary["ledger_out"] = ledger_out
    if windows_out:
        stats = rolling_windows(ledger, window_seconds, stride_seconds)
        if with_fee_vol:
            stats = attach_fee_vols(ledger, stats)
        write_windows(windows_out, stats)
        summary["windows"] = len(stats)
        summary["windows_out"] = windows_out
    _echo_json(summary)


# ----- analysis ---------------------------------------------------------------


def _fit_report(xs, ys) -> dict:
    slope_origin, _, pearson = linear_fit(xs, ys, with_intercept=False)
    slope, intercept, _ = linear_fit(xs, ys, with_intercept=True)
    return {
        "pearson": _or_null(pearson),
        "slope_origin": slope_origin,
        "slope": slope,
        "intercept": intercept,
    }


@cli.command("analyze")
@click.option("--windows", "windows_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", default=None, type=click.Path(dir_okay=False), help="also write the report here")
def cmd_analyze(windows_path, out):
    """Regress window LVR on fees and fee volatility on historical volatility."""
    stats = read_windows(windows_path)
    if len(stats) < 2:
        raise InsufficientData(f"need at least 2 windows to analyze, got {len(stats)}")
    fees = [w.fees for w in stats]
    lvr = [w.lvr for w in stats]
    report = {
        "windows": len(stats),
        "fees_vs_lvr": _fit_report(fees, lvr),
        "series": {
            "start": [w.window_start for w in stats],
            "fees": fees,
            "lvr": lvr,
            "hist_vol": [_or_null(w.hist_vol) for w in stats],
            "fee_vol": [_or_null(w.fee_vol) for w in stats],
        },
    }
    pairs = [
        (w.hist_vol, w.fee_vol)
        for w in stats
        if w.hist_vol == w.hist_vol and w.fee_vol == w.fee_vol
    ]
    # secondary regression is best-effort: too few finite pairs or a flat
    # vol column reports null rather than failing the primary fit
    try:
        report["fee_vol_vs_hist_vol"] = _fit_report([p[0] for p in pairs], [p[1] for p in pairs])
    except DegenerateInput:
        report["fee_vol_vs_hist_vol"] = None
    _echo_json(report, out)


# ----- solvers ------------------------------------------------------------------


def _load_request(source: str) -> dict:
    request = read_json(source, "request", "request")
    if not isinstance(request, dict):
        raise ParseError("request must be a JSON object")
    return request


def _require(request: dict, *keys):
    for key in keys:
        if key not in request:
            raise ParseError(f"request is missing key {key!r}")


def _field(request: dict, key: str, kind: type, default=None):
    """request[key], or ``default`` when the key is absent, as ``kind``.

    A float field must hold a JSON number, an int field an integral one and
    a bool field true or false; any other value is a ParseError, never a
    silent conversion (``bool("false")`` is True).
    """
    value = request.get(key, default)
    try:
        if kind is bool:
            valid = isinstance(value, bool)
        else:
            valid = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
            valid = valid and (kind is float or float(value).is_integer())
    except OverflowError:  # an integer beyond the float range
        valid = False
    if not valid:
        expected = {bool: "true or false", int: "an integer", float: "a finite number"}[kind]
        raise ParseError(f"request key {key!r} must be {expected}, got {value!r}")
    return kind(value)


def _spec_from_request(request: dict) -> SwapSpec:
    _require(request, "curve", "T", "p0x")
    return SwapSpec(
        curve=curve_from_dict(request["curve"]),
        maturity=_field(request, "T", float),
        p0x=_field(request, "p0x", float),
        p0y=_field(request, "p0y", float, 1.0),
        r=_field(request, "r", float, 0.0),
        liquidity_tokens=_field(request, "liquidityTokens", float, 1.0),
    )


def _mc_from_request(request: dict) -> McConfig:
    return McConfig(
        n_paths=_field(request, "paths", int, 100_000),
        seed=_field(request, "seed", int, 0),
        antithetic=_field(request, "antithetic", bool, True),
    )


_REQUEST_ARG = click.argument("request_src", metavar="REQUEST")


@cli.command("solve-vol")
@_REQUEST_ARG
def cmd_solve_vol(request_src):
    """Implied volatility from a fixed-leg quote (JSON request file or inline)."""
    request = _load_request(request_src)
    _require(request, "piBar")
    spec = _spec_from_request(request)
    solution = implied_vol(
        spec, _field(request, "piBar", float), _mc_from_request(request),
        tol=_field(request, "tol", float, 1e-6),
    )
    _echo_json(
        {
            "sigma": solution.sigma,
            "stderr": _or_null(solution.stderr),
            "iterations": solution.iterations,
            "request": request,
        }
    )


@cli.command("solve-corr")
@_REQUEST_ARG
def cmd_solve_corr(request_src):
    """Implied correlation from a fixed-leg quote and two component vols."""
    request = _load_request(request_src)
    _require(request, "piBar", "sigmaX", "sigmaY")
    spec = _spec_from_request(request)
    solution = implied_corr(
        spec,
        _field(request, "sigmaX", float),
        _field(request, "sigmaY", float),
        _field(request, "piBar", float),
        _mc_from_request(request),
        tol=_field(request, "tol", float, 1e-6),
    )
    _echo_json(
        {
            "rho": solution.rho,
            "sigmaBar": solution.sigma_bar,
            "stderr": _or_null(solution.stderr),
            "iterations": solution.iterations,
            "request": request,
        }
    )


@cli.command("price-swap")
@_REQUEST_ARG
def cmd_price_swap(request_src):
    """Monte Carlo floating-leg value and stderr at a volatility (or sigmaX/sigmaY/rho)."""
    request = _load_request(request_src)
    spec = _spec_from_request(request)
    if "sigma" in request:
        sigma = _field(request, "sigma", float)
    else:
        _require(request, "sigmaX", "sigmaY", "rho")
        sigma = effective_variance(
            GbmParams(
                sigma_x=_field(request, "sigmaX", float),
                sigma_y=_field(request, "sigmaY", float),
                rho=_field(request, "rho", float),
            )
        ) ** 0.5
    value, stderr = mc_floating_leg(spec, sigma, _mc_from_request(request))
    _echo_json({"value": value, "stderr": stderr, "sigma": sigma, "request": request})


# ----- auction -------------------------------------------------------------------


@cli.command("auction")
@click.option("--orders", "orders_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", default=None, type=click.Path(dir_okay=False), help="also write the result here")
def cmd_auction(orders_path, out):
    """Clear one batch of swap orders at a uniform price."""
    result = clear_batch(read_orders(orders_path))
    _echo_json(clearing_result_to_dict(result), out)


# ----- entry point -----------------------------------------------------------------


def _emit_error(code: str, detail: str) -> None:
    print(json.dumps({"error": code, "detail": detail}), file=sys.stderr)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, prog_name="ammvol", standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        _emit_error("aborted", "interrupted")
        return 1
    except click.ClickException as exc:
        _emit_error("usage_error", exc.format_message())
        return 2
    except ParseError as exc:
        _emit_error("parse_error", str(exc))
        return 2
    except ArbitrageViolation as exc:
        _emit_error("arbitrage_violation", str(exc))
        return 3
    except OutOfBounds as exc:
        _emit_error("out_of_bounds", str(exc))
        return 4
    except (InsufficientData, DegenerateInput) as exc:
        _emit_error("insufficient_data", str(exc))
        return 5
    except NoConvergence as exc:
        _emit_error("no_convergence", str(exc))
        return 6
    except AmmVolError as exc:
        _emit_error("invalid_input", str(exc))
        return 2
    except Exception as exc:  # pragma: no cover - last-resort guard
        _emit_error("internal_error", f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
