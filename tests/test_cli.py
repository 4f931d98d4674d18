"""End-to-end CLI tests: every subcommand, exit codes, and error JSON.

Commands run in-process through main(argv) so exit codes and the stderr
error objects can be asserted directly.
"""

import contextlib
import io
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammvol import StableSwap
from ammvol.cli import main

CPMM_CURVE = '{"kind": "cpmm", "L": 1.0}'


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


def error_of(capsys, *args):
    code, out, err = run(capsys, *args)
    assert out == ""
    return code, json.loads(err)


# ----- gen-ticks ------------------------------------------------------------------


def test_gen_ticks_writes_and_reruns_identically(tmp_path, capsys):
    path = tmp_path / "ticks.csv"
    args = ["gen-ticks", "--out", str(path), "--days", "0.01", "--interval", "5", "--seed", "3"]
    summary = run_json(capsys, *args)
    assert summary["ticks"] == int(0.01 * 86400) // 5 + 1
    first = path.read_bytes()
    run_json(capsys, *args)
    assert path.read_bytes() == first


def test_gen_ticks_zero_vol_pure_drift(tmp_path, capsys):
    path = tmp_path / "ticks.csv"
    run_json(
        capsys,
        "gen-ticks", "--out", str(path), "--sigma", "0", "--rate", "0.05",
        "--days", "0.001", "--interval", "10", "--p0", "2.0",
    )
    rows = path.read_text().splitlines()[1:]
    year = 365.25 * 86400.0
    for row in rows:
        t, bid, ask = row.split(",")
        want = 2.0 * math.exp(0.05 * int(t) / year)
        assert float(bid) == pytest.approx(want, rel=1e-12)
        assert float(bid) == float(ask)


# ----- simulate --------------------------------------------------------------------


def test_simulate_flat_stream_is_all_zeros(tmp_path, capsys):
    ticks = tmp_path / "t.csv"
    ticks.write_text(
        "timestamp,bid,ask\n0,1.0,1.0\n1,1.0,1.0\n2,1.0,1.0\n"
    )
    ledger_path = tmp_path / "ledger.csv"
    summary = run_json(
        capsys,
        "simulate", "--ticks", str(ticks), "--curve", CPMM_CURVE,
        "--ledger-out", str(ledger_path),
    )
    assert summary["fills"] == 0
    assert summary["total_fees_usd"] == 0.0
    assert summary["total_lvr_usd"] == 0.0
    assert summary["final_spot"] == 1.0
    rows = ledger_path.read_text().splitlines()
    assert len(rows) == 4
    for row in rows[1:]:
        _, spot, fees, lvr = row.split(",")
        assert float(spot) == 1.0 and float(fees) == 0.0 and float(lvr) == 0.0


def test_simulate_windows_row_count_and_determinism(tmp_path, capsys):
    ticks = tmp_path / "t.csv"
    run_json(
        capsys,
        "gen-ticks", "--out", str(ticks), "--days", "2", "--interval", "60", "--seed", "11",
    )
    windows = tmp_path / "w.csv"
    args = [
        "simulate", "--ticks", str(ticks), "--curve", CPMM_CURVE,
        "--windows-out", str(windows), "--window-days", "1", "--stride-days", "0.25",
    ]
    summary = run_json(capsys, *args)
    # (span - window) / stride + 1 rolling rows
    assert summary["windows"] == 5
    assert summary["fills"] > 0
    first = windows.read_bytes()
    run_json(capsys, *args)
    assert windows.read_bytes() == first


def test_simulate_malformed_ticks_exit_code(tmp_path, capsys):
    ticks = tmp_path / "bad.csv"
    ticks.write_text("timestamp,bid,ask\n0,1.0,1.0\n5,bogus,1.0\n")
    code, err = error_of(capsys, "simulate", "--ticks", str(ticks), "--curve", CPMM_CURVE)
    assert code == 2
    assert err["error"] == "parse_error"
    assert "line 3" in err["detail"]


def test_simulate_header_only_ticks_prints_one_error_line(tmp_path, capsys):
    ticks = tmp_path / "h.csv"
    ticks.write_text("timestamp,bid,ask\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "simulate", "--ticks", str(ticks), "--curve", CPMM_CURVE, "--no-fee-vol")
    assert caught == []
    assert (code, out) == (2, "")
    assert err.splitlines() == ['{"error": "invalid_input", "detail": "h.csv has no data rows"}']


def test_simulate_bad_curve_json_exit_code(tmp_path, capsys):
    ticks = tmp_path / "t.csv"
    ticks.write_text("timestamp,bid,ask\n0,1.0,1.0\n1,1.0,1.0\n")
    code, err = error_of(capsys, "simulate", "--ticks", str(ticks), "--curve", "{nope")
    assert code == 2
    assert err["error"] == "parse_error"


# ----- analyze ----------------------------------------------------------------------


WINDOW_HEADER = "start,end,fees,lvr,hist_vol,fee_vol\n"


def test_analyze_identical_columns(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text(
        WINDOW_HEADER
        + "0,10,1.0,1.0,0.5,0.5\n10,20,2.0,2.0,0.5,0.5\n20,30,3.0,3.0,0.5,0.5\n"
    )
    report = run_json(capsys, "analyze", "--windows", str(path))
    assert report["windows"] == 3
    assert report["fees_vs_lvr"]["pearson"] == pytest.approx(1.0, abs=1e-12)
    assert report["fees_vs_lvr"]["slope_origin"] == pytest.approx(1.0, rel=1e-12)
    assert report["fees_vs_lvr"]["slope"] == pytest.approx(1.0, rel=1e-12)


def test_analyze_proportional_series_recovers_factor(tmp_path, capsys):
    path = tmp_path / "w.csv"
    rows = "".join(
        f"{10*k},{10*k+10},{fee},{0.97*fee},nan,nan\n" for k, fee in enumerate([1.0, 2.0, 1.5])
    )
    path.write_text(WINDOW_HEADER + rows)
    report = run_json(capsys, "analyze", "--windows", str(path))
    assert report["fees_vs_lvr"]["slope_origin"] == pytest.approx(0.97, rel=1e-12)
    # not enough finite vol pairs to regress
    assert report["fee_vol_vs_hist_vol"] is None


def test_analyze_single_row_insufficient(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text(WINDOW_HEADER + "0,10,1.0,1.0,0.5,0.5\n")
    code, err = error_of(capsys, "analyze", "--windows", str(path))
    assert code == 5
    assert err["error"] == "insufficient_data"


def test_analyze_writes_report_file(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text(WINDOW_HEADER + "0,10,1.0,1.1,0.4,0.5\n10,20,2.0,2.1,0.5,0.6\n")
    out = tmp_path / "report.json"
    report = run_json(capsys, "analyze", "--windows", str(path), "--out", str(out))
    assert json.loads(out.read_text()) == report
    assert report["fee_vol_vs_hist_vol"]["pearson"] == pytest.approx(1.0, abs=1e-9)


def _strict_json(text):
    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_analyze_prints_strict_json_for_simulate_output(tmp_path, capsys):
    # without fee vols every fee_vol is missing, and a flat column has no pearson
    ticks, windows, out = tmp_path / "t.csv", tmp_path / "w.csv", tmp_path / "report.json"
    run_json(capsys, "gen-ticks", "--out", str(ticks), "--days", "0.5", "--interval", "10", "--seed", "4")
    run_json(
        capsys, "simulate", "--ticks", str(ticks), "--curve", CPMM_CURVE, "--no-fee-vol",
        "--windows-out", str(windows), "--window-days", str(2 / 24), "--stride-days", str(2 / 24),
    )
    code, stdout, _ = run(capsys, "analyze", "--windows", str(windows), "--out", str(out))
    assert code == 0
    report = _strict_json(stdout)
    assert _strict_json(out.read_text()) == report
    assert report["windows"] == 6
    assert report["series"]["fee_vol"] == [None] * 6
    assert all(isinstance(v, float) for v in report["series"]["hist_vol"])
    assert report["fee_vol_vs_hist_vol"] is None


def test_analyze_undefined_pearson_is_null(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text(WINDOW_HEADER + "0,10,1.0,2.0,0.5,nan\n10,20,2.0,2.0,0.6,nan\n")
    code, stdout, _ = run(capsys, "analyze", "--windows", str(path))
    assert code == 0
    report = _strict_json(stdout)
    assert report["fees_vs_lvr"]["pearson"] is None
    assert report["series"]["fee_vol"] == [None, None]


@pytest.mark.parametrize(
    "row", ["10,20,inf,1.0,0.5,0.5", "10,20,-1.0,1.0,0.5,0.5", "10,20,1.0,nan,0.5,0.5",
            "10,20,1.0,1.0,-0.5,0.5", "10,20,1.0,1.0,0.5,inf"],
)
def test_analyze_rejects_window_rule_violation(tmp_path, capsys, row):
    path = tmp_path / "w.csv"
    path.write_text(WINDOW_HEADER + "0,10,1.0,1.0,0.5,0.5\n" + row + "\n20,30,3.0,3.0,0.5,0.5\n")
    code, err = error_of(capsys, "analyze", "--windows", str(path))
    assert code == 2
    assert err["error"] == "parse_error"
    assert err["detail"].startswith("line 3")


@pytest.mark.parametrize("row", ["10,10,2.0,2.0,0.5,0.5", "20,10,2.0,2.0,0.5,0.5"])
def test_analyze_rejects_window_that_does_not_start_before_it_ends(tmp_path, capsys, row):
    path = tmp_path / "w.csv"
    path.write_text(WINDOW_HEADER + "0,10,1.0,1.0,0.5,0.5\n" + row + "\n20,30,3.0,3.0,0.5,0.5\n")
    code, err = error_of(capsys, "analyze", "--windows", str(path))
    assert code == 2
    assert err["error"] == "parse_error"
    assert err["detail"].startswith("line 3")


@pytest.mark.parametrize("row", ["10,20,2.0,2.0,0.5,0.5", "5,30,2.0,2.0,0.5,0.5"])
def test_analyze_rejects_window_that_does_not_start_after_the_row_above(tmp_path, capsys, row):
    path = tmp_path / "w.csv"
    path.write_text(WINDOW_HEADER + "0,10,1.0,1.0,0.5,0.5\n10,20,1.0,1.0,0.5,0.5\n" + row + "\n")
    code, err = error_of(capsys, "analyze", "--windows", str(path))
    assert code == 2
    assert err["error"] == "parse_error"
    assert err["detail"].startswith("line 4")


def test_analyze_fits_windows_of_any_finite_size(tmp_path, capsys):
    # the moments of fees near 1e200 overflow unless the series are scaled
    path = tmp_path / "w.csv"
    path.write_text(
        WINDOW_HEADER + "0,10,1e200,1.0,0.5,0.5\n10,20,2e200,2.0,0.5,0.5\n20,30,3e200,3.5,0.5,0.5\n"
    )
    code, stdout, err = run(capsys, "analyze", "--windows", str(path))
    assert code == 0, err
    fit = _strict_json(stdout)["fees_vs_lvr"]
    # fees are 1e200 * (1, 2, 3); lvr is (1, 2, 3.5)
    assert fit["slope_origin"] == pytest.approx(15.5 / 14.0 * 1e-200, rel=1e-12)
    assert fit["slope"] == pytest.approx(1.25e-200, rel=1e-12)
    assert fit["intercept"] == pytest.approx(-1.0 / 3.0, rel=1e-12)
    # centered: x (-1, 0, 1), y (-7/6, -1/6, 4/3), so sum xy 2.5, sum xx 2, sum yy 19/6
    assert fit["pearson"] == pytest.approx(2.5 / math.sqrt(19.0 / 3.0), rel=1e-12)


# ----- solve-vol --------------------------------------------------------------------


def test_solve_vol_golden(capsys):
    request = '{"curve": {"kind": "cpmm", "L": 1.0}, "T": 1.0, "p0x": 1.0, "piBar": 1.0}'
    out = run_json(capsys, "solve-vol", request)
    assert out["sigma"] == pytest.approx(2.3548200450309493, abs=3e-6)
    assert out["stderr"] == 0.0
    assert out["iterations"] > 0
    assert out["request"]["piBar"] == 1.0


def test_solve_vol_arbitrage_exit(capsys):
    request = '{"curve": {"kind": "cpmm", "L": 1.0}, "T": 1.0, "p0x": 1.0, "piBar": 2.1}'
    code, err = error_of(capsys, "solve-vol", request)
    assert code == 3
    assert err["error"] == "arbitrage_violation"


def test_solve_vol_missing_key(capsys):
    code, err = error_of(capsys, "solve-vol", '{"curve": {"kind": "cpmm", "L": 1.0}, "T": 1.0}')
    assert code == 2
    assert err["error"] == "parse_error"
    assert "p0x" in err["detail"] or "piBar" in err["detail"]


def test_solve_vol_rejects_non_json_constants(capsys):
    # the request is echoed back, so NaN anywhere in it would make the output invalid JSON
    request = '{"curve": {"kind": "cpmm", "L": 1.0}, "T": 1.0, "p0x": 1.0, "piBar": 1.0, "note": NaN}'
    code, err = error_of(capsys, "solve-vol", request)
    assert code == 2
    assert err["error"] == "parse_error"
    assert "NaN" in err["detail"]


def test_solve_vol_request_from_file(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text('{"curve": {"kind": "cpmm", "L": 1.0}, "T": 1.0, "p0x": 1.0, "piBar": 0.0}')
    out = run_json(capsys, "solve-vol", str(req))
    assert out["sigma"] == 0.0 and out["iterations"] == 0


def test_solve_vol_at_a_tiny_total_vol_reprices_the_quote(capsys):
    # at D = 1e200 a fixed leg of 0.2 needs sigma near 1e-101, where the
    # leg is l(p0x) * sigma**2 / 2 to rounding and Newton lands in one step
    curve = {"kind": "stableswap", "A": 100.0, "D": 1e200}
    out = run_json(capsys, "solve-vol", json.dumps({"curve": curve, "T": 1.0, "p0x": 1.0, "piBar": 0.2}))
    pool = StableSwap(100.0, 1e200)
    assert out["sigma"] == pytest.approx(math.sqrt(2.0 * 0.2 / pool.liquidity(1.0)), rel=1e-6, abs=0.0)
    assert pool.floating_leg(1.0, out["sigma"])[0] == pytest.approx(0.2, rel=1e-6)


@pytest.mark.parametrize("p0x", [0.9, 1.3])
def test_solve_vol_at_a_tiny_total_vol_off_the_center_reprices_the_quote(capsys, p0x):
    # off the center the strip's nodes once lost their digits to log p0x:
    # Newton failed and bisection stopped at sigma = 2**-20, a leg of 1.7e187
    curve = {"kind": "stableswap", "A": 100.0, "D": 1e200}
    out = run_json(capsys, "solve-vol", json.dumps({"curve": curve, "T": 1.0, "p0x": p0x, "piBar": 0.2}))
    pool = StableSwap(100.0, 1e200)
    assert out["sigma"] == pytest.approx(math.sqrt(2.0 * 0.2 / pool.liquidity(p0x)), rel=1e-6, abs=0.0)
    assert pool.floating_leg(p0x, out["sigma"])[0] == pytest.approx(0.2, rel=1e-13)


SOLVE_VOL_BASE = {"curve": {"kind": "cpmm", "L": 1.0}, "T": 1.0, "p0x": 1.0, "piBar": 0.2}


@pytest.mark.parametrize(
    "field",
    [{"T": "x"}, {"p0x": None}, {"piBar": [0.2]}, {"tol": "1e-6"}, {"paths": "abc"}, {"paths": 2.5},
     {"seed": True}, {"antithetic": "false"}, {"antithetic": 0}],
    ids=lambda field: ",".join(f"{key}={value!r}" for key, value in field.items()),
)
def test_solve_vol_rejects_request_fields_of_the_wrong_type(capsys, field):
    code, err = error_of(capsys, "solve-vol", json.dumps({**SOLVE_VOL_BASE, **field}))
    assert code == 2
    assert err["error"] == "parse_error"
    assert repr(next(iter(field))) in err["detail"]


def test_solver_requests_reject_numbers_beyond_a_double(capsys):
    request = json.dumps(SOLVE_VOL_BASE)[:-1] + ', "note": 1e400}'
    code, err = error_of(capsys, "solve-vol", request)
    assert code == 2
    assert err["error"] == "parse_error"
    code, err = error_of(capsys, "price-swap", '{"curve": {"kind": "cpmm", "L": 1.0}, "T": 1.0, "p0x": 1.0, "sigma": 1e999}')
    assert code == 2
    assert err["error"] == "parse_error"


def test_solve_vol_accepts_integral_numbers_and_booleans(capsys):
    request = {**SOLVE_VOL_BASE, "T": 1, "paths": 2048.0, "seed": 3, "antithetic": False}
    out = run_json(capsys, "solve-vol", json.dumps(request))
    assert out["sigma"] > 0.0


def test_solve_vol_stableswap_center_outside_its_domain_is_invalid_input(capsys):
    # the domain c * (8e-17, 1.25e16) of A = 100 overflows at c = 1e300
    curve = {"kind": "stableswap", "A": 100.0, "D": 2.0, "center": 1e300}
    code, err = error_of(capsys, "solve-vol", json.dumps({**SOLVE_VOL_BASE, "curve": curve, "p0x": 1e300}))
    assert code == 2
    assert err["error"] == "invalid_input"
    assert "center" in err["detail"]


@pytest.mark.parametrize(
    "command, scale, request_",
    [
        ("price-swap", 5e-324, {"T": 1.0, "p0x": 1.0, "sigma": 0.5}),
        ("solve-vol", 1e-310, {**SOLVE_VOL_BASE, "piBar": 1e-322}),
    ],
)
def test_stableswap_subnormal_scale_is_invalid_input(capsys, command, scale, request_):
    # these priced a negative leg and solved a vol before the scale was checked
    curve = {"kind": "stableswap", "A": 100.0, "D": scale}
    code, err = error_of(capsys, command, json.dumps({**request_, "curve": curve}))
    assert code == 2
    assert err["error"] == "invalid_input"
    assert "scale" in err["detail"]


@pytest.mark.parametrize("center", [1e-200, 1e200])
def test_solve_vol_stableswap_far_from_center_1_solves_as_at_center_1(capsys, center):
    # the pool value at q is the center-1 pool value at q/c, so the strip is too
    def solve(c):
        curve = {"kind": "stableswap", "A": 100.0, "D": 2.0, "center": c}
        return run_json(capsys, "solve-vol", json.dumps({**SOLVE_VOL_BASE, "curve": curve, "p0x": c}))["sigma"]

    assert solve(center) == pytest.approx(solve(1.0), rel=1e-12)


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
def test_solve_vol_stableswap_at_any_scale_solves_as_at_scale_2(capsys, scale):
    # the pool of scale D is D/2 times the pool of scale 2, and so is its
    # quote; D**3, which the solve no longer forms, overflows above 5.6e102
    def solve(d):
        curve = {"kind": "stableswap", "A": 100.0, "D": d}
        request = {**SOLVE_VOL_BASE, "curve": curve, "piBar": SOLVE_VOL_BASE["piBar"] * (d / 2.0)}
        return run_json(capsys, "solve-vol", json.dumps(request))["sigma"]

    assert abs(solve(scale) - solve(2.0)) <= 1e-6  # the solver's default tol


# ----- solve-corr -------------------------------------------------------------------


CORR_REQ = '{"curve": {"kind": "cpmm", "L": 1.0}, "T": 1.0, "p0x": 1.0, "sigmaX": 2.0, "sigmaY": 1.0, "piBar": %s}'


def test_solve_corr_endpoints(capsys):
    out = run_json(capsys, "solve-corr", CORR_REQ % "0.2350")
    assert out["rho"] == 1.0
    assert out["sigmaBar"] == pytest.approx(1.0)
    assert out["iterations"] == 0
    out = run_json(capsys, "solve-corr", CORR_REQ % "1.3507")
    assert out["rho"] == -1.0
    assert out["sigmaBar"] == pytest.approx(3.0)


def test_solve_corr_interior_and_out_of_bounds(capsys):
    pi_mid = 2.0 * (1.0 - math.exp(-5.0 / 8.0))
    out = run_json(capsys, "solve-corr", CORR_REQ % repr(pi_mid))
    assert out["rho"] == pytest.approx(0.0, abs=2e-6)
    code, err = error_of(capsys, "solve-corr", CORR_REQ % "1.4")
    assert code == 4
    assert err["error"] == "out_of_bounds"
    # a fixed leg at the pool value is an arbitrage before any correlation bound
    code, err = error_of(capsys, "solve-corr", CORR_REQ % "2.0")
    assert code == 3
    assert err["error"] == "arbitrage_violation"


def test_solve_requests_value_the_pool_once(capsys, monkeypatch):
    # one unit-pool evaluation prices the quote's pool value, the other the
    # stderr's Monte Carlo paths
    calls = []
    unit_holdings = StableSwap._unit_holdings

    def counted(self, qs):
        calls.append(np.size(qs))
        return unit_holdings(self, qs)

    monkeypatch.setattr(StableSwap, "_unit_holdings", counted)
    base = {"curve": {"kind": "stableswap", "A": 100, "D": 2}, "T": 1.0, "p0x": 1.0, "paths": 16384}
    out = run_json(capsys, "solve-vol", json.dumps({**base, "piBar": 0.05}))
    assert out["stderr"] > 0.0
    assert calls == [1, 16384]
    calls.clear()
    out = run_json(capsys, "solve-corr", json.dumps({**base, "piBar": 0.2, "sigmaX": 0.5, "sigmaY": 0.4}))
    assert -1.0 < out["rho"] < 1.0 and out["stderr"] > 0.0
    assert calls == [1, 16384]


# ----- price-swap -------------------------------------------------------------------


def test_price_swap_direct_sigma(capsys):
    request = '{"curve": {"kind": "cpmm", "L": 1.0}, "T": 1.0, "p0x": 1.0, "sigma": 1.0}'
    out = run_json(capsys, "price-swap", request)
    assert out["value"] == pytest.approx(2.0 * (1.0 - math.exp(-0.125)), rel=1e-12)
    assert out["stderr"] == 0.0


def test_price_swap_component_vols(capsys):
    request = (
        '{"curve": {"kind": "cpmm", "L": 1.0}, "T": 1.0, "p0x": 1.0,'
        ' "sigmaX": 2.0, "sigmaY": 1.0, "rho": 0.0}'
    )
    out = run_json(capsys, "price-swap", request)
    assert out["sigma"] == pytest.approx(math.sqrt(5.0), rel=1e-12)
    code, err = error_of(capsys, "price-swap", '{"curve": {"kind": "cpmm", "L": 1.0}, "T": 1.0, "p0x": 1.0}')
    assert code == 2
    assert "sigma" in err["detail"]


@pytest.mark.parametrize(
    "args",
    [
        ["gen-ticks", "--out", "unused.csv", "--days", "0.01", "--sigma", "1e200"],
        ["price-swap", json.dumps({**SOLVE_VOL_BASE, "sigmaX": 1e200, "sigmaY": 0.0, "rho": 0.0})],
    ],
    ids=lambda args: args[0],
)
def test_a_price_ratio_variance_beyond_a_double_is_invalid_input(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    code, err = error_of(capsys, *args)
    assert code == 2
    assert err["error"] == "invalid_input"
    assert "beyond the float range" in err["detail"]
    assert os.listdir(tmp_path) == []


def test_price_swap_equal_vols_beyond_a_double_at_rho_1(capsys):
    out = run_json(capsys, "price-swap", json.dumps({**SOLVE_VOL_BASE, "sigmaX": 1e200, "sigmaY": 1e200, "rho": 1.0}))
    assert out["sigma"] == 0.0


# ----- solver requests at any scale ----------------------------------------------------

# every number in a request lies in [1e-150, 1e150], with its exponent uniform
scale = st.floats(-150.0, 150.0).map(lambda e: 10.0**e)
QUOTE_KEYS = {"solve-vol": ["piBar"], "solve-corr": ["piBar", "sigmaX", "sigmaY"], "price-swap": ["sigma"]}


@st.composite
def solver_requests(draw):
    command = draw(st.sampled_from(sorted(QUOTE_KEYS)))
    kind = draw(st.sampled_from(["cpmm", "concentrated", "stableswap"]))
    if kind == "cpmm":
        curve = {"kind": kind, "L": draw(scale)}
    elif kind == "concentrated":
        p_lo, p_hi = sorted((draw(scale), draw(scale)))
        curve = {"kind": kind, "L": draw(scale), "pL": p_lo, "pU": p_hi}
    else:
        curve = {"kind": kind, "A": draw(scale), "D": draw(scale), "center": draw(scale)}
    request = {"curve": curve, "T": draw(scale), "p0x": draw(scale), "paths": 256}
    optional = [key for key in ("p0y", "liquidityTokens", "tol") if draw(st.booleans())]
    for key in QUOTE_KEYS[command] + optional:
        request[key] = draw(scale)
    return command, request


def _refuse_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


def check_solver_request(command, request):
    """An answer is strict JSON and a failure a typed error: never exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, json.dumps(request)])
    assert code != 1, err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)


STABLE_REQUEST = {"curve": {"kind": "stableswap", "A": 100.0, "D": 2.0}, "T": 1.0, "p0x": 1.0}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(solver_requests())
# path counts beyond MAX_PATHS are refused before anything is allocated
@example(("solve-vol", {**STABLE_REQUEST, "piBar": 0.1, "paths": 1e20}))
@example(("price-swap", {**STABLE_REQUEST, "sigma": 0.5, "paths": 2**24 + 2}))
def test_solver_requests_at_any_scale_never_exit_1(case):
    check_solver_request(*case)


# ----- seeds ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["gen-ticks", "--out", "unused.csv", "--days", "0.01", "--seed", "-1"],
        ["price-swap", json.dumps({**SOLVE_VOL_BASE, "sigma": 1.0, "seed": -1})],
        ["solve-vol", json.dumps({**SOLVE_VOL_BASE, "seed": -1})],
        ["solve-corr", json.dumps({**SOLVE_VOL_BASE, "sigmaX": 2.0, "sigmaY": 1.0, "piBar": 0.5, "seed": -1})],
    ],
    ids=lambda args: args[0],
)
def test_negative_seed_is_invalid_input(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    code, err = error_of(capsys, *args)
    assert code == 2
    assert err["error"] == "invalid_input"
    assert "seed" in err["detail"]
    assert not (tmp_path / "unused.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["gen-ticks", "--days", "nan"],
        ["gen-ticks", "--days", "inf"],
        ["gen-ticks", "--p0", "inf"],
        # a path that overflows a double on its way
        ["gen-ticks", "--p0", "1e308", "--sigma", "0", "--rate", "1000", "--days", "1", "--interval", "3600"],
        ["simulate", "--window-days", "nan"],
        ["simulate", "--window-days", "0.01", "--stride-days", "inf"],
    ],
    ids=" ".join,
)
def test_non_finite_numbers_are_invalid_input_and_write_nothing(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("timestamp,bid,ask\n0,1.0,1.0\n1,1.0,1.1\n")
    command, *rest = args
    if command == "gen-ticks":
        paths = ["--out", "out.csv"]
    else:
        paths = ["--ticks", "t.csv", "--curve", CPMM_CURVE, "--ledger-out", "out.csv", "--windows-out", "w.csv"]
    code, err = error_of(capsys, command, *paths, *rest)
    assert code == 2
    assert set(err) == {"error", "detail"}
    assert os.listdir(tmp_path) == ["t.csv"]


@pytest.mark.parametrize(
    "args",
    [
        ["--start-ts", "92233720368547758070"],
        ["--start-ts", "-92233720368547758070"],
        ["--start-ts", str(2**63 - 864), "--days", "0.01"],  # its last tick is 2**63
        ["--days", "1e300"],
    ],
    ids=" ".join,
)
def test_gen_ticks_timestamps_beyond_int64_are_invalid_input(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    code, err = error_of(capsys, "gen-ticks", "--out", "out.csv", *args)
    assert code == 2
    assert err["error"] == "invalid_input"
    assert "int64" in err["detail"]
    assert os.listdir(tmp_path) == []


def test_gen_ticks_last_timestamp_at_the_int64_end(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    start = 2**63 - 1 - 864
    out = run_json(capsys, "gen-ticks", "--out", "out.csv", "--days", "0.01", "--start-ts", str(start))
    assert out["ticks"] == 865
    assert (tmp_path / "out.csv").read_text().splitlines()[-1].startswith(f"{2**63 - 1},")


# ----- auction ----------------------------------------------------------------------


ORDERS = (
    "order_id,side,limit_price,quantity,timestamp\n"
    "o1,offer,1.0,10,0\n"
    "o2,bid,2.0,10,1\n"
)


def test_auction_midpoint_golden(tmp_path, capsys):
    path = tmp_path / "orders.csv"
    path.write_text(ORDERS)
    out_file = tmp_path / "result.json"
    result = run_json(capsys, "auction", "--orders", str(path), "--out", str(out_file))
    assert result["clearing_price"] == "1.50000000"
    assert result["matched_quantity"] == "10.000000000000000000"
    assert json.loads(out_file.read_text()) == result


def test_auction_duplicate_id_exit(tmp_path, capsys):
    path = tmp_path / "orders.csv"
    path.write_text(ORDERS + "o1,bid,1.5,1,2\n")
    code, err = error_of(capsys, "auction", "--orders", str(path))
    assert code == 2
    assert err["error"] == "parse_error"
    assert "first seen on line 2" in err["detail"]


def test_auction_empty_book(tmp_path, capsys):
    path = tmp_path / "orders.csv"
    path.write_text("order_id,side,limit_price,quantity,timestamp\n")
    result = run_json(capsys, "auction", "--orders", str(path))
    assert result["clearing_price"] is None
    assert result["matched_quantity"] == "0.000000000000000000"
    assert result["unmatched"] == []


# ----- unreadable files ------------------------------------------------------------------

BIG = b"9" * 131_073  # one past csv's field size limit
UNREADABLE = {
    "simulate-not-utf8": ("simulate", b"timestamp,bid,ask\n0,1.0,1.0\n1,1.\xff0,1.0\n"),
    "simulate-big-field": ("simulate", b"timestamp,bid,ask\n0,1.0,1.0\n1," + BIG + b",1.0\n"),
    "simulate-int64": ("simulate", b"timestamp,bid,ask\n0,1.0,1.0\n9223372036854775808,1.0,1.0\n"),
    "analyze-not-utf8": ("analyze", WINDOW_HEADER.encode() + b"0,1,1,1,1,1\n1,2,\xc3\x28,1,1,1\n"),
    "analyze-big-field": ("analyze", WINDOW_HEADER.encode() + b"0,1,1,1,1,1\n1,2," + BIG + b",1,1,1\n"),
    "auction-not-utf8": ("auction", ORDERS.encode() + b"o\xe93,bid,1.0,1,2\n"),
    "auction-big-field": ("auction", ORDERS.encode() + b"o3,bid,1.0," + BIG + b",2\n"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_file_exits_2(tmp_path, capsys, case):
    command, data = UNREADABLE[case]
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    flag = {"simulate": "--ticks", "analyze": "--windows", "auction": "--orders"}[command]
    args = [command, flag, str(path)] + (["--curve", CPMM_CURVE] if command == "simulate" else [])
    code, err = error_of(capsys, *args)
    assert code == 2
    assert err["error"] == "parse_error"
    assert err["detail"].startswith("line 3" if command != "auction" else "line 4")


# ----- harness behavior ----------------------------------------------------------------


def test_unknown_command_usage_error(capsys):
    code, err = error_of(capsys, "frobnicate")
    assert code == 2
    assert err["error"] == "usage_error"


def test_missing_required_option(capsys):
    code, err = error_of(capsys, "simulate")
    assert code == 2
    assert err["error"] == "usage_error"
    assert "--ticks" in err["detail"]


def test_nonexistent_input_path(capsys, tmp_path):
    code, err = error_of(
        capsys, "simulate", "--ticks", str(tmp_path / "nope.csv"), "--curve", CPMM_CURVE
    )
    assert code == 2
    assert err["error"] == "usage_error"


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "simulate" in out and "solve-vol" in out
