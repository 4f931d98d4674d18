"""The benchmark harness passes all of its output checks on tiny inputs.

Runs ``perfbench/run.py --smoke`` for both pipelines, whose checks compare
the replay's fees with the library's and reprice every window's fee vol
through the floating leg kernel, for the quote requests, which round-trip
sigma and rho through the solvers, and for the martingale Monte Carlo,
whose checks bound each curve's |z| by 3 and require every pass to repeat
the first pass's (mean, stderr).  One traced run of the StableSwap pipeline
checks that the tracer still finds every curve method it wraps, and one of
the martingale Monte Carlo that each step makes exactly one grid call on
all paths.  Asserts correctness and counts only, nothing about timing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def smoke_run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True, proc.stdout[-2000:]
    assert report["failed"] == 0
    return report


@pytest.mark.parametrize(
    "workload", ["pipeline_cpmm", "pipeline_stableswap", "quote_requests", "martingale_mc"]
)
def test_benchmark_smoke_run_is_correct(workload):
    smoke_run(workload)


def test_benchmark_traced_smoke_run_is_correct():
    smoke_run("pipeline_stableswap", "--trace", "1")


def test_benchmark_traced_martingale_smoke_counts_grid_points():
    # per curve and pass: one xprime_grid per step and one terminal
    # pool_value_grid, each on all 64 paths; 3 curves x (200 + 1) calls
    metrics = smoke_run("martingale_mc", "--trace", "1")["metrics"]
    assert metrics["curves.grid_calls"]["value"] == 603
    assert metrics["curves.grid_points"]["value"] == 38592
