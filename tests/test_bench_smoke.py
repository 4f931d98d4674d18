"""The benchmark harness passes all of its output checks on tiny inputs.

Runs ``perfbench/run.py --smoke`` for both pipelines, whose checks compare
the replay's fees with the library's and reprice every window's fee vol
through the floating leg kernel, for the quote requests, which round-trip
sigma and rho through the solvers, and for the martingale Monte Carlo,
whose checks bound each curve's |z| by 3 and require every pass to repeat
the first pass's (mean, stderr).  One traced run of the StableSwap pipeline
checks that the tracer still finds every curve method it wraps.  Asserts
correctness only, nothing about timing.
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


@pytest.mark.parametrize(
    "workload", ["pipeline_cpmm", "pipeline_stableswap", "quote_requests", "martingale_mc"]
)
def test_benchmark_smoke_run_is_correct(workload):
    smoke_run(workload)


def test_benchmark_traced_smoke_run_is_correct():
    smoke_run("pipeline_stableswap", "--trace", "1")
