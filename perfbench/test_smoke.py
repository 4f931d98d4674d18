"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Checks the BENCHMARK.json schema, the metric names and units each mode
prints, that every output check passes on the current code and that the
checks catch a corrupted output.  Asserts nothing about timing.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        assert trace or metric["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import workloads

    return run, workloads


def test_checks_catch_corrupted_outputs(tmp_path, harness):
    run, workloads = harness
    am = run._fresh_import()

    pipeline = workloads.make("pipeline_cpmm", 5, True, tmp_path)
    pipeline.setup(am)
    ops = pipeline.run_pass(am, None, 0)
    pipeline.check(am, ops)
    assert not any(op.failures for op in ops)
    path = Path(pipeline.windows_path)
    rows = path.read_text().splitlines()
    fields = rows[1].split(",")
    fields[5] = repr(float(fields[5]) * 1.001)
    path.write_text("\n".join([rows[0], ",".join(fields), *rows[2:]]) + "\n")
    pipeline.check(am, ops)
    assert any("reprice" in msg for msg in ops[1].failures)

    quotes = workloads.make("quote_requests", 5, True, tmp_path)
    quotes.setup(am)
    ops = quotes.run_pass(am, None, 0)
    quotes.check(am, ops)
    assert not any(op.failures for op in ops)
    solve = next(op for op in ops if op.kind == "solve-vol")
    payload = json.loads(solve.out)
    payload["sigma"] += 1e-4
    solve.out = json.dumps(payload)
    solve.failures.clear()
    quotes.check(am, ops)
    assert any("true" in msg for msg in solve.failures)
