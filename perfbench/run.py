"""ammvol benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
``src/``.  One workload runs per process.  After set-up and one warm-up
pass, passes repeat until their time adds up to ``--seconds``; every
pass's outputs are checked.  Set-up is timed again after each pass (on a
throwaway copy) and ``setup_s`` is the median.  With
``--trace 1`` untraced and traced passes alternate: the untraced ones give
the end-to-end figures, the traced ones the per-layer figures and
``trace.overhead_ratio``.

Report lines go to stdout first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the ``end_to_end``
metrics of BENCHMARK.json, or its ``per_layer`` metrics with ``--trace 1``).
Spans are written as JSON lines and the full report as JSON under
``.perfbench_out/`` in the checkout.
"""

import os
import sys

# one process, no extra threads: pin BLAS/OpenMP pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
from statistics import median  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("cli", "curves", "dataio", "simulation", "solvers", "fees", "auction")
# Set-up is timed once before the warm-up pass and once more after each pass,
# up to this many samples, so the median spans the run rather than one
# moment of a machine whose speed drifts.
SETUP_SAMPLES = 10


def _parse(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; for the smoke test only")
    return parser.parse_args(argv)


def _fresh_import():
    """Import ammvol.cli from scratch (dependencies stay loaded)."""
    for name in [n for n in sys.modules if n == "ammvol" or n.startswith("ammvol.")]:
        del sys.modules[name]
    importlib.import_module("ammvol.cli")
    return types.SimpleNamespace(**{m: sys.modules[f"ammvol.{m}"] for m in MODULES})


def _extra_setup(make) -> float:
    """Time one more import-and-set-up on a throwaway workload, then put back
    the modules the passes run on."""
    kept = {n: m for n, m in sys.modules.items() if n == "ammvol" or n.startswith("ammvol.")}
    t0 = time.perf_counter()
    make().setup(_fresh_import())
    elapsed = time.perf_counter() - t0
    for name in [n for n in sys.modules if n == "ammvol" or n.startswith("ammvol.")]:
        del sys.modules[name]
    sys.modules.update(kept)
    return elapsed


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _provenance():
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "loadavg_start": os.getloadavg(),
    }


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse(argv)
    if not (ROOT / "src" / "ammvol" / "__init__.py").is_file():
        print(f"perfbench: no ammvol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import tracing
    import workloads

    e2e_units, layer_units = _spec()
    out_dir = ROOT / ".perfbench_out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    try:
        provenance = _provenance()
        t0 = time.perf_counter()
        _fresh_import()
        cold_import_s = time.perf_counter() - t0

        def make():
            return workloads.make(args.workload, args.seed, args.smoke, work)

        t0 = time.perf_counter()
        am = _fresh_import()
        workload = make()
        workload.setup(am)
        setup_times = [time.perf_counter() - t0]

        tracer = tracing.Tracer() if args.trace else None
        warm_ops = workload.run_pass(am, None, "warmup")
        workload.check(am, warm_ops)
        setup_times.append(_extra_setup(make))

        passes = []
        measured = 0.0
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                tracer.install(am.cli)
                first = len(tracer.spans)
            t0 = time.perf_counter()
            ops = workload.run_pass(am, tracer if traced else None, len(passes))
            wall = time.perf_counter() - t0
            span_range = None
            if traced:
                tracer.uninstall()
                span_range = (first, len(tracer.spans))
            workload.check(am, ops)
            passes.append({"ops": ops, "wall": wall, "traced": traced, "spans": span_range})
            measured += wall
            if len(setup_times) < SETUP_SAMPLES:
                setup_times.append(_extra_setup(make))
            if measured >= args.seconds and len(passes) >= (2 if args.trace else 1):
                break

        all_ops = warm_ops + [op for p in passes for op in p["ops"]]
        failed = [op for op in all_ops if op.failures]
        untraced = [p for p in passes if not p["traced"]]
        provenance["loadavg_end"] = os.getloadavg()

        e2e = {
            "setup_s": (median(setup_times), "s"),
            "pass_s": (median([p["wall"] for p in untraced]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "failed_ratio": (len(failed) / len(all_ops), "fraction"),
            **workload.end_to_end(untraced),
        }
        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "provenance": provenance,
            "cold_import_s": cold_import_s, "setup_runs_s": setup_times,
            "passes": [{"wall_s": p["wall"], "traced": p["traced"],
                        "ops": [[op.kind, op.seconds] for op in p["ops"]]} for p in passes],
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
            "failures": [f"{op.kind}: {msg}" for op in failed for msg in op.failures][:50],
        }

        print("provenance " + json.dumps(provenance))
        for name, (value, unit) in e2e.items():
            print(f"metric {name} {value!r} {unit}")
        for line in report["failures"][:20]:
            print("failure " + line)

        if args.trace:
            layers, layer_s, functions = _layer_metrics(tracer, passes)
            layers["trace.overhead_ratio"] = median(
                [p["wall"] for p in passes if p["traced"]]) / e2e["pass_s"][0]
            report.update(per_layer=layers, layer_seconds=layer_s, functions=functions)
            for name, value in {**layer_s, **layers}.items():
                print(f"layer {name} {value!r}")
            tracer.write_jsonl(out_dir / f"{tag}-spans.jsonl")
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in layer_units.items()}
        else:
            metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in e2e_units.items()}

        with open(out_dir / f"{tag}.json", "w") as fh:
            json.dump(report, fh, indent=1, default=str)
        print(json.dumps({
            "correct": not failed,
            "attempted": len(all_ops),
            "failed": len(failed),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _layer_metrics(tracer, passes):
    """Median over traced passes of: per-layer shares of the pass wall time,
    counts and rates (the per_layer metrics); per-layer seconds; and calls,
    seconds and self seconds per traced function."""
    import tracing

    rows, seconds_rows, function_rows = [], [], []
    for p in passes:
        if not p["traced"]:
            continue
        seconds, counts = tracing.layer_seconds(tracer.spans, *p["spans"])
        row = {tracing.share_name(name): value / p["wall"] for name, value in seconds.items()}
        row.update(counts)
        for kind in tracing.CURVE_KINDS:
            zs = [abs(op.info["z"]) for op in p["ops"] if op.kind == kind and "z" in op.info]
            row[f"fees.martingale_abs_z.{kind}"] = zs[0] if zs else 0.0
        rows.append(row)
        seconds_rows.append(seconds)
        function_rows.append(tracing.summarize(tracer.spans, *p["spans"]))

    def median_of(dicts, key=None):
        names = sorted({name for d in dicts for name in d})
        if key is None:
            return {name: median([d.get(name, 0.0) for d in dicts]) for name in names}
        return {name: median([d[name][key] if name in d else 0.0 for d in dicts]) for name in names}

    functions = {key: median_of(function_rows, key) for key in ("calls", "s", "self_s")}
    return median_of(rows), median_of(seconds_rows), functions


if __name__ == "__main__":
    sys.exit(main())
