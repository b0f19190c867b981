"""Benchmark of gdpc's controllers in closed loop and of its lambda sweep.

    python3 benchmarks/run.py --workload loop_box --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

A run builds its inputs from --seed, warms up with one round of the
workload's harness calls, then repeats the round until --seconds have passed,
checking the outputs of every round. Every timing of a harness call is
scaled to a reference speed (see ``workloads.reference_kernel``), since the
host's own speed swings. ``--workload all`` runs each workload in
a fresh process of its own. With --trace 0 a run prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced rounds and prints
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

# BLAS is pinned to one thread before numpy loads. On a two-core machine the
# default two OpenBLAS threads per pool made the loop timings measure the
# scheduler more than the program.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("loop_box", "loop_deepc", "loop_outbox", "sweep_bigD")
END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s",
    "solve_p50_ms": "ms", "solve_p95_ms": "ms", "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(numpy, scipy):
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    task_dir = "/proc/self/task"
    return {
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "process_threads": len(os.listdir(task_dir)) if os.path.isdir(task_dir) else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_workload(args) -> int:
    src = ROOT / "src"
    if not (src / "gdpc" / "__init__.py").is_file():
        print(f"error: no gdpc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy
    from gdpc import control

    from tracing import Tracer, layer_metrics
    from workloads import (REFERENCE_S, WORKLOADS as BUILDERS, SolveLog, checked_round,
                           run_calls)

    log = SolveLog(control)
    workload = BUILDERS[args.workload](args.seed, ROOT)
    tracer = Tracer() if args.trace else None

    rounds = [checked_round(workload, run_calls(workload, log), False)]  # the warm-up
    deadline = time.perf_counter() + args.seconds
    kinds = {False, True} if tracer else {False}
    traced = False
    while True:
        # Only the harness calls are traced; the checks run the program too.
        if traced:
            tracer.install()
        try:
            records = run_calls(workload, log)
        finally:
            if traced:
                tracer.remove()
        rounds.append(checked_round(workload, records, traced))
        if time.perf_counter() >= deadline and kinds <= {r.traced for r in rounds[1:]}:
            break
        traced = bool(tracer) and not traced

    attempted = sum(len(r.failures) for r in rounds)
    failed = sum(bool(f) for r in rounds for f in r.failures)
    for message in [m for r in rounds for f in r.failures for m in f][:5]:
        print(f"check failed: {message}", file=sys.stderr)
    untraced = [r for r in rounds[1:] if not r.traced]

    if tracer:
        traced_walls = [r.wall for r in rounds if r.traced]
        overhead = statistics.median(traced_walls) - statistics.median(r.wall for r in untraced)
        metrics = layer_metrics(tracer.spans, len(traced_walls), overhead)
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "traced_rounds": len(traced_walls)})
    else:
        solve_s = [t for r in untraced for t in r.solve_seconds]
        values = {
            "wall_s": statistics.median(r.wall for r in untraced),
            "cpu_s": statistics.median(r.cpu for r in untraced),
            "setup_s": statistics.median(t for r in untraced for t in r.setups),
            "solve_p50_ms": 1e3 * statistics.median(solve_s),
            "solve_p95_ms": 1e3 * statistics.median(
                float(numpy.percentile(r.solve_seconds, 95)) for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        print(f"# {len(untraced)} measured rounds, {len(solve_s)} solves; round walls (s) "
              "at the reference speed:", " ".join(f"{r.wall:.3f}" for r in untraced))
        print("# round walls (s) as measured:",
              " ".join(f"{r.measured_wall:.3f}" for r in untraced))
        kernel_ms = 1e3 * statistics.median(k for r in untraced for k in r.kernels)
        print(f"# reference kernel: median {kernel_ms:.3f} ms, reference {1e3 * REFERENCE_S:g} ms")

    print(f"# environment {json.dumps(environment(numpy, scipy))}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_one(workload, seed, seconds, trace=0):
    """Runs one workload in a fresh process; returns its output lines before
    the result, and the result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + 160, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload, each in a fresh process; prints the combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        try:
            lines, result = run_one(name, args.seed, args.seconds, args.trace)
        except subprocess.CalledProcessError as err:
            print(f"error: workload {name} exited with {err.returncode}", file=sys.stderr)
            return err.returncode
        print("\n".join(lines), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
