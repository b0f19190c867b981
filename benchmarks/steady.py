"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 benchmarks/steady.py --runs 10

Runs every workload of BENCHMARK.json ``--runs`` times per set, for its
run_seconds, each run in its own process with its own seed, alternating
between the two sets (set A's seeds are 1..runs, set B's 101..100+runs).
For each set it reports every end-to-end metric's median and quartiles on
every workload, the spread (q3 - q1) / median, and the shift of set B's
median from set A's, against the bounds in BENCHMARK.json. The benchmark
holds when every spread and the size of every shift are within their
bound, and the share of failed operations is the same in both sets; the
target is every spread below a third of its bound. Exits 0 when it holds.
The full record, with every run's values, goes to benchmarks/results/.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from run import run_one

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_BASE = (1, 101)


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: ([], []) for w in workloads}
    for i in range(args.runs):
        for s in (0, 1) if i % 2 == 0 else (1, 0):
            for w in workloads:
                started = time.perf_counter()
                results[w][s].append(run_one(w, SEED_BASE[s] + i, seconds)[1])
                print(f"run {i + 1}/{args.runs} set {'AB'[s]} {w}: "
                      f"{time.perf_counter() - started:.1f} s", file=sys.stderr, flush=True)

    report = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    lines = ["| workload | metric | set | median | q1 | q3 | spread | bound | shift B/A |",
             "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    holds, on_target = True, True
    for w, sets in results.items():
        entry = report["workloads"][w] = {
            "failed_share": [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                             for runs in sets],
            "correct": all(r["correct"] for runs in sets for r in runs),
            "metrics": {},
        }
        for metric, bound in bounds.items():
            stats = [summary([r["metrics"][metric]["value"] for r in runs]) for runs in sets]
            shift = stats[1]["median"] / stats[0]["median"] - 1.0
            entry["metrics"][metric] = {"sets": stats, "bound": bound, "shift": shift}
            holds &= abs(shift) <= bound and all(st["spread"] <= bound for st in stats)
            on_target &= all(st["spread"] < bound / 3 for st in stats)
            for s, st in enumerate(stats):
                lines.append(f"| {w} | {metric} | {'AB'[s]} | {st['median']:.4g} | {st['q1']:.4g} "
                             f"| {st['q3']:.4g} | {st['spread']:.3f} | {bound} | {shift:+.3f} |")
        holds &= entry["failed_share"][0] == entry["failed_share"][1] and entry["correct"]
    report.update(holds=holds, on_target=on_target)
    out = HERE / "results" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print("\n".join(lines))
    print(f"holds: {holds}; every spread below a third of its bound: {on_target}; "
          f"record in {out.relative_to(ROOT)}")
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
