"""Alternating before/after pairs of the benchmark, summarized as a BENCH file.

    python3 tools/bench_pairs.py --parent HEAD~1 --number 26 --pairs 10 --seed 1 \\
        --claim loop_box.setup_s --second-seed 2 --second-pairs 5 \\
        --description "what the change does"

A pair is one run of ``python3 benchmarks/run.py --workload all --seed <s>
--seconds 28`` on the parent commit and one on the working tree. The parent
side runs in a fresh export of the parent's committed files (``git
archive``). The parent runs first in odd pairs and the change first in even
ones, so a drift of the host's speed falls on both sides alike. With
``--claim WORKLOAD.METRIC`` the file gets a claim block, and
``--second-seed`` adds pairs of that workload alone on a second seed. Every
call runs all its pairs afresh.

The runner only invokes the benchmark: it imports nothing from
``benchmarks/``, and reads the metrics' direction and bounds from
``BENCHMARK.json``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("loop_box", "loop_deepc", "loop_outbox", "sweep_bigD")
CLAIM_SHARE = 0.9  # a claimed gain must show in at least this share of pairs
SECONDS = 28  # the run length BENCHMARK.json's run_seconds fixes


def sig6(value: float) -> float:
    """``value`` to six significant digits, as the BENCH files record it."""
    return float(f"{value:.6g}")


def quartile_values(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated linearly
    between order statistics (numpy's default percentile rule)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def quartiles(values) -> dict:
    """:func:`quartile_values` as the BENCH files record them."""
    q1, median, q3 = quartile_values(values)
    return {"q1": sig6(q1), "median": sig6(median), "q3": sig6(q3)}


def lower_in(parent_runs, change_runs) -> int:
    """How many pairs have the change's value below the parent's."""
    return sum(c < p for p, c in zip(parent_runs, change_runs, strict=True))


def compare(parent_runs, change_runs, unit: str, better: str, bound: float) -> dict:
    """One metric of one workload: both sides' quartiles, the pairs in which
    the change is lower, the ratio of the medians, whether the change's
    median is within ``bound`` (a relative worsening) of the parent's, and
    whether the medians lie more than the parent's interquartile range
    apart."""
    p_q1, p_med, p_q3 = quartile_values(parent_runs)
    c_med = statistics.median(change_runs)
    worse = (c_med - p_med) if better == "lower" else (p_med - c_med)
    return {
        "unit": unit,
        "parent": quartiles(parent_runs),
        "change": quartiles(change_runs),
        "change_lower_in": f"{lower_in(parent_runs, change_runs)}/{len(parent_runs)}",
        "change_over_parent": sig6(c_med / p_med) if p_med else math.nan,
        "within_bound": worse <= bound * abs(p_med),
        "median_outside_parent_iqr": abs(c_med - p_med) > p_q3 - p_q1,
        "parent_runs": [sig6(v) for v in parent_runs],
        "change_runs": [sig6(v) for v in change_runs],
    }


def claim_met(parent_runs, change_runs) -> bool:
    """A claimed drop holds when the change is lower in at least
    ``CLAIM_SHARE`` of the pairs and its median lies below the parent's by
    more than the parent's interquartile range."""
    n = len(parent_runs)
    p_q1, p_med, p_q3 = quartile_values(parent_runs)
    c_med = statistics.median(change_runs)
    return (lower_in(parent_runs, change_runs) >= math.ceil(CLAIM_SHARE * n)
            and p_med - c_med > p_q3 - p_q1)


def claim_block(workload: str, metric: str, unit: str, parent_runs, change_runs) -> dict:
    p_q1, p_med, p_q3 = quartile_values(parent_runs)
    c_med = statistics.median(change_runs)
    n = len(parent_runs)
    return {
        "workload": workload,
        "metric": metric,
        "unit": unit,
        "parent_median": sig6(p_med),
        "change_median": sig6(c_med),
        "parent_iqr": sig6(p_q3 - p_q1),
        "change_lower_in": f"{lower_in(parent_runs, change_runs)}/{n}",
        "change_over_parent": sig6(c_med / p_med),
        "target": f"lower in at least {math.ceil(CLAIM_SHARE * n)} of {n} pairs, and the "
                  "medians differ by more than the parent's IQR",
        "met": claim_met(parent_runs, change_runs),
        "parent_runs": [sig6(v) for v in parent_runs],
        "change_runs": [sig6(v) for v in change_runs],
    }


def second_seed_block(command: str, parent_runs, change_runs) -> dict:
    return {
        "command": command,
        "pairs": len(parent_runs),
        "parent": quartiles(parent_runs),
        "change": quartiles(change_runs),
        "change_lower_in": f"{lower_in(parent_runs, change_runs)}/{len(parent_runs)}",
        "met": claim_met(parent_runs, change_runs),
        "parent_runs": [sig6(v) for v in parent_runs],
        "change_runs": [sig6(v) for v in change_runs],
    }


def values(runs, key: str) -> list[float]:
    """The value of metric ``key`` ("workload.metric") in each run's result."""
    return [run["result"]["metrics"][key]["value"] for run in runs]


def summarize(spec: dict, runs: list[dict], description: str, parent_commit: str,
              command: str, claim: str | None = None, second: list[dict] | None = None,
              second_command: str | None = None) -> dict:
    """The BENCH document of ``runs``: dicts with ``side`` ("parent" or
    "change"), ``pair``, ``seed``, ``result`` (the benchmark's last output
    line) and ``environment``. ``spec`` is BENCHMARK.json's content."""
    sides = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
             for side in ("parent", "change")}
    if [r["pair"] for r in sides["parent"]] != [r["pair"] for r in sides["change"]]:
        raise ValueError("every pair needs a parent and a change run")
    first = sides["change"][0]["result"]["metrics"]
    end_to_end = {}
    for workload in WORKLOADS:
        rows = {}
        for metric in spec["end_to_end"]:
            key = f"{workload}.{metric['name']}"
            if key not in first:
                continue
            rows[metric["name"]] = compare(values(sides["parent"], key),
                                           values(sides["change"], key),
                                           first[key]["unit"], metric["better"],
                                           metric["bound"])
        if rows:
            end_to_end[workload] = rows
    doc = {
        "description": description,
        "parent_commit": parent_commit,
        "command": command,
        "order": "parent first for odd-numbered pairs, the change first for the others",
        "host": f"{os.cpu_count()} cores; BLAS pinned to 1 thread by benchmarks/run.py; "
                "timings scaled to the reference kernel speed",
        "environment": sides["change"][0].get("environment"),
    }
    if claim:
        workload, metric = claim.split(".", 1)
        block = claim_block(workload, metric, first[claim]["unit"],
                            values(sides["parent"], claim), values(sides["change"], claim))
        if second:
            s_sides = {side: sorted((r for r in second if r["side"] == side),
                                    key=lambda r: r["pair"]) for side in ("parent", "change")}
            block["second_seed"] = second_seed_block(
                second_command, values(s_sides["parent"], claim),
                values(s_sides["change"], claim))
        doc["claim"] = block
    doc["pairs"] = {
        "seeds": [r["seed"] for r in sides["change"]],
        "attempted": {s: sum(r["result"]["attempted"] for r in sides[s]) for s in sides},
        "failed": {s: sum(r["result"]["failed"] for r in sides[s]) for s in sides},
        "correct": {s: all(r["result"]["correct"] for r in sides[s]) for s in sides},
        "end_to_end": end_to_end,
    }
    return doc


def benchmark_command(workload: str, seed: int) -> list[str]:
    return ["python3", "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS)]


def with_workload_keys(result: dict, workload: str) -> dict:
    """``result`` with its metrics named "workload.metric", as a run of
    ``--workload all`` names them; a run of one workload names them
    "metric"."""
    metrics = {key if "." in key else f"{workload}.{key}": value
               for key, value in result["metrics"].items()}
    return {**result, "metrics": metrics}


def run_benchmark(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``: its result line and its environment."""
    proc = subprocess.run(benchmark_command(workload, seed), cwd=tree,
                          stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line.split(" ", 2)[2]) for line in lines
                if line.startswith("# environment ")), None)
    return {"result": with_workload_keys(json.loads(lines[-1]), workload),
            "environment": env}


def series(trees: dict, workload: str, seed: int, pairs: int) -> list[dict]:
    """``pairs`` alternating pairs of runs of ``workload`` on ``seed``."""
    runs = []
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            run = run_benchmark(trees[side], workload, seed)
            run.update(side=side, pair=pair, seed=seed)
            runs.append(run)
            print(f"{workload} seed {seed} pair {pair} {side}: "
                  f"correct={run['result']['correct']}", file=sys.stderr, flush=True)
    return runs


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    ap.add_argument("--parent", default="HEAD", help="the parent commit (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--claim", help="WORKLOAD.METRIC whose drop the change claims")
    ap.add_argument("--second-seed", type=int)
    ap.add_argument("--second-pairs", type=int, default=5)
    ap.add_argument("--description", default="")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.second_seed is not None and not args.claim:
        raise SystemExit("--second-seed needs --claim")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_commit = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp)
        archive = subprocess.run(["git", "archive", parent_commit], cwd=ROOT,
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        runs = series(trees, "all", args.seed, args.pairs)
        second = second_command = None
        if args.second_seed is not None:
            workload = args.claim.split(".", 1)[0]
            second = series(trees, workload, args.second_seed, args.second_pairs)
            second_command = " ".join(benchmark_command(workload, args.second_seed))
    doc = summarize(spec, runs, args.description, parent_commit,
                    " ".join(benchmark_command("all", args.seed)),
                    args.claim, second, second_command)
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    if args.claim:
        print(f"claim {args.claim}: met={doc['claim']['met']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
