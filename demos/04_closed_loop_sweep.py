#!/usr/bin/env python3
"""Receding-horizon simulation and a weight sweep through the harness.

Runs the closed loop for each controller on the benchmark plant, then
sweeps the optimistic controller's ambiguity weight over a log grid and
reports the realized cost per cell (mean over seeded repetitions).
"""

from gdpc.harness import config_from_dict, run_closed_loop, sweep_lambda

BASE = {
    "schema": 1,
    "data": {"steps": 400, "mode": "hankel", "input_std": 1.0, "seed": 11},
    "horizons": {"L_ini": 3, "L_f": 8},
    "control": {"controller": "spc", "q": 1.0, "r": 0.05, "y_ref": 1.0,
                "u_min": -3.0, "u_max": 3.0, "lambda": 100.0},
    "run": {"steps": 60, "repetitions": 5, "seed": 500},
}

print("controller    realized cost (one seeded run)")
for name, lam in [("spc", None), ("ce", None), ("deepc", 20.0),
                  ("optimistic", 100.0), ("robust", 1e5)]:
    doc = {**BASE, "control": dict(BASE["control"], controller=name)}
    if lam is not None:
        doc["control"]["lambda"] = lam
    record = run_closed_loop(config_from_dict(doc))
    print(f"{name:<12}  {record.realized_cost:.4f}")

print("\noptimistic-weight sweep (5 seeds per cell):")
doc = {**BASE, "control": dict(BASE["control"], controller="optimistic",
                               lambda_grid=[1.0, 10.0, 100.0, 1e4, 1e8])}
cells = sweep_lambda(config_from_dict(doc))
print("lambda      mean cost    std       ok/failed")
for c in cells:
    print(f"{c.lam:9.0e}  {c.mean_cost:9.4f}  {c.std_cost:8.4f}   {c.runs_ok}/{c.runs_failed}")
print("\n(the realized cost flattens toward the certainty-equivalence cost "
      "as the weight grows)")
