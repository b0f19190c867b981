#!/usr/bin/env python3
"""Compare the five control formulations on one open-loop instance.

Solves the same tracking problem with the subspace predictor controller,
its expected-cost twin, regularized data-combination control, and the
distributionally optimistic/robust pair, then sweeps the ambiguity weight
to show both robustified formulations collapsing onto certainty
equivalence as the weight grows.
"""

import numpy as np

from gdpc import behavior, control, plant, trajectory

L_INI, L_F = 2, 5

model = plant.default_benchmark(process_noise_std=0.05, measurement_noise_std=0.1)
data = plant.simulate(model, np.zeros(model.n), 1.0, steps=400, seed=3)
dm = trajectory.build_data_matrix(data, L_INI, L_F)
pm = behavior.predictive_model(dm)
w_ini = data.samples[-L_INI:].reshape(-1)

cp = control.ControlProblem.from_step_weights(
    model.dims, L_INI, L_F, q_diag=1.0, r_diag=0.05,
    y_ref=1.0, u_min=-2.0, u_max=2.0,
)

lambda0 = control.lambda_threshold(pm, cp)
print(f"certified robust weight threshold: lambda0 = {lambda0:.4g}")

lam = 4.0 * max(lambda0, 1.0)
lambda_g = lam * dm.n_columns / 2.0  # the matching data-combination weight

results = {
    "spc": control.spc(pm, w_ini, cp),
    "certainty equivalence": control.certainty_equivalence(pm, w_ini, cp),
    "deepc (projected)": control.deepc(dm, w_ini, cp, "proj2", lambda_g),
    "optimistic": control.optimistic(pm, w_ini, cp, lam),
    "robust": control.robust(pm, w_ini, cp, lam),
}

print("\ncontroller               first input    objective")
for name, res in results.items():
    print(f"{name:<24} {res.u_f[0]: .6f}     {res.objective: .6f}")

gap = np.max(np.abs(results["deepc (projected)"].u_f - results["optimistic"].u_f))
print(f"\ndeepc vs optimistic input gap at matched weights: {gap:.2e}")

print("\nweight sweep: distance of planned input to certainty equivalence")
ce = results["certainty equivalence"]
print("lambda       optimistic      robust")
for lam_i in [1e1, 1e3, 1e5, 1e7, 1e10]:
    try:
        d_opt = np.max(np.abs(control.optimistic(pm, w_ini, cp, lam_i).u_f - ce.u_f))
        d_rob = np.max(np.abs(control.robust(pm, w_ini, cp, lam_i).u_f - ce.u_f))
        print(f"{lam_i:9.0e}   {d_opt:.3e}      {d_rob:.3e}")
    except control.LambdaTooSmall as exc:
        print(f"{lam_i:9.0e}   below certified threshold ({exc.lambda0:.3g})")
