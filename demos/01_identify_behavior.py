#!/usr/bin/env python3
"""Identify a Gaussian trajectory behavior from simulated data.

Simulates the benchmark plant under white-noise excitation, stacks sliding
windows into the data matrix, checks the excitation rank condition, and
compares the estimated window covariance against the exact covariance
implied by the state-space model at steady state.
"""

import numpy as np

from gdpc import behavior, plant, trajectory

L_INI, L_F = 2, 4
WINDOW = L_INI + L_F

model = plant.default_benchmark(process_noise_std=0.05, measurement_noise_std=0.05)
print(f"benchmark plant: n={model.n}, m={model.m}, p={model.p}")

# Long excitation run started from the stationary state distribution.
input_cov = np.eye(model.m)
state_cov = plant.stationary_state_covariance(model, input_cov)
data = plant.simulate(
    model, (np.zeros(model.n), state_cov), 1.0, steps=20000, seed=42
)
dm = trajectory.build_data_matrix(data, L_INI, L_F, mode="hankel")
print(f"data matrix: {dm.matrix.shape[0]} rows x {dm.n_columns} columns")

# Excitation check: noisy outputs make the matrix full rank; the target
# m*L + n is the rank a noiseless run of this plant would give.
target = model.m * WINDOW + model.n
rank = trajectory.excitation_rank(dm, expected=target)
print(f"rank {rank.rank} (noiseless target would be {target}), "
      f"satisfied: {rank.satisfied}")

estimated = behavior.estimate(dm)

# The exact stacked covariance for comparison: stationary state, white
# stacked input, in the data's chronological layout.
exact = behavior.from_state_space(
    model, WINDOW,
    state_cov=state_cov,
    input_cov=np.kron(np.eye(WINDOW), input_cov),
)

err = np.linalg.norm(estimated.cov - exact.cov) / np.linalg.norm(exact.cov)
print(f"relative covariance estimation error over {dm.n_columns} windows: {err:.3%}")

estimated.save_json("/tmp/benchmark_behavior.json")
print("estimated behavior cached to /tmp/benchmark_behavior.json")
