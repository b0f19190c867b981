"""Gaussian trajectory behaviors for data-driven predictive control.

The package models finite-length trajectories of a stochastic LTI system as
a multivariate Gaussian, estimates that model directly from recorded data,
conditions it to predict future outputs, and builds five predictive
controllers on top: the classical subspace predictor (spc), its expected
cost twin (certainty_equivalence, spc plus a constant trace term),
regularized data-combination control (deepc), the distributionally
optimistic formulation it is in disguise (optimistic), and a
distributionally robust formulation with a certified convex reformulation.

Quick start::

    import numpy as np
    from gdpc import plant, trajectory, behavior, control

    model = plant.default_benchmark()
    data = plant.simulate(model, np.zeros(model.n), 1.0, steps=400, seed=0)
    dm = trajectory.build_data_matrix(data, l_ini=3, l_f=8)
    pm = behavior.predictive_model(dm)
    cp = control.ControlProblem.from_step_weights(
        model.dims, 3, 8, q_diag=1.0, r_diag=0.05, y_ref=1.0
    )
    w_ini = data.samples[-3:].reshape(-1)
    result = control.robust(pm, w_ini, cp, lam=1e4)
"""

from .behavior import (
    ConditionalGaussian,
    GaussianBehavior,
    PredictiveModel,
    condition,
    estimate,
    from_state_space,
    kl_divergence,
    log_likelihood,
    predictive_model,
    sample,
)
from .control import (
    ControlProblem,
    ControlResult,
    certainty_equivalence,
    deepc,
    hessian,
    lambda_threshold,
    optimistic,
    robust,
    spc,
)
from .errors import (
    ConfigError,
    GdpcError,
    InfeasibleProblem,
    InvalidMatrix,
    LambdaTooSmall,
    NotPositiveDefinite,
    ParseError,
    ShapeError,
    TooShort,
    UnstableSystem,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    load_config,
    run_closed_loop,
    sweep_lambda,
)
from .plant import (
    BlockOperators,
    StochasticLtiModel,
    build_block_operators,
    default_benchmark,
    simulate,
    step,
)
from .qp import QpProblem, QpSettings, QpSolution, condition_report, l1_epigraph, solve
from .trajectory import (
    DataMatrix,
    SignalDims,
    Trajectory,
    assemble,
    build_data_matrix,
    excitation_rank,
    load_csv,
    save_csv,
    window_trajectory,
)
from .verify import VerifyReport, verify

__version__ = "0.1.0"
