"""Numerical certification suites for the model and controller claims.

Each check runs a self-contained randomized experiment with an independent
oracle (Monte-Carlo simulation, finite differences, regression, a direct
KKT solve) and reports the measured residual against its tolerance. The
``mutate`` hook deliberately corrupts one quantity so tests can confirm the
suite actually detects wrongness; it is a verification-of-the-verifier
device, never used in production paths.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import control as ctl
from .behavior import (
    PredictiveModel,
    estimate,
    lq_predictor,
    kl_mean_term,
    log_likelihood,
    predictive_model,
    condition,
    from_state_space,
    sample,
    GaussianBehavior,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    matrix_rank,
    pinv,
    psd_factor,
    spectral_radius,
    sym_eig,
    symmetrize,
)
from .errors import InfeasibleProblem
from .plant import StochasticLtiModel, default_benchmark, gaussian_rows, simulate, step
from .qp import QpProblem, QpSettings, _admm, l1_epigraph, solve
from .trajectory import SignalDims, assemble, block_row_permutation

SUITES = ("lemmas", "theorems", "solver", "all")

MUTATE_COV = "double_pred_cov"
MUTATE_KAPPA = "kappa_without_d"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status}  {c.name}  residual={c.residual:.3e}  tol={c.tolerance:.3e}"
            if c.detail:
                line += f"  [{c.detail}]"
            out.append(line)
        verdict = "all checks passed" if self.all_passed else "CHECKS FAILED"
        out.append(f"suite={self.suite} seed={self.seed}: {verdict}")
        return out


def _random_instance(rng, with_input_box=False, sizes=None, noise_var=0.01, d_factor=None):
    """A random plant with n, m, p states, inputs and outputs (``sizes``, or
    drawn), its data matrix of ``d_factor`` (or drawn, 2 to 4) times as many
    columns as rows and its predictor, from noise of variance
    ``noise_var``, a history window and a tracking problem."""
    # Local import keeps the test-style generator out of library users' way.
    from .trajectory import build_data_matrix

    if sizes is None:
        sizes = tuple(int(rng.integers(1, hi)) for hi in (4, 3, 3))
    n, m, p = sizes
    l_ini, l_f = 2, int(rng.integers(2, 5))
    a = rng.standard_normal((n, n))
    a *= 0.8 / max(spectral_radius(a), 1e-12)
    model = StochasticLtiModel(
        A=a, B=rng.standard_normal((n, m)), C=rng.standard_normal((p, n)),
        D=0.3 * rng.standard_normal((p, m)),
        Sigma_xi=noise_var * np.eye(n), Sigma_eta=noise_var * np.eye(p),
    )
    dims = SignalDims(m, p)
    window = l_ini + l_f
    if d_factor is None:
        d_factor = int(rng.integers(2, 5))
    d_cols = d_factor * dims.q * window
    traj = simulate(model, np.zeros(n), 1.0, steps=window + d_cols - 1,
                    seed=int(rng.integers(2**31)))
    dm = build_data_matrix(traj, l_ini, l_f)
    pm = predictive_model(dm)
    u_min = u_max = None
    if with_input_box:
        half = rng.uniform(0.1, 0.5, size=m)
        u_min, u_max = -half, half
    cp = ctl.ControlProblem.from_step_weights(
        dims, l_ini, l_f,
        q_diag=rng.uniform(0.5, 2.0, size=p),
        r_diag=rng.uniform(0.1, 1.0, size=m),
        u_ref=rng.uniform(-0.5, 0.5, size=m),
        y_ref=rng.uniform(-1.0, 1.0, size=p),
        u_min=u_min, u_max=u_max,
    )
    fresh = simulate(model, np.zeros(n), 1.0, steps=l_ini + 1,
                     seed=int(rng.integers(2**31)))
    w_ini = fresh.samples[-l_ini:].reshape(-1)
    return model, dm, pm, w_ini, cp


# The fixed keys of the checks that draw from a child generator (_child).
_CHILD_KEYS = {
    "simulate_matches_stepwise_recursion": 0,
    "spectral_weights_match_solve_forms": 1,
    "box_qp_matches_independent_oracles": 2,
    "deepc_elimination_matches_joint_qp": 3,
    "optimistic_output_box_matches_precision_form": 4,
    "deepc_l1_matches_epigraph_form": 5,
    "optimistic_output_box_exact_for_singular_covariance": 6,
}


def _child(rng, name: str):
    """A generator seeded from the suite's seed and the fixed key of check
    ``name``: the generator ``rng.spawn`` would give as child number key.
    Unlike ``rng.spawn``, it does not depend on how many checks spawned
    before, so the check draws the same instances in every suite, and it
    leaves ``rng`` as it was, so the checks after it do too."""
    seq = rng.bit_generator.seed_seq
    key = (*seq.spawn_key, _CHILD_KEYS[name])
    return np.random.default_rng(np.random.SeedSequence(seq.entropy, spawn_key=key,
                                                         pool_size=seq.pool_size))


def _rel(a, b, floor=1.0) -> float:
    """max |a - b| over max(floor, max |b|)."""
    return float(np.max(np.abs(a - b))) / max(floor, float(np.max(np.abs(b))))


def _spd(rng, k, scale=1.0):
    b = rng.standard_normal((k, k))
    return scale * (b @ b.T + 0.1 * np.eye(k))


# ---------------------------------------------------------------- lemmas --


def _check_sample_covariance_is_local_mle(rng) -> CheckResult:
    worst = -math.inf
    for _ in range(3):
        k = 4
        target = _spd(rng, k)
        gb_true = GaussianBehavior(SignalDims(1, 1), 2, np.zeros(k), target)
        cols = sample(gb_true, 200, seed=int(rng.integers(2**31)))
        dm = assemble(cols, SignalDims(1, 1), 1, 1)
        gb_hat = estimate(dm)
        base = log_likelihood(gb_hat, dm)
        lam_min = np.linalg.eigvalsh(gb_hat.cov)[0]
        for _ in range(40):
            delta = rng.standard_normal((k, k))
            delta = 0.5 * (delta + delta.T)
            eps = 0.25 * lam_min / np.linalg.norm(delta, 2)
            gb_pert = GaussianBehavior(SignalDims(1, 1), 2, np.zeros(k),
                                       gb_hat.cov + eps * delta)
            worst = max(worst, log_likelihood(gb_pert, dm) - base)
    return CheckResult(
        name="sample_covariance_is_local_mle",
        passed=worst < 0.0,
        residual=worst,
        tolerance=0.0,
        detail="largest log-likelihood gain over PD-preserving perturbations",
    )


def _check_predictor_equals_conditioned_estimate(rng) -> CheckResult:
    _, dm, pm, _, _ = _random_instance(rng)
    gb = estimate(dm)
    worst = 0.0
    for _ in range(4):
        w_ini = rng.standard_normal(dm.dims.q * dm.l_ini)
        u_f = rng.standard_normal(dm.dims.m * dm.l_f)
        cond = condition(gb, dm.free_rows, np.concatenate([w_ini, u_f]))
        worst = max(worst, float(np.max(np.abs(pm.predict_mean(w_ini, u_f) - cond.mean))))
        worst = max(worst, float(np.max(np.abs(pm.cov - cond.cov))))
    return CheckResult(
        name="predictor_equals_conditioned_estimate",
        passed=worst <= 1e-8,
        residual=worst,
        tolerance=1e-8,
    )


def _check_conditioning_matches_monte_carlo_regression(rng) -> CheckResult:
    k, n_free, n_samp = 4, 2, 200_000
    cov = _spd(rng, k)
    mean = rng.standard_normal(k)
    gb = GaussianBehavior(SignalDims(1, 1), 2, mean, cov)
    value = rng.standard_normal(n_free)
    cond = condition(gb, np.arange(n_free), value)
    cols = sample(gb, n_samp, seed=int(rng.integers(2**31)))
    free_s, dep_s = cols[:n_free].T, cols[n_free:].T
    design = np.column_stack([np.ones(n_samp), free_s])
    beta, _, _, _ = np.linalg.lstsq(design, dep_s, rcond=None)
    point = np.concatenate([[1.0], value])
    mc_mean = beta.T @ point
    resid = dep_s - design @ beta
    mc_cov = resid.T @ resid / (n_samp - design.shape[1])
    leverage = float(point @ np.linalg.solve(design.T @ design, point))
    se = np.sqrt(np.diag(mc_cov) * leverage)
    mean_sigmas = float(np.max(np.abs(mc_mean - cond.mean) / se))
    cov_err = float(np.linalg.norm(mc_cov - cond.cov) / np.linalg.norm(cond.cov))
    passed = mean_sigmas <= 3.0 and cov_err <= 0.05
    return CheckResult(
        name="conditioning_matches_monte_carlo_regression",
        passed=passed,
        residual=max(mean_sigmas / 3.0, cov_err / 0.05),
        tolerance=1.0,
        detail=f"mean offset {mean_sigmas:.2f} standard errors, cov error {cov_err:.3%}",
    )


def _check_state_space_window_covariance_monte_carlo(rng) -> CheckResult:
    n, m, p, window = 2, 1, 1, 3
    a = rng.standard_normal((n, n))
    a *= 0.75 / max(spectral_radius(a), 1e-12)
    model = StochasticLtiModel(
        A=a, B=rng.standard_normal((n, m)), C=rng.standard_normal((p, n)),
        D=0.2 * rng.standard_normal((p, m)),
        Sigma_xi=0.05 * np.eye(n), Sigma_eta=0.03 * np.eye(p),
    )
    state_cov = _spd(rng, n, 0.5)
    input_cov = _spd(rng, m * window, 0.8)
    gb = from_state_space(model, window, state_cov=state_cov, input_cov=input_cov)
    n_mc = 100_000
    chol_x = np.linalg.cholesky(state_cov)
    chol_u = np.linalg.cholesky(input_cov)
    local = np.random.default_rng(int(rng.integers(2**31)))
    x = local.standard_normal((n_mc, n)) @ chol_x.T
    u_all = local.standard_normal((n_mc, m * window)) @ chol_u.T
    ys = np.empty((n_mc, p * window))
    for t in range(window):
        xi = local.multivariate_normal(np.zeros(n), model.Sigma_xi, size=n_mc)
        eta = local.multivariate_normal(np.zeros(p), model.Sigma_eta, size=n_mc)
        u_t = u_all[:, t * m : (t + 1) * m]
        ys[:, t * p : (t + 1) * p] = x @ model.C.T + u_t @ model.D.T + eta
        x = x @ model.A.T + u_t @ model.B.T + xi
    stacked = np.hstack([u_all, ys])  # blocked: all inputs, then all outputs
    empirical = stacked.T @ stacked / n_mc
    b = block_row_permutation(model.dims, 0, window)
    blocked = gb.cov[np.ix_(b, b)]
    err = float(np.linalg.norm(empirical - blocked) / np.linalg.norm(blocked))
    return CheckResult(
        name="state_space_window_covariance_monte_carlo",
        passed=err <= 0.05,
        residual=err,
        tolerance=0.05,
        detail=f"{n_mc} simulated windows",
    )


def _check_singular_covariance_restricts_support(rng) -> CheckResult:
    k, d = 6, 2
    basis = rng.standard_normal((k, d))
    cov = basis @ _spd(rng, d) @ basis.T
    gb = GaussianBehavior(SignalDims(1, 1), 3, np.zeros(k), cov)
    rank = matrix_rank(cov)
    cols = sample(gb, 100, seed=int(rng.integers(2**31)))
    projector = basis @ pinv(basis)
    offset = float(np.abs(cols - projector @ cols).max())
    scale = max(1.0, float(np.abs(cols).max()))
    passed = rank == d and offset <= 1e-8 * scale
    return CheckResult(
        name="singular_covariance_restricts_support",
        passed=passed,
        residual=offset / scale,
        tolerance=1e-8,
        detail=f"rank {rank} (target {d})",
    )


def _stepwise_rollout(model, x0, u_policy, steps, seed) -> np.ndarray:
    """The samples of ``simulate(model, x0, u_policy, steps, seed)`` from a
    per-sample ``step`` loop: the same four seeded streams and noise draws,
    with the input of step t taken when step t runs."""
    rng_x0, rng_u, rng_xi, rng_eta = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]
    if isinstance(x0, tuple):
        x = np.asarray(x0[0], dtype=float) + psd_factor(x0[1]) @ rng_x0.standard_normal(model.n)
    else:
        x = np.asarray(x0, dtype=float)
    if np.isscalar(u_policy):
        u_policy = float(u_policy) * rng_u.standard_normal((steps, model.m))
    xi = gaussian_rows(rng_xi, psd_factor(model.Sigma_xi), steps)
    eta = gaussian_rows(rng_eta, psd_factor(model.Sigma_eta), steps)
    rows = []
    for t in range(steps):
        u = u_policy(t, rng_u) if callable(u_policy) else u_policy[t]
        x, y = step(model, x, u, xi[t], eta[t])
        rows.append(np.concatenate([np.asarray(u, dtype=float).reshape(model.m), y]))
    return np.array(rows)


def _check_simulate_matches_stepwise_recursion(rng) -> CheckResult:
    """``simulate`` against a per-sample ``step`` rollout on random MIMO
    plants (m, p <= 3) for array, scalar and callable input policies, from
    an exact and from a sampled (mean, cov) initial state, then on one long
    (2 000 samples) run of a slow plant (spectral radius 0.995), where the
    banded forward substitution's rounding has the longest memory. Draws
    from its own child generator (``_child``)."""
    local = _child(rng, "simulate_matches_stepwise_recursion")
    worst, rollouts = 0.0, 0

    def random_model(n, m, p, radius):
        a = local.standard_normal((n, n))
        a *= radius / max(spectral_radius(a), 1e-12)
        xi_basis = local.standard_normal((n, n))
        return StochasticLtiModel(
            A=a, B=local.standard_normal((n, m)), C=local.standard_normal((p, n)),
            D=local.standard_normal((p, m)), Sigma_xi=0.1 * xi_basis @ xi_basis.T,
            Sigma_eta=_spd(local, p, 0.1),
        )

    def compare(model, x0, policy, steps):
        nonlocal worst, rollouts
        seed = int(local.integers(2**31))
        got = simulate(model, x0, policy, steps, seed).samples
        want = _stepwise_rollout(model, x0, policy, steps, seed)
        scale = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
        rollouts += 1

    for _ in range(6):
        n, m, p = (int(k) for k in local.integers(1, 4, size=3))
        steps = int(local.integers(1, 40))
        model = random_model(n, m, p, 0.9)
        policies = (
            local.standard_normal((steps, m)),
            float(local.uniform(0.5, 2.0)),
            lambda t, r, m=m: np.sin(0.3 * t + np.arange(m)) + r.standard_normal(m),
        )
        starts = (local.standard_normal(n), (local.standard_normal(n), _spd(local, n)))
        for policy in policies:
            for x0 in starts:
                compare(model, x0, policy, steps)
    compare(random_model(4, 2, 2, 0.995), local.standard_normal(4), 1.0, 2000)
    return CheckResult(
        name="simulate_matches_stepwise_recursion",
        passed=worst <= 1e-12,
        residual=worst,
        tolerance=1e-12,
        detail=f"{rollouts} rollouts",
    )


# -------------------------------------------------------------- theorems --


def _certainty_equivalence_oracle(pm, w_ini, cp):
    """(u, expected cost) of the certainty-equivalence problem solved in the
    constrained (u, mean) form: minimize ||u - u_ref||_R^2
    + ||mean - y_ref||_Q^2 subject to mean = M_u u + M_ini w_ini and the
    boxes, then add tr(Q cov). ``control.certainty_equivalence`` eliminates
    the mean instead, so this is a second, independent computation."""
    w = np.asarray(w_ini, dtype=float).reshape(-1)
    bias = pm.M_ini @ w
    nu, ny = cp.n_u, cp.n_y
    p_mat = np.zeros((nu + ny, nu + ny))
    p_mat[:nu, :nu] = 2.0 * cp.R
    p_mat[nu:, nu:] = 2.0 * cp.Q
    q_vec = np.concatenate([-2.0 * cp.R @ cp.u_ref, -2.0 * cp.Q @ cp.y_ref])
    y_lower = cp.y_lower if cp.has_output_box else np.full(ny, -np.inf)
    y_upper = cp.y_upper if cp.has_output_box else np.full(ny, np.inf)
    sol = solve(QpProblem(
        P=p_mat, q=q_vec, A_eq=np.hstack([-pm.M_u, np.eye(ny)]), b_eq=bias,
        lower=np.concatenate([cp.u_lower, y_lower]),
        upper=np.concatenate([cp.u_upper, y_upper]),
    ))
    u = sol.x[:nu]
    return u, cp.tracking_cost(u, pm.M_u @ u + bias) + float(np.trace(cp.Q @ pm.cov))


def _check_spc_equals_certainty_equivalence(rng) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        _, dm, pm, w_ini, cp = _random_instance(rng)
        a = ctl.spc(pm, w_ini, cp)
        u_ce, objective_ce = _certainty_equivalence_oracle(pm, w_ini, cp)
        worst = max(worst, float(np.max(np.abs(a.u_f - u_ce))))
        trace = float(np.trace(cp.Q @ pm.cov))
        worst = max(worst, abs(objective_ce - a.objective - trace))
    return CheckResult(
        name="spc_equals_certainty_equivalence",
        passed=worst <= 1e-8,
        residual=worst,
        tolerance=1e-8,
    )


def _lstsq_predictor(dm) -> PredictiveModel:
    """Least-squares fit of Y_f on [W_p; U_f] over the raw data columns and
    its residual Gram matrix over D: the predictor computed without the LQ
    factor that both ``predictive_model`` and ``deepc`` use."""
    free, dep = dm.free_block, dm.future_outputs
    coeff = np.linalg.lstsq(free.T, dep.T, rcond=None)[0].T
    resid = dep - coeff @ free
    n_ini = dm.dims.q * dm.l_ini
    return PredictiveModel(M_u=coeff[:, n_ini:], M_ini=coeff[:, :n_ini],
                           cov=resid @ resid.T / dm.n_columns)


def _check_projected_deepc_equals_optimistic(rng, mutate=None) -> CheckResult:
    """deepc with proj2 against optimistic at lam = 2 lambda_g / D on the
    least-squares predictor of ``_lstsq_predictor``: plan and Y_f g
    against optimistic's mean, and the kernel component of g. Both
    controllers form their weight in ``control._tethered_input_qp``, so
    this compares the predictors and deepc's recovery of g, not two
    computations of the weight; ``deepc_elimination_matches_joint_qp`` and
    ``spectral_weights_match_solve_forms`` check the weight independently.
    ``mutate`` ``"double_pred_cov"`` doubles optimistic's covariance."""
    worst = 0.0
    g_hom_worst = 0.0
    for _ in range(5):
        _, dm, _, w_ini, cp = _random_instance(rng, with_input_box=True)
        pm = _lstsq_predictor(dm)
        if mutate == MUTATE_COV:
            pm = replace(pm, cov=2.0 * pm.cov)
        lambda_g = float(rng.uniform(0.5, 10.0))
        res_deepc = ctl.deepc(dm, w_ini, cp, "proj2", lambda_g)
        res_opt = ctl.optimistic(pm, w_ini, cp, lam=2.0 * lambda_g / dm.n_columns)
        worst = max(worst, _rel(res_deepc.u_f, res_opt.u_f),
                    _rel(dm.future_outputs @ res_deepc.g, res_opt.y_pred.mean))
        full = dm.matrix
        hom = res_deepc.g - pinv(full) @ (full @ res_deepc.g)
        g_hom_worst = max(g_hom_worst, float(np.linalg.norm(hom)))
    passed = worst <= 1e-5 and g_hom_worst <= 1e-6
    return CheckResult(
        name="projected_deepc_equals_optimistic",
        passed=passed,
        residual=worst,
        tolerance=1e-5,
        detail=f"kernel component of g: {g_hom_worst:.2e} (tol 1e-6)",
    )


def _joint_deepc(dm, cp, regularizer, lambda_g, rank_tol=DEFAULT_RANK_TOL):
    """deepc with proj2 or sq2 as the joint QP over (beta, u, y), beta the
    coordinates of g in the row space of the data. With the LQ factor
    W = L Q^T and the SVD of L cut at ``rank_tol`` times its largest
    singular value, L ~ U_t S_t V_t^T, g = Q V_t beta and W g = z =
    [w_ini; u; y] reads beta = S_t^-1 U_t^T z and N^T z = 0, N spanning the
    complement of U_t. Those are the equality rows, the second reduced by
    an SVD of its (u, y) columns, cut at ``rank_tol``, to the independent
    ones in (u, y) (on noiseless data the dropped rows tie w_ini alone).
    The penalty is lambda_g ||(I - L_F^+ L_F) V_t beta||^2 (proj2) or
    lambda_g ||beta||^2 (sq2).
    Without the cuts, noiseless data's rounding-noise directions would leave
    y free at no cost. ``control.deepc`` parametrizes g by the predictor and
    the fit's residual instead, so this is a second computation: it shares
    with deepc only the data, factors them itself by ``np.linalg.qr`` into
    its own basis Q and factor L, and forms its own predictor
    (:func:`lq_predictor`). Returns the set-up's step, (w_ini, settings) ->
    (u, mean, cov, objective, solution, g), in the form of
    ``control._deepc_setup``."""
    basis, upper = np.linalg.qr(dm.ordered.T)
    l_fac = upper.T
    pm, free_pinv = lq_predictor(dm, l_fac, rank_tol)
    n_free, n_ini, nu, ny = free_pinv.shape[1], dm.dims.q * dm.l_ini, cp.n_u, cp.n_y
    left, sing, right_t = np.linalg.svd(l_fac)
    t = int(np.count_nonzero(sing > rank_tol * sing[0]))
    to_beta = left[:, :t].T / sing[:t, None]  # z -> beta
    comp = left[:, t:].T  # N^T, orthonormal rows
    rows, row_sing, _ = np.linalg.svd(comp[:, n_ini:], full_matrices=False)
    comp = rows[:, row_sing > rank_tol].T @ comp
    a_eq = np.block([[np.eye(t), -to_beta[:, n_ini:]],
                     [np.zeros((comp.shape[0], t)), comp[:, n_ini:]]])
    b_map = np.vstack([to_beta[:, :n_ini], -comp[:, :n_ini]])
    # Subtract from the beta rows the complement rows times T, which takes
    # out the part of their y coefficients that the complement rows fix.
    # That part, 1/S_t-sized on data with a weakly excited direction, would
    # make the KKT matrix ill-conditioned; the feasible set is unchanged.
    shift = -to_beta[:, n_ini + nu :] @ pinv(comp[:, n_ini + nu :])  # T
    a_eq[:t] -= shift @ a_eq[t:]
    b_map[:t] -= shift @ b_map[t:]
    if regularizer == "proj2":
        off_free = right_t[:t].T - free_pinv @ (l_fac[:n_free] @ right_t[:t].T)
        reg_block = lambda_g * symmetrize(off_free.T @ off_free)
    else:
        reg_block = lambda_g * np.eye(t)
    p_mat = np.zeros((t + nu + ny, t + nu + ny))
    p_mat[:t, :t] = 2.0 * reg_block
    p_mat[t : t + nu, t : t + nu] = 2.0 * cp.R
    p_mat[t + nu :, t + nu :] = 2.0 * cp.Q
    q_vec = np.concatenate([np.zeros(t), -2.0 * cp.R @ cp.u_ref, -2.0 * cp.Q @ cp.y_ref])
    y_lower = cp.y_lower if cp.has_output_box else np.full(ny, -np.inf)
    y_upper = cp.y_upper if cp.has_output_box else np.full(ny, np.inf)
    template = QpProblem(P=p_mat, q=q_vec, A_eq=a_eq, b_eq=np.zeros(a_eq.shape[0]),
                         lower=np.concatenate([np.full(t, -np.inf), cp.u_lower, y_lower]),
                         upper=np.concatenate([np.full(t, np.inf), cp.u_upper, y_upper]))

    def step(w, settings):
        sol = ctl._run_qp(template.updated(b_eq=b_map @ w), settings)
        beta, u, y = sol.x[:t], sol.x[t : t + nu], sol.x[t + nu :]
        objective = cp.tracking_cost(u, y) + float(beta @ reg_block @ beta)
        return u, y, pm.cov, objective, sol, basis @ (right_t[:t].T @ beta)

    return step


def _binding_output_box(pm, w_ini, cp):
    """``cp`` with an output box that spc's unboxed plan violates and that
    the mean of u = 0 meets strictly: each bound halfway between the two
    means where they differ, else 1 beyond the mean of u = 0. u = 0 lies in
    the input box of ``_random_instance``, so every deepc form is feasible."""
    free = pm.M_ini @ w_ini
    planned = ctl.spc(pm, w_ini, cp).y_pred.mean
    mid = 0.5 * (free + planned)
    return replace(cp, y_lower=np.where(planned < free, mid, free - 1.0),
                   y_upper=np.where(planned > free, mid, free + 1.0))


def _check_deepc_elimination_matches_joint_qp(rng, mutate=None) -> CheckResult:
    """``deepc`` with proj2 and sq2 against the joint (beta, u, y) QP of
    ``_joint_deepc`` on the same data: plan, mean and objective to 1e-9
    relative, g to 1e-7. deepc solves the input QP for proj2 with lambda_g
    > 0 and no output box, and the (u, s, y) QP otherwise; each case's QP
    size is checked against its route. Noisy instances of random size,
    rank-deficient (noiseless) SISO and MIMO data and a 3x3 plant, each at
    lambda_g 0 and from 1e-3 to 5e4, without and with a binding output box
    (``_binding_output_box``). ``mutate`` ``"kappa_without_d"`` runs deepc
    at lambda_g D, which for the eliminated side is kappa = lambda_g instead
    of lambda_g / D. Draws from its own child generator (``_child``)."""
    local = _child(rng, "deepc_elimination_matches_joint_qp")
    instances = [_random_instance(local, with_input_box=True) for _ in range(2)]
    instances += [_random_instance(local, with_input_box=True, sizes=sizes, noise_var=var)
                  for sizes, var in (((2, 1, 1), 0.0), ((2, 2, 2), 0.0), ((3, 3, 3), 0.01))]
    worst, worst_g, statuses, routed, binding = 0.0, 0.0, set(), True, 0
    for _, dm, pm, w_ini, cp in instances:
        for problem in (cp, _binding_output_box(pm, w_ini, cp)):
            for regularizer in ("proj2", "sq2"):
                for lambda_g in (0.0, 1e-3, 0.5, 50.0, 5e4):
                    scaled = lambda_g * dm.n_columns if mutate == MUTATE_KAPPA else lambda_g
                    res = ctl.deepc(dm, w_ini, problem, regularizer, scaled)
                    u, y, _, objective, sol, g = _joint_deepc(
                        dm, problem, regularizer, lambda_g)(w_ini, None)
                    statuses.update((sol.status, res.solver.status))
                    eliminated = (regularizer == "proj2" and lambda_g > 0.0
                                  and not problem.has_output_box)
                    size = res.solver.x.size - problem.n_u
                    routed &= size == 0 if eliminated else problem.n_y <= size <= 2 * problem.n_y
                    if problem.has_output_box:
                        binding += bool(np.any(res.y_pred.mean >= problem.y_upper)
                                        or np.any(res.y_pred.mean <= problem.y_lower))
                    worst = max(worst, _rel(res.u_f, u), _rel(res.y_pred.mean, y),
                                _rel(res.objective, objective))
                    worst_g = max(worst_g, _rel(res.g, g))
    return CheckResult(
        name="deepc_elimination_matches_joint_qp",
        passed=(worst <= 1e-9 and worst_g <= 1e-7 and statuses == {"optimal"}
                and routed and binding > 0),
        residual=worst,
        tolerance=1e-9,
        detail=(f"g {worst_g:.1e} (tol 1e-7), statuses {sorted(statuses)}, "
                f"QP sizes match the routes: {routed}, output box binds in {binding} solves"),
    )


def _l1_epigraph_deepc(dm, cp, lambda_g):
    """deepc with l1 and lambda_g > 0 in its epigraph form: the QP over the
    raw D-column g, u and y, with P zero on g, the rows W g = [w_ini; u; y]
    from ``dm.ordered`` and the tracking cost's blocks, assembled here and
    augmented by :func:`~gdpc.qp.l1_epigraph` with a free copy of g, two
    nonnegative halves and D link rows. ``control.deepc`` poses the same
    problem on the halves alone, so this is a second construction that
    shares with it only the data. Returns the step, w_ini -> (u, y,
    objective, solution), solved at the default settings."""
    d, n_ini, nu, ny = dm.n_columns, dm.dims.q * dm.l_ini, cp.n_u, cp.n_y
    n = d + nu + ny
    p_mat = np.zeros((n, n))
    p_mat[d : d + nu, d : d + nu] = 2.0 * cp.R
    p_mat[d + nu :, d + nu :] = 2.0 * cp.Q
    q_vec = np.concatenate([np.zeros(d), -2.0 * cp.R @ cp.u_ref, -2.0 * cp.Q @ cp.y_ref])
    a_eq = np.hstack([dm.ordered, np.vstack([np.zeros((n_ini, nu + ny)), -np.eye(nu + ny)])])
    y_lower = cp.y_lower if cp.has_output_box else np.full(ny, -np.inf)
    y_upper = cp.y_upper if cp.has_output_box else np.full(ny, np.inf)
    raw = QpProblem(P=p_mat, q=q_vec, A_eq=a_eq, b_eq=np.zeros(a_eq.shape[0]),
                    lower=np.concatenate([np.full(d, -np.inf), cp.u_lower, y_lower]),
                    upper=np.concatenate([np.full(d, np.inf), cp.u_upper, y_upper]))
    template, keep = l1_epigraph(raw, lambda_g, np.arange(d))
    b_tail = np.zeros(template.n_eq - n_ini)

    def step(w):
        sol = solve(template.updated(b_eq=np.concatenate([w, b_tail])))
        g, u, y = np.split(sol.x[keep], [d, d + nu])
        return u, y, cp.tracking_cost(u, y) + lambda_g * float(np.abs(g).sum()), sol

    return step


def _check_deepc_l1_matches_epigraph_form(rng) -> CheckResult:
    """``deepc`` with l1 against its epigraph form (``_l1_epigraph_deepc``):
    plan and objective to 1e-7 relative. deepc's answer must also carry its
    own optimality certificate, read from its solution and the data alone:
    with nu the multipliers of the rows W g = [w_ini; u; y], those rows hold
    to 1e-9 relative, |W_j^T nu| <= lambda_g (1 + 1e-6) for every column,
    and W_j^T nu = -lambda_g sign(g_j) to 1e-6 relative on the support
    (|g_j| above 1e-9 max |g|). Noisy SISO data (D 32 to 48) and a noisy
    3x3 plant (D 48 to 72), at lambda_g 0.5 and 50, without and with a
    binding output box (``_binding_output_box``); every solve must end
    optimal. Noiseless data are not among them: there ADMM, on either form,
    can end ``max_iter`` or stop unpolished 1e-5 from the optimum. Draws
    from its own child generator (``_child``)."""
    local = _child(rng, "deepc_l1_matches_epigraph_form")
    instances = [_random_instance(local, with_input_box=True, sizes=sizes, d_factor=k)
                 for sizes, k in (((2, 1, 1), 4), ((3, 3, 3), 2))]
    worst, rows, bound, support, statuses = 0.0, 0.0, 0.0, 0.0, set()
    for _, dm, pm, w_ini, cp in instances:
        w_mat = dm.ordered
        for problem in (cp, _binding_output_box(pm, w_ini, cp)):
            for lambda_g in (0.5, 50.0):
                res = ctl.deepc(dm, w_ini, problem, "l1", lambda_g)
                u, y, objective, sol = _l1_epigraph_deepc(dm, problem, lambda_g)(w_ini)
                statuses.update((sol.status, res.solver.status))
                worst = max(worst, _rel(res.u_f, u), _rel(res.y_pred.mean, y),
                            _rel(res.objective, objective))
                target = np.concatenate([w_ini, res.u_f, res.y_pred.mean])
                rows = max(rows, _rel(w_mat @ res.g, target))
                pressure = w_mat.T @ res.solver.eq_duals  # W_j^T nu
                bound = max(bound, float(np.max(np.abs(pressure))) / lambda_g - 1.0)
                on = np.abs(res.g) > 1e-9 * np.max(np.abs(res.g))
                support = max(support, float(np.max(
                    np.abs(pressure[on] + lambda_g * np.sign(res.g[on])), initial=0.0)) / lambda_g)
    residual = max(worst / 1e-7, rows / 1e-9, bound / 1e-6, support / 1e-6)
    return CheckResult(
        name="deepc_l1_matches_epigraph_form",
        passed=residual <= 1.0 and statuses == {"optimal"},
        residual=residual,
        tolerance=1.0,
        detail=(f"plan/objective {worst:.1e} (tol 1e-7), rows {rows:.1e} (tol 1e-9), "
                f"max |W^T nu| / lambda_g - 1 {bound:.1e} (tol 1e-6), support "
                f"{support:.1e} (tol 1e-6), statuses {sorted(statuses)}"),
    )


def _check_robust_dual_bounds_sampled_ball(rng) -> CheckResult:
    worst = -math.inf
    for _ in range(5):
        _, dm, pm, w_ini, cp = _random_instance(rng)
        lam = 1.3 * max(ctl.lambda_threshold(pm, cp), 0.5)
        res = ctl.robust(pm, w_ini, cp, lam=lam)
        mu_star = res.y_pred.mean
        mu_hat = pm.predict_mean(w_ini, res.u_f)
        radius = kl_mean_term(mu_star, mu_hat, pm.cov)
        trace = float(np.trace(cp.Q @ pm.cov))
        dual_value = cp.tracking_cost(res.u_f, mu_star) + trace
        dec = sym_eig(pm.cov)
        root = dec.vectors * np.sqrt(np.clip(dec.values, 0.0, None))
        k = mu_star.size
        for i in range(500):
            z = rng.standard_normal(k)
            z /= np.linalg.norm(z)
            r = 1.0 if i < 100 else rng.uniform() ** (1.0 / k)
            mu = mu_hat + np.sqrt(2.0 * radius) * r * (root @ z)
            cost = cp.tracking_cost(res.u_f, mu) + trace
            excess = (cost - dual_value) / max(1.0, abs(dual_value))
            worst = max(worst, excess)
    return CheckResult(
        name="robust_dual_bounds_sampled_ball",
        passed=worst <= 1e-6,
        residual=worst,
        tolerance=1e-6,
        detail="largest relative excess of sampled cost over the dual value",
    )


def _check_robust_hessian_matches_finite_differences(rng) -> CheckResult:
    _, dm, pm, _, cp = _random_instance(rng)
    lam = 2.0 * max(ctl.lambda_threshold(pm, cp), 1.0)
    rep = ctl.hessian(pm, cp, lam)
    precision = np.linalg.inv(symmetrize(pm.cov))
    gap = lam * precision - cp.Q
    bias = np.zeros(cp.n_y)

    def eq13(u):
        mu_hat = pm.M_u @ u + bias
        v = lam * precision @ mu_hat - cp.Q @ cp.y_ref
        du = u - cp.u_ref
        return float(v @ np.linalg.solve(gap, v) - lam * mu_hat @ precision @ mu_hat
                     + du @ cp.R @ du)

    nu = cp.n_u
    h = 1e-3
    fd = np.zeros((nu, nu))
    for i in range(nu):
        for j in range(i, nu):
            ei, ej = np.zeros(nu), np.zeros(nu)
            ei[i] = h
            ej[j] = h
            fd[i, j] = fd[j, i] = (
                eq13(ei + ej) - eq13(ei - ej) - eq13(-ei + ej) + eq13(-ei - ej)
            ) / (4 * h * h)
    err = float(np.linalg.norm(fd - 2.0 * rep.matrix) / max(1.0, np.linalg.norm(2.0 * rep.matrix)))
    return CheckResult(
        name="robust_hessian_matches_finite_differences",
        passed=err <= 1e-4,
        residual=err,
        tolerance=1e-4,
    )


def _check_hessian_reduces_to_input_weight_without_output_cost(rng) -> CheckResult:
    _, dm, pm, _, cp0 = _random_instance(rng)
    cp = ctl.ControlProblem(
        dims=cp0.dims, l_ini=cp0.l_ini, l_f=cp0.l_f,
        Q=np.zeros_like(cp0.Q), R=cp0.R, u_ref=cp0.u_ref, y_ref=cp0.y_ref,
    )
    rep = ctl.hessian(pm, cp, lam=3.0)
    err = float(np.max(np.abs(rep.matrix - cp.R)))
    return CheckResult(
        name="hessian_reduces_to_input_weight_without_output_cost",
        passed=err <= 1e-12 and rep.psd,
        residual=err,
        tolerance=1e-12,
    )


def _check_hessian_large_lambda_limit(rng) -> CheckResult:
    worst = 0.0
    for _ in range(3):
        _, dm, pm, _, cp = _random_instance(rng)
        rep = ctl.hessian(pm, cp, lam=1e10)
        limit = cp.R + pm.M_u.T @ cp.Q @ pm.M_u
        worst = max(worst, float(np.linalg.norm(rep.matrix - limit) / np.linalg.norm(limit)))
    return CheckResult(
        name="hessian_large_lambda_limit",
        passed=worst <= 1e-3,
        residual=worst,
        tolerance=1e-3,
        detail="limit is R + M_u' Q M_u",
    )


def _check_lambda_threshold_certificates(rng) -> CheckResult:
    pm = PredictiveModel(M_u=[[1.0]], M_ini=[[0.0, 0.0]], cov=[[2.0]])
    cp = ctl.ControlProblem(dims=SignalDims(1, 1), l_ini=1, l_f=1,
                            Q=[[3.0]], R=[[1.0]], u_ref=[0.0], y_ref=[0.0])
    scalar_err = abs(ctl.lambda_threshold(pm, cp) - 6.0 * (1.0 + 1e-6))
    _, dm, pm2, _, cp2 = _random_instance(rng)
    probe = ctl.lambda_threshold(pm2, cp2) * (1.0 + 1e-6)
    certified = ctl.hessian(pm2, cp2, probe).psd
    return CheckResult(
        name="lambda_threshold_certificates",
        passed=scalar_err <= 1e-9 and certified,
        residual=scalar_err,
        tolerance=1e-9,
        detail="scalar oracle 6*(1+1e-6); PSD certified at returned threshold",
    )


def _check_hessian_dominates_input_weight_above_lambda0(rng) -> CheckResult:
    """For lam >= lambda0 the robust Hessian is at least R, checked by the
    eigenvalues of H - R on sampled instances."""
    worst = -math.inf
    for _ in range(5):
        _, _, pm, _, cp = _random_instance(rng)
        lambda0 = ctl.lambda_threshold(pm, cp)
        for lam in lambda0 * (1.0 + np.array([0.0, 1e-9, 1e-6, 1e-3, 1.0, 1e3])):
            vals = np.linalg.eigvalsh(ctl.hessian(pm, cp, lam).matrix - cp.R)
            worst = max(worst, -float(vals[0]) / max(1.0, abs(float(vals[-1]))))
    return CheckResult(
        name="hessian_dominates_input_weight_above_lambda0",
        passed=worst <= 1e-10,
        residual=worst,
        tolerance=1e-10,
        detail="largest -lambda_min(H - R), relative to max(1, lambda_max)",
    )


def _check_controllers_collapse_to_certainty_equivalence(rng) -> CheckResult:
    _, dm, pm, w_ini, cp = _random_instance(rng)
    ref = ctl.certainty_equivalence(pm, w_ini, cp)
    grid = [1e2, 1e4, 1e6, 1e8, 1e10]
    distances = []
    for lam in grid:
        res_o = ctl.optimistic(pm, w_ini, cp, lam=lam)
        res_r = ctl.robust(pm, w_ini, cp, lam=lam)
        distances.append(
            (
                lam,
                float(np.max(np.abs(res_o.u_f - ref.u_f))),
                float(np.max(np.abs(res_r.u_f - ref.u_f))),
            )
        )
    final = max(distances[-1][1], distances[-1][2])
    detail = "; ".join(f"lam={g:.0e}: opt {a:.1e}, rob {b:.1e}" for g, a, b in distances)
    return CheckResult(
        name="controllers_collapse_to_certainty_equivalence",
        passed=final <= 1e-4,
        residual=final,
        tolerance=1e-4,
        detail=detail,
    )


def _tethered_oracle(pm, w_ini, cp, kappa):
    """(Z, u, mean, objective) of the input QP with the weight Z(kappa) =
    kappa Q (cov Q + kappa I)^-1 of ``control``, in the spectral form: cov =
    L L^T (numpy's Cholesky, so cov must be PD), L^T Q L = V diag(Lambda)
    V^T, W = L^-T V, Z = W diag(kappa Lambda / (kappa + Lambda)) W^T and the
    mean mu_hat - L V diag(Lambda / (kappa + Lambda)) W^T (mu_hat - y_ref).
    Optimistic's at kappa = lam/2; robust's at kappa = -lam before it
    subtracts y_ref' Q y_ref."""
    chol = np.linalg.cholesky(pm.cov)
    values, vectors = np.linalg.eigh(chol.T @ cp.Q @ chol)
    w = np.linalg.solve(chol.T, vectors)
    ratio = values / (kappa + values)
    z = symmetrize((w * (kappa * ratio)) @ w.T)
    bias = pm.M_ini @ w_ini
    lin = pm.M_u.T @ z @ (bias - cp.y_ref) - cp.R @ cp.u_ref
    u = solve(QpProblem(P=2.0 * (cp.R + pm.M_u.T @ z @ pm.M_u), q=2.0 * lin,
                        lower=cp.u_lower, upper=cp.u_upper)).x
    dev, du = pm.M_u @ u + bias - cp.y_ref, u - cp.u_ref
    mean = dev + cp.y_ref - (chol @ vectors * ratio) @ (w.T @ dev)
    return z, u, mean, float(dev @ z @ dev + du @ cp.R @ du)


def _check_spectral_weights_match_solve_forms(rng) -> CheckResult:
    """The weight of ``control._tethered_weight`` against the spectral form
    (``_tethered_oracle``) and the precision forms kappa S (Q + kappa
    S)^-1 Q (optimistic, kappa = lam/2) and Q + Q (lam S - Q)^-1 Q (robust,
    kappa = -lam), with S = inv(L)^T inv(L), and lambda0 against max eig(G Q
    G) (1 + 1e-6), G the symmetric square root of cov, all to 1e-9
    relative. End to end, optimistic's and robust's plans, means and
    objectives against ``_tethered_oracle``, to 1e-9 relative to
    max(1, |oracle|). Noisy instances, with and without an input box; the
    robust weights sit at lambda0 (1.001, 2, 10, 1e3), since at lambda0
    itself lam I - cov Q is too ill-conditioned for two forms to agree to
    1e-9. Draws from its own child generator (``_child``)."""
    local = _child(rng, "spectral_weights_match_solve_forms")
    worst = dict.fromkeys(("lambda0", "weights", "controllers"), 0.0)
    for k in range(6):
        _, _, pm, w_ini, cp = _random_instance(local, with_input_box=k % 2 == 1)
        inv_chol = np.linalg.inv(np.linalg.cholesky(pm.cov))
        precision = inv_chol.T @ inv_chol
        dec = sym_eig(pm.cov)
        root = (dec.vectors * np.sqrt(np.clip(dec.values, 0.0, None))) @ dec.vectors.T
        lambda0 = float(np.max(np.linalg.eigvalsh(root.T @ cp.Q @ root))) * (1.0 + 1e-6)
        worst["lambda0"] = max(worst["lambda0"],
                               _rel(ctl.lambda_threshold(pm, cp), lambda0, 1e-300))
        weights = [(lam, 0.5 * lam, ctl.optimistic, 0.0,
                    0.5 * lam * precision @ np.linalg.solve(cp.Q + 0.5 * lam * precision, cp.Q))
                   for lam in (1e-3, 0.2, 1.0, 10.0, 500.0, 1e4)]
        weights += [(lam, -lam, ctl.robust, float(cp.y_ref @ cp.Q @ cp.y_ref),
                     cp.Q + cp.Q @ np.linalg.solve(lam * precision - cp.Q, cp.Q))
                    for lam in lambda0 * np.array([1.001, 2.0, 10.0, 1e3])]
        for lam, kappa, controller, ref_cost, solved in weights:
            z, u, mean, objective = _tethered_oracle(pm, w_ini, cp, kappa)
            weight = ctl._tethered_weight(pm, cp, kappa)[1]
            worst["weights"] = max(worst["weights"], _rel(weight, solved, 1e-300),
                                   _rel(weight, z, 1e-300))
            res = controller(pm, w_ini, cp, lam)
            worst["controllers"] = max(worst["controllers"], _rel(res.u_f, u),
                                       _rel(res.y_pred.mean, mean),
                                       _rel(res.objective, objective - ref_cost))
    residual = max(worst.values())
    return CheckResult(
        name="spectral_weights_match_solve_forms",
        passed=residual <= 1e-9,
        residual=residual,
        tolerance=1e-9,
        detail=", ".join(f"{k} {v:.1e}" for k, v in worst.items()),
    )


def _optimistic_precision_oracle(pm, w_ini, cp, lam):
    """(u, mean, objective, status) of optimistic with an output box,
    solved as the (u, mean) QP in precision form: S = inv(L)^T inv(L), L
    numpy's Cholesky factor of cov (so cov must be PD), and the tether
    kappa ||mean - M_u u - bias||_S^2, kappa = lam/2. ``control.optimistic``
    builds the same QP from the factor's inverse J = L^-1 [-M_u I] and never
    forms S, so this is a second computation of the QP data."""
    inv_chol = np.linalg.inv(np.linalg.cholesky(pm.cov))
    precision = inv_chol.T @ inv_chol
    kappa = 0.5 * lam
    nu, ny = cp.n_u, cp.n_y
    bias = pm.M_ini @ w_ini
    p_mat = np.zeros((nu + ny, nu + ny))
    p_mat[:nu, :nu] = 2.0 * (cp.R + kappa * pm.M_u.T @ precision @ pm.M_u)
    p_mat[:nu, nu:] = -2.0 * kappa * pm.M_u.T @ precision
    p_mat[nu:, :nu] = p_mat[:nu, nu:].T
    p_mat[nu:, nu:] = 2.0 * (cp.Q + kappa * precision)
    s_bias = precision @ bias
    q_vec = np.concatenate([2.0 * kappa * pm.M_u.T @ s_bias - 2.0 * cp.R @ cp.u_ref,
                            -2.0 * kappa * s_bias - 2.0 * cp.Q @ cp.y_ref])
    sol = solve(QpProblem(P=p_mat, q=q_vec, lower=np.concatenate([cp.u_lower, cp.y_lower]),
                          upper=np.concatenate([cp.u_upper, cp.y_upper])))
    u, mean = sol.x[:nu], sol.x[nu:]
    diff = mean - pm.M_u @ u - bias
    return u, mean, cp.tracking_cost(u, mean) + kappa * float(diff @ precision @ diff), sol.status


def _check_optimistic_output_box_matches_precision_form(rng, mutate=None) -> CheckResult:
    """optimistic with an output box against its (u, mean) QP in precision
    form (``_optimistic_precision_oracle``): plan, mean and objective to
    1e-9 relative, at lam 0.2, 1, 10 and 500, on noisy instances with an
    input box and an output box that binds (``_binding_output_box``). The
    count of solves with a mean on its output bound may not be 0.
    ``mutate`` ``"double_pred_cov"`` doubles optimistic's covariance. Draws
    from its own child generator (``_child``)."""
    local = _child(rng, "optimistic_output_box_matches_precision_form")
    worst, statuses, binding, solves = 0.0, set(), 0, 0
    for _ in range(4):
        _, _, pm, w_ini, cp = _random_instance(local, with_input_box=True)
        boxed = _binding_output_box(pm, w_ini, cp)
        run_pm = replace(pm, cov=2.0 * pm.cov) if mutate == MUTATE_COV else pm
        for lam in (0.2, 1.0, 10.0, 500.0):
            u, mean, objective, status = _optimistic_precision_oracle(pm, w_ini, boxed, lam)
            res = ctl.optimistic(run_pm, w_ini, boxed, lam)
            statuses.update((status, res.solver.status))
            solves += 1
            binding += bool(np.any(res.y_pred.mean >= boxed.y_upper)
                            or np.any(res.y_pred.mean <= boxed.y_lower))
            worst = max(worst, _rel(res.u_f, u), _rel(res.y_pred.mean, mean),
                        _rel(res.objective, objective))
    return CheckResult(
        name="optimistic_output_box_matches_precision_form",
        passed=worst <= 1e-9 and statuses == {"optimal"} and binding > 0,
        residual=worst,
        tolerance=1e-9,
        detail=f"statuses {sorted(statuses)}, output box binds in {binding} of {solves} solves",
    )


def _optimistic_usy_oracle(pm, w_ini, cp, lam):
    """(u, mean, objective, status) of optimistic with an output box, solved
    as the QP over (s, u, y): min ||u - u_ref||_R^2 + ||y - y_ref||_Q^2 +
    kappa ||s||^2 subject to y = M_u u + F s + bias and both boxes, with
    F = ``psd_factor(cov)`` and kappa = lam/2. The mean moves only in the
    range of cov, for a singular cov too, and the QP forms no precision;
    it is built by the validating ``QpProblem`` constructor, apart from
    ``control._tracking_qp`` and the pivoted Cholesky factor."""
    f = psd_factor(pm.cov)
    k, nu, ny = f.shape[1], cp.n_u, cp.n_y
    kappa = 0.5 * lam
    p_mat = np.zeros((k + nu + ny, k + nu + ny))
    p_mat[:k, :k] = 2.0 * kappa * np.eye(k)
    p_mat[k : k + nu, k : k + nu] = 2.0 * cp.R
    p_mat[k + nu :, k + nu :] = 2.0 * cp.Q
    sol = solve(QpProblem(
        P=p_mat, q=np.concatenate([np.zeros(k), -2.0 * cp.R @ cp.u_ref, -2.0 * cp.Q @ cp.y_ref]),
        A_eq=np.hstack([-f, -pm.M_u, np.eye(ny)]), b_eq=pm.M_ini @ w_ini,
        lower=np.concatenate([np.full(k, -np.inf), cp.u_lower, cp.y_lower]),
        upper=np.concatenate([np.full(k, np.inf), cp.u_upper, cp.y_upper])))
    s, u, y = sol.x[:k], sol.x[k : k + nu], sol.x[k + nu :]
    return u, y, cp.tracking_cost(u, y) + kappa * float(s @ s), sol.status


def _noiseless_siso(windows):
    """(pm, cp, w_inis): the predictor of 200 noiseless samples (seed 0) of
    ``default_benchmark(0, 0)`` at L_ini 3, L_f 8, a tracking problem (q 1,
    r 0.05, y_ref 1) with u in [-3, 3] and y in [-3, 0.95], and the first
    ``windows`` history windows of the data on which spc is feasible. The
    predictive covariance is rounding noise, its eigenvalues 1e-32 to
    5e-29."""
    from .trajectory import build_data_matrix

    model = default_benchmark(0.0, 0.0)
    traj = simulate(model, np.zeros(3), 1.0, steps=200, seed=0)
    pm = predictive_model(build_data_matrix(traj, 3, 8))
    cp = ctl.ControlProblem.from_step_weights(model.dims, 3, 8, q_diag=1.0, r_diag=0.05,
                                              y_ref=1.0, u_min=-3.0, u_max=3.0,
                                              y_min=-3.0, y_max=0.95)
    w_inis = []
    for t in range(traj.samples.shape[0] - 3):
        w_ini = traj.samples[t : t + 3].reshape(-1)
        try:
            ctl.spc(pm, w_ini, cp)
        except InfeasibleProblem:
            continue
        w_inis.append(w_ini)
        if len(w_inis) == windows:
            break
    return pm, cp, w_inis


def _check_optimistic_output_box_exact_for_singular_covariance(rng) -> CheckResult:
    """optimistic with an output box on singular covariances against the
    (u, s, y) QP of ``_optimistic_usy_oracle``: plan, mean and objective to
    1e-9 relative, every solve ``optimal``. The instances, at lam 0.5, 50
    and 1e6: two history windows of ``_noiseless_siso``, and a noiseless
    ``_random_instance`` with 2 states and 1 output, whose 2-step history
    window determines the state, with an output box that binds
    (``_binding_output_box``). Their covariances are rounding noise, so the
    plan must also be spc's to 1e-12; with more states than the window
    determines, noiseless data leave a real covariance and a plan off spc's.
    And at lam 0.5, 50 and 1e4, a noisy 2-output instance whose
    covariance loses its two smallest directions, with such a box: the
    square-root form keeps its other directions, whose tether kappa / d
    makes P's condition number grow with lam, so at lam 1e6 rounding alone
    can move the plan by more than 1e-9. Draws from its own child generator
    (``_child``)."""
    local = _child(rng, "optimistic_output_box_exact_for_singular_covariance")
    pm, cp, w_inis = _noiseless_siso(2)
    cases = [(pm, w_ini, cp, True) for w_ini in w_inis]
    _, _, pm, w_ini, cp = _random_instance(local, with_input_box=True, sizes=(2, 2, 1),
                                           noise_var=0.0)
    cases.append((pm, w_ini, _binding_output_box(pm, w_ini, cp), True))
    _, _, pm, w_ini, cp = _random_instance(local, with_input_box=True, sizes=(3, 2, 2))
    kept = psd_factor(pm.cov)[:, 2:]  # eigh's order: the two smallest go
    pm = replace(pm, cov=kept @ kept.T)
    cases.append((pm, w_ini, _binding_output_box(pm, w_ini, cp), False))
    worst, spc_gap, statuses = 0.0, 0.0, set()
    for pm, w_ini, cp, noiseless in cases:
        plan = ctl.spc(pm, w_ini, cp).u_f
        for lam in (0.5, 50.0, 1e6 if noiseless else 1e4):
            u, mean, objective, status = _optimistic_usy_oracle(pm, w_ini, cp, lam)
            res = ctl.optimistic(pm, w_ini, cp, lam)
            statuses.update((status, res.solver.status))
            worst = max(worst, _rel(res.u_f, u), _rel(res.y_pred.mean, mean),
                        _rel(res.objective, objective))
            if noiseless:
                spc_gap = max(spc_gap, _rel(res.u_f, plan))
    return CheckResult(
        name="optimistic_output_box_exact_for_singular_covariance",
        passed=worst <= 1e-9 and spc_gap <= 1e-12 and statuses == {"optimal"},
        residual=worst,
        tolerance=1e-9,
        detail=f"noiseless plans off spc's by {spc_gap:.1e} (tol 1e-12), "
               f"statuses {sorted(statuses)}",
    )


# ---------------------------------------------------------------- solver --


def _check_qp_matches_kkt_oracle(rng) -> CheckResult:
    """``solve`` on strictly convex equality QPs, which it hands to the dual
    active-set method and so answers from a factorization of the KKT
    matrix, against two independent computations: numpy's solve of the same
    KKT system and ``qp._admm``, which never factors it unregularized."""
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, n))
        b_mat = rng.standard_normal((n, n))
        prob = QpProblem(
            P=b_mat @ b_mat.T + 0.5 * np.eye(n),
            q=rng.standard_normal(n),
            A_eq=rng.standard_normal((m, n)),
            b_eq=rng.standard_normal(m),
        )
        kkt = np.block([[prob.P, prob.A_eq.T], [prob.A_eq, np.zeros((m, m))]])
        ref = np.linalg.solve(kkt, np.concatenate([-prob.q, prob.b_eq]))[:n]
        sol, admm = solve(prob), _admm(prob, QpSettings())
        for got in (sol, admm):
            if got.status != "optimal":
                return CheckResult("qp_matches_kkt_oracle", False, math.inf, 1e-6,
                                   detail=f"solver status {got.status}")
        worst = max(worst, float(np.max(np.abs(sol.x - ref))),
                    float(np.max(np.abs(sol.x - admm.x))))
    return CheckResult("qp_matches_kkt_oracle", worst <= 1e-6, worst, 1e-6)


def _check_l1_soft_threshold_exact(rng) -> CheckResult:
    base = QpProblem(P=[[1.0]], q=[-3.0])
    aug, idx = l1_epigraph(base, weight=1.0, selector=[0])
    sol = solve(aug)
    err = abs(float(sol.x[idx][0]) - 2.0)
    return CheckResult("l1_soft_threshold_exact", err <= 1e-6, err, 1e-6)


def _check_qp_argmin_scaling_invariance(rng) -> CheckResult:
    """The minimizer of an equality QP does not move when P and q are scaled
    together, by ``solve`` and by ``qp._admm``, whose Ruiz equilibration
    sees different data in the two problems; and the two agree."""
    n = 6
    b_mat = rng.standard_normal((n, n))
    p = b_mat @ b_mat.T + 0.5 * np.eye(n)
    q = rng.standard_normal(n)
    a = rng.standard_normal((2, n))
    b = rng.standard_normal(2)
    base = QpProblem(P=p, q=q, A_eq=a, b_eq=b)
    scaled = QpProblem(P=9.0 * p, q=9.0 * q, A_eq=a, b_eq=b)
    x1, x2 = solve(base).x, solve(scaled).x
    y1, y2 = _admm(base, QpSettings()).x, _admm(scaled, QpSettings()).x
    err = max(float(np.max(np.abs(x1 - x2))), float(np.max(np.abs(y1 - y2))),
              float(np.max(np.abs(x1 - y1))))
    return CheckResult("qp_argmin_scaling_invariance", err <= 1e-6, err, 1e-6)


def _check_qp_box_projection_exact(rng) -> CheckResult:
    n = 6
    c = 2.0 * rng.standard_normal(n)
    sol = solve(QpProblem(P=np.eye(n), q=-c, lower=-np.ones(n), upper=np.ones(n)))
    err = float(np.max(np.abs(sol.x - np.clip(c, -1, 1))))
    return CheckResult("qp_box_projection_exact", err <= 1e-7, err, 1e-7)


def _check_box_qp_matches_independent_oracles(rng) -> CheckResult:
    """Box-only QPs, which ``solve`` hands to its active-set method, against
    two independent oracles: the projected-gradient residual
    ||x - clip(x - grad)||_inf, zero exactly at the minimizer, of
    optimistic's (u, mean) problem with a binding output box at lam 500 and
    1e4 (cond(P) 1e4 to 1e7), with the gradient formed from the model rather
    than from the QP data; and ``qp._admm`` on well-conditioned random boxes
    with infinite and equal bounds, and on random boxes whose minimizer lies
    inside. Both routes of the method are covered: the solves that return
    the unconstrained minimizer at once (1 iteration, no active bound) and
    the ones that run its loop are counted, and neither count may be 0.
    Draws from its own child generator (``_child``)."""
    local = _child(rng, "box_qp_matches_independent_oracles")
    worst_pg, worst_gap, statuses = 0.0, 0.0, set()
    solutions = []
    for _ in range(4):
        _, _, pm, w_ini, cp = _random_instance(local, with_input_box=True)
        cp = replace(cp, y_lower=cp.y_ref - 3.0, y_upper=cp.y_ref - 0.05)
        bias = pm.M_ini @ w_ini
        lower = np.concatenate([cp.u_lower, cp.y_lower])
        upper = np.concatenate([cp.u_upper, cp.y_upper])
        for lam in (500.0, 1e4):
            res = ctl.optimistic(pm, w_ini, cp, lam)
            solutions.append(res.solver)
            u, mu = res.u_f, res.y_pred.mean
            kappa = 0.5 * lam
            tether = np.linalg.solve(pm.cov, mu - pm.M_u @ u - bias)
            grad = np.concatenate([
                2.0 * cp.R @ (u - cp.u_ref) - 2.0 * kappa * pm.M_u.T @ tether,
                2.0 * cp.Q @ (mu - cp.y_ref) + 2.0 * kappa * tether,
            ])
            s_bias = np.linalg.solve(pm.cov, bias)
            q_vec = np.concatenate([2.0 * kappa * pm.M_u.T @ s_bias - 2.0 * cp.R @ cp.u_ref,
                                    -2.0 * kappa * s_bias - 2.0 * cp.Q @ cp.y_ref])
            x = np.concatenate([u, mu])
            residual = float(np.max(np.abs(x - np.clip(x - grad, lower, upper))))
            worst_pg = max(worst_pg, residual / max(1.0, float(np.max(np.abs(q_vec)))))
    problems = []
    for _ in range(30):
        n = int(local.integers(2, 13))
        b_mat = local.standard_normal((n, n))
        lower = local.uniform(-2.0, 0.0, n)
        upper = local.uniform(0.0, 2.0, n)
        lower[local.uniform(size=n) < 0.2] = -np.inf
        upper[local.uniform(size=n) < 0.2] = np.inf
        pinned = local.uniform(size=n) < 0.1
        lower[pinned] = upper[pinned] = 0.5
        problems.append(QpProblem(P=b_mat @ b_mat.T + 0.5 * np.eye(n),
                                  q=3.0 * local.standard_normal(n), lower=lower, upper=upper))
    for _ in range(10):  # the minimizer x_star inside the box
        n = int(local.integers(2, 13))
        b_mat = local.standard_normal((n, n))
        p_mat = b_mat @ b_mat.T + 0.5 * np.eye(n)
        lower = local.uniform(-2.0, -0.5, n)
        upper = local.uniform(0.5, 2.0, n)
        lower[local.uniform(size=n) < 0.2] = -np.inf
        upper[local.uniform(size=n) < 0.2] = np.inf
        x_star = local.uniform(-0.4, 0.4, n)
        problems.append(QpProblem(P=p_mat, q=-p_mat @ x_star, lower=lower, upper=upper))
    for prob in problems:
        sol, ref = solve(prob), _admm(prob, QpSettings())
        solutions.append(sol)
        statuses.add(ref.status)
        worst_gap = max(worst_gap, float(np.max(np.abs(sol.x - ref.x))))
    statuses.update(sol.status for sol in solutions)
    exits = sum(1 for sol in solutions if sol.iterations == 1 and not sol.bound_duals.any())
    loops = len(solutions) - exits
    residual = max(worst_pg / 1e-9, worst_gap / 1e-6)
    return CheckResult(
        name="box_qp_matches_independent_oracles",
        passed=residual <= 1.0 and statuses == {"optimal"} and exits > 0 and loops > 0,
        residual=residual,
        tolerance=1.0,
        detail=(f"projected gradient {worst_pg:.1e} (tol 1e-9), ADMM gap {worst_gap:.1e} "
                f"(tol 1e-6), statuses {sorted(statuses)}, interior exit {exits}, "
                f"loop {loops}"),
    )


_LEMMA_CHECKS = (
    _check_sample_covariance_is_local_mle,
    _check_predictor_equals_conditioned_estimate,
    _check_conditioning_matches_monte_carlo_regression,
    _check_state_space_window_covariance_monte_carlo,
    _check_singular_covariance_restricts_support,
    _check_simulate_matches_stepwise_recursion,
)
_THEOREM_CHECKS = (
    _check_spc_equals_certainty_equivalence,
    _check_projected_deepc_equals_optimistic,
    _check_deepc_elimination_matches_joint_qp,
    _check_deepc_l1_matches_epigraph_form,
    _check_robust_dual_bounds_sampled_ball,
    _check_robust_hessian_matches_finite_differences,
    _check_hessian_reduces_to_input_weight_without_output_cost,
    _check_hessian_large_lambda_limit,
    _check_lambda_threshold_certificates,
    _check_hessian_dominates_input_weight_above_lambda0,
    _check_controllers_collapse_to_certainty_equivalence,
    _check_spectral_weights_match_solve_forms,
    _check_optimistic_output_box_matches_precision_form,
    _check_optimistic_output_box_exact_for_singular_covariance,
)
_MUTABLE_CHECKS = (_check_projected_deepc_equals_optimistic,
                   _check_deepc_elimination_matches_joint_qp,
                   _check_optimistic_output_box_matches_precision_form)
_SOLVER_CHECKS = (
    _check_qp_matches_kkt_oracle,
    _check_l1_soft_threshold_exact,
    _check_qp_argmin_scaling_invariance,
    _check_qp_box_projection_exact,
    _check_box_qp_matches_independent_oracles,
)


def verify(suite: str = "all", seed: int = 0, mutate: str | None = None) -> VerifyReport:
    """Run a certification suite and collect per-check pass/fail results.

    ``mutate`` (test hook): ``"double_pred_cov"`` doubles optimistic's
    predictive covariance inside the deepc/optimistic equivalence check and
    the output-box precision-form check, and
    ``"kappa_without_d"`` runs deepc at lambda_g D inside the elimination
    check (for its eliminated form, kappa = lambda_g instead of
    lambda_g / D); that check must then fail. Used to confirm the suite
    has teeth. A check that raises fails with an infinite residual, under
    the name it reports when it runs: its function's name without the
    ``_check_`` prefix.
    """
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}, got {suite!r}")
    selected = []
    if suite in ("lemmas", "all"):
        selected += [(fn, {}) for fn in _LEMMA_CHECKS]
    if suite in ("theorems", "all"):
        selected += [
            (fn, {"mutate": mutate} if fn in _MUTABLE_CHECKS else {})
            for fn in _THEOREM_CHECKS
        ]
    if suite in ("solver", "all"):
        selected += [(fn, {}) for fn in _SOLVER_CHECKS]

    rng = np.random.default_rng(seed)
    results = []
    for fn, kwargs in selected:
        try:
            results.append(fn(rng, **kwargs))
        except Exception as exc:  # a crashing check is a failing check
            results.append(
                CheckResult(
                    name=fn.__name__.removeprefix("_check_"),
                    passed=False,
                    residual=math.inf,
                    tolerance=math.nan,
                    detail=f"raised {type(exc).__name__}: {exc}",
                )
            )
    return VerifyReport(suite=suite, seed=seed, checks=tuple(results))
