"""Tests for the five control formulations and their equivalences."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    assert_same_fields,
    fd_hessian,
    random_control_instance,
    random_stable_plant,
    record_solver_paths,
)

from gdpc import behavior, control, harness, linalg, qp
from gdpc.behavior import PredictiveModel, kl_mean_term, predictive_model
from gdpc.control import (
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
from gdpc.errors import (
    InfeasibleProblem,
    InvalidMatrix,
    LambdaTooSmall,
    NotPositiveDefinite,
    ShapeError,
)
from gdpc.linalg import matrix_rank, pinv, sym_eig, symmetrize
from gdpc.plant import simulate, step
from gdpc.qp import QpProblem, QpSettings, l1_epigraph, solve
from gdpc.trajectory import SignalDims, build_data_matrix
from gdpc.verify import _binding_output_box, _certainty_equivalence_oracle

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example.json"


def scalar_model_pm(cov=2.0, gain=1.0):
    """Predictive model with one input step and one output step."""
    return PredictiveModel(
        M_u=[[gain]], M_ini=[[0.0, 0.0]], cov=[[cov]]
    )


def scalar_cp(q=3.0, r=1.0, y_ref=0.0, u_ref=0.0):
    return ControlProblem(
        dims=SignalDims(1, 1), l_ini=1, l_f=1,
        Q=[[q]], R=[[r]], u_ref=[u_ref], y_ref=[y_ref],
    )


def spc_closed_form(pm, w_ini, cp):
    """Normal-equations oracle for the unconstrained case."""
    h = pm.M_u.T @ cp.Q @ pm.M_u + cp.R
    rhs = pm.M_u.T @ cp.Q @ (cp.y_ref - pm.M_ini @ w_ini) + cp.R @ cp.u_ref
    return np.linalg.solve(h, rhs)


class TestSpc:
    def test_origin_is_optimal(self):
        pm = PredictiveModel(M_u=np.eye(2) * 0.5, M_ini=np.zeros((2, 4)), cov=np.zeros((2, 2)))
        cp = ControlProblem.from_step_weights(SignalDims(1, 1), 2, 2, q_diag=1.0, r_diag=0.5)
        res = spc(pm, np.zeros(4), cp)
        assert np.max(np.abs(res.u_f)) < 1e-9
        assert res.objective < 1e-16

    def test_matches_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            inst = random_control_instance(rng)
            res = spc(inst.pm, inst.w_ini, inst.cp)
            oracle = spc_closed_form(inst.pm, inst.w_ini, inst.cp)
            assert np.max(np.abs(res.u_f - oracle)) < 1e-7 * max(1.0, np.max(np.abs(oracle)))

    def test_tight_box_clips_with_kkt(self):
        rng = np.random.default_rng(1)
        inst = random_control_instance(rng, with_input_box=True)
        cp = inst.cp
        # Shrink the box until the unconstrained optimum is outside it.
        free_u = spc_closed_form(inst.pm, inst.w_ini, cp)
        half = 0.5 * np.max(np.abs(free_u))
        tight = ControlProblem(
            dims=cp.dims, l_ini=cp.l_ini, l_f=cp.l_f, Q=cp.Q, R=cp.R,
            u_ref=cp.u_ref, y_ref=cp.y_ref,
            u_lower=np.full(cp.n_u, -half), u_upper=np.full(cp.n_u, half),
        )
        res = spc(inst.pm, inst.w_ini, tight)
        assert np.all(res.u_f <= half + 1e-6)
        assert np.all(res.u_f >= -half - 1e-6)
        grad = 2.0 * (
            (inst.pm.M_u.T @ tight.Q @ inst.pm.M_u + tight.R) @ res.u_f
            + inst.pm.M_u.T @ tight.Q @ (inst.pm.M_ini @ inst.w_ini - tight.y_ref)
            - tight.R @ tight.u_ref
        )
        scale = max(1.0, np.max(np.abs(grad)))
        for i in range(res.u_f.size):
            at_low = abs(res.u_f[i] + half) < 1e-6
            at_high = abs(res.u_f[i] - half) < 1e-6
            assert at_low or at_high or abs(grad[i]) < 1e-5 * scale

    def test_output_box_keeps_outputs_feasible(self):
        rng = np.random.default_rng(2)
        inst = random_control_instance(rng, with_output_box=True)
        res = spc(inst.pm, inst.w_ini, inst.cp)
        assert np.all(res.y_pred.mean <= inst.cp.y_upper + 1e-5)
        assert np.all(res.y_pred.mean >= inst.cp.y_lower - 1e-5)


class TestCertaintyEquivalence:
    # certainty_equivalence is spc's plan plus tr(Q cov); the oracle solves
    # the constrained (u, mean) problem directly.
    def test_same_minimizer_as_spc(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = random_control_instance(rng)
            a = spc(inst.pm, inst.w_ini, inst.cp)
            b = certainty_equivalence(inst.pm, inst.w_ini, inst.cp)
            u_oracle, _ = _certainty_equivalence_oracle(inst.pm, inst.w_ini, inst.cp)
            assert np.max(np.abs(a.u_f - b.u_f)) < 1e-8
            assert np.max(np.abs(b.u_f - u_oracle)) < 1e-8

    def test_objective_gap_is_trace_term(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            inst = random_control_instance(rng)
            a = spc(inst.pm, inst.w_ini, inst.cp)
            b = certainty_equivalence(inst.pm, inst.w_ini, inst.cp)
            _, expected = _certainty_equivalence_oracle(inst.pm, inst.w_ini, inst.cp)
            trace = float(np.trace(inst.cp.Q @ inst.pm.cov))
            assert abs((b.objective - a.objective) - trace) < 1e-8 * max(1.0, trace)
            assert abs(b.objective - expected) < 1e-8 * max(1.0, abs(expected))

    def test_output_box_matches_oracle(self):
        rng = np.random.default_rng(5)
        inst = random_control_instance(rng, with_output_box=True)
        res = certainty_equivalence(inst.pm, inst.w_ini, inst.cp)
        u_oracle, expected = _certainty_equivalence_oracle(inst.pm, inst.w_ini, inst.cp)
        assert np.max(np.abs(res.u_f - u_oracle)) < 1e-8
        assert abs(res.objective - expected) < 1e-8 * max(1.0, abs(expected))

    def test_zero_covariance_objectives_match(self):
        pm = PredictiveModel(M_u=[[1.0]], M_ini=[[0.2, -0.1]], cov=[[0.0]])
        cp = scalar_cp(y_ref=1.0)
        a = spc(pm, [0.5, 0.5], cp)
        b = certainty_equivalence(pm, [0.5, 0.5], cp)
        assert a.objective == pytest.approx(b.objective, abs=1e-12)


def noiseless_instance(rng, l_ini=2, l_f=3):
    model = random_stable_plant(rng, n=2, m=1, p=1, noise_std=0.0)
    window = l_ini + l_f
    steps = window + 6 * window - 1
    traj = simulate(model, np.zeros(2), 1.0, steps=steps, seed=77)
    dm = build_data_matrix(traj, l_ini, l_f)
    # Track the state so the rollout oracle can restart at the boundary.
    x = np.zeros(2)
    states = [x]
    for t in range(traj.length):
        x, _ = step(model, x, traj.inputs[t])
        states.append(x)
    t0 = 10
    w_ini = traj.samples[t0 : t0 + l_ini].reshape(-1)
    x_boundary = states[t0 + l_ini]
    return model, dm, w_ini, x_boundary


def rollout_outputs(model, x0, u_stack):
    x = np.array(x0, dtype=float)
    ys = []
    for u in np.asarray(u_stack, dtype=float).reshape(-1, model.m):
        x, y = step(model, x, u)
        ys.append(y)
    return np.concatenate(ys)


class TestDeepc:
    def test_noiseless_unregularized_matches_rollout(self):
        rng = np.random.default_rng(5)
        model, dm, w_ini, x_boundary = noiseless_instance(rng)
        cp = ControlProblem.from_step_weights(
            model.dims, dm.l_ini, dm.l_f, q_diag=1.0, r_diag=0.2, y_ref=0.8
        )
        res = deepc(dm, w_ini, cp, regularizer="proj2", lambda_g=0.0)
        oracle = rollout_outputs(model, x_boundary, res.u_f)
        assert np.max(np.abs(res.y_pred.mean - oracle)) < 1e-6
        # spc from the same data reproduces the same exact predictor.
        res_spc = spc(predictive_model(dm), w_ini, cp)
        oracle_spc = rollout_outputs(model, x_boundary, res_spc.u_f)
        assert np.max(np.abs(res_spc.y_pred.mean - oracle_spc)) < 1e-6

    def test_projected_regularizer_kills_kernel_component(self):
        rng = np.random.default_rng(6)
        inst = random_control_instance(rng, d_factor_max=3)
        res = deepc(inst.dm, inst.w_ini, inst.cp, regularizer="proj2", lambda_g=2.0)
        full = inst.dm.matrix
        kernel_part = res.g - pinv(full) @ (full @ res.g)
        assert np.linalg.norm(kernel_part) <= 1e-6 * max(1.0, np.linalg.norm(res.g))

    def test_large_weight_collapses_to_spc(self):
        rng = np.random.default_rng(7)
        inst = random_control_instance(rng, d_factor_max=3)
        res = deepc(inst.dm, inst.w_ini, inst.cp, regularizer="proj2", lambda_g=1e10)
        ref = spc(inst.pm, inst.w_ini, inst.cp)
        assert np.max(np.abs(res.u_f - ref.u_f)) < 1e-4

    def test_l1_regularizer_runs_and_shrinks(self):
        rng = np.random.default_rng(9)
        inst = random_control_instance(rng, d_factor_max=2)
        small = deepc(inst.dm, inst.w_ini, inst.cp, regularizer="l1", lambda_g=1e-3)
        large = deepc(inst.dm, inst.w_ini, inst.cp, regularizer="l1", lambda_g=10.0)
        assert np.abs(large.g).sum() < np.abs(small.g).sum()

    def test_inconsistent_history_without_regularizer_is_fitted(self):
        # Needs n < p * L_ini so the past-window block is rank deficient and
        # a generic history falls outside its image. The window enters
        # through the predictor alone, so it is fitted by least squares, as
        # spc fits it, rather than found infeasible.
        rng = np.random.default_rng(8)
        model, dm, w_ini, _ = noiseless_instance(rng, l_ini=4, l_f=2)
        cp = ControlProblem.from_step_weights(model.dims, dm.l_ini, dm.l_f)
        bad_w_ini = w_ini + rng.standard_normal(w_ini.size)  # off the subspace
        res = deepc(dm, bad_w_ini, cp, regularizer="proj2", lambda_g=0.0)
        ref = spc(predictive_model(dm), bad_w_ini, cp)
        assert res.solver.status == "optimal"
        scale = max(1.0, float(np.max(np.abs(ref.u_f))))
        assert np.max(np.abs(res.u_f - ref.u_f)) <= 1e-12 * scale

    def test_rank_deficient_data_without_regularizer_takes_the_exact_path(self, monkeypatch):
        # Noiseless data: the LQ factor L of the data matrix is singular, but
        # the fit's residual is cut to r = 0, so at lambda_g = 0 the QP is
        # spc's (u, y) QP and its KKT matrix is not singular.
        model, dm, w_ini, _ = noiseless_instance(np.random.default_rng(5))
        cp = ControlProblem.from_step_weights(model.dims, dm.l_ini, dm.l_f, q_diag=1.0,
                                              r_diag=0.2, y_ref=0.8)
        paths = record_solver_paths(monkeypatch)
        res = deepc(dm, w_ini, cp, regularizer="proj2", lambda_g=0.0)
        assert paths == ["_eq_active_set"] and res.solver.status == "optimal"
        assert res.solver.x.size == cp.n_u + cp.n_y

    def test_l1_epigraph_takes_admm(self, monkeypatch):
        # P is zero on both halves of g: a singular KKT matrix.
        inst = random_control_instance(np.random.default_rng(11), d_factor_max=2)
        paths = record_solver_paths(monkeypatch)
        res = deepc(inst.dm, inst.w_ini, inst.cp, regularizer="l1", lambda_g=0.1)
        assert paths == ["_admm"] and res.solver.status == "optimal"

    def test_full_rank_data_takes_the_exact_path(self, monkeypatch):
        inst = random_control_instance(np.random.default_rng(12), d_factor_max=3,
                                       with_input_box=True, with_output_box=True)
        paths = record_solver_paths(monkeypatch)
        for regularizer, lambda_g in (("proj2", 0.0), ("proj2", 2.0), ("sq2", 0.5)):
            res = deepc(inst.dm, inst.w_ini, inst.cp, regularizer=regularizer,
                        lambda_g=lambda_g)
            assert res.solver.status == "optimal"
        assert paths == ["_eq_active_set"] * 3

    def test_sq2_regularizer_in_row_space(self):
        rng = np.random.default_rng(10)
        inst = random_control_instance(rng, d_factor_max=3)
        res = deepc(inst.dm, inst.w_ini, inst.cp, regularizer="sq2", lambda_g=0.5)
        full = inst.dm.matrix
        kernel_part = res.g - pinv(full) @ (full @ res.g)
        assert np.linalg.norm(kernel_part) <= 1e-6 * max(1.0, np.linalg.norm(res.g))


def raw_deepc_qp(dm, w_ini, cp, g_block):
    """The deepc QP over all D columns of g, u and y, assembled here from
    the raw data matrix, with the cost 0.5 g^T g_block g on g: the reference
    for the row-space route and, with g_block zero and ``l1_epigraph``, for
    the 1-norm."""
    d, nu, ny = dm.n_columns, cp.n_u, cp.n_y
    n = d + nu + ny
    p_mat = np.zeros((n, n))
    p_mat[:d, :d] = g_block
    p_mat[d : d + nu, d : d + nu] = 2.0 * cp.R
    p_mat[d + nu :, d + nu :] = 2.0 * cp.Q
    q_vec = np.concatenate([np.zeros(d), -2.0 * cp.R @ cp.u_ref, -2.0 * cp.Q @ cp.y_ref])
    a_eq = np.hstack([dm.ordered, np.vstack([np.zeros((w_ini.size, nu + ny)),
                                             -np.eye(nu + ny)])])
    b_eq = np.concatenate([w_ini, np.zeros(nu + ny)])
    box = cp.has_output_box
    lower = np.concatenate([np.full(d, -np.inf), cp.u_lower,
                            cp.y_lower if box else np.full(ny, -np.inf)])
    upper = np.concatenate([np.full(d, np.inf), cp.u_upper,
                            cp.y_upper if box else np.full(ny, np.inf)])
    return QpProblem(P=p_mat, q=q_vec, A_eq=a_eq, b_eq=b_eq, lower=lower, upper=upper)


def raw_deepc_plan(dm, w_ini, cp, regularizer, lambda_g):
    """The plan of :func:`raw_deepc_qp` with proj2's or sq2's penalty."""
    d = dm.n_columns
    if regularizer == "proj2":
        free = dm.free_block
        g_block = 2.0 * lambda_g * (np.eye(d) - pinv(free) @ free)
    else:
        g_block = 2.0 * lambda_g * np.eye(d)
    return solve(raw_deepc_qp(dm, w_ini, cp, g_block)).x[d : d + cp.n_u]


class TestDeepcRowSpace:
    """proj2 and sq2 solve a QP whose size does not depend on D; l1 keeps
    the raw D-column g, as the difference of two nonnegative halves."""

    L_INI, L_F = 2, 3

    def problem(self, rng):
        model = random_stable_plant(rng, n=2, m=1, p=1)
        cp = ControlProblem.from_step_weights(
            model.dims, self.L_INI, self.L_F, q_diag=1.0, r_diag=0.1,
            y_ref=0.8, u_min=-0.4, u_max=0.4,
        )
        fresh = simulate(model, np.zeros(2), 1.0, steps=self.L_INI + 2, seed=5)
        return model, cp, fresh.samples[-self.L_INI :].reshape(-1)

    def data(self, model, columns, seed):
        window = self.L_INI + self.L_F
        traj = simulate(model, np.zeros(2), 1.0, steps=columns + window - 1, seed=seed)
        return build_data_matrix(traj, self.L_INI, self.L_F)

    @pytest.mark.parametrize("regularizer", ["proj2", "sq2"])
    def test_qp_size_is_independent_of_d(self, regularizer):
        rng = np.random.default_rng(13)
        model, cp, w_ini = self.problem(rng)
        rows = 2 * (self.L_INI + self.L_F)
        for columns in (8, 40, 1500):
            dm = self.data(model, columns, seed=columns)
            res = deepc(dm, w_ini, cp, regularizer, lambda_g=3.0)
            assert res.solver.status == "optimal"
            if regularizer == "proj2":  # g eliminated: the input QP
                assert res.solver.x.size == cp.n_u
            else:  # (s, u, y), s in the r = n_y - (rows - k) residual directions
                r = cp.n_y - max(0, rows - columns)
                assert res.solver.x.size == cp.n_u + r + cp.n_y
            assert res.g.shape == (columns,)
            full = dm.matrix
            kernel_part = res.g - pinv(full) @ (full @ res.g)
            assert np.linalg.norm(kernel_part) <= 1e-9 * max(1.0, np.linalg.norm(res.g))
            assert np.allclose(dm.future_outputs @ res.g, res.y_pred.mean, rtol=0, atol=1e-6)
            if columns <= 40:
                reference = raw_deepc_plan(dm, w_ini, cp, regularizer, 3.0)
                assert np.max(np.abs(res.u_f - reference)) < 1e-6
                free = dm.free_block
                penalized = res.g - pinv(free) @ (free @ res.g) if regularizer == "proj2" else res.g
                expected = cp.tracking_cost(res.u_f, res.y_pred.mean) + 3.0 * penalized @ penalized
                assert res.objective == pytest.approx(expected, rel=1e-9)

    def test_l1_keeps_raw_g(self):
        rng = np.random.default_rng(14)
        model, cp, w_ini = self.problem(rng)
        dm = self.data(model, 40, seed=3)
        res = deepc(dm, w_ini, cp, "l1", lambda_g=0.5)
        d = dm.n_columns
        # The two halves of g, u_f and y_f.
        assert res.solver.x.size == 2 * d + cp.n_u + cp.n_y
        assert np.array_equal(res.g, res.solver.x[:d] - res.solver.x[d : 2 * d])

    def test_rank_tol_reaches_the_regularizer(self):
        rng = np.random.default_rng(15)
        model, cp, w_ini = self.problem(rng)
        dm = self.data(model, 40, seed=4)
        default = deepc(dm, w_ini, cp, "proj2", lambda_g=3.0)
        explicit = deepc(dm, w_ini, cp, "proj2", lambda_g=3.0, rank_tol=1e-10)
        truncated = deepc(dm, w_ini, cp, "proj2", lambda_g=3.0, rank_tol=0.5)
        assert np.array_equal(default.u_f, explicit.u_f)
        assert np.max(np.abs(truncated.u_f - default.u_f)) > 1e-6


class TestDeepcElimination:
    """proj2 with lambda_g > 0 and no output box eliminates g and solves the
    input QP; l1 with lambda_g > 0 keeps the raw (g+, g-, u, y) QP; every other
    case solves the joint QP over (s, u, y), s the coordinates of the fit's
    residual directions."""

    def test_proj2_without_output_box_solves_the_input_qp(self, monkeypatch):
        # Neither the set-up nor a step factors a KKT matrix or tests a
        # matrix for PSD by its eigenvalues: the input QP's P passes potrf.
        inst = random_control_instance(np.random.default_rng(12), d_factor_max=3,
                                       with_input_box=True)
        paths = record_solver_paths(monkeypatch)

        def unreachable(*args, **kwargs):
            raise AssertionError("reached")

        for module, name in ((qp, "_kkt_factor"), (qp, "is_psd"), (control, "is_psd")):
            monkeypatch.setattr(module, name, unreachable)
        for shift in (0.0, 0.3, -0.3):
            res = deepc(inst.dm, inst.w_ini + shift, inst.cp, "proj2", 2.0)
            assert res.solver.status == "optimal" and res.solver.x.size == inst.cp.n_u
        assert paths == ["_active_set"] * 3

    @pytest.mark.parametrize("regularizer,lambda_g,output_box,path", [
        ("proj2", 2.0, True, "_eq_active_set"),
        ("sq2", 0.5, False, "_eq_active_set"),
        ("l1", 0.1, False, "_admm"),
        ("proj2", 0.0, False, "_eq_active_set"),
    ])
    def test_other_cases_keep_the_joint_qp(self, regularizer, lambda_g, output_box, path,
                                           monkeypatch):
        inst = random_control_instance(np.random.default_rng(12), d_factor_max=3,
                                       with_input_box=True, with_output_box=output_box)
        paths = record_solver_paths(monkeypatch)
        res = deepc(inst.dm, inst.w_ini, inst.cp, regularizer, lambda_g)
        assert paths == [path] and res.solver.status == "optimal"
        nu, ny, d = inst.cp.n_u, inst.cp.n_y, inst.dm.n_columns
        if regularizer == "l1":  # the two halves of g, u and y
            assert res.solver.x.size == 2 * d + nu + ny
            return
        # Noisy data with D >= qL: the residual G has full rank, r = n_y.
        assert res.solver.x.size == nu + 2 * ny
        s = res.solver.x[:ny]
        free = inst.dm.free_block
        off_free = res.g - pinv(free) @ (free @ res.g)  # the part of g proj2 penalizes
        assert np.linalg.norm(off_free) == pytest.approx(np.linalg.norm(s), rel=1e-9, abs=1e-12)
        assert np.allclose(inst.dm.future_outputs @ res.g, res.y_pred.mean, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("regularizer", ["proj2", "sq2", "l1"])
    def test_zero_weight_on_noiseless_data_is_spc(self, regularizer, monkeypatch):
        # On noiseless data the fit's residual is rounding noise, cut to
        # r = 0, so deepc at lambda_g = 0 solves spc's QP: no ADMM, spc's
        # plan. The history window enters through the predictor alone, so a
        # window off the data's subspace (n < p L_ini, the second instance)
        # is fitted by least squares rather than found infeasible.
        paths = record_solver_paths(monkeypatch)
        for seed, l_ini, l_f, offset in ((5, 2, 3, 0.0), (8, 4, 2, 1.0)):
            rng = np.random.default_rng(seed)
            model, dm, w_ini, _ = noiseless_instance(rng, l_ini=l_ini, l_f=l_f)
            w_ini = w_ini + offset * rng.standard_normal(w_ini.size)
            pm = predictive_model(dm)
            cp = ControlProblem.from_step_weights(model.dims, l_ini, l_f, q_diag=1.0,
                                                  r_diag=0.2, y_ref=0.8, u_min=-0.5,
                                                  u_max=0.5)
            for problem in (cp, _binding_output_box(pm, w_ini, cp)):
                ref = spc(pm, w_ini, problem)
                res = deepc(dm, w_ini, problem, regularizer, 0.0)
                assert res.solver.status == "optimal"
                assert res.solver.x.size == problem.n_u + problem.n_y
                scale = max(1.0, float(np.max(np.abs(ref.u_f))))
                assert np.max(np.abs(res.u_f - ref.u_f)) <= 1e-12 * scale
        assert paths and "_admm" not in paths

    def test_noiseless_data_give_the_spc_plan(self):
        # With zero predictive covariance Z is Q and the mean is mu_hat.
        model, dm, w_ini, _ = noiseless_instance(np.random.default_rng(5))
        cp = ControlProblem.from_step_weights(model.dims, dm.l_ini, dm.l_f, q_diag=1.0,
                                              r_diag=0.2, y_ref=0.8, u_min=-0.5, u_max=0.5)
        ref = spc(predictive_model(dm), w_ini, cp)
        assert np.any(np.abs(ref.u_f) == 0.5)  # the box binds
        for lambda_g in (1e-3, 0.5, 50.0, 5e4):
            res = deepc(dm, w_ini, cp, "proj2", lambda_g)
            for got, want in ((res.u_f, ref.u_f), (res.y_pred.mean, ref.y_pred.mean)):
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            assert res.objective == pytest.approx(ref.objective, rel=1e-12)


class TestDeepcL1:
    """deepc with l1 and lambda_g > 0 solves the QP over g = g+ - g- with
    g+, g- >= 0 at the linear cost lambda_g, u and y: 2D + n_u + n_y
    variables and the q L_ini + n_u + n_y rows W (g+ - g-) = [w_ini; u; y].
    Its plan is that of the epigraph form of the raw (g, u, y) QP."""

    LAMBDA_G = 5.0

    @staticmethod
    def instance(kind):
        """(dm, pm, w_ini, cp) of noisy SISO data (D 40), noiseless SISO data
        (D 30) or noisy 3x3 data (D 60), with L_ini 2 and L_f 3."""
        rng = np.random.default_rng(91)
        if kind == "noiseless":
            model, dm, w_ini, _ = noiseless_instance(rng)
        else:
            n, m, columns = (2, 1, 40) if kind == "noisy" else (3, 3, 60)
            model = random_stable_plant(rng, n=n, m=m, p=m)
            traj = simulate(model, np.zeros(n), 1.0, steps=columns + 4, seed=92)
            dm = build_data_matrix(traj, 2, 3)
            w_ini = simulate(model, np.zeros(n), 1.0, steps=4, seed=93).samples[-2:].reshape(-1)
        cp = ControlProblem.from_step_weights(model.dims, 2, 3, q_diag=1.0, r_diag=0.2,
                                              y_ref=0.8, u_min=-0.5, u_max=0.5)
        return dm, predictive_model(dm), w_ini, cp

    @pytest.mark.parametrize("output_box", [False, True])
    @pytest.mark.parametrize("kind", ["noisy", "noiseless", "3x3"])
    def test_matches_the_epigraph_form(self, kind, output_box, monkeypatch):
        dm, pm, w_ini, cp = self.instance(kind)
        if output_box:
            cp = _binding_output_box(pm, w_ini, cp)
        solved, run = [], control.solve
        monkeypatch.setattr(control, "solve", lambda prob, *args: solved.append(prob)
                            or run(prob, *args))
        res = deepc(dm, w_ini, cp, "l1", self.LAMBDA_G)
        d, nu, ny = dm.n_columns, cp.n_u, cp.n_y
        (prob,) = solved
        assert (prob.n, prob.n_eq) == (2 * d + nu + ny, w_ini.size + nu + ny)
        assert np.array_equal(res.g, res.solver.x[:d] - res.solver.x[d : 2 * d])
        epigraph, keep = l1_epigraph(raw_deepc_qp(dm, w_ini, cp, np.zeros((d, d))),
                                     self.LAMBDA_G, np.arange(d))
        ref = solve(epigraph)
        g, u, y = np.split(ref.x[keep], [d, d + nu])
        assert res.solver.status == ref.status == "optimal"
        for got, want in ((res.u_f, u), (res.y_pred.mean, y)):
            assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))
        objective = cp.tracking_cost(u, y) + self.LAMBDA_G * np.abs(g).sum()
        assert res.objective == pytest.approx(objective, rel=1e-8)

    def test_steps_after_the_first_build_and_validate_nothing(self, monkeypatch):
        # A second call on the same set-up forms b_eq and solves; the
        # predictor, the QP and P's proof belong to the first call.
        dm, _, w_ini, cp = self.instance("noisy")
        deepc(dm, w_ini, cp, "l1", self.LAMBDA_G)
        ran = []

        def noted(label, fn):
            def call(*args, **kw):
                ran.append(label(*args) if callable(label) else label)
                return fn(*args, **kw)
            return call

        for module in (behavior, control, linalg, qp):
            for name in ("symmetrize", "is_psd", "chol_psd", "sym_eig", "pinv",
                         "predictive_model"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, noted(name, getattr(module, name)))
        for cls in (QpProblem, behavior.ConditionalGaussian):
            monkeypatch.setattr(cls, "__post_init__",
                                noted(f"{cls.__name__}.__post_init__", cls.__post_init__))
        monkeypatch.setattr(control, "_qp_of_parts", noted("_of_parts", control._qp_of_parts))
        monkeypatch.setattr(qp, "dpotrf", noted(lambda a: ("potrf", a.shape[0]), qp.dpotrf))
        res = deepc(dm, w_ini + 0.1, cp, "l1", self.LAMBDA_G)
        assert res.solver.status == "optimal" and dm.n_columns == 40
        n = res.solver.x.size
        assert [entry for entry in ran if isinstance(entry, str) or entry == ("potrf", n)] == []


def deepc_g_reference(dm, w_ini, res, cp, regularizer, lambda_g, rank_tol=1e-10):
    """deepc's g as Q alpha, with W = L Q^T factored here by np.linalg.qr
    and alpha = L_F^+ [w_ini; u] + beta from the plan: beta = -G^T t / D for
    the eliminated form, t = (Q cov + kappa I)^-1 Q (mu_hat - y_ref), and
    V_r Sigma_r^-1 U_r^T (y - mu_hat) for the (u, s, y) QP, with
    G = L_Y - L_Y L_F^+ L_F the fit's residual and its SVD cut at rank_tol
    max |L|."""
    basis, upper = np.linalg.qr(dm.ordered.T)
    l_fac = upper.T
    n_free = dm.free_rows.size
    l_free, l_out = l_fac[:n_free], l_fac[n_free:]
    free_pinv = np.linalg.pinv(l_free, rcond=rank_tol)
    resid = l_out - (l_out @ free_pinv) @ l_free
    pm = predictive_model(dm, rank_tol)
    mu_hat = pm.M_u @ res.u_f + pm.M_ini @ w_ini
    if regularizer == "proj2" and lambda_g > 0.0 and not cp.has_output_box:
        kappa = lambda_g / dm.n_columns
        t = np.linalg.solve(cp.Q @ pm.cov + kappa * np.eye(cp.n_y), cp.Q @ (mu_hat - cp.y_ref))
        beta = -resid.T @ t / dm.n_columns
    else:
        left, sing, right_t = np.linalg.svd(resid, full_matrices=False)
        r = int(np.count_nonzero(sing > rank_tol * np.max(np.abs(l_fac))))
        beta = right_t[:r].T @ ((left[:, :r].T @ (res.y_pred.mean - mu_hat)) / sing[:r])
    return basis @ (free_pinv @ np.concatenate([w_ini, res.u_f]) + beta)


def g_test_instances():
    """Noisy data, noiseless data whose free block has full rank (the
    triangular inverse) or not (the SVD pseudoinverse), and wide data with
    D 15 < qL 22: (data matrix, w_ini, control problem)."""
    rng = np.random.default_rng(29)
    out = []
    for _ in range(3):
        inst = random_control_instance(rng, with_input_box=True)
        out.append((inst.dm, inst.w_ini, inst.cp))
    for l_ini, l_f in ((2, 3), (4, 2)):
        model, dm, w_ini, _ = noiseless_instance(rng, l_ini=l_ini, l_f=l_f)
        out.append((dm, w_ini, ControlProblem.from_step_weights(
            model.dims, l_ini, l_f, q_diag=1.0, r_diag=0.2, y_ref=0.8, u_min=-0.5, u_max=0.5)))
    model = random_stable_plant(rng, n=2, m=1, p=1)
    traj = simulate(model, np.zeros(2), 1.0, steps=15 + 11 - 1, seed=29)
    dm = build_data_matrix(traj, 3, 8)
    fresh = simulate(model, np.zeros(2), 1.0, steps=5, seed=30)
    out.append((dm, fresh.samples[-3:].reshape(-1), ControlProblem.from_step_weights(
        model.dims, 3, 8, q_diag=1.0, r_diag=0.1, y_ref=0.8, u_min=-1.0, u_max=1.0)))
    return out


def test_g_is_q_alpha_of_an_independent_factorization():
    # deepc forms g as W^T v without Q; the reference forms Q alpha.
    noiseless = pinv_route = wide = 0
    for dm, w_ini, cp in g_test_instances():
        pm = predictive_model(dm)
        rows, d = dm.matrix.shape
        wide += d < rows
        free_rank = matrix_rank(dm.free_block)
        pinv_route += free_rank < dm.free_rows.size
        noiseless += np.abs(pm.cov).max() <= 1e-12
        for problem in (cp, _binding_output_box(pm, w_ini, cp)):
            for regularizer, lambda_g in (("proj2", 0.0), ("proj2", 0.5), ("proj2", 50.0),
                                          ("sq2", 5.0)):
                res = deepc(dm, w_ini, problem, regularizer, lambda_g)
                want = deepc_g_reference(dm, w_ini, res, problem, regularizer, lambda_g)
                gap = np.linalg.norm(res.g - want) / np.linalg.norm(want)
                assert gap <= 1e-10, (regularizer, lambda_g, problem.has_output_box, gap)
    assert noiseless == 2 and pinv_route >= 1 and wide == 1


class TestOptimistic:
    def test_large_lambda_recovers_certainty_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            inst = random_control_instance(rng)
            res = optimistic(inst.pm, inst.w_ini, inst.cp, lam=1e10)
            ref = certainty_equivalence(inst.pm, inst.w_ini, inst.cp)
            assert np.max(np.abs(res.u_f - ref.u_f)) < 1e-4
            assert np.max(np.abs(res.y_pred.mean - ref.y_pred.mean)) < 1e-4

    def test_matches_projected_deepc(self):
        # Same minimizer as the projected-regularizer data-combination
        # problem at weight lam = 2 * lambda_g / D.
        rng = np.random.default_rng(12)
        active = 0
        for _ in range(10):
            inst = random_control_instance(rng, with_input_box=True)
            lambda_g = float(rng.uniform(0.5, 20.0))
            d = inst.dm.n_columns
            res_deepc = deepc(inst.dm, inst.w_ini, inst.cp, "proj2", lambda_g)
            res_opt = optimistic(inst.pm, inst.w_ini, inst.cp, lam=2.0 * lambda_g / d)
            scale = max(1.0, np.max(np.abs(res_opt.u_f)))
            assert np.max(np.abs(res_deepc.u_f - res_opt.u_f)) < 1e-5 * scale
            y_deepc = inst.dm.future_outputs @ res_deepc.g
            assert np.max(np.abs(y_deepc - res_opt.y_pred.mean)) < 1e-5 * max(
                1.0, np.max(np.abs(res_opt.y_pred.mean))
            )
            if np.any(np.isclose(res_opt.u_f, inst.cp.u_lower, atol=1e-7)) or np.any(
                np.isclose(res_opt.u_f, inst.cp.u_upper, atol=1e-7)
            ):
                active += 1
        assert active >= 2  # the boxes do bite on a fair share of draws

    def test_rank_one_covariance_needs_no_jitter(self):
        # cov = v v^T confines the mean to mu_hat + v s, at the tether
        # kappa s^2 (v^T (v v^T)^+ v = 1). Without an output box optimistic
        # needs no precision, so it solves with jitter 0; the oracle is the
        # (u, s) QP under the input box.
        rng = np.random.default_rng(26)
        for _ in range(5):
            inst = random_control_instance(rng, with_input_box=True)
            cp, nu = inst.cp, inst.cp.n_u
            v = rng.standard_normal(cp.n_y)
            pm = PredictiveModel(M_u=inst.pm.M_u, M_ini=inst.pm.M_ini, cov=np.outer(v, v))
            bias = pm.M_ini @ inst.w_ini
            a = np.hstack([pm.M_u, v[:, None]])
            for lam in (0.5, 50.0):
                kappa = 0.5 * lam
                res = optimistic(pm, inst.w_ini, cp, lam, jitter=0.0)
                p_mat = a.T @ cp.Q @ a
                p_mat[:nu, :nu] += cp.R
                p_mat[nu, nu] += kappa
                q_vec = a.T @ cp.Q @ (bias - cp.y_ref)
                q_vec[:nu] -= cp.R @ cp.u_ref
                x = solve(QpProblem(P=2.0 * p_mat, q=2.0 * q_vec,
                                    lower=np.append(cp.u_lower, -np.inf),
                                    upper=np.append(cp.u_upper, np.inf))).x
                u, mean = x[:nu], a @ x + bias
                objective = cp.tracking_cost(u, mean) + kappa * x[nu] ** 2
                assert np.max(np.abs(res.u_f - u)) < 1e-9
                assert np.max(np.abs(res.y_pred.mean - mean)) < 1e-9 * max(
                    1.0, np.max(np.abs(mean)))
                assert res.objective == pytest.approx(objective, rel=1e-9, abs=1e-12)

    def test_zero_output_weight_keeps_estimated_mean(self):
        rng = np.random.default_rng(13)
        inst = random_control_instance(rng)
        cp = ControlProblem(
            dims=inst.cp.dims, l_ini=inst.cp.l_ini, l_f=inst.cp.l_f,
            Q=np.zeros_like(inst.cp.Q), R=inst.cp.R,
            u_ref=inst.cp.u_ref, y_ref=inst.cp.y_ref,
        )
        res = optimistic(inst.pm, inst.w_ini, cp, lam=3.0)
        mu_hat = inst.pm.predict_mean(inst.w_ini, res.u_f)
        assert np.max(np.abs(res.y_pred.mean - mu_hat)) < 1e-9

    def test_output_box_constrains_mean(self):
        rng = np.random.default_rng(14)
        inst = random_control_instance(rng, with_output_box=True)
        res = optimistic(inst.pm, inst.w_ini, inst.cp, lam=5.0)
        assert np.all(res.y_pred.mean <= inst.cp.y_upper + 1e-5)
        assert np.all(res.y_pred.mean >= inst.cp.y_lower - 1e-5)

    def test_output_box_path_stays_solvable_at_large_lambda(self):
        # The joint (input, mean) QP is badly scaled for huge weights; the
        # equilibrated solver must still converge onto certainty equivalence.
        rng = np.random.default_rng(25)
        inst = random_control_instance(rng, with_output_box=True)
        res = optimistic(inst.pm, inst.w_ini, inst.cp, lam=1e8)
        ref = certainty_equivalence(inst.pm, inst.w_ini, inst.cp)
        assert res.solver.status == "optimal"
        assert np.max(np.abs(res.u_f - ref.u_f)) < 1e-4

    def test_noiseless_objective_is_the_eliminated_value(self):
        # On noiseless data the predictive covariance is at rounding level, so
        # a tether term kappa ||mu - mu_hat||_S^2 would multiply rounding noise
        # by a precision near 1e30. The eliminated value is
        # ||mu_hat - y_ref||_Z^2 + ||u - u_ref||_R^2 with Z <= Q, equal to the
        # tracking cost up to rounding when Z is Q to rounding, as here.
        model = random_stable_plant(np.random.default_rng(0), noise_std=0.0)
        traj = simulate(model, np.zeros(2), 1.0, steps=60, seed=0)
        dm = build_data_matrix(traj, 2, 4)
        pm = predictive_model(dm)
        w_ini = traj.samples[10:12].reshape(-1)
        cp = ControlProblem.from_step_weights(model.dims, 2, 4, y_ref=1.0)
        for lam in (0.5, 50.0, 1e6):
            res = optimistic(pm, w_ini, cp, lam)
            tracking = cp.tracking_cost(res.u_f, pm.predict_mean(w_ini, res.u_f))
            assert 0.0 <= res.objective <= tracking * (1.0 + 1e-12)
        assert abs(res.objective - tracking) <= 1e-6 * tracking

    def test_rejects_nonpositive_lambda(self):
        rng = np.random.default_rng(15)
        inst = random_control_instance(rng)
        with pytest.raises(ValueError):
            optimistic(inst.pm, inst.w_ini, inst.cp, lam=0.0)


class TestOptimisticSquareRootForm:
    """optimistic's (u, mean) QP with an output box, built from the inverse
    of the covariance's Cholesky factor T: J = T^-1 [-M_u I], P =
    2 blockdiag(R, Q) + 2 kappa J^T J and q = -2 kappa J^T T^-1 bias - 2 [R
    u_ref; Q y_ref]."""

    @staticmethod
    def captured(monkeypatch):
        """Record the P passed to each QP ``control``'s set-ups build
        (``control._qp_of_parts``) and each problem ``control`` solves."""
        built, solved = [], []
        problem, run = control._qp_of_parts, control.solve

        def building(**kwargs):
            built.append(kwargs["P"])
            return problem(**kwargs)

        def solving(prob, *args):
            solved.append(prob)
            return run(prob, *args)

        monkeypatch.setattr(control, "_qp_of_parts", building)
        monkeypatch.setattr(control, "solve", solving)
        return built, solved

    @staticmethod
    def precision_form(pm, w_ini, cp, lam):
        """(P, q) of the (u, mean) QP with the precision S = inv(L)^T inv(L)."""
        inv_chol = np.linalg.inv(np.linalg.cholesky(pm.cov))
        s_mat = inv_chol.T @ inv_chol
        kappa, nu = 0.5 * lam, cp.n_u
        a = np.hstack([-pm.M_u, np.eye(cp.n_y)])  # mean - M_u u
        p_mat = 2.0 * kappa * a.T @ s_mat @ a
        p_mat[:nu, :nu] += 2.0 * cp.R
        p_mat[nu:, nu:] += 2.0 * cp.Q
        q_vec = -2.0 * kappa * a.T @ s_mat @ (pm.M_ini @ w_ini)
        q_vec -= 2.0 * np.concatenate([cp.R @ cp.u_ref, cp.Q @ cp.y_ref])
        return p_mat, q_vec

    def test_qp_equals_the_precision_form(self, monkeypatch):
        rng = np.random.default_rng(61)
        for _ in range(5):
            inst = random_control_instance(rng, with_input_box=True, with_output_box=True)
            for lam in (0.2, 10.0, 500.0):
                built, solved = self.captured(monkeypatch)
                optimistic(inst.pm, inst.w_ini, inst.cp, lam)
                p_ref, q_ref = self.precision_form(inst.pm, inst.w_ini, inst.cp, lam)
                assert len(built) == len(solved) == 1
                assert np.max(np.abs(built[0] - p_ref)) <= 1e-12 * np.max(np.abs(p_ref))
                assert np.max(np.abs(solved[0].q - q_ref)) <= 1e-12 * np.max(np.abs(q_ref))
                # J^T J is exactly symmetric, so P needs no symmetrizing.
                assert np.array_equal(built[0], built[0].T)

    @staticmethod
    def direct_assembly(pm, w_ini, cp, lam, jitter):
        """The (u, mean) QP of one step assembled directly, not by
        ``control._tracking_qp``: P = 2 kappa J^T J with 2R and 2Q added to
        its diagonal blocks, q = -2 kappa J^T v - [2 R u_ref; 2 Q y_ref]."""
        kappa, nu = 0.5 * lam, cp.n_u
        inv_t = control.dtrtri(behavior.jittered_cholesky(pm.cov, jitter), lower=1)[0]
        j_mat = np.hstack([-(inv_t @ pm.M_u), inv_t])
        p_mat = (2.0 * kappa) * (j_mat.T @ j_mat)
        p_mat[:nu, :nu] += 2.0 * cp.R
        p_mat[nu:, nu:] += 2.0 * cp.Q
        ref_lin = np.concatenate([2.0 * cp.R @ cp.u_ref, 2.0 * cp.Q @ cp.y_ref])
        q_vec = (-2.0 * kappa) * j_mat.T @ (inv_t @ (pm.M_ini @ w_ini)) - ref_lin
        return QpProblem(P=p_mat, q=q_vec, lower=np.concatenate([cp.u_lower, cp.y_lower]),
                         upper=np.concatenate([cp.u_upper, cp.y_upper]))

    def test_qp_is_the_direct_assembly_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(64)
        singular = self.rank_one_instance()
        cases = [(singular, 1e-9)]
        for _ in range(4):
            inst = random_control_instance(rng, with_input_box=True, with_output_box=True)
            cases.append(((inst.pm, inst.w_ini, inst.cp), 1e-9))
        for (pm, w_ini, cp), jitter in cases:
            for lam in (0.2, 10.0, 500.0):
                _, solved = self.captured(monkeypatch)
                optimistic(pm, w_ini, cp, lam, jitter=jitter)
                want = self.direct_assembly(pm, w_ini, cp, lam, jitter)
                for name in QP_FIELDS:
                    a, b = getattr(solved[0], name), getattr(want, name)
                    assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), (lam, name)

    @staticmethod
    def rank_one_instance():
        rng = np.random.default_rng(62)
        inst = random_control_instance(rng, with_output_box=True)
        v = rng.standard_normal(inst.cp.n_y)
        pm = PredictiveModel(M_u=inst.pm.M_u, M_ini=inst.pm.M_ini, cov=np.outer(v, v))
        return pm, inst.w_ini, inst.cp

    def test_singular_covariance_needs_its_jitter(self):
        pm, w_ini, cp = self.rank_one_instance()
        with pytest.raises(NotPositiveDefinite):
            optimistic(pm, w_ini, cp, 5.0, jitter=0.0)

    def test_jitter_changes_the_plan(self):
        pm, w_ini, cp = self.rank_one_instance()
        small = optimistic(pm, w_ini, cp, 5.0, jitter=1e-9)
        large = optimistic(pm, w_ini, cp, 5.0, jitter=1e-3)
        assert small.solver.status == large.solver.status == "optimal"
        assert np.max(np.abs(small.u_f - large.u_f)) > 1e-6

    def test_set_up_factors_cov_and_p_once(self, monkeypatch):
        # One Cholesky factor of cov, one triangular inverse and one potrf of
        # P; no general solve, inverse or eigendecomposition.
        rng = np.random.default_rng(63)
        inst = random_control_instance(rng, with_input_box=True, with_output_box=True)
        calls = []

        def counted(module, name, label):
            fn = getattr(module, name)

            def call(*args, **kwargs):
                calls.append(label)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        counted(behavior, "chol_psd", "cholesky of cov")
        counted(control, "dtrtri", "triangular inverse")
        counted(qp, "dpotrf", "potrf of P")
        for name in ("solve", "inv", "eigh", "eigvalsh", "cholesky", "lstsq", "svd"):
            counted(np.linalg, name, f"np.linalg.{name}")
        control._optimistic_setup(inst.pm, inst.cp, 5.0, control.DEFAULT_JITTER)
        assert sorted(calls) == ["cholesky of cov", "potrf of P", "triangular inverse"]


class TestRobust:
    def test_large_lambda_recovers_certainty_equivalence(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            inst = random_control_instance(rng)
            res = robust(inst.pm, inst.w_ini, inst.cp, lam=1e10)
            ref = certainty_equivalence(inst.pm, inst.w_ini, inst.cp)
            assert np.max(np.abs(res.u_f - ref.u_f)) < 1e-4

    def test_below_threshold_rejected(self):
        rng = np.random.default_rng(17)
        inst = random_control_instance(rng)
        lambda0 = lambda_threshold(inst.pm, inst.cp)
        with pytest.raises(LambdaTooSmall) as err:
            robust(inst.pm, inst.w_ini, inst.cp, lam=0.5 * lambda0)
        assert err.value.lambda0 == pytest.approx(lambda0)

    def test_worst_case_mean_stationarity(self):
        # The worst-case mean zeroes the inner Lagrangian gradient
        # Q(mu - y_ref) - lam * S (mu - mu_hat); checked analytically and by
        # central differences on the Lagrangian itself.
        rng = np.random.default_rng(18)
        inst = random_control_instance(rng)
        lambda0 = lambda_threshold(inst.pm, inst.cp)
        lam = 1.5 * max(lambda0, 1e-6) + 1.0
        res = robust(inst.pm, inst.w_ini, inst.cp, lam=lam)
        mu_star = res.y_pred.mean
        mu_hat = inst.pm.predict_mean(inst.w_ini, res.u_f)
        precision = np.linalg.inv(inst.pm.cov)
        grad = inst.cp.Q @ (mu_star - inst.cp.y_ref) - lam * precision @ (mu_star - mu_hat)
        scale = max(1.0, float(np.max(np.abs(inst.cp.Q @ mu_star))), lam)
        assert np.max(np.abs(grad)) < 1e-7 * scale

        def lagrangian(mu):
            dev = mu - inst.cp.y_ref
            tether = mu - mu_hat
            return float(dev @ inst.cp.Q @ dev - lam * tether @ precision @ tether)

        from conftest import fd_gradient

        fd = fd_gradient(lagrangian, mu_star, h=1e-5)
        assert np.max(np.abs(fd)) < 1e-5 * scale

    def test_sampled_ball_never_beats_dual_value(self):
        # Every mean inside the divergence ball of radius KL(mu*) yields an
        # expected cost no larger than the dual value.
        rng = np.random.default_rng(19)
        for _ in range(5):
            inst = random_control_instance(rng)
            lambda0 = lambda_threshold(inst.pm, inst.cp)
            lam = 1.3 * max(lambda0, 0.5)
            res = robust(inst.pm, inst.w_ini, inst.cp, lam=lam)
            mu_star = res.y_pred.mean
            mu_hat = inst.pm.predict_mean(inst.w_ini, res.u_f)
            radius = kl_mean_term(mu_star, mu_hat, inst.pm.cov)
            trace = float(np.trace(inst.cp.Q @ inst.pm.cov))
            dual_value = inst.cp.tracking_cost(res.u_f, mu_star) + trace

            dec = sym_eig(inst.pm.cov)
            root = dec.vectors * np.sqrt(np.clip(dec.values, 0.0, None))
            k = mu_star.size
            worst = -np.inf
            for i in range(200):
                z = rng.standard_normal(k)
                z /= np.linalg.norm(z)
                r = 1.0 if i < 50 else rng.uniform() ** (1.0 / k)
                mu = mu_hat + np.sqrt(2.0 * radius) * r * (root @ z)
                assert kl_mean_term(mu, mu_hat, inst.pm.cov) <= radius * (1 + 1e-9)
                cost = inst.cp.tracking_cost(res.u_f, mu) + trace
                worst = max(worst, cost)
            assert worst <= dual_value + 1e-6 * max(1.0, abs(dual_value))

    def test_output_box_rejected(self):
        rng = np.random.default_rng(20)
        inst = random_control_instance(rng, with_output_box=True)
        with pytest.raises(ShapeError):
            robust(inst.pm, inst.w_ini, inst.cp, lam=1e6)


class TestHessian:
    def test_zero_output_weight_gives_input_weight(self):
        pm = scalar_model_pm()
        cp = scalar_cp(q=0.0, r=0.7)
        rep = hessian(pm, cp, lam=2.0)
        assert np.allclose(rep.matrix, [[0.7]], atol=1e-12)
        assert rep.psd

    def test_matches_finite_difference_hessian(self):
        rng = np.random.default_rng(21)
        inst = random_control_instance(rng)
        lambda0 = lambda_threshold(inst.pm, inst.cp)
        lam = 2.0 * max(lambda0, 1.0)
        rep = hessian(inst.pm, inst.cp, lam)
        precision = np.linalg.inv(inst.pm.cov)
        gap = lam * precision - inst.cp.Q
        bias = inst.pm.M_ini @ inst.w_ini

        def eq13_objective(u):
            mu_hat = inst.pm.M_u @ u + bias
            v = lam * precision @ mu_hat - inst.cp.Q @ inst.cp.y_ref
            du = u - inst.cp.u_ref
            return float(
                v @ np.linalg.solve(gap, v)
                - lam * mu_hat @ precision @ mu_hat
                + du @ inst.cp.R @ du
            )

        fd = fd_hessian(eq13_objective, np.zeros(inst.cp.n_u), h=1e-3)
        assert np.linalg.norm(fd - 2.0 * rep.matrix) < 1e-4 * max(
            1.0, np.linalg.norm(2.0 * rep.matrix)
        )

    def test_true_large_lambda_limit(self):
        # H(lam) -> R + M_u' Q M_u (not R alone) as lam grows.
        rng = np.random.default_rng(22)
        for _ in range(5):
            inst = random_control_instance(rng)
            rep = hessian(inst.pm, inst.cp, lam=1e10)
            limit = inst.cp.R + inst.pm.M_u.T @ inst.cp.Q @ inst.pm.M_u
            assert np.linalg.norm(rep.matrix - limit) < 1e-3 * np.linalg.norm(limit)

    def test_singular_gap_raises(self):
        # cov 1 and Q 4 give Lambda = 4 exactly, so lam*S - Q is singular at
        # lam = 4: the Hessian does not exist there.
        pm = scalar_model_pm(cov=1.0)
        cp = scalar_cp(q=4.0)
        with pytest.raises(LambdaTooSmall) as err:
            hessian(pm, cp, lam=4.0)
        assert err.value.lambda0 == 4.0
        # Z = lam Lambda / (lam - Lambda) = 8 at lam = 8, and H = R + Z.
        assert float(hessian(pm, cp, lam=8.0).matrix[0, 0]) == pytest.approx(9.0, rel=1e-12)

    def test_indefinite_below_threshold(self):
        # Scalar crafted instance: cov 2, Q 3, R 0.1 gives lambda0 = 6 and
        # H(3) = 0.1 + 3 + 9/(1.5 - 3) = -2.9 < 0.
        pm = scalar_model_pm(cov=2.0)
        cp = scalar_cp(q=3.0, r=0.1)
        rep = hessian(pm, cp, lam=3.0)
        assert not rep.psd
        assert sym_eig(rep.matrix).values[-1] < 0
        # The solver-side diagnosis agrees.
        from gdpc.qp import condition_report

        diag = condition_report(rep.matrix)
        assert diag.indefinite
        assert diag.lambda_min == pytest.approx(-2.9, abs=1e-9)


class TestLambdaThreshold:
    def test_scalar_value(self):
        # lam/2 > 3  <=>  lam > 6.
        pm = scalar_model_pm(cov=2.0)
        cp = scalar_cp(q=3.0)
        lambda0 = lambda_threshold(pm, cp)
        assert type(lambda0) is float
        assert lambda0 == pytest.approx(6.0 * (1.0 + 1e-6), rel=1e-9)

    def test_zero_output_weight(self):
        pm = scalar_model_pm()
        cp = scalar_cp(q=0.0)
        lambda0 = lambda_threshold(pm, cp)
        assert lambda0 == 0.0

    def test_psd_certificate(self):
        rng = np.random.default_rng(23)
        inst = random_control_instance(rng)
        lambda0 = lambda_threshold(inst.pm, inst.cp)
        probe = lambda0 * (1.0 + 1e-6)
        assert hessian(inst.pm, inst.cp, probe).psd

    def test_rank_one_covariance_is_exact(self):
        # cov = v v^T has no Cholesky factor, but max eig(F^T Q F) = v^T Q v
        # for every F F^T = cov. At 2 lambda0 robust's weight is
        # Z = Q + (Q v)(Q v)^T / (lam - v^T Q v), and the plan minimizes
        # ||u - u_ref||_R^2 + ||M_u u + bias - y_ref||_Z^2 in closed form.
        rng = np.random.default_rng(27)
        for _ in range(5):
            inst = random_control_instance(rng)
            cp = inst.cp
            v = rng.standard_normal(cp.n_y)
            pm = PredictiveModel(M_u=inst.pm.M_u, M_ini=inst.pm.M_ini, cov=np.outer(v, v))
            lambda0 = lambda_threshold(pm, cp)
            exact = (1.0 + 1e-6) * float(v @ cp.Q @ v)
            assert abs(lambda0 - exact) <= 1e-12 * exact
            lam = 2.0 * lambda0
            res = robust(pm, inst.w_ini, cp, lam)
            assert res.solver.status == "optimal"
            qv = cp.Q @ v
            z = cp.Q + np.outer(qv, qv) / (lam - v @ qv)
            bias = pm.M_ini @ inst.w_ini
            u = np.linalg.solve(cp.R + pm.M_u.T @ z @ pm.M_u,
                                cp.R @ cp.u_ref - pm.M_u.T @ z @ (bias - cp.y_ref))
            assert np.max(np.abs(res.u_f - u)) < 1e-9 * max(1.0, np.max(np.abs(u)))


class TestControlProblemValidation:
    def test_requires_positive_definite_input_weight(self):
        with pytest.raises(ShapeError):
            ControlProblem(
                dims=SignalDims(1, 1), l_ini=1, l_f=1,
                Q=[[1.0]], R=[[0.0]], u_ref=[0.0], y_ref=[0.0],
            )

    def test_requires_psd_output_weight(self):
        with pytest.raises(ShapeError):
            ControlProblem(
                dims=SignalDims(1, 1), l_ini=1, l_f=1,
                Q=[[-1.0]], R=[[1.0]], u_ref=[0.0], y_ref=[0.0],
            )

    @staticmethod
    def eigvalsh_verdict(q, r):
        """The oracle: the weight rules evaluated on eigvalsh's eigenvalues,
        Q PSD by is_psd's rule at 1e-10 and R PD."""
        q_eigs, r_eigs = np.linalg.eigvalsh(q), np.linalg.eigvalsh(r)
        return (q_eigs[0] >= -1e-10 * max(1.0, abs(q_eigs[-1]))) and r_eigs[0] > 0.0

    @pytest.mark.parametrize("q,r,accepted", [
        (np.diag([1.0, 0.0, 2.0]), np.diag([1.0, 0.5]), True),
        (np.diag([1.0, -1e-12, 2.0]), np.diag([1.0, 0.5]), True),  # within the 1e-10 rule
        (np.diag([1.0, -1e-9, 2.0]), np.diag([1.0, 0.5]), False),
        (np.diag([-1e-11, -1e-12, -0.0]), np.diag([1.0, 0.5]), True),
        (np.diag([1.0, 1.0, 2.0]), np.diag([1.0, 0.0]), False),
        (np.diag([1.0, 1.0, 2.0]), np.diag([-1.0, 0.5]), False),
        (np.diag([1.0, 1.0, 2.0]), np.diag([1e-300, 0.5]), True),
        (np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
         np.diag([1.0, 0.5]), False),  # not diagonal and indefinite
        (np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]]),
         np.diag([1.0, 0.5]), True),
        (np.diag([1.0, 1.0, 2.0]), np.array([[1.0, 2.0], [2.0, 1.0]]), False),
        (np.diag([1.0, 1.0, 2.0]), np.array([[2.0, 1.0], [1.0, 2.0]]), True),
    ])
    def test_weights_are_judged_as_eigvalsh_judges_them(self, q, r, accepted):
        # A diagonal weight is decided from its diagonal, any other by
        # eigvalsh; both must give eigvalsh's verdict.
        assert self.eigvalsh_verdict(q, r) == accepted

        def build():  # two inputs, three outputs, one future step
            return ControlProblem(dims=SignalDims(2, 3), l_ini=1, l_f=1, Q=q, R=r,
                                  u_ref=np.zeros(2), y_ref=np.zeros(3))

        if accepted:
            build()
        else:
            with pytest.raises(ShapeError, match="positive"):
                build()

    @pytest.mark.parametrize("l_ini,l_f", [(1, 0), (1, -1), (0, 2)])
    def test_horizons_below_one_are_shape_errors(self, l_ini, l_f):
        with pytest.raises(ShapeError, match="horizons"):
            ControlProblem(dims=SignalDims(1, 1), l_ini=l_ini, l_f=l_f, Q=np.eye(1),
                           R=np.eye(1), u_ref=[0.0], y_ref=[0.0])
        if l_f >= 0:  # np.tile rejects a negative L_f first, with a ValueError
            with pytest.raises(ShapeError, match="horizons"):
                ControlProblem.from_step_weights(SignalDims(1, 1), l_ini, l_f)

    @pytest.mark.parametrize("kw,name", [
        ({"y_ref": np.nan}, "y_ref"), ({"u_ref": np.inf}, "u_ref"),
        ({"y_ref": -np.inf}, "y_ref"), ({"u_min": np.nan}, "u_lower"),
        ({"u_max": np.nan}, "u_upper"), ({"y_min": np.nan}, "y_lower"),
        ({"y_max": np.nan}, "y_upper"),
    ])
    def test_non_finite_reference_or_nan_bound_is_named(self, kw, name):
        with pytest.raises(ShapeError, match=name):
            ControlProblem.from_step_weights(SignalDims(1, 1), 3, 8, **kw)

    @pytest.mark.parametrize("entry", ["spc", "ce", "optimistic", "robust", "hessian",
                                       "lambda_threshold"])
    @pytest.mark.parametrize("output_box", [False, True])
    def test_a_model_of_other_sizes_is_a_shape_error(self, entry, output_box):
        # A model identified at L_f 8 against a problem at L_f 6: each entry
        # point names both shapes instead of failing inside a matmul.
        model = random_stable_plant(np.random.default_rng(29), n=2, m=1, p=1)
        traj = simulate(model, np.zeros(2), 1.0, steps=120, seed=29)
        pm = predictive_model(build_data_matrix(traj, 3, 8))
        cp = ControlProblem.from_step_weights(model.dims, 3, 6, y_min=-5.0 if output_box else None)
        w_ini = traj.samples[:3].reshape(-1)
        calls = {
            "spc": lambda: spc(pm, w_ini, cp),
            "ce": lambda: certainty_equivalence(pm, w_ini, cp),
            "optimistic": lambda: optimistic(pm, w_ini, cp, lam=1.0),
            "robust": lambda: robust(pm, w_ini, cp, lam=1e6),
            "hessian": lambda: hessian(pm, cp, 1e6),
            "lambda_threshold": lambda: lambda_threshold(pm, cp),
        }
        if entry == "robust" and output_box:  # robust rejects an output box first
            with pytest.raises(ShapeError, match="output box"):
                calls[entry]()
            return
        with pytest.raises(ShapeError, match=r"M_u is \(8, 8\), \(n_y, n_u\) is \(6, 6\)"):
            calls[entry]()

    def test_infinite_bounds_are_allowed(self):
        cp = ControlProblem.from_step_weights(SignalDims(1, 1), 3, 8, u_min=-np.inf,
                                              u_max=np.inf, y_min=-np.inf, y_max=np.inf)
        assert np.all(cp.u_lower == -np.inf) and np.all(cp.y_upper == np.inf)

    def test_box_constraints_respected_across_controllers(self):
        rng = np.random.default_rng(24)
        inst = random_control_instance(rng, with_input_box=True)
        lambda0 = lambda_threshold(inst.pm, inst.cp)
        lam = 2.0 * max(lambda0, 1.0)
        for res in (
            spc(inst.pm, inst.w_ini, inst.cp),
            certainty_equivalence(inst.pm, inst.w_ini, inst.cp),
            deepc(inst.dm, inst.w_ini, inst.cp, "proj2", 1.0),
            optimistic(inst.pm, inst.w_ini, inst.cp, lam),
            robust(inst.pm, inst.w_ini, inst.cp, lam),
        ):
            assert np.all(res.u_f <= inst.cp.u_upper + 1e-6)
            assert np.all(res.u_f >= inst.cp.u_lower - 1e-6)


@pytest.mark.parametrize("controller,weight", [
    ("deepc", np.nan), ("deepc", np.inf), ("optimistic", np.nan), ("optimistic", np.inf),
    ("robust", np.nan), ("robust", np.inf), ("robust", -np.inf),
    ("optimistic_jitter", -1.0), ("optimistic_jitter", np.nan), ("optimistic_jitter", np.inf),
])
def test_non_finite_weights_are_rejected(controller, weight):
    inst = random_control_instance(np.random.default_rng(16))
    with pytest.raises(ValueError, match="finite"):
        if controller == "deepc":
            deepc(inst.dm, inst.w_ini, inst.cp, "proj2", weight)
        elif controller == "optimistic_jitter":  # the weight is optimistic's jitter
            optimistic(inst.pm, inst.w_ini, inst.cp, 1.0, jitter=weight)
        else:
            getattr(control, controller)(inst.pm, inst.w_ini, inst.cp, weight)


def call_controller(name, inst, w_ini):
    """One call of controller ``name`` (deepc as deepc-<regularizer>) on
    ``inst`` with the history window ``w_ini``; optimistic and robust at
    twice the robust threshold, deepc at lambda_g 1."""
    lam = 2.0 * max(lambda_threshold(inst.pm, inst.cp), 1.0)
    if name.startswith("deepc"):
        return deepc(inst.dm, w_ini, inst.cp, name.split("-")[1], 1.0)
    if name in ("optimistic", "robust"):
        return getattr(control, name)(inst.pm, w_ini, inst.cp, lam)
    return {"spc": spc, "ce": certainty_equivalence}[name](inst.pm, w_ini, inst.cp)


CONTROLLER_CALLS = ("spc", "ce", "optimistic", "robust", "deepc-proj2", "deepc-sq2")


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("controller", CONTROLLER_CALLS)
def test_non_finite_w_ini_is_named(controller, entry):
    inst = random_control_instance(np.random.default_rng(17), with_input_box=True)
    w_ini = inst.w_ini.copy()
    w_ini[-1] = entry
    with pytest.raises(ShapeError, match="w_ini contains non-finite entries"):
        call_controller(controller, inst, w_ini)


class TestResultsFromCheckedParts:
    """A ControlResult is built from its parts without the dataclass
    __init__; it must hold what that __init__ would and stay frozen."""

    @pytest.mark.parametrize("controller,output_box", [
        (name, box) for name in CONTROLLER_CALLS + ("deepc-l1",) for box in (False, True)
        if not (box and name == "robust")  # robust has no output-box form
    ])
    def test_result_is_the_dataclass_built_one(self, controller, output_box):
        inst = random_control_instance(np.random.default_rng(18), with_input_box=True,
                                       with_output_box=output_box)
        res = call_controller(controller, inst, inst.w_ini)
        built = ControlResult(**{f.name: getattr(res, f.name)
                                 for f in dataclasses.fields(ControlResult)})
        assert_same_fields(res, built)
        assert type(res.objective) is float and (res.g is None) == (controller[:5] != "deepc")

    @pytest.mark.parametrize("output_box", [False, True])
    def test_spc_objective_is_the_tracking_cost(self, output_box):
        # Bit for bit: spc forms it from its deviations with tracking_cost's
        # expressions, and certainty equivalence adds tr(Q cov).
        solved = 0
        for seed in range(8):
            inst = random_control_instance(np.random.default_rng(seed), with_input_box=True,
                                           with_output_box=output_box)
            try:
                res = spc(inst.pm, inst.w_ini, inst.cp)
            except InfeasibleProblem:  # a random output box the input box cannot meet
                continue
            cost = inst.cp.tracking_cost(res.u_f, res.y_pred.mean)
            assert res.objective == cost
            ce = certainty_equivalence(inst.pm, inst.w_ini, inst.cp)
            assert ce.objective == cost + float(np.trace(inst.cp.Q @ inst.pm.cov))
            assert ce.u_f.tobytes() == res.u_f.tobytes()
            solved += 1
        assert solved >= 4


def assert_same_result(a, b):
    """Two ControlResults are equal bit for bit, solver fields included."""
    for x, y in ((a.u_f, b.u_f), (a.y_pred.mean, b.y_pred.mean),
                 (a.y_pred.cov, b.y_pred.cov), (a.solver.x, b.solver.x),
                 (a.solver.bound_duals, b.solver.bound_duals),
                 (a.solver.eq_duals, b.solver.eq_duals)):
        assert x.tobytes() == y.tobytes() and x.shape == y.shape
    assert (a.g is None) == (b.g is None)
    if a.g is not None:
        assert a.g.tobytes() == b.g.tobytes()
    for name in ("objective", "lambda_effective"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
    for name in ("objective", "status", "primal_residual", "dual_residual",
                 "iterations", "polished"):
        assert getattr(a.solver, name) == getattr(b.solver, name), name


class TestPerRunSetup:
    """Each controller keeps its last set-up, keyed by the model and control
    problem objects and the parameters the set-up reads. A call that reuses
    it must return what a call on freshly built equal objects returns."""

    @staticmethod
    def check_sequence(call, calls, windows):
        """Make the calls ``call(model, w_ini, cp, **kw)`` for each
        (model, cp, kw) of ``calls`` in turn, each twice, then compare every
        result with a call on fresh copies of its model and cp."""
        results = []
        for k, (model, cp, kw) in enumerate(calls):
            w_ini = windows[k % len(windows)]
            first = call(model, w_ini, cp, **kw)
            assert_same_result(first, call(model, w_ini, cp, **kw))
            results.append(first)
        for k, ((model, cp, kw), first) in enumerate(zip(calls, results)):
            w_ini = windows[k % len(windows)]
            fresh = call(dataclasses.replace(model), w_ini, dataclasses.replace(cp), **kw)
            assert_same_result(first, fresh)

    @staticmethod
    def instance(seed, **kw):
        rng = np.random.default_rng(seed)
        inst = random_control_instance(rng, with_input_box=True, **kw)
        other = inst.w_ini + 0.3 * rng.standard_normal(inst.w_ini.shape)
        return inst, [inst.w_ini, other]

    @staticmethod
    def other_cp(cp):
        """An equal-shaped control problem with another output reference."""
        return dataclasses.replace(cp, y_ref=cp.y_ref + 0.5)

    @staticmethod
    def singular_cov_model(pm, rng):
        """``pm`` with a rank-one covariance, on which optimistic's output-box
        precision takes its jitter."""
        v = rng.standard_normal(pm.cov.shape[0])
        return PredictiveModel(M_u=pm.M_u, M_ini=pm.M_ini, cov=np.outer(v, v))

    def test_spc_and_ce(self):
        for seed, box in ((40, False), (41, True)):
            inst, windows = self.instance(seed, with_output_box=box)
            pm, cp = inst.pm, inst.cp
            pm2 = dataclasses.replace(pm, M_u=1.5 * pm.M_u)
            cp2 = self.other_cp(cp)
            calls = [(pm, cp, {}), (pm, cp, {"settings": QpSettings(max_iter=1)}),
                     (pm, cp, {"settings": QpSettings(eps_abs=1e-6)}), (pm, cp, {}),
                     (pm2, cp, {}), (pm, cp, {}), (pm, cp2, {}), (pm, cp, {})]
            for call in (spc, certainty_equivalence):
                self.check_sequence(call, calls, windows)

    def test_deepc(self):
        inst, windows = self.instance(42)
        dm, cp = inst.dm, inst.cp
        dm2 = dataclasses.replace(dm, matrix=1.5 * dm.matrix)
        cp2 = self.other_cp(cp)
        proj2 = {"regularizer": "proj2", "lambda_g": 5.0}
        calls = [
            (dm, cp, proj2),
            (dm, cp, {"regularizer": "sq2", "lambda_g": 5.0}),
            (dm, cp, proj2),
            (dm, cp, {"regularizer": "proj2", "lambda_g": 50.0}),
            (dm, cp, {"regularizer": "proj2", "lambda_g": 0.0}),
            (dm, cp, {"regularizer": "l1", "lambda_g": 0.5}),
            (dm, cp, {"regularizer": "proj2", "lambda_g": 0.0, "rank_tol": 1e-3}),
            (dm, cp, {"regularizer": "proj2", "lambda_g": 0.0}),
            (dm, cp, dict(proj2, settings=QpSettings(eps_abs=1e-6))),
            (dm, cp, proj2),
            (dm2, cp, proj2),
            (dm, cp2, proj2),
            (dm, cp, proj2),
        ]
        self.check_sequence(deepc, calls, windows)

    def test_optimistic(self):
        rng = np.random.default_rng(43)
        for box in (False, True):
            inst, windows = self.instance(44, with_output_box=box)
            pm, cp = self.singular_cov_model(inst.pm, rng), inst.cp
            pm2 = self.singular_cov_model(inst.pm, rng)
            cp2 = self.other_cp(cp)
            calls = [
                (pm, cp, {"lam": 0.5}), (pm, cp, {"lam": 50.0}), (pm, cp, {"lam": 0.5}),
                (pm, cp, {"lam": 0.5, "jitter": 1e-3}), (pm, cp, {"lam": 0.5}),
                (pm, cp, {"lam": 0.5, "settings": QpSettings(max_iter=1)}),
                (pm2, cp, {"lam": 0.5}), (pm, cp2, {"lam": 0.5}), (pm, cp, {"lam": 0.5}),
            ]
            self.check_sequence(optimistic, calls, windows)

    def test_robust(self):
        rng = np.random.default_rng(45)
        inst, windows = self.instance(46)
        pm, cp = self.singular_cov_model(inst.pm, rng), inst.cp
        pm2 = dataclasses.replace(pm, M_u=1.5 * pm.M_u)
        cp2 = self.other_cp(cp)
        lam = 2.0 * lambda_threshold(pm, cp)
        calls = [
            (pm, cp, {"lam": lam}), (pm, cp, {"lam": 5.0 * lam}), (pm, cp, {"lam": lam}),
            (pm, cp, {"lam": 1.5 * lam}), (pm, cp, {"lam": lam}),
            (pm, cp, {"lam": lam, "settings": QpSettings(max_iter=1)}),
            (pm2, cp, {"lam": lam}), (pm, cp2, {"lam": lam}), (pm, cp, {"lam": lam}),
        ]
        self.check_sequence(robust, calls, windows)

    def test_failed_setup_is_not_kept(self):
        inst, _ = self.instance(47)
        lam0 = lambda_threshold(inst.pm, inst.cp)
        ok = robust(inst.pm, inst.w_ini, inst.cp, 2.0 * lam0)
        for _ in range(2):
            with pytest.raises(LambdaTooSmall):
                robust(inst.pm, inst.w_ini, inst.cp, 0.5 * lam0)
        assert_same_result(ok, robust(inst.pm, inst.w_ini, inst.cp, 2.0 * lam0))

    def test_in_place_writes_raise(self):
        inst, _ = self.instance(48, with_output_box=True)
        for array in (inst.pm.M_u, inst.pm.M_ini, inst.pm.cov, inst.dm.matrix,
                      inst.dm.row_index, inst.cp.Q, inst.cp.R, inst.cp.u_ref,
                      inst.cp.y_ref, inst.cp.u_lower, inst.cp.y_upper):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_constructors_copy_their_arrays(self):
        m_u, cov = np.eye(2), np.eye(2)
        pm = PredictiveModel(M_u=m_u, M_ini=np.zeros((2, 4)), cov=cov)
        m_u[0, 0] = 5.0  # the caller's array stays writable and is not shared
        assert pm.M_u[0, 0] == 1.0
        q = np.eye(2)
        cp = ControlProblem(dims=SignalDims(1, 1), l_ini=2, l_f=2, Q=q, R=np.eye(2),
                            u_ref=np.zeros(2), y_ref=np.zeros(2))
        q[1, 1] = 3.0
        assert cp.Q[1, 1] == 1.0


QP_FIELDS = ("P", "q", "A_eq", "b_eq", "lower", "upper", "_p_factor", "_abs_p")


class TestSetUpQps:
    """Every set-up builds its QP by ``QpProblem._of_parts`` from parts it
    has checked, and gets the problem
    the validating constructor builds of the same arrays, field for field;
    the tethered weight is one LAPACK gesv."""

    @staticmethod
    def captured(monkeypatch):
        """(arrays passed, problem built) for each QP the set-ups build."""
        built = []
        of_parts = control._qp_of_parts

        def building(**kwargs):
            built.append((kwargs, of_parts(**kwargs)))
            return built[-1][1]

        monkeypatch.setattr(control, "_qp_of_parts", building)
        return built

    @staticmethod
    def instance(seed, **kw):
        return random_control_instance(np.random.default_rng(seed), with_input_box=True, **kw)

    def calls(self):
        """(label, controller call) of every set-up path."""
        plain, boxed = self.instance(80), self.instance(81, with_output_box=True)
        lam0 = lambda_threshold(plain.pm, plain.cp)

        def on(inst, fn, *args, **kw):
            return lambda: fn(inst.pm, inst.w_ini, inst.cp, *args, **kw)

        def on_dm(inst, *args):
            return lambda: deepc(inst.dm, inst.w_ini, inst.cp, *args)

        return [
            ("spc", on(plain, spc)),
            ("ce", on(self.instance(82), certainty_equivalence)),
            ("spc output box", on(boxed, spc)),
            ("deepc eliminated", on_dm(plain, "proj2", 5.0)),
            ("deepc proj2 output box", on_dm(boxed, "proj2", 5.0)),
            ("deepc sq2", on_dm(plain, "sq2", 5.0)),
            ("deepc lambda_g 0", on_dm(plain, "proj2", 0.0)),
            ("deepc l1", on_dm(plain, "l1", 0.5)),
            ("deepc l1 output box", on_dm(boxed, "l1", 0.5)),
            ("optimistic", on(plain, optimistic, 5.0)),
            ("optimistic output box", on(boxed, optimistic, 5.0)),
            ("robust", on(plain, robust, 2.0 * lam0)),
        ]

    def test_each_set_up_qp_equals_the_constructors(self, monkeypatch):
        for label, call in self.calls():
            built = self.captured(monkeypatch)
            call()
            assert len(built) == 1, label
            kwargs, got = built[0]
            want = QpProblem(**kwargs)
            for name in QP_FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                if b is None:
                    assert a is None, (label, name)
                    continue
                assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), \
                    (label, name)
                assert not a.flags.writeable, (label, name)
            if want.n_eq == 0:
                assert got._p_factor is not None and got._abs_p is not None, label

    def test_deepc_l1_builds_by_of_parts(self, monkeypatch):
        built = self.captured(monkeypatch)
        inits = []
        post_init = QpProblem.__post_init__
        monkeypatch.setattr(QpProblem, "__post_init__",
                            lambda self: inits.append(1) or post_init(self))
        inst = self.instance(83)
        deepc(inst.dm, inst.w_ini, inst.cp, "l1", 0.5)
        # _tracking_qp's (g+, g-, u, y) QP, and no validating constructor.
        assert len(built) == 1 and inits == []

    def test_an_overflowing_p_raises(self):
        # 2 kappa J^T J overflows at lam 1e308, as the constructor found.
        inst = self.instance(84, with_output_box=True)
        with np.errstate(over="ignore"), pytest.raises(InvalidMatrix, match="non-finite"):
            optimistic(inst.pm, inst.w_ini, inst.cp, 1e308)

    @staticmethod
    def solve_form(pm, cp, kappa):
        """(gain, Z) of the plain statement, with numpy's solve."""
        gain = np.linalg.solve(cp.Q @ pm.cov + kappa * np.eye(cp.n_y), cp.Q)
        return gain, symmetrize(kappa * gain)

    @staticmethod
    def gesv_form(pm, cp, kappa):
        """(gain, Z) of the plain statement, with scipy's LAPACK gesv."""
        gain = control.dgesv(cp.Q @ pm.cov + kappa * np.eye(cp.n_y), cp.Q)[2]
        return gain, symmetrize(kappa * gain)

    @staticmethod
    def assert_bits(got, want):
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes() and a.flags.c_contiguous

    @staticmethod
    def example():
        cfg = harness.load_config(EXAMPLE_CONFIG)
        _, dm, pm = harness.identification_run(cfg)
        return cfg, dm, pm, cfg.control_problem()

    def test_tethered_weight_at_the_examples_weight_is_numpys(self):
        # optimistic's, deepc's and robust's kappa at the example's lambda.
        cfg, dm, pm, cp = self.example()
        for kappa in (0.5 * cfg.lam, cfg.lam / dm.n_columns, -cfg.lam):
            self.assert_bits(control._tethered_weight(pm, cp, kappa),
                             self.solve_form(pm, cp, kappa))

    def test_tethered_weight_is_the_plain_gesv_form(self):
        # The plain statement's bits with scipy's gesv, on the example's
        # weights and on random instances. numpy links its own OpenBLAS
        # build, whose gesv rounds some systems differently (on the example,
        # optimistic's and deepc's kappa at lambda 0.5 and deepc's at 5);
        # there the two agree to well within eps cond(A).
        cfg, dm, pm, cp = self.example()
        assert min(cfg.lambda_grid) > lambda_threshold(pm, cp)  # robust's too
        cases = [(pm, cp, k) for lam in cfg.lambda_grid
                 for k in (0.5 * lam, lam / dm.n_columns, -lam)]
        rng = np.random.default_rng(85)
        for _ in range(40):
            inst = random_control_instance(rng, with_input_box=True)
            lam0 = lambda_threshold(inst.pm, inst.cp)
            cases += [(inst.pm, inst.cp, k) for k in (1e-6, 0.05, 0.5, 5.0, 250.0, -1.001 * lam0,
                                                      -2.0 * lam0, -10.0 * lam0)]
        eps = np.finfo(float).eps
        for pm, cp, kappa in cases:
            got = control._tethered_weight(pm, cp, kappa)
            self.assert_bits(got, self.gesv_form(pm, cp, kappa))
            cond = np.linalg.cond(cp.Q @ pm.cov + kappa * np.eye(cp.n_y))
            for a, b in zip(got, self.solve_form(pm, cp, kappa)):
                assert np.max(np.abs(a - b)) <= eps * cond * np.max(np.abs(b))

    def test_tethered_set_up_counts(self, monkeypatch):
        # One gesv, one potrf; no numpy solve, no symmetrize, no validating
        # QpProblem constructor.
        inst = self.instance(87)
        calls = []

        def counted(owner, name, label):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *args, **kw: calls.append(label) or fn(*args, **kw))

        counted(control, "dgesv", "dgesv")
        counted(qp, "dpotrf", "qp.dpotrf")
        counted(np.linalg, "solve", "np.linalg.solve")
        for module in (control, qp, linalg, behavior):
            counted(module, "symmetrize", "symmetrize")
        counted(QpProblem, "__post_init__", "QpProblem.__post_init__")
        control._tethered_input_qp(inst.pm, inst.cp, 2.5)
        assert sorted(calls) == ["dgesv", "qp.dpotrf"]

    def test_optimistic_without_output_box_ignores_the_jitter(self, monkeypatch):
        builds = []
        setup = control._optimistic_setup
        monkeypatch.setattr(control, "_optimistic_setup",
                            lambda *args: builds.append(args[3]) or setup(*args))
        plain, boxed = self.instance(88), self.instance(89, with_output_box=True)
        for inst, expected in ((plain, [1e-9]), (boxed, [1e-9, 1e-3, 1e-9])):
            builds.clear()
            first = optimistic(inst.pm, inst.w_ini, inst.cp, 5.0, jitter=1e-9)
            again = optimistic(inst.pm, inst.w_ini, inst.cp, 5.0, jitter=1e-3)
            optimistic(inst.pm, inst.w_ini, inst.cp, 5.0, jitter=1e-9)
            assert builds == expected
            if not inst.cp.has_output_box:
                assert_same_result(first, again)
