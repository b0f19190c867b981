"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. Each criterion computes its expected values from an
independent oracle (direct KKT solves, finite differences, Monte-Carlo
simulation/regression, exact plant rollouts), never from the code path
under test.

Known red: ``test_c04b_hessian_limit_as_stated`` encodes the claim that the
robust cost Hessian tends to the input weight R alone as the ambiguity
weight grows. The exact identity
    H(lam) = R + M_u' (Q + Q (lam*S - Q)^{-1} Q) M_u,   S = cov^{-1},
shows the true limit is R + M_u' Q M_u, so the check fails whenever Q != 0
(see ``test_c04c_hessian_true_limit``). It is retained as stated, pending
upstream reconciliation of the limit claim.
"""

import json
import subprocess
import sys

import numpy as np
from conftest import random_control_instance, random_stable_plant

from gdpc.behavior import (
    GaussianBehavior,
    condition,
    estimate,
    from_state_space,
    kl_mean_term,
    log_likelihood,
    predictive_model,
    sample,
)
from gdpc.control import (
    certainty_equivalence,
    ControlProblem,
    deepc,
    hessian,
    lambda_threshold,
    optimistic,
    robust,
    spc,
)
from gdpc.linalg import pinv, sym_eig
from gdpc.plant import simulate, step
from gdpc.qp import QpProblem, l1_epigraph, solve
from gdpc.trajectory import (
    SignalDims,
    assemble,
    block_row_permutation,
    build_data_matrix,
    excitation_rank,
)
from gdpc.verify import _certainty_equivalence_oracle


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'} - {detail}")


def spd(rng, k, scale=1.0):
    b = rng.standard_normal((k, k))
    return scale * (b @ b.T + 0.1 * np.eye(k))


class TestC01SpcEqualsCertaintyEquivalence:
    def test_c01_minimizers_and_trace_gap(self):
        rng = np.random.default_rng(101)
        worst_u, worst_obj = 0.0, 0.0
        for _ in range(50):
            inst = random_control_instance(rng, n_max=4, m_max=2, p_max=2, l_f_max=6)
            a = spc(inst.pm, inst.w_ini, inst.cp)
            # certainty_equivalence is spc plus the trace term; the oracle
            # solves the expected-cost problem in the (u, mean) form.
            u_ce, objective_ce = _certainty_equivalence_oracle(inst.pm, inst.w_ini, inst.cp)
            worst_u = max(worst_u, float(np.max(np.abs(a.u_f - u_ce))))
            trace = float(np.trace(inst.cp.Q @ inst.pm.cov))
            worst_obj = max(worst_obj, abs(objective_ce - a.objective - trace))
        passed = worst_u <= 1e-8 and worst_obj <= 1e-8
        report("C1 spc = certainty equivalence",
               passed, f"max input gap {worst_u:.2e}, objective-trace gap {worst_obj:.2e} (tol 1e-8)")
        assert worst_u <= 1e-8
        assert worst_obj <= 1e-8


class TestC02DeepcOptimisticEquivalence:
    def test_c02_matching_minimizers_and_no_kernel_component(self):
        """deepc and optimistic here share the predictor (``lq_predictor``)
        and the weight kappa Q (cov Q + kappa I)^-1
        (``control._tethered_input_qp``), so their plans agree by
        construction; what this checks on its own is deepc's g (Y_f g
        against optimistic's mean, and its kernel component). verify's
        ``deepc_elimination_matches_joint_qp`` (against the joint QP) and
        ``spectral_weights_match_solve_forms`` (against the spectral form)
        check the weight independently."""
        rng = np.random.default_rng(202)
        worst_u, worst_mu, worst_hom = 0.0, 0.0, 0.0
        boxes_active = 0
        for _ in range(50):
            inst = random_control_instance(
                rng, n_max=3, m_max=2, p_max=2, l_f_max=4,
                d_factor_max=5, with_input_box=True,
            )
            lambda_g = float(rng.uniform(0.5, 20.0))
            res_d = deepc(inst.dm, inst.w_ini, inst.cp, "proj2", lambda_g)
            res_o = optimistic(inst.pm, inst.w_ini, inst.cp,
                               lam=2.0 * lambda_g / inst.dm.n_columns)
            u_scale = max(1.0, float(np.max(np.abs(res_o.u_f))))
            worst_u = max(worst_u, float(np.max(np.abs(res_d.u_f - res_o.u_f))) / u_scale)
            y_from_g = inst.dm.future_outputs @ res_d.g
            y_scale = max(1.0, float(np.max(np.abs(res_o.y_pred.mean))))
            worst_mu = max(
                worst_mu, float(np.max(np.abs(y_from_g - res_o.y_pred.mean))) / y_scale
            )
            full = inst.dm.matrix
            hom = res_d.g - pinv(full) @ (full @ res_d.g)
            worst_hom = max(worst_hom, float(np.linalg.norm(hom)))
            if np.any(np.isclose(res_o.u_f, inst.cp.u_lower, atol=1e-7)) or np.any(
                np.isclose(res_o.u_f, inst.cp.u_upper, atol=1e-7)
            ):
                boxes_active += 1
        passed = worst_u <= 1e-5 and worst_mu <= 1e-5 and worst_hom <= 1e-6
        report(
            "C2 projected deepc = optimistic",
            passed,
            f"input gap {worst_u:.2e}, mean gap {worst_mu:.2e} (tol 1e-5); "
            f"kernel g {worst_hom:.2e} (tol 1e-6); boxes active in {boxes_active}/50",
        )
        assert worst_u <= 1e-5
        assert worst_mu <= 1e-5
        assert worst_hom <= 1e-6
        assert boxes_active >= 10


class TestC03RobustSampledBound:
    def test_c03_dual_upper_bounds_ball_and_stationarity(self):
        rng = np.random.default_rng(303)
        worst_excess = -np.inf
        worst_grad = 0.0
        for _ in range(20):
            inst = random_control_instance(rng)
            lambda0 = lambda_threshold(inst.pm, inst.cp)
            lam = max(lambda0, 0.3) * float(rng.uniform(1.2, 3.0))
            res = robust(inst.pm, inst.w_ini, inst.cp, lam=lam)
            mu_star = res.y_pred.mean
            mu_hat = inst.pm.predict_mean(inst.w_ini, res.u_f)
            radius = kl_mean_term(mu_star, mu_hat, inst.pm.cov)
            trace = float(np.trace(inst.cp.Q @ inst.pm.cov))
            dual_value = inst.cp.tracking_cost(res.u_f, mu_star) + trace
            scale = max(1.0, abs(dual_value))

            dec = sym_eig(inst.pm.cov)
            root = dec.vectors * np.sqrt(np.clip(dec.values, 0.0, None))
            k = mu_star.size
            z = rng.standard_normal((1000, k))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            radial = np.ones(1000)
            radial[200:] = rng.uniform(size=800) ** (1.0 / k)
            mus = mu_hat + np.sqrt(2.0 * radius) * radial[:, None] * (z @ root.T)
            dev = mus - inst.cp.y_ref
            du = res.u_f - inst.cp.u_ref
            costs = (
                np.einsum("ij,jk,ik->i", dev, inst.cp.Q, dev)
                + float(du @ inst.cp.R @ du)
                + trace
            )
            worst_excess = max(worst_excess, float(np.max(costs - dual_value)) / scale)

            precision = np.linalg.inv(inst.pm.cov)

            def lagrangian(mu, _lam=lam, _mu_hat=mu_hat, _inst=inst, _precision=precision):
                d1 = mu - _inst.cp.y_ref
                d2 = mu - _mu_hat
                return float(d1 @ _inst.cp.Q @ d1 - _lam * d2 @ _precision @ d2)

            h = 1e-5
            grad_scale = max(1.0, float(np.max(np.abs(inst.cp.Q @ mu_star))), lam)
            for i in range(k):
                e = np.zeros(k)
                e[i] = h
                fd = (lagrangian(mu_star + e) - lagrangian(mu_star - e)) / (2 * h)
                worst_grad = max(worst_grad, abs(fd) / grad_scale)
        passed = worst_excess <= 1e-6 and worst_grad <= 1e-6
        report(
            "C3 robust sampled dual bound",
            passed,
            f"max relative excess {worst_excess:.2e} (tol 1e-6); "
            f"stationarity residual {worst_grad:.2e} (tol 1e-6)",
        )
        assert worst_excess <= 1e-6
        assert worst_grad <= 1e-6


class TestC04LambdaCollapse:
    def test_c04a_controllers_collapse_to_certainty_equivalence(self):
        rng = np.random.default_rng(404)
        worst = 0.0
        for _ in range(20):
            inst = random_control_instance(rng)
            ref = certainty_equivalence(inst.pm, inst.w_ini, inst.cp)
            res_o = optimistic(inst.pm, inst.w_ini, inst.cp, lam=1e10)
            res_r = robust(inst.pm, inst.w_ini, inst.cp, lam=1e10)
            worst = max(worst, float(np.max(np.abs(res_o.u_f - ref.u_f))))
            worst = max(worst, float(np.max(np.abs(res_r.u_f - ref.u_f))))
        passed = worst <= 1e-4
        report("C4a lambda to infinity input collapse", passed,
               f"max input gap to certainty equivalence {worst:.2e} (tol 1e-4)")
        assert worst <= 1e-4

    def test_c04b_hessian_limit_as_stated(self):
        # As stated: || H(1e10) - R ||_F / ||R||_F <= 1e-3. The true limit
        # carries the extra M_u' Q M_u term (see module docstring), so this
        # fails for Q != 0; kept as stated deliberately.
        rng = np.random.default_rng(405)
        worst = 0.0
        for _ in range(20):
            inst = random_control_instance(rng)
            rep = hessian(inst.pm, inst.cp, lam=1e10)
            worst = max(
                worst,
                float(np.linalg.norm(rep.matrix - inst.cp.R) / np.linalg.norm(inst.cp.R)),
            )
        passed = worst <= 1e-3
        report(
            "C4b Hessian limit (as stated)",
            passed,
            f"max ||H(1e10) - R||/||R|| = {worst:.2e} (tol 1e-3); true limit "
            "is R + M_u' Q M_u, so this criterion cannot hold for Q != 0",
        )
        assert worst <= 1e-3

    def test_c04c_hessian_true_limit(self):
        rng = np.random.default_rng(406)
        worst = 0.0
        for _ in range(20):
            inst = random_control_instance(rng)
            rep = hessian(inst.pm, inst.cp, lam=1e10)
            limit = inst.cp.R + inst.pm.M_u.T @ inst.cp.Q @ inst.pm.M_u
            worst = max(
                worst, float(np.linalg.norm(rep.matrix - limit) / np.linalg.norm(limit))
            )
        passed = worst <= 1e-3
        report("C4c Hessian limit (exact identity)", passed,
               f"max ||H(1e10) - (R + M_u' Q M_u)||/||.|| = {worst:.2e} (tol 1e-3)")
        assert worst <= 1e-3


class TestC05StateSpaceCovariance:
    def test_c05_monte_carlo_window_covariance(self):
        rng = np.random.default_rng(505)
        worst = 0.0
        n_mc = 200_000
        for trial in range(5):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            p = int(rng.integers(1, 3))
            window = int(rng.integers(2, 5))
            model = random_stable_plant(rng, n=n, m=m, p=p, noise_std=0.15)
            state_cov = spd(rng, n, 0.5)
            input_cov = spd(rng, m * window, 0.8)
            gb = from_state_space(model, window, state_cov=state_cov, input_cov=input_cov)

            local = np.random.default_rng(1000 + trial)
            x = local.standard_normal((n_mc, n)) @ np.linalg.cholesky(state_cov).T
            u_all = local.standard_normal((n_mc, m * window)) @ np.linalg.cholesky(input_cov).T
            ys = np.empty((n_mc, p * window))
            chol_xi = np.linalg.cholesky(model.Sigma_xi + 1e-15 * np.eye(n))
            chol_eta = np.linalg.cholesky(model.Sigma_eta + 1e-15 * np.eye(p))
            for t in range(window):
                xi = local.standard_normal((n_mc, n)) @ chol_xi.T
                eta = local.standard_normal((n_mc, p)) @ chol_eta.T
                u_t = u_all[:, t * m : (t + 1) * m]
                ys[:, t * p : (t + 1) * p] = x @ model.C.T + u_t @ model.D.T + eta
                x = x @ model.A.T + u_t @ model.B.T + xi
            stacked = np.hstack([u_all, ys])  # blocked: all inputs, then all outputs
            empirical = stacked.T @ stacked / n_mc
            b = block_row_permutation(model.dims, 0, window)
            blocked = gb.cov[np.ix_(b, b)]
            worst = max(
                worst,
                float(np.linalg.norm(empirical - blocked) / np.linalg.norm(blocked)),
            )
        passed = worst <= 0.05
        report("C5 state-space window covariance", passed,
               f"max relative Frobenius error {worst:.3%} over 5 plants x "
               f"{n_mc} windows (tol 5%)")
        assert worst <= 0.05


class TestC06SampleCovarianceLocalMle:
    def test_c06_perturbations_strictly_decrease_likelihood(self):
        rng = np.random.default_rng(606)
        worst_gain = -np.inf
        for _ in range(10):
            window = int(rng.integers(2, 5))  # stack sizes 4, 6, 8
            k = 2 * window
            dims = SignalDims(1, 1)
            target = spd(rng, k)
            gb_true = GaussianBehavior(dims, window, np.zeros(k), target)
            cols = sample(gb_true, 200, seed=int(rng.integers(2**31)))
            dm = assemble(cols, dims, 1, window - 1)
            gb_hat = estimate(dm)
            base = log_likelihood(gb_hat, dm)
            lam_min = np.linalg.eigvalsh(gb_hat.cov)[0]
            for _ in range(100):
                delta = rng.standard_normal((k, k))
                delta = 0.5 * (delta + delta.T)
                eps = 0.25 * lam_min / np.linalg.norm(delta, 2)
                gb_pert = GaussianBehavior(dims, gb_hat.window, np.zeros(k),
                                           gb_hat.cov + eps * delta)
                worst_gain = max(worst_gain, log_likelihood(gb_pert, dm) - base)
        passed = worst_gain < 0.0
        report("C6 sample covariance local MLE", passed,
               f"largest log-likelihood gain over perturbations {worst_gain:.3e} (< 0 required)")
        assert worst_gain < 0.0


class TestC07Conditioning:
    def test_c07_monte_carlo_regression(self):
        # Seeded: the criterion takes a max over ~40 z-scores, so an
        # arbitrary seed can legitimately show a >3 sigma outlier; this one
        # keeps a wide margin (max z about 1.5).
        rng = np.random.default_rng(712)
        n_samp = 1_000_000
        worst_sigmas, worst_cov = 0.0, 0.0
        for _ in range(10):
            k = int(rng.integers(3, 7))
            n_free = int(rng.integers(1, k - 1))
            cov = spd(rng, k)
            mean = rng.standard_normal(k)
            # A single-step window with k channels hosts an arbitrary k-dim
            # Gaussian.
            gb = GaussianBehavior(SignalDims(k - 1, 1), 1, mean, cov)
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
            worst_sigmas = max(worst_sigmas, float(np.max(np.abs(mc_mean - cond.mean) / se)))
            worst_cov = max(
                worst_cov,
                float(np.linalg.norm(mc_cov - cond.cov) / np.linalg.norm(cond.cov)),
            )
        passed = worst_sigmas <= 3.0 and worst_cov <= 0.05
        report("C7 conditioning vs regression", passed,
               f"max mean offset {worst_sigmas:.2f} standard errors (tol 3); "
               f"max covariance error {worst_cov:.3%} (tol 5%)")
        assert worst_sigmas <= 3.0
        assert worst_cov <= 0.05

    def test_c07_deterministic_free_block_exact(self):
        mean = np.array([1.0, 2.0, 3.0, 4.0])
        cov = np.zeros((4, 4))
        cov[2:, 2:] = np.array([[2.0, 0.3], [0.3, 1.0]])
        gb = GaussianBehavior(SignalDims(1, 1), 2, mean, cov)
        cond = condition(gb, [0, 1], [97.0, -41.0])
        exact = np.array_equal(cond.mean, mean[2:])
        report("C7 deterministic free block", exact,
               "conditional mean equals the dependent mean exactly")
        assert exact


class TestC08QpSolver:
    def test_c08_kkt_oracle_and_soft_threshold(self):
        rng = np.random.default_rng(808)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 12))
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
            sol = solve(prob)
            assert sol.status == "optimal"
            worst = max(worst, float(np.max(np.abs(sol.x - ref))))

        aug, idx = l1_epigraph(QpProblem(P=[[1.0]], q=[-3.0]), weight=1.0, selector=[0])
        soft_err = abs(float(solve(aug).x[idx][0]) - 2.0)
        passed = worst <= 1e-6 and soft_err <= 1e-6
        report("C8 QP solver", passed,
               f"max KKT-oracle gap {worst:.2e} over 200 instances (tol 1e-6); "
               f"soft-threshold error {soft_err:.2e} (tol 1e-6)")
        assert worst <= 1e-6
        assert soft_err <= 1e-6


class TestC09DeterministicLimit:
    def test_c09_noiseless_rollout_and_rank(self):
        rng = np.random.default_rng(909)
        model = random_stable_plant(rng, n=2, m=1, p=1, noise_std=0.0)
        l_ini, l_f = 2, 3
        window = l_ini + l_f
        traj = simulate(model, np.zeros(2), 1.0, steps=window + 120, seed=13)
        dm = build_data_matrix(traj, l_ini, l_f)

        rank_report = excitation_rank(dm, expected=1 * window + 2)
        x = np.zeros(2)
        states = [x]
        for t in range(traj.length):
            x, _ = step(model, x, traj.inputs[t])
            states.append(x)
        t0 = 30
        w_ini = traj.samples[t0 : t0 + l_ini].reshape(-1)
        x_boundary = states[t0 + l_ini]
        cp = ControlProblem.from_step_weights(model.dims, l_ini, l_f,
                                              q_diag=1.0, r_diag=0.1, y_ref=0.7)

        def rollout(u_stack):
            xs = np.array(x_boundary)
            ys = []
            for u in np.asarray(u_stack).reshape(-1, 1):
                xs, y = step(model, xs, u)
                ys.append(y)
            return np.concatenate(ys)

        res_d = deepc(dm, w_ini, cp, regularizer="proj2", lambda_g=0.0)
        res_s = spc(predictive_model(dm), w_ini, cp)
        gap_d = float(np.max(np.abs(res_d.y_pred.mean - rollout(res_d.u_f))))
        gap_s = float(np.max(np.abs(res_s.y_pred.mean - rollout(res_s.u_f))))
        passed = (
            gap_d <= 1e-6 and gap_s <= 1e-6
            and rank_report.rank == window + 2 and rank_report.satisfied
        )
        report("C9 deterministic limit", passed,
               f"deepc rollout gap {gap_d:.2e}, spc rollout gap {gap_s:.2e} (tol 1e-6); "
               f"rank {rank_report.rank} = mL+n = {window + 2}")
        assert gap_d <= 1e-6
        assert gap_s <= 1e-6
        assert rank_report.rank == window + 2


class TestC10EndToEndReproducibility:
    def test_c10_closed_loop_bytes_and_verify_exit(self, tmp_path):
        config = {
            "schema": 1,
            "data": {"steps": 200, "mode": "hankel", "input_std": 1.0, "seed": 3},
            "horizons": {"L_ini": 2, "L_f": 5},
            "control": {"controller": "optimistic", "q": 1.0, "r": 0.05,
                        "y_ref": 1.0, "lambda": 50.0},
            "run": {"steps": 20, "seed": 17},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            proc = subprocess.run(
                [sys.executable, "-m", "gdpc.cli", "closed-loop",
                 "--config", str(cfg_path), "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        identical = out_a.read_bytes() == out_b.read_bytes()

        proc = subprocess.run(
            [sys.executable, "-m", "gdpc.cli", "verify", "--suite", "all"],
            capture_output=True, text=True,
        )
        verify_ok = proc.returncode == 0
        passed = identical and verify_ok
        report("C10 end-to-end reproducibility", passed,
               f"closed-loop CSVs byte-identical: {identical}; "
               f"verify --suite all exit code {proc.returncode}")
        assert identical
        assert verify_ok, proc.stdout
