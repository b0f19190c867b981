"""Tests for Gaussian trajectory behaviors: estimation, conditioning,
prediction, the state-space forward map, divergence, and sampling."""

import dataclasses

import numpy as np
import pytest
from conftest import random_stable_plant

from gdpc import behavior
from gdpc.behavior import (
    ConditionalGaussian,
    GaussianBehavior,
    PredictiveModel,
    condition,
    data_lq,
    estimate,
    from_state_space,
    kl_divergence,
    log_likelihood,
    lq_predictor,
    predictive_model,
    sample,
)
from gdpc.control import ControlProblem, deepc
from gdpc.errors import InvalidMatrix, NotPositiveDefinite, ShapeError
from gdpc.linalg import DEFAULT_RANK_TOL, matrix_rank, pinv, read_only, symmetrize
from gdpc.plant import (
    StochasticLtiModel,
    build_block_operators,
    default_benchmark,
    simulate,
    stationary_state_covariance,
    step,
)
from gdpc.trajectory import SignalDims, assemble, block_row_permutation, build_data_matrix

DIMS_SISO = SignalDims(1, 1)

LOG_DENSITY_STD_NORMAL_AT_0 = -0.9189385332046727  # -log(2*pi)/2
LOG_DENSITY_STD_NORMAL_AT_1 = -1.4189385332046727


def make_behavior(cov, mean=None, dims=DIMS_SISO, window=None):
    cov = np.asarray(cov, dtype=float)
    window = window or cov.shape[0] // dims.q
    mean = np.zeros(cov.shape[0]) if mean is None else mean
    return GaussianBehavior(dims=dims, window=window, mean=mean, cov=cov)


def random_spd(rng, k, scale=1.0):
    b = rng.standard_normal((k, k))
    return scale * (b @ b.T + 0.1 * np.eye(k))


class TestEstimate:
    def test_two_column_second_moment(self):
        # First row holds columns 1 and -1: second moment (1 + 1)/2 = 1.
        cols = np.zeros((4, 2))
        cols[0] = [1.0, -1.0]
        gb = estimate(assemble(cols, DIMS_SISO, 1, 1))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(gb.cov, expected)
        assert np.array_equal(gb.mean, np.zeros(4))

    def test_identical_columns_outer_product(self):
        v = np.array([2.0, -1.0, 0.5, 3.0])
        dm = assemble(np.tile(v[:, None], (1, 7)), DIMS_SISO, 1, 1)
        gb = estimate(dm)
        assert np.allclose(gb.cov, np.outer(v, v), atol=1e-12)

    def test_subtract_mean_centers(self):
        rng = np.random.default_rng(0)
        cols = rng.standard_normal((4, 50)) + 3.0
        dm = assemble(cols, DIMS_SISO, 1, 1)
        gb = estimate(dm, subtract_mean=True)
        assert np.allclose(gb.mean, cols.mean(axis=1))
        centered = cols - cols.mean(axis=1, keepdims=True)
        assert np.allclose(gb.cov, centered @ centered.T / 50)

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(1)
        target = random_spd(rng, 4)
        gb_true = make_behavior(target)
        cols = sample(gb_true, 100_000, seed=5)
        gb = estimate(assemble(cols, DIMS_SISO, 1, 1))
        err = np.linalg.norm(gb.cov - target) / np.linalg.norm(target)
        assert err < 0.05


class TestLogLikelihood:
    def test_standard_normal_frozen_values(self):
        gb = make_behavior(np.eye(2))
        # Two independent standard-normal coordinates at the origin.
        ll0 = log_likelihood(gb, np.zeros((2, 1)))
        assert np.isclose(ll0, 2 * LOG_DENSITY_STD_NORMAL_AT_0, atol=1e-12)
        # One coordinate at 1 adds the -1/2 quadratic term.
        ll1 = log_likelihood(gb, np.array([[1.0], [0.0]]))
        assert np.isclose(
            ll1, LOG_DENSITY_STD_NORMAL_AT_1 + LOG_DENSITY_STD_NORMAL_AT_0, atol=1e-12
        )

    def test_sums_over_columns(self):
        gb = make_behavior(np.eye(2))
        cols = np.array([[0.0, 1.0], [0.0, 0.0]])
        total = log_likelihood(gb, cols)
        parts = log_likelihood(gb, cols[:, :1]) + log_likelihood(gb, cols[:, 1:])
        assert np.isclose(total, parts, atol=1e-12)

    def test_singular_requires_jitter(self):
        gb = make_behavior(np.diag([1.0, 0.0]))
        with pytest.raises(NotPositiveDefinite):
            log_likelihood(gb, np.zeros((2, 1)))
        assert np.isfinite(log_likelihood(gb, np.zeros((2, 1)), jitter=1e-9))

    def test_sample_covariance_is_local_maximum(self):
        # Perturbing the estimated covariance along random symmetric
        # PD-preserving directions strictly decreases the total likelihood.
        rng = np.random.default_rng(2)
        target = random_spd(rng, 4)
        cols = sample(make_behavior(target), 200, seed=11)
        dm = assemble(cols, DIMS_SISO, 1, 1)
        gb_hat = estimate(dm)
        base = log_likelihood(gb_hat, dm)
        lam_min = np.linalg.eigvalsh(gb_hat.cov)[0]
        for _ in range(100):
            delta = rng.standard_normal((4, 4))
            delta = 0.5 * (delta + delta.T)
            steps = 0.25 * lam_min / np.linalg.norm(delta, 2)
            perturbed = make_behavior(gb_hat.cov + steps * delta)
            assert log_likelihood(perturbed, dm) < base


class TestCondition:
    def test_independent_coordinates(self):
        gb = make_behavior(np.eye(2))
        cond = condition(gb, [0], [5.0])
        assert np.allclose(cond.mean, [0.0])
        assert np.allclose(cond.cov, [[1.0]])

    def test_correlated_pair_closed_form(self):
        # Conditional of the second coordinate given the first = 2:
        # mean 0.5 * 2 = 1.0, variance 1 - 0.25 = 0.75.
        gb = make_behavior(np.array([[1.0, 0.5], [0.5, 1.0]]))
        cond = condition(gb, [0], [2.0])
        assert np.allclose(cond.mean, [1.0], atol=1e-12)
        assert np.allclose(cond.cov, [[0.75]], atol=1e-12)

    def test_monte_carlo_regression_oracle(self):
        # Regress the dependent block on the free block from samples and
        # compare against the analytic conditional at a fixed free value.
        rng = np.random.default_rng(3)
        k, n_free, n_samp = 4, 2, 100_000
        cov = random_spd(rng, k)
        mean = rng.standard_normal(k)
        gb = make_behavior(cov, mean=mean)
        free_idx = np.arange(n_free)
        value = rng.standard_normal(n_free)
        cond = condition(gb, free_idx, value)

        cols = sample(gb, n_samp, seed=7)
        free_s = cols[:n_free].T
        dep_s = cols[n_free:].T
        design = np.column_stack([np.ones(n_samp), free_s])
        beta, _, _, _ = np.linalg.lstsq(design, dep_s, rcond=None)
        point = np.concatenate([[1.0], value])
        mc_mean = beta.T @ point
        resid = dep_s - design @ beta
        mc_cov = resid.T @ resid / (n_samp - design.shape[1])

        leverage = point @ np.linalg.solve(design.T @ design, point)
        se = np.sqrt(np.diag(mc_cov) * leverage)
        assert np.all(np.abs(mc_mean - cond.mean) <= 3.0 * se)
        assert np.linalg.norm(mc_cov - cond.cov) <= 0.05 * np.linalg.norm(cond.cov)

    def test_deterministic_free_block_returns_dependent_mean(self):
        mean = np.array([1.0, 2.0, 3.0, 4.0])
        cov = np.zeros((4, 4))
        cov[2:, 2:] = np.array([[2.0, 0.3], [0.3, 1.0]])
        gb = make_behavior(cov, mean=mean)
        cond = condition(gb, [0, 1], [9.0, -9.0])
        assert np.array_equal(cond.mean, mean[2:])
        assert np.allclose(cond.cov, cov[2:, 2:])

    def test_index_out_of_range(self):
        gb = make_behavior(np.eye(2))
        with pytest.raises(ShapeError):
            condition(gb, [5], [0.0])


def noiseless_plant_and_data(rng, steps=120):
    model = StochasticLtiModel(
        A=[[0.8, 0.1], [-0.2, 0.7]],
        B=[[1.0], [0.4]],
        C=[[1.0, -0.5]],
        D=[[0.2]],
        Sigma_xi=np.zeros((2, 2)),
        Sigma_eta=np.zeros((1, 1)),
    )
    traj = simulate(model, np.zeros(2), 1.0, steps=steps, seed=31)
    return model, traj


def plant_rollout_outputs(model, x0, u_seq):
    x = np.array(x0, dtype=float)
    ys = []
    for u in u_seq:
        x, y = step(model, x, np.atleast_1d(u))
        ys.append(y)
    return np.concatenate(ys)


class TestPredictiveModel:
    def test_noiseless_prediction_matches_rollout(self):
        rng = np.random.default_rng(4)
        model, traj = noiseless_plant_and_data(rng)
        l_ini, l_f = 2, 3
        dm = build_data_matrix(traj, l_ini, l_f)
        pm = predictive_model(dm)

        # Rebuild the state at the window boundary for the rollout oracle.
        x = np.zeros(2)
        states = [x]
        for t in range(traj.length):
            x, _ = step(model, x, traj.inputs[t])
            states.append(x)
        t0 = 40
        w_ini = traj.samples[t0 : t0 + l_ini].reshape(-1)
        u_f = rng.standard_normal(l_f)
        predicted = pm.predict_mean(w_ini, u_f)
        oracle = plant_rollout_outputs(model, states[t0 + l_ini], u_f)
        scale = max(1.0, np.linalg.norm(oracle))
        assert np.linalg.norm(predicted - oracle) <= 1e-7 * scale
        assert np.linalg.norm(pm.cov) <= 1e-7 * max(1.0, np.linalg.norm(dm.matrix))

    def test_matches_conditioning_on_estimate(self):
        # The data-driven predictor is exactly the Gaussian conditional of
        # the estimated behavior on the (past window, future input) block.
        rng = np.random.default_rng(5)
        dims = SignalDims(1, 1)
        l_ini, l_f = 1, 2
        k = dims.q * (l_ini + l_f)
        cols = sample(make_behavior(random_spd(rng, k), window=3), 80, seed=13)
        dm = assemble(cols, dims, l_ini, l_f)
        pm = predictive_model(dm)
        gb = estimate(dm)

        for _ in range(5):
            w_ini = rng.standard_normal(dims.q * l_ini)
            u_f = rng.standard_normal(dims.m * l_f)
            cond = condition(gb, dm.free_rows, np.concatenate([w_ini, u_f]))
            assert np.linalg.norm(pm.predict_mean(w_ini, u_f) - cond.mean) <= 1e-8
            assert np.linalg.norm(pm.cov - cond.cov) <= 1e-8

    def test_single_column(self):
        col = np.array([[1.0], [2.0], [3.0], [4.0]])
        dm = assemble(col, DIMS_SISO, 1, 1)
        pm = predictive_model(dm)
        free = col[dm.free_rows]
        dep = col[dm.dependent_rows]
        expected = dep @ pinv(free)
        assert np.allclose(np.hstack([pm.M_ini, pm.M_u]), expected, atol=1e-10)
        assert np.linalg.norm(pm.cov) <= 1e-10 * np.linalg.norm(col) ** 2


class TestPredictiveModelValidation:
    def test_rejects_row_counts_that_disagree(self):
        with pytest.raises(ShapeError, match="row counts"):
            PredictiveModel(M_u=np.eye(3), M_ini=np.zeros((5, 2)), cov=np.eye(4))
        with pytest.raises(ShapeError, match="row counts"):
            PredictiveModel(M_u=np.eye(4), M_ini=np.zeros((3, 2)), cov=np.eye(4))

    def test_rejects_a_covariance_that_is_not_square(self):
        with pytest.raises(InvalidMatrix):
            PredictiveModel(M_u=np.eye(3), M_ini=np.zeros((3, 2)), cov=np.eye(3, 4))

    def test_rejects_a_covariance_that_is_not_psd(self):
        traj = simulate(default_benchmark(), np.zeros(3), 1.0, steps=200, seed=7)
        pm = predictive_model(build_data_matrix(traj, 3, 8))
        with pytest.raises(NotPositiveDefinite, match="predictive covariance"):
            PredictiveModel(M_u=pm.M_u, M_ini=pm.M_ini, cov=-np.eye(8))


class TestConditionalGaussianCovariance:
    """The covariance is kept as a new array, (cov + cov^T)/2; a model's
    prediction shares the model's covariance."""

    def test_a_model_covariance_is_shared_with_the_same_bits(self):
        rng = np.random.default_rng(14)
        skew = rng.standard_normal((4, 4))  # an input that (cov + cov^T)/2 changes
        pm = PredictiveModel(M_u=np.eye(4), M_ini=np.ones((4, 2)),
                             cov=random_spd(rng, 4) + skew - skew.T)
        got = pm.predict(np.ones(2), np.ones(4))
        assert got.cov is pm.cov
        assert got.cov.tobytes() == symmetrize(pm.cov).tobytes()

    def test_a_writable_covariance_is_copied(self):
        cov = random_spd(np.random.default_rng(15), 3)
        got = ConditionalGaussian(mean=np.zeros(3), cov=cov)
        assert got.cov is not cov and np.array_equal(got.cov, cov)
        cov[0, 0] = 99.0
        assert got.cov[0, 0] != 99.0

    def test_a_read_only_asymmetric_covariance_is_symmetrized(self):
        cov = read_only([[1.0, 0.2], [0.4, 1.0]])
        got = ConditionalGaussian(mean=np.zeros(2), cov=cov)
        assert got.cov is not cov
        assert np.array_equal(got.cov, symmetrize(cov)) and got.cov[0, 1] == got.cov[1, 0]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_read_only_non_finite_covariance_raises(self, bad):
        cov = np.eye(2)
        cov[0, 0] = bad
        with pytest.raises(InvalidMatrix):
            ConditionalGaussian(mean=np.zeros(2), cov=read_only(cov))


def lstsq_predictor(dm):
    """(coefficients, residual Gram matrix / D) of the least-squares fit of
    Y_f on [W_p; U_f] over the raw data columns."""
    free, dep = dm.free_block, dm.future_outputs
    coeff = np.linalg.lstsq(free.T, dep.T, rcond=None)[0].T
    resid = dep - coeff @ free
    return coeff, resid @ resid.T / dm.n_columns


def svd_lq_predictor(dm, l_fac, rank_tol=1e-10):
    """(coefficients, covariance, L_F^+) of the predictor on the LQ factor
    through the SVD pseudoinverse of L_F, for every kind of data."""
    n_free = dm.free_rows.size
    l_free, l_out = l_fac[:n_free], l_fac[n_free:]
    free_pinv = pinv(l_free, rank_tol)
    coeff = l_out @ free_pinv
    resid = l_out - coeff @ l_free
    return coeff, resid @ resid.T / dm.n_columns, free_pinv


def count_pinv_calls(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return pinv(*args, **kwargs)

    monkeypatch.setattr(behavior, "pinv", counted)
    return calls


def noiseless_data(l_ini, l_f, steps=120):
    """Noiseless data of acceptance check C09's order-2 SISO plant. Its free
    block [W_p; U_f] has full row rank for L_ini = 2 = n and rank
    L_ini + L_f + 2, one less than its rows, for L_ini = 3."""
    model = random_stable_plant(np.random.default_rng(909), n=2, m=1, p=1, noise_std=0.0)
    traj = simulate(model, np.zeros(2), 1.0, steps=l_ini + l_f + steps, seed=13)
    return build_data_matrix(traj, l_ini, l_f)


class TestLqRoute:
    """predictive_model through the LQ factor against an independent lstsq
    fit, on tall, wide and noiseless rank-deficient data; and the two
    routes of lq_predictor to L_F^+, the triangular inverse and the SVD."""

    # D = 1995 (tall), D = 10 (fewer columns than the 12 rows) and D = 5
    # (fewer than the 8 free rows, where lstsq returns the minimum-norm fit).
    @pytest.mark.parametrize("steps", [2000, 15, 10])
    def test_matches_lstsq_on_tall_and_wide_data(self, steps):
        model = random_stable_plant(np.random.default_rng(31), n=2, m=1, p=1)
        traj = simulate(model, np.zeros(2), 1.0, steps=steps, seed=31)
        dm = build_data_matrix(traj, 2, 4)
        assert dm.n_columns == steps - 5
        pm = predictive_model(dm)
        coeff, cov = lstsq_predictor(dm)
        assert np.allclose(np.hstack([pm.M_ini, pm.M_u]), coeff, rtol=0, atol=1e-9)
        assert np.allclose(pm.cov, cov, rtol=0, atol=1e-10 * max(1.0, np.abs(cov).max()))
        assert np.linalg.eigvalsh(pm.cov)[0] >= -1e-12 * max(1.0, np.abs(pm.cov).max())

    def test_matches_lstsq_on_noiseless_rank_deficient_data(self):
        # The plant and data of acceptance check C09: rank mL + n < qL.
        model = random_stable_plant(np.random.default_rng(909), n=2, m=1, p=1,
                                    noise_std=0.0)
        traj = simulate(model, np.zeros(2), 1.0, steps=5 + 120, seed=13)
        dm = build_data_matrix(traj, 2, 3)
        assert matrix_rank(dm.matrix) < dm.matrix.shape[0]
        pm = predictive_model(dm)
        # The fit is not unique; its predictions on the data and the
        # residual Gram matrix are.
        coeff, cov = lstsq_predictor(dm)
        fitted = np.hstack([pm.M_ini, pm.M_u]) @ dm.free_block
        assert np.allclose(fitted, coeff @ dm.free_block, rtol=0, atol=1e-9)
        assert np.allclose(fitted, dm.future_outputs, rtol=0, atol=1e-9)
        assert np.abs(pm.cov).max() <= 1e-12 and np.abs(cov).max() <= 1e-12

    @pytest.mark.parametrize("steps", [2000, 15, 10])
    def test_r_only_factor_is_the_lq_factor(self, steps):
        # A data matrix keeps its factor, so the reference factors a fresh
        # data matrix of the same columns, first through data_lq.
        model = random_stable_plant(np.random.default_rng(33), n=2, m=1, p=1)
        dm = build_data_matrix(simulate(model, np.zeros(2), 1.0, steps=steps, seed=33), 2, 4)
        pm = predictive_model(dm)
        fresh = assemble(dm.matrix, dm.dims, dm.l_ini, dm.l_f)
        ref, _ = lq_predictor(fresh, data_lq(fresh))
        for got, want in ((pm.M_ini, ref.M_ini), (pm.M_u, ref.M_u), (pm.cov, ref.cov)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m,p,n", [(1, 1, 2), (3, 3, 4)])
    def test_tall_noisy_data_takes_the_triangular_inverse(self, m, p, n, monkeypatch):
        model = random_stable_plant(np.random.default_rng(34), n=n, m=m, p=p)
        dm = build_data_matrix(simulate(model, np.zeros(n), 1.0, steps=600, seed=34), 3, 4)
        l_fac = data_lq(dm)
        coeff, cov, free_pinv = svd_lq_predictor(dm, l_fac)
        calls = count_pinv_calls(monkeypatch)
        pm, got_pinv = lq_predictor(dm, l_fac)
        assert calls == []
        n_free, n_ini = dm.free_rows.size, dm.dims.q * dm.l_ini
        # L_F^+ = [L_11^-1; 0], exactly zero below the triangular block.
        assert not got_pinv[n_free:].any()
        for got, want in ((pm.M_ini, coeff[:, :n_ini]), (pm.M_u, coeff[:, n_ini:]),
                          (pm.cov, cov), (got_pinv, free_pinv)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("case", ["noiseless", "wide", "truncating"])
    def test_svd_route_keeps_its_results(self, case, monkeypatch):
        rank_tol = 1e-10
        if case == "noiseless":  # L_F rank-deficient: L_ini 3 > n 2
            dm = noiseless_data(3, 3)
            assert matrix_rank(dm.free_block) < dm.free_rows.size
        elif case == "wide":  # D = 5 < n_f = 8
            model = random_stable_plant(np.random.default_rng(31), n=2, m=1, p=1)
            dm = build_data_matrix(simulate(model, np.zeros(2), 1.0, steps=10, seed=31), 2, 4)
            assert dm.n_columns == 5 < dm.free_rows.size == 8
        else:  # a rank_tol that cuts nonzero singular values of L_F
            rng = np.random.default_rng(32)
            cols = sample(make_behavior(random_spd(rng, 6), window=3), 200, seed=3)
            dm, rank_tol = assemble(cols, DIMS_SISO, 1, 2), 0.9
        l_fac = data_lq(dm)
        coeff, cov, free_pinv = svd_lq_predictor(dm, l_fac, rank_tol)
        calls = count_pinv_calls(monkeypatch)
        pm, got_pinv = lq_predictor(dm, l_fac, rank_tol)
        assert calls == [(dm.free_rows.size, l_fac.shape[1])]
        n_ini = dm.dims.q * dm.l_ini
        for got, want in ((pm.M_ini, coeff[:, :n_ini]), (pm.M_u, coeff[:, n_ini:]),
                          (pm.cov, symmetrize(cov)), (got_pinv, free_pinv)):
            assert got.tobytes() == want.tobytes()

    def test_noiseless_full_rank_free_block_takes_the_triangular_inverse(self, monkeypatch):
        # C09's data: W is rank-deficient, but with L_ini = n its free block
        # is not, and the certificate holds; the fit is exact to rounding.
        dm = noiseless_data(2, 3)
        assert matrix_rank(dm.matrix) < dm.matrix.shape[0]
        calls = count_pinv_calls(monkeypatch)
        pm = predictive_model(dm)
        assert calls == []
        fitted = np.hstack([pm.M_ini, pm.M_u]) @ dm.free_block
        assert np.allclose(fitted, dm.future_outputs, rtol=0, atol=1e-9)
        assert np.abs(pm.cov).max() <= 1e-12

    @pytest.mark.parametrize("rank_tol", [0.0, -1.0, 1.0])
    def test_rank_tol_is_checked_on_the_triangular_route(self, rank_tol):
        model = random_stable_plant(np.random.default_rng(35), n=2, m=1, p=1)
        dm = build_data_matrix(simulate(model, np.zeros(2), 1.0, steps=300, seed=35), 2, 4)
        with pytest.raises(ValueError, match="rank_tol"):
            predictive_model(dm, rank_tol)

    def test_rank_tol_truncates_the_predictor(self):
        rng = np.random.default_rng(32)
        cols = sample(make_behavior(random_spd(rng, 6), window=3), 200, seed=3)
        dm = assemble(cols, DIMS_SISO, 1, 2)
        default = predictive_model(dm)
        explicit = predictive_model(dm, rank_tol=1e-10)
        truncated = predictive_model(dm, rank_tol=0.9)
        assert np.array_equal(default.M_u, explicit.M_u)
        assert np.array_equal(default.cov, explicit.cov)
        # Keeping only the leading direction of the free block leaves more
        # output variance unexplained.
        assert np.trace(truncated.cov) > np.trace(default.cov) + 1e-6


class TestKeptFactor:
    """A data matrix keeps its one LQ factorization and the predictors read
    from it."""

    @pytest.fixture
    def factorings(self, monkeypatch):
        made = []
        qr_in_place = behavior._qr_in_place
        monkeypatch.setattr(behavior, "_qr_in_place",
                            lambda dm: made.append(dm) or qr_in_place(dm))
        return made

    @staticmethod
    def data():
        model = random_stable_plant(np.random.default_rng(36), n=2, m=1, p=1)
        return build_data_matrix(simulate(model, np.zeros(2), 1.0, steps=120, seed=36), 2, 4)

    def test_one_factorization_serves_every_call(self, factorings):
        dm = self.data()
        pm = predictive_model(dm)
        assert predictive_model(dm) is pm
        truncated = predictive_model(dm, rank_tol=0.9)
        assert truncated is not pm and predictive_model(dm, 0.9) is truncated
        l_fac = data_lq(dm)
        assert list(map(id, factorings)) == [id(dm)]
        assert data_lq(dm) is l_fac and not l_fac.flags.writeable
        # L is lower trapezoidal with L L^T = W W^T, so W = L Q^T for a Q
        # with orthonormal columns; no call forms that Q.
        ordered = dm.ordered
        assert l_fac.shape == (ordered.shape[0], min(ordered.shape))
        assert not np.triu(l_fac, 1).any()
        gram = ordered @ ordered.T
        assert np.allclose(l_fac @ l_fac.T, gram, rtol=0, atol=1e-12 * np.abs(gram).max())

    def test_data_lq_first_gives_the_same_bits(self, factorings):
        # Whichever call factors the data, the factor and the model are the
        # ones a fresh data matrix gives.
        dm = self.data()
        l_fac = data_lq(dm)
        pm = predictive_model(dm)
        fresh = assemble(dm.matrix, dm.dims, dm.l_ini, dm.l_f)
        ref = predictive_model(fresh)
        ref_l = data_lq(fresh)
        assert list(map(id, factorings)) == [id(dm), id(fresh)]
        for got, want in ((l_fac, ref_l), (pm.M_ini, ref.M_ini), (pm.M_u, ref.M_u),
                          (pm.cov, ref.cov)):
            assert got.tobytes() == want.tobytes()

    def test_the_data_matrix_keeps_l_and_the_predictors_only(self, factorings):
        # After identification and deepc's set-ups (both 2-norm routes),
        # the store holds L and the predictor with L_F^+, and no array of
        # D rows: neither Q nor the Householder reflectors.
        dm = self.data()
        pm = predictive_model(dm)
        cp = ControlProblem.from_step_weights(dm.dims, dm.l_ini, dm.l_f)
        w_ini = dm.past[:, 0]
        for regularizer in ("proj2", "sq2"):
            deepc(dm, w_ini, cp, regularizer, 1.0)
        assert list(map(id, factorings)) == [id(dm)]
        key = ("predictor", DEFAULT_RANK_TOL)
        assert set(dm._lq) == {"l", key}
        l_fac = dm._lq["l"]
        kept_pm, free_pinv = dm._lq[key]
        assert l_fac is data_lq(dm) and kept_pm is pm
        rows, d = dm.matrix.shape
        assert d > rows and l_fac.shape == (rows, rows)
        assert free_pinv.shape == (rows, dm.free_rows.size) and not free_pinv.flags.writeable

    def test_a_replaced_data_matrix_factors_afresh(self, factorings):
        dm = self.data()
        predictive_model(dm)
        twin = dataclasses.replace(dm)
        assert twin._lq == {} and "_lq" not in repr(dm)
        assert [f.compare for f in dataclasses.fields(dm) if f.name == "_lq"] == [False]
        predictive_model(twin)
        assert list(map(id, factorings)) == [id(dm), id(twin)]


class TestFromStateSpace:
    def test_degenerate_plant_blocks(self):
        model = StochasticLtiModel(
            A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((1, 2)),
            D=np.zeros((1, 1)), Sigma_xi=np.zeros((2, 2)), Sigma_eta=np.zeros((1, 1)),
        )
        window = 3
        rng = np.random.default_rng(6)
        input_cov = random_spd(rng, window)
        gb = from_state_space(model, window, state_cov=np.eye(2), input_cov=input_cov)
        b = block_row_permutation(model.dims, 0, window)
        expected = np.zeros((6, 6))
        expected[:3, :3] = input_cov
        assert np.allclose(gb.cov[np.ix_(b, b)], expected, atol=1e-12)

    def test_memoryless_gain_expansion(self):
        # y_t = D_g u_t + eta_t: per-step output block D_g D_g^T + Sigma_eta,
        # cross block block-diagonal D_g^T.
        d_gain = np.array([[1.5, -0.5], [0.2, 0.8]])
        eta = 0.3 * np.eye(2)
        model = StochasticLtiModel(
            A=np.zeros((1, 1)), B=np.zeros((1, 2)), C=np.zeros((2, 1)),
            D=d_gain, Sigma_xi=np.zeros((1, 1)), Sigma_eta=eta,
        )
        window = 2
        gb = from_state_space(
            model, window, state_cov=np.zeros((1, 1)), input_cov=np.eye(2 * window)
        )
        b = block_row_permutation(model.dims, 0, window)
        blocked = gb.cov[np.ix_(b, b)]
        out_block = blocked[4:, 4:]
        cross = blocked[4:, :4]
        per_step = d_gain @ d_gain.T + eta
        assert np.allclose(out_block, np.kron(np.eye(window), per_step), atol=1e-12)
        assert np.allclose(cross, np.kron(np.eye(window), d_gain), atol=1e-12)

    def test_monte_carlo_window_covariance(self):
        # Vectorized step-by-step simulation oracle (reduced-size version of
        # the acceptance check).
        rng = np.random.default_rng(7)
        model = StochasticLtiModel(
            A=[[0.6, 0.2], [-0.1, 0.5]], B=[[1.0], [0.3]], C=[[0.7, -0.4]],
            D=[[0.1]], Sigma_xi=0.05 * np.eye(2), Sigma_eta=[[0.04]],
        )
        window = 3
        state_cov = random_spd(rng, 2, scale=0.5)
        input_cov = random_spd(rng, window, scale=0.8)
        gb = from_state_space(model, window, state_cov=state_cov, input_cov=input_cov)

        n_mc = 60_000
        chol_x = np.linalg.cholesky(state_cov)
        chol_u = np.linalg.cholesky(input_cov)
        x = rng.standard_normal((n_mc, 2)) @ chol_x.T
        u_all = rng.standard_normal((n_mc, window)) @ chol_u.T
        ys = np.empty((n_mc, window))
        for t in range(window):
            xi = rng.multivariate_normal(np.zeros(2), model.Sigma_xi, size=n_mc)
            eta = rng.multivariate_normal(np.zeros(1), model.Sigma_eta, size=n_mc)
            u_t = u_all[:, t : t + 1]
            ys[:, t : t + 1] = x @ model.C.T + u_t @ model.D.T + eta
            x = x @ model.A.T + u_t @ model.B.T + xi
        stacked = np.hstack([u_all, ys])  # blocked: all inputs, then all outputs
        empirical = stacked.T @ stacked / n_mc
        b = block_row_permutation(model.dims, 0, window)
        blocked = gb.cov[np.ix_(b, b)]
        err = np.linalg.norm(empirical - blocked) / np.linalg.norm(blocked)
        assert err < 0.08

    def test_shares_the_data_layout(self):
        # The exact behavior of stationary windows under white input scores
        # the data as the data's own estimate does, and conditioning it on
        # the data's free rows gives the identified predictor's mean.
        model = default_benchmark()
        l_ini, l_f = 2, 2
        window = l_ini + l_f
        state_cov = stationary_state_covariance(model, np.eye(model.m))
        traj = simulate(model, (np.zeros(model.n), state_cov), 1.0, steps=5000, seed=3)
        dm = build_data_matrix(traj, l_ini, l_f)
        gb = from_state_space(model, window, state_cov=state_cov,
                              input_cov=np.eye(model.m * window))
        d = dm.n_columns
        gap = abs(log_likelihood(gb, dm) - log_likelihood(estimate(dm), dm)) / d
        assert gap <= 0.05

        pm = predictive_model(dm)
        perm = block_row_permutation(dm.dims, l_ini, l_f)
        n_ini, n_free = dm.dims.q * l_ini, dm.free_rows.size
        for j in range(0, d, 50):
            column = dm.matrix[:, j]
            cond = condition(gb, perm[:n_free], column[perm[:n_free]])
            identified = pm.predict_mean(column[perm[:n_ini]], column[perm[n_ini:n_free]])
            assert np.abs(cond.mean - identified).max() <= 0.05

    def test_mean_map(self):
        model = StochasticLtiModel(
            A=[[0.5]], B=[[1.0]], C=[[2.0]], D=[[0.0]],
            Sigma_xi=[[0.0]], Sigma_eta=[[0.0]],
        )
        window = 2
        ops = build_block_operators(model, window)
        mu_x = np.array([1.0])
        mu_u = np.array([0.5, -0.5])
        gb = from_state_space(
            model, window, state_cov=np.zeros((1, 1)), input_cov=np.zeros((2, 2)),
            state_mean=mu_x, input_mean=mu_u,
        )
        expected_y = ops.observability @ mu_x + ops.input_toeplitz @ mu_u
        b = block_row_permutation(model.dims, 0, window)
        assert np.allclose(gb.mean[b], np.concatenate([mu_u, expected_y]), atol=1e-14)


class TestKlDivergence:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(9)
        cov = random_spd(rng, 3)
        mean = rng.standard_normal(3)
        p = ConditionalGaussian(mean=mean, cov=cov)
        assert np.isclose(kl_divergence(p, p), 0.0, atol=1e-10)

    def test_scalar_mean_shift(self):
        p = ConditionalGaussian(mean=[1.0], cov=[[1.0]])
        q = ConditionalGaussian(mean=[0.0], cov=[[1.0]])
        assert np.isclose(kl_divergence(p, q), 0.5, atol=1e-12)

    def test_scalar_variance_mismatch(self):
        # 0.5 * (1/4 - 1 + ln 4) = 0.3181471805599453
        p = ConditionalGaussian(mean=[0.0], cov=[[1.0]])
        q = ConditionalGaussian(mean=[0.0], cov=[[4.0]])
        assert np.isclose(kl_divergence(p, q), 0.3181471805599453, atol=1e-12)

    def test_nonnegative_random_and_zero_only_at_equality(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            p = ConditionalGaussian(rng.standard_normal(3), random_spd(rng, 3))
            q = ConditionalGaussian(rng.standard_normal(3), random_spd(rng, 3))
            assert kl_divergence(p, q) >= -1e-12
            assert kl_divergence(p, q) > 1e-6  # distinct draws stay separated

    def test_singular_second_argument_raises(self):
        p = ConditionalGaussian([0.0, 0.0], np.eye(2))
        q = ConditionalGaussian([0.0, 0.0], np.diag([1.0, 0.0]))
        with pytest.raises(NotPositiveDefinite):
            kl_divergence(p, q)


class TestSample:
    def test_zero_covariance_returns_mean(self):
        mean = np.array([1.0, -2.0])
        gb = make_behavior(np.zeros((2, 2)), mean=mean)
        cols = sample(gb, 5, seed=0)
        assert np.array_equal(cols, np.tile(mean[:, None], (1, 5)))

    def test_seed_reproducibility(self):
        gb = make_behavior(np.eye(4))
        assert np.array_equal(sample(gb, 10, seed=3), sample(gb, 10, seed=3))

    def test_moments(self):
        rng = np.random.default_rng(12)
        cov = random_spd(rng, 4)
        mean = rng.standard_normal(4)
        gb = make_behavior(cov, mean=mean)
        cols = sample(gb, 100_000, seed=21)
        emp_mean = cols.mean(axis=1)
        centered = cols - emp_mean[:, None]
        emp_cov = centered @ centered.T / cols.shape[1]
        assert np.linalg.norm(emp_mean - mean) < 0.05 * max(1.0, np.linalg.norm(mean))
        assert np.linalg.norm(emp_cov - cov) < 0.05 * np.linalg.norm(cov)

    def test_singular_support_restriction(self):
        # Covariance B Sigma_z B^T keeps every draw inside im(B).
        rng = np.random.default_rng(13)
        basis = rng.standard_normal((6, 2))
        sigma_z = random_spd(rng, 2)
        cov = basis @ sigma_z @ basis.T
        gb = make_behavior(cov, dims=SignalDims(1, 1), window=3)
        assert matrix_rank(cov) == 2
        cols = sample(gb, 200, seed=4)
        projector = basis @ pinv(basis)
        offsets = cols - projector @ cols
        assert np.abs(offsets).max() <= 1e-8 * max(1.0, np.abs(cols).max())


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        gb = make_behavior(random_spd(rng, 4), mean=rng.standard_normal(4))
        path = tmp_path / "behavior.json"
        gb.save_json(path)
        back = GaussianBehavior.load_json(path)
        assert back.dims == gb.dims
        assert back.window == gb.window
        assert np.array_equal(back.mean, gb.mean)
        assert np.array_equal(back.cov, gb.cov)

    def test_the_written_document_has_no_ordering(self):
        assert "ordering" not in make_behavior(np.eye(2)).to_json_dict()

    def test_a_legacy_interleaved_document_loads(self):
        rng = np.random.default_rng(15)
        gb = make_behavior(random_spd(rng, 4), mean=rng.standard_normal(4))
        back = GaussianBehavior.from_json_dict({**gb.to_json_dict(), "ordering": "interleaved"})
        assert np.array_equal(back.mean, gb.mean) and np.array_equal(back.cov, gb.cov)

    @pytest.mark.parametrize("change,name", [
        ({"schema": 7}, "schema 7"), ({"covv": 1}, "covv"), ({"schema": None}, "schema None"),
        ({"ordering": "weird"}, "unknown ordering 'weird'"),
        ({"ordering": "blocked"}, "unknown ordering 'blocked'"),
    ])
    def test_other_schema_or_unknown_key_rejected(self, change, name):
        doc = make_behavior(np.eye(2)).to_json_dict()
        doc.update(change)
        with pytest.raises(ShapeError, match=name):
            GaussianBehavior.from_json_dict(doc)

    @pytest.mark.parametrize("change,name", [
        ({"dims": 5}, "dims must be an object"),
        ({"dims": {"m": "a", "p": 1}}, "dims.m must be an integer"),
        ({"dims": {"m": 1, "p": 1.5}}, "dims.p must be an integer"),
        ({"dims": {"m": True, "p": 1}}, "dims.m must be an integer"),
        ({"L": "x"}, "L must be an integer"), ({"L": 2.5}, "L must be an integer"),
        ({"L": False}, "L must be an integer"),
        ({"mean": "abc"}, "mean must be an array of numbers"),
        ({"cov": [[1.0, "x"], [0.0, 1.0]]}, "cov must be an array of numbers"),
        ({"cov": [[1.0], [0.0, 1.0]]}, "cov must be an array of numbers"),
    ])
    def test_values_of_the_wrong_kind_are_named(self, change, name):
        doc = make_behavior(np.eye(2)).to_json_dict()
        doc.update(change)
        with pytest.raises(ShapeError, match=name):
            GaussianBehavior.from_json_dict(doc)

    def test_whole_numbers_are_integers(self):
        gb = make_behavior(np.eye(2))
        doc = {**gb.to_json_dict(), "L": float(gb.window),
               "dims": {"m": np.int64(gb.dims.m), "p": 1.0}}
        back = GaussianBehavior.from_json_dict(doc)
        assert (back.window, back.dims) == (gb.window, gb.dims)
        assert type(back.window) is int and type(back.dims.m) is int
