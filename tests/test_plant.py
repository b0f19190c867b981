"""Tests for the stochastic LTI simulator and block trajectory operators."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from gdpc import harness, plant
from gdpc.errors import ShapeError, UnstableSystem
from gdpc.linalg import lyap_discrete, matrix_rank, psd_factor, spectral_radius
from gdpc.plant import (
    PLANT_KEYS,
    StochasticLtiModel,
    build_block_operators,
    default_benchmark,
    simulate,
    stationary_state_covariance,
    step,
)
from gdpc.verify import _stepwise_rollout

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example.json"


def random_stable_model(rng, n=3, m=1, p=1, noise=0.0, radius=0.85):
    a = rng.standard_normal((n, n))
    a *= radius / max(spectral_radius(a), 1e-12)
    return StochasticLtiModel(
        A=a,
        B=rng.standard_normal((n, m)),
        C=rng.standard_normal((p, n)),
        D=rng.standard_normal((p, m)),
        Sigma_xi=noise**2 * np.eye(n),
        Sigma_eta=noise**2 * np.eye(p),
    )


def stacked_rollout(model, x0, u_seq, xi_seq, eta_seq):
    """Step-by-step oracle for the stacked operator identity."""
    x = np.array(x0, dtype=float)
    ys = []
    for t in range(u_seq.shape[0]):
        x, y = step(model, x, u_seq[t], xi_seq[t], eta_seq[t])
        ys.append(y)
    return np.concatenate(ys)


class TestBlockOperators:
    def test_single_step(self):
        model = default_benchmark()
        ops = build_block_operators(model, 1)
        assert np.array_equal(ops.observability, model.C)
        assert np.array_equal(ops.input_toeplitz, model.D)
        assert np.array_equal(ops.noise_toeplitz, np.zeros((1, 3)))

    def test_scalar_two_step_structure(self):
        a, b, c, d = 0.5, 1.2, 0.8, 0.3
        model = StochasticLtiModel(
            A=[[a]], B=[[b]], C=[[c]], D=[[d]],
            Sigma_xi=[[0.0]], Sigma_eta=[[0.0]],
        )
        ops = build_block_operators(model, 2)
        assert np.allclose(ops.observability, [[c], [c * a]])
        assert np.allclose(ops.input_toeplitz, [[d, 0.0], [c * b, d]])
        assert np.allclose(ops.noise_toeplitz, [[0.0, 0.0], [c, 0.0]])

    def test_operator_matches_simulation(self):
        rng = np.random.default_rng(21)
        model = random_stable_model(rng, n=3, m=2, p=2)
        window = 5
        ops = build_block_operators(model, window)
        x0 = rng.standard_normal(3)
        u_seq = rng.standard_normal((window, 2))
        xi_seq = rng.standard_normal((window, 3))
        eta_seq = rng.standard_normal((window, 2))
        stacked = (
            ops.observability @ x0
            + ops.input_toeplitz @ u_seq.reshape(-1)
            + ops.noise_toeplitz @ xi_seq.reshape(-1)
            + eta_seq.reshape(-1)
        )
        assert np.allclose(stacked, stacked_rollout(model, x0, u_seq, xi_seq, eta_seq), atol=1e-12)

    def test_operator_recursion_equivalence_sweep(self):
        # 500 random (model, window, noise) draws agree to 1e-10.
        rng = np.random.default_rng(77)
        for _ in range(500):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            p = int(rng.integers(1, 3))
            window = int(rng.integers(1, 9))
            model = random_stable_model(rng, n=n, m=m, p=p)
            ops = build_block_operators(model, window)
            x0 = rng.standard_normal(n)
            u_seq = rng.standard_normal((window, m))
            xi_seq = rng.standard_normal((window, n))
            eta_seq = rng.standard_normal((window, p))
            stacked = (
                ops.observability @ x0
                + ops.input_toeplitz @ u_seq.reshape(-1)
                + ops.noise_toeplitz @ xi_seq.reshape(-1)
                + eta_seq.reshape(-1)
            )
            oracle = stacked_rollout(model, x0, u_seq, xi_seq, eta_seq)
            assert np.linalg.norm(stacked - oracle, np.inf) < 1e-10 * max(
                1.0, np.linalg.norm(oracle, np.inf)
            )

    def test_noise_toeplitz_is_input_toeplitz_with_identity_b(self):
        rng = np.random.default_rng(4)
        model = random_stable_model(rng, n=3, m=2, p=2)
        surrogate = StochasticLtiModel(
            A=model.A,
            B=np.eye(3),
            C=model.C,
            D=np.zeros((2, 3)),
            Sigma_xi=model.Sigma_xi,
            Sigma_eta=model.Sigma_eta,
        )
        window = 4
        ops = build_block_operators(model, window)
        ops_id = build_block_operators(surrogate, window)
        assert np.array_equal(ops.noise_toeplitz, ops_id.input_toeplitz)


class TestStep:
    def test_all_zero(self):
        model = default_benchmark()
        x_next, y = step(model, np.zeros(3), np.zeros(1))
        assert np.array_equal(x_next, np.zeros(3))
        assert np.array_equal(y, np.zeros(1))

    def test_scalar_substitution(self):
        model = StochasticLtiModel(
            A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]],
            Sigma_xi=[[0.0]], Sigma_eta=[[0.0]],
        )
        x_next, y = step(model, [0.0], [1.0])
        assert np.allclose(x_next, [1.0])
        assert np.allclose(y, [0.0])


class TestSimulate:
    def test_deterministic_without_noise(self):
        rng = np.random.default_rng(6)
        model = random_stable_model(rng, noise=0.0)
        u = rng.standard_normal((20, 1))
        traj = simulate(model, np.zeros(3), u, steps=20, seed=0)
        x = np.zeros(3)
        for t in range(20):
            x, y = step(model, x, u[t])
            assert np.allclose(traj.outputs[t], y, atol=1e-12)
        assert np.array_equal(traj.inputs, u)

    def test_seed_reproducibility(self):
        model = default_benchmark()
        a = simulate(model, np.zeros(3), 1.0, steps=50, seed=123)
        b = simulate(model, np.zeros(3), 1.0, steps=50, seed=123)
        c = simulate(model, np.zeros(3), 1.0, steps=50, seed=124)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_stationary_state_covariance_monte_carlo(self):
        model = default_benchmark(process_noise_std=0.1, measurement_noise_std=0.0)
        input_cov = np.array([[1.0]])
        target = stationary_state_covariance(model, input_cov)
        # Empirical state covariance from a long run, reconstructed from
        # states tracked alongside a manual rollout.
        rng = np.random.default_rng(42)
        x = np.zeros(3)
        states = []
        for t in range(60000):
            u = rng.standard_normal(1)
            xi = 0.1 * rng.standard_normal(3)
            x, _ = step(model, x, u, xi)
            if t > 500:  # burn-in
                states.append(x)
        states = np.array(states)
        empirical = states.T @ states / states.shape[0]
        assert np.linalg.norm(empirical - target) < 0.05 * np.linalg.norm(target)

    def test_callable_policy(self):
        model = default_benchmark(0.0, 0.0)
        traj = simulate(model, np.zeros(3), lambda t, rng: [float(t)], steps=5, seed=0)
        assert np.array_equal(traj.inputs[:, 0], np.arange(5.0))

    def test_gaussian_initial_state(self):
        model = default_benchmark(0.0, 0.0)
        cov = 0.5 * np.eye(3)
        a = simulate(model, (np.zeros(3), cov), np.zeros((3, 1)), steps=3, seed=9)
        b = simulate(model, (np.zeros(3), cov), np.zeros((3, 1)), steps=3, seed=9)
        assert np.array_equal(a.samples, b.samples)
        assert np.linalg.norm(a.outputs[0]) > 0  # nonzero sampled state

    def test_unstable_warns(self):
        model = StochasticLtiModel(
            A=[[1.01]], B=[[1.0]], C=[[1.0]], D=[[0.0]],
            Sigma_xi=[[0.0]], Sigma_eta=[[0.0]],
        )
        with pytest.warns(UserWarning):
            simulate(model, [0.0], np.zeros((2, 1)), steps=2, seed=0)


def policy_of_kind(kind, steps, m):
    if kind == "array":
        return np.random.default_rng(3).standard_normal((steps, m))
    if kind == "scalar":
        return 0.7
    return lambda t, rng: np.cos(0.2 * t + np.arange(m)) + rng.standard_normal(m)


def mimo_model():
    rng = np.random.default_rng(12)
    model = random_stable_model(rng, n=4, m=2, p=3, radius=0.9)
    basis = rng.standard_normal((4, 2))  # a rank-2 process noise
    return StochasticLtiModel(A=model.A, B=model.B, C=model.C, D=model.D,
                              Sigma_xi=0.05 * basis @ basis.T, Sigma_eta=0.02 * np.eye(3))


def assert_matches_stepwise(got, want):
    """The banded forward substitution sums in another order than the
    per-sample recursion: agreement to a tolerance fixed from float64."""
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestRolloutRecursion:
    """``simulate`` forms all inputs first, all states by one banded forward
    substitution and all outputs in one product; the per-sample ``step``
    rollout is the oracle."""

    KINDS = ("array", "scalar", "callable")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("start", ("exact", "sampled"))
    def test_mimo_matches_stepwise_rollout(self, kind, start):
        model = mimo_model()
        x0 = (np.full(4, 0.5) if start == "exact"
              else (np.ones(4), stationary_state_covariance(model, np.eye(2))))
        policy = policy_of_kind(kind, 50, 2)
        got = simulate(model, x0, policy, steps=50, seed=31).samples
        assert_matches_stepwise(got, _stepwise_rollout(model, x0, policy, 50, 31))

    @pytest.mark.parametrize("kind", KINDS)
    def test_siso_stationary_start_matches_stepwise_rollout(self, kind):
        model = default_benchmark()
        x0 = (np.zeros(3), stationary_state_covariance(model, np.eye(1)))
        policy = policy_of_kind(kind, 200, 1)
        got = simulate(model, x0, policy, steps=200, seed=5).samples
        assert_matches_stepwise(got, _stepwise_rollout(model, x0, policy, 200, 5))

    def test_burn_in_run_is_the_tail_of_the_stepwise_rollout(self):
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["data"]["initial"] = "burn_in"
        cfg = harness.config_from_dict(doc, base_dir=str(EXAMPLE_CONFIG.parent))
        traj, _, _ = harness.identification_run(cfg)
        extra = 10 * cfg.plant.n
        want = _stepwise_rollout(cfg.plant, np.zeros(cfg.plant.n), cfg.data_input_std,
                                 cfg.data_steps + extra, cfg.data_seed)
        assert_matches_stepwise(traj.samples, want[extra:])

    @pytest.mark.parametrize("radius", (0.99, 0.999))
    @pytest.mark.parametrize("n", (1, 3, 8))
    def test_long_slow_run_matches_stepwise_rollout(self, n, radius):
        model = random_stable_model(np.random.default_rng(n), n=n, m=2, p=2,
                                    noise=0.1, radius=radius)
        x0 = np.ones(n)
        got = simulate(model, x0, 1.0, steps=4010, seed=7).samples
        assert_matches_stepwise(got, _stepwise_rollout(model, x0, 1.0, 4010, 7))

    def test_unstable_run_warns_grows_and_matches_stepwise_rollout(self):
        model = random_stable_model(np.random.default_rng(8), n=3, noise=0.01, radius=1.02)
        x0, u = np.ones(3), np.zeros((100, 1))
        with pytest.warns(UserWarning, match="spectral radius 1.02"):
            got = simulate(model, x0, u, steps=100, seed=4).samples
        want = _stepwise_rollout(model, x0, u, 100, 4)
        assert_matches_stepwise(got, want)
        assert np.abs(want[-20:, 1]).max() > 2 * np.abs(want[:20, 1]).max()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("steps", (1, 2))
    def test_one_and_two_block_columns(self, steps, kind):
        model = mimo_model()
        x0 = (np.ones(4), stationary_state_covariance(model, np.eye(2)))
        policy = policy_of_kind(kind, steps, 2)
        got = simulate(model, x0, policy, steps=steps, seed=3).samples
        assert got.shape == (steps, 5)
        assert_matches_stepwise(got, _stepwise_rollout(model, x0, policy, steps, 3))

    def test_callable_is_called_once_per_step_in_order(self):
        model = mimo_model()
        calls = []

        def policy(t, rng):
            calls.append(t)
            return rng.standard_normal(2)

        traj = simulate(model, np.zeros(4), policy, steps=17, seed=2)
        assert calls == list(range(17))
        # The policy draws from the input stream only.
        expected = np.random.default_rng(np.random.SeedSequence(2).spawn(4)[1])
        assert np.array_equal(traj.inputs, expected.standard_normal((17, 2)))

    def test_identification_makes_no_step_call(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(plant, "step", counted)
        monkeypatch.setattr(harness, "step", counted)
        traj, dm, _ = harness.identification_run(harness.load_config(EXAMPLE_CONFIG))
        assert calls == []
        assert traj.length == 400 and dm.n_columns == 390

    @pytest.mark.parametrize("u_policy", [np.zeros((9, 2)), np.zeros((10, 3)), np.zeros(10)],
                             ids=["too_few_rows", "too_many_columns", "flat_of_length_steps"])
    def test_wrong_input_array_shape(self, u_policy):
        with pytest.raises(ShapeError, match=r"input array must be \(10, 2\)"):
            simulate(mimo_model(), np.zeros(4), u_policy, steps=10, seed=0)

    def test_flat_array_of_the_right_size_is_accepted(self):
        u = np.arange(20.0)
        traj = simulate(mimo_model(), np.zeros(4), u, steps=10, seed=0)
        assert np.array_equal(traj.inputs, u.reshape(10, 2))

    @pytest.mark.parametrize("x0, message", [
        (np.zeros(3), r"x0 must have 4 entries, got shape \(3,\)"),
        ((np.zeros(5), np.eye(4)), r"x0 mean must have 4 entries, got shape \(5,\)"),
        ((np.zeros(4), np.eye(3)), r"x0 cov must be \(4, 4\), got \(3, 3\)"),
        ((np.zeros(4), -np.eye(4)), r"x0 cov must be positive semidefinite"),
        ((np.zeros(4),), r"x0 must be a state or a \(mean, cov\) pair, got 1 items"),
    ], ids=["state_length", "mean_length", "cov_shape", "cov_not_psd", "pair_length"])
    def test_bad_initial_state(self, x0, message):
        with pytest.raises(ShapeError, match=message):
            simulate(mimo_model(), x0, np.zeros((10, 2)), steps=10, seed=0)

    def test_wrong_policy_output_shape(self):
        with pytest.raises(ShapeError, match=r"u_policy\(t=0\) must return shape \(2,\)"):
            simulate(mimo_model(), np.zeros(4), lambda t, rng: np.zeros(3), steps=10, seed=0)


class TestDefaultBenchmark:
    def test_stable(self):
        assert spectral_radius(default_benchmark().A) < 1.0

    def test_observable(self):
        model = default_benchmark()
        ops = build_block_operators(model, model.n)
        assert matrix_rank(ops.observability) == model.n

    def test_controllable(self):
        model = default_benchmark()
        blocks = [model.B]
        for _ in range(model.n - 1):
            blocks.append(model.A @ blocks[-1])
        assert matrix_rank(np.hstack(blocks)) == model.n

    def test_json_round_trip(self, tmp_path):
        model = default_benchmark()
        path = tmp_path / "plant.json"
        model.save_json(path)
        back = StochasticLtiModel.load_json(path)
        for name in ("A", "B", "C", "D", "Sigma_xi", "Sigma_eta"):
            assert np.array_equal(getattr(back, name), getattr(model, name))


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            StochasticLtiModel(
                A=np.eye(2), B=np.ones((3, 1)), C=np.ones((1, 2)),
                D=np.zeros((1, 1)), Sigma_xi=np.eye(2), Sigma_eta=np.eye(1),
            )

    def test_unknown_plant_keys_are_named(self):
        doc = {**default_benchmark().to_json_dict(), "Sigma_xii": [[9.0]], "E": [[1.0]]}
        with pytest.raises(ShapeError, match=r"unknown plant key\(s\): E, Sigma_xii"):
            StochasticLtiModel.from_json_dict(doc)
        with pytest.raises(ShapeError, match="must be a JSON object"):
            StochasticLtiModel.from_json_dict([[1.0]])

    def test_noise_must_be_psd(self):
        with pytest.raises(ShapeError):
            StochasticLtiModel(
                A=np.eye(1) * 0.5, B=np.ones((1, 1)), C=np.ones((1, 1)),
                D=np.zeros((1, 1)), Sigma_xi=-np.eye(1), Sigma_eta=np.eye(1),
            )


class TestKeptFactors:
    """A model makes its noise factors and A's spectral radius once, in its
    checks, and every rollout reads them."""

    @pytest.mark.parametrize("field", ["Sigma_xi", "Sigma_eta"])
    def test_an_indefinite_covariance_is_named(self, field):
        doc = default_benchmark().to_json_dict()
        size = len(doc[field])
        doc[field] = np.diag([1.0] * (size - 1) + [-1e-3]).tolist()
        with pytest.raises(ShapeError, match=f"{field} must be positive semidefinite"):
            StochasticLtiModel.from_json_dict(doc)

    def test_kept_fields_are_the_factors_and_the_radius(self):
        model = default_benchmark()
        for kept, cov in ((model.xi_factor, model.Sigma_xi), (model.eta_factor, model.Sigma_eta)):
            assert kept.tobytes() == psd_factor(cov).tobytes() and not kept.flags.writeable
        assert model.radius == spectral_radius(model.A)

    def test_comparison_and_json_ignore_the_kept_fields(self):
        model = default_benchmark()
        assert [f.name for f in dataclasses.fields(model) if f.compare] == list(PLANT_KEYS)
        assert [f.name for f in dataclasses.fields(model) if f.init] == list(PLANT_KEYS)
        assert list(model.to_json_dict()) == list(PLANT_KEYS)
        assert "xi_factor" not in repr(model)
        one_state = {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]],
                     "Sigma_xi": [[0.04]], "Sigma_eta": [[0.01]]}
        twin = StochasticLtiModel.from_json_dict(one_state)
        assert twin == StochasticLtiModel.from_json_dict(one_state)

    def test_replace_makes_them_afresh(self):
        model = default_benchmark()
        changed = dataclasses.replace(model, A=0.5 * model.A, Sigma_xi=4.0 * model.Sigma_xi,
                                      Sigma_eta=np.zeros((1, 1)))
        assert changed.radius == spectral_radius(0.5 * model.A) < model.radius
        assert changed.xi_factor.tobytes() == psd_factor(4.0 * model.Sigma_xi).tobytes()
        assert not changed.eta_factor.any()

    def test_rollouts_factor_no_noise_covariance(self, monkeypatch):
        # simulate and the stationary covariance read the kept fields; only
        # x0's covariance is factored, and A's eigenvalues are not taken.
        model = default_benchmark()
        x0 = (np.zeros(3), stationary_state_covariance(model, np.eye(1)))
        want = simulate(model, x0, 1.0, steps=50, seed=4).samples
        factored = []

        def noted(cov, name="covariance"):
            factored.append(name)
            return psd_factor(cov, name)

        def no_eigvals(*args):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(plant, "psd_factor", noted)
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        assert stationary_state_covariance(model, np.eye(1)).tobytes() == x0[1].tobytes()
        assert simulate(model, x0, 1.0, steps=50, seed=4).samples.tobytes() == want.tobytes()
        assert factored == ["x0 cov"]

    def test_the_stationary_covariance_keeps_lyap_discretes_result(self):
        model = default_benchmark()
        qc = model.B @ model.B.T + model.Sigma_xi
        got = stationary_state_covariance(model, np.eye(1))
        assert got.tobytes() == lyap_discrete(model.A, qc).tobytes()
        unstable = dataclasses.replace(model, A=1.2 * model.A)
        with pytest.raises(UnstableSystem, match="spectral radius"):
            stationary_state_covariance(unstable, np.eye(1))

    def test_a_model_without_states_builds_and_simulates(self):
        model = StochasticLtiModel(A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((1, 0)),
                                   D=np.zeros((1, 1)), Sigma_xi=np.zeros((0, 0)),
                                   Sigma_eta=np.eye(1))
        assert model.xi_factor.shape == (0, 0) and model.radius == 0.0
        samples = simulate(model, np.zeros(0), 1.0, steps=5, seed=0).samples
        assert samples.shape == (5, 2) and np.isfinite(samples).all()
