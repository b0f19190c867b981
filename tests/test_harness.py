"""Tests for experiment configs, the closed-loop harness, sweeps, and verify."""

import dataclasses
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_stable_plant, record_solver_paths

from gdpc import behavior, cli, control, harness, plant, qp
from gdpc.errors import ConfigError, InfeasibleProblem, LambdaTooSmall
from gdpc.harness import (
    config_from_dict,
    load_config,
    run_closed_loop,
    sweep_csv_bytes,
    sweep_lambda,
)
from gdpc.linalg import psd_factor
from gdpc.plant import default_benchmark
from gdpc.qp import QpSettings
from gdpc.trajectory import DataMatrix
from gdpc.verify import _joint_deepc, verify

# The module itself: the package binds gdpc.verify to the function.
verify_module = importlib.import_module("gdpc.verify")

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example.json"


def load_with_flags(*flags):
    """The example config as ``gdpc closed-loop`` loads it with ``flags``."""
    args = cli.build_parser().parse_args(
        ["closed-loop", "--config", str(EXAMPLE_CONFIG), "--out", "unused.csv", *flags])
    return cli._load_config(args)


def base_doc(**over):
    doc = {
        "schema": 1,
        "data": {"steps": 250, "mode": "hankel", "input_std": 1.0, "seed": 3},
        "horizons": {"L_ini": 3, "L_f": 6},
        "control": {"controller": "spc", "q": 1.0, "r": 0.05, "y_ref": 1.0},
        "run": {"steps": 40, "repetitions": 2, "seed": 11},
    }
    doc.update(over)
    return doc


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = config_from_dict(base_doc())
        assert cfg.controller == "spc"
        assert cfg.dims.m == 1 and cfg.dims.p == 1
        assert cfg.solver.eps_abs == 1e-8

    def test_schema_required(self):
        with pytest.raises(ConfigError):
            config_from_dict({**base_doc(), "schema": 2})

    def test_horizons_required(self):
        doc = base_doc()
        del doc["horizons"]
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_unknown_controller(self):
        doc = base_doc(control={"controller": "mpc"})
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize("section", ["plant", "data", "horizons", "control", "run",
                                         "solver"])
    def test_unknown_key_is_named(self, section):
        doc = base_doc()
        doc.setdefault(section, {})["extra"] = 1
        with pytest.raises(ConfigError, match=rf"{section}\.extra"):
            config_from_dict(doc)

    @pytest.mark.parametrize("extra,name", [
        ({"Sigma_xii": [[9.0]]}, "plant.Sigma_xii"), ({"file": "plant.json"}, "plant.A"),
    ])
    def test_plant_is_a_file_or_exactly_the_matrices(self, extra, name):
        # An extra Sigma_xii used to build silently with the default Sigma_xi.
        doc = base_doc(plant={**default_benchmark().to_json_dict(), **extra})
        with pytest.raises(ConfigError, match=rf"unknown config key\(s\): .*{name}"):
            config_from_dict(doc)

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError, match="run must be a JSON object"):
            config_from_dict(base_doc(run=[40]))

    def test_channel_spec_length_checked(self):
        doc = base_doc()
        doc["control"] = {"controller": "spc", "q": [1.0, 2.0]}  # p = 1
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_plant_file_resolution(self, tmp_path):
        plant_path = tmp_path / "plant.json"
        default_benchmark().save_json(plant_path)
        doc = base_doc(plant={"file": "plant.json"})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        cfg = load_config(cfg_path)
        assert cfg.plant.n == 3

    def test_plant_file_with_an_unknown_key_is_rejected(self, tmp_path):
        # It used to build silently with the default Sigma_xi.
        plant_doc = {**default_benchmark().to_json_dict(), "Sigma_xii": [[9.0]]}
        (tmp_path / "plant.json").write_text(json.dumps(plant_doc))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_doc(plant={"file": "plant.json"})))
        with pytest.raises(ConfigError, match=r"unknown plant key\(s\): Sigma_xii"):
            load_config(cfg_path)

    def test_missing_plant_file(self, tmp_path):
        doc = base_doc(plant={"file": "nope.json"})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_config(cfg_path)

    def test_run_steps_must_exceed_warmup(self):
        doc = base_doc(run={"steps": 2, "seed": 0})
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize("value", [0.0, 1e-9, -1.0, -1e-12, float("nan"), float("inf")])
    def test_bad_jitter_rejected(self, value, capsys):
        # No controller takes a jitter: the key is unknown and the flag gone,
        # whatever the value, and the parsed config keeps its default.
        with pytest.raises(ConfigError, match=r"unknown config key\(s\): jitter"):
            config_from_dict(base_doc(jitter=value))
        with pytest.raises(SystemExit):
            load_with_flags(f"--jitter={value}")
        assert "unrecognized arguments" in capsys.readouterr().err
        assert load_with_flags().jitter == load_config(EXAMPLE_CONFIG).jitter == 1e-9

    @pytest.mark.parametrize("key,value", [
        ("max_iter", 0), ("max_iter", -5), ("eps_abs", -1e-8), ("eps_abs", float("inf")),
        ("eps_abs", float("nan")), ("eps_rel", -1.0), ("eps_rel", float("inf")),
    ])
    def test_bad_solver_setting_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"solver.{key}"):
            config_from_dict(base_doc(solver={key: value}))

    def test_smallest_solver_settings_accepted(self):
        cfg = config_from_dict(base_doc(solver={"max_iter": 1, "eps_abs": 0.0,
                                                "eps_rel": 0.0}))
        assert (cfg.solver.max_iter, cfg.solver.eps_abs, cfg.solver.eps_rel) == (1, 0.0, 0.0)

    def test_bad_eps_abs_override_rejected(self):
        with pytest.raises(ConfigError, match="solver.eps_abs"):
            load_with_flags("--eps-abs=-1.0")

    def test_zero_rank_tol_override_rejected(self):
        with pytest.raises(ConfigError, match="rank_tol"):
            load_with_flags("--rank-tol", "0.0")
        cfg = load_with_flags("--rank-tol", "0.5")
        assert cfg.rank_tol == 0.5

    @pytest.mark.parametrize("controller,lam", [
        ("optimistic", -1.0), ("optimistic", 0.0), ("robust", float("nan")),
        ("robust", 0.0), ("deepc", -2.0), ("deepc", float("inf")), ("spc", float("nan")),
    ])
    def test_bad_weight_rejected(self, controller, lam):
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["control"].update(controller=controller, **{"lambda": lam})
        with pytest.raises(ConfigError, match="lambda"):
            config_from_dict(doc)

    @pytest.mark.parametrize("controller,grid", [
        ("optimistic", [0.5, float("inf")]), ("robust", [0.0, 1.0]),
        ("deepc", [-1.0, 5.0]), ("optimistic", [float("nan")]),
    ])
    def test_bad_grid_entry_rejected(self, controller, grid):
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["control"].update(controller=controller, lambda_grid=grid)
        with pytest.raises(ConfigError, match="lambda"):
            config_from_dict(doc)

    @pytest.mark.parametrize("loader,plant_doc", [
        ("load_json", {"file": "plant.json"}), ("from_json_dict", {}),
    ])
    def test_loader_fault_is_not_a_config_error(self, monkeypatch, tmp_path, loader, plant_doc):
        # Only the errors of a bad description become ConfigError; a fault
        # inside the loader propagates as itself.
        (tmp_path / "plant.json").write_text(json.dumps(default_benchmark().to_json_dict()))

        def broken(cls, arg):
            raise RuntimeError("loader bug")

        monkeypatch.setattr(plant.StochasticLtiModel, loader, classmethod(broken))
        with pytest.raises(RuntimeError, match="loader bug"):
            config_from_dict(base_doc(plant=plant_doc), base_dir=str(tmp_path))

    def test_smallest_weights_accepted(self):
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["control"].update(controller="deepc", lambda_grid=[0.0, 1.0], **{"lambda": 0.0})
        cfg = config_from_dict(doc)
        assert cfg.lam == 0.0 and cfg.lambda_grid == (0.0, 1.0)

    def test_bad_weight_in_explicit_sweep_grid_rejected(self):
        doc = base_doc(control={"controller": "robust", "q": 1.0, "r": 0.05, "y_ref": 1.0,
                                "lambda_grid": [-1.0, 1.0]})
        with pytest.raises(ConfigError, match="lambda"):
            config_from_dict(doc)

    def test_data_initial_modes(self):
        doc = base_doc()
        doc["data"]["initial"] = "burn_in"
        cfg_burn = config_from_dict(doc)
        doc["data"]["initial"] = "stationary"
        cfg_stat = config_from_dict(doc)
        from gdpc.harness import identification_run

        traj_b, _, _ = identification_run(cfg_burn)
        traj_s, _, _ = identification_run(cfg_stat)
        assert traj_b.length == cfg_burn.data_steps
        assert traj_s.length == cfg_stat.data_steps
        assert not np.array_equal(traj_b.samples, traj_s.samples)
        doc["data"]["initial"] = "warm"
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_infinite_bound_and_zero_input_std_accepted(self):
        doc = base_doc()
        doc["control"].update(u_min=-math.inf, u_max=[math.inf], y_max=2.0)
        doc["data"]["input_std"] = 0.0
        cfg = config_from_dict(json.loads(json.dumps(doc)))
        assert cfg.u_min[0] == -math.inf and cfg.u_max[0] == math.inf
        assert cfg.data_input_std == 0.0
        doc["control"]["u_max"] = [math.nan]
        with pytest.raises(ConfigError, match="control.u_max"):
            config_from_dict(doc)


class TestClosedLoop:
    def test_zero_noise_zero_reference_zero_run(self):
        model = default_benchmark(0.0, 0.0)
        doc = base_doc(plant=model.to_json_dict())
        doc["data"]["input_std"] = 1.0
        doc["control"] = {"controller": "spc", "q": 1.0, "r": 0.1}
        cfg = config_from_dict(doc)
        # Zero warm-up excitation: force by zero input_std on a copy used
        # for the run; the data run keeps its own excitation.
        cfg = dataclasses.replace(cfg, data_input_std=1.0)
        rec = run_closed_loop(cfg)
        post_warmup = [s for s in rec.steps if s.t >= cfg.l_ini]
        # After warm-up decays the loop regulates to the origin.
        assert post_warmup[-1].stage_cost < 1e-8

    def test_seed_reproducibility_bytes(self):
        cfg = config_from_dict(base_doc())
        a = run_closed_loop(cfg).to_csv_bytes()
        b = run_closed_loop(cfg).to_csv_bytes()
        assert a == b
        c = run_closed_loop(dataclasses.replace(cfg, run_seed=999)).to_csv_bytes()
        assert a != c

    def test_cost_accounting_identity(self):
        cfg = config_from_dict(base_doc())
        rec = run_closed_loop(cfg)
        oracle = rec.tracking_cost_total(cfg.q_diag, cfg.r_diag, cfg.u_ref, cfg.y_ref)
        assert abs(rec.realized_cost - oracle) < 1e-9 * max(1.0, oracle)

    def test_noiseless_step_tracking(self):
        # With an exact plant, a consistent steady input reference, and no
        # noise, the loop must settle on the reference (exact model-based
        # steady state as the oracle).
        model = default_benchmark(0.0, 0.0)
        dc_gain = float(
            (model.C @ np.linalg.solve(np.eye(model.n) - model.A, model.B) + model.D)[0, 0]
        )
        doc = base_doc(plant=model.to_json_dict())
        doc["data"] = {"steps": 300, "mode": "hankel", "input_std": 1.0, "seed": 3}
        doc["horizons"] = {"L_ini": 3, "L_f": 8}
        doc["control"] = {
            "controller": "spc", "q": 1.0, "r": 0.01,
            "u_ref": 1.0 / dc_gain, "y_ref": 1.0,
        }
        doc["run"] = {"steps": 80, "seed": 5}
        rec = run_closed_loop(config_from_dict(doc))
        assert abs(rec.steps[-1].y[0] - 1.0) < 1e-6

    def test_multi_step_application(self):
        doc = base_doc()
        doc["run"]["apply_steps"] = 3
        cfg = config_from_dict(doc)
        rec = run_closed_loop(cfg)
        solve_rows = [s for s in rec.steps if s.t >= cfg.l_ini and s.solver_iterations > 0]
        carried = [s for s in rec.steps if s.t >= cfg.l_ini and s.solver_iterations == 0]
        assert len(rec.steps) == cfg.run_steps
        assert len(carried) >= len(solve_rows)  # two carried rows per solve

    def test_robust_loop_reports_optimal_every_step(self):
        # Above the certified threshold every per-step QP must report
        # optimal on the benchmark plant.
        doc = base_doc()
        doc["control"] = {"controller": "robust", "q": 1.0, "r": 0.05,
                          "y_ref": 1.0, "lambda": 1e5}
        doc["run"] = {"steps": 20, "seed": 4}
        rec = run_closed_loop(config_from_dict(doc))
        assert not rec.aborted
        solve_rows = [s for s in rec.steps if s.solver_status]
        assert solve_rows, "no controller solves recorded"
        assert all(s.solver_status == "optimal" for s in solve_rows)

    def test_summary_counts_solves_not_optimal(self):
        doc = base_doc(solver={"max_iter": 1})
        doc["control"] = {"controller": "ce", "q": 1.0, "r": 0.05, "y_ref": 1.0,
                          "u_max": 0.5}
        doc["run"] = {"steps": 12, "seed": 2, "apply_steps": 2}
        rec = run_closed_loop(config_from_dict(doc))
        statuses = [s.solver_status for s in rec.steps if s.t >= 3]
        assert "" in statuses and "optimal" in statuses and "max_iter" in statuses
        assert rec.summary_dict()["solves_not_optimal"] == statuses.count("max_iter")
        # The CSV keeps its columns; the status lives in the summary only.
        assert rec.to_csv_bytes().split(b"\n")[0].decode().split(",") == rec.csv_header()
        assert "solver_status" not in rec.csv_header()
        cfg = config_from_dict(base_doc())
        assert run_closed_loop(cfg).summary_dict()["solves_not_optimal"] == 0

    def test_rank_tol_changes_the_closed_loop(self):
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        del doc["rank_tol"]

        def csv(rank_tol=None):
            run_doc = doc if rank_tol is None else {**doc, "rank_tol": rank_tol}
            return run_closed_loop(config_from_dict(run_doc)).to_csv_bytes()

        default = csv()
        assert default == csv(1e-10)
        assert default != csv(0.5)

    def test_warm_up_inputs_stay_in_the_box(self):
        # Run seed 44 draws u = -3.299 at t = 1, below u_min = -3.
        cfg = load_config(EXAMPLE_CONFIG)
        rec = run_closed_loop(dataclasses.replace(cfg, run_seed=44))
        u = np.array([s.u for s in rec.steps])
        assert np.all(u >= cfg.u_min) and np.all(u <= cfg.u_max)
        assert np.min(u[: cfg.l_ini]) == cfg.u_min[0]

    def test_all_controllers_run(self):
        for name, extra in (
            ("spc", {}),
            ("ce", {}),
            ("deepc", {"lambda": 10.0, "regularizer": "proj2"}),
            ("optimistic", {"lambda": 50.0}),
            ("robust", {"lambda": 1e4}),
        ):
            doc = base_doc()
            doc["control"] = {"controller": name, "q": 1.0, "r": 0.05,
                              "y_ref": 1.0, **extra}
            doc["run"] = {"steps": 12, "seed": 2}
            rec = run_closed_loop(config_from_dict(doc))
            assert not rec.aborted
            assert len(rec.steps) == 12


class TestOutputBoxRegime:
    def test_stalled_output_box_configuration_solves_exactly(self, monkeypatch):
        # At lam 500 with y_max 0.95 the (u, mean) QP has cond(P) near 2.4e6;
        # each solve once ended max_iter with a plan far from the optimum.
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["control"].update(controller="optimistic", y_min=-3.0, y_max=0.95)
        doc["control"]["lambda"] = 500.0
        solves = []
        optimistic = control.optimistic

        def recorded(*args, **kwargs):
            solves.append((args, optimistic(*args, **kwargs)))
            return solves[-1][1]

        monkeypatch.setattr(control, "optimistic", recorded)
        rec = run_closed_loop(config_from_dict(doc))
        assert rec.summary_dict()["solves_not_optimal"] == 0
        assert len(solves) == sum(1 for s in rec.steps if s.solver_status) > 0
        for (pm, w_ini, cp, lam, *_), res in solves:
            # The (u, mean) QP rebuilt from the model, with S = cov^-1.
            kappa = 0.5 * lam
            s_mat = np.linalg.inv(pm.cov)
            m_u, bias = pm.M_u, pm.M_ini @ w_ini
            p_mat = 2.0 * np.block([[cp.R + kappa * m_u.T @ s_mat @ m_u, -kappa * m_u.T @ s_mat],
                                    [-kappa * s_mat @ m_u, cp.Q + kappa * s_mat]])
            q_vec = 2.0 * np.concatenate([kappa * m_u.T @ s_mat @ bias - cp.R @ cp.u_ref,
                                          -kappa * s_mat @ bias - cp.Q @ cp.y_ref])
            lower = np.concatenate([cp.u_lower, cp.y_lower])
            upper = np.concatenate([cp.u_upper, cp.y_upper])
            x = np.concatenate([res.u_f, res.y_pred.mean])
            residual = np.max(np.abs(x - np.clip(x - (p_mat @ x + q_vec), lower, upper)))
            assert res.solver.status == "optimal"
            assert residual <= 1e-9 * max(1.0, float(np.max(np.abs(q_vec))))


class TestEqualityConstrainedLoop:
    def test_output_box_spc_takes_the_exact_path_and_matches_admm(self, monkeypatch):
        # spc with an output box solves an equality-constrained (u, y) QP,
        # here with the output bound active on most steps.
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["control"].update(controller="spc", y_min=-3.0, y_max=0.95, u_min=-5.0,
                              u_max=5.0, r=0.5)
        doc["run"]["steps"] = 30
        admm, solve, pairs = qp._admm, control.solve, []

        def compared(prob, settings):
            pairs.append((solve(prob, settings), admm(prob, settings)))
            return pairs[-1][0]

        monkeypatch.setattr(control, "solve", compared)
        paths = record_solver_paths(monkeypatch)
        rec = run_closed_loop(config_from_dict(doc))
        planned = sum(1 for s in rec.steps if s.solver_status)
        assert paths == ["_eq_active_set"] * planned and len(pairs) == planned > 0
        assert max(sol.iterations for sol, _ in pairs) > 1  # bounds were added
        for sol, ref in pairs:
            assert sol.status == ref.status == "optimal"
            scale = max(1.0, float(np.max(np.abs(ref.x))))
            assert np.max(np.abs(sol.x - ref.x)) <= 1e-8 * scale


class TestDeepcEliminationLoop:
    def test_example_loop_matches_the_joint_qp(self, monkeypatch):
        # deepc-proj2 without an output box eliminates g; the joint QP of
        # verify, forced here, is the second computation.
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["control"]["controller"] = "deepc"
        cfg = config_from_dict(doc)
        deepc, plans = control.deepc, []

        def recorded(*args, **kwargs):
            plans.append(deepc(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(control, "deepc", recorded)
        paths = record_solver_paths(monkeypatch)
        runs = [run_closed_loop(cfg)]
        monkeypatch.setattr(control, "_deepc_setup", _joint_deepc)
        runs.append(run_closed_loop(cfg))
        planned = sum(1 for s in runs[0].steps if s.solver_status)
        assert paths == ["_active_set"] * planned + ["_eq_active_set"] * planned
        assert len(plans) == 2 * planned > 0

        def close(got, want):
            want = np.atleast_1d(want)
            return np.max(np.abs(got - want)) <= 1e-9 * max(1.0, float(np.max(np.abs(want))))

        for a, b in zip(runs[0].steps, runs[1].steps, strict=True):
            assert a.t == b.t and close(a.u, b.u) and close(a.y, b.y)
            assert close(a.stage_cost, b.stage_cost)
        for a, b in zip(plans[:planned], plans[planned:]):
            assert close(a.u_f, b.u_f) and close(a.y_pred.mean, b.y_pred.mean)
            assert close(a.objective, b.objective) and close(a.g, b.g)


class TestIdentifiedOnce:
    """A run factors its data once, for the predictor and deepc alike, and
    reads the plant's noise factors and spectral radius from the model."""

    def test_deepc_run_factors_its_data_once(self, monkeypatch):
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["control"]["controller"] = "deepc"
        cfg = config_from_dict(doc)
        factored = []
        qr_in_place = behavior._qr_in_place
        monkeypatch.setattr(behavior, "_qr_in_place",
                            lambda dm: factored.append(dm) or qr_in_place(dm))
        deepc, calls = control.deepc, []

        def recorded(*args, **kwargs):
            calls.append((args, kwargs, deepc(*args, **kwargs)))
            return calls[-1][-1]

        monkeypatch.setattr(control, "deepc", recorded)
        run_closed_loop(cfg)
        assert len(factored) == 1 and calls
        dm = factored[0]
        assert all(args[0] is dm for args, _, _ in calls)
        # deepc on an unfactored copy of the data factors it in its set-up
        # and gives the same results, bit for bit.
        fresh = DataMatrix(dm.dims, dm.l_ini, dm.l_f, dm.matrix)
        for args, kwargs, result in calls:
            again = deepc(fresh, *args[1:], **kwargs)
            for got, want in ((result.u_f, again.u_f), (result.g, again.g),
                              (result.objective, again.objective)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert len(factored) == 2 and factored[1] is fresh

    @pytest.mark.parametrize("controller", ["spc", "robust"])
    def test_runs_factor_no_noise_covariance(self, controller, monkeypatch):
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["control"].update(controller=controller, lambda_grid=[5.0, 50.0])
        doc["run"].update(steps=12, repetitions=2)
        cfg = config_from_dict(doc)
        eigh, decomposed, factored = np.linalg.eigh, [], []

        def noted_eigh(a, *args, **kwargs):
            decomposed.append(np.array(a))
            return eigh(a, *args, **kwargs)

        def noted_factor(cov, name="covariance"):
            factored.append(name)
            return psd_factor(cov, name)

        def no_eigvals(*args):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(np.linalg, "eigh", noted_eigh)
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        monkeypatch.setattr(plant, "psd_factor", noted_factor)
        run_closed_loop(cfg)
        sweep_lambda(cfg)
        assert factored == ["x0 cov", "x0 cov"]  # one identification run each
        noise = (cfg.plant.Sigma_xi, cfg.plant.Sigma_eta)
        assert decomposed and not [a for a in decomposed for cov in noise
                                   if a.shape == cov.shape and np.array_equal(a, cov)]


class TestSweep:
    def test_single_point_reduces_to_repeated_runs(self):
        doc = base_doc()
        doc["control"] = {"controller": "optimistic", "q": 1.0, "r": 0.05,
                          "y_ref": 1.0, "lambda": 50.0}
        cfg = config_from_dict(doc)
        cells = sweep_lambda(dataclasses.replace(cfg, lambda_grid=(50.0,)))
        costs = [run_closed_loop(dataclasses.replace(cfg, run_seed=cfg.run_seed + r,
                                                     lam=50.0)).realized_cost
                 for r in range(cfg.repetitions)]
        assert cells[0].runs_ok == cfg.repetitions
        assert cells[0].mean_cost == pytest.approx(np.mean(costs), abs=1e-12)

    def test_row_count_matches_grid(self):
        doc = base_doc()
        doc["control"] = {"controller": "optimistic", "q": 1.0, "r": 0.05,
                          "lambda_grid": [1.0, 10.0, 100.0]}
        doc["run"] = {"steps": 15, "repetitions": 1, "seed": 0}
        cfg = config_from_dict(doc)
        cells = sweep_lambda(cfg)
        assert len(cells) == 3
        csv_text = sweep_csv_bytes(cells).decode()
        assert len(csv_text.strip().splitlines()) == 4  # header + rows

    def test_large_weight_cell_matches_spc_cell(self):
        doc = base_doc()
        doc["run"] = {"steps": 25, "repetitions": 2, "seed": 31}
        doc["control"] = {"controller": "optimistic", "q": 1.0, "r": 0.05,
                          "y_ref": 1.0, "lambda": 1.0}
        cfg = config_from_dict(doc)
        cell = sweep_lambda(dataclasses.replace(cfg, lambda_grid=(1e10,)))[0]
        spc_doc = base_doc()
        spc_doc["run"] = doc["run"]
        spc_doc["control"] = {"controller": "spc", "q": 1.0, "r": 0.05, "y_ref": 1.0}
        spc_cfg = config_from_dict(spc_doc)
        spc_runs = [dataclasses.replace(spc_cfg, run_seed=spc_cfg.run_seed + r)
                    for r in range(spc_cfg.repetitions)]
        spc_costs = [run_closed_loop(run_cfg).realized_cost for run_cfg in spc_runs]
        assert cell.mean_cost == pytest.approx(np.mean(spc_costs), rel=1e-4)

    def test_failed_cells_recorded_and_sweep_continues(self):
        doc = base_doc()
        doc["control"] = {"controller": "robust", "q": 1.0, "r": 0.05, "y_ref": 1.0}
        doc["run"] = {"steps": 12, "repetitions": 1, "seed": 0}
        cfg = config_from_dict(doc)
        # A tiny weight sits below the certified threshold and must fail;
        # the huge weight succeeds.
        cells = sweep_lambda(dataclasses.replace(cfg, lambda_grid=(1e-12, 1e6)))
        assert cells[0].runs_ok == 0 and cells[0].runs_failed == 1
        assert np.isnan(cells[0].mean_cost)
        assert cells[1].runs_ok == 1
        # The failed run's reason names its seed and the error.
        (reason,) = cells[0].failures
        assert reason.startswith("run_seed=0: LambdaTooSmall: ")
        assert cells[1].failures == ()

    def test_aborted_run_reason_is_recorded(self):
        # spc on the example with y in [-3, 0.95] is infeasible at t = 4,
        # and the run aborts; the cell keeps the run's abort reason.
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["control"].update(controller="spc", y_min=-3.0, y_max=0.95)
        doc["run"] = {"steps": 12, "repetitions": 2, "seed": 0}
        cfg = config_from_dict(doc)
        runs = [run_closed_loop(dataclasses.replace(cfg, run_seed=seed)) for seed in (0, 1)]
        cell = sweep_lambda(dataclasses.replace(cfg, lambda_grid=(1.0,)))[0]
        expected = tuple(f"run_seed={rec.seed}: {rec.abort_reason}" for rec in runs if rec.aborted)
        assert expected and cell.failures == expected
        assert cell.runs_failed == len(expected)
        assert all("infeasible" in reason for reason in cell.failures)

    def test_cells_match_one_identification_per_run(self, monkeypatch):
        doc = base_doc()
        doc["control"] = {"controller": "robust", "q": 1.0, "r": 0.05, "y_ref": 1.0}
        doc["run"] = {"steps": 12, "repetitions": 2, "seed": 5}
        cfg = config_from_dict(doc)
        grid = (1e-12, 10.0, 1e4)
        expected = []
        for lam in grid:
            costs = []
            for rep in range(cfg.repetitions):
                try:
                    run_cfg = dataclasses.replace(cfg, run_seed=cfg.run_seed + rep, lam=lam)
                    costs.append(run_closed_loop(run_cfg).realized_cost)
                except LambdaTooSmall:  # the weight below the threshold
                    pass
            expected.append((len(costs), cfg.repetitions - len(costs),
                             float(np.mean(costs)) if costs else None))

        calls = []
        identify = harness.identification_run
        monkeypatch.setattr(harness, "identification_run",
                            lambda c: calls.append(c) or identify(c))
        cells = sweep_lambda(dataclasses.replace(cfg, lambda_grid=grid))
        assert len(calls) == 1
        got = [(c.runs_ok, c.runs_failed, None if np.isnan(c.mean_cost) else c.mean_cost)
               for c in cells]
        assert got == expected
        assert expected[0][0] == 0 and expected[2][0] == cfg.repetitions

    def test_non_package_errors_propagate(self, monkeypatch):
        doc = base_doc()
        doc["control"] = {"controller": "optimistic", "q": 1.0, "r": 0.05, "lambda": 1.0}
        doc["run"] = {"steps": 12, "repetitions": 1, "seed": 0}
        cfg = config_from_dict(doc)

        def broken(*args, **kwargs):
            raise TypeError("controller bug")

        monkeypatch.setattr(control, "optimistic", broken)
        with pytest.raises(TypeError, match="controller bug"):
            sweep_lambda(dataclasses.replace(cfg, lambda_grid=(1.0,)))

    def test_unsorted_grid_rejected(self):
        cfg = config_from_dict(base_doc())
        with pytest.raises(ConfigError):
            sweep_lambda(dataclasses.replace(cfg, lambda_grid=(10.0, 1.0)))

    def test_sweep_csv_byte_reproducible(self):
        doc = base_doc()
        doc["control"] = {"controller": "optimistic", "q": 1.0, "r": 0.05,
                          "lambda_grid": [1.0, 100.0]}
        doc["run"] = {"steps": 15, "repetitions": 2, "seed": 8}
        cfg = config_from_dict(doc)
        a = sweep_csv_bytes(sweep_lambda(cfg))
        b = sweep_csv_bytes(sweep_lambda(cfg))
        assert a == b


@pytest.fixture(scope="class")
def unpatched():
    """verify(suite, seed=0), run once per suite and shared by the calls that
    no monkeypatch is in force for."""
    reports = {}

    def report(suite):
        if suite not in reports:
            reports[suite] = verify(suite, seed=0)
        return reports[suite]

    return report


class TestVerify:
    def test_all_suites_pass(self, unpatched):
        report = unpatched("all")
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert "projected_deepc_equals_optimistic" in names
        assert "deepc_elimination_matches_joint_qp" in names
        assert "robust_dual_bounds_sampled_ball" in names
        assert "simulate_matches_stepwise_recursion" in names

    def test_simulate_oracle_detects_a_shifted_noise_pairing(self, monkeypatch):
        # simulate draws its noise through plant.gaussian_rows, the oracle
        # through its own binding: pair step t with the noise of t+1.
        gaussian_rows = plant.gaussian_rows

        def shifted(rng, factor, count):
            return np.roll(gaussian_rows(rng, factor, count), -1, axis=0)

        monkeypatch.setattr(plant, "gaussian_rows", shifted)
        failed = {c.name for c in verify("lemmas", seed=0).checks if not c.passed}
        assert "simulate_matches_stepwise_recursion" in failed

    def test_mutation_is_detected(self):
        # A doubled covariance stays PSD, so the check runs and fails by its
        # residual rather than by raising.
        report = verify("theorems", seed=1, mutate="double_pred_cov")
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["projected_deepc_equals_optimistic",
                                            "optimistic_output_box_matches_precision_form"]
        for check in failed:
            assert math.isfinite(check.residual)
            assert check.residual > check.tolerance

    def test_output_box_oracle_detects_a_doubled_covariance(self, unpatched):
        # optimistic's (u, mean) QP with a doubled covariance against the
        # precision form of the true one.
        name = "optimistic_output_box_matches_precision_form"
        assert {c.name: c for c in unpatched("theorems").checks}[name].passed
        check = {c.name: c for c in verify("theorems", seed=0,
                                           mutate="double_pred_cov").checks}[name]
        assert not check.passed and check.tolerance < check.residual < math.inf

    def test_raising_check_keeps_its_name(self, monkeypatch, unpatched):
        # A check that raises is reported under the name it has when it
        # passes, and every check's name is its function's.
        passing = [c.name for c in unpatched("all").checks]
        assert passing == [fn.__name__.removeprefix("_check_") for fn in (
            *verify_module._LEMMA_CHECKS, *verify_module._THEOREM_CHECKS,
            *verify_module._SOLVER_CHECKS)]

        def broken(dm):
            raise RuntimeError("predictor bug")

        monkeypatch.setattr(verify_module, "_lstsq_predictor", broken)
        failed = [c for c in verify("theorems", seed=0).checks if not c.passed]
        assert [c.name for c in failed] == ["projected_deepc_equals_optimistic"]
        assert failed[0].residual == math.inf
        assert failed[0].detail == "raised RuntimeError: predictor bug"

    def test_spectral_oracle_detects_a_perturbed_kappa(self, monkeypatch):
        # The weight of optimistic, robust and deepc's eliminated form, built
        # with kappa 1e-6 too large: the end-to-end comparison with the
        # spectral oracle fails (the direct weight comparisons call
        # control._tethered_weight and still pass).
        tethered = control._tethered_input_qp
        monkeypatch.setattr(control, "_tethered_input_qp", lambda pm, cp, kappa:
                            tethered(pm, cp, kappa * (1.0 + 1e-6)))
        checks = {c.name: c for c in verify("theorems", seed=0).checks}
        spectral = checks["spectral_weights_match_solve_forms"]
        assert not spectral.passed
        assert 1e-6 < spectral.residual < math.inf

    def test_elimination_check_detects_a_wrong_weight(self, unpatched):
        # kappa = lambda_g instead of lambda_g / D on the eliminated side.
        assert unpatched("theorems").all_passed
        report = verify("theorems", seed=0, mutate="kappa_without_d")
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"deepc_elimination_matches_joint_qp"}

    def test_l1_check_detects_a_halved_cost_on_the_negative_half(self, monkeypatch):
        # deepc's 1-norm QP with lambda_g / 2 on g-: the split no longer
        # prices |g|, and its plan leaves the epigraph form's.
        tracking_qp = control._tracking_qp

        def halved(cp, head, *args, **kw):
            prob = tracking_qp(cp, head, *args, **kw)
            if "v_lower" not in kw:
                return prob
            q, d = prob.q.copy(), head.shape[0] // 2
            q[d : 2 * d] *= 0.5
            return prob.updated(q=q)

        monkeypatch.setattr(control, "_tracking_qp", halved)
        failed = {c.name for c in verify("theorems", seed=0).checks if not c.passed}
        assert failed == {"deepc_l1_matches_epigraph_form"}

    def test_singular_covariance_check_detects_kept_pivots(self, monkeypatch):
        # Every pivot pstrf factors at its own default tolerance kept: the
        # noiseless covariances' rounding-level directions are tethered, and
        # their plans leave spc's and the (u, s, y) QP's. The controllers'
        # solves stop at 1 000 iterations, so that a stalled ADMM ends early;
        # the check passes under that cap alone.
        run = control.solve
        monkeypatch.setattr(control, "solve", lambda prob, settings=QpSettings():
                            run(prob, dataclasses.replace(settings, max_iter=1000)))

        def check():
            return verify_module._check_optimistic_output_box_exact_for_singular_covariance(
                np.random.default_rng(0))

        assert check().passed
        pivoted = control._pivoted_cholesky
        monkeypatch.setattr(control, "_pivoted_cholesky", lambda cov, tau: pivoted(cov, -1.0))
        failed = check()
        assert not failed.passed and failed.residual > failed.tolerance

    def test_box_qp_oracle_detects_an_early_stop(self, monkeypatch, unpatched):
        assert unpatched("solver").all_passed
        active_set = qp._active_set

        def one_iteration_early(prob, factor, settings):
            # max_iter is at least 1, so a one-iteration solve is left whole.
            full = active_set(prob, factor, settings)
            cut = dataclasses.replace(settings, max_iter=max(full.iterations - 1, 1))
            return dataclasses.replace(active_set(prob, factor, cut), status=full.status)

        monkeypatch.setattr(qp, "_active_set", one_iteration_early)
        failed = {c.name for c in verify("solver", seed=0).checks if not c.passed}
        assert failed == {"box_qp_matches_independent_oracles"}

    def test_child_generator_checks_read_the_same_in_every_suite(self):
        # Each draws from a generator keyed by the seed and its own fixed
        # key, not by how many checks drew one before it.
        everything = {c.name: c for c in verify("all", seed=3).checks}
        for suite, name in (("lemmas", "simulate_matches_stepwise_recursion"),
                            ("theorems", "spectral_weights_match_solve_forms"),
                            ("theorems", "deepc_elimination_matches_joint_qp"),
                            ("solver", "box_qp_matches_independent_oracles")):
            alone = {c.name: c for c in verify(suite, seed=3).checks}
            assert alone[name] == everything[name], suite

    def test_report_schema_stable(self, unpatched):
        report = unpatched("solver")
        for check in report.checks:
            assert isinstance(check.name, str)
            assert isinstance(check.passed, bool)
            assert isinstance(check.residual, float)
            assert isinstance(check.tolerance, float)
        assert report.lines()[-1].startswith("suite=solver")


def plant_noise_covariances():
    example = load_config(EXAMPLE_CONFIG).plant
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((6, 2))
    return {
        "example_xi": example.Sigma_xi,
        "example_eta": example.Sigma_eta,
        "3x3_eta": 0.05**2 * a @ a.T,
        "6_state_xi_rank_2": 0.02**2 * b @ b.T,
    }


class TestPlantNoise:
    """The closed loop and simulate draw a noise stream as
    ``plant.gaussian_rows(rng, psd_factor(cov), count)``."""

    @pytest.mark.parametrize("name", sorted(plant_noise_covariances()))
    def test_sample_covariance_matches(self, name):
        # Each entry of the sample covariance of N zero-mean draws has
        # standard deviation sqrt((S_ii S_jj + S_ij^2) / N); allow 5 of them.
        cov = plant_noise_covariances()[name]
        count = 20000
        draws = plant.gaussian_rows(np.random.default_rng(8), psd_factor(cov), count)
        assert draws.shape == (count, cov.shape[0])
        spread = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / count)
        assert np.all(np.abs(draws.T @ draws / count - cov) <= 5.0 * spread)

    def test_rank_deficient_draws_stay_in_the_range(self):
        cov = plant_noise_covariances()["6_state_xi_rank_2"]
        u, s, _ = np.linalg.svd(cov)
        assert np.count_nonzero(s > 1e-12 * s[0]) == 2
        basis = u[:, :2]
        draws = plant.gaussian_rows(np.random.default_rng(8), psd_factor(cov), 2000)
        outside = draws - (draws @ basis) @ basis.T
        assert np.abs(outside).max() <= 1e-14 * np.abs(draws).max()


def stepwise_closed_loop(cfg, seed=None):
    """run_closed_loop as a loop of single steps: each noise stream drawn
    before the loop by plant.gaussian_rows, a plant.step per step, the
    history a list of samples, and each record built as its step is taken."""
    seed = cfg.run_seed if seed is None else seed
    _, dm, pm = harness.identification_run(cfg)
    cp = cfg.control_problem()
    model = cfg.plant
    dims = model.dims
    rng_warm, rng_xi, rng_eta = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    xi = plant.gaussian_rows(rng_xi, psd_factor(model.Sigma_xi), cfg.run_steps)
    eta = plant.gaussian_rows(rng_eta, psd_factor(model.Sigma_eta), cfg.run_steps)
    x = np.zeros(model.n)
    history, records = [], []

    def advance(u):
        nonlocal x
        x, y = plant.step(model, x, u, xi[len(history)], eta[len(history)])
        history.append(np.concatenate([u, y]))
        return y

    def record(t, w_ini, u, y, iterations, lam_eff, status=""):
        du, dy = u - cfg.u_ref, y - cfg.y_ref
        records.append(harness.StepRecord(
            t=t, w_ini=w_ini, u=u.copy(), y=y.copy(),
            stage_cost=float(du @ (cfg.r_diag * du) + dy @ (cfg.q_diag * dy)),
            solver_iterations=iterations, lambda_effective=lam_eff, solver_status=status))

    for t in range(cfg.l_ini):
        window = np.zeros(dims.q * cfg.l_ini)
        if history:
            window[-dims.q * t:] = np.concatenate(history)
        u = np.clip(cfg.data_input_std * rng_warm.standard_normal(dims.m),
                    cp.u_lower[: dims.m], cp.u_upper[: dims.m])
        record(t, window, u, advance(u), 0, math.nan)
    t, aborted, reason = cfg.l_ini, False, None
    while t < cfg.run_steps:
        w_ini = np.concatenate(history[-cfg.l_ini:])
        try:
            result = harness._solve_controller(cfg, dm, pm, cp, w_ini)
        except InfeasibleProblem as exc:
            aborted, reason = True, f"controller infeasible at t={t}: {exc}"
            break
        plan = result.u_f.reshape(cfg.l_f, dims.m)
        for k in range(min(cfg.apply_steps, cfg.run_steps - t)):
            window = w_ini if k == 0 else np.concatenate(history[-cfg.l_ini:])
            y = advance(plan[k])
            record(t, window, plan[k], y, result.solver.iterations if k == 0 else 0,
                   result.lambda_effective, result.solver.status if k == 0 else "")
            t += 1
    return harness.RunRecord(dims=dims, l_ini=cfg.l_ini, controller=cfg.controller,
                             seed=seed, steps=tuple(records), aborted=aborted,
                             abort_reason=reason)


def dense_noise_plant():
    """A stable 6-state, 3-input, 3-output plant whose process noise has
    rank 2 and whose measurement noise is dense."""
    covs = plant_noise_covariances()
    model = random_stable_plant(np.random.default_rng(12), n=6, m=3, p=3)
    return dataclasses.replace(model, Sigma_xi=covs["6_state_xi_rank_2"],
                               Sigma_eta=covs["3x3_eta"])


ORACLE_WEIGHTS = {"spc": {}, "ce": {}, "deepc": {"lambda": 50.0},
                  "optimistic": {"lambda": 50.0}, "robust": {"lambda": 50.0}}


class TestStepwiseOracle:
    """run_closed_loop draws a run's noise at once, steps the plant inline and
    builds its records at the end; its CSV is the stepwise loop's, byte for
    byte."""

    @staticmethod
    def assert_same_run(doc):
        cfg = config_from_dict(doc)
        got, want = run_closed_loop(cfg), stepwise_closed_loop(cfg)
        assert got.to_csv_bytes() == want.to_csv_bytes()
        assert (got.aborted, got.abort_reason) == (want.aborted, want.abort_reason)
        assert got.summary_dict() == want.summary_dict()
        return got

    @pytest.mark.parametrize("apply_steps", [1, 3])
    @pytest.mark.parametrize("controller", harness.CONTROLLER_NAMES)
    def test_example_config(self, controller, apply_steps):
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["control"].update(controller=controller, **ORACLE_WEIGHTS[controller])
        doc["run"]["apply_steps"] = apply_steps
        assert not self.assert_same_run(doc).aborted

    @pytest.mark.parametrize("controller", ["spc", "deepc", "optimistic"])
    def test_output_box(self, controller):
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["control"].update(controller=controller, y_min=-3.0, y_max=0.95,
                              **ORACLE_WEIGHTS[controller])
        doc["run"]["apply_steps"] = 3
        # spc cannot keep this output box: its run aborts infeasible.
        assert self.assert_same_run(doc).aborted == (controller == "spc")

    @pytest.mark.parametrize("controller", harness.CONTROLLER_NAMES)
    def test_dense_and_rank_deficient_noise(self, controller):
        doc = base_doc(plant=dense_noise_plant().to_json_dict())
        doc["data"]["steps"] = 300
        doc["control"] = {"controller": controller, "q": 1.0, "r": 0.05, "y_ref": 1.0,
                          "u_min": -3.0, "u_max": 3.0, **ORACLE_WEIGHTS[controller]}
        doc["run"] = {"steps": 30, "seed": 4, "apply_steps": 2}
        assert not self.assert_same_run(doc).aborted
