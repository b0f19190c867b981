"""End-to-end CLI tests driven through a subprocess (real exit codes)."""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gdpc import cli
from gdpc.behavior import GaussianBehavior
from gdpc.plant import default_benchmark, simulate
from gdpc.trajectory import SignalDims, save_csv

ROOT = Path(__file__).resolve().parent.parent

# Each subcommand's option dests. A config flag is listed only where the
# handler reads the value it sets, so none is accepted that changes nothing.
OPTION_DESTS = {
    "identify": {"data", "config", "out", "rank_tol", "plant"},
    "predict": {"behavior", "wini", "uf"},
    "control": {"config", "controller", "out", "rank_tol", "eps_abs", "plant"},
    "closed-loop": {"config", "out", "rank_tol", "eps_abs", "plant"},
    "sweep": {"config", "grid", "out", "rank_tol", "eps_abs", "plant"},
    "verify": {"suite", "seed"},
}


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "gdpc.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )
    return proc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    model = default_benchmark()
    traj = simulate(model, np.zeros(3), 1.0, steps=300, seed=9)
    save_csv(traj, path / "data.csv")
    config = {
        "schema": 1,
        "data": {"steps": 250, "mode": "hankel", "input_std": 1.0, "seed": 3},
        "horizons": {"L_ini": 2, "L_f": 5},
        "control": {
            "controller": "optimistic", "q": 1.0, "r": 0.05,
            "y_ref": 1.0, "lambda": 50.0, "lambda_grid": [5.0, 50.0],
        },
        "run": {"steps": 25, "repetitions": 2, "seed": 17},
    }
    (path / "config.json").write_text(json.dumps(config))
    return path


class TestContract:
    def test_option_dests_per_subcommand(self):
        (subparsers,) = [a for a in cli.build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        got = {name: {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
               for name, sub in subparsers.choices.items()}
        assert got == OPTION_DESTS

    @pytest.mark.parametrize("flag", ["--jitter", "--rank-tol", "--eps-abs"])
    @pytest.mark.parametrize("command", [
        ["predict", "--behavior", "b.json", "--wini", "w.csv", "--uf", "u.csv"],
        ["verify", "--suite", "solver"],
    ], ids=["predict", "verify"])
    def test_commands_without_a_config_reject_config_flags(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*command, flag, "1e-9"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_each_flag_sets_its_config_value(self, workdir):
        plant_path = workdir / "flag_plant.json"
        default_benchmark(0.1, 0.2).save_json(plant_path)
        args = cli.build_parser().parse_args([
            "sweep", "--config", str(ROOT / "configs" / "example.json"), "--out", "x.csv",
            "--rank-tol", "1e-6", "--eps-abs", "1e-5",
            "--plant", str(plant_path), "--grid", "1, 2",
        ])
        cfg = cli._load_config(args)
        assert (cfg.rank_tol, cfg.solver.eps_abs) == (1e-6, 1e-5)
        assert cfg.lambda_grid == (1.0, 2.0)
        assert np.array_equal(cfg.plant.Sigma_xi, default_benchmark(0.1, 0.2).Sigma_xi)
        args = cli.build_parser().parse_args([
            "control", "--config", str(ROOT / "configs" / "example.json"),
            "--controller", "robust",
        ])
        assert cli._load_config(args).controller == "robust"


class TestIdentify:
    def test_writes_behavior_and_reports_rank(self, workdir):
        proc = run_cli(
            "identify", "--data", str(workdir / "data.csv"),
            "--config", str(workdir / "config.json"),
            "--out", str(workdir / "behavior.json"),
        )
        assert proc.returncode == 0, proc.stderr
        assert "rank" in proc.stdout
        gb = GaussianBehavior.load_json(workdir / "behavior.json")
        assert gb.dims == SignalDims(1, 1)
        assert gb.window == 7

    def test_missing_config_is_config_error(self, workdir):
        proc = run_cli(
            "identify", "--data", str(workdir / "data.csv"),
            "--config", str(workdir / "nope.json"),
            "--out", str(workdir / "b.json"),
        )
        assert proc.returncode == 3


class TestPredict:
    def test_prints_mean_and_variance_rows(self, workdir):
        run_cli(
            "identify", "--data", str(workdir / "data.csv"),
            "--config", str(workdir / "config.json"),
            "--out", str(workdir / "behavior.json"),
        )
        (workdir / "wini.csv").write_text(
            "u_1,y_1\n0.1,0.05\n-0.2,0.4\n"
        )
        (workdir / "uf.csv").write_text(
            "u_1\n" + "\n".join(["0.5"] * 5) + "\n"
        )
        proc = run_cli(
            "predict", "--behavior", str(workdir / "behavior.json"),
            "--wini", str(workdir / "wini.csv"), "--uf", str(workdir / "uf.csv"),
        )
        assert proc.returncode == 0, proc.stderr
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        assert len(lines) == 6  # header + 5 future steps
        assert "mean_y1" in lines[0] and "var_y1" in lines[0]

    def test_window_mismatch_rejected(self, workdir):
        (workdir / "uf_bad.csv").write_text("u_1\n0.5\n")
        proc = run_cli(
            "predict", "--behavior", str(workdir / "behavior.json"),
            "--wini", str(workdir / "wini.csv"), "--uf", str(workdir / "uf_bad.csv"),
        )
        assert proc.returncode == 3

    @pytest.mark.parametrize("change,message", [
        ({"dims": 5}, "behavior dims must be an object"),
        ({"dims": {"m": "a", "p": 1}}, "behavior dims.m must be an integer"),
        ({"dims": {"m": 1, "p": 1.5}}, "behavior dims.p must be an integer"),
        ({"L": "x"}, "behavior L must be an integer"),
        ({"L": 3.5}, "behavior L must be an integer"),
        ({"L": True}, "behavior L must be an integer"),
        ({"mean": "abc"}, "behavior mean must be an array of numbers"),
        ({"cov": "x"}, "behavior cov must be an array of numbers"),
    ])
    def test_values_of_the_wrong_kind_are_config_errors(self, tmp_path, change, message):
        doc = GaussianBehavior(SignalDims(1, 1), 3, np.zeros(6), np.eye(6)).to_json_dict()
        (tmp_path / "b.json").write_text(json.dumps({**doc, **change}))
        (tmp_path / "w.csv").write_text("u_1,y_1\n0.1,0.05\n")
        (tmp_path / "u.csv").write_text("u_1\n0.5\n0.5\n")
        proc = run_cli("predict", "--behavior", str(tmp_path / "b.json"),
                       "--wini", str(tmp_path / "w.csv"), "--uf", str(tmp_path / "u.csv"))
        assert proc.returncode == 3, proc.stderr
        assert message in proc.stderr and "Traceback" not in proc.stderr

    def test_unknown_ordering_is_config_error(self, tmp_path):
        doc = GaussianBehavior(SignalDims(1, 1), 3, np.zeros(6), np.eye(6)).to_json_dict()
        (tmp_path / "b.json").write_text(json.dumps({**doc, "ordering": "weird"}))
        (tmp_path / "w.csv").write_text("u_1,y_1\n0.1,0.05\n")
        (tmp_path / "u.csv").write_text("u_1\n0.5\n0.5\n")
        proc = run_cli("predict", "--behavior", str(tmp_path / "b.json"),
                       "--wini", str(tmp_path / "w.csv"), "--uf", str(tmp_path / "u.csv"))
        assert proc.returncode == 3, proc.stderr
        assert "'weird'" in proc.stderr and "Traceback" not in proc.stderr


class TestControl:
    def test_solves_and_writes_json(self, workdir):
        out = workdir / "control.json"
        proc = run_cli(
            "control", "--config", str(workdir / "config.json"),
            "--controller", "robust", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["controller"] == "robust"
        assert len(doc["u_f"]) == 5


    def test_controller_override_checks_the_weight(self, workdir):
        # deepc accepts lambda 0 (no regularization); optimistic does not.
        config = json.loads((workdir / "config.json").read_text())
        config["control"].update(controller="deepc", lambda_grid=[], **{"lambda": 0.0})
        path = workdir / "zero_weight.json"
        path.write_text(json.dumps(config))
        proc = run_cli("control", "--config", str(path), "--controller", "optimistic")
        assert proc.returncode == 3
        assert "lambda > 0" in proc.stderr and "Traceback" not in proc.stderr


class TestClosedLoop:
    def test_byte_identical_reruns(self, workdir):
        out_a = workdir / "run_a.csv"
        out_b = workdir / "run_b.csv"
        proc_a = run_cli("closed-loop", "--config", str(workdir / "config.json"),
                         "--out", str(out_a))
        proc_b = run_cli("closed-loop", "--config", str(workdir / "config.json"),
                         "--out", str(out_b))
        assert proc_a.returncode == 0 and proc_b.returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        summary = json.loads((workdir / "run_a.csv.summary.json").read_text())
        assert summary["aborted"] is False
        assert summary["steps_recorded"] == 25


    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_jitter_flag_is_unrecognized(self, workdir, value):
        # No controller takes a jitter, so no command has the flag.
        proc = run_cli("closed-loop", "--config", str(workdir / "config.json"),
                       f"--jitter={value}", "--out", str(workdir / "bad.csv"))
        assert proc.returncode == 2, proc.stderr
        assert "unrecognized arguments: --jitter" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (workdir / "bad.csv").exists()

    @pytest.mark.parametrize("solver", [{"max_iter": 0}, {"eps_rel": -1e-6}])
    def test_bad_solver_setting_is_config_error(self, workdir, solver):
        config = json.loads((workdir / "config.json").read_text())
        config["solver"] = solver
        path = workdir / "bad_solver.json"
        path.write_text(json.dumps(config))
        proc = run_cli("closed-loop", "--config", str(path), "--out", str(workdir / "bad.csv"))
        assert proc.returncode == 3
        assert f"solver.{next(iter(solver))}" in proc.stderr
        assert not (workdir / "bad.csv").exists()

    @pytest.mark.parametrize("key,value", [
        ("control.lambda", "abc"), ("run.steps", "ten"), ("control.q", "x"),
        ("horizons.L_f", "8.5"), ("rank_tol", "tiny"), ("data.seed", "s"),
        ("run.steps", 20.5), ("horizons.L_ini", True), ("control.lambda", False),
        ("control.q", math.inf), ("control.y_ref", math.inf), ("control.r", [math.nan]),
        ("control.u_max", math.nan), ("data.input_std", -1.0), ("data.input_std", math.inf),
        ("data.seed", -1), ("run.seed", -1),
        # jitter is an unknown key: no controller takes a jitter.
        ("jitter", -1.0), ("jitter", math.nan), ("jitter", math.inf),
    ])
    def test_non_numeric_value_is_config_error(self, workdir, key, value):
        config = json.loads((workdir / "config.json").read_text())
        *sections, name = key.split(".")
        target = config
        for section in sections:
            target = target[section]
        target[name] = value
        path = workdir / "non_numeric.json"
        path.write_text(json.dumps(config))
        proc = run_cli("closed-loop", "--config", str(path), "--out", str(workdir / "bad.csv"))
        assert proc.returncode == 3, proc.stderr
        assert key in proc.stderr and "Traceback" not in proc.stderr
        assert not (workdir / "bad.csv").exists()

    # Misspelt or unread keys at each level of configs/example.json.
    @pytest.mark.parametrize("section,key,value", [
        ("control", "lamda", 5), ("solver", "rho", 1), ("run", "stepz", 3),
        (None, "jiter", 1e-9),
    ])
    def test_unknown_key_is_config_error(self, workdir, section, key, value):
        config = json.loads((ROOT / "configs" / "example.json").read_text())
        (config if section is None else config[section])[key] = value
        path = workdir / "unknown_key.json"
        path.write_text(json.dumps(config))
        proc = run_cli("closed-loop", "--config", str(path), "--out", str(workdir / "bad.csv"))
        assert proc.returncode == 3, proc.stderr
        name = key if section is None else f"{section}.{key}"
        assert name in proc.stderr and "Traceback" not in proc.stderr
        assert not (workdir / "bad.csv").exists()


class TestPlantOverride:
    def test_plant_flag_changes_the_run(self, workdir):
        plant_path = workdir / "noisier.json"
        default_benchmark(0.1, 0.2).save_json(plant_path)
        out_a = workdir / "base.csv"
        out_b = workdir / "override.csv"
        run_cli("closed-loop", "--config", str(workdir / "config.json"),
                "--out", str(out_a))
        proc = run_cli("closed-loop", "--config", str(workdir / "config.json"),
                       "--plant", str(plant_path), "--out", str(out_b))
        assert proc.returncode == 0, proc.stderr
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_plant_flag_equals_the_plant_file_key(self, workdir):
        # The flag's path is taken from the working directory, the key's
        # from the config's directory.
        default_benchmark(0.1, 0.2).save_json(workdir / "noisier.json")
        config = json.loads((workdir / "config.json").read_text())
        (workdir / "keyed.json").write_text(json.dumps({**config,
                                                        "plant": {"file": "noisier.json"}}))
        (workdir / "sub").mkdir(exist_ok=True)
        (workdir / "sub" / "config.json").write_text(json.dumps(config))
        keyed = run_cli("closed-loop", "--config", "keyed.json", "--out", "keyed.csv",
                        cwd=workdir)
        flagged = run_cli("closed-loop", "--config", "sub/config.json", "--plant",
                          "noisier.json", "--out", "flagged.csv", cwd=workdir)
        assert keyed.returncode == 0 and flagged.returncode == 0, keyed.stderr + flagged.stderr
        assert (workdir / "keyed.csv").read_bytes() == (workdir / "flagged.csv").read_bytes()

    def test_extra_plant_key_is_config_error(self, workdir):
        config = json.loads((workdir / "config.json").read_text())
        config["plant"] = {**default_benchmark().to_json_dict(), "Sigma_xii": [[9.0]]}
        path = workdir / "extra_plant_key.json"
        path.write_text(json.dumps(config))
        proc = run_cli("closed-loop", "--config", str(path), "--out", str(workdir / "bad.csv"))
        assert proc.returncode == 3, proc.stderr
        assert "plant.Sigma_xii" in proc.stderr and "Traceback" not in proc.stderr
        assert not (workdir / "bad.csv").exists()

    def test_extra_key_in_a_plant_file_is_config_error(self, workdir):
        plant_doc = {**default_benchmark().to_json_dict(), "Sigma_xii": [[9.0]]}
        (workdir / "extra_key_plant.json").write_text(json.dumps(plant_doc))
        proc = run_cli("closed-loop", "--config", str(workdir / "config.json"),
                       "--plant", str(workdir / "extra_key_plant.json"),
                       "--out", str(workdir / "bad_file.csv"))
        assert proc.returncode == 3, proc.stderr
        assert "Sigma_xii" in proc.stderr and "Traceback" not in proc.stderr
        assert not (workdir / "bad_file.csv").exists()

    def test_missing_plant_file_is_config_error(self, workdir):
        proc = run_cli("closed-loop", "--config", str(workdir / "config.json"),
                       "--plant", str(workdir / "ghost.json"),
                       "--out", str(workdir / "x.csv"))
        assert proc.returncode == 3

    @pytest.mark.parametrize("name,content", [
        ("text_matrix.json", json.dumps({**default_benchmark().to_json_dict(), "A": [["a"]]})),
        ("not_json.json", "{\"A\": [[0.5]],"),
        ("plant_dir", None),
    ])
    def test_unreadable_plant_is_config_error(self, workdir, name, content):
        # A non-numeric matrix, a file that is not JSON and a directory.
        path = workdir / name
        if content is None:
            path.mkdir(exist_ok=True)
        else:
            path.write_text(content)
        proc = run_cli("closed-loop", "--config", str(workdir / "config.json"),
                       "--plant", str(path), "--out", str(workdir / "unread.csv"))
        assert proc.returncode == 3, proc.stderr
        assert "invalid plant description" in proc.stderr and "Traceback" not in proc.stderr
        assert not (workdir / "unread.csv").exists()


class TestSweep:
    def test_grid_rows(self, workdir):
        out = workdir / "sweep.csv"
        proc = run_cli(
            "sweep", "--config", str(workdir / "config.json"),
            "--grid", "5,50", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("lambda,")
        assert len(lines) == 3

    def test_failed_cell_prints_its_first_failure(self, workdir):
        # robust below its certified threshold fails every run of the cell.
        config = json.loads((workdir / "config.json").read_text())
        config["control"]["controller"] = "robust"
        (workdir / "robust.json").write_text(json.dumps(config))
        out = workdir / "robust_sweep.csv"
        proc = run_cli("sweep", "--config", str(workdir / "robust.json"),
                       "--grid", "1e-12,1e6", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "failed=2" in lines[0]
        assert lines[1].startswith("  first failure: run_seed=17: LambdaTooSmall: ")
        assert "failed=0" in lines[2] and "first failure" not in proc.stdout.split(lines[2])[1]
        assert out.read_text().splitlines()[0] == "lambda,mean_cost,std_cost,runs_ok,runs_failed"

    def test_bad_grid_entry_is_config_error(self, workdir):
        proc = run_cli("sweep", "--config", str(workdir / "config.json"),
                       "--grid", "5,abc", "--out", str(workdir / "bad_sweep.csv"))
        assert proc.returncode == 3, proc.stderr
        assert "control.lambda_grid" in proc.stderr and "Traceback" not in proc.stderr


class TestVerifyCommand:
    def test_solver_suite_exits_zero(self):
        proc = run_cli("verify", "--suite", "solver")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS" in proc.stdout

    def test_bad_suite_rejected_by_argparse(self):
        proc = run_cli("verify", "--suite", "everything")
        assert proc.returncode == 2  # argparse usage error

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_rejected_by_argparse(self, seed):
        proc = run_cli("verify", "--suite", "solver", "--seed", seed)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "--seed" in proc.stderr and "Traceback" not in proc.stderr
