"""Command-line entry points.

Subcommands: identify, predict, control, closed-loop, sweep, verify.
Exit codes: 0 success, 2 controller/QP infeasibility, 3 configuration
error, 4 verification failure.

Each config flag sets one key of the config document, which
``harness.config_from_dict`` then parses and checks once (``_CONFIG_FLAGS``).
"""

import argparse
import json
import os
import sys

import numpy as np

from .behavior import GaussianBehavior, condition, estimate
from .errors import ConfigError, GdpcError, InfeasibleProblem, ParseError
from .harness import (
    CONTROLLER_NAMES,
    _solve_controller,
    config_from_dict,
    identification_run,
    read_config,
    run_closed_loop,
    sweep_csv_bytes,
    sweep_lambda,
)
from .trajectory import (
    _read_rows,
    block_row_permutation,
    build_data_matrix,
    excitation_rank,
    load_csv,
)
from .verify import SUITES, verify

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3
EXIT_VERIFY = 4


def _plant_file(path: str) -> dict:
    """An argparse type: the config's plant section naming the file."""
    return {"file": os.path.abspath(path)}


def _grid(text: str) -> list[str]:
    """An argparse type: the comma-separated entries of a weight grid, which
    the config parser reads as numbers."""
    return [v for v in text.split(",") if v.strip()]


# Each config flag: the config key that its value is set at, and its
# argparse keywords. A subcommand takes the flags whose values it reads.
_CONFIG_FLAGS = {
    "--rank-tol": ("rank_tol", dict(type=float, help="relative singular-value cutoff")),
    "--jitter": ("jitter", dict(
        type=float, help="relative jitter of optimistic's covariance factor with an output "
                         "box, the only place jitter is applied")),
    "--eps-abs": ("solver.eps_abs", dict(
        type=float, help="absolute tolerance: ADMM's, and that of the residual test an "
                         "exact equality-constrained solve must pass; the box-only "
                         "active-set solves are exact and ignore it")),
    "--plant": ("plant", dict(type=_plant_file, help="plant JSON file")),
    "--controller": ("control.controller", dict(choices=CONTROLLER_NAMES,
                                                help="controller to solve")),
    "--grid": ("control.lambda_grid", dict(type=_grid, help="comma-separated ascending weights")),
}
_RUN_FLAGS = ("--rank-tol", "--jitter", "--eps-abs", "--plant")


def _add_config_flags(parser, *flags):
    for flag in flags:
        key, kwargs = _CONFIG_FLAGS[flag]
        help_text = f"{kwargs['help']} (sets {key})"
        parser.add_argument(flag, default=None, **{**kwargs, "help": help_text})


def _load_config(args):
    """The config at ``args.config`` with each given flag's value set at its
    key in the document, parsed once."""
    doc = read_config(args.config)
    for flag, (key, _) in _CONFIG_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None or not isinstance(doc, dict):
            continue
        *section, name = key.split(".")
        target = doc.setdefault(section[0], {}) if section else doc
        if isinstance(target, dict):  # else config_from_dict names the section
            target[name] = value
    return config_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(args.config)))


def _seed(text: str) -> int:
    """An argparse type: a non-negative integer, as a seed must be."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdpc",
        description=(
            "Gaussian trajectory behaviors for data-driven predictive control: "
            "identification, prediction, control, closed-loop simulation, "
            "weight sweeps, and numerical verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser(
        "identify",
        help="estimate a behavior from a trajectory CSV",
        description=(
            "Window the trajectory per the config horizons, report the "
            "excitation rank, and write the estimated behavior as JSON."
        ),
    )
    p_id.add_argument("--data", required=True, help="trajectory CSV (u_1..u_m, y_1..y_p)")
    p_id.add_argument("--config", required=True, help="experiment config JSON")
    p_id.add_argument("--out", required=True, help="output behavior JSON path")
    _add_config_flags(p_id, "--rank-tol", "--plant")

    p_pred = sub.add_parser(
        "predict",
        help="condition a stored behavior on a history window and future input",
        description=(
            "Prints the predicted output mean and the diagonal of the "
            "predictive covariance, one future step per line."
        ),
    )
    p_pred.add_argument("--behavior", required=True, help="behavior JSON from identify")
    p_pred.add_argument("--wini", required=True, help="history window CSV (L_ini rows)")
    p_pred.add_argument("--uf", required=True, help="future input CSV (L_f rows, u_1..u_m)")

    p_ctl = sub.add_parser(
        "control",
        help="solve one open-loop control instance from the config",
        description=(
            "Runs the identification data run from the config, takes the last "
            "L_ini steps as the history window, and solves the chosen "
            "controller once."
        ),
    )
    p_ctl.add_argument("--config", required=True)
    p_ctl.add_argument("--out", default=None, help="optional JSON result path")
    _add_config_flags(p_ctl, *_RUN_FLAGS, "--controller")

    p_cl = sub.add_parser(
        "closed-loop",
        help="run the receding-horizon loop and write a CSV record",
        description=(
            "CSV columns, in order: t, wini_1..wini_{q*L_ini} (history window "
            "at solve time), u_1..u_m (applied input), y_1..y_p (measured "
            "output), stage_cost, solver_iterations, lambda_effective. "
            "A JSON summary is written alongside as <out>.summary.json."
        ),
    )
    p_cl.add_argument("--config", required=True)
    p_cl.add_argument("--out", required=True, help="output CSV path")
    _add_config_flags(p_cl, *_RUN_FLAGS)

    p_sweep = sub.add_parser(
        "sweep",
        help="Monte-Carlo closed-loop cost over a weight grid",
        description="Writes lambda, mean_cost, std_cost, runs_ok, runs_failed per row.",
    )
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    _add_config_flags(p_sweep, *_RUN_FLAGS, "--grid")

    p_ver = sub.add_parser(
        "verify",
        help="run the numerical certification suites",
        description="Prints one PASS/FAIL line per check; exits 4 on any failure.",
    )
    p_ver.add_argument("--suite", choices=SUITES, default="all")
    p_ver.add_argument("--seed", type=_seed, default=0)

    return parser


def _load_input_csv(path, m):
    """Read an input-only CSV with header u_1..u_m."""
    rows = _read_rows(path, [f"u_{i + 1}" for i in range(m)])
    if not rows:
        raise ParseError("no data rows", line=2)
    return np.array(rows)


def _cmd_identify(args) -> int:
    cfg = _load_config(args)
    traj = load_csv(args.data, cfg.dims)
    dm = build_data_matrix(traj, cfg.l_ini, cfg.l_f, mode=cfg.data_mode)
    expected = cfg.dims.m * (cfg.l_ini + cfg.l_f) + cfg.plant.n
    report = excitation_rank(dm, expected, rank_tol=cfg.rank_tol)
    gb = estimate(dm)
    gb.save_json(args.out)
    print(f"columns: {dm.n_columns}  rank: {report.rank}  "
          f"excitation target {expected}: {'met' if report.satisfied else 'NOT met'}")
    print(f"behavior written to {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    gb = GaussianBehavior.load_json(args.behavior)
    dims = gb.dims
    history = load_csv(args.wini, dims)
    u_future = _load_input_csv(args.uf, dims.m)
    l_ini = history.length
    l_f = u_future.shape[0]
    if l_ini + l_f != gb.window:
        raise ConfigError(
            f"history ({l_ini}) + future ({l_f}) steps must equal the "
            f"behavior window {gb.window}"
        )
    perm = block_row_permutation(dims, l_ini, l_f)
    free_idx = perm[: dims.q * l_ini + dims.m * l_f]
    value = np.concatenate([history.samples.reshape(-1), u_future.reshape(-1)])
    cond = condition(gb, free_idx, value)
    variances = np.clip(np.diag(cond.cov), 0.0, None)
    print("step  " + "  ".join(f"mean_y{j + 1}" for j in range(dims.p))
          + "  " + "  ".join(f"var_y{j + 1}" for j in range(dims.p)))
    for t in range(l_f):
        mean_t = cond.mean[t * dims.p : (t + 1) * dims.p]
        var_t = variances[t * dims.p : (t + 1) * dims.p]
        print(f"{t:4d}  " + "  ".join(f"{v: .6e}" for v in mean_t)
              + "  " + "  ".join(f"{v: .6e}" for v in var_t))
    return EXIT_OK


def _cmd_control(args) -> int:
    cfg = _load_config(args)
    traj, dm, pm = identification_run(cfg)
    w_ini = traj.samples[-cfg.l_ini :].reshape(-1)
    cp = cfg.control_problem()
    result = _solve_controller(cfg, dm, pm, cp, w_ini)
    plan = result.u_f.reshape(cfg.l_f, cfg.dims.m)
    mean = result.y_pred.mean.reshape(cfg.l_f, cfg.dims.p)
    print(f"controller: {cfg.controller}  objective: {result.objective:.6e}  "
          f"iterations: {result.solver.iterations}")
    print("step  " + "  ".join(f"u_{i + 1}" for i in range(cfg.dims.m))
          + "  " + "  ".join(f"ypred_{j + 1}" for j in range(cfg.dims.p)))
    for t in range(cfg.l_f):
        print(f"{t:4d}  " + "  ".join(f"{v: .6e}" for v in plan[t])
              + "  " + "  ".join(f"{v: .6e}" for v in mean[t]))
    if args.out:
        doc = {
            "schema": 1,
            "controller": cfg.controller,
            "objective": result.objective,
            "u_f": result.u_f.tolist(),
            "y_pred_mean": result.y_pred.mean.tolist(),
            "lambda_effective": result.lambda_effective,
            "solver_iterations": result.solver.iterations,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"result written to {args.out}")
    return EXIT_OK


def _cmd_closed_loop(args) -> int:
    cfg = _load_config(args)
    record = run_closed_loop(cfg)
    record.save_csv(args.out)
    summary_path = args.out + ".summary.json"
    with open(summary_path, "w") as fh:
        json.dump(record.summary_dict(), fh, indent=2, sort_keys=True)
    print(f"steps recorded: {len(record.steps)}  realized cost: "
          f"{record.realized_cost:.6e}")
    print(f"record written to {args.out}; summary to {summary_path}")
    if record.aborted:
        print(f"run aborted: {record.abort_reason}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cells = sweep_lambda(_load_config(args))
    with open(args.out, "wb") as fh:
        fh.write(sweep_csv_bytes(cells))
    for c in cells:
        print(f"lambda={c.lam:.4g}  mean={c.mean_cost:.6e}  std={c.std_cost:.3e}  "
              f"ok={c.runs_ok}  failed={c.runs_failed}")
        if c.failures:
            print(f"  first failure: {c.failures[0]}")
    print(f"sweep written to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify(suite=args.suite, seed=args.seed)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "identify": _cmd_identify,
        "predict": _cmd_predict,
        "control": _cmd_control,
        "closed-loop": _cmd_closed_loop,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleProblem as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ParseError, GdpcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
