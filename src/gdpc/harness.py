"""Experiment orchestration: configs, closed-loop runs, and weight sweeps.

A JSON experiment config (versioned, ``"schema": 1``) describes the plant,
the identification data run, horizons, the control problem, and the
closed-loop settings; :func:`config_from_dict` parses and checks all of it
in one pass, and the CLI's flags are edits of the document before it.
``run_closed_loop`` freezes the identified predictor once (offline
identification), then runs the receding-horizon loop: assemble the
measured history window, solve the configured controller, apply the first
input block, step the seeded plant.

A step does no more than that. The noise factors are the plant model's,
made once when the model is built, so a run factors no noise covariance;
it draws each noise stream for all its steps before the loop, by
``plant.gaussian_rows`` as ``simulate`` draws it. The plant advances by
``plant._advance``, ``plant.step``'s update without its argument checks;
the samples go into one preallocated array whose rows are the history
windows, and the step records are built from that array after the loop.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import control as ctl
from .behavior import predictive_model
from .errors import ConfigError, GdpcError, InfeasibleProblem, UnstableSystem
from .plant import (
    PLANT_KEYS,
    StochasticLtiModel,
    _advance,
    default_benchmark,
    gaussian_rows,
    simulate,
    stationary_state_covariance,
)
# Not called here; benchmarks/tracing.py wraps harness.step by name.
from .plant import step  # noqa: F401
from .qp import QpSettings
from .trajectory import SignalDims, build_data_matrix

CONTROLLER_NAMES = ("spc", "ce", "deepc", "optimistic", "robust")

CSV_FLOAT_FORMAT = "%.17g"


def _fmt(value: float) -> str:
    return CSV_FLOAT_FORMAT % value


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config; no key sets ``jitter``, which optimistic ignores."""

    plant: StochasticLtiModel
    data_steps: int
    data_mode: str
    data_input_std: float
    data_seed: int
    data_initial: str
    l_ini: int
    l_f: int
    controller: str
    q_diag: np.ndarray
    r_diag: np.ndarray
    u_ref: np.ndarray
    y_ref: np.ndarray
    u_min: np.ndarray | None
    u_max: np.ndarray | None
    y_min: np.ndarray | None
    y_max: np.ndarray | None
    lam: float
    lambda_grid: tuple[float, ...]
    regularizer: str
    run_steps: int
    repetitions: int
    run_seed: int
    apply_steps: int
    solver: QpSettings
    rank_tol: float
    jitter: float = 1e-9

    @property
    def dims(self) -> SignalDims:
        return self.plant.dims

    def control_problem(self) -> ctl.ControlProblem:
        return ctl.ControlProblem.from_step_weights(
            self.dims, self.l_ini, self.l_f,
            q_diag=self.q_diag, r_diag=self.r_diag,
            u_ref=self.u_ref, y_ref=self.y_ref,
            u_min=self.u_min, u_max=self.u_max,
            y_min=self.y_min, y_max=self.y_max,
        )


def _number(raw, kind, name):
    """``kind(raw)``, for ``kind`` float or int, or :class:`ConfigError`
    naming the config key ``name``; a float with a fraction is not an int,
    and a boolean is not a number."""
    try:
        value = None if isinstance(raw, bool) else kind(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or (kind is int and isinstance(raw, float) and raw != value):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {noun}, got {raw!r}")
    return value


def _seed(raw, name):
    """A non-negative integer seed, as ``np.random.SeedSequence`` takes, or
    :class:`ConfigError` naming the config key ``name``."""
    value = _number(raw, int, name)
    if value < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value}")
    return value


def _per_channel(raw, count, name, bound=False):
    """A ``count``-vector from a number or a list, or :class:`ConfigError`
    naming the config key ``name``. Every entry must be finite, except for a
    ``bound``: that may be absent (None) and its entries may be infinite,
    which leaves a channel unbounded, but not NaN."""
    if raw is None:
        if bound:
            return None
        raise ConfigError(f"{name} is required")
    entries = raw if isinstance(raw, list) else [raw]
    try:
        arr = (None if any(isinstance(v, bool) for v in entries)
               else np.atleast_1d(np.asarray(raw, dtype=float)))
    except (TypeError, ValueError):
        arr = None
    if arr is None:
        raise ConfigError(f"{name} must be a number or a list of numbers, got {raw!r}")
    if arr.size == 1:
        arr = np.full(count, float(arr[0]))
    if arr.shape != (count,):
        raise ConfigError(f"{name} must be a scalar or a list of {count} values")
    if bound and np.any(np.isnan(arr)):
        raise ConfigError(f"{name} must not be NaN, got {raw!r}")
    if not (bound or np.all(np.isfinite(arr))):
        raise ConfigError(f"{name} must be finite, got {raw!r}")
    return arr


# The keys config_from_dict reads: at the top level (None) and in each
# section. A plant given by "file" has that key alone.
_CONFIG_KEYS = {
    None: {"schema", "plant", "data", "horizons", "control", "run", "solver",
           "rank_tol"},
    "plant": set(PLANT_KEYS),
    "data": {"steps", "mode", "initial", "input_std", "seed"},
    "horizons": {"L_ini", "L_f"},
    "control": {"controller", "regularizer", "q", "r", "u_ref", "y_ref", "u_min",
                "u_max", "y_min", "y_max", "lambda", "lambda_grid"},
    "run": {"steps", "repetitions", "seed", "apply_steps"},
    "solver": {"eps_abs", "eps_rel", "max_iter"},
}


def _section(doc: dict, name: str | None) -> dict:
    """The config object ``doc[name]`` ({} if absent), or ``doc`` itself for
    ``name`` None; :class:`ConfigError` if it is not an object or has a key
    that the config does not read, naming each such key."""
    section = doc if name is None else doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    keys = {"file"} if name == "plant" and "file" in section else _CONFIG_KEYS[name]
    unknown = sorted(set(section) - keys)
    if unknown:
        prefix = "" if name is None else f"{name}."
        raise ConfigError("unknown config key(s): "
                          + ", ".join(prefix + str(key) for key in unknown))
    return section


def read_config(path) -> dict:
    """The JSON document of the config file at ``path``, unparsed;
    :class:`ConfigError` if the file is missing or not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_config(path),
                            base_dir=os.path.dirname(os.path.abspath(path)))


def config_from_dict(doc: dict, base_dir: str = ".") -> ExperimentConfig:
    """The checked config of the JSON document ``doc``, whose relative plant
    file path is taken from ``base_dir``; :class:`ConfigError` naming the
    first key at fault."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    schema = doc.get("schema")
    if schema != 1:
        raise ConfigError(f"unsupported config schema {schema!r} (expected 1)")
    _section(doc, None)

    plant_doc = None if doc.get("plant") is None else _section(doc, "plant")
    try:
        if plant_doc is None:
            plant = default_benchmark()
        elif "file" in plant_doc:
            ref = plant_doc["file"]
            full = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
            if not os.path.exists(full):
                raise ConfigError(f"plant file does not exist: {full}")
            plant = StochasticLtiModel.load_json(full)
        else:
            plant = StochasticLtiModel.from_json_dict(plant_doc)
    except ConfigError:
        raise
    except (ValueError, TypeError, OSError) as exc:
        # Every GdpcError, JSONDecodeError and UnicodeDecodeError is a
        # ValueError; anything else is a fault of the program, not the config.
        raise ConfigError(f"invalid plant description: {exc}") from None

    data = _section(doc, "data")
    horizons = _section(doc, "horizons")
    control = _section(doc, "control")
    run = _section(doc, "run")
    solver_doc = _section(doc, "solver")

    try:
        l_ini = _number(horizons["L_ini"], int, "horizons.L_ini")
        l_f = _number(horizons["L_f"], int, "horizons.L_f")
    except KeyError as exc:
        raise ConfigError(f"horizons missing key {exc}") from None
    if l_ini < 1 or l_f < 1:
        raise ConfigError("horizons must be at least 1")

    data_steps = _number(data.get("steps", 40 * (l_ini + l_f)), int, "data.steps")
    if data_steps < l_ini + l_f:
        raise ConfigError("data.steps shorter than one window")
    data_mode = data.get("mode", "hankel")
    if data_mode not in ("hankel", "disjoint"):
        raise ConfigError(f"unknown data.mode {data_mode!r}")
    data_initial = data.get("initial", "stationary")
    if data_initial not in ("stationary", "burn_in"):
        raise ConfigError(f"unknown data.initial {data_initial!r}")

    controller = control.get("controller", "spc")
    if controller not in CONTROLLER_NAMES:
        raise ConfigError(
            f"unknown controller {controller!r}; pick one of {CONTROLLER_NAMES}"
        )
    regularizer = control.get("regularizer", "proj2")
    if regularizer not in ctl.REGULARIZERS:
        raise ConfigError(f"unknown regularizer {regularizer!r}")

    dims = plant.dims
    q_diag = _per_channel(control.get("q", 1.0), dims.p, "control.q")
    r_diag = _per_channel(control.get("r", 0.1), dims.m, "control.r")
    u_ref = _per_channel(control.get("u_ref", 0.0), dims.m, "control.u_ref")
    y_ref = _per_channel(control.get("y_ref", 0.0), dims.p, "control.y_ref")
    u_min = _per_channel(control.get("u_min"), dims.m, "control.u_min", bound=True)
    u_max = _per_channel(control.get("u_max"), dims.m, "control.u_max", bound=True)
    y_min = _per_channel(control.get("y_min"), dims.p, "control.y_min", bound=True)
    y_max = _per_channel(control.get("y_max"), dims.p, "control.y_max", bound=True)
    if np.any(q_diag < 0) or np.any(r_diag <= 0):
        raise ConfigError("control.q must be >= 0 and control.r must be > 0")

    grid = control.get("lambda_grid", [])
    if not isinstance(grid, (list, tuple)):
        raise ConfigError("control.lambda_grid must be a list")
    lam = _number(control.get("lambda", 1.0), float, "control.lambda")
    grid = tuple(_number(g, float, "control.lambda_grid") for g in grid)
    for value in (lam, *grid):
        if not math.isfinite(value):
            raise ConfigError(f"weight lambda must be finite, got {value}")
        if controller in ("optimistic", "robust") and not value > 0.0:
            raise ConfigError(f"{controller} needs a weight lambda > 0, got {value}")
        if controller == "deepc" and not value >= 0.0:
            raise ConfigError(f"deepc needs a weight lambda >= 0, got {value}")

    data_input_std = _number(data.get("input_std", 1.0), float, "data.input_std")
    if not (math.isfinite(data_input_std) and data_input_std >= 0.0):
        raise ConfigError(
            f"data.input_std must be finite and non-negative, got {data_input_std}")
    data_seed = _seed(data.get("seed", 0), "data.seed")
    run_seed = _seed(run.get("seed", 0), "run.seed")

    run_steps = _number(run.get("steps", 30), int, "run.steps")
    if run_steps <= l_ini:
        raise ConfigError("run.steps must exceed horizons.L_ini")
    repetitions = _number(run.get("repetitions", 1), int, "run.repetitions")
    if repetitions < 1:
        raise ConfigError("run.repetitions must be >= 1")
    apply_steps = _number(run.get("apply_steps", 1), int, "run.apply_steps")
    if not 1 <= apply_steps <= l_f:
        raise ConfigError("run.apply_steps must be in [1, L_f]")

    eps_abs = _number(solver_doc.get("eps_abs", 1e-8), float, "solver.eps_abs")
    eps_rel = _number(solver_doc.get("eps_rel", 1e-8), float, "solver.eps_rel")
    max_iter = _number(solver_doc.get("max_iter", 50000), int, "solver.max_iter")
    try:
        solver = QpSettings(eps_abs=eps_abs, eps_rel=eps_rel, max_iter=max_iter)
    except ValueError as exc:  # its message begins with the field's name
        raise ConfigError(f"solver.{exc}") from None

    rank_tol = _number(doc.get("rank_tol", 1e-10), float, "rank_tol")
    if not 0.0 < rank_tol < 1.0:
        raise ConfigError("rank_tol must be in (0, 1)")

    return ExperimentConfig(
        plant=plant,
        data_steps=data_steps,
        data_mode=data_mode,
        data_input_std=data_input_std,
        data_seed=data_seed,
        data_initial=data_initial,
        l_ini=l_ini,
        l_f=l_f,
        controller=controller,
        q_diag=q_diag,
        r_diag=r_diag,
        u_ref=u_ref,
        y_ref=y_ref,
        u_min=u_min,
        u_max=u_max,
        y_min=y_min,
        y_max=y_max,
        lam=lam,
        lambda_grid=grid,
        regularizer=regularizer,
        run_steps=run_steps,
        repetitions=repetitions,
        run_seed=run_seed,
        apply_steps=apply_steps,
        solver=solver,
        rank_tol=rank_tol,
    )


def identification_run(cfg: ExperimentConfig):
    """Excitation run, stacked data matrix, and frozen predictor.

    The run starts from the stationary state distribution under the white
    excitation input by default; the burn-in alternative (simulate and
    discard 10*n extra steps) covers marginally stable plants and is used
    automatically when no stationary distribution exists.
    """
    model = cfg.plant
    input_cov = cfg.data_input_std**2 * np.eye(model.m)
    mode = cfg.data_initial
    if mode == "stationary":
        try:
            x0 = (np.zeros(model.n), stationary_state_covariance(model, input_cov))
            traj = simulate(model, x0, cfg.data_input_std,
                            steps=cfg.data_steps, seed=cfg.data_seed)
        except UnstableSystem:
            mode = "burn_in"
    if mode == "burn_in":
        extra = 10 * model.n
        full = simulate(model, np.zeros(model.n), cfg.data_input_std,
                        steps=cfg.data_steps + extra, seed=cfg.data_seed)
        traj = type(full)(dims=full.dims, samples=full.samples[extra:])
    dm = build_data_matrix(traj, cfg.l_ini, cfg.l_f, mode=cfg.data_mode)
    return traj, dm, predictive_model(dm, cfg.rank_tol)


@dataclass(frozen=True)
class StepRecord:
    t: int
    w_ini: np.ndarray
    u: np.ndarray
    y: np.ndarray
    stage_cost: float
    solver_iterations: int
    lambda_effective: float
    solver_status: str = ""  # "" on warm-up and carried multi-step rows


@dataclass(frozen=True)
class RunRecord:
    dims: SignalDims
    l_ini: int
    controller: str
    seed: int
    steps: tuple[StepRecord, ...]
    aborted: bool = False
    abort_reason: str | None = None

    @property
    def realized_cost(self) -> float:
        return float(sum(s.stage_cost for s in self.steps))

    def tracking_cost_total(self, q_diag, r_diag, u_ref, y_ref) -> float:
        """Stage-cost identity oracle: the full-trajectory quadratic cost."""
        total = 0.0
        for s in self.steps:
            du = s.u - u_ref
            dy = s.y - y_ref
            total += float(du @ (r_diag * du) + dy @ (q_diag * dy))
        return total

    def csv_header(self) -> list[str]:
        cols = ["t"]
        cols += [f"wini_{i + 1}" for i in range(self.dims.q * self.l_ini)]
        cols += [f"u_{i + 1}" for i in range(self.dims.m)]
        cols += [f"y_{i + 1}" for i in range(self.dims.p)]
        cols += ["stage_cost", "solver_iterations", "lambda_effective"]
        return cols

    def to_csv_bytes(self) -> bytes:
        lines = [",".join(self.csv_header())]
        for s in self.steps:
            fields = [str(s.t)]
            fields += [_fmt(v) for v in s.w_ini]
            fields += [_fmt(v) for v in s.u]
            fields += [_fmt(v) for v in s.y]
            fields += [_fmt(s.stage_cost), str(s.solver_iterations), _fmt(s.lambda_effective)]
            lines.append(",".join(fields))
        return ("\n".join(lines) + "\n").encode()

    def save_csv(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_csv_bytes())

    def summary_dict(self) -> dict:
        return {
            "schema": 1,
            "controller": self.controller,
            "seed": self.seed,
            "steps_recorded": len(self.steps),
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
            "realized_cost": self.realized_cost,
            "solves_not_optimal": sum(
                1 for s in self.steps if s.solver_status and s.solver_status != "optimal"
            ),
        }


def _solve_controller(cfg: ExperimentConfig, dm, pm, cp, w_ini, lam=None):
    lam = cfg.lam if lam is None else lam
    if cfg.controller == "spc":
        return ctl.spc(pm, w_ini, cp, cfg.solver)
    if cfg.controller == "ce":
        return ctl.certainty_equivalence(pm, w_ini, cp, cfg.solver)
    if cfg.controller == "deepc":
        return ctl.deepc(dm, w_ini, cp, cfg.regularizer, lam, cfg.solver,
                         rank_tol=cfg.rank_tol)
    if cfg.controller == "optimistic":
        return ctl.optimistic(pm, w_ini, cp, lam, cfg.solver)
    if cfg.controller == "robust":
        return ctl.robust(pm, w_ini, cp, lam, cfg.solver)
    raise ConfigError(f"unknown controller {cfg.controller!r}")


def run_closed_loop(cfg: ExperimentConfig) -> RunRecord:
    """Receding-horizon loop with the frozen identified predictor, seeded by
    ``cfg.run_seed`` and weighted by ``cfg.lam``; another seed or weight is
    another config, ``dataclasses.replace(cfg, run_seed=..., lam=...)``.

    The first L_ini steps apply seeded excitation input (warm-up), clipped
    to the input box, so a full measured history window exists; afterwards
    the configured controller plans and the first ``apply_steps`` inputs of
    each plan are applied. The history window is built from measured, noisy
    outputs.
    """
    _, dm, pm = identification_run(cfg)
    return _closed_loop(cfg, dm, pm, cfg.control_problem(), cfg.run_seed, cfg.lam)


def _closed_loop(cfg: ExperimentConfig, dm, pm, cp: ctl.ControlProblem,
                 seed: int, lam: float) -> RunRecord:
    """The loop of :func:`run_closed_loop` on an identified data matrix and
    predictor and a built control problem, with the run's seed and weight.

    A step is the controller call and a few vector operations: the noise of
    the run is drawn before it, the samples go into one preallocated array,
    and the records are built from that array after it.
    """
    model = cfg.plant
    dims = model.dims
    m, l_ini, steps = dims.m, cfg.l_ini, cfg.run_steps

    ss = np.random.SeedSequence(seed)
    rng_warm, rng_xi, rng_eta = [np.random.default_rng(s) for s in ss.spawn(3)]
    xi_seq = gaussian_rows(rng_xi, model.xi_factor, steps)
    eta_seq = gaussian_rows(rng_eta, model.eta_factor, steps)
    warm_up = np.clip(cfg.data_input_std * rng_warm.standard_normal((l_ini, m)),
                      cp.u_lower[:m], cp.u_upper[:m])

    # Row l_ini + t holds sample t, (u_t, y_t); the zero rows before sample 0
    # pad the warm-up's history windows, so rows t..t+l_ini-1 are w_ini at t.
    samples = np.zeros((l_ini + steps, dims.q))
    iterations = [0] * steps
    lam_eff = [math.nan] * steps
    status = [""] * steps  # "" on warm-up and carried multi-step rows
    x = np.zeros(model.n)

    def apply(t, u):
        nonlocal x
        x, samples[l_ini + t, m:] = _advance(model, x, u, xi_seq[t], eta_seq[t])
        samples[l_ini + t, :m] = u

    for t in range(l_ini):
        apply(t, warm_up[t])

    t = l_ini
    aborted = False
    abort_reason = None
    while t < steps:
        w_ini = samples[t : t + l_ini].flatten()
        try:
            result = _solve_controller(cfg, dm, pm, cp, w_ini, lam=lam)
        except InfeasibleProblem as exc:
            aborted = True
            abort_reason = f"controller infeasible at t={t}: {exc}"
            break
        iterations[t] = result.solver.iterations
        status[t] = result.solver.status
        plan = result.u_f.reshape(cfg.l_f, m)
        for u in plan[: min(cfg.apply_steps, steps - t)]:
            lam_eff[t] = result.lambda_effective
            apply(t, u)
            t += 1

    return RunRecord(
        dims=dims, l_ini=l_ini, controller=cfg.controller, seed=seed,
        steps=_step_records(cfg, samples[: l_ini + t], iterations, lam_eff, status),
        aborted=aborted, abort_reason=abort_reason,
    )


def _step_records(cfg: ExperimentConfig, samples: np.ndarray, iterations, lam_eff,
                  status) -> tuple[StepRecord, ...]:
    """The records of the steps whose samples follow ``samples``' l_ini
    padding rows. A stage cost is ``du @ (r du) + dy @ (q dy)``, its two dot
    products stacked one per step."""
    m, l_ini = cfg.dims.m, cfg.l_ini
    count = samples.shape[0] - l_ini
    windows = np.hstack([samples[j : j + count] for j in range(l_ini)])
    u, y = samples[l_ini:, :m].copy(), samples[l_ini:, m:].copy()
    du, dy = u - cfg.u_ref, y - cfg.y_ref
    stage = ((du[:, None, :] @ (cfg.r_diag * du)[:, :, None])[:, 0, 0]
             + (dy[:, None, :] @ (cfg.q_diag * dy)[:, :, None])[:, 0, 0]).tolist()
    return tuple(
        StepRecord(t=t, w_ini=windows[t], u=u[t], y=y[t], stage_cost=stage[t],
                   solver_iterations=iterations[t], lambda_effective=lam_eff[t],
                   solver_status=status[t])
        for t in range(count)
    )


@dataclass(frozen=True)
class SweepCell:
    """One weight's Monte-Carlo result. ``failures`` says why each failed
    run failed, in run order: ``"run_seed=<seed>: "`` followed by the
    exception's class and message, or by the run's ``abort_reason``."""

    lam: float
    mean_cost: float
    std_cost: float
    runs_ok: int
    runs_failed: int
    failures: tuple[str, ...] = ()


def sweep_lambda(cfg: ExperimentConfig) -> list[SweepCell]:
    """Monte-Carlo closed-loop cost over the ascending weight grid
    ``cfg.lambda_grid``.

    Each cell repeats ``cfg.repetitions`` runs with seeds run_seed + r. The
    data are identified and the control problem is built once, since every
    run of the sweep would build the same ones; the controller's set-up is
    then made once per weight. Runs that raise a package error
    (infeasibility, threshold violations) or abort are recorded as failed
    and the sweep continues, the reason kept in the cell's ``failures``;
    any other exception propagates.
    """
    values = cfg.lambda_grid
    if not values:
        raise ConfigError("sweep requires a non-empty lambda grid")
    if any(b < a for a, b in zip(values, values[1:])):
        raise ConfigError("lambda grid must be ascending")
    _, dm, pm = identification_run(cfg)
    cp = cfg.control_problem()
    cells = []
    for lam in values:
        costs = []
        failures = []
        for rep in range(cfg.repetitions):
            seed = cfg.run_seed + rep
            try:
                rec = _closed_loop(cfg, dm, pm, cp, seed, lam)
            except GdpcError as exc:
                failures.append(f"run_seed={seed}: {type(exc).__name__}: {exc}")
                continue
            if rec.aborted:
                failures.append(f"run_seed={seed}: {rec.abort_reason}")
                continue
            costs.append(rec.realized_cost)
        mean = float(np.mean(costs)) if costs else math.nan
        std = float(np.std(costs)) if costs else math.nan
        cells.append(
            SweepCell(lam=lam, mean_cost=mean, std_cost=std, runs_ok=len(costs),
                      runs_failed=len(failures), failures=tuple(failures))
        )
    return cells


def sweep_csv_bytes(cells: list[SweepCell]) -> bytes:
    lines = ["lambda,mean_cost,std_cost,runs_ok,runs_failed"]
    for c in cells:
        lines.append(
            ",".join(
                [_fmt(c.lam), _fmt(c.mean_cost), _fmt(c.std_cost),
                 str(c.runs_ok), str(c.runs_failed)]
            )
        )
    return ("\n".join(lines) + "\n").encode()
