"""The benchmark's four workloads and the checks on their outputs.

Every workload runs closed loop: each controller solve waits for the
previous one, as in a receding-horizon controller. A workload is a fixed
round of harness calls built from the run's seed; the runner repeats the
round, so every round does the same work. The program receives only the
generated configs, through ``harness.config_from_dict``.

Each check is computed here, apart from the code it checks. A call whose
check fails counts as a failed operation.
"""

import copy
import functools
import json
import math
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gdpc import control, harness
from gdpc.behavior import PredictiveModel

# The unwrapped optimistic controller, for the deepc equivalence check. It is
# taken before the runner rebinds the controller names to time them.
OPTIMISTIC = control.optimistic

BOX_TOL = 1e-9  # inputs lie in their box up to this absolute slack
SPC_CE_TOL = 1e-6  # spc and ce apply the same input to this absolute gap
COST_RTOL = 1e-9  # realized cost against the benchmark's own sum
PLAN_RTOL = 1e-5  # deepc-proj2 against optimistic (the acceptance suite's C02)
MEAN_RTOL = 1e-5  # Y_f g against the reported mean
OUTPUT_BOX_TOL = 1e-6  # predicted means lie in their output box
RESIDUAL_RTOL = 1e-6  # projected-gradient residual of the (u, mu) problem
PREDICTOR_RTOL = 1e-8  # predictor and covariance against the lstsq fit


@dataclass
class Solve:
    """One controller call seen by the runner's timing wrapper."""

    controller: str
    args: tuple
    kwargs: dict
    result: object
    start: float
    seconds: float


@dataclass
class CallRecord:
    """One harness call of a round, with the solves it made."""

    result: object
    error: str | None
    solves: list
    wall: float
    cpu: float
    setup: float | None  # from the call's start to its first solve
    scale: float  # REFERENCE_S over the host's kernel time around the call


@dataclass
class Call:
    label: str
    run: Callable[[], object]


CONTROLLERS = ("spc", "certainty_equivalence", "deepc", "optimistic", "robust")


class SolveLog:
    """Times the five controller functions the harness dispatches to, by
    rebinding them in ``gdpc.control`` for this process."""

    def __init__(self, control_module):
        self.solves = []
        for name in CONTROLLERS:
            setattr(control_module, name, self._timed(getattr(control_module, name)))

    def _timed(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.solves.append(Solve(fn.__name__, args, kwargs, result, start,
                                     time.perf_counter() - start))
            return result

        return timed

    def take(self):
        out, self.solves = self.solves, []
        return out


# The machine the benchmark was tuned on is shared with other tenants, and
# its speed swings in states up to 2x apart that last from under a second to
# minutes, longer than a run. Every timing of a harness call is therefore
# scaled to a reference speed: the speed at which a fixed kernel, which does
# not use gdpc, takes REFERENCE_S. The kernel is timed before and after each
# call; the call's scale is REFERENCE_S over the mean of the two.
REFERENCE_S = 0.005
KERNEL_SMALL = np.arange(64.0).reshape(8, 8) / 64.0 + 4.0 * np.eye(8)
KERNEL_LARGE = np.random.default_rng(0).standard_normal((160, 160))
KERNEL_STREAM = np.zeros(1 << 21)  # 16 MB, past the per-core caches


def reference_kernel():
    """Interpreter loop, small numpy calls, one dense solve and a pass over
    16 MB, in about the mix that gdpc spends its time in."""
    total = 0
    for i in range(20000):
        total += (i * i) % 7
    x = np.ones(8)
    for _ in range(150):
        x = np.linalg.solve(KERNEL_SMALL, x)
        x = x / np.linalg.norm(x)
    big = KERNEL_LARGE
    np.linalg.solve(big @ big.T + np.eye(len(big)), big[:, 0])
    np.add(KERNEL_STREAM, 1.0, out=KERNEL_STREAM)
    return total


def kernel_seconds() -> float:
    """Best wall time of the reference kernel over three runs."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Round:
    """What a round leaves once checked: its timings at the reference speed
    and each call's failure messages. The outputs themselves are dropped, so
    memory does not grow with the number of rounds."""

    wall: float
    measured_wall: float  # as the clock read it, before scaling
    kernels: list  # the reference kernel's time around each call
    cpu: float
    setups: list
    solve_seconds: list
    failures: list
    traced: bool


def run_calls(workload, log) -> list[CallRecord]:
    """Runs each harness call of the round, timed, with the reference kernel
    timed between the calls."""
    records = []
    kernel_before = kernel_seconds()
    for call in workload.calls:
        log.take()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result, error = call.run(), None
        except Exception:  # a call that raises is a failed operation
            result, error = None, f"{call.label}: {traceback.format_exc()}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        solves = log.take()
        setup = solves[0].start - wall0 if solves else None
        kernel_after = kernel_seconds()
        scale = 2.0 * REFERENCE_S / (kernel_before + kernel_after)
        kernel_before = kernel_after
        records.append(CallRecord(result, error, solves, wall, cpu, setup, scale))
    return records


def checked_round(workload, records, traced: bool) -> Round:
    """Checks the round's outputs and keeps what the metrics need."""
    if any(r.error for r in records):
        failures = [[r.error] if r.error else [] for r in records]
    else:
        try:
            failures = workload.check(records)
        except Exception:  # outputs malformed enough to break a check
            failures = [[traceback.format_exc()]] * len(records)
    return Round(
        wall=sum(r.wall * r.scale for r in records),
        measured_wall=sum(r.wall for r in records),
        kernels=[REFERENCE_S / r.scale for r in records],
        cpu=sum(r.cpu * r.scale for r in records),
        setups=[r.setup * r.scale for r in records if r.setup is not None],
        solve_seconds=[s.seconds * r.scale for r in records for s in r.solves],
        failures=failures,
        traced=traced,
    )


def sub_seeds(seed: int, index: int) -> tuple[int, int]:
    """(data seed, run seed) of the index-th closed loop of a round."""
    data_seed, run_seed = np.random.SeedSequence([seed, index]).generate_state(2)
    return int(data_seed), int(run_seed)


def three_by_three_plant(seed: int = 3) -> dict:
    """A stable 6-state, 3-input, 3-output plant drawn from a fixed seed."""
    rng = np.random.default_rng(seed)
    n = 6
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = basis @ np.diag(rng.uniform(0.3, 0.85, n)) @ basis.T
    return {
        "A": a.tolist(),
        "B": (0.5 * rng.standard_normal((n, 3))).tolist(),
        "C": (0.5 * rng.standard_normal((3, n))).tolist(),
        "D": np.zeros((3, 3)).tolist(),
        "Sigma_xi": (0.02**2 * np.eye(n)).tolist(),
        "Sigma_eta": (0.05**2 * np.eye(3)).tolist(),
    }


def example_config(root) -> dict:
    with open(root / "configs" / "example.json") as fh:
        return json.load(fh)


def chronological_blocks(matrix, dims, l_ini, l_f):
    """Split a chronological window matrix into W_p, U_f and Y_f."""
    q, m = dims.q, dims.m
    future = np.arange(l_ini, l_ini + l_f)[:, None] * q
    past = matrix[: q * l_ini]
    u_f = matrix[(future + np.arange(m)).ravel()]
    y_f = matrix[(future + m + np.arange(dims.p)).ravel()]
    return past, u_f, y_f


def hankel_windows(samples, window):
    """Chronological stack of every length-``window`` segment, as columns."""
    segments = np.lib.stride_tricks.sliding_window_view(samples, window, axis=0)
    return segments.transpose(0, 2, 1).reshape(segments.shape[0], -1).T


def reference_predictor(matrix, dims, l_ini, l_f):
    """(M_ini, M_u, cov): the lstsq fit of Y_f on [W_p; U_f] and (1/D)
    times the Gram matrix of its residual."""
    past, u_f, y_f = chronological_blocks(matrix, dims, l_ini, l_f)
    free = np.vstack([past, u_f])
    coeff = np.linalg.lstsq(free.T, y_f.T, rcond=None)[0].T
    resid = y_f - coeff @ free
    n_ini = past.shape[0]
    return coeff[:, :n_ini], coeff[:, n_ini:], resid @ resid.T / matrix.shape[1]


def rel_gap(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


def check_closed_loop(cfg, rec: harness.RunRecord) -> list[str]:
    """Properties every closed-loop run must have."""
    errors = []
    if rec.aborted:
        errors.append(f"aborted: {rec.abort_reason}")
    if len(rec.steps) != cfg.run_steps:
        errors.append(f"{len(rec.steps)} steps recorded, {cfg.run_steps} configured")
    statuses = {s.solver_status for s in rec.steps if s.solver_status}
    if statuses != {"optimal"}:
        errors.append(f"solver statuses {sorted(statuses)}")
    return errors


def check_input_box(cfg, rec) -> list[str]:
    lower = -np.inf if cfg.u_min is None else cfg.u_min
    upper = np.inf if cfg.u_max is None else cfg.u_max
    controlled = [s.u for s in rec.steps if s.t >= cfg.l_ini]
    u = np.array(controlled)
    if np.any(u < lower - BOX_TOL) or np.any(u > upper + BOX_TOL):
        return ["an applied input leaves its box"]
    return []


def check_realized_cost(cfg, rec) -> list[str]:
    u = np.array([s.u for s in rec.steps])
    y = np.array([s.y for s in rec.steps])
    du, dy = u - cfg.u_ref, y - cfg.y_ref
    own = float(np.sum(du * du * cfg.r_diag) + np.sum(dy * dy * cfg.q_diag))
    if abs(rec.realized_cost - own) > COST_RTOL * max(1.0, abs(own)):
        return [f"realized cost {rec.realized_cost!r} against stage-cost sum {own!r}"]
    return []


class Workload:
    """A round of harness calls and the checks on their outputs."""

    name = ""
    calls: list

    def check(self, records: list[CallRecord]) -> list[list[str]]:
        """Failure messages for each call of the round, in order."""
        raise NotImplementedError


class LoopBox(Workload):
    """spc, ce, optimistic and robust on configs/example.json: SISO, D 390,
    L_ini 3, L_f 8, input box only. Every QP has 8 variables and stops
    after 25 to 50 ADMM iterations, so the fixed cost of each solve and
    the controller set-up redone every step dominate."""

    name = "loop_box"
    CONTROLLERS = ("spc", "ce", "optimistic", "robust")

    def __init__(self, seed, root):
        base = example_config(root)
        data_seed, run_seed = sub_seeds(seed, 0)
        self.cfgs = []
        for name in self.CONTROLLERS:
            doc = copy.deepcopy(base)
            doc["data"]["seed"] = data_seed
            doc["run"]["seed"] = run_seed
            doc["control"]["controller"] = name
            self.cfgs.append(harness.config_from_dict(doc))
        self.calls = [
            Call(cfg.controller, lambda cfg=cfg: harness.run_closed_loop(cfg))
            for cfg in self.cfgs
        ]

    def check(self, records):
        out = []
        for cfg, rec in zip(self.cfgs, records):
            out.append(check_closed_loop(cfg, rec.result) + check_input_box(cfg, rec.result)
                       + check_realized_cost(cfg, rec.result))
        # SPC is certainty equivalence; the program solves them as two QPs.
        spc, ce = records[0].result, records[1].result
        gap = max(float(np.max(np.abs(a.u - b.u))) for a, b in zip(spc.steps, ce.steps))
        if gap > SPC_CE_TOL:
            out[1].append(f"spc and ce inputs differ by {gap:.3e}")
        return out


class LoopDeepc(Workload):
    """deepc with the proj2 regularizer on the example plant and horizons,
    D 250. The QP carries D+16 variables and an equality block, so dense
    O(D^3) work dominates: scaling and factorizing a KKT matrix of size
    about 2D, the PSD check, and the predictor rebuilt every step."""

    name = "loop_deepc"
    LOOPS = 2
    DATA_COLUMNS = 250
    LAMBDA_G = 50.0
    RUN_STEPS = 20
    SAMPLE_EVERY = 4  # solves checked against optimistic

    def __init__(self, seed, root):
        base = example_config(root)
        self.cfgs = []
        for k in range(self.LOOPS):
            doc = copy.deepcopy(base)
            doc["data"]["seed"], doc["run"]["seed"] = sub_seeds(seed, k)
            doc["data"]["steps"] = self.DATA_COLUMNS + 3 + 8 - 1
            doc["control"].update(controller="deepc", regularizer="proj2")
            doc["control"]["lambda"] = self.LAMBDA_G
            doc["run"]["steps"] = self.RUN_STEPS
            self.cfgs.append(harness.config_from_dict(doc))
        self.calls = [
            Call(f"deepc{k}", lambda cfg=cfg: harness.run_closed_loop(cfg))
            for k, cfg in enumerate(self.cfgs)
        ]

    def check(self, records):
        out = []
        for cfg, rec in zip(self.cfgs, records):
            errors = check_closed_loop(cfg, rec.result)
            for solve in rec.solves[:: self.SAMPLE_EVERY]:
                errors += self._check_solve(cfg, solve)
            out.append(errors)
        return out

    def _check_solve(self, cfg, solve):
        dm, w_ini, cp, _, lambda_g = solve.args[:5]
        res = solve.result
        m_ini, m_u, cov = reference_predictor(dm.matrix, dm.dims, dm.l_ini, dm.l_f)
        pm = PredictiveModel(M_u=m_u, M_ini=m_ini, cov=cov)
        # deepc-proj2 is the optimistic controller at lambda = 2 lambda_g / D.
        opt = OPTIMISTIC(pm, w_ini, cp, 2.0 * lambda_g / dm.n_columns, cfg.solver,
                         jitter=cfg.jitter)
        errors = []
        gap = rel_gap(res.u_f, opt.u_f)
        if gap > PLAN_RTOL:
            errors.append(f"deepc plan differs from optimistic by {gap:.3e}")
        _, _, y_f = chronological_blocks(dm.matrix, dm.dims, dm.l_ini, dm.l_f)
        gap = rel_gap(y_f @ res.g, res.y_pred.mean)
        if gap > MEAN_RTOL:
            errors.append(f"Y_f g differs from the predicted mean by {gap:.3e}")
        return errors


class LoopOutbox(Workload):
    """optimistic with an active output upper bound (y_max 0.8 below y_ref
    1) on a fixed 3-input, 3-output plant, D 290. This (u, mu) form is the
    only path where ADMM iterations and the active-set polish dominate;
    lambda 0.3 keeps every solve near 300 iterations and `optimal`."""

    name = "loop_outbox"
    LOOPS = 6
    DATA_SEED = 0
    DATA_STEPS = 300
    LAMBDA = 0.3
    Y_MAX = 0.8
    RUN_STEPS = 20

    def __init__(self, seed, root):
        plant = three_by_three_plant()
        self.cfgs = []
        for k in range(self.LOOPS):
            # The identification data are fixed like the plant; the seed
            # draws only the closed-loop noise. ADMM iteration counts on this
            # path follow the data set: with the data drawn from the seed,
            # a round's iterations spread by 8% (IQR over median) from seed
            # to seed, with them fixed by 2%.
            data_seed = sub_seeds(self.DATA_SEED, k)[0]
            run_seed = sub_seeds(seed, k)[1]
            doc = {
                "schema": 1,
                "plant": plant,
                "data": {"steps": self.DATA_STEPS, "seed": data_seed},
                "horizons": {"L_ini": 3, "L_f": 8},
                "control": {
                    "controller": "optimistic", "q": 1.0, "r": 0.05,
                    "y_ref": 1.0, "y_max": self.Y_MAX, "u_min": -3.0, "u_max": 3.0,
                    "lambda": self.LAMBDA,
                },
                "run": {"steps": self.RUN_STEPS, "seed": run_seed},
            }
            self.cfgs.append(harness.config_from_dict(doc))
        self.calls = [
            Call(f"outbox{k}", lambda cfg=cfg: harness.run_closed_loop(cfg))
            for k, cfg in enumerate(self.cfgs)
        ]

    def check(self, records):
        out = []
        for cfg, rec in zip(self.cfgs, records):
            errors = check_closed_loop(cfg, rec.result)
            for solve in rec.solves:
                errors += self._check_solve(solve)
            out.append(errors)
        return out

    @staticmethod
    def _check_solve(solve):
        pm, w_ini, cp, lam = solve.args[:4]
        res = solve.result
        u, mu = res.u_f, res.y_pred.mean
        if np.any(mu < cp.y_lower - OUTPUT_BOX_TOL) or np.any(mu > cp.y_upper + OUTPUT_BOX_TOL):
            return ["a predicted mean leaves its output box"]
        # Gradient of ||u - u_ref||_R^2 + ||mu - y_ref||_Q^2
        # + (lam/2) ||mu - M_u u - M_ini w_ini||_S^2, with S = cov^-1.
        kappa = 0.5 * lam
        tether = np.linalg.solve(pm.cov, mu - pm.M_u @ u - pm.M_ini @ w_ini)
        grad_u = 2.0 * cp.R @ (u - cp.u_ref) - 2.0 * kappa * pm.M_u.T @ tether
        grad_mu = 2.0 * cp.Q @ (mu - cp.y_ref) + 2.0 * kappa * tether
        x = np.concatenate([u, mu])
        grad = np.concatenate([grad_u, grad_mu])
        lower = np.concatenate([cp.u_lower, cp.y_lower])
        upper = np.concatenate([cp.u_upper, cp.y_upper])
        residual = float(np.max(np.abs(x - np.clip(x - grad, lower, upper))))
        scale = max(1.0, float(np.max(np.abs(2.0 * kappa * tether))))
        if residual > RESIDUAL_RTOL * scale:
            return [f"projected-gradient residual {residual:.3e}"]
        return []


class SweepBigD(Workload):
    """sweep_lambda of robust over three weights above lambda0 (about 0.2),
    two repetitions of 15-step runs, SISO example plant, D 4000. The sweep
    identifies again for every (lambda, repetition) and the predictor
    builds a D x D projector, so identification time and peak memory
    dominate while the 8-variable solves are cheap."""

    name = "sweep_bigD"
    DATA_COLUMNS = 4000
    GRID = (1.0, 10.0, 100.0)
    REPETITIONS = 2
    RUN_STEPS = 15

    def __init__(self, seed, root):
        doc = example_config(root)
        doc["data"]["seed"], doc["run"]["seed"] = sub_seeds(seed, 0)
        doc["data"]["steps"] = self.DATA_COLUMNS + 3 + 8 - 1
        doc["control"].update(controller="robust", lambda_grid=list(self.GRID))
        doc["run"].update(steps=self.RUN_STEPS, repetitions=self.REPETITIONS)
        self.cfg = harness.config_from_dict(doc)
        # The recorded data, windowed here rather than by the program.
        traj, _, _ = harness.identification_run(self.cfg)
        self.windows = hankel_windows(traj.samples, self.cfg.l_ini + self.cfg.l_f)
        self.calls = [Call("sweep", lambda: harness.sweep_lambda(self.cfg))]

    def check(self, records):
        rec = records[0]
        errors = []
        for cell in rec.result:
            if (cell.runs_failed or cell.runs_ok != self.REPETITIONS
                    or not math.isfinite(cell.mean_cost)):
                errors.append(f"cell lambda={cell.lam:g}: {cell.runs_ok} ok, "
                              f"{cell.runs_failed} failed")
        if not rec.solves:
            return [errors + ["no controller solve"]]
        statuses = {s.result.solver.status for s in rec.solves}
        if statuses != {"optimal"}:
            errors.append(f"solver statuses {sorted(statuses)}")
        pm = rec.solves[0].args[0]
        m_ini, m_u, cov = reference_predictor(self.windows, self.cfg.dims, self.cfg.l_ini,
                                              self.cfg.l_f)
        gap = max(rel_gap(pm.M_ini, m_ini), rel_gap(pm.M_u, m_u))
        if gap > PREDICTOR_RTOL:
            errors.append(f"predictor differs from the lstsq fit by {gap:.3e}")
        gap = float(np.max(np.abs(pm.cov - cov))) / float(np.max(np.abs(cov)))
        if gap > PREDICTOR_RTOL:
            errors.append(f"covariance differs from the residual Gram matrix by {gap:.3e}")
        return [errors]


WORKLOADS = {w.name: w for w in (LoopBox, LoopDeepc, LoopOutbox, SweepBigD)}
