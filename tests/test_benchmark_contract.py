"""The names by which the benchmark reaches into gdpc.

``benchmarks/tracing.py`` traces a run by rebinding the (module, attribute)
pairs of its ``BINDINGS``, and ``benchmarks/workloads.py`` times the five
controllers by rebinding them in ``gdpc.control`` and unpacks their
positional arguments in its checks. Both files are loaded here, not edited,
so a refactor of gdpc that breaks ``--trace 1`` or the solve timing fails
here first.
"""

import copy
import dataclasses
import importlib.util
import inspect
import json
import pathlib

import pytest
from conftest import record_solver_paths

from gdpc import behavior, control, harness, linalg, qp, trajectory

ROOT = pathlib.Path(__file__).resolve().parents[1]

# The leading positional parameters each controller is called with and the
# workload checks unpack (``solve.args[:n]``).
POSITIONAL = {
    "spc": ("pm", "w_ini", "cp"),
    "certainty_equivalence": ("pm", "w_ini", "cp"),
    "deepc": ("dm", "w_ini", "cp", "regularizer", "lambda_g"),
    "optimistic": ("pm", "w_ini", "cp", "lam"),
    "robust": ("pm", "w_ini", "cp", "lam"),
}
HARNESS_NAMES = {"spc": "spc", "ce": "certainty_equivalence", "deepc": "deepc",
                 "optimistic": "optimistic", "robust": "robust"}


def load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}",
                                                  ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_benchmark_module("tracing")


@pytest.fixture(scope="module")
def workloads():
    return load_benchmark_module("workloads")


def short_loop_config(controller, output_box=False):
    with open(ROOT / "configs" / "example.json") as fh:
        doc = json.load(fh)
    doc = copy.deepcopy(doc)
    doc["control"]["controller"] = controller
    if output_box:
        doc["control"].update(y_min=-3.0, y_max=0.95)
    doc["run"]["steps"] = 8
    return harness.config_from_dict(doc)


def test_every_traced_binding_is_bound(tracing):
    for module, attr in tracing.BINDINGS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_controllers_keep_their_positional_arguments(workloads):
    assert set(workloads.CONTROLLERS) == set(POSITIONAL)
    for name in workloads.CONTROLLERS:
        params = list(inspect.signature(getattr(control, name)).parameters)
        assert tuple(params[: len(POSITIONAL[name])]) == POSITIONAL[name], name


def test_optimistic_keeps_its_jitter():
    # LoopDeepc._check_solve calls control.optimistic(..., jitter=cfg.jitter).
    assert "jitter" in inspect.signature(control.optimistic).parameters
    assert "jitter" in {f.name for f in dataclasses.fields(harness.ExperimentConfig)}


@pytest.mark.parametrize("controller", sorted(HARNESS_NAMES))
def test_one_timed_solve_per_step_with_unpackable_arguments(controller, workloads,
                                                            monkeypatch):
    for name in workloads.CONTROLLERS:  # restored after the test
        monkeypatch.setattr(control, name, getattr(control, name))
    log = workloads.SolveLog(control)
    rec = harness.run_closed_loop(short_loop_config(controller))
    solves = log.take()
    planned = [s for s in rec.steps if s.solver_status]
    assert len(solves) == len(planned) > 0
    for solve in solves:
        assert solve.controller == HARNESS_NAMES[controller]
        args = solve.args[: len(POSITIONAL[solve.controller])]
        assert len(args) == len(POSITIONAL[solve.controller])
        first = trajectory.DataMatrix if controller == "deepc" else behavior.PredictiveModel
        assert isinstance(args[0], first)
        assert isinstance(args[2], control.ControlProblem)
        if controller in ("optimistic", "robust"):
            assert args[3] == rec.steps[-1].lambda_effective


def traced_children(tracing, run):
    """The names of the direct child spans of each controller span, in call
    order, while ``run()`` runs traced."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.remove()
    spans = tracer.spans
    solves = [i for i, span in enumerate(spans) if span[0] in tracing.CONTROLLER_SPANS]
    assert solves
    return [[span[0] for span in spans if span[1] == i] for i in solves]


def loop_children(tracing, cfg):
    return traced_children(tracing, lambda: harness.run_closed_loop(cfg))


def assert_first_solve_only(children, name, count):
    """``name`` appears ``count`` times under a run's first controller span
    (the one that builds the run's set-up) and never under the others."""
    assert len(children) > 1
    assert [c.count(name) for c in children] == [count] + [0] * (len(children) - 1)


@pytest.mark.parametrize("controller,factorizations", [
    ("spc", 0), ("ce", 0), ("optimistic", 0), ("robust", 1),
])
def test_traced_factorizations_per_solve(controller, factorizations, tracing):
    # Counted per run: the factorizations belong to the set-up. Without an
    # output box optimistic forms its weight by one linear solve; robust
    # takes one eigendecomposition for lambda0, of F^T Q F with F from the
    # covariance's own, and no Cholesky factor.
    children = loop_children(tracing, short_loop_config(controller))
    assert_first_solve_only(children, "linalg.chol_psd", 0)
    assert_first_solve_only(children, "linalg.sym_eig", factorizations)
    assert not any("control.lambda_threshold" in c for c in children)


def test_output_box_optimistic_needs_no_eigendecomposition(tracing):
    # The (u, mean) QP uses only the Cholesky factor of the covariance.
    children = loop_children(tracing, short_loop_config("optimistic", True))
    assert_first_solve_only(children, "linalg.chol_psd", 1)
    assert_first_solve_only(children, "linalg.sym_eig", 0)


def test_robust_sweep_factors_once_per_weight(tracing):
    cfg = short_loop_config("robust")
    cfg = dataclasses.replace(cfg, repetitions=2, lambda_grid=(1.0, 10.0, 100.0))
    children = traced_children(tracing, lambda: harness.sweep_lambda(cfg))
    assert len(children) == 3 * 2 * (cfg.run_steps - cfg.l_ini)
    assert sum(c.count("linalg.sym_eig") for c in children) == len(cfg.lambda_grid)
    assert not any("linalg.chol_psd" in c for c in children)


@pytest.mark.parametrize("controller", sorted(HARNESS_NAMES))
def test_box_only_qps_take_the_active_set(controller, tracing, monkeypatch):
    # control.solve is the name the tracer wraps for its qp.solve spans.
    # deepc (proj2, lambda_g > 0, no output box) eliminates g and solves
    # the same input QP as the others.
    assert (control, "solve") in tracing.BINDINGS and control.solve is qp.solve
    paths = record_solver_paths(monkeypatch)
    rec = harness.run_closed_loop(short_loop_config(controller))
    planned = sum(1 for s in rec.steps if s.solver_status)
    assert paths == ["_active_set"] * planned and planned > 0


@pytest.mark.parametrize("controller", ["spc", "ce", "optimistic", "robust"])
def test_example_qps_have_interior_minimizers(controller, monkeypatch):
    # The QPs of loop_box: every one ends at its unconstrained minimizer,
    # which _active_set returns after one solve, with no bound active.
    solutions = []

    def recorded(*args):
        solutions.append(qp.solve(*args))
        return solutions[-1]

    monkeypatch.setattr(control, "solve", recorded)
    with open(ROOT / "configs" / "example.json") as fh:
        doc = json.load(fh)
    doc["control"]["controller"] = controller
    rec = harness.run_closed_loop(harness.config_from_dict(doc))
    assert len(solutions) == sum(1 for s in rec.steps if s.solver_status) > 0
    for sol in solutions:
        assert sol.status == "optimal" and sol.iterations == 1
        assert not sol.bound_duals.any()


VALIDATION = ("symmetrize", "is_psd", "chol_psd", "sym_eig", "pinv")


@pytest.mark.parametrize("controller,output_box", [
    ("spc", False), ("ce", False), ("deepc", False), ("optimistic", False),
    ("robust", False), ("spc", True), ("optimistic", True),
])
def test_steps_after_the_first_do_no_validation(controller, output_box, monkeypatch):
    # A step forms its vector and solves; the checks of the model, the
    # weights and P, and P's factorization, belong to the run's set-up. The
    # predictive distribution a step returns shares the model's covariance
    # without checking it again.
    steps, active = [], []  # per controller call, what it ran; the call under way

    def noted(label, fn):
        def call(*args, **kwargs):
            if active:
                active[-1].append(label(*args) if callable(label) else label)
            return fn(*args, **kwargs)
        return call

    for module in (behavior, control, linalg, qp):
        for name in VALIDATION:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, noted(name, getattr(module, name)))
    for cls in (qp.QpProblem, behavior.ConditionalGaussian):
        monkeypatch.setattr(cls, "__post_init__",
                            noted(f"{cls.__name__}.__post_init__", cls.__post_init__))
    # The set-ups build their QPs by control._qp_of_parts (QpProblem._of_parts).
    monkeypatch.setattr(control, "_qp_of_parts",
                        noted("QpProblem._of_parts", control._qp_of_parts))
    monkeypatch.setattr(qp, "dpotrf", noted(lambda a: ("potrf", a.shape[0]), qp.dpotrf))
    monkeypatch.setattr(control, "solve", noted(lambda prob, settings: ("qp", prob.n),
                                                control.solve))
    name = HARNESS_NAMES[controller]
    controller_fn = getattr(control, name)

    def started(*args, **kwargs):
        steps.append([])
        active.append(steps[-1])
        try:
            return controller_fn(*args, **kwargs)
        finally:
            active.pop()

    monkeypatch.setattr(control, name, started)
    harness.run_closed_loop(short_loop_config(controller, output_box))
    assert len(steps) > 1  # spc's run with an output box ends infeasible at its second step
    assert "QpProblem._of_parts" in steps[0] and "QpProblem.__post_init__" not in steps[0]
    for ran in steps[1:]:
        (qp_size,) = {entry[1] for entry in ran if isinstance(entry, tuple) and entry[0] == "qp"}
        forbidden = (*VALIDATION, "QpProblem.__post_init__", "QpProblem._of_parts",
                     "ConditionalGaussian.__post_init__", ("potrf", qp_size))
        assert not [entry for entry in ran if entry in forbidden]
