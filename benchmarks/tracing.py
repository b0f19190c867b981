"""Spans around the public functions of every gdpc layer, and the per-layer
metrics read from them.

The modules import their helpers by name (``from .linalg import pinv``), so
a wrapper rebinds the name in each importing module. The rebinding lives in
this process only, between ``install`` and ``remove``. Spans are kept in
memory and written out when the run ends.
"""

import json
import time
from collections import defaultdict

import numpy as np

from gdpc import behavior, control, harness, plant, qp

# (module, attribute) pairs to wrap. A function wrapped in several importing
# modules gives spans of one name: the layer that defines it, then its name.
BINDINGS = [
    (harness, "run_closed_loop"),
    (harness, "sweep_lambda"),
    (harness, "identification_run"),
    (harness, "simulate"),
    (harness, "stationary_state_covariance"),
    (harness, "step"),
    (harness, "build_data_matrix"),
    (harness, "predictive_model"),
    (plant, "step"),
    (plant, "is_psd"),
    (plant, "lyap_discrete"),
    (plant, "spectral_radius"),
    (behavior, "pinv"),
    (behavior, "is_psd"),
    (behavior, "chol_psd"),
    (control, "spc"),
    (control, "certainty_equivalence"),
    (control, "deepc"),
    (control, "optimistic"),
    (control, "robust"),
    (control, "lambda_threshold"),
    (control, "hessian"),
    (control, "predictive_model"),
    (control, "pinv"),
    (control, "is_psd"),
    (control, "chol_psd"),
    (control, "sym_eig"),
    (control, "QpProblem"),
    (control, "solve"),
    (qp, "is_psd"),
    (qp, "sym_eig"),
    (qp, "matrix_rank"),
]

CONTROLLER_SPANS = {f"control.{name}" for name in
                    ("spc", "certainty_equivalence", "deepc", "optimistic", "robust")}

# Units of the per-layer metrics, in the order they are reported.
UNITS = {
    "harness.identification_run.calls": "count",
    "harness.identification_run.self_ms": "ms",
    "trajectory.build_data_matrix.ms": "ms",
    "trajectory.data_matrix.mb": "MB",
    "plant.simulate.ms": "ms",
    "plant.step.calls": "count",
    "plant.step.us": "us",
    "behavior.predictive_model.calls": "count",
    "behavior.predictive_model.ms": "ms",
    "linalg.pinv.calls": "count",
    "linalg.pinv.ms": "ms",
    "linalg.is_psd.calls": "count",
    "linalg.is_psd.ms": "ms",
    "linalg.chol_psd.calls": "count",
    "control.setup_ms": "ms",
    "control.lambda_threshold.calls": "count",
    "control.hessian.calls": "count",
    "qp.problem.ms": "ms",
    "qp.solve.self_ms": "ms",
    "qp.solves": "count",
    "qp.iterations": "count",
    "qp.polished": "count",
    "qp.kkt_dim": "count",
    "trace.overhead_s": "s",
}


def span_name(fn) -> str:
    if fn is qp.QpProblem:
        return "qp.problem"
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records a span (name, parent, start, end, result facts) per call of
    every wrapped function while installed."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, facts]
        self._stack = []
        self._saved = []

    def install(self):
        for module, attr in BINDINGS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name(original), original))

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[4] = facts(name, args, result)
            return result

        return traced

    def write(self, path, meta: dict):
        doc = dict(meta, spans=[[n, p, round(s * 1e6), round(e * 1e6), f]
                                for n, p, s, e, f in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def facts(name, args, result):
    """The counts a span carries beyond its times."""
    if name == "qp.solve":
        prob = args[0]
        return {"iterations": result.iterations, "polished": bool(result.polished),
                "kkt_dim": 2 * prob.n + prob.n_eq}
    if name == "trajectory.build_data_matrix":
        return {"mb": result.matrix.size * result.matrix.itemsize / 1e6}
    return None


def layer_metrics(spans, rounds: int, overhead_s: float) -> dict:
    """Per-layer metrics per round from the spans of ``rounds`` traced rounds."""
    count = defaultdict(int)
    total = defaultdict(float)
    child = defaultdict(float)  # time covered by direct children, per span index
    qp_child = defaultdict(float)  # the part of it in QP construction and solve
    for name, parent, start, end, _ in spans:
        count[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
            if name in ("qp.problem", "qp.solve"):
                qp_child[parent] += end - start

    def self_time(name):
        return sum(end - start - child[i]
                   for i, (n, _, start, end, _) in enumerate(spans) if n == name)

    setup = [end - start - qp_child[i]
             for i, (name, _, start, end, _) in enumerate(spans) if name in CONTROLLER_SPANS]
    solve_facts = [f for n, _, _, _, f in spans if n == "qp.solve"]
    matrix_mb = [f["mb"] for n, _, _, _, f in spans if n == "trajectory.build_data_matrix"]

    per_round = 1.0 / rounds
    values = {
        "harness.identification_run.calls": count["harness.identification_run"] * per_round,
        "harness.identification_run.self_ms":
            1e3 * self_time("harness.identification_run") * per_round,
        "trajectory.build_data_matrix.ms": 1e3 * total["trajectory.build_data_matrix"] * per_round,
        "trajectory.data_matrix.mb": max(matrix_mb, default=0.0),
        "plant.simulate.ms": 1e3 * total["plant.simulate"] * per_round,
        "plant.step.calls": count["plant.step"] * per_round,
        "plant.step.us": 1e6 * total["plant.step"] / max(count["plant.step"], 1),
        "behavior.predictive_model.calls": count["behavior.predictive_model"] * per_round,
        "behavior.predictive_model.ms": 1e3 * total["behavior.predictive_model"] * per_round,
        "linalg.pinv.calls": count["linalg.pinv"] * per_round,
        "linalg.pinv.ms": 1e3 * total["linalg.pinv"] * per_round,
        "linalg.is_psd.calls": count["linalg.is_psd"] * per_round,
        "linalg.is_psd.ms": 1e3 * total["linalg.is_psd"] * per_round,
        "linalg.chol_psd.calls": count["linalg.chol_psd"] * per_round,
        "control.setup_ms": 1e3 * float(np.mean(setup)) if setup else 0.0,
        "control.lambda_threshold.calls": count["control.lambda_threshold"] * per_round,
        "control.hessian.calls": count["control.hessian"] * per_round,
        "qp.problem.ms": 1e3 * total["qp.problem"] * per_round,
        "qp.solve.self_ms": 1e3 * self_time("qp.solve") * per_round,
        "qp.solves": count["qp.solve"] * per_round,
        "qp.iterations": sum(f["iterations"] for f in solve_facts) * per_round,
        "qp.polished": sum(f["polished"] for f in solve_facts) * per_round,
        "qp.kkt_dim": max((f["kkt_dim"] for f in solve_facts), default=0),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
