"""Identification and the control problem prove each property once.

``identification_run`` builds its data matrix and predictive model from
arrays it has just made, frozen in place instead of copied, and without
the PSD test of a covariance that is a Gram matrix by construction. These
tests hold those objects to what the public validating constructors build
from the same arrays, and count the eigendecompositions and Kronecker
products that one identification and one control problem make.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_same_fields, random_stable_plant

from gdpc import behavior, harness, trajectory
from gdpc.behavior import PredictiveModel
from gdpc.errors import InvalidMatrix, ShapeError
from gdpc.linalg import is_psd
from gdpc.plant import default_benchmark
from gdpc.trajectory import (
    DataMatrix,
    SignalDims,
    Trajectory,
    build_data_matrix,
    window_trajectory,
)

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example.json"


def example_doc():
    with open(EXAMPLE_CONFIG) as fh:
        return json.load(fh)


def three_by_three_doc():
    doc = example_doc()
    plant = random_stable_plant(np.random.default_rng(11), n=3, m=3, p=3)
    doc["plant"] = plant.to_json_dict()
    doc["horizons"] = {"L_ini": 2, "L_f": 4}
    for key in ("q", "r", "u_ref", "y_ref", "u_min", "u_max"):
        doc["control"].pop(key)
    return doc


def noiseless_doc():
    # Four past steps of a 3-state plant without noise: the past outputs
    # are linearly dependent on the rest of the free block.
    doc = example_doc()
    doc["plant"] = default_benchmark(0.0, 0.0).to_json_dict()
    doc["horizons"]["L_ini"] = 4
    return doc


CONFIGS = {"example": example_doc, "3x3": three_by_three_doc, "noiseless": noiseless_doc}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_identified_objects_equal_the_validating_constructors(name, monkeypatch):
    # Two computations: the public constructors copy, symmetrize and
    # PSD-test the arrays identification froze in place.
    pinv_calls = []
    pinv = behavior.pinv
    monkeypatch.setattr(behavior, "pinv", lambda *a: pinv_calls.append(1) or pinv(*a))
    cfg = harness.config_from_dict(CONFIGS[name]())
    traj, dm, pm = harness.identification_run(cfg)
    # Only the noiseless data are rank deficient, and take the pinv branch.
    assert bool(pinv_calls) == (name == "noiseless")

    window = cfg.l_ini + cfg.l_f
    checked = DataMatrix(dims=cfg.dims, l_ini=cfg.l_ini, l_f=cfg.l_f,
                         matrix=window_trajectory(traj, window, cfg.data_mode))
    for field in ("matrix", "row_index"):
        got, want = getattr(dm, field), getattr(checked, field)
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
        assert not got.flags.writeable
    assert (dm.dims, dm.l_ini, dm.l_f) == (checked.dims, checked.l_ini, checked.l_f)

    assert_same_fields(pm, PredictiveModel(M_u=pm.M_u, M_ini=pm.M_ini, cov=pm.cov))
    for array in (pm.M_u, pm.M_ini, pm.cov):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    assert (pm.cov == pm.cov.T).all()
    assert is_psd(pm.cov, 1e-8)


def test_fit_constructor_symmetrizes_only_an_asymmetric_covariance():
    cov = np.array([[2.0, 1.0], [1.0 + 1e-15, 3.0]])
    pm = PredictiveModel._of_fit(np.ones((2, 1)), np.ones((2, 2)), cov.copy())
    assert pm.cov.tobytes() == PredictiveModel(np.ones((2, 1)), np.ones((2, 2)), cov).cov.tobytes()
    symmetric = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert PredictiveModel._of_fit(np.ones((2, 1)), np.ones((2, 2)), symmetric).cov is symmetric


@pytest.mark.parametrize("position", [0, 1, 2])
def test_fit_constructor_keeps_the_finiteness_check(position):
    arrays = [np.ones((2, 1)), np.ones((2, 2)), np.eye(2)]
    arrays[position][0, 0] = np.nan
    with pytest.raises(InvalidMatrix, match=("M_u", "M_ini", "cov")[position]):
        PredictiveModel._of_fit(*arrays)


def test_a_nan_written_after_the_trajectory_checked_its_samples_is_caught():
    # A Trajectory keeps its caller's float array, so the data matrix scans
    # the windows it froze in place.
    samples = np.random.default_rng(3).standard_normal((30, 2))
    traj = Trajectory(SignalDims(1, 1), samples)
    assert traj.samples is samples
    build_data_matrix(traj, 2, 3)
    samples[17, 1] = np.nan
    with pytest.raises(ShapeError, match="non-finite"):
        build_data_matrix(traj, 2, 3)


def test_the_window_array_is_frozen_not_copied(monkeypatch):
    made = []
    window = trajectory.window_trajectory
    monkeypatch.setattr(trajectory, "window_trajectory",
                        lambda *args: made.append(window(*args)) or made[-1])
    traj = Trajectory(SignalDims(1, 1), np.random.default_rng(4).standard_normal((20, 2)))
    dm = build_data_matrix(traj, 2, 3)
    (windows,) = made
    assert dm.matrix is windows and not windows.flags.writeable
    # The public constructor still copies its caller's array.
    assert DataMatrix(dm.dims, 2, 3, windows).matrix is not windows


def test_identification_and_control_problem_counts(monkeypatch):
    # Fixed before identification proved each property once; the parent
    # of that change made 3 eigvalsh calls (PredictiveModel's is_psd and
    # ControlProblem's two weight checks) and 1 kron (I - A kron A).
    counts = {"eigvalsh": 0, "kron": 0, "eigh": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    cfg = harness.config_from_dict(copy.deepcopy(example_doc()))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np, "kron", counted("kron", np.kron))
    harness.identification_run(cfg)
    cfg.control_problem()
    # The one eigh is psd_factor's, for the start-state draw.
    assert counts == {"eigvalsh": 0, "kron": 0, "eigh": 1}
