"""Shared instance generators and finite-difference oracles."""

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import gdpc
from gdpc import qp
from gdpc.behavior import PredictiveModel, predictive_model
from gdpc.control import ControlProblem
from gdpc.linalg import spectral_radius
from gdpc.plant import StochasticLtiModel, simulate
from gdpc.trajectory import DataMatrix, SignalDims, build_data_matrix


@pytest.fixture(autouse=True, scope="session")
def _subprocess_pythonpath():
    """The CLI tests run ``python -m gdpc.cli`` in subprocesses. They import
    the gdpc these tests import, also when pytest's ``pythonpath`` setting
    rather than PYTHONPATH put it on the path."""
    root = str(Path(gdpc.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", path)
        yield


def random_stable_plant(rng, n=2, m=1, p=1, noise_std=0.1, radius=0.8):
    a = rng.standard_normal((n, n))
    a *= radius / max(spectral_radius(a), 1e-12)
    return StochasticLtiModel(
        A=a,
        B=rng.standard_normal((n, m)),
        C=rng.standard_normal((p, n)),
        D=0.3 * rng.standard_normal((p, m)),
        Sigma_xi=noise_std**2 * np.eye(n),
        Sigma_eta=noise_std**2 * np.eye(p),
    )


@dataclass
class ControlInstance:
    model: StochasticLtiModel
    dm: DataMatrix
    pm: PredictiveModel
    w_ini: np.ndarray
    cp: ControlProblem


def random_control_instance(
    rng,
    n_max=3,
    m_max=2,
    p_max=2,
    l_ini=2,
    l_f_max=4,
    d_factor_max=5,
    noise_std=0.1,
    with_input_box=False,
    with_output_box=False,
):
    """A noisy identification run plus a random tracking problem."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    p = int(rng.integers(1, p_max + 1))
    l_f = int(rng.integers(2, l_f_max + 1))
    model = random_stable_plant(rng, n=n, m=m, p=p, noise_std=noise_std)
    dims = SignalDims(m, p)
    window = l_ini + l_f
    d_cols = int(rng.integers(1, d_factor_max + 1)) * dims.q * window
    steps = window + d_cols - 1
    traj = simulate(model, np.zeros(n), 1.0, steps=steps, seed=int(rng.integers(2**31)))
    dm = build_data_matrix(traj, l_ini, l_f)
    pm = predictive_model(dm)

    fresh = simulate(model, np.zeros(n), 1.0, steps=l_ini + 2, seed=int(rng.integers(2**31)))
    w_ini = fresh.samples[-l_ini:].reshape(-1)

    u_min = u_max = y_min = y_max = None
    if with_input_box:
        half = rng.uniform(0.05, 0.5, size=m)
        u_min, u_max = -half, half
    if with_output_box:
        half = rng.uniform(1.0, 4.0, size=p)
        y_min, y_max = -half, half
    cp = ControlProblem.from_step_weights(
        dims,
        l_ini,
        l_f,
        q_diag=rng.uniform(0.5, 2.0, size=p),
        r_diag=rng.uniform(0.1, 1.0, size=m),
        u_ref=rng.uniform(-0.5, 0.5, size=m),
        y_ref=rng.uniform(-1.0, 1.0, size=p),
        u_min=u_min,
        u_max=u_max,
        y_min=y_min,
        y_max=y_max,
    )
    return ControlInstance(model=model, dm=dm, pm=pm, w_ini=w_ini, cp=cp)


def fd_gradient(fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return grad


def fd_hessian(fun, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            val = (
                fun(x + ei + ej) - fun(x + ei - ej) - fun(x - ei + ej) + fun(x - ei - ej)
            ) / (4.0 * h * h)
            hess[i, j] = hess[j, i] = val
    return hess


def record_solver_paths(monkeypatch):
    """Patch qp's three solvers to append their names, in call order, to the
    returned list."""
    calls = []

    def recorded(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    for name in ("_active_set", "_eq_active_set", "_admm"):
        monkeypatch.setattr(qp, name, recorded(name, getattr(qp, name)))
    return calls


def assert_same_fields(got, want):
    """``got`` holds exactly the dataclass fields ``want`` holds, each of the
    same type and value (arrays bit for bit, with shape and dtype), and is
    frozen like it."""
    assert type(got) is type(want)
    assert vars(got).keys() == vars(want).keys()
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b), f.name
        if isinstance(a, np.ndarray):
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), f.name
        else:
            assert a is b or a == b, f.name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, f.name, b)
