"""Ground-truth stochastic LTI simulator and its stacked block operators.

The plant is x_{t+1} = A x_t + B u_t + xi_t, y_t = C x_t + D u_t + eta_t
with i.i.d. zero-mean Gaussian noise. The block operators express a
length-L output stack as
    y = O_L x_t + T_u u + T_xi xi + eta,
with O_L the extended observability matrix and T_u / T_xi the lower block
triangular input/noise Toeplitz maps (T_xi is T_u built with B = I, D = 0).

A recorded run (``simulate``) has no per-sample Python loop: its states
solve the unit lower block-bidiagonal system x_0 = start,
x_{t+1} - A x_t = B u_t + xi_t by one banded forward substitution (LAPACK
``dtbtrs``, 2n^2 doubles of band per sample), which matches the stepwise
recursion to rounding, not bit for bit. ``step`` is one exact per-sample
update; the closed loop applies its expressions inline.

Every noise stream, here and in the closed loop, is drawn by
``gaussian_rows``: all its samples at once, z F^T for a standard normal
(count, k) array z and F = ``linalg.psd_factor(cov)``. The model makes F
for Sigma_xi and Sigma_eta once, in the check that both are PSD, and keeps
them with A's spectral radius: a rollout, the closed loop and the
stationary covariance read them and factor neither covariance again.
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .errors import ShapeError
# Not called here; benchmarks/tracing.py wraps plant.is_psd and
# plant.lyap_discrete by name.
from .linalg import is_psd, lyap_discrete  # noqa: F401
from .linalg import _stable_lyap, as_matrix, psd_factor, spectral_radius, symmetrize
from .trajectory import SignalDims, Trajectory


# The keys of a plant's JSON description, each a matrix field of the model.
PLANT_KEYS = ("A", "B", "C", "D", "Sigma_xi", "Sigma_eta")


@dataclass(frozen=True)
class StochasticLtiModel:
    """State-space matrices plus process/measurement noise covariances.

    The model also keeps what every rollout reads of it, made once by its
    checks: ``xi_factor`` and ``eta_factor``, the read-only square roots
    ``psd_factor(Sigma_xi)`` and ``psd_factor(Sigma_eta)``, and ``radius``,
    A's spectral radius. They are not arguments, and ``==`` and
    :meth:`to_json_dict` do not read them; ``dataclasses.replace`` makes
    them afresh.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    Sigma_xi: np.ndarray
    Sigma_eta: np.ndarray
    xi_factor: np.ndarray = field(init=False, repr=False, compare=False)
    eta_factor: np.ndarray = field(init=False, repr=False, compare=False)
    radius: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = as_matrix(self.A, "A")
        b = as_matrix(self.B, "B")
        c = as_matrix(self.C, "C")
        d = as_matrix(self.D, "D")
        sxi = symmetrize(self.Sigma_xi)
        seta = symmetrize(self.Sigma_eta)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ShapeError(f"A must be square, got {a.shape}")
        if b.shape[0] != n:
            raise ShapeError(f"B must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise ShapeError(f"C must have {n} columns, got {c.shape}")
        if d.shape != (c.shape[0], b.shape[1]):
            raise ShapeError(f"D must be {(c.shape[0], b.shape[1])}, got {d.shape}")
        if sxi.shape != (n, n):
            raise ShapeError(f"Sigma_xi must be {(n, n)}, got {sxi.shape}")
        if seta.shape != (c.shape[0], c.shape[0]):
            raise ShapeError(f"Sigma_eta must be {(c.shape[0],) * 2}, got {seta.shape}")
        # psd_factor is is_psd's test at 1e-8 and raises naming the field.
        xi_factor = psd_factor(sxi, "Sigma_xi")
        eta_factor = psd_factor(seta, "Sigma_eta")
        xi_factor.flags.writeable = eta_factor.flags.writeable = False
        for name, value in (("A", a), ("B", b), ("C", c), ("D", d),
                            ("Sigma_xi", sxi), ("Sigma_eta", seta),
                            ("xi_factor", xi_factor), ("eta_factor", eta_factor),
                            ("radius", spectral_radius(a))):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def dims(self) -> SignalDims:
        return SignalDims(m=self.m, p=self.p)

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key).tolist() for key in PLANT_KEYS}

    @classmethod
    def from_json_dict(cls, data: dict) -> "StochasticLtiModel":
        """The model of a :meth:`to_json_dict` document; :class:`ShapeError`
        naming every key it does not read, or a missing key."""
        if not isinstance(data, dict):
            raise ShapeError("plant description must be a JSON object")
        unknown = sorted(map(str, set(data) - set(PLANT_KEYS)))
        if unknown:
            raise ShapeError("unknown plant key(s): " + ", ".join(unknown))
        try:
            return cls(**{key: np.array(data[key], dtype=float) for key in PLANT_KEYS})
        except KeyError as exc:
            raise ShapeError(f"plant description missing key {exc}") from None

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)

    @classmethod
    def load_json(cls, path) -> "StochasticLtiModel":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class BlockOperators:
    """Stacked-trajectory operators for a fixed window length."""

    observability: np.ndarray  # (p*L, n)
    input_toeplitz: np.ndarray  # (p*L, m*L), D on the block diagonal
    noise_toeplitz: np.ndarray  # (p*L, n*L), input map with B=I, D=0


def build_block_operators(model: StochasticLtiModel, window: int) -> BlockOperators:
    if window < 1:
        raise ShapeError(f"window must be >= 1, got {window}")
    n, m, p = model.n, model.m, model.p
    powers = [np.eye(n)]
    for _ in range(window - 1):
        powers.append(model.A @ powers[-1])

    obs = np.vstack([model.C @ powers[i] for i in range(window)])

    t_u = np.zeros((p * window, m * window))
    t_xi = np.zeros((p * window, n * window))
    for i in range(window):
        rows = slice(i * p, (i + 1) * p)
        t_u[rows, i * m : (i + 1) * m] = model.D
        for j in range(i):
            # y_{t+i} picks up C A^{i-j-1} B u_{t+j} and C A^{i-j-1} xi_{t+j}.
            gain = model.C @ powers[i - j - 1]
            t_u[rows, j * m : (j + 1) * m] = gain @ model.B
            t_xi[rows, j * n : (j + 1) * n] = gain
    return BlockOperators(observability=obs, input_toeplitz=t_u, noise_toeplitz=t_xi)


def step(model: StochasticLtiModel, x, u, xi=None, eta=None):
    """One exact plant update; returns (x_next, y)."""
    x = np.asarray(x, dtype=float).reshape(model.n)
    u = np.asarray(u, dtype=float).reshape(model.m)
    xi = np.zeros(model.n) if xi is None else np.asarray(xi, dtype=float).reshape(model.n)
    eta = np.zeros(model.p) if eta is None else np.asarray(eta, dtype=float).reshape(model.p)
    return _advance(model, x, u, xi, eta)


def _advance(model: StochasticLtiModel, x, u, xi, eta):
    """:func:`step`'s update, (x_next, y), on float vectors of the model's
    sizes, unchecked: the closed loop calls it once per sample."""
    y = model.C @ x + model.D @ u + eta
    return model.A @ x + model.B @ u + xi, y


def gaussian_rows(rng: np.random.Generator, factor: np.ndarray, count: int) -> np.ndarray:
    """``count`` rows drawn from N(0, F F^T) for ``factor`` F, such as
    ``psd_factor(cov)``: z F^T for the next (count, k) standard normals z of
    ``rng``."""
    return rng.standard_normal((count, factor.shape[1])) @ factor.T


def _initial_state(model: StochasticLtiModel, x0, rng) -> np.ndarray:
    """The start state of a rollout: ``x0`` itself, or one draw from a
    (mean, cov) pair. Raises ``ShapeError`` naming the bad part of ``x0``."""
    n = model.n
    if not isinstance(x0, tuple):
        x = np.asarray(x0, dtype=float)
        if x.size != n:
            raise ShapeError(f"x0 must have {n} entries, got shape {x.shape}")
        return x.reshape(n)
    if len(x0) != 2:
        raise ShapeError(f"x0 must be a state or a (mean, cov) pair, got {len(x0)} items")
    mean, cov = (np.asarray(v, dtype=float) for v in x0)
    if mean.size != n:
        raise ShapeError(f"x0 mean must have {n} entries, got shape {mean.shape}")
    if cov.shape != (n, n):
        raise ShapeError(f"x0 cov must be {(n, n)}, got {cov.shape}")
    return mean.reshape(n) + psd_factor(cov, "x0 cov") @ rng.standard_normal(n)


def _state_rollout(a: np.ndarray, start: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """The (steps, n) states x_0 = start, x_{t+1} = A x_t + drive_t.

    They solve one unit lower block-bidiagonal system by forward
    substitution: block column t of the band holds I and -A below it, stored
    as ``ab[n + i - j, t n + j] = -A[i, j]`` (kd = 2n - 1, unit diagonal not
    stored). The last row of ``drive`` is not used.
    """
    n, steps = a.shape[0], drive.shape[0]
    pattern = np.zeros((2 * n, n))
    i, j = np.indices((n, n))
    pattern[n + i - j, j] = -a
    ab = np.tile(pattern.T, (steps, 1)).T  # Fortran order, as LAPACK reads it
    rhs = np.concatenate([start, drive[:-1].ravel()])[:, None]
    states, info = dtbtrs(ab, rhs, uplo="L", diag="U", overwrite_b=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal tbtrs")
    return states.reshape(steps, n)


def _input_sequence(model: StochasticLtiModel, u_policy, steps: int, rng_u) -> np.ndarray:
    """The (steps, m) input array of a rollout, for every kind of policy."""
    m = model.m
    if callable(u_policy):
        inputs = np.empty((steps, m))
        for t in range(steps):
            u = np.asarray(u_policy(t, rng_u), dtype=float)
            if u.size != m:
                raise ShapeError(f"u_policy(t={t}) must return shape {(m,)}, got {u.shape}")
            inputs[t] = u.reshape(m)
        return inputs
    if np.isscalar(u_policy):
        return float(u_policy) * rng_u.standard_normal((steps, m))
    inputs = np.asarray(u_policy, dtype=float)
    if inputs.size != steps * m:
        raise ShapeError(f"input array must be {(steps, m)}, got shape {inputs.shape}")
    return inputs.reshape(steps, m)


def simulate(model: StochasticLtiModel, x0, u_policy, steps: int, seed) -> Trajectory:
    """Seeded rollout returning the recorded (u, y) trajectory.

    ``x0`` is either an exact state vector or an (mean, covariance) pair
    sampled once at the start. ``u_policy`` is a (steps, m) array, a scalar
    standard deviation for white-noise excitation, or a callable
    ``(t, rng) -> u_t``. A callable sees only (t, rng), never the state: it
    is called once for every t = 0..steps-1, in order, before the rollout.
    Separate seeded streams drive the initial state, input, process noise,
    and measurement noise, so experiments can be replayed component-wise.

    Nothing runs per sample in Python. The states of the recursion
    x_{t+1} = A x_t + B u_t + xi_t come from one banded forward substitution
    (``_state_rollout``, 2n^2 doubles per sample), and the outputs of all
    samples are one product of those states. They match the stepwise
    recursion to rounding, not bit for bit. Raises ``ShapeError`` if the
    inputs do not have ``steps`` rows of m values, or if ``x0`` is a state or
    mean of the wrong length, or a cov of the wrong shape or not PSD.
    """
    if steps < 1:
        raise ShapeError(f"steps must be >= 1, got {steps}")
    ss = np.random.SeedSequence(seed)
    rng_x0, rng_u, rng_xi, rng_eta = [np.random.default_rng(s) for s in ss.spawn(4)]

    if model.radius >= 1.0:
        warnings.warn(
            f"plant spectral radius {model.radius:.4g} >= 1; simulation may diverge",
            stacklevel=2,
        )

    start = _initial_state(model, x0, rng_x0)
    inputs = _input_sequence(model, u_policy, steps, rng_u)
    xi_seq = gaussian_rows(rng_xi, model.xi_factor, steps)
    eta_seq = gaussian_rows(rng_eta, model.eta_factor, steps)

    states = _state_rollout(model.A, start, inputs @ model.B.T + xi_seq)
    outputs = states @ model.C.T + inputs @ model.D.T + eta_seq
    return Trajectory(dims=model.dims, samples=np.hstack([inputs, outputs]))


def stationary_state_covariance(model: StochasticLtiModel, input_cov) -> np.ndarray:
    """Stationary state covariance under white Gaussian input with per-step
    covariance ``input_cov``: solves S = A S A^T + B input_cov B^T + Sigma_xi
    by :func:`~gdpc.linalg.lyap_discrete`'s method, its stability test on
    the model's kept ``radius``."""
    qc = model.B @ symmetrize(input_cov) @ model.B.T + model.Sigma_xi
    return _stable_lyap(model.A, symmetrize(qc), model.radius)


def default_benchmark(
    process_noise_std: float = 0.02, measurement_noise_std: float = 0.05
) -> StochasticLtiModel:
    """A documented 3-state SISO benchmark: a lightly damped mode pair plus
    a slow real pole, stable, observable, and controllable."""
    a = np.array(
        [
            [0.85, 0.25, 0.0],
            [-0.20, 0.85, 0.0],
            [0.05, 0.0, 0.60],
        ]
    )
    b = np.array([[0.0], [0.5], [1.0]])
    c = np.array([[1.0, 0.0, 0.5]])
    d = np.array([[0.0]])
    return StochasticLtiModel(
        A=a,
        B=b,
        C=c,
        D=d,
        Sigma_xi=process_noise_std**2 * np.eye(3),
        Sigma_eta=np.array([[measurement_noise_std**2]]),
    )
