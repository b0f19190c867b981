"""Predictive control formulations on top of the Gaussian behavior model.

All controllers minimize the finite-horizon quadratic tracking cost
    J(u_f, y_f) = ||u_f - u_ref||_R^2 + ||y_f - y_ref||_Q^2
over the future input (and, depending on the formulation, the predicted
output mean), subject to per-stack input boxes and optional output boxes.

* ``spc``: outputs eliminated through the data-driven affine predictor.
* ``certainty_equivalence``: the expected cost under the estimated
  predictive distribution. It is spc's plan; the reported objective adds
  the constant trace term tr(Q cov).
* ``deepc``: optimization over the data-combination vector g with a
  regularizer (projected 2-norm, squared 2-norm, or 1-norm). g acts only
  through the predictor and the directions s of the fit's residual, so
  every case but the 1-norm with a positive weight solves the (u, s, y) QP
  that spc solves with an output box (:func:`_deepc_usy`), or, with the
  projected one, a positive weight and no output box, the input QP below
  with s eliminated. The 1-norm with a positive weight keeps g = g+ - g-.
* ``optimistic``: jointly picks the predicted mean inside a relative-entropy
  ball around the estimate to lower the expected cost (the regularized
  deepc problem in disguise for the projected regularizer).
* ``robust``: minimizes the dual upper bound of the worst-case expected
  cost over the same ball; convex for weights above a certified threshold.

Without an output box, spc, certainty equivalence, optimistic and robust
solve one input-space QP, min ||u - u_ref||_R^2 + ||M_u u + M_ini w_ini -
y_ref||_Z^2 over the input box, and differ only in the output weight Z: Q
for spc and certainty equivalence, else Z(kappa) = kappa Q (cov Q + kappa
I)^-1 with kappa = lam/2 for optimistic and -lam for robust, where Z(-lam)
= Q + Q (lam S - Q)^-1 Q, S the precision; so does deepc with the projected
regularizer, lambda_g > 0 and kappa = lambda_g / D (:func:`deepc`). One
linear solve gives Z(kappa) and the mean mu_hat - cov (Q cov + kappa I)^-1
Q (mu_hat - y_ref), optimistic's tethered or robust's worst-case mean
(:func:`_tethered_input_qp`). In the spectral form cov = L L^T, L^T Q L =
V diag(Lambda) V^T, W = L^-T V, Q is W diag(Lambda) W^T and Z(kappa) is
W diag(kappa Lambda / (kappa + Lambda)) W^T: optimistic <= certainty
equivalence <= robust, and robust needs lam > max Lambda. max Lambda is
the same for every square root L of cov, so robust's lambda0 takes it from
the one of cov's eigendecomposition (:func:`~gdpc.linalg.psd_factor`),
which a singular covariance has too: it needs no jitter. The jitter
reaches only optimistic with an output box, whose (u, mean) QP is in
square-root form: with T the lower Cholesky factor of cov, jittered if cov
is not PD, the tether kappa ||mean - mu_hat||^2 over cov is kappa ||J x -
T^-1 bias||^2 over x = (u, mean), J = T^-1 [-M_u I], so the QP takes one
triangular inverse and never forms the precision. ``verify`` checks Z and
both controllers against the spectral form, and that QP against its
precision form.

Per-run set-up. In a receding-horizon run only the history window w_ini
changes from one call to the next. Each controller is therefore a set-up,
everything that does not depend on w_ini, and a step that forms the
w_ini-dependent vectors and solves: the QP's linear term, or the equality
right-hand side of the (u, s, y) QP (with sq2 also the linear term) and of
deepc's 1-norm QP. The set-up holds the output weight Z, M_u^T Z and the
QP with its bounds, PSD proof and Cholesky factor; for certainty
equivalence also tr(Q cov); for optimistic and robust the map to the mean,
or with optimistic's output box T^-1 and J, from which a step forms T^-1
bias, the linear term and the tether; for deepc the maps to the mean and
to the vector v with g = W^T v (no LQ basis Q). deepc reads the LQ factor
L, the predictor and L_F^+ from the data matrix, which keeps them from
identification's :func:`~gdpc.behavior.predictive_model` call (or makes
them at deepc's first set-up), so a closed-loop run factors its data once.
A set-up proves only what its construction does not already give. Z(kappa)
takes one LAPACK gesv of Q cov with kappa added to its diagonal in place,
and is (kappa gain + (kappa gain)^T) / 2; the input QP's P is H + H^T for
the half-Hessian H = R + (M_u^T Z) M_u, exactly symmetric. Every QP is
built by :func:`_input_qp` or, over (v, u, y), :func:`_tracking_qp`, from
such parts and ControlProblem's read-only bounds by
``QpProblem._of_parts`` (see :mod:`gdpc.qp`), which keeps the finiteness
scan of P and q and P's potrf proof and factor, but neither copies nor
symmetrizes nor re-checks the bounds.
The equality-constrained QPs go to :func:`~gdpc.qp.solve`'s exact dual
active-set method when their KKT matrix is nonsingular, and to ADMM
otherwise; the KKT factorization is made by the first solve and shared by
the later ones (:meth:`QpProblem.updated`), while ADMM sets up afresh at
every solve. Each controller keeps its last set-up, keyed by the identity
of the model (``pm`` or ``dm``) and of ``cp``, both held so that their ids
cannot be reused, and by the equality of the parameters the set-up reads:
lam (and, with an output box, optimistic's jitter), or deepc's
regularizer, lambda_g and rank_tol. The QP settings reach only the solve.
The arrays of PredictiveModel, DataMatrix and ControlProblem are
read-only, so an in-place write raises instead of leaving a stale set-up;
a different model is a different object. A step evaluates the expressions of a one-shot call
with the constant parts computed once ((M_u^T Z) v is what M_u^T Z v
evaluates), so its results are bit for bit those of a fresh set-up.

A step checks what depends on its call, w_ini's length and finiteness and
the QP's new vector, and validates nothing that the set-up has: its QP is
the set-up's with the new vector checked, and every step's predictive
distribution shares the model's covariance, which PredictiveModel has made
read-only, symmetric and finite, without checking it again
(``ConditionalGaussian._of_model``). The result is built from those
checked parts without the dataclass ``__init__``
(``ControlResult._of_parts``), as the solver's is; certainty equivalence
takes spc's result with only the objective replaced, and the steps that
hold the deviations u - u_ref and y - y_ref form the tracking cost from
them (``ControlProblem._deviation_cost``): spc's, optimistic's with an
output box and deepc's (u, s, y) and 1-norm steps.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv, dtrtri

from .behavior import (
    ConditionalGaussian,
    PredictiveModel,
    _kept_predictor,
    data_lq,
    jittered_cholesky,
    predictive_model,
)
from .errors import InfeasibleProblem, LambdaTooSmall, NotPositiveDefinite, ShapeError
# Not called here; benchmarks/tracing.py wraps control.chol_psd and
# control.pinv by name.
from .linalg import chol_psd, pinv  # noqa: F401
from .linalg import (
    DEFAULT_RANK_TOL,
    is_psd,
    psd_factor,
    read_only,
    sym_eig,
    sym_eigenvalues,
    symmetrize,
)
from .qp import QpProblem, QpSettings, QpSolution, solve
from .trajectory import DataMatrix, SignalDims

REGULARIZERS = ("proj2", "sq2", "l1")

DEFAULT_JITTER = 1e-9

# The set-ups' constructor, bound here: benchmarks/tracing.py rebinds
# control.QpProblem to a plain function, through which it is not reachable.
_qp_of_parts = QpProblem._of_parts


@dataclass(frozen=True)
class ControlProblem:
    """Horizons, stacked weights, references, and constraint boxes.

    ``Q`` weighs the stacked future output (PSD), ``R`` the stacked future
    input (PD). Q passes when lambda_min >= -1e-10 max(1, |lambda_max|)
    (``is_psd``) and R when lambda_min > 0, both with the eigenvalues of
    ``sym_eigenvalues``: a diagonal weight, such as every one
    :meth:`from_step_weights` builds, is decided from its diagonal, which
    holds its eigenvalues, any other by ``eigvalsh``. Horizons must be >= 1.
    References and boxes are full-stack vectors; references must be finite,
    and box entries may be +-inf but not NaN. The arrays are read-only
    copies (see the module docstring).
    """

    dims: SignalDims
    l_ini: int
    l_f: int
    Q: np.ndarray
    R: np.ndarray
    u_ref: np.ndarray
    y_ref: np.ndarray
    u_lower: np.ndarray | None = None
    u_upper: np.ndarray | None = None
    y_lower: np.ndarray | None = None
    y_upper: np.ndarray | None = None

    def __post_init__(self):
        if self.l_ini < 1 or self.l_f < 1:
            raise ShapeError(f"horizons must be >= 1, got L_ini={self.l_ini}, L_f={self.l_f}")
        nu, ny = self.dims.m * self.l_f, self.dims.p * self.l_f
        qw = symmetrize(self.Q)
        rw = symmetrize(self.R)
        if qw.shape != (ny, ny):
            raise ShapeError(f"Q must be {(ny, ny)}, got {qw.shape}")
        if rw.shape != (nu, nu):
            raise ShapeError(f"R must be {(nu, nu)}, got {rw.shape}")
        if not is_psd(qw, 1e-10):
            raise ShapeError("Q must be positive semidefinite")
        if sym_eigenvalues(rw)[0] <= 0.0:
            raise ShapeError("R must be positive definite")
        u_ref = np.asarray(self.u_ref, dtype=float).reshape(-1)
        y_ref = np.asarray(self.y_ref, dtype=float).reshape(-1)
        if u_ref.shape != (nu,) or y_ref.shape != (ny,):
            raise ShapeError(
                f"references must have lengths {nu}/{ny}, got {u_ref.shape}/{y_ref.shape}"
            )
        for name, ref in (("u_ref", u_ref), ("y_ref", y_ref)):
            if not np.isfinite(ref).all():
                raise ShapeError(f"{name} contains non-finite entries")

        def box(name, size, default):
            value = getattr(self, name)
            if value is None:
                return np.full(size, default)
            arr = np.asarray(value, dtype=float).reshape(-1)
            if arr.shape != (size,):
                raise ShapeError(f"{name} must have length {size}, got {arr.shape}")
            if np.isnan(arr).any():
                raise ShapeError(f"{name} contains NaN")
            return arr

        u_lower = box("u_lower", nu, -np.inf)
        u_upper = box("u_upper", nu, np.inf)
        if np.any(u_lower > u_upper):
            raise ShapeError("u_lower exceeds u_upper")
        has_y_box = self.y_lower is not None or self.y_upper is not None
        y_lower = box("y_lower", ny, -np.inf) if has_y_box else None
        y_upper = box("y_upper", ny, np.inf) if has_y_box else None
        if has_y_box and np.any(y_lower > y_upper):
            raise ShapeError("y_lower exceeds y_upper")
        for name, value in (
            ("Q", qw), ("R", rw), ("u_ref", u_ref), ("y_ref", y_ref),
            ("u_lower", u_lower), ("u_upper", u_upper),
            ("y_lower", y_lower), ("y_upper", y_upper),
        ):
            object.__setattr__(self, name, None if value is None else read_only(value))

    @property
    def n_u(self) -> int:
        return self.dims.m * self.l_f

    @property
    def n_y(self) -> int:
        return self.dims.p * self.l_f

    @property
    def has_output_box(self) -> bool:
        return self.y_lower is not None

    @classmethod
    def from_step_weights(
        cls, dims: SignalDims, l_ini: int, l_f: int,
        q_diag=1.0, r_diag=0.1, u_ref=0.0, y_ref=0.0,
        u_min=None, u_max=None, y_min=None, y_max=None,
    ) -> "ControlProblem":
        """Build stacked weights/references from per-channel step values."""

        def per_step(value, channels, steps, default=None):
            if value is None:
                return None if default is None else np.full(channels * steps, default)
            arr = np.atleast_1d(np.asarray(value, dtype=float))
            if arr.size == 1:
                arr = np.full(channels, float(arr[0]))
            if arr.shape != (channels,):
                raise ShapeError(f"per-channel value must have {channels} entries")
            return np.tile(arr, steps)

        return cls(
            dims=dims, l_ini=l_ini, l_f=l_f,
            Q=np.diag(per_step(q_diag, dims.p, l_f)),
            R=np.diag(per_step(r_diag, dims.m, l_f)),
            u_ref=per_step(u_ref, dims.m, l_f),
            y_ref=per_step(y_ref, dims.p, l_f),
            u_lower=per_step(u_min, dims.m, l_f),
            u_upper=per_step(u_max, dims.m, l_f),
            y_lower=per_step(y_min, dims.p, l_f),
            y_upper=per_step(y_max, dims.p, l_f),
        )

    def tracking_cost(self, u_f, y_f) -> float:
        return self._deviation_cost(np.asarray(u_f, dtype=float).reshape(-1) - self.u_ref,
                                    np.asarray(y_f, dtype=float).reshape(-1) - self.y_ref)

    def _deviation_cost(self, du, dy) -> float:
        """||du||_R^2 + ||dy||_Q^2 for the 1-D float deviations du = u_f -
        u_ref and dy = y_f - y_ref: :meth:`tracking_cost` without its
        conversions, for a controller that holds them."""
        return float(du @ self.R @ du + dy @ self.Q @ dy)


@dataclass(frozen=True)
class ControlResult:
    u_f: np.ndarray
    y_pred: ConditionalGaussian
    objective: float
    solver: QpSolution
    lambda_effective: float
    g: np.ndarray | None = None

    @classmethod
    def _of_parts(cls, u_f, y_pred, objective, solver, lambda_effective,
                  g=None) -> "ControlResult":
        """The result of parts a controller has formed from checked inputs,
        built without the dataclass ``__init__`` (module docstring); the
        object is as frozen as one built by it."""
        new = object.__new__(cls)
        new.__dict__.update(u_f=u_f, y_pred=y_pred, objective=objective, solver=solver,
                            lambda_effective=lambda_effective, g=g)
        return new


@dataclass(frozen=True)
class HessianReport:
    matrix: np.ndarray
    psd: bool


def _check_w_ini(w_ini, size: int) -> np.ndarray:
    """``w_ini`` as a 1-D float vector; raises :class:`ShapeError` unless it
    has length ``size`` and finite entries."""
    w = np.asarray(w_ini, dtype=float).reshape(-1)
    if w.shape[0] != size:
        raise ShapeError(f"w_ini must have length {size}, got {w.shape[0]}")
    if not np.isfinite(w).all():
        raise ShapeError("w_ini contains non-finite entries")
    return w


def _run_qp(prob: QpProblem, settings: QpSettings | None) -> QpSolution:
    sol = solve(prob) if settings is None else solve(prob, settings)
    if sol.status == "infeasible":
        raise InfeasibleProblem("controller QP certified infeasible")
    return sol


# The last set-up of each controller: name -> (model, cp, params, step).
_SETUPS: dict[str, tuple] = {}


def _prepared(name: str, model, cp: ControlProblem, params: tuple, build):
    """The set-up of controller ``name`` (a step function, or for certainty
    equivalence its trace term): the kept one if the last set-up of that
    controller was for this ``model`` and ``cp`` object and equal
    ``params``, else ``build()``, which then takes its place."""
    kept = _SETUPS.get(name)
    if kept is None or kept[0] is not model or kept[1] is not cp or kept[2] != params:
        kept = (model, cp, params, build())
        _SETUPS[name] = kept
    return kept[3]


def _check_sizes(pm: PredictiveModel, cp: ControlProblem) -> None:
    """:class:`ShapeError` unless M_u is (n_y, n_u); a set-up checks it once."""
    if pm.M_u.shape != (cp.n_y, cp.n_u):
        raise ShapeError(f"predictive model and control problem disagree on sizes: M_u is "
                         f"{pm.M_u.shape}, (n_y, n_u) is {(cp.n_y, cp.n_u)}")


def _lambda0(pm: PredictiveModel, cp: ControlProblem) -> float:
    """max Lambda (1 + 1e-6), Lambda the eigenvalues of F^T Q F with F F^T
    the covariance (module docstring), after :func:`_check_sizes`."""
    _check_sizes(pm, cp)
    root = psd_factor(pm.cov)
    return float(np.max(sym_eig(root.T @ cp.Q @ root).values, initial=0.0)) * (1.0 + 1e-6)


def _tethered_weight(pm: PredictiveModel, cp: ControlProblem, kappa: float):
    """(gain, Z(kappa)) with gain = (Q cov + kappa I)^-1 Q and Z(kappa) =
    kappa gain, symmetrized (module docstring); Q cov + kappa I is
    invertible for kappa > 0 and for kappa = -lam with lam > max Lambda.
    One LAPACK gesv, which raises :class:`numpy.linalg.LinAlgError` where
    its LU factor is exactly singular, as ``np.linalg.solve`` does."""
    a = cp.Q @ pm.cov
    a.flat[:: cp.n_y + 1] += kappa
    _, _, gain, info = dgesv(a, cp.Q, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    # C order, as np.linalg.solve returns it: a step's gain @ dev has its bits.
    gain = np.ascontiguousarray(gain)
    kappa_gain = kappa * gain
    return gain, 0.5 * (kappa_gain + kappa_gain.T)


def _half_hessian(pm: PredictiveModel, cp: ControlProblem, z):
    """(M_u^T Z, H), H = R + (M_u^T Z) M_u the input QP's half-Hessian."""
    m_u_t_z = pm.M_u.T @ z
    return m_u_t_z, cp.R + m_u_t_z @ pm.M_u


def _input_qp(pm: PredictiveModel, cp: ControlProblem, z):
    """Set-up of min ||u - u_ref||_R^2 + ||M_u u + bias - y_ref||_Z^2 over
    the input box, the QP of every controller without an output box but for
    deepc's other forms (module docstring). Returns its step, (bias,
    settings) -> solution, which forms only the linear term
    2 (M_u^T Z (bias - y_ref) - R u_ref). P = 2 H is H + H^T for the
    half-Hessian H (:func:`_half_hessian`), exactly symmetric and bit for
    bit 2 symmetrize(H)."""
    m_u_t_z, half = _half_hessian(pm, cp, z)
    r_u_ref = cp.R @ cp.u_ref
    template = _qp_of_parts(P=half + half.T, q=np.zeros(cp.n_u),
                            lower=cp.u_lower, upper=cp.u_upper)

    def step(bias, settings):
        lin = m_u_t_z @ (bias - cp.y_ref) - r_u_ref
        return _run_qp(template.updated(q=2.0 * lin), settings)

    return step


def _tethered_input_qp(pm: PredictiveModel, cp: ControlProblem, kappa: float):
    """Set-up of the input QP with the weight Z(kappa) (module docstring),
    shared by optimistic, robust and deepc's eliminated form. Its step maps
    (bias, settings) to (u, mean, objective, solution, t): t = gain e with
    e = mu_hat - y_ref, the mean mu_hat - cov t and the eliminated objective
    ||e||_Z^2 + ||u - u_ref||_R^2."""
    gain, z = _tethered_weight(pm, cp, kappa)
    input_qp = _input_qp(pm, cp, z)

    def step(bias, settings):
        sol = input_qp(bias, settings)
        u = sol.x
        mu_hat = pm.M_u @ u + bias
        dev = mu_hat - cp.y_ref
        t = gain @ dev
        du = u - cp.u_ref
        return u, mu_hat - pm.cov @ t, float(dev @ z @ dev + du @ cp.R @ du), sol, t

    return step


def _tracking_qp(cp: ControlProblem, head, a_eq=None, u_weight=None, v_cost=0.0,
                 v_lower=-np.inf, added=None) -> QpProblem:
    """The QP over x = (v, u, y): min 0.5 v^T head v + v_cost sum(v) + 0.5
    x^T added x + ||u - u_ref||_R^2 + ||y - y_ref||_Q^2 subject to any
    A_eq x = b_eq, b_eq zero for a step to replace, v >= v_lower, the input
    box on u and the output box, if any, on y; P is ``added``, written in
    place, plus the blocks. spc's with an output box has no v; deepc's v is
    s (:func:`_deepc_usy`, whose ``u_weight`` replaces R in the u block for
    sq2) or, for l1, (g+, g-) (:func:`_deepc_l1`); optimistic's adds its
    tether and has no A_eq (:func:`_optimistic_setup`)."""
    k, nu, ny = head.shape[0], cp.n_u, cp.n_y
    p_mat = np.zeros((k + nu + ny,) * 2) if added is None else added
    p_mat[:k, :k] += head
    p_mat[k : k + nu, k : k + nu] += 2.0 * (cp.R if u_weight is None else u_weight)
    p_mat[k + nu :, k + nu :] += 2.0 * cp.Q
    q_vec = np.concatenate([np.full(k, v_cost), -2.0 * cp.R @ cp.u_ref,
                            -2.0 * cp.Q @ cp.y_ref])
    y_lower = cp.y_lower if cp.has_output_box else np.full(ny, -np.inf)
    y_upper = cp.y_upper if cp.has_output_box else np.full(ny, np.inf)
    return _qp_of_parts(P=p_mat, q=q_vec, A_eq=a_eq,
                        b_eq=None if a_eq is None else np.zeros(a_eq.shape[0]),
                        lower=np.concatenate([np.full(k, v_lower), cp.u_lower, y_lower]),
                        upper=np.concatenate([np.full(k, np.inf), cp.u_upper, y_upper]))


def _spc_setup(pm: PredictiveModel, cp: ControlProblem):
    """spc's set-up; its step maps (bias, settings) to the solution, whose
    first n_u entries are the input."""
    _check_sizes(pm, cp)
    if not cp.has_output_box:
        return _input_qp(pm, cp, cp.Q)
    template = _tracking_qp(cp, np.zeros((0, 0)), np.hstack([-pm.M_u, np.eye(cp.n_y)]))
    return lambda bias, settings: _run_qp(template.updated(b_eq=bias), settings)


def spc(
    pm: PredictiveModel, w_ini, cp: ControlProblem, settings: QpSettings | None = None
) -> ControlResult:
    """Deterministic predictor-based control (outputs eliminated unless an
    output box forces them to stay as constrained variables)."""
    bias = pm.M_ini @ _check_w_ini(w_ini, pm.M_ini.shape[1])
    sol = _prepared("spc", pm, cp, (), lambda: _spc_setup(pm, cp))(bias, settings)
    u = sol.x[: cp.n_u]
    y_mean = pm.M_u @ u + bias
    return ControlResult._of_parts(
        u, ConditionalGaussian._of_model(y_mean, pm.cov),
        cp._deviation_cost(u - cp.u_ref, y_mean - cp.y_ref), sol, math.inf)


# spc as defined here, for certainty_equivalence: a caller that rebinds the
# public names to time or trace them (benchmarks/) then sees one controller
# call per ce solve, not a nested spc call.
_spc = spc


def certainty_equivalence(
    pm: PredictiveModel, w_ini, cp: ControlProblem, settings: QpSettings | None = None
) -> ControlResult:
    """Minimize the expected cost under the estimated predictive
    distribution.

    E||y - y_ref||_Q^2 = ||mean - y_ref||_Q^2 + tr(Q cov), and the trace term
    does not depend on the input, so the minimizer is spc's (Z = Q in the
    module docstring's terms) and the reported objective adds tr(Q cov).
    ``verify`` checks this against the constrained (u, mean) QP solved
    directly.
    """
    res = _spc(pm, w_ini, cp, settings)  # first: spc's set-up checks the sizes
    trace = _prepared("certainty_equivalence", pm, cp, (),
                      lambda: float(np.trace(cp.Q @ pm.cov)))
    return ControlResult._of_parts(res.u_f, res.y_pred, res.objective + trace, res.solver,
                                   res.lambda_effective)


def _deepc_setup(dm: DataMatrix, cp: ControlProblem, regularizer: str, lambda_g: float,
                 rank_tol: float):
    """deepc's set-up; its step maps (w_ini, settings) to (u, mean, cov,
    objective, solution, g). l1 with lambda_g > 0 solves the raw (g, u, y)
    QP (:func:`_deepc_l1`); proj2 with lambda_g > 0 and no output box
    eliminates s and solves the input QP (:func:`_deepc_eliminated`); every
    other case solves the (u, s, y) QP (:func:`_deepc_usy`)."""
    if lambda_g > 0.0 and regularizer == "l1":
        return _deepc_l1(dm, cp, lambda_g, rank_tol)
    if lambda_g > 0.0 and regularizer == "proj2" and not cp.has_output_box:
        return _deepc_eliminated(dm, cp, lambda_g, rank_tol)
    return _deepc_usy(dm, cp, regularizer, lambda_g, rank_tol)


def _deepc_residual(dm: DataMatrix, rank_tol: float):
    """What deepc's 2-norm forms share (see :func:`deepc`): the data's LQ
    factor L (:func:`data_lq`), the predictor, L_F^+, coeff = L_Y L_F^+ and
    the fit's residual G = L_Y - coeff L_F, L_F and L_Y the free and output
    rows of L. L, the predictor and L_F^+ are the ones ``dm`` keeps from
    identification (:func:`~gdpc.behavior.predictive_model`)."""
    l_fac = data_lq(dm)
    pm, free_pinv = _kept_predictor(dm, rank_tol)
    n_free = free_pinv.shape[1]
    l_free, l_out = l_fac[:n_free], l_fac[n_free:]
    coeff = l_out @ free_pinv
    return l_fac, pm, free_pinv, coeff, l_out - coeff @ l_free


def _combination(dm: DataMatrix, free_pinv, coeff, z_map):
    """A deepc step's map (x, s) -> g = Q (L_F^+ x + G^T z_map s) for
    x = [w_ini; u], without Q: it is W^T [(L_F^+)^T L_F^+ x - coeff^T z; z]
    for z = z_map s, since Q L_F^+ x = F^T (L_F^+)^T L_F^+ x (L_F^+ L_F is
    the symmetric projector onto the range of L_F^+, also for a truncated
    L_F^+) and Q G^T z = Y_f^T z - F^T coeff^T z. The two maps to that
    vector have their rows in the order of ``dm.matrix``, so W^T is
    ``dm.matrix.T``."""
    to_x = np.zeros((dm.matrix.shape[0], free_pinv.shape[1]))
    to_x[dm.free_rows] = free_pinv.T @ free_pinv
    to_s = np.empty((dm.matrix.shape[0], z_map.shape[1]))
    to_s[dm.free_rows] = -coeff.T @ z_map
    to_s[dm.dependent_rows] = z_map
    return lambda x, s: dm.matrix.T @ (to_x @ x + to_s @ s)


def _deepc_eliminated(dm: DataMatrix, cp: ControlProblem, lambda_g: float, rank_tol: float):
    """deepc with proj2, lambda_g > 0 and no output box, as the input QP
    with the weight Z(kappa), kappa = lambda_g / D (:func:`_tethered_input_qp`;
    see :func:`deepc`). Its step forms the combination vector from
    alpha = L_F^+ [w_ini; u] - G^T t / D (:func:`_combination`, z = -t / D)."""
    _, pm, free_pinv, coeff, _ = _deepc_residual(dm, rank_tol)
    d = dm.n_columns
    input_qp = _tethered_input_qp(pm, cp, lambda_g / d)
    combination = _combination(dm, free_pinv, coeff, np.eye(cp.n_y) / -d)

    def step(w, settings):
        u, mean, objective, sol, t = input_qp(pm.M_ini @ w, settings)
        return u, mean, pm.cov, objective, sol, combination(np.concatenate([w, u]), t)

    return step


def _deepc_usy(dm: DataMatrix, cp: ControlProblem, regularizer: str, lambda_g: float,
               rank_tol: float):
    """deepc as the QP over (u, s, y) (see :func:`deepc`), x = (s, u, y) in
    :func:`_tracking_qp`. G_r and V_r = G^T U_r Sigma_r^-1 (for
    :func:`_combination`) come from the SVD of the residual G cut at
    ``rank_tol`` max |L|; cut relative to G itself, it would keep noiseless
    data's rounding noise. sq2 adds lambda_g P_u^T P_u to the u block and
    2 lambda_g P_u^T P_w w_ini to its linear term, [P_w P_u] = L_F^+."""
    l_fac, pm, free_pinv, coeff, resid = _deepc_residual(dm, rank_tol)
    left, sing, _ = np.linalg.svd(resid, full_matrices=False)
    r = int(np.count_nonzero(sing > rank_tol * np.max(np.abs(l_fac))))
    nu, n_ini = cp.n_u, dm.dims.q * dm.l_ini
    sq2 = regularizer == "sq2" and lambda_g > 0.0
    p_w, p_u = free_pinv[:, :n_ini], free_pinv[:, n_ini:]
    template = _tracking_qp(
        cp, 2.0 * lambda_g * np.eye(r), np.hstack([-left[:, :r] * sing[:r], -pm.M_u,
                                                   np.eye(cp.n_y)]),
        u_weight=symmetrize(cp.R + lambda_g * p_u.T @ p_u) if sq2 else None)
    q_map = np.zeros((template.n, n_ini))
    q_map[r : r + nu] = 2.0 * lambda_g * p_u.T @ p_w
    combination = _combination(dm, free_pinv, coeff, left[:, :r] / sing[:r])

    def step(w, settings):
        prob = template.updated(b_eq=pm.M_ini @ w)
        if sq2:
            prob = prob.updated(q=template.q + q_map @ w)
        sol = _run_qp(prob, settings)
        s, u, y = sol.x[:r], sol.x[r : r + nu], sol.x[r + nu :]
        x = np.concatenate([w, u])
        fit = free_pinv @ x  # L_F^+ [w_ini; u]
        objective = (cp._deviation_cost(u - cp.u_ref, y - cp.y_ref)
                     + lambda_g * float(s @ s + (fit @ fit if sq2 else 0.0)))
        return u, y, pm.cov, objective, sol, combination(x, s)  # Q (L_F^+ x + V_r s)

    return step


def _deepc_l1(dm: DataMatrix, cp: ControlProblem, lambda_g: float, rank_tol: float):
    """deepc with l1 and lambda_g > 0 (see :func:`deepc`): the QP over
    x = (g+, g-, u, y) (:func:`_tracking_qp`) with the raw D-column
    g = g+ - g-, g+, g- >= 0 at the linear cost lambda_g on every entry, and
    the equality rows W (g+ - g-) = [w_ini; u; y]. At a minimizer no entry
    is positive in both halves (lowering both by the smaller keeps the rows
    and lowers the cost), so the cost is lambda_g ||g||_1."""
    pm = predictive_model(dm, rank_tol)
    d, n_ini, nuy = dm.n_columns, dm.dims.q * dm.l_ini, cp.n_u + cp.n_y
    a_eq = np.hstack([dm.ordered, -dm.ordered, -np.eye(n_ini + nuy, nuy, -n_ini)])
    template = _tracking_qp(cp, np.zeros((2 * d, 2 * d)), a_eq, v_cost=lambda_g, v_lower=0.0)
    b_tail = np.zeros(nuy)  # b_eq is [w_ini; 0]

    def step(w, settings):
        sol = _run_qp(template.updated(b_eq=np.concatenate([w, b_tail])), settings)
        g = sol.x[:d] - sol.x[d : 2 * d]
        u, y = sol.x[2 * d : 2 * d + cp.n_u], sol.x[2 * d + cp.n_u :]
        objective = (cp._deviation_cost(u - cp.u_ref, y - cp.y_ref)
                     + lambda_g * float(np.abs(g).sum()))
        return u, y, pm.cov, objective, sol, g

    return step


def deepc(
    dm: DataMatrix,
    w_ini,
    cp: ControlProblem,
    regularizer: str = "proj2",
    lambda_g: float = 0.0,
    settings: QpSettings | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> ControlResult:
    """Data-combination control: decision variables (g, u_f, y_f) tied to
    the data matrix through [w_ini; u_f; y_f] = W g, W = [W_p; U_f; Y_f].
    ``proj2`` penalizes lambda_g ||g_perp||^2, g_perp the component of g off
    the row space of F = [W_p; U_f]; ``sq2`` lambda_g ||g||^2; ``l1``
    lambda_g ||g||_1.

    With W = L Q^T (:func:`data_lq`), L_F and L_Y the free and output rows
    of L, the 2-norms make g = Q alpha, and alpha = L_F^+ [w_ini; u] + beta
    with L_F beta = 0, so y = mu_hat(u) + G beta, mu_hat the predictor's
    mean and G = L_Y - (L_Y L_F^+) L_F the fit's residual (G G^T = D cov).
    proj2's penalty is lambda_g ||beta||^2; sq2 adds the orthogonal
    lambda_g ||L_F^+ [w_ini; u]||^2. Only beta's part in the row space of G
    moves y, so beta = V_r s and y = mu_hat + G_r s, with the SVD of G cut
    at ``rank_tol`` max |L| (:func:`_deepc_usy`): a QP over (u, s, y)
    whatever D is, and on noiseless data (r = 0) spc's (u, y) QP. It reports
    g = Q (L_F^+ [w_ini; u] + V_r s), the minimum-norm g of its
    (w_ini, u, y), formed as W^T v without Q (:func:`_combination`), and
    the tracking cost plus lambda_g ||s||^2 (plus sq2's term). With
    ``lambda_g`` = 0 every regularizer solves it. w_ini enters only through
    the predictor: a window off the data's subspace is fitted by least
    squares, not rejected.

    proj2 with ``lambda_g`` > 0 and no output box eliminates s in closed
    form, the paper's result that regularized DeePC is distributionally
    optimistic: with kappa = lambda_g / D and e = mu_hat(u) - y_ref,
    minimizing over beta leaves ||e||_Z^2, Z = kappa Q (cov Q + kappa I)^-1,
    the input QP of the module docstring, at beta = -G^T t / D with
    t = (Q cov + kappa I)^-1 Q e, and y = mu_hat - cov t. cov Q + kappa I is
    invertible for every PSD cov and Q, so noiseless data are exact with no
    jitter. The reported objective is ||e||_Z^2 + ||u - u_ref||_R^2.

    ``l1`` with ``lambda_g`` > 0 keeps the raw D-column g = g+ - g-, since
    the 1-norm is not rotation-invariant (:func:`_deepc_l1`). g has length
    D in every case, and the covariance is the predictive one from the same
    L. ``rank_tol`` truncates L_F^+, whose dropped directions join G.
    ``verify`` checks the 2-norms against a joint QP in the data's row-space
    coordinates and l1 against its epigraph form and optimality conditions.
    Everything but w_ini is set up once per (dm, cp, regularizer, lambda_g,
    rank_tol); see the module docstring.
    """
    if regularizer not in REGULARIZERS:
        raise ValueError(f"regularizer must be one of {REGULARIZERS}, got {regularizer!r}")
    if not (math.isfinite(lambda_g) and lambda_g >= 0.0):
        raise ValueError(f"lambda_g must be finite and nonnegative, got {lambda_g}")
    w = _check_w_ini(w_ini, dm.dims.q * dm.l_ini)
    if cp.dims != dm.dims or cp.l_ini != dm.l_ini or cp.l_f != dm.l_f:
        raise ShapeError("control problem and data matrix disagree on dims/horizons")

    step = _prepared("deepc", dm, cp, (regularizer, lambda_g, rank_tol),
                     lambda: _deepc_setup(dm, cp, regularizer, lambda_g, rank_tol))
    u, y_mean, cov, objective, sol, g = step(w, settings)
    return ControlResult._of_parts(u, ConditionalGaussian._of_model(y_mean, cov), objective, sol,
                                   lambda_g, g)


def _optimistic_setup(pm: PredictiveModel, cp: ControlProblem, lam: float, jitter: float):
    """optimistic's set-up; its step maps (bias, settings) to (u, mean,
    objective, solution), and without an output box also t
    (:func:`_tethered_input_qp`). With an output box, the (u, mean) QP in
    square-root form: with T the lower Cholesky factor of the covariance,
    jittered if it is not PD (:func:`~gdpc.behavior.jittered_cholesky`),
    J = T^-1 [-M_u I] and v = T^-1 bias, the tether is kappa ||J x - v||^2
    over x = (u, mean), so P = 2 blockdiag(R, Q) + 2 kappa J^T J and
    q = -2 kappa J^T v - 2 [R u_ref; Q y_ref], :func:`_tracking_qp`'s."""
    _check_sizes(pm, cp)
    kappa = 0.5 * lam
    if not cp.has_output_box:
        return _tethered_input_qp(pm, cp, kappa)

    inv_t, info = dtrtri(jittered_cholesky(pm.cov, jitter), lower=1)
    if info != 0:
        raise NotPositiveDefinite(f"the covariance's Cholesky factor is singular "
                                  f"(dtrtri info {info})")
    j_mat = np.hstack([-(inv_t @ pm.M_u), inv_t])
    template = _tracking_qp(cp, np.zeros((0, 0)),  # J^T J is exactly symmetric
                            added=(2.0 * kappa) * (j_mat.T @ j_mat))
    tether = (-2.0 * kappa) * j_mat.T

    def step(bias, settings):
        v = inv_t @ bias
        sol = _run_qp(template.updated(q=template.q + tether @ v), settings)
        u, mu = sol.x[: cp.n_u], sol.x[cp.n_u :]
        resid = j_mat @ sol.x - v
        objective = cp._deviation_cost(u - cp.u_ref, mu - cp.y_ref) + kappa * float(resid @ resid)
        return u, mu, objective, sol

    return step


def optimistic(
    pm: PredictiveModel,
    w_ini,
    cp: ControlProblem,
    lam: float,
    settings: QpSettings | None = None,
    jitter: float = DEFAULT_JITTER,
) -> ControlResult:
    """Jointly optimize the input and the predicted output mean, with the
    mean tethered to the estimate by lam/2 times its precision-weighted
    squared distance (the mean term of the relative entropy). Without an
    output box the mean is eliminated: the input QP with the weight Z(kappa),
    kappa = lam/2, and the mean mu_hat - cov (Q cov + kappa I)^-1 Q (mu_hat
    - y_ref) (module docstring), which needs no precision, so a singular
    covariance needs no jitter. The reported objective is then the
    eliminated value ||mu_hat - y_ref||_Z^2 + ||u - u_ref||_R^2, which,
    unlike the tether term, does not multiply a rounding-level difference
    by the precision. With an output box the (u, mean) QP is in
    square-root form, built from the inverse of the covariance's Cholesky
    factor, jittered by ``jitter`` if the covariance is not PD
    (:func:`~gdpc.behavior.jittered_cholesky`); with ``jitter`` 0 a singular
    covariance raises :class:`NotPositiveDefinite` there."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    if not (math.isfinite(jitter) and jitter >= 0.0):
        raise ValueError(f"jitter must be finite and nonnegative, got {jitter}")
    bias = pm.M_ini @ _check_w_ini(w_ini, pm.M_ini.shape[1])
    # Only the output box's set-up reads the jitter.
    params = (lam, jitter) if cp.has_output_box else (lam,)
    step = _prepared("optimistic", pm, cp, params,
                     lambda: _optimistic_setup(pm, cp, lam, jitter))
    u, mu, objective, sol, *_ = step(bias, settings)
    return ControlResult._of_parts(u, ConditionalGaussian._of_model(mu, pm.cov), objective, sol,
                                   lam)


def hessian(pm: PredictiveModel, cp: ControlProblem, lam: float) -> HessianReport:
    """Input-space cost Hessian of the robust dual objective.

    H = R + M_u^T Z M_u with Z = Q + Q (lam*S - Q)^-1 Q, S = cov^-1, formed
    as the weight Z(-lam) = lam Q (lam I - cov Q)^-1 of the module
    docstring. Exact for every lam at which lam I - cov Q is invertible;
    where a solve finds it singular it raises :class:`LambdaTooSmall`.
    """
    _check_sizes(pm, cp)
    try:
        z = _tethered_weight(pm, cp, -lam)[1]
    except np.linalg.LinAlgError:
        raise LambdaTooSmall(f"lam*precision - Q is singular at lam={lam:g}",
                             lambda0=lam) from None
    h = symmetrize(_half_hessian(pm, cp, z)[1])
    return HessianReport(matrix=h, psd=is_psd(h, 1e-10))


def lambda_threshold(pm: PredictiveModel, cp: ControlProblem) -> float:
    """lambda0, the certified weight threshold of the robust controller.

    lambda0 is the smallest weight making lam*cov^-1 - Q positive
    definite, max Lambda (module docstring) inflated by 1e-6. It is exact
    for a singular covariance too: max Lambda is the largest eigenvalue of
    F^T Q F for any F with F F^T = cov, and no jitter enters. The
    input-space Hessian is PSD from lambda0 on: for lam > max Lambda,
    lam Lambda / (lam - Lambda) >= Lambda, so Z >= Q >= 0 and
    H = R + M_u^T Z M_u >= R > 0. ``verify`` samples lambda_min(H - R) >= 0
    as an independent check.
    """
    return _lambda0(pm, cp)


def _robust_setup(pm: PredictiveModel, cp: ControlProblem, lam: float):
    """robust's set-up; raises :class:`LambdaTooSmall` below lambda0. Its
    step maps (bias, settings) to (u, worst-case mean, objective,
    solution)."""
    lambda0 = _lambda0(pm, cp)
    if lam < lambda0 or lam <= 0.0:
        raise LambdaTooSmall(f"lam={lam:g} below certified lambda0={lambda0:g}",
                             lambda0=lambda0)
    # The input QP with Z(-lam); its mean is the worst-case mean
    # mu_hat + (lam*S - Q)^-1 Q (mu_hat - y_ref). The lam-scale terms of the
    # dual objective cancel exactly: the cost is ||mu_hat(u) - y_ref||_Z^2
    # + ||u - u_ref||_R^2 - y_ref' Q y_ref, with no catastrophic
    # cancellation at large lam.
    input_qp = _tethered_input_qp(pm, cp, -lam)
    ref_cost = float(cp.y_ref @ cp.Q @ cp.y_ref)

    def step(bias, settings):
        u, mu_star, objective, sol, _ = input_qp(bias, settings)
        return u, mu_star, objective - ref_cost, sol

    return step


def robust(
    pm: PredictiveModel,
    w_ini,
    cp: ControlProblem,
    lam: float,
    settings: QpSettings | None = None,
) -> ControlResult:
    """Minimize the dual upper bound on the worst-case expected cost over
    the relative-entropy ball.

    Objective in the input:
        ||lam*S mu_hat(u) - Q y_ref||^2_{(lam*S - Q)^-1}
        - lam ||mu_hat(u)||^2_S + ||u - u_ref||^2_R,
    with S the predictive precision, solved as the input QP with the weight
    Z(-lam) (module docstring). Requires lam >= lambda0, which makes the
    Hessian positive definite (:func:`lambda_threshold`). Neither lambda0
    nor the QP takes a Cholesky factor or jitter, so a singular covariance
    is exact. Output boxes are not representable in this eliminated form.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    if cp.has_output_box:
        raise ShapeError("robust controller does not support output boxes")
    w = _check_w_ini(w_ini, pm.M_ini.shape[1])
    step = _prepared("robust", pm, cp, (lam,), lambda: _robust_setup(pm, cp, lam))
    u, mu_star, objective, sol = step(pm.M_ini @ w, settings)
    return ControlResult._of_parts(u, ConditionalGaussian._of_model(mu_star, pm.cov), objective,
                                   sol, lam)
