"""Gaussian trajectory models: estimation, conditioning, and prediction.

A behavior models length-L trajectory stacks w in R^{qL} as N(mean, cov).
A stack has one layout, the chronological one of the data matrix's rows:
per step t the block [u_t; y_t], steps in time order.
The covariance is estimated from data as W W^T / D (the maximum-likelihood
estimate for zero-mean i.i.d. columns and full-row-rank W); conditioning on
a "free" index set yields the Gaussian predictive distribution; the
predictive model extracts the affine predictor (input map, history map) and
the predictive covariance used by all controllers, from the factor L of one
LQ factorization of the data matrix, computed in place on one copy of the
data; the data matrix keeps L and the predictor read from it (not Q, which
is never formed), so deepc's set-up on the same data factors nothing again.
In that square-root form, conditioning is one triangular inverse of the
free block's factor whenever the data certify its full rank, and an SVD
pseudoinverse otherwise. A behavior can also be constructed directly from a
stochastic state-space model, in the same layout, which is the forward map
the Monte-Carlo oracles certify.
"""

import json
import logging
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dtrtri

from .errors import InvalidMatrix, NotPositiveDefinite, ShapeError
from .linalg import (
    DEFAULT_RANK_TOL,
    as_matrix,
    check_rank_tol,
    chol_psd,
    is_psd,
    pinv,
    psd_factor,
    read_only,
    symmetrize,
)
from .plant import StochasticLtiModel, build_block_operators
from .trajectory import DataMatrix, SignalDims, block_row_permutation

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GaussianBehavior:
    """Mean and PSD covariance of length-L stacked trajectories.

    Entries follow the chronological stack, per step t the block
    [u_t; y_t], the row order of :attr:`DataMatrix.matrix`, so the data's
    columns, :func:`condition`'s indices and
    :func:`~gdpc.trajectory.block_row_permutation` all address a behavior
    as they address the data.
    """

    dims: SignalDims
    window: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        k = self.dims.q * self.window
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = symmetrize(self.cov)
        if mean.shape != (k,):
            raise ShapeError(f"mean must have length {k}, got {mean.shape}")
        if cov.shape != (k, k):
            raise ShapeError(f"cov must be {(k, k)}, got {cov.shape}")
        if not np.all(np.isfinite(mean)):
            raise ShapeError("mean contains non-finite entries")
        if not is_psd(cov, 1e-8):
            raise NotPositiveDefinite("behavior covariance is not PSD at tolerance 1e-8")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def size(self) -> int:
        return self.dims.q * self.window

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "dims": {"m": self.dims.m, "p": self.dims.p},
            "L": self.window,
            "mean": self.mean.tolist(),
            "cov": self.cov.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GaussianBehavior":
        """The behavior of a :meth:`to_json_dict` document; :class:`ShapeError`
        for another schema, a missing key, a key it does not read, or a value
        of the wrong kind, naming its key: ``dims`` must be an object, ``L``,
        ``m`` and ``p`` integers (no boolean, no fraction), and ``mean`` and
        ``cov`` arrays of numbers. A document may carry ``"ordering":
        "interleaved"``, the chronological layout's name in files written
        before the behavior had one layout; any other ``ordering`` is a
        :class:`ShapeError` that names it."""
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != 1:
            raise ShapeError(f"unsupported behavior schema {schema!r} (expected 1)")
        unknown = sorted(set(data) - {"schema", "dims", "L", "mean", "cov", "ordering"})
        if unknown:
            raise ShapeError("unknown behavior key(s): " + ", ".join(map(str, unknown)))
        ordering = data.get("ordering", "interleaved")
        if ordering != "interleaved":
            raise ShapeError(f"unknown ordering {ordering!r}: a behavior is read only in "
                             f"the chronological per-step [u_t; y_t] layout ('interleaved')")
        try:
            dims = data["dims"]
            if not isinstance(dims, dict):
                raise ShapeError(f"behavior dims must be an object, got {dims!r}")
            return cls(
                dims=SignalDims(m=_json_integer(dims["m"], "dims.m"),
                                p=_json_integer(dims["p"], "dims.p")),
                window=_json_integer(data["L"], "L"),
                mean=_json_array(data["mean"], "mean"),
                cov=_json_array(data["cov"], "cov"),
            )
        except KeyError as exc:
            raise ShapeError(f"behavior document missing key {exc}") from None

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load_json(cls, path) -> "GaussianBehavior":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _json_integer(raw, key: str) -> int:
    """``raw`` as an int if it is a whole number other than a boolean, else
    :class:`ShapeError` naming the behavior document's ``key``."""
    if isinstance(raw, numbers.Integral) and not isinstance(raw, bool):
        return int(raw)
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    raise ShapeError(f"behavior {key} must be an integer, got {raw!r}")


def _json_array(raw, key: str) -> np.ndarray:
    """``raw`` as a float array, or :class:`ShapeError` naming the behavior
    document's ``key``."""
    try:
        return np.array(raw, dtype=float)
    except (TypeError, ValueError):
        raise ShapeError(f"behavior {key} must be an array of numbers") from None


@dataclass(frozen=True)
class ConditionalGaussian:
    """Predictive distribution of the dependent block given the free block.

    ``cov`` is kept as a new array, (cov + cov^T)/2. A
    :class:`PredictiveModel`'s prediction shares the model's covariance
    instead (:meth:`_of_model`)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = symmetrize(self.cov)
        if cov.shape[0] != mean.shape[0]:
            raise ShapeError(f"mean/cov size mismatch: {mean.shape} vs {cov.shape}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def _of_model(cls, mean: np.ndarray, cov: np.ndarray) -> "ConditionalGaussian":
        """The distribution with a 1-D float ``mean`` of matching length and a
        :class:`PredictiveModel`'s covariance, which that model's
        constructor (``__post_init__`` or ``_of_fit``) has made read-only,
        symmetric and finite: both are kept as they are, without the checks
        of ``__post_init__``."""
        new = object.__new__(cls)
        new.__dict__.update(mean=mean, cov=cov)
        return new


@dataclass(frozen=True)
class PredictiveModel:
    """Affine output predictor plus predictive covariance.

    ``M_u`` maps the stacked future input, ``M_ini`` maps the stacked past
    window; the predicted output mean is M_u u_f + M_ini w_ini. The three
    arrays must be finite matrices with equal row counts, and ``cov`` must
    pass the PSD test of :class:`GaussianBehavior` (tolerance 1e-8); it is
    kept as (cov + cov^T)/2. The arrays are read-only, since the controllers
    keep set-up work per model object (see :mod:`gdpc.control`): copies of
    a caller's arrays, or, for the model :func:`lq_predictor` identifies,
    arrays it has just made and no one else holds, frozen in place
    (:meth:`_of_fit`).
    """

    M_u: np.ndarray  # (p*L_f, m*L_f)
    M_ini: np.ndarray  # (p*L_f, q*L_ini)
    cov: np.ndarray  # (p*L_f, p*L_f) PSD

    def __post_init__(self):
        m_u = read_only(as_matrix(self.M_u, "M_u"))
        m_ini = read_only(as_matrix(self.M_ini, "M_ini"))
        cov = read_only(symmetrize(self.cov))  # square and finite, or InvalidMatrix
        rows = cov.shape[0]
        if m_u.shape[0] != rows or m_ini.shape[0] != rows:
            raise ShapeError(f"M_u, M_ini and cov must have equal row counts, got "
                             f"{m_u.shape[0]}, {m_ini.shape[0]} and {rows}")
        if not is_psd(cov, 1e-8):
            raise NotPositiveDefinite("predictive covariance is not PSD at tolerance 1e-8")
        object.__setattr__(self, "M_u", m_u)
        object.__setattr__(self, "M_ini", m_ini)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def _of_fit(cls, m_u: np.ndarray, m_ini: np.ndarray, cov: np.ndarray) -> "PredictiveModel":
        """The model of fresh float arrays that no one else holds, made by
        :func:`lq_predictor` with equal row counts, ``cov`` the Gram matrix
        T T^T / D of the fit's residual T. Each array must be finite
        (``InvalidMatrix`` otherwise); ``cov`` is symmetrized only if it is
        not exactly symmetric already, and each is frozen in place, not
        copied. ``cov`` is not eigendecomposed: T has at most qL columns,
        so the rounding of the computed Gram matrix moves its eigenvalues
        by at most about (qL)^2 eps times the largest, and none can fall
        below the 1e-8 rule of ``__post_init__`` for any qL below
        thousands."""
        for array, name in ((m_u, "M_u"), (m_ini, "M_ini"), (cov, "cov")):
            if not np.isfinite(array).all():
                raise InvalidMatrix(f"{name} contains non-finite entries")
        if not (cov == cov.T).all():
            cov = symmetrize(cov)
        for array in (m_u, m_ini, cov):
            array.flags.writeable = False
        new = object.__new__(cls)
        new.__dict__.update(M_u=m_u, M_ini=m_ini, cov=cov)
        return new

    def predict_mean(self, w_ini, u_f) -> np.ndarray:
        w_ini = np.asarray(w_ini, dtype=float).reshape(-1)
        u_f = np.asarray(u_f, dtype=float).reshape(-1)
        return self.M_u @ u_f + self.M_ini @ w_ini

    def predict(self, w_ini, u_f) -> ConditionalGaussian:
        """The predicted output distribution; it shares the model's ``cov``."""
        return ConditionalGaussian._of_model(self.predict_mean(w_ini, u_f), self.cov)


def estimate(dm: DataMatrix, subtract_mean: bool = False) -> GaussianBehavior:
    """Second-moment behavior estimate from stacked window columns.

    Default keeps the zero-mean convention (data gathered under zero-mean
    excitation); with ``subtract_mean`` the column mean is removed and the
    covariance is the centered second moment (still normalized by D).
    """
    w = dm.matrix
    d = w.shape[1]
    if subtract_mean:
        mean = w.mean(axis=1)
        centered = w - mean[:, None]
        cov = centered @ centered.T / d
    else:
        mean = np.zeros(w.shape[0])
        cov = w @ w.T / d
    return GaussianBehavior(
        dims=dm.dims, window=dm.window_length, mean=mean, cov=symmetrize(cov)
    )


def jittered_cholesky(cov, jitter: float = 0.0) -> np.ndarray:
    """Lower Cholesky factor of ``cov``. If ``cov`` is not positive definite
    and ``jitter`` is positive, the factor of cov + delta I with
    delta = jitter * max(tr(cov)/k, 1) instead; otherwise
    :class:`NotPositiveDefinite` propagates."""
    try:
        return chol_psd(cov)
    except NotPositiveDefinite:
        if jitter <= 0.0:
            raise
    k = cov.shape[0]
    delta = jitter * max(np.trace(cov) / k, 1.0)
    logger.info("covariance not PD; applying jitter %.3e", delta)
    return chol_psd(cov, shift=delta)


def log_likelihood(gb: GaussianBehavior, samples, jitter: float = 0.0) -> float:
    """Total Gaussian log density of the given columns under the behavior.

    ``samples`` is a DataMatrix or a (qL, n) column array. Raises
    :class:`NotPositiveDefinite` for singular covariance unless a positive
    ``jitter`` (relative scale) is supplied.
    """
    cols = samples.matrix if isinstance(samples, DataMatrix) else np.asarray(samples, dtype=float)
    if cols.ndim == 1:
        cols = cols[:, None]
    k = gb.size
    if cols.shape[0] != k:
        raise ShapeError(f"samples must have {k} rows, got {cols.shape}")
    chol = jittered_cholesky(gb.cov, jitter)
    centered = cols - gb.mean[:, None]
    solved = np.linalg.solve(chol, centered)
    quad = np.sum(solved**2)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    n = cols.shape[1]
    return float(-0.5 * (quad + n * (logdet + k * np.log(2.0 * np.pi))))


def condition(gb: GaussianBehavior, free_index, free_value) -> ConditionalGaussian:
    """Exact Gaussian conditional on the given coordinates.

    The dependent block is the complement of ``free_index`` in ascending
    stack order. A pseudoinverse handles singular free-block covariance
    (deterministic free variables contribute nothing to the update).
    """
    free = np.asarray(free_index, dtype=int).reshape(-1)
    value = np.asarray(free_value, dtype=float).reshape(-1)
    k = gb.size
    if free.size != value.size:
        raise ShapeError(f"free_index ({free.size}) and free_value ({value.size}) differ")
    if free.size and (free.min() < 0 or free.max() >= k):
        raise ShapeError(f"free_index out of range for stack size {k}")
    if np.unique(free).size != free.size:
        raise ShapeError("free_index contains duplicates")
    dep = np.setdiff1d(np.arange(k), free)

    cov_ff = gb.cov[np.ix_(free, free)]
    cov_df = gb.cov[np.ix_(dep, free)]
    cov_dd = gb.cov[np.ix_(dep, dep)]
    gain = cov_df @ pinv(cov_ff)
    mean = gb.mean[dep] + gain @ (value - gb.mean[free])
    return ConditionalGaussian(mean=mean, cov=cov_dd - gain @ cov_df.T)


def _qr_in_place(dm: DataMatrix) -> np.ndarray:
    """L = R^T, (qL, k) with k = min(D, qL), for the Householder QR of the
    transposed ordered data matrix, by LAPACK's ``dgeqrf`` on the fresh
    Fortran-order copy ``dm.ordered.T``, which it overwrites with R in the
    upper triangle of its first k rows and the reflectors, dropped with the
    copy, below it. The work array has LAPACK's optimal size, so the
    blocked algorithm runs."""
    a = dm.ordered.T
    work, _ = dgeqrf_lwork(*a.shape)
    qr, _, _, info = dgeqrf(a, lwork=int(work), overwrite_a=1)
    if info != 0:
        raise InvalidMatrix(f"dgeqrf failed with info={info}")
    return np.triu(qr[: qr.shape[1]]).T


def _kept_predictor(dm: DataMatrix, rank_tol: float) -> tuple[PredictiveModel, np.ndarray]:
    """:func:`lq_predictor` of ``dm``'s kept factor (:func:`data_lq`) at
    ``rank_tol``, made by the first call for that ``rank_tol`` and kept in
    ``dm._lq``, L_F^+ read-only: predictive_model and deepc's set-up share
    it."""
    key = ("predictor", rank_tol)
    if key not in dm._lq:
        pm, free_pinv = lq_predictor(dm, data_lq(dm), rank_tol)
        free_pinv.flags.writeable = False
        dm._lq[key] = pm, free_pinv
    return dm._lq[key]


def data_lq(dm: DataMatrix) -> np.ndarray:
    """The factor L, (qL, k), of the economy LQ factorization
    [W_p; U_f; Y_f] = L Q^T of the data matrix, k = min(D, qL).

    Computed as the QR factorization of the transposed ordered data matrix
    (the LQ step of subspace identification), so no Gram matrix is formed
    and the condition number is not squared, in place on one copy of the
    data (:func:`_qr_in_place`), once per data matrix: ``dm`` keeps L,
    read-only, in ``dm._lq``. Q is never formed: the predictor and deepc
    depend on the data only through L (see :func:`gdpc.control.deepc`).
    """
    if "l" not in dm._lq:
        l_fac = _qr_in_place(dm)
        l_fac.flags.writeable = False
        dm._lq["l"] = l_fac
    return dm._lq["l"]


def lq_predictor(
    dm: DataMatrix, l_fac: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[PredictiveModel, np.ndarray]:
    """Predictive model from the LQ factor L of :func:`data_lq`.

    With L_F and L_Y the free ([w_ini; u_f]) and output rows of L, the
    predictor is L_Y L_F^+ and the predictive covariance is the residual
    Gram matrix (L_Y - coeff L_F)(L_Y - coeff L_F)^T / D, which is PSD by
    construction. Singular values of L_F below ``rank_tol`` times the
    largest are treated as zero. Also returns L_F^+, from which deepc forms
    the fit's residual L_Y - (L_Y L_F^+) L_F and the map from its plan to
    the combination vector g.

    With n_f free rows and D >= n_f, L_F = [L_11 0] with L_11 square and
    lower triangular. When LAPACK's ``dtrtri`` inverts L_11 to a finite
    matrix and ||L_11||_F ||L_11^-1||_F ``rank_tol`` < 1, the product
    bounds sigma_max / sigma_min, so ``rank_tol`` cuts nothing and
    L_F^+ = [L_11^-1; 0] exactly: the predictor is L_Y[:, :n_f] L_11^-1
    and, since the residual's first n_f columns vanish, the covariance is
    L_YY L_YY^T / D with L_YY = L[n_f:, n_f:] (the L_33 step of subspace
    identification). Otherwise, for rank-deficient data, fewer columns
    than free rows or a truncating ``rank_tol``, L_F^+ is the SVD
    pseudoinverse :func:`gdpc.linalg.pinv`.

    The model is built by :meth:`PredictiveModel._of_fit`: its arrays are
    checked finite and frozen where they are made, and the covariance,
    a Gram matrix and so PSD by construction, takes no PSD test.
    """
    check_rank_tol(rank_tol)
    n_free = dm.free_rows.size
    l_free, l_out = l_fac[:n_free], l_fac[n_free:]
    n_ini = dm.dims.q * dm.l_ini
    inverse = None
    if l_fac.shape[1] >= n_free:
        inverse = _triangular_inverse(l_free[:, :n_free], rank_tol)
    if inverse is not None:
        coeff = l_out[:, :n_free] @ inverse
        tail = l_out[:, n_free:]
        free_pinv = np.zeros((l_fac.shape[1], n_free))
        free_pinv[:n_free] = inverse
    else:
        free_pinv = pinv(l_free, rank_tol)
        coeff = l_out @ free_pinv
        tail = l_out - coeff @ l_free
    # The two maps are column blocks of coeff, each copied to an array of
    # its own; the covariance is the fresh Gram matrix.
    pm = PredictiveModel._of_fit(coeff[:, n_ini:].copy(), coeff[:, :n_ini].copy(),
                                 tail @ tail.T / dm.n_columns)
    return pm, free_pinv


def _triangular_inverse(lower: np.ndarray, rank_tol: float) -> np.ndarray | None:
    """The inverse of the square lower-triangular ``lower`` by ``dtrtri``,
    or None unless it is finite and ||lower||_F ||inverse||_F ``rank_tol``
    < 1, which certifies that every singular value exceeds ``rank_tol``
    times the largest."""
    inverse, info = dtrtri(lower, lower=1)
    if info != 0 or not np.isfinite(inverse).all():
        return None
    if np.linalg.norm(lower) * np.linalg.norm(inverse) * rank_tol >= 1.0:
        return None
    return inverse


def predictive_model(dm: DataMatrix, rank_tol: float = DEFAULT_RANK_TOL) -> PredictiveModel:
    """Least-squares output predictor and predictive covariance from data.

    The predictor is Y_f F^+ with F = [W_p; U_f], split column-wise into
    the history and input maps; the predictive covariance is
    (1/D) Y_f (I - F^+ F) Y_f^T, the residual Gram matrix of that fit.
    Both are computed from the LQ factor of the data matrix
    (:func:`data_lq`, :func:`lq_predictor`): with W = L Q^T,
    F^+ = Q L_F^+ gives Y_f F^+ = L_Y L_F^+, and
    Y_f (I - F^+ F) Y_f^T = L_Y (I - L_F^+ L_F) L_Y^T. Time is linear in D
    and memory O(D qL); no D x D matrix is formed. ``rank_tol`` truncates
    the pseudoinverse of L_F (relative to its largest singular value); when
    it provably truncates nothing, L_F^+ is the triangular inverse of
    :func:`lq_predictor`. ``dm`` keeps L and the model for each
    ``rank_tol`` (:func:`data_lq`, :func:`_kept_predictor`): a later call
    with the same ``rank_tol`` returns the same model, and deepc's set-up
    on ``dm`` reads both without factoring the data again.
    """
    return _kept_predictor(dm, rank_tol)[0]


def from_state_space(
    model: StochasticLtiModel,
    window: int,
    state_cov,
    input_cov,
    state_mean=None,
    input_mean=None,
) -> GaussianBehavior:
    """Behavior of length-``window`` stacks generated by the plant.

    Assumes the initial state and the stacked input are independent
    Gaussians; ``input_cov`` is the full (m*L x m*L) stacked-input covariance
    and ``state_cov`` the state covariance at the window start. The moments
    are formed as blocks of the (input stack, output stack) vector and
    scattered once into the chronological layout of every behavior: the
    blocked vector is w[b] for b = ``block_row_permutation(dims, 0, window)``.
    """
    n, m, p = model.n, model.m, model.p
    state_cov = symmetrize(state_cov)
    input_cov = symmetrize(input_cov)
    if state_cov.shape != (n, n):
        raise ShapeError(f"state_cov must be {(n, n)}, got {state_cov.shape}")
    if input_cov.shape != (m * window,) * 2:
        raise ShapeError(f"input_cov must be {(m * window,) * 2}, got {input_cov.shape}")
    state_mean = (
        np.zeros(n) if state_mean is None else np.asarray(state_mean, dtype=float).reshape(n)
    )
    input_mean = (
        np.zeros(m * window)
        if input_mean is None
        else np.asarray(input_mean, dtype=float).reshape(m * window)
    )

    ops = build_block_operators(model, window)
    obs, t_u, t_xi = ops.observability, ops.input_toeplitz, ops.noise_toeplitz
    xi_blk = np.kron(np.eye(window), model.Sigma_xi)
    eta_blk = np.kron(np.eye(window), model.Sigma_eta)

    out_cov = obs @ state_cov @ obs.T + t_u @ input_cov @ t_u.T + t_xi @ xi_blk @ t_xi.T + eta_blk
    cross = t_u @ input_cov  # cov(y-stack, u-stack)
    rows = block_row_permutation(model.dims, 0, window)
    cov = np.empty((rows.size, rows.size))
    cov[np.ix_(rows, rows)] = np.block([[input_cov, cross.T], [cross, out_cov]])
    mean = np.empty(rows.size)
    mean[rows] = np.concatenate([input_mean, obs @ state_mean + t_u @ input_mean])
    return GaussianBehavior(dims=model.dims, window=window, mean=mean, cov=cov)


def kl_divergence(p: ConditionalGaussian, q: ConditionalGaussian, jitter: float = 0.0) -> float:
    """Relative entropy KL(p || q) between Gaussians of equal dimension.

    0.5 * [tr(S2^-1 S1) - k + (m1-m2)^T S2^-1 (m1-m2) + log det S2 - log det S1].
    Both covariances must be positive definite (a relative ``jitter`` may be
    allowed to repair near-singular inputs).
    """
    if p.mean.shape != q.mean.shape:
        raise ShapeError(f"dimension mismatch: {p.mean.shape} vs {q.mean.shape}")
    k = p.mean.shape[0]
    chol_q = jittered_cholesky(q.cov, jitter)
    chol_p = jittered_cholesky(p.cov, jitter)
    solved = np.linalg.solve(chol_q, chol_p)
    trace = np.sum(solved**2)
    diff = np.linalg.solve(chol_q, p.mean - q.mean)
    quad = float(diff @ diff)
    logdet_q = 2.0 * np.sum(np.log(np.diag(chol_q)))
    logdet_p = 2.0 * np.sum(np.log(np.diag(chol_p)))
    return float(0.5 * (trace - k + quad + logdet_q - logdet_p))


def kl_mean_term(mean_a, mean_b, cov_b, jitter: float = 0.0) -> float:
    """The mean-shift part of the Gaussian KL divergence:
    0.5 * (a-b)^T cov_b^-1 (a-b)."""
    chol = jittered_cholesky(symmetrize(cov_b), jitter)
    diff = np.linalg.solve(chol, np.asarray(mean_a, dtype=float) - np.asarray(mean_b, dtype=float))
    return float(0.5 * (diff @ diff))


def sample(gb: GaussianBehavior, count: int, seed) -> np.ndarray:
    """``count`` i.i.d. draws as columns, deterministic given the seed: the
    mean plus F z for F = ``psd_factor(gb.cov)``, whose eigenvalue cutoff
    keeps the draws of a singular covariance in its range.
    """
    if count < 1:
        raise ShapeError(f"count must be >= 1, got {count}")
    z = np.random.default_rng(seed).standard_normal((gb.size, count))
    return gb.mean[:, None] + psd_factor(gb.cov) @ z
