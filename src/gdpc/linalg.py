"""Dense linear-algebra kernels the rest of the package builds on.

Thin, contract-checked wrappers around LAPACK (via numpy/scipy): truncated
pseudoinverse, symmetric eigendecomposition, Cholesky with shift, the
package's one square root of a covariance (``psd_factor``), PSD test, and
the discrete Lyapunov solve; and the read-only copy the package's value
types keep their arrays in. All functions treat inputs as immutable and are
safe to call concurrently.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, LinAlgWarning, solve_discrete_lyapunov
from scipy.linalg.lapack import dgecon, dgesv, dpotrf

from .errors import InvalidMatrix, NotPositiveDefinite, ShapeError, UnstableSystem

DEFAULT_RANK_TOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise InvalidMatrix(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return m


def read_only(a) -> np.ndarray:
    """A read-only float copy of ``a``. The package's value types keep their
    arrays this way, so work cached against an object cannot go stale
    through an in-place write."""
    m = np.array(a, dtype=float)
    m.flags.writeable = False
    return m


def symmetrize(s) -> np.ndarray:
    """Return (S + S^T)/2; raises if S is not square."""
    m = as_matrix(s, "symmetric input")
    if m.shape[0] != m.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class SymEig:
    """Symmetric eigendecomposition with eigenvalues sorted descending.

    ``vectors`` holds orthonormal eigenvectors as columns, matching the
    ordering of ``values``, so ``vectors @ diag(values) @ vectors.T``
    reconstructs the (symmetrized) input.
    """

    values: np.ndarray
    vectors: np.ndarray


def check_rank_tol(rank_tol: float) -> None:
    """Raise ValueError unless the relative rank cutoff lies in (0, 1)."""
    if not 0.0 < rank_tol < 1.0:
        raise ValueError(f"rank_tol must be in (0, 1), got {rank_tol}")


def pinv(a, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with relative rank truncation.

    Singular values below ``rank_tol * sigma_max`` are treated as exact
    zeros. ``rank_tol`` must lie in (0, 1); the default matches the
    package-wide numerical-rank tolerance.
    """
    m = as_matrix(a, "pinv input")
    check_rank_tol(rank_tol)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]))
    inv = np.where(s > rank_tol * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T


def matrix_rank(a, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank with the same relative threshold as :func:`pinv`."""
    m = as_matrix(a, "rank input")
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def sym_eig(s) -> SymEig:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""
    m = symmetrize(s)
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    return SymEig(values=vals[order], vectors=vecs[:, order])


def chol_psd(s, shift: float = 0.0) -> np.ndarray:
    """Lower Cholesky factor G of S + shift*I, raising on failure.

    On failure :class:`NotPositiveDefinite` carries the zero-based index of
    the first non-positive pivot LAPACK encountered.
    """
    if shift < 0.0:
        raise ValueError(f"shift must be nonnegative, got {shift}")
    m = symmetrize(s)
    target = m + shift * np.eye(m.shape[0]) if shift else m
    if target.shape[0] == 0:
        return target.copy()
    c, info = dpotrf(target, lower=1)
    if info != 0:
        raise NotPositiveDefinite(
            f"matrix (+ shift {shift:g}) is not positive definite; "
            f"pivot {info - 1} failed",
            pivot=int(info) - 1,
        )
    return np.tril(c)


def psd_factor(cov, name: str = "covariance") -> np.ndarray:
    """A factor F with F F^T = cov from its eigendecomposition V diag(d) V^T,
    the package's one square root of a covariance: F = V diag(sqrt(d')),
    where d' is d with every eigenvalue at or below 1e-12 max(d, 0) set to
    zero. A singular covariance is fine, and the cutoff keeps the rounding
    of its null directions out of F, so draws F z stay in its range; an empty
    cov has an empty F. Raises
    ``ShapeError`` naming ``name`` if cov is not positive semidefinite by
    ``is_psd``'s relative rule at 1e-8."""
    vals, vecs = np.linalg.eigh(symmetrize(cov))
    if not vals.size:
        return vecs
    if vals[0] < -1e-8 * max(1.0, abs(vals[-1])):
        raise ShapeError(f"{name} must be positive semidefinite, "
                         f"smallest eigenvalue {vals[0]:.3g}")
    cutoff = 1e-12 * max(float(vals[-1]), 0.0)
    return vecs * np.sqrt(np.where(vals > cutoff, vals, 0.0))


def sym_eigenvalues(m: np.ndarray) -> np.ndarray:
    """The eigenvalues of the symmetric ``m``, ascending: its sorted
    diagonal when every other entry is zero, which is what ``eigvalsh``
    returns for a diagonal matrix, else ``eigvalsh``'s. A diagonal whose
    largest entry is outside [1e-140, 1e140] (and not 0) goes to
    ``eigvalsh`` too, since LAPACK's syevd rescales such a matrix, which
    rounds its eigenvalues."""
    d = np.diagonal(m)
    top = np.max(np.abs(d), initial=0.0)
    if (top == 0.0 or 1e-140 <= top <= 1e140) and np.count_nonzero(m) == np.count_nonzero(d):
        return np.sort(d)
    return np.linalg.eigvalsh(m)


def is_psd(s, tol: float = 1e-10) -> bool:
    """True iff lambda_min(S) >= -tol * max(1, |lambda_max(S)|), with the
    eigenvalues of :func:`sym_eigenvalues` (a diagonal S needs no
    ``eigvalsh``)."""
    m = symmetrize(s)
    if m.shape[0] == 0:
        return True
    vals = sym_eigenvalues(m)
    return bool(vals[0] >= -tol * max(1.0, abs(vals[-1])))


def spectral_radius(a) -> float:
    m = as_matrix(a, "spectral radius input")
    if m.shape[0] != m.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def lyap_discrete(a, qc) -> np.ndarray:
    """Solve S = A S A^T + Qc for the stationary covariance S.

    Requires a Schur-stable A (spectral radius < 1) and PSD Qc. Below 10
    states it solves (I - A kron A) vec S = vec Qc, the system
    ``scipy.linalg.solve_discrete_lyapunov`` builds at those sizes, by one
    LAPACK gesv call, with A kron A formed as one broadcast product whose
    entries A[i, j] A[k, l] are ``np.kron``'s bit for bit; like
    ``scipy.linalg.solve`` it raises ``LinAlgError`` on an exactly singular
    factor and warns (``LinAlgWarning``) when the gecon reciprocal
    condition number is below eps. The result is scipy's
    bit for bit where scipy's ``solve`` treats the matrix as general; where
    it detects structure (a diagonal, lower triangular or symmetric A) it
    may differ from scipy's by rounding. From 10 states on it calls scipy,
    whose bilinear method is O(n^3) where this system is O(n^6), as it does
    for a plant without states.
    """
    am = as_matrix(a, "A")
    qm = symmetrize(qc)
    if am.shape[0] != am.shape[1] or am.shape[0] != qm.shape[0]:
        raise InvalidMatrix(
            f"A and Qc must be square with matching size, got {am.shape}, {qm.shape}"
        )
    return _stable_lyap(am, qm, spectral_radius(am))


def _stable_lyap(am: np.ndarray, qm: np.ndarray, rho: float) -> np.ndarray:
    """:func:`lyap_discrete` on a checked square A, a symmetric Qc of its
    size and A's spectral radius ``rho``, for a caller that already holds
    it; raises ``UnstableSystem`` unless ``rho`` < 1 - 1e-9. A kron A is
    the broadcast product A[:, None, :, None] A[None, :, None, :] reshaped
    to (n^2, n^2), whose entries are exactly ``np.kron``'s."""
    if rho >= 1.0 - 1e-9:
        raise UnstableSystem(f"spectral radius {rho:.6g} >= 1; no stationary solution")
    n = am.shape[0]
    if not 0 < n < 10:
        sol = solve_discrete_lyapunov(am, qm)
    else:
        kron = (am[:, None, :, None] * am[None, :, None, :]).reshape(n * n, n * n)
        lhs = np.eye(n * n) - kron
        lu, _, vec, info = dgesv(lhs, qm.reshape(-1))
        if info > 0:
            raise LinAlgError("A singular matrix detected.")
        rcond = dgecon(lu, float(np.abs(lhs).sum(axis=0).max()))[0]
        if rcond < np.finfo(float).eps:
            warnings.warn(f"An ill-conditioned matrix detected: rcond = {rcond}.",
                          LinAlgWarning, stacklevel=3)
        sol = vec.reshape(n, n)
    return 0.5 * (sol + sol.T)
