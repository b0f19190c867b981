"""Self-contained dense convex QP solvers.

Solves   min 0.5 x'Px + q'x   s.t.  A_eq x = b_eq,  lower <= x <= upper
with one of three methods, chosen by :func:`solve` from the problem alone:
a nonsingular KKT system goes to an exact active-set method, anything else
to ADMM.

* A problem without equality rows whose P passes a Cholesky factorization
  (LAPACK potrf) goes to an exact primal active-set method
  (``_active_set``). It works on the bounds that hold with equality, one
  Cholesky solve of the free-variable block per iteration, and ends at the
  minimizer in finitely many steps. When the unconstrained minimizer lies
  strictly inside the box it is the answer, returned after that one solve
  without the ratio and multiplier tests; one comparison, lower < x < upper
  in every entry, decides it, and NaN and +-inf fail it. The box-only
  controller QPs (spc, certainty equivalence, optimistic and robust, with
  or without an output box on optimistic, and deepc's eliminated form) are
  of this kind: P >= 2R > 0. Without an output box their minimizer is
  often interior; on ``configs/example.json`` every one is. With an output
  box on optimistic, bounds are always active and most solves end after
  one or two iterations, so the iteration does only the arithmetic of its
  statement: a step whose free-block minimizer lies in the box is a full
  step without a ratio test, and the rounding threshold of the multiplier
  test reads |P| from the problem. A non-finite minimizer or step, or a
  free block that rounding makes fail potrf, sends the problem to ADMM.
* A problem with equality rows whose KKT matrix [P A_eq'; A_eq 0] is
  nonsingular to working precision (LAPACK getrf, then a gecon reciprocal
  condition number above size * eps) goes to an exact dual active-set
  method (``_eq_active_set``), Goldfarb and Idnani's. It starts at the
  equality-constrained minimizer, one solve with that factor, and adds the
  violated bounds one by one, solving the free-block KKT system each time.
  Its answer is returned only if it passes ADMM's own residual test at
  ``eps_abs``/``eps_rel`` with bound multipliers of the right sign. The
  (u, s, y) QPs of spc with an output box and of deepc (an output box, the
  squared 2-norm, or lambda_g = 0) are of this kind, but not deepc's
  1-norm epigraph.
* Every other problem goes to operator splitting on the consensus form
  l <= [A_eq; I] x <= u (``_admm``), the OSQP iteration: deterministic Ruiz
  equilibration, a regularized KKT factorization reused across iterations,
  over-relaxation, deterministic step-size adaptation, divergence
  certificates for infeasibility, and an active-set polish step that
  solves the reduced KKT system once the active set has settled. These are
  a P that is only semidefinite without equality rows, a singular KKT
  matrix (rank-deficient A_eq, or P singular on the null space of A_eq, as
  in the 1-norm epigraph), and every equality QP whose dual active-set
  answer is infeasible, hits ``max_iter`` or fails the residual test. An
  infeasible verdict is confirmed by ADMM: for equality rows that meet the
  box only at its boundary, rounding can make the dual method report the
  problem infeasible while ADMM solves it to its tolerance. A polished
  answer is kept only if it attains every bound it holds active, to the
  polish tolerance, and its bound multipliers have their bounds' signs
  beyond the dual method's rounding margin: the reduced KKT solve does not
  constrain them, and where the active bounds are degenerate (a feasible
  set that is a single point, say) it can give one the wrong sign; on an
  ill-conditioned P it can leave an active coordinate off its bound.

The primal active-set method reads only ``max_iter`` from
:class:`QpSettings`; it reports ``iterations`` as the number of free-block
solves (1 for an interior minimizer), the bound multipliers -(Px + q) on
the bounds it holds active, no equality duals and ``polished`` False. The
dual one reads ``max_iter``, ``eps_abs`` and ``eps_rel``; it reports
``iterations`` as the number of working sets it solved on (1 when no bound
is active), the equality and bound multipliers it carries and ``polished``
False. ADMM reads all three; its tuning (step size, regularization,
relaxation, Ruiz passes, check and adaptation intervals, infeasibility
tolerance) is fixed in the module constants ``_RHO`` to
``_ADAPTIVE_RHO_INTERVAL``, and it always attempts its polish.

All three are bit-reproducible: the same problem and settings give the
same bits on the same machine and libraries, since nothing is randomized.
ADMM's kernels keep a stronger contract: every operation is the same
elementwise IEEE operation, or the same LAPACK or BLAS call, as in the
plain statement of the iteration; only where results are stored differs.
Most controller QPs have 8 to 50 variables, so the per-call overhead of the
Python wrappers, not the arithmetic, sets the time of a solve. Hence the
KKT systems are factored and solved by calling LAPACK's getrf/getrs
directly, keeping the finiteness and ``info`` checks of
``scipy.linalg.lu_factor``/``lu_solve`` but not their argument handling,
which costs several times the solve itself; ADMM's iterate update works in
place; Ruiz scaling reads magnitudes taken once; and the primal method
builds its :class:`QpSolution` from the fields it has formed, without the
dataclass ``__init__``. Each returns the bits of the plain form it
replaces; ``tests/test_qp.py`` checks the scaling, the KKT solve and the
primal method against that form.

Infinite bounds are encoded internally by ADMM as the sentinel magnitude
1e30; the active-set methods use them as they are.

A :class:`QpProblem` keeps the work it has done on P. Its validation tries
the Cholesky factorization first: success proves P positive definite, and
the factor is what :func:`solve` dispatches box-only problems on and the
primal active-set method starts from; only a P that fails it gets the
eigenvalue PSD test. A box-only problem with that factor also keeps |P|
for the primal method's rounding threshold. The factored KKT matrix of an
equality problem (or the finding that it is singular) is made by its first
solve. ADMM keeps nothing: it makes its set-up (the Ruiz scalings, the
scaled data and the first KKT factorization) at every solve. A
receding-horizon controller changes only q or b_eq from one solve to the
next: :meth:`QpProblem.updated` derives such a problem, checks only the new
vector, and shares the Cholesky factor, |P| and the KKT factor, none of
which reads either vector. So the step of the (u, s, y) QP of deepc and of
spc with an output box is one triangular solve with the run's KKT factor and a
bound check when no bound is active. The arrays of a problem are read-only,
so none of this can go stale. The constructor copies each array a caller
passes once (P's copy is its symmetrized form); the arrays it makes itself
(the empty A_eq and b_eq, the infinite bounds, the Cholesky factor and
|P|) are made read-only in place, and a problem without equality rows
takes no finiteness scan of them.

The controllers' set-ups (every one in ``control`` but the 1-norm
epigraph of deepc, which :func:`l1_epigraph` builds by the constructor)
build their QPs by ``QpProblem._of_parts`` instead, from arrays they have
just formed out of ``PredictiveModel``'s and ``ControlProblem``'s checked
arrays: P exactly symmetric by construction, the shapes consistent, the
bounds ``ControlProblem``'s, free of NaN with lower <= upper. It still
proves what construction does not: one finiteness scan of P and of q (and
of A_eq and b_eq when given), raising as the constructor does, and P's
potrf proof and factor, with the eigenvalue test where potrf fails, and
|P| for a box-only problem, in the code the constructor runs
(``_set_fields``). It takes the arrays as they are, with no copy and no
symmetrizing, and makes them read-only in place; ``ControlProblem``'s
bounds already are. Its problem equals the constructor's of the same
arrays field for field.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs, dpotrf, dpotrs

from .errors import InvalidMatrix, ShapeError
from .linalg import is_psd, matrix_rank, read_only, sym_eig, symmetrize

INFINITY_SENTINEL = 1e30
_EPS = np.finfo(float).eps

# ADMM's tuning. The step size, the regularization, the relaxation, the
# Ruiz passes and the check interval are OSQP's defaults (Stellato et al.,
# "OSQP: an operator splitting solver for quadratic programs", Math. Prog.
# Comp. 12, 2020); OSQP's infeasibility tolerance is 1e-4, it picks its
# adaptation interval from its set-up time, and it does not polish by
# default, where ADMM here always attempts its polish.
_RHO = 0.1  # initial step size
_SIGMA = 1e-6  # regularization of P in the KKT matrix
_ALPHA = 1.6  # over-relaxation
_EPS_INFEASIBLE = 1e-7  # tolerance of the infeasibility certificates
_CHECK_INTERVAL = 25  # iterations between residual checks
_SCALING_ITERS = 10  # Ruiz equilibration passes
_ADAPTIVE_RHO_INTERVAL = 100  # iterations between step-size adaptations


def _finite_vector(value, size: int, name: str) -> np.ndarray:
    """``value`` as a read-only vector; raises :class:`ShapeError` unless it
    has length ``size`` and finite entries."""
    v = np.asarray(value, dtype=float).reshape(-1)
    if v.shape != (size,):
        raise ShapeError(f"{name} must have length {size}, got {v.shape}")
    if not np.isfinite(v).all():
        raise ShapeError(f"{name} contains non-finite entries")
    return read_only(v)


def _own_vector(value) -> np.ndarray:
    """A 1-D float copy of ``value``, the one copy made of it."""
    return np.array(value, dtype=float, order="C").reshape(-1)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, an array no caller holds, made read-only in place."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QpProblem:
    """Data of one convex QP. ``lower``/``upper`` accept +-inf entries; any
    other non-finite entry raises :class:`ShapeError`. The arrays are
    read-only copies (:meth:`_of_parts` freezes its own arrays instead).

    A problem keeps the work it has done on P: the upper Cholesky factor
    when P is positive definite, which is both the proof that P is PSD and
    what :func:`solve` dispatches box-only problems on; for such a problem
    without equality rows, |P| for the primal active-set method; the LU
    factor of the KKT matrix [P A_eq'; A_eq 0] when it is nonsingular, made
    by the first solve. :meth:`updated` derives a problem with a new linear
    term or equality right-hand side that shares them."""

    P: np.ndarray
    q: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    _p_factor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _abs_p: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _kkt: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Each array the caller passed is copied once (symmetrize's output is
        # P's copy); the arrays made here are frozen in place.
        p = _frozen(symmetrize(self.P))
        qv = _own_vector(self.q)
        n = qv.shape[0]
        if p.shape != (n, n):
            raise ShapeError(f"P must be {(n, n)}, got {p.shape}")
        if not np.all(np.isfinite(qv)):
            raise ShapeError("q contains non-finite entries")
        a = np.zeros((0, n)) if self.A_eq is None else np.array(self.A_eq, dtype=float)
        b = np.zeros(0) if self.b_eq is None else _own_vector(self.b_eq)
        if a.ndim != 2 or a.shape[1] != n or a.shape[0] != b.shape[0]:
            raise ShapeError(f"A_eq/b_eq shapes inconsistent: {a.shape}, {b.shape}")
        if a.shape[0] and not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ShapeError("A_eq/b_eq contain non-finite entries")
        lo = np.full(n, -np.inf) if self.lower is None else _own_vector(self.lower)
        hi = np.full(n, np.inf) if self.upper is None else _own_vector(self.upper)
        if lo.shape != (n,) or hi.shape != (n,):
            raise ShapeError(f"bounds must have length {n}")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ShapeError("bounds contain NaN")
        if np.any(lo > hi):
            raise ShapeError("lower bound exceeds upper bound")
        self._set_fields(p, qv, a, b, lo, hi)

    @classmethod
    def _of_parts(cls, P, q, lower, upper, A_eq=None, b_eq=None) -> "QpProblem":
        """The problem of arrays a controller's set-up has formed from checked
        parts (module docstring): P exactly symmetric, the shapes consistent,
        the bounds free of NaN with lower <= upper. It scans P, q and any
        A_eq and b_eq for non-finite entries, raising as the constructor
        does, and proves P PSD as the constructor does. The arrays, which no
        caller may write afterwards, are taken as they are and made
        read-only in place. The result equals the constructor's field for
        field."""
        if not np.isfinite(P).all():
            raise InvalidMatrix("symmetric input contains non-finite entries")
        if not np.isfinite(q).all():
            raise ShapeError("q contains non-finite entries")
        if A_eq is None:
            A_eq, b_eq = np.zeros((0, q.shape[0])), np.zeros(0)
        elif not (np.isfinite(A_eq).all() and np.isfinite(b_eq).all()):
            raise ShapeError("A_eq/b_eq contain non-finite entries")
        new = object.__new__(cls)
        new._set_fields(P, q, A_eq, b_eq, lower, upper)
        return new

    def _set_fields(self, p, qv, a, b, lo, hi):
        """Sets the fields of both constructors from their checked arrays,
        none of which a caller can still write: P's proof (a P that passes
        potrf is positive definite; only one that fails needs the eigenvalue
        test), the Cholesky factor, |P| for a box-only problem, and the
        arrays, read-only."""
        factor, info = dpotrf(p)
        if info != 0:
            factor = None
            if not is_psd(p, 1e-8):
                raise ShapeError("P must be positive semidefinite at tolerance 1e-8")
        for name, value in (("P", p), ("q", qv), ("A_eq", a), ("b_eq", b), ("lower", lo),
                            ("upper", hi), ("_p_factor", factor),
                            ("_abs_p", np.abs(p) if factor is not None
                             and a.shape[0] == 0 else None)):
            object.__setattr__(self, name, None if value is None else _frozen(value))
        object.__setattr__(self, "_kkt", {})

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def n_eq(self) -> int:
        return self.A_eq.shape[0]

    def updated(self, q=None, b_eq=None) -> "QpProblem":
        """This problem with a new linear term and/or equality right-hand
        side, of which only the new vectors are checked (length and
        finiteness). The result shares P's Cholesky factor, |P| and the KKT
        factor, none of which reads either vector."""
        new = object.__new__(QpProblem)  # the validated fields, not re-validated
        fields = new.__dict__
        fields.update(self.__dict__)
        if q is not None:
            fields["q"] = _finite_vector(q, self.n, "q")
        if b_eq is not None:
            fields["b_eq"] = _finite_vector(b_eq, self.n_eq, "b_eq")
        return new


@dataclass(frozen=True)
class QpSettings:
    """What a caller sets of a solve: ``eps_abs`` and ``eps_rel``, the
    absolute and relative tolerances of the residual test that ADMM stops on
    and that the dual active-set method's answer must pass (the primal
    active-set method is exact and reads neither); and ``max_iter``, the
    iteration cap of all three methods (free-block solves, working sets and
    ADMM iterations). ADMM's tuning is fixed: see ``_RHO`` and the constants
    after it."""

    eps_abs: float = 1e-8
    eps_rel: float = 1e-8
    max_iter: int = 50000

    def __post_init__(self):
        """:class:`ValueError`, its message beginning with the field's name,
        unless ``max_iter`` is an integer >= 1 and both tolerances are
        finite and non-negative."""
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        for name in ("eps_abs", "eps_rel"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class QpSolution:
    x: np.ndarray
    objective: float
    status: str  # "optimal" | "max_iter" | "infeasible"
    primal_residual: float
    dual_residual: float
    iterations: int
    eq_duals: np.ndarray = field(default=None)
    bound_duals: np.ndarray = field(default=None)
    polished: bool = False

    @classmethod
    def _of_active_set(cls, x, objective, status, primal_residual, dual_residual,
                       iterations, bound_duals) -> "QpSolution":
        """The primal active-set method's solution, of fields it has formed:
        no equality duals and not polished. Built without the dataclass
        ``__init__``, whose per-field ``object.__setattr__`` is a sizeable
        share of an interior solve's time; the object is as frozen as one
        built by it."""
        new = object.__new__(cls)
        new.__dict__.update(x=x, objective=objective, status=status,
                            primal_residual=primal_residual, dual_residual=dual_residual,
                            iterations=iterations, eq_duals=np.zeros(0),
                            bound_duals=bound_duals, polished=False)
        return new

OPTIMAL = "optimal"
MAX_ITER = "max_iter"
INFEASIBLE = "infeasible"


def _clip(v, lo, hi):
    """np.clip(v, lo, hi) bit for bit, including NaN and signed zeros: both
    return the bound where v equals it, without np.clip's dispatch cost."""
    return np.minimum(np.maximum(v, lo), hi)


def _clip_sentinel(v):
    return _clip(v, -INFINITY_SENTINEL, INFINITY_SENTINEL)


def _ruiz_equilibrate(p, q, a, iters):
    """Deterministic modified Ruiz scaling of the stacked KKT data.

    Returns (d, e, c): variable scaling, constraint scaling, cost scaling.

    The scalings are positive and rounding to nearest is symmetric in sign,
    so |s * x| is s * |x| bit for bit: the magnitudes are taken once, not
    per pass. Rounding is also monotone, so the column maxima of c * D|P|D
    are c times those of D|P|D.
    """
    n, m = p.shape[0], a.shape[0]
    d = np.ones(n)
    e = np.ones(m)
    c = 1.0
    abs_p, abs_q, abs_a = np.abs(p), np.abs(q), np.abs(a)
    p_col_max = abs_p.max(axis=0, initial=0.0)  # of D|P|D, here with D = I
    for _ in range(iters):
        asc = e[:, None] * abs_a * d[None, :]
        col_norms = np.maximum(c * p_col_max, asc.max(axis=0, initial=0.0))
        row_norms = asc.max(axis=1, initial=0.0)
        delta_d = 1.0 / np.sqrt(np.where(col_norms > 1e-12, col_norms, 1.0))
        delta_e = 1.0 / np.sqrt(np.where(row_norms > 1e-12, row_norms, 1.0))
        d *= delta_d
        e *= delta_e
        p_col_max = (d[:, None] * abs_p * d[None, :]).max(axis=0, initial=0.0)
        cost_scale = max(
            float((c * p_col_max).mean()),
            float((c * d * abs_q).max(initial=0.0)),
        )
        if cost_scale > 1e-12:
            c /= cost_scale if cost_scale > 1.0 else 1.0
    return d, e, c


def _rho_vector(base, eq_mask):
    rho = np.full(eq_mask.shape[0], base)
    rho[eq_mask] = base * 1e3
    return _clip(rho, 1e-6, 1e6)


def _lu_factor(mat):
    """scipy.linalg.lu_factor(mat), free to overwrite ``mat``: the same
    LAPACK getrf call, finiteness check and ``info`` handling."""
    if not np.isfinite(mat).all():
        raise ValueError("array must not contain infs or NaNs")
    if mat.size == 0:
        return mat, np.zeros(0, dtype=np.int32)
    lu, piv, info = dgetrf(mat, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrf (lu_factor)")
    if info > 0:
        warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                      LinAlgWarning, stacklevel=2)
    return lu, piv


def _lu_solve(factor, b):
    """scipy.linalg.lu_solve(factor, b): the same LAPACK getrs call and
    the same ValueError for a non-finite right-hand side."""
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    if b.size == 0:
        return np.empty_like(b)
    x, info = dgetrs(factor[0], factor[1], b)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesv|posv")
    return x


def _factor_kkt(p, a, sigma, rho):
    n, m = p.shape[0], a.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = p + sigma * np.eye(n)
    kkt[:n, n:] = a.T
    kkt[n:, :n] = a
    if m:
        kkt[n:, n:] = -np.diag(1.0 / rho)
    return _lu_factor(kkt)


def _unscaled_residuals(prob, a_full, x, z, y, q_norm):
    """Primal and dual residuals and their scales; ``q_norm`` is max |q|."""
    ax = a_full @ x
    r_prim = float(np.abs(ax - z).max(initial=0.0))
    px = prob.P @ x
    aty = a_full.T @ y
    r_dual = float(np.abs(px + prob.q + aty).max(initial=0.0))
    prim_scale = max(float(np.abs(ax).max(initial=0.0)), float(np.abs(z).max(initial=0.0)))
    dual_scale = max(
        float(np.abs(px).max(initial=0.0)), float(np.abs(aty).max(initial=0.0)), q_norm
    )
    return r_prim, r_dual, prim_scale, dual_scale


def _primal_infeasibility_certificate(a_full, lo, hi, dy, eps):
    norm = float(np.abs(dy).max(initial=0.0))
    if norm <= 1e-14:
        return False
    dyn = dy / norm
    if float(np.abs(a_full.T @ dyn).max(initial=0.0)) > eps:
        return False
    support = hi @ np.maximum(dyn, 0.0) + lo @ np.minimum(dyn, 0.0)
    return bool(support <= -eps)


def _dual_infeasibility_certificate(prob, a_full, lo, hi, dx, eps):
    norm = float(np.abs(dx).max(initial=0.0))
    if norm <= 1e-14:
        return False
    dxn = dx / norm
    if float(np.abs(prob.P @ dxn).max(initial=0.0)) > eps:
        return False
    if float(prob.q @ dxn) > -eps:
        return False
    adx = a_full @ dxn
    ok_upper = (adx <= eps) | (hi >= INFINITY_SENTINEL)
    ok_lower = (adx >= -eps) | (lo <= -INFINITY_SENTINEL)
    return bool(np.all(ok_upper & ok_lower))


def _polish(prob, a_full, lo, hi, x, y, z, tol):
    """Solve the reduced KKT system on the identified active set. Returns
    x, y and z with the side of each bound in that set (-1 lower, +1 upper,
    0 none)."""
    n, m_eq = prob.n, prob.n_eq
    y_bounds = y[m_eq:]
    z_bounds = z[m_eq:]
    lower_active = (y_bounds < -tol) | (z_bounds <= prob.lower + tol)
    upper_active = (y_bounds > tol) | (z_bounds >= prob.upper - tol)
    lower_active &= prob.lower > -INFINITY_SENTINEL
    upper_active &= prob.upper < INFINITY_SENTINEL
    both = lower_active & upper_active
    # A pinned variable (equal bounds) counts as upper-active only.
    lower_active &= ~both | (prob.lower != prob.upper)
    upper_active &= ~(lower_active & upper_active)

    low_idx = np.flatnonzero(lower_active)
    up_idx = np.flatnonzero(upper_active)
    k = m_eq + low_idx.size + up_idx.size
    # [[P, A_act'], [A_act, 0]] with A_act = [A_eq; I[low_idx]; I[up_idx]].
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = prob.P
    kkt[n : n + m_eq, :n] = prob.A_eq
    kkt[np.arange(n + m_eq, n + k), np.concatenate([low_idx, up_idx])] = 1.0
    kkt[:n, n:] = kkt[n:, :n].T
    target = np.concatenate([-prob.q, prob.b_eq, prob.lower[low_idx], prob.upper[up_idx]])
    reg = 1e-9 * np.eye(n + k)
    reg[n:, n:] *= -1.0
    try:
        factor = _lu_factor(kkt + reg)
        sol = _lu_solve(factor, target)
        # One round of iterative refinement against the unregularized system.
        sol += _lu_solve(factor, target - kkt @ sol)
    except ValueError:  # non-finite data, or a singular factor's inf/nan solve
        sol, *_ = np.linalg.lstsq(kkt, target, rcond=None)

    x_pol = sol[:n]
    nu = sol[n:]
    y_pol = np.zeros(m_eq + n)
    y_pol[:m_eq] = nu[:m_eq]
    offset = m_eq
    y_pol[m_eq + low_idx] = nu[offset : offset + low_idx.size]
    offset += low_idx.size
    y_pol[m_eq + up_idx] = nu[offset : offset + up_idx.size]
    z_pol = _clip(a_full @ x_pol, lo, hi)
    side = np.zeros(n)
    side[low_idx], side[up_idx] = -1.0, 1.0
    return x_pol, y_pol, z_pol, side


def solve(prob: QpProblem, settings: QpSettings = QpSettings()) -> QpSolution:
    """Solve the QP: by the primal active-set method if it has no equality
    rows and P passed its Cholesky factorization; by the dual active-set
    method if it has equality rows and a KKT matrix [P A_eq'; A_eq 0] that
    is nonsingular to working precision, when its answer passes ADMM's
    residual test; by ADMM otherwise."""
    if prob.n_eq == 0:
        if prob._p_factor is not None:
            return _active_set(prob, prob._p_factor, settings)
    else:
        factor = _kkt_factor(prob)
        if factor is not None:
            sol = _eq_active_set(prob, factor, settings)
            if sol.status == OPTIMAL:
                return sol
    return _admm(prob, settings)


def _nonsingular_lu(mat: np.ndarray):
    """The LU factor (lu, piv) of the square ``mat``, or None when its
    reciprocal 1-norm condition number (LAPACK gecon) is at most size * eps,
    that is, when it is singular to working precision."""
    lu, piv, info = dgetrf(mat)
    if info != 0:
        return None
    rcond, info = dgecon(lu, float(np.abs(mat).sum(axis=0).max()))
    if info != 0 or not rcond > mat.shape[0] * np.finfo(float).eps:
        return None
    return lu, piv


def _kkt_factor(prob: QpProblem):
    """The LU factor of [P A_eq'; A_eq 0] if it is nonsingular to working
    precision, else None. Made by the first solve and kept, with [A_eq; I],
    in ``prob._kkt``, which every problem :meth:`QpProblem.updated` derives
    shares. A P with fewer than n - n_eq nonzero columns is not factored:
    the first block column [P; A_eq] then has rank below n, at most the
    number of those columns plus n_eq."""
    kept = prob._kkt
    if "factor" not in kept:
        p, a, n, m = prob.P, prob.A_eq, prob.n, prob.n_eq
        factor = None
        if m <= n and np.count_nonzero(p.any(axis=0)) >= n - m:
            factor = _nonsingular_lu(_free_block(p, a, np.arange(n)))
        kept.update(factor=factor, a_full=read_only(np.vstack([a, np.eye(n)])))
    return kept["factor"]


def _active_set(prob: QpProblem, factor: np.ndarray, settings: QpSettings) -> QpSolution:
    """Primal active-set method for min 0.5 x'Px + q'x s.t. lower <= x <= upper
    with P positive definite; ``factor`` is P's upper Cholesky factor.

    It starts at the clip of the unconstrained minimizer, with the bounds
    the start lies on as the working set. Each iteration minimizes over the
    variables off the working set, the others held at their bounds, by one
    Cholesky solve of the free block. A step that would leave the box is
    cut at the first bound it meets (lowest index on ties), which joins the
    working set. After a full step, the working bound whose multiplier has
    the most violated sign (lowest index on ties) leaves it; pinned
    variables (equal bounds) never leave. The method stops when no
    multiplier has a wrong sign, or after ``settings.max_iter`` iterations.

    The ratio test is built only when the free block's minimizer leaves
    [lo_f, hi_f]. A minimizer inside it is a full step: rounding is
    monotone, so then no ratio (bound - x) / step falls below 1. A
    minimizer outside it may still give a full step, where rounding makes
    the least ratio exactly 1.

    A multiplier counts as wrong only beyond the rounding error of Px + q,
    n eps (|P||x| + |q|): a zero multiplier that rounds to the wrong sign
    would otherwise drop and re-add the same bound until max_iter. |P| is
    the problem's own (``prob._abs_p``), shared by every problem
    :meth:`QpProblem.updated` derives; |q| is taken once per solve. The
    gradient of the last multiplier test gives the reported multipliers
    and ``dual_residual``; it is formed again only when no multiplier test
    has seen the final x (a blocked step ended the last iteration).

    An unconstrained minimizer strictly inside the box is returned at once,
    decided by one comparison right after the solve, lower < x_unc < upper
    in every entry. NaN and +-inf fail it, so it also proves x_unc finite.
    That is the first iteration with its dead work removed: the start lies
    on no bound, so with an empty working set the step is zero, no bound
    blocks it and no multiplier can be wrong. It reports what the loop
    would: ``iterations`` 1, zero ``bound_duals``, ``primal_residual`` 0 and
    ``dual_residual`` max |Px + q|. A finite minimizer that fails the
    comparison lies on or beyond a bound (on one with equal bounds too), so
    its clip starts the loop with that bound working. A non-finite
    unconstrained minimizer or step (P nearly singular in working precision)
    goes to ``_admm``, as a free block that fails potrf does, so no
    non-finite x is returned.
    """
    p, q, lo, hi = prob.P, prob.q, prob.lower, prob.upper
    n = prob.n
    x_unc = dpotrs(factor, -q)[0]
    if ((lo < x_unc) & (x_unc < hi)).all():  # the first iteration, its dead work removed
        g = p @ x_unc + q
        return QpSolution._of_active_set(
            x_unc, float(0.5 * x_unc @ p @ x_unc + q @ x_unc), OPTIMAL,
            0.0, float(np.abs(g).max(initial=0.0)), 1, np.zeros(n))
    if not np.isfinite(x_unc).all():
        return _admm(prob, settings)
    x = _clip(x_unc, lo, hi)  # on a bound, since x_unc is finite and not inside
    at_lo, at_hi = x == lo, x == hi
    abs_q, round_off = np.abs(q), n * _EPS
    g, status, it = None, MAX_ITER, 0  # g: Px + q at the current x, or None
    while it < settings.max_iter:
        it += 1
        free = ~(at_lo | at_hi)
        f = free.nonzero()[0]
        if f.size:
            if f.size == n:
                target = x_unc
            else:
                sub, info = dpotrf(p[f[:, None], f])
                if info:  # a free block that rounding made not positive definite
                    return _admm(prob, settings)
                target = dpotrs(sub, -(q + p @ np.where(free, 0.0, x))[f])[0]
            xf = x[f]
            step = target - xf
            if not np.isfinite(step).all():
                return _admm(prob, settings)
            lo_f, hi_f = lo[f], hi[f]
            if ((target < lo_f) | (target > hi_f)).any():  # else no ratio is below 1
                ratio = np.full(f.size, np.inf)
                down, up = step < 0.0, step > 0.0
                ratio[down] = (lo_f[down] - xf[down]) / step[down]
                ratio[up] = (hi_f[up] - xf[up]) / step[up]
                j = int(ratio.argmin())
                if ratio[j] < 1.0:
                    x[f] = _clip(xf + ratio[j] * step, lo_f, hi_f)
                    block = f[j]
                    if up[j]:
                        x[block], at_hi[block] = hi[block], True
                    else:
                        x[block], at_lo[block] = lo[block], True
                    g = None
                    continue
            x[f] = target
        g = p @ x + q
        wrong = np.where(at_lo, -g, g)
        wrong[~(at_lo ^ at_hi)] = 0.0  # free variables and pinned ones
        wrong[wrong <= round_off * (prob._abs_p @ np.abs(x) + abs_q)] = 0.0
        k = int(wrong.argmax())
        if wrong[k] == 0.0:
            status = OPTIMAL
            break
        at_lo[k] = at_hi[k] = False

    if g is None:
        g = p @ x + q
    duals = np.where(at_lo | at_hi, -g, 0.0)
    return QpSolution._of_active_set(
        x, float(0.5 * x @ p @ x + q @ x), status,
        float(np.maximum(lo - x, x - hi).max(initial=0.0)),
        float(np.abs(g + duals).max(initial=0.0)), it, duals)


def _eq_active_set(prob: QpProblem, factor, settings: QpSettings) -> QpSolution:
    """Goldfarb-Idnani dual active-set method (Math. Prog. 27, 1983) on the
    bounds of min 0.5 x'Px + q'x s.t. A_eq x = b_eq, lower <= x <= upper,
    whose KKT matrix [P A_eq'; A_eq 0] is nonsingular; ``factor`` is its LU.

    It starts at the equality-constrained minimizer with an empty working
    set, so it needs no phase 1. Each iteration solves the free-block KKT
    system [P_FF A_F'; A_F 0], the variables off the working set F, the
    others held at their bounds. From a working set it has just reached it
    solves for the minimizer and the multipliers and takes the bound the
    minimizer violates most (lowest index on ties); none violated beyond
    rounding, n eps max |x|, ends the method. That bound's multiplier is
    then raised from zero, with the primal step and the multiplier change
    per unit from the same system, until the bound holds and joins the
    working set, or, first, until a working bound's multiplier falls to zero
    (lowest index on ties) and that bound leaves; pinned variables (equal
    bounds) never leave. A violated bound that no step can meet and no
    working bound can free proves the problem infeasible.

    The answer has status ``optimal`` only if it passes ADMM's residual test
    (``eps_abs``/``eps_rel``) and every bound multiplier has the sign of its
    bound; a multiplier on the wrong side by rounding, n eps (|P||x| + |q| +
    |A_eq'||nu|), counts as zero. A free block singular to working precision,
    a non-finite iterate or ``max_iter`` iterations end the method with
    ``max_iter``, and a proven infeasibility with ``infeasible``. It reports
    ``iterations`` as the number of working sets solved on, the equality
    multipliers nu and the bound multipliers -(Px + q + A_eq' nu) on the
    working set, and ``polished`` False.
    """
    p, q, a, b, lo, hi = prob.P, prob.q, prob.A_eq, prob.b_eq, prob.lower, prob.upper
    n, m = prob.n, prob.n_eq
    side = np.zeros(n)  # -1 for a working lower bound, +1 for an upper one
    round_off = n * np.finfo(float).eps
    x, nu, duals = np.zeros(n), np.zeros(m), np.zeros(n)  # duals: -(Px + q + A_eq' nu)
    adding = None  # (index, side) of the bound whose multiplier is being raised
    full, status, it = factor, MAX_ITER, 0
    while it < settings.max_iter:
        it += 1
        free = side == 0.0
        f = np.flatnonzero(free)
        if it > 1:
            factor = full if f.size == n else _nonsingular_lu(_free_block(p, a, f))
            if factor is None:
                break
        if adding is None:
            # The minimizer with the working bounds held.
            if f.size == n:
                rhs = np.concatenate([-q, b])
            else:
                x = np.where(side < 0.0, lo, hi)
                x[f] = 0.0
                rhs = np.concatenate([-(q + p @ x)[f], b - a @ x])
            sol = dgetrs(factor[0], factor[1], rhs)[0]
            if not np.isfinite(sol).all():
                break
            if f.size == n:
                x, duals = sol[:n].copy(), np.zeros(n)
            else:
                x[f] = sol[: f.size]
                duals = np.where(free, 0.0, -(p @ x + q + a.T @ sol[f.size :]))
            nu = sol[f.size :]
            violation = np.maximum(lo - x, x - hi)  # at most 0 on the working set
            k = int(np.argmax(violation))
            if not violation[k] > round_off * float(np.abs(x).max()):
                status = OPTIMAL
                break
            adding = (k, -1.0 if x[k] < lo[k] else 1.0)
            u = side * duals  # the multipliers' magnitudes, >= 0 but for rounding
        k, s_k = adding
        rhs = np.zeros(f.size + m)
        rhs[np.searchsorted(f, k)] = -s_k
        step = dgetrs(factor[0], factor[1], rhs)[0]
        if not np.isfinite(step).all():
            break
        dx = np.zeros(n)
        dx[f] = step[: f.size]
        dnu = step[f.size :]
        du = -side * (p @ dx + a.T @ dnu)  # zero off the working set
        gap = lo[k] - x[k] if s_k < 0.0 else x[k] - hi[k]
        rate = -s_k * dx[k]  # the decrease of the gap per unit multiplier
        t_full = max(gap, 0.0) / rate if rate > 0.0 else np.inf
        ratio = np.full(n, np.inf)
        leaving = (du < 0.0) & (lo != hi)
        ratio[leaving] = np.maximum(u[leaving], 0.0) / -du[leaving]
        j = int(np.argmin(ratio))
        t = min(t_full, ratio[j])
        if t == np.inf:
            status = INFEASIBLE
            break
        x += t * dx
        if not np.isfinite(x).all():
            break
        nu = nu + t * dnu
        u += t * du
        if t_full <= ratio[j]:
            side[k] = s_k
            adding = None
        else:
            side[j] = u[j] = 0.0

    if status == OPTIMAL:
        wrong, beyond = _sign_test(prob, x, nu, duals, side)
        if beyond:
            status = MAX_ITER
        duals[wrong] = 0.0
    y = np.concatenate([nu, duals])
    z = np.concatenate([b, _clip(x, lo, hi)])
    r_p, r_d, s_p, s_d = _unscaled_residuals(prob, prob._kkt["a_full"], x, z, y,
                                             float(np.abs(q).max(initial=0.0)))
    if status == OPTIMAL and not (r_p <= settings.eps_abs + settings.eps_rel * s_p
                                  and r_d <= settings.eps_abs + settings.eps_rel * s_d):
        status = MAX_ITER
    return QpSolution(
        x=x, objective=float(0.5 * x @ p @ x + q @ x), status=status,
        primal_residual=r_p, dual_residual=r_d, iterations=it,
        eq_duals=nu, bound_duals=duals,
    )


def _sign_test(prob: QpProblem, x, nu, duals, side) -> tuple[np.ndarray, bool]:
    """(wrong, beyond): the mask of the bound multipliers ``duals`` whose
    sign is not their bound's (``side`` -1 lower, +1 upper, 0 none), pinned
    variables (equal bounds) excepted, and whether one of them is wrong
    beyond rounding, n eps (|P||x| + |q| + |A_eq'||nu|)."""
    wrong = (side * duals < 0.0) & (prob.lower != prob.upper)
    if not wrong.any():
        return wrong, False
    near = prob.n * _EPS * (np.abs(prob.P) @ np.abs(x) + np.abs(prob.q)
                            + np.abs(prob.A_eq.T) @ np.abs(nu))
    return wrong, bool(np.any(wrong & (np.abs(duals) > near)))


def _free_block(p, a, f) -> np.ndarray:
    """The KKT matrix [P_FF A_F'; A_F 0] of the variables ``f``."""
    size, m = f.size, a.shape[0]
    kkt = np.zeros((size + m, size + m))
    kkt[:size, :size] = p[f[:, None], f]
    kkt[:size, size:] = a[:, f].T
    kkt[size:, :size] = a[:, f]
    return kkt


def _admm(prob: QpProblem, settings: QpSettings) -> QpSolution:
    """Run the operator-splitting iteration until the unscaled KKT residuals
    meet eps_abs/eps_rel, infeasibility is certified, or max_iter is hit."""
    n, m_eq = prob.n, prob.n_eq
    m = m_eq + n
    a_full = np.vstack([prob.A_eq, np.eye(n)])
    eq_mask = np.ones(m, dtype=bool)
    eq_mask[m_eq:] = _clip_sentinel(prob.lower) == _clip_sentinel(prob.upper)

    d, e, c = _ruiz_equilibrate(prob.P, prob.q, a_full, _SCALING_ITERS)
    e_over_c = e / c
    ps = c * (d[:, None] * prob.P * d[None, :])
    qs = c * d * prob.q
    asc = e[:, None] * a_full * d[None, :]
    q_norm = float(np.abs(prob.q).max(initial=0.0))
    rho = _rho_vector(_RHO, eq_mask)
    factor = _factor_kkt(ps, asc, _SIGMA, rho)
    lo = _clip_sentinel(np.concatenate([prob.b_eq, prob.lower]))
    hi = _clip_sentinel(np.concatenate([prob.b_eq, prob.upper]))
    los = _clip_sentinel(e * lo)
    his = _clip_sentinel(e * hi)

    # state holds [x; z_relaxed] during an update and [x; z] between them;
    # x and z are views into it. rhs is the KKT right-hand side.
    state = np.zeros(n + m)
    x, z = state[:n], state[n:]
    z[:] = _clip(z, los, his)
    y = np.zeros(m)
    rhs = np.empty(n + m)
    rhs_x, rhs_z = rhs[:n], rhs[n:]
    x_check_prev = x.copy()
    y_check_prev = y.copy()

    def unscale(xb, zb, yb):
        return d * xb, zb / e, e_over_c * yb

    def try_finish(xb, zb, yb, iters, status_if_bad):
        xu, zu, yu = unscale(xb, zb, yb)
        r_p, r_d, s_p, s_d = _unscaled_residuals(prob, a_full, xu, zu, yu, q_norm)
        tol = max(settings.eps_abs * 100, 1e-10)
        xp, yp, zp, side = _polish(prob, a_full, lo, hi, xu, yu, zu, tol=tol)
        rp_p, rd_p, sp_p, sd_p = _unscaled_residuals(prob, a_full, xp, zp, yp, q_norm)
        # The polished candidate must itself respect the bounds, attain every
        # bound it holds active, and its bound multipliers must have their
        # bounds' signs: the reduced KKT solve ensures none of these.
        viol = max(
            float((prob.lower - xp).max(initial=0.0)),
            float((xp - prob.upper).max(initial=0.0)),
        )
        active = side != 0.0
        bound = np.where(side < 0.0, prob.lower, prob.upper)
        off_bound = float(np.abs(xp[active] - bound[active]).max(initial=0.0))
        polished = bool(max(rp_p, viol) <= max(r_p, 1e-12) and rd_p <= max(r_d, 1e-12)
                        and off_bound <= tol
                        and not _sign_test(prob, xp, yp[:m_eq], yp[m_eq:], side)[1])
        if polished:
            xu, yu, r_p, r_d, s_p, s_d = xp, yp, max(rp_p, viol), rd_p, sp_p, sd_p
        eps_p = settings.eps_abs + settings.eps_rel * s_p
        eps_d = settings.eps_abs + settings.eps_rel * s_d
        status = OPTIMAL if (r_p <= eps_p and r_d <= eps_d) else status_if_bad
        obj = float(0.5 * xu @ prob.P @ xu + prob.q @ xu)
        return QpSolution(
            x=xu, objective=obj, status=status,
            primal_residual=r_p, dual_residual=r_d, iterations=iters,
            eq_duals=yu[:m_eq], bound_duals=yu[m_eq:], polished=polished,
        )

    beta = 1.0 - _ALPHA
    iters_done = settings.max_iter
    for it in range(1, settings.max_iter + 1):
        # Each line computes, elementwise, what its comment states, with
        # the same roundings; a + b and a * b are commutative in IEEE.
        y_rho = y / rho
        np.subtract(_SIGMA * x, qs, out=rhs_x)
        np.subtract(z, y_rho, out=rhs_z)
        sol = _lu_solve(factor, rhs)  # [x_tilde; nu]
        nu = sol[n:]
        nu -= y
        nu /= rho
        nu += z  # z_tilde = z + (nu - y) / rho
        sol *= _ALPHA
        state *= beta
        state += sol  # [x; z_relaxed] = alpha [x_tilde; z_tilde] + (1 - alpha) [x; z]
        z_new = _clip(z + y_rho, los, his)  # z_relaxed + y / rho, projected
        z -= z_new
        z *= rho
        y += z  # y + rho (z_relaxed - z_new)
        z[:] = z_new

        if it % _CHECK_INTERVAL == 0 or it == settings.max_iter:
            xu, zu, yu = unscale(x, z, y)
            r_p, r_d, s_p, s_d = _unscaled_residuals(prob, a_full, xu, zu, yu, q_norm)
            eps_p = settings.eps_abs + settings.eps_rel * s_p
            eps_d = settings.eps_abs + settings.eps_rel * s_d
            trigger = max(100.0 * settings.eps_abs, 1e-7)
            if (r_p <= eps_p and r_d <= eps_d) or (r_p <= trigger and r_d <= trigger):
                candidate = try_finish(x, z, y, it, MAX_ITER)
                if candidate.status == OPTIMAL:
                    return candidate

            # A primal (dual) infeasibility ray is only credible while the
            # primal (dual) residual itself refuses to converge; otherwise a
            # vanishing delta can alias into a spurious certificate.
            if r_p > 10.0 * eps_p and _primal_infeasibility_certificate(
                a_full, lo, hi, e_over_c * (y - y_check_prev), _EPS_INFEASIBLE
            ):
                return QpSolution(
                    x=xu, objective=np.nan, status=INFEASIBLE,
                    primal_residual=r_p, dual_residual=r_d, iterations=it,
                    eq_duals=yu[:m_eq], bound_duals=yu[m_eq:],
                )
            if r_d > 10.0 * eps_d and _dual_infeasibility_certificate(
                prob, a_full, lo, hi, d * (x - x_check_prev), _EPS_INFEASIBLE
            ):
                return QpSolution(
                    x=xu, objective=np.nan, status=INFEASIBLE,
                    primal_residual=r_p, dual_residual=r_d, iterations=it,
                    eq_duals=yu[:m_eq], bound_duals=yu[m_eq:],
                )
            x_check_prev = x.copy()
            y_check_prev = y.copy()

            if it % _ADAPTIVE_RHO_INTERVAL == 0 and it < settings.max_iter:
                num = r_p / max(s_p, 1e-12)
                den = r_d / max(s_d, 1e-12)
                if num > 1e-14 and den > 1e-14:
                    ratio = np.sqrt(num / den)
                    if ratio > 5.0 or ratio < 0.2:
                        rho = _clip(rho * ratio, 1e-6, 1e6)
                        factor = _factor_kkt(ps, asc, _SIGMA, rho)

    return try_finish(x, z, y, iters_done, MAX_ITER)


def l1_epigraph(prob: QpProblem, weight: float, selector) -> tuple[QpProblem, np.ndarray]:
    """Augment the problem with weight * sum |x_i| over ``selector``.

    Each selected variable is split as x_i = pos_i - neg_i with pos, neg >= 0
    and linear cost weight on both, which is the epigraph of the absolute
    value within the equality-plus-box problem class. Returns the augmented
    problem and the indices of the original variables inside it, which is an
    exact projection of any augmented minimizer.
    """
    if weight < 0.0:
        raise ValueError(f"weight must be nonnegative, got {weight}")
    sel = np.asarray(selector, dtype=int).reshape(-1)
    n = prob.n
    if sel.size and (sel.min() < 0 or sel.max() >= n):
        raise ShapeError(f"selector out of range for {n} variables")
    k = sel.size
    n_aug = n + 2 * k

    p_aug = np.zeros((n_aug, n_aug))
    p_aug[:n, :n] = prob.P
    q_aug = np.concatenate([prob.q, np.full(2 * k, weight)])

    link = np.zeros((k, n_aug))
    link[np.arange(k), sel] = 1.0
    link[np.arange(k), n + np.arange(k)] = -1.0  # pos part
    link[np.arange(k), n + k + np.arange(k)] = 1.0  # neg part
    a_aug = np.vstack([np.hstack([prob.A_eq, np.zeros((prob.n_eq, 2 * k))]), link])
    b_aug = np.concatenate([prob.b_eq, np.zeros(k)])

    lower = np.concatenate([prob.lower, np.zeros(2 * k)])
    upper = np.concatenate([prob.upper, np.full(2 * k, np.inf)])
    aug = QpProblem(P=p_aug, q=q_aug, A_eq=a_aug, b_eq=b_aug, lower=lower, upper=upper)
    return aug, np.arange(n)


@dataclass(frozen=True)
class ConditionReport:
    lambda_min: float
    lambda_max: float
    eq_rank: int

    @property
    def indefinite(self) -> bool:
        return self.lambda_min < -1e-10 * max(1.0, abs(self.lambda_max))


def condition_report(prob) -> ConditionReport:
    """Extremal eigenvalues of the cost and the equality-constraint rank.

    Accepts a QpProblem or a bare symmetric cost matrix (the latter is how
    candidate Hessians are diagnosed before they are admissible as QP data,
    e.g. an indefinite robust-controller Hessian below its threshold).
    """
    if isinstance(prob, QpProblem):
        cost, a_eq = prob.P, prob.A_eq
    else:
        cost, a_eq = np.asarray(prob, dtype=float), None
    dec = sym_eig(cost)
    rank = matrix_rank(a_eq) if a_eq is not None and a_eq.shape[0] else 0
    return ConditionReport(
        lambda_min=float(dec.values[-1]), lambda_max=float(dec.values[0]), eq_rank=rank
    )
