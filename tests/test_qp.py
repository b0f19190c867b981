"""Tests for the dense QP solvers: the primal and dual active-set methods
and ADMM."""

import dataclasses

import numpy as np
import pytest
from conftest import assert_same_fields, record_solver_paths
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dpotrf, dpotrs

from gdpc import qp
from gdpc.errors import InvalidMatrix, ShapeError
from gdpc.qp import (
    QpProblem,
    QpSettings,
    condition_report,
    l1_epigraph,
    solve,
)


def kkt_oracle(p, q, a, b):
    """Direct equality-constrained KKT solve: [[P, A'],[A, 0]]."""
    n, m = p.shape[0], a.shape[0]
    kkt = np.block([[p, a.T], [a, np.zeros((m, m))]])
    sol = np.linalg.solve(kkt, np.concatenate([-q, b]))
    return sol[:n], sol[n:]


def random_equality_qp(rng, n=10, m=3):
    b_mat = rng.standard_normal((n, n))
    p = b_mat @ b_mat.T + 0.5 * np.eye(n)
    q = rng.standard_normal(n)
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return QpProblem(P=p, q=q, A_eq=a, b_eq=b)


class TestBasicSolves:
    def test_unconstrained_scalar(self):
        # min 0.5 x^2 - x  ->  x = 1, objective -0.5.
        sol = solve(QpProblem(P=[[1.0]], q=[-1.0]))
        assert sol.status == "optimal"
        assert np.isclose(sol.x[0], 1.0, atol=1e-8)
        assert np.isclose(sol.objective, -0.5, atol=1e-8)

    def test_active_lower_bound(self):
        sol = solve(QpProblem(P=[[1.0]], q=[0.0], lower=[2.0]))
        assert sol.status == "optimal"
        assert np.isclose(sol.x[0], 2.0, atol=1e-8)

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(1)
        prob = random_equality_qp(rng)
        x_ref, _ = kkt_oracle(prob.P, prob.q, prob.A_eq, prob.b_eq)
        sol = solve(prob)
        assert sol.status == "optimal"
        assert np.max(np.abs(sol.x - x_ref)) < 1e-6

    def test_kkt_oracle_sweep(self):
        # 200 random strictly convex equality-constrained instances.
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, n))
            prob = random_equality_qp(rng, n=n, m=m)
            x_ref, _ = kkt_oracle(prob.P, prob.q, prob.A_eq, prob.b_eq)
            sol = solve(prob)
            assert sol.status == "optimal"
            worst = max(worst, float(np.max(np.abs(sol.x - x_ref))))
        assert worst < 1e-6

    def test_stationarity_with_recovered_multipliers(self):
        rng = np.random.default_rng(3)
        prob = QpProblem(
            P=np.diag([1.0, 2.0, 0.5]),
            q=rng.standard_normal(3),
            A_eq=[[1.0, 1.0, 1.0]],
            b_eq=[1.0],
            lower=[-0.2, -0.2, -0.2],
            upper=[0.8, 0.8, 0.8],
        )
        sol = solve(prob)
        assert sol.status == "optimal"
        grad = prob.P @ sol.x + prob.q + prob.A_eq.T @ sol.eq_duals + sol.bound_duals
        scale = max(1.0, float(np.max(np.abs(prob.q))))
        assert np.max(np.abs(grad)) < 1e-5 * scale

    def test_scaling_invariance_of_argmin(self):
        rng = np.random.default_rng(4)
        prob = random_equality_qp(rng, n=6, m=2)
        sol = solve(prob)
        scaled = QpProblem(
            P=7.5 * prob.P, q=7.5 * prob.q, A_eq=prob.A_eq, b_eq=prob.b_eq
        )
        sol_scaled = solve(scaled)
        assert np.max(np.abs(sol.x - sol_scaled.x)) < 1e-6

    def test_box_only_projection(self):
        # min 0.5||x - c||^2 inside a box is the clipped center.
        rng = np.random.default_rng(5)
        c = rng.standard_normal(6) * 2.0
        prob = QpProblem(
            P=np.eye(6), q=-c, lower=-np.ones(6), upper=np.ones(6)
        )
        sol = solve(prob)
        assert np.max(np.abs(sol.x - np.clip(c, -1, 1))) < 1e-7

    def test_pinned_variable_via_equal_bounds(self):
        prob = QpProblem(
            P=np.eye(3), q=np.array([1.0, -2.0, 0.5]),
            lower=np.array([0.3, -np.inf, -1.0]),
            upper=np.array([0.3, np.inf, 1.0]),
        )
        sol = solve(prob)
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [0.3, 2.0, -0.5], atol=1e-8)

    def test_semidefinite_cost_with_equalities(self):
        # Flat directions pinned by constraints only.
        prob = QpProblem(
            P=np.diag([1.0, 0.0]),
            q=[0.0, 1.0],
            A_eq=[[0.0, 1.0]],
            b_eq=[2.0],
        )
        sol = solve(prob)
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [0.0, 2.0], atol=1e-7)


class TestInfeasibility:
    def test_conflicting_equalities(self):
        prob = QpProblem(
            P=np.eye(1), q=[0.0], A_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0]
        )
        sol = solve(prob)
        assert sol.status == "infeasible"

    def test_equality_outside_box(self):
        prob = QpProblem(
            P=np.eye(2), q=[0.0, 0.0],
            A_eq=[[1.0, 1.0]], b_eq=[10.0],
            lower=[-1.0, -1.0], upper=[1.0, 1.0],
        )
        sol = solve(prob)
        assert sol.status == "infeasible"


class TestL1Epigraph:
    def test_soft_threshold(self):
        # min 0.5 (x-3)^2 + |x|  ->  x = 2 (shrink by the weight).
        base = QpProblem(P=[[1.0]], q=[-3.0])
        aug, idx = l1_epigraph(base, weight=1.0, selector=[0])
        sol = solve(aug)
        assert sol.status == "optimal"
        assert np.isclose(sol.x[idx][0], 2.0, atol=1e-6)

    def test_zero_weight_recovers_original(self):
        rng = np.random.default_rng(6)
        base = random_equality_qp(rng, n=5, m=2)
        ref = solve(base)
        aug, idx = l1_epigraph(base, weight=0.0, selector=np.arange(5))
        sol = solve(aug)
        assert np.max(np.abs(sol.x[idx] - ref.x)) < 1e-6

    def test_pure_l1_with_bound(self):
        # min |x| s.t. x >= 1  ->  x = 1.
        base = QpProblem(P=[[0.0]], q=[0.0], lower=[1.0])
        aug, idx = l1_epigraph(base, weight=1.0, selector=[0])
        sol = solve(aug)
        assert sol.status == "optimal"
        assert np.isclose(sol.x[idx][0], 1.0, atol=1e-6)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            l1_epigraph(QpProblem(P=[[1.0]], q=[0.0]), weight=-1.0, selector=[0])


class TestConditionReport:
    def test_identity(self):
        rep = condition_report(QpProblem(P=np.eye(3), q=np.zeros(3)))
        assert np.isclose(rep.lambda_min, 1.0)
        assert np.isclose(rep.lambda_max, 1.0)
        assert rep.eq_rank == 0

    def test_zero_cost(self):
        rep = condition_report(QpProblem(P=np.zeros((2, 2)), q=np.zeros(2)))
        assert np.isclose(rep.lambda_min, 0.0)
        assert np.isclose(rep.lambda_max, 0.0)

    def test_equality_rank(self):
        rep = condition_report(
            QpProblem(
                P=np.eye(3), q=np.zeros(3),
                A_eq=[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], b_eq=[0.0, 0.0],
            )
        )
        assert rep.eq_rank == 1


class TestValidation:
    def test_rejects_indefinite_cost(self):
        with pytest.raises(ShapeError):
            QpProblem(P=[[-1.0]], q=[0.0])

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ShapeError):
            QpProblem(P=[[1.0]], q=[0.0], lower=[1.0], upper=[0.0])

    def test_rejects_nonfinite_cost(self):
        with pytest.raises(ShapeError):
            QpProblem(P=[[1.0]], q=[np.inf])

    def test_cholesky_proves_a_definite_cost_psd(self, monkeypatch):
        def no_eigenvalues(*args):
            raise AssertionError("is_psd called")

        monkeypatch.setattr(qp, "is_psd", no_eigenvalues)
        b = np.random.default_rng(9).standard_normal((6, 6))
        QpProblem(P=b @ b.T + 0.1 * np.eye(6), q=np.zeros(6))

    def test_only_a_failed_cholesky_takes_the_eigenvalue_test(self, monkeypatch):
        calls = []
        is_psd = qp.is_psd
        monkeypatch.setattr(qp, "is_psd", lambda *args: calls.append(1) or is_psd(*args))
        QpProblem(P=np.diag([1.0, 0.0]), q=[0.0, 0.0])
        assert calls == [1]
        with pytest.raises(ShapeError):
            QpProblem(P=np.diag([1.0, -1.0]), q=[0.0, 0.0])
        assert calls == [1, 1]

    @pytest.mark.parametrize("field,value", [
        ("max_iter", -3), ("max_iter", 0), ("max_iter", 2.5), ("max_iter", True),
        ("eps_abs", float("nan")), ("eps_abs", -1.0), ("eps_rel", float("inf")),
        ("eps_rel", -1e-12),
    ])
    def test_settings_reject_bad_fields(self, field, value):
        # An equality QP with max_iter -3 returned iterations -3 and an x off
        # the equality; eps_abs NaN or -1 ran ADMM for all its iterations.
        with pytest.raises(ValueError, match=rf"^{field} "):
            QpSettings(**{field: value})

    def test_settings_accept_their_smallest_values(self):
        settings = QpSettings(eps_abs=0.0, eps_rel=0, max_iter=np.int64(1))
        assert (settings.eps_abs, settings.eps_rel, settings.max_iter) == (0.0, 0, 1)

    def test_arrays_are_read_only_copies(self):
        q, lower = np.zeros(2), -np.ones(2)
        prob = QpProblem(P=np.eye(2), q=q, lower=lower)
        q[0] = lower[0] = 5.0
        assert prob.q[0] == 0.0 and prob.lower[0] == -1.0
        for array in (prob.P, prob.q, prob.A_eq, prob.b_eq, prob.lower, prob.upper):
            assert not array.flags.writeable
        box_only = prob
        given = {"P": 2.0 * np.eye(3), "q": np.ones(3), "A_eq": np.ones((1, 3)),
                 "b_eq": np.ones(1), "lower": -np.ones(3), "upper": np.ones(3)}
        kept = {name: value.copy() for name, value in given.items()}
        prob = QpProblem(**given)
        for name, value in given.items():
            assert value.flags.writeable  # the caller's array is left as it was
            value[...] = 7.0
            assert np.array_equal(getattr(prob, name), kept[name])
            assert not getattr(prob, name).flags.writeable
        for array in (box_only._p_factor, box_only._abs_p, prob._p_factor):
            assert not array.flags.writeable


def reject_polish(monkeypatch):
    """Make ADMM's polish return a candidate that its checks reject, x moved
    far off the constraints, so that ADMM answers with its own iterate.
    Returns the list that each polish call appends to."""
    calls = []

    def far_off(prob, a_full, lo, hi, x, y, z, tol):
        calls.append(tol)
        return x + 1e6, y, z, np.zeros(prob.n)

    monkeypatch.setattr(qp, "_polish", far_off)
    return calls


class TestDeterminism:
    def test_bit_reproducible(self):
        rng = np.random.default_rng(7)
        prob = random_equality_qp(rng, n=8, m=3)
        a = solve(prob)
        b = solve(prob)
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations

    def test_max_iter_status(self, monkeypatch):
        # ADMM polishes this QP to optimal after any number of iterations;
        # with its polish rejected, two iterations leave it short.
        rng = np.random.default_rng(8)
        prob = random_equality_qp(rng, n=8, m=3)
        polish_calls = reject_polish(monkeypatch)
        sol = qp._admm(prob, QpSettings(max_iter=2))
        assert polish_calls and not sol.polished
        assert sol.status == "max_iter"


def ruiz_reference(p, q, a, iters):
    """The plain statement of the modified Ruiz scaling: every pass rescales
    the signed data and takes magnitudes afresh."""
    n, m = p.shape[0], a.shape[0]
    d = np.ones(n)
    e = np.ones(m)
    c = 1.0
    for _ in range(iters):
        ps = c * (d[:, None] * p * d[None, :])
        asc = e[:, None] * a * d[None, :]
        col_norms = np.maximum(
            np.max(np.abs(ps), axis=0, initial=0.0),
            np.max(np.abs(asc), axis=0, initial=0.0),
        )
        row_norms = np.max(np.abs(asc), axis=1, initial=0.0) if m else np.zeros(0)
        delta_d = 1.0 / np.sqrt(np.where(col_norms > 1e-12, col_norms, 1.0))
        delta_e = 1.0 / np.sqrt(np.where(row_norms > 1e-12, row_norms, 1.0))
        d *= delta_d
        e *= delta_e
        ps = c * (d[:, None] * p * d[None, :])
        cost_scale = max(
            float(np.mean(np.max(np.abs(ps), axis=0, initial=0.0))),
            float(np.max(np.abs(c * d * q), initial=0.0)),
        )
        if cost_scale > 1e-12:
            c /= cost_scale if cost_scale > 1.0 else 1.0
    return d, e, c


class TestBitIdentity:
    """The fast kernels return the bits of the plain forms they replace."""

    def test_ruiz_matches_reference(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(1, 15))
            m = int(rng.integers(0, 12))
            b = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-4, 4, size=n)
            p = b @ b.T if trial % 2 else b + b.T  # PSD and indefinite
            q = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6)
            a = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
            if m and trial % 3 == 0:
                a[rng.integers(m)] = 0.0  # a zero row
            if trial % 4 == 0:
                col = rng.integers(n)  # a zero column of both P and A
                p[:, col] = p[col, :] = 0.0
                a[:, col] = -0.0
            if trial % 5 == 0:
                a = np.vstack([a, np.eye(n)])  # the solver's [A_eq; I] shape
            got = qp._ruiz_equilibrate(p, q, a, 10)
            want = ruiz_reference(p, q, a, 10)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]

    def test_ruiz_with_empty_constraints(self):
        rng = np.random.default_rng(12)
        b = rng.standard_normal((5, 5))
        p, q, a = b @ b.T, rng.standard_normal(5), np.zeros((0, 5))
        got = qp._ruiz_equilibrate(p, q, a, 10)
        want = ruiz_reference(p, q, a, 10)
        assert np.array_equal(got[0], want[0])
        assert got[1].shape == want[1].shape == (0,)
        assert got[2] == want[2]

    def test_kkt_solve_matches_scipy(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n, m = int(rng.integers(1, 30)), int(rng.integers(1, 40))
            b = rng.standard_normal((n, n))
            p, a = b @ b.T, rng.standard_normal((m, n))
            rho = 10.0 ** rng.uniform(-6, 6, size=m)
            factor = qp._factor_kkt(p, a, 1e-6, rho)
            kkt = np.block([[p + 1e-6 * np.eye(n), a.T], [a, -np.diag(1.0 / rho)]])
            lu, piv = lu_factor(kkt)
            assert np.array_equal(factor[0], lu) and np.array_equal(factor[1], piv)
            rhs = rng.standard_normal(n + m)
            assert np.array_equal(qp._lu_solve(factor, rhs), lu_solve((lu, piv), rhs))

    def test_kkt_solve_rejects_non_finite_right_hand_side(self):
        factor = qp._lu_factor(np.eye(3) + 1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                qp._lu_solve(factor, np.array([1.0, bad, 0.0]))

    def test_projection_matches_clip(self):
        v = np.array([-0.0, 0.0, -0.0, 0.0, np.nan, 2.0, -2.0, 0.5, -np.inf])
        lo = np.array([0.0, -0.0, -0.0, 0.0, 0.0, -1.0, -1.0, 0.0, -1.0])
        hi = np.array([0.0, -0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 1.0])
        got, want = qp._clip(v, lo, hi), np.clip(v, lo, hi)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_non_finite_iterate_raises(self, monkeypatch):
        # A factor with a zero pivot turns the first solve into inf/nan,
        # which the next iteration's right-hand side carries.
        def singular_factor(p, a, sigma, rho):
            size = p.shape[0] + a.shape[0]
            return np.zeros((size, size)), np.arange(size, dtype=np.int32)

        monkeypatch.setattr(qp, "_factor_kkt", singular_factor)
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="infs or NaNs"), np.errstate(all="ignore"):
            qp._admm(random_equality_qp(rng, n=4, m=2), QpSettings())

    def test_non_finite_constraint_data_raises(self):
        with pytest.raises(ValueError):
            solve(QpProblem(P=np.eye(2), q=[1.0, 0.0], A_eq=[[np.nan, 1.0]], b_eq=[0.0]))
        base = dict(P=np.eye(2), q=[1.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[0.0],
                    lower=[-1.0, -1.0], upper=[1.0, 1.0])
        for name, value in (("A_eq", [[np.nan, 1.0]]), ("A_eq", [[np.inf, 1.0]]),
                            ("b_eq", [np.nan]), ("b_eq", [-np.inf]),
                            ("lower", [np.nan, -1.0]), ("upper", [1.0, np.nan])):
            with pytest.raises(ShapeError):
                QpProblem(**dict(base, **{name: value}))

    def test_infinite_bounds_still_solve(self):
        # min 0.5||x||^2 + x_0 s.t. x_0 + x_1 = 1: x = (0, 1), with the
        # bounds on x_0 infinite and those on x_1 half infinite and inactive.
        sol = solve(QpProblem(P=np.eye(2), q=[1.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                              lower=[-np.inf, -np.inf], upper=[np.inf, 5.0]))
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [0.0, 1.0], atol=1e-8)


class TestPolishFallback:
    def _fail_polish_factor(self, monkeypatch, prob, exc):
        """Make the factorization of the polish KKT system, whose size is
        n + n_eq here (no bound is active), raise ``exc``."""
        calls = []
        factor = qp._lu_factor

        def failing(mat):
            if mat.shape[0] == prob.n + prob.n_eq:
                calls.append(mat.shape[0])
                raise exc
            return factor(mat)

        monkeypatch.setattr(qp, "_lu_factor", failing)
        return calls

    def test_lstsq_fallback_on_factorization_failure(self, monkeypatch):
        rng = np.random.default_rng(15)
        prob = random_equality_qp(rng, n=5, m=2)
        calls = self._fail_polish_factor(monkeypatch, prob, ValueError("singular"))
        sol = qp._admm(prob, QpSettings())
        assert calls, "the polish factorization was not reached"
        assert sol.status == "optimal" and sol.polished
        x_ref, _ = kkt_oracle(prob.P, prob.q, prob.A_eq, prob.b_eq)
        assert np.max(np.abs(sol.x - x_ref)) < 1e-9

    def test_other_errors_propagate(self, monkeypatch):
        rng = np.random.default_rng(15)
        prob = random_equality_qp(rng, n=5, m=2)
        self._fail_polish_factor(monkeypatch, prob, TypeError("bug"))
        with pytest.raises(TypeError, match="bug"):
            qp._admm(prob, QpSettings())


class TestPolishSigns:
    @staticmethod
    def single_point_qp(seed, n=12):
        """n - 1 equality rows leave a line through x0, and x0 holds two
        upper bounds that the line leaves the box through, one in each
        direction: the feasible set is the single point x0. Its bound
        multipliers are not unique, and the polish's reduced KKT solve,
        which does not constrain their signs, can give one the wrong sign."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n - 1, n))
        direction = np.linalg.svd(a)[2][-1]
        x0 = rng.uniform(-0.5, 0.5, n)
        x0[[direction.argmax(), direction.argmin()]] = 1.0
        b_mat = rng.standard_normal((n, n))
        prob = QpProblem(P=b_mat @ b_mat.T + 0.5 * np.eye(n), q=3.0 * rng.standard_normal(n),
                         A_eq=a, b_eq=a @ x0, lower=-np.ones(n), upper=np.ones(n))
        return prob, x0

    @pytest.mark.parametrize("seed", range(4))
    def test_single_point_feasible_set_keeps_multiplier_signs(self, seed):
        prob, x0 = self.single_point_qp(seed)
        sol = qp._admm(prob, QpSettings())
        assert sol.status == "optimal"
        assert np.max(np.abs(sol.x - x0)) <= 1e-6
        scale = max(1.0, float(np.max(np.abs(prob.q))))
        # Only upper bounds hold at x0, so no multiplier may be negative.
        assert np.all(sol.bound_duals >= -1e-9 * scale)
        stationarity = prob.P @ sol.x + prob.q + prob.A_eq.T @ sol.eq_duals + sol.bound_duals
        assert np.max(np.abs(stationarity)) <= 1e-6 * scale

    def test_polish_that_misses_an_active_bound_is_rejected(self, monkeypatch):
        # cond(P) is so large that the polish's reduced KKT solve returns
        # x = 0 with x_0 held at its upper bound; the unpolished iterate,
        # near e_1 with an objective near -1e300, is the answer.
        u = np.array([[1e-8, -1e10, 1e10], [0.0, 1e10, -1e10], [0.0, 0.0, 1e10]])
        prob = QpProblem(P=u.T @ u, q=[-1e300, 0.0, 0.0], lower=-np.ones(3),
                         upper=np.ones(3))
        with np.errstate(all="ignore"):
            sol = qp._admm(prob, QpSettings())
            polish_calls = reject_polish(monkeypatch)
            raw = qp._admm(prob, QpSettings())
        assert polish_calls and not raw.polished
        assert sol.status == "optimal" and not sol.polished
        assert np.max(np.abs(sol.x - [1.0, 0.0, 0.0])) <= 1e-8
        assert sol.objective < -0.99e300
        assert_same_solution(sol, raw)


def random_box_qp(rng, n, infinite=0.2, pinned=0.1):
    """A strictly convex box-only QP with some infinite and some equal bounds."""
    b_mat = rng.standard_normal((n, n))
    lower = rng.uniform(-2.0, 0.0, n)
    upper = rng.uniform(0.0, 2.0, n)
    lower[rng.uniform(size=n) < infinite] = -np.inf
    upper[rng.uniform(size=n) < infinite] = np.inf
    pin = rng.uniform(size=n) < pinned
    lower[pin] = upper[pin] = rng.uniform(-1.0, 1.0, int(pin.sum()))
    return QpProblem(P=b_mat @ b_mat.T + 0.5 * np.eye(n), q=3.0 * rng.standard_normal(n),
                     lower=lower, upper=upper)


def random_interior_box_qp(rng, n, infinite=0.2):
    """A strictly convex box-only QP whose minimizer lies inside the box,
    with some infinite bounds."""
    b_mat = rng.standard_normal((n, n))
    p = b_mat @ b_mat.T + 0.5 * np.eye(n)
    lower = rng.uniform(-2.0, -0.5, n)
    upper = rng.uniform(0.5, 2.0, n)
    lower[rng.uniform(size=n) < infinite] = -np.inf
    upper[rng.uniform(size=n) < infinite] = np.inf
    return QpProblem(P=p, q=-p @ rng.uniform(-0.4, 0.4, n), lower=lower, upper=upper)


def random_eq_box_qp(rng, n, m, psd=False, infinite=0.2, pinned=0.1):
    """A QP with m equality rows and a box that some interior point
    satisfies, with infinite and equal bounds; P is positive definite, or
    with ``psd`` of rank n - m, which A_eq generically makes up for."""
    if psd:
        c_mat = rng.standard_normal((n, n - m))
        p = c_mat @ c_mat.T
    else:
        b_mat = rng.standard_normal((n, n))
        p = b_mat @ b_mat.T + 0.5 * np.eye(n)
    lower = rng.uniform(-2.0, -0.5, n)
    upper = rng.uniform(0.5, 2.0, n)
    lower[rng.uniform(size=n) < infinite] = -np.inf
    upper[rng.uniform(size=n) < infinite] = np.inf
    pin = rng.uniform(size=n) < pinned
    lower[pin] = upper[pin] = rng.uniform(-0.5, 0.5, int(pin.sum()))
    a = rng.standard_normal((m, n))
    interior = np.where(pin, lower, rng.uniform(-0.5, 0.5, n))
    return QpProblem(P=p, q=3.0 * rng.standard_normal(n), A_eq=a, b_eq=a @ interior,
                     lower=lower, upper=upper)


def projected_gradient_residual(prob, x):
    return float(np.max(np.abs(x - np.clip(x - (prob.P @ x + prob.q), prob.lower,
                                             prob.upper))))


def assert_box_kkt(prob, sol, tol=1e-9):
    """Feasibility, the duals' signs and stationarity of a box-QP solution."""
    x, y = sol.x, sol.bound_duals
    assert np.all(x >= prob.lower) and np.all(x <= prob.upper)
    scale = max(1.0, float(np.max(np.abs(prob.q))))
    assert np.max(np.abs(prob.P @ x + prob.q + y)) <= tol * scale
    pinned = prob.lower == prob.upper
    assert np.all(y[(x > prob.lower) & (x < prob.upper)] == 0.0)
    assert np.all(y[(x == prob.lower) & ~pinned] <= 0.0)
    assert np.all(y[(x == prob.upper) & ~pinned] >= 0.0)
    assert sol.primal_residual == 0.0
    assert sol.dual_residual <= tol * scale
    assert projected_gradient_residual(prob, x) <= tol * scale


class TestDispatch:
    """solve hands box-only QPs with a positive definite P to the primal
    active-set method, QPs with equality rows and a nonsingular KKT matrix
    to the dual one, and every other QP, or a dual active-set answer that is
    not certified optimal, to ADMM."""

    def test_box_only_positive_definite_takes_the_active_set(self, monkeypatch):
        calls = record_solver_paths(monkeypatch)
        sol = solve(random_box_qp(np.random.default_rng(20), 6))
        assert calls == ["_active_set"] and sol.status == "optimal"

    def test_nonsingular_kkt_takes_the_exact_path(self, monkeypatch):
        prob = random_eq_box_qp(np.random.default_rng(21), 8, 3)
        factor = qp._kkt_factor(prob)
        assert factor is not None
        ref = qp._eq_active_set(prob, factor, QpSettings())
        calls = record_solver_paths(monkeypatch)
        sol = solve(prob)
        assert calls == ["_eq_active_set"] and sol.status == "optimal"
        assert_same_solution(sol, ref)

    @pytest.mark.parametrize("case", ["rank_deficient_a", "p_singular_on_null_a"])
    def test_singular_kkt_takes_admm(self, case, monkeypatch):
        if case == "rank_deficient_a":  # the second row is twice the first
            prob = QpProblem(P=np.eye(3), q=[1.0, 0.0, -1.0],
                             A_eq=[[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]], b_eq=[1.0, 2.0],
                             lower=[-2.0] * 3, upper=[2.0] * 3)
        else:  # P is zero on x_1, which A_eq leaves free
            prob = QpProblem(P=np.diag([1.0, 0.0, 1.0]), q=[0.0, 1.0, 0.0],
                             A_eq=[[1.0, 0.0, 1.0]], b_eq=[1.0],
                             lower=[-2.0] * 3, upper=[2.0] * 3)
        assert qp._kkt_factor(prob) is None
        ref = qp._admm(prob, QpSettings())
        calls = record_solver_paths(monkeypatch)
        sol = solve(prob)
        assert calls == ["_admm"] and sol.status == "optimal"
        assert_same_solution(sol, ref)

    def test_failed_certificate_falls_back_to_admm(self, monkeypatch):
        prob = random_eq_box_qp(np.random.default_rng(22), 8, 3)
        ref = qp._admm(prob, QpSettings())
        residuals, calls = qp._unscaled_residuals, []

        def first_fails(*args):  # the dual active-set check is the first call
            r_p, r_d, s_p, s_d = residuals(*args)
            calls.append(1)
            return r_p, r_d + (1.0 if len(calls) == 1 else 0.0), s_p, s_d

        monkeypatch.setattr(qp, "_unscaled_residuals", first_fails)
        paths = record_solver_paths(monkeypatch)
        sol = solve(prob)
        assert paths == ["_eq_active_set", "_admm"] and len(calls) > 1
        assert_same_solution(sol, ref)

    def test_infeasible_takes_admm(self, monkeypatch):
        # x_0 + x_1 = 10 outside the box [-1, 1]^2.
        prob = QpProblem(P=np.eye(2), q=[0.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[10.0],
                         lower=[-1.0, -1.0], upper=[1.0, 1.0])
        assert qp._eq_active_set(prob, qp._kkt_factor(prob),
                                 QpSettings()).status == "infeasible"
        paths = record_solver_paths(monkeypatch)
        sol = solve(prob)
        assert paths == ["_eq_active_set", "_admm"] and sol.status == "infeasible"
        ref = qp._admm(prob, QpSettings())
        assert np.array_equal(sol.x, ref.x) and sol.iterations == ref.iterations

    def test_infeasible_verdict_on_the_boundary_is_confirmed_by_admm(self, monkeypatch):
        # The equality rows meet the box only at the vertex (x_0, x_1) =
        # (upper_0, lower_1). Rounding puts the dual active-set start just
        # outside the box, and it reports the problem infeasible; ADMM finds
        # the vertex to its tolerance. Hence solve does not return the dual
        # method's infeasible verdict without ADMM.
        prob = QpProblem(
            P=[[6.8495643405518845, -4.255645008295181], [-4.255645008295181, 3.3535288535774974]],
            q=[-1.870344345329661, 5.565401768224767],
            A_eq=[[0.5637183978511929, -0.8768244614121053],
                  [0.4381916775171743, 0.390973621942198]],
            b_eq=[2.0958487936125403, 0.4230639659948898],
            lower=[-np.inf, -1.1245060114607974], upper=[1.968809994474803, np.inf])
        assert qp._eq_active_set(prob, qp._kkt_factor(prob),
                                 QpSettings()).status == "infeasible"
        paths = record_solver_paths(monkeypatch)
        sol = solve(prob)
        assert paths == ["_eq_active_set", "_admm"] and sol.status == "optimal"
        assert np.allclose(sol.x, [1.968809994474803, -1.1245060114607974], rtol=0, atol=1e-8)

    def test_singular_cost_without_equalities_takes_admm(self, monkeypatch):
        calls = record_solver_paths(monkeypatch)
        prob = QpProblem(P=np.diag([1.0, 0.0]), q=[-1.0, 1.0], lower=[-2.0, -2.0],
                         upper=[2.0, 2.0])
        sol = solve(prob)
        assert calls == ["_admm"] and sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, -2.0], atol=1e-8)

    def test_unfactorable_free_block_falls_back_to_admm(self, monkeypatch):
        prob = random_box_qp(np.random.default_rng(22), 8, infinite=0.0, pinned=0.0)
        assert solve(prob).iterations > 1  # a free block smaller than P is factored
        potrf = qp.dpotrf
        monkeypatch.setattr(qp, "dpotrf", lambda a: potrf(a) if a.shape[0] == prob.n
                            else (a, 1))
        sol, ref = solve(prob), qp._admm(prob, QpSettings())
        assert np.array_equal(sol.x, ref.x) and sol.iterations == ref.iterations


class TestActiveSet:
    def test_unconstrained_optimum_takes_one_iteration(self):
        rng = np.random.default_rng(23)
        prob = random_box_qp(rng, 5, infinite=1.0, pinned=0.0)
        sol = solve(prob)
        assert sol.status == "optimal" and sol.iterations == 1 and not sol.polished
        assert np.allclose(sol.x, np.linalg.solve(prob.P, -prob.q), rtol=0, atol=1e-12)
        assert np.all(sol.bound_duals == 0.0) and sol.eq_duals.shape == (0,)
        assert np.isclose(sol.objective, 0.5 * sol.x @ prob.P @ sol.x + prob.q @ sol.x)

    def test_pinned_variables_stay_pinned(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            prob = random_box_qp(rng, 7, pinned=0.5)
            sol = solve(prob)
            pinned = prob.lower == prob.upper
            assert sol.status == "optimal"
            assert np.array_equal(sol.x[pinned], prob.lower[pinned])
            assert_box_kkt(prob, sol)

    def test_every_bound_active(self):
        # The linear term dominates: the minimizer is a vertex of the box.
        rng = np.random.default_rng(25)
        n = 6
        b_mat = 0.1 * rng.standard_normal((n, n))
        signs = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        prob = QpProblem(P=b_mat @ b_mat.T + 0.1 * np.eye(n), q=100.0 * signs,
                         lower=-np.ones(n), upper=np.ones(n))
        sol = solve(prob)
        assert sol.status == "optimal"
        assert np.array_equal(sol.x, -signs)
        assert np.all(sol.bound_duals != 0.0)
        assert_box_kkt(prob, sol)

    def test_infinite_bounds(self):
        # Half-infinite boxes that bind on their finite side.
        prob = QpProblem(P=np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]]),
                         q=[4.0, -3.0, 1.0], lower=[-1.0, -np.inf, -np.inf],
                         upper=[np.inf, 1.0, np.inf])
        sol = solve(prob)
        ref = qp._admm(prob, QpSettings())
        assert sol.status == "optimal" and sol.x[0] == -1.0 and sol.x[1] == 1.0
        assert np.max(np.abs(sol.x - ref.x)) < 1e-9
        assert_box_kkt(prob, sol)

    def test_random_box_sweep_matches_admm(self):
        rng = np.random.default_rng(26)
        worst, most = 0.0, 0
        for _ in range(300):
            prob = random_box_qp(rng, int(rng.integers(1, 31)))
            sol, ref = solve(prob), qp._admm(prob, QpSettings())
            assert sol.status == ref.status == "optimal"
            assert_box_kkt(prob, sol)
            worst = max(worst, float(np.max(np.abs(sol.x - ref.x))))
            most = max(most, sol.iterations)
        assert worst < 1e-8
        assert most >= 5  # the sweep exercises adding and dropping bounds

    def test_max_iter_stops_early_and_feasible(self):
        rng = np.random.default_rng(27)
        prob = next(p for p in (random_box_qp(rng, 10, infinite=0.0) for _ in range(50))
                    if solve(p).iterations >= 3)
        sol = solve(prob, QpSettings(max_iter=1))
        assert sol.status == "max_iter" and sol.iterations == 1
        assert np.all(sol.x >= prob.lower) and np.all(sol.x <= prob.upper)
        assert projected_gradient_residual(prob, sol.x) > 1e-6

    def test_bit_reproducible(self):
        prob = random_box_qp(np.random.default_rng(28), 12)
        a, b = solve(prob), solve(prob)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.bound_duals, b.bound_duals)
        assert a.iterations == b.iterations and a.objective == b.objective


    def test_interior_minimizer_returns_at_once(self, monkeypatch):
        # Minimizers strictly inside the box: the answer is the unconstrained
        # solve, with no active bound and no loop iteration beyond the first.
        rng = np.random.default_rng(29)
        calls = record_solver_paths(monkeypatch)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            prob = random_interior_box_qp(rng, n)
            ref = np.linalg.solve(prob.P, -prob.q)
            sol = solve(prob)
            assert sol.status == "optimal" and sol.iterations == 1 and not sol.polished
            assert np.max(np.abs(sol.x - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert sol.bound_duals.tobytes() == np.zeros(n).tobytes()
            assert sol.eq_duals.shape == (0,) and sol.primal_residual == 0.0
            assert sol.dual_residual == np.max(np.abs(prob.P @ sol.x + prob.q))
            assert sol.objective == float(0.5 * sol.x @ prob.P @ sol.x + prob.q @ sol.x)
        assert calls == ["_active_set"] * 200

    def test_minimizer_on_a_bound_takes_the_loop(self, monkeypatch):
        # With P = I the unconstrained minimizer is -q exactly: x_0 lies on
        # its lower bound, so the start has a working bound and the loop
        # factors the free block {x_1}.
        prob = QpProblem(P=np.eye(2), q=[1.0, -0.25], lower=[-1.0, -1.0], upper=[1.0, 1.0])
        potrf, blocks = qp.dpotrf, []

        def recorded(a):
            blocks.append(a.shape[0])
            return potrf(a)

        monkeypatch.setattr(qp, "dpotrf", recorded)
        sol = solve(prob)
        assert blocks == [1]
        assert sol.status == "optimal" and sol.iterations == 1
        assert np.array_equal(sol.x, [-1.0, 0.25])
        assert_box_kkt(prob, sol)

    def test_start_on_a_bound_is_not_the_answer(self):
        # The unconstrained minimizer (2, -0.5) leaves the box [-1, 1]^2; its
        # clip (1, -0.5) is not the minimizer (1, 0.25), which the coupling
        # in P moves once x_0 is held at its upper bound.
        p = np.array([[2.0, 1.5], [1.5, 2.0]])
        prob = QpProblem(P=p, q=-p @ [2.0, -0.5], lower=[-1.0, -1.0], upper=[1.0, 1.0])
        sol = solve(prob)
        assert sol.status == "optimal" and sol.iterations == 1
        assert sol.x[0] == 1.0 and abs(sol.x[1] - 0.25) <= 1e-15
        assert sol.bound_duals[0] > 0.0
        assert_box_kkt(prob, sol)

    def test_interior_exit_is_bit_reproducible(self):
        prob = random_interior_box_qp(np.random.default_rng(30), 12)
        a, b = solve(prob), solve(prob)
        assert a.iterations == 1 and not a.bound_duals.any()
        assert_same_solution(a, b)
        assert_same_solution(a, solve(prob.updated(q=prob.q.copy())))

    @pytest.mark.parametrize("case", ["free", "boxed", "all_nan"])
    def test_non_finite_minimizer_goes_to_admm(self, case, monkeypatch):
        # P passes potrf, yet the solve for -P^-1 q overflows.
        if case == "all_nan":
            # inf - inf in the triangular solves makes every entry NaN, so
            # the clip touches no bound: only the finiteness test stops the
            # start from being returned as the answer.
            u = np.array([[1e-8, -1e10, 1e10], [0.0, 1e10, -1e10], [0.0, 0.0, 1e10]])
            prob = QpProblem(P=u.T @ u, q=[-1e300, 0.0, 0.0], lower=-np.ones(3),
                             upper=np.ones(3))
        else:  # -P^-1 q is (nan, inf, -5e299)
            box = dict(lower=-np.ones(3), upper=np.ones(3)) if case == "boxed" else {}
            prob = QpProblem(P=1e-300 * np.eye(3), q=[1e10, -1e10, 0.5], **box)
        with np.errstate(all="ignore"):
            assert not np.isfinite(dpotrs(prob._p_factor, -prob.q)[0]).all()
            ref = qp._admm(prob, QpSettings())
            calls = record_solver_paths(monkeypatch)
            sol = solve(prob)
        assert calls == ["_active_set", "_admm"]
        if case == "free":  # ADMM certifies unboundedness, with a NaN objective
            assert sol.status == ref.status == "infeasible"
            assert np.array_equal(sol.x, ref.x) and sol.iterations == ref.iterations
        else:
            assert_same_solution(sol, ref)
            assert sol.status == "optimal" and sol.iterations < 50000
            assert np.all(np.isfinite(sol.x)) and np.all(np.abs(sol.x) <= 1.0 + 1e-8)

    def test_non_finite_step_goes_to_admm(self, monkeypatch):
        # The start (1, 2.4e293) is finite, but with x_0 held at its upper
        # bound the free block's minimizer -(q_1 + P_10)/P_11 overflows to
        # +inf. x_1 is unbounded above, so that target lies in its box: the
        # finiteness test, not the in-box test that spares a full step its
        # ratio test, must send it to ADMM.
        b = 1e-151
        prob = QpProblem(P=[[1.0, b], [b, 1e-300]], q=[-1e161, -1e10],
                         lower=[-1.0, -np.inf], upper=[1.0, np.inf])
        with np.errstate(all="ignore"):
            ref = qp._admm(prob, QpSettings())
            calls = record_solver_paths(monkeypatch)
            sol = solve(prob)
        assert calls == ["_active_set", "_admm"]
        assert_same_solution(sol, ref)
        assert np.all(np.isfinite(sol.x))


def reference_active_set(prob, factor, settings):
    """The primal active-set iteration as first written: the ratio test on
    every step, the free block through np.ix_, |P| and Px + q formed anew for
    every multiplier test and once more for the answer. It is the oracle
    for ``qp._active_set``, which must return the same bits."""
    p, q, lo, hi = prob.P, prob.q, prob.lower, prob.upper
    n = prob.n
    x_unc = dpotrs(factor, -q)[0]
    if not np.isfinite(x_unc).all():
        return qp._admm(prob, settings)
    x = np.minimum(np.maximum(x_unc, lo), hi)
    at_lo, at_hi = x == lo, x == hi
    if not (at_lo.any() or at_hi.any()):
        g = p @ x_unc + q
        return qp.QpSolution(
            x=x_unc, objective=float(0.5 * x_unc @ p @ x_unc + q @ x_unc), status="optimal",
            primal_residual=0.0, dual_residual=float(np.abs(g).max(initial=0.0)),
            iterations=1, eq_duals=np.zeros(0), bound_duals=np.zeros(n),
        )
    round_off = n * np.finfo(float).eps
    status, it = "max_iter", 0
    while it < settings.max_iter:
        it += 1
        free = ~(at_lo | at_hi)
        f = np.flatnonzero(free)
        if f.size == n:
            target = x_unc
        elif f.size:
            sub, info = dpotrf(p[np.ix_(f, f)])
            if info:
                return qp._admm(prob, settings)
            target = dpotrs(sub, -(q + p @ np.where(free, 0.0, x))[f])[0]
        if f.size:
            xf = x[f]
            step = target - xf
            if not np.isfinite(step).all():
                return qp._admm(prob, settings)
            ratio = np.full(f.size, np.inf)
            down, up = step < 0.0, step > 0.0
            ratio[down] = (lo[f][down] - xf[down]) / step[down]
            ratio[up] = (hi[f][up] - xf[up]) / step[up]
            j = int(np.argmin(ratio))
            if ratio[j] < 1.0:
                x[f] = np.minimum(np.maximum(xf + ratio[j] * step, lo[f]), hi[f])
                block = f[j]
                if up[j]:
                    x[block], at_hi[block] = hi[block], True
                else:
                    x[block], at_lo[block] = lo[block], True
                continue
            x[f] = target
        g = p @ x + q
        wrong = np.where(at_lo, -g, g)
        wrong[~(at_lo ^ at_hi)] = 0.0
        wrong[wrong <= round_off * (np.abs(p) @ np.abs(x) + np.abs(q))] = 0.0
        k = int(np.argmax(wrong))
        if wrong[k] == 0.0:
            status = "optimal"
            break
        at_lo[k] = at_hi[k] = False

    g = p @ x + q
    duals = np.where(at_lo | at_hi, -g, 0.0)
    return qp.QpSolution(
        x=x, objective=float(0.5 * x @ p @ x + q @ x), status=status,
        primal_residual=float(np.maximum(lo - x, x - hi).max(initial=0.0)),
        dual_residual=float(np.abs(g + duals).max(initial=0.0)),
        iterations=it, eq_duals=np.zeros(0), bound_duals=duals,
    )


class TestActiveSetOracle:
    """qp._active_set against the reference iteration, field for field."""

    @staticmethod
    def both(prob, settings=QpSettings()):
        return (qp._active_set(prob, prob._p_factor, settings),
                reference_active_set(prob, prob._p_factor, settings))

    def test_random_box_qps_match_the_reference(self):
        # Active, pinned and infinite bounds; each problem is also cut short
        # at every iteration count below its own, so that the answer after a
        # blocking step and after a dropped bound is compared too.
        rng = np.random.default_rng(36)
        solved, iterations, cut = 0, [], 0
        for _ in range(320):
            n = int(rng.integers(1, 31))
            prob = random_box_qp(rng, n, infinite=float(rng.choice([0.0, 0.2, 0.5])),
                                 pinned=float(rng.choice([0.0, 0.1, 0.3])))
            got, want = self.both(prob)
            assert_same_solution(got, want)
            solved += 1
            iterations.append(got.iterations)
            for max_iter in range(1, min(got.iterations, 4)):
                assert_same_solution(*self.both(prob, QpSettings(max_iter=max_iter)))
                cut += 1
        assert solved >= 300 and cut >= 100
        assert iterations.count(1) >= 30 and max(iterations) >= 5

    def test_target_on_a_bound_takes_the_full_step(self):
        # With x_0 held at its upper bound, the free block's minimizer
        # -(q_1 + P_10) / P_11 is 1.0, exactly x_1's upper bound: the step
        # ends there as a full step, and x_1 stays off the working set.
        prob = QpProblem(P=[[2.0, 1.0], [1.0, 1.0]], q=[-4.0, -2.0], lower=[-1.0, -1.0],
                         upper=[1.0, 1.0])
        got, want = self.both(prob)
        assert_same_solution(got, want)
        assert got.status == "optimal" and got.iterations == 1
        assert np.array_equal(got.x, [1.0, 1.0]) and np.array_equal(got.bound_duals, [1.0, 0.0])

    def test_abs_p_is_shared_by_updated_problems_only(self):
        base = random_box_qp(np.random.default_rng(37), 7)
        derived = base.updated(q=np.ones(7))
        fresh = QpProblem(P=base.P, q=base.q, lower=base.lower, upper=base.upper)
        assert derived._abs_p is base._abs_p
        assert fresh._abs_p is not base._abs_p
        assert np.array_equal(fresh._abs_p, np.abs(base.P))
        assert not base._abs_p.flags.writeable
        assert_same_solution(solve(derived), solve(QpProblem(
            P=base.P, q=np.ones(7), lower=base.lower, upper=base.upper)))


class TestInteriorExit:
    """The interior exit is decided by lower < x_unc < upper alone. A
    minimizer on a bound, on a pinned variable or not finite fails it and
    keeps the route and the answer of the reference iteration, whose exit
    tests finiteness, clips and compares with the bounds."""

    @pytest.mark.parametrize("case", ["on_lower", "on_upper", "pinned_at_minimizer",
                                      "signed_zero"])
    def test_minimizer_on_a_bound_takes_the_loop(self, case, monkeypatch):
        # With P = I the unconstrained minimizer is -q exactly, and x_0 lies
        # on a bound of its own: the loop factors the free block {x_1}.
        q, lower, upper = {
            "on_lower": ([1.0, -0.25], [-1.0, -1.0], [1.0, 1.0]),
            "on_upper": ([-1.0, -0.25], [-1.0, -1.0], [1.0, 1.0]),
            "pinned_at_minimizer": ([-0.5, -0.25], [0.5, -1.0], [0.5, 1.0]),
            "signed_zero": ([0.0, -0.25], [0.0, -1.0], [1.0, 1.0]),  # x_0 is -0.0
        }[case]
        prob = QpProblem(P=np.eye(2), q=q, lower=lower, upper=upper)
        want = reference_active_set(prob, prob._p_factor, QpSettings())
        potrf, blocks = qp.dpotrf, []

        def recorded(a):
            blocks.append(a.shape[0])
            return potrf(a)

        monkeypatch.setattr(qp, "dpotrf", recorded)
        calls = record_solver_paths(monkeypatch)
        got = solve(prob)
        assert calls == ["_active_set"] and blocks == [1]
        assert_same_solution(got, want)
        assert got.status == "optimal" and got.iterations == 1
        assert_box_kkt(prob, got)

    @pytest.mark.parametrize("case", ["nan_and_inf_boxed", "inf_unbounded", "all_nan",
                                      "inf_clipped_to_a_bound"])
    def test_non_finite_minimizer_keeps_its_route(self, case, monkeypatch):
        if case == "inf_clipped_to_a_bound":
            # -P^-1 q is (inf, -0.5): its clip (1, -0.5) is a finite start
            # from which the loop would run, but a non-finite minimizer
            # goes to ADMM.
            prob = QpProblem(P=np.diag([1e-300, 1.0]), q=[-1e10, 0.5], lower=-np.ones(2),
                             upper=np.ones(2))
        elif case == "all_nan":  # inf - inf in the triangular solves
            u = np.array([[1e-8, -1e10, 1e10], [0.0, 1e10, -1e10], [0.0, 0.0, 1e10]])
            prob = QpProblem(P=u.T @ u, q=[-1e300, 0.0, 0.0], lower=-np.ones(3),
                             upper=np.ones(3))
        elif case == "nan_and_inf_boxed":  # -P^-1 q is (nan, inf, -5e299)
            prob = QpProblem(P=1e-300 * np.eye(3), q=[1e10, -1e10, 0.5], lower=-np.ones(3),
                             upper=np.ones(3))
        else:  # -P^-1 q is (inf, -5e299), x_0 unbounded: inf < inf fails
            prob = QpProblem(P=1e-300 * np.eye(2), q=[-1e10, 0.5],
                             lower=[-np.inf, -1.0], upper=[np.inf, 1.0])
        with np.errstate(all="ignore"):
            assert not np.isfinite(dpotrs(prob._p_factor, -prob.q)[0]).all()
            want = reference_active_set(prob, prob._p_factor, QpSettings())
            calls = record_solver_paths(monkeypatch)
            got = solve(prob)
        assert calls == ["_active_set", "_admm"]
        assert got.status == want.status
        assert got.x.tobytes() == want.x.tobytes() and got.iterations == want.iterations
        assert got.bound_duals.tobytes() == want.bound_duals.tobytes()

    def test_random_interior_and_boundary_minimizers_match_the_reference(self):
        # Minimizers on bounds and pinned variables drawn on purpose: a few
        # coordinates of a random interior minimizer moved onto a bound.
        rng = np.random.default_rng(39)
        routes = {"interior": 0, "loop": 0}
        for _ in range(300):
            n = int(rng.integers(1, 13))
            b_mat = rng.standard_normal((n, n))
            p = b_mat @ b_mat.T + 0.5 * np.eye(n)
            target = rng.uniform(-0.5, 0.5, n)
            lower, upper = rng.uniform(-2.0, -1.0, n), rng.uniform(1.0, 2.0, n)
            x_unc = dpotrs(dpotrf(p)[0], p @ target)[0]
            moved = rng.uniform(size=n) < 0.3
            side = rng.uniform(size=n)
            lower[moved & (side < 0.4)] = x_unc[moved & (side < 0.4)]
            upper[moved & (side > 0.6)] = x_unc[moved & (side > 0.6)]
            pin = moved & (side >= 0.4) & (side <= 0.6)
            lower[pin] = upper[pin] = x_unc[pin]
            prob = QpProblem(P=p, q=-p @ target, lower=lower, upper=upper)
            assert np.all((x_unc == prob.lower) | (x_unc == prob.upper) | ~moved)
            got = solve(prob)
            want = reference_active_set(prob, prob._p_factor, QpSettings())
            assert_same_solution(got, want)
            routes["loop" if moved.any() else "interior"] += 1
        assert min(routes.values()) >= 50

    @pytest.mark.parametrize("interior", [True, False])
    def test_solution_is_the_dataclass_built_one(self, interior):
        # The reference builds its QpSolution through the dataclass __init__.
        rng = np.random.default_rng(40)
        prob = random_interior_box_qp(rng, 9) if interior else random_box_qp(rng, 9, pinned=0.3)
        got = solve(prob)
        assert (got.iterations == 1 and not got.bound_duals.any()) == interior
        assert_same_fields(got, reference_active_set(prob, prob._p_factor, QpSettings()))


def assert_eq_kkt(prob, sol, tol=1e-9):
    """Feasibility, the signs of the bound duals and stationarity of an
    equality-constrained solution, with the duals the solver carried."""
    x, y, nu = sol.x, sol.bound_duals, sol.eq_duals
    assert np.all(x >= prob.lower) and np.all(x <= prob.upper)
    scale = max(1.0, float(np.max(np.abs(prob.q))))
    assert np.max(np.abs(prob.A_eq @ x - prob.b_eq)) <= tol * scale
    assert np.max(np.abs(prob.P @ x + prob.q + prob.A_eq.T @ nu + y)) <= tol * scale
    pinned = prob.lower == prob.upper
    assert np.all(y[(x > prob.lower) & (x < prob.upper)] == 0.0)
    assert np.all(y[(x == prob.lower) & ~pinned] <= 0.0)
    assert np.all(y[(x == prob.upper) & ~pinned] >= 0.0)
    assert sol.dual_residual <= tol * scale


class TestEqActiveSet:
    """The dual active-set method on its own, through qp._eq_active_set."""

    @staticmethod
    def run(prob, settings=QpSettings()):
        factor = qp._kkt_factor(prob)
        assert factor is not None
        return qp._eq_active_set(prob, factor, settings)

    def test_no_active_bound_takes_one_iteration(self):
        prob = random_equality_qp(np.random.default_rng(40), n=8, m=3)
        sol = self.run(prob)
        x_ref, nu_ref = kkt_oracle(prob.P, prob.q, prob.A_eq, prob.b_eq)
        assert sol.status == "optimal" and sol.iterations == 1 and not sol.polished
        assert np.allclose(sol.x, x_ref, rtol=0, atol=1e-12)
        assert np.allclose(sol.eq_duals, nu_ref, rtol=0, atol=1e-12)
        assert np.all(sol.bound_duals == 0.0)
        assert np.isclose(sol.objective, 0.5 * sol.x @ prob.P @ sol.x + prob.q @ sol.x)

    def test_random_sweep_matches_admm(self):
        rng = np.random.default_rng(41)
        worst, most = 0.0, 0
        for trial in range(300):
            n = int(rng.integers(2, 21))
            m = int(rng.integers(1, n // 2 + 2))
            prob = random_eq_box_qp(rng, n, min(m, n - 1), psd=bool(trial % 2))
            sol, ref = self.run(prob), qp._admm(prob, QpSettings())
            assert sol.status == ref.status == "optimal"
            assert_eq_kkt(prob, sol)
            worst = max(worst, float(np.max(np.abs(sol.x - ref.x))))
            most = max(most, sol.iterations)
        assert worst < 1e-8
        assert most >= 5  # the sweep exercises adding and dropping bounds

    def test_pinned_variables_stay_pinned(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            prob = random_eq_box_qp(rng, 9, 2, pinned=0.4)
            sol = self.run(prob)
            pinned = prob.lower == prob.upper
            assert sol.status == "optimal" and pinned.any()
            assert np.array_equal(sol.x[pinned], prob.lower[pinned])
            assert_eq_kkt(prob, sol)

    def test_infinite_bounds(self):
        # min 0.5||x||^2 + 4 x_0 - 3 x_1 s.t. x_0 + x_1 + x_2 = 0 with
        # half-infinite boxes that bind on their finite sides.
        prob = QpProblem(P=np.eye(3), q=[4.0, -3.0, 0.0], A_eq=[[1.0, 1.0, 1.0]],
                         b_eq=[0.0], lower=[-1.0, -np.inf, -np.inf],
                         upper=[np.inf, 1.0, np.inf])
        sol, ref = self.run(prob), qp._admm(prob, QpSettings())
        assert sol.status == "optimal" and sol.x[0] == -1.0 and sol.x[1] == 1.0
        assert sol.bound_duals[0] < 0.0 < sol.bound_duals[1]
        assert np.max(np.abs(sol.x - ref.x)) < 1e-9
        assert_eq_kkt(prob, sol)

    def test_carried_duals_match_admm(self):
        rng = np.random.default_rng(43)
        active = 0
        for _ in range(20):
            prob = random_eq_box_qp(rng, 10, 3, infinite=0.0, pinned=0.0)
            sol, ref = self.run(prob), qp._admm(prob, QpSettings())
            active += np.count_nonzero(sol.bound_duals)
            scale = max(1.0, float(np.max(np.abs(prob.q))))
            assert np.max(np.abs(sol.eq_duals - ref.eq_duals)) < 1e-6 * scale
            assert np.max(np.abs(sol.bound_duals - ref.bound_duals)) < 1e-6 * scale
            assert_eq_kkt(prob, sol)
        assert active >= 10

    def test_max_iter_falls_back_to_admm(self, monkeypatch):
        rng = np.random.default_rng(44)
        prob = next(p for p in (random_eq_box_qp(rng, 10, 2, infinite=0.0)
                                for _ in range(50)) if self.run(p).iterations >= 3)
        settings = QpSettings(max_iter=1)
        sol = self.run(prob, settings)
        assert sol.status == "max_iter" and sol.iterations == 1
        paths = record_solver_paths(monkeypatch)
        solve(prob, settings)
        assert paths == ["_eq_active_set", "_admm"]

    def test_bit_reproducible(self):
        prob = random_eq_box_qp(np.random.default_rng(45), 12, 4)
        a, b = self.run(prob), self.run(prob)
        assert a.iterations > 1
        assert_same_solution(a, b)


def assert_same_solution(a, b):
    for name in ("x", "eq_duals", "bound_duals"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for name in ("objective", "status", "primal_residual", "dual_residual", "iterations",
                 "polished"):
        assert getattr(a, name) == getattr(b, name), name


class TestUpdated:
    """A derived problem solves like the same problem built afresh, and
    reuses the P-dependent work that its vectors leave valid."""

    def test_new_linear_term_of_a_box_qp(self):
        rng = np.random.default_rng(30)
        base = random_box_qp(rng, 9)
        for _ in range(5):
            q = 3.0 * rng.standard_normal(9)
            fresh = QpProblem(P=base.P, q=q, lower=base.lower, upper=base.upper)
            derived = base.updated(q=q)
            assert derived._p_factor is base._p_factor
            assert_same_solution(solve(derived), solve(fresh))

    def test_kkt_factor_is_made_once_and_shared(self, monkeypatch):
        rng = np.random.default_rng(35)
        base = random_eq_box_qp(rng, 8, 3)
        size = base.n + base.n_eq
        calls = []
        lu = qp._nonsingular_lu
        monkeypatch.setattr(qp, "_nonsingular_lu",
                            lambda mat: calls.append(mat.shape[0]) or lu(mat))
        derived = [base.updated(q=3.0 * rng.standard_normal(8)),
                   base.updated(b_eq=base.b_eq + 0.1),
                   base.updated(q=base.q + 1.0, b_eq=base.b_eq - 0.1)]
        got = [solve(prob) for prob in derived]
        assert calls.count(size) == 1
        assert all(prob._kkt is base._kkt for prob in derived)
        for prob, sol in zip(derived, got):
            fresh = QpProblem(P=prob.P, q=prob.q, A_eq=prob.A_eq, b_eq=prob.b_eq,
                              lower=prob.lower, upper=prob.upper)
            assert_same_solution(sol, solve(fresh))

    def test_other_settings_set_up_again(self):
        rng = np.random.default_rng(33)
        base = random_equality_qp(rng, n=8, m=3)
        b = rng.standard_normal(3)
        fresh = QpProblem(P=base.P, q=base.q, A_eq=base.A_eq, b_eq=b)
        for settings in (QpSettings(), QpSettings(eps_abs=1e-6, max_iter=1), QpSettings()):
            assert_same_solution(solve(base.updated(b_eq=b), settings),
                                 solve(dataclasses.replace(fresh), settings))

    def test_checks_only_the_new_vector(self, monkeypatch):
        base = random_equality_qp(np.random.default_rng(34), n=4, m=2)

        def fail(*args):
            raise AssertionError("P checked again")

        monkeypatch.setattr(qp, "is_psd", fail)
        monkeypatch.setattr(qp, "dpotrf", fail)
        base.updated(q=np.ones(4), b_eq=np.ones(2))
        for bad in ({"q": [1.0, np.nan, 0.0, 0.0]}, {"q": np.ones(3)},
                    {"b_eq": [np.inf, 0.0]}, {"b_eq": np.ones(3)}):
            with pytest.raises(ShapeError):
                base.updated(**bad)


class TestOfParts:
    """``QpProblem._of_parts``, the constructor of the controllers' set-ups:
    it scans P, q, A_eq and b_eq for non-finite entries and proves P PSD as
    the constructor does, takes the arrays it is given, and builds the
    constructor's problem field for field."""

    @staticmethod
    def parts(rng, n, m=0, psd=False):
        """Fresh arrays of a problem with an exactly symmetric P, singular
        (a zero last row and column) if ``psd``."""
        b_mat = rng.standard_normal((n, n))
        if psd:
            b_mat[-1] = 0.0
        p = b_mat @ b_mat.T  # exactly symmetric
        kw = {"P": p, "q": rng.standard_normal(n),
              "lower": np.where(rng.random(n) < 0.3, -np.inf, -rng.random(n)),
              "upper": np.where(rng.random(n) < 0.3, np.inf, rng.random(n))}
        if psd:  # a bounded problem
            kw["lower"][-1], kw["upper"][-1] = -1.0, 1.0
        if m:
            kw.update(A_eq=rng.standard_normal((m, n)), b_eq=rng.standard_normal(m))
        return kw

    @pytest.mark.parametrize("m,psd", [(0, False), (0, True), (3, False), (3, True)])
    def test_equals_the_constructor(self, m, psd):
        rng = np.random.default_rng(70 + m + psd)
        for _ in range(5):
            kw = self.parts(rng, 8, m, psd)
            want = QpProblem(**kw)  # copies the arrays _of_parts then freezes
            got = QpProblem._of_parts(**kw)
            assert_same_fields(got, want)
            assert (got._p_factor is None) == psd
            assert (got._abs_p is None) == (psd or m > 0)
            for value in vars(got).values():
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable
            assert_same_solution(solve(got), solve(want))

    def test_takes_its_arrays_and_freezes_them_in_place(self):
        kw = self.parts(np.random.default_rng(74), 5, 2)
        got = QpProblem._of_parts(**kw)
        for name, value in kw.items():
            assert getattr(got, name) is value and not value.flags.writeable

    def test_takes_read_only_bounds_as_they_are(self):
        kw = self.parts(np.random.default_rng(75), 4)
        for name in ("lower", "upper"):
            kw[name].flags.writeable = False
        got = QpProblem._of_parts(**kw)
        assert got.lower is kw["lower"] and got.upper is kw["upper"]

    def test_non_finite_entries_raise_as_in_the_constructor(self):
        rng = np.random.default_rng(76)
        for name, error in (("P", InvalidMatrix), ("q", ShapeError), ("A_eq", ShapeError),
                            ("b_eq", ShapeError)):
            for bad in (np.nan, np.inf):
                kw = self.parts(rng, 4, 2)
                kw[name][(0,) * kw[name].ndim] = bad
                if name == "P":
                    kw[name][0, 0] = bad  # still symmetric
                with pytest.raises(error) as public:
                    QpProblem(**kw)
                with pytest.raises(error) as parts:
                    QpProblem._of_parts(**kw)
                assert str(parts.value) == str(public.value)

    def test_a_failed_cholesky_takes_the_eigenvalue_test(self, monkeypatch):
        calls = []
        is_psd = qp.is_psd
        monkeypatch.setattr(qp, "is_psd", lambda *args: calls.append(1) or is_psd(*args))
        b = np.random.default_rng(77).standard_normal((4, 4))
        got = QpProblem._of_parts(P=b @ b.T, q=np.zeros(4), lower=-np.ones(4),
                                  upper=np.ones(4))
        assert calls == [] and got._p_factor is not None
        got = QpProblem._of_parts(P=np.diag([1.0, 0.0]), q=np.zeros(2),
                                  lower=np.full(2, -np.inf), upper=np.full(2, np.inf))
        assert calls == [1] and got._p_factor is None and got._abs_p is None
        with pytest.raises(ShapeError, match="positive semidefinite"):
            QpProblem._of_parts(P=np.diag([1.0, -1.0]), q=np.zeros(2),
                                lower=np.full(2, -np.inf), upper=np.full(2, np.inf))
        assert calls == [1, 1]

    def test_the_constructor_is_not_run(self, monkeypatch):
        def fail(self):
            raise AssertionError("QpProblem.__post_init__ called")

        kw = self.parts(np.random.default_rng(78), 3)
        monkeypatch.setattr(QpProblem, "__post_init__", fail)
        QpProblem._of_parts(**kw)
