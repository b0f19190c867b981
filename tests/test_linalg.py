"""Tests for the dense linear-algebra kernels."""

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning, solve_discrete_lyapunov

from gdpc.errors import InvalidMatrix, NotPositiveDefinite, ShapeError, UnstableSystem
from gdpc.linalg import (
    chol_psd,
    is_psd,
    lyap_discrete,
    matrix_rank,
    pinv,
    psd_factor,
    spectral_radius,
    sym_eig,
    sym_eigenvalues,
    symmetrize,
)
from gdpc.plant import default_benchmark, stationary_state_covariance


def random_matrix_of_rank(rng, rows, cols, rank):
    left = rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols))
    return left @ right


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal_with_zero(self):
        a = np.diag([2.0, 0.0])
        assert np.allclose(pinv(a), np.diag([0.5, 0.0]), atol=1e-12)

    def test_full_column_rank_left_inverse(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 3))
        assert np.linalg.norm(pinv(a) @ a - np.eye(3)) < 1e-8

    def test_penrose_conditions_random_ranks(self):
        # Four Penrose conditions over random matrices of every rank.
        rng = np.random.default_rng(42)
        for _ in range(1000):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            rank = int(rng.integers(1, min(rows, cols) + 1))
            a = random_matrix_of_rank(rng, rows, cols, rank)
            ap = pinv(a)
            scale = max(np.linalg.norm(a), 1.0)
            assert np.linalg.norm(a @ ap @ a - a) < 1e-8 * scale
            assert np.linalg.norm(ap @ a @ ap - ap) < 1e-8 * max(np.linalg.norm(ap), 1.0)
            assert np.linalg.norm((a @ ap).T - a @ ap) < 1e-8
            assert np.linalg.norm((ap @ a).T - ap @ a) < 1e-8

    def test_involution_on_full_rank(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((4, 6))
            back = pinv(pinv(a))
            assert np.linalg.norm(back - a) < 1e-7 * np.linalg.norm(a)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            pinv(np.array([[1.0, np.nan]]))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            pinv(np.eye(2), rank_tol=1.5)

    def test_zero_matrix(self):
        assert np.array_equal(pinv(np.zeros((3, 2))), np.zeros((2, 3)))


class TestSymEig:
    def test_diagonal(self):
        dec = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(dec.values, [3.0, 1.0])

    def test_exchange_matrix(self):
        dec = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.values, [1.0, -1.0])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        s = rng.standard_normal((6, 6))
        s = 0.5 * (s + s.T)
        dec = sym_eig(s)
        recon = dec.vectors @ np.diag(dec.values) @ dec.vectors.T
        assert np.linalg.norm(recon - s) <= 1e-10 * (1.0 + np.linalg.norm(s))
        assert np.linalg.norm(dec.vectors.T @ dec.vectors - np.eye(6)) <= 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrix):
            sym_eig(np.ones((2, 3)))


class TestCholPsd:
    def test_identity(self):
        assert np.allclose(chol_psd(np.eye(2)), np.eye(2))

    def test_hand_elimination(self):
        # Hand elimination: g11=2, g21=1, g22=sqrt(2-1)=1.
        g = chol_psd(np.array([[4.0, 2.0], [2.0, 2.0]]))
        assert np.allclose(g, np.array([[2.0, 0.0], [1.0, 1.0]]), atol=1e-12)

    def test_reconstruction_with_shift(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((4, 4))
        s = b @ b.T
        for shift in (0.0, 0.5):
            g = chol_psd(s, shift=shift)
            target = s + shift * np.eye(4)
            assert np.allclose(np.tril(g), g)
            assert np.linalg.norm(g @ g.T - target) <= 1e-8 * np.linalg.norm(s)

    def test_rank_one_fails_with_pivot(self):
        v = np.array([1.0, 2.0])
        with pytest.raises(NotPositiveDefinite) as err:
            chol_psd(np.outer(v, v))
        assert err.value.pivot == 1

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            chol_psd(np.eye(2), shift=-1.0)


class TestIsPsd:
    def test_identity_true(self):
        assert is_psd(np.eye(3))

    def test_negative_identity_false(self):
        assert not is_psd(-np.eye(3))

    def test_agrees_with_min_eigenvalue_sign(self):
        rng = np.random.default_rng(13)
        tol = 1e-10
        for _ in range(200):
            s = rng.standard_normal((5, 5))
            s = 0.5 * (s + s.T)
            dec = sym_eig(s)
            expected = dec.values[-1] >= -tol * max(1.0, abs(dec.values[0]))
            assert is_psd(s, tol) == expected

    def test_diagonal_eigenvalues_are_eigvalsh_bit_for_bit(self, monkeypatch):
        # A diagonal matrix takes its sorted diagonal, which is exactly what
        # eigvalsh returns for it, without calling eigvalsh.
        rng = np.random.default_rng(14)
        diagonals = [rng.standard_normal(n) * 10.0 ** rng.integers(-130, 130, n)
                     for n in (1, 2, 5, 8, 16)]
        diagonals += [np.array([1.0, -0.0, 0.0, -1e-12, 2.0]), np.zeros(3),
                      np.array([1e140, -1e-300]), np.array([-1e-140, 1e-300])]
        expected = [np.linalg.eigvalsh(np.diag(d)) for d in diagonals]

        def unreachable(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
        for d, want in zip(diagonals, expected):
            assert np.array_equal(sym_eigenvalues(np.diag(d)), want)
            assert is_psd(np.diag(d)) == (want[0] >= -1e-10 * max(1.0, abs(want[-1])))

    @pytest.mark.parametrize("s", [
        np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]]),
        np.diag([1e200, -1e-263, 3.0]),  # rescaled by syevd, so not the diagonal
        np.diag([1e-200, 3e-150]),
    ])
    def test_other_matrices_use_eigvalsh(self, s, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        assert np.array_equal(sym_eigenvalues(s), eigvalsh(s)) and calls == [1]


class TestPsdFactor:
    def test_factor_reproduces_the_covariance(self):
        rng = np.random.default_rng(21)
        for rank in (1, 3, 5):
            cov = random_matrix_of_rank(rng, 5, rank, rank)
            cov = cov @ cov.T
            factor = psd_factor(cov)
            assert np.allclose(factor @ factor.T, cov, rtol=0, atol=1e-12 * np.abs(cov).max())

    def test_eigenvalues_below_the_cutoff_are_zeroed(self):
        # Eigenvalues 1 and 1e-13 (below 1e-12 times the largest) and 2e-12.
        basis, _ = np.linalg.qr(np.random.default_rng(22).standard_normal((3, 3)))
        factor = psd_factor(basis @ np.diag([1.0, 1e-13, 2e-12]) @ basis.T)
        norms = np.sort(np.linalg.norm(factor, axis=0))
        assert norms[0] == 0.0
        assert np.allclose(norms[1:], np.sqrt([2e-12, 1.0]), rtol=1e-3)

    def test_indefinite_covariance_is_named(self):
        with pytest.raises(ShapeError, match="Sigma must be positive semidefinite"):
            psd_factor(np.diag([1.0, -1.0]), "Sigma")


class TestLyapDiscrete:
    def test_zero_dynamics(self):
        assert np.allclose(lyap_discrete(np.zeros((3, 3)), np.eye(3)), np.eye(3))

    def test_scalar_geometric_series(self):
        # S = 1 / (1 - 0.25) = 4/3.
        s = lyap_discrete(np.array([[0.5]]), np.array([[1.0]]))
        assert np.allclose(s, [[4.0 / 3.0]], atol=1e-12)

    def test_random_stable_residual(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            a *= 0.9 / max(spectral_radius(a), 1e-12)
            b = rng.standard_normal((4, 4))
            qc = b @ b.T
            s = lyap_discrete(a, qc)
            resid = np.linalg.norm(s - a @ s @ a.T - qc)
            assert resid <= 1e-8 * np.linalg.norm(qc)
            assert is_psd(s, 1e-8)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystem):
            lyap_discrete(np.array([[1.0]]), np.array([[1.0]]))

    @staticmethod
    def scipy_solution(a, qc):
        """The oracle: scipy's solve of the same symmetrized equation, with
        the same final symmetrization."""
        s = solve_discrete_lyapunov(a, symmetrize(qc))
        return 0.5 * (s + s.T)

    def test_bit_equal_to_scipy_for_a_general_a(self):
        # The direct method, I - A kron A by one gesv call, on every size
        # below scipy's switch to its bilinear method, and from 10 on
        # scipy's own call.
        rng = np.random.default_rng(41)
        for n in (*range(1, 10), 10, 12):
            for _ in range(3 if n >= 10 else 40):
                a = rng.standard_normal((n, n))
                a *= rng.uniform(0.1, 0.97) / spectral_radius(a)
                b = rng.standard_normal((n, n))
                qc = b @ b.T
                assert lyap_discrete(a, qc).tobytes() == self.scipy_solution(a, qc).tobytes()
        model = default_benchmark()
        qc = model.B @ model.B.T + model.Sigma_xi
        assert stationary_state_covariance(model, np.eye(1)).tobytes() == \
            self.scipy_solution(model.A, qc).tobytes()

    @pytest.mark.parametrize("structure", ["diagonal", "lower", "symmetric"])
    def test_structured_a_agrees_with_scipy_to_rounding(self, structure):
        # scipy's solve detects the structure of I - A kron A and may take
        # another LAPACK routine; both solve the same system.
        rng = np.random.default_rng(42)
        for n in range(1, 10):
            a = rng.standard_normal((n, n))
            a = {"diagonal": np.diag(np.diag(a)), "lower": np.tril(a), "symmetric": a + a.T}[
                structure]
            a *= 0.9 / max(spectral_radius(a), 1e-12)
            b = rng.standard_normal((n, n))
            qc = b @ b.T
            s = lyap_discrete(a, qc)
            want = self.scipy_solution(a, qc)
            assert np.max(np.abs(s - want)) <= 1e-12 * np.max(np.abs(want))

    def test_ill_conditioned_system_warns_like_scipy(self):
        a = np.array([[0.5, 1e4], [0.0, 0.5]])
        with pytest.warns(LinAlgWarning, match="ill-conditioned") as seen:
            s = lyap_discrete(a, np.eye(2))
        assert len(seen) == 1
        with pytest.warns(LinAlgWarning, match="ill-conditioned"):
            want = self.scipy_solution(a, np.eye(2))
        assert s.tobytes() == want.tobytes()

    def test_empty_state(self):
        assert lyap_discrete(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)


class TestRank:
    def test_matches_constructed_rank(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            rows = int(rng.integers(2, 8))
            cols = int(rng.integers(2, 8))
            rank = int(rng.integers(1, min(rows, cols) + 1))
            a = random_matrix_of_rank(rng, rows, cols, rank)
            assert matrix_rank(a) == rank

    def test_zero(self):
        assert matrix_rank(np.zeros((3, 4))) == 0
