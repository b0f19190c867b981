"""Tests for trajectory ingestion, windowing, and the partitioned data matrix."""

import numpy as np
import pytest

from gdpc.errors import ParseError, ShapeError, TooShort
from gdpc.trajectory import (
    DataMatrix,
    SignalDims,
    Trajectory,
    assemble,
    block_row_permutation,
    build_data_matrix,
    excitation_rank,
    load_csv,
    save_csv,
    window_trajectory,
)

DIMS_SISO = SignalDims(m=1, p=1)


def siso_rollout(a, b, c, d, u, x0=0.0):
    """Independent scalar-state rollout oracle for rank checks."""
    x = x0
    ys = []
    for ut in u:
        ys.append(c * x + d * ut)
        x = a * x + b * ut
    return np.array(ys)


class TestSignalDims:
    def test_q(self):
        assert SignalDims(2, 3).q == 5

    def test_rejects_zero_channels(self):
        with pytest.raises(ShapeError):
            SignalDims(0, 1)


class TestWindowing:
    def test_single_window_equals_full_stack(self):
        traj = Trajectory(DIMS_SISO, np.arange(6.0).reshape(3, 2))
        cols = window_trajectory(traj, 3)
        assert cols.shape == (6, 1)
        assert np.array_equal(cols[:, 0], traj.samples.reshape(-1))

    def test_hankel_column_count_and_starts(self):
        traj = Trajectory(DIMS_SISO, np.arange(10.0).reshape(5, 2))
        cols = window_trajectory(traj, 3)
        assert cols.shape[1] == 3
        for j in range(3):
            assert np.array_equal(cols[:, j], traj.samples[j : j + 3].reshape(-1))

    def test_ramp_enumeration(self):
        # u_t = t+1, y_t = 10*(t+1); enumerate the expected sliding windows.
        samples = np.array([[t + 1.0, 10.0 * (t + 1)] for t in range(4)])
        traj = Trajectory(DIMS_SISO, samples)
        cols = window_trajectory(traj, 2, mode="hankel")
        expected = np.column_stack(
            [samples[s : s + 2].reshape(-1) for s in range(3)]
        )
        assert np.array_equal(cols, expected)
        assert np.array_equal(cols[0], [1.0, 2.0, 3.0])

    def test_disjoint_mode(self):
        traj = Trajectory(DIMS_SISO, np.arange(14.0).reshape(7, 2))
        cols = window_trajectory(traj, 3, mode="disjoint")
        assert cols.shape[1] == 2  # floor(7/3)
        assert np.array_equal(cols[:, 0], traj.samples[0:3].reshape(-1))
        assert np.array_equal(cols[:, 1], traj.samples[3:6].reshape(-1))

    def test_hankel_count_identity(self):
        # T = L + D - 1 yields exactly D columns.
        window, d = 4, 9
        traj = Trajectory(DIMS_SISO, np.ones((window + d - 1, 2)))
        assert window_trajectory(traj, window).shape[1] == d

    def test_too_short(self):
        traj = Trajectory(DIMS_SISO, np.ones((2, 2)))
        with pytest.raises(TooShort):
            window_trajectory(traj, 3)

    def test_unknown_mode(self):
        traj = Trajectory(DIMS_SISO, np.ones((4, 2)))
        with pytest.raises(ValueError):
            window_trajectory(traj, 2, mode="sliding")


def column_loop(samples, window, stride):
    """The data matrix one column at a time: the window starting at each
    multiple of ``stride``, flattened in time order."""
    starts = range(0, samples.shape[0] - window + 1, stride)
    return np.column_stack([samples[s : s + window].reshape(-1) for s in starts])


class TestStridedWindowing:
    """``window_trajectory`` reads the windows through one strided view."""

    @pytest.mark.parametrize(
        "length, window, mode",
        [(40, 7, "hankel"), (40, 7, "disjoint"), (41, 5, "disjoint"), (12, 12, "hankel"),
         (12, 12, "disjoint")],
        ids=["hankel", "disjoint_exact_multiple", "disjoint_remainder", "hankel_L_eq_T",
             "disjoint_L_eq_T"],
    )
    def test_equals_the_column_loop(self, length, window, mode):
        dims = SignalDims(m=2, p=3)
        samples = np.random.default_rng(length + window).standard_normal((length, dims.q))
        traj = Trajectory(dims, samples)
        got = window_trajectory(traj, window, mode)
        want = column_loop(samples, window, 1 if mode == "hankel" else window)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_disjoint_drops_the_remainder(self):
        # T - L + 1 = 10 starts, not a multiple of L = 4: starts 0, 4, 8.
        traj = Trajectory(DIMS_SISO, np.arange(26.0).reshape(13, 2))
        cols = window_trajectory(traj, 4, mode="disjoint")
        assert cols.shape == (8, 3)
        assert np.array_equal(cols[:, 2], traj.samples[8:12].reshape(-1))

    @pytest.mark.parametrize("mode", ["hankel", "disjoint"])
    def test_result_owns_its_memory(self, mode):
        traj = Trajectory(DIMS_SISO, np.arange(20.0).reshape(10, 2))
        cols = window_trajectory(traj, 3, mode)
        before = cols.copy()
        assert cols.flags.owndata and not np.shares_memory(cols, traj.samples)
        traj.samples[:] = -1.0
        assert np.array_equal(cols, before)


class TestAssemble:
    def test_siso_two_step_blocks(self):
        col = np.array([[1.0], [2.0], [3.0], [4.0]])  # [u0, y0, u1, y1]
        dm = assemble(col, DIMS_SISO, l_ini=1, l_f=1)
        assert np.array_equal(dm.past[:, 0], [1.0, 2.0])
        assert np.array_equal(dm.future_inputs[:, 0], [3.0])
        assert np.array_equal(dm.future_outputs[:, 0], [4.0])
        assert np.array_equal(dm.ordered, col)

    def test_round_trip_permutation(self):
        rng = np.random.default_rng(2)
        dims = SignalDims(2, 1)
        cols = rng.standard_normal((dims.q * 3, 5))
        dm = assemble(cols, dims, l_ini=1, l_f=2)
        inverse = np.argsort(dm.row_index)
        assert np.array_equal(dm.ordered[inverse], dm.matrix)

    def test_hand_built_index_two_inputs(self):
        # m=2, p=1, L_ini=1, L_f=1: chronological row order already matches
        # the block order because the single past step keeps all channels.
        dims = SignalDims(2, 1)
        dm = assemble(np.arange(6.0).reshape(6, 1), dims, l_ini=1, l_f=1)
        assert np.array_equal(dm.row_index, np.arange(6))

    def test_hand_built_index_future_two_steps(self):
        # m=2, p=1, L_ini=1, L_f=2: rows are [u0 u0 y0 | u1 u1 y1 | u2 u2 y2]
        # chronologically; the future outputs y1, y2 (rows 5, 8) move last.
        dims = SignalDims(2, 1)
        dm = assemble(np.arange(9.0).reshape(9, 1), dims, l_ini=1, l_f=2)
        assert np.array_equal(dm.row_index, [0, 1, 2, 3, 4, 6, 7, 5, 8])
        assert np.array_equal(dm.future_outputs[:, 0], [5.0, 8.0])

    def test_no_history_gives_the_blocked_stack(self):
        # m=2, p=1, L=2: rows are [u0 u0 y0 | u1 u1 y1]; the blocked stack
        # [u0 u0 u1 u1 | y0 y1] reads rows 0, 1, 3, 4, then 2, 5.
        dims = SignalDims(2, 1)
        assert np.array_equal(block_row_permutation(dims, 0, 2), [0, 1, 3, 4, 2, 5])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            assemble(np.ones((5, 2)), DIMS_SISO, l_ini=1, l_f=2)


class TestExcitationRank:
    def test_noiseless_lti_rank(self):
        # Order-2 SISO plant driven by white noise: rank must be m*L + n.
        rng = np.random.default_rng(8)
        a_mat = np.array([[0.7, 0.2], [-0.1, 0.6]])
        b_mat = np.array([[1.0], [0.5]])
        c_mat = np.array([[1.0, -0.3]])
        u = rng.standard_normal(300)
        x = np.zeros(2)
        wsamples = []
        for ut in u:
            y = float((c_mat @ x)[0])
            wsamples.append([ut, y])
            x = a_mat @ x + b_mat[:, 0] * ut
        traj = Trajectory(DIMS_SISO, np.array(wsamples))
        dm = build_data_matrix(traj, l_ini=2, l_f=2)
        expected = 1 * 4 + 2  # m*L + n
        report = excitation_rank(dm, expected)
        assert report.rank == expected
        assert report.satisfied

    def test_zero_matrix(self):
        dm = assemble(np.zeros((4, 3)), DIMS_SISO, l_ini=1, l_f=1)
        report = excitation_rank(dm, expected=1)
        assert report.rank == 0
        assert not report.satisfied

    def test_full_noise_rank(self):
        rng = np.random.default_rng(9)
        dims = SignalDims(1, 2)
        window = 3
        traj = Trajectory(dims, rng.standard_normal((80, dims.q)))
        dm = build_data_matrix(traj, l_ini=1, l_f=2)
        report = excitation_rank(dm, expected=dims.q * window)
        assert report.rank == dims.q * window
        assert report.satisfied


class TestCsv:
    def test_handcrafted_round_trip(self, tmp_path):
        path = tmp_path / "traj.csv"
        traj = Trajectory(
            DIMS_SISO, np.array([[1.0, 2.0], [3.5, -4.25], [1e-15, 7.0]])
        )
        save_csv(traj, path)
        back = load_csv(path, DIMS_SISO)
        assert np.array_equal(back.samples, traj.samples)

    def test_random_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(17)
        dims = SignalDims(2, 1)
        traj = Trajectory(dims, rng.standard_normal((50, 3)))
        path = tmp_path / "r.csv"
        save_csv(traj, path)
        back = load_csv(path, dims)
        assert np.array_equal(back.samples, traj.samples)

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("u_1,y_1\n")
        with pytest.raises(TooShort):
            load_csv(path, DIMS_SISO)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u_1,y_1\n1.0,2.0\n3.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, DIMS_SISO)
        assert err.value.line == 3

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("u_1,y_1\n1.0,x\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, DIMS_SISO)
        assert err.value.line == 2

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, DIMS_SISO)
        assert err.value.line == 1


class TestDataMatrixValidation:
    def test_requires_columns(self):
        with pytest.raises(ShapeError):
            DataMatrix(DIMS_SISO, 1, 1, np.zeros((4, 0)))

    def test_trajectory_validation(self):
        with pytest.raises(ShapeError):
            Trajectory(DIMS_SISO, np.array([[1.0, np.inf]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # One non-finite column is caught when the data matrix is made, not
        # later by each estimator in its own way.
        cols = np.ones((4, 3))
        cols[:, 1] = bad
        with pytest.raises(ShapeError, match="non-finite"):
            assemble(cols, DIMS_SISO, 1, 1)
