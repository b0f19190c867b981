"""Recorded trajectories, window stacking, and the partitioned data matrix.

A trajectory is a finite multichannel signal with a declared input/output
split (inputs first within each time step). Windowing stacks length-L
segments into columns; `assemble` records the row permutation that reorders
each column into the (past window, future inputs, future outputs) blocks
used by the predictors and controllers.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ShapeError, TooShort
from .linalg import DEFAULT_RANK_TOL, matrix_rank, read_only


@dataclass(frozen=True)
class SignalDims:
    """Channel counts: m inputs, p outputs, q = m + p per time step."""

    m: int
    p: int

    def __post_init__(self):
        if self.m < 1 or self.p < 1:
            raise ShapeError(f"need at least one input and one output, got m={self.m}, p={self.p}")

    @property
    def q(self) -> int:
        return self.m + self.p


@dataclass(frozen=True)
class Trajectory:
    """T stacked samples w_t in R^q, inputs first in each sample."""

    dims: SignalDims
    samples: np.ndarray  # (T, q)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != self.dims.q:
            raise ShapeError(f"samples must be (T, {self.dims.q}), got {s.shape}")
        if s.shape[0] < 1:
            raise TooShort("trajectory must contain at least one sample")
        if not np.all(np.isfinite(s)):
            raise ShapeError("trajectory contains non-finite samples")
        object.__setattr__(self, "samples", s)

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    @property
    def inputs(self) -> np.ndarray:
        return self.samples[:, : self.dims.m]

    @property
    def outputs(self) -> np.ndarray:
        return self.samples[:, self.dims.m :]


def block_row_permutation(dims: SignalDims, l_ini: int, l_f: int) -> np.ndarray:
    """Row indices reordering a chronological length-L stack into
    [w_ini; u_f; y_f]. With ``l_ini`` 0 they give the blocked stack, all L
    inputs and then all L outputs."""
    q, m = dims.q, dims.m
    starts = q * np.arange(l_ini, l_ini + l_f)[:, None]  # first row of each future step
    u_f = (starts + np.arange(m)).ravel()
    y_f = (starts + m + np.arange(dims.p)).ravel()
    return np.concatenate([np.arange(q * l_ini), u_f, y_f])


@dataclass(frozen=True)
class DataMatrix:
    """Column-stacked length-L windows with the recorded block permutation.

    ``matrix`` keeps columns in chronological stack order; ``row_index`` is
    the permutation such that ``matrix[row_index]`` equals the
    [w_ini; u_f; y_f] ordering. Column order is chronological by window
    start (fixed for reproducibility; the estimators are permutation
    invariant in the columns). Every entry must be finite. Both arrays are
    read-only, since deepc keeps set-up work per data matrix object (see
    :mod:`gdpc.control`): ``matrix`` is a copy of the caller's array, or,
    built by :func:`build_data_matrix`, the window array it has just made,
    frozen in place (:meth:`_of_windows`).

    A data matrix also keeps the factor L of its LQ factorization, made by
    the first :func:`~gdpc.behavior.predictive_model` or
    :func:`~gdpc.behavior.data_lq` call, and the predictors read from it, in
    ``_lq`` (no Q, no reflectors): not an argument, not compared, and empty
    again in a copy made by ``dataclasses.replace``.
    """

    dims: SignalDims
    l_ini: int
    l_f: int
    matrix: np.ndarray  # (q*L, D), chronological row order
    row_index: np.ndarray = field(default=None)  # set by _check_and_set
    _lq: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._check_and_set(read_only(self.matrix))

    @classmethod
    def _of_windows(cls, dims: SignalDims, l_ini: int, l_f: int,
                    windows: np.ndarray) -> "DataMatrix":
        """The data matrix of a fresh float array of stacked windows that no
        one else holds, frozen in place instead of copied, with every check
        of ``__post_init__``."""
        windows.flags.writeable = False
        new = object.__new__(cls)
        new.__dict__.update(dims=dims, l_ini=l_ini, l_f=l_f)
        new._check_and_set(windows)
        return new

    def _check_and_set(self, w: np.ndarray) -> None:
        """Check the read-only float array ``w`` against the window lengths
        and keep it as ``matrix``, with the row permutation and an empty
        LQ store."""
        if self.l_ini < 1 or self.l_f < 1:
            raise ShapeError(f"window lengths must be >= 1, got L_ini={self.l_ini}, L_f={self.l_f}")
        expected_rows = self.dims.q * (self.l_ini + self.l_f)
        if w.ndim != 2 or w.shape[0] != expected_rows:
            raise ShapeError(f"data matrix must have {expected_rows} rows, got shape {w.shape}")
        if w.shape[1] < 1:
            raise ShapeError("data matrix must have at least one column")
        if not np.isfinite(w).all():
            raise ShapeError("data matrix contains non-finite entries")
        row_index = block_row_permutation(self.dims, self.l_ini, self.l_f)
        row_index.flags.writeable = False
        object.__setattr__(self, "matrix", w)
        object.__setattr__(self, "row_index", row_index)
        object.__setattr__(self, "_lq", {})

    @property
    def window_length(self) -> int:
        return self.l_ini + self.l_f

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    @property
    def ordered(self) -> np.ndarray:
        """Rows reordered to [w_ini; u_f; y_f]."""
        return self.matrix[self.row_index]

    @property
    def past(self) -> np.ndarray:
        """W_p block: the length-L_ini past window, all channels."""
        return self.matrix[self.row_index[: self.dims.q * self.l_ini]]

    @property
    def future_inputs(self) -> np.ndarray:
        """U_f block."""
        lo = self.dims.q * self.l_ini
        return self.matrix[self.row_index[lo : lo + self.dims.m * self.l_f]]

    @property
    def future_outputs(self) -> np.ndarray:
        """Y_f block."""
        lo = self.dims.q * self.l_ini + self.dims.m * self.l_f
        return self.matrix[self.row_index[lo:]]

    @property
    def free_block(self) -> np.ndarray:
        """[W_p; U_f]: the rows the predictor conditions on."""
        n_free = self.dims.q * self.l_ini + self.dims.m * self.l_f
        return self.matrix[self.row_index[:n_free]]

    @property
    def free_rows(self) -> np.ndarray:
        """Chronological row indices of the (w_ini, u_f) block."""
        return self.row_index[: self.dims.q * self.l_ini + self.dims.m * self.l_f]

    @property
    def dependent_rows(self) -> np.ndarray:
        """Chronological row indices of the y_f block."""
        return self.row_index[self.dims.q * self.l_ini + self.dims.m * self.l_f :]


def window_trajectory(traj: Trajectory, window: int, mode: str = "hankel") -> np.ndarray:
    """Stack length-``window`` segments of ``traj`` as columns.

    ``hankel`` emits all T-L+1 sliding windows (violates sample
    independence, standard practice); ``disjoint`` emits floor(T/L)
    non-overlapping windows. Column j is the chronological stack of the
    window starting at j (hankel) or j * window (disjoint). The result is a
    new array; later writes to ``traj.samples`` do not reach it.
    """
    if window < 1:
        raise ShapeError(f"window must be >= 1, got {window}")
    if traj.length < window:
        raise TooShort(f"trajectory length {traj.length} < window {window}")
    if mode == "hankel":
        stride = 1
    elif mode == "disjoint":
        stride = window
    else:
        raise ValueError(f"unknown windowing mode {mode!r}")
    # views[j, c, k] is channel c of sample j * stride + k.
    views = np.lib.stride_tricks.sliding_window_view(traj.samples, window, axis=0)[::stride]
    cols = np.empty((window * traj.dims.q, views.shape[0]))
    cols.reshape(window, traj.dims.q, -1)[...] = views.transpose(2, 1, 0)
    return cols


def assemble(columns: np.ndarray, dims: SignalDims, l_ini: int, l_f: int) -> DataMatrix:
    """Wrap stacked window columns into a partitioned DataMatrix; its
    constructor checks them (:class:`ShapeError`)."""
    return DataMatrix(dims=dims, l_ini=l_ini, l_f=l_f, matrix=columns)


def build_data_matrix(
    traj: Trajectory, l_ini: int, l_f: int, mode: str = "hankel"
) -> DataMatrix:
    """Window a trajectory and assemble the partitioned data matrix.

    The data matrix keeps the window array that :func:`window_trajectory`
    has just made, frozen in place rather than copied
    (``DataMatrix._of_windows``). It is still scanned for non-finite
    entries: ``traj`` keeps its caller's sample array, which may have
    changed since the trajectory checked it.
    """
    cols = window_trajectory(traj, l_ini + l_f, mode)
    return DataMatrix._of_windows(traj.dims, l_ini, l_f, cols)


@dataclass(frozen=True)
class RankReport:
    rank: int
    satisfied: bool


def excitation_rank(
    dm: DataMatrix, expected: int, rank_tol: float = DEFAULT_RANK_TOL
) -> RankReport:
    """Numerical rank of the data matrix against the excitation target
    (m*L + n for an order-n plant)."""
    r = matrix_rank(dm.matrix, rank_tol)
    return RankReport(rank=r, satisfied=r >= expected)


def _channel_names(dims: SignalDims) -> list[str]:
    return [f"u_{i + 1}" for i in range(dims.m)] + [f"y_{j + 1}" for j in range(dims.p)]


def save_csv(traj: Trajectory, path) -> None:
    """Write one row per time step with header u_1..u_m, y_1..y_p.

    Floats are written with 17 significant digits so a round trip is exact.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_channel_names(traj.dims))
        for row in traj.samples:
            writer.writerow([f"{v:.17g}" for v in row])


def _read_rows(path, header: list[str], noun: str = "") -> list[list[float]]:
    """The numeric rows of the CSV file at ``path`` below its header row,
    which must be ``header``, blank rows skipped. Raises ``ParseError`` with
    the line number on a missing header, another header (reported as not
    matching ``noun`` and ``header``), a row of another width or a
    non-numeric field."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader)
        except StopIteration:
            raise ParseError("empty file: missing header row", line=1) from None
        if [h.strip() for h in found] != header:
            raise ParseError(f"header {found!r} does not match {noun}{header!r}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=lineno)
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ParseError(f"non-numeric field: {exc}", line=lineno) from None
    return rows


def load_csv(path, dims: SignalDims) -> Trajectory:
    """Read a trajectory written by :func:`save_csv`.

    Channel counts come from ``dims`` (the experiment config), never from
    the file shape; the header is validated against them.
    """
    rows = _read_rows(path, _channel_names(dims), "configured channels ")
    if not rows:
        raise TooShort("file contains a header but no data rows")
    return Trajectory(dims=dims, samples=np.array(rows))
