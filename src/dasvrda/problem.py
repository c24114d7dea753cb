"""Composite objective: averaged linear-model loss plus elastic net.

The objective solved throughout the package is

    P(x) = (1/n) sum_i psi(a_i @ x, label_i) + l1 * ||x||_1 + (l2/2) * ||x||^2

with a smooth convex ``psi`` from :mod:`dasvrda.losses`.  ``Problem``
bundles the data, the loss and the regularizer together with cached
per-example smoothness constants, since those drive both step sizes and
importance sampling.

Each ``Problem`` also remembers the margins ``A @ x`` of the last point it
swept (see :func:`margins`).  :func:`objective` and :func:`full_pass` read
them through that memo, so a solver that evaluates the objective at a
stage output and then anchors the next stage there sweeps the design
matrix once.  The memo is keyed on the point's exact contents, holds one
entry and never changes a result: a hit returns the very bits a sweep
would.  :func:`~dasvrda.sampling.make_anchor` takes the entry over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
# The loops behind scipy's own CSR row gather and products; the tests hold
# them to the public ones bit for bit, since the module is private.
from scipy.sparse._sparsetools import csc_matvec, csr_matvec, csr_row_index

from .losses import LossKind

# Zero feature rows would make a smoothness constant (and hence an
# importance weight) degenerate, so stored constants are floored here.
SMOOTHNESS_FLOOR = 1e-12

#: Most stored entries of a block of rows that takes the csr form of
#: :class:`Rows` even when the matrix stores every entry; above it, such a
#: block takes BLAS on a dense view.  On one thread of a 2-vCPU x86-64 VM
#: (``python tools/fit_engine.py kernel``, d = 50), BLAS is faster per
#: minibatch step (its gather included) from 500 entries, the fewest
#: measured, and per full pass from about 6000, but the limit stays where
#: it was placed against an older form: lowering it would move small fully
#: stored problems' trajectories at rounding level.
BLAS_ABOVE_ENTRIES = 6000


@dataclass(frozen=True)
class ElasticNet:
    """Regularizer ``l1 * ||x||_1 + (l2 / 2) * ||x||^2``."""

    l1: float = 0.0
    l2: float = 0.0

    def __post_init__(self) -> None:
        # Written so that NaN fails it.
        if not (0 <= self.l1 < math.inf and 0 <= self.l2 < math.inf):
            raise ValueError(
                f"regularization weights must be finite and nonnegative: {self}")

    def value(self, x: np.ndarray) -> float:
        out = 0.0
        if self.l1:
            out += self.l1 * float(np.abs(x).sum())
        if self.l2:
            out += 0.5 * self.l2 * float(x @ x)
        return out


@dataclass
class Dataset:
    """Design matrix (CSR, float64, canonical form) and label vector."""

    features: sp.csr_matrix
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def make_dataset(features, labels) -> Dataset:
    """Canonicalize inputs into a :class:`Dataset`.

    Dense matrices are converted to CSR; indices are sorted and explicit
    zeros dropped so that downstream row slicing is deterministic.
    """
    mat = sp.csr_matrix(features, dtype=np.float64, copy=True)
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    y = np.asarray(labels, dtype=np.float64).ravel().copy()
    if mat.shape[0] != y.shape[0]:
        raise ValueError(f"{mat.shape[0]} rows but {y.shape[0]} labels")
    if not np.all(np.isfinite(mat.data)):
        raise ValueError("non-finite feature value")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite label")
    return Dataset(mat, y)


@dataclass
class Problem:
    """Dataset + loss + elastic net, with cached smoothness constants."""

    data: Dataset
    loss: LossKind
    reg: ElasticNet
    smoothness: np.ndarray = field(repr=False)   # per-example, floored
    mean_smoothness: float = 0.0
    max_smoothness: float = 0.0
    #: ``(point, margins)`` of the last point :func:`margins` swept, both
    #: read-only arrays: a copy of the point and ``A @ point``.
    swept: tuple = field(default=(None, None), init=False, repr=False,
                         compare=False)

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def d(self) -> int:
        return self.data.d


def make_problem(data: Dataset, loss: LossKind, reg: ElasticNet) -> Problem:
    if data.n == 0:
        raise ValueError("empty dataset")
    if loss.classification:
        bad = ~np.isin(data.labels, (-1.0, 1.0))
        if bad.any():
            raise ValueError(
                f"classification losses need labels in {{-1,+1}}; "
                f"got {data.labels[bad][:5]}"
            )
    row_sq = row_norms_sq(data.features)
    consts = np.maximum(loss.curvature * row_sq, SMOOTHNESS_FLOOR)
    return Problem(
        data=data,
        loss=loss,
        reg=reg,
        smoothness=consts,
        mean_smoothness=float(consts.mean()),
        max_smoothness=float(consts.max()),
    )


def row_norms_sq(mat: sp.csr_matrix) -> np.ndarray:
    """Squared Euclidean norm of every row of a canonical CSR matrix.

    The same sums as ``mat.multiply(mat).sum(axis=1)``, which reduces the
    nonempty rows with ``np.add.reduceat`` too, without its CSR
    temporaries.  (Where a square underflows to zero, that product drops
    the entry, which can move the last bit of its row's sum.)  Empty rows,
    trailing ones included (their start equals ``nnz``, which ``reduceat``
    would reject), are skipped and stay zero.
    """
    out = np.zeros(mat.shape[0])
    nonempty = np.flatnonzero(np.diff(mat.indptr))
    if nonempty.size:
        out[nonempty] = np.add.reduceat(mat.data * mat.data, mat.indptr[nonempty])
    return out


def row_entries(
    mat: sp.csr_matrix, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``idx`` of ``mat`` as CSR arrays, gathered by the loop that
    scipy's ``mat[idx]`` runs: their row pointer, and their stored entries'
    columns and values, row by row.  The pointer and the columns take the
    integer type of ``mat.indices``, unless the rows hold too many entries
    for it."""
    if idx.size and not (0 <= idx.min() and idx.max() < mat.shape[0]):
        raise IndexError(f"row index out of range for {mat.shape[0]} rows")
    ends = np.cumsum(mat.indptr[idx + 1] - mat.indptr[idx])
    total = int(ends[-1]) if ends.size else 0
    itype = mat.indices.dtype if total <= np.iinfo(mat.indices.dtype).max else np.int64
    col, val = np.empty(total, dtype=itype), np.empty(total, dtype=mat.data.dtype)
    # The loop's index type is that of its row list, which its outputs share.
    csr_row_index(idx.size, idx.astype(itype), mat.indptr, mat.indices, mat.data,
                  col, val)
    return np.concatenate(([0], ends)).astype(itype), col, val


@dataclass(frozen=True, eq=False)
class Rows:
    """Rows ``idx`` of a CSR design matrix (in order, possibly repeated),
    ready for the two products of a gradient: :meth:`dot` is
    ``A[idx] @ x`` and :meth:`tdot` is ``A[idx].T @ v``.  ``idx`` is None
    for all rows in order.  Two forms (see :attr:`form`):

    * ``csr``: the rows as CSR arrays -- the row pointer ``ptr`` and the
      entries' columns ``col`` and values ``val`` -- and each product is
      one of the compiled loops that scipy's own ``mat @ x`` and
      ``mat.T @ v`` run.  ``ptr`` indexes ``col`` and ``val`` directly, so
      it may be a slice of a larger block's pointer over that block's
      whole arrays, and all rows are the matrix's own arrays;
    * ``dense``, above :data:`BLAS_ABOVE_ENTRIES` entries when the matrix
      stores every entry: ``dense`` holds the rows as a row-major array
      (for all rows, a view of the matrix's own entries) and each product
      is one BLAS ``gemv``.

    The csr form adds every output's products one at a time, rows in order
    and entries in stored order, so it gives the bits of scipy's products
    on ``mat[idx]``.  BLAS sums in its own order, so the dense form agrees
    with them only to rounding.  Its products do not depend on where the
    rows sit in memory (checked on OpenBLAS 0.3.31), so a gathered copy of
    all rows in order gives the bits of the view, as a minibatch of all
    ``n`` rows must give the full pass's gradient.
    """

    idx: Optional[np.ndarray]
    count: int
    d: int
    ptr: Optional[np.ndarray] = None
    col: Optional[np.ndarray] = None
    val: Optional[np.ndarray] = None
    dense: Optional[np.ndarray] = None

    @property
    def form(self) -> str:
        return "csr" if self.dense is None else "dense"

    def dot(self, x: np.ndarray) -> np.ndarray:
        if self.dense is not None:
            return self.dense @ x
        # The compiled loop reads ``x`` at the stored columns unchecked.
        if x.shape != (self.d,):
            raise ValueError(f"vector has shape {x.shape}, expected ({self.d},)")
        out = np.zeros(self.count)
        csr_matvec(self.count, self.d, self.ptr, self.col, self.val, x, out)
        return out

    def tdot(self, v: np.ndarray) -> np.ndarray:
        if self.dense is not None:
            return v @ self.dense
        if v.shape != (self.count,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.count},)")
        out = np.zeros(self.d)
        csc_matvec(self.d, self.count, self.ptr, self.col, self.val, v, out)
        return out


def dense_view(mat: sp.csr_matrix, count: int) -> Optional[np.ndarray]:
    """``mat`` as a row-major ``n x d`` array that shares its entries, if
    ``count`` of its rows take the dense form of :class:`Rows`: they hold
    more than :data:`BLAS_ABOVE_ENTRIES` entries, and ``mat`` stores every
    one of its entries.  None otherwise.

    A canonical CSR matrix (sorted indices, no duplicates) with ``n * d``
    stored entries holds row ``i`` as ``data[i*d:(i+1)*d]``, columns in
    order, so the reshape copies nothing.  The tests take constant time:
    ``nnz`` is the last row pointer, and scipy checks the canonical format
    once per matrix and keeps the answer on it.
    """
    n, d = mat.shape
    if (count * d <= BLAS_ABOVE_ENTRIES or mat.nnz != n * d
            or not mat.has_canonical_format):
        return None
    return mat.data.reshape(n, d)


def take_rows(mat: sp.csr_matrix, idx: Optional[np.ndarray] = None) -> Rows:
    """Rows ``idx`` of ``mat`` (all rows when None) as :class:`Rows`, in
    the form :func:`dense_view` picks.  All rows keep the matrix's own
    arrays; a subset is gathered (``X[idx]`` in the dense form, or
    :func:`row_entries`)."""
    n, d = mat.shape
    count = n if idx is None else idx.size
    dense = dense_view(mat, count)
    if dense is not None:
        return Rows(idx, count, d, dense=dense if idx is None else dense[idx])
    if idx is None:
        return Rows(None, n, d, mat.indptr, mat.indices, mat.data)
    return Rows(idx, count, d, *row_entries(mat, idx))


def products_form(mat: sp.csr_matrix) -> str:
    """The form of a full pass's products over ``mat`` and why, as the
    trace header's ``products`` reports it: the dense form has more than
    :data:`BLAS_ABOVE_ENTRIES` entries; the csr form has at most that many,
    or more without every entry stored."""
    n, d = mat.shape
    form = take_rows(mat).form
    why = (f"<= {BLAS_ABOVE_ENTRIES}" if mat.nnz <= BLAS_ABOVE_ENTRIES
           else f"> {BLAS_ABOVE_ENTRIES}" + (" but not all" if form == "csr" else ""))
    return f"{form}: {mat.nnz} of {n}x{d} entries stored, {why}"


def _check_point(problem: Problem, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.d,):
        raise ValueError(f"point has shape {x.shape}, expected ({problem.d},)")
    return x


def margins(
    problem: Problem, x: np.ndarray, rows: Optional[Rows] = None
) -> np.ndarray:
    """Margins ``A @ x`` at a checked point, as :meth:`Rows.dot` of all rows
    (``rows``, when the caller has taken them already).

    The problem keeps the last point and its margins in ``problem.swept``.
    A point whose contents equal that point bit for bit, compared with the
    stored copy (so a caller that mutated its array in place misses), gets
    the stored margins back.
    """
    key, t = problem.swept
    if key is not None and np.array_equal(key.view(np.int64), x.view(np.int64)):
        return t
    problem.swept = (None, None)   # free the old entry before the new one
    if rows is None:
        rows = take_rows(problem.data.features)
    t = rows.dot(x)
    key = x.copy()
    key.flags.writeable = t.flags.writeable = False
    problem.swept = (key, t)
    return t


def objective(problem: Problem, x: np.ndarray) -> float:
    """Full composite objective ``P(x)``."""
    x = _check_point(problem, x)
    t = margins(problem, x)
    smooth = float(problem.loss.values(t, problem.data.labels).mean())
    return smooth + problem.reg.value(x)


def full_pass(problem: Problem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One pass over the data: the per-example loss derivatives at the
    predictions ``A @ x``, and the loss gradient ``A.T @ (derivs / n)``.

    Both products are those of :class:`Rows`, as in the minibatch
    estimator :func:`~dasvrda.sampling.vr_gradient`, so a batch of all
    ``n`` rows in order gives this gradient bit for bit.  The predictions
    come through :func:`margins`, so they cost nothing when the objective
    was just evaluated at the same point.
    """
    x = _check_point(problem, x)
    rows = take_rows(problem.data.features)
    t = margins(problem, x, rows)
    derivs = problem.loss.derivatives(t, problem.data.labels)
    return derivs, rows.tdot(derivs / problem.n)


def full_gradient(problem: Problem, x: np.ndarray) -> np.ndarray:
    """Gradient of the averaged loss term (regularizer handled by prox)."""
    return full_pass(problem, x)[1]


def prox_elastic_net(z: np.ndarray, scale: float, reg: ElasticNet) -> np.ndarray:
    """Proximal map of ``scale * (l1 ||.||_1 + l2/2 ||.||^2)``.

    Soft-thresholding at ``scale * l1`` followed by shrinkage by
    ``1 + scale * l2``; the exact minimizer of
    ``0.5 ||u - z||^2 + scale * R(u)`` coordinate by coordinate.
    """
    if scale < 0:
        raise ValueError(f"prox scale must be nonnegative, got {scale}")
    z = np.asarray(z, dtype=np.float64)
    thresh = scale * reg.l1
    if thresh > 0:
        u = np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)
    else:
        u = z.copy()
    shrink = 1.0 + scale * reg.l2
    if shrink != 1.0:
        u /= shrink
    return u
