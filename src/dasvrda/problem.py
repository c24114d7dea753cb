"""Composite objective: averaged linear-model loss plus elastic net.

The objective solved throughout the package is

    P(x) = (1/n) sum_i psi(a_i @ x, label_i) + l1 * ||x||_1 + (l2/2) * ||x||^2

with a smooth convex ``psi`` from :mod:`dasvrda.losses`.  ``Problem``
bundles the data, the loss and the regularizer together with cached
per-example smoothness constants, since those drive both step sizes and
importance sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .losses import LossKind

# Zero feature rows would make a smoothness constant (and hence an
# importance weight) degenerate, so stored constants are floored here.
SMOOTHNESS_FLOOR = 1e-12


@dataclass(frozen=True)
class ElasticNet:
    """Regularizer ``l1 * ||x||_1 + (l2 / 2) * ||x||^2``."""

    l1: float = 0.0
    l2: float = 0.0

    def __post_init__(self) -> None:
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError(f"regularization weights must be nonnegative: {self}")

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


def dataset_summary(data: Dataset) -> dict:
    """Basic shape/sparsity statistics, e.g. for run logs."""
    nnz = data.features.nnz
    row_nnz = np.diff(data.features.indptr)
    return {
        "n": data.n,
        "d": data.d,
        "nnz": int(nnz),
        "density": nnz / float(max(1, data.n * data.d)),
        "max_row_nnz": int(row_nnz.max()) if data.n else 0,
    }


@dataclass
class Problem:
    """Dataset + loss + elastic net, with cached smoothness constants."""

    data: Dataset
    loss: LossKind
    reg: ElasticNet
    smoothness: np.ndarray = field(repr=False)   # per-example, floored
    mean_smoothness: float = 0.0
    max_smoothness: float = 0.0

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
    mat = data.features
    row_sq = np.asarray(mat.multiply(mat).sum(axis=1)).ravel()
    consts = np.maximum(loss.curvature * row_sq, SMOOTHNESS_FLOOR)
    return Problem(
        data=data,
        loss=loss,
        reg=reg,
        smoothness=consts,
        mean_smoothness=float(consts.mean()),
        max_smoothness=float(consts.max()),
    )


def _check_point(problem: Problem, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.d,):
        raise ValueError(f"point has shape {x.shape}, expected ({problem.d},)")
    return x


def objective(problem: Problem, x: np.ndarray) -> float:
    """Full composite objective ``P(x)``."""
    x = _check_point(problem, x)
    t = problem.data.features @ x
    smooth = float(problem.loss.values(t, problem.data.labels).mean())
    return smooth + problem.reg.value(x)


def full_pass(problem: Problem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One pass over the data: predictions ``A @ x`` and the loss gradient."""
    x = _check_point(problem, x)
    t = problem.data.features @ x
    coef = problem.loss.derivatives(t, problem.data.labels) / problem.n
    return t, problem.data.features.T @ coef


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


def default_prox(problem: Problem):
    """Prox callback for ``problem``'s own elastic net regularizer."""
    reg = problem.reg

    def prox(z: np.ndarray, scale: float) -> np.ndarray:
        return prox_elastic_net(z, scale, reg)

    return prox
