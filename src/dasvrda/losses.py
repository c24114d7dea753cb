"""Smooth convex losses for linear-model empirical risk minimization.

Each loss is a scalar convex function ``psi`` applied to the linear
prediction ``t = a_i @ x`` of example ``i``.  Gradients of the
per-example objectives ``f_i(x) = psi(a_i @ x, label_i)`` follow from the
chain rule, so the solvers only ever need ``psi`` and its derivative in
``t`` plus a per-example smoothness constant.

Each loss object carries ``curvature`` (the Lipschitz constant ``c`` of
``dpsi/dt``; the per-example smoothness constant is ``c * ||a_i||^2``), a
``classification`` flag (labels in {-1, +1}), the vectorized ``values`` /
``derivatives`` the solvers use, and the scalar ``value`` / ``derivative``,
an independent oracle that :func:`loss_value` / :func:`loss_derivative` wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse as sp
from scipy.special import expit


@dataclass(frozen=True)
class Squared:
    """Residual loss ``0.5 * (t - label)**2`` for regression data."""

    curvature = 1.0
    classification = False

    def value(self, t: float, label: float) -> float:
        r = t - label
        return 0.5 * r * r

    def derivative(self, t: float, label: float) -> float:
        return t - label

    def values(self, t: np.ndarray, labels: np.ndarray) -> np.ndarray:
        r = t - labels
        return 0.5 * r * r

    def derivatives(self, t: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return t - labels


@dataclass(frozen=True)
class Logistic:
    """Logistic loss ``log(1 + exp(-label * t))`` with labels in {-1, +1}."""

    curvature = 0.25
    classification = True

    def value(self, t: float, label: float) -> float:
        # log(1 + exp(u)) with u = -label*t, computed without overflow.
        u = -label * t
        if u > 0:
            return u + math.log1p(math.exp(-u))
        return math.log1p(math.exp(u))

    def derivative(self, t: float, label: float) -> float:
        # -label * sigmoid(-label * t), kept stable for large |t|.
        u = label * t
        if u >= 0:
            e = math.exp(-u)
            return -label * e / (1.0 + e)
        return -label / (1.0 + math.exp(u))

    def values(self, t: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return np.logaddexp(0.0, -labels * t)

    def derivatives(self, t: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return -labels * expit(-labels * t)


@dataclass(frozen=True)
class SmoothedHinge:
    """Hinge loss whose corner is replaced by a quadratic of width ``nu``.

    With margin ``z = label * t`` the value is::

        0                       z >= 1
        1 - z - nu / 2          z <= 1 - nu
        (1 - z)**2 / (2 * nu)   otherwise

    The derivative in ``t`` is Lipschitz with constant ``1 / nu``.
    """

    nu: float

    classification = True

    def __post_init__(self) -> None:
        if not self.nu > 0:
            raise ValueError(f"smoothing width must be positive, got {self.nu}")

    @property
    def curvature(self) -> float:
        return 1.0 / self.nu

    def value(self, t: float, label: float) -> float:
        z = label * t
        if z >= 1.0:
            return 0.0
        if z <= 1.0 - self.nu:
            return 1.0 - z - 0.5 * self.nu
        return (1.0 - z) ** 2 / (2.0 * self.nu)

    def derivative(self, t: float, label: float) -> float:
        z = label * t
        if z >= 1.0:
            return 0.0
        if z <= 1.0 - self.nu:
            return -label
        return -label * (1.0 - z) / self.nu

    def values(self, t: np.ndarray, labels: np.ndarray) -> np.ndarray:
        z = labels * t
        nu = self.nu
        return np.where(
            z >= 1.0,
            0.0,
            np.where(z <= 1.0 - nu, 1.0 - z - 0.5 * nu, (1.0 - z) ** 2 / (2.0 * nu)),
        )

    def derivatives(self, t: np.ndarray, labels: np.ndarray) -> np.ndarray:
        z = labels * t
        nu = self.nu
        return np.where(
            z >= 1.0,
            0.0,
            np.where(z <= 1.0 - nu, -labels, -labels * (1.0 - z) / nu),
        )


LossKind = Union[Squared, Logistic, SmoothedHinge]


def _check_margin(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"non-finite margin {t!r}")
    return t


def loss_value(loss: LossKind, t: float, label: float) -> float:
    """Evaluate ``psi(t, label)`` for a single example."""
    return loss.value(_check_margin(t), label)


def loss_derivative(loss: LossKind, t: float, label: float) -> float:
    """Derivative of ``psi`` with respect to the prediction ``t``."""
    return loss.derivative(_check_margin(t), label)


def smoothness_constant(loss: LossKind, feature_row) -> float:
    """Smoothness constant of ``x -> psi(a @ x, label)`` for one feature row.

    Accepts a dense vector or a scipy sparse row; only the squared norm of
    the row enters.  A zero row yields 0 here; problem construction floors
    the stored constants at a small positive value so importance weights
    stay defined.
    """
    if sp.issparse(feature_row):
        sq = float(feature_row.multiply(feature_row).sum())
    else:
        row = np.asarray(feature_row, dtype=np.float64).ravel()
        sq = float(row @ row)
    return loss.curvature * sq
