"""Smooth convex losses for linear-model empirical risk minimization.

Each loss is a scalar convex function ``psi`` applied to the linear
prediction ``t = a_i @ x`` of example ``i``.  Gradients of the
per-example objectives ``f_i(x) = psi(a_i @ x, label_i)`` follow from the
chain rule, so the solvers only ever need ``psi`` and its derivative in
``t`` plus a per-example smoothness constant.

Each loss object carries ``curvature`` (the Lipschitz constant ``c`` of
``dpsi/dt``; :func:`~dasvrda.problem.make_problem` stores the per-example
smoothness constants ``c * ||a_i||^2``), a ``classification`` flag (labels
in {-1, +1}) and the vectorized ``values`` / ``derivatives``, the one
implementation of each loss: the solvers call them, and
:func:`loss_value` / :func:`loss_derivative` evaluate them at a single
example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import expit


@dataclass(frozen=True)
class Squared:
    """Residual loss ``0.5 * (t - label)**2`` for regression data."""

    curvature = 1.0
    classification = False

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
        if not 0 < self.nu < math.inf:
            raise ValueError(f"smoothing width must be finite and positive, "
                             f"got {self.nu}")

    @property
    def curvature(self) -> float:
        return 1.0 / self.nu

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


def _check_margin(t: float) -> np.ndarray:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"non-finite margin {t!r}")
    return np.array([t])


def loss_value(loss: LossKind, t: float, label: float) -> float:
    """Evaluate ``psi(t, label)`` for a single example."""
    return float(loss.values(_check_margin(t), np.array([float(label)]))[0])


def loss_derivative(loss: LossKind, t: float, label: float) -> float:
    """Derivative of ``psi`` with respect to the prediction ``t``."""
    return float(loss.derivatives(_check_margin(t), np.array([float(label)]))[0])
