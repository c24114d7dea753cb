"""Scalar test oracles for the losses.

Per-example statements, with the standard library's ``math``, of the
values and derivatives that each loss's vectorized ``values`` /
``derivatives`` compute for whole arrays.  The tests check the array forms
and the problem's objective and gradient against them.
"""

from __future__ import annotations

import math

from dasvrda import Logistic, SmoothedHinge, Squared


def value(loss, t: float, label: float) -> float:
    """``psi(t, label)``."""
    if isinstance(loss, Squared):
        r = t - label
        return 0.5 * r * r
    if isinstance(loss, Logistic):
        # log(1 + exp(u)) with u = -label*t, computed without overflow.
        u = -label * t
        if u > 0:
            return u + math.log1p(math.exp(-u))
        return math.log1p(math.exp(u))
    if isinstance(loss, SmoothedHinge):
        z = label * t
        if z >= 1.0:
            return 0.0
        if z <= 1.0 - loss.nu:
            return 1.0 - z - 0.5 * loss.nu
        return (1.0 - z) ** 2 / (2.0 * loss.nu)
    raise TypeError(f"no oracle for {loss!r}")


def derivative(loss, t: float, label: float) -> float:
    """``dpsi/dt`` at ``(t, label)``."""
    if isinstance(loss, Squared):
        return t - label
    if isinstance(loss, Logistic):
        # -label * sigmoid(-label * t), kept stable for large |t|.
        u = label * t
        if u >= 0:
            e = math.exp(-u)
            return -label * e / (1.0 + e)
        return -label / (1.0 + math.exp(u))
    if isinstance(loss, SmoothedHinge):
        z = label * t
        if z >= 1.0:
            return 0.0
        if z <= 1.0 - loss.nu:
            return -label
        return -label * (1.0 - z) / loss.nu
    raise TypeError(f"no oracle for {loss!r}")
