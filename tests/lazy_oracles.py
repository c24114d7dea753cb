"""Scalar test oracles for the lazy engine's closed forms.

Per-coordinate statements of the formulas that
:func:`dasvrda.lazy.catch_up` and :func:`dasvrda.lazy.branch_runs`
evaluate for whole arrays: the soft-threshold, the run of skipped
iterations that lands in each nonzero soft-threshold branch, and the
primal catch-up from the prefix tables.  The tests check the array forms
and a direct replay of the dense stage against them.
"""

from __future__ import annotations

import numpy as np

from dasvrda.lazy import PrefixTables
from dasvrda.solvers import theta_pair


def soft(z: float, lam: float) -> float:
    """Scalar soft-threshold: shrink ``z`` toward zero by ``lam``."""
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def threshold_run(
    a: float, c3: float, z0: float, lo: int, hi: int, above: bool
) -> range:
    """Integers ``x`` in ``[lo, hi]`` (with ``lo >= 2``) where ``z0``
    compares strictly against ``M(x) = a (x^2 - x) + c3``.

    ``above=True`` selects ``z0 > M(x)``; ``above=False`` selects
    ``z0 < M(x)``.  On ``x >= 2`` the quadratic is monotone (its vertex is
    at 1/2), so the answer is one run anchored at an end of the window;
    the boundary comes from the quadratic's larger root and is then nudged
    by direct comparison so rounding in the root cannot misclassify an
    index.
    """
    if lo > hi:
        return range(lo, lo)

    def pred(x: int) -> bool:
        m = a * (float(x) * float(x) - float(x)) + c3
        return z0 > m if above else z0 < m

    if a == 0.0:
        return range(lo, hi + 1) if pred(lo) else range(lo, lo)
    # With a > 0, M increases on the window, so {z0 > M} is a prefix and
    # {z0 < M} a suffix; a < 0 mirrors this.
    is_prefix = (a > 0.0) == above
    disc = a * a + 4.0 * a * (z0 - c3)
    if disc <= 0.0:
        # No strict crossing: M - z0 keeps the sign it has at the window.
        return range(lo, hi + 1) if pred(lo) else range(lo, lo)
    root = 0.5 + np.sqrt(disc) / (2.0 * abs(a))
    if is_prefix:
        bound = min(hi, int(np.floor(root)))
        bound = max(bound, lo - 1)
        while bound >= lo and not pred(bound):
            bound -= 1
        while bound + 1 <= hi and pred(bound + 1):
            bound += 1
        return range(lo, bound + 1)
    bound = max(lo, int(np.floor(root)) + 1)
    bound = min(bound, hi + 1)
    while bound <= hi and not pred(bound):
        bound += 1
    while bound - 1 >= lo and pred(bound - 1):
        bound -= 1
    return range(bound, hi + 1)


def compute_K_sets(
    c1: float, c2: float, c3: float, z0_j: float, k_j: int, k: int
) -> tuple[range, range]:
    """Skipped iterations landing in each nonzero soft-threshold branch.

    Over the window ``k' = k_j + 2 .. k``, the dual coordinate at ``k'-1``
    is positive exactly when ``z0_j`` exceeds
    ``M_plus(k') = (c1 + c2)(k'^2 - k') + c3`` and negative exactly when
    ``z0_j`` falls below ``M_minus(k') = (c1 - c2)(k'^2 - k') + c3``, where
    ``c1`` scales the anchor gradient coordinate, ``c2 >= 0`` the l1 weight
    and ``c3`` collects the state at the last touch.  Returns the two runs
    (each a ``range``); both are empty when the window is.
    """
    if c2 < 0:
        raise ValueError(f"l1 coefficient must be nonnegative, got c2={c2}")
    lo = k_j + 2
    if k < lo:
        return range(lo, lo), range(lo, lo)
    k_plus = threshold_run(c1 + c2, c3, z0_j, lo, k, above=True)
    k_minus = threshold_run(c1 - c2, c3, z0_j, lo, k, above=False)
    return k_plus, k_minus


def lazy_x(
    x_at_kj: float,
    k_plus: range,
    k_minus: range,
    tables: PrefixTables,
    k: int,
    k_j: int,
    eta: float,
    l1: float,
    tilde_grad_j: float,
    g_sum_at_kj: float,
    z0_j: float,
) -> float:
    """Primal coordinate ``x_{k-1,j}`` from its state at the last touch
    ``k_j`` and the branch runs over the skipped window ``[k_j+2, k]``.

    Unrolling the primal interpolation shows
    ``theta_{k-1} theta_{k-2} x_{k-1}`` equals its value at the last touch
    plus ``sum theta_{k'-2} z_{k'-1}`` over the window; zero-branch terms
    vanish and the two nonzero branches are affine in the prefix tables.
    """
    if k - 1 == k_j:
        return x_at_kj
    if k - 1 < k_j:
        raise ValueError(f"target iteration {k - 1} precedes last touch {k_j}")
    c3 = eta * (g_sum_at_kj - theta_pair(k_j) * tilde_grad_j)
    base = z0_j - c3
    total = 0.0
    for run, sign in ((k_plus, 1.0), (k_minus, -1.0)):
        if len(run):
            lo, hi = run.start, run.stop - 1
            ds = tables.s[hi] - tables.s[lo - 1]
            dq = tables.s_quad[hi] - tables.s_quad[lo - 1]
            total += base * ds - eta * (tilde_grad_j + sign * l1) * dq
    return (theta_pair(k_j) * x_at_kj + total) / theta_pair(k - 1)
