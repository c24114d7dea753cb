"""Just-in-time sparse coordinate updates for the accelerated
dual-averaging inner stage with elastic-net regularization.

The dense inner stage touches every coordinate every iteration through its
prox step, even though a sparse minibatch only carries fresh information
about the coordinates its rows actually hit.  Two structural facts make a
lazy variant possible:

* the dual update always steps from the stage's starting point ``z_0``
  with a threshold and shrinkage that depend on the iteration count only
  through the closed-form weight product ``theta_k theta_{k-1} = k(k+1)/4``;
* on a coordinate no batch row has touched, the accumulated weighted
  gradient sum grows affinely in the (known) anchor gradient coordinate.

So the dual iterate of an untouched coordinate has a closed form at any
later iteration (:func:`lazy_z`), and the primal iterate — a weighted
average of dual iterates — reduces to interval sums of two prefix-sum
tables (:func:`lazy_x`), once the skipped iterations are classified by
which soft-threshold branch they landed in (:func:`compute_K_sets`).
Each branch region is determined by comparing ``z_0`` against a quadratic
in the iteration index whose vertex lies left of every valid index, so
each region is one contiguous run found from the quadratic's root and then
nudged by direct evaluation to absorb rounding.

:func:`catch_up` evaluates these closed forms for a whole array of
coordinates at once (:func:`branch_runs` is the array form of the run
search; its nudge is a loop over the coordinates still moving).  The
scalar :func:`soft`, :func:`compute_K_sets` and :func:`lazy_x` are the
per-coordinate statement of the same formulas and serve as test oracles;
:func:`lazy_z` works on floats and arrays alike.

The stage driver (:func:`lazy_one_stage_accsvrda`) reproduces the dense
:func:`~dasvrda.solvers.one_stage_accsvrda` trajectory to rounding noise.
Each step is a fixed number of numpy operations over the batch rows'
entries and the distinct columns they hit, with no Python loop over rows,
entries or coordinates; the stage ends with one sweep that catches up
every coordinate in chunks of :data:`SWEEP_CHUNK`.  A step therefore costs
a fixed overhead of a few dozen array operations plus work proportional to
the batch's nonzeros, against the dense stage's work proportional to
``d``; :func:`~dasvrda.harness.resolve` weighs the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import Problem
from .sampling import SamplingScheme, draw_batch, make_anchor
from .solvers import theta_pair

#: Coordinates per chunk of the final sweep: large enough to amortize the
#: per-operation overhead, small enough that its temporaries stay at a few
#: megabytes whatever ``d`` is.
SWEEP_CHUNK = 4096


def soft(z: float, lam: float) -> float:
    """Scalar soft-threshold: shrink ``z`` toward zero by ``lam``."""
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def lazy_z(
    z0_j: float,
    g_sum_at_kj: float,
    tilde_grad_j: float,
    eta: float,
    l1: float,
    l2: float,
    theta_pair_now: float,
    theta_pair_at_kj: float,
) -> float:
    """Dual coordinate at a later iteration, given its state at the last
    touch.

    ``theta_pair_now`` is ``theta_k theta_{k-1}`` at the target iteration,
    ``theta_pair_at_kj`` the same product at the last touch; the gradient
    sum grows by the anchor gradient times the difference in between.
    Elementwise: every argument may be a float or an array.
    """
    drift = g_sum_at_kj + (theta_pair_now - theta_pair_at_kj) * tilde_grad_j
    v = z0_j - eta * drift
    lam = eta * theta_pair_now * l1
    value = np.where(v > lam, v - lam, np.where(v < -lam, v + lam, 0.0))
    return value / (1.0 + eta * theta_pair_now * l2)


@dataclass
class PrefixTables:
    """Cumulative sums driving the primal catch-up.

    Index ``t`` holds the sum over ``k' = 1..t`` of
    ``theta_{k'-2} / (1 + eta l2 theta_{k'-1} theta_{k'-2})`` (``s``) and of
    ``theta_{k'-1} theta_{k'-2}**2 / (1 + eta l2 theta_{k'-1} theta_{k'-2})``
    (``s_quad``).
    """

    s: np.ndarray
    s_quad: np.ndarray


def build_prefix_tables(kmax: int, eta: float, l2: float) -> PrefixTables:
    """Tables covering interval sums up to index ``kmax`` inclusive."""
    ks = np.arange(kmax + 1, dtype=np.float64)
    th2 = np.where(ks >= 2.0, (ks - 1.0) / 2.0, 0.0)          # theta_{k'-2}
    pair_prev = np.where(ks >= 2.0, (ks - 1.0) * ks / 4.0, 0.0)  # theta_{k'-1} theta_{k'-2}
    denom = 1.0 + eta * l2 * pair_prev
    term = th2 / denom
    return PrefixTables(s=np.cumsum(term), s_quad=np.cumsum(pair_prev * term))


def _threshold_run(
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
    k_plus = _threshold_run(c1 + c2, c3, z0_j, lo, k, above=True)
    k_minus = _threshold_run(c1 - c2, c3, z0_j, lo, k, above=False)
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


def _theta_pairs(k: np.ndarray) -> np.ndarray:
    """:func:`~dasvrda.solvers.theta_pair` of an array of iteration
    indices ``k >= 0``, with the same rounding."""
    return k * (k + 1) / 4.0


def branch_runs(
    a: np.ndarray, c3: np.ndarray, z0: np.ndarray, lo: np.ndarray, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`_threshold_run` with ``above=True``: one run
    ``[start, stop)`` of ``z0 > M(x) = a (x^2 - x) + c3`` per entry, over
    the window ``[lo, hi]`` (``lo >= 2``).

    ``z0 < M(x)`` is ``-z0 > -M(x)`` with the same rounding, so negating
    ``a``, ``c3`` and ``z0`` gives the ``above=False`` runs.  ``M`` is
    monotone on the window, so each run is split from the rest of the
    window at one index: the root of the quadratic gives it, and a nudge
    loop over the entries still moving corrects it by direct comparison.
    Entries with ``a == 0`` or no strict crossing take the whole window or
    nothing, as ``z0`` compares at ``lo``.
    """

    def holds(x: np.ndarray, at) -> np.ndarray:
        xf = x.astype(np.float64)
        return z0[at] > a[at] * (xf * xf - xf) + c3[at]

    start = lo.copy()
    stop = np.where(holds(lo, slice(None)), hi + 1, lo)
    disc = a * a + 4.0 * a * (z0 - c3)
    cross = np.flatnonzero((a != 0.0) & (disc > 0.0))
    if cross.size == 0:
        return start, stop
    ac, lo_c = a[cross], lo[cross]
    root = 0.5 + np.sqrt(disc[cross]) / (2.0 * np.abs(ac))
    # With M increasing the run is the low part [lo, split), else the high
    # part [split, hi].  fmin/fmax keep a NaN root inside the window.
    low = ac > 0.0
    split = np.fmax(np.fmin(np.floor(root) + 1.0, hi + 1), lo_c).astype(np.int64)

    def on_low_side(x, i):
        return holds(x, cross[i]) == low[i]

    i = np.flatnonzero(split > lo_c)
    i = i[~on_low_side(split[i] - 1, i)]
    while i.size:
        split[i] -= 1
        i = i[split[i] > lo_c[i]]
        i = i[~on_low_side(split[i] - 1, i)]
    i = np.flatnonzero(split <= hi)
    i = i[on_low_side(split[i], i)]
    while i.size:
        split[i] += 1
        i = i[split[i] <= hi]
        i = i[on_low_side(split[i], i)]
    start[cross] = np.where(low, lo_c, split)
    stop[cross] = np.where(low, split, hi + 1)
    return start, stop


def catch_up(
    x_last: np.ndarray,
    z_last: np.ndarray,
    z0: np.ndarray,
    g_sum: np.ndarray,
    tilde_grad: np.ndarray,
    k_last: np.ndarray,
    target: int,
    tables: PrefixTables,
    eta: float,
    l1: float,
    l2: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``(x, z)`` at iteration ``target`` of an array of coordinates, given
    each one's state at its last touch ``k_last <= target``.

    The array form of :func:`lazy_z`, :func:`compute_K_sets` and
    :func:`lazy_x`, with the same arithmetic; returns new arrays.
    """
    x = np.array(x_last, dtype=np.float64)
    z = np.array(z_last, dtype=np.float64)
    gap = np.flatnonzero(k_last < target)
    if gap.size == 0:
        return x, z
    kj = k_last[gap]
    tg, gs, z0g = tilde_grad[gap], g_sum[gap], z0[gap]
    tp_kj = _theta_pairs(kj)
    tp_now = theta_pair(target)
    z[gap] = lazy_z(z0g, gs, tg, eta, l1, l2, tp_now, tp_kj)
    c1 = 0.25 * eta * tg
    c2 = 0.25 * eta * l1
    c3 = eta * (gs - tp_kj * tg)
    # The positive branch's run, then the negative branch's, in one search.
    start, stop = branch_runs(
        np.concatenate((c1 + c2, -(c1 - c2))), np.concatenate((c3, -c3)),
        np.concatenate((z0g, -z0g)), np.concatenate((kj, kj)) + 2, target + 1,
    )
    ds = tables.s[stop - 1] - tables.s[start - 1]
    dq = tables.s_quad[stop - 1] - tables.s_quad[start - 1]
    slope = np.concatenate((tg + l1, tg - l1))
    base = z0g - c3
    term = np.where(stop > start,
                    np.concatenate((base, base)) * ds - eta * slope * dq, 0.0)
    total = (0.0 + term[:gap.size]) + term[gap.size:]
    x[gap] = (tp_kj * x[gap] + total) / tp_now
    return x, z


class LazyStage:
    """Stepwise driver holding the per-coordinate last-touch state.

    Exposes :meth:`step` (one inner iteration over the batch rows' entries
    and the distinct columns they hit) and :meth:`snapshot` (non-destructive
    full vectors at the current iteration, cost ``O(d)``), so tests can
    compare against the dense stage mid-flight.  ``touched`` counts
    coordinate updates for complexity accounting.
    """

    def __init__(
        self,
        problem: Problem,
        y_start: np.ndarray,
        x_anchor: np.ndarray,
        eta: float,
        m: int,
        b: int,
        scheme: SamplingScheme,
        rng: np.random.Generator,
    ) -> None:
        if m < 1:
            raise ValueError(f"need at least one inner iteration, got m={m}")
        if eta <= 0:
            raise ValueError(f"step size must be positive, got eta={eta}")
        self.problem = problem
        self.eta = float(eta)
        self.m = m
        self.b = b
        self.scheme = scheme
        self.rng = rng
        self.l1 = float(problem.reg.l1)
        self.l2 = float(problem.reg.l2)
        anchor = make_anchor(problem, x_anchor)  # one full pass
        self.tilde_grad = anchor.grad
        self.anchor_derivs = anchor.derivs
        start = np.asarray(y_start, dtype=np.float64)
        d = problem.d
        if start.shape != (d,):
            raise ValueError(f"start has shape {start.shape}, expected ({d},)")
        self.z0 = start.copy()
        self.x_last = start.copy()
        self.z_last = start.copy()
        self.g_sum = np.zeros(d)
        self.k_last = np.zeros(d, dtype=np.int64)
        self.k = 0
        self.tables = build_prefix_tables(m + 1, self.eta, self.l2)
        self.weights = scheme.weights
        feats = problem.data.features
        self._indptr = feats.indptr
        self._indices = feats.indices
        self._data = feats.data
        self._labels = problem.data.labels
        self.touched = 0

    def _catch_up(self, cols, target: int) -> tuple[np.ndarray, np.ndarray]:
        """(x, z) of coordinates ``cols`` (index array or slice) at
        iteration ``target``."""
        return catch_up(
            self.x_last[cols], self.z_last[cols], self.z0[cols],
            self.g_sum[cols], self.tilde_grad[cols], self.k_last[cols],
            target, self.tables, self.eta, self.l1, self.l2,
        )

    def step(self) -> None:
        if self.k >= self.m:
            raise RuntimeError(f"stage already ran its {self.m} iterations")
        k = self.k + 1
        idx = draw_batch(self.scheme, self.rng, self.b)
        # The batch rows' entries, row by row: ``row`` is the position in
        # the batch, ``col`` the index into the distinct columns ``cols``.
        starts = self._indptr[idx]
        lens = self._indptr[idx + 1] - starts
        row = np.repeat(np.arange(idx.size), lens)
        pos = np.arange(row.size) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
        cols, col = np.unique(self._indices[pos], return_inverse=True)
        vals = self._data[pos]
        inv = 2.0 / (k + 1)            # 1 / theta_k
        keep = 1.0 - inv
        x_prev, z_prev = self._catch_up(cols, k - 1)
        y = keep * x_prev + inv * z_prev
        # Batch margins at the interpolated point, then the per-row
        # derivative deltas against the anchor; bincount adds entry by
        # entry in row order.
        t_y = np.bincount(row, weights=vals * y[col], minlength=idx.size)
        dy = self.problem.loss.derivatives(t_y, self._labels[idx])
        delta = dy - self.anchor_derivs[idx]
        if self.weights is not None:
            delta = self.weights[idx] * delta
        delta /= idx.size
        g_part = np.bincount(col, weights=delta[row] * vals, minlength=cols.size)
        tg = self.tilde_grad[cols]
        g_sum = (
            self.g_sum[cols]
            + (theta_pair(k - 1) - _theta_pairs(self.k_last[cols])) * tg
            + (0.5 * k) * (g_part + tg)  # theta_{k-1} g_k
        )
        tp_k = theta_pair(k)
        z_new = lazy_z(self.z0[cols], g_sum, tg, self.eta, self.l1, self.l2,
                       tp_k, tp_k)
        self.g_sum[cols] = g_sum
        self.z_last[cols] = z_new
        self.x_last[cols] = keep * x_prev + inv * z_new
        self.k_last[cols] = k
        self.touched += cols.size
        self.k = k

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Full ``(x_k, z_k)`` at the current iteration, without touching
        the lazy state (long skips stay long).  Runs in chunks of
        :data:`SWEEP_CHUNK` coordinates, so its temporaries stay small."""
        k = self.k
        if k == 0:
            return self.z0.copy(), self.z0.copy()
        d = self.problem.d
        x = np.empty(d)
        z = np.empty(d)
        for lo in range(0, d, SWEEP_CHUNK):
            part = slice(lo, lo + SWEEP_CHUNK)
            x[part], z[part] = self._catch_up(part, k)
        return x, z

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        """Run any remaining iterations, then sweep every coordinate up to
        the final iteration and return ``(x_m, z_m)``."""
        while self.k < self.m:
            self.step()
        x, z = self.snapshot()
        self.touched += self.problem.d
        return x, z


def lazy_one_stage_accsvrda(
    problem: Problem,
    y_start: np.ndarray,
    x_anchor: np.ndarray,
    eta: float,
    m: int,
    b: int,
    scheme: SamplingScheme,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop-in sparse replacement for
    :func:`~dasvrda.solvers.one_stage_accsvrda` (same batches, same seed,
    same output up to rounding)."""
    stage = LazyStage(problem, y_start, x_anchor, eta, m, b, scheme, rng)
    return stage.finish()
