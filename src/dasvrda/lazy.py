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

The stage driver (:func:`lazy_one_stage_accsvrda`) reproduces the dense
:func:`~dasvrda.solvers.one_stage_accsvrda` trajectory to rounding noise
while doing work proportional to the nonzeros of the drawn rows, plus one
final full-width sweep that materializes the stage output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import Problem
from .sampling import SamplingScheme, draw_batch, make_anchor
from .solvers import theta_pair


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
    """
    drift = g_sum_at_kj + (theta_pair_now - theta_pair_at_kj) * tilde_grad_j
    value = soft(z0_j - eta * drift, eta * theta_pair_now * l1)
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


class LazyStage:
    """Stepwise driver holding the per-coordinate last-touch state.

    Exposes :meth:`step` (one inner iteration, cost proportional to the
    batch rows' nonzeros) and :meth:`snapshot` (non-destructive full
    vectors at the current iteration, cost ``O(d)``), so tests can compare
    against the dense stage mid-flight.  ``touched`` counts coordinate
    updates for complexity accounting.
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

    def _catch_up(self, j: int, target: int) -> tuple[float, float]:
        """(x, z) of coordinate ``j`` at iteration ``target`` (``>= k_j``)."""
        kj = int(self.k_last[j])
        if target == kj:
            return float(self.x_last[j]), float(self.z_last[j])
        eta = self.eta
        tg = float(self.tilde_grad[j])
        gs = float(self.g_sum[j])
        z0 = float(self.z0[j])
        z = lazy_z(z0, gs, tg, eta, self.l1, self.l2,
                   theta_pair(target), theta_pair(kj))
        c3 = eta * (gs - theta_pair(kj) * tg)
        k_plus, k_minus = compute_K_sets(
            0.25 * eta * tg, 0.25 * eta * self.l1, c3, z0, kj, target + 1
        )
        x = lazy_x(
            float(self.x_last[j]), k_plus, k_minus, self.tables,
            target + 1, kj, eta, self.l1, tg, gs, z0,
        )
        return x, z

    def step(self) -> None:
        if self.k >= self.m:
            raise RuntimeError(f"stage already ran its {self.m} iterations")
        k = self.k + 1
        idx = draw_batch(self.scheme, self.rng, self.b)
        indptr, indices, data = self._indptr, self._indices, self._data
        spans = [(int(indptr[i]), int(indptr[i + 1])) for i in idx]
        parts = [indices[a:b] for a, b in spans if b > a]
        cols = (
            np.unique(np.concatenate(parts)).tolist() if parts else []
        )
        inv = 2.0 / (k + 1)            # 1 / theta_k
        keep = 1.0 - inv
        tp_k = theta_pair(k)
        x_prev: dict[int, float] = {}
        y_val: dict[int, float] = {}
        for j in cols:
            xj, zj = self._catch_up(j, k - 1)
            x_prev[j] = xj
            y_val[j] = keep * xj + inv * zj
        # Batch margins at the interpolated point, then the per-row
        # derivative deltas against the anchor.
        t_y = np.empty(len(idx))
        for pos, (a, b) in enumerate(spans):
            acc = 0.0
            for p in range(a, b):
                acc += data[p] * y_val[int(indices[p])]
            t_y[pos] = acc
        dy = self.problem.loss.derivatives(t_y, self._labels[idx])
        delta = dy - self.anchor_derivs[idx]
        if self.weights is not None:
            delta = self.weights[idx] * delta
        delta /= len(idx)
        g_part: dict[int, float] = {}
        for pos, (a, b) in enumerate(spans):
            c = float(delta[pos])
            if c == 0.0:
                continue
            for p in range(a, b):
                j = int(indices[p])
                g_part[j] = g_part.get(j, 0.0) + c * data[p]
        eta = self.eta
        half_k = 0.5 * k               # theta_{k-1}
        tp_prev = theta_pair(k - 1)
        for j in cols:
            tg = float(self.tilde_grad[j])
            g_k = g_part.get(j, 0.0) + tg
            gs_new = (
                float(self.g_sum[j])
                + (tp_prev - theta_pair(int(self.k_last[j]))) * tg
                + half_k * g_k
            )
            z_new = lazy_z(float(self.z0[j]), gs_new, tg, eta,
                           self.l1, self.l2, tp_k, tp_k)
            self.g_sum[j] = gs_new
            self.z_last[j] = z_new
            self.x_last[j] = keep * x_prev[j] + inv * z_new
            self.k_last[j] = k
        self.touched += len(cols)
        self.k = k

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Full ``(x_k, z_k)`` at the current iteration, without touching
        the lazy state (long skips stay long)."""
        k = self.k
        if k == 0:
            return self.z0.copy(), self.z0.copy()
        d = self.problem.d
        x = np.empty(d)
        z = np.empty(d)
        for j in range(d):
            x[j], z[j] = self._catch_up(j, k)
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
