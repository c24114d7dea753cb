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
later iteration (:func:`lazy_z`: the dense stage's own prox,
:func:`~dasvrda.problem.prox_elastic_net`, at the drifted point), and the
primal iterate — a weighted average of dual iterates — reduces to interval
sums of two prefix-sum tables (:class:`PrefixTables`), once the skipped
iterations are classified by which soft-threshold branch they landed in.
Each branch region is determined by comparing ``z_0`` against a quadratic
in the iteration index whose vertex lies left of every valid index, so
each region is one contiguous run found from the quadratic's root and then
nudged by direct evaluation to absorb rounding.

:func:`catch_up` evaluates these closed forms for a whole array of
coordinates at once (:func:`branch_runs` is the array form of the run
search; its nudge is a loop over the coordinates still moving).
:func:`lazy_z` works on floats and arrays alike.  The test suite states
the same formulas per coordinate, as scalar oracles for these array
forms.

The stage driver (:func:`lazy_one_stage_accsvrda`) reproduces the dense
:func:`~dasvrda.solvers.one_stage_accsvrda` trajectory to rounding noise.
Each step costs one :func:`~dasvrda.problem.row_entries` of its batch's
rows, one ``np.unique`` over their entries, giving the distinct columns
``U`` they hit, and one :func:`catch_up` of ``U`` to the iteration before
the step.  It then runs the plain dense recurrence on ``U`` alone, its
batch products the csr form of :class:`~dasvrda.problem.Rows` over ``U``
(the batch's entries, their columns numbered by position in ``U``), and
writes ``U``'s state back as its last touch.  So a step costs a fixed
sequence of array operations on ``|U|`` entries, against the dense stage's
work proportional to ``d``; :func:`~dasvrda.harness.choose_engine` weighs
the two.  There is no Python loop over rows, entries or coordinates, and
the stage ends with one sweep that catches up every coordinate in chunks
of :data:`SWEEP_CHUNK`.

The compiled path: :meth:`LazyStage.finish` runs a stage that has not
stepped yet as one call of the library's lazy kernel (``lazy_stage.c``),
which keeps these steps, their catch-ups, their csr-order products and
the sweep expression by expression, and so the bits and ``touched`` of
:meth:`LazyStage.step` and :meth:`LazyStage.snapshot`; those run where the
kernel cannot and are its test oracle.  On both paths the sweep writes the
final point into the last-touch state, so after :meth:`LazyStage.finish`
every coordinate's last touch is ``m`` and ``x_last``/``z_last`` are the
stage's output; the start ``z0`` is a read-only view of the caller's
array, never copied.  On the benchmark's highd-svmlight
stage (d = 100000, 20 nonzeros per row, b = 16, m = 250) the kernel's
steps cost about 15 us each; with the stage's setup and sweep, a step
costs about 26 us compiled and 310-330 us on numpy, its anchor not counted
(one thread of a 2-vCPU x86-64 VM).  Most coordinates there are inactive:
never touched, at a zero start, with an anchor gradient inside the l1
threshold.  The kernel's catch-up skips their run search, whose runs are
provably empty (``lazy_stage.c``); :func:`catch_up` here makes no such
exception, and is the oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``prox_elastic_net`` is bound here by name, so a wrapper installed on
# its module (the per-layer tracer's dense prox span) does not count the
# lazy engine's calls.
from . import stage_loop
from .problem import ElasticNet, Problem, Rows, prox_elastic_net, row_entries
from .sampling import SamplingScheme, draw_batch, make_anchor
from .solvers import theta_pair

#: Coordinates per chunk of the final sweep: large enough to amortize the
#: per-operation overhead, small enough that its temporaries stay at a few
#: megabytes whatever ``d`` is.
SWEEP_CHUNK = 4096

def lazy_z(
    z0_j: float,
    g_sum_at_kj: float,
    tilde_grad_j: float,
    eta: float,
    reg: ElasticNet,
    theta_pair_now: float,
    theta_pair_at_kj: float,
) -> np.ndarray:
    """Dual coordinate at a later iteration, given its state at the last
    touch: the elastic-net prox of the stage start drifted by the gradient
    sum, as the dense stage takes it.

    ``theta_pair_now`` is ``theta_k theta_{k-1}`` at the target iteration,
    ``theta_pair_at_kj`` the same product at the last touch; the gradient
    sum grows by the anchor gradient times the difference in between.
    Elementwise, except ``theta_pair_now``, which is one number.  Being the
    dense stage's prox, it keeps NaN wherever the dense stage does.
    """
    drift = g_sum_at_kj + (theta_pair_now - theta_pair_at_kj) * tilde_grad_j
    return prox_elastic_net(z0_j - eta * drift, eta * theta_pair_now, reg)


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
    """Tables covering interval sums up to index ``kmax`` inclusive, built
    in place: three arrays of ``kmax + 1`` entries, two of them the tables."""
    pair = np.arange(kmax + 1, dtype=np.float64)   # k'
    th2 = pair - 1.0
    pair *= th2
    pair /= 4.0                                    # theta_{k'-1} theta_{k'-2}
    th2 /= 2.0                                     # theta_{k'-2}
    pair[:2] = th2[:2] = 0.0
    denom = pair * (eta * l2)
    denom += 1.0
    th2 /= denom                                   # the terms of s
    pair *= th2                                    # the terms of s_quad
    return PrefixTables(s=np.cumsum(th2, out=th2), s_quad=np.cumsum(pair, out=pair))


def _theta_pairs(k: np.ndarray) -> np.ndarray:
    """:func:`~dasvrda.solvers.theta_pair` of an array of iteration
    indices ``k >= 0``, with the same rounding."""
    return k * (k + 1) / 4.0


def branch_runs(
    a: np.ndarray, c3: np.ndarray, z0: np.ndarray, lo: np.ndarray, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """One run ``[start, stop)`` of ``z0 > M(x) = a (x^2 - x) + c3`` per
    entry, over the window ``[lo, hi]`` (``lo >= 2``): the skipped
    iterations that land in one nonzero soft-threshold branch.

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
    reg: ElasticNet,
) -> tuple[np.ndarray, np.ndarray]:
    """``(x, z)`` at iteration ``target`` of an array of coordinates, given
    each one's state at its last touch ``k_last <= target``.

    :func:`lazy_z` for the dual coordinate, :func:`branch_runs` for the
    skipped iterations in each nonzero branch, and the prefix tables for
    the primal one; returns new arrays.
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
    z[gap] = lazy_z(z0g, gs, tg, eta, reg, tp_now, tp_kj)
    c1 = 0.25 * eta * tg
    c2 = 0.25 * eta * reg.l1
    c3 = eta * (gs - tp_kj * tg)
    # The positive branch's run, then the negative branch's, in one search.
    start, stop = branch_runs(
        np.concatenate((c1 + c2, -(c1 - c2))), np.concatenate((c3, -c3)),
        np.concatenate((z0g, -z0g)), np.concatenate((kj, kj)) + 2, target + 1,
    )
    ds = tables.s[stop - 1] - tables.s[start - 1]
    dq = tables.s_quad[stop - 1] - tables.s_quad[start - 1]
    slope = np.concatenate((tg + reg.l1, tg - reg.l1))
    base = z0g - c3
    term = np.where(stop > start,
                    np.concatenate((base, base)) * ds - eta * slope * dq, 0.0)
    total = (0.0 + term[:gap.size]) + term[gap.size:]
    x[gap] = (tp_kj * x[gap] + total) / tp_now
    return x, z


class LazyStage:
    """Stepwise driver holding the per-coordinate last-touch state.

    Exposes :meth:`step` (one inner iteration) and :meth:`snapshot`
    (non-destructive full vectors at the current iteration, cost ``O(d)``),
    so tests can compare against the dense stage mid-flight.  ``touched``
    counts coordinate updates for complexity accounting: the distinct
    columns each step's batch hits, plus the final sweep.  The constructor
    makes the anchor's full pass and draws all ``m`` batches into ``idx``
    (``m x b``), so ``rng`` advances then, by as much as the dense stage
    advances it.
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
        if eta < 0:
            raise ValueError(f"step size must be nonnegative, got eta={eta}")
        self.problem = problem
        self.eta = float(eta)
        self.m = m
        self.reg = problem.reg
        anchor = make_anchor(problem, x_anchor)  # one full pass
        self.tilde_grad = anchor.grad
        self.anchor_derivs = anchor.derivs
        start = np.ascontiguousarray(y_start, dtype=np.float64)
        d = problem.d
        if start.shape != (d,):
            raise ValueError(f"start has shape {start.shape}, expected ({d},)")
        # The stage only reads its start: a read-only view, not a copy.
        self.z0 = start.view()
        self.z0.flags.writeable = False
        self.x_last = start.copy()
        self.z_last = start.copy()
        self.g_sum = np.zeros(d)
        self.k_last = np.zeros(d, dtype=np.int64)
        self.k = 0
        self.tables = build_prefix_tables(m + 1, self.eta, self.reg.l2)
        self.weights = scheme.weights
        self.idx = draw_batch(scheme, rng, b, m)
        self.touched = 0

    def _catch_up(self, cols, target: int) -> tuple[np.ndarray, np.ndarray]:
        """(x, z) of coordinates ``cols`` (index array or slice) at
        iteration ``target``, from their last-touch state."""
        return catch_up(
            self.x_last[cols], self.z_last[cols], self.z0[cols],
            self.g_sum[cols], self.tilde_grad[cols], self.k_last[cols],
            target, self.tables, self.eta, self.reg,
        )

    def step(self) -> None:
        """One inner iteration on the columns its batch hits: catch them up
        to the current iteration, run the plain recurrence on them, and
        write their state back as their last touch."""
        if self.k >= self.m:
            raise RuntimeError(f"stage already ran its {self.m} iterations")
        k = self.k + 1
        idx = self.idx[k - 1]
        b = idx.size
        ptr, col, val = row_entries(self.problem.data.features, idx)
        cols, pos = np.unique(col, return_inverse=True)
        self.touched += cols.size
        z0, tg, g_sum, k_last = (self.z0[cols], self.tilde_grad[cols],
                                 self.g_sum[cols], self.k_last[cols])
        x, z = catch_up(self.x_last[cols], self.z_last[cols], z0, g_sum, tg,
                        k_last, k - 1, self.tables, self.eta, self.reg)
        g_sum = g_sum + (theta_pair(k - 1) - _theta_pairs(k_last)) * tg
        # The batch's rows over its columns.
        rows = Rows(idx, b, cols.size, ptr, pos.astype(ptr.dtype), val)
        inv = 2.0 / (k + 1)            # 1 / theta_k
        keep = 1.0 - inv
        # Batch margins at the interpolated point, then the per-row
        # derivative deltas against the anchor.
        t_y = rows.dot(keep * x + inv * z)
        dy = self.problem.loss.derivatives(t_y, self.problem.data.labels[idx])
        delta = dy - self.anchor_derivs[idx]
        if self.weights is not None:
            delta = self.weights[idx] * delta
        delta /= b
        g_part = rows.tdot(delta)
        g_sum += (0.5 * k) * (g_part + tg)  # theta_{k-1} g_k
        tp_k = theta_pair(k)
        z = lazy_z(z0, g_sum, tg, self.eta, self.reg, tp_k, tp_k)
        self.x_last[cols] = keep * x + inv * z
        self.z_last[cols] = z
        self.g_sum[cols] = g_sum
        self.k_last[cols] = k
        self.k = k

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Full ``(x_k, z_k)`` at the current iteration, without touching
        the lazy state (long skips stay long).
        Runs in chunks of :data:`SWEEP_CHUNK` coordinates, so its
        temporaries stay small."""
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
        the final iteration and return ``(x_m, z_m)``, which are then
        ``x_last`` and ``z_last``: after it, every coordinate was last
        touched at ``m``.  A stage that has not stepped yet runs all of it
        in one call of the compiled kernel where it can
        (:func:`~dasvrda.stage_loop.kernels`), with the bits of
        :meth:`step` and :meth:`snapshot`."""
        path = (stage_loop.kernels(self.problem) if self.k == 0
                else "numpy: stage already stepped")
        stage_loop.note(path)
        if not isinstance(path, str):
            self._compiled(path.dasvrda_lazy_stage)
        else:
            while self.k < self.m:
                self.step()
            self.x_last, self.z_last = self.snapshot()
            # The kernel's sweep advances the gradient sum of the
            # coordinates it catches up, and only theirs.
            gap = np.flatnonzero(self.k_last < self.m)
            self.g_sum[gap] += ((theta_pair(self.m) - _theta_pairs(self.k_last[gap]))
                                * self.tilde_grad[gap])
            self.k_last[gap] = self.m
        self.touched += self.problem.d
        return self.x_last, self.z_last

    def _compiled(self, fn) -> None:
        """All steps and the sweep in one call of the compiled kernel
        ``fn``, after :func:`~dasvrda.stage_loop.handle` checks the stage's
        rows and arrays; leaves the last-touch state as :meth:`finish`
        does."""
        problem, (m, b), d = self.problem, self.idx.shape, self.problem.d
        tables = (self.tables.s, self.tables.s_quad)
        state = (self.x_last, self.z_last, self.g_sum)
        kept = stage_loop.handle(
            problem, self.idx, (d, np.float64, (self.tilde_grad, self.z0, *state)),
            (problem.n, np.float64, (self.anchor_derivs, self.weights)),
            (m + 2, np.float64, tables), (d, np.int64, (self.k_last,)))
        # A step's columns: at most its entries, and at most d.
        cap = min(d, b * kept.row_max)
        slot = np.full(d, -1, dtype=np.int64)
        cols, scratch = np.empty(cap, dtype=np.int64), np.empty((4, cap))
        ptr = stage_loop.pointer
        # Every array stays referenced by a name until the call returns.
        self.touched += fn(
            kept, m, b, ptr(self.idx), ptr(self.weights), ptr(self.anchor_derivs),
            ptr(self.tilde_grad), ptr(self.z0), self.eta, *map(ptr, tables),
            *map(ptr, state), ptr(self.k_last), ptr(slot), cap, ptr(cols),
            ptr(scratch))
        self.k = m


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
