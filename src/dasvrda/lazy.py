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
It runs the steps in blocks of up to :data:`BLOCK_STEPS` consecutive
steps, and stays lazy across blocks:

* opening a block costs one :func:`~dasvrda.problem.row_entries` of its
  rows, one ``np.unique`` over their entries, giving the union ``U`` of
  their columns, and one :func:`catch_up` of ``U`` to the iteration
  before the block;
* each step then runs the plain dense recurrence on ``U`` alone, its batch
  products the csr form of :class:`~dasvrda.problem.Rows` over ``U`` (the
  block's entries, their columns numbered by position in ``U``), a fixed
  sequence of about 30 array operations with no catch-up: a column the
  step's batch misses gets a zero batch gradient, which is exactly its
  recurrence;
* closing the block writes ``U``'s state back as its last touch.

Why blocks: on sparse high-``d`` data a step's batch hits a few hundred
columns, and on arrays that small each of the hundred-odd operations of a
catch-up (and the ``np.unique``) costs its per-call overhead, not its
size.  A block pays that once for all its steps; its arrays grow to the
union, at most :data:`BLOCK_STEPS` times a step's columns, where an
operation still costs little more than its overhead.  A step therefore
costs about 30 operations on ``|U|`` entries plus a share of one
catch-up of ``|U|`` columns -- at ``d = 100000`` with 320 columns per
step, about 190 us against 340 us for a catch-up per step -- against the
dense stage's work proportional to ``d``;
:func:`~dasvrda.harness.choose_engine` weighs the two.  There is no Python
loop over rows, entries or coordinates, and the stage ends with one sweep
that catches up every coordinate in chunks of :data:`SWEEP_CHUNK`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``prox_elastic_net`` is bound here by name, so a wrapper installed on
# its module (the per-layer tracer's dense prox span) does not count the
# lazy engine's calls.
from .problem import ElasticNet, Problem, Rows, prox_elastic_net, row_entries
from .sampling import SamplingScheme, draw_batch, make_anchor
from .solvers import theta_pair

#: Coordinates per chunk of the final sweep: large enough to amortize the
#: per-operation overhead, small enough that its temporaries stay at a few
#: megabytes whatever ``d`` is.
SWEEP_CHUNK = 4096

#: Steps per block of :class:`LazyStage`: enough to share a block's
#: catch-up among its steps, few enough that each step's operations on the
#: union of their columns still cost little more than their overhead.  At
#: d = 100000 the step time is flat from 4 to 16; ``python
#: tools/fit_engine.py block`` measures it again.
BLOCK_STEPS = 8

#: Most stored entries a block of :class:`LazyStage` gathers, unless it is
#: one step: a few megabytes of temporaries however many entries a step's
#: rows hold, as :data:`SWEEP_CHUNK` bounds the sweep.
BLOCK_ENTRIES = 1 << 16


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
    """Tables covering interval sums up to index ``kmax`` inclusive."""
    ks = np.arange(kmax + 1, dtype=np.float64)
    th2 = np.where(ks >= 2.0, (ks - 1.0) / 2.0, 0.0)          # theta_{k'-2}
    pair_prev = np.where(ks >= 2.0, (ks - 1.0) * ks / 4.0, 0.0)  # theta_{k'-1} theta_{k'-2}
    denom = 1.0 + eta * l2 * pair_prev
    term = th2 / denom
    return PrefixTables(s=np.cumsum(term), s_quad=np.cumsum(pair_prev * term))


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


@dataclass
class _Block:
    """Consecutive steps run on the union ``cols`` of their columns.

    ``ptr``, ``pos`` and ``val`` are the steps' rows as CSR arrays, as
    :func:`~dasvrda.problem.row_entries` gathers them, with each entry's
    column as its position in ``cols``.  The block runs iterations
    ``start + 1`` to ``stop``; ``x``, ``z`` and ``g_sum`` are the state of
    ``cols`` at the stage's current iteration.
    """

    start: int
    stop: int
    ptr: np.ndarray
    pos: np.ndarray
    val: np.ndarray
    cols: np.ndarray
    z0: np.ndarray
    tg: np.ndarray
    g_sum: np.ndarray
    x: np.ndarray
    z: np.ndarray


class LazyStage:
    """Stepwise driver holding the per-coordinate last-touch state.

    Exposes :meth:`step` (one inner iteration) and :meth:`snapshot`
    (non-destructive full vectors at the current iteration, cost ``O(d)``),
    so tests can compare against the dense stage mid-flight.  Steps run in
    blocks of up to :data:`BLOCK_STEPS` (see the module docstring); a block
    opens at its first step and writes its columns back at its last.
    ``touched`` counts coordinate updates for complexity accounting: the
    distinct columns each step's batch hits, plus the final sweep.  The
    constructor makes the anchor's full pass and draws all ``m`` batches
    into ``idx`` (``m x b``), so ``rng`` advances then, by as much as the
    dense stage advances it.
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
        self.reg = problem.reg
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
        self.tables = build_prefix_tables(m + 1, self.eta, self.reg.l2)
        self.weights = scheme.weights
        self.idx = draw_batch(scheme, rng, b, m)
        self._labels = problem.data.labels
        self._block: _Block | None = None
        self.touched = 0

    def _catch_up(self, cols, target: int) -> tuple[np.ndarray, np.ndarray]:
        """(x, z) of coordinates ``cols`` (index array or slice) at
        iteration ``target``, from their last-touch state."""
        return catch_up(
            self.x_last[cols], self.z_last[cols], self.z0[cols],
            self.g_sum[cols], self.tilde_grad[cols], self.k_last[cols],
            target, self.tables, self.eta, self.reg,
        )

    def _open_block(self) -> None:
        """Gather the next block's rows (see :data:`BLOCK_ENTRIES`) and
        catch their columns up to the current iteration."""
        k, b = self.k, self.idx.shape[1]
        mat, idx = self.problem.data.features, self.idx[k:k + BLOCK_STEPS]
        ends = np.cumsum((mat.indptr[idx + 1] - mat.indptr[idx]).sum(axis=1))
        stop = k + max(1, int(np.searchsorted(ends, BLOCK_ENTRIES, side="right")))
        ptr, col, val = row_entries(mat, idx[:stop - k].ravel())
        cols, pos = np.unique(col, return_inverse=True)
        # Distinct columns per step: distinct (step, column) pairs.
        step = np.repeat(np.arange(stop - k), np.diff(ptr[::b]))
        self.touched += int(np.count_nonzero(np.bincount(step * cols.size + pos)))
        z0, tg, g_sum, k_last = (self.z0[cols], self.tilde_grad[cols],
                                 self.g_sum[cols], self.k_last[cols])
        x, z = catch_up(self.x_last[cols], self.z_last[cols], z0, g_sum, tg,
                        k_last, k, self.tables, self.eta, self.reg)
        g_sum = g_sum + (theta_pair(k) - _theta_pairs(k_last)) * tg
        self._block = _Block(k, stop, ptr, pos.astype(ptr.dtype), val, cols, z0,
                             tg, g_sum, x, z)

    def step(self) -> None:
        if self.k >= self.m:
            raise RuntimeError(f"stage already ran its {self.m} iterations")
        if self._block is None:
            self._open_block()
        block = self._block
        k = self.k + 1
        # This step's rows over the block's columns.
        j = k - block.start
        idx = self.idx[k - 1]
        b = idx.size
        rows = Rows(idx, b, block.cols.size, block.ptr[(j - 1) * b:j * b + 1],
                    block.pos, block.val)
        inv = 2.0 / (k + 1)            # 1 / theta_k
        keep = 1.0 - inv
        # Batch margins at the interpolated point, then the per-row
        # derivative deltas against the anchor; the block's columns the
        # batch misses get g_part = 0: their plain recurrence.
        t_y = rows.dot(keep * block.x + inv * block.z)
        dy = self.problem.loss.derivatives(t_y, self._labels[idx])
        delta = dy - self.anchor_derivs[idx]
        if self.weights is not None:
            delta = self.weights[idx] * delta
        delta /= b
        g_part = rows.tdot(delta)
        block.g_sum += (0.5 * k) * (g_part + block.tg)  # theta_{k-1} g_k
        tp_k = theta_pair(k)
        block.z = lazy_z(block.z0, block.g_sum, block.tg, self.eta, self.reg,
                         tp_k, tp_k)
        block.x = keep * block.x + inv * block.z
        self.k = k
        if k == block.stop:
            self.x_last[block.cols] = block.x
            self.z_last[block.cols] = block.z
            self.g_sum[block.cols] = block.g_sum
            self.k_last[block.cols] = k
            self._block = None

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Full ``(x_k, z_k)`` at the current iteration, without touching
        the lazy state (long skips stay long, an open block stays open).
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
        if self._block is not None:
            x[self._block.cols] = self._block.x
            z[self._block.cols] = self._block.z
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
