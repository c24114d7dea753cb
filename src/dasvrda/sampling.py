"""Minibatch sampling schemes and the variance-reduced gradient estimator.

Three i.i.d.-across-iterations schemes are provided:

* ``IidUniform``   -- each batch slot uniform over examples, with replacement.
* ``IidWeighted``  -- each slot drawn from user probabilities ``q``; the
  estimator divides by ``n * q_i`` so it stays unbiased.  Drawing
  proportionally to the per-example smoothness constants is the variant the
  step-size theory assumes.
* ``Partition``    -- examples split into ``b`` contiguous equal blocks, one
  uniform draw per block.  With ``b == n`` every batch is all of
  ``0..n-1`` in order, which makes the estimator collapse to the exact full
  gradient.

Each scheme object carries ``draw(generator, b, m=None)`` and ``weights``,
the per-example importance weights ``1 / (n q_i)`` computed once (``None``
when every weight is one).  ``draw`` with ``m`` returns the ``m`` batches of
a stage from one generator call, with the same indices and the same final
generator state as ``m`` calls without it.  All randomness flows through a
``numpy.random.Generator`` from :func:`make_rng`; its ``spawn`` gives
reproducible, independent substreams (for parallel workers or sweep cells).

:func:`vr_gradient` is the variance-reduced estimator over one batch,
computed by the :class:`~dasvrda.problem.Rows` products that
:func:`~dasvrda.problem.full_pass` also uses, on the batch's rows as
:func:`~dasvrda.problem.take_rows` gathers them, and :func:`batch_gradient`
the same from parts a stage gathers once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .losses import LossKind
from .problem import Problem, Rows, full_pass, take_rows


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator seeded through ``SeedSequence(seed)``."""
    return np.random.default_rng(seed)


def _shape(b: int, m: Optional[int]) -> Union[int, tuple[int, int]]:
    """Shape of one batch, or of ``m`` batches one per row.  The generator
    fills it in C order, which is the order of ``m`` successive calls."""
    return b if m is None else (m, b)


@dataclass(frozen=True)
class IidUniform:
    n: int

    weights = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one example, got n={self.n}")

    def draw(
        self, gen: np.random.Generator, b: int, m: Optional[int] = None
    ) -> np.ndarray:
        return gen.integers(0, self.n, size=_shape(b, m), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class IidWeighted:
    """Sampling probabilities ``q`` (positive, summing to one).

    Equal when the probabilities are; unhashable, like the array it holds.
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=np.float64).ravel()
        # Written so that NaN fails it.
        if q.size < 1 or not np.all(q > 0):
            raise ValueError("sampling probabilities must be positive")
        if abs(float(q.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {q.sum()}, expected 1")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_cdf", np.cumsum(q))
        object.__setattr__(self, "weights", 1.0 / (q.size * q))

    def __eq__(self, other) -> bool:
        if type(other) is not IidWeighted:
            return NotImplemented
        return bool(np.array_equal(self.q, other.q))

    @property
    def n(self) -> int:
        return self.q.size

    def draw(
        self, gen: np.random.Generator, b: int, m: Optional[int] = None
    ) -> np.ndarray:
        # Searching the keys in sorted order is about 2.5x faster than in
        # draw order, and gives each key the same index.
        keys = gen.random(_shape(b, m))
        order = np.argsort(keys, axis=None)
        idx = np.empty(keys.size, dtype=np.int64)
        idx[order] = np.searchsorted(self._cdf, keys.ravel()[order], side="right")
        return np.minimum(idx, self.n - 1, out=idx).reshape(keys.shape)


@dataclass(frozen=True)
class Partition:
    """Contiguous equal blocks; the batch size must divide ``n``."""

    n: int
    b: int

    weights = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.b < 1:
            raise ValueError(f"need n >= 1 and b >= 1, got n={self.n}, b={self.b}")
        if self.n % self.b != 0:
            raise ValueError(
                f"partition sampling needs the batch size to divide n "
                f"(n={self.n}, b={self.b})"
            )

    def draw(
        self, gen: np.random.Generator, b: int, m: Optional[int] = None
    ) -> np.ndarray:
        if b != self.b:
            raise ValueError(
                f"b out of range: partition scheme draws exactly {self.b} "
                f"indices, got b={b}"
            )
        size = self.n // b
        offsets = np.arange(b, dtype=np.int64) * size
        return offsets + gen.integers(0, size, size=_shape(b, m), dtype=np.int64)


SamplingScheme = Union[IidUniform, IidWeighted, Partition]


def smoothness_weighted(problem: Problem) -> IidWeighted:
    """Scheme drawing example ``i`` proportionally to its smoothness constant."""
    li = problem.smoothness
    return IidWeighted(li / li.sum())


def draw_batch(
    scheme: SamplingScheme, rng: np.random.Generator, b: int, m: Optional[int] = None
) -> np.ndarray:
    """Indices of one minibatch of size ``b`` (int64, possibly repeated).

    With ``m``, the ``m`` minibatches of a stage as an ``(m, b)`` array,
    row ``k`` equal to the ``k``-th of ``m`` calls without ``m``, and
    ``rng`` left where those calls would leave it.
    """
    if not 1 <= b <= scheme.n:
        raise ValueError(f"b out of range: b={b}, n={scheme.n}")
    if m is not None and m < 1:
        raise ValueError(f"need at least one batch, got m={m}")
    return scheme.draw(rng, b, m)


@dataclass
class StageAnchor:
    """Snapshot point of one variance-reduction stage.

    Carries everything the per-iteration estimator needs: the point, the
    per-example loss derivatives at its predictions, and the exact
    averaged-loss gradient there.
    """

    x: np.ndarray
    derivs: np.ndarray
    grad: np.ndarray


def make_anchor(problem: Problem, x: np.ndarray) -> StageAnchor:
    """One full pass over the data: loss derivatives and gradient at ``x``.

    The pass leaves a read-only copy of ``x`` and its margins in
    ``problem.swept``.  The anchor takes that copy as its point and empties
    the memo: in every runner the anchor is the last reader of a point's
    margins, and its derivatives carry what they would give, so the stage
    that follows holds no second copy of the point.
    """
    derivs, grad = full_pass(problem, x)
    point, _ = problem.swept
    problem.swept = (None, None)
    return StageAnchor(x=point, derivs=derivs, grad=grad)


def vr_gradient(
    problem: Problem,
    anchor: StageAnchor,
    scheme: SamplingScheme,
    y: np.ndarray,
    idx: np.ndarray,
) -> np.ndarray:
    """Unbiased estimate of the averaged-loss gradient at ``y`` over the
    batch of example indices ``idx``.

    Computed as ``B(y) + (anchor.grad - B(anchor.x))`` where ``B`` is the
    weighted minibatch gradient on the batch; keeping that association
    means the two anchor terms cancel exactly whenever the minibatch
    gradient coincides with the full gradient (e.g. partition sampling
    with ``b == n``), so the estimate degrades into the deterministic
    gradient with no rounding noise.  ``B`` takes the products of
    :class:`~dasvrda.problem.Rows`, as :func:`~dasvrda.problem.full_pass`
    does, so that coincidence is bitwise: a batch of all ``n`` rows in
    order takes the form of the full pass, both being above
    :data:`~dasvrda.problem.BLAS_ABOVE_ENTRIES` entries or both below, and
    the csr form's loops do not depend on where the arrays sit.
    """
    rows = take_rows(problem.data.features, idx)
    w = None if scheme.weights is None else scheme.weights[idx]
    dx = anchor.derivs[idx]
    if w is not None:
        dx = w * dx
    return batch_gradient(problem.loss, anchor.grad, rows, y,
                          problem.data.labels[idx], w, dx / rows.count)


def batch_gradient(
    loss: LossKind,
    grad: np.ndarray,
    rows: Rows,
    y: np.ndarray,
    labels: np.ndarray,
    weights: Optional[np.ndarray],
    anchor_terms: np.ndarray,
) -> np.ndarray:
    """:func:`vr_gradient` at ``y`` from its batch's parts: the rows, their
    labels, their importance weights (None when all are one) and their
    anchor terms ``weights * anchor.derivs[idx] / b``, with the anchor's
    gradient ``grad``.  A stage gathers the parts of all its batches at
    once."""
    dy = loss.derivatives(rows.dot(y), labels)
    if weights is not None:
        dy *= weights
    dy /= rows.count
    g = rows.tdot(dy)
    batch_x = rows.tdot(anchor_terms)
    g += np.subtract(grad, batch_x, out=batch_x)
    return g
