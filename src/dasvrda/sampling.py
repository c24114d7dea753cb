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

Each scheme object carries ``draw(generator, b)`` and ``weights``, the
per-example importance weights ``1 / (n q_i)`` computed once (``None`` when
every weight is one).  All randomness flows through a
``numpy.random.Generator`` from :func:`make_rng`; its ``spawn`` gives
reproducible, independent substreams (for parallel workers or sweep cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .problem import Problem, full_pass


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator seeded through ``SeedSequence(seed)``."""
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class IidUniform:
    n: int

    weights = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one example, got n={self.n}")

    def draw(self, gen: np.random.Generator, b: int) -> np.ndarray:
        return gen.integers(0, self.n, size=b, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class IidWeighted:
    """Sampling probabilities ``q`` (positive, summing to one).

    Equal when the probabilities are; unhashable, like the array it holds.
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=np.float64).ravel()
        if q.size < 1 or np.any(q <= 0):
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

    def draw(self, gen: np.random.Generator, b: int) -> np.ndarray:
        idx = np.searchsorted(self._cdf, gen.random(b), side="right")
        return np.minimum(idx, self.n - 1).astype(np.int64)


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

    def draw(self, gen: np.random.Generator, b: int) -> np.ndarray:
        if b != self.b:
            raise ValueError(
                f"b out of range: partition scheme draws exactly {self.b} "
                f"indices, got b={b}"
            )
        size = self.n // b
        offsets = np.arange(b, dtype=np.int64) * size
        return offsets + gen.integers(0, size, size=b, dtype=np.int64)


SamplingScheme = Union[IidUniform, IidWeighted, Partition]


def smoothness_weighted(problem: Problem) -> IidWeighted:
    """Scheme drawing example ``i`` proportionally to its smoothness constant."""
    li = problem.smoothness
    return IidWeighted(li / li.sum())


def draw_batch(scheme: SamplingScheme, rng: np.random.Generator, b: int) -> np.ndarray:
    """Indices of one minibatch of size ``b`` (int64, possibly repeated)."""
    if not 1 <= b <= scheme.n:
        raise ValueError(f"b out of range: b={b}, n={scheme.n}")
    return scheme.draw(rng, b)


def importance_weight(scheme: SamplingScheme, i: int, n: int) -> float:
    """Unbiasedness correction ``1 / (n * P[slot == i])`` for example ``i``."""
    if not 0 <= i < n:
        raise ValueError(f"example index {i} out of range for n={n}")
    if scheme.weights is None:
        return 1.0
    return 1.0 / (n * float(scheme.q[i]))


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
    """One full pass over the data: loss derivatives and gradient at ``x``."""
    derivs, grad = full_pass(problem, x)
    return StageAnchor(x=np.array(x, dtype=np.float64), derivs=derivs, grad=grad)


def vr_gradient(
    problem: Problem,
    anchor: StageAnchor,
    scheme: SamplingScheme,
    y: np.ndarray,
    idx: np.ndarray,
) -> np.ndarray:
    """Unbiased estimate of the averaged-loss gradient at ``y``.

    Computed as ``B(y) + (anchor.grad - B(anchor.x))`` where ``B`` is the
    weighted minibatch gradient on ``idx``; keeping that association means
    the two anchor terms cancel exactly whenever the minibatch gradient
    coincides with the full gradient (e.g. partition sampling with
    ``b == n``), so the estimate degrades into the deterministic gradient
    with no rounding noise.
    """
    rows = problem.data.features[idx]
    b = idx.shape[0]
    dy = problem.loss.derivatives(rows @ y, problem.data.labels[idx])
    dx = anchor.derivs[idx]
    if scheme.weights is not None:
        wi = scheme.weights[idx]
        dy = wi * dy
        dx = wi * dx
    batch_y = rows.T @ (dy / b)
    batch_x = rows.T @ (dx / b)
    return batch_y + (anchor.grad - batch_x)
