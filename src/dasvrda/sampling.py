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

All randomness flows through :class:`RngStream`, a thin wrapper over
``numpy.random.Generator`` seeded via ``SeedSequence`` so that substreams
(for parallel workers or sweep cells) are reproducible and independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .problem import Problem, full_pass


@dataclass
class RngStream:
    """Seeded random stream with reproducible substream spawning."""

    seed_sequence: np.random.SeedSequence
    generator: np.random.Generator = field(init=False)

    def __post_init__(self) -> None:
        self.generator = np.random.Generator(np.random.PCG64(self.seed_sequence))

    @property
    def algorithm(self) -> str:
        return type(self.generator.bit_generator).__name__.lower()

    def spawn(self, count: int) -> list["RngStream"]:
        """Independent child streams (one per worker/sweep cell)."""
        return [RngStream(ss) for ss in self.seed_sequence.spawn(count)]


def make_rng(seed: int) -> RngStream:
    return RngStream(np.random.SeedSequence(seed))


@dataclass(frozen=True)
class IidUniform:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one example, got n={self.n}")


@dataclass(frozen=True)
class IidWeighted:
    """Sampling probabilities ``q`` (positive, summing to one)."""

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=np.float64).ravel()
        if q.size < 1 or np.any(q <= 0):
            raise ValueError("sampling probabilities must be positive")
        if abs(float(q.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {q.sum()}, expected 1")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_cdf", np.cumsum(q))

    @property
    def n(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class Partition:
    """Contiguous equal blocks; the batch size must divide ``n``."""

    n: int
    b: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.b < 1:
            raise ValueError(f"need n >= 1 and b >= 1, got n={self.n}, b={self.b}")
        if self.n % self.b != 0:
            raise ValueError(
                f"partition sampling needs the batch size to divide n "
                f"(n={self.n}, b={self.b})"
            )

    @property
    def block_size(self) -> int:
        return self.n // self.b


SamplingScheme = Union[IidUniform, IidWeighted, Partition]


def smoothness_weighted(problem: Problem) -> IidWeighted:
    """Scheme drawing example ``i`` proportionally to its smoothness constant."""
    li = problem.smoothness
    return IidWeighted(li / li.sum())


def draw_batch(scheme: SamplingScheme, rng: RngStream, b: int) -> np.ndarray:
    """Indices of one minibatch of size ``b`` (int64, possibly repeated)."""
    n = scheme.n
    if not 1 <= b <= n:
        raise ValueError(f"b out of range: b={b}, n={n}")
    gen = rng.generator
    if isinstance(scheme, IidUniform):
        return gen.integers(0, n, size=b, dtype=np.int64)
    if isinstance(scheme, IidWeighted):
        u = gen.random(b)
        idx = np.searchsorted(scheme._cdf, u, side="right")
        return np.minimum(idx, n - 1).astype(np.int64)
    if isinstance(scheme, Partition):
        if b != scheme.b:
            raise ValueError(
                f"b out of range: partition scheme draws exactly {scheme.b} "
                f"indices, got b={b}"
            )
        size = scheme.block_size
        offsets = np.arange(b, dtype=np.int64) * size
        return offsets + gen.integers(0, size, size=b, dtype=np.int64)
    raise TypeError(f"unknown sampling scheme {scheme!r}")


def importance_weight(scheme: SamplingScheme, i: int, n: int) -> float:
    """Unbiasedness correction ``1 / (n * P[slot == i])`` for example ``i``."""
    if not 0 <= i < n:
        raise ValueError(f"example index {i} out of range for n={n}")
    if isinstance(scheme, IidWeighted):
        return 1.0 / (n * float(scheme.q[i]))
    if isinstance(scheme, (IidUniform, Partition)):
        return 1.0
    raise TypeError(f"unknown sampling scheme {scheme!r}")


def _weight_vector(scheme: SamplingScheme) -> np.ndarray | None:
    """Per-example weights as an array, or None when they are all one."""
    if isinstance(scheme, IidWeighted):
        return 1.0 / (scheme.n * scheme.q)
    return None


@dataclass
class StageAnchor:
    """Snapshot point of one variance-reduction stage.

    Carries everything the per-iteration estimator needs: the point, its
    linear predictions, and the exact averaged-loss gradient there.
    """

    x: np.ndarray
    margins: np.ndarray
    grad: np.ndarray


def make_anchor(problem: Problem, x: np.ndarray) -> StageAnchor:
    """One full pass over the data: predictions and gradient at ``x``."""
    t, grad = full_pass(problem, x)
    return StageAnchor(x=np.array(x, dtype=np.float64), margins=t, grad=grad)


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
    labels = problem.data.labels[idx]
    b = idx.shape[0]
    dy = problem.loss.derivatives(rows @ y, labels)
    dx = problem.loss.derivatives(anchor.margins[idx], labels)
    w = _weight_vector(scheme)
    if w is not None:
        wi = w[idx]
        dy = wi * dy
        dx = wi * dx
    batch_y = rows.T @ (dy / b)
    batch_x = rows.T @ (dx / b)
    return batch_y + (anchor.grad - batch_x)
