import numpy as np
import pytest
import scipy.sparse as sp

from dasvrda import (
    ElasticNet,
    IidUniform,
    IidWeighted,
    Partition,
    Squared,
    draw_batch,
    full_gradient,
    importance_weight,
    make_anchor,
    make_dataset,
    make_problem,
    make_rng,
    smoothness_weighted,
    vr_gradient,
)


def small_problem(rng, n=12, d=5):
    mat = rng.standard_normal((n, d))
    labels = rng.standard_normal(n)
    data = make_dataset(sp.csr_matrix(mat), labels)
    return make_problem(data, Squared(), ElasticNet(1e-3, 1e-3))


def scheme_probabilities(scheme, n):
    """P[a given batch slot equals i], per example."""
    if isinstance(scheme, IidWeighted):
        return np.asarray(scheme.q, dtype=float)
    return np.full(n, 1.0 / n)


def test_partition_requires_divisibility():
    with pytest.raises(ValueError, match="divide"):
        Partition(10, 3)
    Partition(10, 5)


def test_partition_full_batch_is_identity_blocks():
    scheme = Partition(4, 4)
    rng = make_rng(0)
    for _ in range(5):
        idx = draw_batch(scheme, rng, 4)
        assert np.array_equal(idx, np.arange(4))


def test_partition_draws_one_per_block():
    scheme = Partition(12, 3)
    rng = make_rng(1)
    for _ in range(50):
        idx = draw_batch(scheme, rng, 3)
        assert idx.shape == (3,)
        for block, i in enumerate(idx):
            assert block * 4 <= i < (block + 1) * 4


def test_batch_size_validation():
    rng = make_rng(0)
    with pytest.raises(ValueError, match="b out of range"):
        draw_batch(IidUniform(5), rng, 0)
    with pytest.raises(ValueError, match="b out of range"):
        draw_batch(IidUniform(5), rng, 6)
    with pytest.raises(ValueError, match="b out of range"):
        draw_batch(Partition(6, 2), rng, 3)


def test_weighted_scheme_validation():
    with pytest.raises(ValueError):
        IidWeighted(np.array([0.5, 0.0, 0.5]))
    with pytest.raises(ValueError):
        IidWeighted(np.array([0.5, 0.4]))


def test_weighted_scheme_equality():
    q = np.full(4, 0.25)
    assert IidWeighted(q) == IidWeighted(q.copy())
    assert IidWeighted(q) != IidWeighted(np.array([0.1, 0.2, 0.3, 0.4]))
    assert IidWeighted(q) != IidWeighted(np.full(5, 0.2))
    assert IidWeighted(q) != IidUniform(4)
    with pytest.raises(TypeError, match="unhashable"):
        hash(IidWeighted(q))


def test_importance_weights():
    scheme = IidWeighted(np.array([0.25, 0.75]))  # smoothness pair (1, 3)
    assert importance_weight(scheme, 0, 2) == 2.0
    assert importance_weight(scheme, 1, 2) == pytest.approx(1.0 / 1.5)
    assert importance_weight(IidUniform(7), 3, 7) == 1.0
    assert importance_weight(Partition(8, 4), 3, 8) == 1.0
    with pytest.raises(ValueError):
        importance_weight(IidUniform(7), 7, 7)


def test_smoothness_weighted_probabilities():
    rng = np.random.default_rng(3)
    problem = small_problem(rng)
    scheme = smoothness_weighted(problem)
    expect = problem.smoothness / problem.smoothness.sum()
    assert np.allclose(scheme.q, expect, rtol=0, atol=0)
    assert scheme.q.sum() == pytest.approx(1.0, abs=1e-15)


def test_same_seed_gives_byte_identical_batches():
    for scheme in (IidUniform(30), Partition(30, 5),
                   IidWeighted(np.full(30, 1.0 / 30))):
        a = make_rng(42)
        b = make_rng(42)
        batch_size = scheme.b if isinstance(scheme, Partition) else 7
        for _ in range(10):
            ia = draw_batch(scheme, a, batch_size)
            ib = draw_batch(scheme, b, batch_size)
            assert ia.tobytes() == ib.tobytes()


def test_spawned_streams_are_independent():
    parent = make_rng(7)
    kids = parent.spawn(2)
    seqs = [draw_batch(IidUniform(1000), s, 20).tobytes()
            for s in (parent, *kids)]
    assert len(set(seqs)) == 3
    # respawning from the same seed reproduces the same children
    again = make_rng(7).spawn(2)
    assert draw_batch(IidUniform(1000), again[0], 20).tobytes() == \
        draw_batch(IidUniform(1000), make_rng(7).spawn(2)[0], 20).tobytes()


def test_weighted_frequencies_match_probabilities():
    q = np.array([0.1, 0.2, 0.3, 0.4])
    scheme = IidWeighted(q)
    rng = make_rng(11)
    samples = np.concatenate(
        [draw_batch(scheme, rng, 4) for _ in range(50_000)]
    )
    counts = np.bincount(samples, minlength=4).astype(float)
    total = samples.size
    for i in range(4):
        sigma = np.sqrt(total * q[i] * (1 - q[i]))
        assert abs(counts[i] - total * q[i]) <= 3 * sigma


def exhaustive_estimator_mean(problem, scheme, y, anchor):
    """Sum the single-draw estimator over every example, weighted by its
    draw probability -- the exact expectation for b = 1."""
    n = problem.n
    probs = scheme_probabilities(scheme, n)
    out = np.zeros(problem.d)
    for i in range(n):
        est = vr_gradient(problem, anchor, scheme, y, np.array([i]))
        out += probs[i] * est
    return out


@pytest.mark.parametrize("kind", ["uniform", "weighted", "partition"])
def test_estimator_exhaustively_unbiased(kind):
    rng = np.random.default_rng(5)
    problem = small_problem(rng, n=14, d=6)
    if kind == "uniform":
        scheme = IidUniform(problem.n)
    elif kind == "weighted":
        scheme = smoothness_weighted(problem)
    else:
        scheme = Partition(problem.n, 1)
    anchor = make_anchor(problem, rng.standard_normal(problem.d))
    for _ in range(5):
        y = rng.standard_normal(problem.d)
        mean = exhaustive_estimator_mean(problem, scheme, y, anchor)
        exact = full_gradient(problem, y)
        assert np.max(np.abs(mean - exact)) <= 1e-12 * max(1.0, np.max(np.abs(exact)))


def test_partition_full_batch_estimator_is_exact():
    rng = np.random.default_rng(6)
    problem = small_problem(rng, n=16, d=7)
    scheme = Partition(problem.n, problem.n)
    anchor = make_anchor(problem, rng.standard_normal(problem.d))
    stream = make_rng(9)
    for _ in range(5):
        y = rng.standard_normal(problem.d)
        idx = draw_batch(scheme, stream, problem.n)
        est = vr_gradient(problem, anchor, scheme, y, idx)
        assert np.array_equal(est, full_gradient(problem, y))
