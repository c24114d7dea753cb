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
    make_anchor,
    make_dataset,
    make_problem,
    make_rng,
    smoothness_weighted,
    vr_gradient,
)
from dasvrda import problem as problem_module
from dasvrda.losses import Logistic
from dasvrda.problem import Rows, row_entries, take_rows
from dasvrda.baselines import one_stage_pg
from dasvrda.sampling import batch_gradient
from dasvrda.solvers import one_stage_accsvrda


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
    # NaN compares False both ways: once accepted, every draw was index 0.
    for q in ([np.nan, 0.5, 0.5], [0.5, 0.5, np.nan], [np.nan]):
        with pytest.raises(ValueError, match="must be positive"):
            IidWeighted(np.array(q))


def test_weighted_scheme_equality():
    q = np.full(4, 0.25)
    assert IidWeighted(q) == IidWeighted(q.copy())
    assert IidWeighted(q) != IidWeighted(np.array([0.1, 0.2, 0.3, 0.4]))
    assert IidWeighted(q) != IidWeighted(np.full(5, 0.2))
    assert IidWeighted(q) != IidUniform(4)
    with pytest.raises(TypeError, match="unhashable"):
        hash(IidWeighted(q))


@pytest.mark.parametrize("seed,b,m", [(0, 1, None), (1, 7, None), (2, 7, 13),
                                       (3, 71, 70), (4, 16, 1)])
def test_weighted_draw_matches_plain_search(seed, b, m):
    """The draw searches its keys in sorted order; each index must be the
    one a plain ``searchsorted`` in draw order gives, keys that equal a CDF
    entry included."""
    shape = b if m is None else (m, b)
    keys = np.random.default_rng(seed).random(shape)
    # Every key is a multiple of 2**-53 in [0, 1), so differences and
    # partial sums of such breakpoints are exact: the scheme's CDF is the
    # breakpoints themselves, and half the keys sit exactly on an entry.
    others = np.random.default_rng(seed + 100).random(40)
    cdf = np.unique(np.concatenate((keys.ravel()[::2], others, [1.0])))
    scheme = IidWeighted(np.diff(cdf, prepend=0.0))
    np.testing.assert_array_equal(scheme._cdf, cdf)
    assert np.isin(keys, cdf).any()
    expect = np.minimum(np.searchsorted(cdf, keys, side="right"), cdf.size - 1)
    gen = np.random.default_rng(seed)
    got = scheme.draw(gen, b, m)
    assert got.dtype == np.int64 and got.shape == keys.shape
    np.testing.assert_array_equal(got, expect)
    after = np.random.default_rng(seed)
    after.random(shape)
    assert gen.random() == after.random()


def test_importance_weights():
    # 1 / (n q_i), and None where every weight is one.
    scheme = IidWeighted(np.array([0.25, 0.75]))  # smoothness pair (1, 3)
    assert scheme.weights[0] == 2.0
    assert scheme.weights[1] == pytest.approx(1.0 / 1.5)
    assert IidUniform(7).weights is None
    assert Partition(8, 4).weights is None


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


def test_anchor_takes_over_the_swept_copy_of_its_point():
    rng = np.random.default_rng(7)
    problem = small_problem(rng)
    x = rng.standard_normal(problem.d)
    p = problem_module.objective(problem, x)
    anchor = make_anchor(problem, x)
    assert anchor.x is not x and anchor.x.tobytes() == x.tobytes()
    assert not anchor.x.flags.writeable
    assert problem.swept == (None, None, None)
    assert problem_module.objective(problem, anchor.x) == p
    x += 1.0   # the caller's array stays its own
    assert not np.any(anchor.x == x)
    fresh = small_problem(np.random.default_rng(7))
    derivs, grad = problem_module.full_pass(fresh, anchor.x)
    assert anchor.derivs.tobytes() == derivs.tobytes()
    assert anchor.grad.tobytes() == grad.tobytes()


# ---------------------------------------------------------------------------
# Stage plans and the minibatch products.


def plan_scheme(kind, n, b):
    if kind == "uniform":
        return IidUniform(n)
    if kind == "uniform-2**40":
        return IidUniform(2**40)
    if kind == "weighted":
        q = np.random.default_rng(3).random(n) + 0.05
        return IidWeighted(q / q.sum())
    return Partition(n, b)


@pytest.mark.parametrize("b", [1, 7, 71])
@pytest.mark.parametrize("kind", ["uniform", "uniform-2**40", "weighted", "partition"])
def test_stage_plan_equals_successive_draws(kind, b):
    scheme = plan_scheme(kind, 497, b)   # 497 = 7 * 71
    m = 13
    one_call, successive = make_rng(8), make_rng(8)
    plan = draw_batch(scheme, one_call, b, m)
    assert plan.shape == (m, b) and plan.dtype == np.int64
    for k in range(m):
        assert plan[k].tobytes() == draw_batch(scheme, successive, b).tobytes()
    assert one_call.bit_generator.state == successive.bit_generator.state
    assert draw_batch(scheme, one_call, b).tobytes() == \
        draw_batch(scheme, successive, b).tobytes()
    with pytest.raises(ValueError, match="at least one batch"):
        draw_batch(scheme, one_call, b, 0)


def csr_problem(loss=Squared(), n=40, d=30, seed=0):
    """Sparse rows with empty rows (one of them trailing) and empty columns."""
    rng = np.random.default_rng(seed)
    mat = np.where(rng.random((n, d)) < 0.15, rng.standard_normal((n, d)), 0.0)
    mat[[3, 17, n - 1]] = 0.0
    mat[:, [0, 5, d - 1]] = 0.0
    labels = (np.where(rng.random(n) < 0.5, -1.0, 1.0)
              if loss.classification else rng.standard_normal(n))
    return make_problem(make_dataset(sp.csr_matrix(mat), labels), loss,
                        ElasticNet(1e-3, 1e-3))


def csr_rows(mat, idx=None):
    """The csr form of rows ``idx`` of ``mat`` (all rows when None),
    whatever their size."""
    n, d = mat.shape
    if idx is None:
        return Rows(None, n, d, mat.indptr, mat.indices, mat.data)
    return Rows(idx, idx.size, d, *row_entries(mat, idx))


def same_bits(got, expect):
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def check_public_products(rows, sub, rng):
    """``rows`` against scipy's public products of the same rows ``sub``,
    bit for bit, on float64, float32 and integer vectors."""
    d = sub.shape[1]
    for x, v in ((rng.standard_normal(d), rng.standard_normal(rows.count)),
                 (rng.standard_normal(d).astype(np.float32),
                  rng.standard_normal(rows.count).astype(np.float32)),
                 (rng.integers(-3, 4, size=d), rng.integers(-3, 4, size=rows.count))):
        same_bits(rows.dot(x), sub @ x)
        same_bits(rows.tdot(v), sub.T @ v)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_csr_form_matches_scipy_public_products_bitwise(index_dtype):
    # The csr form runs scipy's private compiled loops; this holds them to
    # the public products, so a scipy whose loops moved fails here.
    mat = csr_problem().data.features.copy()
    mat.indptr = mat.indptr.astype(index_dtype)
    mat.indices = mat.indices.astype(index_dtype)
    n = mat.shape[0]
    rng = np.random.default_rng(21)
    # Repeated rows, empty rows (3, 17 and the trailing 39), rows that are
    # all empty, a random batch, and all rows gathered in order.
    for idx in (np.array([3, 3, 17, 39, 5, 5, 5]), np.array([17]),
                np.array([39, 3]), rng.integers(0, n, size=25), np.arange(n)):
        rows, sub = take_rows(mat, idx), mat[idx]
        assert rows.form == "csr"
        # scipy may narrow the index type of its copy.
        assert rows.ptr.dtype == rows.col.dtype == index_dtype
        assert np.array_equal(rows.ptr, sub.indptr)
        assert np.array_equal(rows.col, sub.indices)
        same_bits(rows.val, sub.data)
        check_public_products(rows, sub, rng)
    # All rows: the matrix's own arrays.
    rows = take_rows(mat)
    assert rows.ptr is mat.indptr and rows.col is mat.indices and rows.val is mat.data
    check_public_products(rows, mat, rng)
    # The loops check no index or length, so their callers do.
    for bad in ([0, n], [-1, 0]):
        with pytest.raises(IndexError, match="out of range"):
            take_rows(mat, np.array(bad))
    with pytest.raises(ValueError, match="shape"):
        rows.dot(np.zeros(mat.shape[1] - 1))
    with pytest.raises(ValueError, match="shape"):
        rows.tdot(np.zeros(rows.count + 1))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("loss", [Squared(), Logistic()], ids=["squared", "logistic"])
def test_kernel_matches_scipy_products_bitwise(loss, weighted):
    # The estimator on the csr form, from the batch's indices or, as a
    # stage gathers them, from its parts, against the same formula on
    # scipy's public products.
    problem = csr_problem(loss)
    mat = problem.data.features
    scheme = smoothness_weighted(problem) if weighted else IidUniform(problem.n)
    rng = np.random.default_rng(1)
    anchor = make_anchor(problem, rng.standard_normal(problem.d))
    batches = [np.array([3, 3, 17, 39, 5, 5, 5]), np.array([17]),
               np.array([39, 3]), rng.integers(0, problem.n, size=25),
               np.arange(problem.n)]
    for idx in batches:
        y = rng.standard_normal(problem.d)
        sub, b = mat[idx], idx.size
        dy = loss.derivatives(sub @ y, problem.data.labels[idx])
        dx = anchor.derivs[idx]
        if weighted:
            dy, dx = scheme.weights[idx] * dy, scheme.weights[idx] * dx
        expect = sub.T @ (dy / b) + (anchor.grad - sub.T @ (dx / b))
        weights = scheme.weights[idx] if weighted else None
        parts = batch_gradient(loss, anchor.grad, take_rows(mat, idx), y,
                               problem.data.labels[idx], weights, dx / b)
        for got in (vr_gradient(problem, anchor, scheme, y, idx), parts):
            same_bits(got, expect)
    # All rows in order: the full pass's products.
    n, d = mat.shape
    x, v = rng.standard_normal(d), rng.standard_normal(n)
    same_bits(take_rows(mat).dot(x), mat @ x)
    same_bits(take_rows(mat).tdot(v), mat.T @ v)


def test_take_rows_switches_form_at_the_entry_limit(monkeypatch):
    mat = stored_problem(n=30, d=8).data.features
    n, d = mat.shape
    idx = np.array([0, 1, 2, 4])
    monkeypatch.setattr(problem_module, "BLAS_ABOVE_ENTRIES", idx.size * d)
    assert take_rows(mat, idx).form == "csr"
    assert take_rows(mat).form == "dense"
    monkeypatch.setattr(problem_module, "BLAS_ABOVE_ENTRIES", idx.size * d - 1)
    assert take_rows(mat, idx).form == "dense"
    monkeypatch.setattr(problem_module, "BLAS_ABOVE_ENTRIES", n * d)
    assert take_rows(mat).ptr is mat.indptr
    # A matrix that misses entries takes the csr form at every size.
    monkeypatch.setattr(problem_module, "BLAS_ABOVE_ENTRIES", 0)
    sparse = csr_problem().data.features
    assert take_rows(sparse).form == take_rows(sparse, idx).form == "csr"


def stored_problem(loss=Squared(), n=200, d=50, missing=0, seed=4):
    """Every entry stored but ``missing`` of them: 10000 entries by
    default, above the BLAS limit."""
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, d))
    mat.ravel()[rng.choice(n * d, missing, replace=False)] = 0.0
    labels = (np.where(rng.random(n) < 0.5, -1.0, 1.0)
              if loss.classification else rng.standard_normal(n))
    return make_problem(make_dataset(mat, labels), loss, ElasticNet(1e-3, 1e-3))


def test_dense_form_only_for_fully_stored_matrices_above_the_limit():
    mat = stored_problem().data.features
    n, d = mat.shape
    rows = take_rows(mat)
    assert rows.form == "dense" and rows.dense.shape == (n, d)
    assert np.shares_memory(rows.dense, mat.data)   # a view, not a copy
    assert take_rows(mat, np.arange(121) % 7).form == "dense"   # 6050 entries
    assert take_rows(mat, np.arange(120) % 7).form == "csr"   # 6000
    assert take_rows(stored_problem(n=120).data.features).form == "csr"
    missing = stored_problem(missing=1).data.features
    assert missing.nnz == n * d - 1
    assert take_rows(missing).form == "csr"
    assert take_rows(missing, np.arange(150)).form == "csr"
    # n*d stored entries, but not canonical: columns out of order in one
    # row, or one column twice and another missing.
    for cols in ([1, 0], [0, 0]):
        indices = np.tile(np.arange(d, dtype=np.int32), n)
        indices[:2] = cols
        other = sp.csr_matrix((mat.data.copy(), indices, mat.indptr.copy()),
                              shape=(n, d))
        assert other.nnz == n * d
        assert problem_module.dense_view(other, n) is None
        assert take_rows(other).form == "csr"


def relative_error(got, expect):
    return float(np.max(np.abs(got - expect)) / np.max(np.abs(expect)))


def test_dense_products_agree_with_csr_products():
    mat = stored_problem().data.features
    n, d = mat.shape
    rng = np.random.default_rng(6)
    everything = np.arange(n)
    for idx in (None, rng.integers(0, n, size=150), everything):
        dense = take_rows(mat, idx)
        assert dense.form == "dense"
        csr = csr_rows(mat, idx)
        x, v = rng.standard_normal(d), rng.standard_normal(csr.count)
        assert relative_error(dense.dot(x), csr.dot(x)) <= 1e-12
        assert relative_error(dense.tdot(v), csr.tdot(v)) <= 1e-12
    # A gathered copy of all rows gives the bits of the view.
    view, gathered = take_rows(mat), take_rows(mat, everything)
    assert not np.shares_memory(gathered.dense, mat.data)
    assert view.dot(x).tobytes() == gathered.dot(x).tobytes()
    assert view.tdot(v).tobytes() == gathered.tdot(v).tobytes()


def test_full_batch_stage_is_a_prox_gradient_half_step_on_the_dense_form():
    # Acceptance criterion 09's first reduction, above the BLAS limit.
    problem = stored_problem()
    n = problem.n
    rng = np.random.default_rng(99)
    eta = 0.4 / problem.max_smoothness
    x = rng.standard_normal(problem.d)
    mat = problem.data.features
    idx = draw_batch(Partition(n, n), make_rng(0), n, 1)
    assert take_rows(mat, idx[0]).form == take_rows(mat).form == "dense"
    x1, z1 = one_stage_accsvrda(problem, x, x, eta, 1, n, Partition(n, n), make_rng(0))
    pg = one_stage_pg(problem, x, eta * 0.5)
    assert np.array_equal(x1, pg)
    assert np.array_equal(z1, pg)
