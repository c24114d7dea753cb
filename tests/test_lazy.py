import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from dasvrda import (
    ElasticNet,
    IidUniform,
    IidWeighted,
    Logistic,
    Partition,
    Squared,
    LazyStage,
    build_prefix_tables,
    lazy_one_stage_accsvrda,
    lazy_z,
    make_dataset,
    make_problem,
    make_rng,
    one_stage_accsvrda,
    smoothness_weighted,
)
from dasvrda import lazy as lazy_module
from dasvrda.lazy import branch_runs, catch_up
from dasvrda.problem import take_rows
from dasvrda.solvers import theta_pair
from lazy_oracles import compute_K_sets, lazy_x, soft, threshold_run


def sparse_problem(seed=0, n=60, d=40, density=0.1, l1=1e-3, l2=1e-3,
                   loss="squared"):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, d)) < density
    mat = np.where(mask, rng.standard_normal((n, d)), 0.0)
    # Keep at least one nonzero per row so no example is trivial.
    for i in range(n):
        if not mask[i].any():
            mat[i, rng.integers(d)] = rng.standard_normal()
    if loss == "squared":
        kind = Squared()
        labels = mat @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    else:
        kind = Logistic()
        labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    data = make_dataset(sp.csr_matrix(mat), labels)
    return make_problem(data, kind, ElasticNet(l1, l2))


# ---------------------------------------------------------------------------
# Scalar building blocks.


def test_soft_threshold():
    assert soft(3.0, 1.0) == 2.0
    assert soft(-3.0, 1.0) == -2.0
    assert soft(0.5, 1.0) == 0.0
    assert soft(-1.0, 1.0) == 0.0
    assert soft(2.5, 0.0) == 2.5


def test_lazy_z_matches_explicit_prox():
    # A coordinate not touched since iteration k_j: its gradient sum grows
    # by the anchor coordinate times the weight-product difference, and the
    # dual update is the scalar elastic-net prox from the stage start.
    rng = np.random.default_rng(0)
    reg = ElasticNet(0.3, 0.7)
    for _ in range(200):
        z0 = float(rng.normal(scale=2.0))
        gs = float(rng.normal())
        tg = float(rng.normal())
        eta = float(rng.uniform(0.01, 1.0))
        kj = int(rng.integers(0, 20))
        k = kj + int(rng.integers(1, 30))
        drift = gs + (theta_pair(k) - theta_pair(kj)) * tg
        step = eta * theta_pair(k)
        expect = soft(z0 - eta * drift, step * reg.l1) / (1.0 + step * reg.l2)
        got = float(lazy_z(z0, gs, tg, eta, reg, theta_pair(k), theta_pair(kj)))
        assert got == pytest.approx(expect, abs=1e-15, rel=1e-12)


def test_lazy_z_keeps_nan():
    # As the dense stage's prox does, with or without a soft-threshold.
    for reg in (ElasticNet(1.0, 0.0), ElasticNet(0.0, 1.0), ElasticNet(0.0, 0.0)):
        assert np.isnan(lazy_z(np.array([np.nan]), 0.0, 0.0, 1.0, reg, 1.0, 1.0)).all()
        assert np.isnan(lazy_z(np.array([0.5]), np.nan, 0.0, 1.0, reg, 1.0, 1.0)).all()


def test_prefix_tables_match_direct_sums():
    eta, l2 = 0.05, 0.4
    tables = build_prefix_tables(50, eta, l2)

    def th2(kp):
        return (kp - 1) / 2.0 if kp >= 2 else 0.0

    def pair_prev(kp):
        return (kp - 1) * kp / 4.0 if kp >= 2 else 0.0

    for t in range(51):
        s = sum(th2(kp) / (1 + eta * l2 * pair_prev(kp)) for kp in range(1, t + 1))
        q = sum(
            pair_prev(kp) * th2(kp) / (1 + eta * l2 * pair_prev(kp))
            for kp in range(1, t + 1)
        )
        assert tables.s[t] == pytest.approx(s, rel=1e-14, abs=1e-14)
        assert tables.s_quad[t] == pytest.approx(q, rel=1e-14, abs=1e-14)


# ---------------------------------------------------------------------------
# Branch classification.


def brute_force_sets(c1, c2, c3, z0, k_j, k):
    plus, minus = [], []
    for kp in range(k_j + 2, k + 1):
        quad = kp * kp - kp
        if z0 > (c1 + c2) * quad + c3:
            plus.append(kp)
        if z0 < (c1 - c2) * quad + c3:
            minus.append(kp)
    return plus, minus


def test_branch_runs_match_brute_force():
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(400):
        c1 = float(rng.normal(scale=0.1))
        c2 = abs(float(rng.normal(scale=0.1)))
        c3 = float(rng.normal())
        z0 = float(rng.normal(scale=2.0))
        k_j = int(rng.integers(0, 30))
        k = k_j + int(rng.integers(0, 40))
        k_plus, k_minus = compute_K_sets(c1, c2, c3, z0, k_j, k)
        bp, bm = brute_force_sets(c1, c2, c3, z0, k_j, k)
        assert list(k_plus) == bp
        assert list(k_minus) == bm
        checked += 1
    assert checked == 400


# Values engineered so the quadratic root lands on/near integers, where
# naive rounding of the root would misclassify an index.
BOUNDARY_CASES = [
    (0.25, 0.0, 0.0, 0.25 * (12 * 12 - 12)),          # z0 == M(12)
    (0.25, 0.25, 0.0, 0.5 * (7 * 7 - 7) + 1e-12),
    (0.25, 0.25, 0.0, 0.5 * (7 * 7 - 7) - 1e-12),
    (-0.125, 0.125, 1.0, 1.0),                        # constant M_plus
    (1e-18, 0.0, 0.0, 5e-17),                         # tiny curvature
    # z0 just above M(4) and M(12): the computed root falls just short of
    # the integer, so the run boundary must be nudged upward.
    (0.08670297101361264, 0.0, -0.35891330853862047, 0.6815223436247314),
    (0.3564856702234921, 0.0, -0.8022875453678814, 46.25382092413308),
]


def test_branch_runs_near_threshold_boundaries():
    for c1, c2, c3, z0 in BOUNDARY_CASES:
        for k_j in (0, 3):
            for k in (k_j + 1, k_j + 2, 25):
                k_plus, k_minus = compute_K_sets(c1, c2, c3, z0, k_j, k)
                bp, bm = brute_force_sets(c1, c2, c3, z0, k_j, k)
                assert list(k_plus) == bp
                assert list(k_minus) == bm


def test_branch_sets_empty_window_and_validation():
    k_plus, k_minus = compute_K_sets(0.1, 0.1, 0.0, 1.0, 5, 6)
    assert len(k_plus) == 0 and len(k_minus) == 0
    with pytest.raises(ValueError):
        compute_K_sets(0.1, -0.1, 0.0, 1.0, 0, 5)


def test_branch_runs_are_disjoint():
    rng = np.random.default_rng(2)
    for _ in range(100):
        c1 = float(rng.normal(scale=0.05))
        c2 = abs(float(rng.normal(scale=0.05)))
        z0 = float(rng.normal())
        k_plus, k_minus = compute_K_sets(c1, c2, float(rng.normal()), z0, 0, 40)
        assert not (set(k_plus) & set(k_minus))


def random_run_inputs(rng, size):
    """Quadratic coefficients covering a == 0, no crossing, crossings
    inside the window and the boundary cases above."""
    a = rng.normal(scale=0.1, size=size)
    a[::7] = 0.0
    c3 = rng.normal(size=size)
    z0 = rng.normal(scale=2.0, size=size)
    for i, (c1, c2, c3_i, z0_i) in enumerate(BOUNDARY_CASES):
        a[i], c3[i], z0[i] = c1 + c2, c3_i, z0_i
    return a, c3, z0


def test_array_branch_runs_match_scalar_runs():
    rng = np.random.default_rng(4)
    a, c3, z0 = random_run_inputs(rng, 600)
    lo = rng.integers(2, 30, size=600)
    lo[:len(BOUNDARY_CASES)] = 2
    no_crossing = 0
    for hi in (2, 17, 45):
        for above in (True, False):
            sign = 1.0 if above else -1.0
            start, stop = branch_runs(sign * a, sign * c3, sign * z0, lo, hi)
            for i in range(a.size):
                run = threshold_run(a[i], c3[i], z0[i], int(lo[i]), hi, above)
                got = range(start[i], stop[i]) if stop[i] > start[i] else range(0)
                assert list(got) == list(run)
                no_crossing += a[i] * a[i] + 4.0 * a[i] * (z0[i] - c3[i]) <= 0.0
    assert no_crossing > 0


def scalar_catch_up(x_last, z_last, z0, gs, tg, kj, target, tables, eta, reg):
    """One coordinate through the scalar oracles."""
    if target == kj:
        return x_last, z_last
    l1 = reg.l1
    z = lazy_z(z0, gs, tg, eta, reg, theta_pair(target), theta_pair(kj))
    c3 = eta * (gs - theta_pair(kj) * tg)
    k_plus, k_minus = compute_K_sets(0.25 * eta * tg, 0.25 * eta * l1, c3, z0,
                                     kj, target + 1)
    x = lazy_x(x_last, k_plus, k_minus, tables, target + 1, kj, eta, l1, tg, gs, z0)
    return x, z


@pytest.mark.parametrize("l1,l2", [(0.2, 0.3), (0.0, 0.1), (0.05, 0.0)])
def test_array_catch_up_matches_scalar_oracles(l1, l2):
    rng = np.random.default_rng(5)
    reg = ElasticNet(l1, l2)
    size, m = 400, 60
    eta = 4.0                      # so c1 = tg and c2 = l1 exactly
    tables = build_prefix_tables(m + 1, eta, l2)
    a, c3, z0 = random_run_inputs(rng, size)
    tg = a - l1                    # the positive branch's a is c1 + c2
    tg[1::11] = -l1                # ... and the negative branch's a = 0
    k_last = rng.integers(0, m, size=size)
    g_sum = c3 / eta + (k_last * (k_last + 1) / 4.0) * tg
    x_last = rng.normal(size=size)
    z_last = rng.normal(size=size)
    for target in (1, 7, m):
        kj = np.minimum(k_last, target)
        kj[::5] = target           # caught up already
        x, z = catch_up(x_last, z_last, z0, g_sum, tg, kj, target,
                        tables, eta, reg)
        for i in range(size):
            ex, ez = scalar_catch_up(x_last[i], z_last[i], z0[i], g_sum[i],
                                     tg[i], int(kj[i]), target, tables, eta, reg)
            assert abs(x[i] - ex) <= 1e-12 * max(1.0, abs(ex))
            assert abs(z[i] - ez) <= 1e-12 * max(1.0, abs(ez))


# ---------------------------------------------------------------------------
# Coordinate catch-up against a scalar replay.


def scalar_replay(z0, tg, eta, l1, l2, kmax):
    """Directly simulate one untouched coordinate of the dense stage."""
    xs = {0: z0}
    zs = {0: z0}
    g_sum = 0.0
    x = z0
    for k in range(1, kmax + 1):
        g_sum += (k / 2.0) * tg                     # theta_{k-1} * g_k
        step = eta * theta_pair(k)
        z = soft(z0 - eta * g_sum, step * l1) / (1.0 + step * l2)
        inv = 2.0 / (k + 1)
        x = (1.0 - inv) * x + inv * z
        xs[k] = x
        zs[k] = z
    return xs, zs


def test_lazy_coordinate_matches_scalar_replay():
    rng = np.random.default_rng(3)
    eta, l1, l2 = 0.07, 0.2, 0.3
    tables = build_prefix_tables(64, eta, l2)
    for _ in range(60):
        z0 = float(rng.normal(scale=2.0))
        tg = float(rng.normal())
        xs, zs = scalar_replay(z0, tg, eta, l1, l2, 60)
        for target in (1, 2, 3, 7, 29, 60):
            z = lazy_z(z0, 0.0, tg, eta, ElasticNet(l1, l2), theta_pair(target), 0.0)
            assert z == pytest.approx(zs[target], rel=1e-12, abs=1e-14)
            c3 = 0.0
            k_plus, k_minus = compute_K_sets(
                0.25 * eta * tg, 0.25 * eta * l1, c3, z0, 0, target + 1
            )
            x = lazy_x(z0, k_plus, k_minus, tables, target + 1, 0,
                       eta, l1, tg, 0.0, z0)
            assert x == pytest.approx(xs[target], rel=1e-11, abs=1e-13)


def test_lazy_x_no_gap_and_bad_target():
    tables = build_prefix_tables(8, 0.1, 0.0)
    empty = range(2, 2)
    assert lazy_x(1.5, empty, empty, tables, 4, 3, 0.1, 0.0, 0.0, 0.0, 0.0) == 1.5
    with pytest.raises(ValueError):
        lazy_x(1.5, empty, empty, tables, 3, 5, 0.1, 0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Full stage against the dense implementation.


@pytest.mark.parametrize(
    "loss,l1,l2,scheme_kind",
    [
        ("squared", 1e-3, 1e-3, "uniform"),
        ("squared", 1e-2, 0.0, "uniform"),
        ("squared", 0.0, 1e-2, "partition"),
        ("logistic", 1e-3, 1e-4, "uniform"),
        ("logistic", 1e-3, 1e-3, "weighted"),
        ("squared", 0.0, 0.0, "uniform"),
    ],
)
def test_lazy_stage_matches_dense_stage(loss, l1, l2, scheme_kind):
    problem = sparse_problem(seed=7, n=48, d=33, density=0.12,
                             l1=l1, l2=l2, loss=loss)
    if scheme_kind == "uniform":
        scheme = IidUniform(problem.n)
        b = 4
    elif scheme_kind == "weighted":
        scheme = smoothness_weighted(problem)
        b = 4
    else:
        scheme = Partition(problem.n, 12)
        b = 12
    eta = 0.3 / problem.max_smoothness
    rng0 = np.random.default_rng(11)
    y0 = 0.5 * rng0.standard_normal(problem.d)
    anchor = 0.5 * rng0.standard_normal(problem.d)
    m = 25
    dense_x, dense_z = one_stage_accsvrda(
        problem, y0, anchor, eta, m, b, scheme, make_rng(99)
    )
    lazy_xv, lazy_zv = lazy_one_stage_accsvrda(
        problem, y0, anchor, eta, m, b, scheme, make_rng(99)
    )
    scale = max(1.0, float(np.max(np.abs(dense_x))))
    assert np.max(np.abs(lazy_xv - dense_x)) <= 1e-9 * scale
    assert np.max(np.abs(lazy_zv - dense_z)) <= 1e-9 * scale


def test_lazy_stage_matches_dense_stage_at_high_d():
    # d = 100000 with 20 nonzeros per row: the sweep runs over many chunks
    # and most coordinates skip most iterations.
    rng = np.random.default_rng(21)
    n, d, k = 200, 100_000, 20
    cols = np.stack([np.sort(rng.choice(d, k, replace=False)) for _ in range(n)])
    feats = sp.csr_matrix(
        (rng.standard_normal(n * k) / np.sqrt(k), cols.ravel(),
         np.arange(0, n * k + 1, k)),
        shape=(n, d),
    )
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    problem = make_problem(make_dataset(feats, labels), Logistic(),
                           ElasticNet(1e-3, 1e-4))
    scheme = IidUniform(n)
    eta = 0.5 / problem.max_smoothness
    y0 = 0.1 * rng.standard_normal(d)
    anchor = 0.1 * rng.standard_normal(d)
    m, b = 20, 10
    dense = one_stage_accsvrda(problem, y0, anchor, eta, m, b, scheme, make_rng(3))
    lazy = lazy_one_stage_accsvrda(problem, y0, anchor, eta, m, b, scheme, make_rng(3))
    for got, expect in zip(lazy, dense):
        assert np.max(np.abs(got - expect)) <= 1e-9


@pytest.mark.parametrize("loss", ["squared", "logistic"])
def test_lazy_stage_matches_dense_stage_on_a_fully_stored_matrix(loss):
    # 200 x 50, every entry stored: the dense engine's full passes and its
    # 150-row minibatches (7500 entries) take BLAS on the dense view, the
    # lazy engine's minibatches the csr form over its blocks' columns.
    problem = sparse_problem(seed=9, n=200, d=50, density=1.0, loss=loss)
    assert take_rows(problem.data.features).form == "dense"
    scheme = IidUniform(problem.n)
    eta = 0.3 / problem.max_smoothness
    rng = np.random.default_rng(12)
    y0 = 0.5 * rng.standard_normal(problem.d)
    anchor = 0.5 * rng.standard_normal(problem.d)
    m, b = 12, 150
    dense = one_stage_accsvrda(problem, y0, anchor, eta, m, b, scheme, make_rng(4))
    lazy = lazy_one_stage_accsvrda(problem, y0, anchor, eta, m, b, scheme, make_rng(4))
    for got, expect in zip(lazy, dense):
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.max(np.abs(got - expect)) <= 1e-9 * scale


def test_lazy_snapshots_match_dense_midflight():
    problem = sparse_problem(seed=8, n=40, d=25, density=0.15)
    scheme = IidUniform(problem.n)
    eta = 0.2 / problem.max_smoothness
    y0 = np.zeros(problem.d)
    anchor = 0.1 * np.random.default_rng(13).standard_normal(problem.d)
    m, b = 18, 3
    dense_states = {}
    one_stage_accsvrda(
        problem, y0, anchor, eta, m, b, scheme, make_rng(5),
        on_iterate=lambda k, info: dense_states.__setitem__(
            k, (info["x"], info["z"])
        ),
    )
    stage = LazyStage(problem, y0, anchor, eta, m, b, scheme, make_rng(5))
    for k in range(1, m + 1):
        stage.step()
        if k in (1, 2, 5, 11, 18):
            x, z = stage.snapshot()
            dx, dz = dense_states[k]
            assert np.max(np.abs(x - dx)) <= 1e-10 * max(1.0, np.abs(dx).max())
            assert np.max(np.abs(z - dz)) <= 1e-10 * max(1.0, np.abs(dz).max())


def test_lazy_work_counts_touched_coordinates_plus_final_sweep():
    problem = sparse_problem(seed=9, n=50, d=30, density=0.1)
    scheme = IidUniform(problem.n)
    eta = 0.2 / problem.max_smoothness
    m, b = 12, 2
    feats = problem.data.features
    rng = make_rng(17)
    stage = LazyStage(problem, np.zeros(problem.d), np.zeros(problem.d),
                      eta, m, b, scheme, rng)
    # Replay the batch draws with an identical stream to predict the work.
    replay = make_rng(17)
    expected = 0
    from dasvrda import draw_batch

    for _ in range(m):
        idx = draw_batch(scheme, replay, b)
        cols = set()
        for i in idx:
            cols.update(feats.indices[feats.indptr[i]:feats.indptr[i + 1]].tolist())
        expected += len(cols)
    stage.finish()
    assert stage.touched == expected + problem.d
    assert stage.touched < m * problem.d + problem.d


def digest_stage():
    """A seeded stage on a squared loss (no transcendental functions, so
    its bits do not depend on the platform's math library): the SHA-256 of
    ``(x_m, z_m)`` and the coordinates touched."""
    problem = sparse_problem(seed=5, n=60, d=150, density=0.04, l1=2e-3, l2=1e-3)
    rng = np.random.default_rng(19)
    y0 = 0.5 * rng.standard_normal(problem.d)
    anchor = 0.5 * rng.standard_normal(problem.d)
    eta = 0.3 / problem.max_smoothness
    stage = LazyStage(problem, y0, anchor, eta, 37, 3, IidUniform(problem.n),
                      make_rng(23))
    x, z = stage.finish()
    return hashlib.sha256(x.tobytes() + z.tobytes()).hexdigest(), stage.touched


def test_one_step_blocks_reproduce_the_per_step_engine(monkeypatch):
    # Recorded from the engine before it ran steps in blocks, which caught
    # up each step's columns and stepped them alone: blocks of one step
    # are that engine, bit for bit.
    monkeypatch.setattr(lazy_module, "BLOCK_STEPS", 1)
    assert digest_stage() == (
        "491c5559f7953a6a11ca1d69f61beb1da2dda511550aba1a2600428672992aa9", 768)


def test_snapshot_mid_block_leaves_the_final_bits():
    problem = sparse_problem(seed=8, n=40, d=25, density=0.15)
    scheme = IidUniform(problem.n)
    eta = 0.2 / problem.max_smoothness
    anchor = 0.1 * np.random.default_rng(13).standard_normal(problem.d)
    m, b = 21, 3
    args = (problem, np.zeros(problem.d), anchor, eta, m, b, scheme)
    plain = LazyStage(*args, make_rng(5))
    expect = plain.finish()
    watched = LazyStage(*args, make_rng(5))
    for k in range(1, m + 1):
        watched.step()
        if k % lazy_module.BLOCK_STEPS in (1, 3):
            watched.snapshot()
    got = watched.finish()
    for a, e in zip(got, expect):
        assert a.tobytes() == e.tobytes()
    assert watched.touched == plain.touched


@pytest.mark.parametrize("cap,m", [(40, 27), (1, 19), (1 << 16, 30)])
def test_blocks_cut_at_the_entry_cap_match_dense(monkeypatch, cap, m):
    # An entry cap of a few steps (or of less than one) cuts the blocks
    # short, and m is not a multiple of the block length.
    monkeypatch.setattr(lazy_module, "BLOCK_ENTRIES", cap)
    problem = sparse_problem(seed=3, n=50, d=60, density=0.08, loss="logistic")
    scheme = smoothness_weighted(problem)
    eta = 0.4 / problem.max_smoothness
    rng = np.random.default_rng(4)
    y0 = 0.3 * rng.standard_normal(problem.d)
    anchor = 0.3 * rng.standard_normal(problem.d)
    b = 4
    dense = {}
    one_stage_accsvrda(
        problem, y0, anchor, eta, m, b, scheme, make_rng(8),
        on_iterate=lambda k, info: dense.__setitem__(k, (info["x"], info["z"])),
    )
    blocks = []
    open_block = LazyStage._open_block

    def opened(stage):
        open_block(stage)
        blocks.append(stage._block)

    monkeypatch.setattr(LazyStage, "_open_block", opened)
    stage = LazyStage(problem, y0, anchor, eta, m, b, scheme, make_rng(8))
    for k in range(1, m + 1):
        stage.step()
        for got, expect in zip(stage.snapshot(), dense[k]):
            assert np.max(np.abs(got - expect)) <= 1e-9
    for got, expect in zip(stage.finish(), dense[m]):
        assert np.max(np.abs(got - expect)) <= 1e-9
    # Each block takes as many steps as both limits allow, and at least one.
    indptr = problem.data.features.indptr
    entries = (indptr[stage.idx + 1] - indptr[stage.idx]).sum(axis=1)
    assert [bl.start for bl in blocks] == [0] + [bl.stop for bl in blocks[:-1]]
    assert blocks[-1].stop == m
    for block in blocks:
        start, stop = block.start, block.stop
        assert block.ptr[-1] == entries[start:stop].sum()
        assert 1 <= stop - start <= lazy_module.BLOCK_STEPS
        assert stop - start == 1 or block.ptr[-1] <= cap
        if stop < min(start + lazy_module.BLOCK_STEPS, m):
            assert entries[start:stop + 1].sum() > cap
    cut = sum(bl.stop - bl.start < lazy_module.BLOCK_STEPS for bl in blocks[:-1])
    assert (cut > 0) == (cap < 1 << 16)


def test_lazy_and_dense_stages_agree_on_nan_coordinates():
    # A start with one NaN coordinate: the NaN spreads through the batches'
    # rows, and both engines must end with NaN at the same coordinates.
    problem = sparse_problem(seed=7, n=48, d=33, density=0.12)
    scheme = IidUniform(problem.n)
    eta = 0.3 / problem.max_smoothness
    rng0 = np.random.default_rng(11)
    y0 = 0.5 * rng0.standard_normal(problem.d)
    y0[int(problem.data.features.indices[0])] = np.nan
    anchor = 0.5 * rng0.standard_normal(problem.d)
    dense = one_stage_accsvrda(problem, y0, anchor, eta, 5, 4, scheme, make_rng(99))
    lazy = lazy_one_stage_accsvrda(problem, y0, anchor, eta, 5, 4, scheme,
                                   make_rng(99))
    for got, expect in zip(lazy, dense):
        assert 1 < np.isnan(expect).sum() < problem.d
        np.testing.assert_array_equal(np.isnan(got), np.isnan(expect))
        finite = ~np.isnan(expect)
        assert np.max(np.abs(got[finite] - expect[finite])) <= 1e-9


def test_lazy_stage_guards():
    problem = sparse_problem(seed=10)
    scheme = IidUniform(problem.n)
    stage = LazyStage(problem, np.zeros(problem.d), np.zeros(problem.d),
                      0.1, 2, 2, scheme, make_rng(0))
    stage.step()
    stage.step()
    with pytest.raises(RuntimeError):
        stage.step()
