import numpy as np
import pytest
import scipy.sparse as sp

from dasvrda import (
    ElasticNet,
    Partition,
    Squared,
    IidUniform,
    make_dataset,
    make_problem,
    make_rng,
    objective,
    one_stage_pg,
    one_stage_svrg,
    prox_elastic_net,
    run_apg,
    run_pg,
    run_svrg,
)
from dasvrda.problem import full_gradient


def quadratic_problem(rng, n=50, d=10, cond=1.0, l1=0.0, l2=0.0):
    """Least-squares data whose column scaling controls conditioning."""
    mat = rng.standard_normal((n, d))
    if cond > 1:
        scales = np.geomspace(1.0, np.sqrt(cond), d)
        mat = mat * scales
    labels = mat @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    data = make_dataset(sp.csr_matrix(mat), labels)
    return make_problem(data, Squared(), ElasticNet(l1, l2))


def apg_oracle(problem, x0, eta, n_stages):
    """Independent re-derivation of the accelerated recursion, dense math."""
    mat = problem.data.features.toarray()
    labels = problem.data.labels
    n = problem.n
    reg = problem.reg

    def grad(v):
        return mat.T @ (mat @ v - labels) / n

    x = x0.copy()
    x_old = x0.copy()
    th_old = 0.0
    for s in range(1, n_stages + 1):
        th = (s + 1) / 2
        y = x + (th_old - 1) / th * (x - x_old)
        x_old = x
        x = prox_elastic_net(y - eta * grad(y), eta, reg)
        th_old = th
    return x


def test_pg_step_decreases_objective():
    rng = np.random.default_rng(0)
    problem = quadratic_problem(rng, l1=1e-3, l2=1e-3)
    eta = 1.0 / problem.mean_smoothness
    x = rng.standard_normal(problem.d)
    for _ in range(5):
        x_next = one_stage_pg(problem, x, eta)
        assert objective(problem, x_next) <= objective(problem, x) + 1e-15
        x = x_next


def test_run_pg_returns_stage_average():
    rng = np.random.default_rng(1)
    problem = quadratic_problem(rng, l1=1e-3)
    eta = 1.0 / problem.mean_smoothness
    seen = []
    out = run_pg(problem, np.zeros(problem.d), eta, 7,
                 on_stage=lambda s, x, e, r: seen.append(x.copy()))
    assert len(seen) == 7
    assert np.allclose(out, np.mean(seen, axis=0), rtol=0, atol=1e-15)


def test_apg_single_stage_is_one_pg_step():
    rng = np.random.default_rng(2)
    problem = quadratic_problem(rng, l1=1e-2, l2=1e-2)
    eta = 0.7 / problem.mean_smoothness
    x0 = rng.standard_normal(problem.d)
    apg = run_apg(problem, x0, eta, 1)
    pg = one_stage_pg(problem, x0, eta)
    assert np.array_equal(apg, pg)


def test_apg_matches_independent_recursion():
    rng = np.random.default_rng(3)
    problem = quadratic_problem(rng, l1=1e-3, l2=1e-4)
    eta = 1.0 / problem.mean_smoothness
    x0 = rng.standard_normal(problem.d)
    got = run_apg(problem, x0, eta, 25)
    expect = apg_oracle(problem, x0, eta, 25)
    assert np.max(np.abs(got - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))


def test_apg_beats_pg_when_ill_conditioned():
    rng = np.random.default_rng(4)
    problem = quadratic_problem(rng, n=80, d=20, cond=1e3)
    eta = 1.0 / problem.mean_smoothness
    x0 = np.zeros(problem.d)
    apg_last = run_apg(problem, x0, eta, 50)
    pg_last = [None]
    run_pg(problem, x0, eta, 50,
           on_stage=lambda s, x, e, r: pg_last.__setitem__(0, x.copy()))
    assert objective(problem, apg_last) < objective(problem, pg_last[0])


def test_svrg_full_partition_batch_reproduces_pg():
    rng = np.random.default_rng(5)
    problem = quadratic_problem(rng, n=24, d=6, l1=1e-3, l2=1e-3)
    scheme = Partition(problem.n, problem.n)
    eta = 0.5 / problem.mean_smoothness
    inner = []
    one_stage_svrg(problem, np.zeros(problem.d), eta, 6, problem.n, scheme,
                   make_rng(0), on_iterate=lambda k, info: inner.append(info["x"]))
    x = np.zeros(problem.d)
    for k in range(6):
        x = one_stage_pg(problem, x, eta)
        assert np.array_equal(x, inner[k])


def test_svrg_stage_output_is_inner_average():
    rng = np.random.default_rng(6)
    problem = quadratic_problem(rng, n=30, d=8, l1=1e-3)
    scheme = IidUniform(problem.n)
    inner = []
    out = one_stage_svrg(problem, np.zeros(problem.d),
                         0.1 / problem.mean_smoothness, 9, 3, scheme,
                         make_rng(1), on_iterate=lambda k, info: inner.append(info["x"]))
    assert np.allclose(out, np.mean(inner, axis=0), atol=1e-15)


def test_svrg_converges_on_small_problem():
    rng = np.random.default_rng(7)
    problem = quadratic_problem(rng, n=60, d=10, l1=1e-3, l2=1e-3)
    scheme = IidUniform(problem.n)
    x = run_svrg(problem, np.zeros(problem.d), 0.1 / problem.max_smoothness,
                 2 * problem.n, 1, scheme, make_rng(2), 30)
    p0 = objective(problem, np.zeros(problem.d))
    assert objective(problem, x) < 0.05 * p0


def test_budget_limits_stages():
    rng = np.random.default_rng(8)
    problem = quadratic_problem(rng, n=20, d=5)
    eta = 1.0 / problem.mean_smoothness
    stages = []
    run_pg(problem, np.zeros(problem.d), eta, 100, budget=3 * problem.n + 5,
           on_stage=lambda s, x, e, r: stages.append((s, e)))
    assert [s for s, _ in stages] == [1, 2, 3]
    assert all(e == problem.n for _, e in stages)

    stages.clear()
    scheme = IidUniform(problem.n)
    cost = problem.n + 4 * 2
    run_svrg(problem, np.zeros(problem.d), eta / 10, 4, 2, scheme, make_rng(3),
             100, budget=2 * cost + 1,
             on_stage=lambda s, x, e, r: stages.append((s, e)))
    assert [s for s, _ in stages] == [1, 2]
    assert all(e == cost for _, e in stages)


def test_apg_restart_test_that_never_fires_changes_nothing():
    rng = np.random.default_rng(9)
    problem = quadratic_problem(rng, l1=1e-3, l2=1e-4)
    eta = 1.0 / problem.mean_smoothness
    x0 = rng.standard_normal(problem.d)
    plain, tested = [], []
    out = run_apg(problem, x0, eta, 12,
                  on_stage=lambda s, x, e, r: plain.append((s, x, e, r)))
    got = run_apg(problem, x0, eta, 12, restart=lambda x: False,
                  on_stage=lambda s, x, e, r: tested.append((s, x, e, r)))
    assert np.array_equal(got, out)
    assert len(tested) == len(plain) == 12
    for (s, x, e, r), (s2, x2, e2, r2) in zip(plain, tested):
        assert (s, e, r) == (s2, e2, r2) == (s, problem.n, False)
        assert np.array_equal(x, x2)


def test_apg_restart_every_stage_is_pg():
    """A test that always fires keeps the lookahead at ``x``, so each stage
    is one proximal gradient step, bit for bit."""
    rng = np.random.default_rng(10)
    problem = quadratic_problem(rng, l1=1e-2, l2=1e-3)
    eta = 0.9 / problem.mean_smoothness
    x0 = rng.standard_normal(problem.d)
    seen = []
    run_apg(problem, x0, eta, 8, restart=lambda x: True,
            on_stage=lambda s, x, e, r: seen.append((x, r)))
    x = x0
    for got, restarted in seen:
        x = one_stage_pg(problem, x, eta)
        assert np.array_equal(got, x)
        assert restarted
    assert len(seen) == 8


def test_apg_restart_flags_the_fired_stages_and_rewinds():
    rng = np.random.default_rng(11)
    problem = quadratic_problem(rng, n=60, d=12, cond=1e2, l1=1e-3)
    eta = 1.0 / problem.mean_smoothness
    x0 = np.zeros(problem.d)
    iterates = []
    fire_at = {3, 7}

    def restart(x):
        iterates.append(x)
        return len(iterates) in fire_at

    seen = []
    run_apg(problem, x0, eta, 10, restart=restart,
            on_stage=lambda s, x, e, r: seen.append((s, r)))
    assert seen == [(s, s in fire_at) for s in range(1, 11)]
    # The stage after a restart starts its momentum afresh from the restart
    # point: its lookahead is that point, and the one after it is the same
    # as the second stage of a fresh run from there.
    for s in fire_at:
        fresh = run_apg(problem, iterates[s - 1], eta, 2)
        assert np.array_equal(iterates[s], one_stage_pg(problem, iterates[s - 1], eta))
        assert np.array_equal(iterates[s + 1], fresh)
