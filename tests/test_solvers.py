import math

import numpy as np
import pytest
import scipy.sparse as sp

from dasvrda import (
    ElasticNet,
    IidUniform,
    Logistic,
    OuterState,
    Partition,
    Squared,
    choose_S_for_rho,
    default_warm_start,
    eta_default,
    gamma_star,
    make_dataset,
    make_problem,
    make_rng,
    objective,
    one_stage_accsvrda,
    one_stage_dasvrg,
    one_stage_pg,
    outer_momentum,
    restart_rho,
    run_dasvrda_adaptive,
    run_dasvrda_ns,
    run_dasvrda_sc,
    run_dasvrda_warm,
    theta_inner,
    theta_outer,
    theta_pair,
    warm_final_loop_length,
    warm_start_schedule,
)


def small_problem(seed=0, n=40, d=12, l1=1e-3, l2=1e-3, loss=None):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, d))
    if loss is None:
        loss = Squared()
        labels = mat @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    else:
        labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    data = make_dataset(sp.csr_matrix(mat), labels)
    return make_problem(data, loss, ElasticNet(l1, l2))


# ---------------------------------------------------------------------------
# Momentum weight schedules.


def test_theta_inner_values_and_boundary():
    assert theta_inner(-1) == 0.0
    assert theta_inner(0) == 0.5
    assert theta_inner(1) == 1.0
    assert theta_inner(7) == 4.0


def test_theta_pair_matches_product_exactly():
    # Both sides are ratios of small integers by powers of two, hence exact
    # in float64, so bitwise equality is the right check.
    for k in list(range(-2, 50)) + [977, 5000, 10_000]:
        assert theta_pair(k) == theta_inner(k) * theta_inner(k - 1)
    assert theta_pair(0) == 0.0
    assert theta_pair(1) == 0.5


def test_theta_outer_values_and_validation():
    assert theta_outer(3.0, 0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert theta_outer(2.0, 4) == 1.5
    with pytest.raises(ValueError):
        theta_outer(3.0, -1)


def test_outer_weight_growth_inequality():
    # The telescoping argument behind the outer loop needs
    #   th(s-1)^2 >= th(s) * (th(s) - 1 + 1/gamma)
    # the two sides differ by exactly (1 - 1/gamma)^2 / 4, which dwarfs
    # float64 rounding for every practical stage count.
    eps = np.finfo(np.float64).eps
    for gamma in (3.0, 3.5615528128088303, 4.0, 10.0):
        margin = (1.0 - 1.0 / gamma) ** 2 / 4.0
        for s in range(1, 10_001):
            lhs = theta_outer(gamma, s - 1) ** 2
            rhs = theta_outer(gamma, s) * (theta_outer(gamma, s) - 1.0 + 1.0 / gamma)
            # Subtracting two O(s^2) quantities leaves cancellation noise
            # of order eps * s^2, still far below the constant margin.
            assert lhs >= rhs
            assert abs((lhs - rhs) - margin) <= 1e-12 + 8 * eps * lhs


# ---------------------------------------------------------------------------
# Default parameters.


def golden_section_min(fn, lo, hi, iters=200):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    for _ in range(iters):
        if fn(c) < fn(d):
            b, d = d, c
            c = b - inv_phi * (b - a)
        else:
            a, c = c, d
            d = a + inv_phi * (b - a)
    return (a + b) / 2.0


@pytest.mark.parametrize(
    "m,b,expected",
    [
        # [DERIVED] frozen from an independent golden-section minimization of
        # (1 + g*(m+1)/b) / (1 - 1/g)^2 over g in (1, 50).
        (1, 2, 3.5615528128088303),
        (10, 11, 3.5615528128088303),
        (180, 180, 3.5588711169578087),
        (100, 10, 3.0646149053298064),
    ],
)
def test_gamma_star_frozen_values(m, b, expected):
    assert gamma_star(m, b) == pytest.approx(expected, abs=1e-12)


def test_gamma_star_minimizes_complexity_constant():
    for m, b in [(1, 1), (5, 20), (50, 7), (300, 300)]:
        def constant(g):
            return (1.0 + g * (m + 1) / b) / (1.0 - 1.0 / g) ** 2

        g_num = golden_section_min(constant, 1.0 + 1e-9, 50.0)
        g_closed = gamma_star(m, b)
        assert g_closed == pytest.approx(g_num, abs=1e-6)
        assert g_closed > 3.0
        eps = 1e-4
        assert constant(g_closed) <= constant(g_closed + eps)
        assert constant(g_closed) <= constant(g_closed - eps)


def test_gamma_star_validation():
    with pytest.raises(ValueError):
        gamma_star(0, 1)
    with pytest.raises(ValueError):
        gamma_star(1, 0)


def test_eta_default_values_and_validation():
    assert eta_default(3.0, 1, 1, 1.0) == pytest.approx(1.0 / 7.0, abs=1e-18)
    assert eta_default(4.0, 9, 5, 2.0) == pytest.approx(1.0 / 18.0, abs=1e-18)
    with pytest.raises(ValueError):
        eta_default(3.0, 1, 1, 0.0)
    with pytest.raises(ValueError):
        eta_default(0.0, 1, 1, 1.0)


# ---------------------------------------------------------------------------
# Inner stage identities.


def test_inner_stage_single_iteration_is_half_step_pg():
    problem = small_problem(1)
    eta = 0.9 / problem.mean_smoothness
    x0 = np.random.default_rng(2).standard_normal(problem.d)
    scheme = Partition(problem.n, problem.n)
    x_new, z_new = one_stage_accsvrda(
        problem, x0, x0, eta, 1, problem.n, scheme, make_rng(0)
    )
    # With one iteration and a full deterministic batch, the update is a
    # plain proximal gradient step at half the learning rate, bit for bit.
    pg = one_stage_pg(problem, x0, eta * 0.5)
    assert np.array_equal(x_new, pg)
    assert np.array_equal(z_new, pg)


def test_inner_primal_is_weighted_average_of_duals():
    problem = small_problem(3)
    eta = 0.5 / problem.mean_smoothness
    x0 = np.zeros(problem.d)
    zs, xs = [], []
    one_stage_accsvrda(
        problem, x0, x0, eta, 12, 4, IidUniform(problem.n), make_rng(5),
        on_iterate=lambda k, info: (zs.append(info["z"]), xs.append(info["x"])),
    )
    for k in range(1, 13):
        weights = np.arange(1, k + 1, dtype=np.float64)
        avg = (weights[:, None] * np.asarray(zs[:k])).sum(axis=0)
        avg *= 2.0 / (k * (k + 1))
        assert np.max(np.abs(xs[k - 1] - avg)) <= 1e-12 * max(
            1.0, np.max(np.abs(avg))
        )


def test_inner_gradient_average_is_weighted_average_of_gradients():
    problem = small_problem(4)
    eta = 0.5 / problem.mean_smoothness
    x0 = np.zeros(problem.d)
    gs, gbars = [], []
    one_stage_accsvrda(
        problem, x0, x0, eta, 10, 4, IidUniform(problem.n), make_rng(6),
        on_iterate=lambda k, info: (gs.append(info["g"]), gbars.append(info["g_bar"])),
    )
    for k in range(1, 11):
        weights = np.arange(1, k + 1, dtype=np.float64)
        avg = (weights[:, None] * np.asarray(gs[:k])).sum(axis=0)
        avg *= 2.0 / (k * (k + 1))
        assert np.max(np.abs(gbars[k - 1] - avg)) <= 1e-12 * max(
            1.0, np.max(np.abs(avg))
        )


def test_dual_averaging_and_gradient_siblings_coincide_only_at_one_step():
    problem = small_problem(5)
    eta = 0.4 / problem.mean_smoothness
    x0 = np.random.default_rng(7).standard_normal(problem.d)
    scheme = IidUniform(problem.n)
    a1 = one_stage_accsvrda(problem, x0, x0, eta, 1, 3, scheme, make_rng(11))
    d1 = one_stage_dasvrg(problem, x0, x0, eta, 1, 3, scheme, make_rng(11))
    assert np.array_equal(a1[0], d1[0]) and np.array_equal(a1[1], d1[1])
    a2 = one_stage_accsvrda(problem, x0, x0, eta, 2, 3, scheme, make_rng(11))
    d2 = one_stage_dasvrg(problem, x0, x0, eta, 2, 3, scheme, make_rng(11))
    assert np.max(np.abs(a2[0] - d2[0])) > 1e-12


def test_inner_stage_rejects_zero_iterations():
    problem = small_problem(6)
    with pytest.raises(ValueError):
        one_stage_accsvrda(
            problem, np.zeros(problem.d), np.zeros(problem.d),
            0.1, 0, 2, IidUniform(problem.n), make_rng(0),
        )


# ---------------------------------------------------------------------------
# Outer loop.


def test_first_lookahead_collapses_for_gamma_three():
    rng = np.random.default_rng(8)
    x_prev = rng.standard_normal(5)
    z0 = rng.standard_normal(5)
    state = OuterState(x_prev=x_prev, x_prev2=z0.copy(), z_prev=z0)
    y = outer_momentum(state, 3.0, 1)
    # At gamma = 3 the coefficient on the latest output vanishes, so the
    # first lookahead sits exactly on the starting dual point.
    assert np.max(np.abs(y - z0)) <= 1e-14 * max(1.0, np.max(np.abs(z0)))


def test_outer_momentum_matches_direct_formula():
    rng = np.random.default_rng(9)
    state = OuterState(
        x_prev=rng.standard_normal(4),
        x_prev2=rng.standard_normal(4),
        z_prev=rng.standard_normal(4),
    )
    gamma, s = 4.0, 5
    th_prev = (1 - 1 / gamma) * (s + 1) / 2
    th = (1 - 1 / gamma) * (s + 2) / 2
    expect = (
        state.x_prev
        + (th_prev - 1) / th * (state.x_prev - state.x_prev2)
        + th_prev / th * (state.z_prev - state.x_prev)
    )
    assert np.array_equal(outer_momentum(state, gamma, s), expect)


def test_gamma_validation_on_runners():
    problem = small_problem(10)
    x0 = np.zeros(problem.d)
    scheme = IidUniform(problem.n)
    with pytest.raises(ValueError):
        run_dasvrda_ns(problem, x0, x0, 1.0, 2, 2, 1, scheme, make_rng(0))
    with pytest.warns(RuntimeWarning):
        run_dasvrda_ns(problem, x0, x0, 2.5, 2, 2, 1, scheme, make_rng(0))


def test_ns_converges_on_lasso():
    problem = small_problem(11, n=100, d=30, l1=1e-2, l2=0.0)
    scheme = IidUniform(problem.n)
    x = run_dasvrda_ns(
        problem, np.zeros(problem.d), np.zeros(problem.d),
        gamma_star(20, 5), 20, 5, 40, scheme, make_rng(13),
    )
    p0 = objective(problem, np.zeros(problem.d))
    assert objective(problem, x) < 0.02 * p0


def test_ns_budget_counts_stages():
    problem = small_problem(12)
    scheme = IidUniform(problem.n)
    cost = problem.n + 6 * 2
    stages = []
    run_dasvrda_ns(
        problem, np.zeros(problem.d), np.zeros(problem.d), 3.0, 6, 2, 50,
        scheme, make_rng(1), budget=3 * cost + cost - 1,
        on_stage=lambda s, x, e, r: stages.append((s, e)),
    )
    assert [s for s, _ in stages] == [1, 2, 3]
    assert all(e == cost for _, e in stages)


def test_fixed_restart_single_run_equals_plain_outer_loop():
    problem = small_problem(13)
    scheme = IidUniform(problem.n)
    x0 = np.random.default_rng(3).standard_normal(problem.d)
    a = run_dasvrda_sc(problem, x0, 4.0, 5, 3, 8, 1, scheme, make_rng(21))
    b = run_dasvrda_ns(problem, x0, x0, 4.0, 5, 3, 8, scheme, make_rng(21))
    assert np.array_equal(a, b)


def test_fixed_restart_flags_and_global_stage_numbers():
    problem = small_problem(14)
    scheme = IidUniform(problem.n)
    seen = []
    run_dasvrda_sc(
        problem, np.zeros(problem.d), 4.0, 4, 2, 3, 4, scheme, make_rng(2),
        on_stage=lambda s, x, e, r: seen.append((s, r)),
    )
    assert [s for s, _ in seen] == list(range(1, 13))
    flagged = [s for s, r in seen if r]
    assert flagged == [4, 7, 10]


def test_fixed_restart_validation():
    problem = small_problem(15)
    with pytest.raises(ValueError):
        run_dasvrda_sc(
            problem, np.zeros(problem.d), 4.0, 4, 2, 3, 0,
            IidUniform(problem.n), make_rng(0),
        )


def test_restart_contraction_factor_closed_form():
    gamma, eta, m, mu, S = 4.0, 1e-2, 30, 0.05, 12
    base = (1 - 1 / gamma) ** 2
    expect = 4 * (base + 4 / (eta * (m + 1) * m * mu)) / (base * (S + 2) ** 2)
    assert restart_rho(gamma, eta, m, mu, S) == pytest.approx(expect, rel=1e-15)
    with pytest.raises(ValueError):
        restart_rho(gamma, eta, m, 0.0, S)


def test_choose_restart_length_is_minimal():
    for gamma, eta, m, mu, rho in [
        (4.0, 1e-2, 30, 0.05, 0.5),
        (3.0, 1e-3, 100, 0.01, 0.25),
        (3.5, 1e-1, 10, 1.0, 0.9),
    ]:
        s = choose_S_for_rho(gamma, eta, m, mu, rho)
        assert restart_rho(gamma, eta, m, mu, s) <= rho
        if s > 1:
            assert restart_rho(gamma, eta, m, mu, s - 1) > rho
        brute = next(
            k for k in range(1, s + 10) if restart_rho(gamma, eta, m, mu, k) <= rho
        )
        assert s == brute
    with pytest.raises(ValueError):
        choose_S_for_rho(4.0, 1e-2, 30, -1.0, 0.5)
    with pytest.raises(ValueError):
        choose_S_for_rho(4.0, 1e-2, 30, 0.05, 1.5)


# ---------------------------------------------------------------------------
# Adaptive restarting.


def test_function_restart_fires_when_the_objective_rises():
    # Stage s restarts exactly when P(x_s) > P(x_{s-1}), with x_0 the start.
    problem = small_problem(16, n=120, d=20, l1=1e-4, l2=1e-2)
    x0 = np.zeros(problem.d)
    outputs, fired = [x0], []

    def on_stage(s, x, cost, restarted):
        outputs.append(x.copy())
        fired.append(restarted)

    run_dasvrda_adaptive(problem, x0, 3.0, 30, 4, 60, IidUniform(problem.n),
                         make_rng(17), kind="function", on_stage=on_stage)
    p = [objective(problem, x) for x in outputs]
    assert fired == [p[s] > p[s - 1] for s in range(1, len(p))]
    assert any(fired) and not all(fired)


def test_gradient_restart_fires_when_momentum_opposes_progress():
    # Stage s restarts exactly when (y_s - x_s) @ (y_next - x_s) > 0, where
    # y_next is the lookahead the unrestarted history would take next.
    problem = small_problem(16, n=120, d=20, l1=1e-4, l2=1e-2)
    gamma = 3.0
    stages, fired = [], []

    def one_stage(problem, y, x_anchor, *args):
        x, z = one_stage_accsvrda(problem, y, x_anchor, *args)
        stages.append((y, x_anchor, x, z))
        return x, z

    run_dasvrda_adaptive(problem, np.zeros(problem.d), gamma, 30, 4, 60,
                         IidUniform(problem.n), make_rng(17), kind="gradient",
                         one_stage=one_stage,
                         on_stage=lambda s, x, e, r: fired.append(r))
    assert len(fired) == len(stages) == 60
    local = 1
    for s, (y, x_prev, x, z) in enumerate(stages):
        trial = OuterState(x_prev=x, x_prev2=x_prev, z_prev=z)
        y_next = outer_momentum(trial, gamma, local + 1)
        assert fired[s] == (float((y - x) @ (y_next - x)) > 0.0), s
        if s + 1 < len(stages):
            # The next stage starts from y_next, or from x after a restart.
            assert np.array_equal(stages[s + 1][0], x if fired[s] else y_next)
        local = 1 if fired[s] else local + 1
    assert any(fired) and not all(fired)


@pytest.mark.parametrize("kind", ["function", "gradient"])
def test_adaptive_runner_restarts_and_converges(kind):
    problem = small_problem(16, n=120, d=20, l1=1e-4, l2=1e-2)
    scheme = IidUniform(problem.n)
    fired = []
    x = run_dasvrda_adaptive(
        problem, np.zeros(problem.d), 3.0, 30, 4, 60, scheme, make_rng(17),
        kind=kind, on_stage=lambda s, xs, e, r: fired.append(r),
    )
    assert len(fired) == 60
    assert any(fired)
    from dasvrda import compute_reference

    ref = compute_reference(problem, 1e-13)
    p0 = objective(problem, np.zeros(problem.d))
    gap = objective(problem, x) - ref.objective
    assert gap < 1e-6 * (p0 - ref.objective)


def test_adaptive_function_check_charges_extra_pass():
    problem = small_problem(17)
    scheme = IidUniform(problem.n)
    costs = {}
    for kind in ("function", "gradient"):
        seen = []
        run_dasvrda_adaptive(
            problem, np.zeros(problem.d), 3.0, 5, 2, 3, scheme, make_rng(4),
            kind=kind, on_stage=lambda s, xs, e, r: seen.append(e),
        )
        costs[kind] = seen[0]
    assert costs["function"] == costs["gradient"] + problem.n


def test_adaptive_rejects_unknown_kind():
    problem = small_problem(18)
    with pytest.raises(ValueError):
        run_dasvrda_adaptive(
            problem, np.zeros(problem.d), 3.0, 5, 2, 3,
            IidUniform(problem.n), make_rng(0), kind="momentum",
        )


# ---------------------------------------------------------------------------
# Warm start.


def test_warm_schedule_growth():
    assert warm_start_schedule(4.0, 2, 1) == [5]
    assert warm_start_schedule(4.0, 2, 3) == [5, 11, 23]
    assert warm_start_schedule(9.0, 1, 4) == [5, 17, 53, 161]
    assert warm_start_schedule(4.0, 3, 0) == []
    with pytest.raises(ValueError):
        warm_start_schedule(4.0, 0, 2)
    with pytest.raises(ValueError):
        warm_start_schedule(4.0, 2, -1)


def test_warm_final_loop_length():
    assert warm_final_loop_length(4.0, 5) == math.ceil(math.sqrt(30.0) / 0.75)
    assert warm_final_loop_length(3.0, 1) == math.ceil(math.sqrt(2.0) * 1.5)


def test_default_warm_start_fallback_and_estimates():
    problem = small_problem(19)
    m0, n_warm = default_warm_start(problem, 4.0, 16, 2)
    assert m0 == 1
    assert n_warm == math.ceil(math.log(16.0) / math.log(2.0))

    # A huge distance-to-gap ratio pushes the balanced start above m, where
    # it is clipped and no warm-up stages remain.
    m0, n_warm = default_warm_start(
        problem, 4.0, 16, 2, gap_estimate=1e-8, dist_sq_estimate=1e6
    )
    assert m0 == 16 and n_warm == 0

    with pytest.raises(ValueError):
        default_warm_start(problem, 4.0, 16, 2, gap_estimate=0.0,
                           dist_sq_estimate=1.0)


def test_warm_runner_without_warm_stages_matches_plain_outer_loop():
    problem = small_problem(20)
    scheme = IidUniform(problem.n)
    x0 = np.random.default_rng(23).standard_normal(problem.d)
    m_final = warm_final_loop_length(4.0, 3)
    a = run_dasvrda_warm(problem, x0, 4.0, 3, 2, 0, 6, scheme, make_rng(31))
    b = run_dasvrda_ns(
        problem, x0, x0, 4.0, m_final, 2, 6, scheme, make_rng(31)
    )
    assert np.array_equal(a, b)


def test_warm_runner_stage_costs_follow_schedule():
    problem = small_problem(21, n=60)
    scheme = IidUniform(problem.n)
    seen = []
    run_dasvrda_warm(
        problem, np.zeros(problem.d), 4.0, 2, 3, 3, 2, scheme, make_rng(33),
        on_stage=lambda s, x, e, r: seen.append((s, e)),
    )
    lengths = warm_start_schedule(4.0, 2, 3)
    m_final = warm_final_loop_length(4.0, lengths[-1])
    expect = [problem.n + 3 * mu for mu in lengths]
    expect += [problem.n + 3 * m_final] * 2
    assert [s for s, _ in seen] == [1, 2, 3, 4, 5]
    assert [e for _, e in seen] == expect


def test_warm_runner_converges():
    problem = small_problem(22, n=100, d=25, l1=1e-3, l2=1e-3)
    scheme = IidUniform(problem.n)
    x = run_dasvrda_warm(
        problem, np.zeros(problem.d), 4.0, 1, 5, 4, 30, scheme, make_rng(35)
    )
    p0 = objective(problem, np.zeros(problem.d))
    assert objective(problem, x) < 0.02 * p0
