import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from dasvrda import (
    ElasticNet,
    Logistic,
    SmoothedHinge,
    Squared,
    full_gradient,
    make_dataset,
    make_problem,
    objective,
    prox_elastic_net,
)
from dasvrda.problem import (
    BLAS_ABOVE_ENTRIES,
    SMOOTHNESS_FLOOR,
    full_pass,
    margins,
    row_norms_sq,
    take_rows,
)
import loss_oracles


def random_problem(rng, loss, n=40, d=9, l1=1e-3, l2=1e-4, density=0.6):
    mask = rng.random((n, d)) < density
    mat = np.where(mask, rng.standard_normal((n, d)), 0.0)
    if isinstance(loss, Squared):
        labels = rng.standard_normal(n)
    else:
        labels = rng.choice([-1.0, 1.0], size=n)
    data = make_dataset(sp.csr_matrix(mat), labels)
    return make_problem(data, loss, ElasticNet(l1, l2)), mat, labels


def objective_oracle(mat, labels, loss, reg, x):
    """Compensated-summation reimplementation of the composite objective."""
    terms = [loss_oracles.value(loss, float(row @ x), float(lab))
             for row, lab in zip(mat, labels)]
    smooth = math.fsum(terms) / len(terms)
    r = reg.l1 * math.fsum(abs(v) for v in x) + 0.5 * reg.l2 * math.fsum(v * v for v in x)
    return smooth + r


def gradient_oracle(mat, labels, loss, x):
    """Plain per-example loop for the averaged-loss gradient."""
    n, d = mat.shape
    out = np.zeros(d)
    for i in range(n):
        t = float(mat[i] @ x)
        out += loss_oracles.derivative(loss, t, float(labels[i])) * mat[i]
    return out / n


def prox_oracle_1d(z, scale, l1, l2, iters=200):
    """Ternary search of 0.5 (u - z)^2 + scale (l1 |u| + l2/2 u^2)."""

    def f(u):
        return 0.5 * (u - z) ** 2 + scale * (l1 * abs(u) + 0.5 * l2 * u * u)

    lo, hi = -abs(z) - 1.0, abs(z) + 1.0
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    return (lo + hi) / 2


@pytest.mark.parametrize("loss", [Squared(), Logistic(), SmoothedHinge(0.7)])
def test_objective_matches_compensated_sum(loss):
    rng = np.random.default_rng(10)
    problem, mat, labels = random_problem(rng, loss)
    for _ in range(20):
        x = rng.standard_normal(problem.d)
        expect = objective_oracle(mat, labels, loss, problem.reg, x)
        got = objective(problem, x)
        assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


@pytest.mark.parametrize("loss", [Squared(), Logistic(), SmoothedHinge(0.7)])
def test_full_gradient_matches_loop(loss):
    rng = np.random.default_rng(11)
    problem, mat, labels = random_problem(rng, loss)
    for _ in range(20):
        x = rng.standard_normal(problem.d)
        expect = gradient_oracle(mat, labels, loss, x)
        got = full_gradient(problem, x)
        assert np.max(np.abs(got - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))


def test_gradient_matches_objective_finite_differences():
    rng = np.random.default_rng(12)
    problem, _, _ = random_problem(rng, Logistic(), l1=0.0, l2=0.0)
    x = rng.standard_normal(problem.d)
    g = full_gradient(problem, x)
    h = 1e-6
    for j in range(problem.d):
        e = np.zeros(problem.d)
        e[j] = h
        fd = (objective(problem, x + e) - objective(problem, x - e)) / (2 * h)
        assert abs(fd - g[j]) <= 1e-6 * max(1.0, abs(g[j]))


def test_prox_matches_ternary_search():
    rng = np.random.default_rng(13)
    for _ in range(300):
        z = float(rng.uniform(-3, 3))
        scale = float(rng.uniform(0, 2))
        l1 = float(rng.uniform(0, 1))
        l2 = float(rng.uniform(0, 1))
        got = prox_elastic_net(np.array([z]), scale, ElasticNet(l1, l2))[0]
        expect = prox_oracle_1d(z, scale, l1, l2)
        # Ternary search localizes a quadratic minimum only to about
        # sqrt(machine epsilon), since objective differences are O(delta^2).
        assert abs(got - expect) <= 1e-7


def test_prox_special_cases():
    z = np.array([-2.0, -0.5, 0.0, 0.4, 3.0])
    # l2 = 0: plain soft threshold
    got = prox_elastic_net(z, 0.5, ElasticNet(l1=1.0, l2=0.0))
    expect = np.sign(z) * np.maximum(np.abs(z) - 0.5, 0.0)
    assert np.array_equal(got, expect)
    # l1 = 0: pure shrinkage
    got = prox_elastic_net(z, 0.5, ElasticNet(l1=0.0, l2=2.0))
    assert np.array_equal(got, z / 2.0)
    # scale 0: identity
    assert np.array_equal(prox_elastic_net(z, 0.0, ElasticNet(1.0, 1.0)), z)
    with pytest.raises(ValueError):
        prox_elastic_net(z, -1.0, ElasticNet(1.0, 1.0))


def test_prox_firmly_nonexpansive():
    rng = np.random.default_rng(14)
    reg = ElasticNet(l1=0.3, l2=0.7)
    for _ in range(200):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        scale = float(rng.uniform(0, 3))
        pa = prox_elastic_net(a, scale, reg)
        pb = prox_elastic_net(b, scale, reg)
        lhs = float((pa - pb) @ (pa - pb))
        rhs = float((a - b) @ (pa - pb))
        assert lhs <= rhs + 1e-12


def test_classification_labels_validated():
    mat = sp.csr_matrix(np.eye(3))
    data = make_dataset(mat, np.array([1.0, 0.5, -1.0]))
    with pytest.raises(ValueError, match="labels"):
        make_problem(data, Logistic(), ElasticNet())
    # squared loss takes arbitrary labels
    make_problem(data, Squared(), ElasticNet())


def test_zero_row_smoothness_floor():
    mat = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 2.0]]))
    data = make_dataset(mat, np.array([1.0, -1.0]))
    problem = make_problem(data, Logistic(), ElasticNet())
    assert problem.smoothness[0] == SMOOTHNESS_FLOOR
    assert problem.smoothness[1] == pytest.approx(5.0 / 4.0)
    assert problem.max_smoothness == pytest.approx(1.25)


def test_dimension_mismatch_rejected():
    mat = sp.csr_matrix(np.eye(3))
    data = make_dataset(mat, np.array([1.0, -1.0, 1.0]))
    problem = make_problem(data, Squared(), ElasticNet())
    with pytest.raises(ValueError, match="shape"):
        objective(problem, np.zeros(4))
    with pytest.raises(ValueError, match="shape"):
        full_gradient(problem, np.zeros(2))
    with pytest.raises(ValueError):
        make_dataset(mat, np.array([1.0, -1.0]))


def test_row_norms_match_scipy_row_sums_bitwise():
    rng = np.random.default_rng(12)
    n, d = 30, 200
    dense = np.where(rng.random((n, d)) < 0.3, rng.standard_normal((n, d)), 0.0)
    dense[[0, 7, 8, n - 2, n - 1]] = 0.0   # leading, inner and trailing empty rows
    for mat in (sp.csr_matrix(dense), sp.csr_matrix((n, d)),
                sp.csr_matrix(rng.standard_normal((n, d)))):
        expect = np.asarray(mat.multiply(mat).sum(axis=1)).ravel()
        got = row_norms_sq(mat)
        assert got.tobytes() == expect.tobytes()


def counted_problem(form, n=200, d=50, seed=13):
    """Dense least squares above the BLAS limit whose full products take
    ``form``: every entry stored (``"dense"``) or one missing (``"csr"``)."""
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, d))
    if form == "csr":
        mat[n // 2, d // 3] = 0.0
    data = make_dataset(mat, rng.standard_normal(n))
    assert data.features.nnz > BLAS_ABOVE_ENTRIES
    assert take_rows(data.features).form == form
    return make_problem(data, Squared(), ElasticNet(1e-3, 1e-4)), rng


ABOVE_LIMIT = ("dense", "csr")


def test_margins_match_the_product_bitwise():
    rng = np.random.default_rng(14)
    # Below the BLAS limit, and above it with every entry stored or not.
    problems = [random_problem(rng, Squared(), n=40, d=9, density=0.6)[0]]
    problems += [counted_problem(form)[0] for form in ABOVE_LIMIT]
    for prob, form in zip(problems, ("csr",) + ABOVE_LIMIT):
        rows = take_rows(prob.data.features)
        assert rows.form == form
        x = rng.standard_normal(prob.d)
        expect = rows.dot(x)
        if form != "dense":
            assert expect.tobytes() == (prob.data.features @ x).tobytes()
        assert margins(prob, x).tobytes() == expect.tobytes()
        assert margins(prob, x.copy()).tobytes() == expect.tobytes()   # memo hit


def test_objective_then_full_pass_sweep_once(full_products):
    for form in ABOVE_LIMIT:
        prob, rng = counted_problem(form)
        x = rng.standard_normal(prob.d)
        p = objective(prob, x)
        derivs, grad = full_pass(prob, x.copy())
        assert objective(prob, x) == p
        assert full_products == [form]
        fresh, _ = counted_problem(form)
        derivs_fresh, grad_fresh = full_pass(fresh, x)
        assert derivs.tobytes() == derivs_fresh.tobytes()
        assert grad.tobytes() == grad_fresh.tobytes()
        full_pass(prob, -x)
        assert full_products == [form] * 3   # one of them for ``fresh``
        full_products.clear()


def test_margins_recomputed_after_in_place_mutation(full_products):
    for form in ABOVE_LIMIT:
        prob, rng = counted_problem(form)
        x = rng.standard_normal(prob.d)
        objective(prob, x)
        x[3] += 1.0
        fresh, _ = counted_problem(form)
        assert objective(prob, x) == objective(fresh, x.copy())
        assert full_products == [form] * 3   # two of them for ``prob``
        rows = take_rows(prob.data.features)
        assert margins(prob, x).tobytes() == rows.dot(x).tobytes()
        full_products.clear()


def _shift_first_boundary(indptr):
    indptr[1] += 1   # row 0 takes row 1's first entry
    return indptr


#: A change of each array of the design matrix, made to a copy.
REASSIGNED = {
    "indptr": _shift_first_boundary,
    "indices": lambda indices: (indices + 1) % 9,   # random_problem's d
    "data": lambda data: 2.0 * data,
}


@pytest.mark.parametrize("name", REASSIGNED)
def test_margins_recomputed_after_an_array_is_reassigned(name):
    # The same change, after a sweep and in a twin that never swept: the
    # memo misses, and the objective is the twin's.
    prob = random_problem(np.random.default_rng(15), Squared())[0]
    twin = random_problem(np.random.default_rng(15), Squared())[0]
    x = np.random.default_rng(16).standard_normal(prob.d)
    before = objective(prob, x)
    for on in (prob, twin):
        feats = on.data.features
        assert feats.indptr[2] > feats.indptr[1]
        setattr(feats, name, REASSIGNED[name](getattr(feats, name).copy()))
    assert objective(prob, x) == objective(twin, x) != before


def test_problems_on_the_same_data_keep_their_own_margins(full_products):
    for form in ABOVE_LIMIT:
        prob, rng = counted_problem(form)
        other = make_problem(prob.data, Squared(), ElasticNet(0.5, 0.0))
        copy = dataclasses.replace(prob)
        x = rng.standard_normal(prob.d)
        objective(prob, x)
        objective(other, x)
        objective(copy, x)
        assert full_products == [form] * 3
        assert margins(prob, x) is not margins(other, x)
        full_products.clear()


#: Run by a child with scipy's private ``_sparsetools`` module hidden, as
#: a scipy that moved it would have it: ``dasvrda`` must import and give
#: the digest of :func:`numpy_paths_digest` through scipy's public gather
#: and products.
HIDDEN_SPARSETOOLS = """\
import sys
import scipy.sparse   # loads the module for scipy's own use first
sys.modules["scipy.sparse._sparsetools"] = None
sys.path[:0] = sys.argv[1:]
from dasvrda import problem
assert problem.csr_matvec is problem.csc_matvec is problem.csr_row_index is None
import test_problem
print(test_problem.numpy_paths_digest())
"""


def numpy_paths_digest():
    """SHA-256 of two sparse runs on the numpy paths, one per engine, which
    gather rows and take both products of :class:`Rows` at every step."""
    import hashlib

    from dasvrda import RunConfig, SyntheticSpec, run_experiment, stage_loop

    spec = SyntheticSpec(kind="ridge-logistic", n=120, d=40, density=0.2, seed=3)
    digest = hashlib.sha256()
    old, stage_loop.COMPILED = stage_loop.COMPILED, False
    try:
        for lazy in ("on", "off"):
            result = run_experiment(RunConfig(
                algo="dasvrda-sc", loss="logistic", l1=1e-3, l2=1e-3, synthetic=spec,
                batch=4, lazy=lazy, stages=3, restarts=2))
            digest.update(result.x.tobytes())
            digest.update(np.array([r.objective for r in result.records]).tobytes())
    finally:
        stage_loop.COMPILED = old
    return digest.hexdigest()


def test_a_scipy_without_its_private_loops_gives_the_same_bits():
    import os
    import subprocess
    import sys

    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    child = subprocess.run([sys.executable, "-c", HIDDEN_SPARSETOOLS, tests, src],
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-4000:]
    assert child.stdout.split() == [numpy_paths_digest()]
