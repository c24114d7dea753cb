import hashlib
import json

import numpy as np
import pytest
import scipy.sparse as sp

from dasvrda import (
    ElasticNet,
    Logistic,
    Squared,
    SyntheticSpec,
    compute_reference,
    full_gradient,
    generate_synthetic,
    make_dataset,
    make_problem,
    objective,
    read_reference,
    save_reference,
)
from dasvrda import reference
from dasvrda.reference import problem_fingerprint


def lasso_problem(l1=0.05, l2=0.0, seed=0, n=60, d=20):
    data, _ = generate_synthetic(
        SyntheticSpec(kind="lasso", n=n, d=d, sparsity=5, seed=seed)
    )
    return make_problem(data, Squared(), ElasticNet(l1, l2))


def test_reference_satisfies_first_order_optimality():
    problem = lasso_problem()
    ref = compute_reference(problem, 1e-13)
    assert ref.converged
    # At the minimizer, x = prox_eta(x - eta grad F(x)) for any eta > 0; the
    # fixed-point residual is a computable optimality certificate.
    from dasvrda.problem import prox_elastic_net

    eta = 1.0 / problem.mean_smoothness
    step = prox_elastic_net(
        ref.x - eta * full_gradient(problem, ref.x), eta, problem.reg
    )
    assert np.max(np.abs(step - ref.x)) <= 1e-7
    assert objective(problem, ref.x) == pytest.approx(ref.objective, rel=1e-15)


def test_reference_certifies_zero_solution():
    problem = lasso_problem(l1=2.0)
    g0 = np.abs(full_gradient(problem, np.zeros(problem.d))).max()
    assert g0 <= 2.0  # premise: l1 dominates the gradient at the origin
    ref = compute_reference(problem, 1e-12)
    assert ref.converged
    assert np.array_equal(ref.x, np.zeros(problem.d))
    assert ref.objective == objective(problem, np.zeros(problem.d))


def test_reference_budget_exhaustion_flagged():
    problem = lasso_problem(l1=1e-4)
    ref = compute_reference(problem, 1e-14, max_stages=99)
    assert not ref.converged
    assert np.isfinite(ref.objective)


def logistic_problem():
    data, _ = generate_synthetic(SyntheticSpec(kind="ridge-logistic", n=80, d=40,
                                               density=0.1, seed=1))
    return make_problem(data, Logistic(), ElasticNet(1e-3, 1e-3))


# Each problem's products take the csr form (at most 6000 stored entries,
# or not every entry stored), so the pinned bits do not follow the BLAS
# build.  The first two stop on the stall rule, the third on max_stages.
@pytest.mark.parametrize("make, tolerance, max_stages, pinned", [
    (lambda: lasso_problem(l1=0.05), 1e-13, 400_000,
     ("0x1.2043381527be2p-2", True, "ec92bb58ac5b6428")),
    (logistic_problem, 1e-13, 400_000,
     ("0x1.26fb3c8d52318p-2", True, "7869846f58bcade8")),
    (lambda: lasso_problem(l1=1e-4), 1e-14, 99,
     ("0x1.2e33e56999676p-8", False, "1752d18feb51e180")),
])
def test_reference_bits_are_pinned(monkeypatch, make, tolerance, max_stages,
                                   pinned):
    """Objective, flag and point of restarted APG's reference, pinned to the
    bits of its own loop before it became ``run_apg``; each run restarts."""
    flags = []
    run_apg = reference.run_apg

    def counted(*args, on_stage, **kwargs):
        def hook(stage, x, evals, restarted):
            flags.append(restarted)
            on_stage(stage, x, evals, restarted)
        return run_apg(*args, on_stage=hook, **kwargs)

    monkeypatch.setattr(reference, "run_apg", counted)
    ref = compute_reference(make(), tolerance, max_stages=max_stages)
    digest = hashlib.sha256(np.ascontiguousarray(ref.x).tobytes()).hexdigest()
    assert (ref.objective.hex(), ref.converged, digest[:16]) == pinned
    assert any(flags)
    assert (len(flags) == max_stages) == (not ref.converged)


def test_reference_beats_everything_nearby():
    problem = lasso_problem(l1=0.02, l2=0.01)
    ref = compute_reference(problem, 1e-13)
    rng = np.random.default_rng(0)
    for scale in (1e-5, 1e-3):
        for _ in range(20):
            other = ref.x + scale * rng.standard_normal(problem.d)
            assert objective(problem, other) >= ref.objective - 1e-14


def test_reference_cache_round_trip(tmp_path):
    problem = lasso_problem(l1=0.03)
    path = str(tmp_path / "ref.json")
    ref = compute_reference(problem, 1e-12, cache_path=path)
    assert read_reference(path, problem).objective == ref.objective
    cached = compute_reference(problem, 1e-10, cache_path=path)
    assert np.array_equal(cached.x, ref.x)
    assert cached.tolerance == 1e-12  # the cached, tighter run is reused

    # A different problem must not reuse the file.
    other = lasso_problem(l1=0.04)
    fresh = compute_reference(other, 1e-12, cache_path=str(tmp_path / "o.json"))
    assert problem_fingerprint(other) != problem_fingerprint(problem)
    assert fresh.objective != ref.objective


def test_fingerprint_sensitivity():
    data, _ = generate_synthetic(
        SyntheticSpec(kind="lasso", n=10, d=5, sparsity=3, seed=0)
    )
    base = make_problem(data, Squared(), ElasticNet(0.1, 0.0))
    same = make_problem(data, Squared(), ElasticNet(0.1, 0.0))
    assert problem_fingerprint(base) == problem_fingerprint(same)
    reg = make_problem(data, Squared(), ElasticNet(0.1, 1e-9))
    assert problem_fingerprint(base) != problem_fingerprint(reg)
    bumped = data.features.toarray()
    bumped[0, 0] += 1e-12
    other = make_problem(
        make_dataset(sp.csr_matrix(bumped), data.labels), Squared(),
        ElasticNet(0.1, 0.0),
    )
    assert problem_fingerprint(base) != problem_fingerprint(other)


def test_load_reference_rejects_garbage(tmp_path):
    problem = lasso_problem()
    missing = tmp_path / "missing.json"
    with pytest.raises(ValueError, match="missing.json"):
        read_reference(str(missing), problem)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="bad.json"):
        read_reference(str(bad), problem)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(["list"]))
    with pytest.raises(ValueError, match="wrong.json"):
        read_reference(str(wrong), problem)


def test_save_reference_is_atomic_and_readable(tmp_path):
    problem = lasso_problem(l1=0.05)
    ref = compute_reference(problem, 1e-10)
    path = tmp_path / "out.json"
    save_reference(ref, problem, str(path))
    assert path.exists()
    assert not (tmp_path / "out.json.tmp").exists()
    stored = read_reference(str(path), problem)
    assert stored.converged is True
    assert np.allclose(stored.x, ref.x)


def _reference_file(path, problem, **changes):
    """A reference file for ``problem`` with keys replaced (a value of
    ``...`` drops the key)."""
    payload = {"fingerprint": problem_fingerprint(problem), "tolerance": 1e-12,
               "objective": 0.25, "converged": True, "x": [0.0] * problem.d}
    payload.update(changes)
    path.write_text(json.dumps({k: v for k, v in payload.items() if v is not ...}))
    return str(path)


@pytest.mark.parametrize("changes,fragment", [
    (dict(fingerprint="0" * 64), "computed for a different problem"),
    (dict(fingerprint=...), "computed for a different problem"),
    *((change, "needs a finite objective, true or false converged, a finite "
       "positive tolerance, and an empty x or one of d=20 numbers")
      for change in (dict(objective=...), dict(tolerance=..., x=...),
                     dict(objective=None), dict(objective=[0.25]),
                     dict(objective=float("nan")), dict(objective=True),
                     dict(objective=10**400), dict(converged=1),
                     dict(tolerance=0), dict(tolerance="1e-12"),
                     dict(x=[[0.0]]), dict(x=[0.0, 1.0]), dict(x=[0.0] * 19 + [None]),
                     dict(x="abc"))),
])
def test_read_reference_rejects_a_malformed_file(tmp_path, changes, fragment):
    problem = lasso_problem()
    path = _reference_file(tmp_path / "ref.json", problem, **changes)
    with pytest.raises(ValueError, match=fragment) as info:
        read_reference(path, problem)
    assert path in str(info.value)


def test_read_reference_takes_a_file_without_a_point(tmp_path):
    # The form of a file that only carries the objective, ``"x": []``.
    problem = lasso_problem()
    ref = read_reference(_reference_file(tmp_path / "r.json", problem, x=[],
                                         tolerance=1), problem)
    assert (ref.objective, ref.converged, ref.tolerance) == (0.25, True, 1.0)
    assert ref.x.shape == (0,)


@pytest.mark.parametrize("changes", [dict(x=[]), dict(tolerance=...),
                                     dict(converged=False), dict(tolerance=1e-9)])
def test_reference_cache_is_recomputed_unless_it_holds_the_answer(tmp_path,
                                                                 changes):
    problem = lasso_problem()
    path = _reference_file(tmp_path / "ref.json", problem, **changes)
    ref = compute_reference(problem, 1e-12, cache_path=path)
    assert ref.x.shape == (problem.d,) and ref.objective != 0.25
    assert read_reference(path, problem).objective == ref.objective
    # A file that holds the answer is taken as it stands.
    _reference_file(tmp_path / "ref.json", problem)
    assert compute_reference(problem, 1e-12, cache_path=path).objective == 0.25


@pytest.mark.parametrize("max_stages", [0, -3])
def test_reference_needs_a_stage(max_stages):
    with pytest.raises(ValueError, match="max_stages must be at least 1"):
        compute_reference(lasso_problem(), 1e-12, max_stages=max_stages)
