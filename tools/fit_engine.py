"""Measure the machine constants of the dense and lazy inner stages.

Usage, from the root of a checkout (BLAS is pinned to one thread)::

    python tools/fit_engine.py engine [--save timings.json | --load timings.json]
    python tools/fit_engine.py kernel
    python tools/fit_engine.py block

``engine`` times one stage of both engines -- ``one_stage_accsvrda`` and
``lazy_one_stage_accsvrda``, minus one ``make_anchor`` each, best of 2,
``m = n/b`` -- on 36 logistic problems with n = 4000: d in {2000, 5000,
20000, 50000, 100000, 400000} x {5, 20} nonzeros per row x b in {16, 71},
plus (d, nonzeros per row) in {(500, 500), (500, 50), (2000, 200),
(20000, 200)} x b in {16, 71, 400}.  It fits the per-step cost model of
``harness.choose_engine`` to them by relative least squares (nonnegative
constants) and prints the fitted constants and, per point, the measured
lazy/dense ratio and the engine the model picks with the current and with
the fitted constants.  ``--save`` keeps the timings, ``--load``
refits saved ones without timing again.

``kernel`` times the two forms of ``problem.Rows`` on fully stored
matrices (d = 50) -- the csr form and BLAS on the dense view -- as
``vr_gradient`` uses them per batch (``take_rows`` gather included) and as
``full_pass`` uses them, over a range of entry counts, to place
``problem.BLAS_ABOVE_ENTRIES``.

``block`` times one lazy stage per step, as ``engine`` does, against the
block length ``lazy.BLOCK_STEPS`` on a few of the grid's problems, to place
that constant.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.optimize import nnls  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from dasvrda import harness, lazy, problem as problem_module  # noqa: E402
from dasvrda import (  # noqa: E402
    ElasticNet, IidUniform, Logistic, lazy_one_stage_accsvrda,
    make_anchor, make_dataset, make_problem, make_rng, one_stage_accsvrda,
    vr_gradient,
)
from dasvrda.problem import full_pass  # noqa: E402
from dasvrda.sampling import draw_batch  # noqa: E402

N = 4000
GRID = ([(d, r, b) for d in (2000, 5000, 20000, 50000, 100000, 400000)
         for r in (5, 20) for b in (16, 71)]
        + [(d, r, b) for d, r in ((500, 500), (500, 50), (2000, 200), (20000, 200))
           for b in (16, 71, 400)])


def logistic_problem(n: int, d: int, r: int, seed: int = 0):
    """``r`` distinct uniform columns per row, Gaussian values of unit
    expected row norm, labels from a logistic model."""
    rng = np.random.default_rng(seed)
    cols = np.stack([np.sort(rng.choice(d, r, replace=False)) for _ in range(n)])
    vals = rng.standard_normal((n, r)) / math.sqrt(r)
    margin = (vals * rng.standard_normal(d)[cols]).sum(axis=1)
    labels = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-margin)), 1.0, -1.0)
    mat = sp.csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, n * r + 1, r)),
                        shape=(n, d))
    return make_problem(make_dataset(mat, labels), Logistic(), ElasticNet(1e-4, 1e-5))


def best_of(fn, reps: int) -> float:
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def time_point(d: int, r: int, b: int) -> dict:
    problem = logistic_problem(N, d, r)
    m = N // b
    scheme = IidUniform(N)
    x0 = np.zeros(d)
    eta = 0.1 / problem.max_smoothness
    anchor_s = best_of(lambda: make_anchor(problem, x0), 3)
    dense_s = best_of(lambda: one_stage_accsvrda(problem, x0, x0, eta, m, b, scheme,
                                                 make_rng(0)), 2)
    lazy_s = best_of(lambda: lazy_one_stage_accsvrda(problem, x0, x0, eta, m, b,
                                                     scheme, make_rng(0)), 2)
    return {"d": d, "row_nnz": r, "b": b, "m": m,
            "dense_us": 1e6 * (dense_s - anchor_s) / m,
            "lazy_us": 1e6 * (lazy_s - anchor_s) / m}


def terms(point: dict) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The cost model's lazy and dense terms at a grid point."""
    return harness.engine_terms(point["d"], point["b"] * point["row_nnz"],
                                point["m"])


def fit(points: list[dict], which: str) -> tuple[float, ...]:
    """Nonnegative constants minimizing the relative squared error."""
    rows = np.array([terms(p)[0 if which == "lazy" else 1] for p in points])
    times = np.array([p[f"{which}_us"] for p in points])
    coef, _ = nnls(rows / times[:, None], np.ones(len(points)))
    return tuple(float(c) for c in coef)


def picks(points: list[dict], lazy_us: tuple, dense_us: tuple) -> list[bool]:
    """Per point, whether the cost model picks lazy with these constants."""
    return [harness.modelled_us(lazy_us, lazy_terms)
            < harness.modelled_us(dense_us, dense_terms)
            for lazy_terms, dense_terms in map(terms, points)]


def engine(args) -> int:
    if args.load:
        with open(args.load) as handle:
            points = json.load(handle)
    else:
        points = []
        for d, r, b in GRID:
            points.append(time_point(d, r, b))
            p = points[-1]
            print(f"d={d:6d} nnz/row={r:3d} b={b:3d}: dense {p['dense_us']:8.1f} us, "
                  f"lazy {p['lazy_us']:8.1f} us per step", flush=True)
        if args.save:
            with open(args.save, "w") as handle:
                json.dump(points, handle, indent=1)
    fitted = (fit(points, "lazy"), fit(points, "dense"))
    current = (harness.LAZY_US, harness.DENSE_US)
    before, after = picks(points, *current), picks(points, *fitted)
    right = {"current": 0, "fitted": 0}
    print("    d  nnz/row    b  lazy/dense  current  fitted")
    for p, old, new in zip(points, before, after):
        faster = p["lazy_us"] < p["dense_us"]
        right["current"] += old == faster
        right["fitted"] += new == faster
        ratio = p["lazy_us"] / p["dense_us"]
        print(f"{p['d']:6d} {p['row_nnz']:7d} {p['b']:4d} {ratio:10.2f}"
              f"  {'lazy ' if old else 'dense'}{'' if old == faster else '*':1s}"
              f"   {'lazy ' if new else 'dense'}{'' if new == faster else '*':1s}")
    print(f"faster engine picked (* marks a miss): current constants "
          f"{right['current']}/{len(points)}, fitted {right['fitted']}/{len(points)}")
    for name, new, now in zip(("LAZY_US", "DENSE_US"), fitted, current):
        print(f"{name} = ({', '.join(f'{c:.3g}' for c in new)})    # now {now}")
    return 0


def kernel(args) -> int:
    """The csr form against the dense form on fully stored matrices, per
    call, by entry count."""
    forms = {"csr": 10**12, "dense": -1}
    d = 50

    def timed(form: str, fn, reps: int) -> float:
        saved = problem_module.BLAS_ABOVE_ENTRIES
        problem_module.BLAS_ABOVE_ENTRIES = forms[form]
        try:
            return best_of(fn, reps)
        finally:
            problem_module.BLAS_ABOVE_ENTRIES = saved

    print("entries  minibatch step: csr  dense (us)   full pass: csr  dense (us)")
    for entries in (500, 1000, 2000, 3000, 4000, 6000, 8000, 16000, 32000,
                    10**5, 10**6):
        b = entries // d
        problem = logistic_problem(max(4 * b, 400), d, d, seed=1)
        scheme = IidUniform(problem.n)
        rng = np.random.default_rng(0)
        anchor = make_anchor(problem, 0.1 * rng.standard_normal(d))
        y = 0.1 * rng.standard_normal(d)
        m = 40
        idx = draw_batch(scheme, make_rng(0), b, m)

        def steps():
            for k in range(m):
                vr_gradient(problem, anchor, scheme, y, idx[k])

        reps = max(3, min(50, 10**6 // entries))
        step = {form: 1e6 * timed(form, steps, reps) / m for form in forms}
        small = logistic_problem(b, d, d, seed=2)
        x = 0.1 * rng.standard_normal(d)

        def passes():
            for _ in range(10):
                full_pass(small, x)

        full = {form: 1e6 * timed(form, passes, 4 * reps) / 10 for form in forms}
        print(f"{entries:7d}  {step['csr']:17.1f} {step['dense']:6.1f}"
              f"   {full['csr']:14.1f} {full['dense']:6.1f}", flush=True)
    return 0


def block(args) -> int:
    """Lazy step time against the block length."""
    lengths = (1, 2, 4, 6, 8, 12, 16, 24, 32)
    print("     d  nnz/row    b   lazy step (us) at block length "
          + " ".join(f"{n:5d}" for n in lengths))
    saved = lazy.BLOCK_STEPS
    try:
        for d, r, b in ((100000, 20, 16), (400000, 5, 71), (20000, 20, 16),
                        (5000, 5, 71)):
            problem = logistic_problem(N, d, r)
            m = N // b
            scheme = IidUniform(N)
            x0 = np.zeros(d)
            eta = 0.1 / problem.max_smoothness
            anchor_s = best_of(lambda: make_anchor(problem, x0), 3)
            times = []
            for n in lengths:
                lazy.BLOCK_STEPS = n
                stage_s = best_of(lambda: lazy_one_stage_accsvrda(
                    problem, x0, x0, eta, m, b, scheme, make_rng(0)), 3)
                times.append(1e6 * (stage_s - anchor_s) / m)
            print(f"{d:6d} {r:8d} {b:4d} {'':32s}"
                  + " ".join(f"{t:5.0f}" for t in times), flush=True)
    finally:
        lazy.BLOCK_STEPS = saved
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_engine = sub.add_parser("engine", help="time both engines and fit the cost model")
    p_engine.add_argument("--save")
    p_engine.add_argument("--load")
    sub.add_parser("kernel", help="time the two forms of the minibatch products "
                   "on fully stored matrices")
    sub.add_parser("block", help="time the lazy step against its block length")
    args = parser.parse_args(argv)
    return {"engine": engine, "kernel": kernel, "block": block}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
