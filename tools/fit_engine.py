"""Time the dense and lazy inner stages, and check the rule that picks one.

Usage, from the root of a checkout (BLAS is pinned to one thread)::

    python tools/fit_engine.py engine [--save timings.json | --load timings.json]
    python tools/fit_engine.py kernel

``engine`` times one stage of both engines -- ``one_stage_accsvrda`` and
``lazy_one_stage_accsvrda``, minus one ``make_anchor`` each, best of 3 or
more, each point in a fresh process -- at the 55 points of ``GRID``:
logistic problems with n = 4000 and ``m = n/b``, plus points that place
each constant of ``harness.LAZY_STEP`` (d = 10000 its fixed cost, large
batches its cost per column a step hits, short loops at b = 16 its cost
per swept coordinate).  Per point it prints the lazy/dense ratio, a lazy
step's cost over ``d`` and the engine ``--lazy auto`` picks, and it exits
1 when a pick is more than 1.2x slower than the faster engine.  ``--save`` keeps the timings (``tests/engine_timings.json``
is one such file, which the tests hold the rule to), ``--load`` checks
saved ones.

``kernel`` times, on fully stored matrices (d = 50) over a range of
entry counts, the two paths of a dense stage step (``stage_loop.run_stage``
of an accelerated stage: the compiled csr loop, and the numpy skeleton on
the BLAS form, its ``take_rows`` gather included) and the two forms of
``problem.Rows`` in ``full_pass`` (csr and BLAS on the dense view), to
place ``problem.BLAS_ABOVE_ENTRIES``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from dasvrda import harness, problem as problem_module, stage_loop  # noqa: E402
from dasvrda import (  # noqa: E402
    ElasticNet, IidUniform, Logistic, lazy_one_stage_accsvrda,
    make_anchor, make_dataset, make_problem, make_rng, one_stage_accsvrda,
)
from dasvrda.problem import full_pass  # noqa: E402
from dasvrda.sampling import draw_batch  # noqa: E402

N = 4000
#: (d, nonzeros per row, b, m) of each point of ``engine``.
GRID = ([(d, r, b, N // b) for d in (2000, 5000, 10000, 20000, 50000, 100000, 400000)
         for r in (5, 20) for b in (16, 71)]
        + [(d, r, b, N // b) for d, r in ((500, 500), (500, 50), (2000, 200),
                                          (20000, 200)) for b in (16, 71, 400)]
        + [(20000, 20, 32, N // 32), (100000, 40, 71, N // 71),
           (100000, 50, 71, N // 71)]
        + [(d, r, 16, m) for d, r in ((20000, 5), (100000, 20), (400000, 5))
           for m in (4, 8, 16, 32)])
#: Most a pick of ``--lazy auto`` may be slower than the faster engine.
SLOWER = 1.2


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


def time_point(point: tuple[int, int, int, int]) -> dict:
    """Per-step times of both stages at ``(d, r, b, m)``, each minus one
    anchor, best of their runs; the three calls take turns, so a slow spell
    of the machine reaches all of them."""
    d, r, b, m = point
    problem = logistic_problem(N, d, r)
    scheme = IidUniform(N)
    x0 = np.zeros(d)
    eta = 0.1 / problem.max_smoothness
    calls = {
        "anchor": lambda: make_anchor(problem, x0),
        "dense": lambda: one_stage_accsvrda(problem, x0, x0, eta, m, b, scheme,
                                            make_rng(0)),
        "lazy": lambda: lazy_one_stage_accsvrda(problem, x0, x0, eta, m, b, scheme,
                                                make_rng(0)),
    }
    best = dict.fromkeys(calls, math.inf)
    for _ in range(max(3, 256 // m)):   # short stages are timed more often
        for name, call in calls.items():
            best[name] = min(best[name], best_of(call, 1))
    return {"d": d, "row_nnz": r, "b": b, "m": m,
            "dense_us": 1e6 * (best["dense"] - best["anchor"]) / m,
            "lazy_us": 1e6 * (best["lazy"] - best["anchor"]) / m}


def engine(args) -> int:
    if args.load:
        with open(args.load) as handle:
            points = json.load(handle)
    else:
        points = []
        # Each point in a fresh process: the largest block an earlier point
        # freed sets glibc's mmap threshold, and so how many of a stage's
        # temporaries fault in fresh pages.  Timed in one process, d =
        # 100000, 50 nonzeros per row, b = 71 read lazy/dense 0.64-0.79;
        # in fresh ones, 0.90-1.04.
        with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
            for p in pool.imap(time_point, GRID):
                points.append(p)
                print(f"d={p['d']:6d} nnz/row={p['row_nnz']:3d} b={p['b']:3d} "
                      f"m={p['m']:3d}: dense {p['dense_us']:8.1f} us, "
                      f"lazy {p['lazy_us']:8.1f} us per step", flush=True)
        if args.save:
            with open(args.save, "w") as handle:
                json.dump(points, handle, indent=1)
    worst = 1.0
    print("     d  nnz/row    b    m  lazy/dense  lazy step/d  pick")
    for p in points:
        cost = harness.lazy_step_cost(p["d"], p["b"] * p["row_nnz"], p["m"])
        lazy_pick = cost < p["d"]
        ratio = p["lazy_us"] / p["dense_us"]
        slower = max(1.0, ratio if lazy_pick else 1.0 / ratio)
        worst = max(worst, slower)
        print(f"{p['d']:6d} {p['row_nnz']:8d} {p['b']:4d} {p['m']:4d} {ratio:11.2f}"
              f" {cost / p['d']:12.2f}  {'lazy' if lazy_pick else 'dense'}"
              f"{f'  {slower:.2f}x slower' if slower > 1.0 else ''}")
    print(f"worst pick: {worst:.2f}x slower than the faster engine "
          f"(bound {SLOWER}x)")
    return 0 if worst <= SLOWER else 1


def kernel(args) -> int:
    """The compiled csr loop against the skeleton's BLAS form per stage
    step, and the csr form against the dense form per full pass, on fully
    stored matrices, by entry count."""
    forms = {"csr": 10**12, "dense": -1}
    paths = {"csr": "compiled", "dense": "numpy: BLAS dense form"}
    d = 50

    def timed(form: str, fn, reps: int) -> float:
        saved = problem_module.BLAS_ABOVE_ENTRIES
        problem_module.BLAS_ABOVE_ENTRIES = forms[form]
        try:
            return best_of(fn, reps)
        finally:
            problem_module.BLAS_ABOVE_ENTRIES = saved

    print("entries  stage step: compiled csr  BLAS (us)   full pass: csr  dense (us)")
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
        eta = 0.1 / problem.max_smoothness

        def steps():
            stage_loop.run_stage(stage_loop.ACC, problem, anchor, scheme, idx, y, eta)

        reps = max(3, min(50, 10**6 // entries))
        step = {}
        for form in forms:
            with stage_loop.noting() as taken:
                step[form] = 1e6 * timed(form, steps, reps) / m
            if taken != {paths[form]}:
                print(f"the {form} stage took {', '.join(taken)}", file=sys.stderr)
                return 1
        small = logistic_problem(b, d, d, seed=2)
        x = 0.1 * rng.standard_normal(d)

        def passes():
            for _ in range(10):
                full_pass(small, x)

        full = {form: 1e6 * timed(form, passes, 4 * reps) / 10 for form in forms}
        print(f"{entries:7d}  {step['csr']:24.1f} {step['dense']:6.1f}"
              f"   {full['csr']:14.1f} {full['dense']:6.1f}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_engine = sub.add_parser("engine", help="time both engines and check the "
                              "--lazy auto rule")
    p_engine.add_argument("--save")
    p_engine.add_argument("--load")
    sub.add_parser("kernel", help="time the compiled csr loop against the BLAS "
                   "form on fully stored matrices")
    args = parser.parse_args(argv)
    return {"engine": engine, "kernel": kernel}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
