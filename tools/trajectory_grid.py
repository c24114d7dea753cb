"""Trajectory grid: run 750 small configurations and compare two runs bitwise.

Usage, from the root of a checkout::

    python tools/trajectory_grid.py run grid-new.json
    python tools/trajectory_grid.py run --src /path/to/other/checkout/src grid-old.json
    python tools/trajectory_grid.py diff grid-old.json grid-new.json

``run`` imports ``dasvrda`` from ``--src`` (default: this checkout's
``src/``) and runs every configuration of the grid through
``run_experiment``:

* the 9 algorithms of ``harness.ALGORITHMS``;
* uniform, weighted and partition sampling;
* two engines: ``--lazy off``, and ``--lazy on`` for an algorithm with a
  lazy stage (``auto`` for the others);
* three problems: a dense lasso (n=60, d=20), a density-0.1
  ridge-logistic problem (n=80, d=40, l1 = l2 = 1e-3), and a dense lasso
  above ``problem.BLAS_ABOVE_ENTRIES`` (n=160, d=50: 8000 entries, all
  stored, so its full passes take BLAS on the dense view);
* two stopping rules: 3 stages, or a budget of ``7 n`` evaluations with the
  stage count left open (2 stages per restart for ``dasvrda-sc``);
* two step rules: the algorithm's default, or an explicit ``eta`` fixed per
  problem, so that a change to a default step rule and a change to a
  stage's arithmetic show apart.

The 648 configurations stop before either adaptive restart test fires, so
12 more run ``dasvrda-ar-f`` and ``dasvrda-ar-g`` over the three samplings
and both engines on a fourth problem, a strongly convex dense lasso (n=120,
d=20, l2 = 1e-2), at their default step and a budget of ``150 n``
evaluations: each of them flags a restart.  The 648 configurations give
``dasvrda-sc`` an explicit stage count, so 12 more leave it to be derived
from ``l2`` (keys ending ``/stages=l2``): on the ridge-logistic problem and
on the strongly convex lasso, over the three samplings and both engines,
at their default step and a budget of ``150 n`` evaluations.  No other
configuration sets ``epoch_len`` or ``gamma``, so 78 more, of 3 stages on
the ridge-logistic problem over the three samplings and both engines, set
``epoch_len = 7`` for each algorithm with an inner loop (42, keys ending
``/epoch_len=7``) or ``gamma = 4`` for each with outer momentum (36).

Batch size 4, seed 0.  For each problem it writes a data digest: a
SHA-256 of the generated CSR arrays, labels and ground truth, each tagged
with its name, dtype and shape.  For each configuration it writes, per
trace row, the objective (as an exact hex float), the cumulative
``evals`` charged and the ``restarted`` flag; every trace header key; the
returned ``x``; and a SHA-256 digest of all of them.  So a moved restart
flag or a moved charge shows, not only a moved objective.  ``diff`` first
reports each problem whose data differ, so that a change to the generator
shows apart from a change to a solver.  It then reports each
configuration whose rows or ``x`` differ, with the header keys that
differ, whether its ``evals`` or ``restarted`` columns differ, the largest
absolute and relative objective differences and the largest ``x``
difference.  It counts, each on a line of its own, the configurations
that differ in header keys only, and those whose rows are equal and whose
``x`` differs only in the sign of zeros, and the configurations of each
file that flag a restart, per algorithm.  It exits 1 if any problem
or configuration differs.  The trace's
``seconds`` column is not recorded, since it is a timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ALGOS = ("pg", "apg", "svrg", "dasvrda-ns", "dasvrda-sc", "dasvrda-ar-f",
         "dasvrda-ar-g", "dasvrda-warm", "dasvrg")
SAMPLINGS = ("uniform", "weighted", "partition")
BATCH = 4
#: The problem of the adaptive configurations, and their algorithms.
RESTARTS = "restarts"
ADAPTIVE = ("dasvrda-ar-f", "dasvrda-ar-g")
#: Explicit settings, each with the algorithms that read it: those with an
#: inner loop, and those with outer momentum.
EXPLICIT = (("epoch_len", 7, ALGOS[2:]), ("gamma", 4.0, ALGOS[3:]))


def problems(SyntheticSpec):
    """Run keywords of each problem, and its explicit step size (about
    ``0.02 / L`` for the mean smoothness ``L``)."""
    return {
        "lasso": (dict(loss="squared", l1=1e-3, l2=0.0,
                       synthetic=SyntheticSpec(kind="lasso", n=60, d=20,
                                               sparsity=5, seed=0)), 1e-3),
        "logistic": (dict(loss="logistic", l1=1e-3, l2=1e-3,
                          synthetic=SyntheticSpec(kind="ridge-logistic", n=80,
                                                  d=40, density=0.1, seed=1)),
                     0.02),
        "stored": (dict(loss="squared", l1=1e-3, l2=0.0,
                        synthetic=SyntheticSpec(kind="lasso", n=160, d=50,
                                                sparsity=5, seed=2)), 4e-4),
        RESTARTS: (dict(loss="squared", l1=1e-3, l2=1e-2,
                        synthetic=SyntheticSpec(kind="lasso", n=120, d=20,
                                                sparsity=5, seed=0)), None),
    }


def configs():
    """(key, RunConfig keyword arguments) of every grid point."""
    from dasvrda import SyntheticSpec
    from dasvrda.harness import ALGORITHMS

    grid = problems(SyntheticSpec)
    restarts, _ = grid.pop(RESTARTS)
    for pname, (pkw, eta) in grid.items():
        n = pkw["synthetic"].n
        for algo in ALGOS:
            engines = ("off", "on" if ALGORITHMS[algo].lazy else "auto")
            for sampling in SAMPLINGS:
                for lazy in engines:
                    for stop in ("stages", "budget"):
                        for step in ("default", "eta"):
                            kw = dict(pkw, algo=algo, sampling=sampling,
                                      lazy=lazy, batch=BATCH, seed=0)
                            if stop == "stages":
                                kw["stages"] = 3
                            else:
                                kw["budget"] = 7 * n
                                if algo == "dasvrda-sc":
                                    kw["stages"] = 2
                            key = f"{pname}/{algo}/{sampling}/lazy={lazy}/{stop}"
                            if step == "eta":
                                kw["eta"] = eta
                                key += f"/eta={eta:g}"
                            yield key, kw
    for algo in ADAPTIVE:
        for sampling in SAMPLINGS:
            for lazy in ("off", "on"):
                yield (f"{RESTARTS}/{algo}/{sampling}/lazy={lazy}/budget",
                       dict(restarts, algo=algo, sampling=sampling, lazy=lazy,
                            batch=BATCH, seed=0,
                            budget=150 * restarts["synthetic"].n))
    for pname, pkw in (("logistic", grid["logistic"][0]), (RESTARTS, restarts)):
        for sampling in SAMPLINGS:
            for lazy in ("off", "on"):
                yield (f"{pname}/dasvrda-sc/{sampling}/lazy={lazy}/budget/stages=l2",
                       dict(pkw, algo="dasvrda-sc", sampling=sampling, lazy=lazy,
                            batch=BATCH, seed=0, budget=150 * pkw["synthetic"].n))
    for name, value, algos in EXPLICIT:
        for algo in algos:
            for sampling in SAMPLINGS:
                for lazy in ("off", "on" if ALGORITHMS[algo].lazy else "auto"):
                    yield (f"logistic/{algo}/{sampling}/lazy={lazy}/stages/"
                           f"{name}={value:g}",
                           dict(grid["logistic"][0], algo=algo, sampling=sampling,
                                lazy=lazy, batch=BATCH, seed=0, stages=3,
                                **{name: value}))


def restart_counts(results: dict) -> str:
    """How many configurations flag a restart, in all and per algorithm."""
    counts: dict[str, int] = {}
    for key, result in results.items():
        if any(result["restarted"]):
            algo = key.split("/")[1]
            counts[algo] = counts.get(algo, 0) + 1
    parts = ", ".join(f"{algo} {count}" for algo, count in sorted(counts.items()))
    return (f"{sum(counts.values())} of {len(results)} configurations flag a "
            f"restart ({parts or 'none'})")


def data_digest(data, x_true) -> str:
    """SHA-256 of a generated problem's CSR arrays, labels and ground
    truth, each tagged with its name, dtype and shape."""
    import numpy as np

    h = hashlib.sha256()
    feats = data.features
    for name, arr in (("indptr", feats.indptr), ("indices", feats.indices),
                      ("data", feats.data), ("labels", data.labels),
                      ("x_true", x_true)):
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def run(src: str, out: str) -> int:
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np
    import dasvrda
    from dasvrda import RunConfig, SyntheticSpec, generate_synthetic, run_experiment

    data = {pname: data_digest(*generate_synthetic(pkw["synthetic"]))
            for pname, (pkw, _) in problems(SyntheticSpec).items()}
    results = {}
    for key, kw in configs():
        result = run_experiment(RunConfig(**kw))
        objectives = [float(r.objective).hex() for r in result.records]
        evals = [int(r.evals) for r in result.records]
        restarted = [bool(r.restarted) for r in result.records]
        header = json.loads(json.dumps(result.header, sort_keys=True, default=str))
        x = [float(v).hex() for v in np.asarray(result.x, dtype=np.float64)]
        blob = json.dumps([objectives, evals, restarted, header, x],
                          sort_keys=True).encode()
        results[key] = {"digest": hashlib.sha256(blob).hexdigest(),
                        "objectives": objectives, "evals": evals,
                        "restarted": restarted, "header": header, "x": x}
    with open(out, "w") as handle:
        json.dump({"data": data, "configs": results}, handle, indent=0,
                  sort_keys=True)
    print(f"{len(results)} configurations of {dasvrda.__file__} written to {out}")
    print(restart_counts(results))
    return 0


def max_diff(a: list[str], b: list[str], relative: bool = False) -> float:
    """Largest difference between two lists of hex floats, absolute or
    relative to the first list's entries."""
    if len(a) != len(b):
        return float("inf")
    out = 0.0
    for u, v in zip(a, b):
        u, v = float.fromhex(u), float.fromhex(v)
        if u == v:   # also equal infinities
            continue
        gap = abs(u - v)
        out = max(out, gap / abs(u) if relative and u else gap)
    return out


def same_values(a: list[str], b: list[str]) -> bool:
    """Whether two lists of hex floats hold equal numbers, so that ``-0.0``
    equals ``0.0``."""
    return len(a) == len(b) and all(
        float.fromhex(u) == float.fromhex(v) for u, v in zip(a, b))


def diff(old_path: str, new_path: str) -> int:
    with open(old_path) as handle:
        old = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    data_changed = 0
    for pname in sorted(set(old["data"]) | set(new["data"])):
        if old["data"].get(pname) != new["data"].get(pname):
            print(f"data of problem {pname} differ")
            data_changed += 1
    print(f"{data_changed} of {len(new['data'])} problems differ in data")
    old, new = old["configs"], new["configs"]
    print(f"old: {restart_counts(old)}")
    print(f"new: {restart_counts(new)}")
    changed = 0
    header_only: dict[tuple, int] = {}
    signed_zeros = 0
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            print(f"{key}: only in {'new' if key in new else 'old'}")
            changed += 1
            continue
        a, b = old[key], new[key]
        if a["digest"] == b["digest"]:
            continue
        changed += 1
        keys = tuple(sorted(k for k in set(a["header"]) | set(b["header"])
                            if a["header"].get(k) != b["header"].get(k)))
        columns = [c for c in ("objectives", "evals", "restarted")
                   if a.get(c) != b.get(c)]
        if not columns and a["x"] == b["x"]:
            header_only[keys] = header_only.get(keys, 0) + 1
            continue
        if not keys and not columns and same_values(a["x"], b["x"]):
            signed_zeros += 1
            continue
        obj_a, obj_b = a["objectives"], b["objectives"]
        print(f"{key}: header keys {list(keys) or 'equal'}, trace columns "
              f"{columns or 'equal'}, max |objective "
              f"diff| {max_diff(obj_a, obj_b):.3g} (relative "
              f"{max_diff(obj_a, obj_b, relative=True):.3g}), max |x diff| "
              f"{max_diff(a['x'], b['x']):.3g}")
    for keys, count in sorted(header_only.items()):
        print(f"{count} configurations differ in header keys {list(keys)} only")
    print(f"{signed_zeros} configurations differ only in signed zeros of x")
    lazy = sum(1 for key in new if "lazy=on" in key)
    print(f"{changed} of {len(new)} configurations differ, "
          f"{changed - sum(header_only.values())} of them in objectives or x "
          f"({lazy} configurations run on the lazy engine)")
    return 1 if changed or data_changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the grid and write its results")
    p_run.add_argument("out")
    p_run.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"),
                       help="directory holding the dasvrda package to run")
    p_diff = sub.add_parser("diff", help="compare two result files")
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.src, args.out)
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
