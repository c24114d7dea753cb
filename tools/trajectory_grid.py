"""Trajectory grid: run 750 small configurations, compare two runs bitwise,
and pin them for the test suite.

Usage, from the root of a checkout::

    python tools/trajectory_grid.py run grid-new.json
    python tools/trajectory_grid.py run --src /path/to/other/checkout/src grid-old.json
    python tools/trajectory_grid.py diff grid-old.json grid-new.json
    python tools/trajectory_grid.py pin

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
returned ``x``; and two digests, one of the header and one of the
trajectory (the rows and ``x``).  So a moved restart flag or a moved
charge shows, not only a moved objective, and a changed header shows
apart from a changed trajectory.  ``diff`` first reports each problem
whose data differ, so that a change to the generator shows apart from a
change to a solver.  It then reports each configuration whose rows or
``x`` differ, with the header keys that differ, whether its ``evals`` or
``restarted`` columns differ, the largest absolute and relative objective
differences and the largest ``x`` difference.  It counts, each on a line
of its own, the configurations that differ in header keys only, and those
whose rows are equal and whose ``x`` differs only in the sign of zeros,
and the configurations of each file that flag a restart, per algorithm.
It exits 1 if any problem or configuration differs.  The trace's
``seconds`` column is not recorded, since it is a timing.

``pin`` runs the grid on this checkout's ``src/`` and writes only its
digests to ``PIN`` (``tests/trajectory_grid.json``), which
``tests/test_trajectory_grid.py`` holds the grid to: the data digests,
every header digest and the trajectory digest of every configuration that
runs on the dense engine must be equal.  The configurations that run on the lazy engine (keys with
``lazy=on``) are held to the contract of acceptance criterion 05 instead:
each must charge the same ``evals``, flag the same restarts, and stay
within ``LAZY_TOLERANCE`` of its dense twin (the key with ``lazy=off``)
in every objective and every coordinate of ``x``; a moved trajectory
digest of one of them is reported, not failed.  ``diff`` also takes the
pin as either file; it then reports the digests that differ.  A change
that regenerates the pin names the moved configurations and the reason.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Optional

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
SRC = os.path.join(os.path.dirname(HERE), "src")
PIN = os.path.join(os.path.dirname(HERE), "tests", "trajectory_grid.json")
#: Largest difference of a lazy configuration from its dense twin, in an
#: objective or a coordinate of ``x``: acceptance criterion 05's bound.
LAZY_TOLERANCE = 1e-9
ABOUT = ("Digests of the configurations of tools/trajectory_grid.py, written "
         "by `python tools/trajectory_grid.py pin` and checked by "
         "tests/test_trajectory_grid.py. The full passes of the n=160 "
         "'stored' problem take BLAS on its dense view, so its bits follow "
         "the OpenBLAS build: a numpy or scipy upgrade regenerates this file "
         "in a change of its own.")


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


def digest(value) -> str:
    """The first 16 hex digits of the SHA-256 of ``value`` as sorted JSON."""
    blob = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def record(result) -> dict:
    """What the grid keeps of one ``RunResult``."""
    import numpy as np

    objectives = [float(r.objective).hex() for r in result.records]
    evals = [int(r.evals) for r in result.records]
    restarted = [bool(r.restarted) for r in result.records]
    header = json.loads(json.dumps(result.header, sort_keys=True, default=str))
    x = [float(v).hex() for v in np.asarray(result.x, dtype=np.float64)]
    return {"header_digest": digest(header),
            "trajectory": digest([objectives, evals, restarted, x]),
            "objectives": objectives, "evals": evals, "restarted": restarted,
            "header": header, "x": x}


def collect(src: Optional[str] = None) -> dict:
    """Run the grid on the ``dasvrda`` package in ``src`` (default: the one
    already importable): the data digest of each problem and the record of
    each configuration."""
    if src is not None:
        sys.path.insert(0, os.path.abspath(src))
    from dasvrda import RunConfig, SyntheticSpec, generate_synthetic, run_experiment

    data = {pname: data_digest(*generate_synthetic(pkw["synthetic"]))
            for pname, (pkw, _) in problems(SyntheticSpec).items()}
    return {"data": data,
            "configs": {key: record(run_experiment(RunConfig(**kw)))
                        for key, kw in configs()}}


def pin(results: dict) -> dict:
    """The digests of a run of the grid, as ``PIN`` holds them."""
    return {"about": ABOUT, "data": results["data"],
            "configs": {key: {"header_digest": rec["header_digest"],
                              "trajectory": rec["trajectory"]}
                        for key, rec in results["configs"].items()}}


def write_pin(value: dict, out: str) -> None:
    """Write a pin with one line per problem or configuration."""
    def block(entries: dict) -> str:
        return ",\n".join(f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
                           for key, entry in sorted(entries.items()))

    with open(out, "w") as handle:
        handle.write(f'{{"about": {json.dumps(value["about"])},\n'
                     f'"data": {{\n{block(value["data"])}}},\n'
                     f'"configs": {{\n{block(value["configs"])}}}}}\n')


def run(src: str, out: str) -> int:
    results = collect(src)
    with open(out, "w") as handle:
        json.dump(results, handle, indent=0, sort_keys=True)
    import dasvrda

    print(f"{len(results['configs'])} configurations of {dasvrda.__file__} "
          f"written to {out}")
    print(restart_counts(results["configs"]))
    return 0


def max_diff(a: list[str], b: list[str], relative: bool = False) -> float:
    """Largest difference between two lists of hex floats, absolute or
    relative to the first list's entries."""
    if len(a) != len(b):
        return float("inf")
    out = 0.0
    for u, v in zip(a, b):
        u, v = float.fromhex(u), float.fromhex(v)
        if u == v or (u != u and v != v):   # also equal infinities, two NaNs
            continue
        gap = abs(u - v) if u == u and v == v else float("inf")
        out = max(out, gap / abs(u) if relative and u else gap)
    return out


def same_values(a: list[str], b: list[str]) -> bool:
    """Whether two lists of hex floats hold equal numbers, so that ``-0.0``
    equals ``0.0``."""
    return len(a) == len(b) and all(
        float.fromhex(u) == float.fromhex(v) for u, v in zip(a, b))


def compare(old: dict, new: dict) -> tuple[list[str], dict[str, tuple]]:
    """What differs between two grid files, each a full run or a pin: the
    summary lines of ``diff``, and the parts that differ (``data``,
    ``header``, ``trajectory``, or ``config`` when it is in one file only)
    of each problem and configuration, keyed ``data:<problem>`` for a
    problem."""
    lines, moved = [], {}
    for pname in sorted(set(old["data"]) | set(new["data"])):
        if old["data"].get(pname) != new["data"].get(pname):
            lines.append(f"data of problem {pname} differ")
            moved[f"data:{pname}"] = ("data",)
    lines.append(f"{len(moved)} of {len(new['data'])} problems differ in data")
    old, new = old["configs"], new["configs"]
    for side, results in (("old", old), ("new", new)):
        if all("restarted" in result for result in results.values()):
            lines.append(f"{side}: {restart_counts(results)}")
    header_only: dict[tuple, int] = {}
    signed_zeros = 0
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            lines.append(f"{key}: only in {'new' if key in new else 'old'}")
            moved[key] = ("config",)
            continue
        a, b = old[key], new[key]
        parts = tuple(part for part, field in (("header", "header_digest"),
                                               ("trajectory", "trajectory"))
                      if a[field] != b[field])
        if not parts:
            continue
        moved[key] = parts
        keys = ()   # the differing header keys, when both files hold them
        if "header" in a and "header" in b:
            keys = tuple(sorted(k for k in set(a["header"]) | set(b["header"])
                                if a["header"].get(k) != b["header"].get(k)))
        if parts == ("header",):
            header_only[keys] = header_only.get(keys, 0) + 1
            continue
        if "x" not in a or "x" not in b:
            lines.append(f"{key}: {' and '.join(parts)} digests differ")
            continue
        columns = [c for c in ("objectives", "evals", "restarted")
                   if a[c] != b[c]]
        if not keys and not columns and same_values(a["x"], b["x"]):
            signed_zeros += 1
            continue
        obj_a, obj_b = a["objectives"], b["objectives"]
        lines.append(
            f"{key}: header keys {list(keys) or 'equal'}, trace columns "
            f"{columns or 'equal'}, max |objective "
            f"diff| {max_diff(obj_a, obj_b):.3g} (relative "
            f"{max_diff(obj_a, obj_b, relative=True):.3g}), max |x diff| "
            f"{max_diff(a['x'], b['x']):.3g}")
    for keys, count in sorted(header_only.items()):
        what = f"header keys {list(keys)}" if keys else "the header digest"
        lines.append(f"{count} configurations differ in {what} only")
    lines.append(f"{signed_zeros} configurations differ only in signed zeros of x")
    changed = sum(1 for key in moved if not key.startswith("data:"))
    lazy = sum(1 for key in new if "lazy=on" in key)
    lines.append(f"{changed} of {len(new)} configurations differ, "
                 f"{changed - sum(header_only.values())} of them in objectives "
                 f"or x ({lazy} configurations run on the lazy engine)")
    return lines, moved


def check(pinned: dict, results: dict) -> tuple[list[str], list[str], list[str]]:
    """Hold a full run of the grid to its pin: the summary lines, the keys
    that break the pin, and the lazy configurations whose trajectory moved
    within criterion 05's contract."""
    lines, moved = compare(pinned, pin(results))
    configs = results["configs"]
    broken, moved_lazy, worst = [], [], 0.0
    for key, rec in configs.items():
        if "lazy=on" not in key:
            continue
        twin = configs[key.replace("lazy=on", "lazy=off")]
        gap = max(max_diff(twin["objectives"], rec["objectives"]),
                  max_diff(twin["x"], rec["x"]))
        worst = max(worst, gap)
        if (rec["evals"] != twin["evals"] or rec["restarted"] != twin["restarted"]
                or gap > LAZY_TOLERANCE):
            lines.append(f"{key}: breaks criterion 05 against its dense twin "
                         f"(max |diff| {gap:.3g})")
            broken.append(key)
    for key, parts in moved.items():
        if key in broken:
            continue
        if "lazy=on" in key and parts == ("trajectory",):
            moved_lazy.append(key)
        else:
            broken.append(key)
    lines.append(f"lazy configurations: the largest difference from a dense "
                 f"twin is {worst:.3g} (bound {LAZY_TOLERANCE:g}); "
                 f"{len(moved_lazy)} moved within it")
    return lines, broken, moved_lazy


def diff(old_path: str, new_path: str) -> int:
    with open(old_path) as handle:
        old = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    lines, moved = compare(old, new)
    print("\n".join(lines))
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the grid and write its results")
    p_run.add_argument("out")
    p_run.add_argument("--src", default=SRC,
                       help="directory holding the dasvrda package to run")
    p_diff = sub.add_parser("diff", help="compare two result files, or one "
                                         "and the pin")
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    p_pin = sub.add_parser("pin", help="run the grid and write its digests")
    p_pin.add_argument("out", nargs="?", default=PIN)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.src, args.out)
    if args.command == "pin":
        write_pin(pin(collect(SRC)), args.out)
        print(f"digests of the grid written to {args.out}")
        return 0
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
