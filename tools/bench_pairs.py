"""Alternating pair comparison of two checkouts on benchmark workloads.

Usage, from the root of a checkout::

    python tools/bench_pairs.py --workload dense-lasso --base /path/to/base \\
        [--pairs 10] [--seconds 20] [--seed 100] [--json pairs.json]

``--workload all`` runs the pairs on every workload of ``BENCHMARK.json``,
one workload after the other.

``--base`` is the root of another checkout of the repository, for example
an unpacked ``git archive`` of the parent commit.  Pair ``k`` runs
``perfbench/run.py --workload W --seed S+k --seconds T`` once from each
checkout, in a fresh process, with identical arguments; the base goes first
in even pairs and the change (this checkout) first in odd ones, so drift of
the machine's speed falls on both sides alike.

For each end-to-end metric of ``BENCHMARK.json`` it prints the median and
quartiles of both sides, the ratio change/base of the medians, how many
pairs the change wins (strictly better in the metric's direction) and
whether the medians differ by more than the base's interquartile range,
and a verdict from the metric's ``bound`` (see :func:`verdict`): ``worse``,
``unresolved`` or ``ok``.  It also prints each side's failed operations
and whether every run reported ``correct``.  The script only invokes the
benchmark; it changes nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from ``checkout``; its final JSON line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"benchmark failed in {checkout} (exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, as ``perfbench/run.py`` computes them."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: list[float]) -> float:
    """Run-to-run spread: the interquartile range over the median."""
    q1, q3 = quartiles(values)
    mid = abs(statistics.median(values))
    return (q3 - q1) / mid if mid else (0.0 if q3 == q1 else float("inf"))


def verdict(metric: dict, base: list[float], change: list[float]) -> str:
    """The verdict on one metric, from its ``bound`` (a fraction of the
    base median) and its direction ``better``:

    * ``worse``: the change median is worse than the base median by more
      than the bound;
    * ``unresolved``: the spread (:func:`spread`) of either side is wider
      than the bound, and not every change run beats every base run;
    * ``ok`` otherwise.
    """
    bound, lower = metric["bound"], metric["better"] == "lower"
    b_med, c_med = statistics.median(base), statistics.median(change)
    if (c_med - b_med if lower else b_med - c_med) > bound * abs(b_med):
        return "worse"
    beats = max(change) < min(base) if lower else min(change) > max(base)
    if max(spread(base), spread(change)) > bound and not beats:
        return "unresolved"
    return "ok"


def summarize(metric: dict, base: list[float], change: list[float]) -> dict:
    lower = metric["better"] == "lower"
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    b_q1, b_q3 = quartiles(base)
    c_q1, c_q3 = quartiles(change)
    b_med, c_med = statistics.median(base), statistics.median(change)
    return {
        "unit": metric["unit"], "better": metric["better"],
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3, "values": base},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "values": change},
        "ratio": c_med / b_med if b_med else float("nan"),
        "wins": wins, "pairs": len(base),
        "beyond_base_iqr": abs(c_med - b_med) > b_q3 - b_q1,
        "verdict": verdict(metric, base, change),
    }


def compare(workload: str, sides: dict[str, str], metrics: list[dict],
            args) -> dict:
    """Run the alternating pairs of one workload, print its table and
    return its report."""
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for k in range(args.pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_bench(sides[side], workload, args.seed + k,
                                        args.seconds))
        print(f"{workload}: pair {k + 1}/{args.pairs} (seed {args.seed + k}, "
              f"{order[0]} first) done", flush=True)

    report = {"workload": workload, "base": sides["base"], "change": sides["change"],
              "seconds": args.seconds, "first_seed": args.seed, "metrics": {}}
    for side in sides:
        report[side] = {
            "correct": all(r["correct"] for r in runs[side]),
            "attempted": sum(r["attempted"] for r in runs[side]),
            "failed": sum(r["failed"] for r in runs[side]),
        }
    print(f"{workload}: {args.pairs} pairs, {args.seconds:g} s each, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}")
    for side in sides:
        r = report[side]
        print(f"  {side:6s} correct={r['correct']} failed "
              f"{r['failed']}/{r['attempted']} operations")
    print(f"  {'metric':15s} {'base median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} {'ratio':>6s}  wins  >IQR  verdict")
    for metric in metrics:
        name = metric["name"]
        cell = summarize(metric, [r["metrics"][name]["value"] for r in runs["base"]],
                         [r["metrics"][name]["value"] for r in runs["change"]])
        report["metrics"][name] = cell
        base, change = (f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                        for s in (cell["base"], cell["change"]))
        print(f"  {name:15s} {base:32s} {change:32s} {cell['ratio']:6.3f}  "
              f"{cell['wins']:2d}/{cell['pairs']:<2d} "
              f"{'yes' if cell['beyond_base_iqr'] else 'no':4s}  {cell['verdict']}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--base", required=True,
                        help="root of the checkout to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=100,
                        help="seed of the first pair; pair k uses seed + k")
    parser.add_argument("--json", help="also write the results here")
    args = parser.parse_args(argv)
    base_root = os.path.abspath(args.base)
    if not os.path.isfile(os.path.join(base_root, "perfbench", "run.py")):
        parser.error(f"no perfbench/run.py under {base_root}")
    if args.pairs < 1:
        parser.error("need at least one pair")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])
    sides = {"base": base_root, "change": ROOT}
    reports = [compare(w, sides, spec["end_to_end"], args) for w in workloads]
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(reports[0] if args.workload != "all" else reports, handle,
                      indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
