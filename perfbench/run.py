"""Benchmark of dasvrda: time-to-gap, passes/s and per-layer costs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sparse-lazy --seed 0 --seconds 20 --trace 0

Each workload (see ``workloads.py``) runs through
``dasvrda.harness.run_experiment`` from ``src/`` in this one process, with
BLAS pinned to one thread.  Solves of the configured run repeat until
``--seconds`` have passed; every solve is checked, and the last line of
standard output is one JSON object with the medians.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first makes
one untraced solve, then traced solves that wrap each module's public
functions (``tracer.py``), and reports the per-layer metrics together with
the tracing overhead.  Details, samples and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

BLAS_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Patches, Tracer  # noqa: E402
from workloads import WORKLOADS, problem_digest  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Reference-solution tolerance (relative stall), as in acceptance 10.
REF_TOLERANCE = 1e-13
#: A final objective this far below the reference means a wrong answer.
BELOW_REF_SLACK = 1e-9
#: Lazy and dense objectives must agree this closely (acceptance 05).
ENGINE_AGREEMENT = 1e-9
#: After each untraced solve, setup-only resolves for the setup_s median
#: (at least one, more while they take under SETUP_SECONDS), so that
#: set-up is sampled across the whole measuring window.
SETUP_SECONDS = 0.5
L3_NOTE = "300 MiB shared L3 (lscpu on the machine the benchmark was defined on)"


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics, as
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


class Probe:
    """Stamps one solve from outside: set-up (``harness.resolve``), and the
    end of the first per-stage objective call whose gap reaches the
    target."""

    def __init__(self, reference: float, target: float) -> None:
        self.reference = reference
        self.target = target
        self.start()

    def start(self) -> None:
        self.resolve_start = self.resolve_end = self.hit = None
        self.problem = None

    def install(self, patches) -> None:
        from dasvrda import harness

        resolve, objective = harness.resolve, harness.objective

        def stamped_resolve(config):
            t0 = time.perf_counter()
            run = resolve(config)
            self.resolve_end = time.perf_counter()
            self.resolve_start = t0
            self.problem = run.problem
            return run

        def stamped_objective(problem, x):
            value = objective(problem, x)
            if self.hit is None and value - self.reference <= self.target:
                self.hit = time.perf_counter()
            return value

        patches.set(harness, "resolve", stamped_resolve)
        patches.set(harness, "objective", stamped_objective)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def environment() -> dict:
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_PIN},
        "l3": L3_NOTE,
    }


def problem_facts(problem) -> dict:
    feats = problem.data.features
    return {
        "n": problem.n,
        "d": problem.d,
        "nnz": int(feats.nnz),
        "csr_bytes_computed": int(feats.data.nbytes + feats.indices.nbytes
                                  + feats.indptr.nbytes),
    }


def reference_objective(workload, problem) -> dict:
    """Pinned reference for the problem, else ``compute_reference`` cached
    by the program's problem fingerprint.  Never inside a timed region.

    The report of a seed-0 run holds the digest and objective to pin."""
    from dasvrda.reference import compute_reference, problem_fingerprint

    digest = problem_digest(problem)
    if digest in workload.pinned_reference:
        return {"objective": workload.pinned_reference[digest],
                "source": "pinned", "digest": digest}
    cache = os.path.join(OUT, f"ref-{problem_fingerprint(problem)}.json")
    ref = compute_reference(problem, REF_TOLERANCE, cache_path=cache)
    if not ref.converged:
        raise RuntimeError(f"{workload.name}: reference did not converge")
    return {"objective": ref.objective, "source": "computed", "digest": digest}


def write_reference_file(problem, objective: float, path: str) -> None:
    """Reference file in the format ``RunConfig.ref_path`` reads."""
    from dasvrda.reference import problem_fingerprint

    payload = {"fingerprint": problem_fingerprint(problem),
               "tolerance": REF_TOLERANCE, "objective": objective,
               "converged": True, "x": []}
    with open(path, "w") as handle:
        json.dump(payload, handle)


class Bench:
    def __init__(self, workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_samples: list[float] = []
        self.first_objectives: list[float] | None = None

    def fail(self, *what: str) -> None:
        """Count one failed operation, for the given reasons."""
        self.failed += 1
        self.failures.extend(what)

    # -- preparation (untimed) --------------------------------------------

    def prepare(self):
        from dasvrda import harness

        w = self.workload
        if w.prepare is not None:
            w.prepare(OUT)
        config = dataclasses.replace(w.config(OUT), seed=self.seed)
        config.trace_path = os.path.join(OUT, f"{w.name}.trace.csv")
        self._resolve = harness.resolve
        run = self._resolve(config)
        self.facts = problem_facts(run.problem)
        self.reference_info = reference_objective(w, run.problem)
        self.reference = self.reference_info["objective"]
        config.ref_path = os.path.join(OUT, f"{w.name}.ref.json")
        write_reference_file(run.problem, self.reference, config.ref_path)
        self.config = config

    # -- one solve ----------------------------------------------------------

    def solve(self, probe: Probe) -> tuple[dict, object]:
        """One ``run_experiment`` call, stamped and checked; returns the
        sample and the problem the solve built."""
        from dasvrda import harness

        w = self.workload
        probe.start()
        result = harness.run_experiment(self.config)
        end = time.perf_counter()
        records = result.records
        solve_s = end - probe.resolve_end
        final = records[-1]
        passes_to_gap = next(
            (r.evals_over_n for r in records
             if r.gap is not None and r.gap <= w.target_gap), None)
        sample = {
            "setup_s": probe.resolve_end - probe.resolve_start,
            "solve_s": solve_s,
            "time_to_gap_s": (probe.hit if probe.hit is not None else end)
            - probe.resolve_end,
            "passes_to_gap": passes_to_gap,
            "final_passes": final.evals_over_n,
            "passes_per_s": final.evals_over_n / solve_s,
            "final_objective": final.objective,
            "objectives": [r.objective for r in records],
            "engine_lazy": result.header["lazy"],
        }
        problem, probe.problem = probe.problem, None
        self.attempted += 1
        self.setup_samples.append(sample["setup_s"])
        self.check(sample, result)
        return sample, problem

    def check(self, sample: dict, result) -> None:
        w = self.workload
        problems = []
        if result.diverged:
            problems.append("run diverged")
        if sample["passes_to_gap"] is None:
            problems.append(f"gap {w.target_gap:g} not reached within "
                            f"{sample['final_passes']:.2f} passes")
        final_gap = sample["final_objective"] - self.reference
        if not -BELOW_REF_SLACK <= final_gap <= w.target_gap:
            problems.append(f"final gap {final_gap!r} outside "
                            f"[-{BELOW_REF_SLACK:g}, {w.target_gap:g}]")
        if self.seed == 0:
            drift = abs(sample["final_objective"] - w.pinned_final)
            if drift > ENGINE_AGREEMENT:
                problems.append(f"final objective moved by {drift!r} from "
                                "the pinned default-seed value")
        if self.first_objectives is None:
            self.first_objectives = sample["objectives"]
        elif sample["objectives"] != self.first_objectives:
            problems.append("a repeated solve with the same seed, traced or "
                            "not, changed its trace")
        sample["ok"] = not problems
        if problems:
            self.fail(*problems)

    def check_companion(self, probe: Probe) -> dict | None:
        """Run the companion workload's engine on this seed and budget and
        compare objectives stage by stage."""
        from dasvrda import harness

        w = self.workload
        if w.companion is None:
            return None
        other = dataclasses.replace(
            WORKLOADS[w.companion].config(OUT), seed=self.seed,
            budget=self.config.budget, ref_path=self.config.ref_path)
        probe.start()
        result = harness.run_experiment(other)
        self.attempted += 1
        mine = self.first_objectives
        theirs = [r.objective for r in result.records]
        shared = min(len(mine), len(theirs))
        diff = max(abs(a - b) for a, b in zip(mine[:shared], theirs[:shared]))
        if diff > ENGINE_AGREEMENT or shared < 2:
            self.fail(f"{w.name} and {w.companion} differ by {diff!r} over "
                      f"{shared} shared stages")
        return {"companion": w.companion, "shared_stages": shared,
                "max_objective_diff": diff,
                "companion_engine_lazy": result.header["lazy"]}

    def extra_setups(self) -> None:
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self._resolve(self.config)
            end = time.perf_counter()
            self.setup_samples.append(end - t0)
            if end - started >= SETUP_SECONDS:
                return

    def traced_solve(self, probe: Probe, tracer) -> dict:
        patches = Patches()
        tracer.install(patches)
        tracer.reset()
        sid = tracer.open("bench.solve")
        try:
            sample, problem = self.solve(probe)
        finally:
            tracer.close(sid)
            patches.undo()
        sample["layers"] = tracer.summary()
        sample["batch_nnz_mean"] = batch_nnz_mean(tracer, problem)
        sample["touched_frac"] = (tracer.touched / tracer.touch_capacity
                                  if tracer.touch_capacity else 0.0)
        return sample

    def measure(self, probe: Probe, tracer=None) -> tuple[list, list]:
        """Repeat solves until the measuring time is used up.  With a
        tracer, each untraced solve is followed by a traced one, so the
        two sides of the overhead share the machine's state."""
        plain, traced = [], []
        started = time.perf_counter()
        while True:
            plain.append(self.solve(probe)[0])
            if tracer is None:
                self.extra_setups()
            else:
                traced.append(self.traced_solve(probe, tracer))
            if time.perf_counter() - started >= self.seconds:
                return plain, traced


def batch_nnz_mean(tracer, problem) -> float:
    """Mean number of stored entries in the rows of one drawn batch."""
    if not tracer.batches:
        return 0.0
    row_nnz = np.diff(problem.data.features.indptr)
    return float(row_nnz[np.concatenate(tracer.batches)].sum()
                 / len(tracer.batches))


def end_to_end_metrics(bench: Bench, samples: list[dict]) -> dict:
    good = [s for s in samples if s["ok"]] or samples
    values = {
        "setup_s": statistics.median(bench.setup_samples),
        "passes_per_s": statistics.median(s["passes_per_s"] for s in good),
        "time_to_gap_s": statistics.median(s["time_to_gap_s"] for s in good),
        "passes_to_gap": statistics.median(
            s["passes_to_gap"] if s["passes_to_gap"] is not None
            else s["final_passes"] for s in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metric_units("end_to_end").items()}


def layer_values(sample: dict) -> dict[str, float]:
    layers = sample["layers"]

    def get(name, key="s"):
        return layers.get(name, {}).get(key, 0)

    def per_call_us(name):
        calls = get(name, "calls")
        return 1e6 * get(name) / calls if calls else 0.0

    return {
        "data_io.load_libsvm.s": get("data_io.load_libsvm"),
        "data_io.generate_synthetic.s": get("data_io.generate_synthetic"),
        "problem.make_problem.s": get("problem.make_problem"),
        "problem.prox.calls": get("problem.prox", "calls"),
        "problem.prox.s": get("problem.prox"),
        "sampling.draw_batch.calls": get("sampling.draw_batch", "calls"),
        "sampling.draw_batch.s": get("sampling.draw_batch"),
        "sampling.vr_gradient.calls": get("sampling.vr_gradient", "calls"),
        "sampling.vr_gradient.s": get("sampling.vr_gradient"),
        "sampling.vr_gradient.us_per_call": per_call_us("sampling.vr_gradient"),
        "sampling.batch_nnz.mean": sample["batch_nnz_mean"],
        "sampling.make_anchor.calls": get("sampling.make_anchor", "calls"),
        "sampling.make_anchor.s": get("sampling.make_anchor"),
        "solvers.stage.calls": get("solvers.stage", "calls"),
        "solvers.stage.self_s": get("solvers.stage", "self_s"),
        "solvers.restart_objective.s": get("solvers.objective"),
        "lazy.stage.calls": get("lazy.stage", "calls"),
        "lazy.step.calls": get("lazy.step", "calls"),
        "lazy.step.s": get("lazy.step"),
        "lazy.step.us_per_call": per_call_us("lazy.step"),
        "lazy.sweep.s": get("lazy.sweep"),
        "lazy.catch_up.calls": get("lazy.catch_up", "calls"),
        "lazy.touched_frac": sample["touched_frac"],
        "harness.resolve.s": get("harness.resolve"),
        "harness.instrument.s": get("harness.objective"),
        "harness.instrument_frac": get("harness.objective") / sample["solve_s"],
        "trace.write_trace.s": get("trace.write_trace"),
    }


#: Per-layer values fixed by the seed; traced solves must agree on them.
DETERMINISTIC_METRICS = (
    "problem.prox.calls", "sampling.draw_batch.calls",
    "sampling.vr_gradient.calls", "sampling.make_anchor.calls",
    "solvers.stage.calls", "lazy.stage.calls", "lazy.step.calls",
    "lazy.catch_up.calls", "sampling.batch_nnz.mean", "lazy.touched_frac",
)


def per_layer_metrics(bench: Bench, plain: list[dict], traced: list[dict]) -> dict:
    rows = [layer_values(s) for s in traced]
    disagree = [name for name in DETERMINISTIC_METRICS
                if any(r[name] != rows[0][name] for r in rows)]
    if disagree:
        bench.fail(f"traced solves disagree on {', '.join(disagree)}")
    values = {name: rows[0][name] if name in DETERMINISTIC_METRICS
              else statistics.median(r[name] for r in rows)
              for name in rows[0]}
    plain_s = statistics.median(s["solve_s"] for s in plain)
    traced_s = statistics.median(s["solve_s"] for s in traced)
    values["bench.trace_overhead_frac"] = (traced_s - plain_s) / plain_s
    units = metric_units("per_layer")
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with BENCHMARK.json: "
                           f"{sorted(missing)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def print_table(title: str, metrics: dict, samples: dict[str, list[float]]) -> None:
    print(title)
    for name, entry in metrics.items():
        value = entry["value"]
        shown = (f"{value:.0f}" if float(value).is_integer()
                 else f"{value:.6g}")
        line = f"  {name:34s} {shown} {entry['unit']}"
        if samples.get(name):
            q1, q3 = quartiles(samples[name])
            line += f"  (q1 {q1:.6g}, q3 {q3:.6g}, {len(samples[name])} samples)"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dasvrda", "__init__.py")):
        print(f"no dasvrda sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import dasvrda

    if not os.path.abspath(dasvrda.__file__).startswith(SRC + os.sep):
        print(f"imported dasvrda from {dasvrda.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, args.seconds)
    bench.prepare()

    probe = Probe(bench.reference, workload.target_gap)
    patches = Patches()
    report: dict = {"workload": workload.name, "why": workload.why,
                    "seed": args.seed, "trace": args.trace,
                    "environment": environment(), "problem": bench.facts,
                    "reference": bench.reference_info,
                    "target_gap": workload.target_gap}
    try:
        probe.install(patches)
        tracer = Tracer() if args.trace else None
        plain, traced = bench.measure(probe, tracer)
        samples = plain + traced
        if tracer is not None:
            metrics = per_layer_metrics(bench, plain, traced)
            with open(os.path.join(OUT, f"spans-{workload.name}.json"), "w") as fh:
                json.dump(tracer.spans(), fh)
            report["layers_last_solve"] = traced[-1]["layers"]
        else:
            metrics = end_to_end_metrics(bench, plain)
        report["companion"] = bench.check_companion(probe)
    finally:
        patches.undo()

    report["engine_lazy"] = samples[0]["engine_lazy"]
    report["samples"] = [
        {k: v for k, v in s.items() if k not in ("objectives", "layers")}
        for s in samples]
    report["setup_samples"] = bench.setup_samples
    report["failures"] = bench.failures
    report["metrics"] = metrics

    env = report["environment"]
    print(f"environment: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} "
          f"BLAS threads pinned to 1 ({', '.join(BLAS_PIN)}); {env['l3']}")
    facts = bench.facts
    print(f"workload {workload.name} seed={args.seed}: n={facts['n']} "
          f"d={facts['d']} nnz={facts['nnz']} CSR bytes (computed)="
          f"{facts['csr_bytes_computed']}; engine lazy={report['engine_lazy']}; "
          f"gap target {workload.target_gap:g}; reference "
          f"{bench.reference!r} ({bench.reference_info['source']})")
    print(f"why: {workload.why}")
    if report["companion"]:
        c = report["companion"]
        print(f"engine agreement with {c['companion']}: max |dP| = "
              f"{c['max_objective_diff']!r} over {c['shared_stages']} stages")
    per_sample = {name: [s[name] for s in plain if name in s
                         and isinstance(s[name], float)]
                  for name in metrics}
    if not args.trace:
        per_sample["setup_s"] = bench.setup_samples
    print_table("metrics (median over solves):", metrics, per_sample)
    if args.trace:
        print(f"tracing overhead: {metrics['bench.trace_overhead_frac']['value']:+.1%} "
              "of untraced solve time")
    for failure in bench.failures:
        print(f"CHECK FAILED: {failure}")
    with open(os.path.join(OUT, f"{workload.name}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=float)

    print(json.dumps({"correct": not bench.failures,
                      "attempted": bench.attempted,
                      "failed": min(bench.failed, bench.attempted),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
