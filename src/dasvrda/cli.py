"""``erm`` command line: run one benchmark solver, or build a reference
solution file.

Exit codes: 0 on success, 2 on a configuration error or an unwritable
output, 3 when a reference computation stopped on its stage budget before
converging (the file is still written, flagged unconverged).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (ALGORITHMS, LAZY_MODES, LAZY_STEP, LIPSCHITZ, SAMPLINGS,
                      RunConfig, load_problem, parse_synthetic, run_experiment)
from .reference import compute_reference, save_reference


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", dest="data_path", metavar="PATH",
                        help="svmlight/libsvm file (.gz ok)")
    source.add_argument(
        "--synthetic",
        metavar="SPEC",
        help="e.g. lasso:n=200,d=50,density=0.3,noise=0.1,sparsity=10,seed=0 "
        "or ridge-logistic:n=500,d=50",
    )
    parser.add_argument("--dim", type=int, help="override feature count of --data")
    parser.add_argument("--normalize", choices=["l2-rows"],
                        help="scale every example to unit norm before solving")
    parser.add_argument("--loss", help="squared | logistic | smoothed-hinge:NU")
    parser.add_argument("--l1", type=float, help="l1 weight")
    parser.add_argument("--l2", type=float, help="squared-l2 weight")


def _build_parser() -> argparse.ArgumentParser:
    """Each option but ``ref``'s last three sets the :class:`RunConfig` field
    named by its dest, and has no default of its own."""
    parser = argparse.ArgumentParser(
        prog="erm",
        description="Benchmark solvers for elastic-net regularized ERM",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one solver and write a trace",
                         argument_default=argparse.SUPPRESS)
    _add_data_arguments(run)
    run.add_argument("--algo", choices=list(ALGORITHMS))
    run.add_argument("--batch", type=int, help="minibatch size")
    run.add_argument("--epoch-len", type=int,
                     help="inner iterations per stage (default n/batch; "
                     "twice that for the SVRG baseline)")
    run.add_argument("--gamma", type=float,
                     help="outer momentum parameter (default: tuned optimum)")
    run.add_argument("--eta", type=float, help="step size (default: theory value)")
    run.add_argument("--stages", type=int,
                     help="outer stages (per restart with fixed restarts)")
    run.add_argument("--restarts", type=int,
                     help="restart count for the fixed-restart variant")
    run.add_argument("--warm-m0", type=int,
                     help="initial warm-up loop length for the warm-start variant")
    run.add_argument("--warm-stages", type=int,
                     help="warm-up stage count for the warm-start variant")
    run.add_argument("--sampling", choices=SAMPLINGS)
    run.add_argument("--lipschitz", choices=LIPSCHITZ,
                     help="smoothness constant for default step sizes "
                     "(default mean; max under partition sampling)")
    fixed, per_column, per_swept = LAZY_STEP
    run.add_argument("--lazy", choices=LAZY_MODES,
                     help="sparse just-in-time updates where the algorithm has "
                     "a lazy stage (auto: with an elastic-net term, when "
                     f"d > {fixed:g} + {per_column:g} columns + {per_swept:g} d / "
                     "epoch length, a lazy step's cost in dense coordinate "
                     "updates, its columns those a batch is expected to hit "
                     "from d, batch size and mean row nonzeros; the trace "
                     "header's lazy_reason says why)")
    run.add_argument("--seed", type=int)
    run.add_argument("--budget", type=int, required=True,
                     help="component-gradient evaluation budget")
    run.add_argument("--trace", dest="trace_path", required=True, metavar="OUT.csv")
    run.add_argument("--ref", dest="ref_path", metavar="REF.json",
                     help="reference file for the gap column")

    ref = sub.add_parser("ref", help="compute a high-accuracy reference",
                         argument_default=argparse.SUPPRESS)
    _add_data_arguments(ref)
    ref.add_argument("--tol", type=float, default=1e-12,
                     help="relative stall tolerance")
    ref.add_argument("--max-stages", type=int, default=400_000)
    ref.add_argument("--out", required=True, metavar="REF.json")
    return parser


_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _config(args: argparse.Namespace) -> RunConfig:
    """The :class:`RunConfig` of the parsed options that are its fields,
    with ``--synthetic SPEC`` parsed and ``--normalize l2-rows`` as True."""
    values = {key: value for key, value in vars(args).items() if key in _FIELDS}
    if "synthetic" in values:
        values["synthetic"] = parse_synthetic(values["synthetic"])
    if "normalize" in values:
        values["normalize"] = True
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    output = args.trace_path if args.command == "run" else args.out
    try:  # a bad --synthetic spec is a ValueError too
        config = _config(args)
        if args.command == "run":
            result = run_experiment(config)
            last = result.records[-1]
            status = "diverged" if result.diverged else "done"
            print(
                f"{status}: {len(result.records) - 1} stages, "
                f"{last.evals} evals ({last.evals_over_n:.2f} passes), "
                f"objective {last.objective!r} -> {config.trace_path}"
            )
            return 0

        # args.command == "ref"
        problem = load_problem(config)
        reference = compute_reference(problem, args.tol, max_stages=args.max_stages)
        save_reference(reference, problem, args.out)
        print(
            f"reference objective {reference.objective!r} "
            f"({'converged' if reference.converged else 'budget exhausted'}) "
            f"-> {args.out}"
        )
        return 0 if reference.converged else 3
    except OSError as exc:  # a failed read is a ConfigError, so a write failed
        print(f"error: cannot write {output}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
