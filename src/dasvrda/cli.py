"""``erm`` command line: run one benchmark solver, or build a reference
solution file.

Exit codes: 0 on success, 2 on a configuration error, 3 when a reference
computation stopped on its stage budget before converging (the file is
still written, flagged unconverged).
"""

from __future__ import annotations

import argparse
import sys

from .harness import (ALGORITHMS, DEFAULT_ALGORITHM, SAMPLINGS, RunConfig,
                      load_problem, parse_synthetic, run_experiment)
from .reference import compute_reference, save_reference


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", metavar="PATH", help="svmlight/libsvm file (.gz ok)")
    source.add_argument(
        "--synthetic",
        metavar="SPEC",
        help="e.g. lasso:n=200,d=50,density=0.3,noise=0.1,sparsity=10,seed=0 "
        "or ridge-logistic:n=500,d=50",
    )
    parser.add_argument(
        "--dim", type=int, default=None, help="override feature count of --data"
    )
    parser.add_argument(
        "--normalize",
        choices=["l2-rows"],
        default=None,
        help="scale every example to unit norm before solving",
    )
    parser.add_argument("--loss", default="squared",
                        help="squared | logistic | smoothed-hinge:NU")
    parser.add_argument("--l1", type=float, default=0.0, help="l1 weight")
    parser.add_argument("--l2", type=float, default=0.0, help="squared-l2 weight")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erm",
        description="Benchmark solvers for elastic-net regularized ERM",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one solver and write a trace")
    _add_data_arguments(run)
    run.add_argument("--algo", default=DEFAULT_ALGORITHM, choices=list(ALGORITHMS))
    run.add_argument("--batch", type=int, default=1, help="minibatch size")
    run.add_argument("--epoch-len", type=int, default=None,
                     help="inner iterations per stage (default n/batch; "
                     "twice that for the SVRG baseline)")
    run.add_argument("--gamma", type=float, default=None,
                     help="outer momentum parameter (default: tuned optimum)")
    run.add_argument("--eta", type=float, default=None,
                     help="step size (default: theory value)")
    run.add_argument("--stages", type=int, default=None,
                     help="outer stages (per restart with fixed restarts)")
    run.add_argument("--restarts", type=int, default=None,
                     help="restart count for the fixed-restart variant")
    run.add_argument("--warm-m0", type=int, default=None,
                     help="initial warm-up loop length for the warm-start variant")
    run.add_argument("--warm-stages", type=int, default=None,
                     help="warm-up stage count for the warm-start variant")
    run.add_argument("--sampling", default="uniform", choices=SAMPLINGS)
    run.add_argument("--lipschitz", default=None, choices=["mean", "max"],
                     help="smoothness constant for default step sizes "
                     "(default mean; max under partition sampling)")
    run.add_argument("--lazy", default="auto", choices=["auto", "on", "off"],
                     help="sparse just-in-time updates where the algorithm has "
                     "a lazy stage (auto: with an elastic-net term, when a "
                     "per-step cost model of d, batch size, mean row nonzeros "
                     "and epoch length favours it; the trace header's "
                     "lazy_reason says why)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--budget", type=int, required=True,
                     help="component-gradient evaluation budget")
    run.add_argument("--trace", required=True, metavar="OUT.csv")
    run.add_argument("--ref", default=None, metavar="REF.json",
                     help="reference file for the gap column")

    ref = sub.add_parser("ref", help="compute a high-accuracy reference")
    _add_data_arguments(ref)
    ref.add_argument("--tol", type=float, default=1e-12,
                     help="relative stall tolerance")
    ref.add_argument("--max-stages", type=int, default=400_000)
    ref.add_argument("--out", required=True, metavar="REF.json")
    return parser


def _dataset_config(args: argparse.Namespace) -> dict:
    return {
        "data_path": args.data,
        "synthetic": parse_synthetic(args.synthetic) if args.synthetic else None,
        "dim": args.dim,
        "normalize": args.normalize is not None,
        "loss": args.loss,
        "l1": args.l1,
        "l2": args.l2,
    }


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = RunConfig(
                algo=args.algo,
                batch=args.batch,
                epoch_len=args.epoch_len,
                gamma=args.gamma,
                eta=args.eta,
                stages=args.stages,
                restarts=args.restarts,
                warm_m0=args.warm_m0,
                warm_stages=args.warm_stages,
                sampling=args.sampling,
                lipschitz=args.lipschitz,
                lazy=args.lazy,
                seed=args.seed,
                budget=args.budget,
                trace_path=args.trace,
                ref_path=args.ref,
                **_dataset_config(args),
            )
            result = run_experiment(config)
            last = result.records[-1]
            status = "diverged" if result.diverged else "done"
            print(
                f"{status}: {len(result.records) - 1} stages, "
                f"{last.evals} evals ({last.evals_over_n:.2f} passes), "
                f"objective {last.objective!r} -> {args.trace}"
            )
            return 0

        # args.command == "ref"
        problem = load_problem(
            RunConfig(algo=DEFAULT_ALGORITHM, **_dataset_config(args))
        )
        reference = compute_reference(
            problem, args.tol, max_stages=args.max_stages
        )
        save_reference(reference, problem, args.out)
        print(
            f"reference objective {reference.objective!r} "
            f"({'converged' if reference.converged else 'budget exhausted'}) "
            f"-> {args.out}"
        )
        return 0 if reference.converged else 3
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
