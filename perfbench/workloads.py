"""The benchmark's workloads: one solver configuration each, a gap target,
an evaluation budget, and the pinned reference objective of its problem.

Every workload runs on one fixed problem.  The workload seed becomes the
solver's sampling seed (``RunConfig.seed``); the data stay pinned because
the data seed of these generators moves passes-to-gap far more than any
code change would (on the acceptance-10 family, data seeds 3..6 need from
62 to more than 160 passes to reach gap 1e-6), which would turn
``passes_to_gap`` and ``time_to_gap_s`` into functions of the seed.

Step sizes are explicit floats: ten times the theory default
(``eta_default`` at the resolved gamma/m/b), which is an entry of
``learning_rate_grid`` of the theory value.  Pinning them keeps each
workload fixed when the program's defaults change.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable[[str], object]   # output dir -> RunConfig (seed 0)
    target_gap: float
    #: Bench-owned content digest of the problem -> reference objective.
    pinned_reference: dict
    #: Final objective of the default-seed (0) run, pinned to catch a
    #: change of trajectory.
    pinned_final: float
    prepare: Optional[Callable[[str], None]] = None
    #: Name of the workload whose configuration, with this workload's
    #: budget, must reproduce this one's objectives stage by stage.
    companion: Optional[str] = None


#: Reference objectives from ``compute_reference(problem, 1e-13)``, keyed
#: by :func:`problem_digest`.  A seed-0 run on a problem missing here
#: computes them and reports digest, reference and final objective in
#: ``.perfbench_out/<workload>-trace0.json``.
ACCEPTANCE10_REFERENCE = {
    "020294e2e3fcd3b99947e49497bfaef33a0e300a3cf433159512471c707abc87":
        0.5724714207151348,
}


def _acceptance10(lazy: str, budget_passes: int):
    def build(out_dir: str):
        from dasvrda import RunConfig, SyntheticSpec

        return RunConfig(
            algo="dasvrda-sc",
            loss="logistic",
            l1=1e-4,
            l2=1e-6,
            synthetic=SyntheticSpec(
                kind="ridge-logistic", n=5000, d=500, density=0.02,
                sparsity=10, seed=3,
            ),
            batch=71,
            stages=10,
            sampling="weighted",
            lazy=lazy,
            eta=0.8883541775223089,
            budget=budget_passes * 5000,
        )

    return build


# -- high-dimensional svmlight file -----------------------------------------

HIGHD_N = 4000
HIGHD_D = 100_000
HIGHD_ROW_NNZ = 20
HIGHD_DATA_SEED = 11


def highd_path(out_dir: str) -> str:
    return os.path.join(
        out_dir,
        f"highd-n{HIGHD_N}-d{HIGHD_D}-k{HIGHD_ROW_NNZ}-s{HIGHD_DATA_SEED}.svm",
    )


def write_highd(out_dir: str) -> None:
    """Write the high-d logistic problem as an svmlight file.

    Each row draws ``HIGHD_ROW_NNZ`` distinct columns uniformly and
    Gaussian values scaled to unit expected row norm; labels follow a
    logistic model around a dense Gaussian ground truth.  Nothing of size
    ``n * d`` is ever built.
    """
    rng = np.random.default_rng(HIGHD_DATA_SEED)
    n, d, k = HIGHD_N, HIGHD_D, HIGHD_ROW_NNZ
    cols = np.stack([np.sort(rng.choice(d, k, replace=False)) for _ in range(n)])
    vals = rng.standard_normal((n, k)) / np.sqrt(k)
    truth = rng.standard_normal(d)
    margin = (vals * truth[cols]).sum(axis=1)
    prob_pos = 1.0 / (1.0 + np.exp(-margin))
    labels = np.where(rng.random(n) < prob_pos, 1, -1)
    path = highd_path(out_dir)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        for i in range(n):
            fields = " ".join(
                f"{int(c) + 1}:{float(v)!r}" for c, v in zip(cols[i], vals[i])
            )
            handle.write(f"{int(labels[i])} {fields}\n")
    os.replace(tmp, path)


def _highd(out_dir: str):
    from dasvrda import RunConfig

    return RunConfig(
        algo="dasvrda-ar-g",
        loss="logistic",
        l1=1e-4,
        l2=1e-5,
        data_path=highd_path(out_dir),
        dim=HIGHD_D,
        batch=16,
        sampling="uniform",
        lazy="auto",
        eta=0.8234794200304141,
        budget=8 * HIGHD_N,
    )


def _dense_lasso(out_dir: str):
    from dasvrda import RunConfig, SyntheticSpec

    return RunConfig(
        algo="dasvrda-ar-f",
        loss="squared",
        l1=1e-3,
        synthetic=SyntheticSpec(kind="lasso", n=20000, d=500, density=1.0, seed=7),
        batch=2000,
        sampling="partition",
        lazy="auto",
        eta=0.01424681268947148,
        budget=78 * 20000,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse-lazy",
            why=(
                "acceptance-10 problem under the default lazy=auto engine: "
                "per-coordinate catch-ups do the work, vr_gradient is never called"
            ),
            # Gap 1e-6 falls at 59.8..65.8 passes over the 43 seeds tried.
            config=_acceptance10("auto", 70),
            target_gap=1e-6,
            pinned_reference=ACCEPTANCE10_REFERENCE,
            pinned_final=0.5724720156641594,
            companion="sparse-dense",
        ),
        Workload(
            name="sparse-dense",
            why=(
                "same problem with lazy=off: the small-batch dense path, row "
                "gather plus two transposed products per iteration; lazy engine bypassed"
            ),
            # Gap 1e-8 falls at 115.7..117.6 passes over the 28 seeds tried.
            config=_acceptance10("off", 160),
            target_gap=1e-8,
            pinned_reference=ACCEPTANCE10_REFERENCE,
            pinned_final=0.5724714209529348,
        ),
        Workload(
            name="highd-svmlight",
            why=(
                "d=100000, 20 nonzeros per row, loaded from svmlight: the regime "
                "the lazy engine targets, its O(d) sweep against dense O(d) per step"
            ),
            # Stages cost two passes; the gap is about 5.6e-4 after the
            # second and 1.8e-4 after the third on all 28 seeds tried.
            config=_highd,
            target_gap=3e-4,
            pinned_reference={
                "ab6b479b197518d25b06a9bbb68f3697a6b0c6c3becf4a3d5688b62a09ecb1e6":
                    0.6907461579212996,
            },
            pinned_final=0.6907942081730486,
            prepare=write_highd,
        ),
        Workload(
            name="dense-lasso",
            why=(
                "dense n=20000 lasso with b=2000: full passes, large-batch gathers "
                "and memory bandwidth dominate, not per-call overhead"
            ),
            # Gap 1e-8 falls at 66 passes on all 18 seeds tried.
            config=_dense_lasso,
            target_gap=1e-8,
            pinned_reference={
                "7cd7b5265f9cefb11dfedac51949a414646243bb29da3a0476a4d1b7548bbf07":
                    0.014593401194124798,
            },
            pinned_final=0.014593401875689964,
        ),
    )
}


def problem_digest(problem) -> str:
    """Content digest of a problem computed by the benchmark itself, so the
    pinned references do not depend on the program's own fingerprint.
    Arrays are hashed in fixed dtypes, so an index-width change is not a
    new problem."""
    feats = problem.data.features
    h = hashlib.sha256()
    h.update(repr(feats.shape).encode())
    for arr, dtype in (
        (feats.indptr, np.int64),
        (feats.indices, np.int64),
        (feats.data, np.float64),
        (problem.data.labels, np.float64),
    ):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    h.update(
        f"{type(problem.loss).__name__}:{problem.reg.l1!r}:{problem.reg.l2!r}".encode()
    )
    return h.hexdigest()
