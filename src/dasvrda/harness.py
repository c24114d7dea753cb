"""Benchmark harness: resolve a run configuration, execute one solver with
evaluation accounting, and emit a trace.

Accounting charges component-gradient evaluations only: ``n`` per full
pass (stage anchors, objective checks of the function-restart test),
``b`` per inner iteration.  Objectives recorded in the trace are
instrumentation and are not charged.  A run stops before a stage its
budget cannot cover.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, get_type_hints

import numpy as np

from . import __version__
from .baselines import run_apg, run_pg, run_svrg
from .data_io import (SyntheticSpec, generate_synthetic, load_libsvm, normalize_rows,
                      physical_memory)
from .lazy import BLOCK_STEPS, lazy_one_stage_accsvrda
from .losses import Logistic, SmoothedHinge, Squared
from .problem import ElasticNet, Problem, make_problem, objective, products_form
from .reference import read_reference
from .sampling import IidUniform, Partition, make_rng, smoothness_weighted
from .solvers import (
    choose_S_for_rho,
    eta_default,
    gamma_star,
    one_stage_dasvrg,
    run_dasvrda_adaptive,
    run_dasvrda_ns,
    run_dasvrda_sc,
    run_dasvrda_warm,
    warm_momentum_loop_length,
    warm_stage_count,
)
from .stage_loop import noting
from .trace import TraceRecord, write_trace

#: The sampling scheme each ``--sampling`` name builds from ``(problem, b)``.
SAMPLINGS: dict[str, Callable[[Problem, int], object]] = {
    "uniform": lambda problem, b: IidUniform(problem.n),
    "weighted": lambda problem, b: smoothness_weighted(problem),
    "partition": lambda problem, b: Partition(problem.n, b),
}
LAZY_MODES = ("auto", "on", "off")
LIPSCHITZ = ("mean", "max")
DEFAULT_ALGORITHM = "dasvrda-ns"

#: Many stages; practical runs are stopped by the evaluation budget.
_UNBOUNDED = 10**9

#: Float64 ``d``-vectors a run holds at once: the largest tracemalloc peak
#: of a run, 18.1 (``dasvrda-sc`` on the dense engine's numpy skeleton;
#: 16.1 on its compiled loop and on the lazy engine, 9 for ``pg``; every
#: algorithm at d = 200000 with 20 nonzeros per row), plus 2 of headroom.
D_VECTORS = 20

#: Bytes a stage holds at once per draw of its batches, counted once more
#: per step: the largest tracemalloc peak per draw, 40 (weighted draws, on
#: either engine and path; 24 for uniform ones), plus 8 of headroom.  At
#: batch 1 the lazy engine peaks at 64 bytes per step, below the 96 counted.
DRAW_BYTES = 48

#: Per-restart contraction of the expected gap that the stage count of a
#: restarted algorithm targets when it is derived from ``l2``.
TARGET_RHO = 0.5


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    """Everything needed to reproduce one benchmark run.

    The one definition of each run setting: each field is the dest of its
    ``erm run`` option, which has no default of its own.  Exactly one of
    ``data_path`` / ``synthetic`` selects the dataset.  Optional fields
    default per algorithm at resolution time; see :func:`resolve`.
    """

    algo: str = DEFAULT_ALGORITHM
    loss: str = "squared"
    l1: float = 0.0
    l2: float = 0.0
    data_path: Optional[str] = None
    synthetic: Optional[SyntheticSpec] = None
    dim: Optional[int] = None
    normalize: bool = False
    batch: int = 1
    epoch_len: Optional[int] = None
    gamma: Optional[float] = None
    eta: Optional[float] = None
    stages: Optional[int] = None
    restarts: Optional[int] = None
    warm_m0: Optional[int] = None
    warm_stages: Optional[int] = None
    sampling: str = "uniform"
    lipschitz: Optional[str] = None
    lazy: str = "auto"
    seed: int = 0
    budget: Optional[int] = None
    trace_path: Optional[str] = None
    ref_path: Optional[str] = None


@dataclass
class ResolvedRun:
    problem: Problem
    config: RunConfig
    m: Optional[int]
    gamma: Optional[float]
    eta: float
    stages: int
    restarts: int
    #: ``(m0, n_warm)`` of a warm-started run, None for the others.
    warm: Optional[tuple[int, int]]
    #: None for an algorithm that draws no batches.
    scheme: object
    use_lazy: bool
    ref_objective: Optional[float]
    header: dict = field(default_factory=dict)


@dataclass
class RunResult:
    x: np.ndarray
    records: list[TraceRecord]
    header: dict
    diverged: bool


# ---------------------------------------------------------------------------
# Algorithm registry: everything the harness and the CLI know per algorithm.


@dataclass(frozen=True)
class Algorithm:
    """How the harness runs one algorithm and fills in its defaults.

    ``run(resolved, x0, rng, hooks)`` calls the runner; ``hooks`` holds the
    ``on_stage``/``budget`` keywords of every runner, plus ``one_stage``
    when the run uses the lazy stage.
    """

    run: Callable[..., np.ndarray]
    #: Default inner loop length is ``epoch_passes * n // batch``; 0: no
    #: inner loop, so no epoch length.
    epoch_passes: int = 1
    #: None: tuned outer momentum ``gamma_star`` and the theory step
    #: ``eta_default`` for the loop length the momentum stages run.  A
    #: number ``c``: no outer momentum, step ``1/(c L)``.
    step_divisor: Optional[float] = None
    #: Takes a restart count; the stages per restart can come from ``l2``.
    restarts: bool = False
    #: Trace and result report the running average of the stage outputs.
    averaged: bool = False
    #: Can run its inner stages on the lazy sparse engine.
    lazy: bool = False
    #: Takes a warm-up loop length and warm-up stage count.
    warm: bool = False


def _warm_start(config: RunConfig, gamma: float, m: int) -> tuple[int, int]:
    """``(m0, n_warm)`` from the config: ``m0 = 1`` and enough warm-up
    stages to grow the loop length back to ``m``, where it leaves them open."""
    m0 = 1 if config.warm_m0 is None else config.warm_m0
    if m0 < 1:
        raise ConfigError(f"warm-up loop length must be positive, got {m0}")
    n_warm = config.warm_stages
    return m0, warm_stage_count(gamma, m0, m) if n_warm is None else n_warm


def _warm(r, x0, rng, hooks):
    m0, n_warm = r.warm
    return run_dasvrda_warm(r.problem, x0, r.gamma, m0, r.config.batch, n_warm,
                            r.stages, r.scheme, rng, eta=r.eta, **hooks)


def _ns(r, x0, rng, hooks):
    return run_dasvrda_ns(r.problem, x0, x0, r.gamma, r.m, r.config.batch,
                          r.stages, r.scheme, rng, eta=r.eta, **hooks)


def _adaptive(kind: str):
    return lambda r, x0, rng, hooks: run_dasvrda_adaptive(
        r.problem, x0, r.gamma, r.m, r.config.batch, r.stages, r.scheme, rng,
        kind=kind, eta=r.eta, **hooks)


ALGORITHMS: dict[str, Algorithm] = {
    "pg": Algorithm(
        lambda r, x0, rng, hooks: run_pg(r.problem, x0, r.eta, r.stages, **hooks),
        epoch_passes=0, step_divisor=1.0, averaged=True),
    "apg": Algorithm(
        lambda r, x0, rng, hooks: run_apg(r.problem, x0, r.eta, r.stages, **hooks),
        epoch_passes=0, step_divisor=1.0),
    "svrg": Algorithm(
        lambda r, x0, rng, hooks: run_svrg(
            r.problem, x0, r.eta, r.m, r.config.batch, r.scheme, rng, r.stages,
            **hooks),
        epoch_passes=2, step_divisor=10.0, averaged=True),
    "dasvrda-ns": Algorithm(_ns, lazy=True),
    "dasvrda-sc": Algorithm(
        lambda r, x0, rng, hooks: run_dasvrda_sc(
            r.problem, x0, r.gamma, r.m, r.config.batch, r.stages, r.restarts,
            r.scheme, rng, eta=r.eta, **hooks),
        restarts=True, lazy=True),
    "dasvrda-ar-f": Algorithm(_adaptive("function"), lazy=True),
    "dasvrda-ar-g": Algorithm(_adaptive("gradient"), lazy=True),
    "dasvrda-warm": Algorithm(_warm, lazy=True, warm=True),
    "dasvrg": Algorithm(
        lambda r, x0, rng, hooks: _ns(r, x0, rng,
                                      dict(hooks, one_stage=one_stage_dasvrg))),
}


#: The settings that only some algorithms read: the ``RunConfig`` fields of
#: one option group, and the test of an algorithm that reads them.  Setting
#: one for any other algorithm is a configuration error.
SCOPED_SETTINGS: tuple[tuple[tuple[str, ...], Callable[[Algorithm], bool]], ...] = (
    (("gamma",), lambda algo: algo.step_divisor is None),
    (("epoch_len",), lambda algo: algo.epoch_passes > 0),
    (("restarts",), lambda algo: algo.restarts),
    (("warm_m0", "warm_stages"), lambda algo: algo.warm),
)


def _names_with(test: Callable[[Algorithm], bool]) -> str:
    return ", ".join(name for name, algo in ALGORITHMS.items() if test(algo))


def parse_loss(text: str):
    if text == "squared":
        return Squared()
    if text == "logistic":
        return Logistic()
    name, _, tail = text.partition(":")
    if name != "smoothed-hinge":
        raise ConfigError(f"unknown loss {text!r}")
    if not tail:
        raise ConfigError("smoothed-hinge needs a width, e.g. smoothed-hinge:0.5")
    try:
        return SmoothedHinge(float(tail))
    except ValueError as exc:
        raise ConfigError(f"bad smoothed-hinge width {tail!r}: {exc}") from None


def parse_synthetic(text: str) -> SyntheticSpec:
    """Parse ``kind:key=value,...``, e.g. ``lasso:n=200,d=50,density=0.3``;
    the keys are the other fields of :class:`SyntheticSpec`, of their types."""
    kind, _, tail = text.partition(":")
    fields = {}
    if tail:
        for part in tail.split(","):
            key, sep, value = part.partition("=")
            if not sep:
                raise ConfigError(f"bad synthetic parameter {part!r}")
            fields[key.strip()] = value.strip()
    types = get_type_hints(SyntheticSpec)
    kwargs = {}
    for key, value in fields.items():
        if key == "kind" or key not in types:
            raise ConfigError(f"unknown synthetic parameter {key!r}")
        try:
            kwargs[key] = types[key](value)
        except ValueError:
            raise ConfigError(f"bad value for synthetic {key}: {value!r}") from None
    if "n" not in kwargs or "d" not in kwargs:
        raise ConfigError("synthetic spec needs at least n and d")
    try:
        return SyntheticSpec(kind=kind, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_problem(config: RunConfig) -> Problem:
    """Load or generate the configured dataset and bind it to the loss and
    the elastic net."""
    if (config.data_path is None) == (config.synthetic is None):
        raise ConfigError("exactly one of data_path/synthetic must be given")
    loss = parse_loss(config.loss)
    if config.data_path is not None:
        try:
            data = load_libsvm(
                config.data_path, dim=config.dim, binary_labels=loss.classification
            )
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
    # Checked before anything of length d is allocated.
    d = config.synthetic.d if config.data_path is None else data.d
    need, have = 8 * D_VECTORS * d, physical_memory()
    if have is not None and need > have:
        raise ConfigError(f"d={d} needs {D_VECTORS} float64 vectors of length d, "
                          f"{need} bytes, above {have} bytes of physical memory")
    if config.data_path is None:
        data, _ = generate_synthetic(config.synthetic)
    if config.normalize:
        data = normalize_rows(data)
    try:
        return make_problem(data, loss, ElasticNet(config.l1, config.l2))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# Per-step cost model of the two inner-stage engines, in microseconds per
# inner iteration: the constants times the terms of ``engine_terms``.  The
# dense step pays a fixed overhead, every coordinate
# (prox and vector updates) and the batch's nonzeros ("entries"); the lazy
# step pays a fixed overhead (a few dozen array operations), each column of
# its block's union (its arrays' size, and its share of the block's
# catch-up), the entries, and its share of the final O(d) sweep.  Fitted by
# relative least squares to one-stage timings of both engines on 36
# logistic problems with n=4000: d from 500 to 400000, 5 to 500 nonzeros
# per row, b in {16, 71, 400}, m = n/b (one thread of a 2-vCPU x86-64 VM,
# numpy 2.4; ``python tools/fit_engine.py engine`` repeats it).  The lazy
# constants are from the refit after the lazy stage moved to blocks; the
# dense constants, timed again on the csr form of the batch products, pick
# the faster engine as often as refitted ones do (35 of 36 points), so they
# were kept.
#: Per step, per union column, per entry, per swept coordinate.
LAZY_US = (58.6, 0.0307, 0.0665, 0.285)
#: Per step, per coordinate, per entry.
DENSE_US = (42.5, 0.0184, 0.0100)


def engine_terms(d: int, entries: float, m: int) -> tuple[tuple, tuple]:
    """The lazy and dense step's terms, in the order of ``LAZY_US`` and
    ``DENSE_US``, from ``d``, a batch's expected entries and the loop length."""
    # Expected distinct columns hit by the entries of a lazy block of
    # batches, spread uniformly over the d columns.
    union = -d * math.expm1(-BLOCK_STEPS * entries / d) if d else 0.0
    return (1.0, union, entries, d / m), (1.0, d, entries)


def modelled_us(constants: tuple[float, ...], terms: tuple[float, ...]) -> float:
    """Modelled microseconds of one step: each constant times its term."""
    return sum(c * t for c, t in zip(constants, terms))


def choose_engine(
    config: RunConfig, algo: Algorithm, problem: Problem, m: int
) -> tuple[bool, str]:
    """Whether the inner stages run on the lazy engine, and why.

    ``auto`` picks the engine whose modelled step is cheaper, from ``d``,
    the batch size, the mean row nonzeros and the loop length ``m``; the
    reason gives both modelled steps, so it repeats exactly.
    """
    if config.lazy != "auto":
        return config.lazy == "on", config.lazy
    if not algo.lazy:
        return False, f"auto: {config.algo} has no lazy stage -> dense"
    if config.l1 == 0 and config.l2 == 0:
        return False, "auto: no elastic-net term -> dense"
    entries = config.batch * problem.data.features.nnz / problem.n
    lazy, dense = engine_terms(problem.d, entries, m)
    lazy_us, dense_us = modelled_us(LAZY_US, lazy), modelled_us(DENSE_US, dense)
    use = lazy_us < dense_us
    return use, (f"auto: modelled {lazy_us:.0f} us lazy, {dense_us:.0f} us dense "
                 f"per step -> {'lazy' if use else 'dense'}")


def resolve(config: RunConfig) -> ResolvedRun:
    """Fill in every defaulted parameter and validate the combination."""
    algo = ALGORITHMS.get(config.algo)
    if algo is None:
        raise ConfigError(f"unknown algorithm {config.algo!r}")
    for fields, reads in SCOPED_SETTINGS:
        if not reads(algo) and any(getattr(config, f) is not None for f in fields):
            flags = "/".join("--" + f.replace("_", "-") for f in fields)
            verb = "apply" if len(fields) > 1 else "applies"
            raise ConfigError(f"{flags} only {verb} to {_names_with(reads)}")
    if config.sampling not in SAMPLINGS:
        raise ConfigError(f"unknown sampling {config.sampling!r}")
    if config.lazy not in LAZY_MODES:
        raise ConfigError(f"lazy must be {'/'.join(LAZY_MODES)}, got {config.lazy!r}")
    if config.lazy == "on" and not algo.lazy:
        raise ConfigError(
            f"--lazy on: {config.algo} cannot use the lazy stage; only "
            f"{_names_with(lambda algo: algo.lazy)} can"
        )
    if config.dim is not None and config.synthetic is not None:
        raise ConfigError("--dim only applies to --data")
    if config.budget is None and config.stages is None:
        raise ConfigError("need a budget or an explicit stage count")
    if config.budget is not None and config.budget < 1:
        raise ConfigError(f"budget must be positive, got {config.budget}")
    if config.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {config.seed}")

    problem = load_problem(config)
    n, b = problem.n, config.batch
    if not 1 <= b <= n:
        raise ConfigError(f"batch size {b} out of range for n={n}")

    if config.epoch_len is not None:
        m = config.epoch_len
        if m < 1:
            raise ConfigError(f"epoch length must be positive, got {m}")
    else:
        m = max(1, (algo.epoch_passes * n) // b) if algo.epoch_passes else None

    scheme = None
    if algo.epoch_passes:   # an algorithm that draws batches
        try:
            scheme = SAMPLINGS[config.sampling](problem, b)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    lipschitz = config.lipschitz
    if lipschitz is None:
        lipschitz = "max" if config.sampling == "partition" else "mean"
    if lipschitz not in LIPSCHITZ:
        raise ConfigError(
            f"lipschitz must be {' or '.join(LIPSCHITZ)}, got {lipschitz!r}")
    smooth = (
        problem.mean_smoothness if lipschitz == "mean" else problem.max_smoothness
    )

    gamma = config.gamma
    eta = config.eta
    if algo.step_divisor is None:
        if gamma is None:
            gamma = gamma_star(m, b)
        elif not 1 < gamma < math.inf:
            raise ConfigError(
                f"momentum parameter must be finite and exceed 1, got {gamma}")
    # The inner loop length of the momentum stages, which the default step
    # and the trace header's ``epoch_len`` use.
    warm = _warm_start(config, gamma, m) if algo.warm else None
    loop = warm_momentum_loop_length(gamma, *warm) if warm else m
    # Checked before a stage draws its batches, for the longest loop.
    need, have = DRAW_BYTES * (loop or 0) * (b + 1), physical_memory()
    if have is not None and need > have:
        raise ConfigError(f"epoch length {m} runs stages of {loop} steps of "
                          f"batch {b}, whose draws need {need} bytes, "
                          f"above {have} bytes of physical memory")
    if eta is None:
        if algo.step_divisor is None:
            eta = eta_default(gamma, loop, b, smooth)
        else:
            eta = 1.0 / (algo.step_divisor * smooth)
    if not 0 < eta < math.inf:
        raise ConfigError(f"step size must be finite and positive, got {eta}")

    stages = config.stages
    restarts = config.restarts
    if algo.restarts:
        if stages is None:
            if config.l2 <= 0:
                raise ConfigError(
                    f"{config.algo} needs --stages, or positive l2 so the stage "
                    "count per restart can be derived from the target "
                    "contraction"
                )
            stages = choose_S_for_rho(gamma, eta, m, config.l2, TARGET_RHO)
        if restarts is None:
            restarts = _UNBOUNDED if config.budget is not None else 1
    else:
        restarts = 1
        if stages is None:
            stages = _UNBOUNDED
    if stages < 1:
        raise ConfigError(f"stage count must be positive, got {stages}")
    if restarts < 1:
        raise ConfigError(f"restart count must be positive, got {restarts}")

    use_lazy, lazy_reason = choose_engine(config, algo, problem, m)

    ref_objective = None
    if config.ref_path is not None:
        try:
            ref_objective = read_reference(config.ref_path, problem).objective
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    run = ResolvedRun(
        problem=problem,
        config=config,
        m=m,
        gamma=gamma,
        eta=eta,
        stages=stages,
        restarts=restarts,
        warm=warm,
        scheme=scheme,
        use_lazy=use_lazy,
        ref_objective=ref_objective,
    )
    run.header = {
        "version": __version__,
        "algo": config.algo,
        "loss": config.loss,
        "l1": config.l1,
        "l2": config.l2,
        "data": config.data_path
        or f"synthetic:{config.synthetic.kind}:seed={config.synthetic.seed}",
        "normalize": config.normalize,
        "n": n,
        "d": problem.d,
        "nnz": int(problem.data.features.nnz),
        "batch": b,
        "epoch_len": loop,
        "gamma": gamma,
        "eta": eta,
        "stages": None if stages == _UNBOUNDED else stages,
        "restarts": restarts if algo.restarts and restarts != _UNBOUNDED else None,
        "warm_m0": warm[0] if warm else None,
        "warm_stages": warm[1] if warm else None,
        "sampling": config.sampling,
        "lipschitz": lipschitz,
        "lazy": use_lazy,
        "lazy_reason": lazy_reason,
        "products": products_form(problem.data.features),
        "seed": config.seed,
        "generator": "pcg64",
        "budget": config.budget,
        "reference": config.ref_path,
    }
    return run


class _Diverged(Exception):
    pass


def run_experiment(config: RunConfig) -> RunResult:
    """Execute one configured run and (optionally) write its trace file."""
    run = resolve(config)
    problem = run.problem
    cfg = run.config
    algo = ALGORITHMS[cfg.algo]
    rng = make_rng(cfg.seed)
    x0 = np.zeros(problem.d)
    records: list[TraceRecord] = []
    t0 = time.perf_counter()
    ref = run.ref_objective
    n = problem.n

    avg_sum = np.zeros(problem.d)
    avg_count = 0
    evals_total = 0
    diverged = False

    def record(stage: int, point: np.ndarray, evals: int, restarted: bool) -> None:
        nonlocal evals_total, avg_sum, avg_count, diverged
        evals_total += evals
        if algo.averaged and stage > 0:
            avg_sum += point
            avg_count += 1
            measured = avg_sum / avg_count
        else:
            measured = point
        p = objective(problem, measured)
        records.append(TraceRecord(
            stage, evals_total, evals_total / n, p, None if ref is None else p - ref,
            time.perf_counter() - t0, restarted))
        if not np.isfinite(p):
            diverged = True
            raise _Diverged

    hooks = dict(on_stage=record, budget=cfg.budget)
    if run.use_lazy:
        hooks["one_stage"] = lazy_one_stage_accsvrda
    with noting() as loops:
        try:
            record(0, x0, 0, False)
            x = algo.run(run, x0, rng, hooks)
        except _Diverged:
            x = x0
    # Set from the stages that ran, so it says what this machine ran.
    run.header["loop"] = "; ".join(sorted(loops)) or (
        "none: lazy engine" if run.use_lazy else "none: no dense stage ran")

    if cfg.trace_path is not None:
        write_trace(cfg.trace_path, run.header, records)
    return RunResult(x=x, records=records, header=run.header, diverged=diverged)


def learning_rate_grid(base: float = 1.0) -> list[float]:
    """The sweep grid {1,2,5} x 10^p, p in {-2..2}, scaled by ``base``."""
    return sorted(base * c * 10.0**p for p in range(-2, 3) for c in (1, 2, 5))
