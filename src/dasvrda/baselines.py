"""Reference first-order methods: proximal gradient, accelerated proximal
gradient, and minibatch prox-SVRG.

These share the problem/sampling plumbing with the dual-averaging solvers
and serve both as benchmark baselines and as ingredients of the
high-accuracy reference solutions.

Conventions shared by every runner in the package:

* ``on_stage(stage, x, evals, restarted)`` is invoked once per outer stage
  with the stage iterate and the number of component-gradient evaluations
  that stage consumed (one full pass costs ``n``, one inner iteration
  costs ``b``).
* ``budget`` is a cap on total evaluations; a runner stops before starting
  a stage it cannot afford, so it never overdraws.

A runner keeps both in one :class:`Ledger`, which also numbers the stages
across warm-up, restarts and momentum phases.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

# ``prox_elastic_net`` is looked up on its module at each call, so that a
# wrapper installed there (the per-layer tracer, ``perfbench/tracer.py``)
# sees every prox.
from . import problem as problem_module
from .problem import Problem, full_gradient
# ``vr_gradient`` stays a name of this module for the per-layer tracer
# (``perfbench/tracer.py``), which wraps it here; the stage takes the
# estimator's parts through :mod:`~dasvrda.stage_loop`.
from .sampling import SamplingScheme, draw_batch, make_anchor, vr_gradient  # noqa: F401
from .stage_loop import SVRG, run_stage

StageHook = Callable[[int, np.ndarray, int, bool], None]


class Ledger:
    """Evaluation budget, evaluations spent and global stage number of one
    run; every stage a runner completes is charged here."""

    def __init__(self, budget: Optional[int], on_stage: Optional[StageHook]) -> None:
        self.budget = budget
        self.on_stage = on_stage
        self.spent = 0
        self.stage = 0

    def affords(self, cost: int) -> bool:
        return self.budget is None or self.spent + cost <= self.budget

    def charge(self, x: np.ndarray, cost: int, restarted: bool = False) -> None:
        """Book one completed stage and report it to ``on_stage``."""
        self.spent += cost
        self.stage += 1
        if self.on_stage is not None:
            self.on_stage(self.stage, x, cost, restarted)


def one_stage_pg(problem: Problem, x: np.ndarray, eta: float) -> np.ndarray:
    """One proximal gradient step ``prox_{eta R}(x - eta * grad F(x))``."""
    return problem_module.prox_elastic_net(
        x - eta * full_gradient(problem, x), eta, problem.reg)


def run_pg(
    problem: Problem,
    x0: np.ndarray,
    eta: float,
    n_stages: int,
    *,
    on_stage: Optional[StageHook] = None,
    budget: Optional[int] = None,
) -> np.ndarray:
    """Proximal gradient descent; returns the average of the stage iterates."""
    ledger = Ledger(budget, on_stage)
    x = np.asarray(x0, dtype=np.float64).copy()
    total = np.zeros_like(x)
    for _ in range(n_stages):
        if not ledger.affords(problem.n):
            break
        x = one_stage_pg(problem, x, eta)
        total += x
        ledger.charge(x, problem.n)
    return total / ledger.stage if ledger.stage else x


def run_apg(
    problem: Problem,
    x0: np.ndarray,
    eta: float,
    n_stages: int,
    *,
    restart: Optional[Callable[[np.ndarray], bool]] = None,
    on_stage: Optional[StageHook] = None,
    budget: Optional[int] = None,
) -> np.ndarray:
    """Accelerated proximal gradient with momentum weights (s+1)/2.

    The lookahead point is ``x_s + ((theta_{s-1}-1)/theta_s) (x_s - x_{s-1})``
    with ``theta_0 = 0``; returns the last iterate.  When ``restart(x_s)``
    fires, the history collapses onto ``x_s``, ``s`` rewinds and the stage
    is flagged.
    """
    ledger = Ledger(budget, on_stage)
    x = np.asarray(x0, dtype=np.float64).copy()
    x_prev = x.copy()
    theta_prev = 0.0
    s = 0
    for _ in range(n_stages):
        if not ledger.affords(problem.n):
            break
        s += 1
        theta = (s + 1) / 2.0
        y = x + ((theta_prev - 1.0) / theta) * (x - x_prev)
        x_prev = x
        x = one_stage_pg(problem, y, eta)
        theta_prev = theta
        fired = restart is not None and restart(x)
        if fired:
            x_prev, theta_prev, s = x, 0.0, 0
        ledger.charge(x, problem.n, fired)
    return x


InnerHook = Callable[[int, dict], None]


def one_stage_svrg(
    problem: Problem,
    x_anchor: np.ndarray,
    eta: float,
    m: int,
    b: int,
    scheme: SamplingScheme,
    rng: np.random.Generator,
    *,
    on_iterate: Optional[InnerHook] = None,
) -> np.ndarray:
    """One SVRG stage: ``m`` prox steps with variance-reduced gradients.

    Anchored at ``x_anchor``; returns the average of the inner iterates.
    """
    if m < 1:
        raise ValueError(f"need at least one inner iteration, got m={m}")
    anchor = make_anchor(problem, x_anchor)
    idx = draw_batch(scheme, rng, b, m)
    _, total = run_stage(SVRG, problem, anchor, scheme, idx, anchor.x, eta, on_iterate)
    total /= m
    return total


def run_svrg(
    problem: Problem,
    x0: np.ndarray,
    eta: float,
    m: int,
    b: int,
    scheme: SamplingScheme,
    rng: np.random.Generator,
    n_stages: int,
    *,
    on_stage: Optional[StageHook] = None,
    budget: Optional[int] = None,
) -> np.ndarray:
    """Multi-stage SVRG; each stage re-anchors at the previous stage's
    average, and the overall output averages the stage outputs."""
    ledger = Ledger(budget, on_stage)
    x = np.asarray(x0, dtype=np.float64).copy()
    total = np.zeros_like(x)
    cost = problem.n + m * b
    for _ in range(n_stages):
        if not ledger.affords(cost):
            break
        x = one_stage_svrg(problem, x, eta, m, b, scheme, rng)
        total += x
        ledger.charge(x, cost)
    return total / ledger.stage if ledger.stage else x
