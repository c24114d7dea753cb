"""Doubly accelerated variance-reduced dual averaging solvers.

The family combines four ingredients:

* an inner stage (:func:`one_stage_accsvrda`) that runs ``m`` accelerated
  dual-averaging steps on variance-reduced gradients, anchored at a
  snapshot point where the full gradient was computed once;
* outer momentum across stages (:func:`outer_momentum`) with weights
  controlled by a parameter ``gamma > 1`` (the analysis assumes
  ``gamma >= 3``);
* optional restarting for strongly convex objectives, either on a fixed
  schedule (:func:`run_dasvrda_sc`) or adaptively from observed progress
  (:func:`run_dasvrda_adaptive`);
* an optional warm-up phase with geometrically growing inner loops
  (:func:`run_dasvrda_warm`) that removes the dependence of the complexity
  on the initial objective gap.

:func:`one_stage_dasvrg` is the non-accelerated dual-averaging sibling:
identical inner loop except that its prox step starts from the previous
dual point rather than the stage's starting point, and uses the plain
current gradient estimate instead of the running weighted average.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .problem import Problem, objective
from .baselines import InnerHook, Ledger, StageHook
# ``vr_gradient`` stays a name of this module for the per-layer tracer
# (``perfbench/tracer.py``), which wraps it here; the stages take the
# estimator's parts through :mod:`~dasvrda.stage_loop`.
from .sampling import SamplingScheme, draw_batch, make_anchor, vr_gradient  # noqa: F401
# The inner weights live with the stages' steps; this module still names
# them, for the lazy engine and the package's API.
from .stage_loop import ACC, DASVRG, run_stage, theta_inner, theta_pair  # noqa: F401


# ---------------------------------------------------------------------------
# Momentum schedules.


def theta_outer(gamma: float, s: int) -> float:
    """Outer momentum weight ``(1 - 1/gamma) * (s + 2) / 2`` for ``s >= 0``."""
    if s < 0:
        raise ValueError(f"stage index must be nonnegative, got {s}")
    return (1.0 - 1.0 / gamma) * (s + 2) / 2.0


def gamma_star(m: int, b: int) -> float:
    """Momentum parameter minimizing the stage-complexity constant.

    Minimizes ``(1 + gamma (m+1)/b) / (1 - 1/gamma)**2`` over ``gamma``;
    the closed form is the positive root of the resulting quadratic and is
    always greater than 3.
    """
    if m < 1 or b < 1:
        raise ValueError(f"need m >= 1 and b >= 1, got m={m}, b={b}")
    return (3.0 + math.sqrt(9.0 + 8.0 * b / (m + 1))) / 2.0


def eta_default(gamma: float, m: int, b: int, mean_smoothness: float) -> float:
    """Theory step size ``1 / ((1 + gamma (m+1)/b) * L)``.

    ``mean_smoothness`` should be the average of the per-example smoothness
    constants when sampling proportionally to them, or the maximum when
    sampling uniformly / by partition.
    """
    if mean_smoothness <= 0:
        raise ValueError(f"smoothness constant must be positive, got {mean_smoothness}")
    if m < 1 or b < 1 or gamma <= 0:
        raise ValueError(f"invalid schedule parameters m={m}, b={b}, gamma={gamma}")
    return 1.0 / ((1.0 + gamma * (m + 1) / b) * mean_smoothness)


def _check_gamma(gamma: float) -> None:
    if gamma <= 1:
        raise ValueError(f"momentum parameter must exceed 1, got gamma={gamma}")
    if gamma < 3:
        warnings.warn(
            f"gamma={gamma} is below 3, outside the regime covered by the "
            "convergence analysis; proceeding anyway",
            RuntimeWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# Inner stages.


def one_stage_accsvrda(
    problem: Problem,
    y_start: np.ndarray,
    x_anchor: np.ndarray,
    eta: float,
    m: int,
    b: int,
    scheme: SamplingScheme,
    rng: np.random.Generator,
    *,
    on_iterate: Optional[InnerHook] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One accelerated dual-averaging stage with variance reduction.

    Starting from ``y_start`` (both primal and dual iterates) and anchored
    at ``x_anchor`` (one full gradient), runs ``m`` iterations::

        y_k    = (1 - 1/theta_k) x_{k-1} + (1/theta_k) z_{k-1}
        g_k    = variance-reduced gradient at y_k
        gbar_k = (1 - 1/theta_k) gbar_{k-1} + (1/theta_k) g_k
        z_k    = prox_{eta theta_k theta_{k-1} R}(z_0 - eta theta_k theta_{k-1} gbar_k)
        x_k    = (1 - 1/theta_k) x_{k-1} + (1/theta_k) z_k

    and returns ``(x_m, z_m)``.  The dual update always steps from the
    stage's starting point ``z_0``, not from ``z_{k-1}``.
    """
    if m < 1:
        raise ValueError(f"need at least one inner iteration, got m={m}")
    anchor = make_anchor(problem, x_anchor)
    idx = draw_batch(scheme, rng, b, m)
    return run_stage(ACC, problem, anchor, scheme, idx, y_start, eta, on_iterate)


def one_stage_dasvrg(
    problem: Problem,
    y_start: np.ndarray,
    x_anchor: np.ndarray,
    eta: float,
    m: int,
    b: int,
    scheme: SamplingScheme,
    rng: np.random.Generator,
    *,
    on_iterate: Optional[InnerHook] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Non-accelerated sibling of :func:`one_stage_accsvrda`.

    Same interpolation and gradient estimator, but the dual step moves from
    the previous dual point using only the newest gradient::

        z_k = prox_{eta theta_{k-1} R}(z_{k-1} - eta theta_{k-1} g_k)

    For ``m = 1`` the two stages coincide; they differ from the second
    iteration on.
    """
    if m < 1:
        raise ValueError(f"need at least one inner iteration, got m={m}")
    anchor = make_anchor(problem, x_anchor)
    idx = draw_batch(scheme, rng, b, m)
    return run_stage(DASVRG, problem, anchor, scheme, idx, y_start, eta, on_iterate)


OneStageFn = Callable[..., tuple[np.ndarray, np.ndarray]]


# ---------------------------------------------------------------------------
# Outer loop (non-strongly-convex variant).


@dataclass
class OuterState:
    """Everything the outer momentum step needs from previous stages."""

    x_prev: np.ndarray    # latest stage output
    x_prev2: np.ndarray   # the one before it
    z_prev: np.ndarray    # latest dual output


def outer_momentum(state: OuterState, gamma: float, s: int) -> np.ndarray:
    """Lookahead point for stage ``s`` from the two previous stage outputs
    and the previous dual point::

        x_prev + ((th_prev - 1) / th) (x_prev - x_prev2) + (th_prev / th) (z_prev - x_prev)

    summed left to right, in two ``d``-vectors."""
    th_prev = theta_outer(gamma, s - 1)
    th = theta_outer(gamma, s)
    y = np.subtract(state.x_prev, state.x_prev2)
    y *= (th_prev - 1.0) / th
    y += state.x_prev
    pull = np.subtract(state.z_prev, state.x_prev)
    pull *= th_prev / th
    y += pull
    return y


def _stage_cost(problem: Problem, m: int, b: int) -> int:
    return problem.n + m * b


def _momentum_loop(
    problem: Problem,
    x0: np.ndarray,
    z0: np.ndarray,
    gamma: float,
    m: int,
    b: int,
    n_stages: int,
    scheme: SamplingScheme,
    rng: np.random.Generator,
    eta: float,
    one_stage: Optional[OneStageFn],
    ledger: Ledger,
    restarted: bool = False,
    restart: Union[Callable[[np.ndarray], bool], str, None] = None,
    extra_cost: int = 0,
) -> np.ndarray:
    """Up to ``n_stages`` momentum stages charged to ``ledger``, each at
    ``extra_cost`` more than its anchor and steps; returns the last output.

    ``restarted`` flags the first stage.  When the restart test fires after
    stage ``s``, counted from the last restart, the history collapses onto
    its output ``x_new``, ``s`` rewinds and the stage is flagged.  The test
    is ``restart(x_new)``, or for ``restart="gradient"`` the gradient test
    ``(y_s - x_new) @ (y_{s+1} - x_new) > 0``, whose lookahead ``y_{s+1}`` of
    the unrestarted history is the next stage's start when it does not
    fire.
    """
    if one_stage is None:
        one_stage = one_stage_accsvrda
    # Copies held by the state alone, so each is freed once the history
    # moves past it.
    state = OuterState(x_prev=np.array(x0, dtype=np.float64),
                       x_prev2=np.array(z0, dtype=np.float64),
                       z_prev=np.array(z0, dtype=np.float64))
    cost = _stage_cost(problem, m, b) + extra_cost
    s, y_next = 0, None
    for t in range(n_stages):
        if not ledger.affords(cost):
            break
        s += 1
        y = outer_momentum(state, gamma, s) if y_next is None else y_next
        x_new, z_new = one_stage(problem, y, state.x_prev, eta, m, b, scheme, rng)
        state_next = OuterState(x_prev=x_new, x_prev2=state.x_prev, z_prev=z_new)
        if restart == "gradient":
            y_next = outer_momentum(state_next, gamma, s + 1)
            fired = float((y - x_new) @ (y_next - x_new)) > 0.0
        else:
            fired = restart is not None and restart(x_new)
        if fired:
            state = OuterState(x_prev=x_new, x_prev2=x_new.copy(), z_prev=x_new.copy())
            s, y_next = 0, None
        else:
            state = state_next
        ledger.charge(x_new, cost, fired or (restarted and t == 0))
    return state.x_prev


def run_dasvrda_ns(
    problem: Problem,
    x0: np.ndarray,
    z0: np.ndarray,
    gamma: float,
    m: int,
    b: int,
    n_stages: int,
    scheme: SamplingScheme,
    rng: np.random.Generator,
    *,
    eta: Optional[float] = None,
    one_stage: Optional[OneStageFn] = None,
    on_stage: Optional[StageHook] = None,
    budget: Optional[int] = None,
) -> np.ndarray:
    """Momentum over variance-reduced dual-averaging stages; returns the
    last stage output.

    This is the general convex variant: no restarts, outer weights growing
    linearly in the stage index.  ``eta`` defaults to the theory step size
    with the mean smoothness constant.
    """
    _check_gamma(gamma)
    if eta is None:
        eta = eta_default(gamma, m, b, problem.mean_smoothness)
    return _momentum_loop(problem, x0, z0, gamma, m, b, n_stages, scheme, rng,
                          eta, one_stage, Ledger(budget, on_stage))


# ---------------------------------------------------------------------------
# Restarted variants for strongly convex objectives.


def run_dasvrda_sc(
    problem: Problem,
    x0: np.ndarray,
    gamma: float,
    m: int,
    b: int,
    n_stages: int,
    n_restarts: int,
    scheme: SamplingScheme,
    rng: np.random.Generator,
    *,
    eta: Optional[float] = None,
    one_stage: Optional[OneStageFn] = None,
    on_stage: Optional[StageHook] = None,
    budget: Optional[int] = None,
) -> np.ndarray:
    """Fixed-schedule restarting: ``n_restarts`` runs of ``n_stages`` stages
    each, every run started from the previous run's output.

    For strongly convex objectives, choosing ``n_stages`` via
    :func:`choose_S_for_rho` makes every restart contract the expected
    objective gap by a fixed factor.  Stage hooks see a global stage index
    and a restart flag on the first stage of every run after the first.
    """
    _check_gamma(gamma)
    if n_restarts < 1:
        raise ValueError(f"need at least one restart, got {n_restarts}")
    if eta is None:
        eta = eta_default(gamma, m, b, problem.mean_smoothness)
    x = np.asarray(x0, dtype=np.float64).copy()
    ledger = Ledger(budget, on_stage)
    for t in range(1, n_restarts + 1):
        if not ledger.affords(_stage_cost(problem, m, b)):
            break
        x = _momentum_loop(problem, x, x, gamma, m, b, n_stages, scheme, rng,
                           eta, one_stage, ledger, restarted=t > 1)
    return x


def restart_rho(gamma: float, eta: float, m: int, mu: float, n_stages: int) -> float:
    """Guaranteed per-restart contraction factor of the expected gap when the
    objective is ``mu``-strongly convex."""
    if mu <= 0:
        raise ValueError(f"strong convexity constant must be positive, got {mu}")
    if eta <= 0 or m < 1 or n_stages < 1:
        raise ValueError(
            f"invalid parameters eta={eta}, m={m}, n_stages={n_stages}"
        )
    base = (1.0 - 1.0 / gamma) ** 2
    return 4.0 * (base + 4.0 / (eta * (m + 1) * m * mu)) / (base * (n_stages + 2) ** 2)


def choose_S_for_rho(
    gamma: float, eta: float, m: int, mu: float, target_rho: float
) -> int:
    """Smallest stage count per restart whose guaranteed contraction factor
    is at most ``target_rho``: the factor, in floating point too, does not
    increase with the count, so doubling brackets it and bisection finds it."""
    if mu <= 0:
        raise ValueError(f"strong convexity constant must be positive, got {mu}")
    if not 0.0 < target_rho < 1.0:
        raise ValueError(f"target contraction must be in (0, 1), got {target_rho}")

    def meets(s: int) -> bool:
        try:
            return restart_rho(gamma, eta, m, mu, s) <= target_rho
        except OverflowError:  # (s + 2)**2 beyond the float range
            raise ValueError(f"no stage count per restart reaches contraction "
                             f"{target_rho} at strong convexity {mu}") from None

    lo, hi = 0, 1  # restart_rho(lo) > target_rho unless lo == 0
    while not meets(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if meets(mid) else (mid, hi)
    return hi


# ---------------------------------------------------------------------------
# Adaptive restarting.


class FunctionRestart:
    """The function restart test of O'Donoghue & Candes (2015): called with
    each new iterate, it fires when ``P(x_new) > P(x_prev)``, starting from
    ``P(x0)``.  ``value`` is the objective of the latest iterate."""

    def __init__(self, problem: Problem, x0: np.ndarray) -> None:
        self.problem = problem
        self.value = objective(problem, x0)

    def __call__(self, x_new: np.ndarray) -> bool:
        p_new = objective(self.problem, x_new)
        fired = p_new > self.value
        self.value = p_new
        return fired


def run_dasvrda_adaptive(
    problem: Problem,
    x0: np.ndarray,
    gamma: float,
    m: int,
    b: int,
    n_stages: int,
    scheme: SamplingScheme,
    rng: np.random.Generator,
    *,
    kind: str = "gradient",
    eta: Optional[float] = None,
    one_stage: Optional[OneStageFn] = None,
    on_stage: Optional[StageHook] = None,
    budget: Optional[int] = None,
) -> np.ndarray:
    """Momentum outer loop with heuristic restarts; no strong convexity
    constant required.

    The tests of O'Donoghue & Candes (2015), applied after each stage.  The
    function test fires when ``P(x_s) > P(x_{s-1})`` and charges a full pass
    per stage; the free gradient test fires when the next momentum step
    points against the progress just made, ``(y_s - x_s) @ (y_{s+1} - x_s)
    > 0``.  A restart collapses the history onto ``x_s`` and rewinds the
    outer weights.  ``n_stages`` counts total stages across restarts.
    """
    _check_gamma(gamma)
    if kind not in ("function", "gradient"):
        raise ValueError(f"unknown restart test {kind!r}")
    if eta is None:
        eta = eta_default(gamma, m, b, problem.mean_smoothness)
    extra_cost, restart = 0, kind
    if kind == "function":
        restart, extra_cost = FunctionRestart(problem, x0), problem.n
    return _momentum_loop(problem, x0, x0, gamma, m, b, n_stages, scheme, rng,
                          eta, one_stage, Ledger(budget, on_stage),
                          restart=restart, extra_cost=extra_cost)


# ---------------------------------------------------------------------------
# Warm-started variant.


def warm_start_schedule(gamma: float, m0: int, n_warm: int) -> list[int]:
    """Geometrically growing warm-up loop lengths.

    ``m_u = ceil(sqrt(gamma * (m_{u-1} + 1) * m_{u-1}))``, starting from
    ``m0``; roughly multiplies by ``sqrt(gamma)`` per step.
    """
    if m0 < 1:
        raise ValueError(f"warm-up loop length must be positive, got {m0}")
    if n_warm < 0:
        raise ValueError(f"warm-up stage count must be nonnegative, got {n_warm}")
    out = []
    prev = m0
    for u in range(1, n_warm + 1):
        try:
            prev = math.ceil(math.sqrt(gamma * (prev + 1) * prev))
        except OverflowError:  # an infinite root, or m0 beyond the float range
            raise ValueError(f"warm-up stage {u} of {n_warm}: its loop length "
                             "does not fit a float") from None
        out.append(prev)
    return out


def warm_final_loop_length(gamma: float, m_last: int) -> int:
    """Inner loop length of the momentum phase following the warm-up."""
    try:
        return math.ceil(math.sqrt((m_last + 1) * m_last) / (1.0 - 1.0 / gamma))
    except OverflowError:
        raise ValueError("the momentum loop after the warm-up: its loop length "
                         "does not fit a float") from None


def warm_stage_count(gamma: float, m0: int, m: int) -> int:
    """Warm-up stages that grow the loop length from ``m0`` back to ``m``."""
    if m0 >= m:
        return 0
    return max(0, math.ceil(math.log(m / m0) / math.log(math.sqrt(gamma))))


def warm_momentum_loop_length(gamma: float, m0: int, n_warm: int) -> int:
    """Inner loop length of the momentum phase of :func:`run_dasvrda_warm`."""
    lengths = warm_start_schedule(gamma, m0, n_warm)
    return warm_final_loop_length(gamma, lengths[-1] if lengths else m0)


def run_dasvrda_warm(
    problem: Problem,
    x0: np.ndarray,
    gamma: float,
    m0: int,
    b: int,
    n_warm: int,
    n_stages: int,
    scheme: SamplingScheme,
    rng: np.random.Generator,
    *,
    eta: Optional[float] = None,
    one_stage: Optional[OneStageFn] = None,
    on_stage: Optional[StageHook] = None,
    budget: Optional[int] = None,
) -> np.ndarray:
    """Warm-up stages with growing inner loops, then the momentum phase.

    Each warm-up stage is a single inner stage started at the previous dual
    point and anchored at the previous output; no outer momentum is applied
    until the loop length has grown to its final value.  Stage hooks see
    warm-up stages first (flagged unrestarted), then the momentum stages.
    """
    _check_gamma(gamma)
    lengths = warm_start_schedule(gamma, m0, n_warm)
    m_final = warm_final_loop_length(gamma, lengths[-1] if lengths else m0)
    if eta is None:
        eta = eta_default(gamma, m_final, b, problem.mean_smoothness)
    if one_stage is None:
        one_stage = one_stage_accsvrda
    x = np.asarray(x0, dtype=np.float64).copy()
    z = x.copy()
    ledger = Ledger(budget, on_stage)
    for m_u in lengths:
        cost = _stage_cost(problem, m_u, b)
        if not ledger.affords(cost):
            return x
        x, z = one_stage(problem, z, x, eta, m_u, b, scheme, rng)
        ledger.charge(x, cost)
    return _momentum_loop(problem, x, z, gamma, m_final, b, n_stages, scheme,
                          rng, eta, one_stage, ledger)
