"""High-accuracy reference solutions for objective-gap reporting.

Benchmarks report ``P(x) - P(x_ref)``, so the reference has to be
meaningfully more accurate than anything the benchmarked solvers reach.
The workhorse is :func:`~dasvrda.baselines.run_apg` with the function
restart test :class:`~dasvrda.solvers.FunctionRestart` (fast also when
the problem is effectively strongly convex), stopped when the best
objective stalls in relative terms, then polished with plain proximal
gradient steps, which are monotone.
References are cached by a content fingerprint of the problem so sweeps
and repeated runs do not recompute them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .baselines import one_stage_pg, run_apg
from .problem import Problem, full_gradient, objective
from .solvers import FunctionRestart


@dataclass
class Reference:
    x: np.ndarray
    objective: float
    converged: bool
    tolerance: float


def problem_fingerprint(problem: Problem) -> str:
    """Content hash of data, loss and regularizer (order-sensitive)."""
    feats = problem.data.features
    h = hashlib.sha256()
    h.update(repr(feats.shape).encode())
    # Hashed straight from the arrays' buffers: the bytes of ``tobytes()``
    # without copying them.
    for array in (feats.indptr, feats.indices, feats.data, problem.data.labels):
        h.update(np.ascontiguousarray(array))
    loss = problem.loss
    tag = type(loss).__name__
    for param in dataclasses.fields(loss):
        tag += f":{getattr(loss, param.name)!r}"
    h.update(tag.encode())
    h.update(f"l1={problem.reg.l1!r},l2={problem.reg.l2!r}".encode())
    return h.hexdigest()


#: Stages over which the best objective must move by more than the
#: tolerance (relative) for the solve to go on.
STALL_WINDOW = 100
#: Most proximal gradient steps of the final polish.
POLISH_STEPS = 200


class _Stalled(Exception):
    pass


def compute_reference(
    problem: Problem,
    tolerance: float,
    *,
    max_stages: int = 400_000,
    cache_path: str | None = None,
) -> Reference:
    """Solve to the point where the best objective moves by less than
    ``tolerance`` (relative) over ``STALL_WINDOW`` stages.

    ``converged=False`` means the stage budget ran out first; the returned
    point is still the best one seen.  With ``cache_path`` the result is
    reused if the file holds a reference for the same problem at the same
    or tighter tolerance, converged, with its point.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    if max_stages < 1:
        raise ValueError(f"max_stages must be at least 1, got {max_stages}")
    try:
        cached = None if cache_path is None else read_reference(cache_path, problem)
    except ValueError:
        cached = None
    if (cached is not None and cached.converged and cached.tolerance <= tolerance
            and cached.x.shape == (problem.d,)):
        return cached

    x = np.zeros(problem.d)
    p = objective(problem, x)

    # A zero minimizer can be certified outright: the l1 weight dominating
    # every gradient coordinate at the origin is exactly the subgradient
    # optimality condition there.
    grad0 = full_gradient(problem, x)
    if problem.reg.l1 > 0 and float(np.abs(grad0).max()) <= problem.reg.l1:
        ref = Reference(x=x, objective=p, converged=True, tolerance=tolerance)
        if cache_path is not None:
            save_reference(ref, problem, cache_path)
        return ref

    # The averaged loss term is smooth with constant at most the mean of
    # the per-example constants, so 1/mean is a safe step size.
    eta = 1.0 / problem.mean_smoothness
    best_x, best_p, mark = x, p, p
    restart = FunctionRestart(problem, x)

    def track(stage: int, x: np.ndarray, evals: int, restarted: bool) -> None:
        nonlocal best_x, best_p, mark
        p = restart.value   # the objective at ``x``
        if p < best_p:
            best_x, best_p = x, p
        if stage % STALL_WINDOW == 0:
            if mark - best_p <= tolerance * max(1.0, abs(best_p)):
                raise _Stalled
            mark = best_p

    try:
        run_apg(problem, x, eta, max_stages, restart=restart, on_stage=track)
        converged = False
    except _Stalled:
        converged = True
    for _ in range(POLISH_STEPS):
        x_new = one_stage_pg(problem, best_x, eta)
        p_new = objective(problem, x_new)
        if p_new < best_p:
            best_x, best_p = x_new, p_new
        else:
            break
    ref = Reference(x=best_x, objective=best_p, converged=converged,
                    tolerance=tolerance)
    if cache_path is not None:
        save_reference(ref, problem, cache_path)
    return ref


def save_reference(ref: Reference, problem: Problem, path: str) -> None:
    payload = {
        "fingerprint": problem_fingerprint(problem),
        "tolerance": ref.tolerance,
        "objective": ref.objective,
        "converged": ref.converged,
        "x": [float(v) for v in ref.x],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def read_reference(path: str, problem: Problem) -> Reference:
    """The reference in the file at ``path``, which must have been computed
    for ``problem``.  ``x`` may be empty: a file that only carries the
    objective.  Raises a ``ValueError`` that names the file for anything
    else."""
    try:
        with open(path) as handle:
            # Every number a float: an integer beyond the float range is inf.
            payload = json.load(handle, parse_int=float)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read reference file {path}: {exc}") from None
    if (not isinstance(payload, dict)
            or payload.get("fingerprint") != problem_fingerprint(problem)):
        raise ValueError(f"reference file {path} was computed for a different "
                         "problem (its fingerprint differs or is missing)")
    tolerance, objective, converged, x = (
        payload.get(key) for key in ("tolerance", "objective", "converged", "x"))
    if not (isinstance(objective, float) and math.isfinite(objective)
            and isinstance(converged, bool)
            and isinstance(tolerance, float) and 0 < tolerance < math.inf
            and isinstance(x, list) and len(x) in (0, problem.d)
            and all(isinstance(value, float) for value in x)):
        raise ValueError(
            f"reference file {path} needs a finite objective, true or false "
            f"converged, a finite positive tolerance, and an empty x or one "
            f"of d={problem.d} numbers")
    return Reference(np.array(x), objective, converged, tolerance)
