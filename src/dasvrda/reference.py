"""High-accuracy reference solutions for objective-gap reporting.

Benchmarks report ``P(x) - P(x_ref)``, so the reference has to be
meaningfully more accurate than anything the benchmarked solvers reach.
The workhorse is accelerated proximal gradient with objective-based
momentum restarts (fast also when the problem is effectively strongly
convex), stopped when the best objective stalls in relative terms, then
polished with plain proximal gradient steps, which are monotone.
References are cached by a content fingerprint of the problem so sweeps
and repeated runs do not recompute them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .baselines import one_stage_pg
from .problem import Problem, default_prox, full_gradient, objective


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
    h.update(np.ascontiguousarray(feats.indptr).tobytes())
    h.update(np.ascontiguousarray(feats.indices).tobytes())
    h.update(np.ascontiguousarray(feats.data).tobytes())
    h.update(np.ascontiguousarray(problem.data.labels).tobytes())
    loss = problem.loss
    tag = type(loss).__name__
    for param in dataclasses.fields(loss):
        tag += f":{getattr(loss, param.name)!r}"
    h.update(tag.encode())
    h.update(f"l1={problem.reg.l1!r},l2={problem.reg.l2!r}".encode())
    return h.hexdigest()


def compute_reference(
    problem: Problem,
    tolerance: float,
    *,
    max_stages: int = 400_000,
    stall_window: int = 100,
    polish_steps: int = 200,
    cache_path: str | None = None,
) -> Reference:
    """Solve to the point where the best objective moves by less than
    ``tolerance`` (relative) over ``stall_window`` stages.

    ``converged=False`` means the stage budget ran out first; the returned
    point is still the best one seen.  With ``cache_path`` the result is
    reused if the file holds a reference for the same problem at the same
    or tighter tolerance.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    fingerprint = problem_fingerprint(problem)
    if cache_path is not None and os.path.exists(cache_path):
        cached = load_reference(cache_path)
        if (
            cached is not None
            and cached["fingerprint"] == fingerprint
            and cached["tolerance"] <= tolerance
            and cached["converged"]
        ):
            return Reference(
                x=np.asarray(cached["x"], dtype=np.float64),
                objective=float(cached["objective"]),
                converged=True,
                tolerance=float(cached["tolerance"]),
            )

    prox = default_prox(problem)
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
    best_x = x.copy()
    best_p = p
    x_prev = x.copy()
    theta_prev = 0.0
    s_local = 0
    mark = best_p
    converged = False
    for stage in range(1, max_stages + 1):
        s_local += 1
        theta = (s_local + 1) / 2.0
        y = x + ((theta_prev - 1.0) / theta) * (x - x_prev)
        x_prev = x
        x = prox(y - eta * full_gradient(problem, y), eta)
        theta_prev = theta
        p_new = objective(problem, x)
        if p_new > p:
            theta_prev = 0.0
            s_local = 0
            x_prev = x.copy()
        p = p_new
        if p < best_p:
            best_p = p
            best_x = x.copy()
        if stage % stall_window == 0:
            if mark - best_p <= tolerance * max(1.0, abs(best_p)):
                converged = True
                break
            mark = best_p
    for _ in range(polish_steps):
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


def load_reference(path: str) -> dict | None:
    """Raw cached payload, or None if unreadable."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or "fingerprint" not in payload:
        return None
    return payload
