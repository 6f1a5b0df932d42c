"""Periodic resource reallocation across concurrently trained tasks.

Every ``c_period`` received updates (dynamic mode only), once each live task
holds at least 2 updates, the server asks ``compute_plan`` to re-split its
constant request budget, sum(r0), across the live tasks (a finished task's
target is 0) proportionally to each task's estimated heterogeneity: the
square root of a normalized update variance computed from the last few
buffered updates. Buffer sizes follow their task's request count so the
requests-per-aggregation ratio is preserved. Everything here is a pure
function over snapshots, live tasks in and their new targets out; the
caller applies the returned plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

#: Reallocation cadence: one pass after roughly this fraction of
#: (tasks x total requests) updates have been received.
C_PERIOD_FACTOR = 0.75


@dataclass(frozen=True)
class TaskAllocView:
    """Read-only slice of one live task's server state, as seen by the planner."""

    task_id: int
    r_target: int
    buffer_target: int
    #: eta_c * eta_s * tau, the update-to-model scaling of this task
    step_scale: float
    history: Sequence[np.ndarray]


@dataclass(frozen=True)
class ReallocPlan:
    """New request and buffer targets of every planned task."""

    r_new: Mapping[int, int]
    b_new: Mapping[int, int]
    sigma_sq: Mapping[int, float]


def default_c_period(n_tasks: int, r_total: int) -> int:
    """Reallocation cadence: round(0.75 * n_tasks * r_total), at least 1."""
    if n_tasks < 1 or r_total < 1:
        raise ValueError("n_tasks and r_total must be positive")
    return max(1, int(math.floor(C_PERIOD_FACTOR * n_tasks * r_total + 0.5)))


def estimate_variances(
    histories: Mapping[int, Sequence[np.ndarray]],
    step_scales: Mapping[int, float],
) -> dict[int, float]:
    """Normalized per-task update variance, scaled by the task's step size.

    For the V retained updates of task m with mean delta_bar:
    sigma_sq[m] = step_scale[m] * (1/V) * sum_i ||delta_i - delta_bar||^2
    / ||delta_bar||^2. A zero mean update yields 0 (no usable signal).
    """
    out: dict[int, float] = {}
    for task_id, history in histories.items():
        if len(history) < 2:
            raise ValueError(f"task {task_id}: need at least 2 updates to estimate variance")
        stack = np.stack([np.asarray(d, dtype=np.float64) for d in history])
        mean = stack.mean(axis=0)
        mean_sq = float(mean @ mean)
        if mean_sq == 0.0:
            out[task_id] = 0.0
            continue
        devs = stack - mean
        rel_var = float(np.sum(devs * devs)) / (len(history) * mean_sq)
        out[task_id] = step_scales[task_id] * rel_var
    return out


def largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total``, each the floor of its quota or one
    more: the leftover units go to the largest fractional parts, ties to the
    lower index."""
    counts = np.floor(quotas).astype(np.int64)
    order = np.argsort(-(quotas - counts), kind="stable")
    counts[order[: max(0, total - int(counts.sum()))]] += 1
    return counts


def apportion_largest_remainder(weights: Sequence[float], total: int) -> list[int]:
    """Integer allocation proportional to nonnegative weights.

    Hamilton/largest-remainder rounding; remainder ties break toward the
    lower index. All-zero weights fall back to a uniform split. Each entry
    gets at least one, funded by the largest allocations.
    """
    n = len(weights)
    if n == 0:
        raise ValueError("nothing to apportion")
    if total < n:
        raise ValueError(f"total {total} cannot give {n} entries at least 1 each")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if w.sum() == 0.0:
        w = np.ones(n)
    alloc = largest_remainder(w / w.sum() * total, total)
    while True:
        short = np.flatnonzero(alloc < 1)
        if len(short) == 0:
            break
        donor = int(np.argmax(alloc))
        alloc[donor] -= 1
        alloc[short[0]] += 1
    return [int(a) for a in alloc]


def compute_plan(views: Sequence[TaskAllocView], budget: int) -> ReallocPlan:
    """New (R, b) targets of the live tasks in ``views``; the caller decides
    when to plan, and each view holds at least 2 retained updates.

    The pass apportions ``budget`` concurrent requests proportionally to
    sqrt(sigma_sq), then rescales each buffer by its task's request ratio
    (round to nearest, floor 1).
    """
    sigma_sq = estimate_variances(
        {v.task_id: v.history for v in views},
        {v.task_id: v.step_scale for v in views},
    )
    new_r = apportion_largest_remainder([math.sqrt(sigma_sq[v.task_id]) for v in views], budget)
    r_new, b_new = {}, {}
    for view, r in zip(views, new_r):
        r_new[view.task_id] = r
        scaled = view.buffer_target * r / view.r_target
        b_new[view.task_id] = max(1, int(math.floor(scaled + 0.5)))
    return ReallocPlan(r_new=r_new, b_new=b_new, sigma_sq=sigma_sq)
