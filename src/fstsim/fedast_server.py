"""Buffered asynchronous server for simultaneous multi-task training.

Per task m the engine keeps the model x_m and round counter t_m, and the
server a buffer of received updates. Each arriving update is buffered
(unless dropped for excess staleness), and once the buffer holds b_m
updates the model takes one step against their mean:

    x_m <- x_m - eta_s * eta_c * tau_m * mean(buffer)

after which the buffer clears and t_m advances. Every arrival is answered
by dispatching K in {0, 1, 2} fresh requests, chosen to walk the task's
in-flight count (``Engine.in_flight``) one step toward its target, so the
total number of outstanding requests is conserved in steady state. Targets
are constant under static allocation ("S") and periodically re-planned from
estimated update variances under dynamic allocation ("D").
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .event_engine import Aggregated, Engine, SimulationError, train_updates
from .local_trainer import Update, bounded
from .objectives import TaskSpec
from .realloc import TaskAllocView, compute_plan, default_c_period

logger = logging.getLogger(__name__)

#: Ceiling on requests-per-buffer-slot above which the server warns;
#: concurrency beyond this is known to stop paying for itself and mostly
#: adds staleness.
DEFAULT_RATIO_CAP = 37.0

#: Updates retained per task for the dynamic planner's variance estimates.
HISTORY_SIZE = 8


def check_allocation(task_id: int, r0: int, b0: int) -> None:
    if r0 < 1 or b0 < 1:
        raise ValueError(f"task {task_id}: r0 and b0 must be at least 1")


def check_tau_max(tau_max: int | None) -> None:
    if tau_max is not None and tau_max < 0:
        raise ValueError("tau_max must be nonnegative")


def check_c_period(c_period: int | None) -> None:
    if c_period is not None and c_period < 1:
        raise ValueError("c_period must be at least 1")


def _bound_terms(
    smoothness: float,
    tau: int,
    buffer_size: int,
    concurrency: int,
    staleness_cap: int | None,
    chi: float,
) -> tuple[float, float, float]:
    """The eta_s bound and the buffer and staleness terms of the eta_c bound."""
    if smoothness <= 0 or tau < 1 or buffer_size < 1 or concurrency < 1:
        raise ValueError("lr_bounds arguments must be positive")
    if staleness_cap is not None and staleness_cap < 0:
        raise ValueError("staleness_cap must be nonnegative")
    if chi < 1:
        raise ValueError("buffer skew chi is a max/min ratio, so chi >= 1")
    damp = chi**-1.5
    eta_s_max = damp * math.sqrt(tau * buffer_size)
    buffer_term = damp / (6.0 * smoothness * tau * math.sqrt(tau * buffer_size))
    staleness_term = (
        damp / (4.0 * smoothness * tau * math.sqrt(tau * concurrency * staleness_cap))
        if staleness_cap
        else math.inf
    )
    return eta_s_max, buffer_term, staleness_term


def lr_bounds(
    smoothness: float,
    tau: int,
    buffer_size: int,
    concurrency: int,
    staleness_cap: int | None,
    chi: float = 1.0,
) -> tuple[float, float]:
    """Largest (eta_s, eta_c) with a convergence guarantee.

    eta_s <= chi^-1.5 * sqrt(tau * b)
    eta_c <= chi^-1.5 * min( 1 / (6 L tau sqrt(tau b)),
                             1 / (4 L tau sqrt(tau R tau_max)) )

    chi is the max/min buffer-size skew across tasks; chi = 1 (uniform
    buffers) recovers the unskewed bounds exactly. Without a staleness cap,
    or with a cap of 0, the staleness term is infinite and never binds.
    """
    eta_s_max, buffer_term, staleness_term = _bound_terms(
        smoothness, tau, buffer_size, concurrency, staleness_cap, chi
    )
    return eta_s_max, min(buffer_term, staleness_term)


def lr_bound_warnings(
    task_id: int,
    tau: int,
    eta_c: float,
    eta_s: float,
    concurrency: int,
    buffer_size: int,
    staleness_cap: int | None,
    smoothness: float = 1.0,
    chi: float = 1.0,
) -> list[str]:
    """Human-readable warnings when a task's rates exceed the guarantee.

    Each warning names the binding term so the offending knob is obvious.
    """
    eta_s_max, buffer_term, staleness_term = _bound_terms(
        smoothness, tau, buffer_size, concurrency, staleness_cap, chi
    )
    warnings = []
    if eta_s > eta_s_max:
        warnings.append(
            f"task {task_id}: eta_s={eta_s:g} exceeds the server-rate bound "
            f"{eta_s_max:g} (sqrt(tau*b) term)"
        )
    if eta_c > min(buffer_term, staleness_term):
        binding = "buffer term" if buffer_term <= staleness_term else "staleness term"
        warnings.append(
            f"task {task_id}: eta_c={eta_c:g} exceeds the client-rate bound "
            f"{min(buffer_term, staleness_term):g} (binding: {binding})"
        )
    return warnings


def server_step(engine: Engine, spec: TaskSpec, updates: list[Update]) -> None:
    """The server step of every strategy: x <- x - eta_c*eta_s*tau*mean(delta).

    Trains the untrained ``updates`` together first, so a DivergenceError
    surfaces here, and averages the (B, d) deltas ``train_updates`` returns.
    The sum-then-divide is what ``ndarray.mean(axis=0)`` computes, bit for bit.
    The only writer of ``engine.models`` and ``engine.rounds``:
    the task gets a new read-only model (in-flight requests hold the old one
    by reference), local training's divergence check (SimulationError past
    ``DIVERGENCE_LIMIT`` or non-finite) and the next round, observed as
    ``Aggregated``.
    """
    tid = spec.task_id
    step = np.add.reduce(train_updates(engine, updates), axis=0)
    if len(updates) > 1:  # dividing by 1 changes no bit
        step /= len(updates)
    step *= spec.step_scale
    model = engine.models[tid] - step
    model.setflags(write=False)
    if not bounded(model):
        raise SimulationError(
            f"aggregate produced non-finite or runaway model on task {tid} "
            f"at round {engine.rounds[tid]} ({len(updates)} updates)"
        )
    engine.models[tid] = model
    engine.rounds[tid] += 1
    if engine.observer is not None:
        engine.observer(Aggregated(engine.now, tid, engine.rounds[tid], len(updates), model))


@dataclass
class ServerTaskState:
    """Per-task strategy state; the model, round and in-flight count live on
    the engine."""

    spec: TaskSpec
    buffer: list[Update] = field(default_factory=list)
    r_target: int = 0
    b: int = 1
    history: deque = field(default_factory=lambda: deque(maxlen=HISTORY_SIZE))
    staleness_count: int = 0
    staleness_total: int = 0
    staleness_max: int = 0
    dropped: int = 0
    late_discards: int = 0


class FedAstServer:
    """Asynchronous buffered policy with static or dynamic allocation.

    ``r0`` and ``b0`` map task id to the initial concurrent-request count
    and buffer size. ``option`` selects static ("S") or dynamic ("D")
    reallocation; dynamic re-plans every ``c_period`` received updates
    (default: 0.75 * n_tasks * total requests) from the last
    ``HISTORY_SIZE`` updates of each task. ``tau_max``, when not None,
    discards updates staler than the cap instead of aggregating them. A task
    whose ``r0`` exceeds ``DEFAULT_RATIO_CAP * b0`` draws a warning. The
    server keeps only buffers, targets and counters: each full buffer is one
    ``server_step`` of the engine's model, and each arrival's dispatch count
    reads the task's ``Engine.in_flight``. Without ``tau_max`` it
    ``trains_ahead``: a step also trains the task's requests still in flight.
    """

    def __init__(
        self,
        tasks: list[TaskSpec],
        r0: Mapping[int, int],
        b0: Mapping[int, int],
        option: str = "S",
        c_period: int | None = None,
        tau_max: int | None = None,
    ):
        if option not in ("S", "D"):
            raise ValueError("option must be 'S' (static) or 'D' (dynamic)")
        if not tasks:
            raise ValueError("need at least one task")
        check_tau_max(tau_max)
        self.option = option
        #: replan every c_period received updates; read per arrival
        self._dynamic = option == "D"
        self.tau_max = tau_max
        #: uncapped, every arrival of a live task is buffered and stepped on
        self.trains_ahead = tau_max is None
        self.warnings: list[str] = []
        self.c = 0
        #: (sim_time, c, new request targets, sigma_sq estimates) per trigger
        self.realloc_events: list[tuple[float, int, dict[int, int], dict[int, float]]] = []

        self._states: dict[int, ServerTaskState] = {}
        for task in tasks:
            tid = task.task_id
            if tid not in r0 or tid not in b0:
                raise ValueError(f"task {tid} is missing r0 or b0")
            check_allocation(tid, r0[tid], b0[tid])
            if r0[tid] > DEFAULT_RATIO_CAP * b0[tid]:
                msg = (
                    f"task {tid}: r0={r0[tid]} exceeds {DEFAULT_RATIO_CAP:g} x b0={b0[tid]}; "
                    f"extra concurrency past that ratio buys no speedup and "
                    f"inflates staleness"
                )
                logger.warning(msg)
                self.warnings.append(msg)
            self._states[tid] = ServerTaskState(spec=task, r_target=r0[tid], b=b0[tid])
        #: the concurrent requests every plan apportions: a finished task's
        #: target drops to 0, so the live targets always sum to this
        self.r_total = sum(r0[t.task_id] for t in tasks)
        self.c_period = c_period if c_period is not None else default_c_period(len(tasks),
                                                                              self.r_total)
        check_c_period(self.c_period)

    # -- policy interface ----------------------------------------------------

    def start(self, engine: Engine) -> None:
        for tid, st in self._states.items():
            for _ in range(st.r_target):
                engine.send(tid)

    def handle_update(self, engine: Engine, update: Update) -> None:
        tid = update.task_id
        st = self._states[tid]
        if engine.finished[tid] is not None:
            # Late straggler for a completed task: drop silently, dispatch nothing.
            st.late_discards += 1
            return

        self.c += 1
        staleness = engine.rounds[tid] - update.dispatch_round
        if self.tau_max is not None and staleness > self.tau_max:
            st.dropped += 1
        else:
            st.buffer.append(update)
            st.history.append(update)
            st.staleness_count += 1
            st.staleness_total += staleness
            if staleness > st.staleness_max:
                st.staleness_max = staleness

        if self._dynamic and self.c % self.c_period == 0:
            self._replan(engine)

        if len(st.buffer) >= st.b:
            self._aggregate(engine, st)

        short = st.r_target - engine.in_flight[tid]
        if short > 0:
            engine.send(tid)
            if short > 1:
                engine.send(tid)

    def task_metrics(self, task_id: int) -> dict[str, float | int]:
        st = self._states[task_id]
        mean = st.staleness_total / st.staleness_count if st.staleness_count else 0.0
        return {
            "r": st.r_target,
            "b": st.b,
            "staleness_mean": mean,
            "staleness_max": st.staleness_max,
            "c": self.c,
            "dropped": st.dropped,
        }

    def mark_finished(self, engine: Engine, task_id: int) -> None:
        self._states[task_id].r_target = 0

    # -- internals -----------------------------------------------------------

    def state(self, task_id: int) -> ServerTaskState:
        """Direct state access for tests and diagnostics."""
        return self._states[task_id]

    def _replan(self, engine: Engine) -> None:
        # The planner reads every live task's history: train and hand over
        # those once each holds at least 2 updates.
        live = [st for tid, st in self._states.items() if engine.finished[tid] is None]
        if any(len(st.history) < 2 for st in live):
            return
        views = []
        for st in live:
            train_updates(engine, st.history)
            views.append(TaskAllocView(task_id=st.spec.task_id, r_target=st.r_target,
                                       buffer_target=st.b, step_scale=st.spec.step_scale,
                                       history=tuple(u.delta for u in st.history)))
        plan = compute_plan(views, self.r_total)
        for st in live:
            st.r_target = plan.r_new[st.spec.task_id]
            st.b = plan.b_new[st.spec.task_id]
        self.realloc_events.append((engine.now, self.c,
                                    {tid: st.r_target for tid, st in self._states.items()},
                                    dict(plan.sigma_sq)))
        # A shrunk buffer target may already be satisfied.
        for st in live:
            if len(st.buffer) >= st.b:
                self._aggregate(engine, st)

    def _aggregate(self, engine: Engine, st: ServerTaskState) -> None:
        server_step(engine, st.spec, st.buffer)
        st.buffer.clear()
