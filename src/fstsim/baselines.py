"""Synchronous multi-model baseline with straggler mitigation.

Each round, the available clients are shuffled and split disjointly across
tasks according to a per-task allocation. Every task aggregates the first
k of its returned updates (k is the mitigation knob; k equal to the
allocation means waiting for everyone) with the asynchronous server's
step, x <- x - eta_s * eta_c * tau * mean(delta). The round ends at a
barrier callback, scheduled once the last task collects its k-th update
and run after every update that arrives at the same time; all
still-running requests are cancelled and their clients freed. A cancelled
request still arrives, at its original time, and is discarded; until then
it stays counted in ``Engine.in_flight``. No update ever crosses a round
boundary, so staleness is identically zero.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

from .event_engine import Engine, SimulationError
from .fedast_server import server_step
from .local_trainer import Update
from .objectives import TaskSpec
from .realloc import apportion_largest_remainder

logger = logging.getLogger(__name__)


@dataclass
class SyncTaskState:
    spec: TaskSpec
    collected: list[Update] = field(default_factory=list)
    expected: int = 0
    k_eff: int = 0
    aggregated_total: int = 0


class MmSyncServer:
    """Round-synchronous policy over a shared client pool.

    ``allocation`` maps task id to its per-round client count. When fewer
    clients are available than the total allocation, the round's counts are
    scaled down proportionally (largest remainder, at least one each); the
    first such round logs a warning and ``rounds_scaled_down`` counts them
    all. A draw of fewer available clients than live tasks is redrawn one
    evaluation interval later, and ``rounds_waited`` counts such draws; with
    no evaluation ticks or too small a pool, it is a SimulationError.
    When a task finishes early its allocation is redistributed to the
    remaining tasks in proportion to their original shares.

    A round ends in one ``server_step`` per live task; only the round's
    collected updates, k_eff and expected counts are kept here. A task's
    round durations are ``np.diff([0, *its Aggregated times])``.
    """

    def __init__(self, tasks: list[TaskSpec], allocation: Mapping[int, int], k: int):
        if not tasks:
            raise ValueError("need at least one task")
        if k < 1:
            raise ValueError("k must be at least 1")
        for task in tasks:
            if allocation.get(task.task_id, 0) < 1:
                raise ValueError(f"task {task.task_id}: allocation must be at least 1")
        self.k = k
        self.warnings: list[str] = []
        #: rounds that drew fewer available clients than the total allocation
        self.rounds_scaled_down = 0
        #: round draws with fewer available clients than live tasks, redrawn later
        self.rounds_waited = 0
        self._alloc0 = {t.task_id: int(allocation[t.task_id]) for t in tasks}
        self._states = {t.task_id: SyncTaskState(spec=t) for t in tasks}
        #: a round is running and its barrier is not yet scheduled
        self._round_open = False
        self.updates_received = 0
        self.updates_discarded = 0

        for task in tasks:
            if self.k > self._alloc0[task.task_id]:
                msg = (
                    f"task {task.task_id}: k={k} exceeds its allocation "
                    f"{self._alloc0[task.task_id]}; aggregating all returned updates"
                )
                logger.warning(msg)
                self.warnings.append(msg)

    # -- policy interface ----------------------------------------------------

    def start(self, engine: Engine) -> None:
        self._begin_round(engine)

    def handle_update(self, engine: Engine, update: Update) -> None:
        self.updates_received += 1
        tid = update.task_id
        st = self._states[tid]
        if engine.finished[tid] is not None or update.dispatch_round != engine.rounds[tid]:
            self.updates_discarded += 1
            return
        if len(st.collected) >= st.k_eff:
            # Arrived before the global barrier but after this task already
            # has its k updates: dropped at round end.
            self.updates_discarded += 1
            return
        st.collected.append(update)
        # A round can close only as a task reaches k_eff, or at mark_finished.
        if len(st.collected) == st.k_eff:
            self._maybe_close_round(engine)

    def handle_barrier(self, engine: Engine) -> None:
        # Scheduled once every live task held k_eff >= 1 updates; the engine
        # stops when every task has finished, so at least one is live here.
        for tid, st in self._states.items():
            if engine.finished[tid] is None:
                server_step(engine, st.spec, st.collected)
                st.aggregated_total += len(st.collected)
                st.collected = []
        engine.release_clients(engine.now)
        self._begin_round(engine)

    def task_metrics(self, task_id: int) -> dict[str, float | int]:
        st = self._states[task_id]
        return {
            "r": st.expected,
            "b": st.k_eff,
            "staleness_mean": 0.0,
            "staleness_max": 0,
            "c": self.updates_received,
            "dropped": self.updates_discarded,
        }

    def mark_finished(self, engine: Engine, task_id: int) -> None:
        self._states[task_id].collected = []
        # The round may now be complete without another arrival.
        self._maybe_close_round(engine)

    # -- internals -----------------------------------------------------------

    def state(self, task_id: int) -> SyncTaskState:
        return self._states[task_id]

    def _begin_round(self, engine: Engine) -> None:
        live = [tid for tid in self._states if engine.finished[tid] is None]
        available = engine.draw_available()
        budget = sum(self._alloc0.values())
        weights = [self._alloc0[tid] for tid in live]
        if len(available) < len(live):
            if engine.eval_interval is None or engine.n_clients < len(live):
                raise SimulationError(
                    f"only {len(available)} clients available for {len(live)} tasks "
                    f"at t={engine.now}"
                )
            self.rounds_waited += 1
            engine.call_at(engine.now + engine.eval_interval, self._begin_round)
            return
        if len(available) < budget:
            if not self.rounds_scaled_down:
                msg = (
                    f"round {engine.rounds[live[0]]}: {len(available)} clients available, "
                    f"allocation wants {budget}; scaling down proportionally "
                    f"(later short rounds are counted, not logged)"
                )
                logger.warning(msg)
                self.warnings.append(msg)
            self.rounds_scaled_down += 1
            budget = len(available)
        counts = apportion_largest_remainder(weights, budget)

        order = engine.server_stream.permutation(len(available))
        shuffled = [available[int(i)] for i in order]
        pos = 0
        for tid, count in zip(live, counts):
            st = self._states[tid]
            st.expected = count
            st.k_eff = min(self.k, count)
            st.collected = []
            for client_id in shuffled[pos : pos + count]:
                engine.send(tid, client_id)
            pos += count
        self._round_open = True

    def _maybe_close_round(self, engine: Engine) -> None:
        if not self._round_open:
            return
        live = [st for tid, st in self._states.items() if engine.finished[tid] is None]
        if live and all(len(st.collected) >= st.k_eff for st in live):
            self._round_open = False
            engine.call_at(engine.now, self.handle_barrier)
