"""Deterministic discrete-event loop driving any server policy.

Events are processed in strictly nondecreasing (time, sequence) order; the
monotone sequence number breaks simultaneous-event ties by scheduling
order, so reruns are bit-reproducible. Clients are single-threaded queues:
a request dispatched to a busy client starts when the client frees up.

Requests are trained lazily. At dispatch the engine keys the request by
(seed, task, client, dispatch counter), re-keys the run's one request
generator, ``Engine.streams``, to the request's delay stream
(``rng.request_rngs``) to sample the duration, and places an update on the
event heap at its arrival time that holds the task's model by reference
(the engine's models are read-only, so it cannot change), the client's
shard and the request key. Servers train the updates a server step
consumes (a full buffer or a sync barrier) with one ``train_updates``
call, which trains them stacked, re-keying the same generator to each
request's training stream, so every result is what training at dispatch
would have produced; updates no server step or replan reads are never
trained.

A policy's decision to send new requests is itself realized as a
same-time event, so when several updates share a timestamp all of them are
absorbed (and any triggered aggregation applied) before the replacement
requests snapshot the model. For continuous delay distributions this is
indistinguishable from dispatching inline. A policy that must act once a
set of same-time events has settled (the sync barrier) schedules its own
callback with ``call_at``.
"""

from __future__ import annotations

import enum
import heapq
import logging
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable, NamedTuple, Protocol

import numpy as np

from . import rng as rng_tree
from .delay_model import ClientProfile, DelaySpec, sample_duration
from .local_trainer import TrainRequest, Update, local_train
from .metrics import MetricsRecord
from .objectives import ClientShard, Dataset, TaskSpec, evaluate

logger = logging.getLogger(__name__)

#: Iteration cap for the availability-rejection sampler.
SAMPLER_ITERATION_CAP = 1_000_000


class SimulationError(RuntimeError):
    """The simulation reached an invalid state and cannot continue."""


class StarvedError(SimulationError):
    """Event queue ran dry before any stop condition was satisfied."""


class EventKind(enum.Enum):
    UPDATE_ARRIVAL = "update_arrival"
    DISPATCH = "dispatch"
    EVAL_TICK = "eval_tick"
    #: a policy callback; its payload is called with the engine
    CALLBACK = "callback"


class Dispatched(NamedTuple):
    """A request sent; ``start - time`` is its queueing delay on a busy client."""

    time: float
    task_id: int
    client_id: int
    dispatch_round: int
    start: float
    arrival: float


class Arrived(NamedTuple):
    """An update reached the server, before the policy handles it."""

    time: float
    task_id: int
    client_id: int
    dispatch_round: int


class Aggregated(NamedTuple):
    """A server step to ``round``; ``model`` is the new read-only model."""

    time: float
    task_id: int
    round: int
    n_updates: int
    model: np.ndarray


class Finished(NamedTuple):
    """A task finished: ``reason`` is "target" or "max_rounds"."""

    time: float
    task_id: int
    reason: str


Event = Dispatched | Arrived | Aggregated | Finished
Observer = Callable[[Event], None]


def train_updates(updates: Collection[Update], streams: np.random.Generator) -> np.ndarray:
    """Give every untrained update among ``updates``, all of one task, its
    delta, with at most one call of this module's ``local_train``, drawing
    from the request generator ``streams``; return all their deltas in
    order, (B, d)."""
    pending = [u for u in updates if u.delta is None]
    if pending:
        requests = [u.request for u in pending]
        deltas = local_train(requests[0].task, [r.snapshot for r in requests],
                             [r.shard for r in requests], [r.key for r in requests], streams)
        for update, delta in zip(pending, deltas):
            update.delta, update.request = delta, None
        if len(pending) == len(updates):
            return deltas
    # A replan trained some of them before.
    return np.stack([u.delta for u in updates])


@dataclass
class ClientState:
    profile: ClientProfile
    busy_until: float = 0.0


@dataclass(frozen=True)
class StopConditions:
    """Run termination: first satisfied condition wins.

    ``stop_on_targets`` ends the run once every task crossed its target
    (targets are recorded either way). At least one mechanism must be
    enabled or the run could never halt.
    """

    stop_on_targets: bool = True
    max_sim_time: float | None = None
    max_rounds: int | None = None

    def __post_init__(self) -> None:
        if not self.stop_on_targets and self.max_sim_time is None and self.max_rounds is None:
            raise ValueError("no stop condition enabled; the run would never halt")
        if self.max_sim_time is not None and self.max_sim_time <= 0:
            raise ValueError("max_sim_time must be positive")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")


class ServerPolicy(Protocol):
    """What the engine needs from a server-side training algorithm.

    A policy keeps only strategy state: it advances a task only through
    ``server_step``, dispatches through ``Engine.send`` and reads how many
    of a task's requests are outstanding from ``Engine.in_flight``.
    ``mark_finished`` comes once per task, after ``Engine.finished`` is set.
    ``task_metrics`` returns exactly the ``MetricsRecord`` fields r, b,
    staleness_mean, staleness_max, c and dropped, as Python numbers."""

    def start(self, engine: "Engine") -> None: ...

    def handle_update(self, engine: "Engine", update: Update) -> None: ...

    def task_metrics(self, task_id: int) -> dict[str, float | int]: ...

    def mark_finished(self, engine: "Engine", task_id: int) -> None: ...


@dataclass
class RunLog:
    """Everything observable about one completed run."""

    records: list[MetricsRecord]
    target_times: dict[int, float | None]
    finish_reasons: dict[int, str | None]
    stop_reason: str
    sim_time: float
    events_processed: int
    final_models: dict[int, np.ndarray]


class Engine:
    """Owns the clock, the event heap, the client pool and each task's
    progress: ``models`` (read-only arrays, each replaced by ``server_step``),
    ``rounds``, ``finished`` (None, or the finish reason) and ``in_flight``,
    the requests sent and neither skipped nor arrived yet. A request cancelled
    by ``release_clients`` stays counted until its arrival leaves the heap.
    ``observer``, off by default, is called with every ``Event`` of the run,
    in order."""

    def __init__(
        self,
        tasks: Iterable[TaskSpec],
        shards: dict[int, list[ClientShard]],
        eval_sets: dict[int, Dataset],
        profiles: list[ClientProfile],
        seed: int,
        availability_p: float = 1.0,
        delay: DelaySpec = DelaySpec(),
        eval_interval: float | None = 1.0,
        stop: StopConditions = StopConditions(max_rounds=100),
        observer: Observer | None = None,
    ):
        self.tasks: dict[int, TaskSpec] = {t.task_id: t for t in tasks}
        if not 0.0 < availability_p <= 1.0:
            raise ValueError("availability_p must lie in (0, 1]")
        if eval_interval is not None and eval_interval <= 0:
            raise ValueError("eval_interval must be positive")
        self.models: dict[int, np.ndarray] = {}
        for tid, task in self.tasks.items():
            self.models[tid] = task.new_model()
            self.models[tid].setflags(write=False)
            if tid not in shards:
                raise ValueError(f"task {tid} has no client shards")
            if len(shards[tid]) != len(profiles):
                raise ValueError(f"task {tid}: one shard per client required")
            if tid not in eval_sets:
                raise ValueError(f"task {tid} has no evaluation set")
        self.shards = shards
        self.eval_sets = eval_sets
        self.clients = [ClientState(profile=p) for p in profiles]
        self.seed = seed
        self.availability_p = availability_p
        self.delay = delay
        self.eval_interval = eval_interval
        self.stop = stop

        self.now = 0.0
        #: (time, seq, kind, payload); seq is unique, so ties never reach kind
        self._heap: list[tuple[float, int, EventKind, Any]] = []
        self._seq = 0
        #: the server-side decision stream (sampling, availability, shuffles)
        self.server_stream = rng_tree.server_rng(seed)
        #: re-keyed to a request's delay stream at its dispatch and to its
        #: training stream when a server step or replan trains it
        self.streams = rng_tree.request_generator()
        self._dispatch_counts: dict[tuple[int, int], int] = {}
        self.rounds: dict[int, int] = {tid: 0 for tid in self.tasks}
        self.finished: dict[int, str | None] = {tid: None for tid in self.tasks}
        self.in_flight: dict[int, int] = {tid: 0 for tid in self.tasks}
        self._live_tasks = len(self.tasks)
        self.target_times: dict[int, float | None] = {tid: None for tid in self.tasks}
        self.records: list[MetricsRecord] = []
        self.observer = observer
        self.skipped_dispatches = 0
        self._events_processed = 0

    # -- scheduling ---------------------------------------------------------

    def _push(self, time: float, kind: EventKind, payload: Any = None) -> None:
        if time < self.now:
            raise SimulationError(f"event scheduled in the past: {time} < {self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, payload))

    def send(self, task_id: int, client_id: int | None = None) -> None:
        """Queue one dispatch, effective now, to ``client_id`` or, if None, to
        a client sampled at dispatch."""
        self.in_flight[task_id] += 1
        self._push(self.now, EventKind.DISPATCH, (task_id, client_id))

    def call_at(self, time: float, callback: Callable[["Engine"], None]) -> None:
        """Call ``callback(engine)`` at ``time``, after every event already
        queued for that time."""
        self._push(time, EventKind.CALLBACK, callback)

    # -- client pool --------------------------------------------------------

    def sample_clients(self, k: int) -> list[int]:
        """Draw k client ids uniformly with replacement, each accepted by an
        independent availability coin flip. Hard error if the rejection loop
        exceeds SAMPLER_ITERATION_CAP iterations."""
        out: list[int] = []
        iterations = 0
        while len(out) < k:
            iterations += 1
            if iterations > SAMPLER_ITERATION_CAP:
                raise SimulationError(
                    f"availability sampler exceeded {SAMPLER_ITERATION_CAP} iterations "
                    f"(availability_p={self.availability_p})"
                )
            candidate = int(self.server_stream.integers(len(self.clients)))
            if self.server_stream.random() < self.availability_p:
                out.append(candidate)
        return out

    def draw_available(self) -> list[int]:
        """Round-style availability: one Bernoulli coin per client."""
        mask = self.server_stream.random(len(self.clients)) < self.availability_p
        return [int(i) for i in np.flatnonzero(mask)]

    def release_clients(self, at: float) -> None:
        """Free every client at ``at``: no client stays busy past it. The
        requests it was running still arrive, at their original times."""
        for client in self.clients:
            if client.busy_until > at:
                client.busy_until = at

    # -- event handlers -----------------------------------------------------

    def _do_dispatch(self, payload: tuple[int, int | None]) -> None:
        task_id, forced_client = payload
        if self.finished[task_id] is not None:
            self.skipped_dispatches += 1
            self.in_flight[task_id] -= 1
            return
        client_id = forced_client if forced_client is not None else self.sample_clients(1)[0]
        task = self.tasks[task_id]
        dispatch_round = self.rounds[task_id]

        pair = (task_id, client_id)
        dispatch_no = self._dispatch_counts.get(pair, 0)
        self._dispatch_counts[pair] = dispatch_no + 1
        delay_stream = rng_tree.request_rngs(
            self.streams, self.seed, task_id, client_id, dispatch_no
        )

        client = self.clients[client_id]
        duration = sample_duration(client.profile, task, delay_stream, self.delay)
        start = max(self.now, client.busy_until)
        completion = start + duration
        client.busy_until = completion

        request = TrainRequest(task, self.models[task_id], self.shards[task_id][client_id],
                               (self.seed, task_id, client_id, dispatch_no))
        update = Update(task_id, client_id, dispatch_round, request=request)
        self._push(completion, EventKind.UPDATE_ARRIVAL, update)
        if self.observer is not None:
            self.observer(Dispatched(self.now, task_id, client_id, dispatch_round,
                                     start, completion))

    def _do_eval(self, policy: ServerPolicy) -> None:
        for task_id in sorted(self.tasks):
            task = self.tasks[task_id]
            loss, accuracy = evaluate(task, self.models[task_id], self.eval_sets[task_id])
            self.records.append(MetricsRecord(self.now, task_id, self.rounds[task_id], loss,
                                              accuracy, **policy.task_metrics(task_id)))
            if self.target_times[task_id] is None and task.target_reached(loss, accuracy):
                self.target_times[task_id] = self.now
                if self.stop.stop_on_targets and self.finished[task_id] is None:
                    self._finish_task(policy, task_id, "target")

    def _finish_task(self, policy: ServerPolicy, task_id: int, reason: str) -> None:
        self.finished[task_id] = reason
        self._live_tasks -= 1
        policy.mark_finished(self, task_id)
        if self.observer is not None:
            self.observer(Finished(self.now, task_id, reason))

    # -- main loop ----------------------------------------------------------

    def run(self, policy: ServerPolicy) -> RunLog:
        if self.eval_interval is not None and self.tasks:
            self._push(0.0, EventKind.EVAL_TICK)
        policy.start(self)

        stop_reason: str | None = None
        while self._heap:
            time, _, kind, payload = heapq.heappop(self._heap)
            if self.stop.max_sim_time is not None and time > self.stop.max_sim_time:
                self.now = self.stop.max_sim_time
                stop_reason = "max_sim_time"
                break
            self.now = time
            self._events_processed += 1

            if kind is EventKind.DISPATCH:
                self._do_dispatch(payload)
            elif kind is EventKind.UPDATE_ARRIVAL:
                if self.observer is not None:
                    self.observer(Arrived(time, payload.task_id, payload.client_id,
                                          payload.dispatch_round))
                self.in_flight[payload.task_id] -= 1
                policy.handle_update(self, payload)
            elif kind is EventKind.EVAL_TICK:
                self._do_eval(policy)
                if self.eval_interval is not None:
                    self._push(self.now + self.eval_interval, EventKind.EVAL_TICK)
            else:  # EventKind.CALLBACK
                payload(self)

            if self.stop.max_rounds is not None:
                for task_id, rnd in self.rounds.items():
                    if self.finished[task_id] is None and rnd >= self.stop.max_rounds:
                        self._finish_task(policy, task_id, "max_rounds")
            if not self._live_tasks and self.tasks:
                reasons = set(self.finished.values())
                stop_reason = "targets" if reasons == {"target"} else "max_rounds"
                break

        if stop_reason is None:
            raise StarvedError(
                "event queue starved before any stop condition was met "
                f"(t={self.now}, finished={self.finished})"
            )

        return RunLog(
            records=self.records,
            target_times=dict(self.target_times),
            finish_reasons=dict(self.finished),
            stop_reason=stop_reason,
            sim_time=self.now,
            events_processed=self._events_processed,
            final_models={tid: np.array(m, copy=True) for tid, m in self.models.items()},
        )
