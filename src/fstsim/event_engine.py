"""Deterministic discrete-event loop driving any server policy.

Every event is a handler called with its argument at its time: a dispatch,
an arrival, an evaluation tick (which schedules the next) or a policy
callback. Events run in strictly nondecreasing (time, sequence) order; the
monotone sequence number breaks simultaneous-event ties by scheduling
order, so reruns are bit-reproducible. Events for the current time wait in
a FIFO beside the heap, so a dispatch costs a queue append, not a heap
push and pop. Clients are single-threaded queues: a request dispatched to
a busy client starts when the client frees up.

The client pool is flat per-client state: ``busy_until``, one list of
dispatch counts per task and the ``ClientProfiles``; no object is built per
client or per (task, client) pair.

Requests are trained lazily. At dispatch the engine numbers the request
per (task, client), re-keys the run's one request generator,
``Engine.streams``, to its delay stream (``rng.request_rngs``) to sample
the duration at the client's beta for the task, and schedules the arrival
of an ``Update`` that names the request and holds the task's model by
reference (the engine's models are read-only, so it cannot change). Servers train the updates a server step
consumes (a full buffer or a sync barrier) with one ``train_updates``
call, which reads each request's client and key off the engine and trains
them stacked on the task's ``ClientShards``, re-keying the same generator
to each training stream, so every result is what training at dispatch
would have produced. Under a policy that ``trains_ahead`` (every arrival
of a live task enters a server step), the engine also registers each
request that arrives by ``max_sim_time``, and the same call trains the
task's registered requests after the consumed ones, up to
``AHEAD_STACK_ROWS`` rows: fewer, larger stacks, with the same bits.
Under any other policy, updates no server step or replan reads are never
trained.

A policy's decision to send new requests is itself realized as a
same-time event, so when several updates share a timestamp all of them are
absorbed (and any triggered aggregation applied) before the replacement
requests snapshot the model. For continuous delay distributions this is
indistinguishable from dispatching inline. A policy that must act once a
set of same-time events has settled (the sync barrier) schedules its own
callback with ``call_at``.

An evaluation tick evaluates a task only when its model object changed
since the task's last evaluation; otherwise it reuses that loss and
accuracy, which are the same numbers.

The per-request path keeps the seams that benchmarks and tests hook at call
time: a dispatch calls ``rng.request_rngs`` through the module (a benchmark
counts requests by it), this module's ``sample_duration`` and
``self.sample_clients``; training and evaluation call this module's
``local_train`` and ``evaluate``; every arrival goes through ``_push``. The
pool stores nothing per client beyond its flat lists: the ``drop_unit``
benchmark's allocation peak, about 0.26 MB, has a 10% bound.
"""

from __future__ import annotations

import heapq
import logging
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable, NamedTuple, Protocol

import numpy as np

from . import rng as rng_tree
from .delay_model import ClientProfiles, DelaySpec, sample_duration
from .local_trainer import Update, local_train
from .metrics import MetricsRecord
from .objectives import ClientShards, Dataset, TaskSpec, evaluate

logger = logging.getLogger(__name__)

#: Iteration cap for the availability-rejection sampler.
SAMPLER_ITERATION_CAP = 1_000_000
#: Raw server-stream words per block the sampler serves (two loop iterations
#: per three words), chosen by microbenchmark.
SAMPLER_BLOCK_WORDS = 192
#: Most rows a call that trains ahead stacks, unless the requested rows alone
#: are more. A stack's temporaries grow by about 10 kB a row (tiny_mlp, 16
#: hidden units), and past about 64 rows the cost per row barely falls.
AHEAD_STACK_ROWS = 64
#: Most evaluation ticks after the one at time 0, whether a config asks for
#: them up to max_sim_time or a run without one takes them.
MAX_EVAL_TICKS = 100_000


def check_eval_interval(eval_interval: float | None) -> None:
    if eval_interval is not None and not eval_interval > 0:  # NaN too
        raise ValueError("eval_interval must be positive")


class SimulationError(RuntimeError):
    """The simulation reached an invalid state and cannot continue."""


class StarvedError(SimulationError):
    """Event queue ran dry before any stop condition was satisfied."""


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


def train_updates(engine: "Engine", updates: Collection[Update]) -> np.ndarray:
    """Give every untrained update among ``updates``, all of one task, its
    delta, with at most one call of this module's ``local_train`` on the
    engine's task, shards and request generator; return all their deltas in
    order, (B, d).

    Where the engine keeps ``untrained`` requests, the same call trains the
    task's registered ones after ``updates``, each into its own copy, so an
    in-flight request never holds the whole stack. A diverged one leaves the
    registry untrained, to raise if a server step reads it; the ones after
    it stay registered."""
    pending = [u for u in updates if u.delta is None]
    if pending:
        tid = pending[0].task_id
        rows, registry = pending, engine.untrained
        if registry is not None:
            ids = {id(u) for u in pending}
            others = [u for u in registry[tid] if id(u) not in ids]
            room = max(0, AHEAD_STACK_ROWS - len(pending))
            rows, registry[tid] = pending + others[:room], others[room:]
        deltas = local_train(engine.tasks[tid], [u.snapshot for u in rows], engine.shards[tid],
                             [u.client_id for u in rows],
                             [(engine.seed, tid, u.client_id, u.dispatch_no) for u in rows],
                             engine.streams, ahead_from=len(pending))
        for update, delta in zip(pending, deltas):
            update.delta, update.snapshot = delta, None
        if len(rows) > len(pending):
            ahead = rows[len(pending):]
            for update, delta in zip(ahead, deltas[len(pending):]):
                update.delta, update.snapshot = delta.copy(), None
            registry[tid] = ahead[len(deltas) - len(pending) + 1:] + registry[tid]
            deltas = deltas[:len(pending)]
        if len(pending) == len(updates):
            return deltas
    # A replan trained some of them before.
    return np.stack([u.delta for u in updates])


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
        if self.max_sim_time is not None and not self.max_sim_time > 0:  # NaN too
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

    #: Every arrival of a live task enters a server step (read by ``Engine.run``;
    #: absent means False), so the engine trains its requests ahead.
    trains_ahead: bool

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
    """Owns the clock, the event heap, the client pool (``profiles``,
    ``n_clients`` and ``busy_until``, when each client's queue empties) and
    each task's progress: ``models`` (read-only arrays, each replaced by
    ``server_step``), ``rounds``, ``finished`` (None, or the finish reason)
    and ``in_flight``, the requests sent and neither skipped nor arrived yet.
    A request cancelled by ``release_clients`` stays counted until its
    arrival leaves the heap. ``observer``, off by default, is called with
    every ``Event`` of the run, in order; ``policy`` is the one ``run``
    drives. ``shards`` holds each task's client data as one
    ``ClientShards``, one client per profile, and ``profiles.base_betas`` a
    base beta per task. ``sample_clients`` draws from the server stream
    through a replayed block, equal to its rejection loop; ``server_stream``
    settles the stream before any other read. ``untrained`` is the registry
    ``train_updates`` trains ahead from, kept only for a policy that
    ``trains_ahead``."""

    def __init__(
        self,
        tasks: Iterable[TaskSpec],
        shards: dict[int, ClientShards],
        eval_sets: dict[int, Dataset],
        profiles: ClientProfiles,
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
        check_eval_interval(eval_interval)
        n_clients = len(profiles)
        self.models: dict[int, np.ndarray] = {}
        for tid, task in self.tasks.items():
            self.models[tid] = task.new_model()
            self.models[tid].setflags(write=False)
            if tid not in shards:
                raise ValueError(f"task {tid} has no client shards")
            if len(shards[tid]) != n_clients:
                raise ValueError(f"task {tid}: one shard per client required")
            if tid not in profiles.base_betas:
                raise ValueError(f"task {tid} has no base beta")
            if tid not in eval_sets:
                raise ValueError(f"task {tid} has no evaluation set")
        self.shards = shards
        self.eval_sets = eval_sets
        self.profiles = profiles
        self.n_clients = n_clients
        self.busy_until = [0.0] * n_clients
        self.seed = seed
        self.availability_p = availability_p
        self.delay = delay
        self.eval_interval = eval_interval
        self.stop = stop

        self.now = 0.0
        #: (time, seq, handler, arg); seq is unique, so ties never reach handler.
        #: Events for the current time wait in ``_soon``, in seq order.
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._soon: deque[tuple[float, int, Callable[[Any], None], Any]] = deque()
        self._seq = 0
        #: read through ``server_stream``; the sampler's first block is drawn lazily
        self._stream = rng_tree.server_rng(seed)
        self._hold_block(None, (), (), 0, 0)
        #: re-keyed to a request's delay stream at its dispatch and to its
        #: training stream when a server step or replan trains it
        self.streams = rng_tree.request_generator()
        #: per task, each client's number of requests dispatched so far
        self._dispatch_counts = {tid: [0] * n_clients for tid in self.tasks}
        #: per task, the model object last evaluated and its loss and accuracy
        self._evaluated = {tid: (None, 0.0, 0.0) for tid in self.tasks}
        self.rounds: dict[int, int] = {tid: 0 for tid in self.tasks}
        self.finished: dict[int, str | None] = {tid: None for tid in self.tasks}
        self.in_flight: dict[int, int] = {tid: 0 for tid in self.tasks}
        self._live_tasks = len(self.tasks)
        self.target_times: dict[int, float | None] = {tid: None for tid in self.tasks}
        self.records: list[MetricsRecord] = []
        self.observer = observer
        self.policy: ServerPolicy | None = None
        #: None, or per task (for a policy that trains ahead) the requests
        #: dispatched, untrained and arriving by max_sim_time, in dispatch order
        self.untrained: dict[int, list[Update]] | None = None
        self.skipped_dispatches = 0

    # -- scheduling ---------------------------------------------------------

    def _push(self, time: float, handler: Callable[[Any], None], arg: Any) -> None:
        if not time >= self.now:  # NaN too
            raise SimulationError(f"event scheduled in the past: {time} < {self.now}")
        self._seq += 1
        if time == self.now:
            self._soon.append((time, self._seq, handler, arg))
        else:
            heapq.heappush(self._heap, (time, self._seq, handler, arg))

    def send(self, task_id: int, client_id: int | None = None) -> None:
        """Queue one dispatch, effective now, to ``client_id`` or, if None, to
        a client sampled at dispatch."""
        self.in_flight[task_id] += 1
        self._push(self.now, self._do_dispatch, (task_id, client_id))

    def call_at(self, time: float, callback: Callable[["Engine"], None]) -> None:
        """Call ``callback(engine)`` at ``time``, after every event already
        queued for that time."""
        self._push(time, callback, self)

    # -- client pool --------------------------------------------------------

    def sample_clients(self, k: int) -> list[int]:
        """Draw k client ids uniformly with replacement, each accepted by an
        independent availability coin flip, so the accepted client is uniform
        for any p. Hard error if the rejection loop exceeds
        SAMPLER_ITERATION_CAP iterations. The loop's server-stream draws are
        served from a replayed block of SAMPLER_BLOCK_WORDS raw words, equal
        to the loop's own."""
        cap = SAMPLER_ITERATION_CAP  # read per call: tests patch it
        served = self._served
        if k == 1 and served < len(self._at) and self._at[served] + 1 - self._done <= cap:
            # the common call: the block's next acceptance, within the cap
            self._done, self._served = self._at[served] + 1, served + 1
            return [self._clients[served]]
        out: list[int] = []
        iterations = 0
        while len(out) < k:
            served = self._served
            if served < len(self._at):
                end = self._at[served] + 1  # the block's next acceptance
            elif self._done < self._valid:
                end = self._valid  # the rest of the block rejects
            else:
                self._next_block()
                continue
            iterations += end - self._done
            if iterations > cap:
                self._done = end - (iterations - cap)
                raise SimulationError(f"availability sampler exceeded {cap} iterations "
                                      f"(availability_p={self.availability_p})")
            self._done = end
            if served < len(self._at):
                out.append(self._clients[served])
                self._served = served + 1
        return out

    def _next_block(self) -> None:
        """Draw a replayed block, or one iteration of the loop itself where
        the replay cannot serve (see ``rng.sampler_replay``)."""
        cut = self._valid < self._drawn
        stream, n, p = self.server_stream, self.n_clients, self.availability_p
        state = stream.bit_generator.state
        if cut or not 2 <= n < 2**32 or state["has_uint32"]:
            candidate = int(stream.integers(n))
            accepted = [0] if stream.random() < p else []
            self._hold_block(state, accepted, [candidate] * len(accepted), 1, 1)
        else:
            words = stream.bit_generator.random_raw(SAMPLER_BLOCK_WORDS)
            at, clients, valid = rng_tree.sampler_replay(words, n, p)
            self._hold_block(state, at.tolist(), clients.tolist(), valid,
                             2 * SAMPLER_BLOCK_WORDS // 3)

    def _hold_block(self, state: dict | None, at, clients, valid: int, drawn: int) -> None:
        """Serve the first ``valid`` of ``drawn`` loop iterations drawn from
        ``state``: ``clients[j]``, accepted at iteration ``at[j]``, Python ints."""
        self._block, self._at, self._clients = state, at, clients
        self._valid, self._drawn, self._done, self._served = valid, drawn, 0, 0

    @property
    def server_stream(self) -> np.random.Generator:
        """The server-side decision stream (sampling, availability, shuffles),
        settled first to just after the sampler's last served iteration."""
        if self._done < self._drawn:
            bits = self._stream.bit_generator
            bits.state = self._block
            pairs, odd = divmod(self._done, 2)
            words = bits.random_raw(3 * pairs + 2 * odd)
            if odd:  # the high half of the last pair's first word is stashed
                state = bits.state
                state["has_uint32"], state["uinteger"] = 1, int(words[-2]) >> 32
                bits.state = state
        self._hold_block(None, (), (), 0, 0)
        return self._stream

    def draw_available(self) -> list[int]:
        """Round-style availability: one Bernoulli coin per client."""
        mask = self.server_stream.random(self.n_clients) < self.availability_p
        return [int(i) for i in np.flatnonzero(mask)]

    def release_clients(self, at: float) -> None:
        """Free every client at ``at``: no client stays busy past it. The
        requests it was running still arrive, at their original times."""
        self.busy_until = [at if busy > at else busy for busy in self.busy_until]

    # -- event handlers -----------------------------------------------------

    def _do_dispatch(self, payload: tuple[int, int | None]) -> None:
        task_id, forced_client = payload
        if self.finished[task_id] is not None:
            self.skipped_dispatches += 1
            self.in_flight[task_id] -= 1
            return
        client_id = forced_client if forced_client is not None else self.sample_clients(1)[0]
        counts = self._dispatch_counts[task_id]
        dispatch_no = counts[client_id]
        counts[client_id] = dispatch_no + 1
        delay_stream = rng_tree.request_rngs(self.streams, self.seed, task_id, client_id,
                                             dispatch_no)
        profiles, busy = self.profiles, self.busy_until
        duration = sample_duration(profiles.base_betas[task_id] * profiles.multipliers[client_id],
                                   self.tasks[task_id].tau, delay_stream, self.delay)
        start = busy[client_id] if busy[client_id] > self.now else self.now
        completion = busy[client_id] = start + duration
        update = Update(task_id, client_id, self.rounds[task_id], dispatch_no,
                        snapshot=self.models[task_id])
        if self.untrained is not None and completion <= self._horizon:
            self.untrained[task_id].append(update)
        self._push(completion, self._do_arrival, update)
        if self.observer is not None:
            self.observer(Dispatched(self.now, task_id, client_id, update.dispatch_round,
                                     start, completion))

    def _do_arrival(self, update: Update) -> None:
        if self.observer is not None:
            self.observer(Arrived(self.now, update.task_id, update.client_id,
                                  update.dispatch_round))
        self.in_flight[update.task_id] -= 1
        self.policy.handle_update(self, update)

    def _do_eval(self) -> None:
        if self.stop.max_sim_time is None and self.now / self.eval_interval > MAX_EVAL_TICKS:
            raise SimulationError(f"run passed MAX_EVAL_TICKS={MAX_EVAL_TICKS} evaluation ticks "
                                  f"at t={self.now} with no max_sim_time; rounds may have stalled")
        for task_id in sorted(self.tasks):
            task, model = self.tasks[task_id], self.models[task_id]
            evaluated, loss, accuracy = self._evaluated[task_id]
            if model is not evaluated:
                loss, accuracy = evaluate(task, model, self.eval_sets[task_id])
                self._evaluated[task_id] = (model, loss, accuracy)
            self.records.append(MetricsRecord(self.now, task_id, self.rounds[task_id], loss,
                                              accuracy, **self.policy.task_metrics(task_id)))
            if self.target_times[task_id] is None and task.target_reached(loss, accuracy):
                self.target_times[task_id] = self.now
                if self.stop.stop_on_targets and self.finished[task_id] is None:
                    self._finish_task(task_id, "target")
        self.call_at(self.now + self.eval_interval, type(self)._do_eval)

    def _finish_task(self, task_id: int, reason: str) -> None:
        self.finished[task_id] = reason
        self._live_tasks -= 1
        self.policy.mark_finished(self, task_id)
        if self.observer is not None:
            self.observer(Finished(self.now, task_id, reason))

    # -- main loop ----------------------------------------------------------

    def run(self, policy: ServerPolicy) -> RunLog:
        self.policy = policy
        horizon = self.stop.max_sim_time if self.stop.max_sim_time is not None else np.inf
        self._horizon = horizon
        if getattr(policy, "trains_ahead", False):
            self.untrained = {tid: [] for tid in self.tasks}
        if self.eval_interval is not None and self.tasks:
            self.call_at(0.0, type(self)._do_eval)
        policy.start(self)

        stop_reason: str | None = None
        heap, soon, pop = self._heap, self._soon, heapq.heappop
        max_rounds, events = self.stop.max_rounds, 0
        while heap or soon:
            # every event in soon is at the current time, so none is past the heap's
            time, _, handler, arg = soon.popleft() if soon and not (heap and heap[0] < soon[0]) \
                else pop(heap)
            if time > horizon:
                self.now = horizon
                stop_reason = "max_sim_time"
                break
            self.now = time
            events += 1
            handler(arg)
            if max_rounds is not None:
                for task_id, rnd in self.rounds.items():
                    if self.finished[task_id] is None and rnd >= max_rounds:
                        self._finish_task(task_id, "max_rounds")
            if not self._live_tasks and self.tasks:
                reasons = set(self.finished.values())
                stop_reason = "targets" if reasons == {"target"} else "max_rounds"
                break
        # The events left hold this engine's bound handlers: a reference cycle.
        heap.clear()
        soon.clear()

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
            events_processed=events,
            final_models={tid: np.array(m, copy=True) for tid, m in self.models.items()},
        )
