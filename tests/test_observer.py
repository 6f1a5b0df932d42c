"""The observer stream: invariants every run's events keep, for all four
algorithms, and proof that observing a run does not change it."""

import gc
import weakref
from collections import Counter

import pytest

import fstsim.harness as harness
from fstsim.config import ExperimentConfig, TaskConfig
from fstsim.event_engine import Aggregated, Arrived, Dispatched, Engine, Finished
from fstsim.harness import run_single
from fstsim.metrics import write_csv

#: Small two-task runs with more requests than clients (so requests queue),
#: partial availability, replans (fedast_dynamic), staleness drops
#: (no_buffer) and first-k rounds with cancelled stragglers (mm_sync).
ALGORITHMS = {
    "fedast_static": dict(algorithm="fedast_static"),
    "fedast_dynamic": dict(algorithm="fedast_dynamic", c_period=10),
    "no_buffer": dict(algorithm="no_buffer", tau_max=1, drop_enforcement=True),
    "mm_sync": dict(algorithm="mm_sync", k_sync=3),
}


def small_config(algorithm: str, **extra) -> ExperimentConfig:
    b0 = 1 if algorithm == "no_buffer" else 2
    tasks = (
        TaskConfig(task_id=0, kind="quadratic", tau=2, eta_c=0.05, dim=3, mu=1.0,
                   sigma_g=1.0, r0=6, b0=b0, target_kind="loss", target_metric=1e-12),
        TaskConfig(task_id=1, kind="logistic", tau=1, eta_c=0.1, n_features=3,
                   n_classes=3, batch_size=2, n_train=96, n_eval=32, base_beta=2.0,
                   r0=4, b0=b0, target_kind="loss", target_metric=1e-12),
    )
    return ExperimentConfig(tasks=tasks, algorithm=algorithm, n_clients=8,
                            availability=0.9, eval_interval=1.0, stop_on_targets=False,
                            max_rounds=10, **extra)


@pytest.fixture
def runs(monkeypatch):
    """Every (engine, policy) pair that ``run_single`` runs, each recorded
    before its first event; each engine counts its ``send`` calls per task in
    ``sent`` and the queued sends it then handled in ``handled``."""
    recorded = []

    class RecordedEngine(Engine):
        def run(self, policy):
            self.sent, self.handled = Counter(), Counter()
            recorded.append((self, policy))
            return super().run(policy)

        def send(self, task_id, client_id=None):
            self.sent[task_id] += 1
            super().send(task_id, client_id)

        def _do_dispatch(self, payload):
            self.handled[payload[0]] += 1
            super()._do_dispatch(payload)

    monkeypatch.setattr(harness, "Engine", RecordedEngine)
    return recorded


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ALGORITHMS)
def test_stream_invariants_and_unchanged_output(name, seed, tmp_path, runs):
    cfg = small_config(**ALGORITHMS[name])
    events = []
    log, _ = run_single(cfg, seed, observer=events.append)
    engine, _ = runs[0]

    assert all(a.time <= b.time for a, b in zip(events, events[1:]))

    in_flight = Counter()
    for ev in events:
        if isinstance(ev, Dispatched):
            assert ev.time <= ev.start <= ev.arrival
            in_flight[ev.task_id, ev.client_id, ev.dispatch_round, ev.arrival] += 1
        elif isinstance(ev, Arrived):
            key = (ev.task_id, ev.client_id, ev.dispatch_round, ev.time)
            assert in_flight[key] > 0, f"{ev} matches no earlier dispatch"
            in_flight[key] -= 1
    assert any(isinstance(ev, Arrived) for ev in events)

    for tid in (0, 1):
        steps = [ev for ev in events if isinstance(ev, Aggregated) and ev.task_id == tid]
        final_round = engine.rounds[tid]
        assert [ev.round for ev in steps] == list(range(1, final_round + 1))
        assert final_round == cfg.max_rounds
        assert all(ev.n_updates >= 1 for ev in steps)
        assert steps[-1].model.tobytes() == log.final_models[tid].tobytes()
    assert {ev.task_id: ev.reason for ev in events if isinstance(ev, Finished)} == {
        0: "max_rounds", 1: "max_rounds"
    }

    quiet, _ = run_single(cfg, seed)
    write_csv(tmp_path / "observed.csv", log.records)
    write_csv(tmp_path / "quiet.csv", quiet.records)
    assert (tmp_path / "observed.csv").read_bytes() == (tmp_path / "quiet.csv").read_bytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["fedast_static", "fedast_dynamic", "no_buffer"])
def test_async_in_flight_counts_and_client_queues(name, seed, runs):
    """At every arrival of a live task, the engine's in-flight count equals
    the task's dispatches minus its arrivals so far; and no client runs two
    requests at once. mm_sync is left out: its barrier frees the clients of
    cancelled stragglers, but their arrivals stay on the heap and overlap the
    same clients' next requests (ROADMAP item 4); its in-flight counts are
    checked by ``test_in_flight_counts_balance_at_run_end``."""
    in_flight, intervals, checked = Counter(), {}, []

    def observe(ev):
        if isinstance(ev, Dispatched):
            in_flight[ev.task_id] += 1
            intervals.setdefault(ev.client_id, []).append((ev.start, ev.arrival))
        elif isinstance(ev, Arrived):
            engine, _ = runs[0]
            if engine.finished[ev.task_id] is None:
                assert engine.in_flight[ev.task_id] == in_flight[ev.task_id], ev
                checked.append(ev)
            in_flight[ev.task_id] -= 1

    run_single(small_config(**ALGORITHMS[name]), seed, observer=observe)
    assert checked
    for spans in intervals.values():
        spans.sort()
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ALGORITHMS)
def test_in_flight_counts_balance_at_run_end(name, seed, runs):
    """The engine's in-flight count of a task is never negative, and at run
    end it is the task's sends minus its skipped dispatches minus its
    arrivals: its Dispatched events, less its Arrived events, plus the sends
    still queued on the heap. Under mm_sync it includes the cancelled
    stragglers whose arrivals are still queued."""
    dispatched, arrived = Counter(), Counter()

    def observe(ev):
        engine, _ = runs[0]
        assert min(engine.in_flight.values()) >= 0, ev
        if isinstance(ev, Dispatched):
            dispatched[ev.task_id] += 1
        elif isinstance(ev, Arrived):
            assert engine.in_flight[ev.task_id] >= 1, ev  # counts this one still
            arrived[ev.task_id] += 1

    run_single(small_config(**ALGORITHMS[name]), seed, observer=observe)
    engine, _ = runs[0]
    queued = engine.sent - engine.handled
    skipped = {tid: engine.sent[tid] - dispatched[tid] - queued[tid] for tid in (0, 1)}
    assert min(skipped.values()) >= 0
    assert sum(skipped.values()) == engine.skipped_dispatches
    assert sum(arrived.values()) > 0
    for tid in (0, 1):
        balance = engine.sent[tid] - skipped[tid] - arrived[tid]
        assert engine.in_flight[tid] == balance == dispatched[tid] - arrived[tid] + queued[tid]
        assert engine.in_flight[tid] >= 0


@pytest.mark.parametrize("name", ALGORITHMS)
def test_a_finished_engine_is_freed_without_the_cycle_collector(name, monkeypatch):
    """Once ``run_single`` returns, reference counting alone frees its
    engine, with its in-flight updates and their model snapshots, while the
    caller still holds the returned log and policy."""
    engines = []

    class WatchedEngine(Engine):
        def run(self, policy):
            engines.append(weakref.ref(self))
            return super().run(policy)

    monkeypatch.setattr(harness, "Engine", WatchedEngine)
    gc.collect()
    gc.disable()
    try:
        log, policy = run_single(small_config(**ALGORITHMS[name]), 1)
        assert engines[0]() is None
    finally:
        gc.enable()
