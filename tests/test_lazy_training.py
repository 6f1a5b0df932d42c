"""Lazy request training: an update is trained by the time a server consumes
it (a server step aggregates it, or the planner reads it), and the delta it
gets is the one training at dispatch would have produced. A policy that does
not train ahead trains only the updates it consumes; uncapped FedAST also
trains a task's requests still in flight, but none arriving after
max_sim_time, and a diverged one raises only where a step reads it."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

import fstsim.baselines as baselines
import fstsim.event_engine as event_engine
import fstsim.fedast_server as fedast_server
from fstsim.config import ExperimentConfig, TaskConfig
from fstsim.event_engine import Aggregated, Engine, StopConditions
from fstsim.fedast_server import server_step
from fstsim.harness import build_policy, build_scenario, run_experiment, run_single
import fstsim.local_trainer as trainer
from fstsim.local_trainer import DIVERGENCE_LIMIT, DivergenceError, local_train
from fstsim.realloc import compute_plan
from fstsim import rng

SEED = 3

#: Each case exercises a way an update can go unconsumed: staleness drops
#: (no_buffer), over-k and cancelled requests (mm_sync), late stragglers of
#: the task that reaches max_rounds first, and requests still in flight at
#: the end of the run (all).
ALGORITHMS = {
    "fedast_static": dict(algorithm="fedast_static"),
    "fedast_dynamic": dict(algorithm="fedast_dynamic", c_period=10),
    "no_buffer": dict(algorithm="no_buffer", tau_max=1, drop_enforcement=True),
    "no_buffer_uncapped": dict(algorithm="no_buffer"),
    "mm_sync": dict(algorithm="mm_sync", k_sync=3),
}
#: The cases without a staleness cap, whose policy trains ahead.
TRAINS_AHEAD = {"fedast_static", "fedast_dynamic", "no_buffer_uncapped"}


@pytest.mark.parametrize(
    "seed, task_id, client_id, dispatch_no", [(1, 0, 0, 0), (7919, 2, 999, 41)]
)
def test_request_streams_equal_the_public_philox_form(seed, task_id, client_id, dispatch_no):
    """Each stream is Philox under the run's key for that stream, started at
    the counter [0, task_id, client_id, dispatch_no], draw for draw, when
    the run's request generator is re-keyed to it."""
    key = (seed, task_id, client_id, dispatch_no)
    streams = rng.request_generator()
    for stream in (rng.TRAIN, rng.DELAY):
        got = rng.rekey(streams, key, stream)
        words = np.random.SeedSequence(seed, spawn_key=(rng._REQUEST, stream)).generate_state(
            2, np.uint64
        )
        want = np.random.Generator(
            np.random.Philox(key=words, counter=[0, task_id, client_id, dispatch_no])
        )
        assert np.array_equal(got.random(8), want.random(8))
        assert np.array_equal(got.normal(size=8), want.normal(size=8))
        assert np.array_equal(got.integers(1000, size=8), want.integers(1000, size=8))
        assert np.array_equal(
            got.choice(50, size=8, replace=False), want.choice(50, size=8, replace=False)
        )


def test_cached_run_key_is_read_only():
    """The cached run key is an immutable pair of Python ints, handed out
    as the same object every time."""
    key = rng._run_key(5, rng.DELAY)
    assert isinstance(key, tuple) and len(key) == 2
    assert all(type(word) is int for word in key)
    assert rng._run_key(5, rng.DELAY) is key


def test_cold_and_warm_key_cache_write_the_same_metrics(tmp_path):
    cfg = small_config("fedast_dynamic", c_period=10, seed=SEED, runs=1)
    rng._run_key.cache_clear()
    run_experiment(cfg, out_dir=tmp_path / "cold")
    assert rng._run_key.cache_info().currsize > 0
    run_experiment(cfg, out_dir=tmp_path / "warm")
    for name in ("run_000.csv", "run_000.jsonl"):
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()


def small_config(algorithm: str, **extra) -> ExperimentConfig:
    b0 = 1 if algorithm == "no_buffer" else 2
    tasks = (
        TaskConfig(task_id=0, kind="quadratic", tau=2, eta_c=0.05, dim=3, mu=1.0,
                   sigma_g=1.0, r0=5, b0=b0, target_kind="loss", target_metric=1e-12),
        TaskConfig(task_id=1, kind="logistic", tau=3, eta_c=0.1, n_features=3,
                   n_classes=3, batch_size=2, n_train=96, n_eval=32, base_beta=2.0,
                   r0=4, b0=b0, target_kind="loss", target_metric=1e-12),
    )
    return ExperimentConfig(tasks=tasks, algorithm=algorithm, n_clients=12,
                            availability=0.8, eval_interval=1.0, stop_on_targets=False,
                            max_rounds=12, **extra)


def small_engine(name, stop=None):
    """A fresh (engine, policy) pair for one small simulation, not yet run;
    ``stop`` replaces the config's max_rounds stop."""
    cfg = small_config(**ALGORITHMS[name])
    scenario = build_scenario(cfg, SEED)
    engine = Engine(
        tasks=scenario.tasks, shards=scenario.shards, eval_sets=scenario.eval_sets,
        profiles=scenario.profiles, seed=SEED, availability_p=cfg.availability,
        delay=scenario.delay, eval_interval=cfg.eval_interval,
        stop=stop or StopConditions(stop_on_targets=False, max_rounds=cfg.max_rounds),
    )
    return engine, build_policy(cfg, scenario.tasks)


@dataclass
class Instrumented:
    """One instrumented run: every update in dispatch order, with its delta
    trained at dispatch and its arrival time by update id; the time and
    round of the server step that aggregated it, by update id; the ids of
    the consumed updates (aggregated by a server step or read by the
    planner); the number of rows ``local_train`` trained and, per call, the
    keys it trained and how many of them were requested."""

    engine: Engine
    policy: object
    updates: list
    eager: dict
    arrivals: dict
    steps: dict
    consumed: set
    trained: int
    calls: list

    def trained_ids(self):
        return {id(u) for u in self.updates if u.snapshot is None}


def instrumented_run(name, monkeypatch, stop=None, local_train=local_train):
    """Run one small simulation, training a copy of every request at its
    dispatch, and record what the run trained and consumed."""
    engine, policy = small_engine(name, stop)

    updates, eager, arrivals, dispatch_counts = [], {}, {}, {}
    push = engine._push

    def push_training_eagerly(time, handler, arg):
        # An arrival is pushed by the dispatch that created it, so the
        # task's model is still the one the request was dispatched from.
        if handler == engine._do_arrival:
            tid, cid = arg.task_id, arg.client_id
            dispatch_no = dispatch_counts.get((tid, cid), 0)
            dispatch_counts[(tid, cid)] = dispatch_no + 1
            assert arg.dispatch_no == dispatch_no
            updates.append(arg)
            arrivals[id(arg)] = time
            eager[id(arg)] = trainer.local_train(
                engine.tasks[tid], [np.array(engine.models[tid])], engine.shards[tid], [cid],
                [(SEED, tid, cid, dispatch_no)], rng.request_generator(),
            )[0]
        push(time, handler, arg)

    trained, calls = 0, []

    def counted_local_train(task, snapshots, shards, clients, keys, streams, ahead_from=None):
        nonlocal trained
        calls.append((list(keys), len(keys) if ahead_from is None else ahead_from))
        deltas = local_train(task, snapshots, shards, clients, keys, streams, ahead_from)
        trained += len(deltas)
        return deltas

    steps, n_updates, planner_reads = {}, [], []

    def recorded_server_step(engine, spec, step_updates):
        steps.update((id(u), (engine.now, engine.rounds[spec.task_id])) for u in step_updates)
        server_step(engine, spec, step_updates)

    def recorded_compute_plan(views, budget):
        planner_reads.extend(id(delta) for view in views for delta in view.history)
        return compute_plan(views, budget)

    def observe(event):
        if isinstance(event, Aggregated):
            n_updates.append(event.n_updates)

    engine._push = push_training_eagerly
    engine.observer = observe
    monkeypatch.setattr(event_engine, "local_train", counted_local_train)
    monkeypatch.setattr(fedast_server, "server_step", recorded_server_step)
    monkeypatch.setattr(baselines, "server_step", recorded_server_step)
    monkeypatch.setattr(fedast_server, "compute_plan", recorded_compute_plan)
    engine.run(policy)

    assert len(steps) == sum(n_updates)
    by_delta = {id(u.delta): id(u) for u in updates if u.delta is not None}
    consumed = set(steps) | {by_delta[d] for d in planner_reads}
    return Instrumented(engine, policy, updates, eager, arrivals, steps, consumed, trained,
                        calls)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_consumed_deltas_equal_training_at_dispatch(name, monkeypatch):
    run = instrumented_run(name, monkeypatch)
    trained_updates = [u for u in run.updates if u.snapshot is None]
    assert len(trained_updates) == run.trained > 0
    if name in TRAINS_AHEAD:
        assert run.consumed <= run.trained_ids()
    else:
        assert run.trained_ids() == run.consumed
    for update in trained_updates:
        assert update.delta.tobytes() == run.eager[id(update)].tobytes()


@pytest.mark.parametrize("name", sorted(set(ALGORITHMS) - TRAINS_AHEAD))
def test_only_consumed_updates_are_trained(name, monkeypatch):
    run = instrumented_run(name, monkeypatch)
    policy, trained, consumed = run.policy, run.trained, run.consumed
    assert trained == len(consumed) < len(run.updates)
    states = [policy.state(tid) for tid in (0, 1)]
    if name == "mm_sync":
        assert trained == sum(st.aggregated_total for st in states)
        assert policy.updates_discarded > 0
    else:
        assert sum(st.late_discards for st in states) > 0
    if name == "no_buffer":
        assert sum(st.dropped for st in states) > 0


@pytest.mark.parametrize("name", sorted(TRAINS_AHEAD))
def test_uncapped_fedast_trains_in_flight_requests_ahead(name, monkeypatch):
    """Every consumed update is trained, and so are requests still in flight
    when their task steps, in fewer calls than the steps that read them."""
    run = instrumented_run(name, monkeypatch)
    assert run.consumed < run.trained_ids()
    assert any(len(keys) > requested for keys, requested in run.calls)
    assert len(run.calls) < sum(run.engine.rounds.values())
    assert sum(run.policy.state(tid).late_discards for tid in (0, 1)) > 0


def test_updates_buffered_at_the_horizon_are_not_trained():
    """Under a staleness cap no request is trained ahead: what is left in a
    buffer at max_sim_time was never trained."""
    cfg = replace(small_config("fedast_static", seed=SEED), max_rounds=None, max_sim_time=7.5,
                  tau_max=100, drop_enforcement=True)
    log, policy = run_single(cfg, SEED)
    assert log.stop_reason == "max_sim_time"
    left = [u for tid in (0, 1) for u in policy.state(tid).buffer]
    assert left and all(u.delta is None and u.snapshot is not None for u in left)


@pytest.mark.parametrize("name", sorted(TRAINS_AHEAD))
def test_no_request_arriving_after_the_horizon_is_trained(name, monkeypatch):
    horizon = StopConditions(stop_on_targets=False, max_sim_time=7.5)
    run = instrumented_run(name, monkeypatch, stop=horizon)
    assert run.engine.now == 7.5
    late = {id(u) for u in run.updates if run.arrivals[id(u)] > 7.5}
    trained = run.trained_ids()
    assert late and not late & trained
    assert run.consumed <= trained
    for update in run.updates:
        if id(update) in trained:
            assert update.delta.tobytes() == run.eager[id(update)].tobytes()


def poisoning(key):
    """``local_train`` with request ``key``'s snapshot replaced by one far past
    DIVERGENCE_LIMIT, so that request, and only it, diverges at its first
    step."""

    def poisoned(task, snapshots, shards, clients, keys, streams, ahead_from=None):
        snapshots = [np.full(task.dim, 10 * DIVERGENCE_LIMIT) if k == key else s
                     for s, k in zip(snapshots, keys)]
        return local_train(task, snapshots, shards, clients, keys, streams, ahead_from)

    return poisoned


def key_of(update):
    return (SEED, update.task_id, update.client_id, update.dispatch_no)


def test_a_diverged_request_no_step_reads_never_raises(monkeypatch):
    """A request trained ahead that diverges, but that no server step reads,
    lets the run finish as it would had it converged, and stays untrained."""
    clean = instrumented_run("fedast_static", monkeypatch)
    unread = [u for u in clean.updates
              if id(u) in clean.trained_ids() - clean.consumed and u.task_id == 1]
    key = key_of(unread[0])

    poisoned = instrumented_run("fedast_static", monkeypatch, local_train=poisoning(key))
    assert poisoned.engine.rounds == clean.engine.rounds
    for tid in (0, 1):
        assert poisoned.engine.models[tid].tobytes() == clean.engine.models[tid].tobytes()
    update = next(u for u in poisoned.updates if key_of(u) == key)
    assert id(update) not in poisoned.consumed
    assert update.delta is None and update.snapshot is not None
    assert any(key in keys[requested:] for keys, requested in poisoned.calls)


def test_a_diverged_request_a_step_reads_raises_at_that_step(monkeypatch):
    """A request trained ahead that diverges raises DivergenceError only at
    the server step that reads it, naming its task, client and step."""
    clean = instrumented_run("fedast_static", monkeypatch)
    ahead = {k for keys, requested in clean.calls for k in keys[requested:]}
    read = [u for u in clean.updates if id(u) in clean.steps and key_of(u) in ahead
            and u.task_id == 1]
    target = read[len(read) // 2]

    engine, policy = small_engine("fedast_static")
    monkeypatch.setattr(event_engine, "local_train", poisoning(key_of(target)))
    with pytest.raises(DivergenceError) as raised:
        engine.run(policy)
    assert (raised.value.task_id, raised.value.client_id, raised.value.step_index) == (
        1, target.client_id, 1)
    assert (engine.now, engine.rounds[1]) == clean.steps[id(target)]


@pytest.mark.parametrize("name", ALGORITHMS)
def test_server_models_are_read_only(name, monkeypatch):
    fresh, _ = small_engine(name)
    with pytest.raises(ValueError):
        fresh.models[0][0] = 1.0
    engine = instrumented_run(name, monkeypatch).engine
    assert engine.rounds[0] > 0
    for tid in (0, 1):
        with pytest.raises(ValueError):
            engine.models[tid][0] += 1.0
