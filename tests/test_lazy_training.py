"""Lazy request training: an update is trained only when a server consumes it
(a server step aggregates it, or the planner reads it), and the delta it gets
is the one training at dispatch would have produced."""

from dataclasses import replace

import numpy as np
import pytest

import fstsim.baselines as baselines
import fstsim.event_engine as event_engine
import fstsim.fedast_server as fedast_server
from fstsim.config import ExperimentConfig, TaskConfig
from fstsim.event_engine import Aggregated, Engine, StopConditions
from fstsim.fedast_server import server_step
from fstsim.harness import build_policy, build_scenario, run_experiment, run_single
from fstsim.local_trainer import local_train
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
    "mm_sync": dict(algorithm="mm_sync", k_sync=3),
}


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


def small_engine(name):
    """A fresh (engine, policy) pair for one small simulation, not yet run."""
    cfg = small_config(**ALGORITHMS[name])
    scenario = build_scenario(cfg, SEED)
    engine = Engine(
        tasks=scenario.tasks, shards=scenario.shards, eval_sets=scenario.eval_sets,
        profiles=scenario.profiles, seed=SEED, availability_p=cfg.availability,
        delay=scenario.delay, eval_interval=cfg.eval_interval,
        stop=StopConditions(stop_on_targets=False, max_rounds=cfg.max_rounds),
    )
    return engine, build_policy(cfg, scenario.tasks)


def instrumented_run(name, monkeypatch):
    """Run one small simulation and return (engine, policy, updates, eager
    deltas by update id, ids of the consumed updates, number of requests the
    run trained). An update is consumed when a server step aggregates it or
    the planner reads it from a history."""
    engine, policy = small_engine(name)

    updates, eager, dispatch_counts = [], {}, {}
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
            eager[id(arg)] = local_train(
                engine.tasks[tid], [np.array(engine.models[tid])], engine.shards[tid], [cid],
                [(SEED, tid, cid, dispatch_no)], rng.request_generator(),
            )[0]
        push(time, handler, arg)

    trained = 0

    def counted_local_train(task, snapshots, shards, clients, keys, streams):
        nonlocal trained
        trained += len(clients)
        return local_train(task, snapshots, shards, clients, keys, streams)

    aggregated, n_updates, planner_reads = [], [], []

    def recorded_server_step(engine, spec, step_updates):
        aggregated.extend(id(u) for u in step_updates)
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

    assert len(aggregated) == sum(n_updates)
    by_delta = {id(u.delta): id(u) for u in updates if u.delta is not None}
    consumed = set(aggregated) | {by_delta[d] for d in planner_reads}
    return engine, policy, updates, eager, consumed, trained


@pytest.mark.parametrize("name", ALGORITHMS)
def test_consumed_deltas_equal_training_at_dispatch(name, monkeypatch):
    _, _, updates, eager, consumed, trained = instrumented_run(name, monkeypatch)
    trained_updates = [u for u in updates if u.snapshot is None]
    assert len(trained_updates) == trained > 0
    assert {id(u) for u in trained_updates} == consumed
    for update in trained_updates:
        assert update.delta.tobytes() == eager[id(update)].tobytes()


@pytest.mark.parametrize("name", ALGORITHMS)
def test_only_consumed_updates_are_trained(name, monkeypatch):
    _, policy, updates, _, consumed, trained = instrumented_run(name, monkeypatch)
    assert trained == len(consumed) < len(updates)
    states = [policy.state(tid) for tid in (0, 1)]
    if name == "mm_sync":
        assert trained == sum(st.aggregated_total for st in states)
        assert policy.updates_discarded > 0
    else:
        assert sum(st.late_discards for st in states) > 0
    if name == "no_buffer":
        assert sum(st.dropped for st in states) > 0


def test_updates_buffered_at_the_horizon_are_not_trained():
    cfg = replace(small_config("fedast_static", seed=SEED), max_rounds=None, max_sim_time=7.5)
    log, policy = run_single(cfg, SEED)
    assert log.stop_reason == "max_sim_time"
    left = [u for tid in (0, 1) for u in policy.state(tid).buffer]
    assert left and all(u.delta is None and u.snapshot is not None for u in left)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_server_models_are_read_only(name, monkeypatch):
    fresh, _ = small_engine(name)
    with pytest.raises(ValueError):
        fresh.models[0][0] = 1.0
    engine, *_ = instrumented_run(name, monkeypatch)
    assert engine.rounds[0] > 0
    for tid in (0, 1):
        with pytest.raises(ValueError):
            engine.models[tid][0] += 1.0
