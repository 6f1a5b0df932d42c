"""Discrete-event loop: ordering, FIFO client queues, sampling, stops."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fstsim.event_engine as engine_mod
import fstsim.rng
from fstsim.config import ExperimentConfig, TaskConfig
from fstsim.delay_model import ClientProfiles, DelaySpec
from fstsim.event_engine import (
    Aggregated,
    Arrived,
    Dispatched,
    Engine,
    Finished,
    SimulationError,
    StarvedError,
    StopConditions,
)
from fstsim.fedast_server import FedAstServer
from fstsim.harness import run_single
from fstsim.objectives import ClientShards, Dataset, QuadraticObjective, TaskSpec
from oracles import sample_clients_loop


def quad_task(tid=0, target_kind="accuracy", target=0.99, tau=1, eta_c=0.1):
    return TaskSpec(task_id=tid, objective=QuadraticObjective(dim=1), tau=tau,
                    eta_c=eta_c, eta_s=1.0, target_metric=target,
                    target_kind=target_kind, batch_size=1)


def pool(multipliers, base_betas):
    """Clients of the normal class (code 1): client c's beta for task m is
    base_betas[m] * multipliers[c]."""
    return ClientProfiles([1] * len(multipliers), multipliers, base_betas)


def zero_shards(task_ids, n_clients):
    return {tid: ClientShards(np.zeros((n_clients, 1)), None, np.arange(n_clients + 1))
            for tid in task_ids}


def zero_evals(task_ids):
    return {tid: Dataset(np.zeros((1, 1))) for tid in task_ids}


CONSTANT_DELAY = DelaySpec(shift_factor=1.0, scale_factor=0.0)


class StubPolicy:
    """Scripted policy: caller-provided start/update hooks. A hook advances a
    task by bumping ``engine.rounds`` by hand; the models stay at zero."""

    def __init__(self, task_ids, on_start=None, on_update=None):
        self.finished_calls = []
        self.updates = []
        self._on_start = on_start
        self._on_update = on_update

    def start(self, engine):
        if self._on_start:
            self._on_start(self, engine)

    def handle_update(self, engine, update):
        self.updates.append(update)
        if self._on_update:
            self._on_update(self, engine, update)

    def task_metrics(self, task_id):
        return {"r": 0, "b": 0, "staleness_mean": 0.0, "staleness_max": 0,
                "c": len(self.updates), "dropped": 0}

    def mark_finished(self, engine, task_id):
        self.finished_calls.append(task_id)


class TestReferenceTrace:
    def test_ten_event_hand_computed_trace(self):
        """Three clients with step times 1/2/3, two requests up front, then a
        2-0-1 round robin driven by arrivals. Every timestamp, client pick,
        dispatch round, and the tie-broken event order were worked out by
        hand before this test was written."""
        profiles = pool([1.0, 2.0, 3.0], {0: 1.0})
        rotation = itertools.cycle([2, 0, 1])

        def on_start(policy, engine):
            engine.send(0, 0)
            engine.send(0, 1)

        def on_update(policy, engine, update):
            engine.rounds[0] += 1
            engine.send(0, next(rotation))

        policy = StubPolicy([0], on_start, on_update)
        events = []
        engine = Engine(
            tasks=[quad_task()], shards=zero_shards([0], 3), eval_sets=zero_evals([0]),
            profiles=profiles, seed=0, delay=CONSTANT_DELAY, eval_interval=None,
            stop=StopConditions(stop_on_targets=False, max_rounds=4),
            observer=events.append,
        )
        log = engine.run(policy)

        assert events == [
            Dispatched(0.0, 0, 0, 0, 0.0, 1.0),
            Dispatched(0.0, 0, 1, 0, 0.0, 2.0),
            Arrived(1.0, 0, 0, 0),
            Dispatched(1.0, 0, 2, 1, 1.0, 4.0),
            Arrived(2.0, 0, 1, 0),
            Dispatched(2.0, 0, 0, 2, 2.0, 3.0),
            Arrived(3.0, 0, 0, 2),
            Dispatched(3.0, 0, 1, 3, 3.0, 5.0),
            Arrived(4.0, 0, 2, 1),
            Finished(4.0, 0, "max_rounds"),
        ]
        assert log.stop_reason == "max_rounds"
        assert log.sim_time == 4.0
        assert log.events_processed == 9
        assert log.finish_reasons == {0: "max_rounds"}


class TestFifoClients:
    def test_two_tasks_one_client_queue_in_dispatch_order(self):
        # steps cost 1 for task 0 and 4 for task 1: both dispatched at t=0,
        # so task 1 starts only at t=1 and arrives at 5
        profiles = pool([1.0], {0: 1.0, 1: 4.0})

        def on_start(policy, engine):
            engine.send(0, 0)
            engine.send(1, 0)

        def on_update(policy, engine, update):
            engine.rounds[update.task_id] += 1

        policy = StubPolicy([0, 1], on_start, on_update)
        events = []
        engine = Engine(
            tasks=[quad_task(0), quad_task(1)], shards=zero_shards([0, 1], 1),
            eval_sets=zero_evals([0, 1]), profiles=profiles, seed=0,
            delay=CONSTANT_DELAY, eval_interval=None,
            stop=StopConditions(stop_on_targets=False, max_rounds=1),
            observer=events.append,
        )
        log = engine.run(policy)
        assert events == [
            Dispatched(0.0, 0, 0, 0, 0.0, 1.0),
            Dispatched(0.0, 1, 0, 0, 1.0, 5.0),
            Arrived(1.0, 0, 0, 0),
            Finished(1.0, 0, "max_rounds"),
            Arrived(5.0, 1, 0, 0),
            Finished(5.0, 1, "max_rounds"),
        ]
        assert log.sim_time == 5.0

    def test_dispatch_to_busy_client_starts_when_it_frees_up(self):
        # client 0 is busy with task 0 until t=5; task 1 lands on it at t=3
        # (triggered by a helper arrival) and completes at 5 + 2 = 7
        profiles = pool([1.0, 1.0], {0: 5.0, 1: 2.0, 2: 3.0})

        def on_start(policy, engine):
            engine.send(0, 0)
            engine.send(2, 1)

        def on_update(policy, engine, update):
            engine.rounds[update.task_id] += 1
            if update.task_id == 2:
                engine.send(1, 0)

        policy = StubPolicy([0, 1, 2], on_start, on_update)
        events = []
        engine = Engine(
            tasks=[quad_task(0), quad_task(1), quad_task(2)],
            shards=zero_shards([0, 1, 2], 2), eval_sets=zero_evals([0, 1, 2]),
            profiles=profiles, seed=0, delay=CONSTANT_DELAY, eval_interval=None,
            stop=StopConditions(stop_on_targets=False, max_rounds=1),
            observer=events.append,
        )
        engine.run(policy)
        assert events == [
            Dispatched(0.0, 0, 0, 0, 0.0, 5.0),
            Dispatched(0.0, 2, 1, 0, 0.0, 3.0),
            Arrived(3.0, 2, 1, 0),
            Finished(3.0, 2, "max_rounds"),
            Dispatched(3.0, 1, 0, 0, 5.0, 7.0),
            Arrived(5.0, 0, 0, 0),
            Finished(5.0, 0, "max_rounds"),
            Arrived(7.0, 1, 0, 0),
            Finished(7.0, 1, "max_rounds"),
        ]

    def test_dispatch_to_idle_client_starts_immediately(self):
        # client 0 went idle at t=1; a request at t=2 with 3 time units of
        # work completes at 2 + 3 = 5, not 1 + 3
        profiles = pool([1.0, 1.0], {0: 1.0, 1: 3.0, 2: 2.0})

        def on_start(policy, engine):
            engine.send(0, 0)
            engine.send(2, 1)

        def on_update(policy, engine, update):
            engine.rounds[update.task_id] += 1
            if update.task_id == 2:
                engine.send(1, 0)

        policy = StubPolicy([0, 1, 2], on_start, on_update)
        events = []
        engine = Engine(
            tasks=[quad_task(0), quad_task(1), quad_task(2)],
            shards=zero_shards([0, 1, 2], 2), eval_sets=zero_evals([0, 1, 2]),
            profiles=profiles, seed=0, delay=CONSTANT_DELAY, eval_interval=None,
            stop=StopConditions(stop_on_targets=False, max_rounds=1),
            observer=events.append,
        )
        engine.run(policy)
        assert Dispatched(2.0, 1, 0, 0, 2.0, 5.0) in events
        assert Arrived(5.0, 1, 0, 0) in events


    def test_release_frees_busy_clients_and_leaves_idle_ones(self):
        # client 0 is busy until 5 and client 1 until 1; after a release at
        # t=2, a request to client 0 starts at 2 instead of 5, and client 1
        # keeps the time it went idle
        profiles = pool([5.0, 1.0], {0: 1.0})
        released = []

        def release(engine):
            engine.release_clients(engine.now)
            released.append(list(engine.busy_until))
            engine.send(0, 0)

        def on_start(policy, engine):
            engine.send(0, 0)
            engine.send(0, 1)
            engine.call_at(2.0, release)

        def on_update(policy, engine, update):
            engine.rounds[0] += 1

        events = []
        engine = Engine(
            tasks=[quad_task()], shards=zero_shards([0], 2), eval_sets=zero_evals([0]),
            profiles=profiles, seed=0, delay=CONSTANT_DELAY, eval_interval=None,
            stop=StopConditions(stop_on_targets=False, max_rounds=3),
            observer=events.append,
        )
        engine.run(StubPolicy([0], on_start, on_update))
        assert released == [[2.0, 1.0]]
        assert [ev for ev in events if isinstance(ev, Dispatched)] == [
            Dispatched(0.0, 0, 0, 0, 0.0, 5.0),
            Dispatched(0.0, 0, 1, 0, 0.0, 1.0),
            Dispatched(2.0, 0, 0, 1, 2.0, 7.0),
        ]
        assert events[-2:] == [Arrived(7.0, 0, 0, 1), Finished(7.0, 0, "max_rounds")]


class TestSampling:
    def make_engine(self, n_clients, availability=1.0, seed=0):
        profiles = pool([1.0] * n_clients, {0: 1.0})
        return Engine(
            tasks=[quad_task()], shards=zero_shards([0], n_clients),
            eval_sets=zero_evals([0]), profiles=profiles, seed=seed,
            availability_p=availability, eval_interval=None,
            stop=StopConditions(stop_on_targets=False, max_rounds=1),
        )

    def test_single_client_fully_available(self):
        engine = self.make_engine(1)
        assert engine.sample_clients(3) == [0, 0, 0]

    def test_sampling_is_uniform(self):
        engine = self.make_engine(10, seed=3)
        n = 100_000
        counts = np.bincount(engine.sample_clients(n), minlength=10)
        # binomial SE = sqrt(n * .1 * .9) ~ 95; allow 4 SE
        assert np.all(np.abs(counts - n / 10) < 400)

    def test_partial_availability_still_uniform(self):
        engine = self.make_engine(5, availability=0.3, seed=1)
        n = 50_000
        counts = np.bincount(engine.sample_clients(n), minlength=5)
        assert np.all(np.abs(counts - n / 5) < 4 * np.sqrt(n * 0.2 * 0.8))

    def test_rejection_cap_raises(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "SAMPLER_ITERATION_CAP", 0)
        engine = self.make_engine(3)
        with pytest.raises(SimulationError, match="sampler"):
            engine.sample_clients(1)

    def test_draw_available_matches_probability(self):
        engine = self.make_engine(1000, availability=0.3, seed=5)
        sizes = [len(engine.draw_available()) for _ in range(200)]
        assert np.mean(sizes) == pytest.approx(300, abs=4 * np.sqrt(1000 * 0.3 * 0.7 / 200))

    def test_availability_validation(self):
        with pytest.raises(ValueError):
            self.make_engine(2, availability=0.0)
        with pytest.raises(ValueError):
            self.make_engine(2, availability=1.5)


def sampling_engine(n_clients, availability, seed):
    return Engine(
        tasks=[quad_task()], shards=zero_shards([0], n_clients), eval_sets=zero_evals([0]),
        profiles=pool([1.0] * n_clients, {0: 1.0}), seed=seed, availability_p=availability,
        eval_interval=None, stop=StopConditions(stop_on_targets=False, max_rounds=1),
    )


def stream_state(stream):
    """A stream's whole state, less the value of a stashed half-word already
    drawn: numpy keeps it, but never reads it again."""
    state = stream.bit_generator.state
    if not state["has_uint32"]:
        state["uinteger"] = 0
    return repr(state)


#: A direct read of the server stream, as a policy might make one.
READS = {
    "integers": lambda stream, m: int(stream.integers(m)),  # a half-word when m < 2**32
    "random": lambda stream, m: stream.random(m).tolist(),
    "permutation": lambda stream, m: stream.permutation(m).tolist(),
    "random_raw": lambda stream, m: stream.bit_generator.random_raw(m).tolist(),
}

OPS = st.lists(st.one_of(
    st.tuples(st.just("sample"), st.integers(1, 60)),
    st.tuples(st.just("available"), st.just(0)),
    st.tuples(st.sampled_from(sorted(READS)), st.integers(1, 9)),
), max_size=12)


class TestServedSampler:
    """``sample_clients`` serves its draws from a replayed block; every value
    and every later draw of the server stream equal the rejection loop's."""

    @given(n_clients=st.integers(1, 50), availability=st.floats(0.05, 1.0),
           seed=st.integers(0, 2**16), ops=OPS)
    @settings(max_examples=200, deadline=None)
    def test_interleaved_draws_equal_the_loop(self, n_clients, availability, seed, ops):
        engine = sampling_engine(n_clients, availability, seed)
        loop = fstsim.rng.server_rng(seed)
        for op, arg in ops:
            if op == "sample":
                assert engine.sample_clients(arg) == sample_clients_loop(
                    loop, n_clients, availability, arg, engine_mod.SAMPLER_ITERATION_CAP)
            elif op == "available":
                assert engine.draw_available() == [
                    int(i) for i in np.flatnonzero(loop.random(n_clients) < availability)]
            else:
                assert READS[op](engine.server_stream, arg) == READS[op](loop, arg)
        assert stream_state(engine.server_stream) == stream_state(loop)
        assert engine.sample_clients(3) == sample_clients_loop(loop, n_clients, availability,
                                                               3, 10**6)
        assert READS["integers"](engine.server_stream, 7) == READS["integers"](loop, 7)

    @pytest.mark.parametrize("n_clients", [2**31 + 1, 2**32 - 1, 2**32, 2**33 + 1])
    def test_pools_too_large_to_build_equal_the_loop(self, n_clients):
        """About half of the candidate draws for 2**31 + 1 clients meet a
        Lemire rejection, which cuts blocks short; from 2**32 clients numpy
        draws whole words, which the replay leaves to the loop."""
        engine = sampling_engine(1, 0.3, 5)
        engine.n_clients = n_clients  # the sampler reads only the pool size
        loop = fstsim.rng.server_rng(5)
        for k in (1, 3, 40, 2, 100):
            assert engine.sample_clients(k) == sample_clients_loop(loop, n_clients, 0.3, k, 10**6)
        assert READS["integers"](engine.server_stream, 7) == READS["integers"](loop, 7)
        assert engine.sample_clients(5) == sample_clients_loop(loop, n_clients, 0.3, 5, 10**6)
        assert stream_state(engine.server_stream) == stream_state(loop)

    @pytest.mark.parametrize("cap", [0, 5, 50])
    @given(n_clients=st.integers(1, 50), seed=st.integers(0, 2**16),
           ks=st.lists(st.integers(1, 3), min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_cap_raises_on_the_loops_call(self, cap, n_clients, seed, ks):
        engine = sampling_engine(n_clients, 0.05, seed)
        loop = fstsim.rng.server_rng(seed)
        with mock.patch.object(engine_mod, "SAMPLER_ITERATION_CAP", cap):
            for k in ks:
                try:
                    want = sample_clients_loop(loop, n_clients, 0.05, k, cap)
                except SimulationError:
                    with pytest.raises(SimulationError, match="sampler"):
                        engine.sample_clients(k)
                    break
                assert engine.sample_clients(k) == want
        assert stream_state(engine.server_stream) == stream_state(loop)


class TestPolicyCallback:
    def test_callback_at_now_runs_after_queued_same_time_events(self):
        """At t=1 the update handler queues a callback, two dispatches and a
        second callback, all for t=1: they run in that (sequence) order."""
        seen, events = [], []

        def dispatches_at_1(engine):
            return sum(1 for e in events if isinstance(e, Dispatched) and e.time == 1.0)

        def on_start(policy, engine):
            engine.send(0, 0)

        def on_update(policy, engine, update):
            if engine.now == 1.0:
                engine.call_at(1.0, lambda eng: seen.append(("first", dispatches_at_1(eng))))
                engine.send(0, 0)
                engine.send(0, 1)
                engine.call_at(1.0, lambda eng: seen.append(("second", dispatches_at_1(eng))))

        engine = Engine(tasks=[quad_task()], shards=zero_shards([0], 2),
                        eval_sets=zero_evals([0]),
                        profiles=pool([1.0, 1.0], {0: 1.0}),
                        seed=0, delay=CONSTANT_DELAY, eval_interval=None,
                        stop=StopConditions(stop_on_targets=False, max_sim_time=1.5),
                        observer=events.append)
        engine.run(StubPolicy([0], on_start, on_update))
        assert seen == [("first", 0), ("second", 2)]

    def test_callback_in_the_past_is_an_error(self):
        engine = TestSampling().make_engine(1)
        engine.now = 5.0
        with pytest.raises(SimulationError, match="past"):
            engine.call_at(4.9, lambda eng: None)


class TestStops:
    def test_event_scheduled_in_the_past_is_an_error(self):
        engine = TestSampling().make_engine(1)
        engine.now = 5.0
        for time in (4.9, float("nan")):
            with pytest.raises(SimulationError, match="past"):
                engine._push(time, lambda arg: None, None)

    def test_no_tasks_starves(self):
        engine = Engine(tasks=[], shards={}, eval_sets={}, profiles=pool([1.0], {}),
                        seed=0, eval_interval=None,
                        stop=StopConditions(stop_on_targets=False, max_rounds=1))
        with pytest.raises(StarvedError):
            engine.run(StubPolicy([]))

    def test_idle_policy_starves(self):
        # a live task but nothing on the heap: the loop cannot make progress
        engine = Engine(tasks=[quad_task()], shards=zero_shards([0], 1),
                        eval_sets=zero_evals([0]), profiles=pool([1.0], {0: 1.0}),
                        seed=0, eval_interval=None, stop=StopConditions())
        with pytest.raises(StarvedError):
            engine.run(StubPolicy([0]))

    def test_stop_conditions_validation(self):
        with pytest.raises(ValueError):
            StopConditions(stop_on_targets=False)
        for horizon in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                StopConditions(max_sim_time=horizon)
        with pytest.raises(ValueError):
            StopConditions(max_rounds=0)

    def test_eval_tick_chain_until_max_sim_time(self):
        # idle policy, two tasks: records every 0.5 until the clock cap,
        # tasks evaluated in ascending id order within a tick
        policy = StubPolicy([0, 1])
        engine = Engine(
            tasks=[quad_task(0, target_kind="loss", target=0.0),
                   quad_task(1, target_kind="loss", target=0.0)],
            shards=zero_shards([0, 1], 1), eval_sets=zero_evals([0, 1]),
            profiles=pool([1.0], {0: 1.0, 1: 1.0}), seed=0,
            eval_interval=0.5,
            stop=StopConditions(stop_on_targets=False, max_sim_time=2.0),
        )
        log = engine.run(policy)
        assert log.stop_reason == "max_sim_time"
        assert log.sim_time == 2.0
        assert [(rec.sim_time, rec.task_id) for rec in log.records] == [
            (t, tid) for t in (0.0, 0.5, 1.0, 1.5, 2.0) for tid in (0, 1)
        ]
        # targets were crossed at t=0 and recorded, but did not stop the run
        assert log.target_times == {0: 0.0, 1: 0.0}
        assert log.finish_reasons == {0: None, 1: None}

    def test_target_stop_at_first_eval(self):
        policy = StubPolicy([0])
        engine = Engine(
            tasks=[quad_task(target_kind="loss", target=0.5)],
            shards=zero_shards([0], 1), eval_sets=zero_evals([0]),
            profiles=pool([1.0], {0: 1.0}), seed=0, eval_interval=1.0,
            stop=StopConditions(stop_on_targets=True),
        )
        log = engine.run(policy)
        assert log.stop_reason == "targets"
        assert log.target_times == {0: 0.0}
        assert log.finish_reasons == {0: "target"}
        assert log.sim_time == 0.0
        assert policy.finished_calls == [0]

    def test_dispatch_for_finished_task_is_skipped(self):
        # task 0 hits its target at the t=0 eval; its pending dispatch is
        # then dropped and stops counting as in flight
        def on_start(policy, engine):
            engine.send(0, 0)
            assert engine.in_flight == {0: 1, 1: 0}

        policy = StubPolicy([0, 1], on_start=on_start)
        events = []
        engine = Engine(
            tasks=[quad_task(0, target_kind="loss", target=0.5),
                   quad_task(1, target_kind="loss", target=-1.0)],
            shards=zero_shards([0, 1], 1), eval_sets=zero_evals([0, 1]),
            profiles=pool([1.0], {0: 1.0, 1: 1.0}), seed=0, eval_interval=1.0,
            stop=StopConditions(stop_on_targets=True, max_sim_time=3.0),
            observer=events.append,
        )
        log = engine.run(policy)
        assert engine.skipped_dispatches == 1
        assert engine.in_flight == {0: 0, 1: 0}
        assert not any(isinstance(ev, Arrived) for ev in events)
        assert log.stop_reason == "max_sim_time"

    def test_max_rounds_finishes_every_live_task(self):
        def on_start(policy, engine):
            engine.send(0, 0)

        def on_update(policy, engine, update):
            engine.rounds[0] += 1
            engine.send(0, 0)

        policy = StubPolicy([0], on_start, on_update)
        engine = Engine(
            tasks=[quad_task()], shards=zero_shards([0], 1), eval_sets=zero_evals([0]),
            profiles=pool([1.0], {0: 1.0}), seed=0, delay=CONSTANT_DELAY,
            eval_interval=None, stop=StopConditions(stop_on_targets=False, max_rounds=7),
        )
        log = engine.run(policy)
        assert log.stop_reason == "max_rounds"
        assert engine.rounds[0] == 7
        assert log.sim_time == 7.0  # unit steps, one request in flight
        assert engine.in_flight == {0: 1}  # the last one, sent but never dispatched


class TestClientPool:
    def test_task_without_a_base_beta_is_rejected(self):
        with pytest.raises(ValueError, match="task 1 has no base beta"):
            Engine(tasks=[quad_task(0), quad_task(1)], shards=zero_shards([0, 1], 1),
                   eval_sets=zero_evals([0, 1]), profiles=pool([1.0], {0: 1.0}), seed=0)

    def test_dispatches_are_numbered_per_task_and_client(self):
        # two clients, two tasks: each (task, client) pair counts on its own
        def on_start(policy, engine):
            for task_id, client_id in ((0, 0), (0, 1), (1, 0), (0, 0), (1, 0), (0, 0)):
                engine.send(task_id, client_id)
            engine.call_at(20.0, lambda eng: None)  # past the horizon: a clean stop

        policy = StubPolicy([0, 1], on_start)
        engine = Engine(
            tasks=[quad_task(0), quad_task(1)], shards=zero_shards([0, 1], 2),
            eval_sets=zero_evals([0, 1]), profiles=pool([1.0, 1.0], {0: 1.0, 1: 1.0}),
            seed=0, delay=CONSTANT_DELAY, eval_interval=None,
            stop=StopConditions(stop_on_targets=False, max_sim_time=10.0),
        )
        engine.run(policy)
        assert sorted((u.task_id, u.client_id, u.dispatch_no) for u in policy.updates) == [
            (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (1, 0, 0), (1, 0, 1)]

    def test_event_times_stay_python_floats(self):
        """Betas are products of Python floats, so no numpy scalar reaches the
        clock, the client queues or the events."""
        cfg = ExperimentConfig(
            tasks=(TaskConfig(task_id=0, kind="quadratic", tau=2, eta_c=0.05, dim=2, r0=4,
                              b0=2, base_beta=0.5, target_kind="loss", target_metric=1e-12),),
            n_clients=10, availability=0.9, stop_on_targets=False, max_sim_time=20.0,
        )
        events = []
        run_single(cfg, seed=4, observer=events.append)
        times = [ev.time for ev in events]
        times += [t for ev in events if isinstance(ev, Dispatched) for t in (ev.start, ev.arrival)]
        assert len(times) > 100 and {type(t) for t in times} == {float}


class TestEvaluation:
    def test_a_task_is_evaluated_only_when_its_model_changed(self, monkeypatch):
        """Task 0's model is replaced at t=1.5: the ticks at 1 and 3 reuse the
        loss and accuracy of the model they see, and task 1's model never
        changes. Every record still holds that tick's model's numbers."""
        calls = []
        evaluate = engine_mod.evaluate

        def counted(task, x, eval_set):
            calls.append((task.task_id, float(x[0])))
            return evaluate(task, x, eval_set)

        def on_start(policy, engine):
            engine.send(0, 0)

        def on_update(policy, engine, update):
            engine.models[0] = np.array([2.0])
            engine.models[0].setflags(write=False)

        monkeypatch.setattr(engine_mod, "evaluate", counted)
        tasks = [quad_task(0, target_kind="loss", target=0.0),
                 quad_task(1, target_kind="loss", target=0.0)]
        engine = Engine(
            tasks=tasks, shards=zero_shards([0, 1], 1), eval_sets=zero_evals([0, 1]),
            profiles=pool([1.0], {0: 1.5, 1: 1.0}), seed=0, delay=CONSTANT_DELAY,
            eval_interval=1.0, stop=StopConditions(stop_on_targets=False, max_sim_time=3.0),
        )
        log = engine.run(StubPolicy([0, 1], on_start, on_update))
        assert calls == [(0, 0.0), (1, 0.0), (0, 2.0)]
        for rec in log.records:
            x = np.array([2.0 if rec.task_id == 0 and rec.sim_time > 1.5 else 0.0])
            assert (rec.loss, rec.accuracy) == evaluate(tasks[rec.task_id], x, zero_evals([0])[0])
        assert len(log.records) == 8


class TestEngineIntegration:
    def test_single_client_buffered_server_is_plain_gradient_descent(self):
        """One client, R = b = 1, constant unit delays: the buffered async
        server degenerates to gradient descent with aggregations at t = 1,
        2, 3, ... and x_t = a (1 - (1 - eta_s eta_c)^t)."""
        task = TaskSpec(task_id=0, objective=QuadraticObjective(dim=1), tau=1,
                        eta_c=0.1, eta_s=1.0, target_metric=0.9, batch_size=1)
        shards = {0: ClientShards(np.array([[5.0]]), None, [0, 1])}
        evals = {0: Dataset(np.array([[5.0]]))}
        policy = FedAstServer([task], r0={0: 1}, b0={0: 1})
        events = []
        engine = Engine(
            tasks=[task], shards=shards, eval_sets=evals,
            profiles=pool([1.0], {0: 1.0}), seed=0, delay=CONSTANT_DELAY,
            eval_interval=None, stop=StopConditions(stop_on_targets=False, max_rounds=10),
            observer=events.append,
        )
        log = engine.run(policy)
        times = [ev.time for ev in events if isinstance(ev, Aggregated)]
        assert times == [float(t) for t in range(1, 11)]
        assert log.final_models[0][0] == pytest.approx(5.0 * (1 - 0.9**10), rel=1e-12)
        assert log.stop_reason == "max_rounds"


@pytest.mark.parametrize("algorithm, extra", [("fedast_static", {}), ("mm_sync", {"k_sync": 3})])
def test_request_rngs_is_called_once_per_traced_dispatch(algorithm, extra, monkeypatch):
    """Throughput benchmarks count requests as calls to rng.request_rngs."""
    calls = 0
    request_rngs = fstsim.rng.request_rngs

    def counted(*args):
        nonlocal calls
        calls += 1
        return request_rngs(*args)

    monkeypatch.setattr(fstsim.rng, "request_rngs", counted)
    cfg = ExperimentConfig(
        tasks=(
            TaskConfig(task_id=0, kind="quadratic", tau=2, eta_c=0.05, dim=2, r0=4, b0=2,
                       target_kind="loss", target_metric=1e-12),
            TaskConfig(task_id=1, kind="quadratic", tau=1, eta_c=0.05, dim=3, r0=4, b0=2,
                       target_kind="loss", target_metric=1e-12),
        ),
        algorithm=algorithm, n_clients=10, availability=0.9, eval_interval=1.0,
        stop_on_targets=False, max_rounds=8, **extra,
    )
    events = []
    run_single(cfg, seed=4, observer=events.append)
    dispatches = sum(1 for ev in events if isinstance(ev, Dispatched))
    assert calls == dispatches > 0
