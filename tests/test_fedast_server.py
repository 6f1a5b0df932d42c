"""Buffered async server: aggregation, dispatch walk, drops, reallocation."""

from pathlib import Path

import numpy as np
import pytest

import fstsim.fedast_server as fedast_server
from fstsim.config import ExperimentConfig, TaskConfig, load_config
from fstsim.delay_model import DelaySpec, make_profiles
from fstsim.event_engine import (
    Arrived, Dispatched, Engine, Finished, SimulationError, StopConditions, train_updates,
)
from fstsim.fedast_server import FedAstServer, lr_bound_warnings, lr_bounds, server_step
from fstsim.harness import build_policy, build_scenario, run_single
from fstsim.local_trainer import Update, local_train
from fstsim.objectives import (
    ClientShards, Dataset, LogisticObjective, QuadraticObjective, TaskSpec,
)
from fstsim.rng import request_generator

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class FakeEngine:
    """Just enough engine surface for driving handle_update by hand."""

    def __init__(self, tasks, shards=None, seed=0):
        self.now = 0.0
        self.sent = []
        self.observer = None
        self.tasks = {t.task_id: t for t in tasks}
        self.shards = shards
        self.seed = seed
        self.models = {t.task_id: t.new_model() for t in tasks}
        self.rounds = {t.task_id: 0 for t in tasks}
        self.finished = {t.task_id: None for t in tasks}
        self.in_flight = {t.task_id: 0 for t in tasks}
        self.streams = request_generator()

    def send(self, task_id, client_id=None):
        self.sent.append(task_id)
        self.in_flight[task_id] += 1

    def deliver(self, policy, update):
        """Hand an update to the policy as the engine loop does: the request
        stops counting as in flight first."""
        self.in_flight[update.task_id] -= 1
        policy.handle_update(self, update)

    def finish(self, policy, task_id):
        """Finish a task as the engine does: flag first, then tell the policy."""
        self.finished[task_id] = "target"
        policy.mark_finished(self, task_id)


def quad_task(tid=0, dim=1, tau=1, eta_c=0.1, eta_s=1.0):
    return TaskSpec(task_id=tid, objective=QuadraticObjective(dim=dim), tau=tau,
                    eta_c=eta_c, eta_s=eta_s, target_metric=0.9, batch_size=1)


def upd(tid, delta, dispatch_round=0, cid=0):
    return Update(task_id=tid, client_id=cid, delta=np.asarray(delta, dtype=float),
                  dispatch_round=dispatch_round)


def untrained_updates(gen, b):
    """A logistic task, an engine holding its shards, ``b`` untrained
    updates of it from two snapshots, and the delta training each request
    alone gives."""
    task = TaskSpec(task_id=0, objective=LogisticObjective(n_features=10, n_classes=4),
                    tau=2, eta_c=0.1, eta_s=1.5, target_metric=0.9, batch_size=4)
    snapshots = [gen.normal(size=task.dim), gen.normal(size=task.dim)]
    sizes = (7, 2, 4, 1, 12, 3, 4, 9, 1)[:b]
    data = [(gen.normal(size=(size, 10)), gen.integers(0, 4, size=size)) for size in sizes]
    shards = ClientShards(np.concatenate([f for f, _ in data]),
                          np.concatenate([lab for _, lab in data]),
                          np.concatenate([[0], np.cumsum(sizes)]))
    updates, deltas = [], []
    for i in range(b):
        snapshot = snapshots[i % 2]
        updates.append(Update(0, i, dispatch_round=0, dispatch_no=i, snapshot=snapshot))
        deltas.append(local_train(task, [snapshot], shards, [i], [(5, 0, i, i)],
                                  request_generator())[0])
    return FakeEngine([task], {0: shards}, seed=5), task, updates, deltas


class TestAggregation:
    def test_two_update_buffer_step(self):
        # x <- x - eta_s*eta_c*tau * mean(deltas) = 0 - 1*0.1*5 * 2 = -1
        task = quad_task(tau=5, eta_c=0.1)
        srv = FedAstServer([task], r0={0: 2}, b0={0: 2})
        eng, events = FakeEngine([task]), []
        eng.observer = events.append
        srv.start(eng)
        assert eng.sent == [0, 0]

        eng.deliver(srv, upd(0, [1.0]))
        st = srv.state(0)
        assert eng.rounds[0] == 0 and len(st.buffer) == 1
        # one replacement request per arrival in steady state
        assert eng.sent == [0, 0, 0]

        eng.now = 3.5
        eng.deliver(srv, upd(0, [3.0]))
        assert eng.rounds[0] == 1
        assert st.buffer == []
        assert eng.models[0][0] == pytest.approx(-1.0, abs=1e-15)
        assert [(ev.time, ev.task_id, ev.round, ev.n_updates) for ev in events] == [
            (3.5, 0, 1, 2)
        ]
        assert events[0].model is eng.models[0]
        assert eng.sent == [0, 0, 0, 0]

    def test_round_advances_once_per_full_buffer(self):
        srv = FedAstServer([quad_task()], r0={0: 6}, b0={0: 3})
        eng = FakeEngine([quad_task()])
        srv.start(eng)
        for i in range(6):
            eng.deliver(srv, upd(0, [0.5], dispatch_round=eng.rounds[0]))
        assert eng.rounds[0] == 2
        assert srv.c == 6

    @pytest.mark.parametrize("b, replanned", [(1, 0), (1, 1), (2, 0), (2, 1), (9, 0), (9, 4)])
    def test_step_writes_the_bits_of_the_stacked_mean(self, b, replanned):
        """The model after a step is what ``np.stack(deltas).mean(axis=0)``
        gives, when the step trains every update and when a replan trained
        the first ``replanned`` of them before."""
        gen = np.random.default_rng([b, replanned])
        eng, task, updates, deltas = untrained_updates(gen, b)
        if replanned:
            train_updates(eng, updates[:replanned])
        eng.models[0] = model = gen.normal(size=task.dim)
        server_step(eng, task, updates)
        want = model - task.eta_c * task.eta_s * task.tau * np.stack(deltas).mean(axis=0)
        assert eng.models[0].tobytes() == want.tobytes()
        assert eng.rounds[0] == 1 and all(u.snapshot is None for u in updates)

    @pytest.mark.parametrize("trained_before", [0, 2, 5])
    def test_train_updates_returns_every_delta_in_order(self, trained_before):
        """Whether none, some or all of the updates were trained before, the
        result is the (B, d) array of all their deltas, each the delta of
        training that request alone."""
        eng, _, updates, deltas = untrained_updates(np.random.default_rng(trained_before), 5)
        if trained_before:
            train_updates(eng, updates[:trained_before])
        got = train_updates(eng, updates)
        assert got.tobytes() == np.stack(deltas).tobytes()
        assert all(u.snapshot is None for u in updates)

    def test_non_finite_aggregate_is_fatal(self):
        srv = FedAstServer([quad_task()], r0={0: 1}, b0={0: 1})
        eng = FakeEngine([quad_task()])
        srv.start(eng)
        with pytest.raises(SimulationError, match="non-finite"):
            eng.deliver(srv, upd(0, [np.inf]))


class TestStaleness:
    def test_staleness_measured_at_arrival(self):
        srv = FedAstServer([quad_task()], r0={0: 4}, b0={0: 10})
        eng = FakeEngine([quad_task()])
        srv.start(eng)
        st = srv.state(0)
        eng.rounds[0] = 5
        update = upd(0, [1.0], dispatch_round=3)
        eng.deliver(srv, update)
        assert st.staleness_count == 1
        assert st.staleness_total == 2
        assert st.staleness_max == 2
        assert srv.task_metrics(0)["staleness_mean"] == 2.0

    def test_drop_enforcement_discards_but_still_redispatches(self):
        srv = FedAstServer([quad_task()], r0={0: 4}, b0={0: 10}, tau_max=1)
        eng = FakeEngine([quad_task()])
        srv.start(eng)
        st = srv.state(0)
        eng.rounds[0] = 5
        eng.deliver(srv, upd(0, [1.0], dispatch_round=3))  # staleness 2 > 1
        assert st.dropped == 1
        assert st.buffer == [] and len(st.history) == 0
        assert st.staleness_count == 0  # dropped updates leave the stats alone
        assert srv.c == 1               # but are counted as received
        assert eng.sent == [0] * 5      # and still trigger a replacement

    def test_build_policy_caps_staleness_only_with_drop_enforcement(self):
        """A config's tau_max reaches the server only with drop_enforcement;
        without it the cap just feeds the learning-rate check."""
        for enforce in (False, True):
            cfg = ExperimentConfig(tasks=(TaskConfig(0, r0=4, b0=10),), tau_max=1,
                                   drop_enforcement=enforce)
            srv = build_policy(cfg, [quad_task()])
            eng = FakeEngine([quad_task()])
            srv.start(eng)
            st = srv.state(0)
            eng.rounds[0] = 5
            eng.deliver(srv, upd(0, [1.0], dispatch_round=3))  # staleness 2 > 1
            assert (st.dropped, len(st.buffer)) == ((1, 0) if enforce else (0, 1)), enforce


class TestDispatchWalk:
    def make(self):
        srv = FedAstServer([quad_task()], r0={0: 5}, b0={0: 50})
        eng = FakeEngine([quad_task()])
        srv.start(eng)
        eng.sent.clear()
        return srv, eng, srv.state(0)

    def test_above_target_sends_nothing(self):
        srv, eng, st = self.make()
        st.r_target = 3
        eng.deliver(srv, upd(0, [1.0]))
        assert eng.sent == []
        assert eng.in_flight[0] == 4

    def test_below_target_sends_two(self):
        srv, eng, st = self.make()
        eng.in_flight[0], st.r_target = 3, 5
        eng.deliver(srv, upd(0, [1.0]))
        assert eng.sent == [0, 0]
        assert eng.in_flight[0] == 4

    def test_on_target_sends_one(self):
        srv, eng, st = self.make()
        eng.deliver(srv, upd(0, [1.0]))
        assert eng.sent == [0]
        assert eng.in_flight[0] == 5

    def test_one_below_target_sends_two_and_overshoots_by_one(self):
        # 4 in flight, 3 after the arrival, target 5: K = min(2, 5 - 3) = 2,
        # landing exactly on 5
        srv, eng, st = self.make()
        eng.in_flight[0] = 4
        eng.deliver(srv, upd(0, [1.0]))
        assert eng.sent == [0, 0]
        assert eng.in_flight[0] == 5


class TestFinishing:
    def test_mark_finished_zeroes_the_target_only(self):
        tasks = [quad_task(0), quad_task(1)]
        srv = FedAstServer(tasks, r0={0: 7, 1: 3}, b0={0: 1, 1: 1})
        eng = FakeEngine(tasks)
        srv.start(eng)
        eng.finish(srv, 0)
        assert srv.state(0).r_target == 0
        srv.mark_finished(eng, 0)
        assert srv.state(0).r_target == 0
        assert (srv.r_total, srv.state(1).r_target) == (10, 3)

    def test_late_update_is_discarded_silently(self):
        srv = FedAstServer([quad_task()], r0={0: 4}, b0={0: 2})
        eng = FakeEngine([quad_task()])
        srv.start(eng)
        eng.finish(srv, 0)
        eng.sent.clear()
        eng.deliver(srv, upd(0, [1.0]))
        st = srv.state(0)
        assert st.late_discards == 1
        assert eng.in_flight[0] == 3
        assert srv.c == 0
        assert eng.sent == []


class TestLearningRateBounds:
    def test_frozen_examples(self):
        eta_s_max, eta_c_max = lr_bounds(smoothness=1.0, tau=4, buffer_size=4,
                                         concurrency=8, staleness_cap=2)
        assert eta_s_max == pytest.approx(4.0)
        # buffer term 1/96 vs staleness term 1/(16*sqrt(64)) = 1/128
        assert eta_c_max == pytest.approx(1.0 / 128.0)

    def test_buffer_term_binds_at_low_concurrency(self):
        _, eta_c_max = lr_bounds(1.0, 4, 4, concurrency=1, staleness_cap=1)
        assert eta_c_max == pytest.approx(1.0 / 96.0)
        # a cap of 0 makes the staleness term infinite, as with no cap
        assert lr_bounds(1.0, 4, 4, 8, 0) == lr_bounds(1.0, 4, 4, 8, None)
        assert lr_bounds(1.0, 4, 4, 8, 0)[1] == pytest.approx(1.0 / 96.0)

    def test_buffer_skew_damping(self):
        eta_s_max, eta_c_max = lr_bounds(1.0, 4, 4, 8, 2, chi=4.0)
        assert eta_s_max == pytest.approx(0.5)        # 4 / 8
        assert eta_c_max == pytest.approx(1.0 / 1024)  # (1/128) / 8

    def test_validation(self):
        with pytest.raises(ValueError):
            lr_bounds(0.0, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            lr_bounds(1.0, 1, 1, 1, 1, chi=0.5)
        with pytest.raises(ValueError):
            lr_bounds(1.0, 1, 1, 1, -1)

    def test_warnings_name_the_binding_term(self):
        msgs = lr_bound_warnings(0, tau=4, eta_c=1.0, eta_s=100.0, concurrency=8,
                                 buffer_size=4, staleness_cap=2)
        assert len(msgs) == 2
        assert "sqrt(tau*b) term" in msgs[0]
        assert "staleness term" in msgs[1]

        assert lr_bound_warnings(0, tau=1, eta_c=0.01, eta_s=1.0, concurrency=1,
                                 buffer_size=1, staleness_cap=None) == []

        # with a cap of 0 only the buffer term can bind
        msgs = lr_bound_warnings(0, tau=4, eta_c=1.0, eta_s=1.0, concurrency=8,
                                 buffer_size=4, staleness_cap=0)
        assert len(msgs) == 1 and "binding: buffer term" in msgs[0]


class TestRatioCap:
    def test_at_cap_is_fine(self):
        srv = FedAstServer([quad_task()], r0={0: 37}, b0={0: 1})
        assert srv.warnings == []

    def test_over_cap_warns_by_default(self):
        srv = FedAstServer([quad_task()], r0={0: 38}, b0={0: 1})
        assert srv.warnings == [
            "task 0: r0=38 exceeds 37 x b0=1; extra concurrency past that ratio "
            "buys no speedup and inflates staleness"
        ]


class TestDynamicReallocation:
    def test_plan_application_and_buffer_flush(self):
        """Fourth received update triggers the planner; the high-variance
        task grabs 8 of 9 requests, buffers rescale, and the shrunk buffer
        of the flat task flushes immediately."""
        t0 = quad_task(0, dim=2, tau=2, eta_c=1.0)   # step scale 2
        t1 = quad_task(1, dim=2, tau=1, eta_c=1.0)   # step scale 1
        srv = FedAstServer([t0, t1], r0={0: 6, 1: 3}, b0={0: 2, 1: 3},
                           option="D", c_period=4)
        eng = FakeEngine([t0, t1])
        srv.start(eng)

        eng.deliver(srv, upd(0, [1.0, 0.0]))
        eng.deliver(srv, upd(0, [3.0, 0.0]))   # aggregates task 0
        eng.deliver(srv, upd(1, [2.0, 0.0]))
        eng.now = 9.0
        eng.deliver(srv, upd(1, [2.0, 0.0]))   # c = 4: trigger

        assert srv.realloc_events == [
            (9.0, 4, {0: 8, 1: 1}, {0: pytest.approx(0.5), 1: 0.0})
        ]
        s0, s1 = srv.state(0), srv.state(1)
        assert (s0.r_target, s0.b) == (8, 3)
        assert (s1.r_target, s1.b) == (1, 1)
        # task 1 held 2 buffered updates; the new target of 1 flushed them
        assert eng.rounds[1] == 1 and s1.buffer == []
        assert np.allclose(eng.models[1], [-2.0, 0.0])

    def test_static_never_replans(self):
        tasks = [quad_task(0), quad_task(1)]
        srv = FedAstServer(tasks, r0={0: 2, 1: 2}, b0={0: 9, 1: 9}, option="S", c_period=2)
        eng = FakeEngine(tasks)
        srv.start(eng)
        for i in range(8):
            eng.deliver(srv, upd(i % 2, [float(i)]))
        assert srv.realloc_events == []
        assert srv.state(0).r_target == 2

    def test_every_plan_after_a_finish_apportions_r_total(self):
        t0 = quad_task(0)
        t1 = quad_task(1)
        srv = FedAstServer([t0, t1], r0={0: 3, 1: 3}, b0={0: 9, 1: 9},
                           option="D", c_period=4)
        eng = FakeEngine([t0, t1])
        srv.start(eng)
        eng.finish(srv, 1)
        for delta in [1.0, 3.0, 1.0, 3.0] * 2:  # c = 4 and c = 8: two plans
            eng.deliver(srv, upd(0, [delta]))
        assert [event[2] for event in srv.realloc_events] == [{0: 6, 1: 0}, {0: 6, 1: 0}]
        assert [list(event[3]) for event in srv.realloc_events] == [[0], [0]]

    def test_no_plan_until_every_live_task_holds_two_updates(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fedast_server, "compute_plan", lambda *args: calls.append(args))
        t0, t1 = quad_task(0), quad_task(1)
        srv = FedAstServer([t0, t1], r0={0: 3, 1: 3}, b0={0: 9, 1: 9},
                           option="D", c_period=2)
        eng = FakeEngine([t0, t1])
        srv.start(eng)
        for delta in [1.0, 3.0, 1.0, 3.0]:  # c = 2 and c = 4, task 1 holds none
            eng.deliver(srv, upd(0, [delta]))
        assert calls == [] and srv.realloc_events == []
        assert (srv.state(0).r_target, srv.state(1).r_target) == (3, 3)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dynamic_realloc_targets_always_sum_to_r0(self, seed):
        cfg = load_config(CONFIGS / "dynamic_realloc.json")
        finished = []
        log, policy = run_single(cfg, seed, observer=lambda e: isinstance(e, Finished)
                                 and finished.append(e.time))
        assert policy.realloc_events
        assert any(time > finished[0] for time, *_ in policy.realloc_events)
        for _, _, r, sigma_sq in policy.realloc_events:
            assert sum(r.values()) == sum(tc.r0 for tc in cfg.tasks) == policy.r_total
            assert list(r) == [tc.task_id for tc in cfg.tasks]


class TestPlannerCadence:
    """The server alone decides when to plan: only under dynamic allocation,
    and only on the updates whose count c is a multiple of c_period."""

    def planner_calls(self, monkeypatch, algorithm):
        cfg = ExperimentConfig(
            tasks=(TaskConfig(0, r0=4, b0=2), TaskConfig(1, r0=4, b0=2, sigma_g=3.0)),
            algorithm=algorithm, n_clients=20, availability=1.0, c_period=5,
            stop_on_targets=False, max_rounds=15,
        )
        scenario = build_scenario(cfg, 3)
        policy = build_policy(cfg, scenario.tasks)
        calls, plan = [], fedast_server.compute_plan

        def counted(*args, **kwargs):
            calls.append(policy.c)
            return plan(*args, **kwargs)

        monkeypatch.setattr(fedast_server, "compute_plan", counted)
        Engine(tasks=scenario.tasks, shards=scenario.shards, eval_sets=scenario.eval_sets,
               profiles=scenario.profiles, seed=3, delay=scenario.delay,
               stop=StopConditions(stop_on_targets=False, max_rounds=15)).run(policy)
        return calls, policy

    def test_static_never_calls_the_planner(self, monkeypatch):
        calls, policy = self.planner_calls(monkeypatch, "fedast_static")
        assert policy.c > 0
        assert calls == []

    def test_dynamic_calls_it_exactly_on_cadence(self, monkeypatch):
        calls, policy = self.planner_calls(monkeypatch, "fedast_dynamic")
        assert len(calls) >= 2
        assert calls == list(range(5, policy.c + 1, 5))
        assert policy.realloc_events


class TestPolicyContract:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FedAstServer([], r0={}, b0={})
        with pytest.raises(ValueError):
            FedAstServer([quad_task()], r0={0: 1}, b0={0: 1}, option="Q")
        with pytest.raises(ValueError):
            FedAstServer([quad_task()], r0={0: 1}, b0={0: 1}, tau_max=-1)
        with pytest.raises(ValueError):
            FedAstServer([quad_task()], r0={}, b0={0: 1})
        with pytest.raises(ValueError):
            FedAstServer([quad_task()], r0={0: 0}, b0={0: 1})

    def test_outstanding_requests_conserved_in_live_run(self):
        """Static allocation keeps the concurrent-request count pinned at
        R0 for the whole run: every arrival is answered by one dispatch."""
        task = quad_task(tau=1, eta_c=0.05)
        n = 6
        profiles = make_profiles(n, {0: 1.0}, np.random.default_rng(0), mix=(0.0, 1.0, 0.0))
        shards = {0: ClientShards(np.full((n, 1), 5.0), None, np.arange(n + 1))}
        evals = {0: Dataset(np.array([[5.0]]))}
        srv = FedAstServer([task], r0={0: 3}, b0={0: 2})
        events = []
        engine = Engine(tasks=[task], shards=shards, eval_sets=evals,
                        profiles=profiles, seed=11,
                        delay=DelaySpec(1.0, 2.0), eval_interval=None,
                        stop=StopConditions(stop_on_targets=False, max_rounds=20),
                        observer=events.append)
        engine.run(srv)
        assert engine.in_flight[0] == 3
        assert engine.skipped_dispatches == 0
        dispatches = sum(1 for ev in events if isinstance(ev, Dispatched))
        arrivals = sum(1 for ev in events if isinstance(ev, Arrived))
        assert 0 <= dispatches - arrivals <= 3
        assert engine.rounds[0] == 20
