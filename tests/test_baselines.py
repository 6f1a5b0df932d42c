"""Round-synchronous baseline: disjoint rounds, first-k, straggler cancel."""

import numpy as np
import pytest

from fstsim.baselines import MmSyncServer
from fstsim.config import ExperimentConfig, TaskConfig
from fstsim.delay_model import ClientProfiles, DelaySpec, make_profiles
from fstsim.event_engine import Aggregated, Dispatched, Engine, SimulationError, StopConditions
from fstsim.harness import run_single
from fstsim.objectives import ClientShards, Dataset, QuadraticObjective, TaskSpec

CONSTANT_DELAY = DelaySpec(shift_factor=1.0, scale_factor=0.0)
EXPONENTIAL_DELAY = DelaySpec(shift_factor=0.0, scale_factor=1.0)


def quad_task(tid=0, target_kind="accuracy", target=0.999, eta_c=0.1):
    return TaskSpec(task_id=tid, objective=QuadraticObjective(dim=1), tau=1,
                    eta_c=eta_c, eta_s=1.0, target_metric=target,
                    target_kind=target_kind, batch_size=1)


def uniform_profiles(n, task_ids, beta=1.0):
    """n clients of the normal class, each with beta ``beta`` on every task."""
    return make_profiles(n, {tid: beta for tid in task_ids}, np.random.default_rng(0),
                         mix=(0.0, 1.0, 0.0))


def shards_at(task_ids, n_clients, value=5.0):
    return {tid: ClientShards(np.full((n_clients, 1), value), None, np.arange(n_clients + 1))
            for tid in task_ids}


def evals_at(task_ids, value=5.0):
    return {tid: Dataset(np.array([[value]])) for tid in task_ids}


def round_durations(events, task_id=0):
    """A round starts at the previous barrier (the first at 0) and ends at
    the task's next aggregation."""
    times = [ev.time for ev in events if isinstance(ev, Aggregated) and ev.task_id == task_id]
    return list(np.diff([0.0, *times]))


class TestRoundStructure:
    def test_clients_are_partitioned_disjointly_every_round(self):
        tasks = [quad_task(0), quad_task(1)]
        policy = MmSyncServer(tasks, allocation={0: 3, 1: 2}, k=2)
        events = []
        engine = Engine(
            tasks=tasks, shards=shards_at([0, 1], 10), eval_sets=evals_at([0, 1]),
            profiles=uniform_profiles(10, [0, 1]), seed=4, delay=CONSTANT_DELAY,
            eval_interval=None, stop=StopConditions(stop_on_targets=False, max_rounds=3),
            observer=events.append,
        )
        engine.run(policy)
        dispatches = [ev for ev in events if isinstance(ev, Dispatched)]
        for rnd in (0, 1, 2):
            per_task = {0: set(), 1: set()}
            for ev in dispatches:
                if ev.dispatch_round == rnd:
                    per_task[ev.task_id].add(ev.client_id)
            assert len(per_task[0]) == 3
            assert len(per_task[1]) == 2
            assert per_task[0].isdisjoint(per_task[1])

    def test_first_k_close_and_straggler_cancellation(self):
        """Clients with step times 1/2/3, allocation 3, k=2: each round
        closes at its second arrival (t = 2 after the round starts), the
        slowest request is cancelled, and its late arrival is discarded."""
        task = quad_task()
        policy = MmSyncServer([task], allocation={0: 3}, k=2)
        profiles = ClientProfiles([1] * 3, [float(i + 1) for i in range(3)], {0: 1.0})
        events = []
        engine = Engine(
            tasks=[task], shards=shards_at([0], 3), eval_sets=evals_at([0]),
            profiles=profiles, seed=0, delay=CONSTANT_DELAY, eval_interval=None,
            stop=StopConditions(stop_on_targets=False, max_rounds=2),
            observer=events.append,
        )
        log = engine.run(policy)
        assert round_durations(events) == [2.0, 2.0]
        assert policy.updates_received == 5   # 2+2 aggregated, 1 stale
        assert policy.updates_discarded == 1
        assert policy.state(0).aggregated_total == 4
        # both rounds averaged two identical full-batch gradients, so the
        # trajectory is exactly two plain gradient steps toward a = 5
        assert log.final_models[0][0] == pytest.approx(0.95, rel=1e-12)
        assert log.sim_time == 4.0

    def test_staleness_is_identically_zero(self):
        task = quad_task()
        policy = MmSyncServer([task], allocation={0: 4}, k=2)
        engine = Engine(
            tasks=[task], shards=shards_at([0], 8), eval_sets=evals_at([0]),
            profiles=uniform_profiles(8, [0]), seed=9, eval_interval=1.0,
            stop=StopConditions(stop_on_targets=False, max_rounds=10),
        )
        log = engine.run(policy)
        assert all(rec.staleness_mean == 0.0 for rec in log.records)
        assert all(rec.staleness_max == 0 for rec in log.records)


class TestWaitingTimes:
    def test_k_one_round_is_the_minimum_of_three_exponentials(self):
        """k = 1 over 3 exponential clients: round length ~ Exp(3), so the
        mean over 3000 rounds sits near 1/3."""
        task = quad_task(eta_c=0.001)
        policy = MmSyncServer([task], allocation={0: 3}, k=1)
        events = []
        engine = Engine(
            tasks=[task], shards=shards_at([0], 3), eval_sets=evals_at([0]),
            profiles=uniform_profiles(3, [0]), seed=17, delay=EXPONENTIAL_DELAY,
            eval_interval=None, stop=StopConditions(stop_on_targets=False, max_rounds=3000),
            observer=events.append,
        )
        engine.run(policy)
        durations = np.array(round_durations(events))
        assert len(durations) == 3000
        # SE of the mean is (1/3)/sqrt(3000) ~ 0.006; allow 4 SE
        assert durations.mean() == pytest.approx(1 / 3, abs=0.025)

    def test_k_equal_to_allocation_is_plain_parallel_sgd(self):
        """Waiting for everyone with constant unit delays reproduces
        synchronous federated averaging: x_T = a_bar (1 - (1 - lr)^T)."""
        task = quad_task(eta_c=0.1)
        n = 4
        policy = MmSyncServer([task], allocation={0: n}, k=n)
        shards = {0: ClientShards(np.array([[1.0], [3.0], [7.0], [13.0]]), None, np.arange(n + 1))}
        events = []
        engine = Engine(
            tasks=[task], shards=shards, eval_sets=evals_at([0], value=6.0),
            profiles=uniform_profiles(n, [0]), seed=2, delay=CONSTANT_DELAY,
            eval_interval=None, stop=StopConditions(stop_on_targets=False, max_rounds=5),
            observer=events.append,
        )
        log = engine.run(policy)
        assert round_durations(events) == [1.0] * 5
        assert log.final_models[0][0] == pytest.approx(6.0 * (1 - 0.9**5), rel=1e-12)
        assert policy.updates_discarded == 0


class TestPoolPressure:
    def test_scale_down_when_pool_is_short(self):
        tasks = [quad_task(0), quad_task(1)]
        policy = MmSyncServer(tasks, allocation={0: 4, 1: 4}, k=2)
        engine = Engine(
            tasks=tasks, shards=shards_at([0, 1], 5), eval_sets=evals_at([0, 1]),
            profiles=uniform_profiles(5, [0, 1]), seed=3, delay=CONSTANT_DELAY,
            eval_interval=None, stop=StopConditions(stop_on_targets=False, max_rounds=1),
        )
        engine.run(policy)
        assert any("scaling down" in w for w in policy.warnings)
        assert policy.state(0).expected == 3  # apportion([4, 4], 5)
        assert policy.state(1).expected == 2

    def test_scale_down_warns_once_and_counts_every_short_round(self):
        tasks = [quad_task(0), quad_task(1)]
        policy = MmSyncServer(tasks, allocation={0: 5, 1: 5}, k=2)
        engine = Engine(
            tasks=tasks, shards=shards_at([0, 1], 14), eval_sets=evals_at([0, 1]),
            profiles=uniform_profiles(14, [0, 1]), seed=2, availability_p=0.7,
            delay=CONSTANT_DELAY, eval_interval=None,
            stop=StopConditions(stop_on_targets=False, max_rounds=60),
        )
        drawn = []
        draw_available = engine.draw_available

        def recorded_draw():
            available = draw_available()
            drawn.append(len(available))
            return available

        engine.draw_available = recorded_draw
        engine.run(policy)
        short = sum(1 for n in drawn if n < 10)
        assert 10 < short < len(drawn)
        assert policy.rounds_scaled_down == short
        assert sum("scaling down" in w for w in policy.warnings) == 1

    def test_fewer_clients_than_tasks_is_fatal(self):
        tasks = [quad_task(0), quad_task(1)]
        policy = MmSyncServer(tasks, allocation={0: 1, 1: 1}, k=1)
        engine = Engine(
            tasks=tasks, shards=shards_at([0, 1], 1), eval_sets=evals_at([0, 1]),
            profiles=uniform_profiles(1, [0, 1]), seed=0, eval_interval=None,
            stop=StopConditions(stop_on_targets=False, max_rounds=1),
        )
        with pytest.raises(SimulationError, match="available"):
            engine.run(policy)

    def test_short_draw_waits_for_a_later_tick(self):
        # at seed 1, the round drawn at t = 3.51 finds 1 available client for 2 tasks
        cfg = ExperimentConfig(
            tasks=(TaskConfig(task_id=0, r0=2), TaskConfig(task_id=1, r0=2)),
            algorithm="mm_sync", n_clients=10, availability=0.2, k_sync=1,
            max_sim_time=50.0, stop_on_targets=False,
        )
        log, policy = run_single(cfg, seed=1)
        assert log.stop_reason == "max_sim_time" and log.sim_time == 50.0
        assert policy.rounds_waited > 0

    def test_task_finishing_before_the_first_round_schedules_no_barrier(self):
        # task 0 reaches its target at the t = 0 tick while the first draw waits
        tasks = [quad_task(0, target=0.0), quad_task(1)]
        policy = MmSyncServer(tasks, allocation={0: 1, 1: 1}, k=1)
        events = []
        engine = Engine(
            tasks=tasks, shards=shards_at([0, 1], 4), eval_sets=evals_at([0, 1]),
            profiles=uniform_profiles(4, [0, 1]), seed=0, availability_p=0.1,
            delay=CONSTANT_DELAY, stop=StopConditions(stop_on_targets=True, max_sim_time=30.0),
            observer=events.append,
        )
        engine.run(policy)
        steps = [ev for ev in events if isinstance(ev, Aggregated)]
        assert policy.rounds_waited > 0 and engine.finished[0] == "target"
        assert steps and all(ev.task_id == 1 and ev.n_updates == 1 for ev in steps)

    def test_k_clip_warns_and_aggregates_what_returned(self):
        policy = MmSyncServer([quad_task()], allocation={0: 2}, k=5)
        assert any("exceeds its allocation" in w for w in policy.warnings)
        engine = Engine(
            tasks=[quad_task()], shards=shards_at([0], 4), eval_sets=evals_at([0]),
            profiles=uniform_profiles(4, [0]), seed=1, delay=CONSTANT_DELAY,
            eval_interval=None, stop=StopConditions(stop_on_targets=False, max_rounds=2),
        )
        engine.run(policy)
        assert policy.state(0).k_eff == 2
        assert policy.state(0).aggregated_total == 4  # both rounds kept both


class TestFinishing:
    def test_finished_task_allocation_flows_to_the_rest(self):
        """Task 0 hits its target at the t=0 evaluation; from the next round
        task 1 receives the whole combined allocation."""
        tasks = [quad_task(0, target_kind="loss", target=0.5),
                 quad_task(1, target_kind="loss", target=1e-9)]
        policy = MmSyncServer(tasks, allocation={0: 2, 1: 3}, k=2)
        shards = {0: ClientShards(np.zeros((10, 1)), None, np.arange(11)),
                  1: ClientShards(np.full((10, 1), 5.0), None, np.arange(11))}
        evals = {0: Dataset(np.zeros((1, 1))), 1: Dataset(np.array([[5.0]]))}
        engine = Engine(
            tasks=tasks, shards=shards, eval_sets=evals,
            profiles=uniform_profiles(10, [0, 1]), seed=5, delay=CONSTANT_DELAY,
            eval_interval=1.0, stop=StopConditions(stop_on_targets=True, max_rounds=2),
        )
        log = engine.run(policy)
        assert log.finish_reasons == {0: "target", 1: "max_rounds"}
        assert engine.finished[0] == "target"
        assert policy.state(1).expected == 5  # 2 + 3 redistributed

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MmSyncServer([], allocation={}, k=1)
        with pytest.raises(ValueError):
            MmSyncServer([quad_task()], allocation={0: 3}, k=0)
        with pytest.raises(ValueError):
            MmSyncServer([quad_task()], allocation={}, k=1)
        with pytest.raises(ValueError):
            MmSyncServer([quad_task()], allocation={0: 0}, k=1)
