"""End-to-end acceptance gate.

Thirteen release criteria, one test each. Every test prints a single
``criterion NN <name>: PASS/FAIL`` line (replayed in the terminal summary)
and then asserts the same conditions, including its wall-clock budget.
Scenario constants are frozen; the expected values come from independent
oracles computed outside this codebase (exact algebra, closed-form queueing
results, or replayed numpy recomputation).
"""

import json
import math
import time
from collections import defaultdict

import numpy as np

from fstsim import rng as rng_tree
from fstsim.baselines import MmSyncServer
from fstsim.config import ExperimentConfig, TaskConfig
from fstsim.delay_model import ClientProfile, DelaySpec, SpeedClass, sample_duration
from fstsim.event_engine import Aggregated, Dispatched, Engine, StopConditions
from fstsim.fedast_server import FedAstServer, lr_bounds
from fstsim.harness import build_scenario, compare, run_experiment, run_single
from fstsim.local_trainer import local_train
from fstsim.objectives import (
    ClientShard,
    Dataset,
    LogisticObjective,
    QuadraticObjective,
    TaskSpec,
    TinyMlpObjective,
    generate_blobs,
    generate_quadratic_shards,
    global_grad,
    local_stoch_grad,
)
from fstsim.realloc import apportion_largest_remainder, estimate_variances
from fstsim.rng import TRAIN, rekey, request_generator


def _zero_shards(n):
    return {0: [ClientShard(i, np.zeros((1, 1))) for i in range(n)]}


def _uniform_profiles(n, beta=1.0):
    return [ClientProfile(i, SpeedClass.NORMAL, 1.0, {0: beta}) for i in range(n)]


def test_matches_synchronous_fedavg_oracle_when_buffer_equals_concurrency(
    criterion_report,
):
    """Constant equal delays and b = R degenerate to synchronous FedAvg."""
    t0 = time.perf_counter()
    n_clients, r = 4096, 8
    task = TaskSpec(task_id=0, objective=QuadraticObjective(dim=2), tau=2,
                    eta_c=0.05, eta_s=1.0, target_metric=0.9, batch_size=1)
    data_rng = rng_tree.data_rng(0, 0)
    shards, eval_set = generate_quadratic_shards(n_clients, 2, 3.0, 1.0, data_rng)
    policy = FedAstServer([task], r0={0: r}, b0={0: r})
    events = []
    engine = Engine(tasks=[task], shards={0: shards}, eval_sets={0: eval_set},
                    profiles=_uniform_profiles(n_clients), seed=0,
                    delay=DelaySpec(shift_factor=1.0, scale_factor=0.0),
                    eval_interval=None,
                    stop=StopConditions(stop_on_targets=False, max_rounds=100),
                    observer=events.append)
    engine.run(policy)

    by_round = defaultdict(list)
    for ev in events:
        if isinstance(ev, Dispatched):
            by_round[ev.dispatch_round].append(ev.client_id)
    # with the pool this large no client is ever picked twice per round, so
    # every round is a clean simultaneous barrier
    collision_free = all(len(set(v)) == len(v) == r for rnd, v in by_round.items()
                         if rnd < 100)

    hist = [ev.model for ev in events if isinstance(ev, Aggregated)]
    x = np.zeros(2)
    max_err = 0.0
    for rnd in range(100):
        deltas = []
        for cid in by_round[rnd]:
            a = shards[cid].features[0]
            xl = x.copy()
            acc = np.zeros(2)
            for _ in range(task.tau):
                g = xl - a
                acc += g
                xl = xl - task.eta_c * g
            deltas.append(acc / task.tau)
        x = x - task.eta_s * task.eta_c * task.tau * np.mean(deltas, axis=0)
        max_err = max(max_err, float(np.max(np.abs(x - hist[rnd]))))

    elapsed = time.perf_counter() - t0
    ok = collision_free and max_err <= 1e-12 and elapsed < 1.0
    criterion_report(1, "sync-oracle equivalence", ok,
                     f"max coord err {max_err:.2e}, {elapsed:.2f}s")
    assert collision_free
    assert max_err <= 1e-12
    assert elapsed < 1.0


def test_single_local_step_delta_is_the_stochastic_gradient(criterion_report):
    """tau=1 returns exactly the sampled gradient, bit for bit, 1000 cases."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    streams, replay = request_generator(), request_generator()
    mismatches = 0
    for case in range(1000):
        kind = case % 3
        if kind == 0:
            obj = QuadraticObjective(dim=int(rng.integers(1, 5)))
            feats = rng.normal(size=(int(rng.integers(1, 6)), obj.dim))
            labels = None
        elif kind == 1:
            obj = LogisticObjective(n_features=3, n_classes=2)
            feats = rng.normal(size=(6, 3))
            labels = rng.integers(0, 2, size=6)
        else:
            obj = TinyMlpObjective(n_features=2, hidden_units=3, n_classes=2)
            feats = rng.normal(size=(5, 2))
            labels = rng.integers(0, 2, size=5)
        shard = ClientShard(0, feats, labels)
        task = TaskSpec(task_id=0, objective=obj, tau=1,
                        eta_c=float(rng.uniform(0.01, 1.0)), eta_s=1.0,
                        target_metric=0.9, batch_size=int(rng.integers(1, 4)))
        x0 = rng.normal(size=obj.dim)
        delta = local_train(task, x0, shard, (7, 0, 0, case), streams)
        grad = local_stoch_grad(task, shard, x0, rekey(replay, (7, 0, 0, case), TRAIN))
        if not np.array_equal(delta, grad):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 1.0
    criterion_report(2, "tau=1 gradient identity", ok,
                     f"{mismatches}/1000 mismatches, {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 1.0


def test_static_async_converges_on_homogeneous_quadratic(criterion_report):
    """Rate-compliant static run drives the gradient to the optimum."""
    t0 = time.perf_counter()
    eta_s_max, eta_c_max = lr_bounds(smoothness=1.0, tau=2, buffer_size=4,
                                     concurrency=8, staleness_cap=1)
    cfg = ExperimentConfig(
        tasks=(TaskConfig(task_id=0, kind="quadratic", tau=2, eta_c=0.025,
                          eta_s=1.0, target_metric=0.5, target_kind="loss",
                          r0=8, b0=4, dim=2, mu=3.0, sigma_g=0.0),),
        algorithm="fedast_static", n_clients=64, availability=1.0,
        eval_interval=50.0, stop_on_targets=False, max_rounds=1000, seed=5,
    )
    compliant = cfg.tasks[0].eta_c <= eta_c_max and cfg.tasks[0].eta_s <= eta_s_max
    log, _ = run_single(cfg, seed=cfg.seed)
    x = log.final_models[0]
    scen = build_scenario(cfg, cfg.seed)
    grad_norm = float(np.linalg.norm(global_grad(scen.tasks[0], scen.shards[0], x)))
    a_mean = np.mean([s.features[0] for s in scen.shards[0]], axis=0)
    dist = float(np.linalg.norm(x - a_mean))
    elapsed = time.perf_counter() - t0
    ok = compliant and grad_norm <= 1e-6 and dist <= 1e-4 and elapsed < 5.0
    criterion_report(3, "convex convergence", ok,
                     f"|grad| {grad_norm:.1e}, |x-opt| {dist:.1e}, {elapsed:.2f}s")
    assert compliant
    assert grad_norm <= 1e-6
    assert dist <= 1e-4
    assert elapsed < 5.0


def test_minibatch_gradients_are_unbiased_on_logistic_task(criterion_report):
    """Minibatch gradient mean matches the full-data gradient within 3 SE."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    obj = LogisticObjective(n_features=3, n_classes=2)
    data = generate_blobs(60, 3, 2, rng)
    shard = ClientShard(0, data.features, data.labels)
    task = TaskSpec(task_id=0, objective=obj, tau=1, eta_c=0.1, eta_s=1.0,
                    target_metric=0.9, batch_size=5)
    x = rng.normal(size=obj.dim) * 0.5
    full = obj.grad(x, shard.features, shard.labels)
    n = 100_000
    draws = np.empty((n, obj.dim))
    for i in range(n):
        draws[i] = local_stoch_grad(task, shard, x, rng)
    se = draws.std(axis=0, ddof=1) / np.sqrt(n)
    max_z = float(np.max(np.abs(draws.mean(axis=0) - full) / se))
    elapsed = time.perf_counter() - t0
    ok = max_z < 3.0 and elapsed < 10.0
    criterion_report(4, "minibatch unbiasedness", ok,
                     f"max |z| {max_z:.2f} over {n} draws, {elapsed:.1f}s")
    assert max_z < 3.0
    assert elapsed < 10.0


def test_shifted_exponential_delay_calibration(criterion_report):
    """CDF value and mean at the 3*tau*beta reference point match theory."""
    t0 = time.perf_counter()
    beta, tau = 1.5, 3
    task = TaskSpec(task_id=0, objective=QuadraticObjective(dim=1), tau=tau,
                    eta_c=0.1, eta_s=1.0, target_metric=0.9)
    prof = ClientProfile(0, SpeedClass.NORMAL, 1.0, {0: beta})
    rng = np.random.default_rng(42)
    draws = np.array([sample_duration(prof, task, rng) for _ in range(100_000)])
    ref = 3 * tau * beta
    cdf_err = abs(float(np.mean(draws <= ref)) - (1 - math.exp(-1)))
    mean_rel_err = abs(float(draws.mean()) - ref) / ref
    elapsed = time.perf_counter() - t0
    ok = cdf_err <= 0.01 and mean_rel_err <= 0.01 and elapsed < 5.0
    criterion_report(5, "delay calibration", ok,
                     f"cdf err {cdf_err:.4f}, mean rel err {mean_rel_err:.4f}, "
                     f"{elapsed:.1f}s")
    assert cdf_err <= 0.01
    assert mean_rel_err <= 0.01
    assert elapsed < 5.0


def test_buffer_fill_time_matches_queueing_prediction(criterion_report):
    """Mean inter-aggregation time is b/(R*lambda) with exponential delays."""
    t0 = time.perf_counter()
    n = 2000
    task = TaskSpec(task_id=0, objective=QuadraticObjective(dim=1), tau=1,
                    eta_c=0.1, eta_s=1.0, target_metric=0.9)
    policy = FedAstServer([task], r0={0: 20}, b0={0: 5})
    events = []
    engine = Engine(tasks=[task], shards=_zero_shards(n),
                    eval_sets={0: Dataset(np.zeros((1, 1)))},
                    profiles=_uniform_profiles(n), seed=21,
                    delay=DelaySpec(shift_factor=0.0, scale_factor=1.0),
                    eval_interval=None,
                    stop=StopConditions(stop_on_targets=False, max_rounds=2101),
                    observer=events.append)
    engine.run(policy)
    gaps = np.diff(np.array([ev.time for ev in events if isinstance(ev, Aggregated)]))
    rel_err = abs(float(gaps.mean()) - 0.25) / 0.25
    elapsed = time.perf_counter() - t0
    ok = len(gaps) >= 2000 and rel_err <= 0.10 and elapsed < 10.0
    criterion_report(6, "buffer fill time", ok,
                     f"mean gap {gaps.mean():.4f} vs 0.25 over {len(gaps)} "
                     f"aggregations, {elapsed:.1f}s")
    assert len(gaps) >= 2000
    assert rel_err <= 0.10
    assert elapsed < 10.0


def test_full_barrier_round_time_matches_max_order_statistic(criterion_report):
    """Full-participation sync round time is the harmonic-sum expectation."""
    t0 = time.perf_counter()
    n = 5
    task = TaskSpec(task_id=0, objective=QuadraticObjective(dim=1), tau=1,
                    eta_c=0.001, eta_s=1.0, target_metric=0.9)
    policy = MmSyncServer([task], allocation={0: n}, k=n)
    events = []
    engine = Engine(tasks=[task], shards=_zero_shards(n),
                    eval_sets={0: Dataset(np.zeros((1, 1)))},
                    profiles=_uniform_profiles(n), seed=33,
                    delay=DelaySpec(shift_factor=0.0, scale_factor=1.0),
                    eval_interval=None,
                    stop=StopConditions(stop_on_targets=False, max_rounds=2000),
                    observer=events.append)
    engine.run(policy)
    # each round starts at the previous barrier (the first at 0)
    dur = np.diff([0.0, *(ev.time for ev in events if isinstance(ev, Aggregated))])
    h5 = sum(1 / i for i in range(1, 6))
    rel_err = abs(float(dur.mean()) - h5) / h5
    elapsed = time.perf_counter() - t0
    ok = len(dur) >= 2000 and rel_err <= 0.05 and elapsed < 10.0
    criterion_report(7, "sync round time", ok,
                     f"mean {dur.mean():.4f} vs H5 {h5:.4f} over {len(dur)} "
                     f"rounds, {elapsed:.1f}s")
    assert len(dur) >= 2000
    assert rel_err <= 0.05
    assert elapsed < 10.0


def test_variance_estimates_and_allocation_split_are_exact(criterion_report):
    """A 4:1 variance ratio apportions concurrency exactly 2:1."""
    t0 = time.perf_counter()
    # d = 0.5 makes every intermediate quantity exact in binary floats
    histories = {
        0: [np.array([1.5]), np.array([0.5])],
        1: [np.array([1.25]), np.array([0.75])],
    }
    sigma_sq = estimate_variances(histories, {0: 1.0, 1: 1.0})
    ratio_exact = sigma_sq[0] == 0.25 and sigma_sq[1] == 0.0625
    alloc = apportion_largest_remainder(
        [math.sqrt(sigma_sq[0]), math.sqrt(sigma_sq[1])], 30)
    split_exact = alloc == [20, 10] and sum(alloc) == 30

    # independent two-pass recomputation on random inputs
    rng = np.random.default_rng(314)
    max_err = 0.0
    for _ in range(25):
        n_tasks = int(rng.integers(1, 4))
        hist = {}
        scales = {}
        for tid in range(n_tasks):
            v, dim = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            hist[tid] = [rng.normal(size=dim) for _ in range(v)]
            scales[tid] = float(rng.uniform(0.1, 3.0))
        got = estimate_variances(hist, scales)
        for tid in range(n_tasks):
            arr = np.stack(hist[tid])
            mean = arr.mean(axis=0)
            num = float(np.mean(np.sum((arr - mean) ** 2, axis=1)))
            den = float(np.sum(mean**2))
            want = 0.0 if den == 0.0 else scales[tid] * num / den
            max_err = max(max_err, abs(got[tid] - want))

    elapsed = time.perf_counter() - t0
    ok = ratio_exact and split_exact and max_err <= 1e-12 and elapsed < 1.0
    criterion_report(8, "variance split exactness", ok,
                     f"alloc {alloc}, oracle err {max_err:.1e}, {elapsed:.2f}s")
    assert ratio_exact
    assert split_exact
    assert max_err <= 1e-12
    assert elapsed < 1.0


def test_staleness_cap_drops_all_overage_when_enforced(criterion_report):
    """With the cap enforced no buffered update ever exceeds it."""
    t0 = time.perf_counter()

    def run(enforce, max_time):
        n = 100
        task = TaskSpec(task_id=0, objective=QuadraticObjective(dim=1), tau=1,
                        eta_c=0.1, eta_s=1.0, target_metric=0.9)
        policy = FedAstServer([task], r0={0: 30}, b0={0: 1},
                              tau_max=3 if enforce else None)
        engine = Engine(tasks=[task], shards=_zero_shards(n),
                        eval_sets={0: Dataset(np.zeros((1, 1)))},
                        profiles=_uniform_profiles(n), seed=77,
                        eval_interval=None,
                        stop=StopConditions(stop_on_targets=False,
                                            max_sim_time=max_time))
        engine.run(policy)
        return policy

    on = run(True, 1350.0)
    st_on = on.state(0)
    off = run(False, 60.0)
    st_off = off.state(0)
    elapsed = time.perf_counter() - t0
    ok = (on.c >= 10_000 and st_on.staleness_max <= 3 and st_on.dropped > 0
          and st_off.staleness_max > 3 and elapsed < 10.0)
    criterion_report(9, "staleness enforcement", ok,
                     f"enforced: {on.c} updates, staleness max "
                     f"{st_on.staleness_max}, {st_on.dropped} dropped; off: "
                     f"max {st_off.staleness_max}; {elapsed:.1f}s")
    assert on.c >= 10_000
    assert st_on.staleness_max <= 3
    assert st_on.dropped > 0
    assert st_off.staleness_max > 3
    assert elapsed < 10.0


def _paired_logistic_cfg(algorithm):
    def task(tid, beta, target):
        return TaskConfig(task_id=tid, kind="logistic", tau=2, eta_c=0.05,
                          eta_s=1.0, target_metric=target, target_kind="loss",
                          batch_size=8, base_beta=beta, r0=20, b0=5,
                          n_features=2, n_classes=2, n_train=600, n_eval=200,
                          alpha=0.3)

    return ExperimentConfig(
        tasks=(task(0, 1.0, 0.10), task(1, 2.0, 0.35)),
        algorithm=algorithm, n_clients=60, availability=0.9, k_sync=15,
        eval_interval=2.0, stop_on_targets=True, max_sim_time=400.0,
        seed=100, runs=5,
    )


def test_buffered_async_beats_synchronous_on_paired_seeds(criterion_report):
    """Async reaches both loss targets >= 15% sooner than sync on average."""
    t0 = time.perf_counter()
    report = compare(_paired_logistic_cfg("mm_sync"),
                     _paired_logistic_cfg("fedast_static"), paired=True)
    gains = report["overall"]["per_seed_gain_pct"]
    mean_gain = float(np.mean(gains))
    async_reached = all(report["tasks"][tid]["all_reached_b"] for tid in ("0", "1"))
    elapsed = time.perf_counter() - t0
    ok = len(gains) == 5 and async_reached and mean_gain >= 15.0 and elapsed < 120.0
    criterion_report(10, "async vs sync time gain", ok,
                     f"mean gain {mean_gain:.1f}% over 5 paired seeds, "
                     f"{elapsed:.1f}s")
    assert len(gains) == 5
    assert async_reached
    assert mean_gain >= 15.0
    assert elapsed < 120.0


def test_buffering_no_worse_than_unit_buffer_at_high_concurrency(criterion_report):
    """At concurrency/buffer = 30 buffered aggregation ends at lower loss."""
    t0 = time.perf_counter()

    def cfg(algorithm, b0):
        return ExperimentConfig(
            tasks=(TaskConfig(task_id=0, kind="quadratic", tau=1, eta_c=0.1,
                              eta_s=1.0, target_metric=1e-9, target_kind="loss",
                              r0=30, b0=b0, dim=2, mu=3.0, sigma_g=2.0),),
            algorithm=algorithm, n_clients=120, availability=0.9,
            eval_interval=2.0, stop_on_targets=False, max_sim_time=60.0,
            seed=300, runs=3,
        )

    buffered = run_experiment(cfg("fedast_static", 10))
    unit = run_experiment(cfg("no_buffer", 1))
    mean_buf = buffered["tasks"]["0"]["final_loss"]["mean"]
    mean_unit = unit["tasks"]["0"]["final_loss"]["mean"]
    elapsed = time.perf_counter() - t0
    ok = mean_buf <= mean_unit and elapsed < 60.0
    criterion_report(11, "buffer vs no-buffer loss", ok,
                     f"final loss {mean_buf:.3f} vs {mean_unit:.3f} over 3 "
                     f"paired seeds, {elapsed:.1f}s")
    assert mean_buf <= mean_unit
    assert elapsed < 60.0


def test_dynamic_reallocation_tracks_variance_and_beats_static(criterion_report):
    """After replan 2 the noisier task holds its variance-proportional share,
    and dynamic finishes both targets no later than static on most seeds."""
    t0 = time.perf_counter()

    def cfg(algorithm):
        def task(tid, sigma_g, target):
            return TaskConfig(task_id=tid, kind="quadratic", tau=1, eta_c=0.1,
                              eta_s=1.0, target_metric=target,
                              target_kind="loss", base_beta=1.0, r0=15, b0=3,
                              dim=2, mu=3.0, sigma_g=sigma_g)

        return ExperimentConfig(
            tasks=(task(0, 2.0, 4.75), task(1, 0.5, 0.6)),
            algorithm=algorithm, n_clients=120, availability=0.9,
            eval_interval=0.5, stop_on_targets=True, max_sim_time=250.0,
            seed=0, runs=1, c_period=12,
        )

    share_ok, reached_ok, wins = True, True, 0
    details = []
    for seed in (500, 501, 502):
        dyn_log, dyn_policy = run_single(cfg("fedast_dynamic"), seed=seed)
        stat_log, _ = run_single(cfg("fedast_static"), seed=seed)
        events = dyn_policy.realloc_events
        if len(events) < 2:
            share_ok = False
            continue
        _, _, r_new, sigma_sq = events[1]
        if not (0 in sigma_sq and 1 in sigma_sq):
            share_ok = False
            continue
        w0, w1 = math.sqrt(sigma_sq[0]), math.sqrt(sigma_sq[1])
        share_hat = w0 / (w0 + w1)
        share_act = r_new[0] / sum(r_new.values())
        if abs(share_act / share_hat - 1.0) > 0.25:
            share_ok = False
        for log in (dyn_log, stat_log):
            if any(t is None for t in log.target_times.values()):
                reached_ok = False
        t_dyn = max(dyn_log.target_times.values())
        t_stat = max(stat_log.target_times.values())
        wins += t_dyn <= t_stat
        details.append(f"{t_dyn:.1f}<= {t_stat:.1f}" if t_dyn <= t_stat
                       else f"{t_dyn:.1f}> {t_stat:.1f}")
    elapsed = time.perf_counter() - t0
    ok = share_ok and reached_ok and wins >= 2 and elapsed < 60.0
    criterion_report(12, "dynamic vs static realloc", ok,
                     f"share tracked on 3 seeds, dynamic wins {wins}/3 "
                     f"[{', '.join(details)}], {elapsed:.1f}s")
    assert share_ok
    assert reached_ok
    assert wins >= 2
    assert elapsed < 60.0


def test_reruns_produce_byte_identical_metrics_files(criterion_report, tmp_path):
    """The same config and seed write byte-identical outputs twice."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        tasks=(
            TaskConfig(task_id=0, kind="quadratic", tau=2, eta_c=0.05,
                       eta_s=1.0, target_metric=0.01, target_kind="loss",
                       r0=6, b0=2, dim=2, mu=3.0, sigma_g=1.0),
            TaskConfig(task_id=1, kind="logistic", tau=2, eta_c=0.1, eta_s=1.0,
                       target_metric=0.05, target_kind="loss", batch_size=4,
                       base_beta=2.0, r0=4, b0=2, n_features=2, n_classes=2,
                       n_train=80, n_eval=40, alpha=0.5),
        ),
        algorithm="fedast_dynamic", n_clients=24, availability=0.85,
        eval_interval=1.0, stop_on_targets=False, max_sim_time=15.0,
        seed=9, runs=2,
    )
    run_experiment(cfg, out_dir=tmp_path / "first")
    run_experiment(cfg, out_dir=tmp_path / "second")
    names = ["run_000.csv", "run_000.jsonl", "run_001.csv", "run_001.jsonl",
             "summary.json", "config.json"]
    diffs = [n for n in names
             if (tmp_path / "first" / n).read_bytes()
             != (tmp_path / "second" / n).read_bytes()]
    elapsed = time.perf_counter() - t0
    ok = not diffs and elapsed < 60.0
    criterion_report(13, "byte-identical reruns", ok,
                     f"{len(names)} files compared, {elapsed:.1f}s")
    assert diffs == []
    assert elapsed < 60.0
