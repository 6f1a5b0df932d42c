"""Experiment orchestration: build, run, replicate, summarize, compare.

Replica r of a config runs with seed (config.seed + r). Each replica
writes one CSV and one JSON-lines metrics file; a summary JSON collects
per-task time-to-target, final metrics, staleness, and any learning-rate
warnings. Reruns are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as rng_tree
from .baselines import MmSyncServer
from .config import AlgorithmKind, ConfigError, ExperimentConfig, save_config, validate_config
from .delay_model import ClientProfile, DelaySpec, make_profiles
from .event_engine import Engine, Observer, RunLog, ServerPolicy, StopConditions
from .fedast_server import FedAstServer, lr_bound_warnings
from .metrics import MetricsRecord, write_csv, write_jsonl
from .objectives import (
    ClientShard,
    Dataset,
    LogisticObjective,
    QuadraticObjective,
    TaskSpec,
    TinyMlpObjective,
    generate_blobs,
    generate_quadratic_shards,
    partition_dirichlet,
)

logger = logging.getLogger(__name__)


@dataclass
class Scenario:
    """Everything concrete a single run needs, derived from (config, seed)."""

    tasks: list[TaskSpec]
    shards: dict[int, list[ClientShard]]
    eval_sets: dict[int, Dataset]
    profiles: list[ClientProfile]
    delay: DelaySpec


def build_scenario(cfg: ExperimentConfig, seed: int) -> Scenario:
    """Synthesize tasks, data shards, eval sets and client profiles.

    Data and partitions depend only on (seed, task_id), so two algorithms
    run with the same seed see identical data.
    """
    validate_config(cfg)
    tasks: list[TaskSpec] = []
    shards: dict[int, list[ClientShard]] = {}
    eval_sets: dict[int, Dataset] = {}
    for tc in cfg.tasks:
        rng = rng_tree.data_rng(seed, tc.task_id)
        if tc.kind == "quadratic":
            objective = QuadraticObjective(dim=tc.dim, l2=tc.l2)
            task_shards, eval_set = generate_quadratic_shards(
                cfg.n_clients,
                tc.dim,
                tc.mu,
                tc.sigma_g,
                rng,
                points_per_client=tc.points_per_client,
                local_spread=tc.local_spread,
            )
        else:
            if tc.kind == "logistic":
                objective = LogisticObjective(
                    n_features=tc.n_features, n_classes=tc.n_classes, l2=tc.l2
                )
            else:
                objective = TinyMlpObjective(
                    n_features=tc.n_features,
                    hidden_units=tc.hidden_units,
                    n_classes=tc.n_classes,
                    l2=tc.l2,
                )
            data = generate_blobs(
                tc.n_train + tc.n_eval,
                tc.n_features,
                tc.n_classes,
                rng,
                center_scale=tc.center_scale,
                cluster_std=tc.cluster_std,
            )
            train = Dataset(data.features[: tc.n_train], data.labels[: tc.n_train])
            eval_set = Dataset(data.features[tc.n_train :], data.labels[tc.n_train :])
            task_shards = partition_dirichlet(train, cfg.n_clients, tc.alpha, rng)
        tasks.append(
            TaskSpec(
                task_id=tc.task_id,
                objective=objective,
                tau=tc.tau,
                eta_c=tc.eta_c,
                eta_s=tc.eta_s,
                target_metric=tc.target_metric,
                target_kind=tc.target_kind,
                batch_size=tc.batch_size,
            )
        )
        shards[tc.task_id] = task_shards
        eval_sets[tc.task_id] = eval_set

    base_betas = {tc.task_id: tc.base_beta for tc in cfg.tasks}
    profiles = make_profiles(
        cfg.n_clients,
        base_betas,
        rng_tree.profile_rng(seed),
        mix=cfg.speed_mix,
        multipliers=cfg.speed_multipliers,
    )
    return Scenario(
        tasks=tasks,
        shards=shards,
        eval_sets=eval_sets,
        profiles=profiles,
        delay=DelaySpec(shift_factor=cfg.shift_factor, scale_factor=cfg.scale_factor),
    )


def build_policy(cfg: ExperimentConfig, tasks: list[TaskSpec]):
    algo = AlgorithmKind(cfg.algorithm)
    r0 = {tc.task_id: tc.r0 for tc in cfg.tasks}
    b0 = {tc.task_id: tc.b0 for tc in cfg.tasks}
    if algo is AlgorithmKind.MM_SYNC:
        return MmSyncServer(tasks, allocation=r0, k=cfg.k_sync)
    option = "D" if algo is AlgorithmKind.FEDAST_DYNAMIC else "S"
    tau_max = cfg.tau_max if cfg.drop_enforcement else None
    return FedAstServer(tasks, r0=r0, b0=b0, option=option, c_period=cfg.c_period,
                        tau_max=tau_max)


def run_single(
    cfg: ExperimentConfig, seed: int, observer: Observer | None = None
) -> tuple[RunLog, ServerPolicy]:
    """One replica: build the scenario, run the policy to a stop condition."""
    scenario = build_scenario(cfg, seed)
    policy = build_policy(cfg, scenario.tasks)
    engine = Engine(
        tasks=scenario.tasks,
        shards=scenario.shards,
        eval_sets=scenario.eval_sets,
        profiles=scenario.profiles,
        seed=seed,
        availability_p=cfg.availability,
        delay=scenario.delay,
        eval_interval=cfg.eval_interval,
        stop=StopConditions(
            stop_on_targets=cfg.stop_on_targets,
            max_sim_time=cfg.max_sim_time,
            max_rounds=cfg.max_rounds,
        ),
        observer=observer,
    )
    return engine.run(policy), policy


def learning_rate_warnings(cfg: ExperimentConfig) -> list[str]:
    """Theoretical step-size checks (uniform-buffer form, chi = 1); ``mm_sync``
    averages the first min(k_sync, r0) updates, all fresh: that buffer, no cap."""
    sync = AlgorithmKind(cfg.algorithm) is AlgorithmKind.MM_SYNC
    return [
        warning
        for tc in cfg.tasks
        for warning in lr_bound_warnings(
            tc.task_id,
            tc.tau,
            tc.eta_c,
            tc.eta_s,
            concurrency=tc.r0,
            buffer_size=min(cfg.k_sync, tc.r0) if sync else tc.b0,
            staleness_cap=None if sync else cfg.tau_max,
            smoothness=tc.smoothness,
        )
    ]


def _time_to_target(cfg: ExperimentConfig, log: RunLog, task_id: int) -> float:
    """When the task crossed its target, or the run's time cap if it never did."""
    t = log.target_times[task_id]
    if t is not None:
        return float(t)
    return float(cfg.max_sim_time if cfg.max_sim_time is not None else log.sim_time)


def summarize(cfg: ExperimentConfig, logs: list[RunLog], policies: list[ServerPolicy]) -> dict:
    """Aggregate per-replica logs into the summary structure."""
    seeds = [cfg.seed + r for r in range(len(logs))]
    policy_warnings = sorted({w for p in policies for w in getattr(p, "warnings", [])})
    summary: dict = {
        "algorithm": cfg.algorithm,
        "runs": len(logs),
        "seeds": seeds,
        "lr_warnings": learning_rate_warnings(cfg),
        "policy_warnings": policy_warnings,
        "stop_reasons": [log.stop_reason for log in logs],
        "tasks": {},
    }
    for tc in cfg.tasks:
        tid = tc.task_id
        per_run = [_time_to_target(cfg, log, tid) for log in logs]
        reached = [log.target_times[tid] is not None for log in logs]
        finals = [_final_record(log, tid) for log in logs]
        surrogate = tc.kind == "quadratic"
        summary["tasks"][str(tid)] = {
            "kind": tc.kind,
            "target_kind": tc.target_kind,
            "target_metric": tc.target_metric,
            "accuracy_is_surrogate": surrogate,
            "time_to_target": {
                "per_run": per_run,
                "reached": reached,
                "all_reached": all(reached),
                "mean": float(np.mean(per_run)),
            },
            "final_loss": {
                "per_run": [f.loss for f in finals],
                "mean": float(np.mean([f.loss for f in finals])),
            },
            "final_accuracy": {
                "per_run": [f.accuracy for f in finals],
                "mean": float(np.mean([f.accuracy for f in finals])),
            },
            "final_round": [f.round for f in finals],
            "staleness_mean": [f.staleness_mean for f in finals],
            "staleness_max": [f.staleness_max for f in finals],
            "dropped": [f.dropped for f in finals],
        }
    return summary


def _final_record(log: RunLog, task_id: int) -> MetricsRecord:
    for rec in reversed(log.records):
        if rec.task_id == task_id:
            return rec
    raise ValueError(f"run produced no metrics records for task {task_id}")


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    runs: int | None = None,
) -> dict:
    """Run all replicas, optionally writing metrics and summary files.

    Returns the summary dict. ``seed``/``runs`` override the config values
    (the summary reflects the overrides).
    """
    if seed is not None or runs is not None:
        cfg = dataclasses.replace(
            cfg,
            seed=cfg.seed if seed is None else seed,
            runs=cfg.runs if runs is None else runs,
        )
    logs, policies = _run_all(cfg)
    summary = summarize(cfg, logs, policies)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for r, log in enumerate(logs):
            write_csv(out / f"run_{r:03d}.csv", log.records)
            write_jsonl(out / f"run_{r:03d}.jsonl", log.records)
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
        save_config(cfg, out / "config.json")
    return summary


def time_gain(t_baseline: float, t_candidate: float) -> float:
    """Percent wall-clock saving of candidate over baseline."""
    if t_baseline <= 0:
        raise ValueError("baseline time must be positive")
    return (t_baseline - t_candidate) / t_baseline * 100.0


def compare(
    cfg_a: ExperimentConfig,
    cfg_b: ExperimentConfig,
    paired: bool = True,
    out_dir: str | Path | None = None,
) -> dict:
    """Run two configs and report per-task and overall timing/quality deltas.

    Config a is the baseline: positive gains mean b is faster. ``paired``
    requires identical task sets, seeds and replica counts so both sides
    see the same data and delay draws.
    """
    ids_a = sorted(t.task_id for t in cfg_a.tasks)
    ids_b = sorted(t.task_id for t in cfg_b.tasks)
    if ids_a != ids_b:
        raise ConfigError(f"task sets differ: {ids_a} vs {ids_b}")
    if paired:
        if cfg_a.seed != cfg_b.seed or cfg_a.runs != cfg_b.runs:
            raise ConfigError("paired comparison requires identical seed and runs")

    logs_a, pols_a = _run_all(cfg_a)
    logs_b, pols_b = _run_all(cfg_b)
    sum_a = summarize(cfg_a, logs_a, pols_a)
    sum_b = summarize(cfg_b, logs_b, pols_b)

    report: dict = {
        "paired": paired,
        "algorithm_a": cfg_a.algorithm,
        "algorithm_b": cfg_b.algorithm,
        "tasks": {},
    }
    for tid in ids_a:
        ta = sum_a["tasks"][str(tid)]
        tb = sum_b["tasks"][str(tid)]
        report["tasks"][str(tid)] = {
            "time_to_target_a": ta["time_to_target"]["mean"],
            "time_to_target_b": tb["time_to_target"]["mean"],
            "all_reached_a": ta["time_to_target"]["all_reached"],
            "all_reached_b": tb["time_to_target"]["all_reached"],
            "time_gain_pct": time_gain(
                ta["time_to_target"]["mean"], tb["time_to_target"]["mean"]
            ),
            "final_loss_a": ta["final_loss"]["mean"],
            "final_loss_b": tb["final_loss"]["mean"],
            "final_loss_delta": tb["final_loss"]["mean"] - ta["final_loss"]["mean"],
        }
    finish_a = _finish_all_times(cfg_a, logs_a)
    finish_b = _finish_all_times(cfg_b, logs_b)
    per_seed = (
        [time_gain(a, b) for a, b in zip(finish_a, finish_b)] if paired else []
    )
    report["overall"] = {
        "finish_all_a": finish_a,
        "finish_all_b": finish_b,
        "time_gain_pct": time_gain(float(np.mean(finish_a)), float(np.mean(finish_b))),
        "per_seed_gain_pct": per_seed,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
        _write_curves(out / "curves_a.csv", logs_a)
        _write_curves(out / "curves_b.csv", logs_b)
    return report


def _run_all(cfg: ExperimentConfig) -> tuple[list[RunLog], list[ServerPolicy]]:
    """Every replica of ``cfg``: replica r runs with seed cfg.seed + r."""
    validate_config(cfg)
    logs, policies = [], []
    for r in range(cfg.runs):
        log, policy = run_single(cfg, cfg.seed + r)
        logs.append(log)
        policies.append(policy)
    return logs, policies


def _finish_all_times(cfg: ExperimentConfig, logs: list[RunLog]) -> list[float]:
    """Per replica: time when the last task crossed its target (cap if not)."""
    return [max(_time_to_target(cfg, log, tid) for tid in log.target_times) for log in logs]


def _write_curves(path: Path, logs: list[RunLog]) -> None:
    """Mean and spread of loss/accuracy per task per evaluation time."""
    by_key: dict[tuple[int, float], list[MetricsRecord]] = {}
    for log in logs:
        for rec in log.records:
            by_key.setdefault((rec.task_id, rec.sim_time), []).append(rec)
    lines = ["task_id,sim_time,n_runs,loss_mean,loss_std,accuracy_mean,accuracy_std"]
    for (tid, t), recs in sorted(by_key.items()):
        losses = np.array([r.loss for r in recs])
        accs = np.array([r.accuracy for r in recs])
        lines.append(
            f"{tid},{t!r},{len(recs)},{losses.mean()!r},{losses.std()!r},"
            f"{accs.mean()!r},{accs.std()!r}"
        )
    path.write_text("\n".join(lines) + "\n")
