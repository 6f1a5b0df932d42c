"""The three benchmark workloads, as fstsim experiment configs.

Every workload has a fixed simulated-time horizon and ``stop_on_targets``
off, so the work done per run depends only on the seed, never on how fast
the model happens to converge. Targets are unreachable placeholders.
Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

from fstsim.config import ExperimentConfig, TaskConfig

#: Simulated-time horizon of one run, per workload. Each gives 1.5 to 2 host
#: seconds per run on a 2-core x86 machine (Python 3.11, numpy 2.4).
HORIZONS = {"paper_async": 120.0, "paper_sync": 160.0, "drop_unit": 260.0}

_UNREACHABLE = dict(target_kind="loss", target_metric=1e-12)


def _paper_tasks() -> tuple[TaskConfig, ...]:
    """Three tasks, one per objective family, each with R=100, b=10, tau=2."""
    shared = dict(tau=2, r0=100, b0=10, **_UNREACHABLE)
    classification = dict(
        n_features=10, n_classes=4, batch_size=8, n_train=16000, n_eval=1000, alpha=0.3
    )
    return (
        TaskConfig(task_id=0, kind="quadratic", eta_c=0.02, dim=10, mu=3.0, sigma_g=1.0, **shared),
        TaskConfig(task_id=1, kind="logistic", eta_c=0.05, **classification, **shared),
        TaskConfig(
            task_id=2, kind="tiny_mlp", eta_c=0.05, hidden_units=16, **classification, **shared
        ),
    )


def _paper(max_sim_time: float, **algorithm) -> ExperimentConfig:
    """The paper-scale scenario: 1000 clients at availability 0.3, eval every 5."""
    return ExperimentConfig(
        tasks=_paper_tasks(),
        n_clients=1000,
        availability=0.3,
        eval_interval=5.0,
        stop_on_targets=False,
        max_sim_time=max_sim_time,
        **algorithm,
    )


def drop_unit(max_sim_time: float) -> ExperimentConfig:
    tasks = tuple(
        TaskConfig(
            task_id=tid, kind="quadratic", tau=1, eta_c=0.1, dim=2, mu=3.0, sigma_g=sigma_g,
            r0=60, b0=1, **_UNREACHABLE,
        )
        for tid, sigma_g in ((0, 1.0), (1, 2.0))
    )
    return ExperimentConfig(
        tasks=tasks,
        algorithm="no_buffer",
        n_clients=1000,
        availability=0.9,
        tau_max=3,
        drop_enforcement=True,
        eval_interval=5.0,
        stop_on_targets=False,
        max_sim_time=max_sim_time,
    )


BY_NAME = {
    "paper_async": lambda t: _paper(t, algorithm="fedast_dynamic"),
    "paper_sync": lambda t: _paper(t, algorithm="mm_sync", k_sync=60),
    "drop_unit": drop_unit,
}


def build(name: str, max_sim_time: float | None = None) -> ExperimentConfig:
    """The named workload's config; ``max_sim_time`` overrides its horizon."""
    horizon = HORIZONS[name] if max_sim_time is None else max_sim_time
    return BY_NAME[name](horizon)
