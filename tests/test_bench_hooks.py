"""The names the benchmark reaches into still exist.

``bench/spans.py`` wraps package functions and methods by name, and
``bench/run.py`` ``layer_metrics`` reads attributes of a finished policy.
A rename would otherwise break only the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from fstsim.config import ExperimentConfig, TaskConfig
from fstsim.harness import run_single

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_exists():
    targets = load_spans().TARGETS
    assert targets
    for owner, attr, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{owner!r} has no {attr}"


def finished_policy(algorithm, **extra):
    tasks = tuple(
        TaskConfig(task_id=tid, kind="quadratic", tau=1, eta_c=0.05, dim=2, r0=4, b0=2,
                   target_kind="loss", target_metric=1e-12)
        for tid in (0, 1)
    )
    cfg = ExperimentConfig(tasks=tasks, algorithm=algorithm, n_clients=10, availability=1.0,
                           stop_on_targets=False, max_rounds=6, **extra)
    return run_single(cfg, seed=1)[1]


@pytest.mark.parametrize(
    "algorithm, extra, policy_attrs, state_attrs",
    [
        ("fedast_dynamic", {"c_period": 5}, ["realloc_events"], ["staleness_count"]),
        ("mm_sync", {"k_sync": 3}, ["updates_received", "updates_discarded"],
         ["aggregated_total", "collected"]),
    ],
)
def test_finished_policy_has_what_layer_metrics_reads(algorithm, extra, policy_attrs, state_attrs):
    policy = finished_policy(algorithm, **extra)
    for attr in policy_attrs:
        assert hasattr(policy, attr), attr
    for tid in (0, 1):
        state = policy.state(tid)
        for attr in state_attrs:
            assert hasattr(state, attr), attr
