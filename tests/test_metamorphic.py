"""Metamorphic relations: exact symmetries between runs of related configs.

Horizon prefix: with ``stop_on_targets`` off, a run cut at an earlier
``max_sim_time`` is the start of the longer run. Its metrics records and its
observer stream are exactly those of the longer run up to the cut. Training
ahead reads ``max_sim_time`` to choose which in-flight requests to train, so
this checks from outside that no output before the horizon depends on it.

Time scale: multiplying every task's ``base_beta``, and ``eval_interval`` and
``max_sim_time``, by a power of two k multiplies every duration, and so every
event time, by exactly k in IEEE arithmetic, and changes nothing else. The
observer stream must match with its times scaled, not only the records: an
absolute nudge to every arrival time leaves the records of the shipped
configs equal.
"""

import dataclasses
from pathlib import Path

import pytest

from fstsim.config import load_config
from fstsim.event_engine import Aggregated
from fstsim.harness import run_single
from test_workload_pins import load_workloads

CUT, HORIZON = 15.0, 40.0
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def observed(cfg, seed):
    """The run's log and observer stream, each ``Aggregated`` with its model
    as bytes."""
    events = []
    log, _ = run_single(cfg, seed=seed, observer=events.append)
    stream = [ev._replace(model=ev.model.tobytes()) if isinstance(ev, Aggregated) else ev
              for ev in events]
    return log, stream


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("name", ["paper_async", "paper_sync", "drop_unit"])
def test_a_run_cut_short_is_the_start_of_the_longer_run(name, seed):
    cfg = load_workloads().build(name, HORIZON)
    assert not cfg.stop_on_targets
    log, stream = observed(cfg, seed)
    cut_log, cut_stream = observed(dataclasses.replace(cfg, max_sim_time=CUT), seed)
    assert cut_log.records == [r for r in log.records if r.sim_time <= CUT]
    assert cut_stream == [ev for ev in stream if ev.time <= CUT]
    assert len(cut_stream) < len(stream)
    assert any(isinstance(ev, Aggregated) for ev in cut_stream)


def time_scaled(cfg, k):
    return dataclasses.replace(
        cfg, eval_interval=cfg.eval_interval * k, max_sim_time=cfg.max_sim_time * k,
        tasks=tuple(dataclasses.replace(t, base_beta=t.base_beta * k) for t in cfg.tasks))


def event_scaled(event, k):
    times = ("time", "start", "arrival")
    return event._replace(**{f: getattr(event, f) * k for f in times if hasattr(event, f)})


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")) + ["drop_unit"])
def test_scaling_time_by_a_power_of_two_scales_every_event_time(name):
    """Every replica of each shipped config, and ``drop_unit`` cut at 30."""
    if name == "drop_unit":
        cfg = load_workloads().build(name, 30.0)
    else:
        cfg = load_config(CONFIGS / f"{name}.json")
    for seed in range(cfg.seed, cfg.seed + cfg.runs):
        log, stream = observed(cfg, seed)
        for k in (2.0, 0.5):
            scaled_log, scaled_stream = observed(time_scaled(cfg, k), seed)
            assert scaled_log.records == [dataclasses.replace(r, sim_time=r.sim_time * k)
                                          for r in log.records]
            assert scaled_log.final_models.keys() == log.final_models.keys()
            for tid, model in log.final_models.items():
                assert scaled_log.final_models[tid].tobytes() == model.tobytes()
            assert scaled_log.target_times == {
                tid: None if t is None else t * k for tid, t in log.target_times.items()}
            assert scaled_stream == [event_scaled(ev, k) for ev in stream]
