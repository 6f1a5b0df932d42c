"""Metamorphic relations: exact symmetries between runs of related configs.

Horizon prefix: with ``stop_on_targets`` off, a run cut at an earlier
``max_sim_time`` is the start of the longer run. Its metrics records and its
observer stream are exactly those of the longer run up to the cut. Training
ahead reads ``max_sim_time`` to choose which in-flight requests to train, so
this checks from outside that no output before the horizon depends on it.
"""

import dataclasses

import pytest

from fstsim.event_engine import Aggregated
from fstsim.harness import run_single
from test_workload_pins import load_workloads

CUT, HORIZON = 15.0, 40.0


def observed(cfg, seed):
    """The run's metrics records and observer stream, each ``Aggregated``
    with its model as bytes."""
    events = []
    log, _ = run_single(cfg, seed=seed, observer=events.append)
    stream = [ev._replace(model=ev.model.tobytes()) if isinstance(ev, Aggregated) else ev
              for ev in events]
    return log.records, stream


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("name", ["paper_async", "paper_sync", "drop_unit"])
def test_a_run_cut_short_is_the_start_of_the_longer_run(name, seed):
    cfg = load_workloads().build(name, HORIZON)
    assert not cfg.stop_on_targets
    records, stream = observed(cfg, seed)
    cut_records, cut_stream = observed(dataclasses.replace(cfg, max_sim_time=CUT), seed)
    assert cut_records == [r for r in records if r.sim_time <= CUT]
    assert cut_stream == [ev for ev in stream if ev.time <= CUT]
    assert len(cut_stream) < len(stream)
    assert any(isinstance(ev, Aggregated) for ev in cut_stream)
