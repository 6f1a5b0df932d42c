"""The run's request generator, re-keyed per request and stream, draws exactly
the fresh counter-based stream of that request, whatever was drawn before it."""

import numpy as np
import pytest

import fstsim.event_engine as event_engine
from fstsim import rng
from fstsim.config import ExperimentConfig, TaskConfig
from fstsim.event_engine import Dispatched
from fstsim.harness import run_single

#: (task_id, client_id, dispatch_no), including counter words past 32 bits.
GRID = [(t, c, d) for t in (0, 1, 2) for c in (0, 1, 999) for d in (0, 1, 41, 2**40)]

STREAMS = (rng.TRAIN, rng.DELAY)


def fresh(seed, stream, task_id, client_id, dispatch_no):
    """The public form of one request stream: a new Philox at its key and counter."""
    key = np.random.SeedSequence(seed, spawn_key=(3, stream)).generate_state(2, np.uint64)
    return np.random.Generator(
        np.random.Philox(key=key, counter=[0, task_id, client_id, dispatch_no])
    )


@pytest.mark.parametrize("seed", [1, 7919])
def test_rekeyed_generator_draws_each_fresh_stream(seed):
    streams = rng.request_generator()
    for stream in STREAMS:
        for t, c, d in GRID:
            assert rng.rekey(streams, (seed, t, c, d), stream) is streams
            assert streams.random() == fresh(seed, stream, t, c, d).random()
    for t, c, d in GRID:
        assert rng.request_rngs(streams, seed, t, c, d) is streams
        assert streams.random() == fresh(seed, rng.DELAY, t, c, d).random()


def test_consecutive_requests_ignore_what_the_last_one_left_behind():
    """A request re-keys after the last one drew a part of Philox's output
    buffer, or half a 64-bit word as a uint32, and still draws its own stream."""
    seed, streams = 3, rng.request_generator()
    leftovers = [
        lambda g: g.random(),
        lambda g: g.random(3),
        lambda g: g.integers(2**32, dtype=np.uint32),
        lambda g: g.normal(size=5),
    ]
    for stream in STREAMS:
        for i, (t, c, d) in enumerate(GRID):
            leftovers[i % len(leftovers)](rng.rekey(streams, (seed, t, c, d), stream))
            want = fresh(seed, stream, t, c, d + 1)
            got = rng.rekey(streams, (seed, t, c, d + 1), stream)
            assert np.array_equal(got.random(9), want.random(9))
            assert np.array_equal(got.integers(2**32, size=3, dtype=np.uint32),
                                  want.integers(2**32, size=3, dtype=np.uint32))


def test_two_runs_rekeyed_alternately_keep_their_own_streams():
    """Each run owns its generator: re-keying one between the other's
    re-key and draw leaves the other's draw alone."""
    first, second = rng.request_generator(), rng.request_generator()
    for stream in STREAMS:
        for t, c, d in GRID:
            a = rng.rekey(first, (1, t, c, d), stream)
            b = rng.rekey(second, (2, t, c, d), stream)
            assert a.random() == fresh(1, stream, t, c, d).random()
            assert b.random() == fresh(2, stream, t, c, d).random()


def test_one_generator_alternates_delay_and_training_draws():
    """As in a run: one request's delay draw falls between another request's
    training draws, and each draw is that request's fresh stream."""
    seed, streams = 7919, rng.request_generator()
    for i, (t, c, d) in enumerate(GRID):
        # the request being dispatched, and one trained at a server step
        t2, c2, d2 = GRID[-1 - i]
        delay = rng.request_rngs(streams, seed, t, c, d).random()
        assert delay == fresh(seed, rng.DELAY, t, c, d).random()
        train = rng.rekey(streams, (seed, t2, c2, d2), rng.TRAIN)
        picks = [train.choice(50, size=4, replace=False) for _ in range(3)]
        want = fresh(seed, rng.TRAIN, t2, c2, d2)
        for pick in picks:
            assert np.array_equal(pick, want.choice(50, size=4, replace=False))
        delay = rng.request_rngs(streams, seed, t, c, d + 1).random()
        assert delay == fresh(seed, rng.DELAY, t, c, d + 1).random()


def dispatches(seed):
    cfg = ExperimentConfig(
        tasks=(
            TaskConfig(task_id=0, kind="quadratic", tau=2, eta_c=0.05, dim=2, r0=4, b0=2,
                       target_kind="loss", target_metric=1e-12),
            TaskConfig(task_id=1, kind="quadratic", tau=1, eta_c=0.05, dim=3, r0=3, b0=1,
                       target_kind="loss", target_metric=1e-12),
        ),
        algorithm="fedast_static", n_clients=10, availability=0.9, eval_interval=1.0,
        stop_on_targets=False, max_rounds=6,
    )
    events = []
    run_single(cfg, seed=seed, observer=events.append)
    return [ev for ev in events if isinstance(ev, Dispatched)]


def test_engines_run_interleaved_sample_their_own_durations(monkeypatch):
    """A whole run of a second engine, started between the first engine's
    re-key and its first delay draw, changes neither run's dispatches."""
    alone = {seed: dispatches(seed) for seed in (1, 2)}
    sample_duration = event_engine.sample_duration
    inner = []

    def interrupted(*args):
        if not inner:
            inner.append(None)  # first, so the inner run's own draws pass through
            inner[0] = dispatches(2)
        return sample_duration(*args)

    monkeypatch.setattr(event_engine, "sample_duration", interrupted)
    outer = dispatches(1)
    assert inner[0] == alone[2] and outer == alone[1]
    assert alone[1] != alone[2]
