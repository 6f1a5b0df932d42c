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


def smallest_words_rows(keys, sizes, n, tau):
    """The rule ``minibatch_picks`` follows, one request and one step at a
    time: each step's picks are the indices of the n smallest of the next
    ``size`` raw words of the row's re-keyed training stream, smallest first,
    a tie going to the lower index."""
    streams = rng.request_generator()
    out = np.empty((len(keys), tau, n), dtype=np.int64)
    for r, (key, size) in enumerate(zip(keys, sizes)):
        bits = rng.rekey(streams, key, rng.TRAIN).bit_generator
        for step in range(tau):
            words = bits.random_raw(size)
            out[r, step] = sorted(range(size), key=lambda i: (int(words[i]), i))[:n]
    return out


def picks_cases():
    """(n, tau, sizes) stacks: random ones of mixed sizes, many close to n;
    then stacks of one row, n = 1, n = size - 1 and one row of size 10^5."""
    gen = np.random.default_rng(2406)
    for _ in range(40):
        n, tau = int(gen.integers(1, 10)), int(gen.integers(1, 4))
        yield n, tau, n + 1 + gen.integers(0, 4 * n + 8, size=int(gen.integers(1, 64)))
    for tau in (1, 3):
        yield 1, tau, [2, 3, 2, 17, 1000]
        yield 4, tau, [5]
        yield 1, tau, [2]
    yield 7, 2, [8]
    yield 5, 3, [6, 9, 6, 40, 6]
    yield 10, 1, [100_000]


def test_minibatch_picks_are_the_smallest_words_of_each_step():
    gen = np.random.default_rng(7)
    for n, tau, sizes in picks_cases():
        seed = int(gen.integers(1, 8000))
        keys = [(seed, int(t), int(c), int(d)) for t, c, d in zip(
            gen.integers(0, 3, len(sizes)), gen.integers(0, 1000, len(sizes)),
            gen.integers(0, 2**40, len(sizes)))]
        got = rng.minibatch_picks(rng.request_generator(), keys, sizes, n, tau)
        assert got.shape == (len(sizes), tau, n)
        assert np.array_equal(got, smallest_words_rows(keys, sizes, n, tau)), (n, tau, sizes)
        for row, size in zip(got, sizes):
            assert ((row >= 0) & (row < size)).all()
            assert all(len(set(step.tolist())) == n for step in row)


def generator_at(state):
    stream = np.random.Generator(np.random.Philox())
    stream.bit_generator.state = state
    return stream


def offers(words, n):
    """Per iteration of a block, its offered client and whether the offer
    meets a Lemire rejection, in Python ints."""
    for first in words[::3].tolist():
        for half in (first & 0xFFFFFFFF, first >> 32):
            yield half * n >> 32, half * n % 2**32 < 2**32 % n


#: (n_clients, availability); 2**32 - 1 is the largest pool the rule takes.
SAMPLER_CASES = [(n, p) for n in (2, 3, 7, 1000, 2**32 - 1) for p in (1e-3, 0.3, 0.9, 1.0)]


def test_a_sampler_block_without_a_rejection_is_numpys_loop():
    """On a block where no offer meets a Lemire rejection, ``sampler_block``
    accepts what numpy's loop ``c = integers(n); accept c if random() < p``
    accepts, at the same iterations, and leaves the stream where the loop
    does, over more than 10^5 iterations."""
    iterations = 0
    for case, (n, p) in enumerate(SAMPLER_CASES):
        stream = np.random.Generator(np.random.Philox(case))
        for _ in range(50):
            loop = generator_at(stream.bit_generator.state)
            at, clients = rng.sampler_block(stream, n, p)
            words = generator_at(loop.bit_generator.state).bit_generator.random_raw(
                rng.SAMPLER_BLOCK_WORDS)
            if any(rejected for _, rejected in offers(words, n)):
                continue
            want = []
            for i in range(rng.SAMPLER_BLOCK_ITERATIONS):
                client = int(loop.integers(n))
                if loop.random() < p:
                    want.append((i, client))
            assert list(zip(at.tolist(), clients.tolist())) == want, (
                f"sampler_block differs from numpy {np.__version__}'s loop: n={n}, p={p}")
            assert (loop.bit_generator.state["state"]["counter"].tolist()
                    == stream.bit_generator.state["state"]["counter"].tolist())
            iterations += rng.SAMPLER_BLOCK_ITERATIONS
    assert iterations >= 100_000


@pytest.mark.parametrize("n", [2**31 + 1, 2**32 - 1])
def test_sampler_block_accepts_no_rejected_offer(n):
    """Every accepted client is an offer below ``n`` that met no Lemire
    rejection, on the coin of its iteration; about half of the offers to
    2**31 + 1 clients are rejected."""
    stream = np.random.Generator(np.random.Philox(n))
    rejections = 0
    for _ in range(200):
        words = generator_at(stream.bit_generator.state).bit_generator.random_raw(
            rng.SAMPLER_BLOCK_WORDS)
        at, clients = rng.sampler_block(stream, n, 0.5)
        block = list(offers(words, n))
        coins = [(w >> 11) * 2.0**-53 < 0.5 for w in words.reshape(-1, 3)[:, 1:].ravel().tolist()]
        want = [(i, c) for i, ((c, rejected), coin) in enumerate(zip(block, coins))
                if coin and not rejected]
        assert list(zip(at.tolist(), clients.tolist())) == want
        assert all(c < n for c in clients.tolist())
        rejections += sum(rejected for _, rejected in block)
    assert rejections > 0 if n == 2**31 + 1 else rejections == 0
