"""Deterministic stream derivation for every random decision in a run.

All randomness flows from a single integer seed. The data, profile and
server streams are each seeded by a named ``SeedSequence`` spawn key. The
streams of dispatched requests are counter-based: one Philox key per
(seed, stream) comes from a spawn key, and the request identity is written
into Philox's counter. Any two runs with the same seed therefore consume
identical streams regardless of wall-clock interleaving. Philox is stable
across platforms and numpy versions.

Because Philox is counter-based, writing a key and counter into an existing
generator starts exactly the stream a new one would. Each run therefore
owns one request generator, and ``rekey`` points it at a request's delay
stream at dispatch (through ``request_rngs``) and at its training stream
before local training draws; no stream is built per request.

Raw Philox words are fixed by key and counter, so a request's minibatches
are defined on them: ``minibatch_picks`` takes the indices of the smallest
of each step's words of the request's training stream. ``sampler_replay``
replays the engine's client-sampler loop on a block of the server stream's
raw words.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

# Top-level branch indices of the seed tree. Streams under different
# branches never collide.
_DATA = 0
_PROFILES = 1
_SERVER = 2
_REQUEST = 3


def _generator(seed: int, spawn_key: tuple[int, ...]) -> Generator:
    return Generator(Philox(SeedSequence(seed, spawn_key=spawn_key)))


def data_rng(seed: int, task_id: int) -> Generator:
    """Stream for dataset synthesis and partitioning of one task.

    Keyed only by (seed, task_id) so paired algorithm comparisons see
    identical data and shards.
    """
    return _generator(seed, (_DATA, task_id))


def profile_rng(seed: int) -> Generator:
    """Stream for client speed-class assignment."""
    return _generator(seed, (_PROFILES,))


def server_rng(seed: int) -> Generator:
    """Stream for server-side decisions: client sampling and availability."""
    return _generator(seed, (_SERVER,))


#: Index of each stream under one request's key.
TRAIN = 0
DELAY = 1

#: (seed, task_id, client_id, dispatch_no): the identity of one request.
RequestKey = tuple[int, int, int, int]


@lru_cache(maxsize=64)
def _run_key(seed: int, stream: int) -> tuple[int, int]:
    """The Philox key shared by one stream of every request of a run, as the
    Python ints the Philox state setter reads fastest."""
    words = SeedSequence(seed, spawn_key=(_REQUEST, stream)).generate_state(2, np.uint64)
    return tuple(int(word) for word in words)


def request_generator() -> Generator:
    """A generator for request streams; ``rekey`` it before every draw."""
    return Generator(Philox(0))


def rekey(generator: Generator, key: RequestKey, stream: int) -> Generator:
    """Re-key ``generator`` to one stream (TRAIN or DELAY) of the request
    ``key`` and return it.

    The stream is Philox under the run's key for ``stream``, started at the
    counter ``[0, task_id, client_id, dispatch_no]``. Counter word 0 is
    Philox's own block counter, so the streams of two requests never share
    a block. Whatever the generator drew before, it then draws exactly what a
    fresh ``Philox`` at that key and counter would.
    """
    seed, task_id, client_id, dispatch_no = key
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, task_id, client_id, dispatch_no),
                  "key": _run_key(seed, stream)},
        # buffer_pos at the end of Philox's 4-word output buffer: nothing left
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


def minibatch_picks(generator: Generator, keys: Sequence[RequestKey], sizes: Sequence[int],
                    n: int, tau: int) -> np.ndarray:
    """Row r's ``tau`` minibatches of ``n`` of ``range(sizes[r])``, (R, tau, n).

    Step s of row r reads the next ``sizes[r]`` raw Philox words of the
    request's training stream (``rekey(generator, keys[r], TRAIN)``) and
    picks the indices of the ``n`` smallest, smallest first, a tie going to
    the lower index. The picks are distinct, depend only on the request's key
    and size, and so are the same in a stack of any size.
    """
    return np.array([
        np.argsort(rekey(generator, key, TRAIN).bit_generator.random_raw((tau, size)),
                   axis=-1, kind="stable")[:, :n]
        for key, size in zip(keys, sizes)])


def sampler_replay(words: np.ndarray, n: int, p: float) -> tuple[np.ndarray, np.ndarray, int]:
    """``(at, clients, valid)``: the loop ``c = integers(n); accept c if
    random() < p``, replayed on the ``3m`` raw words a stream with no stashed
    half-word draws next (``2 <= n < 2**32``, numpy 2.4), accepts
    ``clients[j]`` at iteration ``at[j]`` of its first ``valid`` of ``2m``.

    ``integers(n)`` is Lemire's ``(u * n) >> 32`` on the next 32-bit half u of
    a word, low half first, and ``random()`` is ``(w >> 11) * 2**-53`` on a
    whole word w: iterations 2i and 2i + 1 read the halves of word 3i and the
    coins of words 3i + 1 and 3i + 2. A rejection, ``(u * n) % 2**32 < 2**32 %
    n``, draws again and shifts every later read, so ``valid`` stops there.
    """
    triples = words.reshape(-1, 3)
    halves = triples[:, 0].astype("<u8").view("<u4")
    # (low, high) halves of u * n: the high one is the candidate
    product = (halves * np.uint64(n)).astype("<u8", copy=False).view("<u4").reshape(-1, 2)
    rejected = np.flatnonzero(product[:, 0] < 2**32 % n)
    valid = int(rejected[0]) if len(rejected) else len(product)
    at = np.flatnonzero(((triples[:, 1:] >> 11) * 2.0**-53).ravel()[:valid] < p)
    return at, product[at, 1], valid


def request_rngs(
    generator: Generator, seed: int, task_id: int, client_id: int, dispatch_no: int
) -> Generator:
    """Re-key ``generator`` to the delay stream of the request (seed, task_id,
    client_id, dispatch_no) and return it. The engine calls it once per
    dispatch and training never does, so benchmarks count requests by it."""
    return rekey(generator, (seed, task_id, client_id, dispatch_no), DELAY)
