"""Deterministic stream derivation for every random decision in a run.

All randomness flows from a single integer seed. The data, profile and
server streams are each seeded by a named ``SeedSequence`` spawn key. The
streams of dispatched requests are counter-based: one Philox key per
(seed, stream) comes from a spawn key, and the request identity is written
into Philox's counter. Any two runs with the same seed therefore consume
identical streams regardless of wall-clock interleaving. Philox is stable
across platforms and numpy versions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from numpy.random.bit_generator import ISeedSequence

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
def _run_key(seed: int, stream: int) -> np.ndarray:
    """The read-only Philox key shared by one stream of every request of a run."""
    key = SeedSequence(seed, spawn_key=(_REQUEST, stream)).generate_state(2, np.uint64)
    key.setflags(write=False)
    return key


class _PhiloxKey(ISeedSequence):
    """Hands a ready Philox key to ``Philox``.

    ``Philox(key=..., counter=...)`` draws the same numbers but also seeds an
    unused ``SeedSequence`` from OS entropy, which costs more than the rest
    of building the stream.
    """

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is exactly 2 uint64 words")
        return self.key.copy()


def request_stream(key: RequestKey, stream: int) -> Generator:
    """Build one stream (TRAIN or DELAY) of the request ``key``.

    It is ``Philox`` under the run's key for ``stream``, started at the
    counter ``[0, task_id, client_id, dispatch_no]``. Counter word 0 is
    Philox's own block counter, so the streams of two requests never share
    a block.
    """
    seed, task_id, client_id, dispatch_no = key
    counter = [0, task_id, client_id, dispatch_no]
    return Generator(Philox(_PhiloxKey(_run_key(seed, stream)), counter=counter))


class RequestStreams:
    """One request's ``key`` and its ``delay`` stream, built here. The
    training stream is built later, from ``key``, with ``request_stream``."""

    __slots__ = ("key", "delay")

    def __init__(self, key: RequestKey):
        self.key = key
        self.delay = request_stream(key, DELAY)


def request_rngs(
    seed: int, task_id: int, client_id: int, dispatch_no: int
) -> RequestStreams:
    """Streams for one dispatched training request.

    They are keyed by the request identity (task, client, per-pair dispatch
    counter), so event-processing order can never change which batches a
    given request samples or how long it runs. Only the delay stream is
    built by this call; see RequestStreams.
    """
    return RequestStreams((seed, task_id, client_id, dispatch_no))
