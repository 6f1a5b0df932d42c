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
owns one delay generator, and ``request_rngs`` re-keys it for every
dispatched request instead of building a stream per request.
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


@lru_cache(maxsize=64)
def _run_key_words(seed: int, stream: int) -> tuple[int, int]:
    """``_run_key`` as Python ints, which the Philox state setter reads fastest."""
    return tuple(int(word) for word in _run_key(seed, stream))


def delay_generator(seed: int) -> Generator:
    """The one delay generator of a run; ``request_rngs`` re-keys it for each
    request before it draws."""
    return Generator(Philox(_PhiloxKey(_run_key(seed, DELAY))))


def request_rngs(
    delay: Generator, seed: int, task_id: int, client_id: int, dispatch_no: int
) -> Generator:
    """Re-key the run's ``delay`` generator to one request's delay stream and
    return it.

    It then draws exactly what ``request_stream(key, DELAY)`` would for the
    request key (seed, task_id, client_id, dispatch_no), so event-processing
    order can never change how long a request runs.
    """
    delay.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, task_id, client_id, dispatch_no),
                  "key": _run_key_words(seed, DELAY)},
        # buffer_pos at the end of Philox's 4-word output buffer: nothing left
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return delay
