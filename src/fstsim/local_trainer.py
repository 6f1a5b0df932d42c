"""Client-side local SGD producing normalized update directions.

A request runs ``tau`` stochastic gradient steps from a frozen model
snapshot and returns the mean of the gradients it took. That mean equals
(x_start - x_end) / (tau * eta_c) in exact arithmetic; accumulating the
gradients keeps the identity with the single gradient at tau = 1 exact in
floating point as well.

Requests of one task train stacked, one gradient call per local step for
all with the same minibatch size; each row is bit for bit what training
that request alone gives. A request that draws minibatches re-keys the
run's one request generator to its training stream (``rng.rekey``) and
draws all tau of them before the first step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .objectives import ClientShard, TaskSpec
from .rng import TRAIN, RequestKey, rekey

#: Any iterate coordinate beyond this magnitude aborts the request.
DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """Local training produced a non-finite or runaway iterate."""

    def __init__(self, task_id: int, client_id: int, step_index: int):
        super().__init__(
            f"local training diverged on task {task_id}, client {client_id}, "
            f"step {step_index}"
        )
        self.task_id = task_id
        self.client_id = client_id
        self.step_index = step_index


@dataclass(slots=True)
class TrainRequest:
    """What one dispatched request needs to compute its delta; ``snapshot`` is
    the task's read-only model at dispatch, held by reference, and ``key``
    names the request's training stream."""

    task: TaskSpec
    snapshot: np.ndarray
    shard: ClientShard
    key: RequestKey


@dataclass(slots=True, eq=False)
class Update:
    """A dispatched training request and, once trained, its result.

    ``dispatch_round`` is the server round of the model snapshot the client
    trained on; servers measure staleness against it at arrival. An update
    has either its ``delta`` or the ``request`` that computes it, until
    ``event_engine.train_updates`` trains it at the server step (or replan)
    that reads it and releases the request. An update that no server step
    or replan reads is never trained; a DivergenceError surfaces where one is.
    """

    task_id: int
    client_id: int
    dispatch_round: int
    delta: np.ndarray | None = None
    request: TrainRequest | None = None

    def __post_init__(self) -> None:
        if (self.delta is None) == (self.request is None):
            raise ValueError("an update needs exactly one of delta and request")


def local_train(
    task: TaskSpec,
    snapshots: Sequence[np.ndarray],
    shards: Sequence[ClientShard],
    keys: Sequence[RequestKey],
    streams: np.random.Generator,
) -> np.ndarray:
    """Run tau local SGD steps per request; return each one's mean gradient, (B, d).

    Request i trains from ``snapshots[i]`` (never mutated) on ``shards[i]``,
    drawing each step's minibatch from its training stream: ``streams``
    re-keyed (``rng.rekey``) to ``keys[i]``. A shard that is the minibatch
    draws nothing. One model, shard and key is the batch of one and gives
    (d,). If an iterate goes non-finite or beyond DIVERGENCE_LIMIT, raises
    DivergenceError for the first such request and its step, as training
    one request at a time in order would.
    """
    if isinstance(shards, ClientShard):
        return local_train(task, [snapshots], [shards], [keys], streams)[0]
    groups: dict[int, list[int]] = {}
    for i, shard in enumerate(shards):
        if shard.size == 0:
            raise ValueError(f"client {shard.client_id} has an empty shard")
        groups.setdefault(min(task.batch_size, shard.size), []).append(i)
    results = [_train_rows(task, n, rows, snapshots, shards, keys, streams)
               for n, rows in groups.items()]
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        row, step = min(failures)
        raise DivergenceError(task.task_id, shards[row].client_id, step)
    if len(results) == 1:
        return results[0][0]
    # Assembled last, so it never sits beside a group's temporaries.
    out = np.empty((len(shards), task.dim))
    for rows, (deltas, _) in zip(groups.values(), results):
        out[rows] = deltas
    return out


def _train_rows(
    task, n, rows, snapshots, shards, keys, streams
) -> tuple[np.ndarray, tuple | None]:
    """Train ``rows``, all of minibatch size ``n``, stacked: their deltas, and
    None or (row, step) of the first of them to diverge."""
    x = np.array([snapshots[i] for i in rows], dtype=np.float64)
    if x.shape[1:] != (task.dim,):
        raise ValueError(f"task {task.task_id} expects models of shape ({task.dim},)")
    grad_sum = np.zeros_like(x)
    # A whole shard is every step's minibatch; a drawn row is refilled each step
    # from the tau minibatches its stream gives, drawn up front in step order.
    features = np.array([shards[i].features[:n] for i in rows])
    labels = shards[rows[0]].labels
    labels = None if labels is None else np.array([shards[i].labels[:n] for i in rows])
    draws = []
    for j, i in enumerate(rows):
        if shards[i].size > n:
            rng = rekey(streams, keys[i], TRAIN)
            picks = [rng.choice(shards[i].size, size=n, replace=False) for _ in range(task.tau)]
            draws.append((j, picks, shards[i]))
    failure = None
    for step in range(1, task.tau + 1):
        for j, picks, shard in draws:
            pick = picks[step - 1]
            features[j] = shard.features[pick]
            if labels is not None:
                labels[j] = shard.labels[pick]
        g = task.objective.grad(x, features, labels)
        grad_sum += g
        g *= task.eta_c
        x -= g
        del g
        # NaN propagates through max, so non-finite rows count as bad too.
        bad = ~(np.abs(x).max(axis=1) <= DIVERGENCE_LIMIT)
        if bad.any():
            # Only the rows before the first diverged one still matter.
            keep = int(bad.argmax())
            failure = (rows[keep], step)
            x, grad_sum, features = x[:keep], grad_sum[:keep], features[:keep]
            labels = None if labels is None else labels[:keep]
            draws = [d for d in draws if d[0] < keep]
    grad_sum /= task.tau
    return grad_sum, failure
