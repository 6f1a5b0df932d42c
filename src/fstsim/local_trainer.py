"""Client-side local SGD producing normalized update directions.

A request runs ``tau`` stochastic gradient steps from a frozen model
snapshot and returns the mean of the gradients it took. That mean equals
(x_start - x_end) / (tau * eta_c) in exact arithmetic; accumulating the
gradients keeps the identity with the single gradient at tau = 1 exact in
floating point as well.

Requests of one task train stacked, one gradient call per local step for
all of them: rows copied from the task's shard arrays, each minibatch
zero-padded to the largest, one-sample minibatches in a stack of their
own. Each row is bit for bit what training that request alone, as a batch
of one, gives. An ``Update`` names its request by task, client and
dispatch number; with the run seed that is the request's key. Before the
first step, one ``rng.minibatch_picks`` call draws every minibatch of the
stack's drawing requests: at each step, the indices of the ``batch_size``
smallest of the next shard-size raw words of the request's training stream
(the run's one request generator re-keyed by ``rng.rekey``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .objectives import ClientShards, TaskSpec
from .rng import RequestKey, minibatch_picks

#: Any iterate coordinate beyond this magnitude aborts the request.
DIVERGENCE_LIMIT = 1e12
#: Most entries ``bounded`` compares in Python, faster than numpy's fixed cost.
BOUNDED_PYTHON_SIZE = 8


def bounded(x: np.ndarray) -> bool:
    """Every entry of ``x`` finite and at most DIVERGENCE_LIMIT in magnitude;
    a NaN fails every comparison, and propagates through the maximum."""
    if x.size <= BOUNDED_PYTHON_SIZE:
        return all(-DIVERGENCE_LIMIT <= v <= DIVERGENCE_LIMIT for v in x.ravel().tolist())
    return bool(np.maximum.reduce(np.abs(x), axis=None) <= DIVERGENCE_LIMIT)


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


@dataclass(slots=True, eq=False)
class Update:
    """A dispatched training request and, once trained, its result.

    The request is request number ``dispatch_no`` of the task to the client;
    ``dispatch_round`` is the server round of the model snapshot the client
    trained on, and servers measure staleness against it at arrival. An
    update holds either its ``delta`` or the ``snapshot`` it trains from (the
    task's read-only model at dispatch, by reference), until
    ``event_engine.train_updates`` trains it and drops the snapshot: at the
    server step (or replan) that reads it, or, under a policy that trains
    ahead, at an earlier step of its task while it is still in flight. Under
    a policy that does not, an update that no server step or replan reads is
    never trained. Either way a DivergenceError surfaces only where a server
    step or replan reads the diverged update.
    """

    task_id: int
    client_id: int
    dispatch_round: int
    dispatch_no: int = 0
    delta: np.ndarray | None = None
    snapshot: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.delta is None) == (self.snapshot is None):
            raise ValueError("an update needs exactly one of delta and snapshot")


def local_train(
    task: TaskSpec,
    snapshots: Sequence[np.ndarray],
    shards: ClientShards,
    clients: Sequence[int],
    keys: Sequence[RequestKey],
    streams: np.random.Generator,
    ahead_from: int | None = None,
) -> np.ndarray:
    """Run tau local SGD steps per request; return each one's mean gradient, (B, d).

    Request i trains from ``snapshots[i]`` (never mutated) on client
    ``clients[i]``'s rows of ``shards``, drawing each step's minibatch from
    its training stream: ``streams`` re-keyed (``rng.rekey``) to ``keys[i]``.
    A shard that is the minibatch draws nothing. One request is the batch of
    one. If an iterate goes non-finite or beyond DIVERGENCE_LIMIT, raises
    DivergenceError for the first such request and its step, as training one
    request at a time in order would. Requests from ``ahead_from`` on are
    trained ahead of need: if the first to diverge is one of them, returns
    the deltas of the requests before it instead, (ahead_from or more, d).
    """
    # One-sample minibatches stack apart: numpy computes a one-row matrix
    # product as a vector product, which rounds unlike a padded stack.
    spans, groups = [], ([], [])  # (first row, shard size, minibatch size) per request
    for i, c in enumerate(clients):
        a, b = int(shards.starts[c]), int(shards.starts[c + 1])
        if a == b:
            raise ValueError(f"client {c} has an empty shard")
        n = min(task.batch_size, b - a)
        spans.append((a, b - a, n))
        groups[n > 1].append(i)
    results, failures = [], []
    for rows in groups:
        if rows:
            deltas, failure = _train_rows(task, rows, spans, snapshots, shards, keys, streams)
            results.append((rows, deltas))
            if failure is not None:
                failures.append(failure)
    n = len(spans)
    if failures:
        n, step = min(failures)
        if ahead_from is None or n < ahead_from:
            raise DivergenceError(task.task_id, clients[n], step)
    if len(results) == 1 and not failures:
        return results[0][1]
    # Assembled last, so it never sits beside a stack's temporaries.
    out = np.empty((n, task.dim))
    for rows, deltas in results:
        kept = bisect_left(rows, n)  # a group trains the rows before its first failure
        out[rows[:kept]] = deltas[:kept]
    return out


def _train_rows(task, rows, spans, snapshots, shards, keys,
                streams) -> tuple[np.ndarray, tuple | None]:
    """Train ``rows`` stacked, each minibatch zero-padded to the largest: their
    deltas, and None or (row, step) of the first of them to diverge."""
    # A whole shard is every step's minibatch; a drawn row, always as wide as
    # the stack, is refilled each step from the tau minibatches its stream
    # gives, drawn for all drawn rows in one pass.
    stack, counts, drawn = [], [], []
    for j, i in enumerate(rows):
        _, size, n = spans[i]
        stack.append(snapshots[i])
        counts.append(n)
        if size > n:
            drawn.append(j)
    x = np.array(stack[0] if len(stack) == 1 else stack, dtype=np.float64, ndmin=2)
    if x.shape != (len(rows), task.dim):
        raise ValueError(f"task {task.task_id} expects models of shape ({task.dim},)")
    grad_sum = np.zeros(x.shape)
    if len(rows) == 1 and not drawn:  # one whole shard: its own rows, unpadded
        a, _, n = spans[rows[0]]
        features = shards.features[None, a:a + n]
        labels = None if shards.labels is None else shards.labels[None, a:a + n]
    else:
        features = np.zeros((len(rows), max(counts), shards.features.shape[1]))
        labels = None if shards.labels is None else np.zeros(features.shape[:2], dtype=np.int64)
        for j, i in enumerate(rows):
            a, size, n = spans[i]
            if size == n:
                features[j, :n] = shards.features[a:a + n]
                if labels is not None:
                    labels[j, :n] = shards.labels[a:a + n]
    # as floats, exactly: the gradients divide by them with no cast
    counts = np.array(counts, dtype=np.float64)
    if drawn:
        picks = minibatch_picks(streams, [keys[rows[j]] for j in drawn],
                                [spans[rows[j]][1] for j in drawn], task.batch_size, task.tau)
        picks += np.array([spans[rows[j]][0] for j in drawn])[:, None, None]
        drawn = np.array(drawn)
    failure = None
    for step in range(1, task.tau + 1):
        if len(drawn):
            features[drawn] = shards.features[picks[:, step - 1]]
            if labels is not None:
                labels[drawn] = shards.labels[picks[:, step - 1]]
        g = task.objective.grad(x, features, labels, counts)
        grad_sum += g
        g *= task.eta_c
        x -= g
        del g
        if not bounded(x):
            # Only the rows before the first diverged one still matter.
            keep = int((np.abs(x).max(axis=1) <= DIVERGENCE_LIMIT).argmin())
            failure = (rows[keep], step)
            if not keep:
                break
            x, grad_sum, counts = x[:keep], grad_sum[:keep], counts[:keep]
            features, labels = features[:keep], None if labels is None else labels[:keep]
            if len(drawn):
                picks, drawn = picks[drawn < keep], drawn[drawn < keep]
    if task.tau > 1:  # dividing by 1 changes no bit
        grad_sum /= task.tau
    return grad_sum, failure
