"""Reference computations the tests check fstsim against.

``global_loss``, ``global_grad`` and ``local_stoch_grad`` are the
one-request-at-a-time path: the population objective as a mean over
clients, and one client's gradient on one uniformly drawn minibatch. The
stacked trainer in ``fstsim.local_trainer`` must reproduce them. Each
client is a ``Dataset``, as ``ClientShards[c]`` gives; ``grad_one`` is one
model's gradient, the batch of one of ``Objective.grad``.

``reference_loss_accuracy`` is a per-sample loop over plain Python floats
that unpacks each family's flat parameter vector on its own. In
``fstsim.objectives`` one forward pass serves loss, accuracy and gradient,
so a finite-difference check cannot catch a wrong forward pass; this can.

``sample_clients_loop`` is the availability sampler as a plain rejection
loop on the server stream, one ``sampler_iteration`` at a time; the engine
serves the same draws from a replayed block.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from fstsim.event_engine import SimulationError
from fstsim.objectives import (
    Dataset,
    LogisticObjective,
    Objective,
    QuadraticObjective,
    TaskSpec,
    TinyMlpObjective,
    _check_model,
)


def grad_one(objective: Objective, x: np.ndarray, features: np.ndarray,
             labels: np.ndarray | None) -> np.ndarray:
    """Gradient of one model (d,) over (n, f) rows: the batch of one."""
    return objective.grad(x[None], features[None], None if labels is None else labels[None])[0]


def global_loss(task: TaskSpec, shards: Sequence[Dataset], x: np.ndarray) -> float:
    """Exact arithmetic mean of per-client local losses."""
    x = _check_model(task, x)
    if not shards:
        raise ValueError("global loss over an empty client list is undefined")
    total = 0.0
    for client, shard in enumerate(shards):
        if shard.size == 0:
            raise ValueError(f"client {client} has an empty shard")
        total += task.objective.loss_accuracy(x, shard.features, shard.labels)[0]
    return total / len(shards)


def global_grad(task: TaskSpec, shards: Sequence[Dataset], x: np.ndarray) -> np.ndarray:
    """Gradient of `global_loss`: mean of per-client full-batch gradients."""
    x = _check_model(task, x)
    if not shards:
        raise ValueError("global gradient over an empty client list is undefined")
    acc = np.zeros(task.dim)
    for shard in shards:
        acc += grad_one(task.objective, x, shard.features, shard.labels)
    return acc / len(shards)


def local_stoch_grad(
    task: TaskSpec, shard: Dataset, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Gradient of the client loss on a minibatch sampled without replacement.

    The minibatch is the indices of the ``batch_size`` smallest of the next
    ``shard.size`` raw words of ``rng``'s bit generator, smallest first, a tie
    going to the lower index. When ``batch_size`` covers the whole shard the
    full shard is used and no randomness is consumed, so the result is
    deterministic.
    """
    x = _check_model(task, x)
    if shard.size == 0:
        raise ValueError("the client has an empty shard")
    if task.batch_size >= shard.size:
        feats, labs = shard.features, shard.labels
    else:
        words = rng.bit_generator.random_raw(shard.size)
        idx = np.argsort(words, kind="stable")[: task.batch_size]
        feats = shard.features[idx]
        labs = shard.labels[idx] if shard.labels is not None else None
    return grad_one(task.objective, x, feats, labs)


def _dot(row: list[float], vec: list[float]) -> float:
    return sum(a * b for a, b in zip(row, vec))


def _rows(flat: list[float], n_rows: int, n_cols: int) -> list[list[float]]:
    return [flat[r * n_cols : (r + 1) * n_cols] for r in range(n_rows)]


def _sample_logits(objective: Objective, x: list[float], sample: list[float]) -> list[float]:
    if isinstance(objective, LogisticObjective):
        weights = _rows(x, objective.n_classes, objective.n_features)
        return [_dot(w, sample) for w in weights]
    h, f, c = objective.hidden_units, objective.n_features, objective.n_classes
    w1, b1 = _rows(x[: h * f], h, f), x[h * f : h * f + h]
    w2 = _rows(x[h * f + h : h * f + h + c * h], c, h)
    b2 = x[h * f + h + c * h :]
    hidden = [math.tanh(_dot(w, sample) + b) for w, b in zip(w1, b1)]
    return [_dot(w, hidden) + b for w, b in zip(w2, b2)]


def reference_loss_accuracy(
    objective: Objective, x: np.ndarray, features: np.ndarray, labels: np.ndarray | None
) -> tuple[float, float]:
    """Mean loss plus the l2 term, and accuracy, one sample at a time.

    Classifiers score cross-entropy, and argmax accuracy with ties going to
    the lowest class; the quadratic scores 0.5 * ||x - a||^2 and reports
    1 / (1 + loss).
    """
    xs = [float(v) for v in x]
    samples = [[float(v) for v in row] for row in features]
    l2_term = 0.5 * objective.l2 * sum(v * v for v in xs)
    if isinstance(objective, QuadraticObjective):
        losses = [0.5 * sum((v - a) ** 2 for v, a in zip(xs, s)) for s in samples]
        loss = sum(losses) / len(losses) + l2_term
        return loss, 1.0 / (1.0 + loss)
    if not isinstance(objective, (LogisticObjective, TinyMlpObjective)):
        raise TypeError(f"no reference for {type(objective).__name__}")
    losses, hits = [], 0
    for sample, label in zip(samples, labels):
        z = _sample_logits(objective, xs, sample)
        top = max(z)
        losses.append(top + math.log(sum(math.exp(v - top) for v in z)) - z[label])
        hits += z.index(top) == label  # the first maximum: the lowest class
    return sum(losses) / len(losses) + l2_term, hits / len(losses)


def sampler_iteration(stream: np.random.Generator, n_clients: int, p: float) -> tuple[int, bool]:
    """One iteration of the availability sampler: a uniform candidate and its coin."""
    candidate = int(stream.integers(n_clients))
    return candidate, bool(stream.random() < p)


def sample_clients_loop(stream: np.random.Generator, n_clients: int, p: float, k: int,
                        cap: int) -> list[int]:
    """k candidates accepted by the rejection loop; SimulationError once the
    call would start iteration ``cap + 1``."""
    out: list[int] = []
    iterations = 0
    while len(out) < k:
        iterations += 1
        if iterations > cap:
            raise SimulationError(f"availability sampler exceeded {cap} iterations")
        candidate, accepted = sampler_iteration(stream, n_clients, p)
        if accepted:
            out.append(candidate)
    return out
