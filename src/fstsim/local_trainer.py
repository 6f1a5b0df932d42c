"""Client-side local SGD producing normalized update directions.

A request runs ``tau`` stochastic gradient steps from a frozen model
snapshot and returns the mean of the gradients it took. That mean equals
(x_start - x_end) / (tau * eta_c) in exact arithmetic; accumulating the
gradients keeps the identity with the single gradient at tau = 1 exact in
floating point as well.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from .objectives import ClientShard, TaskSpec, local_stoch_grad

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


class PendingTraining(Protocol):
    """The work behind an update that has not been trained yet."""

    def train(self) -> np.ndarray: ...


class Update:
    """A dispatched training request and, once computed, its result.

    ``dispatch_round`` is the server round of the model snapshot the client
    trained on; servers measure staleness against it at arrival.

    An update is built either with its ``delta`` or with a ``request`` that
    computes it. A request is trained the first time ``delta`` is read and
    is released afterwards, so an update that no server reads (dropped,
    discarded, late or still in flight when the run ends) is never trained
    and a DivergenceError surfaces only from the read that trains it.
    """

    __slots__ = (
        "task_id",
        "client_id",
        "dispatch_round",
        "request",
        "_delta",
    )

    def __init__(
        self,
        task_id: int,
        client_id: int,
        dispatch_round: int,
        delta: np.ndarray | None = None,
        request: PendingTraining | None = None,
    ):
        if (delta is None) == (request is None):
            raise ValueError("an update needs exactly one of delta and request")
        self.task_id = task_id
        self.client_id = client_id
        self.dispatch_round = dispatch_round
        self.request = request
        self._delta = delta

    @property
    def delta(self) -> np.ndarray:
        if self._delta is None:
            self._delta = self.request.train()
            self.request = None
        return self._delta


def local_train(
    task: TaskSpec,
    x_snapshot: np.ndarray,
    shard: ClientShard,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run tau local SGD steps and return the averaged gradient direction.

    The snapshot is never mutated. Raises DivergenceError (with the
    offending step index) instead of returning a poisoned update if an
    iterate goes non-finite or exceeds DIVERGENCE_LIMIT in any coordinate.
    """
    x = np.array(x_snapshot, dtype=np.float64, copy=True)
    grad_sum = np.zeros_like(x)
    for step in range(1, task.tau + 1):
        g = local_stoch_grad(task, shard, x, rng)
        grad_sum += g
        x -= task.eta_c * g
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > DIVERGENCE_LIMIT:
            raise DivergenceError(task.task_id, shard.client_id, step)
    return grad_sum / task.tau
