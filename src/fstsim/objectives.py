"""Differentiable training tasks, their data, and non-IID partitioning.

Three desk-scale objective families share one interface: a mean quadratic
bowl, multinomial logistic regression, and a one-hidden-layer tanh network.
All models are flat float64 parameter vectors. Each family has one forward
pass, shared by the loss and accuracy of one model and by the hand-written
gradient of a stack of models, whose rows may pad their samples with zeros
to a common count; one model's gradient is the batch of one. A task's
client data is one ``ClientShards``: a few arrays, however many clients,
with client c's rows as a read-only ``Dataset`` view. The tests check the
gradients against finite differences and the losses against a per-sample
reference; that reference and the per-client training oracles live in
``tests/oracles.py``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .realloc import largest_remainder


@dataclass(eq=False)
class Dataset:
    """A bag of samples: feature rows plus optional integer labels."""

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array (n_samples, n_features)")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise ValueError("labels must be one integer per feature row")

    @property
    def size(self) -> int:
        return self.features.shape[0]


class ClientShards(Dataset):
    """A task's client data as read-only arrays: client c holds rows
    ``starts[c]:starts[c + 1]`` of ``features`` and ``labels``. ``[c]`` is that
    client's read-only Dataset view, built on demand; iteration yields them
    in client order. ``sizes`` holds each client's number of rows."""

    def __init__(self, features: np.ndarray, labels: np.ndarray | None, starts: np.ndarray):
        super().__init__(features, labels)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.sizes = np.diff(self.starts)
        if self.starts[0] != 0 or self.starts[-1] != self.size or np.any(self.sizes < 0):
            raise ValueError("starts must rise from 0 to the number of samples")
        for array in (self.features, self.labels, self.starts, self.sizes):
            if array is not None:
                array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, client: int) -> Dataset:
        client = range(len(self))[client]  # IndexError past either end
        a, b = self.starts[client], self.starts[client + 1]
        return Dataset(self.features[a:b], None if self.labels is None else self.labels[a:b])


class Objective(abc.ABC):
    """Mean loss, its gradient, and an accuracy measure over sample rows."""

    dim: int
    l2: float

    @abc.abstractmethod
    def loss_accuracy(
        self, x: np.ndarray, features: np.ndarray, labels: np.ndarray | None
    ) -> tuple[float, float]:
        """Mean loss and accuracy of one model (d,) over (n, f) rows: one forward pass."""

    def grad(self, x: np.ndarray, features: np.ndarray, labels: np.ndarray | None,
             counts: np.ndarray | None = None) -> np.ndarray:
        """Mean-loss gradient of B stacked models (B, d), row i over the first
        ``counts[i]`` (all n if None) of its own rows of (B, n, f) features and
        (B, n) labels. Rows past a count are padding and must be zero. One
        model is the batch of one."""
        counts = np.full(len(x), features.shape[1]) if counts is None else counts
        g = self._stacked_grad(x, features, labels, counts)
        return g + self.l2 * x if self.l2 else g

    @abc.abstractmethod
    def _stacked_grad(self, x, features, labels, counts) -> np.ndarray:
        """The unregularized gradient in the stacked form of ``grad``."""

    def _l2_loss(self, x: np.ndarray) -> float:
        return 0.5 * self.l2 * float(x @ x) if self.l2 else 0.0


def _minus_one_at_labels(probs: np.ndarray, labels: np.ndarray) -> None:
    """Subtract 1 at each row's label of stacked (B, n, classes) ``probs``."""
    probs[np.arange(len(labels))[:, None], np.arange(labels.shape[1]), labels] -= 1.0


@dataclass(frozen=True)
class QuadraticObjective(Objective):
    """f(x) = mean_j 0.5 * ||x - a_j||^2 over target points a_j.

    Accuracy is reported as the surrogate 1 / (1 + loss) so classification
    and quadratic tasks share a "higher is better" metric axis.
    """

    dim: int
    l2: float = 0.0

    def loss_accuracy(self, x, features, labels=None):
        diffs = x - features
        # np.mean's sum and division, without its wrappers' fixed cost
        mean = np.add.reduce(np.add.reduce(diffs * diffs, axis=1)) / len(diffs)
        loss = float(0.5 * mean) + self._l2_loss(x)
        return loss, 1.0 / (1.0 + loss)

    def _stacked_grad(self, x, features, labels, counts):
        return x - np.add.reduce(features, axis=1) / counts[:, None]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _classified(logits: np.ndarray, labels: np.ndarray, l2_loss: float) -> tuple[float, float]:
    """Mean cross-entropy plus ``l2_loss``, and argmax accuracy (ties resolve
    to the lowest class), of one model's (n, classes) logits."""
    accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
    picked = _softmax(logits)[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300)))) + l2_loss, accuracy


@dataclass(frozen=True)
class LogisticObjective(Objective):
    """Multinomial logistic regression, weights W in R^{classes x features}."""

    n_features: int
    n_classes: int = 2
    l2: float = 0.0

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.n_classes * self.n_features

    def _logits(self, x: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Logits of one model (d,) on (n, f) rows, or of a stack (B, d) on (B, n, f)."""
        w = x.reshape(*x.shape[:-1], self.n_classes, self.n_features)
        return features @ w.swapaxes(-1, -2)

    def loss_accuracy(self, x, features, labels):
        return _classified(self._logits(x, features), labels, self._l2_loss(x))

    def _stacked_grad(self, x, features, labels, counts):
        probs = _softmax(self._logits(x, features))
        _minus_one_at_labels(probs, labels)
        g = probs.swapaxes(-1, -2) @ features / counts[:, None, None]
        return g.reshape(len(x), -1)


@dataclass(frozen=True)
class TinyMlpObjective(Objective):
    """One tanh hidden layer followed by a softmax readout.

    Parameter layout (C-order flatten): W1 (hidden x features), b1 (hidden),
    W2 (classes x hidden), b2 (classes).
    """

    n_features: int
    hidden_units: int = 8
    n_classes: int = 2
    l2: float = 0.0

    @property
    def dim(self) -> int:  # type: ignore[override]
        h, f, c = self.hidden_units, self.n_features, self.n_classes
        return h * f + h + c * h + c

    def _unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """W1, b1, W2, b2 of one model (d,) or of each of a stack (B, d)."""
        h, f, c = self.hidden_units, self.n_features, self.n_classes
        lead, i, j = x.shape[:-1], h * f, h * f + h
        k = j + c * h
        return (x[..., :i].reshape(*lead, h, f), x[..., i:j],
                x[..., j:k].reshape(*lead, c, h), x[..., k:])

    def _forward(self, params: tuple, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations and logits from ``_unpack``'s params, one model or a stack."""
        w1, b1, w2, b2 = params
        hidden = np.tanh(features @ w1.swapaxes(-1, -2) + b1[..., None, :])
        return hidden, hidden @ w2.swapaxes(-1, -2) + b2[..., None, :]

    def loss_accuracy(self, x, features, labels):
        return _classified(self._forward(self._unpack(x), features)[1], labels, self._l2_loss(x))

    def _stacked_grad(self, x, features, labels, counts):
        params = self._unpack(x)
        hidden, dlogits = self._forward(params, features)
        dlogits = _softmax(dlogits)
        _minus_one_at_labels(dlogits, labels)
        dlogits /= counts[:, None, None]
        # padded rows have nonzero hidden units, so their terms are cut here
        dlogits[np.arange(labels.shape[1]) >= counts[:, None]] = 0.0
        dz1 = dlogits @ params[2] * (1.0 - hidden * hidden)
        dw1 = dz1.swapaxes(-1, -2) @ features
        dw2 = dlogits.swapaxes(-1, -2) @ hidden
        parts = (dw1, dz1.sum(axis=1), dw2, dlogits.sum(axis=1))
        return np.concatenate([part.reshape(len(x), -1) for part in parts], axis=1)


@dataclass(frozen=True)
class TaskSpec:
    """Static description of one trainable task.

    ``eta_c`` is the client step size, ``eta_s`` the server step size and
    ``tau`` the number of local steps per request. ``target_metric`` is the
    stopping threshold, interpreted per ``target_kind`` ("accuracy": reach
    at least the value; "loss": reach at most the value).
    """

    task_id: int
    objective: Objective
    tau: int
    eta_c: float
    eta_s: float
    target_metric: float
    target_kind: str = "accuracy"
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError("task_id must be nonnegative")
        if self.tau < 1:
            raise ValueError("tau must be at least 1")
        if self.eta_c <= 0 or self.eta_s <= 0:
            raise ValueError("learning rates must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.target_kind not in ("accuracy", "loss"):
            raise ValueError("target_kind must be 'accuracy' or 'loss'")
        if self.objective.dim < 1:
            raise ValueError("objective dimension must be positive")

    @property
    def dim(self) -> int:
        return self.objective.dim

    @property
    def step_scale(self) -> float:
        """eta_c * eta_s * tau, a server step's move per unit of mean update."""
        return self.eta_c * self.eta_s * self.tau

    def new_model(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.float64)

    def target_reached(self, loss: float, accuracy: float) -> bool:
        if self.target_kind == "loss":
            return loss <= self.target_metric
        return accuracy >= self.target_metric


def _check_model(task: TaskSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (task.dim,):
        raise ValueError(f"model has shape {x.shape}, task {task.task_id} expects ({task.dim},)")
    return x


def evaluate(task: TaskSpec, x: np.ndarray, eval_set: Dataset) -> tuple[float, float]:
    """Loss and accuracy of a model on a held-out set.

    Classification accuracy is argmax correctness (ties resolve to the
    lowest class index); quadratic tasks report 1/(1+loss).
    """
    x = _check_model(task, x)
    if eval_set.size == 0:
        raise ValueError("evaluation set is empty")
    return task.objective.loss_accuracy(x, eval_set.features, eval_set.labels)


def partition_dirichlet(
    dataset: Dataset,
    n_clients: int,
    alpha: float,
    rng: np.random.Generator,
) -> ClientShards:
    """Split a labelled dataset across clients with Dirichlet(alpha) skew.

    For each class, client proportions are drawn from a symmetric
    Dirichlet(alpha) and converted to counts by largest remainder, then that
    class's (shuffled) samples are dealt out contiguously. Every sample
    lands in exactly one shard. Small alpha concentrates classes on few
    clients; large alpha approaches a uniform split. Then each client left
    with zero samples, in increasing id order, takes one from the first
    largest shard: the sample that shard was dealt last. So every shard is
    trainable. A shard holds its samples in dataset order. Labels must be
    nonnegative: the classes are the labels ``np.bincount`` counts.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if dataset.labels is None:
        raise ValueError("Dirichlet partitioning needs labelled data")
    if dataset.size < n_clients:
        raise ValueError("fewer samples than clients; cannot make every shard nonempty")

    # owner[i] is the client of sample i; dealt[i] its place in dealing order
    owner = np.empty(dataset.size, dtype=np.int64)
    dealt = np.empty(dataset.size, dtype=np.int64)
    offset = 0
    for cls in np.flatnonzero(np.bincount(dataset.labels)):
        cls_idx = np.flatnonzero(dataset.labels == cls)
        rng.shuffle(cls_idx)
        props = rng.dirichlet(np.full(n_clients, alpha))
        counts = largest_remainder(props * len(cls_idx), len(cls_idx))
        owner[cls_idx] = np.repeat(np.arange(n_clients), counts)
        dealt[cls_idx] = np.arange(offset, offset + len(cls_idx))
        offset += len(cls_idx)

    sizes = np.bincount(owner, minlength=n_clients)
    # a donor always holds at least two samples, so no client empties again
    for client in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))  # the first largest shard
        held = np.flatnonzero(owner == donor)
        moved = held[np.argmax(dealt[held])]
        owner[moved], dealt[moved] = client, offset
        offset += 1
        sizes[donor] -= 1
        sizes[client] = 1

    # A stable order is unique, so sorting the owners as the smallest integer
    # type that holds them (radix sort up to 16 bits) gives the same one.
    order = np.argsort(owner.astype(np.min_scalar_type(n_clients - 1)), kind="stable")
    return ClientShards(dataset.features.take(order, axis=0), dataset.labels.take(order),
                        np.concatenate([[0], np.cumsum(sizes)]))


#: Rows per block when ``generate_blobs`` adds the class centers.
_BLOB_BLOCK_ROWS = 1024


def generate_blobs(
    n_samples: int,
    n_features: int,
    n_classes: int,
    rng: np.random.Generator,
    center_scale: float = 3.0,
    cluster_std: float = 1.0,
) -> Dataset:
    """Isotropic Gaussian class blobs with centers drawn once per class, as
    read-only arrays."""
    if n_samples < n_classes:
        raise ValueError("need at least one sample per class")
    centers = rng.normal(scale=center_scale, size=(n_classes, n_features))
    labels = rng.integers(0, n_classes, size=n_samples)
    features = rng.normal(scale=cluster_std, size=(n_samples, n_features))
    # noise + center in place, a block at a time: the same sums as
    # center + noise, with no second full-size array
    for start in range(0, n_samples, _BLOB_BLOCK_ROWS):
        rows = slice(start, start + _BLOB_BLOCK_ROWS)
        features[rows] += centers[labels[rows]]
    for array in (features, labels):
        array.setflags(write=False)
    return Dataset(features=features, labels=labels)


def generate_quadratic_shards(
    n_clients: int,
    dim: int,
    mu: float | np.ndarray,
    sigma_g: float,
    rng: np.random.Generator,
    points_per_client: int = 1,
    local_spread: float = 0.0,
) -> tuple[ClientShards, Dataset]:
    """Per-client quadratic targets a_i = mu + sigma_g * z_i, z_i standard normal.

    Heterogeneity enters through sigma_g directly, so no label partitioning
    is involved. Returns the shards and an evaluation set holding the pooled
    target points (its mean loss equals the population objective when every
    client holds the same number of points).
    """
    if n_clients < 1 or dim < 1 or points_per_client < 1:
        raise ValueError("n_clients, dim and points_per_client must be positive")
    if sigma_g < 0 or local_spread < 0:
        raise ValueError("spread parameters must be nonnegative")
    mu_vec = np.broadcast_to(np.asarray(mu, dtype=np.float64), (dim,))
    centers = mu_vec + sigma_g * rng.standard_normal((n_clients, dim))
    pts = np.repeat(centers[:, None, :], points_per_client, axis=1)
    if local_spread > 0:
        # one draw in C order: the same numbers as one draw per client in turn
        pts += local_spread * rng.standard_normal(pts.shape)
    shards = ClientShards(pts.reshape(-1, dim), None,
                          np.arange(0, n_clients * points_per_client + 1, points_per_client))
    return shards, Dataset(features=shards.features)

