"""Objective families and non-IID data partitioning.

Walks through the three built-in differentiable tasks (quadratic, softmax
logistic regression, tiny one-hidden-layer MLP), checks their analytic
gradients against central finite differences, and shows how a Dirichlet
split skews class ownership across clients as alpha shrinks.

Run:  python3 demos/01_objectives_and_partitioning.py
"""

import numpy as np

from fstsim.objectives import (
    LogisticObjective,
    QuadraticObjective,
    TinyMlpObjective,
    generate_blobs,
    partition_dirichlet,
)

rng = np.random.default_rng(7)


def finite_diff(obj, x, feats, labels, eps=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        up = obj.loss_accuracy(x + e, feats, labels)[0]
        down = obj.loss_accuracy(x - e, feats, labels)[0]
        g[i] = (up - down) / (2 * eps)
    return g


print("== gradient checks against central finite differences ==")
cases = [
    ("quadratic", QuadraticObjective(dim=3), rng.normal(size=(6, 3)), None),
    ("logistic", LogisticObjective(n_features=4, n_classes=3),
     rng.normal(size=(10, 4)), rng.integers(0, 3, size=10)),
    ("tiny_mlp", TinyMlpObjective(n_features=3, hidden_units=5, n_classes=2),
     rng.normal(size=(8, 3)), rng.integers(0, 2, size=8)),
]
for name, obj, feats, labels in cases:
    x = rng.normal(size=obj.dim) * 0.3
    # grad takes a stack of models; one model is the batch of one
    analytic = obj.grad(x[None], feats[None], None if labels is None else labels[None])[0]
    numeric = finite_diff(obj, x, feats, labels)
    err = np.max(np.abs(analytic - numeric))
    print(f"  {name:<9} dim={obj.dim:>3}  max |analytic - numeric| = {err:.2e}")

print()
print("== Dirichlet partitioning: class ownership per client ==")
data = generate_blobs(600, 2, 4, np.random.default_rng(11))
for alpha in (100.0, 1.0, 0.1):
    shards = partition_dirichlet(data, 8, alpha, np.random.default_rng(13))
    print(f"  alpha = {alpha:<6} shard sizes {shards.sizes.tolist()}")
    for client in range(4):
        hist = np.bincount(shards[client].labels, minlength=4)
        bars = " ".join(f"{c:>3}" for c in hist)
        print(f"    client {client}: class counts [{bars}]")
print()
print("Small alpha concentrates whole classes on a few clients, which is")
print("what makes client updates disagree (high gradient heterogeneity).")
