"""Local SGD updates and the shifted-exponential compute-delay model.

Shows what a client actually returns to the server (the mean of its tau
local stochastic gradients), verifies the tau = 1 degenerate case, and
calibrates the delay sampler against the closed-form mean 3 * tau * beta
with the default shift/scale split and the slow/normal/fast speed classes.

Run:  python3 demos/02_local_training_and_delays.py
"""

import math
from collections import Counter

import numpy as np

from fstsim.delay_model import (
    SPEED_CLASSES,
    SpeedClass,
    duration_quantile,
    make_profiles,
    sample_duration,
)
from fstsim.local_trainer import local_train
from fstsim.objectives import ClientShards, QuadraticObjective, TaskSpec
from fstsim.rng import request_generator

rng = np.random.default_rng(3)

print("== local training: what one request computes ==")
# one client (client 0) holding the single point 5.0
shards = ClientShards(np.array([[5.0]]), None, [0, 1])
for tau in (1, 2, 4):
    task = TaskSpec(task_id=0, objective=QuadraticObjective(dim=1), tau=tau,
                    eta_c=0.1, eta_s=1.0, target_metric=0.9)
    # a one-point shard is every step's minibatch, so the request key draws nothing;
    # local_train takes a batch of requests, and one request is the batch of one
    delta = local_train(task, [np.array([0.0])], shards, [0], [(0, 0, 0, 0)],
                        request_generator())[0]
    print(f"  tau={tau}: delta = {delta[0]:+.4f}   (mean of the {tau} local gradients)")
print("  tau=1 equals the stochastic gradient bit for bit:")
task1 = TaskSpec(task_id=0, objective=QuadraticObjective(dim=1), tau=1,
                 eta_c=0.1, eta_s=1.0, target_metric=0.9)
d = local_train(task1, [np.array([0.0])], shards, [0], [(0, 0, 0, 0)], request_generator())[0]
# the one-point shard is the minibatch, so its gradient is the stochastic one
g = task1.objective.grad(np.array([[0.0]]), shards.features[None], None)[0]
print(f"    delta == grad: {np.array_equal(d, g)}")

print()
print("== delay model: duration = tau * (shift*beta + Exp(mean scale*beta)) ==")
beta, tau = 2.0, 3
draws = np.array([sample_duration(beta, tau, rng) for _ in range(50_000)])
print(f"  floor (u=0 quantile)      : {duration_quantile(0.0, beta, tau):.2f}"
      f"   (= tau * shift * beta = {tau * 1.0 * beta:.2f})")
print(f"  empirical mean            : {draws.mean():.3f}  (theory 3*tau*beta = {3 * tau * beta:.2f})")
ref = 3 * tau * beta
print(f"  empirical P(d <= 3tb)     : {np.mean(draws <= ref):.4f} (theory 1 - 1/e = {1 - math.exp(-1):.4f})")

print()
print("== speed classes: 25% slow (1.3x), 50% normal, 25% fast (0.7x) ==")
# one int8 class code and one multiplier per client, and a base beta per task
profiles = make_profiles(1000, {0: beta}, np.random.default_rng(42))
classes = [SPEED_CLASSES[code] for code in profiles.speed_classes.tolist()]
counts = Counter(classes)
print(f"  class counts for 1000 clients: "
      f"{ {k.value: counts[k] for k in SpeedClass} }")
slow = classes.index(SpeedClass.SLOW)
fast = classes.index(SpeedClass.FAST)
print(f"  effective beta, slow client : {profiles.beta(slow, 0):.2f}")
print(f"  effective beta, fast client : {profiles.beta(fast, 0):.2f}")
