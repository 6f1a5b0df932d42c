"""Local training loop: gradient-average identity, snapshots, divergence."""

import numpy as np
import pytest

from fstsim.local_trainer import DivergenceError, local_train
from fstsim.objectives import (
    ClientShard,
    LogisticObjective,
    QuadraticObjective,
    TaskSpec,
    TinyMlpObjective,
    local_stoch_grad,
)
from fstsim.rng import TRAIN, request_stream


def scalar_task(tau, eta_c=0.1, batch_size=1):
    return TaskSpec(task_id=0, objective=QuadraticObjective(dim=1), tau=tau,
                    eta_c=eta_c, eta_s=1.0, target_metric=0.9, batch_size=batch_size)


def test_one_step_scalar_example():
    # f(x) = (x-5)^2/2 from x0=0, eta_c=0.1: x1=0.5, delta=-5
    shard = ClientShard(0, np.array([[5.0]]))
    delta = local_train(scalar_task(tau=1), np.array([0.0]), shard, np.random.default_rng(0))
    assert delta[0] == -5.0


def test_two_step_scalar_example():
    # second step: x2 = 0.5 - 0.1*(0.5-5) = 0.95; delta = mean(-5, -4.5) = -4.75
    shard = ClientShard(0, np.array([[5.0]]))
    delta = local_train(scalar_task(tau=2), np.array([0.0]), shard, np.random.default_rng(0))
    assert delta[0] == pytest.approx(-4.75, abs=1e-15)


def test_tau_one_returns_the_stochastic_gradient_bit_identical():
    """1000 random tasks/models: tau=1 delta is the gradient, bit for bit."""
    rng = np.random.default_rng(99)
    for case in range(1000):
        kind = case % 3
        if kind == 0:
            obj = QuadraticObjective(dim=int(rng.integers(1, 5)))
            feats = rng.normal(size=(int(rng.integers(1, 6)), obj.dim))
            labels = None
        elif kind == 1:
            obj = LogisticObjective(n_features=3, n_classes=2)
            feats = rng.normal(size=(6, 3))
            labels = rng.integers(0, 2, size=6)
        else:
            obj = TinyMlpObjective(n_features=2, hidden_units=3, n_classes=2)
            feats = rng.normal(size=(5, 2))
            labels = rng.integers(0, 2, size=5)
        shard = ClientShard(0, feats, labels)
        task = TaskSpec(task_id=0, objective=obj, tau=1, eta_c=float(rng.uniform(0.01, 1.0)),
                        eta_s=1.0, target_metric=0.9, batch_size=int(rng.integers(1, 4)))
        x0 = rng.normal(size=obj.dim)
        train_rng = request_stream((7, 0, 0, case), TRAIN)
        replay_rng = request_stream((7, 0, 0, case), TRAIN)
        delta = local_train(task, x0, shard, train_rng)
        grad = local_stoch_grad(task, shard, x0, replay_rng)
        assert np.array_equal(delta, grad)


def test_delta_equals_mean_of_path_gradients_bit_identical():
    """Replaying the same stream step by step reproduces delta exactly."""
    rng = np.random.default_rng(4)
    obj = LogisticObjective(n_features=3, n_classes=2)
    feats = rng.normal(size=(12, 3))
    labels = rng.integers(0, 2, size=12)
    shard = ClientShard(0, feats, labels)
    for tau in (2, 3, 7):
        task = TaskSpec(task_id=0, objective=obj, tau=tau, eta_c=0.2, eta_s=1.0,
                        target_metric=0.9, batch_size=4)
        x0 = rng.normal(size=obj.dim)
        train_rng = request_stream((11, 0, 0, tau), TRAIN)
        replay_rng = request_stream((11, 0, 0, tau), TRAIN)
        delta = local_train(task, x0, shard, train_rng)
        x = x0.copy()
        acc = np.zeros_like(x)
        for _ in range(tau):
            g = local_stoch_grad(task, shard, x, replay_rng)
            acc += g
            x -= task.eta_c * g
        assert np.array_equal(delta, acc / tau)


def test_snapshot_is_never_mutated():
    shard = ClientShard(0, np.array([[5.0]]))
    x0 = np.array([0.0])
    local_train(scalar_task(tau=3), x0, shard, np.random.default_rng(0))
    assert x0[0] == 0.0


def test_telescoping_identity_holds_numerically():
    # delta also equals (x0 - x_tau) / (tau * eta_c) up to float roundoff
    rng = np.random.default_rng(8)
    obj = QuadraticObjective(dim=3)
    feats = rng.normal(size=(5, 3))
    shard = ClientShard(0, feats)
    task = TaskSpec(task_id=0, objective=obj, tau=5, eta_c=0.07, eta_s=1.0,
                    target_metric=0.9, batch_size=5)
    x0 = rng.normal(size=3)
    delta = local_train(task, x0, shard, np.random.default_rng(0))
    x = x0.copy()
    for _ in range(task.tau):
        x = x - task.eta_c * obj.grad(x, feats, None)
    assert np.allclose(delta, (x0 - x) / (task.tau * task.eta_c), rtol=1e-12)


def test_small_eta_c_delta_approaches_local_gradient():
    """As eta_c -> 0 the averaged direction converges to grad f(x0), O(eta_c)."""
    rng = np.random.default_rng(21)
    obj = QuadraticObjective(dim=2)
    feats = rng.normal(size=(4, 2))
    shard = ClientShard(0, feats)
    x0 = np.array([1.0, -2.0])
    g0 = obj.grad(x0, feats, None)
    errs = []
    for eta_c in (0.1, 0.05, 0.025):
        task = TaskSpec(task_id=0, objective=obj, tau=4, eta_c=eta_c, eta_s=1.0,
                        target_metric=0.9, batch_size=4)
        delta = local_train(task, x0, shard, np.random.default_rng(0))
        errs.append(np.linalg.norm(delta - g0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[0] == pytest.approx(0.5, rel=0.15)  # first-order in eta_c


def test_divergence_aborts_with_step_index():
    # eta_c far above 2/L on a quadratic doubles the error every step
    shard = ClientShard(3, np.array([[0.0]]))
    task = TaskSpec(task_id=1, objective=QuadraticObjective(dim=1), tau=200, eta_c=1e6,
                    eta_s=1.0, target_metric=0.9, batch_size=1)
    with pytest.raises(DivergenceError) as err:
        local_train(task, np.array([1.0]), shard, np.random.default_rng(0))
    assert err.value.task_id == 1
    assert err.value.client_id == 3
    assert 1 <= err.value.step_index <= 200
    assert "step" in str(err.value)
