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
from fstsim.rng import TRAIN, rekey, request_generator


#: A request key for training that draws nothing: the shard is the minibatch.
NO_DRAW = (0, 0, 0, 0)


def scalar_task(tau, eta_c=0.1, batch_size=1):
    return TaskSpec(task_id=0, objective=QuadraticObjective(dim=1), tau=tau,
                    eta_c=eta_c, eta_s=1.0, target_metric=0.9, batch_size=batch_size)


def test_one_step_scalar_example():
    # f(x) = (x-5)^2/2 from x0=0, eta_c=0.1: x1=0.5, delta=-5
    shard = ClientShard(0, np.array([[5.0]]))
    delta = local_train(scalar_task(tau=1), np.array([0.0]), shard, NO_DRAW, request_generator())
    assert delta[0] == -5.0


def test_two_step_scalar_example():
    # second step: x2 = 0.5 - 0.1*(0.5-5) = 0.95; delta = mean(-5, -4.5) = -4.75
    shard = ClientShard(0, np.array([[5.0]]))
    delta = local_train(scalar_task(tau=2), np.array([0.0]), shard, NO_DRAW, request_generator())
    assert delta[0] == pytest.approx(-4.75, abs=1e-15)


def test_tau_one_returns_the_stochastic_gradient_bit_identical():
    """1000 random tasks/models: tau=1 delta is the gradient, bit for bit."""
    rng = np.random.default_rng(99)
    streams, replay = request_generator(), request_generator()
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
        delta = local_train(task, x0, shard, (7, 0, 0, case), streams)
        grad = local_stoch_grad(task, shard, x0, rekey(replay, (7, 0, 0, case), TRAIN))
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
        delta = local_train(task, x0, shard, (11, 0, 0, tau), request_generator())
        replay_rng = rekey(request_generator(), (11, 0, 0, tau), TRAIN)
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
    local_train(scalar_task(tau=3), x0, shard, NO_DRAW, request_generator())
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
    delta = local_train(task, x0, shard, NO_DRAW, request_generator())
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
        delta = local_train(task, x0, shard, NO_DRAW, request_generator())
        errs.append(np.linalg.norm(delta - g0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[0] == pytest.approx(0.5, rel=0.15)  # first-order in eta_c


def test_divergence_aborts_with_step_index():
    # eta_c far above 2/L on a quadratic doubles the error every step
    shard = ClientShard(3, np.array([[0.0]]))
    task = TaskSpec(task_id=1, objective=QuadraticObjective(dim=1), tau=200, eta_c=1e6,
                    eta_s=1.0, target_metric=0.9, batch_size=1)
    with pytest.raises(DivergenceError) as err:
        local_train(task, np.array([1.0]), shard, NO_DRAW, request_generator())
    assert err.value.task_id == 1
    assert err.value.client_id == 3
    assert 1 <= err.value.step_index <= 200
    assert "step" in str(err.value)


STACKED_FAMILIES = {
    "quadratic": lambda l2: QuadraticObjective(dim=3, l2=l2),
    "logistic": lambda l2: LogisticObjective(n_features=3, n_classes=3, l2=l2),
    "tiny_mlp": lambda l2: TinyMlpObjective(n_features=3, hidden_units=4, n_classes=3, l2=l2),
}

#: Shard sizes against batch_size 4: drawn minibatches (7, 12, 9), whole
#: shards smaller than the batch (2, 1, 3) and exactly the batch (4).
SHARD_SIZES = (7, 2, 4, 1, 12, 3, 4, 9, 1)


@pytest.mark.parametrize("family", STACKED_FAMILIES)
@pytest.mark.parametrize("l2", [0.0, 0.05])
@pytest.mark.parametrize("b", [1, 2, 9])
def test_stacked_rows_equal_one_at_a_time_training(family, l2, b):
    gen = np.random.default_rng([b, int(l2 * 100), len(family)])
    obj = STACKED_FAMILIES[family](l2)
    task = TaskSpec(task_id=2, objective=obj, tau=3, eta_c=0.1, eta_s=1.0,
                    target_metric=0.9, batch_size=4)
    shards = [
        ClientShard(100 + i, gen.normal(size=(size, 3)),
                    None if family == "quadratic" else gen.integers(0, 3, size=size))
        for i, size in enumerate(SHARD_SIZES[:b])
    ]
    # Rows from two snapshots, as when a buffer holds stale updates.
    snapshots = [gen.normal(size=obj.dim), gen.normal(size=obj.dim)]
    rows = [snapshots[1] if i % 3 == 1 else snapshots[0] for i in range(b)]
    keys = [(5, 2, 100 + i, i) for i in range(b)]
    before = [x.copy() for x in snapshots]
    stacked = local_train(task, rows, shards, keys, request_generator())
    assert stacked.shape == (b, obj.dim)
    for i in range(b):
        alone = local_train(task, rows[i], shards[i], keys[i], request_generator())
        assert stacked[i].tobytes() == alone.tobytes()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(snapshots, before))


def test_stacked_divergence_names_the_first_row_in_order():
    """Row 1 diverges at a later step than row 3, and in another minibatch
    group; training one at a time in order stops at row 1."""
    task = TaskSpec(task_id=4, objective=QuadraticObjective(dim=1), tau=40, eta_c=1e3,
                    eta_s=1.0, target_metric=0.9, batch_size=2)
    shards = [ClientShard(10 + i, np.zeros((size, 1))) for i, size in enumerate((1, 2, 1, 1))]
    snapshots = [np.array([x]) for x in (0.0, 1e-3, 0.0, 1e6)]
    first = None
    for x, shard in zip(snapshots, shards):
        try:
            local_train(task, x, shard, NO_DRAW, request_generator())
        except DivergenceError as err:
            first = first or err
    assert first.client_id == 11
    with pytest.raises(DivergenceError) as err:
        local_train(task, snapshots[3], shards[3], NO_DRAW, request_generator())
    assert err.value.step_index < first.step_index

    with pytest.raises(DivergenceError) as err:
        local_train(task, snapshots, shards, [NO_DRAW] * 4, request_generator())
    got = (err.value.task_id, err.value.client_id, err.value.step_index)
    assert got == (first.task_id, first.client_id, first.step_index)
