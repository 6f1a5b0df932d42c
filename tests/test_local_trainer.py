"""Local training loop: gradient-average identity, snapshots, divergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstsim.harness import build_scenario
from fstsim.local_trainer import DIVERGENCE_LIMIT, DivergenceError, local_train
from fstsim.objectives import (
    ClientShards,
    LogisticObjective,
    QuadraticObjective,
    TaskSpec,
    TinyMlpObjective,
)
from fstsim.rng import TRAIN, rekey, request_generator
from oracles import grad_one, local_stoch_grad
from test_workload_pins import load_workloads


#: A request key for training that draws nothing: the shard is the minibatch.
NO_DRAW = (0, 0, 0, 0)


def one_client(features, labels=None):
    """Client 0 holds every row."""
    return ClientShards(features, labels, [0, len(features)])


def scalar_task(tau, eta_c=0.1, batch_size=1):
    return TaskSpec(task_id=0, objective=QuadraticObjective(dim=1), tau=tau,
                    eta_c=eta_c, eta_s=1.0, target_metric=0.9, batch_size=batch_size)


def test_one_step_scalar_example():
    # f(x) = (x-5)^2/2 from x0=0, eta_c=0.1: x1=0.5, delta=-5
    shards = one_client(np.array([[5.0]]))
    delta = local_train(scalar_task(tau=1), [np.array([0.0])], shards, [0], [NO_DRAW],
                        request_generator())[0]
    assert delta[0] == -5.0


def test_two_step_scalar_example():
    # second step: x2 = 0.5 - 0.1*(0.5-5) = 0.95; delta = mean(-5, -4.5) = -4.75
    shards = one_client(np.array([[5.0]]))
    delta = local_train(scalar_task(tau=2), [np.array([0.0])], shards, [0], [NO_DRAW],
                        request_generator())[0]
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
        shards = one_client(feats, labels)
        task = TaskSpec(task_id=0, objective=obj, tau=1, eta_c=float(rng.uniform(0.01, 1.0)),
                        eta_s=1.0, target_metric=0.9, batch_size=int(rng.integers(1, 4)))
        x0 = rng.normal(size=obj.dim)
        delta = local_train(task, [x0], shards, [0], [(7, 0, 0, case)], streams)[0]
        grad = local_stoch_grad(task, shards[0], x0, rekey(replay, (7, 0, 0, case), TRAIN))
        assert np.array_equal(delta, grad)


def test_delta_equals_mean_of_path_gradients_bit_identical():
    """Replaying the same stream step by step reproduces delta exactly."""
    rng = np.random.default_rng(4)
    obj = LogisticObjective(n_features=3, n_classes=2)
    feats = rng.normal(size=(12, 3))
    labels = rng.integers(0, 2, size=12)
    shards = one_client(feats, labels)
    for tau in (2, 3, 7):
        task = TaskSpec(task_id=0, objective=obj, tau=tau, eta_c=0.2, eta_s=1.0,
                        target_metric=0.9, batch_size=4)
        x0 = rng.normal(size=obj.dim)
        delta = local_train(task, [x0], shards, [0], [(11, 0, 0, tau)], request_generator())[0]
        replay_rng = rekey(request_generator(), (11, 0, 0, tau), TRAIN)
        x = x0.copy()
        acc = np.zeros_like(x)
        for _ in range(tau):
            g = local_stoch_grad(task, shards[0], x, replay_rng)
            acc += g
            x -= task.eta_c * g
        assert np.array_equal(delta, acc / tau)


def test_snapshot_is_never_mutated():
    shards = one_client(np.array([[5.0]]))
    x0 = np.array([0.0])
    local_train(scalar_task(tau=3), [x0], shards, [0], [NO_DRAW], request_generator())
    assert x0[0] == 0.0


def test_telescoping_identity_holds_numerically():
    # delta also equals (x0 - x_tau) / (tau * eta_c) up to float roundoff
    rng = np.random.default_rng(8)
    obj = QuadraticObjective(dim=3)
    feats = rng.normal(size=(5, 3))
    shards = one_client(feats)
    task = TaskSpec(task_id=0, objective=obj, tau=5, eta_c=0.07, eta_s=1.0,
                    target_metric=0.9, batch_size=5)
    x0 = rng.normal(size=3)
    delta = local_train(task, [x0], shards, [0], [NO_DRAW], request_generator())[0]
    x = x0.copy()
    for _ in range(task.tau):
        x = x - task.eta_c * grad_one(obj, x, feats, None)
    assert np.allclose(delta, (x0 - x) / (task.tau * task.eta_c), rtol=1e-12)


def test_small_eta_c_delta_approaches_local_gradient():
    """As eta_c -> 0 the averaged direction converges to grad f(x0), O(eta_c)."""
    rng = np.random.default_rng(21)
    obj = QuadraticObjective(dim=2)
    feats = rng.normal(size=(4, 2))
    shards = one_client(feats)
    x0 = np.array([1.0, -2.0])
    g0 = grad_one(obj, x0, feats, None)
    errs = []
    for eta_c in (0.1, 0.05, 0.025):
        task = TaskSpec(task_id=0, objective=obj, tau=4, eta_c=eta_c, eta_s=1.0,
                        target_metric=0.9, batch_size=4)
        delta = local_train(task, [x0], shards, [0], [NO_DRAW], request_generator())[0]
        errs.append(np.linalg.norm(delta - g0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[0] == pytest.approx(0.5, rel=0.15)  # first-order in eta_c


def test_divergence_aborts_with_step_index():
    # eta_c far above 2/L on a quadratic doubles the error every step
    shards = ClientShards(np.zeros((4, 1)), None, np.arange(5))
    task = TaskSpec(task_id=1, objective=QuadraticObjective(dim=1), tau=200, eta_c=1e6,
                    eta_s=1.0, target_metric=0.9, batch_size=1)
    with pytest.raises(DivergenceError) as err:
        local_train(task, [np.array([1.0])], shards, [3], [NO_DRAW], request_generator())
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
#: Against batch_size 8: minibatches of 2, 5 and 8 (drawn from 13 and 20)
#: share one padded stack, beside the one-sample rows.
MIXED_SHARD_SIZES = (13, 1, 5, 2, 8, 20, 1, 5, 13)


@pytest.mark.parametrize("family", STACKED_FAMILIES)
@pytest.mark.parametrize("l2", [0.0, 0.05])
@pytest.mark.parametrize("b", [1, 2, 9])
def test_stacked_rows_equal_one_at_a_time_training(family, l2, b):
    check_stacked_rows_train_alone(family, l2, b, 4, SHARD_SIZES)


@pytest.mark.parametrize("family", STACKED_FAMILIES)
@pytest.mark.parametrize("l2", [0.0, 0.05])
@pytest.mark.parametrize("b", [1, 2, 9])
def test_padded_stack_of_mixed_minibatch_sizes_equals_rows_alone(family, l2, b):
    check_stacked_rows_train_alone(family, l2, b, 8, MIXED_SHARD_SIZES)


def check_stacked_rows_train_alone(family, l2, b, batch_size, sizes):
    gen = np.random.default_rng([b, int(l2 * 100), len(family)])
    obj = STACKED_FAMILIES[family](l2)
    task = TaskSpec(task_id=2, objective=obj, tau=3, eta_c=0.1, eta_s=1.0,
                    target_metric=0.9, batch_size=batch_size)
    data = [(gen.normal(size=(size, 3)),
             None if family == "quadratic" else gen.integers(0, 3, size=size))
            for size in sizes[:b]]
    shards = ClientShards(np.concatenate([f for f, _ in data]),
                          None if family == "quadratic" else np.concatenate([lab for _, lab in data]),
                          np.concatenate([[0], np.cumsum(sizes[:b])]))
    # Rows from two snapshots, as when a buffer holds stale updates.
    snapshots = [gen.normal(size=obj.dim), gen.normal(size=obj.dim)]
    rows = [snapshots[1] if i % 3 == 1 else snapshots[0] for i in range(b)]
    keys = [(5, 2, 100 + i, i) for i in range(b)]
    before = [x.copy() for x in snapshots]
    stacked = local_train(task, rows, shards, list(range(b)), keys, request_generator())
    assert stacked.shape == (b, obj.dim)
    for i in range(b):
        alone = local_train(task, [rows[i]], shards, [i], [keys[i]], request_generator())[0]
        assert stacked[i].tobytes() == alone.tobytes()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(snapshots, before))


def diverging_rows():
    """A task, shards and four snapshots: rows 1 and 3 diverge, row 1 at a
    later step and in the other minibatch group (rows 0, 2 and 3 draw one
    sample)."""
    task = TaskSpec(task_id=4, objective=QuadraticObjective(dim=1), tau=40, eta_c=1e3,
                    eta_s=1.0, target_metric=0.9, batch_size=2)
    shards = ClientShards(np.zeros((5, 1)), None, [0, 1, 3, 4, 5])  # sizes 1, 2, 1, 1
    return task, shards, [np.array([x]) for x in (0.0, 1e-3, 0.0, 1e6)]


def test_stacked_divergence_names_the_first_row_in_order():
    """Row 1 diverges at a later step than row 3, and in another minibatch
    group; training one at a time in order stops at row 1."""
    task, shards, snapshots = diverging_rows()
    first = None
    for c, x in enumerate(snapshots):
        try:
            local_train(task, [x], shards, [c], [NO_DRAW], request_generator())
        except DivergenceError as err:
            first = first or err
    assert first.client_id == 1
    with pytest.raises(DivergenceError) as err:
        local_train(task, [snapshots[3]], shards, [3], [NO_DRAW], request_generator())
    assert err.value.step_index < first.step_index

    with pytest.raises(DivergenceError) as err:
        local_train(task, snapshots, shards, [0, 1, 2, 3], [NO_DRAW] * 4, request_generator())
    got = (err.value.task_id, err.value.client_id, err.value.step_index)
    assert got == (first.task_id, first.client_id, first.step_index)


def test_a_diverged_row_trained_ahead_cuts_the_stack_before_it():
    """Rows from ``ahead_from`` on are trained ahead: if the first row to
    diverge is one of them, the result is the rows before it, each as it
    trains alone; if it is a requested row, the error is the same."""
    task, shards, snapshots = diverging_rows()
    alone = [local_train(task, [np.array([0.0])], shards, [c], [NO_DRAW], request_generator())
             for c in range(3)]
    clients, keys = [0, 1, 2, 3], [NO_DRAW] * 4

    got = local_train(task, snapshots, shards, clients, keys, request_generator(), ahead_from=1)
    assert got.tobytes() == alone[0].tobytes()
    calm = [snapshots[0], np.array([0.0]), *snapshots[2:]]
    got = local_train(task, calm, shards, clients, keys, request_generator(), ahead_from=3)
    assert got.tobytes() == np.concatenate(alone).tobytes()
    with pytest.raises(DivergenceError) as plain:
        local_train(task, snapshots, shards, clients, keys, request_generator())
    with pytest.raises(DivergenceError) as err:
        local_train(task, snapshots, shards, clients, keys, request_generator(), ahead_from=2)
    assert (err.value.client_id, err.value.step_index) == (1, plain.value.step_index)
    with pytest.raises(DivergenceError) as err:
        local_train(task, calm, shards, clients, keys, request_generator(), ahead_from=4)
    assert err.value.client_id == 3


def test_rows_train_the_same_in_any_batch_on_the_paper_scenario():
    """On paper_sync's seed-1 scenario, bit for bit: a permuted batch gives
    the permuted rows, a subset trained first (as a replan does) gives its
    rows, and one row at a time gives the stacked rows. After three random
    batches per task comes one that mixes every minibatch size."""
    scenario = build_scenario(load_workloads().build("paper_sync"), 1)
    gen = np.random.default_rng(16)
    streams = request_generator()
    for task in scenario.tasks:
        shards = scenario.shards[task.task_id]
        for batch in range(4):
            if batch < 3:
                clients = gen.choice(len(shards), size=10, replace=False).tolist()
            else:
                minibatch = np.minimum(shards.sizes, task.batch_size)
                sizes = np.unique(minibatch)
                clients = gen.permutation(np.concatenate([
                    gen.choice(np.flatnonzero(minibatch == n), size=-(-10 // len(sizes)),
                               replace=False)
                    for n in sizes
                ])).tolist()
            snapshots = gen.normal(scale=0.5, size=(len(clients), task.dim))
            keys = [(1, task.task_id, c, int(gen.integers(4))) for c in clients]
            stacked = local_train(task, snapshots, shards, clients, keys, streams)
            perm = gen.permutation(len(clients))
            permuted = local_train(task, snapshots[perm], shards, [clients[i] for i in perm],
                                   [keys[i] for i in perm], streams)
            assert permuted.tobytes() == stacked[perm].tobytes()
            subset = np.sort(gen.choice(len(clients), size=4, replace=False))
            first = local_train(task, snapshots[subset], shards, [clients[i] for i in subset],
                                [keys[i] for i in subset], streams)
            assert first.tobytes() == stacked[subset].tobytes()
            for i, c in enumerate(clients):
                alone = local_train(task, [snapshots[i]], shards, [c], [keys[i]], streams)[0]
                assert alone.tobytes() == stacked[i].tobytes()


def train_alone_by_oracle(task, shard, x0, key):
    """One request as the oracle trains it: tau ``local_stoch_grad`` steps
    on its training stream, each drawing its minibatch from the stream's raw
    words. Returns the delta, or the step at which the iterate diverged."""
    stream = rekey(request_generator(), key, TRAIN)
    x, grad_sum = x0.copy(), np.zeros_like(x0)
    for step in range(1, task.tau + 1):
        g = local_stoch_grad(task, shard, x, stream)
        grad_sum += g
        x -= task.eta_c * g
        if not np.abs(x).max() <= DIVERGENCE_LIMIT:
            return step
    return grad_sum / task.tau


@given(
    family=st.sampled_from(sorted(STACKED_FAMILIES)),
    batch_size=st.integers(min_value=1, max_value=6),
    tau=st.integers(min_value=1, max_value=3),
    rows=st.lists(st.tuples(st.integers(min_value=0, max_value=8),
                            st.sampled_from([1.0, 1.0, 1.0, 3e11, 1e13])),
                  min_size=1, max_size=14),
    eta_c=st.sampled_from([0.1, 3.0]),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=120, deadline=None)
def test_a_random_stack_trains_as_each_row_alone(family, batch_size, tau, rows, eta_c, seed):
    """Shards around the batch size (drawn, whole, one-sample), snapshots
    that diverge at step 1 or later: the stack's deltas, or the divergence it
    names, are those of training each row alone by the oracle: a row's
    picks do not depend on the stack it trains in."""
    gen = np.random.default_rng(seed)
    obj = STACKED_FAMILIES[family](0.0)
    task = TaskSpec(task_id=1, objective=obj, tau=tau, eta_c=eta_c, eta_s=1.0,
                    target_metric=0.9, batch_size=batch_size)
    sizes = [max(1, batch_size - 2 + extra) for extra, _ in rows]
    shards = ClientShards(gen.normal(size=(sum(sizes), 3)),
                          None if family == "quadratic" else gen.integers(0, 3, sum(sizes)),
                          np.concatenate([[0], np.cumsum(sizes)]))
    snapshots = [scale * gen.normal(size=obj.dim) for _, scale in rows]
    keys = [(seed, 1, c, int(gen.integers(2**40))) for c in range(len(rows))]
    alone = [train_alone_by_oracle(task, shards[c], x, key)
             for c, (x, key) in enumerate(zip(snapshots, keys))]
    diverged = [(c, step) for c, step in enumerate(alone) if isinstance(step, int)]
    if diverged:
        with pytest.raises(DivergenceError) as err:
            local_train(task, snapshots, shards, list(range(len(rows))), keys,
                        request_generator())
        assert (err.value.client_id, err.value.step_index) == diverged[0]
    else:
        stacked = local_train(task, snapshots, shards, list(range(len(rows))), keys,
                              request_generator())
        for row, delta in zip(stacked, alone):
            assert row.tobytes() == delta.tobytes()
