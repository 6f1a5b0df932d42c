"""Objectives: losses, gradients, accuracy, data synthesis, partitioning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstsim.objectives import (
    ClientShards,
    Dataset,
    LogisticObjective,
    QuadraticObjective,
    TaskSpec,
    TinyMlpObjective,
    evaluate,
    generate_blobs,
    generate_quadratic_shards,
    partition_dirichlet,
)
from oracles import global_grad, global_loss, grad_one, local_stoch_grad, reference_loss_accuracy


def quad_task(dim=1, batch_size=1, **kw):
    defaults = dict(tau=1, eta_c=0.1, eta_s=1.0, target_metric=0.9)
    defaults.update(kw)
    return TaskSpec(task_id=0, objective=QuadraticObjective(dim=dim), batch_size=batch_size, **defaults)


def scalar_shards(points):
    return ClientShards(np.array(points, dtype=float)[:, None], None, np.arange(len(points) + 1))


class TestGlobalLoss:
    def test_symmetric_pair(self):
        # clients at a=1 and a=3, model at 2: each local loss 0.5
        assert global_loss(quad_task(), scalar_shards([1, 3]), np.array([2.0])) == pytest.approx(0.5)

    def test_optimum_of_mean(self):
        task = quad_task()
        shards = scalar_shards([1, 3])
        x = np.array([2.0])  # mean of the a_i
        assert np.allclose(global_grad(task, shards, x), 0.0)
        assert global_loss(task, shards, x) == pytest.approx(0.5)

    def test_logistic_zero_model_is_ln2(self):
        obj = LogisticObjective(n_features=3, n_classes=2)
        task = TaskSpec(task_id=0, objective=obj, tau=1, eta_c=0.1, eta_s=1.0, target_metric=0.9)
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(40, 3))
        labels = np.array([0, 1] * 20)
        shards = ClientShards(feats, labels, [0, 20, 40])
        assert global_loss(task, shards, np.zeros(obj.dim)) == pytest.approx(math.log(2), rel=1e-12)

    def test_empty_client_list_errors(self):
        with pytest.raises(ValueError):
            global_loss(quad_task(), [], np.array([0.0]))

    def test_empty_shard_errors(self):
        shards = ClientShards(np.zeros((0, 1)), None, [0, 0])
        with pytest.raises(ValueError):
            global_loss(quad_task(), shards, np.array([0.0]))

    def test_dimension_mismatch_errors(self):
        with pytest.raises(ValueError):
            global_loss(quad_task(), scalar_shards([1.0]), np.array([0.0, 1.0]))


def finite_diff_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        up = x.copy()
        dn = x.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (f(up) - f(dn)) / (2 * eps)
    return g


#: One objective of each family, with and without l2.
EACH_FAMILY = pytest.mark.parametrize(
    "objective",
    [
        QuadraticObjective(dim=4),
        QuadraticObjective(dim=3, l2=0.05),
        LogisticObjective(n_features=3, n_classes=2),
        LogisticObjective(n_features=4, n_classes=3, l2=0.01),
        TinyMlpObjective(n_features=3, hidden_units=5, n_classes=2),
        TinyMlpObjective(n_features=2, hidden_units=4, n_classes=3, l2=0.02),
    ],
    ids=["quad", "quad_l2", "logistic", "softmax3", "mlp", "mlp3_l2"],
)


@EACH_FAMILY
def test_gradients_match_central_differences(objective, rng):
    """Analytic gradients agree with central finite differences at 20 points."""
    n = 12
    if isinstance(objective, QuadraticObjective):
        feats, labels = rng.normal(size=(n, objective.dim)), None
    else:
        feats = rng.normal(size=(n, objective.n_features))
        labels = rng.integers(0, objective.n_classes, size=n)
    for _ in range(20):
        x = rng.normal(scale=0.8, size=objective.dim)
        analytic = grad_one(objective, x, feats, labels)
        numeric = finite_diff_grad(lambda v: objective.loss_accuracy(v, feats, labels)[0], x)
        scale = max(np.linalg.norm(analytic), 1e-8)
        assert np.linalg.norm(analytic - numeric) / scale < 1e-5


@EACH_FAMILY
def test_padded_stack_gradient_equals_each_row_unpadded(objective, rng):
    """Row i of grad(x, padded, labels, counts) is, bit for bit, the gradient
    over row i's first counts[i] samples alone. Padding is zero features
    with any labels. One-sample rows stack on their own, as a trainer stacks
    them: a padded one-row product would round unlike the unpadded one."""
    quadratic = isinstance(objective, QuadraticObjective)
    n_features = objective.dim if quadratic else objective.n_features
    for counts in ([2, 5, 8, 3, 2], [1, 1, 1]):
        features = np.zeros((len(counts), max(counts), n_features))
        for i, n in enumerate(counts):
            features[i, :n] = rng.normal(size=(n, n_features))
        labels = None if quadratic else rng.integers(0, objective.n_classes,
                                                     size=features.shape[:2])
        x = rng.normal(size=(len(counts), objective.dim))
        stacked = objective.grad(x, features, labels, np.array(counts))
        for i, n in enumerate(counts):
            alone = grad_one(objective, x[i], features[i, :n], None if quadratic else labels[i, :n])
            assert stacked[i].tobytes() == alone.tobytes()


class TestMinibatch:
    def test_full_batch_quadratic_is_exact_mean(self, rng):
        pts = rng.normal(size=(6, 2))
        shard = Dataset(pts)
        task = quad_task(dim=2, batch_size=6)
        x = np.array([0.3, -0.7])
        g = local_stoch_grad(task, shard, x, rng)
        assert np.allclose(g, x - pts.mean(axis=0), atol=1e-15)

    def test_full_batch_consumes_no_randomness(self, rng):
        pts = np.arange(8.0).reshape(4, 2)
        shard = Dataset(pts)
        task = quad_task(dim=2, batch_size=10)  # clamps to shard size
        state_before = repr(rng.bit_generator.state)
        local_stoch_grad(task, shard, np.zeros(2), rng)
        assert repr(rng.bit_generator.state) == state_before

    def test_unbiased_over_many_draws(self):
        # smaller-scale version of the acceptance check: mean of minibatch
        # gradients approaches the full gradient
        rng = np.random.default_rng(7)
        obj = LogisticObjective(n_features=3, n_classes=2)
        feats = rng.normal(size=(30, 3))
        labels = rng.integers(0, 2, size=30)
        shard = Dataset(feats, labels)
        task = TaskSpec(task_id=0, objective=obj, tau=1, eta_c=0.1, eta_s=1.0,
                        target_metric=0.9, batch_size=5)
        x = rng.normal(scale=0.5, size=obj.dim)
        full = grad_one(obj, x, feats, labels)
        draws = np.stack([local_stoch_grad(task, shard, x, rng) for _ in range(4000)])
        se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - full) <= 4 * se + 1e-12)

    def test_empty_shard_hard_error(self, rng):
        with pytest.raises(ValueError):
            local_stoch_grad(quad_task(), Dataset(np.zeros((0, 1))), np.zeros(1), rng)


class TestEvaluate:
    def test_zero_weight_binary_tie_breaks_toward_class_zero(self):
        obj = LogisticObjective(n_features=2, n_classes=2)
        task = TaskSpec(task_id=0, objective=obj, tau=1, eta_c=0.1, eta_s=1.0, target_metric=0.9)
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(50, 2))
        labels = np.array([0, 1] * 25)
        loss, acc = evaluate(task, np.zeros(obj.dim), Dataset(feats, labels))
        assert loss == pytest.approx(math.log(2), rel=1e-12)
        assert acc == pytest.approx(0.5)

    def test_separable_set_scaled_weights_reach_accuracy_one(self):
        obj = LogisticObjective(n_features=1, n_classes=2)
        task = TaskSpec(task_id=0, objective=obj, tau=1, eta_c=0.1, eta_s=1.0, target_metric=0.9)
        feats = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        labels = np.array([0, 0, 1, 1])
        x = 1e3 * np.array([-1.0, 1.0])  # rows are class weights
        loss, acc = evaluate(task, x, Dataset(feats, labels))
        assert acc == 1.0
        assert loss < 1e-8

    def test_quadratic_loss_at_optimum_matches_direct_average(self, rng):
        # loss at the pooled mean equals the irreducible spread, computed
        # directly from the points (oracle: plain averaging, no shortcuts)
        pts = rng.normal(loc=2.0, scale=1.5, size=(40, 3))
        task = quad_task(dim=3)
        center = pts.mean(axis=0)
        loss, acc = evaluate(task, center, Dataset(pts))
        direct = 0.5 * np.mean(np.sum((pts - center) ** 2, axis=1))
        assert loss == pytest.approx(direct, rel=1e-12)
        assert acc == pytest.approx(1.0 / (1.0 + direct), rel=1e-12)

    def test_empty_eval_set_errors(self):
        with pytest.raises(ValueError):
            evaluate(quad_task(), np.zeros(1), Dataset(np.zeros((0, 1))))


def plain_task(objective):
    return TaskSpec(task_id=0, objective=objective, tau=1, eta_c=0.1, eta_s=1.0, target_metric=0.9)


@EACH_FAMILY
def test_evaluate_matches_per_sample_reference(objective, rng):
    """One forward pass gives the loss and accuracy of a per-sample loop."""
    n = 30
    if isinstance(objective, QuadraticObjective):
        data = Dataset(rng.normal(size=(n, objective.dim)))
    else:
        feats = rng.normal(size=(n, objective.n_features))
        feats[:3] = 0.0  # a logistic model's logits tie on these rows
        data = Dataset(feats, rng.integers(0, objective.n_classes, size=n))
    for _ in range(10):
        x = rng.normal(size=objective.dim)
        got = evaluate(plain_task(objective), x, data)
        want = reference_loss_accuracy(objective, x, data.features, data.labels)
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_argmax_ties_resolve_to_the_lowest_class(rng):
    # W2 = 0 and b2 = (1, 1, 0): every row's logits tie between classes 0 and 1
    obj = TinyMlpObjective(n_features=2, hidden_units=3, n_classes=3)
    x = rng.normal(size=obj.dim)
    x[-12:] = [0.0] * 9 + [1.0, 1.0, 0.0]
    data = Dataset(rng.normal(size=(40, 2)), np.array([0, 1, 2, 1] * 10))
    loss, acc = evaluate(plain_task(obj), x, data)
    assert acc == 0.25
    assert (loss, acc) == pytest.approx(
        reference_loss_accuracy(obj, x, data.features, data.labels), rel=1e-12, abs=0)


class TestPartitionDirichlet:
    @given(
        n_clients=st.integers(min_value=1, max_value=12),
        n_samples=st.integers(min_value=12, max_value=80),
        n_classes=st.integers(min_value=2, max_value=5),
        alpha=st.floats(min_value=0.05, max_value=50.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n_clients, n_samples, n_classes, alpha, seed):
        """Shards are disjoint and cover the dataset exactly."""
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, n_classes, size=n_samples)
        feats = np.arange(n_samples, dtype=float)[:, None]  # unique ids as features
        shards = partition_dirichlet(Dataset(feats, labels), n_clients, alpha,
                                     np.random.default_rng(seed))
        seen = np.concatenate([s.features[:, 0] for s in shards])
        assert len(seen) == n_samples
        assert set(seen.astype(int)) == set(range(n_samples))
        assert all(s.size >= 1 for s in shards)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 4, size=60)
        feats = rng.normal(size=(60, 2))
        ds = Dataset(feats, labels)
        a = partition_dirichlet(ds, 8, 0.1, np.random.default_rng(42))
        b = partition_dirichlet(ds, 8, 0.1, np.random.default_rng(42))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.features, sb.features)
            assert np.array_equal(sa.labels, sb.labels)

    def test_large_alpha_approaches_uniform_sizes(self):
        rng = np.random.default_rng(5)
        n = 4000
        labels = rng.integers(0, 4, size=n)
        ds = Dataset(rng.normal(size=(n, 2)), labels)
        shards = partition_dirichlet(ds, 10, 1e6, np.random.default_rng(11))
        sizes = np.array([s.size for s in shards])
        assert np.all(np.abs(sizes - n / 10) <= 0.02 * n / 10 + 1)

    def test_small_alpha_concentrates_classes(self):
        rng = np.random.default_rng(6)
        n = 2000
        labels = rng.integers(0, 4, size=n)
        ds = Dataset(rng.normal(size=(n, 2)), labels)
        shards = partition_dirichlet(ds, 10, 0.05, np.random.default_rng(13))
        # with strong skew most clients see far fewer than all 4 classes
        class_counts = [len(np.unique(s.labels)) for s in shards]
        assert np.mean(class_counts) < 3.0

    def test_unlabelled_data_rejected(self):
        with pytest.raises(ValueError):
            partition_dirichlet(Dataset(np.zeros((5, 1))), 2, 0.1, np.random.default_rng(0))


class TestGenerators:
    def test_quadratic_shards_zero_spread_all_identical(self):
        shards, eval_set = generate_quadratic_shards(
            5, 2, mu=3.0, sigma_g=0.0, rng=np.random.default_rng(0))
        for s in shards:
            assert np.allclose(s.features, 3.0)
        assert eval_set.size == 5

    def test_quadratic_dispersion_scales(self):
        rng = np.random.default_rng(1)
        shards, _ = generate_quadratic_shards(400, 3, mu=0.0, sigma_g=2.0, rng=rng)
        centers = np.stack([s.features[0] for s in shards])
        assert centers.std() == pytest.approx(2.0, rel=0.15)

    def test_built_shards_are_read_only(self):
        # shards are row slices of one array per task, and the quadratic eval
        # set shares memory with its shards: a write would reach other clients
        data = generate_blobs(40, 2, 3, np.random.default_rng(2))
        dirichlet = partition_dirichlet(data, 5, 0.5, np.random.default_rng(3))
        quad, eval_set = generate_quadratic_shards(
            5, 2, mu=0.0, sigma_g=1.0, rng=np.random.default_rng(4),
            points_per_client=2, local_spread=0.5)
        for array in (dirichlet[0].features, dirichlet[0].labels, quad[0].features,
                      eval_set.features, dirichlet.features, dirichlet.labels, dirichlet.starts,
                      quad.features, quad.starts):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_client_views_share_the_task_arrays(self):
        data = generate_blobs(60, 2, 3, np.random.default_rng(2))
        dirichlet = partition_dirichlet(data, 7, 0.2, np.random.default_rng(3))
        quad, _ = generate_quadratic_shards(
            6, 2, mu=0.0, sigma_g=1.0, rng=np.random.default_rng(4), points_per_client=3)
        for shards, n_clients, n_samples in ((dirichlet, 7, 60), (quad, 6, 18)):
            assert len(shards) == n_clients
            assert shards.sizes.sum() == shards.size == n_samples
            assert ([s.features.tolist() for s in shards]
                    == [shards[c].features.tolist() for c in range(n_clients)])
            for c in range(n_clients):
                view = shards[c]
                assert view.size == shards.sizes[c]
                assert np.shares_memory(view.features, shards.features)
                if shards.labels is not None:
                    assert np.shares_memory(view.labels, shards.labels)
            with pytest.raises(IndexError):
                shards[n_clients]

    def test_blobs_shapes_and_labels(self):
        ds = generate_blobs(100, 4, 3, np.random.default_rng(2))
        assert ds.features.shape == (100, 4)
        assert set(np.unique(ds.labels)) <= {0, 1, 2}

