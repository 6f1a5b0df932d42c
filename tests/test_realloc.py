"""Reallocation planner: variance estimates, apportionment, plans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstsim.realloc import (
    TaskAllocView,
    apportion_largest_remainder,
    compute_plan,
    default_c_period,
    estimate_variances,
    largest_remainder,
)


def view(tid, r=5, b=2, scale=1.0, history=()):
    return TaskAllocView(task_id=tid, r_target=r, buffer_target=b, step_scale=scale,
                         history=tuple(np.asarray(h, dtype=float) for h in history))


class TestCadence:
    def test_examples(self):
        assert default_c_period(4, 300) == 900
        assert default_c_period(2, 20) == 30
        assert default_c_period(1, 2) == 2   # 1.5 rounds half-up
        assert default_c_period(1, 1) == 1   # 0.75 rounds to 1

    def test_validation(self):
        with pytest.raises(ValueError):
            default_c_period(0, 5)
        with pytest.raises(ValueError):
            default_c_period(2, 0)


class TestVarianceEstimate:
    def test_two_update_example(self):
        # deltas [1,0] and [3,0]: mean [2,0], deviations +-[1,0], so
        # (1/2) * 2 / 4 = 0.25, times step scale 2 gives 0.5
        out = estimate_variances({7: [np.array([1.0, 0.0]), np.array([3.0, 0.0])]},
                                 {7: 2.0})
        assert out == {7: pytest.approx(0.5, abs=1e-15)}

    def test_zero_mean_yields_zero(self):
        out = estimate_variances({0: [np.array([1.0]), np.array([-1.0])]}, {0: 3.0})
        assert out == {0: 0.0}

    def test_single_update_rejected(self):
        with pytest.raises(ValueError):
            estimate_variances({0: [np.array([1.0])]}, {0: 1.0})

    def test_oracle_on_random_histories(self, rng):
        """Cross-check against a direct numpy transcription of the formula."""
        for _ in range(25):
            v = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 5))
            hist = [rng.normal(size=dim) for _ in range(v)]
            scale = float(rng.uniform(0.1, 3.0))
            got = estimate_variances({0: hist}, {0: scale})[0]
            stack = np.stack(hist)
            mean = stack.mean(axis=0)
            want = scale * np.sum((stack - mean) ** 2) / (v * float(mean @ mean))
            assert got == pytest.approx(want, rel=1e-12)

    @given(alpha=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance_of_relative_variance(self, alpha):
        # multiplying every delta by alpha cancels in the ratio
        hist = [np.array([1.0, 2.0]), np.array([2.0, 1.0]), np.array([3.0, 3.0])]
        base = estimate_variances({0: hist}, {0: 1.0})[0]
        scaled = estimate_variances({0: [alpha * h for h in hist]}, {0: 1.0})[0]
        assert scaled == pytest.approx(base, rel=1e-9)


class TestApportionment:
    def test_exact_quotas(self):
        # sqrt variances .4 / .2 split 9 as exactly 6 / 3
        assert apportion_largest_remainder([0.4, 0.2], 9) == [6, 3]

    def test_remainder_tie_breaks_to_lower_index(self):
        assert apportion_largest_remainder([1.0, 1.0, 1.0], 10) == [4, 3, 3]

    def test_all_zero_weights_fall_back_to_uniform(self):
        assert apportion_largest_remainder([0.0, 0.0], 7) == [4, 3]

    def test_minimum_one_funded_by_largest(self):
        assert apportion_largest_remainder([0.0, 100.0], 5) == [1, 4]
        assert apportion_largest_remainder([0.0, 0.0, 9.0], 6) == [1, 1, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            apportion_largest_remainder([], 5)
        with pytest.raises(ValueError):
            apportion_largest_remainder([1.0, 1.0], 1)
        with pytest.raises(ValueError):
            apportion_largest_remainder([-0.1, 1.0], 5)

    @given(
        weights=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=8),
        extra=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=80, deadline=None)
    def test_sum_and_floor_always_hold(self, weights, extra):
        total = len(weights) + extra
        alloc = apportion_largest_remainder(weights, total)
        assert sum(alloc) == total
        assert min(alloc) >= 1
        assert alloc == apportion_largest_remainder(weights, total)  # deterministic
        # the shared rounding step: each count is its quota's floor or one more
        if sum(weights) > 0:
            quotas = np.asarray(weights) / sum(weights) * total
            counts = largest_remainder(quotas, total)
            assert counts.sum() == total
            assert np.all((counts == np.floor(quotas)) | (counts == np.floor(quotas) + 1))

    @given(
        weights=st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=2, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_when_every_quota_is_at_least_one(self, weights):
        # with quotas >= 1 nobody needs the min-each repair, and a larger
        # weight can never receive a smaller allocation
        total = 20 * len(weights)
        alloc = apportion_largest_remainder(weights, total)
        for i in range(len(weights)):
            for j in range(len(weights)):
                if weights[i] >= weights[j]:
                    assert alloc[i] >= alloc[j] - 1
                if weights[i] > weights[j] and not math.isclose(weights[i], weights[j]):
                    assert alloc[i] >= alloc[j]


class TestComputePlan:
    def hist_a(self):
        return ([1.0, 0.0], [3.0, 0.0])  # rel var 0.25

    def hist_flat(self):
        return ([2.0, 0.0], [2.0, 0.0])  # rel var 0

    def test_short_history_is_refused(self):
        # the server plans only once every live task holds 2 updates
        views = [view(0, history=self.hist_a()), view(1, history=([1.0, 0.0],))]
        with pytest.raises(ValueError, match="task 1: need at least 2 updates"):
            compute_plan(views, 10)

    def test_frozen_trigger_example(self):
        """Task 0 (scale 2, rel var .25) against a constant-history task 1:
        weights sqrt(.5) vs 0, budget 9 goes 8/1 after the floor repair,
        buffers rescale 2 -> 3 (ratio 8/6) and 3 -> 1 (ratio 1/3)."""
        views = [
            view(0, r=6, b=2, scale=2.0, history=self.hist_a()),
            view(1, r=3, b=3, scale=1.0, history=self.hist_flat()),
        ]
        plan = compute_plan(views, 9)
        assert plan.sigma_sq == {0: pytest.approx(0.5), 1: 0.0}
        assert plan.r_new == {0: 8, 1: 1}
        assert plan.b_new == {0: 3, 1: 1}

    def test_equal_relative_variance_splits_evenly(self):
        views = [
            view(0, r=7, b=2, history=([1.0], [3.0])),
            view(1, r=3, b=2, history=([2.0], [6.0])),  # same relative spread
        ]
        plan = compute_plan(views, 10)
        assert plan.r_new == {0: 5, 1: 5}
        # buffer follows its own task's request ratio, rounded half up
        assert plan.b_new == {0: max(1, int(math.floor(2 * 5 / 7 + 0.5))), 1: 3}

    def test_budget_covers_a_finished_tasks_share(self):
        # task 2 finished with 4 requests: only the live tasks are handed
        # over, with the whole budget, and only they get targets
        views = [
            view(0, r=3, b=1, history=([1.0], [3.0])),
            view(1, r=3, b=1, history=([2.0], [6.0])),
        ]
        plan = compute_plan(views, 10)
        assert plan.r_new == {0: 5, 1: 5}
        assert plan.b_new == {0: 2, 1: 2}  # 1 * 5 / 3 rounds to 2
        assert set(plan.sigma_sq) == {0, 1}

    def test_two_pass_oracle(self, rng):
        """Replay the full pipeline with an independent in-test oracle."""
        for trial in range(20):
            n = int(rng.integers(2, 5))
            views = []
            for tid in range(n):
                v = int(rng.integers(2, 6))
                hist = tuple(rng.normal(size=3) for _ in range(v))
                views.append(view(tid, r=int(rng.integers(1, 9)),
                                  b=int(rng.integers(1, 4)),
                                  scale=float(rng.uniform(0.5, 2.0)), history=hist))
            budget = int(rng.integers(n, 30))
            plan = compute_plan(views, budget)

            # oracle: variances, sqrt weights, quota + largest remainder
            weights = []
            for v_ in views:
                stack = np.stack(v_.history)
                mean = stack.mean(axis=0)
                sig = v_.step_scale * np.sum((stack - mean) ** 2) / (
                    len(v_.history) * float(mean @ mean))
                assert plan.sigma_sq[v_.task_id] == pytest.approx(sig, rel=1e-12)
                weights.append(math.sqrt(sig))
            quotas = np.array(weights) / sum(weights) * budget
            alloc = np.floor(quotas).astype(int)
            order = np.argsort(-(quotas - alloc), kind="stable")
            for i in range(budget - alloc.sum()):
                alloc[order[i]] += 1
            while (alloc < 1).any():
                alloc[int(np.argmax(alloc))] -= 1
                alloc[int(np.flatnonzero(alloc < 1)[0])] += 1
            for v_, want in zip(views, alloc):
                assert plan.r_new[v_.task_id] == want
                want_b = max(1, int(math.floor(v_.buffer_target * want / v_.r_target + 0.5)))
                assert plan.b_new[v_.task_id] == want_b

    def test_budget_is_conserved(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            views = [view(t, r=int(rng.integers(1, 12)),
                          history=tuple(rng.normal(size=2) for _ in range(3)))
                     for t in range(n)]
            budget = int(rng.integers(n, 40))
            plan = compute_plan(views, budget)
            assert sum(plan.r_new.values()) == budget
            assert set(plan.r_new) == set(plan.b_new) == set(range(n))
