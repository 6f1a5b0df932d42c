"""Shifted-exponential delay model and speed-class profiles."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstsim.delay_model import (
    DEFAULT_SPEED_MIX,
    DEFAULT_SPEED_MULTIPLIERS,
    ClientProfile,
    DelaySpec,
    SpeedClass,
    duration_quantile,
    make_profiles,
    sample_duration,
)
from fstsim.objectives import QuadraticObjective, TaskSpec


class TestQuantile:
    def test_zero_quantile_is_the_shift_floor(self):
        assert duration_quantile(0.0, beta=1.0, tau=1) == 1.0
        assert duration_quantile(0.0, beta=0.5, tau=4) == 2.0

    def test_median_style_point(self):
        # u = 1 - 1/e makes -ln(1-u) = 1; defaults give tau*(beta + 2*beta)
        u = 1.0 - math.exp(-1.0)
        assert duration_quantile(u, beta=1.0, tau=1) == pytest.approx(3.0, rel=1e-12)
        assert duration_quantile(u, beta=2.0, tau=3) == pytest.approx(18.0, rel=1e-12)

    def test_pure_exponential_when_shift_is_zero(self):
        spec = DelaySpec(shift_factor=0.0, scale_factor=1.0)
        u = 1.0 - math.exp(-1.0)
        assert duration_quantile(u, beta=1.0, tau=1, delay=spec) == pytest.approx(1.0)
        assert duration_quantile(0.0, beta=1.0, tau=1, delay=spec) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            duration_quantile(1.0, beta=1.0, tau=1)
        with pytest.raises(ValueError):
            duration_quantile(-0.1, beta=1.0, tau=1)
        with pytest.raises(ValueError):
            duration_quantile(0.5, beta=0.0, tau=1)

    @given(u=st.floats(min_value=0.0, max_value=0.999999),
           beta=st.floats(min_value=1e-3, max_value=1e3),
           tau=st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_never_below_the_shift_floor(self, u, beta, tau):
        d = duration_quantile(u, beta, tau)
        assert d >= tau * 1.0 * beta - 1e-12
        assert math.isfinite(d)

    @given(beta=st.floats(min_value=1e-2, max_value=10.0),
           tau=st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_u(self, beta, tau):
        lo = duration_quantile(0.1, beta, tau)
        hi = duration_quantile(0.9, beta, tau)
        assert hi > lo


class TestDelaySpec:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            DelaySpec(shift_factor=0.0, scale_factor=0.0)
        with pytest.raises(ValueError):
            DelaySpec(shift_factor=-1.0)

    def test_defaults(self):
        spec = DelaySpec()
        assert spec.shift_factor == 1.0
        assert spec.scale_factor == 2.0


class TestSampling:
    def test_mean_matches_three_tau_beta(self, rng):
        """Default calibration: E[duration] = 3 * tau * beta."""
        profile = ClientProfile(0, SpeedClass.NORMAL, 1.0, {0: 2.0})
        task = TaskSpec(task_id=0, objective=QuadraticObjective(dim=1), tau=4,
                        eta_c=0.1, eta_s=1.0, target_metric=0.9)
        n = 40000
        draws = np.array([sample_duration(profile, task, rng) for _ in range(n)])
        expected = 3.0 * 4 * 2.0
        # std of one draw = scale*tau*beta = 16, so SE ~ 16/200 = 0.08
        assert draws.mean() == pytest.approx(expected, abs=4 * 16 / math.sqrt(n))
        assert draws.min() >= 4 * 2.0  # floor at tau * shift

    def test_exponential_mode_mean(self, rng):
        spec = DelaySpec(shift_factor=0.0, scale_factor=1.0)
        profile = ClientProfile(0, SpeedClass.NORMAL, 1.0, {0: 1.0})
        task = TaskSpec(task_id=0, objective=QuadraticObjective(dim=1), tau=1,
                        eta_c=0.1, eta_s=1.0, target_metric=0.9)
        draws = np.array([sample_duration(profile, task, rng, spec) for _ in range(40000)])
        assert draws.mean() == pytest.approx(1.0, abs=0.02)

    def test_unknown_task_raises(self):
        profile = ClientProfile(0, SpeedClass.NORMAL, 1.0, {0: 1.0})
        with pytest.raises(KeyError):
            profile.beta(5)


class TestProfiles:
    def test_counts_four_clients(self, rng):
        profiles = make_profiles(4, {0: 1.0}, rng)
        counts = Counter(p.speed_class for p in profiles)
        assert counts == {SpeedClass.SLOW: 1, SpeedClass.NORMAL: 2, SpeedClass.FAST: 1}

    def test_counts_thousand_clients(self, rng):
        profiles = make_profiles(1000, {0: 1.0}, rng)
        counts = Counter(p.speed_class for p in profiles)
        assert counts == {SpeedClass.SLOW: 250, SpeedClass.NORMAL: 500, SpeedClass.FAST: 250}

    def test_largest_remainder_on_awkward_sizes(self, rng):
        # 25/50/25 of 7 clients: quotas 1.75 / 3.5 / 1.75, floors 1/3/1, and
        # the two leftovers go to the .75 remainders (slow, fast) before .5
        profiles = make_profiles(7, {0: 1.0}, rng)
        counts = Counter(p.speed_class for p in profiles)
        assert sum(counts.values()) == 7
        assert counts[SpeedClass.SLOW] == 2
        assert counts[SpeedClass.NORMAL] == 3
        assert counts[SpeedClass.FAST] == 2

    def test_betas_scale_by_multiplier_and_preserve_task_ratios(self, rng):
        base = {0: 0.5, 1: 2.0}
        profiles = make_profiles(100, base, rng)
        for p in profiles:
            assert p.beta(0) == pytest.approx(0.5 * p.speed_multiplier)
            assert p.beta(1) == pytest.approx(2.0 * p.speed_multiplier)
            assert p.beta(1) / p.beta(0) == pytest.approx(4.0)

    def test_assignment_is_a_seeded_shuffle(self):
        a = make_profiles(50, {0: 1.0}, np.random.default_rng(7))
        b = make_profiles(50, {0: 1.0}, np.random.default_rng(7))
        c = make_profiles(50, {0: 1.0}, np.random.default_rng(8))
        assert [p.speed_class for p in a] == [p.speed_class for p in b]
        assert [p.speed_class for p in a] != [p.speed_class for p in c]
        # profile i really is client i
        assert [p.client_id for p in a] == list(range(50))

    def test_custom_mix_and_multipliers(self, rng):
        profiles = make_profiles(10, {0: 1.0}, rng, mix=(0.0, 1.0, 0.0),
                                 multipliers=(1.3, 1.0, 0.7))
        assert all(p.speed_class is SpeedClass.NORMAL for p in profiles)
        assert all(p.beta(0) == 1.0 for p in profiles)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            make_profiles(0, {0: 1.0}, rng)
        with pytest.raises(ValueError):
            make_profiles(4, {0: 1.0}, rng, mix=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            make_profiles(4, {0: -1.0}, rng)
        with pytest.raises(ValueError):
            make_profiles(4, {0: 1.0}, rng, multipliers=(1.0, 0.0, 1.0))

    @given(n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_counts_always_total_n(self, n):
        profiles = make_profiles(n, {0: 1.0}, np.random.default_rng(0))
        assert sum(Counter(p.speed_class for p in profiles).values()) == n
        assert len(profiles) == n
