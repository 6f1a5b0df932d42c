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
    SPEED_CLASSES,
    ClientProfiles,
    DelaySpec,
    SpeedClass,
    duration_quantile,
    make_profiles,
    sample_duration,
)


def class_counts(profiles):
    return Counter(SPEED_CLASSES[code] for code in profiles.speed_classes.tolist())


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
        n = 40000
        draws = np.array([sample_duration(2.0, 4, rng) for _ in range(n)])
        expected = 3.0 * 4 * 2.0
        # std of one draw = scale*tau*beta = 16, so SE ~ 16/200 = 0.08
        assert draws.mean() == pytest.approx(expected, abs=4 * 16 / math.sqrt(n))
        assert draws.min() >= 4 * 2.0  # floor at tau * shift

    def test_exponential_mode_mean(self, rng):
        spec = DelaySpec(shift_factor=0.0, scale_factor=1.0)
        draws = np.array([sample_duration(1.0, 1, rng, spec) for _ in range(40000)])
        assert draws.mean() == pytest.approx(1.0, abs=0.02)

    def test_sample_is_the_quantile_of_the_draw(self):
        """``sample_duration`` skips the checks, not the formula: each draw is
        ``duration_quantile`` of the same uniform, bit for bit."""
        spec = DelaySpec(shift_factor=0.5, scale_factor=3.0)
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        for beta, tau in ((0.7, 1), (1.3, 4), (2.5, 3)):
            for _ in range(200):
                assert sample_duration(beta, tau, a, spec) == duration_quantile(
                    b.random(), beta, tau, spec)

    def test_unknown_task_raises(self):
        with pytest.raises(KeyError):
            make_profiles(2, {0: 1.0}, np.random.default_rng(0)).beta(0, 5)


class TestProfiles:
    def test_counts_four_clients(self, rng):
        counts = class_counts(make_profiles(4, {0: 1.0}, rng))
        assert counts == {SpeedClass.SLOW: 1, SpeedClass.NORMAL: 2, SpeedClass.FAST: 1}

    def test_counts_thousand_clients(self, rng):
        counts = class_counts(make_profiles(1000, {0: 1.0}, rng))
        assert counts == {SpeedClass.SLOW: 250, SpeedClass.NORMAL: 500, SpeedClass.FAST: 250}

    def test_largest_remainder_on_awkward_sizes(self, rng):
        # 25/50/25 of 7 clients: quotas 1.75 / 3.5 / 1.75, floors 1/3/1, and
        # the two leftovers go to the .75 remainders (slow, fast) before .5
        counts = class_counts(make_profiles(7, {0: 1.0}, rng))
        assert sum(counts.values()) == 7
        assert counts[SpeedClass.SLOW] == 2
        assert counts[SpeedClass.NORMAL] == 3
        assert counts[SpeedClass.FAST] == 2

    def test_betas_scale_by_multiplier_and_preserve_task_ratios(self, rng):
        base = {0: 0.5, 1: 2.0}
        profiles = make_profiles(100, base, rng)
        for c, (code, mult) in enumerate(zip(profiles.speed_classes, profiles.multipliers)):
            assert mult == DEFAULT_SPEED_MULTIPLIERS[code]
            assert profiles.beta(c, 0) == 0.5 * mult
            assert profiles.beta(c, 1) == 2.0 * mult
            assert profiles.beta(c, 1) / profiles.beta(c, 0) == pytest.approx(4.0)

    def test_assignment_is_a_seeded_shuffle(self):
        a = make_profiles(50, {0: 1.0}, np.random.default_rng(7))
        b = make_profiles(50, {0: 1.0}, np.random.default_rng(7))
        c = make_profiles(50, {0: 1.0}, np.random.default_rng(8))
        assert np.array_equal(a.speed_classes, b.speed_classes)
        assert not np.array_equal(a.speed_classes, c.speed_classes)
        assert len(a) == len(a.speed_classes) == len(a.multipliers) == 50

    def test_custom_mix_and_multipliers(self, rng):
        profiles = make_profiles(10, {0: 1.0}, rng, mix=(0.0, 1.0, 0.0),
                                 multipliers=(1.3, 1.0, 0.7))
        assert class_counts(profiles) == {SpeedClass.NORMAL: 10}
        assert all(profiles.beta(c, 0) == 1.0 for c in range(10))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            make_profiles(0, {0: 1.0}, rng)
        with pytest.raises(ValueError):
            make_profiles(4, {0: 1.0}, rng, mix=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            make_profiles(4, {0: -1.0}, rng)
        with pytest.raises(ValueError):
            make_profiles(4, {0: 1.0}, rng, multipliers=(1.0, 0.0, 1.0))

    @pytest.mark.parametrize("classes, multipliers, base_betas, message", [
        ([1, 1], [1.0], {0: 1.0}, "one speed class and one multiplier per client"),
        ([1, 3], [1.0, 1.0], {0: 1.0}, "speed class codes"),
        ([1, 1], [1.0, 0.0], {0: 1.0}, "multipliers must be positive"),
        ([1, 1], [1.0, math.nan], {0: 1.0}, "multipliers must be positive"),
        ([1, 1], [1.0, 1.0], {0: 1.0, 4: math.nan}, "base beta for task 4"),
    ])
    def test_container_validation(self, classes, multipliers, base_betas, message):
        with pytest.raises(ValueError, match=message):
            ClientProfiles(classes, multipliers, base_betas)

    def test_container_is_flat_and_read_only(self):
        """The pool holds one int8 code and one multiplier reference per
        client, and each client's multiplier is its class's Python float, so
        make_profiles builds no object per client."""
        triple = (1.3, 1.0, 0.7)
        profiles = make_profiles(1000, {0: 1.0, 1: 2.0}, np.random.default_rng(3),
                                 multipliers=triple)
        assert profiles.speed_classes.dtype == np.int8
        assert not profiles.speed_classes.flags.writeable
        assert all(m is triple[code]
                   for code, m in zip(profiles.speed_classes.tolist(), profiles.multipliers))
        assert type(profiles.beta(0, 1)) is float

    @given(n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_counts_always_total_n(self, n):
        profiles = make_profiles(n, {0: 1.0}, np.random.default_rng(0))
        assert sum(class_counts(profiles).values()) == n
        assert len(profiles) == n
