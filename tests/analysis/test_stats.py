"""Tests for small-sample statistics helpers."""

import numpy as np
import pytest

from repro.analysis.stats import (
    MeanCI,
    dominates_paired,
    mean_ci,
    paired_delta_ci,
)


class TestMeanCI:
    def test_point_for_single_sample(self):
        ci = mean_ci([5.0])
        assert ci.mean == ci.lower == ci.upper == 5.0
        assert ci.n == 1
        assert ci.halfwidth == 0.0

    def test_contains_true_mean_usually(self):
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(200):
            sample = rng.normal(10.0, 2.0, size=8)
            if mean_ci(sample, 0.95).contains(10.0):
                hits += 1
        assert 0.88 <= hits / 200 <= 1.0

    def test_width_shrinks_with_samples(self):
        rng = np.random.default_rng(1)
        small = mean_ci(rng.normal(0, 1, size=5))
        large = mean_ci(rng.normal(0, 1, size=100))
        assert large.halfwidth < small.halfwidth

    def test_nan_samples_dropped(self):
        for values, n in (
            ([1.0, np.nan, 3.0], 2),
            ([1.0, np.nan, 2.0, np.inf, 3.0, -np.inf], 3),
        ):
            ci = mean_ci(values)
            assert ci.n == n
            assert ci.mean == pytest.approx(2.0)

    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    def test_bounds_equal_t_ppf_formula_bitwise(self, confidence):
        from scipy.stats import t as student_t

        rng = np.random.default_rng(int(confidence * 100))
        for n in range(2, 65):
            sample = rng.normal(50.0, 12.0, size=n)
            ci = mean_ci(sample, confidence)
            m = float(sample.mean())
            sem = float(sample.std(ddof=1)) / np.sqrt(n)
            t = float(student_t.ppf(0.5 + confidence / 2, df=n - 1))
            assert (ci.lower, ci.upper) == (m - t * sem, m + t * sem), n

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_ci([])
        with pytest.raises(ValueError):
            mean_ci([np.nan])
        with pytest.raises(ValueError):
            mean_ci([1.0], confidence=1.0)
        with pytest.raises(ValueError):
            MeanCI(mean=5.0, lower=6.0, upper=7.0, confidence=0.9, n=2)


class TestPaired:
    def test_paired_is_tighter_than_unpaired(self):
        rng = np.random.default_rng(2)
        noise = rng.normal(0, 5.0, size=10)  # shared noise (paired seeds)
        a = 100 + noise + rng.normal(0, 0.5, size=10)
        b = 103 + noise + rng.normal(0, 0.5, size=10)
        paired = paired_delta_ci(a, b)
        assert paired.halfwidth < 2.0  # shared noise cancels
        assert paired.mean == pytest.approx(-3.0, abs=1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_delta_ci([1.0, 2.0], [1.0])

    def test_dominates_paired(self):
        rng = np.random.default_rng(3)
        noise = rng.normal(0, 5.0, size=12)
        fast = 50 + noise
        slow = 60 + noise
        assert dominates_paired(fast, slow)
        assert not dominates_paired(slow, fast)

    def test_single_replication_falls_back(self):
        assert dominates_paired([1.0], [2.0])
        assert not dominates_paired([2.0], [1.0])


class TestRunSummaryCI:
    def test_delay_ci_from_replications(self, line5):
        from repro.scenario import Scenario
        from repro.sim.runner import run_experiment

        summary = run_experiment(line5, Scenario(
            protocol="opt", duty_ratio=0.2, n_packets=2, seed=1,
            n_replications=5, coverage_target=1.0,
        ))
        ci = summary.delay_ci()
        assert ci.n == 5
        assert ci.lower <= summary.mean_delay() <= ci.upper
        assert summary.per_replication_delays().shape == (5,)
