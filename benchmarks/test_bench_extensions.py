"""Benchmarks for the extension experiments (beyond the paper's figures)."""

import numpy as np

from repro.experiments import run_experiment_by_id


def test_bench_skew_sensitivity(once):
    """Clock-skew sweep: the value of the local-sync assumption."""
    result = once(run_experiment_by_id, "skew", scale="bench")
    delays = result.get_series("avg delay").y
    misses = result.get_series("sleep misses").y
    assert delays[-1] > delays[0]
    assert misses[0] == 0 and np.all(np.diff(misses) >= 0)


def test_bench_hetero_links(once):
    """Heterogeneous vs homogenized link ensembles."""
    result = once(run_experiment_by_id, "hetero", scale="bench")
    bound = result.get_series("analytic lower bound").y
    for label in ("heterogeneous trace", "homogenized twin"):
        series = result.get_series(label)
        assert np.all(series.y >= bound * 0.75)
        assert series.y[0] > series.y[-1]  # lower duty is slower


def test_bench_bursty_links(once):
    """Gilbert-Elliott bursts vs mean-matched static loss."""
    result = once(run_experiment_by_id, "abl-bursty", scale="bench")
    delays = result.get_series("avg delay").y
    assert delays[1] >= delays[0] * 0.9


def test_bench_slot_split(once):
    """Multi-slot wake budgets at fixed duty (normalization audit)."""
    result = once(run_experiment_by_id, "slot-split", scale="bench")
    delays = result.get_series("avg delay").y
    # Splitting cuts multi-packet delay (EXPERIMENTS.md), but at bench
    # scale by less than a quarter of the single-slot delay.
    assert np.all(delays >= delays[0] * 0.75)
