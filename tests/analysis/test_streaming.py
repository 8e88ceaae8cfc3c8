"""Streaming accumulators vs the materialized path.

The contract under test (DESIGN.md "Sharded execution"): streaming
moments/CIs match ``analysis.stats`` to floating-point round-off
(identical in exact arithmetic), quantile sketches are exact below
capacity and within their documented rank error above it, and merging
per-shard accumulators equals accumulating the unsharded stream.
"""

import math

import numpy as np
import pytest

from repro.analysis.stats import mean_ci
from repro.analysis.streaming import (
    QuantileSketch,
    RunAccumulator,
    StreamingMoments,
    VectorNanMean,
    accumulate,
)

REL = 1e-12  # round-off envelope for "exact in exact arithmetic"


def close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


@pytest.fixture
def rng():
    return np.random.default_rng(2011)


class TestStreamingMoments:
    def test_matches_numpy_mean_and_variance(self, rng):
        xs = rng.normal(50.0, 12.0, size=997)
        m = StreamingMoments()
        for x in xs:
            m.add(x)
        assert m.n == xs.size
        assert close(m.mean, float(xs.mean()))
        assert close(m.variance(), float(xs.var(ddof=1)))

    def test_ci_matches_mean_ci(self, rng):
        for n in (2, 3, 17, 400):
            xs = rng.exponential(30.0, size=n)
            m = StreamingMoments()
            m.add_many(xs)
            want = mean_ci(xs)
            got = m.ci()
            assert close(got.mean, want.mean)
            assert close(got.lower, want.lower)
            assert close(got.upper, want.upper)
            assert got.n == want.n and got.confidence == want.confidence

    def test_skips_non_finite_like_clean(self, rng):
        xs = [1.0, float("nan"), 2.0, float("inf"), 3.0, float("-inf")]
        m = StreamingMoments()
        for x in xs:
            m.add(x)
        assert m.n == 3 and close(m.mean, 2.0)
        want = mean_ci(xs)  # _clean drops the same samples
        assert close(m.ci().mean, want.mean)

    def test_empty_ci_raises_like_mean_ci(self):
        with pytest.raises(ValueError, match="no finite samples"):
            StreamingMoments().ci()
        with pytest.raises(ValueError, match="no finite samples"):
            mean_ci([float("nan")])

    def test_single_sample_degenerates_to_point(self):
        m = StreamingMoments()
        m.add(42.0)
        ci = m.ci()
        assert ci.lower == ci.mean == ci.upper == 42.0
        assert math.isnan(m.variance())

    def test_merge_equals_pooled_stream(self, rng):
        xs = rng.normal(0.0, 5.0, size=1000)
        whole = StreamingMoments()
        whole.add_many(xs)
        for cut in (1, 137, 500, 999):
            a, b = StreamingMoments(), StreamingMoments()
            a.add_many(xs[:cut])
            b.add_many(xs[cut:])
            a.merge(b)
            assert a.n == whole.n
            assert close(a.mean, whole.mean)
            assert close(a.variance(), whole.variance())

    def test_merge_with_empty_is_identity(self, rng):
        m = StreamingMoments()
        m.add_many(rng.normal(size=10))
        before = (m.n, m.mean, m.variance())
        m.merge(StreamingMoments())
        assert (m.n, m.mean, m.variance()) == before
        fresh = StreamingMoments()
        fresh.merge(m)
        assert fresh.n == m.n and close(fresh.mean, m.mean)

    def test_add_many_equals_sequential_adds(self, rng):
        xs = rng.uniform(-10, 10, size=321)
        a, b = StreamingMoments(), StreamingMoments()
        a.add_many(xs)
        for x in xs:
            b.add(x)
        assert a.n == b.n
        assert close(a.mean, b.mean) and close(a.variance(), b.variance())


class TestVectorNanMean:
    def test_matches_nanmean_stacking(self, rng):
        curves = rng.normal(100.0, 20.0, size=(7, 12))
        curves[rng.random(curves.shape) < 0.3] = np.nan
        curves[:, 5] = np.nan  # one packet never delivered anywhere
        v = VectorNanMean()
        for c in curves:
            v.add(c)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN column
            want = np.nanmean(curves, axis=0)
        got = v.result()
        assert np.allclose(got, want, rtol=REL, equal_nan=True)

    def test_merge_equals_pooled(self, rng):
        curves = rng.normal(size=(9, 6))
        curves[rng.random(curves.shape) < 0.4] = np.nan
        whole, a, b = VectorNanMean(), VectorNanMean(), VectorNanMean()
        for c in curves:
            whole.add(c)
        for c in curves[:4]:
            a.add(c)
        for c in curves[4:]:
            b.add(c)
        a.merge(b)
        assert np.allclose(a.result(), whole.result(), rtol=REL,
                           equal_nan=True)

    def test_empty_result_and_length_mismatch(self):
        assert VectorNanMean().result().size == 0
        v = VectorNanMean()
        v.add([1.0, 2.0])
        with pytest.raises(ValueError, match="length"):
            v.add([1.0, 2.0, 3.0])


class TestQuantileSketch:
    def test_exact_below_capacity(self, rng):
        xs = rng.exponential(40.0, size=500)
        s = QuantileSketch(capacity=512)
        s.add_many(xs)
        assert s.is_exact
        for q in (0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert close(s.quantile(q), float(np.quantile(xs, q)))

    @pytest.mark.parametrize("dist", ["normal", "exponential", "uniform"])
    def test_rank_error_within_documented_bound(self, rng, dist):
        xs = getattr(rng, dist)(size=100_000)
        s = QuantileSketch(capacity=512)
        s.add_many(xs)
        assert not s.is_exact  # the bound is doing real work here
        xs_sorted = np.sort(xs)
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            est = s.quantile(q)
            rank = np.searchsorted(xs_sorted, est) / xs.size
            assert abs(rank - q) <= s.rank_error, (dist, q, rank)

    def test_merge_covers_union_stream(self, rng):
        xs = rng.normal(size=40_000)
        shards = [QuantileSketch(capacity=512) for _ in range(4)]
        for i, shard in enumerate(shards):
            shard.add_many(xs[i::4])
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        assert merged.n == xs.size
        xs_sorted = np.sort(xs)
        for q in (0.1, 0.5, 0.9):
            rank = np.searchsorted(xs_sorted, merged.quantile(q)) / xs.size
            assert abs(rank - q) <= merged.rank_error

    def test_deterministic(self, rng):
        xs = rng.normal(size=10_000)
        a, b = QuantileSketch(), QuantileSketch()
        a.add_many(xs)
        b.add_many(xs)
        assert a.quantile(0.5) == b.quantile(0.5)
        assert a._levels == b._levels

    def test_skips_non_finite(self):
        s = QuantileSketch()
        s.add(float("nan"))
        s.add(float("inf"))
        s.add(1.0)
        assert s.n == 1 and s.quantile(0.5) == 1.0

    def test_empty_is_nan_and_bad_q_raises(self):
        s = QuantileSketch()
        assert math.isnan(s.quantile(0.5))
        with pytest.raises(ValueError, match="quantile"):
            s.quantile(1.5)


@pytest.fixture(scope="module")
def summary():
    """One multi-replication run (non-degenerate CI, real metrics)."""
    from repro.net.generators import line_topology
    from repro.scenario import Scenario
    from repro.sim.runner import run_experiment

    topo = line_topology(8, prr=0.85)
    spec = Scenario(protocol="dbao", duty_ratio=0.2, n_packets=3,
                    seed=11, n_replications=6)
    return run_experiment(topo, spec)


class TestRunAccumulator:
    def test_matches_run_summary(self, summary):
        acc = RunAccumulator()
        acc.add_summary(summary)
        assert acc.n_runs == summary.n_runs
        assert close(acc.mean_delay(), summary.mean_delay())
        assert close(acc.completion_rate(), summary.completion_rate())
        assert close(acc.mean_failures(), summary.mean_failures())
        assert close(acc.mean_collisions(), summary.mean_collisions())
        assert close(acc.mean_tx_attempts(), summary.mean_tx_attempts())
        want_ci = summary.delay_ci()
        got_ci = acc.delay_ci()
        assert close(got_ci.mean, want_ci.mean)
        assert close(got_ci.lower, want_ci.lower)
        assert close(got_ci.upper, want_ci.upper)
        assert got_ci.n == want_ci.n
        assert np.allclose(acc.per_packet_delay(),
                           summary.per_packet_delay(), rtol=REL,
                           equal_nan=True)

    def test_quantiles_exact_at_cell_scale(self, summary):
        acc = RunAccumulator()
        acc.add_summary(summary)
        assert acc.packet_delays.is_exact  # 18 delays << capacity
        delays = np.concatenate([
            r.metrics.delays.total_delay().astype(np.float64)
            for r in summary.results
        ])
        delays = delays[delays >= 0]
        assert close(acc.delay_quantile(0.5), float(np.quantile(delays, 0.5)))

    def test_sharded_merge_equals_whole(self, summary):
        whole = RunAccumulator()
        whole.add_summary(summary)
        a, b = RunAccumulator(), RunAccumulator()
        for r in summary.results[:2]:
            a.add(r)
        for r in summary.results[2:]:
            b.add(r)
        a.merge(b)
        assert a.n_runs == whole.n_runs
        assert close(a.mean_delay(), whole.mean_delay())
        assert close(a.delay_ci().upper, whole.delay_ci().upper)
        assert np.allclose(a.per_packet_delay(), whole.per_packet_delay(),
                           rtol=REL, equal_nan=True)
        assert a.delay_quantile(0.5) == whole.delay_quantile(0.5)

    def test_accumulate_helper(self, summary):
        acc = accumulate([summary, summary])
        assert acc.n_runs == 2 * summary.n_runs


class TestParityOnCommittedExampleGrids:
    """Welford mean/CI match ``analysis.stats`` on every example grid."""

    @pytest.fixture(scope="class")
    def example_grids(self):
        from pathlib import Path

        from repro.scenario import load_scenario_file
        from repro.sim.runner import run_scenarios

        root = Path(__file__).resolve().parents[2] / "examples"
        out = {}
        for path in sorted(root.glob("*.json")):
            if path.name.endswith(".expected.json"):
                continue
            grid = load_scenario_file(path)
            out[path.name] = (grid, run_scenarios(grid.scenarios()))
        return out

    def test_every_committed_grid(self, example_grids):
        assert example_grids  # the glob found the example files
        for name, (grid, summaries) in example_grids.items():
            for summary in summaries:
                acc = RunAccumulator()
                acc.add_summary(summary)
                assert close(acc.mean_delay(), summary.mean_delay()), name
                assert close(acc.completion_rate(),
                             summary.completion_rate()), name
                assert close(acc.mean_failures(),
                             summary.mean_failures()), name
                assert close(acc.mean_tx_attempts(),
                             summary.mean_tx_attempts()), name
                want = summary.delay_ci()
                got = acc.delay_ci()
                assert close(got.mean, want.mean), name
                assert close(got.lower, want.lower), name
                assert close(got.upper, want.upper), name
                assert np.allclose(acc.per_packet_delay(),
                                   summary.per_packet_delay(),
                                   rtol=REL, equal_nan=True), name
