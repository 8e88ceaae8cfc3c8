"""Replication-width equivalence across every registered protocol.

The replication axis is a pure throughput device: a replication
extracted from a :func:`run_replication_chunk` batch must be
**bit-identical** to the same replication run alone (R = 1) through
:func:`run_replication` — same possession matrices, arrival slots,
counters, energy ledgers and completion flags — for every protocol,
with fast-forward on and off, on static and bursty links, with clock
skew, two wake slots per period and probe floods. The golden suite pins
both widths to frozen trajectories.
"""

import numpy as np
import pytest

from repro.net.generators import random_geometric_topology
from repro.protocols.base import available_protocols
from repro.scenario import Scenario
from repro.sim.runner import (
    run_experiments,
    run_replication,
    run_replication_chunk,
    run_replication_stack,
    scenario_stack_key,
)

N_REPS = 3

#: The full-scale Fig. 10/11 duty sweep (2% to 20% in 2% steps).
FULL_SCALE_DUTIES = (0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18,
                     0.20)

#: Every registered protocol runs batch-native over the replication axis.
BATCH_NATIVE = {"naive", "of", "dca", "flash", "crosslayer", "opt", "dbao"}


@pytest.fixture(scope="module")
def topo():
    return random_geometric_topology(
        30, area_m=180.0, rng=np.random.default_rng(7)
    )


def _scenario(protocol, fast_forward=True, link_model="static",
              duty_ratio=0.1, seed=2011, generation_interval=0, n_packets=3,
              max_slots=4000):
    return Scenario(
        protocol=protocol,
        duty_ratio=duty_ratio,
        n_packets=n_packets,
        seed=seed,
        n_replications=N_REPS,
        generation_interval=generation_interval,
        link_model=link_model,
        sim={"fast_forward": fast_forward, "max_slots": max_slots},
    )


def assert_results_identical(a, b):
    """Every field of two FloodResults, compared exactly."""
    ma, mb = a.metrics, b.metrics
    for f in ("tx_attempts", "tx_failures", "collisions", "duplicates",
              "overhears", "elapsed_slots", "sleep_misses"):
        assert getattr(ma, f) == getattr(mb, f), f
    np.testing.assert_array_equal(a.has, b.has)
    np.testing.assert_array_equal(a.arrival, b.arrival)
    np.testing.assert_array_equal(ma.delays.generated, mb.delays.generated)
    np.testing.assert_array_equal(ma.delays.first_tx, mb.delays.first_tx)
    np.testing.assert_array_equal(ma.delays.completed, mb.delays.completed)
    np.testing.assert_array_equal(
        ma.coverage_per_packet, mb.coverage_per_packet
    )
    np.testing.assert_array_equal(a.ledger.tx_attempts, b.ledger.tx_attempts)
    np.testing.assert_array_equal(a.ledger.tx_failures, b.ledger.tx_failures)
    np.testing.assert_array_equal(a.ledger.rx_successes, b.ledger.rx_successes)
    assert a.ledger.elapsed_slots == b.ledger.elapsed_slots
    assert a.completed == b.completed


class TestChunkEquivalence:
    """run_replication_chunk == [run_replication(rep) ...], bit for bit."""

    @pytest.mark.parametrize("protocol", available_protocols())
    @pytest.mark.parametrize("fast_forward", [True, False],
                             ids=["ff", "noff"])
    def test_every_protocol(self, topo, protocol, fast_forward):
        scenario = _scenario(protocol, fast_forward=fast_forward)
        serial = [run_replication(topo, scenario, rep)
                  for rep in range(N_REPS)]
        chunked = run_replication_chunk(topo, scenario, 0, N_REPS)
        assert len(chunked) == N_REPS
        for s, c in zip(serial, chunked):
            assert_results_identical(s, c)

    @pytest.mark.parametrize("protocol", sorted(BATCH_NATIVE))
    def test_batch_native_under_bursty_links(self, topo, protocol):
        scenario = _scenario(protocol, link_model="gilbert_elliott")
        serial = [run_replication(topo, scenario, rep)
                  for rep in range(N_REPS)]
        chunked = run_replication_chunk(topo, scenario, 0, N_REPS)
        for s, c in zip(serial, chunked):
            assert_results_identical(s, c)

    def test_partial_chunk_alignment(self, topo):
        # A chunk starting mid-sequence covers exactly its replications.
        scenario = _scenario("dbao")
        serial = [run_replication(topo, scenario, rep) for rep in (1, 2)]
        chunked = run_replication_chunk(topo, scenario, 1, 2)
        for s, c in zip(serial, chunked):
            assert_results_identical(s, c)

    @pytest.mark.parametrize("features", [
        {"wake_slots": 2},
        {"schedule_jitter": 0.3, "measure_transmission_delay": True},
        {"link_model": "gilbert_elliott", "measure_transmission_delay": True},
    ], ids=["2slot", "skew-probes", "bursty-probes"])
    def test_formerly_serial_features(self, topo, features):
        scenario = Scenario(
            protocol="dbao", duty_ratio=0.1, n_packets=3, seed=2011,
            n_replications=N_REPS, sim={"max_slots": 4000}, **features,
        )
        single = [run_replication(topo, scenario, rep)
                  for rep in range(N_REPS)]
        chunked = run_replication_chunk(topo, scenario, 0, N_REPS)
        for s, c in zip(single, chunked):
            assert_results_identical(s, c)
            if scenario.measure_transmission_delay:
                np.testing.assert_array_equal(
                    s.metrics.transmission_delay,
                    c.metrics.transmission_delay)

    def test_invalid_chunk_rejected(self, topo):
        with pytest.raises(ValueError):
            run_replication_chunk(topo, _scenario("dbao"), 0, 0)


class TestRunnerChunking:
    """reps_per_task is execution policy: summaries never change."""

    @pytest.mark.parametrize("reps_per_task", [None, 1, 2, N_REPS, 100])
    def test_run_experiments_any_width(self, topo, reps_per_task):
        scenario = _scenario("dbao")
        (base,) = run_experiments(topo, [scenario], reps_per_task=1)
        (summary,) = run_experiments(
            topo, [scenario], reps_per_task=reps_per_task
        )
        assert summary.n_runs == N_REPS
        for s, c in zip(base.results, summary.results):
            assert_results_identical(s, c)

    def test_mixed_grid_regroups_in_rep_order(self, topo):
        # Two stacks in one dispatch: results regroup per spec in
        # ascending replication order at any width.
        specs = [_scenario("dbao"), _scenario("of")]
        base = run_experiments(topo, specs, reps_per_task=1)
        chunked = run_experiments(topo, specs, reps_per_task=2)
        for b, c in zip(base, chunked):
            assert b.n_runs == c.n_runs == N_REPS
            for s, r in zip(b.results, c.results):
                assert_results_identical(s, r)

    def test_invalid_width_rejected(self, topo):
        with pytest.raises(ValueError):
            run_experiments(topo, [_scenario("dbao")], reps_per_task=0)

    def test_executor_meters_batch_widths(self, topo):
        from repro.exec import SerialExecutor

        executor = SerialExecutor()
        run_experiments(topo, [_scenario("dbao")], executor=executor,
                        reps_per_task=2)
        stats = executor.stats
        # 3 reps at width 2 -> one 2-wide batched task plus a single.
        assert stats.rep_batches == 1
        assert stats.batched_reps == 2
        assert stats.max_batch_width == 2
        assert "batched task" in str(stats)

    def test_auto_policy_chunks_batchable_only(self, topo):
        from repro.exec import SerialExecutor

        executor = SerialExecutor()
        run_experiments(topo, [_scenario("of")], executor=executor)
        assert executor.stats.rep_batches == 1  # one 3-wide chunk
        assert executor.stats.batched_reps == N_REPS
        assert executor.stats.tasks == 1

        # Every scenario batches: the event log rides along per
        # replication, and only width-1 tasks meter as serial.
        executor = SerialExecutor()
        tracked = Scenario(
            protocol="of", duty_ratio=0.1, n_packets=3, seed=2011,
            n_replications=N_REPS,
            sim={"track_events": True, "max_slots": 4000},
        )
        (summary,) = run_experiments(topo, [tracked], executor=executor)
        assert executor.stats.rep_batches == 1
        assert executor.stats.serial_reps == 0
        assert executor.stats.tasks == 1
        assert all(r.events is not None for r in summary.results)
        executor = SerialExecutor()
        run_experiments(topo, [tracked], executor=executor, reps_per_task=1)
        assert executor.stats.serial_reps == N_REPS
        assert executor.stats.tasks == N_REPS
        assert "batch coverage" in str(executor.stats)


class TestCrossCellStacking:
    """Cross-cell stacks: cells extract bit-identical to standalone runs."""

    def test_stack_key_gates(self):
        # Duty ratio, seed and generation interval are per-replication
        # axes: they share a key. Protocol or engine config changes
        # split the key.
        base = _scenario("of")
        assert scenario_stack_key(base) is not None
        assert scenario_stack_key(_scenario("of", duty_ratio=0.05,
                                            seed=7, generation_interval=4)) \
            == scenario_stack_key(base)
        assert scenario_stack_key(_scenario("dbao")) \
            != scenario_stack_key(base)
        assert scenario_stack_key(_scenario("of", fast_forward=False)) \
            != scenario_stack_key(base)
        tracked = Scenario(protocol="of", duty_ratio=0.1, n_packets=3,
                           sim={"track_events": True})
        assert scenario_stack_key(tracked) != scenario_stack_key(base)

    def test_stack_matches_standalone_chunks(self, topo):
        # One engine invocation over a whole duty column (plus a seed
        # and a workload variant): every extracted cell must equal its
        # standalone chunk bit for bit.
        cells = [
            (_scenario("of", duty_ratio=0.05), 0, N_REPS),
            (_scenario("of", duty_ratio=0.1, seed=7), 1, 2),
            (_scenario("of", duty_ratio=0.2, generation_interval=4),
             0, N_REPS),
        ]
        stacked = run_replication_stack(topo, cells)
        assert [len(r) for r in stacked] == [c[2] for c in cells]
        for (spec, start, count), cell_results in zip(cells, stacked):
            standalone = run_replication_chunk(topo, spec, start, count)
            for s, c in zip(standalone, cell_results):
                assert_results_identical(s, c)

    def test_run_experiments_stacks_column(self, topo):
        from repro.exec import SerialExecutor

        specs = [_scenario("of", duty_ratio=d) for d in (0.05, 0.1, 0.2)]
        base = run_experiments(topo, specs, reps_per_task=1)
        executor = SerialExecutor()
        column = run_experiments(topo, specs, executor=executor)
        # The whole column rides in ONE stacked engine invocation.
        assert executor.stats.tasks == 1
        assert executor.stats.batched_reps == 3 * N_REPS
        for b, c in zip(base, column):
            assert b.n_runs == c.n_runs == N_REPS
            for s, r in zip(b.results, c.results):
                assert_results_identical(s, r)

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_uncached_phase_path(self, topo, protocol):
        # Periods 31, 32 and 33: their least common multiple has 32,736
        # phases, while the stacked run's phase table holds one period
        # per replication, as each standalone cell's does. Both paths
        # must agree bit for bit.
        cells = [(_scenario(protocol, duty_ratio=1 / period), 0, 2)
                 for period in (31, 32, 33)]
        assert [spec.period for spec, _, _ in cells] == [31, 32, 33]
        stacked = run_replication_stack(topo, cells)
        for (spec, start, count), cell_results in zip(cells, stacked):
            standalone = run_replication_chunk(topo, spec, start, count)
            for s, c in zip(standalone, cell_results):
                assert_results_identical(s, c)

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_full_scale_duty_column(self, topo, protocol):
        # The paper's Fig. 10/11 duty ratios, 2% to 20% in 2% steps: ten
        # periods whose least common multiple is 71,400. One stack
        # carries the whole column, and each replication must extract
        # bit-identical to its R = 1 run.
        cells = [(_scenario(protocol, duty_ratio=d, max_slots=1000), 0, 1)
                 for d in FULL_SCALE_DUTIES]
        assert [spec.period for spec, _, _ in cells] \
            == [50, 25, 17, 12, 10, 8, 7, 6, 6, 5]
        stacked = run_replication_stack(topo, cells)
        for (spec, _, _), (cell,) in zip(cells, stacked):
            assert_results_identical(run_replication(topo, spec, 0), cell)

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_wide_packet_sets(self, topo, protocol):
        # M = 70 packets span two 64-bit words. A mixed-duty stack must
        # extract every replication bit-identical to its R = 1 run.
        cells = [(_scenario(protocol, duty_ratio=d, n_packets=70,
                            max_slots=1000), 0, 2) for d in (0.1, 0.2)]
        stacked = run_replication_stack(topo, cells)
        for (spec, start, count), cell_results in zip(cells, stacked):
            assert len(cell_results) == count
            for rep, c in zip(range(start, start + count), cell_results):
                assert_results_identical(run_replication(topo, spec, rep), c)
