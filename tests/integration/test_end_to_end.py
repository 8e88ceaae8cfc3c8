"""End-to-end: full public-API journeys a downstream user would take."""

import numpy as np
import pytest

import repro
from repro import (
    FloodWorkload,
    MatrixFloodSimulator,
    RngStreams,
    Scenario,
    ScheduleTable,
    SimConfig,
    run_experiment,
    run_flood,
)
from repro.net import save_trace, load_trace, synthesize_greenorbs
from repro.net.trace import GreenOrbsConfig
from repro.protocols import make_protocol


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_star_imports_cover_main_objects(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_full_journey_trace_to_delay(self, tmp_path):
        # 1. synthesize a (small) trace, 2. persist it, 3. reload, 4. flood.
        config = GreenOrbsConfig(n_sensors=60, area_m=320.0, n_clusters=3)
        topo = synthesize_greenorbs(seed=5, config=config)
        path = tmp_path / "deployment.npz"
        save_trace(topo, path)
        topo2 = load_trace(path)

        summary = run_experiment(topo2, Scenario(
            protocol="dbao", duty_ratio=0.1, n_packets=3, seed=5,
        ))
        assert summary.completion_rate() == 1.0
        assert np.isfinite(summary.mean_delay())

    def test_manual_engine_invocation(self, small_rgg):
        # The lower-level API: explicit schedules, protocol, config.
        streams = RngStreams(21)
        schedules = ScheduleTable.random(
            small_rgg.n_nodes, 10, streams.get("schedule")
        )
        protocol = make_protocol("of", opp_quantile=0.7)
        result = run_flood(
            small_rgg, schedules, FloodWorkload(2), protocol,
            streams.get("channel"), SimConfig(track_events=True),
        )
        assert result.completed
        assert len(result.events) > 0
        # Energy ledger is internally consistent.
        result.ledger.validate()
        assert result.ledger.total_tx >= result.ledger.total_failures

    def test_compact_time_analysis_of_simulated_flood(self, line5):
        # Feed a simulated flood's busy slots into the compact timeline.
        from repro.core.compact_time import CompactTimeline
        from repro.protocols.opt import OptOracle, opt_radio_model
        from repro.sim.events import EventKind

        rng = np.random.default_rng(3)
        schedules = ScheduleTable.random(5, 5, rng)
        result = run_flood(
            line5, schedules, FloodWorkload(1), OptOracle(), rng,
            SimConfig(coverage_target=1.0, track_events=True,
                      radio=opt_radio_model(lossless=True)),
        )
        tl = CompactTimeline(result.events.busy_slots())
        # Chain of 4 hops: exactly 4 busy slots, gaps below one period.
        assert len(tl) == 4
        assert np.all(tl.gaps() < 5)

    def test_matrix_flood_public_entry(self):
        result = MatrixFloodSimulator(16).run(4)
        assert result.achieves_lemma3

    def test_registry_and_kwargs(self):
        of = make_protocol("of", opp_quantile=0.4)
        assert of.opp_quantile == 0.4
        assert sorted(repro.available_protocols()) == [
            "crosslayer", "dbao", "dca", "flash", "naive", "of", "opt",
        ]
