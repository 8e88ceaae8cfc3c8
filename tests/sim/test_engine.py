"""Tests for the flooding simulation engine."""

import numpy as np
import pytest

from repro.net.generators import line_topology, star_topology
from repro.net.packet import FloodWorkload
from repro.net.radio import RadioModel
from repro.net.schedule import ScheduleTable
from repro.protocols.base import FloodingProtocol
from repro.protocols.opt import OptOracle, opt_radio_model
from repro.sim.engine import SimConfig, run_flood
from repro.sim.events import EventKind


def lossless_config(**kwargs):
    kwargs.setdefault("radio", RadioModel(lossless=True))
    kwargs.setdefault("coverage_target", 1.0)
    return SimConfig(**kwargs)


def run_line(protocol=None, n_sensors=4, period=5, n_packets=1, seed=0,
             config=None, **flood_kwargs):
    topo = line_topology(n_sensors, prr=1.0)
    rng = np.random.default_rng(seed)
    schedules = ScheduleTable.random(topo.n_nodes, period, rng)
    workload = FloodWorkload(n_packets)
    protocol = protocol or OptOracle()
    config = config or lossless_config(radio=opt_radio_model(lossless=True))
    result = run_flood(
        topo, schedules, workload, protocol, np.random.default_rng(seed + 1),
        config, **flood_kwargs,
    )
    return result, topo, schedules


class TestBasicFlood:
    def test_single_packet_completes_on_line(self):
        result, *_ = run_line()
        assert result.completed
        assert result.metrics.delays.all_completed
        assert result.has.all()

    def test_delay_at_least_hop_count(self):
        # 4 hops minimum on the chain, one slot each.
        result, *_ = run_line()
        assert result.metrics.average_delay() >= 4

    def test_delay_bounded_by_hops_times_period(self):
        # Lossless, no contention: each hop waits at most one period.
        result, *_ = run_line(period=6)
        assert result.metrics.delays.makespan() <= 4 * 6 + 6

    def test_multi_packet_fcfs_completion(self):
        result, *_ = run_line(n_packets=3)
        assert result.completed
        delays = result.metrics.delays
        # First transmissions are serialized at the source in order.
        assert np.all(np.diff(delays.first_tx) > 0)

    def test_sleep_latency_respected(self):
        # Receivers only ever gain packets at their active slots.
        result, topo, schedules = run_line(n_packets=2)
        arrivals = result.arrival
        for p in range(2):
            for v in range(1, topo.n_nodes):
                t = int(arrivals[p, v])
                assert t >= 0
                assert schedules.is_active(v, t)

    def test_event_log(self):
        result, *_ = run_line(config=SimConfig(
            radio=opt_radio_model(lossless=True), coverage_target=1.0,
            track_events=True,
        ))
        log = result.events
        assert log is not None
        assert log.count(EventKind.INJECT) == 1
        assert log.count(EventKind.DELIVER) == 4
        assert log.count(EventKind.TX) >= 4
        assert log.count(EventKind.COMPLETE) == 1

    def test_events_disabled_by_default(self):
        result, *_ = run_line()
        assert result.events is None


class TestHorizon:
    def test_too_short_horizon_reports_incomplete(self):
        # A 2-slot horizon cannot finish a 4-hop flood.
        topo = line_topology(4, prr=1.0)
        rng = np.random.default_rng(0)
        schedules = ScheduleTable.random(5, 5, rng)
        result = run_flood(
            topo, schedules, FloodWorkload(1), OptOracle(), rng,
            SimConfig(coverage_target=1.0, max_slots=2,
                      radio=opt_radio_model(lossless=True)),
        )
        assert not result.completed
        assert result.metrics.delays.completed[0] == -1

    def test_coverage_target_excludes_unreachable(self):
        # With the default reachability-aware accounting, the island does
        # not block completion.
        import numpy as np
        from repro.net.topology import Topology

        mat = np.zeros((4, 4))
        mat[0, 1] = mat[1, 0] = 1.0
        mat[2, 3] = mat[3, 2] = 1.0
        topo = Topology(mat)
        rng = np.random.default_rng(0)
        schedules = ScheduleTable.random(4, 5, rng)
        result = run_flood(
            topo, schedules, FloodWorkload(1), OptOracle(), rng,
            SimConfig(coverage_target=1.0, max_slots=500,
                      radio=opt_radio_model(lossless=True)),
        )
        # Node 1 is the only reachable sensor -> flood completes on it.
        assert result.completed


class _RowProtocol(FloodingProtocol):
    """Test helper: per-replication ``rows(t, awake, has)`` proposals."""

    def prepare_reps(self, topo, schedules_list, workload, rngs):
        self.n_nodes = topo.n_nodes

    def propose_reps(self, t, rep_ids, awake_by_rep, view):
        out = [(k, s, r, p) for k in rep_ids.tolist()
               for s, r, p in self.rows(t, awake_by_rep[k], view.has_stack[k])]
        arr = np.asarray(out, dtype=np.int64).reshape(-1, 4)
        return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


class TestValidationOfProtocols:
    class BadTwoTx(_RowProtocol):
        name = "bad-two-tx"

        def rows(self, t, awake, has):
            if awake.size and has[0, 0]:
                r = int(awake[0])
                if r != 0:
                    return [(0, r, 0), (0, r, 0)]
            return []

    class BadUnheld(_RowProtocol):
        name = "bad-unheld"

        def rows(self, t, awake, has):
            # Sensor 1 "forwards" a packet it never received.
            for r in awake.tolist():
                if r not in (0, 1) and not has[0, 1]:
                    return [(1, r, 0)]
            return []

    class BadSleeping(_RowProtocol):
        name = "bad-sleeping"

        def rows(self, t, awake, has):
            if has[0, 0]:
                sleeping = [v for v in range(1, self.n_nodes)
                            if v not in set(awake.tolist())]
                if sleeping:
                    return [(0, sleeping[0], 0)]
            return []

    def _run_with(self, protocol):
        topo = star_topology(3, prr=1.0)
        rng = np.random.default_rng(0)
        schedules = ScheduleTable(period=4, offsets=[0, 1, 2, 3])
        return run_flood(
            topo, schedules, FloodWorkload(8), protocol, rng,
            SimConfig(max_slots=50),
        )

    def test_two_tx_rejected(self):
        with pytest.raises(ValueError, match="two transmissions"):
            self._run_with(self.BadTwoTx())

    def test_unheld_packet_rejected(self):
        with pytest.raises(ValueError, match="does not hold"):
            self._run_with(self.BadUnheld())

    def test_sleeping_receiver_rejected(self):
        with pytest.raises(ValueError, match="sleeping"):
            self._run_with(self.BadSleeping())


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        a, *_ = run_line(n_packets=3, seed=5)
        b, *_ = run_line(n_packets=3, seed=5)
        assert np.array_equal(a.arrival, b.arrival)
        assert a.metrics.tx_attempts == b.metrics.tx_attempts

    def test_different_seed_differs(self):
        a, *_ = run_line(n_packets=3, seed=5)
        b, *_ = run_line(n_packets=3, seed=6)
        assert not np.array_equal(a.arrival, b.arrival)


class TestTransmissionDelayProbes:
    def test_probe_shape_and_positivity(self):
        topo = line_topology(3, prr=1.0)
        rng = np.random.default_rng(1)
        schedules = ScheduleTable.random(4, 5, rng)
        result = run_flood(
            topo, schedules, FloodWorkload(10), OptOracle(), rng,
            SimConfig(radio=opt_radio_model(lossless=True)),
            measure_transmission_delay=True,
        )
        probes = result.metrics.transmission_delay
        assert probes.shape == (10,)
        assert np.all(probes > 0)
        # min(M, 8) = 8 probes, cycled over the 10 packet slots.
        assert np.array_equal(probes[:2], probes[8:10])


class TestConfigValidation:
    def test_bad_coverage(self):
        with pytest.raises(ValueError):
            SimConfig(coverage_target=0.0)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            SimConfig(max_slots=0)

    def test_schedule_size_mismatch(self):
        topo = line_topology(3, prr=1.0)
        rng = np.random.default_rng(0)
        schedules = ScheduleTable.random(7, 5, rng)
        with pytest.raises(ValueError, match="schedule table"):
            run_flood(topo, schedules, FloodWorkload(1), OptOracle(), rng)
