"""The Fig. 9 probe floods must run on the parent flood's channel.

Regression tests for a dropped-argument bug: the probe floods used to
ignore ``dynamics`` and ``true_schedules``, so the decomposition's "pure
transmission delay" probes measured a clean static channel even when
the parent flood ran on bursty links or skewed clocks.
"""

import numpy as np
import pytest

from repro.net.dynamics import GilbertElliott
from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.protocols.opt import OptOracle, opt_radio_model
from repro.sim.batch import run_flood_batch
from repro.sim.engine import SimConfig, run_flood


def _config(max_slots=300):
    return SimConfig(coverage_target=1.0, max_slots=max_slots,
                     radio=opt_radio_model())


def _blackout(topo):
    """Gilbert-Elliott state with every link permanently dead."""
    ge = GilbertElliott(
        topo,
        p_good_to_bad=1.0,
        p_bad_to_good=1e-12,
        bad_factor=0.0,
        rng=np.random.default_rng(7),
        start_stationary=False,
    )
    # Force all links BAD immediately; with bad_factor=0 and a
    # negligible recovery probability nothing can ever be delivered.
    ge.step()
    assert ge.bad_fraction() == 1.0
    return ge


def _probes(topo, schedules, n_packets, **kwargs):
    result = run_flood(
        topo, schedules, FloodWorkload(n_packets), OptOracle(),
        np.random.default_rng(0), _config(),
        measure_transmission_delay=True, **kwargs,
    )
    return result.metrics.transmission_delay


class TestProbeChannelThreading:
    def test_probes_without_dynamics_complete(self, line5):
        schedules = ScheduleTable(4, [0, 1, 2, 3, 0])
        assert (_probes(line5, schedules, 3) >= 0).all()

    def test_probes_see_parent_dynamics(self, line5):
        # A permanently-dead channel must also be dead for the probes;
        # the old code dropped `dynamics` and the probes completed.
        schedules = ScheduleTable(4, [0, 1, 2, 3, 0])
        probes = _probes(line5, schedules, 3, dynamics=_blackout(line5))
        assert (probes < 0).all()

    def test_probes_see_true_schedules(self, line5):
        # Believed and true schedules are phase-disjoint: every
        # transmission targets a dormant radio, so probes sharing the
        # parent's skew can never deliver. In a batch, each
        # replication's probes run on its own clocks: the unskewed
        # twin's probes complete.
        believed = ScheduleTable(4, [0, 0, 0, 0, 0])
        true = ScheduleTable(4, [0, 2, 2, 2, 2])
        skewed, clean = run_flood_batch(
            line5, [believed, believed], FloodWorkload(2), OptOracle(),
            [np.random.default_rng(0), np.random.default_rng(1)],
            _config(), true_schedules_list=[true, None],
            measure_transmission_delay=True,
        )
        assert (skewed.metrics.transmission_delay < 0).all()
        assert (clean.metrics.transmission_delay >= 0).all()

    def test_measure_transmission_delay_threads_channel(self, line5):
        # End to end through run_flood: the parent tolerates the skew
        # horizon-wise, and the embedded probes must inherit it too.
        believed = ScheduleTable(4, [0, 0, 0, 0, 0])
        true = ScheduleTable(4, [0, 2, 2, 2, 2])
        result = run_flood(
            line5, believed, FloodWorkload(2), OptOracle(),
            np.random.default_rng(0), _config(),
            measure_transmission_delay=True,
            true_schedules=true,
        )
        assert (result.metrics.transmission_delay < 0).all()
        assert result.metrics.sleep_misses > 0


class TestGilbertElliottFork:
    def test_fork_copies_state_and_is_independent(self, line5):
        ge = GilbertElliott(line5, rng=np.random.default_rng(3))
        clone = ge.fork(np.random.default_rng(4))
        assert clone.bad_fraction() == ge.bad_fraction()
        before = ge.bad_fraction()
        for _ in range(50):
            clone.step()
        assert ge.bad_fraction() == before  # parent state untouched

    def test_fork_consumes_no_draws_at_construction(self, line5):
        # The clone copies state instead of redrawing it, so the stream
        # handed to fork() is untouched until the first step() — forks
        # with equal seeds evolve identically.
        ge = GilbertElliott(line5, rng=np.random.default_rng(11))
        fork_rng = np.random.default_rng(12)
        ge.fork(fork_rng)
        assert fork_rng.random() == np.random.default_rng(12).random()

        c1 = ge.fork(np.random.default_rng(13))
        c2 = ge.fork(np.random.default_rng(13))
        for _ in range(20):
            c1.step()
            c2.step()
        assert np.array_equal(c1._bad, c2._bad)
