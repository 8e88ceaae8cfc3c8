"""Tests for Opportunistic Flooding (OF)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.generators import line_topology
from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.protocols.oppflood import OpportunisticFlooding, _early
from repro.scenario import Scenario
from repro.sim.engine import SimConfig, run_flood
from repro.sim.rng import spawn_generator
from repro.sim.runner import run_experiment


def flood(topo, n_packets=2, period=5, seed=0, **proto_kwargs):
    rng = np.random.default_rng(seed)
    schedules = ScheduleTable.random(topo.n_nodes, period, rng)
    return run_flood(
        topo, schedules, FloodWorkload(n_packets),
        OpportunisticFlooding(**proto_kwargs),
        np.random.default_rng(seed + 1), SimConfig(coverage_target=1.0),
    )


class TestOfBehavior:
    def test_completes_chain(self, line5):
        assert flood(line5).completed

    def test_completes_lossy_network(self, small_rgg):
        assert flood(small_rgg, seed=3).completed

    def test_tree_edges_always_forwarded(self, line5):
        # On a chain every edge is a tree edge: OF behaves like tree
        # flooding and must deliver hop by hop.
        rng = np.random.default_rng(1)
        schedules = ScheduleTable.random(5, 4, rng)
        result = run_flood(
            line5, schedules, FloodWorkload(1), OpportunisticFlooding(),
            np.random.default_rng(2),
            SimConfig(coverage_target=1.0, track_events=True),
        )
        senders = [e.sender for e in result.events if e.kind.value == "deliver"]
        assert senders == [0, 1, 2, 3]

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            OpportunisticFlooding(opp_quantile=0.0)
        with pytest.raises(ValueError):
            OpportunisticFlooding(opp_quantile=1.0)

    def test_smaller_quantile_fewer_transmissions(self, small_rgg):
        tight = run_experiment(small_rgg, Scenario(
            protocol="of", duty_ratio=0.1, n_packets=4, seed=5,
            protocol_kwargs={"opp_quantile": 0.1},
        ))
        loose = run_experiment(small_rgg, Scenario(
            protocol="of", duty_ratio=0.1, n_packets=4, seed=5,
            protocol_kwargs={"opp_quantile": 0.95},
        ))
        assert tight.mean_tx_attempts() <= loose.mean_tx_attempts()

    def test_init_kwargs_recorded(self):
        assert OpportunisticFlooding(opp_quantile=0.3).init_kwargs == {
            "opp_quantile": 0.3
        }

    def test_final_coverage_complete(self, small_rgg):
        result = flood(small_rgg, n_packets=3, seed=9)
        reach = small_rgg.reachable_from_source()
        assert result.has[:, reach].all()


#: Slots far enough apart to exercise int64 -> float64 rounding, close
#: enough that no difference overflows.
_SLOTS = st.integers(min_value=0, max_value=2**62)
#: Gate statistics: any finite double, both infinities and NaN.
_STATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([np.inf, -np.inf, np.nan]),
)


class TestLatenessBound:
    """The latest-arrival bound never drops a row the exact gate keeps."""

    @staticmethod
    def _passes(slot, arrival, own, hop, quant):
        # The operand types the proposal and the frontier use: an int64
        # slot difference against float64 statistics.
        lag = np.asarray([slot], np.int64) - np.asarray([arrival], np.int64)
        with np.errstate(invalid="ignore", over="ignore"):
            return bool(_early(lag, np.asarray([own]), np.asarray([hop]),
                               np.asarray([quant]))[0])

    @settings(max_examples=500, deadline=None)
    @given(slots=st.lists(_SLOTS, min_size=3, max_size=3),
           arrivals=st.lists(_SLOTS, min_size=2, max_size=2),
           own=_STATS, hop=_STATS, quant=_STATS)
    def test_gate_pass_implies_bound_pass(self, slots, arrivals, own, hop,
                                          quant):
        t, w, w_later = sorted(slots)
        a, latest = sorted(arrivals)
        # The proposal's prefilter: the head's arrival a <= latest, at
        # the one slot t.
        if self._passes(t, a, own, hop, quant):
            assert self._passes(t, latest, own, hop, quant)
        # The frontier: any wake w' >= the earliest wake w.
        if self._passes(w_later, a, own, hop, quant):
            assert self._passes(w, latest, own, hop, quant)


class TestBackoff:
    """OF's back-off draws a permutation only for two or more contenders.

    A lone contender keeps its place without touching its replication's
    channel stream, which is bit-identical to drawing ``permutation(1)``
    only because NumPy draws nothing for it; a NumPy release that starts
    drawing there would shift every later draw of OF's trajectories.
    """

    @pytest.mark.parametrize("name", ["channel/0", "channel/7", "schedule/3"])
    def test_permutation_of_one_draws_nothing(self, name):
        rng = spawn_generator(2011, name)
        rng.random(5)  # some state well past the seed
        before = rng.bit_generator.state
        assert rng.permutation(1).tolist() == [0]
        assert rng.bit_generator.state == before
