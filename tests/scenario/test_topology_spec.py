"""Tests for declarative topology sources and the bounded build cache."""

import numpy as np
import pytest

from repro.net.dynamics import GilbertElliott
from repro.net.generators import line_topology
from repro.net.topology import homogenized
from repro.scenario import (
    ScenarioError,
    TopologySpec,
    build_topology,
    topology_cache_info,
)


class TestValidation:
    def test_unknown_kind_suggests(self):
        with pytest.raises(ScenarioError, match="greenorbs"):
            TopologySpec(kind="greenorb")

    def test_unknown_param_suggests(self):
        with pytest.raises(ScenarioError, match="n_sensors"):
            TopologySpec(kind="line", params={"n_sensor": 5})

    def test_params_checked_per_kind(self):
        TopologySpec(kind="grid", params={"rows": 3, "cols": 3})
        with pytest.raises(ScenarioError, match="topology parameter"):
            TopologySpec(kind="grid", params={"n_sensors": 9})

    def test_unknown_transform_rejected(self):
        with pytest.raises(ScenarioError, match="homogenize"):
            TopologySpec(transform="homogenise")

    def test_unknown_dict_field_rejected(self):
        with pytest.raises(ScenarioError, match="topology field"):
            TopologySpec.from_dict({"kind": "line", "sede": 1})


class TestBuild:
    def test_round_trip_is_identity(self):
        spec = TopologySpec(kind="star", seed=3,
                            params={"n_sensors": 6, "prr": 0.7})
        assert TopologySpec.from_dict(spec.to_dict()) == spec

    def test_line_build_matches_generator(self):
        spec = TopologySpec(kind="line", params={"n_sensors": 6, "prr": 0.8})
        direct = line_topology(6, prr=0.8)
        assert spec.build().fingerprint() == direct.fingerprint()

    def test_greenorbs_build_matches_get_trace(self):
        from repro.experiments._common import get_trace, trace_spec

        assert trace_spec("smoke").build().fingerprint() \
            == get_trace("smoke").fingerprint()

    def test_seed_changes_random_builds(self):
        a = TopologySpec(kind="random_geometric", seed=1,
                         params={"n_nodes": 20})
        b = TopologySpec(kind="random_geometric", seed=2,
                         params={"n_nodes": 20})
        assert a.build().fingerprint() != b.build().fingerprint()

    def test_homogenize_transform_flattens_prr(self):
        spec = TopologySpec(kind="line", params={"n_sensors": 6, "prr": 0.8})
        topo = spec.build()
        twin = TopologySpec(kind="line", params={"n_sensors": 6, "prr": 0.8},
                            transform="homogenize").build()
        assert twin.fingerprint() == homogenized(topo).fingerprint()
        assert twin.fingerprint() != topo.fingerprint()
        linked = twin.prr[twin.adjacency]
        assert np.allclose(linked, linked[0])

    def test_ge_mean_matched_transform_scales_to_bursty_mean(self):
        # The static twin sees the long-run mean PRR of default
        # Gilbert-Elliott links on the original substrate.
        params = {"n_sensors": 6, "prr": 0.8}
        topo = TopologySpec(kind="line", params=params).build()
        twin = TopologySpec(kind="line", params=params,
                            transform="ge_mean_matched").build()
        scale = GilbertElliott(topo).long_run_prr_scale()
        assert scale == pytest.approx(0.85)
        assert np.array_equal(twin.prr, np.clip(topo.prr * scale, 0.0, 1.0))
        assert twin.neighbor_threshold == topo.neighbor_threshold * scale
        assert np.array_equal(twin.adjacency, topo.adjacency)


class TestCache:
    def test_equal_specs_share_one_object(self):
        spec = TopologySpec(kind="line", params={"n_sensors": 4})
        assert build_topology(spec) is build_topology(
            TopologySpec(kind="line", params={"n_sensors": 4})
        )

    def test_cache_is_bounded(self):
        for n in range(3, 20):
            build_topology(TopologySpec(kind="line",
                                        params={"n_sensors": n}))
        entries, maxsize = topology_cache_info()
        assert entries <= maxsize

    def test_get_trace_identity_preserved(self):
        from repro.experiments._common import get_trace

        assert get_trace("smoke") is get_trace("smoke")


class TestGeometricSpec:
    """The PHY topology source through the declarative spec layer."""

    def test_build_matches_generator(self):
        from repro.net.generators import geometric_topology

        spec = TopologySpec(kind="geometric", seed=11,
                            params={"n_nodes": 25, "area_m": 150.0})
        direct = geometric_topology(
            25, 150.0, rng=np.random.default_rng(11))
        assert spec.build().fingerprint() == direct.fingerprint()

    def test_radio_params_split_from_placement_params(self):
        # RadioParameters fields ride in the same params dict and reach
        # the PHY model; a hotter radio closes more links.
        base = {"n_nodes": 25, "area_m": 200.0, "shadowing_sigma_db": 0.0}
        weak = TopologySpec(kind="geometric", seed=4,
                            params={**base, "tx_power_dbm": -10.0}).build()
        hot = TopologySpec(kind="geometric", seed=4,
                           params={**base, "tx_power_dbm": 5.0}).build()
        assert (hot.prr > 0).sum() > (weak.prr > 0).sum()

    def test_unknown_param_suggests(self):
        with pytest.raises(ScenarioError, match="path_loss_exponent"):
            TopologySpec(kind="geometric",
                         params={"path_loss_exponen": 3.0})

    def test_grid_placement_via_spec(self):
        topo = TopologySpec(kind="geometric", seed=0,
                            params={"n_nodes": 16, "area_m": 90.0,
                                    "placement": "grid"}).build()
        assert topo.n_nodes == 16
        assert topo.reachable_from_source().all()

    def test_seed_changes_uniform_builds(self):
        a = TopologySpec(kind="geometric", seed=1,
                         params={"n_nodes": 20, "area_m": 150.0})
        b = TopologySpec(kind="geometric", seed=2,
                         params={"n_nodes": 20, "area_m": 150.0})
        assert a.build().fingerprint() != b.build().fingerprint()
