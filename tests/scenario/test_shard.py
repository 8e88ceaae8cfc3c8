"""Sharding a ScenarioGrid: the determinism contract and the stamp."""

import json
import re

import pytest

from repro.scenario import Scenario, ScenarioError, ScenarioGrid, TopologySpec

BASE = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2, seed=7)


def grid(**kwargs):
    defaults = dict(
        base=BASE,
        axes={"protocol": ("opt", "dbao", "of"),
              "duty_ratio": (0.05, 0.1, 0.2)},
        name="shard-demo",
    )
    defaults.update(kwargs)
    return ScenarioGrid(**defaults)


class TestPartition:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 9, 10, 17])
    def test_shards_partition_the_grid(self, k):
        g = grid()
        shards = g.shards(k)
        seen = [idx for s in shards for idx in s.cell_indices()]
        assert sorted(seen) == list(range(len(g)))
        # Balanced: sizes differ by at most one.
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_shard_cells_keep_expansion_order(self):
        g = grid()
        full = g.scenarios()
        for s in g.shards(3):
            idx = s.cell_indices()
            assert list(idx) == sorted(idx)
            assert s.scenarios() == [full[i] for i in idx]
            assert s.combos() == [g.combos()[i] for i in idx]

    def test_partition_is_a_function_of_content_not_axis_order(self):
        # Same cells declared through reordered axis values: every cell
        # fingerprint is unchanged, so the *set* of cells per shard is too.
        a = grid()
        b = grid(axes={"protocol": ("of", "dbao", "opt"),
                       "duty_ratio": (0.2, 0.1, 0.05)})
        fps_a = [{s.fingerprint() for s in sh.scenarios()}
                 for sh in a.shards(4)]
        fps_b = [{s.fingerprint() for s in sh.scenarios()}
                 for sh in b.shards(4)]
        assert fps_a == fps_b

    def test_more_shards_than_cells_is_legal_and_empty(self):
        g = grid(axes={"protocol": ("opt", "dbao")})
        shards = g.shards(5)
        assert sum(len(s) for s in shards) == 2
        assert any(len(s) == 0 for s in shards)

    def test_unsharded_grid_is_its_own_single_shard(self):
        g = grid()
        assert g.cell_indices() == tuple(range(len(g)))
        only = g.shard(0, 1)
        assert only.scenarios() == g.scenarios()


class TestValidation:
    def test_rejects_out_of_range_index(self):
        with pytest.raises(ScenarioError, match="0-based"):
            grid().shard(2, 2)
        with pytest.raises(ScenarioError, match="0-based"):
            grid().shard(-1, 2)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ScenarioError, match="count"):
            grid().shard(0, 0)
        for k in (0, -2):
            with pytest.raises(ScenarioError, match="count must be >= 1"):
                grid().shards(k)

    def test_refuses_resharding_a_shard(self):
        s = grid().shard(0, 2)
        with pytest.raises(ScenarioError, match="already shard 0/2"):
            s.shard(0, 2)


class TestFingerprints:
    def test_grid_fingerprint_is_invariant_under_sharding(self):
        g = grid()
        assert g.grid_fingerprint() == g.fingerprint()
        for s in g.shards(3):
            assert s.grid_fingerprint() == g.grid_fingerprint()

    def test_shard_fingerprints_are_distinct(self):
        fps = {s.fingerprint() for s in grid().shards(3)}
        assert len(fps) == 3
        assert grid().fingerprint() not in fps


class TestSerialization:
    def test_shard_round_trips_through_json(self):
        s = grid().shard(1, 3)
        back = ScenarioGrid.from_dict(json.loads(s.to_json()))
        assert back.sharding == (1, 3)
        assert back.scenarios() == s.scenarios()
        assert back.grid_fingerprint() == s.grid_fingerprint()

    def test_shard_stamp_carries_parent_fingerprint(self):
        g = grid()
        data = g.shard(0, 2).to_dict()
        assert data["shard"] == {"index": 0, "count": 2,
                                 "grid": g.grid_fingerprint()}

    def test_unsharded_grid_has_no_shard_field(self):
        assert "shard" not in grid().to_dict()

    def test_tampered_stamp_is_rejected(self):
        data = grid().shard(0, 2).to_dict()
        data["shard"]["grid"] = "0" * 64
        with pytest.raises(ScenarioError, match="stamped for grid"):
            ScenarioGrid.from_dict(data)

    def test_edited_axes_invalidate_the_stamp(self):
        # A shard file whose grid definition was edited after sharding
        # no longer expands to the stamped grid -> load must refuse.
        data = grid().shard(0, 2).to_dict()
        data["axes"]["duty_ratio"] = [0.05, 0.1]
        with pytest.raises(ScenarioError, match="stamped for grid"):
            ScenarioGrid.from_dict(data)

    def test_shard_needs_index_and_count(self):
        data = grid().to_dict()
        data["shard"] = {"index": 0}
        with pytest.raises(ScenarioError, match="'index' and 'count'"):
            ScenarioGrid.from_dict(data)

    @pytest.mark.parametrize("index", [0.9, 1.5, "1", True, "x"])
    def test_shard_index_must_be_an_integer(self, index):
        # int() once truncated these: a stamp saying 0.9 ran shard 0.
        data = grid().shard(0, 2).to_dict()
        data["shard"]["index"] = index
        with pytest.raises(ScenarioError, match=re.escape(
                f"shard index must be an integer, got {index!r}")):
            ScenarioGrid.from_dict(data)

    def test_unknown_shard_field_is_rejected(self):
        data = grid().shard(0, 2).to_dict()
        data["shard"]["extra"] = 1
        with pytest.raises(ScenarioError, match="extra"):
            ScenarioGrid.from_dict(data)


class TestRegistry:
    def test_scenario_grid_accepts_shard_kwarg(self):
        from repro.experiments.registry import scenario_grid

        full = scenario_grid("fig9", scale="smoke")
        s0 = scenario_grid("fig9", scale="smoke", shard=(0, 2))
        s1 = scenario_grid("fig9", scale="smoke", shard=(1, 2))
        assert s0.sharding == (0, 2)
        assert s0.grid_fingerprint() == full.fingerprint()
        got = sorted(s.fingerprint()
                     for s in s0.scenarios() + s1.scenarios())
        assert got == sorted(s.fingerprint() for s in full.scenarios())

    def test_topology_axis_grids_shard_cleanly(self):
        # Axis values that are TopologySpecs fingerprint deterministically.
        g = ScenarioGrid(
            Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2, seed=7),
            axes={"topology": (
                TopologySpec(kind="line", params={"n_sensors": 6}),
                TopologySpec(kind="line", params={"n_sensors": 8}),
            )},
            name="topo-axis",
        )
        shards = g.shards(2)
        assert sorted(len(s) for s in shards) == [1, 1]
        back = ScenarioGrid.from_dict(json.loads(shards[0].to_json()))
        assert back.scenarios() == shards[0].scenarios()
