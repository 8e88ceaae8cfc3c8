"""Tests for mergeable shard stores: verify / merge / gc / manifests."""

import dataclasses
import json

import numpy as np
import pytest

from repro.exec import (
    MergeError,
    ResultStore,
    gc_store,
    merge_store,
    read_manifest,
    update_manifest,
    verify_store,
)
from repro.net.generators import line_topology
from repro.scenario import Scenario
from repro.sim.engine import ENGINE_VERSION
from repro.sim.runner import run_experiment


@pytest.fixture
def topo():
    return line_topology(5, prr=0.9)


@pytest.fixture
def spec():
    return Scenario(protocol="dbao", duty_ratio=0.2, n_packets=2,
                    seed=3, n_replications=2)


def fill(cache_dir, topo, seeds):
    """Run a few cheap experiments into a store; returns {key: summary}."""
    store = ResultStore(cache_dir)
    out = {}
    for seed in seeds:
        spec = Scenario(protocol="dbao", duty_ratio=0.2, n_packets=2,
                        seed=seed, n_replications=1)
        key = store.key_for(topo, spec)
        out[key] = run_experiment(topo, spec, store=store)
    return out


def rewrite_header(path, **changes):
    """Edit an entry's JSON header in place (payload untouched)."""
    head, payload = path.read_bytes().split(b"\n", 1)
    meta = json.loads(head)
    meta.update(changes)
    path.write_bytes(json.dumps(meta).encode() + b"\n" + payload)


class TestIndexStaleness:
    def test_get_falls_through_to_disk_on_index_miss(self, tmp_path, topo,
                                                     spec):
        reader = ResultStore(tmp_path)
        key = reader.key_for(topo, spec)
        assert reader.get(key) is None  # builds an empty index

        # Another process writes the entry after the index was built.
        writer = ResultStore(tmp_path)
        summary = run_experiment(topo, spec)
        writer.put(key, summary)

        got = reader.get(key)  # index says miss; disk probe must win
        assert got is not None
        assert np.array_equal(got.per_replication_delays(),
                              summary.per_replication_delays())

    def test_get_many_sees_cross_process_writes(self, tmp_path, topo):
        reader = ResultStore(tmp_path)
        assert reader.get_many(["e" * 64]) == {}  # index built, empty
        items = fill(tmp_path, topo, seeds=(1, 2))
        found = reader.get_many(list(items))
        assert set(found) == set(items)

    def test_truly_absent_key_still_misses(self, tmp_path, topo):
        fill(tmp_path, topo, seeds=(1,))
        reader = ResultStore(tmp_path)
        assert reader.get("f" * 64) is None


class TestVerify:
    def test_clean_store(self, tmp_path, topo):
        fill(tmp_path, topo, seeds=(1, 2))
        report = verify_store(tmp_path)
        assert report.clean
        assert report.counts == {"ok": 2}
        assert all(e.engine == ENGINE_VERSION for e in report.entries)

    def test_empty_or_absent_directory(self, tmp_path):
        assert verify_store(tmp_path).clean
        assert verify_store(tmp_path / "never-created").clean

    def test_truncated_entry_without_separator_reported_not_crashed(
        self, tmp_path, topo
    ):
        fill(tmp_path, topo, seeds=(1,))
        (entry,) = tmp_path.glob("*.rsum")
        entry.write_bytes(b'{"format": 1, "key": "abc')  # killed mid-header
        report = verify_store(tmp_path)
        assert report.counts == {"truncated": 1}
        assert not report.clean
        assert "separator" in report.entries[0].detail

    def test_corrupt_payload_classified(self, tmp_path, topo):
        fill(tmp_path, topo, seeds=(1,))
        (entry,) = tmp_path.glob("*.rsum")
        raw = bytearray(entry.read_bytes())
        raw[-1] ^= 0xFF
        entry.write_bytes(bytes(raw))
        report = verify_store(tmp_path)
        assert report.counts == {"corrupt": 1}
        assert "digest mismatch" in report.entries[0].detail

    def test_misplaced_entry_classified(self, tmp_path, topo):
        fill(tmp_path, topo, seeds=(1,))
        (entry,) = tmp_path.glob("*.rsum")
        entry.rename(tmp_path / ("0" * 64 + ".rsum"))
        report = verify_store(tmp_path)
        assert report.counts == {"misplaced": 1}

    def test_stale_engine_entry_is_intact_but_flagged(self, tmp_path, topo):
        fill(tmp_path, topo, seeds=(1,))
        (entry,) = tmp_path.glob("*.rsum")
        rewrite_header(entry, engine="1999.0")
        report = verify_store(tmp_path)
        assert report.counts == {"stale": 1}
        assert report.entries[0].intact
        assert not report.problems  # stale is valid, just old
        assert report.clean

    def test_orphaned_tmp_files_reported(self, tmp_path, topo):
        fill(tmp_path, topo, seeds=(1,))
        (tmp_path / "abc123.tmp").write_bytes(b"half a write")
        report = verify_store(tmp_path)
        assert report.tmp_files == ["abc123.tmp"]
        assert not report.clean

    def test_store_verify_convenience(self, tmp_path, topo):
        fill(tmp_path, topo, seeds=(1,))
        assert ResultStore(tmp_path).verify().clean
        assert ResultStore().verify().entries == []  # memory-only store


class TestGc:
    def test_gc_removes_damage_keeps_good(self, tmp_path, topo):
        items = fill(tmp_path, topo, seeds=(1, 2))
        (tmp_path / "orphan.tmp").write_bytes(b"x" * 10)
        bad = tmp_path / ("0" * 64 + ".rsum")
        bad.write_bytes(b"no separator here")
        report = gc_store(tmp_path)
        assert set(report.removed) == {"orphan.tmp", bad.name}
        assert report.bytes_freed > 0
        assert set(p.name for p in tmp_path.glob("*.rsum")) \
            == {f"{k}.rsum" for k in items}

    def test_gc_keeps_stale_unless_asked(self, tmp_path, topo):
        fill(tmp_path, topo, seeds=(1,))
        (entry,) = tmp_path.glob("*.rsum")
        rewrite_header(entry, engine="1999.0")
        assert gc_store(tmp_path).removed == []
        assert gc_store(tmp_path, stale=True).removed == [entry.name]


class TestManifest:
    def test_round_trip_and_union(self, tmp_path):
        update_manifest(tmp_path, "a" * 64, name="g", shard_label="0/2")
        update_manifest(tmp_path, "a" * 64, shard_label="1/2")
        manifest = read_manifest(tmp_path)
        assert manifest["engine"] == ENGINE_VERSION
        assert manifest["grids"]["a" * 64] \
            == {"name": "g", "shards": ["0/2", "1/2"]}

    def test_engine_change_starts_fresh(self, tmp_path):
        update_manifest(tmp_path, "a" * 64, engine="1999.0")
        manifest = update_manifest(tmp_path, "b" * 64)
        assert manifest["engine"] == ENGINE_VERSION
        assert list(manifest["grids"]) == ["b" * 64]

    def test_unreadable_manifest_is_none(self, tmp_path):
        assert read_manifest(tmp_path) is None
        (tmp_path / "_manifest.json").write_text("not json")
        assert read_manifest(tmp_path) is None

    def test_manifest_invisible_to_the_entry_index(self, tmp_path, topo,
                                                   spec):
        update_manifest(tmp_path, "a" * 64)
        store = ResultStore(tmp_path)
        assert store.get(store.key_for(topo, spec)) is None
        assert verify_store(tmp_path).entries == []


class TestMerge:
    def test_union_of_disjoint_shards(self, tmp_path, topo):
        a = fill(tmp_path / "a", topo, seeds=(1, 2))
        b = fill(tmp_path / "b", topo, seeds=(3,))
        report = merge_store(tmp_path / "m", [tmp_path / "a", tmp_path / "b"])
        assert (report.copied, report.skipped, report.rejected) == (3, 0, 0)
        merged = ResultStore(tmp_path / "m")
        for key, summary in {**a, **b}.items():
            got = merged.get(key)
            assert np.array_equal(got.per_replication_delays(),
                                  summary.per_replication_delays())

    def test_identical_entries_skipped_not_recopied(self, tmp_path, topo):
        fill(tmp_path / "a", topo, seeds=(1, 2))
        fill(tmp_path / "b", topo, seeds=(2, 3))  # seed 2 overlaps
        merge_store(tmp_path / "m", [tmp_path / "a"])
        report = merge_store(tmp_path / "m", [tmp_path / "b"])
        assert (report.copied, report.skipped) == (1, 1)

    def test_merge_is_idempotent(self, tmp_path, topo):
        fill(tmp_path / "a", topo, seeds=(1,))
        merge_store(tmp_path / "m", [tmp_path / "a"])
        report = merge_store(tmp_path / "m", [tmp_path / "a"])
        assert (report.copied, report.skipped) == (0, 1)

    def test_rejects_mixed_engine_versions(self, tmp_path, topo):
        fill(tmp_path / "a", topo, seeds=(1,))
        fill(tmp_path / "b", topo, seeds=(2,))
        (entry,) = (tmp_path / "b").glob("*.rsum")
        rewrite_header(entry, engine="1999.0")
        with pytest.raises(MergeError, match="engine-version conflict"):
            merge_store(tmp_path / "m", [tmp_path / "a", tmp_path / "b"])
        # Refusal happens before anything lands at the destination.
        assert not list((tmp_path / "m").glob("*.rsum"))

    def test_rejects_disjoint_grid_manifests(self, tmp_path, topo):
        fill(tmp_path / "a", topo, seeds=(1,))
        update_manifest(tmp_path / "a", "a" * 64, name="grid-a")
        fill(tmp_path / "m", topo, seeds=(2,))
        update_manifest(tmp_path / "m", "b" * 64, name="grid-b")
        with pytest.raises(MergeError, match="grid-fingerprint conflict"):
            merge_store(tmp_path / "m", [tmp_path / "a"])
        report = merge_store(tmp_path / "m", [tmp_path / "a"],
                             allow_mixed=True)
        assert report.copied == 1
        assert set(read_manifest(tmp_path / "m")["grids"]) \
            == {"a" * 64, "b" * 64}

    def test_shared_grid_manifests_merge(self, tmp_path, topo):
        fill(tmp_path / "a", topo, seeds=(1,))
        update_manifest(tmp_path / "a", "a" * 64, name="g", shard_label="0/2")
        fill(tmp_path / "b", topo, seeds=(2,))
        update_manifest(tmp_path / "b", "a" * 64, shard_label="1/2")
        merge_store(tmp_path / "m", [tmp_path / "a", tmp_path / "b"])
        manifest = read_manifest(tmp_path / "m")
        assert manifest["grids"]["a" * 64]["shards"] == ["0/2", "1/2"]
        assert manifest["grids"]["a" * 64]["name"] == "g"

    def test_damaged_source_entries_rejected_not_fatal(self, tmp_path, topo):
        fill(tmp_path / "a", topo, seeds=(1, 2))
        (entry, _) = sorted((tmp_path / "a").glob("*.rsum"))
        entry.write_bytes(b"truncated")
        report = merge_store(tmp_path / "m", [tmp_path / "a"])
        assert (report.copied, report.rejected) == (1, 1)

    def test_key_collision_with_different_payload_refused(self, tmp_path,
                                                          topo):
        import hashlib

        fill(tmp_path / "a", topo, seeds=(1,))
        fill(tmp_path / "m", topo, seeds=(1,))
        # Forge a different-but-intact payload under the same key at the
        # destination (what a non-deterministic engine would produce).
        (entry,) = (tmp_path / "m").glob("*.rsum")
        head, payload = entry.read_bytes().split(b"\n", 1)
        meta = json.loads(head)
        forged = payload + b"\x00"
        meta["digest"] = hashlib.sha256(forged).hexdigest()
        entry.write_bytes(json.dumps(meta).encode() + b"\n" + forged)
        with pytest.raises(MergeError, match="collision"):
            merge_store(tmp_path / "m", [tmp_path / "a"])

    def test_merging_into_a_source_is_refused(self, tmp_path, topo):
        fill(tmp_path / "a", topo, seeds=(1,))
        with pytest.raises(ValueError, match="destination"):
            merge_store(tmp_path / "a", [tmp_path / "a"])

    def test_missing_source_refused_before_copying(self, tmp_path, topo):
        fill(tmp_path / "a", topo, seeds=(1,))
        (tmp_path / "file").write_text("not a store")
        for bad in ("typo", "file"):
            with pytest.raises(ValueError,
                               match=f"{bad} is not an existing directory"):
                merge_store(tmp_path / "m", [tmp_path / "a", tmp_path / bad])
        assert not (tmp_path / "m").exists()

    def test_no_sources_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            merge_store(tmp_path / "m", [])
