"""Tests for the content-addressed result store."""

import dataclasses
import sys
import types

import numpy as np
import pytest

from repro.exec import ResultStore, result_key
from repro.net.generators import line_topology
from repro.scenario import Scenario
from repro.sim.runner import RunSummary, run_experiment


@pytest.fixture
def topo():
    return line_topology(5, prr=0.9)


@pytest.fixture
def spec():
    return Scenario(protocol="dbao", duty_ratio=0.2, n_packets=2,
                    seed=3, n_replications=2)


class TestFingerprints:
    def test_topology_fingerprint_content_addressed(self, topo):
        same = line_topology(5, prr=0.9)
        other = line_topology(5, prr=0.8)
        assert topo.fingerprint() == same.fingerprint()
        assert topo.fingerprint() != other.fingerprint()

    def test_key_includes_engine_version(self, topo, spec):
        assert result_key(topo, spec) != result_key(
            topo, spec, engine_version="an-older-engine"
        )


class TestMemoryStore:
    def test_miss_then_hit(self, topo, spec):
        store = ResultStore()
        first = run_experiment(topo, spec, store=store)
        assert (store.hits, store.misses) == (0, 1)
        second = run_experiment(topo, spec, store=store)
        assert (store.hits, store.misses) == (1, 1)
        assert second is first  # memory layer returns the memoized object

    def test_different_spec_not_conflated(self, topo, spec):
        store = ResultStore()
        run_experiment(topo, spec, store=store)
        other = dataclasses.replace(spec, seed=spec.seed + 1)
        run_experiment(topo, other, store=store)
        assert store.misses == 2 and len(store) == 2


class TestDiskStore:
    def test_cache_dir_must_be_a_directory(self, tmp_path):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("in the way")
        with pytest.raises(NotADirectoryError, match="not a directory"):
            ResultStore(not_a_dir)

    def test_round_trip_across_stores(self, tmp_path, topo, spec):
        first = run_experiment(topo, spec, store=ResultStore(tmp_path))
        fresh = ResultStore(tmp_path)  # simulates a new process
        second = run_experiment(topo, spec, store=fresh)
        assert fresh.hits == 1 and fresh.misses == 0
        assert np.array_equal(first.per_replication_delays(),
                              second.per_replication_delays())
        assert second.spec == spec

    def test_corrupted_entry_recomputed_not_served(self, tmp_path, topo, spec):
        store = ResultStore(tmp_path)
        pristine = run_experiment(topo, spec, store=store)
        (entry,) = tmp_path.glob("*.rsum")
        raw = bytearray(entry.read_bytes())
        raw[-1] ^= 0xFF  # flip payload bits -> digest mismatch
        entry.write_bytes(bytes(raw))

        fresh = ResultStore(tmp_path)
        recomputed = run_experiment(topo, spec, store=fresh)
        assert fresh.hits == 0 and fresh.misses == 1
        assert fresh.stats.rejected == 1
        assert np.array_equal(pristine.per_replication_delays(),
                              recomputed.per_replication_delays())
        # The recomputation overwrote the bad entry; next reader hits.
        assert ResultStore(tmp_path).get(fresh.key_for(topo, spec)) is not None

    def test_entry_recorded_under_other_key_rejected(self, tmp_path, topo, spec):
        store = ResultStore(tmp_path)
        key = store.key_for(topo, spec)
        run_experiment(topo, spec, store=store)
        # A stale entry copied/renamed onto this key must not be served.
        bogus_key = "0" * 64
        (tmp_path / f"{key}.rsum").rename(tmp_path / f"{bogus_key}.rsum")
        fresh = ResultStore(tmp_path)
        assert fresh.get(bogus_key) is None
        assert fresh.stats.rejected == 1

    def test_truncated_entry_rejected(self, tmp_path, topo, spec):
        store = ResultStore(tmp_path)
        run_experiment(topo, spec, store=store)
        (entry,) = tmp_path.glob("*.rsum")
        entry.write_bytes(entry.read_bytes()[:10])
        fresh = ResultStore(tmp_path)
        assert fresh.get(store.key_for(topo, spec)) is None

    def test_entry_of_a_vanished_class_recomputed(
        self, tmp_path, topo, spec, monkeypatch
    ):
        # An entry written when its payload's classes existed (say, a
        # summary of a since-deleted spec type) keeps a valid header and
        # digest but no longer unpickles: a miss, recomputed once and
        # overwritten, never a crash.
        gone = types.ModuleType("repro_vanished")
        exec("class OldSpec:\n    pass", gone.__dict__)
        monkeypatch.setitem(sys.modules, "repro_vanished", gone)
        key = ResultStore().key_for(topo, spec)
        ResultStore(tmp_path).put(
            key, RunSummary(spec=gone.OldSpec(), results=[]))
        monkeypatch.delitem(sys.modules, "repro_vanished")

        probe = ResultStore(tmp_path)
        assert probe.get(key) is None
        assert probe.stats.rejected == 1

        store = ResultStore(tmp_path)
        summary = run_experiment(topo, spec, store=store)
        assert (store.hits, store.misses, store.stats.rejected) == (0, 1, 1)
        fresh = ResultStore(tmp_path)
        again = fresh.get(key)
        assert fresh.hits == 1 and again.spec == spec
        assert np.array_equal(again.per_replication_delays(),
                              summary.per_replication_delays())

    def test_clear_drops_memory_keeps_disk(self, tmp_path, topo, spec):
        store = ResultStore(tmp_path)
        run_experiment(topo, spec, store=store)
        store.clear()
        assert len(store) == 0
        assert store.get(store.key_for(topo, spec)) is not None  # from disk


class TestBatchedAccess:
    def test_get_many_put_many_round_trip(self, tmp_path, topo, spec):
        store = ResultStore(tmp_path)
        specs = [dataclasses.replace(spec, seed=s) for s in (1, 2, 3)]
        items = {store.key_for(topo, s): run_experiment(topo, s)
                 for s in specs}
        store.put_many(items)

        fresh = ResultStore(tmp_path)  # simulates a new process
        keys = list(items)
        found = fresh.get_many(keys + ["0" * 64])
        assert set(found) == set(keys)
        assert fresh.hits == 3 and fresh.misses == 1
        for key in keys:
            assert np.array_equal(found[key].per_replication_delays(),
                                  items[key].per_replication_delays())

    def test_get_many_counts_duplicate_keys_as_hits(self, topo, spec):
        store = ResultStore()
        summary = run_experiment(topo, spec)
        key = store.key_for(topo, spec)
        store.put(key, summary)
        assert store.get_many([key, key, key]) == {key: summary}
        assert store.hits == 3 and store.misses == 0

    def test_absent_keys_answered_by_index_without_file_io(
        self, tmp_path, topo, spec, monkeypatch
    ):
        run_experiment(topo, spec, store=ResultStore(tmp_path))
        fresh = ResultStore(tmp_path)
        loads = []
        orig = ResultStore._load_disk
        monkeypatch.setattr(
            ResultStore, "_load_disk",
            lambda self, key: loads.append(key) or orig(self, key),
        )
        # Keys not in the one-scan directory index never touch a file.
        assert fresh.get_many(["f" * 64, "e" * 64]) == {}
        assert loads == []
        assert fresh.misses == 2

    def test_put_updates_already_built_index(self, tmp_path, topo, spec):
        store = ResultStore(tmp_path)
        key = store.key_for(topo, spec)
        assert store.get(key) is None  # builds the (empty) index
        summary = run_experiment(topo, spec)
        store.put(key, summary)
        store.clear()  # force the next get through the disk path
        assert store.get(key) is not None

    def test_digest_checked_on_every_disk_load(self, tmp_path):
        # A payload changed on disk after this process wrote it must be
        # rejected on the next load, as a fresh store would reject it:
        # no verdict outlives the bytes it judged.
        import struct

        store = ResultStore(tmp_path)
        key = "ab" * 32
        store.put(key, {"mean_delay": 63.0})
        store.clear()  # the next get goes through the disk path
        entry = tmp_path / f"{key}.rsum"
        raw = bytearray(entry.read_bytes())
        at = raw.index(struct.pack(">d", 63.0))  # pickle's BINFLOAT
        raw[at] ^= 0x01  # the pickle stays valid: 63.0 -> 4128768.0
        entry.write_bytes(bytes(raw))
        assert store.get(key) is None
        assert store.stats.rejected == 1
        assert ResultStore(tmp_path).get(key) is None
