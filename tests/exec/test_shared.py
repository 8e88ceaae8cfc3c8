"""Tests for shared-memory topology broadcast and executor hygiene.

Covers the transport round trip (zero-copy, read-only, fingerprint
inheritance), the serial / warm-pool equivalence contract with shared
memory and with its pickle fallback, and the no-leaks guarantee: after
``ExecutionContext.close()`` neither shared segments nor worker
processes survive.
"""

import multiprocessing
import pickle

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro.exec import (
    ExecutionContext,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
)
from repro.exec.shared import PickledRef, SharedTopologyRef, resolve_ref
from repro.net.generators import line_topology
from repro.net.topology import Topology
from repro.scenario import Scenario
from repro.sim.runner import run_experiments


@pytest.fixture
def topo():
    return line_topology(6, prr=0.9)


def _fig10_style_specs(reps=2):
    return [
        Scenario(protocol=proto, duty_ratio=duty, n_packets=2,
                 seed=11, n_replications=reps)
        for proto in ("opt", "dbao", "of")
        for duty in (0.1, 0.2)
    ]


def _segment_names(executor):
    names = []
    for handle in executor._handles.values():
        for spec in (handle.ref.prr, handle.ref.positions, handle.ref.rssi):
            if spec is not None:
                names.append(spec.name)
    return names


def _no_shared_memory(monkeypatch):
    """Make segment creation fail, forcing the pickle fallback."""
    def refuse(self):
        raise OSError("no shared memory here")

    monkeypatch.setattr(Topology, "to_shared", refuse)


def _assert_unlinked(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestTopologyRoundTrip:
    def test_from_shared_is_zero_copy_and_read_only(self, topo):
        handle = topo.to_shared()
        try:
            clone = Topology.from_shared(handle.ref)
            assert np.array_equal(clone.prr, topo.prr)
            assert np.array_equal(clone.adjacency, topo.adjacency)
            assert np.array_equal(clone.audible, topo.audible)
            # Zero-copy: the attached view does not own its buffer ...
            assert not clone.prr.flags.owndata
            # ... and the shared substrate cannot be mutated by accident.
            assert not clone.prr.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                clone.prr[0, 1] = 0.5
        finally:
            handle.close()

    def test_fingerprint_inherited_not_recomputed(self, topo):
        handle = topo.to_shared()
        try:
            clone = Topology.from_shared(handle.ref)
            assert clone._fingerprint == topo.fingerprint()
            assert clone.fingerprint() == topo.fingerprint()
        finally:
            handle.close()

    def test_optional_arrays_travel(self):
        rng = np.random.default_rng(0)
        prr = np.zeros((4, 4))
        prr[0, 1] = prr[1, 2] = prr[2, 3] = 0.8
        positions = rng.uniform(0, 10, size=(4, 2))
        rssi = np.where(prr > 0, -60.0, np.nan)
        topo = Topology(prr, positions=positions, rssi=rssi)
        handle = topo.to_shared()
        try:
            clone = Topology.from_shared(handle.ref)
            assert np.array_equal(clone.positions, topo.positions)
            assert np.array_equal(clone.rssi, topo.rssi, equal_nan=True)
        finally:
            handle.close()

    def test_ref_is_small_and_picklable(self):
        big = line_topology(80, prr=0.9)  # ~50 KiB of PRR matrix
        handle = big.to_shared()
        try:
            blob = pickle.dumps(handle.ref, pickle.HIGHEST_PROTOCOL)
            # The whole point: a few hundred bytes instead of the matrix.
            assert len(blob) < 2048
            assert len(blob) * 10 < len(pickle.dumps(big))
            restored = pickle.loads(blob)
            assert isinstance(restored, SharedTopologyRef)
            assert restored.token == big.fingerprint()
        finally:
            handle.close()

    def test_handle_close_unlinks_segments(self, topo):
        handle = topo.to_shared()
        name = handle.ref.prr.name
        handle.close()
        handle.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_pickled_ref_fallback_resolves(self, topo):
        ref = PickledRef(topo.fingerprint(),
                         pickle.dumps(topo, pickle.HIGHEST_PROTOCOL))
        clone = resolve_ref(ref)
        assert np.array_equal(clone.prr, topo.prr)
        # Same token resolves from the memo, not a fresh unpickle.
        assert resolve_ref(ref) is clone


class TestBackendEquivalence:
    """Satellite contract: serial vs warm pool, with shared-memory
    transport and with its pickle fallback, produce bit-identical
    summaries."""

    def test_all_backends_bit_identical_on_fig10_grid(self, topo,
                                                      monkeypatch):
        specs = _fig10_style_specs()
        reference = run_experiments(topo, specs, executor=SerialExecutor())
        ref_blobs = [pickle.dumps(s.results) for s in reference]
        with ParallelExecutor(jobs=2) as shared:
            summaries = run_experiments(topo, specs, executor=shared)
            assert shared.stats.shared_bytes > 0
        assert [pickle.dumps(s.results) for s in summaries] == ref_blobs
        _no_shared_memory(monkeypatch)
        with ParallelExecutor(jobs=2) as fallback:
            summaries = run_experiments(topo, specs, executor=fallback)
            assert fallback.stats.shared_bytes == 0
        assert [pickle.dumps(s.results) for s in summaries] == ref_blobs

    def test_shared_broadcast_shrinks_pickled_bytes(self, monkeypatch):
        big = line_topology(80, prr=0.9)  # large enough that the matrix
        specs = _fig10_style_specs()      # dominates the chunk payloads
        with ParallelExecutor(jobs=2) as shared:
            run_experiments(big, specs, executor=shared)
            assert shared.stats.shared_bytes > 0
        _no_shared_memory(monkeypatch)
        with ParallelExecutor(jobs=2) as fallback:
            run_experiments(big, specs, executor=fallback)
        # The pickle fallback ships the topology in every chunk payload;
        # the shared path ships segment names.
        assert shared.stats.pickled_bytes * 10 < fallback.stats.pickled_bytes


class TestNoLeaks:
    def test_context_close_releases_segments_and_workers(self, topo):
        before = set(multiprocessing.active_children())
        ctx = ExecutionContext(
            executor=ParallelExecutor(jobs=2), store=ResultStore()
        )
        run_experiments(topo, _fig10_style_specs(reps=1),
                        executor=ctx.executor, store=ctx.store)
        names = _segment_names(ctx.executor)
        assert names, "shared transport was expected to engage"
        spawned = set(multiprocessing.active_children()) - before
        assert spawned, "the pool was expected to spawn workers"

        ctx.close()

        _assert_unlinked(names)
        assert ctx.executor._pool is None
        alive = {p for p in spawned if p.is_alive()}
        assert not alive, f"worker processes leaked: {alive}"

    def test_executor_close_after_crash_releases_segments(self, topo):
        # Even when the pool died mid-dispatch, close() must not leak
        # the broadcast segments registered before the crash.
        ex = ParallelExecutor(jobs=2)
        try:
            ex.map(_crash_with_broadcast, [(0, 0), (0, 1), (1, 0)],
                   broadcast=(topo,))
        except Exception:
            pass
        handle_names = _segment_names(ex)
        ex.close()
        if handle_names:
            _assert_unlinked(handle_names)


def _crash_with_broadcast(_topo, _task):  # pragma: no cover - worker side
    import os

    os._exit(7)
