"""Tests for the pluggable execution backends."""

import os

import numpy as np
import pytest

from repro.exec import (
    ParallelExecutor,
    SerialExecutor,
    WorkerCrashError,
    resolve_executor,
)
from repro.net.generators import line_topology
from repro.scenario import Scenario
from repro.sim.runner import run_experiment


def _square(x):
    return x * x


def _crash(_task):
    os._exit(13)  # simulate a segfault/OOM-kill: no exception, no return


def _explode(task):
    raise ValueError(f"bad task {task}")


def _pid(_task):
    return os.getpid()


def _add_offset(offset, task):
    return offset + task


@pytest.fixture
def topo():
    return line_topology(5, prr=0.9)


class TestSerialExecutor:
    def test_maps_in_order(self):
        assert SerialExecutor().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty(self):
        assert SerialExecutor().map(_square, []) == []


class TestParallelExecutor:
    def test_maps_in_order(self):
        assert ParallelExecutor(jobs=2).map(_square, list(range(10))) == [
            x * x for x in range(10)
        ]

    def test_single_job_runs_inline(self):
        # jobs=1 must not pay for a pool (and never pickles anything).
        unpicklable = lambda x: x + 1  # noqa: E731
        assert ParallelExecutor(jobs=1).map(unpicklable, [1, 2]) == [2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)

    def test_chunksize_default_covers_all_tasks(self):
        ex = ParallelExecutor(jobs=2)
        assert ex._chunksize_for(1) >= 1
        assert ex._chunksize_for(1000) * 2 * 4 >= 1000

    def test_worker_crash_surfaced(self):
        with ParallelExecutor(jobs=2) as ex:
            with pytest.raises(WorkerCrashError, match="worker process died"):
                ex.map(_crash, [1, 2, 3])

    def test_task_exception_propagates(self):
        with ParallelExecutor(jobs=2) as ex:
            with pytest.raises(ValueError, match="bad task"):
                ex.map(_explode, [1, 2])

    def test_warm_pool_reused_across_dispatches(self):
        with ParallelExecutor(jobs=2) as ex:
            first = set(ex.map(_pid, list(range(8))))
            pool = ex._pool
            second = set(ex.map(_pid, list(range(8))))
            assert ex._pool is pool  # same pool object, no respawn
            # Workers spawn lazily, so per-dispatch PID sets can differ,
            # but one persistent pool caps the distinct PIDs at `jobs`
            # (two cold dispatches could use up to 2 * jobs).
            assert len(first | second) <= 2
            assert ex.stats.pool_spinups == 1
            assert ex.stats.dispatches == 2

    def test_rearm_after_worker_crash(self):
        with ParallelExecutor(jobs=2) as ex:
            with pytest.raises(WorkerCrashError):
                ex.map(_crash, [1, 2, 3])
            assert ex._pool is None  # the dead pool was discarded
            # The next dispatch re-arms a fresh pool and works.
            assert ex.map(_square, list(range(6))) == [
                x * x for x in range(6)
            ]
            assert ex.stats.pool_spinups == 2

    def test_map_usable_again_after_close(self):
        ex = ParallelExecutor(jobs=2)
        ex.map(_square, [1, 2, 3])
        ex.close()
        assert ex._pool is None
        assert ex.map(_square, [2, 3]) == [4, 9]  # transparent re-arm
        ex.close()
        ex.close()  # idempotent

    def test_generator_input_consumed_exactly_once(self):
        pulls = []

        def tasks():
            for x in range(5):
                pulls.append(x)
                yield x

        # Inline fallback path (jobs=1) and pooled path both must
        # materialize the iterable exactly once.
        assert ParallelExecutor(jobs=1).map(_square, tasks()) == [
            x * x for x in range(5)
        ]
        assert pulls == list(range(5))
        pulls.clear()
        with ParallelExecutor(jobs=2) as ex:
            assert ex.map(_square, tasks()) == [x * x for x in range(5)]
        assert pulls == list(range(5))

    def test_broadcast_matches_serial(self):
        tasks = list(range(10))
        expected = SerialExecutor().map(_add_offset, tasks, broadcast=(100,))
        assert expected == [100 + x for x in tasks]
        with ParallelExecutor(jobs=2) as ex:
            assert ex.map(_add_offset, tasks, broadcast=(100,)) == expected

    def test_repr_shows_chunk_heuristic(self):
        assert repr(ParallelExecutor(jobs=2)) \
            == "ParallelExecutor(jobs=2, chunksize=ceil(n/8))"

    def test_dispatch_stats_recorded(self):
        with ParallelExecutor(jobs=2) as ex:
            ex.map(_square, list(range(10)))
            assert ex.last.tasks == 10
            assert ex.last.chunks == 5  # chunks of ceil(10 / 8) = 2
            assert ex.last.pickled_bytes > 0
            lo, mean, hi = ex.last.task_spread()
            assert 0 <= lo <= mean <= hi
        # The inline fallback records tasks but never pickles.
        ex1 = ParallelExecutor(jobs=1)
        ex1.map(_square, list(range(4)))
        assert ex1.stats.tasks == 4
        assert ex1.stats.pickled_bytes == 0 and ex1.stats.chunks == 0


class TestResolveExecutor:
    def test_default_is_serial(self):
        assert isinstance(resolve_executor(), SerialExecutor)
        assert isinstance(resolve_executor(jobs=1), SerialExecutor)

    def test_jobs_alone_selects_parallel(self):
        ex = resolve_executor(jobs=3)
        assert isinstance(ex, ParallelExecutor)
        assert ex.jobs == 3

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            resolve_executor(jobs=jobs)


class TestBackendDeterminism:
    """The hard contract: backends are bit-identical, per replication."""

    @pytest.mark.parametrize("protocol", ["opt", "dbao", "of"])
    def test_serial_and_parallel_replications_identical(self, topo, protocol):
        spec = Scenario(
            protocol=protocol, duty_ratio=0.2, n_packets=2, seed=11,
            n_replications=3,
        )
        serial = run_experiment(topo, spec, executor=SerialExecutor())
        parallel = run_experiment(topo, spec, executor=ParallelExecutor(jobs=2))
        assert np.array_equal(
            serial.per_replication_delays(),
            parallel.per_replication_delays(),
        )
        assert serial.mean_failures() == parallel.mean_failures()
        assert serial.mean_tx_attempts() == parallel.mean_tx_attempts()

    def test_executor_none_matches_serial(self, topo):
        spec = Scenario(protocol="dbao", duty_ratio=0.2, n_packets=2,
                        seed=5, n_replications=2)
        assert np.array_equal(
            run_experiment(topo, spec).per_replication_delays(),
            run_experiment(topo, spec,
                           executor=SerialExecutor()).per_replication_delays(),
        )
