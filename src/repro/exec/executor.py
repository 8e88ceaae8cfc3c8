"""Pluggable execution backends for embarrassingly parallel simulation.

Every Sec. V artifact decomposes into independent ``(spec, replication)``
tasks — the runner derives each replication's schedule/channel RNG
streams from ``(seed, rep)`` alone, so tasks never share random state.
An :class:`Executor` maps a picklable function over such tasks; the two
implementations are

* :class:`SerialExecutor` — a plain in-process loop (the reference
  backend; zero overhead, always available), and
* :class:`ParallelExecutor` — a **warm** ``concurrent.futures`` process
  pool: spun up lazily on first dispatch and reused across dispatches
  until ``close()``, with chunked dispatch and one-shot broadcast of
  dispatch-shared state. Broadcast items exposing
  ``to_shared()``/``fingerprint()`` (the :class:`~repro.net.topology.Topology`)
  travel via shared-memory segments instead of per-chunk pickling —
  task payloads shrink from megabytes to tuples of ints. Worker crashes
  (segfault, OOM-kill, interpreter death) are surfaced as
  :class:`WorkerCrashError` instead of the opaque ``BrokenProcessPool``,
  the dead pool is discarded, and the next dispatch re-arms a fresh one.

Every dispatch is metered: :class:`ExecutorStats` records tasks, chunks,
bytes actually pickled to workers, bytes transported zero-copy, pool
spin-up time, and the per-task wall-time spread. ``executor.stats``
accumulates across dispatches, ``executor.last`` holds the most recent
dispatch alone.

Determinism contract: for the same task list and a deterministic task
function, every backend returns bit-identical results in task order.
Parallelism only changes *when* a task runs, never its inputs.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import time
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .shared import InlineRef, PickledRef, resolve_ref

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ExecutorStats",
    "WorkerCrashError",
    "resolve_executor",
]

T = TypeVar("T")
R = TypeVar("R")


class WorkerCrashError(RuntimeError):
    """A parallel worker died without returning (crash, OOM-kill, ...).

    Raised in place of ``concurrent.futures``' ``BrokenProcessPool`` so
    callers see how many tasks were in flight and which backend failed.
    The broken pool is discarded; the executor re-arms a fresh pool on
    its next dispatch.
    """


@dataclass
class ExecutorStats:
    """Dispatch observability: what crossed the process boundary, and when.

    ``pickled_bytes`` counts bytes actually serialized into worker
    payloads (function refs, broadcast refs, task tuples); with
    shared-memory broadcast the substrate does not appear here —
    ``shared_bytes`` counts what traveled zero-copy instead. The runner
    adds replication-batch widths and cross-cell stacks; ``str()``
    renders the lot as the CLI's ``[exec]`` line.
    """

    dispatches: int = 0
    tasks: int = 0
    chunks: int = 0
    pickled_bytes: int = 0
    shared_bytes: int = 0
    pool_spinups: int = 0
    spinup_s: float = 0.0
    task_s_total: float = 0.0
    task_s_min: float = math.inf
    task_s_max: float = 0.0
    #: Replication batching (``--reps-per-task``): tasks that carried a
    #: multi-replication batch, how many replications rode in them, and
    #: the widest batch seen. ``serial_reps`` counts the replications
    #: that went out as width-1 tasks instead (``--reps-per-task 1``,
    #: one-replication cells and batch tails) — together with
    #: ``batched_reps`` it yields the dispatch's batch coverage.
    rep_batches: int = 0
    batched_reps: int = 0
    serial_reps: int = 0
    max_batch_width: int = 0
    #: Cross-cell stacking: tasks that merged several grid cells and the
    #: cells they merged. ``stacked_cells / stack_tasks`` is the mean
    #: stacking ratio — the fig10-column diagnosis number.
    stack_tasks: int = 0
    stacked_cells: int = 0

    def note_stacks(self, n_tasks: int, n_cells: int) -> None:
        """Meter cross-cell stacked tasks and the cells they merged."""
        self.stack_tasks += int(n_tasks)
        self.stacked_cells += int(n_cells)

    def note_rep_batches(self, widths: Sequence[int]) -> None:
        """Meter replication-batched tasks (``widths`` in reps per task)."""
        for w in widths:
            if w > 1:
                self.rep_batches += 1
                self.batched_reps += int(w)
                if w > self.max_batch_width:
                    self.max_batch_width = int(w)
            else:
                self.serial_reps += int(w)

    def record_task_times(self, times: Sequence[float]) -> None:
        for t in times:
            self.task_s_total += t
            if t < self.task_s_min:
                self.task_s_min = t
            if t > self.task_s_max:
                self.task_s_max = t

    def task_spread(self) -> Tuple[float, float, float]:
        """(min, mean, max) per-task wall-time in seconds."""
        if not self.tasks or not math.isfinite(self.task_s_min):
            return (0.0, 0.0, 0.0)
        return (self.task_s_min, self.task_s_total / self.tasks,
                self.task_s_max)

    def merge(self, other: "ExecutorStats") -> None:
        self.dispatches += other.dispatches
        self.tasks += other.tasks
        self.chunks += other.chunks
        self.pickled_bytes += other.pickled_bytes
        self.shared_bytes += other.shared_bytes
        self.pool_spinups += other.pool_spinups
        self.spinup_s += other.spinup_s
        self.task_s_total += other.task_s_total
        self.task_s_min = min(self.task_s_min, other.task_s_min)
        self.task_s_max = max(self.task_s_max, other.task_s_max)
        self.rep_batches += other.rep_batches
        self.batched_reps += other.batched_reps
        self.serial_reps += other.serial_reps
        self.max_batch_width = max(self.max_batch_width, other.max_batch_width)
        self.stack_tasks += other.stack_tasks
        self.stacked_cells += other.stacked_cells

    def __str__(self) -> str:
        lo, mean, hi = self.task_spread()
        parts = [
            f"{self.dispatches} dispatch(es), {self.tasks} task(s) "
            f"in {self.chunks} chunk(s)",
            f"{_human_bytes(self.pickled_bytes)} pickled",
        ]
        if self.shared_bytes:
            parts.append(f"{_human_bytes(self.shared_bytes)} shared-memory")
        if self.rep_batches or self.serial_reps:
            total = self.batched_reps + self.serial_reps
            pct = 100.0 * self.batched_reps / total if total else 0.0
            parts.append(
                f"{self.batched_reps} rep(s) in {self.rep_batches} "
                f"batched task(s) (max {self.max_batch_width}/task, "
                f"{pct:.0f}% batch coverage)"
            )
        if self.stack_tasks:
            ratio = self.stacked_cells / self.stack_tasks
            parts.append(
                f"{self.stacked_cells} cell(s) in {self.stack_tasks} "
                f"stacked task(s) ({ratio:.1f} cells/stack)"
            )
        if self.pool_spinups:
            parts.append(
                f"{self.pool_spinups} pool spin-up(s) "
                f"({self.spinup_s * 1e3:.0f} ms)"
            )
        parts.append(
            f"task wall {lo * 1e3:.0f}/{mean * 1e3:.0f}/{hi * 1e3:.0f} ms "
            f"(min/mean/max)"
        )
        return "; ".join(parts)


def _human_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover - unreachable


class Executor(ABC):
    """Maps a function over independent tasks, preserving task order."""

    #: Nominal worker count (1 for the serial backend).
    jobs: int = 1

    def __init__(self):
        #: Cumulative stats across every dispatch of this executor.
        self.stats = ExecutorStats()
        #: Stats of the most recent dispatch alone (``None`` before any).
        self.last: Optional[ExecutorStats] = None

    @abstractmethod
    def map(self, fn: Callable[..., R], tasks: Iterable[T],
            broadcast: Tuple = ()) -> List[R]:
        """Apply ``fn`` to every task; results come back in task order.

        With ``broadcast`` items the task function is called as
        ``fn(*broadcast, task)`` — parallel backends transport the
        broadcast once per dispatch instead of once per task.
        """

    def close(self) -> None:
        """Release pooled workers and shared segments (no-op by default)."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(jobs={self.jobs})"


def _run_inline(fn, task_list, broadcast, stats: ExecutorStats) -> List:
    """Shared in-process path (serial backend, 1-job/1-task fallback)."""
    results = []
    times = []
    for task in task_list:
        t0 = time.perf_counter()
        results.append(fn(*broadcast, task) if broadcast else fn(task))
        times.append(time.perf_counter() - t0)
    stats.dispatches += 1
    stats.tasks += len(results)
    stats.record_task_times(times)
    return results


class SerialExecutor(Executor):
    """The reference backend: run every task in-process, in order."""

    jobs = 1

    def map(self, fn: Callable[..., R], tasks: Iterable[T],
            broadcast: Tuple = ()) -> List[R]:
        dispatch = ExecutorStats()
        results = _run_inline(fn, tasks, broadcast, dispatch)
        self.stats.merge(dispatch)
        self.last = dispatch
        return results


def _execute_chunk(payload: bytes):
    """Worker entry point: run one chunk, timing each task.

    The payload is pre-pickled by the dispatcher (so payload size is
    metered exactly once and never double-serialized); broadcast refs
    resolve through the worker-side memo — a warm worker attaches each
    shared topology once, then every later chunk finds it cached.
    """
    fn, refs, tasks = pickle.loads(payload)
    broadcast = tuple(resolve_ref(ref) for ref in refs)
    results = []
    times = []
    for task in tasks:
        t0 = time.perf_counter()
        results.append(fn(*broadcast, task) if broadcast else fn(task))
        times.append(time.perf_counter() - t0)
    return results, times


#: Executors with possibly-open pools/segments, closed at interpreter
#: exit as a safety net (weak refs: normal GC still runs ``__del__``).
_LIVE_EXECUTORS: "weakref.WeakSet[ParallelExecutor]" = weakref.WeakSet()


@atexit.register
def _close_live_executors() -> None:  # pragma: no cover - exit hook
    for ex in list(_LIVE_EXECUTORS):
        try:
            ex.close()
        except Exception:
            pass


class ParallelExecutor(Executor):
    """Warm process-pool backend with chunked dispatch and broadcast.

    Parameters
    ----------
    jobs:
        Worker-process count; defaults to ``os.cpu_count()``. With one
        job (or one task) the pool is skipped entirely and tasks run
        in-process — the 1-core fallback costs nothing beyond the serial
        path.

    Each dispatch cuts its tasks into enough chunks for ~4 rounds per
    worker (``ceil(n / (4 * jobs))`` tasks per chunk), which amortizes
    per-chunk payload pickling without starving the pool on skewed task
    durations. Broadcast items exposing ``to_shared()`` (topologies)
    travel via shared-memory segments; when segment creation fails they
    fall back to once-per-chunk pickle payloads.

    ``fn`` and every task must be picklable (module-level functions and
    plain data); the runner's replication task satisfies this. The pool
    and any shared segments live until :meth:`close` (also invoked by
    ``__del__``, ``with``-exit and an atexit safety net); a closed
    executor transparently re-arms on its next dispatch, as does one
    whose pool died with :class:`WorkerCrashError`.
    """

    def __init__(self, jobs: Optional[int] = None):
        super().__init__()
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs) if jobs is not None else (os.cpu_count() or 1)
        self._pool = None
        self._handles = {}  # broadcast token -> SharedTopologyHandle
        self._refs = {}     # broadcast token -> picklable ref
        _LIVE_EXECUTORS.add(self)

    def _chunksize_for(self, n_tasks: int) -> int:
        return max(1, math.ceil(n_tasks / (4 * self.jobs)))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(jobs={self.jobs}, "
            f"chunksize=ceil(n/{4 * self.jobs}))"
        )

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self, dispatch: ExecutorStats):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import resource_tracker

            t0 = time.perf_counter()
            # Start the resource tracker *before* the workers fork: they
            # inherit its fd and report segment attachments to the one
            # shared tracker. A worker forked tracker-less would lazily
            # spawn its own on the first attach and warn about "leaked"
            # segments (that the owner meanwhile unlinked) at shutdown.
            resource_tracker.ensure_running()
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            dispatch.pool_spinups += 1
            dispatch.spinup_s += time.perf_counter() - t0
        return self._pool

    def _discard_pool(self, wait: bool = True) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def close(self) -> None:
        """Shut the pool down and unlink every shared segment.

        Idempotent; a later ``map`` re-arms from scratch.
        """
        self._discard_pool()
        handles, self._handles = self._handles, {}
        for handle in handles.values():
            handle.close()
        self._refs.clear()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- broadcast transport -------------------------------------------

    def _ref_for(self, item, dispatch: ExecutorStats):
        """A picklable ref for one broadcast item, cached by fingerprint."""
        if not (hasattr(item, "to_shared") and hasattr(item, "fingerprint")):
            return InlineRef(item)
        token = item.fingerprint()
        ref = self._refs.get(token)
        if ref is None:
            try:
                handle = item.to_shared()
            except Exception:
                # No /dev/shm etc.: ship the item pickled in every chunk.
                ref = PickledRef(
                    token, pickle.dumps(item, pickle.HIGHEST_PROTOCOL)
                )
            else:
                self._handles[token] = handle
                dispatch.shared_bytes += handle.nbytes
                ref = handle.ref
            self._refs[token] = ref
        return ref

    # -- dispatch ------------------------------------------------------

    def map(self, fn: Callable[..., R], tasks: Iterable[T],
            broadcast: Tuple = ()) -> List[R]:
        task_list = tasks if isinstance(tasks, list) else list(tasks)
        dispatch = ExecutorStats()
        if self.jobs <= 1 or len(task_list) <= 1:
            # In-process fallback: no pool, no pickling — and the task
            # iterable was materialized exactly once above.
            results = _run_inline(fn, task_list, broadcast, dispatch)
            self.stats.merge(dispatch)
            self.last = dispatch
            return results

        from concurrent.futures.process import BrokenProcessPool

        refs = tuple(self._ref_for(item, dispatch) for item in broadcast)
        chunksize = self._chunksize_for(len(task_list))
        payloads = [
            pickle.dumps((fn, refs, task_list[i:i + chunksize]),
                         pickle.HIGHEST_PROTOCOL)
            for i in range(0, len(task_list), chunksize)
        ]
        dispatch.dispatches = 1
        dispatch.tasks = len(task_list)
        dispatch.chunks = len(payloads)
        dispatch.pickled_bytes = sum(len(p) for p in payloads)

        pool = self._ensure_pool(dispatch)
        results: List[R] = []
        try:
            futures = [pool.submit(_execute_chunk, p) for p in payloads]
            for future in futures:
                chunk_results, chunk_times = future.result()
                results.extend(chunk_results)
                dispatch.record_task_times(chunk_times)
        except BrokenProcessPool as exc:
            self._discard_pool()  # re-armed lazily on the next dispatch
            raise WorkerCrashError(
                f"a worker process died while executing {len(task_list)} "
                f"task(s) on {self.jobs} worker(s); the usual causes are "
                f"out-of-memory kills and native crashes"
            ) from exc
        finally:
            self.stats.merge(dispatch)
            self.last = dispatch
        return results


def resolve_executor(jobs: Optional[int] = None) -> Executor:
    """The executor for a ``--jobs`` setting: serial when unset or one
    worker, parallel otherwise; ``jobs < 1`` raises ``ValueError``."""
    if jobs is None or jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs)
