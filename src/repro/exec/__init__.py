"""Pluggable execution backends and a content-addressed result store.

``repro.exec`` decouples *what* the harness simulates from *how* the
work is dispatched and memoized:

* :class:`Executor` / :class:`SerialExecutor` / :class:`ParallelExecutor`
  — map independent ``(spec, replication)`` tasks serially or over a
  **warm, reusable** process pool, with bit-identical results either
  way; dispatch-shared state (the topology) broadcasts once per
  dispatch over :mod:`multiprocessing.shared_memory`
  (:mod:`repro.exec.shared`), and every dispatch is metered by an
  :class:`ExecutorStats` record;
* :class:`ResultStore` — layered (memory + optional disk) cache of
  :class:`~repro.sim.runner.RunSummary` payloads keyed by
  ``hash(spec, topology, engine version)``, with batched
  ``get_many``/``put_many`` access over a one-scan directory index;
* :class:`ExecutionContext` — the process-wide pair the experiment
  harness and CLI route everything through (``--jobs``/``--cache-dir``),
  with an explicit ``close()`` releasing pools and shared segments.
"""

from .context import (
    ExecutionContext,
    configure_execution,
    execution_context,
    reset_execution,
    use_execution,
)
from .executor import (
    Executor,
    ExecutorStats,
    ParallelExecutor,
    SerialExecutor,
    WorkerCrashError,
    resolve_executor,
)
from .shared import (
    PickledRef,
    SharedTopologyHandle,
    SharedTopologyRef,
    share_topology,
)
from .store import (
    EntryStatus,
    GcReport,
    MergeError,
    MergeReport,
    ResultStore,
    StoreStats,
    VerifyReport,
    gc_store,
    merge_store,
    read_manifest,
    result_key,
    update_manifest,
    verify_store,
)

__all__ = [
    "Executor", "SerialExecutor", "ParallelExecutor", "ExecutorStats",
    "WorkerCrashError", "resolve_executor",
    "SharedTopologyHandle", "SharedTopologyRef", "PickledRef",
    "share_topology",
    "ResultStore", "StoreStats", "result_key",
    "EntryStatus", "VerifyReport", "MergeReport", "GcReport", "MergeError",
    "verify_store", "merge_store", "gc_store",
    "read_manifest", "update_manifest",
    "ExecutionContext", "execution_context", "configure_execution",
    "reset_execution", "use_execution",
]
