"""Process-wide execution context: which executor and store to use.

The experiment harness (``repro.experiments``) and the CLI route every
simulation through one :class:`ExecutionContext` so that ``--jobs`` and
``--cache-dir`` apply uniformly to replications, sweep grids and the
fig10/fig11 protocol-by-duty grid. The default context is a
:class:`~repro.exec.executor.SerialExecutor` plus an **in-memory**
:class:`~repro.exec.store.ResultStore` — exactly the semantics the old
per-function ``lru_cache`` provided, but shared across every entry point
and upgradeable to parallel/persistent without touching call sites.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Iterator, Optional

from .executor import Executor, SerialExecutor, resolve_executor
from .store import ResultStore

__all__ = [
    "ExecutionContext",
    "execution_context",
    "configure_execution",
    "reset_execution",
    "use_execution",
]


@dataclass
class ExecutionContext:
    """An executor/store pair every harness entry point runs through.

    ``reps_per_task`` is the session's replication-chunking policy
    (``--reps-per-task``): how many replications ride in one dispatched
    task. ``None`` lets the runner auto-chunk batchable scenarios; it is
    pure execution policy — results are bit-identical at any width — so
    it lives here rather than on the scenarios themselves.
    """

    executor: Executor
    store: ResultStore
    reps_per_task: Optional[int] = None

    def close(self) -> None:
        """Release executor resources (warm worker pool, shared-memory
        segments). The store needs no teardown; a closed context's
        executor transparently re-arms if used again."""
        self.executor.close()


_DEFAULT: ExecutionContext = ExecutionContext(
    executor=SerialExecutor(), store=ResultStore()
)


def execution_context() -> ExecutionContext:
    """The currently installed process-wide context."""
    return _DEFAULT


def configure_execution(
    jobs: Optional[int] = None,
    cache_dir: Optional[os.PathLike] = None,
    reps_per_task: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> ExecutionContext:
    """Install (and return) a new process-wide context.

    ``jobs > 1`` selects the parallel backend (see
    :func:`~repro.exec.executor.resolve_executor`); ``cache_dir``
    upgrades the store from in-memory to persistent; ``reps_per_task``
    sets the replication-chunking width (``None`` = auto). A
    pre-constructed ``store`` (e.g. one shard's directory opened by a
    test harness) may be passed instead of ``cache_dir`` — never both.
    """
    global _DEFAULT
    if store is not None and cache_dir is not None:
        raise ValueError("pass either store or cache_dir, not both")
    _DEFAULT = ExecutionContext(
        executor=resolve_executor(jobs),
        store=store if store is not None else ResultStore(cache_dir),
        reps_per_task=reps_per_task,
    )
    return _DEFAULT


def reset_execution() -> ExecutionContext:
    """Restore the default serial executor and a fresh in-memory store.

    The replaced context is closed — its warm pool and shared segments
    are released — since a reset explicitly discards it.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = ExecutionContext(executor=SerialExecutor(), store=ResultStore())
    previous.close()
    return _DEFAULT


@contextlib.contextmanager
def use_execution(
    jobs: Optional[int] = None,
    cache_dir: Optional[os.PathLike] = None,
    reps_per_task: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> Iterator[ExecutionContext]:
    """Temporarily install a context, restoring the previous one on exit.

    With every argument ``None`` the current context is reused unchanged
    (so wrapping a call site is always safe). The temporary context is
    closed on exit — worker pools and shared-memory segments never
    outlive the ``with`` block.
    """
    global _DEFAULT
    previous = _DEFAULT
    if (jobs is None and cache_dir is None and reps_per_task is None
            and store is None):
        yield previous
        return
    ctx = None
    try:
        ctx = configure_execution(jobs=jobs, cache_dir=cache_dir,
                                  reps_per_task=reps_per_task,
                                  store=store)
        yield ctx
    finally:
        _DEFAULT = previous
        if ctx is not None:
            ctx.close()
