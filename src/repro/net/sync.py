"""Local synchronization service.

The paper assumes *local synchronization* (Sec. III-B): every sender knows
the working schedules of its neighbors, so it can wake itself exactly when
a neighbor becomes able to receive. Real deployments achieve this with
low-cost schedule-exchange protocols (the paper cites [26], [27]).

We model the service explicitly rather than baking the assumption into the
engine, for two reasons:

* it lets tests assert the engine only ever uses *neighbor* schedule
  knowledge (nothing global leaks into protocol decisions), and
* it provides a place to inject clock skew, which the stress/ablation
  suite uses to probe how sensitive flooding delay is to synchronization
  error (the paper's model corresponds to zero skew).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .schedule import ScheduleTable, validate_slot_index
from .topology import Topology

__all__ = ["LocalSyncService", "JitteredSchedules"]


class JitteredSchedules:
    """True radio-on times: advertised slots with per-period jitter.

    Each period, independently per node and per active slot, the actual
    wake slot shifts by ±1 slot with probability ``jitter_prob`` (split
    evenly), else matches the advertisement; every active slot of a
    multi-slot table jitters. Jitter draws are deterministic in
    ``(seed, period index)``, so the table is stateless and can be
    queried in any order — the engine only needs :meth:`awake_at`. The
    draws fill slot 0 of every node first, so a one-slot table consumes
    exactly the draws of the single-slot model.

    This is the residual-error model of an imperfect synchronization
    protocol; ``jitter_prob = 0`` is the paper's perfectly
    locally-synchronized assumption.
    """

    def __init__(
        self, advertised: ScheduleTable, jitter_prob: float, seed: int
    ):
        if not (0.0 <= jitter_prob <= 1.0):
            raise ValueError(
                f"jitter probability must be in [0, 1], got {jitter_prob}"
            )
        self._advertised = advertised
        self._prob = float(jitter_prob)
        self._seed = int(seed)
        self._cache_key = -1
        self._cache_offsets: np.ndarray = advertised.offsets_matrix

    def __len__(self) -> int:
        return len(self._advertised)

    @property
    def period(self) -> int:
        return self._advertised.period

    def _offsets_for_period(self, k: int) -> np.ndarray:
        """``(n_nodes, a)`` true active-slot offsets in period ``k``."""
        if k == self._cache_key:
            return self._cache_offsets
        rng = np.random.default_rng(
            np.random.SeedSequence(self._seed, spawn_key=(k,))
        )
        advertised = self._advertised.offsets_matrix
        u = rng.random(advertised.shape[::-1]).T
        shift = np.zeros(advertised.shape, dtype=np.int64)
        shift[u < self._prob / 2] = -1
        shift[(u >= self._prob / 2) & (u < self._prob)] = 1
        offsets = (advertised + shift) % self.period
        self._cache_key, self._cache_offsets = k, offsets
        return offsets

    def awake_at(self, t: int) -> np.ndarray:
        t = validate_slot_index(t)
        offsets = self._offsets_for_period(t // self.period)
        return np.flatnonzero((offsets == (t % self.period)).any(axis=1))

    def is_active(self, node: int, t: int) -> bool:
        offsets = self._offsets_for_period(t // self.period)
        return bool((offsets[node] == (t % self.period)).any())


class LocalSyncService:
    """Neighbor-schedule knowledge with optional per-node clock skew.

    Parameters
    ----------
    topo:
        The network; knowledge is restricted to graph neighbors.
    schedules:
        Ground-truth schedule table.
    skew_slots:
        Optional per-node clock skew (signed, in slots). A sender
        estimating a neighbor's wake-up adds its *belief error*, i.e. the
        difference between the neighbor's true offset and the offset it
        advertised before skew accumulated. Zero (default) gives the
        paper's perfectly locally-synchronized model.
    """

    def __init__(
        self,
        topo: Topology,
        schedules: ScheduleTable,
        skew_slots: Optional[np.ndarray] = None,
    ):
        if len(schedules) != topo.n_nodes:
            raise ValueError(
                f"schedule table covers {len(schedules)} nodes but the "
                f"topology has {topo.n_nodes}"
            )
        self._topo = topo
        self._schedules = schedules
        if skew_slots is None:
            skew_slots = np.zeros(topo.n_nodes, dtype=np.int64)
        else:
            skew_slots = np.asarray(skew_slots, dtype=np.int64)
            if skew_slots.shape != (topo.n_nodes,):
                raise ValueError(
                    f"skew must have shape ({topo.n_nodes},), got {skew_slots.shape}"
                )
        self._skew = skew_slots

    @property
    def is_perfect(self) -> bool:
        """True when no node has clock skew (the paper's assumption)."""
        return bool(np.all(self._skew == 0))

    def knows_schedule(self, observer: int, target: int) -> bool:
        """Whether ``observer`` legitimately knows ``target``'s schedule."""
        return self._topo.has_link(observer, target) or self._topo.has_link(
            target, observer
        )

    def believed_offset(self, observer: int, target: int) -> int:
        """The active-slot offset ``observer`` believes ``target`` has.

        Raises
        ------
        PermissionError
            If the nodes are not neighbors — protocol code asking for a
            non-neighbor schedule indicates a modelling bug.
        """
        if observer != target and not self.knows_schedule(observer, target):
            raise PermissionError(
                f"node {observer} has no schedule knowledge of non-neighbor {target}"
            )
        true_offset = int(self._schedules.offsets[target])
        error = int(self._skew[target] - self._skew[observer])
        return (true_offset + error) % self._schedules.period

    def believed_next_active(self, observer: int, target: int, t: int) -> int:
        """When ``observer`` believes ``target`` will next be able to receive."""
        offset = self.believed_offset(observer, target)
        phase = t % self._schedules.period
        wait = (offset - phase) % self._schedules.period
        return t + wait

    def wakeup_is_correct(self, observer: int, target: int, t: int) -> bool:
        """Whether a wake-up planned by ``observer`` actually hits an active slot."""
        planned = self.believed_next_active(observer, target, t)
        return self._schedules.is_active(target, planned)
