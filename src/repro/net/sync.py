"""Local synchronization: the residual error of schedule exchange.

The paper assumes *local synchronization* (Sec. III-B): every sender knows
the working schedules of its neighbors, so it can wake itself exactly when
a neighbor becomes able to receive. Real deployments achieve this with
low-cost schedule-exchange protocols (the paper cites [26], [27]). The
engine models that knowledge as the believed schedule table protocols
receive; :class:`JitteredSchedules` is the clock-skew injection the
stress/ablation suite uses to probe how sensitive flooding delay is to
synchronization error (the paper's model corresponds to zero skew).
"""

from __future__ import annotations

import numpy as np

from .schedule import ScheduleTable, validate_slot_index

__all__ = ["JitteredSchedules"]


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
        t = validate_slot_index(t)
        offsets = self._offsets_for_period(t // self.period)
        return bool((offsets[node] == (t % self.period)).any())
