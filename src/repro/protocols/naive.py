"""Naive duty-cycle-oblivious flooding baseline.

The "classic flooding ported to unicasts" strawman the paper's
introduction argues against: every node holding a packet a waking
neighbor needs transmits immediately — no carrier sense, no back-off, no
coverage beliefs beyond its own ACKs. The result is heavy contention:
whenever several covered senders share a waking receiver, they collide,
and the packet waits a full period for the retry.

Useful as the lower anchor of protocol comparisons and in tests that
check the engine's collision accounting actually bites.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ._belief import RepNeighborBelief
from ._repbatch import candidate_rows, flatten_sender_lists, frontier_pairs
from .base import (
    FloodingProtocol,
    RepSimView,
    phase_cache_period,
    register_protocol,
)

__all__ = ["NaiveFlooding"]


@register_protocol
class NaiveFlooding(FloodingProtocol):
    """Uncoordinated p-persistent flooding.

    ``persistence`` is the classic p-persistent knob: a sender with an
    opportunity transmits with probability ``p`` and stays silent
    otherwise. ``p = 1`` is the pure transmit-always strawman, which on
    dense networks collides essentially forever; the default 0.35 keeps
    the baseline terrible-but-terminating.
    """

    name = "naive"

    def __init__(self, persistence: float = 0.35):
        if not (0.0 < persistence <= 1.0):
            raise ValueError(f"persistence must be in (0, 1], got {persistence}")
        self.persistence = float(persistence)
        self.init_kwargs = {"persistence": self.persistence}
        self._topo = None

    # The option collection flattens to (replication, sender, receiver)
    # rows per phase; the persistence and uniform-pick draws stay a small
    # Python loop over the per-(replication, sender) option groups so
    # each replication consumes its channel stream in a fixed order.

    def prepare_reps(self, topo, schedules_list, workload, rngs):
        self._topo = topo
        self._rep_rngs = list(rngs)
        self._rep_schedules = list(schedules_list)
        n = topo.n_nodes
        self._rep_belief = RepNeighborBelief(
            topo, workload.n_packets, len(schedules_list))
        in_lists = [topo.in_neighbors(r) for r in range(n)]
        self._in_sizes, self._in_starts, self._in_flat = flatten_sender_lists(
            in_lists)
        self._rep_cache_period = phase_cache_period(schedules_list)
        self._rep_phase_cache: Dict[int, Tuple] = {}
        # Quiescence frontier: the proposal considers every (in-neighbor,
        # waking receiver) link, so the frontier is every receiver some
        # believing holder could serve. Exact for naive: options (and
        # hence persistence draws — the RNG-quiescence requirement) are
        # nonempty iff an offering link has a waking receiver.
        self._frontier_s, self._frontier_r = frontier_pairs(in_lists)
        self._off_frontier = None

    def _rep_rows(self, t: int):
        key = t % self._rep_cache_period if self._rep_cache_period else None
        if key is not None:
            hit = self._rep_phase_cache.get(key)
            if hit is not None:
                return hit
        rows = candidate_rows(
            self._rep_schedules, t, self._in_sizes, self._in_starts,
            self._in_flat,
        )
        if key is not None:
            self._rep_phase_cache[key] = rows
        return rows

    def propose_reps(self, t, rep_ids, awake_by_rep, view: RepSimView):
        empty = np.empty(0, dtype=np.int64)
        kk, ss, rr = self._rep_rows(t)
        if kk.size == 0:
            return empty, empty, empty, empty
        if rep_ids.size < len(self._rep_schedules):
            active = np.zeros(len(self._rep_schedules), dtype=bool)
            active[rep_ids] = True
            keep = active[kk]
            if not keep.all():
                kk, ss, rr = kk[keep], ss[keep], rr[keep]
        needs = self._rep_belief.needs_pairs(kk, ss, rr)
        heads, valid = view.fcfs_heads_pairs(kk, ss, needs)
        if not valid.any():
            return empty, empty, empty, empty
        k_o, s_o, r_o, h_o = kk[valid], ss[valid], rr[valid], heads[valid]

        # Each sender independently picks one waking neighbor it
        # believes needs something — uniformly at random among its
        # options, with no coordination whatsoever. Group the option rows
        # by (replication, sender): the stable sort keeps each group's
        # rows in flat traversal order (receivers ascending, in-neighbor
        # order) and orders the groups — and so the draws and emitted
        # rows — by ascending (replication, sender).
        n = self._topo.n_nodes
        key = k_o * n + s_o
        order = np.argsort(key, kind="stable")
        key_srt = key[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = key_srt[1:] != key_srt[:-1]
        starts = np.flatnonzero(first)
        bounds = np.append(starts, order.size)
        group_reps = k_o[order[starts]].tolist()

        p = self.persistence
        sel: List[int] = []
        for gi, k in enumerate(group_reps):
            rng = self._rep_rngs[k]
            if p < 1.0 and rng.random() >= p:
                continue
            lo = int(bounds[gi])
            hi = int(bounds[gi + 1])
            sel.append(lo + int(rng.integers(hi - lo)))
        if not sel:
            return empty, empty, empty, empty
        rows = order[np.asarray(sel, dtype=np.int64)]
        return k_o[rows], s_o[rows], r_o[rows], h_o[rows]

    def observe_reps(self, t, outcome, view: RepSimView):
        # Even the naive baseline reads the ACK's possession summary —
        # its problem is contention, not bookkeeping.
        self._rep_belief.sync_ack_summaries(outcome, view)

    def next_action_slots(self, t, rep_ids, view: RepSimView):
        if self._off_frontier is None:
            self._off_frontier = view.offsets_stack[:, self._frontier_r]
        offers = self._rep_belief.offer_pairs_reps(
            rep_ids, self._frontier_s, self._frontier_r, view.has_stack,
            view.has_packed,
        )
        return view.earliest_wakes(
            t, rep_ids, self._frontier_r, offers, self._off_frontier
        )
