"""DCA: duty-cycle-aware tree flooding for reliable links (paper ref [10]).

Wang & Liu's INFOCOM'09 scheme builds a *delay-optimal* forwarding
structure from the working schedules themselves: the cost of edge
``u -> v`` is the sleep latency from ``u``'s wake phase to ``v``'s next
active slot, and packets flow along the resulting shortest-delay tree
only.

The scheme assumes **reliable links** — under loss it has no forwarding
diversity (one parent per node), so its delay degrades faster than OPT /
DBAO / OF, which is exactly why the paper's own analysis calls for
loss-aware designs. We include it as the reliable-link baseline.

Contention between tree senders is serialized by deterministic id-based
back-off within carrier-sense groups (the scheme's TDMA-like schedule
makes simultaneous same-group sends rare to begin with).
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from ..net.radio import csma_select_reps
from ..net.topology import SOURCE, Topology
from ._belief import BeliefFlooding
from .base import NEVER, PhaseTable, RepSimView, register_protocol

__all__ = ["DutyCycleAwareFlooding", "build_delay_optimal_tree"]


def build_delay_optimal_tree(topo: Topology, offsets: np.ndarray, period: int):
    """Time-dependent Dijkstra: earliest-arrival tree under sleep latency.

    ``dist[v]`` is the earliest slot (starting from slot 0 at the source)
    at which ``v`` can first hold the packet, assuming reliable links and
    no contention; ``parent`` realizes those paths.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = topo.n_nodes
    if offsets.shape != (n,):
        raise ValueError(f"offsets must have shape ({n},)")
    dist = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[SOURCE] = 0
    heap: List[Tuple[int, int]] = [(0, SOURCE)]
    done = np.zeros(n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v in topo.out_neighbors(u).tolist():
            if done[v]:
                continue
            # Wait from slot d until v's next active slot, then 1 TX slot.
            wait = (int(offsets[v]) - d) % period
            cand = d + wait + 1
            if cand < dist[v]:
                dist[v] = cand
                parent[v] = u
                heapq.heappush(heap, (cand, v))
    return parent, dist


@register_protocol
class DutyCycleAwareFlooding(BeliefFlooding):
    """Forward along the schedule-derived delay-optimal tree."""

    name = "dca"

    def __init__(self):
        self.init_kwargs: dict = {}
        self._topo = None

    # DCA's forwarding structure is *schedule-derived*, so unlike the
    # other floods its per-replication state is a whole tree: one
    # delay-optimal parent vector per replication's offsets. Candidate
    # rows are one (parent, receiver) pair per waking receiver; tree
    # parents track their children via ACK possession summaries, and the
    # frontier query asks about a different observer per replication
    # (offer_pairs_matrix).

    def prepare_reps(self, topo, schedules_list, workload, rngs):
        R = len(schedules_list)
        n = topo.n_nodes
        parents = np.empty((R, n), dtype=np.int64)
        for k, sched in enumerate(schedules_list):
            parents[k], _ = build_delay_optimal_tree(
                topo, sched.offsets, sched.period
            )
        self._prepare_belief(topo, schedules_list, workload)
        self._rep_parent = parents
        #: (R, n) receivers with a tree parent (never the source).
        self._has_parent = parents >= 0
        self._has_parent[:, SOURCE] = False
        # Quiescence frontier: the only candidate pairs are tree edges.
        self._frontier_r = np.flatnonzero(self._has_parent.any(axis=0))
        # One (parent, receiver) row per waking receiver with a parent.
        key, kk, recv = self._wakes.triples()
        keep = self._has_parent[kk, recv]
        key, kk, recv = key[keep], kk[keep], recv[keep]
        par = parents[kk, recv]
        self._table = PhaseTable(
            self._wakes, key, kk, par, recv, self._wakes.awake(key, par))

    def propose_reps(self, t, rep_ids, awake_by_rep, view: RepSimView):
        empty = np.empty(0, dtype=np.int64)
        kk, ss, rr, sender_awake = self._table.rows(t, rep_ids)
        if kk.size == 0:
            return empty, empty, empty, empty
        # RX-mode rule (see FlashFlooding.propose_reps): a waking
        # non-source parent with an incomplete buffer listens instead of
        # forwarding.
        listen = sender_awake & (ss != SOURCE) & (
            view.held_counts[kk, ss] < view.n_packets
        )
        rows, h_o = self._valid_heads(kk, ss, rr, view, keep=~listen)
        if rows.size == 0:
            return empty, empty, empty, empty
        k_o, s_o, r_o = kk[rows], ss[rows], rr[rows]

        # One TX per parent per slot: a parent serves its first waking
        # child (ascending id) with a valid head — the first flat
        # occurrence per (replication, parent).
        n = self._topo.n_nodes
        _, first_idx = np.unique(k_o * n + s_o, return_index=True)
        chosen_k = k_o[first_idx]  # ascending (replication, sender)
        chosen_s = s_o[first_idx]
        chosen_r = r_o[first_idx]
        chosen_p = h_o[first_idx]

        # Deterministic id back-off: ascending sender id is both the
        # rank order and the order `chosen_*` is already in.
        win = csma_select_reps(
            np.searchsorted(rep_ids, chosen_k), chosen_s, self._topo
        )
        if not win.any():
            return empty, empty, empty, empty
        return (chosen_k[win], chosen_s[win], chosen_r[win], chosen_p[win])

    def next_action_slots(self, t, rep_ids, view: RepSimView):
        # The listen rule and sender conflicts only shrink slots further;
        # the tree-edge offer set stays a sound (conservative) frontier.
        fr = self._frontier_r
        if fr.size == 0:
            return np.full(len(rep_ids), NEVER, dtype=np.int64)
        if self._off_frontier is None:
            self._off_frontier = view.offsets_stack[:, fr]
        observers = self._rep_parent[rep_ids][:, fr]
        offers = self._rep_belief.offer_pairs_matrix(
            rep_ids, observers, fr, view.has_packed)
        return view.earliest_wakes(
            t, rep_ids, fr, offers, self._off_frontier
        )
