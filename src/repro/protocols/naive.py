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

from typing import List

import numpy as np

from ._belief import BeliefFlooding
from ._repbatch import candidate_rows, flatten_sender_lists
from .base import PhaseTable, RepSimView, register_protocol

__all__ = ["NaiveFlooding"]


@register_protocol
class NaiveFlooding(BeliefFlooding):
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
    # rows per wake phase, built once per run; the persistence and
    # uniform-pick draws stay a small Python loop over the
    # per-(replication, sender) option groups so each replication
    # consumes its channel stream in a fixed order.

    def prepare_reps(self, topo, schedules_list, workload, rngs):
        # Quiescence frontier: the proposal considers every (in-neighbor,
        # waking receiver) link, so the frontier is every receiver some
        # believing holder could serve. Exact for naive: options (and
        # hence persistence draws — the RNG-quiescence requirement) are
        # nonempty iff an offering link has a waking receiver.
        in_lists = [topo.in_neighbors(r) for r in range(topo.n_nodes)]
        self._prepare_belief(topo, schedules_list, workload, in_lists)
        self._rep_rngs = list(rngs)
        self._table = PhaseTable(self._wakes, *candidate_rows(
            self._wakes, *flatten_sender_lists(in_lists)))

    def propose_reps(self, t, rep_ids, awake_by_rep, view: RepSimView):
        empty = np.empty(0, dtype=np.int64)
        kk, ss, rr = self._table.rows(t, rep_ids)
        if kk.size == 0:
            return empty, empty, empty, empty
        rows, h_o = self._valid_heads(kk, ss, rr, view)
        if rows.size == 0:
            return empty, empty, empty, empty
        k_o, s_o, r_o = kk[rows], ss[rows], rr[rows]

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
