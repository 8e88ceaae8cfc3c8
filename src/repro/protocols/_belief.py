"""Neighbor-coverage beliefs shared by the practical protocols.

A sender in a real low-duty-cycle network does not know which packets its
neighbors hold; it knows only what it can infer from link-layer
acknowledgements of its own transmissions and from ACKs it overhears
while awake in transmit mode. :class:`RepNeighborBelief` stores exactly
that inference — per replication and node, which packets each
out-neighbor is known to hold.

Beliefs are *sound under our update rules* (only confirmed receptions are
recorded), so a sender may waste transmissions on packets the receiver
already has, but never wrongly skips a needed packet. The DBAO and OF
implementations both rely on this one-sided-error property for their
coverage guarantees; a property test enforces it.

:class:`BeliefFlooding` is the protocol half: the valid-row/FCFS-head
step, the observe rule and the quiescence frontier every belief-driven
protocol shares.
"""

from __future__ import annotations

import numpy as np

from ..net.topology import Topology
from ._repbatch import frontier_pairs
from .base import FloodingProtocol, PacketWords, WakeStack

__all__ = ["RepNeighborBelief", "BeliefFlooding"]


class RepNeighborBelief:
    """R independent per-node belief stores in one array.

    Replication ``rep``'s slice evolves only with that replication's
    observations, so belief-limited decisions never leak across
    replications. A node keeps beliefs about its graph out-neighbors
    only: belief column ``j`` of node ``v`` is its ``j``-th out-neighbor.

    The store holds one packet set per (replication, node, column) in
    the :class:`~repro.protocols.base.PacketWords` layout, shape ``(R,
    n_nodes, max_degree, W)``: belief updates and offer scans are word
    gathers and word ops against the engine's possession words.
    """

    def __init__(self, topo: Topology, n_packets: int, n_reps: int):
        if n_reps < 1:
            raise ValueError("need at least one replication")
        self.packet_words = PacketWords(n_packets)
        n = topo.n_nodes
        nbrs = [topo.out_neighbors(node) for node in range(n)]
        max_deg = max(max((a.size for a in nbrs), default=0), 1)
        #: (observer, receiver) -> belief column, -1 for non-neighbors.
        self._pair_col = np.full((n, n), -1, dtype=np.int64)
        for node, nbs in enumerate(nbrs):
            self._pair_col[node, nbs] = np.arange(nbs.size)
        self._words = np.zeros(
            (int(n_reps), n, max_deg, self.packet_words.n_words),
            dtype=np.uint64)

    @property
    def n_reps(self) -> int:
        return self._words.shape[0]

    def word_rows(self) -> np.ndarray:
        """The store as ``(R * n * max_degree, W)`` word rows, indexed
        by :meth:`word_row_index`."""
        return self._words.reshape(-1, self._words.shape[3])

    def word_row_index(
        self, kk: np.ndarray, observers: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        """Rows of :meth:`word_rows` holding the beliefs of flat
        (replication, observer, receiver) neighbor tuples."""
        cols = self._pair_col[observers, receivers]
        if np.any(cols < 0):
            bad = int(np.flatnonzero(cols < 0)[0])
            raise KeyError(
                f"node {int(receivers[bad])} is not an out-neighbor of "
                f"{int(observers[bad])}"
            )
        _, n, max_deg, _ = self._words.shape
        return (kk * n + observers) * max_deg + cols

    def offer_words(
        self, kk: np.ndarray, observers: np.ndarray, receivers: np.ndarray,
        has_packed: np.ndarray,
    ) -> np.ndarray:
        """(P, W) offer words for flat (replication, observer, receiver).

        Bit ``m`` of row ``i`` is set when ``observers[i]`` holds packet
        ``m`` (read off the engine's ``(R, n, W)`` possession words) and
        believes ``receivers[i]`` lacks it — the row's FCFS candidates.
        Both gathers are row takes on fused flat indices.
        """
        believed = self.word_rows().take(
            self.word_row_index(kk, observers, receivers), axis=0)
        holds = has_packed.reshape(-1, has_packed.shape[2]).take(
            kk * has_packed.shape[1] + observers, axis=0)
        return holds & ~believed

    def sync(
        self,
        kk: np.ndarray,
        observers: np.ndarray,
        receivers: np.ndarray,
        has_packed: np.ndarray,
    ) -> None:
        """Absorb possession summaries over flat observation tuples.

        Tuple ``i`` has ``observers[i]`` (in replication ``kk[i]``)
        learn ``receivers[i]``'s *entire* buffer at once — the summary a
        link-layer ACK piggybacks in dissemination protocols
        (Deluge-style version vectors) — read off the engine's ``(R, n,
        W)`` possession words. Evidence about a non-neighbor is useless
        and dropped. Updates only ever set bits, and any repeated
        (replication, observer, receiver) tuple carries an identical
        summary, so the batched OR is order-independent and matches any
        serial application order.
        """
        cols = self._pair_col[observers, receivers]
        keep = cols >= 0
        if not keep.all():
            kk, observers, receivers = kk[keep], observers[keep], receivers[keep]
            cols = cols[keep]
        if kk.size == 0:
            return
        self._words[kk, observers, cols] |= has_packed[kk, receivers]

    def coverage_counts(
        self, kk: np.ndarray, observers: np.ndarray, packets: np.ndarray
    ) -> np.ndarray:
        """Believed holder counts for flat (replication, observer, packet).

        Row ``i``: how many out-neighbors ``observers[i]`` believes hold
        ``packets[i]`` in replication ``kk[i]``. Padding columns never
        hold set bits, so the whole padded row sums exactly.
        """
        layout = self.packet_words
        words = self._words[kk, observers, :, layout.word[packets]]
        bits = (words & layout.bit[packets][:, None]) != 0  # (C, max_deg)
        return bits.sum(axis=1, dtype=np.int64)

    def offer_pairs_matrix(
        self,
        rep_ids: np.ndarray,
        observers: np.ndarray,
        receivers: np.ndarray,
        has_packed: np.ndarray,
    ) -> np.ndarray:
        """:meth:`offer_pairs_reps` with per-replication observers.

        ``observers`` is ``(len(rep_ids), P)`` — protocols whose
        forwarding structure differs per replication (DCA's
        schedule-dependent trees) ask about a different sender per
        replication for the same frontier receiver. Entries ``< 0`` mark
        pairs with no observer in that replication (never offer).
        """
        valid = observers >= 0
        obs = np.where(valid, observers, 0)
        cols = self._pair_col[obs, receivers[None, :]]
        ok = valid & (cols >= 0)
        cols = np.where(ok, cols, 0)
        kk = rep_ids[:, None]
        bel = self._words[kk, obs, cols]  # (R', P, W)
        return ok & (has_packed[kk, obs] & ~bel).any(axis=2)

    def offer_pairs_reps(
        self,
        rep_ids: np.ndarray,
        observers: np.ndarray,
        receivers: np.ndarray,
        has_packed: np.ndarray,
    ) -> np.ndarray:
        """(len(rep_ids), P) offer mask across replications.

        Pair ``j`` offers in replication ``rep_ids[i]`` when its observer
        holds at least one packet (read off the engine's ``(R, n, W)``
        possession words) it believes the receiver lacks — exactly the
        condition under which the belief-driven protocols would commit a
        transmission on that pair, so offering pairs' receivers form the
        protocol's pending frontier.
        """
        cols = self._pair_col[observers, receivers]
        kk = rep_ids[:, None]
        bel = self._words[kk, observers[None, :], cols[None, :]]
        return (has_packed[kk, observers[None, :]] & ~bel).any(axis=2)

    def rep_state(self, rep: int) -> np.ndarray:
        """One replication's beliefs as an ``(n, M, max_degree)``
        boolean tensor (tests/diagnostics)."""
        return self.packet_words.unpack(self._words[int(rep)]).transpose(
            0, 2, 1)


class BeliefFlooding(FloodingProtocol):
    """Base of the protocols whose senders act on neighbor beliefs.

    Subclasses call :meth:`_prepare_belief` from ``prepare_reps`` and
    end it by building their candidate rows into ``self._table``, a
    :class:`~repro.protocols.base.PhaseTable` over ``self._wakes``. Each
    slot they read the executing replications' rows from the table and
    narrow them to valid rows with FCFS heads through
    :meth:`_valid_heads`. They inherit the shared observe rule and —
    given each receiver's candidate senders — the shared quiescence
    frontier.
    """

    def _prepare_belief(self, topo, schedules_list, workload,
                        sender_lists=None) -> None:
        """Per-run belief state; ``sender_lists[r]`` lists receiver
        ``r``'s candidate senders, whose pairs form the frontier."""
        self._topo = topo
        self._rep_belief = RepNeighborBelief(
            topo, workload.n_packets, len(schedules_list))
        self._wakes = WakeStack(schedules_list)
        #: ``(kk, senders, receivers)`` of the last proposal's contenders
        #: that overhear their chosen receiver's ACK, or ``None``.
        self._witnesses = None
        self._off_frontier = None
        if sender_lists is not None:
            self._frontier_s, self._frontier_r = frontier_pairs(sender_lists)

    def _valid_heads(self, kk, ss, rr, view, keep=None):
        """The valid candidate rows and their FCFS heads.

        A ``(replication, sender, receiver)`` row is valid when its
        sender holds a packet it believes the receiver lacks; its head
        is the earliest-arrived such packet
        (:meth:`~repro.protocols.base.RepSimView.fcfs_head`). ``keep``
        optionally masks rows out first — per-row gates that need no
        head, such as listen rules or OF's lateness bound — so no head
        is computed for a row they drop. Returns ``(rows, heads)``: the
        ascending indices of the kept valid rows and their heads.

        Validity is a test of the row's offer words, and the head argmin
        runs on valid rows only.
        """
        idx = None
        if keep is not None:
            idx = np.flatnonzero(keep)
            kk, ss, rr = kk[idx], ss[idx], rr[idx]
        words = self._rep_belief.offer_words(kk, ss, rr, view.has_packed)
        rows = np.flatnonzero(words.any(axis=1))
        heads = view.fcfs_heads_masked(
            kk[rows], ss[rows], view.packet_words.unpack(words[rows]))
        if idx is not None:
            rows = idx[rows]
        return rows, heads

    def observe_reps(self, t, outcome, view) -> None:
        """Absorb each non-overheard reception's ACK possession summary.

        The transmitting sender learns the receiver's whole buffer from
        the summary its ACK piggybacks, and so does every recorded
        witness whose chosen receiver was served. An overheard reception
        updates nobody: the third party now holds the packet, and
        beliefs are about neighbors.
        """
        sel = ~outcome.rec_overheard
        if not sel.any():
            return
        kk = outcome.rec_rep[sel]
        observers = outcome.rec_sender[sel]
        receivers = outcome.rec_receiver[sel]
        if self._witnesses is not None:
            kk, observers, receivers = self._join_witnesses(
                kk, observers, receivers, view.n_nodes)
        self._rep_belief.sync(kk, observers, receivers, view.has_packed)

    def _join_witnesses(self, kk, observers, receivers, n):
        """Append the witnesses whose chosen receiver got a reception.

        At most one non-overheard reception lands per (replication,
        receiver) per slot, so the keys join without ambiguity; a winner
        is its own witness, and the repeated tuple ORs an identical
        summary.
        """
        wk, ws, wr = self._witnesses
        wkey = wk * n + wr
        rkey = np.sort(kk * n + receivers)
        pos = np.minimum(np.searchsorted(rkey, wkey), rkey.size - 1)
        match = rkey[pos] == wkey
        if not match.any():
            return kk, observers, receivers
        return (np.concatenate([kk, wk[match]]),
                np.concatenate([observers, ws[match]]),
                np.concatenate([receivers, wr[match]]))

    def next_action_slots(self, t, rep_ids, view):
        """Earliest wake of a receiver some believing holder could serve.

        A frontier pair offers when its sender holds a packet it
        believes the receiver lacks — the condition under which the
        proposal could commit a row on it. Per-slot gates (listen rule,
        back-off, lateness, persistence, concurrency caps) only shrink a
        slot's batch, so the bound stays sound.
        """
        if self._off_frontier is None:
            self._off_frontier = view.offsets_stack[:, self._frontier_r]
        offers = self._rep_belief.offer_pairs_reps(
            rep_ids, self._frontier_s, self._frontier_r, view.has_packed)
        return view.earliest_wakes(
            t, rep_ids, self._frontier_r, offers, self._off_frontier
        )
