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
"""

from __future__ import annotations

import numpy as np

from ..net.topology import Topology

__all__ = ["RepNeighborBelief"]


def _index_array(x) -> np.ndarray:
    """Normalize an iterable of node/packet ids to an int64 index array."""
    if isinstance(x, np.ndarray):
        return x.astype(np.int64, copy=False)
    return np.fromiter((int(v) for v in x), dtype=np.int64)


class RepNeighborBelief:
    """R independent per-node belief stores in one array.

    Replication ``rep``'s slice evolves only with that replication's
    observations, so belief-limited decisions never leak across
    replications. A node keeps beliefs about its graph out-neighbors
    only: belief column ``j`` of node ``v`` is its ``j``-th out-neighbor.

    For M <= 64 packets the backing store packs the packet axis into
    uint64 words (packet ``m`` -> bit ``m``, shape ``(R, n_nodes,
    max_degree)``): belief updates and frontier offer scans become 2-D
    word gathers instead of 3-D boolean gathers plus an (M,) reduction.
    Wider workloads fall back to the ``(R, n_nodes, M, max_degree)``
    boolean tensor.
    """

    def __init__(self, topo: Topology, n_packets: int, n_reps: int):
        if n_packets < 1:
            raise ValueError("need at least one packet")
        if n_reps < 1:
            raise ValueError("need at least one replication")
        n = topo.n_nodes
        nbrs = [topo.out_neighbors(node) for node in range(n)]
        max_deg = max(max((a.size for a in nbrs), default=0), 1)
        #: (observer, receiver) -> belief column, -1 for non-neighbors.
        self._pair_col = np.full((n, n), -1, dtype=np.int64)
        for node, nbs in enumerate(nbrs):
            self._pair_col[node, nbs] = np.arange(nbs.size)
        self._n_packets = int(n_packets)
        if self._n_packets <= 64:
            self._pow2 = np.uint64(1) << np.arange(
                self._n_packets, dtype=np.uint64
            )
            self._packed = np.zeros(
                (int(n_reps), n, max_deg), dtype=np.uint64
            )
            self._full_word = np.uint64((1 << self._n_packets) - 1)
            self._belief4 = None
        else:
            self._pow2 = None
            self._packed = None
            self._belief4 = np.zeros(
                (int(n_reps), n, self._n_packets, max_deg), dtype=bool
            )

    @property
    def n_reps(self) -> int:
        if self._packed is not None:
            return self._packed.shape[0]
        return self._belief4.shape[0]

    def needs_pairs(
        self, kk: np.ndarray, observers: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        """(P, M) believed needs for flat (replication, observer, receiver)."""
        cols = self._pair_col[observers, receivers]
        if np.any(cols < 0):
            bad = int(np.flatnonzero(cols < 0)[0])
            raise KeyError(
                f"node {int(receivers[bad])} is not an out-neighbor of "
                f"{int(observers[bad])}"
            )
        if self._packed is not None:
            words = self._packed[kk, observers, cols]
            return (words[:, None] & self._pow2[None, :]) == 0
        return ~self._belief4[kk, observers, :, cols]

    def sync_possession(
        self, rep: int, observer: int, receiver: int, held
    ) -> None:
        """Absorb a possession summary advertised by ``receiver``.

        Link-layer ACKs in dissemination protocols piggyback the
        receiver's packet summary (Deluge-style version vectors); a
        sender that hears one learns the receiver's *entire* buffer
        state at once. ``held`` lists the packets the receiver holds;
        evidence about a non-neighbor is useless and dropped.
        """
        col = self._pair_col[observer, receiver]
        if col < 0:
            return
        held_idx = _index_array(held)
        if self._packed is not None:
            if held_idx.size:
                self._packed[rep, observer, col] |= np.bitwise_or.reduce(
                    self._pow2[held_idx]
                )
            return
        self._belief4[rep, observer, held_idx, col] = True

    def sync_for_witnesses(
        self, rep: int, witnesses, receiver: int, held
    ) -> None:
        """Broadcast one possession summary to several overhearers."""
        w = _index_array(witnesses)
        if w.size == 0:
            return
        held_idx = _index_array(held)
        if held_idx.size == 0:
            return
        cols = self._pair_col[w, receiver]
        keep = cols >= 0
        if not keep.all():
            w, cols = w[keep], cols[keep]
            if w.size == 0:
                return
        if self._packed is not None:
            self._packed[rep, w, cols] |= np.bitwise_or.reduce(
                self._pow2[held_idx]
            )
            return
        self._belief4[rep, w[:, None], held_idx[None, :], cols[:, None]] = True

    def sync_pairs(
        self,
        kk: np.ndarray,
        observers: np.ndarray,
        receivers: np.ndarray,
        held_rows: np.ndarray,
    ) -> None:
        """Batched :meth:`sync_possession` over flat observation tuples.

        Tuple ``i`` has ``observers[i]`` (in replication ``kk[i]``)
        absorb ``receivers[i]``'s possession summary ``held_rows[i]`` —
        an ``(M,)`` boolean row. Non-neighbor evidence is dropped, like
        the scalar form. Updates only ever set bits, so the batched OR
        is order-independent and matches any serial application order.
        """
        cols = self._pair_col[observers, receivers]
        keep = cols >= 0
        if not keep.all():
            kk, observers, cols = kk[keep], observers[keep], cols[keep]
            held_rows = held_rows[keep]
        if kk.size == 0:
            return
        if self._packed is not None:
            # Any repeated (rep, observer, col) tuple carries an
            # identical possession row (one reception per receiver per
            # slot), so the plain fancy OR is exact.
            words = (held_rows.astype(np.uint64) * self._pow2).sum(
                axis=1, dtype=np.uint64
            )
            self._packed[kk, observers, cols] |= words
            return
        self._belief4[kk, observers, :, cols] |= held_rows

    def sync_pairs_words(
        self,
        kk: np.ndarray,
        observers: np.ndarray,
        receivers: np.ndarray,
        words: np.ndarray,
    ) -> None:
        """:meth:`sync_pairs` with possession already packed to words.

        Only callable in the packed (M <= 64) regime — callers holding
        an engine-maintained possession bitmask skip the (W, M) boolean
        gather entirely.
        """
        cols = self._pair_col[observers, receivers]
        keep = cols >= 0
        if not keep.all():
            kk, observers, cols = kk[keep], observers[keep], cols[keep]
            words = words[keep]
        if kk.size == 0:
            return
        self._packed[kk, observers, cols] |= words

    def sync_ack_summaries(self, outcome, view) -> None:
        """Absorb each non-overheard reception's ACK possession summary.

        The shared observe rule of the ACK-summary protocols (OF, naive,
        FLASH, DCA): the transmitting sender — and only it — learns the
        receiver's whole buffer from the piggybacked summary. One
        batched sync per slot over a
        :class:`~repro.net.radio.RepSlotOutcome`.
        """
        sel = ~outcome.rec_overheard
        if not sel.any():
            return
        kk = outcome.rec_rep[sel]
        observers = outcome.rec_sender[sel]
        receivers = outcome.rec_receiver[sel]
        if self._packed is not None and view.has_packed is not None:
            self.sync_pairs_words(
                kk, observers, receivers, view.has_packed[kk, receivers]
            )
        else:
            self.sync_pairs(
                kk, observers, receivers, view.has_stack[kk, :, receivers]
            )

    def coverage_counts(
        self, kk: np.ndarray, observers: np.ndarray, packets: np.ndarray
    ) -> np.ndarray:
        """Believed holder counts for flat (replication, observer, packet).

        Row ``i``: how many out-neighbors ``observers[i]`` believes hold
        ``packets[i]`` in replication ``kk[i]``. Padding columns never
        hold set bits, so the whole padded row sums exactly.
        """
        if self._packed is not None:
            words = self._packed[kk, observers]  # (C, max_deg)
            bits = (
                words >> packets.astype(np.uint64)[:, None]
            ) & np.uint64(1)
            return bits.sum(axis=1).astype(np.int64)
        return self._belief4[kk, observers, packets, :].sum(axis=1)

    def offer_pairs_matrix(
        self,
        rep_ids: np.ndarray,
        observers: np.ndarray,
        receivers: np.ndarray,
        has_stack: np.ndarray,
        has_packed: "np.ndarray | None" = None,
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
        if self._packed is not None:
            bel = self._packed[kk, obs, cols]
            if has_packed is not None:
                holds_w = has_packed[kk, obs]
            else:
                holds_w = (
                    has_stack[rep_ids[:, None], :, obs].astype(np.uint64)
                    * self._pow2[None, None, :]
                ).sum(axis=2, dtype=np.uint64)
            return ok & ((holds_w & ~bel) != 0)
        believed = self._belief4[kk, obs, :, cols]  # (R', P, M)
        holds = has_stack[rep_ids[:, None], :, obs]  # (R', P, M)
        return ok & (holds & ~believed).any(axis=2)

    def offer_pairs_reps(
        self,
        rep_ids: np.ndarray,
        observers: np.ndarray,
        receivers: np.ndarray,
        has_stack: np.ndarray,
        has_packed: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """(len(rep_ids), P) offer mask across replications.

        ``has_stack`` is the ``(R, M, n_nodes)`` possession stack; pair
        ``j`` offers in replication ``rep_ids[i]`` when its observer holds
        at least one packet it believes the receiver lacks — exactly the
        condition under which the belief-driven protocols would commit a
        transmission on that pair, so offering pairs' receivers form the
        protocol's pending frontier. When the caller supplies the
        engine-maintained ``(R, n)`` possession bitmask the scan runs on
        packed words — two 2-D gathers and one uint64 op per pair
        instead of the 3-D boolean gather.
        """
        cols = self._pair_col[observers, receivers]
        if self._packed is not None:
            bel = self._packed[
                rep_ids[:, None], observers[None, :], cols[None, :]
            ]
            if has_packed is not None:
                holds_w = has_packed[rep_ids[:, None], observers[None, :]]
            else:
                holds_w = (
                    has_stack[rep_ids][:, :, observers].astype(np.uint64)
                    * self._pow2[None, :, None]
                ).sum(axis=1, dtype=np.uint64)
            return (holds_w & ~bel) != 0
        believed = self._belief4[
            rep_ids[:, None], observers[None, :], :, cols[None, :]
        ]  # (R', P, M)
        holds = has_stack[rep_ids][:, :, observers].transpose(0, 2, 1)
        return (holds & ~believed).any(axis=2)

    def rep_state(self, rep: int) -> np.ndarray:
        """Copy of one replication's belief tensor (tests/diagnostics)."""
        if self._packed is not None:
            return (
                self._packed[int(rep)][:, None, :]
                & self._pow2[None, :, None]
            ) != 0
        return self._belief4[int(rep)].copy()
