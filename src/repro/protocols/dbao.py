"""DBAO: Deterministic Back-off Assignment + Overhearing (paper Sec. V-A).

DBAO is the authors' WASA'11 protocol, used in the paper as the best
*practical* approximation of OPT. Two mechanisms:

* **Deterministic back-off assignment.** Each sensor maintains a
  *forwarder subset* of its neighbors in which every member can hear
  every other (a mutually-audible clique, built greedily best-link
  first); only subset members forward to it. Because the subset is a
  clique, carrier sense fully serializes its contention: back-off ranks
  are assigned deterministically — best link quality to the intended
  receiver first, node id as tie-break — and only the rank-0 sender
  transmits while the rest defer silently. Collisions therefore only
  arise between senders serving *different* receivers that happen to
  interfere (cross-receiver hidden terminals), which is exactly the
  residual gap to OPT the paper points out in Fig. 10.

* **Overhearing.** Deferring group members stay awake through the slot,
  hear the winner's frame and the receiver's ACK, and record the
  confirmed reception in their coverage beliefs — suppressing their own
  now-redundant retransmissions of the same packet.

Senders have no oracle: they target packets their *beliefs* say the
receiver lacks, so early transmissions can be redundant; the belief
update rules only record confirmed receptions, keeping beliefs sound
(never wrongly marking a packet as delivered).

``overhearing=False`` ablates the second mechanism (bench
``abl-overhearing``).

The proposal path is fully batched: the per-slot candidate set is the
concatenation of every waking receiver's forwarder clique across all
replications, flattened to parallel (replication, sender, receiver, prr)
arrays that depend only on the wake sets and are therefore cached per
schedule phase. Belief lookups, FCFS heads, the per-sender
best-receiver choice, and the back-off ranking all run as single NumPy
passes over those arrays; each step documents the per-node rule it
implements.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..net.radio import csma_select_reps
from ..net.topology import SOURCE
from ._belief import RepNeighborBelief
from ._repbatch import frontier_pairs
from .base import (
    FloodingProtocol,
    RepSimView,
    phase_cache_period,
    register_protocol,
)

__all__ = ["Dbao", "forwarder_clique"]


def forwarder_clique(topo, receiver: int, anchor: int = -1) -> List[int]:
    """The receiver's forwarder subset: a greedy mutually-audible clique.

    In-neighbors are considered best-link-first; a candidate joins only
    if it can hear (or be heard by) every member already in the clique.
    The result is the paper's "subset of neighbors in which those
    neighbors can hear each other": contention inside it is fully
    serialized by carrier sense.

    ``anchor`` (if >= 0) is seeded into the clique before the greedy pass.
    DBAO anchors each receiver's ETX-tree parent so the clique-edge
    subgraph provably keeps every node reachable from the source — an
    arbitrary clique could otherwise cut a node's only upstream path.
    """
    audible = lambda a, b: topo.has_link(a, b) or topo.has_link(b, a)
    nbs = topo.in_neighbors(receiver)
    order = sorted(nbs.tolist(), key=lambda s: (-topo.link_prr(s, receiver), s))
    clique: List[int] = []
    if anchor >= 0:
        if anchor not in order:
            raise ValueError(
                f"anchor {anchor} is not an in-neighbor of {receiver}"
            )
        clique.append(anchor)
    for s in order:
        if s not in clique and all(audible(s, member) for member in clique):
            clique.append(s)
    return clique


@register_protocol
class Dbao(FloodingProtocol):
    """Deterministic back-off + overhearing flooding."""

    name = "dbao"

    def __init__(self, overhearing: bool = True):
        self.overhearing = bool(overhearing)
        self.init_kwargs = {"overhearing": self.overhearing}
        self._topo = None

    # The batch keys every per-sender/per-group reduction by
    # (replication, sender). Belief state lives in a RepNeighborBelief;
    # the CSMA back-off walk runs once over all replications' ranked
    # candidates (csma_select_reps) and the observe-time belief syncs
    # collapse into one batched update per slot.

    def prepare_reps(self, topo, schedules_list, workload, rngs):
        # No randomness is consumed, and the ETX anchors are
        # period-independent, so one clique build serves replications
        # with heterogeneous periods too.
        from .tree import build_etx_tree

        self._topo = topo
        tree = build_etx_tree(topo, int(schedules_list[0].period))
        fwd_arrays = [
            np.asarray(
                forwarder_clique(topo, r, anchor=int(tree.parent[r])),
                dtype=np.int64,
            )
            for r in range(topo.n_nodes)
        ]
        # Quiescence frontier: every (clique member, receiver) pair of
        # the whole network, flattened once — next_action_slots scans
        # them in one batched belief query.
        self._frontier_s, self._frontier_r = frontier_pairs(fwd_arrays)
        self._rep_belief = RepNeighborBelief(
            topo, workload.n_packets, len(schedules_list)
        )
        self._rep_schedules = list(schedules_list)
        self._rep_cache_period = phase_cache_period(schedules_list)
        self._rep_phase_cache: Dict[int, Tuple] = {}
        # Static forwarder cliques (in clique order) and their link PRRs,
        # flattened once: per-phase row builds gather ranges out of these
        # instead of concatenating hundreds of per-receiver arrays.
        self._fwd_sizes = np.fromiter(
            (f.size for f in fwd_arrays), np.int64, count=len(fwd_arrays),
        )
        self._fwd_starts = np.concatenate(
            ([0], np.cumsum(self._fwd_sizes))
        )
        self._fwd_flat = np.concatenate(fwd_arrays)
        self._fwd_prr_flat = np.concatenate(
            [topo.prr[f, r] for r, f in enumerate(fwd_arrays)]
        )
        self._contender_k = None
        self._contender_s = None
        self._contender_r = None
        self._off_frontier = None
        self._nas_vers_reps = None
        self._nas_offers_reps = None

    def _phase_rows(self, t: int):
        """All-replication candidate rows for one slot's schedule phase.

        Wake sets repeat every period per replication, so the flat
        (replication, sender, receiver, prr, sender-awake) concatenation
        across *all* replications is periodic with the LCM of the
        per-replication periods — built once per LCM phase and reused
        for the rest of the run (uncached when the LCM is unreasonable).
        """
        ck = t % self._rep_cache_period if self._rep_cache_period else None
        if ck is not None:
            hit = self._rep_phase_cache.get(ck)
            if hit is not None:
                return hit
        kk_parts: List[np.ndarray] = []
        s_parts: List[np.ndarray] = []
        r_parts: List[np.ndarray] = []
        p_parts: List[np.ndarray] = []
        aw_parts: List[np.ndarray] = []
        awake_mask = np.zeros(self._topo.n_nodes, dtype=bool)
        for k, sched in enumerate(self._rep_schedules):
            aw = sched.awake_at(t)
            if aw.size == 0:
                continue
            awake_mask[aw] = True
            recv = aw[aw != SOURCE]
            sz = self._fwd_sizes[recv]
            total = int(sz.sum())
            if total:
                seg = np.concatenate(([0], np.cumsum(sz)[:-1]))
                idx = (np.repeat(self._fwd_starts[recv] - seg, sz)
                       + np.arange(total))
                s_part = self._fwd_flat[idx]
                kk_parts.append(np.full(total, k, dtype=np.int64))
                s_parts.append(s_part)
                r_parts.append(np.repeat(recv, sz))
                p_parts.append(self._fwd_prr_flat[idx])
                aw_parts.append(awake_mask[s_part])
            awake_mask[aw] = False
        if kk_parts:
            kk = np.concatenate(kk_parts)
            s_flat = np.concatenate(s_parts)
            r_flat = np.concatenate(r_parts)
            prr_flat = np.concatenate(p_parts)
            sender_awake = np.concatenate(aw_parts)
            # Unique (replication, sender) pairs with a row inverse: the
            # hold-something / listen gate is per pair, so propose_reps
            # evaluates it on the (much smaller) pair set and broadcasts.
            key = kk * self._topo.n_nodes + s_flat
            _, first_idx, inv = np.unique(
                key, return_index=True, return_inverse=True)
            # Rows stored pre-sorted by (rep, sender, best-prr,
            # receiver): any row subset keeps this order under a boolean
            # gather, so the per-slot receiver pick needs no lexsort and
            # no index-array gathers — just masks over these arrays.
            srows = np.lexsort((r_flat, -prr_flat, s_flat, kk))
            # Belief columns are static per (sender, receiver) pair, so
            # the per-slot packed-word scan skips the pair-map lookup.
            col_flat = self._rep_belief._pair_col[s_flat, r_flat]
            if np.any(col_flat < 0):
                bad = int(np.flatnonzero(col_flat < 0)[0])
                raise KeyError(
                    f"node {int(r_flat[bad])} is not an out-neighbor of "
                    f"{int(s_flat[bad])}"
                )
            # The listen rule's static part: a waking non-source sender
            # is silenced iff its buffer is incomplete.
            u_listen = sender_awake[first_idx] & (s_flat[first_idx] != SOURCE)
            k_srt, s_srt, col_srt = kk[srows], s_flat[srows], col_flat[srows]
            # Flattened gather indices (static per phase): per-slot word
            # lookups become single `take` calls instead of multi-array
            # advanced indexing.
            n_nodes = self._topo.n_nodes
            if self._rep_belief._packed is not None:
                max_deg = self._rep_belief._packed.shape[2]
                bel_idx = (k_srt * n_nodes + s_srt) * max_deg + col_srt
            else:
                bel_idx = np.empty(0, dtype=np.int64)
            u_idx = kk[first_idx] * n_nodes + s_flat[first_idx]
            rows = (
                k_srt, s_srt, r_flat[srows], prr_flat[srows],
                col_srt, kk[first_idx], s_flat[first_idx],
                u_listen, inv[srows], bel_idx, u_idx,
            )
        else:
            empty = np.empty(0, dtype=np.int64)
            rows = (empty, empty, empty, np.empty(0, dtype=np.float64),
                    empty, empty, empty, np.empty(0, dtype=bool), empty,
                    empty, empty)
        if ck is not None:
            self._rep_phase_cache[ck] = rows
        return rows

    def propose_reps(self, t, rep_ids, awake_by_rep, view: RepSimView):
        empty = np.empty(0, dtype=np.int64)
        self._contender_k = self._contender_s = self._contender_r = None

        (k_srt, s_srt, r_srt, prr_srt, col_srt,
         u_k, u_s, u_listen, inv_srt, bel_idx, u_idx) = self._phase_rows(t)
        if k_srt.size == 0:
            return empty, empty, empty, empty

        belief = self._rep_belief
        arena = view.get_arena()
        if belief._packed is not None and view.has_packed is not None:
            # One fused gate: the pair-level possession word answers both
            # the listen rule (incomplete buffer != full word) and —
            # combined with the per-row belief word — row validity (the
            # sender holds a bit the row's belief lacks, which subsumes
            # "holds at least one packet"). The survivors are then
            # compressed once via flatnonzero + take into borrowed
            # scratch, and the FCFS argmin only runs on winner rows.
            U = u_idx.size
            hw_u = view.has_packed.take(
                u_idx, out=arena.buf("dbao.hw_u", U, np.uint64))
            elig_u = arena.buf("dbao.elig_u", U, np.bool_)
            np.not_equal(hw_u, belief._full_word, out=elig_u)
            elig_u &= u_listen
            np.invert(elig_u, out=elig_u)
            if rep_ids.size < len(self._rep_schedules):
                active = np.zeros(len(self._rep_schedules), dtype=bool)
                active[rep_ids] = True
                elig_u &= active[u_k]
            T = inv_srt.size
            bel_w = belief._packed.take(
                bel_idx, out=arena.buf("dbao.bel_w", T, np.uint64))
            np.invert(bel_w, out=bel_w)
            cand_w = hw_u.take(
                inv_srt, out=arena.buf("dbao.cand_w", T, np.uint64))
            cand_w &= bel_w
            keep = elig_u.take(
                inv_srt, out=arena.buf("dbao.keep", T, np.bool_))
            keep &= cand_w != 0
            sel = np.flatnonzero(keep)
            if sel.size == 0:
                return empty, empty, empty, empty
            E = sel.size
            k_e = k_srt.take(sel, out=arena.buf("dbao.k_e", E, np.int64))
            s_e = s_srt.take(sel, out=arena.buf("dbao.s_e", E, np.int64))

            # A sender with several waking neighbors in need picks the
            # one it has the best link to, equal links tie-breaking to
            # the smaller receiver id: the first remaining row per
            # (replication, sender); boundaries via the fused pair key.
            pk = arena.buf("dbao.pk", E, np.int64)
            np.multiply(k_e, self._topo.n_nodes, out=pk)
            pk += s_e
            first = arena.buf("dbao.first", E, np.bool_)
            first[0] = True
            np.not_equal(pk[1:], pk[:-1], out=first[1:])
            fsel = sel[first]
            chosen_k = k_srt.take(fsel)  # ascending (rep, sender)
            chosen_s = s_srt.take(fsel)
            chosen_r = r_srt.take(fsel)
            chosen_prr = prr_srt.take(fsel)
            cand = (
                cand_w.take(fsel)[:, None] & belief._pow2[None, :]
            ) != 0
            chosen_p = view.fcfs_heads_masked(chosen_k, chosen_s, cand)
        else:
            # Pair-level gate, evaluated once per unique (replication,
            # sender): a sender must hold at least one packet (else no
            # row of it can validate), and the listen rule silences a
            # waking non-source node with an incomplete buffer — its
            # active slot exists to receive, and transmitting through it
            # would starve schedule-aligned neighbor pairs.
            counts_u = view.held_counts_pairs(u_k, u_s)
            elig_u = (counts_u > 0) & ~(
                u_listen & (counts_u < view.n_packets)
            )
            if rep_ids.size < len(self._rep_schedules):
                active = np.zeros(len(self._rep_schedules), dtype=bool)
                active[rep_ids] = True
                elig_u &= active[u_k]
            if not elig_u.any():
                return empty, empty, empty, empty

            # Surviving rows, already in (rep, sender, best-prr,
            # receiver) order from the phase-level sort.
            m = elig_u[inv_srt]
            k_e = k_srt[m]
            s_e = s_srt[m]
            r_e = r_srt[m]
            prr_e = prr_srt[m]

            needs = belief.needs_pairs(k_e, s_e, r_e)
            heads, valid = view.fcfs_heads_pairs(k_e, s_e, needs)
            if not valid.any():
                return empty, empty, empty, empty
            k_e = k_e[valid]
            s_e = s_e[valid]
            r_e = r_e[valid]
            prr_e = prr_e[valid]
            h_e = heads[valid]

            first = np.ones(s_e.size, dtype=bool)
            first[1:] = (s_e[1:] != s_e[:-1]) | (k_e[1:] != k_e[:-1])
            chosen_k = k_e[first]
            chosen_s = s_e[first]
            chosen_r = r_e[first]
            chosen_p = h_e[first]
            chosen_prr = prr_e[first]

        if self.overhearing:
            # Every contender that chose receiver r hears r's link-layer
            # ACK, winner or not; observe_reps joins these against the
            # slot's receptions in one batched sync.
            self._contender_k = chosen_k
            self._contender_s = chosen_s
            self._contender_r = chosen_r

        # Deterministic back-off rank within each replication (best link
        # first, id tie-break), then one CSMA walk over all
        # replications' ranked candidates. Winner rows come back in
        # (replication, rank) order.
        rank = np.lexsort((chosen_s, -chosen_prr, chosen_k))
        win = csma_select_reps(
            np.searchsorted(rep_ids, chosen_k[rank]), chosen_s[rank],
            self._topo, arena=arena,
        )
        rows = rank[win]
        if rows.size == 0:
            return empty, empty, empty, empty
        return chosen_k[rows], chosen_s[rows], chosen_r[rows], chosen_p[rows]

    def observe_reps(self, t, outcome, view: RepSimView):
        # Transmitting senders always learn from their own ACK, which
        # piggybacks the receiver's possession summary; deferring group
        # members pick the same ACK up by overhearing (when enabled). An
        # overheard reception updates nobody: the third party now holds
        # the packet, and beliefs are about neighbors.
        sel = ~outcome.rec_overheard
        if not sel.any():
            return
        rep_f = outcome.rec_rep[sel]
        recv_f = outcome.rec_receiver[sel]
        send_f = outcome.rec_sender[sel]
        n = view.n_nodes

        if self.overhearing and self._contender_k is not None:
            # Witnesses: every contender whose chosen receiver got a
            # non-overheard reception this slot. At most one such
            # reception per (replication, receiver), so the keys join
            # without ambiguity.
            ckey = self._contender_k * n + self._contender_r
            rkey = rep_f * n + recv_f
            rkey_sorted = np.sort(rkey)
            pos = np.searchsorted(rkey_sorted, ckey)
            pos_c = np.minimum(pos, rkey_sorted.size - 1)
            match = rkey_sorted[pos_c] == ckey
            wk = self._contender_k[match]
            w_obs = self._contender_s[match]
            w_recv = self._contender_r[match]
            # Receivers no contender chose (the winner always contends,
            # so this is defensive): the sender alone absorbs the
            # summary.
            ckey_sorted = np.sort(ckey)
            rpos = np.searchsorted(ckey_sorted, rkey)
            rpos_c = np.minimum(rpos, ckey_sorted.size - 1)
            lone = ckey_sorted[rpos_c] != rkey
            if lone.any():
                wk = np.concatenate([wk, rep_f[lone]])
                w_obs = np.concatenate([w_obs, send_f[lone]])
                w_recv = np.concatenate([w_recv, recv_f[lone]])
        else:
            wk, w_obs, w_recv = rep_f, send_f, recv_f

        if (self._rep_belief._packed is not None
                and view.has_packed is not None):
            self._rep_belief.sync_pairs_words(
                wk, w_obs, w_recv, view.has_packed[wk, w_recv]
            )
        else:
            self._rep_belief.sync_pairs(
                wk, w_obs, w_recv, view.has_stack[wk, :, w_recv]
            )

    def next_action_slots(self, t, rep_ids, view: RepSimView):
        # A receiver is actionable when some clique member holds a packet
        # it believes that receiver lacks — the same offer condition the
        # proposal's needs/FCFS pass enforces, minus the per-slot listen
        # rule and back-off (which only shrink a slot's batch, keeping
        # this bound conservative). DBAO's back-off carries no
        # cross-slot state, so schedule progression alone decides when
        # the frontier can next transmit.
        if self._off_frontier is None:
            self._off_frontier = view.offsets_stack[:, self._frontier_r]
        # Per-replication offer rows are cached keyed on the engine's
        # state-version counters: a replication that keeps probing
        # between state changes (slot-stepping through a quiet stretch)
        # recomputes nothing but the earliest-wake reduction.
        if self._nas_offers_reps is None:
            n_reps = view.n_reps
            self._nas_offers_reps = np.zeros(
                (n_reps, self._frontier_r.size), dtype=bool)
            self._nas_vers_reps = np.full(n_reps, -1, dtype=np.int64)
        stale = rep_ids[
            self._nas_vers_reps[rep_ids] != view.state_version[rep_ids]]
        if stale.size:
            self._nas_offers_reps[stale] = self._rep_belief.offer_pairs_reps(
                stale, self._frontier_s, self._frontier_r, view.has_stack,
                view.has_packed,
            )
            self._nas_vers_reps[stale] = view.state_version[stale]
        offers = self._nas_offers_reps[rep_ids]
        return view.earliest_wakes(
            t, rep_ids, self._frontier_r, offers, self._off_frontier
        )
