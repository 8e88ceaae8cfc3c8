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
arrays that depend only on the wake sets and are therefore built once
per run, one wake period per replication. Belief lookups, FCFS heads,
the per-sender best-receiver choice, and the back-off ranking all run
as single NumPy passes over those arrays; each step documents the
per-node rule it implements.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..net.radio import csma_select_reps
from ..net.topology import SOURCE
from ._belief import BeliefFlooding
from ._repbatch import candidate_rows, flatten_sender_lists
from .base import PhaseTable, RepSimView, register_protocol

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
class Dbao(BeliefFlooding):
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

        tree = build_etx_tree(topo, int(schedules_list[0].period))
        fwd_arrays = [
            np.asarray(
                forwarder_clique(topo, r, anchor=int(tree.parent[r])),
                dtype=np.int64,
            )
            for r in range(topo.n_nodes)
        ]
        # Quiescence frontier: every (clique member, receiver) pair of
        # the whole network. A receiver is actionable when some clique
        # member holds a packet it believes that receiver lacks — the
        # offer condition the proposal's gate enforces, minus the
        # per-slot listen rule and back-off, which only shrink a slot's
        # batch. The back-off carries no cross-slot state, so schedule
        # progression alone decides when the frontier can next transmit.
        self._prepare_belief(topo, schedules_list, workload, fwd_arrays)
        # Candidate rows from the static forwarder cliques (in clique
        # order), stored per phase group sorted by (sender, best prr,
        # receiver): the rows a slot gathers keep that order per
        # replication, so the per-slot receiver pick needs no lexsort.
        key, kk, ss, rr, sender_awake = candidate_rows(
            self._wakes, *flatten_sender_lists(fwd_arrays),
            with_sender_awake=True)
        prr = topo.prr[ss, rr]
        srt = np.lexsort((rr, -prr, ss, key))
        key, kk, ss, rr = key[srt], kk[srt], ss[srt], rr[srt]
        # The listen rule's static part: a waking non-source sender is
        # silenced iff its buffer is incomplete. The flattened gather
        # indices make the per-slot word lookups single row takes: the
        # row's belief words and its sender's possession words, whose
        # index is also the fused (replication, sender) key.
        self._table = PhaseTable(
            self._wakes, key, kk, ss, rr, prr[srt],
            sender_awake[srt] & (ss != SOURCE),
            self._rep_belief.word_row_index(kk, ss, rr),
            kk * topo.n_nodes + ss,
        )

    def propose_reps(self, t, rep_ids, awake_by_rep, view: RepSimView):
        empty = np.empty(0, dtype=np.int64)
        self._witnesses = None

        (k_srt, s_srt, r_srt, prr_srt, listen, bel_idx,
         pair) = self._table.rows(t, rep_ids)
        if k_srt.size == 0:
            return empty, empty, empty, empty

        # One fused gate: the sender's possession words answer both the
        # listen rule (incomplete buffer != full set) and — combined
        # with the row's belief words — row validity (the sender holds
        # a packet the row's belief lacks, which subsumes "holds at
        # least one packet"). The survivors are then compressed once via
        # flatnonzero + take, and the FCFS argmin only runs on winner
        # rows.
        layout = view.packet_words
        hw = view.has_packed.reshape(-1, layout.n_words).take(pair, axis=0)
        cand_w = hw & ~self._rep_belief.word_rows().take(bel_idx, axis=0)
        sel = np.flatnonzero(
            ~((hw != layout.full).any(axis=1) & listen)
            & cand_w.any(axis=1))
        if sel.size == 0:
            return empty, empty, empty, empty

        # A sender with several waking neighbors in need picks the one
        # it has the best link to, equal links tie-breaking to the
        # smaller receiver id: the first remaining row per (replication,
        # sender); boundaries via the fused pair key.
        pk = pair.take(sel)
        first = np.empty(sel.size, dtype=bool)
        first[0] = True
        np.not_equal(pk[1:], pk[:-1], out=first[1:])
        fsel = sel[first]
        chosen_k = k_srt.take(fsel)  # ascending (rep, sender)
        chosen_s = s_srt.take(fsel)
        chosen_r = r_srt.take(fsel)
        chosen_prr = prr_srt.take(fsel)
        chosen_p = view.fcfs_heads_masked(
            chosen_k, chosen_s, layout.unpack(cand_w.take(fsel, axis=0)))

        if self.overhearing:
            # Every contender that chose receiver r hears r's link-layer
            # ACK, winner or not; observe_reps joins these against the
            # slot's receptions in one batched sync.
            self._witnesses = (chosen_k, chosen_s, chosen_r)

        # Deterministic back-off rank within each replication (best link
        # first, id tie-break), then one CSMA walk over all
        # replications' ranked candidates. Winner rows come back in
        # (replication, rank) order.
        rank = np.lexsort((chosen_s, -chosen_prr, chosen_k))
        win = csma_select_reps(
            np.searchsorted(rep_ids, chosen_k[rank]), chosen_s[rank],
            self._topo,
        )
        rows = rank[win]
        if rows.size == 0:
            return empty, empty, empty, empty
        return chosen_k[rows], chosen_s[rows], chosen_r[rows], chosen_p[rows]
