"""OF: Opportunistic Flooding (Guo et al., MobiCom'09; paper Sec. V-A).

OF floods over an energy-optimal (ETX) tree and augments it with
*opportunistic* forwarding over non-tree links, gated by a sender-side
statistical-delay decision:

* **Tree forwarding** — a node always forwards a needed packet to a
  waking tree child (standard tree flooding).
* **Opportunistic forwarding** — when a non-tree out-neighbor ``r``
  wakes, the sender forwards packet ``p`` only if the copy is
  *statistically early*: its age plus the expected hop delay beats the
  ``q``-quantile of ``r``'s tree-path delay distribution. Late copies are
  suppressed — the tree will deliver them about as fast anyway, and
  transmitting them would only waste energy and cause collisions.
* **Random back-off** — contending senders that hear each other pick a
  winner by random back-off (OF has no deterministic rank assignment);
  hidden senders still collide.

The quantile threshold ``opp_quantile`` is OF's key knob (the MobiCom
paper's forwarding-probability threshold); the ablation bench sweeps it.
"""

from __future__ import annotations

import numpy as np

from ..net.radio import csma_select_reps
from ._belief import BeliefFlooding
from ._repbatch import candidate_rows, flatten_sender_lists
from .base import RepSimView, register_protocol
from .tree import build_etx_tree

__all__ = ["OpportunisticFlooding"]


@register_protocol
class OpportunisticFlooding(BeliefFlooding):
    """ETX-tree flooding with statistically-gated opportunistic links."""

    name = "of"

    def __init__(self, opp_quantile: float = 0.8):
        if not (0.0 < opp_quantile < 1.0):
            raise ValueError(
                f"opportunistic quantile must be in (0, 1), got {opp_quantile}"
            )
        self.opp_quantile = float(opp_quantile)
        self.init_kwargs = {"opp_quantile": self.opp_quantile}
        self._topo = None

    # OF's proposal flattens to (replication, sender, receiver) rows per
    # schedule phase: the statistical gate becomes one vectorized float
    # comparison over the rows, the one-TX-per-sender rule a
    # first-row-per-(replication, sender) pick, and the random back-off
    # a per-replication permutation drawn from each replication's own
    # channel stream.

    def prepare_reps(self, topo, schedules_list, workload, rngs):
        # No randomness is consumed. The ETX-tree parents (and so the
        # tree-edge set) are period-independent, while the delay
        # statistics the opportunistic gate tests scale with the wake
        # period — build those per distinct period so a cross-cell stack
        # mixing duty cycles gates each replication by its own period.
        n = topo.n_nodes
        in_lists = [topo.in_neighbors(r) for r in range(n)]
        # Quiescence frontier: every believed in-neighbor link with a
        # non-source receiver. The statistical lateness gate only
        # suppresses choices, so this ungated offer set is a
        # conservative superset — crucially it also bounds the back-off
        # permutation draw: choices (and the RNG consumption) are empty
        # whenever no link offers.
        self._prepare_belief(topo, schedules_list, workload, in_lists)
        self._rep_rngs = list(rngs)
        self._in_rows = flatten_sender_lists(in_lists)
        periods = [int(s.period) for s in schedules_list]
        distinct = sorted(set(periods))
        quant = np.empty((len(distinct), n))
        own = np.empty((len(distinct), n))
        hop = np.empty((len(distinct), n, n))
        trees = {}
        for d, period in enumerate(distinct):
            tree = trees[period] = build_etx_tree(topo, period)
            quant[d] = [
                tree.delay_quantile(v, self.opp_quantile) for v in range(n)
            ]
            own[d] = np.asarray(tree.delay_mean, dtype=np.float64)
            # Expected hop delay T / q per link.
            with np.errstate(divide="ignore"):
                hop[d] = np.where(topo.prr > 0.0, period / topo.prr, np.inf)
        self._pidx = np.asarray(
            [distinct.index(p) for p in periods], dtype=np.int64)
        self._quant_stack = quant
        self._own_stack = own
        self._hop_stack = hop
        tree_edge = np.zeros((n, n), dtype=bool)
        parent = np.asarray(trees[periods[0]].parent, dtype=np.int64)
        kids = np.flatnonzero(parent >= 0)
        tree_edge[parent[kids], kids] = True
        self._tree_edge = tree_edge

    def _phase_rows(self, t: int):
        """Candidate rows plus OF's static gate columns."""
        kk, ss, rr = candidate_rows(self._rep_schedules, t, *self._in_rows)
        pid = self._pidx[kk]
        own_r = self._own_stack[pid, ss]
        return (
            kk, ss, rr,
            self._tree_edge[ss, rr],
            own_r,
            self._hop_stack[pid, ss, rr],
            self._quant_stack[pid, rr],
            np.isfinite(own_r),
        )

    def propose_reps(self, t, rep_ids, awake_by_rep, view: RepSimView):
        empty = np.empty(0, dtype=np.int64)
        (kk, ss, rr, tree_e, own_r, hop_r, quant_r,
         fin) = self._slot_rows(t, rep_ids)
        if kk.size == 0:
            return empty, empty, empty, empty
        needs = self._rep_belief.needs_pairs(kk, ss, rr)
        heads, valid = view.fcfs_heads_pairs(kk, ss, needs)
        if not valid.any():
            return empty, empty, empty, empty
        # The statistical gate. Tree edges always forward; an
        # opportunistic link forwards only statistically-early copies.
        # The sender estimates how long the packet has been in flight
        # from the copy's arrival at itself: it arrived after roughly its
        # own tree-path delay, so age ~ (t - arrival_here) + E[tree delay
        # to here], and the extra hop must still beat the receiver's
        # tree-delay quantile. Heads on invalid rows are argmin garbage;
        # `valid &` masks them out.
        arrival = view.arrival_stack[kk, heads, ss]
        age = (t - arrival) + own_r
        ok = valid & (tree_e | (fin & (age + hop_r <= quant_r)))
        if not ok.any():
            return empty, empty, empty, empty
        k_o, s_o, r_o, h_o = kk[ok], ss[ok], rr[ok], heads[ok]

        # One TX per sender per slot: a sender serves the first waking
        # receiver (ascending id, in-neighbor order) whose row is valid
        # and gated — the first flat occurrence per (replication,
        # sender).
        n = self._topo.n_nodes
        _, first_idx = np.unique(k_o * n + s_o, return_index=True)
        chosen_k = k_o[first_idx]  # ascending (replication, sender)
        chosen_s = s_o[first_idx]
        chosen_r = r_o[first_idx]
        chosen_p = h_o[first_idx]

        # Random back-off (OF has no deterministic rank assignment):
        # each replication with a non-empty choice set draws one
        # permutation of its contenders from its own channel stream.
        reps_u, starts = np.unique(chosen_k, return_index=True)
        bounds = np.append(starts, chosen_k.size)
        parts = []
        for i, k in enumerate(reps_u.tolist()):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            parts.append(lo + self._rep_rngs[k].permutation(hi - lo))
        rank = np.concatenate(parts)
        win = csma_select_reps(
            np.searchsorted(rep_ids, chosen_k[rank]), chosen_s[rank],
            self._topo,
        )
        rows = rank[win]
        if rows.size == 0:
            return empty, empty, empty, empty
        return chosen_k[rows], chosen_s[rows], chosen_r[rows], chosen_p[rows]
