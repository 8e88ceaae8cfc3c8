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
from .base import NEVER, PhaseTable, RepSimView, register_protocol
from .tree import build_etx_tree

__all__ = ["OpportunisticFlooding"]


def _early(lag, own, hop, quant):
    """OF's lateness test ``((lag + own) + hop) <= quant``, in exactly
    that operation order.

    ``lag`` is an int64 slot difference, the rest float64. The test is
    monotone in ``lag``: a lag is finite, so whether a sum is NaN or
    infinite depends on ``own`` and ``hop`` alone; IEEE addition and
    rounding are monotone in each operand; and NaN compares false at
    every lag. A test that passes at some lag therefore passes at every
    smaller one, which is what lets OF bound its gate with a node's
    latest arrival instead of the head's.
    """
    return (lag + own) + hop <= quant


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
    # wake phase, built once per run: the statistical gate becomes one
    # vectorized float comparison over the rows, the one-TX-per-sender
    # rule a first-row-per-(replication, sender) pick, and the random
    # back-off a per-replication permutation drawn from each
    # replication's own channel stream.

    def prepare_reps(self, topo, schedules_list, workload, rngs):
        # No randomness is consumed. The ETX-tree parents (and so the
        # tree-edge set) are period-independent, while the delay
        # statistics the opportunistic gate tests scale with the wake
        # period — build those per distinct period so a cross-cell stack
        # mixing duty cycles gates each replication by its own period.
        n = topo.n_nodes
        in_lists = [topo.in_neighbors(r) for r in range(n)]
        # Quiescence frontier: every in-neighbor link with a non-source
        # receiver, each opportunistic one gated by the lateness bound
        # (next_action_slots).
        self._prepare_belief(topo, schedules_list, workload, in_lists)
        self._rep_rngs = list(rngs)
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
        tree_edge = np.zeros((n, n), dtype=bool)
        parent = np.asarray(trees[periods[0]].parent, dtype=np.int64)
        kids = np.flatnonzero(parent >= 0)
        tree_edge[parent[kids], kids] = True
        # The frontier's static gate columns, one per (period, pair),
        # and its receivers: wakes are computed per receiver, then
        # expanded to the pairs.
        fs, fr = self._frontier_s, self._frontier_r
        self._fr_nodes, self._fr_inv = np.unique(fr, return_inverse=True)
        self._fr_tree = tree_edge[fs, fr]
        self._fr_own = own[:, fs]
        self._fr_hop = hop[:, fs, fr]
        self._fr_quant = quant[:, fr]
        self._fr_fin = np.isfinite(self._fr_own)
        # Candidate rows plus OF's static gate columns.
        key, kk, ss, rr = candidate_rows(
            self._wakes, *flatten_sender_lists(in_lists))
        pid = self._pidx[kk]
        own_r = own[pid, ss]
        self._table = PhaseTable(
            self._wakes, key, kk, ss, rr, tree_edge[ss, rr], own_r,
            hop[pid, ss, rr], quant[pid, rr], np.isfinite(own_r))

    def propose_reps(self, t, rep_ids, awake_by_rep, view: RepSimView):
        empty = np.empty(0, dtype=np.int64)
        (kk, ss, rr, tree_e, own_r, hop_r, quant_r,
         fin) = self._table.rows(t, rep_ids)
        if kk.size == 0:
            return empty, empty, empty, empty
        # The statistical gate. Tree edges always forward; an
        # opportunistic link forwards only statistically-early copies.
        # The sender estimates how long the packet has been in flight
        # from the copy's arrival at itself: it arrived after roughly its
        # own tree-path delay, so age ~ (t - arrival_here) + E[tree delay
        # to here], and the extra hop must still beat the receiver's
        # tree-delay quantile. The head arrived no later than the
        # sender's latest arrival, so a row that fails the gate at that
        # arrival fails it at the head's too (_early): such rows are
        # dropped before any head is computed, and the exact gate runs
        # on the heads of the valid rest.
        latest = view.latest_arrival.take(kk * view.n_nodes + ss)
        rows, heads = self._valid_heads(
            kk, ss, rr, view,
            keep=tree_e | (fin & _early(t - latest, own_r, hop_r, quant_r)),
        )
        arrival = view.arrival_stack[kk[rows], heads, ss[rows]]
        ok = tree_e[rows] | (fin[rows] & _early(
            t - arrival, own_r[rows], hop_r[rows], quant_r[rows]))
        if not ok.any():
            return empty, empty, empty, empty
        rows = rows[ok]
        k_o, s_o, r_o, h_o = kk[rows], ss[rows], rr[rows], heads[ok]

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
        # each replication with two or more contenders draws one
        # permutation of them from its own channel stream. A lone
        # contender keeps its place: permutation(1) draws nothing.
        reps_u, starts, counts = np.unique(
            chosen_k, return_index=True, return_counts=True)
        rank = np.arange(chosen_k.size)
        multi = counts > 1
        for k, lo, size in zip(reps_u[multi].tolist(),
                               starts[multi].tolist(),
                               counts[multi].tolist()):
            rank[lo:lo + size] = lo + self._rep_rngs[k].permutation(size)
        win = csma_select_reps(
            np.searchsorted(rep_ids, chosen_k[rank]), chosen_s[rank],
            self._topo,
        )
        rows = rank[win]
        if rows.size == 0:
            return empty, empty, empty, empty
        return chosen_k[rows], chosen_s[rows], chosen_r[rows], chosen_p[rows]

    def next_action_slots(self, t, rep_ids, view: RepSimView):
        """Earliest wake of a receiver some believing holder could serve
        through the lateness gate.

        A frontier pair offers as in the shared belief frontier, and an
        opportunistic pair counts only if it passes the gate at its
        receiver's earliest believed wake ``w``, with the sender's
        latest arrival ``L`` standing in for its head's arrival ``a``.
        That bound is sound: nothing changes during a quiescent span,
        and any later wake ``w' >= w`` has ``w - L <= w' - a``, so a
        pair that fails the bound fails the exact gate at every wake
        until a traffic slot, which the other pairs bound. With one
        packet ``L = a`` and the bound is exact. OF draws its back-off
        permutation only when some row passes, so skipped slots consume
        no randomness.
        """
        if self._frontier_s.size == 0:
            return np.full(len(rep_ids), NEVER, dtype=np.int64)
        if self._off_frontier is None:
            self._off_frontier = view.offsets_stack[:, self._fr_nodes]
        wakes = view.next_wakes(
            t, rep_ids, self._fr_nodes, self._off_frontier,
        ).min(axis=2)[:, self._fr_inv]
        pid = self._pidx[rep_ids]
        lag = wakes - view.latest_arrival[rep_ids[:, None], self._frontier_s]
        ok = self._fr_tree | (self._fr_fin[pid] & _early(
            lag, self._fr_own[pid], self._fr_hop[pid], self._fr_quant[pid]))
        # Offers are tested on the (few) pairs the bound keeps.
        ri, pj = np.nonzero(ok)
        offers = self._rep_belief.offer_words(
            rep_ids[ri], self._frontier_s[pj], self._frontier_r[pj],
            view.has_packed,
        ).any(axis=1)
        ok[ri[~offers], pj[~offers]] = False
        return np.where(ok, wakes, NEVER).min(axis=1)
