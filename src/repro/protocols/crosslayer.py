"""Cross-layer design sketch (the paper's future-work direction 2).

The paper concludes that (1) the duty-cycle length should be configured
to balance lifetime against delay, and (2) opportunistic forwarding
should be *co-designed* with that configuration rather than bolted on.
This module implements the sketch:

* :class:`CrossLayerFlooding` — DBAO's deterministic back-off and
  overhearing, *plus* OF-style opportunistic forwarding over every
  usable link with **no lateness suppression**: under a duty cycle tuned
  by the gain optimizer, extra early copies are cheap insurance against
  loss, so the cross-layer design spends them freely while the
  deterministic back-off keeps the added contention collision-free
  within carrier-sense range. (DBAO is already "opportunistic" in that
  any covered neighbor may serve a waking receiver; the cross-layer
  variant additionally ranks senders by *residual usefulness* — how many
  of their other neighbors still need the packet — so transmissions do
  double duty via overhearing.)
* :func:`recommended_configuration` — couples the protocol with
  :func:`repro.core.tradeoff.optimal_duty_cycle`, returning the duty
  cycle the analytic gain model picks for a given topology.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.tradeoff import EnergyModel, GainWeights, TradeoffPoint, optimal_duty_cycle
from ..net.radio import csma_select_reps
from ..net.topology import SOURCE, Topology
from ._belief import BeliefFlooding
from ._repbatch import candidate_rows, flatten_sender_lists
from .base import PhaseTable, RepSimView, register_protocol

__all__ = ["CrossLayerFlooding", "recommended_configuration"]


def recommended_configuration(
    topo: Topology,
    weights: Optional[GainWeights] = None,
    energy: Optional[EnergyModel] = None,
    duty_min: float = 0.01,
    duty_max: float = 0.5,
) -> TradeoffPoint:
    """Gain-optimal duty cycle for this topology's loss profile.

    Folds the topology's link ensemble into its effective k-class and
    runs the trade-off optimizer — the "instruction to configure the duty
    cycle length" the paper notes is missing from existing designs.
    """
    k = topo.mean_k_class()
    return optimal_duty_cycle(
        n_sensors=topo.n_sensors,
        k=k,
        weights=weights,
        energy=energy,
        duty_min=duty_min,
        duty_max=duty_max,
    )


@register_protocol
class CrossLayerFlooding(BeliefFlooding):
    """DBAO mechanics + unsuppressed opportunistic forwarding."""

    name = "crosslayer"

    def __init__(self):
        self.init_kwargs: dict = {}
        self._topo = None

    # Clique candidate rows per wake phase like DBAO; the best-link pick
    # per (replication, sender) keeps the earliest traversal row on PRR
    # ties, usefulness is computed on the picked rows (beliefs are
    # static within a slot), and every contender witnesses its
    # receiver's ACK, as in DBAO.

    def prepare_reps(self, topo, schedules_list, workload, rngs):
        # No randomness is consumed; the ETX anchor (and so the cliques)
        # is period-independent.
        from .dbao import forwarder_clique
        from .tree import build_etx_tree

        tree = build_etx_tree(topo, int(schedules_list[0].period))
        forwarders = [
            np.asarray(
                forwarder_clique(topo, r, anchor=int(tree.parent[r])),
                dtype=np.int64,
            )
            for r in range(topo.n_nodes)
        ]
        # Quiescence frontier: all (clique member, receiver) pairs, like
        # DBAO's — the opportunistic ranking only reorders senders, it
        # never adds pairs beyond the cliques.
        self._prepare_belief(topo, schedules_list, workload, forwarders)
        self._out_deg = np.asarray(
            [topo.out_neighbors(v).size for v in range(topo.n_nodes)],
            dtype=np.int64,
        )
        key, kk, ss, rr, sender_awake = candidate_rows(
            self._wakes, *flatten_sender_lists(forwarders),
            with_sender_awake=True)
        self._table = PhaseTable(
            self._wakes, key, kk, ss, rr, sender_awake, topo.prr[ss, rr])

    def propose_reps(self, t, rep_ids, awake_by_rep, view: RepSimView):
        empty = np.empty(0, dtype=np.int64)
        self._witnesses = None
        kk, ss, rr, sender_awake, prr = self._table.rows(t, rep_ids)
        if kk.size == 0:
            return empty, empty, empty, empty
        # RX-mode rule: see FlashFlooding.propose_reps.
        listen = sender_awake & (ss != SOURCE) & (
            view.held_counts[kk, ss] < view.n_packets
        )
        seq, h_o = self._valid_heads(kk, ss, rr, view, keep=~listen)
        if seq.size == 0:
            return empty, empty, empty, empty
        k_o, s_o, r_o, prr_o = kk[seq], ss[seq], rr[seq], prr[seq]

        # Best-link receiver per (replication, sender); a later row
        # replaces the pick only on a strictly greater PRR, so ties keep
        # the earliest traversal row (seq as the final sort key).
        n = self._topo.n_nodes
        pair = k_o * n + s_o
        order = np.lexsort((seq, -prr_o, pair))
        pair_srt = pair[order]
        first = np.ones(pair_srt.size, dtype=bool)
        first[1:] = pair_srt[1:] != pair_srt[:-1]
        pick = order[first]  # ascending (replication, sender)
        chosen_k = k_o[pick]
        chosen_s = s_o[pick]
        chosen_r = r_o[pick]
        chosen_p = h_o[pick]
        chosen_prr = prr_o[pick]

        # Residual usefulness — how many of the sender's out-neighbors
        # still (believably) need the packet — on the picked rows only;
        # beliefs are static within a slot.
        useful = self._out_deg[chosen_s] - self._rep_belief.coverage_counts(
            chosen_k, chosen_s, chosen_p
        )

        # All contenders (winners and deferrers) hear their receiver's
        # ACK; observe_reps joins them against the slot's receptions.
        self._witnesses = (chosen_k, chosen_s, chosen_r)

        # Deterministic back-off rank: best link first (like DBAO), then
        # most-useful transmission (overhearing turns usefulness into
        # free coverage), then id.
        rank = np.lexsort((chosen_s, -useful, -chosen_prr, chosen_k))
        win = csma_select_reps(
            np.searchsorted(rep_ids, chosen_k[rank]), chosen_s[rank],
            self._topo,
        )
        rows = rank[win]
        if rows.size == 0:
            return empty, empty, empty, empty
        return chosen_k[rows], chosen_s[rows], chosen_r[rows], chosen_p[rows]
