"""Flash flooding: exploit the capture effect instead of avoiding it.

Lu & Whitehouse's INFOCOM'09 scheme (the paper's related work [17])
inverts the usual collision-avoidance logic: when a receiver wakes, *all*
covered neighbors transmit concurrently and the radio's capture effect —
the strongest or earliest frame surviving the overlap — delivers the
packet anyway most of the time. No back-off waiting, no coordination
traffic; the price is wasted transmissions and the residual overlaps that
capture cannot rescue.

In this codebase Flash doubles as a stress test of the radio layer's
capture model (preamble jitter + SIR): with capture disabled it must
collapse to naive flooding's collision storm, with capture enabled it
should be delay-competitive on dense topologies.

Senders do keep ACK-summary beliefs — Flash floods concurrently, it does
not flood *blindly* — so transmissions stop once neighbors are known to
be covered.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..net.topology import SOURCE
from ._belief import BeliefFlooding
from ._repbatch import candidate_rows, flatten_sender_lists
from .base import PhaseTable, RepSimView, register_protocol

__all__ = ["FlashFlooding"]


@register_protocol
class FlashFlooding(BeliefFlooding):
    """Concurrent-transmission flooding that relies on capture."""

    name = "flash"

    def __init__(self, max_concurrent: int = 2):
        if max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        #: Cap on concurrent senders per receiver: the real protocol
        #: prunes the transmitter set because too many overlaps defeat
        #: capture ("recover from or prevent too many concurrent
        #: transmissions" in the paper's summary of [17]). Empirically,
        #: three or more concurrent bursts on a dense deployment produce
        #: collision storms capture cannot dig out of.
        self.max_concurrent = int(max_concurrent)
        self.init_kwargs = {"max_concurrent": self.max_concurrent}
        self._topo = None

    # Candidate rows are each waking receiver's in-neighbors,
    # strongest-first (receivers ascending); validity and the listen
    # rule vectorize, then a small Python walk over the surviving rows
    # applies the stateful one-TX-per-sender / cap-per-receiver greedy.
    # Flash consumes no protocol randomness and uses no CSMA.

    def prepare_reps(self, topo, schedules_list, workload, rngs):
        strongest_first = []
        for r in range(topo.n_nodes):
            nbs = topo.in_neighbors(r)
            order = np.argsort(-topo.prr[nbs, r], kind="stable")
            strongest_first.append(nbs[order])
        # Quiescence frontier: candidate senders are exactly the
        # receiver's in-neighbors, so the frontier is every receiver with
        # an offering believed link. The cap and the RX-mode listen rule
        # only *shrink* a slot's batch — ignoring them keeps the bound
        # conservative (a bounded slot may still execute empty, never the
        # reverse).
        self._prepare_belief(topo, schedules_list, workload, strongest_first)
        self._table = PhaseTable(self._wakes, *candidate_rows(
            self._wakes, *flatten_sender_lists(strongest_first),
            with_sender_awake=True))

    def propose_reps(self, t, rep_ids, awake_by_rep, view: RepSimView):
        empty = np.empty(0, dtype=np.int64)
        kk, ss, rr, sender_awake = self._table.rows(t, rep_ids)
        if kk.size == 0:
            return empty, empty, empty, empty
        # A node whose own active slot is now and whose buffer is still
        # incomplete keeps its radio in RX mode: its active slot exists
        # to receive, and transmitting through it would deterministically
        # starve schedule-aligned neighbor pairs (each forever serving
        # the other instead of listening).
        listen = sender_awake & (ss != SOURCE) & (
            view.held_counts[kk, ss] < view.n_packets
        )
        el, heads = self._valid_heads(kk, ss, rr, view, keep=~listen)
        if el.size == 0:
            return empty, empty, empty, empty

        # Greedy walk over the surviving rows in traversal order: one TX
        # per sender, and strongest-first at most max_concurrent accepted
        # rows per receiver — overlaps beyond the cap only add
        # interference that capture cannot recover. A cap-skipped sender
        # stays available at a later receiver.
        k_l = kk[el].tolist()
        s_l = ss[el].tolist()
        r_l = rr[el].tolist()
        cap = self.max_concurrent
        assigned = set()
        sent: Dict[Tuple[int, int], int] = {}
        sel: List[int] = []
        for j, k in enumerate(k_l):
            s = s_l[j]
            if (k, s) in assigned:
                continue
            rkey = (k, r_l[j])
            c = sent.get(rkey, 0)
            if c >= cap:
                continue
            assigned.add((k, s))
            sent[rkey] = c + 1
            sel.append(j)
        sel = np.asarray(sel, dtype=np.int64)
        rows = el[sel]
        return kk[rows], ss[rows], rr[rows], heads[sel]
