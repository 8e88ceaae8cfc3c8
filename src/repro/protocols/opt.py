"""OPT: the paper's oracle flooding scheme (Sec. V-A).

OPT defines the delay floor the practical protocols are measured against:

* each waking sensor receives from the in-neighbor **with the best link
  quality** to it (oracle possession knowledge, perfect coordination);
* **no collisions ever occur** (run it with
  ``RadioModel(collisions=False)`` — :func:`opt_radio_model` builds the
  right model);
* link loss still applies: even the best link fails with probability
  ``1 - PRR``, which is why OPT's failure count in Fig. 11 is nonzero.

Two server policies implement two readings of "best neighbor":

* ``"designated"`` (default, the paper's literal wording) — every sensor
  has a fixed best server: the highest-PRR in-neighbor among its strict
  upstream set (nodes with smaller ETX cost from the source; strictness
  keeps the server graph acyclic and source-connected). Because the link
  used per reception is fixed, the expected transmission-failure count is
  independent of the duty ratio — exactly the Fig. 11 behaviour.
* ``"any"`` — receive from the best *currently covered* in-neighbor.
  More aggressive; on a complete always-on graph this reproduces the
  per-slot population doubling of the Galton-Watson analysis, which the
  branching-correspondence tests rely on.

Packet choice follows the paper's FCFS rule: the chosen sender forwards
its earliest-arrived packet among those the receiver lacks.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..net.radio import RadioModel
from ..net.topology import SOURCE
from .base import (
    FloodingProtocol, PhaseTable, RepSimView, WakeStack, register_protocol,
)

__all__ = ["OptOracle", "opt_radio_model"]


def opt_radio_model(lossless: bool = False, overhearing: bool = False) -> RadioModel:
    """The channel OPT assumes: collision-free, unicast-only.

    Data overhearing stays off (the paper's unicast model — see
    :class:`~repro.net.radio.RadioModel`); the oracle's edge over the
    practical protocols is collision freedom and perfect link choice, and
    all three evaluation protocols play on the same unicast channel.
    """
    return RadioModel(
        collisions=False, overhearing=overhearing, lossless=lossless
    )


@register_protocol
class OptOracle(FloodingProtocol):
    """Globally-coordinated best-link reception with oracle knowledge."""

    name = "opt"

    def __init__(self, server_policy: str = "designated"):
        if server_policy not in ("designated", "any"):
            raise ValueError(
                f"server policy must be 'designated' or 'any', got {server_policy!r}"
            )
        self.server_policy = server_policy
        self.init_kwargs = {"server_policy": server_policy}
        self._topo = None
        self._designated: Optional[np.ndarray] = None
        self._etx_cost: Optional[np.ndarray] = None
        self._ranked_in: List[np.ndarray] = []

    # The designated-server slot schedule decomposes exactly: each
    # server's *candidate* commitment (which dependent, which packet) is
    # independent of every other server's — dependents of one server are
    # never dependents or chosen receivers of another (designation is
    # unique) — and the only coupling is "server s stays silent iff its
    # own designated server committed to *it* this slot", which is
    # resolved strictly earlier in the ascending-ETX order. Candidate
    # edges therefore form disjoint ETX-increasing paths, along which
    # act/defer simply alternates from each path head. propose_reps
    # computes all candidates with array ops and resolves the
    # alternation by pointer chasing. The "any" policy has no such
    # decomposition (its greedy matching couples every receiver through
    # the shared ``assigned`` set), so it walks each replication in
    # Python.

    def prepare_reps(self, topo, schedules_list, workload, rngs):
        # No randomness is consumed, and both server maps derive from
        # link PRRs and ETX costs only — period-independent — so they
        # serve replications with heterogeneous periods too.
        from .tree import build_etx_tree

        self._topo = topo
        n = topo.n_nodes
        self._rep_periods = np.asarray(
            [int(s.period) for s in schedules_list], dtype=np.int64
        )
        self._off_frontier = None
        if self.server_policy == "any":
            # In-neighbor lists ordered by descending link quality: the
            # oracle always tries the best link first.
            self._ranked_in = []
            for r in range(n):
                nbs = topo.in_neighbors(r)
                order = np.argsort(-topo.prr[nbs, r], kind="stable")
                self._ranked_in.append(nbs[order])
            # Padded in-neighbor ids for the frontier query.
            max_deg = max((a.size for a in self._ranked_in), default=1) or 1
            self._in_pad = np.zeros((n, max_deg), dtype=np.int64)
            self._in_valid = np.zeros((n, max_deg), dtype=bool)
            for r, nbs in enumerate(self._ranked_in):
                self._in_pad[r, : nbs.size] = nbs
                self._in_valid[r, : nbs.size] = True
            self._all_nodes = np.arange(n, dtype=np.int64)
            return

        tree = build_etx_tree(topo, int(self._rep_periods[0]))
        designated = np.full(n, -1, dtype=np.int64)
        for r in range(n):
            if r == SOURCE:
                continue
            cost_r = tree.etx_cost[r]
            if not np.isfinite(cost_r):
                continue  # unreachable: no server
            best, best_prr = -1, -1.0
            for s in topo.in_neighbors(r).tolist():
                if tree.etx_cost[s] < cost_r:
                    prr = topo.link_prr(s, r)
                    if prr > best_prr:
                        best, best_prr = s, prr
            # The tree parent always qualifies (its cost is strictly
            # smaller), so reachable sensors always get a server.
            designated[r] = best
        self._designated = designated
        self._etx_cost = np.asarray(tree.etx_cost, dtype=np.float64)
        # Quiescence frontier under the designated policy: only the
        # fixed (server, sensor) pairs can ever carry traffic.
        rs = np.flatnonzero(designated >= 0)
        rs = rs[rs != SOURCE]
        self._frontier_r = rs
        self._frontier_s = designated[rs]
        # Static (replication, server, receiver) request rows: the
        # designated-server map is static, so a slot's requests depend
        # on the wake phase only. Each phase group is sorted by
        # (server, receiver).
        wakes = WakeStack(schedules_list)
        key, kk, rr = wakes.triples()
        keep = designated[rr] >= 0
        key, kk, rr = key[keep], kk[keep], rr[keep]
        ss = designated[rr]
        order = np.lexsort((rr, ss, key))
        self._table = PhaseTable(
            wakes, key[order], kk[order], ss[order], rr[order])

    def propose_reps(self, t, rep_ids, awake_by_rep, view: RepSimView):
        if self.server_policy == "any":
            return self._propose_any_reps(t, rep_ids, awake_by_rep, view)
        n = self._topo.n_nodes
        empty = np.empty(0, dtype=np.int64)

        # Flat (replication, waking sensor) pairs with a live request,
        # presorted by (replication, server, receiver) from the phase
        # table; subset gathers preserve that order.
        kk_r, ss_flat, rr_flat = self._table.rows(t, rep_ids)
        if kk_r.size == 0:
            return empty, empty, empty, empty
        # Possession words: "receiver still lacks a packet" and "server
        # holds one of those" are word ops per row, gathered through
        # row takes.
        hp = view.has_packed.reshape(-1, view.packet_words.n_words)
        recv_w = hp.take(kk_r * n + rr_flat, axis=0)
        sel = np.flatnonzero((recv_w != view.packet_words.full).any(axis=1))
        if sel.size == 0:
            return empty, empty, empty, empty
        kk_r = kk_r.take(sel)
        ss_flat = ss_flat.take(sel)
        rr_flat = rr_flat.take(sel)
        cand_w = hp.take(kk_r * n + ss_flat, axis=0) & ~recv_w.take(
            sel, axis=0)
        P = kk_r.size
        new_grp = np.ones(P, dtype=bool)
        new_grp[1:] = (kk_r[1:] != kk_r[:-1]) | (ss_flat[1:] != ss_flat[:-1])
        group_start = np.flatnonzero(new_grp)
        G = group_start.size
        L = np.diff(np.append(group_start, P))
        g = np.repeat(np.arange(G), L)
        pos = np.arange(P) - group_start[g]

        # Round-robin rotation picks each group's first valid pair (the
        # server holds a packet the dependent lacks) in rotated order,
        # counting each replication's own periods.
        valid = cand_w.any(axis=1)
        rotk = t // self._rep_periods[kk_r]
        rot = (pos - (rotk % L[g])) % L[g]
        big = P + 1
        score = np.where(valid, rot, big)
        enc = score * big + np.arange(P)
        best = np.minimum.reduceat(enc, group_start)
        has_cand = (best // big) < big
        pick = (best % big)[has_cand]
        if pick.size == 0:
            return empty, empty, empty, empty

        cand_k = kk_r[pick]
        cand_s = ss_flat[pick]
        cand_r = rr_flat[pick]
        # The FCFS argmin only runs on the picked rows, unpacking their
        # candidate words back to a (C, M) mask.
        cand_h = view.fcfs_heads_masked(
            cand_k, cand_s, view.packet_words.unpack(cand_w[pick]))

        # A server defers iff its own designated server committed to it.
        # Chosen receivers are unique per replication, so the candidate
        # edges s -> r form disjoint ETX-ascending paths; walk each
        # candidate to its path head counting hops — even depth acts.
        key_s = cand_k * n + cand_s
        key_r = cand_k * n + cand_r
        o = np.argsort(key_r)
        sorted_r = key_r[o]
        ins = np.searchsorted(sorted_r, key_s)
        ins_c = np.minimum(ins, sorted_r.size - 1)
        pred = np.where(sorted_r[ins_c] == key_s, o[ins_c], -1)
        depth = np.zeros(pred.size, dtype=np.int64)
        ptr = pred.copy()
        while True:
            live = ptr >= 0
            if not live.any():
                break
            depth[live] += 1
            ptr[live] = pred[ptr[live]]
        act = (depth & 1) == 0

        cand_k, cand_s = cand_k[act], cand_s[act]
        cand_r, cand_h = cand_r[act], cand_h[act]
        # Serial emission order: ascending (ETX cost, server) per rep.
        emit = np.lexsort((cand_s, self._etx_cost[cand_s], cand_k))
        return cand_k[emit], cand_s[emit], cand_r[emit], cand_h[emit]

    def next_action_slots(self, t, rep_ids, view: RepSimView):
        # OPT's frontier reads ground truth (that is the point of OPT):
        # a sensor is actionable iff a candidate server truly holds a
        # packet the sensor truly lacks. Round-robin rotation, parity
        # fallback, and semi-duplex conflicts only *defer* service within
        # a wake slot — they never create traffic where no pair offers —
        # so the oracle offer set is a sound frontier.
        if self.server_policy == "any":
            has = view.has_stack[rep_ids]  # (R', M, n)
            held = has[:, :, self._in_pad]  # (R', M, n, max_deg)
            offers = (
                (held & ~has[:, :, :, None]).any(axis=1) & self._in_valid
            ).any(axis=2)
            offers[:, SOURCE] = False
            return view.earliest_wakes(t, rep_ids, self._all_nodes, offers)
        if self._off_frontier is None:
            self._off_frontier = view.offsets_stack[:, self._frontier_r]
        hp = view.has_packed[rep_ids]
        offers = (hp[:, self._frontier_s] & ~hp[:, self._frontier_r]).any(
            axis=2)
        return view.earliest_wakes(
            t, rep_ids, self._frontier_r, offers, self._off_frontier
        )

    def _propose_any_reps(self, t, rep_ids, awake_by_rep, view):
        kk: List[int] = []
        rows: List[tuple] = []
        for k in rep_ids.tolist():
            # Starvation avoidance: drafting a node that is itself awake
            # and still missing packets as a sender costs it its own
            # reception (semi-duplex). With deterministic schedules a
            # greedy would repeat the same sacrifice at the same phase
            # every period, starving that node forever. Such nodes are
            # last-resort senders, and even then only on alternating
            # periods, so they receive at least every other wake-up.
            parity = (t // max(int(self._rep_periods[k]), 1)) % 2
            rep_rows = self._propose_any(k, awake_by_rep[k], view, parity)
            kk.extend([k] * len(rep_rows))
            rows.extend(rep_rows)
        if not rows:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, empty
        arr = np.asarray(rows, dtype=np.int64)
        return np.asarray(kk, dtype=np.int64), arr[:, 0], arr[:, 1], arr[:, 2]

    def _propose_any(self, rep, awake, view, period_parity) -> List[tuple]:
        has = view.has_stack[rep]
        awake_set = set(awake.tolist())
        rows: List[tuple] = []
        assigned = set()
        # Receivers are served in order of how few candidate senders they
        # have (scarcest first), so the greedy matching wastes no sender.
        pending = []
        for r in awake.tolist():
            if r == SOURCE:
                continue
            needed = ~has[:, r]
            if not needed.any():
                continue
            ranked = self._ranked_in[r]
            candidates = view.candidate_senders(rep, ranked, needed)
            if candidates.size:
                pending.append((candidates.size, r, needed, ranked))
        pending.sort(key=lambda item: (item[0], item[1]))

        for _, r, needed, ranked in pending:
            fallback = None
            chosen = None
            for s in ranked.tolist():
                if s in assigned:
                    continue
                head = view.fcfs_head(rep, s, needed)
                if head is None:
                    continue
                if s in awake_set and not has[:, s].all():
                    if fallback is None and (s % 2) == period_parity:
                        fallback = (s, head)
                    continue
                chosen = (s, head)
                break
            if chosen is None:
                chosen = fallback
            if chosen is not None:
                s, head = chosen
                rows.append((s, r, head))
                assigned.add(s)
        return rows
