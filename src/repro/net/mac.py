"""The MAC layer of the link stack: pluggable per-slot link models.

:mod:`repro.net.radio` owns the *physics* of one transmission round —
contention, capture, Bernoulli loss. This module owns the *medium
access* policy wrapped around that physics: a :class:`LinkModel` decides
how the slot's committed frames contend for the channel, when each frame
is actually put on air, and what an acknowledgment means. The engine
(:func:`repro.sim.batch.run_flood_batch`) resolves every traffic slot
through a link model instead of calling the raw resolver directly, so
the MAC becomes a swappable scenario field (``mac``/``mac_kwargs``)
rather than a hard-coded assumption.

Layer contract
--------------
A link model resolves one wake slot: it receives the validated,
duplicate-free transmission batch, the actual wake set and the
replication's channel stream, and returns the slot's
:class:`~repro.net.radio.RepSlotOutcome` (:meth:`LinkModel.resolve_reps`,
the engine's path) or :class:`~repro.net.radio.SlotOutcome`
(:meth:`LinkModel.resolve`, one replication at a time — the reference
the link tests compare the batched path against). Hard rules every
implementation must keep:

* **One decode per receiver per slot.** The slot is one packet time in
  the paper's model; the engine's apply stage relies on at most one
  reception per (replication, receiver) per slot.
* **Serial-order RNG consumption.** All randomness comes from the
  per-replication stream passed in, and the batched
  :meth:`LinkModel.resolve_reps` must consume each replication's stream
  in exactly the order the one-replication :meth:`LinkModel.resolve`
  would — the link tests enforce bit-identical outcomes.
* **Frame-level accounting.** ``failures`` lists each committed frame
  that was ultimately not delivered to its addressed receiver (once,
  in batch-row order); ``collisions`` is the subset of those failed
  frames that were collision-destroyed at least once during the slot
  (also at most once per frame). A retrying MAC may see a frame
  collide and still deliver it — that collision was absorbed by the
  MAC and does not surface at the flood level, which keeps the
  :class:`~repro.sim.metrics.FloodMetrics` invariant
  ``collisions <= failures`` intact.

RNG draw order, per contention micro-round
------------------------------------------
:class:`Csma802154Link` maps the 802.15.4 unslotted CSMA-CA state
machine onto sub-slot micro-rounds (one ``aUnitBackoffPeriod`` each).
Within one micro-round the draws are, in order:

1. one combined backoff block ``rng.random(n_redraw)`` for every frame
   (re)entering backoff — CCA-deferred and retry-scheduled frames — in
   batch-row order, with ``backoff = floor(u * 2**BE)``;
2. the raw resolver's draws for the round's carrier-sense winners
   (jitter block, then Bernoulli block — see
   :func:`~repro.net.radio.resolve_slot`).

Between rounds no draw happens, so a span in which none of a
replication's frames is ready is jumped. The batched path keeps one
micro-round clock per replication and jumps each straight to that
replication's own earliest ready frame: within a slot replications
share no state (availability, backoff counters and streams are all
per replication), so every step runs one round of each replication
that still has live frames, and a stacked slot takes as many steps
(raw-resolver calls) as the replication that needs the most rounds
alone. Each replication's draw sequence is identical to the serial one
whatever the other replications do.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Tuple

import numpy as np

from .radio import (
    RadioModel,
    RepSlotOutcome,
    SlotOutcome,
    TxBatch,
    csma_select,
    csma_select_reps,
    resolve_slot,
    resolve_slot_reps,
)
from .topology import Topology

__all__ = [
    "LinkModel",
    "IdealCsmaLink",
    "Csma802154Link",
    "MAC_KINDS",
    "MAC_PARAMS",
    "make_link_model",
]


class LinkModel:
    """One slot of medium access: contend → deliver → acknowledge.

    Subclasses implement two paths: :meth:`resolve_reps`, which the
    engine runs, and :meth:`resolve`, the one-replication reference the
    link tests hold it to. ``kind`` names the model in scenario files;
    ``params`` echoes the constructor arguments (for introspection and
    error messages).
    """

    #: Scenario-facing name of the model.
    kind: str = "abstract"

    def __init__(self):
        self.params: Dict[str, int] = {}

    def resolve(
        self,
        batch: TxBatch,
        topo: Topology,
        awake,
        rng: np.random.Generator,
        radio: RadioModel,
        dynamics=None,
        assume_unique_senders: bool = False,
        profiler=None,
    ) -> SlotOutcome:
        """Resolve one slot of one replication (the reference path).

        ``profiler`` (a :class:`~repro.sim.observers.PhaseProfiler` or
        ``None``) receives the model's own backoff/ack accounting time
        under the ``"mac"`` sub-phase — nested inside the engine's
        ``resolve`` phase, so the layered-resolution cost is visible.
        """
        raise NotImplementedError

    def resolve_reps(
        self,
        kk: np.ndarray,
        ss: np.ndarray,
        rr: np.ndarray,
        pp: np.ndarray,
        topo: Topology,
        awake_by_rep,
        rngs,
        radio: RadioModel,
        dynamics=None,
        awake_stack: Optional[np.ndarray] = None,
        profiler=None,
        collect_collision_rows: bool = False,
    ) -> RepSlotOutcome:
        """Resolve one slot across R replications (the engine's path).

        Arguments mirror :func:`~repro.net.radio.resolve_slot_reps`;
        every replication's stream must be consumed exactly as
        :meth:`resolve` would consume it. With
        ``collect_collision_rows`` the outcome's ``coll_rows`` lists the
        input rows reported in ``collisions`` — the per-frame identity
        observers need.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{type(self).__name__}({args})"


class IdealCsmaLink(LinkModel):
    """Today's slot radio, verbatim: the one-winner CSMA oracle.

    Delegates straight to :func:`~repro.net.radio.resolve_slot` /
    :func:`~repro.net.radio.resolve_slot_reps` — bit-identical to the
    pre-layering engines, zero extra RNG draws, no MAC state. The
    ``"mac"`` profiler row is recorded at zero seconds: the ideal link
    has no backoff or acknowledgment bookkeeping of its own.
    """

    kind = "ideal"

    def resolve(self, batch, topo, awake, rng, radio, dynamics=None,
                assume_unique_senders=False, profiler=None):
        if profiler is not None:
            profiler.note("mac", 0.0)
        return resolve_slot(
            batch, topo, awake, rng, radio, dynamics=dynamics,
            assume_unique_senders=assume_unique_senders,
        )

    def resolve_reps(self, kk, ss, rr, pp, topo, awake_by_rep, rngs, radio,
                     dynamics=None, awake_stack=None,
                     profiler=None, collect_collision_rows=False):
        if profiler is not None:
            profiler.note("mac", 0.0)
        return resolve_slot_reps(
            kk, ss, rr, pp, topo, awake_by_rep, rngs, radio,
            dynamics=dynamics, awake_stack=awake_stack,
            collect_collision_rows=collect_collision_rows,
        )


class Csma802154Link(LinkModel):
    """ContikiOS-style IEEE 802.15.4 unslotted CSMA-CA.

    Default constants are the ContikiOS MAC's: ``macMinBE = 3``,
    ``macMaxBE = 5``, ``macMaxCSMABackoffs = 4``,
    ``macMaxFrameRetries = 3``; ``ack_wait_rounds`` is
    ``macAckWaitDuration`` (864 µs) in ``aUnitBackoffPeriod`` (320 µs)
    units, rounded up to 3.

    One wake slot hosts the whole CSMA exchange as *micro-rounds* of one
    unit backoff period each. Per committed frame the model tracks
    ``(backoff, BE, NB, retries)``:

    * a frame whose backoff expired performs CCA — physical carrier
      sense via :func:`~repro.net.radio.csma_select` in batch-row rank
      order. Busy channel: ``NB += 1``, ``BE = min(BE + 1, macMaxBE)``,
      new backoff; ``NB > macMaxCSMABackoffs`` drops the frame
      (CHANNEL_ACCESS_FAILURE).
    * CCA winners transmit through the raw resolver (hidden terminals
      still collide there). The ACK is implicit: delivery to the
      addressed receiver acknowledges the frame.
    * No ACK within ``ack_wait_rounds``: ``retries += 1``; past
      ``macMaxFrameRetries`` the frame drops, otherwise the CSMA-CA
      procedure restarts (``NB = 0``, ``BE = macMinBE``) after the ack
      wait — the standard's per-retry reset, which also makes the
      schedule livelock-safe: every frame terminates within a bounded
      number of micro-rounds.

    A receiver that decodes a frame (addressed or overheard) is occupied
    for the rest of the slot (turnaround + ACK), preserving the
    one-decode-per-receiver-per-slot contract; senders stay semi-duplex
    for the whole slot.
    """

    kind = "csma_802154"

    def __init__(
        self,
        mac_min_be: int = 3,
        mac_max_be: int = 5,
        max_csma_backoffs: int = 4,
        max_frame_retries: int = 3,
        ack_wait_rounds: int = 3,
    ):
        mac_min_be = int(mac_min_be)
        mac_max_be = int(mac_max_be)
        max_csma_backoffs = int(max_csma_backoffs)
        max_frame_retries = int(max_frame_retries)
        ack_wait_rounds = int(ack_wait_rounds)
        if not (0 <= mac_min_be <= mac_max_be):
            raise ValueError(
                f"need 0 <= mac_min_be <= mac_max_be, got "
                f"mac_min_be={mac_min_be}, mac_max_be={mac_max_be}"
            )
        if mac_max_be > 8:
            raise ValueError(
                f"mac_max_be must be <= 8 (802.15.4 bound), got {mac_max_be}"
            )
        if max_csma_backoffs < 0:
            raise ValueError(
                f"max_csma_backoffs must be >= 0, got {max_csma_backoffs}"
            )
        if max_frame_retries < 0:
            raise ValueError(
                f"max_frame_retries must be >= 0, got {max_frame_retries}"
            )
        if ack_wait_rounds < 0:
            raise ValueError(
                f"ack_wait_rounds must be >= 0, got {ack_wait_rounds}"
            )
        self.mac_min_be = mac_min_be
        self.mac_max_be = mac_max_be
        self.max_csma_backoffs = max_csma_backoffs
        self.max_frame_retries = max_frame_retries
        self.ack_wait_rounds = ack_wait_rounds
        self.params = {
            "mac_min_be": mac_min_be,
            "mac_max_be": mac_max_be,
            "max_csma_backoffs": max_csma_backoffs,
            "max_frame_retries": max_frame_retries,
            "ack_wait_rounds": ack_wait_rounds,
        }

    # -- serial path ---------------------------------------------------

    def resolve(self, batch, topo, awake, rng, radio, dynamics=None,
                assume_unique_senders=False, profiler=None):
        outcome = SlotOutcome()
        if not isinstance(batch, TxBatch):
            if not batch:
                return outcome
            batch = TxBatch.from_transmissions(batch)
        k = len(batch)
        if k == 0:
            return outcome
        t_mac = perf_counter() if profiler is not None else 0.0
        t_phy = 0.0

        senders = batch.senders
        receivers = batch.receivers
        packets = batch.packets
        if not assume_unique_senders and k > 1 \
                and np.unique(senders).size != k:
            raise ValueError("duplicate sender in CSMA batch")

        # Receiver availability for the whole slot: awake, not a
        # committed sender, and not yet occupied by a decoded frame.
        avail = np.zeros(topo.n_nodes, dtype=bool)
        avail[np.asarray(
            awake if isinstance(awake, np.ndarray) else list(awake),
            dtype=np.int64,
        )] = True
        avail[senders] = False

        wait = np.zeros(k, dtype=np.int64)
        be = np.full(k, self.mac_min_be, dtype=np.int64)
        nb = np.zeros(k, dtype=np.int64)
        retries = np.zeros(k, dtype=np.int64)
        alive = np.ones(k, dtype=bool)
        delivered = np.zeros(k, dtype=bool)
        collided = np.zeros(k, dtype=bool)
        pending_draw = np.ones(k, dtype=bool)  # initial backoff draw
        # Sender id -> batch row, for collision attribution (senders are
        # unique within a validated slot batch).
        row_of = np.full(topo.n_nodes, -1, dtype=np.int64)
        row_of[senders] = np.arange(k)

        # Provable bound (belt and braces, never reached): every counted
        # round consumes a CCA attempt or a transmission attempt of at
        # least one ready frame, and each frame owns at most
        # (retries+1) * (backoffs+2) such attempts in total.
        max_rounds = k * (self.max_frame_retries + 1) * (
            self.max_csma_backoffs + 2
        ) + 8
        rounds = 0
        while alive.any() and rounds <= max_rounds:
            live = np.flatnonzero(alive)
            # 1. Backoff (re)draws: one combined block, batch-row order.
            redraw = live[pending_draw[live]]
            if redraw.size:
                u = rng.random(redraw.size)
                wait[redraw] += (u * (1 << be[redraw])).astype(np.int64)
                pending_draw[redraw] = False
            ready = live[wait[live] == 0]
            if ready.size == 0:
                # Quiescent micro-round span: jump it (no draws happen).
                wait[live] -= wait[live].min()
                continue
            rounds += 1
            # 2. CCA: physical carrier sense in batch-row rank order.
            winner_ids, _ = csma_select(senders[ready].tolist(), topo)
            is_win = np.isin(senders[ready], winner_ids)
            blocked = ready[~is_win]
            winners = ready[is_win]
            if blocked.size:
                nb[blocked] += 1
                be[blocked] = np.minimum(be[blocked] + 1, self.mac_max_be)
                dead = blocked[nb[blocked] > self.max_csma_backoffs]
                alive[dead] = False  # CHANNEL_ACCESS_FAILURE
                again = blocked[nb[blocked] <= self.max_csma_backoffs]
                pending_draw[again] = True
            # 3. Transmit the winners through the raw resolver.
            if winners.size:
                sub = TxBatch(
                    senders[winners], receivers[winners], packets[winners]
                )
                if profiler is not None:
                    _phy0 = perf_counter()
                sub_out = resolve_slot(
                    sub, topo, np.flatnonzero(avail), rng, radio,
                    dynamics=dynamics, assume_unique_senders=True,
                )
                if profiler is not None:
                    t_phy += perf_counter() - _phy0
                outcome.receptions.extend(sub_out.receptions)
                # Attribute collision events to frames; they surface in
                # the outcome only for frames that ultimately fail.
                for tx in sub_out.collisions:
                    collided[row_of[tx.sender]] = True
                for rec in sub_out.receptions:
                    avail[rec.receiver] = False  # occupied: turnaround+ACK
                # 4. Implicit ACK: a winner not in the failure list was
                # delivered to its addressed receiver.
                if sub_out.failures:
                    fail_senders = np.fromiter(
                        (tx.sender for tx in sub_out.failures), np.int64,
                        count=len(sub_out.failures),
                    )
                    failed = np.isin(senders[winners], fail_senders)
                else:
                    failed = np.zeros(winners.size, dtype=bool)
                acked = winners[~failed]
                delivered[acked] = True
                alive[acked] = False
                noack = winners[failed]
                if noack.size:
                    retries[noack] += 1
                    dead = noack[retries[noack] > self.max_frame_retries]
                    alive[dead] = False
                    retry = noack[retries[noack] <= self.max_frame_retries]
                    if retry.size:
                        # Per-retry CSMA-CA restart after the ack wait.
                        nb[retry] = 0
                        be[retry] = self.mac_min_be
                        wait[retry] = self.ack_wait_rounds
                        pending_draw[retry] = True
            # 5. One unit backoff period elapses.
            ticking = alive & (wait > 0)
            wait[ticking] -= 1
        alive[:] = False

        fail_rows = np.flatnonzero(~delivered)
        if fail_rows.size:
            txs = batch.to_transmissions()
            outcome.failures.extend(txs[i] for i in fail_rows.tolist())
            outcome.collisions.extend(
                txs[i] for i in fail_rows[collided[fail_rows]].tolist()
            )
        if profiler is not None:
            profiler.note("mac", (perf_counter() - t_mac) - t_phy)
        return outcome

    # -- batched path --------------------------------------------------

    def resolve_reps(self, kk, ss, rr, pp, topo, awake_by_rep, rngs, radio,
                     dynamics=None, awake_stack=None,
                     profiler=None, collect_collision_rows=False):
        T = int(ss.size)
        if T == 0:
            return RepSlotOutcome.empty()
        t_mac = perf_counter() if profiler is not None else 0.0
        t_phy = 0.0
        n = topo.n_nodes

        # Replication boundaries (kk arrives in ascending groups) and a
        # local group index per frame for the carrier-sense call.
        is_head = np.empty(T, dtype=bool)
        is_head[0] = True
        np.not_equal(kk[1:], kk[:-1], out=is_head[1:])
        local = np.cumsum(is_head) - 1
        rep_ids = kk[np.flatnonzero(is_head)]

        # Slot-long receiver availability, one row per *global* rep id
        # (the raw resolver gathers rows by rep id). Mutated as frames
        # are decoded, so it must be a private copy.
        R = int(rep_ids[-1]) + 1
        if awake_stack is not None:
            avail = awake_stack[:R].copy()
        else:
            avail = np.zeros((R, n), dtype=bool)
            for rep in rep_ids.tolist():
                avail[rep, awake_by_rep[int(rep)]] = True
        avail[kk, ss] = False  # semi-duplex for the whole slot

        wait = np.zeros(T, dtype=np.int64)
        be = np.full(T, self.mac_min_be, dtype=np.int64)
        nb = np.zeros(T, dtype=np.int64)
        retries = np.zeros(T, dtype=np.int64)
        alive = np.ones(T, dtype=bool)
        delivered = np.zeros(T, dtype=bool)
        collided = np.zeros(T, dtype=bool)
        pending_draw = np.ones(T, dtype=bool)
        draws = np.empty(T, dtype=np.float64)

        rec_parts = []  # (rep, receiver, sender, packet, overheard) rounds

        # Same provable bound as the serial path (over all T frames).
        max_rounds = T * (self.max_frame_retries + 1) * (
            self.max_csma_backoffs + 2
        ) + 8
        rounds = 0
        while rounds <= max_rounds:
            live = np.flatnonzero(alive)
            if live.size == 0:
                break
            # 1. Backoff (re)draws: one block per replication, in the
            # serial batch-row order (flat ascending == (rep, row)).
            redraw = live[pending_draw[live]]
            if redraw.size:
                r_kk = kk[redraw]
                heads = np.flatnonzero(
                    np.concatenate(([True], r_kk[1:] != r_kk[:-1]))
                ).tolist()
                heads.append(redraw.size)
                buf = draws[: redraw.size]
                for i in range(len(heads) - 1):
                    lo, hi = heads[i], heads[i + 1]
                    rngs[int(r_kk[lo])].random(out=buf[lo:hi])
                wait[redraw] += (buf * (1 << be[redraw])).astype(np.int64)
                pending_draw[redraw] = False
            # Each replication's clock jumps to its own earliest ready
            # frame (no draws happen in a quiescent span), so every
            # replication with live frames has ready ones this round.
            live_wait = wait[live]
            live_rep = local[live]
            first = np.empty(live.size, dtype=bool)
            first[0] = True
            np.not_equal(live_rep[1:], live_rep[:-1], out=first[1:])
            jump = np.minimum.reduceat(live_wait, np.flatnonzero(first))
            if jump.any():
                live_wait -= jump[np.cumsum(first) - 1]
                wait[live] = live_wait
            ready = live[live_wait == 0]
            rounds += 1
            # 2. CCA across replications; within a group the rank order
            # is batch-row order, exactly the serial csma_select input.
            win_mask = csma_select_reps(local[ready], ss[ready], topo)
            blocked = ready[~win_mask]
            winners = ready[win_mask]
            if blocked.size:
                nb[blocked] += 1
                be[blocked] = np.minimum(be[blocked] + 1, self.mac_max_be)
                dead = blocked[nb[blocked] > self.max_csma_backoffs]
                alive[dead] = False
                again = blocked[nb[blocked] <= self.max_csma_backoffs]
                pending_draw[again] = True
            # 3. Transmit winners (the first ready frame of every
            # replication always wins CCA, so there are some); the
            # per-replication jitter/Bernoulli draws happen inside, in
            # the serial order.
            if profiler is not None:
                _phy0 = perf_counter()
            sub = resolve_slot_reps(
                kk[winners], ss[winners], rr[winners], pp[winners],
                topo, awake_by_rep, rngs, radio, dynamics=dynamics,
                awake_stack=avail, collect_collision_rows=True,
            )
            if profiler is not None:
                t_phy += perf_counter() - _phy0
            if sub.rec_rep.size:
                rec_parts.append((
                    sub.rec_rep, sub.rec_receiver, sub.rec_sender,
                    sub.rec_packet, sub.rec_overheard,
                ))
                avail[sub.rec_rep, sub.rec_receiver] = False
            if sub.coll_rows is not None and sub.coll_rows.size:
                # coll_rows index the winner sub-batch; surface them
                # only for frames that ultimately fail (below).
                collided[winners[sub.coll_rows]] = True
            # 4. Implicit ACK via the per-round failure rows; (rep,
            # sender) is unique within the winner sub-batch.
            if sub.fail_rep.size:
                failed = np.isin(
                    kk[winners] * n + ss[winners],
                    sub.fail_rep * n + sub.fail_sender,
                )
            else:
                failed = np.zeros(winners.size, dtype=bool)
            acked = winners[~failed]
            delivered[acked] = True
            alive[acked] = False
            noack = winners[failed]
            if noack.size:
                retries[noack] += 1
                dead = noack[retries[noack] > self.max_frame_retries]
                alive[dead] = False
                retry = noack[retries[noack] <= self.max_frame_retries]
                if retry.size:
                    nb[retry] = 0
                    be[retry] = self.mac_min_be
                    wait[retry] = self.ack_wait_rounds
                    pending_draw[retry] = True
            # 5. One unit backoff period elapses.
            live = np.flatnonzero(alive)
            ticking = live[wait[live] > 0]
            wait[ticking] -= 1

        if rec_parts:
            rec_rep = np.concatenate([p[0] for p in rec_parts])
            rec_recv = np.concatenate([p[1] for p in rec_parts])
            rec_send = np.concatenate([p[2] for p in rec_parts])
            rec_pack = np.concatenate([p[3] for p in rec_parts])
            rec_over = np.concatenate([p[4] for p in rec_parts])
            # Regroup by replication (stable: keeps the serial per-rep
            # round-major, receiver-ascending order).
            order = np.argsort(rec_rep, kind="stable")
            rec_rep = rec_rep[order]
            rec_recv = rec_recv[order]
            rec_send = rec_send[order]
            rec_pack = rec_pack[order]
            rec_over = rec_over[order]
        else:
            rec_rep = rec_recv = rec_send = rec_pack = np.empty(0, np.int64)
            rec_over = np.empty(0, bool)
        fail_rows = np.flatnonzero(~delivered)
        coll_fail = fail_rows[collided[fail_rows]]
        collision_counts: Dict[int, int] = {}
        if coll_fail.size:
            reps_c, counts_c = np.unique(kk[coll_fail], return_counts=True)
            collision_counts = {
                int(r): int(c) for r, c in zip(reps_c, counts_c)
            }
        out = RepSlotOutcome(
            rec_rep, rec_recv, rec_send, rec_pack, rec_over,
            kk[fail_rows], ss[fail_rows], collision_counts,
            coll_fail if collect_collision_rows else None,
        )
        if profiler is not None:
            profiler.note("mac", (perf_counter() - t_mac) - t_phy)
        return out


#: Scenario-facing registry: MAC kind -> constructor.
MAC_KINDS: Dict[str, type] = {
    "ideal": IdealCsmaLink,
    "csma_802154": Csma802154Link,
}

#: Per-kind allowed ``mac_kwargs`` keys (scenario validation).
MAC_PARAMS: Dict[str, Tuple[str, ...]] = {
    "ideal": (),
    "csma_802154": ("mac_min_be", "mac_max_be", "max_csma_backoffs",
                    "max_frame_retries", "ack_wait_rounds"),
}


def make_link_model(kind: str, **kwargs) -> LinkModel:
    """Instantiate the link model named ``kind`` with ``kwargs``."""
    try:
        cls = MAC_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown MAC kind {kind!r} (valid: {sorted(MAC_KINDS)})"
        ) from None
    return cls(**kwargs)
