"""Semi-duplex radio: contention, collisions, capture, and loss.

The radio layer takes the set of transmissions a protocol committed to in
one slot and resolves what every awake receiver actually hears:

* **Semi-duplex** — a transmitting node never receives in the same slot
  (the engine removes senders from the awake set before resolution).
* **Collisions** — when two or more in-range transmissions overlap at an
  awake receiver, they destroy each other (hidden-terminal losses arise
  exactly this way: two senders outside carrier-sense range of each other
  address the same receiver).
* **Capture effect** (optional) — the strongest overlapping signal
  survives a collision if it dominates the next-strongest sufficiently;
  disabled by default to match the paper's model, but exposed because the
  related work (Flash flooding) builds on it.
* **Bernoulli loss** — a transmission that survives contention is received
  with probability equal to the link PRR (this is the paper's k-class
  behaviour: a PRR-q link needs on average 1/q attempts).
* **Overhearing** (optional) — an awake node in range of a transmission
  addressed to somebody else may still receive the packet; DBAO's
  suppression machinery relies on this.

Carrier sense is *not* the radio's job: it happens before commitment, in
the protocols (see :func:`csma_select_reps` used by DBAO/OF).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .topology import Topology

__all__ = [
    "Transmission",
    "TxBatch",
    "Reception",
    "SlotOutcome",
    "RadioModel",
    "RepSlotOutcome",
    "resolve_slot",
    "resolve_slot_reps",
    "csma_select",
    "csma_select_reps",
]


@dataclass(frozen=True)
class Transmission:
    """One committed unicast: ``sender`` sends ``packet`` to ``receiver``."""

    sender: int
    receiver: int
    packet: int

    def __post_init__(self):
        if self.sender == self.receiver:
            raise ValueError("sender and receiver must differ")
        if self.packet < 0:
            raise ValueError(f"packet index must be non-negative, got {self.packet}")


class TxBatch:
    """Structure-of-arrays view of one replication's committed
    transmissions in one slot.

    The one-replication reference resolver (:func:`resolve_slot`,
    :meth:`~repro.net.mac.LinkModel.resolve`) takes one, and the engine
    builds one per observed replication for the observer hooks; the
    engine itself resolves the flat arrays of the whole stack with
    :func:`resolve_slot_reps`. ``senders``, ``receivers`` and
    ``packets`` are parallel int64 arrays; row ``i`` is the unicast
    ``senders[i] -> receivers[i]`` carrying ``packets[i]``.

    A batch is logically immutable — callers must not mutate the arrays
    after construction (the object caches its :class:`Transmission`
    materialisation).
    """

    __slots__ = ("senders", "receivers", "packets", "_txs")

    def __init__(self, senders, receivers, packets):
        senders = np.ascontiguousarray(senders, dtype=np.int64)
        receivers = np.ascontiguousarray(receivers, dtype=np.int64)
        packets = np.ascontiguousarray(packets, dtype=np.int64)
        if not (senders.ndim == receivers.ndim == packets.ndim == 1):
            raise ValueError("TxBatch arrays must be one-dimensional")
        if not (senders.size == receivers.size == packets.size):
            raise ValueError("TxBatch arrays must have equal length")
        if senders.size:
            if np.any(senders == receivers):
                raise ValueError("sender and receiver must differ")
            if packets.min() < 0:
                raise ValueError("packet index must be non-negative")
        self.senders = senders
        self.receivers = receivers
        self.packets = packets
        self._txs: Optional[List[Transmission]] = None

    @classmethod
    def empty(cls) -> "TxBatch":
        return cls(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64)
        )

    @classmethod
    def from_transmissions(
        cls, transmissions: Iterable[Transmission]
    ) -> "TxBatch":
        txs = transmissions if isinstance(transmissions, list) else list(transmissions)
        n = len(txs)
        batch = cls(
            np.fromiter((tx.sender for tx in txs), np.int64, count=n),
            np.fromiter((tx.receiver for tx in txs), np.int64, count=n),
            np.fromiter((tx.packet for tx in txs), np.int64, count=n),
        )
        batch._txs = txs
        return batch

    def to_transmissions(self) -> List[Transmission]:
        """Materialise (and cache) the per-frame dataclass view."""
        if self._txs is None:
            self._txs = [
                Transmission(int(s), int(r), int(p))
                for s, r, p in zip(
                    self.senders.tolist(),
                    self.receivers.tolist(),
                    self.packets.tolist(),
                )
            ]
        return self._txs

    def __len__(self) -> int:
        return self.senders.size

    def __iter__(self):
        return iter(self.to_transmissions())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TxBatch):
            return NotImplemented
        return (
            np.array_equal(self.senders, other.senders)
            and np.array_equal(self.receivers, other.receivers)
            and np.array_equal(self.packets, other.packets)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TxBatch(n={len(self)}, senders={self.senders.tolist()}, "
            f"receivers={self.receivers.tolist()}, packets={self.packets.tolist()})"
        )


@dataclass(frozen=True)
class Reception:
    """A successful packet reception at ``receiver``.

    ``overheard`` is True when the packet was addressed to another node.
    """

    receiver: int
    sender: int
    packet: int
    overheard: bool = False


@dataclass
class SlotOutcome:
    """Everything that happened in one slot at the radio level."""

    receptions: List[Reception] = field(default_factory=list)
    #: Transmissions whose *intended* receiver did not get the packet.
    failures: List[Transmission] = field(default_factory=list)
    #: Subset of failures destroyed by a collision (vs. plain link loss).
    collisions: List[Transmission] = field(default_factory=list)

    @property
    def n_failures(self) -> int:
        return len(self.failures)

    @property
    def n_collisions(self) -> int:
        return len(self.collisions)

    def delivered_to(self, receiver: int) -> List[Reception]:
        return [r for r in self.receptions if r.receiver == receiver]


@dataclass(frozen=True)
class RadioModel:
    """Physical-layer behaviour switches.

    Parameters
    ----------
    collisions:
        Whether overlapping in-range transmissions destroy each other.
        The OPT oracle runs with this off.
    capture_guard:
        Preamble-capture window. Every transmission starts at a random
        sub-slot phase in ``[0, 1)`` (CSMA jitter); a receiver locks onto
        the earliest in-range frame and decodes it if the next frame
        starts at least ``capture_guard`` later — otherwise the overlap
        destroys both. Without this effect, deterministic protocols on
        deterministic schedules can livelock: the same hidden-terminal
        pair collides at the same wake slot every period, forever. Set to
        ``1.0`` to disable capture entirely (every overlap collides).
    capture_margin_db:
        SIR power capture for topologies that carry RSSI data: the
        strongest overlapping signal survives when it exceeds the
        runner-up by at least this many dB — every real receiver exhibits
        this, and without it a weak fringe interferer would "destroy" a
        frame arriving 30 dB hotter. ``None`` disables SIR capture.
    capture_ratio:
        Power-capture fallback for PRR-only topologies (no RSSI): the
        strongest signal survives when its PRR is at least
        ``capture_ratio`` times the runner-up's. Crude — PRR saturates at
        1 — but better than nothing. ``None`` disables the fallback.
    overhearing:
        Whether awake third parties can receive *data* frames addressed to
        others. Default **off**, matching the paper's unicast model
        (Sec. III-B assumes simultaneous neighbor wake-ups are rare and
        models flooding as pure unicasts; data overhearing would let one
        transmission spawn several copies, breaking the ``mu <= 2``
        branching bound behind Lemma 2 and the Sec. IV-B recurrence).
        DBAO's "overhearing" is different — it is ACK-based suppression,
        handled inside the protocol. The cross-layer future-work sketch
        turns data overhearing on deliberately.
    lossless:
        Force every surviving transmission to succeed (ideal networks of
        Sec. IV-A).
    """

    collisions: bool = True
    capture_guard: float = 0.3
    capture_margin_db: Optional[float] = 4.0
    capture_ratio: Optional[float] = 2.0
    overhearing: bool = False
    lossless: bool = False

    def __post_init__(self):
        if not (0.0 < self.capture_guard <= 1.0):
            raise ValueError("capture guard must be in (0, 1]")
        if self.capture_margin_db is not None and self.capture_margin_db < 0:
            raise ValueError("capture margin must be non-negative")
        if self.capture_ratio is not None and self.capture_ratio < 1.0:
            raise ValueError("capture ratio must be >= 1")


def _resolve_contention_idx(
    idxs: np.ndarray,
    addr_idxs: np.ndarray,
    col: int,
    senders: np.ndarray,
    prr: np.ndarray,
    rssi: Optional[np.ndarray],
    jitter: Optional[np.ndarray],
    model: RadioModel,
) -> Tuple[int, List[int]]:
    """Pick the frame (if any) a receiver decodes from >= 2 overlaps.

    Operates on batch row indices; ``idxs`` are the in-range rows,
    ``addr_idxs`` the subset addressed to this receiver, ``col`` the
    receiver's column in the ``prr``/``rssi`` gather matrices.

    Resolution order mirrors real receivers:

    1. **SIR power capture** — the strongest signal survives if it clears
       the runner-up by ``capture_margin_db`` (needs RSSI data; falls
       back to the PRR-ratio rule on PRR-only topologies).
    2. **Preamble capture** — the earliest frame survives if the next one
       starts at least ``capture_guard`` later (the receiver finished
       synchronizing before the interferer appeared).
    3. Otherwise the overlap destroys every addressed frame.

    Returns ``(surviving_row_or_-1, collided_addressed_rows)``.
    """
    # 1. Power capture. Stable descending sorts keep batch order on ties,
    # matching the stable `sorted(..., reverse=True)` this replaced.
    if rssi is not None and model.capture_margin_db is not None:
        vals = rssi[idxs, col]
        order = np.argsort(-vals, kind="stable")
        if vals[order[0]] - vals[order[1]] >= model.capture_margin_db:
            surv = int(idxs[order[0]])
            return surv, [i for i in addr_idxs.tolist() if i != surv]
    elif rssi is None and model.capture_ratio is not None:
        vals = prr[idxs, col]
        order = np.argsort(-vals, kind="stable")
        strongest, runner_up = vals[order[0]], vals[order[1]]
        if runner_up > 0 and strongest >= model.capture_ratio * runner_up:
            surv = int(idxs[order[0]])
            return surv, [i for i in addr_idxs.tolist() if i != surv]

    # 2. Preamble capture.
    if model.capture_guard < 1.0:
        order = np.lexsort((senders[idxs], jitter[idxs]))
        first, second = idxs[order[0]], idxs[order[1]]
        if jitter[second] - jitter[first] >= model.capture_guard:
            surv = int(first)
            return surv, [i for i in addr_idxs.tolist() if i != surv]

    # 3. Destructive collision.
    return -1, addr_idxs.tolist()


def resolve_slot(
    transmissions,
    topo: Topology,
    awake: Iterable[int],
    rng: np.random.Generator,
    model: RadioModel = RadioModel(),
    dynamics=None,
    assume_unique_senders: bool = False,
) -> SlotOutcome:
    """Resolve one slot of concurrent transmissions.

    Parameters
    ----------
    transmissions:
        Committed unicasts — a :class:`TxBatch` or a sequence of
        :class:`Transmission`; at most one per sender (validated).
    topo:
        The static topology (adjacency decides interference range).
    awake:
        Node ids able to receive this slot. Senders are removed
        automatically (semi-duplex).
    rng:
        Loss/capture randomness stream.
    model:
        Radio behaviour switches.
    dynamics:
        Optional :class:`~repro.net.dynamics.GilbertElliott` link state;
        when present, the per-transmission success draw uses the link's
        *current effective* PRR (contention and capture still use the
        long-term figures — interference physics does not change with a
        momentary fade, only decodability does).

    Notes
    -----
    Resolution is batch-native but RNG-equivalent to the original
    per-frame implementation: the jitter block ``rng.random(k)`` consumes
    the same stream as ``k`` sender-sorted scalar draws, and the Bernoulli
    block consumes one draw per eligible receiver in ascending receiver
    order, exactly as the per-receiver loop did.
    """
    outcome = SlotOutcome()
    if isinstance(transmissions, TxBatch):
        batch = transmissions
    else:
        if not transmissions:
            return outcome
        batch = TxBatch.from_transmissions(transmissions)
    k = len(batch)
    if k == 0:
        return outcome

    senders = batch.senders
    # Duplicate-sender guard without the per-slot sort np.unique costs:
    # bincount over the (small, bounded-by-n_nodes) id range. The engine
    # pipeline's validate stage already proves uniqueness and passes
    # ``assume_unique_senders`` — the guard is then folded into that
    # stage instead of re-running per resolve.
    if not assume_unique_senders and k > 1 and int(np.bincount(senders).max()) > 1:
        seen: Set[int] = set()
        for s in senders.tolist():
            if s in seen:
                raise ValueError(f"node {s} committed two transmissions in one slot")
            seen.add(s)

    txs: Optional[List[Transmission]] = None  # materialized on demand
    tx_receivers = batch.receivers
    tx_packets = batch.packets

    # CSMA start-phase jitter, one draw per transmission per slot, shared
    # by every receiver (a frame starts when it starts). The block draw
    # fills sender-sorted positions for reproducibility.
    jitter: Optional[np.ndarray] = None
    if model.collisions:
        jitter = np.empty(k)
        jitter[np.argsort(senders)] = rng.random(k)

    awake_arr = np.asarray(
        awake if isinstance(awake, np.ndarray) else list(awake), dtype=np.int64
    )
    # Semi-duplex: senders cannot receive. A mask pass replaces
    # setdiff1d's sort; wake sets arrive sorted unique from the engine
    # (unsorted callers get the normalizing fallback).
    if awake_arr.size > 1 and not np.all(awake_arr[1:] > awake_arr[:-1]):
        awake_arr = np.unique(awake_arr)
    sender_mask = np.zeros(topo.n_nodes, dtype=bool)
    sender_mask[senders] = True
    r_ids = awake_arr[~sender_mask[awake_arr]]
    delivered = np.zeros(k, dtype=bool)

    if r_ids.size:
        in_range = topo.adjacency[senders][:, r_ids]  # (k, R)
        prr_mat = topo.prr[senders][:, r_ids]
        rssi_mat = topo.rssi[senders][:, r_ids] if topo.rssi is not None else None
        addressed = in_range & (tx_receivers[:, None] == r_ids[None, :])

        # (receiver, surviving row, is_addressed, effective prr) for every
        # receiver that reaches the Bernoulli stage, in receiver order.
        pending: List[Tuple[int, int, bool, float]] = []
        for j in np.nonzero(in_range.any(axis=0))[0].tolist():
            idxs = np.nonzero(in_range[:, j])[0]
            r = int(r_ids[j])
            collided: List[int] = []
            if idxs.size == 1:
                surv = int(idxs[0])
            elif not model.collisions:
                # Collision-free oracle: every addressed signal is
                # independent; the receiver can decode at most one per
                # slot — the best addressed one, or (overhearing
                # permitting) the best bystander frame when nothing is
                # addressed to it.
                addr_idxs = idxs[addressed[idxs, j]]
                if addr_idxs.size:
                    surv = int(addr_idxs[np.argmax(prr_mat[addr_idxs, j])])
                elif model.overhearing:
                    surv = int(idxs[np.argmax(prr_mat[idxs, j])])
                else:
                    surv = -1
            else:
                surv, collided = _resolve_contention_idx(
                    idxs, idxs[addressed[idxs, j]], j,
                    senders, prr_mat, rssi_mat, jitter, model,
                )

            if collided:
                if txs is None:
                    txs = batch.to_transmissions()
                outcome.collisions.extend(txs[i] for i in collided)
            if surv < 0:
                continue
            is_addressed = bool(tx_receivers[surv] == r)
            if not is_addressed and not model.overhearing:
                continue
            prr = float(prr_mat[surv, j])
            if dynamics is not None:
                prr *= dynamics.gain(int(senders[surv]), r)
            if prr <= 0.0:
                continue
            pending.append((r, surv, is_addressed, prr))

        # Bernoulli reception draws, batched in receiver order.
        draws = None
        if not model.lossless and pending:
            draws = rng.random(len(pending))
        for i, (r, surv, is_addressed, prr) in enumerate(pending):
            if draws is not None and not draws[i] < prr:
                continue
            outcome.receptions.append(
                Reception(
                    receiver=r,
                    sender=int(senders[surv]),
                    packet=int(tx_packets[surv]),
                    overheard=not is_addressed,
                )
            )
            if is_addressed:
                delivered[surv] = True

    fail_rows = np.nonzero(~delivered)[0]
    if fail_rows.size:
        if txs is None:
            txs = batch.to_transmissions()
        outcome.failures.extend(txs[i] for i in fail_rows.tolist())
    return outcome


class RepSlotOutcome:
    """Structure-of-arrays slot outcome across R replications.

    The replication-batched pipeline's analogue of :class:`SlotOutcome`:
    receptions and failures carry an explicit replication id per entry so
    the apply stage can scatter them back onto the (R, …) state stacks.
    Entry order within one replication is receiver-ascending for
    receptions (matching the serial resolver) and batch-row order for
    failures; replications appear grouped but their relative order is an
    implementation detail — per-replication *state* never depends on it.
    """

    __slots__ = (
        "rec_rep", "rec_receiver", "rec_sender", "rec_packet",
        "rec_overheard", "fail_rep", "fail_sender", "collision_counts",
        "coll_rows",
    )

    def __init__(self, rec_rep, rec_receiver, rec_sender, rec_packet,
                 rec_overheard, fail_rep, fail_sender, collision_counts,
                 coll_rows=None):
        self.rec_rep = rec_rep
        self.rec_receiver = rec_receiver
        self.rec_sender = rec_sender
        self.rec_packet = rec_packet
        self.rec_overheard = rec_overheard
        self.fail_rep = fail_rep
        self.fail_sender = fail_sender
        #: replication id -> number of collision-destroyed transmissions.
        self.collision_counts = collision_counts
        #: Flat input-row indices of collision-destroyed transmissions,
        #: populated only when the resolver ran with
        #: ``collect_collision_rows`` (MAC layers attribute collisions to
        #: frames across retry rounds with it); ``None`` otherwise.
        self.coll_rows = coll_rows

    @classmethod
    def empty(cls) -> "RepSlotOutcome":
        z = np.empty(0, np.int64)
        return cls(z, z, z, z, np.empty(0, bool), z, z, {}, z)


def resolve_slot_reps(
    kk: np.ndarray,
    ss: np.ndarray,
    rr: np.ndarray,
    pp: np.ndarray,
    topo: Topology,
    awake_by_rep,
    rngs,
    model: RadioModel = RadioModel(),
    dynamics=None,
    awake_stack: Optional[np.ndarray] = None,
    collect_collision_rows: bool = False,
) -> RepSlotOutcome:
    """Resolve one slot's transmissions across R replications at once.

    Parameters
    ----------
    kk, ss, rr, pp:
        Parallel flat arrays: replication id (ascending groups), sender,
        receiver, packet. Each replication's rows must appear in its
        back-off rank order, the order :func:`resolve_slot` would see
        them in for that replication alone.
    awake_by_rep:
        Indexable by replication id; sorted unique wake set per rep.
        Ignored when ``awake_stack`` is supplied.
    awake_stack:
        Optional ``(R, n_nodes)`` boolean wake matrix (row per
        replication id). Engines that cache wake sets per schedule phase
        pass it to skip the per-replication mask scatter.
    rngs:
        Indexable by replication id; each replication's channel stream.
    dynamics:
        Optional :class:`~repro.net.dynamics.BatchGilbertElliott`.
    collect_collision_rows:
        When true, the outcome's ``coll_rows`` holds the flat input-row
        indices of collision-destroyed transmissions (each row at most
        once per call — a frame is addressed to exactly one receiver).
        MAC layers that retry frames across micro-rounds need the
        per-frame identity to keep flood-level collision accounting a
        subset of frame failures. Off by default: the ideal path never
        pays for it.

    Stream identity
    ---------------
    The resolver consumes each replication's channel stream exactly like
    the serial :func:`resolve_slot`: one jitter block per replication
    with transmissions (``collisions`` models, filled in sender-sorted
    positions) and one Bernoulli draw per pending receiver in
    ascending-receiver order. Contended receivers — the capture
    tie-breaks — are re-derived per (replication, receiver) group on the
    same row order the serial resolver would see, so every replication
    stays bit-identical without routing whole replications through the
    serial path.
    """
    T = int(ss.size)
    if T == 0:
        return RepSlotOutcome.empty()
    n = topo.n_nodes

    # kk arrives in ascending replication groups: boundary detection
    # replaces np.unique's sort.
    is_head = np.empty(T, dtype=bool)
    is_head[0] = True
    np.not_equal(kk[1:], kk[:-1], out=is_head[1:])
    starts = np.flatnonzero(is_head)
    rep_ids = kk[starts]
    blist = starts.tolist()
    blist.append(T)
    n_local = rep_ids.size
    local = np.cumsum(is_head) - 1

    # CSMA start-phase jitter: the serial resolver draws one block per
    # replication per slot with transmissions, scattered to sender-sorted
    # positions, before any receiver logic — even when nothing ends up
    # contended.
    rep_list = rep_ids.tolist()
    jitter = None
    if model.collisions:
        draws = np.empty(T, dtype=np.float64)
        for li in range(n_local):
            lo, hi = blist[li], blist[li + 1]
            rngs[rep_list[li]].random(out=draws[lo:hi])
        # One global (replication, sender) sort lands every block draw on
        # the same position the serial per-replication scatter used.
        # (rep, sender) rows are duplicate-free, so the fused integer key
        # sorts identically to lexsort((ss, kk)).
        jitter = np.empty(T, dtype=np.float64)
        jitter[np.argsort(kk * n + ss, kind="stable")] = draws

    # Per-replication receiver eligibility: awake and not transmitting.
    if awake_stack is not None:
        mask = awake_stack[rep_ids]
    else:
        mask = np.zeros((n_local, n), dtype=bool)
        for li in range(n_local):
            mask[li, awake_by_rep[int(rep_ids[li])]] = True
    mask[local, ss] = False
    hits = topo.adjacency[ss] & mask[local]  # (T, n)
    tx_idx, recv = np.nonzero(hits)

    delivered = np.zeros(T, dtype=bool)
    collision_counts = {}
    coll_rows = np.empty(0, np.int64) if collect_collision_rows else None

    if tx_idx.size:
        key = local[tx_idx] * n + recv
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        tx_s = tx_idx[order]
        recv_s = recv[order]
        g_head = np.empty(key_s.size, dtype=bool)
        g_head[0] = True
        np.not_equal(key_s[1:], key_s[:-1], out=g_head[1:])
        start_u = np.flatnonzero(g_head)
        uniq = key_s[start_u]
        counts = np.diff(start_u, append=key_s.size)
        grp_rep_local = uniq // n
        grp_recv = uniq % n
        addr_s = rr[tx_s] == recv_s
        addr_counts = np.add.reduceat(addr_s.astype(np.int64), start_u)

        # Survivor per group. Vectorized cases: the single in-range
        # frame, and — collision-free — the unique addressed frame among
        # several.
        surv_row = np.full(uniq.size, -1, dtype=np.int64)
        single = counts == 1
        surv_row[single] = tx_s[start_u[single]]
        if model.collisions:
            hard = np.flatnonzero(counts >= 2)
        else:
            multi = (~single) & (addr_counts == 1)
            if multi.any():
                idx_addr = np.flatnonzero(addr_s)
                grp_of = np.searchsorted(
                    start_u, idx_addr, side="right") - 1
                pick = multi[grp_of]
                surv_row[grp_of[pick]] = tx_s[idx_addr[pick]]
            # Collision-free oracle picks with >= 2 addressed frames (or
            # an overhearing pick among unaddressed ones) tie-break on
            # row order — the per-group loop below re-derives them.
            hard = np.flatnonzero(
                (addr_counts >= 2)
                | ((counts >= 2) & (addr_counts == 0) & model.overhearing)
            )

        if hard.size:
            # Flatten the hard groups into one segmented array so every
            # capture rule runs as a single lexsort + segment-head gather
            # instead of a per-group Python call. lexsort is stable, so
            # within a group ties keep ascending batch-row order — the
            # exact tie-breaks of _resolve_contention_idx / np.argmax.
            prr_all = topo.prr
            stops_u = np.append(start_u[1:], key_s.size)
            seg_len = (stops_u[hard] - start_u[hard]).astype(np.int64)
            seg_start = np.concatenate(([0], np.cumsum(seg_len)[:-1]))
            total = int(seg_len.sum())
            offs = np.arange(total) - np.repeat(seg_start, seg_len)
            flat = np.repeat(start_u[hard], seg_len) + offs
            gid = np.repeat(np.arange(hard.size), seg_len)
            rows_f = tx_s[flat]
            r_f = np.repeat(grp_recv[hard], seg_len)
            send_f = ss[rows_f]
            if not model.collisions:
                # Oracle pick: best addressed frame, else (overhearing)
                # best bystander frame.
                vals = prr_all[send_f, r_f]
                elig = addr_s[flat] | np.repeat(
                    addr_counts[hard] == 0, seg_len)
                ord_c = np.lexsort((-vals, ~elig, gid))
                surv_row[hard] = rows_f[ord_c[seg_start]]
            else:
                surv_h = np.full(hard.size, -1, dtype=np.int64)
                cap = np.zeros(hard.size, dtype=bool)
                # 1. Power capture: strongest survives if it clears the
                # runner-up (SIR margin with RSSI, PRR ratio without).
                if topo.rssi is not None and model.capture_margin_db is not None:
                    vals = topo.rssi[send_f, r_f]
                    ord_p = np.lexsort((-vals, gid))
                    v1 = vals[ord_p[seg_start]]
                    v2 = vals[ord_p[seg_start + 1]]
                    cap = v1 - v2 >= model.capture_margin_db
                    surv_h[cap] = rows_f[ord_p[seg_start]][cap]
                elif topo.rssi is None and model.capture_ratio is not None:
                    vals = prr_all[send_f, r_f]
                    ord_p = np.lexsort((-vals, gid))
                    v1 = vals[ord_p[seg_start]]
                    v2 = vals[ord_p[seg_start + 1]]
                    cap = (v2 > 0) & (v1 >= model.capture_ratio * v2)
                    surv_h[cap] = rows_f[ord_p[seg_start]][cap]
                # 2. Preamble capture: earliest start survives if the
                # next frame began at least capture_guard later.
                if model.capture_guard < 1.0 and not cap.all():
                    jit_f = jitter[rows_f]
                    ord_g = np.lexsort((send_f, jit_f, gid))
                    j_sorted = jit_f[ord_g]
                    j1 = j_sorted[seg_start]
                    j2 = j_sorted[seg_start + 1]
                    pre = ~cap & (j2 - j1 >= model.capture_guard)
                    surv_h[pre] = rows_f[ord_g[seg_start]][pre]
                surv_row[hard] = surv_h
                # 3. Collision accounting: every addressed frame except
                # a surviving addressed one is destroyed.
                safe = np.maximum(surv_h, 0)
                surv_addr = (surv_h >= 0) & (rr[safe] == grp_recv[hard])
                n_coll = addr_counts[hard] - surv_addr.astype(np.int64)
                cc = np.zeros(n_local, dtype=np.int64)
                np.add.at(cc, grp_rep_local[hard], n_coll)
                for li in np.flatnonzero(cc).tolist():
                    collision_counts[int(rep_ids[li])] = int(cc[li])
                if collect_collision_rows:
                    # Destroyed addressed frames: every addressed row in
                    # a contended group except the survivor (surv_h = -1
                    # never equals a real row, so "no survivor" keeps
                    # all addressed rows).
                    coll_rows = rows_f[
                        addr_s[flat] & (rows_f != np.repeat(surv_h, seg_len))
                    ].copy()

        # Pending receivers across all replications, already in the
        # serial (replication, ascending receiver) order from the group
        # key sort above.
        ok = surv_row >= 0
        g_row = surv_row[ok]
        g_recv = grp_recv[ok]
        g_rep_local = grp_rep_local[ok]
        is_addr = rr[g_row] == g_recv
        keep = is_addr | model.overhearing
        prr = topo.prr[ss[g_row], g_recv]
        if dynamics is not None:
            prr = prr * dynamics.gains(kk[g_row], ss[g_row], g_recv)
        keep &= prr > 0.0
        g_row, g_recv, g_rep_local = g_row[keep], g_recv[keep], g_rep_local[keep]
        is_addr, prr = is_addr[keep], prr[keep]
    else:
        g_row = g_recv = g_rep_local = np.empty(0, dtype=np.int64)
        is_addr = np.empty(0, dtype=bool)
        prr = np.empty(0, dtype=np.float64)
    # Bernoulli reception draws: one block per replication with pending
    # receivers, exactly the serial draw, written into one flat buffer so
    # the accept/gather stage runs once across all replications.
    if model.lossless:
        okd = np.ones(g_row.size, dtype=bool)
    else:
        pend_starts = np.searchsorted(
            g_rep_local, np.arange(n_local + 1)).tolist()
        rnd = np.empty(g_row.size, dtype=np.float64)
        for li in range(n_local):
            p_lo, p_hi = pend_starts[li], pend_starts[li + 1]
            if p_hi > p_lo:
                rngs[rep_list[li]].random(out=rnd[p_lo:p_hi])
        okd = rnd < prr
    acc_rows = g_row[okd]
    addr_ok = is_addr[okd]
    delivered[acc_rows[addr_ok]] = True

    # Failures: undelivered rows in batch order (the serial order).
    fail_rows = np.flatnonzero(~delivered)
    return RepSlotOutcome(
        rep_ids[g_rep_local[okd]], g_recv[okd], ss[acc_rows], pp[acc_rows],
        ~addr_ok, kk[fail_rows], ss[fail_rows], collision_counts,
        coll_rows,
    )


def csma_select(
    ranked_senders: Sequence[int], topo: Topology
) -> Tuple[List[int], Dict[int, List[int]]]:
    """Physical carrier sense: who actually transmits, who defers to whom.

    Senders are processed in back-off order (``ranked_senders[0]`` has the
    shortest back-off). A sender transmits unless it can *hear* an
    earlier-ranked sender that already started — direct audibility only,
    so spatially-separated senders reuse the channel even when chained
    through common neighbors (the standard CSMA spatial-reuse behaviour).
    Hidden terminals — senders that cannot hear any active transmitter —
    proceed and may collide at shared receivers; that is the radio
    resolver's business.

    Returns
    -------
    (winners, deferrals):
        ``winners`` in rank order; ``deferrals[w]`` lists the senders that
        stayed silent because they heard ``w`` (attributed to the first
        audible winner). Deferring senders remain awake through the slot —
        they are the overhearing audience DBAO's suppression uses.
    """
    ids = [int(s) for s in ranked_senders]
    if len(set(ids)) != len(ids):
        seen = set()
        for s in ids:
            if s in seen:
                raise ValueError(f"duplicate sender {s} in ranked list")
            seen.add(s)
    k = len(ids)
    winners: List[int] = []
    deferrals: Dict[int, List[int]] = {}
    if k == 0:
        return winners, deferrals
    arr = np.asarray(ids, dtype=np.int64)
    # One gather of the symmetric audibility submatrix replaces the
    # per-pair link lookups; each sender then defers to the first
    # audible earlier winner (argmax finds the first True).
    aud = topo.audible[np.ix_(arr, arr)]
    win_rows = np.empty(k, dtype=np.int64)
    n_win = 0
    for i, s in enumerate(ids):
        if n_win:
            hits = aud[i, win_rows[:n_win]]
            h = int(hits.argmax())
            if hits[h]:
                deferrals[ids[int(win_rows[h])]].append(s)
                continue
        winners.append(s)
        deferrals[s] = []
        win_rows[n_win] = i
        n_win += 1
    return winners, deferrals


def csma_select_reps(
    groups: np.ndarray, senders: np.ndarray, topo: Topology
) -> np.ndarray:
    """Winners-only :func:`csma_select` across independent groups.

    ``groups`` holds an ascending group index (one group per
    replication) for each candidate; within a group candidates appear in
    back-off rank order, duplicate-free. Returns a boolean winner mask —
    per group, exactly ``csma_select``'s winners (a candidate defers iff
    it can hear an earlier winner of its own group) without the deferral
    attribution the batched callers never use.
    """
    win = np.zeros(senders.size, dtype=bool)
    if senders.size == 0:
        return win
    heard = np.zeros((int(groups[-1]) + 1, topo.n_nodes), dtype=bool)
    audible = topo.audible
    # Round-based greedy: each round, the earliest-ranked candidate of
    # every group that hears no winner yet transmits. Equivalent to the
    # sequential scan — ``heard`` only grows, so a deferred candidate
    # stays deferred and the earliest eligible candidate each round is
    # exactly the scan's next winner — but each round is one vector pass
    # instead of a Python iteration per candidate.
    idx = np.arange(senders.size)
    while idx.size:
        g = groups[idx]
        first = np.empty(idx.size, dtype=bool)
        first[0] = True
        np.not_equal(g[1:], g[:-1], out=first[1:])
        winners = idx[first]
        win[winners] = True
        heard[groups[winners]] |= audible[senders[winners]]
        idx = idx[~first]
        if idx.size:
            idx = idx[~heard[groups[idx], senders[idx]]]
    return win
