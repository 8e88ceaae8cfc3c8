"""Flooding-protocol interface and registry.

A protocol's job each slot: given which nodes are awake (able to receive),
decide which covered nodes transmit what to whom. Everything else —
injection, channel resolution, possession bookkeeping, metrics — is the
engine's. Protocols run R replications of one scenario at once and see
network state only through :class:`RepSimView`, which exposes *exactly*
the information the paper's model grants a node: its own buffer, its
neighbors' schedules (local synchronization), and whatever it learned
from acknowledged or overheard transmissions.

The one deliberate exception is :class:`~repro.protocols.opt.OptOracle`,
which reads ground-truth possession — that is the point of OPT.
"""

from __future__ import annotations

from abc import ABC
from typing import Dict, List, Optional, Type

import numpy as np

from ..net.packet import FloodWorkload
from ..net.schedule import ScheduleTable
from ..net.topology import Topology

__all__ = ["RepSimView", "FloodingProtocol", "register_protocol",
           "make_protocol", "available_protocols", "NEVER",
           "WakeStack", "PhaseTable", "PacketWords"]

#: Sentinel arrival for absent packets in FCFS computations (hoisted —
#: ``np.iinfo`` on every call shows up hard in profiles).
_INT64_MAX = np.iinfo(np.int64).max

#: "No action possible ever" sentinel for :meth:`next_action_slots`.
#: Far beyond any horizon yet small enough that the engine's clamping
#: arithmetic cannot overflow int64.
NEVER = _INT64_MAX // 4


class WakeStack:
    """The believed wake schedules of a replication stack.

    Replication ``k``'s table repeats with its own wake period ``T_k``
    (the paper's compact time scale); a cross-cell stack mixes periods.
    :meth:`wake` answers one slot for the whole stack, and
    :meth:`triples` lists every ``(replication, phase, node)`` wake of
    one period per replication — the input of a :class:`PhaseTable`.
    Wakes are grouped under the key ``p * R + k`` of replication ``k``
    at phase ``p < T_k``.
    """

    def __init__(self, schedules_list):
        #: (R,) per-replication wake periods.
        self.periods = np.asarray(
            [int(s.period) for s in schedules_list], dtype=np.int64)
        mats = [s.offsets_matrix for s in schedules_list]
        width = max(m.shape[1] for m in mats)
        #: ``(R, n, A)`` active-slot offsets of every node (``A`` wake
        #: slots per period). Tables with fewer wake slots repeat their
        #: last offset, which leaves every wake test and earliest-wake
        #: minimum unchanged.
        self.offsets_stack = np.stack([
            m if m.shape[1] == width
            else np.pad(m, ((0, 0), (0, width - m.shape[1])), mode="edge")
            for m in mats
        ])

    @property
    def n_reps(self) -> int:
        return self.periods.size

    def wake(self, t: int) -> np.ndarray:
        """``(R, n)`` wake matrix of slot ``t``: row ``k`` marks the
        nodes replication ``k``'s table has active at ``t``."""
        phase = t % self.periods
        return (self.offsets_stack == phase[:, None, None]).any(axis=2)

    def group_keys(self, t: int, rep_ids: np.ndarray) -> np.ndarray:
        """Group key of each listed replication's phase at slot ``t``."""
        return t % self.periods[rep_ids] * self.n_reps + rep_ids

    def triples(self):
        """``(key, kk, nodes)`` of every wake in one period per
        replication: node ``nodes[i]`` of replication ``kk[i]`` is
        active at the phase group ``key[i]``.

        Sorted by group key, then ascending node — within a group, the
        order the serial wake list has.
        """
        off = self.offsets_stack
        R, n, A = off.shape
        kk = np.repeat(np.arange(R, dtype=np.int64), n * A)
        nodes = np.tile(np.repeat(np.arange(n, dtype=np.int64), A), R)
        key = off.reshape(-1) * R + kk
        order = np.lexsort((nodes, key))
        key, kk, nodes = key[order], kk[order], nodes[order]
        # Edge padding repeats a wake slot: keep each wake once.
        keep = np.ones(key.size, dtype=bool)
        keep[1:] = (key[1:] != key[:-1]) | (nodes[1:] != nodes[:-1])
        return key[keep], kk[keep], nodes[keep]

    def awake(self, key: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Whether ``nodes[i]`` is active in the phase group ``key[i]``."""
        kk = key % self.n_reps
        phase = key // self.n_reps
        return (self.offsets_stack[kk, nodes] == phase[:, None]).any(axis=1)


class PhaseTable:
    """A replication stack's per-slot rows, one wake period each.

    Rows derived from wake sets alone — a protocol's candidate rows and
    their static annotations — repeat with each replication's own wake
    period. The table holds them once, grouped by ``(replication k,
    phase p < T_k)`` under :class:`WakeStack`'s group key ``p * R + k``,
    whatever mix of periods the stack has. :meth:`rows` serves slot
    ``t`` by gathering the groups ``(k, t % T_k)`` of the executing
    replications, ascending ``k``: two ``searchsorted`` calls on the
    group keys and one ranges gather. Groups of one phase lie back to
    back, so when every replication of a uniform-period stack executes
    the gather is a plain slice.
    """

    def __init__(self, wakes: WakeStack, key: np.ndarray, *cols):
        """``key`` is each row's group key, ascending; ``cols`` are the
        row columns (first axis rows), each group's rows in the order a
        slot serves them."""
        self._wakes = wakes
        self._gkey, starts = np.unique(key, return_index=True)
        self._gbound = np.append(starts, key.size)
        #: The row columns, one period of rows per replication.
        self.cols = cols

    def __len__(self) -> int:
        return int(self._gbound[-1])

    def rows(self, t: int, rep_ids: np.ndarray) -> tuple:
        """The columns' rows of slot ``t`` for the replications
        ``rep_ids`` (ascending, non-empty), grouped by replication."""
        q = self._wakes.group_keys(t, rep_ids)
        # A group without rows is an empty range where the next starts.
        lo = self._gbound[self._gkey.searchsorted(q)]
        hi = self._gbound[self._gkey.searchsorted(q, side="right")]
        if (hi[:-1] == lo[1:]).all():
            a, b = int(lo[0]), int(hi[-1])
            return tuple(c[a:b] for c in self.cols)
        sizes = hi - lo
        idx = np.arange(int(sizes.sum())) + np.repeat(
            lo - (np.cumsum(sizes) - sizes), sizes)
        return tuple(c.take(idx, axis=0) for c in self.cols)


class PacketWords:
    """The packet-set encoding: ``W = ceil(M / 64)`` uint64 words.

    Packet ``p`` is bit ``p % 64`` of word ``p // 64``, so a set of
    packets is a trailing ``(W,)`` word axis and set algebra (union,
    difference, "holds something the other lacks") runs as word ops. The
    engine's possession words (:attr:`RepSimView.has_packed`) and the
    protocols' neighbor beliefs share this one layout at every ``M``.
    """

    def __init__(self, n_packets: int):
        if n_packets < 1:
            raise ValueError("need at least one packet")
        self.n_packets = int(n_packets)
        #: Words per packet set.
        self.n_words = -(-self.n_packets // 64)
        packets = np.arange(self.n_packets, dtype=np.int64)
        #: (M,) word index of each packet.
        self.word = packets // 64
        #: (M,) each packet's bit within its word.
        self.bit = np.uint64(1) << (packets % 64).astype(np.uint64)
        self._word_starts = packets[::64]
        #: (W,) words of the full packet set.
        self.full = self.pack(np.ones(self.n_packets, dtype=bool))

    def pack(self, has: np.ndarray, axis: int = -1) -> np.ndarray:
        """C-contiguous ``(..., W)`` words of boolean packet masks whose
        packet axis (length M) is ``axis``; the other axes keep their
        order. Contiguity lets callers keep flat views of the words."""
        has = np.moveaxis(np.asarray(has, dtype=bool), axis, -1)
        # A word's packets hold distinct bits, so their sum is their OR.
        return np.ascontiguousarray(
            np.add.reduceat(has * self.bit, self._word_starts, axis=-1))

    def unpack(self, words: np.ndarray) -> np.ndarray:
        """``(..., M)`` boolean packet masks of ``(..., W)`` words."""
        return (np.take(words, self.word, axis=-1) & self.bit) != 0


class RepSimView:
    """Stacked read-only window across R replications of one scenario.

    Possession and arrival matrices carry a leading replication axis
    (``(R, M, n_nodes)``); schedules stay per-replication objects plus a
    stacked ``(R, n_nodes, A)`` matrix of every node's active-slot
    offsets (``A`` wake slots per period) for vectorized wake queries.
    Protocols other than OPT must only read a node's *own* columns — the
    engine cannot enforce this, but the test suite audits each
    protocol's information usage on crafted scenarios.

    ``wakes`` is the stack's :class:`WakeStack`, whose offsets stack
    the view shares; one is built when none is passed.
    """

    def __init__(
        self,
        topo: Topology,
        schedules_list: "List[ScheduleTable]",
        workload: FloodWorkload,
        has_stack: np.ndarray,
        arrival_stack: np.ndarray,
        wakes: Optional[WakeStack] = None,
    ):
        self.topo = topo
        self.schedules_list = schedules_list
        self.workload = workload
        self.has_stack = has_stack
        self.arrival_stack = arrival_stack
        if wakes is None:
            wakes = WakeStack(schedules_list)
        self.offsets_stack = wakes.offsets_stack
        #: (R,) per-replication wake periods; cross-cell stacks mix duty
        #: cycles.
        self.periods = wakes.periods
        #: (R, n) buffer sizes, kept in sync by the engine as possession
        #: changes so pair queries skip the (P, M) gather-and-sum.
        self.held_counts = has_stack.sum(axis=1, dtype=np.int64)
        #: (R, n) slot of each node's latest packet arrival (-1 while it
        #: holds none), kept in sync by the engine alongside
        #: ``held_counts``: an upper bound on the arrival of every packet
        #: the node holds, read without the (P, M) head gather.
        self.latest_arrival = arrival_stack.max(axis=1)
        #: The packet-set word layout.
        self.packet_words = PacketWords(self.n_packets)
        #: (R, n, W) possession words (:class:`PacketWords`), kept in
        #: sync by the engine alongside ``held_counts``; lets proposals
        #: and frontier queries compare whole buffers with W uint64 ops
        #: instead of an (M,) reduction.
        self.has_packed = self.packet_words.pack(has_stack, axis=1)

    @property
    def n_reps(self) -> int:
        return self.has_stack.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.topo.n_nodes

    @property
    def n_packets(self) -> int:
        return self.workload.n_packets

    def fcfs_head(
        self, rep: int, sender: int, needed_mask: np.ndarray
    ) -> Optional[int]:
        """Earliest-arrived packet at ``sender`` among ``needed_mask``.

        ``needed_mask`` is an ``(M,)`` boolean mask of packets the
        intended receiver lacks *according to the sender's information*
        in replication ``rep``. Returns the packet index or None.
        """
        cand = self.has_stack[rep, :, sender] & needed_mask
        if not cand.any():
            return None
        arrivals = np.where(
            cand, self.arrival_stack[rep, :, sender], _INT64_MAX)
        return int(arrivals.argmin())

    def candidate_senders(
        self, rep: int, neighbors: np.ndarray, needed_mask: np.ndarray
    ) -> np.ndarray:
        """Subset of ``neighbors`` holding a packet in ``needed_mask``."""
        neighbors = np.asarray(neighbors)
        if neighbors.size == 0 or not needed_mask.any():
            return neighbors[:0]
        sub = self.has_stack[rep][:, neighbors] & needed_mask[:, None]
        return neighbors[sub.any(axis=0)]

    def fcfs_heads_masked(
        self, kk: np.ndarray, senders: np.ndarray, cand: np.ndarray
    ) -> np.ndarray:
        """FCFS heads for flat (replication, sender) pairs.

        Row ``i`` of the ``(P, M)`` mask ``cand`` marks the packets
        ``senders[i]`` may send in replication ``kk[i]`` (callers unpack
        it from candidate words, see :class:`PacketWords`) and must be
        non-empty. Returns the earliest-arrived such packet per row,
        ties to the lower index, as :meth:`fcfs_head`.
        """
        arrivals = np.where(
            cand, self.arrival_stack[kk, :, senders], _INT64_MAX)
        return arrivals.argmin(axis=1)

    def earliest_wakes(
        self, t: int, rep_ids: np.ndarray, frontier: np.ndarray,
        offers: np.ndarray, off_frontier: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Earliest slot after ``t`` at which an offered receiver wakes.

        The shared tail of every protocol's quiescence frontier.
        ``frontier`` holds candidate receiver node ids; ``offers`` is
        ``(len(rep_ids), len(frontier))`` marking which of them each
        replication could still serve. Every active slot of a receiver
        counts, so the result is a sound lower bound per replication
        (:data:`NEVER` where no receiver offers).

        ``off_frontier`` may carry the precomputed ``(R, len(frontier),
        A)`` offset gather for protocols whose frontier is static —
        queries then skip the per-call node-axis fancy index.
        """
        if frontier.size == 0:
            return np.full(len(rep_ids), NEVER, dtype=np.int64)
        wakes = self.next_wakes(t, rep_ids, frontier, off_frontier)
        return np.where(offers[:, :, None], wakes, NEVER).min(axis=(1, 2))

    def next_wakes(
        self, t: int, rep_ids: np.ndarray, nodes: np.ndarray,
        off_nodes: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """``(len(rep_ids), len(nodes), A)`` first slot after ``t`` of
        each of the nodes' believed active slots, per replication.

        ``off_nodes`` is the optional precomputed ``(R, len(nodes), A)``
        offset gather (see :meth:`earliest_wakes`).
        """
        if off_nodes is None:
            off = self.offsets_stack[rep_ids[:, None], nodes[None, :]]
        else:
            off = off_nodes[rep_ids]
        # The modular formula with each replication's own period: the
        # query costs the gathered offsets, whatever the period.
        nxt = t + 1
        per = self.periods[rep_ids][:, None, None]
        return nxt + ((off - nxt) % per)


class FloodingProtocol(ABC):
    """Base class for flooding protocols.

    Lifecycle: :meth:`prepare_reps` once per run, then per executed slot
    :meth:`propose_reps` followed by :meth:`observe_reps` with the
    channel outcome; after an idle slot the engine asks
    :meth:`next_action_slots` how far it may fast-forward. Every method
    serves R independent replications at once, and each replication's
    decisions must depend on that replication's state and stream only.
    """

    #: Registry key; subclasses must override.
    name: str = ""

    #: Constructor kwargs, for faithful reconstruction (e.g. the Fig. 9
    #: single-packet probe floods re-instantiate the protocol).
    #: :func:`make_protocol` records the passed kwargs on every instance;
    #: this class-level default only covers protocols instantiated
    #: directly with default arguments.
    init_kwargs: Dict = {}

    def prepare_reps(
        self,
        topo: Topology,
        schedules_list: "List[ScheduleTable]",
        workload: FloodWorkload,
        rngs: "List[np.random.Generator]",
    ) -> None:
        """One-time setup across R replications (trees, cliques,
        beliefs, and the :class:`PhaseTable` of per-slot rows).

        ``schedules_list`` holds each replication's *believed* schedule
        table; ``rngs`` its channel stream, which protocol randomness
        shares.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must override prepare_reps"
        )

    def propose_reps(
        self, t: int, rep_ids: np.ndarray, awake_by_rep, view: RepSimView
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """Transmissions to commit at slot ``t``: flat
        ``(kk, senders, receivers, packets)``.

        ``rep_ids`` lists the replications executing slot ``t`` with a
        non-empty wake set, ascending; ``awake_by_rep[k]`` is replication
        ``k``'s believed wake set (built on access). Rows come back grouped by replication
        in ``rep_ids`` order; within a replication, row order is the
        back-off rank order the channel's capture tie-breaks see.

        Constraints the engine enforces: at most one transmission per
        sender; the sender must hold the packet; the receiver must be
        awake. Sending a packet the receiver already has is allowed
        (belief-limited protocols do it), it just wastes a slot.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must override propose_reps"
        )

    def observe_reps(self, t: int, outcome, view: RepSimView) -> None:
        """Learn from the slot's
        :class:`~repro.net.radio.RepSlotOutcome` (ACKs, overheard
        receptions)."""

    def next_action_slots(
        self, t: int, rep_ids: np.ndarray, view: RepSimView
    ) -> np.ndarray:
        """Quiescence contract: per replication, the earliest slot after
        ``t`` with possible traffic.

        Called by the engine after an executed slot ``t``. Each returned
        slot is a *sound lower bound*: the protocol guarantees that at
        every slot in ``(t, returned)`` that replication would again
        propose nothing **and consume no randomness** — possession,
        beliefs, and injections cannot change while no transmission
        occurs, so only schedule progression matters and the bound is
        typically :meth:`RepSimView.earliest_wakes` over the receivers
        the protocol could still serve (its pending frontier). The
        engine fast-forwards to the bound (clamped by pending injections
        and the horizon), advancing link dynamics and energy accounting
        exactly.

        Under-estimating is always safe — the skipped-to slot simply
        executes as a no-op. Over-estimating breaks trajectory fidelity;
        when in doubt return the conservative default ``t + 1`` (no
        skip), which keeps any protocol correct.
        """
        return np.full(len(rep_ids), t + 1, dtype=np.int64)


_REGISTRY: Dict[str, Type[FloodingProtocol]] = {}


def register_protocol(cls: Type[FloodingProtocol]) -> Type[FloodingProtocol]:
    """Class decorator adding a protocol to the name registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty name")
    if cls.name in _REGISTRY:
        raise ValueError(f"protocol name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def make_protocol(name: str, **kwargs) -> FloodingProtocol:
    """Instantiate a registered protocol by name.

    The constructor kwargs are recorded on the instance as
    ``init_kwargs`` regardless of whether the class does so itself, so
    engine paths that rebuild the protocol (the Fig. 9 probe floods)
    always reconstruct it with the configuration it was created with.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    protocol = cls(**kwargs)
    protocol.init_kwargs = dict(kwargs)
    return protocol


def available_protocols() -> List[str]:
    """Names of all registered protocols."""
    return sorted(_REGISTRY)
