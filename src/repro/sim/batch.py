"""The flood engine: R independent floods in lockstep.

:func:`run_flood_batch` simulates the paper's Sec. V setup end to end
for R replications sharing one substrate (same topology, radio model and
packet count; per-replication schedules, workloads and streams — wake
periods may differ, which is how a cross-cell stack sweeps a whole duty
column in one call). One staged slot loop over ``(R, …)`` state stacks
executes, per slot,

1. **inject**: packets whose generation slot arrived enter the source,
2. the believed **wake sets**, one ``(R, n)`` matrix from each
   replication's phase ``t % T_k``,
3. **propose**: the protocol commits flat ``(replication, sender,
   receiver, packet)`` rows,
4. **validate** the rows against the model's hard constraints
   (possession, one TX per sender, receiver awake) with mask checks,
5. **resolve** the channel through the run's
   :class:`~repro.net.mac.LinkModel`, against the *true* wake sets,
6. **apply** receptions to the possession state, then **observe**: the
   protocol learns from the outcome (ACK/overhearing beliefs),

and, after an idle slot, **fast-forwards** over the slots the protocol
proves quiescent (the paper's compact time scale). A replication ends
when every packet reached the coverage target (the paper's 99% rule) or
its horizon expires. :func:`~repro.sim.engine.run_flood` is this engine
at R = 1.

Each replication's trajectory depends only on its own inputs: every
layer (:func:`~repro.sim.rng.replication_streams`,
:class:`~repro.net.dynamics.BatchGilbertElliott`,
:func:`~repro.net.radio.resolve_slot_reps`, the protocols' ``*_reps``
methods) consumes each replication's stream in a fixed per-replication
order, so a replication extracted from any batch is bit-identical to the
same replication run alone. The batch is a throughput device: one
propose/resolve/apply sweep amortises the Python interpreter and NumPy
dispatch overhead across R floods.

Replications advance on their own clocks: the loop executes the earliest
pending slot across live replications, and only the replications whose
``t_next`` matches participate. Fast-forward therefore composes with
batching — a replication that proves a long quiescent span simply sits
out the intermediate slots while denser replications churn, with lazy
per-replication Gilbert-Elliott catch-up keeping link-dynamics streams
exact.

Three per-replication features cost nothing per slot unless some
replication uses them: clock skew (a true-schedule table), observers
that override a hook (the ``track_events`` log is one), and the Fig. 9
probe floods, which run after the main loop as one more batch.
Counters and the energy ledger are engine state, settled in one
bincount pass at the end of the run.
"""

from __future__ import annotations

import math
from dataclasses import replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np
# NumPy 2 loads numpy.ma lazily, and np.unique consults np.ma.is_masked:
# load it with the engine rather than inside the first run.
import numpy.ma  # noqa: F401

from ..net.dynamics import BatchGilbertElliott
from ..net.mac import IdealCsmaLink
from ..net.packet import FloodWorkload
from ..net.radio import Reception, SlotOutcome, TxBatch
from ..net.schedule import ScheduleTable
from ..net.topology import SOURCE, Topology
from ..protocols.base import FloodingProtocol, RepSimView, WakeStack
from .energy import EnergyLedger
from .engine import FloodResult, SimConfig
from .metrics import FloodMetrics, PacketDelays, coverage_threshold
from .observers import EventLogObserver, overriders_of

__all__ = ["run_flood_batch"]

#: Shared default link model: the paper's idealized slot radio. Stateless
#: across runs, so one instance serves every flood.
_IDEAL_LINK = IdealCsmaLink()

#: Fig. 9 probe floods per replication (cycled over the M packets).
_MAX_PROBES = 8


def _default_horizon(topo: Topology, schedules: ScheduleTable, M: int) -> int:
    """Generous default simulation horizon.

    Scales with the Theorem-2 upper bound inflated by the network's mean
    k-class (loss) plus slack for collision-heavy baselines.
    """
    m = max(int(math.ceil(math.log2(1 + topo.n_sensors))), 1)
    k = max(topo.mean_k_class(), 1.0)
    bound = schedules.period * (2 * m + M) * k
    return int(32 * bound) + 2048


def _raise_invalid_batch(
    protocol: FloodingProtocol,
    t: int,
    kk: np.ndarray,
    ss: np.ndarray,
    rr: np.ndarray,
    pp: np.ndarray,
    has_stack: np.ndarray,
    awake_mask: np.ndarray,
) -> None:
    """Cold path: find the offending replication and raise its error.

    Replications are independent runs, so the batch reports the lowest
    violating replication, re-running its per-frame checks in row order
    so the message names the first violated frame.
    """
    reps, starts = np.unique(kk, return_index=True)
    bounds = np.append(starts, kk.size)
    for i, rep in enumerate(reps):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        has = has_stack[int(rep)]
        awake = awake_mask[int(rep)]
        seen: set = set()
        for s, r, p in zip(ss[lo:hi].tolist(), rr[lo:hi].tolist(),
                           pp[lo:hi].tolist()):
            if s in seen:
                raise ValueError(
                    f"protocol {protocol.name!r} scheduled two "
                    f"transmissions for node {s} at slot {t}"
                )
            seen.add(s)
            if not has[p, s]:
                raise ValueError(
                    f"protocol {protocol.name!r} made node {s} send "
                    f"packet {p} it does not hold (slot {t})"
                )
            if not awake[r]:
                raise ValueError(
                    f"protocol {protocol.name!r} targeted sleeping node "
                    f"{r} at slot {t}"
                )
    raise AssertionError(
        "batch validation flagged a proposal the per-frame checks accept"
    )


class _WakeLists:
    """Each replication's wake list at slot ``t``, built on access.

    Only OPT's ``server_policy="any"``, ``on_slot`` observers and skewed
    replications read wake lists; every other slot reads the wake
    matrix alone and builds none.
    """

    __slots__ = ("_tables", "_t")

    def __init__(self, tables, t: int):
        self._tables = tables
        self._t = t

    def __getitem__(self, k) -> np.ndarray:
        return self._tables[k].awake_at(self._t)


def _fanout(observers_list, hook: str) -> Dict[int, list]:
    """Replication -> its observers overriding ``hook`` (omitted if none)."""
    out = {}
    for k, observers in enumerate(observers_list):
        hit = overriders_of(observers, hook)
        if hit:
            out[k] = hit
    return out


def run_flood_batch(
    topo: Topology,
    schedules_list: Sequence[ScheduleTable],
    workload,
    protocol: FloodingProtocol,
    rngs: Sequence[np.random.Generator],
    config: Optional[SimConfig] = None,
    dynamics_list: Optional[Sequence] = None,
    profiler=None,
    link=None,
    true_schedules_list: Optional[Sequence] = None,
    observers_list: Optional[Sequence[Sequence]] = None,
    measure_transmission_delay: bool = False,
) -> List[FloodResult]:
    """Simulate R replications of one flood scenario in a single batch.

    Parameters
    ----------
    topo:
        The substrate shared by every replication.
    schedules_list:
        One schedule table per replication — what its protocol
        *believes* (the advertised working schedules from local
        synchronization). Wake periods and wake slots per period may
        differ per replication: a cross-cell stack runs a whole duty
        column in one batch.
    workload:
        One :class:`FloodWorkload` shared by every replication, or a
        sequence of R per-replication workloads (cross-cell stacks mix
        generation intervals); packet counts must agree.
    protocol:
        A fresh protocol instance (protocols carry per-run state);
        ``prepare_reps`` is called here.
    rngs:
        One channel stream per replication (see
        :func:`repro.sim.rng.replication_streams`); protocol randomness
        and the probe floods' seeds come from it too.
    config:
        Engine configuration, shared across replications (defaults to
        the paper's). ``track_events`` keeps one
        :class:`~repro.sim.events.EventLog` per replication.
    dynamics_list:
        Optional per-replication :class:`GilbertElliott` instances, all
        or none, stacked into one :class:`BatchGilbertElliott`. Each
        instance ends the run in the state it reached at its
        replication's last slot.
    profiler:
        Optional :class:`~repro.sim.observers.PhaseProfiler`; when
        present, the loop records per-phase wall time into it, and the
        probe floods as one ``probe`` phase.
    link:
        The :class:`~repro.net.mac.LinkModel` resolving every traffic
        slot. Default: :class:`~repro.net.mac.IdealCsmaLink`, the
        paper's one-winner CSMA oracle.
    true_schedules_list:
        Clock-skew injection: per replication, ``None`` (no skew — the
        paper's perfectly locally-synchronized model) or the table of
        when radios are really on. Believed schedules drive proposals,
        validation and fast-forward; true ones drive channel resolution,
        so a transmission to a node the sender believed awake but that
        is actually dormant fails and counts as a ``sleep_miss``.
    observers_list:
        Per replication, extra :class:`~repro.sim.observers.SimObserver`
        instances watching that replication's flood (after the event
        log, if any). Observers watch; they must not mutate simulation
        state.
    measure_transmission_delay:
        Additionally flood each replication's packets in isolation on
        the same substrate to measure the queueing-free transmission
        delay — the Fig. 9 decomposition.

    Returns one :class:`FloodResult` per replication, index-aligned with
    ``schedules_list``.
    """
    R = len(schedules_list)
    if R == 0:
        raise ValueError("need at least one replication")
    if len(rngs) != R:
        raise ValueError(
            f"{R} replications but {len(rngs)} channel streams"
        )
    if isinstance(workload, FloodWorkload):
        workloads = [workload] * R
    else:
        workloads = list(workload)
        if len(workloads) != R:
            raise ValueError(
                f"{R} replications but {len(workloads)} workloads"
            )
        if any(w.n_packets != workloads[0].n_packets for w in workloads[1:]):
            raise ValueError("stacked workloads must share n_packets")
    config = config or SimConfig()
    if link is None:
        link = _IDEAL_LINK
    for schedules in schedules_list:
        if len(schedules) != topo.n_nodes:
            raise ValueError(
                f"schedule table covers {len(schedules)} nodes but "
                f"topology has {topo.n_nodes}"
            )
    if true_schedules_list is None:
        true_schedules_list = [None] * R
    if len(true_schedules_list) != R:
        raise ValueError(
            f"{R} replications but {len(true_schedules_list)} true "
            "schedule tables"
        )
    # A true table that *is* the believed one means no skew.
    true_list = [
        None if truth is believed else truth
        for believed, truth in zip(schedules_list, true_schedules_list)
    ]
    for truth in true_list:
        if truth is not None and len(truth) != topo.n_nodes:
            raise ValueError("true_schedules does not match the topology")
    observers_list = [list(obs) for obs in observers_list or [()] * R]
    if len(observers_list) != R:
        raise ValueError(
            f"{R} replications but {len(observers_list)} observer lists"
        )
    logs = None
    if config.track_events:
        logs = [EventLogObserver() for _ in range(R)]
        observers_list = [[log] + obs for log, obs in zip(logs, observers_list)]

    batch_dyn = None
    if dynamics_list is not None:
        present = [d for d in dynamics_list if d is not None]
        if present:
            if len(present) != R:
                raise ValueError(
                    "link dynamics must be supplied for every replication "
                    "or none"
                )
            batch_dyn = BatchGilbertElliott.from_instances(list(dynamics_list))

    results, dyn_clock = _simulate(
        topo, list(schedules_list), workloads, protocol, list(rngs), config,
        batch_dyn, profiler, link, true_list, observers_list,
    )
    if batch_dyn is not None:
        # Lazy catch-up of a final jump to the horizon, so every instance
        # ends exactly where its last slot left it (and the probes fork
        # from that state).
        for k, res in enumerate(results):
            batch_dyn.advance_rep(
                k, res.metrics.elapsed_slots - int(dyn_clock[k]))
        batch_dyn.write_back(dynamics_list)
    if measure_transmission_delay:
        t0 = perf_counter()
        delays = _probe_delays(
            topo, schedules_list, true_list, protocol, rngs, config,
            dynamics_list if batch_dyn is not None else None, link,
            workloads[0].n_packets,
        )
        if profiler is not None:
            profiler.note("probe", perf_counter() - t0)
        for res, row in zip(results, delays):
            res.metrics.transmission_delay = row
    for k, res in enumerate(results):
        if logs is not None:
            res.events = logs[k].log
        for ob in overriders_of(observers_list[k], "on_finish"):
            ob.on_finish(res)
    return results


def _probe_delays(topo, schedules_list, true_list, protocol, rngs, config,
                  dynamics_list, link, n_packets) -> np.ndarray:
    """Queueing-free per-packet delays, one ``(M,)`` row per replication.

    Each replication floods single packets in isolation on its own
    substrate — schedules, skew and link model — with fresh channel
    streams and, on bursty links, an independent fork of the link state
    its flood ended in, so probes measure the parent's channel and stay
    i.i.d. across packets. ``min(M, 8)`` probes therefore stand in for
    all M packets, cycled over the packet slots. Probe ``i`` of a
    replication draws its channel seed, then (with dynamics) its fork
    seed, from that replication's stream in order; all R x probes run
    as one batch.
    """
    n_probes = min(n_packets, _MAX_PROBES)
    schedules, truths, streams, forks = [], [], [], []
    for k, rng in enumerate(rngs):
        for _ in range(n_probes):
            streams.append(np.random.default_rng(rng.integers(0, 2**63)))
            if dynamics_list is not None:
                forks.append(dynamics_list[k].fork(
                    np.random.default_rng(rng.integers(0, 2**63))))
            schedules.append(schedules_list[k])
            truths.append(true_list[k])
    probe_protocol = type(protocol)(**protocol.init_kwargs)
    results, _ = _simulate(
        topo, schedules, [FloodWorkload(1)] * len(schedules), probe_protocol,
        streams, replace(config, track_events=False),
        BatchGilbertElliott.from_instances(forks) if forks else None,
        None, link, truths, [[]] * len(schedules),
    )
    probes = np.asarray(
        [res.metrics.delays.total_delay()[0] for res in results],
        dtype=np.int64,
    ).reshape(len(rngs), n_probes)
    return probes[:, np.arange(n_packets) % n_probes]


def _simulate(topo, schedules_list, workloads, protocol, rngs, config,
              batch_dyn, profiler, link, true_list, observers_list):
    """The slot loop over validated inputs.

    Returns the per-replication results and, per replication, the slot
    its link dynamics were stepped through (``elapsed`` may lie beyond
    it after a final jump).
    """
    R = len(schedules_list)
    n = topo.n_nodes
    M = workloads[0].n_packets
    # Horizons are per replication: the default scales with the wake
    # period, which a cross-cell stack varies.
    if config.max_slots:
        horizons = np.full(R, int(config.max_slots), dtype=np.int64)
    else:
        horizons = np.asarray(
            [_default_horizon(topo, s, M) for s in schedules_list],
            dtype=np.int64,
        )

    eligible = topo.reachable_from_source()
    eligible[SOURCE] = False  # coverage counts sensors only
    n_eligible = int(eligible.sum())
    if n_eligible == 0:
        raise ValueError("no sensor is reachable from the source")
    need_count = coverage_threshold(n_eligible, config.coverage_target)

    # Per-replication slot-sorted packet lists; each replication drains
    # its own on its own clock (one shared workload still builds R
    # references to identical arrays — cheap either way).
    inject_order_by_rep: List[np.ndarray] = []
    inject_slots_by_rep: List[np.ndarray] = []
    for wl in workloads:
        generated = wl.generation_slots()
        order = np.argsort(generated, kind="stable")
        inject_order_by_rep.append(order.astype(np.int64))
        inject_slots_by_rep.append(generated[order].astype(np.int64))
    n_inject = np.asarray(
        [len(s) for s in inject_slots_by_rep], dtype=np.int64)
    _NEVER = np.iinfo(np.int64).max
    # Next undrained injection slot per replication (sentinel when the
    # workload is exhausted): lets both the inject stage and the
    # fast-forward clamp run as array ops instead of per-rep cursor
    # probes.
    next_inject = np.asarray(
        [int(s[0]) if s.size else _NEVER for s in inject_slots_by_rep],
        dtype=np.int64,
    )

    # (R, …) state stacks.
    has_stack = np.zeros((R, M, n), dtype=bool)
    arrival_stack = np.full((R, M, n), -1, dtype=np.int64)
    covered = np.zeros((R, M), dtype=np.int64)
    first_tx = np.full((R, M), -1, dtype=np.int64)
    completed_at = np.full((R, M), -1, dtype=np.int64)
    n_pending = np.full(R, M, dtype=np.int64)
    inject_cursor = np.zeros(R, dtype=np.int64)
    # ``t_next`` doubles as the live/done discriminator: finished
    # replications park at the +inf sentinel, so each iteration's
    # earliest-slot scan is one ``min`` over the whole array instead of
    # an active-mask compression. ``elapsed`` captures the final clock
    # before the sentinel overwrites it.
    t_next = np.zeros(R, dtype=np.int64)
    elapsed = np.zeros(R, dtype=np.int64)
    # Last slot each replication's dynamics were stepped through, plus
    # one: lazy catch-up advances exactly the slots a slot-by-slot loop
    # would have stepped or block-advanced.
    dyn_clock = np.zeros(R, dtype=np.int64)

    # Per-replication counters.
    c_attempts = np.zeros(R, dtype=np.int64)
    c_failures = np.zeros(R, dtype=np.int64)
    c_collisions = np.zeros(R, dtype=np.int64)
    c_duplicates = np.zeros(R, dtype=np.int64)
    c_overhears = np.zeros(R, dtype=np.int64)
    c_misses = np.zeros(R, dtype=np.int64)
    # Per-(replication, node) energy counts (EnergyLedger's arrays).
    e_tx = np.zeros((R, n), dtype=np.int64)
    e_fail = np.zeros((R, n), dtype=np.int64)
    e_rx = np.zeros((R, n), dtype=np.int64)

    # The believed (R, n) wake matrix is built per slot from each
    # replication's own phase.
    wakes = WakeStack(schedules_list)
    view = RepSimView(
        topo, schedules_list, workloads[0], has_stack, arrival_stack, wakes)
    # The (R, n, W) possession words (protocols.base.PacketWords):
    # packet p is bit ``bit_of[p]`` of word ``word_of[p]``.
    has_packed = view.has_packed
    W = view.packet_words.n_words
    word_of = view.packet_words.word
    bit_of = view.packet_words.bit
    prof = profiler
    if prof is not None:
        _t0 = perf_counter()
    protocol.prepare_reps(topo, schedules_list, workloads[0], rngs)
    if prof is not None:
        prof.note("prepare", perf_counter() - _t0)

    # True wake sets of skewed replications are not periodic: they are
    # built per traffic slot, for the replications that transmit.
    skewed = np.asarray([truth is not None for truth in true_list])
    any_skew = bool(skewed.any())
    true_tables = [believed if truth is None else truth
                   for believed, truth in zip(schedules_list, true_list)]

    # Observer fan-out, resolved once: a hook nobody overrides costs
    # nothing per slot.
    obs_inject = _fanout(observers_list, "on_inject")
    obs_slot = _fanout(observers_list, "on_slot")
    obs_idle = _fanout(observers_list, "on_idle_span")
    obs_traffic = [_fanout(observers_list, hook)
                   for hook in ("on_tx", "on_reception", "on_complete")]
    traffic_reps = set().union(*obs_traffic)
    want_coll_rows = bool(obs_traffic[0])

    fast_forward = config.fast_forward
    empty64 = np.empty(0, dtype=np.int64)
    has_rows = np.zeros(R, dtype=bool)
    # Flat aliases for the validation/apply gathers: one flat-index
    # ``take`` replaces the 2-/3-axis fancy index.
    has_flat = has_stack.reshape(-1)
    packed_flat = has_packed.reshape(-1)
    _tprev = perf_counter() if prof is not None else 0.0

    # Deferred counter accumulation: attempts, failures, duplicate /
    # overhear tallies and energy counts are write-only until result
    # assembly, so the hot loop just retains the (fresh, unaliased)
    # per-slot index arrays and one bincount per counter runs at the
    # end instead of several scatter ops per slot.
    acc_att_k: List[np.ndarray] = []
    acc_att_s: List[np.ndarray] = []
    acc_fail_k: List[np.ndarray] = []
    acc_fail_s: List[np.ndarray] = []
    acc_rx_k: List[np.ndarray] = []
    acc_rx_r: List[np.ndarray] = []
    acc_dup: List[np.ndarray] = []
    acc_over: List[np.ndarray] = []

    while True:
        # Finished replications park at the sentinel, so the earliest
        # pending slot is one unmasked min over the clock array.
        t = int(t_next.min())
        if t == _NEVER:
            break
        exec_reps = np.flatnonzero(t_next == t)

        # Link dynamics: lazy per-replication catch-up over skipped
        # slots (bit-identical block advance), then this slot's step.
        if batch_dyn is not None:
            for k in exec_reps:
                gap = int(t - dyn_clock[k])
                if gap:
                    batch_dyn.advance_rep(int(k), gap)
            batch_dyn.step_reps(exec_reps)
            dyn_clock[exec_reps] = t + 1

        # Inject arrivals and collect wake sets for this slot. The
        # ``next_inject`` probe keeps injection-free slots (most of a
        # flood) out of the per-replication Python loop entirely.
        awake_stack = wakes.wake(t)
        awake_flat = awake_stack.reshape(-1)
        has_awake = awake_stack.any(axis=1)
        awake_by_rep = _WakeLists(schedules_list, t)
        pending_inject = exec_reps[next_inject[exec_reps] <= t]
        for k in pending_inject:
            ki = int(k)
            inject_slots = inject_slots_by_rep[ki]
            inject_order = inject_order_by_rep[ki]
            cur = int(inject_cursor[ki])
            hooks = obs_inject.get(ki, ()) if obs_inject else ()
            while cur < n_inject[ki] and inject_slots[cur] <= t:
                p = int(inject_order[cur])
                has_stack[ki, p, SOURCE] = True
                arrival_stack[ki, p, SOURCE] = t
                view.latest_arrival[ki, SOURCE] = t
                view.held_counts[ki, SOURCE] += 1
                has_packed[ki, SOURCE, word_of[p]] |= bit_of[p]
                for ob in hooks:
                    ob.on_inject(t, p)
                cur += 1
            inject_cursor[ki] = cur
            next_inject[ki] = (
                int(inject_slots[cur]) if cur < n_inject[ki] else _NEVER
            )
        if obs_slot:
            for k in exec_reps.tolist():
                for ob in obs_slot.get(k, ()):
                    ob.on_slot(t, awake_by_rep[k])
        rep_ids = exec_reps[has_awake[exec_reps]]
        if prof is not None:
            _now = perf_counter()
            prof.note("inject", _now - _tprev)
            _tprev = _now

        if rep_ids.size:
            kk, ss, rr, pp = protocol.propose_reps(
                t, rep_ids, awake_by_rep, view
            )
        else:
            kk = ss = rr = pp = empty64
        if prof is not None:
            _now = perf_counter()
            prof.note("propose", _now - _tprev)
            _tprev = _now

        if kk.size:
            # Validate: sender uniqueness via the sorted fused key;
            # possession and receiver-awake (believed) via flat-index
            # takes.
            vkey = np.sort(kk * n + ss)
            ok = (
                bool((vkey[1:] != vkey[:-1]).all())
                and bool(has_flat.take((kk * M + pp) * n + ss).all())
                and bool(awake_flat.take(kk * n + rr).all())
            )
            if not ok:
                _raise_invalid_batch(
                    protocol, t, kk, ss, rr, pp, has_stack, awake_stack
                )
            true_by_rep, true_stack, miss = awake_by_rep, awake_stack, None
            if any_skew:
                # Clock skew: resolve against when radios are really on;
                # frames addressed to a truly dormant receiver miss.
                tx_reps = np.unique(kk)
                tx_skewed = tx_reps[skewed[tx_reps]]
                if tx_skewed.size:
                    true_by_rep = _WakeLists(true_tables, t)
                    true_stack = awake_stack.copy()
                    for k in tx_skewed.tolist():
                        true_stack[k] = False
                        true_stack[k, true_by_rep[k]] = True
                    miss = ~true_stack.reshape(-1).take(kk * n + rr)
                    c_misses += np.bincount(kk[miss], minlength=R)
            if prof is not None:
                _now = perf_counter()
                prof.note("validate", _now - _tprev)
                _tprev = _now

            # Validation just proved per-replication sender uniqueness,
            # so the resolver needs no duplicate guard.
            outcome = link.resolve_reps(
                kk, ss, rr, pp, topo, true_by_rep, rngs, config.radio,
                dynamics=batch_dyn, awake_stack=true_stack,
                profiler=prof, collect_collision_rows=want_coll_rows,
            )
            if prof is not None:
                _now = perf_counter()
                prof.note("resolve", _now - _tprev)
                _tprev = _now
            if traffic_reps:
                _dispatch_traffic(
                    t, traffic_reps, obs_traffic, kk, ss, rr, pp, outcome,
                    miss, has_stack, covered, completed_at, eligible,
                    need_count,
                )

            # Counters + energy: retained for the end-of-run bincounts
            # (kk/ss and the outcome arrays are fresh per slot).
            acc_att_k.append(kk)
            acc_att_s.append(ss)
            if outcome.fail_rep.size:
                acc_fail_k.append(outcome.fail_rep)
                acc_fail_s.append(outcome.fail_sender)
            for ki, count in outcome.collision_counts.items():
                c_collisions[ki] += count

            # First source push per packet ("pushed into the network").
            src_rows = np.flatnonzero(ss == SOURCE)
            if src_rows.size:
                sk = kk[src_rows]
                sp = pp[src_rows]
                fresh = first_tx[sk, sp] < 0
                first_tx[sk[fresh], sp[fresh]] = t

            # Apply receptions. At most one reception per (replication,
            # receiver) per slot, so the duplicate check against the
            # pre-slot possession state is exact.
            if outcome.rec_rep.size:
                rk = outcome.rec_rep
                rrv = outcome.rec_receiver
                rpk = outcome.rec_packet
                rov = outcome.rec_overheard
                # Fused duplicate probe: one word gather + bit test
                # against the possession words instead of the 3-axis
                # boolean gather.
                words = packed_flat.take((rk * n + rrv) * W + word_of[rpk])
                dup = (words & bit_of[rpk]) != 0
                new = ~dup
                dup_counted = rk[dup & ~rov]
                if dup_counted.size:
                    acc_dup.append(dup_counted)
                over_counted = rk[new & rov]
                if over_counted.size:
                    acc_over.append(over_counted)
                if new.any():
                    nk = rk[new]
                    nr = rrv[new]
                    npk = rpk[new]
                    has_stack[nk, npk, nr] = True
                    arrival_stack[nk, npk, nr] = t
                    view.latest_arrival[nk, nr] = t
                    # At most one reception per (rep, receiver) per slot,
                    # so the fancy increments hit unique cells.
                    view.held_counts[nk, nr] += 1
                    has_packed[nk, nr, word_of[npk]] |= bit_of[npk]
                    acc_rx_k.append(nk)
                    acc_rx_r.append(nr)
                    elig = eligible[nr]
                    if elig.any():
                        ck = nk[elig]
                        cp = npk[elig]
                        np.add.at(covered, (ck, cp), 1)
                        pairs = np.unique(ck * M + cp)
                        uk = pairs // M
                        up = pairs % M
                        comp = (completed_at[uk, up] < 0) & (
                            covered[uk, up] >= need_count
                        )
                        if comp.any():
                            completed_at[uk[comp], up[comp]] = t
                            np.add.at(n_pending, uk[comp], -1)
            if prof is not None:
                _now = perf_counter()
                prof.note("apply", _now - _tprev)
                _tprev = _now

            protocol.observe_reps(t, outcome, view)
            if prof is not None:
                _now = perf_counter()
                prof.note("observe", _now - _tprev)
                _tprev = _now

        # Fast-forward: after an idle slot the protocol's quiescence
        # contract bounds the next slot with possible traffic; nothing
        # can change in between (no receptions, no belief updates, no
        # randomness), so the replication jumps there — clamped to its
        # next pending injection and its horizon. A traffic slot never
        # queries: its successor is a candidate slot anyway, and if it
        # runs idle, that slot queries.
        t1 = t + 1
        t_next[exec_reps] = t1
        idle = exec_reps
        if kk.size:
            has_rows[:] = False
            has_rows[kk] = True
            idle = exec_reps[~has_rows[exec_reps]]
        if fast_forward and idle.size:
            qids = idle[(n_pending[idle] > 0) & (t1 < horizons[idle])]
        else:
            qids = empty64
        if qids.size:
            targets = protocol.next_action_slots(t, qids, view)
            # Injection clamp (next_inject > t for every executed
            # replication, so the clamp never undershoots t1) and
            # horizon clamp (> t1 by the qids filter); a replication
            # jumps iff the clamped target still exceeds t1.
            eff = np.minimum(targets, next_inject[qids])
            np.minimum(eff, horizons[qids], out=eff)
            jump = eff > t1
            t_next[qids] = np.where(jump, eff, t1)
            if obs_idle:
                for k, end in zip(qids[jump].tolist(), eff[jump].tolist()):
                    for ob in obs_idle.get(k, ()):
                        ob.on_idle_span(t1, end)

        fin = exec_reps[
            (t_next[exec_reps] >= horizons[exec_reps])
            | (n_pending[exec_reps] == 0)
        ]
        if fin.size:
            elapsed[fin] = t_next[fin]
            t_next[fin] = _NEVER
        if prof is not None:
            _now = perf_counter()
            prof.note("fastforward", _now - _tprev)
            _tprev = _now
            prof.note_slot(exec_reps.size, idle.size)

    # Settle the deferred counters: one concatenate + bincount pass per
    # counter over the whole run.
    if acc_att_k:
        att_k = np.concatenate(acc_att_k)
        att_s = np.concatenate(acc_att_s)
        c_attempts += np.bincount(att_k, minlength=R)
        e_tx += np.bincount(att_k * n + att_s, minlength=R * n).reshape(R, n)
    if acc_fail_k:
        fail_k = np.concatenate(acc_fail_k)
        fail_s = np.concatenate(acc_fail_s)
        c_failures += np.bincount(fail_k, minlength=R)
        e_fail += np.bincount(
            fail_k * n + fail_s, minlength=R * n).reshape(R, n)
    if acc_rx_k:
        rx_k = np.concatenate(acc_rx_k)
        rx_r = np.concatenate(acc_rx_r)
        e_rx += np.bincount(rx_k * n + rx_r, minlength=R * n).reshape(R, n)
    if acc_dup:
        c_duplicates += np.bincount(np.concatenate(acc_dup), minlength=R)
    if acc_over:
        c_overhears += np.bincount(np.concatenate(acc_over), minlength=R)

    results: List[FloodResult] = []
    for k in range(R):
        ledger = EnergyLedger(n)
        ledger.tx_attempts[:] = e_tx[k]
        ledger.tx_failures[:] = e_fail[k]
        ledger.rx_successes[:] = e_rx[k]
        ledger.note_elapsed(int(elapsed[k]))
        ledger.validate()
        metrics = FloodMetrics(
            delays=PacketDelays(
                generated=workloads[k].generation_slots(),
                first_tx=first_tx[k].copy(),
                completed=completed_at[k].copy(),
            ),
            tx_attempts=int(c_attempts[k]),
            tx_failures=int(c_failures[k]),
            collisions=int(c_collisions[k]),
            duplicates=int(c_duplicates[k]),
            overhears=int(c_overhears[k]),
            elapsed_slots=int(elapsed[k]),
            coverage_per_packet=covered[k] / n_eligible,
            sleep_misses=int(c_misses[k]),
        )
        results.append(
            FloodResult(
                metrics=metrics,
                has=has_stack[k].copy(),
                arrival=arrival_stack[k].copy(),
                ledger=ledger,
                events=None,
                completed=bool(n_pending[k] == 0),
            )
        )
    return results, dyn_clock


def _dispatch_traffic(t, reps, obs_traffic, kk, ss, rr, pp, outcome, miss,
                      has_stack, covered, completed_at, eligible, need_count):
    """Per-frame observer hooks of one traffic slot, from the flat arrays.

    ``obs_traffic`` holds the ``on_tx``, ``on_reception`` and
    ``on_complete`` fan-outs. Runs before the slot's receptions are
    applied, so possession and coverage are still the pre-slot state.
    Per observed replication the order is ``on_tx``, then each reception
    in outcome order, with ``on_complete`` before the reception that
    completed a packet.
    """
    on_tx, on_rx, on_complete = obs_traffic
    starts = np.flatnonzero(np.r_[True, kk[1:] != kk[:-1]])
    bounds = dict(zip(kk[starts].tolist(),
                      zip(starts.tolist(), np.r_[starts[1:], kk.size].tolist())))
    for k in sorted(reps.intersection(bounds)):
        lo, hi = bounds[k]
        batch = TxBatch(ss[lo:hi], rr[lo:hi], pp[lo:hi])
        txs = batch.to_transmissions()
        row_of_sender = {tx.sender: i for i, tx in enumerate(txs)}
        mine = outcome.rec_rep == k
        receptions = [
            Reception(receiver=r, sender=s, packet=p, overheard=o)
            for r, s, p, o in zip(
                outcome.rec_receiver[mine].tolist(),
                outcome.rec_sender[mine].tolist(),
                outcome.rec_packet[mine].tolist(),
                outcome.rec_overheard[mine].tolist(),
            )
        ]
        if k in on_tx:
            slot = SlotOutcome(
                receptions=receptions,
                failures=[txs[row_of_sender[s]] for s in
                          outcome.fail_sender[outcome.fail_rep == k].tolist()],
                # Collision rows keep the link model's (receiver-major)
                # order.
                collisions=[txs[row - lo] for row in outcome.coll_rows[
                    (outcome.coll_rows >= lo) & (outcome.coll_rows < hi)
                ].tolist()],
            )
            misses = int(miss[lo:hi].sum()) if miss is not None else 0
            for ob in on_tx[k]:
                ob.on_tx(t, batch, slot, misses)
        has = has_stack[k]
        cov: Dict[int, int] = {}
        for rec in receptions:
            if has[rec.packet, rec.receiver]:
                for ob in on_rx.get(k, ()):
                    ob.on_reception(t, rec, True)
                continue
            if eligible[rec.receiver]:
                p = rec.packet
                cov[p] = cov.get(p, int(covered[k, p])) + 1
                if completed_at[k, p] < 0 and cov[p] == need_count:
                    for ob in on_complete.get(k, ()):
                        ob.on_complete(t, p)
            for ob in on_rx.get(k, ()):
                ob.on_reception(t, rec, False)
