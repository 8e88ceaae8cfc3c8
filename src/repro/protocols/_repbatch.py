"""Shared row-building machinery for replication-batched proposals.

The receiver-driven floods (OF, naive, FLASH, cross-layer, DBAO) all
walk the same per-slot structure: for every waking non-source receiver,
a protocol-specific ordered list of candidate senders. Across R
replications that flattens to parallel ``(replication, sender,
receiver)`` row arrays whose content depends only on the schedule phase,
so each protocol builds them through these helpers once per phase (a
:class:`~repro.protocols.base.PhaseCache` keeps them, alongside the
protocol's own static per-row annotations) and narrows them each slot
to the replications executing it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..net.topology import SOURCE

__all__ = ["flatten_sender_lists", "frontier_pairs", "candidate_rows",
           "executing_rows"]


def flatten_sender_lists(
    sender_lists: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack per-receiver candidate-sender lists into gather arrays.

    Returns ``(sizes, starts, flat)``: receiver ``r``'s candidates (in
    the protocol's traversal order) live at ``flat[starts[r] :
    starts[r] + sizes[r]]``. Phase-row builds then gather ranges out of
    one array instead of concatenating hundreds of per-receiver arrays.
    """
    sizes = np.fromiter(
        (np.asarray(lst).size for lst in sender_lists), np.int64,
        count=len(sender_lists),
    )
    starts = np.concatenate(([0], np.cumsum(sizes)))
    if sender_lists:
        flat = np.concatenate(
            [np.asarray(lst, dtype=np.int64) for lst in sender_lists]
        )
    else:
        flat = np.empty(0, dtype=np.int64)
    return sizes, starts, flat


def frontier_pairs(
    sender_lists: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``(senders, receivers)`` over every non-source receiver.

    Receiver ``r``'s candidates (in list order) pair with ``r``,
    receivers ascending: the static pair set a protocol's quiescence
    frontier scans for offers.
    """
    sizes, _, flat = flatten_sender_lists(sender_lists)
    receivers = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    keep = receivers != SOURCE
    return flat[keep], receivers[keep]


def candidate_rows(
    schedules_list,
    t: int,
    sizes: np.ndarray,
    starts: np.ndarray,
    flat: np.ndarray,
    with_sender_awake: bool = False,
):
    """All-replication candidate rows for slot ``t``'s wake sets.

    For each replication ``k`` and each waking non-source receiver
    ``r`` (ascending — the wake lists are sorted), one row per candidate
    sender in list order. Returns ``(kk, ss, rr)`` — plus the per-row
    sender-awake mask when requested (the listen rule's static part) —
    matching the exact traversal order of the serial proposal loops.
    """
    kk_parts: List[np.ndarray] = []
    s_parts: List[np.ndarray] = []
    r_parts: List[np.ndarray] = []
    aw_parts: List[np.ndarray] = []
    n_nodes = len(sizes)
    awake_mask = np.zeros(n_nodes, dtype=bool) if with_sender_awake else None
    for k, sched in enumerate(schedules_list):
        aw = sched.awake_at(t)
        if aw.size == 0:
            continue
        recv = aw[aw != SOURCE]
        sz = sizes[recv]
        total = int(sz.sum())
        if total:
            seg = np.concatenate(([0], np.cumsum(sz)[:-1]))
            idx = np.repeat(starts[recv] - seg, sz) + np.arange(total)
            s_part = flat[idx]
            kk_parts.append(np.full(total, k, dtype=np.int64))
            s_parts.append(s_part)
            r_parts.append(np.repeat(recv, sz))
            if with_sender_awake:
                awake_mask[aw] = True
                aw_parts.append(awake_mask[s_part])
                awake_mask[aw] = False
    if kk_parts:
        kk = np.concatenate(kk_parts)
        ss = np.concatenate(s_parts)
        rr = np.concatenate(r_parts)
        sender_awake = (
            np.concatenate(aw_parts) if with_sender_awake else None
        )
    else:
        kk = ss = rr = np.empty(0, dtype=np.int64)
        sender_awake = np.empty(0, dtype=bool) if with_sender_awake else None
    if with_sender_awake:
        return kk, ss, rr, sender_awake
    return kk, ss, rr


def executing_rows(rep_ids: np.ndarray, n_reps: int, kk: np.ndarray, *cols):
    """Keep the phase rows of the replications executing this slot.

    Phase rows cover every replication of the stack; ``rep_ids`` lists
    those executing slot ``t`` (the others sit out a fast-forward jump).
    Returns ``(kk, *cols)`` filtered alike, untouched when all execute.
    """
    if rep_ids.size < n_reps:
        active = np.zeros(n_reps, dtype=bool)
        active[rep_ids] = True
        keep = active[kk]
        if not keep.all():
            return (kk[keep],) + tuple(c[keep] for c in cols)
    return (kk,) + cols
