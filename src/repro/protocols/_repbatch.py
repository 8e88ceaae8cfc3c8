"""Shared row-building machinery for replication-batched proposals.

The receiver-driven floods (OF, naive, FLASH, cross-layer, DBAO) all
walk the same per-slot structure: for every waking non-source receiver,
a protocol-specific ordered list of candidate senders. Across R
replications that flattens to parallel ``(replication, sender,
receiver)`` row arrays whose content depends only on the schedule phase,
so each protocol builds them through these helpers once per phase (a
:class:`~repro.protocols.base.PhaseCache` keeps them, alongside the
protocol's own static per-row annotations) and narrows them each slot
to the replications executing it. A phase's rows come from the whole
stack at once: the cache's ``(R, n)`` wake matrix lists the waking
``(replication, receiver)`` pairs in serial order, and one gather over
the flattened sender lists expands them, with no loop over
replications.
"""

from __future__ import annotations

from typing import Sequence, Tuple

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
    wake: np.ndarray,
    sizes: np.ndarray,
    starts: np.ndarray,
    flat: np.ndarray,
    with_sender_awake: bool = False,
):
    """All-replication candidate rows for one slot's ``(R, n)`` wake
    matrix (:meth:`~repro.protocols.base.PhaseCache.wake`).

    For each replication ``k`` and each waking non-source receiver
    ``r``, ascending, one row per candidate sender in list order.
    Returns ``(kk, ss, rr)`` — plus the per-row sender-awake mask when
    requested (the listen rule's static part) — matching the exact
    traversal order of the serial proposal loops: the row-major
    ``nonzero`` of the receiver matrix is already (replication,
    ascending receiver) order.
    """
    recv_wake = wake.copy()
    recv_wake[:, SOURCE] = False
    k_recv, recv = np.nonzero(recv_wake)
    sz = sizes[recv]
    total = int(sz.sum())
    seg = np.cumsum(sz) - sz
    idx = np.repeat(starts[recv] - seg, sz) + np.arange(total)
    ss = flat[idx]
    kk = np.repeat(k_recv, sz)
    rr = np.repeat(recv, sz)
    if with_sender_awake:
        return kk, ss, rr, wake[kk, ss]
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
