"""Shared row-building machinery for replication-batched proposals.

The receiver-driven floods (OF, naive, FLASH, cross-layer, DBAO) all
walk the same per-slot structure: for every waking non-source receiver,
a protocol-specific ordered list of candidate senders. Across R
replications that flattens to parallel ``(replication, sender,
receiver)`` row arrays whose content depends only on each replication's
wake phase, so each protocol builds them through these helpers once per
run, for one wake period of every replication, into a
:class:`~repro.protocols.base.PhaseTable` (alongside the protocol's own
static per-row annotations), which serves each slot the rows of the
replications executing it. The rows come from the whole stack at once:
the stack's wake triples list the waking ``(replication, phase,
receiver)`` wakes in serial order, and one gather over the flattened
sender lists expands them, with no loop over replications or phases.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..net.topology import SOURCE

__all__ = ["flatten_sender_lists", "frontier_pairs", "candidate_rows"]


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
    wakes,
    sizes: np.ndarray,
    starts: np.ndarray,
    flat: np.ndarray,
    with_sender_awake: bool = False,
):
    """Candidate rows of one wake period per replication of a
    :class:`~repro.protocols.base.WakeStack`.

    For each phase group (:meth:`~repro.protocols.base.WakeStack.triples`)
    and each of its waking non-source receivers ``r``, ascending, one
    row per candidate sender in list order. Returns ``(key, kk, ss,
    rr)`` — the rows' group keys, ascending, then replication, sender
    and receiver — plus the per-row sender-awake mask when requested
    (the listen rule's static part). Each group's rows match the exact
    traversal order of the serial proposal loops at that phase.
    """
    key, k_recv, recv = wakes.triples()
    keep = recv != SOURCE
    key, k_recv, recv = key[keep], k_recv[keep], recv[keep]
    sz = sizes[recv]
    total = int(sz.sum())
    seg = np.cumsum(sz) - sz
    idx = np.repeat(starts[recv] - seg, sz) + np.arange(total)
    ss = flat[idx]
    key = np.repeat(key, sz)
    kk = np.repeat(k_recv, sz)
    rr = np.repeat(recv, sz)
    if with_sender_awake:
        return key, kk, ss, rr, wakes.awake(key, ss)
    return key, kk, ss, rr
