"""Exact per-node delay distributions for tree flooding.

For *tree* topologies under the paper's model (single packet, unicast
forwarding parent -> child at the child's active slots, independent
Bernoulli loss per attempt), the delay distribution of every node can be
computed **exactly** by propagating probability mass down the tree:

* the packet becomes forwardable at the parent one slot after its own
  arrival (a slot carries one transmission; reception is applied at the
  slot's end);
* the first delivery attempt happens at the child's next active slot,
  subsequent attempts one period later each;
* attempt ``j`` (0-based) succeeds with probability ``q (1-q)^j``.

On chains this matches the simulator *exactly* — chains have no
contention, no semi-duplex conflicts, and no interference for a single
packet — which makes :class:`ExactTreeDelay` the strongest end-to-end
oracle in the test suite: Monte-Carlo means from the engine must agree
with these distributions within sampling error.

It is also an analysis instrument in its own right: the OF protocol's
Normal approximation of tree delays (:mod:`repro.protocols.tree`) can be
checked against the exact distribution, quantifying when the
approximation is tight (deep trees, moderate loss) and when it is not
(short paths, heavy loss).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..net.schedule import ScheduleTable
from ..net.topology import SOURCE, Topology

__all__ = ["DelayPmf", "ExactTreeDelay"]


@dataclass
class DelayPmf:
    """Probability mass over arrival slots, with explicit tail mass.

    ``pmf[t]`` is the probability of first arrival at original slot
    ``t``; ``tail`` collects the mass beyond the horizon (never negative;
    shrinks geometrically with the horizon).
    """

    pmf: np.ndarray
    tail: float

    def __post_init__(self):
        self.pmf = np.asarray(self.pmf, dtype=np.float64)
        if self.pmf.ndim != 1:
            raise ValueError("pmf must be 1-D")
        if np.any(self.pmf < -1e-12):
            raise ValueError("pmf has negative mass")
        total = float(self.pmf.sum()) + self.tail
        if not (0.0 <= total <= 1.0 + 1e-9):
            raise ValueError(f"total mass {total} outside [0, 1]")

    @property
    def horizon(self) -> int:
        return int(self.pmf.size)

    def total_mass(self) -> float:
        return float(self.pmf.sum()) + self.tail

    def mean(self) -> float:
        """Conditional mean arrival slot given arrival within the horizon."""
        mass = float(self.pmf.sum())
        if mass <= 0.0:
            return float("inf")
        slots = np.arange(self.pmf.size)
        return float((slots * self.pmf).sum() / mass)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.pmf)

    def quantile(self, q: float) -> int:
        """Smallest slot with CDF >= q (within-horizon arrivals only)."""
        if not (0.0 < q < 1.0):
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        cdf = self.cdf()
        idx = np.searchsorted(cdf, q)
        if idx >= cdf.size:
            raise ValueError(
                f"quantile {q} beyond horizon (within-horizon mass "
                f"{cdf[-1]:.4f}); increase the horizon"
            )
        return int(idx)


class ExactTreeDelay:
    """Exact single-packet arrival distributions on a forwarding tree.

    Parameters
    ----------
    topo:
        The network; only the ``parent`` edges are used.
    schedules:
        Working schedules (single active slot per period).
    parent:
        ``parent[v]`` is v's tree parent (``-1`` for the source /
        unreachable nodes) — e.g. from
        :func:`repro.protocols.tree.build_etx_tree` or
        :func:`repro.protocols.dca.build_delay_optimal_tree`.
    horizon:
        Slots of probability mass to track. The remaining mass lands in
        ``DelayPmf.tail``.
    """

    def __init__(
        self,
        topo: Topology,
        schedules: ScheduleTable,
        parent: np.ndarray,
        horizon: int = 4096,
    ):
        parent = np.asarray(parent, dtype=np.int64)
        if parent.shape != (topo.n_nodes,):
            raise ValueError(
                f"parent must have shape ({topo.n_nodes},), got {parent.shape}"
            )
        if len(schedules) != topo.n_nodes:
            raise ValueError("schedule table does not match the topology")
        if schedules.slots_per_period != 1:
            raise ValueError(
                "exact tree delay needs one active slot per period")
        if horizon < schedules.period + 2:
            raise ValueError("horizon must cover at least one period")
        self._topo = topo
        self._schedules = schedules
        self._parent = parent
        self._horizon = int(horizon)
        self._pmfs: Optional[List[Optional[DelayPmf]]] = None

    # ------------------------------------------------------------------

    def _hop_kernel(self, child: int, parent_slot: int) -> np.ndarray:
        """P(child first-arrives at t | parent arrived at parent_slot).

        The parent can transmit from ``parent_slot + 1`` on; attempts land
        on the child's active slots; each succeeds with the link PRR.
        Returns a length-``horizon`` array (tail mass implicit).
        """
        q = self._topo.link_prr(int(self._parent[child]), child)
        out = np.zeros(self._horizon)
        if q <= 0.0:
            return out
        t = self._schedules.next_active(child, parent_slot + 1)
        fail = 1.0
        period = self._schedules.period
        while t < self._horizon and fail > 1e-15:
            out[t] = fail * q
            fail *= 1.0 - q
            t += period
        return out

    def compute(self, source_slot: int = 0) -> List[Optional[DelayPmf]]:
        """Propagate arrival distributions down the tree.

        ``source_slot`` is when the packet becomes available at the
        source. Returns one :class:`DelayPmf` per node (None for nodes
        with no tree path).
        """
        n = self._topo.n_nodes
        pmfs: List[Optional[DelayPmf]] = [None] * n
        src = np.zeros(self._horizon)
        if source_slot >= self._horizon:
            raise ValueError("source slot beyond horizon")
        src[source_slot] = 1.0
        pmfs[SOURCE] = DelayPmf(pmf=src, tail=0.0)

        # Children ordered by tree depth (parents first).
        depth = np.full(n, -1, dtype=np.int64)
        depth[SOURCE] = 0
        changed = True
        while changed:
            changed = False
            for v in range(n):
                p = int(self._parent[v])
                if v != SOURCE and p >= 0 and depth[p] >= 0 and depth[v] < 0:
                    depth[v] = depth[p] + 1
                    changed = True

        order = [v for v in np.argsort(depth, kind="stable").tolist()
                 if depth[v] > 0]
        for v in order:
            p = int(self._parent[v])
            parent_pmf = pmfs[p]
            assert parent_pmf is not None
            out = np.zeros(self._horizon)
            tail = parent_pmf.tail
            nonzero = np.flatnonzero(parent_pmf.pmf > 1e-15)
            for a in nonzero.tolist():
                kernel = self._hop_kernel(v, a)
                out += parent_pmf.pmf[a] * kernel
                tail += parent_pmf.pmf[a] * max(
                    1.0 - float(kernel.sum()), 0.0
                )
            pmfs[v] = DelayPmf(pmf=out, tail=min(tail, 1.0))
        self._pmfs = pmfs
        return pmfs

    # ------------------------------------------------------------------

    def node_pmf(self, node: int) -> DelayPmf:
        if self._pmfs is None:
            self.compute()
        pmf = self._pmfs[node]
        if pmf is None:
            raise ValueError(f"node {node} has no tree path from the source")
        return pmf

    def expected_arrival(self, node: int) -> float:
        """Exact conditional expected arrival slot of ``node``."""
        return self.node_pmf(node).mean()

    def expected_flood_makespan(self, coverage: float = 1.0) -> float:
        """Expected slot by which ``coverage`` of reachable sensors arrived.

        Uses the independence approximation across leaves (exact on a
        chain where the deepest node dominates).
        """
        if not (0.0 < coverage <= 1.0):
            raise ValueError(f"coverage must be in (0, 1], got {coverage}")
        if self._pmfs is None:
            self.compute()
        reach = [
            v for v in range(1, self._topo.n_nodes)
            if self._pmfs[v] is not None
        ]
        if not reach:
            raise ValueError("no reachable sensors")
        need = max(int(np.ceil(coverage * len(reach))), 1)
        # P(covered count >= need by slot t) via per-node CDFs assuming
        # independence; expected makespan = sum_t P(not done by t).
        cdfs = np.vstack([self._pmfs[v].cdf() for v in reach])
        expect = 0.0
        for t in range(self._horizon):
            col = cdfs[:, t]
            # Normal approximation of the Poisson-binomial count.
            mu = float(col.sum())
            var = float((col * (1 - col)).sum())
            if var <= 1e-12:
                p_done = 1.0 if mu >= need else 0.0
            else:
                from math import erf, sqrt

                z = (mu - need + 0.5) / sqrt(var)
                p_done = 0.5 * (1 + erf(z / sqrt(2)))
            expect += 1.0 - p_done
            if p_done > 1.0 - 1e-9:
                break
        return expect
