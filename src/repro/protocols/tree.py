"""Energy-optimal (ETX) tree construction and per-node delay distributions.

Opportunistic Flooding (ref [11]) forwards packets along an *energy-
optimal tree* — the shortest-path tree under the expected-transmission-
count (ETX) metric — and makes opportunistic (non-tree) forwarding
decisions against the **delay distribution** each node would see over the
tree. This module builds both:

* :func:`build_etx_tree` — Dijkstra over directed ETX weights from the
  source;
* per-hop delay moments under duty cycling: a link with PRR ``q`` and
  period ``T`` needs a geometric number of attempts, each costing one
  period of sleep latency, so

    ``E[hop]   = T / q``          (first attempt's wait folded in)
    ``Var[hop] = T^2 (1 - q) / q^2``

* :meth:`EtxTree.delay_quantile` — Normal-approximation quantiles of the
  path-summed delay, which is the threshold OF's sender-side decision
  tests against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..net.topology import SOURCE, Topology
from ..special import ndtri

__all__ = ["EtxTree", "build_etx_tree", "hop_delay_moments"]


def hop_delay_moments(prr: float, period: int) -> tuple:
    """(mean, variance) of one duty-cycled lossy hop's delay in slots.

    The number of attempts is Geometric(q) (support 1, 2, ...); attempts
    are spaced one period apart, so delay ~ ``T * Geometric(q)`` up to the
    sub-period phase offset (uniform, bounded by ``T``, folded into the
    mean via the ``T/q`` form).
    """
    if not (0.0 < prr <= 1.0):
        raise ValueError(f"PRR must be in (0, 1], got {prr}")
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    mean = period / prr
    var = period**2 * (1.0 - prr) / prr**2
    return mean, var


@dataclass
class EtxTree:
    """The OF substrate: parents, children, ETX costs, delay moments.

    Attributes
    ----------
    parent:
        ``parent[v]`` is v's tree parent (``-1`` for the source and for
        unreachable nodes).
    etx_cost:
        Path ETX from the source (``inf`` if unreachable).
    delay_mean, delay_var:
        Moments of the tree-path delay from the source, in slots.
    """

    parent: np.ndarray
    etx_cost: np.ndarray
    delay_mean: np.ndarray
    delay_var: np.ndarray

    def __post_init__(self):
        n = self.parent.size
        for name in ("etx_cost", "delay_mean", "delay_var"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        self._children: Optional[List[np.ndarray]] = None

    @property
    def n_nodes(self) -> int:
        return int(self.parent.size)

    def children(self, node: int) -> np.ndarray:
        """Tree children of ``node`` (ascending ids, cached)."""
        if self._children is None:
            kids: List[List[int]] = [[] for _ in range(self.n_nodes)]
            for v, p in enumerate(self.parent.tolist()):
                if p >= 0:
                    kids[p].append(v)
            self._children = [np.asarray(k, dtype=np.int64) for k in kids]
        return self._children[node]

    def is_tree_edge(self, sender: int, receiver: int) -> bool:
        return int(self.parent[receiver]) == sender

    def reachable(self, node: int) -> bool:
        return node == SOURCE or int(self.parent[node]) >= 0

    def depth(self, node: int) -> int:
        """Hop depth in the tree (-1 for unreachable nodes)."""
        if not self.reachable(node):
            return -1
        d, v = 0, node
        while v != SOURCE:
            v = int(self.parent[v])
            d += 1
            if d > self.n_nodes:  # pragma: no cover - defended by Dijkstra
                raise RuntimeError("parent pointers contain a cycle")
        return d

    def delay_quantile(self, node: int, q: float) -> float:
        """q-quantile of the node's tree delay (Normal approximation).

        OF's forwarding rule: an opportunistic copy is worth sending only
        if it beats this quantile — otherwise the tree will deliver the
        packet about as fast anyway.
        """
        if not (0.0 < q < 1.0):
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        if not self.reachable(node):
            return math.inf
        z = ndtri(q)  # standard-normal quantile
        return float(self.delay_mean[node] + z * math.sqrt(self.delay_var[node]))


def build_etx_tree(topo: Topology, period: int) -> EtxTree:
    """Dijkstra shortest-path tree from the source under ETX weights.

    Delay moments accumulate along tree paths assuming hop independence
    (the standard OF approximation).
    """
    import heapq

    n = topo.n_nodes
    etx = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    etx[SOURCE] = 0.0
    heap = [(0.0, SOURCE)]
    visited = np.zeros(n, dtype=bool)
    while heap:
        cost, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        for v in topo.out_neighbors(u).tolist():
            if visited[v]:
                continue
            w = 1.0 / topo.link_prr(u, v)
            if cost + w < etx[v]:
                etx[v] = cost + w
                parent[v] = u
                heapq.heappush(heap, (etx[v], v))

    delay_mean = np.full(n, np.inf)
    delay_var = np.full(n, np.inf)
    delay_mean[SOURCE] = 0.0
    delay_var[SOURCE] = 0.0
    # Accumulate moments in BFS order over the tree.
    order = sorted(range(n), key=lambda v: etx[v])
    for v in order:
        p = int(parent[v])
        if v == SOURCE or p < 0:
            continue
        mean, var = hop_delay_moments(topo.link_prr(p, v), period)
        delay_mean[v] = delay_mean[p] + mean
        delay_var[v] = delay_var[p] + var

    return EtxTree(
        parent=parent, etx_cost=etx, delay_mean=delay_mean, delay_var=delay_var
    )
