"""Network topology: nodes, directed lossy links, neighbor tables.

A :class:`Topology` is the static substrate every simulation runs on. It
follows the paper's conventions:

* Node ``0`` is the flooding **source**; nodes ``1..N`` are the nominal
  sensors (Sec. III-A). ``n_nodes = N + 1`` total.
* Links are directed and quality-weighted by PRR. Two nodes are
  *neighbors* when the PRR in either direction reaches the neighbor
  threshold — below that, a radio cannot sustain communication and the
  pair is simply out of range.

The PRR matrix is stored dense (``float64``, ``n x n``) because the
simulator's hot loops slice rows/columns of it; for the paper-scale
networks (298-4096 nodes) a dense matrix is both faster and simpler than
sparse storage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # networkx loads only inside the graph-view methods
    import networkx as nx

__all__ = ["Topology", "SOURCE", "homogenized", "ge_mean_matched"]

#: Conventional node id of the flooding source.
SOURCE = 0

#: Links below this PRR are treated as non-existent (out of radio range).
DEFAULT_NEIGHBOR_THRESHOLD = 0.1


class Topology:
    """Static network graph with per-link PRR.

    Parameters
    ----------
    prr:
        ``(n, n)`` matrix; ``prr[i, j]`` is the probability that one
        transmission from ``i`` is received by ``j``. The diagonal must
        be zero. Entries below ``neighbor_threshold`` are treated as 0
        (no link).
    positions:
        Optional ``(n, 2)`` array of planar coordinates (used by the
        synthetic trace generator and by carrier-sense range logic).
    neighbor_threshold:
        Minimum PRR for a usable link.
    """

    def __init__(
        self,
        prr: np.ndarray,
        positions: Optional[np.ndarray] = None,
        neighbor_threshold: float = DEFAULT_NEIGHBOR_THRESHOLD,
        rssi: Optional[np.ndarray] = None,
    ):
        prr = np.asarray(prr, dtype=np.float64)
        if prr.ndim != 2 or prr.shape[0] != prr.shape[1]:
            raise ValueError(f"PRR matrix must be square, got shape {prr.shape}")
        if prr.shape[0] < 2:
            raise ValueError("topology needs at least a source and one sensor")
        if np.any((prr < 0) | (prr > 1)):
            raise ValueError("PRR entries must lie in [0, 1]")
        if np.any(np.diag(prr) != 0):
            raise ValueError("self-links are not allowed (diagonal must be 0)")
        if not (0.0 < neighbor_threshold <= 1.0):
            raise ValueError(
                f"neighbor threshold must be in (0, 1], got {neighbor_threshold}"
            )

        self.prr = prr.copy()
        self.prr[self.prr < neighbor_threshold] = 0.0
        self.neighbor_threshold = float(neighbor_threshold)
        self.n_nodes = int(prr.shape[0])

        if positions is not None:
            positions = np.asarray(positions, dtype=np.float64)
            if positions.shape != (self.n_nodes, 2):
                raise ValueError(
                    f"positions must have shape ({self.n_nodes}, 2), "
                    f"got {positions.shape}"
                )
        self.positions = positions

        if rssi is not None:
            rssi = np.asarray(rssi, dtype=np.float64)
            if rssi.shape != prr.shape:
                raise ValueError(
                    f"rssi matrix must match PRR shape {prr.shape}, "
                    f"got {rssi.shape}"
                )
        #: Long-term mean received power in dBm per directed link (NaN/None
        #: when the topology was specified by PRR only). Drives the radio's
        #: SIR-based power capture.
        self.rssi = rssi

        # Content fingerprint for the result store, computed lazily.
        self._fingerprint: Optional[str] = None
        # Shared-memory segments backing the arrays (zero-copy transport
        # only; ``None`` for ordinarily constructed topologies).
        self._shm_keepalive = None

        self._derive()

    def _derive(self) -> None:
        """Compute the views the hot loops use from the primary arrays."""
        # Adjacency by usable links (boolean, directed).
        self.adjacency = self.prr > 0.0
        # Symmetric audibility (either direction in range): the carrier-
        # sense relation, cached for the CSMA hot path.
        self.audible = self.adjacency | self.adjacency.T
        # Neighbor lists by out-links (who can I transmit to).
        self._out_neighbors: List[np.ndarray] = [
            np.flatnonzero(self.adjacency[i]) for i in range(self.n_nodes)
        ]
        # Neighbor lists by in-links (who can transmit to me).
        self._in_neighbors: List[np.ndarray] = [
            np.flatnonzero(self.adjacency[:, i]) for i in range(self.n_nodes)
        ]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def homogeneous(
        cls,
        graph: "nx.Graph",
        prr: float = 1.0,
        positions: Optional[np.ndarray] = None,
    ) -> "Topology":
        """Build a topology where every link of ``graph`` has the same PRR.

        Used for the paper's homogeneous k-class analysis (Sec. IV-B) and
        for the ideal-network theory checks (Sec. IV-A).
        """
        if not (0.0 < prr <= 1.0):
            raise ValueError(f"PRR must be in (0, 1], got {prr}")
        n = graph.number_of_nodes()
        nodes = sorted(graph.nodes())
        if nodes != list(range(n)):
            raise ValueError("graph nodes must be labeled 0..n-1")
        mat = np.zeros((n, n), dtype=np.float64)
        for u, v in graph.edges():
            mat[u, v] = prr
            mat[v, u] = prr
        return cls(mat, positions=positions, neighbor_threshold=min(prr, 0.1) or 0.1)

    @classmethod
    def complete(cls, n_sensors: int, prr: float = 1.0) -> "Topology":
        """Fully-connected network with one source and ``n_sensors`` sensors."""
        n = n_sensors + 1
        mat = np.full((n, n), prr, dtype=np.float64)
        np.fill_diagonal(mat, 0.0)
        return cls(mat, neighbor_threshold=min(prr, 0.1))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def n_sensors(self) -> int:
        """Number of nominal sensors ``N`` (excluding the source)."""
        return self.n_nodes - 1

    def out_neighbors(self, node: int) -> np.ndarray:
        """Nodes this node can transmit to (ascending ids)."""
        return self._out_neighbors[node]

    def in_neighbors(self, node: int) -> np.ndarray:
        """Nodes that can transmit to this node (ascending ids)."""
        return self._in_neighbors[node]

    def link_prr(self, sender: int, receiver: int) -> float:
        """PRR of the directed link, 0 when out of range."""
        return float(self.prr[sender, receiver])

    def link_rssi(self, sender: int, receiver: int) -> float:
        """Mean received power in dBm (NaN when no RSSI data exists)."""
        if self.rssi is None:
            return float("nan")
        return float(self.rssi[sender, receiver])

    def has_link(self, sender: int, receiver: int) -> bool:
        return bool(self.adjacency[sender, receiver])

    def degree_stats(self) -> Tuple[float, int, int]:
        """(mean, min, max) out-degree over all nodes."""
        degs = self.adjacency.sum(axis=1)
        return float(degs.mean()), int(degs.min()), int(degs.max())

    def mean_prr(self) -> float:
        """Average PRR over existing links."""
        mask = self.adjacency
        if not mask.any():
            return 0.0
        return float(self.prr[mask].mean())

    def mean_k_class(self) -> float:
        """Network-average k-class (expected transmissions per link)."""
        mask = self.adjacency
        if not mask.any():
            raise ValueError("topology has no links")
        return float((1.0 / self.prr[mask]).mean())

    def fingerprint(self) -> str:
        """Content digest of the substrate (hex, cached after first call).

        Hashes everything a simulation's outcome can depend on — the
        thresholded PRR matrix, positions, RSSI and the neighbor
        threshold — so the :mod:`repro.exec` result store can address
        cached summaries by topology *content* rather than identity.
        """
        if self._fingerprint is None:
            import hashlib

            h = hashlib.sha256()
            h.update(np.ascontiguousarray(self.prr).tobytes())
            h.update(repr(self.neighbor_threshold).encode())
            for arr in (self.positions, self.rssi):
                if arr is None:
                    h.update(b"none")
                else:
                    h.update(np.ascontiguousarray(arr).tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Shared-memory transport (zero-copy broadcast to worker processes)
    # ------------------------------------------------------------------

    def to_shared(self):
        """Export the substrate into ``multiprocessing.shared_memory``.

        Returns a :class:`repro.exec.shared.SharedTopologyHandle`: the
        owner of the segments, whose picklable ``ref`` is a few hundred
        bytes of segment names — workers rebuild the topology zero-copy
        with :meth:`from_shared`. The caller must ``close()`` the handle
        (executors do this in their own ``close()``).
        """
        from ..exec.shared import share_topology

        return share_topology(self)

    @classmethod
    def from_shared(cls, ref) -> "Topology":
        """Attach a topology exported by :meth:`to_shared`, zero-copy.

        The primary arrays become **read-only** views over the shared
        segments (no copy, no re-validation — the exporting process
        already thresholded the PRR matrix); derived state (adjacency,
        audibility, neighbor lists) is recomputed locally, and the
        content fingerprint is inherited so store keys and broadcast
        dedup agree across processes.
        """
        from ..exec.shared import attach_array

        keepalive = []
        prr, shm = attach_array(ref.prr)
        keepalive.append(shm)
        positions = rssi = None
        if ref.positions is not None:
            positions, shm = attach_array(ref.positions)
            keepalive.append(shm)
        if ref.rssi is not None:
            rssi, shm = attach_array(ref.rssi)
            keepalive.append(shm)

        topo = cls.__new__(cls)
        topo.prr = prr
        topo.neighbor_threshold = float(ref.neighbor_threshold)
        topo.n_nodes = int(prr.shape[0])
        topo.positions = positions
        topo.rssi = rssi
        topo._fingerprint = ref.token
        topo._shm_keepalive = keepalive
        topo._derive()
        return topo

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two nodes (requires positions)."""
        if self.positions is None:
            raise ValueError("topology has no position information")
        return float(np.linalg.norm(self.positions[a] - self.positions[b]))

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------

    def to_networkx(self, weight: str = "prr") -> "nx.DiGraph":
        """Directed networkx view with ``prr`` and ``etx`` edge attributes.

        ``weight`` selects which attribute to duplicate into the standard
        ``"weight"`` key (handy for shortest-path calls).
        """
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.n_nodes))
        rows, cols = np.nonzero(self.adjacency)
        for i, j in zip(rows.tolist(), cols.tolist()):
            prr = float(self.prr[i, j])
            etx = 1.0 / prr
            g.add_edge(i, j, prr=prr, etx=etx, weight=prr if weight == "prr" else etx)
        return g

    def undirected_view(self) -> "nx.Graph":
        """Undirected view where an edge exists if either direction does."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n_nodes))
        rows, cols = np.nonzero(self.adjacency | self.adjacency.T)
        for i, j in zip(rows.tolist(), cols.tolist()):
            if i < j:
                prr = max(float(self.prr[i, j]), float(self.prr[j, i]))
                g.add_edge(i, j, prr=prr, etx=1.0 / prr)
        return g

    def is_connected_from_source(self) -> bool:
        """Whether every sensor is reachable from the source over out-links."""
        return bool(self.reachable_from_source().all())

    def reachable_from_source(self) -> np.ndarray:
        """Boolean mask of nodes reachable from the source (source included).

        The BFS result is memoized (the topology is immutable once
        built); callers receive a private copy because the engines mask
        the source out of it in place.
        """
        cached = getattr(self, "_reachable_cache", None)
        if cached is None:
            cached = self.hop_distances_from_source() >= 0
            self._reachable_cache = cached
        return cached.copy()

    def hop_distances_from_source(self) -> np.ndarray:
        """Unweighted hop count from the source; ``-1`` for unreachable nodes.

        Level-synchronous BFS over out-links: each level is the set of
        not-yet-reached out-neighbors of the previous one.
        """
        dist = np.full(self.n_nodes, -1, dtype=np.int64)
        dist[SOURCE] = 0
        frontier = dist == 0
        hops = 0
        while frontier.any():
            hops += 1
            frontier = self.adjacency[frontier].any(axis=0) & (dist < 0)
            dist[frontier] = hops
        return dist

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        mean_deg, _, _ = self.degree_stats()
        return (
            f"Topology(n_sensors={self.n_sensors}, mean_degree={mean_deg:.1f}, "
            f"mean_prr={self.mean_prr():.2f})"
        )


def homogenized(topo: Topology) -> Topology:
    """Mean-matched twin: same adjacency, every link at the network-mean PRR.

    The Sec. IV-B heterogeneity experiment floods this twin with the same
    seeds as the original trace — homogenizing removes the good-link
    subgraph that link-aware protocols actually ride on, isolating what
    the PRR *spread* (as opposed to the mean) is worth.
    """
    mean_prr = topo.mean_prr()
    prr = np.where(topo.adjacency, mean_prr, 0.0)
    return Topology(
        prr,
        positions=topo.positions,
        neighbor_threshold=min(topo.neighbor_threshold, mean_prr),
        rssi=topo.rssi,
    )


def ge_mean_matched(topo: Topology) -> Topology:
    """Static twin whose PRRs match bursty links' long-run mean.

    Every PRR and the neighbor threshold are scaled by the stationary
    PRR multiplier of default Gilbert-Elliott dynamics
    (:meth:`~repro.net.dynamics.GeParams.long_run_prr_scale`), so this
    twin on static links and the original under those dynamics see the
    same mean loss: any delay gap is the effect of loss *correlation*
    alone (the ``abl-bursty`` experiment).
    """
    from .dynamics import GeParams

    scale = GeParams().long_run_prr_scale()
    return Topology(
        np.clip(topo.prr * scale, 0.0, 1.0),
        positions=topo.positions,
        neighbor_threshold=topo.neighbor_threshold * scale,
        rssi=topo.rssi,
    )
