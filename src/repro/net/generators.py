"""Topology generators.

Three families cover everything the paper's experiments need:

* **Grids** — regular connectivity for theory sanity checks.
* **Random geometric graphs** — the standard uniform-deployment WSN model.
* **Clustered forest layouts** — inhomogeneous placement used by the
  synthetic GreenOrbs trace (sensors are mounted on trees, which grow in
  patches, so node density varies across the plot).

All generators produce a :class:`~repro.net.topology.Topology` whose link
PRRs come from the physical model in :mod:`repro.net.links`, or perfect
links when ``prr=1.0`` is forced (ideal networks of Sec. IV-A).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .links import RadioParameters, rssi_dbm, rssi_to_prr
from .topology import Topology

__all__ = [
    "grid_topology",
    "geometric_topology",
    "random_geometric_topology",
    "clustered_positions",
    "positions_to_topology",
    "line_topology",
    "star_topology",
    "binary_tree_topology",
]


def positions_to_topology(
    positions: np.ndarray,
    radio: RadioParameters,
    rng: Optional[np.random.Generator] = None,
    neighbor_threshold: float = 0.1,
    symmetric_shadowing: bool = False,
) -> Topology:
    """Turn planar positions into a lossy-link topology.

    Each directed link gets an independent log-normal shadowing sample
    (or a shared one per node pair when ``symmetric_shadowing``), feeding
    the distance -> RSSI -> PRR chain. Links whose PRR falls below the
    neighbor threshold vanish, which naturally yields irregular radio
    ranges rather than a crisp disc.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must be (n, 2), got {positions.shape}")
    n = positions.shape[0]
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))

    if rng is None or radio.shadowing_sigma_db == 0.0:
        shadow = np.zeros((n, n))
    else:
        shadow = rng.normal(0.0, radio.shadowing_sigma_db, size=(n, n))
        if symmetric_shadowing:
            upper = np.triu(shadow, k=1)
            shadow = upper + upper.T

    rssi = np.asarray(rssi_dbm(dist, radio, shadow), dtype=np.float64)
    prr = rssi_to_prr(rssi, radio)
    np.fill_diagonal(prr, 0.0)
    return Topology(
        prr,
        positions=positions,
        neighbor_threshold=neighbor_threshold,
        rssi=rssi,
    )


def grid_topology(
    rows: int,
    cols: int,
    spacing_m: float = 10.0,
    radio: Optional[RadioParameters] = None,
    rng: Optional[np.random.Generator] = None,
    perfect_links: bool = False,
) -> Topology:
    """Regular ``rows x cols`` grid; node 0 (source) at the corner.

    With ``perfect_links`` the four-neighbor lattice gets PRR 1.0 links —
    the "ideal network" of Sec. IV-A.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    xs, ys = np.meshgrid(np.arange(cols), np.arange(rows))
    positions = np.column_stack([xs.ravel(), ys.ravel()]).astype(float) * spacing_m

    if perfect_links:
        n = rows * cols
        prr = np.zeros((n, n))
        for r in range(rows):
            for c in range(cols):
                i = r * cols + c
                if c + 1 < cols:
                    j = r * cols + (c + 1)
                    prr[i, j] = prr[j, i] = 1.0
                if r + 1 < rows:
                    j = (r + 1) * cols + c
                    prr[i, j] = prr[j, i] = 1.0
        return Topology(prr, positions=positions)

    radio = radio or RadioParameters()
    return positions_to_topology(positions, radio, rng)


def random_geometric_topology(
    n_nodes: int,
    area_m: float,
    radio: Optional[RadioParameters] = None,
    rng: Optional[np.random.Generator] = None,
    neighbor_threshold: float = 0.1,
) -> Topology:
    """Uniform random deployment over an ``area_m x area_m`` square.

    The source is placed at the area center (the usual sink placement),
    sensors uniformly at random.
    """
    if n_nodes < 2:
        raise ValueError("need at least a source and one sensor")
    if area_m <= 0:
        raise ValueError("area side must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)
    positions = rng.uniform(0.0, area_m, size=(n_nodes, 2))
    positions[0] = (area_m / 2.0, area_m / 2.0)
    radio = radio or RadioParameters()
    return positions_to_topology(
        positions, radio, rng, neighbor_threshold=neighbor_threshold
    )


def geometric_topology(
    n_nodes: int,
    area_m: float,
    placement: str = "uniform",
    radio: Optional[RadioParameters] = None,
    rng: Optional[np.random.Generator] = None,
    neighbor_threshold: float = 0.1,
) -> Topology:
    """Bring-your-own-PHY deployment: log-distance path loss on a square.

    The scenario layer's ``geometric`` topology source. Nodes are placed
    over an ``area_m x area_m`` square — ``"uniform"`` (random placement,
    source at the area center, exactly
    :func:`random_geometric_topology`) or ``"grid"`` (a near-square
    lattice spanning the area, with the source swapped to the lattice
    point nearest the center) — and every directed link's PRR comes from
    the log-distance narrowband model in :mod:`repro.net.links`
    (``radio`` carries the path-loss/shadowing/noise constants; the rng
    also draws the per-link shadowing).
    """
    if n_nodes < 2:
        raise ValueError("need at least a source and one sensor")
    if area_m <= 0:
        raise ValueError("area side must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)
    if placement == "uniform":
        positions = rng.uniform(0.0, area_m, size=(n_nodes, 2))
        positions[0] = (area_m / 2.0, area_m / 2.0)
    elif placement == "grid":
        cols = int(math.ceil(math.sqrt(n_nodes)))
        rows = int(math.ceil(n_nodes / cols))
        xs = np.linspace(0.0, area_m, cols) if cols > 1 \
            else np.array([area_m / 2.0])
        ys = np.linspace(0.0, area_m, rows) if rows > 1 \
            else np.array([area_m / 2.0])
        gx, gy = np.meshgrid(xs, ys)
        positions = np.column_stack([gx.ravel(), gy.ravel()])[:n_nodes]
        center = np.array([area_m / 2.0, area_m / 2.0])
        src = int(np.argmin(((positions - center) ** 2).sum(axis=1)))
        positions[[0, src]] = positions[[src, 0]]
    else:
        raise ValueError(
            f"unknown placement {placement!r} (valid: ['grid', 'uniform'])"
        )
    radio = radio or RadioParameters()
    return positions_to_topology(
        positions, radio, rng, neighbor_threshold=neighbor_threshold
    )


def clustered_positions(
    n_nodes: int,
    area_m: float,
    n_clusters: int,
    cluster_sigma_m: float,
    rng: np.random.Generator,
    background_fraction: float = 0.2,
) -> np.ndarray:
    """Patchy node placement: Gaussian clusters plus a uniform background.

    Models a forest deployment where sensors follow tree patches. A
    ``background_fraction`` of nodes is spread uniformly to keep the
    network connected between patches.
    """
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    if not (0.0 <= background_fraction <= 1.0):
        raise ValueError("background fraction must be in [0, 1]")
    centers = rng.uniform(0.15 * area_m, 0.85 * area_m, size=(n_clusters, 2))
    positions = np.empty((n_nodes, 2))
    n_background = int(round(background_fraction * n_nodes))
    n_clustered = n_nodes - n_background
    assignments = rng.integers(0, n_clusters, size=n_clustered)
    positions[:n_clustered] = centers[assignments] + rng.normal(
        0.0, cluster_sigma_m, size=(n_clustered, 2)
    )
    positions[n_clustered:] = rng.uniform(0.0, area_m, size=(n_background, 2))
    return np.clip(positions, 0.0, area_m)


def line_topology(n_sensors: int, prr: float = 1.0) -> Topology:
    """Chain source -> 1 -> 2 -> ... (each node linked to its neighbors).

    The worst case for flooding delay; used in tests and examples.
    """
    n = n_sensors + 1
    mat = np.zeros((n, n))
    for i in range(n - 1):
        mat[i, i + 1] = prr
        mat[i + 1, i] = prr
    positions = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return Topology(mat, positions=positions, neighbor_threshold=min(prr, 0.1))


def star_topology(n_sensors: int, prr: float = 1.0) -> Topology:
    """Source at the hub, every sensor one hop away (single-hop flooding)."""
    n = n_sensors + 1
    mat = np.zeros((n, n))
    mat[0, 1:] = prr
    mat[1:, 0] = prr
    return Topology(mat, neighbor_threshold=min(prr, 0.1))


def binary_tree_topology(depth: int, prr: float = 1.0) -> Topology:
    """Complete binary tree rooted at the source.

    ``N = 2^(depth+1) - 2`` sensors; handy for theory checks because the
    binary tree is the naive structure Lemma 2 discusses.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = 2 ** (depth + 1) - 1
    mat = np.zeros((n, n))
    for i in range(n):
        for child in (2 * i + 1, 2 * i + 2):
            if child < n:
                mat[i, child] = prr
                mat[child, i] = prr
    return Topology(mat, neighbor_threshold=min(prr, 0.1))
