"""Tests for the Topology substrate."""

import functools

import networkx as nx
import numpy as np
import pytest

from repro.net.topology import SOURCE, Topology


def make_prr(n, links):
    mat = np.zeros((n, n))
    for (i, j, q) in links:
        mat[i, j] = q
    return mat


class TestConstruction:
    def test_basic(self):
        topo = Topology(make_prr(3, [(0, 1, 1.0), (1, 2, 0.5), (2, 1, 0.5)]))
        assert topo.n_nodes == 3
        assert topo.n_sensors == 2
        assert topo.has_link(0, 1)
        assert not topo.has_link(1, 0)

    def test_threshold_prunes_weak_links(self):
        topo = Topology(
            make_prr(3, [(0, 1, 0.05), (0, 2, 0.5)]), neighbor_threshold=0.1
        )
        assert not topo.has_link(0, 1)
        assert topo.link_prr(0, 1) == 0.0
        assert topo.has_link(0, 2)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            Topology(np.zeros((2, 3)))

    def test_rejects_self_links(self):
        mat = make_prr(2, [(0, 1, 1.0)])
        mat[0, 0] = 0.5
        with pytest.raises(ValueError):
            Topology(mat)

    def test_rejects_out_of_range_prr(self):
        with pytest.raises(ValueError):
            Topology(make_prr(2, [(0, 1, 1.5)]))

    def test_rejects_tiny_network(self):
        with pytest.raises(ValueError):
            Topology(np.zeros((1, 1)))

    def test_positions_shape_checked(self):
        with pytest.raises(ValueError):
            Topology(make_prr(2, [(0, 1, 1.0)]), positions=np.zeros((3, 2)))

    def test_rssi_shape_checked(self):
        with pytest.raises(ValueError):
            Topology(make_prr(2, [(0, 1, 1.0)]), rssi=np.zeros((3, 3)))

    def test_complete_constructor(self):
        topo = Topology.complete(5, prr=0.8)
        assert topo.n_sensors == 5
        assert np.all(topo.adjacency[~np.eye(6, dtype=bool)])

    def test_homogeneous_from_graph(self):
        g = nx.path_graph(4)
        topo = Topology.homogeneous(g, prr=0.7)
        assert topo.has_link(0, 1) and topo.has_link(1, 0)
        assert not topo.has_link(0, 3)
        assert topo.link_prr(2, 3) == pytest.approx(0.7)

    def test_homogeneous_rejects_bad_labels(self):
        g = nx.Graph()
        g.add_edge("a", "b")
        with pytest.raises(ValueError):
            Topology.homogeneous(g)


class TestQueries:
    def test_neighbor_lists(self, line5):
        assert line5.out_neighbors(0).tolist() == [1]
        assert line5.out_neighbors(2).tolist() == [1, 3]
        assert line5.in_neighbors(4).tolist() == [3]

    def test_degree_stats(self, star8):
        mean, lo, hi = star8.degree_stats()
        assert hi == 8  # the hub
        assert lo == 1

    def test_mean_prr(self, lossy_line5):
        assert lossy_line5.mean_prr() == pytest.approx(0.6)

    def test_mean_k_class(self, lossy_line5):
        assert lossy_line5.mean_k_class() == pytest.approx(1.0 / 0.6)

    def test_distance_requires_positions(self, line5, star8):
        assert line5.distance(0, 2) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            star8.distance(0, 1)

    def test_link_rssi_nan_without_data(self, line5):
        assert np.isnan(line5.link_rssi(0, 1))


class TestGraphViews:
    def test_to_networkx_attributes(self, lossy_line5):
        g = lossy_line5.to_networkx()
        assert g.number_of_nodes() == 5
        assert g[0][1]["prr"] == pytest.approx(0.6)
        assert g[0][1]["etx"] == pytest.approx(1.0 / 0.6)

    def test_undirected_view(self, line5):
        g = line5.undirected_view()
        assert g.number_of_edges() == 4

    def test_connectivity(self, line5):
        assert line5.is_connected_from_source()
        # Cut the chain: node 3 and 4 unreachable.
        mat = line5.prr.copy()
        mat[2, 3] = mat[3, 2] = 0.0
        cut = Topology(mat)
        assert not cut.is_connected_from_source()
        reach = cut.reachable_from_source()
        assert reach.tolist() == [True, True, True, False, False]

    def test_hop_distances(self, line5):
        hops = line5.hop_distances_from_source()
        assert hops.tolist() == [0, 1, 2, 3, 4]

    def test_hop_distance_unreachable_is_minus_one(self):
        mat = make_prr(3, [(0, 1, 1.0), (1, 0, 1.0)])
        topo = Topology(mat)
        assert topo.hop_distances_from_source()[2] == -1


def _random_directed(seed):
    """Directed PRR matrix: asymmetric links, some below the threshold,
    and a few isolated sensors (no links in or out)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    density = rng.uniform(0.02, 0.6)
    mat = np.where(rng.random((n, n)) < density, rng.random((n, n)), 0.0)
    np.fill_diagonal(mat, 0.0)
    isolated = rng.choice(np.arange(1, n), replace=False,
                          size=int(rng.integers(0, 3)) if n > 3 else 0)
    mat[isolated, :] = 0.0
    mat[:, isolated] = 0.0
    return Topology(mat, neighbor_threshold=float(rng.uniform(0.05, 0.5)))


def _chain():
    # Chain with a sub-threshold forward link and a one-way back link.
    return Topology(make_prr(6, [(0, 1, 0.9), (1, 2, 0.4), (2, 3, 0.05),
                                 (3, 4, 1.0), (4, 5, 0.3), (5, 4, 0.3),
                                 (2, 1, 0.2)]))


def _greenorbs():
    from repro.net.trace import synthesize_greenorbs

    return synthesize_greenorbs(seed=2011)


_CASES = {f"random{s}": functools.partial(_random_directed, s)
          for s in range(40)}
_CASES.update(chain=_chain, greenorbs=_greenorbs)


class TestGraphQueriesMatchNetworkx:
    """The BFS queries equal networkx's answers on the same digraph."""

    @pytest.mark.parametrize("case", list(_CASES))
    def test_bfs_trio(self, case):
        topo = _CASES[case]()
        g = topo.to_networkx()
        reach = nx.descendants(g, SOURCE) | {SOURCE}
        expected_reach = np.isin(np.arange(topo.n_nodes), sorted(reach))
        expected_hops = np.full(topo.n_nodes, -1, dtype=np.int64)
        for v, d in nx.single_source_shortest_path_length(g, SOURCE).items():
            expected_hops[v] = d

        hops = topo.hop_distances_from_source()
        assert hops.dtype == np.int64
        assert hops.tolist() == expected_hops.tolist()
        assert topo.reachable_from_source().tolist() == expected_reach.tolist()
        assert topo.is_connected_from_source() == (len(reach) == topo.n_nodes)

    def test_cases_include_unreachable_nodes(self):
        assert _chain().hop_distances_from_source().tolist() == \
            [0, 1, 2, -1, -1, -1]
        assert not _greenorbs().is_connected_from_source()
        partial = [s for s in range(40)
                   if not _random_directed(s).is_connected_from_source()]
        assert 0 < len(partial) < 40
