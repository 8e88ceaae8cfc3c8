"""Tests for the ETX tree and delay-distribution machinery."""

import math

import numpy as np
import pytest

from repro.net.generators import line_topology
from repro.net.topology import SOURCE, Topology
from repro.protocols.tree import EtxTree, build_etx_tree, hop_delay_moments


class TestHopDelayMoments:
    def test_perfect_link(self):
        mean, var = hop_delay_moments(1.0, 10)
        assert mean == pytest.approx(10.0)
        assert var == 0.0

    def test_lossy_link(self):
        mean, var = hop_delay_moments(0.5, 10)
        assert mean == pytest.approx(20.0)
        assert var == pytest.approx(100 * 0.5 / 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            hop_delay_moments(0.0, 10)
        with pytest.raises(ValueError):
            hop_delay_moments(0.5, 0)


class TestBuildEtxTree:
    def test_chain_parents(self, line5):
        tree = build_etx_tree(line5, period=10)
        assert tree.parent.tolist() == [-1, 0, 1, 2, 3]
        assert tree.etx_cost.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_prefers_reliable_two_hop_over_lossy_one_hop(self):
        # 0 -> 2 direct at PRR 0.25 (ETX 4) vs 0 ->1 ->2 at PRR 1 (ETX 2).
        mat = np.zeros((3, 3))
        mat[0, 1] = mat[1, 2] = 1.0
        mat[1, 0] = mat[2, 1] = 1.0
        mat[0, 2] = mat[2, 0] = 0.25
        topo = Topology(mat)
        tree = build_etx_tree(topo, period=10)
        assert tree.parent[2] == 1

    def test_unreachable_nodes(self):
        mat = np.zeros((3, 3))
        mat[0, 1] = mat[1, 0] = 1.0
        topo = Topology(mat)
        tree = build_etx_tree(topo, period=5)
        assert tree.parent[2] == -1
        assert not tree.reachable(2)
        assert math.isinf(tree.etx_cost[2])
        assert tree.depth(2) == -1

    def test_delay_moments_accumulate(self, lossy_line5):
        period = 10
        tree = build_etx_tree(lossy_line5, period)
        hop_mean, hop_var = hop_delay_moments(0.6, period)
        assert tree.delay_mean[3] == pytest.approx(3 * hop_mean)
        assert tree.delay_var[3] == pytest.approx(3 * hop_var)

    def test_children_inverse_of_parent(self, line5):
        tree = build_etx_tree(line5, period=5)
        assert tree.children(0).tolist() == [1]
        assert tree.children(4).tolist() == []
        assert tree.is_tree_edge(2, 3)
        assert not tree.is_tree_edge(3, 2)

    def test_depth(self, line5):
        tree = build_etx_tree(line5, period=5)
        assert tree.depth(SOURCE) == 0
        assert tree.depth(4) == 4


class TestDelayQuantile:
    def test_median_is_mean_for_normal(self, lossy_line5):
        tree = build_etx_tree(lossy_line5, period=10)
        q50 = tree.delay_quantile(2, 0.5)
        assert q50 == pytest.approx(float(tree.delay_mean[2]))

    def test_higher_quantile_is_larger(self, lossy_line5):
        tree = build_etx_tree(lossy_line5, period=10)
        assert tree.delay_quantile(3, 0.9) > tree.delay_quantile(3, 0.5)

    @pytest.mark.parametrize("q", [0.8, 0.9, 0.95, 0.99])
    def test_equals_norm_ppf_formula_bitwise(self, q):
        from scipy.stats import norm

        rng = np.random.default_rng(int(q * 100))
        z = float(norm.ppf(q))
        for n in range(2, 65):
            # A chain with per-link PRRs, so every node's variance differs.
            mat = np.zeros((n + 1, n + 1))
            for i, prr in enumerate(rng.uniform(0.2, 1.0, size=n)):
                mat[i, i + 1] = mat[i + 1, i] = prr
            period = int(rng.integers(1, 50))
            tree = build_etx_tree(Topology(mat), period=period)
            for v in range(n + 1):
                expected = float(tree.delay_mean[v]
                                 + z * math.sqrt(tree.delay_var[v]))
                assert tree.delay_quantile(v, q) == expected, (n, v)

    def test_unreachable_is_inf(self):
        mat = np.zeros((3, 3))
        mat[0, 1] = mat[1, 0] = 1.0
        tree = build_etx_tree(Topology(mat), period=5)
        assert math.isinf(tree.delay_quantile(2, 0.8))

    def test_quantile_validation(self, line5):
        tree = build_etx_tree(line5, period=5)
        with pytest.raises(ValueError):
            tree.delay_quantile(1, 0.0)
        with pytest.raises(ValueError):
            tree.delay_quantile(1, 1.0)
