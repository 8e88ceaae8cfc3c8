"""Tests for the experiment harness (smoke scale) and its shape claims."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.report import render_result
from repro.core.fdl import knee_point
from repro.experiments import experiment_ids, registry, run_experiment_by_id
from repro.experiments._common import SCALES, get_trace, resolve_scale


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        ids = experiment_ids()
        for required in ("fig3", "fig5", "fig6", "fig7", "fig9", "fig10",
                         "fig11", "table1", "lemma2", "gain"):
            assert required in ids

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment_by_id("fig99")

    def test_every_simulated_experiment_is_a_grid(self):
        # Simulations run as scenario grids (store, shards, stacking,
        # --jobs); no experiment drives the engine by hand.
        analytic = {"fig3", "fig5", "fig6", "fig7", "table1", "lemma2",
                    "gain"}
        assert set(experiment_ids()) - analytic \
            == set(registry.SCENARIO_GRIDS)
        for path in Path(registry.__file__).parent.glob("*.py"):
            imported = {
                alias.name
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names
            }
            assert "run_flood" not in imported, path.name

    def test_scales_defined(self):
        for name in ("full", "bench", "smoke"):
            assert name in SCALES
        with pytest.raises(KeyError):
            resolve_scale("giant")


class TestTraceCache:
    def test_cached_identity(self):
        a = get_trace("smoke")
        b = get_trace("smoke")
        assert a is b

    def test_smoke_scale_size(self):
        topo = get_trace("smoke")
        assert topo.n_sensors == SCALES["smoke"].n_sensors


class TestTheoryExperiments:
    def test_fig3_achieves_lemma3(self):
        r = run_experiment_by_id("fig3", scale="smoke")
        assert r.metadata["achieves_lemma3"]
        assert r.metadata["compact_slots"] == r.metadata["lemma3_limit"]

    def test_fig5_knee_and_ordering(self):
        r = run_experiment_by_id("fig5", scale="smoke")
        # Larger N lies strictly above smaller N (panel A).
        s256 = r.get_series("panelA: N=256, T=5")
        s4096 = r.get_series("panelA: N=4096, T=5")
        assert np.all(s4096.y > s256.y)
        # Knee: marginal delay halves at M = m.
        m = knee_point(1024)
        s1024 = r.get_series("panelA: N=1024, T=5")
        slopes = np.diff(s1024.y)
        assert slopes[m - 3] == pytest.approx(2 * slopes[m + 2])
        # Panel B: lower duty lies above higher duty.
        b10 = r.get_series("panelB: N=1024, duty=10%")
        b100 = r.get_series("panelB: N=1024, duty=100%")
        assert np.all(b10.y > b100.y)

    def test_fig6_bounds_bracket(self):
        r = run_experiment_by_id("fig6", scale="smoke")
        for n in (256, 1024):
            lo = r.get_series(f"N={n}, lower bound")
            hi = r.get_series(f"N={n}, upper bound")
            assert np.all(lo.y <= hi.y)

    def test_fig7_shapes(self):
        r = run_experiment_by_id("fig7", scale="smoke")
        curves = [r.get_series(lbl) for lbl in r.labels()]
        # Monotone decreasing in duty cycle.
        for c in curves:
            assert c.is_monotone_decreasing()
        # Worst link (k=2) dominates best (k=1.25) at every duty.
        k2 = r.get_series("k=2 (link quality 50%)")
        k125 = r.get_series("k=1.25 (link quality 80%)")
        assert np.all(k2.y > k125.y)
        # The spread widens as duty shrinks.
        spread = k2.y - k125.y
        assert spread[0] > spread[-1]

    def test_table1_patterns(self):
        r = run_experiment_by_id("table1", scale="smoke")
        assert r.metadata["algorithm1_achieves_limit"]
        small = r.tables[0]
        m = r.metadata["m"]
        assert small.column("W_p")[0] == m
        large = r.tables[1]
        assert large.column("W_p")[-1] == r.metadata["saturation"]

    def test_lemma2_agreement(self):
        r = run_experiment_by_id("lemma2", scale="smoke")
        theory = r.get_series("E[FWL] theory (ceil form)")
        measured = r.get_series("E[FWL] measured")
        assert np.all(np.abs(theory.y - measured.y) <= 1.5)


class TestTraceExperiments:
    def test_fig9_blocking_and_decomposition(self):
        r = run_experiment_by_id("fig9", scale="smoke")
        for proto in ("opt", "dbao", "of"):
            total = r.get_series(f"{proto}: total delay")
            trans = r.get_series(f"{proto}: transmission delay")
            assert total.x.size == trans.x.size
            assert np.all(total.y > 0)

    def test_fig10_shapes(self):
        r = run_experiment_by_id("fig10", scale="smoke")
        bound = r.get_series("predicted lower bound")
        opt = r.get_series("opt: avg delay")
        # Delay decreases with duty cycle for every protocol.
        for proto in ("opt", "dbao", "of"):
            assert r.get_series(f"{proto}: avg delay").is_monotone_decreasing()
        # The analytic bound stays below the oracle.
        assert np.all(bound.y <= opt.y * 1.05)

    def test_fig11_failures_positive(self):
        r = run_experiment_by_id("fig11", scale="smoke")
        for proto in ("opt", "dbao", "of"):
            assert np.all(r.get_series(f"{proto}: failures").y >= 0)

    def test_gain_has_interior_maximum(self):
        r = run_experiment_by_id("gain", scale="smoke")
        gains = r.get_series("networking gain").y
        best = int(np.argmax(gains))
        assert 0 < best < gains.size - 1
        assert 0.01 < r.metadata["optimal_duty"] <= 0.5

    def test_ablation_overhearing_saves_transmissions(self):
        r = run_experiment_by_id("abl-overhearing", scale="smoke")
        tx = r.get_series("tx attempts").y
        assert tx[0] < tx[1]  # on < off

    def test_every_experiment_renders(self):
        # Rendering must never crash for any registered experiment.
        for eid in ("fig3", "fig5", "fig6", "fig7", "table1", "lemma2"):
            out = render_result(run_experiment_by_id(eid, scale="smoke"))
            assert eid in out
