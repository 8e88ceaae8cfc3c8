"""Tests for link-quality models (k-class, RSSI->PRR chain)."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.links import (
    LinkQuality,
    RadioParameters,
    distance_to_prr,
    expected_transmissions,
    k_class_to_prr,
    path_loss_db,
    prr_to_k_class,
    rssi_dbm,
    rssi_to_prr,
    snr_to_prr,
)
from repro.scenario import TopologySpec


class TestKClass:
    @pytest.mark.parametrize(
        "prr,k", [(0.5, 2.0), (0.8, 1.25), (1.0, 1.0), (0.6, 1.0 / 0.6)]
    )
    def test_paper_legend_pairs(self, prr, k):
        # Fig. 7 legend: link quality q <-> expected transmissions 1/q.
        assert prr_to_k_class(prr) == pytest.approx(k)

    def test_roundtrip(self):
        for prr in (0.1, 0.35, 0.99, 1.0):
            assert k_class_to_prr(prr_to_k_class(prr)) == pytest.approx(prr)

    def test_etx_alias(self):
        assert expected_transmissions(0.25) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            prr_to_k_class(0.0)
        with pytest.raises(ValueError):
            prr_to_k_class(1.2)
        with pytest.raises(ValueError):
            k_class_to_prr(0.9)

    @given(st.floats(0.01, 1.0))
    @settings(max_examples=50)
    def test_k_at_least_one(self, prr):
        assert prr_to_k_class(prr) >= 1.0


class TestLinkQuality:
    def test_fields(self):
        lq = LinkQuality(prr=0.5, rssi_dbm=-80.0)
        assert lq.k_class == pytest.approx(2.0)
        assert lq.etx == pytest.approx(2.0)
        assert not lq.is_perfect

    def test_perfect(self):
        assert LinkQuality(prr=1.0).is_perfect

    def test_from_k_class(self):
        assert LinkQuality.from_k_class(2.0).prr == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkQuality(prr=0.0)


class TestPhysicalChain:
    def test_path_loss_increases_with_distance(self):
        p = RadioParameters()
        losses = path_loss_db(np.asarray([1.0, 10.0, 100.0]), p)
        assert losses[0] < losses[1] < losses[2]

    def test_path_loss_slope_matches_exponent(self):
        p = RadioParameters(path_loss_exponent=3.0)
        l10 = float(path_loss_db(10.0, p))
        l100 = float(path_loss_db(100.0, p))
        assert l100 - l10 == pytest.approx(30.0)  # 10 * eta per decade

    def test_distance_clamped_to_reference(self):
        p = RadioParameters()
        assert float(path_loss_db(0.01, p)) == pytest.approx(
            float(path_loss_db(p.reference_distance_m, p))
        )

    def test_rssi_decreases_with_distance(self):
        p = RadioParameters()
        assert float(rssi_dbm(10.0, p)) > float(rssi_dbm(60.0, p))

    def test_shadowing_shifts_rssi(self):
        p = RadioParameters()
        base = float(rssi_dbm(30.0, p))
        assert float(rssi_dbm(30.0, p, shadowing_db=6.0)) == pytest.approx(base + 6.0)

    def test_snr_to_prr_sigmoid(self):
        prr = snr_to_prr(np.asarray([-10.0, 6.0, 20.0]))
        assert prr[0] < 0.01
        assert 0.0 < prr[1] < 1.0
        assert prr[2] > 0.99

    def test_prr_monotone_in_snr(self):
        snrs = np.linspace(-10, 20, 40)
        prr = snr_to_prr(snrs)
        assert np.all(np.diff(prr) >= 0)

    def test_longer_frames_are_harder(self):
        snr = 5.0
        assert float(snr_to_prr(snr, frame_bytes=20)) > float(
            snr_to_prr(snr, frame_bytes=200)
        )

    def test_distance_to_prr_has_gray_region(self):
        # There must exist distances with intermediate PRR — the gray
        # region the GreenOrbs substitution relies on.
        p = RadioParameters()
        dists = np.linspace(1.0, 120.0, 400)
        prr = distance_to_prr(dists, p)
        assert prr[0] > 0.99
        assert prr[-1] < 0.01
        assert np.any((prr > 0.1) & (prr < 0.9))

    def test_rssi_to_prr_bounds(self):
        p = RadioParameters()
        vals = rssi_to_prr(np.asarray([-120.0, -80.0, -30.0]), p)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_radio_parameters_validation(self):
        with pytest.raises(ValueError):
            RadioParameters(path_loss_exponent=0.0)
        with pytest.raises(ValueError):
            RadioParameters(reference_distance_m=0.0)
        with pytest.raises(ValueError):
            RadioParameters(shadowing_sigma_db=-1.0)
        with pytest.raises(ValueError):
            RadioParameters(frame_bytes=0)

    @given(st.floats(1.0, 200.0))
    @settings(max_examples=50)
    def test_prr_always_valid(self, dist):
        p = RadioParameters()
        prr = float(distance_to_prr(dist, p))
        assert 0.0 <= prr <= 1.0


class TestCommittedSubstratePrr:
    """The PRR matrices of the committed substrates, byte for byte.

    Every topology fingerprint and store key hashes these bytes, so a
    change anywhere in the distance -> RSSI -> PRR chain (the erfc that
    scipy.special used to evaluate included) must show up here first.
    The digests were recorded with scipy.special.erfc in the chain. The
    RSSI matrices the PRRs derive from are pinned beside them.
    """

    SUBSTRATES = [
        # GreenOrbs at 120 sensors: the Figs. 9-11 benchmark substrate.
        {"kind": "greenorbs", "seed": 2011, "params": {"n_sensors": 120}},
        # GreenOrbs at paper scale (297 sensors).
        {"kind": "greenorbs", "seed": 2011, "params": {"n_sensors": 297}},
        # The mac-duty bench deployment.
        {"kind": "geometric", "seed": 2011,
         "params": {"n_nodes": 60, "area_m": 254.6, "placement": "uniform"}},
    ]

    @pytest.mark.parametrize("spec, digest", zip(SUBSTRATES, [
        "c4d4705f84d3188ffa6590982f28c038fd580c0fc7b7b9e73e6421eb3e83794c",
        "c53334b818e24b5730295303bf0de11cd79753993c32fcfc53009506a50cddf7",
        "9e7cb8c38a0ad74e68dbb35f87044d1d74c3129032a199bcd9f0bdfec21ea96e",
    ]))
    def test_prr_bytes(self, spec, digest):
        prr = TopologySpec.from_dict(spec).build().prr
        assert prr.dtype == np.float64
        data = np.ascontiguousarray(prr).tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("spec, digest", zip(SUBSTRATES, [
        "24914c64278ddd45c0a883f0e0b6766ae4ff1ced280a324c198c0249cb9e722d",
        "965a3ee448fe39f37ed9aabb93e64be8ceaffcac7188ec20b1cd6925e5d6b2ae",
        "79612056c51313351e4b98e9a88e99bd9cf440c006862288761770d039b78134",
    ]))
    def test_rssi_bytes(self, spec, digest):
        rssi = TopologySpec.from_dict(spec).build().rssi
        assert rssi.dtype == np.float64
        data = np.ascontiguousarray(rssi).tobytes()
        assert hashlib.sha256(data).hexdigest() == digest
