"""Tests for packets and workloads."""

import pytest

from repro.net.packet import FloodWorkload, Packet


class TestPacket:
    def test_ordering_by_index(self):
        assert Packet(0) < Packet(1)
        assert sorted([Packet(2), Packet(0)])[0].index == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Packet(-1)
        with pytest.raises(ValueError):
            Packet(0, generated_at=-5)


class TestFloodWorkload:
    def test_back_to_back_default(self):
        wl = FloodWorkload(5)
        assert wl.generation_slots().tolist() == [0, 0, 0, 0, 0]

    def test_spaced_generation(self):
        wl = FloodWorkload(4, generation_interval=10)
        assert wl.generation_slots().tolist() == [0, 10, 20, 30]
        assert wl.generation_slot(2) == 20

    def test_packets_materialized(self):
        packets = FloodWorkload(3, generation_interval=5).packets()
        assert [p.index for p in packets] == [0, 1, 2]
        assert packets[2].generated_at == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            FloodWorkload(0)
        with pytest.raises(ValueError):
            FloodWorkload(3, generation_interval=-1)
        with pytest.raises(IndexError):
            FloodWorkload(3).generation_slot(3)
