"""Tests for the static NoC analysis helpers."""

import pytest

from repro.noc import (
    DMA_REQUEST_PLANE,
    Mesh2D,
    MessageKind,
    Packet,
    bisection_bandwidth_flits,
    bisection_links,
    saturation_injection_rate,
    zero_load_latency,
)
from repro.noc.routing import hop_count
from repro.sim import Environment


def mesh_diameter(cols: int, rows: int) -> int:
    """Longest minimal route in hops (corner to corner)."""
    if cols < 1 or rows < 1:
        raise ValueError("mesh must be at least 1x1")
    return (cols - 1) + (rows - 1)


def average_distance(cols: int, rows: int) -> float:
    """Mean hop count over all ordered tile pairs (uniform traffic)."""
    total = 0
    pairs = 0
    for sx in range(cols):
        for sy in range(rows):
            for dx in range(cols):
                for dy in range(rows):
                    if (sx, sy) == (dx, dy):
                        continue
                    total += hop_count((sx, sy), (dx, dy))
                    pairs += 1
    return total / pairs if pairs else 0.0


class TestClosedForm:
    def test_zero_load_matches_simulation(self):
        env = Environment()
        mesh = Mesh2D(env, 3, 3, router_latency=2)
        packet = Packet(src=(0, 0), dst=(2, 2),
                        plane=DMA_REQUEST_PLANE,
                        kind=MessageKind.DMA_REQ, payload_flits=15)
        mesh.send(packet)
        env.run()
        predicted = zero_load_latency((0, 0), (2, 2), 15,
                                      router_latency=2)
        assert packet.latency == predicted

    def test_zero_load_local(self):
        assert zero_load_latency((1, 1), (1, 1), 100,
                                 router_latency=3) == 3

    def test_diameter(self):
        assert mesh_diameter(4, 3) == 5
        assert mesh_diameter(1, 1) == 0
        with pytest.raises(ValueError):
            mesh_diameter(0, 1)

    def test_average_distance_2x2(self):
        # Pairs: 8 at distance 1, 4 at distance 2 -> 16/12.
        assert average_distance(2, 2) == pytest.approx(16 / 12)

    def test_average_distance_single_tile(self):
        assert average_distance(1, 1) == 0.0

    def test_bisection(self):
        assert bisection_links(4, 3) == 6
        assert bisection_links(1, 3) == 0
        assert bisection_bandwidth_flits(4, 3, planes=2) == 12

    def test_saturation_rate(self):
        # 4x4 mesh: B = 8, N = 16 -> r = 1.0 flits/cycle/tile.
        assert saturation_injection_rate(4, 4) == pytest.approx(1.0)
        # Wider meshes saturate at lower per-tile rates.
        assert saturation_injection_rate(8, 8) < \
            saturation_injection_rate(4, 4)

    def test_saturation_one_column(self):
        assert saturation_injection_rate(1, 4) == float("inf")

