"""Tests for the multi-plane mesh NoC: latency, contention, delivery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc import (
    DEFAULT_PLANES,
    DMA_REQUEST_PLANE,
    DMA_RESPONSE_PLANE,
    Mesh2D,
    MessageKind,
    NocPlane,
    Packet,
)
from repro.sim import Environment


def send_and_run(mesh, env, packets):
    processes = [mesh.send(p) for p in packets]
    env.run()
    return processes


def packet(src, dst, flits=15, plane=DMA_REQUEST_PLANE,
           kind=MessageKind.DMA_REQ, tag=None):
    return Packet(src=src, dst=dst, plane=plane, kind=kind,
                  payload_flits=flits, tag=tag)


class TestConstruction:
    def test_six_default_planes(self):
        env = Environment()
        mesh = Mesh2D(env, 2, 2)
        assert len(mesh.planes) == 6
        assert DMA_REQUEST_PLANE in mesh.planes
        assert DMA_RESPONSE_PLANE in mesh.planes

    def test_link_count(self):
        env = Environment()
        mesh = Mesh2D(env, 3, 2)
        # 3x2 mesh: 2*2 horizontal + 3*1 vertical = 7 bidir pairs
        # -> 14 directed links per plane.
        per_plane = 14
        keys = mesh.link_keys()
        assert len(keys) == len(set(keys)) == per_plane * 6
        for src, dst, plane in keys:
            assert abs(src[0] - dst[0]) + abs(src[1] - dst[1]) == 1
            assert (dst, src, plane) in keys
        for plane in mesh.planes:
            assert sum(1 for key in keys if key[2] == plane) == per_plane

    def test_io_plane_narrower(self):
        env = Environment()
        mesh = Mesh2D(env, 2, 2)
        assert mesh.flit_bits("io-irq") == 32
        assert mesh.flit_bits(DMA_REQUEST_PLANE) == 64

    def test_invalid_sizes(self):
        env = Environment()
        with pytest.raises(ValueError):
            Mesh2D(env, 0, 2)
        with pytest.raises(ValueError):
            Mesh2D(env, 2, 2, router_latency=0)

    def test_duplicate_plane_names_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Mesh2D(env, 2, 2, planes=[NocPlane("a"), NocPlane("a")])


class TestLatency:
    def test_uncontended_wormhole_formula(self):
        env = Environment()
        mesh = Mesh2D(env, 3, 3, router_latency=2)
        p = packet((0, 0), (2, 2), flits=15)
        mesh.send(p)
        env.run()
        # 4 hops * 2 cycles + 16 flits serialization.
        assert p.latency == 4 * 2 + 16

    def test_local_delivery(self):
        env = Environment()
        mesh = Mesh2D(env, 2, 2, router_latency=2)
        p = packet((0, 0), (0, 0))
        mesh.send(p)
        env.run()
        assert p.latency == 2

    def test_longer_route_longer_latency(self):
        env = Environment()
        mesh = Mesh2D(env, 4, 4)
        near = packet((0, 0), (1, 0))
        far = packet((0, 0), (3, 3))
        mesh.send(near)
        mesh.send(far)
        env.run()
        assert far.latency > near.latency


class TestContention:
    def test_shared_link_serializes(self):
        env = Environment()
        mesh = Mesh2D(env, 3, 1, router_latency=1)
        a = packet((0, 0), (2, 0), flits=99)
        b = packet((0, 0), (2, 0), flits=99)
        mesh.send(a)
        mesh.send(b)
        env.run()
        uncontended = 2 * 1 + 100
        assert a.latency == uncontended
        assert b.latency > uncontended   # waited behind a

    def test_different_planes_do_not_contend(self):
        env = Environment()
        mesh = Mesh2D(env, 3, 1, router_latency=1)
        a = packet((0, 0), (2, 0), flits=99, plane=DMA_REQUEST_PLANE)
        b = packet((0, 0), (2, 0), flits=99, plane=DMA_RESPONSE_PLANE,
                   kind=MessageKind.DMA_RSP)
        mesh.send(a)
        mesh.send(b)
        env.run()
        assert a.latency == b.latency == 2 * 1 + 100

    def test_disjoint_routes_do_not_contend(self):
        env = Environment()
        mesh = Mesh2D(env, 2, 2, router_latency=1)
        a = packet((0, 0), (1, 0), flits=50)
        b = packet((0, 1), (1, 1), flits=50)
        mesh.send(a)
        mesh.send(b)
        env.run()
        assert a.latency == b.latency == 1 + 51


class TestDelivery:
    def test_packet_arrives_in_inbox(self):
        env = Environment()
        mesh = Mesh2D(env, 2, 2)
        p = packet((0, 0), (1, 1), tag="t0")
        mesh.send(p)
        env.run()
        inbox = mesh.inbox((1, 1), DMA_REQUEST_PLANE)
        assert inbox.try_get() is p

    def test_fifo_order_same_pair(self):
        env = Environment()
        mesh = Mesh2D(env, 3, 1)
        packets = [packet((0, 0), (2, 0), flits=5, tag=f"t{i}")
                   for i in range(5)]
        for p in packets:
            mesh.send(p)
        env.run()
        inbox = mesh.inbox((2, 0), DMA_REQUEST_PLANE)
        order = [inbox.try_get().tag for _ in range(5)]
        assert order == [f"t{i}" for i in range(5)]

    def test_unknown_plane_rejected(self):
        env = Environment()
        mesh = Mesh2D(env, 2, 2)
        with pytest.raises(ValueError):
            mesh.send(packet((0, 0), (1, 1), plane="bogus"))

    def test_out_of_mesh_rejected(self):
        env = Environment()
        mesh = Mesh2D(env, 2, 2)
        with pytest.raises(ValueError):
            mesh.send(packet((0, 0), (5, 5)))

    @given(cols=st.integers(2, 4), rows=st.integers(2, 4),
           pairs=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                          min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_all_packets_always_delivered(self, cols, rows, pairs):
        env = Environment()
        mesh = Mesh2D(env, cols, rows)
        packets = []
        for a, b in pairs:
            src = (a % cols, (a // cols) % rows)
            dst = (b % cols, (b // cols) % rows)
            packets.append(packet(src, dst, flits=a % 20))
        for p in packets:
            mesh.send(p)
        env.run()
        assert mesh.packets_delivered == len(packets)
        assert all(p.delivered_at is not None for p in packets)


class TestStats:
    def test_flits_accounted_per_plane(self):
        env = Environment()
        mesh = Mesh2D(env, 3, 1)
        p = packet((0, 0), (2, 0), flits=9)
        mesh.send(p)
        env.run()
        flits = mesh.plane_flits()
        assert flits[DMA_REQUEST_PLANE] == 2 * 10   # 2 hops x 10 flits
        assert flits[DMA_RESPONSE_PLANE] == 0

    def test_busiest_links(self):
        env = Environment()
        mesh = Mesh2D(env, 3, 1)
        for _ in range(3):
            mesh.send(packet((0, 0), (2, 0), flits=10))
        env.run()
        top = mesh.busiest_links(top=1)[0]
        assert top.flits_carried == 33
