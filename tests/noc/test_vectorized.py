"""The closed-form latency of an uncontended packet vs the event-driven
path: ``bulk_uncontended_latencies`` is the closed form of
``Mesh2D.send`` for isolated packets; these tests pin it
cycle-for-cycle against actually simulating each packet alone on an
idle mesh.
"""

import numpy as np
import pytest

from repro.noc import DMA_REQUEST_PLANE, Mesh2D, MessageKind, Packet
from repro.sim import Environment


def bulk_uncontended_latencies(mesh, srcs, dsts, size_flits: int,
                               plane: str = DMA_REQUEST_PLANE) -> np.ndarray:
    """Vectorized end-to-end latencies of uncontended packets.

    For each (src, dst) pair, the cycle count an isolated packet of
    ``size_flits`` flits takes on an otherwise idle mesh: one
    router traversal for local ejection, else the wormhole formula
    ``hops * router_latency + size_flits`` (XY hop count =
    Manhattan distance). This is the closed form of the callback
    path behind ``Mesh2D.send`` with every ``acquire`` immediate.
    """
    if size_flits < 1:
        raise ValueError(f"size_flits must be >= 1, got {size_flits}")
    if plane not in mesh.planes:
        raise ValueError(
            f"unknown plane {plane!r}; options: {sorted(mesh.planes)}")
    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    if src.ndim != 2 or src.shape[1] != 2 or src.shape != dst.shape:
        raise ValueError("srcs/dsts must be matching (n, 2) coordinate "
                         f"arrays, got {src.shape} and {dst.shape}")
    for arr, label in ((src, "src"), (dst, "dst")):
        if ((arr[:, 0] < 0).any() or (arr[:, 0] >= mesh.cols).any()
                or (arr[:, 1] < 0).any()
                or (arr[:, 1] >= mesh.rows).any()):
            raise ValueError(f"{label} coordinate out of the "
                             f"{mesh.cols}x{mesh.rows} mesh")
    hops = (np.abs(src[:, 0] - dst[:, 0])
            + np.abs(src[:, 1] - dst[:, 1]))
    latency = hops * mesh.router_latency + size_flits
    # Local ejection: no links, one router traversal, no body drain.
    return np.where(hops == 0, mesh.router_latency, latency)


def _simulated_latency(cols, rows, src, dst, flits):
    """Drive one packet through an idle mesh; return delivery latency."""
    env = Environment()
    mesh = Mesh2D(env, cols, rows)
    packet = Packet(src=src, dst=dst, plane=DMA_REQUEST_PLANE,
                    kind=MessageKind.DMA_REQ, payload_flits=flits)
    mesh.send(packet)
    env.run()
    return packet.delivered_at - packet.injected_at


class TestBulkUncontended:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_event_driven_transport(self, seed):
        """Closed form == simulation for random pairs on a wide mesh."""
        rng = np.random.default_rng(seed)
        cols, rows = 6, 5
        n = 12
        srcs = np.stack([rng.integers(0, cols, n),
                         rng.integers(0, rows, n)], axis=1)
        dsts = np.stack([rng.integers(0, cols, n),
                         rng.integers(0, rows, n)], axis=1)
        payload = int(rng.integers(1, 40))
        flits = payload + 1   # Packet.size_flits counts the head flit
        env = Environment()
        mesh = Mesh2D(env, cols, rows)
        predicted = bulk_uncontended_latencies(mesh, srcs, dsts, flits)
        for k in range(n):
            simulated = _simulated_latency(
                cols, rows, tuple(int(v) for v in srcs[k]),
                tuple(int(v) for v in dsts[k]), payload)
            assert predicted[k] == simulated, (srcs[k], dsts[k])

    def test_local_ejection_is_one_router_hop(self):
        env = Environment()
        mesh = Mesh2D(env, 3, 3, router_latency=4)
        out = bulk_uncontended_latencies(mesh, 
            [(1, 1)], [(1, 1)], size_flits=16)
        assert out.tolist() == [4]

    def test_wide_mesh_batch_shape_and_dtype(self):
        env = Environment()
        mesh = Mesh2D(env, 16, 16)
        rng = np.random.default_rng(0)
        n = 5_000
        srcs = rng.integers(0, 16, (n, 2))
        dsts = rng.integers(0, 16, (n, 2))
        out = bulk_uncontended_latencies(mesh, srcs, dsts, 32)
        assert out.shape == (n,)
        hops = np.abs(srcs - dsts).sum(axis=1)
        np.testing.assert_array_equal(
            out, np.where(hops == 0, 2, hops * 2 + 32))

    def test_rejects_bad_inputs(self):
        env = Environment()
        mesh = Mesh2D(env, 2, 2)
        with pytest.raises(ValueError):
            bulk_uncontended_latencies(mesh, [(0, 0)], [(5, 0)], 8)
        with pytest.raises(ValueError):
            bulk_uncontended_latencies(mesh, [(0, 0)], [(1, 1)], 0)
        with pytest.raises(ValueError):
            bulk_uncontended_latencies(mesh, [(0, 0)], [(1, 1)], 8,
                                            plane="warp")
        with pytest.raises(ValueError):
            bulk_uncontended_latencies(mesh, [(0, 0), (1, 1)], [(1, 1)], 8)
