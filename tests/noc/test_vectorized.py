"""The closed-form latency of an uncontended packet vs the event-driven
path: ``zero_load_latency`` is the closed form of ``Mesh2D.send`` for
isolated packets; these tests pin it cycle-for-cycle against actually
simulating each packet alone on an idle mesh.
"""

import numpy as np
import pytest

from repro.noc import DMA_REQUEST_PLANE, Mesh2D, MessageKind, Packet
from repro.noc.analysis import zero_load_latency
from repro.sim import Environment


def _simulated_latency(cols, rows, src, dst, payload, router_latency=2):
    """Drive one packet through an idle mesh; return delivery latency."""
    env = Environment()
    mesh = Mesh2D(env, cols, rows, router_latency=router_latency)
    packet = Packet(src=src, dst=dst, plane=DMA_REQUEST_PLANE,
                    kind=MessageKind.DMA_REQ, payload_flits=payload)
    mesh.send(packet)
    env.run()
    return packet.delivered_at - packet.injected_at


class TestBulkUncontended:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_event_driven_transport(self, seed):
        """Closed form == simulation for random pairs on a wide mesh."""
        rng = np.random.default_rng(seed)
        cols, rows = 6, 5
        payload = int(rng.integers(1, 40))
        pairs = rng.integers(0, (cols, rows), (12, 2, 2)).tolist()
        for src, dst in pairs:
            src, dst = tuple(src), tuple(dst)
            assert (zero_load_latency(src, dst, payload)
                    == _simulated_latency(cols, rows, src, dst, payload)
                    ), (src, dst, payload)

    def test_local_ejection_is_one_router_hop(self):
        assert zero_load_latency((1, 1), (1, 1), 15,
                                 router_latency=4) == 4
        assert _simulated_latency(3, 3, (1, 1), (1, 1), 15,
                                  router_latency=4) == 4
