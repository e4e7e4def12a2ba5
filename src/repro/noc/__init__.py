"""Multi-plane 2D-mesh packet-switched NoC (the ESP interconnect)."""

from .packet import Coord, MessageKind, Packet
from .routing import hop_count
from .link import Link
from .mesh import (
    COH_FORWARD_PLANE,
    COH_REQUEST_PLANE,
    COH_RESPONSE_PLANE,
    DEFAULT_PLANES,
    DMA_REQUEST_PLANE,
    DMA_RESPONSE_PLANE,
    IO_PLANE,
    Mesh2D,
    NocPlane,
)
from .analysis import (
    bisection_bandwidth_flits,
    bisection_links,
    saturation_injection_rate,
    zero_load_latency,
)

__all__ = [
    "COH_FORWARD_PLANE",
    "COH_REQUEST_PLANE",
    "COH_RESPONSE_PLANE",
    "Coord",
    "DEFAULT_PLANES",
    "DMA_REQUEST_PLANE",
    "DMA_RESPONSE_PLANE",
    "IO_PLANE",
    "Link",
    "Mesh2D",
    "MessageKind",
    "NocPlane",
    "Packet",
    "bisection_bandwidth_flits",
    "bisection_links",
    "hop_count",
    "saturation_injection_rate",
    "zero_load_latency",
]
