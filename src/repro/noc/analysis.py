"""Static NoC analysis: latency, bandwidth and utilization structure.

Complements the dynamic simulation with the closed-form numbers a NoC
architect checks first: zero-load latencies under XY routing, the mesh
bisection bandwidth, a saturation estimate for uniform traffic, and
post-run link-utilization summaries.
"""

from __future__ import annotations

from typing import Tuple

from .routing import hop_count

Coord = Tuple[int, int]


def zero_load_latency(src: Coord, dst: Coord, payload_flits: int,
                      router_latency: int = 2) -> int:
    """Uncontended wormhole latency of one packet (cycles)."""
    hops = hop_count(src, dst)
    if hops == 0:
        return router_latency
    return hops * router_latency + payload_flits + 1


def bisection_links(cols: int, rows: int) -> int:
    """Directed links crossing the vertical bisection (per plane)."""
    if cols < 2:
        return 0
    return 2 * rows   # one link pair per row across the middle cut


def bisection_bandwidth_flits(cols: int, rows: int,
                              planes: int = 1) -> int:
    """Flits/cycle across the bisection (1 flit/link/cycle)."""
    return bisection_links(cols, rows) * planes


def saturation_injection_rate(cols: int, rows: int) -> float:
    """Per-tile injection rate (flits/cycle) at bisection saturation.

    Uniform random traffic sends half of all flits across the
    bisection; with N tiles injecting r flits/cycle each, saturation
    is at ``N * r / 2 = B`` where B is the bisection bandwidth.
    """
    n_tiles = cols * rows
    if n_tiles == 0:
        return 0.0
    bandwidth = bisection_bandwidth_flits(cols, rows)
    if bandwidth == 0:
        return float("inf")   # 1-column mesh has no vertical cut
    return 2.0 * bandwidth / n_tiles
