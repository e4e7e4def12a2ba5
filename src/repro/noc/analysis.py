"""Static NoC analysis: latency, bandwidth and utilization structure.

Complements the dynamic simulation with the closed-form numbers a NoC
architect checks first: zero-load latencies under XY routing, the mesh
diameter, bisection bandwidth, a saturation estimate for uniform
traffic, and post-run link-utilization summaries (including an ASCII
heatmap of a plane).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .mesh import Mesh2D
from .routing import hop_count

Coord = Tuple[int, int]


def zero_load_latency(src: Coord, dst: Coord, payload_flits: int,
                      router_latency: int = 2) -> int:
    """Uncontended wormhole latency of one packet (cycles)."""
    hops = hop_count(src, dst)
    if hops == 0:
        return router_latency
    return hops * router_latency + payload_flits + 1


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


@dataclass(frozen=True)
class LinkUtilization:
    src: Coord
    dst: Coord
    plane: str
    flits: int
    utilization: float


def link_utilizations(mesh: Mesh2D, plane: str,
                      elapsed: Optional[int] = None
                      ) -> List[LinkUtilization]:
    """Per-link utilization on one plane, busiest first.

    Every link of the plane is listed, a link no route has reached as
    idle; ties keep the mesh's canonical link order.
    """
    if plane not in mesh.planes:
        raise ValueError(f"unknown plane {plane!r}")
    out = []
    for (src, dst, link_plane), link in mesh.link_slots():
        if link_plane != plane:
            continue
        idle = link is None
        out.append(LinkUtilization(
            src=src, dst=dst, plane=plane,
            flits=0 if idle else link.flits_carried,
            utilization=0.0 if idle else link.utilization(elapsed)))
    out.sort(key=lambda l: l.flits, reverse=True)
    return out


def utilization_heatmap(mesh: Mesh2D, plane: str,
                        elapsed: Optional[int] = None) -> str:
    """ASCII heatmap: per-tile total flits forwarded on ``plane``.

    Each cell aggregates the flits of the links *leaving* that tile —
    a quick view of where traffic concentrates.
    """
    per_tile: Dict[Coord, int] = {c: 0 for c in mesh.coords()}
    for util in link_utilizations(mesh, plane, elapsed):
        per_tile[util.src] += util.flits
    peak = max(per_tile.values()) or 1
    shades = " .:-=+*#%@"
    lines = [f"plane {plane}: flits forwarded per tile "
             f"(peak {peak:,})"]
    for y in range(mesh.rows):
        row = []
        for x in range(mesh.cols):
            frac = per_tile[(x, y)] / peak
            shade = shades[min(len(shades) - 1,
                               int(frac * (len(shades) - 1) + 0.5))]
            row.append(shade * 3)
        lines.append("|" + "|".join(row) + "|")
    return "\n".join(lines)
