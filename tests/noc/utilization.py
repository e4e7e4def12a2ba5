"""Post-run link-utilization views of a mesh: per-link summaries and an
ASCII heatmap of one plane."""

from dataclasses import dataclass
from typing import List, Optional

from repro.noc import Coord, Mesh2D


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


def utilization_heatmap(mesh, plane: str, elapsed=None) -> str:
    """ASCII heatmap: per-tile total flits forwarded on ``plane``.

    Each cell aggregates the flits of the links *leaving* that tile —
    a quick view of where traffic concentrates.
    """
    per_tile = {c: 0 for c in mesh.coords()}
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
