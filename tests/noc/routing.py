"""XY routes as fresh lists, and the per-tile next-hop tables the ESP
SoC generator bakes into each tile's wrapper (Sec. IV)."""

from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping

from repro.noc import Coord
from repro.noc.routing import validate_coord, xy_route_cached


def xy_route(src: Coord, dst: Coord) -> List[Coord]:
    """Tile sequence from ``src`` to ``dst``: X first, then Y."""
    return list(xy_route_cached(src, dst))


def build_routing_table(tile: Coord, cols: int,
                        rows: int) -> Dict[Coord, Coord]:
    """Next-hop table for one tile: destination -> neighbour to forward to.

    This is the artifact the ESP SoC generator bakes into each tile's
    wrapper. The local tile maps to itself (ejection).
    """
    validate_coord(tile, cols, rows)
    table: Dict[Coord, Coord] = {}
    for dx in range(cols):
        for dy in range(rows):
            dst = (dx, dy)
            if dst == tile:
                table[dst] = tile
            else:
                table[dst] = xy_route(tile, dst)[1]
    return table


@lru_cache(maxsize=64)
def routing_tables(cols: int,
                   rows: int) -> Mapping[Coord, Mapping[Coord, Coord]]:
    """The next-hop table of every tile of a ``cols`` x ``rows`` mesh,
    row-major. Built once per geometry and shared read-only by every
    SoC of that geometry."""
    return MappingProxyType({
        (x, y): MappingProxyType(build_routing_table((x, y), cols, rows))
        for y in range(rows) for x in range(cols)})
