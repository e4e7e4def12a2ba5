"""Dimension-ordered (XY) routing on a 2D mesh.

ESP routes packets with deterministic XY routing; together with the
decoupled request/response planes this guarantees deadlock freedom.

Invariants
----------

Every function in this module relies on — and preserves — these
properties, which the simulation's fast paths in turn depend on:

1. **Determinism.** The route between a ``(src, dst)`` pair is a pure
   function of the pair: no randomness, no adaptivity, no dependence
   on network state. This is what makes the route caches sound
   (``route_hops_cached`` here, the per-mesh link table in
   :class:`~repro.noc.mesh.Mesh2D`): a cached route is the route,
   forever.
2. **Minimality.** The XY path has exactly
   ``|dx| + |dy| == hop_count(src, dst)`` links.
3. **Turn-model deadlock freedom.** A packet moves in X to completion
   before it moves in Y, so no route ever takes a Y→X turn. By the
   classic turn-model argument this rules out cyclic channel
   dependencies within a plane; protocol-level deadlock is ruled out
   separately by the decoupled request/response planes.

Properties 2 and 3 are machine-checked over all small meshes in
``tests/noc/test_routing.py``; property 1 is pinned by the
cache-equivalence tests in ``tests/sim/test_fastpath_equivalence.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

Coord = Tuple[int, int]
Hop = Tuple[Coord, Coord]


def validate_coord(coord: Coord, cols: int, rows: int) -> None:
    x, y = coord
    if not (0 <= x < cols and 0 <= y < rows):
        raise ValueError(
            f"coordinate {coord} outside {cols}x{rows} mesh")


@lru_cache(maxsize=4096)
def xy_route_cached(src: Coord, dst: Coord) -> Tuple[Coord, ...]:
    """The XY tile sequence as an immutable, memoized tuple.

    Routes are pure functions of ``(src, dst)`` (invariant 1 above), so
    they are computed once per pair. The cache bound comfortably covers
    every pair of the largest mesh the SoC generator emits (an 8x8 mesh
    has 4096 ordered pairs); hot pairs stay resident under LRU.
    """
    path = [src]
    x, y = src
    dst_x, dst_y = dst
    step_x = 1 if dst_x > x else -1
    while x != dst_x:
        x += step_x
        path.append((x, y))
    step_y = 1 if dst_y > y else -1
    while y != dst_y:
        y += step_y
        path.append((x, y))
    return tuple(path)


@lru_cache(maxsize=4096)
def route_hops_cached(src: Coord, dst: Coord) -> Tuple[Hop, ...]:
    """The (from, to) link hops of the XY route, memoized (immutable)."""
    path = xy_route_cached(src, dst)
    return tuple(zip(path[:-1], path[1:]))


def hop_count(src: Coord, dst: Coord) -> int:
    """Manhattan distance (number of links traversed)."""
    return abs(src[0] - dst[0]) + abs(src[1] - dst[1])
