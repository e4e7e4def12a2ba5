"""Tests for XY routing and routing-table generation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc import hop_count
from repro.noc.routing import route_hops_cached
from tests.noc.routing import build_routing_table, xy_route


def routes_are_minimal_and_deadlock_free(cols: int, rows: int) -> bool:
    """Check the XY invariants over every src/dst pair.

    XY routing is minimal, and never takes a Y->X turn, which rules out
    cyclic channel dependencies (the classic turn-model argument).
    """
    for sx in range(cols):
        for sy in range(rows):
            for dx in range(cols):
                for dy in range(rows):
                    src, dst = (sx, sy), (dx, dy)
                    path = xy_route(src, dst)
                    if len(path) - 1 != hop_count(src, dst):
                        return False
                    turned_to_y = False
                    for (ax, ay), (bx, by) in zip(path[:-1], path[1:]):
                        moving_y = ay != by
                        if turned_to_y and not moving_y:
                            return False  # illegal Y->X turn
                        if moving_y:
                            turned_to_y = True
    return True


class TestXyRoute:
    def test_straight_line_x(self):
        assert xy_route((0, 0), (3, 0)) == [(0, 0), (1, 0), (2, 0), (3, 0)]

    def test_straight_line_y(self):
        assert xy_route((1, 0), (1, 2)) == [(1, 0), (1, 1), (1, 2)]

    def test_x_before_y(self):
        path = xy_route((0, 0), (2, 2))
        assert path == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_self_route(self):
        assert xy_route((1, 1), (1, 1)) == [(1, 1)]

    def test_negative_direction(self):
        path = xy_route((2, 2), (0, 0))
        assert path[0] == (2, 2) and path[-1] == (0, 0)
        assert len(path) == 5

    def test_hops_adjacent(self):
        for a, b in route_hops_cached((0, 0), (3, 2)):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_hop_count_is_manhattan(self):
        assert hop_count((0, 0), (3, 2)) == 5


class TestInvariants:
    def test_minimal_and_deadlock_free_4x3(self):
        assert routes_are_minimal_and_deadlock_free(4, 3)

    def test_minimal_and_deadlock_free_1x1(self):
        assert routes_are_minimal_and_deadlock_free(1, 1)

    @given(cols=st.integers(1, 5), rows=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_all_small_meshes(self, cols, rows):
        assert routes_are_minimal_and_deadlock_free(cols, rows)

    @given(sx=st.integers(0, 7), sy=st.integers(0, 7),
           dx=st.integers(0, 7), dy=st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_route_length_property(self, sx, sy, dx, dy):
        path = xy_route((sx, sy), (dx, dy))
        assert len(path) == hop_count((sx, sy), (dx, dy)) + 1
        assert path[0] == (sx, sy)
        assert path[-1] == (dx, dy)


class TestRoutingTable:
    def test_next_hop_follows_xy(self):
        table = build_routing_table((0, 0), 4, 3)
        assert table[(3, 0)] == (1, 0)
        assert table[(0, 2)] == (0, 1)
        assert table[(2, 2)] == (1, 0)   # X first

    def test_local_maps_to_self(self):
        table = build_routing_table((1, 1), 3, 3)
        assert table[(1, 1)] == (1, 1)

    def test_covers_whole_mesh(self):
        table = build_routing_table((0, 0), 4, 3)
        assert len(table) == 12

    def test_invalid_tile(self):
        with pytest.raises(ValueError):
            build_routing_table((5, 0), 3, 3)

    def test_table_consistent_with_route(self):
        cols, rows = 4, 4
        for tx in range(cols):
            for ty in range(rows):
                table = build_routing_table((tx, ty), cols, rows)
                for dx in range(cols):
                    for dy in range(rows):
                        if (dx, dy) == (tx, ty):
                            continue
                        assert table[(dx, dy)] == \
                            xy_route((tx, ty), (dx, dy))[1]
