"""Unit tests for the machine-room layout model."""

import pytest

from repro.records.layout import (
    LayoutError,
    MachineLayout,
    NodePlacement,
    regular_layout,
)


def place(node, rack=0, pos=1, x=0, y=0):
    return NodePlacement(
        node_id=node, rack_id=rack, position_in_rack=pos, room_x=x, room_y=y
    )


class TestNodePlacement:
    def test_valid(self):
        p = place(0, rack=2, pos=3)
        assert p.position_in_rack == 3

    def test_rejects_bad_position(self):
        with pytest.raises(LayoutError):
            place(0, pos=0)
        with pytest.raises(LayoutError):
            place(0, pos=6)

    def test_rejects_negative_ids(self):
        with pytest.raises(LayoutError):
            place(-1)


class TestMachineLayout:
    def test_queries(self):
        layout = MachineLayout(
            [place(0, rack=0, pos=1), place(1, rack=0, pos=2), place(2, rack=1, pos=1)]
        )
        assert len(layout) == 3
        assert layout.rack_of(0) == 0
        assert layout.position_in_rack(1) == 2
        assert 1 in layout
        assert 99 not in layout

    def test_rejects_duplicate_node(self):
        with pytest.raises(LayoutError):
            MachineLayout([place(0), place(0, pos=2)])

    def test_rejects_slot_collision(self):
        with pytest.raises(LayoutError):
            MachineLayout([place(0, pos=1), place(1, pos=1)])

    def test_rejects_empty(self):
        with pytest.raises(LayoutError):
            MachineLayout([])

    def test_unknown_node_raises(self):
        layout = MachineLayout([place(0)])
        with pytest.raises(LayoutError):
            layout.placement(7)

    def test_room_areas(self):
        layout = MachineLayout(
            [place(0, rack=0, x=0, y=0), place(1, rack=1, pos=1, x=1, y=0)]
        )
        areas = layout.room_areas()
        assert areas[(0, 0)] == (0,)
        assert areas[(1, 0)] == (1,)


class TestRegularLayout:
    def test_fills_bottom_up(self):
        layout = regular_layout(7, nodes_per_rack=3)
        assert layout.rack_of(0) == 0
        assert layout.position_in_rack(0) == 1
        assert layout.position_in_rack(2) == 3
        assert layout.rack_of(3) == 1
        assert layout.rack_of(6) == 2
        assert len(layout) == 7

    def test_room_grid(self):
        layout = regular_layout(50, nodes_per_rack=5, racks_per_row=3)
        p = layout.placement(45)  # rack 9 -> row 3, column 0
        assert (p.room_x, p.room_y) == (0, 3)

    def test_rejects_invalid(self):
        with pytest.raises(LayoutError):
            regular_layout(0)
        with pytest.raises(LayoutError):
            regular_layout(10, nodes_per_rack=9)
        with pytest.raises(LayoutError):
            regular_layout(10, racks_per_row=0)
