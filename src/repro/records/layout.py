"""Machine-room layout model.

Group-1 LANL systems ship "machine layout" files describing where each
node sits inside a rack and where each rack sits on the machine-room
floor.  The paper uses this for two analyses:

* same-rack failure correlations (Section III-B);
* the ``PIR`` (position-in-rack) regression variable of Table I, where
  position 1 is the bottom slot and 5 the top slot of a rack, and the
  machine-room-area hypothesis of Section IV-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

#: Rack slots are numbered 1 (bottom) .. MAX_POSITION_IN_RACK (top), per Table I.
MAX_POSITION_IN_RACK = 5


class LayoutError(ValueError):
    """Raised on inconsistent layout definitions or unknown nodes."""


@dataclass(frozen=True, slots=True)
class NodePlacement:
    """Physical placement of one node.

    Attributes:
        node_id: the node.
        rack_id: identifier of the rack holding the node.
        position_in_rack: slot inside the rack; 1 = bottom, 5 = top.
        room_x: rack's x-coordinate on the machine-room floor (grid units).
        room_y: rack's y-coordinate on the machine-room floor (grid units).
    """

    node_id: int
    rack_id: int
    position_in_rack: int
    room_x: int
    room_y: int

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise LayoutError(f"node_id must be >= 0, got {self.node_id}")
        if self.rack_id < 0:
            raise LayoutError(f"rack_id must be >= 0, got {self.rack_id}")
        if not (1 <= self.position_in_rack <= MAX_POSITION_IN_RACK):
            raise LayoutError(
                f"position_in_rack must be in [1, {MAX_POSITION_IN_RACK}], "
                f"got {self.position_in_rack}"
            )


class MachineLayout:
    """Placement of every node of one system.

    The layout is immutable after construction and indexed by node.
    """

    def __init__(self, placements: Iterable[NodePlacement]) -> None:
        self._by_node: dict[int, NodePlacement] = {}
        slots: set[tuple[int, int]] = set()
        for p in placements:
            if p.node_id in self._by_node:
                raise LayoutError(f"duplicate placement for node {p.node_id}")
            if (p.rack_id, p.position_in_rack) in slots:
                raise LayoutError(
                    f"rack {p.rack_id} has two nodes in the same slot"
                )
            self._by_node[p.node_id] = p
            slots.add((p.rack_id, p.position_in_rack))
        if not self._by_node:
            raise LayoutError("a layout must place at least one node")

    def __len__(self) -> int:
        return len(self._by_node)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._by_node

    def placement(self, node_id: int) -> NodePlacement:
        """Placement of ``node_id``; raises :class:`LayoutError` if unknown."""
        try:
            return self._by_node[node_id]
        except KeyError as exc:
            raise LayoutError(f"node {node_id} is not in the layout") from exc

    def rack_of(self, node_id: int) -> int:
        """Rack identifier holding ``node_id``."""
        return self.placement(node_id).rack_id

    def position_in_rack(self, node_id: int) -> int:
        """Table I's ``PIR`` variable for ``node_id`` (1=bottom .. 5=top)."""
        return self.placement(node_id).position_in_rack

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All placed node identifiers, sorted ascending."""
        return tuple(sorted(self._by_node))

    def room_areas(self) -> Mapping[tuple[int, int], tuple[int, ...]]:
        """Group racks by their (x, y) floor coordinates.

        Used by the Section IV-C machine-room-area analysis: it returns
        for each floor cell the node ids located there.
        """
        areas: dict[tuple[int, int], list[int]] = {}
        for p in self._by_node.values():
            areas.setdefault((p.room_x, p.room_y), []).append(p.node_id)
        return {k: tuple(sorted(v)) for k, v in areas.items()}


def regular_layout(
    num_nodes: int,
    nodes_per_rack: int = MAX_POSITION_IN_RACK,
    racks_per_row: int = 10,
) -> MachineLayout:
    """Build a regular grid layout: racks filled bottom-up, rows of racks.

    This mirrors how group-1 machine-layout files describe the floor: node
    ``i`` lands in rack ``i // nodes_per_rack`` at slot
    ``i % nodes_per_rack + 1``, and racks fill rows of ``racks_per_row``
    across the floor.
    """
    if num_nodes < 1:
        raise LayoutError(f"num_nodes must be >= 1, got {num_nodes}")
    if not (1 <= nodes_per_rack <= MAX_POSITION_IN_RACK):
        raise LayoutError(
            f"nodes_per_rack must be in [1, {MAX_POSITION_IN_RACK}], "
            f"got {nodes_per_rack}"
        )
    if racks_per_row < 1:
        raise LayoutError(f"racks_per_row must be >= 1, got {racks_per_row}")
    placements = []
    for node in range(num_nodes):
        rack = node // nodes_per_rack
        placements.append(
            NodePlacement(
                node_id=node,
                rack_id=rack,
                position_in_rack=node % nodes_per_rack + 1,
                room_x=rack % racks_per_row,
                room_y=rack // racks_per_row,
            )
        )
    return MachineLayout(placements)
