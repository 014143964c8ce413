"""Failure and maintenance record types.

A :class:`FailureRecord` corresponds to one row of the LANL node-outage
logs: a node went down, at a given time, for a given root cause.  A
:class:`MaintenanceRecord` captures unscheduled maintenance events, which
the paper analyses in Section VII-A.2 (power problems inflate unscheduled
hardware maintenance by factors of 30-100X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .taxonomy import (
    Category,
    Subtype,
    TaxonomyError,
    category_of,
    validate_pair,
)


class RecordError(ValueError):
    """Raised when a record is internally inconsistent."""


@dataclass(frozen=True, slots=True, order=True)
class FailureRecord:
    """One node outage.

    Ordering is by ``(time, system_id, node_id)`` so sorted record lists
    are chronological, which the window-probability engine relies on.

    Attributes:
        time: outage start, in days since the system's observation start.
        system_id: LANL-style numeric system identifier (e.g. 20).
        node_id: node identifier within the system, 0-based.
        category: high-level root cause (one of the six LANL categories).
        subtype: optional low-level root cause (e.g. MEMORY for a DIMM
            problem); must refine ``category``.
        downtime_hours: repair time in hours (0 if unknown).
    """

    time: float
    system_id: int
    node_id: int
    category: Category = field(compare=False)
    subtype: Subtype | None = field(default=None, compare=False)
    downtime_hours: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise RecordError(f"failure time must be finite, got {self.time!r}")
        if self.time < 0:
            raise RecordError(f"failure time must be >= 0, got {self.time}")
        if self.node_id < 0:
            raise RecordError(f"node_id must be >= 0, got {self.node_id}")
        if not math.isfinite(self.downtime_hours):
            raise RecordError(
                f"downtime_hours must be finite, got {self.downtime_hours!r}"
            )
        if self.downtime_hours < 0:
            raise RecordError(
                f"downtime_hours must be >= 0, got {self.downtime_hours}"
            )
        try:
            validate_pair(self.category, self.subtype)
        except TaxonomyError as exc:
            raise RecordError(str(exc)) from exc

    def matches(
        self,
        category: Category | None = None,
        subtype: Subtype | None = None,
    ) -> bool:
        """True if the record matches the given category and/or subtype filter.

        ``subtype`` filters take precedence: a subtype filter implies its
        category, so passing both a subtype and a *different* category is
        rejected.
        """
        if subtype is not None:
            if category is not None and category_of(subtype) is not category:
                raise RecordError(
                    f"subtype {subtype!r} conflicts with category {category!r}"
                )
            return self.subtype is subtype
        if category is not None:
            return self.category is category
        return True


@dataclass(frozen=True, slots=True, order=True)
class MaintenanceRecord:
    """One unscheduled maintenance event on a node.

    Attributes:
        time: event time in days since observation start.
        system_id: system identifier.
        node_id: node identifier within the system.
        hardware_related: whether the maintenance addressed a hardware
            problem (the paper's Section VII-A.2 analysis counts only
            hardware-related unscheduled maintenance).
        duration_hours: downtime caused by the maintenance.
    """

    time: float
    system_id: int
    node_id: int
    hardware_related: bool = field(default=True, compare=False)
    duration_hours: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise RecordError(
                f"maintenance time must be finite, got {self.time!r}"
            )
        if self.time < 0:
            raise RecordError(f"maintenance time must be >= 0, got {self.time}")
        if self.node_id < 0:
            raise RecordError(f"node_id must be >= 0, got {self.node_id}")
        if not math.isfinite(self.duration_hours):
            raise RecordError(
                f"duration_hours must be finite, got {self.duration_hours!r}"
            )
        if self.duration_hours < 0:
            raise RecordError(
                f"duration_hours must be >= 0, got {self.duration_hours}"
            )
