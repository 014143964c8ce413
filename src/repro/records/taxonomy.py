"""Root-cause taxonomy for LANL-style failure records.

The LANL data classifies every node outage into one of six high-level
root-cause categories (Section II of the paper): environment, hardware,
human error, network, software, and undetermined.  For many failures a
more detailed low-level root cause is recorded as well -- e.g. which
hardware component failed (memory DIMM, CPU, node board, power supply,
fan, ...) or which software subsystem was responsible (distributed
storage, parallel file system, OS, ...).

This module is the single source of truth for that taxonomy.  Every other
module refers to categories and subtypes through the enums defined here,
so the taxonomy cannot drift between the generator, the analysis layer
and the I/O layer.
"""

from __future__ import annotations

import enum


class Category(enum.Enum):
    """High-level root-cause category of a node outage.

    Values are the tokens used in the on-disk CSV format; they mirror the
    labels used in the paper's figures (ENV, HW, HUMAN, NET, SW, UNDET).
    """

    ENVIRONMENT = "ENV"
    HARDWARE = "HW"
    HUMAN = "HUMAN"
    NETWORK = "NET"
    SOFTWARE = "SW"
    UNDETERMINED = "UNDET"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class HardwareSubtype(enum.Enum):
    """Low-level root cause for hardware failures.

    The paper reports that 20% of hardware failures are attributed to
    memory and 40% to CPU (Section III-A.4), and analyses the per-component
    impact of power and temperature events for the components below
    (Figures 10, 13).
    """

    MEMORY = "MEM"          # memory DIMM
    CPU = "CPU"
    NODE_BOARD = "NODEBOARD"
    POWER_SUPPLY = "POWERSUPPLY"
    FAN = "FAN"
    MSC_BOARD = "MSCBOARD"
    MIDPLANE = "MIDPLANE"
    DISK = "DISK"
    NIC = "NIC"
    OTHER_HW = "OTHERHW"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class SoftwareSubtype(enum.Enum):
    """Low-level root cause for software failures.

    Figure 11 (right) breaks software failures following power problems
    into distributed storage (DST), other software, patch installation,
    operating system, parallel file system (PFS) and cluster file system
    (CFS) issues.
    """

    DST = "DST"             # distributed storage system
    PFS = "PFS"             # parallel file system
    CFS = "CFS"             # cluster file system
    OS = "OS"
    PATCH_INSTALL = "PATCHINSTL"
    OTHER_SW = "OTHERSW"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class EnvironmentSubtype(enum.Enum):
    """Low-level root cause for environmental failures.

    Figure 9 gives the breakdown of environmental failures observed at
    LANL: power outages (49%), power spikes (21%), UPS failures (15%),
    chiller failures (9%) and other environment issues (6%).
    """

    POWER_OUTAGE = "POWEROUTAGE"
    POWER_SPIKE = "POWERSPIKE"
    UPS = "UPS"
    CHILLER = "CHILLER"
    OTHER_ENV = "OTHERENV"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class NetworkSubtype(enum.Enum):
    """Low-level root cause for network failures."""

    SWITCH = "SWITCH"
    CABLE = "CABLE"
    NIC_SW = "NICSW"
    OTHER_NET = "OTHERNET"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


Subtype = HardwareSubtype | SoftwareSubtype | EnvironmentSubtype | NetworkSubtype
"""Union of all low-level subtype enums."""

#: Map from high-level category to the subtype enum that refines it.
#: HUMAN and UNDETERMINED failures carry no structured subtype in the data.
SUBTYPES_BY_CATEGORY: dict[Category, type[enum.Enum] | None] = {
    Category.ENVIRONMENT: EnvironmentSubtype,
    Category.HARDWARE: HardwareSubtype,
    Category.SOFTWARE: SoftwareSubtype,
    Category.NETWORK: NetworkSubtype,
    Category.HUMAN: None,
    Category.UNDETERMINED: None,
}

#: Subtypes that identify a *power problem* in the paper's Section VII
#: analysis: power outages, power spikes and UPS failures (recorded under
#: environmental failures) plus power-supply-unit failures (recorded under
#: hardware failures).
POWER_PROBLEM_SUBTYPES: frozenset[enum.Enum] = frozenset(
    {
        EnvironmentSubtype.POWER_OUTAGE,
        EnvironmentSubtype.POWER_SPIKE,
        EnvironmentSubtype.UPS,
        HardwareSubtype.POWER_SUPPLY,
    }
)

#: Subtypes whose failure causes a temporary temperature excursion in the
#: affected node(s) (Section VIII-B): node-local fans and room chillers.
TEMPERATURE_PROBLEM_SUBTYPES: frozenset[enum.Enum] = frozenset(
    {HardwareSubtype.FAN, EnvironmentSubtype.CHILLER}
)

_SUBTYPE_BY_TOKEN: dict[str, Subtype] = {}
for _enum in (HardwareSubtype, SoftwareSubtype, EnvironmentSubtype, NetworkSubtype):
    for _member in _enum:
        if _member.value in _SUBTYPE_BY_TOKEN:  # pragma: no cover - guard
            raise RuntimeError(f"duplicate subtype token {_member.value!r}")
        _SUBTYPE_BY_TOKEN[_member.value] = _member


class TaxonomyError(ValueError):
    """Raised when a category/subtype token or combination is invalid."""


def parse_category(token: str) -> Category:
    """Parse a high-level category token (e.g. ``"HW"``) into a Category.

    Raises :class:`TaxonomyError` on unknown tokens.
    """
    try:
        return Category(token.strip().upper())
    except ValueError as exc:
        raise TaxonomyError(f"unknown failure category {token!r}") from exc


def parse_subtype(token: str) -> Subtype:
    """Parse a low-level subtype token (e.g. ``"MEM"``) into its enum.

    Raises :class:`TaxonomyError` on unknown tokens.
    """
    member = _SUBTYPE_BY_TOKEN.get(token.strip().upper())
    if member is None:
        raise TaxonomyError(f"unknown failure subtype {token!r}")
    return member


def category_of(subtype: Subtype) -> Category:
    """Return the high-level category that a subtype belongs to."""
    if isinstance(subtype, HardwareSubtype):
        return Category.HARDWARE
    if isinstance(subtype, SoftwareSubtype):
        return Category.SOFTWARE
    if isinstance(subtype, EnvironmentSubtype):
        return Category.ENVIRONMENT
    if isinstance(subtype, NetworkSubtype):
        return Category.NETWORK
    raise TaxonomyError(f"object {subtype!r} is not a known subtype")


def validate_pair(category: Category, subtype: Subtype | None) -> None:
    """Check that ``subtype`` is a legal refinement of ``category``.

    ``subtype=None`` is always legal (the data frequently lacks low-level
    root causes).  Raises :class:`TaxonomyError` on an illegal pairing,
    e.g. a MEMORY subtype on a SOFTWARE failure.
    """
    if subtype is None:
        return
    expected = SUBTYPES_BY_CATEGORY[category]
    if expected is None:
        raise TaxonomyError(
            f"category {category.value} does not admit subtypes, got {subtype!r}"
        )
    if not isinstance(subtype, expected):
        raise TaxonomyError(
            f"subtype {subtype!r} does not belong to category {category.value}"
        )


def all_categories() -> tuple[Category, ...]:
    """All six high-level categories, in the paper's figure order."""
    return (
        Category.ENVIRONMENT,
        Category.HARDWARE,
        Category.HUMAN,
        Category.NETWORK,
        Category.UNDETERMINED,
        Category.SOFTWARE,
    )


def all_subtypes() -> tuple[Subtype, ...]:
    """Every low-level subtype across all categories."""
    return tuple(_SUBTYPE_BY_TOKEN.values())


def is_power_problem(subtype: Subtype | None) -> bool:
    """True if the subtype denotes one of the four power problems of Sec. VII."""
    return subtype in POWER_PROBLEM_SUBTYPES


def is_temperature_problem(subtype: Subtype | None) -> bool:
    """True if the subtype denotes a fan or chiller failure (Sec. VIII-B)."""
    return subtype in TEMPERATURE_PROBLEM_SUBTYPES


#: Human-readable label of every category and subtype.
_LABELS: dict[enum.Enum, str] = {
    Category.ENVIRONMENT: "Environment",
    Category.HARDWARE: "Hardware",
    Category.HUMAN: "Human error",
    Category.NETWORK: "Network",
    Category.SOFTWARE: "Software",
    Category.UNDETERMINED: "Undetermined",
    HardwareSubtype.MEMORY: "Memory DIMM",
    HardwareSubtype.CPU: "CPU",
    HardwareSubtype.NODE_BOARD: "Node board",
    HardwareSubtype.POWER_SUPPLY: "Power supply",
    HardwareSubtype.FAN: "Fan",
    HardwareSubtype.MSC_BOARD: "MSC board",
    HardwareSubtype.MIDPLANE: "Midplane",
    HardwareSubtype.DISK: "Disk",
    HardwareSubtype.NIC: "NIC",
    HardwareSubtype.OTHER_HW: "Other hardware",
    SoftwareSubtype.DST: "Distributed storage (DST)",
    SoftwareSubtype.PFS: "Parallel file system (PFS)",
    SoftwareSubtype.CFS: "Cluster file system (CFS)",
    SoftwareSubtype.OS: "Operating system",
    SoftwareSubtype.PATCH_INSTALL: "Patch installation",
    SoftwareSubtype.OTHER_SW: "Other software",
    EnvironmentSubtype.POWER_OUTAGE: "Power outage",
    EnvironmentSubtype.POWER_SPIKE: "Power spike",
    EnvironmentSubtype.UPS: "UPS",
    EnvironmentSubtype.CHILLER: "Chillers",
    EnvironmentSubtype.OTHER_ENV: "Other environment",
    NetworkSubtype.SWITCH: "Network switch",
    NetworkSubtype.CABLE: "Network cable",
    NetworkSubtype.NIC_SW: "NIC software",
    NetworkSubtype.OTHER_NET: "Other network",
}


def format_label(kind: "Category | Subtype") -> str:
    """Human-readable label used in rendered tables and figures."""
    try:
        return _LABELS[kind]
    except KeyError as exc:  # pragma: no cover - guard
        raise TaxonomyError(f"no label for {kind!r}") from exc
