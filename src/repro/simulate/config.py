"""Generator configuration: system catalogue and ground-truth effect sizes.

The public LANL dataset is not redistributable inside this repository, so
the toolkit ships a *generative model* of it.  Every parameter that
encodes a paper finding is defined here, next to a comment quoting the
finding it comes from; EXPERIMENTS.md records how well the analyses
recover each injected effect.

Two levels of configuration exist:

* :class:`SystemSpec` -- the static description of one system (node
  count, hardware group, which auxiliary logs it has).  The
  :data:`LANL_SYSTEMS` catalogue mirrors the 10 systems the paper uses,
  plus system 8 (which contributes only usage data in the paper).
* :class:`EffectSizes` -- every injected statistical effect: baseline
  hazard rates, category mixes, cascade matrices, stressor-event rates
  and boost factors, node-0 multipliers, usage coupling, neutron
  coupling.  Defaults reproduce the paper's shape; tests scale them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..records.dataset import HardwareGroup
from ..records.taxonomy import (
    Category,
    EnvironmentSubtype,
    HardwareSubtype,
    NetworkSubtype,
    SoftwareSubtype,
)


class ConfigError(ValueError):
    """Raised on invalid generator configuration."""


#: Order in which categories index cascade matrices and hazard arrays.
CATEGORY_ORDER: tuple[Category, ...] = (
    Category.ENVIRONMENT,
    Category.HARDWARE,
    Category.HUMAN,
    Category.NETWORK,
    Category.SOFTWARE,
    Category.UNDETERMINED,
)
CATEGORY_INDEX: dict[Category, int] = {c: i for i, c in enumerate(CATEGORY_ORDER)}
N_CATEGORIES = len(CATEGORY_ORDER)


@dataclass(frozen=True, slots=True)
class SystemSpec:
    """Static description of one simulated system.

    Attributes:
        system_id: LANL-style identifier.
        group: hardware group.
        num_nodes: node count.
        processors_per_node: processors per node (4 for group-1 SMPs,
            128 for group-2 NUMA boxes).
        has_usage: whether a job log is generated (systems 8 and 20).
        has_temperature: whether sensor readings are generated (system 20).
        has_layout: whether a machine layout file exists (group-1).
        nodes_per_rack: rack fill used when a layout is generated.
    """

    system_id: int
    group: HardwareGroup
    num_nodes: int
    processors_per_node: int
    has_usage: bool = False
    has_temperature: bool = False
    has_layout: bool = False
    nodes_per_rack: int = 5

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.processors_per_node < 1:
            raise ConfigError(
                f"processors_per_node must be >= 1, got {self.processors_per_node}"
            )
        if not (1 <= self.nodes_per_rack <= 5):
            raise ConfigError(
                f"nodes_per_rack must be in [1, 5], got {self.nodes_per_rack}"
            )

    def scaled(self, scale: float) -> "SystemSpec":
        """A copy with node count scaled by ``scale`` (minimum 2 nodes).

        Used to produce laptop-sized archives for tests and quick runs.
        """
        if not (math.isfinite(scale) and scale > 0):
            raise ConfigError(f"scale must be positive and finite, got {scale}")
        return replace(self, num_nodes=max(2, round(self.num_nodes * scale)))


#: The LANL systems of the paper.  Group-1 (seven 4-way SMP systems,
#: 2848 nodes / 11392 processors total; web-page IDs 3, 4, 5, 6, 18, 19,
#: 20 -- the paper states systems 18 and 19 have 1024 nodes and system 20
#: has 512).  Group-2 (three NUMA systems, 70 nodes / 8744 processors;
#: IDs 2, 16, 23); system 2 is the largest and carries the richest power
#: data (Figure 12).  System 8 is included because the paper's usage
#: analysis (Sections V, VI) relies on its job log.
LANL_SYSTEMS: tuple[SystemSpec, ...] = (
    SystemSpec(2, HardwareGroup.GROUP2, 49, 128),
    SystemSpec(3, HardwareGroup.GROUP1, 128, 4, has_layout=True),
    SystemSpec(4, HardwareGroup.GROUP1, 64, 4, has_layout=True),
    SystemSpec(5, HardwareGroup.GROUP1, 64, 4, has_layout=True),
    SystemSpec(6, HardwareGroup.GROUP1, 32, 4, has_layout=True),
    SystemSpec(8, HardwareGroup.GROUP1, 164, 4, has_usage=True, has_layout=True),
    SystemSpec(16, HardwareGroup.GROUP2, 16, 128),
    SystemSpec(18, HardwareGroup.GROUP1, 1024, 4, has_layout=True),
    SystemSpec(19, HardwareGroup.GROUP1, 1024, 4, has_layout=True),
    SystemSpec(
        20,
        HardwareGroup.GROUP1,
        512,
        4,
        has_usage=True,
        has_temperature=True,
        has_layout=True,
    ),
    SystemSpec(23, HardwareGroup.GROUP2, 5, 128),
)

#: System IDs used by specific paper figures.
FIG4_SYSTEMS = (18, 19, 20)        # largest node counts
USAGE_SYSTEMS = (8, 20)            # systems with job logs
TEMPERATURE_SYSTEM = 20            # system with sensor data
POWER_LAYOUT_SYSTEM = 2            # Figure 12's system
COSMIC_SYSTEMS = (2, 18, 19, 20)   # Figure 14's systems


def _default_category_mix_g1() -> dict[Category, float]:
    # "60% of all failures are attributed to hardware problems"
    # (Section III-A.4).  The *organic* mix runs hardware-heavier than
    # the 60% target because the other categories are amplified on top
    # of it: ENV gains the injected power-event records, NET/SW gain
    # node 0's login-node skew, and ENV/NET/SW all self-amplify through
    # larger same-type cascade rows.  The measured overall shares land
    # near 60/13/5/5/4/12 (HW/SW/NET/ENV/HUMAN/UNDET).
    return {
        Category.HARDWARE: 0.70,
        Category.SOFTWARE: 0.12,
        Category.NETWORK: 0.03,
        Category.ENVIRONMENT: 0.015,
        Category.HUMAN: 0.045,
        Category.UNDETERMINED: 0.09,
    }


def _default_hw_subtype_mix() -> dict[HardwareSubtype, float]:
    # "20% of hardware failures are attributed to memory and 40% are
    # attributed to CPU" (Section III-A.4).
    return {
        HardwareSubtype.CPU: 0.40,
        HardwareSubtype.MEMORY: 0.20,
        HardwareSubtype.NODE_BOARD: 0.09,
        HardwareSubtype.POWER_SUPPLY: 0.08,
        HardwareSubtype.FAN: 0.06,
        HardwareSubtype.DISK: 0.07,
        HardwareSubtype.NIC: 0.04,
        HardwareSubtype.MSC_BOARD: 0.02,
        HardwareSubtype.MIDPLANE: 0.01,
        HardwareSubtype.OTHER_HW: 0.03,
    }


def _default_sw_subtype_mix() -> dict[SoftwareSubtype, float]:
    # Baseline software mix; power events shift it toward storage
    # (DST/PFS/CFS), reproducing Figure 11 (right).
    return {
        SoftwareSubtype.OS: 0.32,
        SoftwareSubtype.DST: 0.18,
        SoftwareSubtype.PFS: 0.08,
        SoftwareSubtype.CFS: 0.05,
        SoftwareSubtype.PATCH_INSTALL: 0.12,
        SoftwareSubtype.OTHER_SW: 0.25,
    }


def _default_env_subtype_mix() -> dict[EnvironmentSubtype, float]:
    # Figure 9: power outage 49%, power spike 21%, UPS 15%, chillers 9%,
    # other environment 6%.  Organic ENV failures use the non-power
    # remainder; the injected power/chiller event processes are tuned so
    # the *overall* ENV breakdown lands near Figure 9.
    return {
        EnvironmentSubtype.POWER_OUTAGE: 0.49,
        EnvironmentSubtype.POWER_SPIKE: 0.21,
        EnvironmentSubtype.UPS: 0.15,
        EnvironmentSubtype.CHILLER: 0.09,
        EnvironmentSubtype.OTHER_ENV: 0.06,
    }


def _default_net_subtype_mix() -> dict[NetworkSubtype, float]:
    return {
        NetworkSubtype.SWITCH: 0.40,
        NetworkSubtype.CABLE: 0.20,
        NetworkSubtype.NIC_SW: 0.20,
        NetworkSubtype.OTHER_NET: 0.20,
    }


def _default_same_node_cascade() -> list[list[float]]:
    """Same-node cascade matrix A[trigger][target], category order.

    ``A[i][j]`` is the additive daily-hazard boost (decaying with
    :attr:`EffectSizes.cascade_decay_days`) that a failure of category i
    leaves on the *same node's* category-j hazard.  Calibrated for the
    paper's Section III-A findings: every type raises follow-up
    probability (7-10X weekly in group-1), diagonals dominate ("a failure
    always significantly increases the probability of a follow-up failure
    of the same type"), and ENV/NET/SW are cross-linked ("significant
    correlations between network, environmental and software problems").
    """
    # Calibration sketch (group-1, decay tau = 5 days): a row sum R adds
    # an expected R * tau * (1 - e^(-7/5)) ~ R * 3.77 follow-ups in the
    # next week, i.e. P(follow-up) ~ 1 - exp(-3.77 R).  The paper's
    # weekly conditionals (Fig. 1a: ~47% after ENV, 30-50% after NET,
    # ~15% after HW/SW) then give row sums of ~0.08-0.10 for ENV/NET and
    # ~0.04 for HW/SW; power-event stressor boosts add the rest of the
    # ENV effect.  Branching (row sum x tau) stays well below 1.
    #        ENV      HW      HUMAN    NET     SW      UNDET
    return [
        [0.0450, 0.0040, 0.0005, 0.0100, 0.0060, 0.0020],  # after ENV
        [0.0010, 0.0280, 0.0005, 0.0015, 0.0030, 0.0020],  # after HW
        [0.0005, 0.0030, 0.0200, 0.0010, 0.0030, 0.0010],  # after HUMAN
        [0.0060, 0.0120, 0.0005, 0.0560, 0.0140, 0.0020],  # after NET
        [0.0030, 0.0070, 0.0005, 0.0050, 0.0250, 0.0020],  # after SW
        [0.0010, 0.0060, 0.0005, 0.0010, 0.0040, 0.0120],  # after UNDET
    ]


def _default_same_rack_cascade() -> list[list[float]]:
    """Same-rack cascade matrix (boost applied to rack *neighbours*).

    Roughly an order of magnitude below the same-node matrix, matching
    Section III-B's 1.4-3X rack-level factors vs 7-10X node-level ones;
    diagonals still dominate (Figure 2(b): up to 170X for ENV, ~10X SW).
    """
    #        ENV      HW       HUMAN    NET      SW       UNDET
    return [
        [0.0025, 0.0006, 0.0000, 0.0004, 0.0006, 0.0002],  # after ENV
        [0.0000, 0.0010, 0.0000, 0.0001, 0.0002, 0.0001],  # after HW
        [0.0000, 0.0001, 0.0002, 0.0000, 0.0001, 0.0000],  # after HUMAN
        [0.0004, 0.0004, 0.0000, 0.0020, 0.0005, 0.0001],  # after NET
        [0.0002, 0.0003, 0.0000, 0.0003, 0.0020, 0.0001],  # after SW
        [0.0000, 0.0002, 0.0000, 0.0000, 0.0002, 0.0004],  # after UNDET
    ]


def _default_same_system_cascade() -> list[list[float]]:
    """Same-system cascade matrix, in SYSTEM-WIDE TOTAL hazard units.

    Unlike the node/rack matrices (per-node additive hazards), each entry
    here is the *total* additive hazard spread across all nodes of the
    system: the engine divides by the node count.  This keeps the
    per-failure branching factor independent of system size -- a 1024-node
    system must not amplify each failure into more expected follow-ups
    than a 32-node one, or the process goes supercritical.

    Kept deliberately small: Section III-C finds the weekly probability
    rises only from 2.04% to 2.68% in group-1 (not significant overall),
    with software (1.27X, significant) and network the main carriers; in
    group-2 network failures give the biggest increase (3.69X).  Most of
    the *observed* system-level correlation comes from shared stressors
    (outage episodes hit every node at once), not from this matrix.
    """
    #        ENV     HW      HUMAN   NET     SW      UNDET
    return [
        [0.002, 0.002, 0.0, 0.003, 0.005, 0.001],  # after ENV
        [0.000, 0.008, 0.0, 0.000, 0.006, 0.002],  # after HW
        [0.000, 0.002, 0.004, 0.000, 0.004, 0.000],  # after HUMAN
        [0.002, 0.003, 0.0, 0.050, 0.010, 0.002],  # after NET
        [0.001, 0.003, 0.0, 0.006, 0.040, 0.002],  # after SW
        [0.000, 0.002, 0.0, 0.000, 0.004, 0.004],  # after UNDET
    ]


@dataclass(frozen=True)
class EffectSizes:
    """Every injected statistical effect, with paper anchors.

    All hazards are *daily per-node probabilities* unless noted.  See the
    factory functions above for the category/subtype mixes and cascade
    matrices; scalar fields are documented inline.
    """

    # --- baselines -------------------------------------------------------
    #: Organic daily node-failure hazard, group-1.  The paper measures an
    #: *overall* daily probability of 0.31%; cascades and stressors add on
    #: top of the organic part, so this sits a bit below 0.0031.
    base_daily_hazard_g1: float = 0.0021
    #: Organic daily node-failure hazard, group-2 (paper overall: 4.6%).
    base_daily_hazard_g2: float = 0.028
    #: Across-node heterogeneity: per-node lognormal sigma on the hazard.
    node_heterogeneity_sigma: float = 0.15

    # --- category and subtype mixes --------------------------------------
    category_mix: dict[Category, float] = field(
        default_factory=_default_category_mix_g1
    )
    hw_subtype_mix: dict[HardwareSubtype, float] = field(
        default_factory=_default_hw_subtype_mix
    )
    sw_subtype_mix: dict[SoftwareSubtype, float] = field(
        default_factory=_default_sw_subtype_mix
    )
    env_subtype_mix: dict[EnvironmentSubtype, float] = field(
        default_factory=_default_env_subtype_mix
    )
    net_subtype_mix: dict[NetworkSubtype, float] = field(
        default_factory=_default_net_subtype_mix
    )

    # --- cascades ---------------------------------------------------------
    same_node_cascade: list[list[float]] = field(
        default_factory=_default_same_node_cascade
    )
    same_rack_cascade: list[list[float]] = field(
        default_factory=_default_same_rack_cascade
    )
    same_system_cascade: list[list[float]] = field(
        default_factory=_default_same_system_cascade
    )
    #: e-folding time of cascade boosts, days.  Chosen so a failure's
    #: influence is strong over the following day and mostly gone after a
    #: few weeks (the paper's day factors exceed its week factors).
    cascade_decay_days: float = 5.0
    #: Group-2 cascade decay (days).  Shorter than group-1: the group-2
    #: day-after probability (21.45%) requires a large immediate boost,
    #: and keeping the *branching factor* (boost row-sum x decay time)
    #: below 1 -- i.e. each failure spawning on average less than one
    #: follow-up -- demands a fast decay.  A supercritical cascade never
    #: stabilises; the simulation would generate failures without bound.
    cascade_decay_days_g2: float = 1.5
    #: Group-2 cascade matrix scaling: NUMA nodes have higher baselines,
    #: so boosts scale up to preserve the 2-5X weekly factors.  Together
    #: with the fast group-2 decay the branching factor stays ~0.9.
    group2_cascade_scale: float = 6.0

    # --- node 0 (login/launch node; Section IV) --------------------------
    #: Per-category hazard multipliers for node 0.  Calibrated so node 0
    #: fails ~19-30X more than the average node (Figure 4), the increase
    #: is strongest for ENV/NET/SW (Figure 6), and its dominant failure
    #: mode shifts from hardware to software (Figure 5).
    node0_multipliers: dict[Category, float] = field(
        default_factory=lambda: {
            Category.ENVIRONMENT: 500.0,
            Category.HARDWARE: 8.0,
            Category.HUMAN: 1.0,
            Category.NETWORK: 210.0,
            Category.SOFTWARE: 170.0,
            Category.UNDETERMINED: 15.0,
        }
    )

    # --- power stressor events (Section VII) ------------------------------
    #: Power outages per system per year; outages cluster in "episodes"
    #: (grid instability), producing the strong same-type ENV correlation.
    power_outage_rate_per_year: float = 1.0
    #: Mean number of outages in an episode (geometric, >= 1).
    power_outage_episode_mean: float = 1.8
    #: Days over which an episode's outages spread.
    power_outage_episode_span_days: float = 6.0
    #: Fraction of the outage-exposed node pool that records an outage.
    power_outage_node_fraction: float = 0.25
    #: Cap on the outage- and chiller-exposed node pool.  Only a bounded
    #: slice of a large system records outages from one event (most nodes
    #: ride it out or are on a different feed); without the cap, big
    #: group-1 systems would swamp the Figure 9 environmental breakdown
    #: with outage records.
    power_event_pool_cap: int = 56
    #: Power spikes per system per year (hit random small node sets).
    power_spike_rate_per_year: float = 1.4
    power_spike_nodes_mean: float = 3.0
    #: UPS failures per system per year (hit whole racks).
    ups_failure_rate_per_year: float = 1.1
    #: Node-level PSU hazard per day (recorded as HW/POWERSUPPLY); some
    #: nodes have chronically weak PSUs (lognormal heterogeneity), which
    #: gives Figure 12's "only correlations within the same node".
    psu_weakness_sigma: float = 1.2

    #: Hazard boosts left on an affected node after each power event, as
    #: additive daily hardware / software hazard, decaying with
    #: :attr:`stressor_decay_days`.  Calibrated against Figure 10 (5-10X
    #: monthly HW factors) and Figure 11 (10-45X weekly SW factors, with
    #: outages and UPS failures strongest for software).
    power_hw_boost: dict[EnvironmentSubtype | HardwareSubtype, float] = field(
        default_factory=lambda: {
            EnvironmentSubtype.POWER_OUTAGE: 0.012,
            EnvironmentSubtype.POWER_SPIKE: 0.008,
            EnvironmentSubtype.UPS: 0.010,
            HardwareSubtype.POWER_SUPPLY: 0.016,
        }
    )
    power_sw_boost: dict[EnvironmentSubtype | HardwareSubtype, float] = field(
        default_factory=lambda: {
            EnvironmentSubtype.POWER_OUTAGE: 0.020,
            EnvironmentSubtype.POWER_SPIKE: 0.005,
            EnvironmentSubtype.UPS: 0.010,
            HardwareSubtype.POWER_SUPPLY: 0.004,
        }
    )
    #: Power spikes show their hardware effect "more apparent at longer
    #: timespans": their boost ramps up over this many days before
    #: decaying, instead of acting immediately.
    spike_delay_days: float = 6.0
    #: e-folding time of stressor boosts, days ("long-term" monthly
    #: effects in Figures 10/11 require slower decay than cascades).
    stressor_decay_days: float = 12.0

    #: Conditional HW-subtype mix while a *power* stressor is active:
    #: node boards, power supplies, memory and fans dominate; CPUs show
    #: "no clear signs of increased failure rates" (Figure 10 right).
    power_hw_conditional_mix: dict[HardwareSubtype, float] = field(
        default_factory=lambda: {
            HardwareSubtype.NODE_BOARD: 0.28,
            HardwareSubtype.POWER_SUPPLY: 0.26,
            HardwareSubtype.MEMORY: 0.24,
            HardwareSubtype.FAN: 0.14,
            HardwareSubtype.DISK: 0.04,
            HardwareSubtype.NIC: 0.02,
            HardwareSubtype.OTHER_HW: 0.02,
        }
    )
    #: Conditional SW-subtype mix while a power stressor is active:
    #: "the majority of the software-related outages following power
    #: issues are related to the system's distributed storage system"
    #: (Figure 11 right).
    power_sw_conditional_mix: dict[SoftwareSubtype, float] = field(
        default_factory=lambda: {
            SoftwareSubtype.DST: 0.52,
            SoftwareSubtype.PFS: 0.18,
            SoftwareSubtype.CFS: 0.12,
            SoftwareSubtype.OS: 0.08,
            SoftwareSubtype.PATCH_INSTALL: 0.02,
            SoftwareSubtype.OTHER_SW: 0.08,
        }
    )

    # --- network fabric episodes (group-2; Section III-C) -----------------
    #: Network-fabric instability episodes per group-2 system per year.
    #: NUMA machines share one interconnect: a flaky switch/fabric causes
    #: NET failures on several nodes over a few days, which is the
    #: paper's biggest system-level carrier for group-2 (Figure 3:
    #: network failures raise other nodes' failure probability 3.69X).
    net_episode_rate_per_year_g2: float = 3.5
    #: Mean NET failures per episode (geometric, >= 1).
    net_episode_events_mean: float = 4.0
    #: Days over which an episode's failures spread.
    net_episode_span_days: float = 5.0
    #: Nodes hit per episode event (capped at the system size).
    net_episode_nodes_per_event: int = 2

    # --- maintenance (Section VII-A.2) ------------------------------------
    #: Organic unscheduled hardware-maintenance events per node per year.
    #: Low: the paper reports ~90X inflation after power events relative
    #: to "a random month", implying a random-month probability well
    #: under 0.3%.
    maintenance_rate_per_year: float = 0.03
    #: Probability that an affected node needs unscheduled maintenance in
    #: the month after each power event ("around 25% ... after a power
    #: outage or spike", "8% ... after a power supply failure", "28% ...
    #: UPS").
    maintenance_prob_after: dict[EnvironmentSubtype | HardwareSubtype, float] = field(
        default_factory=lambda: {
            EnvironmentSubtype.POWER_OUTAGE: 0.25,
            EnvironmentSubtype.POWER_SPIKE: 0.25,
            EnvironmentSubtype.UPS: 0.28,
            HardwareSubtype.POWER_SUPPLY: 0.08,
        }
    )

    # --- temperature (Section VIII) ----------------------------------------
    #: Chiller failures per system per year (room-level ENV/CHILLER).
    chiller_failure_rate_per_year: float = 0.55
    #: Fraction of nodes recording an outage when a chiller fails.
    chiller_node_fraction: float = 0.10
    #: Additive HW-hazard boost after a fan failure at the node itself
    #: (fan failures have "a factor of 40X increase in hardware failure
    #: rates on the day following").
    fan_hw_boost: float = 0.055
    #: Additive HW-hazard boost per node after a chiller failure (weaker:
    #: "factors of 6-9X").
    chiller_hw_boost: float = 0.018
    #: Conditional HW mix during a temperature excursion: memory, node
    #: boards, power supplies, fans, MSC boards and midplanes -- "all
    #: hardware components, except for CPUs" (Figure 13 right).
    thermal_hw_conditional_mix: dict[HardwareSubtype, float] = field(
        default_factory=lambda: {
            HardwareSubtype.MEMORY: 0.22,
            HardwareSubtype.NODE_BOARD: 0.20,
            HardwareSubtype.POWER_SUPPLY: 0.14,
            HardwareSubtype.FAN: 0.22,
            HardwareSubtype.MSC_BOARD: 0.12,
            HardwareSubtype.MIDPLANE: 0.06,
            HardwareSubtype.OTHER_HW: 0.04,
        }
    )
    #: Mean ambient temperature (C) and noise for the sensor series; the
    #: *average* temperature has no injected effect on failures, matching
    #: the paper's (and [3]'s) null result.
    temp_baseline_mean_c: float = 28.0
    temp_baseline_spread_c: float = 3.0
    temp_diurnal_amplitude_c: float = 1.5
    temp_noise_c: float = 0.8
    #: Peak added degrees during a fan/chiller excursion.
    temp_excursion_c: float = 18.0
    #: Excursion length in days.
    temp_excursion_days: float = 0.3
    #: Sensor sampling interval in days.
    temp_sample_interval_days: float = 2.0

    # --- usage coupling (Sections V, VI, X) --------------------------------
    #: Log-hazard term per job *dispatched* to the node that day (the
    #: usage multiplier is exp(jobs_coef*jobs + util_coef*busy + risk)):
    #: scheduling/launch churn drives failures, which makes ``num_jobs``
    #: the significant positive predictor of Tables II/III.
    jobs_hazard_coef: float = 0.35
    #: Negative log-hazard utilization term (conditional on churn,
    #: longer quiet jobs are gentler), reproducing the negative
    #: significant ``util`` coefficient of Tables II/III.
    util_hazard_coef: float = -1.9
    #: Lognormal sigma of per-user workload riskiness (Section VI: some
    #: users see significantly more node failures per processor-day).
    user_risk_sigma: float = 0.7
    #: Scale of the user-risk hazard multiplier while a risky user's job
    #: runs on the node.
    user_risk_coef: float = 0.2
    #: Extra per-processor-day probability (scaled by the user's excess
    #: risk) that a job is killed by a node-attributed failure the
    #: overlap-marking misses.  Models the paper's Section VI hypothesis
    #: -- some users' access patterns make intermittent/hard errors
    #: manifest -- and gives the per-user failure-rate skew that the
    #: saturated-vs-common-rate ANOVA detects.
    user_extra_fail_coef: float = 0.008

    #: Probability that an organic hardware failure repeats the node's
    #: previous hardware subtype instead of drawing fresh from the mix.
    #: This models *hard* errors (a bad DIMM keeps corrupting), the
    #: paper's Section III-A.4 conclusion, and produces the strong
    #: same-subtype MEM/CPU correlations (~100X weekly for memory).
    hw_subtype_repeat_prob: float = 0.65
    #: Probability that an organic/cascade-source SOFTWARE failure repeats
    #: the node's previous software subtype.  Without it, second-generation
    #: cascade follow-ups of power-induced storage failures would re-draw
    #: the OS-heavy organic mix and dilute the Figure 11 (right) finding
    #: that storage (DST/PFS/CFS) dominates post-power software outages.
    sw_subtype_repeat_prob: float = 0.5
    #: Probability that an organic ENVIRONMENT failure repeats the node's
    #: previous environmental subtype (e.g. a follow-up outage after an
    #: outage) instead of being labelled "other environment".  Keeps the
    #: Figure 9 breakdown dominated by power subtypes, as at LANL.
    env_subtype_repeat_prob: float = 0.85

    # --- system lifecycle ----------------------------------------------------
    #: Organic-hazard multiplier at day 0 of the system's life, decaying
    #: exponentially with :attr:`infant_period_days`.  Models the
    #: infant-mortality / burn-in phase large-scale studies report for
    #: young systems (early hardware weeding plus immature software
    #: stacks); an extension beyond the paper, analysed by
    #: :mod:`repro.core.lifecycle`.
    infant_mortality_factor: float = 2.5
    #: e-folding time of the infant-mortality excess, days.
    infant_period_days: float = 90.0

    # --- cosmic rays (Section IX) ------------------------------------------
    #: Exponent coupling relative neutron flux to the CPU hazard
    #: (positive correlation in Figure 14 right); DRAM coupling is zero
    #: ("months with higher neutron rates are not associated with higher
    #: rates of DRAM failures").
    neutron_cpu_exponent: float = 3.0
    neutron_dram_exponent: float = 0.0

    # --- downtimes ----------------------------------------------------------
    #: Lognormal (mu of log-hours, sigma) repair-time parameters per
    #: category, loosely following repair-time scales reported for LANL
    #: in prior work [12].
    downtime_lognorm: dict[Category, tuple[float, float]] = field(
        default_factory=lambda: {
            Category.ENVIRONMENT: (1.6, 1.0),
            Category.HARDWARE: (1.2, 1.1),
            Category.HUMAN: (0.7, 0.9),
            Category.NETWORK: (1.0, 1.0),
            Category.SOFTWARE: (0.9, 1.0),
            Category.UNDETERMINED: (0.8, 1.0),
        }
    )

    def __post_init__(self) -> None:
        for name, mix in (
            ("category_mix", self.category_mix),
            ("hw_subtype_mix", self.hw_subtype_mix),
            ("sw_subtype_mix", self.sw_subtype_mix),
            ("env_subtype_mix", self.env_subtype_mix),
            ("net_subtype_mix", self.net_subtype_mix),
            ("power_hw_conditional_mix", self.power_hw_conditional_mix),
            ("power_sw_conditional_mix", self.power_sw_conditional_mix),
            ("thermal_hw_conditional_mix", self.thermal_hw_conditional_mix),
        ):
            total = sum(mix.values())
            if abs(total - 1.0) > 1e-6:
                raise ConfigError(f"{name} must sum to 1, sums to {total}")
            if any(v < 0 for v in mix.values()):
                raise ConfigError(f"{name} has negative weights")
        for name, m in (
            ("same_node_cascade", self.same_node_cascade),
            ("same_rack_cascade", self.same_rack_cascade),
            ("same_system_cascade", self.same_system_cascade),
        ):
            if len(m) != N_CATEGORIES or any(len(r) != N_CATEGORIES for r in m):
                raise ConfigError(f"{name} must be {N_CATEGORIES}x{N_CATEGORIES}")
            if any(v < 0 for row in m for v in row):
                raise ConfigError(f"{name} has negative entries")
        if self.base_daily_hazard_g1 <= 0 or self.base_daily_hazard_g2 <= 0:
            raise ConfigError("base hazards must be positive")
        if self.cascade_decay_days <= 0 or self.stressor_decay_days <= 0:
            raise ConfigError("decay constants must be positive")

    def base_daily_hazard(self, group: HardwareGroup) -> float:
        """Organic daily node-failure hazard for a hardware group."""
        if group is HardwareGroup.GROUP1:
            return self.base_daily_hazard_g1
        return self.base_daily_hazard_g2

    def cascade_scale(self, group: HardwareGroup) -> float:
        """Cascade-boost scaling for a hardware group."""
        if group is HardwareGroup.GROUP1:
            return 1.0
        return self.group2_cascade_scale

    def cascade_decay(self, group: HardwareGroup) -> float:
        """Cascade e-folding time (days) for a hardware group."""
        if group is HardwareGroup.GROUP1:
            return self.cascade_decay_days
        return self.cascade_decay_days_g2


@dataclass(frozen=True)
class ArchiveConfig:
    """Top-level generator configuration.

    Attributes:
        seed: root RNG seed; archives are bit-reproducible given it.
        years: simulated observation length (the LANL data spans ~9).
        scale: node-count scale factor applied to every system spec
            (1.0 = full LANL size; tests use much smaller values).
        systems: system catalogue to generate; defaults to the LANL one.
        effects: injected effect sizes.
        jobs_per_node_per_year: usage-log density for systems with job
            logs.  ~330 reproduces system 20's 477k jobs at full scale;
            the default keeps quick runs fast while preserving shape.
        num_users: user population for usage systems (paper: >400).
        neutron_sample_interval_days: sampling interval of the generated
            neutron series (the real feed is 1-minute; monthly averages
            are what the analysis consumes).
    """

    seed: int = 0
    years: float = 9.0
    scale: float = 1.0
    systems: tuple[SystemSpec, ...] = LANL_SYSTEMS
    effects: EffectSizes = field(default_factory=EffectSizes)
    jobs_per_node_per_year: float = 120.0
    num_users: int = 450
    neutron_sample_interval_days: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.years) and self.years > 0):
            raise ConfigError(f"years must be positive and finite, got {self.years}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigError(f"scale must be positive and finite, got {self.scale}")
        if not self.systems:
            raise ConfigError("at least one system spec is required")
        if len({s.system_id for s in self.systems}) != len(self.systems):
            raise ConfigError("duplicate system ids in catalogue")
        if self.jobs_per_node_per_year < 0:
            raise ConfigError("jobs_per_node_per_year must be >= 0")
        if self.num_users < 1:
            raise ConfigError("num_users must be >= 1")
        if self.neutron_sample_interval_days <= 0:
            raise ConfigError("neutron_sample_interval_days must be positive")

    @property
    def duration_days(self) -> float:
        """Observation length in days."""
        return self.years * 365.25

    def scaled_systems(self) -> tuple[SystemSpec, ...]:
        """The catalogue with the scale factor applied."""
        if self.scale == 1.0:
            return self.systems
        return tuple(s.scaled(self.scale) for s in self.systems)


def small_config(seed: int = 0, years: float = 3.0, scale: float = 0.05) -> ArchiveConfig:
    """A laptop-sized configuration used by tests and the quickstart.

    Scales the LANL catalogue down to a few percent of its node count and
    a shorter period while keeping all injected effects identical.
    """
    return ArchiveConfig(seed=seed, years=years, scale=scale)
