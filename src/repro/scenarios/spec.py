"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes one complete simulated deployment — who
offloads (user count and device mix), how the load arrives (arrival pattern),
what serves it (acceleration groups, instance catalog and pricing), over which
network, and which prediction/promotion/routing policies govern the adaptive
model — as plain data.  The scenario runner
(:func:`repro.scenarios.runner.run_scenario`) turns a spec into a full
discrete-event simulation without any hand-written experiment module, so new
workloads beyond the paper's eight fixed figure experiments are one spec away.

All spec classes are frozen dataclasses of plain values: they validate on
construction, round-trip through :meth:`ScenarioSpec.to_dict` /
:meth:`ScenarioSpec.from_dict`, and pickle cleanly across the campaign
runner's worker processes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

from repro.cloud.catalog import DEFAULT_CATALOG
from repro.mobile.device import DEVICE_PROFILES
from repro.mobile.tasks import DEFAULT_TASK_POOL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (multisite uses our specs)
    from repro.faults.spec import FaultSpec
    from repro.multisite.spec import MultiSiteSpec

#: Supported arrival patterns (see :class:`WorkloadSpec`).
ARRIVAL_PATTERNS = ("uniform", "poisson", "fixed", "flash-crowd", "diurnal", "bursty")

#: Supported access-network profiles (see :class:`NetworkSpec`).
NETWORK_PROFILES = ("lte", "3g", "degraded-3g", "constant")

#: Supported promotion policies (see :class:`PolicySpec`).
PROMOTION_POLICIES = ("static", "threshold", "battery")

#: Supported front-end routing policies (see :class:`PolicySpec`).
ROUTING_POLICIES = ("acceleration-group", "round-robin")

#: Supported predictor strategies (mirrors ``WorkloadPredictor.STRATEGIES``).
PREDICTOR_STRATEGIES = ("nearest", "successor")

#: Supported execution modes for the scenario runner.
#:
#: * ``event`` — every request hop is a discrete event on the engine (exact
#:   processor-sharing service, promotions applied at delivery time).
#: * ``batched`` — the data plane is computed per provisioning slot as numpy
#:   arrays from the same pre-drawn request plan; the control plane
#:   (prediction, allocation, autoscaling) still runs at the same slot
#:   boundaries.  ~10-40x faster; see ``repro.scenarios.batched`` for the
#:   documented approximations.
EXECUTION_MODES = ("event", "batched")

#: The Section VI-C acceleration groups used when a spec does not override them.
DEFAULT_GROUP_TYPES: Dict[int, str] = {1: "t2.nano", 2: "t2.large", 3: "m4.4xlarge"}


@dataclass(frozen=True)
class WorkloadSpec:
    """How offloading requests arrive over the run.

    ``target_requests`` calibrates the base arrival rate so every pattern
    produces roughly that many requests over the scenario duration; the
    pattern then shapes the rate over time:

    * ``uniform`` — gaps uniform in ``[0.5, 1.5] ×`` the mean gap (the
      paper's Section VI-C driver).
    * ``poisson`` — homogeneous Poisson arrivals.
    * ``fixed`` — deterministic constant-rate arrivals.
    * ``flash-crowd`` — Poisson with one ``burst_factor``× rate spike in the
      window ``[burst_start, burst_start + burst_duration]`` (fractions of
      the run).
    * ``diurnal`` — Poisson with a sinusoidal day/night cycle peaking at
      ``peak_hour`` and bottoming out at ``trough_factor``× the peak rate.
    * ``bursty`` — Poisson with ``burst_count`` evenly spaced on/off bursts
      at ``burst_factor``× the base rate.
    """

    pattern: str = "uniform"
    target_requests: int = 800
    burst_factor: float = 4.0
    burst_start: float = 0.5
    burst_duration: float = 0.15
    burst_count: int = 4
    trough_factor: float = 0.25
    peak_hour: float = 20.0

    def __post_init__(self) -> None:
        if self.pattern not in ARRIVAL_PATTERNS:
            raise ValueError(
                f"pattern must be one of {ARRIVAL_PATTERNS}, got {self.pattern!r}"
            )
        if self.target_requests < 1:
            raise ValueError(
                f"target_requests must be >= 1, got {self.target_requests}"
            )
        if self.burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1.0, got {self.burst_factor}")
        if not 0.0 <= self.burst_start <= 1.0:
            raise ValueError(f"burst_start must be in [0, 1], got {self.burst_start}")
        if not 0.0 < self.burst_duration <= 1.0:
            raise ValueError(
                f"burst_duration must be in (0, 1], got {self.burst_duration}"
            )
        if self.burst_count < 1:
            raise ValueError(f"burst_count must be >= 1, got {self.burst_count}")
        if not 0.0 < self.trough_factor <= 1.0:
            raise ValueError(
                f"trough_factor must be in (0, 1], got {self.trough_factor}"
            )
        if not 0.0 <= self.peak_hour < 24.0:
            raise ValueError(f"peak_hour must be in [0, 24), got {self.peak_hour}")


@dataclass(frozen=True)
class DeviceMixSpec:
    """The device fleet: relative weight of each hardware profile.

    Profiles are sampled per user with probability proportional to weight;
    names must exist in :data:`repro.mobile.device.DEVICE_PROFILES`.
    """

    weights: Mapping[str, float] = field(
        default_factory=lambda: {name: 1.0 for name in DEVICE_PROFILES}
    )

    def __post_init__(self) -> None:
        weights = dict(self.weights)
        if not weights:
            raise ValueError("device mix needs at least one profile")
        for name, weight in weights.items():
            if name not in DEVICE_PROFILES:
                raise ValueError(
                    f"unknown device profile {name!r}; known: {sorted(DEVICE_PROFILES)}"
                )
            if weight < 0:
                raise ValueError(f"weight for {name!r} must be >= 0, got {weight}")
        if sum(weights.values()) <= 0:
            raise ValueError("device mix weights must sum to a positive value")
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class CloudSpec:
    """The serving side: acceleration groups, capacity limits and pricing.

    ``price_multipliers`` scales the catalog's hourly prices per instance
    type, which lets a scenario model a price spike (the allocator then
    re-optimises the instance mix) without a separate catalog.

    ``boot_delay_ms`` models the window between launching an instance and
    the instance becoming ready: a booting instance is billed and occupies a
    cap slot immediately, but advertises no serving capacity (and no
    admission headroom) to the federation broker's live-state protocol
    until the delay elapses.  It is an accounting/routing-signal concept
    only — intra-site dispatch still serves from launch, matching the
    paper's instant-launch single-site model.
    """

    group_types: Mapping[int, str] = field(
        default_factory=lambda: dict(DEFAULT_GROUP_TYPES)
    )
    instance_cap: int = 20
    initial_instances_per_group: int = 1
    response_threshold_ms: float = 5000.0
    price_multipliers: Mapping[str, float] = field(default_factory=dict)
    boot_delay_ms: float = 0.0

    def __post_init__(self) -> None:
        group_types = {int(group): name for group, name in dict(self.group_types).items()}
        if not group_types:
            raise ValueError("cloud spec needs at least one acceleration group")
        for group, type_name in group_types.items():
            if group < 0:
                raise ValueError(f"acceleration group must be >= 0, got {group}")
            if type_name not in DEFAULT_CATALOG:
                raise ValueError(
                    f"unknown instance type {type_name!r}; "
                    f"known: {sorted(DEFAULT_CATALOG.names)}"
                )
        type_names = list(group_types.values())
        if len(set(type_names)) != len(type_names):
            # One instance type cannot serve two acceleration groups: the
            # runner maps type -> group, so duplicates would silently merge
            # groups (and the catalog rejects duplicate entries anyway).
            raise ValueError(
                f"each acceleration group needs a distinct instance type, got {group_types}"
            )
        if self.instance_cap < 1:
            raise ValueError(f"instance_cap must be >= 1, got {self.instance_cap}")
        if self.initial_instances_per_group < 1:
            raise ValueError(
                "initial_instances_per_group must be >= 1, got "
                f"{self.initial_instances_per_group}"
            )
        if self.response_threshold_ms <= 0:
            raise ValueError(
                f"response_threshold_ms must be positive, got {self.response_threshold_ms}"
            )
        if self.boot_delay_ms < 0:
            raise ValueError(
                f"boot_delay_ms must be >= 0, got {self.boot_delay_ms}"
            )
        multipliers = dict(self.price_multipliers)
        for type_name, multiplier in multipliers.items():
            if type_name not in DEFAULT_CATALOG:
                raise ValueError(
                    f"price multiplier for unknown instance type {type_name!r}"
                )
            if multiplier <= 0:
                raise ValueError(
                    f"price multiplier for {type_name!r} must be positive, got {multiplier}"
                )
        object.__setattr__(self, "group_types", group_types)
        object.__setattr__(self, "price_multipliers", multipliers)


@dataclass(frozen=True)
class NetworkSpec:
    """The access network between devices and the SDN front-end.

    ``degraded-3g`` inflates the 3G model's median and mean RTT by
    ``degradation``× (preserving the log-normal shape), modelling a congested
    or rural cell.  ``constant`` is a deterministic RTT for debugging.
    """

    profile: str = "lte"
    constant_rtt_ms: float = 50.0
    degradation: float = 2.5

    def __post_init__(self) -> None:
        if self.profile not in NETWORK_PROFILES:
            raise ValueError(
                f"profile must be one of {NETWORK_PROFILES}, got {self.profile!r}"
            )
        if self.constant_rtt_ms < 0:
            raise ValueError(
                f"constant_rtt_ms must be >= 0, got {self.constant_rtt_ms}"
            )
        if self.degradation < 1.0:
            raise ValueError(f"degradation must be >= 1.0, got {self.degradation}")


@dataclass(frozen=True)
class PolicySpec:
    """The adaptive-model knobs: prediction, promotion and routing."""

    predictor_strategy: str = "nearest"
    min_history: int = 2
    promotion: str = "static"
    promotion_probability: float = 1.0 / 50.0
    promotion_threshold_ms: float = 2000.0
    routing: str = "acceleration-group"

    def __post_init__(self) -> None:
        if self.predictor_strategy not in PREDICTOR_STRATEGIES:
            raise ValueError(
                f"predictor_strategy must be one of {PREDICTOR_STRATEGIES}, "
                f"got {self.predictor_strategy!r}"
            )
        if self.min_history < 2:
            raise ValueError(f"min_history must be >= 2, got {self.min_history}")
        if self.promotion not in PROMOTION_POLICIES:
            raise ValueError(
                f"promotion must be one of {PROMOTION_POLICIES}, got {self.promotion!r}"
            )
        if not 0.0 <= self.promotion_probability <= 1.0:
            raise ValueError(
                f"promotion_probability must be in [0, 1], got {self.promotion_probability}"
            )
        if self.promotion_threshold_ms <= 0:
            raise ValueError(
                f"promotion_threshold_ms must be positive, got {self.promotion_threshold_ms}"
            )
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(
                f"routing must be one of {ROUTING_POLICIES}, got {self.routing!r}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, runnable scenario.

    When ``sites`` is set the scenario runs as a **multi-site federation**
    (see :mod:`repro.multisite`): each site brings its own cloud catalog,
    capacity cap, pricing and access network, and a global broker assigns
    every request to a site.  The top-level ``cloud`` and ``network``
    sections are then ignored in favour of the per-site ones.
    """

    name: str
    description: str = ""
    users: int = 60
    duration_hours: float = 2.0
    slot_minutes: float = 30.0
    seed: Optional[int] = None
    task_name: str = "minimax"
    execution: str = "event"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    devices: DeviceMixSpec = field(default_factory=DeviceMixSpec)
    cloud: CloudSpec = field(default_factory=CloudSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    sites: Optional["MultiSiteSpec"] = None
    #: The scenario's fault plane (see :mod:`repro.faults`): preemption and
    #: degraded-network windows, per-attempt offload failure, control-plane
    #: staleness, plus the retry/degradation policy answering them.  ``None``
    #: (the default) keeps every pre-fault-plane behavior byte-identical,
    #: including the lenient legacy outage semantics.
    faults: Optional["FaultSpec"] = None
    #: Collect metrics + a slot-phase trace for this run.  Purely
    #: observational: results are bit-identical with the knob on or off
    #: (pinned by the telemetry parity suite).
    telemetry: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.users < 1:
            raise ValueError(f"users must be >= 1, got {self.users}")
        if self.duration_hours <= 0:
            raise ValueError(
                f"duration_hours must be positive, got {self.duration_hours}"
            )
        if self.slot_minutes <= 0:
            raise ValueError(f"slot_minutes must be positive, got {self.slot_minutes}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.task_name not in DEFAULT_TASK_POOL.names:
            raise ValueError(
                f"unknown task {self.task_name!r}; known: {sorted(DEFAULT_TASK_POOL.names)}"
            )
        if self.execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, got {self.execution!r}"
            )
        if self.workload.target_requests < self.users:
            raise ValueError(
                f"target_requests ({self.workload.target_requests}) must be at "
                f"least the number of users ({self.users})"
            )
        if self.sites is not None:
            from repro.multisite.spec import MultiSiteSpec  # deferred: cycle guard

            sites = self.sites
            if isinstance(sites, Mapping):
                sites = MultiSiteSpec.from_dict(sites)
            if not isinstance(sites, MultiSiteSpec):
                raise ValueError(
                    f"sites must be a MultiSiteSpec (or its dict form), got {type(sites)!r}"
                )
            object.__setattr__(self, "sites", sites)
        if self.faults is not None:
            from repro.faults.spec import FaultSpec  # deferred: cycle guard

            faults = self.faults
            if isinstance(faults, Mapping):
                faults = FaultSpec.from_dict(faults)
            if not isinstance(faults, FaultSpec):
                raise ValueError(
                    f"faults must be a FaultSpec (or its dict form), got {type(faults)!r}"
                )
            site_names = (
                [site.name for site in self.sites.sites]
                if self.sites is not None
                else []
            )
            for window in faults.preemptions:
                if window.site is None:
                    continue
                if self.sites is None:
                    raise ValueError(
                        f"preemption window targets site {window.site!r} but "
                        f"scenario {self.name!r} is single-site"
                    )
                if window.site not in site_names:
                    raise ValueError(
                        f"preemption window targets unknown site {window.site!r}; "
                        f"known: {site_names}"
                    )
                if self.sites.policy == "dynamic-load":
                    raise ValueError(
                        "site-scoped preemption windows need a static brokering "
                        "policy (the dynamic broker assigns sites only at "
                        "execution time, after fault draws are sealed); "
                        f"scenario {self.name!r} uses dynamic-load"
                    )
            if faults.control_plane is not None and (
                self.sites is None or self.sites.policy != "dynamic-load"
            ):
                raise ValueError(
                    "control-plane faults degrade the dynamic broker's load "
                    f"snapshots; scenario {self.name!r} does not use the "
                    "dynamic-load policy"
                )
            object.__setattr__(self, "faults", faults)

    @property
    def is_multisite(self) -> bool:
        """Whether the scenario runs as a multi-site federation."""
        return self.sites is not None

    @property
    def duration_ms(self) -> float:
        return self.duration_hours * 3_600_000.0

    @property
    def slot_length_ms(self) -> float:
        return self.slot_minutes * 60_000.0

    @property
    def periods(self) -> int:
        """Number of provisioning periods in the run (last one may be partial)."""
        return int(math.ceil(self.duration_ms / self.slot_length_ms))

    def with_overrides(
        self,
        *,
        users: Optional[int] = None,
        duration_hours: Optional[float] = None,
        target_requests: Optional[int] = None,
        seed: Optional[int] = None,
        execution: Optional[str] = None,
        broker: Optional[str] = None,
        capacity_signal: Optional[str] = None,
        telemetry: Optional[bool] = None,
    ) -> "ScenarioSpec":
        """A copy with the common CLI-level knobs replaced.

        ``broker`` replaces the federation's routing policy (the CLI's
        ``--broker`` flag) and is only valid for multi-site scenarios.
        Overriding a spillover-enabled federation to a non-dynamic policy
        drops the spillover knobs (static policies cannot spill).
        ``capacity_signal`` replaces the federation's live-state resolution
        (``per-group`` | ``fleet``; the CLI's ``--capacity-signal`` flag),
        equally multi-site-only.
        """
        workload = self.workload
        if target_requests is not None:
            workload = dataclasses.replace(workload, target_requests=target_requests)
        sites = self.sites
        if broker is not None:
            if sites is None:
                raise ValueError(
                    f"scenario {self.name!r} is single-site: --broker only "
                    "applies to scenarios with a sites: section"
                )
            spillover = sites.spillover if broker == "dynamic-load" else None
            sites = dataclasses.replace(sites, policy=broker, spillover=spillover)
        if capacity_signal is not None:
            if sites is None:
                raise ValueError(
                    f"scenario {self.name!r} is single-site: --capacity-signal "
                    "only applies to scenarios with a sites: section"
                )
            sites = dataclasses.replace(sites, capacity_signal=capacity_signal)
        return dataclasses.replace(
            self,
            users=users if users is not None else self.users,
            duration_hours=(
                duration_hours if duration_hours is not None else self.duration_hours
            ),
            seed=seed if seed is not None else self.seed,
            execution=execution if execution is not None else self.execution,
            workload=workload,
            sites=sites,
            telemetry=telemetry if telemetry is not None else self.telemetry,
        )

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict view (JSON/YAML friendly) that round-trips via from_dict."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        data = dict(payload)
        nested = {
            "workload": WorkloadSpec,
            "devices": DeviceMixSpec,
            "cloud": CloudSpec,
            "network": NetworkSpec,
            "policy": PolicySpec,
        }
        for key, spec_cls in nested.items():
            if key in data and isinstance(data[key], Mapping):
                data[key] = spec_cls(**data[key])
        # sites / faults dict forms are coerced by __post_init__.
        return cls(**data)
