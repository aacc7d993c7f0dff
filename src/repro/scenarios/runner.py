"""Turn a :class:`~repro.scenarios.spec.ScenarioSpec` into a simulation run.

The runner composes the existing building blocks — arrival processes
(``repro.workload``), device profiles and moderators (``repro.mobile``),
the calibrated instance catalog and provisioner (``repro.cloud``), latency
models (``repro.network``), the SDN front-end and predictive autoscaler
(``repro.sdn``) and the adaptive model (``repro.core``) — exactly the way the
hand-written Fig. 9/10 experiment does, but driven entirely by the spec.

Every random draw comes from a named stream of one
:class:`~repro.simulation.randomness.RandomStreams` seeded per scenario, so a
(spec, seed) pair maps to exactly one result regardless of what else runs in
the process (or in which campaign worker it runs).
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cloud.backend import BackendPool
from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog
from repro.cloud.provisioner import Provisioner
from repro.core.allocation import InstanceOption, build_group_options
from repro.core.model import AdaptiveModel
from repro.core.prediction import WorkloadPredictor, prediction_accuracy
from repro.core.timeslots import TimeSlotHistory
from repro.faults.overlay import (
    FAULT_STREAM,
    OUTCOME_OK,
    FaultOverlay,
    build_fault_overlay,
)
from repro.mobile.device import DEVICE_PROFILES, MobileDevice
from repro.mobile.moderator import (
    BatteryAwarePolicy,
    Moderator,
    ResponseTimeThresholdPolicy,
    StaticProbabilityPolicy,
)
from repro.mobile.tasks import DEFAULT_TASK_POOL
from repro.network.channel import CommunicationChannel
from repro.network.latency import (
    ConstantLatencyModel,
    LogNormalLatencyModel,
    lte_latency_model,
    three_g_latency_model,
)
from repro.scenarios.batched import DRAIN_MARGIN_MS, ExecutionMetrics, execute_batched
from repro.scenarios.plan import RequestPlan, build_request_plan
from repro.scenarios.spec import NetworkSpec, ScenarioSpec, WorkloadSpec
from repro.sdn.accelerator import (
    DeliveryBuffer,
    RequestRecord,
    RoundRobinRouting,
    SDNAccelerator,
)
from repro.sdn.autoscaler import Autoscaler
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import RandomStreams
from repro.telemetry import NULL_TELEMETRY, resolve_telemetry
from repro.telemetry.publish import (
    publish_devices,
    publish_engine,
    publish_faults,
    publish_requests,
    publish_serving_stack,
)
from repro.workload.arrival import (
    ArrivalProcess,
    FixedRateArrivalProcess,
    ModulatedPoissonProcess,
    PoissonArrivalProcess,
    UniformArrivalProcess,
)


@dataclass(frozen=True)
class SiteGroupResult:
    """One site's request tally for one requesting acceleration group.

    The group is the *user's promotion level* at routing time (un-promoted
    users sit in their home site's lowest group), not the post-clamp serving
    group — this is the per-cohort breakdown the group-aware broker signal
    is judged by.  "Routing time" is request submission in event mode and
    the slot boundary in batched mode; the two coincide exactly whenever
    promotions are off (every pinned parity scenario) and differ only by
    the documented promotion-timing approximation otherwise.
    """

    group: int
    requests_total: int
    requests_dropped: int

    @property
    def drop_rate(self) -> float:
        if self.requests_total == 0:
            return 0.0
        return self.requests_dropped / self.requests_total


@dataclass(frozen=True)
class SiteResult:
    """Per-site metrics of one multi-site scenario run (picklable scalars)."""

    name: str
    requests_total: int
    requests_dropped: int
    mean_response_ms: float
    p95_response_ms: float
    allocation_cost_usd: float
    scaling_actions: int
    predictions: int
    mean_utilization: float
    requests_spilled_in: int = 0
    #: Requests this site served after at least one failed attempt.
    requests_retried: int = 0
    #: Failover arrivals this site absorbed (requests killed or retried away
    #: from another site that ended up served here).
    requests_failed_over: int = 0
    #: Requests assigned here that exhausted retries and ran on the device.
    requests_degraded_local: int = 0
    groups: Tuple[SiteGroupResult, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))

    @classmethod
    def zero(cls, name: str) -> "SiteResult":
        """An explicit all-zero result for a site that served no request.

        The multi-site runner itself always emits one (fully populated) row
        per federation site, including sites the broker never picked; this
        constructor is for callers assembling their own row lists for
        :func:`repro.analysis.metrics.federation_rollup`, which requires an
        explicit row per site rather than silently dropped empties.
        """
        return cls(
            name=name,
            requests_total=0,
            requests_dropped=0,
            mean_response_ms=float("nan"),
            p95_response_ms=float("nan"),
            allocation_cost_usd=0.0,
            scaling_actions=0,
            predictions=0,
            mean_utilization=0.0,
        )

    @property
    def drop_rate(self) -> float:
        if self.requests_total == 0:
            return 0.0
        return self.requests_dropped / self.requests_total

    def group(self, group_id: int) -> SiteGroupResult:
        """The tally for one requesting acceleration group at this site."""
        for entry in self.groups:
            if entry.group == group_id:
                return entry
        raise KeyError(
            f"site {self.name!r} saw no group-{group_id} requests; "
            f"have {[entry.group for entry in self.groups]}"
        )

    def drop_rate_for_group(self, group_id: int) -> float:
        """Drop rate among one group's requests (0.0 if the group never hit)."""
        for entry in self.groups:
            if entry.group == group_id:
                return entry.drop_rate
        return 0.0

    def as_row(self) -> Dict[str, object]:
        """One per-site comparison row (the multisite CLI/CSV schema)."""

        def cell(value: float, digits: int) -> object:
            return round(value, digits) if value == value else "n/a"

        return {
            "site": self.name,
            "requests": self.requests_total,
            "drop_rate_pct": round(100.0 * self.drop_rate, 2),
            "spilled_in": self.requests_spilled_in,
            "retried": self.requests_retried,
            "failed_over": self.requests_failed_over,
            "degraded_local": self.requests_degraded_local,
            "mean_ms": cell(self.mean_response_ms, 1),
            "p95_ms": cell(self.p95_response_ms, 1),
            "cost_usd": round(self.allocation_cost_usd, 3),
            "scaling_actions": self.scaling_actions,
            "predictions": self.predictions,
            "utilization_pct": round(100.0 * self.mean_utilization, 1),
        }


@dataclass(frozen=True)
class ScenarioResult:
    """Per-scenario metrics — plain scalars, cheap to pickle across workers.

    For multi-site scenarios the headline numbers are federation-wide
    (``requests_dropped`` includes requests dropped at the broker because no
    site was available, counted separately in ``requests_unrouted``) and
    ``sites`` carries the per-site breakdown.
    """

    name: str
    seed: int
    users: int
    duration_hours: float
    requests_total: int
    requests_succeeded: int
    requests_dropped: int
    mean_response_ms: float
    p50_response_ms: float
    p95_response_ms: float
    p99_response_ms: float
    prediction_accuracy: float
    predictions: int
    scaling_actions: int
    allocation_cost_usd: float
    mean_utilization: float
    promoted_users: int
    promotions: int
    requests_unrouted: int = 0
    requests_spilled: int = 0
    #: Requests that needed at least one retry (fault plane; 0 without one).
    requests_retried: int = 0
    #: Requests re-routed to another site by retry/outage failover.
    requests_failed_over: int = 0
    #: Requests that exhausted retries and executed on the device instead —
    #: graceful degradation; these count as *successes*, with the on-device
    #: execution time (plus the latency burned on failed attempts) folded
    #: into the response-time distribution.
    requests_degraded_local: int = 0
    slot_site_requests: Tuple[Tuple[int, ...], ...] = ()
    sites: Tuple[SiteResult, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(
            self,
            "slot_site_requests",
            tuple(tuple(row) for row in self.slot_site_requests),
        )

    def slot_routing_shares(self) -> Tuple[Tuple[float, ...], ...]:
        """Per-slot fraction of routed requests each site received.

        Empty slots yield all-zero rows; single-site runs yield ``()``.
        The dynamic-broker parity suite compares these across execution
        modes — they must match exactly under a shared seed.
        """
        shares = []
        for row in self.slot_site_requests:
            total = sum(row)
            shares.append(
                tuple(count / total for count in row) if total else tuple(0.0 for _ in row)
            )
        return tuple(shares)

    @property
    def drop_rate(self) -> float:
        """Fraction of requests dropped (admission control or brokering)."""
        if self.requests_total == 0:
            return 0.0
        return self.requests_dropped / self.requests_total

    @property
    def is_multisite(self) -> bool:
        return bool(self.sites)

    def site(self, name: str) -> SiteResult:
        """The per-site result for one site by name."""
        for site in self.sites:
            if site.name == name:
                return site
        raise KeyError(
            f"no site result for {name!r}; have {[s.name for s in self.sites]}"
        )

    def site_rows(self) -> List[Dict[str, object]]:
        """Per-site comparison rows (empty for single-site runs)."""
        return [site.as_row() for site in self.sites]

    def as_row(self) -> Dict[str, object]:
        """One comparison-table row (the cross-scenario CSV schema).

        NaN metrics (no successful request, or no prediction made) render as
        ``"n/a"`` so tables stay readable and CSVs never carry literal nan.
        """

        def cell(value: float, digits: int) -> object:
            return round(value, digits) if value == value else "n/a"

        return {
            "scenario": self.name,
            "seed": self.seed,
            "users": self.users,
            "hours": round(self.duration_hours, 2),
            "requests": self.requests_total,
            "drop_rate_pct": round(100.0 * self.drop_rate, 2),
            "p50_ms": cell(self.p50_response_ms, 1),
            "p95_ms": cell(self.p95_response_ms, 1),
            "p99_ms": cell(self.p99_response_ms, 1),
            "mean_ms": cell(self.mean_response_ms, 1),
            "pred_accuracy_pct": cell(100.0 * self.prediction_accuracy, 1),
            "predictions": self.predictions,
            "cost_usd": round(self.allocation_cost_usd, 3),
            "utilization_pct": round(100.0 * self.mean_utilization, 1),
            "promoted_users": self.promoted_users,
            "spilled": self.requests_spilled,
            "retried": self.requests_retried,
            "failed_over": self.requests_failed_over,
            "degraded_local": self.requests_degraded_local,
        }

    def rows(self) -> List[Dict[str, object]]:
        """Single-result table used by ``repro-accel scenario run``."""
        return [self.as_row()]


# ---------------------------------------------------------------------------
# Spec -> simulation components
# ---------------------------------------------------------------------------


def _rate_factor_fn(
    workload: WorkloadSpec, duration_ms: float
) -> "Tuple[Callable[[object], object], float]":
    """The pattern's rate modulation over time, as a factor of the base rate.

    Returns ``(factor_fn, peak_factor)`` where ``peak_factor`` is the exact
    maximum of ``factor_fn`` (the thinning algorithm needs a true upper
    bound; a sampled maximum can undershoot the continuous one).  The factor
    functions are numpy-aware: handed an array of times they return an array,
    which both the calibration grid and the vectorised thinning generator
    rely on.
    """
    if workload.pattern == "flash-crowd":
        start = workload.burst_start * duration_ms
        end = min(start + workload.burst_duration * duration_ms, duration_ms)

        def factor(t_ms):
            t = np.asarray(t_ms, dtype=float)
            values = np.where((t >= start) & (t < end), workload.burst_factor, 1.0)
            return values if values.ndim else float(values)

        return factor, workload.burst_factor
    if workload.pattern == "diurnal":
        trough = workload.trough_factor
        peak_hour = workload.peak_hour

        def factor(t_ms):
            t = np.asarray(t_ms, dtype=float)
            hour = (t / 3_600_000.0) % 24.0
            phase = 2.0 * np.pi * (hour - peak_hour) / 24.0
            # Cosine day/night cycle: 1.0 at the peak hour, `trough` opposite.
            values = trough + (1.0 - trough) * 0.5 * (1.0 + np.cos(phase))
            return values if values.ndim else float(values)

        return factor, 1.0
    if workload.pattern == "bursty":
        period = duration_ms / workload.burst_count
        on_fraction = min(workload.burst_duration, 1.0)

        def factor(t_ms):
            t = np.asarray(t_ms, dtype=float)
            phase = (t % period) / period
            values = np.where(phase < on_fraction, workload.burst_factor, 1.0)
            return values if values.ndim else float(values)

        return factor, workload.burst_factor
    raise ValueError(f"pattern {workload.pattern!r} has no rate modulation")


def build_arrival_process(
    workload: WorkloadSpec, duration_ms: float
) -> ArrivalProcess:
    """The arrival process realising ``workload`` over a run of ``duration_ms``.

    The base rate is calibrated so the expected number of arrivals over the
    run is ``target_requests`` for every pattern (the modulation's mean factor
    is integrated numerically on a fine grid, in one vectorised evaluation).
    """
    if duration_ms <= 0:
        raise ValueError(f"duration_ms must be positive, got {duration_ms}")
    mean_rate_hz = 1000.0 * workload.target_requests / duration_ms
    if workload.pattern == "uniform":
        mean_gap_ms = duration_ms / workload.target_requests
        return UniformArrivalProcess(low_ms=0.5 * mean_gap_ms, high_ms=1.5 * mean_gap_ms)
    if workload.pattern == "poisson":
        return PoissonArrivalProcess(rate_hz=mean_rate_hz)
    if workload.pattern == "fixed":
        return FixedRateArrivalProcess(rate_hz=mean_rate_hz)
    factor, peak_factor = _rate_factor_fn(workload, duration_ms)
    # The mean factor calibrates the base rate to hit target_requests in
    # expectation; a fine grid is accurate enough for calibration.
    grid = np.linspace(0.0, duration_ms, 4096, endpoint=False)
    mean_factor = float(np.mean(factor(grid)))
    base_rate_hz = mean_rate_hz / mean_factor
    return ModulatedPoissonProcess(
        lambda t_ms: base_rate_hz * factor(t_ms),
        peak_rate_hz=base_rate_hz * peak_factor,
    )


def build_catalog(spec: ScenarioSpec) -> InstanceCatalog:
    """The scenario's catalog: the demanded types with price multipliers applied."""
    types = []
    for type_name in spec.cloud.group_types.values():
        instance_type = DEFAULT_CATALOG.get(type_name)
        multiplier = spec.cloud.price_multipliers.get(type_name)
        if multiplier is not None:
            instance_type = dataclasses.replace(
                instance_type, price_per_hour=instance_type.price_per_hour * multiplier
            )
        types.append(instance_type)
    return InstanceCatalog(types)


def build_channel(
    network: NetworkSpec, rng: np.random.Generator
) -> CommunicationChannel:
    """The access-network channel for a spec's network profile."""
    if network.profile == "lte":
        access = lte_latency_model()
    elif network.profile == "3g":
        access = three_g_latency_model()
    elif network.profile == "degraded-3g":
        base = three_g_latency_model()
        access = LogNormalLatencyModel(
            median_ms=base.median_ms * network.degradation,
            mean_ms=base.mean_ms * network.degradation,
            floor_ms=base.floor_ms * network.degradation,
        )
    else:  # constant
        access = ConstantLatencyModel(rtt_ms=network.constant_rtt_ms)
    return CommunicationChannel(access_model=access, rng=rng)


def prediction_accuracy_samples(autoscaler: Autoscaler, model: AdaptiveModel) -> List[float]:
    """Realised accuracy of each of an autoscaler's predictive decisions.

    A decision made at the end of slot ``i`` predicted slot ``i + 1``; once
    that slot is in the model's history the prediction can be scored.  Shared
    by the single-site runner and the per-site federation roll-up.
    """
    accuracies: List[float] = []
    history = model.history
    for action in autoscaler.actions:
        decision = action.decision
        if decision is None:
            continue
        realised_index = decision.current_slot.index + 1
        if realised_index < len(history):
            accuracies.append(
                prediction_accuracy(
                    decision.prediction.predicted_slot, history[realised_index]
                )
            )
    return accuracies


def _build_promotion_policy(spec: ScenarioSpec):
    policy = spec.policy
    if policy.promotion == "static":
        return StaticProbabilityPolicy(probability=policy.promotion_probability)
    if policy.promotion == "threshold":
        return ResponseTimeThresholdPolicy(threshold_ms=policy.promotion_threshold_ms)
    return BatteryAwarePolicy(base_probability=policy.promotion_probability)


# ---------------------------------------------------------------------------
# The event-driven executor
# ---------------------------------------------------------------------------


def _execute_event(
    *,
    spec: ScenarioSpec,
    plan: RequestPlan,
    engine: SimulationEngine,
    devices: Dict[int, MobileDevice],
    moderators: Dict[int, Moderator],
    backend: BackendPool,
    accelerator: SDNAccelerator,
    autoscaler: Autoscaler,
    task,
    duration_ms: float,
    slot_ms: float,
    telemetry=NULL_TELEMETRY,
    overlay: Optional[FaultOverlay] = None,
) -> ExecutionMetrics:
    """Drive the pre-drawn request plan through the discrete-event engine.

    This is the exact simulation: per-request events, processor-sharing
    service, promotions applied at delivery time.  All per-request randomness
    comes from the plan, so it consumes the same draws as the batched path.

    ``overlay`` (when faults are enabled) carries pre-computed per-request
    fault verdicts: requests whose outcome is not ``OUTCOME_OK`` never reach
    the accelerator — their degradation/drop is tallied at fold time, from
    the overlay, identically to the batched path.

    The engine runs in per-period chunks (``engine.run`` up to each slot
    boundary, then a final drain) so the tracer can attribute wall time to
    ``slot.serve`` spans.  Chunking is unconditional — the engine pops the
    same events in the same order either way (the heap is untouched and the
    ``time_ms > until_ms`` stop condition is exact), so the telemetry-on and
    telemetry-off paths share one code path and one result.
    """
    completion_callbacks: Dict[int, Callable[[RequestRecord], None]] = {}

    def _completion_for(user_id: int):
        callback = completion_callbacks.get(user_id)
        if callback is None:

            def _on_complete(record: RequestRecord) -> None:
                device = devices[user_id]
                if record.success:
                    # The delivery instant, not engine.now_ms: with fused
                    # delivery the callback runs at the next drain point,
                    # after the clock has moved past the delivery.
                    moderators[user_id].observe(
                        device, record.response_time_ms, record.completed_ms
                    )
                else:
                    device.record_failure()

            callback = completion_callbacks[user_id] = _on_complete
        return callback

    # Fused delivery: results buffer here instead of one engine event each,
    # drained strictly-before-now at each submission and slot boundary (the
    # points where delivery effects become observable) — see DeliveryBuffer
    # for why the ordering is identical to the event-per-delivery path.
    buffer = DeliveryBuffer()
    accelerator.delivery_buffer = buffer
    drain = buffer.drain_until
    task_name = task.name
    arrivals = plan.arrival_ms
    count = len(plan)

    # Arrival pump: each submission schedules the next one instead of all of
    # them being pre-scheduled, keeping the event heap at O(in-flight) rather
    # than O(requests).  ``front=True`` preserves the old tie-break: the
    # pre-scheduled submissions carried the lowest sequence numbers, so at
    # equal timestamps they preceded every run-time-scheduled event.
    def _submit(index: int) -> None:
        drain(engine.now_ms)
        next_index = index + 1
        if next_index < count:
            engine.schedule_at(
                float(arrivals[next_index]),
                functools.partial(_submit, next_index),
                label="scenario:request",
                front=True,
            )
        user_id = int(plan.user_ids[index])
        device = devices[user_id]
        device.requests_sent += 1
        if overlay is not None and overlay.outcome[index] != OUTCOME_OK:
            return  # degraded-local / fault-dropped; tallied at fold
        accelerator.submit_planned(
            user_id=user_id,
            acceleration_group=device.acceleration_group,
            work_units=float(plan.work_units[index]),
            t1_ms=float(plan.t1_ms[index]),
            t2_ms=float(plan.t2_ms[index]),
            routing_ms=float(plan.routing_ms[index]),
            jitter_z=float(plan.jitter_z[index]),
            task_name=task_name,
            battery_level=device.battery.level,
            on_complete=_completion_for(user_id),
        )

    with telemetry.span("scenario.schedule"):
        if count:
            engine.schedule_at(
                float(arrivals[0]),
                functools.partial(_submit, 0),
                label="scenario:request",
                front=True,
            )

    # --- provisioning control loop ------------------------------------------
    for period in range(1, spec.periods + 1):
        period_start = (period - 1) * slot_ms
        period_end = min(period * slot_ms, duration_ms)

        def _scale(
            start: float = period_start,
            end: float = period_end,
            slot_index: int = period - 1,
        ) -> None:
            drain(engine.now_ms)
            with telemetry.span("slot.control", slot=slot_index):
                autoscaler.run_period_end(accelerator.trace_log, start, end)
                # Post-scaling fleet state at the boundary; the batched
                # executor samples at the same instant, so the series align.
                telemetry.recorder.sample_fleet(slot_index, autoscaler.provisioner)

        engine.schedule_at(period_end, _scale, label=f"scenario:scale-{period}")

    # --- utilization sampling ------------------------------------------------
    utilization_samples: List[float] = []
    sample_interval_ms = max(slot_ms / 10.0, 30_000.0)

    def _sample_utilization() -> None:
        # Core occupancy across the running fleet: jobs in service (capped at
        # each instance's core count) over total cores.  Admission limits are
        # far above core counts, so they would flatten the signal.
        busy = 0.0
        cores = 0.0
        for instances in backend.groups.values():
            for instance in instances:
                if instance.is_running:
                    instance_cores = instance.instance_type.profile.fluid_cores
                    busy += min(float(instance.in_service), instance_cores)
                    cores += instance_cores
        if cores > 0:
            utilization_samples.append(busy / cores)
        if engine.now_ms + sample_interval_ms <= duration_ms:
            engine.schedule_after(
                sample_interval_ms, _sample_utilization, label="scenario:utilization"
            )

    engine.schedule_at(0.0, _sample_utilization, label="scenario:utilization")

    # Run to the end plus a drain margin for in-flight requests, one chunk
    # per provisioning period so wall time lands in per-slot serve spans.
    for period in range(1, spec.periods + 1):
        period_end = min(period * slot_ms, duration_ms)
        with telemetry.span("slot.serve", slot=period - 1):
            engine.run(until_ms=period_end)
    with telemetry.span("slot.drain"):
        engine.run(until_ms=duration_ms + DRAIN_MARGIN_MS)
        buffer.flush(duration_ms + DRAIN_MARGIN_MS)

    records = accelerator.records
    successes = np.asarray(
        [record.response_time_ms for record in records if record.success], dtype=float
    )
    return ExecutionMetrics(
        requests_total=len(records),
        requests_dropped=sum(1 for record in records if not record.success),
        success_response_ms=successes,
        utilization_samples=utilization_samples,
    )


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def run_scenario(
    spec: ScenarioSpec,
    *,
    seed: Optional[int] = None,
    telemetry=None,
) -> ScenarioResult:
    """Execute one scenario end to end and return its metric summary.

    ``seed`` overrides ``spec.seed`` (the campaign runner derives one per
    scenario name); when neither is given, seed 0 is used.

    Scenarios with a ``sites:`` section run as a multi-site federation (one
    adaptive model per site, a global broker assigning requests) and return
    the same :class:`ScenarioResult` with the per-site breakdown attached.

    ``telemetry`` is the optional observability collaborator (see
    :mod:`repro.telemetry`): pass a :class:`~repro.telemetry.Telemetry` to
    collect metrics and a slot-phase trace, or leave it ``None`` to follow
    ``spec.telemetry`` (off by default).  Telemetry never changes the
    result — the parity suite pins bit-identical output on vs off.
    """
    effective_seed = seed if seed is not None else (spec.seed if spec.seed is not None else 0)
    telemetry = resolve_telemetry(telemetry, spec.telemetry)
    if spec.sites is not None:
        from repro.multisite.runner import run_multisite_scenario

        return run_multisite_scenario(
            spec, seed=effective_seed, telemetry=telemetry
        )
    with telemetry.span("scenario.run"):
        return _run_single_site(spec, effective_seed, telemetry)


def _run_single_site(
    spec: ScenarioSpec, effective_seed: int, telemetry
) -> ScenarioResult:
    """One single-site run: set-up, plan, fault overlay, execution and fold."""
    with telemetry.span("scenario.setup"):
        streams = RandomStreams(effective_seed)
        engine = SimulationEngine()
        rng_workload = streams.stream("scenario-workload")
        rng_devices = streams.stream("scenario-devices")
        rng_cloud = streams.stream("scenario-cloud")
        rng_sdn = streams.stream("scenario-sdn")
        rng_network = streams.stream("scenario-network")

        task = DEFAULT_TASK_POOL.get(spec.task_name)
        groups = sorted(spec.cloud.group_types)
        lowest_group, highest_group = groups[0], groups[-1]
        duration_ms = spec.duration_ms
        slot_ms = spec.slot_length_ms

        # --- back-end -------------------------------------------------------
        catalog = build_catalog(spec)
        backend = BackendPool()
        provisioner = Provisioner(
            engine,
            catalog,
            instance_cap=spec.cloud.instance_cap,
            rng=rng_cloud,
            boot_delay_ms=spec.cloud.boot_delay_ms,
        )
        level_for_type = {name: group for group, name in spec.cloud.group_types.items()}
        for group, type_name in spec.cloud.group_types.items():
            for _ in range(spec.cloud.initial_instances_per_group):
                backend.add_instance(provisioner.launch(type_name), group)

        # --- adaptive model + autoscaler --------------------------------------
        options: List[InstanceOption] = build_group_options(
            catalog,
            level_for_type=level_for_type,
            work_units=task.work_units,
            response_threshold_ms=spec.cloud.response_threshold_ms,
        )
        predictor = WorkloadPredictor(
            TimeSlotHistory(slot_length_ms=slot_ms),
            strategy=spec.policy.predictor_strategy,
            min_history=max(spec.policy.min_history - 1, 1),
        )
        model = AdaptiveModel(
            options,
            slot_length_ms=slot_ms,
            instance_cap=spec.cloud.instance_cap,
            predictor=predictor,
        )
        channel = build_channel(spec.network, rng_network)
        routing_policy = (
            RoundRobinRouting() if spec.policy.routing == "round-robin" else None
        )
        accelerator = SDNAccelerator(
            engine,
            backend,
            channel=channel,
            rng=rng_sdn,
            routing_policy=routing_policy,
        )
        autoscaler = Autoscaler(
            model,
            provisioner,
            backend,
            level_for_type=level_for_type,
            minimum_per_group=1,
        )

        # --- devices ----------------------------------------------------------
        profile_names = sorted(spec.devices.weights)
        raw_weights = np.asarray(
            [spec.devices.weights[name] for name in profile_names], dtype=float
        )
        probabilities = raw_weights / raw_weights.sum()
        promotion_policy = _build_promotion_policy(spec)
        devices: Dict[int, MobileDevice] = {}
        moderators: Dict[int, Moderator] = {}
        for user_id in range(spec.users):
            chosen = profile_names[
                int(rng_devices.choice(len(profile_names), p=probabilities))
            ]
            devices[user_id] = MobileDevice(
                user_id=user_id,
                profile=DEVICE_PROFILES[chosen],
                acceleration_group=lowest_group,
            )
            moderators[user_id] = Moderator(
                promotion_policy,
                max_group=highest_group,
                rng=streams.stream(f"scenario-moderator-{user_id}"),
            )

    # --- workload: the shared per-request plan -------------------------------
    with telemetry.span("plan.generate"):
        arrival_process = build_arrival_process(spec.workload, duration_ms)
        plan = build_request_plan(
            arrival_process=arrival_process,
            channel=channel,
            task=task,
            users=spec.users,
            duration_ms=duration_ms,
            rng_workload=rng_workload,
            rng_routing=rng_sdn,
            rng_jitter=streams.stream("scenario-jitter"),
            routing_overhead_mean_ms=accelerator.routing_overhead_mean_ms,
            routing_overhead_std_ms=accelerator.routing_overhead_std_ms,
        )

    # --- fault plane: pre-computed per-request verdicts ----------------------
    overlay: Optional[FaultOverlay] = None
    if spec.faults is not None:
        with telemetry.span("faults.build"):
            overlay = build_fault_overlay(
                plan=plan,
                faults=spec.faults,
                duration_ms=duration_ms,
                rng=streams.stream(FAULT_STREAM),
            )
            overlay.set_local_execution(
                plan,
                np.asarray(
                    [
                        devices[user_id].profile.local_speed_factor
                        for user_id in range(spec.users)
                    ],
                    dtype=float,
                ),
            )
            overlay.apply_latency(plan)
            overlay.apply_network_factor(plan)

    if spec.execution == "batched":
        metrics = execute_batched(
            spec=spec,
            plan=plan,
            engine=engine,
            devices=devices,
            moderators=moderators,
            backend=backend,
            autoscaler=autoscaler,
            model=model,
            round_robin_routing=spec.policy.routing == "round-robin",
            duration_ms=duration_ms,
            slot_ms=slot_ms,
            telemetry=telemetry,
            overlay=overlay,
        )
    else:
        metrics = _execute_event(
            spec=spec,
            plan=plan,
            engine=engine,
            devices=devices,
            moderators=moderators,
            backend=backend,
            accelerator=accelerator,
            autoscaler=autoscaler,
            task=task,
            duration_ms=duration_ms,
            slot_ms=slot_ms,
            telemetry=telemetry,
            overlay=overlay,
        )

    # --- metrics -------------------------------------------------------------
    with telemetry.span("stats.fold"):
        successes = metrics.success_response_ms
        dropped = metrics.requests_dropped
        requests_total = metrics.requests_total
        fault_summary = None
        if overlay is not None:
            # Degraded/dropped requests never reached an executor; they enter
            # the tallies here, identically for both execution modes.
            fault_summary = overlay.fault_summary(spec.users, plan)
            requests_total += (
                fault_summary.requests_local + fault_summary.requests_dropped
            )
            dropped += fault_summary.requests_dropped
            if fault_summary.local_response_ms.size:
                successes = np.concatenate(
                    [successes, fault_summary.local_response_ms]
                )
            for user_id in np.flatnonzero(fault_summary.dropped_user_counts):
                devices[int(user_id)].record_failures(
                    int(fault_summary.dropped_user_counts[user_id])
                )
        if successes.size:
            mean_ms = float(successes.mean())
            p50, p95, p99 = (
                float(np.percentile(successes, p)) for p in (50.0, 95.0, 99.0)
            )
        else:
            mean_ms = p50 = p95 = p99 = float("nan")

        accuracies = prediction_accuracy_samples(autoscaler, model)
        mean_accuracy = float(np.mean(accuracies)) if accuracies else float("nan")
        predictions = sum(
            1 for action in autoscaler.actions if action.decision is not None
        )
        if telemetry.enabled:
            registry = telemetry.registry
            publish_engine(registry, engine)
            publish_requests(
                registry,
                total=requests_total,
                dropped=dropped,
                success_response_ms=successes,
            )
            publish_serving_stack(
                registry, provisioner=provisioner, autoscaler=autoscaler
            )
            publish_devices(registry, devices.values())
            if fault_summary is not None:
                publish_faults(registry, summary=fault_summary)
            recorder = telemetry.recorder
            recorder.ingest_plan(plan, slot_ms=slot_ms, periods=spec.periods)
            if overlay is not None:
                recorder.ingest_faults(
                    overlay, plan, slot_ms=slot_ms, periods=spec.periods
                )

        return ScenarioResult(
            name=spec.name,
            seed=effective_seed,
            users=spec.users,
            duration_hours=spec.duration_hours,
            requests_total=requests_total,
            requests_succeeded=int(successes.size),
            requests_dropped=dropped,
            mean_response_ms=mean_ms,
            p50_response_ms=p50,
            p95_response_ms=p95,
            p99_response_ms=p99,
            prediction_accuracy=mean_accuracy,
            predictions=predictions,
            scaling_actions=len(autoscaler.actions),
            allocation_cost_usd=provisioner.total_cost(include_running=True),
            mean_utilization=(
                float(np.mean(metrics.utilization_samples))
                if metrics.utilization_samples
                else 0.0
            ),
            promoted_users=sum(1 for device in devices.values() if device.promotions),
            promotions=sum(len(device.promotions) for device in devices.values()),
            requests_retried=(
                fault_summary.requests_retried if fault_summary is not None else 0
            ),
            requests_failed_over=(
                fault_summary.requests_failed_over
                if fault_summary is not None
                else 0
            ),
            requests_degraded_local=(
                fault_summary.requests_local if fault_summary is not None else 0
            ),
        )
