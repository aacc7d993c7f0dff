"""Execute a multi-site scenario end to end (event and batched modes).

``run_multisite_scenario`` is the federation twin of
:func:`repro.scenarios.runner.run_scenario`: it builds one serving stack per
site (:mod:`repro.multisite.federation`), lets the global broker partition
the pre-drawn request plan across sites (:mod:`repro.multisite.broker`),
samples each request's network latency from its *serving* site's access
model plus the WAN penalty, and then drives the plan through either

* the **event** executor — per-request events on the shared engine, one SDN
  front-end per site, exact processor-sharing service; or
* the **batched** executor — per-site Lindley recursions over the
  site-partitioned plan, reusing the single-site vectorised data plane
  (:func:`repro.scenarios.batched.serve_slot_requests`) with one instance
  state table per site.

Both executors consult the same broker object through one shared
slot-boundary step (:func:`run_slot_brokering`): static policies keep their
plan-time pre-partition (served slot by slot through a
:class:`~repro.multisite.broker.StaticSlotBroker` adapter) while the
``dynamic-load`` policy re-brokers every slot from live per-site state and
optionally spills overflow across sites mid-slot
(:class:`~repro.multisite.broker.DynamicBroker`).  Either way site
assignment, arrivals, work, RTTs and jitter are identical across modes;
only the documented single-site queueing approximations differ.  The
control plane is fully per-site: each site's adaptive model observes only
the requests that site served and its autoscaler re-shapes only that site's
fleet, at the same slot boundaries in both modes.

Requests that arrive while no site is available (federation-wide outage) are
dropped at the broker: they fail back to the device immediately at arrival
time and are counted in ``requests_unrouted`` (and in the federation-wide
drop totals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.faults.overlay import (
    FAULT_CONTROL_STREAM,
    FAULT_STREAM,
    OUTCOME_DEGRADED_LOCAL,
    OUTCOME_DROPPED,
    OUTCOME_OK,
    MultisiteFaultPlane,
    build_fault_overlay,
)
from repro.mobile.device import DEVICE_PROFILES, MobileDevice
from repro.mobile.moderator import Moderator
from repro.mobile.tasks import DEFAULT_TASK_POOL
from repro.multisite.broker import (
    UNROUTED,
    BrokeredPlan,
    DynamicBroker,
    StaticSlotBroker,
    broker_assign,
)
from repro.multisite.federation import Federation, SiteRuntime, build_federation
from repro.scenarios.batched import (
    DRAIN_MARGIN_MS,
    InstanceState,
    clamp_table,
    serve_slot_requests,
)
from repro.scenarios.plan import RequestPlan, build_request_plan
from repro.scenarios.runner import (
    ScenarioResult,
    SiteGroupResult,
    SiteResult,
    _build_promotion_policy,
    build_arrival_process,
    prediction_accuracy_samples,
)
from repro.scenarios.spec import ScenarioSpec
from repro.sdn.accelerator import DeliveryBuffer, RequestRecord
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import RandomStreams
from repro.telemetry import NULL_TELEMETRY, resolve_telemetry
from repro.telemetry.publish import (
    publish_broker,
    publish_devices,
    publish_engine,
    publish_faults,
    publish_federation,
    publish_requests,
    publish_serving_stack,
)
from repro.core.timeslots import TimeSlot


@dataclass
class SiteExecutionStats:
    """One site's data-plane tallies, shared by both executors."""

    requests_total: int = 0
    requests_dropped: int = 0
    success_chunks: List[np.ndarray] = field(default_factory=list)
    #: Per requesting-user acceleration group: requests seen / dropped at
    #: this site (the group of the *user's promotion level* at routing
    #: time, not the post-clamp serving group — the breakdown the
    #: group-aware broker is judged by).
    group_requests: Dict[int, int] = field(default_factory=dict)
    group_dropped: Dict[int, int] = field(default_factory=dict)

    def tally_group(self, group: int, total: int, dropped: int) -> None:
        if total:
            self.group_requests[group] = self.group_requests.get(group, 0) + total
        if dropped:
            self.group_dropped[group] = self.group_dropped.get(group, 0) + dropped

    @property
    def success_response_ms(self) -> np.ndarray:
        if not self.success_chunks:
            return np.empty(0, dtype=float)
        return np.concatenate(self.success_chunks)


@dataclass
class FederationMetrics:
    """Federation-wide data-plane outputs plus the per-site breakdown."""

    requests_total: int
    requests_dropped: int
    requests_unrouted: int
    success_response_ms: np.ndarray
    utilization_samples: List[float]
    per_site: List[SiteExecutionStats]
    #: Per request: the requesting acceleration group of every request the
    #: executor skipped for a fault verdict (degraded-local or dropped), -1
    #: elsewhere.  The fold attributes those requests to their site's group
    #: rows with it; ``None`` when the run has no fault plane.
    fault_groups: "np.ndarray | None" = None


def sample_network_for_sites(
    *,
    plan: RequestPlan,
    brokered: BrokeredPlan,
    federation: Federation,
) -> RequestPlan:
    """Fill the plan's T1/T2 from each request's serving site.

    Each site's channel samples its own partition in arrival order (one bulk
    draw per hop per site, from the site's named stream), and routed requests
    pay the broker's WAN penalty on top of T1 — identically in both execution
    modes, since this happens before either executor runs.
    """
    t1 = np.zeros(len(plan), dtype=float)
    t2 = np.zeros(len(plan), dtype=float)
    hours = (plan.arrival_ms / 3_600_000.0) % 24.0
    for site in federation:
        picks = brokered.indices_for_site(site.index)
        if picks.size == 0:
            continue
        t1[picks] = site.channel.sample_t1_many(hours[picks])
        t2[picks] = site.channel.sample_t2_many(hours[picks])
    t1 += brokered.extra_rtt_ms
    return plan.with_network(t1, t2)


def run_slot_brokering(
    slot_broker,
    *,
    plan: RequestPlan,
    federation: Federation,
    start_ms: float,
    end_ms: float,
    group_of_user: "np.ndarray | None" = None,
    telemetry=NULL_TELEMETRY,
    slot_index: "int | None" = None,
    fault_plane: "MultisiteFaultPlane | None" = None,
) -> "tuple[int, int]":
    """The single slot-boundary brokering step both executors call.

    For the static policies this merely locates the slot window (assignment
    happened at plan time).  For the dynamic broker it publishes the live
    (site × acceleration group) state — the serving-rate and admission
    matrices and the remaining instance headroom of the fleets as the
    autoscalers left them at the previous boundary — plus the executor's
    current per-user promotion-level view (``group_of_user``), lets the
    broker assign the slot's requests per group (including mid-slot
    spillover), and then samples each routed request's T1/T2 from its
    *serving* site's channel, WAN penalty applied on top.  Sampling happens
    here, in slot order and per site in federation order, so both execution
    modes consume exactly the same draws from the same named streams.

    ``fault_plane`` (when faults are enabled) rides along here — the one
    per-slot step shared by both executors — so every fault decision lands
    in identical order in both modes: the dynamic broker's load snapshots
    pass through control-plane staleness/loss first, then the freshly
    brokered window goes through outage kills and retry failover, and
    degraded-RTT factors are applied right after the dynamic network
    sampling.
    """
    with telemetry.span("slot.broker", slot=slot_index):
        if slot_broker.is_dynamic:
            capacity = federation.capacity_snapshot()
            remaining_cap = np.asarray(
                [site.remaining_instance_cap() for site in federation],
                dtype=np.int64,
            )
            admission = federation.admission_snapshot()
            if fault_plane is not None:
                capacity, remaining_cap, admission = fault_plane.stale_snapshots(
                    capacity, remaining_cap, admission
                )
            i0, i1 = slot_broker.broker_slot(
                start_ms,
                end_ms,
                capacity_work_per_ms=capacity,
                remaining_instance_cap=remaining_cap,
                admission_capacity=admission,
                group_of_user=group_of_user,
            )
        else:
            i0, i1 = slot_broker.broker_slot(start_ms, end_ms)
        if fault_plane is not None and i1 > i0:
            fault_plane.process_window(slot_broker, plan, i0, i1, group_of_user)
        if slot_broker.samples_network and i1 > i0:
            hours = (plan.arrival_ms[i0:i1] / 3_600_000.0) % 24.0
            window_sites = slot_broker.site_ids[i0:i1]
            for site in federation:
                picks = np.flatnonzero(window_sites == site.index)
                if picks.size == 0:
                    continue
                plan.t1_ms[i0 + picks] = site.channel.sample_t1_many(hours[picks])
                plan.t2_ms[i0 + picks] = site.channel.sample_t2_many(hours[picks])
            routed = np.flatnonzero(window_sites >= 0)
            if routed.size:
                plan.t1_ms[i0 + routed] += slot_broker.extra_rtt_ms[i0 + routed]
            if fault_plane is not None:
                fault_plane.apply_network_factor(plan, i0, i1)
        return i0, i1


# ---------------------------------------------------------------------------
# Event executor
# ---------------------------------------------------------------------------


def execute_event_multisite(
    *,
    spec: ScenarioSpec,
    plan: RequestPlan,
    slot_broker,
    engine: SimulationEngine,
    federation: Federation,
    devices: Dict[int, MobileDevice],
    moderators: Dict[int, Moderator],
    task,
    duration_ms: float,
    slot_ms: float,
    telemetry=NULL_TELEMETRY,
    fault_plane: "MultisiteFaultPlane | None" = None,
) -> FederationMetrics:
    """Drive the brokered plan through per-site SDN front-ends on one engine."""
    completion_callbacks: Dict[int, Callable[[RequestRecord], None]] = {}
    per_site: List[SiteExecutionStats] = [SiteExecutionStats() for _ in federation]
    unrouted = 0
    fault_outcome = None if fault_plane is None else fault_plane.overlay.outcome
    fault_groups = (
        None if fault_outcome is None else np.full(len(plan), -1, dtype=np.int64)
    )

    def _completion_for(user_id: int):
        callback = completion_callbacks.get(user_id)
        if callback is None:

            def _on_complete(record: RequestRecord) -> None:
                device = devices[user_id]
                if record.success:
                    # The record's completion stamp is the delivery instant —
                    # with buffered delivery the engine clock may already be
                    # past it when the buffer drains.
                    moderators[user_id].observe(
                        device, record.response_time_ms, record.completed_ms
                    )
                else:
                    device.record_failure()

            callback = completion_callbacks[user_id] = _on_complete
        return callback

    task_name = task.name
    site_ids = slot_broker.site_ids

    # Fused delivery: one shared buffer across every site accelerator, so
    # deliveries retain their global (time, issue-order) sequence even when
    # per-user moderators span sites.  Drained strictly-before-now at each
    # submission and slot boundary, which reproduces the legacy per-delivery
    # event ordering exactly (deliver events always lost same-instant ties to
    # setup-scheduled submit/broker/scale events).
    buffer = DeliveryBuffer()
    for site in federation:
        site.accelerator.delivery_buffer = buffer
    drain = buffer.drain_until

    # --- slot-boundary brokering + per-site provisioning control loops ------
    # Scheduling order matters at equal timestamps (the engine heap is FIFO
    # per timestamp): the brokering step for slot k+1 must observe the fleet
    # *after* slot k's scaling actions, and every arrival inside a slot must
    # find its window already brokered.  Interleaving broker(k) / scale(k)
    # per period and scheduling submissions afterwards yields exactly the
    # batched executor's boundary ordering: scale(k) → broker(k+1) →
    # arrivals of slot k+1.
    for period in range(1, spec.periods + 1):
        period_start = (period - 1) * slot_ms
        period_end = min(period * slot_ms, duration_ms)

        def _broker(
            start: float = period_start,
            end: float = period_end,
            slot_index: int = period - 1,
        ) -> None:
            drain(engine.now_ms)
            run_slot_brokering(
                slot_broker,
                plan=plan,
                federation=federation,
                start_ms=start,
                end_ms=end,
                # The live promotion-level view at this boundary: promotions
                # from requests delivered before it have already been applied
                # (completion events precede the boundary event on the heap).
                group_of_user=np.asarray(
                    [devices[user].acceleration_group for user in range(spec.users)],
                    dtype=np.int64,
                ),
                telemetry=telemetry,
                slot_index=slot_index,
                fault_plane=fault_plane,
            )

        engine.schedule_at(period_start, _broker, label=f"multisite:broker-{period}")
        for site in federation:

            def _scale(
                site: SiteRuntime = site,
                start: float = period_start,
                end: float = period_end,
                slot_index: int = period - 1,
            ) -> None:
                drain(engine.now_ms)
                with telemetry.span("slot.control", slot=slot_index):
                    site.autoscaler.run_period_end(
                        site.accelerator.trace_log, start, end
                    )
                    # Post-scaling fleet state at the boundary, per site —
                    # sampled at the same instant in the batched executor.
                    telemetry.recorder.sample_fleet(
                        slot_index, site.provisioner, prefix=f"site.{site.name}"
                    )

            engine.schedule_at(
                period_end, _scale, label=f"multisite:scale-{site.name}-{period}"
            )

    with telemetry.span("scenario.schedule"):
        for index in range(len(plan)):

            def _submit(index: int = index) -> None:
                nonlocal unrouted
                drain(engine.now_ms)
                user_id = int(plan.user_ids[index])
                device = devices[user_id]
                device.requests_sent += 1
                site_index = int(site_ids[index])
                if site_index == UNROUTED:
                    # Federation-wide outage: the broker rejects the request
                    # immediately; no site ever sees it.
                    unrouted += 1
                    device.record_failure()
                    return
                if fault_outcome is not None and fault_outcome[index] != OUTCOME_OK:
                    # Degraded-local / fault-dropped: never dispatches; the
                    # verdict is tallied at fold time, from the overlay.
                    fault_groups[index] = device.acceleration_group
                    return
                site = federation.site(site_index)
                # Per-group site tallies key on the *requesting* group — the
                # user's promotion level as routed, not the post-clamp serving
                # group the record carries — so both executors report the same
                # cohort breakdown.  Tallied at delivery, when success is known.
                requested_group = device.acceleration_group
                stats = per_site[site_index]
                user_callback = _completion_for(user_id)

                def _on_complete(
                    record: RequestRecord,
                    stats: SiteExecutionStats = stats,
                    group: int = requested_group,
                ) -> None:
                    stats.tally_group(group, 1, 0 if record.success else 1)
                    user_callback(record)

                site.accelerator.submit_planned(
                    user_id=user_id,
                    acceleration_group=requested_group,
                    work_units=float(plan.work_units[index]),
                    t1_ms=float(plan.t1_ms[index]),
                    t2_ms=float(plan.t2_ms[index]),
                    routing_ms=float(plan.routing_ms[index]),
                    jitter_z=float(plan.jitter_z[index]),
                    task_name=task_name,
                    battery_level=device.battery.level,
                    on_complete=_on_complete,
                )

            engine.schedule_at(
                float(plan.arrival_ms[index]), _submit, label="multisite:request"
            )

    # --- utilization sampling (federation-wide and per site) ----------------
    utilization_samples: List[float] = []
    sample_interval_ms = max(slot_ms / 10.0, 30_000.0)

    def _sample_utilization() -> None:
        busy = 0.0
        cores = 0.0
        for site in federation:
            site_busy, site_cores = site.sample_utilization(
                lambda instance: instance.in_service
            )
            busy += site_busy
            cores += site_cores
        if cores > 0:
            utilization_samples.append(busy / cores)
        if engine.now_ms + sample_interval_ms <= duration_ms:
            engine.schedule_after(
                sample_interval_ms, _sample_utilization, label="multisite:utilization"
            )

    engine.schedule_at(0.0, _sample_utilization, label="multisite:utilization")

    # One engine chunk per provisioning period (identical event order to a
    # single run — see the single-site event executor), then a final drain.
    for period in range(1, spec.periods + 1):
        period_end = min(period * slot_ms, duration_ms)
        with telemetry.span("slot.serve", slot=period - 1):
            engine.run(until_ms=period_end)
    with telemetry.span("slot.drain"):
        engine.run(until_ms=duration_ms + DRAIN_MARGIN_MS)
        buffer.flush(duration_ms + DRAIN_MARGIN_MS)

    for site in federation:
        records = site.accelerator.records
        stats = per_site[site.index]
        stats.requests_total = len(records)
        stats.requests_dropped = sum(1 for record in records if not record.success)
        stats.success_chunks.append(
            np.asarray(
                [r.response_time_ms for r in records if r.success], dtype=float
            )
        )

    successes = (
        np.concatenate([stats.success_response_ms for stats in per_site])
        if per_site
        else np.empty(0, dtype=float)
    )
    return FederationMetrics(
        requests_total=sum(stats.requests_total for stats in per_site) + unrouted,
        requests_dropped=sum(stats.requests_dropped for stats in per_site) + unrouted,
        requests_unrouted=unrouted,
        success_response_ms=successes,
        utilization_samples=utilization_samples,
        per_site=per_site,
        fault_groups=fault_groups,
    )


# ---------------------------------------------------------------------------
# Batched executor
# ---------------------------------------------------------------------------


def execute_batched_multisite(
    *,
    spec: ScenarioSpec,
    plan: RequestPlan,
    slot_broker,
    engine: SimulationEngine,
    federation: Federation,
    devices: Dict[int, MobileDevice],
    moderators: Dict[int, Moderator],
    duration_ms: float,
    slot_ms: float,
    telemetry=NULL_TELEMETRY,
    fault_plane: "MultisiteFaultPlane | None" = None,
) -> FederationMetrics:
    """Run the federation's data plane slot by slot, one Lindley pass per site."""
    users = spec.users
    horizon = duration_ms + DRAIN_MARGIN_MS
    group_of_user = np.asarray(
        [devices[user].acceleration_group for user in range(users)], dtype=np.int64
    )
    highest_group = max(int(group_of_user.max(initial=0)), federation.highest_group())
    round_robin = spec.policy.routing == "round-robin"

    # One vectorised-FCFS state table and round-robin cursor per site.
    site_states: List[Dict[str, InstanceState]] = [dict() for _ in federation.sites]
    rr_cursors = np.zeros(len(federation.sites), dtype=np.int64)

    def state_for_site(site_index: int):
        states = site_states[site_index]

        def state_for(instance) -> InstanceState:
            state = states.get(instance.instance_id)
            if state is None:
                state = InstanceState.for_instance(instance)
                states[instance.instance_id] = state
            return state

        return state_for

    state_fors = [state_for_site(site.index) for site in federation]

    sample_interval_ms = max(slot_ms / 10.0, 30_000.0)
    sample_times = [0.0]
    while sample_times[-1] + sample_interval_ms <= duration_ms:
        sample_times.append(sample_times[-1] + sample_interval_ms)
    sample_cursor = 0
    utilization_samples: List[float] = []

    def append_utilization(t_ms: float) -> None:
        busy = 0.0
        cores_total = 0.0
        for site in federation:
            states = site_states[site.index]

            def in_service(instance) -> float:
                state = states.get(instance.instance_id)
                return float(state.in_service_at(t_ms)) if state else 0.0

            site_busy, site_cores = site.sample_utilization(in_service)
            busy += site_busy
            cores_total += site_cores
        if cores_total > 0:
            utilization_samples.append(busy / cores_total)

    arrival = plan.arrival_ms
    site_ids = slot_broker.site_ids
    fault_outcome = None if fault_plane is None else fault_plane.overlay.outcome
    fault_groups = (
        None if fault_outcome is None else np.full(len(plan), -1, dtype=np.int64)
    )

    requests_total = 0
    dropped_total = 0
    unrouted_total = 0
    success_chunks: List[np.ndarray] = []
    per_site = [SiteExecutionStats() for _ in federation.sites]

    for period in range(1, spec.periods + 1):
        start = (period - 1) * slot_ms
        end = min(period * slot_ms, duration_ms)
        # The slot-boundary brokering step runs first, against the fleet the
        # previous boundary's scaling actions left behind — the dynamic
        # broker assigns this window (and samples its network draws) here,
        # between slot-sized Lindley passes.
        i0, i1 = run_slot_brokering(
            slot_broker,
            plan=plan,
            federation=federation,
            start_ms=start,
            end_ms=end,
            group_of_user=group_of_user,
            telemetry=telemetry,
            slot_index=period - 1,
            fault_plane=fault_plane,
        )
        with telemetry.span("slot.serve", slot=period - 1):
            count = int(i1 - i0)
            uids = plan.user_ids[i0:i1]
            # Snapshot the promotion levels the broker routed by, before this
            # slot's deliveries mutate them: the per-group site tallies must
            # reflect the groups as requested, in both execution modes.
            window_user_groups = group_of_user[uids]
            t1 = plan.t1_ms[i0:i1]
            t2 = plan.t2_ms[i0:i1]
            routing = plan.routing_ms[i0:i1]
            # Uplink/downlink derive from T1/T2, which the dynamic broker only
            # fills at this slot's boundary — compute them per window, not from
            # the whole-plan properties.
            half_hops = (t1 + t2) / 2.0
            dispatch = arrival[i0:i1] + half_hops + routing
            dlink = half_hops
            work = plan.work_units[i0:i1]
            jitter = plan.jitter_z[i0:i1]
            window_sites = site_ids[i0:i1]
            if fault_groups is not None:
                skipped = np.flatnonzero(fault_outcome[i0:i1] != OUTCOME_OK)
                fault_groups[i0 + skipped] = window_user_groups[skipped]

            # Excluded fault positions keep delivered = inf, so every
            # recorded-based tally below skips them for free.
            delivered = np.full(count, np.inf)
            cloud = np.zeros(count)
            ok = np.ones(count, dtype=bool)
            routed_groups = np.zeros(count, dtype=np.int64)

            # Broker drops (no available site) fail back instantly at arrival.
            lost = np.flatnonzero(window_sites == UNROUTED)
            ok[lost] = False
            delivered[lost] = arrival[i0:i1][lost]
            unrouted_total += int(lost.size)

            for site in federation:
                site_mask = window_sites == site.index
                if fault_outcome is not None:
                    # Degraded-local / fault-dropped requests never dispatch
                    # (the event path skips their submission identically).
                    site_mask &= fault_outcome[i0:i1] == OUTCOME_OK
                select = np.flatnonzero(site_mask)
                if select.size == 0:
                    continue
                levels = site.backend.levels
                if not levels:
                    raise ValueError(f"site {site.name!r} back-end pool is empty")
                if round_robin:
                    routed = np.asarray(levels, dtype=np.int64)[
                        (rr_cursors[site.index] + np.arange(select.size)) % len(levels)
                    ]
                    rr_cursors[site.index] += select.size
                else:
                    routed = clamp_table(levels, highest_group)[
                        group_of_user[uids[select]]
                    ]
                routed_groups[select] = routed
                serve_slot_requests(
                    backend=site.backend,
                    state_for=state_fors[site.index],
                    select=select,
                    routed=routed,
                    dispatch=dispatch,
                    work=work,
                    jitter=jitter,
                    downlink=dlink,
                    delivered=delivered,
                    cloud=cloud,
                    ok=ok,
                    slot_start_ms=start,
                )
            response = t1 + t2 + routing + cloud

            if count:
                sent = np.bincount(uids, minlength=users)
                for user in np.flatnonzero(sent):
                    devices[int(user)].requests_sent += int(sent[user])

            recorded = delivered <= horizon
            requests_total += int(np.count_nonzero(recorded))
            failed = recorded & ~ok
            dropped_total += int(np.count_nonzero(failed))
            if np.any(failed):
                failures = np.bincount(uids[failed], minlength=users)
                for user in np.flatnonzero(failures):
                    devices[int(user)].record_failures(int(failures[user]))
            succeeded = recorded & ok
            success_chunks.append(response[succeeded])

            for site in federation:
                mask = recorded & (window_sites == site.index)
                stats = per_site[site.index]
                stats.requests_total += int(np.count_nonzero(mask))
                stats.requests_dropped += int(np.count_nonzero(mask & ~ok))
                stats.success_chunks.append(response[mask & succeeded])
                if np.any(mask):
                    for group in np.unique(window_user_groups[mask]):
                        picks = mask & (window_user_groups == group)
                        stats.tally_group(
                            int(group),
                            int(np.count_nonzero(picks)),
                            int(np.count_nonzero(picks & ~ok)),
                        )

            while (
                sample_cursor < len(sample_times)
                and sample_times[sample_cursor] < end
            ):
                append_utilization(sample_times[sample_cursor])
                sample_cursor += 1

            if np.any(succeeded):
                by_user = np.argsort(uids[succeeded], kind="stable")
                user_sorted = uids[succeeded][by_user]
                response_sorted = response[succeeded][by_user]
                delivered_sorted = delivered[succeeded][by_user]
                uniques, first = np.unique(user_sorted, return_index=True)
                bounds = np.append(first, user_sorted.size)
                for user, lo, hi in zip(uniques, bounds[:-1], bounds[1:]):
                    device = devices[int(user)]
                    by_completion = np.argsort(delivered_sorted[lo:hi], kind="stable")
                    moderators[int(user)].observe_many(
                        device,
                        response_sorted[lo:hi][by_completion],
                        delivered_sorted[lo:hi][by_completion],
                    )
                    group_of_user[int(user)] = device.acceleration_group

        # --- per-site control planes at the slot boundary -------------------
        with telemetry.span("slot.control", slot=period - 1):
            engine.clock.advance_to(end)
            observed = recorded & (delivered < end)
            for site in federation:
                site_mask = observed & (window_sites == site.index)
                users_per_group: Dict[int, set] = {
                    group: set() for group in site.model.groups()
                }
                if np.any(site_mask):
                    for group in np.unique(routed_groups[site_mask]):
                        picks = site_mask & (routed_groups == group)
                        users_per_group.setdefault(int(group), set()).update(
                            int(user) for user in np.unique(uids[picks])
                        )
                slot = TimeSlot.from_user_sets(
                    len(site.model.history), users_per_group
                )
                site.model.observe_slot(slot)
                site.autoscaler.scale_for_slot(slot, end)
                # Same boundary instant the event executor samples this site.
                telemetry.recorder.sample_fleet(
                    period - 1, site.provisioner, prefix=f"site.{site.name}"
                )

    while sample_cursor < len(sample_times):
        append_utilization(sample_times[sample_cursor])
        sample_cursor += 1

    engine.clock.advance_to(horizon)
    responses = (
        np.concatenate(success_chunks) if success_chunks else np.empty(0, dtype=float)
    )
    return FederationMetrics(
        requests_total=requests_total,
        requests_dropped=dropped_total,
        requests_unrouted=unrouted_total,
        success_response_ms=responses,
        utilization_samples=utilization_samples,
        per_site=per_site,
        fault_groups=fault_groups,
    )


# ---------------------------------------------------------------------------
# The multi-site runner
# ---------------------------------------------------------------------------


def run_multisite_scenario(
    spec: ScenarioSpec,
    *,
    seed: int = 0,
    telemetry=None,
) -> ScenarioResult:
    """Execute one multi-site scenario end to end (both execution modes).

    ``telemetry`` follows the same contract as the single-site runner: an
    optional collaborator resolved against ``spec.telemetry``, observing but
    never changing the run (per-site signals additionally roll up through
    :func:`repro.analysis.metrics.federation_rollup` into the registry).
    """
    if spec.sites is None:
        raise ValueError(f"scenario {spec.name!r} declares no sites")
    telemetry = resolve_telemetry(telemetry, spec.telemetry)
    with telemetry.span("scenario.run"):
        return _run_multisite(spec, seed, telemetry)


def _run_multisite(spec: ScenarioSpec, seed: int, telemetry) -> ScenarioResult:
    with telemetry.span("scenario.setup"):
        streams = RandomStreams(seed)
        engine = SimulationEngine()
        rng_workload = streams.stream("scenario-workload")
        rng_devices = streams.stream("scenario-devices")
        rng_routing = streams.stream("scenario-sdn")

        task = DEFAULT_TASK_POOL.get(spec.task_name)
        duration_ms = spec.duration_ms
        slot_ms = spec.slot_length_ms

        federation = build_federation(
            scenario=spec,
            engine=engine,
            streams=streams,
            task=task,
            with_accelerators=spec.execution == "event",
        )

    # --- workload + brokering ------------------------------------------------
    with telemetry.span("plan.generate"):
        arrival_process = build_arrival_process(spec.workload, duration_ms)
        plan = build_request_plan(
            arrival_process=arrival_process,
            channel=None,  # sampled per serving site below
            task=task,
            users=spec.users,
            duration_ms=duration_ms,
            rng_workload=rng_workload,
            rng_routing=rng_routing,
            rng_jitter=streams.stream("scenario-jitter"),
        )

    with telemetry.span("scenario.setup"):
        if spec.sites.policy == "dynamic-load":
            # Brokering (and per-site network sampling) happens inside the slot
            # loop: the executors call run_slot_brokering at every boundary.
            slot_broker = DynamicBroker(
                plan=plan,
                users=spec.users,
                federation=spec.sites,
                duration_ms=duration_ms,
                access_rtt_ms=federation.mean_access_rtt_ms(),
            )
        else:
            brokered = broker_assign(
                arrival_ms=plan.arrival_ms,
                user_ids=plan.user_ids,
                users=spec.users,
                federation=spec.sites,
                duration_ms=duration_ms,
                access_rtt_ms=federation.mean_access_rtt_ms(),
            )
            plan = sample_network_for_sites(
                plan=plan, brokered=brokered, federation=federation
            )
            slot_broker = StaticSlotBroker(
                plan=plan, brokered=brokered, site_count=len(spec.sites.sites)
            )

        # --- devices (homed per site, shared moderators) ---------------------
        profile_names = sorted(spec.devices.weights)
        raw_weights = np.asarray(
            [spec.devices.weights[name] for name in profile_names], dtype=float
        )
        probabilities = raw_weights / raw_weights.sum()
        promotion_policy = _build_promotion_policy(spec)
        max_group = federation.highest_group()
        devices: Dict[int, MobileDevice] = {}
        moderators: Dict[int, Moderator] = {}
        for user_id in range(spec.users):
            chosen = profile_names[
                int(rng_devices.choice(len(profile_names), p=probabilities))
            ]
            home = federation.site(int(slot_broker.home_site_of_user[user_id]))
            devices[user_id] = MobileDevice(
                user_id=user_id,
                profile=DEVICE_PROFILES[chosen],
                acceleration_group=home.lowest_group(),
            )
            moderators[user_id] = Moderator(
                promotion_policy,
                max_group=max_group,
                rng=streams.stream(f"scenario-moderator-{user_id}"),
            )

        # --- fault plane: pre-computed verdicts + slot-boundary processing ---
        fault_plane = None
        if spec.faults is not None:
            overlay = build_fault_overlay(
                plan=plan,
                faults=spec.faults,
                duration_ms=duration_ms,
                rng=streams.stream(FAULT_STREAM),
                # Static brokering fixed the site of every request at plan
                # time, which is what scopes site-named preemption windows;
                # the dynamic broker assigns per slot, so only global fault
                # processes apply to its draws.
                site_ids=(
                    None if slot_broker.is_dynamic else slot_broker.site_ids
                ),
                site_names=[site.name for site in spec.sites.sites],
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
            if not slot_broker.samples_network:
                # Static brokering sampled T1/T2 at plan time; the dynamic
                # broker samples per slot, so the factor is applied inside
                # run_slot_brokering right after each window's sampling.
                overlay.apply_network_factor(plan)
            fault_plane = MultisiteFaultPlane(
                overlay=overlay,
                federation_spec=spec.sites,
                duration_ms=duration_ms,
                access_rtt_ms=federation.mean_access_rtt_ms(),
                home_site_of_user=slot_broker.home_site_of_user,
                control_rng=(
                    streams.stream(FAULT_CONTROL_STREAM)
                    if spec.faults.control_plane is not None
                    else None
                ),
            )

    if spec.execution == "batched":
        metrics = execute_batched_multisite(
            spec=spec,
            plan=plan,
            slot_broker=slot_broker,
            engine=engine,
            federation=federation,
            devices=devices,
            moderators=moderators,
            duration_ms=duration_ms,
            slot_ms=slot_ms,
            telemetry=telemetry,
            fault_plane=fault_plane,
        )
    else:
        metrics = execute_event_multisite(
            spec=spec,
            plan=plan,
            slot_broker=slot_broker,
            engine=engine,
            federation=federation,
            devices=devices,
            moderators=moderators,
            task=task,
            duration_ms=duration_ms,
            slot_ms=slot_ms,
            telemetry=telemetry,
            fault_plane=fault_plane,
        )

    # --- federation-wide + per-site metrics ----------------------------------
    with telemetry.span("stats.fold"):
        return _fold_multisite_result(
            spec=spec,
            seed=seed,
            engine=engine,
            federation=federation,
            slot_broker=slot_broker,
            devices=devices,
            metrics=metrics,
            telemetry=telemetry,
            plan=plan,
            fault_plane=fault_plane,
        )


def _tally_fault_outcomes(
    metrics: FederationMetrics,
    site_ids: np.ndarray,
    outcome: np.ndarray,
    faulted: np.ndarray,
) -> None:
    """Add fault-resolved requests to their last-assigned site's tallies.

    Degraded-local and fault-dropped requests never reach an executor, so
    the executors' per-site stats miss them.  Each one joins the site the
    broker last assigned it to (``site_ids``) — totals, drops and the group
    row of the acceleration group it was requested at.
    """
    if not np.any(faulted):
        return
    groups = metrics.fault_groups[faulted]
    if np.any(groups < 0):
        raise RuntimeError(
            f"{int(np.count_nonzero(groups < 0))} fault-resolved requests "
            "carry no requesting group"
        )
    keys, inverse = np.unique(
        np.stack([site_ids[faulted], groups], axis=1), axis=0, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    totals = np.bincount(inverse, minlength=len(keys))
    drops = np.bincount(
        inverse[outcome[faulted] == OUTCOME_DROPPED], minlength=len(keys)
    )
    for (site_index, group), total, dropped in zip(keys, totals, drops):
        stats = metrics.per_site[int(site_index)]
        stats.requests_total += int(total)
        stats.requests_dropped += int(dropped)
        stats.tally_group(int(group), int(total), int(dropped))


def _check_site_ledger(
    *,
    requests_total: int,
    requests_dropped: int,
    requests_unrouted: int,
    sites: List[SiteResult],
) -> None:
    """Raise unless every request is counted exactly once at every level.

    The sites plus the broker-unrouted requests make up the global total
    and the global drops (an unrouted request is a drop), and each site's
    group rows make up that site.
    """
    site_total = sum(site.requests_total for site in sites)
    site_dropped = sum(site.requests_dropped for site in sites)
    if site_total + requests_unrouted != requests_total:
        raise RuntimeError(
            f"request ledger broken: sites count {site_total} + "
            f"{requests_unrouted} unrouted, global total is {requests_total}"
        )
    if site_dropped + requests_unrouted != requests_dropped:
        raise RuntimeError(
            f"request ledger broken: sites drop {site_dropped} + "
            f"{requests_unrouted} unrouted, global drops are {requests_dropped}"
        )
    for site in sites:
        group_total = sum(row.requests_total for row in site.groups)
        group_dropped = sum(row.requests_dropped for row in site.groups)
        site_counts = (site.requests_total, site.requests_dropped)
        if (group_total, group_dropped) != site_counts:
            raise RuntimeError(
                f"request ledger broken at site {site.name!r}: group rows "
                f"count {group_total} ({group_dropped} dropped), the site "
                f"{site.requests_total} ({site.requests_dropped} dropped)"
            )


def _fold_multisite_result(
    *,
    spec: ScenarioSpec,
    seed: int,
    engine: SimulationEngine,
    federation: Federation,
    slot_broker,
    devices: Dict[int, MobileDevice],
    metrics: FederationMetrics,
    telemetry,
    plan: "RequestPlan | None" = None,
    fault_plane: "MultisiteFaultPlane | None" = None,
) -> ScenarioResult:
    successes = metrics.success_response_ms
    requests_total = metrics.requests_total
    dropped_total = metrics.requests_dropped
    fault_summary = None
    overlay = fault_plane.overlay if fault_plane is not None else None
    if overlay is not None:
        # Degraded/dropped requests never reached an executor; they enter the
        # tallies here, identically for both execution modes.  Broker-unrouted
        # requests keep their historical semantics (dropped at the broker, not
        # rescued by local fallback) via the site_ids filter.
        fault_summary = overlay.fault_summary(
            spec.users, plan, site_ids=slot_broker.site_ids
        )
        requests_total += (
            fault_summary.requests_local + fault_summary.requests_dropped
        )
        dropped_total += fault_summary.requests_dropped
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

    site_count = len(spec.sites.sites)
    spilled_mask = slot_broker.spilled
    spilled_in = (
        np.bincount(slot_broker.site_ids[spilled_mask], minlength=site_count)
        if np.any(spilled_mask)
        else np.zeros(site_count, dtype=np.int64)
    )

    # Per-site fault/resilience attribution: retried counts land on the site
    # that finally served the request, failovers on the destination site, and
    # degraded-local requests on the site they were last assigned to.
    zeros = np.zeros(site_count, dtype=np.int64)
    site_retried = site_failed_over = site_local = zeros
    if overlay is not None:
        sids = slot_broker.site_ids
        routed_mask = sids >= 0
        site_retried = np.bincount(
            sids[routed_mask & (overlay.attempts > 1)], minlength=site_count
        )
        site_failed_over = np.bincount(
            sids[routed_mask & overlay.rerouted], minlength=site_count
        )
        site_local = np.bincount(
            sids[routed_mask & (overlay.outcome == OUTCOME_DEGRADED_LOCAL)],
            minlength=site_count,
        )
        faulted = routed_mask & (overlay.outcome != OUTCOME_OK)
        _tally_fault_outcomes(metrics, sids, overlay.outcome, faulted)

    accuracies: List[float] = []
    predictions_total = 0
    site_results: List[SiteResult] = []
    for site in federation:
        stats = metrics.per_site[site.index]
        site_successes = stats.success_response_ms
        site_predictions = sum(
            1 for action in site.autoscaler.actions if action.decision is not None
        )
        predictions_total += site_predictions
        accuracies.extend(prediction_accuracy_samples(site.autoscaler, site.model))
        site_results.append(
            SiteResult(
                name=site.name,
                requests_total=stats.requests_total,
                requests_dropped=stats.requests_dropped,
                mean_response_ms=(
                    float(site_successes.mean()) if site_successes.size else float("nan")
                ),
                p95_response_ms=(
                    float(np.percentile(site_successes, 95.0))
                    if site_successes.size
                    else float("nan")
                ),
                allocation_cost_usd=site.total_cost(),
                scaling_actions=len(site.autoscaler.actions),
                predictions=site_predictions,
                mean_utilization=(
                    float(np.mean(site.utilization_samples))
                    if site.utilization_samples
                    else 0.0
                ),
                requests_spilled_in=int(spilled_in[site.index]),
                requests_retried=int(site_retried[site.index]),
                requests_failed_over=int(site_failed_over[site.index]),
                requests_degraded_local=int(site_local[site.index]),
                groups=tuple(
                    SiteGroupResult(
                        group=group,
                        requests_total=stats.group_requests.get(group, 0),
                        requests_dropped=stats.group_dropped.get(group, 0),
                    )
                    for group in sorted(stats.group_requests)
                ),
            )
        )

    _check_site_ledger(
        requests_total=requests_total,
        requests_dropped=dropped_total,
        requests_unrouted=metrics.requests_unrouted,
        sites=site_results,
    )

    if telemetry.enabled:
        registry = telemetry.registry
        publish_engine(registry, engine)
        publish_requests(
            registry,
            total=requests_total,
            dropped=dropped_total,
            success_response_ms=successes,
        )
        publish_devices(registry, devices.values())
        if fault_summary is not None:
            publish_faults(
                registry,
                summary=fault_summary,
                outage_kills=fault_plane.outage_kills,
                snapshots_lost=fault_plane.snapshots_lost,
            )
        for site in federation:
            publish_serving_stack(
                registry,
                provisioner=site.provisioner,
                autoscaler=site.autoscaler,
                prefix=f"site.{site.name}",
            )
        publish_federation(registry, site_results)
        publish_broker(
            registry, unrouted=metrics.requests_unrouted, broker=slot_broker
        )
        recorder = telemetry.recorder
        site_names = [
            site.name for site in sorted(federation, key=lambda s: s.index)
        ]
        if plan is not None:
            recorder.ingest_plan(
                plan, slot_ms=spec.slot_length_ms, periods=spec.periods
            )
        recorder.ingest_broker(slot_broker, site_names)
        if overlay is not None:
            recorder.ingest_faults(
                overlay,
                plan,
                slot_ms=spec.slot_length_ms,
                periods=spec.periods,
                site_ids=slot_broker.site_ids,
            )

    return ScenarioResult(
        name=spec.name,
        seed=seed,
        users=spec.users,
        duration_hours=spec.duration_hours,
        requests_total=requests_total,
        requests_succeeded=int(successes.size),
        requests_dropped=dropped_total,
        mean_response_ms=mean_ms,
        p50_response_ms=p50,
        p95_response_ms=p95,
        p99_response_ms=p99,
        prediction_accuracy=(
            float(np.mean(accuracies)) if accuracies else float("nan")
        ),
        predictions=predictions_total,
        scaling_actions=federation.total_scaling_actions(),
        allocation_cost_usd=federation.total_cost(),
        mean_utilization=(
            float(np.mean(metrics.utilization_samples))
            if metrics.utilization_samples
            else 0.0
        ),
        promoted_users=sum(1 for device in devices.values() if device.promotions),
        promotions=sum(len(device.promotions) for device in devices.values()),
        requests_unrouted=metrics.requests_unrouted,
        requests_spilled=int(slot_broker.requests_spilled),
        requests_retried=(
            fault_summary.requests_retried if fault_summary is not None else 0
        ),
        requests_failed_over=(
            fault_summary.requests_failed_over if fault_summary is not None else 0
        ),
        requests_degraded_local=(
            fault_summary.requests_local if fault_summary is not None else 0
        ),
        slot_site_requests=tuple(
            tuple(int(count) for count in row)
            for row in slot_broker.slot_site_requests
        ),
        sites=tuple(site_results),
    )
