"""Pre-computed fault/retry decisions and the multi-site fault plane.

The whole point of this module is that *fault decisions are data, not
execution*: :func:`build_fault_overlay` walks the retry ladder of every
request of a pre-drawn :class:`~repro.scenarios.plan.RequestPlan` up front,
against a fault-dedicated RNG stream, and materialises the verdicts as
parallel numpy arrays (attempts used, final outcome, latency burned on
failed attempts, degraded-network RTT factor).  Both executors then consume
the same overlay — the event loop by skipping degraded/dropped submissions,
the batched loop by masking them out of the Lindley pass — so retry and
degradation behaviour is bit-identical across execution modes by
construction, exactly like the plan itself.

Draw discipline (the determinism contract the property suite pins):

* all draws come from one named stream (:data:`FAULT_STREAM`), so enabling
  faults never perturbs workload/network/jitter/moderator draws;
* each attempt round draws two full-length uniform vectors (failure draw,
  backoff-jitter draw) regardless of which requests are still unresolved,
  so draws are *positionally stable*: request ``i``'s attempt-``k`` draw is
  the same no matter what happened to other requests, and first-attempt
  outcomes are identical between a resilient spec and its
  :meth:`~repro.faults.spec.FaultSpec.without_resilience` A/B twin.

The :class:`MultisiteFaultPlane` adds the slot-boundary half: strict
outage-kill of in-flight requests, cross-site failover through the spill
ranking, degraded-RTT application for dynamically-brokered windows, and
staleness/loss of the load snapshots the dynamic broker consumes.  It is
driven exclusively from :func:`repro.multisite.runner.run_slot_brokering`
— the one per-slot step both executors share — which is what keeps the
fault plane outside the queueing approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.catalog import DEFAULT_CATALOG
from repro.cloud.server import jittered_work_units
from repro.faults.spec import FaultSpec
from repro.scenarios.plan import RequestPlan

if TYPE_CHECKING:  # runtime import deferred: multisite imports this module
    from repro.multisite.spec import MultiSiteSpec

#: Named stream feeding every per-request fault draw.
FAULT_STREAM = "scenario-faults"
#: Named stream feeding the per-slot control-plane loss draws.
FAULT_CONTROL_STREAM = "scenario-fault-control"

#: Final disposition of a request after the retry ladder.
OUTCOME_OK = 0  # offload succeeds (possibly after retries / failover)
OUTCOME_DEGRADED_LOCAL = 1  # retries exhausted; executed on the device
OUTCOME_DROPPED = 2  # retries exhausted and no local fallback


@dataclass(frozen=True)
class FaultSummary:
    """Fold-time tallies derived from one overlay (optionally site-filtered)."""

    requests_local: int
    requests_dropped: int
    requests_retried: int
    requests_failed_over: int
    failed_attempts: int
    local_response_ms: np.ndarray
    local_user_counts: np.ndarray  # degraded-local requests per user id
    dropped_user_counts: np.ndarray  # fault-dropped requests per user id


@dataclass
class FaultOverlay:
    """Per-request fault/retry verdicts for one plan (parallel arrays).

    ``attempts``/``outcome``/``extra_latency_ms``/``rtt_factor`` are fixed at
    build time; ``rerouted``/``killed`` (and, for killed requests, ``outcome``
    and ``extra_latency_ms``) are additionally mutated at slot boundaries by
    the :class:`MultisiteFaultPlane` — always through the shared brokering
    step, never by an executor.  ``local_ms`` is the on-device execution time
    of every request (meaningful where ``outcome`` is degraded-local), filled
    once devices exist.
    """

    spec: FaultSpec
    duration_ms: float
    attempts: np.ndarray  # int64, >= 1: total offload attempts consumed
    outcome: np.ndarray  # int8: OUTCOME_* final disposition
    extra_latency_ms: np.ndarray  # time burned on failed attempts + backoff
    rtt_factor: np.ndarray  # degraded-window multiplier at the final attempt
    final_attempt_ms: np.ndarray  # start time of the final (deciding) attempt
    rerouted: np.ndarray  # bool: served by a failover site
    killed: np.ndarray  # bool: in-flight at an outage onset
    local_ms: np.ndarray  # on-device execution time (zeros until filled)

    def __len__(self) -> int:
        return int(self.outcome.size)

    def set_local_execution(
        self, plan: RequestPlan, local_speed_of_user: np.ndarray
    ) -> None:
        """Fill per-request on-device execution times from the device fleet.

        Computed for *every* request (not just currently-degraded ones)
        because outage kills can still degrade requests later, at slot
        boundaries.
        """
        speeds = np.asarray(local_speed_of_user, dtype=float)[plan.user_ids]
        self.local_ms = plan.work_units / speeds

    def apply_latency(self, plan: RequestPlan) -> None:
        """Fold retry latency into the plan's routing overhead.

        Routing overhead shifts dispatch *and* response identically in both
        executors, which makes it the exact place where "the request reached
        the cloud later because earlier attempts failed" belongs.  Only
        requests that eventually offload are shifted — degraded/dropped ones
        never dispatch, and their burned time enters the fold directly.
        """
        ok = self.outcome == OUTCOME_OK
        plan.routing_ms[ok] += self.extra_latency_ms[ok]

    def apply_network_factor(
        self, plan: RequestPlan, i0: int = 0, i1: Optional[int] = None
    ) -> None:
        """Stretch T1/T2 of requests whose final attempt rides a degraded window.

        Called once over the whole plan when the network was sampled at plan
        time (single-site and static multi-site), or per slot window right
        after the dynamic broker samples the serving site's draws.
        """
        i1 = len(self) if i1 is None else i1
        window = slice(i0, i1)
        picks = np.flatnonzero(
            (self.outcome[window] == OUTCOME_OK) & (self.rtt_factor[window] != 1.0)
        )
        if picks.size:
            plan.t1_ms[i0 + picks] *= self.rtt_factor[i0 + picks]
            plan.t2_ms[i0 + picks] *= self.rtt_factor[i0 + picks]

    def fault_summary(
        self, users: int, plan: RequestPlan, site_ids: Optional[np.ndarray] = None
    ) -> FaultSummary:
        """Fold-time tallies; ``site_ids`` (when given) excludes unrouted requests.

        Broker-unrouted requests (federation-wide outage) keep their historical
        semantics — dropped at the broker, not rescued by local fallback — so
        they are excluded here and counted by the unrouted path instead.
        """
        routed = (
            np.ones(len(self), dtype=bool) if site_ids is None else site_ids >= 0
        )
        local_mask = routed & (self.outcome == OUTCOME_DEGRADED_LOCAL)
        drop_mask = routed & (self.outcome == OUTCOME_DROPPED)
        return FaultSummary(
            requests_local=int(np.count_nonzero(local_mask)),
            requests_dropped=int(np.count_nonzero(drop_mask)),
            requests_retried=int(np.count_nonzero(routed & (self.attempts > 1))),
            requests_failed_over=int(np.count_nonzero(routed & self.rerouted)),
            failed_attempts=int(
                (self.attempts[routed] - (self.outcome[routed] == OUTCOME_OK)).sum()
            ),
            local_response_ms=(
                self.extra_latency_ms[local_mask] + self.local_ms[local_mask]
            ),
            local_user_counts=np.bincount(
                plan.user_ids[local_mask], minlength=users
            ),
            dropped_user_counts=np.bincount(
                plan.user_ids[drop_mask], minlength=users
            ),
        )


def _window_factor(
    spec: FaultSpec, t_ms: np.ndarray, duration_ms: float
) -> np.ndarray:
    """Max degraded-window RTT multiplier containing each time (1 outside)."""
    factor = np.ones(t_ms.size, dtype=float)
    for window in spec.degraded_windows:
        inside = (t_ms >= window.start * duration_ms) & (
            t_ms < window.end * duration_ms
        )
        factor[inside] = np.maximum(factor[inside], window.rtt_multiplier)
    return factor


def _attempt_failure_probability(
    spec: FaultSpec,
    t_ms: np.ndarray,
    duration_ms: float,
    site_ids: Optional[np.ndarray],
    site_index_of_name,
) -> np.ndarray:
    """Per-request failure probability of an attempt starting at ``t_ms``.

    The baseline probability, degraded-window surcharges and preemption kill
    probabilities add (clipped to 1) — backing off past a window's end
    genuinely lowers the next attempt's hazard, which is what makes the
    exponential backoff *mechanically* useful rather than cosmetic.
    """
    p = np.full(t_ms.size, spec.offload_failure_probability, dtype=float)
    for window in spec.degraded_windows:
        if window.failure_probability <= 0.0:
            continue
        inside = (t_ms >= window.start * duration_ms) & (
            t_ms < window.end * duration_ms
        )
        p[inside] += window.failure_probability
    for window in spec.preemptions:
        if window.kill_probability <= 0.0:
            continue
        inside = (t_ms >= window.start * duration_ms) & (
            t_ms < window.end * duration_ms
        )
        if window.site is not None:
            if site_ids is None:
                # Validated away by ScenarioSpec; tolerate for hand-built use.
                continue
            inside &= site_ids == site_index_of_name(window.site)
        p[inside] += window.kill_probability
    return np.clip(p, 0.0, 1.0)


def build_fault_overlay(
    *,
    plan: RequestPlan,
    faults: FaultSpec,
    duration_ms: float,
    rng: np.random.Generator,
    site_ids: Optional[np.ndarray] = None,
    site_names: Sequence[str] = (),
) -> FaultOverlay:
    """Walk every request's retry ladder and materialise the verdicts.

    ``site_ids`` is the plan-time site assignment (static multi-site
    brokering) and scopes site-named preemption windows; without it only
    global fault processes apply.  The ladder per request: attempt at
    ``T_1 = arrival``; a failed attempt burns the failure-detection time
    (stretched by any degraded window at the attempt instant, capped by the
    per-attempt timeout), then — if attempts remain — waits out the jittered
    exponential backoff and re-attempts at the shifted instant.  Exhausted
    requests degrade to local execution or drop, per the policy.
    """
    n = len(plan)
    retry = faults.retry
    attempts = np.ones(n, dtype=np.int64)
    outcome = np.full(n, OUTCOME_OK, dtype=np.int8)
    extra = np.zeros(n, dtype=float)
    t_attempt = plan.arrival_ms.astype(float).copy()
    final_t = t_attempt.copy()
    pending = np.ones(n, dtype=bool)

    names = list(site_names)

    def site_index_of_name(name: str) -> int:
        return names.index(name)

    for round_index in range(retry.max_attempts):
        if not np.any(pending):
            break
        u_fail = rng.random(n)
        v_jitter = rng.random(n)
        p = _attempt_failure_probability(
            faults, t_attempt, duration_ms, site_ids, site_index_of_name
        )
        failed = pending & (u_fail < p)
        succeeded = pending & ~failed
        final_t[succeeded] = t_attempt[succeeded]
        pending = failed
        if not np.any(failed):
            break
        waste = np.minimum(
            faults.failure_detection_ms * _window_factor(faults, t_attempt, duration_ms),
            retry.attempt_timeout_ms,
        )
        extra[failed] += waste[failed]
        if round_index < retry.max_attempts - 1:
            backoff = (
                retry.backoff_base_ms
                * retry.backoff_multiplier**round_index
                * (1.0 + retry.backoff_jitter * (2.0 * v_jitter - 1.0))
            )
            delay = waste + backoff
            extra[failed] += backoff[failed]
            t_attempt[failed] += delay[failed]
            attempts[failed] += 1
            final_t[failed] = t_attempt[failed]

    if np.any(pending):
        outcome[pending] = (
            OUTCOME_DEGRADED_LOCAL if retry.local_fallback else OUTCOME_DROPPED
        )

    return FaultOverlay(
        spec=faults,
        duration_ms=float(duration_ms),
        attempts=attempts,
        outcome=outcome,
        extra_latency_ms=extra,
        rtt_factor=_window_factor(faults, final_t, duration_ms),
        final_attempt_ms=final_t,
        rerouted=np.zeros(n, dtype=bool),
        killed=np.zeros(n, dtype=bool),
        local_ms=np.zeros(n, dtype=float),
    )


class MultisiteFaultPlane:
    """Slot-boundary fault processing shared by both multi-site executors.

    One instance rides along ``run_slot_brokering``: after the broker assigns
    a slot window it (1) kills requests that would still be in flight at an
    outage onset (strict semantics — the satellite fix; ``lenient_outages``
    restores the historical drain-through behaviour), (2) fails killed and
    ``reroute_on_retry`` requests over to the next spill-ranked available
    site, (3) re-applies degraded RTT factors once the dynamic broker has
    sampled the serving site's network draws, and (4) delays/loses the load
    snapshots the dynamic broker consumes.  Every step runs exactly once per
    slot in identical order in both execution modes, so the fault plane can
    never diverge across them.
    """

    def __init__(
        self,
        *,
        overlay: FaultOverlay,
        federation_spec: MultiSiteSpec,
        duration_ms: float,
        access_rtt_ms: np.ndarray,
        home_site_of_user: np.ndarray,
        control_rng: Optional[np.random.Generator] = None,
    ) -> None:
        from repro.multisite.broker import wan_penalty_matrix

        self.overlay = overlay
        self.spec = overlay.spec
        self.sites = federation_spec.sites
        self.duration_ms = float(duration_ms)
        self.home = np.asarray(home_site_of_user, dtype=np.int64)
        self.penalty = wan_penalty_matrix(self.sites)
        rtt = np.asarray(access_rtt_ms, dtype=float)[None, :] + self.penalty
        # Failover preference: per home site, candidate sites by expected RTT
        # — the same nearest-rtt ranking the dynamic broker spills with.
        self._rank = np.argsort(rtt, axis=1, kind="stable").astype(np.int64)
        # Outage onsets per site (absolute ms), for the in-flight kill test.
        self._onsets = [
            np.asarray(
                [window.start * self.duration_ms for window in site.outages],
                dtype=float,
            )
            for site in self.sites
        ]
        self.strict_outages = not self.spec.lenient_outages and any(
            onsets.size for onsets in self._onsets
        )
        # Kill-proxy service model: the profile each site would serve a user
        # group with (the site's clamp of the group), from the *declared*
        # catalog — deterministic from the spec, identical across modes.
        max_group = max(max(site.cloud.group_types) for site in self.sites)
        self._speed = np.ones((len(self.sites), max_group + 1), dtype=float)
        self._jitter_fraction = np.zeros_like(self._speed)
        self._lowest_group = np.zeros(len(self.sites), dtype=np.int64)
        for index, site in enumerate(self.sites):
            declared = sorted(int(group) for group in site.cloud.group_types)
            self._lowest_group[index] = declared[0]
            for group in range(max_group + 1):
                if group in declared:
                    serving = group
                else:
                    higher = [level for level in declared if level > group]
                    serving = higher[0] if higher else declared[-1]
                profile = DEFAULT_CATALOG.get(
                    site.cloud.group_types[serving]
                ).profile
                self._speed[index, group] = profile.speed_factor
                self._jitter_fraction[index, group] = profile.jitter_fraction
        # Control-plane staleness state (dynamic broker only).
        self._control_rng = control_rng
        self._snapshot_log: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._last_delivered: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = None
        self.outage_kills = 0
        self.snapshots_lost = 0

    # -- control-plane staleness ---------------------------------------------

    def stale_snapshots(
        self,
        capacity: np.ndarray,
        remaining_cap: np.ndarray,
        admission: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Degrade the broker's live-state delivery per the control-plane spec.

        The fresh snapshot is logged, then the broker receives the one from
        ``snapshot_delay_slots`` boundaries ago — unless this boundary's
        delivery is lost, in which case it re-plans against whatever it
        received last.  One uniform draw per boundary, from the dedicated
        control stream, drawn in the shared slot step so both executors
        consume it identically.  Availability truth stays fresh: the broker
        checks outages itself, only load telemetry is stale.
        """
        control = self.spec.control_plane
        if control is None:
            return capacity, remaining_cap, admission
        self._snapshot_log.append((capacity, remaining_cap, admission))
        lost = (
            self._control_rng is not None
            and float(self._control_rng.random())
            < control.snapshot_loss_probability
        )
        if lost and self._last_delivered is not None:
            self.snapshots_lost += 1
            return self._last_delivered
        index = max(0, len(self._snapshot_log) - 1 - control.snapshot_delay_slots)
        self._last_delivered = self._snapshot_log[index]
        return self._last_delivered

    # -- slot-window fault processing ------------------------------------------

    def process_window(
        self,
        slot_broker,
        plan: RequestPlan,
        i0: int,
        i1: int,
        group_of_user: Optional[np.ndarray] = None,
    ) -> None:
        """Apply outage kills and failover to one freshly-brokered window."""
        overlay = self.overlay
        retry = self.spec.retry
        site_ids = slot_broker.site_ids
        window_sites = site_ids[i0:i1]
        window_outcome = overlay.outcome[i0:i1]

        if self.strict_outages:
            uids = plan.user_ids[i0:i1]
            if group_of_user is not None:
                groups = np.asarray(group_of_user, dtype=np.int64)[uids]
            else:
                groups = self._lowest_group[self.home[uids]]
            groups = np.clip(groups, 0, self._speed.shape[1] - 1)
            for site_index, onsets in enumerate(self._onsets):
                if onsets.size == 0:
                    continue
                picks = np.flatnonzero(
                    (window_sites == site_index)
                    & (window_outcome == OUTCOME_OK)
                )
                if picks.size == 0:
                    continue
                absolute = picks + i0
                # Zero-queue proxy for "in flight at onset": dispatched before
                # the onset, nominal service (the serving group's profile over
                # the pre-drawn work/jitter) still running at it.  The real
                # queueing delay differs per executor, so the proxy is what
                # keeps the kill set identical across modes.
                dispatch = plan.arrival_ms[absolute] + plan.routing_ms[absolute]
                effective = jittered_work_units(
                    plan.work_units[absolute],
                    plan.jitter_z[absolute],
                    self._jitter_fraction[site_index, groups[picks]],
                )
                completion = dispatch + effective / self._speed[
                    site_index, groups[picks]
                ]
                killed = np.zeros(picks.size, dtype=bool)
                kill_onset = np.zeros(picks.size, dtype=float)
                for onset in onsets:
                    hit = ~killed & (dispatch < onset) & (completion >= onset)
                    killed |= hit
                    kill_onset[hit] = onset
                for position in np.flatnonzero(killed):
                    self._resolve_kill(
                        slot_broker,
                        plan,
                        int(absolute[position]),
                        site_index,
                        float(kill_onset[position]),
                    )

        if retry.reroute_on_retry:
            candidates = np.flatnonzero(
                (window_outcome == OUTCOME_OK)
                & (overlay.attempts[i0:i1] > 1)
                & (window_sites >= 0)
                & ~overlay.rerouted[i0:i1]
                & ~overlay.killed[i0:i1]
            )
            for position in candidates:
                index = int(i0 + position)
                target = self._failover_target(
                    int(plan.user_ids[index]),
                    int(site_ids[index]),
                    float(overlay.final_attempt_ms[index]),
                )
                if target is not None:
                    overlay.rerouted[index] = True
                    self._move(slot_broker, plan, index, target)

        # The realised per-site slot counts: requests that actually dispatch
        # to a site (degraded/dropped ones never do).
        window_sites = site_ids[i0:i1]
        served = window_sites[
            (window_sites >= 0) & (overlay.outcome[i0:i1] == OUTCOME_OK)
        ]
        if slot_broker.slot_site_requests:
            slot_broker.slot_site_requests[-1] = np.bincount(
                served, minlength=len(self.sites)
            )

    def apply_network_factor(self, plan: RequestPlan, i0: int, i1: int) -> None:
        """Degraded-RTT application for a dynamically-sampled slot window."""
        self.overlay.apply_network_factor(plan, i0, i1)

    # -- internals -------------------------------------------------------------

    def _resolve_kill(
        self, slot_broker, plan: RequestPlan, index: int, site_index: int, onset: float
    ) -> None:
        """One in-flight request killed by an outage onset: re-route or degrade.

        An outage-killed request always tries the failover path when attempts
        remain (its serving replica is *gone* — retrying in place would be
        meaningless, so ``reroute_on_retry`` is not required); the re-issued
        attempt dispatches after the onset plus detection and backoff.  The
        backoff is deterministic here (no jitter draw): kills are resolved at
        slot boundaries, after the build-time draw discipline is sealed, and
        an extra draw would break positional stability.
        """
        overlay = self.overlay
        retry = self.spec.retry
        base_routing = plan.routing_ms[index] - overlay.extra_latency_ms[index]
        elapsed = onset - float(plan.arrival_ms[index])
        overlay.killed[index] = True
        self.outage_kills += 1
        if overlay.attempts[index] < retry.max_attempts:
            target = self._failover_target(
                int(plan.user_ids[index]), site_index, onset
            )
            if target is not None:
                delay = (
                    min(self.spec.failure_detection_ms, retry.attempt_timeout_ms)
                    + retry.backoff_base_ms
                    * retry.backoff_multiplier ** (int(overlay.attempts[index]) - 1)
                )
                overlay.attempts[index] += 1
                overlay.rerouted[index] = True
                overlay.final_attempt_ms[index] = onset + delay
                # Re-dispatch after the onset: the time already burned plus
                # detection/backoff becomes routing overhead, shifting
                # dispatch and response identically in both executors.
                plan.routing_ms[index] = elapsed + delay
                overlay.extra_latency_ms[index] = (
                    plan.routing_ms[index] - base_routing
                )
                self._move(slot_broker, plan, index, target)
                return
        overlay.outcome[index] = (
            OUTCOME_DEGRADED_LOCAL if retry.local_fallback else OUTCOME_DROPPED
        )
        # Time burned between arrival and the kill precedes the fallback.
        overlay.extra_latency_ms[index] = elapsed

    def _failover_target(
        self, user_id: int, current_site: int, t_ms: float
    ) -> Optional[int]:
        """The first spill-ranked site (for the user's home) available at ``t_ms``."""
        for candidate in self._rank[int(self.home[user_id])]:
            candidate = int(candidate)
            if candidate == current_site:
                continue
            if self.sites[candidate].available_at(t_ms, self.duration_ms):
                return candidate
        return None

    def _move(
        self, slot_broker, plan: RequestPlan, index: int, target: int
    ) -> None:
        """Re-home one request onto ``target``, fixing the WAN penalty.

        Dynamic brokers sample the window's network *after* this step, so the
        request simply picks up the new site's draws; static brokers sampled
        at plan time, so the T1 already on the plan is adjusted by the WAN
        penalty delta (scaled by any degraded factor already applied).
        """
        new_extra = float(
            self.penalty[int(self.home[int(plan.user_ids[index])]), target]
        )
        if not slot_broker.samples_network:
            old_extra = float(slot_broker.extra_rtt_ms[index])
            plan.t1_ms[index] += (new_extra - old_extra) * float(
                self.overlay.rtt_factor[index]
            )
        slot_broker.extra_rtt_ms[index] = new_extra
        slot_broker.site_ids[index] = target
