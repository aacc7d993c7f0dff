"""Per-control-slot time series behind the telemetry facade.

The registry (:mod:`repro.telemetry.registry`) folds a run into endpoint
sums; the recorder keeps the *trajectory*: one value per provisioning slot
per named series, exactly slot-aligned between the event and batched
executors.  Two sources feed it:

* **Live fleet samples** — the executors call :meth:`SlotSeriesRecorder.sample_fleet`
  once per slot boundary, right after that stack's scaling actions, so the
  instance counts and boot states are the fleet exactly as the autoscaler
  left it.  Per-site stacks sample under a ``site.<name>`` prefix.
* **Fold-time ingestion** — everything else (arrival counts, broker routing
  shares and spill counts, fluid backlog and admission headroom from the
  broker's load history, fault verdicts attributed to their arrival slot) is
  read once at ``stats.fold`` from state the run accumulated anyway, guarded
  by ``telemetry.enabled``.

Every series value is a **simulated** quantity: same seed, same bytes, in
either execution mode (wall time stays in the tracer).  The disabled path is
the usual null object — one attribute access plus a no-op call per slot,
never per request — so results stay bit-identical with recording on or off.

Series name glossary (single-site names; multi-site adds ``site.<name>.``
prefixed variants and the broker series):

==================================  =============================================
series                              per-slot meaning
==================================  =============================================
slot.requests                       requests that *arrived* in the slot window
fleet.instances_running             ready instances right after the slot's scaling
fleet.instances_booting             launched but still booting at the boundary
fleet.instances_launched            cumulative launches up to the boundary
site.<name>.requests                requests the broker routed to the site
site.<name>.routing_share           the site's fraction of the slot's routed load
site.<name>.backlog_work_units      broker's fluid backlog estimate at the boundary
site.<name>.in_flight_requests      broker's fluid in-flight estimate
site.<name>.admission_headroom      remaining admission capacity (requests)
broker.spilled                      mid-slot cross-site spill diversions
faults.retried                      arrivals that needed >= 1 retry
faults.failed_over                  arrivals re-routed by retry/outage failover
faults.degraded_local               arrivals that fell back to on-device execution
faults.dropped                      arrivals that exhausted retries with no fallback
==================================  =============================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np


class NullSlotSeriesRecorder:
    """The disabled recorder: every operation is a shared no-op."""

    enabled = False

    def sample_fleet(self, slot: int, provisioner, prefix: str = "") -> None:
        pass

    def append(self, name: str, slot: int, value: float) -> None:
        pass

    def ingest_plan(self, plan, *, slot_ms: float, periods: int) -> None:
        pass

    def ingest_broker(self, broker, site_names: Sequence[str]) -> None:
        pass

    def ingest_faults(
        self, overlay, plan, *, slot_ms: float, periods: int, site_ids=None
    ) -> None:
        pass

    def as_dict(self) -> Dict[str, object]:
        return {"slots": 0, "series": {}}


#: The process-wide disabled recorder (stateless, safe to share).
NULL_RECORDER = NullSlotSeriesRecorder()


class SlotSeriesRecorder:
    """Collects named per-slot series for one run.

    Series are plain ``name -> list of floats`` with one entry per
    provisioning slot, appended in slot order.  ``append`` asserts the slot
    index matches the series length so misaligned instrumentation fails
    loudly instead of silently shifting a trajectory.
    """

    enabled = True

    def __init__(self) -> None:
        self._series: Dict[str, List[float]] = {}

    def series(self, name: str) -> List[float]:
        values = self._series.get(name)
        if values is None:
            values = self._series[name] = []
        return values

    def append(self, name: str, slot: int, value: float) -> None:
        """Append ``value`` as slot ``slot`` of series ``name`` (in order)."""
        values = self.series(name)
        if len(values) != slot:
            raise ValueError(
                f"series {name!r} expected slot {len(values)}, got {slot}"
            )
        values.append(float(value))

    def set_series(self, name: str, values: "np.ndarray | Sequence[float]") -> None:
        """Replace series ``name`` wholesale (the fold-time ingestion path)."""
        self._series[name] = [float(value) for value in values]

    # -- live sampling (called by the executors, once per slot) ---------------

    def sample_fleet(self, slot: int, provisioner, prefix: str = "") -> None:
        """Record one serving stack's fleet state at a slot boundary.

        Called right after the stack's scaling actions for the slot, so both
        executors observe the identical post-scaling fleet (the engine clock
        sits exactly on the boundary in either mode).  ``provisioner``
        duck-types :class:`~repro.cloud.provisioner.Provisioner`.
        """
        dot = f"{prefix}." if prefix else ""
        ready = provisioner.running_count
        total = len(provisioner.running_instances)
        self.append(f"{dot}fleet.instances_running", slot, float(ready))
        self.append(f"{dot}fleet.instances_booting", slot, float(total - ready))
        self.append(
            f"{dot}fleet.instances_launched", slot, float(provisioner.launched_count)
        )

    # -- fold-time ingestion (called at stats.fold, telemetry.enabled only) ---

    def _slot_counts(
        self, values_ms: np.ndarray, mask, *, slot_ms: float, periods: int
    ) -> np.ndarray:
        """Count masked arrival instants per provisioning slot."""
        picked = values_ms if mask is None else values_ms[mask]
        slots = np.minimum(
            (picked / slot_ms).astype(np.int64), periods - 1
        )
        return np.bincount(slots, minlength=periods)

    def ingest_plan(self, plan, *, slot_ms: float, periods: int) -> None:
        """Per-slot arrival counts from the shared pre-drawn request plan."""
        self.set_series(
            "slot.requests",
            self._slot_counts(plan.arrival_ms, None, slot_ms=slot_ms, periods=periods),
        )

    def ingest_broker(self, broker, site_names: Sequence[str]) -> None:
        """Routing, spill and fluid-state series from a slot broker's history.

        ``broker`` duck-types the slot brokers of :mod:`repro.multisite.broker`:
        ``slot_site_requests`` (one per-site request vector per slot),
        ``slot_spilled``, and — for the dynamic policy — ``load_history``
        (one :class:`~repro.multisite.broker.SiteLoadState` tuple per
        boundary).
        """
        per_slot = list(broker.slot_site_requests)
        if per_slot:
            matrix = np.asarray(per_slot, dtype=float)
            totals = matrix.sum(axis=1)
            safe = np.where(totals > 0, totals, 1.0)
            for index, name in enumerate(site_names):
                self.set_series(f"site.{name}.requests", matrix[:, index])
                self.set_series(
                    f"site.{name}.routing_share",
                    np.where(totals > 0, matrix[:, index] / safe, 0.0),
                )
        spilled = list(getattr(broker, "slot_spilled", ()))
        if spilled:
            self.set_series("broker.spilled", spilled)
        history = list(getattr(broker, "load_history", ()))
        if history:
            for index, name in enumerate(site_names):
                states = [boundary[index] for boundary in history]
                self.set_series(
                    f"site.{name}.backlog_work_units",
                    [state.backlog_work_units for state in states],
                )
                self.set_series(
                    f"site.{name}.in_flight_requests",
                    [state.in_flight_requests for state in states],
                )
                self.set_series(
                    f"site.{name}.admission_headroom",
                    [float(state.admission_capacity_requests) for state in states],
                )

    def ingest_faults(
        self,
        overlay,
        plan,
        *,
        slot_ms: float,
        periods: int,
        site_ids: Optional[np.ndarray] = None,
    ) -> None:
        """Fault verdicts attributed to the slot each request *arrived* in.

        Mirrors :meth:`~repro.faults.overlay.FaultOverlay.fault_summary`:
        ``site_ids`` (multi-site runs) filters out broker-unrouted requests,
        which were dropped before the fault plane could see them.
        """
        from repro.faults.overlay import OUTCOME_DEGRADED_LOCAL, OUTCOME_DROPPED

        routed = (
            np.ones(len(plan), dtype=bool) if site_ids is None else site_ids >= 0
        )
        arrivals = plan.arrival_ms
        for name, mask in (
            ("faults.retried", routed & (overlay.attempts > 1)),
            ("faults.failed_over", routed & overlay.rerouted),
            (
                "faults.degraded_local",
                routed & (overlay.outcome == OUTCOME_DEGRADED_LOCAL),
            ),
            ("faults.dropped", routed & (overlay.outcome == OUTCOME_DROPPED)),
        ):
            self.set_series(
                name,
                self._slot_counts(arrivals, mask, slot_ms=slot_ms, periods=periods),
            )

    # -- exports --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._series)

    def names(self) -> List[str]:
        return sorted(self._series)

    def slots(self) -> int:
        """The longest recorded series length (0 when nothing was recorded)."""
        return max((len(values) for values in self._series.values()), default=0)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly export: series sorted by name, values as plain floats."""
        return {
            "slots": self.slots(),
            "series": {name: list(self._series[name]) for name in sorted(self._series)},
        }
