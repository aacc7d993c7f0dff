"""Per-layer host time measured from outside the simulator.

:class:`LayerTracer` wraps the simulator's public entry points, one layer
each, and keeps a stack of open spans so every layer gets its *self* time:
the wrapper's duration minus that of the wrapped layers it calls (the event
engine's run, for example, calls the control plane from its callbacks).
Counts are taken at the same boundaries.  Nothing is wrapped per request;
the finest wrapped call is one engine chunk or one slot-level function.

Function layers are patched in every ``repro`` module that holds the
original object, because runners import them by name; method layers are
patched on their class.  :meth:`LayerTracer.restore` puts every binding
back and :meth:`LayerTracer.leaks` proves it did.

The root wrapper around ``run_scenario`` also hands each run the program's
own ``Telemetry`` collector, so one traced run yields both the outside self
times and the program's ``phase_rows`` for the cross-check.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Layer -> its self-time metric (seconds), in report order.
#: ``runner.setup`` is the runner's own time before its first plan call
#: (``build_catalog`` / ``build_federation``); ``runner.other`` is all
#: remaining unwrapped time (fold, moderator feedback, campaign bookkeeping).
LAYERS = {
    "runner.setup": "runner.setup_s",
    "plan": "plan.build_s",
    "faults": "faults.build_s",
    "batched.serve": "batched.serve_s",
    "batched.admission": "batched.admission_s",
    "engine": "engine.run_s",
    "control": "control.scale_s",
    "prediction": "prediction.predict_s",
    "allocation": "allocation.solve_s",
    "broker": "broker.slot_s",
    "runner.other": "runner.other_s",
}

#: Program tracer phase -> the outside layers covering the same code.  The
#: event engine's final drain chunk is ``slot.drain`` inside the program.
CROSSCHECK = {
    "plan.generate": (("plan.generate",), ("plan",)),
    "slot.serve": (
        ("slot.serve", "slot.drain"),
        ("batched.serve", "batched.admission", "engine"),
    ),
    "slot.control": (("slot.control",), ("control", "prediction", "allocation")),
    "slot.broker": (("slot.broker",), ("broker",)),
}
#: Phases whose span on the batched path also holds code no wrapper covers
#: (``slot.serve``: the per-user moderator feedback and tallying;
#: ``slot.control``: building the observed slot and ``observe_slot``).  On a
#: batched run the outside time of these is only a lower bound of the
#: program's, so they are reported as ``outside <= inside``, not as a gap.
PARTIAL_ON_BATCHED = ("slot.serve", "slot.control")


class _Span:
    __slots__ = ("tracer", "layer", "start", "children_s")

    def __init__(self, tracer: "LayerTracer", layer: str) -> None:
        self.tracer = tracer
        self.layer = layer

    def __enter__(self) -> "_Span":
        self.children_s = 0.0
        self.tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self.start
        stack = self.tracer._stack
        stack.pop()
        self.tracer.self_s[self.layer] += elapsed - self.children_s
        if stack:
            stack[-1].children_s += elapsed


class LayerTracer:
    """Wraps the simulator's layer entry points and accumulates self times."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.phase_self_ms: Dict[str, float] = defaultdict(float)
        self._stack: List[_Span] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._wrappers: List[Callable] = []
        self._overlays: list = []
        self._run_entry = None

    def span(self, layer: str) -> _Span:
        return _Span(self, layer)

    # -- patching ------------------------------------------------------------

    def _patch_function(self, module, name: str, make: Callable) -> None:
        original = getattr(module, name)
        wrapper = make(original)
        self._wrappers.append(wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, name: str, make: Callable) -> None:
        original = vars(cls)[name]
        wrapper = make(original)
        self._wrappers.append(wrapper)
        self._patches.append((cls, name, original))
        setattr(cls, name, wrapper)

    def _timed(self, layer: str, count: str = "") -> Callable:
        """A wrapper factory: time ``layer``, optionally count calls."""

        def make(original):
            def wrapper(*args, **kwargs):
                if count:
                    self.counts[count] += 1
                with self.span(layer):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def install(self) -> None:
        """Wrap every layer entry point (imports the modules first)."""
        import repro.faults.overlay as overlay_mod
        import repro.multisite.runner as multisite_runner
        import repro.scenarios.batched as batched
        import repro.scenarios.plan as plan_mod
        import repro.scenarios.runner as runner
        from repro.core.allocation import IlpAllocator
        from repro.core.prediction import WorkloadPredictor
        from repro.scenarios.campaign import CampaignRunner
        from repro.sdn.autoscaler import Autoscaler
        from repro.simulation.engine import SimulationEngine
        from repro.telemetry import Telemetry

        tracer = self

        def make_run_scenario(original):
            def run_scenario(spec, *args, **kwargs):
                telemetry = kwargs.get("telemetry")
                if telemetry is None:
                    telemetry = kwargs["telemetry"] = Telemetry()
                tracer._run_entry = time.perf_counter()
                with tracer.span("runner"):
                    result = original(spec, *args, **kwargs)
                for row in telemetry.tracer.phase_rows():
                    tracer.phase_self_ms[row["phase"]] += float(row["self_ms"])
                if result.sites:
                    tracer.counts["runner.ledger_gap_requests"] += (
                        result.requests_total
                        - result.requests_unrouted
                        - sum(site.requests_total for site in result.sites)
                    )
                return result

            return run_scenario

        def make_plan(original):
            def build_request_plan(*args, **kwargs):
                if tracer._run_entry is not None:
                    # Runner time before its first plan call is set-up; no
                    # wrapped layer runs in that interval.
                    tracer.self_s["runner.setup"] += (
                        time.perf_counter() - tracer._run_entry
                    )
                    tracer._run_entry = None
                with tracer.span("plan"):
                    plan = original(*args, **kwargs)
                tracer.counts["plan.calls"] += 1
                tracer.counts["plan.requests"] += len(plan)
                return plan

            return build_request_plan

        def make_overlay(original):
            def build_fault_overlay(*args, **kwargs):
                with tracer.span("faults"):
                    overlay = original(*args, **kwargs)
                tracer._overlays.append(overlay)
                return overlay

            return build_fault_overlay

        def make_engine_run(original):
            def run(engine, *args, **kwargs):
                processed = engine.processed_events
                cancelled = engine.cancelled_events
                with tracer.span("engine"):
                    out = original(engine, *args, **kwargs)
                tracer.counts["engine.events"] += engine.processed_events - processed
                tracer.counts["engine.cancelled"] += engine.cancelled_events - cancelled
                return out

            return run

        def make_brokering(original):
            def run_slot_brokering(slot_broker, *args, **kwargs):
                with tracer.span("broker"):
                    window = original(slot_broker, *args, **kwargs)
                tracer.counts["broker.slots"] += 1
                tracer.counts["broker.spilled"] += slot_broker.slot_spilled[-1]
                return window

            return run_slot_brokering

        self._patch_function(runner, "run_scenario", make_run_scenario)
        self._patch_function(plan_mod, "build_request_plan", make_plan)
        self._patch_function(overlay_mod, "build_fault_overlay", make_overlay)
        self._patch_function(
            batched, "serve_slot_requests", self._timed("batched.serve", "batched.serve_calls")
        )
        self._patch_function(batched, "sequential_admission", self._timed("batched.admission"))
        self._patch_function(batched, "fcfs_completions", self._timed("batched.admission"))
        self._patch_function(multisite_runner, "run_slot_brokering", make_brokering)
        self._patch_method(SimulationEngine, "run", make_engine_run)
        # run_period_end calls scale_for_slot, so slots are counted once.
        self._patch_method(Autoscaler, "scale_for_slot", self._timed("control", "control.slots"))
        self._patch_method(Autoscaler, "run_period_end", self._timed("control"))
        self._patch_method(WorkloadPredictor, "predict", self._timed("prediction", "prediction.calls"))
        self._patch_method(IlpAllocator, "allocate", self._timed("allocation", "allocation.decisions"))
        self._patch_method(CampaignRunner, "run", self._timed("runner.other"))

    def restore(self) -> None:
        """Put every patched binding back, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def leaks(self) -> List[str]:
        """Bindings still pointing at a wrapper (empty after a clean restore)."""
        problems = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]
        wrapper_ids = {id(wrapper) for wrapper in self._wrappers}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapper_ids:
                    problems.append(f"{mod_name}.{attr}")
                if isinstance(value, type):
                    for member, item in list(vars(value).items()):
                        if id(item) in wrapper_ids:
                            problems.append(f"{mod_name}.{value.__name__}.{member}")
        return sorted(set(problems))

    # -- report --------------------------------------------------------------

    def report(self) -> Dict[str, float]:
        """Self times (s), counts and the cross-check, as flat metrics."""
        from repro.faults.overlay import OUTCOME_DEGRADED_LOCAL

        self_s = dict(self.self_s)
        self_s["runner.other"] = (
            self_s.get("runner.other", 0.0)
            + self_s.get("runner", 0.0)
            - self_s.get("runner.setup", 0.0)
        )
        counts = self.counts
        events = counts["engine.events"]
        requests = counts["plan.requests"]
        decisions = counts["allocation.decisions"]
        metrics: Dict[str, float] = {
            metric: self_s.get(layer, 0.0) for layer, metric in LAYERS.items()
        }
        metrics.update(
            {
                "plan.calls": counts["plan.calls"],
                "plan.requests": requests,
                "faults.retried": sum(int((o.attempts > 1).sum()) for o in self._overlays),
                "faults.local_fallback": sum(
                    int((o.outcome == OUTCOME_DEGRADED_LOCAL).sum()) for o in self._overlays
                ),
                "batched.serve_calls": counts["batched.serve_calls"],
                "engine.events": events,
                "engine.events_per_request": events / requests if requests else 0.0,
                "engine.us_per_event": 1e6 * self_s.get("engine", 0.0) / events if events else 0.0,
                "engine.cancelled_frac": (
                    counts["engine.cancelled"] / (events + counts["engine.cancelled"])
                    if events
                    else 0.0
                ),
                "control.slots": counts["control.slots"],
                "prediction.calls": counts["prediction.calls"],
                "allocation.decisions": decisions,
                "allocation.ms_per_decision": (
                    1e3 * self_s.get("allocation", 0.0) / decisions if decisions else 0.0
                ),
                "broker.slots": counts["broker.slots"],
                "broker.spilled": counts["broker.spilled"],
                "runner.ledger_gap_requests": counts["runner.ledger_gap_requests"],
            }
        )
        gaps = {}
        lower_bounds = {}
        batched = counts["batched.serve_calls"] > 0
        for phase, (inside_phases, outside_layers) in CROSSCHECK.items():
            inside_ms = sum(self.phase_self_ms.get(name, 0.0) for name in inside_phases)
            outside_ms = 1e3 * sum(self_s.get(layer, 0.0) for layer in outside_layers)
            if inside_ms <= 0.0:
                continue
            if batched and phase in PARTIAL_ON_BATCHED:
                lower_bounds[phase] = (outside_ms, inside_ms)
            else:
                gaps[phase] = 100.0 * abs(outside_ms - inside_ms) / inside_ms
        metrics["crosscheck"] = gaps
        metrics["crosscheck_lower_bounds"] = lower_bounds
        return metrics
