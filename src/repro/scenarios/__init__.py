"""repro.scenarios — declarative scenario engine and parallel campaign runner.

The paper evaluates eight hand-coded figure experiments; this package opens
the reproduction to arbitrary workloads.  A
:class:`~repro.scenarios.spec.ScenarioSpec` declares a complete deployment
(arrival pattern, device mix, cloud catalog and pricing, network profile,
prediction/promotion/routing policies, duration, seed) as plain data; the
runner composes the existing ``workload``/``mobile``/``cloud``/``network``/
``sdn``/``core`` components into a full discrete-event simulation from it;
and the :class:`~repro.scenarios.campaign.CampaignRunner` executes many
scenarios across worker processes and renders a cross-scenario comparison
table.

Quick start
-----------
>>> from repro.scenarios import get_scenario, run_scenario
>>> result = run_scenario(get_scenario("paper-baseline"), seed=0)
>>> result.requests_total > 0
True
"""

from repro.scenarios.campaign import (
    CampaignResult,
    CampaignRunner,
    derive_scenario_seed,
)
from repro.scenarios.registry import (
    builtin_specs,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.plan import RequestPlan, build_request_plan
from repro.scenarios.runner import (
    ScenarioResult,
    SiteResult,
    build_arrival_process,
    run_scenario,
)
from repro.scenarios.spec import (
    ARRIVAL_PATTERNS,
    EXECUTION_MODES,
    NETWORK_PROFILES,
    PROMOTION_POLICIES,
    ROUTING_POLICIES,
    CloudSpec,
    DeviceMixSpec,
    NetworkSpec,
    PolicySpec,
    ScenarioSpec,
    WorkloadSpec,
)

__all__ = [
    "ARRIVAL_PATTERNS",
    "EXECUTION_MODES",
    "NETWORK_PROFILES",
    "PROMOTION_POLICIES",
    "ROUTING_POLICIES",
    "RequestPlan",
    "build_request_plan",
    "CampaignResult",
    "CampaignRunner",
    "CloudSpec",
    "DeviceMixSpec",
    "NetworkSpec",
    "PolicySpec",
    "ScenarioResult",
    "ScenarioSpec",
    "SiteResult",
    "WorkloadSpec",
    "build_arrival_process",
    "builtin_specs",
    "derive_scenario_seed",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "scenario_names",
]
