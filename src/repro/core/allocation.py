"""Dynamic resource allocation by integer linear programming (Section IV-C).

Given the predicted per-group workload ``W = Σ W_{a_n}`` the model minimises
the cost of the instances allocated to handle it:

    minimise    Σ_s x_s · c_s
    subject to  Σ_{s ∈ group n} x_s · K_s  >  W_{a_n}      for every group a_n
                Σ_s x_s  <  CC                              (account cap)
                x_s ∈ {0, 1, 2, ...}

where ``c_s`` is the hourly price of instance type ``s``, ``K_s`` its
benchmarked capacity in requests (users) per provisioning period, and ``CC``
the cloud vendor's cap on simultaneously running instances (20 for a standard
Amazon account).

Two solvers are provided with identical interfaces:

* :class:`IlpAllocator` — exact optimisation by a pure-Python branch-and-bound
  (per acceleration group: since groups do not share instances the problem
  decomposes into independent small knapsack-style subproblems coupled only
  by the instance cap).
* :class:`GreedyAllocator` — a cost-per-capacity greedy baseline used by the
  ablation benchmarks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


class AllocationError(RuntimeError):
    """Raised when no feasible allocation exists for a problem."""


@dataclass(frozen=True)
class InstanceOption:
    """One allocatable instance type as seen by the allocator.

    ``capacity`` is ``K_s``: how many users (requests per provisioning period)
    one instance of this type can serve at the target acceleration level; it
    comes from the benchmarking of Section VI-A (or from production request
    logs in a real deployment).
    """

    type_name: str
    acceleration_group: int
    cost_per_hour: float
    capacity: float

    def __post_init__(self) -> None:
        if not self.type_name:
            raise ValueError("type_name must be non-empty")
        if self.acceleration_group < 0:
            raise ValueError(
                f"acceleration_group must be >= 0, got {self.acceleration_group}"
            )
        if self.cost_per_hour < 0:
            raise ValueError(f"cost_per_hour must be >= 0, got {self.cost_per_hour}")
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")


@dataclass(frozen=True)
class AllocationProblem:
    """The allocator's input: options, per-group demand and the account cap."""

    options: Tuple[InstanceOption, ...]
    group_workloads: Mapping[int, int]
    instance_cap: int = 20
    strict_demand: bool = True

    def __post_init__(self) -> None:
        if not self.options:
            raise ValueError("at least one instance option is required")
        if self.instance_cap < 1:
            raise ValueError(f"instance_cap must be >= 1, got {self.instance_cap}")
        for group, workload in self.group_workloads.items():
            if workload < 0:
                raise ValueError(f"workload for group {group} must be >= 0, got {workload}")
        object.__setattr__(self, "options", tuple(self.options))
        object.__setattr__(self, "group_workloads", dict(self.group_workloads))

    def options_for_group(self, group: int) -> List[InstanceOption]:
        """Instance options able to serve acceleration group ``group``."""
        return [option for option in self.options if option.acceleration_group == group]

    def demanded_groups(self) -> List[int]:
        """Groups with a strictly positive predicted workload."""
        return sorted(
            group for group, workload in self.group_workloads.items() if workload > 0
        )

    def required_capacity(self, group: int) -> float:
        """The capacity the chosen instances of ``group`` must reach.

        With ``strict_demand`` (the paper's strict ``>`` inequality) the
        capacity must strictly exceed the workload; we realise that as
        ``workload + epsilon`` so integer capacities equal to the workload are
        rejected, matching the constraint as printed.  The epsilon (1e-3 users)
        stays far below one user, so with integer capacities it is exactly
        the strict inequality.
        """
        workload = self.group_workloads.get(group, 0)
        if workload == 0:
            return 0.0
        return workload + 1e-3 if self.strict_demand else float(workload)


@dataclass(frozen=True)
class AllocationPlan:
    """The allocator's output: how many instances of each type to run."""

    counts: Mapping[str, int]
    total_cost: float
    feasible: bool
    group_capacities: Mapping[int, float] = field(default_factory=dict)
    solver: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", dict(self.counts))
        object.__setattr__(self, "group_capacities", dict(self.group_capacities))

    @property
    def total_instances(self) -> int:
        return sum(self.counts.values())

    def count_for(self, type_name: str) -> int:
        return self.counts.get(type_name, 0)

    def non_zero_counts(self) -> Dict[str, int]:
        """Only the types with at least one allocated instance."""
        return {name: count for name, count in self.counts.items() if count > 0}


def build_options_from_catalog(
    catalog,
    *,
    work_units: float,
    response_threshold_ms: float,
    groups: Optional[Sequence[int]] = None,
    capacity_override: Optional[Mapping[str, float]] = None,
) -> List[InstanceOption]:
    """Derive :class:`InstanceOption` entries from an instance catalog.

    ``K_s`` is computed from each type's performance profile as the number of
    concurrent users the type sustains under ``response_threshold_ms`` for a
    task of ``work_units`` (Section IV-C1), unless ``capacity_override``
    provides measured capacities.
    """
    options: List[InstanceOption] = []
    for instance_type in catalog:
        if groups is not None and instance_type.acceleration_level not in groups:
            continue
        if capacity_override and instance_type.name in capacity_override:
            capacity = float(capacity_override[instance_type.name])
        else:
            capacity = float(
                instance_type.profile.capacity_under_threshold(
                    work_units, response_threshold_ms
                )
            )
        if capacity <= 0:
            continue
        options.append(
            InstanceOption(
                type_name=instance_type.name,
                acceleration_group=instance_type.acceleration_level,
                cost_per_hour=instance_type.price_per_hour,
                capacity=capacity,
            )
        )
    return options


def best_effort_plan(problem: AllocationProblem) -> AllocationPlan:
    """A cap-saturating plan for workloads no feasible allocation can cover.

    A capped account cannot crash when demand outgrows it — it provisions as
    much serving capacity as the cap allows and sheds the excess load at
    admission control.  Per demanded group the highest-capacity type (ties:
    cheaper) is selected, every group gets at least one instance, and the
    remaining cap is split proportionally to each group's ideal instance
    count (largest remainder).  The plan is marked ``feasible=False`` so
    callers can tell saturation from a genuine cover.
    """
    demanded = problem.demanded_groups()
    if not demanded:
        raise AllocationError("best-effort plan needs at least one demanded group")
    chosen: Dict[int, InstanceOption] = {}
    ideal: Dict[int, int] = {}
    for group in demanded:
        options = problem.options_for_group(group)
        if not options:
            raise AllocationError(
                f"no instance option can serve acceleration group {group}"
            )
        best = max(options, key=lambda option: (option.capacity, -option.cost_per_hour))
        chosen[group] = best
        ideal[group] = max(
            int(math.ceil(problem.required_capacity(group) / best.capacity)), 1
        )
    cap = problem.instance_cap
    if len(demanded) > cap:
        # Not even one instance per group fits; cover the busiest groups.
        demanded = sorted(
            demanded, key=lambda group: -problem.required_capacity(group)
        )[:cap]
    counts = {group: 1 for group in demanded}
    spare = cap - len(demanded)
    # Water-fill the spare cap one instance at a time into the relatively
    # most under-provisioned group (lowest provisioned/ideal fraction; ties
    # to the busier group, then declaration order), never beyond a group's
    # ideal — so every cap unit that can serve real demand is used.
    while spare > 0:
        candidates = [group for group in demanded if counts[group] < ideal[group]]
        if not candidates:
            break
        target = min(
            candidates,
            key=lambda group: (
                counts[group] / ideal[group],
                -problem.required_capacity(group),
                demanded.index(group),
            ),
        )
        counts[target] += 1
        spare -= 1
    type_counts = {option.type_name: 0 for option in problem.options}
    for group, count in counts.items():
        type_counts[chosen[group].type_name] += count
    total_cost = sum(
        count
        * next(o.cost_per_hour for o in problem.options if o.type_name == name)
        for name, count in type_counts.items()
        if count
    )
    capacities = {
        group: chosen[group].capacity * type_counts[chosen[group].type_name]
        for group in counts
    }
    return AllocationPlan(
        counts=type_counts,
        total_cost=total_cost,
        feasible=False,
        group_capacities=capacities,
        solver="best-effort",
    )


def build_group_options(
    catalog,
    *,
    level_for_type: Mapping[str, int],
    work_units: float,
    response_threshold_ms: float,
    capacity_override: Optional[Mapping[str, float]] = None,
) -> List[InstanceOption]:
    """Catalog options with each type's acceleration group remapped.

    Deployments (and federation sites) assign instance types to acceleration
    groups independently of the catalog's default levels — the paper itself
    re-assigns t2.micro after observing the Fig. 6 anomaly.  This wraps
    :func:`build_options_from_catalog` and rewrites each option's group
    according to ``level_for_type``; types without a mapping keep their
    catalogued level.
    """
    options = []
    for option in build_options_from_catalog(
        catalog,
        work_units=work_units,
        response_threshold_ms=response_threshold_ms,
        capacity_override=capacity_override,
    ):
        group = level_for_type.get(option.type_name, option.acceleration_group)
        options.append(
            InstanceOption(
                type_name=option.type_name,
                acceleration_group=group,
                cost_per_hour=option.cost_per_hour,
                capacity=option.capacity,
            )
        )
    return options


class IlpAllocator:
    """Exact cost-minimising allocator.

    Solves the ILP by per-group branch-and-bound: each demanded group's
    Pareto-optimal (instance count, cost) covers are enumerated, then the
    cheapest combination within the instance cap is picked.  The enumeration
    is exponential only in the number of options per group, which is small
    for every catalog in the system.
    """

    def allocate(self, problem: AllocationProblem) -> AllocationPlan:
        """Solve the allocation ILP; raises :class:`AllocationError` if infeasible."""
        demanded = problem.demanded_groups()
        if not demanded:
            return AllocationPlan(
                counts={option.type_name: 0 for option in problem.options},
                total_cost=0.0,
                feasible=True,
                group_capacities={},
                solver="trivial",
            )
        for group in demanded:
            if not problem.options_for_group(group):
                raise AllocationError(
                    f"no instance option can serve acceleration group {group}"
                )
        return self._allocate_branch_and_bound(problem)

    def _allocate_branch_and_bound(self, problem: AllocationProblem) -> AllocationPlan:
        """Exact enumeration, decomposed per acceleration group.

        Instances of one type serve exactly one group, so the only coupling
        between groups is the shared instance cap.  We enumerate, per group,
        the Pareto-optimal (count, cost) covers of its workload, then combine
        groups minimising total cost subject to the cap.
        """
        demanded = problem.demanded_groups()
        per_group_pareto: List[List[Tuple[int, float, Dict[str, int]]]] = []
        for group in demanded:
            covers = self._group_covers(problem, group)
            if not covers:
                raise AllocationError(
                    f"acceleration group {group} cannot be covered within the instance cap"
                )
            per_group_pareto.append(covers)

        best_cost = math.inf
        best_counts: Optional[Dict[str, int]] = None
        for combination in itertools.product(*per_group_pareto):
            total_instances = sum(entry[0] for entry in combination)
            if total_instances > problem.instance_cap:
                continue
            total_cost = sum(entry[1] for entry in combination)
            if total_cost < best_cost:
                best_cost = total_cost
                merged: Dict[str, int] = {}
                for _, _, counts in combination:
                    for name, count in counts.items():
                        merged[name] = merged.get(name, 0) + count
                best_counts = merged
        if best_counts is None:
            raise AllocationError(
                "no combination of per-group covers fits within the instance cap"
            )
        counts = {option.type_name: 0 for option in problem.options}
        counts.update(best_counts)
        return self._finalise_plan(problem, counts, solver="branch-and-bound")

    def _group_covers(
        self, problem: AllocationProblem, group: int
    ) -> List[Tuple[int, float, Dict[str, int]]]:
        """Pareto-optimal ways to cover one group's workload.

        Returns tuples ``(instance_count, cost, counts)`` such that no other
        cover is both cheaper and uses no more instances.
        """
        options = problem.options_for_group(group)
        required = problem.required_capacity(group)
        cap = problem.instance_cap
        best_by_count: Dict[int, Tuple[float, Dict[str, int]]] = {}

        max_counts = []
        for option in options:
            needed = int(math.ceil(required / option.capacity))
            max_counts.append(min(needed, cap))

        for combo in itertools.product(*(range(count + 1) for count in max_counts)):
            total_instances = sum(combo)
            if total_instances == 0 or total_instances > cap:
                continue
            capacity = sum(
                count * option.capacity for count, option in zip(combo, options)
            )
            if capacity < required:
                continue
            cost = sum(
                count * option.cost_per_hour for count, option in zip(combo, options)
            )
            current = best_by_count.get(total_instances)
            if current is None or cost < current[0]:
                best_by_count[total_instances] = (
                    cost,
                    {
                        option.type_name: count
                        for option, count in zip(options, combo)
                        if count > 0
                    },
                )
        # Keep only Pareto-optimal entries (no entry with both fewer instances
        # and lower-or-equal cost).
        pareto: List[Tuple[int, float, Dict[str, int]]] = []
        for count in sorted(best_by_count):
            cost, counts = best_by_count[count]
            if pareto and pareto[-1][1] <= cost:
                continue
            pareto.append((count, cost, counts))
        return pareto

    # -- shared ---------------------------------------------------------------

    def _finalise_plan(
        self, problem: AllocationProblem, counts: Dict[str, int], solver: str
    ) -> AllocationPlan:
        capacity_by_group: Dict[int, float] = {}
        cost = 0.0
        option_by_name = {option.type_name: option for option in problem.options}
        for name, count in counts.items():
            option = option_by_name[name]
            cost += count * option.cost_per_hour
            capacity_by_group[option.acceleration_group] = (
                capacity_by_group.get(option.acceleration_group, 0.0)
                + count * option.capacity
            )
        feasible = sum(counts.values()) <= problem.instance_cap and all(
            capacity_by_group.get(group, 0.0) >= problem.required_capacity(group)
            for group in problem.demanded_groups()
        )
        return AllocationPlan(
            counts=counts,
            total_cost=cost,
            feasible=feasible,
            group_capacities=capacity_by_group,
            solver=solver,
        )


class GreedyAllocator:
    """Baseline: repeatedly add the cheapest-per-capacity instance per group."""

    def allocate(self, problem: AllocationProblem) -> AllocationPlan:
        counts: Dict[str, int] = {option.type_name: 0 for option in problem.options}
        total_instances = 0
        for group in problem.demanded_groups():
            options = problem.options_for_group(group)
            if not options:
                raise AllocationError(
                    f"no instance option can serve acceleration group {group}"
                )
            best = min(options, key=lambda option: option.cost_per_hour / option.capacity)
            required = problem.required_capacity(group)
            needed = int(math.ceil(required / best.capacity))
            counts[best.type_name] += needed
            total_instances += needed
        if total_instances > problem.instance_cap:
            raise AllocationError(
                f"greedy allocation needs {total_instances} instances, cap is "
                f"{problem.instance_cap}"
            )
        option_by_name = {option.type_name: option for option in problem.options}
        cost = sum(counts[name] * option_by_name[name].cost_per_hour for name in counts)
        capacities: Dict[int, float] = {}
        for name, count in counts.items():
            option = option_by_name[name]
            capacities[option.acceleration_group] = (
                capacities.get(option.acceleration_group, 0.0) + count * option.capacity
            )
        return AllocationPlan(
            counts=counts,
            total_cost=cost,
            feasible=True,
            group_capacities=capacities,
            solver="greedy",
        )


class OverProvisioningAllocator:
    """Baseline: size every group for a fixed multiple of its peak demand.

    This models the "static and not dynamic" system the paper contrasts with
    (Section VI-B3): capacity is provisioned once for the worst case instead
    of following the predicted workload.
    """

    def __init__(self, *, headroom: float = 2.0) -> None:
        if headroom < 1.0:
            raise ValueError(f"headroom must be >= 1.0, got {headroom}")
        self.headroom = headroom
        self._inner = GreedyAllocator()

    def allocate(self, problem: AllocationProblem) -> AllocationPlan:
        inflated = AllocationProblem(
            options=problem.options,
            group_workloads={
                group: int(math.ceil(workload * self.headroom))
                for group, workload in problem.group_workloads.items()
            },
            instance_cap=problem.instance_cap,
            strict_demand=problem.strict_demand,
        )
        plan = self._inner.allocate(inflated)
        return AllocationPlan(
            counts=plan.counts,
            total_cost=plan.total_cost,
            feasible=plan.feasible,
            group_capacities=plan.group_capacities,
            solver=f"overprovision-{self.headroom:g}x",
        )
