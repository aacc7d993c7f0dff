"""Shared fixtures for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cloud.catalog import DEFAULT_CATALOG
from repro.mobile.tasks import build_default_task_pool
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import RandomStreams


@pytest.fixture
def streams() -> RandomStreams:
    """A deterministic random-stream factory."""
    return RandomStreams(seed=1234)


@pytest.fixture
def rng(streams: RandomStreams) -> np.random.Generator:
    """A deterministic generator for tests that need raw randomness."""
    return streams.stream("tests")


@pytest.fixture
def engine() -> SimulationEngine:
    """A fresh simulation engine starting at time zero."""
    return SimulationEngine()


@pytest.fixture
def catalog():
    """The default calibrated instance catalog."""
    return DEFAULT_CATALOG


@pytest.fixture
def task_pool():
    """A fresh copy of the default 10-task pool."""
    return build_default_task_pool()


def _count_vectors(length: int, budget: int):
    """Every non-negative integer vector of ``length`` summing to <= ``budget``."""
    if length == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _count_vectors(length - 1, budget - first):
            yield (first, *rest)


def brute_force_optimum(problem) -> float | None:
    """The cheapest cover of an allocation problem, by exhaustive search.

    Enumerates every integer vector ``x`` over *all* options jointly with
    ``Σx <= instance_cap`` — no per-group split, no bounding and no Pareto
    pruning, so it checks the branch-and-bound's decomposition
    independently.  Returns ``None`` when no vector covers every demanded
    group.
    """
    options = problem.options
    demanded = problem.demanded_groups()
    best = math.inf
    for counts in _count_vectors(len(options), problem.instance_cap):
        covered = all(
            sum(
                count * option.capacity
                for count, option in zip(counts, options)
                if option.acceleration_group == group
            )
            >= problem.required_capacity(group)
            for group in demanded
        )
        if covered:
            cost = sum(
                count * option.cost_per_hour for count, option in zip(counts, options)
            )
            best = min(best, cost)
    return None if best == math.inf else best


@pytest.fixture(scope="session")
def allocation_oracle():
    """:func:`brute_force_optimum`, for the allocator cross-checks."""
    return brute_force_optimum
