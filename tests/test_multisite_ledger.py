"""The multi-site request ledger: every request counted once at every level.

Global = succeeded + dropped; the sites plus the broker-unrouted requests
make up the global total and the global drops (an unrouted request is a
drop); each site's acceleration-group rows make up that site.  Fault
local-fallback and fault-dropped requests belong to the site they were last
assigned to.
"""

import dataclasses

import pytest

from repro.multisite.runner import _check_site_ledger
from repro.scenarios import builtin_specs, get_scenario, run_scenario
from repro.scenarios.runner import SiteGroupResult, SiteResult

MODES = ("event", "batched")


def assert_ledger(result):
    assert result.requests_succeeded + result.requests_dropped == result.requests_total
    if not result.sites:
        return
    unrouted = result.requests_unrouted
    assert (
        sum(site.requests_total for site in result.sites) + unrouted
        == result.requests_total
    )
    assert (
        sum(site.requests_dropped for site in result.sites) + unrouted
        == result.requests_dropped
    )
    for site in result.sites:
        assert sum(row.requests_total for row in site.groups) == site.requests_total
        assert (
            sum(row.requests_dropped for row in site.groups) == site.requests_dropped
        )
        assert site.requests_degraded_local <= site.requests_total


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", [spec.name for spec in builtin_specs()])
def test_registry_scenarios_keep_the_ledger(name, mode):
    spec = dataclasses.replace(get_scenario(name), execution=mode)
    assert_ledger(run_scenario(spec, seed=1))


class TestFaultOutcomesReachTheirSite:
    """``spot-preemption-storm`` at seed 1: fault outcomes at their site."""

    @pytest.mark.parametrize("mode", MODES)
    def test_local_fallbacks_count_at_their_site(self, mode):
        spec = dataclasses.replace(get_scenario("spot-preemption-storm"), execution=mode)
        result = run_scenario(spec, seed=1)
        assert result.requests_total == 903
        assert result.requests_degraded_local == 45
        sites = {site.name: site for site in result.sites}
        # The 45 local fallbacks belong to spot's total (489 served there).
        assert sum(site.requests_total for site in result.sites) == 903
        assert sites["spot"].requests_degraded_local == 45
        assert sites["spot"].requests_total == 534

    @pytest.mark.parametrize("mode", MODES)
    def test_fault_drops_count_at_their_site(self, mode):
        spec = get_scenario("spot-preemption-storm")
        spec = dataclasses.replace(
            spec, execution=mode, faults=spec.faults.without_resilience()
        )
        result = run_scenario(spec, seed=1)
        assert_ledger(result)
        assert result.requests_dropped == 113
        # Every fault drop happened at spot, where the kill window is.
        sites = {site.name: site for site in result.sites}
        assert sites["spot"].requests_dropped == 113
        assert sites["on-demand"].requests_dropped == 0


class TestLedgerCheck:
    def site(self, total, dropped, groups):
        return SiteResult(
            name="s",
            requests_total=total,
            requests_dropped=dropped,
            mean_response_ms=0.0,
            p95_response_ms=0.0,
            allocation_cost_usd=0.0,
            scaling_actions=0,
            predictions=0,
            mean_utilization=0.0,
            groups=tuple(SiteGroupResult(g, t, d) for g, t, d in groups),
        )

    def test_balanced_ledger_passes(self):
        _check_site_ledger(
            requests_total=12,
            requests_dropped=3,
            requests_unrouted=2,
            sites=[self.site(10, 1, [(1, 6, 1), (2, 4, 0)])],
        )

    @pytest.mark.parametrize(
        "total, dropped, groups, match",
        [
            (9, 1, [(1, 9, 1)], "global total"),
            (10, 0, [(1, 10, 0)], "global drops"),
            (10, 1, [(1, 9, 1)], "group rows"),
            (10, 1, [(1, 10, 0)], "group rows"),
        ],
    )
    def test_broken_ledger_raises(self, total, dropped, groups, match):
        with pytest.raises(RuntimeError, match=match):
            _check_site_ledger(
                requests_total=12,
                requests_dropped=3,
                requests_unrouted=2,
                sites=[self.site(total, dropped, groups)],
            )
