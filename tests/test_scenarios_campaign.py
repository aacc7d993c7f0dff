"""Tests for the parallel campaign runner."""

import pickle

import pytest

from repro.analysis.reporting import read_csv
from repro.scenarios import (
    CampaignRunner,
    ScenarioSpec,
    WorkloadSpec,
    derive_scenario_seed,
)
from repro.scenarios.pool import execution_context


def tiny_spec(name: str, **kwargs) -> ScenarioSpec:
    defaults = dict(
        name=name,
        users=8,
        duration_hours=0.25,
        slot_minutes=7.5,
        workload=WorkloadSpec(pattern="uniform", target_requests=60),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_scenario_seed(0, "a") == derive_scenario_seed(0, "a")

    def test_differs_by_name_and_root(self):
        assert derive_scenario_seed(0, "a") != derive_scenario_seed(0, "b")
        assert derive_scenario_seed(0, "a") != derive_scenario_seed(1, "a")


class TestCampaignRunner:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="workers"):
            CampaignRunner(workers=0)
        with pytest.raises(ValueError, match="seed"):
            CampaignRunner(seed=-1)
        with pytest.raises(ValueError, match="at least one"):
            CampaignRunner().run([])

    def test_rejects_duplicate_scenario_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            CampaignRunner(workers=1).run([tiny_spec("dup"), tiny_spec("dup")])

    def test_rejects_unknown_execution_mode(self):
        with pytest.raises(ValueError, match="execution"):
            CampaignRunner(execution="warp")

    def test_execution_override_matches_per_spec_batched_runs(self):
        specs = [tiny_spec("exec-a"), tiny_spec("exec-b")]
        overridden = CampaignRunner(workers=1, seed=0, execution="batched").run(specs)
        explicit = CampaignRunner(workers=1, seed=0).run(
            [spec.with_overrides(execution="batched") for spec in specs]
        )
        assert overridden.rows() == explicit.rows()

    def test_execution_none_keeps_spec_modes(self):
        event_only = CampaignRunner(workers=1, seed=0).run([tiny_spec("keep")])
        batched = CampaignRunner(workers=1, seed=0, execution="batched").run(
            [tiny_spec("keep")]
        )
        # Same plan, same request population; only the service model differs.
        assert (
            event_only.get("keep").requests_total
            == batched.get("keep").requests_total
        )

    def test_batched_campaign_covers_multisite_scenarios(self):
        from repro.scenarios import get_scenario

        specs = [
            get_scenario(name).with_overrides(
                users=8, duration_hours=0.25, target_requests=60
            )
            for name in ("region-outage-failover", "edge-vs-core")
        ]
        campaign = CampaignRunner(workers=1, seed=0, execution="batched").run(specs)
        assert len(campaign) == 2
        for result in campaign.results:
            assert result.is_multisite
            assert result.requests_total > 0

    def test_results_keep_submission_order(self):
        specs = [tiny_spec("c-third"), tiny_spec("a-first"), tiny_spec("b-second")]
        campaign = CampaignRunner(workers=1, seed=0).run(specs)
        assert [r.name for r in campaign.results] == ["c-third", "a-first", "b-second"]

    def test_parallel_equals_serial(self):
        specs = [tiny_spec(f"s{i}") for i in range(3)]
        serial = CampaignRunner(workers=1, seed=3).run(specs)
        parallel = CampaignRunner(workers=3, seed=3).run(specs)
        assert serial.rows() == parallel.rows()

    def test_identical_campaign_seeds_reproduce_metrics(self):
        specs = [tiny_spec("r1"), tiny_spec("r2")]
        first = CampaignRunner(workers=2, seed=9).run(specs)
        second = CampaignRunner(workers=2, seed=9).run(specs)
        assert first.rows() == second.rows()

    def test_spec_pinned_seed_wins_over_derived(self):
        campaign = CampaignRunner(workers=1, seed=4).run([tiny_spec("pin", seed=77)])
        assert campaign.results[0].seed == 77

    def test_get_by_name_and_missing(self):
        campaign = CampaignRunner(workers=1).run([tiny_spec("only")])
        assert campaign.get("only").name == "only"
        with pytest.raises(KeyError):
            campaign.get("absent")

    def test_format_table_and_csv(self, tmp_path):
        campaign = CampaignRunner(workers=1, seed=0).run([tiny_spec("csvme")])
        table = campaign.format_table()
        assert "csvme" in table
        assert "p95_ms" in table
        path = campaign.to_csv(tmp_path / "campaign.csv")
        rows = read_csv(path)
        assert len(rows) == 1
        assert rows[0]["scenario"] == "csvme"
        assert float(rows[0]["requests"]) > 0


class TestMixedTelemetryRecordAlignment:
    """``records`` must stay index-aligned with ``results`` when only some
    specs opt into telemetry — a shifted tuple silently pairs record ``i``
    with the wrong scenario in any positional zip."""

    def test_records_align_index_wise(self):
        specs = [
            tiny_spec("plain-a"),
            tiny_spec("traced", telemetry=True),
            tiny_spec("plain-b"),
        ]
        campaign = CampaignRunner(workers=1, seed=0).run(specs)
        assert len(campaign.records) == len(campaign.results)
        assert campaign.records[0] is None
        assert campaign.records[2] is None
        assert campaign.records[1] is not None
        for result, record in zip(campaign.results, campaign.records):
            if record is not None:
                assert record.scenario == result.name

    def test_get_record_skips_placeholders(self):
        specs = [tiny_spec("dark"), tiny_spec("lit", telemetry=True)]
        campaign = CampaignRunner(workers=1, seed=0).run(specs)
        assert campaign.get_record("lit").scenario == "lit"
        with pytest.raises(KeyError):
            campaign.get_record("dark")

    def test_no_telemetry_anywhere_yields_empty_records(self):
        campaign = CampaignRunner(workers=1, seed=0).run(
            [tiny_spec("a"), tiny_spec("b")]
        )
        assert campaign.records == ()

    def test_alignment_survives_the_pool(self):
        specs = [
            tiny_spec("pool-plain"),
            tiny_spec("pool-traced", telemetry=True),
        ]
        campaign = CampaignRunner(workers=2, seed=0).run(specs)
        assert campaign.records[0] is None
        assert campaign.records[1].scenario == "pool-traced"


class TestSpawnPickleContract:
    """Every pool payload must survive the spawn/forkserver pickler."""

    def test_execution_context_is_pinned(self):
        method = execution_context().get_start_method()
        assert method in ("forkserver", "spawn")

    def test_campaign_job_round_trips(self):
        from repro.scenarios.campaign import _run_job

        spec = tiny_spec("pickled", workload=WorkloadSpec(target_requests=120))
        job = pickle.loads(pickle.dumps((spec, 3, False)))
        result, record = _run_job(job)
        assert result.requests_total > 0
        assert record is None
