"""The flight-recorder contracts: determinism, parity, artifacts, diffing.

Four pinned guarantees on top of PR 6's zero-cost telemetry contract:

* **byte determinism** — same seed, same ``RunRecord.canonical_bytes()``,
  across independent reruns (property-tested over drawn seeds);
* **cross-mode slot alignment** — the event and batched executors produce
  the *same* per-slot series, name for name, slot for slot;
* **observer purity** — recording changes no simulated number: results with
  the recorder collecting are bit-identical to recorder-off runs;
* **artifact fidelity** — a record survives a save/load roundtrip intact,
  ``diff`` calls two same-seed records identical, and perturbations are
  flagged as regressions.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _jsonify, main
from repro.scenarios import CampaignRunner, get_scenario, run_scenario
from repro.telemetry import (
    NULL_TELEMETRY,
    RECORD_SCHEMA,
    Telemetry,
    build_run_record,
    diff_records,
    load_run_record,
    render_report,
)
from repro.telemetry.publish import to_openmetrics
from repro.telemetry.timeseries import SlotSeriesRecorder


def small(name, **overrides):
    return get_scenario(name).with_overrides(
        users=10, duration_hours=0.5, target_requests=150, **overrides
    )


def normalized(result):
    return _jsonify(dataclasses.asdict(result))


def record_for(spec, seed):
    telemetry = Telemetry()
    result = run_scenario(spec, seed=seed, telemetry=telemetry)
    return build_run_record(spec, result, telemetry, environment=False)


CASES = [
    ("paper-baseline", "event"),
    ("paper-baseline", "batched"),
    ("hotspot-spillover", "event"),
    ("hotspot-spillover", "batched"),
]


class TestRecorderUnit:
    def test_append_enforces_slot_order(self):
        recorder = SlotSeriesRecorder()
        recorder.append("x", 0, 1.0)
        recorder.append("x", 1, 2.0)
        with pytest.raises(ValueError):
            recorder.append("x", 3, 9.0)  # skipped slot 2
        assert recorder.as_dict()["series"]["x"] == [1.0, 2.0]

    def test_null_telemetry_recorder_is_noop(self):
        NULL_TELEMETRY.recorder.append("x", 0, 1.0)
        NULL_TELEMETRY.recorder.sample_fleet(0, provisioner=None)
        assert NULL_TELEMETRY.recorder.as_dict() == {"slots": 0, "series": {}}
        assert NULL_TELEMETRY.recorder.enabled is False


class TestRecordDeterminism:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_same_seed_records_byte_identical(self, seed):
        spec = small("paper-baseline", execution="batched")
        first = record_for(spec, seed).canonical_bytes()
        second = record_for(spec, seed).canonical_bytes()
        assert first == second

    def test_multisite_fault_record_byte_identical(self):
        spec = small("spot-preemption-storm", execution="batched")
        assert (
            record_for(spec, 11).canonical_bytes()
            == record_for(spec, 11).canonical_bytes()
        )

    @pytest.mark.parametrize("name", ["paper-baseline", "hotspot-spillover"])
    def test_slot_series_identical_across_execution_modes(self, name):
        records = {
            mode: record_for(small(name, execution=mode), seed=0)
            for mode in ("event", "batched")
        }
        event, batched = records["event"], records["batched"]
        assert event.slots == batched.slots
        assert set(event.series) == set(batched.series)
        for series_name in event.series:
            assert event.series[series_name] == batched.series[series_name], (
                series_name
            )

    @pytest.mark.parametrize("name,execution", CASES)
    def test_results_identical_with_recorder_on_and_off(self, name, execution):
        spec = small(name, execution=execution)
        off = run_scenario(spec, seed=2, telemetry=NULL_TELEMETRY)
        telemetry = Telemetry()
        on = run_scenario(spec, seed=2, telemetry=telemetry)
        assert len(telemetry.recorder) > 0  # the recorder really collected
        assert normalized(on) == normalized(off)

    def test_expected_series_families_present(self):
        record = record_for(small("hotspot-spillover", execution="event"), 0)
        names = set(record.series)
        assert "slot.requests" in names
        assert any(n.endswith(".requests") and n.startswith("site.") for n in names)
        assert any(n.endswith(".routing_share") for n in names)
        assert any(n.endswith("fleet.instances_running") for n in names)
        assert record.slots > 0
        assert all(
            len(values) <= record.slots for values in record.series.values()
        )


class TestRunRecordArtifact:
    def test_save_load_roundtrip(self, tmp_path):
        record = record_for(small("paper-baseline", execution="batched"), 4)
        path = record.save(tmp_path / "records" / "run.json")
        loaded = load_run_record(path)
        assert loaded.schema == RECORD_SCHEMA
        assert loaded.canonical_bytes() == record.canonical_bytes()

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="not a run-record"):
            load_run_record(path)

    def test_load_rejects_future_schema(self, tmp_path):
        record = record_for(small("paper-baseline", execution="batched"), 4)
        payload = record.as_dict()
        payload["schema"] = "repro.run-record/2"
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported"):
            load_run_record(path)

    def test_build_requires_live_telemetry(self):
        spec = small("paper-baseline", execution="batched")
        result = run_scenario(spec, seed=0)
        with pytest.raises(ValueError, match="live telemetry"):
            build_run_record(spec, result, NULL_TELEMETRY)

    def test_record_separates_canonical_from_environment(self):
        spec = small("paper-baseline", execution="batched")
        telemetry = Telemetry()
        result = run_scenario(spec, seed=0, telemetry=telemetry)
        record = build_run_record(spec, result, telemetry)
        assert record.environment  # host envelope present...
        canonical = json.loads(record.canonical_bytes())
        assert "environment" not in canonical  # ...but never canonical
        assert "trace" not in canonical


class TestDiff:
    def test_same_seed_records_diff_identical(self):
        spec = small("hotspot-spillover", execution="batched")
        diff = diff_records(record_for(spec, 5), record_for(spec, 5))
        assert diff.verdict == "identical"
        assert diff.changed_counters == []
        assert diff.diverged_series == []

    def test_perturbed_counter_is_a_regression(self):
        spec = small("paper-baseline", execution="batched")
        a = record_for(spec, 5)
        b = dataclasses.replace(
            a,
            counters={
                **a.counters,
                "scenario.requests_dropped": a.counters.get(
                    "scenario.requests_dropped", 0
                )
                + 10,
            },
        )
        diff = diff_records(a, b)
        assert diff.verdict == "regression"
        entry = diff.counter("scenario.requests_dropped")
        assert entry is not None and entry.delta == 10

    def test_thresholds_downgrade_regression_to_ok(self):
        spec = small("paper-baseline", execution="batched")
        a = record_for(spec, 5)
        bumped = {**a.counters}
        bumped["scenario.requests_total"] = bumped["scenario.requests_total"] * 1.01
        b = dataclasses.replace(a, counters=bumped)
        strict = diff_records(a, b)
        lenient = diff_records(a, b, max_counter_delta_pct=5.0)
        assert strict.verdict == "regression"
        assert lenient.verdict == "ok"

    def test_series_divergence_and_length_mismatch_flagged(self):
        spec = small("hotspot-spillover", execution="batched")
        a = record_for(spec, 5)
        series = dict(a.series)
        series["slot.requests"] = [value + 1 for value in series["slot.requests"]]
        b = dataclasses.replace(a, series=series)
        diff = diff_records(a, b)
        names = {entry.name for entry in diff.diverged_series}
        assert names == {"slot.requests"}
        truncated = dataclasses.replace(
            a, series={**series, "slot.requests": series["slot.requests"][:-1]}
        )
        diff = diff_records(a, truncated)
        assert any(entry.length_mismatch for entry in diff.diverged_series)
        assert diff.verdict == "regression"

    def test_resilience_twin_surfaces_failed_request_delta(self):
        spec = small("spot-preemption-storm", execution="batched")
        bare = dataclasses.replace(spec, faults=spec.faults.without_resilience())
        resilient = record_for(spec, 3)
        unprotected = record_for(bare, 3)
        diff = diff_records(resilient, unprotected)
        assert not diff.same_spec
        dropped = diff.counter("fault.requests_dropped")
        # PR 7's pinned A/B: resilience absorbs >= 50% of would-be failures.
        assert dropped.b > 0
        assert (dropped.b - dropped.a) / dropped.b >= 0.5
        payload = diff.as_dict()
        assert payload["verdict"] == diff.verdict
        assert any(
            row["name"] == "fault.requests_dropped" for row in payload["counters"]
        )


class TestDiffFilters:
    """``--counter``/``--series`` restrict a diff to the signals two runs share.

    The resilience A/B twin offers the same request population (identical
    ``scenario.requests_total`` and ``slot.requests``) while its drop and
    fault counters legitimately differ.
    """

    def make_records(self):
        spec = small("spot-preemption-storm", execution="batched")
        bare = dataclasses.replace(spec, faults=spec.faults.without_resilience())
        return record_for(spec, 3), record_for(bare, 3)

    def test_filtered_diff_pins_the_invariant_surface(self):
        resilient, bare = self.make_records()
        full = diff_records(resilient, bare)
        assert full.verdict == "regression"
        filtered = diff_records(
            resilient,
            bare,
            counter_filter=["scenario.requests_total"],
            series_filter=["slot.requests"],
        )
        assert filtered.verdict == "identical"
        assert [entry.name for entry in filtered.counters] == [
            "scenario.requests_total"
        ]
        assert [entry.name for entry in filtered.series] == ["slot.requests"]

    def test_empty_filter_compares_everything(self):
        resilient, bare = self.make_records()
        assert diff_records(resilient, bare).counters == diff_records(
            resilient, bare, counter_filter=None, series_filter=None
        ).counters


class TestExports:
    @pytest.fixture(scope="class")
    def record(self):
        return record_for(small("hotspot-spillover", execution="batched"), 0)

    def test_openmetrics_shape(self, record):
        text = to_openmetrics(
            {
                "counters": record.counters,
                "gauges": record.gauges,
                "histograms": record.histograms,
            }
        )
        assert text.endswith("# EOF\n")
        assert "# TYPE engine_events_processed counter\n" in text
        assert "engine_events_processed_total " in text
        # histogram buckets are cumulative and close with +Inf == count
        lines = text.splitlines()
        buckets = [
            line for line in lines if line.startswith("scenario_response_ms_bucket")
        ]
        assert buckets, text
        counts = [float(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)
        inf_line = next(line for line in buckets if 'le="+Inf"' in line)
        count_line = next(
            line for line in lines if line.startswith("scenario_response_ms_count")
        )
        assert inf_line.rsplit(" ", 1)[1] == count_line.rsplit(" ", 1)[1]

    def test_report_is_self_contained_html(self, record):
        html = render_report(record)
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "<polyline" in html
        assert "slot.requests" in html
        # per-site lines share one chart and get a legend
        assert 'class="legend"' in html
        # a data table backs every chart (the accessibility table view)
        assert html.count("data table") == html.count("<section")
        # self-contained: no external fetches of any kind
        for marker in ("http://", "https://", "src=", "@import"):
            assert marker not in html


class TestCampaignTelemetry:
    def test_campaign_collects_one_record_per_scenario(self):
        specs = [
            small("paper-baseline", execution="batched"),
            small("hotspot-spillover", execution="batched"),
        ]
        runner = CampaignRunner(workers=1, seed=0, telemetry=True)
        campaign = runner.run(specs)
        assert len(campaign.records) == len(specs)
        assert [record.scenario for record in campaign.records] == [
            spec.name for spec in specs
        ]
        record = campaign.get_record("hotspot-spillover")
        assert record.series and record.slots > 0
        with pytest.raises(KeyError):
            campaign.get_record("missing")

    def test_telemetry_campaign_results_match_plain_campaign(self):
        specs = [small("paper-baseline", execution="batched")]
        plain = CampaignRunner(workers=1, seed=0).run(specs)
        with_records = CampaignRunner(workers=1, seed=0, telemetry=True).run(specs)
        assert [normalized(result) for result in plain.results] == [
            normalized(result) for result in with_records.results
        ]
        assert plain.records == ()


class TestRecordCli:
    RUN = [
        "scenario", "run", "hotspot-spillover",
        "--users", "10", "--hours", "0.5", "--requests", "150",
        "--execution", "batched", "--seed", "9",
    ]

    def test_record_out_then_diff_identical(self, tmp_path, capsys):
        for out in ("a", "b"):
            assert main(self.RUN + ["--record-out", str(tmp_path / out)]) == 0
        capsys.readouterr()
        name = "hotspot-spillover-batched-seed9.json"
        code = main(["diff", str(tmp_path / "a" / name), str(tmp_path / "b" / name)])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: identical" in out

    def test_diff_json_payload(self, tmp_path, capsys):
        assert main(self.RUN + ["--record-out", str(tmp_path)]) == 0
        capsys.readouterr()
        name = str(tmp_path / "hotspot-spillover-batched-seed9.json")
        code = main(["diff", name, name, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["verdict"] == "identical"
        assert payload["series"]

    def test_metrics_out_writes_registry_payload(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(self.RUN + ["--metrics-out", str(metrics_path)]) == 0
        payload = json.loads(metrics_path.read_text())
        assert payload["enabled"] is True
        assert payload["metrics"]["counters"]
        assert payload["series"]["slots"] > 0

    def test_report_writes_html_and_openmetrics(self, tmp_path, capsys):
        assert main(self.RUN + ["--record-out", str(tmp_path)]) == 0
        record_path = tmp_path / "hotspot-spillover-batched-seed9.json"
        assert main(["report", str(record_path)]) == 0
        out = capsys.readouterr().out
        assert "report:" in out and "openmetrics:" in out
        html = record_path.with_suffix(".html").read_text()
        assert html.startswith("<!DOCTYPE html>")
        om = record_path.with_suffix(".om").read_text()
        assert om.endswith("# EOF\n")

    def test_report_rejects_non_record(self, tmp_path, capsys):
        bogus = tmp_path / "x.json"
        bogus.write_text("{}")
        assert main(["report", str(bogus)]) == 2
        assert "error" in capsys.readouterr().err

    def test_without_resilience_requires_fault_plane(self, capsys):
        code = main([
            "scenario", "run", "paper-baseline", "--without-resilience",
            "--users", "10", "--hours", "0.5", "--requests", "150",
        ])
        assert code == 2
        assert "no fault plane" in capsys.readouterr().err

    def test_campaign_record_out_writes_manifest(self, tmp_path, capsys):
        code = main([
            "scenario", "campaign", "--only", "hotspot-spillover",
            "--execution", "batched", "--workers", "1",
            "--record-out", str(tmp_path),
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema"] == "repro.campaign-manifest/1"
        assert len(manifest["records"]) == 1
        entry = manifest["records"][0]
        record = load_run_record(tmp_path / entry["file"])
        assert record.scenario == "hotspot-spillover"
        assert record.spec_hash == entry["spec_hash"]
