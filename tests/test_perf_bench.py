"""Tests for the ``repro.perf`` benchmark subsystem and its CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.perf import (
    BenchRecord,
    BenchReport,
    compare_reports,
    run_micro_suite,
    timed,
)
from repro.perf.harness import Comparison, peak_rss_kb
from repro.perf.macro import SIZES, bench_scenario, perf_scenario


class TestBenchRecord:
    def test_throughput(self):
        record = BenchRecord(name="x", wall_s=2.0, ops=10.0)
        assert record.ops_per_s == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchRecord(name="", wall_s=1.0, ops=1.0)
        with pytest.raises(ValueError):
            BenchRecord(name="x", wall_s=0.0, ops=1.0)

    def test_round_trips_through_dict(self):
        record = BenchRecord(name="x", wall_s=0.5, ops=100.0, extras={"speedup": 2.0})
        clone = BenchRecord.from_dict(record.as_dict())
        assert clone == record

    def test_timed_runs_the_callable(self):
        record = timed("probe", lambda: 42.0, tag=1.0)
        assert record.ops == 42.0
        assert record.wall_s > 0
        assert record.extras == {"tag": 1.0}


class TestBenchReport:
    def make_report(self):
        return BenchReport(
            label="unit",
            suite="micro",
            budget="smoke",
            seed=0,
            records=[BenchRecord(name="a", wall_s=1.0, ops=10.0)],
        ).finalize()

    def test_write_and_load(self, tmp_path):
        report = self.make_report()
        path = report.write(tmp_path)
        assert path.name == "BENCH_unit.json"
        loaded = BenchReport.load(path)
        assert loaded.label == "unit"
        assert loaded.records == report.records
        assert loaded.peak_rss_kb == report.peak_rss_kb > 0

    def test_peak_rss_is_positive(self):
        assert peak_rss_kb() > 0


class TestCompare:
    def report_with(self, **ops_per_name):
        return BenchReport(
            label="r", suite="micro", budget="smoke", seed=0,
            records=[
                BenchRecord(name=name, wall_s=1.0, ops=float(ops))
                for name, ops in ops_per_name.items()
            ],
        )

    def test_no_regression_on_equal_reports(self):
        baseline = self.report_with(a=100, b=200)
        comparisons, regressions, missing = compare_reports(baseline, baseline)
        assert len(comparisons) == 2
        assert regressions == []
        assert missing == []

    def test_detects_regression_beyond_threshold(self):
        baseline = self.report_with(a=100, b=200)
        current = self.report_with(a=70, b=190)
        _, regressions, missing = compare_reports(baseline, current, threshold=0.2)
        assert [c.name for c in regressions] == ["a"]
        assert regressions[0].ratio == pytest.approx(0.7)
        assert missing == []

    def test_flags_unmeasured_baseline_benchmarks(self):
        # A benchmark that vanishes from the current run must not pass silently;
        # newly added benchmarks are ignored.
        baseline = self.report_with(a=100, gone=50)
        current = self.report_with(a=100, added=70)
        comparisons, regressions, missing = compare_reports(baseline, current)
        assert [c.name for c in comparisons] == ["a"]
        assert regressions == []
        assert missing == ["gone"]

    def test_threshold_validation(self):
        baseline = self.report_with(a=1)
        with pytest.raises(ValueError):
            compare_reports(baseline, baseline, threshold=1.5)

    def test_comparison_ratio_handles_zero_baseline(self):
        comparison = Comparison(name="z", baseline_ops_per_s=0.0, current_ops_per_s=1.0)
        assert comparison.ratio == float("inf")


class TestSuites:
    def test_micro_smoke_suite(self):
        records = run_micro_suite(budget="smoke", seed=0)
        names = {record.name for record in records}
        assert names == {
            "engine.events",
            "distance.index",
            "channel.sampling",
            "arrival.generation",
            "stats.extend",
            "server.processor_sharing",
            "broker.slot_state",
            "telemetry.registry",
            "telemetry.timeseries",
            "faults.injection",
        }
        assert all(record.ops_per_s > 0 for record in records)

    def test_unknown_budget_rejected(self):
        with pytest.raises(ValueError):
            run_micro_suite(budget="galactic")

    def test_macro_scenario_spec_is_valid(self):
        spec = perf_scenario(2_000, "batched")
        assert spec.execution == "batched"
        assert spec.workload.target_requests == 2_000

    def test_macro_bench_scenario_smoke(self):
        record = bench_scenario(2_000, "batched", seed=0)
        assert record.name == "macro.batched.2000"
        assert record.ops > 1_000
        assert "drop_rate" in record.extras

    def test_budgets_cover_acceptance_sizes(self):
        # The acceptance criterion pins 10k and 100k macro runs in both modes.
        assert (10_000, True) in SIZES["full"]
        assert (100_000, True) in SIZES["full"]


class TestBenchCli:
    def test_bench_run_micro_smoke_writes_json(self, tmp_path, capsys):
        code = main([
            "bench", "run", "--suite", "micro", "--budget", "smoke",
            "--label", "clitest", "--output-dir", str(tmp_path),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "BENCH_clitest.json").read_text())
        assert payload["label"] == "clitest"
        assert len(payload["records"]) == 10
        assert payload["peak_rss_kb"] > 0
        out = capsys.readouterr().out
        assert "engine.events" in out

    def test_bench_compare_roundtrip_and_regression(self, tmp_path, capsys):
        report = BenchReport(
            label="base", suite="micro", budget="smoke", seed=0,
            records=[BenchRecord(name="a", wall_s=1.0, ops=100.0)],
        )
        base_path = report.write(tmp_path)
        assert main(["bench", "compare", str(base_path), str(base_path)]) == 0
        slow = BenchReport(
            label="slow", suite="micro", budget="smoke", seed=0,
            records=[BenchRecord(name="a", wall_s=2.0, ops=100.0)],
        )
        slow_path = slow.write(tmp_path)
        assert main(["bench", "compare", str(base_path), str(slow_path)]) == 1
        capsys.readouterr()

    def test_bench_compare_fails_on_unmeasured(self, tmp_path, capsys):
        baseline = BenchReport(
            label="two", suite="all", budget="smoke", seed=0,
            records=[
                BenchRecord(name="a", wall_s=1.0, ops=100.0),
                BenchRecord(name="b", wall_s=1.0, ops=100.0),
            ],
        )
        current = BenchReport(
            label="one", suite="micro", budget="smoke", seed=0,
            records=[BenchRecord(name="a", wall_s=1.0, ops=100.0)],
        )
        base_path = baseline.write(tmp_path)
        current_path = current.write(tmp_path)
        assert main(["bench", "compare", str(base_path), str(current_path)]) == 1
        captured = capsys.readouterr()
        assert "UNMEASURED" in captured.out
        assert "b" in captured.err

    def test_bench_compare_missing_file_errors(self, tmp_path, capsys):
        code = main([
            "bench", "compare", str(tmp_path / "nope.json"), str(tmp_path / "nope.json")
        ])
        assert code == 2
        capsys.readouterr()


class TestPeakRssChildFold:
    def test_folds_in_child_process_peaks(self):
        """A terminated child's peak must show up in the reported RSS.

        Campaign pool workers allocate in children; a ``RUSAGE_SELF``-only
        implementation under-reports them entirely.
        The child touches every page so the allocation is resident, not
        just mapped.
        """
        import platform
        import resource
        import subprocess
        import sys

        allocate_kb = 192 * 1024
        script = (
            "data = bytearray(192 * 1024 * 1024)\n"
            "for index in range(0, len(data), 4096):\n"
            "    data[index] = 1\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True)
        children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if platform.system() == "Darwin":
            children_kb //= 1024
        assert children_kb >= int(allocate_kb * 0.9)
        assert peak_rss_kb() >= children_kb
