"""Tests for the cross-run history analytics (repro.obs.history)."""

import pytest

from repro.obs import history  # its bench_* reader would collect as a test
from repro.obs.history import (
    ascii_sparkline,
    compare_runs,
    metric_series,
    render_runs_table,
    trend_report,
)
from repro.obs.registry import BenchResult, RunRecord, RunRegistry


def _record(experiment_id="E-X", *, verdict="pass", wall_s=1.0, seed=7,
            counters=None, metrics=None, scale="quick"):
    return RunRecord(
        experiment_id=experiment_id,
        scale=scale,
        verdict=verdict,
        seed=seed,
        wall_s=wall_s,
        counters=counters or {},
        metrics=metrics or {},
    )


@pytest.fixture()
def registry(tmp_path):
    with RunRegistry(str(tmp_path / "runs.db")) as reg:
        yield reg


class TestSparkline:
    def test_monotone_ramp(self):
        spark = ascii_sparkline([1, 2, 3, 4])
        assert len(spark) == 4
        assert spark[0] == "▁" and spark[-1] == "█"

    def test_empty_and_nonfinite(self):
        assert ascii_sparkline([]) == ""
        assert ascii_sparkline([float("inf")]) == "?"


class TestMetricSeries:
    def test_wall_counters_and_flat_metrics(self, registry):
        registry.record(_record(
            wall_s=1.5, counters={"mpc.rounds": 7},
            metrics={"estimates.p.value": 0.25},
        ))
        records = registry.runs(newest_first=False)
        assert metric_series(records, "wall_s")[1] == [1.5]
        assert metric_series(records, "mpc.rounds")[1] == [7.0]
        assert metric_series(records, "estimates.p.value")[1] == [0.25]
        assert metric_series(records, "nope")[1] == []


class TestCompareRuns:
    def test_identical_rows(self, registry):
        a = registry.record(_record(counters={"mpc.rounds": 5}))
        b = registry.record(_record(counters={"mpc.rounds": 5}, wall_s=9.0))
        comparison = compare_runs(registry, a, b)
        assert comparison.identical  # wall-clock never compared
        assert "identical" in comparison.render()

    def test_counter_and_verdict_drift(self, registry):
        a = registry.record(_record(counters={"mpc.rounds": 5}))
        b = registry.record(_record(
            counters={"mpc.rounds": 6}, verdict="fail",
            metrics={"k": 1},
        ))
        comparison = compare_runs(registry, a, b)
        assert not comparison.identical
        assert ("mpc.rounds", 5.0, 6.0) in comparison.counter_drifts
        assert comparison.metric_drifts[0] == ("verdict", "pass", "fail")
        d = comparison.to_dict()
        assert d["identical"] is False
        assert d["counter_drifts"][0]["key"] == "mpc.rounds"

    def test_missing_run_raises(self, registry):
        a = registry.record(_record())
        with pytest.raises(KeyError):
            compare_runs(registry, a, 999)


class TestTrend:
    def test_no_regression_on_stable_series(self, registry):
        for wall in (1.0, 1.1, 0.9, 1.05):
            registry.record(_record(wall_s=wall))
        report = trend_report(registry)
        assert not report.failed
        assert report.series[0].latest == 1.05
        assert "ok" in report.render()

    def test_regression_detected_and_fails_gate(self, registry):
        for wall in (1.0, 1.0, 1.0, 5.0):
            registry.record(_record(wall_s=wall))
        report = trend_report(registry, threshold=0.5)
        assert report.failed
        assert report.series[0].regressed
        assert report.series[0].ratio == pytest.approx(5.0)
        assert "REGRESSION" in report.render()
        assert report.to_dict()["regressions"] == ["E-X"]

    def test_min_delta_floor_suppresses_noise(self, registry):
        # 3x relative blowup, but only +2ms absolute: not a regression.
        for wall in (0.001, 0.001, 0.003):
            registry.record(_record(wall_s=wall))
        assert not trend_report(registry, min_delta=0.1).failed
        assert trend_report(registry, min_delta=0.0).failed

    def test_window_bounds_baseline(self, registry):
        # Ancient slowness outside the window must not mask a regression.
        for wall in (50.0, 1.0, 1.0, 4.0):
            registry.record(_record(wall_s=wall))
        report = trend_report(registry, window=2, threshold=0.5)
        assert report.series[0].baseline == pytest.approx(1.0)
        assert report.failed

    def test_counter_metric_series(self, registry):
        registry.record(_record(counters={"mpc.rounds": 5}))
        registry.record(_record(counters={"mpc.rounds": 20}))
        report = trend_report(registry, metric="mpc.rounds", threshold=0.5)
        assert report.failed

    def test_flaky_verdict_same_seed(self, registry):
        registry.record(_record(verdict="pass", seed=7))
        registry.record(_record(verdict="fail", seed=7))
        report = trend_report(registry)
        assert report.flaky
        flake = report.flaky[0]
        assert flake.pass_ids == [1] and flake.fail_ids == [2]
        assert report.failed
        assert "FLAKY" in report.render()

    def test_differing_seeds_not_flaky(self, registry):
        registry.record(_record(verdict="pass", seed=1))
        registry.record(_record(verdict="fail", seed=2))
        assert not trend_report(registry).flaky

    def test_single_run_needs_more_data(self, registry):
        registry.record(_record())
        report = trend_report(registry)
        assert not report.failed
        assert "need >= 2" in report.render()

    def test_empty_registry(self, registry):
        report = trend_report(registry)
        assert not report.failed
        assert "no runs recorded" in report.render()

    def test_validation(self, registry):
        with pytest.raises(ValueError):
            trend_report(registry, window=0)
        with pytest.raises(ValueError):
            trend_report(registry, threshold=-0.1)


class TestBenchTrend:
    def test_bench_rows_chronological(self, registry):
        for i, wall in enumerate((0.1, 0.2, 0.3)):
            registry.record_bench(BenchResult(
                experiment_id="T1", wall_s=wall,
                ts_utc=f"2026-08-09T00:00:0{i}+00:00",
            ))
        registry.record_bench(BenchResult(experiment_id="E-LINE", wall_s=0.5))
        registry.record(_record("T1", wall_s=9.0))  # a runs row: never read
        report = history.bench_trend_report(registry, experiments=["T1"])
        (series,) = report.series
        assert series.values == [0.1, 0.2, 0.3]
        assert series.ids == [1, 2, 3]
        assert report.source == "bench"
        assert "bench trend" in report.render()


class TestRunsTable:
    def test_renders_all_rows(self, registry):
        registry.record(_record("E-A"))
        registry.record(_record("E-B", verdict="fail"))
        table = render_runs_table(registry.runs())
        lines = table.splitlines()
        assert lines[0].startswith("id")
        assert len(lines) == 3
        assert "E-B" in lines[1]  # newest first

    def test_empty(self):
        assert "empty" in render_runs_table([])
