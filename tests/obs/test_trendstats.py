"""The one trend gate: its statistics, its edge cases, its two readers."""

import json
import math

import pytest

from repro.obs import history  # its bench_* reader would collect as a test
from repro.obs.registry import BenchResult, RunRecord, RunRegistry
from repro.obs.trendstats import (
    MAD_SCALE,
    Z_THRESHOLD,
    TrendSeries,
    ascii_sparkline,
    mad,
    median,
    robust_z,
    rolling_window,
    trend_gate,
)


def _report(values, *, window=8, threshold=0.5, min_delta=0.005):
    """One series through the gate, with ``bench trend``'s defaults."""
    return trend_gate(
        [TrendSeries("E-LINE", list(range(len(values))), list(values))],
        source="bench",
        metric="wall_s",
        window=window,
        threshold=threshold,
        min_delta=min_delta,
    )


def _series(values, **kwargs):
    (s,) = _report(values, **kwargs).series
    return s


class TestSparkline:
    def test_monotone_ramp_uses_full_glyph_range(self):
        spark = ascii_sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert spark[0] == "▁"
        assert spark[-1] == "█"
        assert len(spark) == 8

    def test_constant_series(self):
        assert ascii_sparkline([5, 5, 5]) == "▁▁▁"

    def test_non_finite_values_render_as_question_marks(self):
        assert ascii_sparkline([1.0, math.inf, 2.0])[1] == "?"
        assert ascii_sparkline([math.nan]) == "?"

    def test_empty(self):
        assert ascii_sparkline([]) == ""

    def test_history_reexports_unchanged(self):
        """`repro runs trend` keeps rendering through the same glyphs."""
        from repro.obs.history import ascii_sparkline as from_history

        assert from_history is ascii_sparkline


class TestRobustStatistics:
    def test_median_odd_even(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 3, 2]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_mad_constant_is_zero(self):
        assert mad([5, 5, 5]) == 0.0

    def test_mad_resists_one_outlier(self):
        assert mad([1, 1, 1, 1, 100]) == 0.0

    def test_robust_z_matches_hand_computation(self):
        baseline = [10, 12, 11, 13, 9]
        center = median(baseline)  # 11
        spread = mad(baseline, center)  # 1
        z = robust_z(14, baseline)
        assert z == pytest.approx((14 - center) / (MAD_SCALE * spread))

    def test_robust_z_none_on_zero_mad(self):
        assert robust_z(100, [5, 5, 5]) is None


class TestRollingWindow:
    def test_takes_up_to_window_pre_latest_values(self):
        assert list(rolling_window([1, 2, 3, 4, 5], 3)) == [2, 3, 4]

    def test_short_history(self):
        assert list(rolling_window([1, 2], 5)) == [1]
        assert list(rolling_window([1], 5)) == []


class TestRollingGate:
    """The relative threshold, the absolute floor and the window."""

    def test_threshold_boundary_is_strict(self):
        s = _series([10, 10, 15], window=5, min_delta=0.0)
        assert s.ratio == pytest.approx(1.5)
        assert not s.regressed  # exactly 1.5x: not beyond
        assert _series([10, 10, 15.01], window=5, min_delta=0.0).regressed

    def test_min_delta_floor_suppresses_small_absolute_increase(self):
        assert not _series([0.1, 0.1, 0.3], window=5, min_delta=0.5).regressed
        assert _series([0.1, 0.1, 0.9], window=5, min_delta=0.5).regressed

    def test_zero_baseline_regresses_on_above_floor_latest(self):
        s = _series([0, 0, 5], window=5, min_delta=0.0)
        assert s.regressed
        assert math.isinf(s.ratio)
        assert not _series([0, 0, 0.1], window=5, min_delta=1.0).regressed

    def test_zero_baseline_zero_latest_is_clean(self):
        s = _series([0, 0, 0], window=5, min_delta=0.0)
        assert not s.regressed
        assert s.ratio == 1.0

    def test_fewer_than_two_values_no_gate(self):
        s = _series([10], window=5)
        assert s.latest is None
        assert s.baseline is None
        assert not s.regressed

    def test_window_limits_baseline(self):
        # Only the last 2 pre-latest values (30, 40) form the baseline.
        s = _series([1000, 30, 40, 36], window=2)
        assert s.baseline == pytest.approx(35.0)
        assert not s.regressed


class TestGateEdgeCases:
    def test_history_shorter_than_window_still_gates(self):
        """4 points against window=8: the baseline is just smaller."""
        report = _report([0.1, 0.1, 0.1, 10.0], window=8)
        assert report.series[0].regressed
        assert report.failed

    def test_too_short_history_never_fires(self):
        """One point: no baseline at all.  Two points already gate."""
        report = _report([100.0])
        s = report.series[0]
        assert not s.regressed
        assert s.latest is None
        assert not report.failed
        assert _series([0.1, 100.0]).regressed

    def test_zero_variance_history_falls_back_to_relative_gate(self):
        """MAD == 0 would make any deviation infinitely significant;
        the z-term is skipped and the relative+absolute gate decides."""
        s = _series([0.1] * 8 + [0.5])
        assert s.z is None
        assert s.regressed
        # And a tiny wiggle over a constant history does NOT fire.
        assert not _series([0.1] * 8 + [0.102]).regressed

    def test_single_outlier_in_history_does_not_poison_baseline(self):
        """A rolling MEAN would be dragged up by the 5.0 outlier; the
        median baseline stays at 0.1 and still catches the regression."""
        values = [0.1, 0.1, 5.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.4]
        s = _series(values, window=8)
        assert s.baseline == pytest.approx(0.1)
        assert s.regressed

    def test_spike_vs_drift_classification(self):
        spike = _series([0.1] * 8 + [1.0], window=8)
        assert spike.kind == "spike"
        drift = _series([0.1] * 6 + [1.0, 1.05, 1.1], window=8)
        assert drift.regressed
        assert drift.kind == "drift"

    def test_noise_floor_suppresses_sub_millisecond_jitter(self):
        """A 3x blowup of a 0.2ms run is scheduler noise: under the
        5ms floor the gate must stay quiet."""
        assert not _series([0.0002] * 8 + [0.0006]).regressed
        # The same relative blowup at real magnitude fires.
        assert _series([0.2] * 8 + [0.6]).regressed

    def test_jittery_history_needs_the_z_term(self):
        """With a wide-but-noisy window, a latest point past the
        relative bar but within normal spread must not fire."""
        values = [0.10, 0.18, 0.09, 0.17, 0.11, 0.19, 0.10, 0.18, 0.20]
        s = _series(values, window=8, threshold=0.3, min_delta=0.0)
        assert s.z is not None and s.z < Z_THRESHOLD
        assert not s.regressed

    def test_improvement_never_fires(self):
        assert not _series([0.5] * 8 + [0.1]).regressed

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="window"):
            _report([], window=0)
        with pytest.raises(ValueError, match="threshold"):
            _report([], threshold=-0.1)
        with pytest.raises(ValueError, match="min_delta"):
            _report([], min_delta=-1)

    def test_report_renders_and_serializes(self):
        report = _report([0.1] * 8 + [1.0])
        text = report.render()
        assert "REGRESSION (spike)" in text
        assert "E-LINE" in text
        payload = report.to_dict()
        json.dumps(payload, allow_nan=False)
        assert payload["failed"] is True
        assert payload["z_threshold"] == Z_THRESHOLD

    def test_non_finite_ratio_serializes_as_null(self):
        payload = _report([0, 0, 5], min_delta=0.0).to_dict()
        (series,) = payload["series"]
        assert series["ratio"] is None
        json.dumps(payload, allow_nan=False)


#: Series covering each branch of the gate: clean, regressed over a
#: constant history, jitter inside the z-term, a zero baseline, one point.
_PARITY_SERIES = [
    [1.0, 1.1, 0.9, 1.05],
    [1.0, 1.0, 1.0, 5.0],
    [0.10, 0.18, 0.09, 0.17, 0.11, 0.19, 0.10, 0.18, 0.20],
    [0.0, 0.0, 5.0],
    [3.0],
]


@pytest.mark.parametrize("values", _PARITY_SERIES)
def test_runs_and_bench_readers_give_the_same_verdict(tmp_path, values):
    """The same values as ``runs`` rows and as ``bench_results`` rows
    reach the one gate and come back with the same verdict."""
    gate = dict(window=5, threshold=0.3, min_delta=0.0)
    with RunRegistry(str(tmp_path / "runs.db")) as registry:
        for value in values:
            registry.record(RunRecord(
                experiment_id="E-X", scale="quick", verdict="pass",
                seed=7, wall_s=value,
            ))
            registry.record_bench(BenchResult(experiment_id="E-X", wall_s=value))
        (run_series,) = history.trend_report(registry, **gate).series
        (bench_series,) = history.bench_trend_report(registry, **gate).series
    verdict = lambda s: (s.baseline, s.latest, s.ratio, s.z, s.regressed, s.kind)
    assert verdict(run_series) == verdict(bench_series)
    assert run_series.values == bench_series.values == values
