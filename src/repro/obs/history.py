"""Historical trend analytics over the run registry.

The query layer behind ``repro runs {list,show,compare,trend,gc}`` and
``repro bench trend``: given a :class:`~repro.obs.registry.RunRegistry`,
it builds per-experiment time series and turns them into three
cross-run signals no single trace can see:

* **regressions** -- :func:`trend_report` (``runs`` rows, any metric)
  and :func:`bench_trend_report` (``bench_results`` rows, best-of-k
  ``wall_s``) hand their series to the one gate,
  :func:`repro.obs.trendstats.trend_gate`: latest value vs the rolling
  median of the previous ``window`` values (both commands exit 1 on a
  regression, the CI contract);
* **flaky verdicts** -- experiments are deterministic (every RNG is
  seeded), so two runs with the same ``(experiment, scale, seed)`` must
  agree; a pass *and* a fail in the same group is a flake and fails
  the runs trend gate;
* **counter drift between any two runs** -- ``repro runs compare A B``
  diffs two rows' bench fingerprints and deterministic metrics the way
  ``bench-compare`` diffs a directory against a baseline.

Sparklines: the terminal trend view renders each series with unicode
block glyphs; ``repro runs trend --html trend.html`` reuses the HTML
report's inline-SVG sparklines (:func:`repro.obs.report.render_history_html`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.registry import RunRecord, RunRegistry
from repro.obs.trendstats import (
    FlakyVerdict,
    TrendReport,
    TrendSeries,
    ascii_sparkline,
    trend_gate,
)

__all__ = [
    "RunComparison",
    "metric_series",
    "compare_runs",
    "trend_report",
    "bench_trend_report",
    "render_runs_table",
    "ascii_sparkline",
]


def _metric_value(record: RunRecord, metric: str) -> float | None:
    """One run's value of ``metric``: ``wall_s``, a counter, or a flat key."""
    if metric == "wall_s":
        return record.wall_s
    if metric in record.counters:
        return float(record.counters[metric])
    value = record.metrics.get(metric)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def metric_series(
    records: Sequence[RunRecord], metric: str = "wall_s"
) -> tuple[list[int], list[float]]:
    """``(run_ids, values)`` for the runs where ``metric`` is present."""
    ids: list[int] = []
    values: list[float] = []
    for record in records:
        value = _metric_value(record, metric)
        if value is not None:
            ids.append(record.run_id or 0)
            values.append(value)
    return ids, values


# ---------------------------------------------------------------------------
# runs compare
# ---------------------------------------------------------------------------


@dataclass
class RunComparison:
    """Diff of two registry rows (``repro runs compare A B``)."""

    a: RunRecord
    b: RunRecord
    counter_drifts: list[tuple[str, float, float]] = field(default_factory=list)
    metric_drifts: list[tuple[str, object, object]] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        """No deterministic difference (wall-clock is never compared)."""
        return not self.counter_drifts and not self.metric_drifts

    def to_dict(self) -> dict:
        return {
            "a": self.a.run_id,
            "b": self.b.run_id,
            "identical": self.identical,
            "counter_drifts": [
                {"key": k, "a": va, "b": vb}
                for k, va, vb in self.counter_drifts
            ],
            "metric_drifts": [
                {"key": k, "a": va, "b": vb}
                for k, va, vb in self.metric_drifts
            ],
            "wall_s": {"a": self.a.wall_s, "b": self.b.wall_s},
        }

    def render(self) -> str:
        head = (
            f"runs compare: #{self.a.run_id} ({self.a.experiment_id}"
            f"@{self.a.ts_utc}) vs #{self.b.run_id} "
            f"({self.b.experiment_id}@{self.b.ts_utc})"
        )
        lines = [head]
        if self.a.verdict != self.b.verdict:
            lines.append(
                f"  VERDICT {self.a.verdict} -> {self.b.verdict}"
            )
        for key, va, vb in self.counter_drifts:
            lines.append(f"  COUNTER {key}: {va:g} -> {vb:g}")
        for key, va, vb in self.metric_drifts:
            lines.append(f"  metric {key}: {va!r} -> {vb!r}")
        if self.a.wall_s and self.b.wall_s:
            ratio = self.b.wall_s / self.a.wall_s
            lines.append(
                f"  wall_s: {self.a.wall_s:.3f} -> {self.b.wall_s:.3f} "
                f"({ratio:.2f}x, advisory)"
            )
        if self.identical:
            lines.append("  deterministic columns identical")
        return "\n".join(lines)


def compare_runs(registry: RunRegistry, a: int, b: int) -> RunComparison:
    """Diff runs ``a`` and ``b`` (KeyError when either id is absent)."""
    ra, rb = registry.get(a), registry.get(b)
    comparison = RunComparison(ra, rb)
    for key in sorted(set(ra.counters) | set(rb.counters)):
        va, vb = ra.counters.get(key, 0), rb.counters.get(key, 0)
        if va != vb:
            comparison.counter_drifts.append((key, float(va), float(vb)))
    for key in sorted(set(ra.metrics) | set(rb.metrics)):
        va, vb = ra.metrics.get(key), rb.metrics.get(key)
        if va != vb:
            comparison.metric_drifts.append((key, va, vb))
    if ra.verdict != rb.verdict:
        comparison.metric_drifts.insert(0, ("verdict", ra.verdict, rb.verdict))
    return comparison


# ---------------------------------------------------------------------------
# runs trend, bench trend
# ---------------------------------------------------------------------------


def _find_flaky(records: Sequence[RunRecord]) -> list[FlakyVerdict]:
    groups: dict[tuple[str, str, int | None], dict[str, list[int]]] = {}
    for record in records:
        key = (record.experiment_id, record.scale, record.seed)
        bucket = groups.setdefault(key, {"pass": [], "fail": []})
        bucket[record.verdict if record.verdict in ("pass", "fail") else "fail"
               ].append(record.run_id or 0)
    out = []
    for (experiment_id, scale, seed), bucket in sorted(groups.items()):
        if bucket["pass"] and bucket["fail"]:
            out.append(FlakyVerdict(
                experiment_id, scale, seed, bucket["pass"], bucket["fail"]
            ))
    return out


def trend_report(
    registry: RunRegistry,
    *,
    experiment_id: str | None = None,
    metric: str = "wall_s",
    window: int = 5,
    threshold: float = 0.5,
    min_delta: float = 0.0,
) -> TrendReport:
    """``repro runs trend``: the trend gate over the ``runs`` table.

    ``metric`` is ``wall_s`` (default), any bench-counter name
    (``mpc.rounds``), or any deterministic flat-metric key.  ``window``,
    ``threshold`` and ``min_delta`` are :func:`~repro.obs.trendstats.trend_gate`'s.
    Flaky verdict groups fail the report too.
    """
    ids = (
        [experiment_id] if experiment_id is not None
        else registry.experiment_ids()
    )
    all_records: list[RunRecord] = []
    series: list[TrendSeries] = []
    for eid in ids:
        records = registry.runs(eid, newest_first=False)
        all_records.extend(records)
        run_ids, values = metric_series(records, metric)
        if values:
            series.append(TrendSeries(eid, run_ids, values))
    return trend_gate(
        series,
        source="runs",
        metric=metric,
        window=window,
        threshold=threshold,
        min_delta=min_delta,
        flaky=_find_flaky(all_records),
    )


def bench_trend_report(
    registry: RunRegistry,
    *,
    experiments: Sequence[str] | None = None,
    window: int = 8,
    threshold: float = 0.5,
    min_delta: float = 0.005,
) -> TrendReport:
    """``repro bench trend``: the same gate over ``bench_results`` rows.

    Each experiment's best-of-k ``wall_s`` in recording order is one
    series; ``experiments`` restricts which.  Bench rows never join a
    ``runs`` series: they are untraced best-of-k timings, runs rows are
    single-shot traced runs.
    """
    grouped: dict[str, TrendSeries] = {}
    for row in registry.bench_results(newest_first=False):
        if row.wall_s is None:
            continue
        if experiments and row.experiment_id not in experiments:
            continue
        s = grouped.setdefault(row.experiment_id, TrendSeries(row.experiment_id))
        s.ids.append(row.bench_id or 0)
        s.values.append(row.wall_s)
    return trend_gate(
        [grouped[eid] for eid in sorted(grouped)],
        source="bench",
        metric="wall_s",
        window=window,
        threshold=threshold,
        min_delta=min_delta,
    )


# ---------------------------------------------------------------------------
# runs list
# ---------------------------------------------------------------------------


def render_runs_table(records: Sequence[RunRecord]) -> str:
    """The aligned table ``repro runs list`` prints (newest first).

    ``rss_peak`` and ``ovh%`` come from the registry's nullable
    telemetry columns; runs recorded without ``--telemetry`` show "-".
    """
    if not records:
        return "runs list: registry is empty"
    headers = ("id", "timestamp (UTC)", "experiment", "scale", "verdict",
               "wall_s", "jobs", "viol", "rss_peak", "ovh%", "sha")
    rows = []
    for r in records:
        rows.append((
            str(r.run_id),
            r.ts_utc,
            r.experiment_id,
            r.scale,
            r.verdict,
            "-" if r.wall_s is None else f"{r.wall_s:.3f}",
            str(r.jobs),
            str(r.violations),
            "-" if r.rss_peak_kb is None else f"{r.rss_peak_kb / 1024:.1f}M",
            "-" if r.overhead_frac is None else f"{r.overhead_frac * 100:.2f}",
            (r.git_sha or "-")[:10],
        ))
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in rows))
        for c in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
