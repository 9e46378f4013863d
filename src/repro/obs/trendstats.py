"""The one trend gate: rolling-median baseline, robust z, sparklines.

Every trend verdict comes from :func:`trend_gate`.  Two thin readers
feed it per-experiment series (:mod:`repro.obs.history`):

* ``repro runs trend`` -- the registry's ``runs`` rows (single-shot
  traced runs), any metric: ``wall_s``, a bench counter, a flat key;
* ``repro bench trend`` -- the registry's ``bench_results`` rows
  (untraced best-of-k wall-clock).

The two tables measure different things, so their rows never share a
series; they share only the rule.  The latest value of a series
regresses when it is past **all** of:

1. relative -- ``latest > median * (1 + threshold)``, the median taken
   over the previous ``window`` values, so one historical outlier
   cannot poison the baseline;
2. absolute -- ``latest - median > min_delta``, the noise floor that
   keeps a 3x blowup of a 2 ms run from firing;
3. robust z -- ``(latest - median) / (MAD_SCALE * MAD) > Z_THRESHOLD``,
   so a wide-but-noisy history does not fire on ordinary jitter.  A
   zero MAD (one baseline point, or a constant history) skips this
   term and the first two decide alone.

A zero baseline regresses on any latest value above the floor.  A
series needs at least 2 values for a verdict.  A confirmed regression
is a ``"drift"`` when the trailing points are elevated too (a
sustained slowdown), else a ``"spike"`` (worth a re-run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = [
    "MAD_SCALE",
    "Z_THRESHOLD",
    "FlakyVerdict",
    "TrendReport",
    "TrendSeries",
    "ascii_sparkline",
    "mad",
    "median",
    "robust_z",
    "rolling_window",
    "trend_gate",
]

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: The consistency constant making MAD comparable to a standard
#: deviation under a normal distribution (1 / Phi^-1(3/4)).
MAD_SCALE = 1.4826

#: The robust z-score a regression must also exceed when the baseline
#: window has measurable spread.
Z_THRESHOLD = 4.0


def ascii_sparkline(values: Sequence[float]) -> str:
    """A unicode-block sparkline of ``values`` (empty string if none)."""
    finite = [v for v in values if not math.isinf(v) and not math.isnan(v)]
    if not finite:
        return "?" * len(values)
    lo, hi = min(finite), max(finite)
    span = (hi - lo) or 1.0
    out = []
    for v in values:
        if math.isinf(v) or math.isnan(v):
            out.append("?")
            continue
        idx = int((v - lo) / span * (len(_SPARK_GLYPHS) - 1))
        out.append(_SPARK_GLYPHS[idx])
    return "".join(out)


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sequence (ValueError when empty)."""
    if not values:
        raise ValueError("median of an empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float], center: float | None = None) -> float:
    """Median absolute deviation around ``center`` (default: the median).

    Zero for constant sequences -- callers must treat a zero MAD as
    "no spread measurable" and fall back to relative/absolute gates
    rather than dividing by it.
    """
    if not values:
        raise ValueError("mad of an empty sequence")
    if center is None:
        center = median(values)
    return median([abs(v - center) for v in values])


def robust_z(value: float, baseline: Sequence[float]) -> float | None:
    """The MAD-based robust z-score of ``value`` against ``baseline``.

    ``(value - median) / (MAD_SCALE * mad)``; ``None`` when the
    baseline has no measurable spread (MAD == 0), in which case any
    nonzero deviation would be infinitely significant and the caller
    should gate on relative/absolute terms instead.
    """
    center = median(baseline)
    spread = mad(baseline, center)
    if spread <= 0.0:
        return None
    return (value - center) / (MAD_SCALE * spread)


def rolling_window(values: Sequence[float], window: int) -> Sequence[float]:
    """The pre-latest baseline slice: up to ``window`` values before the
    last one.  Empty when there is no history (fewer than 2 values)."""
    if len(values) < 2:
        return values[:0]
    return values[max(0, len(values) - 1 - window):-1]


def _rounded(value: float | None, digits: int) -> float | None:
    """``value`` rounded for JSON; ``None`` when absent or non-finite
    (strict JSON has no ``Infinity``)."""
    if value is None or not math.isfinite(value):
        return None
    return round(value, digits)


@dataclass
class TrendSeries:
    """One experiment's chronological series and its verdict.

    ``ids`` are the registry row ids behind ``values`` (run ids for
    ``runs trend``, bench ids for ``bench trend``).  The verdict fields
    stay ``None``/``False`` until :func:`trend_gate` fills them, and
    stay so for a series shorter than 2 values.
    """

    experiment_id: str
    ids: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    baseline: float | None = None  # median of the pre-latest window
    latest: float | None = None
    ratio: float | None = None  # latest / baseline; inf over a zero baseline
    z: float | None = None  # robust z-score; None when MAD == 0
    regressed: bool = False
    kind: str | None = None  # "spike" | "drift" once regressed

    @property
    def n(self) -> int:
        return len(self.values)

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "ids": self.ids,
            "values": [_rounded(v, 6) for v in self.values],
            "baseline": _rounded(self.baseline, 6),
            "latest": _rounded(self.latest, 6),
            "ratio": _rounded(self.ratio, 4),
            "z": _rounded(self.z, 4),
            "regressed": self.regressed,
            "kind": self.kind,
        }


@dataclass
class FlakyVerdict:
    """One (experiment, scale, seed) group whose verdicts disagree."""

    experiment_id: str
    scale: str
    seed: int | None
    pass_ids: list[int]
    fail_ids: list[int]

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "scale": self.scale,
            "seed": self.seed,
            "pass_ids": self.pass_ids,
            "fail_ids": self.fail_ids,
        }


@dataclass
class TrendReport:
    """Every trend verdict of one ``repro runs|bench trend`` call.

    ``source`` names the registry table read (``"runs"`` or
    ``"bench"``); ``flaky`` is filled only by ``runs trend``.
    """

    source: str
    metric: str
    window: int
    threshold: float
    min_delta: float
    series: list[TrendSeries] = field(default_factory=list)
    flaky: list[FlakyVerdict] = field(default_factory=list)

    @property
    def regressions(self) -> list[TrendSeries]:
        return [s for s in self.series if s.regressed]

    @property
    def failed(self) -> bool:
        """The CI gate: any regression or any flaky verdict."""
        return bool(self.regressions or self.flaky)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "metric": self.metric,
            "window": self.window,
            "threshold": self.threshold,
            "min_delta": self.min_delta,
            "z_threshold": Z_THRESHOLD,
            "series": [s.to_dict() for s in self.series],
            "regressions": [s.experiment_id for s in self.regressions],
            "flaky": [f.to_dict() for f in self.flaky],
            "failed": self.failed,
        }

    def render(self) -> str:
        title = f"{self.source} trend"
        if not self.series and not self.flaky:
            return f"{title}: no runs recorded"
        lines = [
            f"{title}: metric={self.metric}, window={self.window}, "
            f"threshold={self.threshold:.0%}, min-delta={self.min_delta:g}, "
            f"z>{Z_THRESHOLD:g}"
        ]
        width = max((len(s.experiment_id) for s in self.series), default=0)
        for s in self.series:
            spark = ascii_sparkline(s.values[-16:])
            if s.latest is None:
                detail = f"{s.n} point(s), need >= 2 for the gate"
            else:
                z_txt = "n/a" if s.z is None else f"{s.z:+.1f}"
                status = f"REGRESSION ({s.kind})" if s.regressed else "ok"
                detail = (
                    f"latest {s.latest:g} vs median {s.baseline:g} "
                    f"({s.ratio:.2f}x, z={z_txt}) {status}"
                )
            lines.append(f"  {s.experiment_id:<{width}}  {spark:<16}  {detail}")
        for s in self.regressions:
            lines.append(
                f"  regression: {s.experiment_id} is {s.ratio:.2f}x its "
                "rolling median -- "
                + (
                    "sustained across the trailing points (drift)"
                    if s.kind == "drift"
                    else "isolated to the latest point (spike); consider "
                    "re-running before trusting it"
                )
            )
        for flake in self.flaky:
            lines.append(
                f"  FLAKY {flake.experiment_id} (scale={flake.scale}, "
                f"seed={flake.seed}): passed in runs {flake.pass_ids}, "
                f"failed in runs {flake.fail_ids}"
            )
        if self.failed:
            lines.append(
                f"FAIL: {len(self.regressions)} regressions, "
                f"{len(self.flaky)} flaky verdict group(s)"
            )
        else:
            lines.append(
                f"ok: no regressions across {len(self.series)} experiment(s)"
            )
        return "\n".join(lines)


def _gate(series: TrendSeries, window: int, threshold: float,
          min_delta: float) -> None:
    """Fill one series' verdict fields in place (the rule above)."""
    values = series.values
    if len(values) < 2:
        return
    latest = values[-1]
    window_values = rolling_window(values, window)
    baseline = median(window_values)
    series.latest, series.baseline = latest, baseline
    if baseline > 0:
        series.ratio = latest / baseline
        regressed = (
            latest > baseline * (1.0 + threshold)
            and latest - baseline > min_delta
        )
    else:
        series.ratio = math.inf if latest > 0 else 1.0
        regressed = latest > min_delta
    series.z = robust_z(latest, window_values)
    if regressed and series.z is not None:
        regressed = series.z > Z_THRESHOLD
    series.regressed = regressed
    if regressed:
        # Two or more trailing points above the relative bar mean the
        # slowdown predates the latest run.
        bar = baseline * (1.0 + threshold)
        elevated = 0
        for value in reversed(values):
            if value <= bar:
                break
            elevated += 1
        series.kind = "drift" if baseline > 0 and elevated >= 2 else "spike"


def trend_gate(
    series: Iterable[TrendSeries],
    *,
    source: str,
    metric: str,
    window: int,
    threshold: float,
    min_delta: float,
    flaky: Sequence[FlakyVerdict] = (),
) -> TrendReport:
    """Gate every series (in place) and collect them into one report.

    ``window`` is the number of pre-latest values whose median is the
    baseline, ``threshold`` the relative increase and ``min_delta`` the
    absolute increase the latest value must both exceed.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if min_delta < 0:
        raise ValueError(f"min_delta must be >= 0, got {min_delta}")
    report = TrendReport(
        source=source,
        metric=metric,
        window=window,
        threshold=threshold,
        min_delta=min_delta,
        flaky=list(flaky),
    )
    for s in series:
        _gate(s, window, threshold, min_delta)
        report.series.append(s)
    return report
