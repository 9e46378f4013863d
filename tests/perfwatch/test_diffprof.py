"""Differential span profiling: alignment, attribution, trace files."""

import json

import pytest

from repro.obs.profile import SpanProfiler
from repro.obs.tracer import TraceRecord, Tracer
from repro.perfwatch import diff_profilers, diff_trace_files


def _profiler(spans):
    """Fold (name, start, dur) triples, emitted in completion order."""
    records = [
        TraceRecord("span", name, start, dur)
        for name, start, dur in spans
    ]
    return SpanProfiler.of(records)


class TestDiffProfilers:
    def test_attribution_sums_to_total_delta(self):
        a = _profiler([
            ("inner", 0.1, 0.4),
            ("outer", 0.0, 1.0),
        ])
        b = _profiler([
            ("inner", 0.1, 0.1),
            ("outer", 0.0, 0.5),
        ])
        diff = diff_profilers(a, b)
        assert diff.total_a == pytest.approx(1.0)
        assert diff.total_b == pytest.approx(0.5)
        assert diff.attributed == pytest.approx(diff.total_delta)
        assert diff.unattributed == pytest.approx(0.0)

    def test_per_span_self_deltas(self):
        a = _profiler([("inner", 0.1, 0.4), ("outer", 0.0, 1.0)])
        b = _profiler([("inner", 0.1, 0.1), ("outer", 0.0, 0.5)])
        deltas = {d.name: d for d in diff_profilers(a, b).deltas}
        # inner self: 0.4 -> 0.1; outer self: 0.6 -> 0.4.
        assert deltas["inner"].delta_self == pytest.approx(-0.3)
        assert deltas["outer"].delta_self == pytest.approx(-0.2)
        assert deltas["inner"].ratio == pytest.approx(0.25)

    def test_span_only_in_one_trace(self):
        a = _profiler([("setup", 0.0, 0.2)])
        b = _profiler([("teardown", 0.0, 0.3)])
        deltas = {d.name: d for d in diff_profilers(a, b).deltas}
        assert deltas["setup"].delta_self == pytest.approx(-0.2)
        assert deltas["setup"].count_b == 0
        assert deltas["teardown"].delta_self == pytest.approx(0.3)
        assert deltas["teardown"].ratio is None  # new span: no A time

    def test_sorted_by_absolute_delta(self):
        a = _profiler([("small", 0.0, 0.01), ("big", 0.1, 1.0)])
        b = _profiler([("small", 0.0, 0.02), ("big", 0.1, 0.1)])
        names = [d.name for d in diff_profilers(a, b).deltas]
        assert names == ["big", "small"]

    def test_render_and_serialize(self):
        a = _profiler([("work", 0.0, 1.0)])
        b = _profiler([("work", 0.0, 2.5)])
        diff = diff_profilers(a, b, label_a="python", label_b="fast")
        text = diff.render()
        assert "python -> fast" in text
        assert "work" in text
        json.dumps(diff.to_dict())

    def test_empty_traces(self):
        diff = diff_profilers(_profiler([]), _profiler([]))
        assert diff.total_delta == 0.0
        assert "no spans" in diff.render()


class TestDiffTraceFiles:
    def _write_trace(self, path, spans):
        with open(path, "w") as fh:
            for name, start, dur in spans:
                fh.write(json.dumps(
                    {"kind": "span", "name": name, "ts": start, "dur": dur}
                ) + "\n")

    def test_labels_default_to_paths(self, tmp_path):
        pa = str(tmp_path / "a.jsonl")
        pb = str(tmp_path / "b.jsonl")
        self._write_trace(pa, [("work", 0.0, 1.0)])
        self._write_trace(pb, [("work", 0.0, 0.25)])
        diff = diff_trace_files(pa, pb)
        assert diff.label_a == pa
        assert diff.total_delta == pytest.approx(-0.75)
        (delta,) = diff.deltas
        assert delta.name == "work"


class TestReplayedSpans:
    def test_replayed_span_start_reconstructed(self):
        """Spans replayed over the parallel bridge keep their start
        (shifted by the capture's offset) as ``ts``, so nesting
        reconstructs: the round is adopted by its run, not
        double-counted as a sibling."""
        parent = Tracer()
        # A trial captured on its own clock: round completed, then its
        # run, replayed with the capture's zero at parent time 0.05.
        for record in (
            TraceRecord("span", "mpc.round", 0.05, 0.4),
            TraceRecord("span", "mpc.run", 0.0, 0.9),
        ):
            parent.replay(record, 0.05, worker=0, trial=0)
        # The live enclosing span with a true start time.
        records = [*parent.records,
                   TraceRecord("span", "experiment", 0.0, 1.0)]
        assert [r.ts for r in records[:2]] == pytest.approx([0.1, 0.05])
        profiler = SpanProfiler.of(records)
        spots = {h.name: h for h in profiler.hotspots()}
        assert profiler.total_s == pytest.approx(1.0)
        assert spots["mpc.run"].self_s == pytest.approx(0.5)
        assert spots["experiment"].self_s == pytest.approx(0.1)
        total_self = sum(h.self_s for h in profiler.hotspots())
        assert total_self == pytest.approx(profiler.total_s)
