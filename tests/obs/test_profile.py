"""Tests for the hotspot profiler, scoped cProfile, and memory sampler."""

import pytest

from repro.experiments import experiment_ids, experiment_info
from repro.obs import (
    NULL_TRACER,
    RoundMemorySampler,
    ScopedCProfile,
    SpanProfiler,
    TraceRecord,
    Tracer,
    get_tracer,
    profile_experiment,
    use_tracer,
)


#: Experiments whose trials go through the repro.parallel capture/replay
#: bridge, plus E-MEM (plain MPC runs) as a control.
_PARTITION_IDS = [
    eid for eid in experiment_ids() if experiment_info(eid)["trial_parallel"]
] + ["E-MEM"]


def sp(name, ts, dur, **attrs):
    return TraceRecord("span", name, ts, dur, attrs)


def step(ts, dur, **attrs):
    """A duration-carrying mpc.machine_step event, emitted at its end."""
    return TraceRecord("event", "mpc.machine_step", ts, None,
                       {"dur": dur, **attrs})


class TestContainment:
    """Nesting is reconstructed from completion order alone."""

    def test_self_time_excludes_direct_children(self):
        # outer [0, 10] containing child [1, 4] and child [5, 9].
        profiler = SpanProfiler.of([
            sp("child", 1.0, 3.0),
            sp("child", 5.0, 4.0),
            sp("outer", 0.0, 10.0),
        ])
        by_name = {h.name: h for h in profiler.hotspots()}
        assert by_name["outer"].self_s == pytest.approx(3.0)
        assert by_name["outer"].cum_s == pytest.approx(10.0)
        assert by_name["child"].self_s == pytest.approx(7.0)
        assert by_name["child"].cum_s == pytest.approx(7.0)
        assert profiler.total_s == pytest.approx(10.0)

    def test_siblings_not_treated_as_nested(self):
        profiler = SpanProfiler.of([
            sp("a", 0.0, 1.0),
            sp("b", 2.0, 1.0),
        ])
        by_name = {h.name: h for h in profiler.hotspots()}
        assert by_name["a"].self_s == pytest.approx(1.0)
        assert by_name["b"].self_s == pytest.approx(1.0)
        assert profiler.total_s == pytest.approx(2.0)

    def test_recursion_counted_once_in_cumulative(self):
        # f [0, 10] calls f [2, 8]: cum must be 10, not 16.
        profiler = SpanProfiler.of([
            sp("f", 2.0, 6.0),
            sp("f", 0.0, 10.0),
        ])
        (f,) = profiler.hotspots()
        assert f.count == 2
        assert f.cum_s == pytest.approx(10.0)
        assert f.self_s == pytest.approx(10.0)  # 6 inner + (10 - 6) outer

    def test_deep_nesting_claims_through_intermediates(self):
        # grand [0,12] > parent [1,10] > leaf [2,5].
        profiler = SpanProfiler.of([
            sp("leaf", 2.0, 3.0),
            sp("parent", 1.0, 9.0),
            sp("grand", 0.0, 12.0),
        ])
        by_name = {h.name: h for h in profiler.hotspots()}
        assert by_name["grand"].self_s == pytest.approx(3.0)
        assert by_name["parent"].self_s == pytest.approx(6.0)
        assert by_name["grand"].cum_s == pytest.approx(12.0)
        assert by_name["parent"].cum_s == pytest.approx(9.0)
        assert by_name["leaf"].cum_s == pytest.approx(3.0)

    def test_dur_events_count_as_spans(self):
        profiler = SpanProfiler.of([
            step(3.0, 2.0, round=0, machine=1),
            sp("mpc.round", 0.0, 5.0, round=0, messages=4, oracle_queries=2),
        ])
        by_name = {h.name: h for h in profiler.hotspots()}
        assert by_name["mpc.round"].self_s == pytest.approx(3.0)
        assert by_name["mpc.machine_step"].cum_s == pytest.approx(2.0)

    def test_plain_events_ignored(self):
        profiler = SpanProfiler.of([
            TraceRecord("event", "oracle.query", 1.0, None, {"round": 0}),
            sp("mpc.run", 0.0, 2.0),
        ])
        assert [h.name for h in profiler.hotspots()] == ["mpc.run"]


class TestRounds:
    def test_round_rows_decompose_latency(self):
        profiler = SpanProfiler.of([
            step(1.0, 1.0, round=0, machine=0),
            step(3.0, 2.0, round=0, machine=1),
            sp("mpc.round", 0.0, 4.0, round=0, messages=3, oracle_queries=5),
        ])
        (row,) = profiler.rounds()
        assert row.round == 0
        assert row.latency_s == pytest.approx(4.0)
        assert row.machine_s == pytest.approx(3.0)
        assert row.overhead_s == pytest.approx(1.0)
        assert row.messages == 3 and row.oracle_queries == 5
        assert row.slowest_machine == 1
        assert row.slowest_machine_s == pytest.approx(2.0)

    def test_render_mentions_hotspots_and_slow_rounds(self):
        profiler = SpanProfiler.of([
            step(1.0, 1.0, round=0, machine=0),
            sp("mpc.round", 0.0, 2.0, round=0, messages=1, oracle_queries=0),
        ])
        text = profiler.render()
        assert "hotspots" in text
        assert "mpc.round" in text and "mpc.machine_step" in text
        assert "slowest rounds" in text

    def test_empty_trace_renders(self):
        profiler = SpanProfiler.of([])
        assert "0 span kinds" in profiler.render()
        assert profiler.total_s == 0.0


class TestLiveSubscription:
    def test_streaming_equals_offline(self):
        tracer = Tracer()
        live = SpanProfiler()
        tracer.subscribe(live)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        offline = SpanProfiler.of(tracer.records)
        assert [h.to_dict() for h in live.hotspots()] == (
            [h.to_dict() for h in offline.hotspots()]
        )


class TestScopedCProfile:
    def test_unscoped_profiles_whole_window(self):
        scoped = ScopedCProfile()
        scoped.start()
        sum(range(1000))
        scoped.stop()
        assert "function calls" in scoped.stats_table()

    def test_scoped_only_inside_matching_span(self):
        def inside():
            return sum(range(100))

        def outside():
            return max(range(100))

        scoped = ScopedCProfile("mpc.round")
        scoped.start()
        outside()
        scoped.span_start("mpc.round", {})
        inside()
        scoped.span_end("mpc.round")
        outside()
        scoped.stop()
        table = scoped.stats_table(top=50)
        assert "inside" in table
        assert "outside" not in table

    def test_nested_same_name_spans_balance(self):
        scoped = ScopedCProfile("mpc.round")
        scoped.start()
        scoped.span_start("mpc.round", {})
        scoped.span_start("mpc.round", {})
        scoped.span_end("mpc.round")
        assert scoped._depth == 1  # still inside the outer span
        scoped.span_end("mpc.round")
        assert scoped._depth == 0
        scoped.stop()

    def test_other_spans_ignored(self):
        scoped = ScopedCProfile("oracle.query")
        scoped.start()
        scoped.span_start("mpc.round", {})
        assert scoped._depth == 0
        scoped.span_end("mpc.round")
        scoped.stop()


class TestRoundMemorySampler:
    def test_records_peak_per_round(self):
        sampler = RoundMemorySampler()
        sampler.start()
        try:
            blob = bytearray(256 * 1024)
            sampler(TraceRecord("span", "mpc.round", 0.0, 0.1, {"round": 0}))
            del blob
            sampler(TraceRecord("span", "mpc.round", 0.1, 0.1, {"round": 1}))
        finally:
            sampler.stop()
        assert set(sampler.peak_bytes) == {0, 1}
        assert sampler.peak_bytes[0] >= 256 * 1024
        assert "round memory peaks" in sampler.render()

    def test_stop_without_start_is_safe(self):
        RoundMemorySampler().stop()  # must not raise


class TestProfileExperiment:
    def test_smoke_on_table_experiment(self):
        session = profile_experiment("T1")
        assert session.result.passed
        assert session.records
        names = [h.name for h in session.profiler.hotspots()]
        assert "experiment" in names
        assert session.cprofile is None and session.memory is None
        assert get_tracer() is NULL_TRACER

    def test_cprofile_span_implies_cprofile(self):
        session = profile_experiment("T1", cprofile_span="experiment")
        assert session.cprofile is not None
        assert "function calls" in session.cprofile.stats_table()

    def test_hotspot_cum_matches_root_span_duration(self):
        """The acceptance bound: cumulative experiment time equals the
        traced total within 5% (here exactly, it is the root span)."""
        session = profile_experiment("T1")
        by_name = {h.name: h for h in session.profiler.hotspots()}
        (root,) = [r for r in session.records if r.name == "experiment"]
        assert by_name["experiment"].cum_s == pytest.approx(
            root.dur, rel=0.05
        )
        assert session.profiler.total_s == pytest.approx(root.dur, rel=0.05)

    @pytest.mark.parametrize("experiment_id", _PARTITION_IDS)
    def test_self_times_partition_the_total(self, experiment_id):
        """Sum of self times = traced total, and self <= cum per row.

        Replayed trials must keep their relative timing: if they did
        not, a later, longer trial would adopt an earlier sibling and
        the self times would over-count the total.
        """
        profiler = profile_experiment(experiment_id).profiler
        hotspots = profiler.hotspots()
        assert sum(h.self_s for h in hotspots) == pytest.approx(
            profiler.total_s, abs=1e-6
        )
        for h in hotspots:
            assert h.self_s <= h.cum_s + 1e-9, h


@pytest.fixture(autouse=True)
def _restore_null_tracer():
    yield
    assert get_tracer() is NULL_TRACER, "a test leaked an ambient tracer"
