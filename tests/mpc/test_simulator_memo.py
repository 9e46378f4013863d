"""The simulator's steady-state memo: each replay guard, counted.

A ``round_oblivious`` machine whose inbox repeats is replayed instead of
re-run.  Each guard below is pinned by counting real ``run_round``
invocations: round 0 is never replayed, a step that queried the oracle
is never cached, and span hooks turn replay off.  The last test checks
that replayed steps keep a positive wall-clock ``dur``, so the Chrome
timeline export shows every machine step.
"""

import numpy as np

from repro.bits import Bits
from repro.functions import LineParams, sample_input
from repro.mpc import Machine, MPCParams, MPCSimulator, RoundContext, RoundOutput
from repro.obs import Tracer, use_tracer
from repro.obs.report import chrome_trace_events
from repro.obs.tracer import SpanHook
from repro.oracle import CountingOracle, LazyRandomOracle, TableOracle
from repro.protocols import build_chain_protocol, run_chain
from repro.protocols.chain import LineChainMachine


class Keeper(Machine):
    """Self-forwards its state every round and logs the rounds it ran."""

    round_oblivious = True

    def __init__(self, *, query: bool = False):
        self.ran: list[int] = []
        self._query = query

    def run_round(self, ctx: RoundContext) -> RoundOutput:
        self.ran.append(ctx.round)
        state = ctx.from_sender(ctx.machine_id) or ctx.from_sender(-1)
        if state is None:
            return RoundOutput()
        if self._query:
            ctx.oracle.query(state)
        return RoundOutput(messages={ctx.machine_id: state})


class OptOutKeeper(Keeper):
    round_oblivious = False


def _run(machine, share, *, rounds=6, oracle=None):
    params = MPCParams(m=1, s_bits=64, q=None, max_rounds=rounds)
    sim = MPCSimulator(params, [machine], oracle=oracle)
    return sim.run([share])


class TestReplayGuards:
    def test_steady_state_is_replayed(self):
        keeper = Keeper()
        result = _run(keeper, Bits.from_str("1011"))
        # Round 1 (first inbox from itself) is cached; 2..5 replay it.
        assert keeper.ran == [0, 1]
        assert [r.message_count for r in result.stats.rounds] == [1] * 6
        assert [r.active_machines for r in result.stats.rounds] == [1] * 6

    def test_round_zero_is_never_replayed(self):
        # An empty share: the round-0 inbox equals every later one, yet
        # round 1 still runs, because a round-0 step is never cached.
        keeper = Keeper()
        _run(keeper, Bits(0, 0))
        assert keeper.ran == [0, 1]

    def test_querying_step_is_never_cached(self):
        table = TableOracle.sample(4, 4, np.random.default_rng(0))
        runs = {}
        for cls in (Keeper, OptOutKeeper):
            keeper = cls(query=True)
            result = _run(keeper, Bits.from_str("1011"), oracle=table)
            assert keeper.ran == list(range(6))
            runs[cls] = [
                (rec.position, rec.round, rec.machine, rec.query)
                for rec in result.oracle.transcript
            ]
        assert runs[Keeper] == runs[OptOutKeeper]
        assert [r for _, r, _, _ in runs[Keeper]] == list(range(6))

    def test_span_hooks_disable_replay(self):
        class StepCounter(SpanHook):
            steps = 0

            def span_start(self, name, attrs):
                if name == "mpc.machine_step":
                    StepCounter.steps += 1

        tracer = Tracer()
        tracer.add_span_hook(StepCounter())
        keeper = Keeper()
        with use_tracer(tracer):
            _run(keeper, Bits.from_str("1011"))
        assert keeper.ran == list(range(6))
        assert StepCounter.steps == 6

        # The same traced run without a hook replays.
        keeper = Keeper()
        with use_tracer(Tracer()):
            _run(keeper, Bits.from_str("1011"))
        assert keeper.ran == [0, 1]


class TestReplayDurations:
    def test_timeline_has_every_machine_step(self, monkeypatch):
        params = LineParams(n=36, u=8, v=8, w=24)
        x = sample_input(params, np.random.default_rng(7))
        setup = build_chain_protocol(params, x, num_machines=4)
        oracle = CountingOracle(LazyRandomOracle(params.n, params.n, seed=11))
        calls = []
        run_round = LineChainMachine.run_round

        def counted(self, ctx):
            calls.append(ctx.round)
            return run_round(self, ctx)

        monkeypatch.setattr(LineChainMachine, "run_round", counted)
        tracer = Tracer()
        with use_tracer(tracer):
            run_chain(setup, oracle)
        steps = [r for r in tracer.records if r.name == "mpc.machine_step"]
        assert len(calls) < len(steps)  # some steps were replayed
        assert all(r.attrs["dur"] > 0 for r in steps)
        timeline = [
            e for e in chrome_trace_events(tracer.records)
            if e["name"] == "mpc.machine_step" and e["ph"] == "X"
        ]
        assert len(timeline) == len(steps)
