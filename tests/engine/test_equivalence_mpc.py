"""Property tests: the steady-state memo is observably invisible.

Randomized protocol shapes run twice on the one simulator: once with
the protocol's own ``round_oblivious`` machines, so idle steps are
replayed, and once with the same machines re-classed into test-local
subclasses that set ``round_oblivious = False`` (the opt-out), so every
step executes.  Everything a caller can observe -- outputs, round
counts, per-round :class:`RoundStats` (including the communication
topology edges), the oracle's query transcript, and the traced
deterministic record stream -- must match exactly.  ``dur``/``ts``
wall-clock attrs are the only permitted difference, and those are
excluded from the determinism contract.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions import LineParams, sample_input
from repro.functions.params import SimLineParams
from repro.obs import Tracer, use_tracer
from repro.obs.analysis import diff_traces
from repro.obs.forensics import explain_divergence
from repro.oracle import CountingOracle, LazyRandomOracle
from repro.protocols import build_chain_protocol, run_chain
from repro.protocols.chain import LineChainMachine
from repro.protocols.simline_pipeline import (
    SimLinePipelineMachine,
    build_simline_pipeline,
    run_pipeline,
)


class OptOutChainMachine(LineChainMachine):
    round_oblivious = False


class OptOutPipelineMachine(SimLinePipelineMachine):
    round_oblivious = False


_OPT_OUT = {
    LineChainMachine: OptOutChainMachine,
    SimLinePipelineMachine: OptOutPipelineMachine,
}


def _build(build, memo):
    """A fresh protocol; without ``memo`` its machines opt out."""
    setup, oracle, runner = build()
    if not memo:
        for machine in setup.machines:
            machine.__class__ = _OPT_OUT[type(machine)]
    return setup, oracle, runner


def _run_both(build):
    """Run one protocol as opt-out and as memoized."""
    results = {}
    for memo in (False, True):
        setup, oracle, runner = _build(build, memo)
        results[memo] = (runner(setup, oracle), oracle)
    return results[False], results[True]


def _assert_results_equal(ref, memo):
    (res_ref, oracle_ref), (res_memo, oracle_memo) = ref, memo
    assert res_ref.outputs == res_memo.outputs
    assert res_ref.rounds == res_memo.rounds
    assert res_ref.halted == res_memo.halted
    assert res_ref.first_output_round == res_memo.first_output_round
    # RoundStats is a frozen dataclass: == covers counts, bits, queries,
    # active machines, and the full (sender, receiver, bits) topology.
    assert res_ref.stats.rounds == res_memo.stats.rounds
    assert oracle_ref.transcript == oracle_memo.transcript
    assert oracle_ref.total_queries == oracle_memo.total_queries


def _chain_builder(w, num_machines, input_seed, oracle_seed):
    params = LineParams(n=36, u=8, v=8, w=w)
    x = sample_input(params, np.random.default_rng(input_seed))

    def build():
        oracle = CountingOracle(
            LazyRandomOracle(params.n, params.n, seed=oracle_seed)
        )
        setup = build_chain_protocol(params, x, num_machines=num_machines)
        return setup, oracle, run_chain

    return build


def _pipeline_builder(w, num_machines, input_seed, oracle_seed):
    params = SimLineParams(n=36, u=8, v=8, w=w)
    x = sample_input(params, np.random.default_rng(input_seed))

    def build():
        oracle = CountingOracle(
            LazyRandomOracle(params.n, params.n, seed=oracle_seed)
        )
        setup = build_simline_pipeline(params, x, num_machines=num_machines)
        return setup, oracle, run_pipeline

    return build


class TestChainEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        w=st.integers(1, 40),
        num_machines=st.integers(1, 6),
        input_seed=st.integers(0, 2**16),
        oracle_seed=st.integers(0, 2**16),
    )
    def test_untraced_equivalence(
        self, w, num_machines, input_seed, oracle_seed
    ):
        build = _chain_builder(w, num_machines, input_seed, oracle_seed)
        _assert_results_equal(*_run_both(build))

    @settings(max_examples=10, deadline=None)
    @given(
        w=st.integers(1, 30),
        num_machines=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_traced_streams_identical(self, w, num_machines, seed):
        build = _chain_builder(w, num_machines, seed, seed + 1)
        streams = {}
        for memo in (False, True):
            setup, oracle, runner = _build(build, memo)
            tracer = Tracer()
            with use_tracer(tracer):
                runner(setup, oracle)
            streams[memo] = list(tracer.records)
        diff = diff_traces(streams[False], streams[True])
        assert not diff.has_differences, diff.render()
        divergence = explain_divergence(
            lambda: iter(streams[False]), lambda: iter(streams[True])
        )
        assert divergence is None


class TestPipelineEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        w=st.integers(1, 40),
        num_machines=st.integers(1, 6),
        input_seed=st.integers(0, 2**16),
        oracle_seed=st.integers(0, 2**16),
    )
    def test_untraced_equivalence(
        self, w, num_machines, input_seed, oracle_seed
    ):
        build = _pipeline_builder(w, num_machines, input_seed, oracle_seed)
        _assert_results_equal(*_run_both(build))
