"""Negative control: a *broken* memo replay must be caught by the gates.

The equivalence tests prove the steady-state memo is currently correct;
this module proves the **gates would notice if it were not**.  A
deliberately perturbed memo replay -- misreporting a counter, dropping a
message -- must trip ``diff_traces`` / the first-divergence explainer
against a baseline whose machines opt out of the memo.  If these tests
ever fail, the equivalence tests have lost their teeth.
"""

import numpy as np

from repro.functions import LineParams, sample_input
from repro.mpc import simulator
from repro.mpc.machine import RoundOutput
from repro.mpc.simulator import MPCSimulator
from repro.obs import Tracer, use_tracer
from repro.obs.analysis import diff_traces
from repro.obs.forensics import explain_divergence
from repro.oracle import CountingOracle, LazyRandomOracle
from repro.protocols import build_chain_protocol
from repro.protocols.chain import LineChainMachine

PARAMS = LineParams(n=36, u=8, v=8, w=24)


class OptOutChainMachine(LineChainMachine):
    round_oblivious = False


def _traced_records(*, memo):
    x = sample_input(PARAMS, np.random.default_rng(7))
    oracle = CountingOracle(LazyRandomOracle(PARAMS.n, PARAMS.n, seed=11))
    setup = build_chain_protocol(PARAMS, x, num_machines=4)
    if not memo:
        for machine in setup.machines:
            machine.__class__ = OptOutChainMachine
    sim = MPCSimulator(setup.mpc_params, setup.machines, oracle=oracle)
    tracer = Tracer()
    with use_tracer(tracer):
        sim.run(setup.initial_memories)
    return list(tracer.records)


def _assert_divergence_caught(monkeypatch, lying_entry_cls):
    monkeypatch.setattr(simulator, "_MemoEntry", lying_entry_cls)
    baseline = _traced_records(memo=False)
    current = _traced_records(memo=True)
    diff = diff_traces(baseline, current)
    divergence = explain_divergence(
        lambda: iter(baseline), lambda: iter(current)
    )
    assert diff.has_differences or divergence is not None


class TestNegativeControl:
    def test_counter_perturbation_is_caught(self, monkeypatch):
        """A memo that misreports one replayed counter diverges visibly."""

        class LyingEntry(simulator._MemoEntry):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                # A one-bit lie in the replayed communication volume.
                self.sent_bits += 1

        _assert_divergence_caught(monkeypatch, LyingEntry)

    def test_dropped_message_is_caught(self, monkeypatch):
        """A memo replay that loses a message diverges visibly."""

        class DroppingEntry(simulator._MemoEntry):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if self.edges:
                    _, dst, _ = self.edges[-1]
                    messages = dict(self.result.messages)
                    del messages[dst]
                    self.result = RoundOutput(
                        messages=messages,
                        output=self.result.output,
                        halt=self.result.halt,
                    )

        _assert_divergence_caught(monkeypatch, DroppingEntry)

    def test_unperturbed_control(self):
        """Sanity: without a perturbation the same rig reports clean."""
        baseline = _traced_records(memo=False)
        current = _traced_records(memo=True)
        diff = diff_traces(baseline, current)
        assert not diff.has_differences, diff.render()
        assert explain_divergence(
            lambda: iter(baseline), lambda: iter(current)
        ) is None
