"""The round engine.

One round (Definition 2.1/2.2):

1. each machine ``i`` starts the round owning exactly the messages that
   were addressed to it at the end of the previous round (round 0 owns
   its share of the input); the simulator verifies this fits in ``s``
   bits *before* the machine runs;
2. the machine computes locally -- with oracle access metered to at most
   ``q`` queries when the oracle model is active -- and emits messages;
3. the simulator routes messages; delivery happens at the start of the
   next round.

The run ends when every machine halts in the same round (the union of
their ``output`` fields is the computation's answer, Definition 2.4) or
when ``max_rounds`` is hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.bits import Bits
from repro.mpc.errors import MemoryExceeded, ProtocolError
from repro.mpc.machine import Machine, RoundContext, RoundOutput
from repro.mpc.model import MPCParams
from repro.mpc.stats import MPCStats, RoundStats
from repro.mpc.tape import SharedTape
from repro.obs import get_tracer
from repro.oracle.base import Oracle
from repro.oracle.counting import CountingOracle

__all__ = ["MPCSimulator", "MPCResult"]


@dataclass
class _MemoEntry:
    """One machine's last cached step, for the steady-state memo.

    Machines are memoryless (Definition 2.1): state survives a round
    only as self-messages, so an idle machine decodes and re-encodes the
    same records every round.  A machine that declares
    :attr:`~repro.mpc.machine.Machine.round_oblivious` computes a pure
    function of its inbox at every round ``>= 1``, so when the same inbox
    recurs :meth:`MPCSimulator.run` replays the cached output instead of
    calling ``run_round``.  Only steps at round ``>= 1`` that made zero
    oracle queries are cached: a querying step re-executes, so the query
    transcript, the ``q`` budget and the ``oracle.query`` events stay
    position for position identical.  The fields below are what the run
    emits for the step -- routing, ``RoundStats`` edges, the
    ``mpc.machine_step`` attributes -- so a replayed step is observably
    the executed one; only its wall-clock ``dur`` differs.
    """

    incoming: tuple[tuple[int, Bits], ...]
    incoming_bits: int
    result: RoundOutput
    sent_bits: int
    sent_to: dict[str, int]
    edges: tuple[tuple[int, int, int], ...]


@dataclass
class MPCResult:
    """Outcome of a simulation."""

    rounds: int
    outputs: dict[int, Bits]
    stats: MPCStats
    halted: bool
    oracle: CountingOracle | None
    first_output_round: int | None = None

    def combined_output(self) -> Bits:
        """The union of machine outputs, concatenated by machine id."""
        return Bits.concat([self.outputs[i] for i in sorted(self.outputs)])

    @property
    def rounds_to_output(self) -> int | None:
        """Rounds until the answer existed (Definition 2.4's ``R``).

        This excludes the final halt-handshake round protocols use to
        shut every machine down; it is the number the experiments
        compare against the paper's round bounds.
        """
        if self.first_output_round is None:
            return None
        return self.first_output_round + 1


class MPCSimulator:
    """Runs a machine family under the model's resource constraints."""

    def __init__(
        self,
        params: MPCParams,
        machines: Sequence[Machine],
        *,
        oracle: Oracle | None = None,
        tape: SharedTape | None = None,
        inbox_observer: Callable[[int, int, tuple[tuple[int, Bits], ...]], None]
        | None = None,
    ) -> None:
        if len(machines) != params.m:
            raise ValueError(
                f"params declare m={params.m} machines, got {len(machines)}"
            )
        self._params = params
        self._machines = list(machines)
        self._tape = tape if tape is not None else SharedTape()
        self._oracle: CountingOracle | None = None
        # Called as (round, machine, incoming) just before each machine
        # runs -- the hook the compression encoders use to capture the
        # "A1 output" (a machine's memory at the start of a round).
        self._inbox_observer = inbox_observer
        if oracle is not None:
            self._oracle = CountingOracle(oracle, per_round_limit=params.q)

    @property
    def oracle(self) -> CountingOracle | None:
        """The metered oracle (transcript source for the proof machinery)."""
        return self._oracle

    def run(self, initial_memories: Sequence[Bits]) -> MPCResult:
        """Simulate until all machines halt or ``max_rounds`` is reached.

        ``initial_memories[i]`` is machine ``i``'s share of the
        arbitrarily-partitioned input (Definition 2.1); shares must fit
        in ``s`` bits.

        Halting follows Definition 2.4: the computation ends only in a
        round where **every** machine returns ``halt=True``.  A machine
        that votes ``halt=True`` while others continue is *not* retired
        -- it keeps being invoked (and may send, receive, query, and
        change its vote) in every later round.  The halt flag is a
        per-round vote, not a latch, which is what lets protocols run a
        final shutdown handshake once the answer exists.

        When a tracer is active (:func:`repro.obs.use_tracer`), the run
        emits one ``mpc.run_start`` event announcing the resource
        budgets (``m``, ``s_bits``, ``q``), one ``mpc.round`` span per
        round, one ``mpc.machine_step`` event per machine invocation
        (with received and sent bits, plus the per-destination
        ``sent_to`` map the communication-matrix analysis reads), and
        one closing ``mpc.run`` span.  Span hooks (scoped profilers)
        additionally see each machine's local computation as an
        ``mpc.machine_step`` window.

        Steps of ``round_oblivious`` machines whose inbox repeats are
        replayed from a per-machine memo instead of re-run (see
        :class:`_MemoEntry`); outputs, stats, faults and the
        deterministic trace stream are the same as re-running them, and
        a replayed step's ``dur`` is the wall time of the replay.  Span
        hooks turn replay off.
        """
        params = self._params
        if len(initial_memories) != params.m:
            raise ValueError(
                f"need {params.m} initial memories, got {len(initial_memories)}"
            )
        tracer = get_tracer()
        traced = tracer.enabled
        hooked = traced and tracer.has_span_hooks
        run_span = tracer.begin_span(
            "mpc.run", m=params.m, s_bits=params.s_bits, q=params.q
        ) if traced else None
        if traced:
            # Announce the resource budgets up front so stream
            # subscribers (invariant monitors, progress renderers) know
            # s, m, and q before the first round arrives.
            tracer.event(
                "mpc.run_start",
                m=params.m,
                s_bits=params.s_bits,
                q=params.q,
                max_rounds=params.max_rounds,
            )
        # Round 0 inboxes: the input partition, "sent" by the environment
        # (sender id -1 marks input shares).
        inboxes: list[list[tuple[int, Bits]]] = [
            [(-1, mem)] if len(mem) else [] for mem in initial_memories
        ]
        stats = MPCStats()
        outputs: dict[int, Bits] = {}
        first_output_round: int | None = None

        # Hoisted out of the per-machine loop: attribute loads and
        # is-None checks that are invariant for the whole run.  The
        # untraced path below never touches the tracer at all.
        m = params.m
        s_bits = params.s_bits
        machines = self._machines
        oracle = self._oracle
        observer = self._inbox_observer
        tape = self._tape
        now = tracer.now
        emit = tracer.event
        # The steady-state memo (see _MemoEntry).  Span hooks turn it
        # off: scoped profilers must see every real step.
        memoizable = [
            not hooked and machine.round_oblivious for machine in machines
        ]
        memo: list[_MemoEntry | None] = [None] * m

        for round_k in range(params.max_rounds):
            round_span = (
                tracer.begin_span("mpc.round", round=round_k) if traced else None
            )
            next_inboxes: list[list[tuple[int, Bits]]] = [
                [] for _ in range(m)
            ]
            round_messages = 0
            round_message_bits = 0
            round_edges: list[tuple[int, int, int]] = []
            round_queries_before = oracle.total_queries if oracle else 0
            active = 0
            halted_count = 0

            for i, machine in enumerate(machines):
                incoming = tuple(inboxes[i])
                entry = memo[i]
                if entry is not None and entry.incoming == incoming:
                    # Replay: this inbox already passed the memory check
                    # and these messages their validation.
                    if observer is not None:
                        observer(round_k, i, incoming)
                    if traced:
                        step_start = now()
                    result = entry.result
                    for dst, payload in result.messages.items():
                        next_inboxes[dst].append((i, payload))
                    incoming_bits = entry.incoming_bits
                    sent_bits = entry.sent_bits
                    sent_to = entry.sent_to
                    step_edges = entry.edges
                    step_queries = 0
                    if traced:
                        step_dur = now() - step_start
                else:
                    incoming_bits = sum(len(p) for _, p in incoming)
                    if incoming_bits > s_bits:
                        raise MemoryExceeded(
                            f"machine {i} holds {incoming_bits} bits at round "
                            f"{round_k}, local memory is s={s_bits}"
                        )
                    if observer is not None:
                        observer(round_k, i, incoming)
                    if oracle is not None:
                        oracle.set_context(round=round_k, machine=i)
                    ctx = RoundContext(
                        round=round_k,
                        machine_id=i,
                        num_machines=m,
                        incoming=incoming,
                        oracle=oracle,
                        tape=tape,
                    )
                    if traced:
                        step_start = now()
                        if hooked:
                            with tracer.hook_scope("mpc.machine_step"):
                                result = machine.run_round(ctx)
                        else:
                            result = machine.run_round(ctx)
                        step_dur = now() - step_start
                    else:
                        result = machine.run_round(ctx)
                    if not isinstance(result, RoundOutput):
                        raise ProtocolError(
                            f"machine {i} returned {type(result).__name__}, "
                            "expected RoundOutput"
                        )
                    sent_bits = 0
                    sent_to: dict[str, int] = {}
                    step_edges: list[tuple[int, int, int]] = []
                    for dst, payload in result.messages.items():
                        if not 0 <= dst < m:
                            raise ProtocolError(
                                f"machine {i} sent a message to invalid "
                                f"machine {dst}"
                            )
                        if not isinstance(payload, Bits):
                            raise ProtocolError(
                                f"machine {i} sent a non-Bits payload to {dst}"
                            )
                        next_inboxes[dst].append((i, payload))
                        width = len(payload)
                        step_edges.append((i, dst, width))
                        sent_bits += width
                        if traced:
                            # str keys: a JSONL round-trip must reproduce
                            # the in-memory attrs exactly (JSON has no int
                            # keys); the analysis layer int()s them back.
                            key = str(dst)
                            sent_to[key] = sent_to.get(key, 0) + width
                    step_queries = (
                        oracle.queries_in_context() if oracle is not None else 0
                    )
                    if memoizable[i] and round_k and not step_queries:
                        memo[i] = _MemoEntry(
                            incoming=incoming,
                            incoming_bits=incoming_bits,
                            result=result,
                            sent_bits=sent_bits,
                            sent_to=sent_to,
                            edges=tuple(step_edges),
                        )
                    else:
                        memo[i] = None
                if incoming or result.messages or result.output is not None:
                    active += 1
                round_messages += len(step_edges)
                round_message_bits += sent_bits
                round_edges.extend(step_edges)
                if traced:
                    emit(
                        "mpc.machine_step",
                        round=round_k,
                        machine=i,
                        dur=step_dur,
                        incoming_bits=incoming_bits,
                        sent_messages=len(step_edges),
                        sent_bits=sent_bits,
                        sent_to=dict(sent_to),
                        oracle_queries=step_queries,
                    )
                if result.output is not None:
                    outputs[i] = result.output
                    if first_output_round is None:
                        first_output_round = round_k
                if result.halt:
                    halted_count += 1

            queries = (
                oracle.total_queries - round_queries_before if oracle else 0
            )
            stats.record(
                RoundStats(
                    round=round_k,
                    message_count=round_messages,
                    message_bits=round_message_bits,
                    oracle_queries=queries,
                    active_machines=active,
                    edges=tuple(round_edges),
                )
            )
            if traced:
                tracer.end_span(
                    round_span,
                    messages=round_messages,
                    message_bits=round_message_bits,
                    oracle_queries=queries,
                    active_machines=active,
                    halted_machines=halted_count,
                )

            if halted_count == m:
                if traced:
                    self._trace_run(tracer, run_span, round_k + 1, True, stats)
                return MPCResult(
                    rounds=round_k + 1,
                    outputs=outputs,
                    stats=stats,
                    halted=True,
                    oracle=self._oracle,
                    first_output_round=first_output_round,
                )
            inboxes = next_inboxes

        if traced:
            self._trace_run(tracer, run_span, params.max_rounds, False, stats)
        return MPCResult(
            rounds=params.max_rounds,
            outputs=outputs,
            stats=stats,
            halted=False,
            oracle=self._oracle,
            first_output_round=first_output_round,
        )

    def _trace_run(self, tracer, run_span, rounds, halted, stats) -> None:
        tracer.end_span(
            run_span,
            rounds=rounds,
            halted=halted,
            total_messages=stats.total_messages,
            total_message_bits=stats.total_message_bits,
            total_oracle_queries=stats.total_oracle_queries,
        )
