"""The three benchmark workloads, one per side of Theorem 3.1's argument.

Each workload turns ``(seed, cycle)`` into a *cycle*: a fixed list of
benchmark calls into the repo's public functions, with every input derived
from the seed.  A call is re-runnable -- it rebuilds its inputs from its
own seed on every run -- so the traced pass can replay exactly the calls
an untraced pass timed.

* ``guess-table`` -- the Lemma 3.3 / A.7 Monte-Carlo: every trial builds
  a fresh ``2^n``-entry ``TableOracle`` to answer about ``w`` queries;
* ``chain-mpc`` -- the MPC half: ``build_chain_protocol`` + ``run_chain``
  over E-LINE's and E-MEM's shapes;
* ``line-seq`` -- the sequential half: ``trace_line`` and then
  ``run_line_on_ram`` on the same lazy oracle.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable

import numpy as np

from repro.functions import LineParams, SimLineParams, evaluate_line, sample_input, trace_line
from repro.oracle import LazyRandomOracle
from repro.protocols import (
    build_chain_protocol,
    estimate_line_skip_probability,
    estimate_simline_skip_probability,
    run_chain,
)
from repro.ram import run_line_on_ram

__all__ = ["Call", "Outcome", "WORKLOADS", "Workload"]


@dataclass
class Outcome:
    """What a call's check found: a digestible summary, any problems,
    and exact counts the call contributes."""

    summary: object
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Call:
    """One benchmark call: ``run`` is timed, ``check`` is not."""

    label: str
    ops: int
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def derive_seed(*parts: object) -> int:
    """A 63-bit seed keyed on ``parts``; the benchmark's only input source."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass(frozen=True)
class Workload:
    """A named cycle factory plus the run-level check over its outcomes."""

    name: str
    cycle: Callable[[int, int], list[Call]]
    warmup: Callable[[int], list[Call]]
    final_check: Callable[[list[Outcome]], list[str]] = lambda outcomes: []


# ----------------------------------------------------------------------
# guess-table
# ----------------------------------------------------------------------
#: Table sizes 2^10 .. 2^19 (n = 4 + 3u for both functions).
GUESS_US = (2, 3, 4, 5)
#: Trials per call, sized so every call of a strategy takes about the
#: same time at the seed commit; the largest u then costs about a
#: quarter of the cycle rather than nearly all of it.
GUESS_BATCH = {
    (2, "uniform"): 352, (2, "rerun"): 256,
    (3, "uniform"): 72, (3, "rerun"): 50,
    (4, "uniform"): 8, (4, "rerun"): 7,
    (5, "uniform"): 1, (5, "rerun"): 1,
}
#: ``uniform`` calls run twice per cycle, ``rerun`` calls once, so the
#: median and the 90th percentile each fall inside one strategy's group
#: of similar call times instead of on the gap between the groups.
GUESS_REPEATS = {"uniform": 2, "rerun": 1}
GUESS_SKIP_AT = 2
#: Wilson interval confidence of the per-u check.  Seeds are chosen by
#: whoever runs the benchmark, so a 95% interval would fail a correct
#: program on one u in twenty; 1 - 1e-6 keeps that out of reach while a
#: rate twice the bound still fails.  The 0.02 absolute slack is E-GUESS's.
GUESS_CONFIDENCE = 1 - 1e-6
GUESS_SLACK = 0.02


def _guess_call(seed: int, cycle: int, slot: int, u: int, fn: str, strategy: str,
                trials: int) -> Call:
    call_seed = derive_seed("guess-table", seed, cycle, slot)
    params = (LineParams if fn == "line" else SimLineParams)(n=4 + 3 * u, u=u, v=4, w=6)

    def run():
        # Resolved at run time, so a traced pass sees the wrapped function.
        estimate = (estimate_line_skip_probability if fn == "line"
                    else estimate_simline_skip_probability)
        return estimate(params, trials=trials, skip_at=GUESS_SKIP_AT,
                        strategy=strategy, seed=call_seed, jobs=1)

    def check(report) -> Outcome:
        problems = []
        if report.trials != trials or not 0 <= report.successes <= trials:
            problems.append(f"{fn} u={u} {strategy}: bad report {report}")
        return Outcome(summary=[fn, u, strategy, report.trials, report.successes],
                       problems=problems)

    return Call(f"{fn}.u{u}.{strategy}", trials, run, check)


def _guess_cycle(seed: int, cycle: int) -> list[Call]:
    calls = []
    for u in GUESS_US:
        for strategy, repeats in GUESS_REPEATS.items():
            for fn in ("line", "simline"):
                for _ in range(repeats):
                    calls.append(_guess_call(seed, cycle, len(calls), u, fn, strategy,
                                             GUESS_BATCH[u, strategy]))
    return calls


def _guess_warmup(seed: int) -> list[Call]:
    return [_guess_call(seed, -1, slot, 2, fn, strategy, 8)
            for slot, (fn, strategy) in enumerate(
                (fn, s) for fn in ("line", "simline") for s in GUESS_REPEATS)]


def wilson_interval(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """The Wilson score interval for a binomial rate."""
    z = NormalDist().inv_cdf((1 + confidence) / 2)
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def guess_rate_problems(outcomes: list[Outcome]) -> list[str]:
    """Per u, pooled over functions and strategies: the success rate must
    be consistent with Lemma 3.3's ``2^-u`` (Wilson interval or slack)."""
    pooled: dict[int, list[int]] = {}
    for outcome in outcomes:
        if outcome.summary is None:  # the call's own check already failed
            continue
        _fn, u, _strategy, trials, successes = outcome.summary
        acc = pooled.setdefault(u, [0, 0])
        acc[0] += trials
        acc[1] += successes
    problems = []
    for u, (trials, successes) in sorted(pooled.items()):
        bound = 2.0 ** -u
        low, high = wilson_interval(successes, trials, GUESS_CONFIDENCE)
        rate = successes / trials
        if not (low <= bound <= high or abs(rate - bound) < GUESS_SLACK):
            problems.append(
                f"u={u}: skip rate {successes}/{trials}={rate:.4f} is inconsistent "
                f"with 2^-u={bound:.4f} (interval [{low:.4f}, {high:.4f}])")
    return problems


# ----------------------------------------------------------------------
# chain-mpc
# ----------------------------------------------------------------------
#: ``(label, v, w, machines, pieces per machine)``: E-LINE's f in
#: {1/8, 1/4, 1/2} over w in {64, 128, 256}, then E-MEM's m sweep.  The
#: m=32 run, twice as slow as any other, appears three times: the 90th
#: percentile then falls in the middle of its calls, not on the gap
#: below them, and the median in the middle of the m=8 calls.
CHAIN_SHAPES = tuple(
    [(f"line.w{w}.ppm{ppm}", 8, w, 8, ppm) for w in (64, 128, 256) for ppm in (1, 2, 4)]
    + [(f"mem.m{m}", 16, 128, m, 4) for m in (4, 8, 16, 32, 32, 32)]
)


def _chain_call(seed: int, cycle: int, slot: int, shape: tuple) -> Call:
    label, v, w, machines, ppm = shape
    params = LineParams(n=36, u=8, v=v, w=w)
    call_seed = derive_seed("chain-mpc", seed, cycle, slot)

    def run():
        oracle = LazyRandomOracle(params.n, params.n, seed=call_seed)
        x = sample_input(params, np.random.default_rng(call_seed))
        setup = build_chain_protocol(params, x, num_machines=machines,
                                     pieces_per_machine=ppm)
        result = run_chain(setup, oracle)
        return oracle, x, result, oracle.cache_size()

    def check(out) -> Outcome:
        oracle, x, result, fresh = out
        expected = evaluate_line(params, x, oracle)
        rounds = result.rounds_to_output
        problems = []
        if not result.outputs or any(o != expected for o in result.outputs.values()):
            problems.append(f"{label}: MPC output differs from evaluate_line")
        if rounds is None or not 1 <= rounds <= w + 4:
            problems.append(f"{label}: rounds_to_output={rounds} outside [1, {w + 4}]")
        bits = result.stats.total_message_bits
        return Outcome(
            summary=[label, result.rounds, rounds, bits, expected.to_int()],
            problems=problems,
            counts={"mpc.rounds": result.rounds, "mpc.message_bits": bits,
                    "oracle.lazy.fresh": fresh})

    return Call(label, 1, run, check)


def _chain_cycle(seed: int, cycle: int) -> list[Call]:
    return [_chain_call(seed, cycle, slot, shape) for slot, shape in enumerate(CHAIN_SHAPES)]


def _chain_warmup(seed: int) -> list[Call]:
    return [_chain_call(seed, -1, 0, ("warmup", 8, 64, 8, 4))]


# ----------------------------------------------------------------------
# line-seq
# ----------------------------------------------------------------------
#: From E-DECAY's w=24 to E-RAM's w=256, at E-RAM's n=36, u=8, v=8.
LINE_WS = (24, 32, 64, 128, 256)
#: E-RAM's band for word-RAM time / (w n).
RAM_BAND = (1.0, 2.0)


def _line_call(seed: int, cycle: int, slot: int, w: int) -> Call:
    params = LineParams(n=36, u=8, v=8, w=w)
    call_seed = derive_seed("line-seq", seed, cycle, slot)

    def run():
        oracle = LazyRandomOracle(params.n, params.n, seed=call_seed)
        x = sample_input(params, np.random.default_rng(call_seed))
        trace = trace_line(params, x, oracle)
        output, ram = run_line_on_ram(params, x, oracle)
        return trace.output, output, ram.stats, oracle.cache_size()

    def check(out) -> Outcome:
        expected, output, stats, fresh = out
        ratio = stats.time / (w * params.n)
        problems = []
        if output != expected:
            problems.append(f"w={w}: RAM output differs from trace_line")
        if not RAM_BAND[0] <= ratio <= RAM_BAND[1]:
            problems.append(f"w={w}: RAM time/(w n)={ratio:.3f} outside {RAM_BAND}")
        return Outcome(
            summary=[w, expected.to_int(), stats.instructions, stats.time],
            problems=problems,
            counts={"ram.instructions": stats.instructions, "oracle.lazy.fresh": fresh})

    return Call(f"w{w}", 1, run, check)


def _line_cycle(seed: int, cycle: int) -> list[Call]:
    return [_line_call(seed, cycle, slot, w) for slot, w in enumerate(LINE_WS)]


def _line_warmup(seed: int) -> list[Call]:
    return [_line_call(seed, -1, 0, LINE_WS[0])]


#: Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload("guess-table", _guess_cycle, _guess_warmup, guess_rate_problems),
        Workload("chain-mpc", _chain_cycle, _chain_warmup),
        Workload("line-seq", _line_cycle, _line_warmup),
    )
}
