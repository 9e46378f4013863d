"""Measured speedups of the two hot-loop optimizations.

Two workloads, each run both ways in one process:

* the E-LINE chain protocol at scale (``m=64`` machines, ``w=1024``
  chain nodes) -- the steady-state memo's target shape, where most
  machines idle-forward their stores every round.  The simulator's
  memo (the protocol's ``round_oblivious`` machines) is timed against
  the same machines re-classed to opt out (``round_oblivious = False``),
  so every step executes;
* an untraced arithmetic-loop word-RAM program -- the compiled basic
  -block core's target shape, ``fast`` backend against ``python``.

Both runs are checked for *identical observables* before any timing is
trusted: a speedup over a wrong answer is not a speedup.  With
``REPRO_BENCH_JSON`` set, each workload drops a ``BENCH_*.json`` row
whose counters carry the measured speedup (x100, integral -- the bench
fingerprint format) and whose metrics carry both times.  A committed
snapshot of these rows lives in ``benchmarks/backend_speedup.json``.
"""

import json
import os
import time

import numpy as np

from repro.engine import use_backend
from repro.functions import LineParams, sample_input
from repro.oracle import CountingOracle, LazyRandomOracle
from repro.protocols import build_chain_protocol, run_chain
from repro.protocols.chain import LineChainMachine
from repro.ram.isa import Instruction, Op, Program
from repro.ram.machine import RamMachine

#: Repetitions per backend; best-of damps scheduler noise.
REPEATS = 3

#: Conservative CI floors (the committed snapshot shows the real
#: numbers; these only catch an optimization that stopped paying).
MIN_MPC_SPEEDUP = 3.0
MIN_RAM_SPEEDUP = 8.0


def _best_of(fn, repeats=REPEATS):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def _write_row(workload, summary, speedup, metrics, fast_s, counters):
    out_dir = os.environ.get("REPRO_BENCH_JSON")
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "experiment_id": f"BACKEND-SPEEDUP-{workload}",
        "scale": "bench",
        "passed": True,
        "summary": summary,
        "duration_s": fast_s,
        "counters": {"speedup_x100": int(speedup * 100), **counters},
        "metrics": metrics,
    }
    path = os.path.join(out_dir, f"BENCH_BACKEND-SPEEDUP-{workload}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"\nbench metrics -> {path}")


class _OptOutChainMachine(LineChainMachine):
    round_oblivious = False


def _chain_shape(m=64, w=1024):
    params = LineParams(n=36, u=8, v=8, w=w)
    x = sample_input(params, np.random.default_rng(3))

    def run(memo):
        oracle = CountingOracle(
            LazyRandomOracle(params.n, params.n, seed=5)
        )
        setup = build_chain_protocol(params, x, num_machines=m)
        if not memo:
            for machine in setup.machines:
                machine.__class__ = _OptOutChainMachine
        return run_chain(setup, oracle)

    return run


def bench_backend_speedup_mpc_chain(benchmark):
    """E-LINE shape at scale: steady-state memo vs opted-out machines."""
    run = _chain_shape()
    optout_s, res_ref = _best_of(lambda: run(False))
    memo_s, res_memo = benchmark.pedantic(
        lambda: _best_of(lambda: run(True)), rounds=1, iterations=1
    )
    # Equivalence before speed: outputs, rounds, and per-round stats.
    assert res_ref.outputs == res_memo.outputs
    assert res_ref.rounds == res_memo.rounds
    assert res_ref.stats.rounds == res_memo.stats.rounds
    speedup = optout_s / memo_s
    print(
        f"\nMPC chain (m=64, w=1024, {res_ref.rounds} rounds): "
        f"opt-out {optout_s:.3f}s, memo {memo_s:.3f}s -> {speedup:.1f}x"
    )
    _write_row(
        "MPC", f"steady-state memo {speedup:.1f}x over opted-out machines",
        speedup, {"optout_s": optout_s, "memo_s": memo_s}, memo_s,
        {"mpc.rounds": res_ref.rounds,
         "mpc.messages": res_ref.stats.total_messages},
    )
    assert speedup >= MIN_MPC_SPEEDUP, (
        f"steady-state memo regressed: {speedup:.1f}x < {MIN_MPC_SPEEDUP}x"
    )


_RAM_LOOP_ITERS = 200_000

#: mix of ALU ops and a backward branch: r0 counts down, r2/r3/r4 churn.
_RAM_PROGRAM = Program((
    Instruction(Op.LOADI, (0, _RAM_LOOP_ITERS)),
    Instruction(Op.LOADI, (1, 1)),
    Instruction(Op.LOADI, (2, 0x9E37)),
    Instruction(Op.MUL, (2, 2, 2)),
    Instruction(Op.XOR, (2, 2, 0)),
    Instruction(Op.ADD, (3, 3, 2)),
    Instruction(Op.SHR, (4, 2, 3)),
    Instruction(Op.SUB, (0, 0, 1)),
    Instruction(Op.JNZ, (0, 3)),
    Instruction(Op.HALT,),
))


def bench_backend_speedup_ram(benchmark):
    """RAM-heavy untraced loop: compiled basic blocks vs if/elif."""

    def run(backend):
        machine = RamMachine(
            memory_words=16, word_bits=64, max_steps=10_000_000
        )
        with use_backend(backend):
            return machine.run(_RAM_PROGRAM)

    python_s, res_py = _best_of(lambda: run("python"))
    fast_s, res_fast = benchmark.pedantic(
        lambda: _best_of(lambda: run("fast")), rounds=1, iterations=1
    )
    assert res_py.registers == res_fast.registers
    assert res_py.memory == res_fast.memory
    assert res_py.stats == res_fast.stats
    speedup = python_s / fast_s
    print(
        f"\nRAM loop ({res_py.stats.instructions} instructions): "
        f"python {python_s:.3f}s, fast {fast_s:.3f}s -> {speedup:.1f}x"
    )
    _write_row(
        "RAM", f"fast backend {speedup:.1f}x over python",
        speedup, {"python_s": python_s, "fast_s": fast_s}, fast_s,
        {"ram.instructions": res_py.stats.instructions},
    )
    assert speedup >= MIN_RAM_SPEEDUP, (
        f"fast RAM backend regressed: {speedup:.1f}x < {MIN_RAM_SPEEDUP}x"
    )
