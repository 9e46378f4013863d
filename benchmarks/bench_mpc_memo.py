"""Measured speedup of the simulator's steady-state memo.

The E-LINE chain protocol at scale (``m=64`` machines, ``w=1024`` chain
nodes) is the memo's target shape: most machines idle-forward their
stores every round.  The simulator's memo (the protocol's
``round_oblivious`` machines) is timed against the same machines
re-classed to opt out (``round_oblivious = False``), so every step
executes.

Both runs are checked for *identical observables* before any timing is
trusted: a speedup over a wrong answer is not a speedup.  With
``REPRO_BENCH_JSON`` set, the bench drops a ``BENCH_MPC-MEMO-SPEEDUP.json``
row whose counters carry the measured speedup (x100, integral -- the
bench fingerprint format) and whose metrics carry both times.  A
committed snapshot of that row lives in ``benchmarks/mpc_memo_speedup.json``.
"""

import json
import os
import time

import numpy as np

from repro.functions import LineParams, sample_input
from repro.oracle import CountingOracle, LazyRandomOracle
from repro.protocols import build_chain_protocol, run_chain
from repro.protocols.chain import LineChainMachine

#: Repetitions per variant; best-of damps scheduler noise.
REPEATS = 3

#: Conservative CI floor (the committed snapshot shows the real number;
#: this only catches a memo that stopped paying).
MIN_MPC_SPEEDUP = 3.0

_EXPERIMENT_ID = "MPC-MEMO-SPEEDUP"


def _best_of(fn, repeats=REPEATS):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def _write_row(summary, speedup, metrics, memo_s, counters):
    out_dir = os.environ.get("REPRO_BENCH_JSON")
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "experiment_id": _EXPERIMENT_ID,
        "scale": "bench",
        "passed": True,
        "summary": summary,
        "duration_s": memo_s,
        "counters": {"speedup_x100": int(speedup * 100), **counters},
        "metrics": metrics,
    }
    path = os.path.join(out_dir, f"BENCH_{_EXPERIMENT_ID}.json")
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


def bench_mpc_memo_chain(benchmark):
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
        f"steady-state memo {speedup:.1f}x over opted-out machines",
        speedup, {"optout_s": optout_s, "memo_s": memo_s}, memo_s,
        {"mpc.rounds": res_ref.rounds,
         "mpc.messages": res_ref.stats.total_messages},
    )
    assert speedup >= MIN_MPC_SPEEDUP, (
        f"steady-state memo regressed: {speedup:.1f}x < {MIN_MPC_SPEEDUP}x"
    )
