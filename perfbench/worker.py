"""One benchmark workload process: set up, measure, check, report.

Started by ``run.py`` in a fresh interpreter with a scrubbed
environment; prints one JSON object on stdout.

Untraced (``--trace 0``): warm up, then run whole cycles of benchmark calls
until ``--seconds`` have passed, timing each call.  Child ``k`` of a run
uses cycles ``k * 10**6, k * 10**6 + 1, ...`` so no two children repeat
an input.

Traced (``--trace 1``): replay the child's first cycle in turn untraced,
under the layer wrappers and under a recording ``repro.obs`` tracer,
until ``--seconds`` are mostly used.  Every pass must
produce the same result digest and every wrapped pass the same exact
counts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from layers import LAYERS, Ledger, patched
from repro.obs import Tracer, use_tracer
from workloads import WORKLOADS, Call, Outcome

#: Cycle-index stride between the children of one run.
CHILD_STRIDE = 10**6
#: Sizes of the reference loop's two parts: 1.5 to 2.5 ms in all on the
#: host the seed numbers were taken on.
REFERENCE_ITERS = 2500
REFERENCE_LIST = 20000


def reference_loop() -> float:
    """Seconds for one run of a fixed piece of work over builtins only.

    This is the host-speed probe.  On a host shared with other tenants
    the same Python code runs up to 1.5x slower from one minute to the
    next; timing this loop next to each benchmark call measures that
    factor, and it does not depend on the program under test.  It has an
    interpreter-bound part (integer and dict work, like the protocol and
    RAM code) and an allocation-bound part (building and scanning a list,
    like the oracle tables), because the two slow down differently.
    """
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(REFERENCE_ITERS):
        acc = (acc * 0x9E3779B1 + i) & 0xFFFFFFFF
        table[acc & 1023] = acc >> 3
    values = list(range(REFERENCE_LIST))
    scrambled = [v ^ 0x5555 for v in values]
    acc ^= sum(scrambled[::7])
    return time.perf_counter() - start


@dataclass
class PassResult:
    """The timed calls of one pass and what their checks found."""

    call_s: list[float] = field(default_factory=list)
    #: Reference-loop time taken just before each call (untraced runs).
    reference_s: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def total_s(self) -> float:
        return sum(self.call_s)

    def digest(self) -> str:
        blob = json.dumps([o.summary for o in self.outcomes], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for outcome in self.outcomes:
            for name, n in outcome.counts.items():
                out[name] = out.get(name, 0) + n
        return out

    def extend(self, other: "PassResult") -> None:
        self.call_s += other.call_s
        self.reference_s += other.reference_s
        self.outcomes += other.outcomes
        self.problems += other.problems
        self.attempted += other.attempted
        self.failed += other.failed


def run_pass(calls: list[Call], ledger: Ledger | None = None,
             probe: bool = False) -> PassResult:
    """Run each call (timed, through ``ledger`` when given), then check it
    (untimed).  An op fails if its call raises or fails its check.  With
    ``probe``, the reference loop is timed before each call."""
    result = PassResult()
    for call in calls:
        result.attempted += call.ops
        if probe:
            result.reference_s.append(reference_loop())
        start = time.perf_counter()
        try:
            out = ledger.measure(call.run) if ledger else call.run()
        except Exception as exc:  # noqa: BLE001 - a failed op is reported, not fatal
            result.call_s.append(time.perf_counter() - start)
            result.failed += call.ops
            result.problems.append(f"{call.label}: raised {exc!r}")
            continue
        result.call_s.append(time.perf_counter() - start)
        try:
            outcome = call.check(out)
        except Exception as exc:  # noqa: BLE001 - malformed output fails the op
            outcome = Outcome(summary=None, problems=[f"{call.label}: check raised {exc!r}"])
        result.outcomes.append(outcome)
        if outcome.problems:
            result.failed += call.ops
            result.problems += outcome.problems
    return result


def peak_rss_mb() -> float:
    """VmHWM of this process in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def measure_untraced(workload, seed: int, child: int, seconds: float,
                     t_launch: float) -> dict:
    warm = run_pass(workload.warmup(seed))
    timed = PassResult()
    first_digest = None
    start = time.monotonic()
    setup_s = start - t_launch
    cycle = 0
    while cycle == 0 or time.monotonic() - start < seconds:
        done = run_pass(workload.cycle(seed, child * CHILD_STRIDE + cycle), probe=True)
        if cycle == 0:
            first_digest = done.digest()
        timed.extend(done)
        cycle += 1
    problems = warm.problems + timed.problems + workload.final_check(timed.outcomes)
    return {
        "setup_s": setup_s,
        "call_s": timed.call_s,
        "reference_s": timed.reference_s,
        "ops": timed.attempted - timed.failed,
        "attempted": timed.attempted + warm.attempted,
        "failed": timed.failed + warm.failed,
        "digest": first_digest,
        "peak_rss_mb": peak_rss_mb(),
        "problems": problems,
    }


def measure_traced(workload, seed: int, child: int, seconds: float) -> dict:
    warm = run_pass(workload.warmup(seed))
    calls = workload.cycle(seed, child * CHILD_STRIDE)
    untraced: list[PassResult] = []
    wrapped: list[tuple[PassResult, Ledger]] = []
    recorded: list[PassResult] = []
    problems = list(warm.problems)
    start = time.monotonic()
    while not wrapped or time.monotonic() - start < 0.7 * seconds:
        untraced.append(run_pass(calls))
        ledger = Ledger()
        with patched(ledger) as replaced:
            wrapped.append((run_pass(calls, ledger), ledger))
        if any(vars(owner)[name] is not orig for owner, name, orig in replaced):
            problems.append("layer wrappers were not removed after the traced pass")
        with use_tracer(Tracer()):
            recorded.append(run_pass(calls))

    passes = untraced + [p for p, _ in wrapped] + recorded
    for p in passes:
        problems += p.problems
    problems += workload.final_check(untraced[0].outcomes)
    digests = {p.digest() for p in passes}
    if len(digests) != 1:
        problems.append(f"passes over one cycle disagree: digests {sorted(digests)}")
    exact = [exact_counts(p, ledger) for p, ledger in wrapped]
    if any(c != exact[0] for c in exact):
        problems.append("exact counts differ between wrapped passes of one cycle")

    ledgers = [ledger for _, ledger in wrapped]
    reps = len(ledgers)
    t_untraced = statistics.fmean(p.total_s for p in untraced)
    counts = exact[0]
    self_s = {layer: sum(lg.self_s[layer] for lg in ledgers) / reps for layer in LAYERS}
    cum_s = {layer: sum(lg.cum_s[layer] for lg in ledgers) / reps for layer in LAYERS}
    total = statistics.fmean(lg.total_s for lg in ledgers)
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (counts[f"{layer}.calls"], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    lazy = counts.get("oracle.lazy.queries", 0)
    ram_self = self_s["ram.run"]
    metrics.update({
        "oracle.lazy.fresh_ratio": (counts.get("oracle.lazy.fresh", 0) / lazy if lazy else 0.0,
                                    "ratio"),
        "mpc.rounds": (counts.get("mpc.rounds", 0), "count"),
        "mpc.message_bits": (counts.get("mpc.message_bits", 0), "bit"),
        "ram.instructions": (counts.get("ram.instructions", 0), "count"),
        "ram.instr_per_s": (counts.get("ram.instructions", 0) / ram_self if ram_self else 0.0,
                            "1/s"),
        "parallel.trials": (counts.get("parallel.trials", 0), "count"),
        "obs.recording_tracer_ratio": (statistics.fmean(p.total_s for p in recorded)
                                       / t_untraced, "ratio"),
        "bench.traced_total_s": (total, "s"),
        "bench.unattributed_s": (total - sum(self_s.values()), "s"),
        "bench.wrapper_overhead_ratio": (t_untraced / total, "ratio"),
    })
    return {
        "metrics": metrics,
        "cum_s": cum_s,
        "counts": counts,
        "reps": reps,
        "ops": untraced[0].attempted,
        "attempted": sum(p.attempted for p in passes) + warm.attempted,
        "failed": sum(p.failed for p in passes) + warm.failed,
        "digest": untraced[0].digest(),
        "problems": problems,
    }


def exact_counts(result: PassResult, ledger: Ledger) -> dict[str, int]:
    """Every count a wrapped pass produces; equal on every replay."""
    counts = {f"{layer}.calls": n for layer, n in ledger.calls.items()}
    counts.update(ledger.counters)
    counts.update(result.counts())
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--child", type=int, default=0)
    parser.add_argument("--t-launch", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    gc.collect()
    if args.trace:
        report = measure_traced(workload, args.seed, args.child, args.seconds)
    else:
        report = measure_untraced(workload, args.seed, args.child, args.seconds,
                                  args.t_launch)
    if threading.active_count() != 1:
        report["problems"].append(f"{threading.active_count()} threads alive at exit")
    report["numpy"] = np.__version__
    report["python"] = sys.version.split()[0]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
