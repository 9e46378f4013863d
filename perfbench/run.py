"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload chain-mpc --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each measurement runs in a fresh
``worker.py`` process with ``REPRO_*`` variables removed, one thread per
numeric library and ``PYTHONPATH`` set to the checkout's ``src``:

* ``--trace 0`` starts ``CHILDREN`` workers one after another, each
  measuring ``seconds / CHILDREN``, and reports the end-to-end metrics
  over all their calls, with call times scaled to the host's speed (see
  :func:`scaled_calls`); ``setup_s`` is the median of the workers' wall
  set-up times (process start to first timed call).
* ``--trace 1`` starts one worker that reports the per-layer metrics.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are the same numbers for people, with
the environment and the per-cycle result digests.  The exit code is 0
only when every worker finished and reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The workloads of ``workloads.py``, named here so that the launcher
#: does not import the program.
WORKLOADS = ("guess-table", "chain-mpc", "line-seq")
#: Worker processes per untraced run; ``setup_s`` is their median.
CHILDREN = 3
#: Probes on each side of a call whose median scales the call's time.
WINDOW = 5
#: Whole-run deadline, inside the 180 s a run may take.
DEADLINE_S = 170.0
#: The declared end-to-end metrics and their units (BENCHMARK.json).
#: Call times are in ref-ms: one ref-ms is the time the host takes for
#: one run of ``worker.reference_loop``, measured next to each call.
END_TO_END = {
    "ops_per_s": "1/ref-s",
    "call_ms_p50": "ref-ms",
    "call_ms_p90": "ref-ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The run cannot produce a result."""


def hermetic_env() -> dict[str, str]:
    """The parent environment without ``REPRO_*`` switches (backend, jobs,
    telemetry, registry, bench output, autoindex, stall deadline) and
    with single-threaded numeric libraries."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(args, child: int, deadline: float) -> dict:
    """Start one worker, wait for it, return its report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("deadline passed before all workers ran")
    seconds = args.seconds if args.trace else args.seconds / CHILDREN
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--child", str(child)]
    t_launch = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t-launch", repr(t_launch)], env=hermetic_env(),
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {child} exceeded the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {child} exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"worker {child} printed no report") from exc


def p90(values: list[float]) -> float:
    """The 90th percentile, interpolated as numpy's default does."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def scaled_calls(report: dict) -> list[float]:
    """Each call's time in ref-ms: its wall time divided by the median
    reference-loop time of the ``2 * WINDOW + 1`` probes around it."""
    ref = report["reference_s"]
    return [t / statistics.median(ref[max(0, i - WINDOW): i + WINDOW + 1])
            for i, t in enumerate(report["call_s"])]


def untraced_result(reports: list[dict]) -> tuple[dict, list[str]]:
    pooled = [t for r in reports for t in scaled_calls(r)]
    wall = [t for r in reports for t in r["call_s"]]
    ops = sum(r["ops"] for r in reports)
    n = len(pooled)
    metrics = {
        "ops_per_s": ops / (sum(pooled) / 1e3),
        "call_ms_p50": statistics.median(pooled),
        "call_ms_p90": p90(pooled),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
    }
    ref_ms = statistics.median(t for r in reports for t in r["reference_s"]) * 1e3
    beyond = n - 1 - int(0.9 * (n - 1))
    notes = {
        "ops_per_s": f"{ops} ops; wall {ops / sum(wall):.6g} 1/s",
        "call_ms_p50": f"{n} calls; wall {statistics.median(wall) * 1e3:.6g} ms",
        "call_ms_p90": f"{beyond} calls beyond; wall {p90(wall) * 1e3:.6g} ms"
                       + ("" if beyond >= 10 else " (fewer than 10: run longer)"),
        "setup_s": f"median of {len(reports)} processes",
    }
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    lines = [f"reference loop: median {ref_ms:.4f} ms wall = 1 ref-ms"]
    lines += [f"{name:<14} {value:>12.6g} {END_TO_END[name]:<8} {notes.get(name, '')}"
              for name, value in metrics.items()]
    lines.append(f"{'fail_ratio':<14} {failed / attempted:>12.6g} {'ratio':<8} "
                 f"{failed} failed / {attempted} attempted")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, lines


def traced_result(report: dict) -> tuple[dict, list[str]]:
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in report["metrics"].items()}
    total = report["metrics"]["bench.traced_total_s"][0]
    lines = [f"traced pass: {report['ops']} ops, mean of {report['reps']} wrapped replays",
             f"{'layer':<24} {'calls':>10} {'self_s':>10} {'cum_s':>10} {'self share':>10}"]
    layer_self = 0.0
    for name, (value, _unit) in report["metrics"].items():
        if name.endswith(".self_s"):
            layer = name[: -len(".self_s")]
            layer_self += value
            calls = report["metrics"][f"{layer}.calls"][0]
            lines.append(f"{layer:<24} {calls:>10} {value:>10.4f} "
                         f"{report['cum_s'][layer]:>10.4f} {value / total:>10.1%}")
    unattributed = report["metrics"]["bench.unattributed_s"][0]
    lines.append(f"partition: sum(self_s) {layer_self:.4f} + unattributed "
                 f"{unattributed:.4f} = traced total {total:.4f} s")
    lines += [f"{name:<30} {value:>14.6g} {unit}"
              for name, (value, unit) in report["metrics"].items()
              if not name.endswith((".self_s", ".calls"))]
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program sources at {SRC}; run from a full checkout")
        reports = [run_worker(args, child, deadline)
                   for child in range(1 if args.trace else CHILDREN)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = {"git_sha": git_sha(), "source_sha256": source_digest(),
           "python": reports[0]["python"], "numpy": reports[0]["numpy"],
           "cpu": cpu_model(), "nproc": os.cpu_count()}
    metrics, lines = traced_result(reports[0]) if args.trace else untraced_result(reports)
    problems = [p for r in reports for p in r["problems"]]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + json.dumps(env))
    print("digests: " + " ".join(r["digest"] for r in reports))
    if args.trace:
        print("counts: " + json.dumps(reports[0]["counts"], sort_keys=True))
    for line in lines:
        print(line)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
