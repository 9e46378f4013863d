"""Tests of the benchmark itself: attribution, controls, checks, contract.

Run with ``python3 -m pytest perfbench/tests -q`` from the repo root.
"""

from __future__ import annotations

import ast
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.protocols.chain
import repro.protocols.wire
import run
import worker
from layers import LAYERS, Ledger, patched
from repro.oracle import LazyRandomOracle
from workloads import WORKLOADS, Outcome, guess_rate_problems

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

#: The layers each workload must reach; every other layer must read zero.
EXPECTED_LAYERS = {
    "guess-table": {"oracle.table_build", "oracle.table_override", "oracle.query",
                    "functions.line", "functions.simline", "bits.codec",
                    "protocols.guessing", "parallel.map_trials"},
    "chain-mpc": {"oracle.query", "hashes.toy_hash", "functions.line", "bits.codec",
                  "protocols.wire", "protocols.step", "protocols.chain", "mpc.run"},
    "line-seq": {"oracle.query", "hashes.toy_hash", "functions.line", "bits.codec",
                 "ram.run", "ram.adapter", "ram.programs"},
}


def sample_calls(name: str, seed: int = 7):
    """The cheaper calls of a workload's first cycle (u <= 3; w = 64 and m = 4)."""
    keep = {
        "guess-table": lambda label: ".u2." in label or ".u3." in label,
        "chain-mpc": lambda label: label.startswith("line.w64") or label == "mem.m4",
        "line-seq": lambda label: True,
    }[name]
    return [c for c in WORKLOADS[name].cycle(seed, 0) if keep(c.label)]


def traced_pass(name: str, seed: int = 7):
    ledger = Ledger()
    with patched(ledger) as replaced:
        result = worker.run_pass(sample_calls(name, seed), ledger)
    return ledger, result, replaced


@pytest.fixture(scope="module", params=sorted(EXPECTED_LAYERS))
def traced(request):
    return (request.param, *traced_pass(request.param))


def test_traced_pass_is_correct(traced):
    _name, _ledger, result, _replaced = traced
    assert result.problems == [] and result.failed == 0


def test_self_times_partition_the_total(traced):
    _name, ledger, _result, _replaced = traced
    self_s, cum_s = ledger.self_s, ledger.cum_s
    assert all(v >= 0 for v in self_s.values())
    assert all(self_s[layer] <= cum_s[layer] + 1e-9 for layer in LAYERS)
    assert 0 <= ledger.unattributed_s < ledger.total_s
    assert math.isclose(sum(self_s.values()) + ledger.unattributed_s, ledger.total_s)


def test_every_mapped_layer_reads_nonzero_and_only_those(traced):
    name, ledger, _result, _replaced = traced
    nonzero = {layer for layer, n in ledger.calls.items() if n}
    assert nonzero == EXPECTED_LAYERS[name]
    assert all(ledger.self_s[layer] > 0 for layer in nonzero)


def test_negative_controls(traced):
    name, ledger, _result, _replaced = traced
    controls = {"guess-table": "protocols.wire", "line-seq": "protocols.wire",
                "chain-mpc": "oracle.table_build"}
    assert ledger.calls[controls[name]] == 0


def test_wrappers_are_removed_after_the_pass(traced):
    _name, _ledger, _result, replaced = traced
    assert replaced
    assert all(vars(owner)[attr] is original for owner, attr, original in replaced)
    assert repro.protocols.chain.decode_records is repro.protocols.wire.decode_records
    assert not hasattr(repro.protocols.wire.decode_records, "__wrapped__")


def test_by_name_imports_are_wrapped_and_idle_outside_measure():
    ledger = Ledger()
    with patched(ledger):
        wrapped = repro.protocols.chain.decode_records
        assert wrapped.__wrapped__ is not None
        assert wrapped is repro.protocols.wire.decode_records
        oracle = LazyRandomOracle(8, 8, seed=1)
        from repro.bits import Bits

        oracle.query(Bits(3, 8))  # outside measure(): not recorded
        assert ledger.calls["oracle.query"] == 0
        ledger.measure(lambda: oracle.query(Bits(3, 8)))
        assert ledger.calls["oracle.query"] == 1


def test_exact_counts_and_digest_repeat_at_one_seed():
    for name in ("chain-mpc", "line-seq"):
        (la, ra, _), (lb, rb, _) = traced_pass(name), traced_pass(name)
        assert worker.exact_counts(ra, la) == worker.exact_counts(rb, lb)
        assert ra.digest() == rb.digest()
        assert worker.run_pass(sample_calls(name)).digest() == ra.digest()
        assert traced_pass(name, seed=8)[1].digest() != ra.digest()


def test_chain_check_fires_on_a_wrong_output():
    call = sample_calls("chain-mpc")[0]
    oracle, x, result, fresh = call.run()
    assert call.check((oracle, x, result, fresh)).problems == []
    other = LazyRandomOracle(oracle.n_in, oracle.n_out, seed=oracle.seed + 1)
    assert call.check((other, x, result, fresh)).problems


def test_line_check_fires_on_a_wrong_output_or_time():
    call = sample_calls("line-seq")[0]
    expected, output, stats, fresh = call.run()
    assert call.check((expected, output, stats, fresh)).problems == []
    assert call.check((expected, ~output, stats, fresh)).problems
    stats.time *= 3
    assert call.check((expected, output, stats, fresh)).problems


def test_guess_check_fires_on_a_rate_above_the_bound():
    fair = [Outcome(["line", 2, "uniform", 4000, 1000])]
    assert guess_rate_problems(fair) == []
    assert guess_rate_problems([Outcome(["line", 2, "uniform", 4000, 2000])])
    assert guess_rate_problems([Outcome(["line", 5, "rerun", 4000, 400])])


def test_benchmark_imports_no_code_slated_for_deletion():
    banned = ("repro.perfwatch", "repro.engine", "repro.cli", "repro.obs.registry",
              "repro.obs.history")
    for path in BENCH.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            for name in names:
                assert not name.startswith(banned), f"{path.name} imports {name}"


def test_worker_environment_is_scrubbed(monkeypatch):
    for var in ("REPRO_BACKEND", "REPRO_JOBS", "REPRO_TELEMETRY", "REPRO_TELEMETRY_INTERVAL",
                "REPRO_REGISTRY", "REPRO_BENCH_JSON", "REPRO_AUTOINDEX",
                "REPRO_STALL_DEADLINE"):
        monkeypatch.setenv(var, "1")
    env = run.hermetic_env()
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert all(env[v] == "1" for v in run.THREAD_VARS)


def _run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "line-seq", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc = _run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scaled_call_times_cancel_host_speed():
    report = {"call_s": [0.010, 0.020, 0.030], "reference_s": [0.001, 0.001, 0.001]}
    slow = {k: [2 * t for t in v] for k, v in report.items()}
    assert run.scaled_calls(report) == pytest.approx([10, 20, 30])
    assert run.scaled_calls(slow) == pytest.approx(run.scaled_calls(report))
