"""Smoke test of the benchmark at tiny sizes, and self-tests of its output checks."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
MODULES = {"exact", "groups", "selection", "catalog", "spectrum", "fileio", "cli"}
SEED = 3


@pytest.fixture(scope="module")
def runs():
    """Last stdout line of a tiny run, for every workload, untraced and traced."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_every_metric_printed_with_its_unit(runs):
    for (workload, trace), result in runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        table = BENCHMARK["per_layer" if trace else "end_to_end"]
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in table}, (workload, trace)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_no_op_fails(runs):
    for (workload, trace), result in runs.items():
        saved = json.loads((ROOT / ".bench_out" / f"result-{workload}-s{SEED}-t{trace}.json").read_text())
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert saved["failed_ratio"] == 0


def test_traced_run_spans_every_module(runs):
    for workload in WORKLOADS:
        dump = json.loads((ROOT / ".bench_out" / f"spans-{workload}-s{SEED}.json").read_text())
        assert {name.split(".")[0] for name in dump["names"]} >= MODULES, workload


def test_every_traced_time_is_measured(runs):
    for workload in WORKLOADS:
        metrics = runs[workload, 1]["metrics"]
        unmeasured = [name for name, m in metrics.items()
                      if m["unit"] in ("ms", "ns", "ms/op") and m["value"] <= 0]
        assert not unmeasured, (workload, unmeasured)


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads
    return run, workloads


def test_corrupted_result_counts_in_failed_ratio(bench_modules, monkeypatch):
    run, workloads = bench_modules
    from sicpl import groups

    real = groups.decompose

    def off_by_one(rep):
        result = real(rep)
        counts = dict(result.counts)
        counts[next(iter(counts))] += 1
        return groups.Multiplicities(result.group, counts)

    monkeypatch.setattr(groups, "decompose", off_by_one)
    phase = run.measure(workloads.SymmetryMix(), SEED, 0.0, 40, True, time.monotonic() + 60)
    assert phase.ops == 40
    assert phase.failed >= phase.kinds.count("product") > 0


def test_corrupted_cli_output_fails_its_check(bench_modules, tmp_path):
    _, workloads = bench_modules
    from reference import CheckFailed

    workload = workloads.CliSessions(ROOT / "src", tmp_path, ROOT / "bench" / "cli_shim.py")
    op = next(workload.ops(SEED, True))
    assert op.kind == "product"
    proc = workload.execute(op, None)
    workload.check(op, proc)
    payload = json.loads(proc.stdout)
    label = next(iter(payload["decomposition"]))
    payload["decomposition"][label] += 1
    proc.stdout = json.dumps(payload)
    with pytest.raises(CheckFailed):
        workload.check(op, proc)
