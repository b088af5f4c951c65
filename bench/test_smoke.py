"""Smoke test of the benchmark: every workload at toy size, traced and not.

Checks the result schema and the output check only, never timings.
Run from the root of a checkout:

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from run import ROOT, check_outputs, compare, load_expected

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "19", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    values = {name: m["value"] for name, m in line["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace and workload == "sweep_2k":
        # single-threaded: the spans' self times partition the traced wall time
        assert abs(values["trace.unaccounted_s"]) <= 1e-3 * values["trace.wall_s"]


def test_check_uses_the_roadmap_tolerance():
    record = load_expected()["smoke"]["sweep_2k"]["0"]
    outputs = json.loads(json.dumps(record))
    assert check_outputs(outputs, record) == []
    outputs["json"]["results"][0]["rap"] += 5e-13
    assert check_outputs(outputs, record) == []
    outputs["json"]["results"][0]["rap"] += 5e-12
    assert check_outputs(outputs, record) != []
    outputs = json.loads(json.dumps(record))
    outputs["replicates"][0][1] += 1
    assert check_outputs(outputs, record) != []
    assert compare({"a": [1, 2.0]}, {"a": [1, 2.0]}) == []
    assert compare({"a": [1]}, {"a": [1, 2.0]}) != []


def test_curve_check_catches_a_changed_point():
    record = load_expected()["smoke"]["ingest_200k"]["0"]
    outputs = json.loads(json.dumps(record))
    row = next(iter(outputs["curves"]["picked"].values()))
    row[2] += 1e-9
    assert check_outputs(outputs, record) != []


def test_unreadable_output_counts_as_a_failed_run(monkeypatch):
    # the CLI exits 0 but writes no JSON file
    shape = run.WORKLOADS["estimate_20k"]
    argv = [a for a in shape["argv"] if a not in ("--json", "{json}")]
    monkeypatch.setitem(run.WORKLOADS, "estimate_20k", {**shape, "argv": argv})
    line, report = run.run("estimate_20k", 0, 0, False, True)
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] == 1
    assert report["failed_frac"] == 1.0
    assert any("out.json" in p for p in report["problems"])


def test_fails_without_program_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
