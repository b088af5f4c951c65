"""Benchmark of the ``tdap`` command line on four named workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Each sample runs in a fresh child process (``child.py``), one at a time:
the child imports ``tdap`` from ``src/``, writes the workload's input CSV
and calls ``tdap.cli.main(argv)``.  Samples repeat until ``--seconds``
have passed.  ``--trace 0`` reports the end-to-end metrics (medians over
the samples); ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics of the traced ones.  Every sample's output
is checked against values recorded at the baseline commit
(``expected.json``) and against the run's other samples, byte for byte.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every output check passed, 1 when one failed and 2 when the checkout
holds no ``src/tdap`` to run.  ``README.md`` explains the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# ``--seed`` picks one of this many recorded inputs (seed mod EXPECTED_SEEDS),
# so every output can be checked against the baseline commit's values
EXPECTED_SEEDS = 16
TOLERANCE = 1e-12
CHILD_TIMEOUT_S = 150.0

_INPUT = ["--input", "{input}", "--json", "{json}"]

# cohort: generate_cohort(n, seed), scores rounded to `round` decimals if set;
# lines_per_bootstrap: summary lines on stdout that share one bootstrap
WORKLOADS = {
    "estimate_20k": {
        "cohort": {"n": 20_000, "round": None},
        "argv": ["estimate", *_INPUT, "--t0", "8", "--t0", "36", "--boot", "200"],
        "lines_per_bootstrap": 1,
    },
    "sweep_2k": {
        "cohort": {"n": 2_000, "round": 1},
        "argv": ["compare", *_INPUT, "--sweep", "5:35:5", "--boot", "400", "--threads", "1"],
        "lines_per_bootstrap": 6,
    },
    "ingest_200k": {
        "cohort": {"n": 200_000, "round": None},
        "argv": ["estimate", *_INPUT, "--t0", "8", "--boot", "2", "--curves", "{curves}"],
        "lines_per_bootstrap": 1,
    },
    "simulate_small": {
        "cohort": None,
        "argv": ["simulate", "--n", "2000", "--reps", "8", "--boot", "100", "--json", "{json}"],
        "lines_per_bootstrap": None,
    },
}

# toy sizes for the smoke test: the cohort size, and flag values that
# replace the workload's own (or are added where it has none)
SMOKE = {
    "estimate_20k": {"n": 1_000, "flags": {"--boot": "10"}},
    "sweep_2k": {"n": 1_000, "flags": {"--sweep": "5:35:15", "--boot": "10"}},
    "ingest_200k": {"n": 1_000, "flags": {}},
    "simulate_small": {"flags": {"--reps": "2", "--boot": "10", "--oracle": "100000"}},
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric -> unit; see README.md for the end-to-end metric and
# workload each one should move
PER_LAYER = {
    "cohort.read_cohort_csv.self_s": "s",
    "cohort.read_cohort_csv.rows_per_s": "1/s",
    "cohort.take.calls": "count",
    "cohort.take.self_s": "s",
    "cohort.validate_horizon.calls": "count",
    "cohort.validate_horizon.failed": "count",
    "censoring.fit_censoring_km.calls": "count",
    "censoring.fit_censoring_km.self_s": "s",
    "censoring.fit_censoring_km.wait_s": "s",
    "censoring.ipcw_weights.calls": "count",
    "censoring.ipcw_weights.self_s": "s",
    "censoring.ipcw_weights.failed": "count",
    "estimators.average_precision.calls": "count",
    "estimators.average_precision.self_s": "s",
    "estimators.average_precision.ns_per_subject": "ns",
    "estimators.auc.calls": "count",
    "estimators.auc.self_s": "s",
    "estimators.auc.ns_per_subject": "ns",
    "estimators.curves.self_s": "s",
    "inference.bootstrap.calls": "count",
    "inference.bootstrap.self_s": "s",
    "inference.bootstrap.wait_s": "s",
    "inference.replicates.attempted": "count",
    "inference.replicates.failed": "count",
    "inference.replicates.used_ratio": "ratio",
    "simulation.run_study.self_s": "s",
    "simulation.generate_cohort.calls": "count",
    "simulation.generate_cohort.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}

_REPLICATES = re.compile(r"\((\d+) used, (\d+) failed\)")


# ---------------------------------------------------------------- samples


def command(workload: str, smoke: bool, cohort_seed: int) -> tuple[dict | None, list[str]]:
    """The workload's cohort spec (None for ``simulate``) and CLI argv."""
    shape = WORKLOADS[workload]
    cohort, argv = shape["cohort"], list(shape["argv"])
    if smoke:
        toy = SMOKE[workload]
        if cohort is not None:
            cohort = {**cohort, "n": toy["n"]}
        for flag, value in toy["flags"].items():
            if flag in argv:
                argv[argv.index(flag) + 1] = value
            else:
                argv += [flag, value]
    if cohort is None:
        return None, argv + ["--seed", str(cohort_seed)]
    return {**cohort, "seed": cohort_seed}, argv


def run_sample(workload: str, smoke: bool, cohort_seed: int, trace: bool, work: Path) -> dict:
    """Run one child process; return its result plus the outputs it wrote."""
    cohort, argv = command(workload, smoke, cohort_seed)
    for name in ("cohort.csv", "out.json", "curves.csv", "stdout.txt", "result.json"):
        (work / name).unlink(missing_ok=True)
    spec = {
        "src": str(ROOT / "src"),
        "work": str(work),
        "cohort": cohort,
        "argv": argv,
        "trace": trace,
    }
    spec_path = work / "spec.json"
    spec["spawned_at"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
            cwd=work,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"child timed out after {CHILD_TIMEOUT_S} s"]}
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"problems": [f"child exited {proc.returncode}: {' | '.join(tail)}"]}
    sample = json.loads(result_path.read_text())
    sample["problems"] = []
    if sample["exit_code"] != 0:
        sample["problems"].append(f"tdap exited {sample['exit_code']}: {proc.stderr.strip()}")
        return sample
    try:
        sample["outputs"] = read_outputs(work)
    except (OSError, ValueError) as exc:
        sample["problems"].append(f"unreadable output: {exc}")
        return sample
    sample["threads"] = _threads(argv, sample["cpu_count"])
    return sample


def _threads(argv, cpu_count) -> int:
    return int(argv[argv.index("--threads") + 1]) if "--threads" in argv else (cpu_count or 1)


def read_outputs(work: Path) -> dict:
    """The parts of a run's output that the check compares."""
    digest = hashlib.sha256()
    size = 0
    for name in ("stdout.txt", "out.json", "curves.csv"):
        path = work / name
        if path.exists():
            data = path.read_bytes()
            digest.update(name.encode() + b"\0" + data + b"\0")
            size += len(data)
    stdout = (work / "stdout.txt").read_text(encoding="utf-8")
    curves = work / "curves.csv"
    return {
        "json": json.loads((work / "out.json").read_text(encoding="utf-8")),
        "replicates": [[int(u), int(f)] for u, f in _REPLICATES.findall(stdout)],
        "curves": summarize_curves(curves) if curves.exists() else None,
        "digest": digest.hexdigest(),
        "bytes": size,
    }


def summarize_curves(path: Path) -> dict:
    """Row count, column sums and 21 evenly spaced rows of the curve CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    picks = sorted({round(k * (len(rows) - 1) / 20) for k in range(21)}) if rows else []
    return {
        "header": header,
        "rows": len(rows),
        "sums": [sum(col) for col in zip(*rows)],
        "picked": {str(i): rows[i] for i in picks},
    }


# ---------------------------------------------------------------- checks


def compare(actual, expected, where="") -> list[str]:
    """Differences beyond TOLERANCE between two decoded JSON values."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ"]
        return [p for k in expected for p in compare(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs"]
        return [p for i, (a, e) in enumerate(zip(actual, expected)) for p in compare(a, e, f"{where}[{i}]")]
    if isinstance(expected, (bool, str)) or expected is None:
        return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, int) and isinstance(actual, int):
        return [] if actual == expected else [f"{where}: {actual} != {expected}"]
    if not isinstance(actual, (int, float)) or isinstance(actual, bool):
        return [f"{where}: {actual!r} is not a number"]
    return [] if abs(actual - expected) <= TOLERANCE else [f"{where}: {actual!r} != {expected!r}"]


def check_outputs(outputs: dict, expected: dict | None) -> list[str]:
    if expected is None:
        return ["no recorded output for this workload and seed"]
    problems = compare(outputs["json"], expected["json"], "json")
    if outputs["replicates"] != expected["replicates"]:
        problems.append(f"replicate counts {outputs['replicates']} != {expected['replicates']}")
    if expected["curves"] is None:
        if outputs["curves"] is not None:
            problems.append("unexpected curve output")
    elif outputs["curves"] is None:
        problems.append("curve output missing")
    else:
        got, want = outputs["curves"], expected["curves"]
        if got["header"] != want["header"] or got["rows"] != want["rows"]:
            problems.append("curve header or row count differs")
        else:
            problems += compare(got["picked"], want["picked"], "curves")
            for k, (a, e) in enumerate(zip(got["sums"], want["sums"])):
                if abs(a - e) > TOLERANCE * max(1, got["rows"]):
                    problems.append(f"curves column {k} sum {a!r} != {e!r}")
    return problems


def load_expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text())


# ---------------------------------------------------------------- metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(sample: dict, untraced_wall: float) -> dict:
    layers = sample["layers"]

    def get(name):
        return layers.get(name, {"calls": 0, "failed": 0, "self_s": 0.0, "self_cpu_s": 0.0, "subjects": 0})

    def ratio(num, den):
        return num / den if den else 0.0

    read = get("cohort.read_cohort_csv")
    km = get("censoring.fit_censoring_km")
    ipcw = get("censoring.ipcw_weights")
    ap = get("estimators.average_precision")
    auc = get("estimators.auc")
    boot = get("inference.bootstrap")
    gen = get("simulation.generate_cohort")
    attempted, failed = sample["replicates"]
    return {
        "cohort.read_cohort_csv.self_s": read["self_s"],
        "cohort.read_cohort_csv.rows_per_s": ratio(read["subjects"], read["self_s"]),
        "cohort.take.calls": get("cohort.take")["calls"],
        "cohort.take.self_s": get("cohort.take")["self_s"],
        "cohort.validate_horizon.calls": get("cohort.validate_horizon")["calls"],
        "cohort.validate_horizon.failed": get("cohort.validate_horizon")["failed"],
        "censoring.fit_censoring_km.calls": km["calls"],
        "censoring.fit_censoring_km.self_s": km["self_s"],
        "censoring.fit_censoring_km.wait_s": km["self_s"] - km["self_cpu_s"],
        "censoring.ipcw_weights.calls": ipcw["calls"],
        "censoring.ipcw_weights.self_s": ipcw["self_s"],
        "censoring.ipcw_weights.failed": ipcw["failed"],
        "estimators.average_precision.calls": ap["calls"],
        "estimators.average_precision.self_s": ap["self_s"],
        "estimators.average_precision.ns_per_subject": 1e9 * ratio(ap["self_s"], ap["subjects"]),
        "estimators.auc.calls": auc["calls"],
        "estimators.auc.self_s": auc["self_s"],
        "estimators.auc.ns_per_subject": 1e9 * ratio(auc["self_s"], auc["subjects"]),
        "estimators.curves.self_s": get("estimators.curves")["self_s"],
        "inference.bootstrap.calls": boot["calls"],
        "inference.bootstrap.self_s": boot["self_s"],
        "inference.bootstrap.wait_s": boot["self_s"] - boot["self_cpu_s"],
        "inference.replicates.attempted": attempted,
        "inference.replicates.failed": failed,
        "inference.replicates.used_ratio": ratio(attempted - failed, attempted),
        "simulation.run_study.self_s": get("simulation.run_study")["self_s"],
        "simulation.generate_cohort.calls": gen["calls"],
        "simulation.generate_cohort.self_s": gen["self_s"],
        "cli.main.self_s": get("cli.main")["self_s"],
        "cli.output_bytes": sample["outputs"]["bytes"],
        "trace.wall_s": sample["wall_s"],
        "trace.overhead_s": sample["wall_s"] - untraced_wall,
        "trace.unaccounted_s": sample["wall_s"] - sum(t["self_s"] for t in layers.values()),
    }


def operation_counts(sample: dict, workload: str) -> tuple[int, int]:
    """(attempted, failed) for one run plus the bootstrap replicates it printed."""
    if sample["problems"]:
        return 1, 1
    per = WORKLOADS[workload]["lines_per_bootstrap"]
    boots = sample["outputs"]["replicates"][::per] if per else []
    return 1 + sum(u + f for u, f in boots), sum(f for _, f in boots)


# ---------------------------------------------------------------- machine


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def machine_block(threads) -> dict:
    model = None
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "threads": threads,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    # the ceiling keeps git from taking the commit of an enclosing repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ---------------------------------------------------------------- runs


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    """Run samples for ``seconds``; return (result line, detailed report)."""
    cohort_seed = seed % EXPECTED_SEEDS
    expected = load_expected()["smoke" if smoke else "full"][workload].get(str(cohort_seed))
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    samples = []
    start = time.monotonic()
    try:
        while True:
            traced = trace and len(samples) % 2 == 1
            began = time.monotonic()
            sample = run_sample(workload, smoke, cohort_seed, traced, work)
            sample["traced"] = traced
            if not sample["problems"]:
                sample["problems"] = check_outputs(sample["outputs"], expected)
            samples.append(sample)
            # start another sample only if it would end, on average, by the
            # deadline, so that a run lasts about ``seconds``
            now = time.monotonic()
            if (now - start) + (now - began) / 2 >= seconds and (not trace or len(samples) >= 2):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [s for s in samples if not s["problems"]]
    digests = {s["outputs"]["digest"] for s in good}
    if len(digests) > 1:
        for s in good:
            s["problems"].append("output differs between runs of one seed")
        good = []
    attempted = failed = 0
    for s in samples:
        a, f = operation_counts(s, workload)
        attempted += a
        failed += f
    untraced = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    series = {name: [s[name] for s in untraced] for name in END_TO_END}
    if trace:
        wall = _median(series["wall_s"])
        per_sample = [layer_metrics(s, wall) for s in traced]
        metrics = {
            name: {"value": _median([m[name] for m in per_sample]), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": _median(series[name]), "unit": unit} for name, unit in END_TO_END.items()
        }
    correct = len(good) == len(samples) and bool(good) and (not trace or bool(traced))
    report = {
        "workload": workload,
        "seed": seed,
        "cohort_seed": cohort_seed,
        "smoke": smoke,
        "trace": trace,
        "samples": {"untraced": len(untraced), "traced": len(traced), "all": len(samples)},
        "series": series,
        "failed_frac": failed / attempted,
        "problems": sorted({p for s in samples for p in s["problems"]})[:20],
        "machine": machine_block(good[0]["threads"] if good else None),
    }
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
        help="one workload, or all of them in turn (each prints its own result line)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes; for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tdap" / "__init__.py").is_file():
        print(f"error: no tdap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # turn SIGTERM into SystemExit, so the running child is killed and
    # awaited and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    correct = True
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        line, report = run(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        n = report["samples"]["traced" if args.trace else "untraced"]
        print(f"workload {workload}  seed {args.seed}  samples {report['samples']}")
        for name, m in line["metrics"].items():
            print(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<6} (median of {n})")
        print(f"  {'failed_frac':<46} {report['failed_frac']:>14.6g} {'ratio':<6} "
              f"({line['failed']} of {line['attempted']} operations)")
        for problem in report["problems"]:
            print(f"  problem: {problem}")
        print("report " + json.dumps(report))
        print(json.dumps(line), flush=True)
        correct = correct and line["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
