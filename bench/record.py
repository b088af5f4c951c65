"""Record the outputs that ``run.py`` checks every sample against.

Usage, from the root of a checkout of the baseline commit:

    python3 bench/record.py

Runs each workload once per input seed (0 .. EXPECTED_SEEDS-1), at full
and at smoke size, and writes ``bench/expected.json`` from scratch.  Run
it only on the commit whose outputs define "correct"; a later commit must
reproduce these values to within ``run.TOLERANCE``.
"""

import json
import os
import shutil
import sys

from run import BENCH_DIR, EXPECTED_SEEDS, ROOT, WORKLOADS, run_sample


def main() -> int:
    expected = {}
    work = ROOT / ".bench_work" / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for mode in ("smoke", "full"):
            expected[mode] = {}
            for workload in WORKLOADS:
                records = expected[mode][workload] = {}
                for seed in range(EXPECTED_SEEDS):
                    sample = run_sample(workload, mode == "smoke", seed, False, work)
                    if sample["problems"]:
                        print(f"{mode} {workload} seed {seed}: {sample['problems']}", file=sys.stderr)
                        return 1
                    out = sample["outputs"]
                    records[str(seed)] = {k: out[k] for k in ("json", "replicates", "curves")}
                    print(f"{mode} {workload} seed {seed}: {sample['wall_s']:.3f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
