"""One benchmark sample, run in a fresh process by ``run.py``.

Usage: python3 child.py SPEC_JSON

SPEC_JSON names the checkout's ``src`` directory, the work directory,
the workload's cohort (size, seed, score rounding), the CLI argv with
``{input}``/``{json}``/``{curves}`` placeholders, whether to trace, and
the parent's ``time.monotonic()`` just before it started this process.
The child writes the input CSV, calls ``tdap.cli.main(argv)`` with
stdout redirected to a file, and writes ``result.json`` to the work
directory.
"""

import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    work = Path(spec["work"])
    sys.path.insert(0, spec["src"])

    import tdap
    import tdap.cli

    if Path(tdap.__file__).resolve().parent != Path(spec["src"], "tdap").resolve():
        raise SystemExit(f"imported tdap from {tdap.__file__}, not from {spec['src']}")

    paths = {
        "input": str(work / "cohort.csv"),
        "json": str(work / "out.json"),
        "curves": str(work / "curves.csv"),
    }
    cohort_spec = spec["cohort"]
    if cohort_spec is not None:
        import numpy as np

        cohort = tdap.generate_cohort(cohort_spec["n"], cohort_spec["seed"])
        if cohort_spec["round"] is not None:
            digits = cohort_spec["round"]
            cohort = tdap.CohortSample(
                cohort.times,
                cohort.status,
                np.round(cohort.score1, digits),
                np.round(cohort.score2, digits),
            )
        tdap.write_cohort_csv(cohort, paths["input"])
    argv = [a.format(**paths) for a in spec["argv"]]

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    with open(work / "stdout.txt", "w", encoding="utf-8") as out, redirect_stdout(out):
        setup_s = time.monotonic() - spec["spawned_at"]
        cpu0 = _cpu_s()
        wall0 = time.perf_counter()
        try:
            code = tdap.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        wall_s = time.perf_counter() - wall0
        cpu_s = _cpu_s() - cpu0

    result = {
        "exit_code": code,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_count": os.cpu_count(),
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["replicates"] = [tracer.replicates_attempted, tracer.replicates_failed]
    (work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
