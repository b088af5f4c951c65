"""In-memory span tracer for the traced benchmark run.

The tracer wraps ``tdap``'s public functions where the program looks
them up (module globals, plus ``CohortSample.take``) and records one
span per call: name, wall start/end, thread CPU start/end, thread id and
parent span.  Nothing in ``tdap`` itself changes; wrappers are installed
in the child process only and live until it exits.

Each thread keeps its own span stack.  A span opened on a worker thread
with an empty stack takes the innermost open span of the main thread as
its parent, so bootstrap replicates run by the thread pool nest under
the bootstrap call that submitted them.

``self_s`` of a span is its wall time minus the part of its interval
covered by the union of its children (children on other threads may
overlap).  ``wait_s`` is self wall minus self thread-CPU, where self
thread-CPU subtracts only children on the span's own thread.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

from tdap.cohort import CohortSample
from tdap.errors import TooManyFailedReplicatesError

# span name -> [(module, attribute), ...]; each attribute is replaced by a
# wrapper in that module's namespace, where the program looks it up
WRAPS = {
    "cli.main": [("tdap.cli", "main")],
    "cohort.read_cohort_csv": [("tdap.cli", "read_cohort_csv")],
    "cohort.validate_horizon": [
        ("tdap.cli", "validate_horizon"),
        ("tdap.inference", "validate_horizon"),
        ("tdap.estimators", "validate_horizon"),
        ("tdap.simulation", "validate_horizon"),
    ],
    "censoring.fit_censoring_km": [
        ("tdap.cli", "fit_censoring_km"),
        ("tdap.inference", "fit_censoring_km"),
        ("tdap.estimators", "fit_censoring_km"),
        ("tdap.simulation", "fit_censoring_km"),
    ],
    "censoring.ipcw_weights": [
        ("tdap.cli", "ipcw_weights"),
        ("tdap.inference", "ipcw_weights"),
        ("tdap.estimators", "ipcw_weights"),
        ("tdap.simulation", "ipcw_weights"),
    ],
    "estimators.average_precision": [
        ("tdap.inference", "average_precision"),
        ("tdap.estimators", "average_precision"),
        ("tdap.simulation", "average_precision"),
    ],
    "estimators.auc": [("tdap.inference", "auc"), ("tdap.estimators", "auc")],
    "estimators.curves": [("tdap.cli", "pr_curve"), ("tdap.cli", "roc_curve")],
    "inference.bootstrap": [
        ("tdap.cli", "bootstrap_summary"),
        ("tdap.cli", "bootstrap_compare"),
        # the study calls the replicate engine directly
        ("tdap.simulation", "_replicate_matrix"),
    ],
    "simulation.run_study": [("tdap.cli", "run_study")],
    "simulation.generate_cohort": [("tdap.simulation", "generate_cohort")],
}

# every bootstrap goes through this engine; it is counted, not spanned
REPLICATE_ENGINES = [
    ("tdap.inference", "_replicate_matrix"),
    ("tdap.simulation", "_replicate_matrix"),
]

# subjects handled per call, for the per-subject and per-row rates
_SUBJECTS = {
    "estimators.average_precision": lambda args, result: args[0].n,
    "estimators.auc": lambda args, result: args[0].n,
    "cohort.read_cohort_csv": lambda args, result: result.n,
}


class Tracer:
    """Collects spans and replicate counts in memory."""

    def __init__(self):
        # [name, parent record, tid, wall0, wall1, cpu0, cpu1, failed, subjects]
        self.spans = []
        self.replicates_attempted = 0
        self.replicates_failed = 0
        self._count_lock = threading.Lock()  # study replications run on pool threads
        self._local = threading.local()
        self._main_stack = []
        self._main_tid = threading.get_ident()

    def _stack(self):
        if threading.get_ident() == self._main_tid:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        subjects = _SUBJECTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            record = [name, parent, threading.get_ident(), 0.0, 0.0, 0.0, 0.0, False, 0]
            self.spans.append(record)
            stack.append(record)
            record[5] = time.thread_time()
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if subjects is not None:
                    record[8] = subjects(args, result)
                return result
            except BaseException:
                record[7] = True
                raise
            finally:
                record[4] = time.perf_counter()
                record[6] = time.thread_time()
                stack.pop()

        return traced

    def count_replicates(self, fn):
        @functools.wraps(fn)
        def counted(cohort, t0, spec, *args, **kwargs):
            try:
                values, failed = fn(cohort, t0, spec, *args, **kwargs)
            except TooManyFailedReplicatesError as err:
                self._count(err.total, err.failed)
                raise
            self._count(spec.replicates, failed)
            return values, failed

        return counted

    def _count(self, attempted: int, failed: int) -> None:
        with self._count_lock:
            self.replicates_attempted += attempted
            self.replicates_failed += failed

    def install(self):
        """Replace every listed attribute by its wrapper."""
        for module, attr in REPLICATE_ENGINES:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.count_replicates(getattr(mod, attr)))
        for name, targets in WRAPS.items():
            for module, attr in targets:
                mod = importlib.import_module(module)
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        CohortSample.take = self.wrap("cohort.take", CohortSample.take)

    def layers(self):
        """Per-span-name totals: calls, failed, self wall, self CPU, subjects."""
        children = defaultdict(list)
        for s in self.spans:
            if s[1] is not None:
                children[id(s[1])].append(s)
        totals = defaultdict(
            lambda: {"calls": 0, "failed": 0, "self_s": 0.0, "self_cpu_s": 0.0, "subjects": 0}
        )
        for s in self.spans:
            name, _, tid, w0, w1, c0, c1, failed, subjects = s
            kids = children[id(s)]
            covered = _union_length([(max(k[3], w0), min(k[4], w1)) for k in kids])
            own_cpu = sum(k[6] - k[5] for k in kids if k[2] == tid)
            t = totals[name]
            t["calls"] += 1
            t["failed"] += int(failed)
            t["self_s"] += (w1 - w0) - covered
            t["self_cpu_s"] += (c1 - c0) - own_cpu
            t["subjects"] += subjects
        return dict(totals)


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
