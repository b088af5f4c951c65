"""Command-line interface.

Three subcommands:

* ``estimate``  accuracy of one score on a cohort CSV at one or more horizons
* ``compare``   head-to-head accuracy of two scores, optionally over a horizon sweep
* ``simulate``  Monte-Carlo operating characteristics of the estimators

Exit codes: 0 success, 1 I/O failure, 2 validation or data error (the
error class name is printed on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable

import numpy as np

from .censoring import fit_censoring_km, ipcw_weights
from .cohort import ColumnMap, _write_csv, read_cohort_csv, validate_horizon
from .errors import TdapError
from .estimators import _curves, pr_curve, roc_curve  # bench/spans.py wraps *_curve
from .inference import (  # bench/spans.py wraps the two bootstrap_* names here
    DEFAULT_SEED,
    BootstrapSpec,
    _bootstrap_horizons,
    bootstrap_compare,
    bootstrap_summary,
)
from .simulation import DEFAULT_STUDY_SEED, SimulationConfig, run_study

__all__ = ["main", "canonical_json"]


def canonical_json(payload) -> str:
    """Serialize with sorted keys and round-trip-exact floats."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="cohort CSV file")
    p.add_argument("--time-col", default="time", help="follow-up time column")
    p.add_argument("--status-col", default="status", help="event indicator column")
    p.add_argument("--score-col", default="score1", help="risk score column")
    p.add_argument(
        "--score2-col",
        default=None,
        help="second score column (default: 'score2' when present)",
    )


def _add_boot_flags(
    p: argparse.ArgumentParser, default_boot: int, default_seed: int = DEFAULT_SEED
) -> None:
    p.add_argument("--boot", type=int, default=default_boot, help="bootstrap replicates")
    p.add_argument("--level", type=float, default=0.95, help="confidence level")
    p.add_argument("--seed", type=int, default=default_seed, help="RNG seed")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; runs are single-threaded",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdap",
        description="Horizon-specific predictive accuracy for censored cohorts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="accuracy of one score")
    _add_io_flags(est)
    est.add_argument(
        "--t0", type=float, action="append", required=True, help="horizon (repeatable)"
    )
    _add_boot_flags(est, 1000)
    est.add_argument("--curves", help="write PR/ROC curve CSV here (single --t0 only)")
    est.add_argument("--json", help="write summary JSON here")
    est.set_defaults(sweep=None, csv=None)

    cmp_ = sub.add_parser("compare", help="paired comparison of two scores")
    _add_io_flags(cmp_)
    cmp_.add_argument(
        "--t0", type=float, action="append", help="horizon (repeatable)"
    )
    cmp_.add_argument(
        "--sweep",
        help="horizon grid START:STOP:STEP (alternative to --t0)",
    )
    _add_boot_flags(cmp_, 1000)
    cmp_.add_argument("--csv", help="write sweep results CSV here")
    cmp_.add_argument("--json", help="write summary JSON here")
    cmp_.set_defaults(curves=None)

    sim = sub.add_parser("simulate", help="Monte-Carlo study of the estimators")
    sim.add_argument("--n", type=int, default=2000, help="cohort size")
    sim.add_argument("--reps", type=int, default=200, help="study replications")
    sim.add_argument(
        "--t0", type=float, action="append", help="horizon (repeatable; default 0.5 8 36)"
    )
    sim.add_argument(
        "--oracle", type=int, default=2_000_000, help="uncensored oracle sample size"
    )
    _add_boot_flags(sim, 200, default_seed=DEFAULT_STUDY_SEED)
    sim.add_argument("--csv", help="write report CSV here")
    sim.add_argument("--json", help="write report JSON here")
    return parser


def _column_map(args) -> ColumnMap:
    return ColumnMap(
        time=args.time_col,
        status=args.status_col,
        score1=args.score_col,
        score2=args.score2_col,
    )


def _summary_block(label: str, s, level: float) -> str:
    pct = 100.0 * level
    return (
        f"  {label:<5} {s.point:<10.6g} {pct:g}% CI [{s.lower:.6g}, {s.upper:.6g}]"
        f"  SE {s.se:.6g}  ({s.replicates_used} used, {s.replicates_failed} failed)"
    )


def _flat(prefix: str, s) -> dict:
    return {
        prefix: s.point,
        f"{prefix}_lower": s.lower,
        f"{prefix}_upper": s.upper,
        f"{prefix}_se": s.se,
    }


def _write_curves(path: str, cohort, t0: float) -> None:
    weights = ipcw_weights(cohort, fit_censoring_km(cohort), t0)
    pr, roc = _curves(cohort, weights, t0, 1, ("pr", "roc"))
    _write_csv(
        path, ("threshold", "tpf", "ppv", "fpf"), (pr.thresholds, pr.xs, pr.ys, roc.xs)
    )


# per command: each estimand and its printed label, in printed order
_LABELS = {
    "estimate": (("ap", "AP"), ("auc", "AUC")),
    "compare": (
        ("ap", "AP1"),
        ("ap2", "AP2"),
        ("rap", "rAP"),
        ("auc", "AUC1"),
        ("auc2", "AUC2"),
        ("dauc", "dAUC"),
    ),
}


# sweep CSV column -> key of a result row
_SWEEP_COLUMNS = (
    ("t0", "t0"),
    ("ap1", "ap"),
    ("ap2", "ap2"),
    ("rap", "rap"),
    ("rap_lo", "rap_lower"),
    ("rap_hi", "rap_upper"),
    ("auc1", "auc"),
    ("auc2", "auc2"),
    ("dauc", "dauc"),
    ("dauc_lo", "dauc_lower"),
    ("dauc_hi", "dauc_upper"),
)


def _parse_sweep(text: str) -> Iterable[float]:
    """The horizons START, START + STEP, ... up to STOP, made one at a time.

    The grid is lazy, so a command stops at its first invalid horizon
    however many the grid holds.  A point that rounding carries past
    STOP (only the last can be) is STOP.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--sweep expects START:STOP:STEP, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not np.isfinite([start, stop, step]).all():
        raise ValueError(f"--sweep needs finite START, STOP and STEP, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError(f"--sweep needs step > 0 and stop >= start, got {text!r}")
    steps = (stop - start) / step  # inf when the span or the quotient overflows
    if not np.isfinite(steps):
        raise ValueError(f"--sweep needs a finite (STOP - START) / STEP, got {text!r}")
    count = int(np.floor(steps + 1e-9)) + 1
    return (float(min(start + step * k, stop)) for k in range(count))


def _cmd_horizons(args) -> int:
    """``estimate`` and ``compare``: every estimand of ``_LABELS`` per horizon.

    Points, CIs and SEs come from one bootstrap pass over the valid
    horizons; its full-cohort row gives the points.
    """
    # ``estimate`` requires --t0 and has no --sweep, so only compare trips this
    if bool(args.t0) == bool(args.sweep):
        raise ValueError("compare needs exactly one of --t0 or --sweep")
    cohort = read_cohort_csv(args.input, _column_map(args))
    horizons = _parse_sweep(args.sweep) if args.sweep else list(args.t0)
    if args.curves and len(horizons) != 1:
        raise ValueError("--curves requires exactly one --t0")
    spec = BootstrapSpec(replicates=args.boot, level=args.level, seed=args.seed)
    labels = _LABELS[args.command]
    results = []
    print(f"cohort: n={cohort.n} ({'paired' if cohort.paired else 'single score'})")
    # the horizons before the first that fails validation: they are
    # printed, then its error is raised, as a horizon-by-horizon loop would
    valid, error = [], None
    for t0 in horizons:
        try:
            validate_horizon(cohort, t0)
        except (TdapError, ValueError) as err:
            error = err
            break
        valid.append(t0)
    summaries = _bootstrap_horizons(cohort, spec, valid, tuple(k for k, _ in labels))
    for t0, (rate, summary) in zip(valid, summaries):
        print(f"t0={t0:.6g}  event_rate={rate:.6g}")
        row = {"t0": t0, "event_rate": rate}
        for key, label in labels:
            print(_summary_block(label, summary[key], spec.level))
            row.update(_flat(key, summary[key]))
        results.append(row)
        if args.curves:
            _write_curves(args.curves, cohort, t0)
    if error is not None:
        raise error
    if args.csv:
        _write_csv(
            args.csv,
            [name for name, _ in _SWEEP_COLUMNS],
            [[row[key] for row in results] for _, key in _SWEEP_COLUMNS],
        )
    if args.json:
        payload = {"n": cohort.n, "level": spec.level, "results": results}
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(payload))
    return 0


def _cmd_simulate(args) -> int:
    config = SimulationConfig(
        n=args.n,
        replications=args.reps,
        horizons=tuple(args.t0) if args.t0 else (0.5, 8.0, 36.0),
        bootstrap=BootstrapSpec(replicates=args.boot, level=args.level, seed=args.seed),
        oracle_size=args.oracle,
        seed=args.seed,
    )
    report = run_study(config)
    print(report.format_table(), end="")
    if args.csv:
        report.to_csv(args.csv)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(report.to_dict()))
    return 0


_HANDLERS = {
    "estimate": _cmd_horizons,
    "compare": _cmd_horizons,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (TdapError, ValueError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
