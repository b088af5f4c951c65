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

import numpy as np

from .censoring import fit_censoring_km, ipcw_weights
from .cohort import ColumnMap, _write_csv, read_cohort_csv, validate_horizon
from .errors import TdapError
from .estimators import (  # bench/spans.py wraps the two *_curve names here
    _curves,
    compare_horizon,
    estimate_horizon,
    pr_curve,
    roc_curve,
)
from .inference import (  # bench/spans.py wraps the two bootstrap_* names here
    DEFAULT_SEED,
    BootstrapSpec,
    _bootstrap_horizons,
    _paired_points,
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


def _write_curves(path: str, cohort, weights, t0: float) -> None:
    pr, roc = _curves(cohort, weights, t0, 1, ("pr", "roc"))
    _write_csv(
        path, ("threshold", "tpf", "ppv", "fpf"), (pr.thresholds, pr.xs, pr.ys, roc.xs)
    )


def _horizon_points(cohort, horizons, estimate):
    """Weights and point estimates per horizon, in order, up to the first error.

    Returns the list of ``(t0, weights, estimates)`` and the error of the
    first horizon that fails (None when none does).  The commands print
    the horizons before it and then raise it, as a horizon-by-horizon
    loop would.
    """
    censor_survival = fit_censoring_km(cohort)
    points = []
    for t0 in horizons:
        try:
            validate_horizon(cohort, t0)
            weights = ipcw_weights(cohort, censor_survival, t0)
            points.append((t0, weights, estimate(cohort, t0, weights)))
        except (TdapError, ValueError) as err:
            return points, err
    return points, None


def _cmd_estimate(args) -> int:
    cohort = read_cohort_csv(args.input, _column_map(args))
    horizons = list(args.t0)
    if args.curves and len(horizons) != 1:
        raise ValueError("--curves requires exactly one --t0")
    spec = BootstrapSpec(replicates=args.boot, level=args.level, seed=args.seed)
    results = []
    print(f"cohort: n={cohort.n} ({'paired' if cohort.paired else 'single score'})")
    points, error = _horizon_points(cohort, horizons, estimate_horizon)
    summaries = _bootstrap_horizons(
        cohort, spec, [(t0, {"ap": p.ap, "auc": p.auc}) for t0, _, p in points]
    )
    for (t0, weights, point), both in zip(points, summaries):
        ap_s, auc_s = both["ap"], both["auc"]
        rate = point.event_rate
        print(f"t0={t0:.6g}  event_rate={rate:.6g}")
        print(_summary_block("AP", ap_s, spec.level))
        print(_summary_block("AUC", auc_s, spec.level))
        results.append(
            {"t0": t0, "event_rate": rate, **_flat("ap", ap_s), **_flat("auc", auc_s)}
        )
        if args.curves:
            _write_curves(args.curves, cohort, weights, t0)
    if error is not None:
        raise error
    if args.json:
        payload = {"n": cohort.n, "level": spec.level, "results": results}
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(payload))
    return 0


_COMPARE_LABELS = (
    ("ap", "AP1"),
    ("ap2", "AP2"),
    ("rap", "rAP"),
    ("auc", "AUC1"),
    ("auc2", "AUC2"),
    ("dauc", "dAUC"),
)


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


def _parse_sweep(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--sweep expects START:STOP:STEP, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not np.isfinite([start, stop, step]).all():
        raise ValueError(f"--sweep needs finite START, STOP and STEP, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError(f"--sweep needs step > 0 and stop >= start, got {text!r}")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [float(start + step * k) for k in range(count)]


def _cmd_compare(args) -> int:
    if bool(args.t0) == bool(args.sweep):
        raise ValueError("compare needs exactly one of --t0 or --sweep")
    cohort = read_cohort_csv(args.input, _column_map(args))
    horizons = _parse_sweep(args.sweep) if args.sweep else list(args.t0)
    spec = BootstrapSpec(replicates=args.boot, level=args.level, seed=args.seed)
    results = []
    print(f"cohort: n={cohort.n} ({'paired' if cohort.paired else 'single score'})")
    points, error = _horizon_points(cohort, horizons, compare_horizon)
    estimates = [(t0, _paired_points(p)) for t0, _, p in points]
    for (t0, _, point), summaries in zip(
        points, _bootstrap_horizons(cohort, spec, estimates)
    ):
        rate = point.event_rate
        print(f"t0={t0:.6g}  event_rate={rate:.6g}")
        for key, label in _COMPARE_LABELS:
            print(_summary_block(label, summaries[key], spec.level))
        row = {"t0": t0, "event_rate": rate}
        for key, _ in _COMPARE_LABELS:
            row.update(_flat(key, summaries[key]))
        results.append(row)
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
    "estimate": _cmd_estimate,
    "compare": _cmd_compare,
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
