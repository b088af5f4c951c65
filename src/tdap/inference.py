"""Percentile-bootstrap uncertainty for the accuracy estimators.

Resampling is by subject: each replicate draws n subjects with
replacement, re-fits the censoring curve and weights from scratch on the
resample, and re-computes the estimand.  Replicates where the horizon is
no longer estimable (for example, a resample with no case before t0) are
dropped and counted; more than 10% failures aborts the run.

Replicate streams are derived from a single seed, one child stream per
replicate index.  Runs are single-threaded; the ``threads`` arguments
are accepted for compatibility and never change a result.

The engine never materialises a resample.  The cohort is ranked once
per bootstrap (time order, and each subject's case-anchored score
segment) and a replicate is its multiplicity vector: how often each
subject was drawn.  Resample validity, the reverse Kaplan-Meier curve,
the weights and the segmented case, control and count masses are then
``bincount``/``cumsum`` passes over those fixed ranks, and the masses go
through the same AP/AUC kernel as the point estimators.  A segment is a
score group holding a case of the full cohort, or one run of caseless
groups between two such groups, so a replicate's arrays have 2h + 1
bins for h distinct case scores rather than one per distinct score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .censoring import WeightVector, fit_censoring_km, ipcw_weights
from .cohort import CohortSample, _is_integer, _is_real, validate_horizon
from .errors import TooManyFailedReplicatesError
from .estimators import (
    _accuracy,
    _case_segments,
    _estimable_accuracy,
    auc,
    average_precision,
    compare_horizon,
)

__all__ = [
    "DEFAULT_SEED",
    "BootstrapSpec",
    "AccuracySummary",
    "bootstrap_values",
    "bootstrap_summary",
    "bootstrap_estimate",
    "bootstrap_compare",
]

DEFAULT_SEED = 1729

_SINGLE_ESTIMANDS = ("ap", "auc")
_PAIRED_ESTIMANDS = ("ap", "ap2", "rap", "auc", "auc2", "dauc")

# estimand -> its value on one resample, given acc[s] = (AP, AUC) of
# score s + 1; a NaN marks the replicate as failed
_ESTIMANDS = {
    "ap": lambda acc: acc[0][0],
    "auc": lambda acc: acc[0][1],
    "ap2": lambda acc: acc[1][0],
    "auc2": lambda acc: acc[1][1],
    "rap": lambda acc: acc[0][0] / acc[1][0] if acc[1][0] > 0.0 else np.nan,
    "dauc": lambda acc: acc[0][1] - acc[1][1],
}
_NEEDS_SCORE2 = {"ap2", "auc2", "rap", "dauc"}


@dataclass(frozen=True)
class BootstrapSpec:
    """Bootstrap configuration: replicate count, CI level, seed.

    Integer fields accept any integer type (numpy scalars included) and
    are stored as ``int``; bools are rejected.
    """

    replicates: int = 1000
    level: float = 0.95
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not (_is_integer(self.replicates) and self.replicates >= 2):
            raise ValueError(f"replicates must be an int >= 2, got {self.replicates!r}")
        if not (_is_real(self.level) and 0.0 < self.level < 1.0):
            raise ValueError(f"level must lie in (0, 1), got {self.level!r}")
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")
        object.__setattr__(self, "replicates", int(self.replicates))
        object.__setattr__(self, "level", float(self.level))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class AccuracySummary:
    """Point estimate with percentile CI and bootstrap SE."""

    estimand: str
    t0: float
    point: float
    lower: float
    upper: float
    se: float
    replicates_used: int
    replicates_failed: int

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError(
                f"lower {self.lower!r} exceeds upper {self.upper!r}"
            )

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "lower": self.lower,
            "upper": self.upper,
            "se": self.se,
            "replicates_used": self.replicates_used,
            "replicates_failed": self.replicates_failed,
        }


class _RankedCohort:
    """A cohort ranked once for counts-based resampling at horizon t0.

    Only censoring times below t0 move G at a case's time or at t0, so
    the reverse Kaplan-Meier curve is kept to those jumps; every other
    jump of a resample's own fit multiplies G by exactly 1, so the curve
    matches a fit on the materialised resample value for value.
    """

    def __init__(self, cohort: CohortSample, t0: float, n_scores: int):
        times = cohort.times
        before = np.flatnonzero(times < t0)
        t_before = times[before]
        is_case = cohort.status[before] == 1.0
        self.n = cohort.n
        self.before = before
        self.cases = np.flatnonzero(is_case)  # positions within `before`
        self.censored = np.flatnonzero(~is_case)  # positions within `before`
        jumps, self.jump_of_censored = np.unique(
            t_before[self.censored], return_inverse=True
        )
        self.n_jumps = jumps.size
        # jumps at or below each early time: subject i is at risk at jump
        # j unless its time has at most j jumps at or below it
        self.jumps_upto = np.searchsorted(jumps, t_before, side="right")
        # jumps strictly below each case time index the left limit G(X)
        self.case_jumps = np.searchsorted(jumps, t_before[self.cases], side="left")
        # each subject's case-anchored segment (estimators._case_segments):
        # a resample's cases are among the cohort's, so the anchors hold
        # for every replicate
        case_subjects = before[self.cases]
        self.groups = []
        for s in range(1, n_scores + 1):
            score = cohort.scores(s)
            order = np.argsort(score)
            sizes, _ = _case_segments(score[order], score[case_subjects])
            group = np.empty(self.n, dtype=np.intp)
            group[order[::-1]] = np.repeat(np.arange(sizes.size), sizes)
            self.groups.append(
                (group, group[before], group[case_subjects], sizes.size)
            )

    def accuracy(self, m: np.ndarray):
        """(AP, AUC) per score for the resample with multiplicities ``m``.

        Returns None when the resample fails: no case before t0, nobody
        followed up to t0, or a zero censoring survival where a weight
        needs it.
        """
        m = m.astype(float)
        m_before = m[self.before]
        m_case = m_before[self.cases]
        n_at_t0 = self.n - m_before.sum()
        if not (m_case.any() and n_at_t0 > 0):
            return None
        censored_at = np.bincount(
            self.jump_of_censored,
            weights=m_before[self.censored],
            minlength=self.n_jumps,
        )
        at_risk = self.n - np.cumsum(
            np.bincount(self.jumps_upto, weights=m_before, minlength=self.n_jumps + 1)
        )[: self.n_jumps]
        hazard = np.divide(
            censored_at, at_risk, out=np.zeros(self.n_jumps), where=censored_at > 0
        )
        g = np.concatenate(([1.0], np.cumprod(1.0 - hazard)))
        # G is non-increasing and G(t0) is its last value, so one check
        # covers every case weight too
        if not g[-1] > 0.0:
            return None
        case_w = m_case * (1.0 / g[self.case_jumps])
        ctrl_w = 1.0 / g[-1]
        acc = []
        for group, group_before, group_case, size in self.groups:
            counts = np.bincount(group, weights=m, minlength=size)
            ctrl = counts - np.bincount(group_before, weights=m_before, minlength=size)
            case = np.bincount(group_case, weights=case_w, minlength=size)
            acc.append(_accuracy(counts, case, ctrl_w * ctrl))
        return acc


def _replicate_matrix(
    cohort: CohortSample,
    t0: float,
    spec: BootstrapSpec,
    estimands: tuple[str, ...],
) -> tuple[np.ndarray, int]:
    """Run every replicate; return the usable rows and the failure count.

    Columns follow ``estimands`` (keys of the estimand table).  A row
    with any NaN marks a failed resample and is dropped.  Replicate b
    draws ``default_rng(SeedSequence(spec.seed).spawn(B)[b]).integers(0,
    n, size=n)``, so the resamples are those of a plain per-replicate
    loop over ``CohortSample.take``.
    """
    table = [_ESTIMANDS[name] for name in estimands]
    n_scores = 2 if _NEEDS_SCORE2.intersection(estimands) else 1
    ranked = _RankedCohort(cohort, t0, n_scores)
    n = cohort.n
    values = np.full((spec.replicates, len(table)), np.nan)
    for b, child in enumerate(np.random.SeedSequence(spec.seed).spawn(spec.replicates)):
        idx = np.random.default_rng(child).integers(0, n, size=n)
        acc = ranked.accuracy(np.bincount(idx, minlength=n))
        if acc is not None:
            values[b] = [stat(acc) for stat in table]

    usable = ~np.isnan(values).any(axis=1)
    failed = spec.replicates - int(usable.sum())
    if failed > 0.1 * spec.replicates:
        raise TooManyFailedReplicatesError(failed, spec.replicates)
    return values[usable], failed


def _single_estimand(estimand: str, score: int) -> str:
    if estimand not in _SINGLE_ESTIMANDS:
        raise ValueError(
            f"estimand must be one of {_SINGLE_ESTIMANDS}, got {estimand!r}"
        )
    if score not in (1, 2):
        raise ValueError(f"score selector must be 1 or 2, got {score!r}")
    return estimand if score == 1 else estimand + "2"


def _full_weights(
    cohort: CohortSample, t0: float, weights: WeightVector | None
) -> WeightVector:
    if weights is None:
        return ipcw_weights(cohort, fit_censoring_km(cohort), t0)
    if weights.t0 != float(t0) or weights.n != cohort.n:
        raise ValueError(
            f"weights were built for t0={weights.t0!r} and {weights.n} subjects, "
            f"not t0={float(t0)!r} and {cohort.n}"
        )
    return weights


def bootstrap_values(
    cohort: CohortSample,
    t0: float,
    spec: BootstrapSpec,
    estimand: str = "ap",
    score: int = 1,
    threads: int = 1,
) -> tuple[np.ndarray, int]:
    """Raw replicate values for one estimand, plus the failure count.

    Useful for diagnostics and plots; :func:`bootstrap_summary` consumes
    the same replicate stream.  ``threads`` is accepted for
    compatibility; runs are single-threaded.
    """
    name = _single_estimand(estimand, score)
    validate_horizon(cohort, t0)
    values, failed = _replicate_matrix(cohort, t0, spec, (name,))
    return values[:, 0], failed


def _summary(estimand, t0, point, values, failed, level) -> AccuracySummary:
    alpha = 1.0 - level
    lower, upper = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0])
    return AccuracySummary(
        estimand=estimand,
        t0=float(t0),
        point=float(point),
        lower=float(lower),
        upper=float(upper),
        se=float(np.std(values, ddof=1)),
        replicates_used=int(values.shape[0]),
        replicates_failed=int(failed),
    )


def _summaries(cohort, t0, spec, points: dict) -> dict[str, AccuracySummary]:
    """One joint bootstrap of every estimand named in ``points``."""
    values, failed = _replicate_matrix(cohort, t0, spec, tuple(points))
    return {
        name: _summary(name, t0, point, values[:, k], failed, spec.level)
        for k, (name, point) in enumerate(points.items())
    }


def bootstrap_summary(
    cohort: CohortSample,
    t0: float,
    spec: BootstrapSpec,
    estimand: str = "ap",
    score: int = 1,
    threads: int = 1,
) -> AccuracySummary:
    """Point estimate on the original cohort plus percentile CI and SE.

    ``threads`` is accepted for compatibility; runs are single-threaded.
    """
    name = _single_estimand(estimand, score)
    validate_horizon(cohort, t0)
    weights = ipcw_weights(cohort, fit_censoring_km(cohort), t0)
    estimator = average_precision if estimand == "ap" else auc
    point = estimator(cohort, weights, t0, score=score)
    values, failed = _replicate_matrix(cohort, t0, spec, (name,))
    return _summary(estimand, t0, point, values[:, 0], failed, spec.level)


def bootstrap_estimate(
    cohort: CohortSample,
    t0: float,
    spec: BootstrapSpec,
    weights: WeightVector | None = None,
) -> dict[str, AccuracySummary]:
    """AP and AUC of score 1 from one joint bootstrap.

    Both estimands are computed on the same resamples, so one pass of
    ``spec.replicates`` gives exactly what two :func:`bootstrap_summary`
    calls give.  ``weights`` may carry the full-cohort weights at ``t0``
    when the caller already has them.  Keys: ``ap``, ``auc``.
    """
    validate_horizon(cohort, t0)
    weights = _full_weights(cohort, t0, weights)
    ap, value = _estimable_accuracy(cohort, weights, t0)
    return _summaries(cohort, t0, spec, {"ap": ap, "auc": value})


def bootstrap_compare(
    cohort: CohortSample,
    t0: float,
    spec: BootstrapSpec,
    threads: int = 1,
    weights: WeightVector | None = None,
) -> dict[str, AccuracySummary]:
    """Joint bootstrap of both scores' AP, AUC, their ratio and difference.

    All six estimands are computed on the same resamples, so the paired
    quantities stay internally consistent.  ``weights`` may carry the
    full-cohort weights at ``t0``.  ``threads`` is accepted for
    compatibility; runs are single-threaded.  Keys: ``ap``, ``ap2``,
    ``rap``, ``auc``, ``auc2``, ``dauc``.
    """
    validate_horizon(cohort, t0)
    point = compare_horizon(cohort, t0, _full_weights(cohort, t0, weights))
    points = {
        "ap": point.ap1,
        "ap2": point.ap2,
        "rap": point.rap,
        "auc": point.auc1,
        "auc2": point.auc2,
        "dauc": point.dauc,
    }
    return _summaries(cohort, t0, spec, points)
