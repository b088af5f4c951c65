"""Horizon-specific accuracy estimators for right-censored cohorts.

For a horizon t0, a *case* is a subject whose event occurs before t0 and
a *control* is a subject still event-free at t0.  Censoring is handled
by the weights from :mod:`tdap.censoring`: sums over cases use weighted
indicator masses, while counts of subjects screened positive (score at
or above a threshold) stay unweighted because scores are always
observed.

Ties in the scores get half credit everywhere: a subject's own score
contributes half of itself to the precision at that score, and tied
case/control pairs count 1/2 toward concordance.

Every public function that takes a ``WeightVector`` raises
``ValueError`` when it was built for another horizon or cohort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .censoring import WeightVector, fit_censoring_km, ipcw_weights
from .cohort import CohortSample, _is_integer, _is_real, validate_horizon
from .errors import (
    DivisionByZeroAPError,
    EmptyThresholdSetError,
    NoControlsAtT0Error,
    NoEventsBeforeT0Error,
    NotPairedError,
)

__all__ = [
    "CurveTrace",
    "HorizonEstimates",
    "PairedEstimates",
    "ppv_at",
    "tpf_at",
    "ppv_tie_corrected",
    "average_precision",
    "auc",
    "event_rate",
    "pr_curve",
    "roc_curve",
    "ap_ratio",
    "auc_difference",
    "estimate_horizon",
    "compare_horizon",
]


@dataclass(frozen=True)
class CurveTrace:
    """An accuracy curve sampled at every distinct score threshold.

    ``thresholds`` run from the highest score down; ``xs``/``ys`` hold
    the matching curve coordinates ((TPF, PPV) for precision-recall,
    (FPF, TPF) for ROC).  Coordinates are clipped into [0, 1].
    """

    kind: str
    thresholds: np.ndarray = field(repr=False)
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("thresholds", "xs", "ys"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.thresholds.shape == self.xs.shape == self.ys.shape):
            raise ValueError("thresholds, xs, ys must have equal length")

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.xs.tolist(), self.ys.tolist()))

    def __len__(self) -> int:
        return self.thresholds.size


@dataclass(frozen=True)
class HorizonEstimates:
    """Point estimates for one score at one horizon."""

    t0: float
    event_rate: float
    ap: float
    auc: float


@dataclass(frozen=True)
class PairedEstimates:
    """Head-to-head point estimates for two scores at one horizon."""

    t0: float
    event_rate: float
    ap1: float
    ap2: float
    rap: float
    auc1: float
    auc2: float
    dauc: float


def _check_weights(cohort: CohortSample, weights: WeightVector, t0: float) -> None:
    """Raise ``ValueError`` unless ``weights`` were built for ``t0`` and this cohort."""
    if weights.t0 != float(t0) or weights.n != cohort.n:
        raise ValueError(
            f"weights were built for t0={weights.t0!r} and {weights.n} subjects, "
            f"not t0={float(t0)!r} and {cohort.n}"
        )


def _case_mass(cohort: CohortSample, weights: WeightVector, t0: float) -> np.ndarray:
    # I(X < t0) * w; already 0 for subjects censored before t0.  Every
    # public function that takes weights reads them here, so all check them.
    _check_weights(cohort, weights, t0)
    return weights.weights * (cohort.times < t0)


def _control_mass(cohort: CohortSample, weights: WeightVector, t0: float) -> np.ndarray:
    return weights.weights * (cohort.times >= t0)


def _grouped_desc(scores: np.ndarray, *masses: np.ndarray):
    """Group subjects by distinct score, highest first.

    Returns the distinct scores (descending), the subject count per
    group, and one mass-sum array per extra argument.
    """
    neg_vals, inverse, counts = np.unique(-scores, return_inverse=True, return_counts=True)
    sums = tuple(
        np.bincount(inverse, weights=m, minlength=neg_vals.size) for m in masses
    )
    return -neg_vals, counts, sums


def _check_threshold(threshold) -> None:
    """Raise ``ValueError`` unless ``threshold`` is a real number other than NaN.

    Numpy scalars and +-inf pass; bools do not.
    """
    if not (_is_real(threshold) and not math.isnan(threshold)):
        raise ValueError(f"threshold must be a real number other than NaN, got {threshold!r}")


def ppv_at(
    cohort: CohortSample, weights: WeightVector, threshold: float, t0: float
) -> float:
    """Precision of the rule "score >= threshold" for events before t0.

    The numerator is the weighted mass of cases screened positive; the
    denominator is the plain count of subjects screened positive (score
    observation is never censored, so it needs no reweighting).
    ``threshold`` is a real number (numpy scalars and +-inf included) and
    not NaN or a bool; anything else raises ``ValueError``.
    """
    _check_threshold(threshold)
    case_w = _case_mass(cohort, weights, t0)
    positive = cohort.score1 >= threshold
    n_pos = int(np.count_nonzero(positive))
    if n_pos == 0:
        raise EmptyThresholdSetError(threshold)
    return float(case_w[positive].sum() / n_pos)


def tpf_at(
    cohort: CohortSample, weights: WeightVector, threshold: float, t0: float
) -> float:
    """Sensitivity of the rule "score >= threshold" for events before t0.

    ``threshold`` is checked as in :func:`ppv_at`.
    """
    _check_threshold(threshold)
    case_w = _case_mass(cohort, weights, t0)
    total = case_w.sum()
    if total <= 0.0:
        raise NoEventsBeforeT0Error(t0)
    positive = cohort.score1 >= threshold
    return float(case_w[positive].sum() / total)


def ppv_tie_corrected(
    cohort: CohortSample, weights: WeightVector, j: int, t0: float, score: int = 1
) -> float:
    """Precision evaluated at subject ``j``'s own score with half-tie credit.

    Subjects tied with ``j`` (including ``j`` itself) contribute half of
    their mass to both numerator and denominator, which removes the
    upward bias a strict ">=" rule gives the anchoring subject.  ``j``
    is an integer (numpy scalars included, bools not) in [0, n); anything
    else raises ``ValueError``.
    """
    if not (_is_integer(j) and 0 <= j < cohort.n):
        raise ValueError(f"j must be an int in [0, n) with n = {cohort.n}, got {j!r}")
    z = cohort.scores(score)
    above = z > z[j]
    tied = z == z[j]
    case_w = _case_mass(cohort, weights, t0)
    num = case_w[above].sum() + 0.5 * case_w[tied].sum()
    den = np.count_nonzero(above) + 0.5 * np.count_nonzero(tied)
    return float(num / den)


def _accuracy(counts, case_mass, ctrl_mass):
    """AP and AUC from per-group masses, groups ordered by descending score.

    This is the one place the two formulas live: the point estimators
    and every bootstrap replicate read from it (the replicates on the
    case-anchored segments of ``inference._RankedCohort``), and the study
    oracle reads its AP formula (``_ap``) from its own tie runs.  Groups
    may be empty (count and masses 0).  AP is NaN without case mass; AUC
    is NaN without case or control mass.  Both are clipped into [0, 1];
    the clip can bind only in heavily censored corners where single
    weights exceed 1.  ``counts`` must be whole numbers, so the doubled
    screened count ``2 * cumsum(counts) - counts`` is exact.  AP never
    reads the control masses, and a weight common to every control
    cancels in AUC up to rounding, so a caller whose controls share one
    weight may pass their counts.

    One set of groups (1-d arrays) gives two floats.  A table of rows
    (2-d arrays, one row per bootstrap replicate) gives one AP array and
    one AUC array.  Only groups holding case mass enter either sum, so
    the sums are taken over the columns that hold case mass in some row;
    within a row, a column without case mass adds an exact 0.  A single
    row therefore sums exactly the elements, in the order, of its own
    case-holding groups.  Reductions use ``einsum`` rather than
    ``np.dot``: BLAS worker threads spin on these short vectors and burn
    CPU without saving wall time.
    """
    one_set = np.ndim(case_mass) == 1
    counts, case_mass, ctrl_mass = (
        np.atleast_2d(a) for a in (counts, case_mass, ctrl_mass)
    )
    hit = np.flatnonzero((case_mass > 0.0).any(axis=0))
    case = case_mass[:, hit]
    screened = 2.0 * np.cumsum(counts, axis=1) - counts
    ap, total_case = _ap(case, screened[:, hit])
    total_ctrl = ctrl_mass.sum(axis=1)
    ctrl_below = total_ctrl[:, None] - np.cumsum(ctrl_mass, axis=1)[:, hit]
    conc = np.einsum("bi,bi->b", case, ctrl_below + 0.5 * ctrl_mass[:, hit])
    defined = (total_case > 0.0) & (total_ctrl > 0.0)
    auc = np.clip(_ratio(conc, total_case * total_ctrl, defined), 0.0, 1.0)
    if one_set:
        return float(ap[0]), float(auc[0])
    return ap, auc


def _ap(case, screened):
    """AP, and the total case mass, from the case-holding groups alone.

    ``case`` holds each row's case mass at the groups holding case mass
    in some row, by descending score, and ``screened`` twice the number
    of subjects screened positive at each of those groups, less the
    group's own count: the tie-corrected precision at a case group's
    score counts half of the tied group's own mass as "above", and both
    of its sides are doubled.  The counts are whole numbers, so the
    doubled count is exact.  AP is NaN in a row without case mass and is
    clipped into [0, 1].

    ``screened`` is clamped to at least 1 in place.  A group holding case
    mass holds a counted subject, so its doubled count is at least 1
    already; elsewhere the clamp keeps the precision finite, and a group
    without case mass in a row adds 0 times it, an exact 0.
    """
    total_case = case.sum(axis=1)
    np.maximum(screened, 1, out=screened)
    ppv = 2.0 * np.cumsum(case, axis=1) - case
    ppv /= screened
    ap = _ratio(np.einsum("bi,bi->b", case, ppv), total_case, total_case > 0.0)
    return np.clip(ap, 0.0, 1.0), total_case


def _ratio(num, den, defined):
    """``num / den`` where ``defined`` holds, NaN elsewhere."""
    return np.divide(num, den, out=np.full(np.shape(num), np.nan), where=defined)


def _point_accuracy(
    cohort: CohortSample, weights: WeightVector, t0: float, score: int
) -> tuple[float, float]:
    _, counts, (case_mass, ctrl_mass) = _grouped_desc(
        cohort.scores(score),
        _case_mass(cohort, weights, t0),
        _control_mass(cohort, weights, t0),
    )
    return _accuracy(counts, case_mass, ctrl_mass)


def _estimable_accuracy(
    cohort: CohortSample, weights: WeightVector, t0: float, score: int, controls: bool
) -> tuple[float, float]:
    """(AP, AUC) from one grouping, raising as ``auc`` does, or only on AP."""
    ap, value = _point_accuracy(cohort, weights, t0, score)
    if np.isnan(ap):
        raise NoEventsBeforeT0Error(t0)
    if controls and np.isnan(value):
        raise NoControlsAtT0Error(t0)
    return ap, value


def average_precision(
    cohort: CohortSample, weights: WeightVector, t0: float, score: int = 1
) -> float:
    """Average positive predictive value over the cases at horizon t0.

    This is the area under the precision-recall curve, computed as the
    weighted mean of the tie-corrected precision at each observed case's
    score.  The result is clipped into [0, 1]; the clip can bind only in
    heavily censored corners where single weights exceed 1.
    """
    return _estimable_accuracy(cohort, weights, t0, score, controls=False)[0]


def auc(
    cohort: CohortSample, weights: WeightVector, t0: float, score: int = 1
) -> float:
    """Probability a random case outscores a random control at t0.

    Weighted concordance over case/control pairs with half credit for
    tied scores; clipped into [0, 1].
    """
    return _estimable_accuracy(cohort, weights, t0, score, controls=True)[1]


def event_rate(cohort: CohortSample, weights: WeightVector, t0: float) -> float:
    """Weighted estimate of Pr(event before t0), clipped into [0, 1]."""
    value = _case_mass(cohort, weights, t0).sum() / cohort.n
    return float(min(1.0, max(0.0, value)))


def _curves(
    cohort: CohortSample, weights: WeightVector, t0: float, score: int, kinds
) -> list[CurveTrace]:
    """Traces of ``kinds`` ("pr", "roc"), in order, from one grouping of the scores.

    Raises as ``pr_curve`` does, and as ``roc_curve`` does when ``kinds``
    holds "roc".
    """
    case_w = _case_mass(cohort, weights, t0)
    ctrl_w = _control_mass(cohort, weights, t0)
    total_case = case_w.sum()
    total_ctrl = ctrl_w.sum()
    if total_case <= 0.0:
        raise NoEventsBeforeT0Error(t0)
    if "roc" in kinds and total_ctrl <= 0.0:
        raise NoControlsAtT0Error(t0)
    thresholds, counts, (case_mass, ctrl_mass) = _grouped_desc(
        cohort.scores(score), case_w, ctrl_w
    )
    cum_case = np.cumsum(case_mass)
    tpf = np.clip(cum_case / total_case, 0.0, 1.0)
    traces = []
    for kind in kinds:
        if kind == "pr":
            ppv = np.clip(cum_case / np.cumsum(counts), 0.0, 1.0)
            traces.append(
                CurveTrace(kind="precision-recall", thresholds=thresholds, xs=tpf, ys=ppv)
            )
        else:
            fpf = np.clip(np.cumsum(ctrl_mass) / total_ctrl, 0.0, 1.0)
            traces.append(CurveTrace(kind="roc", thresholds=thresholds, xs=fpf, ys=tpf))
    return traces


def pr_curve(
    cohort: CohortSample, weights: WeightVector, t0: float, score: int = 1
) -> CurveTrace:
    """Precision-recall trace over all distinct score thresholds.

    Each point uses the plain ">= threshold" rule: TPF from the weighted
    case mass, PPV from that mass over the unweighted positive count.
    """
    (trace,) = _curves(cohort, weights, t0, score, ("pr",))
    return trace


def roc_curve(
    cohort: CohortSample, weights: WeightVector, t0: float, score: int = 1
) -> CurveTrace:
    """ROC trace (FPF, TPF) over all distinct score thresholds."""
    (trace,) = _curves(cohort, weights, t0, score, ("roc",))
    return trace


def _require_paired(cohort: CohortSample) -> None:
    if not cohort.paired:
        raise NotPairedError()


def _paired_accuracy(
    cohort: CohortSample, t0: float, weights: WeightVector | None, controls: bool
) -> list[tuple[float, float]]:
    """Both scores' (AP, AUC) under one weight vector, score 1 raising first."""
    if weights is None:
        weights = ipcw_weights(cohort, fit_censoring_km(cohort), t0)
    return [_estimable_accuracy(cohort, weights, t0, s, controls) for s in (1, 2)]


def ap_ratio(
    cohort: CohortSample, t0: float, weights: WeightVector | None = None
) -> float:
    """Ratio of average precisions, score 1 over score 2.

    Both estimates share the cohort and one weight vector, so the ratio
    isolates the scores themselves.  Raises when the score-2 estimate is
    0, since no meaningful ratio exists then.
    """
    _require_paired(cohort)
    (ap1, _), (ap2, _) = _paired_accuracy(cohort, t0, weights, controls=False)
    if ap2 <= 0.0:
        raise DivisionByZeroAPError()
    return float(ap1 / ap2)


def auc_difference(
    cohort: CohortSample, t0: float, weights: WeightVector | None = None
) -> float:
    """Difference of the two scores' AUCs (score 1 minus score 2)."""
    _require_paired(cohort)
    (_, auc1), (_, auc2) = _paired_accuracy(cohort, t0, weights, controls=True)
    return float(auc1 - auc2)


def estimate_horizon(
    cohort: CohortSample, t0: float, weights: WeightVector | None = None
) -> HorizonEstimates:
    """Validate, weight, and estimate event rate, AP, and AUC at t0."""
    validate_horizon(cohort, t0)
    if weights is None:
        weights = ipcw_weights(cohort, fit_censoring_km(cohort), t0)
    ap, value = _estimable_accuracy(cohort, weights, t0, score=1, controls=True)
    return HorizonEstimates(
        t0=float(t0), event_rate=event_rate(cohort, weights, t0), ap=ap, auc=value
    )


def compare_horizon(
    cohort: CohortSample, t0: float, weights: WeightVector | None = None
) -> PairedEstimates:
    """Paired estimates for both scores at t0, sharing one weight vector."""
    _require_paired(cohort)
    validate_horizon(cohort, t0)
    if weights is None:
        weights = ipcw_weights(cohort, fit_censoring_km(cohort), t0)
    (ap1, auc1), (ap2, auc2) = _paired_accuracy(cohort, t0, weights, controls=False)
    if ap2 <= 0.0:
        raise DivisionByZeroAPError()
    if np.isnan(auc1) or np.isnan(auc2):
        raise NoControlsAtT0Error(t0)
    return PairedEstimates(
        t0=float(t0),
        event_rate=event_rate(cohort, weights, t0),
        ap1=ap1,
        ap2=ap2,
        rap=float(ap1 / ap2),
        auc1=auc1,
        auc2=auc2,
        dauc=float(auc1 - auc2),
    )
