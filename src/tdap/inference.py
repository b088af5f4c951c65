"""Percentile-bootstrap uncertainty for the accuracy estimators.

Resampling is by subject: each replicate draws n subjects with
replacement, re-fits the censoring curve and weights from scratch on the
resample, and re-computes the estimand.  Replicates where the horizon is
no longer estimable (for example, a resample with no case before t0) are
dropped and counted; more than 10% failures aborts the run.

Replicate streams are derived from a single seed, one child stream per
replicate index.  Runs are single-threaded; the ``threads`` arguments
are accepted for compatibility and never change a result.

The engine never materialises a resample, and one pass serves every
horizon of a command.  The cohort is ranked once (time order, and each
subject's case-anchored score segment at each horizon) and a replicate
is its multiplicity vector: how often each subject was drawn.  Each
replicate is drawn once, and its reverse Kaplan-Meier curve fitted once,
for all horizons; resample validity, G(t0) and the segmented case,
control and count masses per horizon are ``bincount``/``cumsum`` passes
over those fixed ranks.  The reverse Kaplan-Meier fit runs in place on
its two ``bincount`` tables (made float64, since a ``bincount`` of no
input is int64), and 1/G is taken only at the cases' own times.  A
segment is a score group holding a case of the full cohort, or one run
of caseless groups between two such groups, so a replicate has 2h + 1
bins per horizon and score for h distinct case scores rather than one
per distinct score.  Replicates fill tables of these masses block by
block, and the same AP/AUC kernel as the point estimators turns each
block's table into AP and AUC columns, one call per horizon and score.
A block is sized by a fixed byte budget, so memory does not grow with
the replicate count.
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
    _ratio,
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

# estimand -> its column over a block of resamples, given acc[s] = (AP,
# AUC) columns of score s + 1; a NaN marks the replicate as failed
_ESTIMANDS = {
    "ap": lambda acc: acc[0][0],
    "auc": lambda acc: acc[0][1],
    "ap2": lambda acc: acc[1][0],
    "auc2": lambda acc: acc[1][1],
    "rap": lambda acc: _ratio(acc[0][0], acc[1][0], acc[1][0] > 0.0),
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
    """A cohort ranked once for counts-based resampling at a set of horizons.

    ``horizons`` holds the distinct horizons in ascending order.  Only
    censoring times below a horizon t0 move G at a case's time or at t0,
    so the reverse Kaplan-Meier curve is kept to the jumps below the
    largest horizon; G(t0) is the product over the jumps below t0, a
    prefix of one ``cumprod``.  Every other jump of a resample's own fit
    multiplies G by exactly 1, so the curve matches a fit on the
    materialised resample value for value.

    Each (horizon, score) pair has its case-anchored segments
    (``estimators._case_segments``): a resample's cases are among the
    cohort's, so the anchors hold for every replicate.  One replicate is
    two ``bincount`` passes over fixed keys: subject masses into each
    pair's segments, split by follow-up (interleaved: at or beyond t0,
    then before t0), and case weights into each pair's segments plus one
    spare bin that takes the cases at or beyond t0.

    The reverse KM runs in place on the two ``bincount`` tables (censored
    count and at-risk count per jump): ``cumsum``, ``n - ``, a floor of 1,
    the divide and ``1 - `` reuse their buffers, and ``cumprod`` writes
    straight into G.  1/G is taken only at the cases' jump indices.
    """

    def __init__(self, cohort: CohortSample, horizons, n_scores: int):
        self.horizons = np.unique(np.asarray(horizons, dtype=float))
        times = cohort.times
        before = np.flatnonzero(times < self.horizons[-1])
        t_before = times[before]
        is_case = cohort.status[before] == 1.0
        self.n = cohort.n
        self.before = before
        self.censored = np.flatnonzero(~is_case)  # positions within `before`
        jumps, self.jump_of_censored = np.unique(
            t_before[self.censored], return_inverse=True
        )
        self.n_jumps = jumps.size
        # jumps at or below each early time: subject i is at risk at jump
        # j unless its time has at most j jumps at or below it
        self.jumps_upto = np.searchsorted(jumps, t_before, side="right")
        # G(t0) is the product over the jumps strictly below t0
        self.horizon_jumps = np.searchsorted(jumps, self.horizons, side="left")
        self.case_subjects = before[is_case]
        case_times = times[self.case_subjects]
        # jumps strictly below each case time index the left limit G(X)
        self.case_jumps = np.searchsorted(jumps, case_times, side="left")
        # horizons at or below each time: subject i is followed less than
        # horizon k exactly when its slot is at most k
        slot = np.searchsorted(self.horizons, times, side="right")
        self.slot_before = slot[before]
        self.case_slot = slot[self.case_subjects]

        # per (horizon, score) pair, horizon-major: its segment count and
        # the subject -> segment map
        self.n_scores = n_scores
        self.sizes = []
        mass_keys, case_keys = [], []
        mass_width = case_width = 0
        ranked = []  # (case scores, ascending scores, their subjects) per score
        for s in range(1, n_scores + 1):
            score = cohort.scores(s)
            order = np.argsort(score)
            ranked.append((score[self.case_subjects], score[order], order))
        for t0 in self.horizons:
            followed_less = times < t0
            case_in = case_times < t0
            for case_scores, ascending, order in ranked:
                sizes, _ = _case_segments(ascending, case_scores[case_in])
                group = np.empty(self.n, dtype=np.intp)
                group[order[::-1]] = np.repeat(np.arange(sizes.size), sizes)
                mass_keys.append(mass_width + 2 * group + followed_less)
                case_keys.append(
                    case_width
                    + np.where(case_in, group[self.case_subjects], sizes.size)
                )
                self.sizes.append(sizes.size)
                mass_width += 2 * sizes.size
                case_width += sizes.size + 1
        self.mass_keys = np.concatenate(mass_keys)
        self.case_keys = np.concatenate(case_keys)
        self.mass_width, self.case_width = mass_width, case_width

    def replicate(self, m, mass_out, case_out, stats_out) -> None:
        """Write the resample with multiplicities ``m`` into row buffers.

        ``mass_out`` and ``case_out`` receive the segment masses.  The
        three rows of ``stats_out`` receive, per horizon, the case count
        before t0, the count followed up to t0 and G(t0).

        Every value is bit for bit what a masked hazard divide and 1/G
        over every jump give: the counts are whole numbers, so the floor
        of 1 on the at-risk count only turns 0/0 into 0/1 where nobody is
        censored, and each case weight is still ``m * (1 / G)``, with 0
        where G is 0.  Both ``bincount`` tables are made float64 for the
        in-place passes: with no censoring below the largest horizon the
        first has no input, and ``bincount`` then returns int64.
        """
        m = m.astype(float)
        m_before = m[self.before]
        hazard = np.bincount(
            self.jump_of_censored,
            weights=m_before[self.censored],
            minlength=self.n_jumps,
        ).astype(float, copy=False)
        at_risk = np.bincount(
            self.jumps_upto, weights=m_before, minlength=self.n_jumps + 1
        ).astype(float, copy=False)
        np.cumsum(at_risk, out=at_risk)
        at_risk = at_risk[: self.n_jumps]
        np.subtract(self.n, at_risk, out=at_risk)
        np.maximum(at_risk, 1.0, out=at_risk)
        np.divide(hazard, at_risk, out=hazard)
        np.subtract(1.0, hazard, out=hazard)
        g = np.empty(self.n_jumps + 1)
        g[0] = 1.0
        np.cumprod(hazard, out=g[1:])
        # G may reach 0 beyond a horizon; a case past that point belongs
        # only to horizons where the resample fails, so its weight is moot
        inv_g = g[self.case_jumps]
        np.divide(1.0, inv_g, out=inv_g, where=inv_g > 0.0)
        m_case = m[self.case_subjects]
        case_w = m_case * inv_g
        pairs = len(self.sizes)
        mass_out[:] = np.bincount(
            self.mass_keys, weights=np.tile(m, pairs), minlength=self.mass_width
        )
        case_out[:] = np.bincount(
            self.case_keys, weights=np.tile(case_w, pairs), minlength=self.case_width
        )
        k = self.horizons.size
        stats_out[0] = np.cumsum(
            np.bincount(self.case_slot, weights=m_case, minlength=k + 1)
        )[:k]
        # a subject at or beyond the largest horizon is followed to every t0
        stats_out[1] = self.n - np.cumsum(
            np.bincount(self.slot_before, weights=m_before, minlength=k)
        )
        stats_out[2] = g[self.horizon_jumps]

    def accuracy(self, mass, case, g_t0):
        """Per horizon, (AP, AUC) columns per score for a block of rows.

        ``mass`` and ``case`` are block tables written by ``replicate``
        and ``g_t0`` the block's (rows x horizons) G(t0).
        """
        ctrl_w = np.divide(1.0, g_t0, out=np.zeros(g_t0.shape), where=g_t0 > 0.0)
        out = []
        mass_at = case_at = 0
        for k in range(self.horizons.size):
            acc = []
            for size in self.sizes[k * self.n_scores : (k + 1) * self.n_scores]:
                pair = mass[:, mass_at : mass_at + 2 * size]
                ctrl = pair[:, 0::2]
                acc.append(
                    _accuracy(
                        ctrl + pair[:, 1::2],
                        case[:, case_at : case_at + size],
                        ctrl * ctrl_w[:, k, None],
                    )
                )
                mass_at += 2 * size
                case_at += size + 1
            out.append(acc)
        return out


# bytes of segment-mass tables per block of replicates: the AP/AUC kernel
# runs once per block, and the tables stay small beside the cohort
_BLOCK_BYTES = 1 << 20

# why a replicate failed, in the order the reasons are tested
_FAILURE_CAUSES = ("no_case", "zero_censor_survival", "nobody_at_t0", "zero_ap2")


def _replicate_matrices(
    cohort: CohortSample,
    horizons,
    spec: BootstrapSpec,
    estimands: tuple[str, ...],
) -> list[tuple[np.ndarray, dict[str, int]]]:
    """Run every replicate once for all ``horizons``.

    Returns, per horizon in the given order (repeats included), the
    usable rows and the failure count of each cause in
    ``_FAILURE_CAUSES``: no case before t0; the censoring survival
    reaching 0 below t0 (which leaves nobody at t0 as well); nobody
    followed up to t0; an estimand undefined on a usable resample (rAP
    when the score-2 AP is not positive).  Columns follow ``estimands``
    (keys of the estimand table).

    Replicate b draws ``default_rng(SeedSequence(spec.seed).spawn(B)[b])
    .integers(0, n, size=n)``, so the resamples are those of a plain
    per-replicate loop over ``CohortSample.take``, the same for every
    horizon.  Replicates run in blocks whose segment-mass tables fit in
    ``_BLOCK_BYTES``; the AP/AUC kernel runs once per block, horizon and
    score.
    """
    if len(horizons) == 0:
        return []
    table = [_ESTIMANDS[name] for name in estimands]
    n_scores = 2 if _NEEDS_SCORE2.intersection(estimands) else 1
    ranked = _RankedCohort(cohort, horizons, n_scores)
    n, n_reps, n_horizons = cohort.n, spec.replicates, ranked.horizons.size
    values = np.empty((n_horizons, n_reps, len(table)))
    stats = np.empty((n_reps, 3, n_horizons))
    rows = max(1, _BLOCK_BYTES // (8 * (ranked.mass_width + ranked.case_width)))
    mass = np.empty((rows, ranked.mass_width))
    case = np.empty((rows, ranked.case_width))
    children = np.random.SeedSequence(spec.seed).spawn(n_reps)
    for start in range(0, n_reps, rows):
        block = children[start : start + rows]
        for r, child in enumerate(block):
            idx = np.random.default_rng(child).integers(0, n, size=n)
            ranked.replicate(
                np.bincount(idx, minlength=n), mass[r], case[r], stats[start + r]
            )
        stop = start + len(block)
        per_horizon = ranked.accuracy(
            mass[: len(block)], case[: len(block)], stats[start:stop, 2]
        )
        for k, acc in enumerate(per_horizon):
            for e, stat in enumerate(table):
                values[k, start:stop, e] = stat(acc)

    cases, at_t0, g_t0 = stats[:, 0], stats[:, 1], stats[:, 2]
    no_case = cases == 0.0
    zero_g = ~no_case & ~(g_t0 > 0.0)
    nobody = ~no_case & ~zero_g & ~(at_t0 > 0.0)
    usable = ~(no_case | zero_g | nobody)
    results = []
    for k in range(n_horizons):
        defined = ~np.isnan(values[k]).any(axis=1)
        counts = (no_case[:, k], zero_g[:, k], nobody[:, k], usable[:, k] & ~defined)
        causes = dict(zip(_FAILURE_CAUSES, (int(c.sum()) for c in counts)))
        results.append((values[k][usable[:, k] & defined], causes))
    slots = np.searchsorted(ranked.horizons, np.asarray(horizons, dtype=float))
    return [results[k] for k in slots]


def _usable(values: np.ndarray, causes: dict[str, int], total: int):
    """``(values, failed)``; raises when more than 10% of replicates failed."""
    failed = sum(causes.values())
    if failed > 0.1 * total:
        raise TooManyFailedReplicatesError(failed, total, **causes)
    return values, failed


def _replicate_matrix(
    cohort: CohortSample,
    t0: float,
    spec: BootstrapSpec,
    estimands: tuple[str, ...],
) -> tuple[np.ndarray, int]:
    """Run every replicate at one horizon; return the usable rows and the failure count.

    Columns follow ``estimands`` (keys of the estimand table).  A
    replicate fails when its resample cannot be estimated or an
    estimand is undefined on it; failed rows are dropped.
    """
    (result,) = _replicate_matrices(cohort, (t0,), spec, estimands)
    return _usable(*result, spec.replicates)


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


def _bootstrap_horizons(cohort, spec, points: list[tuple[float, dict]]):
    """Summaries per horizon from one joint bootstrap of every horizon.

    ``points`` pairs each horizon with its point estimates, keyed by
    estimand (the same keys at every horizon).  Yields one dict of
    summaries per horizon, in order; a horizon with too many failed
    replicates raises ``TooManyFailedReplicatesError`` once the horizons
    before it have been yielded.
    """
    estimands = tuple(points[0][1]) if points else ()
    results = _replicate_matrices(cohort, [t0 for t0, _ in points], spec, estimands)
    for (t0, point), result in zip(points, results):
        values, failed = _usable(*result, spec.replicates)
        yield {
            name: _summary(name, t0, value, values[:, k], failed, spec.level)
            for k, (name, value) in enumerate(point.items())
        }


def _summaries(cohort, t0, spec, points: dict) -> dict[str, AccuracySummary]:
    """One joint bootstrap of every estimand named in ``points``."""
    return next(_bootstrap_horizons(cohort, spec, [(t0, points)]))


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
    return _summaries(cohort, t0, spec, _paired_points(point))


def _paired_points(point) -> dict[str, float]:
    """``compare_horizon``'s estimates keyed as in the estimand table."""
    return {
        "ap": point.ap1,
        "ap2": point.ap2,
        "rap": point.rap,
        "auc": point.auc1,
        "auc2": point.auc2,
        "dauc": point.dauc,
    }
