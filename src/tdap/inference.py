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
horizon of a command.  The cohort is ranked once and a replicate is its
multiplicity vector: how often each subject was drawn.  Draw 0 is the
full cohort, which draws each subject once, and every bootstrap, the
command line's and the library's, reads its points from that row.  Each
draw is held once, as one float row, and its reverse Kaplan-Meier curve
fitted once, for all horizons; resample validity, G(t0) and the
segmented case, control and count masses are ``bincount``/``cumsum``
passes over fixed ranks.  The reverse Kaplan-Meier fit takes the
telescoped form of ``fit_censoring_km`` over runs of censoring jumps,
each ended where G is read or a case splits them: one ``bincount`` and
one running sum give every run's at-risk counts, and G and 1/G are
formed only at the cases' own times and the horizons.

A segment is a score group holding a case of the full cohort, or one run
of caseless groups between two such groups, so there are 2h + 1 bins per
score for h distinct case scores rather than one per distinct score.
Each score is sorted once, and both edges of each distinct case score's
tie run are searched in it.  Each subject is keyed once per score: its
fine segment, anchored at every case before the largest horizon, and its
horizon slot, the number of horizons at or below its time.  A
replicate's subject counts fill one slot-by-segment table per score, and
its case weights one row of the block's case table.  Per block of draws,
running sums over the slot axis give every horizon's count at or beyond
t0, one ``bincount`` per horizon and score sums each anchor's case
weights with the cases at or beyond t0 zeroed, and the point estimators'
AP/AUC kernel reads AP, AUC and the total case and control masses (score
1's give the event rate) at the tie bins of the anchors holding a case
before t0.  Every control at t0 weighs 1/G(t0): AP never reads the
controls and the weight cancels in AUC, so the kernel reads the
whole-number counts.  A horizon's own segments are contiguous unions of
the fine ones, and prefix sums of whole numbers are exact, so AP is bit
for bit what the horizon's own segments give and AUC moves only by
rounding.  A zeroed case adds an exact 0 and the kernel sums each row on
its own, so a draw's values, the event rate included, depend on its
resample alone, not on the block budget or the horizon set.  Each draw
spawns its own child seed, so memory does not grow with the replicate
count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .censoring import WeightVector, _product_limit
from .censoring import fit_censoring_km, ipcw_weights  # bench/spans.py wraps both here
from .cohort import CohortSample, _is_integer, _is_real, validate_horizon
from .errors import _FAILURE_CAUSES, TooManyFailedReplicatesError
from .estimators import _accuracy, _check_weights, _event_rate, _ratio
from .estimators import auc, average_precision  # bench/spans.py wraps both here

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

# estimand -> its column over a block of resamples, given acc[s] = the
# kernel's (AP, AUC, ...) columns of score s + 1; a NaN marks a failure
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
    largest horizon, and G is read only just after the last jump below
    each case time and each horizon.  The curve takes the telescoped
    form of ``censoring._product_limit``: the jumps fall into runs with
    no case of the cohort between them, inside which only censored
    subjects leave the risk set, so a run's factors multiply out to
    E / S, the counts at risk just after its last jump and at its first.
    Every jump G is read after ends a run, so G is read only at run ends
    (``case_g`` and ``horizon_g`` count the run ends below each time).
    The runs' counts S_0, E_0, S_1, E_1, ... fall, and every subject is
    at risk for a prefix of them, so each is keyed once by how many it
    misses (``km_keys``), and one ``bincount`` and a running sum give
    every S and E of a replicate, whole numbers and so exact.  A run
    whose splitting cases the replicate never drew joins the next, by an
    exact factor of 1, as a run ended only for a read always does; so the
    runs are those of the resample's own cases and G is
    ``fit_censoring_km`` on the materialised resample bit for bit; on
    the full cohort it is the cohort's own fit, so the point row's AP is
    ``estimate_horizon``'s.

    Each score is keyed once per subject.  Its fine segments are anchored
    at every case before the largest horizon (a resample's cases are
    among the cohort's, so the anchors hold for every replicate).  With h
    anchors (distinct case scores) the layout, highest score first, is
    ``[gap_0, tie_0, ..., gap_{h-1}, tie_{h-1}, tail]``: ``tie_k`` holds
    the subjects tied at anchor k, between the edges that ``searchsorted``
    finds on either side of it in the sorted score, and ``gap_k`` those
    strictly between anchors k - 1 and k; with no case, one segment holds
    everybody.  The kernel reads cumulative masses only at groups holding
    case mass, so merging each run of caseless groups changes no result.
    The table crosses the fine segments with the horizon slots: a
    subject's slot is the number of horizons at or below its time, so it
    is followed less than horizon k exactly when its slot is at most k.
    Horizon k reads the tie bins whose first slot holding a case is at most
    k (``first_slot``, with each case's tie bin in ``case_bin``), the same
    columns for every replicate.  A horizon's own segments are contiguous
    unions of the fine ones, so the kernel reads the same columns and, the
    counts being whole numbers, the same prefix sums.  A replicate's
    ``bincount`` passes run over fixed keys (the reverse KM's run keys and
    each score's subject keys) and read one float row of multiplicities,
    allocated here; no array as long as the censoring jumps is built per
    replicate, and set-up holds O(cases) per score whatever the horizon
    count.
    """

    def __init__(self, cohort: CohortSample, horizons, n_scores: int):
        self.horizons = np.unique(np.asarray(horizons, dtype=float))
        times = cohort.times
        early = times < self.horizons[-1]
        is_case = cohort.status == 1.0
        n = cohort.n
        self.case_subjects = np.flatnonzero(early & is_case)
        case_times = times[self.case_subjects]
        censored = np.flatnonzero(early & ~is_case)
        jumps, jump_of = np.unique(times[censored], return_inverse=True)
        # a run ends at the last jump at or below each case time (jump
        # ``at_or_below - 1``), at the last jump strictly below each case
        # time and each horizon, where G is read, and at the last jump; a
        # resample's cases are among the cohort's, so its own runs are
        # unions of these.  ``ends[k]`` counts the run ends among the first
        # k jumps
        below = np.searchsorted(jumps, case_times, side="left")
        at_or_below = np.searchsorted(jumps, case_times, side="right")
        horizon_below = np.searchsorted(jumps, self.horizons, side="left")
        ends = np.zeros(jumps.size + 1, dtype=np.intp)
        for k in (at_or_below, below, horizon_below, jumps.size):
            ends[k] = 1
        ends[0] = 0  # no jump below
        np.cumsum(ends, out=ends)
        n_runs = ends[-1]
        # run r's counts are entries 2r (S, at its first jump) and 2r + 1
        # (E, after its end) of one falling sequence of 2R (R = ``n_runs``),
        # and every subject is in a prefix of it: a key counts the entries
        # a subject misses, so one running sum over the keys gives every
        # entry, last first.  A subject censored in run r misses
        # 2(R - r) - 1, a case 2(R - r - 1) where run r is the last to end
        # at or below its time (2R where none does), and a subject followed
        # to the largest horizon none
        self.km_width = 2 * n_runs + 1
        self.km_keys = np.zeros(n, dtype=np.intp)
        self.km_keys[censored] = 2 * (n_runs - ends[jump_of]) - 1
        self.km_keys[self.case_subjects] = 2 * (n_runs - ends[at_or_below])
        # G just after the last run end below a time, 1 before the first
        self.case_g, self.horizon_g = ends[below], ends[horizon_below]
        self.g = np.ones(n_runs + 1)
        # horizons at or below each time: subject i is followed less than
        # horizon k exactly when its slot is at most k
        slot = np.searchsorted(self.horizons, times, side="right")
        slot_type = np.min_scalar_type(self.horizons.size)
        self.case_slot = slot[self.case_subjects].astype(slot_type)
        # per score, the subject -> (slot, fine segment) keys, each case's
        # tie bin and each fine segment's first horizon slot holding a case
        # (the horizon count for the gaps): horizon k reads the bins whose
        # first slot is at most k, the same columns for every replicate
        self.case_bin, self.first_slot = [], []
        self.mass_keys = np.empty((n_scores, n), dtype=np.intp)
        for s in range(n_scores):
            score = cohort.scores(s + 1)
            order = np.argsort(score)
            sorted_score = score[order]
            anchors = np.unique(score[self.case_subjects])
            # segment edges in ascending score order: 0, the left and right
            # edges of each anchor's tie run, n
            edges = np.empty(2 * anchors.size + 2, dtype=np.intp)
            edges[0], edges[-1] = 0, n
            edges[1:-1:2] = np.searchsorted(sorted_score, anchors, side="left")
            edges[2:-1:2] = np.searchsorted(sorted_score, anchors, side="right")
            sizes = np.diff(edges)[::-1]
            group = np.empty(n, dtype=np.intp)
            group[order[::-1]] = np.repeat(np.arange(sizes.size), sizes)
            self.mass_keys[s] = slot * sizes.size + group
            tie = group[self.case_subjects]
            first = np.full(sizes.size, self.horizons.size, dtype=slot_type)
            np.minimum.at(first, tie, self.case_slot)
            self.case_bin.append(tie)
            self.first_slot.append(first)
        self.mass_width = (self.horizons.size + 1) * sum(f.size for f in self.first_slot)
        self.m = np.empty(n)  # the multiplicities as floats, read by every subject ``bincount``

    def replicate(self, m, mass_out, case_out, stats_out) -> None:
        """Write the resample with multiplicities ``m`` into row buffers.

        ``mass_out`` receives the slot-by-fine-segment subject counts of
        each score and ``case_out`` the weight of every case, in case
        order.  Row 2 of ``stats_out`` receives G(t0) per horizon;
        ``accuracy`` fills rows 0 and 1.  A drawn case is at risk at
        every censoring jump below its time, so its weight is >= 1.

        The reverse KM is one weighted ``bincount`` over every subject's
        run key and a running sum, whose every other entry from the end
        gives each run's E and S, then ``censoring._product_limit``: one
        divide per run and a ``cumprod`` over the runs.  The counts are
        whole numbers, so E and S are exact and G is bit for bit a fit on
        the materialised resample; a run with nobody at risk has factor
        1, so a resample with nobody left there keeps G > 0 and fails for
        nobody at t0.
        Each case weight is ``m * (1 / G)``, with 0 where G is 0.
        """
        self.m[:] = m
        m = self.m
        beyond = np.add.accumulate(
            np.bincount(self.km_keys, weights=m, minlength=self.km_width)
        )
        g = self.g
        _product_limit(beyond[-3::-2], beyond[-2::-2], g[1:])
        # G may reach 0 beyond a horizon; a case past that point belongs
        # only to horizons where the resample fails, so its weight is moot
        inv_g = g[self.case_g]
        np.divide(1.0, inv_g, out=inv_g, where=inv_g > 0.0)
        np.multiply(m[self.case_subjects], inv_g, out=case_out)
        k, at = self.horizons.size, 0
        for keys, first in zip(self.mass_keys, self.first_slot):
            width = (k + 1) * first.size
            mass_out[at : at + width] = np.bincount(keys, weights=m, minlength=width)
            at += width
        stats_out[2] = g[self.horizon_g]

    def accuracy(self, mass, case, stats_out):
        """Per horizon, the kernel's four columns per score for a block of rows.

        ``mass`` and ``case`` are block tables written by ``replicate``.
        Rows 0 and 1 of ``stats_out`` receive, per horizon, the kernel's
        totals for score 1: the case mass before t0, 0 exactly when no
        case before t0 was drawn, and the count followed up to t0.

        Per score, the doubled screened count is formed once, and the
        count at or beyond t0 is a running sum over the slot axis of its
        table, exact in whole numbers.  The kernel reads the latter as
        the control masses: every control's weight is 1/G(t0), which AP
        never reads and which cancels in AUC up to rounding.  A pair's
        case columns are one ``bincount`` of the block's case rows keyed
        ``row * fine segments + tie bin``, the cases at or beyond t0 set
        to +0.0, taken at the tie bins whose first slot is at most k: a
        zero adds nothing, so each is its cases' in-order sum.
        """
        rows, k_count = mass.shape[0], self.horizons.size
        # per score: its (rows, slots, fine segments) table, the doubled
        # screened count, the count at or beyond t0 (every subject at
        # first), each case weight's key and each bin's first slot
        scores, mass_at = [], 0
        for tie, first in zip(self.case_bin, self.first_slot):
            size = first.size
            width = (k_count + 1) * size
            table = mass[:, mass_at : mass_at + width].reshape(rows, k_count + 1, size)
            beyond = table.sum(axis=1)
            keys = (size * np.arange(rows)[:, None] + tie).ravel()
            scores.append((table, 2.0 * np.cumsum(beyond, axis=1) - beyond, beyond, keys, first))
            mass_at += width
        out = []
        for k in range(k_count):
            # every case is before the largest horizon
            weights = case if k == k_count - 1 else np.where(self.case_slot <= k, case, 0.0)
            weights, acc = weights.ravel(), []
            for table, screened, beyond, keys, first in scores:
                np.subtract(beyond, table[:, k], out=beyond)
                hit = (first <= k).nonzero()[0]
                sums = np.bincount(keys, weights, minlength=rows * first.size)
                # row-major; ``[:, hit]`` copies column-major, and row sums change
                columns = sums.reshape(rows, first.size).take(hit, axis=1)
                acc.append(_accuracy(screened, columns, beyond, hit))
            stats_out[:, 0, k], stats_out[:, 1, k] = acc[0][2:]  # score 1's totals
            out.append(acc)
        return out


# bytes of segment-mass tables and case rows per block, the AP/AUC kernel's
# unit: a block holds max(1, budget // row bytes) rows, so a row over it runs alone
_BLOCK_BYTES = 1 << 20


def _replicate_matrices(
    cohort: CohortSample,
    horizons,
    spec: BootstrapSpec,
    estimands: tuple[str, ...],
) -> list[tuple[np.ndarray, float, np.ndarray, dict[str, int]]]:
    """Run the full cohort and every replicate once for all ``horizons``.

    Returns, per horizon in the given order (repeats included), the
    point row, the event rate, the usable rows and the failure count of
    each cause in ``_FAILURE_CAUSES``: no case before t0; the censoring
    survival reaching 0 below t0 (which leaves nobody at t0 as well);
    nobody followed up to t0; an estimand undefined on a usable resample
    (rAP when the score-2 AP is not positive).  Columns follow
    ``estimands`` (keys of the estimand table).

    One block loop runs draws 0..B.  Draw 0, the full cohort, is the
    point row; a row's values depend on its own draw alone, so its AP,
    AP2 and rAP are bit for bit ``compare_horizon``'s in any block, never
    NaN at a valid horizon, and its event rate, score 1's kernel total
    case mass before t0 over n, clipped into [0, 1], is theirs too.

    Draw b >= 1 spawns one child as it is drawn; a ``SeedSequence``
    numbers its children on from its last ``spawn``, so the draw is
    ``default_rng(SeedSequence(spec.seed).spawn(B)[b - 1]).integers(0,
    n, size=n)``, the resample of a plain loop over ``CohortSample.take``.
    Draws fill blocks ``[0, rows)``, ``[rows, 2 rows)`` and so on,
    ``rows = max(1, _BLOCK_BYTES // row bytes)`` (the mass table and one
    weight per case), so a row over the budget runs alone (one of a
    paired 2M cohort at t0 = 36 is 10.7 MB); the case ``bincount`` and
    the AP/AUC kernel run once per block, horizon and score.
    """
    if len(horizons) == 0:
        return []
    table = [_ESTIMANDS[name] for name in estimands]
    n_scores = 2 if _NEEDS_SCORE2.intersection(estimands) else 1
    ranked = _RankedCohort(cohort, horizons, n_scores)
    n, n_reps, n_horizons = cohort.n, spec.replicates, ranked.horizons.size
    rows = max(1, _BLOCK_BYTES // (8 * (ranked.mass_width + ranked.case_subjects.size)))
    mass = np.empty((rows, ranked.mass_width))
    case = np.empty((rows, ranked.case_subjects.size))
    values = np.empty((n_horizons, 1 + n_reps, len(table)))
    stats = np.empty((1 + n_reps, 3, n_horizons))
    seeds = np.random.SeedSequence(spec.seed)
    for start in range(0, 1 + n_reps, rows):
        stop = min(start + rows, 1 + n_reps)
        for b in range(start, stop):
            if b == 0:
                m = np.ones(n)
            else:
                (child,) = seeds.spawn(1)
                idx = np.random.default_rng(child).integers(0, n, size=n)
                m = np.bincount(idx, minlength=n)
            ranked.replicate(m, mass[b - start], case[b - start], stats[b])
        block = stop - start
        per_horizon = ranked.accuracy(mass[:block], case[:block], stats[start:stop])
        for k, acc in enumerate(per_horizon):
            for e, stat in enumerate(table):
                values[k, start:stop, e] = stat(acc)

    cases, at_t0, g_t0 = stats[1:, 0], stats[1:, 1], stats[1:, 2]
    no_case = cases == 0.0
    zero_g = ~no_case & ~(g_t0 > 0.0)
    nobody = ~no_case & ~zero_g & ~(at_t0 > 0.0)
    usable = ~(no_case | zero_g | nobody)
    results = []
    for k in range(n_horizons):
        point, replicates = values[k, 0].copy(), values[k, 1:]
        defined = ~np.isnan(replicates).any(axis=1)
        counts = (no_case[:, k], zero_g[:, k], nobody[:, k], usable[:, k] & ~defined)
        causes = dict(zip(_FAILURE_CAUSES, (int(c.sum()) for c in counts)))
        rows_k = replicates[usable[:, k] & defined]
        results.append((point, _event_rate(stats[0, 0, k], n), rows_k, causes))
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
    ((_, _, values, causes),) = _replicate_matrices(cohort, (t0,), spec, estimands)
    return _usable(values, causes, spec.replicates)


def _single_estimand(estimand: str, score: int) -> str:
    if estimand not in _SINGLE_ESTIMANDS:
        raise ValueError(
            f"estimand must be one of {_SINGLE_ESTIMANDS}, got {estimand!r}"
        )
    if not (_is_integer(score) and score in (1, 2)):
        raise ValueError(f"score selector must be 1 or 2, got {score!r}")
    return estimand if score == 1 else estimand + "2"


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


def _bootstrap_horizons(cohort, spec, horizons, estimands):
    """Event rate and summaries per horizon from one pass of every horizon.

    The points are the pass's own full-cohort row.  Yields one
    ``(event_rate, summaries)`` pair per horizon, in order, summaries
    keyed by estimand; a horizon with too many failed replicates raises
    ``TooManyFailedReplicatesError`` once the horizons before it have
    been yielded.  Every horizon must pass ``validate_horizon``.
    """
    alpha = 1.0 - spec.level
    results = _replicate_matrices(cohort, horizons, spec, estimands)
    for t0, (point, rate, values, causes) in zip(horizons, results):
        values, failed = _usable(values, causes, spec.replicates)
        summaries = {}
        for k, name in enumerate(estimands):
            lower, upper = np.quantile(values[:, k], [alpha / 2.0, 1.0 - alpha / 2.0])
            summaries[name] = AccuracySummary(
                estimand=name,
                t0=float(t0),
                point=float(point[k]),
                lower=float(lower),
                upper=float(upper),
                se=float(np.std(values[:, k], ddof=1)),
                replicates_used=int(values.shape[0]),
                replicates_failed=int(failed),
            )
        yield rate, summaries


def _bootstrap_at(cohort, t0, spec, estimands, weights=None) -> dict[str, AccuracySummary]:
    """Summaries at one horizon; raises on the horizon, then on ``weights``."""
    validate_horizon(cohort, t0)
    if weights is not None:
        _check_weights(cohort, weights, t0)
    ((_, summaries),) = _bootstrap_horizons(cohort, spec, [t0], estimands)
    return summaries


def bootstrap_summary(
    cohort: CohortSample,
    t0: float,
    spec: BootstrapSpec,
    estimand: str = "ap",
    score: int = 1,
    threads: int = 1,
) -> AccuracySummary:
    """Point estimate on the original cohort plus percentile CI and SE.

    The summary is labelled ``estimand`` ("ap" or "auc") for either
    score.  ``threads`` is accepted for compatibility; runs are
    single-threaded.
    """
    name = _single_estimand(estimand, score)
    return replace(_bootstrap_at(cohort, t0, spec, (name,))[name], estimand=estimand)


def bootstrap_estimate(
    cohort: CohortSample,
    t0: float,
    spec: BootstrapSpec,
    weights: WeightVector | None = None,
) -> dict[str, AccuracySummary]:
    """AP and AUC of score 1 from one joint bootstrap.

    Both estimands are computed on the same resamples, so one pass of
    ``spec.replicates`` gives exactly what two :func:`bootstrap_summary`
    calls give, and exactly what ``tdap estimate`` gives.  ``weights``
    is accepted and checked; the point is the IPCW estimate that every
    replicate refits.  Keys: ``ap``, ``auc``.
    """
    return _bootstrap_at(cohort, t0, spec, _SINGLE_ESTIMANDS, weights)


def bootstrap_compare(
    cohort: CohortSample,
    t0: float,
    spec: BootstrapSpec,
    threads: int = 1,
    weights: WeightVector | None = None,
) -> dict[str, AccuracySummary]:
    """Joint bootstrap of both scores' AP, AUC, their ratio and difference.

    All six estimands are computed on the same resamples, so the paired
    quantities stay internally consistent, and the numbers are exactly
    what ``tdap compare`` gives.  ``weights`` is accepted and checked;
    the point is the IPCW estimate that every replicate refits.
    ``threads`` is accepted for compatibility; runs are single-threaded.
    Keys: ``ap``, ``ap2``, ``rap``, ``auc``, ``auc2``, ``dauc``.
    """
    return _bootstrap_at(cohort, t0, spec, _PAIRED_ESTIMANDS, weights)
