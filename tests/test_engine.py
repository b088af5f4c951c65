"""Differential test of the counts-based bootstrap engine.

The engine never materialises a resample.  This file keeps a literal
per-replicate loop as the reference: ``take``, ``validate_horizon``,
``fit_censoring_km``, ``ipcw_weights``, then ``average_precision`` and
``auc``, on the same ``SeedSequence`` children.  The two must agree
within 1e-12 and fail on the same number of replicates, on adversarial
cohorts: all scores tied, events and censorings tied at t0, a single
case, censoring survival reaching 0 at the tail, and n <= 5.  The
engine's reverse Kaplan-Meier curve is telescoped over runs of censoring
jumps with no case between them, as ``fit_censoring_km`` is: the fit must
stay within 1e-12 of a factor-by-factor product, and each replicate's
curve must be, bit for bit, a fit on its materialised resample.

The engine runs one pass for all of a command's horizons: one resample
and one censoring fit per replicate, and the AP/AUC kernel over blocks of
replicates.  At every horizon, repeated or out of order, it must agree
with a one-horizon pass and with the loop within 1e-12, with the same
failures for the same causes, whatever the block size.  The kernel reads
columns that follow from set-up alone (each tie bin's first horizon slot
holding a case), over case sums in case order, and sums each row on its
own, so a replicate's values and the points hold the same bits for any
block budget and any horizon set, rows past ``einsum``'s 8,192-element
buffer included; the two passes agree bit for bit, as they must on a
cohort with no censoring below the largest horizon and on one whose
censoring survival reaches 0 between two horizons.

The engine bins scores into case-anchored segments
(``inference._RankedCohort``): each subject's segment must follow from
its distinct-score group alone, the segment sizes must be those of the
reference's two-sided search (``reference.case_segments_two_sided``),
and the kernel must read the same AP and AUC from those segments as from
one group per distinct score.  The study oracle reads every horizon's AP
from one pass over a score's tie runs (``simulation._oracle_aps``), bit
for bit as the kernel reads it from that horizon's segments.  The engine
keys each subject once per score, at segments anchored at every case
before the largest horizon, and reads every horizon from those fine
segments with whole-number control counts: at each horizon the kernel
must give the bits it gives on that horizon's own segments, and a common
control weight may move AUC only by rounding.  Seeds are spawned one
per draw, so the engine's memory per replicate holds no seed, and each
draw is held once: after set-up the engine holds one float row of
multiplicities, not one per score, and O(cases) per score whatever the
horizon count; a draw's case weights are one row of the block's case
table.  The point row's event rate is the point estimators' bit for bit,
and the point row and the library's AP and AUC are within 1e-14 of an
exact evaluation (``reference.exact_accuracy``) on the same weights, as
is each usable replicate on its materialised resample under its own fit,
and the study oracle's AP with a unit weight per case.
Where a lone top-scored case weighs above 1, the exact AP exceeds 1 and
every point path clips it to 1 exactly.
"""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference
import tdap.inference as inference
from tdap import (
    BootstrapSpec,
    CohortSample,
    TdapError,
    TooManyFailedReplicatesError,
    auc,
    average_precision,
    bootstrap_estimate,
    bootstrap_summary,
    compare_horizon,
    estimate_horizon,
    fit_censoring_km,
    generate_cohort,
    ipcw_weights,
    validate_horizon,
)
from tdap.cli import main
from tdap.simulation import _oracle_aps
from tdap.inference import (
    _FAILURE_CAUSES,
    _PAIRED_ESTIMANDS,
    _RankedCohort,
    _replicate_matrices,
    _replicate_matrix,
)

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def loop_stats(cohort, t0, spec):
    """Materialise every resample and refit it from scratch.

    One dict of every estimand per replicate, or None where the refit
    raises a ``TdapError``.
    """
    out = []
    for child in np.random.SeedSequence(spec.seed).spawn(spec.replicates):
        idx = np.random.default_rng(child).integers(0, cohort.n, size=cohort.n)
        sub = cohort.take(idx)
        try:
            validate_horizon(sub, t0)
            w = ipcw_weights(sub, fit_censoring_km(sub), t0)
            stats = {
                "ap": average_precision(sub, w, t0, score=1),
                "auc": auc(sub, w, t0, score=1),
                "ap2": average_precision(sub, w, t0, score=2),
                "auc2": auc(sub, w, t0, score=2),
            }
        except TdapError:
            out.append(None)
            continue
        stats["rap"] = stats["ap"] / stats["ap2"] if stats["ap2"] > 0.0 else np.nan
        stats["dauc"] = stats["auc"] - stats["auc2"]
        out.append(stats)
    return out


def loop_replicates(stats, estimands):
    """Usable rows and failure count of ``estimands`` from ``loop_stats``."""
    rows = [
        [s[e] for e in estimands]
        for s in stats
        if s is not None and not np.isnan([s[e] for e in estimands]).any()
    ]
    values = np.array(rows, dtype=float).reshape(-1, len(estimands))
    return values, len(stats) - len(rows)


ESTIMAND_SETS = (
    _PAIRED_ESTIMANDS,
    ("ap", "auc"),
    ("ap", "ap2", "rap"),
    ("ap",),
    ("auc",),
)


def assert_engine_matches_loop(cohort, t0, spec, estimand_sets=ESTIMAND_SETS):
    """Compare every estimand set; return the failure count of the last."""
    stats = loop_stats(cohort, t0, spec)
    for estimands in estimand_sets:
        expected, failed = loop_replicates(stats, estimands)
        if failed > 0.1 * spec.replicates:
            with pytest.raises(TooManyFailedReplicatesError) as err:
                _replicate_matrix(cohort, t0, spec, estimands)
            assert (err.value.failed, err.value.total) == (failed, spec.replicates)
            continue
        values, got_failed = _replicate_matrix(cohort, t0, spec, estimands)
        assert got_failed == failed
        assert values.shape == expected.shape
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12)
    return failed


@st.composite
def adversarial_cohorts(draw):
    """A paired cohort estimable at the returned t0, built to be awkward.

    Times come from a five-point grid, so events and censorings tie with
    each other and with t0; scores are all tied, drawn from a few values,
    or distinct.
    """
    n = draw(st.one_of(st.integers(2, 5), st.integers(6, 14)))
    grid = st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0])
    times = draw(st.lists(grid, min_size=n, max_size=n))
    status = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    t0 = draw(st.sampled_from(sorted({t for t in times[1:] if t > 1.0} or {2.0})))
    # subject 0 is an early case, so the full cohort is estimable at t0
    times[0], status[0] = t0 - 1.0, 1.0
    if max(times) < t0:
        times[-1] = t0
    top = max(times)
    single_case = draw(st.booleans())  # every other early subject censored
    zero_tail = draw(st.booleans())  # G reaches 0: the last times are censorings
    for i in range(1, n):
        if (single_case and times[i] < t0) or (zero_tail and times[i] == top):
            status[i] = 0.0

    def scores():
        kind = draw(st.sampled_from(["tied", "few", "distinct"]))
        if kind == "tied":
            return [0.5] * n
        pool = [0.0, 1.0, 2.0] if kind == "few" else [float(v) for v in range(100)]
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))

    cohort = CohortSample(times, status, scores(), scores())
    validate_horizon(cohort, t0)
    return cohort, t0


@SETTINGS
@given(adversarial_cohorts(), st.integers(0, 2**32 - 1))
def test_engine_matches_per_replicate_loop(case, seed):
    cohort, t0 = case
    assert_engine_matches_loop(cohort, t0, BootstrapSpec(replicates=30, seed=seed))


@pytest.mark.parametrize("decimals", [None, 1])
@pytest.mark.parametrize("t0", [0.5, 8.0, 36.0])
def test_engine_matches_loop_on_generated_cohorts(decimals, t0):
    c = generate_cohort(400, 2024)
    s1, s2 = c.score1, c.score2
    if decimals is not None:  # heavy ties, as in a rounded risk score
        s1, s2 = np.round(s1, decimals), np.round(s2, decimals)
    cohort = CohortSample(c.times, c.status, s1, s2)
    assert_engine_matches_loop(cohort, t0, BootstrapSpec(replicates=40, seed=7))


def test_joint_pass_matches_separate_passes_with_some_failures():
    # three cases among nine controls: a few resamples lose every case
    times = np.array([1.0, 1.2, 1.4] + [9.0] * 9)
    coh = CohortSample(times, np.ones(12), np.arange(12.0) % 5, np.arange(12.0))
    spec = BootstrapSpec(replicates=200, seed=37)
    failed = assert_engine_matches_loop(coh, 2.0, spec, [("ap", "auc")])
    assert 0 < failed <= 20
    joint = bootstrap_estimate(coh, 2.0, spec)
    assert joint["ap"] == bootstrap_summary(coh, 2.0, spec, "ap")
    assert joint["auc"] == bootstrap_summary(coh, 2.0, spec, "auc")
    for s in joint.values():
        assert (s.replicates_used, s.replicates_failed) == (200 - failed, failed)


def test_too_many_failures_raise_with_the_loop_counts():
    # a single case among many controls: ~37% of resamples lose it
    times = np.array([1.0] + [9.0] * 11)
    coh = CohortSample(times, np.ones(12), np.arange(12.0), np.arange(12.0)[::-1])
    spec = BootstrapSpec(replicates=100, seed=31)
    failed = assert_engine_matches_loop(coh, 2.0, spec)
    assert failed > 10
    with pytest.raises(TooManyFailedReplicatesError) as err:
        bootstrap_estimate(coh, 2.0, spec)
    assert (err.value.failed, err.value.total) == (failed, 100)


@SETTINGS
@given(adversarial_cohorts())
def test_kernel_point_estimates_match_loop_reference(case):
    cohort, t0 = case
    w = ipcw_weights(cohort, fit_censoring_km(cohort), t0)
    times, status = cohort.times.tolist(), cohort.status.tolist()
    ref_w = reference.ipw_weights(times, status, t0)
    np.testing.assert_allclose(w.weights, ref_w, rtol=0.0, atol=1e-12)
    for s in (1, 2):
        scores = cohort.scores(s).tolist()
        ref_ap = min(1.0, reference.ap_loop(times, scores, t0, ref_w))
        ap = average_precision(cohort, w, t0, score=s)
        assert ap == pytest.approx(ref_ap, abs=1e-12)
        ref_auc = min(1.0, reference.auc_loop(times, scores, t0, ref_w))
        assert auc(cohort, w, t0, score=s) == pytest.approx(ref_auc, abs=1e-12)


def assert_exact(got, want):
    """``got`` within 1e-14 of the exact ``want``, relative; None is NaN."""
    if want is None:
        assert np.isnan(got)
    else:
        assert abs(Fraction(float(got)) - want) <= Fraction(1e-14) * abs(want), (got, float(want))


@SETTINGS
@given(adversarial_cohorts())
@example(  # every case scores below every control: AUC2 is exactly 0
    (
        CohortSample(
            [3.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 4.0, 4.0, 4.0, 1.0, 1.0, 2.0],
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 7.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 7.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0, 1.0],
        ),
        4.0,
    )
)
def test_point_paths_match_the_exact_evaluator(case):
    # the library's AP and AUC and the engine's point row against AP and
    # AUC in exact arithmetic on the same float IPCW weights: ties across
    # cases and controls, censorings at a case's time and at t0, G
    # reaching 0 at the tail
    cohort, t0 = case
    weights = ipcw_weights(cohort, fit_censoring_km(cohort), t0)
    w, early = weights.weights, cohort.times < t0
    ((point, _, _, _),) = _replicate_matrices(
        cohort, [t0], BootstrapSpec(replicates=2, seed=0), _PAIRED_ESTIMANDS
    )
    row = dict(zip(_PAIRED_ESTIMANDS, point))
    for s, ap_key, auc_key in ((1, "ap", "auc"), (2, "ap2", "auc2")):
        groups = reference.exact_groups(cohort.scores(s), w * early, w * ~early)
        ap, value = reference.exact_accuracy(groups)
        assert_exact(average_precision(cohort, weights, t0, score=s), ap)
        assert_exact(row[ap_key], ap)
        assert_exact(row[auc_key], value)
        if value is not None:
            assert_exact(auc(cohort, weights, t0, score=s), value)


@SETTINGS
@given(adversarial_cohorts(), st.integers(0, 2**32 - 1))
def test_replicates_match_the_exact_evaluator(case, seed):
    # each usable replicate's AP and AUC of both scores against exact
    # arithmetic on its materialised resample, weighted by its own fit
    cohort, t0 = case
    spec, estimands = BootstrapSpec(replicates=5, seed=seed), ("ap", "ap2", "auc", "auc2")
    ((_, _, rows, _),) = _replicate_matrices(cohort, [t0], spec, estimands)
    usable = []
    for child in np.random.SeedSequence(seed).spawn(spec.replicates):
        sub = cohort.take(np.random.default_rng(child).integers(0, cohort.n, size=cohort.n))
        try:
            validate_horizon(sub, t0)
            usable.append((sub, ipcw_weights(sub, fit_censoring_km(sub), t0).weights))
        except TdapError:
            continue
    assert len(rows) == len(usable)
    for row, (sub, w) in zip(rows, usable):
        row, early = dict(zip(estimands, row)), sub.times < t0
        for s, ap_key, auc_key in ((1, "ap", "auc"), (2, "ap2", "auc2")):
            ap, value = reference.exact_accuracy(
                reference.exact_groups(sub.scores(s), w * early, w * ~early)
            )
            assert_exact(row[ap_key], ap)
            assert_exact(row[auc_key], value)


@SETTINGS
@given(adversarial_cohorts())
def test_censoring_fit_matches_the_factor_by_factor_product(case):
    # the telescoped product limit against one factor per censoring time,
    # with events tied with censorings and G reaching 0 at the tail; the
    # engine's full-cohort row reads the fit's own bits at the cases and t0
    cohort, t0 = case
    fit = fit_censoring_km(cohort)
    times, status = cohort.times.tolist(), cohort.status.tolist()
    want = np.array(
        [reference.km_censor_survival(times, status, c) for c in np.nextafter(fit.jump_times, 9.0)]
    )
    np.testing.assert_allclose(fit.values, want, rtol=0.0, atol=1e-12)
    assert np.array_equal(fit.values == 0.0, want == 0.0)
    assert ((fit.values >= 0.0) & (fit.values <= 1.0)).all()
    assert (np.diff(fit.values) <= 0.0).all()
    ranked = _RankedCohort(cohort, (t0,), 1)
    stats, case = draw_stats(ranked, np.ones(cohort.n))
    weights = ipcw_weights(cohort, fit, t0).weights[ranked.case_subjects]
    assert case.tobytes() == weights.tobytes()
    assert stats[2, 0] == fit(t0)


def draw_stats(ranked, m):
    """Stats rows of one draw: G(t0) from ``replicate``, then score 1's case
    mass before t0 and the count followed up to t0 from the kernel; and the
    draw's row of the block's case table, one weight per case."""
    mass, case = np.empty((1, ranked.mass_width)), np.empty((1, ranked.case_subjects.size))
    g_t0 = ranked.replicate(m, mass[0], case[0])
    totals = np.array([acc[0][2:] for acc in ranked.accuracy(mass, case)])[:, :, 0]
    return np.vstack([totals.T, g_t0]), case[0]


def assert_replicates_refit(cohort, t0, seed, count=5):
    """G(t0), the drawn cases' weights and their mass before t0 (stats row
    0) of ``count`` replicates, bit for bit those of a fit on each
    materialised resample."""
    ranked = _RankedCohort(cohort, (t0,), 1)
    rng = np.random.default_rng(seed)
    # every case is before the one horizon; its column is its score's rank
    # among the cases' distinct scores, highest first
    anchors = np.unique(-cohort.score1[ranked.case_subjects])
    for _ in range(count):
        idx = rng.integers(0, cohort.n, size=cohort.n)
        m = np.bincount(idx, minlength=cohort.n).astype(float)
        stats, case = draw_stats(ranked, m)
        fit = fit_censoring_km(cohort.take(idx))
        assert stats[2, 0] == fit(t0)
        drawn = m[ranked.case_subjects] > 0.0
        cases = ranked.case_subjects[drawn]
        g = fit(cohort.times[cases])
        weights = m[cases] * np.divide(1.0, g, out=g.copy(), where=g > 0.0)
        assert case[drawn].tobytes() == weights.tobytes()
        # the weights summed by column in case order, then across the columns
        column = np.searchsorted(anchors, -cohort.score1[cases])
        mass = np.bincount(column, weights=weights, minlength=anchors.size).sum()
        assert stats[0].tobytes() == np.float64(mass).tobytes()


def km_layout(times, status, t0):
    """A paired cohort with distinct scores and the given times, and ``t0``."""
    n = len(times)
    return CohortSample(times, status, list(range(n)), list(range(n))[::-1]), t0


@SETTINGS
@given(adversarial_cohorts(), st.integers(0, 2**32 - 1))
# a case and a censoring tied below t0
@example(km_layout([1.0, 2.0, 2.0, 2.0, 4.0, 5.0], [1, 1, 0, 1, 0, 1], 3.0), 7)
# several censorings tied at one time
@example(km_layout([1.0, 2.0, 2.0, 2.0, 3.0, 4.0], [1, 0, 0, 0, 1, 0], 4.0), 7)
# a censoring and a case at exactly t0
@example(km_layout([1.0, 2.0, 3.0, 3.0, 4.0], [1, 0, 0, 1, 0], 3.0), 7)
# no censoring below t0: no jumps, and no subject keyed by one
@example(km_layout([1.0, 2.0, 2.0, 3.0, 4.0], [1, 1, 1, 0, 0], 3.0), 7)
def test_replicate_censoring_survival_is_the_resamples_own_fit(case, seed):
    # a replicate's reverse KM reads runs broken at the cohort's cases;
    # where it drew no case across a break the runs join, so G(t0) and
    # every drawn case's weight are those of a fit on the drawn subjects
    assert_replicates_refit(*case, seed)


@pytest.mark.parametrize("t0", [8.0, 36.0])
def test_replicate_censoring_survival_refits_on_a_generated_cohort(t0):
    # continuous times: hundreds of jumps and runs, where a run that is
    # not joined rounds differently
    assert_replicates_refit(generate_cohort(2000, 31), t0, seed=5, count=20)


def test_a_run_with_nobody_at_risk_keeps_the_nobody_at_t0_cause():
    # the case at 3 ends the reverse KM's first run, so the censoring at 4
    # starts a second one; a resample with nobody at or after 4 has nobody
    # at risk there, and that run's factor is 1: G(t0) stays positive and
    # the resample fails for nobody at t0, not for G at 0
    times = np.array([1.0, 2.0, 3.0, 4.0, 6.0])
    status = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    cohort = CohortSample(times, status, [4, 1, 3, 2, 5], [1, 2, 3, 4, 5])
    ranked = _RankedCohort(cohort, (5.0,), 2)
    stats, _ = draw_stats(ranked, np.array([2.0, 1.0, 2.0, 0.0, 0.0]))
    assert stats[0, 0] == 2.0 + 2.0 * 1.5  # case mass drawn before t0: G(3-) = 2/3
    assert stats[1, 0] == 0.0  # nobody followed up to t0
    assert stats[2, 0] == fit_censoring_km(cohort.take([0, 0, 1, 2, 2]))(5.0) == 2.0 / 3.0
    (causes,) = assert_horizons_match(cohort, [5.0], BootstrapSpec(replicates=200, seed=6))
    assert causes["nobody_at_t0"] > 0


@st.composite
def scored_subjects(draw):
    """Scores (all tied, a few values, or distinct), case flags, a control weight."""
    n = draw(st.integers(1, 25))
    kind = draw(st.sampled_from(["tied", "few", "distinct"]))
    pool = {"tied": [0.5], "few": [-1.0, 0.0, 1.0, 2.0], "distinct": range(200)}[kind]
    scores = draw(st.lists(st.sampled_from([float(v) for v in pool]), min_size=n, max_size=n))
    is_case = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return scores, is_case, draw(st.floats(1.0, 40.0))


@SETTINGS
@given(scored_subjects())
@example(([0.5] * 6, [True, False, True, False, False, True], 3.0))  # all tied
@example(([4.0, 3.0, 2.0, 1.0, 0.0], [True, False, False, False, True], 1.7))  # top and bottom
@example(([3.0, 2.0, 1.0, 0.0], [False, True, False, False], 2.5))  # a single case
@example(([3.0, 3.0, 2.0, 1.0, 0.0], [True, False, True, True, False], 1.1))  # empty gaps
@example(([2.0, 1.0, 1.0], [False, False, False], 1.0))  # no case
def test_case_segments_give_per_score_accuracy(case):
    scores, is_case, ctrl_w = case
    scores, is_case = np.array(scores), np.array(is_case)
    counts, cases, _ = reference.unique_grouping(scores, is_case)
    sizes, seg_cases = reference.case_segments_two_sided(np.sort(scores), scores[is_case])
    h = np.unique(scores[is_case]).size
    assert sizes.size == 2 * h + 1 and sizes.sum() == scores.size
    assert seg_cases.sum() == is_case.sum() and not seg_cases[::2].any()
    # integer masses: bit-identical, NaN included
    full = np.array(reference.group_accuracy(counts, cases, counts - cases))
    anchored = np.array(reference.group_accuracy(sizes, seg_cases, sizes - seg_cases))
    assert anchored.tobytes() == full.tobytes()
    # weighted control masses, as in a bootstrap replicate: gaps sum
    # before weighting, so only rounding may differ
    full = reference.group_accuracy(counts, cases, ctrl_w * (counts - cases))
    anchored = reference.group_accuracy(sizes, seg_cases, ctrl_w * (sizes - seg_cases))
    np.testing.assert_allclose(anchored, full, rtol=0.0, atol=1e-12)


@st.composite
def scores_and_cases(draw):
    """Scores (rounded to 0-2 decimals, or continuous) and case flags."""
    n = draw(st.integers(1, 60))
    scores = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    decimals = draw(st.sampled_from([0, 1, 2, None]))
    if decimals is not None:
        scores = np.round(scores, decimals)
    return scores, draw(st.lists(st.booleans(), min_size=n, max_size=n))


@settings(SETTINGS, max_examples=300)
@given(scores_and_cases())
@example(([0.0, 1.0, 1.0, 1.0, 2.0], [0, 1, 0, 0, 0]))  # ties beyond the case
@example(([0.0, 1.0, 2.0], [1, 0, 1]))  # anchor at the last position
@example(([0.0, 2.0, 2.0], [0, 1, 0]))  # a last run holding a non-case
@example(([-0.0, 0.0, 0.0], [1, 1, 0]))  # signed zeros tie
@example(([0.5, 1.5], [0, 0]))  # no case
def test_ranked_cohort_segments_follow_the_distinct_scores(case):
    scores, is_case = np.asarray(case[0], dtype=float), np.asarray(case[1], dtype=bool)
    n = scores.size
    # cases are events before t0 = 1.5; of the others, every second one is
    # censored before t0 and the rest have events after it
    early = is_case | (np.arange(n) % 2 == 0)
    cohort = CohortSample(np.where(early, 1.0, 2.0), is_case | ~early, scores)
    ranked = _RankedCohort(cohort, (1.5,), 1)
    (first,), (tie,), (keys,) = ranked.first_slot, ranked.case_bin, ranked.mass_keys
    fine = first.size
    slot, segment = np.divmod(keys, fine)
    assert np.array_equal(slot, ~early)
    # one horizon: every case is before it, so the pair reads every
    # anchor's tie bin, the odd segments, and a case's bin is its segment
    assert np.array_equal(np.flatnonzero(first == 0), np.arange(1, fine, 2))
    assert (first[::2] == 1).all()  # no gap holds a case
    assert np.array_equal(ranked.case_subjects, np.flatnonzero(is_case))
    assert (ranked.case_slot == 0).all()
    assert np.array_equal(tie, segment[is_case])
    # a subject's segment counts the case-holding groups above its own
    # twice, plus one when its own group holds a case: [gap, tie, ..., tail]
    _, cases, group = reference.unique_grouping(scores, is_case)
    has_case = (cases > 0).astype(np.intp)
    assert np.array_equal(segment, 2 * np.cumsum(has_case)[group] - has_case[group])
    sizes, _ = reference.case_segments_two_sided(np.sort(scores), scores[is_case])
    assert np.array_equal(np.bincount(segment, minlength=fine), sizes)


@st.composite
def slotted_cases(draw):
    """A score (rounded to 0-2 decimals, or continuous), its cases' positions
    and horizon slots, and the horizon count."""
    n = draw(st.integers(1, 60))
    score = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    decimals = draw(st.sampled_from([0, 1, 2, None]))
    if decimals is not None:
        score = np.round(score, decimals)
    horizons = draw(st.integers(1, 4))
    # a slot of ``horizons`` marks a subject that is a case at no horizon
    slots = draw(st.lists(st.integers(0, horizons), min_size=n, max_size=n))
    pos = [i for i, k in enumerate(slots) if k < horizons]
    return score, pos, [slots[i] for i in pos], horizons


@settings(SETTINGS, max_examples=300)
@given(slotted_cases())
@example((np.array([0.0, 1.0, 1.0, 1.0, 2.0]), [2], [0], 1))  # ties beyond the case
@example((np.array([0.0, 1.0, 2.0]), [2, 0], [0, 0], 1))  # anchor at the last position
@example((np.array([0.0, 2.0, 2.0]), [1], [0], 1))  # a last run holding a non-case
@example((np.array([-0.0, 0.0, 0.0]), [1, 0], [0, 0], 1))  # signed zeros tie
@example((np.array([0.5, 1.5]), [], [], 1))  # no case: NaN
@example((np.array([3.0, 1.0, 2.0, 2.0, 0.0, 1.0]), [0, 2, 3, 5], [1, 0, 2, 1], 3))  # cases in several slots
@example((np.array([2.0, 1.0, 1.0, 0.0]), [1, 2, 3], [1, 3, 1], 4))  # slots 0 and 2 hold no case
def test_oracle_aps_equal_kernel_over_case_segments(case):
    # the study oracle's AP at every horizon, read from one pass over the
    # score's tie runs with no bin built, against the kernel on each
    # horizon's own segments; positions and slots in the oracle's dtypes
    score, pos, slot, horizons = case
    pos = np.array(pos, dtype=np.min_scalar_type(score.size))
    slot = np.array(slot, dtype=np.min_scalar_type(horizons))
    slot_of = {float(k): k for k in range(horizons)}
    got = _oracle_aps([score.copy()], pos, slot, slot_of)
    assert list(got) == list(slot_of)
    for t0, k in slot_of.items():
        sizes, cases = reference.case_segments_two_sided(np.sort(score), score[pos[slot <= k]])
        want = reference.group_accuracy(sizes, cases, sizes - cases)[0]
        assert np.float64(got[t0]).tobytes() == np.float64(want).tobytes()


@settings(SETTINGS, max_examples=300)
@given(slotted_cases())
@example((np.array([0.0, 1.0, 2.0]), [2, 0], [0, 0], 1))  # anchor at the last position
@example((np.array([-0.0, 0.0, 0.0]), [1, 0], [0, 0], 1))  # signed zeros tie
@example((np.array([0.5, 1.5]), [], [], 1))  # no case: NaN
def test_oracle_aps_match_the_exact_evaluator(case):
    # the study oracle's AP at every horizon against exact arithmetic with
    # a unit weight per case
    score, pos, slot, horizons = case
    pos = np.array(pos, dtype=np.intp)
    slot = np.array(slot, dtype=np.intp)
    slot_of = {float(k): k for k in range(horizons)}
    got = _oracle_aps([score.copy()], pos, slot, slot_of)
    for t0, k in slot_of.items():
        cases = np.zeros(score.size)
        cases[pos[slot <= k]] = 1.0
        ap, _ = reference.exact_accuracy(reference.exact_groups(score, cases, 1.0 - cases))
        assert_exact(got[t0], ap)


@pytest.mark.parametrize("decimals", [None, 1])
@pytest.mark.parametrize("t0", [0.5, 8.0, 36.0])
def test_ranked_cohort_bins_are_case_anchored(decimals, t0):
    c = generate_cohort(2000, 99)
    s1, s2 = c.score1, c.score2
    if decimals is not None:
        s1, s2 = np.round(s1, decimals), np.round(s2, decimals)
    cohort = CohortSample(c.times, c.status, s1, s2)
    ranked = _RankedCohort(cohort, (40.0, t0, t0), 2)
    assert ranked.horizons.tolist() == [t0, 40.0]
    n, cases = cohort.n, ranked.case_subjects
    assert np.array_equal(cases, np.flatnonzero((cohort.times < 40.0) & (cohort.status == 1.0)))
    assert ranked.mass_keys.shape == (2, n)  # one key per subject and score
    n_slots = ranked.horizons.size + 1
    fine_groups, mass_at = [], 0
    for s, fine in zip((1, 2), (first.size for first in ranked.first_slot)):
        # fine segments are anchored at every case before the largest horizon
        assert fine == 2 * np.unique(cohort.scores(s)[cases]).size + 1
        keys = ranked.mass_keys[s - 1]
        assert 0 <= keys.min() and keys.max() < n_slots * fine
        slot, group = np.divmod(keys, fine)
        # the slot splits at every horizon: before it, then at or beyond it
        for k, h in enumerate(ranked.horizons):
            assert np.array_equal(slot <= k, cohort.times < h)
        fine_groups.append(group)
        mass_at += n_slots * fine
    assert mass_at == ranked.mass_width
    # set-up holds each case's slot, and per score each case's tie bin and
    # each bin's first slot holding a case: no array per (horizon, score)
    # pair; a case is zeroed at the horizons at or below its time
    assert ranked.case_slot.shape == cases.shape
    for k, h in enumerate(ranked.horizons):
        assert np.array_equal(ranked.case_slot <= k, cohort.times[cases] < h)
    assert len(ranked.case_bin) == len(ranked.first_slot) == 2
    for s in (1, 2):
        group, tie, first = fine_groups[s - 1], ranked.case_bin[s - 1], ranked.first_slot[s - 1]
        fine = first.size
        # a higher score never sits in a later segment
        order = np.argsort(-cohort.scores(s), kind="stable")
        assert (np.diff(group[order]) >= 0).all()
        assert np.array_equal(tie, group[cases])
        assert (tie % 2 == 1).all()  # every case sits in a tie bin
        for k, h in enumerate(ranked.horizons):
            # the pair's columns, the tie bins whose first slot is at most
            # k, are the horizon's own anchors, every column holds one of
            # them, and its own segments are the runs of fine ones between
            hit = np.flatnonzero(first <= k)
            is_case = (cohort.times < h) & (cohort.status == 1.0)
            own_sizes, _ = reference.case_segments_two_sided(
                np.sort(cohort.scores(s)), cohort.scores(s)[is_case]
            )
            ties = np.unique(tie[cohort.times[cases] < h])
            assert np.array_equal(ties, hit)
            assert 2 * ties.size + 1 == own_sizes.size
            edges = np.concatenate(([0], np.column_stack([ties, ties + 1]).ravel(), [fine]))
            below = np.concatenate(([0], np.cumsum(np.bincount(group, minlength=fine))))
            assert np.array_equal(np.diff(below[edges]), own_sizes)


@pytest.mark.parametrize("n_horizons", [1, 3, 20])
def test_subject_keys_do_not_grow_with_the_horizons(n_horizons):
    c = generate_cohort(500, 13)
    cohort = CohortSample(c.times, c.status, np.round(c.score1, 1), c.score2)
    horizons = np.linspace(2.0, 36.0, n_horizons)
    for n_scores in (1, 2):
        ranked = _RankedCohort(cohort, horizons, n_scores)
        assert ranked.mass_keys.shape == (n_scores, cohort.n)
        # per score, one tie bin per case and one first slot per fine
        # segment, whatever the horizon count; each pair reads tie bins
        # only, and the largest horizon every one
        assert len(ranked.case_bin) == len(ranked.first_slot) == n_scores
        assert ranked.case_slot.shape == ranked.case_subjects.shape
        for tie, first in zip(ranked.case_bin, ranked.first_slot):
            assert tie.shape == ranked.case_subjects.shape and first.size % 2 == 1
            for k in range(n_horizons):
                assert (np.flatnonzero(first <= k) % 2 == 1).all()
            assert np.array_equal(np.flatnonzero(first < n_horizons), np.arange(1, first.size, 2))


def segment_masses(score, case_scores, case_mass, ctrl_mass):
    """Subject count, case mass and control mass per case-anchored segment."""
    order = np.argsort(score)
    sizes, _ = reference.case_segments_two_sided(score[order], case_scores)
    group = np.empty(score.size, dtype=np.intp)
    group[order[::-1]] = np.repeat(np.arange(sizes.size), sizes)
    return sizes, *(
        np.bincount(group, weights=m, minlength=sizes.size) for m in (case_mass, ctrl_mass)
    )


@settings(SETTINGS, max_examples=100)
@given(
    adversarial_cohorts(),
    st.lists(st.sampled_from([1.5, 2.0, 3.0, 4.0, 5.0]), min_size=1, max_size=4),
    st.floats(1.0, 40.0),
)
def test_fine_segments_give_each_horizons_own_accuracy(case, extra, ctrl_w):
    # the engine reads every horizon on segments anchored at every case
    # before the largest, with whole-number control counts
    cohort, t0 = case
    horizons = [*extra, t0]
    fit = fit_censoring_km(cohort)
    early_case = (cohort.status == 1.0) & (cohort.times < max(horizons))
    for h in horizons:
        case_mass = ipcw_weights(cohort, fit, h).weights * (cohort.times < h)
        followed = (cohort.times >= h).astype(float)
        for score in (cohort.score1, cohort.score2):
            fine, own = (
                segment_masses(score, score[anchored], case_mass, followed)
                for anchored in (early_case, early_case & (cohort.times < h))
            )
            ap, value = reference.group_accuracy(*fine)
            want = reference.group_accuracy(*own)
            assert np.array([ap, value]).tobytes() == np.array(want).tobytes()
            # AP never reads a weight common to every control; AUC cancels it
            sizes, cases, ctrl = fine
            ap_w, value_w = reference.group_accuracy(sizes, cases, ctrl_w * ctrl)
            assert np.array(ap_w).tobytes() == np.array(ap).tobytes()
            np.testing.assert_allclose(value_w, value, rtol=0.0, atol=1e-12)


@settings(SETTINGS, max_examples=100)
@given(
    adversarial_cohorts(),
    st.lists(st.sampled_from([1.5, 2.0, 3.0, 4.0, 5.0]), min_size=0, max_size=4),
    st.booleans(),
)
@example(  # a cohort whose case masses sum to other bits in subject order
    (
        CohortSample(
            [4.0, 5.0, 4.0, 3.0, 2.0, 5.0, 4.0, 4.0],
            [0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0],
            [4.0, 5.0, 0.0, 2.0, 7.0, 3.0, 1.0, 6.0],
            [3.0, 2.0, 7.0, 5.0, 0.0, 6.0, 1.0, 4.0],
        ),
        5.0,
    ),
    [],
    False,
)
def test_point_row_matches_the_point_estimators(case, extra, at_top):
    # the horizons that pass validation, unsorted and repeated, with the
    # largest time among them when `at_top` is set
    cohort, t0 = case
    top = float(cohort.times.max())
    horizons = [*extra, t0, *([top] if at_top else []), *extra[:1]]
    valid = []
    for h in horizons:
        try:
            validate_horizon(cohort, h)
        except TdapError:
            continue
        valid.append(h)
    spec = BootstrapSpec(replicates=2, seed=0)
    paired = _replicate_matrices(cohort, valid, spec, _PAIRED_ESTIMANDS)
    single = _replicate_matrices(cohort, valid, spec, ("ap", "auc"))
    for h, (point, rate, _, _), (point1, rate1, _, _) in zip(valid, paired, single):
        assert not np.isnan(point).any() and not np.isnan(point1).any()
        want = compare_horizon(cohort, h)
        got = dict(zip(_PAIRED_ESTIMANDS, point.tolist()))
        assert (got["ap"], got["ap2"], got["rap"]) == (want.ap1, want.ap2, want.rap)
        # the controls share 1/G(t0), so both paths read their counts
        assert (got["auc"], got["auc2"], got["dauc"]) == (want.auc1, want.auc2, want.dauc)
        one = estimate_horizon(cohort, h)
        assert (point1[0], point1[1]) == (one.ap, one.auc)
        for r in (rate, rate1):
            assert r == one.event_rate
            assert r == want.event_rate


def loop_causes(cohort, t0, spec):
    """Failure count per cause, from materialised resamples.

    The first cause that applies counts: no case before t0, the
    censoring survival at 0 by t0, nobody followed up to t0.
    """
    causes = dict.fromkeys(_FAILURE_CAUSES, 0)
    for child in np.random.SeedSequence(spec.seed).spawn(spec.replicates):
        sub = cohort.take(np.random.default_rng(child).integers(0, cohort.n, size=cohort.n))
        if not ((sub.times < t0) & (sub.status == 1.0)).any():
            causes["no_case"] += 1
        elif fit_censoring_km(sub)(t0) == 0.0:
            causes["zero_censor_survival"] += 1
        elif not (sub.times >= t0).any():
            causes["nobody_at_t0"] += 1
    return causes


def assert_horizons_match(cohort, horizons, spec, estimand_sets=ESTIMAND_SETS):
    """At each horizon, the shared pass equals a one-horizon pass and the loop.

    Returns the failure causes per horizon of the last estimand set.
    """
    distinct = sorted(set(horizons))
    stats = {t0: loop_stats(cohort, t0, spec) for t0 in distinct}
    expected_causes = {t0: loop_causes(cohort, t0, spec) for t0 in distinct}
    for estimands in estimand_sets:
        multi = _replicate_matrices(cohort, horizons, spec, estimands)
        assert len(multi) == len(horizons)
        for t0, (_, _, values, causes) in zip(horizons, multi):
            assert causes == expected_causes[t0]  # rAP's AP2 is never 0 here
            failed = sum(causes.values())
            expected, loop_failed = loop_replicates(stats[t0], estimands)
            assert failed == loop_failed
            assert values.shape == expected.shape
            np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12)
            if failed > 0.1 * spec.replicates:
                with pytest.raises(TooManyFailedReplicatesError) as err:
                    _replicate_matrix(cohort, t0, spec, estimands)
                assert (err.value.failed, err.value.total) == (failed, spec.replicates)
                assert {c: getattr(err.value, c) for c in _FAILURE_CAUSES} == causes
                continue
            single, single_failed = _replicate_matrix(cohort, t0, spec, estimands)
            assert single_failed == failed
            np.testing.assert_allclose(values, single, rtol=0.0, atol=1e-12)
    return [causes for *_, causes in multi]


@settings(SETTINGS, max_examples=60)
@given(
    adversarial_cohorts(),
    st.lists(st.sampled_from([1.5, 2.0, 3.0, 4.0, 5.0]), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_shared_pass_matches_one_horizon_passes_and_loop(case, extra, seed):
    cohort, t0 = case
    horizons = [*extra, t0, *extra[:1]]  # out of order, and repeated
    assert_horizons_match(cohort, horizons, BootstrapSpec(replicates=20, seed=seed))


def test_censoring_survival_reaching_zero_at_one_horizon_only():
    # resamples without the subject at 8 but with one censored at 6 have
    # G = 0 beyond 6: they fail at t0 = 7 and are fine at t0 = 5.5
    times = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.0, 8.0, 9.0])
    status = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    coh = CohortSample(times, status, [3, 1, 4, 1, 5, 9, 2, 6, 5], [2, 7, 1, 8, 2, 8, 1, 8, 2])
    causes = assert_horizons_match(coh, [7.0, 5.5, 7.0], BootstrapSpec(replicates=150, seed=3))
    assert causes[0]["zero_censor_survival"] > 0
    assert causes[1]["zero_censor_survival"] == 0
    assert causes[0] == causes[2]


def assert_single_horizon_bits(cohort, horizons, spec, estimands=_PAIRED_ESTIMANDS):
    """Each horizon of a shared pass holds the bits of its one-horizon pass."""
    shared = _replicate_matrices(cohort, horizons, spec, estimands)
    for t0, (point, rate, values, causes) in zip(horizons, shared):
        ((single_point, single_rate, single, single_causes),) = _replicate_matrices(
            cohort, (t0,), spec, estimands
        )
        assert point.tobytes() == single_point.tobytes()
        assert rate == pytest.approx(single_rate, rel=0.0, abs=1e-12)
        assert causes == single_causes
        assert values.shape == single.shape and values.tobytes() == single.tobytes()
        if sum(causes.values()) <= 0.1 * spec.replicates:
            assert _replicate_matrix(cohort, t0, spec, estimands)[0].tobytes() == values.tobytes()


def test_no_censoring_below_the_largest_horizon():
    # every subject leaving before 10 is a case: the reverse KM has no
    # jump there, so no run, one bin and no value read but the 1 before it
    rng = np.random.default_rng(41)
    times = np.concatenate([rng.uniform(0.5, 10.0, 30), rng.uniform(10.0, 20.0, 30)])
    status = np.concatenate([np.ones(30), rng.integers(0, 2, 30).astype(float)])
    cohort = CohortSample(times, status, np.round(rng.normal(size=60), 1), rng.normal(size=60))
    horizons = [10.0, 4.0, 10.0]
    ranked = _RankedCohort(cohort, horizons, 2)
    assert ranked.km_width == 1 and ranked.g.tolist() == [1.0]
    spec = BootstrapSpec(replicates=40, seed=17)
    causes = assert_horizons_match(cohort, horizons, spec)
    assert all(c["zero_censor_survival"] == 0 for c in causes)
    assert_single_horizon_bits(cohort, horizons, spec)


def test_censoring_survival_reaching_zero_between_horizons():
    # a resample holding a subject censored at 4 but nobody after it has
    # G = 0 beyond 4: it fails at t0 = 6 but not at 3.5, and the case at 5
    # that it never drew sits where G(X-) = 0
    times = np.array([1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 4.0, 5.0, 8.0])
    status = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    cohort = CohortSample(times, status, [3, 1, 4, 1, 5, 9, 2, 6, 5], np.arange(9.0))
    horizons = [6.0, 3.5, 8.0]
    spec = BootstrapSpec(replicates=100, seed=23)
    causes = assert_horizons_match(cohort, horizons, spec)
    assert causes[0]["zero_censor_survival"] > 0
    assert causes[2]["zero_censor_survival"] >= causes[0]["zero_censor_survival"]
    assert causes[1]["zero_censor_survival"] == 0
    assert_single_horizon_bits(cohort, horizons, spec)


def test_sweep_shaped_cohort_across_horizons():
    # scores rounded to 1 decimal, as in a risk-score sweep; horizons out
    # of order and repeated
    c = generate_cohort(300, 2718)
    cohort = CohortSample(c.times, c.status, np.round(c.score1, 1), np.round(c.score2, 1))
    horizons = [20.0, 5.0, 35.0, 10.0, 30.0, 15.0, 25.0, 10.0, 35.0, 5.0]
    ranked = _RankedCohort(cohort, horizons, 2)
    assert ranked.horizons.size == 7
    # score 1's cases hit a strict subset of the fine anchors' tie bins at
    # the earliest horizon, and every one at the largest
    tie, first = ranked.case_bin[0], ranked.first_slot[0]
    widths = [np.count_nonzero(first <= k) for k in (0, ranked.horizons.size - 1)]
    early = cohort.times[ranked.case_subjects] < ranked.horizons[0]
    hit_first, hit_last = np.unique(tie[early]).size, np.unique(tie).size
    assert 0 < hit_first < hit_last == (first.size - 1) // 2
    assert [hit_first, hit_last] == widths  # each pair's columns are the tie bins it hits
    spec = BootstrapSpec(replicates=20, seed=2024)
    assert_horizons_match(cohort, horizons, spec)
    assert_single_horizon_bits(cohort, horizons, spec)


def test_all_tied_scores_across_horizons():
    c = generate_cohort(200, 8)
    tied = np.full(c.n, 0.5)
    cohort = CohortSample(c.times, c.status, tied, tied)
    assert_horizons_match(cohort, [36.0, 8.0, 36.0], BootstrapSpec(replicates=30, seed=4))


def wide_cohort():
    """12,000 subjects, 9,000 of them cases before 10 with distinct scores,
    so that a row holds more case columns than ``einsum``'s buffer."""
    rng = np.random.default_rng(71)
    times = np.concatenate([rng.uniform(0.1, 10.0, 10_000), rng.uniform(10.0, 20.0, 2_000)])
    status = np.concatenate([np.ones(9_000), np.zeros(1_000), rng.integers(0, 2, 2_000)])
    return CohortSample(times, status, rng.permutation(12_000) / 7.0, rng.normal(size=12_000))


@pytest.mark.parametrize(
    "cohort, t0, horizon_sets, replicates",
    [
        (generate_cohort(2000, 3), 8.0, ([8.0], [8.0, 36.0], [5.0, 8.0, 15.0, 25.0, 36.0]), 30),
        (wide_cohort(), 10.0, ([10.0], [10.0, 15.0], [5.0, 10.0, 15.0]), 4),
    ],
    ids=["generated", "wide"],
)
def test_replicates_depend_on_their_own_resample_alone(
    monkeypatch, cohort, t0, horizon_sets, replicates
):
    # the points, the event rate, the replicate values and the failure
    # causes at t0 hold the same bits for 1-row blocks, blocks of a few
    # rows, one block, and any horizon set around t0
    spec = BootstrapSpec(replicates=replicates, seed=88)
    runs = []
    for horizons in horizon_sets:
        ranked = _RankedCohort(cohort, horizons, 2)
        row_bytes = 8 * (ranked.mass_width + ranked.case_subjects.size)
        for budget in (1, 3 * row_bytes + row_bytes // 2, 1 << 20):
            monkeypatch.setattr(inference, "_BLOCK_BYTES", budget)
            results = _replicate_matrices(cohort, horizons, spec, _PAIRED_ESTIMANDS)
            point, rate, values, causes = results[horizons.index(t0)]
            runs.append((point.tobytes(), rate, values.tobytes(), causes))
    assert sum(runs[0][3].values()) < replicates and all(run == runs[0] for run in runs)


@pytest.mark.parametrize("rows", [1, 7, None])  # None: one block holds every replicate
def test_block_edges(monkeypatch, rows):
    c = generate_cohort(150, 21)
    cohort = CohortSample(c.times, c.status, np.round(c.score1, 1), c.score2)
    horizons = [20.0, 8.0]
    if rows is not None:
        ranked = _RankedCohort(cohort, horizons, 2)
        row_bytes = 8 * (ranked.mass_width + ranked.case_subjects.size)
        # a budget of 1 byte still gives 1-row blocks
        budget = 1 if rows == 1 else rows * row_bytes + row_bytes // 2
        monkeypatch.setattr(inference, "_BLOCK_BYTES", budget)
    # 30 replicates: not a multiple of 7, and below one default block
    assert_horizons_match(cohort, horizons, BootstrapSpec(replicates=30, seed=12))


def test_engine_memory_per_replicate_holds_no_seed(monkeypatch):
    # a SeedSequence child takes about 368 B, so seeds spawned all at once
    # would hold about 368 MB at a million replicates; per block, the
    # output rows are what grows
    cohort = generate_cohort(30, 3)
    ranked = _RankedCohort(cohort, (8.0,), 1)
    row_bytes = 8 * (ranked.mass_width + ranked.case_subjects.size)
    monkeypatch.setattr(inference, "_BLOCK_BYTES", 64 * row_bytes)

    def peak(replicates):
        tracemalloc.start()
        try:
            _replicate_matrices(cohort, (8.0,), BootstrapSpec(replicates, seed=9), ("ap",))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(1200) - peak(200)) / 1000 < 100


def test_engine_set_up_holds_one_row_of_multiplicities():
    # after set-up the engine holds each score's subject keys, the reverse
    # KM's run keys, one float row of multiplicities and O(cases) case
    # slots, tie bins and first slots: 4.59 x 8n for a paired 200k cohort
    # at t0 = 36; a copy of the multiplicities per score would add 1.0 x 8n
    cohort = generate_cohort(200_000, 5)
    tracemalloc.start()
    try:
        ranked = _RankedCohort(cohort, (36.0,), 2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ranked.m.size == cohort.n and held / (8 * cohort.n) <= 5.0


@pytest.mark.parametrize("step", [0.35, 0.1])
def test_engine_set_up_holds_no_array_per_horizon(step):
    # after set-up the engine holds, per score, one tie bin per case and
    # one first slot per fine segment, whatever the horizon count: 4.64
    # and 4.75 x 8n for a paired 20k cohort at 100 and 350 horizons.  One
    # case key per horizon and case before it, with stored columns per
    # (horizon, score) pair, held 35.2 and 112.2 x 8n
    cohort = generate_cohort(20_000, 5)
    _RankedCohort(cohort, (8.0,), 2)  # numpy's lazy imports, outside the trace
    tracemalloc.start()
    try:
        ranked = _RankedCohort(cohort, np.arange(1.0, 36.0, step), 2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ranked.case_slot.shape == ranked.case_subjects.shape
    for tie, first in zip(ranked.case_bin, ranked.first_slot):
        assert tie.shape == ranked.case_subjects.shape and first.size % 2 == 1
    assert held / (8 * cohort.n) <= 6.0
    # each draw's case weights are one row of the block's case table
    _, case = draw_stats(ranked, np.ones(cohort.n))
    assert case.shape == ranked.case_subjects.shape


def test_rap_fails_where_the_score2_ap_is_zero(monkeypatch):
    # an AP is positive whenever a case is drawn, so the kernel is stubbed
    # to give score 2 an AP of 0 on the replicates where score 1's is high
    cohort = generate_cohort(300, 11)
    spec = BootstrapSpec(replicates=40, seed=5)
    horizons = (8.0, 36.0)
    base = _replicate_matrices(cohort, horizons, spec, ("ap", "ap2", "rap"))
    cut = {t0: np.median(values[:, 0]) for t0, (_, _, values, _) in zip(horizons, base)}
    kernel, calls = inference._accuracy, []

    def stub(screened, case, ctrl, hit):
        ap, auc, *totals = kernel(screened, case, ctrl, hit)
        # per block, score 1 at each horizon, then score 2 at each
        j = len(calls) % (2 * len(horizons))
        if j >= len(horizons):  # score 2, whose score 1 came len(horizons) calls back
            t0 = horizons[j - len(horizons)]
            ap = np.where(calls[-len(horizons)] > cut[t0], 0.0, ap)
        calls.append(ap)
        return ap, auc, *totals

    monkeypatch.setattr(inference, "_accuracy", stub)
    got = _replicate_matrices(cohort, horizons, spec, ("ap", "ap2", "rap"))
    for t0, (*_, values, causes), (*_, base_values, base_causes) in zip(horizons, got, base):
        keep = base_values[:, 0] <= cut[t0]
        np.testing.assert_array_equal(values, base_values[keep])
        assert causes == {**base_causes, "zero_ap2": int((~keep).sum())}
        assert causes["zero_ap2"] > 0
    # without rAP, an AP2 of 0 is a value and no replicate fails for it
    calls.clear()
    got = _replicate_matrices(cohort, horizons, spec, ("ap", "ap2"))
    for t0, (*_, values, causes), (*_, base_values, base_causes) in zip(horizons, got, base):
        np.testing.assert_array_equal(values[:, 0], base_values[:, 0])
        assert (values[base_values[:, 0] > cut[t0], 1] == 0.0).all()
        assert causes == base_causes


def test_failure_causes_split_the_failure_count(tmp_path, capsys):
    # six subjects: `tdap estimate --t0 11 --boot 20` loses 5 of 20 resamples
    path = tmp_path / "six.csv"
    path.write_text(
        "time,status,score1\n2,1,0.9\n4,0,0.3\n6,1,0.7\n9,0,0.5\n12,1,0.4\n14,0,0.1\n"
    )
    assert main(["estimate", "--input", str(path), "--t0", "11", "--boot", "20"]) == 2
    assert capsys.readouterr().err == (
        "error: TooManyFailedReplicatesError: 5 of 20 bootstrap replicates failed "
        "(no_case 3, zero_censor_survival 2); results would be unreliable\n"
    )
    cohort = CohortSample([2, 4, 6, 9, 12, 14], [1, 0, 1, 0, 1, 0], [0.9, 0.3, 0.7, 0.5, 0.4, 0.1])
    spec = BootstrapSpec(replicates=20)
    with pytest.raises(TooManyFailedReplicatesError) as err:
        bootstrap_estimate(cohort, 11.0, spec)
    causes = {c: getattr(err.value, c) for c in _FAILURE_CAUSES}
    assert causes == loop_causes(cohort, 11.0, spec)
    assert sum(causes.values()) == err.value.failed == 5
    assert causes["zero_censor_survival"] > 0 and causes["no_case"] > 0


def test_ap_is_clipped_where_a_case_weighs_above_1(tmp_path):
    # eight censorings at 1.0-1.7 leave 3 of 11 at risk, so the case at 4,
    # with the top score, weighs 11/3 at t0 = 5.5: its precision, and so
    # the unclipped AP, is 11/3, and every path clips it to 1
    times = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 4.0, 6.0, 7.0]
    status = [0] * 8 + [1, 0, 0]
    scores = [float(s) for s in range(8)] + [10.0, 8.0, 9.0]
    cohort, t0, rate = CohortSample(times, status, scores), 5.5, 0.33333333333333337
    unclipped = reference.ap_loop(times, scores, t0, reference.ipw_weights(times, status, t0))
    assert unclipped == pytest.approx(11.0 / 3.0, rel=1e-15)
    weights = ipcw_weights(cohort, fit_censoring_km(cohort), t0)
    # the exact evaluator reads 11/3 unclipped: within 1e-14 on the float
    # weights, and exactly on the exact ones (G(4-) = 3/11), and 1 clipped
    early = cohort.times < t0
    groups = reference.exact_groups(scores, weights.weights * early, weights.weights * ~early)
    assert_exact(reference.exact_accuracy(groups, clip=False)[0], Fraction(11, 3))
    assert reference.exact_accuracy(groups)[0] == 1
    exact = [Fraction(11, 3) if t == 4.0 else 0 for t in times]
    groups = reference.exact_groups(scores, exact, [0] * 9 + [Fraction(11, 3)] * 2)
    assert reference.exact_accuracy(groups, clip=False)[0] == Fraction(11, 3)
    assert average_precision(cohort, weights, t0) == 1.0
    estimates = estimate_horizon(cohort, t0)
    assert (estimates.ap, estimates.event_rate) == (1.0, rate)
    ((point, point_rate, _, _),) = _replicate_matrices(cohort, [t0], BootstrapSpec(2), ("ap",))
    assert (point[0], point_rate) == (1.0, rate)
    # seed 0 draws the case and a subject followed to t0 in both replicates
    path, out_json = tmp_path / "clip.csv", tmp_path / "clip.json"
    path.write_text("time,status,score1\n" + "".join(
        f"{t},{s},{z}\n" for t, s, z in zip(times, status, scores)
    ))
    argv = ["estimate", "--input", str(path), "--t0", "5.5", "--boot", "2", "--seed", "0"]
    assert main(argv + ["--json", str(out_json)]) == 0
    (row,) = json.loads(out_json.read_text())["results"]
    assert (row["ap"], row["event_rate"]) == (1.0, rate)


@st.composite
def clip_cohorts(draw):
    """The 11-subject clip example, drawn: k censorings, a case with the
    top score after them, and m subjects followed to t0.  The censorings
    leave the case weighing 1/G(X) > 1, and as the lone case, alone at the
    top score, its precision, and so the unclipped AP, is that weight."""
    k, m = draw(st.integers(1, 10)), draw(st.integers(1, 6))
    censored = draw(st.lists(st.sampled_from([1.0, 1.25, 1.5, 1.75]), min_size=k, max_size=k))
    case_time, t0 = draw(st.sampled_from([2.0, 2.5, 3.0])), draw(st.sampled_from([3.5, 4.0, 5.5]))
    followed = draw(st.lists(st.sampled_from([t0, t0 + 0.5, 7.0]), min_size=m, max_size=m))
    status = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=m, max_size=m))
    scores = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=k + m, max_size=k + m))
    return (
        CohortSample(
            censored + [case_time] + followed,
            [0.0] * k + [1.0] + status,
            scores[:k] + [10.0] + scores[k:],
        ),
        t0,
    )


@SETTINGS
@given(clip_cohorts())
def test_the_clip_binds_on_a_lone_top_case_weighed_above_1(case):
    # the exact evaluator reads AP > 1 unclipped on the float weights, and
    # the library, estimate_horizon and the engine's point row read 1
    cohort, t0 = case
    weights = ipcw_weights(cohort, fit_censoring_km(cohort), t0)
    w, early = weights.weights, cohort.times < t0
    groups = reference.exact_groups(cohort.score1, w * early, w * ~early)
    assert reference.exact_accuracy(groups, clip=False)[0] > 1
    assert average_precision(cohort, weights, t0) == 1.0
    assert estimate_horizon(cohort, t0).ap == 1.0
    ((point, _, _, _),) = _replicate_matrices(cohort, [t0], BootstrapSpec(2), ("ap",))
    assert point[0] == 1.0
