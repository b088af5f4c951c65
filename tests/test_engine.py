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
failures for the same causes, whatever the block size.  When one block
holds every replicate, the two passes agree bit for bit, as they must on
a cohort with no censoring below the largest horizon and on one whose
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
multiplicities, not one per score.
"""

import tracemalloc

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
from tdap.estimators import _accuracy
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
    stats = np.empty((3, 1))
    ranked.replicate(np.ones(cohort.n), np.empty(ranked.mass_width), np.empty(ranked.case_width), stats)
    weights = ipcw_weights(cohort, fit, t0).weights[ranked.case_subjects]
    assert ranked.case_weights[0].tobytes() == weights.tobytes()
    assert stats[2, 0] == fit(t0)


def assert_replicates_refit(cohort, t0, seed, count=5):
    """G(t0), the drawn cases' weights and their mass before t0 (stats row
    0) of ``count`` replicates, bit for bit those of a fit on each
    materialised resample."""
    ranked = _RankedCohort(cohort, (t0,), 1)
    stats = np.empty((3, 1))
    rng = np.random.default_rng(seed)
    for _ in range(count):
        idx = rng.integers(0, cohort.n, size=cohort.n)
        m = np.bincount(idx, minlength=cohort.n).astype(float)
        ranked.replicate(m, np.empty(ranked.mass_width), np.empty(ranked.case_width), stats)
        fit = fit_censoring_km(cohort.take(idx))
        assert stats[2, 0] == fit(t0)
        drawn = m[ranked.case_subjects] > 0.0
        g = fit(cohort.times[ranked.case_subjects[drawn]])
        weights = m[ranked.case_subjects[drawn]] * np.divide(1.0, g, out=g.copy(), where=g > 0.0)
        assert ranked.case_weights[0][drawn].tobytes() == weights.tobytes()
        # the running sum over the horizon slots (here 0 before t0, 1 after)
        slot = (cohort.times[ranked.case_subjects[drawn]] >= t0).astype(np.intp)
        mass = np.cumsum(np.bincount(slot, weights=weights, minlength=2))[:1]
        assert stats[0].tobytes() == mass.tobytes()


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
    stats = np.empty((3, 1))
    m = np.array([2.0, 1.0, 2.0, 0.0, 0.0])
    ranked.replicate(m, np.empty(ranked.mass_width), np.empty(ranked.case_width), stats)
    assert stats[0, 0] == 2.0 + 2.0 * 1.5  # case mass drawn before t0: G(3-) = 2/3
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
    full = np.array(_accuracy(counts, cases, counts - cases))
    anchored = np.array(_accuracy(sizes, seg_cases, sizes - seg_cases))
    assert anchored.tobytes() == full.tobytes()
    # weighted control masses, as in a bootstrap replicate: gaps sum
    # before weighting, so only rounding may differ
    full = _accuracy(counts, cases, ctrl_w * (counts - cases))
    anchored = _accuracy(sizes, seg_cases, ctrl_w * (sizes - seg_cases))
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
    (fine,) = ranked.fine_sizes
    (keys,) = ranked.mass_keys
    slot, segment = np.divmod(keys, fine)
    assert np.array_equal(slot, ~early)
    assert np.array_equal(ranked.case_keys, segment[is_case])
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
        want = _accuracy(sizes, cases, sizes - cases)[0]
        assert np.float64(got[t0]).tobytes() == np.float64(want).tobytes()


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
    for s, fine in zip((1, 2), ranked.fine_sizes):
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
    pairs = [(h, s) for h in ranked.horizons for s in (1, 2)]
    # every pair's case keys span its score's fine segments and a spare bin
    assert ranked.case_keys.size == len(pairs) * cases.size
    assert ranked.case_width == ranked.horizons.size * sum(f + 1 for f in ranked.fine_sizes)
    case_at = 0
    for p, (h, s) in enumerate(pairs):
        fine, group = ranked.fine_sizes[s - 1], fine_groups[s - 1]
        # a higher score never sits in a later segment
        order = np.argsort(-cohort.scores(s), kind="stable")
        assert (np.diff(group[order]) >= 0).all()
        case_keys = ranked.case_keys[p * cases.size : (p + 1) * cases.size] - case_at
        in_horizon = cohort.times[cases] < h
        assert np.array_equal(case_keys[in_horizon], group[cases[in_horizon]])
        assert (case_keys[in_horizon] % 2 == 1).all()  # every case sits in a tie bin
        assert (case_keys[~in_horizon] == fine).all()  # the spare bin, last
        # the tie bins hit are the horizon's own anchors, and its own
        # segments are the runs of fine ones between them
        is_case = (cohort.times < h) & (cohort.status == 1.0)
        own_sizes, _ = reference.case_segments_two_sided(
            np.sort(cohort.scores(s)), cohort.scores(s)[is_case]
        )
        ties = np.unique(case_keys[in_horizon])
        assert 2 * ties.size + 1 == own_sizes.size
        edges = np.concatenate(([0], np.column_stack([ties, ties + 1]).ravel(), [fine]))
        below = np.concatenate(([0], np.cumsum(np.bincount(group, minlength=fine))))
        assert np.array_equal(np.diff(below[edges]), own_sizes)
        case_at += fine + 1
    assert case_at == ranked.case_width


@pytest.mark.parametrize("n_horizons", [1, 3, 20])
def test_subject_keys_do_not_grow_with_the_horizons(n_horizons):
    c = generate_cohort(500, 13)
    cohort = CohortSample(c.times, c.status, np.round(c.score1, 1), c.score2)
    horizons = np.linspace(2.0, 36.0, n_horizons)
    for n_scores in (1, 2):
        ranked = _RankedCohort(cohort, horizons, n_scores)
        assert ranked.mass_keys.shape == (n_scores, cohort.n)
        assert len(ranked.fine_sizes) == n_scores
        # case keys: one per case and (horizon, score) pair
        assert ranked.case_keys.size == n_horizons * n_scores * ranked.case_subjects.size
        assert ranked.case_width == n_horizons * sum(f + 1 for f in ranked.fine_sizes)


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
            ap, value = _accuracy(*fine)
            assert np.array([ap, value]).tobytes() == np.array(_accuracy(*own)).tobytes()
            # AP never reads a weight common to every control; AUC cancels it
            sizes, cases, ctrl = fine
            ap_w, value_w = _accuracy(sizes, cases, ctrl_w * ctrl)
            assert np.array(ap_w).tobytes() == np.array(ap).tobytes()
            np.testing.assert_allclose(value_w, value, rtol=0.0, atol=1e-12)


@settings(SETTINGS, max_examples=100)
@given(
    adversarial_cohorts(),
    st.lists(st.sampled_from([1.5, 2.0, 3.0, 4.0, 5.0]), min_size=0, max_size=4),
    st.booleans(),
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
        for key, value in (("auc", want.auc1), ("auc2", want.auc2), ("dauc", want.dauc)):
            assert got[key] == pytest.approx(value, rel=0.0, abs=1e-12)
        one = estimate_horizon(cohort, h)
        assert point1[0] == one.ap
        assert point1[1] == pytest.approx(one.auc, rel=0.0, abs=1e-12)
        for r in (rate, rate1):
            assert r == pytest.approx(one.event_rate, rel=0.0, abs=1e-12)
            assert r == pytest.approx(want.event_rate, rel=0.0, abs=1e-12)


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
    """Each horizon of a shared pass holds the bits of its one-horizon pass.

    Both passes must fit every replicate in one block: the kernel's sums
    depend on which columns of a block hold case mass.
    """
    n_scores = 2 if inference._NEEDS_SCORE2.intersection(estimands) else 1
    for pass_horizons in [horizons, *([t0] for t0 in horizons)]:
        ranked = _RankedCohort(cohort, pass_horizons, n_scores)
        row_bytes = 8 * (ranked.mass_width + ranked.case_width)
        assert inference._BLOCK_BYTES // row_bytes >= spec.replicates
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
    # jump there, so no cut, one bin and no value read but the 1 before it
    rng = np.random.default_rng(41)
    times = np.concatenate([rng.uniform(0.5, 10.0, 30), rng.uniform(10.0, 20.0, 30)])
    status = np.concatenate([np.ones(30), rng.integers(0, 2, 30).astype(float)])
    cohort = CohortSample(times, status, np.round(rng.normal(size=60), 1), rng.normal(size=60))
    horizons = [10.0, 4.0, 10.0]
    ranked = _RankedCohort(cohort, horizons, 2)
    assert ranked.km_width == 1 and ranked.km_run.size == 0 and ranked.g.tolist() == [1.0]
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
    n_cases, fine = ranked.case_subjects.size, ranked.fine_sizes[0]
    last_at = ranked.case_width - sum(f + 1 for f in ranked.fine_sizes)
    first = ranked.case_keys[:n_cases]
    last = ranked.case_keys[-2 * n_cases : -n_cases] - last_at
    hit_first, hit_last = (np.unique(k[k < fine]).size for k in (first, last))
    assert 0 < hit_first < hit_last == (fine - 1) // 2
    spec = BootstrapSpec(replicates=20, seed=2024)
    assert_horizons_match(cohort, horizons, spec)
    assert_single_horizon_bits(cohort, horizons, spec)


def test_all_tied_scores_across_horizons():
    c = generate_cohort(200, 8)
    tied = np.full(c.n, 0.5)
    cohort = CohortSample(c.times, c.status, tied, tied)
    assert_horizons_match(cohort, [36.0, 8.0, 36.0], BootstrapSpec(replicates=30, seed=4))


@pytest.mark.parametrize("rows", [1, 7, None])  # None: one block holds every replicate
def test_block_edges(monkeypatch, rows):
    c = generate_cohort(150, 21)
    cohort = CohortSample(c.times, c.status, np.round(c.score1, 1), c.score2)
    horizons = [20.0, 8.0]
    if rows is not None:
        ranked = _RankedCohort(cohort, horizons, 2)
        row_bytes = 8 * (ranked.mass_width + ranked.case_width)
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
    row_bytes = 8 * (ranked.mass_width + ranked.case_width)
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
    # KM's cut keys, one float row of multiplicities and O(cases) case keys
    # and weights: 5.46 x 8n for a paired 200k cohort at t0 = 36; a copy
    # of the multiplicities per score would add 1.0 x 8n more
    cohort = generate_cohort(200_000, 5)
    tracemalloc.start()
    try:
        ranked = _RankedCohort(cohort, (36.0,), 2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ranked.m.size == cohort.n and held / (8 * cohort.n) <= 5.75


def test_rap_fails_where_the_score2_ap_is_zero(monkeypatch):
    # an AP is positive whenever a case is drawn, so the kernel is stubbed
    # to give score 2 an AP of 0 on the replicates where score 1's is high
    cohort = generate_cohort(300, 11)
    spec = BootstrapSpec(replicates=40, seed=5)
    horizons = (8.0, 36.0)
    base = _replicate_matrices(cohort, horizons, spec, ("ap", "ap2", "rap"))
    cut = {t0: np.median(values[:, 0]) for t0, (_, _, values, _) in zip(horizons, base)}
    kernel, calls = inference._accuracy, []

    def stub(counts, case, ctrl):
        ap, auc = kernel(counts, case, ctrl)
        if len(calls) % 2 == 1:  # score 2 of the horizon whose score 1 came last
            t0 = horizons[len(calls) // 2 % len(horizons)]
            ap = np.where(calls[-1] > cut[t0], 0.0, ap)
        calls.append(ap)
        return ap, auc

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
        "error: TooManyFailedReplicatesError: 5 of 20 bootstrap replicates failed; "
        "results would be unreliable\n"
    )
    cohort = CohortSample([2, 4, 6, 9, 12, 14], [1, 0, 1, 0, 1, 0], [0.9, 0.3, 0.7, 0.5, 0.4, 0.1])
    spec = BootstrapSpec(replicates=20)
    with pytest.raises(TooManyFailedReplicatesError) as err:
        bootstrap_estimate(cohort, 11.0, spec)
    causes = {c: getattr(err.value, c) for c in _FAILURE_CAUSES}
    assert causes == loop_causes(cohort, 11.0, spec)
    assert sum(causes.values()) == err.value.failed == 5
    assert causes["zero_censor_survival"] > 0 and causes["no_case"] > 0
