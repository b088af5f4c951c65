"""Differential test of the counts-based bootstrap engine.

The engine never materialises a resample.  This file keeps a literal
per-replicate loop as the reference: ``take``, ``validate_horizon``,
``fit_censoring_km``, ``ipcw_weights``, then ``average_precision`` and
``auc``, on the same ``SeedSequence`` children.  The two must agree
within 1e-12 and fail on the same number of replicates, on adversarial
cohorts: all scores tied, events and censorings tied at t0, a single
case, censoring survival reaching 0 at the tail, and n <= 5.

The engine and the study oracle bin scores into case-anchored segments
(``estimators._case_segments``); the kernel must read the same AP and
AUC from them as from one group per distinct score.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference
from tdap import (
    BootstrapSpec,
    CohortSample,
    TdapError,
    TooManyFailedReplicatesError,
    auc,
    average_precision,
    bootstrap_estimate,
    bootstrap_summary,
    fit_censoring_km,
    generate_cohort,
    ipcw_weights,
    validate_horizon,
)
from tdap.estimators import _accuracy, _case_segments
from tdap.inference import _PAIRED_ESTIMANDS, _RankedCohort, _replicate_matrix

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
    counts, cases = reference.unique_grouping(scores, is_case)
    sizes, seg_cases = _case_segments(np.sort(scores), scores[is_case])
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


@pytest.mark.parametrize("decimals", [None, 1])
@pytest.mark.parametrize("t0", [0.5, 8.0, 36.0])
def test_ranked_cohort_bins_are_case_anchored(decimals, t0):
    c = generate_cohort(2000, 99)
    s1, s2 = c.score1, c.score2
    if decimals is not None:
        s1, s2 = np.round(s1, decimals), np.round(s2, decimals)
    cohort = CohortSample(c.times, c.status, s1, s2)
    ranked = _RankedCohort(cohort, t0, 2)
    is_case = (cohort.times < t0) & (cohort.status == 1.0)
    for s, (group, group_before, group_case, size) in zip((1, 2), ranked.groups):
        h = np.unique(cohort.scores(s)[is_case]).size
        assert size == 2 * h + 1  # not one bin per distinct score
        assert 0 <= group.min() and group.max() < size
        assert np.array_equal(group_before, group[cohort.times < t0])
        assert np.array_equal(group_case, group[is_case])
        assert (group_case % 2 == 1).all()  # every case sits in a tie bin
