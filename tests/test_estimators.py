import numpy as np
import pytest

import reference
from tdap import (
    BootstrapSpec,
    CohortSample,
    DivisionByZeroAPError,
    EmptyThresholdSetError,
    NoControlsAtT0Error,
    NoEventsBeforeT0Error,
    NotPairedError,
    WeightVector,
    ap_ratio,
    auc,
    auc_difference,
    average_precision,
    bootstrap_compare,
    bootstrap_estimate,
    compare_horizon,
    estimate_horizon,
    event_rate,
    fit_censoring_km,
    generate_cohort,
    ipcw_weights,
    ppv_at,
    ppv_tie_corrected,
    pr_curve,
    roc_curve,
    tpf_at,
)


def fixture_cohort():
    # four subjects, uncensored: times 1, 5, 2, 6; scores 4, 3, 2, 1
    return CohortSample([1, 5, 2, 6], [1, 1, 1, 1], [4, 3, 2, 1])


def unit_weights(coh, t0):
    return WeightVector(t0=t0, weights=np.ones(coh.n))


def random_censored_cohort(rng, n=None, tie_scores=False):
    n = n or int(rng.integers(4, 60))
    times = rng.uniform(0.05, 10.0, n)
    status = (rng.random(n) < 0.65).astype(float)
    scores = rng.standard_normal(n)
    if tie_scores:
        scores = np.round(scores, 1)
    return CohortSample(times, status, scores)


def valid_t0(coh, rng):
    events = coh.times[coh.status == 1.0]
    if events.size == 0:
        return None
    t0 = float(events.min()) + float(
        rng.uniform(0.01, 1.0) * (coh.times.max() - events.min())
    )
    ok_events = ((coh.times < t0) & (coh.status == 1.0)).any()
    if not ok_events or t0 > coh.times.max():
        return None
    return t0


def test_ap_hand_example():
    coh = fixture_cohort()
    assert average_precision(coh, unit_weights(coh, 2.5), 2.5) == 0.8


def test_auc_hand_example():
    coh = fixture_cohort()
    assert auc(coh, unit_weights(coh, 2.5), 2.5) == 0.75


def test_ppv_at_examples():
    coh = fixture_cohort()
    w = unit_weights(coh, 2.5)
    assert ppv_at(coh, w, 2.0, 2.5) == pytest.approx(2.0 / 3.0)
    assert ppv_at(coh, w, float("-inf"), 2.5) == 0.5  # event rate
    assert ppv_at(coh, w, 4.0, 2.5) == 1.0
    with pytest.raises(EmptyThresholdSetError):
        ppv_at(coh, w, 5.0, 2.5)


def test_tpf_at_examples():
    coh = fixture_cohort()
    w = unit_weights(coh, 2.5)
    assert tpf_at(coh, w, 2.0, 2.5) == 1.0
    assert tpf_at(coh, w, float("inf"), 2.5) == 0.0
    assert tpf_at(coh, w, 3.5, 2.5) == 0.5


@pytest.mark.parametrize("rule", [ppv_at, tpf_at])
@pytest.mark.parametrize(
    "threshold", [float("nan"), np.float64("nan"), True, np.bool_(False), "2.0", None, 1 + 0j]
)
def test_threshold_rules_reject_a_threshold_that_is_no_real_number(rule, threshold):
    # NaN compares false with every score: tpf_at read it as 0.0 and ppv_at
    # as an empty threshold set; a string reached numpy's raw UFuncTypeError
    coh = fixture_cohort()
    with pytest.raises(ValueError, match="threshold must be a real number other than NaN"):
        rule(coh, unit_weights(coh, 2.5), threshold, 2.5)


@pytest.mark.parametrize("threshold", [float("-inf"), np.float32(2.0), np.int64(2), 2])
def test_threshold_rules_accept_any_real_number(threshold):
    # +-inf stay valid, and numpy scalars and ints equal their float
    coh = fixture_cohort()
    w = unit_weights(coh, 2.5)
    assert ppv_at(coh, w, threshold, 2.5) == ppv_at(coh, w, float(threshold), 2.5)
    assert tpf_at(coh, w, threshold, 2.5) == tpf_at(coh, w, float(threshold), 2.5)


def test_tie_corrected_ppv_hand_values():
    # scores (2, 2, 1): case, control, case at t0=2
    coh = CohortSample([1, 5, 1], [1, 1, 1], [2, 2, 1])
    w = unit_weights(coh, 2.0)
    assert ppv_tie_corrected(coh, w, 0, 2.0) == 0.5
    assert ppv_tie_corrected(coh, w, 2, 2.0) == 0.6
    assert ppv_tie_corrected(coh, w, np.int64(2), 2.0) == 0.6  # any integer type


def test_tie_corrected_ppv_two_tied_subjects():
    coh = CohortSample([1, 5], [1, 1], [1, 1])
    w = unit_weights(coh, 2.0)
    assert ppv_tie_corrected(coh, w, 0, 2.0) == 0.5


@pytest.mark.parametrize("j", [3, -1, 1.5, True, "0", None])
def test_tie_corrected_ppv_rejects_a_subject_outside_the_cohort(j):
    # n = 3: an index past the end, a negative one, a float, a bool, others
    coh = CohortSample([1, 5, 1], [1, 1, 1], [2, 2, 1])
    with pytest.raises(ValueError, match=r"j must be an int in \[0, n\) with n = 3"):
        ppv_tie_corrected(coh, unit_weights(coh, 2.0), j, 2.0)


def test_all_tied_scores_give_event_rate_ap_and_half_auc():
    coh = CohortSample([1, 5], [1, 1], [1, 1])
    w = unit_weights(coh, 2.0)
    assert average_precision(coh, w, 2.0) == 0.5
    assert auc(coh, w, 2.0) == 0.5


def test_no_ties_matches_plain_rank_formula():
    # distinct scores: tie credit reduces to "strictly above plus half of self"
    rng = np.random.default_rng(3)
    times = rng.uniform(0.1, 10, 12)
    status = np.ones(12)
    scores = rng.permutation(12).astype(float)
    coh = CohortSample(times, status, scores)
    t0 = 5.0
    if not ((times < t0) & (status == 1)).any():
        pytest.skip("no cases drawn")
    w = unit_weights(coh, t0)
    for j in range(12):
        above = scores > scores[j]
        num = np.sum((times < t0)[above]) + 0.5 * (times[j] < t0)
        den = above.sum() + 0.5
        assert ppv_tie_corrected(coh, w, j, t0) == pytest.approx(num / den, abs=1e-12)


def test_pr_curve_hand_example():
    coh = fixture_cohort()
    trace = pr_curve(coh, unit_weights(coh, 2.5), 2.5)
    assert trace.kind == "precision-recall"
    assert trace.thresholds.tolist() == [4, 3, 2, 1]
    assert trace.points == [
        (0.5, 1.0),
        (0.5, 0.5),
        (1.0, pytest.approx(2.0 / 3.0)),
        (1.0, 0.5),
    ]


def test_roc_curve_hand_example():
    coh = fixture_cohort()
    trace = roc_curve(coh, unit_weights(coh, 2.5), 2.5)
    assert trace.kind == "roc"
    assert trace.thresholds.tolist() == [4, 3, 2, 1]
    assert trace.points == [(0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]


def test_event_rate_unweighted():
    coh = fixture_cohort()
    assert event_rate(coh, unit_weights(coh, 2.5), 2.5) == 0.5


def test_event_rate_weighted_hand_example():
    coh = CohortSample([1, 2, 3], [1, 0, 1], [3, 2, 1])
    w = ipcw_weights(coh, fit_censoring_km(coh), 3.0)  # weights (1, 0, 2)
    assert event_rate(coh, w, 3.0) == pytest.approx(1.0 / 3.0)


def test_perfect_separation_gives_one():
    coh = CohortSample([1, 1, 8, 9], [1, 1, 1, 1], [5, 4, 1, 0])
    w = unit_weights(coh, 2.0)
    assert average_precision(coh, w, 2.0) == 1.0
    assert auc(coh, w, 2.0) == 1.0


def test_errors_without_cases_or_controls():
    coh = CohortSample([5, 6], [1, 1], [1, 2])
    w = unit_weights(coh, 2.0)
    with pytest.raises(NoEventsBeforeT0Error):
        average_precision(coh, w, 2.0)
    with pytest.raises(NoEventsBeforeT0Error):
        auc(coh, w, 2.0)
    with pytest.raises(NoEventsBeforeT0Error):
        pr_curve(coh, w, 2.0)
    with pytest.raises(NoEventsBeforeT0Error):
        roc_curve(coh, w, 2.0)
    all_cases = CohortSample([1, 2], [1, 1], [1, 2])
    wac = unit_weights(all_cases, 3.0)
    with pytest.raises(NoControlsAtT0Error):
        auc(all_cases, wac, 3.0)
    with pytest.raises(NoControlsAtT0Error):
        roc_curve(all_cases, wac, 3.0)
    # precision-recall needs no controls
    assert pr_curve(all_cases, wac, 3.0).xs.tolist() == [0.5, 1.0]


def test_ap_matches_loop_reference_uncensored():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 40))
        times = rng.uniform(0.1, 10, n)
        scores = np.round(rng.standard_normal(n), 1 if checked % 2 else 6)
        coh = CohortSample(times, np.ones(n), scores)
        t0 = float(rng.uniform(0.2, 9.9))
        if not (times < t0).any() or t0 > times.max():
            continue
        w = unit_weights(coh, t0)
        expected = reference.ap_loop(times.tolist(), scores.tolist(), t0)
        assert average_precision(coh, w, t0) == pytest.approx(expected, abs=1e-12)
        checked += 1


def test_ap_and_auc_match_loop_reference_censored():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 40:
        coh = random_censored_cohort(rng, tie_scores=bool(checked % 2))
        t0 = valid_t0(coh, rng)
        if t0 is None:
            continue
        w = ipcw_weights(coh, fit_censoring_km(coh), t0)
        wl = w.weights.tolist()
        ap_ref = reference.ap_loop(coh.times.tolist(), coh.score1.tolist(), t0, wl)
        assert average_precision(coh, w, t0) == pytest.approx(
            min(1.0, ap_ref), abs=1e-12
        )
        if (coh.times >= t0).any():
            auc_ref = reference.auc_loop(
                coh.times.tolist(), coh.score1.tolist(), t0, wl
            )
            assert auc(coh, w, t0) == pytest.approx(min(1.0, auc_ref), abs=1e-12)
        checked += 1


def test_monotone_transform_invariance():
    rng = np.random.default_rng(23)
    coh = random_censored_cohort(rng, n=80)
    t0 = 4.0
    w = ipcw_weights(coh, fit_censoring_km(coh), t0)
    base_ap = average_precision(coh, w, t0)
    base_auc = auc(coh, w, t0)
    base_pr = pr_curve(coh, w, t0)
    for transform in (lambda z: 3.0 * z + 7.0, np.exp, np.arctan):
        alt = CohortSample(coh.times, coh.status, transform(coh.score1))
        assert average_precision(alt, w, t0) == base_ap
        assert auc(alt, w, t0) == base_auc
        alt_pr = pr_curve(alt, w, t0)
        assert np.array_equal(alt_pr.xs, base_pr.xs)
        assert np.array_equal(alt_pr.ys, base_pr.ys)


def test_ap_ratio_and_auc_difference():
    coh = CohortSample([1, 5, 2, 6], [1, 1, 1, 1], [4, 3, 2, 1], [4, 3, 2, 1])
    assert ap_ratio(coh, 2.5) == 1.0
    assert auc_difference(coh, 2.5) == 0.0
    # score2 = -score1 reverses the ranking
    rev = CohortSample([1, 5, 2, 6], [1, 1, 1, 1], [4, 3, 2, 1], [-4, -3, -2, -1])
    w = WeightVector(t0=2.5, weights=np.ones(4))
    ap2 = average_precision(rev, w, 2.5, score=2)
    assert ap_ratio(rev, 2.5) == pytest.approx(0.8 / ap2)
    assert auc_difference(rev, 2.5) == pytest.approx(0.75 - 0.25)


def test_paired_ops_require_pairs():
    coh = fixture_cohort()
    with pytest.raises(NotPairedError):
        ap_ratio(coh, 2.5)
    with pytest.raises(NotPairedError):
        auc_difference(coh, 2.5)
    with pytest.raises(NotPairedError):
        compare_horizon(coh, 2.5)


def test_ap_ratio_zero_denominator_guard(monkeypatch):
    # an estimable AP is always > 0 (each case's own half-mass enters its
    # precision), so the guard only fires with a stubbed estimator
    import tdap.estimators as est

    coh = CohortSample([1, 5], [1, 1], [2, 1], [1, 2])
    # both group each score once through _point_accuracy
    real_point = est._point_accuracy
    monkeypatch.setattr(
        est,
        "_point_accuracy",
        lambda c, w, t0, score: (
            (0.0, *real_point(c, w, t0, score)[1:]) if score == 2
            else real_point(c, w, t0, score)
        ),
    )
    with pytest.raises(DivisionByZeroAPError):
        est.ap_ratio(coh, 2.0)
    with pytest.raises(DivisionByZeroAPError):
        est.compare_horizon(coh, 2.0)


NAN = float("nan")


@pytest.mark.parametrize(
    "acc1, acc2, paired_error, single_error",
    [
        ((NAN, NAN), (0.0, NAN), NoEventsBeforeT0Error, NoEventsBeforeT0Error),
        ((0.5, 0.5), (NAN, NAN), NoEventsBeforeT0Error, None),
        ((0.5, NAN), (0.0, NAN), DivisionByZeroAPError, NoControlsAtT0Error),
        ((0.5, 0.5), (0.5, NAN), NoControlsAtT0Error, None),
        ((0.5, NAN), (0.5, 0.5), NoControlsAtT0Error, NoControlsAtT0Error),
    ],
)
def test_point_bundles_keep_error_precedence(
    monkeypatch, acc1, acc2, paired_error, single_error
):
    # no events, then a zero score-2 AP, then no controls: the order of
    # separate average_precision and auc calls, from one grouping per score.
    # The bootstraps read their points from the engine's full-cohort row,
    # never NaN at a valid horizon (test_point_row_matches_the_point_estimators)
    import tdap.estimators as est

    coh = CohortSample([1, 5], [1, 1], [2, 1], [1, 2])
    # the stubbed kernel totals: one unit of case and of control mass
    monkeypatch.setattr(
        est, "_point_accuracy", lambda c, w, t0, score: (*(acc1 if score == 1 else acc2), 1.0, 1.0)
    )
    with pytest.raises(paired_error):
        compare_horizon(coh, 2.0)
    if single_error is None:
        assert estimate_horizon(coh, 2.0).ap == acc1[0]
        return
    with pytest.raises(single_error):
        estimate_horizon(coh, 2.0)


@pytest.mark.parametrize(
    "acc1, acc2, ratio, difference",
    [
        ((NAN, NAN), (0.5, 0.5), NoEventsBeforeT0Error, NoEventsBeforeT0Error),
        ((0.5, 0.5), (NAN, NAN), NoEventsBeforeT0Error, NoEventsBeforeT0Error),
        ((0.5, NAN), (NAN, NAN), NoEventsBeforeT0Error, NoControlsAtT0Error),
        ((0.5, NAN), (0.0, 0.5), DivisionByZeroAPError, NoControlsAtT0Error),
        ((0.5, 0.5), (0.0, NAN), DivisionByZeroAPError, NoControlsAtT0Error),
        ((0.5, 0.25), (0.0, 0.75), DivisionByZeroAPError, 0.25 - 0.75),
        ((0.4, NAN), (0.5, NAN), 0.4 / 0.5, NoControlsAtT0Error),
    ],
)
def test_ratio_and_difference_raise_score_by_score(
    monkeypatch, acc1, acc2, ratio, difference
):
    # ap_ratio raises as two average_precision calls and then on a zero
    # score-2 AP; auc_difference raises as two auc calls, so score 1's
    # missing controls come before score 2's missing events.  Neither
    # validates the horizon: t0 = 9 is beyond the follow-up.
    import tdap.estimators as est

    coh = CohortSample([1, 5], [1, 1], [2, 1], [1, 2])
    w = WeightVector(t0=9.0, weights=np.ones(2))
    # the stubbed kernel totals: one unit of case and of control mass
    monkeypatch.setattr(
        est, "_point_accuracy", lambda c, w, t0, score: (*(acc1 if score == 1 else acc2), 1.0, 1.0)
    )
    for fn, want in ((ap_ratio, ratio), (auc_difference, difference)):
        if isinstance(want, float):
            assert fn(coh, 9.0, w) == want
        else:
            with pytest.raises(want):
                fn(coh, 9.0, w)
        with pytest.raises(NotPairedError):
            fn(CohortSample([1, 5], [1, 1], [2, 1]), 9.0, w)


def test_point_bundles_equal_separate_estimators():
    rng = np.random.default_rng(25)
    for tie in (False, True):
        base = random_censored_cohort(rng, n=200, tie_scores=tie)
        coh = CohortSample(base.times, base.status, base.score1, np.round(base.score1 ** 3, 1))
        t0 = 4.0
        w = ipcw_weights(coh, fit_censoring_km(coh), t0)
        ap1, ap2 = (average_precision(coh, w, t0, score=s) for s in (1, 2))
        auc1, auc2 = (auc(coh, w, t0, score=s) for s in (1, 2))
        pe = compare_horizon(coh, t0, w)
        assert (pe.ap1, pe.ap2, pe.auc1, pe.auc2) == (ap1, ap2, auc1, auc2)
        assert (pe.rap, pe.dauc) == (ap1 / ap2, auc1 - auc2)
        he = estimate_horizon(coh, t0, w)
        assert (he.ap, he.auc) == (ap1, auc1)


def test_estimate_horizon_bundle():
    coh = fixture_cohort()
    est = estimate_horizon(coh, 2.5)
    assert est.t0 == 2.5
    assert est.event_rate == 0.5
    assert est.ap == 0.8
    assert est.auc == 0.75


def test_compare_horizon_bundle():
    coh = CohortSample([1, 5, 2, 6], [1, 1, 1, 1], [4, 3, 2, 1], [8, 6, 4, 2])
    pe = compare_horizon(coh, 2.5)
    assert pe.ap1 == pe.ap2 == 0.8  # same ranking, same AP
    assert pe.rap == 1.0
    assert pe.dauc == 0.0
    assert pe.event_rate == 0.5


def test_results_within_unit_interval_under_heavy_censoring():
    rng = np.random.default_rng(24)
    checked = 0
    while checked < 60:
        n = int(rng.integers(5, 50))
        times = rng.uniform(0.05, 10.0, n)
        status = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
        coh = CohortSample(times, status, np.round(rng.standard_normal(n), 1))
        t0 = valid_t0(coh, rng)
        if t0 is None:
            continue
        w = ipcw_weights(coh, fit_censoring_km(coh), t0)
        assert 0.0 <= average_precision(coh, w, t0) <= 1.0
        assert 0.0 <= event_rate(coh, w, t0) <= 1.0
        if (coh.times >= t0).any():
            assert 0.0 <= auc(coh, w, t0) <= 1.0
        trace = pr_curve(coh, w, t0)
        assert np.all(trace.xs >= 0) and np.all(trace.xs <= 1)
        assert np.all(trace.ys >= 0) and np.all(trace.ys <= 1)
        checked += 1


def test_curve_thresholds_strictly_decreasing():
    rng = np.random.default_rng(25)
    coh = random_censored_cohort(rng, n=50, tie_scores=True)
    w = ipcw_weights(coh, fit_censoring_km(coh), 4.0)
    trace = pr_curve(coh, w, 4.0)
    assert np.all(np.diff(trace.thresholds) < 0)
    assert len(trace) == np.unique(coh.score1).size


# every public function that takes a weight vector, called with weights
# built for another horizon or cohort
WEIGHTED_CALLS = {
    "ppv_at": lambda c, w, t0: ppv_at(c, w, 0.0, t0),
    "tpf_at": lambda c, w, t0: tpf_at(c, w, 0.0, t0),
    "ppv_tie_corrected": lambda c, w, t0: ppv_tie_corrected(c, w, 0, t0),
    "average_precision": average_precision,
    "auc": auc,
    "event_rate": event_rate,
    "pr_curve": pr_curve,
    "roc_curve": roc_curve,
    "ap_ratio": lambda c, w, t0: ap_ratio(c, t0, w),
    "auc_difference": lambda c, w, t0: auc_difference(c, t0, w),
    "estimate_horizon": lambda c, w, t0: estimate_horizon(c, t0, w),
    "compare_horizon": lambda c, w, t0: compare_horizon(c, t0, w),
    "bootstrap_estimate": lambda c, w, t0: bootstrap_estimate(
        c, t0, BootstrapSpec(replicates=10), weights=w
    ),
    "bootstrap_compare": lambda c, w, t0: bootstrap_compare(
        c, t0, BootstrapSpec(replicates=10), weights=w
    ),
}


@pytest.mark.parametrize("name", sorted(WEIGHTED_CALLS))
def test_weights_for_another_horizon_or_cohort_are_rejected(name):
    call = WEIGHTED_CALLS[name]
    coh = generate_cohort(2000, 3)
    km = fit_censoring_km(coh)
    call(coh, ipcw_weights(coh, km, 36.0), 36.0)  # the right weights pass
    with pytest.raises(ValueError) as err:
        call(coh, ipcw_weights(coh, km, 8.0), 36.0)
    assert str(err.value) == (
        "weights were built for t0=8.0 and 2000 subjects, not t0=36.0 and 2000"
    )
    other = generate_cohort(1999, 3)
    with pytest.raises(ValueError) as err:
        call(coh, ipcw_weights(other, fit_censoring_km(other), 36.0), 36.0)
    assert str(err.value) == (
        "weights were built for t0=36.0 and 1999 subjects, not t0=36.0 and 2000"
    )
