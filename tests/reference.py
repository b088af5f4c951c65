"""Independent reference implementations used to verify the package.

Everything here is written as plain double loops over subjects, sharing
no code with the package, so agreement is evidence of correctness rather
than of consistency.  The CSV writers are the row-by-row originals
that the package's column writers must match byte for byte.  The
generator draw and the study oracle are the earlier forms that the
package's draw and oracle must match bit for bit.  ``group_accuracy``
is the one door to the package's AP/AUC kernel: every test that runs
the kernel on whole groups goes through it.  ``exact_accuracy`` evaluates
AP and AUC over the same groups in ``Fraction`` arithmetic, with the
[0, 1] clip optional, so that a path can be held to an exact value.
"""

import csv
import math
from fractions import Fraction

import numpy as np

from tdap.estimators import _accuracy


def km_censor_survival(times, status, c):
    """G(c) = Pr(C >= c) as an explicit product over censoring times < c."""
    value = 1.0
    for ck in sorted({t for t, s in zip(times, status) if s == 0}):
        if ck < c:
            d = sum(1 for t, s in zip(times, status) if s == 0 and t == ck)
            m = sum(1 for t in times if t >= ck)
            value *= 1.0 - d / m
    return value


def ipw_weights(times, status, t0):
    w = []
    for t, s in zip(times, status):
        if t < t0:
            w.append(s / km_censor_survival(times, status, t) if s == 1 else 0.0)
        else:
            w.append(1.0 / km_censor_survival(times, status, t0))
    return w


def _half(a, b):
    return 1.0 if a > b else (0.5 if a == b else 0.0)


def ppv_tie_loop(times, weights, scores, j, t0):
    n = len(times)
    num = sum(
        weights[i] * _half(scores[i], scores[j]) for i in range(n) if times[i] < t0
    )
    den = sum(_half(scores[i], scores[j]) for i in range(n))
    return num / den


def ap_loop(times, scores, t0, weights=None):
    """Average precision by definition: weighted mean over cases of the
    tie-corrected precision anchored at each case's score."""
    n = len(times)
    w = list(weights) if weights is not None else [1.0] * n
    num = den = 0.0
    for j in range(n):
        if times[j] < t0 and w[j] > 0:
            num += w[j] * ppv_tie_loop(times, w, scores, j, t0)
            den += w[j]
    return num / den


def auc_loop(times, scores, t0, weights=None):
    """Weighted case/control concordance with half credit for ties."""
    n = len(times)
    w = list(weights) if weights is not None else [1.0] * n
    num = case_tot = ctrl_tot = 0.0
    for i in range(n):
        if times[i] < t0:
            case_tot += w[i]
        else:
            ctrl_tot += w[i]
    for i in range(n):
        if times[i] < t0 and w[i] > 0:
            for j in range(n):
                if times[j] >= t0:
                    num += w[i] * w[j] * _half(scores[i], scores[j])
    return num / (case_tot * ctrl_tot)


def percentile(values, p):
    """Linear-interpolation percentile at rank (m - 1) * p."""
    v = sorted(values)
    m = len(v)
    h = (m - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, m - 1)
    return v[lo] + (h - lo) * (v[hi] - v[lo])


def write_cohort_rows(cohort, stream):
    """A cohort as CSV, one ``csv.writer`` row per subject."""
    writer = csv.writer(stream)
    writer.writerow(["time", "status", "score1"] + (["score2"] if cohort.paired else []))
    for i in range(cohort.n):
        row = [
            repr(float(cohort.times[i])),
            str(int(cohort.status[i])),
            repr(float(cohort.score1[i])),
        ]
        if cohort.paired:
            row.append(repr(float(cohort.score2[i])))
        writer.writerow(row)


def write_curve_rows(pr, roc, stream):
    """PR and ROC traces as the ``--curves`` CSV, one row per threshold."""
    writer = csv.writer(stream)
    writer.writerow(["threshold", "tpf", "ppv", "fpf"])
    for k in range(len(pr)):
        writer.writerow(
            [
                repr(float(pr.thresholds[k])),
                repr(float(pr.xs[k])),
                repr(float(pr.ys[k])),
                repr(float(roc.xs[k])),
            ]
        )


def write_report_rows(report, stream):
    """A simulation report as CSV, one ``csv.writer`` row per cell."""
    writer = csv.writer(stream)
    writer.writerow(
        ["t0", "event_rate", "estimand", "true", "bias", "ese", "ase_boot", "ecovp_pct"]
    )
    for r in report.rows:
        writer.writerow(
            [
                repr(r.t0),
                repr(r.event_rate),
                r.estimand,
                repr(r.true),
                repr(r.bias),
                repr(r.ese),
                repr(r.ase_boot),
                repr(r.ecovp_pct),
            ]
        )


def draw_latent_unsplit(n, rng):
    """(T, C, U1, U2) of the study generator as one draw, in stream order.

    U1, U2 and the noise come first, then the censoring variables A and B;
    U1 values of exactly 0 are redrawn.
    """
    u1 = rng.standard_normal(n)
    while True:
        zero = u1 == 0.0
        if not zero.any():
            break
        u1[zero] = rng.standard_normal(int(zero.sum()))
    u2 = rng.standard_normal(n)
    eps = rng.normal(0.0, 1.5, n)
    log_t = 7.2 - 1.1 * u1 - 2.5 * u2 - 1.5 * np.log(u1 * u1) + eps
    t = np.exp(log_t)
    a = rng.uniform(0.0, 50.0, n)
    b = rng.gamma(25.0, 1.0 / 0.75, n)
    c = np.minimum(a, b + 1.0)
    return t, c, u1, u2


def unique_grouping(scores, is_case):
    """Subject and case counts, one group per distinct score, highest first,
    and each subject's group."""
    _, group, counts = np.unique(-scores, return_inverse=True, return_counts=True)
    return counts, np.bincount(group, weights=is_case, minlength=counts.size), group


def case_segments_two_sided(sorted_scores, case_scores):
    """Case-anchored segments with both edges of every tie bin searched.

    The layout the bootstrap engine (``inference._RankedCohort``) keys its
    subjects by, ``[gap_0, tie_0, ..., tie_{h-1}, tail]`` from the highest
    score down, as (subject counts, case counts).  ``tie_k`` holds the
    subjects tied at the k-th highest distinct case score and ``gap_k``
    those strictly between it and the next higher one.
    """
    anchors, ties = np.unique(case_scores, return_counts=True)
    h = anchors.size
    edges = np.empty(2 * h + 2, dtype=np.intp)
    edges[0], edges[-1] = 0, sorted_scores.size
    edges[1:-1:2] = np.searchsorted(sorted_scores, anchors, side="left")
    edges[2:-1:2] = np.searchsorted(sorted_scores, anchors, side="right")
    sizes = np.diff(edges)[::-1]
    cases = np.zeros(2 * h + 1)
    cases[1::2] = ties[::-1]
    return sizes, cases


def group_accuracy(counts, case_mass, ctrl_mass):
    """The package's kernel (AP, AUC) over whole groups, highest score
    first, reading the groups that hold case mass, as the point
    estimators do, as a one-row table; the kernel's case and control
    totals are dropped."""
    hit = np.flatnonzero(case_mass > 0.0)
    screened = 2.0 * np.cumsum(counts) - counts
    ap, auc, _, _ = _accuracy(screened[None], case_mass[None], ctrl_mass[None], hit)
    return float(ap[0]), float(auc[0])


def exact_groups(scores, case_weights, ctrl_weights):
    """(subject count, case mass, control mass) per distinct score, highest
    first, the masses summed exactly as ``Fraction``s of the given values."""
    groups = {}
    for z, case, ctrl in zip(scores, case_weights, ctrl_weights):
        n, case_sum, ctrl_sum = groups.get(z, (0, Fraction(0), Fraction(0)))
        groups[z] = (n + 1, case_sum + Fraction(case), ctrl_sum + Fraction(ctrl))
    return [groups[z] for z in sorted(groups, reverse=True)]


def exact_accuracy(groups, clip=True):
    """AP and AUC as ``Fraction``s over descending groups, none rounded.

    ``groups`` holds (subject count, case mass, control mass) per score
    group, highest first.  A case group's precision counts half of its
    own subjects and case mass as screened above it, and a tied
    case/control pair counts 1/2 toward concordance.  AP is None without
    case mass, AUC None without case or control mass; with ``clip`` both
    are clipped into [0, 1].
    """
    total_case = sum((Fraction(c) for _, c, _ in groups), Fraction(0))
    total_ctrl = sum((Fraction(k) for _, _, k in groups), Fraction(0))
    ap_num = auc_num = case_above = Fraction(0)
    ctrl_below, n_above = total_ctrl, 0
    for n, case, ctrl in groups:
        case, ctrl = Fraction(case), Fraction(ctrl)
        ctrl_below -= ctrl
        if case:
            ap_num += case * (case_above + case / 2) / (n_above + Fraction(n, 2))
            auc_num += case * (ctrl_below + ctrl / 2)
        case_above += case
        n_above += n
    ap = ap_num / total_case if total_case else None
    auc = auc_num / (total_case * total_ctrl) if total_case and total_ctrl else None
    if clip:
        ap, auc = (None if v is None else min(max(v, Fraction(0)), Fraction(1)) for v in (ap, auc))
    return ap, auc


def unique_oracle(t, u1, u2, horizons):
    """Oracle AP cells with one group per distinct score (``np.unique``).

    The AP is the package's kernel (``group_accuracy``); only the
    grouping is the reference's own.
    """
    trues = {}
    for name, score in (("AP1", u1), ("AP2", u2)):
        for t0 in horizons:
            counts, cases, _ = unique_grouping(score, t < t0)
            trues[(t0, name)] = group_accuracy(counts, cases, counts - cases)[0]
    for t0 in horizons:
        trues[(t0, "rAP")] = trues[(t0, "AP1")] / trues[(t0, "AP2")]
    return trues
