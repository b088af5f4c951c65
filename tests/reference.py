"""Independent reference implementations used to verify the package.

Everything here is written as plain double loops over subjects, sharing
no code with the package, so agreement is evidence of correctness rather
than of consistency.  The CSV writers are the row-by-row originals
that the package's column writers must match byte for byte.
"""

import csv
import math


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
