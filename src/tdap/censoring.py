"""Censoring-survival estimation and inverse-probability weights.

Right censoring hides event status for part of the cohort.  The fix used
throughout this package is inverse-probability-of-censoring weighting:
subjects whose status at the horizon is known get reweighted by the
inverse of the estimated probability that censoring spared them, and
subjects censored before the horizon get weight zero.

The censoring distribution G(c) = Pr(C >= c) is estimated by the
Kaplan-Meier method with the roles of event and censoring swapped, in a
telescoped product-limit form (``_product_limit``) that the bootstrap
engine shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cohort import CohortSample, _check_horizon, _is_real
from .errors import ZeroCensorSurvivalError

__all__ = ["CensorSurvival", "WeightVector", "fit_censoring_km", "ipcw_weights"]


@dataclass(frozen=True)
class CensorSurvival:
    """Step-function estimate of G(c) = Pr(C >= c).

    ``jump_times`` are the distinct censoring times in increasing order
    and ``values[k]`` is the estimate just after ``jump_times[k]``.  The
    function is evaluated as the left limit: censoring observed exactly
    at ``c`` does not reduce G at ``c`` itself, because at tied times the
    event is resolved before the censoring.  Hence G(c) = 1 for any c at
    or below the first jump.  ``fit_censoring_km`` fills ``values`` with
    the arithmetic of ``_product_limit``, as the bootstrap engine does.
    """

    jump_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        jumps = np.asarray(self.jump_times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if jumps.shape != vals.shape or jumps.ndim != 1:
            raise ValueError("jump_times and values must be matching 1-d arrays")
        if not (np.isfinite(jumps).all() and (np.diff(jumps) > 0).all()):
            raise ValueError("jump_times must be finite and strictly increasing")
        if not (((vals >= 0) & (vals <= 1)).all() and (np.diff(vals) <= 0).all()):
            raise ValueError("values must be non-increasing within [0, 1]")
        jumps = jumps.copy()
        vals = vals.copy()
        jumps.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "jump_times", jumps)
        object.__setattr__(self, "values", vals)

    def __call__(self, c):
        """Evaluate G at real ``c``, scalar or array (left limit at jumps); NaN raises."""
        c_arr = np.asarray(c)
        if not (_is_real(c) or c_arr.dtype.kind in "iuf"):
            raise ValueError(f"the censoring survival needs real times, got {c!r}")
        c_arr = c_arr.astype(float, copy=False)
        if np.isnan(c_arr).any():
            raise ValueError("the censoring survival is undefined at NaN")
        padded = np.concatenate(([1.0], self.values))
        # number of jumps strictly below c indexes the step value
        out = padded[np.searchsorted(self.jump_times, c_arr, side="left")]
        return float(out) if np.isscalar(c) or c_arr.ndim == 0 else out


@dataclass(frozen=True)
class WeightVector:
    """Per-subject weights tied to the horizon they were built for."""

    t0: float
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_horizon(self.t0)
        object.__setattr__(self, "t0", float(self.t0))
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and non-negative")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size


def _product_limit(after, start, out):
    """Reverse-KM values just after each run of censoring jumps, in ``out``.

    The censoring jumps come in runs, each a stretch of consecutive
    jumps; a run may not hold a case between two of its jumps.  Per run,
    in order, ``start`` holds S, the count at risk at its first jump, and
    ``after`` holds E, the count at risk at its last jump less those
    censored there.

    Within a run only censored subjects leave the risk set, so
    Y_{j+1} = Y_j - d_j and the factors (1 - d_j / Y_j) telescope: G
    just after run r is fl(P_{r-1} * fl(E_r / S_r)), with P the
    ``cumprod`` of those ratios.  The counts are whole numbers, so E and
    S are exact and each value depends only on the counts and the runs;
    each ratio is at most 1, so the values never rise.

    Two runs join where no case lies between them: E of the first then
    equals S of the next (with ``fit_censoring_km``'s runs of one jump
    each, and in a resample that drew none of the cases between two
    runs).  The joined run divides by its first part's S (the smallest S
    among the runs that start one, as S falls from run to run), and each
    inner end adds an exact factor of 1 to P.  So the runs always break
    exactly where a case lies between two jumps, and a resample's values
    are ``fit_censoring_km``'s on the drawn subjects, bit for bit.  A run
    with nobody at risk (S = 0) has factor exactly 1, as a jump with
    nobody censored does.
    """
    n_runs = start.size
    split = np.empty(n_runs, dtype=bool)
    split[:1] = True
    np.not_equal(after[: n_runs - 1], start[1:], out=split[1:])
    head = np.where(split, start, np.inf)
    np.minimum.accumulate(head, out=head)
    out.fill(1.0)
    np.divide(after, head, out=out, where=head > 0.0)
    prev = np.empty(n_runs)
    prev[:1] = 1.0
    np.multiply.accumulate(np.where(split[1:], out[: n_runs - 1], 1.0), out=prev[1:])
    return np.multiply(prev, out, out=out)


def fit_censoring_km(cohort: CohortSample) -> CensorSurvival:
    """Estimate the censoring survival function from a cohort.

    Each distinct time carrying at least one censoring contributes a
    multiplicative factor (1 - d/m), where d counts subjects censored at
    that time and m counts subjects still under observation there.
    Subjects whose event occurs at a tied time are included in m: ties
    between an event and a censoring resolve the event first.

    The product is telescoped by ``_product_limit``: each jump is passed
    as a run of its own, and the runs join between any two jumps with no
    case between them, so they break exactly where a case time lies in
    [t_i, t_{i+1}).  That is one division and one product per jump and a
    ``cumprod`` over the runs; it differs from the factor-by-factor
    product only by rounding.  The bootstrap engine forms G at its case
    times and horizons from the same whole-number counts and runs, so its
    full-cohort row reads these values, and so the point estimators'
    weights, bit for bit.
    """
    jumps, d = np.unique(cohort.times[cohort.status == 0.0], return_counts=True)
    sorted_all = np.sort(cohort.times)
    # at risk at c: everyone with observed time >= c
    at_risk = (cohort.n - np.searchsorted(sorted_all, jumps, side="left")).astype(float)
    surv = _product_limit(at_risk - d, at_risk, np.empty(jumps.size))
    return CensorSurvival(jumps, surv)


def ipcw_weights(
    cohort: CohortSample, censor_survival: CensorSurvival, t0: float
) -> WeightVector:
    """Build the weight vector for accuracy estimation at horizon ``t0``.

    Subjects with an observed event before ``t0`` weigh 1/G(X); subjects
    still under observation at ``t0`` weigh 1/G(t0); subjects censored
    before ``t0`` weigh 0, their event status being unknown.

    Raises ``ValueError`` unless ``t0`` is a positive, finite real (not a
    bool), and :class:`ZeroCensorSurvivalError` when a needed G value is
    0: ``t0`` (or an event time) is beyond the supplied curve's range.
    """
    _check_horizon(t0)
    times = cohort.times
    w = np.zeros(cohort.n)

    observed_case = (times < t0) & (cohort.status == 1.0)
    if observed_case.any():
        g_case = censor_survival(times[observed_case])
        if np.any(g_case <= 0.0):
            bad = np.flatnonzero(observed_case)[np.argmax(g_case <= 0.0)]
            raise ZeroCensorSurvivalError(int(bad))
        w[observed_case] = 1.0 / g_case

    at_horizon = times >= t0
    if at_horizon.any():
        g_t0 = censor_survival(float(t0))
        if g_t0 <= 0.0:
            raise ZeroCensorSurvivalError(int(np.argmax(at_horizon)))
        w[at_horizon] = 1.0 / g_t0

    return WeightVector(t0=float(t0), weights=w)
