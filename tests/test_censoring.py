import numpy as np
import pytest

import reference
from tdap import (
    CensorSurvival,
    CohortSample,
    WeightVector,
    ZeroCensorSurvivalError,
    fit_censoring_km,
    generate_cohort,
    ipcw_weights,
)


def test_km_single_censoring_left_limit():
    # times (1, 2, 4), status (1, 0, 1): jump only at 2 with 2 at risk
    coh = CohortSample([1, 2, 4], [1, 0, 1], [0, 0, 0])
    G = fit_censoring_km(coh)
    assert G(0.5) == 1.0
    assert G(2.0) == 1.0  # left limit: censoring at 2 counts C >= 2
    assert G(2.0001) == 0.5
    assert G(4.0) == 0.5


def test_km_no_censoring_is_one():
    coh = CohortSample([1, 2, 3], [1, 1, 1], [0, 0, 0])
    G = fit_censoring_km(coh)
    assert G.jump_times.size == 0
    assert G(0.1) == 1.0 and G(100.0) == 1.0


def test_km_all_censored_steps_to_zero():
    coh = CohortSample([1, 2], [0, 0], [0, 0])
    G = fit_censoring_km(coh)
    assert G(1.0) == 1.0
    assert G(1.5) == 0.5
    assert G(2.0) == 0.5
    assert G(2.5) == 0.0


def test_km_event_at_tied_time_stays_at_risk():
    # censoring at 2 with an event also at 2: risk set m=2 there
    coh = CohortSample([1, 2, 2], [1, 1, 0], [0, 0, 0])
    G = fit_censoring_km(coh)
    assert G(2.0) == 1.0
    assert G(2.5) == 0.5


def test_weights_hand_example():
    # times (1, 2, 3), status (1, 0, 1), t0=3 -> weights (1, 0, 2)
    coh = CohortSample([1, 2, 3], [1, 0, 1], [0, 0, 0])
    w = ipcw_weights(coh, fit_censoring_km(coh), 3.0)
    assert w.weights.tolist() == [1.0, 0.0, 2.0]
    assert w.t0 == 3.0


def test_weights_no_censoring_are_unit():
    coh = CohortSample([1, 5, 2, 6], [1, 1, 1, 1], [4, 3, 2, 1])
    w = ipcw_weights(coh, fit_censoring_km(coh), 2.5)
    assert w.weights.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_censored_before_horizon_gets_zero_weight():
    coh = CohortSample([1, 2, 9], [1, 0, 1], [0, 0, 0])
    w = ipcw_weights(coh, fit_censoring_km(coh), 5.0)
    assert w.weights[1] == 0.0
    assert w.weights[0] > 0 and w.weights[2] > 0


def test_array_evaluation_matches_scalar():
    coh = CohortSample([1, 2, 2, 5, 7], [1, 0, 0, 0, 1], np.zeros(5))
    G = fit_censoring_km(coh)
    grid = np.array([0.5, 2.0, 2.5, 5.0, 5.5, 7.0, 9.0])
    vec = G(grid)
    assert vec.tolist() == [G(float(c)) for c in grid]


def test_km_matches_loop_reference_on_random_cohorts():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(2, 40))
        times = np.round(rng.uniform(0.1, 8.0, n), 1)  # force ties
        status = (rng.random(n) < 0.6).astype(float)
        coh = CohortSample(times, status, np.zeros(n))
        G = fit_censoring_km(coh)
        for c in np.unique(np.concatenate([times, [0.05, 4.05, 9.0]])):
            expected = reference.km_censor_survival(times.tolist(), status.tolist(), float(c))
            assert G(float(c)) == pytest.approx(expected, abs=1e-12)


def test_weights_match_loop_reference_on_random_cohorts():
    rng = np.random.default_rng(12)
    for trial in range(40):
        n = int(rng.integers(3, 40))
        times = np.round(rng.uniform(0.1, 8.0, n), 1)
        status = (rng.random(n) < 0.6).astype(float)
        t0 = float(rng.uniform(0.2, times.max()))
        if not ((times < t0) & (status == 1)).any():
            continue
        coh = CohortSample(times, status, np.zeros(n))
        w = ipcw_weights(coh, fit_censoring_km(coh), t0)
        expected = reference.ipw_weights(times.tolist(), status.tolist(), t0)
        assert w.weights == pytest.approx(expected, abs=1e-12)


def test_km_monotone_within_unit_interval():
    rng = np.random.default_rng(13)
    for trial in range(40):
        n = int(rng.integers(2, 60))
        times = rng.uniform(0.1, 5.0, n)
        status = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
        G = fit_censoring_km(CohortSample(times, status, np.zeros(n)))
        grid = np.linspace(0.0, 6.0, 50)
        vals = G(grid)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-15)


def test_zero_censor_survival_with_external_curve():
    # reachable only with an externally supplied curve: a case sits past
    # the point where the curve hits zero
    curve = CensorSurvival(np.array([1.5]), np.array([0.0]))
    coh = CohortSample([1, 2, 9], [1, 1, 1], [0, 0, 0])
    with pytest.raises(ZeroCensorSurvivalError) as err:
        ipcw_weights(coh, curve, 5.0)
    assert err.value.index == 1  # subject at time 2 needs 1/G(2) = 1/0


def test_zero_censor_survival_at_horizon():
    curve = CensorSurvival(np.array([1.5]), np.array([0.0]))
    coh = CohortSample([1, 9], [1, 1], [0, 0])
    with pytest.raises(ZeroCensorSurvivalError):
        ipcw_weights(coh, curve, 5.0)


def test_censor_survival_rejects_bad_shapes():
    with pytest.raises(ValueError):
        CensorSurvival(np.array([2.0, 1.0]), np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        CensorSurvival(np.array([1.0, 2.0]), np.array([0.4, 0.5]))
    with pytest.raises(ValueError):
        CensorSurvival(np.array([1.0]), np.array([1.5]))


@pytest.mark.parametrize(
    "t0", [float("nan"), float("inf"), -1.0, 0.0, True, np.True_, "5", None]
)
def test_ipcw_weights_rejects_ill_posed_horizons(t0):
    # NaN used to give all-zero weights, True was read as 1.0 and "5"
    # raised numpy's UFuncTypeError; a weight vector used to take any of
    # them, and one built for True then passed as a vector for horizon 1
    coh = generate_cohort(200, 3)
    with pytest.raises(ValueError, match="t0 must be a positive finite number"):
        ipcw_weights(coh, fit_censoring_km(coh), t0)
    with pytest.raises(ValueError, match="t0 must be a positive finite number"):
        WeightVector(t0, np.ones(coh.n))


def test_ipcw_weights_take_numpy_real_horizons():
    coh = generate_cohort(200, 3)
    km = fit_censoring_km(coh)
    for t0 in (np.int64(8), np.uint8(8), np.float32(8.0)):
        w = ipcw_weights(coh, km, t0)
        assert w.t0 == 8.0
        assert w.weights.tobytes() == ipcw_weights(coh, km, 8.0).weights.tobytes()
        assert type(WeightVector(t0, w.weights).t0) is float


def test_censor_survival_rejects_nan():
    # NaN used to read the curve's last value (0.0 on this cohort)
    G = fit_censoring_km(generate_cohort(200, 3))
    for c in (float("nan"), np.float64("nan"), [1.0, float("nan")]):
        with pytest.raises(ValueError, match="undefined at NaN"):
            G(c)
    assert G(np.inf) == G.values[-1]  # +-inf stay well defined


@pytest.mark.parametrize(
    "c", ["5", b"1", True, np.True_, None, 1j, ["5"], [True, False], np.array(["1.0"])]
)
def test_censor_survival_rejects_non_real_times(c):
    # "5" used to be read as 5.0, True and b"1" as 1.0
    G = fit_censoring_km(generate_cohort(200, 3))
    with pytest.raises(ValueError, match="needs real times"):
        G(c)


def test_censor_survival_is_one_at_or_below_zero():
    G = fit_censoring_km(generate_cohort(200, 3))
    assert G(0.0) == G(-1.0) == G(0) == G(np.int64(-2)) == G(np.float32(0.0)) == 1.0
    assert G(np.array([-1, 0], dtype=np.int8)).tolist() == [1.0, 1.0]
    assert G([0.0, 8.0]).tolist() == [1.0, G(8.0)]
