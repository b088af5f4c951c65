import json
import re

import numpy as np
import pytest

import reference
import tdap.inference as inference
from tdap import (
    AccuracySummary,
    BootstrapSpec,
    CohortSample,
    NotPairedError,
    SimulationConfig,
    T0BeyondSupportError,
    TooManyFailedReplicatesError,
    average_precision,
    bootstrap_compare,
    bootstrap_estimate,
    bootstrap_summary,
    bootstrap_values,
    fit_censoring_km,
    generate_cohort,
    ipcw_weights,
    run_study,
    write_cohort_csv,
)
from tdap.cli import main


def small_cohort(seed=1, n=120, t0=4.0):
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.1, 10.0, n)
    status = (rng.random(n) < 0.7).astype(float)
    scores = 2.0 - times + rng.standard_normal(n)
    # ensure estimability at t0
    times[0], status[0], times[1] = 1.0, 1.0, 9.5
    return CohortSample(times, status, scores)


def test_spec_validation():
    with pytest.raises(ValueError):
        BootstrapSpec(replicates=1)
    with pytest.raises(ValueError):
        BootstrapSpec(level=0.0)
    with pytest.raises(ValueError):
        BootstrapSpec(level=1.0)
    with pytest.raises(ValueError):
        BootstrapSpec(seed=-1)
    with pytest.raises(ValueError):
        AccuracySummary("ap", 1.0, 0.5, 0.6, 0.4, 0.1, 10, 0)


def test_spec_accepts_numpy_integers_and_rejects_bools():
    spec = BootstrapSpec(
        replicates=np.int64(30), level=np.float32(0.5), seed=np.uint64(3)
    )
    assert (spec.replicates, spec.level, spec.seed) == (30, 0.5, 3)
    assert type(spec.replicates) is int and type(spec.seed) is int
    coh = small_cohort()
    plain = BootstrapSpec(replicates=30, level=0.5, seed=3)
    assert bootstrap_summary(coh, 4.0, spec) == bootstrap_summary(coh, 4.0, plain)
    for bad in (
        dict(seed=True),
        dict(seed=np.True_),
        dict(replicates=True),
        dict(replicates=np.float64(200.0)),
        dict(level=True),
        dict(level="0.9"),
    ):
        with pytest.raises(ValueError):
            BootstrapSpec(**bad)


def test_simulation_config_accepts_numpy_integers_and_rejects_bools():
    config = SimulationConfig(
        n=np.int64(300),
        replications=np.int32(2),
        horizons=(8.0,),
        bootstrap=BootstrapSpec(replicates=25),
        oracle_size=np.int64(100_000),
        seed=np.uint64(5),
    )
    fields = (config.n, config.replications, config.oracle_size, config.seed)
    assert fields == (300, 2, 100_000, 5)
    assert all(type(v) is int for v in fields)
    plain = SimulationConfig(
        n=300,
        replications=2,
        horizons=(8.0,),
        bootstrap=BootstrapSpec(replicates=25),
        oracle_size=100_000,
        seed=5,
    )
    assert config == plain
    assert run_study(config).rows == run_study(plain).rows
    for bad in (
        dict(seed=True),
        dict(seed=np.True_),
        dict(replications=True),
        dict(n=np.float64(300.0)),
        dict(oracle_size=2e6),
        dict(seed="5"),
    ):
        with pytest.raises(ValueError):
            SimulationConfig(**bad)


def test_point_estimate_from_original_cohort():
    coh = CohortSample([1, 5, 2, 6], [1, 1, 1, 1], [4, 3, 2, 1])
    # seed chosen so few enough resamples lose all early events (the
    # four-subject cohort sits close to the replicate-failure gate)
    s = bootstrap_summary(coh, 2.5, BootstrapSpec(replicates=50, seed=17))
    assert s.point == 0.8  # never affected by resampling noise
    assert s.estimand == "ap" and s.t0 == 2.5
    assert s.replicates_used + s.replicates_failed == 50


def test_percentile_matches_linear_interpolation_oracle():
    coh = small_cohort()
    spec = BootstrapSpec(replicates=83, level=0.90, seed=11)
    values, failed = bootstrap_values(coh, 4.0, spec)
    s = bootstrap_summary(coh, 4.0, spec)
    assert s.replicates_used == values.size
    assert s.replicates_failed == failed
    assert s.lower == pytest.approx(reference.percentile(values, 0.05), abs=1e-12)
    assert s.upper == pytest.approx(reference.percentile(values, 0.95), abs=1e-12)
    assert s.se == pytest.approx(float(np.std(values, ddof=1)), abs=1e-15)


def test_same_seed_reproduces_exactly():
    coh = small_cohort()
    spec = BootstrapSpec(replicates=60, seed=13)
    a = bootstrap_summary(coh, 4.0, spec)
    b = bootstrap_summary(coh, 4.0, spec)
    assert a == b
    c = bootstrap_summary(coh, 4.0, BootstrapSpec(replicates=60, seed=14))
    assert c != a  # different stream actually moves the interval


def test_thread_count_never_changes_results():
    coh = small_cohort()
    spec = BootstrapSpec(replicates=64, seed=17)
    base = bootstrap_summary(coh, 4.0, spec, threads=1)
    for threads in (2, 5):
        assert bootstrap_summary(coh, 4.0, spec, threads=threads) == base
    base_cmp = bootstrap_compare(paired_cohort(), 4.0, spec, threads=1)
    multi = bootstrap_compare(paired_cohort(), 4.0, spec, threads=3)
    assert base_cmp == multi


def paired_cohort(seed=2, n=100):
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.1, 10.0, n)
    status = (rng.random(n) < 0.7).astype(float)
    s1 = 2.0 - times + rng.standard_normal(n)
    s2 = rng.standard_normal(n)
    times[0], status[0], times[1] = 1.0, 1.0, 9.5
    return CohortSample(times, status, s1, s2)


def test_interval_nesting_across_levels():
    coh = small_cohort()
    summaries = [
        bootstrap_summary(coh, 4.0, BootstrapSpec(replicates=200, level=lv, seed=19))
        for lv in (0.80, 0.90, 0.99)
    ]
    for narrow, wide in zip(summaries, summaries[1:]):
        assert wide.lower <= narrow.lower
        assert narrow.upper <= wide.upper


def test_degenerate_perfect_separation_collapses_interval():
    # every usable resample keeps cases above controls, so AP is 1 in all
    # of them: SE 0 and a zero-width interval
    coh = CohortSample(
        [1.0] * 6 + [9.0] * 6, [1] * 12, [5, 5, 5, 5, 5, 5, 0, 0, 0, 0, 0, 0]
    )
    s = bootstrap_summary(coh, 2.0, BootstrapSpec(replicates=100, seed=23))
    assert s.point == 1.0
    assert (s.lower, s.upper) == (1.0, 1.0)
    assert s.se == 0.0


def test_degenerate_identical_scores_pin_ratio_at_one():
    rng = np.random.default_rng(29)
    times = rng.uniform(0.1, 10.0, 60)
    s1 = rng.standard_normal(60)
    coh = CohortSample(times, np.ones(60), s1, 2.0 * s1 + 1.0)
    out = bootstrap_compare(coh, 4.0, BootstrapSpec(replicates=80, seed=29))
    assert out["rap"].point == 1.0
    assert (out["rap"].lower, out["rap"].upper) == (1.0, 1.0)
    assert out["rap"].se == 0.0
    assert (out["dauc"].lower, out["dauc"].upper) == (0.0, 0.0)


def test_failed_replicates_dropped_and_counted():
    # a single case among many controls: ~37% of resamples lose it
    times = np.array([1.0] + [9.0] * 11)
    coh = CohortSample(times, np.ones(12), np.arange(12.0))
    with pytest.raises(TooManyFailedReplicatesError) as err:
        bootstrap_summary(coh, 2.0, BootstrapSpec(replicates=100, seed=31))
    assert err.value.failed > 10
    assert err.value.total == 100


def test_small_failure_fraction_tolerated():
    # three cases among nine controls: losing all three is rare (~4%)
    times = np.array([1.0, 1.2, 1.4] + [9.0] * 9)
    coh = CohortSample(times, np.ones(12), np.arange(12.0))
    s = bootstrap_summary(coh, 2.0, BootstrapSpec(replicates=200, seed=37))
    assert s.replicates_used + s.replicates_failed == 200
    assert s.replicates_failed <= 20


def test_compare_consistent_with_single_estimand_stream():
    coh = paired_cohort()
    spec = BootstrapSpec(replicates=70, seed=41)
    joint = bootstrap_compare(coh, 4.0, spec)
    single_ap = bootstrap_summary(coh, 4.0, spec, "ap")
    single_auc = bootstrap_summary(coh, 4.0, spec, "auc")
    # same seed, same resamples: the shared estimands agree exactly
    assert joint["ap"] == single_ap
    assert joint["auc"] == single_auc
    assert joint["rap"].t0 == 4.0
    assert set(joint) == {"ap", "ap2", "rap", "auc", "auc2", "dauc"}


def test_weights_refit_inside_each_resample(monkeypatch):
    # a cohort where censoring matters: if weights were reused instead of
    # refit, replicate values could exceed the legal range or mismatch a
    # direct recomputation; every replicate is reproduced on its
    # materialised resample within 1e-12 (the engine weighs a case drawn m
    # times as m x (1/G), not as m additions, so bits may differ)
    coh = generate_cohort(400, 99)
    spec = BootstrapSpec(replicates=10, seed=43)
    values, failed = bootstrap_values(coh, 8.0, spec)
    assert failed == 0
    for b, child in enumerate(np.random.SeedSequence(43).spawn(10)):
        sub = coh.take(np.random.default_rng(child).integers(0, 400, 400))
        w = ipcw_weights(sub, fit_censoring_km(sub), 8.0)
        assert values[b] == pytest.approx(average_precision(sub, w, 8.0), rel=0.0, abs=1e-12)
    # the bits do not depend on the block: one block holds all ten above
    ranked = inference._RankedCohort(coh, (8.0,), 1)
    assert 11 * 8 * (ranked.mass_width + ranked.case_subjects.size) <= inference._BLOCK_BYTES
    monkeypatch.setattr(inference, "_BLOCK_BYTES", 1)
    alone, _ = bootstrap_values(coh, 8.0, spec)
    assert alone.tobytes() == values.tobytes()


def test_estimand_validation():
    coh = small_cohort()
    with pytest.raises(ValueError):
        bootstrap_summary(coh, 4.0, BootstrapSpec(replicates=10), "rap")
    with pytest.raises(ValueError):
        bootstrap_values(coh, 4.0, BootstrapSpec(replicates=10), "nope")
    with pytest.raises(ValueError):
        bootstrap_values(coh, 4.0, BootstrapSpec(replicates=10), "ap", score=3)
    with pytest.raises(NotPairedError):
        bootstrap_values(coh, 4.0, BootstrapSpec(replicates=10), "ap", score=2)
    # a score is the integer 1 or 2: True, 2.0 and numpy's 1.0 are not
    spec = BootstrapSpec(replicates=10)
    w = ipcw_weights(coh, fit_censoring_km(coh), 4.0)
    for score in (True, 2.0, np.float64(1.0)):
        for call in (average_precision, bootstrap_values, bootstrap_summary):
            args = (w, 4.0) if call is average_precision else (4.0, spec)
            with pytest.raises(ValueError, match="score selector must be 1 or 2"):
                call(coh, *args, score=score)
    one = bootstrap_summary(coh, 4.0, spec, score=np.int64(1))
    assert one == bootstrap_summary(coh, 4.0, spec, score=1)


def test_joint_estimate_uses_supplied_weights_and_checks_them():
    coh = paired_cohort()
    spec = BootstrapSpec(replicates=40, seed=47)
    w = ipcw_weights(coh, fit_censoring_km(coh), 4.0)
    joint = bootstrap_estimate(coh, 4.0, spec, weights=w)
    assert joint == bootstrap_estimate(coh, 4.0, spec)
    assert joint["ap"] == bootstrap_summary(coh, 4.0, spec, "ap")
    assert joint["auc"] == bootstrap_summary(coh, 4.0, spec, "auc")
    paired = bootstrap_compare(coh, 4.0, spec, weights=w)
    assert paired == bootstrap_compare(coh, 4.0, spec)
    w5 = ipcw_weights(coh, fit_censoring_km(coh), 5.0)
    with pytest.raises(ValueError):
        bootstrap_estimate(coh, 4.0, spec, weights=w5)
    with pytest.raises(ValueError):
        bootstrap_compare(coh.take(np.arange(50)), 4.0, spec, weights=w)


@pytest.mark.parametrize(
    "command, bootstrap, labels",
    [
        ("estimate", bootstrap_estimate, (("ap", "AP"), ("auc", "AUC"))),
        (
            "compare",
            bootstrap_compare,
            (
                ("ap", "AP1"),
                ("ap2", "AP2"),
                ("rap", "rAP"),
                ("auc", "AUC1"),
                ("auc2", "AUC2"),
                ("dauc", "dAUC"),
            ),
        ),
    ],
)
def test_library_bootstraps_equal_the_command_line(
    tmp_path, capsys, command, bootstrap, labels
):
    # one point path: the library reads its points from the engine's
    # full-cohort row, as the CLI does, so every number is the same bits
    cohort = generate_cohort(300, 0)
    path, out = tmp_path / "cohort.csv", tmp_path / "out.json"
    write_cohort_csv(cohort, path)
    argv = [command, "--input", str(path), "--t0", "8", "--t0", "36"]
    assert main([*argv, "--boot", "20", "--seed", "1", "--json", str(out)]) == 0
    stdout = capsys.readouterr().out
    printed = re.findall(r"^  (\S+) .*\((\d+) used, (\d+) failed\)$", stdout, re.M)
    results = json.loads(out.read_text())["results"]
    spec = BootstrapSpec(replicates=20, seed=1)
    want_printed = []
    for row in results:
        library = bootstrap(cohort, row["t0"], spec)
        for key, label in labels:
            s = library[key]
            got = (row[key], row[f"{key}_lower"], row[f"{key}_upper"], row[f"{key}_se"])
            assert got == (s.point, s.lower, s.upper, s.se), (row["t0"], key)
            want_printed.append((label, str(s.replicates_used), str(s.replicates_failed)))
    assert [row["t0"] for row in results] == [8.0, 36.0]
    assert printed == want_printed


def test_library_bootstraps_keep_their_error_order():
    # validation, then weights built for another horizon or cohort, then
    # a missing second score
    paired = generate_cohort(300, 0)
    single = CohortSample(paired.times, paired.status, paired.score1)
    spec = BootstrapSpec(replicates=10)
    beyond = float(paired.times.max()) + 1.0
    stale = ipcw_weights(paired, fit_censoring_km(paired), 8.0)
    for bootstrap in (bootstrap_estimate, bootstrap_compare):
        with pytest.raises(T0BeyondSupportError):
            bootstrap(paired, beyond, spec, weights=stale)
        with pytest.raises(ValueError, match="weights were built"):
            bootstrap(paired, 36.0, spec, weights=stale)
    with pytest.raises(ValueError, match="weights were built"):
        bootstrap_compare(single, 36.0, spec, weights=stale)
    own = ipcw_weights(single, fit_censoring_km(single), 36.0)
    with pytest.raises(NotPairedError):
        bootstrap_compare(single, 36.0, spec, weights=own)
