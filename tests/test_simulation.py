import io
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import reference
import tdap.simulation as simulation
from tdap import (
    BootstrapSpec,
    ESTIMANDS,
    NoEventsBeforeT0Error,
    SimulationConfig,
    TdapError,
    average_precision,
    bootstrap_compare,
    bootstrap_summary,
    fit_censoring_km,
    generate_cohort,
    ipcw_weights,
    run_study,
    true_values,
    validate_horizon,
)
from tdap.estimators import _accuracy
from tdap.simulation import (
    _DRAW_CHUNK,
    _STREAM_BOOT,
    _STREAM_COHORT,
    _STREAM_ORACLE,
    _draw_failure,
    _draw_latent,
    _oracle,
)


def tiny_config(**kw):
    base = dict(
        n=300,
        replications=3,
        horizons=(8.0,),
        bootstrap=BootstrapSpec(replicates=25),
        oracle_size=100_000,
        seed=5,
    )
    base.update(kw)
    return SimulationConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(n=1)
    with pytest.raises(ValueError):
        SimulationConfig(replications=0)
    with pytest.raises(ValueError):
        SimulationConfig(horizons=())
    with pytest.raises(ValueError):
        SimulationConfig(horizons=(55.0,))  # beyond the censoring support
    with pytest.raises(ValueError):
        SimulationConfig(horizons=(-1.0,))
    # a string or a bool horizon used to be taken as 8.0 or 1.0
    for bad in ("8", True, np.True_, float("nan"), None):
        with pytest.raises(ValueError, match="t0 must be a positive finite number"):
            SimulationConfig(horizons=(8.0, bad))
    assert SimulationConfig(horizons=(np.int64(8), np.float32(0.5))).horizons == (8.0, 0.5)
    with pytest.raises(ValueError):
        SimulationConfig(oracle_size=1000)


@pytest.mark.parametrize("n", [True, 2.5, "10", -1, 0, None, np.float64(10.0)])
def test_generate_cohort_rejects_a_bad_size(n):
    # numpy used to raise its own TypeError, or "negative dimensions"
    with pytest.raises(ValueError, match="n must be an int >= 1"):
        generate_cohort(n, 0)


def test_generate_cohort_reproducible_and_paired():
    a = generate_cohort(500, 123)
    b = generate_cohort(500, 123)
    assert a == b
    assert a.paired and a.n == 500
    assert generate_cohort(500, 124) != a


def test_generator_marginals():
    t, c, u1, u2 = _draw_latent(200_000, np.random.default_rng(42))
    # score marginals are standard normal
    for u in (u1, u2):
        assert abs(u.mean()) < 0.02
        assert abs(u.std() - 1.0) < 0.02
    # censoring bounded by the uniform component, shifted gamma above 1
    assert c.max() <= 50.0
    assert c.min() >= 0.0
    # log-time regression structure: residual after the linear part
    resid = np.log(t) - (7.2 - 1.1 * u1 - 2.5 * u2 - 1.5 * np.log(u1 * u1))
    assert abs(resid.mean()) < 0.02
    assert abs(resid.std() - 1.5) < 0.02


def test_generator_event_rates_and_censoring():
    t, c, _, _ = _draw_latent(400_000, np.random.default_rng(7))
    for t0, target in ((0.5, 0.0101), (8.0, 0.0495), (36.0, 0.0991)):
        assert np.mean(t < t0) == pytest.approx(target, abs=0.003)
    assert np.mean(t > c) > 0.85  # censoring dominates by design


def test_censoring_independent_of_scores():
    _, c, u1, u2 = _draw_latent(150_000, np.random.default_rng(8))
    for u in (u1, u2):
        r = np.corrcoef(c, u)[0, 1]
        assert abs(r) < 0.012  # ~4.6 SE at this sample size


def test_true_values_structure_and_plausibility():
    cfg = tiny_config(horizons=(8.0, 36.0))
    tv = true_values(cfg)
    assert set(tv) == {(t0, e) for t0 in (8.0, 36.0) for e in ESTIMANDS}
    assert tv[(8.0, "rAP")] == pytest.approx(
        tv[(8.0, "AP1")] / tv[(8.0, "AP2")], abs=1e-12
    )
    # small-oracle values should still be in the right neighborhood
    assert tv[(8.0, "AP1")] == pytest.approx(0.364, abs=0.03)
    assert tv[(8.0, "AP2")] == pytest.approx(0.266, abs=0.03)
    assert tv[(36.0, "AP1")] == pytest.approx(0.462, abs=0.03)


def test_true_values_deterministic_in_config_seed():
    assert true_values(tiny_config()) == true_values(tiny_config())
    assert true_values(tiny_config()) != true_values(tiny_config(seed=6))


def oracle_rng(config):
    return np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_ORACLE)))


@pytest.mark.parametrize(
    "seed, oracle_size",
    [pytest.param(seed, 100_000, id=str(seed)) for seed in (3, 5, 11, 2024)]
    # a whole last step in the lockstep pass and the skip over U2
    + [pytest.param(5, 7 * _DRAW_CHUNK, id="5-whole-steps")],
)
def test_true_values_equal_unique_grouping_oracle(seed, oracle_size):
    cfg = tiny_config(horizons=(0.5, 8.0, 36.0), seed=seed, oracle_size=oracle_size)
    t, _, u1, u2 = reference.draw_latent_unsplit(cfg.oracle_size, oracle_rng(cfg))
    expected = reference.unique_oracle(t, u1, u2, cfg.horizons, _accuracy)
    assert true_values(cfg) == expected


def test_repeated_horizons_equal_unique_grouping_oracle():
    # SimulationConfig keeps repeated horizons, and the oracle takes each
    # horizon's case scores once
    cfg = tiny_config(horizons=(36.0, 8.0, 8.0, 0.5))
    t, _, u1, u2 = reference.draw_latent_unsplit(cfg.oracle_size, oracle_rng(cfg))
    expected = reference.unique_oracle(t, u1, u2, cfg.horizons, _accuracy)
    assert true_values(cfg) == expected


def test_more_horizons_than_a_byte_of_slots_equal_unique_grouping_oracle():
    # a subject's slot counts the horizons at or below its T, up to 256
    # here, one more than a uint8 holds
    cfg = tiny_config(horizons=tuple(np.linspace(0.5, 49.5, 256).tolist()))
    t, _, u1, u2 = reference.draw_latent_unsplit(cfg.oracle_size, oracle_rng(cfg))
    expected = reference.unique_oracle(t, u1, u2, cfg.horizons, _accuracy)
    assert true_values(cfg) == expected


def test_oracle_holds_less_than_one_score_and_seven_twentieths():
    # no step holds two arrays of n: T and U2 are streamed, and each score
    # is freed before any AP is formed.  The peak, measured at 1.29 arrays
    # of n, is in score 1's edge pass while the cases are put in score
    # order: U1, the case positions and slots (four bytes and one a case,
    # about 0.06 arrays of n at the largest horizon), the case values,
    # which the searches later turn into their screened counts, and the
    # order that sorts them (0.1 arrays of n each)
    cfg = tiny_config(horizons=(0.5, 8.0, 36.0), oracle_size=1_000_000)
    true_values(tiny_config())  # lazy imports on first use are not the oracle's
    tracemalloc.start()
    try:
        _oracle(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * 8 * cfg.oracle_size


def test_true_values_are_nan_below_every_oracle_event():
    cfg = tiny_config(horizons=(1e-4, 8.0))
    t, _, _ = _draw_failure(cfg.oracle_size, oracle_rng(cfg))
    assert t.min() > 1e-4  # no oracle case at the first horizon
    tv = true_values(cfg)
    assert all(np.isnan(tv[(1e-4, e)]) for e in ESTIMANDS)
    assert not any(np.isnan(tv[(8.0, e)]) for e in ESTIMANDS)


def test_run_study_names_the_first_horizon_without_oracle_events(monkeypatch):
    # no oracle event at 1e-4 or 2e-4 (see above); the error names the
    # first such horizon in config order, before any cohort is drawn
    def no_cohort(*args):
        raise AssertionError("a cohort was drawn")

    monkeypatch.setattr(simulation, "generate_cohort", no_cohort)
    for horizons, first in (((1e-4, 8.0), 1e-4), ((8.0, 2e-4, 1e-4), 2e-4)):
        with pytest.raises(NoEventsBeforeT0Error) as err:
            run_study(tiny_config(horizons=horizons))
        assert err.value.t0 == first


@pytest.mark.parametrize(
    "n, seed", [(2, 0), (1000, 42), (100_000, 7), (3 * _DRAW_CHUNK + 17, 13)]
)
def test_draws_are_bit_identical_to_unsplit_draw(n, seed):
    t, c, u1, u2 = reference.draw_latent_unsplit(n, np.random.default_rng(seed))
    latent = _draw_latent(n, np.random.default_rng(seed))
    for got, want in zip(latent, (t, c, u1, u2)):
        assert got.tobytes() == want.tobytes()
    # the failure draw is the stream's prefix
    failure = _draw_failure(n, np.random.default_rng(seed))
    for got, want in zip(failure, (t, u1, u2)):
        assert got.tobytes() == want.tobytes()
    cohort = generate_cohort(n, seed)
    assert cohort.times.tobytes() == np.minimum(t, c).tobytes()
    assert cohort.status.tobytes() == (t <= c).astype(float).tobytes()
    assert cohort.score1.tobytes() == u1.tobytes()
    assert cohort.score2.tobytes() == u2.tobytes()


def test_run_study_report_shape_and_determinism():
    cfg = tiny_config()
    rep = run_study(cfg)
    assert len(rep.rows) == len(cfg.horizons) * len(ESTIMANDS)
    assert [r.estimand for r in rep.rows] == list(ESTIMANDS)
    for row in rep.rows:
        assert 0.0 <= row.ecovp_pct <= 100.0
        assert row.ese >= 0.0 and row.ase_boot >= 0.0
        assert row.event_rate == pytest.approx(0.0495, abs=0.005)
    assert 0.0 <= rep.censoring_fraction <= 1.0
    assert rep.regenerated == 0
    again = run_study(cfg)
    assert again.rows == rep.rows
    assert again.censoring_fraction == rep.censoring_fraction


@pytest.mark.parametrize("seed", [0, 5, 17])
@pytest.mark.parametrize("horizons", [(0.5, 8.0, 36.0), (8.0, 8.0, 0.5)])
def test_study_points_are_the_point_estimators_on_its_cohorts(seed, horizons):
    # the study reads its points from the bootstrap engine's full-cohort
    # row; they must be the IPCW point estimators on the cohort it drew
    config = SimulationConfig(
        replications=2, horizons=horizons, bootstrap=BootstrapSpec(replicates=20), seed=seed
    )
    for r in range(config.replications):
        estimates = simulation._one_replication(config, r)[0][:, :, 0]
        for attempt in itertools.count():
            ss = np.random.SeedSequence((seed, _STREAM_COHORT, r, attempt))
            cohort = generate_cohort(config.n, ss)
            try:
                for t0 in horizons:
                    validate_horizon(cohort, t0)
            except TdapError:
                continue
            break
        km = fit_censoring_km(cohort)
        for h, t0 in enumerate(horizons):
            w = ipcw_weights(cohort, km, t0)
            ap1 = average_precision(cohort, w, t0, score=1)
            ap2 = average_precision(cohort, w, t0, score=2)
            assert estimates[h].tobytes() == np.array([ap1, ap2, ap1 / ap2]).tobytes()


@pytest.mark.parametrize("seed", [0, 5, 17])
@pytest.mark.parametrize("horizons", [(0.5, 8.0, 36.0), (8.0, 8.0, 0.5)])
def test_study_cells_are_the_library_bootstraps_on_its_cohorts(seed, horizons):
    # a cell's point, SE, lower and upper are what bootstrap_compare (and
    # bootstrap_summary, per score) gives on the study's cohort and seed
    config = SimulationConfig(
        replications=2, horizons=horizons, bootstrap=BootstrapSpec(replicates=20), seed=seed
    )
    for r in range(config.replications):
        cells, _, regenerated = simulation._one_replication(config, r)
        ss = np.random.SeedSequence((seed, _STREAM_COHORT, r, regenerated))
        cohort = generate_cohort(config.n, ss)
        for h, t0 in enumerate(horizons):
            boot_seed = np.random.SeedSequence((seed, _STREAM_BOOT, r, h)).generate_state(
                1, dtype=np.uint64
            )[0]
            spec = replace(config.bootstrap, seed=int(boot_seed))
            paired = bootstrap_compare(cohort, t0, spec)
            library = [[paired["ap"], paired["ap2"], paired["rap"]]]
            library.append([bootstrap_summary(cohort, t0, spec, "ap", k) for k in (1, 2)])
            for summaries in library:
                expected = [(s.point, s.se, s.lower, s.upper) for s in summaries]
                assert cells[h, : len(expected)].tobytes() == np.array(expected).tobytes()


def test_regeneration_gives_up_after_a_thousand_attempts(monkeypatch):
    drawn, raised = [], []

    def draw(n, ss):
        drawn.append(ss.entropy)
        return generate_cohort(n, ss)

    def invalid(cohort, t0):
        raised.append(NoEventsBeforeT0Error(t0))
        raise raised[-1]

    monkeypatch.setattr(simulation, "generate_cohort", draw)
    monkeypatch.setattr(simulation, "validate_horizon", invalid)
    with pytest.raises(NoEventsBeforeT0Error) as err:
        simulation._one_replication(tiny_config(n=20), 2)
    assert len(drawn) == 1000 and drawn[-1] == (5, _STREAM_COHORT, 2, 999)
    assert err.value is raised[-1]


def test_run_study_parallel_identical():
    cfg = tiny_config(replications=4)
    assert run_study(cfg, threads=1).rows == run_study(cfg, threads=4).rows


def test_run_study_single_replication_has_zero_ese():
    rep = run_study(tiny_config(replications=1))
    assert all(row.ese == 0.0 for row in rep.rows)


def test_report_csv_round_trip():
    rep = run_study(tiny_config())
    buf = io.StringIO()
    rep.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t0,event_rate,estimand,true,bias,ese,ase_boot,ecovp_pct"
    assert len(lines) == 1 + len(rep.rows)
    first = lines[1].split(",")
    assert float(first[0]) == rep.rows[0].t0
    assert first[2] == "AP1"
    assert float(first[4]) == rep.rows[0].bias  # repr round-trip is exact


def test_report_csv_matches_row_writer(tmp_path):
    rep = run_study(tiny_config())
    expected = io.StringIO()
    reference.write_report_rows(rep, expected)
    buf = io.StringIO()
    rep.to_csv(buf)
    assert buf.getvalue() == expected.getvalue()
    path = tmp_path / "report.csv"
    rep.to_csv(str(path))
    assert path.read_bytes() == expected.getvalue().encode()


def test_report_table_and_dict():
    rep = run_study(tiny_config())
    table = rep.format_table()
    assert "ECOVP" in table and "rAP" in table
    assert f"seed={rep.config.seed}" in table
    d = rep.to_dict()
    assert d["replications"] == 3
    assert len(d["rows"]) == 3
    assert d["rows"][0]["estimand"] == "AP1"


def test_regeneration_draws_next_attempt_stream(monkeypatch):
    # configs that regenerate organically yield cohorts too marginal for
    # the inner bootstrap, so trip validation once artificially instead
    import tdap.simulation as sim
    from tdap import NoEventsBeforeT0Error

    real_validate = sim.validate_horizon
    calls = []

    def flaky(cohort, t0):
        calls.append(t0)
        if len(calls) == 1:
            raise NoEventsBeforeT0Error(t0)
        return real_validate(cohort, t0)

    monkeypatch.setattr(sim, "validate_horizon", flaky)
    rep = sim.run_study(tiny_config(replications=1))
    assert rep.regenerated == 1
    clean = run_study(tiny_config(replications=1))
    assert clean.regenerated == 0
    # the accepted cohort came from the second attempt stream
    assert rep.rows != clean.rows
