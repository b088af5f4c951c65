import io

import numpy as np
import pytest

import reference
from tdap import (
    BootstrapSpec,
    ESTIMANDS,
    SimulationConfig,
    generate_cohort,
    run_study,
    true_values,
)
from tdap.simulation import _draw_latent


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
    with pytest.raises(ValueError):
        SimulationConfig(oracle_size=1000)


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
