import csv
import io
import json

import numpy as np
import pytest

from tdap import (
    CohortSample,
    fit_censoring_km,
    generate_cohort,
    ipcw_weights,
    pr_curve,
    read_cohort_csv,
    roc_curve,
    write_cohort_csv,
)
from tdap.cli import canonical_json, main
from tdap.cohort import _write_csv

FIXTURE = "time,status,score1\n1,1,4\n5,1,3\n2,1,2\n6,1,1\n"
PAIRED = "time,status,score1,score2\n1,1,4,8\n5,1,3,6\n2,1,2,4\n6,1,1,2\n"


@pytest.fixture
def fixture_csv(tmp_path):
    p = tmp_path / "cohort.csv"
    p.write_text(FIXTURE)
    return str(p)


@pytest.fixture
def paired_csv(tmp_path):
    p = tmp_path / "paired.csv"
    p.write_text(PAIRED)
    return str(p)


@pytest.fixture
def sim_csv(tmp_path):
    p = tmp_path / "sim.csv"
    with open(p, "w", newline="") as fh:
        write_cohort_csv(generate_cohort(2000, 77), fh)
    return str(p)


def run(argv):
    return main(argv)


def test_estimate_four_row_fixture(fixture_csv, tmp_path, capsys):
    out_json = str(tmp_path / "out.json")
    code = run(
        ["estimate", "--input", fixture_csv, "--t0", "2.5", "--boot", "50",
         "--seed", "17", "--json", out_json]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "t0=2.5" in stdout and "AP" in stdout and "AUC" in stdout
    text = open(out_json).read()
    assert '"ap": 0.8' in text
    payload = json.loads(text)
    (result,) = payload["results"]
    assert result["t0"] == 2.5
    assert result["event_rate"] == 0.5
    assert result["ap"] == 0.8
    assert result["auc"] == 0.75
    assert result["ap_lower"] <= result["ap_upper"]
    assert result["ap_se"] >= 0.0


def test_estimate_multiple_horizons(fixture_csv, tmp_path):
    out_json = str(tmp_path / "out.json")
    code = run(
        ["estimate", "--input", fixture_csv, "--t0", "2.5", "--t0", "3.5",
         "--boot", "30", "--seed", "17", "--json", out_json]
    )
    assert code == 0
    payload = json.loads(open(out_json).read())
    assert [r["t0"] for r in payload["results"]] == [2.5, 3.5]


def test_estimate_t0_beyond_support_exits_2(fixture_csv, capsys):
    code = run(["estimate", "--input", fixture_csv, "--t0", "50"])
    assert code == 2
    assert "T0BeyondSupportError" in capsys.readouterr().err


def test_estimate_no_events_exits_2(fixture_csv, capsys):
    code = run(["estimate", "--input", fixture_csv, "--t0", "0.5"])
    assert code == 2
    assert "NoEventsBeforeT0Error" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    code = run(["estimate", "--input", "/nonexistent/x.csv", "--t0", "2"])
    assert code == 1
    assert capsys.readouterr().err.strip() != ""


def test_bad_cell_reports_class_and_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("time,status,score1\n1,1,oops\n")
    code = run(["estimate", "--input", str(p), "--t0", "2"])
    assert code == 2
    assert "NonNumericCellError" in capsys.readouterr().err


def test_overlong_cell_reports_class_and_exits_2(tmp_path, capsys):
    # a 200,000-character cell, past csv.field_size_limit(), in an unmapped column
    p = tmp_path / "long.csv"
    p.write_text("time,status,score1,note\n1,1,4,ok\n2,0,3," + "x" * 200_000 + "\n")
    code = run(["estimate", "--input", str(p), "--t0", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "MalformedCsvError" in err and "line 3" in err


def test_curves_csv_schema(fixture_csv, tmp_path):
    curves = str(tmp_path / "curves.csv")
    code = run(
        ["estimate", "--input", fixture_csv, "--t0", "2.5", "--boot", "20",
         "--seed", "17", "--curves", curves]
    )
    assert code == 0
    with open(curves, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["threshold", "tpf", "ppv", "fpf"]
    assert len(rows) == 5  # four distinct thresholds
    body = [[float(x) for x in row] for row in rows[1:]]
    assert [r[0] for r in body] == [4.0, 3.0, 2.0, 1.0]
    assert body[0][1:] == [0.5, 1.0, 0.0]
    assert body[2][1] == 1.0
    assert body[2][2] == pytest.approx(2.0 / 3.0)
    assert body[3][3] == 1.0


def test_curves_require_single_horizon(fixture_csv, tmp_path, capsys):
    code = run(
        ["estimate", "--input", fixture_csv, "--t0", "2.5", "--t0", "5.5",
         "--curves", str(tmp_path / "c.csv")]
    )
    assert code == 2
    assert "ValueError" in capsys.readouterr().err


def test_compare_identical_ranking(paired_csv, tmp_path, capsys):
    out_json = str(tmp_path / "out.json")
    code = run(
        ["compare", "--input", paired_csv, "--t0", "2.5", "--boot", "40",
         "--seed", "17", "--json", out_json]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    for label in ("AP1", "AP2", "rAP", "AUC1", "AUC2", "dAUC"):
        assert label in stdout
    (result,) = json.loads(open(out_json).read())["results"]
    assert result["rap"] == 1.0
    assert result["dauc"] == 0.0
    for key in ("t0", "event_rate", "ap", "ap2", "auc", "auc2", "rap", "dauc"):
        assert key in result


def test_compare_requires_pairs(fixture_csv, capsys):
    code = run(["compare", "--input", fixture_csv, "--t0", "2.5"])
    assert code == 2
    assert "NotPairedError" in capsys.readouterr().err


def test_compare_needs_t0_or_sweep(paired_csv, capsys):
    assert run(["compare", "--input", paired_csv]) == 2
    assert (
        run(["compare", "--input", paired_csv, "--t0", "2", "--sweep", "1:3:1"]) == 2
    )


@pytest.mark.parametrize("sweep", ["1:inf:1", "1:10:inf", "nan:10:1"])
def test_sweep_rejects_non_finite_bounds(paired_csv, capsys, sweep):
    assert run(["compare", "--input", paired_csv, "--sweep", sweep]) == 2
    assert capsys.readouterr().err == (
        f"error: ValueError: --sweep needs finite START, STOP and STEP, got {sweep!r}\n"
    )


def test_curves_csv_equals_separate_curve_calls(tmp_path):
    # rounded scores: many subjects share each threshold
    c = generate_cohort(1500, 5)
    cohort = CohortSample(c.times, c.status, np.round(c.score1, 1))
    source, curves = tmp_path / "tied.csv", tmp_path / "curves.csv"
    with open(source, "w", newline="") as fh:
        write_cohort_csv(cohort, fh)
    code = run(["estimate", "--input", str(source), "--t0", "20", "--boot", "10",
                "--curves", str(curves)])
    assert code == 0
    cohort = read_cohort_csv(str(source))
    w = ipcw_weights(cohort, fit_censoring_km(cohort), 20.0)
    pr, roc = pr_curve(cohort, w, 20.0), roc_curve(cohort, w, 20.0)
    assert len(pr) < cohort.n / 10
    expected = tmp_path / "expected.csv"
    _write_csv(str(expected), ("threshold", "tpf", "ppv", "fpf"),
               (pr.thresholds, pr.xs, pr.ys, roc.xs))
    assert curves.read_bytes() == expected.read_bytes()


def test_compare_recovers_true_ratio(sim_csv, tmp_path):
    out_json = str(tmp_path / "out.json")
    code = run(
        ["compare", "--input", sim_csv, "--t0", "8", "--boot", "200",
         "--seed", "77", "--json", out_json]
    )
    assert code == 0
    (result,) = json.loads(open(out_json).read())["results"]
    # the generator's oracle ratio at t0=8 is 1.37; the CI should cover it
    assert result["rap_lower"] <= 1.37 <= result["rap_upper"]
    assert 1.0 < result["rap"] < 1.9
    assert result["event_rate"] == pytest.approx(0.0495, abs=0.02)


def test_sweep_csv_schema(sim_csv, tmp_path):
    out_csv = str(tmp_path / "sweep.csv")
    code = run(
        ["compare", "--input", sim_csv, "--sweep", "5:35:5", "--boot", "25",
         "--csv", out_csv]
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "t0", "ap1", "ap2", "rap", "rap_lo", "rap_hi",
        "auc1", "auc2", "dauc", "dauc_lo", "dauc_hi",
    ]
    assert len(rows) == 8  # horizons 5, 10, ..., 35
    assert [float(r[0]) for r in rows[1:]] == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0]
    for r in rows[1:]:
        assert float(r[4]) <= float(r[5])  # rap_lo <= rap_hi
        assert float(r[9]) <= float(r[10])  # dauc_lo <= dauc_hi
        assert float(r[1]) > 0 and float(r[2]) > 0


def test_sweep_csv_matches_json(sim_csv, tmp_path):
    out_csv, out_json = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    code = run(
        ["compare", "--input", sim_csv, "--sweep", "5:35:10", "--boot", "25",
         "--csv", str(out_csv), "--json", str(out_json)]
    )
    assert code == 0
    keys = ["t0", "ap", "ap2", "rap", "rap_lower", "rap_upper",
            "auc", "auc2", "dauc", "dauc_lower", "dauc_upper"]
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["t0", "ap1", "ap2", "rap", "rap_lo", "rap_hi",
                     "auc1", "auc2", "dauc", "dauc_lo", "dauc_hi"])
    for row in json.loads(out_json.read_text())["results"]:
        writer.writerow([repr(row[k]) for k in keys])
    assert out_csv.read_bytes() == expected.getvalue().encode()


def test_simulate_smoke(tmp_path, capsys):
    out_csv = str(tmp_path / "report.csv")
    out_json = str(tmp_path / "report.json")
    code = run(
        ["simulate", "--n", "300", "--reps", "2", "--boot", "25", "--t0", "8",
         "--oracle", "100000", "--seed", "5", "--csv", out_csv, "--json", out_json]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "ECOVP" in stdout and "rAP" in stdout
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t0" and len(rows) == 4
    payload = json.loads(open(out_json).read())
    assert payload["replications"] == 2
    assert len(payload["rows"]) == 3


def test_simulate_single_rep_zero_ese(tmp_path):
    out_csv = str(tmp_path / "report.csv")
    code = run(
        ["simulate", "--n", "300", "--reps", "1", "--boot", "25", "--t0", "8",
         "--oracle", "100000", "--csv", out_csv]
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    ese_col = rows[0].index("ese")
    assert all(float(r[ese_col]) == 0.0 for r in rows[1:])


def test_json_round_trip_byte_identical(fixture_csv, tmp_path):
    out_json = tmp_path / "out.json"
    run(
        ["estimate", "--input", fixture_csv, "--t0", "2.5", "--boot", "30",
         "--seed", "17", "--json", str(out_json)]
    )
    text = out_json.read_text()
    assert canonical_json(json.loads(text)) == text


def test_canonical_json_sorted_keys():
    text = canonical_json({"b": 1.5, "a": [0.1, 2]})
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [0.1, 2], "b": 1.5}
    assert canonical_json(json.loads(text)) == text


def test_cli_entry_point_installed():
    import shutil
    import subprocess

    exe = shutil.which("tdap")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert out.returncode == 0
    assert "estimate" in out.stdout and "simulate" in out.stdout


def test_simulate_horizon_below_every_oracle_event_exits_2(capsys):
    # the oracle has no case at this horizon (its cells are NaN); the
    # drawn cohorts do, but too rarely for the bootstrap
    code = run(
        ["simulate", "--n", "200", "--reps", "1", "--boot", "10",
         "--oracle", "100000", "--t0", "0.0001"]
    )
    assert code == 2
    assert "TooManyFailedReplicatesError" in capsys.readouterr().err


# A multi-horizon command validates and estimates its horizons in order,
# prints every horizon before the first failing one, then exits 2 with
# that horizon's error.  Horizons keep the order given on the command
# line, repeats included.  The cohort has failed replicates at t0 = 8.5
# and too many at t0 = 11, and its largest time is 12.
LATE = (
    "time,status,score1,score2\n"
    "1,1,0.9,0.6\n2,0,0.2,0.1\n3,1,0.8,0.9\n4,1,0.3,0.7\n5,0,0.6,0.2\n"
    "6,1,0.5,0.8\n7,0,0.4,0.3\n8,1,0.7,0.4\n9,1,0.1,0.5\n12,0,0.35,0.05\n"
)

ESTIMATE_AT_4_5 = """\
t0=4.5  event_rate=0.325
  AP    0.792308   95% CI [0.369093, 1]  SE 0.208088  (20 used, 0 failed)
  AUC   0.711538   95% CI [0.230714, 1]  SE 0.244064  (20 used, 0 failed)
"""
ESTIMATE_AT_8_5 = """\
t0=8.5  event_rate=0.64
  AP    1          95% CI [0.74736, 1]  SE 0.0822121  (18 used, 2 failed)
  AUC   0.912109   95% CI [0.637273, 1]  SE 0.112121  (18 used, 2 failed)
"""
COMPARE_AT_4_5 = """\
t0=4.5  event_rate=0.325
  AP1   0.792308   95% CI [0.369093, 1]  SE 0.208088  (20 used, 0 failed)
  AP2   0.864835   95% CI [0.4825, 1]  SE 0.180437  (20 used, 0 failed)
  rAP   0.916137   95% CI [0.473, 1.70382]  SE 0.336233  (20 used, 0 failed)
  AUC1  0.711538   95% CI [0.230714, 1]  SE 0.244064  (20 used, 0 failed)
  AUC2  0.891026   95% CI [0.75, 1]  SE 0.0740402  (20 used, 0 failed)
  dAUC  -0.179487  95% CI [-0.6655, 0.134375]  SE 0.243258  (20 used, 0 failed)
"""
COMPARE_AT_8_5 = """\
t0=8.5  event_rate=0.64
  AP1   1          95% CI [0.74736, 1]  SE 0.0822121  (18 used, 2 failed)
  AP2   1          95% CI [0.84023, 1]  SE 0.0514315  (18 used, 2 failed)
  rAP   1          95% CI [0.74736, 1.15178]  SE 0.10542  (18 used, 2 failed)
  AUC1  0.912109   95% CI [0.637273, 1]  SE 0.112121  (18 used, 2 failed)
  AUC2  0.859375   95% CI [0.482963, 1]  SE 0.182657  (18 used, 2 failed)
  dAUC  0.0527344  95% CI [-0.362727, 0.517037]  SE 0.257149  (18 used, 2 failed)
"""
LATE_HEADER = "cohort: n=10 (paired)\n"


@pytest.fixture
def late_csv(tmp_path):
    p = tmp_path / "late.csv"
    p.write_text(LATE)
    return str(p)


def run_captured(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_sweep_prints_horizons_before_one_beyond_support(late_csv, capsys):
    code, out, err = run_captured(
        ["compare", "--input", late_csv, "--sweep", "4.5:13:4", "--boot", "20"], capsys
    )
    assert code == 2
    assert out == LATE_HEADER + COMPARE_AT_4_5 + COMPARE_AT_8_5
    assert err == (
        "error: T0BeyondSupportError: t0=12.5 exceeds the largest observed time 12.0\n"
    )


def test_estimate_prints_horizon_before_one_beyond_support(sim_csv, capsys):
    code, out, err = run_captured(
        ["estimate", "--input", sim_csv, "--t0", "8", "--t0", "60", "--boot", "20"], capsys
    )
    assert code == 2
    assert out == (
        "cohort: n=2000 (paired)\n"
        "t0=8  event_rate=0.0519897\n"
        "  AP    0.31967    95% CI [0.206948, 0.39112]  SE 0.0520259  (20 used, 0 failed)\n"
        "  AUC   0.839145   95% CI [0.768432, 0.891954]  SE 0.0340719  (20 used, 0 failed)\n"
    )
    assert err == (
        "error: T0BeyondSupportError: t0=60.0 exceeds the largest observed time "
        "49.21386493689839\n"
    )


def test_too_many_failures_at_a_later_horizon_exit_after_earlier_ones(
    late_csv, tmp_path, capsys
):
    out_json = tmp_path / "out.json"
    code, out, err = run_captured(
        ["estimate", "--input", late_csv, "--t0", "4.5", "--t0", "8.5", "--t0", "11",
         "--boot", "20", "--json", str(out_json)],
        capsys,
    )
    assert code == 2
    assert out == LATE_HEADER + ESTIMATE_AT_4_5 + ESTIMATE_AT_8_5
    assert err == (
        "error: TooManyFailedReplicatesError: 8 of 20 bootstrap replicates failed; "
        "results would be unreliable\n"
    )
    assert not out_json.exists()
    code, out, err = run_captured(
        ["compare", "--input", late_csv, "--t0", "4.5", "--t0", "11", "--boot", "20"],
        capsys,
    )
    assert code == 2
    assert out == LATE_HEADER + COMPARE_AT_4_5
    assert "TooManyFailedReplicatesError: 8 of 20" in err


def assert_rows_close(rows, expected):
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert set(row) == set(want)
        for key, value in want.items():
            assert row[key] == pytest.approx(value, rel=0.0, abs=1e-12), key


def test_unsorted_and_repeated_horizons_keep_command_line_order(
    late_csv, tmp_path, capsys
):
    out_json = tmp_path / "out.json"
    code, out, err = run_captured(
        ["estimate", "--input", late_csv, "--t0", "8.5", "--t0", "4.5", "--t0", "8.5",
         "--boot", "20", "--json", str(out_json)],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out == LATE_HEADER + ESTIMATE_AT_8_5 + ESTIMATE_AT_4_5 + ESTIMATE_AT_8_5
    at_8_5 = {
        "t0": 8.5, "event_rate": 0.64,
        "ap": 1.0, "ap_lower": 0.7473600852272727, "ap_upper": 1.0,
        "ap_se": 0.0822120717603136,
        "auc": 0.9121093750000001, "auc_lower": 0.6372727272727273, "auc_upper": 1.0,
        "auc_se": 0.1121209071911362,
    }
    at_4_5 = {
        "t0": 4.5, "event_rate": 0.325,
        "ap": 0.7923076923076924, "ap_lower": 0.3690934065934068, "ap_upper": 1.0,
        "ap_se": 0.20808794934913505,
        "auc": 0.7115384615384616, "auc_lower": 0.23071428571428593, "auc_upper": 1.0,
        "auc_se": 0.24406441797973677,
    }
    results = json.loads(out_json.read_text())["results"]
    assert_rows_close(results, [at_8_5, at_4_5, at_8_5])

    code, out, err = run_captured(
        ["compare", "--input", late_csv, "--t0", "8.5", "--t0", "4.5", "--t0", "8.5",
         "--boot", "20", "--json", str(out_json)],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out == LATE_HEADER + COMPARE_AT_8_5 + COMPARE_AT_4_5 + COMPARE_AT_8_5
    results = json.loads(out_json.read_text())["results"]
    # each row is what a one-horizon run gives
    single = []
    for t0 in ("8.5", "4.5", "8.5"):
        one = tmp_path / f"one-{t0}.json"
        assert run(["compare", "--input", late_csv, "--t0", t0, "--boot", "20",
                    "--json", str(one)]) == 0
        single += json.loads(one.read_text())["results"]
    capsys.readouterr()
    assert_rows_close(results, single)
    assert results[0] == results[2]
