import csv
import io
import json

import pytest

from tdap import generate_cohort, write_cohort_csv
from tdap.cli import canonical_json, main

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
