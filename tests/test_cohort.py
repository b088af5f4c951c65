import io

import numpy as np
import pytest

from tdap import (
    CohortSample,
    ColumnMap,
    EmptyCohortError,
    InvalidStatusError,
    MissingColumnError,
    NoEventsBeforeT0Error,
    NonNumericCellError,
    NonPositiveTimeError,
    NotPairedError,
    SubjectRecord,
    T0BeyondSupportError,
    estimate_horizon,
    read_cohort_csv,
    validate_horizon,
    write_cohort_csv,
)

BASIC = "time,status,score1\n1,1,4\n5,1,3\n2,1,2\n6,1,1\n"
PAIRED = "time,status,score1,score2\n1,1,4,0.1\n5,1,3,0.2\n2,1,2,0.3\n6,1,1,0.4\n"


def test_parse_basic():
    coh = read_cohort_csv(io.StringIO(BASIC))
    assert coh.n == 4
    assert not coh.paired
    assert coh.times.tolist() == [1, 5, 2, 6]
    assert coh.status.tolist() == [1, 1, 1, 1]
    assert coh.score1.tolist() == [4, 3, 2, 1]


def test_score2_autodetected():
    coh = read_cohort_csv(io.StringIO(PAIRED))
    assert coh.paired
    assert coh.score2.tolist() == [0.1, 0.2, 0.3, 0.4]


def test_explicit_score2_column():
    text = "time,status,score1,other\n1,1,4,9\n"
    coh = read_cohort_csv(io.StringIO(text), ColumnMap(score2="other"))
    assert coh.paired and coh.score2.tolist() == [9]


def test_explicit_missing_score2_raises():
    with pytest.raises(MissingColumnError):
        read_cohort_csv(io.StringIO(BASIC), ColumnMap(score2="nope"))


def test_missing_required_column():
    with pytest.raises(MissingColumnError) as err:
        read_cohort_csv(io.StringIO("time,score1\n1,2\n"))
    assert err.value.column == "status"


def test_renamed_columns():
    text = "followup,event,marker\n2.5,0,1.25\n"
    coh = read_cohort_csv(
        io.StringIO(text), ColumnMap(time="followup", status="event", score1="marker")
    )
    assert coh.times.tolist() == [2.5]
    assert coh.status.tolist() == [0]


def test_non_numeric_cell_reports_location():
    text = "time,status,score1\n1,1,4\n5,1,oops\n"
    with pytest.raises(NonNumericCellError) as err:
        read_cohort_csv(io.StringIO(text))
    assert err.value.row == 3
    assert err.value.column == "score1"


def test_missing_cell_in_short_row():
    text = "time,status,score1,score2\n1,1,4,0.5\n2,1,3\n"
    with pytest.raises(NonNumericCellError) as err:
        read_cohort_csv(io.StringIO(text))
    assert err.value.row == 3 and err.value.column == "score2"


def test_nan_and_inf_rejected():
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(NonNumericCellError):
            read_cohort_csv(io.StringIO(f"time,status,score1\n1,1,{bad}\n"))


def test_non_positive_time():
    with pytest.raises(NonPositiveTimeError) as err:
        read_cohort_csv(io.StringIO("time,status,score1\n0,1,4\n"))
    assert err.value.row == 2
    with pytest.raises(NonPositiveTimeError):
        read_cohort_csv(io.StringIO("time,status,score1\n-3,1,4\n"))


def test_invalid_status():
    for bad in ("2", "0.5", "-1", "yes"):
        with pytest.raises(InvalidStatusError):
            read_cohort_csv(io.StringIO(f"time,status,score1\n1,{bad},4\n"))


def test_empty_inputs():
    with pytest.raises(EmptyCohortError):
        read_cohort_csv(io.StringIO(""))
    with pytest.raises(EmptyCohortError):
        read_cohort_csv(io.StringIO("time,status,score1\n"))


def test_blank_lines_skipped():
    coh = read_cohort_csv(io.StringIO("time,status,score1\n1,1,4\n\n2,0,3\n"))
    assert coh.n == 2


def test_path_round_trip(tmp_path):
    p = tmp_path / "cohort.csv"
    p.write_text(PAIRED)
    coh = read_cohort_csv(p)
    assert coh.n == 4 and coh.paired


def test_lossless_round_trip_full_precision():
    rng = np.random.default_rng(42)
    times = np.abs(rng.standard_normal(50)) + 1e-9
    status = (rng.random(50) < 0.5).astype(float)
    s1 = rng.standard_normal(50) * rng.integers(1, 100, 50)
    s2 = rng.standard_normal(50) / 3.0
    coh = CohortSample(times, status, s1, s2)
    buf = io.StringIO()
    write_cohort_csv(coh, buf)
    back = read_cohort_csv(io.StringIO(buf.getvalue()))
    assert back == coh
    assert np.array_equal(back.times, coh.times)
    assert np.array_equal(back.score2, coh.score2)


def test_take_resamples_rows_and_keeps_pairs():
    coh = read_cohort_csv(io.StringIO(PAIRED))
    sub = coh.take([2, 2, 0])
    assert sub.times.tolist() == [2, 2, 1]
    assert sub.score1.tolist() == [2, 2, 4]
    assert sub.score2.tolist() == [0.3, 0.3, 0.1]


def test_records_and_from_records_round_trip():
    coh = read_cohort_csv(io.StringIO(PAIRED))
    rebuilt = CohortSample.from_records(list(coh.records()))
    assert rebuilt == coh


def test_subject_record_validation():
    with pytest.raises(NonPositiveTimeError):
        SubjectRecord(time=0.0, status=1, score1=1.0)
    with pytest.raises(InvalidStatusError):
        SubjectRecord(time=1.0, status=3, score1=1.0)
    with pytest.raises(NonNumericCellError):
        SubjectRecord(time=1.0, status=1, score1=float("nan"))


def test_cohort_is_immutable():
    coh = read_cohort_csv(io.StringIO(BASIC))
    with pytest.raises(AttributeError):
        coh.times = np.zeros(4)
    with pytest.raises(ValueError):
        coh.times[0] = 99.0


def test_scores_selector():
    coh = read_cohort_csv(io.StringIO(BASIC))
    assert np.array_equal(coh.scores(1), coh.score1)
    with pytest.raises(NotPairedError):
        coh.scores(2)
    with pytest.raises(ValueError):
        coh.scores(3)


def test_validate_horizon():
    coh = read_cohort_csv(io.StringIO(BASIC))
    validate_horizon(coh, 2.5)  # fine: events at 1 and 2, max time 6
    with pytest.raises(T0BeyondSupportError):
        validate_horizon(coh, 6.5)
    with pytest.raises(NoEventsBeforeT0Error):
        validate_horizon(coh, 0.5)
    censored = CohortSample([1, 5], [0, 1], [1, 2])
    with pytest.raises(NoEventsBeforeT0Error):
        validate_horizon(censored, 2.0)  # the only early time is censored
    with pytest.raises(ValueError):
        validate_horizon(coh, -1.0)


def test_validate_horizon_numeric_types():
    coh = read_cohort_csv(io.StringIO(BASIC))
    # numpy scalars are real numbers and give the same estimates
    for t0 in (np.int64(3), np.float32(2.5), np.float64(2.5), np.uint8(3)):
        validate_horizon(coh, t0)
        assert estimate_horizon(coh, t0) == estimate_horizon(coh, float(t0))
    # a bool is not a horizon, even though True == 1
    for t0 in (True, False, np.True_, "3", None):
        with pytest.raises(ValueError):
            validate_horizon(coh, t0)
    with pytest.raises(ValueError):
        estimate_horizon(coh, True)


def test_fuzz_parser_agrees_with_arrays():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(1, 40))
        times = rng.uniform(0.01, 10, n)
        status = (rng.random(n) < 0.6).astype(int)
        scores = np.round(rng.standard_normal(n), 3)
        lines = ["time,status,score1"]
        for i in range(n):
            lines.append(f"{float(times[i])!r},{status[i]},{float(scores[i])!r}")
        coh = read_cohort_csv(io.StringIO("\n".join(lines) + "\n"))
        assert coh == CohortSample(times, status, scores)
