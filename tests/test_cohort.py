import csv
import io
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference
import tdap._csvtext as csvtext
import tdap.cohort as cohort_module
from tdap import (
    CohortSample,
    ColumnMap,
    EmptyCohortError,
    InvalidStatusError,
    MalformedCsvError,
    MissingColumnError,
    NoEventsBeforeT0Error,
    NonNumericCellError,
    NonPositiveTimeError,
    NotPairedError,
    SubjectRecord,
    T0BeyondSupportError,
    estimate_horizon,
    fit_censoring_km,
    generate_cohort,
    ipcw_weights,
    pr_curve,
    read_cohort_csv,
    roc_curve,
    validate_horizon,
    write_cohort_csv,
)
from tdap.cli import _write_curves
from tdap.cohort import _read_rows

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


def test_text_stream_outside_the_io_hierarchy():
    # SpooledTemporaryFile is no io.TextIOBase, but its read() gives str
    quoted = 'time,status,score1\r\n"1",1,4\r\n5,1,3\r\n'
    for text in (PAIRED, quoted):
        with tempfile.SpooledTemporaryFile(mode="w+") as fh:
            fh.write(text)
            fh.seek(0)
            coh = read_cohort_csv(fh)
        assert coh == read_cohort_csv(io.StringIO(text))
    with tempfile.SpooledTemporaryFile(mode="w+") as fh:
        fh.write("time,status,score1\n1,1,oops\n")
        fh.seek(0)
        with pytest.raises(NonNumericCellError):
            read_cohort_csv(fh)


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


def test_overlong_cell_raises_malformed_csv(tmp_path):
    # an unmapped cell past csv.field_size_limit() (131072 characters)
    text = "time,status,score1,note\n1,1,4,ok\n2,0,3," + "x" * 200_000 + "\n"
    p = tmp_path / "long.csv"
    p.write_text(text)
    for source in (p, io.StringIO(text), io.BytesIO(text.encode())):
        with pytest.raises(MalformedCsvError) as err:
            read_cohort_csv(source)
        assert err.value.row == 3
        assert "field larger than field limit" in str(err.value)


def test_columnar_path_reads_clean_files(tmp_path, monkeypatch):
    # an unquoted, valid file never reaches the row reader
    def refuse(stream, columns):
        raise AssertionError("row reader used")

    p = tmp_path / "paired.csv"
    p.write_text(PAIRED)
    expected = read_cohort_csv(io.StringIO(PAIRED))
    monkeypatch.setattr(cohort_module, "_read_rows", refuse)
    assert read_cohort_csv(p) == expected
    assert read_cohort_csv(io.BytesIO(PAIRED.encode())) == expected


def test_header_only_input_warns_nothing():
    # numpy warns "input contained no data"; the reader must not leak it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for data in (
            b"time,status,score1",
            b"time,status,score1\n",
            b"time,status,score1\n\n\r\n",
            b"time,status,score1\r\r",
        ):
            with pytest.raises(EmptyCohortError):
                read_cohort_csv(io.BytesIO(data))
    assert [str(w.message) for w in caught] == []


# ---------------------------------------------------------------- reader paths

READER_SETTINGS = settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# csv.field_size_limit() while the differential test runs, so over-long
# cells stay short enough to generate
SMALL_FIELD_LIMIT = 1000

_PADS = st.sampled_from(["", "", "", " ", "\t", "\x1c", "\xa0", " \t"])
_NUMBER_FORMS = st.sampled_from(
    ["+1.5", "1.", ".5", "2e1", "2E-1", "1_0", "nan", "inf", "-inf", "Infinity",
     "1e500", "1e-400", "-0", "-0.0", "0", "1", "1.0", "+1", "", " ", "abc",
     "0x10", "\u0661", "3j", "1 2", "--1", "2"]
)
_ODD_CELLS = st.sampled_from(
    ['"1,5"', '"2\n3"', '"4"', '"', '"a,2,1,3,5,b"', "1\x00",
     "x" * (SMALL_FIELD_LIMIT + 5)]
)
_BLANK_LINES = st.sampled_from(["", "   ", "\t", ",,", " , ,"])
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def _one_in(k):
    return st.sampled_from([False] * (k - 1) + [True])


@st.composite
def _cell(draw, name, flavour):
    """One cell of column ``name``; ``flavour`` sets how odd it may be."""
    if flavour != "clean" and draw(_one_in(4)):
        text = draw(_ODD_CELLS if flavour == "odd" else _NUMBER_FORMS)
    elif name.strip() == "status":
        text = draw(st.sampled_from(["0", "1", "1.0", "0e0"]))
    elif name.strip() == "time":
        text = repr(draw(st.floats(min_value=1e-3, max_value=1e6)))
    else:
        text = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    return draw(_PADS) + text + draw(_PADS)


@st.composite
def _csv_bytes(draw):
    """CSV bytes: mostly valid, with every oddity the readers must agree on.

    Oddities: CR, LF and CRLF line ends, mixed; blank, whitespace-only
    and comma-only lines; padded cells (tab, \\x1c, NBSP); number forms
    Python and numpy might read differently; ragged rows; duplicate and
    missing header names; a BOM; quotes, NUL, over-long cells and bytes
    that are not UTF-8; header-only input.
    """
    flavour = draw(st.sampled_from(["clean", "clean", "forms", "odd"]))
    names = ["time", "status", "score1"]
    extra = st.sampled_from(["score2", "note", "time", " score1 "])
    names += draw(st.lists(extra, max_size=3))
    names = draw(st.permutations(names))
    if draw(_one_in(12)):
        names = names[1:]  # a required column may go missing
    lines = [",".join(names)]
    for _ in range(0 if draw(_one_in(10)) else draw(st.integers(1, 8))):
        if draw(_one_in(8)):
            lines.append(draw(_BLANK_LINES))
            continue
        row = [draw(_cell(name, flavour)) for name in names]
        if draw(_one_in(8)):
            row = row[: draw(st.integers(0, len(row)))]  # a short row
        elif draw(_one_in(8)):
            row += [draw(_cell("note", flavour))]  # a long row
        lines.append(",".join(row))
    style = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    text = "".join(
        line + (draw(_LINE_ENDS) if style == "mixed" else style) for line in lines
    )
    if draw(_one_in(4)):
        text = text.rstrip("\r\n")
    if draw(_one_in(12)):
        text = "\ufeff" + text
    data = text.encode("utf-8")
    if draw(_one_in(20)):
        data += b"\xff\n"
    return data


_COLUMN_MAPS = st.sampled_from(
    [ColumnMap(), ColumnMap(), ColumnMap(score2="note"), ColumnMap(score2="score1")]
)


def _outcome(read):
    try:
        coh = read()
    except Exception as err:  # the class and message are what is compared
        return ("error", type(err).__name__, str(err))
    arrays = (coh.times, coh.status, coh.score1, coh.score2)
    return ("cohort",) + tuple(None if a is None else a.tobytes() for a in arrays)


@READER_SETTINGS
@given(data=_csv_bytes(), columns=_COLUMN_MAPS)
@example(data=b"time,status,score1,score2\r1,1,4,5\r2,0,3,1\r", columns=ColumnMap())
@example(data=b"time,status,score1\r\n1,1,4\r\n\r\n2,0,3", columns=ColumnMap())
@example(data=b"time,status,score1\n", columns=ColumnMap())
@example(data=b"\n1,1,4\n", columns=ColumnMap(time="", status="", score1=""))
@example(data=b'note,time,status,score1\n"a,2,1,3,b",1,1,4\n', columns=ColumnMap())
@example(
    data=b"time,status,score1,note\n1,1,4," + b"x" * SMALL_FIELD_LIMIT + b"\n",
    columns=ColumnMap(),
)
def test_columnar_reader_matches_row_reader(data, columns):
    old_limit = csv.field_size_limit(SMALL_FIELD_LIMIT)
    try:
        public = _outcome(lambda: read_cohort_csv(io.BytesIO(data), columns))
        rows = _outcome(
            lambda: _read_rows(
                io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""),
                columns,
            )
        )
    finally:
        csv.field_size_limit(old_limit)
    assert public == rows


# ---------------------------------------------------------------- writers


@st.composite
def _cohorts(draw):
    n = draw(st.integers(1, 40))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    positive = st.floats(min_value=5e-324, max_value=1e300)
    times = draw(st.lists(positive, min_size=n, max_size=n))
    status = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    # few distinct scores, so runs of equal values (and of 0.0 / -0.0) occur
    pool = draw(st.lists(finite, min_size=1, max_size=4)) + [0.0, -0.0]
    scores = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    score2 = draw(scores) if draw(st.booleans()) else None
    return CohortSample(times, status, draw(scores), score2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coh=_cohorts())
def test_cohort_writer_matches_row_writer(coh):
    ours, theirs = io.StringIO(), io.StringIO()
    write_cohort_csv(coh, ours)
    reference.write_cohort_rows(coh, theirs)
    assert ours.getvalue() == theirs.getvalue()
    back = read_cohort_csv(io.BytesIO(ours.getvalue().encode()))
    assert back == coh


# where repr changes layout: positional vs exponent, the fast path's range
_SWITCH_POINTS = [
    1e-4,
    1e-5,
    9999999999999998.0,
    1e16,
    1e22,
    2.0**50,
    float(np.nextafter(2.0**50, 0)),
    float(np.nextafter(2.0**50, np.inf)),
    5e-324,
    2.2250738585072014e-308,
]
_WRITER_POOL = [0.0, -0.0, 1.0, 0.1, 5e-324, float("inf"), float("nan")] + [
    -1.0, -0.1, -2.5, float("-inf"), 123.456, -9.87654321e-7,
] + _SWITCH_POINTS + [-v for v in _SWITCH_POINTS]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    values=st.lists(
        st.sampled_from(_WRITER_POOL),
        min_size=0,
        max_size=60,
    ),
    ints=st.lists(
        st.one_of(st.integers(-1000, 1000), st.integers(-(2**63), 2**63 - 1)),
        min_size=60,
        max_size=60,
    ),
    block=st.integers(1, 7),
)
def test_column_writer_matches_csv_writer(values, ints, block):
    # runs of equal values across small blocks; 0.0 and -0.0 must stay apart
    ints = ints[: len(values)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cohort_module, "_CSV_BLOCK_ROWS", block)
        arr = np.array(values, dtype=float)
        labels = [f"r{i}" for i in range(len(values))]
        ours = io.StringIO()
        cohort_module._write_csv(
            ours,
            ("x", "label", "y", "k"),
            (arr, labels, arr[::-1].copy(), np.array(ints, dtype=np.int64)),
        )
    theirs = io.StringIO()
    writer = csv.writer(theirs)
    writer.writerow(["x", "label", "y", "k"])
    for x, label, y, k in zip(values, labels, values[::-1], ints):
        writer.writerow([repr(x), label, repr(y), str(k)])
    assert ours.getvalue() == theirs.getvalue()


def _written(values) -> list[str]:
    """The cells of one float64 column as the CSV writer writes them."""
    buf = io.StringIO()
    cohort_module._write_csv(buf, ("x",), (np.asarray(values, dtype=np.float64),))
    return buf.getvalue().split("\r\n")[1:-1]


def test_float_text_matches_repr():
    rng = np.random.default_rng(20181)
    # random bit patterns: 96 per biased exponent, either sign
    exponents = np.repeat(np.arange(2048, dtype=np.uint64), 96)
    mantissas = rng.integers(0, 2**52, exponents.size, dtype=np.uint64)
    signs = rng.integers(0, 2, exponents.size, dtype=np.uint64)
    bits = (signs << np.uint64(63)) | (exponents << np.uint64(52)) | mantissas
    powers = np.array([2.0**k for k in range(-1074, 1024)] + [10.0**k for k in range(-323, 309)])
    pool = np.concatenate(
        [
            bits.view(np.float64),
            powers,
            np.nextafter(powers, 0.0),
            np.nextafter(powers, np.inf),
            -powers,
            _SWITCH_POINTS,
            np.nextafter(_SWITCH_POINTS, 0.0),
            np.nextafter(_SWITCH_POINTS, np.inf),
            rng.standard_normal(4000) * np.exp(rng.uniform(-30, 30, 4000)),
            np.round(rng.standard_normal(4000), 3),
        ]
    )
    assert pool.size >= 200_000
    assert _written(pool) == [repr(v) for v in pool.tolist()]


def test_float_text_calls_repr_only_off_the_fast_path(monkeypatch):
    handed = []
    text_cells = csvtext._text_cells

    def counted(words, rows, *args):
        handed.append(rows.size)
        text_cells(words, rows, *args)

    monkeypatch.setattr(csvtext, "_text_cells", counted)
    values = np.random.default_rng(7).standard_normal(3000)
    assert _written(values) == [repr(v) for v in values.tolist()]
    assert sum(handed) == 0
    # subnormals, inf, nan, dyadic fractions and large values go to repr;
    # whole values below 1e16, zeros included, do not
    _written([0.0, -0.0, 5e-324, np.inf, np.nan, 0.5, 2.0**60 + 2**9, 3.0, 1e15])
    assert sum(handed) == 5


def test_writer_without_short_repr_uses_repr_alone(monkeypatch):
    values = np.array(_WRITER_POOL * 3)
    expected = [repr(v) for v in values.tolist()]
    assert _written(values) == expected

    def unused(*args):
        raise AssertionError("the float kernel ran")

    monkeypatch.setattr(sys, "float_repr_style", "legacy")
    monkeypatch.setattr(csvtext, "_shortest", unused)
    monkeypatch.setattr(csvtext, "_layout", unused)
    assert _written(values) == expected


def test_curve_writer_matches_row_writer(tmp_path):
    for n, digits, t0 in ((300, 1, 8.0), (2000, 2, 36.0), (5000, None, 8.0)):
        coh = generate_cohort(n, n)
        if digits is not None:
            coh = CohortSample(coh.times, coh.status, np.round(coh.score1, digits))
        w = ipcw_weights(coh, fit_censoring_km(coh), t0)
        path = tmp_path / "curves.csv"
        _write_curves(str(path), coh, t0)
        theirs = io.StringIO()
        reference.write_curve_rows(pr_curve(coh, w, t0), roc_curve(coh, w, t0), theirs)
        assert path.read_bytes() == theirs.getvalue().encode()
