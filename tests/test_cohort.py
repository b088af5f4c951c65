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


@pytest.mark.parametrize(
    "fields, error",
    [
        ((True, 1, 0.5), NonNumericCellError),  # a bool is not a time
        ((1.0, True, 0.5), InvalidStatusError),  # nor a status
        ((1.0, 1, False), NonNumericCellError),  # nor a score
        ((1.0, 1, 0.5, True), NonNumericCellError),
        ((1.0, np.float64(0.5), 0.5), InvalidStatusError),
        ((1.0, "1", 0.5), InvalidStatusError),
        ((1.0, 1, float("inf")), NonNumericCellError),
    ],
)
def test_subject_record_rejects_odd_types(fields, error):
    with pytest.raises(error):
        SubjectRecord(*fields)


@pytest.mark.parametrize(
    "fields",
    [
        (np.int64(2), 1, 0.5),  # finite numpy scalars used to read as "not a finite number"
        (1.0, 1, np.float32(0.5)),
        (2, np.int64(1), 0.5, np.float64(0.25)),
        (np.float32(2.0), 1.0, 0, 0.25),
    ],
)
def test_subject_record_stores_plain_numbers(fields):
    record = SubjectRecord(*fields)
    got = (record.time, record.status, record.score1, record.score2)
    want = (float(fields[0]), int(fields[1]), float(fields[2]))
    assert got[:3] == want and [type(v) for v in got[:3]] == [float, int, float]
    if len(fields) == 4:
        assert type(record.score2) is float and record.score2 == float(fields[3])
    else:
        assert record.score2 is None


def test_cohort_is_immutable():
    coh = read_cohort_csv(io.StringIO(BASIC))
    with pytest.raises(AttributeError):
        coh.times = np.zeros(4)
    with pytest.raises(ValueError):
        coh.times[0] = 99.0


def test_cohort_copies_the_callers_arrays():
    # freezing a cohort must never touch a caller's buffers
    mine = [np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 1.0]),
            np.array([0.3, 0.1, 0.2]), np.array([0.5, 0.4, 0.6])]
    before = [a.copy() for a in mine]
    coh = CohortSample(*mine)
    held = (coh.times, coh.status, coh.score1, coh.score2)
    for a, was, kept in zip(mine, before, held):
        assert a.flags.writeable and np.array_equal(a, was)
        assert not kept.flags.writeable and not np.shares_memory(a, kept)
        a[0] = 7.0
        assert kept[0] == was[0]


def test_reader_and_generator_hand_their_columns_over(monkeypatch, tmp_path):
    # the column reader's and the generator's arrays are frozen in place:
    # a cohort they build holds no second set of columns
    import tdap.simulation as simulation

    tables, draws = [], []

    def read_spy(*args):
        tables.append(csvtext.read_columns(*args))
        return tables[-1]

    def draw_spy(n, rng):
        draws.append(real_draw(n, rng))
        return draws[-1]

    real_draw = simulation._draw_latent
    monkeypatch.setattr(cohort_module, "read_columns", read_spy)
    monkeypatch.setattr(simulation, "_draw_latent", draw_spy)
    coh = generate_cohort(1000, 3)
    _, _, u1, u2 = draws[0]
    assert np.shares_memory(coh.score1, u1) and np.shares_memory(coh.score2, u2)
    path = tmp_path / "paired.csv"
    write_cohort_csv(coh, path)
    read = read_cohort_csv(path)
    assert read == coh
    ((table, _),) = tables
    for handed, kept in zip(table, (read.times, read.status, read.score1, read.score2)):
        assert np.shares_memory(handed, kept) and not kept.flags.writeable


def test_scores_selector():
    coh = read_cohort_csv(io.StringIO(BASIC))
    assert np.array_equal(coh.scores(1), coh.score1)
    assert coh.scores(np.int64(1)) is coh.scores(np.uint8(1)) is coh.score1
    with pytest.raises(NotPairedError):
        coh.scores(2)
    # True == 1 and 2.0 == 2, but neither is a score number
    for which in (3, 0, True, np.True_, 1.0, 2.0, np.float64(1.0), "1", None):
        with pytest.raises(ValueError, match="score selector must be 1 or 2"):
            coh.scores(which)


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


def _odd_cohort(n: int) -> CohortSample:
    """A generated paired cohort with 17-digit, exponent, subnormal and
    signed-zero cells among its scores and times."""
    coh = generate_cohort(n, 11)
    times, s1, s2 = coh.times.copy(), coh.score1.copy(), coh.score2.copy()
    times[:6] = [1e-7, 3.5e-5, 1e22, 2.0**53 + 2, 7.0, 123456789.0]
    s1[:8] = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
              -1e-300, 0.1 + 0.2, 9007199254740993.0]
    s2[:4] = [1e16, -1.2345678901234567e-5, 4.9406564584124654e-320, 1e23]
    return CohortSample(times, coh.status, s1, s2)


def test_columnar_path_reads_clean_files(tmp_path, monkeypatch):
    # an unquoted, valid file never reaches the row reader: a silent
    # fallback would cost the column parse its speed
    def refuse(stream, columns):
        raise AssertionError("row reader used")

    p = tmp_path / "paired.csv"
    p.write_text(PAIRED)
    expected = read_cohort_csv(io.StringIO(PAIRED))
    coh = _odd_cohort(3000)
    buf = io.StringIO()
    write_cohort_csv(coh, buf)
    written = buf.getvalue()
    assert "e-" in written and "-0.0" in written and "5e-324" in written
    monkeypatch.setattr(cohort_module, "_read_rows", refuse)
    # small blocks, so that files span many of them
    monkeypatch.setattr(cohort_module, "_READ_BLOCK_BYTES", 4096)
    assert read_cohort_csv(p) == expected
    assert read_cohort_csv(io.BytesIO(PAIRED.encode())) == expected
    for end in ("\r\n", "\n", "\r"):
        data = written.replace("\r\n", end).encode()
        for tail in (b"", end.encode() * 2):
            back = read_cohort_csv(io.BytesIO(data.rstrip(b"\r\n") + tail))
            for ours, theirs in zip(
                (back.times, back.status, back.score1, back.score2),
                (coh.times, coh.status, coh.score1, coh.score2),
            ):
                assert ours.tobytes() == theirs.tobytes()


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


# ---------------------------------------------------------------- column parse


def _parsed(texts, block_bytes=1 << 16):
    """Each text's float64 as the column parse reads it, and how many
    cells it handed to ``float``."""
    data = ("x\n" + "\n".join(texts) + "\n").encode()
    (column,), slow = csvtext.read_columns(data, 1, 1, [0], block_bytes)
    return column, slow


def _halfway_texts(rng) -> list[str]:
    """Decimal texts of values exactly halfway between two doubles, and
    one unit in the last digit either side of each."""
    texts = []
    # between doubles with 53-bit mantissa m at scale 2**e: (2m + 1) 2**(e - 1)
    for e in range(-3, 12):
        for m in rng.integers(2**52, 2**53, 300).tolist():
            odd = 2 * m + 1
            digits, exp = (odd << (e - 1), 0) if e >= 1 else (odd * 5 ** (1 - e), e - 1)
            texts += [f"{d}e{exp}" for d in (digits - 1, digits, digits + 1) if d < 10**19]
    # halfway cases with q > 0: an odd 54-bit multiple of 5**q, times 2**j
    for q in range(1, 24):
        low, high = 2**53 // 5**q + 1, 2**54 // 5**q + 1
        for r in range(low, high) if high - low < 50 else rng.integers(low, high, 50).tolist():
            if (r * 5**q) % 2 == 1 and (r * 5**q).bit_length() == 54:
                for j in range(3):
                    w = r << j
                    texts += [f"{d}e{q}" for d in (w - 1, w, w + 1) if d < 10**19]
    return texts


def test_column_parse_matches_float_bit_for_bit():
    rng = np.random.default_rng(1990)
    # random bit patterns: 200 per finite biased exponent, either sign
    exponents = np.repeat(np.arange(2047, dtype=np.uint64), 200)
    mantissas = rng.integers(0, 2**52, exponents.size, dtype=np.uint64)
    signs = rng.integers(0, 2, exponents.size, dtype=np.uint64)
    bits = (signs << np.uint64(63)) | (exponents << np.uint64(52)) | mantissas
    texts = list(map(repr, bits.view(np.float64).tolist()))
    # short decimals
    whole = rng.integers(0, 10**6, 100_000).tolist()
    frac = rng.integers(0, 10**4, 100_000).tolist()
    texts += [f"{a}.{b}" for a, b in zip(whole, frac)] + [str(a) for a in whole[:20_000]]
    # 17 to 19 digits, positional and with exponents
    for digits in (17, 18, 19):
        for w in rng.integers(10 ** (digits - 1), 10**digits - 1, 50_000, dtype=np.uint64).tolist():
            q = int(rng.integers(-340, 300))
            point = int(rng.integers(0, digits + 1))
            text = str(w)
            texts += [f"{w}e{q}", f"-{text[:point]}.{text[point:]}", f"0.000{text}"]
    # Clinger's bounds: 2**53 and its neighbours, |q| = 22 and 23
    for w in (2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2, 1, 3, 10**15 + 1):
        for q in (0, 1, -1, 21, 22, 23, -21, -22, -23, 308, -308, -324, -342, -343, 309):
            texts += [f"{w}e{q}", f"{w}E{q:+d}", f"-{w}.0e{q}"]
    texts += _halfway_texts(rng)
    # the writer's own text
    values = rng.standard_normal(100_000) * np.exp(rng.uniform(-700, 700, 100_000))
    buf = io.StringIO()
    cohort_module._write_csv(buf, ("x",), (values,))
    texts += buf.getvalue().split("\r\n")[1:-1]
    texts += ["0", "-0", "+0.0", "00.00e0", ".5", "5.", "+.5e-3", "-7.e+2", "1e0000005"]
    # the largest double and the overflow past it; the normal/subnormal
    # seam; the least subnormal and half of it
    texts += ["1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
              "2.2250738585072011e-308", "2.2250738585072012e-308", "4.9406564584124654e-324",
              "2.4703282292062327e-324", "2.4703282292062328e-324"]
    assert len(texts) >= 1_000_000
    column, slow = _parsed(texts)
    expected = np.array([float(t) for t in texts])
    assert column.tobytes() == expected.tobytes()
    assert slow == sum(map(_for_float, texts))


def _for_float(text: str) -> bool:
    """Whether the column parse hands ``text`` to ``float``: digits that
    reach 1844 * 10**16 (just below 2**64) with a point read as a 0
    digit, an exponent of more than 8 digits, or a decimal exponent
    outside [-342, 308]."""
    mantissa, _, exponent = text.lstrip("+-").lower().partition("e")
    if int(mantissa.replace(".", "0") or 0) >= 1844 * 10**16 or len(exponent.lstrip("+-")) > 8:
        return True
    q = int(exponent or 0) - len(mantissa.partition(".")[2])
    return int(mantissa.replace(".", "") or 0) != 0 and not -342 <= q <= 308


def test_column_parse_hands_long_cells_to_float():
    texts = ["1" * 20, "0." + "3" * 30, "1e123456789", "12345678901234567890123e-3",
             "1.5", "2e-400", "-3e400", "18000000000000000000", "0.18000000000000000000",
             "1.234567890123456789", "18439999999999999999e-3", "0.0001843999999999999999"]
    column, slow = _parsed(texts)
    assert column.tobytes() == np.array([float(t) for t in texts]).tobytes()
    assert slow == 5 == sum(map(_for_float, texts))


@pytest.mark.parametrize(
    "text", ["1_0", "nan", "inf", " 1", "1 ", "--1", "1e", "1.2.3", "e5", ".", "+", "1e+",
             "0x10", "\u0661", "1\t"]
)
def test_column_parse_rejects_other_cells(text):
    with pytest.raises(csvtext.Unparsed):
        _parsed(["1.5", text, "2"])


def test_utf8_byte_order_mark_is_dropped(tmp_path):
    text = "\ufefftime,status,score1\r\n1.5,1,4\r\n2,0,3\r\n"
    expected = read_cohort_csv(io.StringIO(text[1:]))
    p = tmp_path / "excel.csv"
    p.write_bytes(text.encode("utf-8"))
    for source in (p, io.BytesIO(text.encode("utf-8")), io.StringIO(text)):
        assert read_cohort_csv(source) == expected
    # the row reader's line numbers stay as they were
    bad = "\ufefftime,status,score1\n1,1,4\n2,0,x\n"
    for source in (io.BytesIO(bad.encode("utf-8")), io.StringIO(bad)):
        with pytest.raises(NonNumericCellError) as err:
            read_cohort_csv(source)
        assert err.value.row == 3


class _PathLike:
    def __init__(self, path):
        self.path = path

    def __fspath__(self):
        return str(self.path)


def test_path_like_sources_and_destinations(tmp_path):
    import os

    from tdap import ReportRow, SimulationConfig, SimulationReport

    coh = read_cohort_csv(io.StringIO(PAIRED))
    write_cohort_csv(coh, _PathLike(tmp_path / "written.csv"))
    assert read_cohort_csv(_PathLike(tmp_path / "written.csv")) == coh
    (entry,) = [e for e in os.scandir(tmp_path) if e.name == "written.csv"]
    assert read_cohort_csv(entry) == coh
    row = ReportRow(8.0, 0.1, "ap", 0.5, 0.0, 0.1, 0.1, 95.0)
    report = SimulationReport(SimulationConfig(), (row,), 0.3, 0)
    report.to_csv(_PathLike(tmp_path / "study.csv"))
    theirs = io.StringIO()
    report.to_csv(theirs)
    assert (tmp_path / "study.csv").read_bytes() == theirs.getvalue().encode()


def test_reader_logs_its_path(caplog, tmp_path):
    caplog.set_level("DEBUG", logger="tdap")
    cases = [
        (PAIRED.encode(), "read by columns: 4 rows, 0 cells by float()"),
        (b"time,status,score1\n" + b"1" * 25 + b",1,4\n", "read by columns: 1 rows, 1 cells by float()"),
        (b'time,status,score1\n"1",1,4\n', "row reader: a quote or NUL"),
        (b"time,status\n1,1\n", "row reader: the header"),
        (b"time,status,score1\n1, 1,4\n", "row reader: a cell that is not a decimal number"),
        (b"time,status,score1\n1,1\n", "row reader: a line whose field count"),
        (b"time,status,score1\n1,2,4\n", "row reader: a failed check (InvalidStatusError)"),
        (b"time,status,score1,note\n1,1,4,\xff\n", "row reader: bytes that are not UTF-8"),
    ]
    for data, message in cases:
        caplog.clear()
        try:
            read_cohort_csv(io.BytesIO(data))
        except Exception:
            pass
        assert [r.name for r in caplog.records] == ["tdap.cohort"]
        assert message in caplog.records[0].getMessage()
    caplog.clear()
    read_cohort_csv(io.StringIO(PAIRED))
    assert "read by rows: a text stream" in caplog.text


def test_logger_is_silent_by_default():
    import logging

    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("tdap").handlers)
