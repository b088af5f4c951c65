"""Cohort data model and CSV ingestion.

A cohort is a set of subjects, each carrying a right-censored follow-up
time, an event indicator (1 = event observed, 0 = censored), and one or
two risk scores.  Higher scores always mean higher predicted risk.  A
cohort with two scores per subject is *paired* and supports head-to-head
accuracy comparisons.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import numbers
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    EmptyCohortError,
    InvalidStatusError,
    MalformedCsvError,
    MissingColumnError,
    NoEventsBeforeT0Error,
    NonNumericCellError,
    NonPositiveTimeError,
    NotPairedError,
    T0BeyondSupportError,
    TdapError,
)

__all__ = [
    "SubjectRecord",
    "CohortSample",
    "ColumnMap",
    "read_cohort_csv",
    "write_cohort_csv",
    "validate_horizon",
]

# rows formatted and written per block by the CSV writer
_CSV_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class SubjectRecord:
    """One subject: follow-up time, event indicator, and score(s)."""

    time: float
    status: int
    score1: float
    score2: float | None = None

    def __post_init__(self):
        if not (isinstance(self.time, (int, float)) and math.isfinite(self.time)):
            raise NonNumericCellError(None, "time", repr(self.time))
        if self.time <= 0:
            raise NonPositiveTimeError(None, self.time)
        if self.status not in (0, 1):
            raise InvalidStatusError(None, self.status)
        if not (isinstance(self.score1, (int, float)) and math.isfinite(self.score1)):
            raise NonNumericCellError(None, "score1", repr(self.score1))
        if self.score2 is not None and not (
            isinstance(self.score2, (int, float)) and math.isfinite(self.score2)
        ):
            raise NonNumericCellError(None, "score2", repr(self.score2))


@dataclass(frozen=True)
class ColumnMap:
    """Names of the CSV columns holding each field.

    ``score2`` has a twist: when left as None, a column literally named
    ``score2`` is picked up automatically if present; naming a column
    explicitly makes it required.
    """

    time: str = "time"
    status: str = "status"
    score1: str = "score1"
    score2: str | None = None


class CohortSample:
    """Immutable columnar view of a cohort.

    Parameters
    ----------
    times, status, score1 : array-like, one value per subject
    score2 : array-like or None
        Second score for paired cohorts.

    All arrays are validated (finite, times > 0, status in {0, 1}) and
    stored as read-only float64 arrays.
    """

    __slots__ = ("times", "status", "score1", "score2")

    def __init__(self, times, status, score1, score2=None, _rows=None):
        # copy so freezing the arrays never mutates caller-owned buffers
        times = np.array(times, dtype=float)
        status_arr = np.array(status, dtype=float)
        score1 = np.array(score1, dtype=float)
        score2 = None if score2 is None else np.array(score2, dtype=float)
        if times.size == 0:
            raise EmptyCohortError()
        n = times.size
        for name, arr in (("time", times), ("status", status_arr), ("score1", score1)):
            if arr.shape != (n,):
                raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
        if score2 is not None and score2.shape != (n,):
            raise ValueError(f"score2 has shape {score2.shape}, expected ({n},)")

        def _line(i: int) -> int | None:
            return None if _rows is None else _rows[i]

        bad = ~np.isfinite(times)
        if bad.any():
            i = int(np.argmax(bad))
            raise NonNumericCellError(_line(i), "time", repr(times[i]))
        bad = times <= 0
        if bad.any():
            i = int(np.argmax(bad))
            raise NonPositiveTimeError(_line(i), float(times[i]))
        with np.errstate(invalid="ignore"):
            bad = ~((status_arr == 0.0) | (status_arr == 1.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidStatusError(_line(i), status_arr[i])
        for name, arr in (("score1", score1),) + (
            () if score2 is None else (("score2", score2),)
        ):
            bad = ~np.isfinite(arr)
            if bad.any():
                i = int(np.argmax(bad))
                raise NonNumericCellError(_line(i), name, repr(arr[i]))

        for arr in (times, status_arr, score1, score2):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "status", status_arr)
        object.__setattr__(self, "score1", score1)
        object.__setattr__(self, "score2", score2)

    def __setattr__(self, name, value):
        raise AttributeError("CohortSample is immutable")

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def paired(self) -> bool:
        return self.score2 is not None

    def scores(self, which: int = 1) -> np.ndarray:
        """Return the score column (1 or 2); 2 requires a paired cohort."""
        if which == 1:
            return self.score1
        if which == 2:
            if self.score2 is None:
                raise NotPairedError()
            return self.score2
        raise ValueError(f"score selector must be 1 or 2, got {which!r}")

    def take(self, indices) -> "CohortSample":
        """Row subset/resample; keeps score pairs attached to their subject."""
        idx = np.asarray(indices, dtype=np.intp)
        return CohortSample(
            self.times[idx],
            self.status[idx],
            self.score1[idx],
            None if self.score2 is None else self.score2[idx],
        )

    def records(self) -> Iterator[SubjectRecord]:
        for i in range(self.n):
            yield SubjectRecord(
                float(self.times[i]),
                int(self.status[i]),
                float(self.score1[i]),
                None if self.score2 is None else float(self.score2[i]),
            )

    @classmethod
    def from_records(cls, records: Sequence[SubjectRecord]) -> "CohortSample":
        records = list(records)
        if not records:
            raise EmptyCohortError()
        paired = records[0].score2 is not None
        if any((r.score2 is not None) != paired for r in records):
            raise ValueError("records mix paired and unpaired subjects")
        return cls(
            [r.time for r in records],
            [r.status for r in records],
            [r.score1 for r in records],
            [r.score2 for r in records] if paired else None,
        )

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohortSample):
            return NotImplemented
        if self.paired != other.paired or self.n != other.n:
            return False
        same = (
            np.array_equal(self.times, other.times)
            and np.array_equal(self.status, other.status)
            and np.array_equal(self.score1, other.score1)
        )
        if same and self.paired:
            same = np.array_equal(self.score2, other.score2)
        return same

    def __repr__(self) -> str:
        kind = "paired" if self.paired else "single-score"
        return f"CohortSample(n={self.n}, {kind})"


def _parse_float(text: str, line: int, column: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise NonNumericCellError(line, column, text) from None
    if not math.isfinite(value):
        raise NonNumericCellError(line, column, text)
    return value


def _header_positions(
    header: list[str], columns: ColumnMap
) -> tuple[dict[str, int], str | None]:
    """Header position of each mapped column, and the score2 column in use."""
    positions: dict[str, int] = {}
    for name in (columns.time, columns.status, columns.score1):
        if name not in header:
            raise MissingColumnError(name)
        positions[name] = header.index(name)
    score2_name = columns.score2
    if score2_name is not None:
        if score2_name not in header:
            raise MissingColumnError(score2_name)
    elif "score2" in header:
        score2_name = "score2"
    if score2_name is not None:
        positions[score2_name] = header.index(score2_name)
    return positions, score2_name


def _csv_rows(stream) -> Iterator[list[str]]:
    """``csv.reader`` rows; malformed CSV raises MalformedCsvError."""
    reader = csv.reader(stream)
    try:
        yield from reader
    except csv.Error as err:
        raise MalformedCsvError(reader.line_num, str(err)) from None


def _read_rows(stream, columns: ColumnMap) -> CohortSample:
    """Parse a text stream row by row.

    This is the reference reader: it handles quoted cells, and every
    ingestion error (class, message and line number) comes from here.
    """
    rows = _csv_rows(stream)
    header = next(rows, None)
    if header is None:
        raise EmptyCohortError("input has no header row")
    positions, score2_name = _header_positions([h.strip() for h in header], columns)

    times: list[float] = []
    status: list[float] = []
    score1: list[float] = []
    score2: list[float] | None = [] if score2_name is not None else None
    lines: list[int] = []

    def cell(row: list[str], name: str, line: int) -> str:
        pos = positions[name]
        if pos >= len(row):
            raise NonNumericCellError(line, name, "<missing>")
        return row[pos].strip()

    for line, row in enumerate(rows, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        t = _parse_float(cell(row, columns.time, line), line, columns.time)
        if t <= 0:
            raise NonPositiveTimeError(line, t)
        s_text = cell(row, columns.status, line)
        try:
            s = float(s_text)
        except ValueError:
            raise InvalidStatusError(line, s_text) from None
        if s not in (0.0, 1.0):
            raise InvalidStatusError(line, s_text)
        z1 = _parse_float(cell(row, columns.score1, line), line, columns.score1)
        times.append(t)
        status.append(s)
        score1.append(z1)
        if score2 is not None:
            score2.append(
                _parse_float(cell(row, score2_name, line), line, score2_name)
            )
        lines.append(line)

    if not times:
        raise EmptyCohortError()
    return CohortSample(times, status, score1, score2, _rows=lines)


def _may_hold_long_line(data: bytes, limit: int) -> bool:
    """False only if every line (ended by \\r or \\n) is under ``limit`` bytes.

    A line of ``2 * step - 1`` bytes or more covers a whole aligned block
    of ``step`` bytes, so it is enough to look for a block that holds no
    line end.  Such a block flags any line of ``step`` bytes or more,
    which errs on the safe side, and the scan allocates nothing.
    """
    step = limit // 2
    if step < 1:
        return True
    return any(
        data.find(b"\n", start, start + step) < 0
        and data.find(b"\r", start, start + step) < 0
        for start in range(0, len(data) - step + 1, step)
    )


def _read_columns(data: bytes, columns: ColumnMap) -> CohortSample | None:
    """Parse unquoted CSV bytes in one vectorised pass.

    Returns None where the row reader must decide: a cell that might
    exceed ``csv.field_size_limit()``, a missing column, a cell that does
    not parse, a failed check, no subject rows, or bytes that are not
    UTF-8.  Lines are split as ``csv.reader`` splits them (a text wrapper
    with ``newline=""``), so a cohort returned here equals the row
    reader's.
    """
    if _may_hold_long_line(data, csv.field_size_limit()):
        return None
    # the header line, then the first byte of a later non-empty line;
    # without one, loadtxt would warn "input contained no data"
    found = re.match(rb"([^\r\n]*)[\r\n]+[^\r\n]", data)
    if found is None:
        return None
    try:
        line = found[1].decode("utf-8")
        # csv.reader gives [] for an empty line and splits at every comma
        header = [h.strip() for h in line.split(",")] if line else []
        positions, score2_name = _header_positions(header, columns)
        names = [columns.time, columns.status, columns.score1]
        if score2_name is not None:
            names.append(score2_name)
        table = np.loadtxt(
            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""),
            delimiter=",",
            comments=None,
            quotechar=None,
            skiprows=1,
            usecols=[positions[name] for name in names],
            ndmin=2,
        )
        return CohortSample(*table.T)
    except (TdapError, ValueError):
        return None


def read_cohort_csv(source, columns: ColumnMap | None = None) -> CohortSample:
    """Parse a CSV file (path or stream) into a CohortSample.

    The header row must name every mapped column.  Cell errors report the
    1-based file line (header is line 1).  Parsing is lossless: values
    round-trip through ``write_cohort_csv`` bit for bit.

    A path or binary stream is read once as bytes.  Unless the bytes
    hold a quote or a NUL, they are parsed column-wise in one pass;
    quoted files, and any input that pass cannot accept, go through the
    row reader, which alone raises the errors below.  A text stream is
    always read row by row.

    Raises
    ------
    MissingColumnError, NonNumericCellError, NonPositiveTimeError,
    InvalidStatusError, EmptyCohortError, MalformedCsvError
    """
    columns = columns or ColumnMap()
    if isinstance(source, io.TextIOBase):
        return _read_rows(source, columns)
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = fh.read()
    elif hasattr(source, "read"):
        data = source.read()
    else:
        raise TypeError(f"cannot read cohort from {type(source).__name__}")
    # quotes need the csv module; so does NUL, which csv rejects on Python 3.10
    if b'"' not in data and b"\0" not in data:
        cohort = _read_columns(data, columns)
        if cohort is not None:
            return cohort
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    return _read_rows(text, columns)


def _cells(block) -> list[str]:
    """The CSV text of each cell of ``block``: ``repr`` of a float.

    In a float block with many repeats (curve coordinates), ``repr``
    runs once per run of equal bits, so -0.0 and 0.0 stay apart.  On
    2048-row blocks the run path takes 0.59x the plain path's time when
    half the values start a run and breaks even at about 90% (1.08x with
    no repeats), so blocks with more than half run heads go the plain way.
    """
    if not isinstance(block, np.ndarray):
        return list(map(str, block))  # a float's str is its repr
    if block.dtype != np.float64:
        return list(map(str, block.tolist()))
    bits = block.view(np.int64)
    head = np.empty(block.size, dtype=bool)
    head[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=head[1:])
    if 2 * np.count_nonzero(head) > block.size:
        return list(map(repr, block.tolist()))
    texts = [repr(v) for v in block[head].tolist()]
    return [texts[i] for i in (np.cumsum(head) - 1).tolist()]


def _write_csv(destination, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns as CSV to a path or a text stream.

    Rows end in \\r\\n, as ``csv.writer`` ends them.  Cells are written
    verbatim, so they must never need CSV quoting: numbers and fixed
    labels only.  Rows are formatted and written in blocks of
    ``_CSV_BLOCK_ROWS``, so memory does not grow with the row count.
    """
    with (
        open(destination, "w", newline="", encoding="utf-8")
        if isinstance(destination, (str, Path))
        else contextlib.nullcontext(destination)
    ) as stream:
        stream.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            cells = [_cells(column[start:stop]) for column in columns]
            stream.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_cohort_csv(cohort: CohortSample, destination) -> None:
    """Write a cohort back to CSV with full-precision floats."""
    header = ["time", "status", "score1"]
    columns = [cohort.times, cohort.status.astype(np.int64), cohort.score1]
    if cohort.paired:
        header.append("score2")
        columns.append(cohort.score2)
    _write_csv(destination, header, columns)


def _is_real(value) -> bool:
    """True for real numbers, numpy scalars included; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """True for integers, numpy integer scalars included; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def validate_horizon(cohort: CohortSample, t0: float) -> None:
    """Check that accuracy at horizon ``t0`` is estimable from this cohort.

    ``t0`` may be any real number type, numpy scalars included, but not a
    bool.  Requires at least one observed event strictly before ``t0``
    and that ``t0`` does not exceed the largest observed follow-up time.
    """
    if not (_is_real(t0) and math.isfinite(t0) and t0 > 0):
        raise ValueError(f"t0 must be a positive finite number, got {t0!r}")
    max_time = float(cohort.times.max())
    if t0 > max_time:
        raise T0BeyondSupportError(t0, max_time)
    if not bool(((cohort.times < t0) & (cohort.status == 1.0)).any()):
        raise NoEventsBeforeT0Error(t0)
