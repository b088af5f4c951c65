"""Cohort data model and CSV ingestion.

A cohort is a set of subjects, each carrying a right-censored follow-up
time, an event indicator (1 = event observed, 0 = censored), and one or
two risk scores.  Higher scores always mean higher predicted risk.  A
cohort with two scores per subject is *paired* and supports head-to-head
accuracy comparisons.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import io
import itertools
import logging
import math
import numbers
import os
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._csvtext import Unparsed, read_columns, write_rows
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

_log = logging.getLogger(__name__)

# rows formatted and written per block by the CSV writer
_CSV_BLOCK_ROWS = 8192
# bytes of CSV parsed per block by the column reader
_READ_BLOCK_BYTES = 1 << 18
_BOM = codecs.BOM_UTF8
# the header line, then the first byte of a later non-empty line
_HEADER = re.compile(rb"([^\r\n]*)[\r\n]+[^\r\n]")


@dataclass(frozen=True)
class SubjectRecord:
    """One subject: follow-up time, event indicator, and score(s).

    Finite reals and a status of 0 or 1 (not bools), stored as float and int."""

    time: float
    status: int
    score1: float
    score2: float | None = None

    def __post_init__(self):
        self._store_real("time")
        if self.time <= 0:
            raise NonPositiveTimeError(None, self.time)
        if not (_is_real(self.status) and self.status in (0, 1)):
            # a numpy scalar as the Python value it holds
            raise InvalidStatusError(None, np.asarray(self.status).tolist())
        object.__setattr__(self, "status", int(self.status))
        self._store_real("score1")
        if self.score2 is not None:
            self._store_real("score2")

    def _store_real(self, name: str) -> None:
        value = getattr(self, name)
        if not (_is_real(value) and math.isfinite(value)):
            raise NonNumericCellError(None, name, repr(float(value) if _is_real(value) else value))
        object.__setattr__(self, name, float(value))


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

    All arrays are validated (bool, integer or float columns; finite,
    times > 0, status in {0, 1}) and stored as read-only float64 copies.
    """

    __slots__ = ("times", "status", "score1", "score2")

    def __init__(self, times, status, score1, score2=None, _owned=False):
        # copy so freezing the arrays never mutates caller-owned buffers;
        # tdap's own readers and generator hand over float64 arrays that
        # nobody else holds (_owned), and those are frozen as they are
        fields = ("time", "status", "score1") + (() if score2 is None else ("score2",))
        columns = [
            _real_column(arr, name, _owned)
            for name, arr in zip(fields, (times, status, score1, score2))
        ]
        n = columns[0].size
        if n == 0:
            raise EmptyCohortError()
        for name, arr in zip(fields, columns):
            if arr.shape != (n,):
                raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")

        times, status = columns[:2]
        bad = ~np.isfinite(times)
        if bad.any():
            i = int(np.argmax(bad))
            raise NonNumericCellError(None, "time", repr(times[i].item()))
        bad = times <= 0
        if bad.any():
            i = int(np.argmax(bad))
            raise NonPositiveTimeError(None, float(times[i]))
        with np.errstate(invalid="ignore"):
            bad = ~((status == 0.0) | (status == 1.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidStatusError(None, status[i].item())
        for name, arr in zip(fields[2:], columns[2:]):
            bad = ~np.isfinite(arr)
            if bad.any():
                i = int(np.argmax(bad))
                raise NonNumericCellError(None, name, repr(arr[i].item()))

        for name, arr in itertools.zip_longest(self.__slots__, columns):
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __setattr__(self, name, value):
        raise AttributeError("CohortSample is immutable")

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def paired(self) -> bool:
        return self.score2 is not None

    def scores(self, which: int = 1) -> np.ndarray:
        """Return the score column (integer 1 or 2); 2 requires a paired cohort."""
        if not (_is_integer(which) and which in (1, 2)):
            raise ValueError(f"score selector must be 1 or 2, got {which!r}")
        if which == 1:
            return self.score1
        if self.score2 is None:
            raise NotPairedError()
        return self.score2

    def take(self, indices) -> "CohortSample":
        """Row subset/resample at integer ``indices``; keeps score pairs attached."""
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.intp, copy=False)
        columns = (self.times, self.status, self.score1, self.score2)
        return CohortSample(*(None if c is None else c[idx] for c in columns))

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
    """``csv.reader`` rows, less one byte-order mark ahead of the header;
    malformed CSV raises MalformedCsvError."""
    lines = iter(stream)
    first = next(lines, None)
    if first is None:
        return
    reader = csv.reader(itertools.chain([first.removeprefix("\ufeff")], lines))
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

    if not times:
        raise EmptyCohortError()
    return CohortSample(times, status, score1, score2)


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


def _is_utf8(data: bytes) -> bool:
    """True if ``data`` decodes as UTF-8; checked a megabyte at a time."""
    if data.isascii():
        return True
    decoder = codecs.getincrementaldecoder("utf-8")()
    view = memoryview(data)
    try:
        for start in range(0, len(data), 1 << 20):
            decoder.decode(view[start:start + (1 << 20)])
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        return False
    return True


def _hand_over(reason: str) -> None:
    _log.debug("cohort CSV goes to the row reader: %s", reason)


def _read_columns(data: bytes, columns: ColumnMap) -> CohortSample | None:
    """Parse unquoted CSV bytes column-wise (``_csvtext.read_columns``).

    Returns None, and logs why, where the row reader must decide: a line
    that might exceed ``csv.field_size_limit()``, a missing column, a
    cell that is not a plain decimal number, a line of another field
    count, a failed check, no subject rows, or bytes that are not UTF-8.
    Lines are split as ``csv.reader`` splits them, and each cell is
    ``float``'s value for its text, so a cohort returned here equals the
    row reader's.
    """
    if _may_hold_long_line(data, csv.field_size_limit()):
        _hand_over("a line may exceed csv.field_size_limit()")
        return None
    found = _HEADER.match(data, len(_BOM) if data.startswith(_BOM) else 0)
    if found is None:
        _hand_over("no data line follows the header")
        return None
    try:
        line = found[1].decode("utf-8")
        # csv.reader gives [] for an empty line and splits at every comma
        header = [h.strip() for h in line.split(",")] if line else []
        positions, score2_name = _header_positions(header, columns)
    except (UnicodeDecodeError, MissingColumnError) as err:
        _hand_over(f"the header ({err})")
        return None
    if not _is_utf8(data):
        _hand_over("bytes that are not UTF-8")
        return None
    names = [columns.time, columns.status, columns.score1]
    if score2_name is not None:
        names.append(score2_name)
    try:
        table, slow = read_columns(
            data, found.end() - 2, len(header), [positions[name] for name in names],
            _READ_BLOCK_BYTES,
        )
        cohort = CohortSample(*table, _owned=True)
    except Unparsed as err:
        _hand_over(str(err))
        return None
    except TdapError as err:
        _hand_over(f"a failed check ({type(err).__name__})")
        return None
    _log.debug("cohort CSV read by columns: %d rows, %d cells by float()", cohort.n, slow)
    return cohort


def read_cohort_csv(source, columns: ColumnMap | None = None) -> CohortSample:
    """Parse a CSV file (path or stream) into a CohortSample.

    The header row must name every mapped column; one UTF-8 byte-order
    mark ahead of it is dropped.  Cell errors report the 1-based file
    line (header is line 1).  Parsing is lossless: values round-trip
    through ``write_cohort_csv`` bit for bit.

    A path (any ``os.PathLike``) or binary stream is read once as bytes.
    Unless the bytes hold a quote or a NUL, they are parsed column-wise,
    a block at a time; quoted files, and any input that pass cannot
    accept, go through the row reader, which alone raises the errors
    below.  A text stream, any stream whose ``read()`` returns ``str``,
    is always read row by row.  The ``tdap`` logger says at DEBUG level
    which path read the input, and why the row reader took it.

    Raises
    ------
    MissingColumnError, NonNumericCellError, NonPositiveTimeError,
    InvalidStatusError, EmptyCohortError, MalformedCsvError
    """
    columns = columns or ColumnMap()
    if isinstance(source, io.TextIOBase):
        _log.debug("cohort CSV read by rows: a text stream")
        return _read_rows(source, columns)
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            data = fh.read()
    elif hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):  # a text stream outside the io hierarchy
            _log.debug("cohort CSV read by rows: a text stream")
            return _read_rows(io.StringIO(data, newline=""), columns)
    else:
        raise TypeError(f"cannot read cohort from {type(source).__name__}")
    # quotes need the csv module; so does NUL, which csv rejects on Python 3.10
    if b'"' in data or b"\0" in data:
        _hand_over("a quote or NUL")
    else:
        cohort = _read_columns(data, columns)
        if cohort is not None:
            return cohort
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    return _read_rows(text, columns)


def _write_csv(destination, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns as CSV to a path (any ``os.PathLike``)
    or a text stream.

    Rows end in \\r\\n, as ``csv.writer`` ends them.  Float64 and int64
    array cells read as ``repr`` and ``str`` of each value, formatted a
    block at a time without a call per value (``_csvtext``); other
    columns go through ``str``.  Cells are written verbatim, so they must
    never need CSV quoting: numbers and fixed labels only.  Rows are
    formatted and written in blocks of ``_CSV_BLOCK_ROWS`` in reused
    buffers, so memory does not grow with the row count.
    """
    with (
        open(destination, "w", newline="", encoding="utf-8")
        if isinstance(destination, (str, os.PathLike))
        else contextlib.nullcontext(destination)
    ) as stream:
        stream.write(",".join(header) + "\r\n")
        write_rows(stream, columns, _CSV_BLOCK_ROWS)


def write_cohort_csv(cohort: CohortSample, destination) -> None:
    """Write a cohort back to CSV with full-precision floats."""
    header = ["time", "status", "score1"]
    columns = [cohort.times, cohort.status.astype(np.int64), cohort.score1]
    if cohort.paired:
        header.append("score2")
        columns.append(cohort.score2)
    _write_csv(destination, header, columns)


def _real_column(values, name: str, owned: bool) -> np.ndarray:
    """``values`` as float64, copied unless ``owned``; a column of anything
    but bools, integers or floats raises ``NonNumericCellError``."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise NonNumericCellError(None, name, str(arr.dtype))
    return arr.astype(float, copy=not owned)


def _is_real(value) -> bool:
    """True for real numbers, numpy scalars included; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """True for integers, numpy integer scalars included; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_horizon(t0) -> None:
    """Raise ``ValueError`` unless ``t0`` is a positive, finite real (not a bool)."""
    if not (_is_real(t0) and math.isfinite(t0) and t0 > 0):
        raise ValueError(f"t0 must be a positive finite number, got {t0!r}")


def validate_horizon(cohort: CohortSample, t0: float) -> None:
    """Check that accuracy at horizon ``t0`` is estimable from this cohort.

    ``t0`` may be any real number type, numpy scalars included, but not a
    bool.  Requires at least one observed event strictly before ``t0``
    and that ``t0`` does not exceed the largest observed follow-up time.
    """
    _check_horizon(t0)
    max_time = float(cohort.times.max())
    if t0 > max_time:
        raise T0BeyondSupportError(t0, max_time)
    if not bool(((cohort.times < t0) & (cohort.status == 1.0)).any()):
        raise NoEventsBeforeT0Error(t0)
