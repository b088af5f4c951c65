"""Exception types raised by the library.

Every error that reflects bad input data or an ill-posed request derives
from :class:`TdapError`, so callers (and the CLI) can distinguish data
problems from programming bugs with a single except clause.
"""

from __future__ import annotations

__all__ = [
    "TdapError",
    "MissingColumnError",
    "NonNumericCellError",
    "NonPositiveTimeError",
    "InvalidStatusError",
    "EmptyCohortError",
    "MalformedCsvError",
    "NoEventsBeforeT0Error",
    "T0BeyondSupportError",
    "ZeroCensorSurvivalError",
    "EmptyThresholdSetError",
    "NoControlsAtT0Error",
    "NotPairedError",
    "DivisionByZeroAPError",
    "TooManyFailedReplicatesError",
]


class TdapError(Exception):
    """Base class for all data and estimation errors in this package."""


class MissingColumnError(TdapError):
    """A required column name is absent from the input header."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"column {column!r} not found in header")


class NonNumericCellError(TdapError):
    """A cell that must hold a finite number does not parse as one."""

    def __init__(self, row: int | None, column: str, value: str = ""):
        self.row = row
        self.column = column
        self.value = value
        where = f"line {row}" if row is not None else "input"
        super().__init__(f"{where}, column {column!r}: not a finite number: {value!r}")


class NonPositiveTimeError(TdapError):
    """Follow-up times must be strictly positive."""

    def __init__(self, row: int | None, value: float):
        self.row = row
        self.value = value
        where = f"line {row}" if row is not None else "input"
        super().__init__(f"{where}: follow-up time must be > 0, got {value!r}")


class InvalidStatusError(TdapError):
    """Event indicators must be exactly 0 (censored) or 1 (event)."""

    def __init__(self, row: int | None, value: object):
        self.row = row
        self.value = value
        where = f"line {row}" if row is not None else "input"
        super().__init__(f"{where}: status must be 0 or 1, got {value!r}")


class EmptyCohortError(TdapError):
    """The input contains no subject rows."""

    def __init__(self, message: str = "cohort contains no subjects"):
        super().__init__(message)


class MalformedCsvError(TdapError):
    """The input is not well-formed CSV (for example, an over-long cell)."""

    def __init__(self, row: int, detail: str):
        self.row = row
        self.detail = detail
        super().__init__(f"line {row}: malformed CSV: {detail}")


class NoEventsBeforeT0Error(TdapError):
    """No observed event occurs strictly before the requested horizon."""

    def __init__(self, t0: float):
        self.t0 = t0
        super().__init__(f"no observed events before t0={t0!r}")


class T0BeyondSupportError(TdapError):
    """The horizon exceeds the largest observed follow-up time."""

    def __init__(self, t0: float, max_time: float):
        self.t0 = t0
        self.max_time = max_time
        super().__init__(
            f"t0={t0!r} exceeds the largest observed time {max_time!r}"
        )


class ZeroCensorSurvivalError(TdapError):
    """A weight would divide by a zero censoring-survival value."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"censoring survival is 0 where subject {index} needs a weight; "
            f"t0 is outside the reliably estimable range"
        )


class EmptyThresholdSetError(TdapError):
    """No subject scores at or above the requested threshold."""

    def __init__(self, threshold: float):
        self.threshold = threshold
        super().__init__(f"no scores at or above threshold {threshold!r}")


class NoControlsAtT0Error(TdapError):
    """No subject is still event-free at the horizon."""

    def __init__(self, t0: float):
        self.t0 = t0
        super().__init__(f"no controls (subjects event-free at t0={t0!r})")


class NotPairedError(TdapError):
    """A paired-comparison operation needs two scores per subject."""

    def __init__(self, message: str = "cohort has no second score column"):
        super().__init__(message)


class DivisionByZeroAPError(TdapError):
    """The reference score has estimated accuracy 0, so no ratio exists."""

    def __init__(self, message: str = "reference average precision is 0"):
        super().__init__(message)


class TooManyFailedReplicatesError(TdapError):
    """More than 10% of bootstrap resamples failed to produce an estimate."""

    def __init__(self, failed: int, total: int):
        self.failed = failed
        self.total = total
        super().__init__(
            f"{failed} of {total} bootstrap replicates failed; "
            f"results would be unreliable"
        )
