"""Time-dependent average positive predictive value for censored cohorts.

Estimate how well a risk score identifies subjects who will experience
an event before a horizon t0, from right-censored follow-up data.  The
headline summary is the average positive predictive value (the area
under the horizon-specific precision-recall curve), with the
horizon-specific AUC alongside; censoring is handled by inverse
probability weighting and uncertainty by a percentile bootstrap.

The package logs to the ``tdap`` logger, which is silent unless the
application configures logging.
"""

import logging as _logging

from .cohort import (
    CohortSample,
    ColumnMap,
    SubjectRecord,
    read_cohort_csv,
    validate_horizon,
    write_cohort_csv,
)
from .censoring import CensorSurvival, WeightVector, fit_censoring_km, ipcw_weights
from .errors import (
    DivisionByZeroAPError,
    EmptyCohortError,
    EmptyThresholdSetError,
    InvalidStatusError,
    MalformedCsvError,
    MissingColumnError,
    NoControlsAtT0Error,
    NoEventsBeforeT0Error,
    NonNumericCellError,
    NonPositiveTimeError,
    NotPairedError,
    T0BeyondSupportError,
    TdapError,
    TooManyFailedReplicatesError,
    ZeroCensorSurvivalError,
)
from .estimators import (
    CurveTrace,
    HorizonEstimates,
    PairedEstimates,
    ap_ratio,
    auc,
    auc_difference,
    average_precision,
    compare_horizon,
    estimate_horizon,
    event_rate,
    ppv_at,
    ppv_tie_corrected,
    pr_curve,
    roc_curve,
    tpf_at,
)
from .inference import (
    DEFAULT_SEED,
    AccuracySummary,
    BootstrapSpec,
    bootstrap_compare,
    bootstrap_estimate,
    bootstrap_summary,
    bootstrap_values,
)
from .simulation import (
    DEFAULT_STUDY_SEED,
    ESTIMANDS,
    ReportRow,
    SimulationConfig,
    SimulationReport,
    generate_cohort,
    run_study,
    true_values,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracySummary",
    "BootstrapSpec",
    "CensorSurvival",
    "CohortSample",
    "ColumnMap",
    "CurveTrace",
    "DEFAULT_SEED",
    "DEFAULT_STUDY_SEED",
    "DivisionByZeroAPError",
    "EmptyCohortError",
    "EmptyThresholdSetError",
    "ESTIMANDS",
    "HorizonEstimates",
    "InvalidStatusError",
    "MalformedCsvError",
    "MissingColumnError",
    "NoControlsAtT0Error",
    "NoEventsBeforeT0Error",
    "NonNumericCellError",
    "NonPositiveTimeError",
    "NotPairedError",
    "PairedEstimates",
    "ReportRow",
    "SimulationConfig",
    "SimulationReport",
    "SubjectRecord",
    "T0BeyondSupportError",
    "TdapError",
    "TooManyFailedReplicatesError",
    "WeightVector",
    "ZeroCensorSurvivalError",
    "ap_ratio",
    "auc",
    "auc_difference",
    "average_precision",
    "bootstrap_compare",
    "bootstrap_estimate",
    "bootstrap_summary",
    "bootstrap_values",
    "compare_horizon",
    "estimate_horizon",
    "event_rate",
    "fit_censoring_km",
    "generate_cohort",
    "ipcw_weights",
    "ppv_at",
    "ppv_tie_corrected",
    "pr_curve",
    "read_cohort_csv",
    "roc_curve",
    "run_study",
    "tpf_at",
    "true_values",
    "validate_horizon",
    "write_cohort_csv",
    "__version__",
]

_logging.getLogger(__name__).addHandler(_logging.NullHandler())
