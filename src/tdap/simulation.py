"""Monte-Carlo study harness for the accuracy estimators.

The synthetic cohort couples two standard-normal risk factors to a
log-scale failure time:

    log T = 7.2 - 1.1*U1 - 2.5*U2 - 1.5*log(U1^2) + eps,
    eps ~ Normal(0, sd 1.5),  U1, U2 iid Normal(0, 1),

with score 1 = U1 and score 2 = U2, so U2 carries more signal through
its coefficient while U1 also acts through the symmetric log(U1^2)
term.  Censoring is independent of everything else:

    C = min(A, B + 1),  A ~ Uniform(0, 50),  B ~ Gamma(shape 25, rate 0.75).

The noise scale (a standard deviation of 1.5, not a variance) and the
gamma parameterization (rate, not scale; mean 100/3) are pinned by the
generator's calibration targets: Pr(T < t0) of about 0.0101, 0.0495 and
0.0991 at the reference horizons t0 = 0.5, 8 and 36, with horizon 36
still inside the observable range of C.

The design implies a censored share P(T > C) of about 92.5% (0.924591
by quadrature).  Because C < 50 always and P(T < 50) is only about
0.114, no censoring law supported below 50 can censor fewer than about
88.6% of subjects while T keeps this law.

``run_study`` repeatedly draws cohorts, estimates both scores' average
precision and their ratio at each horizon with bootstrap intervals, and
aggregates bias, spread, and coverage against oracle values from one
large uncensored draw.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

from .censoring import fit_censoring_km, ipcw_weights
from .cohort import CohortSample, _is_integer, _write_csv, validate_horizon
from .errors import TdapError
from .estimators import _accuracy, average_precision
from .inference import BootstrapSpec, _replicate_matrix

__all__ = [
    "DEFAULT_STUDY_SEED",
    "SimulationConfig",
    "ReportRow",
    "SimulationReport",
    "generate_cohort",
    "true_values",
    "run_study",
    "ESTIMANDS",
]

DEFAULT_STUDY_SEED = 5

_INTERCEPT = 7.2
_COEF_U1 = 1.1
_COEF_U2 = 2.5
_COEF_LOG = 1.5
_NOISE_SD = 1.5
_UNIFORM_HIGH = 50.0
_GAMMA_SHAPE = 25.0
_GAMMA_RATE = 0.75

ESTIMANDS = ("AP1", "AP2", "rAP")
# the same cells as keys of the bootstrap engine's estimand table
_BOOT_ESTIMANDS = ("ap", "ap2", "rap")

# stream tags keeping oracle, cohort, and bootstrap draws disjoint
_STREAM_ORACLE = 0
_STREAM_COHORT = 1
_STREAM_BOOT = 2


@dataclass(frozen=True)
class SimulationConfig:
    """Study layout: cohort size, replication count, horizons, bootstrap."""

    n: int = 2000
    replications: int = 200
    horizons: tuple[float, ...] = (0.5, 8.0, 36.0)
    bootstrap: BootstrapSpec = field(default_factory=lambda: BootstrapSpec(replicates=200))
    oracle_size: int = 2_000_000
    seed: int = DEFAULT_STUDY_SEED

    def __post_init__(self):
        if not (_is_integer(self.n) and self.n >= 2):
            raise ValueError(f"n must be an int >= 2, got {self.n!r}")
        if not (_is_integer(self.replications) and self.replications >= 1):
            raise ValueError(
                f"replications must be an int >= 1, got {self.replications!r}"
            )
        horizons = tuple(float(t) for t in self.horizons)
        if not horizons:
            raise ValueError("horizons must be non-empty")
        for t0 in horizons:
            if not (0.0 < t0 < _UNIFORM_HIGH):
                raise ValueError(
                    f"horizon {t0!r} outside the generator's support "
                    f"(0, {_UNIFORM_HIGH})"
                )
        object.__setattr__(self, "horizons", horizons)
        if not (_is_integer(self.oracle_size) and self.oracle_size >= 100_000):
            raise ValueError(
                f"oracle_size must be an int >= 100000, got {self.oracle_size!r}"
            )
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")
        for name in ("n", "replications", "oracle_size", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))


def _draw_latent(n: int, rng: np.random.Generator):
    """Draw (T, C, U1, U2); U1 values of exactly 0 are redrawn."""
    u1 = rng.standard_normal(n)
    # log(U1^2) needs U1 != 0; probability-zero case redrawn for safety
    while True:
        zero = u1 == 0.0
        if not zero.any():
            break
        u1[zero] = rng.standard_normal(int(zero.sum()))
    u2 = rng.standard_normal(n)
    eps = rng.normal(0.0, _NOISE_SD, n)
    log_t = (
        _INTERCEPT
        - _COEF_U1 * u1
        - _COEF_U2 * u2
        - _COEF_LOG * np.log(u1 * u1)
        + eps
    )
    t = np.exp(log_t)
    a = rng.uniform(0.0, _UNIFORM_HIGH, n)
    b = rng.gamma(_GAMMA_SHAPE, 1.0 / _GAMMA_RATE, n)
    c = np.minimum(a, b + 1.0)
    return t, c, u1, u2


def generate_cohort(n: int, seed) -> CohortSample:
    """Draw one censored paired cohort of size ``n``.

    ``seed`` may be an int, a SeedSequence, or a Generator.
    """
    rng = np.random.default_rng(seed)
    t, c, u1, u2 = _draw_latent(n, rng)
    times = np.minimum(t, c)
    status = (t <= c).astype(float)
    return CohortSample(times, status, u1, u2)


def _oracle(config: SimulationConfig):
    """One large uncensored draw -> (true accuracy cells, event rates).

    With T fully observed every weight is 1, so each score is ranked
    once and each horizon's case counts per score group go straight to
    the AP/AUC kernel.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, _STREAM_ORACLE))
    )
    t, _, u1, u2 = _draw_latent(config.oracle_size, rng)
    trues: dict[tuple[float, str], float] = {}
    rates = {t0: float(np.mean(t < t0)) for t0 in config.horizons}
    for name, score in (("AP1", u1), ("AP2", u2)):
        _, group, counts = np.unique(-score, return_inverse=True, return_counts=True)
        for t0 in config.horizons:
            cases = np.bincount(group, weights=t < t0, minlength=counts.size)
            trues[(t0, name)] = _accuracy(counts, cases, counts - cases)[0]
    for t0 in config.horizons:
        trues[(t0, "rAP")] = trues[(t0, "AP1")] / trues[(t0, "AP2")]
    return trues, rates


def true_values(config: SimulationConfig) -> dict[tuple[float, str], float]:
    """Oracle accuracy values from one large uncensored draw.

    Keys are (horizon, estimand) with estimands ``AP1``, ``AP2``,
    ``rAP``.  The draw uses unit weights: with T fully observed there is
    nothing to reweight.
    """
    return _oracle(config)[0]


@dataclass(frozen=True)
class ReportRow:
    """Aggregated result for one (horizon, estimand) cell."""

    t0: float
    event_rate: float
    estimand: str
    true: float
    bias: float
    ese: float
    ase_boot: float
    ecovp_pct: float

    def __post_init__(self):
        if not (0.0 <= self.ecovp_pct <= 100.0):
            raise ValueError(f"ecovp_pct outside [0, 100]: {self.ecovp_pct!r}")
        if self.ese < 0.0 or self.ase_boot < 0.0:
            raise ValueError("spread estimates must be non-negative")


_CSV_COLUMNS = (
    "t0",
    "event_rate",
    "estimand",
    "true",
    "bias",
    "ese",
    "ase_boot",
    "ecovp_pct",
)


@dataclass(frozen=True)
class SimulationReport:
    """Study output: one row per (horizon, estimand) plus run metadata."""

    config: SimulationConfig
    rows: tuple[ReportRow, ...]
    censoring_fraction: float
    regenerated: int

    def to_dict(self) -> dict:
        return {
            "n": self.config.n,
            "replications": self.config.replications,
            "bootstrap_replicates": self.config.bootstrap.replicates,
            "level": self.config.bootstrap.level,
            "seed": self.config.seed,
            "oracle_size": self.config.oracle_size,
            "censoring_fraction": self.censoring_fraction,
            "regenerated": self.regenerated,
            "rows": [
                {col: getattr(r, col) for col in _CSV_COLUMNS} for r in self.rows
            ],
        }

    def to_csv(self, destination) -> None:
        _write_csv(
            destination,
            _CSV_COLUMNS,
            [[getattr(r, col) for r in self.rows] for col in _CSV_COLUMNS],
        )

    def format_table(self) -> str:
        cfg = self.config
        out = io.StringIO()
        out.write(
            f"simulation study: n={cfg.n} replications={cfg.replications} "
            f"bootstrap={cfg.bootstrap.replicates} level={cfg.bootstrap.level:g} "
            f"seed={cfg.seed}\n"
        )
        out.write(
            f"oracle size {cfg.oracle_size}; realized censoring "
            f"{100.0 * self.censoring_fraction:.6g}%; "
            f"regenerated cohorts {self.regenerated}\n"
        )
        header = f"{'t0':>8} {'event rate':>11} {'estimand':>8} {'TRUE':>9} {'BIAS':>10} {'ESE':>9} {'ASE':>9} {'ECOVP%':>7}"
        out.write(header + "\n")
        out.write("-" * len(header) + "\n")
        for r in self.rows:
            out.write(
                f"{r.t0:>8.6g} {r.event_rate:>11.6g} {r.estimand:>8} "
                f"{r.true:>9.6g} {r.bias:>10.6g} {r.ese:>9.6g} "
                f"{r.ase_boot:>9.6g} {r.ecovp_pct:>7.6g}\n"
            )
        return out.getvalue()


def _one_replication(config: SimulationConfig, r: int):
    """Generate one valid cohort and estimate all cells with bootstrap."""
    attempts = 0
    last_err: TdapError | None = None
    cohort = None
    while attempts < 1000:
        ss = np.random.SeedSequence((config.seed, _STREAM_COHORT, r, attempts))
        candidate = generate_cohort(config.n, ss)
        attempts += 1
        try:
            for t0 in config.horizons:
                validate_horizon(candidate, t0)
        except TdapError as err:
            last_err = err
            continue
        cohort = candidate
        break
    if cohort is None:
        raise last_err if last_err is not None else RuntimeError("cohort generation failed")
    regenerated = attempts - 1

    estimates = np.empty((len(config.horizons), 3))
    ses = np.empty_like(estimates)
    lowers = np.empty_like(estimates)
    uppers = np.empty_like(estimates)
    alpha = 1.0 - config.bootstrap.level
    censor_survival = fit_censoring_km(cohort)
    for h, t0 in enumerate(config.horizons):
        w = ipcw_weights(cohort, censor_survival, t0)
        ap1 = average_precision(cohort, w, t0, score=1)
        ap2 = average_precision(cohort, w, t0, score=2)
        estimates[h] = (ap1, ap2, ap1 / ap2)  # an estimable AP is always > 0
        boot_seed = int(
            np.random.SeedSequence((config.seed, _STREAM_BOOT, r, h)).generate_state(
                1, dtype=np.uint64
            )[0]
        )
        spec = replace(config.bootstrap, seed=boot_seed)
        values, _ = _replicate_matrix(cohort, t0, spec, _BOOT_ESTIMANDS)
        lowers[h], uppers[h] = np.quantile(
            values, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0
        )
        ses[h] = np.std(values, ddof=1, axis=0)
    censored_fraction = float(np.mean(cohort.status == 0.0))
    return estimates, ses, lowers, uppers, censored_fraction, regenerated


def run_study(config: SimulationConfig, threads: int = 1) -> SimulationReport:
    """Run the full Monte-Carlo study described by ``config``.

    Replications use independent seed streams indexed by replication
    number.  ``threads`` is accepted for compatibility; runs are
    single-threaded, so it never changes the report.  A drawn
    cohort failing horizon validation is replaced using that
    replication's next stream and counted in ``regenerated``.
    """
    trues, event_rates = _oracle(config)

    reps = config.replications
    results = [_one_replication(config, r) for r in range(reps)]

    est = np.stack([res[0] for res in results])  # (reps, horizons, 3)
    ses = np.stack([res[1] for res in results])
    lo = np.stack([res[2] for res in results])
    hi = np.stack([res[3] for res in results])
    cens = float(np.mean([res[4] for res in results]))
    regenerated = int(sum(res[5] for res in results))

    rows = []
    for h, t0 in enumerate(config.horizons):
        for k, name in enumerate(ESTIMANDS):
            true = trues[(t0, name)]
            cell = est[:, h, k]
            ese = float(np.std(cell, ddof=1)) if reps > 1 else 0.0
            covered = (lo[:, h, k] <= true) & (true <= hi[:, h, k])
            rows.append(
                ReportRow(
                    t0=t0,
                    event_rate=event_rates[t0],
                    estimand=name,
                    true=float(true),
                    bias=float(np.mean(cell) - true),
                    ese=ese,
                    ase_boot=float(np.mean(ses[:, h, k])),
                    ecovp_pct=float(100.0 * np.mean(covered)),
                )
            )
    return SimulationReport(
        config=config,
        rows=tuple(rows),
        censoring_fraction=cens,
        regenerated=regenerated,
    )
