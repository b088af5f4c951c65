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

``run_study`` repeatedly draws cohorts and aggregates bias, spread, and
coverage against oracle values from one large uncensored draw.  A
study cell (both scores' average precision and their ratio, with SE and
percentile interval) is the library bootstrap's summary on that cohort
with that horizon's seed: the numbers ``tdap compare`` would print.

Each draw takes the failure variables (U1, U2, the noise) from its
stream before the censoring variables (A, B).  The oracle needs no
censoring, so it makes only the failure draw and still sees the T, U1
and U2 of the full draw.  It never holds T or a per-subject slot, and
U2 is streamed beside the noise, so it holds one score at a time: U1
through the draw and its own cells, then U2, drawn again whole from its
saved generator state.  Of the cases it keeps only their positions and
horizon slots.  One pass over each score's tie edges serves every
horizon, and the score is freed before any AP is formed (see
``_oracle_aps``), so the oracle holds about one array of n values plus
the case positions and slots, and in that pass the case values and
their sort order.
"""

from __future__ import annotations

import copy
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .censoring import fit_censoring_km, ipcw_weights  # bench/spans.py wraps both here
from .cohort import CohortSample, _check_horizon, _is_integer, _write_csv, validate_horizon
from .errors import NoEventsBeforeT0Error, TdapError
from .estimators import _ap, average_precision  # bench/spans.py wraps the latter here
from .inference import BootstrapSpec, _bootstrap_horizons
from .inference import _replicate_matrix  # bench/spans.py wraps it here

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
# values per step of the failure draw: 128 KiB temporaries are reused from
# the heap, where 512 KiB ones were faulted in afresh at every step
_DRAW_CHUNK = 16_384

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
        horizons = tuple(self.horizons)
        if not horizons:
            raise ValueError("horizons must be non-empty")
        for t0 in horizons:
            _check_horizon(t0)
            if not t0 < _UNIFORM_HIGH:
                raise ValueError(
                    f"horizon {t0!r} outside the generator's support "
                    f"(0, {_UNIFORM_HIGH})"
                )
        object.__setattr__(self, "horizons", tuple(map(float, horizons)))
        if not (_is_integer(self.oracle_size) and self.oracle_size >= 100_000):
            raise ValueError(
                f"oracle_size must be an int >= 100000, got {self.oracle_size!r}"
            )
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")
        for name in ("n", "replications", "oracle_size", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))


def _draw_u1(n: int, rng: np.random.Generator) -> np.ndarray:
    """U1, the first draw on the stream; values of exactly 0 are redrawn."""
    u1 = rng.standard_normal(n)
    # log(U1^2) needs U1 != 0; probability-zero case redrawn for safety
    while True:
        zero = u1 == 0.0
        if not zero.any():
            break
        u1[zero] = rng.standard_normal(int(zero.sum()))
    return u1


def _normal_steps(n: int, rng: np.random.Generator):
    """Yield n standard-normal values ``_DRAW_CHUNK`` at a time.

    The steps consume the stream as one draw of n does and give its
    values, in order.
    """
    for lo in range(0, n, _DRAW_CHUNK):
        yield rng.standard_normal(min(_DRAW_CHUNK, n - lo))


def _failure_steps(u1: np.ndarray, u2_steps, rng: np.random.Generator):
    """Yield ``(start, T step)`` for each step of the failure draw.

    ``u2_steps`` gives U2 ``_DRAW_CHUNK`` values at a time, and ``log T``
    is built from each step of U1 and U2, term by term in the order of
    the model formula with the step's noise last.  The noise is drawn
    from ``rng``, which must stand at the noise's start: after U1 and
    U2 on the stream.  Each step's T is a new array, which the caller
    may keep or drop.
    """
    for lo, v2 in zip(range(0, u1.size, _DRAW_CHUNK), u2_steps):
        v1 = u1[lo : lo + v2.size]
        log_t = (
            _INTERCEPT - _COEF_U1 * v1 - _COEF_U2 * v2 - _COEF_LOG * np.log(v1 * v1)
            + rng.normal(0.0, _NOISE_SD, v1.size)
        )
        yield lo, np.exp(log_t, out=log_t)


def _draw_failure(n: int, rng: np.random.Generator):
    """Draw (T, U1, U2); U1 values of exactly 0 are redrawn.

    No more than three arrays of n values (U1, U2 and T) are alive at any
    point: T is filled one ``_failure_steps`` step at a time.
    """
    u1 = _draw_u1(n, rng)
    u2 = rng.standard_normal(n)
    t = np.empty(n)
    u2_steps = (u2[lo : lo + _DRAW_CHUNK] for lo in range(0, n, _DRAW_CHUNK))
    for lo, step in _failure_steps(u1, u2_steps, rng):
        t[lo : lo + step.size] = step
    return t, u1, u2


def _draw_latent(n: int, rng: np.random.Generator):
    """Draw (T, C, U1, U2): the failure draw, then the censoring draw.

    The failure draw comes first on the stream, so T, U1 and U2 are the
    values ``_draw_failure`` gives on the same generator.
    """
    t, u1, u2 = _draw_failure(n, rng)
    a = rng.uniform(0.0, _UNIFORM_HIGH, n)
    b = rng.gamma(_GAMMA_SHAPE, 1.0 / _GAMMA_RATE, n)
    c = np.minimum(a, b + 1.0)
    return t, c, u1, u2


def generate_cohort(n: int, seed) -> CohortSample:
    """Draw one censored paired cohort of size ``n``.

    ``seed`` may be an int, a SeedSequence, or a Generator.
    """
    if not (_is_integer(n) and n >= 1):
        raise ValueError(f"n must be an int >= 1, got {n!r}")
    rng = np.random.default_rng(seed)
    t, c, u1, u2 = _draw_latent(n, rng)
    times = np.minimum(t, c)
    status = (t <= c).astype(float)
    return CohortSample(times, status, u1, u2, _owned=True)


def _oracle(config: SimulationConfig):
    """One large uncensored draw -> (true accuracy cells, event rates).

    Only the failure draw is made: with T fully observed every weight is
    1 and there is no censoring to draw.  No step holds two arrays of n
    values.  U1 is drawn whole; U2 is skipped, one ``_DRAW_CHUNK`` step
    at a time with its values dropped, so that the stream stands at the
    noise.  One lockstep pass then takes each step's U2 from a copy of
    the generator at U2's start and its noise from the stream, builds
    that step's T (``_failure_steps``) and keeps only the step's cases
    at the largest horizon: their position and their horizon slot, the
    number of distinct horizons at or below T, so T < t0_k exactly when
    the slot is at most k.  The event rates come from the slot counts.
    U1 is then handed to ``_oracle_aps`` for its cells, which frees it,
    and U2 is drawn again whole, bit for bit, from its start for its own.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, _STREAM_ORACLE))
    )
    n = config.oracle_size
    grid = np.unique(config.horizons)
    slot_of = {t0: int(np.searchsorted(grid, t0)) for t0 in config.horizons}
    u1 = _draw_u1(n, rng)
    u2_start = copy.deepcopy(rng)
    for _ in _normal_steps(n, rng):  # skip U2: the noise follows it
        pass
    # the slot reaches grid.size, so its type grows with the horizon count;
    # one comparison per horizon costs less than a binary search per value
    slot_type = np.min_scalar_type(grid.size)
    pos_type = np.min_scalar_type(n)
    kept = []
    u2_steps = _normal_steps(n, copy.deepcopy(u2_start))
    for lo, t in _failure_steps(u1, u2_steps, rng):
        slots = np.zeros(t.size, dtype=slot_type)
        for t0 in grid:
            slots += t >= t0
        case = np.flatnonzero(slots < grid.size)
        kept.append(((lo + case).astype(pos_type), slots[case]))
    case_pos, case_slot = (np.concatenate(col) for col in zip(*kept))
    del kept
    cases_upto = np.cumsum(np.bincount(case_slot, minlength=grid.size))
    rates = {t0: int(cases_upto[k]) / n for t0, k in slot_of.items()}
    held = [u1]
    del u1  # held alone, so that _oracle_aps frees it once it is read
    aps1 = _oracle_aps(held, case_pos, case_slot, slot_of)
    aps2 = _oracle_aps([u2_start.standard_normal(n)], case_pos, case_slot, slot_of)
    trues: dict[tuple[float, str], float] = {}
    for name, aps in (("AP1", aps1), ("AP2", aps2)):
        trues.update(((t0, name), ap) for t0, ap in aps.items())
    for t0 in config.horizons:
        trues[(t0, "rAP")] = trues[(t0, "AP1")] / trues[(t0, "AP2")]
    return trues, rates


def _oracle_aps(held: list, case_pos, case_slot, slot_of) -> dict[float, float]:
    """One oracle score's AP at each horizon, from one pass over its edges.

    ``held`` is a list holding the score alone: the score is taken out,
    sorted in place and, unless the caller keeps another reference, freed
    before any AP is formed.  ``case_pos`` holds the cases' positions in
    it and ``case_slot`` their horizon slots; a case is among horizon k's
    cases when its slot is at most k.

    Each case value, highest first, is replaced by its doubled screened
    count ``2 n - left - right``, where ``sorted[left:right]`` is its tie
    run.  Distinct values give distinct counts and -0.0 ties with 0.0,
    so each run of equal counts is one anchor, and horizon k's tie counts
    are the runs' counts of slot at most k.  AP goes through the kernel's
    own AP lines (``estimators._ap``), on contiguous arrays in descending
    score order as the kernel's are (``einsum`` sums in memory order), so
    it equals ``_accuracy`` over that horizon's case-anchored segments
    (one bin per tie run of a case, one per run of caseless groups
    between them) bit for bit; NaN without a case.
    """
    score = held.pop()
    n = score.size
    # the cases highest first: negated, so that an ascending sort gives
    # that order without the copy a reversed view of it would cost
    order = np.negative(score[case_pos]).argsort()
    # their values in that order, gathered in steps: with the order held,
    # an index array of the case count would raise the peak.  The
    # positions are in range, and "clip" spares the buffer that take's
    # default mode fills for ``out``.  The searches below replace the
    # values by their counts
    screened = np.empty(order.size)
    for lo in range(0, order.size, _DRAW_CHUNK):
        step = slice(lo, lo + _DRAW_CHUNK)
        score.take(case_pos[order[step]], out=screened[step], mode="clip")
    slot = case_slot[order]
    del order
    score.sort()
    # sorted keys keep the searches cache-friendly.  A run ends one past
    # its left edge unless the next score still equals the case: only
    # then is the right edge searched (an edge of n reads the last score)
    for lo in range(0, screened.size, _DRAW_CHUNK):
        values = screened[lo : lo + _DRAW_CHUNK]
        left = score.searchsorted(values, side="left")
        right = left + 1
        longer = np.flatnonzero(score.take(right, mode="clip") == values)
        right[longer] = score.searchsorted(values[longer], side="right")
        left += right
        np.subtract(2 * n, left, out=values)
    del score
    # the counts ascend from at least 1, so the first run starts at 0
    first = np.flatnonzero(np.diff(screened, prepend=0.0))
    run_screened = screened[first]
    aps = {}
    for t0, k in slot_of.items():
        ties = np.add.reduceat(slot <= k, first, dtype=np.intp)
        anchor = np.flatnonzero(ties)
        ap, _ = _ap(ties[None, anchor].astype(float), run_screened[None, anchor])
        aps[t0] = float(ap[0])
    return aps


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
    """One valid cohort's (horizons, estimands, 4) point, SE, lower, upper.

    A cell is the library bootstrap's summary (``_bootstrap_horizons``)
    on the cohort with the horizon's seed, as ``tdap compare`` prints it.
    Attempt k draws stream ``(seed, cohort, r, k)``; the last validation
    error is raised after 1,000 attempts.  Also returns the censored
    share and the accepted attempt's index.
    """
    for regenerated in range(1000):
        ss = np.random.SeedSequence((config.seed, _STREAM_COHORT, r, regenerated))
        cohort = generate_cohort(config.n, ss)
        try:
            for t0 in config.horizons:
                validate_horizon(cohort, t0)
        except TdapError as err:
            last_err = err
            continue
        break
    else:
        raise last_err

    cells = np.empty((len(config.horizons), len(ESTIMANDS), 4))
    for h, t0 in enumerate(config.horizons):
        boot = np.random.SeedSequence((config.seed, _STREAM_BOOT, r, h))
        spec = replace(config.bootstrap, seed=int(boot.generate_state(1, np.uint64)[0]))
        ((_, summaries),) = _bootstrap_horizons(cohort, spec, [t0], _BOOT_ESTIMANDS)
        cells[h] = [(s.point, s.se, s.lower, s.upper) for s in summaries.values()]
    censored_fraction = float(np.mean(cohort.status == 0.0))
    return cells, censored_fraction, regenerated


def run_study(config: SimulationConfig, threads: int = 1) -> SimulationReport:
    """Run the full Monte-Carlo study described by ``config``.

    Replications use independent seed streams indexed by replication
    number.  ``threads`` is accepted for compatibility; runs are
    single-threaded, so it never changes the report.  A drawn
    cohort failing horizon validation is replaced using that
    replication's next stream and counted in ``regenerated``.  The
    first horizon, in config order, at which the oracle has no event
    raises ``NoEventsBeforeT0Error`` before any cohort is drawn: it has
    no true value to cover.
    """
    trues, event_rates = _oracle(config)
    for t0 in config.horizons:
        if event_rates[t0] == 0.0:
            raise NoEventsBeforeT0Error(t0)

    reps = config.replications
    results = [_one_replication(config, r) for r in range(reps)]

    # each (reps, horizons, estimands)
    est, ses, lo, hi = np.moveaxis(np.stack([res[0] for res in results]), -1, 0)
    cens = float(np.mean([res[1] for res in results]))
    regenerated = int(sum(res[2] for res in results))

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
