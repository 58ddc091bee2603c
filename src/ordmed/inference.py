"""Percentile-bootstrap confidence intervals for the effect table.

Resampling is row-wise i.i.d. with replacement over full (x, m, y, c)
records.  Each resample owns the stream keyed (seed, resample index), so
results are bitwise reproducible and independent of evaluation order; the
point estimate always comes from the full data, never from resamples.
``_stacked_effects`` fits and evaluates the resamples, and the Monte Carlo
study's replicates, in stacks of about 12,000 records and keeps each one's
error by its index.  Only about 63% of a resample's records are distinct,
so it is fitted on its distinct records with their draw counts as weights,
taken from one sort of the data (``stacks._resampled``), exactly as a fit of
``data.subset(idx)`` is.

Quantiles use linear interpolation between order statistics ("type 7")
throughout.  Only percentile intervals are provided; BCa or studentized
intervals would extend the same estimate collection but are not built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effects import EffectQuery, EffectTable, _effect_rows, effect_labels, effect_table
from .estimation import FitResult, _fit_pairs, fit_mediator, fit_outcome
from .exceptions import DegenerateDataError, ModelSpecError
from .models import Dataset, _level, _seed, _whole
from .numerics import keyed_streams
from .stacks import _record_groups, _resampled

_BOOTSTRAP_DOMAIN = 2

# Records per stack.  Every Newton round has a fixed cost whatever the stack
# holds, so a stack packs as many problems of n records as fit in this budget
# (at least one): small problems share rounds, and the stacked arrays of large
# ones stay within a bounded size.  Results do not depend on the budget.
_STACK_RECORDS = 12_000


def quantile(sorted_sample, q):
    """Type-7 empirical quantile of an ascending sample: linear interpolation
    at rank (n - 1) * q between order statistics.  Given a table whose
    columns ascend, the quantile of every column, as an array."""
    s = np.asarray(sorted_sample, dtype=float)
    if s.ndim not in (1, 2) or not len(s):
        raise ValueError("sample must be a nonempty 1-d collection or a table of columns")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    h = (len(s) - 1) * float(q)
    lo = int(np.floor(h))
    hi = min(lo + 1, len(s) - 1)
    value = s[lo] + (h - lo) * (s[hi] - s[lo])
    return float(value) if s.ndim == 1 else value


def percentile_interval(sample, level):
    """Equal-tailed percentile interval: ((1-level)/2, 1-(1-level)/2)
    empirical quantiles of ``sample``, or of every column of a table.  A
    constant sample yields a zero-width interval at that value."""
    level = _level(level)
    s = np.sort(np.asarray(sample, dtype=float), axis=0)
    tail = (1.0 - level) / 2.0
    return quantile(s, tail), quantile(s, 1.0 - tail)


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    """Point estimates plus bootstrap spread for every effect entry.

    Arrays are aligned with ``labels`` (the canonical effect order).
    ``estimates`` keeps the successful resample values, one row per resample
    in resample order, for export or further summaries.  ``mediator_fit`` and
    ``outcome_fit`` are the full-data fits that ``point`` is computed from.
    """

    point: EffectTable
    labels: tuple[tuple[str, str], ...]
    boot_sd: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    B: int
    level: float
    failures: int
    estimates: np.ndarray
    mediator_fit: FitResult
    outcome_fit: FitResult

    def __post_init__(self):
        for arr in (self.boot_sd, self.ci_lower, self.ci_upper, self.estimates):
            arr.flags.writeable = False

    @property
    def unreliable(self):
        """True when more than half the resamples failed; intervals from the
        surviving minority should not be trusted."""
        return self.failures > self.B / 2


def _stacked_effects(query: EffectQuery, count, n, stack_of):
    """The effect rows of ``count`` problems of ``n`` records each, fitted and
    evaluated ``max(1, _STACK_RECORDS // n)`` at a time: ``stack_of(ids)``
    draws the datasets of the problems ``ids`` as a stack.  Returns the rows
    of the problems that both fits succeed on, in problem order, and per
    problem None or the error that failed it."""
    size = max(1, _STACK_RECORDS // n)
    rows, errors = [], []
    for start in range(0, count, size):
        mediators, outcomes, stack_errors = _fit_pairs(stack_of(range(start, min(start + size, count))))
        rows.append(_effect_rows(query, mediators, outcomes))
        errors += stack_errors
    return np.concatenate(rows), errors


def _sample_sd(estimates):
    """Sample standard deviation of each column; NaN with fewer than two rows."""
    if estimates.shape[0] < 2:
        return np.full(estimates.shape[1], np.nan)
    return estimates.std(axis=0, ddof=1)


def _check_summary(query: EffectQuery, estimates, *summaries):
    """Raise ModelSpecError, naming the query, when a summary of the effect
    rows ``estimates`` is not finite.  A single row is its own mean and
    bounds, and its SD is NaN, meaning absent, so it is not checked."""
    if len(estimates) > 1 and not np.isfinite(summaries).all():
        raise ModelSpecError(
            f"the summary of the effects at x={query.x!r}, xstar={query.xstar!r}, c={query.c!r} "
            "overflows double precision"
        )


def bootstrap_effects(data: Dataset, query: EffectQuery, B, level=0.95, *, seed) -> BootstrapResult:
    """Percentile bootstrap of the full effect table.

    Resample b draws its row indices from the stream keyed (seed, b).
    Degenerate resamples (a missing outcome level or a single mediator value)
    and resamples whose fits fail are counted in ``failures`` and excluded,
    never redrawn.  Resamples are drawn, fitted and evaluated in stacks of
    about 12,000 records, as arrays, each on its distinct records with
    counts; each one's fits are bitwise those of ``fit_mediator``/
    ``fit_outcome`` on it, and its effects those of ``effect_table`` on
    their models.
    """
    B = _whole(B, "B", 1)
    seed = _seed(seed)
    level = _level(level)

    point_mediator = fit_mediator(data)
    point_outcome = fit_outcome(data)
    point = effect_table(query, point_mediator.model, point_outcome.model)

    distinct, group = _record_groups(data)

    def resamples(ids):
        keys = np.column_stack([np.full(len(ids), _BOOTSTRAP_DOMAIN), ids])
        idx = np.stack([rng.integers(0, data.n, size=data.n) for rng in keyed_streams(seed, keys)])
        return _resampled(data, distinct, group, idx)

    estimates, _ = _stacked_effects(query, B, data.n, resamples)
    if not estimates.shape[0]:
        raise DegenerateDataError(f"all {B} bootstrap resamples failed; no interval can be formed")
    with np.errstate(over="ignore", invalid="ignore"):
        boot_sd = _sample_sd(estimates)
        ci_lower, ci_upper = percentile_interval(estimates, level)
    _check_summary(query, estimates, boot_sd, ci_lower, ci_upper)

    return BootstrapResult(
        point=point,
        labels=effect_labels(data.J),
        boot_sd=boot_sd,
        ci_lower=ci_lower,
        ci_upper=ci_upper,
        B=B,
        level=float(level),
        failures=B - estimates.shape[0],
        estimates=estimates,
        mediator_fit=point_mediator,
        outcome_fit=point_outcome,
    )
