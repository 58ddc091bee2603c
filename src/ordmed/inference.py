"""Percentile-bootstrap confidence intervals for the effect table.

Resampling is row-wise i.i.d. with replacement over full (x, m, y, c)
records.  Each resample owns the stream keyed (seed, resample index), so
results are bitwise reproducible and independent of evaluation order; the
point estimate always comes from the full data, never from resamples.

Quantiles use linear interpolation between order statistics (the common
"type 7" convention) throughout.  Only percentile intervals are provided;
BCa or studentized intervals would be drop-in extensions of the same
estimate collection but are intentionally not built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effects import EffectQuery, EffectTable, _effect_rows, effect_labels, effect_table
from .estimation import _STACK_SIZE, FitResult, _fit_pairs, _Stack, fit_mediator, fit_outcome
from .exceptions import DegenerateDataError
from .models import Dataset
from .numerics import keyed_stream

_BOOTSTRAP_DOMAIN = 2


def quantile(sorted_sample, q):
    """Type-7 empirical quantile of an ascending sample: linear interpolation
    at rank (n - 1) * q between order statistics."""
    s = np.asarray(sorted_sample, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("sample must be a nonempty 1-d collection")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    h = (s.size - 1) * float(q)
    lo = int(np.floor(h))
    hi = min(lo + 1, s.size - 1)
    return float(s[lo] + (h - lo) * (s[hi] - s[lo]))


def percentile_interval(sample, level):
    """Equal-tailed percentile interval: ((1-level)/2, 1-(1-level)/2)
    empirical quantiles of ``sample``.  A constant sample yields a zero-width
    interval at that value."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    s = np.sort(np.asarray(sample, dtype=float))
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


def bootstrap_effects(data: Dataset, query: EffectQuery, B, level=0.95, *, seed) -> BootstrapResult:
    """Percentile bootstrap of the full effect table.

    Resample b draws its row indices from the stream keyed (seed, b).
    Degenerate resamples (a missing outcome level or a single mediator value)
    and resamples whose fits fail are counted in ``failures`` and excluded,
    never redrawn.  Resamples are drawn, fitted and evaluated 16 at a time,
    as arrays; each one's fits are bitwise those of
    ``fit_mediator``/``fit_outcome`` on it, and its effects those of
    ``effect_table`` on their models.
    """
    B = int(B)
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")

    point_mediator = fit_mediator(data)
    point_outcome = fit_outcome(data)
    point = effect_table(query, point_mediator.model, point_outcome.model)

    rows = []
    failures = 0
    for start in range(0, B, _STACK_SIZE):
        idx = np.stack([
            keyed_stream(seed, _BOOTSTRAP_DOMAIN, b).integers(0, data.n, size=data.n)
            for b in range(start, min(start + _STACK_SIZE, B))
        ])
        resamples = _Stack(data.x[idx], data.m[idx], data.y[idx], data.covariates[idx], data.J)
        mediators, outcomes, errors = _fit_pairs(resamples)
        rows.append(_effect_rows(query, mediators, outcomes))
        failures += len(errors) - len(mediators)

    estimates = np.concatenate(rows)
    if not estimates.shape[0]:
        raise DegenerateDataError(f"all {B} bootstrap resamples failed; no interval can be formed")
    if estimates.shape[0] >= 2:
        boot_sd = estimates.std(axis=0, ddof=1)
    else:
        boot_sd = np.full(estimates.shape[1], np.nan)
    bounds = [percentile_interval(estimates[:, k], level) for k in range(estimates.shape[1])]
    ci_lower = np.array([lo for lo, _ in bounds])
    ci_upper = np.array([hi for _, hi in bounds])

    return BootstrapResult(
        point=point,
        labels=effect_labels(data.J),
        boot_sd=boot_sd,
        ci_lower=ci_lower,
        ci_upper=ci_upper,
        B=B,
        level=float(level),
        failures=failures,
        estimates=estimates,
        mediator_fit=point_mediator,
        outcome_fit=point_outcome,
    )
