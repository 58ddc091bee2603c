"""Parametric building blocks: the logistic mediator regression, the
proportional-odds outcome regression, and validated observation data.

Outcome levels are coded 1..J externally; thresholds are indexed 1..J-1.
Probabilities are never clamped: invalid parameter vectors are rejected at
construction instead, so a probability outside [0, 1] downstream always
indicates a bug rather than a silently repaired model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataValidationError, DimensionError, ModelSpecError
from .numerics import expit


def _finite_scalar(value, name):
    value = float(value)
    if not np.isfinite(value):
        raise ModelSpecError(f"{name} must be finite, got {value!r}")
    return value


def _finite_tuple(values, name):
    if isinstance(values, (str, bytes)):  # iterable, but not a sequence of reals
        raise ModelSpecError(f"{name} must be a sequence of reals, got {values!r}")
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ModelSpecError(f"{name} must be a sequence of reals") from exc
    if out and not np.all(np.isfinite(out)):
        raise ModelSpecError(f"every entry of {name} must be finite, got {out!r}")
    return out


def _covariate_vector(c, p, owner):
    arr = np.asarray(() if c is None else c, dtype=float).reshape(-1)
    if arr.size != p:
        raise DimensionError(f"{owner} expects {p} covariate(s), got {arr.size}")
    return arr


def _check_mediator_value(m):
    if m not in (0, 1):
        raise ValueError(f"mediator must be 0 or 1, got {m!r}")
    return int(m)


def _check_level(j, J):
    j = int(j)
    if not 1 <= j <= J - 1:
        raise ValueError(f"threshold index j={j} outside 1..{J - 1}")
    return j


@dataclass(frozen=True)
class MediatorModel:
    """Binary-logistic regression of the mediator on exposure and covariates:
    logit P(M=1 | x, c) = gamma0 + gammaX * x + gammaC . c
    """

    gamma0: float
    gammaX: float
    gammaC: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gamma0", _finite_scalar(self.gamma0, "gamma0"))
        object.__setattr__(self, "gammaX", _finite_scalar(self.gammaX, "gammaX"))
        object.__setattr__(self, "gammaC", _finite_tuple(self.gammaC, "gammaC"))

    @property
    def p(self):
        return len(self.gammaC)

    def linear_predictor(self, x, c=()):
        c = _covariate_vector(c, self.p, "mediator model")
        return float(_mediator_eta(self, float(x), c))


@dataclass(frozen=True)
class OutcomeModel:
    """Proportional-odds cumulative-logit regression for an ordinal outcome:
    logit P(Y<=j | x, m, c) = alpha[j] - (betaX*x + betaM*m + betaXM*x*m + betaC . c)

    A single slope vector is shared by all J-1 thresholds; alpha must be
    strictly increasing so that every category probability is nonnegative.
    """

    alpha: tuple[float, ...]
    betaX: float
    betaM: float
    betaXM: float
    betaC: tuple[float, ...] = ()

    def __post_init__(self):
        alpha = _finite_tuple(self.alpha, "alpha")
        if len(alpha) < 1:
            raise ModelSpecError("alpha needs at least one threshold (J >= 2)")
        if any(a1 >= a2 for a1, a2 in zip(alpha, alpha[1:])):
            raise ModelSpecError(f"thresholds must be strictly increasing, got {alpha!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "betaX", _finite_scalar(self.betaX, "betaX"))
        object.__setattr__(self, "betaM", _finite_scalar(self.betaM, "betaM"))
        object.__setattr__(self, "betaXM", _finite_scalar(self.betaXM, "betaXM"))
        object.__setattr__(self, "betaC", _finite_tuple(self.betaC, "betaC"))

    @property
    def J(self):
        return len(self.alpha) + 1

    @property
    def p(self):
        return len(self.betaC)

    def linear_predictor(self, x, m, c=()):
        return float(_outcome_eta(self, *_outcome_query(self, x, m, c)))


def _parameters(model):
    """The natural parameter vector of a model: (gamma0, gammaX, gammaC...)
    or (alpha_1..alpha_{J-1}, betaX, betaM, betaXM, betaC...)."""
    if isinstance(model, MediatorModel):
        return np.array([model.gamma0, model.gammaX, *model.gammaC])
    return np.array([*model.alpha, model.betaX, model.betaM, model.betaXM, *model.betaC])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Validated sample with J outcome levels and p covariates.

    Column arrays are the storage (and are frozen read-only).  Construct
    through :func:`validate_dataset` unless the arrays are already known-valid.
    """

    x: np.ndarray
    m: np.ndarray
    y: np.ndarray
    covariates: np.ndarray
    J: int
    p: int

    def __post_init__(self):
        n = self.x.shape[0]
        if self.x.ndim != 1 or self.m.shape != (n,) or self.y.shape != (n,):
            raise ValueError("x, m, y must be equally long 1-d arrays")
        if self.covariates.shape != (n, self.p):
            raise ValueError(f"covariates must have shape ({n}, {self.p})")
        if n == 0:
            raise DataValidationError("dataset is empty")
        for arr in (self.x, self.m, self.y, self.covariates):
            arr.flags.writeable = False

    @property
    def n(self):
        return self.x.shape[0]

    def subset(self, indices):
        """New Dataset holding rows ``indices`` (repeats allowed, as in a
        bootstrap resample)."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.x[idx], self.m[idx], self.y[idx], self.covariates[idx], self.J, self.p)


def mediator_probability(model: MediatorModel, x, c=()):
    """P(M=1 | x, c) under the logistic mediator model."""
    return expit(model.linear_predictor(x, c))


def cumulative_probability(model: OutcomeModel, j, x, m, c=()):
    """P(Y<=j | x, m, c) under the proportional-odds model, 1 <= j <= J-1."""
    j = _check_level(j, model.J)
    return float(_cumulative_probs(model, *_outcome_query(model, x, m, c))[j - 1])


def category_probabilities(model: OutcomeModel, x, m, c=()):
    """Length-J vector of P(Y=j | x, m, c); see :func:`_category_probs`."""
    return _category_probs(model, *_outcome_query(model, x, m, c))


def _outcome_query(model: OutcomeModel, x, m, c):
    # one validated (x, m, c) point of the outcome model
    return float(x), _check_mediator_value(m), _covariate_vector(c, model.p, "outcome model")


def validate_dataset(records, J, p=0):
    """Check raw rows and assemble a :class:`Dataset`.

    ``records`` is an iterable of rows ``(x, m, y, c1, ..., cp)``; entries may
    be numbers or numeric strings (as read from CSV).  Every violation across
    the whole input is collected into the raised
    :class:`~ordmed.exceptions.DataValidationError`, one
    ``(row_index, field, reason)`` triple each.
    """
    J = int(J)
    p = int(p)
    if J < 2:
        raise ModelSpecError(f"J must be >= 2, got {J}")
    if p < 0:
        raise ModelSpecError(f"p must be >= 0, got {p}")

    rows = [tuple(row) for row in records]
    if not rows:
        raise DataValidationError("dataset is empty")

    problems = []

    def number(i, field, value):
        try:
            v = float(value)
        except (TypeError, ValueError):
            problems.append((i, field, f"not a number: {value!r}"))
            return None
        if not np.isfinite(v):
            problems.append((i, field, f"not finite: {value!r}"))
            return None
        return v

    width = 3 + p
    xs = np.empty(len(rows))
    ms = np.empty(len(rows), dtype=np.int64)
    ys = np.empty(len(rows), dtype=np.int64)
    cs = np.empty((len(rows), p))
    for i, row in enumerate(rows):
        if len(row) != width:
            problems.append((i, "row", f"expected {width} fields (x, m, y{', c1..c%d' % p if p else ''}), got {len(row)}"))
            continue
        v = number(i, "x", row[0])
        if v is not None:
            xs[i] = v
        v = number(i, "m", row[1])
        if v is not None:
            if v in (0.0, 1.0):
                ms[i] = int(v)
            else:
                problems.append((i, "m", f"must be 0 or 1, got {row[1]!r}"))
        v = number(i, "y", row[2])
        if v is not None:
            if v == int(v) and 1 <= v <= J:
                ys[i] = int(v)
            else:
                problems.append((i, "y", f"must be an integer in 1..{J}, got {row[2]!r}"))
        for k in range(p):
            v = number(i, f"c{k + 1}", row[3 + k])
            if v is not None:
                cs[i, k] = v

    if problems:
        lines = [f"row {i}: field {field}: {reason}" for i, field, reason in problems]
        raise DataValidationError(
            f"{len(problems)} invalid value(s) in {len(rows)} records:\n" + "\n".join(lines),
            problems,
        )
    return Dataset(xs, ms, ys, cs, J, p)


# The one implementation of each predictor and probability.  Arguments are
# either arrays of n exposures, mediator values and an (n, p) covariate
# matrix, or one exposure, one mediator value and a length-p covariate
# vector; probabilities gain a trailing axis over the thresholds or levels.

def _mediator_eta(model: MediatorModel, x, C):
    eta = model.gamma0 + model.gammaX * x
    if model.p:
        eta = eta + C @ np.asarray(model.gammaC, dtype=float)
    return eta


def _outcome_eta(model: OutcomeModel, x, m, C):
    eta = model.betaX * x + model.betaM * m + model.betaXM * x * m
    if model.p:
        eta = eta + C @ np.asarray(model.betaC, dtype=float)
    return eta


def _threshold_logits(model: OutcomeModel, x, m, C):
    # z[..., j] = alpha_j - eta
    eta = _outcome_eta(model, x, m, C)
    return np.asarray(model.alpha, dtype=float) - np.expand_dims(eta, -1)


def _cumulative_probs(model: OutcomeModel, x, m, C):
    return expit(_threshold_logits(model, x, m, C))


def _category_probs(model: OutcomeModel, x, m, C):
    """P(Y=j | x, m, c) for j = 1..J: differences of the cumulative
    probabilities, evaluated in a product form that stays exact when both
    cumulative values saturate, so the entries are nonnegative and sum to one
    even for extreme predictors.

    F(hi) - F(lo) is rewritten as F(-lo) * F(hi) * (-expm1(lo - hi)), which
    avoids the 1 - 1 cancellation when both cumulative probabilities saturate;
    the boundary categories use lo = -inf and hi = +inf.
    """
    z = _threshold_logits(model, x, m, C)
    shape = z.shape[:-1]
    ext = np.concatenate(
        [np.full(shape + (1,), -np.inf), z, np.full(shape + (1,), np.inf)], axis=-1
    )
    lo = ext[..., :-1]
    hi = ext[..., 1:]
    return expit(-lo) * expit(hi) * (-np.expm1(lo - hi))
