"""Parametric building blocks: the logistic mediator regression, the
proportional-odds outcome regression, validated observation data, and the
input rules every module applies (whole numbers, finite reals, seeds,
confidence levels, and a model's dimensions against a dataset's).

Outcome levels are coded 1..J externally; thresholds are indexed 1..J-1.
Probabilities are never clamped: invalid parameter vectors are rejected at
construction instead, so a probability outside [0, 1] downstream always
indicates a bug rather than a silently repaired model.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass

import numpy as np

from .exceptions import DataValidationError, DimensionError, ModelSpecError
from .numerics import expit


def _finite_scalar(value, name):
    try:
        real = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelSpecError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(real):
        raise ModelSpecError(f"{name} must be finite, got {real!r}")
    return real


def _finite_tuple(values, name):
    if isinstance(values, (str, bytes)):  # iterable, but not a sequence of reals
        raise ModelSpecError(f"{name} must be a sequence of reals, got {values!r}")
    try:
        return tuple(_finite_scalar(v, f"every entry of {name}") for v in values)
    except TypeError as exc:  # not iterable
        raise ModelSpecError(f"{name} must be a sequence of reals, got {values!r}") from exc


def _whole(value, name, low, high=None):
    """``value`` as an int, if it is a whole number in [low, high)."""
    try:
        whole = operator.index(value)  # exact for ints beyond float precision
    except TypeError:
        whole = int(value) if isinstance(value, (float, np.floating)) and value.is_integer() else None
    if whole is None or whole < low or (high is not None and whole >= high):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ModelSpecError(f"{name} must be a whole number {bound}, got {value!r}")
    return whole


def _seed(value):
    """A seed of the keyed streams: a whole number in [0, 2**64)."""
    return _whole(value, "seed", 0, 2**64)


def _level(value):
    """A confidence level: a real number in (0, 1)."""
    level = _finite_scalar(value, "level")
    if not 0.0 < level < 1.0:
        raise ModelSpecError(f"level must lie in (0, 1), got {value!r}")
    return level


def _covariate_vector(c, p, owner):
    arr = np.array(_finite_tuple(() if c is None else c, "c"))
    if arr.size != p:
        raise DimensionError(f"{owner} expects {p} covariate(s), got {arr.size}")
    return arr


def _check_dims(model, data):
    """A model fits a dataset's covariate count and, for outcomes, its levels."""
    if model.p != data.p:
        raise DimensionError(f"model has {model.p} covariate(s) but dataset has {data.p}")
    if isinstance(model, OutcomeModel) and model.J != data.J:
        raise DimensionError(f"model has J={model.J} levels but dataset declares J={data.J}")


def _check_mediator_value(m):
    return _whole(m, "mediator value m", 0, 2)


def _check_level(j, J):
    return _whole(j, "threshold index j", 1, J)


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
        return float(_mediator_eta(self, _finite_scalar(x, "x"), c))


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

    Column arrays are the storage (and are frozen read-only).  Construction
    rejects columns that are not numpy arrays of matching shapes, a J or p
    that is not a whole number, a non-finite x or covariate, an m outside
    {0, 1} and a y that is not an integer column in 1..J, naming the first
    such row; :func:`validate_dataset` checks raw records and lists every
    bad one.
    """

    x: np.ndarray
    m: np.ndarray
    y: np.ndarray
    covariates: np.ndarray
    J: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "J", _whole(self.J, "J", 2))
        object.__setattr__(self, "p", _whole(self.p, "p", 0))
        columns = (self.x, self.m, self.y, self.covariates)
        if not all(isinstance(column, np.ndarray) for column in columns):  # checked before any shape is read
            raise ValueError("x, m, y and covariates must be numpy arrays")
        if self.x.ndim != 1 or self.m.shape != self.x.shape or self.y.shape != self.x.shape:
            raise ValueError("x, m, y must be equally long 1-d arrays")
        n = self.x.shape[0]
        if self.covariates.shape != (n, self.p):
            raise ValueError(f"covariates must have shape ({n}, {self.p})")
        if n == 0:
            raise DataValidationError("dataset is empty")
        # y indexes per-level arrays, so a float column fails even where its values are whole
        integer = np.issubdtype(self.y.dtype, np.integer)
        rules = [("x", self.x, np.isfinite(self.x), "finite reals"),
                 ("m", self.m, (self.m == 0) | (self.m == 1), "0 or 1"),
                 ("y", self.y, integer & (self.y >= 1) & (self.y <= self.J), f"integers in 1..{self.J}")]
        rules += [(f"c{k}", c, np.isfinite(c), "finite reals") for k, c in enumerate(self.covariates.T, 1)]
        for name, column, ok, rule in rules:
            if not ok.all():
                row = int(np.flatnonzero(~ok)[0])
                raise DataValidationError(f"column {name} must hold {rule}; row {row} holds {column[row].item()!r}")
        for column in columns:
            column.flags.writeable = False

    @property
    def n(self):
        return self.x.shape[0]

    def subset(self, indices):
        """New Dataset holding rows ``indices`` (repeats allowed, as in a
        bootstrap resample).  The indices must be integers: a boolean mask
        or a float index is refused, not cast."""
        idx = np.asarray(indices)
        if idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"row indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.intp, copy=False)
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
    return _finite_scalar(x, "x"), _check_mediator_value(m), _covariate_vector(c, model.p, "outcome model")


def _record_fields(p):
    """The fields of a data record with p covariates, in order: x, m, y, c1..cp."""
    return ("x", "m", "y", *(f"c{k}" for k in range(1, p + 1)))


def validate_dataset(records, J=None, p=0):
    """Check raw rows and assemble a :class:`Dataset`.

    ``records`` is an iterable of rows ``(x, m, y, c1, ..., cp)``; entries may
    be numbers or numeric strings (as read from CSV).  Without ``J`` the
    number of outcome levels is the largest y, and every y must be a whole
    number from 1 to the record count: a larger J could never have every
    level observed.  Every violation across the whole input is collected
    into the raised :class:`~ordmed.exceptions.DataValidationError`, one
    ``(row_index, field, reason)`` triple each; its message names ten.
    """
    if J is not None:
        J = _whole(J, "J", 2, 2**63)  # y is stored as int64
    p = _whole(p, "p", 0)

    rows = list(records)  # each row is made a tuple only while it is checked
    if not rows:
        raise DataValidationError("dataset is empty")
    levels = f"1..{J}" if J is not None else f"1..{len(rows)} (J is inferred: at most one level per record)"
    top = len(rows) if J is None else J

    fields = _record_fields(p)
    cells, problems = array("d"), []  # raw doubles, row-major: a list would keep a float object per cell
    for i, row in enumerate(map(tuple, rows)):
        if len(row) != len(fields):
            problems.append((i, "row", f"expected {len(fields)} fields (x, m, y{', c1..c%d' % p if p else ''}), got {len(row)}"))
            continue
        for field, value in zip(fields, row):
            try:
                v = _finite_scalar(value, "value")
            except ModelSpecError as exc:
                problems.append((i, field, str(exc)))
                continue
            if field == "m" and v not in (0.0, 1.0):
                problems.append((i, field, f"must be 0 or 1, got {value!r}"))
            elif field == "y" and not (v.is_integer() and 1 <= v <= top):
                problems.append((i, field, f"must be an integer in {levels}, got {value!r}"))
            cells.append(v)

    if problems:
        lines = [f"row {i}: field {field}: {reason}" for i, field, reason in problems[:10]]
        more = [f"... and {len(problems) - 10} more"] if len(problems) > 10 else []
        raise DataValidationError(
            f"{len(problems)} invalid value(s) in {len(rows)} records:\n" + "\n".join(lines + more),
            problems,
        )
    cells = np.frombuffer(cells).reshape(len(rows), len(fields))
    m, y = cells[:, 1].astype(np.int64), cells[:, 2].astype(np.int64)
    if J is None:
        J = _whole(int(y.max()), "J", 2)
    return Dataset(cells[:, 0].copy(), m, y, cells[:, 3:].copy(), J, p)


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
