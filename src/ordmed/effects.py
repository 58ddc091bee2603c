"""Closed-form causal effects on the log odds-ratio scale.

For a logistic mediator and a proportional-odds outcome, the total effect of
moving the exposure from ``xstar`` to ``x`` factors exactly, level by level,
into natural direct and indirect parts:

    log TCE_j = log NDE_j + log NIE_j,        j = 1..J-1

with every term an explicit function of the two fitted parameter vectors.
All quantities here are conditional on a single covariate vector ``c``; no
averaging over a covariate distribution is performed.  Exponentiated odds
ratios are a presentation concern handled by the CLI.

The interchanged decomposition (baseline and active exposure swapping roles
inside the mediator) is the same computation with ``x`` and ``xstar`` swapped
in the query; it is deliberately not a separate code path.

The closed forms are evaluated for a stack of model pairs at once, given as
rows of natural parameters: the bootstrap and the Monte Carlo study pass the
rows of each stack of fits straight in, and ``effect_table`` is a stack of
one, so every row is bitwise the table of its own pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConsistencyError, DimensionError, ModelSpecError
from .models import (
    MediatorModel,
    OutcomeModel,
    _check_level,
    _check_mediator_value,
    _covariate_vector,
    _finite_scalar,
    _finite_tuple,
    _parameters,
    _whole,
    category_probabilities,
    cumulative_probability,
    mediator_probability,
)
from .numerics import log1pexp

_DECOMPOSITION_TOL = 1e-10


@dataclass(frozen=True)
class EffectQuery:
    """Contrast specification: active exposure ``x`` against baseline
    ``xstar``, conditional on covariates ``c``."""

    x: float
    xstar: float
    c: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "x", _finite_scalar(self.x, "x"))
        object.__setattr__(self, "xstar", _finite_scalar(self.xstar, "xstar"))
        object.__setattr__(self, "c", _finite_tuple(self.c, "c"))


@dataclass(frozen=True)
class EffectTable:
    """Per-level log effects for one query.

    ``log_tce``, ``log_nde``, ``log_nie`` have one entry per threshold
    j = 1..J-1.  ``log_cde`` is the pair (m=1, m=0); the controlled direct
    effect does not vary with j under proportional odds, so it is stored once
    per mediator level.
    """

    log_tce: tuple[float, ...]
    log_nde: tuple[float, ...]
    log_nie: tuple[float, ...]
    log_cde: tuple[float, float]

    @property
    def J(self):
        return len(self.log_tce) + 1

    def flatten(self):
        """All entries in the canonical label order of :func:`effect_labels`."""
        return np.concatenate([self.log_nde, self.log_nie, self.log_tce, self.log_cde])


def effect_labels(J):
    """Canonical (effect, level) label order used by every tabular export:
    nde 1..J-1, nie 1..J-1, tce 1..J-1, cde m=1, cde m=0."""
    levels = [str(j) for j in range(1, J)]
    return tuple(
        [("nde", j) for j in levels]
        + [("nie", j) for j in levels]
        + [("tce", j) for j in levels]
        + [("cde", "m1"), ("cde", "m0")]
    )


def _check_pair(mediator: MediatorModel, outcome: OutcomeModel, c):
    if mediator.p != outcome.p:
        raise DimensionError(
            f"mediator model has {mediator.p} covariate(s) but outcome model has {outcome.p}"
        )
    return _covariate_vector(c, outcome.p, "effect evaluation")


def _mixture_terms(x, xstar, c, mediator_theta, outcome_theta):
    """Every per-level term of the closed forms at E exposure pairs
    (x[e], xstar[e]) and the covariate vector ``c``, for S model pairs given
    by their natural parameter rows, as (E, S, J-1) arrays keyed ``g0``,
    ``g1``, ``log_rr`` and ``logit``.

    g_d_j is the log odds of M=1 given the event I(Y<=j)=d, mixing the
    outcome part at exposure ``x`` with the mediator part at ``xstar``:

        g_d_j(x, xstar; c) = -d*(betaM + betaXM*x)
                             + log[(1+exp(a_j - betaX*x - betaC.c))
                                   / (1+exp(a_j - betaX*x - betaM - betaXM*x - betaC.c))]
                             + gamma0 + gammaX*xstar + gammaC.c

    log_rr_j = log[(1+exp g_0_j) / (1+exp g_1_j)] is the log relative risk of
    M=0 across I(Y<=j), and logit_j = a_j - betaX*x - betaC.c - log_rr_j is
    logit P(Y(x, M(xstar)) <= j | c).  At xstar = x every term is the
    one-exposure form, by the same arithmetic.  Every operation is
    elementwise or a 1-d dot product per pair, so no entry depends on the
    rest of the stack.
    """
    (gamma0, gammaX), gammaC = mediator_theta[:, :2].T, mediator_theta[:, 2:]
    K = outcome_theta.shape[1] - mediator_theta.shape[1] - 1
    alpha, (betaX, betaM, betaXM) = outcome_theta[:, :K], outcome_theta[:, K:K + 3].T
    betaC = outcome_theta[:, K + 3:]
    x = np.asarray(x, dtype=float)[:, None]
    base = alpha - (betaX * x)[..., None] - np.vecdot(betaC, c)[:, None]
    shift = (betaM + betaXM * x)[..., None]
    log_ratio = log1pexp(base) - log1pexp(base - shift)
    mediator_eta = gamma0 + gammaX * np.asarray(xstar, dtype=float)[:, None] + np.vecdot(gammaC, c)
    g0 = log_ratio + mediator_eta[..., None]
    g1 = -shift + log_ratio + mediator_eta[..., None]
    log_rr = log1pexp(g0) - log1pexp(g1)
    return {"g0": g0, "g1": g1, "log_rr": log_rr, "logit": base - log_rr}


def _term_at(key, j, x, xstar, c, mediator, outcome):
    # validated lookup of one _mixture_terms entry at level j
    c = _check_pair(mediator, outcome, c)
    j = _check_level(j, outcome.J)
    x, xstar = _finite_scalar(x, "x"), _finite_scalar(xstar, "xstar")
    terms = _mixture_terms([x], [xstar], c, _parameters(mediator)[None], _parameters(outcome)[None])
    return float(terms[key][0, 0, j - 1])


def g_cross(d, j, x, xstar, c, mediator: MediatorModel, outcome: OutcomeModel):
    """Log odds of M=1 given the event I(Y<=j)=d, mixing the outcome part at
    exposure ``x`` with the mediator part at exposure ``xstar`` (formula in
    :func:`_mixture_terms`).  ``g_cross(d, j, x, x, c)`` is the observed g
    at the one exposure ``x``, which depends on j only through alpha_j."""
    return _term_at(f"g{_whole(d, 'd', 0, 2)}", j, x, xstar, c, mediator, outcome)


def log_rr_correction(j, x, c, mediator: MediatorModel, outcome: OutcomeModel):
    """log of the relative risk of M=0 across I(Y<=j) levels,
    log[(1+exp g_0) / (1+exp g_1)]: the term separating the conditional from
    the marginal cumulative logit.  Zero when betaM + betaXM*x = 0."""
    return _term_at("log_rr", j, x, x, c, mediator, outcome)


def counterfactual_cumulative_logit(j, x, xstar, c, mediator: MediatorModel, outcome: OutcomeModel):
    """logit P(Y(x, M(xstar)) <= j | c): the counterfactual outcome model is
    itself a cumulative logit, with the mediator held at its natural law
    under exposure ``xstar``.  With xstar = x this is the ordinary marginal
    cumulative logit of Y on X."""
    return _term_at("logit", j, x, xstar, c, mediator, outcome)


def plug_in_oracle(j, x, xstar, c, mediator: MediatorModel, outcome: OutcomeModel):
    """logit P(Y(x, M(xstar)) <= j | c) by direct summation over the mediator,

        log sum_m P(Y<=j|x,m,c) P(M=m|xstar,c) - log sum_m P(Y>j|x,m,c) P(M=m|xstar,c),

    using only the probability primitives.  Kept deliberately independent of
    the closed-form route so the two can cross-check each other."""
    _check_pair(mediator, outcome, c)
    j = _check_level(j, outcome.J)
    x, xstar = _finite_scalar(x, "x"), _finite_scalar(xstar, "xstar")
    p1 = mediator_probability(mediator, xstar, c)
    num = 0.0
    den = 0.0
    for m, w in ((0, 1.0 - p1), (1, p1)):
        below = cumulative_probability(outcome, j, x, m, c)
        # P(Y>j) as the sum of upper category probabilities, which stays
        # relatively accurate when the cumulative probability saturates
        above = float(np.sum(category_probabilities(outcome, x, m, c)[j:]))
        num += below * w
        den += above * w
    return math.log(num) - math.log(den)


def log_tce(j, query: EffectQuery, mediator: MediatorModel, outcome: OutcomeModel):
    """log total causal effect at level j: the marginal log-odds contrast of
    Y > j between exposures x and xstar."""
    j = _check_level(j, outcome.J)
    return effect_table(query, mediator, outcome).log_tce[j - 1]


def log_cde(m, query: EffectQuery, outcome: OutcomeModel):
    """log controlled direct effect with the mediator held at m:
    (betaX + betaXM*m)(x - xstar).  Constant in j under proportional odds,
    hence no per-level variant."""
    return _log_cde(outcome.betaX, outcome.betaXM, _check_mediator_value(m), query)


def _log_cde(betaX, betaXM, m, query: EffectQuery):
    return (betaX + betaXM * m) * (query.x - query.xstar)


def log_nde(j, query: EffectQuery, mediator: MediatorModel, outcome: OutcomeModel):
    """log natural direct effect at level j: exposure moves xstar -> x while
    the mediator keeps its natural law under xstar."""
    j = _check_level(j, outcome.J)
    return effect_table(query, mediator, outcome).log_nde[j - 1]


def log_nie(j, query: EffectQuery, mediator: MediatorModel, outcome: OutcomeModel):
    """log natural indirect effect at level j: exposure fixed at x while the
    mediator law moves from xstar to x.  Zero whenever the exposure does not
    move the mediator (gammaX = 0) or the mediator does not move the outcome
    (betaM = betaXM = 0)."""
    j = _check_level(j, outcome.J)
    return effect_table(query, mediator, outcome).log_nie[j - 1]


def effect_table(query: EffectQuery, mediator: MediatorModel, outcome: OutcomeModel):
    """All per-level effects plus both controlled direct effects, with the
    multiplicative decomposition TCE = NDE * NIE verified on the log scale
    before returning.  Every per-level effect is a difference of the log RR
    corrections at the exposure pairs (x, x), (x, xstar) and (xstar, xstar).
    A stack of one of :func:`_effect_rows`."""
    _check_pair(mediator, outcome, query.c)
    K = outcome.J - 1
    row = _effect_rows(query, _parameters(mediator)[None], _parameters(outcome)[None])[0].tolist()
    return EffectTable(tuple(row[2 * K:3 * K]), tuple(row[:K]), tuple(row[K:2 * K]), tuple(row[3 * K:]))


def _effect_rows(query: EffectQuery, mediator_theta, outcome_theta):
    """``effect_table(query, ...).flatten()`` of S model pairs given by their
    natural parameter rows, (S, 2 + p) and (S, K + 3 + p): an (S, 3K + 2)
    array in :func:`effect_labels` order.  ``query.c`` must have p entries.
    Raises :class:`ModelSpecError`, naming the query and the parameters, for
    the first pair with an entry that overflows double precision, and
    :class:`ConsistencyError` for the first pair whose decomposition fails,
    naming the level."""
    x, xs = query.x, query.xstar
    K = outcome_theta.shape[1] - mediator_theta.shape[1] - 1
    betaX, _, betaXM = outcome_theta[:, K:K + 3].T
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _mixture_terms((x, x, xs), (x, xs, xs), np.array(query.c, dtype=float), mediator_theta,
                               outcome_theta)
        rr_xx, rr_xs, rr_ss = terms["log_rr"]
        direct = (betaX * (x - xs))[:, None]
        tce = direct + rr_xx - rr_ss
        nde = direct + rr_xs - rr_ss
        nie = rr_xx - rr_xs
        cde = _log_cde(betaX[:, None], betaXM[:, None], np.array([1, 0]), query)
        rows = np.concatenate([nde, nie, tce, cde], axis=1)
        overflow = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if overflow.size:
            s = overflow[0]
            raise ModelSpecError(
                f"the effects at x={x!r}, xstar={xs!r}, c={query.c!r} overflow double precision with "
                f"mediator parameters {mediator_theta[s].tolist()} and outcome parameters "
                f"{outcome_theta[s].tolist()}"
            )
        # relative beyond |log TCE| = 1: an absolute bound would ask for agreement
        # finer than one rounding of log TCE itself; NaN fails too
        broken = np.argwhere(~(np.abs(tce - (nde + nie)) <= _DECOMPOSITION_TOL * np.maximum(1.0, np.abs(tce))))
    if broken.size:
        s, k = broken[0]
        raise ConsistencyError(
            f"log TCE != log NDE + log NIE at level {k + 1}: "
            f"{float(tce[s, k])!r} vs {float(nde[s, k] + nie[s, k])!r}"
        )
    return rows
