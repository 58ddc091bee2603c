"""Maximum-likelihood fitting of both regressions by Newton-Raphson.

Both likelihoods are smooth and low-dimensional, so one Newton loop serves
both fits and yields the observed information as a by-product.  Each
iteration tries the full Newton step (a damped gradient step when the Hessian
is not usable) and halves it until the candidate is accepted: the
log-likelihood must rise by more than a relative tie band of 1e-12, or stay
within that band while max |gradient| falls.  The second rule lets Newton
steps finish a fit whose likelihood is already flat to double precision.
The fit stops when max |gradient| <= 1e-8, or when every halving is rejected
(nothing measurable is left to gain).

The loop runs a stack of independent problems in lockstep: every round
evaluates the pending candidate of each running problem in one kernel call,
then accepts or halves per problem.  The kernels use only operations whose
result for one problem does not depend on the rest of the stack (elementwise
arithmetic, reductions over the last axis, stacked matrix products and
solves, and ``bincount`` over per-problem offset indices), so a problem's
trajectory and result are bitwise the same in a stack of any size.  A single
fit is a stack of one.  One error list, indexed by stack position, serves
both fits of a stack: the data checks and then the engine record into it,
the engine runs only the problems without an error, and a failure never
stops the rest of the stack.  The engine returns one record per stack,
``_Fits``: every problem's final parameters, Hessian, log-likelihood,
max |gradient| and counts, as arrays.  A FitResult is one row of it; the
resampling drivers read only the parameter rows.

Both fits start from least squares on their own data: the mediator at glm's
first IRLS step from mu = (m + 1/2)/2, z = (2m - 1)(log 3 + 4/3) on (1, x, c);
the outcome at the slopes beta of each record's mid-cumulative marginal logit
on A = (1, x, m, x*m, c), alpha_j = logit F_j + mean(x, m, x*m, c) beta.  One
SVD of A decides both rank checks; (1, x, c) gets one only where A is deficient.

Each likelihood has one implementation, an array-valued kernel over all
records, ``kernel(theta, *arrays) -> (ll, grad, hess)`` for a stack of
parameter rows: ``_bernoulli_parts`` for the mediator and
``_proportional_odds_parts`` for the outcome.  The Newton engine calls them
as they are, and the public log-likelihoods and scores evaluate them on a
dataset as a stack of one, so a fit's log-likelihood is bitwise the public
one at its fitted model.  The outcome kernel's derivatives are written in
density ratios f/pi, so a category probability near underflow never produces
a NaN.

Both models are fitted in their natural parameters, and standard errors are
sqrt(diag(inv(-H))) at the optimum.  The outcome thresholds need no
constraint: every level 1..J is observed, so a candidate whose thresholds are
not strictly increasing gives some record a probability <= 0, its
log-likelihood is -inf, and the line search rejects it.  The log-likelihood is
concave in (alpha, beta) (Pratt 1981), so plain Newton steps are well behaved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import ConvergenceError, DegenerateDataError, SeparationError
from .models import Dataset, MediatorModel, OutcomeModel, _check_dims, _parameters
from .numerics import expit_pair, log1pexp_expit

GRADIENT_TOL = 1e-8
_LOGLIK_RTOL = 1e-12
_MAX_ITERATIONS = 100
_MAX_HALVINGS = 30
_DIVERGENCE_NORM = 1e3
_DEFICIENT = "{} design matrix {} is rank-deficient; parameters are not identifiable"


@dataclass(frozen=True)
class FitResult:
    """Outcome of one maximum-likelihood fit.

    ``standard_errors`` is aligned with the natural parameter vector of
    ``model``: (gamma0, gammaX, gammaC...) for the mediator regression,
    (alpha_1..alpha_{J-1}, betaX, betaM, betaXM, betaC...) for the outcome
    regression.  Entries are NaN when the observed information is not
    positive definite.  ``iterations`` counts accepted Newton steps,
    ``evaluations`` counts evaluations of the log-likelihood with its score
    and Hessian, the starting point included, and ``halvings`` counts
    rejected candidates, so evaluations == 1 + iterations + halvings.
    ``fallback_steps`` counts iterations whose search direction was the
    damped gradient because the Newton direction was not an ascent
    direction.  A fit that does not converge raises instead of returning, so
    every FitResult is a converged fit.
    """

    model: MediatorModel | OutcomeModel
    loglik: float
    gradient_norm: float
    iterations: int
    standard_errors: tuple[float, ...]
    evaluations: int
    halvings: int
    fallback_steps: int


def parameter_labels(model):
    """Names matching the parameter-vector order used by FitResult."""
    if isinstance(model, MediatorModel):
        return ("gamma0", "gammaX") + tuple(f"gammaC{i}" for i in range(1, model.p + 1))
    return (
        tuple(f"alpha{j}" for j in range(1, model.J))
        + ("betaX", "betaM", "betaXM")
        + tuple(f"betaC{i}" for i in range(1, model.p + 1))
    )


class _Stack(NamedTuple):
    """S datasets of n records each with J levels, stacked on a leading axis:
    x, m, y of shape (S, n) and covariates of shape (S, n, p)."""

    x: np.ndarray
    m: np.ndarray
    y: np.ndarray
    covariates: np.ndarray
    J: int

    @classmethod
    def of(cls, datasets):
        return cls(*(np.array([getattr(d, f) for d in datasets]) for f in ("x", "m", "y", "covariates")),
                   datasets[0].J)


def loglik_mediator(model: MediatorModel, data: Dataset):
    """Bernoulli log-likelihood of the mediator regression."""
    return _mediator_parts(model, data)[0].item()


def loglik_outcome(model: OutcomeModel, data: Dataset):
    """Multinomial log-likelihood implied by the cumulative-logit model.

    A record whose category probability underflows to zero makes the result
    exactly -inf (no exception, no clamping).
    """
    return _outcome_parts(model, data)[0].item()


def mediator_loglik_gradient(model: MediatorModel, data: Dataset):
    """Score of loglik_mediator with respect to (gamma0, gammaX, gammaC...)."""
    return _mediator_parts(model, data)[1][0]


def outcome_loglik_gradient(model: OutcomeModel, data: Dataset):
    """Score of loglik_outcome with respect to (alpha..., betaX, betaM,
    betaXM, betaC...)."""
    ll, grad, _ = _outcome_parts(model, data)
    if ll[0] == -np.inf:
        raise ValueError("gradient undefined: some record has probability zero")
    return grad[0]


def _mediator_parts(model, data):
    # the mediator kernel at the model's parameters, on data as a stack of one
    _check_dims(model, data)
    return _bernoulli_parts(_parameters(model)[None], _mediator_design(data)[None], data.m[None].astype(float))


def _outcome_parts(model, data):
    # the outcome kernel at the model's parameters, on data as a stack of one
    _check_dims(model, data)
    y = data.y[None]
    return _proportional_odds_parts(_parameters(model)[None], _outcome_design(data)[None], _open_ends(y, data.J), y)


def fit_mediator(data: Dataset) -> FitResult:
    """MLE of the logistic mediator regression.

    Requires both mediator values present and a full-rank (1, x, c) design.
    Complete separation is reported as :class:`SeparationError` when the
    parameter norm passes 1e3 while the likelihood is still improving.
    """
    return _returned(_fit_mediators(_Stack.of([data]))[0])


def fit_outcome(data: Dataset) -> FitResult:
    """MLE of the proportional-odds outcome regression.

    Every level 1..J must be observed: empty categories abort with a clear
    error rather than being merged, since merging would change the estimand.
    The start is a least-squares fit (see the module docstring).  The
    thresholds are fitted unconstrained: the likelihood's domain and the line
    search hold their order (a candidate out of order has log-likelihood
    -inf, and the line search rejects it).
    """
    return _returned(_fit_outcomes(_Stack.of([data]))[0])


def _returned(result):
    if isinstance(result, Exception):
        raise result
    return result


def _fit_pairs(stack: _Stack):
    """Fit both regressions to every dataset of a stack.  Returns the
    parameter rows of the mediator fits and of the outcome fits of the
    datasets that both fits succeed on, in stack order, and per dataset None
    or the error that ``fit_mediator`` and then ``fit_outcome`` raise on it."""
    errors = [None] * len(stack.y)
    designs = _designs(stack)
    gamma = _solve_mediators(stack, errors, designs).theta
    beta = _solve_outcomes(stack, errors, designs).theta
    ok = [error is None for error in errors]
    return gamma[ok], beta[ok], errors


def _fit_mediators(stack: _Stack):
    """fit_mediator on each dataset of a stack: per dataset, a FitResult or
    the error."""
    return _fit_results(stack, _solve_mediators, lambda t: MediatorModel(t[0], t[1], tuple(t[2:])))


def _fit_outcomes(stack: _Stack):
    """fit_outcome on each dataset of a stack: per dataset, a FitResult or
    the error."""
    K = stack.J - 1
    return _fit_results(
        stack, _solve_outcomes, lambda t: OutcomeModel(tuple(t[:K]), t[K], t[K + 1], t[K + 2], tuple(t[K + 3:]))
    )


def _fit_results(stack, solve, model_of):
    # per dataset, the error that solve(stack, errors) records or the
    # FitResult of its row of the record, with model_of(theta) as its model
    errors = [None] * len(stack.y)
    fits = solve(stack, errors, _designs(stack))
    for s in np.flatnonzero(np.equal(errors, None)).tolist():
        iterations, evaluations, halvings, fallback_steps = fits.counts[s].tolist()
        ses = _standard_errors(-fits.hess[s:s + 1])[0]
        errors[s] = FitResult(model_of(fits.theta[s]), fits.loglik[s].item(), fits.gradient_norm[s].item(),
                              iterations, tuple(ses), evaluations, halvings, fallback_steps)
    return errors


def _designs(stack: _Stack):
    # W, the Gram matrices of A = (1, W) and the mask of the rank-deficient A
    W = _outcome_design(stack)
    A = np.concatenate([np.ones(W.shape[:2] + (1,)), W], axis=2)
    return W, A.mT @ A, np.linalg.matrix_rank(A) < A.shape[2]


def _solve_mediators(stack: _Stack, errors, designs):
    _, gram, deficient = designs
    both = (stack.m == 0).any(axis=1) & (stack.m == 1).any(axis=1)
    _fail(errors, ~both, lambda s: DegenerateDataError("mediator takes a single value; need both M=0 and M=1 to fit"))
    Z = _mediator_design(stack)
    deficient = deficient & np.equal(errors, None)  # a full-rank A has a full-rank (1, x, c)
    if deficient.any():
        deficient[deficient] = np.linalg.matrix_rank(Z[deficient]) < Z.shape[2]
    _fail(errors, deficient, lambda s: DegenerateDataError(_DEFICIENT.format("mediator", "(1, x, c)")))
    cols = np.r_[0, 1, 4:gram.shape[2]]  # the (1, x, c) block of A's Gram matrix is Z's
    z = (2.0 * stack.m - 1.0) * (math.log(3.0) + 4.0 / 3.0)  # glm's working response at mu = (m + 1/2)/2
    theta0 = _least_squares(errors, gram[:, cols[:, None], cols], (Z.mT @ z[:, :, None])[:, :, 0])
    return _newton_maximize(_bernoulli_parts, theta0, (Z, stack.m.astype(float)), "mediator model", errors)


def _solve_outcomes(stack: _Stack, errors, designs):
    S, n = stack.y.shape
    J, K = stack.J, stack.J - 1
    W, gram, deficient = designs
    if J > n:  # some level is never observed: fail before counting J cells per problem
        error = DegenerateDataError(f"{J} outcome levels but only {n} records; every level must appear at least once")
        _fail(errors, np.ones(S, dtype=bool), lambda s: error)
        return _newton_maximize(None, np.broadcast_to(0.0, (S, K + W.shape[2])), (), "outcome model", errors)
    counts = np.bincount(
        (stack.y + np.arange(0, S * (J + 1), J + 1)[:, None]).ravel(), minlength=S * (J + 1)
    ).reshape(S, J + 1)[:, 1:]

    def missing_levels(s):
        missing = (np.flatnonzero(counts[s] == 0) + 1).tolist()
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        return DegenerateDataError(
            f"outcome level(s) {', '.join(map(str, missing[:10]))}{more} never observed; "
            f"every level 1..{J} must appear at least once"
        )

    _fail(errors, (counts == 0).any(axis=1), missing_levels)
    _fail(errors, deficient, lambda s: DegenerateDataError(_DEFICIENT.format("outcome", "(1, x, m, x*m, c)")))
    cum = np.cumsum(counts, axis=1)
    p = np.concatenate([cum[:, :-1], cum - 0.5 * counts], axis=1) / n  # K cumulative, J mid-cumulative
    with np.errstate(divide="ignore"):  # a problem with an empty level has failed
        logits = np.log(p / (1.0 - p))
    t = logits.ravel()[stack.y + np.arange(K - 1, S * (J + K), J + K)[:, None]]  # each record's mid-cumulative logit
    rhs = np.concatenate([t.sum(axis=1)[:, None], (W.mT @ t[:, :, None])[:, :, 0]], axis=1)  # A^T t
    del t  # the outcome kernel sets the memory peak
    beta0 = _least_squares(errors, gram, rhs)[:, 1:]
    alpha0 = logits[:, :K] + (np.vecdot(gram[:, 0, 1:], beta0) / n)[:, None]
    return _newton_maximize(_proportional_odds_parts, np.concatenate([alpha0, beta0], axis=1),
                            (W, _open_ends(stack.y, J), stack.y), "outcome model", errors)


def _fail(errors, mask, error_of):
    """Record error_of(s) for every problem s of ``mask`` that has no error yet."""
    for s in np.flatnonzero(mask).tolist():
        if errors[s] is None:
            errors[s] = error_of(s)


def _least_squares(errors, gram, rhs):
    # per problem, gram^-1 rhs, or zero (the plain start) where gram is singular; failed problems' rows are unused
    gram = np.where(np.equal(errors, None)[:, None, None], gram, np.eye(gram.shape[1]))
    coef = _solve_each(gram, rhs[:, :, None])[:, :, 0]
    return np.where(np.isfinite(coef).all(axis=1)[:, None], coef, 0.0)


# ----------------------------------------------------------------------
# designs and likelihood parts
#
# Designs are built from a Dataset, (n, q), or from a _Stack, (S, n, q).

def _mediator_design(data):
    return np.concatenate([np.ones(data.x.shape + (1,)), data.x[..., None], data.covariates], axis=-1)


def _outcome_design(data):
    x = data.x
    m = data.m.astype(float)
    return np.concatenate([x[..., None], m[..., None], (x * m)[..., None], data.covariates], axis=-1)


def _bernoulli_parts(theta, Z, m):
    # log-likelihood, score and Hessian of S logistic regressions:
    # theta (S, q), Z (S, n, q), m (S, n)
    eta = (Z @ theta[:, :, None])[:, :, 0]
    log_norm, prob = log1pexp_expit(eta)
    ll = (m * eta - log_norm).sum(axis=1)
    grad = (Z.mT @ (m - prob)[:, :, None])[:, :, 0]
    hess = -(_weighted(Z, prob * (1.0 - prob)).mT @ Z)
    return ll, grad, hess


def _open_ends(y, J):
    # expit_pair's keep for the kernel's (zh, -zl), (S, 2, n): 0 where y = J and where y = 1
    return np.stack([y != J, y != 1], axis=1).astype(float)


def _weighted(X, w):
    # w[:, :, None] * X one column at a time, several times faster than a broadcast over the short last axis
    out = np.empty_like(X)
    for k in range(X.shape[2]):
        np.multiply(w, X[:, :, k], out=out[:, :, k])
    return out


def _proportional_odds_parts(theta, W, keep, y):
    """Log-likelihood, score and Hessian of S proportional-odds problems at
    their natural parameter rows theta = (alpha_1..alpha_K, beta) (S, K + q),
    with W (S, n, q), keep = _open_ends(y, K + 1) and y (S, n).  Returns ll
    (S,), grad (S, d) and hess (S, d, d).  A problem with some category
    probability <= 0 gets ll = -inf, which the line search treats as a
    rejection; its derivatives are finite but meaningless.

    Record i sits between the thresholds zh = alpha_{y_i} - eta_i above and
    zl = alpha_{y_i - 1} - eta_i below (+-inf at the ends), so every
    derivative of log pi_i is a function of the density ratios f(zh)/pi_i and
    f(zl)/pi_i.  Per-threshold sums are gathered with ``bincount`` over the
    level of each record, offset by J + 1 per problem.
    """
    S, n, q = W.shape
    K = theta.shape[1] - q
    J = K + 1
    alpha, beta = theta[:, :K], theta[:, K:]
    eta = (W @ beta[:, :, None])[:, :, 0]
    cuts = np.full((2, S, J + 1), np.inf)  # per level 1..J, the threshold above it and below it (+-inf: open)
    cuts[0, :, 1:J] = cuts[1, :, 2:] = alpha
    cuts[1, :, 1] = -np.inf
    hi = y + np.arange(0, S * (J + 1), J + 1)[:, None]  # each record's level in cuts[0].ravel() and cuts[1].ravel()
    z = np.empty((2, S, n))  # zh and -zl, both +inf at the open ends
    np.subtract(cuts[0].ravel()[hi], eta, out=z[0])
    np.subtract(eta, cuts[1].ravel()[hi], out=z[1])
    (a, bc), (ac, b) = expit_pair(z, keep.swapaxes(0, 1))
    # F(zh) - F(zl) in cancellation-free product form; zl - zh = -(zh + -zl)
    pi = bc * a * (-np.expm1(np.negative(z[0] + z[1])))
    del eta, z  # the stacked temporaries set the memory peak
    ok = ~(pi <= 0.0).any(axis=1)
    pi[~ok] = 1.0  # keeps the rejected problems' arithmetic finite; their ll is set to -inf below
    ll = np.log(pi).sum(axis=1)

    # Densities fa = f(zh), fb = f(zl) of the logistic cdf F (f = F(1-F)),
    # and the ratios ra = fa/pi, rb = fb/pi, s = F(zl)(1-F(zh))/pi.  With
    # pi = F(zh) - F(zl) the derivatives of log pi reduce to sums of
    # same-signed terms, so nothing cancels even where pi underflows towards
    # zero:
    #   d/dalpha_hi = ra,  d/dalpha_lo = -rb,  d/deta = F(zh) + F(zl) - 1,
    #   d2/dalpha_hi2 = -ra (F(zh) + s),  d2/dalpha_lo2 = -rb (1 - F(zl) + s),
    #   d2/dalpha_hi dalpha_lo = ra rb,  d2/dalpha_hi deta = fa,
    #   d2/dalpha_lo deta = fb,  d2/deta2 = -(fa + fb).
    fa, fb = a * ac, b * bc
    ra, rb, s = fa / pi, fb / pi, b * ac / pi

    def per_level(w):
        # per problem, sums of w over the records of levels 1..J: alpha_j is above level j and below j + 1
        return np.bincount(hi.ravel(), weights=w.ravel(), minlength=S * (J + 1)).reshape(S, J + 1)[:, 1:]

    # Blocks in an order that frees each stacked temporary once it is used.  The diagonal negates
    # K-column sums (rounding is sign-symmetric; 0.0 - x keeps an empty sum +0), not record terms.
    grad = np.empty((S, K + q))
    grad[:, :K] = per_level(ra)[:, :K] - per_level(rb)[:, 1:]
    grad[:, K:] = (W.mT @ (b - ac)[:, :, None])[:, :, 0]
    hess = np.zeros((S, K + q, K + q))
    thresholds = np.arange(K)
    hess[:, thresholds, thresholds] = 0.0 - (per_level(ra * (a + s))[:, :K] + per_level(rb * (bc + s))[:, 1:])
    off = per_level(ra * rb)[:, 1:K]  # (alpha_{j-1}, alpha_j), j = 2..K
    hess[:, thresholds[:-1], thresholds[1:]] = hess[:, thresholds[1:], thresholds[:-1]] = off
    del a, b, ac, bc, pi, ra, rb, s, hi

    # cross derivatives of each record in the columns of its two thresholds
    cross = np.zeros(S * n * (J + 1))
    at_lo = np.arange(-1, S * n * (J + 1) - 1, J + 1) + y.ravel()
    cross[at_lo] = fb.ravel()
    cross[1:][at_lo] = fa.ravel()
    hess[:, :K, K:] = cross.reshape(S, n, J + 1)[:, :, 1:J].mT @ W
    del cross, at_lo
    hess[:, K:, :K] = hess[:, :K, K:].mT
    hess[:, K:, K:] = -(W.mT @ _weighted(W, fa + fb))
    ll[~ok] = -np.inf
    return ll, grad, hess


# ----------------------------------------------------------------------
# Newton engine

class _Fits(NamedTuple):
    """The final state of every problem of a stack, rows in stack order: zero
    rows (and zero-width Hessians when no problem ran) for the problems that
    already had an error.  ``counts`` holds the accepted steps, evaluations,
    rejected candidates and damped-gradient directions of each problem."""

    theta: np.ndarray  # (S, d)
    hess: np.ndarray  # (S, d, d)
    loglik: np.ndarray  # (S,)
    gradient_norm: np.ndarray  # (S,), max |gradient|
    counts: np.ndarray  # (S, 4)


def _newton_maximize(fun, theta0, args, what, errors):
    """Maximize the problems of a stack that have no error in ``errors`` yet,
    from their rows of theta0, by the loop described in the module docstring,
    and record the error that stops a problem in ``errors``.

    ``fun(theta, *args)`` is a likelihood kernel: it takes theta (S', d) of
    the running problems and the rows of ``args`` (arrays with a leading
    problem axis) that belong to them, and returns their (ll, grad, hess).
    Returns the stack's _Fits, which holds the final state of every problem
    it ran, whether that problem converged or stopped with an error.

    Arrays hold the rows of the running problems; the accept-or-halve rules
    act on each problem's own Python floats, so they are the scalar rules of
    a single fit whatever the stack size.
    """
    ids = [s for s, error in enumerate(errors) if error is None]
    S, d = theta0.shape
    width = d if ids else 0  # a stack with nothing to run allocates no Hessians
    fits = _Fits(np.zeros((S, d)), np.zeros((S, width, width)), np.zeros(S), np.zeros(S),
                 np.zeros((S, 4), dtype=np.int64))
    if not ids:
        return fits
    if len(ids) < S:
        theta0, *args = (a[ids] for a in (theta0, *args))
    theta = np.array(theta0, dtype=float)
    ll, grad, hess = fun(theta, *args)

    # per running problem: its index in the stack (ids), log-likelihood, max
    # |gradient|, candidates rejected since its last accepted step (its step
    # is 2^-rejected) and counts (iterations, evaluations, halvings, damped directions)
    lls = ll.tolist()
    gnorms = np.abs(grad).max(axis=1).tolist()
    rejected = [0] * len(ids)
    counts = [[0, 1, 0, 0] for _ in ids]
    stopped = []
    for i, s in enumerate(ids):
        if not math.isfinite(lls[i]):
            errors[s] = ConvergenceError(f"{what}: log-likelihood not finite at the starting values")
            stopped.append(i)
        elif not gnorms[i] > GRADIENT_TOL:
            stopped.append(i)

    while True:
        if stopped:
            rows = [ids[i] for i in stopped]
            for field, values in zip(fits, (theta, hess, lls, gnorms, counts)):
                field[rows] = np.asarray(values)[stopped]
            keep = [i for i in range(len(ids)) if i not in stopped]
            if not keep:
                return fits
            theta, grad, hess = theta[keep], grad[keep], hess[keep]
            args = tuple(a[keep] for a in args)
            ids, lls, gnorms, rejected, counts = ([v[i] for i in keep] for v in (ids, lls, gnorms, rejected, counts))

        # the search directions; after a rejected candidate a problem's
        # gradient and Hessian, and so its direction, are those of the last round
        direction, usable = _ascent_directions(grad, hess)
        for i, ok in enumerate(usable):
            counts[i][3] += rejected[i] == 0 and not ok
        cand = theta + np.ldexp(1.0, np.negative(rejected))[:, None] * direction

        cll, cgrad, chess = fun(cand, *args)
        # max |gradient| and max |theta| of every candidate
        cnorms, cmax = np.abs(np.concatenate([cgrad[None], cand[None]])).max(axis=2).tolist()
        stopped = []
        for i, (prev, new) in enumerate(zip(lls, cll.tolist())):
            count = counts[i]
            count[1] += 1
            band = _LOGLIK_RTOL * (abs(prev) + 1.0)
            if math.isfinite(new) and new >= prev - band and (new > prev + band or cnorms[i] < gnorms[i]):
                lls[i], gnorms[i], rejected[i] = new, cnorms[i], 0
                count[0] += 1
                if cmax[i] > _DIVERGENCE_NORM:
                    errors[ids[i]] = SeparationError(
                        f"{what}: parameter norm exceeded {_DIVERGENCE_NORM:g} while the "
                        "log-likelihood is still improving; the data are likely completely separated"
                    )
                elif count[0] == _MAX_ITERATIONS and gnorms[i] > GRADIENT_TOL:
                    errors[ids[i]] = ConvergenceError(
                        f"{what}: no convergence after {_MAX_ITERATIONS} iterations "
                        f"(max |gradient| = {gnorms[i]:.3e})"
                    )
                elif gnorms[i] > GRADIENT_TOL:
                    continue
                stopped.append(i)
            else:
                cand[i], cgrad[i], chess[i] = theta[i], grad[i], hess[i]  # the problem keeps its state
                count[2] += 1
                rejected[i] += 1
                if rejected[i] > _MAX_HALVINGS:  # every halving rejected: converged
                    stopped.append(i)
        theta, grad, hess = cand, cgrad, chess


def _ascent_directions(grad, hess):
    """Newton directions of a stack, with a damped gradient step where the
    Hessian is not usable.  Returns the directions and, per problem, whether
    the Newton direction was used: it is used when it is finite and an
    ascent direction, 0 < grad . d < inf."""
    direction = _solve_each(-hess, grad[:, :, None])[:, :, 0]
    usable = [0.0 < slope < math.inf for slope in np.vecdot(grad, direction).tolist()]
    for s, ok in enumerate(usable):
        if not ok:  # Hessian not negative definite here: fall back to a damped gradient step
            direction[s] = grad[s] / (np.abs(hess[s].diagonal()).max() + 1.0)
    return direction, usable


def _solve_each(a, b):
    """a^-1 b for every problem of a stack: a (S, d, d), b (S, d, k).  numpy's
    stacked solve raises LinAlgError for the whole stack when any one a is
    singular, so then each problem is solved alone, and only the singular
    ones get NaN."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.stack([_solved_or_nan(ai, bi) for ai, bi in zip(a, b)])


def _solved_or_nan(a, b):
    # a^-1 b, or NaN where a is singular
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.full(b.shape, np.nan)


def _standard_errors(information):
    """sqrt(diag(inv(information))) of a stack (S, d, d) of observed
    information matrices; a row is NaN when its information is not positive
    definite."""
    cov = _solve_each(information, np.broadcast_to(np.eye(information.shape[1]), information.shape))
    diag = cov.diagonal(axis1=1, axis2=2)
    positive = ((diag > 0.0) & (diag < np.inf)).all(axis=1)
    return np.sqrt(np.where(positive[:, None], diag, np.nan))
