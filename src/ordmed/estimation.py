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
max |gradient| and counts, as arrays, and ``_fit_each`` hands each dataset
its row: a FitResult, or the parameter rows that the resampling drivers read.

A dataset that repeats a record is fitted on its distinct records with
their counts as frequency weights, and a dataset without a repeat on its own
records with unit weights, whose exact multiplies are skipped
(``_weigh``), so its fit keeps the bits of an unweighted one (the layout is
``stacks``'s).  Each length of a stack (``_length_classes``) is one engine
run, so a problem's sums still do not depend on its neighbours.  Level
counts, the J > n check and the starts use the weights, and one sqrt(w) A
serves the rank checks and the starts.

Both fits start from least squares on their own data: the mediator at glm's
first IRLS step from mu = (m + 1/2)/2, z = (2m - 1)(log 3 + 4/3) on (1, x, c);
the outcome at the slopes beta of each record's mid-cumulative marginal logit
on A = (1, x, m, x*m, c), alpha_j = logit F_j + mean(x, m, x*m, c) beta.  One
SVD of A decides both rank checks; (1, x, c) gets one only where A is deficient.

Each likelihood has one implementation, an array-valued kernel over all
records, ``kernel(theta, *arrays, work) -> (ll, grad, hess)`` for a stack of
parameter rows: ``_bernoulli_parts`` for the mediator and
``_proportional_odds_parts`` for the outcome.  The Newton engine calls them
as they are, and the public log-likelihoods and scores evaluate them on a
dataset as a stack of one, so a fit's log-likelihood is bitwise the public
one at its fitted model on data without a repeated record, and within 1e-15
relative where the fit sums repeats as counts.  The engine makes one
``_workspace`` of (S, n) slots per run, and a kernel writes each
record-sized temporary into the first S' rows of a slot, with the operations
and operand order of a fresh allocation: the bits are the same, and no round
allocates them afresh.  The outcome kernel's derivatives are written in
density ratios f/pi, so a category probability near underflow never
produces a NaN.

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
from .stacks import _length_classes, _Stack

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
    direction.  ``gradient_norm`` is at most GRADIENT_TOL unless every halving
    of the last step was rejected; a fit that stops any other way raises.
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
    return _bernoulli_parts(_parameters(model)[None], _mediator_design(data)[None], data.m[None].astype(float),
                            np.ones((1, 0)), _workspace(1, data.n, 0, data.p + 2))


def _outcome_parts(model, data):
    # the outcome kernel at the model's parameters, on data as a stack of one
    _check_dims(model, data)
    W, y = _outcome_design(data)[None], data.y[None]
    return _proportional_odds_parts(_parameters(model)[None], W, _open_ends(y, data.J), y, np.ones((1, 0)),
                                    _workspace(1, data.n, data.J, W.shape[2]))


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
    fitted = _fit_each(stack, (_solve_mediators, _solve_outcomes))
    p = stack.covariates.shape[2]  # reshape gives an empty list of rows its width
    gammas = np.array([fits[0].theta[i] for error, fits, i in fitted if error is None]).reshape(-1, 2 + p)
    betas = np.array([fits[1].theta[i] for error, fits, i in fitted if error is None]).reshape(-1, stack.J + 2 + p)
    return gammas, betas, [error for error, _, _ in fitted]


def _fit_mediators(stack: _Stack):
    """fit_mediator on each dataset of a stack: per dataset, a FitResult or
    the error."""
    return _fit_results(stack, _solve_mediators, lambda t: MediatorModel(t[0], t[1], tuple(t[2:])))


def _fit_outcomes(stack: _Stack):
    """fit_outcome on each dataset of a stack: per dataset, a FitResult or
    the error."""
    K = stack.J - 1
    return _fit_results(stack, _solve_outcomes, lambda t: OutcomeModel(tuple(t[:K]), *t[K:K + 3], tuple(t[K + 3:])))


def _fit_results(stack, solve, model_of):
    # per dataset, the error that solve records or the FitResult of its row, with model_of(theta) as its model
    results = []
    for error, (fits,), i in _fit_each(stack, (solve,)):
        if error is None:
            iterations, evaluations, halvings, fallback_steps = fits.counts[i].tolist()
            ses = _standard_errors(-fits.hess[i:i + 1])[0]
            error = FitResult(model_of(fits.theta[i]), fits.loglik[i].item(), fits.gradient_norm[i].item(),
                              iterations, tuple(ses), evaluations, halvings, fallback_steps)
        results.append(error)
    return results


def _fit_each(stack: _Stack, solves):
    """Run ``solves`` in order on each length class of a stack with one error
    list and one ``_designs``.  Per dataset in stack order: None or the first
    error recorded on it, its class's ``_Fits`` of each solve, and its row."""
    fitted = [None] * len(stack.y)
    for rows, part in _length_classes(stack):
        errors = [None] * len(rows)
        designs = _designs(part)
        fits = [solve(part, errors, designs) for solve in solves]
        for i, s in enumerate(rows.tolist()):
            fitted[s] = errors[i], fits, i
    return fitted


def _designs(stack: _Stack):
    # W, the Gram matrices of sqrt(w) A, A = (1, W), the mask of the rank-deficient ones, and the weights w of _weigh
    w = stack.weights if (stack.weights != 1.0).any() else stack.weights[:, :0]
    W = _outcome_design(stack)
    A = np.concatenate([np.ones(W.shape[:2] + (1,)), W], axis=2)
    _weigh(A, np.sqrt(w)[:, :, None])
    return W, A.mT @ A, np.linalg.matrix_rank(A) < A.shape[2], w


def _solve_mediators(stack: _Stack, errors, designs):
    _, gram, deficient, w = designs
    both = (stack.m == 0).any(axis=1) & (stack.m == 1).any(axis=1)
    _fail(errors, ~both, lambda s: DegenerateDataError("mediator takes a single value; need both M=0 and M=1 to fit"))
    Z = _mediator_design(stack)
    deficient = deficient & np.equal(errors, None)  # a full-rank A has a full-rank (1, x, c)
    if deficient.any():
        root = np.sqrt(stack.weights[deficient])[:, :, None]
        deficient[deficient] = np.linalg.matrix_rank(Z[deficient] * root) < Z.shape[2]
    _fail(errors, deficient, lambda s: DegenerateDataError(_DEFICIENT.format("mediator", "(1, x, c)")))
    cols = np.r_[0, 1, 4:gram.shape[2]]  # the (1, x, c) block of A's Gram matrix is Z's
    z = (2.0 * stack.m - 1.0) * (math.log(3.0) + 4.0 / 3.0)  # glm's working response at mu = (m + 1/2)/2
    theta0 = _least_squares(errors, gram[:, cols[:, None], cols], (Z.mT @ _weigh(z, w)[:, :, None])[:, :, 0])
    return _newton_maximize(_bernoulli_parts, theta0, (Z, stack.m.astype(float), w), (Z.shape[1], 0, Z.shape[2]),
                            "mediator model", errors)


def _solve_outcomes(stack: _Stack, errors, designs):
    S, L = stack.y.shape
    n = stack.n
    J, K = stack.J, stack.J - 1
    W, gram, deficient, w = designs
    if J > n:  # some level is never observed: fail before sizing anything by J
        error = DegenerateDataError(f"{J} outcome levels but only {n} records; every level must appear at least once")
        _fail(errors, np.ones(S, dtype=bool), lambda s: error)
        return _Fits(np.zeros((S, 0)), np.zeros((S, 0, 0)), np.zeros(S), np.zeros(S), np.zeros((S, 4), np.int64))
    counts = np.bincount(
        (stack.y + np.arange(0, S * (J + 1), J + 1)[:, None]).ravel(), stack.weights.ravel(), minlength=S * (J + 1)
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
    t = _weigh(logits.ravel()[stack.y + np.arange(K - 1, S * (J + K), J + K)[:, None]], w)  # w times the record logits
    rhs = np.concatenate([t.sum(axis=1)[:, None], (W.mT @ t[:, :, None])[:, :, 0]], axis=1)  # A^T t
    del t  # the outcome kernel sets the memory peak
    beta0 = _least_squares(errors, gram, rhs)[:, 1:]
    alpha0 = logits[:, :K] + (np.vecdot(gram[:, 0, 1:], beta0) / n)[:, None]
    return _newton_maximize(_proportional_odds_parts, np.concatenate([alpha0, beta0], axis=1),
                            (W, _open_ends(stack.y, J), stack.y, w), (L, J, W.shape[2]), "outcome model", errors)


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


def _workspace(S, n, J, q):
    # a kernel's float slots of (S, n), slot-major, and an intp slot, for J levels (0: the mediator's) and q columns
    slots = max(8, J + 3, q + 3) if J else max(5, q + 1)
    return np.empty((slots, S, n)), np.empty((S, n), dtype=np.intp)


def _weigh(a, w):
    # a times the frequency weights w, in place.  Unit weights come as w of width 0: their
    # multiplies would be exact, so skipping them keeps the bits, and a plain stack pays nothing
    return np.multiply(a, w, out=a) if w.shape[1] else a


def _bernoulli_parts(theta, Z, m, w, work):
    # log-likelihood, score and Hessian of S logistic regressions:
    # theta (S, q), Z (S, n, q), m (S, n), frequency weights w (S, n) or (S, 0) (see _weigh) and
    # work = _workspace(S0 >= S, n, 0, q); slots 0-3 hold log1pexp_expit's pair and scratch, slot 4 eta,
    # and slots 1.. the weighted Z
    S, n, _ = Z.shape
    log_norm, prob, t, _, eta = work[0][:5, :S]
    np.matmul(Z, theta[:, :, None], out=eta.reshape(S, n, 1))
    log1pexp_expit(eta, work[0][:4, :S])
    ll = _weigh(np.subtract(np.multiply(m, eta, out=t), log_norm, out=t), w).sum(axis=1)
    grad = (Z.mT @ _weigh(np.subtract(m, prob, out=t), w)[:, :, None])[:, :, 0]
    v = _weigh(np.multiply(prob, np.subtract(1.0, prob, out=log_norm), out=log_norm), w)
    hess = -(_weighted(Z, v, work[0][1:].reshape(-1)).mT @ Z)
    return ll, grad, hess


def _open_ends(y, J):
    # expit_pair's keep for the kernel's (zh, -zl), (S, 2, n): 0 where y = J and where y = 1
    return np.stack([y != J, y != 1], axis=1).astype(float)


def _weighted(X, w, memory):
    # w[:, :, None] * X one column at a time (faster than a broadcast), into memory laid out as np.empty_like(X)
    out = memory[:X.size].reshape(X.shape)
    if not X.flags.c_contiguous:
        axes = sorted(range(3), key=lambda k: -abs(X.strides[k]))  # by falling stride
        out = memory[:X.size].reshape([X.shape[k] for k in axes]).transpose(np.argsort(axes))
    for k in range(X.shape[2]):
        np.multiply(w, X[:, :, k], out=out[:, :, k])
    return out


def _proportional_odds_parts(theta, W, keep, y, w, work):
    """Log-likelihood, score and Hessian of S proportional-odds problems at
    their natural parameter rows theta = (alpha_1..alpha_K, beta) (S, K + q),
    with W (S, n, q), keep = _open_ends(y, K + 1), y (S, n), frequency
    weights w (S, n) or (S, 0) (see ``_weigh``) and work = _workspace(S0, n,
    K + 1, q) for some S0 >= S.  Every record term is multiplied by its
    weight once, so unit weights give the bits of an unweighted sum.
    Returns ll (S,), grad (S, d) and hess (S, d, d).  A problem with some
    category probability <= 0 gets ll = -inf, which the line search treats
    as a rejection; its derivatives are finite but meaningless.

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
    slots, hi = work[0][:8, :S], work[1][:S]  # zh, -zl, then fa, fb in 0-1; cross block, weight, weighted W: 2 on
    z, eta, (t, pi) = slots[:2], slots[2], slots[6:]  # z: zh and -zl, both +inf at the open ends
    np.matmul(W, beta[:, :, None], out=eta.reshape(S, n, 1))
    cuts = np.full((2, S, J + 1), np.inf)  # per level 1..J, the threshold above it and below it (+-inf: open)
    cuts[0, :, 1:J] = cuts[1, :, 2:] = alpha
    cuts[1, :, 1] = -np.inf
    np.add(y, np.arange(0, S * (J + 1), J + 1)[:, None], out=hi)  # each record's level in cuts[i].ravel()
    np.subtract(cuts[0].ravel().take(hi, out=z[0], mode="clip"), eta, out=z[0])
    np.subtract(eta, cuts[1].ravel().take(hi, out=z[1], mode="clip"), out=z[1])
    (a, bc), (ac, b) = expit_pair(z, keep.swapaxes(0, 1), slots[2:].reshape(3, 2, S, n))
    # F(zh) - F(zl) in cancellation-free product form; zl - zh = -(zh + -zl)
    np.negative(np.expm1(np.negative(np.add(z[0], z[1], out=t), out=t), out=t), out=t)
    np.multiply(np.multiply(bc, a, out=pi), t, out=pi)
    ok = ~(pi <= 0.0).any(axis=1)
    pi[~ok] = 1.0  # keeps the rejected problems' arithmetic finite; their ll is set to -inf below
    ll = _weigh(np.log(pi, out=t), w).sum(axis=1)

    # Densities fa = f(zh), fb = f(zl) of the logistic cdf F (f = F(1-F)),
    # and the ratios ra = fa/pi, rb = fb/pi, s = F(zl)(1-F(zh))/pi.  With
    # pi = F(zh) - F(zl) the derivatives of log pi reduce to sums of
    # same-signed terms, so nothing cancels even where pi underflows towards
    # zero:
    #   d/dalpha_hi = ra,  d/dalpha_lo = -rb,  d/deta = F(zh) + F(zl) - 1,
    #   d2/dalpha_hi2 = -ra (F(zh) + s),  d2/dalpha_lo2 = -rb (1 - F(zl) + s),
    #   d2/dalpha_hi dalpha_lo = ra rb,  d2/dalpha_hi deta = fa,
    #   d2/dalpha_lo deta = fb,  d2/deta2 = -(fa + fb).
    fa, fb = np.multiply(a, ac, out=z[0]), np.multiply(b, bc, out=z[1])
    s = np.divide(np.multiply(b, ac, out=t), pi, out=t)
    grad = np.empty((S, K + q))
    grad[:, K:] = (W.mT @ _weigh(np.subtract(b, ac, out=b), w)[:, :, None])[:, :, 0]
    ra, rb = np.divide(_weigh(fa, w), pi, out=ac), np.divide(fb, pi, out=b)  # ra, fa weighted

    def per_level(v):
        # per problem, sums of v over the records of levels 1..J: alpha_j is above level j and below j + 1
        return np.bincount(hi.ravel(), weights=v.ravel(), minlength=S * (J + 1)).reshape(S, J + 1)[:, 1:]

    off = per_level(np.multiply(ra, rb, out=pi))[:, 1:K]  # (alpha_{j-1}, alpha_j), j = 2..K; pi is spent
    _weigh(rb, w)
    _weigh(fb, w)
    grad[:, :K] = per_level(ra)[:, :K] - per_level(rb)[:, 1:]
    hess = np.zeros((S, K + q, K + q))
    thresholds = np.arange(K)
    # The diagonal negates K-column sums (rounding is sign-symmetric; 0.0 - x keeps an empty sum +0), not records.
    hess[:, thresholds, thresholds] = 0.0 - (per_level(np.multiply(ra, np.add(a, s, out=a), out=a))[:, :K]
                                             + per_level(np.multiply(rb, np.add(bc, s, out=bc), out=bc))[:, 1:])
    hess[:, thresholds[:-1], thresholds[1:]] = hess[:, thresholds[1:], thresholds[:-1]] = off

    # cross derivatives of each record in the columns of its two thresholds
    cross = work[0][2:].reshape(-1)[:S * n * (J + 1)]
    cross.fill(0.0)
    at_lo = np.add(np.arange(-1, S * n * (J + 1) - 1, J + 1), y.ravel(), out=hi.reshape(-1))
    cross[at_lo] = fb.ravel()
    cross[1:][at_lo] = fa.ravel()
    hess[:, :K, K:] = cross.reshape(S, n, J + 1)[:, :, 1:J].mT @ W
    hess[:, K:, :K] = hess[:, :K, K:].mT
    hess[:, K:, K:] = -(W.mT @ _weighted(W, np.add(fa, fb, out=work[0][2, :S]), work[0][3:].reshape(-1)))
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


def _newton_maximize(fun, theta0, args, work_shape, what, errors):
    """Maximize the problems of a stack that have no error in ``errors`` yet,
    from their rows of theta0, by the loop described in the module docstring,
    and record the error that stops a problem in ``errors``.

    ``fun(theta, *args, work)`` is a likelihood kernel: it takes theta (S', d)
    of the running problems, the rows of ``args`` (arrays with a leading
    problem axis) that belong to them and ``work = _workspace(S0,
    *work_shape)``, made once for the S0 problems running at entry, and
    returns their (ll, grad, hess).  Returns the stack's _Fits, which holds
    the final state of every problem it ran, whether that problem converged
    or stopped with an error.

    Arrays hold the rows of the running problems; when problems stop, the
    others' rows move forward in arrays allocated at entry, not the caller's.
    The accept-or-halve rules act on each problem's own Python floats, so
    they are the scalar rules of a single fit whatever the stack size.
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
    work = _workspace(len(ids), *work_shape)
    compacted = [np.empty_like(a) for a in args] if len(ids) > 1 else ()  # one problem returns when it stops
    ll, grad, hess = fun(theta, *args, work)

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
            for a, rows in zip(args, compacted):  # forward: a row moves only into a row already read
                for j, i in enumerate(keep):
                    rows[j] = a[i]
            args = [rows[:len(keep)] for rows in compacted]
            ids, lls, gnorms, rejected, counts = ([v[i] for i in keep] for v in (ids, lls, gnorms, rejected, counts))

        # the search directions; after a rejected candidate a problem's
        # gradient and Hessian, and so its direction, are those of the last round
        direction, usable = _ascent_directions(grad, hess)
        for i, ok in enumerate(usable):
            counts[i][3] += rejected[i] == 0 and not ok
        cand = theta + np.ldexp(1.0, np.negative(rejected))[:, None] * direction

        cll, cgrad, chess = fun(cand, *args, work)
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
