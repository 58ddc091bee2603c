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

The proportional-odds log-likelihood, score and Hessian come from one
array-valued kernel over all records; its derivatives are written in density
ratios f/pi, so a category probability near underflow never produces a NaN.

Threshold ordering in the outcome model is kept by optimizing over
(alpha_1, log of successive gaps) and mapping standard errors back with the
delta method, which leaves the optimizer unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DegenerateDataError, DimensionError, SeparationError
from .models import (
    Dataset,
    MediatorModel,
    OutcomeModel,
    _category_probs,
    _mediator_eta,
)
from .numerics import expit, log1pexp

GRADIENT_TOL = 1e-8
_LOGLIK_RTOL = 1e-12
_MAX_ITERATIONS = 100
_MAX_HALVINGS = 30
_DIVERGENCE_NORM = 1e3


@dataclass(frozen=True)
class FitResult:
    """Outcome of one maximum-likelihood fit.

    ``standard_errors`` is aligned with the natural parameter vector of
    ``model``: (gamma0, gammaX, gammaC...) for the mediator regression,
    (alpha_1..alpha_{J-1}, betaX, betaM, betaXM, betaC...) for the outcome
    regression.  Entries are NaN when the observed information is not
    positive definite.  ``iterations`` counts accepted Newton steps and
    ``evaluations`` counts evaluations of the log-likelihood with its score
    and Hessian, the starting point included.  A fit that does not converge
    raises instead of returning, so every FitResult is a converged fit.
    """

    model: MediatorModel | OutcomeModel
    loglik: float
    gradient_norm: float
    iterations: int
    standard_errors: tuple[float, ...]
    evaluations: int


def parameter_labels(model):
    """Names matching the parameter-vector order used by FitResult."""
    if isinstance(model, MediatorModel):
        return ("gamma0", "gammaX") + tuple(f"gammaC{i}" for i in range(1, model.p + 1))
    return (
        tuple(f"alpha{j}" for j in range(1, model.J))
        + ("betaX", "betaM", "betaXM")
        + tuple(f"betaC{i}" for i in range(1, model.p + 1))
    )


def _check_dims(model, data: Dataset):
    if model.p != data.p:
        raise DimensionError(f"model has {model.p} covariate(s) but dataset has {data.p}")


def loglik_mediator(model: MediatorModel, data: Dataset):
    """Bernoulli log-likelihood of the mediator regression."""
    _check_dims(model, data)
    eta = _mediator_eta(model, data.x, data.covariates)
    return float(np.sum(data.m * eta - log1pexp(eta)))


def loglik_outcome(model: OutcomeModel, data: Dataset):
    """Multinomial log-likelihood implied by the cumulative-logit model.

    A record whose category probability underflows to zero makes the result
    exactly -inf (no exception, no clamping).
    """
    _check_dims(model, data)
    if model.J != data.J:
        raise DimensionError(f"model has J={model.J} levels but dataset declares J={data.J}")
    probs = _category_probs(model, data.x, data.m, data.covariates)
    picked = probs[np.arange(data.n), data.y - 1]
    with np.errstate(divide="ignore"):
        return float(np.sum(np.log(picked)))


def mediator_loglik_gradient(model: MediatorModel, data: Dataset):
    """Score of loglik_mediator with respect to (gamma0, gammaX, gammaC...)."""
    _check_dims(model, data)
    Z = _mediator_design(data)
    theta = np.concatenate([[model.gamma0, model.gammaX], model.gammaC])
    _, grad, _ = _bernoulli_parts(theta, Z, data.m.astype(float))
    return grad


def outcome_loglik_gradient(model: OutcomeModel, data: Dataset):
    """Score of loglik_outcome with respect to (alpha..., betaX, betaM,
    betaXM, betaC...)."""
    _check_dims(model, data)
    alpha = np.asarray(model.alpha, dtype=float)
    beta = np.concatenate([[model.betaX, model.betaM, model.betaXM], model.betaC])
    _, grad, _ = _proportional_odds_parts(alpha, beta, _outcome_design(data), data.y, data.J)
    if grad is None:
        raise ValueError("gradient undefined: some record has probability zero")
    return grad


def fit_mediator(data: Dataset) -> FitResult:
    """MLE of the logistic mediator regression.

    Requires both mediator values present and a full-rank (1, x, c) design.
    Complete separation is reported as :class:`SeparationError` when the
    parameter norm passes 1e3 while the likelihood is still improving.
    """
    if not (np.any(data.m == 0) and np.any(data.m == 1)):
        raise DegenerateDataError("mediator takes a single value; need both M=0 and M=1 to fit")
    Z = _mediator_design(data)
    _require_full_rank(Z, "mediator design matrix (1, x, c)")
    m = data.m.astype(float)

    theta, ll, grad, hess, iters, evals = _newton_maximize(
        lambda t: _bernoulli_parts(t, Z, m), np.zeros(Z.shape[1]), "mediator model"
    )
    se = _delta_method_errors(np.eye(theta.size), -hess)
    model = MediatorModel(theta[0], theta[1], tuple(theta[2:]))
    return FitResult(model, ll, float(np.max(np.abs(grad))), iters, tuple(se), evals)


def fit_outcome(data: Dataset) -> FitResult:
    """MLE of the proportional-odds outcome regression.

    Every level 1..J must be observed: empty categories abort with a clear
    error rather than being merged, since merging would change the estimand.
    Slopes start at zero and thresholds at the empirical marginal cumulative
    logits of Y.
    """
    counts = np.bincount(data.y, minlength=data.J + 1)[1:]
    missing = np.flatnonzero(counts == 0) + 1
    if missing.size:
        raise DegenerateDataError(
            f"outcome level(s) {', '.join(map(str, missing))} never observed; "
            f"every level 1..{data.J} must appear at least once"
        )
    W = _outcome_design(data)
    _require_full_rank(np.column_stack([np.ones(data.n), W]), "outcome design matrix (1, x, m, x*m, c)")

    K = data.J - 1
    cum = np.cumsum(counts)[:-1] / data.n
    alpha0 = np.log(cum / (1.0 - cum))
    if K == 1:
        phi0 = np.concatenate([alpha0, np.zeros(W.shape[1])])
    else:
        phi0 = np.concatenate([alpha0[:1], np.log(np.diff(alpha0)), np.zeros(W.shape[1])])

    phi, ll, grad_phi, hess_phi, iters, evals = _newton_maximize(
        lambda ph: _outcome_parts_phi(ph, K, W, data.y, data.J), phi0, "outcome model"
    )

    alpha = _alpha_from_phi(phi, K)
    beta = phi[K:]
    jac = _phi_jacobian(phi, K)
    se = _delta_method_errors(jac, -hess_phi)

    if np.any(np.diff(alpha) <= 0.0):
        raise ConvergenceError(
            "threshold ordering degenerate at the optimum (a gap underflowed to zero); "
            "the data cannot separate adjacent outcome levels"
        )
    model = OutcomeModel(tuple(alpha), beta[0], beta[1], beta[2], tuple(beta[3:]))
    return FitResult(model, ll, float(np.max(np.abs(grad_phi))), iters, tuple(se), evals)


# ----------------------------------------------------------------------
# designs and likelihood parts

def _mediator_design(data: Dataset):
    return np.column_stack([np.ones(data.n), data.x, data.covariates])


def _outcome_design(data: Dataset):
    x = data.x
    m = data.m.astype(float)
    return np.column_stack([x, m, x * m, data.covariates])


def _require_full_rank(design, what):
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise DegenerateDataError(f"{what} is rank-deficient; parameters are not identifiable")


def _bernoulli_parts(theta, Z, m):
    # log-likelihood, score and Hessian of a logistic regression at theta.
    eta = Z @ theta
    ll = float(np.sum(m * eta - log1pexp(eta)))
    prob = expit(eta)
    grad = Z.T @ (m - prob)
    hess = -(Z * (prob * (1.0 - prob))[:, None]).T @ Z
    return ll, grad, hess


def _proportional_odds_parts(alpha, beta, W, y, J):
    """Log-likelihood, score and Hessian in the natural (alpha, beta)
    parameterization.  Returns (-inf, None, None) when any record's category
    probability is nonpositive, which the line search treats as a rejection.

    Record i sits between the thresholds zh = alpha_{y_i} - eta_i above and
    zl = alpha_{y_i - 1} - eta_i below (+-inf at the ends), so every
    derivative of log pi_i is a function of the density ratios f(zh)/pi_i and
    f(zl)/pi_i.  Per-threshold sums are gathered with ``bincount`` over the
    upper and lower threshold index of each record.
    """
    K = J - 1
    eta = W @ beta
    ext = np.concatenate([[-np.inf], alpha, [np.inf]])
    lo = y - 1
    zh = ext[y] - eta
    zl = ext[lo] - eta
    a, b, ac, bc = expit(np.concatenate([zh, zl, -zh, -zl])).reshape(4, -1)
    # F(zh) - F(zl) in cancellation-free product form
    pi = bc * a * (-np.expm1(zl - zh))
    if np.any(pi <= 0.0):
        return -np.inf, None, None
    ll = float(np.sum(np.log(pi)))

    # Densities fa = f(zh), fb = f(zl) of the logistic cdf F (f = F(1-F)),
    # and the ratios ra = fa/pi, rb = fb/pi, s = F(zl)(1-F(zh))/pi.  With
    # pi = F(zh) - F(zl) the derivatives of log pi reduce to sums of
    # same-signed terms, so nothing cancels even where pi underflows towards
    # zero:
    #   d/dalpha_hi = ra,  d/dalpha_lo = -rb,  d/deta = F(zh) + F(zl) - 1,
    #   d2/dalpha_hi2 = -ra (F(zh) + s),  d2/dalpha_lo2 = -rb (1 - F(zl) + s),
    #   d2/dalpha_hi dalpha_lo = ra rb,  d2/dalpha_hi deta = fa,
    #   d2/dalpha_lo deta = fb,  d2/deta2 = -(fa + fb).
    fa = a * ac
    fb = b * bc
    ra = fa / pi
    rb = fb / pi
    s = b * ac / pi

    def per_threshold(index, w):
        # sum of w over the records whose ext[index] is alpha_1..alpha_K
        return np.bincount(index, weights=w, minlength=J + 1)[1:J]

    # cross derivatives of each record in the columns of its two thresholds
    cross = np.zeros((y.size, J + 1))
    records = np.arange(y.size)
    cross[records, y] = fa
    cross[records, lo] = fb

    grad = np.concatenate([per_threshold(y, ra) - per_threshold(lo, rb), W.T @ (b - ac)])
    hess = np.empty((K + W.shape[1],) * 2)
    diag = per_threshold(y, -ra * (a + s)) + per_threshold(lo, -rb * (bc + s))
    off = per_threshold(y, ra * rb)[1:]  # (alpha_{j-1}, alpha_j), j = 2..K
    hess[:K, :K] = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    hess[:K, K:] = cross[:, 1:J].T @ W
    hess[K:, :K] = hess[:K, K:].T
    hess[K:, K:] = -(W.T @ ((fa + fb)[:, None] * W))
    return ll, grad, hess


# ----------------------------------------------------------------------
# unconstrained threshold parameterization
#
# phi = (alpha_1, log(alpha_2 - alpha_1), ..., log(alpha_{K} - alpha_{K-1}),
#        betaX, betaM, betaXM, betaC...)

def _alpha_from_phi(phi, K):
    if K == 1:
        return phi[:1].copy()
    return phi[0] + np.concatenate([[0.0], np.cumsum(np.exp(phi[1:K]))])


def _phi_jacobian(phi, K):
    # d(alpha, beta) / d(phi): alpha_i = phi_0 + sum_{1 <= j <= i} exp(phi_j),
    # so the threshold block is lower-triangular.
    jac = np.eye(phi.size)
    jac[:K, :K] = np.tril(np.concatenate([[1.0], np.exp(phi[1:K])]))
    return jac


def _outcome_parts_phi(phi, K, W, y, J):
    alpha = _alpha_from_phi(phi, K)
    beta = phi[K:]
    ll, grad, hess = _proportional_odds_parts(alpha, beta, W, y, J)
    if grad is None:
        return ll, None, None
    jac = _phi_jacobian(phi, K)
    grad_phi = jac.T @ grad
    hess_phi = jac.T @ hess @ jac
    # curvature of alpha in the gap parameters: d2 alpha_i / d phi_j^2 =
    # exp(phi_j) for 1 <= j <= i, weighted by the scores of alpha_j..alpha_K
    gaps = np.arange(1, K)
    hess_phi[gaps, gaps] += np.exp(phi[1:K]) * np.cumsum(grad[K - 1:0:-1])[::-1]
    return ll, grad_phi, hess_phi


# ----------------------------------------------------------------------
# Newton engine

def _newton_maximize(fun, theta0, what):
    """Maximize ``fun`` (returning log-likelihood, score, Hessian) from
    theta0 by the loop described in the module docstring.  Returns (theta,
    ll, grad, hess, iterations, evaluations): accepted steps and calls of
    ``fun``, the starting point included."""
    theta = np.asarray(theta0, dtype=float).copy()
    ll, grad, hess = fun(theta)
    evaluations = 1
    if not np.isfinite(ll):
        raise ConvergenceError(f"{what}: log-likelihood not finite at the starting values")

    iterations = 0
    gnorm = float(np.max(np.abs(grad)))
    while gnorm > GRADIENT_TOL:
        if iterations == _MAX_ITERATIONS:
            raise ConvergenceError(
                f"{what}: no convergence after {_MAX_ITERATIONS} iterations "
                f"(max |gradient| = {gnorm:.3e})"
            )
        direction = _ascent_direction(grad, hess)
        band = _LOGLIK_RTOL * (abs(ll) + 1.0)
        step = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            cand = theta + step * direction
            cll, cgrad, chess = fun(cand)
            evaluations += 1
            if np.isfinite(cll) and cll >= ll - band:
                cnorm = float(np.max(np.abs(cgrad)))
                if cll > ll + band or cnorm < gnorm:
                    break
            step *= 0.5
        else:
            break
        theta, ll, grad, hess, gnorm = cand, cll, cgrad, chess, cnorm
        iterations += 1
        if float(np.max(np.abs(theta))) > _DIVERGENCE_NORM:
            raise SeparationError(
                f"{what}: parameter norm exceeded {_DIVERGENCE_NORM:g} while the "
                "log-likelihood is still improving; the data are likely completely separated"
            )
    return theta, ll, grad, hess, iterations, evaluations


def _ascent_direction(grad, hess):
    try:
        direction = np.linalg.solve(-hess, grad)
        if grad @ direction > 0.0 and np.all(np.isfinite(direction)):
            return direction
    except np.linalg.LinAlgError:
        pass
    # Hessian not negative definite here: fall back to a damped gradient step.
    return grad / (float(np.max(np.abs(np.diag(hess)))) + 1.0)


def _delta_method_errors(jac, information_phi):
    """Standard errors of f(phi) from the observed information in phi, with
    ``jac`` = d f / d phi; NaN when the information is not positive definite."""
    try:
        cov_phi = np.linalg.inv(information_phi)
    except np.linalg.LinAlgError:
        return np.full(information_phi.shape[0], np.nan)
    cov = jac @ cov_phi @ jac.T
    diag = np.diag(cov)
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        return np.full(diag.size, np.nan)
    return np.sqrt(diag)
