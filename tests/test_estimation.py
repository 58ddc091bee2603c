"""Maximum-likelihood fitting: closed-form checks, independent-optimizer
oracles, gradient/finite-difference agreement, the likelihood kernel against
a per-category reference and an mpmath oracle, evaluation-count guards, and
failure diagnostics."""

import hashlib
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

import ordmed.estimation
from ordmed import (
    ConvergenceError,
    Dataset,
    DegenerateDataError,
    DimensionError,
    EffectQuery,
    MediatorModel,
    OutcomeModel,
    SeparationError,
    SimulationDesign,
    fit_mediator,
    fit_outcome,
    loglik_mediator,
    loglik_outcome,
    mediator_loglik_gradient,
    monte_carlo_study,
    outcome_loglik_gradient,
    parameter_labels,
    replicate_seed,
    simulate_dataset,
)
from ordmed.estimation import (
    _MAX_HALVINGS,
    _MAX_ITERATIONS,
    _bernoulli_parts,
    _fit_mediators,
    _fit_outcomes,
    _fit_pairs,
    _mediator_design,
    _newton_maximize,
    _open_ends,
    _outcome_design,
    _proportional_odds_parts,
    _Stack,
    _standard_errors,
    _workspace,
)
from ordmed.inference import _BOOTSTRAP_DOMAIN
from ordmed.numerics import expit, keyed_stream
from ordmed.simulation import _simulate_stack

from conftest import J3_MEDIATOR, J3_OUTCOME, SPARSE_MEDIATOR, SPARSE_OUTCOME, X_ACTIVE, X_BASELINE, random_model_pair


def _dataset(x, m, y, J, c=None):
    x = np.asarray(x, dtype=float)
    c = np.empty((x.size, 0)) if c is None else np.asarray(c, dtype=float)
    return Dataset(x, np.asarray(m, dtype=np.int64), np.asarray(y, dtype=np.int64), c, J, c.shape[1])


def _sim(n, seed, mediator=J3_MEDIATOR, outcome=J3_OUTCOME):
    design = SimulationDesign(n=n, mean_x=3.0, sd_x=1.5, mediator=mediator, outcome=outcome, seed=seed)
    return simulate_dataset(design)


class TestLoglik:
    def test_single_record_known_probability(self):
        # alpha = logit(1/4) makes P(Y=1) = 0.25 exactly
        model = OutcomeModel((math.log(1 / 3),), 0.0, 0.0, 0.0)
        data = _dataset([1.7], [0], [1], J=2)
        assert loglik_outcome(model, data) == pytest.approx(math.log(0.25), abs=1e-15)
        med = MediatorModel(math.log(3.0), 0.0)  # P(M=0) = 0.25
        assert loglik_mediator(med, data) == pytest.approx(math.log(0.25), abs=1e-15)

    def test_duplicated_dataset_doubles_loglik(self):
        data = _sim(40, seed=3)
        doubled = data.subset(np.concatenate([np.arange(40), np.arange(40)]))
        assert loglik_outcome(J3_OUTCOME, doubled) == pytest.approx(
            2.0 * loglik_outcome(J3_OUTCOME, data), abs=1e-12
        )
        assert loglik_mediator(J3_MEDIATOR, doubled) == pytest.approx(
            2.0 * loglik_mediator(J3_MEDIATOR, data), abs=1e-12
        )

    def test_matches_per_record_brute_force(self, rng):
        from ordmed import category_probabilities, mediator_probability

        design = SimulationDesign(
            n=30, mean_x=0.0, sd_x=1.0,
            mediator=MediatorModel(-1.0, 0.5, (0.2,)),
            outcome=OutcomeModel((-1.0, 0.0, 1.0), 0.5, 0.3, 0.1, (0.1,)),
            seed=99, cov_means=(0.0,), cov_sds=(1.0,),
        )
        data = simulate_dataset(design)
        for _ in range(50):
            med, out = random_model_pair(rng, J=4, p=1)
            direct_out = sum(
                math.log(category_probabilities(out, xi, mi, ci)[yi - 1])
                for xi, mi, yi, ci in zip(data.x, data.m, data.y, data.covariates)
            )
            assert loglik_outcome(out, data) == pytest.approx(direct_out, abs=1e-12)
            direct_med = sum(
                math.log(mediator_probability(med, xi, ci) if mi else 1 - mediator_probability(med, xi, ci))
                for xi, mi, ci in zip(data.x, data.m, data.covariates)
            )
            assert loglik_mediator(med, data) == pytest.approx(direct_med, abs=1e-10)

    @pytest.mark.parametrize("design", ["j3", "sparse-j5"])
    def test_fits_report_the_public_loglik_bitwise(self, design):
        # one implementation per likelihood: each fit's log-likelihood is the
        # public function's at the fitted model, bit for bit
        n, sd_x, mediator, outcome = ((500, 1.5, J3_MEDIATOR, J3_OUTCOME) if design == "j3"
                                      else (300, 1.3, SPARSE_MEDIATOR, SPARSE_OUTCOME))
        for seed in range(40):
            data = simulate_dataset(SimulationDesign(
                n=n, mean_x=3.0, sd_x=sd_x, mediator=mediator, outcome=outcome, seed=seed,
            ))
            for fit, loglik in ((fit_mediator(data), loglik_mediator), (fit_outcome(data), loglik_outcome)):
                assert fit.loglik.hex() == loglik(fit.model, data).hex()

    def test_resample_fits_report_the_public_loglik_to_rounding(self):
        # a resample that repeats a record is fitted on its distinct records
        # with counts as weights, while the public functions sum over every
        # record: on the sparse J=5 reference data the fit's log-likelihood
        # is the public one bit for bit, and on its bootstrap resamples
        # (streams keyed 99) it agrees to 1e-15 relative, though not bitwise.
        # Of the 299 fitted resamples, 120-143 differed per model under three
        # BLAS kernels, by at most 4.44e-16 relative
        data = simulate_dataset(SimulationDesign(
            n=300, mean_x=3.0, sd_x=1.3, mediator=SPARSE_MEDIATOR, outcome=SPARSE_OUTCOME, seed=4242,
        ))
        for fit, loglik in ((fit_mediator(data), loglik_mediator), (fit_outcome(data), loglik_outcome)):
            assert fit.loglik.hex() == loglik(fit.model, data).hex()
        idx = np.stack([keyed_stream(99, _BOOTSTRAP_DOMAIN, b).integers(0, data.n, size=data.n) for b in range(300)])
        stack = _Stack.of([data.subset(i) for i in idx])
        fits = _fit_mediators(stack), _fit_outcomes(stack)
        fitted = [b for b in range(300) if not any(isinstance(f[b], Exception) for f in fits)]
        assert len(fitted) == 299
        for stacked, loglik in zip(fits, (loglik_mediator, loglik_outcome)):
            gaps = [abs(stacked[b].loglik - loglik(stacked[b].model, data.subset(idx[b]))) / -stacked[b].loglik
                    for b in fitted]
            assert max(gaps) <= 1e-15 and np.count_nonzero(gaps) > 0

    def test_zero_probability_record_gives_minus_inf(self):
        # alpha gaps so extreme that the middle category underflows to zero
        model = OutcomeModel((-800.0, 800.0), 0.0, 0.0, 0.0)
        data = _dataset([0.0], [0], [1], J=3)
        assert loglik_outcome(model, data) == -math.inf

    def _sim_design_mismatch(self):
        return _sim(10, seed=1)

    def test_dimension_checks(self):
        data = self._sim_design_mismatch()
        with pytest.raises(Exception):
            loglik_outcome(OutcomeModel((0.0,), 0, 0, 0), data)  # J mismatch
        with pytest.raises(Exception):
            loglik_mediator(MediatorModel(0, 0, (1.0,)), data)  # p mismatch

    def test_every_likelihood_function_checks_both_dimensions(self):
        data = _sim(10, seed=1)  # J = 3, p = 0
        for model in (OutcomeModel((0.0, 1.0, 2.0), 0, 0, 0), OutcomeModel((0.0, 1.0), 0, 0, 0, (1.0,))):
            for function in (loglik_outcome, outcome_loglik_gradient):
                with pytest.raises(DimensionError):
                    function(model, data)
        for function in (loglik_mediator, mediator_loglik_gradient):
            with pytest.raises(DimensionError):
                function(MediatorModel(0, 0, (1.0,)), data)

    def test_outcome_gradient_undefined_at_zero_probability(self):
        # the first record's predictor, 1000, lies far above the only
        # threshold, so its probability of y = 1 underflows to exactly zero
        data = _dataset([1.0, 0.0], [0, 1], [1, 2], J=2)
        with pytest.raises(ValueError, match="probability zero"):
            outcome_loglik_gradient(OutcomeModel((0.0,), 1000.0, 0.0, 0.0), data)


class TestGradients:
    def test_both_gradients_match_central_differences(self, rng):
        # 100 random parameter points against step-1e-6 central differences,
        # compared in vector-norm relative error
        data = _sim(60, seed=11)
        step = 1e-6
        for _ in range(100):
            a1 = rng.uniform(-2.0, 0.0)
            theta = np.array([a1, a1 + rng.uniform(0.3, 2.0), *rng.uniform(-1.5, 1.5, size=3)])
            out = OutcomeModel((theta[0], theta[1]), theta[2], theta[3], theta[4])
            grad = outcome_loglik_gradient(out, data)
            fd = np.empty_like(theta)
            for i in range(theta.size):
                bump = np.zeros(theta.size)
                bump[i] = step
                up = theta + bump
                dn = theta - bump
                fd[i] = (
                    loglik_outcome(OutcomeModel((up[0], up[1]), up[2], up[3], up[4]), data)
                    - loglik_outcome(OutcomeModel((dn[0], dn[1]), dn[2], dn[3], dn[4]), data)
                ) / (2 * step)
            assert np.max(np.abs(grad - fd)) <= 1e-5 * np.max(np.abs(fd))

            gamma = rng.uniform(-1.5, 1.5, size=2)
            gm = mediator_loglik_gradient(MediatorModel(*gamma), data)
            fdm = np.empty(2)
            for i in range(2):
                bump = np.zeros(2)
                bump[i] = step
                fdm[i] = (
                    loglik_mediator(MediatorModel(*(gamma + bump)), data)
                    - loglik_mediator(MediatorModel(*(gamma - bump)), data)
                ) / (2 * step)
            assert np.max(np.abs(gm - fdm)) <= 1e-5 * np.max(np.abs(fdm))


def _per_category_parts(alpha, beta, W, y, J):
    """Reference proportional-odds log-likelihood, score and Hessian: one pass
    per outcome category, with the derivatives written over pi**2.  It is the
    kernel's original formulation, kept here as an independent check of the
    array-valued one."""
    K = J - 1
    n, q = W.shape
    eta = W @ beta
    Z = alpha[None, :] - eta[:, None]

    ll = 0.0
    g_alpha = np.zeros(K)
    g_beta = np.zeros(q)
    Haa = np.zeros((K, K))
    Hab = np.zeros((K, q))
    Hbb = np.zeros((q, q))

    for k in range(1, J + 1):
        sel = y == k
        nk = int(np.count_nonzero(sel))
        if nk == 0:
            continue
        Wk = W[sel]
        zh = Z[sel, k - 1] if k <= K else np.full(nk, np.inf)
        zl = Z[sel, k - 2] if k >= 2 else np.full(nk, -np.inf)
        a, ac = expit(zh), expit(-zh)
        b, bc = expit(zl), expit(-zl)
        pi = bc * a * (-np.expm1(zl - zh))
        if np.any(pi <= 0.0):
            return -np.inf, None, None
        ll += float(np.sum(np.log(pi)))

        fa = a * ac
        fb = b * bc
        fpa = fa * (ac - a)
        fpb = fb * (bc - b)
        pi2 = pi * pi

        g_beta += Wk.T @ (-(fa - fb) / pi)
        Hbb += Wk.T @ ((((fpa - fpb) * pi - (fa - fb) ** 2) / pi2)[:, None] * Wk)
        if k <= K:
            g_alpha[k - 1] += float(np.sum(fa / pi))
            Haa[k - 1, k - 1] += float(np.sum((fpa * pi - fa * fa) / pi2))
            Hab[k - 1] += Wk.T @ ((-fpa * pi + fa * (fa - fb)) / pi2)
        if k >= 2:
            g_alpha[k - 2] -= float(np.sum(fb / pi))
            Haa[k - 2, k - 2] += float(np.sum((-fpb * pi - fb * fb) / pi2))
            Hab[k - 2] += Wk.T @ ((fpb * pi - fb * (fa - fb)) / pi2)
        if 2 <= k <= K:
            off = float(np.sum(fa * fb / pi2))
            Haa[k - 1, k - 2] += off
            Haa[k - 2, k - 1] += off

    grad = np.concatenate([g_alpha, g_beta])
    hess = np.block([[Haa, Hab], [Hab.T, Hbb]])
    return ll, grad, hess


def _mpmath_parts(alpha, beta, W, y, J, dps=60):
    """The same derivatives as _per_category_parts, record by record in
    ``dps``-digit arithmetic, where forming pi**2 loses nothing that matters."""
    K = J - 1
    q = W.shape[1]
    with mpmath.workdps(dps):
        F = lambda z: 1 / (1 + mpmath.exp(-z))  # noqa: E731
        H = mpmath.zeros(K + q, K + q)
        g = mpmath.zeros(K + q, 1)
        ll = mpmath.mpf(0)
        for w_row, k in zip(W, y.tolist()):
            w = [mpmath.mpf(float(v)) for v in w_row]
            eta = mpmath.fsum(wi * float(bi) for wi, bi in zip(w, beta))
            zh = float(alpha[k - 1]) - eta if k <= K else mpmath.inf
            zl = float(alpha[k - 2]) - eta if k >= 2 else -mpmath.inf
            a, ac = (F(zh), F(-zh)) if k <= K else (mpmath.mpf(1), mpmath.mpf(0))
            b, bc = (F(zl), F(-zl)) if k >= 2 else (mpmath.mpf(0), mpmath.mpf(1))
            if k == 1:
                pi = a
            elif k == J:
                pi = bc
            else:
                pi = bc * a * -mpmath.expm1(zl - zh)
            ll += mpmath.log(pi)
            fa, fb = a * ac, b * bc
            fpa, fpb = fa * (ac - a), fb * (bc - b)
            hbb = ((fpa - fpb) * pi - (fa - fb) ** 2) / pi**2
            for r in range(q):
                g[K + r] += -w[r] * (fa - fb) / pi
                for c in range(q):
                    H[K + r, K + c] += w[r] * w[c] * hbb
            if k <= K:
                g[k - 1] += fa / pi
                H[k - 1, k - 1] += (fpa * pi - fa * fa) / pi**2
                for c in range(q):
                    H[k - 1, K + c] += w[c] * (-fpa * pi + fa * (fa - fb)) / pi**2
                    H[K + c, k - 1] = H[k - 1, K + c]
            if k >= 2:
                g[k - 2] -= fb / pi
                H[k - 2, k - 2] += (-fpb * pi - fb * fb) / pi**2
                for c in range(q):
                    H[k - 2, K + c] += w[c] * (fpb * pi - fb * (fa - fb)) / pi**2
                    H[K + c, k - 2] = H[k - 2, K + c]
            if 2 <= k <= K:
                H[k - 1, k - 2] += fa * fb / pi**2
                H[k - 2, k - 1] = H[k - 1, k - 2]
        return (
            float(ll),
            np.array([float(v) for v in g]),
            np.array([[float(H[r, c]) for c in range(K + q)] for r in range(K + q)]),
        )


def _kernel_case(rng, J, n, p=0, saturated=False, skip_level=None):
    """Random kernel inputs: design columns (x, m, x*m, c...), ordered
    thresholds, slopes, and outcomes over 1..J (optionally never ``skip_level``).
    With ``saturated`` a third of the records get |eta| between 30 and 45."""
    x = rng.normal(0.0, 1.5, n)
    m = rng.integers(0, 2, n).astype(float)
    W = np.column_stack([x, m, x * m, rng.normal(0.0, 1.0, (n, p))])
    alpha = np.sort(rng.uniform(-3.0, 3.0, J - 1)) + 0.3 * np.arange(J - 1)
    beta = rng.uniform(-1.0, 1.0, 3 + p)
    if saturated:
        far = rng.random(n) < 1 / 3
        W[far, 0] = rng.choice([-1.0, 1.0], far.sum()) * rng.uniform(30.0, 45.0, far.sum())
        W[far, 1:] = 0.0
        beta[0] = 1.0
    levels = [k for k in range(1, J + 1) if k != skip_level]
    y = rng.choice(levels, n).astype(np.int64)
    return alpha, beta, W, y


def _outcome_model(theta, J):
    K = J - 1
    return OutcomeModel(tuple(theta[:K]), theta[K], theta[K + 1], theta[K + 2], tuple(theta[K + 3:]))


def _parts_of_one(alpha, beta, W, y, J):
    """The stacked kernel on a stack of one problem, unstacked."""
    ll, grad, hess = _stacked_parts(alpha[None], beta[None], W[None], y[None], J)
    return ll[0], grad[0], hess[0]


def _stacked_parts(alpha, beta, W, y, J):
    """The stacked kernel at the parameter rows (alpha, beta)."""
    return _outcome_kernel(np.concatenate([alpha, beta], axis=1), W, y, J)


def _outcome_kernel(theta, W, y, J, work=None):
    """The outcome kernel at the parameter rows theta, with unit weights, in
    ``work`` or a fresh workspace."""
    work = _workspace(*y.shape, J, W.shape[2]) if work is None else work
    return _proportional_odds_parts(theta, W, _open_ends(y, J), y, np.ones(y.shape), work)


def _mediator_kernel(theta, Z, m, work=None):
    """The mediator kernel at the parameter rows theta, with unit weights, in
    ``work`` or a fresh workspace."""
    work = _workspace(*m.shape, 0, Z.shape[2]) if work is None else work
    return _bernoulli_parts(theta, Z, m, np.ones(m.shape), work)


def _assert_parts_close(got, ref, rtol):
    ll, grad, hess = got
    ref_ll, ref_grad, ref_hess = ref
    assert ll == pytest.approx(ref_ll, rel=rtol)
    assert np.max(np.abs(grad - ref_grad)) <= rtol * np.max(np.abs(ref_grad))
    assert np.max(np.abs(hess - ref_hess)) <= rtol * np.max(np.abs(ref_hess))


class TestKernel:
    @pytest.mark.parametrize("J, p, saturated, skip_level", [
        (2, 0, False, None),
        (3, 0, False, None),
        (5, 0, False, None),
        (7, 2, False, None),
        (5, 0, False, 3),
        (5, 1, True, None),
        (2, 0, True, None),
        (6, 2, True, 4),
    ])
    def test_matches_per_category_reference(self, rng, J, p, saturated, skip_level):
        for _ in range(20):
            alpha, beta, W, y = _kernel_case(rng, J, int(rng.integers(5, 300)), p, saturated, skip_level)
            if saturated:
                assert np.max(np.abs(W @ beta)) > 30.0
            _assert_parts_close(
                _parts_of_one(alpha, beta, W, y, J),
                _per_category_parts(alpha, beta, W, y, J),
                1e-12,
            )

    def test_matches_mpmath_at_saturated_predictors(self, rng):
        # predictors up to |eta| = 60, where the product form of pi keeps the
        # likelihood exact but derivatives formed over pi**2 lose digits
        for J in (3, 5):
            alpha, beta, W, y = _kernel_case(rng, J, 12, p=1)
            W[:, 0] = rng.choice([-1.0, 1.0], 12) * rng.uniform(20.0, 60.0, 12)
            beta[0] = 1.0
            _assert_parts_close(
                _parts_of_one(alpha, beta, W, y, J),
                _mpmath_parts(alpha, beta, W, y, J),
                1e-13,
            )

    def test_hessian_finite_where_pi_squared_underflows(self):
        # record 1 has probability ~1e-174: finite log-likelihood, and pi**2
        # underflows to zero, which once made the Hessian NaN
        W = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.0, 1.0, 2.0], [-1.0, 0.0, 0.0]])
        y = np.array([1, 2, 3, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ll, grad, hess = _parts_of_one(
                np.array([-0.5, 0.5]), np.array([400.0, 0.0, 0.0]), W, y, 3
            )
        assert np.isfinite(ll)
        assert np.all(np.isfinite(grad))
        assert np.all(np.isfinite(hess))

    def test_thresholds_out_of_order_reject_exactly_their_problems(self, rng):
        # with every level observed, swapping or tying two adjacent
        # thresholds gives the records of the level between them a
        # probability <= 0: that problem, and only that problem, gets
        # ll = -inf, which is what keeps an unconstrained fit of the
        # thresholds ordered
        for J in (3, 4, 5, 6):
            S, n = 12, 40
            cases = [_kernel_case(rng, J, n, p=1) for _ in range(S)]
            alpha, beta, W, y = (np.stack(arrays) for arrays in zip(*cases))
            y[:, :J] = np.arange(1, J + 1)
            ll, grad, hess = _stacked_parts(alpha, beta, W, y, J)
            assert np.isfinite(ll).all()

            broken = np.zeros(S, dtype=bool)
            broken[rng.choice(S, 5, replace=False)] = True
            bad = alpha.copy()
            for s in np.flatnonzero(broken):
                j = int(rng.integers(0, J - 2))
                if s % 2:
                    bad[s, [j, j + 1]] = bad[s, [j + 1, j]]
                else:
                    bad[s, j + 1] = bad[s, j]
            ll2, grad2, hess2 = _stacked_parts(bad, beta, W, y, J)
            assert np.all(ll2[broken] == -np.inf)
            kept = ~broken
            assert np.isfinite(ll2[kept]).all()
            assert ll2[kept].tobytes() == ll[kept].tobytes()
            assert grad2[kept].tobytes() == grad[kept].tobytes()
            assert hess2[kept].tobytes() == hess[kept].tobytes()

    def test_hessian_matches_central_differences_of_gradient(self, rng):
        step = 1e-6
        for J, p in ((2, 0), (3, 0), (5, 1)):
            design = SimulationDesign(
                n=80, mean_x=0.0, sd_x=1.0,
                mediator=MediatorModel(-0.5, 0.5, (0.3,) * p),
                outcome=OutcomeModel(tuple(np.linspace(-1.5, 1.5, J - 1)), 0.5, 0.3, 0.2, (0.4,) * p),
                seed=17 + J, cov_means=(0.0,) * p, cov_sds=(1.0,) * p,
            )
            data = simulate_dataset(design)
            W = _outcome_design(data)
            for _ in range(10):
                _, out = random_model_pair(rng, J=J, p=p)
                theta = np.array([*out.alpha, out.betaX, out.betaM, out.betaXM, *out.betaC])
                _, _, hess = _parts_of_one(
                    theta[:J - 1], theta[J - 1:], W, data.y, J
                )
                fd = np.empty_like(hess)
                for i in range(theta.size):
                    bump = np.zeros(theta.size)
                    bump[i] = step
                    fd[:, i] = (
                        outcome_loglik_gradient(_outcome_model(theta + bump, J), data)
                        - outcome_loglik_gradient(_outcome_model(theta - bump, J), data)
                    ) / (2 * step)
                assert np.max(np.abs(hess - fd)) <= 1e-6 * np.max(np.abs(fd))


def _where_maps(z):
    # expit(z), expit(-z) and log1pexp(z), branch-wise from exp(-|z|)
    ez = np.exp(-np.abs(z))
    large, small = 1.0 / (1.0 + ez), ez / (1.0 + ez)
    return np.where(z >= 0.0, large, small), np.where(z <= 0.0, large, small), np.maximum(z, 0.0) + np.log1p(ez)


def _plain_outcome_parts(alpha, beta, W, y, J):
    """The stacked proportional-odds kernel written plainly: both threshold
    logits concatenated, the branch-wise maps, record-sized negations and
    broadcast weight products.  The kernel must equal it bit for bit."""
    S, n, q = W.shape
    K = J - 1
    eta = (W @ beta[:, :, None])[:, :, 0]
    ext = np.concatenate([np.full((S, 1), -np.inf), alpha, np.full((S, 1), np.inf)], axis=1)
    hi = y + np.arange(0, S * (J + 1), J + 1)[:, None]
    zh, zl = np.concatenate([(ext.ravel()[hi] - eta)[None], (ext.ravel()[hi - 1] - eta)[None]])
    (a, b), (ac, bc) = _where_maps(np.stack([zh, zl]))[:2]
    pi = bc * a * (-np.expm1(zl - zh))
    ok = ~(pi <= 0.0).any(axis=1)
    pi[~ok] = 1.0
    ll = np.log(pi).sum(axis=1)
    fa, fb = a * ac, b * bc
    ra, rb, s = fa / pi, fb / pi, b * ac / pi

    def per_threshold(index, w):
        return np.bincount(index.ravel(), weights=w.ravel(), minlength=S * (J + 1)).reshape(S, J + 1)[:, 1:J]

    grad = np.concatenate([per_threshold(hi, ra) - per_threshold(hi - 1, rb),
                           (W.mT @ (b - ac)[:, :, None])[:, :, 0]], axis=1)
    hess = np.zeros((S, K + q, K + q))
    t = np.arange(K)
    hess[:, t, t] = per_threshold(hi, -ra * (a + s)) + per_threshold(hi - 1, -rb * (bc + s))
    hess[:, t[:-1], t[1:]] = hess[:, t[1:], t[:-1]] = per_threshold(hi, ra * rb)[:, 1:]
    cross = np.zeros((S, n, J + 1))
    np.put_along_axis(cross, y[:, :, None], fa[:, :, None], axis=2)
    np.put_along_axis(cross, y[:, :, None] - 1, fb[:, :, None], axis=2)
    hess[:, :K, K:] = cross[:, :, 1:J].mT @ W
    hess[:, K:, :K] = hess[:, :K, K:].mT
    hess[:, K:, K:] = -(W.mT @ ((fa + fb)[:, :, None] * W))
    ll[~ok] = -np.inf
    return ll, grad, hess, ok


def _plain_bernoulli_parts(theta, Z, m):
    # the stacked logistic-regression kernel written plainly, as above
    eta = (Z @ theta[:, :, None])[:, :, 0]
    prob, _, log_norm = _where_maps(eta)
    hess = -((Z * (prob * (1.0 - prob))[:, :, None]).mT @ Z)
    return (m * eta - log_norm).sum(axis=1), (Z.mT @ (m - prob)[:, :, None])[:, :, 0], hess


def _simulated_kernel_stack(rng, mediator, outcome, S, n):
    # S simulated datasets of one design, each evaluated near its
    # generating parameters
    design = SimulationDesign(n=n, mean_x=3.0, sd_x=1.5, mediator=mediator, outcome=outcome, seed=1)
    stack = _simulate_stack(design, [replicate_seed(7, r) for r in range(S)])
    gamma = np.array([mediator.gamma0, mediator.gammaX]) + rng.normal(0.0, 0.2, (S, 2))
    theta = np.array([*outcome.alpha, outcome.betaX, outcome.betaM, outcome.betaXM])
    theta = theta + rng.normal(0.0, 0.2, (S, theta.size))
    return (gamma, _mediator_design(stack), stack.m.astype(float)), (theta, _outcome_design(stack), stack.y, outcome.J)


def _saturated_kernel_stack(rng, S=10, n=240, J=5):
    # a third of the records have |eta| in (40, 60), where every category
    # probability but one is tiny, and a ninth have |eta| in (745, 800),
    # where exp() underflows; those sit in the one level they can reach.
    # Problem 0 has two thresholds out of order, and problem 1 never
    # observes levels 3 and 4, so its third threshold has no records.
    cases = [_kernel_case(rng, J, n, p=1) for _ in range(S)]
    alpha, beta, W, y = (np.stack(arrays) for arrays in zip(*cases))
    beta[:, 0] = 1.0
    band = rng.random((S, n))
    far = band < 1 / 3
    W[far, 0] = rng.choice([-1.0, 1.0], far.sum()) * rng.uniform(40.0, 60.0, far.sum())
    W[far, 1:] = 0.0
    beyond = band < 1 / 9
    W[beyond, 0] = np.sign(W[beyond, 0]) * rng.uniform(745.0, 800.0, beyond.sum())
    y[beyond] = np.where(W[beyond, 0] > 0, J, 1)
    alpha[0, [1, 2]] = alpha[0, [2, 1]]
    y[1] = np.where((y[1] == 3) | (y[1] == 4), 2, y[1])
    Z = np.concatenate([np.ones((S, n, 1)), W[:, :, [0, 3]]], axis=2)
    gamma = np.column_stack([rng.normal(0.0, 1.0, S), np.ones(S), rng.normal(0.0, 1.0, S)])
    return (gamma, Z, rng.integers(0, 2, (S, n)).astype(float)), (np.concatenate([alpha, beta], axis=1), W, y, J)


class TestKernelsBitwise:
    """Both stacked kernels equal their plain references bit for bit: on a
    J=3 stack of 24 x 500 and a sparse J=5 stack of 40 x 300 records, the
    sizes the resampling drivers use, and on a stack whose records saturate."""

    @staticmethod
    def _stacks(rng, case):
        # the (mediator, outcome) kernel inputs of a case
        if case == "saturated":
            return _saturated_kernel_stack(rng)
        mediator, model, S, n = ((J3_MEDIATOR, J3_OUTCOME, 24, 500) if case == "j3"
                                 else (SPARSE_MEDIATOR, SPARSE_OUTCOME, 40, 300))
        return _simulated_kernel_stack(rng, mediator, model, S, n)

    @pytest.mark.parametrize("case", ["j3", "sparse-j5", "saturated"])
    def test_kernels_equal_plain_references(self, rng, case):
        bernoulli, outcome = self._stacks(rng, case)
        theta, W, y, J = outcome
        K = J - 1
        ref = _plain_outcome_parts(theta[:, :K], theta[:, K:], W, y, J)
        got = _outcome_kernel(theta, W, y, J)
        assert [r.tobytes() for r in got] == [r.tobytes() for r in ref[:3]]
        assert ref[3].sum() == len(y) - (case == "saturated")
        if case == "saturated":
            assert np.abs(W[:, :, 0]).max() > 745.0 and np.bincount(y[1], minlength=6)[3:5].sum() == 0
            assert np.signbit(ref[2][1, 2, 2]) == 0 and ref[2][1, 2, 2] == 0.0  # +0, bit for bit
        got, ref = _mediator_kernel(*bernoulli), _plain_bernoulli_parts(*bernoulli)
        assert [r.tobytes() for r in got] == [r.tobytes() for r in ref]

    @pytest.mark.parametrize("case", ["j3", "sparse-j5", "saturated"])
    def test_one_workspace_serves_a_stack_and_then_its_first_problems(self, rng, case):
        # as in the engine once problems stop: a workspace sized for the
        # stack evaluates the stack and then its first S' < S problems, each
        # bitwise as in a fresh workspace
        (gamma, Z, m), (theta, W, y, J) = self._stacks(rng, case)
        S = len(y)
        mediator_work = _workspace(*m.shape, 0, Z.shape[2])
        outcome_work = _workspace(*y.shape, J, W.shape[2])
        assert case != "saturated" or not Z.flags.c_contiguous  # the weighted Z keeps Z's memory order
        for rows in (S, S - 3, 1):
            kernels = [(_mediator_kernel, (gamma[:rows], Z[:rows], m[:rows]), mediator_work),
                       (_outcome_kernel, (theta[:rows], W[:rows], y[:rows], J), outcome_work)]
            for kernel, args, work in kernels:
                got, fresh = kernel(*args, work), kernel(*args)
                assert [r.tobytes() for r in got] == [r.tobytes() for r in fresh]


class TestWeightedKernels:
    """Both kernels on each problem's distinct records, with their counts as
    weights and zero-weight copies of the last one as padding, equal the
    kernels on the records themselves within 1e-12 relative: on the stacks
    of TestKernelsBitwise, saturated records included."""

    @pytest.mark.parametrize("case", ["j3", "sparse-j5", "saturated"])
    def test_distinct_records_with_counts_equal_their_records(self, rng, case):
        (gamma, Z, m), (theta, W, y, J) = TestKernelsBitwise._stacks(rng, case)
        S, n = y.shape
        idx = rng.integers(0, n, (S, n))  # each problem draws n of its records, with repeats
        counts = np.stack([np.bincount(i, minlength=n) for i in idx])
        d = np.count_nonzero(counts, axis=1)
        L = d.max() + 3
        pick = np.stack([np.flatnonzero(c)[np.minimum(np.arange(L), k - 1)] for c, k in zip(counts, d)])
        w = np.where(np.arange(L) < d[:, None], np.take_along_axis(counts, pick, axis=1), 0).astype(float)
        assert (d < n).all() and (w == 0.0).any()

        def rows(a, at):
            return np.take_along_axis(a, at[:, :, None] if a.ndim == 3 else at, axis=1)

        yd = rows(y, pick)
        weighted = (_bernoulli_parts(gamma, rows(Z, pick), rows(m, pick), w, _workspace(S, L, 0, Z.shape[2])),
                    _proportional_odds_parts(theta, rows(W, pick), _open_ends(yd, J), yd, w,
                                             _workspace(S, L, J, W.shape[2])))
        records = (_mediator_kernel(gamma, rows(Z, idx), rows(m, idx)),
                   _outcome_kernel(theta, rows(W, idx), rows(y, idx), J))
        for got, ref in zip(weighted, records):
            assert np.array_equal(got[0] == -np.inf, ref[0] == -np.inf)
            for s in range(S):
                _assert_parts_close([part[s] for part in got], [part[s] for part in ref], 1e-12)

    @pytest.mark.parametrize("case", ["j3", "saturated"])
    def test_unit_weights_of_width_zero_skip_exact_multiplies(self, rng, case):
        # a stack whose weights are all one passes them to the kernels as an
        # (S, 0) array, which skips the multiplies: the bits are those of ones
        (gamma, Z, m), (theta, W, y, J) = TestKernelsBitwise._stacks(rng, case)
        S, n = y.shape

        def bits(w):
            return [r.tobytes() for r in (*_bernoulli_parts(gamma, Z, m, w, _workspace(S, n, 0, Z.shape[2])),
                                          *_proportional_odds_parts(theta, W, _open_ends(y, J), y, w,
                                                                    _workspace(S, n, J, W.shape[2])))]

        assert bits(np.ones((S, 0))) == bits(np.ones((S, n)))


class TestEvaluationCounts:
    def test_sparse_bootstrap_fits_take_few_evaluations(self):
        # the sparse J=5 design of acceptance criterion 7(c), resampled with
        # the bootstrap's own streams: likelihood evaluations per fit guard
        # the Newton loop's cost without timing anything
        data = simulate_dataset(SimulationDesign(
            n=300, mean_x=3.0, sd_x=1.3, mediator=SPARSE_MEDIATOR,
            outcome=SPARSE_OUTCOME, seed=4242,
        ))
        assert fit_outcome(data).evaluations <= 10
        outcome, mediator = [], []
        for b in range(200):
            idx = keyed_stream(99, _BOOTSTRAP_DOMAIN, b).integers(0, data.n, size=data.n)
            sample = data.subset(idx)
            try:
                fit_m = fit_mediator(sample)
                fit_o = fit_outcome(sample)
            except (DegenerateDataError, ConvergenceError):
                continue
            mediator.append(fit_m.evaluations)
            outcome.append(fit_o.evaluations)
        assert len(outcome) >= 190
        assert np.mean(outcome) <= 9
        assert max(outcome) <= 30
        assert np.mean(mediator) <= 8

    def test_evaluations_are_the_start_plus_steps_plus_halvings(self):
        # every evaluation after the start is either an accepted step or a
        # rejected (halved) candidate: on the J=3 and sparse J=5 reference
        # fits, on sparse bootstrap resamples, and on an engine problem whose
        # full Newton step overshoots (the data-driven starts leave the real
        # fits without a halving): maximize -log cosh t from t = 1.5, where
        # the full step lands near t = -3.5 and the half step is accepted
        j3 = simulate_dataset(SimulationDesign(
            n=500, mean_x=3.0, sd_x=1.5, mediator=J3_MEDIATOR, outcome=J3_OUTCOME, seed=1,
        ))
        sparse = simulate_dataset(SimulationDesign(
            n=300, mean_x=3.0, sd_x=1.3, mediator=SPARSE_MEDIATOR, outcome=SPARSE_OUTCOME, seed=4242,
        ))
        fits = [fit_mediator(j3), fit_outcome(j3), fit_mediator(sparse), fit_outcome(sparse)]
        for b in range(12):
            idx = keyed_stream(99, _BOOTSTRAP_DOMAIN, b).integers(0, sparse.n, size=sparse.n)
            fits.append(fit_outcome(sparse.subset(idx)))
        counts = [(fit.iterations, fit.evaluations, fit.halvings, fit.fallback_steps) for fit in fits]

        def log_cosh(theta, work):
            t = theta[:, 0]
            return -np.log(np.cosh(t)), -np.tanh(t)[:, None], (-1.0 / np.cosh(t) ** 2)[:, None, None]

        fits = _converged(log_cosh, np.array([[1.5]]))
        (_, gnorm, overshoot), = _outcomes(fits)
        assert gnorm <= 1e-8 and abs(fits.theta[0, 0]) <= 1e-8
        counts.append(overshoot)
        for iterations, evaluations, halvings, fallback_steps in counts:
            assert evaluations == 1 + iterations + halvings
            assert fallback_steps == 0
        assert sum(halvings for _, _, halvings, _ in counts) > 0

    def test_damped_gradient_directions_are_counted(self):
        # maximize -log(1 + t^2): the Hessian is positive for |t| > 1, so a
        # start at t = 2 needs damped gradient steps before Newton takes over
        def fun(theta, work):
            t = theta[:, 0]
            hess = (-2.0 * (1.0 - t * t) / (1.0 + t * t) ** 2)[:, None, None]
            return -np.log1p(t * t), (-2.0 * t / (1.0 + t * t))[:, None], hess

        fits = _converged(fun, np.array([[2.0], [0.5]]))
        far, near = _outcomes(fits)
        assert np.all(np.abs(fits.theta) <= 1e-8)
        for _, _, (iterations, evaluations, halvings, damped) in (far, near):
            assert evaluations == 1 + iterations + halvings
        assert far[2][3] >= 1
        assert near[2][3] == 0


def _quadratic(theta, w, work):
    # maximize -(t - 1)^2 - w (u - 2)^2: Newton's first step is exact for
    # w > 0; for w = 0 the Hessian is singular everywhere and u is not identified
    t, u = theta[:, 0] - 1.0, theta[:, 1] - 2.0
    hess = np.zeros((w.size, 2, 2))
    hess[:, 0, 0] = -2.0
    hess[:, 1, 1] = -2.0 * w
    return -(t * t) - w * u * u, np.stack([-2.0 * t, -2.0 * w * u], axis=1), hess


def _maximize(fun, theta0, *args, errors=None):
    # the engine's record of a stack, and its error list (none recorded
    # before the run unless ``errors`` is given); fun gets an empty workspace
    errors = [None] * len(theta0) if errors is None else errors
    return _newton_maximize(fun, theta0, args, (0, 0, 0), "test problem", errors), errors


def _converged(fun, theta0, *args):
    # the record of a stack whose every problem must end without an error
    fits, errors = _maximize(fun, theta0, *args)
    assert errors == [None] * len(theta0)
    return fits


def _outcomes(fits):
    # per problem, (loglik, max |gradient|, counts) from the record's rows
    return [(ll, gnorm, tuple(counts))
            for ll, gnorm, counts in zip(fits.loglik.tolist(), fits.gradient_norm.tolist(), fits.counts.tolist())]


def _counted(fun, calls):
    # fun, recording the number of problems of every call: a one-problem
    # stack's evaluations are its calls, whether it converges or fails
    def counted(theta, *args):
        calls.append(theta.shape[0])
        return fun(theta, *args)

    return counted


class TestEngineExits:
    """Each way out of the Newton engine, driven by synthetic problems."""

    def test_singular_hessian_in_a_stack_leaves_the_regular_fit_bitwise(self, monkeypatch):
        fallbacks = []
        original = ordmed.estimation._solved_or_nan

        def solved_or_nan(a, b):
            fallbacks.append(b.shape[-1])
            return original(a, b)

        monkeypatch.setattr(ordmed.estimation, "_solved_or_nan", solved_or_nan)
        fits = _converged(_quadratic, np.zeros((2, 2)), np.array([0.0, 1.0]))
        theta, hess = fits.theta, fits.hess
        singular, regular = _outcomes(fits)
        assert 1 in fallbacks  # the stacked Newton solve raised LinAlgError
        alone_fits = _converged(_quadratic, np.zeros((1, 2)), np.array([1.0]))
        alone_theta, alone_hess = alone_fits.theta, alone_fits.hess
        (alone,) = _outcomes(alone_fits)
        assert regular == alone and regular[2] == (1, 2, 0, 0)
        assert theta[1].tobytes() == alone_theta[0].tobytes()
        assert hess[1].tobytes() == alone_hess[0].tobytes()
        # the singular problem climbs t by damped gradient steps and stops
        # with u where it started
        _, gnorm, (iterations, evaluations, halvings, damped) = singular
        assert gnorm <= 1e-8 and theta[0, 1] == 0.0
        assert evaluations == 1 + iterations + halvings and damped == iterations > 0

        fallbacks.clear()
        ses = _standard_errors(-hess)
        assert 2 in fallbacks  # the stacked inverse raised LinAlgError
        assert np.all(np.isnan(ses[0]))
        assert ses[1].tobytes() == _standard_errors(-alone_hess)[0].tobytes()

    def test_mixed_stack_of_halving_damped_and_exact_problems_equals_single_problems(self):
        # one stack whose problems leave the loop by different routes: a
        # full step that overshoots and is halved (-log cosh t from 1.5),
        # damped gradient steps before Newton takes over (-log(1 + t^2) from
        # 2 and 1.5), one exact step (-(t - 1)^2 from 0) and a start at the
        # optimum (-(t - 1)^2 from 1); each ends bitwise as it does alone
        def fun(theta, kind, work):
            t = theta[:, 0]
            ll = np.where(kind == 0, -np.log(np.cosh(t)), np.where(kind == 1, -np.log1p(t * t), -(t - 1.0) ** 2))
            grad = np.where(kind == 0, -np.tanh(t), np.where(kind == 1, -2.0 * t / (1.0 + t * t), -2.0 * (t - 1.0)))
            hess = np.where(kind == 0, -1.0 / np.cosh(t) ** 2,
                            np.where(kind == 1, -2.0 * (1.0 - t * t) / (1.0 + t * t) ** 2, -2.0))
            return ll, grad[:, None], hess[:, None, None]

        theta0 = np.array([[1.5], [2.0], [1.5], [0.0], [1.0]])
        kind = np.array([0, 1, 1, 2, 2])
        fits = _converged(fun, theta0, kind)
        assert kind.tolist() == [0, 1, 1, 2, 2]  # stops move rows in the engine's arrays, not the caller's
        outcomes = _outcomes(fits)
        for s in range(len(kind)):
            alone_fits = _converged(fun, theta0[s:s + 1], kind[s:s + 1])
            (alone,) = _outcomes(alone_fits)
            assert outcomes[s] == alone
            assert fits.theta[s].tobytes() == alone_fits.theta[0].tobytes()
            assert fits.hess[s].tobytes() == alone_fits.hess[0].tobytes()
        counts = [outcome[2] for outcome in outcomes]
        assert counts[3] == (1, 2, 0, 0) and counts[4] == (0, 1, 0, 0)
        assert sum(halvings for _, _, halvings, _ in counts) > 0
        assert sum(damped for _, _, _, damped in counts) > 0

    def test_a_stop_allocates_no_record_sized_array(self, monkeypatch):
        # a J=3 stack of 24 problems, one of which stops a round before the
        # rest: the memory traced at every kernel entry stays within one
        # (S, n) float slot of that at the first entry (the running rows move
        # forward in arrays the engine allocated at entry), and the caller's
        # arrays keep their bytes
        design = SimulationDesign(n=500, mean_x=3.0, sd_x=1.5, mediator=J3_MEDIATOR, outcome=J3_OUTCOME, seed=1)
        stack = _simulate_stack(design, [replicate_seed(1, r) for r in range(24)])
        designs = ordmed.estimation._designs(stack)
        before = [stack.y.tobytes(), designs[0].tobytes()]
        entries = []

        def kernel(theta, *args, real=_proportional_odds_parts):
            entries.append((len(theta), tracemalloc.get_traced_memory()[0]))
            return real(theta, *args)

        monkeypatch.setattr(ordmed.estimation, "_proportional_odds_parts", kernel)
        tracemalloc.start()
        try:
            ordmed.estimation._solve_outcomes(stack, [None] * 24, designs)
        finally:
            tracemalloc.stop()
        assert [size for size, _ in entries][-2:] == [24, 23]
        assert max(memory for _, memory in entries) - entries[0][1] < 24 * 500 * 8
        assert [stack.y.tobytes(), designs[0].tobytes()] == before

    def test_non_finite_start_fails_only_its_problem(self):
        def fun(theta, w, work):
            ll, grad, hess = _quadratic(theta, np.ones_like(w), work)
            return np.where(w > 0, ll, -np.inf), grad, hess

        calls = []
        fits, (bad, no_error) = _maximize(_counted(fun, calls), np.zeros((2, 2)), np.array([0.0, 1.0]))
        good = _outcomes(fits)[1]
        assert isinstance(bad, ConvergenceError) and "starting values" in str(bad)
        assert no_error is None
        assert calls == [2, 1]  # the failed problem is evaluated once: 1 + 0 + 0
        (alone,) = _outcomes(_converged(_quadratic, np.zeros((1, 2)), np.array([1.0])))
        assert good == alone
        assert good[2][1] == 1 + good[2][0] + good[2][2]

    def test_problems_with_an_error_are_never_run(self):
        # problems 1 and 3 come with errors (and a singular Hessian for 1):
        # the engine never evaluates them and leaves their errors and their
        # zero rows, and every other problem ends bitwise as it does alone
        def fun(theta, w, stack_rows, work):
            evaluated.extend(stack_rows.tolist())
            return _quadratic(theta, w, work)

        evaluated, calls = [], []
        w = np.array([1.0, 0.0, 0.5, 2.0, 3.0])
        theta0 = np.arange(10.0).reshape(5, 2)
        recorded = [DegenerateDataError("recorded"), SeparationError("recorded")]
        fits, errors = _maximize(_counted(fun, calls), theta0, w, np.arange(5),
                                 errors=[None, recorded[0], None, recorded[1], None])
        assert calls == [3, 3] and set(evaluated) == {0, 2, 4}
        assert errors[1] is recorded[0] and errors[3] is recorded[1]
        assert [errors[s] for s in (0, 2, 4)] == [None] * 3
        for s in (1, 3):
            assert all(not field[s].any() for field in fits)
        for s in (0, 2, 4):
            alone = _converged(_quadratic, theta0[s:s + 1], w[s:s + 1])
            assert [field[s].tobytes() for field in fits] == [field[0].tobytes() for field in alone]

        # a stack without a problem to run makes no kernel call and
        # allocates no Hessian rows
        fits, errors = _maximize(_counted(fun, calls), theta0, w, np.arange(5), errors=recorded * 2 + recorded[:1])
        assert calls == [3, 3] and errors == recorded * 2 + recorded[:1]
        assert fits.hess.shape == (5, 0, 0)
        assert all(not field.any() for field in fits)

    def test_iteration_limit(self):
        # log-likelihood t rises without bound, and a positive curvature
        # sends every step down the damped gradient
        def fun(theta, work):
            S = theta.shape[0]
            return theta[:, 0].copy(), np.ones((S, 1)), np.ones((S, 1, 1))

        calls = []
        _, (outcome,) = _maximize(_counted(fun, calls), np.zeros((1, 1)))
        assert isinstance(outcome, ConvergenceError)
        assert f"no convergence after {_MAX_ITERATIONS} iterations" in str(outcome)
        assert len(calls) == 1 + _MAX_ITERATIONS + 0  # every step accepted

    def test_stop_when_every_halving_is_rejected(self):
        # a flat log-likelihood whose gradient never falls: no candidate
        # is accepted, and the fit ends where it started
        def fun(theta, work):
            S = theta.shape[0]
            return np.zeros(S), np.ones((S, 1)), -np.ones((S, 1, 1))

        calls = []
        fits = _converged(_counted(fun, calls), np.zeros((1, 1)))
        (outcome,) = _outcomes(fits)
        assert outcome == (0.0, 1.0, (0, _MAX_HALVINGS + 2, _MAX_HALVINGS + 1, 0))
        assert len(calls) == 1 + 0 + _MAX_HALVINGS + 1
        assert fits.theta[0, 0] == 0.0


def _bits(fit):
    """Everything a fit reports, as raw bytes plus its counts."""
    model = fit.model
    if isinstance(model, MediatorModel):
        params = (model.gamma0, model.gammaX, *model.gammaC)
    else:
        params = (*model.alpha, model.betaX, model.betaM, model.betaXM, *model.betaC)
    floats = np.array([*params, fit.loglik, fit.gradient_norm, *fit.standard_errors])
    return floats.tobytes(), fit.iterations, fit.evaluations, fit.halvings, fit.fallback_steps


def _separated_dataset(rng, n, J, p):
    # the mediator, and the top outcome level, split exactly at x = 0 with
    # tiny margins
    x = np.concatenate([np.linspace(-0.001, -0.0001, n // 2), np.linspace(0.0001, 0.001, n - n // 2)])
    y = np.where(x > 0, J, np.arange(n) % (J - 1) + 1)
    return _dataset(x, (x > 0).astype(np.int64), y, J, rng.normal(size=(n, p)))


def _rank_deficient_dataset(rng, n, J, p):
    # constant exposure: (1, x) and (1, x, m, x*m) are collinear
    return _dataset(np.full(n, 2.0), rng.integers(0, 2, n), np.arange(n) % J + 1, J, rng.normal(size=(n, p)))


class TestStackInvariance:
    def test_stacked_fits_equal_single_fits_bitwise(self, rng):
        # random stacks of 2-40 problems with a separated and a
        # rank-deficient problem in the middle: every problem gets exactly
        # the result, or the error class, of fitting it alone
        classes = set()
        for trial in range(8):
            S = int(rng.integers(2, 41))
            J = int(rng.integers(2, 7))
            p = int(rng.integers(0, 3))
            n = int(rng.integers(60, 161))
            datasets = []
            for s in range(S):
                mediator, outcome = random_model_pair(rng, J=J, p=p)
                datasets.append(simulate_dataset(SimulationDesign(
                    n=n, mean_x=0.0, sd_x=1.0, mediator=mediator, outcome=outcome,
                    seed=1000 * trial + s, cov_means=(0.0,) * p, cov_sds=(1.0,) * p,
                )))
            middle = S // 2
            datasets[middle] = _separated_dataset(rng, n, J, p)
            datasets.insert(middle + 1, _rank_deficient_dataset(rng, n, J, p))
            stack = _Stack.of(datasets)
            for stacked, fit in ((_fit_mediators(stack), fit_mediator), (_fit_outcomes(stack), fit_outcome)):
                assert len(stacked) == len(datasets)
                for data, got in zip(datasets, stacked):
                    try:
                        alone = fit(data)
                    except (DegenerateDataError, ConvergenceError) as exc:
                        assert type(got) is type(exc)
                        classes.add(type(exc))
                        continue
                    assert _bits(got) == _bits(alone)
        assert {SeparationError, DegenerateDataError} <= classes

    def test_each_problem_reports_its_first_error(self):
        # a check or a fit records an error only for a problem without one,
        # so each problem of a stack fails with what fit_mediator, and then
        # fit_outcome, raises first on it alone
        x = np.linspace(0.0, 1.0, 60)
        m = np.arange(60) % 2
        y = np.arange(60) % 3 + 1
        x_m = np.where(m == 1, 1.0, 2.0 * x)  # x*m == m: the outcome design is rank-deficient
        datasets = [
            _dataset(x, np.zeros(60), np.minimum(y, 2), J=3),  # single mediator value, level 3 missing
            _dataset(np.full(60, 2.0), np.ones(60), y, J=3),  # single mediator value, both designs rank-deficient
            _dataset(np.full(60, 2.0), m, np.minimum(y, 2), J=3),  # mediator rank-deficient, level 3 missing
            _dataset(x_m, m, np.minimum(y, 2), J=3),  # level 3 missing, outcome rank-deficient
            _dataset(x_m, m, y, J=3),
            _dataset(x, m, y, J=3),
        ]
        _, _, errors = _fit_pairs(_Stack.of(datasets))
        for data, error in zip(datasets, errors):
            try:
                fit_mediator(data)
                fit_outcome(data)
            except (DegenerateDataError, ConvergenceError) as exc:
                assert f"{type(error).__name__}: {error}" == f"{type(exc).__name__}: {exc}"
            else:
                assert error is None
        assert ["single value" in str(e) for e in errors[:3]] == [True, True, False]
        assert "never observed" in str(errors[3]) and "rank-deficient" in str(errors[4])
        assert errors[5] is None


class TestRankChecksAndStarts:
    """One SVD of the outcome design decides both fits' rank checks, and both
    fits start from least-squares fits to the data."""

    def test_one_svd_decides_both_rank_checks(self, rng, monkeypatch):
        # a full-rank (1, x, m, x*m) has a full-rank (1, x), so (1, x) is
        # decomposed only where (1, x, m, x*m) is rank-deficient; errors and
        # messages are those of the single fits, the mediator's first.  Both
        # deficient datasets repeat records, so each is fitted apart, on its
        # 6 and 43 distinct records padded to 7 and 56
        regular = [_sim(80, seed) for seed in range(6)]
        x = rng.normal(1.0, 1.0, 80)
        m = np.arange(80) % 2
        y = np.arange(80) % 3 + 1
        only_outcome = _dataset(np.where(m == 1, 1.0, x), m, y, J=3)  # x*m == m
        both = _dataset(np.full(80, 2.0), m, y, J=3)  # constant x
        datasets = regular[:2] + [only_outcome] + regular[2:4] + [both] + regular[4:]
        shapes = []
        matrix_rank = np.linalg.matrix_rank
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda a: shapes.append(a.shape) or matrix_rank(a))
        _, _, errors = _fit_pairs(_Stack.of(datasets))
        assert shapes == [(1, 7, 4), (1, 7, 2), (1, 56, 4), (1, 56, 2), (6, 80, 4)]
        for data, error in zip(datasets, errors):
            try:
                fit_mediator(data)
                fit_outcome(data)
            except DegenerateDataError as exc:
                assert f"{type(error).__name__}: {error}" == f"{type(exc).__name__}: {exc}"
            else:
                assert error is None
        assert [i for i, error in enumerate(errors) if error is not None] == [2, 5]
        assert "outcome design matrix" in str(errors[2]) and "mediator design matrix" in str(errors[5])
        shapes.clear()
        _fit_pairs(_Stack.of(regular))
        assert shapes == [(6, 80, 4)]

    def test_singular_start_solve_falls_back_per_problem(self, rng, monkeypatch):
        # a covariate equal to x plus 1e-9 noise passes the SVD check, but
        # both start Gram matrices are singular to working precision.  Whether
        # LAPACK's pivot then meets an exact zero depends on the BLAS kernel,
        # so np.linalg.solve is replaced by one that raises, as LAPACK does on
        # a zero pivot, for every stack that holds either Gram matrix: the
        # stacked solve raises, that problem starts from the plain start (zero
        # slopes), and the regular problems keep bitwise their single fits
        regular = []
        for seed in range(4):
            mediator, outcome = random_model_pair(rng, J=3, p=1)
            regular.append(simulate_dataset(SimulationDesign(
                n=200, mean_x=0.0, sd_x=1.0, mediator=mediator, outcome=outcome, seed=seed,
                cov_means=(0.0,), cov_sds=(1.0,),
            )))
        noise = np.random.default_rng(4)
        x = noise.normal(0.0, 1.0, 200)
        m = (noise.random(200) < expit(0.5 * x)).astype(np.int64)
        y = 1 + (noise.random(200) < 0.4) + (noise.random(200) < 0.3)
        collinear = _dataset(x, m, y, 3, (x + 1e-9 * noise.normal(size=200))[:, None])
        _, gram, deficient, _ = ordmed.estimation._designs(_Stack.of([collinear]))
        assert not deficient[0]
        blocks = (gram[0][[0, 1, 4]][:, [0, 1, 4]], gram[0])  # (1, x, c), then (1, x, m, x*m, c)
        assert min(np.linalg.cond(block) for block in blocks) > 1e14  # 5e15 or more under three BLAS kernels
        singular = {block.tobytes() for block in blocks}
        solve = np.linalg.solve

        def zero_pivot_solve(a, b):
            if any(block.tobytes() in singular for block in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        starts, fallbacks = [], []
        least_squares, solved_or_nan = ordmed.estimation._least_squares, ordmed.estimation._solved_or_nan

        def recorded_starts(errors, gram, rhs):
            fallbacks.clear()
            starts.append((least_squares(errors, gram, rhs), fallbacks[:]))
            return starts[-1][0]

        def recorded_fallback(a, b):
            fallbacks.append(a.tobytes() in singular)
            return solved_or_nan(a, b)

        monkeypatch.setattr(np.linalg, "solve", zero_pivot_solve)
        monkeypatch.setattr(ordmed.estimation, "_least_squares", recorded_starts)
        monkeypatch.setattr(ordmed.estimation, "_solved_or_nan", recorded_fallback)
        datasets = regular[:2] + [collinear] + regular[2:]
        stack = _Stack.of(datasets)
        for solve_stack, fit in ((_fit_mediators, fit_mediator), (_fit_outcomes, fit_outcome)):
            starts.clear()
            stacked = solve_stack(stack)
            # each problem of the stacked start solve was solved alone, and
            # only the collinear one found singular, which starts from zero
            ((start, fallen_back),) = starts
            assert fallen_back == [False, False, True, False, False]
            assert not start[2].any() and np.isfinite(start).all() and start[[0, 1, 3, 4]].all()
            # from the plain start, as before the data-driven starts, both
            # fits of the collinear problem end in a diverging parameter norm
            assert isinstance(stacked[2], SeparationError)
            for data, got in zip(datasets, stacked):
                try:
                    alone = fit(data)
                except (DegenerateDataError, ConvergenceError) as exc:
                    assert f"{type(got).__name__}: {got}" == f"{type(exc).__name__}: {exc}"
                    continue
                assert _bits(got) == _bits(alone)
        assert all(error is None for i, error in enumerate(_fit_pairs(stack)[2]) if i != 2)

    def test_starts_are_the_least_squares_fits(self, rng, monkeypatch):
        # the mediator starts at glm's first IRLS step from mu = (m + 1/2)/2,
        # the outcome at the regression of each record's logit of its level's
        # mid-cumulative marginal frequency on (1, W), thresholds shifted by
        # mean(W) beta; checked against lstsq on a J=4 design with covariates
        mediator, outcome = random_model_pair(rng, J=4, p=2)
        data = simulate_dataset(SimulationDesign(
            n=300, mean_x=0.0, sd_x=1.0, mediator=mediator, outcome=outcome, seed=8,
            cov_means=(0.0, 0.0), cov_sds=(1.0, 1.0),
        ))
        starts = []
        newton = ordmed.estimation._newton_maximize
        monkeypatch.setattr(ordmed.estimation, "_newton_maximize",
                            lambda fun, theta0, *rest: starts.append(theta0[0].copy()) or newton(fun, theta0, *rest))
        fit_mediator(data)
        fit_outcome(data)
        def logit(p):
            return np.log(p / (1.0 - p))

        mu = (data.m + 0.5) / 2.0
        Z = np.column_stack([np.ones(data.n), data.x, data.covariates])
        expected = np.linalg.lstsq(Z, logit(mu) + (data.m - mu) / (mu * (1.0 - mu)), rcond=None)[0]
        np.testing.assert_allclose(starts[0], expected, rtol=1e-10, atol=1e-12)
        F = np.concatenate([[0.0], np.cumsum(np.bincount(data.y, minlength=5)[1:]) / data.n])
        W = _outcome_design(data)
        coef = np.linalg.lstsq(np.column_stack([np.ones(data.n), W]), logit((F[data.y - 1] + F[data.y]) / 2.0),
                               rcond=None)[0]
        expected = np.concatenate([logit(F[1:4]) + W.mean(axis=0) @ coef[1:], coef[1:]])
        np.testing.assert_allclose(starts[1], expected, rtol=1e-10, atol=1e-12)


class TestFitMediator:
    def test_symmetric_cells_give_zero(self):
        data = _dataset([0, 0, 1, 1], [0, 1, 0, 1], [1, 2, 1, 2], J=2)
        fit = fit_mediator(data)
        assert fit.model.gamma0 == pytest.approx(0.0, abs=1e-6)
        assert fit.model.gammaX == pytest.approx(0.0, abs=1e-6)
        assert fit.gradient_norm <= 1e-8

    def test_two_cell_closed_form(self):
        # 3/10 successes at x=0, 7/10 at x=1: the saturated logit is explicit
        x = np.repeat([0.0, 1.0], 10)
        m = np.concatenate([np.repeat([0, 1], [7, 3]), np.repeat([0, 1], [3, 7])])
        y = np.tile([1, 2], 10)
        fit = fit_mediator(_dataset(x, m, y, J=2))
        assert fit.model.gamma0 == pytest.approx(math.log(3 / 7), abs=1e-6)
        assert fit.model.gammaX == pytest.approx(math.log(7 / 3) - math.log(3 / 7), abs=1e-6)

    def test_recovers_generating_values_within_three_se(self):
        hits = 0
        for r in range(200):
            data = _sim(500, seed=replicate_seed(555, r))
            fit = fit_mediator(data)
            est = np.array([fit.model.gamma0, fit.model.gammaX])
            se = np.array(fit.standard_errors)
            assert np.all(se > 0)
            hits += int(np.all(np.abs(est - [-1.0, 0.5]) <= 3 * se))
        assert hits / 200 >= 0.99

    def test_single_mediator_value_rejected(self):
        data = _dataset([0.0, 1.0, 2.0], [1, 1, 1], [1, 2, 1], J=2)
        with pytest.raises(DegenerateDataError):
            fit_mediator(data)

    def test_rank_deficient_design_rejected(self):
        data = _dataset([2.0, 2.0, 2.0, 2.0], [0, 1, 0, 1], [1, 2, 1, 2], J=2)
        with pytest.raises(DegenerateDataError, match="rank"):
            fit_mediator(data)

    @pytest.mark.parametrize("which", ["j3", "sparse-j5"])
    def test_record_order_invariance(self, which):
        # the fit of every row permutation agrees with the original fit to
        # 1e-10 relative, after the same number of likelihood evaluations
        if which == "j3":
            data = _sim(500, seed=1)
        else:
            data = simulate_dataset(SimulationDesign(
                n=300, mean_x=3.0, sd_x=1.3, mediator=SPARSE_MEDIATOR, outcome=SPARSE_OUTCOME, seed=4242,
            ))
        fit = fit_mediator(data)

        @settings(max_examples=50, deadline=None)
        @given(st.permutations(range(data.n)))
        def check(perm):
            permuted = fit_mediator(data.subset(perm))
            assert [permuted.model.gamma0, permuted.model.gammaX] == pytest.approx(
                [fit.model.gamma0, fit.model.gammaX], rel=1e-10, abs=0.0)
            assert permuted.evaluations == fit.evaluations

        check()

    def test_complete_separation_diagnosed(self):
        # tiny margins force the diverging-norm diagnostic before the
        # gradient can die out
        x = np.concatenate([np.linspace(-0.001, -0.0001, 20), np.linspace(0.0001, 0.001, 20)])
        m = (x > 0).astype(np.int64)
        data = _dataset(x, m, np.tile([1, 2], 20), J=2)
        with pytest.raises(SeparationError):
            fit_mediator(data)


class TestFitOutcome:
    def test_binary_outcome_equals_logistic_regression(self):
        # J=2 cumulative logit == logistic regression of I(Y=2) on (x, m, xm),
        # with alpha_1 = -intercept; reuse the Bernoulli fitter as the oracle
        data = _sim(300, seed=21)
        J2 = Dataset(data.x, data.m, np.where(data.y >= 2, 2, 1).astype(np.int64),
                     data.covariates, 2, 0)
        fit = fit_outcome(J2)

        logistic_data = Dataset(
            J2.x,
            (J2.y == 2).astype(np.int64),
            np.ones(J2.n, dtype=np.int64),
            np.column_stack([J2.m.astype(float), J2.x * J2.m]),
            2,
            2,
        )
        oracle = fit_mediator(logistic_data)
        assert fit.model.alpha[0] == pytest.approx(-oracle.model.gamma0, abs=1e-6)
        assert fit.model.betaX == pytest.approx(oracle.model.gammaX, abs=1e-6)
        assert fit.model.betaM == pytest.approx(oracle.model.gammaC[0], abs=1e-6)
        assert fit.model.betaXM == pytest.approx(oracle.model.gammaC[1], abs=1e-6)
        assert fit.standard_errors == pytest.approx(
            (oracle.standard_errors[0], oracle.standard_errors[1],
             oracle.standard_errors[2], oracle.standard_errors[3]),
            rel=1e-5,
        )

    def test_small_dataset_matches_generic_optimizer(self):
        # independent maximizer of the same likelihood (Nelder-Mead over the
        # same unconstrained threshold parameterization)
        data = _sim(30, seed=77)
        fit = fit_outcome(data)

        def negll(phi):
            alpha = (phi[0], phi[0] + math.exp(phi[1]))
            return -loglik_outcome(OutcomeModel(alpha, phi[2], phi[3], phi[4]), data)

        start = np.array([0.0, 0.5, 0.0, 0.0, 0.0])
        res = minimize(negll, start, method="Nelder-Mead",
                       options=dict(xatol=1e-10, fatol=1e-12, maxiter=50000, maxfev=50000))
        oracle = np.array([res.x[0], res.x[0] + math.exp(res.x[1]), res.x[2], res.x[3], res.x[4]])
        ours = np.array([*fit.model.alpha, fit.model.betaX, fit.model.betaM, fit.model.betaXM])
        assert np.max(np.abs(ours - oracle)) < 1e-4
        assert fit.loglik >= -res.fun - 1e-9

    def test_fitted_loglik_beats_generating_parameters(self):
        for seed in (1, 2, 3):
            data = _sim(200, seed=seed)
            fit_o = fit_outcome(data)
            fit_m = fit_mediator(data)
            assert fit_o.loglik >= loglik_outcome(J3_OUTCOME, data)
            assert fit_m.loglik >= loglik_mediator(J3_MEDIATOR, data)

    def test_slight_upward_bias_in_exposure_slope(self):
        # over 200 replicates of the J=3 study the exposure slope averages
        # just above its generating value
        estimates = []
        for r in range(200):
            data = _sim(500, seed=replicate_seed(555, r))
            estimates.append(fit_outcome(data).model.betaX)
        mean = float(np.mean(estimates))
        assert mean >= 1.1
        assert mean == pytest.approx(1.1, abs=0.05)

    @pytest.mark.parametrize("which", ["j3", "sparse-j5-covariate"])
    def test_standard_errors_match_finite_difference_information(self, which):
        # J >= 3: standard errors equal sqrt(diag(inv(-H))) with H the
        # step-1e-6 central difference of the score in (alpha, beta) at the
        # fitted model
        if which == "j3":
            data = _sim(500, seed=1)
        else:
            data = simulate_dataset(SimulationDesign(
                n=300, mean_x=3.0, sd_x=1.3,
                mediator=MediatorModel(SPARSE_MEDIATOR.gamma0, SPARSE_MEDIATOR.gammaX, (0.4,)),
                outcome=OutcomeModel(SPARSE_OUTCOME.alpha, SPARSE_OUTCOME.betaX, SPARSE_OUTCOME.betaM,
                                     SPARSE_OUTCOME.betaXM, (-0.6,)),
                seed=4242, cov_means=(0.0,), cov_sds=(1.0,),
            ))
        fit = fit_outcome(data)
        J = data.J
        model = fit.model
        theta = np.array([*model.alpha, model.betaX, model.betaM, model.betaXM, *model.betaC])
        step = 1e-6
        hess = np.empty((theta.size, theta.size))
        for i in range(theta.size):
            bump = np.zeros(theta.size)
            bump[i] = step
            hess[:, i] = (
                outcome_loglik_gradient(_outcome_model(theta + bump, J), data)
                - outcome_loglik_gradient(_outcome_model(theta - bump, J), data)
            ) / (2 * step)
        expected = np.sqrt(np.diag(np.linalg.inv(-hess)))
        assert len(fit.standard_errors) == theta.size
        assert np.asarray(fit.standard_errors) == pytest.approx(expected, rel=1e-5)

    def test_threshold_ordering_strict_at_optimum(self):
        for seed in (5, 6, 7, 8):
            fit = fit_outcome(_sim(150, seed=seed))
            assert all(a < b for a, b in zip(fit.model.alpha, fit.model.alpha[1:]))

    @pytest.mark.parametrize("which", ["j3", "sparse-j5"])
    def test_record_order_invariance(self, which):
        # the fit of every row permutation agrees with the original fit to
        # 1e-10 relative, after the same number of likelihood evaluations
        if which == "j3":
            data = _sim(500, seed=1)
        else:
            data = simulate_dataset(SimulationDesign(
                n=300, mean_x=3.0, sd_x=1.3, mediator=SPARSE_MEDIATOR, outcome=SPARSE_OUTCOME, seed=4242,
            ))
        fit = fit_outcome(data)

        def parameters(model):
            return [*model.alpha, model.betaX, model.betaM, model.betaXM]

        @settings(max_examples=50, deadline=None)
        @given(st.permutations(range(data.n)))
        def check(perm):
            permuted = fit_outcome(data.subset(perm))
            assert parameters(permuted.model) == pytest.approx(parameters(fit.model), rel=1e-10, abs=0.0)
            assert permuted.evaluations == fit.evaluations

        check()

    def test_missing_category_aborts_with_level_name(self):
        data = _dataset([0.1, 0.2, 0.3, 0.4], [0, 1, 0, 1], [1, 1, 3, 3], J=3)
        with pytest.raises(DegenerateDataError, match="2"):
            fit_outcome(data)

    def test_missing_level_list_is_bounded(self):
        data = _dataset(np.linspace(0, 1, 45), np.arange(45) % 2, np.arange(45) % 3 + 1, J=40)
        with pytest.raises(DegenerateDataError, match=r"level\(s\) 4, 5, .*, 13 and 27 more never observed"):
            fit_outcome(data)

    def test_more_levels_than_records_fail_every_problem_at_once(self):
        # J = 10**6 on 6 records: one short error, before any per-level array
        data = _dataset([0.1, 0.4, 0.9, 1.3, 0.6, 1.9], [0, 1, 0, 1, 0, 1], [1, 2, 2, 1, 2, 1], J=10**6)
        with pytest.raises(DegenerateDataError, match="only 6 records") as err:
            fit_outcome(data)
        assert len(str(err.value)) < 200
        errors = _fit_outcomes(_Stack.of([data, data]))
        assert all(isinstance(e, DegenerateDataError) for e in errors)

    @pytest.mark.parametrize("J", [2**40, 2**63 - 1])
    def test_more_levels_than_memory_fail_as_too_few_records(self, J):
        # the failed record takes no J-wide row: no MemoryError, no numpy dimension error
        data = _dataset([0.1, 0.5, 0.9], [0, 1, 0], [1, 2, 1], J=J)
        with pytest.raises(DegenerateDataError, match=f"{J} outcome levels but only 3 records"):
            fit_outcome(data)
        errors = _fit_outcomes(_Stack.of([data] * 3))
        assert all(isinstance(e, DegenerateDataError) for e in errors)

    def test_covariate_fit_recovers(self):
        mediator = MediatorModel(-1.0, 0.5, (0.4,))
        outcome = OutcomeModel((2.5, 5.5), 1.1, 0.7, 0.5, (-0.6,))
        design = SimulationDesign(n=4000, mean_x=3.0, sd_x=1.5, mediator=mediator,
                                  outcome=outcome, seed=13, cov_means=(0.0,), cov_sds=(1.0,))
        data = simulate_dataset(design)
        fit_m = fit_mediator(data)
        fit_o = fit_outcome(data)
        assert fit_m.model.gammaC[0] == pytest.approx(0.4, abs=4 * fit_m.standard_errors[2])
        assert fit_o.model.betaC[0] == pytest.approx(-0.6, abs=4 * fit_o.standard_errors[-1])


class TestFitResultContract:
    def test_converged_fits_meet_gradient_tolerance(self):
        for seed in (31, 32, 33):
            data = _sim(250, seed=seed)
            for fit in (fit_mediator(data), fit_outcome(data)):
                assert fit.gradient_norm <= 1e-8
                assert fit.iterations <= 100
                assert all(se > 0 for se in fit.standard_errors)

    def test_parameter_labels_align(self):
        data = _sim(100, seed=41)
        fit_m = fit_mediator(data)
        fit_o = fit_outcome(data)
        assert parameter_labels(fit_m.model) == ("gamma0", "gammaX")
        assert parameter_labels(fit_o.model) == ("alpha1", "alpha2", "betaX", "betaM", "betaXM")
        assert len(fit_o.standard_errors) == 5


class TestOutputsWithoutRepeatsPinned:
    """Data without a repeated record are fitted record by record, in their
    own order and with unit weights, so their fits, Monte Carlo studies and
    simulated data are pinned here as SHA-256 digests of their bytes."""

    @staticmethod
    def _digest(*parts):
        h = hashlib.sha256()
        for part in parts:
            h.update(part if isinstance(part, bytes) else repr(part).encode())
        return h.hexdigest()

    def test_reference_fits_and_simulated_data(self):
        sparse = SimulationDesign(n=300, mean_x=3.0, sd_x=1.3, mediator=SPARSE_MEDIATOR, outcome=SPARSE_OUTCOME,
                                  seed=4242)
        j3 = SimulationDesign(n=500, mean_x=3.0, sd_x=1.5, mediator=J3_MEDIATOR, outcome=J3_OUTCOME, seed=1)
        digests = []
        for design in (j3, sparse):
            data = simulate_dataset(design)
            assert len(np.unique(data.x)) == data.n  # no repeated record
            digests.append(self._digest(*(getattr(data, f).tobytes() for f in ("x", "m", "y", "covariates"))))
            digests.append(self._digest(*_bits(fit_mediator(data)), *_bits(fit_outcome(data))))
        assert digests == [
            "dad56748712021e5db087363ee847533b96fc9e53e6ed6ad1d62839c2cbfd689",
            "b4aea6ca92631cb6009848cc869bd5bf22f941ff90b381af9ed1c25caf866121",
            "4aedc31b7b43faed319384e939968f0dad1d817d13075afcb3ae6f09b6c2ce81",
            "6986ab5f4383164fd120e1f82d584b4bf61966e9ac94ad3dd606b0cb8d8ef27b",
        ]

    def test_j3_monte_carlo_study(self):
        design = SimulationDesign(n=500, mean_x=3.0, sd_x=1.5, mediator=J3_MEDIATOR, outcome=J3_OUTCOME, seed=1)
        summary = monte_carlo_study(design, 200, EffectQuery(X_ACTIVE, X_BASELINE))
        digest = self._digest(summary.estimates.tobytes(), summary.mean.tobytes(), summary.sd.tobytes(),
                              summary.replicate_ids, summary.failed_replicates)
        assert digest == "0153562eae9a0a35370e2971ab2403f4b5caf502ee57835383eda44189e993f8"
