"""Maximum-likelihood fitting: closed-form checks, independent-optimizer
oracles, gradient/finite-difference agreement, the likelihood kernel against
a per-category reference and an mpmath oracle, evaluation-count guards, and
failure diagnostics."""

import math
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
    MediatorModel,
    OutcomeModel,
    SeparationError,
    SimulationDesign,
    fit_mediator,
    fit_outcome,
    loglik_mediator,
    loglik_outcome,
    mediator_loglik_gradient,
    outcome_loglik_gradient,
    parameter_labels,
    replicate_seed,
    simulate_dataset,
)
from ordmed.estimation import (
    _MAX_HALVINGS,
    _MAX_ITERATIONS,
    _fit_mediators,
    _fit_outcomes,
    _fit_pairs,
    _newton_maximize,
    _outcome_design,
    _proportional_odds_parts,
    _Stack,
    _standard_errors,
)
from ordmed.inference import _BOOTSTRAP_DOMAIN
from ordmed.numerics import expit, keyed_stream

from conftest import J3_MEDIATOR, J3_OUTCOME, SPARSE_MEDIATOR, SPARSE_OUTCOME, random_model_pair


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
    ll, grad, hess, _ = _proportional_odds_parts(alpha[None], beta[None], W[None], y[None], J)
    return ll[0], grad[0], hess[0]


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
        # ok = False and ll = -inf, which is what keeps an unconstrained fit
        # of the thresholds ordered
        for J in (3, 4, 5, 6):
            S, n = 12, 40
            cases = [_kernel_case(rng, J, n, p=1) for _ in range(S)]
            alpha, beta, W, y = (np.stack(arrays) for arrays in zip(*cases))
            y[:, :J] = np.arange(1, J + 1)
            ll, grad, hess, ok = _proportional_odds_parts(alpha, beta, W, y, J)
            assert ok.all() and np.isfinite(ll).all()

            broken = np.zeros(S, dtype=bool)
            broken[rng.choice(S, 5, replace=False)] = True
            bad = alpha.copy()
            for s in np.flatnonzero(broken):
                j = int(rng.integers(0, J - 2))
                if s % 2:
                    bad[s, [j, j + 1]] = bad[s, [j + 1, j]]
                else:
                    bad[s, j + 1] = bad[s, j]
            ll2, grad2, hess2, ok2 = _proportional_odds_parts(bad, beta, W, y, J)
            assert np.array_equal(ok2, ~broken)
            assert np.all(ll2[broken] == -np.inf)
            assert not grad2[broken].any() and not hess2[broken].any()
            kept = ~broken
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

        def log_cosh(theta):
            t = theta[:, 0]
            return (-np.log(np.cosh(t)), -np.tanh(t)[:, None], (-1.0 / np.cosh(t) ** 2)[:, None, None],
                    np.ones(t.size, dtype=bool))

        theta, _, ((_, gnorm, overshoot),) = _newton_maximize(log_cosh, np.array([[1.5]]), (), "test problem")
        assert gnorm <= 1e-8 and abs(theta[0, 0]) <= 1e-8
        counts.append(overshoot)
        for iterations, evaluations, halvings, fallback_steps in counts:
            assert evaluations == 1 + iterations + halvings
            assert fallback_steps == 0
        assert sum(halvings for _, _, halvings, _ in counts) > 0

    def test_damped_gradient_directions_are_counted(self):
        # maximize -log(1 + t^2): the Hessian is positive for |t| > 1, so a
        # start at t = 2 needs damped gradient steps before Newton takes over
        def fun(theta):
            t = theta[:, 0]
            hess = (-2.0 * (1.0 - t * t) / (1.0 + t * t) ** 2)[:, None, None]
            return -np.log1p(t * t), (-2.0 * t / (1.0 + t * t))[:, None], hess, np.ones(t.size, dtype=bool)

        theta, _, (far, near) = _newton_maximize(fun, np.array([[2.0], [0.5]]), (), "test problem")
        assert np.all(np.abs(theta) <= 1e-8)
        for _, _, (iterations, evaluations, halvings, damped) in (far, near):
            assert evaluations == 1 + iterations + halvings
        assert far[2][3] >= 1
        assert near[2][3] == 0


def _quadratic(theta, w):
    # maximize -(t - 1)^2 - w (u - 2)^2: Newton's first step is exact for
    # w > 0; for w = 0 the Hessian is singular everywhere and u is not identified
    t, u = theta[:, 0] - 1.0, theta[:, 1] - 2.0
    hess = np.zeros((w.size, 2, 2))
    hess[:, 0, 0] = -2.0
    hess[:, 1, 1] = -2.0 * w
    return -(t * t) - w * u * u, np.stack([-2.0 * t, -2.0 * w * u], axis=1), hess, np.ones(w.size, dtype=bool)


def _counted(fun, calls):
    # fun, recording the number of problems of every call: an error exit
    # returns no counts, so a one-problem stack's evaluations are its calls
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
        theta, hess, (singular, regular) = _newton_maximize(
            _quadratic, np.zeros((2, 2)), (np.array([0.0, 1.0]),), "test problem")
        assert 1 in fallbacks  # the stacked Newton solve raised LinAlgError
        alone_theta, alone_hess, (alone,) = _newton_maximize(
            _quadratic, np.zeros((1, 2)), (np.array([1.0]),), "test problem")
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
        def fun(theta, kind):
            t = theta[:, 0]
            ll = np.where(kind == 0, -np.log(np.cosh(t)), np.where(kind == 1, -np.log1p(t * t), -(t - 1.0) ** 2))
            grad = np.where(kind == 0, -np.tanh(t), np.where(kind == 1, -2.0 * t / (1.0 + t * t), -2.0 * (t - 1.0)))
            hess = np.where(kind == 0, -1.0 / np.cosh(t) ** 2,
                            np.where(kind == 1, -2.0 * (1.0 - t * t) / (1.0 + t * t) ** 2, -2.0))
            return ll, grad[:, None], hess[:, None, None], np.ones(t.size, dtype=bool)

        theta0 = np.array([[1.5], [2.0], [1.5], [0.0], [1.0]])
        kind = np.array([0, 1, 1, 2, 2])
        theta, hess, outcomes = _newton_maximize(fun, theta0, (kind,), "test problem")
        for s in range(len(kind)):
            alone_theta, alone_hess, (alone,) = _newton_maximize(fun, theta0[s:s + 1], (kind[s:s + 1],),
                                                                  "test problem")
            assert outcomes[s] == alone
            assert theta[s].tobytes() == alone_theta[0].tobytes()
            assert hess[s].tobytes() == alone_hess[0].tobytes()
        counts = [outcome[2] for outcome in outcomes]
        assert counts[3] == (1, 2, 0, 0) and counts[4] == (0, 1, 0, 0)
        assert sum(halvings for _, _, halvings, _ in counts) > 0
        assert sum(damped for _, _, _, damped in counts) > 0

    def test_non_finite_start_fails_only_its_problem(self):
        def fun(theta, w):
            ll, grad, hess, ok = _quadratic(theta, np.ones_like(w))
            return np.where(w > 0, ll, -np.inf), grad, hess, ok

        calls = []
        theta, _, (bad, good) = _newton_maximize(_counted(fun, calls), np.zeros((2, 2)),
                                                 (np.array([0.0, 1.0]),), "test problem")
        assert isinstance(bad, ConvergenceError) and "starting values" in str(bad)
        assert calls == [2, 1]  # the failed problem is evaluated once: 1 + 0 + 0
        _, _, (alone,) = _newton_maximize(_quadratic, np.zeros((1, 2)), (np.array([1.0]),), "test problem")
        assert good == alone
        assert good[2][1] == 1 + good[2][0] + good[2][2]

    def test_iteration_limit(self):
        # log-likelihood t rises without bound, and a positive curvature
        # sends every step down the damped gradient
        def fun(theta):
            S = theta.shape[0]
            return theta[:, 0].copy(), np.ones((S, 1)), np.ones((S, 1, 1)), np.ones(S, dtype=bool)

        calls = []
        _, _, (outcome,) = _newton_maximize(_counted(fun, calls), np.zeros((1, 1)), (), "test problem")
        assert isinstance(outcome, ConvergenceError)
        assert f"no convergence after {_MAX_ITERATIONS} iterations" in str(outcome)
        assert len(calls) == 1 + _MAX_ITERATIONS + 0  # every step accepted

    def test_stop_when_every_halving_is_rejected(self):
        # a flat log-likelihood whose gradient never falls: no candidate
        # is accepted, and the fit ends where it started
        def fun(theta):
            S = theta.shape[0]
            return np.zeros(S), np.ones((S, 1)), -np.ones((S, 1, 1)), np.ones(S, dtype=bool)

        calls = []
        theta, _, (outcome,) = _newton_maximize(_counted(fun, calls), np.zeros((1, 1)), (), "test problem")
        assert outcome == (0.0, 1.0, (0, _MAX_HALVINGS + 2, _MAX_HALVINGS + 1, 0))
        assert len(calls) == 1 + 0 + _MAX_HALVINGS + 1
        assert theta[0, 0] == 0.0


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
        # messages are those of the single fits, the mediator's first
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
        assert shapes == [(8, 80, 4), (2, 80, 2)]
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

    def test_singular_start_solve_falls_back_per_problem(self, rng):
        # a covariate equal to x plus 1e-9 noise passes the SVD check, but
        # both start Gram matrices are singular to working precision and
        # the stacked solve raises: that problem starts from the plain start
        # (zero slopes), and the regular problems keep bitwise their single
        # fits
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
        _, gram, deficient = ordmed.estimation._designs(_Stack.of([collinear]))
        assert not deficient[0]
        for block in (gram[:, [0, 1, 4]][:, :, [0, 1, 4]], gram):  # (1, x, c), then (1, x, m, x*m, c)
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(block, np.ones(block.shape[:2])[:, :, None])
        datasets = regular[:2] + [collinear] + regular[2:]
        stack = _Stack.of(datasets)
        for stacked, fit in ((_fit_mediators(stack), fit_mediator), (_fit_outcomes(stack), fit_outcome)):
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
