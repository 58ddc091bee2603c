"""Closed-form effect engine: g-functions, marginal/counterfactual logits,
per-level effects, and the published reference tables.

Constants marked oracle-frozen come from a 40-digit mpmath transcription of
the same formulas (revalidated in test_frozen_constants_match_oracle);
3-decimal table values are the published study references.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

import ordmed
from ordmed import (
    ConsistencyError,
    DimensionError,
    EffectQuery,
    MediatorModel,
    ModelSpecError,
    OutcomeModel,
    category_probabilities,
    counterfactual_cumulative_logit,
    cumulative_probability,
    effect_labels,
    effect_table,
    log_cde,
    log_nde,
    log_nie,
    log_tce,
    mediator_probability,
    plug_in_oracle,
)
from ordmed import effects
from ordmed.effects import _effect_rows
from ordmed.models import _parameters

from conftest import (
    J3_MEDIATOR,
    J3_OUTCOME,
    J5_MEDIATOR,
    J5_OUTCOME,
    SPARSE_MEDIATOR,
    SPARSE_OUTCOME,
    J3_TRUE_EFFECTS,
    J5_TRUE_EFFECTS,
    SPARSE_FITTED_EFFECTS,
    SPARSE_FITTED_MEDIATOR,
    SPARSE_FITTED_OUTCOME,
    SPARSE_TRUE_EFFECTS,
    X_ACTIVE,
    X_BASELINE,
    random_model_pair,
)

QUERY = EffectQuery(X_ACTIVE, X_BASELINE)

G_OBS_D0 = 0.95838435490899619  # oracle-frozen: g_0^1(3.5) under the J=3 setup
G_OBS_D1 = -1.4916156450910038
G_CROSS_D0 = 0.20838435490899619  # oracle-frozen: g_0^1(3.5, 2)
G_CROSS_D1 = -2.2416156450910038
LOG_RR_X35 = 1.080061502444925  # oracle-frozen: log RR correction at j=1, x=3.5
LOG_RR_X2 = 0.76361197258747978
MARGINAL_J1_X2 = -0.46361197258747978  # = 2.5 - 1.1*2 - LOG_RR_X2
COUNTERFACTUAL_J1 = -2.0517485288028282  # oracle-frozen: logit P(Y(3.5, M(2)) <= 1)


def _mp_g(d, j, x, xstar, alpha, bX, bM, bXM, g0, gX):
    log1pexp = lambda v: mpmath.log(1 + mpmath.exp(v))
    aj = alpha[j - 1]
    out = log1pexp(aj - bX * x) - log1pexp(aj - bX * x - (bM + bXM * x))
    return -d * (bM + bXM * x) + out + g0 + gX * xstar


def test_frozen_constants_match_oracle():
    mpmath.mp.dps = 40
    args = ([mpmath.mpf("2.5"), mpmath.mpf("5.5")], mpmath.mpf("1.1"), mpmath.mpf("0.7"),
            mpmath.mpf("0.5"), mpmath.mpf(-1), mpmath.mpf("0.5"))
    x, xs = mpmath.mpf("3.5"), mpmath.mpf(2)
    log1pexp = lambda v: mpmath.log(1 + mpmath.exp(v))
    assert float(_mp_g(0, 1, x, x, *args)) == pytest.approx(G_OBS_D0, abs=1e-15)
    assert float(_mp_g(1, 1, x, x, *args)) == pytest.approx(G_OBS_D1, abs=1e-15)
    assert float(_mp_g(0, 1, x, xs, *args)) == pytest.approx(G_CROSS_D0, abs=1e-15)
    assert float(_mp_g(1, 1, x, xs, *args)) == pytest.approx(G_CROSS_D1, abs=1e-15)
    rr35 = log1pexp(_mp_g(0, 1, x, x, *args)) - log1pexp(_mp_g(1, 1, x, x, *args))
    rr2 = log1pexp(_mp_g(0, 1, xs, xs, *args)) - log1pexp(_mp_g(1, 1, xs, xs, *args))
    assert float(rr35) == pytest.approx(LOG_RR_X35, abs=1e-15)
    assert float(rr2) == pytest.approx(LOG_RR_X2, abs=1e-15)
    assert float(mpmath.mpf("2.5") - mpmath.mpf("1.1") * 2 - rr2) == pytest.approx(
        MARGINAL_J1_X2, abs=1e-15
    )
    cross = log1pexp(_mp_g(0, 1, x, xs, *args)) - log1pexp(_mp_g(1, 1, x, xs, *args))
    assert float(mpmath.mpf("2.5") - mpmath.mpf("1.1") * x - cross) == pytest.approx(
        COUNTERFACTUAL_J1, abs=1e-15
    )


def test_public_api_is_pinned():
    # a public name is added or dropped only on purpose
    assert sorted(ordmed.__all__) == [
        "BootstrapResult", "ConsistencyError", "ConvergenceError", "DataValidationError", "Dataset",
        "DegenerateDataError", "DimensionError", "EffectQuery", "EffectTable", "FitResult",
        "MediationError", "MediatorModel", "ModelSpecError", "MonteCarloSummary", "OutcomeModel",
        "SeparationError", "SimulationDesign", "bootstrap_effects", "category_probabilities",
        "counterfactual_cumulative_logit", "cumulative_probability", "effect_labels", "effect_table",
        "fit_mediator", "fit_outcome", "log_cde", "log_nde", "log_nie", "log_tce", "loglik_mediator",
        "loglik_outcome", "mediator_loglik_gradient", "mediator_probability", "monte_carlo_study",
        "outcome_loglik_gradient", "parameter_labels", "percentile_interval", "plug_in_oracle",
        "quantile", "replicate_seed", "simulate_dataset", "validate_dataset",
    ]


class TestEffectQuery:
    @pytest.mark.parametrize("x, xstar, c", [
        (math.nan, 2.0, ()),
        (3.5, math.inf, ()),
        (3.5, 2.0, (1.0, -math.inf)),
        (3.5, 2.0, ("one",)),
        (3.5, 2.0, "12"),
        (3.5, 2.0, b"12"),
    ])
    def test_invalid_query_is_a_model_spec_error(self, x, xstar, c):
        # the same error class, and the same checks, as model construction;
        # the per-level functions apply them to their own query points and
        # name the argument at fault
        with pytest.raises(ModelSpecError):
            EffectQuery(x, xstar, c)
        name = "x" if math.isnan(x) else "xstar" if math.isinf(xstar) else "c"
        for point in (lambda: counterfactual_cumulative_logit(1, x, xstar, c, J3_MEDIATOR, J3_OUTCOME),
                      lambda: plug_in_oracle(1, x, xstar, c, J3_MEDIATOR, J3_OUTCOME)):
            with pytest.raises(ModelSpecError, match=fr"\b{name} must be"):
                point()
        # the one-exposure form, xstar = x, names its one exposure x
        exposure, named = (xstar, "x") if name == "xstar" else (x, name)
        with pytest.raises(ModelSpecError, match=fr"\b{named} must be"):
            counterfactual_cumulative_logit(1, exposure, exposure, c, J3_MEDIATOR, J3_OUTCOME)

    def test_values_are_stored_as_floats(self):
        q = EffectQuery(3, "2", (1,))
        assert (q.x, q.xstar, q.c) == (3.0, 2.0, (1.0,))
        assert all(type(v) is float for v in (q.x, q.xstar, *q.c))


def _terms(x, xstar, c, mediator, outcome):
    """The _mixture_terms arrays of one model pair at one exposure pair,
    each over the levels j = 1..J-1."""
    terms = effects._mixture_terms([x], [xstar], np.array(c, dtype=float), _parameters(mediator)[None],
                                   _parameters(outcome)[None])
    return {key: value[0, 0] for key, value in terms.items()}


class TestGFunctions:
    def test_g_observed_oracle_values(self):
        terms = _terms(3.5, 3.5, (), J3_MEDIATOR, J3_OUTCOME)
        assert terms["g0"][0] == pytest.approx(G_OBS_D0, abs=1e-12)
        assert terms["g1"][0] == pytest.approx(G_OBS_D1, abs=1e-12)

    def test_d_term_is_a_shift(self):
        terms = _terms(3.5, 3.5, (), J3_MEDIATOR, J3_OUTCOME)
        assert terms["g1"][0] == pytest.approx(terms["g0"][0] - (0.7 + 0.5 * 3.5), abs=1e-12)

    def test_d_irrelevant_without_mediator_effect(self):
        out = OutcomeModel((2.5, 5.5), 1.1, 0.0, 0.0)
        terms = _terms(1.7, 1.7, (), J3_MEDIATOR, out)
        for j in (1, 2):
            assert terms["g0"][j - 1] == terms["g1"][j - 1]

    def test_g_cross_oracle_values(self):
        terms = _terms(3.5, 2.0, (), J3_MEDIATOR, J3_OUTCOME)
        assert terms["g0"][0] == pytest.approx(G_CROSS_D0, abs=1e-12)
        assert terms["g1"][0] == pytest.approx(G_CROSS_D1, abs=1e-12)


class TestLogRRCorrection:
    def test_zero_without_mediator_effect(self):
        out = OutcomeModel((2.5, 5.5), 1.1, 0.0, 0.0)
        assert _terms(3.5, 3.5, (), J3_MEDIATOR, out)["log_rr"][0] == 0.0

    def test_oracle_values(self):
        assert _terms(3.5, 3.5, (), J3_MEDIATOR, J3_OUTCOME)["log_rr"][0] == pytest.approx(LOG_RR_X35, abs=1e-12)
        assert _terms(2.0, 2.0, (), J3_MEDIATOR, J3_OUTCOME)["log_rr"][0] == pytest.approx(LOG_RR_X2, abs=1e-12)

    def test_positive_when_mediator_raises_outcome(self, rng):
        for _ in range(50):
            med, out = random_model_pair(rng)
            x = rng.uniform(-2, 2)
            if out.betaM + out.betaXM * x > 0.01:
                assert _terms(x, x, (), med, out)["log_rr"][0] > 0.0


class TestMarginalLogit:
    def test_reduces_without_mediator_effect(self):
        out = OutcomeModel((2.5, 5.5), 1.1, 0.0, 0.0)
        assert counterfactual_cumulative_logit(1, 2.0, 2.0, (), J3_MEDIATOR, out) == pytest.approx(
            2.5 - 1.1 * 2.0, abs=1e-15
        )

    def test_oracle_value(self):
        assert counterfactual_cumulative_logit(1, 2.0, 2.0, (), J3_MEDIATOR, J3_OUTCOME) == pytest.approx(
            MARGINAL_J1_X2, abs=1e-12
        )

    def test_equals_direct_mixture_logit(self, rng):
        # brute-force marginalisation over m from the probability primitives;
        # the survival side sums upper category probabilities so the oracle
        # itself stays accurate at large logits
        for _ in range(1000):
            p = int(rng.integers(3))
            med, out = random_model_pair(rng, p=p)
            c = tuple(rng.uniform(-1, 1, size=p))
            j = int(rng.integers(1, out.J))
            x = rng.uniform(-3, 3)
            pm = mediator_probability(med, x, c)
            mix = (1 - pm) * cumulative_probability(out, j, x, 0, c) + pm * cumulative_probability(out, j, x, 1, c)
            upper = (1 - pm) * category_probabilities(out, x, 0, c)[j:].sum() + pm * category_probabilities(out, x, 1, c)[j:].sum()
            direct = math.log(mix) - math.log(upper)
            assert counterfactual_cumulative_logit(j, x, x, c, med, out) == pytest.approx(direct, abs=1e-12)


class TestCounterfactualLogit:
    def test_level_validation(self):
        with pytest.raises(ValueError):
            counterfactual_cumulative_logit(3, 1.0, 1.0, (), J3_MEDIATOR, J3_OUTCOME)

    def test_covariate_dimension_checked(self):
        with pytest.raises(DimensionError):
            counterfactual_cumulative_logit(1, 1.0, 1.0, (1.0,), J3_MEDIATOR, J3_OUTCOME)
        med = MediatorModel(0.0, 0.0, (1.0,))
        with pytest.raises(DimensionError):
            counterfactual_cumulative_logit(1, 1.0, 1.0, (1.0,), med, J3_OUTCOME)

    def test_oracle_value(self):
        assert counterfactual_cumulative_logit(1, 3.5, 2.0, (), J3_MEDIATOR, J3_OUTCOME) == pytest.approx(
            COUNTERFACTUAL_J1, abs=1e-12
        )

    def test_xstar_irrelevant_without_mediator_effect(self, rng):
        out = OutcomeModel((2.5, 5.5), 1.1, 0.0, 0.0)
        values = {
            counterfactual_cumulative_logit(1, 2.0, xs, (), J3_MEDIATOR, out)
            for xs in (-3.0, 0.0, 2.0, 5.0)
        }
        assert values == {2.5 - 1.1 * 2.0}

    def test_agrees_with_plug_in_oracle(self, rng):
        for _ in range(1000):
            p = int(rng.integers(3))
            med, out = random_model_pair(rng, p=p)
            c = tuple(rng.uniform(-1, 1, size=p))
            j = int(rng.integers(1, out.J))
            x, xs = rng.uniform(-3, 3, size=2)
            assert counterfactual_cumulative_logit(j, x, xs, c, med, out) == pytest.approx(
                plug_in_oracle(j, x, xs, c, med, out), abs=1e-12
            )


class TestPlugInOracle:
    def test_trivial_alpha(self):
        med = MediatorModel(0.3, -0.2)
        out = OutcomeModel((0.7, 1.9), 0.0, 0.0, 0.0)
        assert plug_in_oracle(1, 1.0, 1.0, (), med, out) == pytest.approx(0.7, abs=1e-15)

    def test_binary_outcome_reduction(self):
        # J=2: spell out the two-point mixture with scalar logistic algebra
        med = MediatorModel(-1.0, 0.5)
        out = OutcomeModel((2.5,), 1.1, 0.7, 0.5)
        x, xs, j = 3.5, 2.0, 1
        pm1 = 1 / (1 + math.exp(-(-1.0 + 0.5 * xs)))
        p_le_m0 = 1 / (1 + math.exp(-(2.5 - 1.1 * x)))
        p_le_m1 = 1 / (1 + math.exp(-(2.5 - 1.1 * x - 0.7 - 0.5 * x)))
        numer = (1 - pm1) * p_le_m0 + pm1 * p_le_m1
        expected = math.log(numer / (1 - numer))
        assert plug_in_oracle(j, x, xs, (), med, out) == pytest.approx(expected, abs=1e-12)
        assert counterfactual_cumulative_logit(j, x, xs, (), med, out) == pytest.approx(expected, abs=1e-12)


class TestEffects:
    def test_table1_values(self):
        assert log_tce(1, QUERY, J3_MEDIATOR, J3_OUTCOME) == pytest.approx(1.966, abs=5e-4)
        assert log_tce(2, QUERY, J3_MEDIATOR, J3_OUTCOME) == pytest.approx(2.259, abs=5e-4)
        assert log_nde(1, QUERY, J3_MEDIATOR, J3_OUTCOME) == pytest.approx(1.588, abs=5e-4)
        assert log_nie(1, QUERY, J3_MEDIATOR, J3_OUTCOME) == pytest.approx(0.378, abs=5e-4)
        assert log_cde(1, QUERY, J3_OUTCOME) == pytest.approx(2.40, abs=5e-4)
        assert log_cde(0, QUERY, J3_OUTCOME) == pytest.approx(1.65, abs=5e-4)

    def test_table2_spot_values(self):
        assert log_nde(4, QUERY, J5_MEDIATOR, J5_OUTCOME) == pytest.approx(1.388, abs=5e-4)
        assert log_nie(2, QUERY, J5_MEDIATOR, J5_OUTCOME) == pytest.approx(0.511, abs=5e-4)

    def test_null_contrast_gives_exact_zero(self):
        null = EffectQuery(2.0, 2.0)
        assert log_tce(1, null, J3_MEDIATOR, J3_OUTCOME) == 0.0
        assert log_nde(1, null, J3_MEDIATOR, J3_OUTCOME) == 0.0
        assert log_nie(1, null, J3_MEDIATOR, J3_OUTCOME) == 0.0
        assert log_cde(1, null, J3_OUTCOME) == 0.0

    def test_nie_zero_when_exposure_does_not_move_mediator(self):
        med = MediatorModel(-1.0, 0.0)
        for j in (1, 2):
            assert log_nie(j, QUERY, med, J3_OUTCOME) == 0.0

    def test_dead_mediator_path(self):
        out = OutcomeModel((2.5, 5.5), 1.1, 0.0, 0.0)
        for j in (1, 2):
            assert log_nie(j, QUERY, J3_MEDIATOR, out) == 0.0
            assert log_nde(j, QUERY, J3_MEDIATOR, out) == pytest.approx(1.1 * 1.5, abs=1e-15)
            assert log_tce(j, QUERY, J3_MEDIATOR, out) == pytest.approx(1.1 * 1.5, abs=1e-15)

    def test_cde_rejects_bad_mediator_level(self):
        with pytest.raises(ValueError):
            log_cde(2, QUERY, J3_OUTCOME)


class TestEffectTable:
    @pytest.mark.parametrize(
        "mediator, outcome, expected",
        [
            (J3_MEDIATOR, J3_OUTCOME, J3_TRUE_EFFECTS),
            (J5_MEDIATOR, J5_OUTCOME, J5_TRUE_EFFECTS),
            (SPARSE_MEDIATOR, SPARSE_OUTCOME, SPARSE_TRUE_EFFECTS),
            (SPARSE_FITTED_MEDIATOR, SPARSE_FITTED_OUTCOME, SPARSE_FITTED_EFFECTS),
        ],
        ids=["study-j3", "study-j5", "sparse-true", "sparse-fitted"],
    )
    def test_reference_tables(self, mediator, outcome, expected):
        table = effect_table(QUERY, mediator, outcome)
        assert table.log_nde == pytest.approx(expected["nde"], abs=5e-4)
        assert table.log_nie == pytest.approx(expected["nie"], abs=5e-4)
        assert table.log_tce == pytest.approx(expected["tce"], abs=5e-4)
        assert table.log_cde == pytest.approx(expected["cde"], abs=5e-4)

    def test_null_contrast_table_is_all_zero(self):
        table = effect_table(EffectQuery(2.0, 2.0), J3_MEDIATOR, J3_OUTCOME)
        assert all(v == 0.0 for v in table.flatten())

    def test_decomposition_for_random_models(self, rng):
        for _ in range(1000):
            p = int(rng.integers(3))
            med, out = random_model_pair(rng, p=p)
            q = EffectQuery(rng.uniform(-3, 3), rng.uniform(-3, 3), tuple(rng.uniform(-1, 1, size=p)))
            table = effect_table(q, med, out)
            for t, d, i in zip(table.log_tce, table.log_nde, table.log_nie):
                assert abs(t - (d + i)) < 1e-10

    def test_effects_match_counterfactual_logit_contrasts(self, rng):
        # NDE_j contrasts (x, xstar) with (xstar, xstar); NIE_j contrasts
        # (x, x) with (x, xstar); on the "exceeds j" odds, i.e. negated logits.
        for _ in range(200):
            med, out = random_model_pair(rng)
            q = EffectQuery(rng.uniform(-3, 3), rng.uniform(-3, 3))
            table = effect_table(q, med, out)
            for j in range(1, out.J):
                cf_x_xs = counterfactual_cumulative_logit(j, q.x, q.xstar, (), med, out)
                cf_xs_xs = counterfactual_cumulative_logit(j, q.xstar, q.xstar, (), med, out)
                cf_x_x = counterfactual_cumulative_logit(j, q.x, q.x, (), med, out)
                assert table.log_nde[j - 1] == pytest.approx(cf_xs_xs - cf_x_xs, abs=1e-10)
                assert table.log_nie[j - 1] == pytest.approx(cf_x_xs - cf_x_x, abs=1e-10)
                assert table.log_tce[j - 1] == pytest.approx(cf_xs_xs - cf_x_x, abs=1e-10)

    @pytest.mark.parametrize("mediator, outcome", [(J3_MEDIATOR, J3_OUTCOME), (J5_MEDIATOR, J5_OUTCOME)],
                             ids=["j3", "j5"])
    def test_decomposition_holds_for_large_contrasts(self, mediator, outcome):
        # one rounding of a log TCE beyond about 5e5 exceeds 1e-10, so the
        # bound is 1e-10 relative to |log TCE| once that passes 1
        for distance in np.logspace(0, 10, 61):
            for x, xstar in ((distance, 0.0), (0.0, distance), (X_BASELINE + distance, X_BASELINE)):
                table = effect_table(EffectQuery(x, xstar), mediator, outcome)
                for t, d, i in zip(table.log_tce, table.log_nde, table.log_nie):
                    assert abs(t - (d + i)) <= 1e-10 * max(1.0, abs(t))

    def test_swapped_query_gives_complementary_decomposition(self, rng):
        # swapping x and xstar (the documented symmetry) inverts the total
        # effect and re-apportions the interaction between NDE and NIE
        for _ in range(100):
            med, out = random_model_pair(rng)
            x, xs = rng.uniform(-3, 3, size=2)
            fwd = effect_table(EffectQuery(x, xs), med, out)
            rev = effect_table(EffectQuery(xs, x), med, out)
            assert np.allclose(fwd.log_tce, [-v for v in rev.log_tce], atol=1e-10)
            for t, d, i in zip(rev.log_tce, rev.log_nde, rev.log_nie):
                assert abs(t - (d + i)) < 1e-10

    def test_cde_is_level_free(self):
        table = effect_table(QUERY, J5_MEDIATOR, J5_OUTCOME)
        assert len(table.log_cde) == 2  # one entry per mediator level, none per j

    def test_labels_align_with_flatten(self):
        table = effect_table(QUERY, J3_MEDIATOR, J3_OUTCOME)
        labels = effect_labels(table.J)
        flat = table.flatten()
        assert len(labels) == len(flat) == 3 * 2 + 2
        assert labels[0] == ("nde", "1") and labels[-1] == ("cde", "m0")
        assert flat[labels.index(("tce", "2"))] == table.log_tce[1]

    def test_covariate_query(self, rng):
        med = MediatorModel(-1.0, 0.5, (0.3,))
        out = OutcomeModel((2.5, 5.5), 1.1, 0.7, 0.5, (-0.4,))
        q = EffectQuery(3.5, 2.0, (1.2,))
        table = effect_table(q, med, out)
        for t, d, i in zip(table.log_tce, table.log_nde, table.log_nie):
            assert abs(t - (d + i)) < 1e-10
        with pytest.raises(DimensionError):
            effect_table(EffectQuery(3.5, 2.0), med, out)


def _stacked_cases(rng, total):
    """Random stacks of 1-40 model pairs sharing J, p and a query, ``total``
    pairs in all: a fifth of the queries are null contrasts, and a third of
    the pairs each have gammaX = 0 or betaM = betaXM = 0."""
    while total > 0:
        J, p, S = int(rng.integers(2, 7)), int(rng.integers(3)), min(total, int(rng.integers(1, 41)))
        x = rng.uniform(-3, 3)
        xstar = x if rng.random() < 0.2 else rng.uniform(-3, 3)
        pairs = []
        for kind in rng.integers(3, size=S):
            med, out = random_model_pair(rng, J=J, p=p)
            if kind == 1:
                med = dataclasses.replace(med, gammaX=0.0)
            elif kind == 2:
                out = dataclasses.replace(out, betaM=0.0, betaXM=0.0)
            pairs.append((med, out))
        yield EffectQuery(x, xstar, tuple(rng.uniform(-2, 2, size=p))), pairs
        total -= S


def _rows_of(query, pairs):
    return _effect_rows(query, np.stack([_parameters(m) for m, _ in pairs]),
                        np.stack([_parameters(o) for _, o in pairs]))


class TestStackedEffects:
    def test_rows_equal_effect_tables_bitwise(self, rng):
        # every row of a stack is the flattened table of its own pair, to
        # the bit (signed zeros included), whatever else is in the stack
        null_zero = 0
        for query, pairs in _stacked_cases(rng, 2000):
            rows = _rows_of(query, pairs)
            assert rows.shape == (len(pairs), 3 * pairs[0][1].J - 1)
            for row, (med, out) in zip(rows, pairs):
                assert row.tobytes() == effect_table(query, med, out).flatten().tobytes()
                null_zero += query.x == query.xstar and not row.any()
        assert null_zero > 0

    def test_broken_row_raises_naming_its_level(self, rng, monkeypatch):
        # inflating the (x, xstar) log RR correction of one pair at level 3
        # breaks its decomposition by rounding; the check names that level
        real = effects._mixture_terms

        def broken(*args):
            terms = real(*args)
            terms["log_rr"][1, 4, 2] += 1e20
            return terms

        query, pairs = EffectQuery(3.5, 2.0), [random_model_pair(rng, J=5) for _ in range(7)]
        _rows_of(query, pairs)
        monkeypatch.setattr(effects, "_mixture_terms", broken)
        with pytest.raises(ConsistencyError, match="at level 3:"):
            _rows_of(query, pairs)


def _saturated_case(rng):
    """A random model pair and query where every threshold logit
    alpha_j - eta (both exposures, both mediator values) and both mediator
    logits gamma0 + gammaX*v + gammaC.c lie more than 30 from zero."""
    p = int(rng.integers(3))
    J = int(rng.integers(2, 6))
    x, xs = rng.uniform(-3, 3, size=2)
    c = rng.uniform(-1, 1, size=p)
    bx, bm, bxm = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1, 1)
    bc = rng.uniform(-1, 1, size=p)
    etas = [bx * v + bm * m + bxm * v * m + bc @ c for v in (x, xs) for m in (0, 1)]
    below = int(rng.integers(J))
    alpha = np.concatenate([
        min(etas) - 30.5 - np.sort(rng.uniform(0, 40, size=below))[::-1],
        max(etas) + 30.5 + np.sort(rng.uniform(0, 40, size=J - 1 - below)),
    ])
    gx, gc = rng.uniform(-2, 2), rng.uniform(-1, 1, size=p)
    rest = [gx * v + gc @ c for v in (x, xs)]
    g0 = 30.5 + rng.uniform(0, 30) - min(rest) if rng.integers(2) else -30.5 - rng.uniform(0, 30) - max(rest)
    med = MediatorModel(g0, gx, tuple(gc))
    out = OutcomeModel(tuple(alpha), bx, bm, bxm, tuple(bc))
    return med, out, EffectQuery(x, xs, tuple(c))


def _mp_counterfactual_logit(j, x, xstar, c, med, out):
    # logit P(Y(x, M(xstar)) <= j | c) by direct summation over m, with every
    # survival term written as F(-z) so that nothing cancels at |z| ~ 100
    F = lambda z: 1 / (1 + mpmath.exp(-z))
    mpf = mpmath.mpf
    x, xstar = mpf(x), mpf(xstar)
    c = [mpf(v) for v in c]
    lp = mpf(med.gamma0) + mpf(med.gammaX) * xstar + mpmath.fsum(mpf(g) * v for g, v in zip(med.gammaC, c))
    below = above = mpf(0)
    for m, w in ((0, F(-lp)), (1, F(lp))):
        eta = (mpf(out.betaX) * x + mpf(out.betaM) * m + mpf(out.betaXM) * x * m
               + mpmath.fsum(mpf(b) * v for b, v in zip(out.betaC, c)))
        z = mpf(out.alpha[j - 1]) - eta
        below += F(z) * w
        above += F(-z) * w
    return mpmath.log(below) - mpmath.log(above)


def test_effect_table_matches_mpmath_at_saturated_predictors(rng):
    # where every logit is beyond +-30 the closed forms difference log1pexp
    # terms that nearly cancel; a 60-digit direct summation is the reference
    worst = 0.0
    with mpmath.workdps(60):
        for _ in range(200):
            med, out, q = _saturated_case(rng)
            for v in (q.x, q.xstar):
                assert abs(med.linear_predictor(v, q.c)) > 30
                for m in (0, 1):
                    eta = out.linear_predictor(v, m, q.c)
                    assert np.all(np.abs(np.asarray(out.alpha) - eta) > 30)
            table = effect_table(q, med, out)
            for j in range(1, out.J):
                cf = {(a, b): _mp_counterfactual_logit(j, a, b, q.c, med, out)
                      for a, b in ((q.x, q.x), (q.x, q.xstar), (q.xstar, q.xstar))}
                oracle = (
                    cf[q.xstar, q.xstar] - cf[q.x, q.x],
                    cf[q.xstar, q.xstar] - cf[q.x, q.xstar],
                    cf[q.x, q.xstar] - cf[q.x, q.x],
                )
                got = (table.log_tce[j - 1], table.log_nde[j - 1], table.log_nie[j - 1])
                worst = max(worst, *(abs(g - float(o)) for g, o in zip(got, oracle)))
    assert worst <= 1e-12
