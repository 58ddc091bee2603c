"""Model probability primitives and dataset validation.

Expected values tagged as oracle-frozen were computed with a 40-digit mpmath
evaluation of the same closed forms (see test_frozen_constants_match_oracle).
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from ordmed import (
    DataValidationError,
    Dataset,
    DimensionError,
    MediatorModel,
    ModelSpecError,
    OutcomeModel,
    category_probabilities,
    cumulative_probability,
    mediator_probability,
    validate_dataset,
)

from conftest import J3_OUTCOME, random_model_pair

EXPIT_075 = 0.67917869917539297  # oracle-frozen: expit(0.75)
EXPIT_03 = 0.57444251681165899  # oracle-frozen: expit(0.3)
CATPROBS_X2_M0 = (0.57444251681165899, 0.38998629391570484, 0.035571189272636173)


def test_frozen_constants_match_oracle():
    mpmath.mp.dps = 40
    exp = mpmath.exp
    assert float(1 / (1 + exp(-mpmath.mpf("0.75")))) == pytest.approx(EXPIT_075, abs=1e-16)
    assert float(1 / (1 + exp(-mpmath.mpf("0.3")))) == pytest.approx(EXPIT_03, abs=1e-16)
    le1 = 1 / (1 + exp(-(mpmath.mpf("2.5") - mpmath.mpf("2.2"))))
    le2 = 1 / (1 + exp(-(mpmath.mpf("5.5") - mpmath.mpf("2.2"))))
    oracle = (float(le1), float(le2 - le1), float(1 - le2))
    assert oracle == pytest.approx(CATPROBS_X2_M0, abs=1e-16)


class TestMediatorProbability:
    def test_zero_linear_predictor(self):
        assert mediator_probability(MediatorModel(0.0, 0.0), 7.0) == 0.5

    def test_cancelling_predictor(self):
        assert mediator_probability(MediatorModel(-1.0, 0.5), 2.0) == 0.5

    def test_oracle_value(self):
        assert mediator_probability(MediatorModel(-1.0, 0.5), 3.5) == pytest.approx(
            EXPIT_075, abs=1e-12
        )

    def test_covariates_enter_as_inner_product(self):
        model = MediatorModel(0.5, 1.0, (2.0, -1.0))
        assert mediator_probability(model, 1.0, (0.25, 2.0)) == pytest.approx(
            float(1 / (1 + np.exp(0.0))), abs=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mediator_probability(MediatorModel(0.0, 0.0), 1.0, (1.0,))

    @given(g0=st.floats(-5, 5), gx=st.floats(-5, 5), x=st.floats(-5, 5))
    def test_expit_symmetry_under_sign_flip(self, g0, gx, x):
        p_plus = mediator_probability(MediatorModel(g0, gx), x)
        p_minus = mediator_probability(MediatorModel(-g0, -gx), x)
        assert p_minus == pytest.approx(1.0 - p_plus, abs=1e-15)


class TestCumulativeProbability:
    def test_oracle_value(self):
        assert cumulative_probability(J3_OUTCOME, 1, 2.0, 0) == pytest.approx(EXPIT_03, abs=1e-12)

    def test_extreme_exposure_pushes_top_threshold_to_zero(self):
        assert cumulative_probability(J3_OUTCOME, 2, 1e3, 0) == pytest.approx(0.0, abs=1e-300)

    def test_zero_slopes(self):
        model = OutcomeModel((0.0, 1.0), 0.0, 0.0, 0.0)
        assert cumulative_probability(model, 1, 5.0, 1) == 0.5

    @pytest.mark.parametrize("j", [0, 3, -1])
    def test_level_out_of_range(self, j):
        with pytest.raises(ValueError):
            cumulative_probability(J3_OUTCOME, j, 1.0, 0)

    def test_strictly_increasing_in_j(self, rng):
        for _ in range(200):
            _, out = random_model_pair(rng)
            x = rng.uniform(-2, 2)
            m = int(rng.integers(2))
            cum = [cumulative_probability(out, j, x, m) for j in range(1, out.J)]
            assert all(c1 < c2 for c1, c2 in zip(cum, cum[1:]))

    def test_bad_mediator_value(self):
        with pytest.raises(ValueError):
            cumulative_probability(J3_OUTCOME, 1, 1.0, 2)


class TestCategoryProbabilities:
    def test_binary_symmetric(self):
        model = OutcomeModel((0.0,), 0.0, 0.0, 0.0)
        assert tuple(category_probabilities(model, 3.0, 1)) == (0.5, 0.5)

    def test_oracle_values(self):
        probs = category_probabilities(J3_OUTCOME, 2.0, 0)
        assert probs == pytest.approx(CATPROBS_X2_M0, abs=1e-12)

    def test_sum_to_one_for_random_models(self, rng):
        for _ in range(1000):
            _, out = random_model_pair(rng)
            probs = category_probabilities(out, rng.uniform(-3, 3), int(rng.integers(2)))
            assert np.all(probs >= 0.0)
            assert np.all(probs <= 1.0)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_extreme_predictor_stays_normalised(self):
        probs = category_probabilities(J3_OUTCOME, 500.0, 1)
        assert np.all(probs >= 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestModelConstruction:
    def test_thresholds_must_increase(self):
        with pytest.raises(ModelSpecError):
            OutcomeModel((1.0, 1.0), 0.0, 0.0, 0.0)
        with pytest.raises(ModelSpecError):
            OutcomeModel((2.0, 1.0), 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ModelSpecError):
            MediatorModel(bad, 0.0)
        with pytest.raises(ModelSpecError):
            OutcomeModel((0.0,), bad, 0.0, 0.0)

    @pytest.mark.parametrize("text", ["123", b"123"])
    def test_strings_are_not_read_character_by_character(self, text):
        # a string is iterable, but "123" is no J=4 threshold vector
        with pytest.raises(ModelSpecError):
            MediatorModel(0.0, 0.0, text)
        with pytest.raises(ModelSpecError):
            OutcomeModel(text, 0.0, 0.0, 0.0)
        with pytest.raises(ModelSpecError):
            OutcomeModel((0.0,), 0.0, 0.0, 0.0, text)

    def test_levels_property(self):
        assert J3_OUTCOME.J == 3
        assert OutcomeModel((0.0,), 0, 0, 0).J == 2

    def test_models_immutable(self):
        with pytest.raises(AttributeError):
            J3_OUTCOME.betaX = 2.0


class TestValidateDataset:
    def test_valid_rows(self):
        data = validate_dataset([(0.1, 0, 1), (0.2, 1, 3), (0.3, 0, 2)], J=3)
        assert isinstance(data, Dataset)
        assert data.n == 3 and data.J == 3 and data.p == 0
        assert (data.x[1], data.m[1], data.y[1]) == (0.2, 1, 3)

    def test_accepts_numeric_strings(self):
        data = validate_dataset([("0.5", "1", "2", "0.25")], J=2, p=1)
        assert data.x[0] == 0.5 and data.covariates[0, 0] == 0.25

    def test_bad_mediator_named(self):
        with pytest.raises(DataValidationError) as err:
            validate_dataset([(0.1, 0, 1), (0.2, 2, 1)], J=2)
        assert err.value.problems == ((1, "m", "must be 0 or 1, got 2"),)
        assert "row 1" in str(err.value)

    def test_outcome_above_levels_named(self):
        with pytest.raises(DataValidationError) as err:
            validate_dataset([(0.1, 0, 6)], J=5)
        (problem,) = err.value.problems
        assert problem[0] == 0 and problem[1] == "y"

    def test_collects_every_violation(self):
        rows = [(float("nan"), 0, 1), (0.1, 3, 1), (0.2, 0, 9), (0.3, 1, 2)]
        with pytest.raises(DataValidationError) as err:
            validate_dataset(rows, J=3)
        assert len(err.value.problems) == 3
        assert {p[0] for p in err.value.problems} == {0, 1, 2}

    def test_ragged_covariates(self):
        with pytest.raises(DataValidationError) as err:
            validate_dataset([(0.1, 0, 1, 0.5), (0.2, 1, 2)], J=2, p=1)
        assert err.value.problems[0][1] == "row"

    def test_empty_input(self):
        with pytest.raises(DataValidationError):
            validate_dataset([], J=2)

    def test_dataset_arrays_read_only(self):
        data = validate_dataset([(0.1, 0, 1), (0.2, 1, 2)], J=2)
        with pytest.raises(ValueError):
            data.x[0] = 9.0

    def test_subset_repeats_rows(self):
        data = validate_dataset([(0.1, 0, 1), (0.2, 1, 2)], J=2)
        sub = data.subset([1, 1, 0])
        assert sub.n == 3
        assert list(sub.y) == [2, 2, 1]
