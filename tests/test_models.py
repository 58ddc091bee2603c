"""Model probability primitives and dataset validation.

Expected values tagged as oracle-frozen were computed with a 40-digit mpmath
evaluation of the same closed forms (see test_frozen_constants_match_oracle).
"""

import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from ordmed import (
    DataValidationError,
    Dataset,
    DimensionError,
    MediationError,
    MediatorModel,
    ModelSpecError,
    OutcomeModel,
    category_probabilities,
    cumulative_probability,
    fit_outcome,
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

    @pytest.mark.parametrize("x, c, name", [
        pytest.param(float("nan"), (0.5,), "x", id="nan"),
        pytest.param(float("inf"), (0.5,), "x", id="inf"),
        pytest.param("a", (0.5,), "x", id="a"),
        pytest.param(1.0, (float("nan"),), "c", id="c-nan"),
        pytest.param(1.0, (float("-inf"),), "c", id="c-inf"),
        pytest.param(1.0, ("a",), "c", id="c-str-entry"),
        pytest.param(1.0, "1", "c", id="c-str"),
    ])
    def test_query_point_must_be_finite(self, x, c, name):
        # the rule of every other real input, not a NaN probability or
        # numpy's bare ValueError
        mediator = MediatorModel(0.0, 1.0, (0.3,))
        outcome = OutcomeModel((2.5, 5.5), 1.1, 0.7, 0.5, (0.2,))
        for point in (lambda: cumulative_probability(outcome, 1, x, 0, c),
                      lambda: category_probabilities(outcome, x, 0, c),
                      lambda: outcome.linear_predictor(x, 1, c),
                      lambda: mediator_probability(mediator, x, c),
                      lambda: mediator.linear_predictor(x, c)):
            with pytest.raises(ModelSpecError, match=f"{name} must be"):
                point()

    @pytest.mark.parametrize("j", [1.5, "1"])
    def test_level_must_be_whole(self, j):
        with pytest.raises(ModelSpecError, match="threshold index j"):
            cumulative_probability(J3_OUTCOME, j, 1.0, 0)


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

    @pytest.mark.parametrize("bad", ["a", None, 10**400, (1.0,)], ids=["text", "none", "huge", "tuple"])
    def test_non_numbers_rejected_as_specification_errors(self, bad):
        # one rule for every real parameter: no TypeError or OverflowError leaks
        with pytest.raises(ModelSpecError, match="gamma0"):
            MediatorModel(bad, 0.0)
        with pytest.raises(ModelSpecError, match="betaX"):
            OutcomeModel((0.0,), bad, 0.0, 0.0)

    def test_outcome_needs_a_threshold(self):
        with pytest.raises(ModelSpecError, match="at least one threshold"):
            OutcomeModel((), 0.0, 0.0, 0.0)

    def test_levels_property(self):
        assert J3_OUTCOME.J == 3
        assert OutcomeModel((0.0,), 0, 0, 0).J == 2

    def test_models_immutable(self):
        with pytest.raises(AttributeError):
            J3_OUTCOME.betaX = 2.0


class TestDatasetConstruction:
    def columns(self):
        return np.linspace(0.0, 1.0, 3), np.array([0, 1, 0]), np.array([1, 2, 1]), np.zeros((3, 0))

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_columns_must_be_equally_long(self, column):
        columns = list(self.columns())
        columns[column] = columns[column][:2]
        with pytest.raises(ValueError, match="equally long"):
            Dataset(*columns, 2, 0)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 1), (3,)])
    def test_covariates_must_match_n_and_p(self, shape):
        x, m, y, _ = self.columns()
        with pytest.raises(ValueError, match=r"covariates must have shape \(3, 1\)"):
            Dataset(x, m, y, np.zeros(shape), 2, 1)

    @pytest.mark.parametrize("column, values, reason", [
        (1, [0, 2, 0], "column m must hold 0 or 1; row 1 holds 2"),
        (1, [0.0, 1.0, 0.5], "column m must hold 0 or 1; row 2 holds 0.5"),
        (2, [1, 3, 1], "column y must hold integers in 1..2; row 1 holds 3"),
        (2, [1, 1, 0], "column y must hold integers in 1..2; row 2 holds 0"),
        (2, [1.0, 2.0, 1.0], "column y must hold integers in 1..2; row 0 holds 1.0"),
    ])
    def test_mediator_and_outcome_values_are_checked(self, column, values, reason):
        # a directly built Dataset fails here, naming its column, rather than
        # later in a fit with a misleading or numpy-level error
        columns = list(self.columns())
        columns[column] = np.array(values)
        with pytest.raises(DataValidationError, match=re.escape(reason)):
            Dataset(*columns, 2, 0)

    @pytest.mark.parametrize("column, value, message", [
        (0, np.array(0.5), "equally long 1-d arrays"),  # 0-d x
        (0, [0.0, 0.5, 1.0], "must be numpy arrays"),  # a list x
        (3, [[], [], []], "must be numpy arrays"),  # list covariates
    ])
    def test_columns_are_arrays_of_checked_shape(self, column, value, message):
        # shapes are checked before they are indexed: no IndexError or AttributeError
        columns = list(self.columns())
        columns[column] = value
        with pytest.raises(ValueError, match=message):
            Dataset(*columns, 2, 0)

    @pytest.mark.parametrize("x, covariate, reason", [
        ([0.0, np.nan, 1.0], [0.0, 0.0, 0.0], "column x must hold finite reals; row 1 holds nan"),
        ([0.0, 0.5, np.inf], [0.0, 0.0, 0.0], "column x must hold finite reals; row 2 holds inf"),
        ([0.0, 0.5, 1.0], [0.0, -np.inf, np.nan], "column c2 must hold finite reals; row 1 holds -inf"),
    ])
    def test_exposure_and_covariates_must_be_finite(self, x, covariate, reason):
        # a non-finite x or covariate once reached the fits' SVD (LinAlgError)
        # or gave a rank-deficient design with BLAS errors on stderr
        _, m, y, _ = self.columns()
        covariates = np.column_stack([np.zeros(3), covariate])
        with pytest.raises(DataValidationError, match=re.escape(reason)):
            Dataset(np.array(x), m, y, covariates, 2, 2)

    @pytest.mark.parametrize("J, p", [(2.5, 0), (1, 0), ("3", 0), (2, 0.5), (2, -1)])
    def test_levels_and_covariate_count_are_whole_numbers(self, J, p):
        x, m, y, _ = self.columns()
        with pytest.raises(ModelSpecError, match="must be a whole number"):
            Dataset(x, m, y, np.zeros((3, 0)), J, p)

    def test_whole_float_levels_become_ints(self):
        # J = 3.0 once reached fit_outcome as a float and failed in a bincount cast
        x, m, _, _ = self.columns()
        data = Dataset(x, m, np.array([1, 2, 3]), np.zeros((3, 0)), 3.0, 0.0)
        assert (type(data.J), type(data.p)) == (int, int) and (data.J, data.p) == (3, 0)
        fit_outcome(Dataset(np.linspace(0.0, 1.0, 30), np.arange(30) % 2, np.arange(30) % 3 + 1,
                            np.zeros((30, 0)), 3.0, 0))

    def test_no_rows(self):
        with pytest.raises(DataValidationError, match="dataset is empty"):
            Dataset(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.zeros((0, 0)), 2, 0)


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

    def test_every_problem_in_row_and_field_order(self):
        rows = [
            ("0.1", "0", "1", "0.5", "1"),
            ("abc", "2", "2.5", "inf", "x"),
            ("0.3", "1", "3"),
            (" 0.4 ", "0.5", "9", "1_0", None),
            ("nan", "1", "2", "0", "0"),
        ]
        with pytest.raises(DataValidationError) as err:
            validate_dataset(rows, J=3, p=2)
        assert err.value.problems == (
            (1, "x", "value must be a real number, got 'abc'"),
            (1, "m", "must be 0 or 1, got '2'"),
            (1, "y", "must be an integer in 1..3, got '2.5'"),
            (1, "c1", "value must be finite, got inf"),
            (1, "c2", "value must be a real number, got 'x'"),
            (2, "row", "expected 5 fields (x, m, y, c1..c2), got 3"),
            (3, "m", "must be 0 or 1, got '0.5'"),
            (3, "y", "must be an integer in 1..3, got '9'"),
            (3, "c2", "value must be a real number, got None"),
            (4, "x", "value must be finite, got nan"),
        )
        assert str(err.value).startswith("10 invalid value(s) in 5 records:\nrow 1: field x: ")

        # numeric strings, bools and numpy scalars, with J given and inferred
        valid = [
            (" 0.4 ", True, "3", "1_0", np.float32(0.5)),
            (np.float64(-1.5), np.int64(0), 1.0, False, "-0.0"),
            (2, "1", np.int32(2), np.float64(2.25), 7),
        ]
        for J in (3, None):
            data = validate_dataset(valid, J=J, p=2)
            assert data.J == 3 and data.n == 3 and data.p == 2
            assert data.x.dtype == np.float64 and data.covariates.dtype == np.float64
            assert data.m.dtype == np.int64 and data.y.dtype == np.int64
            assert data.x.shape == data.m.shape == data.y.shape == (3,)
            assert data.covariates.shape == (3, 2)
            for column in (data.x, data.m, data.y, data.covariates):
                assert column.flags.c_contiguous
            assert data.x.tolist() == [0.4, -1.5, 2.0]
            assert data.m.tolist() == [1, 0, 1]
            assert data.y.tolist() == [3, 1, 2]
            assert data.covariates.tolist() == [[10.0, 0.5], [0.0, -0.0], [2.25, 7.0]]
            assert np.signbit(data.covariates[1, 1])

    def test_message_lists_the_first_ten_problems(self):
        # 20,000 rows whose m is 2: every problem is kept, and the message
        # stays a dozen lines long
        rows = [("0.5", "2", "1")] * 20_000
        with pytest.raises(DataValidationError) as err:
            validate_dataset(rows, J=3)
        assert len(err.value.problems) == 20_000
        assert err.value.problems[-1] == (19_999, "m", "must be 0 or 1, got '2'")
        lines = str(err.value).splitlines()
        assert len(lines) == 12
        assert lines[0] == "20000 invalid value(s) in 20000 records:"
        assert lines[10] == "row 9: field m: must be 0 or 1, got '2'"
        assert lines[11] == "... and 19990 more"

    def test_ragged_covariates(self):
        with pytest.raises(DataValidationError) as err:
            validate_dataset([(0.1, 0, 1, 0.5), (0.2, 1, 2)], J=2, p=1)
        assert err.value.problems[0][1] == "row"

    def test_empty_input(self):
        with pytest.raises(DataValidationError):
            validate_dataset([], J=2)

    def test_levels_inferred_from_the_largest_outcome(self):
        rows = [(0.1, 0, 1), (0.2, 1, 3), (0.3, 0, 2), (0.4, 1, "1")]
        data = validate_dataset(rows)
        assert data.J == 3
        assert np.array_equal(data.y, validate_dataset(rows, J=3).y)

    @pytest.mark.parametrize("y", ["inf", "1e300", 1e300, 4, "2.5", "0"])
    def test_inferred_levels_need_whole_outcomes_up_to_the_record_count(self, y):
        # without J, a y above the record count could never leave every
        # level observed, so it is rejected with the row and the field
        rows = [(0.1, 0, 1), (0.2, 1, 2), (0.3, 0, y)]
        with pytest.raises(DataValidationError) as err:
            validate_dataset(rows)
        assert [problem[:2] for problem in err.value.problems] == [(2, "y")]

    def test_inferred_levels_need_two_levels(self):
        with pytest.raises(ModelSpecError, match="J must be"):
            validate_dataset([(0.1, 0, 1), (0.2, 1, 1)])

    def test_empty_input_without_levels(self):
        with pytest.raises(DataValidationError, match="dataset is empty"):
            validate_dataset([])

    @pytest.mark.parametrize("J, p", [(2.5, 0), (1, 0), (10**30, 0), ("x", 0), (3, -1), (3, 0.5)],
                             ids=["J-fraction", "J-one", "J-huge", "J-text", "p-negative", "p-fraction"])
    def test_levels_and_covariate_count_are_whole_numbers(self, J, p):
        with pytest.raises(ModelSpecError):
            validate_dataset([(0.1, 0, 1)], J=J, p=p)

    def test_levels_beyond_the_outcome_storage_fail_cleanly(self):
        with pytest.raises(MediationError):
            validate_dataset([(0.1, 0, 1e20)], J=10**30)

    def test_whole_float_levels_accepted(self):
        assert validate_dataset([(0.1, 0, 1), (0.2, 1, 2)], J=2.0).J == 2

    def test_dataset_arrays_read_only(self):
        data = validate_dataset([(0.1, 0, 1), (0.2, 1, 2)], J=2)
        with pytest.raises(ValueError):
            data.x[0] = 9.0

    def test_subset_repeats_rows(self):
        data = validate_dataset([(0.1, 0, 1), (0.2, 1, 2)], J=2)
        sub = data.subset([1, 1, 0])
        assert sub.n == 3
        assert list(sub.y) == [2, 2, 1]

    @pytest.mark.parametrize("indices", [[True, False, True], np.array([True, False]), [0.7, 1.2], [0.0, 1.0]])
    def test_subset_takes_integer_row_indices_only(self, indices):
        # a mask or a float index was cast to row numbers: [True, False, True]
        # gave rows 1, 0, 1 and [0.7, 1.2] gave rows 0, 1
        data = validate_dataset([(0.1, 0, 1), (0.2, 1, 2)], J=2)
        with pytest.raises(ValueError, match="row indices must be integers"):
            data.subset(indices)

    def test_subset_of_no_rows_is_empty(self):
        data = validate_dataset([(0.1, 0, 1), (0.2, 1, 2)], J=2)
        with pytest.raises(DataValidationError, match="dataset is empty"):
            data.subset([])
