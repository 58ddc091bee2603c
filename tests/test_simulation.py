"""Dataset simulation and Monte Carlo study mechanics: determinism, stream
independence, distributional agreement with the generating models."""

import dataclasses

import numpy as np
import pytest

import ordmed.inference
from ordmed import (
    ConvergenceError,
    DegenerateDataError,
    DimensionError,
    EffectQuery,
    MediatorModel,
    ModelSpecError,
    OutcomeModel,
    effect_table,
    fit_mediator,
    fit_outcome,
    monte_carlo_study,
    replicate_seed,
    simulate_dataset,
    SimulationDesign,
)
from ordmed.models import _cumulative_probs, _mediator_eta
from ordmed.numerics import expit
from ordmed.simulation import RNG_INFO, _simulate_stack

from conftest import (
    J3_MEDIATOR,
    J3_OUTCOME,
    J5_MEDIATOR,
    J5_OUTCOME,
    SPARSE_MEDIATOR,
    SPARSE_OUTCOME,
    X_ACTIVE,
    X_BASELINE,
    plain_inverse_normal_cdf,
    plain_stream,
)

SPARSE_DESIGN = SimulationDesign(
    n=300, mean_x=3.0, sd_x=1.3, mediator=SPARSE_MEDIATOR, outcome=SPARSE_OUTCOME, seed=4242
)
QUERY = EffectQuery(X_ACTIVE, X_BASELINE)


class TestSimulateDataset:
    def test_deterministic_given_seed(self):
        a = simulate_dataset(SPARSE_DESIGN)
        b = simulate_dataset(SPARSE_DESIGN)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = simulate_dataset(SPARSE_DESIGN)
        b = simulate_dataset(dataclasses.replace(SPARSE_DESIGN, seed=4243))
        assert not np.array_equal(a.x, b.x)

    def test_shapes_and_ranges(self):
        data = simulate_dataset(SPARSE_DESIGN)
        assert data.n == 300 and data.J == 5 and data.p == 0
        assert set(np.unique(data.m)) <= {0, 1}
        assert data.y.min() >= 1 and data.y.max() <= 5

    def test_mediator_concentrates_at_half_when_predictor_vanishes(self):
        # gamma0 + gammaX * 2 = 0, x pinned at 2 by a tiny spread
        design = SimulationDesign(
            n=100_000, mean_x=2.0, sd_x=1e-6, mediator=MediatorModel(-1.0, 0.5),
            outcome=OutcomeModel((0.0,), 0.0, 0.0, 0.0), seed=5,
        )
        data = simulate_dataset(design)
        assert abs(data.m.mean() - 0.5) <= 0.005

    def test_sparse_design_top_category_share(self):
        # 50 seeds of the sparse n=300 design put the mean share of the top
        # outcome level within 4 percentage points of 59%
        freqs = [
            np.mean(simulate_dataset(dataclasses.replace(SPARSE_DESIGN, seed=1000 + s)).y == 5)
            for s in range(50)
        ]
        assert abs(float(np.mean(freqs)) - 0.59) <= 0.04

    def test_cell_frequencies_match_model_probabilities(self):
        # law of large numbers at n=1e6: within an x-window, empirical
        # P(Y=j | m) tracks the mean model probability over the same records
        design = dataclasses.replace(SPARSE_DESIGN, n=1_000_000, seed=123)
        data = simulate_dataset(design)
        window = (data.x >= 2.8) & (data.x <= 3.2)
        alpha = np.asarray(SPARSE_OUTCOME.alpha)
        for m in (0, 1):
            cell = window & (data.m == m)
            assert cell.sum() > 5000
            emp = np.bincount(data.y[cell], minlength=6)[1:] / cell.sum()
            eta = (SPARSE_OUTCOME.betaX * data.x[cell] + SPARSE_OUTCOME.betaM * m
                   + SPARSE_OUTCOME.betaXM * data.x[cell] * m)
            cum = 1.0 / (1.0 + np.exp(-(alpha[None, :] - eta[:, None])))
            probs = np.diff(cum, axis=1, prepend=0.0, append=1.0).mean(axis=0)
            assert np.max(np.abs(emp - probs)) < 0.01

        # mediator marginal as well
        p_m = 1.0 / (1.0 + np.exp(-(-1.0 + 0.9 * data.x)))
        assert abs(data.m.mean() - p_m.mean()) < 0.01

    def test_covariate_generation(self):
        design = SimulationDesign(
            n=50_000, mean_x=0.0, sd_x=1.0,
            mediator=MediatorModel(-0.5, 0.3, (0.2,)),
            outcome=OutcomeModel((0.0, 1.5), 0.4, 0.3, 0.0, (0.5,)),
            seed=31, cov_means=(2.0,), cov_sds=(0.5,),
        )
        data = simulate_dataset(design)
        assert data.covariates.shape == (50_000, 1)
        assert data.covariates.mean() == pytest.approx(2.0, abs=0.01)
        assert data.covariates.std() == pytest.approx(0.5, abs=0.01)

    def test_design_validation(self):
        with pytest.raises(ModelSpecError):
            SimulationDesign(n=0, mean_x=0, sd_x=1, mediator=J3_MEDIATOR, outcome=J3_OUTCOME, seed=1)
        with pytest.raises(ModelSpecError):
            SimulationDesign(n=10, mean_x=0, sd_x=0.0, mediator=J3_MEDIATOR, outcome=J3_OUTCOME, seed=1)
        with pytest.raises(ModelSpecError):
            SimulationDesign(n=10, mean_x=0, sd_x=1, mediator=J3_MEDIATOR, outcome=J3_OUTCOME, seed=-3)
        with pytest.raises(DimensionError):
            SimulationDesign(n=10, mean_x=0, sd_x=1, mediator=MediatorModel(0, 0, (1.0,)),
                             outcome=J3_OUTCOME, seed=1)

    @pytest.mark.parametrize("field, bad", [
        ("n", 2.7), ("n", "ten"), ("seed", 1.5), ("seed", 2**64), ("seed", -1),
        ("mean_x", "a"), ("mean_x", float("nan")), ("sd_x", float("inf")), ("sd_x", None),
    ])
    def test_whole_and_finite_rules(self, field, bad):
        # no value is truncated, and no TypeError leaks
        design = dict(n=10, mean_x=0, sd_x=1, mediator=J3_MEDIATOR, outcome=J3_OUTCOME, seed=1)
        with pytest.raises(ModelSpecError, match=field):
            SimulationDesign(**{**design, field: bad})

    @pytest.mark.parametrize("means, sds", [(("a",), (1.0,)), ((float("nan"),), (1.0,)),
                                            ((0.0,), (float("inf"),)), ((0.0,), (0.0,)), ((0.0,), ())])
    def test_covariate_generator_rules(self, means, sds):
        with pytest.raises(ModelSpecError):
            SimulationDesign(n=10, mean_x=0, sd_x=1, mediator=MediatorModel(0, 0, (1.0,)),
                             outcome=OutcomeModel((0.0,), 0, 0, 0, (1.0,)), seed=1,
                             cov_means=means, cov_sds=sds)

    def test_whole_values_accepted_at_the_bounds(self):
        design = SimulationDesign(n=10.0, mean_x=0, sd_x=1, mediator=J3_MEDIATOR, outcome=J3_OUTCOME,
                                  seed=np.uint64(2**64 - 1))
        assert (design.n, design.seed) == (10, 2**64 - 1)
        assert type(design.n) is int and type(design.seed) is int

    def test_rng_info_declares_methods(self):
        assert "Philox" in RNG_INFO["bit_generator"]
        assert "AS 241" in RNG_INFO["normal_method"]


def _covariate_design(p, J, n=200, seed=17):
    """The J=3 (J=2: its first threshold; J=5: the J=5 study's) design with
    p covariates entering both models."""
    mediator, outcome = {2: (J3_MEDIATOR, dataclasses.replace(J3_OUTCOME, alpha=(2.5,))),
                         3: (J3_MEDIATOR, J3_OUTCOME), 5: (J5_MEDIATOR, J5_OUTCOME)}[J]
    return SimulationDesign(
        n=n, mean_x=3.0, sd_x=1.5, seed=seed,
        mediator=dataclasses.replace(mediator, gammaC=(0.4, -0.3)[:p]),
        outcome=dataclasses.replace(outcome, betaC=(-0.6, 0.2)[:p]),
        cov_means=(0.5, -1.0)[:p], cov_sds=(1.0, 2.0)[:p],
    )


class TestSimulateStack:
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("J", [2, 3, 5])
    def test_stacked_datasets_equal_single_draws_bitwise(self, p, J):
        design = _covariate_design(p, J)
        for S in (1, 16, 5):
            seeds = [replicate_seed(design.seed, 100 * S + s) for s in range(S)]
            stack = _simulate_stack(design, seeds)
            assert stack.J == J and stack.covariates.shape == (S, design.n, p)
            for s, seed in enumerate(seeds):
                alone = simulate_dataset(dataclasses.replace(design, seed=seed))
                for column in ("x", "m", "y", "covariates"):
                    got, want = getattr(stack, column)[s], getattr(alone, column)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _plain_stack(design, seeds):
    """The draw written plainly: per seed, one SeedSequence-keyed stream
    (seed, 0, role) for each of x, the covariates, m and y; the polyval
    quantile; y as a sum over the broadcast cumulative probabilities."""
    n, p = design.n, design.p

    def uniforms(role, draw):
        return np.array([draw(plain_stream(seed, 0, role)) for seed in seeds])

    def normals(role, shape):
        k = uniforms(role, lambda rng: rng.integers(0, 1 << 53, size=shape))
        return plain_inverse_normal_cdf((k.astype(np.float64) + 0.5) * 2.0**-53)

    x = design.mean_x + design.sd_x * normals(0, n)
    C = np.empty((len(seeds), n, 0))
    if p:
        C = np.asarray(design.cov_means) + np.asarray(design.cov_sds) * normals(1, (n, p))
    m = (uniforms(2, lambda rng: rng.random(n)) < expit(_mediator_eta(design.mediator, x, C))).astype(np.int64)
    cum = _cumulative_probs(design.outcome, x, m, C)
    y = 1 + np.sum(uniforms(3, lambda rng: rng.random(n))[..., None] >= cum, axis=-1).astype(np.int64)
    return x, m, y, C


# replicate_seed(seed, r) for r = 0, 1, 2**31
PINNED_REPLICATE_SEEDS = {
    0: (11539782348902174461, 2656959587162494210, 280297056819291853),
    1: (4654460112120296358, 10674428029035717133, 16651354367249486869),
    2**32 - 1: (14177020149655706848, 13141035799545876557, 7911004182467061986),
    2**32: (12695170091618684670, 245423488454179721, 16211979117543165502),
    2**64 - 1: (7415890644094193115, 5888061697523251322, 1167484330684451509),
}


class TestDrawsPinned:
    """Every draw stays what SeedSequence-keyed streams give, as bytes."""

    @pytest.mark.parametrize("p", [0, 2])
    def test_stack_equals_plain_draw(self, p):
        design = _covariate_design(p, 3, n=500)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [replicate_seed(design.seed, r) for r in range(24)]
        stack = _simulate_stack(design, seeds)
        got = (stack.x, stack.m, stack.y, stack.covariates)
        want = _plain_stack(design, seeds)
        assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [(a.dtype, a.shape, a.tobytes()) for a in want]

    def test_replicate_seeds(self):
        for seed, pinned in PINNED_REPLICATE_SEEDS.items():
            assert tuple(replicate_seed(seed, r) for r in (0, 1, 2**31)) == pinned
            assert pinned == tuple(int(np.random.SeedSequence(seed, spawn_key=(1, r)).generate_state(1, np.uint64)[0])
                                   for r in (0, 1, 2**31))
        with pytest.raises(ValueError, match="stream key entries must be whole numbers"):
            replicate_seed(0, 2**32)


class TestMonteCarloStudy:
    def test_single_replicate_equals_direct_pipeline(self):
        design = dataclasses.replace(SPARSE_DESIGN, n=400)
        summary = monte_carlo_study(design, 1, QUERY)
        assert summary.estimates.shape == (1, 14)
        assert np.all(np.isnan(summary.sd))  # spread is absent with one replicate

        data = simulate_dataset(dataclasses.replace(design, seed=replicate_seed(design.seed, 0)))
        table = effect_table(QUERY, fit_mediator(data).model, fit_outcome(data).model)
        assert np.array_equal(summary.estimates[0], table.flatten())

    def test_replicates_equal_per_replicate_enumeration(self, monkeypatch):
        # the Monte Carlo analogue of acceptance criterion 7(a): fitting in
        # stacks gives bitwise the estimates of replaying each replicate
        # through the public API, across several stacks (a budget of 16
        # problems per stack gives 3 and 4 stacks); at n=40 some replicates
        # fail, and exactly the enumeration's failures are listed
        stacks = []

        def recorded(stack):
            stacks.append(len(stack.y))
            return fit_pairs(stack)

        fit_pairs = ordmed.inference._fit_pairs
        monkeypatch.setattr(ordmed.inference, "_fit_pairs", recorded)
        for n, seed, R in ((150, 4242, 37), (40, 3, 60)):
            monkeypatch.setattr(ordmed.inference, "_STACK_RECORDS", 16 * n)
            design = dataclasses.replace(SPARSE_DESIGN, n=n, seed=seed)
            stacks.clear()
            summary = monte_carlo_study(design, R, QUERY)
            assert len(stacks) >= 3 and sum(stacks) == R
            rows, failed = [], []
            for r in range(R):
                data = simulate_dataset(dataclasses.replace(design, seed=replicate_seed(seed, r)))
                try:
                    med, out = fit_mediator(data).model, fit_outcome(data).model
                except (DegenerateDataError, ConvergenceError):
                    failed.append(r)
                    continue
                rows.append(effect_table(QUERY, med, out).flatten())
            assert np.array_equal(summary.estimates, np.vstack(rows))
            assert summary.failed_replicates == tuple(failed)
        assert failed

    def test_covariate_replicates_equal_per_replicate_enumeration(self):
        # the enumeration above for a design with two covariates
        design = _covariate_design(2, 3, n=150, seed=4242)
        query = EffectQuery(X_ACTIVE, X_BASELINE, (0.2, -0.5))
        summary = monte_carlo_study(design, 37, query)
        rows = []
        for r in range(37):
            data = simulate_dataset(dataclasses.replace(design, seed=replicate_seed(design.seed, r)))
            rows.append(effect_table(query, fit_mediator(data).model, fit_outcome(data).model).flatten())
        assert summary.estimates.tobytes() == np.vstack(rows).tobytes()
        assert summary.failed_replicates == ()

    def test_bitwise_reproducible(self):
        design = dataclasses.replace(SPARSE_DESIGN, n=120)
        a = monte_carlo_study(design, 8, QUERY)
        b = monte_carlo_study(design, 8, QUERY)
        assert np.array_equal(a.estimates, b.estimates)
        assert a.failed_replicates == b.failed_replicates

    def test_prefix_stability_when_replications_grow(self):
        design = dataclasses.replace(SPARSE_DESIGN, n=120)
        small = monte_carlo_study(design, 3, QUERY)
        large = monte_carlo_study(design, 6, QUERY)
        kept = [i for i, rid in enumerate(large.replicate_ids) if rid < 3]
        assert [large.replicate_ids[i] for i in kept] == list(small.replicate_ids)
        assert np.array_equal(large.estimates[kept], small.estimates)

    def test_failed_replicates_are_counted_and_excluded(self):
        # n=40 under the sparse design frequently misses an outcome level
        design = dataclasses.replace(SPARSE_DESIGN, n=40, seed=3)
        summary = monte_carlo_study(design, 60, QUERY)
        assert summary.n_failures > 0
        assert summary.estimates.shape[0] == 60 - summary.n_failures
        assert set(summary.failed_replicates).isdisjoint(summary.replicate_ids)
        assert np.all(np.isfinite(summary.estimates))

    def test_all_replicates_failing_raises(self):
        # gamma0 = -60 leaves every replicate without a mediator value of 1,
        # so every stack reaches the outcome fits and the effects empty
        design = SimulationDesign(n=30, mean_x=0.0, sd_x=1.0, mediator=MediatorModel(-60.0, 0.1),
                                  outcome=J3_OUTCOME, seed=5)
        with pytest.raises(DegenerateDataError, match="all 20 replicates failed"):
            monte_carlo_study(design, 20, QUERY)

    def test_fewer_records_than_levels_fail_every_replicate(self):
        # n = 2 < J = 3: every outcome fit fails before its engine runs
        design = SimulationDesign(n=2, mean_x=0.0, sd_x=1.0, mediator=J3_MEDIATOR, outcome=J3_OUTCOME, seed=5)
        with pytest.raises(DegenerateDataError, match="all 4 replicates failed"):
            monte_carlo_study(design, 4, QUERY)

    def test_mean_and_sd_shapes(self):
        summary = monte_carlo_study(dataclasses.replace(SPARSE_DESIGN, n=200), 5, QUERY)
        assert summary.mean.shape == (14,)
        assert summary.sd.shape == (14,)
        assert summary.labels[0] == ("nde", "1")

    def test_replications_validated(self):
        with pytest.raises(ValueError):
            monte_carlo_study(SPARSE_DESIGN, 0, QUERY)
        with pytest.raises(ModelSpecError, match="replications"):
            monte_carlo_study(SPARSE_DESIGN, 2.5, QUERY)

    def test_query_dimension_checked(self):
        with pytest.raises(DimensionError):
            monte_carlo_study(SPARSE_DESIGN, 2, EffectQuery(3.5, 2.0, (1.0,)))
