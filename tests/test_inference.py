"""Percentile bootstrap: quantile convention, hand-enumerated oracles,
determinism, failure policy, and coverage sanity."""

import hashlib
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ordmed.estimation
import ordmed.inference
from ordmed import (
    ConvergenceError,
    Dataset,
    DegenerateDataError,
    EffectQuery,
    MediatorModel,
    ModelSpecError,
    OutcomeModel,
    SimulationDesign,
    bootstrap_effects,
    effect_table,
    fit_mediator,
    fit_outcome,
    monte_carlo_study,
    percentile_interval,
    quantile,
    simulate_dataset,
)
from ordmed.estimation import _fit_pairs
from ordmed.stacks import _record_groups, _resampled, _Stack
from ordmed.inference import _BOOTSTRAP_DOMAIN
from ordmed.numerics import keyed_stream

from conftest import J3_MEDIATOR, J3_OUTCOME, SPARSE_MEDIATOR, SPARSE_OUTCOME, X_ACTIVE, X_BASELINE, plain_stream

QUERY = EffectQuery(X_ACTIVE, X_BASELINE)
TRUE_LOG_TCE_1 = 1.9664495298574452  # closed form under the J=3 study design


def _study_design(n, seed):
    return SimulationDesign(n=n, mean_x=3.0, sd_x=1.5, mediator=J3_MEDIATOR, outcome=J3_OUTCOME, seed=seed)


def _sparse_design(n, seed):
    return SimulationDesign(n=n, mean_x=3.0, sd_x=1.3, mediator=SPARSE_MEDIATOR, outcome=SPARSE_OUTCOME, seed=seed)


def _study_dataset(n, seed):
    return simulate_dataset(_study_design(n, seed))


class TestQuantile:
    def test_endpoints(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
        assert quantile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0

    def test_median_interpolates(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5

    def test_single_element(self):
        assert quantile([7.0], 0.3) == 7.0

    def test_matches_numpy_linear_method(self, rng):
        for _ in range(100):
            s = np.sort(rng.normal(size=int(rng.integers(1, 40))))
            q = rng.uniform()
            assert quantile(s, q) == pytest.approx(float(np.quantile(s, q, method="linear")), abs=1e-12)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20),
           st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_q(self, values, q1, q2):
        s = np.sort(values)
        lo, hi = sorted([q1, q2])
        assert quantile(s, lo) <= quantile(s, hi)

    def test_validation(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestPercentileInterval:
    def test_constant_sample_zero_width(self):
        lo, hi = percentile_interval(np.full(25, 3.14), 0.95)
        assert lo == hi == 3.14

    def test_contains_inner_mass(self, rng):
        s = rng.normal(size=2000)
        lo, hi = percentile_interval(s, 0.9)
        inside = np.mean((s >= lo) & (s <= hi))
        assert 0.88 <= inside <= 0.92

    def test_level_validated(self):
        with pytest.raises(ValueError):
            percentile_interval([1.0, 2.0], 1.0)


class TestBootstrapEffects:
    def test_four_resamples_match_hand_enumeration(self):
        # replay the documented per-resample streams, refit through the public
        # API, and take type-7 quantiles; everything must match bitwise
        data = _study_dataset(40, seed=88)
        B, level, seed = 4, 0.95, 2
        result = bootstrap_effects(data, QUERY, B, level, seed=seed)
        assert result.failures == 0

        tables = []
        for b in range(B):
            idx = keyed_stream(seed, _BOOTSTRAP_DOMAIN, b).integers(0, data.n, size=data.n)
            sample = data.subset(idx)
            table = effect_table(QUERY, fit_mediator(sample).model, fit_outcome(sample).model)
            tables.append(table.flatten())
        enumerated = np.vstack(tables)

        assert np.array_equal(result.estimates, enumerated)
        assert np.array_equal(result.boot_sd, enumerated.std(axis=0, ddof=1))
        tail = (1.0 - level) / 2.0  # the documented equal-tailed convention
        for k in range(enumerated.shape[1]):
            s = np.sort(enumerated[:, k])
            assert result.ci_lower[k] == quantile(s, tail)
            assert result.ci_upper[k] == quantile(s, 1.0 - tail)

    def test_sparse_resamples_equal_per_resample_enumeration(self, monkeypatch):
        # the bootstrap analogue of the Monte Carlo enumeration test: at n=60
        # some resamples of the sparse design fail; exactly those are
        # excluded, each with the error its own fits raise, and every kept
        # row is bitwise the effect table of its resample's fits
        from conftest import SPARSE_MEDIATOR, SPARSE_OUTCOME

        data = simulate_dataset(SimulationDesign(n=60, mean_x=3.0, sd_x=1.3, mediator=SPARSE_MEDIATOR,
                                                 outcome=SPARSE_OUTCOME, seed=4242))
        errors = []

        def recorded(*args):
            estimates, stack_errors = stacked_effects(*args)
            errors.extend(stack_errors)
            return estimates, stack_errors

        stacked_effects = ordmed.inference._stacked_effects
        monkeypatch.setattr(ordmed.inference, "_stacked_effects", recorded)
        result = bootstrap_effects(data, QUERY, 300, seed=7)
        rows, raised = [], []
        for b in range(300):
            sample = data.subset(keyed_stream(7, _BOOTSTRAP_DOMAIN, b).integers(0, data.n, size=data.n))
            try:
                rows.append(effect_table(QUERY, fit_mediator(sample).model, fit_outcome(sample).model).flatten())
                raised.append(None)
            except (DegenerateDataError, ConvergenceError) as exc:
                raised.append(f"{type(exc).__name__}: {exc}")
        assert [None if e is None else f"{type(e).__name__}: {e}" for e in errors] == raised
        assert result.failures == 300 - len(rows) == 44
        assert result.estimates.tobytes() == np.vstack(rows).tobytes()

    def test_resample_indices_are_pinned(self, monkeypatch):
        # a sparse J=5 B=200 run: resample b takes the rows that the
        # SeedSequence-keyed stream (seed, 2, b) indexes, pinned as bytes;
        # its problem holds those rows, each once, with its draw count as weight
        data = simulate_dataset(_sparse_design(300, 4242))
        stacks = []

        def recorded(query, count, n, stack_of):
            return stacked_effects(query, count, n, lambda ids: stacks.append(stack_of(ids)) or stacks[-1])

        stacked_effects = ordmed.inference._stacked_effects
        monkeypatch.setattr(ordmed.inference, "_stacked_effects", recorded)
        bootstrap_effects(data, QUERY, 200, seed=11)
        idx = np.stack([plain_stream(11, _BOOTSTRAP_DOMAIN, b).integers(0, data.n, size=data.n) for b in range(200)])
        digest = "748eb52f089e79fbb07075746ae376a4f17fdd9eb1862ccf27b5ebb93802d4cd"
        assert (idx.dtype, hashlib.sha256(idx.tobytes()).hexdigest()) == (np.int64, digest)
        assert len(np.unique(data.x)) == data.n  # so x identifies each row
        by_x = np.argsort(data.x)
        problems = [(stack, s) for stack in stacks for s in range(len(stack.y))]
        assert len(problems) == 200
        for b, (stack, s) in enumerate(problems):
            kept = stack.weights[s] > 0
            rows = by_x[np.searchsorted(data.x[by_x], stack.x[s][kept])]
            for column in ("x", "m", "y", "covariates"):
                assert getattr(stack, column)[s][kept].tobytes() == getattr(data, column)[rows].tobytes()
            counts = np.bincount(rows, stack.weights[s][kept], minlength=data.n)
            assert counts.tobytes() == np.bincount(idx[b], minlength=data.n).astype(float).tobytes()

    def test_bitwise_deterministic(self):
        data = _study_dataset(60, seed=14)
        a = bootstrap_effects(data, QUERY, 25, seed=3)
        b = bootstrap_effects(data, QUERY, 25, seed=3)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.ci_lower, b.ci_lower)
        assert np.array_equal(a.ci_upper, b.ci_upper)
        assert np.array_equal(a.boot_sd, b.boot_sd)
        assert a.failures == b.failures
        c = bootstrap_effects(data, QUERY, 25, seed=4)
        assert not np.array_equal(a.estimates, c.estimates)

    def test_point_estimate_comes_from_full_data(self):
        data = _study_dataset(80, seed=15)
        result = bootstrap_effects(data, QUERY, 8, seed=5)
        assert result.mediator_fit == fit_mediator(data)
        assert result.outcome_fit == fit_outcome(data)
        direct = effect_table(QUERY, fit_mediator(data).model, fit_outcome(data).model)
        assert result.point.log_tce == direct.log_tce
        assert result.point.log_nde == direct.log_nde
        assert result.point.log_nie == direct.log_nie
        assert result.point.log_cde == direct.log_cde

    def test_interval_order_and_shapes(self):
        data = _study_dataset(100, seed=16)
        result = bootstrap_effects(data, QUERY, 30, seed=6)
        assert result.estimates.shape == (30 - result.failures, 8)
        assert np.all(result.ci_lower <= result.ci_upper)
        assert result.level == 0.95 and result.B == 30

    def test_single_resample_edge(self):
        data = _study_dataset(40, seed=88)
        result = bootstrap_effects(data, QUERY, 1, seed=7)
        assert result.failures == 0
        assert np.all(np.isnan(result.boot_sd))
        assert np.array_equal(result.ci_lower, result.ci_upper)
        assert np.array_equal(result.ci_lower, result.estimates[0])

    def test_unreliable_flag_when_most_resamples_degenerate(self):
        # rare end categories: most resamples lose a level and are excluded
        design = SimulationDesign(
            n=30, mean_x=0.0, sd_x=1.0, mediator=MediatorModel(0.0, 0.0),
            outcome=OutcomeModel((-3.2, 3.2), 0.3, 0.2, 0.0), seed=24,
        )
        data = simulate_dataset(design)
        assert np.bincount(data.y, minlength=4)[1:].min() == 1
        result = bootstrap_effects(data, QUERY, 40, seed=101)
        assert result.failures > 20
        assert result.failures < 40
        assert result.unreliable
        assert np.all(np.isfinite(result.estimates))

    def test_parameter_validation(self):
        data = _study_dataset(40, seed=88)
        with pytest.raises(ValueError):
            bootstrap_effects(data, QUERY, 0, seed=1)
        with pytest.raises(ValueError):
            bootstrap_effects(data, QUERY, 10, level=1.2, seed=1)

    @pytest.mark.parametrize("level, reason", [
        (None, "level must be a real number, got None"),
        ("abc", "level must be a real number, got 'abc'"),
        (float("nan"), "level must be finite, got nan"),
    ], ids=["none", "text", "nan"])
    def test_level_rule(self, level, reason):
        # the level is an input rule of the models, like the seed and B
        with pytest.raises(ModelSpecError, match=re.escape(reason)):
            bootstrap_effects(_study_dataset(40, seed=88), QUERY, 10, level=level, seed=1)

    @pytest.mark.parametrize("B, seed", [(2.5, 1), (10, 1.5), (10, -1), (10, 2**64), (10, None)])
    def test_whole_number_rules(self, B, seed):
        # the seed rule of SimulationDesign: a whole number in [0, 2**64)
        with pytest.raises(ModelSpecError, match="B" if B == 2.5 else "seed"):
            bootstrap_effects(_study_dataset(40, seed=88), QUERY, B, seed=seed)

    def test_largest_seed_accepted(self):
        result = bootstrap_effects(_study_dataset(60, seed=88), QUERY, 2.0, seed=2**64 - 1)
        assert result.B == 2

    def test_every_resample_failing_raises(self, monkeypatch):
        # no interval can be formed, so there is no result to flag
        def all_fail(stack):
            S, _, p = stack.covariates.shape
            return np.empty((0, 2 + p)), np.empty((0, stack.J + 2 + p)), [DegenerateDataError("forced")] * S

        monkeypatch.setattr(ordmed.inference, "_fit_pairs", all_fail)
        with pytest.raises(DegenerateDataError, match="all 20 bootstrap resamples failed"):
            bootstrap_effects(_study_dataset(60, seed=88), QUERY, 20, seed=1)

    def test_sparse_pipeline_agrees_with_published_scale(self):
        # the published sparse-example dataset is not distributed, so a fresh
        # n=300 realization is compared on the bootstrap's own scale: every
        # point estimate within 3 boot-sd of the closed-form true value, and
        # spread comparable to the published bootstrap sds
        from conftest import SPARSE_MEDIATOR, SPARSE_OUTCOME, SPARSE_TRUE_EFFECTS

        data = simulate_dataset(SimulationDesign(
            n=300, mean_x=3.0, sd_x=1.3, mediator=SPARSE_MEDIATOR,
            outcome=SPARSE_OUTCOME, seed=4242,
        ))
        result = bootstrap_effects(data, QUERY, 1000, 0.95, seed=99)
        true_values = np.array([*SPARSE_TRUE_EFFECTS["nde"], *SPARSE_TRUE_EFFECTS["nie"],
                                *SPARSE_TRUE_EFFECTS["tce"], *SPARSE_TRUE_EFFECTS["cde"]])
        point = result.point.flatten()
        assert np.all(np.abs(point - true_values) <= 3.0 * result.boot_sd)
        k = result.labels.index(("tce", "1"))
        assert 0.261 / 2 <= result.boot_sd[k] <= 0.261 * 2  # published boot sd 0.261
        assert result.ci_lower[k] <= 1.730 <= result.ci_upper[k]  # true log TCE level 1

    def test_coverage_sanity(self):
        # 200 simulated datasets (n=500), B=200 resamples each: the 95%
        # percentile CI for log TCE at level 1 should cover the generating
        # value in 90-99% of runs
        covered = 0
        for r in range(200):
            data = _study_dataset(500, seed=1_000_000 + r)
            result = bootstrap_effects(data, QUERY, 200, seed=r)
            k = result.labels.index(("tce", "1"))
            covered += int(result.ci_lower[k] <= TRUE_LOG_TCE_1 <= result.ci_upper[k])
        assert 0.90 <= covered / 200 <= 0.99


class TestResamplesOnDistinctRecords:
    """A resample that repeats a record is fitted on its distinct records
    with their counts, as a fit of ``data.subset(idx)`` is; a resample
    without a repeat is fitted on its records in draw order."""

    @staticmethod
    def _run(monkeypatch, data, B, seed):
        # the stacks that bootstrap_effects fits, its errors, and its result or the error it raises
        stacks, errors = [], []

        def recorded(stack):
            gamma, beta, stack_errors = fit_pairs(stack)
            stacks.append(stack)
            errors.extend(None if e is None else f"{type(e).__name__}: {e}" for e in stack_errors)
            return gamma, beta, stack_errors

        fit_pairs = ordmed.inference._fit_pairs
        monkeypatch.setattr(ordmed.inference, "_fit_pairs", recorded)
        try:
            result = bootstrap_effects(data, QUERY, B, seed=seed)
        except DegenerateDataError as exc:
            result = exc
        return stacks, errors, result

    @staticmethod
    def _enumerated(data, B, seed):
        # per resample, its index draw, and its effect row or the error its fits raise
        draws, rows, raised = [], [], []
        for b in range(B):
            idx = keyed_stream(seed, _BOOTSTRAP_DOMAIN, b).integers(0, data.n, size=data.n)
            draws.append(idx)
            sample = data.subset(idx)
            try:
                rows.append(effect_table(QUERY, fit_mediator(sample).model, fit_outcome(sample).model).flatten())
                raised.append(None)
            except (DegenerateDataError, ConvergenceError) as exc:
                raised.append(f"{type(exc).__name__}: {exc}")
        return draws, rows, raised

    def test_repeated_records_equal_per_resample_fits(self, monkeypatch):
        # binary exposure, no covariates, x = 0 written as both -0.0 and 0.0:
        # every resample holds at most 2 * 2 * J = 12 distinct records, -0.0
        # read as 0.0, and its fits are bitwise those of data.subset(idx)
        rng = np.random.default_rng(5)
        n = 120
        x = np.where(rng.random(n) < 0.5, 1.0, np.where(rng.random(n) < 0.5, -0.0, 0.0))
        m = (rng.random(n) < 0.3 + 0.4 * x).astype(np.int64)
        y = 1 + (rng.random(n) < 0.4 + 0.2 * m) + (rng.random(n) < 0.2 + 0.3 * x)
        data = Dataset(x, m, y, np.empty((n, 0)), 3, 0)
        assert np.signbit(x).any() and (~np.signbit(x) & (x == 0.0)).any()
        stacks, errors, result = self._run(monkeypatch, data, 60, seed=3)
        _, rows, raised = self._enumerated(data, 60, seed=3)
        assert errors == raised and result.failures == sum(e is not None for e in raised)
        assert result.estimates.tobytes() == np.vstack(rows).tobytes()
        for stack in stacks:
            assert (np.count_nonzero(stack.weights, axis=1) <= 12).all()
            assert not np.signbit(stack.x).any()
        # the fits of a dataset with repeats do not depend on its record order, bit for bit
        perm = rng.permutation(n)
        for fit in (fit_mediator, fit_outcome):
            a, b = fit(data), fit(data.subset(perm))
            assert np.array([a.loglik, *a.standard_errors]).tobytes() == np.array(
                [b.loglik, *b.standard_errors]).tobytes()
            assert a == b

    def test_a_resample_without_a_repeat_keeps_its_draw_order(self):
        # n = 3, too few records to fit: about 6 resamples in 27 draw each
        # record once, and those hold the records in draw order, -0.0 kept,
        # with unit weights; every resample's problem is the one a fit of
        # data.subset(idx) makes, and fails with its error
        data = Dataset(np.array([-0.0, 1.0, 2.0]), np.array([0, 1, 1]), np.array([1, 2, 1]), np.empty((3, 0)), 2, 0)
        idx = np.stack([keyed_stream(4, _BOOTSTRAP_DOMAIN, b).integers(0, 3, size=3) for b in range(300)])
        stack = _resampled(data, *_record_groups(data), idx)
        errors = _fit_pairs(stack)[2]
        plain = 0
        for b, draw in enumerate(idx):
            one = _Stack.of([data.subset(draw)])
            for column in ("x", "m", "y", "covariates", "weights"):
                assert getattr(stack, column)[b].tobytes() == getattr(one, column)[0].tobytes()
            assert f"{errors[b]}" == f"{_fit_pairs(one)[2][0]}"
            if len(set(draw.tolist())) == 3:
                plain += 1
                assert stack.x[b].tobytes() == data.x[draw].tobytes() and (stack.weights[b] == 1.0).all()
        assert 40 <= plain <= 90 and np.signbit(stack.x).any()


class TestStackBudget:
    """The resampling driver packs max(1, _STACK_RECORDS // n) problems per
    stack.  Fits are stack-invariant, so no budget changes a result; the
    budget bounds the kernel rounds and the records of every kernel call."""

    @staticmethod
    def _outputs(monkeypatch, budget, run):
        # run() under a budget of ``budget`` records: its arrays and counts,
        # the error of every problem in problem order, and the stack sizes
        errors, sizes = [], []

        def recorded(stack):
            gamma, beta, stack_errors = ordmed.estimation._fit_pairs(stack)
            errors.extend(None if e is None else f"{type(e).__name__}: {e}" for e in stack_errors)
            sizes.append(len(stack_errors))
            return gamma, beta, stack_errors

        monkeypatch.setattr(ordmed.inference, "_fit_pairs", recorded)
        monkeypatch.setattr(ordmed.inference, "_STACK_RECORDS", budget)
        result = run()
        if isinstance(result, ordmed.inference.BootstrapResult):
            arrays = (result.estimates, result.boot_sd, result.ci_lower, result.ci_upper)
            counts = (result.failures,)
        else:
            arrays = (result.estimates, result.mean, result.sd)
            counts = (result.n_failures, result.replicate_ids, result.failed_replicates)
        return [a.tobytes() for a in arrays], counts, errors, sizes

    @pytest.mark.parametrize("n, count, failures, run", [
        (60, 300, 44,
         lambda: bootstrap_effects(simulate_dataset(_sparse_design(60, seed=4242)), QUERY, 300, seed=7)),
        (300, 200, None,
         lambda: bootstrap_effects(simulate_dataset(_sparse_design(300, seed=4242)), QUERY, 200, seed=99)),
        (40, 200, 61, lambda: monte_carlo_study(_sparse_design(40, seed=3), 200, QUERY)),
        (500, 200, None, lambda: monte_carlo_study(_study_design(500, seed=1), 200, QUERY)),
    ], ids=["sparse-n60-bootstrap", "sparse-j5-bootstrap", "sparse-n40-monte-carlo", "j3-monte-carlo"])
    def test_any_budget_gives_the_same_results(self, monkeypatch, n, count, failures, run):
        def stack_sizes(size):
            return [size] * (count // size) + ([count % size] if count % size else [])

        default = self._outputs(monkeypatch, ordmed.inference._STACK_RECORDS, run)
        assert default[3] == stack_sizes(max(1, ordmed.inference._STACK_RECORDS // n))
        if failures is not None:
            assert sum(e is not None for e in default[2]) == failures
        for budget, size in ((1, 1), (7 * n, 7), (count * n, count)):
            arrays, counts, errors, sizes = self._outputs(monkeypatch, budget, run)
            assert sizes == stack_sizes(size)
            assert (arrays, counts, errors) == default[:3]

    def test_kernel_rounds_and_records_are_bounded(self, monkeypatch):
        # B=200 resamples of the sparse J=5 data (n=300) run 40 to a stack:
        # 61 outcome and 42 mediator kernel calls, point fits included (16 to
        # a stack would take 135 and 98); every call sees at most
        # max(_STACK_RECORDS, n) records
        data = simulate_dataset(_sparse_design(300, seed=4242))
        records = {"_bernoulli_parts": [], "_proportional_odds_parts": []}
        for name, response in (("_bernoulli_parts", 2), ("_proportional_odds_parts", 3)):
            # the (S, n) response, m or y, is argument ``response`` of the kernel
            def counted(*args, kernel=getattr(ordmed.estimation, name), seen=records[name], response=response):
                seen.append(args[response].size)
                return kernel(*args)

            monkeypatch.setattr(ordmed.estimation, name, counted)
        bootstrap_effects(data, QUERY, 200, seed=99)
        assert len(records["_proportional_odds_parts"]) <= 76
        assert len(records["_bernoulli_parts"]) <= 52
        bound = max(ordmed.inference._STACK_RECORDS, data.n)
        assert max(records["_proportional_odds_parts"] + records["_bernoulli_parts"]) <= bound


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the bounds are glibc malloc's")
class TestLibraryPageFaults:
    """In-process callers keep glibc's default malloc settings, under which a
    freed block of a few hundred KiB goes back to the OS and its pages fault
    in afresh when the next one is allocated.  Each Newton run evaluates its
    kernel in one workspace, so the resampling drivers fault few pages.

    Minor page faults of the measured call in a fresh process, one OpenBLAS
    thread: 19.2k for the study and 19.1k for the bootstrap when every kernel
    call allocated its own temporaries, 2.4k and 2.3k with the workspaces."""

    SCRIPT = (
        "import resource\n"
        "from ordmed import *\n"
        "design = SimulationDesign(n=500, mean_x=3.0, sd_x=1.5, mediator={mediator!r}, outcome={outcome!r}, seed={seed})\n"
        "query = EffectQuery({x!r}, {xstar!r})\n"
        "{setup}\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "{call}\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )

    def minor_faults(self, setup, call, seed):
        src = str(Path(ordmed.inference.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items() if not key.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
        env.update(PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), OPENBLAS_NUM_THREADS="1")
        script = self.SCRIPT.format(mediator=J3_MEDIATOR, outcome=J3_OUTCOME, seed=seed, x=X_ACTIVE, xstar=X_BASELINE,
                                    setup=setup, call=call)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    def test_second_study_of_a_process(self):
        study = "monte_carlo_study(design, 200, query)"
        assert self.minor_faults(study, study, seed=1) <= 6000

    def test_bootstrap(self):
        faults = self.minor_faults("data = simulate_dataset(design)", "bootstrap_effects(data, query, 200, seed=0)",
                                   seed=1_000_000)
        assert faults <= 6000


class TestDataDrivenStarts:
    """Both fits start from a least-squares fit to the data, which cuts the
    Newton rounds of the resampling drivers."""

    @staticmethod
    def _kernel_calls(monkeypatch, run):
        # (outcome, mediator) kernel calls of run(), point fits included
        calls = {"_proportional_odds_parts": 0, "_bernoulli_parts": 0}
        for name in calls:
            def counted(*args, kernel=getattr(ordmed.estimation, name), name=name):
                calls[name] += 1
                return kernel(*args)

            monkeypatch.setattr(ordmed.estimation, name, counted)
        run()
        return calls["_proportional_odds_parts"], calls["_bernoulli_parts"]

    def test_kernel_calls_are_bounded(self, monkeypatch):
        # from the plain starts (zero slopes) these runs took 61 + 42 and
        # 63 + 54 calls; the data-driven starts take 41 + 35 and 63 + 37.  The
        # J=3 outcome fits gain nothing, so their limit only keeps today's 63
        data = simulate_dataset(_sparse_design(300, seed=4242))
        outcome, mediator = self._kernel_calls(monkeypatch, lambda: bootstrap_effects(data, QUERY, 200, seed=99))
        assert outcome <= 45
        assert mediator <= 38
        study = _study_design(500, seed=1)
        outcome, mediator = self._kernel_calls(monkeypatch, lambda: monte_carlo_study(study, 200, QUERY))
        assert mediator <= 40
        assert outcome <= 63
