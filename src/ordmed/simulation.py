"""Synthetic data generation and Monte Carlo study replication.

Randomness policy: Philox counter-based streams keyed by (seed, domain, index)
so that each variable role and each replicate owns an independent stream.
Replicate r's dataset therefore never changes when the replication count
grows, and replicates may be evaluated in any order.  Normal variates are
produced by inverse transform (AS 241 quantile applied to 53-bit uniforms);
the method is recorded in RNG_INFO so output metadata can state it.

Datasets are drawn in stacks: each draws its uniforms from its own streams,
then every transform runs once on the stacked arrays.  The Monte Carlo study
draws its replicates 16 at a time, and ``simulate_dataset`` is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .effects import EffectQuery, _effect_rows, effect_labels
from .estimation import _STACK_SIZE, _fit_pairs, _Stack
from .exceptions import DegenerateDataError, DimensionError, ModelSpecError
from .models import Dataset, MediatorModel, OutcomeModel, _cumulative_probs, _mediator_eta
from .numerics import expit, inverse_normal_cdf, keyed_stream

_SIM_DOMAIN = 0
_REPLICATE_DOMAIN = 1

_ROLE_X = 0
_ROLE_COVARIATES = 1
_ROLE_MEDIATOR = 2
_ROLE_OUTCOME = 3

RNG_INFO = {
    "bit_generator": "Philox 4x64 (counter-based)",
    "streams": "keyed by (seed, domain, index): one stream per variable role, "
    "one derived seed per replicate",
    "normal_method": "inverse transform, AS 241 normal quantile on (k+0.5)*2^-53 uniforms",
}


@dataclass(frozen=True)
class SimulationDesign:
    """Data-generating configuration.

    x ~ Normal(mean_x, sd_x); optional independent Normal covariates
    (cov_means[i], cov_sds[i]); then m from the mediator model and y from the
    outcome model.  ``seed`` (64-bit unsigned) keys every stream, so equal
    designs generate identical datasets.
    """

    n: int
    mean_x: float
    sd_x: float
    mediator: MediatorModel
    outcome: OutcomeModel
    seed: int
    cov_means: tuple[float, ...] = ()
    cov_sds: tuple[float, ...] = ()

    def __post_init__(self):
        if int(self.n) < 1:
            raise ModelSpecError(f"n must be positive, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if not (np.isfinite(self.mean_x) and np.isfinite(self.sd_x)) or self.sd_x <= 0:
            raise ModelSpecError(f"need finite mean_x and sd_x > 0, got {self.mean_x!r}, {self.sd_x!r}")
        object.__setattr__(self, "mean_x", float(self.mean_x))
        object.__setattr__(self, "sd_x", float(self.sd_x))
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ModelSpecError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)
        means = tuple(float(v) for v in self.cov_means)
        sds = tuple(float(v) for v in self.cov_sds)
        if len(means) != len(sds) or any(s <= 0 or not np.isfinite(s) for s in sds) or not all(
            np.isfinite(v) for v in means
        ):
            raise ModelSpecError("cov_means and cov_sds must be equally long, finite, with sds > 0")
        object.__setattr__(self, "cov_means", means)
        object.__setattr__(self, "cov_sds", sds)
        if self.mediator.p != self.outcome.p or self.mediator.p != len(means):
            raise DimensionError(
                f"covariate dimensions disagree: mediator p={self.mediator.p}, "
                f"outcome p={self.outcome.p}, generator p={len(means)}"
            )

    @property
    def p(self):
        return len(self.cov_means)


def simulate_dataset(design: SimulationDesign) -> Dataset:
    """Draw one dataset from the design; deterministic given design.seed.
    A stack of one of :func:`_simulate_stack`."""
    stack = _simulate_stack(design, [design.seed])
    return Dataset(stack.x[0], stack.m[0], stack.y[0], stack.covariates[0], stack.J, design.p)


def _simulate_stack(design: SimulationDesign, seeds) -> _Stack:
    """One dataset of the design per seed, stacked.  Each dataset draws its
    uniforms from its own keyed streams; every transform then runs once, and
    elementwise, on the (S, n[, p]) arrays, so dataset s is bitwise the
    dataset of seed ``seeds[s]`` drawn alone."""
    n, p = design.n, design.p

    def uniforms(role, draw):
        return np.array([draw(keyed_stream(seed, _SIM_DOMAIN, role)) for seed in seeds])

    def normals(role, shape):
        # AS 241 quantiles of (k + 0.5) * 2^-53 for k uniform on [0, 2^53):
        # strictly inside (0, 1), so the quantile never sees an endpoint
        k = uniforms(role, lambda rng: rng.integers(0, 1 << 53, size=shape))
        return inverse_normal_cdf((k.astype(np.float64) + 0.5) * 2.0**-53)

    x = design.mean_x + design.sd_x * normals(_ROLE_X, n)
    C = np.empty((len(seeds), n, 0))
    if p:
        C = np.asarray(design.cov_means) + np.asarray(design.cov_sds) * normals(_ROLE_COVARIATES, (n, p))

    p_m = expit(_mediator_eta(design.mediator, x, C))
    m = (uniforms(_ROLE_MEDIATOR, lambda rng: rng.random(n)) < p_m).astype(np.int64)

    # inverse-CDF draw on the same cumulative probabilities the model exposes
    cum = _cumulative_probs(design.outcome, x, m, C)
    u_y = uniforms(_ROLE_OUTCOME, lambda rng: rng.random(n))
    y = 1 + np.sum(u_y[..., None] >= cum, axis=-1).astype(np.int64)
    return _Stack(x, m, y, C, design.outcome.J)


def replicate_seed(seed, r):
    """Derived 64-bit seed for replicate r; a pure function of (seed, r)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_REPLICATE_DOMAIN, int(r)))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class MonteCarloSummary:
    """Per-effect estimate collection across replicates.

    ``estimates`` has one row per successful replicate (in replicate order)
    and one column per entry of ``labels``.  Replicates whose fits failed are
    listed in ``failed_replicates`` and excluded, never silently redrawn.
    """

    design: SimulationDesign
    query: EffectQuery
    replications: int
    labels: tuple[tuple[str, str], ...]
    estimates: np.ndarray
    replicate_ids: tuple[int, ...]
    failed_replicates: tuple[int, ...]

    def __post_init__(self):
        self.estimates.flags.writeable = False

    @property
    def n_failures(self):
        return len(self.failed_replicates)

    @cached_property
    def mean(self):
        return self.estimates.mean(axis=0)

    @cached_property
    def sd(self):
        """Sample standard deviation per entry; NaN (absent) with fewer than
        two successful replicates."""
        if self.estimates.shape[0] < 2:
            return np.full(self.estimates.shape[1], np.nan)
        return self.estimates.std(axis=0, ddof=1)


def monte_carlo_study(design: SimulationDesign, replications, query: EffectQuery) -> MonteCarloSummary:
    """Simulate, fit both models, and evaluate the effect table, repeatedly.

    Replicate r draws its data from the stream keyed (design.seed, r), so the
    collection is reproducible bitwise and prefix-stable in the replication
    count.  Replicates are simulated, fitted and evaluated 16 at a time, as
    arrays; each one's dataset is bitwise that of ``simulate_dataset``, its
    fits those of ``fit_mediator``/``fit_outcome`` on it, and its effects
    those of ``effect_table`` on their models.
    """
    replications = int(replications)
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if len(query.c) != design.p:
        raise DimensionError(f"query has {len(query.c)} covariate(s) but design has {design.p}")

    rows = []
    ok_ids = []
    failed = []
    for start in range(0, replications, _STACK_SIZE):
        ids = range(start, min(start + _STACK_SIZE, replications))
        mediators, outcomes, errors = _fit_pairs(
            _simulate_stack(design, [replicate_seed(design.seed, r) for r in ids])
        )
        rows.append(_effect_rows(query, mediators, outcomes))
        for r, error in zip(ids, errors):
            (ok_ids if error is None else failed).append(r)

    if not ok_ids:
        raise DegenerateDataError(f"all {replications} replicates failed to fit")
    return MonteCarloSummary(
        design=design,
        query=query,
        replications=replications,
        labels=effect_labels(design.outcome.J),
        estimates=np.concatenate(rows),
        replicate_ids=tuple(ok_ids),
        failed_replicates=tuple(failed),
    )
