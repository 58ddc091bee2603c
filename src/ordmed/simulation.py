"""Synthetic data generation and Monte Carlo study replication.

Randomness policy: Philox counter-based streams keyed by (seed, domain, index)
so that each variable role and each replicate owns an independent stream.
Replicate r's dataset therefore never changes when the replication count
grows, and replicates may be evaluated in any order.  Normal variates are
produced by inverse transform (AS 241 quantile applied to 53-bit uniforms);
the method is recorded in RNG_INFO so output metadata can state it.

Datasets are drawn in stacks: each draws its uniforms from its own streams,
then every transform runs once on the stacked arrays, and ``simulate_dataset``
is a stack of one.  The Monte Carlo study's replicates go through the
bootstrap's driver, ``inference._stacked_effects``, in stacks of about 12,000
records; a replicate that repeats a record is fitted on its distinct records
with counts, as ``fit_mediator`` fits it (``stacks._distinct``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effects import EffectQuery, effect_labels
from .exceptions import DegenerateDataError, DimensionError, ModelSpecError
from .inference import _check_summary, _sample_sd, _stacked_effects
from .models import (
    Dataset,
    MediatorModel,
    OutcomeModel,
    _finite_scalar,
    _finite_tuple,
    _mediator_eta,
    _outcome_eta,
    _seed,
    _whole,
)
from .numerics import expit, inverse_normal_cdf, keyed_streams, stream_keys
from .stacks import _distinct, _Stack

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
    outcome model.  ``seed``, a whole number in [0, 2**64), keys every stream,
    so equal designs generate identical datasets.
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
        object.__setattr__(self, "n", _whole(self.n, "n", 1))
        object.__setattr__(self, "mean_x", _finite_scalar(self.mean_x, "mean_x"))
        object.__setattr__(self, "sd_x", _finite_scalar(self.sd_x, "sd_x"))
        if self.sd_x <= 0:
            raise ModelSpecError(f"sd_x must be > 0, got {self.sd_x!r}")
        object.__setattr__(self, "seed", _seed(self.seed))
        means = _finite_tuple(self.cov_means, "cov_means")
        sds = _finite_tuple(self.cov_sds, "cov_sds")
        if len(means) != len(sds) or any(s <= 0 for s in sds):
            raise ModelSpecError("cov_means and cov_sds must be equally long, with sds > 0")
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
    uniforms from its own keyed streams, all keyed in one pass; every
    transform then runs once, and elementwise, on the (S, n[, p]) arrays, so
    dataset s is bitwise the dataset of seed ``seeds[s]`` drawn alone.

    Raises ModelSpecError, naming the design fields at fault, when a drawn
    column or a model's linear predictor overflows double precision.
    """
    n, p = design.n, design.p
    roles = (_ROLE_X, _ROLE_COVARIATES, _ROLE_MEDIATOR, _ROLE_OUTCOME) if p else (_ROLE_X, _ROLE_MEDIATOR, _ROLE_OUTCOME)
    seeds = np.array(seeds, dtype=np.uint64)
    keys = np.tile([(_SIM_DOMAIN, role) for role in roles], (len(seeds), 1))
    streams = keyed_streams(np.repeat(seeds, len(roles)), keys)

    def uniforms(role, shape):
        return np.array([rng.random(shape) for rng in streams[roles.index(role)::len(roles)]])

    def normals(role, shape):
        # random() is k * 2^-53 for k uniform on [0, 2^53); adding 2^-54
        # rounds as (k + 0.5) * 2^-53 does: strictly inside (0, 1), so the
        # AS 241 quantile never sees an endpoint
        return inverse_normal_cdf(uniforms(role, shape) + 2.0**-54)

    with np.errstate(over="ignore", invalid="ignore"):
        x = _finite(design.mean_x + design.sd_x * normals(_ROLE_X, n), "x", "mean_x and sd_x")
        C = np.empty((len(seeds), n, 0))
        if p:
            C = _finite(np.asarray(design.cov_means) + np.asarray(design.cov_sds) * normals(_ROLE_COVARIATES, (n, p)),
                        "the covariates", "cov_means and cov_sds")
        eta = _finite(_mediator_eta(design.mediator, x, C), "the mediator predictor", "the mediator coefficients")
        m = (uniforms(_ROLE_MEDIATOR, n) < expit(eta)).astype(np.int64)

        # inverse-CDF draw, one threshold at a time: y - 1 counts the
        # cumulative probabilities expit(alpha_j - eta) at or below u
        eta = _finite(_outcome_eta(design.outcome, x, m, C), "the outcome predictor", "the outcome coefficients")
        u = uniforms(_ROLE_OUTCOME, n)
        y = np.ones((len(seeds), n), dtype=np.int64)
        for alpha in design.outcome.alpha:
            y += u >= expit(alpha - eta)
    return _Stack(x, m, y, C, design.outcome.J, np.ones(x.shape))


def _finite(values, what, fields):
    if not np.isfinite(values).all():
        raise ModelSpecError(f"simulating {what} overflows double precision; check {fields}")
    return values


def replicate_seed(seed, r):
    """Derived 64-bit seed for replicate r; a pure function of (seed, r), for
    r in [0, 2**32).  A stack of one of :func:`_replicate_seeds`."""
    return int(_replicate_seeds(seed, [r])[0])


def _replicate_seeds(seed, ids):
    # replicate r's seed is the first word of the (seed, 1, r) stream key,
    # which is SeedSequence's generate_state(1, np.uint64)[0]
    return stream_keys(seed, np.column_stack([np.full(len(ids), _REPLICATE_DOMAIN), ids]))[:, 0]


@dataclass(frozen=True, eq=False)
class MonteCarloSummary:
    """Per-effect estimate collection across replicates.

    ``estimates`` has one row per successful replicate (in replicate order)
    and one column per entry of ``labels``; ``mean`` and ``sd`` summarise its
    columns, ``sd`` by the bootstrap's sample-SD rule (NaN, absent, with
    fewer than two successful replicates).  Replicates whose fits failed are
    listed in ``failed_replicates`` and excluded, never silently redrawn.
    """

    replications: int
    labels: tuple[tuple[str, str], ...]
    mean: np.ndarray
    sd: np.ndarray
    estimates: np.ndarray
    replicate_ids: tuple[int, ...]
    failed_replicates: tuple[int, ...]

    def __post_init__(self):
        for arr in (self.mean, self.sd, self.estimates):
            arr.flags.writeable = False

    @property
    def n_failures(self):
        return len(self.failed_replicates)


def monte_carlo_study(design: SimulationDesign, replications, query: EffectQuery) -> MonteCarloSummary:
    """Simulate, fit both models, and evaluate the effect table, repeatedly.

    Replicate r draws its data from the stream keyed (design.seed, r), so the
    collection is reproducible bitwise and prefix-stable in the replication
    count.  Replicates are simulated, fitted and evaluated in stacks of about
    12,000 records, as arrays; each one's dataset is bitwise that of
    ``simulate_dataset``, its fits those of ``fit_mediator``/``fit_outcome``
    on it, and its effects those of ``effect_table`` on their models.
    """
    replications = _whole(replications, "replications", 1)
    if len(query.c) != design.p:
        raise DimensionError(f"query has {len(query.c)} covariate(s) but design has {design.p}")

    seeds = _replicate_seeds(design.seed, range(replications))
    estimates, errors = _stacked_effects(query, replications, design.n,
                                        lambda ids: _distinct(_simulate_stack(design, seeds[ids])))
    if not estimates.shape[0]:
        raise DegenerateDataError(f"all {replications} replicates failed to fit")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sd = estimates.mean(axis=0), _sample_sd(estimates)
    _check_summary(query, estimates, mean, sd)
    return MonteCarloSummary(
        replications=replications,
        labels=effect_labels(design.outcome.J),
        mean=mean,
        sd=sd,
        estimates=estimates,
        replicate_ids=tuple(r for r, error in enumerate(errors) if error is None),
        failed_replicates=tuple(r for r, error in enumerate(errors) if error is not None),
    )
