"""Shared fixtures: the three reference study designs and random model factories."""

import numpy as np
import pytest

from ordmed import MediatorModel, OutcomeModel

# Reference parameterizations used across the suite: two n=500 study designs
# (J=3 and J=5) and the sparse J=5, n=300 design, all evaluated at the
# contrast xstar=2 -> x=3.5.
J3_MEDIATOR = MediatorModel(-1.0, 0.5)
J3_OUTCOME = OutcomeModel((2.5, 5.5), 1.1, 0.7, 0.5)
J5_MEDIATOR = MediatorModel(-1.0, 0.5)
J5_OUTCOME = OutcomeModel((0.5, 2.5, 4.5, 5.5), 0.5, 1.3, 0.6)
SPARSE_MEDIATOR = MediatorModel(-1.0, 0.9)
SPARSE_OUTCOME = OutcomeModel((-0.9, 0.9, 2.2, 3.5), 0.5, 1.3, 0.6)

X_ACTIVE = 3.5
X_BASELINE = 2.0

# Published reference values (3 decimals; 2 for the controlled direct effect).
J3_TRUE_EFFECTS = {
    "nde": (1.588, 1.878),
    "nie": (0.378, 0.381),
    "tce": (1.966, 2.259),
    "cde": (2.40, 1.65),
}
J3_MC_MEAN = {
    "nde": (1.612, 1.901),
    "nie": (0.379, 0.384),
    "tce": (1.991, 2.285),
    "cde": (2.435, 1.679),
}
J3_MC_SD = {
    "nde": (0.157, 0.160),
    "nie": (0.060, 0.064),
    "tce": (0.159, 0.173),
    "cde": (0.222, 0.214),
}
J5_TRUE_EFFECTS = {
    "nde": (0.720, 0.695, 1.160, 1.388),
    "nie": (0.441, 0.511, 0.443, 0.372),
    "tce": (1.161, 1.205, 1.603, 1.760),
    "cde": (1.65, 0.75),
}
SPARSE_TRUE_EFFECTS = {
    "nde": (0.819, 0.751, 0.781, 1.048),
    "nie": (0.912, 0.913, 0.864, 0.681),
    "tce": (1.730, 1.664, 1.645, 1.729),
    "cde": (1.650, 0.750),
}
# Fitted parameters published for the sparse example, and the effect
# estimates they imply.
SPARSE_FITTED_MEDIATOR = MediatorModel(-1.0005, 0.8228)
SPARSE_FITTED_OUTCOME = OutcomeModel((-1.2887, 0.7009, 2.1666, 3.5760), 0.5344, 0.8088, 0.6939)
SPARSE_FITTED_EFFECTS = {
    "nde": (0.906, 0.855, 0.892, 1.205),
    "nie": (0.801, 0.811, 0.790, 0.640),
    "tce": (1.707, 1.666, 1.683, 1.845),
    "cde": (1.842, 0.802),
}


def random_model_pair(rng, J=None, p=0):
    """Valid random (mediator, outcome) models with moderate predictors so
    that logits stay well away from saturation."""
    if J is None:
        J = int(rng.integers(2, 6))
    alpha = np.sort(rng.uniform(-4.0, 4.0, size=J - 1)) + 0.05 * np.arange(J - 1)
    mediator = MediatorModel(
        rng.uniform(-2, 2), rng.uniform(-2, 2), tuple(rng.uniform(-1, 1, size=p))
    )
    outcome = OutcomeModel(
        tuple(alpha),
        rng.uniform(-2, 2),
        rng.uniform(-2, 2),
        rng.uniform(-1, 1),
        tuple(rng.uniform(-1, 1, size=p)),
    )
    return mediator, outcome


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def plain_stream(seed, *key):
    """The keyed stream built the documented way: a SeedSequence of (seed,
    key), its Philox and a Generator.  Every keyed draw equals it."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def plain_inverse_normal_cdf(p):
    """AS 241 written plainly: the central and tail entries gathered, each
    rational function through np.polyval.  The quantile must equal it bit
    for bit."""
    from ordmed.numerics import _AS241_A, _AS241_B, _AS241_C, _AS241_D, _AS241_E, _AS241_F

    flat = np.atleast_1d(np.asarray(p, dtype=float)).ravel()
    q = flat - 0.5
    out = np.empty_like(flat)
    central = np.abs(q) <= 0.425
    r = 0.180625 - q[central] * q[central]
    out[central] = q[central] * np.polyval(_AS241_A, r) / np.polyval(_AS241_B, r)
    tails = ~central
    qt = q[tails]
    r = np.sqrt(-np.log(np.where(qt < 0.0, flat[tails], 1.0 - flat[tails])))
    near = r <= 5.0
    x = np.empty_like(r)
    x[near] = np.polyval(_AS241_C, r[near] - 1.6) / np.polyval(_AS241_D, r[near] - 1.6)
    x[~near] = np.polyval(_AS241_E, r[~near] - 5.0) / np.polyval(_AS241_F, r[~near] - 5.0)
    out[tails] = np.where(qt < 0.0, -x, x)
    return out.reshape(np.shape(p))
