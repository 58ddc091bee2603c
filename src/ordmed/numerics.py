"""Low-level numeric kernels: stable logistic maps, the normal quantile, and
seed-keyed random streams.

Everything here accepts scalars or arrays and never overflows for any finite
argument; fitted predictors beyond +-700 occur routinely in bootstrap resamples.
"""

from __future__ import annotations

import numpy as np


def expit(z):
    """Logistic function 1 / (1 + exp(-z)), computed branch-wise so that
    exp() is only ever evaluated at non-positive arguments."""
    z, ez = _exp_neg_abs(z)
    out = np.where(z >= 0.0, *_expit_branches(ez))
    return float(out) if out.ndim == 0 else out


def expit_pair(z):
    """(expit(z), expit(-z)) for an array z from one exponential; each equals
    the corresponding expit call exactly."""
    z, ez = _exp_neg_abs(z)
    large, small = _expit_branches(ez)
    return np.where(z >= 0.0, large, small), np.where(z <= 0.0, large, small)


def log1pexp(z):
    """log(1 + exp(z)) without overflow; equals z + log1p(exp(-z)) for z > 0."""
    out = _log1pexp(*_exp_neg_abs(z))
    return float(out) if out.ndim == 0 else out


def log1pexp_expit(z):
    """(log1pexp(z), expit(z)) for an array z from one exponential; each
    equals the corresponding call exactly."""
    z, ez = _exp_neg_abs(z)
    return _log1pexp(z, ez), np.where(z >= 0.0, *_expit_branches(ez))


def _exp_neg_abs(z):
    # the one exponential of every map here: exp(-|z|) is never above 1
    z = np.asarray(z, dtype=float)
    return z, np.exp(-np.abs(z))


def _expit_branches(ez):
    # 1 / (1 + ez) and ez / (1 + ez): expit(z) for z >= 0 and for z <= 0
    denom = 1.0 + ez
    return 1.0 / denom, ez / denom


def _log1pexp(z, ez):
    return np.maximum(z, 0.0) + np.log1p(ez)


# Rational approximations from Wichura's PPND16 (algorithm AS 241): the normal
# quantile to ~1e-16 relative accuracy on (0, 1).  Coefficients are listed
# highest degree first for np.polyval.
_AS241_A = (
    2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
    4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
    1.3314166789178437745e2, 3.3871328727963666080e0,
)
_AS241_B = (
    5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
    2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
    4.2313330701600911252e1, 1.0,
)
_AS241_C = (
    7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
    1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
    4.63033784615654529590e0, 1.42343711074968357734e0,
)
_AS241_D = (
    1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
    1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
    2.05319162663775882187e0, 1.0,
)
_AS241_E = (
    2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
    2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
    5.46378491116411436990e0, 6.65790464350110377720e0,
)
_AS241_F = (
    2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
    7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
    5.99832206555887937690e-1, 1.0,
)


def inverse_normal_cdf(p):
    """Standard-normal quantile function (AS 241 / PPND16 rational minimax fit).

    Accepts scalars or arrays with entries strictly inside (0, 1).
    """
    p_in = np.asarray(p, dtype=float)
    flat = np.atleast_1d(p_in).astype(float).ravel()
    if flat.size and (np.min(flat) <= 0.0 or np.max(flat) >= 1.0):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    q = flat - 0.5
    out = np.empty_like(flat)

    central = np.abs(q) <= 0.425
    if central.any():
        r = 0.180625 - q[central] * q[central]
        out[central] = q[central] * np.polyval(_AS241_A, r) / np.polyval(_AS241_B, r)

    tails = ~central
    if tails.any():
        qt = q[tails]
        r = np.sqrt(-np.log(np.where(qt < 0.0, flat[tails], 1.0 - flat[tails])))
        near = r <= 5.0
        x = np.empty_like(r)
        rn = r[near] - 1.6
        x[near] = np.polyval(_AS241_C, rn) / np.polyval(_AS241_D, rn)
        rf = r[~near] - 5.0
        x[~near] = np.polyval(_AS241_E, rf) / np.polyval(_AS241_F, rf)
        out[tails] = np.where(qt < 0.0, -x, x)

    out = out.reshape(np.shape(p_in))
    return float(out) if out.ndim == 0 else out


def keyed_stream(seed, *key):
    """Independent counter-based generator for (seed, *key).

    Streams are identified purely by their key, never by draw order, so any
    subset of them can be consumed in any order (or in parallel) without
    changing what each one yields.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
