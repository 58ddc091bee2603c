"""Low-level numeric kernels: stable logistic maps, the normal quantile, and
seed-keyed random streams.

A stream keyed by (seed, *key) is the Philox generator of
``SeedSequence(entropy=seed, spawn_key=key)``.  ``stream_keys`` derives the
Philox keys of a whole stack of streams from SeedSequence's published hash
in one array pass, without building a SeedSequence per stream; the streams
themselves are SeedSequence's, bit for bit.

Everything here accepts scalars or arrays and never overflows for any finite
argument; fitted predictors beyond +-700 occur routinely in bootstrap resamples.

The logistic maps never branch on the sign of z.  Of up = exp(min(z, 0)) and
down = exp(min(-z, 0)), one is exp(-|z|) and the other 1, so up / (up + down),
down / (up + down) and min(up, down) are bitwise the branch-wise expit(z),
expit(-z) and exp(-|z|).  exp() is slow below -708 (subnormal or zero, -inf
included): 8-180 ns an element against under 2 ns (numpy 2.4, AVX-512 Xeon).
"""

from __future__ import annotations

import functools

import numpy as np


def expit(z):
    """Logistic function 1 / (1 + exp(-z)) as up / (up + down)."""
    up, down = _exps(z)
    out = up / (up + down)
    return float(out) if out.ndim == 0 else out


def expit_pair(z, keep=1.0, out=None):
    """(expit(z), expit(-z)) for an array z.  ``keep``, 1.0 or an array of
    1.0 and 0.0 that broadcasts against z, may be 0.0 where z is +inf: down
    is then exp(-0.0) * 0, the same 0, without exp's slow path at -inf.
    ``out``, a float array of shape (3,) + z.shape, receives the pair in
    out[0] and out[1] and is scratch in out[2]; by default it is allocated."""
    z = np.asarray(z, dtype=float)
    out = np.empty((3,) + z.shape) if out is None else out
    e = out[:2]
    np.multiply(keep, -np.finfo(float).max, out=e[0, ...])  # down's floor, until up overwrites it
    _exps(z, e[0, ...], e)
    e[1, ...] *= keep
    e /= np.add(e[0], e[1], out=out[2, ...])
    return e[0, ...], e[1, ...]


def log1pexp(z):
    """log(1 + exp(z)) without overflow; equals z + log1p(exp(-z)) for z > 0."""
    out = log1pexp_expit(z)[0]
    return float(out) if out.ndim == 0 else out


def log1pexp_expit(z, out=None):
    """(log1pexp(z), expit(z)) for an array z; exp(-|z|) is min(up, down).
    ``out``, a float array of shape (4,) + z.shape, receives the pair in
    out[0] and out[1] and is scratch in out[2:]; by default it is allocated."""
    z = np.asarray(z, dtype=float)
    out = np.empty((4,) + z.shape) if out is None else out
    up, down = _exps(z, None, out[2:])
    log_norm, prob = out[0, ...], out[1, ...]
    np.log1p(np.minimum(up, down, out=prob), out=prob)
    np.add(np.maximum(z, 0.0, out=log_norm), prob, out=log_norm)
    np.divide(up, np.add(up, down, out=prob), out=prob)
    return log_norm, prob


def _exps(z, floor=None, out=None):
    # up and down stacked on the first axis of out (by default a new one),
    # down's argument at least floor; down comes first, so floor may be out[0]
    z = np.asarray(z, dtype=float)
    e = np.empty((2,) + z.shape) if out is None else out
    down = np.minimum(np.negative(z, out=e[1, ...]), 0.0, out=e[1, ...])
    if floor is not None:
        np.maximum(down, floor, out=down)
    np.minimum(z, 0.0, out=e[0, ...])
    return np.exp(e, out=e)


# Rational approximations from Wichura's PPND16 (algorithm AS 241): the normal
# quantile to ~1e-16 relative accuracy on (0, 1).  Coefficients are listed
# highest degree first.
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

    Accepts scalars or arrays with entries strictly inside (0, 1); any other
    entry, NaN included, raises ValueError.
    """
    p_in = np.asarray(p, dtype=float)
    flat = p_in.ravel()
    if flat.size and not (np.min(flat) > 0.0 and np.max(flat) < 1.0):  # NaN fails both
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    q = flat - 0.5
    # the central rational on every lane: on a tail lane r lies in
    # (-0.069375, 0), where B stays above 0.002 (its largest root is
    # -0.0729), so no lane overflows or divides by zero; the tails then
    # overwrite their lanes
    r = q * q
    np.subtract(0.180625, r, out=r)
    out = _horner(_AS241_A, r)
    out *= q
    out /= _horner(_AS241_B, r)

    tails = np.flatnonzero(np.abs(q) > 0.425)
    if tails.size:
        pt = flat[tails]
        r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        near = r <= 5.0
        x = np.empty_like(r)
        rn = r[near] - 1.6
        x[near] = _horner(_AS241_C, rn) / _horner(_AS241_D, rn)
        rf = r[~near] - 5.0
        x[~near] = _horner(_AS241_E, rf) / _horner(_AS241_F, rf)
        out[tails] = np.where(pt < 0.5, -x, x)

    out = out.reshape(p_in.shape)
    return float(out) if out.ndim == 0 else out


def _horner(coefs, r):
    # np.polyval in place: its first step, 0 * r + c0, is exactly c0 for finite r
    acc = r * coefs[0]
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= r
        acc += c
    return acc


# SeedSequence's hash (numpy.random.bit_generator, O'Neill's seed_seq_fe):
# the entropy words are hashed into a pool of four 32-bit words and mixed,
# then hashed out into the state.  Every stream's key is a SeedSequence's
# generate_state(2, np.uint64); computing the hash on arrays derives a whole
# stack of keys in one pass, without a SeedSequence object per stream.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def stream_keys(seeds, keys):
    """Philox keys of the streams (seeds[i], *keys[i]): row i of the (N, 2)
    uint64 result is ``SeedSequence(entropy=seeds[i], spawn_key=keys[i])
    .generate_state(2, np.uint64)``.

    ``seeds`` is one whole number or N of them in [0, 2**64); ``keys`` is
    (N, k) with whole entries in [0, 2**32).  Other values raise ValueError.
    Each 32-bit step runs in uint64 and is masked back to 32 bits.
    """
    words = _words(keys, 32, "stream key entries").T
    seeds = np.broadcast_to(_words(seeds, 64, "seeds"), words.shape[1:])
    zeros = np.zeros_like(seeds)
    hash_a = _constants(_INIT_A, _MULT_A, 17 + 4 * len(words))
    # the seed's 32-bit words, low first, padded with zeros to the pool's
    # four (as SeedSequence pads them, or hashes zeros for them), are hashed
    # into the pool; every pool word is mixed into every other; then each
    # key word is hashed and mixed into every pool word
    pool = _hashmix(np.stack([seeds & _MASK32, seeds >> 32, zeros, zeros]), hash_a[:5])
    at = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_a[at:at + 4]))
        at += 3
    for word in words:
        pool = _mix(pool, _hashmix(word, hash_a[at:at + 5]))
        at += 4
    state = _hashmix(pool, _constants(_INIT_B, _MULT_B, 5))
    return (state[0::2] | (state[1::2] << 32)).T


def _words(values, bits, what):
    # values as uint64, each a whole number in [0, 2**bits), else ValueError
    arr = np.asarray(values)
    if arr.size and not (arr.dtype.kind in "iu" and arr.min() >= 0 and arr.max() < 2**bits):
        raise ValueError(f"{what} must be whole numbers in [0, 2**{bits})")
    return arr.astype(np.uint64)


def _constants(init, mult, count):
    # the hash constant before each of count - 1 successive steps and after
    # the last, as a column
    return np.array([init * pow(mult, t, 1 << 32) & _MASK32 for t in range(count)], dtype=np.uint64)[:, None]


def _hashmix(value, consts):
    # one hashmix step per row of the result: value ^ c[i], times c[i + 1]
    value = ((value ^ consts[:-1]) * consts[1:]) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ (result >> 16)


def keyed_streams(seeds, keys):
    """Independent counter-based generators for (seeds[i], *keys[i]), with
    ``seeds`` and ``keys`` as in :func:`stream_keys`.

    Streams are identified purely by their key, never by draw order, so any
    subset of them can be consumed in any order (or in parallel) without
    changing what each one yields.  Each is a Philox generator keyed by the
    SeedSequence of (seed, key).
    """
    key_type = _key_type()
    return [np.random.Generator(np.random.Philox(key_type(key))) for key in stream_keys(seeds, keys)]


@functools.cache
def _key_type():
    # an ISeedSequence that hands Philox a precomputed key, made on first use:
    # importing numpy.random along with this module would cost commands that
    # draw nothing about 20 ms, and every command about 0.5 MiB of peak RSS
    class Key(np.random.bit_generator.ISeedSequence):
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, np.dtype(dtype)) != (2, np.uint64):
                raise ValueError("a precomputed stream key holds exactly generate_state(2, np.uint64)")
            return self.key

    return Key


def keyed_stream(seed, *key):
    """The generator of (seed, *key): a stack of one of :func:`keyed_streams`,
    which raises ValueError for any seed or key entry it refuses."""
    return keyed_streams(seed, [key])[0]
