"""A fixed reference job, timed between units to track the host's speed.

    python3 perfbench/probe.py

The machine the benchmark runs on may be a share of a busy host whose speed
drifts by a third from one minute to the next. run.py times this job as a
child before the first unit and after every unit, and divides each unit's
wall by the mean of the two probes around it, so drift common to both
cancels. The job never imports ordmed and must not change: its work mirrors
the program's mix (interpreter start and numpy import, a Python-level loop
over small arrays, text formatting and parsing, large-array arithmetic).
"""

import numpy as np


def _expit(z):
    return 1.0 / (1.0 + np.exp(-z))


def small_arrays(rng, sweeps=100, n=300):
    """Per-row Python loop over a small dataset, as a Newton fit does."""
    x = rng.normal(3.0, 1.3, n)
    y = 1 + (rng.random(n)[:, None] > np.array([0.2, 0.4, 0.6, 0.8])).sum(axis=1)
    cuts = np.array([-0.9, 0.9, 2.2, 3.5])
    total = 0.0
    for sweep in range(sweeps):
        eta = (0.5 + 0.001 * sweep) * x
        for i in range(n):
            up = 1.0 if y[i] == 5 else _expit(cuts[y[i] - 1] - eta[i])
            lo = 0.0 if y[i] == 1 else _expit(cuts[y[i] - 2] - eta[i])
            total += (up * (1.0 - up) - lo * (1.0 - lo)) / max(up - lo, 1e-12)
    return total


def text(rng, rows=40_000):
    """Format rows as CSV text and parse them back."""
    values = rng.normal(size=rows).tolist()
    body = "".join(f"{v!r},{i % 2},{1 + i % 5}\n" for i, v in enumerate(values))
    return sum(float(line.split(",")[0]) for line in body.splitlines())


def large_arrays(rng, rows=200_000, cols=6, sweeps=10):
    """Weighted cross-products over a large design matrix."""
    design = rng.normal(size=(rows, cols))
    total = 0.0
    for sweep in range(sweeps):
        weights = _expit(design @ np.full(cols, 0.1 * sweep))
        total += float(np.trace(design.T @ (design * weights[:, None])))
    return total


if __name__ == "__main__":
    rng = np.random.default_rng(12345)
    small_arrays(rng)
    text(rng)
    large_arrays(rng)
