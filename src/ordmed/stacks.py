"""Stacks of datasets: the array layout every fit runs on.

A stack holds S datasets of n records on a leading axis.  A dataset without
a repeated record is held as its records, in their own order, with unit
weights.  A dataset that repeats a record is held as its distinct records,
in lexicographic (x, m, y, c) order with -0.0 read as 0.0, with their
counts as frequency weights: only about 63% of a bootstrap resample's
records are distinct.  It is padded with zero-weight copies of its last record to
a length that depends on its (n, d) alone, so a problem's sums do not depend
on its neighbours, and every length of a stack is fitted as a stack of its
own.  The bootstrap builds its resamples from one sort of the data
(``_resampled``), and a single fit or a Monte Carlo stack compresses the
datasets that repeat a record (``_distinct``), so both routes build the same
arrays for the same records.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class _Stack(NamedTuple):
    """S datasets of n records each with J levels, stacked on a leading axis:
    x, m, y and the records' frequency weights of shape (S, L), covariates of
    shape (S, L, p).  A dataset is fitted on its first ``_padded_lengths(n,
    d)`` records, d of them with a positive weight, so L may run past it."""

    x: np.ndarray
    m: np.ndarray
    y: np.ndarray
    covariates: np.ndarray
    J: int
    weights: np.ndarray

    @classmethod
    def of(cls, datasets):
        columns = [np.array([getattr(d, f) for d in datasets]) for f in ("x", "m", "y", "covariates")]
        return _distinct(cls(*columns, datasets[0].J, np.ones(columns[0].shape)))

    @property
    def n(self):
        """Records per dataset: the total weight of a problem."""
        return int(self.weights[0].sum())


def _record_groups(data):
    """The distinct records of a dataset in lexicographic (x, m, y, c) order,
    with -0.0 read as 0.0: their columns (x, m, y, covariates), and per
    record the index of its distinct record.  The levels stay mixed, as in
    a record order: ``bincount`` over records sorted by level took 1.8x as
    long (one bin's running sum is a chain of dependent adds)."""
    x, C = data.x + 0.0, data.covariates + 0.0
    keys = (*C.T[::-1], data.y, data.m, x)  # lexsort's last key is its first
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    first = order[new]
    return (x[first], data.m[first], data.y[first], C[first]), group


def _padded_lengths(n, d):
    """The number of records a dataset of n records, d of them distinct, is
    fitted on: the shortest rung of the ladder n, ceil(0.7 n), ceil(0.7
    ceil(0.7 n)), ... (down to 3) that holds d.  It depends on (n, d) alone,
    so a problem's sums do not depend on its neighbours, and nearly every
    bootstrap resample of n records shares one rung (about 0.63 n are
    distinct)."""
    rungs = [n]
    while np.min(d) <= (shorter := -(-7 * rungs[-1] // 10)) < rungs[-1]:
        rungs.append(shorter)
    rungs = np.array(rungs[::-1])
    return rungs[np.searchsorted(rungs, d)]


def _resampled(data, distinct, group, idx):
    """The stack of the resamples ``idx`` (S, n) of ``data``, whose distinct
    records and record groups are ``_record_groups(data)``.  A resample that
    repeats a record holds its distinct records in their order with their
    counts as weights, then zero-weight copies of its last one; a resample
    without a repeat holds its records in draw order, with unit weights.  So
    a resample's problem is the one ``_Stack.of`` makes of
    ``data.subset(idx[s])``."""
    S, n = idx.shape
    G = len(distinct[0])
    counts = np.bincount((group[idx] + np.arange(0, S * G, G)[:, None]).ravel(), minlength=S * G)
    present = counts.reshape(S, G) > 0
    d = np.count_nonzero(present, axis=1)
    L = _padded_lengths(n, d).max()
    last = np.minimum(np.arange(L), d[:, None] - 1)  # a resample's own records, then its last one again
    pick = np.flatnonzero(present)[(np.cumsum(d) - d)[:, None] + last]  # into counts
    weights = np.multiply(counts[pick], np.arange(L) < d[:, None], dtype=float)
    x, m, y, C = (column[pick - np.arange(0, S * G, G)[:, None]] for column in distinct)
    plain = np.flatnonzero(d == n)  # then L == n
    if plain.size:
        for values, column in zip((x, m, y, C), (data.x, data.m, data.y, data.covariates)):
            values[plain] = column[idx[plain]]
        weights[plain] = 1.0
    return _Stack(x, m, y, C, data.J, weights)


def _distinct(stack: _Stack):
    """A stack of datasets held as their records with unit weights, each one
    that repeats a record now held on its distinct records with counts, as
    ``_resampled`` holds it.  Only datasets with a tie in x are sorted."""
    S, n = stack.x.shape
    xs = np.sort(stack.x, axis=1)
    tied = np.flatnonzero((xs[:, 1:] == xs[:, :-1]).any(axis=1))
    if not tied.size:
        return stack
    columns = [np.array(a) for a in (stack.x, stack.m, stack.y, stack.covariates, stack.weights)]
    for s in tied.tolist():
        data = _Stack(*(a[s] for a in columns[:4]), stack.J, None)
        one = _resampled(data, *_record_groups(data), np.arange(n)[None])
        L = one.x.shape[1]
        for a, b in zip(columns, (one.x, one.m, one.y, one.covariates, one.weights)):
            a[s, :L] = b[0]
            a[s, L:] = b[0, L - 1]
        columns[4][s, L:] = 0.0
    return _Stack(*columns[:4], stack.J, columns[4])


def _length_classes(stack: _Stack):
    """Per length L that problems of the stack are fitted on, the rows of
    those problems and their stack of L records, contiguous."""
    w = stack.weights
    lengths = _padded_lengths(stack.n, np.count_nonzero(w, axis=1))
    for L in sorted(set(lengths.tolist())):  # np.unique would import numpy.ma, 25 ms of a CLI call
        rows = np.flatnonzero(lengths == L)
        if len(rows) == len(lengths) and L == w.shape[1]:
            yield rows, stack
        else:
            yield rows, _Stack(*(a[rows, :L] for a in (stack.x, stack.m, stack.y, stack.covariates)), stack.J,
                               w[rows, :L])
