"""Exact and empirical conditional value-at-risk of scalar random costs.

The empirical CVaR is the minimum over t of the piecewise-linear convex
objective t + (1/(N*alpha)) * sum([v_j - t]_+). We solve it exactly by the
order-statistic closed form: the mean of the worst alpha-fraction, with an
interpolated term when N*alpha is fractional. The tail is summed in
ascending order by numpy's pairwise `np.add.reduce` and divided by N once,
with no BLAS call, so the bits do not depend on the BLAS thread count.
Per-path offsets select that top-ceil(alpha N) tail in O(N) per row set,
bitwise equal to sorting all N draws. A linear-programming route,
`empirical_cvar_lp`, is provided for cross-checking; it is the package's
only user of SciPy and imports SciPy's optimizer on its first call.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RiskLevel",
    "SampleBatch",
    "CvarEstimate",
    "empirical_cvar",
    "empirical_cvar_lp",
    "cvar_uniform_interval",
]

# Probability-accumulation slack when locating quantile/tail indices.
_PROB_TOL = 1e-12


@dataclass(frozen=True)
class RiskLevel:
    """Risk-aversion level; small alpha means high risk-aversion."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"risk level must lie strictly inside (0, 1), got {self.alpha}")


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """I.i.d. scalar draws, held as a read-only 1-D float array."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"sample batch must be one-dimensional, got shape {arr.shape}")
        if len(arr) == 0:
            raise ValueError("sample batch must contain at least one draw")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample batch contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class CvarEstimate:
    value: float
    t_star: float


@functools.lru_cache
def _tail_index(n: int, alpha: float) -> tuple[int, float]:
    """First index k at which n equal draws' descending tail mass reaches alpha, and the mass before k.

    The masses are all n running sums of 1/n; the reducer asks before it
    takes a row, so they never coincide with a held batch."""
    cum = np.cumsum(np.full(n, 1.0 / n))
    k = min(int(np.searchsorted(cum, alpha - _PROB_TOL, side="left")), n - 1)
    return k, float(cum[k - 1]) if k > 0 else 0.0


def cvar_from_values(values: np.ndarray, alpha: float) -> tuple[float, float]:
    """Empirical CVaR (value, t*) of raw draws at level alpha.

    The value is the mean of the upper-alpha tail: sort the draws
    descending, take mass 1/N per draw until alpha is reached (the tail's
    ascending pairwise sum over N), splitting the boundary draw
    proportionally. t* is the smallest draw v with P(Z <= v) >= 1 - alpha.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    v = values[np.argsort(-values, kind="stable")]
    k, mass_before = _tail_index(n, alpha)
    # The tail in ascending order, as cvar_of_row_stream sums it; empty when k = 0.
    value = (np.add.reduce(v[:k][::-1]) / n + (alpha - mass_before) * v[k]) / alpha
    # Left-side (1 - alpha)-quantile from the ascending CDF.
    t_star = float(v[n - 1 - _tail_index(n, 1.0 - alpha)[0]])
    return float(value), t_star


@functools.lru_cache
def _row_plan(row_sets: tuple[tuple[int, ...], ...]):
    """The distinct nonempty row sets in first-seen order; each row set's
    index into them (an empty set's is one past the end); and, per row up to
    the last one a set names, the sets whose last row it is and the rows
    read last there (a row no set reads, at its own arrival)."""
    sets = tuple(dict.fromkeys(rows for rows in row_sets if rows))
    if any(min(rows) < 0 for rows in sets):
        raise ValueError("row sets name rows by their nonnegative index")
    columns = np.array([sets.index(rows) if rows else len(sets) for rows in row_sets], dtype=np.intp)
    last = [max(rows) for rows in sets]
    use = [max([t for rows, t in zip(sets, last) if r in rows], default=r) for r in range(max(last, default=-1) + 1)]
    steps = tuple((tuple(u for u, t in enumerate(last) if t == i), tuple(r for r, t in enumerate(use) if t == i))
                  for i in range(len(use)))
    return sets, columns, steps


def cvar_of_row_stream(rows: Iterable[np.ndarray], shape: tuple[int, int], row_sets: Sequence[Sequence[int]],
                       alpha: float) -> np.ndarray:
    """cvar_from_values' value of each row set's sum in each of R draw
    matrices, bit for bit, without t*: an (R, len(row_sets)) array from the
    matrices' rows, shape = (R, N) each, taken in order from `rows`. An
    empty set gives +0.0; equal sets are reduced once, when their last row
    arrives. Each row is dropped after the last set that reads it (one that
    no set reads, on arrival) and no other name holds it, so it is freed
    before the next arrives. A set naming a row the stream never yields is a
    ValueError. One (R, N) buffer sums one set at a time, its rows added
    left to right (a lone row plus 0.0); one partition moves the top
    ceil(alpha N) entries of each sum row to its end, one sort orders those
    tails ascending, and one np.add.reduce over the (R, k) tail view gives
    each row's pairwise tail sum with its one-row bits. The rows stay
    unchanged; a zero value, whose sign depends on the index order of tied
    +-0 sums, is recomputed by the sort route."""
    n_reps, n = shape
    k, mass_before = _tail_index(n, alpha)
    sets, columns, steps = _row_plan(tuple(map(tuple, row_sets)))
    sums = np.empty((n_reps, n))
    values = np.zeros((len(sets) + 1, n_reps))  # the last row is the empty set's
    rows = iter(rows)
    held = {}
    for i, (due, done) in enumerate(steps):
        try:
            held[i] = next(rows)
        except StopIteration:
            raise ValueError(f"a row set names row {len(steps) - 1}; the stream yielded {i} rows") from None
        for u in due:
            set_rows = sets[u]
            # + 0.0 changes only a -0.0
            np.add(held[set_rows[0]], held[set_rows[1]] if len(set_rows) > 1 else 0.0, out=sums)
            for row in set_rows[2:]:
                np.add(sums, held[row], out=sums)
            sums.partition(n - k - 1, axis=1)
            tail = sums[:, n - k:]
            tail.sort(axis=1)
            value = np.add.reduce(tail, axis=1, out=values[u])
            value /= n
            value += (alpha - mass_before) * sums[:, n - k - 1]
            value /= alpha
            if np.count_nonzero(value) < n_reps:
                for j in np.flatnonzero(value == 0.0):
                    value[j] = cvar_from_values(functools.reduce(np.add, [held[r][j] for r in set_rows]), alpha)[0]
        for row in done:
            del held[row]
    collections.deque(rows, maxlen=0)  # rows no set reads, each dropped on arrival
    return values[columns].T


def empirical_cvar(samples: SampleBatch, alpha: RiskLevel) -> CvarEstimate:
    """Exact minimum of t + (1/(N*alpha)) * sum([v_j - t]_+) over t.

    Computed by the order-statistic closed form; t* is reported as the left
    endpoint of the optimizer interval (the value-at-risk).
    """
    return CvarEstimate(*cvar_from_values(samples.values, alpha.alpha))


def cvar_uniform_interval(lo: float, hi: float, alpha: RiskLevel) -> float:
    """CVaR of U(lo, hi): the mean of its upper-alpha tail."""
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    return hi - alpha.alpha * (hi - lo) / 2.0


def empirical_cvar_lp(samples: SampleBatch, alpha: RiskLevel) -> CvarEstimate:
    """Empirical CVaR by the linear program

        min  t + (1/(N*alpha)) * sum_j y_j
        s.t. y_j >= v_j - t,  y_j >= 0.

    Independent of the order-statistic route; agrees with it to 1e-10.
    SciPy's optimizer is imported here, on the first call, so that the
    rest of the package never loads SciPy.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    v = samples.values
    n = len(v)
    a = alpha.alpha
    # Variables: (t, y_1..y_N).
    c = np.concatenate([[1.0], np.full(n, 1.0 / (n * a))])
    # Row j is -t - y_j, in CSR from its arrays: memory grows as N rather than N^2.
    cols = np.column_stack((np.zeros(n, dtype=int), np.arange(1, n + 1))).ravel()
    a_ub = sparse.csr_matrix((np.full(2 * n, -1.0), cols, np.arange(0, 2 * n + 1, 2)), shape=(n, n + 1))
    b_ub = -v
    bounds = [(None, None)] + [(0.0, None)] * n
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"CVaR linear program failed: {res.message}")
    return CvarEstimate(value=float(res.fun), t_star=float(res.x[0]))
