"""Exact and empirical conditional value-at-risk of scalar random costs.

The empirical CVaR is the minimum over t of the piecewise-linear convex
objective t + (1/(N*alpha)) * sum([v_j - t]_+). We solve it exactly by the
order-statistic closed form: the mean of the worst alpha-fraction, with an
interpolated term when N*alpha is fractional. Per-path offsets select that
top-ceil(alpha N) tail in O(N) per path, bitwise equal to sorting all N
draws. A linear-programming route is provided for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

__all__ = [
    "RiskLevel",
    "SampleBatch",
    "CvarEstimate",
    "DiscreteDistribution",
    "empirical_cvar",
    "empirical_cvar_lp",
    "cvar_discrete",
    "cvar_uniform_interval",
    "optimizer_bounds",
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


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite-support distribution given as (value, probability) atoms."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise ValueError("distribution needs at least one atom")
        probs = np.array([p for _, p in self.atoms], dtype=float)
        if np.any(probs < 0):
            raise ValueError("atom probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > _PROB_TOL:
            raise ValueError(f"atom probabilities sum to {probs.sum()}, expected 1")

    @classmethod
    def uniform_over(cls, values) -> "DiscreteDistribution":
        values = np.asarray(values, dtype=float)
        p = 1.0 / len(values)
        return cls(atoms=tuple((float(v), p) for v in values))


def _tail_index(probs: np.ndarray, alpha: float) -> tuple[int, float]:
    """First index k at which the descending tail mass reaches alpha, and the mass before k."""
    cum = np.cumsum(probs)
    k = min(int(np.searchsorted(cum, alpha - _PROB_TOL, side="left")), len(probs) - 1)
    return k, float(cum[k - 1]) if k > 0 else 0.0


def _weighted_cvar(values: np.ndarray, probs: np.ndarray, alpha: float) -> tuple[float, float]:
    """CVaR and left-quantile t* of a finite-support random variable.

    Returns the mean of the upper-alpha tail: sort values descending,
    accumulate probability mass until alpha is reached, splitting the
    boundary atom proportionally. t* is the smallest value v with
    P(Z <= v) >= 1 - alpha.
    """
    order = np.argsort(-values, kind="stable")
    v = values[order]
    p = probs[order]
    k, mass_before = _tail_index(p, alpha)
    value = (float(np.dot(p[:k], v[:k])) + (alpha - mass_before) * v[k]) / alpha

    # Left-side (1 - alpha)-quantile from the ascending CDF.
    va = v[::-1]
    ca = np.cumsum(p[::-1])
    j = int(np.searchsorted(ca, 1.0 - alpha - _PROB_TOL, side="left"))
    j = min(j, len(va) - 1)
    t_star = float(va[j])
    return float(value), t_star


def cvar_from_values(values: np.ndarray, alpha: float) -> tuple[float, float]:
    """Empirical CVaR (value, t*) of raw draws at level alpha."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    return _weighted_cvar(values, np.full(n, 1.0 / n), alpha)


def equal_weight_cvar(n: int, alpha: float) -> Callable[[np.ndarray], float]:
    """cvar_from_values' value for n raw draws, bit for bit, without t*: the
    tail index is fixed once; each call selects the top k + 1 draws in O(n)
    and sorts only the k tail values, descending, as the sort route does.
    The reducer negates into one scratch buffer of its own and selects in
    place, so a call allocates nothing of length n; it leaves its argument
    unchanged and is not reentrant."""
    k, mass_before = _tail_index(np.full(n, 1.0 / n), alpha)
    weights = np.full(k, 1.0 / n)
    neg = np.empty(n)
    tail = neg[:k]

    def reduce(values: np.ndarray) -> float:
        np.negative(values, out=neg)
        neg.partition(k)
        tail.sort()
        return float((np.dot(weights, np.negative(tail, out=tail)) + (alpha - mass_before) * -neg[k]) / alpha)
    return reduce


def empirical_cvar(samples: SampleBatch, alpha: RiskLevel) -> CvarEstimate:
    """Exact minimum of t + (1/(N*alpha)) * sum([v_j - t]_+) over t.

    Computed by the order-statistic closed form; t* is reported as the left
    endpoint of the optimizer interval (the value-at-risk).
    """
    return CvarEstimate(*cvar_from_values(samples.values, alpha.alpha))


def cvar_discrete(dist: DiscreteDistribution, alpha: RiskLevel) -> CvarEstimate:
    """Exact CVaR of a finite-support random variable."""
    values, probs = np.array(dist.atoms, dtype=float).T
    return CvarEstimate(*_weighted_cvar(values, probs, alpha.alpha))


def cvar_uniform_interval(lo: float, hi: float, alpha: RiskLevel) -> float:
    """CVaR of U(lo, hi): the mean of its upper-alpha tail."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    return hi - alpha.alpha * (hi - lo) / 2.0


def empirical_cvar_lp(samples: SampleBatch, alpha: RiskLevel) -> CvarEstimate:
    """Empirical CVaR by the linear program

        min  t + (1/(N*alpha)) * sum_j y_j
        s.t. y_j >= v_j - t,  y_j >= 0.

    Independent of the order-statistic route; agrees with it to 1e-10.
    """
    v = samples.values
    n = len(v)
    a = alpha.alpha
    # Variables: (t, y_1..y_N).
    c = np.concatenate([[1.0], np.full(n, 1.0 / (n * a))])
    # Sparse, so memory grows as N rather than N^2.
    a_ub = sparse.hstack([-np.ones((n, 1)), -sparse.identity(n)], format="csr")
    b_ub = -v
    bounds = [(None, None)] + [(0.0, None)] * n
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"CVaR linear program failed: {res.message}")
    return CvarEstimate(value=float(res.fun), t_star=float(res.x[0]))


def optimizer_bounds(
    f_range_lo: float, f_range_hi: float, alpha: RiskLevel
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Compact intervals containing the CVaR program's optimizer t and its
    objective values: t in [lo, hi] and the objective in
    [lo, lo + (hi - lo)/alpha]."""
    if f_range_lo > f_range_hi:
        raise ValueError(f"inverted cost range [{f_range_lo}, {f_range_hi}]")
    lo, hi = f_range_lo, f_range_hi
    return (lo, hi), (lo, lo + (hi - lo) / alpha.alpha)
