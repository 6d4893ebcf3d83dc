"""Finite-dimensional variational inequalities over compact convex sets.

A field is any callable x -> F(x). A feasible set is any object with
`project`, `violation` (None when every constraint is met within
_FEASIBILITY_TOL; else the one violated most), `default_start` and
`dimension`: boxes or products of scaled simplices (the routing game's
flow polytope).
The solver is projection-based extragradient with a step from the field's
Lipschitz constant; the natural residual ||x - proj(x - F(x))|| vanishes
exactly at solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Box",
    "SimplexProduct",
    "ViSolution",
    "spectral_norm",
    "project_simplex",
    "natural_residual",
    "extragradient_solve",
]

_FEASIBILITY_TOL = 1e-9
# Extragradient: step as a fraction of 1/L, residual tolerance, step cap.
_EG_STEP_SCALE = 0.9
_EG_TOL = 1e-9
_EG_MAX_ITER = 200000


def project_simplex(y: np.ndarray, demand: float | np.ndarray) -> np.ndarray:
    """Euclidean projection of y onto {h >= 0, sum(h) = demand}, row by row
    for a stack of equal-length blocks with one demand each.

    Sort-threshold algorithm: sort, cumulative sums from the largest entry
    down, the last index k that passes the threshold test (the block length
    if none does), the shift tau from the top k, then clip. The output does
    not depend on the order of tied entries; zero demand gives exactly 0,
    and a row holding a NaN (with nonzero demand) comes out all NaN.
    """
    y = np.asarray(y, dtype=float)
    rows = y.reshape(-1, y.shape[-1])
    demand = np.asarray(demand, dtype=float).reshape(-1, 1)
    ranks = np.arange(1, rows.shape[1] + 1)
    return _project_rows(rows, demand, ranks, np.arange(len(rows))[:, None]).reshape(y.shape)


def _project_rows(rows: np.ndarray, demand: np.ndarray, ranks: np.ndarray,
                  row_index: np.ndarray) -> np.ndarray:
    """project_simplex of an (m, n) stack, given its (m, 1) demand column,
    ranks = arange(1, n + 1) and row_index = arange(m)[:, None]."""
    u = np.sort(rows, axis=1)[:, ::-1]
    css = np.add.accumulate(u, axis=1)
    # Under gradual underflow u > t exactly when u - t > 0, NaN included.
    cond = u > (css - demand) / ranks
    # argmax finds the first True of the reversed rows, and 0 when none is.
    k = len(ranks) - np.argmax(cond[:, ::-1], axis=1, keepdims=True)
    tau = (css[row_index, k - 1] - demand) / k
    out = np.maximum(rows - tau, 0.0)
    np.copyto(out, 0.0, where=demand == 0.0)
    return out


def _check_dimension(y: np.ndarray, dimension: int, stacked: bool = False) -> np.ndarray:
    """y as a float vector of the dimension, or with `stacked` also as an
    (m, dimension) stack of such vectors; else ValueError."""
    y = np.asarray(y, dtype=float)
    if y.shape != (dimension,) and not (stacked and y.ndim == 2 and y.shape[1] == dimension):
        raise ValueError(f"expected vector of dimension {dimension}, got shape {y.shape}")
    return y


@dataclass
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if self.lo.shape != self.hi.shape:
            raise ValueError("box bounds must have matching shapes")
        for name, bound in (("lo", self.lo), ("hi", self.hi)):
            if not np.isfinite(bound).all():
                raise ValueError(f"box bound {name} is not finite at coordinate "
                                 f"{int(np.argmin(np.isfinite(bound)))}")
        if np.any(self.lo > self.hi):
            raise ValueError("box has empty coordinate range")
        self.dimension = len(self.lo)

    def project(self, y):
        y = _check_dimension(y, self.dimension)
        return np.clip(y, self.lo, self.hi)

    def violation(self, x) -> Optional[str]:
        x = _check_dimension(x, self.dimension)
        excess = np.maximum(self.lo - x, x - self.hi)
        i = int(np.argmax(excess))
        if not excess[i] <= _FEASIBILITY_TOL:
            return f"coordinate {i} is {x[i]}, outside [{self.lo[i]}, {self.hi[i]}]"
        return None

    def default_start(self):
        return 0.5 * (self.lo + self.hi)


@dataclass
class SimplexProduct:
    """Product of scaled simplices {h >= 0, sum(h_block) = demand}.

    Blocks of equal length are grouped once, at construction, with the
    constants of their projection; `project` projects each group's stack of
    blocks in one call. `project` and `contains` also take an (m,
    dimension) stack of points and give each row the bits of its one-point
    call: every step is row by row, elementwise or an exact reduction."""

    blocks: Sequence[tuple[int, float]]

    def __post_init__(self):
        self.blocks = [(int(n), float(d)) for n, d in self.blocks]
        for i, (n, d) in enumerate(self.blocks):
            if n < 1:
                raise ValueError("simplex block needs positive dimension")
            if not np.isfinite(d):
                raise ValueError(f"simplex block {i} has non-finite demand {d}")
            if d < 0:
                raise ValueError("simplex block demand must be nonnegative")
        self.dimension = sum(n for n, _ in self.blocks)
        lengths = np.array([n for n, _ in self.blocks], dtype=int)
        self._demands = demands = np.array([d for _, d in self.blocks])
        self._starts = starts = np.cumsum(lengths) - lengths
        # Per block length n: the coordinates of its blocks, one row each, their
        # demand column, arange(1, n + 1) and the row selector of _project_rows.
        self._groups = [(starts[lengths == n, None] + np.arange(n), demands[lengths == n, None],
                         np.arange(1, n + 1), np.arange(np.count_nonzero(lengths == n))[:, None])
                        for n in np.unique(lengths)]

    def project(self, y):
        y = _check_dimension(y, self.dimension, stacked=True)
        out = np.empty_like(y)
        if y.ndim == 1:  # the extragradient loop's call: kept free of stack handling
            for coords, *constants in self._groups:
                out[coords] = _project_rows(y[coords], *constants)
            return out
        for coords, demand, ranks, _ in self._groups:
            # The group's blocks of every point, as one stack of rows.
            blocks = y[:, coords].reshape(-1, len(ranks))
            out[:, coords] = _project_rows(blocks, np.tile(demand, (len(y), 1)), ranks,
                                           np.arange(len(blocks))[:, None]).reshape(len(y), *coords.shape)
        return out

    def contains(self, x):
        """Whether `violation` finds nothing: one bool for a point, one per
        row of a stack. A NaN coordinate is never contained."""
        x = _check_dimension(x, self.dimension, stacked=True)
        # One reduceat over the flat rows sums each block as a one-point call does.
        offsets = self._starts + self.dimension * np.arange(x.size // self.dimension)[:, None]
        sums = np.add.reduceat(x.ravel(), offsets.ravel()).reshape(*x.shape[:-1], len(self._starts))
        return (np.all(x >= -_FEASIBILITY_TOL, axis=-1)
                & np.all(np.abs(sums - self._demands) <= _FEASIBILITY_TOL, axis=-1))

    def violation(self, x) -> Optional[str]:
        """h >= 0, else the block sums: the constraint violated most (a NaN first), or None."""
        x = _check_dimension(x, self.dimension)
        if self.contains(x):
            return None
        i = int(np.argmin(x))
        if not x[i] >= -_FEASIBILITY_TOL:
            return f"coordinate {i} is {x[i]}, not >= 0"
        sums = np.add.reduceat(x, self._starts)
        b = int(np.argmax(np.abs(sums - self._demands)))
        return f"block {b} sums to {sums[b]}, not its demand {self._demands[b]}"

    def default_start(self):
        # Demand spread uniformly over each block: interior start.
        parts = [np.full(n, d / n) for n, d in self.blocks]
        return np.concatenate(parts)


@dataclass
class ViSolution:
    x_star: np.ndarray
    residual: float
    iterations: int
    converged: bool


def spectral_norm(a: np.ndarray) -> float:
    """Spectral norm ||A||_2, the largest singular value of A."""
    return float(np.linalg.norm(np.asarray(a, dtype=float), 2))


def natural_residual(feasible: Box | SimplexProduct, field: Callable[[np.ndarray], np.ndarray],
                     x: np.ndarray) -> float:
    """||x - proj(x - F(x))||; zero exactly at VI solutions. A point the set
    does not contain is a ValueError, a non-finite F(x) a FloatingPointError."""
    x = np.asarray(x, dtype=float)
    violation = feasible.violation(x)
    if violation is not None:
        raise ValueError(f"point is infeasible: {violation}")
    fx = field(x)
    if not np.all(np.isfinite(fx)):
        raise FloatingPointError(f"field returned non-finite values at x={x}")
    return float(np.linalg.norm(x - feasible.project(x - fx)))


def extragradient_solve(
    feasible: Box | SimplexProduct,
    field: Callable[[np.ndarray], np.ndarray],
    lipschitz: float,
    x0: Optional[np.ndarray] = None,
) -> ViSolution:
    """Extragradient iteration y = proj(x - s F(x)), x+ = proj(x - s F(y)).

    Converges for monotone fields with Lipschitz constant `lipschitz` and
    s < 1/L; the step is s = 0.9 / lipschitz, or 1.0 for a constant field
    (lipschitz 0), so a constant that is not finite and nonnegative is a
    ValueError. A non-finite field value is a FloatingPointError. Stops
    once the natural residual is at most _EG_TOL or after _EG_MAX_ITER
    steps.
    """
    if not 0 <= lipschitz < np.inf:  # NaN fails too
        raise ValueError(f"Lipschitz constant must be finite and nonnegative, got {lipschitz}")
    step = _EG_STEP_SCALE / lipschitz if lipschitz > 0 else 1.0

    x = feasible.project(np.asarray(x0, dtype=float)) if x0 is not None else feasible.default_start()
    for it in range(_EG_MAX_ITER + 1):
        fx = field(x)
        if not np.all(np.isfinite(fx)):
            raise FloatingPointError(f"field returned non-finite values at iteration {it}: x={x}")
        residual = float(np.linalg.norm(x - feasible.project(x - fx)))
        if residual <= _EG_TOL or it == _EG_MAX_ITER:
            break
        y = feasible.project(x - step * fx)
        fy = field(y)
        if not np.all(np.isfinite(fy)):
            raise FloatingPointError(f"field returned non-finite values at iteration {it}: y={y}")
        x = feasible.project(x - step * fy)
    return ViSolution(x_star=x, residual=residual, iterations=it, converged=residual <= _EG_TOL)
