"""Finite-dimensional variational inequalities over compact convex sets.

A field is any callable x -> F(x). A feasible set is any object with
`project` (of a point, or of an (m, dimension) stack giving each row its
one-point bits), `violation` (None when every constraint is met within
_FEASIBILITY_TOL; else the one violated most), `default_start` and
`dimension`: boxes or products of scaled simplices (the flow polytope).
The solver is projection-based extragradient with a step from a bound on
how the field varies on the set (modulo what its projection ignores),
projecting the residual's and the predictor's points as one stack; the
natural residual ||x - proj(x - F(x))|| vanishes at solutions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Box",
    "SimplexProduct",
    "ViSolution",
    "spectral_norm",
    "natural_residual",
    "extragradient_solve",
]

_FEASIBILITY_TOL = 1e-9
# Extragradient: step as a fraction of 1/L, residual tolerance, step cap.
_EG_STEP_SCALE = 0.9
_EG_TOL = 1e-9
_EG_MAX_ITER = 200000
# The first step of `check`, a power of two, then each doubling. On Sioux Falls a routing check
# costs 10-15 steps and first certified at step 128 (of 507-513) on the default game's kappa and
# at 512-1,024 (of 1,178-6,486) on a partly congested game's: one or two failed checks each.
_EG_FIRST_CHECK = 64


@functools.lru_cache(maxsize=64)
def _last_entries(shape: tuple[int, ...]) -> np.ndarray:
    """The flat index of each block's last entry in a C-ordered (..., n)
    stack of the shape, as a read-only (..., 1) table."""
    n = shape[-1]
    table = np.arange(n - 1, math.prod(shape), n).reshape(shape[:-1] + (1,))
    table.flags.writeable = False
    return table


def _project_blocks(blocks: np.ndarray, demand: np.ndarray, ranks: np.ndarray, zero_demand: bool) -> np.ndarray:
    """Euclidean projection of each of a (..., n) stack of blocks onto
    {h >= 0, sum(h) = demand}, with demand broadcast to (..., 1), float
    ranks = arange(1, n + 1) and whether some demand is 0.

    Sort-threshold algorithm: sort, cumulative sums from the largest entry
    down, the last index k that passes the threshold test (the block length
    if none does), the shift tau from the top k, then clip. The output does
    not depend on the order of tied entries; zero demand gives exactly 0,
    and a row holding a NaN (with nonzero demand) comes out all NaN.
    """
    u = np.sort(blocks, axis=-1)[..., ::-1]
    # Thresholds t_j = (css_j - demand) / j; tau is t at the last passing index.
    t = np.add.accumulate(u, axis=-1)
    t -= demand
    t /= ranks
    # Under gradual underflow u > t exactly when u - t > 0, NaN included.
    # argmax finds the first True of the reversed rows, and 0 when none is.
    back = (u > t)[..., ::-1].argmax(axis=-1, keepdims=True)
    out = blocks - t.ravel()[_last_entries(t.shape) - back]  # flat index into t
    np.maximum(out, 0.0, out=out)
    if zero_demand:
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
        y = _check_dimension(y, self.dimension, stacked=True)
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

    Blocks of equal length are grouped once, with the constants of their
    projection; `project` projects each group's blocks of all points (a
    point is a stack of one) as one stack. Each row of an (m, dimension)
    stack gets its one-point bits from `project` and `contains`."""

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
        # Per block length n: the coordinates of its blocks, one row each (None when they are
        # the whole vector in order), their demand column, arange(1.0, n + 1) and whether a demand is 0.
        self._groups = [(None if (lengths == n).all() else starts[lengths == n, None] + np.arange(n),
                         demands[lengths == n, None], np.arange(1.0, n + 1), 0.0 in demands[lengths == n])
                        for n in np.unique(lengths)]

    def project(self, y):
        y = _check_dimension(y, self.dimension, stacked=True)
        coords, demand, ranks, zero_demand = self._groups[0]
        if coords is None:  # the only group: its blocks are a reshape view of the points
            blocks = y.reshape(-1, len(demand), len(ranks))  # a point is a stack of one
            return _project_blocks(blocks, demand, ranks, zero_demand).reshape(y.shape)
        points = y.reshape(-1, self.dimension)
        out = np.empty(points.shape)
        for coords, demand, ranks, zero_demand in self._groups:
            out[:, coords] = _project_blocks(points[:, coords], demand, ranks, zero_demand)
        return out.reshape(y.shape)

    def contains(self, x):
        """Whether `violation` finds nothing: one bool for a point, one per
        row of a stack, whose block sums (one reduceat along the last axis)
        have a point's bits. A NaN coordinate is never contained."""
        x = _check_dimension(x, self.dimension, stacked=True)
        sums = np.add.reduceat(x, self._starts, axis=-1)
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
        return np.concatenate([np.full(n, d / n) for n, d in self.blocks])


@dataclass
class ViSolution:
    x_star: np.ndarray
    residual: float
    iterations: int
    converged: bool


def spectral_norm(a: np.ndarray) -> float:
    """Spectral norm ||A||_2, the largest singular value of A."""
    return float(np.linalg.norm(np.asarray(a, dtype=float), 2))


def _require_feasible(feasible: Box | SimplexProduct, x: np.ndarray) -> None:
    violation = feasible.violation(x)
    if violation is not None:
        raise ValueError(f"point is infeasible: {violation}")


def natural_residual(feasible: Box | SimplexProduct, field: Callable[[np.ndarray], np.ndarray],
                     x: np.ndarray) -> float:
    """||x - proj(x - F(x))||; zero exactly at VI solutions. A point the set
    does not contain is a ValueError, a non-finite F(x) a FloatingPointError."""
    x = np.asarray(x, dtype=float)
    _require_feasible(feasible, x)
    fx = field(x)
    if not np.all(np.isfinite(fx)):
        raise FloatingPointError(f"field returned non-finite values at x={x}")
    return float(np.linalg.norm(x - feasible.project(x - fx)))


def extragradient_solve(
    feasible: Box | SimplexProduct,
    field: Callable[[np.ndarray], np.ndarray],
    lipschitz: float,
    check: Optional[Callable[[np.ndarray, np.ndarray], Optional[ViSolution]]] = None,
) -> ViSolution:
    """Extragradient iteration y = proj(x - s F(x)), x+ = proj(x - s F(y)).

    Converges for monotone fields and s < 1/L, where L = `lipschitz`
    bounds the field's variation on the set modulo what the set's
    projection ignores (for a product of simplices, a constant added to
    each block); s = 0.9 / lipschitz, or for a field constant in that
    sense (lipschitz 0) 1.0, doubled after each step. A `lipschitz` that is
    not finite and nonnegative is a ValueError, a non-finite field value a
    FloatingPointError. Stops once the natural residual is at most _EG_TOL
    or after _EG_MAX_ITER steps. The iteration starts at the set's
    `default_start`. A returned point the set does not contain (rounding
    in the projection of a huge step) is a ValueError.
    `check(x, F(x))`, if given, runs at steps _EG_FIRST_CHECK, twice that,
    ...; a ViSolution it returns is the result, `iterations` that step.
    """
    if not 0 <= lipschitz < np.inf:  # NaN fails too
        raise ValueError(f"Lipschitz constant must be finite and nonnegative, got {lipschitz}")
    step = _EG_STEP_SCALE / lipschitz if lipschitz > 0 else 1.0

    x = feasible.default_start()
    # Rows x - F(x), the residual's point, and x - s F(x), the predictor's (1.0 * F(x) is exact).
    steps = np.array([[1.0], [step]])
    for it in range(_EG_MAX_ITER + 1):
        fx = field(x)
        if not np.isfinite(fx).all():
            raise FloatingPointError(f"field returned non-finite values at iteration {it}: x={x}")
        projected = feasible.project(x - steps * fx)
        d = x - projected[0]
        residual = math.sqrt(d.dot(d))  # np.linalg.norm's arithmetic for a vector
        if residual <= _EG_TOL or it == _EG_MAX_ITER:
            break
        if check is not None and it >= _EG_FIRST_CHECK and it & (it - 1) == 0:
            if (solution := check(x, fx)) is not None:
                return replace(solution, iterations=it)
        fy = field(projected[1])
        if not np.isfinite(fy).all():
            raise FloatingPointError(f"field returned non-finite values at iteration {it}: y={projected[1]}")
        x = feasible.project(x - step * fy)
        if lipschitz == 0:
            step *= 2.0
            steps[1, 0] = step
    _require_feasible(feasible, x)
    return ViSolution(x_star=x, residual=residual, iterations=it, converged=residual <= _EG_TOL)
