"""Finite-dimensional variational inequalities over compact convex sets.

Feasible sets are boxes or products of scaled simplices (the flow polytope
of the routing game). The solver is the projection-based extragradient
method; solution quality is measured by the natural residual
||x - proj(x - F(x))||, which vanishes exactly at solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "FeasibleSet",
    "Box",
    "SimplexProduct",
    "VectorField",
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

    Sort-threshold algorithm: stable descending sort, cumulative sums, the
    last index k that passes the threshold test (the block length if none
    does), the shift tau from the top k, then clip. Ties are resolved by the
    stable sort, so the output is deterministic; zero demand gives exactly 0.
    """
    y = np.asarray(y, dtype=float)
    rows = y.reshape(-1, y.shape[-1])
    demand = np.asarray(demand, dtype=float).reshape(-1, 1)
    n = rows.shape[1]
    u = np.sort(-rows, axis=1, kind="stable")
    np.negative(u, out=u)
    css = np.cumsum(u, axis=1)
    cond = u - (css - demand) / np.arange(1, n + 1) > 0
    # argmax finds the first True of the reversed rows, and 0 when none is.
    k = n - np.argmax(cond[:, ::-1], axis=1, keepdims=True)
    tau = (css[np.arange(len(rows))[:, None], k - 1] - demand) / k
    out = np.maximum(rows - tau, 0.0)
    np.copyto(out, 0.0, where=demand == 0.0)
    return out.reshape(y.shape)


class FeasibleSet:
    """Base class: nonempty compact convex feasible set."""

    dimension: int

    def project(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def default_start(self) -> np.ndarray:
        raise NotImplementedError

    def _check_dimension(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dimension,):
            raise ValueError(f"expected vector of dimension {self.dimension}, got shape {y.shape}")
        return y


@dataclass
class Box(FeasibleSet):
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
        y = self._check_dimension(y)
        return np.clip(y, self.lo, self.hi)

    def default_start(self):
        return 0.5 * (self.lo + self.hi)


@dataclass
class SimplexProduct(FeasibleSet):
    """Product of scaled simplices {h >= 0, sum(h_block) = demand}.

    Blocks of equal length are grouped once, at construction; `project`
    makes one `project_simplex` call per group."""

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
        demands = np.array([d for _, d in self.blocks])
        starts = np.cumsum(lengths) - lengths
        # Per block length: the coordinates of its blocks, one row each, and their demands.
        self._groups = [(starts[lengths == n, None] + np.arange(n), demands[lengths == n])
                        for n in np.unique(lengths)]

    def project(self, y):
        y = self._check_dimension(y)
        out = np.empty_like(y)
        for coords, demands in self._groups:
            out[coords] = project_simplex(y[coords], demands)
        return out

    def default_start(self):
        # Demand spread uniformly over each block: interior start.
        parts = [np.full(n, d / n) for n, d in self.blocks]
        return np.concatenate(parts)


@dataclass
class VectorField:
    """Deterministic evaluator x -> F(x) with an optional Lipschitz hint."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    lipschitz_hint: Optional[float] = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(x), dtype=float)


@dataclass
class ViSolution:
    x_star: np.ndarray
    residual: float
    iterations: int
    converged: bool


def spectral_norm(a: np.ndarray) -> float:
    """Spectral norm ||A||_2, the largest singular value of A."""
    return float(np.linalg.norm(np.asarray(a, dtype=float), 2))


def natural_residual(feasible: FeasibleSet, field: VectorField, x: np.ndarray) -> float:
    """||x - proj(x - F(x))||; zero exactly at VI solutions."""
    x = np.asarray(x, dtype=float)
    infeas = float(np.linalg.norm(x - feasible.project(x)))
    if not infeas <= _FEASIBILITY_TOL:  # a NaN distance fails too
        raise ValueError(f"point is infeasible (distance {infeas:.3e} to the set)")
    return float(np.linalg.norm(x - feasible.project(x - field(x))))


def extragradient_solve(
    feasible: FeasibleSet,
    field: VectorField,
    x0: Optional[np.ndarray] = None,
) -> ViSolution:
    """Extragradient iteration y = proj(x - s F(x)), x+ = proj(x - s F(y)).

    Converges for monotone Lipschitz fields with s < 1/L; the step is
    s = 0.9 / lipschitz_hint. Stops once the natural residual is at most
    _EG_TOL or after _EG_MAX_ITER steps.
    """
    if not field.lipschitz_hint:
        raise ValueError("the field carries no Lipschitz hint to set the step")
    step = _EG_STEP_SCALE / field.lipschitz_hint
    if step <= 0:
        raise ValueError("step must be positive")

    x = feasible.project(np.asarray(x0, dtype=float)) if x0 is not None else feasible.default_start()
    residual = np.inf
    for it in range(_EG_MAX_ITER):
        fx = field(x)
        if not np.all(np.isfinite(fx)):
            raise FloatingPointError(f"field returned non-finite values at iteration {it}: x={x}")
        residual = float(np.linalg.norm(x - feasible.project(x - fx)))
        if residual <= _EG_TOL:
            return ViSolution(x_star=x, residual=residual, iterations=it, converged=True)
        y = feasible.project(x - step * fx)
        fy = field(y)
        if not np.all(np.isfinite(fy)):
            raise FloatingPointError(f"field returned non-finite values at iteration {it}: y={y}")
        x = feasible.project(x - step * fy)
    residual = float(np.linalg.norm(x - feasible.project(x - field(x))))
    return ViSolution(x_star=x, residual=residual, iterations=_EG_MAX_ITER, converged=residual <= _EG_TOL)
