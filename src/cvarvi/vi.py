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
    "MonotonicityReport",
    "affine_field",
    "spectral_norm",
    "project_simplex",
    "natural_residual",
    "extragradient_solve",
    "check_monotone",
]

_FEASIBILITY_TOL = 1e-9
# Extragradient: step as a fraction of 1/L, residual tolerance, step cap.
_EG_STEP_SCALE = 0.9
_EG_TOL = 1e-9
_EG_MAX_ITER = 200000


def project_simplex(y: np.ndarray, demand: float) -> np.ndarray:
    """Euclidean projection of y onto {h >= 0, sum(h) = demand}.

    Sort-threshold algorithm; ties are resolved by the stable descending
    sort, so the output is deterministic.
    """
    y = np.asarray(y, dtype=float)
    if demand == 0.0:
        return np.zeros_like(y)
    n = len(y)
    u = -np.sort(-y, kind="stable")
    css = np.cumsum(u)
    ks = np.arange(1, n + 1)
    cond = u - (css - demand) / ks > 0
    k = int(ks[cond][-1]) if cond.any() else n
    tau = (css[k - 1] - demand) / k
    return np.maximum(y - tau, 0.0)


class FeasibleSet:
    """Base class: nonempty compact convex feasible set."""

    dimension: int

    def project(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x: np.ndarray, tol: float = _FEASIBILITY_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(x - self.project(x))) <= tol

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
        if np.any(self.lo > self.hi):
            raise ValueError("box has empty coordinate range")
        self.dimension = len(self.lo)

    def project(self, y):
        y = self._check_dimension(y)
        return np.clip(y, self.lo, self.hi)

    def sample(self, rng):
        return rng.uniform(self.lo, self.hi)

    def default_start(self):
        return 0.5 * (self.lo + self.hi)


@dataclass
class SimplexProduct(FeasibleSet):
    """Product of scaled simplices {h >= 0, sum(h_block) = demand}."""

    blocks: Sequence[tuple[int, float]]

    def __post_init__(self):
        self.blocks = [(int(n), float(d)) for n, d in self.blocks]
        for n, d in self.blocks:
            if n < 1:
                raise ValueError("simplex block needs positive dimension")
            if d < 0:
                raise ValueError("simplex block demand must be nonnegative")
        self.dimension = sum(n for n, _ in self.blocks)

    def _block_slices(self):
        start = 0
        for n, d in self.blocks:
            yield slice(start, start + n), d
            start += n

    def project(self, y):
        y = self._check_dimension(y)
        out = np.empty_like(y)
        for sl, d in self._block_slices():
            out[sl] = project_simplex(y[sl], d)
        return out

    def sample(self, rng):
        parts = []
        for n, d in self.blocks:
            parts.append(d * rng.dirichlet(np.ones(n)))
        return np.concatenate(parts)

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


@dataclass
class MonotonicityReport:
    violations: int
    worst_value: float


def spectral_norm(a: np.ndarray) -> float:
    """Spectral norm ||A||_2, the largest singular value of A."""
    return float(np.linalg.norm(np.asarray(a, dtype=float), 2))


def affine_field(a: np.ndarray, b: np.ndarray) -> VectorField:
    """Field x -> A x + b with its spectral norm as Lipschitz hint."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return VectorField(evaluator=lambda x: a @ x + b, lipschitz_hint=spectral_norm(a))


def natural_residual(feasible: FeasibleSet, field: VectorField, x: np.ndarray) -> float:
    """||x - proj(x - F(x))||; zero exactly at VI solutions."""
    x = np.asarray(x, dtype=float)
    infeas = float(np.linalg.norm(x - feasible.project(x)))
    if infeas > _FEASIBILITY_TOL:
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


def check_monotone(
    field: VectorField, feasible: FeasibleSet, trials: int = 1000, rng_seed: int = 0
) -> MonotonicityReport:
    """Sample point pairs and report violations of
    (F(x) - F(x'))^T (x - x') >= 0 below -1e-10."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(rng_seed)
    violations = 0
    worst = np.inf
    for _ in range(trials):
        x = feasible.sample(rng)
        xp = feasible.sample(rng)
        inner = float(np.dot(field(x) - field(xp), x - xp))
        worst = min(worst, inner)
        if inner < -1e-10:
            violations += 1
    return MonotonicityReport(violations=violations, worst_value=worst)
