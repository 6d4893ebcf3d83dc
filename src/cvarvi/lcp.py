"""Linear complementarity route for the affine-separable routing game.

The sample average equilibrium problem reduces to: find x = (h; v) with
x >= 0, M x + q >= 0 and x^T (M x + q) = 0, where M has the block form
[[Q^T R Q, -B^T], [B, 0]] and q = (Q^T t + kappa_hat; -d). M is
copositive-plus (the top-left block is PSD and the rest is skew), so
Lemke's complementary pivoting terminates with a solution whenever the
demands are satisfiable. M is the game's own (`RoutingGame.lcp_matrix`);
only q depends on kappa_hat. A second route minimizes the complementarity
gap by extragradient iteration on the nonnegative orthant, a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .vi import spectral_norm

__all__ = [
    "AffineLcp",
    "LcpSolution",
    "LcpRayTermination",
    "assemble_lcp",
    "solve_lcp_lemke",
    "solve_lcp_qp",
]

_PIVOT_TOL = 1e-11


class LcpRayTermination(RuntimeError):
    pass


@dataclass
class AffineLcp:
    """LCP(M, q): x >= 0, M x + q >= 0, x^T(M x + q) = 0."""

    m_mat: np.ndarray
    q_vec: np.ndarray
    n_paths: Optional[int] = None
    n_ods: Optional[int] = None

    def __post_init__(self):
        self.m_mat = np.asarray(self.m_mat, dtype=float)
        self.q_vec = np.asarray(self.q_vec, dtype=float)
        n = len(self.q_vec)
        if self.m_mat.shape != (n, n):
            raise ValueError(f"M must be {n}x{n}, got {self.m_mat.shape}")

    @property
    def size(self) -> int:
        return len(self.q_vec)

    def residual_vector(self, x: np.ndarray) -> np.ndarray:
        return self.m_mat @ x + self.q_vec

    def dump(self) -> str:
        """Plain-text dump: a coordinate-format listing of M then q.

        Line 1: `lcp <n> <nnz>`; then one `i j value` line per nonzero of M
        (1-based); then `q` on its own line followed by the n entries of q.
        """
        n = self.size
        rows, cols = np.nonzero(self.m_mat)
        lines = [f"lcp {n} {len(rows)}"]
        for i, j in zip(rows, cols):
            lines.append(f"{i + 1} {j + 1} {self.m_mat[i, j]:.17g}")
        lines.append("q")
        for i in range(n):
            lines.append(f"{self.q_vec[i]:.17g}")
        return "\n".join(lines) + "\n"


@dataclass
class LcpSolution:
    x: np.ndarray
    complementarity_gap: float
    feasible: bool

    def split(self, n_paths: int) -> tuple[np.ndarray, np.ndarray]:
        return self.x[:n_paths], self.x[n_paths:]


def assemble_lcp(game, kappa_hat: np.ndarray) -> AffineLcp:
    """The block LCP of the routing game for a given per-path CVaR offset
    vector kappa_hat (empirical or exact): the game's cached M and
    q = (Q^T t + kappa_hat; -d)."""
    kappa_hat = np.asarray(kappa_hat, dtype=float)
    n_paths = game.path_set.n_paths
    if len(kappa_hat) != n_paths:
        raise ValueError(f"kappa has length {len(kappa_hat)}, expected {n_paths}")
    q_vec = np.concatenate([game.free_flow_costs + kappa_hat, -game.demands])
    return AffineLcp(m_mat=game.lcp_matrix, q_vec=q_vec, n_paths=n_paths, n_ods=len(game.demands))


def _make_solution(lcp: AffineLcp, x: np.ndarray) -> LcpSolution:
    w = lcp.residual_vector(x)
    gap = float(np.dot(x, w))
    feasible = bool(
        np.all(x >= -1e-9)
        and np.all(w >= -1e-7)
        and abs(gap) <= 1e-6 * (1.0 + np.linalg.norm(lcp.q_vec))
    )
    return LcpSolution(x=x, complementarity_gap=gap, feasible=feasible)


def solve_lcp_lemke(lcp: AffineLcp, max_pivots: int = 10000) -> LcpSolution:
    """Lemke's method with the all-ones covering vector and lexicographic
    anti-cycling."""
    n = lcp.size
    m_mat, q = lcp.m_mat, lcp.q_vec
    if np.all(q >= 0):
        return _make_solution(lcp, np.zeros(n))

    # Tableau for I w - M z - e z0 = q. Columns: w (0..n-1), z (n..2n-1),
    # z0 (2n), rhs (2n+1). The w-columns double as the basis inverse used
    # by the lexicographic ratio test.
    tab = np.zeros((n, 2 * n + 2))
    tab[:, :n] = np.eye(n)
    tab[:, n : 2 * n] = -m_mat
    tab[:, 2 * n] = -1.0
    tab[:, 2 * n + 1] = q
    basis = list(range(n))  # w_i basic in row i
    z0_col = 2 * n

    def pivot(row: int, col: int):
        tab[row] /= tab[row, col]
        for i in range(n):
            if i != row and abs(tab[i, col]) > 0.0:
                tab[i] -= tab[i, col] * tab[row]
        basis[row] = col

    def lex_ratio_row(col: int) -> Optional[int]:
        candidates = [i for i in range(n) if tab[i, col] > _PIVOT_TOL]
        if not candidates:
            return None
        best = None
        best_vec = None
        for i in candidates:
            vec = np.concatenate(([tab[i, 2 * n + 1]], tab[i, :n])) / tab[i, col]
            if best is None or _lex_less(vec, best_vec):
                best, best_vec = i, vec
        return best

    # Initial pivot: bring z0 into the basis at the most negative rhs row
    # (lexicographic tie-break on the identity part).
    start = None
    start_vec = None
    for i in range(n):
        if q[i] < 0:
            vec = np.concatenate(([q[i]], tab[i, :n])) / 1.0
            if start is None or _lex_less(vec, start_vec):
                start, start_vec = i, vec
    leaving = basis[start]
    pivot(start, z0_col)
    entering = _complement(leaving, n)

    for _ in range(max_pivots):
        row = lex_ratio_row(entering)
        if row is None:
            raise LcpRayTermination("no complementary solution found along path (ray termination)")
        leaving = basis[row]
        pivot(row, entering)
        if leaving == z0_col:
            break
        entering = _complement(leaving, n)
    else:
        raise RuntimeError(f"pivot budget of {max_pivots} exceeded")

    x = np.zeros(n)
    for i, b in enumerate(basis):
        if n <= b < 2 * n:
            x[b - n] = max(tab[i, 2 * n + 1], 0.0)
    return _make_solution(lcp, x)


def _complement(var: int, n: int) -> int:
    return var + n if var < n else var - n


def _lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    for ai, bi in zip(a, b):
        if ai < bi - 1e-14:
            return True
        if ai > bi + 1e-14:
            return False
    return False


def solve_lcp_qp(
    lcp: AffineLcp,
    tol: float = 1e-8,
    max_iter: int = 1000000,
    x0: Optional[np.ndarray] = None,
) -> LcpSolution:
    """Minimize the complementarity gap x^T(Mx + q) over the feasible cone
    by extragradient iteration on the equivalent orthant VI.

    For monotone M the iteration converges to an LCP solution, at which the
    gap objective attains its minimum of zero.
    """
    n = lcp.size
    m_mat, q = lcp.m_mat, lcp.q_vec
    lip = spectral_norm(m_mat)
    step = 0.9 / lip if lip > 0 else 1.0

    x = np.maximum(np.asarray(x0, dtype=float), 0.0) if x0 is not None else np.zeros(n)
    # Natural-residual tolerance driving the gap below `tol` at problem scale.
    res_tol = min(1e-10, np.sqrt(tol) * 1e-3)
    for _ in range(max_iter):
        fx = m_mat @ x + q
        residual = float(np.linalg.norm(np.minimum(x, fx)))
        if residual <= res_tol:
            break
        y = np.maximum(x - step * fx, 0.0)
        fy = m_mat @ y + q
        x = np.maximum(x - step * fy, 0.0)
    sol = _make_solution(lcp, x)
    gap_tol = tol * (1.0 + float(np.linalg.norm(q)))
    if sol.complementarity_gap > gap_tol:
        raise RuntimeError(
            f"gap minimization stalled at {sol.complementarity_gap:.3e} (tolerance {gap_tol:.1e})"
        )
    return sol
