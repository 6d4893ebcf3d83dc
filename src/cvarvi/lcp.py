"""Linear complementarity route for the affine-separable routing game.

The sample average equilibrium problem reduces to: find x = (h; v) with
x >= 0, M x + q >= 0 and x^T (M x + q) = 0, where M has the block form
[[Q^T R Q, -B^T], [B, 0]] and q = (Q^T t + kappa_hat; -d). M is
copositive-plus (the top-left block is PSD and the rest is skew), so
Lemke's complementary pivoting terminates with a solution whenever the
demands are satisfiable. M is the game's own (`RoutingGame.lcp_matrix`);
only q depends on kappa_hat. A second route minimizes the complementarity
gap by extragradient iteration on the nonnegative orthant, a cross-check.

Lemke picks every pivot row, the first included, by one sequential
lexicographic scan (`_lex_argmin`) at tolerance 1e-14 that keeps the
earlier row on a tie: one pass over the ratio column, reading the later
key columns only on a tie. That is not a total order, so `np.lexsort`
would pick other rows on the near ties of the degenerate routing LCPs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
_LEX_TOL = 1e-14
# Row blocks of the rank-1 tableau update: cache-sized temporaries; one
# tableau-sized temporary per pivot was 2-3x slower at 404 rows.
_UPDATE_BLOCK_BYTES = 1 << 18
_QP_TOL = 1e-8  # gap-minimization route: gap tolerance and iteration cap
_QP_MAX_ITER = 1000000


class LcpRayTermination(RuntimeError):
    pass


@dataclass
class AffineLcp:
    """LCP(M, q): x >= 0, M x + q >= 0, x^T(M x + q) = 0."""

    m_mat: np.ndarray
    q_vec: np.ndarray

    def __post_init__(self):
        self.m_mat = np.asarray(self.m_mat, dtype=float)
        self.q_vec = np.asarray(self.q_vec, dtype=float)
        n = len(self.q_vec)
        if self.m_mat.shape != (n, n):
            raise ValueError(f"M must be {n}x{n}, got {self.m_mat.shape}")
        for name, arr in (("M", self.m_mat), ("q", self.q_vec)):
            finite = np.isfinite(arr)
            if not finite.all():
                at = ", ".join(str(int(i)) for i in np.unravel_index(np.argmin(finite), arr.shape))
                raise ValueError(f"{name} is not finite at {name}[{at}]")

    @property
    def size(self) -> int:
        return len(self.q_vec)


@dataclass
class LcpSolution:
    """Solution, certificate and solver work (Lemke pivots or qp steps)."""

    x: np.ndarray
    complementarity_gap: float
    feasible: bool
    iterations: int


def assemble_lcp(game, kappa_hat: np.ndarray) -> AffineLcp:
    """The block LCP of the routing game for a given per-path CVaR offset
    vector kappa_hat (empirical or exact): the game's cached M and
    q = (Q^T t + kappa_hat; -d). A kappa_hat that is not one finite value
    per path is a ValueError (`RoutingGame.check_kappa`)."""
    q_vec = np.concatenate([game.free_flow_costs + game.check_kappa(kappa_hat), -game.demands])
    return AffineLcp(m_mat=game.lcp_matrix, q_vec=q_vec)


def _make_solution(lcp: AffineLcp, x: np.ndarray, iterations: int) -> LcpSolution:
    w = lcp.m_mat @ x + lcp.q_vec
    gap = float(np.dot(x, w))
    scale = 1.0 + np.linalg.norm(lcp.q_vec)
    feasible = bool(np.all(x >= -1e-9) and np.all(w >= -1e-7) and abs(gap) <= 1e-6 * scale)
    return LcpSolution(x=x, complementarity_gap=gap, feasible=feasible, iterations=iterations)


def solve_lcp_lemke(lcp: AffineLcp, max_pivots: int = 10000) -> LcpSolution:
    """Lemke's method with the all-ones covering vector and lexicographic
    anti-cycling.

    z0 enters at the lexicographically smallest (q_i, e_i) among rows with
    q_i < 0; each later pivot row is the smallest (rhs, w-columns) / entering
    entry among rows whose entry exceeds the pivot tolerance, its w-columns
    read only on a ratio tie. At most one initial plus `max_pivots` further
    pivots, else RuntimeError; LcpRayTermination if a pivot in the budget
    finds no row. `iterations` counts all pivots made (0 when q >= 0).
    """
    n, q = lcp.size, lcp.q_vec
    if np.all(q >= 0):
        return _make_solution(lcp, np.zeros(n), 0)

    # Tableau for I w - M z - e z0 = q. Columns: w (0..n-1), z (n..2n-1),
    # z0 (2n), rhs (2n+1). The w-columns double as the basis inverse used
    # by the lexicographic ratio test.
    z0_col, rhs = 2 * n, 2 * n + 1
    tab = np.hstack([np.eye(n), -lcp.m_mat, np.full((n, 1), -1.0), q[:, None]])
    basis = np.arange(n)  # w_i basic in row i
    block = max(1, _UPDATE_BLOCK_BYTES // tab[0].nbytes)

    def pivot(row: int, col: int) -> int:
        """Make `col` basic in `row`; return the variable that leaves."""
        tab[row] /= tab[row, col]
        hit = np.nonzero(np.abs(tab[:, col]) > 0.0)[0]
        hit = hit[hit != row]
        for start in range(0, len(hit), block):
            rows = hit[start : start + block]
            tab[rows] -= np.outer(tab[rows, col], tab[row])
        leaving, basis[row] = basis[row], col
        return leaving

    rows = np.nonzero(q < 0)[0]
    leaving = pivot(rows[_lex_argmin(q[rows].tolist(), lambda i: tab[rows[i], :n])], z0_col)
    pivots = 1
    while leaving != z0_col:
        if pivots > max_pivots:
            raise RuntimeError(f"pivot budget of {max_pivots} exceeded")
        entering = leaving + n if leaving < n else leaving - n
        entries = tab[:, entering]
        rows = np.nonzero(entries > _PIVOT_TOL)[0]
        if not len(rows):
            raise LcpRayTermination("no complementary solution found along path (ray termination)")
        ratios = (tab[rows, rhs] / entries[rows]).tolist()
        leaving = pivot(rows[_lex_argmin(ratios, lambda i: tab[rows[i], :n] / entries[rows[i]])], entering)
        pivots += 1

    x = np.zeros(n)
    in_z = (basis >= n) & (basis < 2 * n)
    values = tab[in_z, rhs]
    x[basis[in_z] - n] = np.where(values < 0.0, 0.0, values)
    return _make_solution(lcp, x, pivots)


def _lex_argmin(first: list[float], rest) -> int:
    """Candidate a sequential scan keeps: one replaces the incumbent only
    if smaller at the first key column where the two differ by more than
    _LEX_TOL. `first` holds the first keys as floats; `rest(i)`, candidate
    i's later keys, is read only on a tie. Not transitive: order matters."""
    best = 0
    for i in range(1, len(first)):
        key, ref = first[i], first[best]
        if key < ref - _LEX_TOL:
            best = i
        elif not key > ref + _LEX_TOL:
            keys, refs = rest(i), rest(best)
            lower = keys < refs - _LEX_TOL
            if lower[(lower | (keys > refs + _LEX_TOL)).argmax()]:
                best = i
    return best


def solve_lcp_qp(lcp: AffineLcp) -> LcpSolution:
    """Minimize the complementarity gap x^T(Mx + q) over the feasible cone
    by extragradient iteration on the equivalent orthant VI, from x = 0.

    For monotone M the iteration converges to an LCP solution, at which the
    gap objective attains its minimum of zero, but on a skew M (that of an
    uncongested routing game, b_e = 0) it can stall short of the gap
    tolerance and raise RuntimeError after _QP_MAX_ITER steps: kappa-hat key
    (0, 121) at N = 50 of the default config with b_e = 0 does, where Lemke
    takes 7 pivots.
    """
    m_mat, q = lcp.m_mat, lcp.q_vec
    lip = spectral_norm(m_mat)
    step = 0.9 / lip if lip > 0 else 1.0

    x = np.zeros(lcp.size)
    # Natural-residual tolerance driving the gap below _QP_TOL at problem scale.
    res_tol = min(1e-10, np.sqrt(_QP_TOL) * 1e-3)
    for it in range(_QP_MAX_ITER + 1):
        fx = m_mat @ x + q
        r = np.minimum(x, fx)
        if it == _QP_MAX_ITER or math.sqrt(r.dot(r)) <= res_tol:  # np.linalg.norm's arithmetic
            break
        y = np.maximum(x - step * fx, 0.0)
        fy = m_mat @ y + q
        x = np.maximum(x - step * fy, 0.0)
    sol = _make_solution(lcp, x, it)
    gap_tol = _QP_TOL * (1.0 + float(np.linalg.norm(q)))
    if not abs(sol.complementarity_gap) <= gap_tol:
        raise RuntimeError(
            f"gap minimization stalled at {sol.complementarity_gap:.3e} (tolerance {gap_tol:.1e})"
        )
    return sol
