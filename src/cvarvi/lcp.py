"""Linear complementarity route for the affine-separable routing game.

The sample average equilibrium problem reduces to: find x = (h; v) with
x >= 0, M x + q >= 0 and x^T (M x + q) = 0, where M has the block form
[[Q^T R Q, -B^T], [B, 0]] and q = (Q^T t + kappa_hat; -d). M is
copositive-plus (the top-left block is PSD and the rest is skew), so
Lemke's complementary pivoting terminates with a solution whenever the
demands are satisfiable. M is the game's own (`RoutingGame.lcp_matrix`);
only q depends on kappa_hat. A cross-check, `solve_lcp_qp`, solves the
Beckmann program whose KKT system the LCP is by `active_set_qp`.

Lemke picks every pivot row, the first included, by one sequential
lexicographic scan (`_lex_argmin`) at tolerance 1e-14 that keeps the
earlier row on a tie: one pass over the ratio column, reading the later
key columns only on a tie. That is not a total order, so `np.lexsort`
would pick other rows on the near ties of the degenerate routing LCPs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AffineLcp",
    "LcpSolution",
    "LcpRayTermination",
    "active_set_qp",
    "assemble_lcp",
    "solve_lcp_lemke",
    "solve_lcp_qp",
]

_PIVOT_TOL = 1e-11
_LEX_TOL = 1e-14
# Row blocks of the rank-1 tableau update: cache-sized temporaries; one
# tableau-sized temporary per pivot was 2-3x slower at 404 rows.
_UPDATE_BLOCK_BYTES = 1 << 18
_ACTIVE_SET_TOL = 1e-10  # relative to the largest gradient entry, or to the largest of z or d where it blocks
_ACTIVE_SET_MAX_ITER = 10000
_START_TOL = 1e-9  # x0 >= -tol max|x0| and, per row, |E x0 - f| <= tol (|E| |x0| + |f|)


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
    """Solution, certificate and solver work (Lemke pivots or active-set iterations)."""

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


def active_set_qp(h_mat: np.ndarray, g: np.ndarray, e_mat: np.ndarray, f: np.ndarray,
                  x0: np.ndarray) -> tuple[np.ndarray, int]:
    """argmin 1/2 x^T H x + g^T x over {E x = f, x >= 0} (H symmetric PSD,
    E's rows possibly dependent) from a feasible x0, by the primal active-set
    method (Nocedal & Wright, Numerical Optimization, 2nd ed., 16.5); the
    minimizer and the iteration count. The working set W of entries held at
    0 starts as x0's zeros. Each iteration solves the KKT system of the free
    entries F, [[H_FF, E_F^T], [E_F, 0]] [z; nu] = [-g_F; f], by least
    squares and steps towards z; if it is inconsistent, the top block of its
    right side's null-space part is a descent direction d with H d = 0 and
    E d = 0, followed to the next bound. The first blocking bound of the
    smallest ratio joins W; at z, the entry whose multiplier grad + E^T nu
    is most negative, below -tol, leaves W (N&W 16.5). tol, for the
    multipliers and for d, is relative to the largest gradient entry; z
    depends on its face and f alone, not on the path from x0. In exact
    arithmetic an entry that leaves W rises at once (N&W, Theorem 16.5); one
    that blocks its own first step rejoins W, and its multiplier, rounding
    alone, is passed over until x moves. ValueError unless x0 >= 0 and
    E x0 = f hold to within _START_TOL; x0's entries below 0 are set to 0.
    RuntimeError past _ACTIVE_SET_MAX_ITER iterations or when unbounded below."""
    e_mat, f, x = np.asarray(e_mat, dtype=float), np.asarray(f, dtype=float), np.asarray(x0, dtype=float)
    miss = np.abs(e_mat @ x - f)
    if (x < -_START_TOL * np.abs(x).max(initial=0.0)).any() or not (
            miss <= _START_TOL * (np.abs(e_mat) @ np.abs(x) + np.abs(f))).all():
        raise ValueError(f"infeasible start: min(x0) = {x.min(initial=0.0):.3e}, "
                         f"max |E x0 - f| = {miss.max(initial=0.0):.3e}")
    x = np.maximum(x, 0.0)
    free, n_rows = x > 0.0, len(e_mat)
    passed_over, freed = np.zeros_like(free), -1
    grad = h_mat @ x + g
    for it in range(1, _ACTIVE_SET_MAX_ITER + 1):
        tol = _ACTIVE_SET_TOL * np.abs(grad).max(initial=0.0)
        cols = np.flatnonzero(free)
        k = len(cols)
        kkt = np.zeros((k + n_rows, k + n_rows))
        kkt[:k, :k], kkt[k:, :k] = h_mat[np.ix_(cols, cols)], e_mat[:, cols]
        kkt[:k, k:] = kkt[k:, :k].T
        # kkt is symmetric: eigh gives its least-squares solution and null space.
        lam, vec = np.linalg.eigh(kkt)
        cut = len(lam) * np.finfo(float).eps * np.abs(lam).max(initial=0.0)
        keep = np.abs(lam) > cut
        coef = vec.T @ np.concatenate([-g[cols], f])
        sol = vec[:, keep] @ (coef[keep] / lam[keep])
        d = -vec[:k, ~keep] @ (vec[:k, ~keep].T @ g[cols])  # f has no null-space part
        full = not np.abs(d).max(initial=0.0) > tol
        p, level = (sol[:k] - x[cols], sol[:k]) if full else (d, d)
        # Only entries below 0 beyond rounding, which grows with kkt's condition number, block.
        noise = max(_ACTIVE_SET_TOL, cut / np.abs(lam[keep]).min(initial=np.inf))
        falling = np.flatnonzero(level < -noise * np.abs(level).max(initial=0.0))
        ratios = x[cols[falling]] / -p[falling]
        step = ratios.min(initial=np.inf)
        if not full and step == np.inf:
            raise RuntimeError("the quadratic program is unbounded below")
        if step < 1.0 or not full:
            leaving = cols[falling[np.argmin(ratios)]]  # the first minimum: Bland's rule
            if step > 0.0:
                passed_over[:] = False
            elif leaving == freed:
                passed_over[leaving] = True  # else W and x would repeat, and the iteration cycle
            x[cols] = np.maximum(x[cols] + step * p, 0.0)
            x[leaving], free[leaving], freed = 0.0, False, -1
            grad = h_mat @ x + g
            continue
        z = np.maximum(sol[:k], 0.0)
        if (z != x[cols]).any():
            passed_over[:] = False
        x[cols] = z
        grad = h_mat @ x + g
        multipliers = grad + e_mat.T @ sol[k:]
        entering = np.flatnonzero(~free & ~passed_over & (multipliers < -tol))
        if not len(entering):
            return x, it
        freed = entering[np.argmin(multipliers[entering])]
        free[freed] = True
    raise RuntimeError(f"active-set QP did not finish in {_ACTIVE_SET_MAX_ITER} iterations")


def solve_lcp_qp(lcp: AffineLcp) -> LcpSolution:
    """The LCP as the convex program whose KKT system it is, solved by
    `active_set_qp`, which frees the most negative multiplier first
    (`iterations` counts its iterations): for M = [[A, -B^T], [B, 0]] and
    q = (c; -d), B's rows those of M's zero trailing block, the Beckmann
    program min 1/2 h^T A h + c^T h over B h = d, h >= 0 (Beckmann,
    McGuire & Winsten 1956) from the vertex that puts each OD's demand on its
    first path; each OD's potential is its minimum cost. A symmetric M has
    no B: x >= 0, from 0. A must be PSD. ValueError unless A is symmetric and
    B is 0/1 with a 1 in each row and at most one in each column, or on a
    negative demand."""
    m_mat, n_paths = lcp.m_mat, lcp.size
    if not np.array_equal(m_mat, m_mat.T):
        while n_paths and not m_mat[n_paths - 1:, n_paths - 1:].any():
            n_paths -= 1
    a_mat, b_inc = m_mat[:n_paths, :n_paths], m_mat[n_paths:, :n_paths]
    if not (np.array_equal(a_mat, a_mat.T) and np.array_equal(m_mat[:n_paths, n_paths:], -b_inc.T)
            and np.isin(b_inc, (0.0, 1.0)).all() and b_inc.any(axis=1).all() and (b_inc.sum(axis=0) <= 1.0).all()):
        raise ValueError("M lacks the block form [[A, -B^T], [B, 0]] with A symmetric and B an OD incidence")
    costs, demands = lcp.q_vec[:n_paths], -lcp.q_vec[n_paths:]
    if not (demands >= 0.0).all():
        raise ValueError(f"negative demand {demands.min():.3e}")
    h0 = np.zeros(n_paths)
    h0[b_inc.argmax(axis=1)] = demands
    h, iterations = active_set_qp(a_mat, costs, b_inc, demands, h0)
    potentials = np.where(b_inc > 0.0, a_mat @ h + costs, np.inf).min(axis=1)
    return _make_solution(lcp, np.concatenate([h, potentials]), iterations)
