import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvarvi import lcp as lcp_mod
from cvarvi.cvar import RiskLevel
from cvarvi.harness import build_configured_game, default_config_text, parse_config
from cvarvi.lcp import (
    AffineLcp,
    LcpRayTermination,
    _lex_argmin,
    assemble_lcp,
    solve_lcp_lemke,
    solve_lcp_qp,
)
from cvarvi.routing import Network, OdPair, OdSpec, build_game, builtin_network, sample_path_kappa, solve_cwe

SIOUX_ODS = OdSpec(pairs=[OdPair(1, 19, 300, 10), OdPair(13, 8, 600, 10), OdPair(12, 18, 200, 10)])


def two_path_toy(demand=1.0):
    """One OD routed over two disjoint single-edge paths with R = diag(1, 2)
    and zero free-flow time contribution to the cost differences."""
    m = np.array([[1.0, 0.0, -1.0], [0.0, 2.0, -1.0], [1.0, 1.0, 0.0]])
    q = np.array([0.0, 0.0, -demand])
    return AffineLcp(m_mat=m, q_vec=q)


class TestAssembly:
    def test_two_path_block_structure(self):
        net = Network(
            n_nodes=2,
            tail=[1, 1],
            head=[2, 2],
            free_flow_time=[1.0, 2.0],
            capacity=[1.0, 2.0],
            congestion_coeff=[1.0, 2.0],
        )
        # R = diag(b t / c) = diag(1, 2).
        od = OdSpec(pairs=[OdPair(1, 2, 1.0, 1)])
        # Path enumeration rejects parallel edges, so build incidence by hand.
        from cvarvi.routing import PathSet, RoutingGame

        path_set = PathSet(paths=[(1, 2), (1, 2)], od_of_path=np.array([0, 0]), edge_incidence=np.eye(2))
        game = RoutingGame(
            network=net,
            od_spec=od,
            path_set=path_set,
            noise_lo=np.zeros(2),
            noise_hi=np.zeros(2),
            alpha=RiskLevel(0.5),
        )
        lcp = assemble_lcp(game, np.zeros(2))
        expected_m = np.array([[1.0, 0.0, -1.0], [0.0, 2.0, -1.0], [1.0, 1.0, 0.0]])
        assert lcp.m_mat == pytest.approx(expected_m)
        q_inc, b_inc = path_set.edge_incidence, path_set.od_incidence
        a_block = q_inc.T @ np.diag(game.congestion_diag) @ q_inc
        block = np.block([[a_block, -b_inc.T], [b_inc, np.zeros((1, 1))]])
        assert np.array_equal(lcp.m_mat, block)
        assert lcp.q_vec == pytest.approx([1.0, 2.0, -1.0])
        # kappa_hat enters only q: every assembly shares the game's M.
        again = assemble_lcp(game, np.ones(2))
        assert again.m_mat is lcp.m_mat is game.lcp_matrix
        assert again.q_vec == pytest.approx([2.0, 3.0, -1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            AffineLcp(m_mat=np.eye(2), q_vec=np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kappa_rejected(self, bad):
        # The direct route (bench and tests call assemble_lcp) fails with
        # the error solve_cwe gives, not in the solvers.
        game = build_game(builtin_network(), OdSpec(pairs=SIOUX_ODS.pairs[:2]), RiskLevel(0.05))
        kappa = np.zeros(20)
        kappa[[3, 7]] = bad
        with pytest.raises(ValueError, match="^kappa is not finite at path 3$"):
            assemble_lcp(game, kappa)

    def test_kappa_length_checked(self):
        game = build_game(builtin_network(), OdSpec(pairs=SIOUX_ODS.pairs[:2]), RiskLevel(0.05))
        with pytest.raises(ValueError, match="^kappa has length 19, expected 20$"):
            assemble_lcp(game, np.zeros(19))

    @pytest.mark.parametrize("m_mat, q_vec, where", [
        (np.eye(1), [np.nan], "q[0]"),  # Lemke raised IndexError
        (np.eye(2), [np.nan, -1.0], "q[0]"),  # Lemke returned feasible=False
        (np.eye(3), [1.0, -np.inf, np.nan], "q[1]"),
        ([[1.0, 0.0], [np.inf, 1.0]], [1.0, -1.0], "M[1, 0]"),
    ], ids=["q-nan", "q-nan-with-negative", "q-first-of-two", "m-inf"])
    def test_non_finite_data_rejected(self, m_mat, q_vec, where):
        name = where[0]
        with pytest.raises(ValueError, match=f"^{name} is not finite at {re.escape(where)}$"):
            AffineLcp(m_mat=m_mat, q_vec=q_vec)


class TestLemke:
    def test_scalar_by_hand(self):
        sol = solve_lcp_lemke(AffineLcp(m_mat=np.array([[1.0]]), q_vec=np.array([-1.0])))
        assert sol.x == pytest.approx([1.0])
        assert sol.feasible

    def test_trivial_nonnegative_q(self):
        sol = solve_lcp_lemke(AffineLcp(m_mat=np.eye(2), q_vec=np.array([1.0, 0.0])))
        assert sol.x == pytest.approx([0.0, 0.0])
        assert sol.iterations == 0

    def test_tied_most_negative_q(self):
        # Both rows tie on q; the identity part ranks (-1, 0, 1) before
        # (-1, 1, 0), so z0 enters in the second row. Both z end up basic.
        sol = solve_lcp_lemke(AffineLcp(m_mat=np.eye(2), q_vec=np.array([-1.0, -1.0])))
        assert sol.x == pytest.approx([1.0, 1.0], abs=1e-12)
        assert sol.feasible
        assert sol.iterations == 3

    def test_two_path_toy(self):
        sol = solve_lcp_lemke(two_path_toy())
        h, v = sol.x[:2], sol.x[2:]
        assert h == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-10)
        assert v == pytest.approx([2.0 / 3.0], abs=1e-10)
        assert abs(sol.complementarity_gap) < 1e-12

    def test_ray_termination(self):
        # M strictly negative: no solution, Lemke must terminate on a ray.
        with pytest.raises(LcpRayTermination):
            solve_lcp_lemke(AffineLcp(m_mat=np.array([[-1.0]]), q_vec=np.array([-1.0])))

    def test_random_psd_plus_skew(self):
        # Copositive-plus family mirroring the routing structure.
        rng = np.random.default_rng(4)
        for _ in range(25):
            k = int(rng.integers(2, 6))
            b = rng.normal(size=(k, k))
            psd = b @ b.T
            skew = rng.normal(size=(k, k))
            skew = skew - skew.T
            m = psd + skew
            q = rng.normal(size=k)
            sol = solve_lcp_lemke(AffineLcp(m_mat=m, q_vec=q))
            assert np.all(sol.x >= -1e-9)
            assert np.all(m @ sol.x + q >= -1e-7)
            assert abs(sol.complementarity_gap) < 1e-6


def lex(keys):
    """_lex_argmin over the rows of a key matrix: first column, then the rest."""
    keys = np.asarray(keys, dtype=float)
    return _lex_argmin(keys[:, 0].tolist(), lambda i: keys[i, 1:])


class TestLexArgmin:
    def test_exact_tie_on_first_key_broken_by_second(self):
        keys = np.array([[1.0, 0.5], [1.0, 0.25], [1.0, 0.75]])
        assert lex(keys) == 1

    def test_tolerance_decides_what_is_a_tie(self):
        # 5e-15 lies inside the 1e-14 tolerance: a tie, settled by the
        # second key. 2e-14 lies outside it: the first key decides.
        assert lex(np.array([[0.0, 0.0], [-5e-15, 1.0]])) == 0
        assert lex(np.array([[0.0, 1.0], [-5e-15, 0.0]])) == 1
        assert lex(np.array([[0.0, 0.0], [-2e-14, 1.0]])) == 1

    def test_full_equality_keeps_first_row(self):
        keys = np.array([[2.0, 1.0], [1.0, 3.0], [1.0, 3.0], [1.0, 3.0 + 5e-15]])
        assert lex(keys) == 1
        assert lex(np.zeros((1, 3))) == 0

    def test_scan_order_decides_a_chain_of_ties(self):
        # Row 0 ties row 1 and row 1 ties row 2 within 1e-14, but rows 0
        # and 2 differ by 1.6e-14. The scan moves 0 -> 1 on the second key,
        # then 1 -> 2 on the second key. A sort by the first key would keep
        # row 0; taking the smallest second key among the rows tied with
        # the smallest first key would pick row 1.
        keys = np.array([[0.0, 2.0], [8e-15, 1.0], [1.6e-14, 0.0]])
        assert lex(keys) == 2
        # Reversed, the scan keeps the row that came first, (0, 2): the
        # winner depends on the order, which no sort can reproduce.
        assert lex(keys[::-1]) == 2

    def test_later_keys_read_only_on_a_tie(self):
        read = []
        first = [3.0, 1.0, 2.0, 1.0 + 5e-15, 0.5]
        assert _lex_argmin(first, lambda i: read.append(i) or np.array([float(i)])) == 4
        assert read == [3, 1]


def _vectorised_lex_argmin(keys):
    """The earlier row selection, kept as the oracle: every round compares
    all later rows with the incumbent over the whole key row."""
    best = 0
    while best + 1 < len(keys):
        rest, ref = keys[best + 1 :], keys[best]
        lower = rest < ref - lcp_mod._LEX_TOL
        first = (lower | (rest > ref + lcp_mod._LEX_TOL)).argmax(axis=1)
        wins = np.flatnonzero(lower[np.arange(len(rest)), first])
        if not len(wins):
            break
        best += 1 + int(wins[0])
    return best


def _reference_lemke(lcp):
    """Lemke with the full (rows x n+1) key matrix built at every pivot and
    the row picked by _vectorised_lex_argmin; returns (x, pivots)."""
    n, q = lcp.size, lcp.q_vec
    if np.all(q >= 0):
        return np.zeros(n), 0
    z0_col, rhs = 2 * n, 2 * n + 1
    tab = np.hstack([np.eye(n), -lcp.m_mat, np.full((n, 1), -1.0), q[:, None]])
    basis = np.arange(n)
    key_cols = np.r_[rhs, 0:n]

    def pivot(row, col):
        tab[row] /= tab[row, col]
        hit = np.flatnonzero(np.abs(tab[:, col]) > 0.0)
        hit = hit[hit != row]
        tab[hit] -= np.outer(tab[hit, col], tab[row])
        leaving, basis[row] = basis[row], col
        return leaving

    rows = np.flatnonzero(q < 0)
    leaving = pivot(rows[_vectorised_lex_argmin(tab[np.ix_(rows, key_cols)])], z0_col)
    pivots = 1
    while leaving != z0_col:
        entering = leaving + n if leaving < n else leaving - n
        rows = np.flatnonzero(tab[:, entering] > lcp_mod._PIVOT_TOL)
        if not len(rows):
            raise LcpRayTermination("ray")
        keys = tab[np.ix_(rows, key_cols)] / tab[rows, entering][:, None]
        leaving = pivot(rows[_vectorised_lex_argmin(keys)], entering)
        pivots += 1
    x = np.zeros(n)
    in_z = (basis >= n) & (basis < 2 * n)
    values = tab[in_z, rhs]
    x[basis[in_z] - n] = np.where(values < 0.0, 0.0, values)
    return x, pivots


def _outcome(solve, lcp):
    try:
        x, pivots = solve(lcp)
    except LcpRayTermination:
        return "ray termination"
    return x.tobytes(), pivots


def _lemke(lcp):
    sol = solve_lcp_lemke(lcp)
    return sol.x, sol.iterations


def _tied_lcps(count=60, seed=7):
    """Small routing-shaped copositive-plus LCPs built to tie: one path
    duplicated (equal rows of M), zero and 5e-15-apart right-hand sides,
    and equal demands, so that ratios tie exactly or within 1e-14."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_edges, n_paths = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        q_inc = (rng.random((n_edges, n_paths)) < 0.5).astype(float)
        q_inc[rng.integers(n_edges, size=n_paths), np.arange(n_paths)] = 1.0
        q_inc = np.hstack([q_inc, q_inc[:, [int(rng.integers(n_paths))]]])
        n_ods = int(rng.integers(1, 3))
        od_of_path = np.sort(np.r_[np.arange(n_ods), rng.integers(n_ods, size=n_paths + 1 - n_ods)])
        b_inc = (od_of_path == np.arange(n_ods)[:, None]).astype(float)
        a_mat = q_inc.T @ (rng.uniform(0.5, 2.0, n_edges)[:, None] * q_inc)
        m_mat = np.block([[a_mat, -b_inc.T], [b_inc, np.zeros((n_ods, n_ods))]])
        costs = q_inc.T @ rng.choice([0.0, 1.0, 2.0], n_edges)
        costs[-1] = costs[-1] + rng.choice([0.0, 5e-15, -5e-15])
        costs[rng.random(n_paths + 1) < 0.3] = 0.0
        demands = np.full(n_ods, 1.0) if rng.random() < 0.5 else rng.choice([1.0, 2.0], n_ods)
        yield AffineLcp(m_mat=m_mat, q_vec=np.r_[costs, -demands])


class TestLemkeMatchesVectorisedSelection:
    """The ratio-column scan must pick every pivot row the full key matrix
    picked: the same x bytes and pivot counts."""

    def test_sioux_falls_kappa_hat(self):
        config = parse_config(default_config_text())
        game = build_configured_game(config)
        for n_index, n in enumerate((50, 500, 5000)):
            for rep in range(20):
                kappa = sample_path_kappa(game, n, config.master_seed, n_index, rep)
                lcp = assemble_lcp(game, kappa)
                assert _outcome(_lemke, lcp) == _outcome(_reference_lemke, lcp), (n, rep)

    def test_tied_lcps_run_the_tie_branch(self, monkeypatch):
        ties = []

        def counting(first, rest):
            return _lex_argmin(first, lambda i: ties.append(i) or rest(i))

        monkeypatch.setattr(lcp_mod, "_lex_argmin", counting)
        for k, lcp in enumerate(_tied_lcps()):
            assert _outcome(_lemke, lcp) == _outcome(_reference_lemke, lcp), k
        assert len(ties) > 50


class TestPivotBudget:
    @pytest.fixture(scope="class")
    def sioux(self):
        game = build_game(builtin_network(), SIOUX_ODS, RiskLevel(0.05))
        return game, sample_path_kappa(game, 500, 123)

    def test_budget_counts_pivots_after_the_initial_one(self, sioux):
        lcp = assemble_lcp(*sioux)
        full = solve_lcp_lemke(lcp)
        pivots = full.iterations
        assert pivots > 2
        # One initial pivot plus max_pivots further ones.
        tight = solve_lcp_lemke(lcp, max_pivots=pivots - 1)
        assert np.array_equal(tight.x.view(np.uint64), full.x.view(np.uint64))
        assert tight.iterations == pivots
        with pytest.raises(RuntimeError, match="pivot budget"):
            solve_lcp_lemke(lcp, max_pivots=pivots - 2)

    def test_solve_cwe_reports_pivots(self, sioux):
        pivots = solve_lcp_lemke(assemble_lcp(*sioux)).iterations
        assert solve_cwe(*sioux, method="lemke").iterations == pivots


class TestQpRoute:
    def test_two_path_toy(self):
        sol = solve_lcp_qp(two_path_toy())
        h = sol.x[:2]
        assert abs(sol.complementarity_gap) <= 1e-8
        assert h == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-6)
        assert sol.iterations > 0

    # The Sioux Falls LCP below takes more than 8 active-set iterations.
    @pytest.mark.parametrize("cap", [2, 8])
    def test_iteration_cap_raises_stalled(self, cap, monkeypatch):
        game = build_game(builtin_network(), SIOUX_ODS, RiskLevel(0.05))
        lcp = assemble_lcp(game, sample_path_kappa(game, 500, 123))
        assert solve_lcp_qp(lcp).iterations > 8
        monkeypatch.setattr(lcp_mod, "_ACTIVE_SET_MAX_ITER", cap)
        with pytest.raises(RuntimeError, match=f"did not finish in {cap} iterations"):
            solve_lcp_qp(lcp)

    def test_starts_at_the_first_path_vertex(self, monkeypatch):
        starts = []
        original = lcp_mod.active_set_qp
        monkeypatch.setattr(lcp_mod, "active_set_qp", lambda *args: starts.append(args[-1]) or original(*args))
        sol = solve_lcp_qp(AffineLcp(m_mat=two_path_toy().m_mat, q_vec=[0.0, 0.0, -3.0]))
        assert [list(x0) for x0 in starts] == [[3.0, 0.0]]
        # The OD potential is the minimum path cost, here both paths' 2.
        assert sol.x == pytest.approx([2.0, 1.0, 2.0]) and sol.feasible

    @pytest.mark.parametrize("m_mat", [
        [[1.0, 2.0], [0.0, 1.0]],  # neither symmetric nor with a zero trailing block
        [[1.0, 0.0, -2.0], [0.0, 1.0, -2.0], [2.0, 2.0, 0.0]],  # B is not an OD incidence
        [[1.0, 1.0, -1.0], [0.0, 1.0, -1.0], [1.0, 1.0, 0.0]],  # A is not symmetric
        [[1.0, 0.0, -1.0], [0.0, 2.0, 0.0], [1.0, 1.0, 0.0]],  # the B blocks disagree
    ])
    def test_rejects_an_lcp_of_neither_form(self, m_mat):
        with pytest.raises(ValueError, match="block form"):
            solve_lcp_qp(AffineLcp(m_mat=m_mat, q_vec=np.full(len(m_mat), -1.0)))

    def test_rejects_a_negative_demand(self):
        with pytest.raises(ValueError, match="negative demand"):
            solve_lcp_qp(AffineLcp(m_mat=two_path_toy().m_mat, q_vec=[0.0, 0.0, 1.0]))

    def test_agrees_with_lemke_on_random_monotone(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            b = rng.normal(size=(k, k))
            m = b @ b.T + 0.5 * np.eye(k)
            q = rng.normal(size=k)
            a = solve_lcp_lemke(AffineLcp(m_mat=m, q_vec=q))
            c = solve_lcp_qp(AffineLcp(m_mat=m, q_vec=q))
            # Strictly monotone M: the solution is unique.
            assert a.x == pytest.approx(c.x, abs=1e-5)


class TestSiouxFallsCross:
    def test_lemke_matches_extragradient(self):
        game = build_game(builtin_network(), SIOUX_ODS, RiskLevel(0.05))
        kappa = sample_path_kappa(game, 500, 123)
        h_lemke = solve_cwe(game, kappa, method="lemke").x_star
        h_eg = solve_cwe(game, kappa, method="extragradient").x_star
        q_inc = game.path_set.edge_incidence
        # Path flows are non-unique when paths share edges; the induced
        # edge loads and the equilibrium costs are the comparable objects.
        assert np.linalg.norm(q_inc @ h_lemke - q_inc @ h_eg, np.inf) < 1e-5


# The 12x12 grid LCP of bench/workloads.py at seed 12, rep 4, with its
# kappa-hat drawn the way sample_path_kappa drew it before SFC64: Philox,
# every uncertain edge, sample-major. Run with one BLAS thread, as the
# benchmark runs: whether the case cycles depends on the last bits of the LCP.
GRID_PHILOX_CASE = """
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import workloads
from cvarvi import cvar, lcp
game = workloads.grid_game(workloads.GRID_SIDE, workloads.GRID_PATHS_PER_OD,
                           workloads.GRID_NETWORK_SEED)
unc = game.uncertain_edges
rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=12, spawn_key=(0, 4))))
draws = rng.uniform(game.noise_lo[unc], game.noise_hi[unc], size=(workloads.GRID_SAMPLES, len(unc)))
q_unc = game.path_set.edge_incidence[unc]
kappa_hat = np.zeros(game.path_set.n_paths)
for p in range(game.path_set.n_paths):
    cols = np.nonzero(q_unc[:, p])[0]
    if len(cols):
        kappa_hat[p] = cvar.cvar_from_values(draws[:, cols].sum(axis=1), game.alpha.alpha)[0]
problem = lcp.assemble_lcp(game, kappa_hat)
"""


def run_grid_philox_case(solve: str) -> subprocess.CompletedProcess:
    """GRID_PHILOX_CASE and then `solve`, lines that read its LCP as
    `problem`, in a child process at one BLAS thread."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", GRID_PHILOX_CASE + solve, str(root / "src"), str(root / "bench")],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.xfail(reason="Lemke's lexicographic rule cycles on this degenerate LCP")
def test_lemke_solves_grid_lcp_of_philox_seed12_rep4():
    """The known Lemke cycle, kept on a fixed LCP: its basis at pivot 551
    repeats the one at pivot 545, so it runs into any budget. Not strict,
    since another CPU or BLAS may round differently."""
    proc = run_grid_philox_case("lcp.solve_lcp_lemke(problem, max_pivots=1000)\n")
    assert proc.returncode == 0, proc.stderr


def test_qp_solves_grid_lcp_of_philox_seed12_rep4():
    """The LCP Lemke cycles on is the KKT system of a Beckmann program,
    which the active set solves: 85 iterations, where freeing the smallest
    index with a negative multiplier, not the most negative, took 677."""
    proc = run_grid_philox_case("sol = lcp.solve_lcp_qp(problem)\n"
                                "print(sol.feasible, sol.complementarity_gap, sol.iterations)\n")
    assert proc.returncode == 0, proc.stderr
    feasible, gap, iterations = proc.stdout.split()
    assert feasible == "True" and abs(float(gap)) <= 1e-8 and int(iterations) <= 150
