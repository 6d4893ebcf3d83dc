import numpy as np
import pytest

from cvarvi.cvar import RiskLevel
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


class TestLexArgmin:
    def test_exact_tie_on_first_key_broken_by_second(self):
        keys = np.array([[1.0, 0.5], [1.0, 0.25], [1.0, 0.75]])
        assert _lex_argmin(keys) == 1

    def test_tolerance_decides_what_is_a_tie(self):
        # 5e-15 lies inside the 1e-14 tolerance: a tie, settled by the
        # second key. 2e-14 lies outside it: the first key decides.
        assert _lex_argmin(np.array([[0.0, 0.0], [-5e-15, 1.0]])) == 0
        assert _lex_argmin(np.array([[0.0, 1.0], [-5e-15, 0.0]])) == 1
        assert _lex_argmin(np.array([[0.0, 0.0], [-2e-14, 1.0]])) == 1

    def test_full_equality_keeps_first_row(self):
        keys = np.array([[2.0, 1.0], [1.0, 3.0], [1.0, 3.0], [1.0, 3.0 + 5e-15]])
        assert _lex_argmin(keys) == 1
        assert _lex_argmin(np.zeros((1, 3))) == 0


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
