import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from scipy.optimize import linprog

from cvarvi import lcp, routing
from cvarvi.cvar import RiskLevel, cvar_from_values, cvar_uniform_interval, equal_weight_cvar
from cvarvi.lcp import assemble_lcp, solve_lcp_lemke
from cvarvi.routing import (
    SOLVE_METHODS,
    Network,
    OdPair,
    OdSpec,
    PathSet,
    TntpParseError,
    build_game,
    builtin_network,
    enumerate_paths,
    parse_tntp,
    path_cost_field,
    sample_path_kappa,
    solve_cwe,
    true_path_kappa,
    wardrop_gap,
)
from cvarvi.vi import natural_residual

MINIMAL_TNTP = """
<NUMBER OF NODES> 3
<NUMBER OF LINKS> 3
<END OF METADATA>
~ tail head capacity length fftt b power speed toll type ;
1 2 10.0 1 1.5 0.15 4 0 0 1 ;
2 3 20.0 1 2.5 0.15 4 0 0 1 ;
1 3 30.0 1 5.0 0.15 4 0 0 1 ;
"""


def diamond_network():
    """Four simple 1->4 paths with distinct free-flow times."""
    return Network(
        n_nodes=4,
        tail=[1, 1, 2, 2, 3, 3],
        head=[2, 3, 3, 4, 2, 4],
        free_flow_time=[1.0, 2.0, 0.5, 3.0, 0.25, 1.0],
        capacity=np.ones(6) * 10.0,
        congestion_coeff=np.ones(6),
    )


def all_simple_paths(network, source, target):
    """Exhaustive DFS oracle returning every simple path with its cost."""
    adj = network.out_edges()
    out = []

    def walk(nodes, cost):
        v = nodes[-1]
        if v == target:
            out.append((cost, tuple(nodes)))
            return
        for e in adj[v]:
            w = int(network.head[e])
            if w not in nodes:
                walk(nodes + [w], cost + float(network.free_flow_time[e]))

    walk([source], 0.0)
    return sorted(out)


class TestTntpParsing:
    def test_minimal(self):
        net = parse_tntp(MINIMAL_TNTP)
        assert net.n_nodes == 3 and net.n_edges == 3
        assert net.free_flow_time == pytest.approx([1.5, 2.5, 5.0])
        assert net.capacity == pytest.approx([10.0, 20.0, 30.0])

    def test_comments_and_blank_lines_anywhere(self):
        shuffled = MINIMAL_TNTP.replace("1 2 10.0", "~ noise line\n\n1 2 10.0")
        net = parse_tntp(shuffled)
        assert net.n_edges == 3

    def test_link_count_mismatch(self):
        bad = MINIMAL_TNTP.replace("<NUMBER OF LINKS> 3", "<NUMBER OF LINKS> 4")
        with pytest.raises(TntpParseError, match="metadata promises 4"):
            parse_tntp(bad)

    def test_node_out_of_range_names_line(self):
        bad = MINIMAL_TNTP.replace("2 3 20.0", "2 9 20.0")
        with pytest.raises(TntpParseError, match="line"):
            parse_tntp(bad)

    def test_malformed_row(self):
        bad = MINIMAL_TNTP.replace("20.0", "twenty")
        with pytest.raises(TntpParseError, match="malformed"):
            parse_tntp(bad)

    def test_self_loop_rejected(self):
        bad = MINIMAL_TNTP.replace("2 3 20.0", "2 2 20.0")
        with pytest.raises(ValueError, match="self-loop"):
            parse_tntp(bad)

    def test_builtin_sioux_falls_counts(self):
        net = builtin_network()
        assert net.n_nodes == 24
        assert net.n_edges == 76

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_network("atlantis")


class TestPathEnumeration:
    def test_diamond_matches_exhaustive_oracle(self):
        net = diamond_network()
        oracle = all_simple_paths(net, 1, 4)
        for k in range(1, len(oracle) + 1):
            ps = enumerate_paths(net, OdSpec(pairs=[OdPair(1, 4, 1.0, k)]))
            got = []
            for p, nodes in enumerate(ps.paths):
                cost = float(ps.edge_incidence[:, p] @ net.free_flow_time)
                got.append((cost, nodes))
            assert got == oracle[:k]

    def test_too_many_paths_requested(self):
        net = diamond_network()
        with pytest.raises(ValueError, match=r"\(1, 4\)"):
            enumerate_paths(net, OdSpec(pairs=[OdPair(1, 4, 1.0, 99)]))

    def test_incidence_structure(self):
        net = diamond_network()
        ps = enumerate_paths(net, OdSpec(pairs=[OdPair(1, 4, 1.0, 2), OdPair(2, 4, 1.0, 2)]))
        assert ps.edge_incidence.shape == (6, 4)
        # B is the one-hot matrix of od_of_path, derived and read-only.
        assert ps.od_of_path.tolist() == [0, 0, 1, 1]
        assert ps.od_incidence.dtype == float
        assert np.array_equal(ps.od_incidence, [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        assert ps.od_incidence is ps.od_incidence
        with pytest.raises(ValueError, match="read-only"):
            ps.od_incidence[0, 0] = 0.0

    @pytest.mark.parametrize("od_of_path", [[1, 1, 2, 2], [0, 0, 2, 2], [-1, 0, 1, 1], [0, 1, 1, 0]])
    def test_od_blocks_must_count_up_from_zero(self, od_of_path):
        net = diamond_network()
        ps = enumerate_paths(net, OdSpec(pairs=[OdPair(1, 4, 1.0, 2), OdPair(2, 4, 1.0, 2)]))
        with pytest.raises(ValueError, match="from 0 in steps of 0 or 1"):
            PathSet(ps.paths, od_of_path, ps.edge_incidence)

    def test_empty_path_set_rejected(self):
        with pytest.raises(ValueError, match="one OD index per path"):
            PathSet([], [], np.zeros((3, 0)))

    def test_parallel_edges_rejected(self):
        # Node sequences cannot say which of two 1->2 edges a path uses.
        net = Network(
            n_nodes=3,
            tail=[1, 1, 2],
            head=[2, 2, 3],
            free_flow_time=[1.0, 5.0, 1.0],
            capacity=np.ones(3),
            congestion_coeff=np.zeros(3),
        )
        with pytest.raises(ValueError, match=r"parallel edges 0 and 1 join node pair \(1, 2\)"):
            enumerate_paths(net, OdSpec(pairs=[OdPair(1, 3, 1.0, 1)]))

    def test_interleaved_ods_rejected(self):
        # A path set whose OD blocks interleave, with a consistent incidence.
        net = diamond_network()
        ps = enumerate_paths(net, OdSpec(pairs=[OdPair(1, 4, 1.0, 2), OdPair(2, 4, 1.0, 2)]))
        order = [0, 2, 1, 3]
        with pytest.raises(ValueError, match="nondecreasing"):
            PathSet(
                paths=[ps.paths[p] for p in order],
                od_of_path=ps.od_of_path[order],
                edge_incidence=ps.edge_incidence[:, order],
            )

    def test_deterministic_repeat(self):
        net = builtin_network()
        od = OdSpec(pairs=[OdPair(1, 19, 300, 10)])
        a = enumerate_paths(net, od)
        b = enumerate_paths(net, od)
        assert a.paths == b.paths


@pytest.fixture(scope="module")
def sioux_game():
    od = OdSpec(
        pairs=[OdPair(1, 19, 300, 10), OdPair(13, 8, 600, 10), OdPair(12, 18, 200, 10)]
    )
    return build_game(builtin_network(), od, RiskLevel(0.05))


@pytest.fixture(scope="module")
def uneven_game():
    """OD blocks of 4, 10 and 1 paths."""
    od = OdSpec(pairs=[OdPair(1, 19, 300, 4), OdPair(13, 8, 600, 10), OdPair(12, 18, 200, 1)])
    return build_game(builtin_network(), od, RiskLevel(0.05))


class TestGameAssembly:
    def test_dimensions(self, sioux_game):
        assert sioux_game.path_set.n_paths == 30
        assert len(sioux_game.uncertain_edges) == 18

    def test_uncertain_edges_touch_marked_nodes(self, sioux_game):
        net = sioux_game.network
        marked = {10, 16, 17}
        for e in range(net.n_edges):
            touches = int(net.tail[e]) in marked or int(net.head[e]) in marked
            assert (sioux_game.noise_hi[e] > 0) == touches
            if touches:
                assert sioux_game.noise_hi[e] == pytest.approx(0.5 * net.free_flow_time[e])

    def test_uncertain_nodes_outside_the_network_rejected(self):
        od = OdSpec(pairs=[OdPair(1, 19, 300, 1)])
        for nodes in [(99, 250), (0,), (10, 25)]:
            with pytest.raises(ValueError, match="outside the node range 1..24"):
                build_game(builtin_network(), od, RiskLevel(0.05), uncertain_nodes=nodes)

    def test_congestion_diag(self, sioux_game):
        net = sioux_game.network
        expected = 100.0 * net.free_flow_time / net.capacity
        assert sioux_game.congestion_diag == pytest.approx(expected)

    def test_demands_vector(self, sioux_game):
        assert sioux_game.demands == pytest.approx([300.0, 600.0, 200.0])

    def test_feasible_flows_one_block_per_od(self, uneven_game):
        assert uneven_game.feasible_flows.blocks == [(4, 300.0), (10, 600.0), (1, 200.0)]

    @pytest.mark.parametrize("n_pairs", [2, 4])
    def test_od_count_mismatch_rejected(self, sioux_game, n_pairs):
        pairs = [OdPair(1, 19, 300, 10), OdPair(13, 8, 600, 10), OdPair(12, 18, 200, 10), OdPair(2, 3, 1, 1)]
        with pytest.raises(ValueError, match=f"path set covers 3 OD pairs, the OD spec has {n_pairs}"):
            dataclasses.replace(sioux_game, od_spec=OdSpec(pairs=pairs[:n_pairs]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["free_flow_time", "capacity", "congestion_coeff"])
    def test_non_finite_edge_parameter_rejected(self, name, bad):
        net = diamond_network()
        values = getattr(net, name).copy()
        values[2] = bad
        with pytest.raises(ValueError, match=f"^{name} is not finite at edge 2$"):
            dataclasses.replace(net, **{name: values})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["noise_lo", "noise_hi"])
    def test_non_finite_noise_support_rejected(self, sioux_game, name, bad):
        values = sioux_game.noise_hi.copy()
        values[5] = bad
        with pytest.raises(ValueError, match="noise supports must be finite"):
            dataclasses.replace(sioux_game, **{name: values})


class TestCostModel:
    @staticmethod
    def fresh_game():
        od = OdSpec(pairs=[OdPair(1, 19, 300, 10), OdPair(13, 8, 600, 10)])
        return build_game(builtin_network(), od, RiskLevel(0.05))

    def test_built_once_and_shared(self):
        game = self.fresh_game()
        q_inc = game.path_set.edge_incidence
        assert game.cost_matrix is game.cost_matrix
        assert game.cost_matrix == pytest.approx(q_inc.T @ np.diag(game.congestion_diag) @ q_inc)
        assert game.free_flow_costs is game.free_flow_costs
        assert game.lcp_matrix is game.lcp_matrix
        assert game.noise_edges is game.noise_edges
        assert game.path_noise_rows is game.path_noise_rows
        assert game.feasible_flows is game.feasible_flows
        assert game.path_set.od_starts is game.path_set.od_starts
        assert game.path_set.od_starts.tolist() == [0, 10]
        assert game.lipschitz == pytest.approx(np.linalg.norm(game.cost_matrix, 2), rel=1e-12)
        field = path_cost_field(game, np.zeros(20))
        assert field.lipschitz_hint == game.lipschitz
        assert np.array_equal(field(np.zeros(20)), game.free_flow_costs)

    def test_cached_arrays_are_read_only(self):
        game = self.fresh_game()
        for arr in (game.cost_matrix, game.free_flow_costs, game.lcp_matrix, game.noise_edges,
                    game.path_set.od_starts, assemble_lcp(game, np.zeros(20)).m_mat):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_repeat_solve_skips_spectral_norm(self, monkeypatch):
        game = self.fresh_game()
        kappa = sample_path_kappa(game, 200, 1)
        solve_cwe(game, kappa, method="lemke")
        calls = []
        for module in (routing, lcp):
            monkeypatch.setattr(module, "spectral_norm", lambda a: calls.append(a))
        solve_cwe(game, kappa, method="lemke")
        assert calls == []

    @pytest.mark.parametrize("method", ["extragradient", "lemke", "qp"])
    def test_pickled_game_solves_to_the_same_bits(self, method):
        game = self.fresh_game()
        kappa = sample_path_kappa(game, 200, 2)
        sol = solve_cwe(game, kappa, method=method)
        # As in a worker process: the cost model travels with the game.
        clone = pickle.loads(pickle.dumps(game))
        assert np.array_equal(vars(clone)["cost_matrix"], game.cost_matrix)
        assert vars(clone)["path_noise_rows"] == game.path_noise_rows
        again = solve_cwe(clone, kappa, method=method)
        assert np.array_equal(again.x_star, sol.x_star)
        assert again.residual == sol.residual and again.iterations == sol.iterations


class TestReferenceCache:
    @staticmethod
    def small_game():
        od = OdSpec(pairs=[OdPair(16, 17, 1.0, 1)])
        return build_game(builtin_network(), od, RiskLevel(0.05))

    def test_writes_one_file_and_reads_it_back(self, tmp_path):
        game = self.small_game()
        kappa = true_path_kappa(game, 10**5, 42, cache_dir=tmp_path)
        (key,) = tmp_path.iterdir()
        assert key.suffix == ".npz"
        assert np.array_equal(true_path_kappa(game, 10**5, 42, cache_dir=tmp_path), kappa)
        assert list(tmp_path.iterdir()) == [key]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def broken_savez(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", broken_savez)
        with pytest.raises(OSError, match="disk full"):
            true_path_kappa(self.small_game(), 10**5, 42, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_mismatched_file_under_the_key_raises(self, tmp_path):
        game = self.small_game()
        kappa = true_path_kappa(game, 10**5, 42, cache_dir=tmp_path)
        (key,) = tmp_path.iterdir()
        np.savez(key, kappa=kappa, n_ref=10**5 + 1, seed_ref=42, alpha=0.05)
        with pytest.raises(ValueError, match="stored for"):
            true_path_kappa(game, 10**5, 42, cache_dir=tmp_path)

    def test_layout_is_stored_and_checked(self, tmp_path):
        game = self.small_game()
        kappa = true_path_kappa(game, 10**5, 42, cache_dir=tmp_path)
        (key,) = tmp_path.iterdir()
        with np.load(key) as stored:
            assert str(stored["layout"]) == routing._DRAW_LAYOUT
        np.savez(key, kappa=kappa, n_ref=10**5, seed_ref=42, alpha=0.05, layout="Philox")
        with pytest.raises(ValueError, match="stored for"):
            true_path_kappa(game, 10**5, 42, cache_dir=tmp_path)

    def test_file_under_the_philox_key_is_never_read(self, tmp_path):
        # The key before the draw layout was part of it: Philox, every
        # uncertain edge, sample-major draws.
        game = self.small_game()
        digest = hashlib.sha256()
        digest.update(np.asarray([10**5, 42, 0.05]).tobytes())
        for arr in (game.noise_lo, game.noise_hi, game.path_set.edge_incidence):
            digest.update(arr.tobytes())
        old_key = tmp_path / f"kappa_ref_{digest.hexdigest()[:16]}.npz"
        poison = np.full(game.path_set.n_paths, 123.0)
        np.savez(old_key, kappa=poison, n_ref=10**5, seed_ref=42, alpha=0.05)
        kappa = true_path_kappa(game, 10**5, 42, cache_dir=tmp_path)
        assert kappa.tobytes() == true_path_kappa(game, 10**5, 42).tobytes()
        assert len(list(tmp_path.iterdir())) == 2


class TestKappaSampling:
    def test_deterministic_paths_exactly_zero(self):
        od = OdSpec(
            pairs=[OdPair(1, 19, 300, 10), OdPair(13, 8, 600, 10), OdPair(12, 18, 200, 10)]
        )
        game = build_game(builtin_network(), od, RiskLevel(0.05))
        kappa = sample_path_kappa(game, 200, 5)
        q_unc = game.path_set.edge_incidence[game.uncertain_edges]
        for p in range(game.path_set.n_paths):
            if q_unc[:, p].sum() == 0:
                assert kappa[p] == 0.0
            else:
                assert kappa[p] > 0.0

    def test_bitwise_reproducible(self):
        od = OdSpec(pairs=[OdPair(1, 19, 300, 5)])
        game = build_game(builtin_network(), od, RiskLevel(0.05))
        a = sample_path_kappa(game, 100, 7, 1, 2)
        b = sample_path_kappa(game, 100, 7, 1, 2)
        c = sample_path_kappa(game, 100, 7, 1, 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_no_path_crosses_changes_nothing(self, sioux_game):
        (idle,) = np.nonzero(~sioux_game.path_set.edge_incidence.any(axis=1))[0][:1]
        assert sioux_game.noise_hi[idle] == 0.0
        noise_hi = sioux_game.noise_hi.copy()
        noise_hi[idle] = 5.0
        noisier = dataclasses.replace(sioux_game, noise_hi=noise_hi)
        assert idle in noisier.uncertain_edges
        assert np.array_equal(noisier.noise_edges, sioux_game.noise_edges)
        for n in (1, 50, 5000):
            a = sample_path_kappa(sioux_game, n, 4, 2, n)
            assert sample_path_kappa(noisier, n, 4, 2, n).tobytes() == a.tobytes()

    def test_draws_only_edges_some_path_crosses(self, sioux_game):
        q_inc = sioux_game.path_set.edge_incidence
        edges = sioux_game.noise_edges
        assert np.all(np.diff(edges) > 0)
        assert set(edges.tolist()) == {e for e in sioux_game.uncertain_edges.tolist() if q_inc[e].any()}
        for p, rows in enumerate(sioux_game.path_noise_rows):
            assert edges[list(rows)].tolist() == [e for e in edges.tolist() if q_inc[e, p]]

    def test_single_edge_matches_uniform_cvar(self):
        # A path whose only uncertain edge carries U(0, hi) noise must have
        # kappa close to the analytic uniform CVaR for large N.
        od = OdSpec(pairs=[OdPair(16, 17, 1.0, 1)])
        game = build_game(builtin_network(), od, RiskLevel(0.05))
        assert game.path_set.paths[0] == (16, 17)
        e = np.nonzero(game.path_set.edge_incidence[:, 0])[0][0]
        hi = game.noise_hi[e]
        assert hi > 0
        kappa = sample_path_kappa(game, 100000, 3)
        exact = cvar_uniform_interval(0.0, hi, RiskLevel(0.05))
        assert kappa[0] == pytest.approx(exact, rel=5e-3)


def sort_route_kappa(game, draws):
    """Oracle: every path sum of the edge-major draws, summed sample-major
    over the path's columns, through cvar_from_values, the full sort."""
    q_noisy = game.path_set.edge_incidence[game.noise_edges]
    kappa = np.zeros(game.path_set.n_paths)
    for p in range(game.path_set.n_paths):
        cols = np.nonzero(q_noisy[:, p])[0]
        if len(cols):
            kappa[p] = cvar_from_values(draws.T[:, cols].sum(axis=1), game.alpha.alpha)[0]
    return kappa


def same_draws(game, n, seed, *stream_key):
    rng = routing.replication_rng(seed, *stream_key)
    lo, hi = game.noise_lo[game.noise_edges], game.noise_hi[game.noise_edges]
    return rng.uniform(lo[:, None], hi[:, None], size=(len(lo), n))


class TestKappaSelectionMatchesSort:
    # alpha = 0.05: alpha N is integral at N = 20 and fractional at 19 and 21.
    @pytest.mark.parametrize("n", [1, 2, 19, 20, 21, 50, 500, 5000])
    def test_sample_path_kappa_bitwise(self, sioux_game, n):
        kappa = sample_path_kappa(sioux_game, n, 8, 3, n)
        assert kappa.tobytes() == sort_route_kappa(sioux_game, same_draws(sioux_game, n, 8, 3, n)).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 19, 20, 21, 50, 500, 5000])
    @pytest.mark.parametrize("decimals", [0, 1])
    def test_tied_draws_bitwise(self, sioux_game, n, decimals):
        draws = np.round(same_draws(sioux_game, n, 9, n), decimals)
        kappa = routing._kappa_from_noise(sioux_game, draws)
        assert kappa.tobytes() == sort_route_kappa(sioux_game, draws).tobytes()

    def test_reference_bitwise(self, sioux_game):
        kappa = true_path_kappa(sioux_game, 10**5, 42)
        assert kappa.tobytes() == sort_route_kappa(sioux_game, same_draws(sioux_game, 10**5, 42)).tobytes()


def per_path_kappa(game, draws):
    """Oracle: one sum and one tail selection for every path, shared rows or not."""
    n_samples = draws.shape[1]
    cvar_of = equal_weight_cvar(n_samples, game.alpha.alpha)
    sums = np.empty(n_samples)
    kappa = np.zeros(game.path_set.n_paths)
    for p, rows in enumerate(game.path_noise_rows):
        if len(rows) == 1:
            kappa[p] = cvar_of(draws[rows[0]])
        elif rows:
            np.add(draws[rows[0]], draws[rows[1]], out=sums)
            for r in rows[2:]:
                sums += draws[r]
            kappa[p] = cvar_of(sums)
    return kappa


class TestSharedRowsReducedOnce:
    @pytest.fixture(scope="class")
    def distinct_game(self):
        od = OdSpec(pairs=[OdPair(12, 18, 200, 10)])
        return build_game(builtin_network(), od, RiskLevel(0.05))

    @staticmethod
    def repeated_rows(game):
        rows = [r for r in game.path_noise_rows if r]
        return len(rows) - len(set(rows))

    @pytest.mark.parametrize("n", [1, 50, 5000])
    @pytest.mark.parametrize("game_name, repeats", [("sioux_game", 3), ("distinct_game", 0)])
    def test_equals_per_path_loop_bitwise(self, request, monkeypatch, game_name, repeats, n):
        game = request.getfixturevalue(game_name)
        assert self.repeated_rows(game) == repeats
        kappa = sample_path_kappa(game, n, 5, 1, n)
        monkeypatch.setattr(routing, "_kappa_from_noise", per_path_kappa)
        assert kappa.tobytes() == sample_path_kappa(game, n, 5, 1, n).tobytes()


class TestEquilibriumRegions:
    """A region table changes how a flow is found, never its bits."""

    @pytest.fixture(scope="class")
    def kappas(self, sioux_game):
        return [sample_path_kappa(sioux_game, 500, 11, rep) for rep in range(4)]

    def test_hit_runs_no_solver_and_gives_the_cold_bits(self, sioux_game, kappas):
        table = []
        cold = solve_cwe(sioux_game, kappas[0], "lemke", regions=table)
        assert len(table) == 1 and cold.iterations > 0
        for kappa in kappas:
            plain = solve_cwe(sioux_game, kappa, "lemke")
            hit = solve_cwe(sioux_game, kappa, "lemke", regions=table)
            assert (hit.iterations, hit.converged) == (0, True)
            assert hit.x_star.tobytes() == plain.x_star.tobytes()
            assert hit.residual == plain.residual
        assert len(table) == 1

    def test_every_method_returns_the_region_flow(self, sioux_game, kappas):
        flows = {solve_cwe(sioux_game, kappas[1], method).x_star.tobytes() for method in SOLVE_METHODS}
        assert len(flows) == 1

    def test_region_arrays_are_read_only(self, sioux_game, kappas):
        table = []
        solve_cwe(sioux_game, kappas[0], "lemke", regions=table)
        region = table[0]
        assert set(region.support) < set(np.flatnonzero(region.active))  # a tied path is idle
        for f in dataclasses.fields(region):
            with pytest.raises(ValueError, match="read-only"):
                getattr(region, f.name)[0] = 0

    @pytest.mark.parametrize("change", ["drop a used path", "use a tied idle path"])
    def test_wrong_support_misses(self, sioux_game, kappas, change):
        table = []
        solve_cwe(sioux_game, kappas[0], "lemke", regions=table)
        right = table[0]
        used = np.zeros(30, dtype=bool)
        used[right.support] = True
        if change == "drop a used path":
            used[right.support[0]] = False
        else:
            used[np.flatnonzero(right.active & ~used)[0]] = True
        wrong = routing._equilibrium_region(sioux_game, right.active, used)
        table = [wrong]
        sol = solve_cwe(sioux_game, kappas[0], "lemke", regions=table)
        plain = solve_cwe(sioux_game, kappas[0], "lemke")
        assert sol.x_star.tobytes() == plain.x_star.tobytes() and sol.residual == plain.residual
        assert sol.iterations == plain.iterations > 0
        assert len(table) == 2 and table[1].support.tolist() == right.support.tolist()

    def test_kappa_that_moves_the_active_set_misses(self, sioux_game, kappas):
        table = []
        solve_cwe(sioux_game, kappas[0], "lemke", regions=table)
        moved = kappas[0].copy()
        moved[table[0].support[0]] += 100.0  # the path is no longer among the cheapest
        sol = solve_cwe(sioux_game, moved, "lemke", regions=table)
        plain = solve_cwe(sioux_game, moved, "lemke")
        assert sol.x_star.tobytes() == plain.x_star.tobytes() and sol.iterations == plain.iterations > 0
        assert len(table) == 2 and not np.array_equal(table[0].active, table[1].active)

    def test_region_whose_idle_path_should_carry_flow_misses(self, sioux_game):
        # Two replications whose minimum-norm flows share S but not T: path
        # 24 carries flow in the first and is tied but idle in the second.
        uses, idles = (sample_path_kappa(sioux_game, 50, 11, rep) for rep in (0, 2))
        table = []
        solve_cwe(sioux_game, idles, "lemke", regions=table)
        assert 24 not in table[0].support and table[0].active[24]
        sol = solve_cwe(sioux_game, uses, "lemke", regions=table)
        assert sol.x_star.tobytes() == solve_cwe(sioux_game, uses, "lemke").x_star.tobytes()
        assert sol.iterations > 0 and 24 in table[1].support

    def test_flow_below_the_margin_misses(self, sioux_game):
        # Between those two replications path 24's flow falls to zero;
        # where it is 5e-5 the region is right but uncertified.
        uses, idles = (sample_path_kappa(sioux_game, 50, 11, rep) for rep in (0, 2))
        table = []
        solve_cwe(sioux_game, uses, "lemke", regions=table)
        region = table[0]
        i = int(np.flatnonzero(region.support == 24)[0])
        # The region's map is affine in kappa: its path-24 flow at each end.
        q = [(sioux_game.free_flow_costs + kappa)[region.support] for kappa in (uses, idles)]
        ends = [region.flow_map[i] @ q_used + region.flow_offset[i] for q_used in q]
        t = (ends[0] - 5e-5) / (ends[0] - ends[1])
        kappa = (1.0 - t) * uses + t * idles
        sol = solve_cwe(sioux_game, kappa, "lemke", regions=table)
        plain = solve_cwe(sioux_game, kappa, "lemke")
        assert sol.x_star[24] == pytest.approx(5e-5, rel=1e-3)
        assert sol.x_star.tobytes() == plain.x_star.tobytes() and sol.iterations == plain.iterations > 0
        assert len(table) == 1

    def test_near_tie_outside_the_active_set_misses(self, sioux_game, kappas):
        # A path 1e-6 (relative) above its OD minimum is outside S for the
        # cold route but within the certificate's margin: no region holds.
        table = []
        hit = solve_cwe(sioux_game, kappas[0], "lemke", regions=table)
        costs = path_cost_field(sioux_game, kappas[0])(hit.x_star)
        floor = np.array([costs[sioux_game.path_set.od_of_path == w].min()
                          for w in sioux_game.path_set.od_of_path])
        p = int(np.flatnonzero(~table[0].active)[0])
        near = kappas[0].copy()
        near[p] -= costs[p] - floor[p] - 1e-6 * (1.0 + floor[p])
        sol = solve_cwe(sioux_game, near, "lemke", regions=table)
        plain = solve_cwe(sioux_game, near, "lemke")
        assert sol.x_star.tobytes() == plain.x_star.tobytes() and sol.iterations == plain.iterations > 0
        assert len(table) == 1

    def test_uncongested_edges_give_no_region(self, sioux_game, kappas):
        game = build_game(builtin_network(), sioux_game.od_spec, RiskLevel(0.05), b_e=0.0)
        table = []
        sol = solve_cwe(game, kappas[0], "lemke", regions=table)
        assert table == []
        assert wardrop_gap(game, kappas[0], sol.x_star) <= 1e-5


class TestZeroDemandOd:
    """B h = 0 with h >= 0 holds a zero-demand OD's paths at exactly 0."""

    @pytest.fixture(scope="class")
    def game(self):
        od = OdSpec(pairs=[OdPair(1, 19, 0, 10), OdPair(13, 8, 600, 10)])
        return build_game(builtin_network(), od, RiskLevel(0.05))

    def test_every_method_gives_finite_flows_with_equal_loads(self, game):
        kappa = sample_path_kappa(game, 50, 3)
        flows = {method: solve_cwe(game, kappa, method).x_star for method in SOLVE_METHODS}
        loads = game.path_set.edge_incidence @ flows["lemke"]
        for h in flows.values():
            assert np.isfinite(h).all() and not h[:10].any()
            assert game.path_set.edge_incidence @ h == pytest.approx(loads, rel=1e-9, abs=1e-9)

    def test_lemke_builds_a_region_whose_hits_give_the_cold_bits(self, game):
        kappas = [sample_path_kappa(game, 50, 3, rep) for rep in range(4)]
        table = []
        solve_cwe(game, kappas[0], "lemke", regions=table)
        assert len(table) == 1
        assert solve_cwe(game, kappas[0], "lemke", regions=table).iterations == 0
        for kappa in kappas:
            plain = solve_cwe(game, kappa, "lemke")
            hit = solve_cwe(game, kappa, "lemke", regions=table)
            assert hit.x_star.tobytes() == plain.x_star.tobytes() and hit.residual == plain.residual

    def test_all_demands_zero_give_the_zero_flow(self):
        od = OdSpec(pairs=[OdPair(1, 19, 0, 10), OdPair(13, 8, 0, 10)])
        game = build_game(builtin_network(), od, RiskLevel(0.05))
        for method in SOLVE_METHODS:
            assert solve_cwe(game, sample_path_kappa(game, 50, 3), method).x_star.tobytes() == bytes(8 * 20)

    def test_non_finite_flow_fails_both_checks(self, sioux_game):
        # A NaN path flow counts as used, also where no other path is.
        h = np.zeros(30)
        h[4] = np.nan
        assert np.isnan(wardrop_gap(sioux_game, np.zeros(30), h))
        h = sioux_game.feasible_flows.default_start()
        h[4] = np.nan
        with pytest.raises(ValueError, match="infeasible"):
            natural_residual(sioux_game.feasible_flows, path_cost_field(sioux_game, np.zeros(30)), h)


class TestSolveAndCertificate:
    def test_two_path_toy_analytic(self):
        # One OD, two disjoint routes with distinct congestion: interior split.
        net = Network(
            n_nodes=4,
            tail=[1, 2, 1, 3],
            head=[2, 4, 3, 4],
            free_flow_time=[1.0, 1.0, 1.0, 1.0],
            capacity=[1.0, 1.0, 1.0, 1.0],
            congestion_coeff=[1.0, 1.0, 1.0, 1.0],
        )
        od = OdSpec(pairs=[OdPair(1, 4, 1.0, 2)])
        game = build_game(net, od, RiskLevel(0.5), b_e=1.0, uncertain_nodes=())
        # Both paths symmetric: equilibrium splits demand evenly.
        sol = solve_cwe(game, np.zeros(2), method="extragradient")
        assert sol.x_star == pytest.approx([0.5, 0.5], abs=1e-7)
        assert wardrop_gap(game, np.zeros(2), sol.x_star) < 1e-8

    def test_wardrop_gap_flags_bad_flow(self):
        od = OdSpec(pairs=[OdPair(1, 19, 300, 10)])
        game = build_game(builtin_network(), od, RiskLevel(0.05))
        kappa = sample_path_kappa(game, 100, 0)
        uniform = game.feasible_flows.default_start()
        assert wardrop_gap(game, kappa, uniform) > 1e-3

    def test_nan_cost_fails_the_certificate(self):
        # A non-finite kappa is rejected where it enters the cost model, so
        # the certificate and every method fail with the same error.
        od = OdSpec(pairs=[OdPair(1, 19, 300, 10), OdPair(13, 8, 600, 10)])
        game = build_game(builtin_network(), od, RiskLevel(0.05))
        for bad in (np.nan, np.inf, -np.inf):
            kappa = np.zeros(20)
            kappa[[3, 7]] = bad
            message = "^kappa is not finite at path 3$"
            with pytest.raises(ValueError, match=message):
                wardrop_gap(game, kappa, game.feasible_flows.default_start())
            for method in ("extragradient", "lemke", "qp"):
                with pytest.raises(ValueError, match=message):
                    solve_cwe(game, kappa, method=method)

    def test_unknown_method(self):
        od = OdSpec(pairs=[OdPair(1, 19, 300, 3)])
        game = build_game(builtin_network(), od, RiskLevel(0.05))
        with pytest.raises(ValueError, match="unknown method"):
            solve_cwe(game, np.zeros(3), method="magic")

    @pytest.mark.parametrize("method", ["extragradient", "lemke", "qp"])
    def test_canonical_flow_is_min_norm_equilibrium(self, sioux_game, method):
        # Path flows are not identified on Sioux Falls (Q has rank 24 for
        # 30 paths), so each solver reaches its own point of the
        # equilibrium set; a raw pivoting solution is one such point.
        ps = sioux_game.path_set
        assert np.linalg.matrix_rank(ps.edge_incidence) < ps.n_paths
        kappa = sample_path_kappa(sioux_game, 500, 11)
        raw = solve_lcp_lemke(assemble_lcp(sioux_game, kappa)).x[: ps.n_paths]
        h = solve_cwe(sioux_game, kappa, method=method).x_star
        eq = np.vstack([ps.edge_incidence, ps.od_incidence])
        assert np.abs(eq @ h - eq @ raw).max() <= 1e-9 * np.abs(eq @ raw).max()
        assert np.linalg.norm(h) <= np.linalg.norm(raw)
        assert wardrop_gap(sioux_game, kappa, h) <= 1e-5
        # h is the point of the set nearest the origin exactly when the
        # linear program min <h, g> over the set g attains ||h||^2.
        costs = path_cost_field(sioux_game, kappa)(raw)
        floor = np.array([costs[ps.od_of_path == w].min() for w in ps.od_of_path])
        off = costs > floor + 1e-6 * (1.0 + floor)
        lp = linprog(h, A_eq=eq, b_eq=eq @ raw, bounds=[(0, 0) if o else (0, None) for o in off])
        assert lp.status == 0
        assert lp.fun >= (h @ h) * (1.0 - 1e-7)

    def test_field_monotone_on_sioux(self, sioux_game):
        field = path_cost_field(sioux_game, np.zeros(30))
        assert monotone_violations(field, sioux_game.feasible_flows, trials=300) == 0


def random_flow(feasible, rng):
    """A random point of a SimplexProduct: each block's demand times one
    flat Dirichlet draw, block by block."""
    return np.concatenate([d * rng.dirichlet(np.ones(n)) for n, d in feasible.blocks])


def monotone_violations(field, feasible, trials, seed=0):
    """Sampled pairs of feasible points with (F(x) - F(x'))^T (x - x') < -1e-10."""
    rng = np.random.default_rng(seed)
    pairs = [(random_flow(feasible, rng), random_flow(feasible, rng)) for _ in range(trials)]
    return sum(float(np.dot(field(x) - field(xp), x - xp)) < -1e-10 for x, xp in pairs)


def loop_wardrop_gap(game, kappa, h):
    """Oracle: the largest used-path excess, OD by OD over the rows of B."""
    costs = path_cost_field(game, kappa)(h)
    gap = 0.0
    for w in range(len(game.od_spec.pairs)):
        members = np.nonzero(game.path_set.od_incidence[w])[0]
        min_cost = costs[members].min()
        used = members[h[members] > 1e-6]
        if len(used):
            gap = max(gap, float(costs[used].max() - min_cost))
    return gap


def loop_od_min_cost(path_set, costs):
    """Oracle: each path's OD minimum, OD by OD."""
    floor = np.empty_like(costs)
    for w in range(len(path_set.od_incidence)):
        members = path_set.od_of_path == w
        floor[members] = costs[members].min()
    return floor


class TestPerOdMinimumMatchesLoop:
    @pytest.mark.parametrize("game_name", ["sioux_game", "uneven_game"])
    def test_wardrop_gap_bitwise(self, request, game_name):
        game = request.getfixturevalue(game_name)
        feasible = game.feasible_flows
        rng = np.random.default_rng(3)
        for rep in range(5):
            kappa = sample_path_kappa(game, 50, 4, rep)
            flows = [feasible.default_start(), random_flow(feasible, rng), solve_cwe(game, kappa, "lemke").x_star]
            for h in flows:
                assert wardrop_gap(game, kappa, h) == loop_wardrop_gap(game, kappa, h)
        assert wardrop_gap(game, kappa, flows[0]) > 0.0

    @pytest.mark.parametrize("method", ["lemke", "qp", "extragradient"])
    @pytest.mark.parametrize("game_name", ["sioux_game", "uneven_game"])
    def test_solve_cwe_bitwise(self, request, monkeypatch, game_name, method):
        game = request.getfixturevalue(game_name)
        kappas = [sample_path_kappa(game, n, 6, n) for n in (50, 500)]
        sols = [solve_cwe(game, kappa, method) for kappa in kappas]
        monkeypatch.setattr(routing, "_od_min_cost", loop_od_min_cost)
        for kappa, sol in zip(kappas, sols):
            oracle = solve_cwe(game, kappa, method)
            assert sol.x_star.tobytes() == oracle.x_star.tobytes()
            assert sol.residual == oracle.residual and sol.iterations == oracle.iterations
