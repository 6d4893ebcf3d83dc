import dataclasses
import hashlib
import heapq
import itertools
import pickle
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, nnls

from cvarvi import lcp, routing
from cvarvi.cvar import RiskLevel, cvar_from_values, cvar_of_row_stream, cvar_uniform_interval
from cvarvi.harness import ExperimentConfig, build_configured_game, default_config_text, parse_config
from cvarvi.lcp import assemble_lcp, solve_lcp_lemke, solve_lcp_qp
from cvarvi.routing import (
    SOLVE_METHODS,
    Network,
    OdPair,
    OdSpec,
    PathSet,
    RoutingGame,
    TntpParseError,
    build_game,
    builtin_network,
    enumerate_paths,
    parse_tntp,
    path_cost_field,
    sample_kappa_block,
    sample_path_kappa,
    solve_cwe,
    solve_cwe_block,
    true_path_kappa,
    wardrop_gap,
)
from cvarvi.tables import fmt
from cvarvi.vi import SimplexProduct, extragradient_solve, natural_residual

MINIMAL_TNTP = """
<NUMBER OF NODES> 3
<NUMBER OF LINKS> 3
<END OF METADATA>
~ tail head capacity length fftt b power speed toll type ;
1 2 10.0 1 1.5 0.15 4 0 0 1 ;
2 3 20.0 1 2.5 0.15 4 0 0 1 ;
1 3 30.0 1 5.0 0.15 4 0 0 1 ;
"""


# The 30 paths of the default experiment's game, 10 per OD pair in
# (free-flow time, node sequence) order.
DEFAULT_GAME_PATHS = [
    (1, 2, 6, 8, 16, 17, 19),
    (1, 2, 6, 8, 7, 18, 16, 17, 19),
    (1, 3, 4, 5, 6, 8, 16, 17, 19),
    (1, 2, 6, 8, 7, 18, 20, 19),
    (1, 3, 4, 5, 9, 10, 16, 17, 19),
    (1, 3, 4, 11, 14, 15, 19),
    (1, 3, 12, 11, 14, 15, 19),
    (1, 3, 12, 13, 24, 21, 22, 15, 19),
    (1, 3, 4, 5, 9, 10, 15, 19),
    (1, 3, 4, 11, 10, 16, 17, 19),
    (13, 12, 3, 4, 5, 6, 8),
    (13, 24, 21, 20, 18, 7, 8),
    (13, 12, 11, 4, 5, 6, 8),
    (13, 12, 11, 10, 16, 8),
    (13, 24, 21, 22, 20, 18, 7, 8),
    (13, 12, 3, 1, 2, 6, 8),
    (13, 24, 21, 22, 15, 19, 17, 16, 8),
    (13, 24, 23, 22, 20, 18, 7, 8),
    (13, 24, 21, 20, 18, 16, 8),
    (13, 24, 23, 22, 15, 19, 17, 16, 8),
    (12, 11, 10, 16, 18),
    (12, 13, 24, 21, 20, 18),
    (12, 3, 4, 5, 6, 8, 7, 18),
    (12, 13, 24, 21, 22, 20, 18),
    (12, 13, 24, 23, 22, 20, 18),
    (12, 3, 4, 5, 6, 8, 16, 18),
    (12, 11, 10, 17, 16, 18),
    (12, 3, 4, 5, 9, 10, 16, 18),
    (12, 11, 4, 5, 6, 8, 7, 18),
    (12, 11, 10, 16, 8, 7, 18),
]


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


def out_edges(network):
    adj = {v: [] for v in range(1, network.n_nodes + 1)}
    for e, v in enumerate(network.tail.tolist()):
        adj[v].append(e)
    return adj


def all_simple_paths(network, source, target):
    """Exhaustive DFS oracle returning every simple path with its cost."""
    adj = out_edges(network)
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


def hand_yen(network, source, target, k):
    """A pure-Python Yen (1971), independent of `enumerate_paths`' search:
    Dijkstra with (cost, node sequence) heap order, loopless deviations
    from every accepted path."""
    adj = out_edges(network)
    edge_of = {(int(network.tail[e]), int(network.head[e])): e for e in range(network.n_edges)}
    fftt = network.free_flow_time

    def dijkstra(start, banned_edges, banned_nodes):
        heap = [(0.0, (start,))]
        settled = set()
        while heap:
            cost, nodes = heapq.heappop(heap)
            v = nodes[-1]
            if v == target:
                return cost, nodes
            if v in settled:
                continue
            settled.add(v)
            for e in adj[v]:
                if e in banned_edges:
                    continue
                w = int(network.head[e])
                if w in banned_nodes or w in settled or w in nodes:
                    continue
                heapq.heappush(heap, (cost + float(fftt[e]), nodes + (w,)))
        return None

    first = dijkstra(source, frozenset(), frozenset())
    if first is None:
        return []
    accepted = [first]
    candidates = []
    seen = {first[1]}
    while len(accepted) < k:
        _, last_path = accepted[-1]
        for i in range(len(last_path) - 1):
            root = last_path[: i + 1]
            banned_edges = {edge_of[(path[i], path[i + 1])] for _, path in accepted
                            if path[: i + 1] == root and len(path) > i + 1}
            spur = dijkstra(last_path[i], frozenset(banned_edges), frozenset(root[:-1]))
            if spur is None:
                continue
            root_cost = sum(float(fftt[edge_of[(root[j], root[j + 1])]]) for j in range(len(root) - 1))
            total = root + spur[1][1:]
            if total not in seen:
                seen.add(total)
                heapq.heappush(candidates, (root_cost + spur[0], total))
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    return [nodes for _, nodes in accepted]


def grid_network(side, seed, integer_times):
    """Bidirectional side x side grid with seeded free-flow times; integer
    times make many equal-cost paths."""
    tail, head = [], []
    for v in range(1, side * side + 1):
        if v % side:
            tail += [v, v + 1]
            head += [v + 1, v]
        if v + side <= side * side:
            tail += [v, v + side]
            head += [v + side, v]
    rng = np.random.default_rng(seed)
    times = rng.integers(1, 4, len(tail)) if integer_times else rng.uniform(2.0, 8.0, len(tail))
    return Network(n_nodes=side * side, tail=tail, head=head, free_flow_time=times,
                   capacity=np.ones(len(tail)), congestion_coeff=np.zeros(len(tail)))


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

    @pytest.mark.parametrize("tag", ["NUMBER OF NODES", "NUMBER OF LINKS"])
    def test_bad_count_names_line_and_tag(self, tag):
        bad = MINIMAL_TNTP.replace(f"<{tag}> 3", f"<{tag}> abc")
        line = 1 + bad.splitlines().index(f"<{tag}> abc")
        with pytest.raises(TntpParseError, match=f"line {line}: <{tag}> expects a count, got 'abc'"):
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

    def test_builtin_parsed_once_per_process(self, monkeypatch):
        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_tntp(text)

        routing._builtin_arrays.cache_clear()
        monkeypatch.setattr(routing, "parse_tntp", counting_parse)
        first, second = builtin_network(), builtin_network()
        assert len(parsed) == 1
        assert first is not second
        for name in ("tail", "head", "free_flow_time", "capacity", "congestion_coeff"):
            assert getattr(first, name) is getattr(second, name)

    def test_builtin_arrays_are_read_only(self):
        net = builtin_network()
        capacity = net.capacity[0]
        with pytest.raises(ValueError, match="read-only"):
            net.capacity[0] = 2 * capacity
        with pytest.raises(ValueError, match="read-only"):
            net.tail[0] = net.head[0]
        assert builtin_network().capacity[0] == capacity


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
        with pytest.raises(ValueError, match=r"^OD pair \(1, 4\) has only 4 simple paths, requested 99$"):
            enumerate_paths(net, OdSpec(pairs=[OdPair(1, 4, 1.0, 99)]))

    def test_unreachable_destination(self):
        net = Network(n_nodes=3, tail=[1, 2], head=[2, 1], free_flow_time=[1.0, 1.0],
                      capacity=np.ones(2), congestion_coeff=np.zeros(2))
        with pytest.raises(ValueError, match=r"^OD pair \(1, 3\) has only 0 simple paths, requested 1$"):
            enumerate_paths(net, OdSpec(pairs=[OdPair(1, 3, 1.0, 1)]))

    @pytest.mark.parametrize("origin, destination", [(1, 99), (0, 4)])
    def test_od_node_outside_network(self, origin, destination):
        with pytest.raises(ValueError, match=rf"^OD pair \({origin}, {destination}\) names a node outside 1\.\.4$"):
            enumerate_paths(diamond_network(), OdSpec(pairs=[OdPair(origin, destination, 1.0, 1)]))

    def test_default_ods_match_hand_yen(self):
        net = builtin_network()
        for origin, destination in [(1, 19), (13, 8), (12, 18)]:
            ps = enumerate_paths(net, OdSpec(pairs=[OdPair(origin, destination, 1.0, 10)]))
            assert ps.paths == hand_yen(net, origin, destination, 10)

    @pytest.mark.parametrize("k", [5, 10, 30])
    def test_random_sioux_ods_match_hand_yen(self, k):
        net = builtin_network()
        rng = np.random.default_rng(1600 + k)
        for _ in range(60):
            origin, destination = (int(v) for v in rng.choice(np.arange(1, 25), size=2, replace=False))
            ps = enumerate_paths(net, OdSpec(pairs=[OdPair(origin, destination, 1.0, k)]))
            assert ps.paths == hand_yen(net, origin, destination, k), (origin, destination)

    @pytest.mark.parametrize("integer_times", [False, True])
    def test_grid_matches_hand_yen_and_oracle(self, integer_times):
        net = grid_network(5, 16, integer_times)
        for origin, destination in [(1, 25), (25, 1), (5, 21), (3, 23)]:
            ps = enumerate_paths(net, OdSpec(pairs=[OdPair(origin, destination, 1.0, 40)]))
            assert ps.paths == hand_yen(net, origin, destination, 40)
            assert ps.paths == [nodes for _, nodes in all_simple_paths(net, origin, destination)[:40]]

    def test_tie_at_kth_path_breaks_by_node_sequence(self):
        # 1 -> {4, 3, 2} -> 5 cost 2 each and 1 -> 6 -> 5 costs 3, so at
        # k = 2 two of three tied paths are kept and at k = 3 all three.
        net = Network(n_nodes=6, tail=[1, 1, 1, 1, 4, 3, 2, 6], head=[4, 3, 2, 6, 5, 5, 5, 5],
                      free_flow_time=[1.0, 1.0, 1.0, 1.5, 1.0, 1.0, 1.0, 1.5],
                      capacity=np.ones(8), congestion_coeff=np.zeros(8))
        oracle = [nodes for _, nodes in all_simple_paths(net, 1, 5)]
        assert oracle[:3] == [(1, 2, 5), (1, 3, 5), (1, 4, 5)]
        for k in (2, 3):
            assert enumerate_paths(net, OdSpec(pairs=[OdPair(1, 5, 1.0, k)])).paths == oracle[:k]

    def test_rounding_tie_at_kth_path(self):
        # 1 -> 2 -> 3 -> 4 -> 6 and 1 -> 5 -> 2 -> 6 both cost 1.9 summed
        # from the origin, but the first one's search key, 0.2 + 0.5 plus the
        # distance 0.8 + 0.4 from node 3, rounds above 1.9: it is found after
        # the second and must still rank before it, by node sequence.
        net = Network(n_nodes=6, tail=[1, 1, 2, 2, 2, 3, 4, 5], head=[2, 5, 3, 4, 6, 4, 6, 2],
                      free_flow_time=[0.2, 0.8, 0.5, 0.4, 0.9, 0.8, 0.4, 0.2],
                      capacity=np.ones(8), congestion_coeff=np.zeros(8))
        oracle = all_simple_paths(net, 1, 6)
        assert oracle[3:5] == [(1.9, (1, 2, 3, 4, 6)), (1.9, (1, 5, 2, 6))]
        for k in (4, 5):
            assert enumerate_paths(net, OdSpec(pairs=[OdPair(1, 6, 1.0, k)])).paths == [p for _, p in oracle[:k]]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_nodes=st.integers(3, 7), k=st.integers(1, 8))
    def test_random_networks_match_exhaustive_oracle(self, data, n_nodes, k):
        # Times in tenths repeat and, summed, nearly tie (0.1 + 0.2 is not 0.3).
        pairs = data.draw(st.lists(st.sampled_from(list(itertools.permutations(range(1, n_nodes + 1), 2))),
                                   min_size=1, unique=True))
        times = data.draw(st.lists(st.one_of(st.integers(1, 9).map(lambda i: i / 10),
                                             st.floats(0.01, 10.0)),
                                   min_size=len(pairs), max_size=len(pairs)))
        tail, head = zip(*pairs)
        net = Network(n_nodes=n_nodes, tail=tail, head=head, free_flow_time=times,
                      capacity=np.ones(len(pairs)), congestion_coeff=np.zeros(len(pairs)))
        oracle = [nodes for _, nodes in all_simple_paths(net, 1, n_nodes)]
        od_spec = OdSpec(pairs=[OdPair(1, n_nodes, 1.0, k)])
        if len(oracle) < k:
            with pytest.raises(ValueError, match=rf"has only {len(oracle)} simple paths, requested {k}$"):
                enumerate_paths(net, od_spec)
        else:
            assert enumerate_paths(net, od_spec).paths == oracle[:k]

    def test_clique_behind_origin_is_not_searched(self, monkeypatch):
        # From the origin, one edge to the target and edges into a 12-node
        # clique whose only way out is back through the origin. A search
        # that extended every loopless prefix would walk the clique's 12!
        # orderings before finding no second path.
        clique = range(3, 15)
        edges = [(1, 2)] + [(1, v) for v in clique] + [(v, 1) for v in clique]
        edges += list(itertools.permutations(clique, 2))
        tail, head = zip(*edges)
        net = Network(n_nodes=14, tail=tail, head=head, free_flow_time=np.ones(len(edges)),
                      capacity=np.ones(len(edges)), congestion_coeff=np.zeros(len(edges)))
        pops = []

        def counting_pop(heap):
            pops.append(None)
            if len(pops) > 1000:
                raise RuntimeError("path search passed 1000 heap pops")
            return heapq.heappop(heap)

        monkeypatch.setattr(routing, "heapq", types.SimpleNamespace(heappush=heapq.heappush, heappop=counting_pop))
        with pytest.raises(ValueError, match=r"^OD pair \(1, 2\) has only 1 simple paths, requested 2$"):
            enumerate_paths(net, OdSpec(pairs=[OdPair(1, 2, 1.0, 2)]))

    def test_default_game_paths_pinned(self):
        # A change to the path search that reorders its output must fail
        # here rather than move every result of the default experiment.
        game = build_configured_game(parse_config(default_config_text()))
        assert game.path_set.paths == DEFAULT_GAME_PATHS

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

    @pytest.mark.parametrize("name", ["b_e", "noise_scale"])
    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_parameter_not_finite_and_nonnegative_rejected(self, name, value):
        od = OdSpec(pairs=[OdPair(1, 19, 300, 1)])
        with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative, got {value}$"):
            build_game(builtin_network(), od, RiskLevel(0.05), **{name: value})

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
        # ||P A P||_2, P removing each OD's mean.
        b_inc = game.path_set.od_incidence
        p_mat = np.eye(20) - b_inc.T @ np.diag(1.0 / b_inc.sum(axis=1)) @ b_inc
        assert game.lipschitz == pytest.approx(np.linalg.norm(p_mat @ game.cost_matrix @ p_mat, 2), rel=1e-12)
        assert np.array_equal(path_cost_field(game, np.zeros(20))(np.zeros(20)), game.free_flow_costs)

    def test_cached_arrays_are_read_only(self):
        game = self.fresh_game()
        for arr in (game.cost_matrix, game.free_flow_costs, game.lcp_matrix, game.noise_edges,
                    game.path_set.od_starts, assemble_lcp(game, np.zeros(20)).m_mat):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_lipschitz_is_the_largest_eigenvalue_on_the_polytope_directions(self):
        # Oracle: lambda_max(N^T A N), N an orthonormal basis of null(B).
        game = self.fresh_game()
        b_inc = game.path_set.od_incidence
        null = np.linalg.svd(b_inc)[2][len(b_inc):].T
        assert np.allclose(b_inc @ null, 0.0) and null.shape == (20, 18)
        oracle = np.linalg.eigvalsh(null.T @ game.cost_matrix @ null)[-1]
        assert game.lipschitz == pytest.approx(oracle, rel=1e-10)

    def test_lipschitz_of_the_default_game_is_below_the_norm_of_a(self, sioux_game):
        assert 0.0 < sioux_game.lipschitz <= np.linalg.norm(sioux_game.cost_matrix, 2)
        assert sioux_game.lipschitz == pytest.approx(1.5110336127220712, rel=1e-9)

    def test_lipschitz_is_zero_where_each_od_shares_every_congested_edge(self):
        # Paths 1-2-{3,4,5}-6 all cross the one congested edge 1-2, so A is
        # constant on each OD block and PAP vanishes; computed, it is rounding.
        net = Network(n_nodes=6, tail=[1, 2, 2, 2, 3, 4, 5], head=[2, 3, 4, 5, 6, 6, 6],
                      free_flow_time=[1.0, 1.0, 2.0, 3.0, 1.0, 1.5, 1.0], capacity=np.ones(7),
                      congestion_coeff=np.ones(7))
        od = OdSpec(pairs=[OdPair(1, 6, 2.0, 3), OdPair(2, 6, 1.0, 3)])
        game = build_game(net, od, RiskLevel(0.5), b_e=1.0, uncertain_nodes=(3,))
        congestion = np.where(np.arange(7) == 0, 1.0, 0.0)
        game = dataclasses.replace(game, network=dataclasses.replace(game.network, congestion_coeff=congestion))
        assert game.path_set.n_paths == 6 and game.cost_matrix[:3, :3].min() > 0.0
        assert game.lipschitz == 0.0
        kappa = sample_path_kappa(game, 50, 3)
        eg = solve_cwe(game, kappa, "extragradient")
        assert eg.converged and eg.x_star.tobytes() == solve_cwe(game, kappa, "lemke").x_star.tobytes()

    @pytest.mark.parametrize("n", [50, 500, 5000])
    def test_extragradient_at_the_tighter_step_returns_lemkes_bytes(self, sioux_game, n):
        seed = ExperimentConfig().master_seed
        for kappa in sample_kappa_block(sioux_game, n, seed, [(0, rep) for rep in range(10)]):
            eg, lemke = (solve_cwe(sioux_game, kappa, method) for method in ("extragradient", "lemke"))
            assert eg.converged and eg.x_star.tobytes() == lemke.x_star.tobytes()
            assert np.float64(eg.residual).tobytes() == np.float64(lemke.residual).tobytes()

    def test_tighter_step_takes_fewer_steps_than_the_norm_of_a(self, sioux_game):
        kappa = sample_path_kappa(sioux_game, 50, ExperimentConfig().master_seed, 0, 0)
        tight = solve_cwe(sioux_game, kappa, "extragradient")
        loose = extragradient_solve(sioux_game.feasible_flows, path_cost_field(sioux_game, kappa),
                                    np.linalg.norm(sioux_game.cost_matrix, 2))
        assert tight.converged and loose.converged and tight.iterations < loose.iterations

    def test_extragradient_gets_the_game_lipschitz(self, monkeypatch):
        game = self.fresh_game()
        original, seen = routing.extragradient_solve, []

        def spy(feasible, field, lipschitz, check):
            seen.append((lipschitz, callable(check)))
            return original(feasible, field, lipschitz, check)

        monkeypatch.setattr(routing, "extragradient_solve", spy)
        solve_cwe(game, sample_path_kappa(game, 200, 1), method="extragradient")
        assert seen == [(game.lipschitz, True)]

    def test_repeat_solve_skips_spectral_norm(self, monkeypatch):
        game = self.fresh_game()
        kappa = sample_path_kappa(game, 200, 1)
        solve_cwe(game, kappa, method="lemke")
        calls = []
        monkeypatch.setattr(routing, "spectral_norm", lambda a: calls.append(a))
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

    def check_old_key_is_never_read(self, tmp_path, layout):
        # A poisoned file under an earlier key, stored with that key's layout
        # (none before the layout was part of the key): a fresh batch is drawn.
        game = self.small_game()
        digest = hashlib.sha256()
        digest.update(np.asarray([10**5, 42, 0.05]).tobytes())
        digest.update(b"" if layout is None else layout.encode())
        for arr in (game.noise_lo, game.noise_hi, game.path_set.edge_incidence):
            digest.update(arr.tobytes())
        old_key = tmp_path / f"kappa_ref_{digest.hexdigest()[:16]}.npz"
        poison = np.full(game.path_set.n_paths, 123.0)
        stored = {} if layout is None else {"layout": layout}
        np.savez(old_key, kappa=poison, n_ref=10**5, seed_ref=42, alpha=0.05, **stored)
        kappa = true_path_kappa(game, 10**5, 42, cache_dir=tmp_path)
        assert kappa.tobytes() == true_path_kappa(game, 10**5, 42).tobytes()
        assert len(list(tmp_path.iterdir())) == 2

    def test_file_under_the_philox_key_is_never_read(self, tmp_path):
        # Philox, every uncertain edge, sample-major draws.
        self.check_old_key_is_never_read(tmp_path, None)

    def test_file_under_the_dot_product_key_is_never_read(self, tmp_path):
        # SFC64 draws as today, with each CVaR tail summed by a BLAS dot
        # product, whose bits moved with the tail-sum rule.
        self.check_old_key_is_never_read(tmp_path, "SFC64, noise_edges rows, edge-major")


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


def stack_schedule(game):
    """The stacked source's schedule: every row set due at the last row, no row dropped."""
    n_rows = len(game.noise_edges)
    return [(tuple(range(len(game.noise_row_sets))) if i == n_rows - 1 else (), ()) for i in range(n_rows)]


def stacked_kappa(game, draws):
    """kappa of one edge-major draw matrix as the stacked source reduces it: one call on views of its rows."""
    values = cvar_of_row_stream((row[None] for row in draws), (1, draws.shape[1]), game.noise_row_sets,
                                stack_schedule(game), game.alpha.alpha)
    return routing._path_kappa(game, values)[0]


def spy_on_reducer(monkeypatch):
    """The (R, schedule) of each cvar_of_row_stream call sample_kappa_block makes from now on."""
    calls, original = [], routing.cvar_of_row_stream

    def spy(rows, shape, row_sets, schedule, alpha):
        calls.append((shape[0], list(schedule)))
        return original(rows, shape, row_sets, schedule, alpha)

    monkeypatch.setattr(routing, "cvar_of_row_stream", spy)
    return calls


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
        kappa = stacked_kappa(sioux_game, draws)
        assert kappa.tobytes() == sort_route_kappa(sioux_game, draws).tobytes()

    def test_reference_bitwise(self, sioux_game):
        kappa = true_path_kappa(sioux_game, 10**5, 42)
        assert kappa.tobytes() == sort_route_kappa(sioux_game, same_draws(sioux_game, 10**5, 42)).tobytes()


def per_path_kappa(game, draws):
    """Oracle: one sum, added in edge order, and one full sort for every
    path of every draw matrix, shared rows or not."""
    kappa = np.zeros((len(draws), game.path_set.n_paths))
    for matrix, out in zip(draws, kappa):
        for p, rows in enumerate(game.path_noise_rows):
            if rows:
                total = matrix[rows[0]]
                for r in rows[1:]:
                    total = total + matrix[r]
                out[p] = cvar_from_values(total, game.alpha.alpha)[0]
    return kappa


class TestSharedRowsReducedOnce:
    @pytest.fixture(scope="class")
    def distinct_game(self):
        od = OdSpec(pairs=[OdPair(12, 18, 200, 10)])
        return build_game(builtin_network(), od, RiskLevel(0.05))

    @pytest.fixture(scope="class")
    def noiseless_game(self, sioux_game):
        # No noisy edge: the one reducer path gives every path the loop's +0.0.
        game = build_game(builtin_network(), sioux_game.od_spec, RiskLevel(0.05), uncertain_nodes=())
        assert len(game.noise_edges) == 0
        return game

    @staticmethod
    def repeated_rows(game):
        rows = [r for r in game.path_noise_rows if r]
        return len(rows) - len(set(rows))

    @pytest.mark.parametrize("n", [1, 50, 5000])
    @pytest.mark.parametrize("game_name, repeats",
                             [("sioux_game", 3), ("distinct_game", 0), ("noiseless_game", 0)])
    def test_equals_per_path_loop_bitwise(self, request, game_name, repeats, n):
        game = request.getfixturevalue(game_name)
        assert self.repeated_rows(game) == repeats
        assert not game.noise_lo.any()  # the draws below carry no floor to add
        kappa = sample_path_kappa(game, n, 5, 1, n)
        assert kappa.tobytes() == per_path_kappa(game, same_draws(game, n, 5, 1, n)[None])[0].tobytes()


class TestKappaBlock:
    """A block of stream keys reduced together gives each key's own bits."""

    SIZES = [1, 2, 19, 20, 21, 50, 500, 5000]

    @staticmethod
    def key_bytes(game, n):
        return 8 * n * (len(game.noise_edges) + 1)

    @pytest.mark.parametrize("n", SIZES)
    def test_block_equals_per_key_calls(self, sioux_game, monkeypatch, n):
        keys = [(2, rep) for rep in range(5)]
        want = np.array([sample_path_kappa(sioux_game, n, 13, *key) for key in keys])
        # Two keys per pass, so the five keys cross two pass boundaries.
        monkeypatch.setattr(routing, "_KAPPA_BLOCK_BYTES", 2 * self.key_bytes(sioux_game, n) + 8 * n)
        calls = spy_on_reducer(monkeypatch)
        got = sample_kappa_block(sioux_game, n, 13, keys)
        assert calls == [(r, stack_schedule(sioux_game)) for r in (2, 2, 1)]
        assert got.shape == (5, sioux_game.path_set.n_paths)
        assert got.tobytes() == want.tobytes()
        sorted_route = [sort_route_kappa(sioux_game, same_draws(sioux_game, n, 13, *key)) for key in keys]
        assert got.tobytes() == np.array(sorted_route).tobytes()

    @pytest.mark.parametrize("n", SIZES)
    def test_one_key_per_pass(self, sioux_game, monkeypatch, n):
        # A byte short of two keys' draw matrices and sum rows: three passes of one key.
        keys = [(2, rep) for rep in range(3)]
        want = sample_kappa_block(sioux_game, n, 13, keys)
        monkeypatch.setattr(routing, "_KAPPA_BLOCK_BYTES", 2 * self.key_bytes(sioux_game, n) - 1)
        calls = spy_on_reducer(monkeypatch)
        assert sample_kappa_block(sioux_game, n, 13, keys).tobytes() == want.tobytes()
        assert calls == [(1, stack_schedule(sioux_game))] * 3

    def test_no_keys_and_no_noise(self, sioux_game):
        assert sample_kappa_block(sioux_game, 50, 13, []).shape == (0, sioux_game.path_set.n_paths)
        quiet = build_game(builtin_network(), sioux_game.od_spec, RiskLevel(0.05), uncertain_nodes=())
        assert sample_kappa_block(quiet, 50, 13, [(0,), (1,)]).tobytes() == bytes(8 * 2 * quiet.path_set.n_paths)
        with pytest.raises(ValueError, match="at least one sample"):
            sample_kappa_block(sioux_game, 0, 13, [(0,)])

    def test_peak_memory_is_the_live_rows_and_one_sum_row(self, sioux_game):
        # One key's matrix is over the budget, so its rows are drawn one at a
        # time and each is dropped after its last use: at most 9 of the 13
        # rows are held at once, and the whole matrix never is.
        n = 10**5
        assert self.key_bytes(sioux_game, n) > routing._KAPPA_BLOCK_BYTES
        held = most = 0
        for _, done in sioux_game.noise_schedule:
            most = max(most, held + 1)
            held += 1 - len(done)
        assert (most, held) == (9, 0)
        sample_path_kappa(sioux_game, n, 3)  # fills the per-(N, alpha) tail index cache
        tracemalloc.start()
        try:
            sample_path_kappa(sioux_game, n, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Slack: one sort buffer alpha N long and 16 KiB; the tails are summed
        # where they lie, with no weight vector and no reversed copy.
        slack = 8 * int(0.05 * n) + 16 * 1024
        assert peak <= (most + 1) * 8 * n + slack

    @pytest.mark.parametrize("n", [1, 50, 5000])
    def test_noise_floor_added_after_the_reduction(self, sioux_game, n):
        # A game built directly with lo > 0: each path's kappa shifts by its
        # sum of lo, which the draws no longer carry.
        lo = np.where(sioux_game.noise_hi > 0.0, 0.3 * sioux_game.noise_hi, 0.0)
        game = dataclasses.replace(sioux_game, noise_lo=lo)
        assert np.array_equal(game.noise_edges, sioux_game.noise_edges)
        kappa = sample_path_kappa(game, n, 21, 1, n)
        want = sort_route_kappa(game, same_draws(game, n, 21, 1, n))
        assert kappa == pytest.approx(want, rel=1e-12, abs=0.0)
        noisy = np.array([bool(rows) for rows in game.path_noise_rows])
        assert np.all(kappa[noisy] > sample_path_kappa(sioux_game, n, 21, 1, n)[noisy])
        assert not kappa[~noisy].any()


class TestRowByRowSource:
    """A key whose draw matrix is over the budget is drawn and reduced row by
    row, with the bits of the matrix source."""

    @pytest.fixture(scope="class", params=["sioux", "distinct rows", "noiseless", "noise floor"])
    def game(self, request, sioux_game):
        if request.param == "distinct rows":
            return build_game(builtin_network(), OdSpec(pairs=[OdPair(12, 18, 200, 10)]), RiskLevel(0.05))
        if request.param == "noiseless":
            return build_game(builtin_network(), sioux_game.od_spec, RiskLevel(0.05), uncertain_nodes=())
        if request.param == "noise floor":
            lo = np.where(sioux_game.noise_hi > 0.0, 0.3 * sioux_game.noise_hi, 0.0)
            return dataclasses.replace(sioux_game, noise_lo=lo)
        return sioux_game

    def test_schedule_reduces_each_set_at_its_last_row_and_drops_each_row_after_its_last_use(self, game):
        sets, n_rows = game.noise_row_sets, len(game.noise_edges)
        assert len(game.noise_schedule) == n_rows
        for i, (due, done) in enumerate(game.noise_schedule):
            assert due == tuple(u for u, rows in enumerate(sets) if max(rows) == i)
            assert done == tuple(r for r in range(n_rows) if max(max(rows) for rows in sets if r in rows) == i)

    @pytest.mark.parametrize("n", TestKappaBlock.SIZES)
    def test_equals_the_matrix_source_bitwise(self, game, monkeypatch, n):
        keys = [(4, rep) for rep in range(3)]
        calls = spy_on_reducer(monkeypatch)
        want = sample_kappa_block(game, n, 17, keys)
        # At the default budget these N take the matrix source: one pass for the three keys.
        assert calls == [(3, stack_schedule(game))]
        calls.clear()
        monkeypatch.setattr(routing, "_KAPPA_BLOCK_BYTES", 8 * n * len(game.noise_edges) - 1)
        assert sample_kappa_block(game, n, 17, keys).tobytes() == want.tobytes()
        assert calls == [(1, list(game.noise_schedule))] * 3

    @pytest.mark.parametrize("n", [1, 2, 19, 20, 21, 50, 500, 5000])
    @pytest.mark.parametrize("decimals", [0, 1])
    def test_tied_draws_bitwise(self, sioux_game, n, decimals):
        # Each row a fresh (1, N) array, as the row source draws it.
        draws = np.round(same_draws(sioux_game, n, 9, n), decimals)
        values = cvar_of_row_stream((row[None].copy() for row in draws), (1, n), sioux_game.noise_row_sets,
                                    sioux_game.noise_schedule, 0.05)
        kappa = routing._path_kappa(sioux_game, values)[0]
        assert kappa.tobytes() == stacked_kappa(sioux_game, draws).tobytes()
        assert kappa.tobytes() == sort_route_kappa(sioux_game, draws).tobytes()


def below_the_margin_kappa(game, table):
    """kappa at which the region that solving sample_path_kappa(game, 50,
    11, 0) appends to `table` is right but uncertified: its path-24 flow is
    5e-5. Towards replication 2, whose flow idles path 24, it falls to 0."""
    uses, idles = (sample_path_kappa(game, 50, 11, rep) for rep in (0, 2))
    solve_cwe(game, uses, "lemke", regions=table)
    region = table[-1]
    i = int(np.flatnonzero(region.support == 24)[0])
    # The region's map is affine in kappa: its path-24 flow at each end.
    q = [(game.free_flow_costs + kappa)[region.support] for kappa in (uses, idles)]
    ends = [region.flow_map[i] @ q_used + region.flow_offset[i] for q_used in q]
    t = (ends[0] - 5e-5) / (ends[0] - ends[1])
    return (1.0 - t) * uses + t * idles


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

    def test_hit_projects_twice(self, sioux_game, kappas, monkeypatch):
        # Once to build the flow, once for the natural residual; the residual
        # checks feasibility without a projection.
        table = []
        cold = solve_cwe(sioux_game, kappas[0], "lemke", regions=table)
        calls = []
        project = SimplexProduct.project
        monkeypatch.setattr(SimplexProduct, "project", lambda self, y: calls.append(1) or project(self, y))
        hit = solve_cwe(sioux_game, kappas[0], "lemke", regions=table)
        assert len(calls) == 2 and hit.iterations == 0
        assert hit.x_star.tobytes() == cold.x_star.tobytes() and hit.residual == cold.residual

    def test_hit_evaluates_no_field_and_no_gap(self, sioux_game, kappas, monkeypatch):
        # A hit takes its costs and gap from the certificate; a cold solve
        # builds its field once and checks its flow with wardrop_gap once.
        fields, gaps = [], counting(monkeypatch, routing, "wardrop_gap")
        build = routing.path_cost_field
        monkeypatch.setattr(routing, "path_cost_field",
                            lambda *args: fields.append(sys._getframe(1).f_code.co_name) or build(*args))
        table = []
        solve_cwe(sioux_game, kappas[0], "lemke", regions=table)
        assert (fields, len(gaps), len(table)) == (["_solve_cold", "wardrop_gap"], 1, 1)
        fields.clear()
        gaps.clear()
        hit = solve_cwe(sioux_game, kappas[1], "lemke", regions=table)
        assert (fields, len(gaps), hit.iterations) == ([], 0, 0)

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
        table = []
        kappa = below_the_margin_kappa(sioux_game, table)
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

    def test_uncongested_edges_get_a_region(self, sioux_game, kappas):
        # No load is pinned at b_e = 0, so the region fixes only the demands.
        game = build_game(builtin_network(), sioux_game.od_spec, RiskLevel(0.05), b_e=0.0)
        table = []
        sol = solve_cwe(game, kappas[0], "lemke", regions=table)
        assert len(table) == 1 and sol.iterations > 0
        assert wardrop_gap(game, kappas[0], sol.x_star) <= 1e-5
        hit = solve_cwe(game, kappas[0], "lemke", regions=table)
        assert hit.iterations == 0 and len(table) == 1
        assert hit.x_star.tobytes() == sol.x_star.tobytes() and hit.residual == sol.residual

    def test_extragradient_solves_the_uncongested_game(self):
        # The field is constant and game.lipschitz 0: extragradient's step
        # starts at 1.0 and doubles. Where each OD's cheapest path is unique,
        # that path takes the demand; on a tie (paths 3, 5, 6 and 7 of
        # replication 3) no load is pinned, and every method returns the even
        # split of minimum norm.
        config = dataclasses.replace(ExperimentConfig(), b_e=0.0)
        game = build_configured_game(config)
        assert game.lipschitz == 0.0
        ps = game.path_set
        kappas = sample_kappa_block(game, 50, config.master_seed, [(0, rep) for rep in range(4)])
        tied = []
        for kappa in kappas:
            eg, lemke, qp = (solve_cwe(game, kappa, method) for method in SOLVE_METHODS)
            assert eg.converged and eg.iterations > 0 and wardrop_gap(game, kappa, eg.x_star) <= 1e-5
            assert eg.x_star.tobytes() == lemke.x_star.tobytes() == qp.x_star.tobytes()
            costs = game.free_flow_costs + kappa
            cheapest = costs == np.minimum.reduceat(costs, ps.od_starts)[ps.od_of_path]
            tied.append(bool(np.any(np.bincount(ps.od_of_path, weights=cheapest) > 1)))
        assert tied == [False, False, False, True]
        assert eg.x_star[[3, 5, 6, 7]] == pytest.approx([75.0] * 4, rel=1e-12)
        # Replication 121: a path 2e-4 above its OD's minimum still carried
        # 33.6 after 200,000 steps of 1.0.
        kappa = sample_kappa_block(game, 50, config.master_seed, [(0, 121)])[0]
        eg, lemke = (solve_cwe(game, kappa, method) for method in ("extragradient", "lemke"))
        assert eg.converged and 0 < eg.iterations <= 32
        assert eg.x_star.tobytes() == lemke.x_star.tobytes()

    def test_qp_finishes_on_the_uncongested_replication_121(self):
        # With b_e = 0, A = 0 and the Beckmann program is a linear program.
        # On this key the gap-minimization route stalled after 10^6 steps;
        # the active set finishes in a few iterations. No region certifies
        # the flow, so qp's and Lemke's both take the fallback.
        config = dataclasses.replace(ExperimentConfig(), b_e=0.0)
        game = build_configured_game(config)
        kappa = sample_kappa_block(game, 50, config.master_seed, [(0, 121)])[0]
        table = []
        qp, lemke = (solve_cwe(game, kappa, method, regions=table) for method in ("qp", "lemke"))
        assert table == []
        assert qp.converged and 0 < qp.iterations <= 8
        assert wardrop_gap(game, kappa, qp.x_star) <= 1e-5
        assert np.abs(qp.x_star - lemke.x_star).max() <= 1e-9 * np.abs(lemke.x_star).max()


def same_solution(got, want) -> bool:
    return (got.x_star.tobytes() == want.x_star.tobytes() and fmt(got.residual) == fmt(want.residual)
            and (got.iterations, got.converged) == (want.iterations, want.converged))


def counting(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call; returns the record."""
    calls, original = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    return calls


def assert_cold_residual_from_certificate(monkeypatch, game, kappa):
    """A cold solve whose region certifies takes its residual from the
    certificate, with natural_residual's bits, and never calls it."""
    residuals = counting(monkeypatch, routing, "natural_residual")
    table = []
    sol = solve_cwe(game, kappa, "lemke", regions=table)
    assert (len(table), len(residuals)) == (1, 0) and sol.iterations > 0
    assert sol.residual == natural_residual(game.feasible_flows, path_cost_field(game, kappa), sol.x_star)


class TestSolveCweBlock:
    """A block's region hits, certified as stacked arrays, carry the bits of
    one solve_cwe per row; every other row is solved cold."""

    @pytest.fixture(scope="class")
    def default_grid(self, tmp_path_factory):
        """The default experiment's game, h_ref, reference region table and
        its 1,500 kappa-hat, as blocks of 25 per sample size."""
        config = ExperimentConfig()
        game = build_configured_game(config)
        kappa_ref = true_path_kappa(game, config.ref_samples, config.ref_seed,
                                    cache_dir=tmp_path_factory.mktemp("ref"))
        table = []
        h_ref = solve_cwe(game, kappa_ref, config.solver, regions=table).x_star
        blocks = [sample_kappa_block(game, n, config.master_seed,
                                     [(n_index, rep) for rep in range(start, start + 25)])
                  for n_index, n in enumerate(config.sample_sizes)
                  for start in range(0, config.replications, 25)]
        return game, h_ref, table, blocks

    @pytest.fixture(scope="class")
    def kappas(self, sioux_game):
        return sample_kappa_block(sioux_game, 500, 11, [(rep,) for rep in range(4)])

    def test_default_grid_equals_solve_cwe(self, default_grid, monkeypatch):
        game, h_ref, table, blocks = default_grid
        block_table, loop_table = list(table), list(table)
        cold = counting(monkeypatch, routing, "_solve_cold")
        solved = [solve_cwe_block(game, kappas, "lemke", block_table) for kappas in blocks]
        # Only the grid's one miss was solved cold.
        assert len(cold) == len(block_table) - len(table) == 1
        rows = 0
        for kappas, solutions in zip(blocks, solved):
            for kappa, got in zip(kappas, solutions):
                want = solve_cwe(game, kappa, "lemke", regions=loop_table)
                assert same_solution(got, want)
                assert fmt(float(np.linalg.norm(got.x_star - h_ref))) == \
                    fmt(float(np.linalg.norm(want.x_star - h_ref)))
                if rows % 10 == 0:  # and a cold solve, as the benchmark's recomputation does
                    cold = solve_cwe(game, kappa, "lemke")
                    assert (got.x_star.tobytes(), got.residual) == (cold.x_star.tobytes(), cold.residual)
                rows += 1
        assert rows == 1500
        assert [r.support.tolist() for r in block_table] == [r.support.tolist() for r in loop_table]

    def test_every_certified_residual_is_natural_residual(self, default_grid, monkeypatch):
        # The certificate builds each certified solution, the cold miss's
        # too: natural_residual never runs, yet every residual has its bits.
        game, _, table, blocks = default_grid
        residuals = counting(monkeypatch, routing, "natural_residual")
        block_table = list(table)
        solved = [solve_cwe_block(game, kappas, "lemke", block_table) for kappas in blocks]
        assert (len(residuals), len(block_table) - len(table)) == (0, 1)
        mismatches = [(kappa, got) for kappas, solutions in zip(blocks, solved)
                      for kappa, got in zip(kappas, solutions)
                      if got.residual != natural_residual(game.feasible_flows, path_cost_field(game, kappa),
                                                          got.x_star)]
        assert sum(map(len, solved)) == 1500 and mismatches == []

    def test_row_failing_the_feasibility_check_is_solved_cold(self, sioux_game, kappas, monkeypatch):
        # A certified row the polytope does not contain stays open, and its
        # cold solve raises what the one-row call raises.
        table = []
        solve_cwe(sioux_game, kappas[0], "lemke", regions=table)
        monkeypatch.setattr(SimplexProduct, "contains", lambda self, x: np.zeros(np.shape(x)[:-1], dtype=bool))
        cold = counting(monkeypatch, routing, "_solve_cold")
        got = solve_cwe_block(sioux_game, kappas, "lemke", table)
        assert len(cold) == len(kappas) and len(table) == 1
        for kappa, row in zip(kappas, got):
            with pytest.raises(ValueError, match="^point is infeasible") as alone:
                solve_cwe(sioux_game, kappa, "lemke", regions=list(table))
            assert type(row) is ValueError and str(row) == str(alone.value)

    def test_nan_row_fails_alone(self, sioux_game, kappas):
        table = []
        solve_cwe(sioux_game, kappas[0], "lemke", regions=table)
        block = kappas.copy()
        block[2, 7] = np.nan
        got = solve_cwe_block(sioux_game, block, "lemke", table)
        assert isinstance(got[2], ValueError) and str(got[2]) == "kappa is not finite at path 7"
        for r in (0, 1, 3):
            assert same_solution(got[r], solve_cwe(sioux_game, block[r], "lemke", regions=list(table)))
        assert len(table) == 1

    def test_row_that_misses_every_region_solves_cold_once(self, sioux_game, kappas, monkeypatch):
        table = []
        solve_cwe(sioux_game, kappas[0], "lemke", regions=table)
        moved = kappas[0].copy()
        moved[table[0].support[0]] += 100.0  # the path is no longer among the cheapest
        block = np.array([kappas[1], moved, kappas[2]])
        want_table = list(table)
        want = [solve_cwe(sioux_game, kappa, "lemke", regions=want_table) for kappa in block]
        lemke = counting(monkeypatch, lcp, "solve_lcp_lemke")
        cold = counting(monkeypatch, routing, "_solve_cold")
        got = solve_cwe_block(sioux_game, block, "lemke", table)
        assert (len(lemke), len(cold), len(table)) == (1, 1, 2)
        assert all(same_solution(g, w) for g, w in zip(got, want))
        assert got[1].iterations > 0 and got[0].iterations == got[2].iterations == 0
        assert got[1].x_star.tobytes() == solve_cwe(sioux_game, moved, "lemke").x_star.tobytes()

    def test_empty_table_solves_the_first_row_cold(self, sioux_game, kappas, monkeypatch):
        # The region the first row appends certifies the others.
        want_table = []
        want = [solve_cwe(sioux_game, kappa, "lemke", regions=want_table) for kappa in kappas]
        lemke = counting(monkeypatch, lcp, "solve_lcp_lemke")
        cold = counting(monkeypatch, routing, "_solve_cold")
        table = []
        got = solve_cwe_block(sioux_game, kappas, "lemke", table)
        assert (len(lemke), len(cold), len(table), len(want_table)) == (1, 1, 1, 1)
        assert all(same_solution(g, w) for g, w in zip(got, want))

    def test_table_that_stays_empty_sends_every_row_cold(self, sioux_game, monkeypatch):
        # Each row's region is right but uncertified, so none joins the table.
        kappas = np.array([below_the_margin_kappa(sioux_game, [])] * 3)
        want = [solve_cwe(sioux_game, kappa, "lemke") for kappa in kappas]
        lemke = counting(monkeypatch, lcp, "solve_lcp_lemke")
        residuals = counting(monkeypatch, routing, "natural_residual")
        table = []
        got = solve_cwe_block(sioux_game, kappas, "lemke", table)
        assert len(lemke) == len(residuals) == len(kappas) and table == []
        assert all(same_solution(g, w) for g, w in zip(got, want))

    def test_malformed_block_or_method_rejected(self, sioux_game, kappas):
        with pytest.raises(ValueError, match="kappa rows of length 30, got shape"):
            solve_cwe_block(sioux_game, kappas[0], "lemke", [])
        with pytest.raises(ValueError, match="kappa rows of length 30, got shape"):
            solve_cwe_block(sioux_game, kappas[:, :29], "lemke", [])
        with pytest.raises(ValueError, match="unknown method 'simplex'"):
            solve_cwe_block(sioux_game, kappas, "simplex", [])
        assert solve_cwe_block(sioux_game, kappas[:0], "lemke", []) == []


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

    def test_cold_certified_residual_is_natural_residual(self, game, monkeypatch):
        assert_cold_residual_from_certificate(monkeypatch, game, sample_path_kappa(game, 50, 3))

    def test_all_demands_zero_give_the_zero_flow(self):
        od = OdSpec(pairs=[OdPair(1, 19, 0, 10), OdPair(13, 8, 0, 10)])
        game = build_game(builtin_network(), od, RiskLevel(0.05))
        for method in SOLVE_METHODS:
            assert solve_cwe(game, sample_path_kappa(game, 50, 3), method).x_star.tobytes() == bytes(8 * 20)

    def test_all_demands_zero_give_a_region_with_no_used_path(self, monkeypatch):
        # Lemke stops at its first basis here, so only the count of cold
        # solves tells the hit from the miss.
        od = OdSpec(pairs=[OdPair(1, 19, 0, 10), OdPair(13, 8, 0, 10)])
        game = build_game(builtin_network(), od, RiskLevel(0.05))
        cold = counting(monkeypatch, routing, "_solve_cold")
        table = []
        hit = [solve_cwe(game, sample_path_kappa(game, 50, 3, rep), "lemke", regions=table) for rep in (0, 1)][1]
        assert len(table) == len(cold) == 1 and table[0].support.size == 0
        assert hit.iterations == 0 and hit.x_star.tobytes() == bytes(8 * 20)

    def test_non_finite_flow_fails_both_checks(self, sioux_game):
        # A NaN path flow counts as used, also where no other path is.
        h = np.zeros(30)
        h[4] = np.nan
        assert np.isnan(wardrop_gap(sioux_game, np.zeros(30), h))
        h = sioux_game.feasible_flows.default_start()
        h[4] = np.nan
        with pytest.raises(ValueError, match="infeasible"):
            natural_residual(sioux_game.feasible_flows, path_cost_field(sioux_game, np.zeros(30)), h)


def assert_min_norm_equilibrium(game, kappa, h, raw):
    """h has raw's loads on congested edges and its OD demands and is the
    point nearest the origin of {g >= 0, same congested loads and demands,
    g = 0 off raw's minimum-cost paths}: exactly when the linear program
    min <h, g> over the set attains ||h||^2. Costs depend on no other load,
    so that set is every equilibrium."""
    ps = game.path_set
    eq = np.vstack([ps.edge_incidence[game.congestion_diag > 0], ps.od_incidence])
    assert np.abs(eq @ h - eq @ raw).max() <= 1e-9 * np.abs(eq @ raw).max()
    costs = path_cost_field(game, kappa)(raw)
    floor = np.array([costs[ps.od_of_path == w].min() for w in ps.od_of_path])
    off = costs > floor + 1e-6 * (1.0 + floor)
    lp = linprog(h, A_eq=eq, b_eq=eq @ raw, bounds=[(0, 0) if o else (0, None) for o in off])
    assert lp.status == 0
    assert lp.fun >= (h @ h) * (1.0 - 1e-7)


def least_distance_oracle(e_mat, f):
    """The point of {E x = f, x >= 0} nearest the origin by the route
    active_set_qp replaced in _min_norm_equilibrium: the minimum-norm
    solution x_p of E x = f from an SVD, then the least-distance program
    min ||z|| s.t. x_p + N^T z >= 0 (N an orthonormal basis of null(E)) as
    SciPy's NNLS on [N; -x_p^T] u ~ e_last (Lawson & Hanson 1974, ch. 23)."""
    u, sv, vt = np.linalg.svd(e_mat)
    rank = int(np.sum(sv > sv[0] * max(e_mat.shape) * np.finfo(float).eps))
    x_p = vt[:rank].T @ (u[:, :rank].T @ f / sv[:rank])
    null = vt[rank:]
    if len(null):
        stack = np.vstack([null, -x_p])
        target = np.zeros(len(stack))
        target[-1] = 1.0
        r = stack @ nnls(stack, target)[0] - target
        x_p = x_p - null.T @ (r[:-1] / r[-1])
    return np.maximum(x_p, 0.0)


def random_program(rng, n=12):
    """Rows E of rank 5 with two dependent rows, and a feasible x0 >= 0
    with some zeros; a row of ones keeps {E x = E x0, x >= 0} bounded."""
    e_mat = np.vstack([np.ones(n), rng.standard_normal((4, n))])
    e_mat = np.vstack([e_mat, e_mat[1] + e_mat[2], 2.0 * e_mat[0]])
    x0 = rng.random(n) * (rng.random(n) < 0.7)
    return e_mat, e_mat @ x0, x0


def assert_kkt_point(h_mat, g, e_mat, f, x):
    """x minimizes 1/2 x^T H x + g^T x over {E x = f, x >= 0} (H PSD): it
    is feasible, and some y gives bound multipliers s = H x + g - E^T y
    that vanish on x's support and are nonnegative off it (to 1e-8 of the
    gradient), which a linear program finds; y need not be unique."""
    assert np.all(x >= 0.0)
    assert np.abs(e_mat @ x - f).max() <= 1e-9 * (1.0 + np.abs(f).max())
    grad = h_mat @ x + g
    support = x > 1e-9 * max(1.0, x.max())
    tol = 1e-8 * (1.0 + np.abs(grad).max())
    certificate = linprog(np.zeros(len(e_mat)), A_eq=e_mat[:, support].T, b_eq=grad[support],
                          A_ub=e_mat[:, ~support].T, b_ub=grad[~support] + tol, bounds=(None, None))
    assert certificate.status == 0, certificate.message


class TestNnls:
    """Nonnegative least squares, min ||A x - b|| over x >= 0, as the
    program 1/2 x^T A^T A x - (A^T b)^T x with no equality rows, through
    lcp.active_set_qp from 0, against SciPy's NNLS."""

    @pytest.mark.parametrize("kind", ["wide", "tall", "duplicate_columns", "in_cone", "zero_solution"])
    def test_residual_matches_scipy(self, kind):
        rng = np.random.default_rng(2201)
        m, n = {"wide": (6, 15), "tall": (15, 6)}.get(kind, (8, 12))
        for _ in range(40):
            a, b = rng.standard_normal((m, n)), rng.standard_normal(m)
            if kind == "duplicate_columns":
                a[:, 1::2] = a[:, ::2]
            elif kind == "in_cone":
                b = a @ rng.random(n)
            elif kind == "zero_solution":
                a, b = rng.random((m, n)), -rng.random(m)
            x = lcp.active_set_qp(a.T @ a, -(a.T @ b), np.zeros((0, n)), np.zeros(0), np.zeros(n))[0]
            want = nnls(a, b)[0]
            assert np.all(x >= 0.0)
            assert (abs(np.linalg.norm(a @ x - b) - np.linalg.norm(a @ want - b))
                    <= 1e-12 * np.linalg.norm(b))
            if kind == "zero_solution":
                assert not x.any()


class TestActiveSetQp:
    """lcp.active_set_qp on random programs whose equality rows are
    dependent, each result checked by its KKT certificate."""

    def test_unit_hessian_matches_least_distance_oracle(self):
        rng = np.random.default_rng(2201)
        for _ in range(40):
            e_mat, f, x0 = random_program(rng)
            x, iterations = lcp.active_set_qp(np.eye(len(x0)), np.zeros(len(x0)), e_mat, f, x0)
            assert iterations > 0
            assert_kkt_point(np.eye(len(x0)), np.zeros(len(x0)), e_mat, f, x)
            assert np.abs(x - least_distance_oracle(e_mat, f)).max() <= 1e-9 * x.max()

    def test_rank_deficient_hessian(self):
        rng = np.random.default_rng(2202)
        for _ in range(40):
            e_mat, f, x0 = random_program(rng)
            root = rng.standard_normal((len(x0), 3))
            h_mat, g = root @ root.T, rng.standard_normal(len(x0))
            x = lcp.active_set_qp(h_mat, g, e_mat, f, x0)[0]
            assert_kkt_point(h_mat, g, e_mat, f, x)

    def test_zero_hessian_matches_linprog(self):
        rng = np.random.default_rng(2203)
        for _ in range(40):
            e_mat, f, x0 = random_program(rng)
            g = rng.standard_normal(len(x0))
            x = lcp.active_set_qp(np.zeros((len(x0), len(x0))), g, e_mat, f, x0)[0]
            assert_kkt_point(np.zeros((len(x0), len(x0))), g, e_mat, f, x)
            lp = linprog(g, A_eq=e_mat, b_eq=f, bounds=(0, None))
            assert lp.status == 0
            assert abs(g @ x - lp.fun) <= 1e-9 * (1.0 + abs(lp.fun))

    def test_degenerate_integer_programs(self):
        # Small integers make tied costs, dependent working sets and
        # degenerate vertices, where a step blocked by rounding cycled.
        rng = np.random.default_rng(7)
        for trial in range(150):
            n = int(rng.integers(2, 15))
            e_mat = np.vstack([np.ones(n), rng.integers(-2, 3, size=(int(rng.integers(1, n)), n))])
            x0 = rng.integers(0, 3, size=n) * (rng.random(n) < 0.6) + np.eye(n)[0]
            root = rng.integers(-1, 2, size=(n, 2)) * (trial % 3 == 1)
            h_mat = root @ root.T + np.eye(n) * (trial % 3 == 2)
            g = rng.integers(-3, 4, size=n) * (trial % 3 != 2)
            x = lcp.active_set_qp(h_mat, g, e_mat, e_mat @ x0, x0)[0]
            assert_kkt_point(h_mat, g, e_mat, e_mat @ x0, x)

    def test_nearly_singular_face(self):
        # Holding entries 0 and 4 leaves a KKT matrix of condition 4e6, whose
        # rounding put entry 6 of z at -1.6e-10: read as a block, it made
        # the working set dependent and the iteration cycle.
        e_mat = np.array([[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], [-1, -1, -1, -2, 0, -1, -2, -2, 1, 1, 0, -2],
                          [1, 2, -1, -2, -2, 1, 1, 0, 2, -1, 0, -1], [0, 1, -1, -1, -1, -1, 1, -2, 0, -2, 2, 1],
                          [1, -1, -2, 2, -1, 0, 1, -2, -1, -2, 1, 2], [1, 1, 1, 1, 1, -2, 0, 1, 0, -2, -1, -2],
                          [-2, -2, 2, 0, 1, -1, 0, -1, 1, -2, -2, 2], [0, 2, 2, -2, 0, 0, 2, -2, -2, -2, 2, 1],
                          [-1, 1, 1, -1, 2, -2, 0, 0, -1, -2, 2, 1], [-1, 2, 1, 2, 0, -2, 0, 2, 1, 2, 2, -1]])
        x0 = np.array([0.0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1])
        x = lcp.active_set_qp(np.eye(12), np.zeros(12), e_mat, e_mat @ x0, x0)[0]
        assert_kkt_point(np.eye(12), np.zeros(12), e_mat, e_mat @ x0, x)

    def test_constant_objective(self):
        # Every feasible point is optimal: the rounding of f, which has no
        # part in the KKT null space, must not read as a descent direction.
        e_mat = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        x0 = np.array([1.0, 2.0])
        x, iterations = lcp.active_set_qp(np.zeros((2, 2)), np.zeros(2), e_mat, e_mat @ x0, x0)
        assert iterations == 1 and x == pytest.approx([1.5, 1.5], rel=1e-12)

    def test_iteration_cap_raises(self, monkeypatch):
        e_mat, f, x0 = random_program(np.random.default_rng(2204))
        g = np.arange(len(x0), dtype=float)
        iterations = lcp.active_set_qp(np.zeros((len(x0), len(x0))), g, e_mat, f, x0)[1]
        assert iterations > 2
        monkeypatch.setattr(lcp, "_ACTIVE_SET_MAX_ITER", iterations - 1)
        with pytest.raises(RuntimeError, match=f"{iterations - 1} iterations"):
            lcp.active_set_qp(np.zeros((len(x0), len(x0))), g, e_mat, f, x0)

    def test_unbounded_program_raises(self):
        # x = (t, t) is feasible for every t >= 0 and the objective is -t.
        with pytest.raises(RuntimeError, match="unbounded"):
            lcp.active_set_qp(np.zeros((2, 2)), np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]),
                              np.zeros(1), np.zeros(2))


def least_distance_flows(monkeypatch, game, kappas, solver):
    """_min_norm_equilibrium of each kappa's cold solver flow, as in
    solve_cwe, by active_set_qp and by the least-distance oracle; and the
    number of active_set_qp calls."""
    inputs = []
    for kappa in kappas:
        h0 = solver(assemble_lcp(game, kappa)).x[: game.path_set.n_paths]
        inputs.append((path_cost_field(game, kappa)(h0), h0))
    calls = counting(monkeypatch, lcp, "active_set_qp")
    ours = [routing._min_norm_equilibrium(game, costs, h0) for costs, h0 in inputs]
    monkeypatch.setattr(lcp, "active_set_qp", lambda h_mat, g, e_mat, f, x0: (least_distance_oracle(e_mat, f), 0))
    return ours, [routing._min_norm_equilibrium(game, costs, h0) for costs, h0 in inputs], len(calls)


@pytest.fixture(scope="module")
def uncongested_game(sioux_game):
    return build_game(builtin_network(), sioux_game.od_spec, RiskLevel(0.05), b_e=0.0)


def tied_kappa(game, step_every):
    """kappa that ties every path of each OD at b_e = 0, plus 1 on every
    step_every-th path (none for 0)."""
    ps = game.path_set
    top = np.maximum.reduceat(game.free_flow_costs, ps.od_starts)[ps.od_of_path]
    bump = np.arange(ps.n_paths) % step_every == 0 if step_every else np.zeros(ps.n_paths)
    return top - game.free_flow_costs + bump


class TestLeastDistanceFlow:
    """The least-distance program of _min_norm_equilibrium, solved by active_set_qp."""

    def assert_matches_scipy(self, ours, scipy_route):
        for (h, active), (h_ref, active_ref) in zip(ours, scipy_route):
            assert np.array_equal(active, active_ref)
            assert np.abs(h - h_ref).max() <= 1e-12 * np.abs(h_ref).max()

    def test_default_game_matches_scipy(self, monkeypatch):
        game = build_configured_game(ExperimentConfig())
        kappas = sample_kappa_block(game, 50, 2201, [(rep,) for rep in range(50)])
        ours, scipy_route, calls = least_distance_flows(monkeypatch, game, kappas, solve_lcp_lemke)
        assert calls == 50
        self.assert_matches_scipy(ours, scipy_route)

    def test_uncongested_game_matches_scipy(self, monkeypatch, uncongested_game, sioux_game):
        # The test's kappa-hat give one minimum-cost path per OD, whose flow
        # the demands fix; the tied kappa spread the demands over several.
        # Every one of the five runs the program once.
        kappas = [sample_path_kappa(sioux_game, 500, 11, rep) for rep in range(2)]
        kappas += [tied_kappa(uncongested_game, step) for step in (0, 3, 4)]
        ours, scipy_route, calls = least_distance_flows(monkeypatch, uncongested_game, kappas, solve_lcp_qp)
        assert calls == 5
        self.assert_matches_scipy(ours, scipy_route)

    @pytest.mark.parametrize("step_every", [0, 3, 4, 5, 7])
    def test_vertex_flow_on_tied_uncongested_game(self, uncongested_game, step_every):
        # No edge is congested, so no load is pinned: the flow has the
        # demands and minimum norm over all the tied paths, and its region
        # joins the table.
        game, kappa = uncongested_game, tied_kappa(uncongested_game, step_every)
        raw = solve_lcp_lemke(assemble_lcp(game, kappa)).x[: game.path_set.n_paths]
        table = []
        h = solve_cwe(game, kappa, "lemke", regions=table).x_star
        assert len(table) == 1
        assert_min_norm_equilibrium(game, kappa, h, raw)


class TestMixedCongestion:
    """The default game with b_e = 0 on its 18 uncertain edges, 13 of them
    on paths: only the congested loads and the demands are identified."""

    @pytest.fixture(scope="class")
    def game(self):
        game = build_configured_game(ExperimentConfig())
        free = game.noise_hi > game.noise_lo
        network = dataclasses.replace(game.network, congestion_coeff=np.where(free, 0.0, 100.0))
        return RoutingGame(network=network, od_spec=game.od_spec, path_set=game.path_set,
                           noise_lo=game.noise_lo, noise_hi=game.noise_hi, alpha=game.alpha)

    @pytest.fixture(scope="class")
    def kappas(self, game):
        return sample_kappa_block(game, 50, ExperimentConfig().master_seed, [(0, rep) for rep in range(20)])

    def test_every_method_returns_the_same_bits(self, game, kappas):
        # Extragradient stops at 512-2,048 of its 1,178-6,521 steps here, and
        # qp takes 16-20 active-set iterations: all 20 kappa-hat take about 1.3 s.
        assert np.count_nonzero(game.congestion_diag == 0.0) == 18 and len(game.noise_edges) == 13
        for kappa in kappas:
            solutions = [solve_cwe(game, kappa, method) for method in SOLVE_METHODS]
            assert len({sol.x_star.tobytes() for sol in solutions}) == 1
            assert len({np.float64(sol.residual).tobytes() for sol in solutions}) == 1

    def test_one_table_serves_every_kappa(self, game, kappas):
        table = []
        solved = [solve_cwe(game, kappa, "lemke", regions=table) for kappa in kappas]
        misses = sum(sol.iterations > 0 for sol in solved)
        assert misses == len(table) < len(kappas) // 2
        for kappa, sol in zip(kappas, solved):
            assert sol.x_star.tobytes() == solve_cwe(game, kappa, "lemke").x_star.tobytes()
            raw = solve_lcp_lemke(assemble_lcp(game, kappa)).x[: game.path_set.n_paths]
            assert_min_norm_equilibrium(game, kappa, sol.x_star, raw)

    def test_cold_certified_residual_is_natural_residual(self, game, kappas, monkeypatch):
        assert_cold_residual_from_certificate(monkeypatch, game, kappas[0])


class TestExtragradientStopsAtTheFirstCertifiedRegion:
    """A cold extragradient solve guesses the region from its iterate at
    steps 64, 128, 256, ... and returns the first guess that certifies: the
    bytes of a cold solve that runs to convergence, in fewer steps."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        config = ExperimentConfig()
        game = build_configured_game(config)
        return game, true_path_kappa(game, config.ref_samples, config.ref_seed,
                                     cache_dir=tmp_path_factory.mktemp("ref"))

    @staticmethod
    def assert_same_bytes(got, want):
        assert got.x_star.tobytes() == want.x_star.tobytes()
        assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes()

    def test_reference_kappa_stops_at_step_128_with_lemkes_bytes(self, reference):
        game, kappa = reference
        eg_table, lemke_table = [], []
        eg = solve_cwe(game, kappa, "extragradient", regions=eg_table)
        self.assert_same_bytes(eg, solve_cwe(game, kappa, "lemke", regions=lemke_table))
        assert eg.iterations == 128 and eg.converged
        # The region it appends is the one a cold Lemke solve appends.
        (got,), (want,) = eg_table, lemke_table
        for field in dataclasses.fields(routing.EquilibriumRegion):
            assert getattr(got, field.name).tobytes() == getattr(want, field.name).tobytes()

    @pytest.mark.parametrize("failure", ["never certifies", "raises"])
    def test_a_failed_guess_lets_the_solve_run_to_the_strict_tail(self, reference, monkeypatch, failure):
        game, kappa = reference
        want = solve_cwe(game, kappa, "lemke")
        solve, certify, qp = routing.extragradient_solve, routing._certify, lcp.active_set_qp
        looping, guesses = [], []

        def in_loop(*args):
            looping.append(True)
            try:
                return solve(*args)
            finally:
                looping.pop()

        def certify_nothing_in_loop(game, region, q):
            held, solutions = certify(game, region, q)
            if looping:
                guesses.append(len(held))
                return held[:0], []
            return held, solutions

        def raise_in_loop(*args):
            if looping:
                guesses.append(None)
                raise RuntimeError("active-set QP passed its iteration cap")
            return qp(*args)

        monkeypatch.setattr(routing, "extragradient_solve", in_loop)
        if failure == "never certifies":
            monkeypatch.setattr(routing, "_certify", certify_nothing_in_loop)
        else:
            monkeypatch.setattr(routing.lcp_mod, "active_set_qp", raise_in_loop)
        eg = solve_cwe(game, kappa, "extragradient")
        self.assert_same_bytes(eg, want)
        assert eg.iterations == 508 and eg.converged
        # Guesses at steps 64, 128 and 256; the first certified nothing anyway.
        assert guesses == ([0, 1, 1] if failure == "never certifies" else [None] * 3)


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

    def test_flow_violating_the_equilibrium_condition_raises(self, sioux_game, monkeypatch):
        # A least-distance step that returns the uniform split, whose
        # region (every path used) fails its certificate.
        least_distance = routing._min_norm_equilibrium
        monkeypatch.setattr(routing, "_min_norm_equilibrium",
                            lambda game, costs, h0, tie_tol: (game.feasible_flows.default_start(),
                                                              least_distance(game, costs, h0, tie_tol)[1]))
        kappa = sample_path_kappa(sioux_game, 50, 1)
        for method in SOLVE_METHODS:
            with pytest.raises(RuntimeError, match=f"^solver returned a flow violating the equilibrium "
                                                   rf"condition \(gap .* > 1\.0e-05, method {method}\)$"):
                solve_cwe(sioux_game, kappa, method, regions=[])

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
        assert np.linalg.norm(h) <= np.linalg.norm(raw)
        assert wardrop_gap(sioux_game, kappa, h) <= 1e-5
        assert_min_norm_equilibrium(sioux_game, kappa, h, raw)

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
    """Oracle: each path's OD minimum, OD by OD (of each row, for a stack)."""
    floor = np.empty_like(costs)
    for w in range(len(path_set.od_incidence)):
        members = path_set.od_of_path == w
        floor[..., members] = costs[..., members].min(axis=-1, keepdims=True)
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
