"""Tests of the benchmark's own code: the grid generator, the seed
plumbing and the span arithmetic; and the Lemke defect that keeps
grid-scaling out of BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gridnet  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cvarvi import routing  # noqa: E402


def _network_arrays(net):
    return [net.tail, net.head, net.free_flow_time, net.capacity]


class TestGridGenerator:
    def test_edge_count_and_shape(self):
        net = gridnet.grid_network(5, seed=3)
        assert net.n_nodes == 25
        assert net.n_edges == 4 * 5 * 4
        pairs = set(zip(net.tail.tolist(), net.head.tolist()))
        assert all((h, t) in pairs for t, h in pairs)  # every edge has its reverse

    def test_same_seed_same_network(self):
        a, b = gridnet.grid_network(6, seed=11), gridnet.grid_network(6, seed=11)
        for x, y in zip(_network_arrays(a), _network_arrays(b)):
            np.testing.assert_array_equal(x, y)
        assert gridnet.uncertain_grid_nodes(6, 11) == gridnet.uncertain_grid_nodes(6, 11)

    def test_other_seed_other_times(self):
        a, b = gridnet.grid_network(6, seed=11), gridnet.grid_network(6, seed=12)
        assert not np.array_equal(a.free_flow_time, b.free_flow_time)

    def test_same_seed_same_path_set(self):
        games = [workloads.grid_game(5, 6, seed=7) for _ in range(2)]
        assert games[0].path_set.paths == games[1].path_set.paths
        np.testing.assert_array_equal(games[0].noise_hi, games[1].noise_hi)
        assert games[0].path_set.n_paths == 4 * 6

    @pytest.mark.parametrize("k", [6, 12])
    def test_uncertain_nodes_give_eight_noisy_edges_each(self, k):
        nodes = gridnet.uncertain_grid_nodes(k, seed=5)
        assert len(nodes) == 3
        game = workloads.grid_game(k, 2, seed=5)
        assert len(game.uncertain_edges) == 24

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            gridnet.grid_network(2, seed=0)


# Run with one BLAS thread, as the benchmark runs: whether the case cycles
# depends on the last bits of the assembled LCP.
LEMKE_CASE = """
import sys
sys.path[:0] = sys.argv[1:]
import workloads
from cvarvi import lcp, routing
game = workloads.grid_game(workloads.GRID_SIDE, workloads.GRID_PATHS_PER_OD,
                           workloads.GRID_NETWORK_SEED)
kappa_hat = routing.sample_path_kappa(game, workloads.GRID_SAMPLES, 12, 0, 4)
lcp.solve_lcp_lemke(lcp.assemble_lcp(game, kappa_hat), max_pivots=1000)
"""


@pytest.mark.xfail(reason="Lemke's lexicographic rule cycles on this degenerate LCP")
def test_lemke_solves_grid_replication_seed12_rep4():
    """The grid-scaling replication that Lemke cannot solve: its basis at
    pivot 551 repeats the one at pivot 545, so it runs into any budget
    (the other replications take about 230 pivots). Not strict, since
    another CPU or BLAS may round differently. When this passes,
    grid-scaling can go back into BENCHMARK.json."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", LEMKE_CASE, str(BENCH.parent / "src"), str(BENCH)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestSeedPlumbing:
    def test_default_seed_is_default_config(self):
        from cvarvi import harness

        default = harness.parse_config(harness.default_config_text())
        assert workloads.sioux_config(workloads.DEFAULT_SEED) == default

    def test_seed_moves_only_the_master_seed(self):
        a, b = workloads.sioux_config(1), workloads.sioux_config(2)
        assert (a.master_seed, b.master_seed) == (1, 2)
        assert a.ref_seed == b.ref_seed and a.sample_sizes == b.sample_sizes


def _span(name, start, end, parent=-1):
    return [name, start, end, parent, None, None]


class TestSpanArithmetic:
    def test_self_time_subtracts_children(self):
        spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 3.0, 0), _span("c", 4.0, 8.0, 0),
                 _span("d", 5.0, 6.0, 2)]
        assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [_span("a", 0.0, 10.0), _span("b", 2.0, 6.0, 0), _span("c", 4.0, 7.0, 0),
                 _span("d", 9.0, 12.0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_subtree_self_times_sum_to_root_duration(self):
        spans = [_span("x", 0.0, 1.0), _span("root", 1.0, 9.0), _span("b", 2.0, 4.0, 1),
                 _span("c", 2.5, 3.0, 2), _span("d", 5.0, 8.5, 1), _span("y", 9.0, 9.5)]
        summary = tracing.Summary(spans)
        assert summary.subtree_self_s(1) == pytest.approx(8.0)
        assert tracing.descendants(spans, 1) == [1, 2, 3, 4]

    def test_inclusive_time_counts_recursion_once(self):
        spans = [_span("f", 0.0, 4.0), _span("f", 1.0, 2.0, 0), _span("g", 2.0, 3.0, 0),
                 _span("f", 5.0, 6.0)]
        summary = tracing.Summary(spans)
        assert summary.total_s("f") == pytest.approx(5.0)
        assert summary.calls("f") == 3
        assert summary.total_self_s("f") == pytest.approx(2.0 + 1.0 + 1.0)


class TestTracer:
    def test_wraps_every_lookup_site_and_restores(self):
        original = routing.path_cost_field
        game = workloads.grid_game(5, 2, seed=1)
        kappa = np.zeros(game.path_set.n_paths)
        tracer = tracing.Tracer()
        tracer.install([routing], {"routing.path_cost_field": (original, None, None)})
        try:
            routing.solve_cwe(game, kappa, method="lemke")
        finally:
            tracer.uninstall()
        assert routing.path_cost_field is original
        # solve_cwe and wardrop_gap each look path_cost_field up in routing.
        assert [s[tracing.NAME] for s in tracer.spans] == ["routing.path_cost_field"] * 2

    def test_records_errors_and_parents(self):
        tracer = tracing.Tracer()

        def boom():
            raise KeyError("x")

        traced = tracer.wrap("boom", boom)
        with tracer.span("outer") as outer:
            with pytest.raises(KeyError):
                traced()
        assert tracer.spans[1][tracing.PARENT] == outer
        assert tracer.spans[1][tracing.EXTRA] == {"error": "KeyError"}
        assert tracer.spans[1][tracing.END] >= tracer.spans[1][tracing.START]
