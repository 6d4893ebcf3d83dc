"""Relations between runs that the model implies.

A byte-identity test sees only that a run repeats itself, and a wrong
path-to-row map, region certificate or kappa-hat reduction repeats itself
too. Two different runs that the model ties together can see them.
"""

import dataclasses

import numpy as np
import pytest

from cvarvi import harness
from cvarvi.cvar import RiskLevel
from cvarvi.harness import ExperimentConfig, build_configured_game, parse_config, run_experiment
from cvarvi.routing import (
    PathSet,
    build_game,
    sample_kappa_block,
    solve_cwe,
    solve_cwe_block,
    true_path_kappa,
)

ALPHAS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.9, 0.99)

# The config of the byte-identity criterion (test_acceptance, criterion 10).
CRITERION_10 = (
    "od = 1 19 300 10\nod = 13 8 600 10\nod = 12 18 200 10\n"
    "sample_sizes = 50, 200\nreplications = 200\nmaster_seed = 424242\n"
    "ref_samples = 100000\n"
)


@pytest.fixture(scope="module")
def default_game():
    return build_configured_game(ExperimentConfig())


@pytest.mark.parametrize("n", [1, 2, 7, 50, 500])
def test_kappa_hat_does_not_increase_with_alpha(default_game, n):
    # The paths and so the draws do not depend on alpha; the upper tail
    # mean over a wider tail is no larger. Where two tails coincide (every
    # alpha at N = 1) the weights round apart by a few ulps.
    keys = [(0, rep) for rep in range(50)]
    kappas = [sample_kappa_block(dataclasses.replace(default_game, alpha=RiskLevel(a)), n, 3, keys)
              for a in ALPHAS]
    for narrow, wide in zip(kappas, kappas[1:]):
        assert np.all(wide <= narrow + 1e-14 * np.abs(narrow))
    noisy = np.array([bool(rows) for rows in default_game.path_noise_rows])
    if n >= 50:
        assert np.all(kappas[-1][:, noisy] < kappas[0][:, noisy])


def test_shifting_one_od_by_a_constant_leaves_the_flows(default_game):
    # Every path of an OD costs 5 more: its cheapest paths and so the
    # equilibrium stay. The two blocks share one region table.
    kappas = sample_kappa_block(default_game, 200, 5, [(1, rep) for rep in range(50)])
    shifted = kappas + 5.0 * (default_game.path_set.od_of_path == 1)
    table = []
    solve_cwe(default_game, kappas[0], "lemke", regions=table)
    flows, moved = ([sol.x_star for sol in solve_cwe_block(default_game, block, "lemke", table)]
                    for block in (kappas, shifted))
    assert np.abs(np.array(flows) - np.array(moved)).max() <= 1e-12


def test_reordering_od_lines_permutes_the_paths_only(tmp_path, monkeypatch):
    # The noise is drawn edge-major, so the streams do not see the path
    # order; the equilibria agree up to rounding.
    lines = CRITERION_10.splitlines(keepends=True)
    config = parse_config(CRITERION_10)
    reordered = parse_config(lines[2] + lines[0] + lines[1] + "".join(lines[3:]))
    game, game_reordered = build_configured_game(config), build_configured_game(reordered)
    order = [game.path_set.paths.index(path) for path in game_reordered.path_set.paths]
    assert sorted(order) == list(range(game.path_set.n_paths)) and order != sorted(order)
    blocks = []
    route = harness.solve_cwe_block
    monkeypatch.setattr(harness, "solve_cwe_block", lambda *args: blocks.append(1) or route(*args))
    result = run_experiment(config, tmp_path / "a", workers=1)
    permuted = run_experiment(reordered, tmp_path / "b", workers=1)
    assert len(blocks) == 2 * 16  # every replication went through the block route
    assert np.abs(permuted.h_ref - result.h_ref[order]).max() <= 1.5e-12
    assert [(r.n_samples, r.rep, r.status) for r in permuted.records] == \
        [(r.n_samples, r.rep, r.status) for r in result.records]
    assert {r.status for r in result.records} == {"ok"}
    deviations = np.array([[r.deviation for r in run.records] for run in (result, permuted)])
    assert np.abs(deviations[0] - deviations[1]).max() <= 1.5e-12


def test_doubling_free_flow_times_doubles_kappa_and_keeps_the_deviations(default_game):
    # Doubling t is exact in floating point and doubles R, Q^T t and the
    # noise supports: the paths stay, kappa-hat and kappa_ref double bit for
    # bit, and the whole cost field doubles, so its equilibria stay.
    config = ExperimentConfig()
    network = default_game.network
    doubled = build_game(dataclasses.replace(network, free_flow_time=2.0 * network.free_flow_time),
                         default_game.od_spec, default_game.alpha, b_e=config.b_e,
                         uncertain_nodes=config.uncertain_nodes, noise_scale=config.noise_scale)
    assert doubled.path_set.paths == default_game.path_set.paths
    refs = [true_path_kappa(game, config.ref_samples, config.ref_seed) for game in (default_game, doubled)]
    assert np.array_equal(refs[1], 2.0 * refs[0])
    tables = [], []
    h_refs = [solve_cwe(game, kappa, "lemke", regions=table).x_star
              for game, kappa, table in zip((default_game, doubled), refs, tables)]
    assert np.abs(h_refs[1] - h_refs[0]).max() <= 1e-10
    for n_index, n in enumerate(config.sample_sizes):
        keys = [(n_index, rep) for rep in range(20)]
        kappas = [sample_kappa_block(game, n, config.master_seed, keys) for game in (default_game, doubled)]
        assert np.array_equal(kappas[1], 2.0 * kappas[0])
        deviations = [[np.linalg.norm(sol.x_star - h_ref) for sol in solve_cwe_block(game, block, "lemke", table)]
                      for game, block, table, h_ref in zip((default_game, doubled), kappas, tables, h_refs)]
        assert np.array(deviations[1]) == pytest.approx(deviations[0], rel=1e-10, abs=0.0)


def test_permuting_the_paths_of_each_od_permutes_the_lemke_flow(default_game):
    # The same game with each OD's paths listed in another order: Lemke
    # pivots through another sequence, and the minimum-norm flow agrees up
    # to rounding.
    ps = default_game.path_set
    rng = np.random.default_rng(0)
    order = np.concatenate([start + rng.permutation(n) for start, n in zip(ps.od_starts, np.bincount(ps.od_of_path))])
    permuted = dataclasses.replace(default_game, path_set=PathSet(
        paths=[ps.paths[p] for p in order], od_of_path=ps.od_of_path, edge_incidence=ps.edge_incidence[:, order]))
    for kappa in sample_kappa_block(default_game, 500, 5, [(rep,) for rep in range(20)]):
        flow = solve_cwe(default_game, kappa, "lemke").x_star
        assert np.abs(solve_cwe(permuted, kappa[order], "lemke").x_star - flow[order]).max() <= 1e-10
