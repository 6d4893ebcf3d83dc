"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Every criterion is
expected to pass. Criterion 3 compares path flows on the full network,
where equilibrium path flows are not unique; it holds because every solve
returns the minimum-norm point of the equilibrium set. Criterion 8 checks
the sizes of the explicit covers and, where a lattice witnesses it, that
the reported covering number is at least that size; for K < n the
reported binomial is smaller than the lattice, and no document in the
repository settles whether it is still a valid bound there.
"""

import math
import time

import numpy as np
import pytest

from cvarvi.bounds import (
    covering_number_flow_polytope,
    covering_number_simplex,
    flow_polytope_cover,
    pointwise_deviation_bound,
    simplex_lattice_cover,
)
from cvarvi.bounds import exponential_bound_general, exponential_bound_routing, exponential_bound_separable
from cvarvi.cvar import (
    RiskLevel,
    SampleBatch,
    cvar_uniform_interval,
    empirical_cvar,
    empirical_cvar_lp,
)
from cvarvi.harness import parse_config, run_experiment
from cvarvi.routing import (
    Network,
    OdPair,
    OdSpec,
    build_game,
    builtin_network,
    sample_path_kappa,
    solve_cwe,
    wardrop_gap,
)
from cvarvi.vi import Box, extragradient_solve

SIOUX_ODS = OdSpec(
    pairs=[OdPair(1, 19, 300, 10), OdPair(13, 8, 600, 10), OdPair(12, 18, 200, 10)]
)


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def sioux_game():
    return build_game(builtin_network(), SIOUX_ODS, RiskLevel(0.05))


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    cfg = parse_config(
        "od = 1 19 300 10\nod = 13 8 600 10\nod = 12 18 200 10\n"
        "sample_sizes = 50, 500, 5000\nreplications = 200\nmaster_seed = 20240817\n"
        "epsilon = 1.0\nref_samples = 1000000\nref_seed = 42\n"
    )
    out = tmp_path_factory.mktemp("acceptance_exp")
    return run_experiment(cfg, out)


def breakpoint_cvar(values, alpha):
    """Rockafellar-Uryasev: min over t of t + sum((v - t)+) / (N alpha). The
    objective is convex and piecewise linear with its kinks at the values,
    so its minimum is at one of them; O(N^2)."""
    values = np.asarray(values, dtype=float)
    excess = np.maximum(values[None, :] - values[:, None], 0.0).sum(axis=1)
    return float(np.min(values + excess / (len(values) * alpha)))


def test_criterion_01_cvar_oracle_equivalence():
    rng = np.random.default_rng(1001)
    # The LP route imports SciPy's optimizer on its first call; make that
    # call before the clock starts, so that the budget times the pairs.
    empirical_cvar_lp(SampleBatch(values=(0.0, 1.0)), RiskLevel(0.5))
    # CPU time of this process, so that load from other processes on the
    # machine does not count against the budget.
    start = time.process_time()
    worst_oracle = 0.0
    worst_lp = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        values = rng.normal(size=n) * rng.uniform(0.1, 20) + rng.normal() * 10
        alpha = float(rng.uniform(0.01, 0.99))
        batch = SampleBatch(values=tuple(values))
        est = empirical_cvar(batch, RiskLevel(alpha)).value
        oracle = breakpoint_cvar(values, alpha)
        scale = max(1.0, abs(oracle))
        worst_oracle = max(worst_oracle, abs(est - oracle) / scale)
        lp = empirical_cvar_lp(batch, RiskLevel(alpha)).value
        worst_lp = max(worst_lp, abs(est - lp))
    cpu = time.process_time() - start
    report(
        1,
        "CVaR oracle equivalence",
        worst_oracle < 1e-6 and worst_lp < 1e-10,
        f"oracle dev {worst_oracle:.2e}, lp dev {worst_lp:.2e}, {cpu:.1f}s CPU",
    )
    assert cpu < 10.0, f"[criterion 01] 1000 CVaR/LP pairs took {cpu:.1f}s of CPU time, over the 10s budget"


def test_criterion_02_analytic_uniform_tail():
    start = time.perf_counter()
    od = OdSpec(pairs=[OdPair(16, 17, 1.0, 1)])
    game = build_game(builtin_network(), od, RiskLevel(0.05))
    assert game.path_set.paths[0] == (16, 17)
    e = int(np.nonzero(game.path_set.edge_incidence[:, 0])[0][0])
    hi = float(game.noise_hi[e])
    kappa = sample_path_kappa(game, 10**6, 2024)
    exact = cvar_uniform_interval(0.0, hi, RiskLevel(0.05))
    rel = abs(kappa[0] - exact) / exact
    elapsed = time.perf_counter() - start
    ok = rel < 5e-3 and elapsed < 30.0
    report(2, "analytic uniform tail", ok, f"rel dev {rel:.2e}, {elapsed:.1f}s")


def random_small_game(rng):
    """<= 4 paths over <= 2 ODs, each path two private edges, so the cost
    matrix is diagonal positive and the equilibrium is unique."""
    n_ods = int(rng.integers(1, 3))
    paths_per = [int(rng.integers(1, 5 - (n_ods - 1) * 2)) for _ in range(n_ods)]
    tails, heads, t, c = [], [], [], []
    pairs = []
    node = 1
    for w in range(n_ods):
        o, d = node, node + 1
        node += 2
        for _ in range(paths_per[w]):
            mid = node
            node += 1
            tails += [o, mid]
            heads += [mid, d]
            t += list(rng.uniform(0.5, 5.0, size=2))
            c += list(rng.uniform(1.0, 10.0, size=2))
        pairs.append(OdPair(o, d, float(rng.uniform(0.5, 5.0)), paths_per[w]))
    net = Network(
        n_nodes=node - 1,
        tail=tails,
        head=heads,
        free_flow_time=t,
        capacity=c,
        congestion_coeff=np.ones(len(tails)),
    )
    game = build_game(net, OdSpec(pairs=pairs), RiskLevel(0.1), b_e=1.0, uncertain_nodes=())
    kappa = rng.uniform(0.0, 2.0, size=game.path_set.n_paths)
    return game, kappa


def test_criterion_03_cross_solver_agreement(sioux_game):
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    worst_small = 0.0
    for _ in range(100):
        game, kappa = random_small_game(rng)
        flows = [
            solve_cwe(game, kappa, method=m).x_star for m in ("extragradient", "lemke", "qp")
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                worst_small = max(worst_small, float(np.abs(flows[i] - flows[j]).max()))
    kappa = sample_path_kappa(sioux_game, 1000, 7)
    flows = [
        solve_cwe(sioux_game, kappa, method=m).x_star for m in ("extragradient", "lemke", "qp")
    ]
    worst_sioux = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            worst_sioux = max(worst_sioux, float(np.abs(flows[i] - flows[j]).max()))
    elapsed = time.perf_counter() - start
    ok = worst_small < 1e-5 and worst_sioux < 1e-5 and elapsed < 300.0
    report(
        3,
        "cross-solver agreement",
        ok,
        f"small games {worst_small:.2e}, full network path flows {worst_sioux:.2e}, {elapsed:.0f}s",
    )


def test_criterion_04_wardrop_certificate(sioux_game):
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(20):
        game, kappa = random_small_game(rng)
        for m in ("extragradient", "lemke", "qp"):
            sol = solve_cwe(game, kappa, method=m)
            worst = max(worst, wardrop_gap(game, kappa, sol.x_star))
    for seed in range(5):
        kappa = sample_path_kappa(sioux_game, 500, seed)
        for m in ("extragradient", "lemke", "qp"):
            sol = solve_cwe(sioux_game, kappa, method=m)
            worst = max(worst, wardrop_gap(sioux_game, kappa, sol.x_star))
    ok = worst <= 1e-5
    report(4, "equilibrium complementarity certificate", ok, f"worst gap {worst:.2e}")


def test_criterion_05_cdf_ordering(experiment):
    devs = {n: np.sort(experiment.deviations(n)) for n in (50, 500, 5000)}
    deciles = np.arange(10, 100, 10)
    dominated = all(
        np.percentile(devs[500], q) <= np.percentile(devs[50], q)
        and np.percentile(devs[5000], q) <= np.percentile(devs[500], q)
        for q in deciles
    )
    med_ratio = float(np.median(devs[5000]) / np.median(devs[50]))
    ok = dominated and med_ratio <= 1.0 / 3.0
    report(
        5,
        "convergence-in-N ordering",
        ok,
        f"decile dominance {dominated}, median ratio {med_ratio:.3f}",
    )


def test_criterion_06_concentration_never_violated():
    alpha = 0.05
    exact = cvar_uniform_interval(0.0, 1.0, RiskLevel(alpha))
    rng = np.random.default_rng(66)
    reps = 2000
    ok = True
    worst_margin = -np.inf
    for n in (50, 200, 1000):
        draws = np.sort(rng.random((reps, n)), axis=1)[:, ::-1]
        na = n * alpha
        m = int(na)
        frac = na - m
        head = draws[:, :m].sum(axis=1)
        boundary = draws[:, m] if m < n else 0.0
        est = (head + frac * boundary) / na
        dev = np.abs(est - exact)
        for eps in (0.05, 0.1, 0.2):
            freq = float(np.mean(dev >= eps))
            bound = pointwise_deviation_bound(0.0, 1.0, RiskLevel(alpha), eps, n)
            se = math.sqrt(bound * (1.0 - bound) / reps) if bound < 1 else 0.0
            margin = freq - (bound + 3.0 * se)
            worst_margin = max(worst_margin, margin)
            ok = ok and margin <= 0.0
    report(6, "concentration bound never violated", ok, f"worst margin {worst_margin:.2e}")


def test_criterion_07_bound_calculators():
    checks = []
    # Uniform bound constants, dimension-one instance, independent arithmetic.
    rep = exponential_bound_general(
        n=1, alpha=RiskLevel(0.5), ell=0.0, big_l=1.0, m_lip=1.0, diam_x=1.0, delta=0.1
    )
    gamma_ref = 6.0 * 1.0 * (12.0 * 1.0 * 1.0 / (0.1 * 0.5)) ** 1 * math.gamma(2.0) / (
        2.0 * math.pi**0.5
    )
    checks.append(abs(rep.ln_gamma - math.log(gamma_ref)) <= 1e-12 * abs(math.log(gamma_ref)))
    checks.append(abs(rep.beta - 0.5 * 0.1**2 / (44.0 * 1.0 * 1.0)) <= 1e-12 * rep.beta)
    # Separable constants.
    rep = exponential_bound_separable(n=1, alpha=RiskLevel(0.05), f_max=1.0, g_rge=1.0, delta=0.1)
    checks.append(abs(rep.gamma - 6.0) <= 1e-12 * 6.0)
    checks.append(abs(rep.beta - 0.05 * 0.01 / 11.0) <= 1e-12 * rep.beta)
    # Routing constants on the experiment's shape.
    rep = exponential_bound_routing(
        path_counts=[10, 10, 10], alpha=RiskLevel(0.05), ell=0.0, big_l=7.0, m_lip=2.5, delta=1.0
    )
    factor = math.ceil(4.0 * 2.5 * 3.0 * math.sqrt(10.0) / (1.0 * 0.05))
    checks.append(rep.gamma_exact == 6 * 30 * factor**3)
    checks.append(abs(rep.beta - 0.05 / (44.0 * 30.0 * 49.0)) <= 1e-12 * rep.beta)
    # Sample-size planner at gamma = 6, beta = 1e-4, zeta = 0.05.
    n_need = math.ceil((math.log(6.0) - math.log(0.05)) / 1e-4)
    checks.append(n_need == 47875)
    rep = exponential_bound_separable(
        n=1, alpha=RiskLevel(0.05), f_max=1.0, g_rge=1.0, delta=0.1, zeta=0.05
    )
    checks.append(rep.n_samples == math.ceil((math.log(6.0 / 0.05)) / rep.beta))
    # Hand binomials for the simplex covering number.
    checks.append(covering_number_simplex(2, 1.0, 0.71) == 3)
    checks.append(covering_number_simplex(2, 1.0, math.sqrt(2.0)) == 1)
    checks.append(covering_number_simplex(3, 1.0, 0.9) == 4)
    ok = all(checks)
    report(7, "bound calculators match re-evaluation", ok, f"{sum(checks)}/{len(checks)} checks")


def test_criterion_08_cover_validity():
    rng = np.random.default_rng(88)
    coverage_ok = True
    cardinality_ok = True
    detail = []
    for n in range(1, 5):
        for k in range(1, 7):
            pts = simplex_lattice_cover(n, 1.0, k)
            eps = math.sqrt(n) / k
            samples = rng.dirichlet(np.ones(n), size=10**4 // 6)
            dists = np.linalg.norm(samples[:, None, :] - pts[None, :, :], axis=2).min(axis=1)
            if dists.max() > eps + 1e-12:
                coverage_ok = False
            # Compositions of K into n parts; where K >= n the lattice is a
            # cover of the reported size or smaller.
            if len(pts) != math.comb(n + k - 1, n - 1):
                cardinality_ok = False
                detail.append(f"n={n},K={k}: {len(pts)} vs C={math.comb(n + k - 1, n - 1)}")
            if k >= n and covering_number_simplex(n, 1.0, eps) < len(pts):
                cardinality_ok = False
                detail.append(f"n={n},K={k}: reported {covering_number_simplex(n, 1.0, eps)} < {len(pts)}")
    ods = [(2, 1.0), (3, 2.0)]
    eps = 1.5
    cover = flow_polytope_cover(ods, eps)
    samples = np.hstack(
        [rng.dirichlet(np.ones(2), size=10**4), rng.dirichlet(np.ones(3), size=10**4) * 2.0]
    )
    dmin = np.linalg.norm(samples[:, None, :] - cover[None, :, :], axis=2).min(axis=1)
    product_ok = bool(dmin.max() <= eps + 1e-12)
    k_w = [math.ceil(len(ods) * math.sqrt(p) * d / eps) for p, d in ods]
    block_counts = [math.comb(p + k - 1, p - 1) for (p, _), k in zip(ods, k_w)]
    if len(cover) != math.prod(block_counts):
        cardinality_ok = False
        detail.append(f"product cover: {len(cover)} vs {math.prod(block_counts)}")
    if all(k >= p for (p, _), k in zip(ods, k_w)) and covering_number_flow_polytope(ods, eps) < len(cover):
        cardinality_ok = False
        detail.append(f"product cover: reported {covering_number_flow_polytope(ods, eps)} < {len(cover)}")
    ok = coverage_ok and cardinality_ok and product_ok
    report(
        8,
        "cover validity",
        ok,
        f"coverage {coverage_ok}, product {product_ok}, cardinality {cardinality_ok}"
        + (f"; first mismatch {detail[0]}" if detail else ""),
    )


def test_criterion_09_strongly_monotone_delta_law():
    sigma = 2.0
    c = 3.0
    alpha = RiskLevel(0.1)
    exact_kappa = cvar_uniform_interval(0.0, 1.0, alpha)
    x_exact = np.clip((c - exact_kappa) / sigma, 0.0, 10.0)
    rng = np.random.default_rng(99)
    kappa_hat = np.array([empirical_cvar(SampleBatch(values=tuple(rng.random(100))), alpha).value
                          for _ in range(2000)])
    # F is diagonal, so the 2,000 one-dimensional VIs on [0, 10] solve as
    # one separable VI on a box: each coordinate takes its own iterates bit
    # for bit, and the joint stop (residual norm <= 1e-9) bounds the
    # residual of every coordinate.
    box = Box(lo=np.zeros(len(kappa_hat)), hi=np.full(len(kappa_hat), 10.0))
    sol = extragradient_solve(box, lambda x: sigma * x - c + kappa_hat, sigma)
    lhs = np.abs(sol.x_star - x_exact)
    rhs = np.abs(kappa_hat - exact_kappa) / sigma + 1e-8
    ok = sol.converged and bool(np.all(lhs <= rhs))
    report(9, "strongly monotone deviation law", ok, f"worst slack violation {np.max(lhs - rhs):.2e}")


def test_criterion_10_determinism(tmp_path):
    cfg_text = (
        "od = 1 19 300 10\nod = 13 8 600 10\nod = 12 18 200 10\n"
        "sample_sizes = 50, 200\nreplications = 200\nmaster_seed = 424242\n"
        "ref_samples = 100000\n"
    )
    cfg = parse_config(cfg_text)
    res_a = run_experiment(cfg, tmp_path / "a", cache_dir=tmp_path / "cache_a")
    res_b = run_experiment(cfg, tmp_path / "b", workers=2, cache_dir=tmp_path / "cache_b")
    same = res_a.results_path.read_bytes() == res_b.results_path.read_bytes()
    for n in cfg.sample_sizes:
        same = same and res_a.cdf_paths[n].read_bytes() == res_b.cdf_paths[n].read_bytes()
    report(10, "byte-identical determinism", same)
