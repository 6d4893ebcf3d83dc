"""Correctness checks on what a workload produced.

None of them compares exact output bytes of a new computation with a
stored copy: a change may move kappa-hat in the last bits on purpose. Each
check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from cvarvi import cvar, routing


def fmt(x: float) -> str:
    """The float format of the experiment CSVs."""
    return f"{x:.17g}"


def read_results(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def count_failed(rows: list[dict]) -> int:
    """Replications whose status is not ok or whose deviation is not finite."""
    return sum(1 for r in rows if r["status"] != "ok" or not math.isfinite(float(r["deviation"])))


def check_experiment_csvs(out_dir: Path, sample_sizes, replications: int) -> list[str]:
    """results.csv and every cdf_{N}.csv agree in row count and k/R, and
    every ok replication has a finite deviation and residual."""
    problems = []
    rows = read_results(out_dir / "results.csv")
    if len(rows) != len(sample_sizes) * replications:
        problems.append(f"results.csv has {len(rows)} rows, expected {len(sample_sizes) * replications}")
    for r in rows:
        if r["status"] == "ok" and not (
            math.isfinite(float(r["deviation"])) and math.isfinite(float(r["residual"]))
        ):
            problems.append(f"replication N={r['n_samples']} rep={r['rep']} is ok with a non-finite value")
    for n in sample_sizes:
        ok = sorted(float(r["deviation"]) for r in rows if int(r["n_samples"]) == n and r["status"] == "ok")
        with open(out_dir / f"cdf_{n}.csv", newline="") as fh:
            cdf = list(csv.DictReader(fh))
        if len(cdf) != len(ok):
            problems.append(f"cdf_{n}.csv has {len(cdf)} rows, results.csv has {len(ok)} ok rows at N={n}")
            continue
        devs = [float(c["deviation"]) for c in cdf]
        if devs != ok:
            problems.append(f"cdf_{n}.csv deviations are not the sorted ok deviations of results.csv")
        for k, c in enumerate(cdf, start=1):
            if float(c["probability"]) != k / len(cdf):
                problems.append(f"cdf_{n}.csv row {k} has probability {c['probability']}, expected k/R")
                break
    return problems


def check_reference_kappa(game: routing.RoutingGame, kappa_ref: np.ndarray, n_ref: int) -> list[str]:
    """kappa_ref is exactly 0 on paths without an uncertain edge. On every
    other path it lies between the mean path noise and the sum of the
    per-edge uniform CVaRs (CVaR is subadditive), with a slack of
    4 alpha w / sqrt(alpha n_ref), w the path's noise range: several times
    the Monte Carlo error of a top-alpha tail mean of n_ref draws."""
    problems = []
    alpha = game.alpha.alpha
    q_inc = game.path_set.edge_incidence
    uncertain = game.uncertain_edges
    lo, hi = game.noise_lo, game.noise_hi
    uncertain_set = set(uncertain.tolist())
    edge_cvar = np.zeros(game.network.n_edges)
    for e in uncertain:
        edge_cvar[e] = cvar.cvar_uniform_interval(float(lo[e]), float(hi[e]), game.alpha)
    for p in range(game.path_set.n_paths):
        edges = np.nonzero(q_inc[:, p])[0]
        noisy = [e for e in edges if e in uncertain_set]
        if not noisy:
            if kappa_ref[p] != 0.0:
                problems.append(f"path {p} has no uncertain edge but kappa_ref {kappa_ref[p]!r}")
            continue
        spread = float(np.sum(hi[noisy] - lo[noisy]))
        slack = 4.0 * alpha * spread / math.sqrt(alpha * n_ref)
        mean = float(np.sum((lo[noisy] + hi[noisy]) / 2.0))
        upper = float(np.sum(edge_cvar[noisy]))
        if not mean - slack <= kappa_ref[p] <= upper + slack:
            problems.append(
                f"path {p}: kappa_ref {kappa_ref[p]:.6g} outside [{mean:.6g}, {upper:.6g}] (slack {slack:.2g})"
            )
    return problems


def check_edge_load_agreement(game: routing.RoutingGame, flows: dict[str, np.ndarray]) -> list[str]:
    """Solvers agree on edge loads Q h. Path flows are not compared: the
    model does not identify them when Q has dependent columns."""
    q_inc = game.path_set.edge_incidence
    loads = {name: q_inc @ h for name, h in flows.items()}
    names = sorted(loads)
    tol = 1e-6 * (1.0 + float(game.demands.sum()))
    problems = []
    for a, b in zip(names, names[1:]):
        diff = float(np.max(np.abs(loads[a] - loads[b])))
        if not diff <= tol:
            problems.append(f"edge loads of {a} and {b} differ by {diff:.3e} (tolerance {tol:.1e})")
    return problems


def check_recomputed_replications(game, config, kappa_ref: np.ndarray, rows: list[dict], picks) -> list[str]:
    """Replications recomputed in this process through sample_path_kappa
    and solve_cwe must give exactly the deviation strings that the worker
    processes wrote to results.csv."""
    h_ref = routing.solve_cwe(game, kappa_ref, method=config.solver).x_star
    by_key = {(int(r["n_samples"]), int(r["rep"])): r for r in rows}
    problems = []
    for n_index, rep in picks:
        n = config.sample_sizes[n_index]
        kappa_hat = routing.sample_path_kappa(game, n, config.master_seed, n_index, rep)
        sol = routing.solve_cwe(game, kappa_hat, method=config.solver)
        expect = fmt(float(np.linalg.norm(sol.x_star - h_ref)))
        got = by_key[(n, rep)]["deviation"]
        if got != expect:
            problems.append(f"N={n} rep={rep}: results.csv has {got}, recomputed {expect}")
    return problems
