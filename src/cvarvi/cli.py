"""Command-line front end.

Each command prints one CSV table to stdout, in the syntax of
`cvarvi.tables` (as is the `value` sample file `estimate` reads); progress
and human commentary go to stderr. Exit codes: 0 success, 1 runtime
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bounds import exponential_bound_general, exponential_bound_separable
from .cvar import RiskLevel, SampleBatch, empirical_cvar, empirical_cvar_lp
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    build_configured_game,
    compare_bounds,
    load_config,
    read_results_csv,
    routing_bound,
    run_experiment,
)
from .routing import SOLVE_METHODS, path_cost_field, sample_path_kappa, solve_cwe, true_path_kappa
from .tables import format_table, read_table

__all__ = ["main", "build_parser"]


def _default_output_dir() -> str:
    return os.environ.get("CVARVI_OUTPUT_DIR", "cvarvi_out")


def _load_experiment_config(args):
    return ExperimentConfig() if args.config is None else load_config(args.config)


def _int_at_least(minimum: int):
    """argparse type: an integer of at least `minimum`; a usage error names the flag."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvarvi",
        description="CVaR estimation, risk-averse equilibrium solves, "
        "sample-size bounds, and convergence experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="empirical CVaR of a sample CSV")
    p_est.add_argument("samples", help="CSV file with a `value` header, or - for stdin")
    p_est.add_argument("--alpha", type=float, required=True)
    p_est.add_argument("--method", choices=["order_statistic", "lp"], default="order_statistic")
    p_est.set_defaults(run=_cmd_estimate)

    p_solve = sub.add_parser("solve", help="equilibrium flow for a configured game")
    p_solve.add_argument("--config", default=None, help="experiment config (default: builtin)")
    p_solve.add_argument("--method", choices=SOLVE_METHODS, default="lemke")
    p_solve.add_argument("--kappa", choices=["empirical", "reference"], default="empirical")
    # None marks a flag not given: with --kappa reference a given one is a usage error.
    p_solve.add_argument("--n-samples", type=_int_at_least(1), help="draws per kappa-hat (default: 5000)")
    p_solve.add_argument("--seed", type=_int_at_least(0), help="master seed of the draws (default: 0)")
    p_solve.set_defaults(run=_cmd_solve, usage_error=p_solve.error)

    p_bounds = sub.add_parser("bounds", help="gamma/beta constants and sample sizes")
    p_bounds.set_defaults(run=_cmd_bounds)
    formulas = p_bounds.add_subparsers(dest="formula", required=True, metavar="FORMULA")
    p_gen = formulas.add_parser("general", help="bound over a covering of the decision set")
    p_sep = formulas.add_parser("separable", help="bound for a separable cost, no covering")
    p_rte = formulas.add_parser("routing", help="bound for the configured routing game")
    for p in (p_gen, p_sep):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--alpha", type=float, required=True)
    p_gen.add_argument("--ell", type=float, required=True)
    p_gen.add_argument("--big-l", type=float, required=True)
    p_gen.add_argument("--m", type=float, required=True, help="Lipschitz constant")
    p_gen.add_argument("--diam", type=float, required=True)
    p_sep.add_argument("--f-max", type=float, required=True)
    p_sep.add_argument("--g-rge", type=float, required=True)
    for p in (p_gen, p_sep):
        delta = p.add_mutually_exclusive_group(required=True)
        delta.add_argument("--delta", type=float)
        delta.add_argument("--sigma", type=float, help="with --epsilon: delta = sigma * epsilon")
        p.add_argument("--epsilon", type=float)
        p.set_defaults(usage_error=p.error)
    p_rte.add_argument("--config", default=None, help="game config (default: builtin)")
    delta = p_rte.add_mutually_exclusive_group()
    delta.add_argument("--delta", type=float)
    delta.add_argument("--epsilon", type=float, help="delta = epsilon (default: the config's)")
    for p in (p_gen, p_sep, p_rte):
        p.add_argument("--zeta", type=float, default=0.05)

    p_exp = sub.add_parser("experiment", help="run the replication grid")
    p_exp.add_argument("--config", default=None)
    p_exp.add_argument("--output-dir", default=_default_output_dir())
    p_exp.add_argument("--jobs", type=_int_at_least(1), default=1, help="worker process count")
    p_exp.set_defaults(run=_cmd_experiment)

    p_cmp = sub.add_parser("compare", help="tail frequencies vs the bound, for the run in --output-dir")
    p_cmp.add_argument("--output-dir", default=_default_output_dir())
    p_cmp.set_defaults(run=_cmd_compare)
    return parser


def _cmd_estimate(args) -> int:
    text = sys.stdin.read() if args.samples == "-" else Path(args.samples).read_text()
    rows = read_table(text, ("value",), "stdin" if args.samples == "-" else args.samples, (float,))
    batch = SampleBatch(values=[value for (value,) in rows])
    alpha = RiskLevel(args.alpha)
    est = empirical_cvar_lp(batch, alpha) if args.method == "lp" else empirical_cvar(batch, alpha)
    sys.stdout.write(format_table(("cvar", "t_star"), [(est.value, est.t_star)]))
    print(f"empirical CVaR of {len(batch.values)} draws at alpha={args.alpha}", file=sys.stderr)
    return 0


def _cmd_solve(args) -> int:
    if args.kappa == "reference":
        for flag, value in (("--n-samples", args.n_samples), ("--seed", args.seed)):
            if value is not None:
                args.usage_error(f"argument {flag}: not allowed with --kappa reference")
    config = _load_experiment_config(args)
    game = build_configured_game(config)
    if args.kappa == "reference":
        kappa = true_path_kappa(game, config.ref_samples, config.ref_seed)
    else:
        kappa = sample_path_kappa(game, 5000 if args.n_samples is None else args.n_samples,
                                  0 if args.seed is None else args.seed)
    sol = solve_cwe(game, kappa, method=args.method)
    costs = path_cost_field(game, kappa)(sol.x_star)
    names = ["-".join(map(str, nodes)) for nodes in game.path_set.paths]
    rows = zip(names, game.path_set.od_of_path, sol.x_star, costs)
    sys.stdout.write(format_table(("path", "od", "flow", "cost"), rows))
    print(
        f"method={args.method} residual={sol.residual:.3e} iterations={sol.iterations}",
        file=sys.stderr,
    )
    return 0


def _cmd_bounds(args) -> int:
    if args.formula == "routing":
        config = _load_experiment_config(args)
        delta = next(d for d in (args.delta, args.epsilon, config.epsilon) if d is not None)
        report = routing_bound(build_configured_game(config), delta, zeta=args.zeta)
    else:
        if (args.sigma is None) != (args.epsilon is None):
            args.usage_error("give --delta, or --sigma with --epsilon")
        delta = args.delta if args.delta is not None else args.sigma * args.epsilon
        if args.formula == "general":
            report = exponential_bound_general(args.n, RiskLevel(args.alpha), args.ell, args.big_l,
                                               args.m, args.diam, delta, zeta=args.zeta)
        else:
            report = exponential_bound_separable(
                args.n, RiskLevel(args.alpha), args.f_max, args.g_rge, delta, zeta=args.zeta
            )
    row = (report.formula_id, report.gamma, report.ln_gamma, report.beta, report.n_samples)
    sys.stdout.write(format_table(("formula", "gamma", "ln_gamma", "beta", "n_samples"), [row]))
    return 0


def _cmd_experiment(args) -> int:
    config = _load_experiment_config(args)

    def progress(done, total):
        if done % 100 == 0 or done == total:
            print(f"replications {done}/{total}", file=sys.stderr)

    result = run_experiment(config, args.output_dir, workers=args.jobs, progress=progress)
    devs = {n: result.deviations(n) for n in config.sample_sizes}
    rows = [(n, d.mean(), np.percentile(d, 90), config.replications - len(d)) for n, d in devs.items()]
    sys.stdout.write(format_table(("n_samples", "mean_deviation", "p90_deviation", "failures"), rows))
    print(f"wrote {result.results_path}", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    results_path, config_path = Path(args.output_dir) / "results.csv", Path(args.output_dir) / "config.cfg"
    for kind, path in (("results", results_path), ("config", config_path)):
        if not path.exists():
            raise RuntimeError(f"no {kind} at {path}; run `cvarvi experiment` first")
    records = read_results_csv(results_path)
    result = ExperimentResult(config=load_config(config_path), h_ref=np.zeros(0), records=records)
    rows = compare_bounds(result)
    table = [(row.n_samples, row.empirical_freq, row.bound_value, row.consistent) for row in rows]
    sys.stdout.write(format_table(("n_samples", "empirical_freq", "bound", "consistent"), table))
    vacuous = [str(row.n_samples) for row in rows if row.bound_value == 1.0]
    if vacuous:
        print(f"the bound is vacuous (1) at N = {', '.join(vacuous)}", file=sys.stderr)
    report = rows[0].report
    # ln gamma - beta N < 0 exactly when N > ln gamma / beta.
    print(
        f"the bound is below 1 from N = {math.floor(report.ln_gamma / report.beta) + 1} "
        f"(ln gamma = {report.ln_gamma:.4g}, beta = {report.beta:.4g})",
        file=sys.stderr,
    )
    return 0 if all(row.consistent for row in rows) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
