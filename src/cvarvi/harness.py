"""Monte Carlo convergence experiments for sample-average equilibria.

For each sample size N the harness draws R independent replications of the
empirical per-path CVaR offsets, solves each replication's equilibrium,
and records the distance to a high-accuracy reference equilibrium. Both
flows are the minimum-norm points of their equilibrium sets, as
`solve_cwe` returns them, so the distance does not depend on which
equilibrium a solver happens to reach. Replications run in blocks, each
solved from a table of certified equilibrium regions (`run_experiment`).
Output is a flat results table plus one empirical-CDF table per sample
size, all byte-identical across repeated runs with the same configuration
(worker count, block size and scheduling order do not affect the files).
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .bounds import BoundReport, exponential_bound_routing
from .cvar import RiskLevel
from .routing import (
    SOLVE_METHODS,
    EquilibriumRegion,
    OdPair,
    OdSpec,
    RoutingGame,
    build_game,
    builtin_network,
    load_tntp,
    sample_path_kappa,
    solve_cwe,
    true_path_kappa,
)
from .tables import format_table, read_table

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "BoundComparison",
    "ConfigError",
    "parse_config",
    "load_config",
    "default_config_text",
    "build_configured_game",
    "run_experiment",
    "read_results_csv",
    "routing_bound",
    "compare_bounds",
]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Flat description of one convergence experiment."""

    network: str = "builtin:siouxfalls"
    alpha: float = 0.05
    b_e: float = 100.0
    uncertain_nodes: tuple[int, ...] = (10, 16, 17)
    noise_scale: float = 0.5
    ods: tuple[tuple[int, int, float, int], ...] = (
        (1, 19, 300.0, 10),
        (13, 8, 600.0, 10),
        (12, 18, 200.0, 10),
    )
    sample_sizes: tuple[int, ...] = (50, 500, 5000)
    replications: int = 500
    master_seed: int = 20240817
    epsilon: float = 1.0
    ref_samples: int = 10**6
    ref_seed: int = 42
    solver: str = "lemke"

    def __post_init__(self):
        if self.replications < 200:
            raise ConfigError(f"need at least 200 replications, got {self.replications}")
        if not self.sample_sizes or any(n < 1 for n in self.sample_sizes):
            raise ConfigError("sample sizes must be positive")
        if len(set(self.sample_sizes)) != len(self.sample_sizes):
            raise ConfigError("duplicate sample sizes")
        if not 0 < self.alpha < 1:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        for name in ("b_e", "noise_scale", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epsilon <= 0:
            raise ConfigError("need epsilon > 0")
        for name in ("master_seed", "ref_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not self.ods:
            raise ConfigError("need at least one od line")
        if self.solver not in SOLVE_METHODS:
            raise ConfigError(
                f"unknown solver {self.solver!r}; choose one of {', '.join(SOLVE_METHODS)}"
            )


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat `key = value` experiment format.

    `#` starts a comment; the `od` key repeats, one `origin destination
    demand paths` quadruple per line; every other key is an
    `ExperimentConfig` field, given at most once and read as the type of
    its default; list values are comma-separated integers.
    """
    defaults = {f.name: f.default for f in fields(ExperimentConfig) if f.name != "ods"}
    kwargs: dict = {}
    ods: list[tuple[int, int, float, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        try:
            if key == "od":
                parts = value.split()
                if len(parts) != 4:
                    raise ValueError("od takes: origin destination demand paths")
                ods.append((int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3])))
            elif key not in defaults:
                raise ValueError(f"unknown key {key!r}")
            elif key in kwargs:
                raise ValueError(f"key {key!r} given twice")
            elif isinstance(defaults[key], tuple):
                kwargs[key] = tuple(int(v) for v in value.replace(",", " ").split())
            else:
                kwargs[key] = type(defaults[key])(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    if ods:
        kwargs["ods"] = tuple(ods)
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def default_config_text() -> str:
    cfg_path = Path(__file__).parent / "data" / "siouxfalls.cfg"
    return cfg_path.read_text()


def build_configured_game(config: ExperimentConfig) -> RoutingGame:
    if config.network.startswith("builtin:"):
        network = builtin_network(config.network.split(":", 1)[1])
    else:
        network = load_tntp(config.network)
    od_spec = OdSpec(
        pairs=[OdPair(origin=o, destination=d, demand=dem, paths_per_od=k)
               for o, d, dem, k in config.ods]
    )
    return build_game(
        network,
        od_spec,
        RiskLevel(config.alpha),
        b_e=config.b_e,
        uncertain_nodes=config.uncertain_nodes,
        noise_scale=config.noise_scale,
    )


@dataclass(slots=True)  # one per replication, held for the whole run
class RepRecord:
    n_samples: int
    rep: int
    deviation: float
    residual: float
    status: str


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    h_ref: np.ndarray
    records: list[RepRecord]
    results_path: Optional[Path] = None
    cdf_paths: dict[int, Path] = field(default_factory=dict)

    def deviations(self, n_samples: int) -> np.ndarray:
        return np.array(
            [r.deviation for r in self.records if r.n_samples == n_samples and r.status == "ok"]
        )

    def failure_fraction(self) -> float:
        bad = sum(1 for r in self.records if r.status != "ok")
        return bad / len(self.records)

    @property
    def healthy(self) -> bool:
        return self.failure_fraction() <= 0.01


# Replications per task, all at one sample size: a task pickles the game
# and its region table once.
_BLOCK_REPS = 25


def _run_block(game: RoutingGame, n_samples: int, master_seed: int, n_index: int, reps: range,
               h_ref: np.ndarray, solver: str, regions: list[EquilibriumRegion]) -> list[RepRecord]:
    """Replications `reps` at one sample size. Each: kappa_hat from its own
    substream, the minimum-norm equilibrium flow h_N under it (from the
    region table `regions`, which grows on each miss), and ||h_N - h_ref||
    against the minimum-norm reference flow."""
    records = []
    for rep in reps:
        try:
            kappa_hat = sample_path_kappa(game, n_samples, master_seed, n_index, rep)
            sol = solve_cwe(game, kappa_hat, method=solver, regions=regions)
            deviation = float(np.linalg.norm(sol.x_star - h_ref))
            records.append(RepRecord(n_samples, rep, deviation, sol.residual, "ok"))
        except Exception as exc:  # recorded per replication, judged in bulk
            records.append(RepRecord(n_samples, rep, math.nan, math.nan, f"fail:{type(exc).__name__}"))
    return records


_RESULTS_HEADER = ("n_samples", "rep", "deviation", "residual", "status")


def read_results_csv(path) -> list[RepRecord]:
    """The replication records of a results.csv that `run_experiment` wrote."""
    rows = read_table(Path(path).read_text(), _RESULTS_HEADER, str(path))
    return [RepRecord(int(n), int(rep), float(dev), float(res), status)
            for n, rep, dev, res, status in rows]


def run_experiment(
    config: ExperimentConfig,
    output_dir,
    workers: int = 1,
    cache_dir=None,
    game: Optional[RoutingGame] = None,
    progress=None,
) -> ExperimentResult:
    """Run the full replication grid and write results.csv plus one
    cdf_{N}.csv per sample size into output_dir.

    The deviation of a replication is the Euclidean distance between the
    minimum-norm equilibrium flow of its sampled game and that of the
    reference game (kappa from config.ref_samples draws).

    Replications run in blocks of _BLOCK_REPS at one sample size. Each
    block takes the region table of the reference solve and solves from
    it (`solve_cwe` with `regions`), running config.solver only where no
    region certifies the flow; such a miss adds its region to the table.
    At workers=1 the blocks share one table; in a process pool each task
    grows its own copy. A table never changes a flow's bits, so output
    bytes depend only on the configuration, never on `workers` (at least
    1; 1 runs the grid in this process). `progress(done, total)`, if
    given, is called once per replication, as its block's records
    arrive, at any worker count. Raises RuntimeError when more than 1% of
    replications fail.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    if cache_dir is None:
        cache_dir = output_dir / "cache"
    if game is None:
        game = build_configured_game(config)

    kappa_ref = true_path_kappa(game, config.ref_samples, config.ref_seed, cache_dir=cache_dir)
    regions: list[EquilibriumRegion] = []
    h_ref = solve_cwe(game, kappa_ref, method=config.solver, regions=regions).x_star

    reps = config.replications
    tasks = [
        (game, n, config.master_seed, n_index, range(start, min(start + _BLOCK_REPS, reps)), h_ref,
         config.solver, regions)
        for n_index, n in enumerate(config.sample_sizes)
        for start in range(0, reps, _BLOCK_REPS)
    ]
    total = len(config.sample_sizes) * reps
    records = []
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            outcomes = pool.map(_run_block, *zip(*tasks))
        else:
            outcomes = map(_run_block, *zip(*tasks))
        for block in outcomes:
            for record in block:
                records.append(record)
                if progress is not None:
                    progress(len(records), total)
    records.sort(key=lambda r: (r.n_samples, r.rep))

    result = ExperimentResult(config=config, h_ref=h_ref, records=records)
    result.results_path = output_dir / "results.csv"
    rows = [(r.n_samples, r.rep, r.deviation, r.residual, r.status) for r in records]
    result.results_path.write_text(format_table(_RESULTS_HEADER, rows), newline="\n")
    for n in config.sample_sizes:
        devs = np.sort(result.deviations(n))
        rows = [(d, k / len(devs)) for k, d in enumerate(devs, start=1)]
        result.cdf_paths[n] = output_dir / f"cdf_{n}.csv"
        result.cdf_paths[n].write_text(format_table(("deviation", "probability"), rows), newline="\n")

    if not result.healthy:
        raise RuntimeError(
            f"{result.failure_fraction():.1%} of replications failed (tolerated: 1%); "
            f"see {result.results_path}"
        )
    return result


def routing_bound(game: RoutingGame, delta: float, zeta: Optional[float] = None) -> BoundReport:
    """The routing-specific exponential bound of the game at accuracy delta.

    Its constants are conservative: M is the largest per-path Lipschitz
    constant of the cost map over flows; the cost range [l, L] combines
    free-flow times, the congestion term at maximal per-OD loading, and the
    top of the noise support.
    """
    a_mat = game.cost_matrix
    m_lip = float(np.max(np.linalg.norm(a_mat, axis=1)))
    base = game.free_flow_costs
    demand_of_path = game.demands[game.path_set.od_of_path]
    noise_top = game.path_set.edge_incidence.T @ game.noise_hi
    ell = float(base.min())
    big_l = float((base + a_mat @ demand_of_path + noise_top).max())
    return exponential_bound_routing(
        game.feasible_flows.blocks, game.alpha, ell, big_l, m_lip, delta, zeta=zeta
    )


@dataclass
class BoundComparison:
    n_samples: int
    empirical_freq: float
    bound_value: float
    consistent: bool
    report: BoundReport  # the routing bound every row was computed from


def compare_bounds(result: ExperimentResult, game: Optional[RoutingGame] = None) -> list[BoundComparison]:
    """Per sample size, the empirical frequency of deviations of at least
    epsilon against the theoretical tail bound min(1, gamma exp(-beta N)),
    the game's routing bound at delta = epsilon.

    Consistency allows three binomial standard errors of slack: the bound
    is an upper tail estimate, never an equality.
    """
    if game is None:
        game = build_configured_game(result.config)
    report = routing_bound(game, result.config.epsilon)
    comparisons = []
    for n in result.config.sample_sizes:
        devs = result.deviations(n)
        if len(devs) == 0:
            raise RuntimeError(f"no successful replications at N={n}")
        freq = float(np.mean(devs >= result.config.epsilon))
        ln_tail = report.ln_gamma - report.beta * n
        bound = 1.0 if ln_tail >= 0 else math.exp(ln_tail)
        se = math.sqrt(freq * (1.0 - freq) / len(devs))
        comparisons.append(
            BoundComparison(
                n_samples=n,
                empirical_freq=freq,
                bound_value=bound,
                consistent=freq <= bound + 3.0 * se,
                report=report,
            )
        )
    return comparisons
