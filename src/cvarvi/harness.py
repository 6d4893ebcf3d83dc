"""Monte Carlo convergence experiments for sample-average equilibria.

For each sample size N the harness draws R independent replications of the
empirical per-path CVaR offsets, solves each replication's equilibrium,
and records the distance to a high-accuracy reference equilibrium. Both
flows are the minimum-norm points of their equilibrium sets, as
`solve_cwe` returns them, so the distance does not depend on which
equilibrium a solver reaches. Replications run in blocks: a block's
kappa-hat are reduced together, its region hits certified as stacked
arrays (`solve_cwe_block`) from each worker's table of certified regions,
and its misses solved by Lemke (`ExperimentConfig.solver`). Output is a
results table, its config.cfg and one empirical-CDF table per sample size,
byte-identical across runs with the same configuration (worker count,
block size and scheduling order do not affect the files).
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import ClassVar, Optional

import numpy as np

from .bounds import BoundReport, exponential_bound_routing
from .cvar import RiskLevel
from .routing import (
    EquilibriumRegion,
    OdPair,
    OdSpec,
    RoutingGame,
    build_game,
    builtin_network,
    load_tntp,
    sample_kappa_block,
    solve_cwe,
    solve_cwe_block,
    true_path_kappa,
)
from .tables import format_table, read_table

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "BoundComparison",
    "ConfigError",
    "parse_config",
    "format_config",
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
    """One convergence experiment, flat; its field defaults are the default experiment."""

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
    # Not a field: every returned flow is its region's certified closed form, so the
    # method solving the reference and each region miss changes no output bit.
    solver: ClassVar[str] = "lemke"

    def __post_init__(self):
        # format_config writes network verbatim; parse_config cuts each line at '#' and strips it.
        if "#" in self.network or len(self.network.splitlines()) > 1 or self.network != self.network.strip():
            raise ConfigError(f"network {self.network!r} would not read back from config.cfg: "
                              "it must hold no '#' or line break, and no surrounding whitespace")
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
            elif key == "solver":
                raise ValueError("the solver key was removed: every run solves its misses with lemke")
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


def format_config(config: ExperimentConfig) -> str:
    """The text `parse_config` reads back as config: an `od` line per quadruple, then a
    `key = value` line per other field, tuples comma-joined and floats as `str` (exact)."""
    lines = [f"od = {o} {d} {demand} {k}" for o, d, demand, k in config.ods]
    for f in fields(config):
        if f.name != "ods":
            value = getattr(config, f.name)
            lines.append(f"{f.name} = {', '.join(map(str, value)) if isinstance(value, tuple) else value}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def default_config_text() -> str:
    return format_config(ExperimentConfig())


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


# Replications per task, all at one sample size: the unit of kappa-hat
# reduction and of the block certificate.
_BLOCK_REPS = 25

# What every block of one run shares, set by _install_worker in each pool
# worker (or in this process at workers=1): game, master seed, h_ref and
# the region table, which the worker's blocks grow in turn.
_worker: Optional[tuple[RoutingGame, int, np.ndarray, list[EquilibriumRegion]]] = None


def _install_worker(*shared) -> None:
    """Set _worker to `shared`; with no arguments, clear it."""
    global _worker
    _worker = shared or None


def _run_block(n_samples: int, n_index: int, reps: range) -> list[RepRecord]:
    """Replications `reps` at one sample size, on what `_install_worker`
    set. Each: kappa_hat from its own substream (one `sample_kappa_block`
    call for the block, so an error there fails every replication of it),
    the minimum-norm equilibrium flow h_N under it (`solve_cwe_block` on
    the worker's region table, which grows on each miss), and
    ||h_N - h_ref|| against the minimum-norm reference flow."""
    game, master_seed, h_ref, regions = _worker

    def failed(rep: int, exc: Exception) -> RepRecord:
        return RepRecord(n_samples, rep, math.nan, math.nan, f"fail:{type(exc).__name__}")

    # Errors are recorded per replication and judged in bulk.
    try:
        kappas = sample_kappa_block(game, n_samples, master_seed, [(n_index, rep) for rep in reps])
        solutions = solve_cwe_block(game, kappas, ExperimentConfig.solver, regions)
    except Exception as exc:
        return [failed(rep, exc) for rep in reps]
    records = []
    for rep, sol in zip(reps, solutions):
        if isinstance(sol, Exception):
            records.append(failed(rep, sol))
        else:
            deviation = float(np.linalg.norm(sol.x_star - h_ref))
            records.append(RepRecord(n_samples, rep, deviation, sol.residual, "ok"))
    return records


_RESULTS_HEADER = ("n_samples", "rep", "deviation", "residual", "status")


def read_results_csv(path) -> list[RepRecord]:
    """The replication records of a results.csv that `run_experiment` wrote."""
    rows = read_table(Path(path).read_text(), _RESULTS_HEADER, str(path), (int, int, float, float, str))
    return [RepRecord(*row) for row in rows]


def run_experiment(
    config: ExperimentConfig,
    output_dir,
    workers: int = 1,
    cache_dir=None,
    game: Optional[RoutingGame] = None,
    progress=None,
) -> ExperimentResult:
    """Run the full replication grid and write results.csv, config.cfg
    (`format_config`) and one cdf_{N}.csv per sample size into output_dir.
    The config.cfg and every cdf_*.csv of an earlier run are removed after
    the reference solve, so none describes another run's results and a
    config that the game or the reference refuses leaves them in place.

    The deviation of a replication is the Euclidean distance between the
    minimum-norm equilibrium flow of its sampled game and that of the
    reference game (kappa from config.ref_samples draws).

    Replications run in blocks of _BLOCK_REPS at one sample size, each
    task carrying only (N, its index, the block's replications). The game,
    master seed, h_ref and the region table of the reference solve are
    installed once per process (`_install_worker`): as each pool worker
    starts, or in this process at workers=1. A block certifies its region
    hits as stacked arrays (`solve_cwe_block`) and runs Lemke
    (ExperimentConfig.solver, as the reference solve does) only on a miss,
    which adds its region to the worker's table for its later blocks. A
    table never changes a flow's bits, so output bytes depend only on the
    configuration, never on `workers` (at least 1; 1 runs the grid in this
    process, and a pool starts no more workers than there are blocks).
    `progress(done, total)`, if given, is called once per replication, as
    its block's records arrive, at any worker count.
    Raises RuntimeError when more than 1% of replications fail.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    output_dir = Path(output_dir)
    if cache_dir is None:
        cache_dir = output_dir / "cache"
    if game is None:
        game = build_configured_game(config)

    kappa_ref = true_path_kappa(game, config.ref_samples, config.ref_seed, cache_dir=cache_dir)
    regions: list[EquilibriumRegion] = []
    h_ref = solve_cwe(game, kappa_ref, method=ExperimentConfig.solver, regions=regions).x_star
    output_dir.mkdir(parents=True, exist_ok=True)
    for stale in [output_dir / "config.cfg", *output_dir.glob("cdf_*.csv")]:
        stale.unlink(missing_ok=True)

    reps = config.replications
    tasks = [(n, n_index, range(start, min(start + _BLOCK_REPS, reps)))
             for n_index, n in enumerate(config.sample_sizes)
             for start in range(0, reps, _BLOCK_REPS)]
    shared = (game, config.master_seed, h_ref, regions)
    total = len(config.sample_sizes) * reps
    records = []
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=min(workers, len(tasks)), initializer=_install_worker, initargs=shared))
            outcomes = pool.map(_run_block, *zip(*tasks))
        else:
            stack.callback(_install_worker, *(_worker or ()))  # puts back what was installed
            _install_worker(*shared)
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
    (output_dir / "config.cfg").write_text(format_config(config), newline="\n")
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
    with np.errstate(over="ignore"):  # a huge b_e: M = inf, which exponential_bound_routing refuses by name
        m_lip = float(np.max(np.linalg.norm(a_mat, axis=1)))
    base = game.free_flow_costs
    demand_of_path = game.demands[game.path_set.od_of_path]
    noise_top = game.path_set.edge_incidence.T @ game.noise_hi
    ell = float(base.min())
    big_l = float((base + a_mat @ demand_of_path + noise_top).max())
    return exponential_bound_routing(
        [n for n, _ in game.feasible_flows.blocks], game.alpha, ell, big_l, m_lip, delta, zeta=zeta
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
