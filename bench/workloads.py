"""The benchmark's workloads: one cvarvi pipeline on three inputs.

Every workload runs the same stages on its own routing game:

  set-up     build the game (network, Yen path enumeration, noise supports)
  reference  the reference CVaR offsets kappa_ref, into a fresh cache dir
  grid       replications: kappa-hat from N noise draws, a certified
             equilibrium solve, the deviation from the reference flow
  solves     repeated qp and extragradient solves of a reference game

sioux-experiment  the default config (Sioux Falls, 30 paths, LCP size 33,
                  N in {50, 500, 5000} x 500 replications), cold, workers=1
sioux-parallel    the same config at workers=2, reference filled in set-up
grid-scaling      a 12 x 12 grid, 400 paths, LCP size 404, one Lemke solve
                  per replication at N=500

`run_untraced` gives the end-to-end metrics, `run_traced` the per-layer
ones (spans around the public functions, replications at workers=1).
"""

from __future__ import annotations

import dataclasses
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import cvarvi
from cvarvi import bounds, cvar, harness, lcp, routing, vi

import checks
import gridnet
from speed import BackgroundProbe, MemoryProbe, Meter, SpeedProbe
from tracing import END, START, Summary, Tracer

DEFAULT_SEED = 20240817  # the default config's master_seed

# The grid is one fixed instance, like Sioux Falls: the workload seed moves
# the replication noise streams, not the network, so that every seed does
# the same amount of path enumeration and pivoting.
GRID_NETWORK_SEED = DEFAULT_SEED
GRID_SIDE = 12
GRID_PATHS_PER_OD = 100
GRID_SAMPLES = 500
GRID_BATCH = 8
GRID_REF_SAMPLES = 10**5
CHECK_GRID_SIDE = 6  # the grid-scaling solver cross-check game: 4 x 10 paths
CHECK_GRID_PATHS_PER_OD = 10
REF_SEED = 42

MIN_SOLVES = 20
QP_GROUP = 5  # qp solves per probe sample: one qp solve is about as long as one sample
MAX_SOLVES = 200
SOLVE_RESERVE_S = 1.0
TRACED_SOLVES = 3
PROBE_SIZES = (50, 500, 5000)
PROBE_CALLS = 5
REF_REPEATS = 3  # reference passes per run, each into an empty cache; the median counts
SPLIT_REPS = 50  # replications between speed-probe samples in a workers=1 grid


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


@dataclass
class Unit:
    """One run of a workload's replication grid."""

    wall_s: float  # plain wall time
    scaled_s: float  # wall time at the reference machine speed (see speed.py)
    reps: int
    failed: int
    rep_scaled_s: list[float] = field(default_factory=list)  # per replication, where split
    out_dir: Optional[Path] = None
    result: Optional[harness.ExperimentResult] = None
    parent_cpu_s: float = 0.0
    children_cpu_s: float = 0.0
    children_peak_kb: int = 0


def sioux_config(seed: int) -> harness.ExperimentConfig:
    """The default experiment config with the workload seed as master seed."""
    config = harness.parse_config(harness.default_config_text())
    return dataclasses.replace(config, master_seed=int(seed))


def grid_game(side: int, paths_per_od: int, seed: int) -> routing.RoutingGame:
    return routing.build_game(
        gridnet.grid_network(side, seed),
        gridnet.corner_ods(side, paths_per_od),
        cvar.RiskLevel(0.05),
        uncertain_nodes=gridnet.uncertain_grid_nodes(side, seed),
    )


def _cpu() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _metered_pool(peaks: dict[int, int]):
    """ProcessPoolExecutor that records each worker's peak RSS just before
    the workers are shut down."""

    class MeteredPool(ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            for pid in list(getattr(self, "_processes", None) or {}):
                peaks[pid] = max(peaks.get(pid, 0), _vm_hwm_kb(pid))
            super().shutdown(wait=wait, cancel_futures=cancel_futures)

    return MeteredPool


class Workload:
    name = ""
    workers = 1
    # (builds, builds per probe sample) before and after the timed section
    setup_repeats = ((1, 1), (1, 1))
    repeat_units = False
    reference_in_setup = False
    cold_experiment = False  # experiment_s includes the reference batch

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.probe = SpeedProbe()

    # Stages, overridden per input. --------------------------------------
    def build(self) -> routing.RoutingGame:
        raise NotImplementedError

    def reference(self, game, cache: Path) -> np.ndarray:
        raise NotImplementedError

    def prepare_grid(self, game, kappa_ref) -> None:
        pass

    def grid(self, game, out_dir: Path, cache: Path, workers: int, index: int, meter: Meter) -> Unit:
        """Run grid unit `index`; equal indices repeat equal work. The
        grid splits `meter` between replications where it can and ends
        with a split."""
        raise NotImplementedError

    def check_game(self, game, kappa_ref, cache: Path):
        """The game and offsets that the repeated qp/extragradient solves use."""
        return game, kappa_ref

    def unit_checks(self, game, kappa_ref, unit: Unit) -> list[str]:
        return []

    def bound_result(self, unit: Unit) -> harness.ExperimentResult:
        raise NotImplementedError

    def grid_metrics(self, units: list[Unit]) -> tuple[float, float]:
        """experiment_s and reps_per_s: medians over the run's grids."""
        return (statistics.median(u.scaled_s for u in units),
                statistics.median(u.reps / u.scaled_s for u in units))

    # Shared driving code. ------------------------------------------------
    def _pooled_grid(self, game, out_dir, cache, workers, index, meter: Meter) -> Unit:
        """Run the grid, metering CPU of this process and of pool workers."""
        peaks: dict[int, int] = {}
        saved = harness.ProcessPoolExecutor
        harness.ProcessPoolExecutor = _metered_pool(peaks)
        me0, kids0 = _cpu()
        try:
            unit = self.grid(game, out_dir, cache, workers, index, meter)
        finally:
            harness.ProcessPoolExecutor = saved
        me1, kids1 = _cpu()
        unit.parent_cpu_s = me1 - me0
        unit.children_cpu_s = kids1 - kids0
        unit.children_peak_kb = sum(peaks.values())
        if workers > 1 and not peaks:
            unit.children_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return unit

    def _builds(self, count: int, per_split: int, scaled: list[float]):
        """Build the game `count` times; append the scaled seconds per build
        of each group of `per_split` builds."""
        meter = Meter(self.probe)
        for done in range(0, count, per_split):
            group = min(per_split, count - done)
            for _ in range(group):
                game = self.build()
            scaled.append(meter.split()[1] / group)
        return game

    def _solves(self, game, kappa, deadline: float, out: Outcome) -> dict[str, np.ndarray]:
        """Alternate qp and extragradient solves until the deadline, at
        least MIN_SOLVES of each; report the median of each."""
        times: dict[str, list[float]] = {"qp": [], "extragradient": []}
        flows = {}
        meter = Meter(self.probe)
        while True:
            for method, group in (("qp", QP_GROUP), ("extragradient", 1)):
                for _ in range(group):
                    flows[method] = routing.solve_cwe(game, kappa, method=method).x_star
                times[method].append(meter.split()[1] / group)
            n = len(times["extragradient"])
            if n >= MAX_SOLVES or (n >= MIN_SOLVES and time.perf_counter() >= deadline):
                break
        out.metrics["solve_qp_ms"] = (1e3 * statistics.median(times["qp"]), "ms")
        out.metrics["solve_extragradient_ms"] = (1e3 * statistics.median(times["extragradient"]), "ms")
        out.notes["solves"] = {"qp": QP_GROUP * n, "extragradient": n}
        return flows

    def run_untraced(self, seconds: float, workdir: Path) -> Outcome:
        out = Outcome()
        cache = workdir / "cache"
        builds: list[float] = []
        game = self._builds(*self.setup_repeats[0], builds)

        # The reference batch is one long pass over a large draw matrix, so
        # it is scaled by the memory probe taken before and after it.
        if self.reference_in_setup:
            ref_raw, ref_s = fill_reference_in_child(self.seed, cache)
            start = time.perf_counter()
            kappa_ref = self.reference(game, cache)
        else:
            # The first pass is the cold experiment's; the others follow
            # the timed section.
            start = time.perf_counter()
            kappa_ref, ref_raw, ref_s = reference_passes(self, game, cache, 1)
        deadline = start + seconds

        self.prepare_grid(game, kappa_ref)
        units = []
        while True:
            if self.workers == 1:
                unit = self._pooled_grid(game, workdir / f"grid{len(units)}", cache, 1, len(units),
                                         Meter(self.probe))
            else:
                # The pool keeps both CPUs busy: the probe runs beside it in
                # its own process and scales the grid's wall time as a whole.
                background = BackgroundProbe()
                try:
                    unit = self._pooled_grid(game, workdir / f"grid{len(units)}", cache, self.workers,
                                             len(units), Meter())
                finally:
                    factor = background.stop()
                unit.scaled_s = unit.wall_s / factor
                out.notes.setdefault("pool_slowdowns", []).append(factor)
            units.append(unit)
            out.problems += self.unit_checks(game, kappa_ref, unit)
            if not self.repeat_units:
                break
            # Another unit runs if at least half of it fits before the deadline.
            if time.perf_counter() + unit.wall_s / 2 + SOLVE_RESERVE_S > deadline:
                break
        out.attempted = sum(u.reps for u in units)
        out.failed = sum(u.failed for u in units)
        out.notes["grid_units"] = len(units)
        out.notes["grid_raw_s"] = [u.wall_s for u in units]

        check_game, check_kappa = self.check_game(game, kappa_ref, cache)
        flows = self._solves(check_game, check_kappa, deadline, out)
        flows["lemke"] = routing.solve_cwe(check_game, check_kappa, method="lemke").x_star
        out.problems += checks.check_edge_load_agreement(check_game, flows)
        out.problems += self.reference_checks(game, kappa_ref, check_game, check_kappa)

        parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children_kb = max(u.children_peak_kb for u in units)
        out.metrics["peak_rss_mb"] = ((parent_kb + children_kb) / 1024.0, "MB")
        out.notes["timed_s"] = time.perf_counter() - start
        out.notes["peak_rss_mb_parent_workers"] = [parent_kb / 1024.0, children_kb / 1024.0]

        # More set-ups after the timed section spread the samples over the
        # run, so a short burst of load on the machine moves the median less.
        self._builds(*self.setup_repeats[1], builds)
        out.metrics["setup_s"] = (statistics.median(builds), "s")
        if len(ref_s) < REF_REPEATS:
            _, more_raw, more_s = reference_passes(self, game, cache, REF_REPEATS - 1, first=1)
            ref_raw, ref_s = ref_raw + more_raw, ref_s + more_s
        out.metrics["ref_kappa_s"] = (statistics.median(ref_s), "s")
        out.notes["ref_kappa_raw_s"] = ref_raw
        experiment_s, reps_per_s = self.grid_metrics(units)
        if self.cold_experiment:
            experiment_s += out.metrics["ref_kappa_s"][0]
        out.metrics["experiment_s"] = (experiment_s, "s")
        out.metrics["reps_per_s"] = (reps_per_s, "1/s")
        out.notes["setup_groups"] = len(builds)
        out.notes["slowdown"] = self.probe.slowdown()
        out.notes["probe_samples"] = len(self.probe.samples)
        return out

    def reference_checks(self, game, kappa_ref, check_game, check_kappa) -> list[str]:
        problems = checks.check_reference_kappa(game, kappa_ref, self.ref_samples)
        if check_game is not game:
            problems += checks.check_reference_kappa(check_game, check_kappa, self.ref_samples)
        return problems

    def run_traced(self, workdir: Path, spans_path: Path) -> Outcome:
        out = Outcome()
        cache = workdir / "cache"
        tracer = Tracer()
        modules = [cvarvi, bounds, cvar, harness, lcp, routing, vi]
        tracer.install(modules, trace_targets(tracer))
        try:
            with tracer.span("bench.setup"):
                game = self.build()
            with tracer.span("bench.reference"):
                kappa_ref = self.reference(game, cache)
            with tracer.span("bench.kappa_probe"):
                for n in PROBE_SIZES:
                    for i in range(PROBE_CALLS):
                        routing.sample_path_kappa(game, n, self.seed, 99, n, i)
        finally:
            tracer.uninstall()

        self.prepare_grid(game, kappa_ref)
        check_game, check_kappa = self.check_game(game, kappa_ref, cache)
        pool_unit = None
        if self.workers > 1:
            pool_unit = self._pooled_grid(game, workdir / "grid_pool", cache, self.workers, 0, Meter())
        plain = self._pooled_grid(game, workdir / "grid_plain", cache, 1, 0, Meter())
        pool_unit = pool_unit or plain

        tracer.install(modules, trace_targets(tracer))
        try:
            with tracer.span("bench.grid") as grid_index:
                traced = self.grid(game, workdir / "grid_traced", cache, 1, 0, Meter())
            tracer.rep = None
            with tracer.span("bench.solves"):
                flows = {}
                for method in ("lemke", "qp", "extragradient"):
                    for _ in range(1 if method == "lemke" else TRACED_SOLVES):
                        flows[method] = routing.solve_cwe(check_game, check_kappa, method=method).x_star
            with tracer.span("bench.bounds"):
                harness.compare_bounds(self.bound_result(traced), game)
        finally:
            tracer.uninstall()
        tracer.write(spans_path)

        out.attempted, out.failed = traced.reps, traced.failed
        out.problems += self.unit_checks(game, kappa_ref, traced)
        out.problems += checks.check_edge_load_agreement(check_game, flows)
        out.problems += self.reference_checks(game, kappa_ref, check_game, check_kappa)

        summary = Summary(tracer.spans)
        grid_span = tracer.spans[grid_index]
        traced_wall = grid_span[END] - grid_span[START]
        overhead = traced_wall - plain.wall_s
        self_sum = summary.subtree_self_s(grid_index)
        if abs(self_sum - plain.wall_s) > abs(overhead) + 1e-6:
            out.problems.append(
                f"self times under the grid sum to {self_sum:.6f} s, untraced wall {plain.wall_s:.6f} s, "
                f"tracing overhead {overhead:.6f} s"
            )
        out.metrics = layer_metrics(summary, game, traced, pool_unit, self.workers, grid_index)
        out.metrics["trace.overhead_s"] = (overhead, "s")
        out.metrics["trace.overhead_share"] = (overhead / plain.wall_s, "share")
        out.notes["spans_file"] = str(spans_path)
        return out


class SiouxExperiment(Workload):
    name = "sioux-experiment"
    setup_repeats = ((50, 10), (50, 10))
    cold_experiment = True

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = sioux_config(seed)
        self.ref_samples = self.config.ref_samples

    def build(self):
        return harness.build_configured_game(self.config)

    def reference(self, game, cache):
        return routing.true_path_kappa(game, self.config.ref_samples, self.config.ref_seed, cache_dir=cache)

    def grid(self, game, out_dir, cache, workers, index, meter):
        def progress(done, total):
            # Called after each replication, at workers=1 only.
            if done % SPLIT_REPS == 0 and done < total:
                meter.split()

        try:
            result = harness.run_experiment(self.config, out_dir, workers=workers, cache_dir=cache,
                                            game=game, progress=progress)
        except RuntimeError:
            # More than 1% of replications failed; the CSVs were written.
            result = None
        meter.split()
        rows = checks.read_results(out_dir / "results.csv")
        return Unit(wall_s=meter.raw_s, scaled_s=meter.scaled_s, reps=len(rows),
                    failed=checks.count_failed(rows), out_dir=out_dir, result=result)

    def unit_checks(self, game, kappa_ref, unit):
        problems = checks.check_experiment_csvs(unit.out_dir, self.config.sample_sizes, self.config.replications)
        if unit.result is None:
            problems.append(f"run_experiment reported more than 1% failed replications in {unit.out_dir}")
        return problems

    def bound_result(self, unit):
        return unit.result


class SiouxParallel(SiouxExperiment):
    name = "sioux-parallel"
    workers = 2
    repeat_units = True
    reference_in_setup = True
    cold_experiment = False

    def unit_checks(self, game, kappa_ref, unit):
        problems = super().unit_checks(game, kappa_ref, unit)
        last = self.config.replications - 1
        picks = [(0, 0), (0, last), (1, last // 2), (2, 0), (2, last)]  # (n_index, rep)
        rows = checks.read_results(unit.out_dir / "results.csv")
        return problems + checks.check_recomputed_replications(game, self.config, kappa_ref, rows, picks)


class GridScaling(Workload):
    name = "grid-scaling"
    setup_repeats = ((2, 1), (1, 1))
    repeat_units = True

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ref_samples = GRID_REF_SAMPLES
        self.h_ref = None

    def build(self):
        return grid_game(GRID_SIDE, GRID_PATHS_PER_OD, GRID_NETWORK_SEED)

    def reference(self, game, cache):
        return routing.true_path_kappa(game, GRID_REF_SAMPLES, REF_SEED, cache_dir=cache)

    def prepare_grid(self, game, kappa_ref):
        self.h_ref = routing.solve_cwe(game, kappa_ref, method="lemke").x_star

    def grid(self, game, out_dir, cache, workers, index, meter):
        """GRID_BATCH replications, each with the calls harness makes for
        one replication: kappa-hat, a certified Lemke solve, the deviation."""
        records, rep_scaled = [], []
        for rep in range(index * GRID_BATCH, (index + 1) * GRID_BATCH):
            try:
                kappa_hat = routing.sample_path_kappa(game, GRID_SAMPLES, self.seed, 0, rep)
                sol = routing.solve_cwe(game, kappa_hat, method="lemke")
                dev = float(np.linalg.norm(sol.x_star - self.h_ref))
                records.append(harness.RepRecord(GRID_SAMPLES, rep, dev, sol.residual, "ok"))
            except Exception as exc:  # counted per replication, as harness does
                records.append(harness.RepRecord(GRID_SAMPLES, rep, float("nan"), float("nan"),
                                                 f"fail:{type(exc).__name__}"))
            rep_scaled.append(meter.split()[1])
        failed = sum(1 for r in records if r.status != "ok" or not np.isfinite(r.deviation))
        result = harness.ExperimentResult(
            config=harness.ExperimentConfig(network="generated:grid", sample_sizes=(GRID_SAMPLES,)),
            h_ref=self.h_ref,
            records=records,
        )
        return Unit(wall_s=meter.raw_s, scaled_s=meter.scaled_s, reps=len(records), failed=failed,
                    result=result, rep_scaled_s=rep_scaled)

    def grid_metrics(self, units):
        """From the median replication, so that one replication that runs
        into Lemke's pivot budget (about 40 s, seen about once in 200 at
        this size) is counted in `failed` without swamping the timing."""
        rep_s = statistics.median(t for u in units for t in u.rep_scaled_s)
        return GRID_BATCH * rep_s, 1.0 / rep_s

    def unit_checks(self, game, kappa_ref, unit):
        return [
            f"replication {r.rep} is ok with a non-finite value"
            for r in unit.result.records
            if r.status == "ok" and not (np.isfinite(r.deviation) and np.isfinite(r.residual))
        ]

    def check_game(self, game, kappa_ref, cache):
        small = grid_game(CHECK_GRID_SIDE, CHECK_GRID_PATHS_PER_OD, GRID_NETWORK_SEED)
        return small, routing.true_path_kappa(small, GRID_REF_SAMPLES, REF_SEED, cache_dir=cache)

    def bound_result(self, unit):
        return unit.result


WORKLOADS = {w.name: w for w in (SiouxExperiment, SiouxParallel, GridScaling)}


def fill_reference_in_child(seed: int, cache: Path) -> tuple[list[float], list[float]]:
    """Fill the reference cache in a separate process, so that its draw
    matrix does not count toward this process's peak RSS. Returns the raw
    and scaled seconds of each of REF_REPEATS passes there."""
    run_py = Path(__file__).with_name("run.py")
    proc = subprocess.run(
        [sys.executable, str(run_py), "--fill-reference", str(cache), "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference fill failed:\n{proc.stderr}")
    timing = json.loads(proc.stdout.strip().splitlines()[-1])
    return timing["raw_s"], timing["scaled_s"]


def fill_reference(seed: int, cache: Path) -> dict[str, list[float]]:
    workload = SiouxExperiment(seed)
    _, raw, scaled = reference_passes(workload, workload.build(), cache, REF_REPEATS)
    return {"raw_s": raw, "scaled_s": scaled}


def reference_passes(workload: Workload, game, cache: Path, count: int, first: int = 0):
    """Run the reference `count` times, scaled by the memory probe around
    each pass: pass 0 into `cache`, later ones into empty scratch caches
    beside it, removed afterwards. Returns the last offsets and the raw and
    scaled seconds of each pass."""
    kappa, raw, scaled = None, [], []
    for i in range(first, first + count):
        target = cache if i == 0 else cache.with_name(f"{cache.name}-repeat{i}")
        meter = Meter(MemoryProbe())
        kappa = workload.reference(game, target)
        split = meter.split()
        raw.append(split[0])
        scaled.append(split[1])
        if target != cache:
            shutil.rmtree(target)
    return kappa, raw, scaled


# Tracing. -----------------------------------------------------------------

def trace_targets(tracer: Tracer) -> dict[str, tuple]:
    """Span name -> (function, before, after) for every traced function."""
    uncertain_count: dict[int, int] = {}

    def set_rep(args, kwargs):
        # harness keys each replication's noise stream by (n_index, rep).
        stream_key = args[3:]
        if len(stream_key) == 2:
            tracer.rep = f"{args[1]}:{stream_key[1]}"

    def noise(args, kwargs, result):
        game, n = args[0], args[1]
        if id(game) not in uncertain_count:
            uncertain_count[id(game)] = len(game.uncertain_edges)
        return {"n": n, "noise": n * uncertain_count[id(game)]}

    def values(args, kwargs, result):
        return {"values": len(args[0])}

    def lcp_size(args, kwargs, result):
        return {"size": result.size}

    def lemke_size(args, kwargs, result):
        return {"size": args[0].size}

    def iterations(args, kwargs, result):
        return {"iterations": result.iterations}

    plain = (None, None)
    return {
        "routing.enumerate_paths": (routing.enumerate_paths, *plain),
        "routing.sample_path_kappa": (routing.sample_path_kappa, set_rep, noise),
        "routing.true_path_kappa": (routing.true_path_kappa, *plain),
        "routing.solve_cwe": (routing.solve_cwe, *plain),
        "routing.path_cost_field": (routing.path_cost_field, *plain),
        "routing.wardrop_gap": (routing.wardrop_gap, *plain),
        "cvar.cvar_from_values": (cvar.cvar_from_values, None, values),
        "vi.spectral_norm": (vi.spectral_norm, *plain),
        "vi.extragradient_solve": (vi.extragradient_solve, None, iterations),
        "vi.natural_residual": (vi.natural_residual, *plain),
        "lcp.assemble_lcp": (lcp.assemble_lcp, None, lcp_size),
        "lcp.solve_lcp_lemke": (lcp.solve_lcp_lemke, None, lemke_size),
        "lcp.solve_lcp_qp": (lcp.solve_lcp_qp, *plain),
        "harness.run_experiment": (harness.run_experiment, *plain),
        "harness.compare_bounds": (harness.compare_bounds, *plain),
        "bounds.exponential_bound_routing": (bounds.exponential_bound_routing, *plain),
    }


def layer_metrics(s: Summary, game, traced: Unit, pool_unit: Unit, workers: int,
                  grid_index: int) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}

    def timing(name, *fields):
        for f in fields:
            if f == "s":
                m[f"{name}.s"] = (s.total_s(name), "s")
            elif f == "self_s":
                m[f"{name}.self_s"] = (s.total_self_s(name), "s")
            elif f == "calls":
                m[f"{name}.calls"] = (s.calls(name), "count")

    timing("routing.enumerate_paths", "s")
    m["routing.paths"] = (game.path_set.n_paths, "count")
    timing("routing.sample_path_kappa", "s", "self_s", "calls")
    for n in PROBE_SIZES:
        d = s.durations("routing.sample_path_kappa", lambda e, n=n: e.get("n") == n)
        m[f"routing.sample_path_kappa.n{n}.ms_p50"] = (1e3 * statistics.median(d), "ms")
    m["routing.noise_values"] = (s.extra_sum("routing.sample_path_kappa", "noise"), "count")
    m["routing.noise_bytes"] = (8 * m["routing.noise_values"][0], "bytes")
    timing("routing.true_path_kappa", "s")
    timing("routing.solve_cwe", "s", "self_s", "calls")
    timing("routing.path_cost_field", "s", "calls")
    timing("routing.wardrop_gap", "s")
    timing("cvar.cvar_from_values", "s", "calls")
    m["cvar.cvar_from_values.values"] = (s.extra_sum("cvar.cvar_from_values", "values"), "count")
    timing("vi.spectral_norm", "s", "calls")
    timing("vi.extragradient_solve", "s")
    m["vi.extragradient_solve.iterations"] = (s.extra_sum("vi.extragradient_solve", "iterations"), "count")
    timing("vi.natural_residual", "s")
    timing("lcp.assemble_lcp", "s", "calls")
    timing("lcp.solve_lcp_lemke", "s", "calls")
    m["lcp.solve_lcp_lemke.ms_p50"] = (1e3 * statistics.median(s.durations("lcp.solve_lcp_lemke")), "ms")
    size = int(s.extra_max("lcp.assemble_lcp", "size"))
    m["lcp.size"] = (size, "count")
    m["lcp.tableau_bytes"] = (8 * size * (2 * size + 2), "bytes")
    m["lcp.ray_terminations"] = (s.errors("lcp.solve_lcp_lemke", "LcpRayTermination"), "count")
    timing("lcp.solve_lcp_qp", "s")

    grid_span = s.spans[grid_index]
    m["harness.grid.s"] = (grid_span[END] - grid_span[START], "s")
    inside = [i for i in s.by_name.get("harness.run_experiment", []) if i > grid_index]
    m["harness.grid.self_s"] = (s.self_s[grid_index] + sum(s.self_s[i] for i in inside), "s")
    results_bytes = 0
    if traced.out_dir is not None:
        results_bytes = sum(p.stat().st_size for p in traced.out_dir.glob("*.csv"))
    m["harness.results_bytes"] = (results_bytes, "bytes")
    m["harness.failed"] = (traced.failed, "count")
    workers_cpu = pool_unit.children_cpu_s if workers > 1 else pool_unit.parent_cpu_s
    m["harness.parent_cpu_s"] = (pool_unit.parent_cpu_s, "s")
    m["harness.workers_cpu_s"] = (workers_cpu, "s")
    m["harness.workers_busy_share"] = (workers_cpu / (workers * pool_unit.wall_s), "share")
    timing("harness.compare_bounds", "s")
    timing("bounds.exponential_bound_routing", "s")
    m["trace.spans"] = (len(s.spans), "count")
    return m
