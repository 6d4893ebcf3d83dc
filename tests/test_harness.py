import dataclasses
import io
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvarvi
from cvarvi import cli, harness, lcp
from cvarvi.bounds import exponential_bound_routing
from cvarvi.cvar import RiskLevel, SampleBatch, empirical_cvar_lp
from cvarvi.harness import (
    ConfigError,
    ExperimentConfig,
    RepRecord,
    build_configured_game,
    compare_bounds,
    default_config_text,
    format_config,
    load_config,
    parse_config,
    read_results_csv,
    routing_bound,
    run_experiment,
)
from cvarvi.routing import sample_path_kappa, solve_cwe, true_path_kappa
from cvarvi.tables import fmt, format_table, read_table

RESULTS_HEADER = ("n_samples", "rep", "deviation", "residual", "status")

SMALL_CONFIG = """
network = builtin:siouxfalls
alpha = 0.05
od = 1 19 300 10
od = 13 8 600 10
od = 12 18 200 10
sample_sizes = 50, 200
replications = 200
master_seed = 99
epsilon = 1.0
ref_samples = 100000
ref_seed = 42
"""


@pytest.fixture(scope="module")
def small_config():
    return parse_config(SMALL_CONFIG)


@pytest.fixture(scope="module")
def small_result(small_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    return run_experiment(small_config, out)


@pytest.fixture(scope="module")
def in_process_rows(small_config, small_result):
    """The results.csv rows of the small run, each replication solved
    here by sample_path_kappa and a cold solve_cwe."""
    config = small_config
    game = build_configured_game(config)
    kappa_ref = true_path_kappa(game, config.ref_samples, config.ref_seed,
                                cache_dir=small_result.results_path.parent / "cache")
    h_ref = solve_cwe(game, kappa_ref, config.solver).x_star
    rows = []
    for n_index, n in enumerate(config.sample_sizes):
        for rep in range(config.replications):
            kappa_hat = sample_path_kappa(game, n, config.master_seed, n_index, rep)
            sol = solve_cwe(game, kappa_hat, config.solver)
            deviation = float(np.linalg.norm(sol.x_star - h_ref))
            rows.append([str(n), str(rep), fmt(deviation), fmt(sol.residual), "ok"])
    return rows


class TestConfigParsing:
    def test_default_config_parses(self):
        cfg = parse_config(default_config_text())
        assert cfg.sample_sizes == (50, 500, 5000)
        assert cfg.replications == 500
        assert cfg.ods == ((1, 19, 300.0, 10), (13, 8, 600.0, 10), (12, 18, 200.0, 10))
        assert cfg.alpha == 0.05

    def test_comments_and_spacing(self):
        cfg = parse_config("alpha = 0.1  # trailing comment\nod = 1 2 5 1\nreplications=200\n")
        assert cfg.alpha == 0.1
        assert cfg.ods == ((1, 2, 5.0, 1),)

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("alpha = 0.1\nbogus = 3\n")

    def test_bad_od_arity(self):
        with pytest.raises(ConfigError, match="od takes"):
            parse_config("od = 1 2 5\n")

    def test_too_few_replications(self):
        with pytest.raises(ConfigError, match="200 replications"):
            parse_config("replications = 10\nod = 1 2 5 1\n")

    def test_duplicate_sample_sizes(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(sample_sizes=(50, 50))

    @pytest.mark.parametrize("value", ["foo", "lemke", "qp"])
    def test_solver_key_refused(self, value):
        # Every run solves its misses with lemke; an older config.cfg names the key.
        with pytest.raises(ConfigError, match="^line 2: the solver key was removed: "
                                              "every run solves its misses with lemke$"):
            parse_config(f"od = 1 2 5 1\nsolver = {value}\n")
        assert ExperimentConfig.solver == "lemke"
        assert "solver" not in {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_default_file_is_the_dataclass_default(self):
        cfg = parse_config(default_config_text())
        assert cfg == ExperimentConfig()
        for f in dataclasses.fields(ExperimentConfig):
            assert type(getattr(cfg, f.name)) is type(f.default), f.name

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match="line 3: key 'alpha' given twice"):
            parse_config("alpha = 0.1\nod = 1 2 5 1\nalpha = 0.2\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["epsilon", "b_e", "noise_scale"])
    def test_non_finite_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be finite, got {value}$"):
            parse_config(f"{key} = {value}\nod = 1 2 5 1\n")

    @pytest.mark.parametrize("key", ["master_seed", "ref_seed"])
    def test_negative_seed_rejected(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must be non-negative, got -5$"):
            parse_config(f"{key} = -5\nod = 1 2 5 1\n")

    @pytest.mark.parametrize("key", ["zeta", "ods"])
    def test_key_without_a_config_field_rejected(self, key):
        with pytest.raises(ConfigError, match=f"line 1: unknown key '{key}'"):
            parse_config(f"{key} = 0.05\nod = 1 2 5 1\n")

    @settings(max_examples=200, deadline=None)
    @given(config=st.builds(
        ExperimentConfig,
        # A text value as parse_config leaves it: stripped, one line, no comment.
        network=st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="#"), max_size=20)
        .filter(lambda s: s == s.strip() and len(s.splitlines()) <= 1),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        b_e=st.floats(allow_nan=False, allow_infinity=False),
        uncertain_nodes=st.lists(st.integers()).map(tuple),
        noise_scale=st.floats(allow_nan=False, allow_infinity=False),
        ods=st.lists(st.tuples(st.integers(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                               st.integers()), min_size=1).map(tuple),
        sample_sizes=st.lists(st.integers(min_value=1), min_size=1, unique=True).map(tuple),
        replications=st.integers(min_value=200),
        master_seed=st.integers(min_value=0),
        epsilon=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        ref_samples=st.integers(),
        ref_seed=st.integers(min_value=0),
    ))
    def test_format_config_round_trips(self, config):
        text = format_config(config)
        assert parse_config(text) == config
        assert format_config(parse_config(text)) == text  # the float bits, -0.0 included

    @pytest.mark.parametrize("network", ["/tmp/a#b/net.tntp", "net.tntp\nalpha = 0.5", "a\rb", " net.tntp",
                                         "net.tntp\t", "net.tntp\u2028"])
    def test_network_that_would_not_read_back_rejected(self, network):
        # config.cfg writes network verbatim; parse_config cuts at '#', splits lines and strips.
        with pytest.raises(ConfigError, match=f"^network {re.escape(repr(network))} would not read back"):
            ExperimentConfig(network=network)

    def test_readme_default_block_is_the_dataclass_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Config format", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config(block) == ExperimentConfig()


class TestExperiment:
    def test_outputs_exist(self, small_config, small_result):
        assert small_result.results_path.exists()
        for n in small_config.sample_sizes:
            assert small_result.cdf_paths[n].exists()

    def test_config_file_is_the_config_run(self, small_config, small_result):
        path = small_result.results_path.parent / "config.cfg"
        assert path.read_text() == format_config(small_config)
        assert load_config(path) == small_config

    def test_stale_config_file_removed_before_the_grid(self, small_config, small_result, tmp_path,
                                                       monkeypatch):
        (tmp_path / "config.cfg").write_text("replications = 900\n")

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "_run_block", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(small_config, tmp_path, cache_dir=small_result.results_path.parent / "cache")
        assert not (tmp_path / "config.cfg").exists()

    def test_stale_cdf_tables_removed_before_the_grid(self, small_config, small_result, tmp_path):
        # A run at N = 50 into the directory of a run at N = 50 and 200
        # leaves only its own table.
        cache = small_result.results_path.parent / "cache"
        run_experiment(small_config, tmp_path, cache_dir=cache)
        assert sorted(p.name for p in tmp_path.glob("cdf_*.csv")) == ["cdf_200.csv", "cdf_50.csv"]
        again = run_experiment(dataclasses.replace(small_config, sample_sizes=(50,)), tmp_path, cache_dir=cache)
        assert sorted(p.name for p in tmp_path.glob("cdf_*.csv")) == ["cdf_50.csv"]
        assert again.cdf_paths[50].read_bytes() == small_result.cdf_paths[50].read_bytes()

    @pytest.mark.parametrize("change, error", [
        ({"ref_samples": 1000}, "at least 1e5 samples"),
        ({"b_e": -1.0}, "b_e must be finite and nonnegative"),
        ({"uncertain_nodes": (99,)}, "outside the node range"),
    ])
    def test_rejected_config_keeps_the_earlier_run(self, small_config, small_result, tmp_path, change, error):
        # The game build or the reference refuses the config before any
        # file of the earlier run is removed, so `compare` can still read it.
        shutil.copytree(small_result.results_path.parent, tmp_path, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("cache"))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert {"results.csv", "config.cfg", "cdf_50.csv", "cdf_200.csv"} <= set(before)
        with pytest.raises(ValueError, match=error):
            run_experiment(dataclasses.replace(small_config, **change), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.fixture
    def installed(self, small_config, small_result):
        """The small run's game, master seed, h_ref and an empty table,
        installed as a worker's."""
        harness._install_worker(build_configured_game(small_config), small_config.master_seed,
                                small_result.h_ref, [])
        yield
        harness._install_worker()

    def test_kappa_error_fails_every_replication_of_its_block(self, installed):
        # kappa-hat of a block is one call; N = 0 makes it raise.
        records = harness._run_block(0, 0, range(3, 6))
        assert [(r.rep, r.status) for r in records] == [(rep, "fail:ValueError") for rep in range(3, 6)]
        assert all(math.isnan(r.deviation) and math.isnan(r.residual) for r in records)

    def test_nan_kappa_fails_only_its_replication(self, small_config, small_result, installed,
                                                  monkeypatch):
        block = harness.sample_kappa_block

        def one_nan_row(*args):
            kappas = block(*args)
            kappas[1, 0] = np.nan
            return kappas

        monkeypatch.setattr(harness, "sample_kappa_block", one_nan_row)
        records = harness._run_block(50, 0, range(0, 4))
        assert [r.status for r in records] == ["ok", "fail:ValueError", "ok", "ok"]
        want = {(r.rep, r.deviation, r.residual) for r in small_result.records if r.n_samples == 50}
        assert all((r.rep, r.deviation, r.residual) in want for r in records if r.status == "ok")

    def test_default_grid_runs_lemke_twice(self, tmp_path, monkeypatch):
        # The reference solve and the grid's one miss, measured before the
        # block certificate; a silent fall-back to cold solves raises it.
        calls = []
        lemke = lcp.solve_lcp_lemke
        monkeypatch.setattr(lcp, "solve_lcp_lemke", lambda *args: calls.append(1) or lemke(*args))
        result = run_experiment(ExperimentConfig(), tmp_path, workers=1)
        assert len(calls) == 2 and result.failure_fraction() == 0.0

    def test_pool_tasks_carry_only_their_block(self, small_config, small_result, tmp_path, monkeypatch):
        # Game, h_ref and table go to each worker once, at start-up.
        seen = {}

        class RecordingPool(harness.ProcessPoolExecutor):
            def __init__(self, **kwargs):
                seen["kwargs"] = kwargs
                super().__init__(**kwargs)

            def map(self, fn, *iterables, **kwargs):
                seen["tasks"] = list(zip(*iterables))
                return super().map(fn, *zip(*seen["tasks"]), **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        again = run_experiment(small_config, tmp_path, workers=2,
                               cache_dir=small_result.results_path.parent / "cache")
        assert seen["kwargs"]["initializer"] is harness._install_worker
        assert seen["kwargs"]["max_workers"] == 2
        game, seed, h_ref, regions = seen["kwargs"]["initargs"]
        assert (seed, len(regions)) == (small_config.master_seed, 1)
        assert seen["tasks"][:2] == [(50, 0, range(0, 25)), (50, 0, range(25, 50))]
        assert len(seen["tasks"]) == 16
        assert again.results_path.read_bytes() == small_result.results_path.read_bytes()

    def test_pool_starts_no_more_workers_than_tasks(self, small_config, small_result, tmp_path, monkeypatch):
        # A stand-in pool that records max_workers and runs the blocks here,
        # so a huge worker count starts no process.
        seen = {}

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                seen["max_workers"] = max_workers
                self.initializer, self.initargs = initializer, initargs

            def __enter__(self):
                self.installed = harness._worker
                self.initializer(*self.initargs)
                return self

            def __exit__(self, *exc_info):
                harness._install_worker(*(self.installed or ()))

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        again = run_experiment(small_config, tmp_path, workers=10**6,
                               cache_dir=small_result.results_path.parent / "cache")
        assert seen["max_workers"] == 16  # 2 sample sizes x 8 blocks of 25 replications
        assert again.results_path.read_bytes() == small_result.results_path.read_bytes()

    def test_results_schema(self, small_config, small_result):
        lines = small_result.results_path.read_text().splitlines()
        assert lines[0] == "n_samples,rep,deviation,residual,status"
        assert len(lines) == 1 + len(small_config.sample_sizes) * small_config.replications
        n, rep, dev, res, status = lines[1].split(",")
        assert (int(n), int(rep), status) == (50, 0, "ok")
        assert float(dev) >= 0 and float(res) >= 0

    def test_cdf_schema(self, small_config, small_result):
        for n in small_config.sample_sizes:
            lines = small_result.cdf_paths[n].read_text().splitlines()
            assert lines[0] == "deviation,probability"
            devs = [float(l.split(",")[0]) for l in lines[1:]]
            probs = [float(l.split(",")[1]) for l in lines[1:]]
            assert devs == sorted(devs)
            assert probs[-1] == pytest.approx(1.0)
            assert all(p2 > p1 for p1, p2 in zip(probs, probs[1:]))

    def test_no_failures(self, small_result):
        assert small_result.failure_fraction() == 0.0
        assert small_result.healthy

    def test_deviation_improves_with_n(self, small_result):
        assert np.median(small_result.deviations(200)) < np.median(small_result.deviations(50))

    def test_byte_identical_rerun(self, small_config, small_result, tmp_path):
        calls = []
        again = run_experiment(
            small_config, tmp_path, workers=2,
            cache_dir=small_result.results_path.parent / "cache",
            progress=lambda done, total: calls.append((done, total)),
        )
        total = len(small_config.sample_sizes) * small_config.replications
        assert calls == [(done, total) for done in range(1, total + 1)]
        assert again.results_path.read_bytes() == small_result.results_path.read_bytes()
        for n in small_config.sample_sizes:
            assert again.cdf_paths[n].read_bytes() == small_result.cdf_paths[n].read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_in_process_solves(self, small_config, small_result, in_process_rows, tmp_path,
                                          workers):
        # A replication's row is the same whether its flow came from a
        # region of the table or from a cold solve_cwe.
        result = small_result
        if workers > 1:
            result = run_experiment(small_config, tmp_path, workers=workers,
                                    cache_dir=small_result.results_path.parent / "cache")
        assert read_table(result.results_path.read_text(), RESULTS_HEADER, "results.csv") == in_process_rows

    def test_block_size_leaves_the_bytes(self, small_config, small_result, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_BLOCK_REPS", 7)
        again = run_experiment(small_config, tmp_path, cache_dir=small_result.results_path.parent / "cache")
        assert again.results_path.read_bytes() == small_result.results_path.read_bytes()
        for n in small_config.sample_sizes:
            assert again.cdf_paths[n].read_bytes() == small_result.cdf_paths[n].read_bytes()

    def test_zero_demand_od_gives_finite_deviations(self, tmp_path):
        # ODs (1, 19) at demand 0 and (13, 8) at 600; N = 50 only.
        config = parse_config(SMALL_CONFIG.replace("od = 1 19 300 10", "od = 1 19 0 10")
                              .replace("od = 12 18 200 10\n", "").replace("50, 200", "50"))
        result = run_experiment(config, tmp_path)
        assert [r.status for r in result.records] == ["ok"] * config.replications
        assert np.isfinite(result.deviations(50)).all() and result.healthy

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_rejected(self, small_config, tmp_path, workers):
        with pytest.raises(ValueError, match=f"need at least one worker, got {workers}"):
            run_experiment(small_config, tmp_path / "out", workers=workers)
        assert not (tmp_path / "out").exists()


class TestResultsCsv:
    def test_write_read_round_trip(self, tmp_path):
        records = [
            RepRecord(50, 0, 2.5403140903409512, 1.2e-13, "ok"),
            RepRecord(50, 1, math.nan, math.nan, "fail:LcpRayTermination"),
            RepRecord(5000, 7, 0.1, 0.0, "ok"),
        ]
        def write(path, records):
            rows = [dataclasses.astuple(r) for r in records]
            path.write_text(format_table(RESULTS_HEADER, rows), newline="\n")

        path = tmp_path / "results.csv"
        write(path, records)
        back = read_results_csv(path)
        assert [(r.n_samples, r.rep, r.status) for r in back] == [
            (r.n_samples, r.rep, r.status) for r in records
        ]
        assert back[0].deviation == records[0].deviation and back[2].residual == 0.0
        assert math.isnan(back[1].deviation) and math.isnan(back[1].residual)
        write(tmp_path / "again.csv", back)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_rejects_other_tables(self, tmp_path):
        path = tmp_path / "cdf_50.csv"
        path.write_text("deviation,probability\n0.5,1\n")
        expected = f"{path}, line 1: expected the header 'n_samples,rep,deviation,residual,status', "
        with pytest.raises(ValueError, match=re.escape(expected + "got 'deviation,probability'")):
            read_results_csv(path)

    def test_rejects_a_short_row(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("n_samples,rep,deviation,residual,status\n50,0,0.5,0,ok\n\n50,1,0.5,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 4: expected 5 cells, got 4")):
            read_results_csv(path)

    def test_experiment_tables_read_back(self, small_config, small_result):
        assert read_results_csv(small_result.results_path) == small_result.records
        for n in small_config.sample_sizes:
            path = small_result.cdf_paths[n]
            rows = read_table(path.read_text(), ("deviation", "probability"), str(path))
            devs = np.sort(small_result.deviations(n))
            assert [float(d) for d, _ in rows] == devs.tolist()
            assert [float(p) for _, p in rows] == [k / len(devs) for k in range(1, len(devs) + 1)]

    def test_stdout_tables_read_back(self, small_result, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_CONFIG)
        out_dir = str(small_result.results_path.parent)
        monkeypatch.setattr(sys, "stdin", io.StringIO("value\n1\n\n2\n3\n4\n"))
        commands = [
            (["estimate", "-", "--alpha", "0.5"], ("cvar", "t_star"), 1),
            (["solve", "--config", str(cfg), "--n-samples", "200"], ("path", "od", "flow", "cost"), 30),
            (["bounds", "routing", "--config", str(cfg)],
             ("formula", "gamma", "ln_gamma", "beta", "n_samples"), 1),
            (["compare", "--output-dir", out_dir],
             ("n_samples", "empirical_freq", "bound", "consistent"), 2),
        ]
        for argv, header, n_rows in commands:
            assert cli.main(argv) == 0
            rows = read_table(capsys.readouterr().out, header, argv[0])
            assert len(rows) == n_rows
        assert [row[3] for row in rows] == ["true", "true"]


class TestBoundComparison:
    def test_inputs_are_sane(self, small_config, monkeypatch):
        seen = []

        def capture(path_counts, alpha, ell, big_l, m_lip, delta, zeta=None):
            seen.append(dict(path_counts=path_counts, ell=ell, big_l=big_l, m_lip=m_lip))
            return exponential_bound_routing(path_counts, alpha, ell, big_l, m_lip, delta, zeta)

        monkeypatch.setattr(harness, "exponential_bound_routing", capture)
        routing_bound(build_configured_game(small_config), 1.0)
        (inputs,) = seen
        assert sum(inputs["path_counts"]) == 30
        assert inputs["ell"] < inputs["big_l"]
        assert inputs["m_lip"] > 0
        assert list(inputs["path_counts"]) == [10, 10, 10]

    def test_compare_consistent(self, small_config, small_result):
        rows = compare_bounds(small_result)
        assert [r.n_samples for r in rows] == list(small_config.sample_sizes)
        for row in rows:
            assert 0.0 <= row.empirical_freq <= 1.0
            assert 0.0 < row.bound_value <= 1.0
            assert row.consistent


    def test_compare_on_an_uncongested_game(self, tmp_path):
        # b_e = 0: the cost matrix is zero, so M = 0 and each OD's factor of gamma is 1.
        config = parse_config("b_e = 0\nreplications = 200\nsample_sizes = 50\nref_samples = 100000\n")
        result = run_experiment(config, tmp_path)
        assert result.failure_fraction() == 0.0
        (row,) = compare_bounds(result)
        assert row.report.gamma_exact == 6 * 30
        assert row.bound_value == 1.0
        assert row.consistent


def child_env(**extra):
    """This process's environment with the directory it imported cvarvi
    from first on PYTHONPATH, so a child runs the package under test from
    any cwd, installed or not."""
    src_dir = str(Path(cvarvi.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, **extra}


class TestCli:
    def run_cli(self, *args, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "cvarvi.cli", *args],
            capture_output=True, text=True, input=stdin, env=child_env(),
        )

    def test_estimate_stdin(self):
        proc = self.run_cli("estimate", "-", "--alpha", "0.5", stdin="value\n1\n2\n3\n4\n")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "cvar,t_star"
        assert proc.stdout.splitlines()[1].startswith("3.5,")

    def test_estimate_lp(self):
        text = "value\n1\n2\n3\n4\n"
        proc = self.run_cli("estimate", "-", "--alpha", "0.5", "--method", "lp", stdin=text)
        assert proc.returncode == 0
        # The LP's t* is a vertex of the optimizer interval [2, 3], where
        # the order-statistic route reports its left end, 2.
        est = empirical_cvar_lp(SampleBatch(values=[1, 2, 3, 4]), RiskLevel(0.5))
        assert proc.stdout.splitlines()[1] == f"{est.value:.17g},{est.t_star:.17g}"
        assert est.value == pytest.approx(3.5, abs=1e-10)

    def test_estimate_bad_alpha(self):
        proc = self.run_cli("estimate", "-", "--alpha", "1.5", stdin="value\n1\n")
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_estimate_names_the_line_of_a_malformed_number(self):
        proc = self.run_cli("estimate", "-", "--alpha", "0.5", stdin="value\n1\nabc\n")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: stdin, line 3: could not convert string to float: 'abc'\n"

    def test_usage_error(self):
        proc = self.run_cli("frobnicate")
        assert proc.returncode == 2

    def test_bounds_separable(self):
        proc = self.run_cli(
            "bounds", "separable", "--n", "1", "--alpha", "0.05",
            "--f-max", "1", "--g-rge", "1", "--delta", "1",
        )
        assert proc.returncode == 0
        header, row = proc.stdout.splitlines()
        assert header == "formula,gamma,ln_gamma,beta,n_samples"
        assert row.split(",")[0] == "separable"
        assert float(row.split(",")[1]) == pytest.approx(6.0)

    def test_bounds_routing_on_an_uncongested_config(self, tmp_path, capsys):
        (tmp_path / "free.cfg").write_text("b_e = 0\n")
        assert cli.main(["bounds", "routing", "--config", str(tmp_path / "free.cfg")]) == 0
        ((formula, gamma, _, _, n_samples),) = read_table(
            capsys.readouterr().out, ("formula", "gamma", "ln_gamma", "beta", "n_samples"), "stdout")
        assert (formula, gamma, n_samples) == ("routing", "180", "51937580")

    def test_bounds_general_zero_lipschitz_constant_is_an_error(self):
        proc = self.run_cli(
            "bounds", "general", "--n", "1", "--alpha", "0.5", "--ell", "0",
            "--big-l", "1", "--m", "0", "--diam", "1", "--delta", "0.1",
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: Lipschitz constant M must be finite and positive, got 0.0\n"

    def test_bounds_empty_cost_range_is_an_error(self):
        proc = self.run_cli(
            "bounds", "general", "--n", "1", "--alpha", "0.5", "--ell", "1",
            "--big-l", "1", "--m", "1", "--diam", "1", "--delta", "0.1",
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: cost range [1.0, 1.0] is inverted or empty: need ell < L\n"

    @pytest.mark.parametrize("args, message", [
        (["separable", "--n", "1", "--alpha", "0.05", "--f-max", "1", "--g-rge", "inf", "--delta", "0.1"],
         "separable bound needs finite positive f_max and g_rge, got 1.0 and inf"),
        (["general", "--n", "1", "--alpha", "0.5", "--ell", "0", "--big-l", "inf", "--m", "1",
          "--diam", "1", "--delta", "0.1"], "cost range [0.0, inf] must be finite"),
    ], ids=["separable-infinite-g-rge", "general-infinite-big-l"])
    def test_bounds_infinite_input_is_an_error(self, args, message):
        # beta would be 0, and the sample size N(zeta) would divide by it.
        proc = self.run_cli("bounds", *args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("args, message", [
        (["general", "--n", "1", "--alpha", "0.5", "--ell", "0", "--big-l", "1e200", "--m", "1", "--diam", "1",
          "--delta", "0.1"], r"no finite N brings gamma exp\(-beta N\) below 1: ln gamma = \S+, beta = 0.0"),
        (["separable", "--n", "1", "--alpha", "0.5", "--f-max", "1", "--g-rge", "1", "--delta", "1e-200"],
         r"no finite N brings gamma exp\(-beta N\) below 1: ln gamma = \S+, beta = 0.0"),
        (["separable", "--n", "1", "--alpha", "0.5", "--f-max", "1", "--g-rge", "1", "--delta", "1e-158"],
         r"no finite N brings gamma exp\(-beta N\) below 1: ln gamma = \S+, beta = 4.5\d*e-318"),
        (["general", "--n", "1" + "0" * 400, "--alpha", "0.5", "--ell", "0", "--big-l", "1", "--m", "1",
          "--diam", "1", "--delta", "0.1"], r"decision dimension must be positive and at most 2\^53, got 10{400}"),
        (["general", "--n", "1", "--alpha", "0.5", "--ell", "0", "--big-l", "1", "--m", "1e-320", "--diam", "1e-5",
          "--delta", "1e-6"], r"12 M diam / \(delta alpha\) underflows to 0 at M = 1e-320, diam = 1e-05"),
    ], ids=["general-range-squared-overflows", "separable-rate-underflows", "separable-rate-overflows-n",
            "general-n-beyond-doubles", "general-gamma-base-underflows"])
    def test_bounds_beyond_the_double_range_is_an_error(self, args, message, capsys):
        # Each printed an OverflowError or ZeroDivisionError traceback.
        assert cli.main(["bounds", *args]) == 1
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(f"error: {message}\n", err)

    @pytest.mark.parametrize("epsilon, commands", [("1e-200", ["bounds", "compare"]), ("2e-149", ["compare"])])
    def test_epsilon_whose_rate_underflows_is_an_error(self, epsilon, commands, small_result, tmp_path, capsys):
        # beta underflows to 0 at 1e-200; at 2e-149 ln gamma / beta overflows,
        # where compare's "below 1 from N" line took the floor of inf.
        run = small_result.results_path.parent
        (tmp_path / "results.csv").write_bytes(small_result.results_path.read_bytes())
        config_text = (run / "config.cfg").read_text()
        assert "\nepsilon = 1.0\n" in config_text
        (tmp_path / "config.cfg").write_text(config_text.replace("\nepsilon = 1.0\n", f"\nepsilon = {epsilon}\n"))
        argv = {"bounds": ["bounds", "routing", "--config", str(tmp_path / "config.cfg")],
                "compare": ["compare", "--output-dir", str(tmp_path)]}
        for command in commands:
            assert cli.main(argv[command]) == 1
            out, err = capsys.readouterr()
            assert out == "" and re.fullmatch(r"error: no finite N brings gamma exp\(-beta N\) below 1: "
                                              r"ln gamma = \S+, beta = \S+\n", err)

    def test_routing_bound_of_a_huge_b_e_is_a_named_error(self, small_result, tmp_path):
        # Squaring A's rows overflowed: numpy's RuntimeWarning came first (or,
        # under this suite's warning filter, in place of the ValueError).
        message = "Lipschitz constant M must be finite and nonnegative, got inf"
        config_text = (small_result.results_path.parent / "config.cfg").read_text()
        assert "\nb_e = 100.0\n" in config_text
        config = parse_config(config_text.replace("\nb_e = 100.0\n", "\nb_e = 1e300\n"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            routing_bound(build_configured_game(config), 1.0)
        (tmp_path / "results.csv").write_bytes(small_result.results_path.read_bytes())
        (tmp_path / "config.cfg").write_text(format_config(config))
        for args in (["bounds", "routing", "--config", str(tmp_path / "config.cfg")],
                     ["compare", "--output-dir", str(tmp_path)]):
            proc = self.run_cli(*args)
            assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")

    def test_bounds_sigma_epsilon_gives_delta(self, capsys):
        flags = ["bounds", "separable", "--n", "1", "--alpha", "0.05",
                 "--f-max", "1", "--g-rge", "1"]
        assert cli.main(flags + ["--sigma", "2", "--epsilon", "0.05"]) == 0
        derived = capsys.readouterr().out
        assert cli.main(flags + ["--delta", "0.1"]) == 0
        assert derived == capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["separable", "--n", "1", "--alpha", "0.05", "--f-max", "1", "--delta", "1"],
         "required: --g-rge"),
        (["general", "--n", "1", "--alpha", "0.5", "--ell", "0", "--big-l", "1",
          "--m", "1", "--diam", "1", "--sigma", "2"], "give --delta, or --sigma with --epsilon"),
        (["separable", "--n", "1", "--alpha", "0.05", "--f-max", "1", "--g-rge", "1",
          "--delta", "1", "--ell", "0", "--big-l", "1"], "unrecognized arguments: --ell 0 --big-l 1"),
        (["routing", "--n", "5"], "unrecognized arguments: --n 5"),
        (["routing", "--sigma", "2"], "unrecognized arguments: --sigma 2"),
        (["routing", "--delta", "0.5", "--epsilon", "1"], "--epsilon: not allowed with argument --delta"),
    ], ids=["separable-without-g-rge", "general-sigma-without-epsilon", "separable-with-ell-big-l",
            "routing-with-n", "routing-with-sigma", "routing-delta-and-epsilon"])
    def test_bounds_usage_errors(self, flags, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["bounds", *flags])
        assert exit_info.value.code == 2
        assert re.search(message, capsys.readouterr().err)

    def test_bounds_formula_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["bounds", "--formula", "routing"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --formula" in capsys.readouterr().err

    @pytest.mark.parametrize("formula, flags", [
        ("general", "--n --alpha --ell --big-l --m --diam --delta --sigma --epsilon --zeta"),
        ("separable", "--n --alpha --f-max --g-rge --delta --sigma --epsilon --zeta"),
        ("routing", "--config --delta --epsilon --zeta"),
    ], ids=["general", "separable", "routing"])
    def test_bounds_help_lists_the_formula_flags(self, formula, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["bounds", formula, "--help"])
        assert exit_info.value.code == 0
        listed = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.MULTILINE)
        assert sorted(listed) == sorted(flags.split())

    @pytest.mark.parametrize("argv, flag", [
        (["solve", "--seed", "-1", "--n-samples", "50"], "--seed"),
        (["solve", "--n-samples", "0"], "--n-samples"),
        (["experiment", "--jobs", "0"], "--jobs"),
    ], ids=["seed", "n-samples", "jobs"])
    def test_bad_seed_or_count_is_a_usage_error_naming_the_flag(self, argv, flag, tmp_path,
                                                                monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # where a run that got past the parser would write
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert f"argument {flag}: expected an integer >= " in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--n-samples", "50"), ("--seed", "3")])
    def test_reference_kappa_with_a_sampling_flag_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["solve", "--kappa", "reference", flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: not allowed with --kappa reference" in capsys.readouterr().err

    def test_solve_defaults_and_reference_kappa(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_CONFIG)
        assert cli.main(["solve", "--config", str(cfg)]) == 0
        default = capsys.readouterr().out
        assert cli.main(["solve", "--config", str(cfg), "--n-samples", "5000", "--seed", "0"]) == 0
        assert capsys.readouterr().out == default
        assert cli.main(["solve", "--config", str(cfg), "--kappa", "reference"]) == 0
        assert len(read_table(capsys.readouterr().out, ("path", "od", "flow", "cost"), "stdout")) == 30

    def test_solve_on_a_tntp_file_network(self, tmp_path, capsys):
        # A copy of the shipped file, named by path, gives the builtin game's stdout.
        net_path = tmp_path / "net.tntp"
        shutil.copyfile(Path(cvarvi.__file__).parent / "data" / "siouxfalls_net.tntp", net_path)
        builtin_cfg, file_cfg = tmp_path / "builtin.cfg", tmp_path / "file.cfg"
        builtin_cfg.write_text(SMALL_CONFIG)
        file_cfg.write_text(SMALL_CONFIG.replace("builtin:siouxfalls", str(net_path)))
        assert cli.main(["solve", "--config", str(builtin_cfg)]) == 0
        builtin = capsys.readouterr().out
        assert cli.main(["solve", "--config", str(file_cfg)]) == 0
        assert capsys.readouterr().out == builtin

    def test_solve_on_a_missing_tntp_file_names_it(self, tmp_path, capsys):
        missing = tmp_path / "missing.tntp"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_CONFIG.replace("builtin:siouxfalls", str(missing)))
        assert cli.main(["solve", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and str(missing) in captured.err

    @pytest.mark.parametrize("line, message", [("b_e = -1", "b_e must be finite and nonnegative, got -1.0"),
                                               ("noise_scale = -0.5",
                                                "noise_scale must be finite and nonnegative, got -0.5")],
                             ids=["b_e", "noise_scale"])
    def test_solve_names_a_negative_game_parameter(self, line, message, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_CONFIG + line + "\n")
        assert cli.main(["solve", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_output_dir_env(self, small_config, small_result, tmp_path, monkeypatch):
        # The child's cwd holds no ./cvarvi_out, so only the variable can
        # point it at the results.
        proc = subprocess.run(
            [sys.executable, "-m", "cvarvi.cli", "compare"],
            capture_output=True, text=True, cwd=tmp_path,
            env=child_env(CVARVI_OUTPUT_DIR=str(small_result.results_path.parent)),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "n_samples,empirical_freq,bound,consistent"

    def test_compare_reports_vacuous_bound(self, small_config, small_result):
        proc = self.run_cli("compare", "--output-dir", str(small_result.results_path.parent))
        assert proc.returncode == 0
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        assert [row[2] for row in rows] == ["1", "1"]
        report = routing_bound(build_configured_game(small_config), small_config.epsilon)
        n_min = math.floor(report.ln_gamma / report.beta) + 1
        assert report.ln_gamma - report.beta * n_min < 0 <= report.ln_gamma - report.beta * (n_min - 1)
        assert proc.stderr.splitlines() == [
            "the bound is vacuous (1) at N = 50, 200",
            f"the bound is below 1 from N = {n_min} "
            f"(ln gamma = {report.ln_gamma:.4g}, beta = {report.beta:.4g})",
        ]

    def test_compare_without_a_config_file_names_it(self, small_result, tmp_path, capsys):
        (tmp_path / "results.csv").write_bytes(small_result.results_path.read_bytes())
        assert cli.main(["compare", "--output-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no config at {tmp_path / 'config.cfg'}; run `cvarvi experiment` first\n"

    def test_compare_names_the_line_of_a_malformed_number(self, small_result, tmp_path, capsys):
        run = small_result.results_path.parent
        lines = run.joinpath("results.csv").read_text().splitlines(keepends=True)
        cells = lines[3].split(",")
        lines[3] = ",".join(cells[:2] + ["x1"] + cells[3:])
        (tmp_path / "results.csv").write_text("".join(lines))
        (tmp_path / "config.cfg").write_bytes(run.joinpath("config.cfg").read_bytes())
        assert cli.main(["compare", "--output-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path / 'results.csv'}, line 4: could not convert string to float: 'x1'\n"

    def test_compare_config_flag_is_gone(self, small_result, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["compare", "--config", "c.cfg", "--output-dir", str(small_result.results_path.parent)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --config c.cfg" in capsys.readouterr().err

    def test_compare_reads_the_config_of_its_run(self, tmp_path, capsys):
        # Not the default sizes, epsilon or alpha: each would change the table or the bound.
        text = SMALL_CONFIG.replace("epsilon = 1.0", "epsilon = 3.0").replace("alpha = 0.05", "alpha = 0.2")
        config = parse_config(text)
        (tmp_path / "c.cfg").write_text(text)
        out_dir = tmp_path / "out"
        assert cli.main(["experiment", "--config", str(tmp_path / "c.cfg"), "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert cli.main(["compare", "--output-dir", str(out_dir)]) == 0
        captured = capsys.readouterr()
        rows = read_table(captured.out, ("n_samples", "empirical_freq", "bound", "consistent"), "stdout")
        run = harness.ExperimentResult(config, np.zeros(0), read_results_csv(out_dir / "results.csv"))
        assert [(int(n), float(freq)) for n, freq, _, _ in rows] == [
            (n, float(np.mean(run.deviations(n) >= 3.0))) for n in (50, 200)
        ]
        report = routing_bound(build_configured_game(config), 3.0)
        assert f"(ln gamma = {report.ln_gamma:.4g}, beta = {report.beta:.4g})" in captured.err
