import dataclasses
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvarvi
from cvarvi import cli, harness
from cvarvi.bounds import exponential_bound_routing
from cvarvi.cvar import RiskLevel, SampleBatch, empirical_cvar_lp
from cvarvi.harness import (
    ConfigError,
    ExperimentConfig,
    RepRecord,
    build_configured_game,
    compare_bounds,
    default_config_text,
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

    def test_unknown_solver(self):
        with pytest.raises(ConfigError, match="'foo'.*extragradient, lemke, qp"):
            parse_config("solver = foo\nod = 1 2 5 1\n")

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


class TestExperiment:
    def test_outputs_exist(self, small_config, small_result):
        assert small_result.results_path.exists()
        for n in small_config.sample_sizes:
            assert small_result.cdf_paths[n].exists()

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
            (["bounds", "--formula", "routing", "--config", str(cfg)],
             ("formula", "gamma", "ln_gamma", "beta", "n_samples"), 1),
            (["compare", "--config", str(cfg), "--output-dir", out_dir],
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

        def capture(ods, alpha, ell, big_l, m_lip, delta, zeta=None):
            seen.append(dict(ods=ods, ell=ell, big_l=big_l, m_lip=m_lip))
            return exponential_bound_routing(ods, alpha, ell, big_l, m_lip, delta, zeta)

        monkeypatch.setattr(harness, "exponential_bound_routing", capture)
        routing_bound(build_configured_game(small_config), 1.0)
        (inputs,) = seen
        assert sum(pc for pc, _ in inputs["ods"]) == 30
        assert inputs["ell"] < inputs["big_l"]
        assert inputs["m_lip"] > 0
        assert [pc for pc, _ in inputs["ods"]] == [10, 10, 10]

    def test_compare_consistent(self, small_config, small_result):
        rows = compare_bounds(small_result)
        assert [r.n_samples for r in rows] == list(small_config.sample_sizes)
        for row in rows:
            assert 0.0 <= row.empirical_freq <= 1.0
            assert 0.0 < row.bound_value <= 1.0
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

    def test_usage_error(self):
        proc = self.run_cli("frobnicate")
        assert proc.returncode == 2

    def test_bounds_separable(self):
        proc = self.run_cli(
            "bounds", "--formula", "separable", "--n", "1", "--alpha", "0.05",
            "--f-max", "1", "--g-rge", "1", "--delta", "1",
        )
        assert proc.returncode == 0
        header, row = proc.stdout.splitlines()
        assert header == "formula,gamma,ln_gamma,beta,n_samples"
        assert row.split(",")[0] == "separable"
        assert float(row.split(",")[1]) == pytest.approx(6.0)

    def test_bounds_empty_cost_range_is_an_error(self):
        proc = self.run_cli(
            "bounds", "--formula", "general", "--n", "1", "--alpha", "0.5", "--ell", "1",
            "--big-l", "1", "--m", "1", "--diam", "1", "--delta", "0.1",
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: cost range [1.0, 1.0] is inverted or empty: need ell < L\n"

    def test_bounds_sigma_epsilon_gives_delta(self, capsys):
        flags = ["bounds", "--formula", "separable", "--n", "1", "--alpha", "0.05",
                 "--f-max", "1", "--g-rge", "1"]
        assert cli.main(flags + ["--sigma", "2", "--epsilon", "0.05"]) == 0
        derived = capsys.readouterr().out
        assert cli.main(flags + ["--delta", "0.1"]) == 0
        assert derived == capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--formula", "separable", "--n", "1", "--alpha", "0.05", "--f-max", "1", "--delta", "1"],
         "requires --g-rge"),
        (["--formula", "general", "--n", "1", "--alpha", "0.5", "--ell", "0", "--big-l", "1",
          "--m", "1", "--diam", "1", "--sigma", "2"], r"requires --delta \(or --sigma and --epsilon\)"),
        (["--formula", "separable", "--n", "1", "--alpha", "0.05", "--f-max", "1", "--g-rge", "1",
          "--delta", "1", "--ell", "0", "--big-l", "1"], "does not read --big-l, --ell"),
        (["--formula", "routing", "--n", "5"], "does not read --n"),
        (["--formula", "routing", "--sigma", "2"], "does not read --sigma"),
        (["--formula", "routing", "--delta", "0.5", "--epsilon", "1"], "--delta replaces --epsilon"),
    ])
    def test_bounds_usage_errors(self, flags, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["bounds", *flags])
        assert exit_info.value.code == 2
        assert re.search(message, capsys.readouterr().err)

    def test_output_dir_env(self, small_config, small_result, tmp_path, monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_CONFIG)
        # The child's cwd holds no ./cvarvi_out, so only the variable can
        # point it at the results.
        proc = subprocess.run(
            [sys.executable, "-m", "cvarvi.cli", "compare", "--config", str(cfg)],
            capture_output=True, text=True, cwd=tmp_path,
            env=child_env(CVARVI_OUTPUT_DIR=str(small_result.results_path.parent)),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "n_samples,empirical_freq,bound,consistent"

    def test_compare_reports_vacuous_bound(self, small_config, small_result, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_CONFIG)
        proc = self.run_cli("compare", "--config", str(cfg),
                            "--output-dir", str(small_result.results_path.parent))
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
