"""Write the pinned run of criterion10.cfg (the config of the acceptance
test's criterion 10) that tests/test_pinned_run.py reruns:

- criterion10_results.csv: n_samples, rep, deviation and status of each
  replication, in the order of the run's results.csv;
- criterion10_reference.csv: kappa_ref and h_ref of each path.

Both are in the `cvarvi.tables` syntax, from one run at workers = 1.
Run from the repository root:

    PYTHONPATH=src python tests/data/write_criterion10.py
"""

import sys
import tempfile
from pathlib import Path

from cvarvi.harness import build_configured_game, load_config, run_experiment
from cvarvi.routing import true_path_kappa
from cvarvi.tables import format_table

HERE = Path(__file__).parent
RESULTS = ("criterion10_results.csv", ("n_samples", "rep", "deviation", "status"))
REFERENCE = ("criterion10_reference.csv", ("path", "kappa_ref", "h_ref"))


def run_tables(work_dir: Path) -> dict[str, list[tuple]]:
    """The rows of each pinned table, from a run of criterion10.cfg in work_dir."""
    config = load_config(HERE / "criterion10.cfg")
    game = build_configured_game(config)
    result = run_experiment(config, work_dir / "run", cache_dir=work_dir / "cache", game=game)
    kappa_ref = true_path_kappa(game, config.ref_samples, config.ref_seed, cache_dir=work_dir / "cache")
    return {
        RESULTS[0]: [(r.n_samples, r.rep, r.deviation, r.status) for r in result.records],
        REFERENCE[0]: [(p, float(k), float(h)) for p, (k, h) in enumerate(zip(kappa_ref, result.h_ref))],
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tables = run_tables(Path(tmp))
    for name, header in (RESULTS, REFERENCE):
        (HERE / name).write_text(format_table(header, tables[name]), newline="\n")
        print(f"wrote {HERE / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
