"""Record the default outputs of one source tree, one name -> sha256 per
file, and check which names differ between two such records.

    python tests/data/output_record.py record [--src SRC] OUT_DIR > record.json
    python tests/data/output_record.py check PR.json BASE.json CHANGES.diff

`record` runs the package in SRC (default: this checkout's src) at one
BLAS thread: the default `experiment` at --jobs 1 and --jobs 2, `compare`
on the --jobs 1 run, `solve --kappa reference` for the three methods,
`solve --method lemke` at the default kappa-hat and at --n-samples 50,
and `bounds routing`. OUT_DIR must not exist, so both experiments run
cold. It prints the JSON record of the 24 files it wrote: every
results.csv, cdf_*.csv and config.cfg, each command's stdout (`.out`) and
each `solve` call's stderr line (`.err`; method, residual, iterations).
Each experiment's peak RSS, that of its largest process, goes to stderr
for information.

`check` prints every name whose sha256 differs between the two records
and exits 1 unless that set is exactly the set of names declared in the
`- DECLARED: name, name, ...` lines that CHANGES.diff (a unified diff of
CHANGES.md against the base) adds. A change that declares nothing must
keep every byte.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
FILES = 24
PATTERNS = ("results.csv", "cdf_*.csv", "config.cfg", "*.out", "*.err")
SOLVES = {
    **{f"reference_{method}": ("--method", method, "--kappa", "reference")
       for method in ("lemke", "qp", "extragradient")},
    "empirical": ("--method", "lemke"),
    "empirical_50": ("--method", "lemke", "--n-samples", "50"),
}
DECLARED = "+- DECLARED:"


def run_cli(env: dict, stdout, stderr, *args: str) -> float:
    """Run `python -m cvarvi.cli args`; return the peak RSS in MB of its
    largest process (the child's and its waited-for children's ru_maxrss)."""
    proc = subprocess.Popen([sys.executable, "-m", "cvarvi.cli", *args], env=env, stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return usage.ru_maxrss / 1024


def record(src: Path, out_dir: Path) -> dict[str, str]:
    """Run the commands from src into the new directory out_dir; the sha256 of each file they wrote."""
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath,
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    found = subprocess.run([sys.executable, "-c", "import cvarvi; print(cvarvi.__file__)"], env=env,
                           check=True, capture_output=True, text=True).stdout.strip()
    if not Path(found).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"cvarvi was imported from {found}, not from {src}")
    out_dir.mkdir(parents=True)
    for jobs in (1, 2):
        with open(out_dir / f"experiment_jobs{jobs}.out", "w") as out:
            peak = run_cli(env, out, subprocess.DEVNULL, "experiment", "--output-dir", str(out_dir / f"jobs{jobs}"),
                           "--jobs", str(jobs))
        print(f"{src}: cold default experiment at --jobs {jobs}, peak RSS {peak:.1f} MB", file=sys.stderr)
    with open(out_dir / "compare.out", "w") as out:
        run_cli(env, out, None, "compare", "--output-dir", str(out_dir / "jobs1"))
    for name, args in SOLVES.items():
        with open(out_dir / f"{name}.out", "w") as out, open(out_dir / f"{name}.err", "w") as err:
            run_cli(env, out, err, "solve", *args)
    with open(out_dir / "bounds_routing.out", "w") as out:
        run_cli(env, out, None, "bounds", "routing")
    files = sorted(path for path in out_dir.rglob("*")
                   if path.is_file() and any(path.match(pattern) for pattern in PATTERNS))
    return {path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest() for path in files}


def declared(diff: str) -> set[str]:
    """The names in the `- DECLARED: a, b, ...` lines that a unified diff adds."""
    return {name.strip() for line in diff.splitlines() if line.startswith(DECLARED)
            for name in line[len(DECLARED):].split(",") if name.strip()}


def check(pr: dict[str, str], base: dict[str, str], diff: str) -> int:
    """Print the differing names; 0 if they are exactly the declared ones, else 1."""
    if len(pr) != FILES or pr.keys() != base.keys():
        print(f"the records name other files: {sorted(pr.keys() ^ base.keys())}, {len(pr)} in this tree's,"
              f" {FILES} expected")
        return 1
    differing = {name for name in pr if pr[name] != base[name]}
    wanted = declared(diff)
    for name in sorted(differing | wanted):
        state = "differs" if name in differing else "equal"
        print(f"{state}, {'declared' if name in wanted else 'NOT DECLARED'}: {name}")
    print(f"{len(differing)} of {FILES} files differ from the base; {len(wanted)} declared")
    return int(differing != wanted)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_record = sub.add_parser("record", help="run the commands and print the JSON record")
    p_record.add_argument("out_dir", type=Path, help="a directory that does not exist yet")
    p_record.add_argument("--src", type=Path, default=SRC, help="the source tree to run (default: %(default)s)")
    p_check = sub.add_parser("check", help="compare two records against the declared names")
    for name in ("pr", "base", "diff"):
        p_check.add_argument(name, type=Path)
    args = parser.parse_args()
    if args.command == "record":
        print(json.dumps(record(args.src, args.out_dir), indent=1))
        return 0
    return check(json.loads(args.pr.read_text()), json.loads(args.base.read_text()), args.diff.read_text())


if __name__ == "__main__":
    sys.exit(main())
