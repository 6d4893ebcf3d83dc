"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sioux-experiment --seed 20240817 --seconds 35 --trace 0

Run from the root of a checkout: the package is imported from this
checkout's src/ (it need not be installed). --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 1 when a correctness check fails and
2 when the checkout has no package to measure.

Scratch output (experiment CSVs, the reference cache) lives in a temporary
directory under .bench_out/ that is deleted at the end; the result record
and, for traced runs, the spans stay in .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread per process, set before numpy loads: with two pool
# workers that keeps the compute threads at or below the two CPUs.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sioux-experiment", "sioux-parallel", "grid-scaling")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fill-reference", metavar="CACHE_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.fill_reference is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import cvarvi from this checkout's src/, never from elsewhere."""
    if not (SRC / "cvarvi" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'cvarvi'}; run from the root of a cvarvi checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import cvarvi

    if Path(cvarvi.__file__).resolve().parent != (SRC / "cvarvi").resolve():
        print(f"error: imported cvarvi from {cvarvi.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return cvarvi


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def machine_info(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu_model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}{kind[:1].lower() if kind != 'Unified' else ''}"] = _read(index / "size")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    if args.fill_reference is not None:
        print(json.dumps(workloads.fill_reference(args.seed, Path(args.fill_reference))))
        return 0

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT))
    started = time.perf_counter()
    try:
        if args.trace:
            outcome = workload.run_traced(workdir, OUT / f"{args.workload}-seed{args.seed}.spans.json")
        else:
            outcome = workload.run_untraced(args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "machine": machine_info(args.seed),
        "notes": outcome.notes,
        "problems": outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_share": outcome.failed / max(outcome.attempted, 1),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} wall={record['wall_s']:.1f}s")
    print(f"# machine {json.dumps(record['machine'])}")
    print(f"# notes {json.dumps(outcome.notes)}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    print(f"{'failed_share':44s} {record['failed_share']:>16.6g} "
          f"({outcome.failed} failed of {outcome.attempted} replications)")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": record["metrics"],
    }))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
