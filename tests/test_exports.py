import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvarvi

MODULES = ["bounds", "cli", "cvar", "harness", "lcp", "routing", "tables", "vi"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"cvarvi.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_public_names():
    """Each `from .module import ...` in the package's __init__ names only
    what that module lists in __all__."""
    tree = ast.parse(Path(cvarvi.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1
        module = importlib.import_module(f"cvarvi.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == [], node.module


@pytest.mark.parametrize("name", MODULES)
def test_no_private_name_imported_from_another_module(name):
    path = Path(cvarvi.__file__).with_name(f"{name}.py")
    imports = [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ImportFrom)]
    assert [a.name for node in imports for a in node.names if a.name.startswith("_")] == []


# In a fresh interpreter, since the test suite itself loads SciPy.
PIPELINE_WITHOUT_SCIPY = """
import sys, tempfile
import cvarvi
from cvarvi.cvar import RiskLevel, SampleBatch, empirical_cvar_lp
from cvarvi.harness import ExperimentConfig, build_configured_game, run_experiment
from cvarvi.routing import SOLVE_METHODS, sample_path_kappa, solve_cwe

config = ExperimentConfig(replications=200)
game = build_configured_game(config)
kappa = sample_path_kappa(game, 50, 0)
assert [solve_cwe(game, kappa, method).iterations > 0 for method in SOLVE_METHODS] == [True] * 3
with tempfile.TemporaryDirectory() as out:
    run_experiment(config, out, workers=1, cache_dir=out)
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
assert not loaded, loaded
assert empirical_cvar_lp(SampleBatch(values=[1.0, 2.0, 3.0, 4.0]), RiskLevel(0.5)).value > 3.49
assert "scipy.optimize" in sys.modules
"""


def test_pipeline_never_loads_scipy():
    """Import, cold solves and a 200-replication experiment load no SciPy
    module; the LP cross-check loads SciPy's optimizer on its first call."""
    src_dir = str(Path(cvarvi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PIPELINE_WITHOUT_SCIPY], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
