import ast
import importlib
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
