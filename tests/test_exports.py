"""Every name a library module lists in ``__all__`` exists, and the package
re-exports only names that its modules define and list."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "derhamkit"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem not in ("__init__", "cli"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_module_all_exists(name):
    module = importlib.import_module(f"derhamkit.{name}")
    assert module.__all__ and [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_package_reexports_only_listed_names_of_its_modules():
    imports = [node for node in ast.parse((SRC / "__init__.py").read_text()).body if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 and node.module in MODULES for node in imports)
    stale = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
             if alias.name not in importlib.import_module(f"derhamkit.{node.module}").__all__]
    assert stale == []
