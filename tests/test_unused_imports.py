"""Every library module uses each name it imports.

The package's ``__init__.py`` imports names only to re-export them, and a
line marked ``# noqa: F401`` keeps an import on purpose; both are exempt.
Only the standard library's ``ast`` is used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "derhamkit"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, as "name (line n)"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_check_finds_an_unused_import_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "import sys  # noqa: F401\n"
              "from json import (\n"
              "    dumps,\n"
              "    loads,\n"
              ")\n"
              "x = np.zeros(1) if os.sep else dumps\n")
    assert unused_imports(source) == ["loads (line 7)"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_a_library_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
