"""Every library module uses each name it imports, imports no private
name of another library module, every private function or method of the
library is referenced, and every public one is read by more than the tests.

The package's ``__init__.py`` imports names only to re-export them, and a
line marked ``# noqa: F401`` keeps an import on purpose; both are exempt.
Only the standard library's ``ast`` is used.
"""

import ast
from collections import Counter
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


def private_sibling_imports(source: str) -> list[str]:
    """The names with a leading underscore that ``source`` imports from a
    module of the package (``from .x import _y`` or ``from derhamkit.x
    import _y``), as "name (line n)"."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "derhamkit")
            for alias in node.names if alias.name.startswith("_")]


def test_the_check_finds_a_private_name_imported_from_a_sibling():
    source = ("from __future__ import annotations\n"
              "from ._version import version\n"
              "from .exactlin import ModRing, _span_solver\n"
              "from derhamkit.polyalg import (\n"
              "    Poly,\n"
              "    _insert_index,\n"
              ")\n"
              "from os import _exit\n")
    assert private_sibling_imports(source) == ["_span_solver (line 3)", "_insert_index (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_a_library_module_imports_no_private_name_of_another(path):
    assert private_sibling_imports(path.read_text()) == []


def _names_read(node: ast.AST, kinds=(ast.Name, ast.Attribute)) -> Counter:
    """How often each name is read under ``node``, as a variable or an
    attribute (or only as one of the node ``kinds`` given)."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, kinds))


def unreferenced_private_defs(sources: dict) -> list[str]:
    """The private module-level functions and methods (a name with one
    leading underscore) of the modules ``sources`` maps to their text that
    nothing outside their own body reads, as "module.name"."""
    defs, read = [], Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        defs += [(module, node) for body in bodies for node in body
                 if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                 and not node.name.endswith("__")]
        read += _names_read(tree)
    return [f"{module}.{node.name}" for module, node in defs
            if read[node.name] == _names_read(node)[node.name]]


def test_the_check_finds_a_private_helper_nothing_calls():
    library = ("def _used(x):\n    return x\n"
               "def _orphan(rows):\n    return _orphan(rows[1:]) if rows else rows\n"
               "class C:\n    def _method(self):\n        return _used(1)\n"
               "    def __repr__(self):\n        return ''\n")
    caller = "from lib import C\nC()._method()\n"
    assert unreferenced_private_defs({"lib": library, "caller": caller}) == ["lib._orphan"]


def test_every_private_function_and_method_of_the_library_is_referenced():
    assert unreferenced_private_defs({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def unread_public_defs(library: dict, readers: dict) -> list[str]:
    """The public module-level functions and classes, and the public methods
    of those classes, of the modules ``library`` maps to their text that no
    source in ``library`` or ``readers`` reads outside their own body, as
    "module.name" or "module.Class.name".  A read is an ``ast.Name`` or
    ``ast.Attribute`` of the same name, and of a method only an
    ``ast.Attribute``, so a string (as in ``__all__``) is not one, a
    variable of a method's name is not one, and any attribute of that name
    is."""
    everything, attributes = (ast.Name, ast.Attribute), (ast.Attribute,)
    defs, read = [], {everything: Counter(), attributes: Counter()}
    for module, source in library.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs.append((f"{module}.{node.name}", node, everything))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{item.name}", item, attributes) for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    for source in [*library.values(), *readers.values()]:
        tree = ast.parse(source)
        for kinds, counter in read.items():
            counter += _names_read(tree, kinds)
    return [name for name, node, kinds in defs if read[kinds][node.name] == _names_read(node, kinds)[node.name]]


def test_the_check_finds_a_public_name_nothing_reads():
    library = ("__all__ = ['used', 'orphan', 'C']\n"
               "def used(x):\n    return x\n"
               "def orphan(rows):\n    return orphan(rows[1:]) if rows else rows\n"
               "class C:\n    def called(self):\n        return used(1)\n"
               "    def unread(self):\n        return 0\n"
               "    def shadowed(self):\n        return 0\n"
               "    def _private(self):\n        return 0\n"
               "    def __repr__(self):\n        return ''\n")
    caller = "from lib import C\nC().called()\nshadowed = 1\nprint(shadowed)\n"
    assert unread_public_defs({"lib": library}, {"caller": caller}) == ["lib.orphan", "lib.C.unread",
                                                                        "lib.C.shadowed"]


def traced_names(source: str) -> set[str]:
    """The "module.name" strings of the ``TRACED`` tuple that ``source``
    (the benchmark's workloads module) assigns."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("no TRACED tuple")


def test_every_public_function_class_and_method_of_the_library_is_read():
    # A test alone does not keep a name alive: the readers are the library,
    # the demos, the benchmark and the tests' reference implementations.
    # The benchmark's trace wraps each TRACED name and fails on a missing
    # one, so a traced name nothing else reads still counts as read.
    root = SRC.parent.parent
    readers = {str(p): p.read_text() for folder in ("demos", "perfbench")
               for p in sorted((root / folder).rglob("*.py"))}
    readers.update({str(p): p.read_text() for p in sorted((root / "tests").glob("reference_*.py"))})
    unread = unread_public_defs({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}, readers)
    traced = traced_names((root / "perfbench" / "workloads.py").read_text())
    assert [name for name in unread if name not in traced] == []
