"""Every function written in the library is entered by a suite run, or is on
an allow-list that gives its reason.

A child interpreter runs the command line on every suite at the parameters
of its acceptance test, plus the odd-prime theta model and the ramification
table at p = 2, 3 and 5, each report written as text and as JSON, and
``derhamkit list``, under ``sys.setprofile``; it prints the code objects it
entered.  A fresh child, so that no cache another test filled hides a
function.  The functions are those written at module level or in the body
of a module-level class of ``src/derhamkit``, found with ``ast``: the
methods a class inherits, such as the comparisons and hash a ``NamedTuple``
takes from ``tuple``, are not written there and do not count.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the acceptance runs of tests/test_acceptance.py, as command lines
RUNS = [
    ["verify", "dold-kan-roundtrip", "--cases", "20", "--max-degree", "5", "--max-rank", "3", "--seed", "1"],
    ["verify", "eilenberg-zilber", "--cases", "10", "--seed", "1"],
    ["verify", "cotangent-regular", "--seed", "1"],
    ["verify", "quillen-shift", "--power", "3", "--seed", "1"],
    ["verify", "koszul-gamma", "--cases", "20", "--seed", "1"],
    ["verify", "drpd-modp", "--weight-bound", "5", "--seed", "1"],
    ["verify", "drpd-envelope", "--weight-bound", "4", "--seed", "1"],
    ["verify", "universal-thickening", "--seed", "1"],
    ["verify", "witt-layer", "--cases", "100", "--seed", "1"],
    ["verify", "theta-epsilon", "--p", "2", "--m", "3", "--n", "2", "--k", "2", "--seed", "1"],
    ["verify", "theta-epsilon", "--p", "3", "--m", "2", "--n", "1", "--k", "1", "--seed", "1"],
    *(["verify", "different-valuation", "--p", p, "--r-max", "3", "--seed", "1"] for p in ("2", "3", "5")),
]

# The functions no suite run enters, each with its reason.
_FALLBACK = "non-free fallback of normalized_complex, which catches invalid simplicial input"
_TRACED = "TRACED: perfbench/workloads.py wraps it, and fails on a missing name"
_SAFETY = "safety check: the simplicial identities, checked by the tests; no suite runs it yet"
_DEGENERACY = "builds or reads degeneracies on request: no suite reads one, the normalized complex reads faces"
NEVER_ENTERED = {
    "complexes._fault": "error path: names the block of a double complex where d^2 != 0",
    "exactlin.express_in_basis": _FALLBACK,
    "exactlin.minimal_generators": _FALLBACK,
    "exactlin.smith_normal_form": _TRACED,
    "exactlin.solve_in_span": _TRACED,
    "simplex.SimplicialModule.validate": _TRACED + "; " + _SAFETY,
    "simplex.BisimplicialModule.validate": _SAFETY,
    "simplex.SimplicialModule._face": "the zero-filled face that validate and face read",
    "simplex.SimplicialModule._degen": "the zero-filled degeneracy that validate and degen read",
    "exactlin.SparseMatrix.__eq__": "compares the sparse products of the validate methods",
    "exactlin.SparseMatrix.__ne__": "compares the sparse products of the validate methods",
    "simplex.BisimplicialModule._operator": _DEGENERACY,
    "simplex.OnRequest.__getitem__": _DEGENERACY,
    "simplex.OnRequest.__contains__": _DEGENERACY,
    "simplex.OnRequest.__iter__": "an abstract method of collections.abc.Mapping, needed to instantiate it",
    "simplex.OnRequest.__len__": "an abstract method of collections.abc.Mapping, needed to instantiate it",
    "complexes.DoubleComplex.h": "dense accessor: a stored horizontal block, on request",
    "complexes.DoubleComplex.v": "dense accessor: a stored vertical block, on request",
    "simplex.SimplicialModule.face": "dense accessor: a stored face, on request",
    "simplex.SimplicialModule.degen": "dense accessor: a stored degeneracy, on request",
    "witt.theta_map": "test oracle: theta of one Witt vector, against the whole-array theta_digits",
    "witt.WittVector.ghost": "test oracle: the ghost components of one Witt vector",
    "witt.QuotientRing.neg": "test oracle: negation in the tuple arithmetic",
    "cotangent.AlgebraPresentation.fprime_coeffs": "planned: the hypersurface shape, for the absolute de Rham complex",
}

# Runs the code of argv[2] under sys.setprofile and prints, as its last
# line, the (real path, first line) of every code object it entered under
# the directory argv[1].
_TRACER = """
import json, os, sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
try:
    exec(sys.argv[2])
finally:
    sys.setprofile(None)
root = os.path.realpath(sys.argv[1]) + os.sep
paths = {f: os.path.realpath(f) for f, _ in entered}
print(json.dumps(sorted([paths[f], line] for f, line in entered if paths[f].startswith(root))))
"""


def written_functions(folder: Path) -> dict:
    """(real path, first line) -> "module.name" or "module.Class.name" of
    every function written at module level or in a module-level class of
    the ``*.py`` files in ``folder``.  The first line is that of the first
    decorator, if any, as in the function's code object."""
    out = {}
    for path in sorted(folder.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = [(node, "")]
            if isinstance(node, ast.ClassDef):
                members += [(item, node.name + ".") for item in node.body]
            for item, prefix in members:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    out[(os.path.realpath(path), first)] = f"{path.stem}.{prefix}{item.name}"
    return out


def never_entered(folder: Path, code: str, pythonpath: Path) -> tuple[list, str]:
    """The names of ``written_functions(folder)`` that running ``code`` in a
    fresh interpreter never enters, and what the run printed before them."""
    env = dict(os.environ, PYTHONPATH=str(pythonpath))
    proc = subprocess.run([sys.executable, "-c", _TRACER, str(folder), code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    printed, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    entered = {tuple(key) for key in json.loads(last)}
    return sorted(name for key, name in written_functions(folder).items() if key not in entered), printed


def test_every_library_function_is_entered_by_a_suite_run_or_allowed(tmp_path):
    code = (f"import json\nfrom derhamkit.cli import main\n"
            f"codes = [main(argv + ['--json', {str(tmp_path / 'report.json')!r}]) for argv in {RUNS!r}]\n"
            f"main(['list'])\n"
            f"print(json.dumps(codes))\n")
    missed, printed = never_entered(SRC / "derhamkit", code, SRC)
    codes = json.loads(printed.rsplit("\n", 1)[-1])
    assert codes == [0] * len(RUNS), printed
    assert missed == sorted(NEVER_ENTERED)


def test_the_check_reports_a_function_that_no_run_enters(tmp_path):
    (tmp_path / "toy.py").write_text(
        "import functools\n"
        "def used():\n    return Box().size + cached()\n"
        "def unused():\n    return 0\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def cached():\n    return 1\n"
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n        return 2\n"
        "    def never(self):\n        return 3\n")
    missed, printed = never_entered(tmp_path, "import toy\nprint(toy.used())\n", tmp_path)
    assert printed == "3"
    assert missed == ["toy.Box.never", "toy.unused"]
