"""Span tracing of derhamkit from outside the library.

``Tracer.install`` replaces each named function by a timing wrapper in every
loaded ``derhamkit`` module that holds it, and each named method on its
class; ``Tracer.restore`` puts every original object back.  Spans stay in
memory as ``(name, start, end, parent, run)`` tuples, where ``parent`` is the
index of the enclosing span (-1 at the top) and ``run`` numbers the suite
run that caused them.  ``self_times`` reduces them to calls and self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "derhamkit"


def _cells(matrix) -> int:
    shape = getattr(matrix, "shape", None)
    if shape is None:
        rows = len(matrix)
        return rows * (len(matrix[0]) if rows else 0)
    if len(shape) == 1:
        return shape[0]
    return shape[0] * shape[1]


class Tracer:
    """Wraps ``targets`` ("module.func" or "module.Class.method") while installed.

    ``cell_args[name] = k`` adds the rows x cols of the first k positional
    arguments of each call to ``cells[name]``.  ``outcomes[name]`` is a
    predicate on the return value; ``useful[name]`` counts the calls where it
    holds.
    """

    def __init__(self, targets, cell_args=None, outcomes=None):
        self.targets = tuple(targets)
        self.cell_args = dict(cell_args or {})
        self.outcomes = dict(outcomes or {})
        self.spans: list = []
        self.cells: Counter = Counter()
        self.useful: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        try:
            for target in self.targets:
                modname, _, attr = target.partition(".")
                owner = sys.modules[f"{PACKAGE}.{modname}"]
                if "." in attr:
                    clsname, method = attr.split(".")
                    cls = getattr(owner, clsname)
                    original = cls.__dict__[method]
                    if not inspect.isfunction(original):
                        raise TypeError(f"{target} is not a plain method")
                    self._patch(cls, method, original, self._wrap(original, target))
                    continue
                original = getattr(owner, attr)
                if not inspect.isfunction(original):
                    raise TypeError(f"{target} is not a plain function")
                wrapper = self._wrap(original, target)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapper)
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        ncells = self.cell_args.get(name, 0)
        outcome = self.outcomes.get(name)
        cells, useful = self.cells, self.useful

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if ncells:
                cells[name] += sum(_cells(a) for a in args[:ncells])
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self.run_id)
                stack.pop()
            if outcome is not None and outcome(result):
                useful[name] += 1
            return result

        return traced

    @contextmanager
    def run(self, name: str):
        """Root span for one suite run; spans inside it share a new run id."""
        self.run_id += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), -1, self.run_id)
            self._stack.pop()


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self time).

    A span's self time is its duration minus the part of its interval that
    its direct child spans cover.
    """
    children: dict[int, list] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, tuple[int, float]] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for cstart, cend in sorted(children.get(index, ())):
            lo, hi = max(cstart, reach), min(cend, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - covered)
    return out
