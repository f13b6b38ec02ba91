"""Weight-graded multivariate polynomial algebras and the slice bases of their forms.

A :class:`PolyAlgebra` fixes a coefficient ring Z/p^n, a variable list with
positive integer weights, and optionally a distinguished base variable (for
algebras of the shape k[x][x_1..x_m] the base variable is x).  Monomials
and forms are int64 exponent rows: a slice basis lists them in a fixed
order, and ``row_positions`` finds rows among the rows of a basis.

Monomial order is graded-lexicographic throughout so that slice bases and
matrices are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .exactlin import ModRing

__all__ = [
    "PolyAlgebra",
    "graded_slice_basis",
    "exponent_rows",
    "row_positions",
]


@dataclass(frozen=True)
class PolyAlgebra:
    ring: ModRing
    variables: tuple[str, ...]
    weights: tuple[int, ...]
    base_var: str | None = None
    # (w, allowed) -> monomials_of_weight(w, allowed)
    _monomials: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        if len(self.weights) != len(self.variables):
            raise ValueError("one weight per variable")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be >= 1")
        if self.base_var is not None and self.base_var not in self.variables:
            raise ValueError(f"base variable {self.base_var!r} not among variables")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def monomial_weight(self, expts: Sequence[int]) -> int:
        return sum(e * w for e, w in zip(expts, self.weights))

    def monomials_of_weight(self, w: int, allowed: Sequence[int] | None = None) -> tuple[tuple[int, ...], ...]:
        """All exponent tuples of weight w in reverse graded-lex order
        (descending as tuples), optionally restricted to a subset of
        variable indices; computed once per algebra and (w, allowed)."""
        key = (w, None if allowed is None else tuple(allowed))
        cached = self._monomials.get(key)
        if cached is not None:
            return cached
        free = set(range(self.nvars) if allowed is None else allowed)
        # tails[r]: the exponents of the variables from position k on with
        # weight r, in descending order, built from the last variable back;
        # a variable outside ``allowed`` only takes exponent 0
        tails = [[()]] + [[] for _ in range(w)]
        for k in range(self.nvars - 1, -1, -1):
            wt = self.weights[k] if k in free else w + 1
            tails = [[(c,) + t for c in range(r // wt, -1, -1) for t in tails[r - c * wt]]
                     if k or r == w else [] for r in range(w + 1)]
        self._monomials[key] = tuple(tails[w]) if w >= 0 else ()
        return self._monomials[key]

    def monomials_containing(self, w: int, occurring: Iterable[int]) -> list[tuple[int, ...]]:
        """The monomials of weight w in which every variable of ``occurring``
        has a positive exponent: their product times each monomial of the
        remaining weight, in the order of ``monomials_of_weight``."""
        bump = [0] * self.nvars
        for i in occurring:
            bump[i] = 1
        rest = self.monomial_weight(bump)
        if rest > w:
            return []
        if not rest:
            return list(self.monomials_of_weight(w))
        return [tuple(a + b for a, b in zip(e, bump)) for e in self.monomials_of_weight(w - rest)]


def insert_index(wdg: tuple[int, ...], i: int) -> tuple[int, tuple[int, ...] | None]:
    """Sign and sorted tuple for dx_i ^ dx_{wdg}; None when repeated."""
    if i in wdg:
        return 1, None
    pos = sum(1 for j in wdg if j < i)
    return (-1) ** pos, wdg[:pos] + (i,) + wdg[pos:]


def graded_slice_basis(algebra: PolyAlgebra, form_degree: int, weight: int,
                       wedge_vars: Sequence[int] | None = None,
                       occurring: Sequence[int] = ()) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Ordered basis of weight-``weight`` degree-``form_degree`` forms.

    Each entry is (exponent tuple, wedge index tuple).  ``wedge_vars``
    restricts which variables may appear under d (relative forms); the
    monomial part always ranges over all variables.  Every variable of
    ``occurring`` must appear in the exponent or under d.
    """
    idxs = list(range(algebra.nvars)) if wedge_vars is None else list(wedge_vars)
    out = []
    for combo in itertools.combinations(idxs, form_degree):
        wcost = sum(algebra.weights[j] for j in combo)
        if wcost > weight:
            continue
        for e in algebra.monomials_containing(weight - wcost, set(occurring).difference(combo)):
            out.append((e, combo))
    out.sort(key=lambda t: (t[1], tuple(-x for x in t[0])))
    return out


def exponent_rows(entries: Sequence[tuple[int, ...]], width: int) -> np.ndarray:
    """Equal-length integer tuples as the rows of an int64 array (width
    columns, also when there are no rows)."""
    return np.array(entries, dtype=np.int64).reshape(len(entries), width)


# keys stay below this, so key * radix + digit never leaves int64
_KEY_LIMIT = 1 << 62


def row_positions(table: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the rows of ``rows`` sit among the distinct rows of ``table``
    (nonnegative int64 arrays of the same width): positions, and a mask of
    the rows found (a position is meaningless where the mask is False).

    Rows are compared through one integer key each, read column by column
    in mixed radix, so key order is lexicographic row order; when the next
    digit could overflow, the keys are first replaced by their ranks."""
    both = np.concatenate([table, rows])
    keys = np.zeros(len(both), dtype=np.int64)
    for col in both.T:
        radix = int(col.max(initial=0)) + 1
        if int(keys.max(initial=0)) >= _KEY_LIMIT // radix:
            keys = np.unique(keys, return_inverse=True)[1].reshape(-1).astype(np.int64)
        keys = keys * radix + col
    tkeys, rkeys = keys[: len(table)], keys[len(table):]
    if not len(table):
        return np.zeros(len(rows), dtype=np.int64), np.zeros(len(rows), dtype=bool)
    order = np.argsort(tkeys)
    at = np.minimum(np.searchsorted(tkeys[order], rkeys), len(table) - 1)
    return order[at], tkeys[order[at]] == rkeys
