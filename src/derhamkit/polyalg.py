"""Weight-graded multivariate polynomial algebras and the slice bases of their forms.

A :class:`PolyAlgebra` fixes a coefficient ring Z/p^n, a variable list with
positive integer weights, and optionally a distinguished base variable (for
algebras of the shape k[x][x_1..x_m] the base variable is x).  Monomials
and forms are int64 exponent rows: a slice basis lists them in a fixed
order, and ``row_positions`` finds rows among the rows of a basis.

Within a weight, monomials are in descending lexicographic order of their
exponent rows; a slice basis of forms takes the wedge sets in ascending
order and, under each, the monomials in that order, so slice bases and
matrices are reproducible.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

import numpy as np

from .exactlin import ModRing

__all__ = [
    "PolyAlgebra",
    "graded_slice_basis",
    "row_positions",
]


class PolyAlgebra(NamedTuple("PolyAlgebra", [("ring", ModRing), ("variables", tuple), ("weights", tuple),
                                             ("base_var", str | None)])):
    """The tuple (ring, variables, weights, base_var), so that algebras made
    from equal arguments are equal and hash alike; the subclass instance
    holds the monomial tables."""

    def __new__(cls, ring: ModRing, variables: tuple[str, ...], weights: tuple[int, ...],
                base_var: str | None = None):
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        if len(weights) != len(variables):
            raise ValueError("one weight per variable")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be >= 1")
        if base_var is not None and base_var not in variables:
            raise ValueError(f"base variable {base_var!r} not among variables")
        self = super().__new__(cls, ring, variables, weights, base_var)
        self._monomials = {}  # w -> monomials_of_weight(w)
        return self

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def monomials_of_weight(self, w: int) -> np.ndarray:
        """The exponent rows of weight w in descending lexicographic order;
        one int64 table per algebra and weight."""
        cached = self._monomials.get(w)
        if cached is not None:
            return cached
        # tails[r]: the exponents of the variables from position k on with
        # weight r, in descending order, built from the last variable back
        tails = [[()]] + [[] for _ in range(w)]
        for k in range(self.nvars - 1, -1, -1):
            wt = self.weights[k]
            tails = [[(c,) + t for c in range(r // wt, -1, -1) for t in tails[r - c * wt]]
                     if k or r == w else [] for r in range(w + 1)]
        rows = tails[w] if w >= 0 else []
        self._monomials[w] = np.array(rows, dtype=np.int64).reshape(len(rows), self.nvars)
        return self._monomials[w]


def insert_index(wdg: tuple[int, ...], i: int) -> tuple[int, tuple[int, ...] | None]:
    """Sign and sorted tuple for dx_i ^ dx_{wdg}; None when repeated."""
    if i in wdg:
        return 1, None
    pos = sum(1 for j in wdg if j < i)
    return (-1) ** pos, wdg[:pos] + (i,) + wdg[pos:]


def graded_slice_basis(algebra: PolyAlgebra, form_degree: int, weight: int,
                       wedge_vars: Sequence[int] | None = None,
                       occurring: Sequence[int] = ()) -> np.ndarray:
    """Ordered basis of weight-``weight`` degree-``form_degree`` forms, as
    int64 rows: the wedge indices, then the exponents.

    ``wedge_vars`` (ascending) restricts which variables may appear under d
    (relative forms); the monomial part always ranges over all variables.
    Every variable of ``occurring`` must appear in the exponent or under d,
    so the rows of a wedge set are its bump row plus each monomial of the
    weight the bump row leaves.  Wedge sets come in ascending order, and
    under each the exponents in descending lexicographic order.
    """
    wts = algebra.weights
    bumps = _bump_rows(algebra.nvars, form_degree, wedge_vars, occurring)
    # the weight a bump row leaves: less its wedge variables and its exponents
    tables = [algebra.monomials_of_weight(weight - sum(wts[k] for k in b[:form_degree])
                                          - sum(e * wt for e, wt in zip(b[form_degree:], wts)))
              for b in bumps]
    rows = np.repeat(np.array(bumps, dtype=np.int64).reshape(len(bumps), form_degree + algebra.nvars),
                     [len(t) for t in tables], axis=0)
    if tables:
        rows[:, form_degree:] += np.concatenate(tables)
    return rows


def _bump_rows(nvars: int, form_degree: int, wedge_vars: Sequence[int] | None,
               occurring: Sequence[int]) -> list[tuple[int, ...]]:
    """One row per wedge set, in ascending order: the wedge set, then an
    exponent 1 for each variable of ``occurring`` not under d, else 0."""
    idxs = range(nvars) if wedge_vars is None else wedge_vars
    return [combo + tuple(int(k in occurring and k not in combo) for k in range(nvars))
            for combo in itertools.combinations(idxs, form_degree)]


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
    bound = 1  # every key is below it
    for col, radix in zip(both.T, (both.max(axis=0, initial=0) + 1).tolist()):
        if bound > _KEY_LIMIT // radix:
            keys = np.unique(keys, return_inverse=True)[1].reshape(-1).astype(np.int64)
            bound = int(keys.max(initial=0)) + 1
        keys = keys * radix + col
        bound *= radix
    tkeys, rkeys = keys[: len(table)], keys[len(table):]
    if not len(table):
        return np.zeros(len(rows), dtype=np.int64), np.zeros(len(rows), dtype=bool)
    order = np.argsort(tkeys)
    at = np.minimum(np.searchsorted(tkeys[order], rkeys), len(table) - 1)
    return order[at], tkeys[order[at]] == rkeys
