"""Weight-graded multivariate polynomial algebras and their differential forms.

A :class:`PolyAlgebra` fixes a coefficient ring Z/p^n, a variable list with
positive integer weights, and optionally a distinguished base variable (for
algebras of the shape k[x][x_1..x_m] the base variable is x).  Polynomials
and differential forms are sparse exponent-dict values; the de Rham
differential and wedge product are exact.

Monomial order is graded-lexicographic throughout so that slice bases and
matrices are reproducible.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exactlin import ModRing

__all__ = [
    "PolyAlgebra",
    "Poly",
    "DifferentialForm",
    "AlgebraMap",
    "apply_map",
    "derham_d",
    "wedge",
    "graded_slice_basis",
    "monomial_count",
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

    def var_index(self, name: str) -> int:
        return self.variables.index(name)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.nvars: 1})

    def variable(self, name: str) -> "Poly":
        e = [0] * self.nvars
        e[self.var_index(name)] = 1
        return Poly(self, {tuple(e): 1})

    def constant(self, c: int) -> "Poly":
        c %= self.ring.modulus
        return Poly(self, {(0,) * self.nvars: c} if c else {})

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

    def to_json(self) -> str:
        data = {
            "coeff": {"p": self.ring.p, "n": self.ring.n},
            "vars": [{"name": v, "weight": w} for v, w in zip(self.variables, self.weights)],
        }
        if self.base_var is not None:
            data["base_var"] = self.base_var
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "PolyAlgebra":
        data = json.loads(text)
        ring = ModRing(data["coeff"]["p"], data["coeff"]["n"])
        names = tuple(v["name"] for v in data["vars"])
        weights = tuple(v["weight"] for v in data["vars"])
        return PolyAlgebra(ring, names, weights, data.get("base_var"))


class Poly:
    """Sparse polynomial: exponent tuple -> nonzero coefficient in [1, p^n)."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: PolyAlgebra, terms: Mapping[tuple[int, ...], int]):
        m = algebra.ring.modulus
        self.algebra = algebra
        self.terms = {e: c % m for e, c in terms.items() if c % m}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.algebra, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return Poly(self.algebra, out)

    def __neg__(self) -> "Poly":
        return Poly(self.algebra, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly(self.algebra, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.algebra, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        out = self.algebra.one()
        for _ in range(k):
            out = out * self
        return out

    def weight(self) -> int | None:
        """Common weight of all terms, or None if inhomogeneous/zero."""
        ws = {self.algebra.monomial_weight(e) for e in self.terms}
        return ws.pop() if len(ws) == 1 else None

    def _check(self, other: "Poly"):
        if self.algebra != other.algebra:
            raise ValueError("polynomials live in different algebras")

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.algebra.variables
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(f"{n}^{k}" if k > 1 else n for n, k in zip(names, e) if k)
            bits.append(f"{c}" if not mono else (mono if c == 1 else f"{c}*{mono}"))
        return " + ".join(bits)


class DifferentialForm:
    """Degree-i form: finite sum of (monomial) * dx_{j1} ^ ... ^ dx_{ji}.

    Keys are (exponent tuple, strictly increasing tuple of wedge indices).
    """

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra: PolyAlgebra, degree: int, terms: Mapping[tuple[tuple[int, ...], tuple[int, ...]], int]):
        m = algebra.ring.modulus
        self.algebra = algebra
        self.degree = degree
        clean = {}
        for (e, w), c in terms.items():
            if len(w) != degree or list(w) != sorted(set(w)):
                raise ValueError("wedge indices must be strictly increasing and match the degree")
            if c % m:
                clean[(e, w)] = c % m
        self.terms = clean

    @staticmethod
    def from_poly(f: Poly) -> "DifferentialForm":
        return DifferentialForm(f.algebra, 0, {(e, ()): c for e, c in f.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DifferentialForm)
            and self.algebra == other.algebra
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        if self.degree != other.degree or self.algebra != other.algebra:
            raise ValueError("form degree/parent mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return DifferentialForm(self.algebra, self.degree, out)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(self.algebra, self.degree, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __mul__(self, other: "DifferentialForm") -> "DifferentialForm":
        """Wedge product, so forms follow the product protocol of ``Poly``."""
        return wedge(self, other)

    def scale(self, c: int) -> "DifferentialForm":
        return DifferentialForm(self.algebra, self.degree, {k: c * v for k, v in self.terms.items()})

    def weight(self) -> int | None:
        alg = self.algebra
        ws = {alg.monomial_weight(e) + sum(alg.weights[j] for j in w) for e, w in self.terms}
        return ws.pop() if len(ws) == 1 else None

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.algebra.variables
        bits = []
        for (e, w), c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(f"{n}^{k}" if k > 1 else n for n, k in zip(names, e) if k)
            dxs = "^".join(f"d{names[j]}" for j in w)
            body = "*".join(x for x in (mono, dxs) if x)
            bits.append(body if c == 1 and body else (f"{c}*{body}" if body else str(c)))
        return " + ".join(bits)


@dataclass(frozen=True)
class AlgebraMap:
    """Ring-map over the common coefficient ring, given on variables."""

    source: PolyAlgebra
    target: PolyAlgebra
    images: tuple[Poly, ...]  # one per source variable

    def __post_init__(self):
        if self.source.ring != self.target.ring:
            raise ValueError("source and target must share the coefficient ring")
        if len(self.images) != self.source.nvars:
            raise ValueError("every source variable needs an image")
        for img in self.images:
            if img.algebra != self.target:
                raise ValueError("images must live in the target algebra")

    def is_weight_compatible(self) -> bool:
        for w, img in zip(self.source.weights, self.images):
            iw = img.weight()
            if not img.is_zero() and iw != w:
                return False
        return True

    def __call__(self, f: Poly) -> Poly:
        return apply_map(self, f)


def apply_map(phi: AlgebraMap, f: Poly) -> Poly:
    if f.algebra != phi.source:
        raise ValueError("polynomial not in the source algebra")
    out = phi.target.zero()
    cache: dict[tuple[int, int], Poly] = {}

    def power(i: int, k: int) -> Poly:
        if k == 0:
            return phi.target.one()
        key = (i, k)
        if key not in cache:
            cache[key] = power(i, k - 1) * phi.images[i]
        return cache[key]

    for e, c in f.terms.items():
        term = phi.target.constant(c)
        for i, k in enumerate(e):
            if k:
                term = term * power(i, k)
        out = out + term
    return out


def apply_map_form(phi: AlgebraMap, omega: DifferentialForm) -> DifferentialForm:
    """Functorial action on forms: coefficients via phi, dx_j via d(phi(x_j))."""
    out = DifferentialForm(phi.target, omega.degree, {})
    for (e, wdg), c in omega.terms.items():
        coeff = apply_map(phi, Poly(phi.source, {e: c}))
        piece = DifferentialForm.from_poly(coeff)
        for j in wdg:
            piece = wedge(piece, derham_d(DifferentialForm.from_poly(phi.images[j])))
            if piece.is_zero():
                break
        out = out + piece
    return out


def derham_d(omega: DifferentialForm, skip: Iterable[int] = ()) -> DifferentialForm:
    """Exterior differential; variables in ``skip`` are treated as constants
    (used for forms relative to a base algebra)."""
    alg = omega.algebra
    skip = set(skip)
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for (e, wdg), c in omega.terms.items():
        for i, k in enumerate(e):
            if k == 0 or i in skip:
                continue
            sign, merged = insert_index(wdg, i)
            if merged is None:
                continue  # dx_i repeats a wedge factor
            e2 = list(e)
            e2[i] -= 1
            key = (tuple(e2), merged)
            out[key] = out.get(key, 0) + sign * c * k
    return DifferentialForm(alg, omega.degree + 1, out)


def insert_index(wdg: tuple[int, ...], i: int) -> tuple[int, tuple[int, ...] | None]:
    """Sign and sorted tuple for dx_i ^ dx_{wdg}; None when repeated."""
    if i in wdg:
        return 1, None
    pos = sum(1 for j in wdg if j < i)
    return (-1) ** pos, wdg[:pos] + (i,) + wdg[pos:]


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    if a.algebra != b.algebra:
        raise ValueError("forms live over different algebras")
    alg = a.algebra
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for (e1, w1), c1 in a.terms.items():
        for (e2, w2), c2 in b.terms.items():
            if set(w1) & set(w2):
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            sign, merged = _merge_wedges(w1, w2)
            key = (e, merged)
            out[key] = out.get(key, 0) + sign * c1 * c2
    return DifferentialForm(alg, a.degree + b.degree, out)


def _merge_wedges(w1: tuple[int, ...], w2: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    items = list(w1) + list(w2)
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(items)


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


def monomial_count(weights: Sequence[int], weight: int) -> int:
    """Number of monomials of the given weight: [t^weight] prod 1/(1-t^w)."""
    dp = [0] * (weight + 1)
    dp[0] = 1
    for w in weights:
        for t in range(w, weight + 1):
            dp[t] += dp[t - w]
    return dp[weight]


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
