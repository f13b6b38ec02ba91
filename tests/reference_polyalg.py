"""References for ``polyalg`` and for the degree-0 shuffle product.

Recursive monomial enumeration: this is how the algebra listed the
monomials of one weight before the enumeration was built tail first: a
recursion over the allowed variables that copies its partial exponent
list at every step, and one sort at the end into descending lexicographic
order.

The tuple slice basis: how ``polyalg.graded_slice_basis`` listed a slice
basis before it built int64 rows: (exponent tuple, wedge index tuple)
pairs, each wedge set's monomials that contain every variable of
``occurring`` not under d, and one sort at the end by wedge set, then by
descending exponents.  ``form_rows`` and ``form_entries`` convert between
those pairs and the library's rows (the wedge indices, then the exponents).

The dict-based form algebra: polynomials and differential forms as sparse
exponent dicts, ring maps given on variables with their action on forms,
the exterior derivative and the wedge product; the faces and degeneracies
of a free simplicial resolution as such ring maps; and the shuffle product
of a simplicial algebra.  ``H0Multiplier`` is how ``derham`` multiplied
degree-0 slice vectors before the product was computed on exponent rows:
each block of a vector became a ``DifferentialForm``, its degeneracies were
applied as ring maps on forms, and the shuffle terms were wedged and
looked up one by one.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from derhamkit.cotangent import FreeSimplicialResolution, degenerate_rows
from derhamkit.exactlin import ModRing, mzeros
from derhamkit.polyalg import PolyAlgebra, insert_index
from derhamkit.simplex import shuffles


def monomials_of_weight(alg: PolyAlgebra, w: int,
                        allowed: Sequence[int] | None = None) -> tuple[tuple[int, ...], ...]:
    idxs = list(range(alg.nvars)) if allowed is None else list(allowed)
    out: list[tuple[int, ...]] = []

    def rec(pos: int, remaining: int, acc: list[int]):
        if pos == len(idxs):
            if remaining == 0:
                e = [0] * alg.nvars
                for k, i in enumerate(idxs):
                    e[i] = acc[k]
                out.append(tuple(e))
            return
        wt = alg.weights[idxs[pos]]
        for c in range(remaining // wt + 1):
            rec(pos + 1, remaining - c * wt, acc + [c])

    rec(0, w, [])
    out.sort(reverse=True)
    return tuple(out)


def monomial_weight(alg: PolyAlgebra, expts: Sequence[int]) -> int:
    return sum(e * w for e, w in zip(expts, alg.weights))


def graded_slice_basis(alg: PolyAlgebra, form_degree: int, weight: int,
                       wedge_vars: Sequence[int] | None = None,
                       occurring: Sequence[int] = ()) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Ordered basis of weight-``weight`` degree-``form_degree`` forms as
    (exponent tuple, wedge index tuple) pairs; every variable of
    ``occurring`` appears in the exponent or under d."""
    idxs = list(range(alg.nvars)) if wedge_vars is None else list(wedge_vars)
    out = []
    for combo in itertools.combinations(idxs, form_degree):
        bump = [int(k in occurring and k not in combo) for k in range(alg.nvars)]
        rest = weight - sum(alg.weights[k] for k in combo) - monomial_weight(alg, bump)
        for e in monomials_of_weight(alg, rest):
            out.append((tuple(a + b for a, b in zip(e, bump)), combo))
    out.sort(key=lambda t: (t[1], tuple(-x for x in t[0])))
    return out


def form_rows(entries: Sequence[tuple[tuple[int, ...], tuple[int, ...]]], form_degree: int,
              nvars: int) -> np.ndarray:
    """(exponents, wedge) pairs as int64 rows: the wedge indices, then the
    exponents."""
    return np.array([wdg + e for e, wdg in entries], dtype=np.int64).reshape(len(entries), form_degree + nvars)


def form_entries(rows: np.ndarray, form_degree: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Int64 form rows as (exponent tuple, wedge index tuple) pairs."""
    return [(tuple(r[form_degree:]), tuple(r[:form_degree])) for r in rows.tolist()]


def drop_row(rows: np.ndarray, row: Sequence[int]) -> np.ndarray:
    """The rows of ``rows`` other than ``row``."""
    return rows[np.array([r != list(row) for r in rows.tolist()], dtype=bool)]


# ---------------------------------------------------------------------------
# polynomials and forms as exponent dicts


def var_index(alg: PolyAlgebra, name: str) -> int:
    return alg.variables.index(name)


def zero(alg: PolyAlgebra) -> "Poly":
    return Poly(alg, {})


def one(alg: PolyAlgebra) -> "Poly":
    return Poly(alg, {(0,) * alg.nvars: 1})


def variable(alg: PolyAlgebra, name: str) -> "Poly":
    e = [0] * alg.nvars
    e[var_index(alg, name)] = 1
    return Poly(alg, {tuple(e): 1})


def constant(alg: PolyAlgebra, c: int) -> "Poly":
    c %= alg.ring.modulus
    return Poly(alg, {(0,) * alg.nvars: c} if c else {})


def to_json(alg: PolyAlgebra) -> str:
    data = {
        "coeff": {"p": alg.ring.p, "n": alg.ring.n},
        "vars": [{"name": v, "weight": w} for v, w in zip(alg.variables, alg.weights)],
    }
    if alg.base_var is not None:
        data["base_var"] = alg.base_var
    return json.dumps(data, sort_keys=True)


def from_json(text: str) -> PolyAlgebra:
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

    def weight(self) -> int | None:
        """Common weight of all terms, or None if inhomogeneous/zero."""
        ws = {monomial_weight(self.algebra, e) for e in self.terms}
        return ws.pop() if len(ws) == 1 else None

    def _check(self, other: "Poly"):
        if self.algebra != other.algebra:
            raise ValueError("polynomials live in different algebras")


class DifferentialForm:
    """Degree-i form: finite sum of (monomial) * dx_{j1} ^ ... ^ dx_{ji}.

    Keys are (exponent tuple, strictly increasing tuple of wedge indices).
    """

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra: PolyAlgebra, degree: int,
                 terms: Mapping[tuple[tuple[int, ...], tuple[int, ...]], int]):
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
        return (isinstance(other, DifferentialForm) and self.algebra == other.algebra
                and self.degree == other.degree and self.terms == other.terms)

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        if self.degree != other.degree or self.algebra != other.algebra:
            raise ValueError("form degree/parent mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return DifferentialForm(self.algebra, self.degree, out)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(self.algebra, self.degree, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "DifferentialForm") -> "DifferentialForm":
        """Wedge product, so forms follow the product protocol of ``Poly``."""
        return wedge(self, other)

    def scale(self, c: int) -> "DifferentialForm":
        return DifferentialForm(self.algebra, self.degree, {k: c * v for k, v in self.terms.items()})


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
        return all(img.is_zero() or img.weight() == w for w, img in zip(self.source.weights, self.images))

    def __call__(self, f: Poly) -> Poly:
        return apply_map(self, f)


def apply_map(phi: AlgebraMap, f: Poly) -> Poly:
    if f.algebra != phi.source:
        raise ValueError("polynomial not in the source algebra")
    out = zero(phi.target)
    cache: dict[tuple[int, int], Poly] = {}

    def power(i: int, k: int) -> Poly:
        if k == 0:
            return one(phi.target)
        key = (i, k)
        if key not in cache:
            cache[key] = power(i, k - 1) * phi.images[i]
        return cache[key]

    for e, c in f.terms.items():
        term = constant(phi.target, c)
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
    return DifferentialForm(omega.algebra, omega.degree + 1, out)


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    if a.algebra != b.algebra:
        raise ValueError("forms live over different algebras")
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for (e1, w1), c1 in a.terms.items():
        for (e2, w2), c2 in b.terms.items():
            if set(w1) & set(w2):
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            sign, merged = _merge_wedges(w1, w2)
            key = (e, merged)
            out[key] = out.get(key, 0) + sign * c1 * c2
    return DifferentialForm(a.algebra, a.degree + b.degree, out)


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


# ---------------------------------------------------------------------------
# the resolution's structure maps as ring maps, and the shuffle product


def poly_from_coeffs(alg: PolyAlgebra, var: str, coeffs) -> Poly:
    idx = var_index(alg, var)
    terms = {}
    for k, c in enumerate(coeffs):
        if c % alg.ring.modulus:
            e = [0] * alg.nvars
            e[idx] = k
            terms[tuple(e)] = c
    return Poly(alg, terms)


def f_poly(res: FreeSimplicialResolution, n: int) -> Poly:
    return poly_from_coeffs(res.algebra(n), res.pres.var, res.pres.f_coeffs)


def face(res: FreeSimplicialResolution, n: int, i: int) -> AlgebraMap:
    """t_j -> t_j (j <= i, j != n), t_{j-1} (j > i, with t_0 := f), 0 (j = i = n)."""
    src, tgt = res.algebra(n), res.algebra(n - 1)
    images = [variable(tgt, res.pres.var)]
    for j in range(1, n + 1):
        if j == i == n:
            images.append(zero(tgt))
        elif j > i:
            images.append(f_poly(res, n - 1) if j == 1 else variable(tgt, f"t{j-1}"))
        else:
            images.append(variable(tgt, f"t{j}"))
    return AlgebraMap(src, tgt, tuple(images))


def degeneracy(res: FreeSimplicialResolution, n: int, i: int) -> AlgebraMap:
    """t_j -> t_j (j <= i), t_{j+1} (j > i)."""
    src, tgt = res.algebra(n), res.algebra(n + 1)
    images = [variable(tgt, res.pres.var)]
    for j in range(1, n + 1):
        images.append(variable(tgt, f"t{j}" if j <= i else f"t{j+1}"))
    return AlgebraMap(src, tgt, tuple(images))


class PolyDegeneracies:
    """Shuffle-product protocol on the polynomials of a resolution."""

    def __init__(self, res: FreeSimplicialResolution):
        self.res = res

    def degeneracy_element(self, n: int, i: int, x: Poly) -> Poly:
        """Apply s_i at level n."""
        return degeneracy(self.res, n, i)(x)


def shuffle_product(x, i: int, y, j: int, algebra_data):
    """Product X_i x X_j -> X_{i+j} of a simplicial algebra.

    ``algebra_data`` provides ``degeneracy_element(n, k, elt)`` applying the
    degeneracy s_k at level n, and elements multiply with ``*``.  In
    degrees (0, 0) this is plain multiplication; otherwise the signed sum
    over (i, j)-shuffles, with the j-element block applied to x and the
    i-element block applied to y.
    """
    if i == 0 and j == 0:
        return x * y
    total = None
    for mu, nu, sign in shuffles(i, j):
        xs = x
        level = i
        for k in nu:  # ascending: valid degeneracy indices at each level
            xs = algebra_data.degeneracy_element(level, k, xs)
            level += 1
        ys = y
        level = j
        for k in mu:
            ys = algebra_data.degeneracy_element(level, k, ys)
            level += 1
        term = xs * ys
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total


class H0Multiplier:
    """Shuffle multiplication on degree-0 slice vectors of a
    ``derham.FilteredDeRhamComplex``, through forms.

    A degree-0 element decomposes into forms u_i in Omega^i(Q_i); the
    product of u_i and v_j is the shuffle product of the simplicial algebra
    of forms, times the Koszul sign (-1)^{i j} for crossing the bidegrees,
    landing in Omega^{i+j}(Q_{i+j}).  Columns at or above the Hodge cut are
    dropped, and so are degenerate terms.
    """

    def __init__(self, f):
        self.f = f

    def _split(self, vec: np.ndarray, w: int):
        blocks: dict[int, DifferentialForm] = {}
        for (j, i, off) in self.f.layout(0, w)[0]:
            terms = {}
            for pos, (e, wdg) in enumerate(form_entries(self.f.res.form_basis(j, i, w), i)):
                c = int(vec[off + pos])
                if c:
                    terms[(e, wdg)] = c
            if terms:
                blocks[i] = DifferentialForm(self.f.res.algebra(j), i, terms)
        return blocks

    def degeneracy_element(self, n: int, k: int, form: DifferentialForm) -> DifferentialForm:
        """Shuffle-product protocol: apply s_k at level n."""
        return apply_map_form(degeneracy(self.f.res, n, k), form)

    def multiply(self, u: np.ndarray, wu: int, v: np.ndarray, wv: int):
        w = wu + wv
        if w > self.f.weight_bound:
            return None
        bu = self._split(u, wu)
        bv = self._split(v, wv)
        lay, total = self.f.layout(0, w)
        out = mzeros(1, total)[0]
        index = {}
        for (j, i, off) in lay:
            for pos, entry in enumerate(form_entries(self.f.res.form_basis(j, i, w), i)):
                index[(j, i, entry)] = off + pos
        m = self.f.ring.modulus
        for i1, form1 in bu.items():
            for i2, form2 in bv.items():
                col = i1 + i2
                if col >= self.f.hodge_cut or col * self.f.pres.degree > w:
                    continue
                prod = shuffle_product(form1, i1, form2, i2, self)
                if (i1 * i2) % 2:
                    prod = -prod
                for (e, wdg), c in prod.terms.items():
                    key = (col, col, (e, wdg))
                    if key in index:
                        out[index[key]] = (out[index[key]] + c) % m
                    elif not degenerate_rows(np.array([e]), np.array([wdg], dtype=np.int64).reshape(1, col))[0]:
                        raise AssertionError(f"shuffle product term {(e, wdg)} is nondegenerate but not in the basis")
        return out
