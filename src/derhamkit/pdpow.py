"""Divided powers and derived power functors.

Covers: the functors Gamma^n and wedge^n on matrices of free modules,
their derived functors via the Kan transform, and the Koszul complex
linking Gamma and wedge.

Binomial and multinomial coefficients are computed in exact integer
arithmetic and reduced afterwards, so nothing is reduced early.
"""

from __future__ import annotations

import functools
import itertools
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .complexes import GradedSliceComplex, HomologyReport, homology_report, slice_homology
from .exactlin import ModRing, SparseMatrix, canonical, mzeros, mmul
from .polyalg import insert_index
from .simplex import OnRequest, SimplicialModule, kan_transform, normalized_complex

__all__ = [
    "gamma_monomials",
    "gamma_matrix",
    "wedge_matrix",
    "apply_functor_to_module",
    "derived_power",
    "koszul_gamma_complex",
]


# ---------------------------------------------------------------------------
# Gamma^n and wedge^n on matrices


@functools.lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """The ``parts``-tuples of nonnegative ints summing to ``total``, in
    lexicographic order."""
    if parts == 0:
        return ((),) if total == 0 else ()
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in _compositions(total - first, parts - 1))


def _monomial_product_coeff(e1: Sequence[int], e2: Sequence[int]) -> int:
    out = 1
    for a, b in zip(e1, e2):
        out *= comb(a + b, a)
    return out


def gamma_monomials(rank: int, n: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total index n over ``rank`` slots (rank of
    Gamma^n of a free module: binom(n + rank - 1, n))."""
    return list(_compositions(n, rank))


def gamma_matrix(phi: np.ndarray, n: int, ring: ModRing) -> np.ndarray:
    """Matrix of Gamma^n(phi) on gamma-monomial bases (row convention)."""
    r, s = phi.shape
    src = gamma_monomials(r, n)
    tgt = gamma_monomials(s, n)
    tgt_index = {e: k for k, e in enumerate(tgt)}
    out = mzeros(len(src), len(tgt))
    rows = [[int(x) for x in phi[j]] for j in range(r)]
    for si, e in enumerate(src):
        # product over j of gamma_{e_j}(sum_k a_jk f_k)
        acc: dict[tuple[int, ...], int] = {(0,) * s: 1}
        for j, ij in enumerate(e):
            if ij == 0:
                continue
            expansion: dict[tuple[int, ...], int] = {}
            for cpart in _compositions(ij, s):
                coeff = 1
                for k, ck in enumerate(cpart):
                    if ck:
                        coeff *= rows[j][k] ** ck
                if coeff:
                    expansion[cpart] = expansion.get(cpart, 0) + coeff
            nxt: dict[tuple[int, ...], int] = {}
            for e1, c1 in acc.items():
                for e2, c2 in expansion.items():
                    e3 = tuple(x + y for x, y in zip(e1, e2))
                    nxt[e3] = nxt.get(e3, 0) + c1 * c2 * _monomial_product_coeff(e1, e2)
            acc = nxt
        for e3, c in acc.items():
            out[si, tgt_index[e3]] = (out[si, tgt_index[e3]] + c) % ring.modulus
    return out


@functools.lru_cache(maxsize=None)
def _minor_plan(size: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index plan for the k-subsets of range(size) in ``itertools.combinations``
    order: ``elems[c, t]`` is the t-th element of subset c and ``rest[c, t]``
    the position of subset c without it among the (k-1)-subsets."""
    subsets = list(itertools.combinations(range(size), k))
    index = {sub: i for i, sub in enumerate(itertools.combinations(range(size), k - 1))}
    elems = np.array(subsets, dtype=np.intp).reshape(len(subsets), k)
    rest = np.array([[index[sub[:t] + sub[t + 1:]] for t in range(k)] for sub in subsets],
                    dtype=np.intp).reshape(len(subsets), k)
    elems.flags.writeable = rest.flags.writeable = False  # shared by every caller
    return elems, rest


def wedge_matrix(phi: np.ndarray, n: int, ring: ModRing) -> np.ndarray:
    """Matrix of wedge^n(phi): entries are the n x n minors, row and column
    sets in ``itertools.combinations`` order.

    All k x k minors come from the (k-1) x (k-1) ones by Laplace expansion
    along the first row, k = 1..n, one numpy gather per column position.
    Only row sets that are suffixes of an n-set are kept: the k-subsets of
    range(r) with least element >= n - k, a tail of the combinations order.
    Entries are reduced into [0, m) first; m < 2^31 keeps each product of
    an entry and a minor below 2^62.
    """
    if n < 0:
        raise ValueError(f"wedge power must be non-negative, got {n}")
    m = ring.modulus
    r, s = phi.shape
    if n > min(r, s):
        return mzeros(comb(r, n), comb(s, n))
    a = (np.asarray(phi) % m).astype(np.int64)
    minors = np.ones((1, 1), dtype=np.int64)
    for k in range(1, n + 1):
        row_elems, row_rest = _minor_plan(r, k)
        col_elems, col_rest = _minor_plan(s, k)
        first = comb(r, k) - comb(r - n + k, k)
        # the kept (k-1)-sets start at this position among all of them
        below = comb(r, k - 1) - comb(r - n + k - 1, k - 1)
        lead = a[row_elems[first:, 0]]
        tails = minors[row_rest[first:, 0] - below]
        nxt = np.zeros((lead.shape[0], col_elems.shape[0]), dtype=np.int64)
        for t in range(k):
            term = lead[:, col_elems[:, t]] * tails[:, col_rest[:, t]] % m
            if t % 2:
                nxt -= term
            else:
                nxt += term
        minors = nxt % m
    return minors


def _weighted_slots(x: SimplicialModule, n: int) -> list[tuple[int, int]]:
    """Flattened basis of X_n as (weight, position) pairs, weights ascending."""
    out = []
    for w in sorted({wt for (deg, wt) in x.dims if deg == n}):
        out.extend((w, k) for k in range(x.dim(n, w)))
    return out


def apply_functor_to_module(x: SimplicialModule, functor: str, n: int) -> SimplicialModule:
    """Apply Gamma^n or wedge^n degreewise to a simplicial module.

    The functor mixes the weight slices of each degree: a gamma-monomial or
    wedge of basis slots carries the sum of the slot weights, and the
    resulting module is re-sliced by that induced weight.  The faces are
    built here; the degeneracies, which the normalized complex does not
    read, are built all at once when the first of them is read.
    """
    if functor not in ("gamma", "wedge"):
        raise ValueError("functor must be 'gamma' or 'wedge'")
    ring = x.ring

    offsets = {}  # degree -> (weight -> its first position in _weighted_slots, number of slots)
    for deg in range(x.d_max + 1):
        firsts, pos = {}, 0
        for w in sorted({wt for (d, wt) in x.dims if d == deg}):
            firsts[w], pos = pos, pos + x.dim(deg, w)
        offsets[deg] = (firsts, pos)

    def flat_matrix(table, i, deg, target_deg):
        """The map ``table[(deg, i, w)]`` of every weight w, on the flattened
        bases: one indexed scatter of the triples."""
        (src, nsrc), (tgt, ntgt) = offsets[deg], offsets[target_deg]
        maps = [(table[(deg, i, w)], src[w], tgt.get(w, 0)) for w in src if (deg, i, w) in table]
        out = mzeros(nsrc, ntgt)
        if maps:
            out[np.concatenate([d.rows + r0 for d, r0, _ in maps]),
                np.concatenate([d.cols + c0 for d, _, c0 in maps])] = np.concatenate([d.vals for d, _, _ in maps])
        return out

    dims: dict = {}
    faces: dict = {}

    # degree -> (weight, position within its weight) of each functor basis element
    placed: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def functor_weights(slots):
        """The weight of each gamma-monomial or wedge of the slots, in basis order."""
        if functor == "gamma":
            return [sum(e * slots[j][0] for j, e in enumerate(mono)) for mono in gamma_monomials(len(slots), n)]
        return [sum(slots[j][0] for j in mono) for mono in itertools.combinations(range(len(slots)), n)]

    for deg in range(x.d_max + 1):
        weights = functor_weights(_weighted_slots(x, deg))
        counts: dict[int, int] = {}
        positions = []
        for w in weights:
            positions.append(counts.get(w, 0))
            counts[w] = positions[-1] + 1
        placed[deg] = (np.array(weights, dtype=np.int64), np.array(positions, dtype=np.int64))
        for w in sorted(counts):
            dims[(deg, w)] = counts[w]

    def functor_matrix(flat):
        if functor == "gamma":
            return gamma_matrix(flat, n, ring)
        return wedge_matrix(flat, n, ring)

    def resliced(big, deg_src, deg_tgt, store, kind, idx):
        """Split the nonzeros of the reduced functor image ``big`` into one
        canonical triple per weight, re-indexed within the weight of source
        and target, which keeps the row-major order ``nonzero`` lists."""
        (w_src, at_src), (w_tgt, at_tgt) = placed[deg_src], placed[deg_tgt]
        r, c = np.nonzero(big)
        w = w_src[r]
        leak = np.flatnonzero(w != w_tgt[c])
        if leak.size:
            raise AssertionError(f"functor image is not weight-preserving at (degree {deg_src}, "
                                 f"map {kind}_{idx}, weight {w[leak[0]]})")
        lo = w.min(initial=0)  # bincount needs non-negative weights
        for wt in (np.flatnonzero(np.bincount(w - lo)) + lo).tolist():
            k = np.flatnonzero(w == wt)
            store[(deg_src, idx, wt)] = canonical(at_src[r[k]], at_tgt[c[k]], big[r[k], c[k]],
                                                  (dims[(deg_src, wt)], dims[(deg_tgt, wt)]), ring.modulus)

    for deg in range(1, x.d_max + 1):
        for i in range(deg + 1):
            resliced(functor_matrix(flat_matrix(x.faces, i, deg, deg - 1)), deg, deg - 1, faces, "d", i)

    keys = [(deg, i, w) for deg in range(x.d_max) for i in range(deg + 1)
            for w in sorted({wt for (d, wt) in dims if d == deg})]

    def build_degens():
        degens: dict = {}
        for deg in range(x.d_max):
            for i in range(deg + 1):
                resliced(functor_matrix(flat_matrix(x.degens, i, deg, deg + 1)), deg, deg + 1, degens, "s", i)
        # a degeneracy with no nonzero entry is the zero matrix
        return {(deg, i, w): degens.get((deg, i, w)) or SparseMatrix(shape=(dims[(deg, w)], dims.get((deg + 1, w), 0)))
                for (deg, i, w) in keys}

    return SimplicialModule(ring, x.d_max, dims, faces, OnRequest(keys, build_degens))


def derived_power(c: GradedSliceComplex, functor: str, n: int,
                  degrees: Iterable[int] | None = None) -> HomologyReport:
    """Derived non-additive functor: Kan transform, apply degreewise,
    normalize, take homology."""
    if c.n_min < 0:
        raise ValueError("derived powers need complexes in degrees >= 0")
    top = max(degrees) if degrees is not None else c.n_max + n
    x = kan_transform(c, d_max=top + 1)
    fx = apply_functor_to_module(x, functor, n)
    ncx = normalized_complex(fx)
    degs = list(degrees) if degrees is not None else list(range(top + 1))
    return homology_report(ncx, degrees=[d for d in degs if ncx.in_trust_window(d)])


# ---------------------------------------------------------------------------
# Koszul complex between Gamma and wedge


def koszul_gamma_complex(u: np.ndarray, v: np.ndarray, n: int, ring: ModRing):
    """The complex 0 -> Gamma^n(E) -> Gamma^n(F) -> Gamma^{n-1}(F) (x) G ->
    ... -> wedge^n(G) -> 0 for E --u--> F --v--> G with v o u = 0.

    Returns (complex, exactness verdict).  Gamma^n(E) sits in homological
    degree n+1 and wedge^n(G) in degree 0; the differential follows the
    divided-power Leibniz rule d(gamma_J (x) w) = sum_l gamma_{J - e_l} (x)
    v(f_l) ^ w.
    """
    if mmul(u, v, ring).any():
        raise ValueError("v o u != 0")
    re, rf = u.shape
    rf2, rg = v.shape
    if rf != rf2:
        raise ValueError("shape mismatch between u and v")

    def term_basis(i):
        # degree n - i: Gamma^{n-i}(F) (x) wedge^i(G); i = -1 encodes Gamma^n(E)
        if i == -1:
            return [(m, ()) for m in gamma_monomials(re, n)]
        return [
            (m, s)
            for m in gamma_monomials(rf, n - i)
            for s in itertools.combinations(range(rg), i)
        ]

    dims = {}
    diffs = {}
    # degrees: n+1 (Gamma^n E), n, ..., 0
    layout = {n + 1: term_basis(-1)}
    for i in range(n + 1):
        layout[n - i] = term_basis(i)
    for deg, basis in layout.items():
        if basis:
            dims[(deg, 0)] = len(basis)

    # top differential: Gamma^n(u)
    top = gamma_matrix(u, n, ring)
    if top.size:
        diffs[(n + 1, 0)] = top

    vrows = [[int(x) for x in v[j]] for j in range(rf)]
    for i in range(n):
        src = layout[n - i]
        tgt = layout[n - i - 1]
        tindex = {t: k for k, t in enumerate(tgt)}
        d = mzeros(len(src), len(tgt))
        for a, (m, s) in enumerate(src):
            for l in range(rf):
                if m[l] == 0:
                    continue
                m2 = list(m)
                m2[l] -= 1
                for k in range(rg):
                    coeff = vrows[l][k]
                    if coeff == 0:
                        continue
                    sign, s2 = insert_index(s, k)
                    if s2 is None:
                        continue
                    b = tindex[(tuple(m2), s2)]
                    d[a, b] = (d[a, b] + sign * coeff) % ring.modulus
        diffs[(n - i, 0)] = d

    cx = GradedSliceComplex(ring, 0, n + 1, dims, diffs)
    cx.validate()
    exact = all(not slice_homology(cx, deg, 0) for deg in range(n + 2))
    return cx, exact
