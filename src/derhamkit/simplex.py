"""Simplex-category combinatorics and the simplicial-module kernel.

A simplicial module stores its faces per degree and weight slice as
``exactlin.SparseMatrix`` triples, as the chain complexes of ``complexes``
store their differentials; its degeneracies are triples too, and the Kan
transform and the diagonal build all of them when the first is read.  The
identities are checked on the triples; dense matrices are made on request
(``face``, ``degen``).  The normalized complex
takes the kernels of the first n faces of every slice in one pass: the
face triples of all slices become one block-diagonal matrix, handed to
``block_left_kernels``, with differential (-1)^n d_n; the unnormalized
one sums all signed faces in one sort.

There is one Kan operator.  The double Kan transform of a double complex
sums D_{p,q} over pairs of monotone surjections [m] ->> [p], [n] ->> [q];
a face or degeneracy moves each summand to at most one summand, by the
identity when the injective factor is trivial and by the signed
differential when it is the last face (the rule ``_kan_table`` tabulates
on index arrays).  A surjection e: [m] ->> [p] is its step set {j :
e(j) = e(j - 1) + 1}, a p-element subset of {1, ..., m}, and its index is
the rank of that set among the p-element subsets in lexicographic order
(the order of ``itertools.combinations``).  Summand offsets
are affine in the surjections' indices, so one array pass builds every
face, or every degeneracy, of a module in one direction.  The Kan
transform K(C) is the row q = 0 of the double Kan transform of C, and the
diagonal composes the two directions block by block.  With these
conventions the roundtrip normalized(kan(C)) is the identity on the nose,
degreewise and on differentials.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .complexes import (
    DoubleComplex,
    GradedSliceComplex,
    slice_maps,
)
from .exactlin import (
    ModRing,
    SparseMatrix,
    as_sparse,
    canonical,
    block_left_kernels,
    express_in_basis,
    howell_form,
    midentity,
    minimal_generators,
    mmul,
    mzeros,
    sparse_product,
)

__all__ = [
    "SimplicialModule",
    "BisimplicialModule",
    "normalized_complex",
    "unnormalized_complex",
    "kan_transform",
    "diagonal",
    "double_kan",
    "shuffles",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class OnRequest(Mapping):
    """A read-only mapping whose keys are fixed up front and whose values
    ``build()`` makes all at once, as a dict, on the first read of any key."""

    def __init__(self, keys: Iterable, build: Callable[[], dict]):
        self._keys = dict.fromkeys(keys)
        self._build = build
        self._built: dict | None = None

    def __getitem__(self, key):
        if key not in self._keys:
            raise KeyError(key)
        if self._built is None:
            self._built = self._build()
        return self._built[key]

    def __contains__(self, key) -> bool:
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class SimplicialModule:
    """Degreewise weight-graded free modules with face and degeneracy maps.

    ``faces[(n, i, w)]`` is d_i: X_{n,w} -> X_{n-1,w} and ``degens[(n, i,
    w)]`` is s_i: X_{n,w} -> X_{n+1,w}, each a canonical
    :class:`SparseMatrix`.  The constructor also takes dense matrices and
    triples in any form, checks their shapes against ``dims`` and keeps the
    nonzero maps; a ``degens`` that is an :class:`OnRequest` mapping is kept
    as it is, so each degeneracy is built when it is first read.  ``face``
    and ``degen`` build the dense, read-only matrix on request.
    """

    def __init__(self, ring: ModRing, d_max: int, dims: dict, faces: dict, degens: Mapping):
        m = ring.modulus
        self.ring = ring
        self.d_max = d_max
        self.dims = {k: v for k, v in dims.items() if v}  # (n, w) -> int
        # (n, i, w) -> SparseMatrix of X_{n,w} -> X_{n-1,w}
        self.faces = slice_maps(faces, lambda n, i, w: (self.dim(n, w), self.dim(n - 1, w)), m)
        # (n, i, w) -> SparseMatrix of X_{n,w} -> X_{n+1,w}
        self.degens = (degens if isinstance(degens, OnRequest)
                       else slice_maps(degens, lambda n, i, w: (self.dim(n, w), self.dim(n + 1, w)), m))

    def dim(self, n: int, w: int) -> int:
        return self.dims.get((n, w), 0)

    def weights(self) -> list[int]:
        return sorted({w for (_, w) in self.dims})

    def face(self, n: int, i: int, w: int) -> np.ndarray:
        return _read_only(self._face(n, i, w).dense())

    def degen(self, n: int, i: int, w: int) -> np.ndarray:
        return _read_only(self._degen(n, i, w).dense())

    def _face(self, n: int, i: int, w: int) -> SparseMatrix:
        return self.faces.get((n, i, w)) or SparseMatrix(shape=(self.dim(n, w), self.dim(n - 1, w)))

    def _degen(self, n: int, i: int, w: int) -> SparseMatrix:
        return self.degens.get((n, i, w)) or SparseMatrix(shape=(self.dim(n, w), self.dim(n + 1, w)))

    def validate(self) -> None:
        """Assert all five simplicial identity families on every slice, by
        sparse products."""
        m = self.ring.modulus
        face, degen = self._face, self._degen
        for w in self.weights():
            for n in range(self.d_max + 1):
                # faces of faces
                for j in range(n + 1):
                    for i in range(j):
                        if n >= 2:
                            lhs = sparse_product(face(n, j, w), face(n - 1, i, w), m)
                            rhs = sparse_product(face(n, i, w), face(n - 1, j - 1, w), m)
                            if lhs != rhs:
                                raise ValueError(f"face identity fails at n={n}, i={i}, j={j}, w={w}")
                if n + 2 <= self.d_max:
                    for j in range(n + 1):
                        for i in range(j + 1):
                            lhs = sparse_product(degen(n, j, w), degen(n + 1, i, w), m)
                            rhs = sparse_product(degen(n, i, w), degen(n + 1, j + 1, w), m)
                            if lhs != rhs:
                                raise ValueError(f"degeneracy identity fails at n={n}, i={i}, j={j}, w={w}")
                if n + 1 <= self.d_max:
                    identity = as_sparse(midentity(self.dim(n, w)), m)
                    for j in range(n + 1):
                        for i in range(n + 2):
                            lhs = sparse_product(degen(n, j, w), face(n + 1, i, w), m)
                            if i == j or i == j + 1:
                                rhs = identity
                            elif i < j:
                                rhs = sparse_product(face(n, i, w), degen(n - 1, j - 1, w), m)
                            else:
                                rhs = sparse_product(face(n, i - 1, w), degen(n - 1, j, w), m)
                            if lhs != rhs:
                                raise ValueError(f"mixed identity fails at n={n}, i={i}, j={j}, w={w}")


def unnormalized_complex(x: SimplicialModule) -> GradedSliceComplex:
    """Associated chain complex with d_n = sum (-1)^i d_i.

    All faces are summed in one pass: each signed entry is keyed by its
    slice (n, w) and its position there, the slices one after another, and
    ``as_sparse`` sorts and sums the keys as one row; each slice's
    differential is then its run of that row."""
    m = x.ring.modulus
    slices = {key: k for k, key in enumerate(dict.fromkeys((n, w) for (n, _, w) in x.faces))}
    ncols = np.array([x.dim(n - 1, w) for (n, w) in slices], dtype=np.int64)
    sizes = np.array([x.dim(n, w) for (n, w) in slices], dtype=np.int64) * ncols
    bases = sizes.cumsum() - sizes
    counts = [f.vals.size for f in x.faces.values()]
    at = np.array([slices[(n, w)] for (n, _, w) in x.faces], dtype=np.int64).repeat(counts)
    odd = np.array([i % 2 for (_, i, _) in x.faces], dtype=bool).repeat(counts)
    rows, cols, vals = (np.concatenate([f[k] for f in x.faces.values()] or [np.zeros(0, np.int64)]) for k in range(3))
    key = bases[at] + rows * ncols[at] + cols
    summed = as_sparse(SparseMatrix(np.zeros_like(key), key, np.where(odd, m - vals, vals), (1, int(sizes.sum()))), m)
    at = bases.searchsorted(summed.cols, side="right") - 1
    rows, cols = np.divmod(summed.cols - bases[at], ncols[at])
    cuts = summed.cols.searchsorted(bases).tolist() + [summed.vals.size]
    diffs = {(n, w): canonical(rows[lo:hi], cols[lo:hi], summed.vals[lo:hi], (x.dim(n, w), x.dim(n - 1, w)), m)
             for (n, w), lo, hi in zip(slices, cuts, cuts[1:])}
    cx = GradedSliceComplex(x.ring, 0, x.d_max, dict(x.dims), diffs,
                            trusted=(0, max(x.d_max - 1, 0)))
    cx.validate()
    return cx


class NormalizedData(NamedTuple):
    """Normalized complex plus the inclusion data into the ambient module."""

    complex: GradedSliceComplex
    basis: dict  # (n, w) -> rows of N X_{n,w} inside X_{n,w}


def normalized_complex(x: SimplicialModule, with_basis: bool = False):
    """N X_n = intersection of ker d_i (i < n), differential (-1)^n d_n.

    The slices X_{n,w} are laid end to end as the blocks [d_0 | ... |
    d_{n-1}] of one block-diagonal :class:`SparseMatrix`, built from the
    face triples in one pass (``_face_blocks``), and one
    ``block_left_kernels`` call gives the Howell basis of every slice's
    kernel; no dense slice is built.  Its peel drops the rows that a column
    with a single unit entry forces to zero, and most rows go that way: on
    a Kan transform K(C) it keeps just the rows of the summand C_n, which
    is N K(C)_n.

    When every row of a kernel's Howell basis has leading entry 1 (always
    over F_p, and on every Kan transform), that basis is free and is the
    basis of the slice as it stands.  Otherwise the minimal generators of
    the kernel must span it, or the slice is not free and the input is not
    simplicial; only then do ``minimal_generators`` and the freeness check
    run, on that slice.  The differential is the image of the basis under
    (-1)^n d_n, taken from the d_n triple, in the basis of the slice below.
    When that basis has pivots 1, its rows are the unit vectors on the
    pivot columns, so the coordinates are the pivot columns of the image,
    checked by one product; otherwise ``express_in_basis`` solves for
    them.  A slice that is not free, a differential that escapes the lower
    term and an image outside the span of a basis with pivots 1 each fail
    naming the slice (degree n, weight w).
    """
    ring = x.ring
    m = ring.modulus
    slices = [(n, w) for w in x.weights() for n in range(x.d_max + 1) if x.dim(n, w)]
    kernels = block_left_kernels(_face_blocks(x, slices), ring, np.cumsum([x.dim(n, w) for n, w in slices]))
    basis = {(n, w): mzeros(0, 0) for w in x.weights() for n in range(x.d_max + 1)}
    pivots = {}  # the pivot columns of each basis whose pivots are all 1
    dims = {}
    diffs = {}
    for (n, w), rows in zip(slices, kernels):
        here = _unit_pivots(rows)
        if here is None:
            ker = rows
            rows = minimal_generators(ker, ring)
            # ker is a Howell basis, so the rows span it iff they have it as Howell form
            if not np.array_equal(howell_form(rows, ring), ker):
                raise AssertionError(f"normalized slice is not free (invalid simplicial input) "
                                     f"at (degree {n}, weight {w})")
        else:
            pivots[(n, w)] = here
        basis[(n, w)] = rows
        if not rows.shape[0]:
            continue
        dims[(n, w)] = rows.shape[0]
        if n == 0:
            continue
        # rows @ (-1)^n d_n: each entry of d_n adds a reduced column
        img = mzeros(x.dim(n - 1, w), rows.shape[0])
        d_n = x.faces.get((n, n, w))
        if d_n is not None:
            np.add.at(img, d_n.cols, (rows[:, d_n.rows] * ((-1) ** n * d_n.vals) % m).T)
        img = img.T % m
        prev = basis[(n - 1, w)]
        if prev.shape[0] and (n - 1, w) in pivots:
            coords = img[:, pivots[(n - 1, w)]]
            if not np.array_equal(mmul(coords, prev, ring), img):
                raise ValueError(f"normalized differential is not in span of the basis below "
                                 f"at (degree {n}, weight {w})")
            diffs[(n, w)] = coords
        elif prev.shape[0]:
            diffs[(n, w)] = express_in_basis(img, prev, ring)
        elif img.any():
            raise AssertionError(f"normalized differential escapes the lower term at (degree {n}, weight {w})")
    cx = GradedSliceComplex(ring, 0, x.d_max, dims, diffs, trusted=(0, max(x.d_max - 1, 0)))
    cx.validate()
    if with_basis:
        return NormalizedData(cx, basis)
    return cx


def _unit_pivots(rows: np.ndarray) -> np.ndarray | None:
    """The leading column of each row of the Howell basis ``rows`` when
    every leading entry is 1, else None.  Such a basis is free, and a
    Howell form is zero above each pivot 1, so its rows restricted to
    these columns are the identity."""
    lead = (rows != 0).argmax(axis=1)
    return lead if (rows[np.arange(rows.shape[0]), lead] == 1).all() else None


def _face_blocks(x: SimplicialModule, slices: list) -> SparseMatrix:
    """The canonical block-diagonal matrix whose blocks are [d_0 | ... |
    d_{n-1}] on the ``slices`` (n, w) of ``x``, in their order: the
    columns of d_i are offset by i * dim X_{n-1,w}, and a block with n = 0
    has no columns.

    It comes from one pass over the face triples, row-major by
    construction.  The faces d_0 ... d_{n-1} of a slice are merged by a
    counting sort on (row, i): every face row is a run of entries in
    increasing column, and the runs of one row follow one another in
    increasing i, so each run moves to the number of entries of the runs
    before it."""
    index = {key: k for k, key in enumerate(slices)}
    row_at, col_at = [0], [0]  # where each block starts
    for n, w in slices:
        row_at.append(row_at[-1] + x.dim(n, w))
        col_at.append(col_at[-1] + n * x.dim(n - 1, w))
    parts = []  # (row offset, column offset, i, d_i)
    for (n, i, w), f in x.faces.items():
        k = index.get((n, w))
        if k is not None and i < n:
            parts.append((row_at[k], col_at[k] + i * x.dim(n - 1, w), i, f))
    counts = [f.vals.size for *_, f in parts]
    rows, cols, vals = (np.concatenate([f[k] for *_, f in parts] or [np.zeros(0, np.int64)]) for k in range(3))
    rows += np.array([part[0] for part in parts], dtype=np.int64).repeat(counts)
    cols += np.array([part[1] for part in parts], dtype=np.int64).repeat(counts)
    steps = max(x.d_max, 1)  # i < n <= d_max
    key = np.array([part[2] for part in parts], dtype=np.int64).repeat(counts)
    key += rows * steps
    count = np.bincount(key, minlength=row_at[-1] * steps)
    shift = count.cumsum()
    shift -= count  # where the entries of each (row, i) start
    del count
    head = np.ones(key.size, dtype=bool)  # the first entry of each face row
    np.not_equal(key[1:], key[:-1], out=head[1:])
    first = head.nonzero()[0]
    shift[key[first]] -= first
    del head, first
    place = shift[key]
    del key, shift
    place += np.arange(place.size)
    for a in (rows, cols, vals):
        a[place] = a.copy()
    return canonical(rows, cols, vals, (row_at[-1], col_at[-1]), x.ring.modulus)


# ---------------------------------------------------------------------------
# Kan transform


def kan_transform(c: GradedSliceComplex, d_max: int | None = None) -> SimplicialModule:
    """Quasi-inverse to the normalized complex: the row q = 0 of the double
    Kan transform of C, with the triples of C as its horizontal blocks.

    K(C)_n sums C_p over monotone surjections [n] ->> [p], and d_i, s_i act
    by the rule of ``_kan_table``.  C is validated as that double complex, so
    a C with d∘d != 0 raises ValueError naming the block where it fails.
    The faces are built here in one pass, the degeneracies in one pass when
    the first of them is read.
    """
    if c.n_min < 0:
        raise ValueError("Kan transform needs a complex concentrated in degrees >= 0")
    if d_max is None:
        d_max = c.n_max
    dc = DoubleComplex(c.ring, {(p, 0, w): d for (p, w), d in c.dims.items()},
                       {(p, 0, w): d for (p, w), d in c.diffs.items()}, {})
    row = double_kan(dc, d_max, 0)
    return _simplicial(row, "h", d_max, {(n, w): d for (n, _, w), d in row.dims.items()}, c.weights())


def _simplicial(b: "BisimplicialModule", directions: str, d_max: int, dims: dict, weights: list) -> SimplicialModule:
    """The operators of ``b`` in ``directions`` on the bidegrees (n, 0) ("h",
    a row) or (n, n) ("hv", the diagonal): faces now, degeneracies on read."""
    faces = {(m, i, w): op for (m, _, i, w), op in b._operators(True, directions).items()}
    keys = [(n, i, w) for w in weights for n in range(d_max) for i in range(n + 1)]
    degens = OnRequest(keys, lambda: {(n, i, w): b._operator(n, n * (directions == "hv"), i, w, False, directions)
                                      for (n, i, w) in keys})
    return SimplicialModule(b.ring, d_max, dims, faces, degens)


@lru_cache(maxsize=None)
def _kan_table(top: int, face: bool) -> np.ndarray:
    """The Kan block rules of every d_i (or s_i) on K_m, m <= top, as
    read-only int64 rows (m, p, e, i, kind, e') sorted by (m, p, e, i).

    Factor e o d_i (or e o s_i) as mono o e'.  The block of summand e is
    the identity into summand e' when mono is the identity (kind 0), the
    differential (-1)^p d: C_p -> C_{p-1} into summand e' when mono is the
    last face [p - 1] -> [p] (kind 1), and zero otherwise, with no row.
    Here e: [m] ->> [p] and e': [m -/+ 1] ->> [p - kind] are surjection
    indices, and the rules are computed on their step sets
    (``_surjection_codes``).  With e(-1) = -1
    and e(m + 1) = p + 1, e o d_i misses the value e(i) exactly when both
    i and i + 1 are steps.  It misses nothing (the identity, to the steps
    of e with those after i moved one down), or it misses p, which happens
    only for i = m, where the mono factor is the last face (the
    differential, to the steps of e but m), or the block is zero.
    e o s_i is onto, with the steps of e after i moved one up."""
    rows = []
    for m in range(1 if face else 0, top + 1):
        steps, p, e, _ = _surjection_codes(m)
        i = np.arange(m + 1)
        low = (1 << i) - 1  # the steps 1 ... i
        if face:
            bounded = (steps << 1 | 1 | 1 << (m + 1))[:, None]  # bit j: j is a step, for 0 <= j <= m + 1
            missed = (bounded >> i & bounded >> (i + 1) & 1).astype(bool)
            kind = missed & (i == m)
            new = np.where(kind, steps[:, None] & ~(1 << (m - 1)), steps[:, None] & low | (steps[:, None] & ~low) >> 1)
            keep = ~missed | kind
        else:
            kind = np.zeros((steps.size, m + 1), dtype=bool)
            new = steps[:, None] & low | (steps[:, None] & ~low) << 1
            keep = ~kind
        index = _surjection_codes(m - 1 if face else m + 1)[3]
        grid = [np.broadcast_to(a, kind.shape)[keep] for a in (m, p[:, None], e[:, None], i, kind, index[new])]
        rows.append(np.stack(grid, axis=1))
    return _read_only(np.concatenate(rows or [np.zeros((0, 6), dtype=np.int64)]).astype(np.int64))


@lru_cache(maxsize=None)
def _surjection_codes(m: int) -> tuple[np.ndarray, ...]:
    """(steps, p, e, index) for the surjections e: [m] ->> [p], ordered by p
    and then by index e.  ``steps`` holds the step set {j : e(j) = e(j - 1)
    + 1} as the bits j - 1; e is the rank of the set among the sets of its
    size in lexicographic order, which is decreasing order of the
    bit-reversed set.  ``index[steps]`` is e."""
    codes = np.arange(1 << m, dtype=np.int64)
    bits = codes[:, None] >> np.arange(m) & 1
    p = bits.sum(axis=1)
    order = np.lexsort((-(bits @ (1 << np.arange(m)[::-1])), p))
    first = np.searchsorted(p[order], p[order])  # the first surjection onto each [p]
    index = np.empty_like(codes)
    index[order] = np.arange(codes.size) - first
    return _read_only(codes[order]), _read_only(p[order]), _read_only(index[order]), _read_only(index)


@lru_cache(maxsize=None)
def _identity_table(top: int) -> np.ndarray:
    """The rows (n, q, r, 0, 0, r), n <= top: on the side an operator in one
    direction leaves alone, every surjection r: [n] ->> [q] stays."""
    rows = [(n, q, r, 0, 0, r) for n in range(top + 1) for q in range(n + 1) for r in range(comb(n, q))]
    return _read_only(np.array(rows, dtype=np.int64).reshape(-1, 6))


@lru_cache(maxsize=None)
def _binomials(top: int) -> np.ndarray:
    """C(m, p), the number of surjections [m] ->> [p], for m, p <= top."""
    return _read_only(np.array([[comb(m, p) for p in range(top + 1)] for m in range(top + 1)], dtype=np.int64))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """arange(s, s + c) for each start s and count c, concatenated."""
    ends = counts.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + (starts - ends + counts).repeat(counts)


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (a, b) with left[a] == right[b], by a, then b."""
    order = right.argsort(kind="stable")
    lo = right[order].searchsorted(left)
    counts = right[order].searchsorted(left, side="right") - lo
    return np.arange(left.size).repeat(counts), order[_ranges(lo, counts)]


# ---------------------------------------------------------------------------
# bisimplicial modules


class BisimplicialModule:
    """Double Kan transform of a double complex; maps are built on request.

    X_{m,n,w} sums D_{p,q,w} over pairs of surjections e: [m] ->> [p] and
    r: [n] ->> [q] (indices as in ``_surjection_codes``); the summand (e, r)
    starts at ``bases[k, m, n, p, q] + (e C(n, q) + r) terms[k, p, q]``,
    w the k-th of ``term_weights`` and ``terms[k, p, q]`` = dim D_{p,q,w}.
    A horizontal operator acts on e and a vertical one on r by the rule
    ``_kan_table``, so each summand goes to at most one summand, by the
    identity or by (-1)^p D_h, resp. (-1)^q D_v.  ``_operators`` builds all
    operators of one kind and direction when the first is read.
    """

    def __init__(self, dc: DoubleComplex, p_max: int, q_max: int, dims: dict, term_weights: list,
                 terms: np.ndarray, bases: np.ndarray):
        self.dc = dc
        self.p_max = p_max
        self.q_max = q_max
        self.dims = dims  # (m, n, w) -> int
        self.term_weights = term_weights  # the weights of dc, ascending
        self.terms = terms  # [k, p, q] -> dim D_{p,q,w}
        self.bases = bases  # [k, m, n, p, q] -> offset of the first summand of D_{p,q,w} in X_{m,n,w}
        self._blocks = {}  # see _block
        self._built = {}  # see _operators

    @property
    def ring(self) -> ModRing:
        return self.dc.ring

    def dim(self, p, q, w):
        return self.dims.get((p, q, w), 0)

    def weights(self):
        return sorted({w for (_, _, w) in self.dims})

    def _operator(self, m, n, i, w, face: bool, directions: str) -> SparseMatrix:
        """d_i or s_i on X_{m,n,w} in the ``directions`` "h", "v" or "hv"
        (the diagonal: vertically, then horizontally) as a canonical triple;
        zero outside the window."""
        step = -1 if face else 1
        shape = (self.dim(m, n, w), self.dim(m + step * ("h" in directions), n + step * ("v" in directions), w))
        return (self._operators(face, directions).get((m, n, i, w))
                or canonical(*SparseMatrix(shape=shape), self.ring.modulus))

    def _operators(self, face: bool, directions: str) -> dict:
        """(m, n, i, w) -> every nonzero d_i (face) or s_i of the window in the
        ``directions`` "h", "v" or "hv" (the diagonal), built on first use."""
        if (face, directions) not in self._built:
            self._built[face, directions] = self._build(face, directions)
        return self._built[face, directions]

    def _build(self, face: bool, directions: str) -> dict:
        """Every operator of ``_operators`` in one array pass.

        The rules (m, p, e, i, kind, e') of a side come from ``_kan_table``
        where the operator acts, from ``_identity_table`` where it does not;
        the diagonal pairs the Kan tables on (m = n, i), one direction pairs
        all rows.  In each weight a pair sends summand (e, r) of D_{p,q} to
        (e', r') of D_{p - kind_h, q - kind_v} by a block of ``_store`` moved
        to their offsets.  Each row lies in one block, so pairs sorted by
        operator and offset give row-major operators."""
        h, v = "h" in directions, "v" in directions
        P, Q, W = self.p_max, self.q_max, len(self.term_weights)
        top = max(P, Q) + 1
        # a degeneracy raises the degree, so its source is at most P - 1 (Q - 1)
        H = _kan_table(P - (not face), face) if h else _identity_table(P)
        V = _kan_table(Q - (not face), face) if v else _identity_table(Q)
        a, b = _join(H[:, 0] * top + H[:, 3], V[:, 0] * top + V[:, 3]) if h and v else _join(H[:, 0] * 0, V[:, 0] * 0)
        k = np.arange(W).repeat(a.size)  # every pair in every weight where its source summand is
        a, b = np.tile(a, W), np.tile(b, W)
        here = self.terms[k, H[a, 1], V[b, 1]] > 0
        k, (m, p, e, i_h, kh, e2), (n, q, r, i_v, kv, r2) = k[here], H[a[here]].T, V[b[here]].T
        step = 1 if face else -1
        binom = _binomials(top)
        off = self.bases[k, m, n, p, q] + (e * binom[n, q] + r) * self.terms[k, p, q]
        m2, n2, p2, q2 = m - step * h, n - step * v, p - kh, q - kv
        off2 = self.bases[k, m2, n2, p2, q2] + (e2 * binom[n2, q2] + r2) * self.terms[k, p2, q2]
        store_rows, store_cols, store_vals, starts, counts = self._store(bool(kh.any()), bool(kv.any()))
        block = (k, p, q, kh + 2 * kv)
        i = i_h if h else i_v
        op = ((k * (P + 1) + m) * (Q + 1) + n) * top + i
        nz = counts[block].nonzero()[0]
        order = nz[np.lexsort((off[nz], op[nz]))]  # by operator (w, m, n, i), then offset
        count = counts[block][order]
        at = _ranges(starts[block][order], count)
        rows = off[order].repeat(count) + store_rows[at]
        cols = off2[order].repeat(count) + store_cols[at]
        vals = store_vals[at]
        first = np.flatnonzero(np.diff(op[order], prepend=-1))  # the first pair of each operator
        bounds = np.append(count.cumsum()[first] - count[first], count.sum()).tolist()
        k, m, n, i = (x[order][first] for x in (k, m, n, i))
        # X_{m,n,w} ends with its one summand of D_{0,0,w}
        shapes = zip(*((self.bases[k, x, y, 0, 0] + self.terms[k, 0, 0]).tolist()
                       for x, y in ((m, n), (m - step * h, n - step * v))))
        keys = zip(m.tolist(), n.tolist(), i.tolist(), np.array(self.term_weights)[k].tolist())
        return {key: canonical(rows[lo:hi], cols[lo:hi], vals[lo:hi], shape, self.ring.modulus)
                for key, shape, lo, hi in zip(keys, shapes, bounds, bounds[1:])}

    def _store(self, h: bool, v: bool):
        """(rows, cols, vals, starts, counts): the entries of an identity as
        large as any D_{p,q,w}, then of each nonzero block "h" (if ``h``),
        "v" (if ``v``) and "vh" (if both), concatenated; the block of kind 0
        (I), 1, 2 or 3 leaving D_{p,q,w}, w the k-th weight, is the run of
        ``counts[k, p, q, kind]`` entries from ``starts[k, p, q, kind]``."""
        starts = np.zeros((*self.terms.shape, 4), dtype=np.int64)
        counts = np.zeros_like(starts)
        counts[..., 0] = self.terms
        eye = np.arange(self.terms.max(initial=0))
        parts, size = [(eye, eye, np.ones_like(eye))], eye.size
        for k, p, q in zip(*(x.tolist() for x in self.terms.nonzero())):
            for code, kind in [(1, "h")] * h + [(2, "v")] * v + [(3, "vh")] * (h and v):
                blk = self._block(p, q, self.term_weights[k], kind)
                starts[k, p, q, code], counts[k, p, q, code] = size, blk.vals.size
                parts.append(blk[:3])
                size += blk.vals.size
        return (*(np.concatenate(col) for col in zip(*parts)), starts, counts)

    def _block(self, p: int, q: int, w: int, kind: str) -> SparseMatrix:
        """The non-identity block leaving the summands of D_{p,q}, canonical.

        "h" is (-1)^p D_h, "v" is (-1)^q D_v and "vh" is (-1)^q D_v followed
        by (-1)^p D_h from D_{p,q-1}.  Each is computed once per (p, q, w).
        """
        key = (p, q, w, kind)
        blk = self._blocks.get(key)
        if blk is None:
            m = self.ring.modulus
            if kind == "vh":
                blk = sparse_product(self._block(p, q, w, "v"), self._block(p, q - 1, w, "h"), m)
            else:
                stored, sign, target = ((self.dc.horiz, p, (p - 1, q, w)) if kind == "h"
                                        else (self.dc.vert, q, (p, q - 1, w)))
                blk = stored.get((p, q, w), SparseMatrix(shape=(self.dc.dim(p, q, w), self.dc.dim(*target))))
                if sign % 2:
                    blk = blk._replace(vals=m - blk.vals)
            self._blocks[key] = blk
        return blk

    def validate(self) -> None:
        """Row/column simplicial identities plus horizontal-vertical commutation."""
        r = self.ring
        op = self._operator
        for w in self.weights():
            # every row q (directions "h") and every column p ("v") as a simplicial module
            for directions, top, lines in (("h", self.p_max, self.q_max), ("v", self.q_max, self.p_max)):
                for j in range(lines + 1):
                    at = (lambda t: (t, j)) if directions == "h" else (lambda t: (j, t))
                    SimplicialModule(
                        r, top, {(t, 0): self.dim(*at(t), w) for t in range(top + 1)},
                        {(t, i, 0): op(*at(t), i, w, True, directions) for t in range(1, top + 1) for i in range(t + 1)},
                        {(t, i, 0): op(*at(t), i, w, False, directions) for t in range(top) for i in range(t + 1)},
                    ).validate()
            for p in range(1, self.p_max + 1):
                for q in range(1, self.q_max + 1):
                    hf = [op(p, q, i, w, True, "h") for i in range(p + 1)]
                    hf_below = [op(p, q - 1, i, w, True, "h") for i in range(p + 1)]
                    vf = [op(p, q, j, w, True, "v") for j in range(q + 1)]
                    vf_left = [op(p - 1, q, j, w, True, "v") for j in range(q + 1)]
                    for i in range(p + 1):
                        for j in range(q + 1):
                            hv = sparse_product(hf[i], vf_left[j], r.modulus)
                            vh = sparse_product(vf[j], hf_below[i], r.modulus)
                            if hv != vh:
                                raise ValueError(f"h/v faces do not commute at {(p, q, i, j, w)}")


def diagonal(b: BisimplicialModule) -> SimplicialModule:
    """X_n = B_{n,n} with d_i = d_i^h d_i^v and s_i = s_i^h s_i^v.

    Each operator is composed summand by summand from the two Kan rules; no
    face or degeneracy of ``b`` is built.  The faces are built here in one
    pass, the degeneracies in one pass when the first of them is read.
    """
    if b.p_max != b.q_max:
        raise ValueError("diagonal needs a square window")
    n_max = b.p_max
    dims = {(n, w): b.dim(n, n, w) for n in range(n_max + 1) for w in b.weights() if b.dim(n, n, w)}
    return _simplicial(b, "hv", n_max, dims, b.weights())


def double_kan(dc, p_max: int, q_max: int) -> BisimplicialModule:
    """Kan transform in both directions of a double complex with commuting
    differentials: X_{m,n} = sum over pairs of surjections of D_{p,q}.

    Validates ``dc`` and lays out the summands; maps are built on request.
    The (p, q) blocks of X_{m,n,w} hold C(m, p) C(n, q) summands each and
    follow one another by (p, q) descending, so their offsets are one
    cumulative sum.
    """
    assert isinstance(dc, DoubleComplex)
    dc.validate()
    weights = sorted({w for (_, _, w) in dc.terms})
    shape = (len(weights), p_max + 1, q_max + 1)
    terms = np.array([dc.dim(p, q, w) for w in weights for p in range(p_max + 1) for q in range(q_max + 1)],
                     dtype=np.int64).reshape(shape)
    binom = _binomials(max(p_max, q_max) + 1)
    # [k, m, n, p, q] -> C(m, p) C(n, q) dim D_{p,q,w}, and flat by (p, q) descending
    sizes = binom[:p_max + 1, None, :p_max + 1, None] * binom[None, :q_max + 1, None, :q_max + 1] * terms[:, None, None]
    flat = sizes[..., ::-1, ::-1].reshape(*shape, (p_max + 1) * (q_max + 1))
    ends = flat.cumsum(axis=-1)
    bases = np.ascontiguousarray((ends - flat).reshape(sizes.shape)[..., ::-1, ::-1])
    dims = {(m, n, weights[k]): int(total) for (k, m, n), total in np.ndenumerate(ends[..., -1]) if total}
    return BisimplicialModule(dc, p_max, q_max, dims, weights, terms, bases)


# ---------------------------------------------------------------------------
# shuffles


def shuffles(i: int, j: int):
    """(i, j)-shuffles of {0..i+j-1} as (mu, nu, sign); mu has i elements."""
    universe = list(range(i + j))
    for mu in itertools.combinations(universe, i):
        nu = tuple(k for k in universe if k not in mu)
        inversions = sum(1 for a in mu for b in nu if a > b)
        yield mu, nu, (-1) ** inversions
