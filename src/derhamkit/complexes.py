"""Weight-sliced chain complexes, total complexes and homology.

A :class:`GradedSliceComplex` stores, per homological degree, a weight-graded
free module over Z/p^n together with one sparse differential (an
``exactlin.SparseMatrix`` of the slice's shape) per weight slice; dense
matrices are built only on request.  Degrees outside the stored window are
structurally zero; a separate trust window marks where homology is honest
(truncated resolutions trust one degree less than they store).

A :class:`DoubleComplex` stores its blocks in the same way, and
:func:`total_complex` is the one place that knows how blocks are ordered,
offset and signed: it concatenates the block triples and checks the result
once for d o d = 0, which is the whole double-complex check.

Homology is taken on the unit-contracted complex (:func:`reduce_complex`).
``homology_quotient`` carries representatives and coordinates back to the
original basis, in an ``exactlin.SliceQuotient``, re-exported here;
``slice_homology`` reads the invariant factors alone.
With filtration columns on the basis the contraction cancels only within a
column, so one contraction answers every quotient by a filtration step.

Homological (lower) indexing throughout; cohomological objects are stored
negated.
"""

from __future__ import annotations

import heapq
import itertools
from functools import cached_property
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .exactlin import (
    ModRing,
    SliceQuotient,
    SparseMatrix,
    as_sparse,
    howell_form,  # noqa: F401 -- perfbench/tests reaches the kernel through this module
    left_kernel,
    midentity,
    mzeros,
    mmul,
    quotient_factors,
    sparse_product,
    v_int,
)

__all__ = [
    "GradedSliceComplex",
    "DoubleComplex",
    "HomologyReport",
    "SliceQuotient",
    "Contraction",
    "reduce_complex",
    "slice_homology",
    "homology_report",
    "total_complex",
]


class WindowError(ValueError):
    pass


def slice_maps(maps: dict, shape: Callable[..., tuple[int, int]], m: int) -> dict:
    """``maps`` (dense or triples) in canonical form, nonzero only; a map not
    of shape ``shape(*key)``, or with an entry outside it, is an error."""
    out = {}
    for key, mtx in maps.items():
        try:
            a = as_sparse(mtx, m)
        except ValueError as err:
            raise ValueError(f"the map at {key}: {err}") from None
        want = shape(*key)
        if a.shape != want:
            raise ValueError(f"the map at {key} is {a.shape[0]} x {a.shape[1]}, "
                             f"its slice is {want[0]} x {want[1]}")
        if a.vals.size:
            out[key] = a
    return out


class GradedSliceComplex:
    def __init__(self, ring: ModRing, n_min: int, n_max: int, dims: dict, diffs: dict,
                 columns: dict | None = None, trusted: tuple[int, int] | None = None):
        self.ring = ring
        self.n_min = n_min
        self.n_max = n_max
        self.dims = {k: v for k, v in dims.items() if v}  # (degree, weight) -> int
        # (degree, weight) -> SparseMatrix of C_{n,w} -> C_{n-1,w}, nonzero
        # only; the constructor also takes dense matrices and triples in any form
        self.diffs = slice_maps(diffs, lambda n, w: (self.dim(n, w), self.dim(n - 1, w)), ring.modulus)
        # optional (degree, weight) -> nondecreasing int64 array, the column of
        # each basis element; d must never lower it (see reduce_complex)
        self.columns = {} if columns is None else columns
        self.trusted = (n_min, n_max) if trusted is None else trusted  # degrees with honest homology
        # weight -> Contraction, made by the first homology_quotient call there
        self._contractions = {}

    def dim(self, n: int, w: int) -> int:
        return self.dims.get((n, w), 0)

    def weights(self) -> list[int]:
        return sorted({w for (_, w) in self.dims})

    def degrees(self) -> range:
        return range(self.n_min, self.n_max + 1)

    def diff(self, n: int, w: int) -> np.ndarray:
        """The dense reduced int64 matrix of d: C_{n,w} -> C_{n-1,w}."""
        return (self.diffs.get((n, w)) or SparseMatrix(shape=(self.dim(n, w), self.dim(n - 1, w)))).dense()

    def validate(self) -> None:
        """Assert d o d == 0 on every slice."""
        bad = self._nonzero_square()
        if bad is not None:
            raise ValueError(f"d^2 != 0 at degree {bad[0]}, weight {bad[1]}")

    def _nonzero_square(self) -> tuple[int, int, SparseMatrix] | None:
        """(n, w, d_n d_{n-1}) for the first slice where d o d != 0, or None."""
        for (n, w) in self.dims:
            d1, d0 = self.diffs.get((n, w)), self.diffs.get((n - 1, w))
            if d1 is not None and d0 is not None:
                square = sparse_product(d1, d0, self.ring.modulus)
                if square.vals.size:
                    return n, w, square
        return None

    def in_trust_window(self, n: int) -> bool:
        return self.trusted[0] <= n <= self.trusted[1]

    def corner(self, level: int, n_min: int) -> "GradedSliceComplex":
        """The quotient by the columns >= ``level``, from degree ``n_min`` up.

        Those columns span a subcomplex, as d never lowers the column, and
        the columns of a slice are nondecreasing, so the quotient is the
        leading corner of every slice and differential.
        """
        dims = {key: size for key, cols in self.columns.items()
                if key[0] >= n_min and (size := int(np.searchsorted(cols, level)))}
        diffs = {}
        for (n, w), d in self.diffs.items():
            if (n, w) in dims and (n - 1, w) in dims:
                kept = (d.rows < dims[(n, w)]) & (d.cols < dims[(n - 1, w)])
                diffs[(n, w)] = SparseMatrix(d.rows[kept], d.cols[kept], d.vals[kept],
                                             (dims[(n, w)], dims[(n - 1, w)]))
        return GradedSliceComplex(self.ring, n_min, self.n_max, dims, diffs,
                                  {key: self.columns[key][:size] for key, size in dims.items()}, self.trusted)

    def contraction(self, weight: int) -> "Contraction":
        """``reduce_complex`` at one weight, made on first use and kept."""
        if weight not in self._contractions:
            self._contractions[weight] = reduce_complex(self, weight)
        return self._contractions[weight]

    @cached_property
    def contracted(self) -> "GradedSliceComplex":
        """The complex the contractions of every weight of a complex with
        columns leave, with the columns of the survivors; its corner below
        a level is a contraction of the same corner of this complex."""
        dims, diffs, columns = {}, {}, {}
        for w in self.weights():
            red = self.contraction(w)
            for n, keep in red.keep.items():
                dims[(n, w)] = len(keep)
                columns[(n, w)] = self.columns[(n, w)][keep]
            diffs.update(((n, w), d) for n, d in red.diffs.items())
        return GradedSliceComplex(self.ring, self.n_min, self.n_max, dims, diffs, columns, self.trusted)


# ---------------------------------------------------------------------------
# unit-pivot contraction


class Contraction:
    """One weight of a complex with its unit pivots cancelled.

    A unit entry phi = d_n(b)_a splits off the contractible piece
    b -> d_n(b) (the Gaussian elimination lemma: Bar-Natan, arXiv
    math/0606318; Skoeldberg, Trans. AMS 358, 2006).  What is left has the
    basis elements ``keep[n]`` (original indices, ascending) in degree n
    and the differentials ``diffs[n]`` between them.  ``project`` (f: C ->
    C') and ``lift`` (g: C' -> C) are chain maps with f g = id and g f
    homotopic to id, so they are inverse isomorphisms on homology.
    ``quotient(n)`` is H_n of what is left, with representatives and
    coordinates; ``factors(n)`` is its invariant factors alone, which is
    all ``slice_homology`` reads.

    Cancelling (b, a), with gamma the rest of column a and delta the rest
    of row b of d_n, changes d_n on the survivors to eps - gamma phi^-1
    delta; f subtracts u_a phi^-1 delta from a degree-(n-1) vector and g
    sets the b coordinate of a degree-n vector to -phi^-1 (v . gamma).
    ``_f_steps[k]`` holds (a, phi^-1, delta) for the cancellations whose a
    lies in degree k, delta a ``{column: value}`` dict; ``_g_steps[k]``
    holds (b, phi^-1, rows of gamma, values of gamma) for those whose b
    lies there, as two lists.  Both are in the order the cancellations were
    made, kept as the elimination left them: ``project`` and ``lift`` make
    arrays of a step only when they apply it.
    """

    def __init__(self, ring: ModRing, dims: dict, keep: dict, diffs: dict, _f_steps: dict, _g_steps: dict):
        self.ring = ring
        self.dims = dims  # degree -> dimension of the original slice
        self.keep = keep  # degree -> ascending int64 array of surviving indices
        # degree -> SparseMatrix of the contracted d_n (rows keep[n], columns keep[n-1]), nonzero only
        self.diffs = diffs
        self._f_steps = _f_steps
        self._g_steps = _g_steps

    def dim(self, n: int) -> int:
        keep = self.keep.get(n)
        return 0 if keep is None else len(keep)

    def diff(self, n: int) -> np.ndarray:
        return (self.diffs.get(n) or SparseMatrix(shape=(self.dim(n), self.dim(n - 1)))).dense()

    def project(self, n: int, vectors: np.ndarray) -> np.ndarray:
        """f on degree-n row vectors (one vector or a matrix of rows)."""
        m = self.ring.modulus
        v = np.array(vectors, dtype=np.int64) % m
        single = v.ndim == 1
        if single:
            v = v.reshape(1, -1)
        for a, inv, delta in self._f_steps.get(n, ()):
            c = v[:, a] * inv % m
            if c.any():
                idx = np.fromiter(delta, np.int64, len(delta))
                v[:, idx] = (v[:, idx] - c[:, None] * np.fromiter(delta.values(), np.int64, len(delta))) % m
        out = v[:, self.keep[n]] if n in self.keep else v[:, :0]
        return out[0] if single else out

    def lift(self, n: int, vectors: np.ndarray) -> np.ndarray:
        """g on a matrix of degree-n rows of the contracted complex."""
        m = self.ring.modulus
        small = np.asarray(vectors, dtype=np.int64)
        out = mzeros(small.shape[0], self.dims.get(n, 0))
        if not small.shape[0]:
            return out
        out[:, self.keep[n]] = small
        for b, inv, idx, vals in reversed(self._g_steps.get(n, ())):
            if idx:
                out[:, b] = -mmul(out[:, idx], np.array(vals, dtype=np.int64), self.ring) * inv % m
        return out

    def quotient(self, n: int) -> SliceQuotient:
        """cycles/boundaries of degree n of the contracted complex.

        When d_n and d_(n+1) are both zero (every contracted differential
        is, over F_p), H_n is free on the survivors: each factor is p^n and
        the cycles, representatives and coordinate change are identities,
        as ``from_cycles_boundaries`` finds them with no elimination run.
        """
        dim = self.dim(n)
        if dim == 0:
            return SliceQuotient.from_cycles_boundaries(mzeros(0, 0), mzeros(0, 0), self.ring)
        if n not in self.diffs and n + 1 not in self.diffs:
            m = self.ring.modulus
            return SliceQuotient(self.ring, dim, midentity(dim), [m] * dim, midentity(dim),
                                 midentity(dim), [m] * dim)
        return SliceQuotient.from_cycles_boundaries(self._cycles(n), self.diff(n + 1), self.ring)

    def factors(self, n: int) -> list[int]:
        """The ``factors`` of ``quotient(n)``, with no representatives: the
        relations among the cycles, then ``local_smith`` without a
        transform (``exactlin.quotient_factors``)."""
        dim = self.dim(n)
        if dim == 0:
            return []
        if n not in self.diffs and n + 1 not in self.diffs:
            return [self.ring.modulus] * dim
        return quotient_factors(self._cycles(n), self.diff(n + 1), self.ring)

    def _cycles(self, n: int) -> np.ndarray:
        """A Howell basis of the degree-n cycles of the contracted complex."""
        d_here = self.diffs.get(n)
        return left_kernel(d_here, self.ring) if d_here is not None else midentity(self.dim(n))


def reduce_complex(cx: GradedSliceComplex, weight: int) -> Contraction:
    """Cancel unit pivots of the differentials of ``cx`` at one weight.

    The differentials are sparse ``{column: value}`` rows throughout, so no
    slice is made dense.  Pivot rule: the shortest row that holds a unit
    (ties to the lower degree, then the lower row index), and in it the
    unit whose column has the fewest nonzeros (ties to the lower column).
    If ``cx`` has ``columns``, a pivot (b, a) must also lie in one column.
    Cancelling (b, a) updates each other row x with an entry at a by
    x - gamma_x phi^-1 d(b), at a cost of about |column a| x |row b|, and
    drops row b and column a of d_n, row a of d_(n-1) and column b of
    d_(n+1).  When a is the only entry of row b, as in most cancellations
    on small slices, each row x only loses its entry at a.  Every row that
    changes is queued again, so the loop ends only when no pivot is left:
    without columns, over F_p every contracted differential is zero, over
    Z/p^n every entry left is divisible by p.
    With columns, gamma has rows in columns <= col(a) and delta entries in
    columns >= col(b), so d, f, g and the homotopy keep every F^k (columns
    >= k): the filtered Gaussian elimination lemma (Mischaikow-Nanda,
    Discrete Comput. Geom. 50, 2013).
    """
    ring = cx.ring
    m, p = ring.modulus, ring.p
    dims = {n: dim for n in cx.degrees() if (dim := cx.dim(n, weight))}
    rows: dict = {n: {} for n in dims}  # degree -> row -> {column: value}
    cols: dict = {n: {} for n in dims}  # degree -> column -> rows nonzero there
    heap = []  # (row length, degree, row), one entry per length a row has had
    for n in dims:
        d = cx.diffs.get((n, weight))
        if d is None:
            continue
        rn, cn = rows[n], cols[n]
        last = -1
        for b, a, x in zip(d.rows.tolist(), d.cols.tolist(), d.vals.tolist()):
            if b != last:  # d is row-major, so each row is one run of entries
                row = rn[b] = {}
                last = b
            row[a] = x
            if a in cn:
                cn[a].add(b)
            else:
                cn[a] = {b}
        heap.extend((len(row), n, b) for b, row in rn.items())
    heapq.heapify(heap)
    column = {n: cx.columns[(n, weight)].tolist() for n in dims} if cx.columns else None

    def touched(n: int, x: int) -> None:
        row = rows[n][x]
        if row:
            heapq.heappush(heap, (len(row), n, x))
        else:
            del rows[n][x]

    dropped = {n: set() for n in dims}
    f_steps: dict = {}
    g_steps: dict = {}
    while heap:
        length, n, b = heapq.heappop(heap)
        rn, cn = rows[n], cols[n]
        delta = rn.get(b)  # row b, then the rest of it once a is popped
        if delta is None or len(delta) != length:
            continue
        if column is not None:
            here, below = column[n][b], column[n - 1]
        a = None
        for c, x in delta.items():
            if x % p and (column is None or below[c] == here):
                k = len(cn[c])
                if a is None or k < fewest or (k == fewest and c < a):
                    a, fewest = c, k
        if a is None:
            continue
        inv = pow(delta.pop(a), -1, m)
        del rn[b]
        for e in delta:
            cn[e].discard(b)
        gamma_rows = sorted(cn.pop(a) - {b})
        gamma = [rn[x].pop(a) for x in gamma_rows]
        if delta:
            for x, gx in zip(gamma_rows, gamma):
                row = rn[x]
                c = gx * inv % m
                for e, de in delta.items():
                    y = (row.get(e, 0) - c * de) % m
                    if y:
                        if e not in row:
                            cn[e].add(x)
                        row[e] = y
                    elif e in row:
                        del row[e]
                        cn[e].discard(x)
                touched(n, x)
        else:  # each row x only loses its entry at a
            for x in gamma_rows:
                touched(n, x)
        # a and b leave the neighbouring differentials with the cancelled pair
        for e in rows[n - 1].pop(a, {}):
            cols[n - 1][e].discard(a)
        for y in cols.get(n + 1, {}).pop(b, ()):
            del rows[n + 1][y][b]
            touched(n + 1, y)
        dropped[n].add(b)
        dropped[n - 1].add(a)
        f_steps.setdefault(n - 1, []).append((a, inv, delta))
        g_steps.setdefault(n, []).append((b, inv, gamma_rows, gamma))

    keep = {n: np.array([i for i in range(dim) if i not in dropped[n]], dtype=np.int64)
            for n, dim in dims.items()}
    diffs = {}
    for n, rn in rows.items():
        if not rn:
            continue
        bs, as_, xs = zip(*((b, a, x) for b, row in rn.items() for a, x in row.items()))
        diffs[n] = as_sparse(SparseMatrix(np.searchsorted(keep[n], bs), np.searchsorted(keep[n - 1], as_),
                                          np.array(xs, dtype=np.int64), (len(keep[n]), len(keep[n - 1]))), m)
    return Contraction(ring, dims, keep, diffs, f_steps, g_steps)


def slice_homology(cx: GradedSliceComplex, degree: int, weight: int) -> list[int]:
    """Invariant factors of H_degree at one weight slice."""
    if not cx.in_trust_window(degree):
        raise WindowError(f"degree {degree} outside trust window {cx.trusted}")
    if cx.dim(degree, weight) == 0:
        return []
    return cx.contraction(weight).factors(degree)


def homology_quotient(cx: GradedSliceComplex, degree: int, weight: int) -> SliceQuotient:
    """H_degree at one weight, computed on the contracted complex.

    The contraction of each weight is made once per complex and reused
    across degrees.  ``gen_reps`` are lifted through g, so they are cycles
    of ``cx``; ``coords`` tests that a vector is a cycle of ``cx`` and
    reads the coordinates of its image under f.
    """
    dim_here = cx.dim(degree, weight)
    if dim_here == 0:
        return SliceQuotient.from_cycles_boundaries(mzeros(0, 0), mzeros(0, 0), cx.ring)
    red = cx.contraction(weight)
    small = red.quotient(degree)
    d_here = cx.diffs.get((degree, weight))
    m = cx.ring.modulus

    def to_contracted(v: np.ndarray) -> np.ndarray | None:
        if d_here is not None and sparse_product(as_sparse(v, m), d_here, m).vals.size:
            return None  # not a cycle
        return red.project(degree, v)

    return SliceQuotient(small.ring, dim_here, small.cycles, small.factors, red.lift(degree, small.gen_reps),
                         small._vmat, small._all_factors, to_contracted)


class HomologyReport(NamedTuple):
    ring: str
    entries: dict  # (degree, weight) -> {"factors": list[int], "length": int}
    trusted: tuple[int, int]

    def factors(self, degree: int, weight: int) -> list[int]:
        e = self.entries.get((degree, weight))
        return list(e["factors"]) if e else []

    def total_length(self, degree: int) -> int:
        return sum(e["length"] for (n, _), e in self.entries.items() if n == degree)


def homology_report(cx: GradedSliceComplex, degrees: Iterable[int] | None = None) -> HomologyReport:
    degs = list(degrees) if degrees is not None else [n for n in cx.degrees() if cx.in_trust_window(n)]
    entries = {}
    for n in degs:
        for w in cx.weights():
            fac = slice_homology(cx, n, w)
            if fac:
                entries[(n, w)] = {"factors": fac, "length": sum(v_int(d, cx.ring.p) for d in fac)}
    return HomologyReport(str(cx.ring), entries, tuple(cx.trusted))


# ---------------------------------------------------------------------------
# double and total complexes


class DoubleComplex:
    """First-quadrant-style double complex with commuting differentials.

    ``horiz[(p, q, w)]`` maps (p, q) -> (p-1, q) and ``vert[(p, q, w)]`` maps
    (p, q) -> (p, q-1), each stored as a :class:`SparseMatrix` of the shape
    ``terms`` gives (the constructor also takes dense matrices and triples
    in any form); ``h`` and ``v`` build the dense block on request.  The
    rows and columns must each square to zero and the two directions must
    commute; ``validate`` checks that through :func:`total_complex`.
    """

    def __init__(self, ring: ModRing, terms: dict, horiz: dict, vert: dict):
        m = ring.modulus
        self.ring = ring
        self.terms = terms  # (p, q, weight) -> dim
        self.horiz = slice_maps(horiz, lambda p, q, w: (self.dim(p, q, w), self.dim(p - 1, q, w)), m)
        self.vert = slice_maps(vert, lambda p, q, w: (self.dim(p, q, w), self.dim(p, q - 1, w)), m)

    def dim(self, p, q, w):
        return self.terms.get((p, q, w), 0)

    def h(self, p, q, w):
        return (self.horiz.get((p, q, w)) or SparseMatrix(shape=(self.dim(p, q, w), self.dim(p - 1, q, w)))).dense()

    def v(self, p, q, w):
        return (self.vert.get((p, q, w)) or SparseMatrix(shape=(self.dim(p, q, w), self.dim(p, q - 1, w)))).dense()

    def validate(self):
        total_complex(self)


def total_complex(dc: DoubleComplex) -> GradedSliceComplex:
    """Direct-sum total complex with the (-1)^p vertical sign twist.

    The blocks of a slice follow by ascending p, and each differential is
    the concatenation of the block triples moved to their offsets.  With the
    twist, d∘d of the result is zero exactly when d_h^2 = 0, d_v^2 = 0 and
    d_h d_v = d_v d_h, block by block; that one check runs on the result,
    and a failure names its kind and the block (p, q, w) it leaves from.
    """
    degrees = [p + q for (p, q, _) in dc.terms]
    offsets = {}  # (p, q, w) -> offset in the slice (p + q, w), nonzero terms only
    dims = {}
    for (p, q, w) in sorted(dc.terms, key=lambda t: (t[2], t[0] + t[1], t[0])):
        if dc.dim(p, q, w):
            offsets[(p, q, w)] = dims.get((p + q, w), 0)
            dims[(p + q, w)] = offsets[(p, q, w)] + dc.dim(p, q, w)
    diffs = {}
    # offsets lists the terms slice by slice, so each slice is one group
    for key, group in itertools.groupby(offsets.items(), lambda item: (item[0][0] + item[0][1], item[0][2])):
        parts = []
        for (p, q, w), off in group:
            for blocks, target, negate in ((dc.horiz, (p - 1, q, w), False), (dc.vert, (p, q - 1, w), p % 2)):
                d = blocks.get((p, q, w))
                if d is not None and target in offsets:
                    parts.append((d.rows + off, d.cols + offsets[target], -d.vals if negate else d.vals))
        if parts:
            diffs[key] = SparseMatrix(*(np.concatenate(part) for part in zip(*parts)),
                                      (dims[key], dims[(key[0] - 1, key[1])]))
    tot = GradedSliceComplex(dc.ring, min(degrees, default=0), max(degrees, default=0), dims, diffs)
    bad = tot._nonzero_square()
    if bad is not None:
        raise ValueError(f"not a double complex ({_fault(offsets, *bad)}): "
                         f"d^2 != 0 at degree {bad[0]}, weight {bad[1]}")
    return tot


def _fault(offsets: dict, n: int, w: int, square: SparseMatrix) -> str:
    """The kind and source block of the first nonzero entry of d_n d_{n-1}
    in a total complex laid out by ``offsets``."""

    def p_at(degree, index):  # p of the block whose slice rows hold ``index``
        return max((off, p) for (p, q, ww), off in offsets.items()
                   if p + q == degree and ww == w and off <= index)[1]

    p = p_at(n, square.rows[0])
    kind = ("vertical d^2 != 0", "horizontal and vertical differentials do not commute",
            "horizontal d^2 != 0")[p - p_at(n - 2, square.cols[0])]
    return f"{kind} at {(p, n - p, w)}"
