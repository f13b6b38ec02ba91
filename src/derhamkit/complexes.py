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

Homology is taken on the unit-contracted complex (:func:`reduce_complex`),
with representatives and coordinates carried back to the original basis.

Homological (lower) indexing throughout; cohomological objects are stored
negated.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .exactlin import (
    ModRing,
    SparseMatrix,
    _span_solver,
    as_sparse,
    howell_form,  # noqa: F401 -- perfbench/tests reaches the kernel through this module
    left_kernel,
    local_smith,
    midentity,
    mzeros,
    mmul,
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
    "compare_homology",
]


class WindowError(ValueError):
    pass


def _slice_maps(maps: dict, shape: Callable[..., tuple[int, int]], m: int) -> dict:
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


@dataclass
class GradedSliceComplex:
    ring: ModRing
    n_min: int
    n_max: int
    dims: dict  # (degree, weight) -> int
    # (degree, weight) -> SparseMatrix of C_{n,w} -> C_{n-1,w}, nonzero
    # only; the constructor also takes dense matrices and triples in any form
    diffs: dict
    labels: dict = field(default_factory=dict)  # optional (degree, weight) -> list
    trusted: tuple[int, int] | None = None  # degrees with honest homology
    # weight -> Contraction, made by the first homology_quotient call there
    _contractions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.trusted is None:
            self.trusted = (self.n_min, self.n_max)
        self.dims = {k: v for k, v in self.dims.items() if v}
        self.diffs = _slice_maps(self.diffs, lambda n, w: (self.dim(n, w), self.dim(n - 1, w)),
                                 self.ring.modulus)

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

    def shift(self, k: int) -> "GradedSliceComplex":
        """Homological shift C[k]: degree n of the result is degree n-k of C."""
        return GradedSliceComplex(
            self.ring,
            self.n_min + k,
            self.n_max + k,
            {(n + k, w): d for (n, w), d in self.dims.items()},
            {(n + k, w): m for (n, w), m in self.diffs.items()},
            {(n + k, w): l for (n, w), l in self.labels.items()},
            trusted=(self.trusted[0] + k, self.trusted[1] + k),
        )


@dataclass
class SliceQuotient:
    """cycles/boundaries with invariant factors and explicit representatives.

    ``factors[j]`` > 1 is the order of the j-th cyclic generator whose
    ambient row vector is ``gen_reps[j]``; ``coords`` projects any cycle to
    its coordinate tuple (each entry taken modulo its factor).

    A quotient taken on a contracted slice (see :func:`homology_quotient`)
    keeps ``cycles`` in the contracted basis and ``_to_contracted``, which
    maps an ambient vector into it (None for a non-cycle); ``gen_reps`` and
    ``ambient_dim`` are those of the original slice.
    """

    ring: ModRing
    ambient_dim: int
    cycles: np.ndarray  # Howell basis rows
    factors: list[int]
    gen_reps: np.ndarray
    _vmat: np.ndarray  # coordinate-change matrix mod p^n (u x u)
    _all_factors: list[int]  # length u, including trivial 1s
    _to_contracted: Callable[[np.ndarray], np.ndarray | None] | None = None

    @staticmethod
    def from_cycles_boundaries(cycles, boundaries, ring: ModRing) -> "SliceQuotient":
        """cycles/boundaries from a Howell basis of the cycles.

        ``cycles`` must already be in Howell form (as ``left_kernel``
        returns it; an identity matrix or a matrix with no rows also is):
        it is stored and used as is, without another Howell pass.
        ``boundaries`` are rows inside the span of ``cycles``.
        """
        m = ring.modulus
        hk = np.asarray(cycles, dtype=np.int64)
        u = hk.shape[0]
        amb = hk.shape[1] if u else 0
        b = np.asarray(boundaries, dtype=np.int64).reshape(-1, amb) % m if amb else mzeros(0, 0)
        if u == 0:
            if b.size and b.any():
                raise ValueError("boundaries not contained in cycles")
            return SliceQuotient(ring, amb, mzeros(0, amb), [], mzeros(0, amb), mzeros(0, 0), [])
        stacked = np.vstack([hk, b]) if b.shape[0] else hk
        ker = left_kernel(stacked, ring)
        rel = ker[:, :u] if ker.shape[0] else mzeros(0, u)
        all_factors, vmod, vinv = local_smith(rel if rel.size else mzeros(0, u), ring,
                                              want_transform=True)
        keep = [j for j, d in enumerate(all_factors) if d > 1]
        gen_reps = mmul(vinv[keep], hk, ring) if keep else mzeros(0, amb)
        return SliceQuotient(ring, amb, hk, [all_factors[j] for j in keep], gen_reps, vmod, all_factors)

    @property
    def size(self) -> int:
        out = 1
        for d in self.factors:
            out *= d
        return out

    def length(self) -> int:
        return sum(v_int(d, self.ring.p) for d in self.factors)

    def coords(self, vector: np.ndarray) -> tuple[int, ...] | None:
        """Coordinates of a cycle's class, or None if not a stored cycle."""
        v = np.asarray(vector, dtype=np.int64) % self.ring.modulus
        if self._to_contracted is not None:
            v = self._to_contracted(v)
            if v is None:
                return None
        if self.cycles.shape[0] == 0:
            return None if v.any() else ()
        c = self._solve_in_cycles(v)
        if c is None:
            return None
        y = mmul(c, self._vmat, self.ring)
        keep = [j for j, d in enumerate(self._all_factors) if d > 1]
        return tuple(int(y[j]) % self._all_factors[j] for j in keep)

    @cached_property
    def _solve_in_cycles(self) -> Callable[[np.ndarray], np.ndarray | None]:
        return _span_solver(self.cycles, self.ring)

    def is_zero_class(self, vector: np.ndarray) -> bool:
        c = self.coords(vector)
        if c is None:
            raise ValueError("vector is not a cycle of this slice")
        return all(x == 0 for x in c)


# ---------------------------------------------------------------------------
# unit-pivot contraction


@dataclass
class Contraction:
    """One weight of a complex with its unit pivots cancelled.

    A unit entry phi = d_n(b)_a splits off the contractible piece
    b -> d_n(b) (the Gaussian elimination lemma: Bar-Natan, arXiv
    math/0606318; Skoeldberg, Trans. AMS 358, 2006).  What is left has the
    basis elements ``keep[n]`` (original indices, ascending) in degree n
    and the differentials ``diffs[n]`` between them.  ``project`` (f: C ->
    C') and ``lift`` (g: C' -> C) are chain maps with f g = id and g f
    homotopic to id, so they are inverse isomorphisms on homology.

    Cancelling (b, a), with gamma the rest of column a and delta the rest
    of row b of d_n, changes d_n on the survivors to eps - gamma phi^-1
    delta; f subtracts u_a phi^-1 delta from a degree-(n-1) vector and g
    sets the b coordinate of a degree-n vector to -phi^-1 (v . gamma).
    ``_f_steps[k]`` and ``_g_steps[k]`` hold (index, phi^-1, indices,
    values) for the cancellations whose a, respectively b, lies in degree k,
    in the order they were made.
    """

    ring: ModRing
    dims: dict  # degree -> dimension of the original slice
    keep: dict  # degree -> ascending int64 array of surviving indices
    diffs: dict  # degree -> SparseMatrix of the contracted d_n (rows keep[n], columns keep[n-1]), nonzero only
    _f_steps: dict
    _g_steps: dict

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
        for a, inv, idx, vals in self._f_steps.get(n, ()):
            c = v[:, a] * inv % m
            if c.any():
                v[:, idx] = (v[:, idx] - c[:, None] * vals) % m
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
            if idx.size:
                out[:, b] = -mmul(out[:, idx], vals, self.ring) * inv % m
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
        d_here = self.diffs.get(n)
        if d_here is None and n + 1 not in self.diffs:
            m = self.ring.modulus
            return SliceQuotient(self.ring, dim, midentity(dim), [m] * dim, midentity(dim),
                                 midentity(dim), [m] * dim)
        cycles = left_kernel(d_here, self.ring) if d_here is not None else midentity(dim)
        return SliceQuotient.from_cycles_boundaries(
            cycles if cycles.shape[0] else mzeros(0, dim), self.diff(n + 1), self.ring
        )


def reduce_complex(cx: GradedSliceComplex, weight: int) -> Contraction:
    """Cancel unit pivots of the differentials of ``cx`` at one weight.

    The differentials are sparse ``{column: value}`` rows throughout, so no
    slice is made dense.  Pivot rule: the shortest row that holds a unit
    (ties to the lower degree, then the lower row index), and in it the
    unit whose column has the fewest nonzeros (ties to the lower column).
    Cancelling (b, a) updates each other row x with an entry at a by
    x - gamma_x phi^-1 d(b), at a cost of about |column a| x |row b|, and
    drops row b and column a of d_n, row a of d_(n-1) and column b of
    d_(n+1).  Every row that changes is queued again, so the loop ends
    only when no differential has a unit entry left: over F_p every
    contracted differential is zero, over Z/p^n every entry left is
    divisible by p.
    """
    ring = cx.ring
    m, p = ring.modulus, ring.p
    dims = {n: cx.dim(n, weight) for n in cx.degrees() if cx.dim(n, weight)}
    rows: dict = {n: {} for n in dims}  # degree -> row -> {column: value}
    cols: dict = {n: {} for n in dims}  # degree -> column -> rows nonzero there
    heap = []  # (row length, degree, row), one entry per length a row has had
    for n in dims:
        d = cx.diffs.get((n, weight))
        if d is None:
            continue
        rn, cn = rows[n], cols[n]
        for b, a, x in zip(d.rows.tolist(), d.cols.tolist(), d.vals.tolist()):
            rn.setdefault(b, {})[a] = x
            cn.setdefault(a, set()).add(b)
        heap.extend((len(row), n, b) for b, row in rn.items())
    heapq.heapify(heap)

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
        a = min((c for c, x in delta.items() if x % p), key=lambda c: (len(cn[c]), c),
                default=None)
        if a is None:
            continue
        inv = pow(delta.pop(a), -1, m)
        del rn[b]
        for e in delta:
            cn[e].discard(b)
        gamma_rows = sorted(cn.pop(a) - {b})
        gamma = [rn[x].pop(a) for x in gamma_rows]
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
        # a and b leave the neighbouring differentials with the cancelled pair
        for e in rows[n - 1].pop(a, {}):
            cols[n - 1][e].discard(a)
        for y in cols.get(n + 1, {}).pop(b, ()):
            del rows[n + 1][y][b]
            touched(n + 1, y)
        dropped[n].add(b)
        dropped[n - 1].add(a)
        f_steps.setdefault(n - 1, []).append(
            (a, inv, np.fromiter(delta, np.int64, len(delta)),
             np.fromiter(delta.values(), np.int64, len(delta))))
        g_steps.setdefault(n, []).append(
            (b, inv, np.array(gamma_rows, dtype=np.int64), np.array(gamma, dtype=np.int64)))

    keep = {n: np.array(sorted(set(range(dim)) - dropped[n]), dtype=np.int64)
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
    return homology_quotient(cx, degree, weight).factors


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
    red = cx._contractions.get(weight)
    if red is None:
        red = cx._contractions[weight] = reduce_complex(cx, weight)
    small = red.quotient(degree)
    d_here = cx.diffs.get((degree, weight))
    m = cx.ring.modulus

    def to_contracted(v: np.ndarray) -> np.ndarray | None:
        if d_here is not None and sparse_product(as_sparse(v, m), d_here, m).vals.size:
            return None  # not a cycle
        return red.project(degree, v)

    return replace(small, ambient_dim=dim_here, gen_reps=red.lift(degree, small.gen_reps),
                   _to_contracted=to_contracted)


@dataclass
class HomologyReport:
    ring: str
    entries: dict  # (degree, weight) -> {"factors": list[int], "length": int}
    trusted: tuple[int, int]

    def factors(self, degree: int, weight: int) -> list[int]:
        e = self.entries.get((degree, weight))
        return list(e["factors"]) if e else []

    def total_length(self, degree: int) -> int:
        return sum(e["length"] for (n, _), e in self.entries.items() if n == degree)

    def to_json(self) -> str:
        items = [
            {"degree": n, "weight": w, "factors": e["factors"], "length": e["length"]}
            for (n, w), e in sorted(self.entries.items())
        ]
        return json.dumps(
            {"ring": self.ring, "trusted": list(self.trusted), "homology": items}, sort_keys=True
        )


def homology_report(cx: GradedSliceComplex, degrees: Iterable[int] | None = None,
                    weights: Iterable[int] | None = None) -> HomologyReport:
    degs = list(degrees) if degrees is not None else [n for n in cx.degrees() if cx.in_trust_window(n)]
    ws = list(weights) if weights is not None else cx.weights()
    entries = {}
    for n in degs:
        for w in ws:
            fac = slice_homology(cx, n, w)
            if fac:
                entries[(n, w)] = {"factors": fac, "length": sum(v_int(d, cx.ring.p) for d in fac)}
    return HomologyReport(str(cx.ring), entries, tuple(cx.trusted))


# ---------------------------------------------------------------------------
# double and total complexes


@dataclass
class DoubleComplex:
    """First-quadrant-style double complex with commuting differentials.

    ``horiz[(p, q, w)]`` maps (p, q) -> (p-1, q) and ``vert[(p, q, w)]`` maps
    (p, q) -> (p, q-1), each stored as a :class:`SparseMatrix` of the shape
    ``terms`` gives (the constructor also takes dense matrices and triples
    in any form); ``h`` and ``v`` build the dense block on request.  The
    rows and columns must each square to zero and the two directions must
    commute; ``validate`` checks that through :func:`total_complex`.
    """

    ring: ModRing
    terms: dict  # (p, q, weight) -> dim
    horiz: dict
    vert: dict

    def __post_init__(self):
        m = self.ring.modulus
        self.horiz = _slice_maps(self.horiz, lambda p, q, w: (self.dim(p, q, w), self.dim(p - 1, q, w)), m)
        self.vert = _slice_maps(self.vert, lambda p, q, w: (self.dim(p, q, w), self.dim(p, q - 1, w)), m)

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


# ---------------------------------------------------------------------------
# comparison reports


@dataclass
class CompareReport:
    verdicts: dict  # (degree, weight) -> (factors_left, factors_right, equal)
    equal: bool

    def to_json(self) -> str:
        items = [
            {"degree": n, "weight": w, "left": l, "right": r, "equal": e}
            for (n, w), (l, r, e) in sorted(self.verdicts.items())
        ]
        return json.dumps({"equal": self.equal, "slices": items}, sort_keys=True)


def compare_homology(cx1: GradedSliceComplex, cx2: GradedSliceComplex,
                     degrees: Iterable[int], weights: Iterable[int] | None = None) -> CompareReport:
    if cx1.ring != cx2.ring:
        raise ValueError("complexes over different coefficient rings")
    if weights is None:
        weights = sorted(set(cx1.weights()) | set(cx2.weights()))
    verdicts = {}
    ok = True
    for n in degrees:
        for w in weights:
            f1 = slice_homology(cx1, n, w)
            f2 = slice_homology(cx2, n, w)
            eq = f1 == f2
            ok = ok and eq
            if f1 or f2:
                verdicts[(n, w)] = (f1, f2, eq)
    return CompareReport(verdicts, ok)

