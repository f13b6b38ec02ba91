"""Dense references for ``complexes``.

``homology_quotient`` is the homology path ``complexes`` used before it
contracted unit pivots: the Howell and Smith kernels run on the whole
``(degree, weight)`` slice.  Invariant factors are canonical, so the tests
require the library to return exactly the same factor list on every slice
they try.

``total_complex`` and ``validate_double_complex`` are the dense total
complex and the three-product double-complex check that ``complexes`` used
before it assembled total complexes from triples and checked them once, on
the result.  The tests require the same slices and the same differentials,
entry for entry, and the same verdict on every double complex they try.

``reduce_complex`` is the unit-pivot contraction before its rewrite: it
filled the sparse rows with one ``setdefault`` per entry, chose each pivot
with ``min`` over a generator, ran the row update even when the pivot row
had no other entry, and built ``keep`` from set differences.  The tests
require the library to return the same survivors, differentials and f/g
steps.
"""

from __future__ import annotations

import heapq

import numpy as np

from derhamkit.complexes import Contraction, DoubleComplex, GradedSliceComplex, SliceQuotient
from derhamkit.exactlin import SparseMatrix, as_sparse, left_kernel, mmul, mzeros


def homology_quotient(cx: GradedSliceComplex, degree: int, weight: int) -> SliceQuotient:
    d_here = cx.diff(degree, weight)
    dim_here = cx.dim(degree, weight)
    if dim_here == 0:
        return SliceQuotient.from_cycles_boundaries(mzeros(0, 0), mzeros(0, 0), cx.ring)
    if d_here.shape[1] == 0:
        cycles = np.eye(dim_here, dtype=np.int64)
    else:
        cycles = left_kernel(d_here, cx.ring)
    boundaries = cx.diff(degree + 1, weight)
    return SliceQuotient.from_cycles_boundaries(
        cycles if cycles.shape[0] else mzeros(0, dim_here), boundaries, cx.ring
    )


def validate_double_complex(dc: DoubleComplex) -> None:
    for (p, q, w) in dc.terms:
        if mmul(dc.h(p, q, w), dc.h(p - 1, q, w), dc.ring).any():
            raise ValueError(f"horizontal d^2 != 0 at {(p, q, w)}")
        if mmul(dc.v(p, q, w), dc.v(p, q - 1, w), dc.ring).any():
            raise ValueError(f"vertical d^2 != 0 at {(p, q, w)}")
        hv = mmul(dc.h(p, q, w), dc.v(p - 1, q, w), dc.ring)
        vh = mmul(dc.v(p, q, w), dc.h(p, q - 1, w), dc.ring)
        if (hv % dc.ring.modulus != vh % dc.ring.modulus).any():
            raise ValueError(f"horizontal and vertical differentials do not commute at {(p, q, w)}")


def total_complex(dc: DoubleComplex) -> GradedSliceComplex:
    """Direct-sum total complex with the (-1)^p vertical sign twist,
    assembled from dense blocks."""
    ring = dc.ring
    if not dc.terms:
        return GradedSliceComplex(ring, 0, 0, {}, {})
    degrees = sorted({p + q for (p, q, _) in dc.terms})
    weights = sorted({w for (_, _, w) in dc.terms})
    n_min, n_max = degrees[0], degrees[-1]

    def blocks(n, w):
        return [(p, n - p) for p in sorted({pp for (pp, qq, ww) in dc.terms if pp + qq == n and ww == w})]

    dims = {}
    offsets = {}
    for w in weights:
        for n in range(n_min, n_max + 1):
            off = {}
            total = 0
            for (p, q) in blocks(n, w):
                off[(p, q)] = total
                total += dc.dim(p, q, w)
            if total:
                dims[(n, w)] = total
                offsets[(n, w)] = off

    diffs = {}
    for (n, w), total in dims.items():
        lower = dims.get((n - 1, w), 0)
        if lower == 0:
            continue
        d = mzeros(total, lower)
        off_hi = offsets[(n, w)]
        off_lo = offsets[(n - 1, w)]
        for (p, q), o in off_hi.items():
            dh = dc.h(p, q, w)
            if dh.size and (p - 1, q) in off_lo:
                o2 = off_lo[(p - 1, q)]
                d[o : o + dh.shape[0], o2 : o2 + dh.shape[1]] += dh
            dv = dc.v(p, q, w)
            if dv.size and (p, q - 1) in off_lo:
                o2 = off_lo[(p, q - 1)]
                sign = -1 if p % 2 else 1
                d[o : o + dv.shape[0], o2 : o2 + dv.shape[1]] += sign * dv
        diffs[(n, w)] = d % ring.modulus

    tot = GradedSliceComplex(ring, n_min, n_max, dims, diffs)
    tot.validate()
    return tot


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
    d_(n+1).  Every row that changes is queued again, so the loop ends
    only when no pivot is left: without columns, over F_p every contracted
    differential is zero, over Z/p^n every entry left is divisible by p.
    With columns, gamma has rows in columns <= col(a) and delta entries in
    columns >= col(b), so d, f, g and the homotopy keep every F^k (columns
    >= k): the filtered Gaussian elimination lemma (Mischaikow-Nanda,
    Discrete Comput. Geom. 50, 2013).
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
        units = delta.items()
        if column is not None:
            here, below = column[n][b], column[n - 1]
            units = [(c, x) for c, x in units if below[c] == here]
        a = min((c for c, x in units if x % p), key=lambda c: (len(cn[c]), c), default=None)
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
        f_steps.setdefault(n - 1, []).append((a, inv, delta))
        g_steps.setdefault(n, []).append((b, inv, gamma_rows, gamma))

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
