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
"""

from __future__ import annotations

import numpy as np

from derhamkit.complexes import DoubleComplex, GradedSliceComplex, SliceQuotient
from derhamkit.exactlin import left_kernel, mmul, mzeros


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
