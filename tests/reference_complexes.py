"""Full-slice homology kept as the reference for ``complexes.homology_quotient``.

This is the homology path ``complexes`` used before it contracted unit
pivots: the Howell and Smith kernels run on the whole ``(degree, weight)``
slice.  Invariant factors are canonical, so the tests require the library
to return exactly the same factor list on every slice they try.
"""

from __future__ import annotations

import numpy as np

from derhamkit.complexes import GradedSliceComplex, SliceQuotient
from derhamkit.exactlin import left_kernel, mzeros


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
