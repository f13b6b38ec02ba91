"""Earlier ``exactlin`` kernels kept as references for the library ones.

``howell_form`` is the O(rows * cols)-per-column dense elimination that
``exactlin`` used before its sparse rewrite, unchanged.  The tests require
the library kernel to return exactly the same ``H`` and ``T`` (not merely
the same canonical span) on every matrix they try, because ``T`` feeds
``solve_in_span`` and everything built on it.  ``left_kernel`` is the
two-pass kernel the library replaced by one pass, and
``augmented_left_kernel`` that one pass, a Howell form of the dense
[A | I], before the library read the kernel off the elimination's
transform.  ``minimal_generator_indices`` is ``minimal_generators`` before
its incremental F_p echelon, one span test per row (the library's former
``span_contains``, spelled out), returning the indices of the rows it
keeps.  ``bareiss_det``, ``resultant`` (the Sylvester determinant) and
``wedge_matrix`` (one determinant per pair of row and column sets) are the
library's earlier per-entry determinant routes, replaced by the Euclidean
remainder sequence and one Laplace recursion over all minors.
``quotient_invariants`` is the library's pipeline before it became the
factors of a ``SliceQuotient``, unchanged; here its ``howell_form`` and
``left_kernel`` are the references above, which equal the library's, and
its factors come from ``invariant_factors_from_relations``, the library's
invariant factors of a presentation read off ``local_smith`` before every
presentation became ``quotient_invariants(np.eye(g), relations, ring)``.
``local_smith`` is the library's kernel before each clearing step was cut
to the trailing block: its row operations ran over whole rows and its
column operations over whole columns of the matrix.  The tests require the
same factors, V and V^-1 as the library on every matrix they try.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from derhamkit.exactlin import ModRing, midentity, mmul, mzeros
from derhamkit.upoly import trim
from derhamkit.exactlin import howell_form as library_howell_form
from derhamkit.exactlin import solve_in_span as library_solve_in_span


def howell_form(matrix, ring: ModRing, transform: bool = False):
    """Howell canonical form of the row span of ``matrix`` over Z/p^n.

    Returns H (and T with T @ matrix = H when ``transform``).  H satisfies:
    echelon shape, each pivot is p^v (monic up to normalization), entries
    above a pivot are reduced mod the pivot, and the span property holds
    (every span element supported on columns >= c lies in the span of the
    rows with pivot column >= c).  Zero rows are dropped.
    """
    m = ring.modulus
    p = ring.p
    a = np.asarray(matrix, dtype=np.int64) % m
    if a.ndim == 1:
        a = a.reshape(1, -1)
    rows, cols = a.shape
    if transform:
        t = midentity(rows)
    else:
        t = None

    work = a.copy()
    # Stabilization rows p^(n-v) * r enter lazily during elimination.
    extra: list[np.ndarray] = []
    extra_t: list[np.ndarray] = []

    pivots: list[tuple[int, int]] = []  # (col, row index in out lists)
    out_rows: list[np.ndarray] = []
    out_t: list[np.ndarray] = []

    def val(x: int) -> int:
        return ring.val(int(x))

    active = list(range(rows))
    avail = [work[i].copy() for i in active]
    avail_t = [t[i].copy() for i in active] if transform else [None] * rows

    col = 0
    while col < cols:
        # choose among available rows one with minimal valuation at this col
        best = None
        bestv = ring.n + 1
        for idx, r in enumerate(avail):
            x = int(r[col])
            if x % m != 0:
                v = val(x)
                if v < bestv:
                    bestv = v
                    best = idx
        if best is None:
            col += 1
            continue
        piv = avail.pop(best)
        piv_t = avail_t.pop(best)
        # normalize pivot entry to p^v
        x = int(piv[col])
        unit = x // (p ** bestv)
        inv = ring.unit_inverse(unit)
        piv = (piv * inv) % m
        if transform:
            piv_t = (piv_t * inv) % m
        # eliminate this column from the remaining rows (their valuation >= bestv)
        pe = p ** bestv
        for idx in range(len(avail)):
            x = int(avail[idx][col])
            if x % m != 0:
                q = x // pe
                avail[idx] = (avail[idx] - q * piv) % m
                if transform:
                    avail_t[idx] = (avail_t[idx] - q * piv_t) % m
        # stabilization: if pivot is not a unit, p^(n-v)*row has support to the right
        if bestv > 0:
            srow = (piv * (p ** (ring.n - bestv))) % m
            if srow.any():
                avail.append(srow)
                if transform:
                    avail_t.append((piv_t * (p ** (ring.n - bestv))) % m)
                else:
                    avail_t.append(None)
        out_rows.append(piv)
        out_t.append(piv_t)
        pivots.append((col, len(out_rows) - 1))
        col += 1

    if not out_rows:
        h = mzeros(0, cols)
        return (h, mzeros(0, rows)) if transform else h

    h = np.vstack(out_rows) % m
    tt = np.vstack(out_t) % m if transform else None

    # Back-reduce entries above each pivot modulo the pivot value, in
    # increasing column order: a pivot row is zero left of its pivot, so
    # later steps never disturb already-reduced columns.  (Above-pivot
    # entries stay nonzero here, unlike the field case, so bottom-up
    # ordering would clobber earlier columns.)
    for col, ridx in pivots:
        pe = int(h[ridx][col])
        for i in range(ridx):
            x = int(h[i][col])
            q = x // pe
            if q:
                h[i] = (h[i] - q * h[ridx]) % m
                if transform:
                    tt[i] = (tt[i] - q * tt[ridx]) % m
    return (h, tt) if transform else h


def left_kernel(matrix, ring: ModRing) -> np.ndarray:
    """``exactlin.left_kernel`` as it was before it dropped its second
    Howell pass: the kernel rows of the Howell form of [A | I], reduced
    again."""
    a = np.asarray(matrix, dtype=np.int64) % ring.modulus
    if a.ndim == 1:
        a = a.reshape(1, -1)
    rows, cols = a.shape
    if rows == 0:
        return mzeros(0, 0)
    aug = np.hstack([a, midentity(rows)])
    h = library_howell_form(aug, ring)
    ker = [r[cols:] for r in h if not r[:cols].any()]
    if not ker:
        return mzeros(0, rows)
    return library_howell_form(np.vstack(ker), ring)


def augmented_left_kernel(matrix: np.ndarray, ring: ModRing) -> np.ndarray:
    """Howell basis of {v : v @ matrix == 0} over Z/p^n."""
    a = np.asarray(matrix, dtype=np.int64) % ring.modulus
    if a.ndim == 1:
        a = a.reshape(1, -1)
    rows, cols = a.shape
    if rows == 0:
        return mzeros(0, 0)
    # The rows of the Howell form of [A | I] that vanish on A are already the
    # Howell form of their span, the kernel: the span property of the whole
    # form restricts to the columns right of A.
    h = library_howell_form(np.hstack([a, midentity(rows)]), ring)
    return h[~h[:, :cols].any(axis=1), cols:]


def minimal_generator_indices(rows: np.ndarray, ring: ModRing) -> list[int]:
    """Select a minimal generating family from ``rows`` for a free summand.

    Rows whose mod-p reductions are linearly independent generate by
    Nakayama; the caller is responsible for the span actually being free
    (true for normalized parts of simplicial modules).
    """
    m = ring.modulus
    rows = np.asarray(rows, dtype=np.int64) % m
    if rows.shape[0] == 0:
        return []
    fp = ModRing(ring.p, 1)
    chosen: list[int] = []
    basis_fp: list[np.ndarray] = []
    for i in range(rows.shape[0]):
        red = rows[i] % ring.p
        if not red.any():
            continue
        if basis_fp and library_solve_in_span(red, np.vstack(basis_fp), fp) is not None:
            continue
        chosen.append(i)
        basis_fp.append(red)
    return chosen


def bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free exact determinant of an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Res(f, g) of integer polynomials via the Sylvester determinant.

    Polynomials are coefficient lists, constant term first.  Exact for any
    size thanks to big-int arithmetic.
    """
    f = trim(f)
    g = trim(g)
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    dm, dn = len(f) - 1, len(g) - 1
    if dm == 0:
        return f[0] ** dn
    if dn == 0:
        return g[0] ** dm
    size = dm + dn
    syl = [[0] * size for _ in range(size)]
    frev = f[::-1]  # leading first
    grev = g[::-1]
    for i in range(dn):
        for j, c in enumerate(frev):
            syl[i][i + j] = c
    for i in range(dm):
        for j, c in enumerate(grev):
            syl[dn + i][i + j] = c
    return bareiss_det(syl)


def wedge_matrix(phi: np.ndarray, n: int, ring: ModRing) -> np.ndarray:
    """Matrix of wedge^n(phi): entries are n x n minors."""
    r, s = phi.shape
    src = list(itertools.combinations(range(r), n))
    tgt = list(itertools.combinations(range(s), n))
    out = mzeros(len(src), len(tgt))
    rows = [[int(x) for x in phi[j]] for j in range(r)]
    for a, rowset in enumerate(src):
        for b, colset in enumerate(tgt):
            sub = [[rows[i][j] for j in colset] for i in rowset]
            out[a, b] = bareiss_det(sub) % ring.modulus
    return out


def invariant_factors_from_relations(relations: np.ndarray, generators: int, ring: ModRing) -> list[int]:
    """Invariant factors of R^generators / rowspan(relations) over R = Z/p^n,
    read off ``local_smith``: the d_j > 1 with d_j | p^n, ascending."""
    if generators == 0:
        return []
    rel = np.asarray(relations, dtype=np.int64).reshape(-1, generators) % ring.modulus
    factors, _, _ = local_smith(rel, ring)
    return sorted(int(d) for d in factors if d != 1)


def quotient_invariants(cycles: np.ndarray, boundaries: np.ndarray, ring: ModRing) -> list[int]:
    """Invariant factors of span(cycles)/span(boundaries), boundaries inside cycles."""
    hk = howell_form(cycles, ring)
    if hk.shape[0] == 0:
        if np.asarray(boundaries).size and np.asarray(boundaries % ring.modulus).any():
            raise ValueError("boundaries not contained in cycles")
        return []
    b = np.asarray(boundaries, dtype=np.int64).reshape(-1, hk.shape[1]) % ring.modulus
    # relation coefficients: {c : c @ hk in span(b)}
    stacked = np.vstack([hk, b]) if b.shape[0] else hk
    ker = left_kernel(stacked, ring)
    rel = ker[:, : hk.shape[0]] if ker.shape[0] else mzeros(0, hk.shape[0])
    return invariant_factors_from_relations(rel, hk.shape[0], ring)


def local_smith(matrix: np.ndarray, ring: ModRing, want_transform: bool = False):
    """Diagonalization over the local ring Z/p^n by unit row/column ops.

    Every matrix over Z/p^n is equivalent to diag(p^{a_1}, p^{a_2}, ...)
    with ascending valuations (pick a minimal-valuation pivot, normalize by
    units, clear its row and column; all cleared entries are divisible by
    the pivot).  Returns (column factors, V, Vinv): factors[j] is the
    cokernel order of column j -- p^{a_j} for a pivot of valuation a_j,
    p^n for a pivot-free column -- and V tracks the column operations
    (x -> x V is the coordinate change; rows of Vinv are the new
    generators in old coordinates).  V/Vinv are None unless requested.
    """
    m = ring.modulus
    p = ring.p
    a = np.asarray(matrix, dtype=np.int64).copy() % m
    if a.ndim != 2:
        raise ValueError("local_smith expects a 2-d matrix")
    rows, cols = a.shape
    v_mat = np.eye(cols, dtype=np.int64) if want_transform else None
    vinv = np.eye(cols, dtype=np.int64) if want_transform else None
    pivot_vals: list[int] = []
    t = 0
    while t < min(rows, cols):
        sub = a[t:, t:]
        if not sub.any():
            break
        val = None
        for v in range(ring.n):
            mask = (sub % (p ** (v + 1))) != 0
            if mask.any():
                val = v
                i_off, j_off = np.argwhere(mask)[0]
                break
        if val is None:
            break
        i, j = t + int(i_off), t + int(j_off)
        if i != t:
            a[[t, i]] = a[[i, t]]
        if j != t:
            a[:, [t, j]] = a[:, [j, t]]
            if want_transform:
                v_mat[:, [t, j]] = v_mat[:, [j, t]]
                vinv[[t, j]] = vinv[[j, t]]
        pe = p ** val
        unit_inv = ring.unit_inverse(int(a[t, t]) // pe)
        a[t] = (a[t] * unit_inv) % m
        # clear the column below (row ops; untracked side)
        col = a[t + 1 :, t]
        if col.any():
            q = col // pe
            a[t + 1 :] = (a[t + 1 :] - q[:, None] * a[t]) % m
        # clear the row to the right (column ops; tracked side)
        row = a[t, t + 1 :]
        if row.any():
            q = row // pe
            a[:, t + 1 :] = (a[:, t + 1 :] - a[:, [t]] * q[None, :]) % m
            if want_transform:
                v_mat[:, t + 1 :] = (v_mat[:, t + 1 :] - v_mat[:, [t]] * q[None, :]) % m
                vinv[t] = (vinv[t] + mmul(q, vinv[t + 1 :], ring)) % m
        pivot_vals.append(val)
        t += 1
    factors = [p ** v for v in pivot_vals] + [m] * (cols - len(pivot_vals))
    return factors, v_mat, vinv
