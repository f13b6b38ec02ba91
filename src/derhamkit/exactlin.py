"""Exact linear algebra over Z, Z/p^n and F_p.

Everything downstream (chain complexes, homology, module invariants) reduces
to the kernels in this module: Smith normal form over Z with unimodular
certificates, Howell canonical forms over Z/p^n, left kernels, span
membership, p-adic valuations of integers and resultants.  A quotient
span(C)/span(B) of row spans starts from the relations that
``cycle_relations`` reads off the left kernel of [C; B].  It is one
:class:`SliceQuotient`, with its invariant factors, generator
representatives and coordinates from ``local_smith`` with its transform;
``quotient_factors`` and ``quotient_invariants`` are its factors alone,
from ``local_smith`` without one.

Conventions: module elements are *row* vectors; a homomorphism is a matrix
``M`` of shape (source dim, target dim) acting by ``v @ M``.  Matrices over
Z/p^n are numpy int64 arrays with entries reduced to [0, p^n), and p^n is
below 2^31 so that a product of two residues fits in int64; sparse ones are
:class:`SparseMatrix` triples in the canonical form ``as_sparse`` makes.
Matrices over Z are plain lists of Python ints (arbitrary precision).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .upoly import rem, trim

__all__ = [
    "ModRing",
    "PAdicValue",
    "is_prime",
    "smith_normal_form",
    "howell_form",
    "left_kernel",
    "block_left_kernels",
    "SparseMatrix",
    "as_sparse",
    "sparse_product",
    "solve_in_span",
    "express_in_basis",
    "SliceQuotient",
    "quotient_invariants",
    "resultant",
]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class ModRing(NamedTuple("ModRing", [("p", int), ("n", int)])):
    """The coefficient ring Z/p^n (F_p when n = 1).

    The tuple (p, n), so that rings made from equal arguments are equal and
    hash alike; the subclass instance holds the cached ``modulus``."""

    def __new__(cls, p: int, n: int):
        if not is_prime(p):
            raise ValueError(f"modulus base {p} is not prime")
        if n < 1:
            raise ValueError("exponent must be >= 1")
        # the numpy kernels multiply two residues in int64: m^2 must fit
        if p ** n >= 2 ** 31:
            raise ValueError(f"modulus {p}^{n} is not below 2^31, "
                             "the largest the int64 kernels handle exactly")
        return super().__new__(cls, p, n)

    @cached_property
    def modulus(self) -> int:
        return self.p ** self.n

    def unit_inverse(self, a: int) -> int:
        a %= self.modulus
        if a % self.p == 0:
            raise ZeroDivisionError(f"{a} is not a unit mod {self.modulus}")
        return pow(a, -1, self.modulus)

    def val(self, a: int) -> int:
        """p-adic valuation of a residue, capped at n for zero."""
        a %= self.modulus
        if a == 0:
            return self.n
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def __str__(self):
        return f"F_{self.p}" if self.n == 1 else f"Z/{self.modulus}"


class PAdicValue:
    """Exact rational valuation.

    The denominator is expected to divide the declared ramification index of
    whatever extension produced the value; `with_index` asserts this.
    """

    def __init__(self, prime: int, value: Fraction):
        self.prime = prime
        self.value = value

    def with_index(self, e: int) -> "PAdicValue":
        if (self.value * e).denominator != 1:
            raise ValueError(f"valuation {self.value} has denominator not dividing e={e}")
        return self


# ---------------------------------------------------------------------------
# numpy helpers (Z/m arithmetic; m small enough for int64 products)


def mzeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)

def midentity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)

def mmul(a: np.ndarray, b: np.ndarray, ring: ModRing) -> np.ndarray:
    """``(a @ b) mod m`` as int64, exact for entries of absolute value < m.

    With inner dimension k, every partial sum is below k*(m-1)^2 in absolute
    value.  Below 2^53 that is an exact float64 integer in any summation
    order, so the product runs through BLAS; below 2^62 it runs in int64;
    above that in Python integers.  ``a`` may be a single row vector.
    """
    m = ring.modulus
    bound = a.shape[-1] * (m - 1) * (m - 1)
    if bound < 2 ** 53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % m
    if bound < 2 ** 62:
        return (a @ b) % m
    return np.asarray((a.astype(object) @ b.astype(object)) % m, dtype=np.int64)


# ---------------------------------------------------------------------------
# Smith normal form over Z


def smith_normal_form(matrix, want_vinv: bool = False):
    """Smith normal form over Z: returns (S, U, V) with U*A*V = S.

    S is diagonal with nonnegative entries d_1 | d_2 | ..., U and V are
    unimodular.  With ``want_vinv`` the inverse of V is tracked and returned
    as a fourth value.  Pure Python integers throughout, so
    cyclotomic-sized entries are exact.
    """
    a = [[int(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    vinv = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)] if want_vinv else None

    def row_op(i, j, q):  # row_i -= q*row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q*col_j; inverse acts on vinv rows
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]
        if vinv is not None:
            vinv[j] = [x + q * y for x, y in zip(vinv[j], vinv[i])]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        if vinv is not None:
            vinv[i], vinv[j] = vinv[j], vinv[i]

    t = 0
    while t < min(rows, cols):
        # locate a nonzero pivot of least absolute value in the trailing block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                row_op(i, t, q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                col_op(j, t, q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # remainders left; re-pivot on a smaller entry
        # pivot must divide the rest of the block for the divisibility chain
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # fold the offending row in and redo
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    if want_vinv:
        return a, u, v, vinv
    return a, u, v


# ---------------------------------------------------------------------------
# Howell form over Z/p^n

def howell_form(matrix, ring: ModRing, transform: bool = False):
    """Howell canonical form of the row span of ``matrix`` over Z/p^n.

    Returns H (and T with T @ matrix = H when ``transform``).  H satisfies:
    echelon shape, each pivot is p^v (monic up to normalization), entries
    above a pivot are reduced mod the pivot, and the span property holds
    (every span element supported on columns >= c lies in the span of the
    rows with pivot column >= c).  Zero rows are dropped.

    The rows of ``matrix`` are converted to ``{col: value}`` dicts and go
    through ``_howell``.
    """
    a = as_sparse(matrix, ring.modulus)
    return _howell(_row_dicts(a), a.shape[1], ring, transform)


def _howell(rows: list[dict], cols: int, ring: ModRing, transform: bool):
    """``howell_form`` of the ``cols``-column matrix whose rows are the
    ``{col: value}`` dicts ``rows`` (reduced mod p^n, zeros absent), which
    the elimination consumes: forward elimination is ``_eliminate``,
    back-reduction ``_reduced``."""
    return _reduced(_eliminate(rows, ring, transform), None, cols, len(rows), ring, transform)


def _reduced(pivots: list, place: np.ndarray | None, width: int, nrows: int, ring: ModRing, transform: bool):
    """The dense Howell form H (and transform, of width ``nrows``) of the
    forward-eliminated ``pivots`` of ``_eliminate``, with ``width``
    columns: column j of the pivot rows is column ``place[j]`` of H, or
    column j when ``place`` is None.

    Back-reduction takes the pivots in increasing column order and reduces
    the entries above each one modulo it, as one numpy update of the dense
    output restricted to the rows whose quotient is nonzero.  A pivot row
    is zero left of its pivot, so later steps never disturb already-reduced
    columns, and a column that no pivot row holds right of its pivot stays
    zero above its pivot.  These rules fix H and T completely, not just up
    to the canonical span.
    """
    m = ring.modulus
    h = mzeros(len(pivots), width)
    tt = mzeros(len(pivots), nrows) if transform else None
    if not pivots:
        return (h, tt) if transform else h
    cols = [j for _, row, _ in pivots for j in row]
    h[[k for k, (_, row, _) in enumerate(pivots) for _ in row], cols if place is None else place[cols]] = \
        [x for _, row, _ in pivots for x in row.values()]
    if transform:
        tt[[k for k, (_, _, row_t) in enumerate(pivots) for _ in row_t],
           [j for _, _, row_t in pivots for j in row_t]] = [x for _, _, row_t in pivots for x in row_t.values()]
    tails = {j for col, row, _ in pivots for j in row if j != col}
    for k, (col, _, _) in enumerate(pivots):
        if col not in tails:
            continue
        col = col if place is None else place[col]
        q = h[:k, col] // h[k, col]
        above = q.nonzero()[0]
        if above.size:
            q = q[above, None]
            h[above] = (h[above] - q * h[k]) % m
            if transform:
                tt[above] = (tt[above] - q * tt[k]) % m
    return (h, tt) if transform else h


_NONE = np.zeros(0, dtype=np.int64)
_NONE.flags.writeable = False


class SparseMatrix(NamedTuple):
    """A ``shape[0]`` x ``shape[1]`` matrix over Z/p^n as int64 triples,
    ``vals[k]`` at (``rows[k]``, ``cols[k]``).  Every one the library keeps
    or returns is in the canonical form ``as_sparse`` makes: values in
    [1, p^n), each position at most once, row-major.  So equal matrices
    have equal arrays.  Built directly, it is input to ``as_sparse``, which
    checks, reduces, sorts and sums it; ``SparseMatrix(shape=shape)`` is
    the zero matrix.  A routine that builds its triples canonical returns
    them through ``canonical``, and ``as_sparse`` passes those through."""

    rows: np.ndarray = _NONE
    cols: np.ndarray = _NONE
    vals: np.ndarray = _NONE
    shape: tuple[int, int] = (0, 0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseMatrix) and self.shape == other.shape and self.vals.size == other.vals.size
                and all((x == y).all() for x, y in zip(self[:3], other[:3])))

    def __ne__(self, other) -> bool:
        return not self == other

    def dense(self) -> np.ndarray:
        """The dense reduced int64 matrix."""
        out = mzeros(*self.shape)
        out[self.rows, self.cols] = self.vals
        return out


class _Canonical(SparseMatrix):
    """A :class:`SparseMatrix` that ``canonical`` marked as canonical mod
    ``modulus``.  One made any other way, as by ``_replace``, keeps the
    class's modulus 0, so ``as_sparse`` treats it as plain triples."""

    modulus = 0


def canonical(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int],
              m: int) -> SparseMatrix:
    """The :class:`SparseMatrix` of int64 triples that the caller built in
    canonical form mod m, which ``as_sparse`` at m returns unchanged."""
    out = _Canonical(rows, cols, vals, shape)
    out.modulus = m
    return out


def as_sparse(matrix, m: int) -> SparseMatrix:
    """The canonical :class:`SparseMatrix` mod m of a dense matrix (a 1-d
    one is a single row) or of triples in any order, unreduced, whose
    repeated positions are summed.  An entry outside the shape is an error.
    A matrix that ``canonical`` marked at modulus m is returned as it is;
    at another modulus it is plain triples."""
    if type(matrix) is _Canonical and matrix.modulus == m:
        return matrix
    if not isinstance(matrix, SparseMatrix):
        a = np.asarray(matrix, dtype=np.int64) % m
        a = a.reshape(1, -1) if a.ndim == 1 else a
        r, c = np.nonzero(a)
        return canonical(r, c, a[r, c], a.shape, m)
    shape = nrows, ncols = tuple(matrix.shape)
    r = np.asarray(matrix.rows, dtype=np.int64)
    c = np.asarray(matrix.cols, dtype=np.int64)
    for index, bound, name in ((r, nrows, "row"), (c, ncols, "column")):
        if index.size and index.view(np.uint64).max() >= bound:  # a negative index wraps above
            raise ValueError(f"an entry lies outside the {nrows} x {ncols} matrix: "
                             f"its {name} is outside a slice of {bound} {name}s")
    key = r * ncols + c
    v = np.asarray(matrix.vals, dtype=np.int64) % m
    if (key[1:] > key[:-1]).all():  # already row-major, each position once
        if v.all():
            return canonical(r, c, v, shape, m)
        nz = v.nonzero()[0]
        return canonical(r[nz], c[nz], v[nz], shape, m)
    return _summed(key, v, shape, m)


def _summed(key: np.ndarray, vals: np.ndarray, shape: tuple[int, int], m: int) -> SparseMatrix:
    """The canonical matrix of the reduced ``vals`` at the row-major
    positions ``key``, summed mod m."""
    order = key.argsort(kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)  # first entry of each position
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = first.nonzero()[0]
    sums = np.add.reduceat(vals[order], starts) % m if starts.size else vals[:0]
    nz = sums != 0
    key = key[starts[nz]]
    ncols = max(shape[1], 1)
    return canonical(key // ncols, key % ncols, sums[nz], shape, m)


def sparse_product(a: SparseMatrix, b: SparseMatrix, m: int) -> SparseMatrix:
    """a b mod m, joined on the middle index, which needs ``b`` row-major.
    Each product is reduced before the sums, so nothing leaves int64."""
    shape = (a.shape[0], b.shape[1])
    lo = b.rows.searchsorted(a.cols)
    counts = b.rows.searchsorted(a.cols, side="right") - lo
    ends = counts.cumsum()
    if not ends.size or not ends[-1]:
        return canonical(*SparseMatrix(shape=shape), m)
    left = np.arange(a.vals.size).repeat(counts)
    right = np.arange(ends[-1]) + (lo - (ends - counts)).repeat(counts)
    return _summed(a.rows[left] * shape[1] + b.cols[right], a.vals[left] * b.vals[right] % m, shape, m)


def _row_dicts(a: SparseMatrix) -> list[dict]:
    """The rows of ``a`` as ``{col: value}`` dicts of Python ints."""
    rows: list[dict] = [{} for _ in range(a.shape[0])]
    for i, j, x in zip(a.rows.tolist(), a.cols.tolist(), a.vals.tolist()):
        rows[i][j] = x
    return rows


def _eliminate(rows: list[dict], ring: ModRing, transform: bool, kernel: list | None = None):
    """Sparse forward elimination of ``rows``, the ``{col: value}`` dicts of
    a matrix A (values reduced mod p^n, zeros absent); the dicts are
    consumed.

    Returns the pivots as (col, row, transform row) in increasing column
    order; rows are ``{col: value}`` dicts of Python ints, and transform
    rows (None unless ``transform``) give each row in terms of the rows of
    A.  Each row is kept in the bucket of its leading column, so column
    ``c`` visits only the rows that are nonzero there, and a heap of the
    columns that have a bucket skips the others.  Eliminating a row
    costs O(nnz(pivot) + nnz(row)), after which the row moves to the bucket
    of its new leading column.  The pivot of column ``c`` is a row of
    minimal valuation at ``c``; ties go to the lowest rank, where input rows
    rank by index and stabilization rows follow in the order they were
    created.  The pivot is scaled by a unit so that its entry becomes p^v,
    and when v > 0 the stabilization row p^(n-v) * pivot, which is zero at
    ``c``, joins the rows still to be reduced.

    With a ``kernel`` list (and ``transform``), the transform of every row
    that is or becomes zero, and of every stabilization row that is zero
    while its transform is not, is appended to it as a dict.  Those are the
    rows of the Howell form of [A | I] that vanish on A, before that form
    eliminates them, so they span the left kernel of A.
    ``block_left_kernels`` hands it only the rows that its peel keeps
    (``_unforced_rows``): the others vanish in every kernel vector.
    """
    m = ring.modulus
    p = ring.p

    # buckets[c]: (rank, row, transform row) for each row leading at column c
    buckets: dict[int, list] = {}
    for i, row in enumerate(rows):
        if row:
            buckets.setdefault(min(row), []).append((i, row, {i: 1} if transform else None))
        elif kernel is not None:
            kernel.append({i: 1})
    todo = sorted(buckets)  # the columns with a bucket, as a heap
    next_rank = len(rows)

    def move(entry, c) -> None:
        bucket = buckets.get(c)
        if bucket is None:
            buckets[c] = [entry]
            heapq.heappush(todo, c)
        else:
            bucket.append(entry)

    def subtract(row: dict, q: int, tail) -> None:  # row -= q * tail, mod m
        for j, x in tail:
            y = (row.get(j, 0) - q * x) % m
            if y:
                row[j] = y
            else:
                row.pop(j, None)

    pivots: list[tuple[int, dict, dict | None]] = []  # (col, row, transform row)
    while todo:
        col = heapq.heappop(todo)
        bucket = buckets.pop(col)
        best = min(bucket, key=lambda e: (ring.val(e[1][col]), e[0]))
        _, piv, piv_t = best
        v = ring.val(piv[col])
        pe = p ** v
        inv = ring.unit_inverse(piv[col] // pe)
        piv = {j: x * inv % m for j, x in piv.items()}
        tail = [(j, x) for j, x in piv.items() if j != col]
        if transform:
            piv_t = {j: x * inv % m for j, x in piv_t.items()}
            tail_t = list(piv_t.items())
        # every other row here has valuation >= v at col, so q * pe is exact
        for entry in bucket:
            if entry is best:
                continue
            _, row, row_t = entry
            q = row.pop(col) // pe
            subtract(row, q, tail)
            if transform:
                subtract(row_t, q, tail_t)
            if row:
                move(entry, min(row))
            elif kernel is not None and row_t:
                kernel.append(row_t)
        if v > 0:
            s = p ** (ring.n - v)
            srow = {j: y for j, x in piv.items() if (y := x * s % m)}
            if srow or kernel is not None:
                srow_t = {j: y for j, x in piv_t.items() if (y := x * s % m)} if transform else None
                if srow:
                    move((next_rank, srow, srow_t), min(srow))
                    next_rank += 1
                elif srow_t:
                    kernel.append(srow_t)
        pivots.append((col, piv, piv_t))
    return pivots


def solve_in_span(vector: np.ndarray, rows: np.ndarray, ring: ModRing):
    """Coefficients c with c @ rows == vector, or None if not in the span.

    ``rows`` need not be canonical; a Howell pass with transform is used.
    """
    return span_solver(rows, ring)(vector)


def span_solver(rows: np.ndarray, ring: ModRing):
    """One Howell pass over ``rows``; returns ``solve(vector)``, which gives
    coefficients c with c @ rows == vector, or None if not in the span."""
    m = ring.modulus
    rows = np.asarray(rows, dtype=np.int64) % m
    h, t = howell_form(rows, ring, transform=True)
    pivots = []  # (row, leading column, pivot p^v); Howell rows are nonzero
    for ridx, row in enumerate(h):
        lead = int(np.flatnonzero(row)[0])
        pivots.append((ridx, lead, int(row[lead])))

    def solve(vector):
        rem = np.asarray(vector, dtype=np.int64).reshape(-1) % m
        coeff = mzeros(1, rows.shape[0])[0]
        for ridx, lead, pe in pivots:
            x = int(rem[lead])
            if x == 0:
                continue
            if x % pe != 0:
                return None
            q = x // pe
            rem = (rem - q * h[ridx]) % m
            coeff = (coeff + q * t[ridx]) % m
        if rem.any():
            return None
        return coeff

    return solve


def left_kernel(matrix, ring: ModRing) -> np.ndarray:
    """Howell basis of {v : v @ matrix == 0} over Z/p^n, as a dense
    (kernel rank) x (rows of ``matrix``) array: the one-block case of
    ``block_left_kernels``.  ``matrix`` is dense or a :class:`SparseMatrix`."""
    a = as_sparse(matrix, ring.modulus)
    return block_left_kernels(a, ring, [a.shape[0]])[0]


def block_left_kernels(matrix, ring: ModRing, row_ends) -> list[np.ndarray]:
    """The Howell bases of the left kernels of the diagonal blocks of a
    block-diagonal ``matrix`` over Z/p^n: block k has the rows
    ``row_ends[k-1]:row_ends[k]`` (from 0; the last end is the row count,
    and a matrix without rows may have no ends) and the columns after those
    of block k - 1.  Each basis is a dense (kernel rank) x (rows of the
    block) array, 0 x 0 for a block without rows.

    ``matrix`` is dense or a :class:`SparseMatrix`; both become the same
    ``{col: value}`` rows, and the whole matrix is peeled, eliminated and
    Howell-reduced at once.  First the rows that every kernel vector must
    vanish on are peeled (``_unforced_rows``): a column whose only nonzero
    entry among the rows still kept is a unit ``A[r, c]`` forces v_r = 0,
    so row r is dropped, until no column qualifies.  A non-unit singleton
    forces nothing (over Z/4 a column holding only 2 allows v_r = 2).  The
    kernel of the kept rows is read off the transform of their forward
    elimination: the transforms of the rows whose part in A vanishes span
    it (see ``_eliminate``), and their Howell form is its canonical basis,
    the same rows the Howell form of [A | I] has right of A.  The peeled
    rows come back as zero columns, which keeps that form canonical, so
    the result equals the kernel computed without the peel.

    No row or elimination step mixes two blocks, so the forward-eliminated
    kernel splits by block; each block's pivots are back-reduced and made
    dense on their own, which gives that block's Howell basis, as the
    Howell form of a block-diagonal span is the per-block forms stacked.
    A kernel row that crosses a block boundary (``matrix`` is not block
    diagonal) raises ValueError.
    """
    a = as_sparse(matrix, ring.modulus)
    nrows = a.shape[0]
    ends = [int(end) for end in row_ends]
    starts = [0, *ends[:-1]]
    if (ends[-1] if ends else 0) != nrows or any(lo > hi for lo, hi in zip(starts, ends)):
        raise ValueError(f"row ends {ends} do not cut {nrows} rows into blocks")
    if not nrows:
        return [mzeros(0, 0) for _ in ends]
    kept = _unforced_rows(a.rows, a.cols, a.vals, nrows, ring.p)
    e = kept[a.rows].nonzero()[0]
    renumber = np.cumsum(kept)
    kept_ends = [int(renumber[end - 1]) if end else 0 for end in ends]
    peeled = SparseMatrix(renumber[a.rows[e]] - 1, a.cols[e], a.vals[e], (kept_ends[-1], a.shape[1]))
    gens: list[dict] = []
    _eliminate(_row_dicts(peeled), ring, transform=True, kernel=gens)
    pivots = _eliminate(gens, ring, False)
    split = [pivots] if len(ends) == 1 else _split_blocks(pivots, kept_ends)
    # each kept row as a row of its block (itself when one block keeps every row)
    local = None if kept_ends == [nrows] else kept.nonzero()[0]
    if len(ends) > 1:
        local -= np.repeat(starts, [hi - lo for lo, hi in zip([0, *kept_ends], kept_ends)])
    return [_reduced(rows, local, hi - lo, 0, ring, False) if hi > lo else mzeros(0, 0)
            for lo, hi, rows in zip(starts, ends, split)]


def _split_blocks(pivots: list, ends: list[int]) -> list[list]:
    """The kernel ``pivots`` of ``_eliminate``, in increasing column order
    (a column is a kept row), split by block: block k holds the columns
    below ``ends[k]``.  A row that crosses a block boundary raises
    ValueError."""
    split: list[list] = [[] for _ in ends]
    block = 0
    for pivot in pivots:
        while pivot[0] >= ends[block]:
            block += 1
        if max(pivot[1]) >= ends[block]:
            raise ValueError("a kernel row crosses a block boundary: the matrix is not block diagonal")
        split[block].append(pivot)
    return split


def _unforced_rows(r: np.ndarray, c: np.ndarray, v: np.ndarray, nrows: int, p: int) -> np.ndarray:
    """Mask of the rows that the peel of ``block_left_kernels`` keeps,
    given the nonzero entries (r, c, v) of an ``nrows``-row matrix over
    Z/p^n.

    A column whose only entry among the rows still kept is a unit forces
    its row to zero in every kernel vector, so that row is dropped.  Each
    round drops the rows of all such columns at once, then counts the
    columns again over the rows still kept; it stops when a round drops
    nothing.  The rows dropped are those of the one-at-a-time peel, since
    dropping rows only empties columns further.
    """
    keep = np.ones(nrows, dtype=bool)
    unit = v % p != 0
    while r.size:
        hit = r[unit & (np.bincount(c)[c] == 1)]
        if not hit.size:
            break
        keep[hit] = False
        left = keep[r]
        r, c, unit = r[left], c[left], unit[left]
    return keep


def express_in_basis(vectors: np.ndarray, basis: np.ndarray, ring: ModRing) -> np.ndarray:
    """Coordinates of each row of ``vectors`` in the free row basis ``basis``."""
    vec = np.asarray(vectors, dtype=np.int64)
    if vec.ndim == 1:
        vec = vec.reshape(1, -1)
    solve = span_solver(basis, ring)
    outs = []
    for v in vec:
        c = solve(v)
        if c is None:
            raise ValueError("vector not in span of the given basis")
        outs.append(c)
    if not outs:
        return mzeros(0, basis.shape[0])
    return np.vstack(outs) % ring.modulus


def minimal_generators(rows: np.ndarray, ring: ModRing) -> np.ndarray:
    """Select a minimal generating family from ``rows`` for a free summand.

    Rows whose mod-p reductions are linearly independent generate by
    Nakayama; the caller is responsible for the span actually being free
    (true for normalized parts of simplicial modules).  A row is kept when
    its reduction is independent of those of the rows kept before it: the
    kept rows are the pivot columns of the transpose over F_p.
    """
    m = ring.modulus
    rows = np.asarray(rows, dtype=np.int64) % m
    if rows.shape[0] == 0:
        return rows
    fp = ModRing(ring.p, 1)
    a = as_sparse(rows.T, ring.p)
    return rows[[col for col, _, _ in _eliminate(_row_dicts(a), fp, False)]]


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

    Step t reads only the trailing block ``a[t:, t:]``.  The row
    operations that clear column t below the pivot update ``a[t+1:, t+1:]``
    and skip column t itself, which no later step reads.  Column t is then
    zero but for the pivot, so the column operations that clear row t
    change no entry of ``a`` outside row t, which no later step reads
    either: they run on V and Vinv alone.
    """
    m = ring.modulus
    a = np.asarray(matrix, dtype=np.int64) % m  # a new array
    if a.ndim != 2:
        raise ValueError("local_smith expects a 2-d matrix")
    rows, cols = a.shape
    v_mat = np.eye(cols, dtype=np.int64) if want_transform else None
    vinv = np.eye(cols, dtype=np.int64) if want_transform else None
    pivots: list[int] = []  # p^(valuation) of each pivot
    t = 0
    while t < min(rows, cols):
        # gcd(entry, p^n) is p^(valuation), and p^n for a zero entry, so the
        # first least one is the first entry of least valuation, row-major
        g = np.gcd(a[t:, t:], m)
        i_off, j_off = divmod(int(g.argmin()), cols - t)
        pe = int(g[i_off, j_off])
        if pe == m:
            break
        i, j = t + i_off, t + j_off
        if i != t:
            a[[t, i], t:] = a[[i, t], t:]
        if j != t:
            a[t:, [t, j]] = a[t:, [j, t]]
            if want_transform:
                v_mat[:, [t, j]] = v_mat[:, [j, t]]
                vinv[[t, j]] = vinv[[j, t]]
        unit_inv = ring.unit_inverse(int(a[t, t]) // pe)
        a[t, t:] = (a[t, t:] * unit_inv) % m
        # clear the column below (row ops; untracked side)
        col = a[t + 1 :, t]
        if col.any():
            q = col // pe
            a[t + 1 :, t + 1 :] = (a[t + 1 :, t + 1 :] - q[:, None] * a[t, t + 1 :]) % m
        # clear the row to the right (column ops; tracked side, and only there)
        row = a[t, t + 1 :]
        if want_transform and row.any():
            q = row // pe
            v_mat[:, t + 1 :] = (v_mat[:, t + 1 :] - v_mat[:, [t]] * q[None, :]) % m
            vinv[t] = (vinv[t] + mmul(q, vinv[t + 1 :], ring)) % m
        pivots.append(pe)
        t += 1
    return pivots + [m] * (cols - len(pivots)), v_mat, vinv


def v_int(a: int, p: int) -> int:
    if a == 0:
        raise ValueError("valuation of 0")
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


class SliceQuotient:
    """cycles/boundaries with invariant factors and explicit representatives.

    ``factors[j]`` > 1 is the order of the j-th cyclic generator whose
    ambient row vector is ``gen_reps[j]``; ``coords`` projects any cycle to
    its coordinate tuple (each entry taken modulo its factor).

    A quotient taken on a contracted slice (see
    ``complexes.homology_quotient``) keeps ``cycles`` in the contracted
    basis and ``_to_contracted``, which maps an ambient vector into it
    (None for a non-cycle); ``gen_reps`` and ``ambient_dim`` are those of
    the original slice.
    """

    def __init__(self, ring: ModRing, ambient_dim: int, cycles: np.ndarray, factors: list[int],
                 gen_reps: np.ndarray, _vmat: np.ndarray, _all_factors: list[int],
                 _to_contracted: Callable[[np.ndarray], np.ndarray | None] | None = None):
        self.ring = ring
        self.ambient_dim = ambient_dim
        self.cycles = cycles  # Howell basis rows
        self.factors = factors
        self.gen_reps = gen_reps
        self._vmat = _vmat  # coordinate-change matrix mod p^n (u x u)
        self._all_factors = _all_factors  # length u, including trivial 1s
        self._to_contracted = _to_contracted

    @staticmethod
    def from_cycles_boundaries(cycles, boundaries, ring: ModRing) -> "SliceQuotient":
        """cycles/boundaries from a Howell basis of the cycles.

        ``cycles`` must already be in Howell form (as ``left_kernel``
        returns it; an identity matrix or a matrix with no rows also is):
        it is stored and used as is, without another Howell pass.
        ``boundaries`` are rows of the same width inside the span of
        ``cycles``; ValueError otherwise.
        """
        hk = np.asarray(cycles, dtype=np.int64)
        u, amb = hk.shape
        relations = cycle_relations(hk, boundaries, ring)
        if not u:
            return SliceQuotient(ring, amb, hk, [], hk, mzeros(0, 0), [])
        all_factors, vmod, vinv = local_smith(relations, ring, want_transform=True)
        keep = [j for j, d in enumerate(all_factors) if d > 1]
        return SliceQuotient(ring, amb, hk, [all_factors[j] for j in keep], mmul(vinv[keep], hk, ring),
                             vmod, all_factors)

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
        return span_solver(self.cycles, self.ring)


def _span_length(h: np.ndarray, ring: ModRing) -> int:
    """log_p of the order of the span of the rows of a Howell basis ``h``:
    the sum of n - v(pivot) over its rows, whose leading entries are the
    pivots."""
    pivots = h[np.arange(h.shape[0]), (h != 0).argmax(axis=1)]
    valuations = np.searchsorted(ring.p ** np.arange(ring.n + 1), np.gcd(pivots, ring.modulus))
    return ring.n * h.shape[0] - int(valuations.sum())


def cycle_relations(cycles: np.ndarray, boundaries, ring: ModRing) -> np.ndarray:
    """The relations that ``boundaries`` impose on the rows of the Howell
    basis ``cycles``: a Howell basis of {c : c @ cycles in span(boundaries)},
    with one column per row of ``cycles`` (0 x 0 when there are none).
    ``boundaries`` are rows of the same width inside the span of
    ``cycles``; ValueError otherwise."""
    hk = np.asarray(cycles, dtype=np.int64)
    u = hk.shape[0]
    b = np.asarray(boundaries, dtype=np.int64) % ring.modulus
    if not u:
        if b.any():
            raise ValueError("boundaries not contained in cycles")
        return mzeros(0, 0)
    ker = left_kernel(np.vstack([hk, b]), ring)
    # |span [hk; b]| |ker| = p^(n (u + r)), and span(hk) lies inside
    # span [hk; b], so b lies in span(hk) exactly when their orders agree
    if _span_length(ker, ring) + _span_length(hk, ring) != ring.n * ker.shape[1]:
        raise ValueError("boundaries not contained in cycles")
    return ker[:, :u]


def quotient_factors(cycles: np.ndarray, boundaries, ring: ModRing) -> list[int]:
    """The ``factors`` of ``SliceQuotient.from_cycles_boundaries(cycles,
    boundaries, ring)``, from the same ``cycle_relations`` and ``local_smith``
    with no transform, and so with no representatives."""
    factors, _, _ = local_smith(cycle_relations(cycles, boundaries, ring), ring)
    return [d for d in factors if d > 1]


def quotient_invariants(cycles: np.ndarray, boundaries: np.ndarray, ring: ModRing) -> list[int]:
    """Invariant factors of span(cycles)/span(boundaries), boundaries inside
    cycles, ascending: the ``quotient_factors`` of the Howell basis of the
    cycles, which are the ``factors`` of their :class:`SliceQuotient`.
    A module R^g / span(relations) has the factors of (np.eye(g), relations)."""
    return quotient_factors(howell_form(cycles, ring), boundaries, ring)


# ---------------------------------------------------------------------------
# resultants


def resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Res(f, g) of integer polynomials, exact.

    Polynomials are coefficient lists, constant term first.  Computed by
    the Euclidean remainder sequence over Q: with r = f mod g,
    Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r), and
    Res(f, c) = c^(deg f) for a constant c.
    """
    f = [Fraction(c) for c in trim(f)]
    g = [Fraction(c) for c in trim(g)]
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    res = Fraction(1)
    while len(g) > 1:
        lead = g[-1]
        r = trim(rem(f, [c / lead for c in g]))
        if not r:
            return 0
        if (len(f) - 1) * (len(g) - 1) % 2:
            res = -res
        res *= lead ** (len(f) - len(r))
        f, g = g, r
    res *= g[0] ** (len(f) - 1)
    assert res.denominator == 1
    return res.numerator
