"""Exact linear algebra over Z, Z/p^n and F_p.

Everything downstream (chain complexes, homology, module invariants) reduces
to the kernels in this module: Smith normal form over Z with unimodular
certificates, Howell canonical forms over Z/p^n, left kernels, span
membership, p-adic valuations and resultants.

Conventions: module elements are *row* vectors; a homomorphism is a matrix
``M`` of shape (source dim, target dim) acting by ``v @ M``.  Matrices over
Z/p^n are numpy int64 arrays with entries reduced to [0, p^n), and p^n is
below 2^31 so that a product of two residues fits in int64; sparse ones are
:class:`SparseMatrix` triples in the canonical form ``as_sparse`` makes.
Matrices over Z are plain lists of Python ints (arbitrary precision).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .upoly import rem, trim

__all__ = [
    "ModRing",
    "ZZ",
    "PAdicValue",
    "ModulePresentation",
    "is_prime",
    "smith_normal_form",
    "normal_form",
    "howell_form",
    "left_kernel",
    "SparseMatrix",
    "as_sparse",
    "sparse_product",
    "solve_in_span",
    "express_in_basis",
    "quotient_invariants",
    "module_invariants",
    "padic_valuation",
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


@dataclass(frozen=True)
class ModRing:
    """The coefficient ring Z/p^n (F_p when n = 1)."""

    p: int
    n: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus base {self.p} is not prime")
        if self.n < 1:
            raise ValueError("exponent must be >= 1")
        # the numpy kernels multiply two residues in int64: m^2 must fit
        if self.p ** self.n >= 2 ** 31:
            raise ValueError(f"modulus {self.p}^{self.n} is not below 2^31, "
                             "the largest the int64 kernels handle exactly")

    @cached_property
    def modulus(self) -> int:
        return self.p ** self.n

    def reduce(self, a: int) -> int:
        return a % self.modulus

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


class _IntegerRing:
    """Sentinel for Z coefficients (Smith form path)."""

    def __str__(self):
        return "Z"

    def __repr__(self):
        return "ZZ"


ZZ = _IntegerRing()


@dataclass(frozen=True)
class PAdicValue:
    """Exact rational valuation with a +infinity marker.

    The denominator is expected to divide the declared ramification index of
    whatever extension produced the value; `with_index` asserts this.
    """

    prime: int
    value: Fraction | None  # None encodes +infinity

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def with_index(self, e: int) -> "PAdicValue":
        if self.value is not None and (self.value * e).denominator != 1:
            raise ValueError(f"valuation {self.value} has denominator not dividing e={e}")
        return self

    def __str__(self):
        return "+inf" if self.value is None else str(self.value)


@dataclass
class ModulePresentation:
    """Finitely presented module: cokernel of ``relations`` acting on rows.

    ``relations`` has ``generators`` columns; the module is
    R^generators / rowspan(relations) over ``ring``.
    """

    ring: ModRing
    generators: int
    relations: np.ndarray  # shape (k, generators), k >= 0

    def __post_init__(self):
        if self.generators == 0:
            self.relations = np.zeros((0, 0), dtype=np.int64)
            return
        self.relations = np.asarray(self.relations, dtype=np.int64).reshape(-1, self.generators)
        self.relations %= self.ring.modulus


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


def _int_matrix(a) -> list[list[int]]:
    if isinstance(a, np.ndarray):
        return [[int(x) for x in row] for row in a]
    return [[int(x) for x in row] for row in a]


def smith_normal_form(matrix, want_vinv: bool = False):
    """Smith normal form over Z: returns (S, U, V) with U*A*V = S.

    S is diagonal with nonnegative entries d_1 | d_2 | ..., U and V are
    unimodular.  With ``want_vinv`` the inverse of V is tracked and returned
    as a fourth value.  Pure Python integers throughout, so
    cyclotomic-sized entries are exact.
    """
    a = _int_matrix(matrix)
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
    the elimination consumes.

    Forward elimination is ``_eliminate``.  Back-reduction takes the pivots
    in increasing column order and reduces the entries above each one
    modulo it, as one numpy update of the dense output restricted to the
    rows whose quotient is nonzero.  A pivot row is zero left of its pivot,
    so later steps never disturb already-reduced columns.  These rules fix
    H and T completely, not just up to the canonical span.
    """
    m = ring.modulus
    nrows = len(rows)
    pivots = _eliminate(rows, cols, ring, transform)

    h = mzeros(len(pivots), cols)
    tt = mzeros(len(pivots), nrows) if transform else None
    for k, (_, row, row_t) in enumerate(pivots):
        h[k, list(row)] = list(row.values())
        if transform:
            tt[k, list(row_t)] = list(row_t.values())
    for k, (col, _, _) in enumerate(pivots):
        q = h[:k, col] // h[k, col]
        above = np.flatnonzero(q)
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
    have equal arrays.  Built directly, it is input to ``as_sparse``, but
    ``SparseMatrix(shape=shape)`` is the zero matrix."""

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


def as_sparse(matrix, m: int) -> SparseMatrix:
    """The canonical :class:`SparseMatrix` mod m of a dense matrix (a 1-d
    one is a single row) or of triples in any order, unreduced, whose
    repeated positions are summed.  An entry outside the shape is an error."""
    if not isinstance(matrix, SparseMatrix):
        a = np.asarray(matrix, dtype=np.int64) % m
        a = a.reshape(1, -1) if a.ndim == 1 else a
        r, c = np.nonzero(a)
        return SparseMatrix(r, c, a[r, c], a.shape)
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
            return SparseMatrix(r, c, v, shape)
        nz = v.nonzero()[0]
        return SparseMatrix(r[nz], c[nz], v[nz], shape)
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
    return SparseMatrix(key // ncols, key % ncols, sums[nz], shape)


def sparse_product(a: SparseMatrix, b: SparseMatrix, m: int) -> SparseMatrix:
    """a b mod m, joined on the middle index, which needs ``b`` row-major.
    Each product is reduced before the sums, so nothing leaves int64."""
    shape = (a.shape[0], b.shape[1])
    lo = b.rows.searchsorted(a.cols)
    counts = b.rows.searchsorted(a.cols, side="right") - lo
    ends = counts.cumsum()
    if not ends.size or not ends[-1]:
        return SparseMatrix(shape=shape)
    left = np.arange(a.vals.size).repeat(counts)
    right = np.arange(ends[-1]) + (lo - (ends - counts)).repeat(counts)
    return _summed(a.rows[left] * shape[1] + b.cols[right], a.vals[left] * b.vals[right] % m, shape, m)


def _row_dicts(a: SparseMatrix) -> list[dict]:
    """The rows of ``a`` as ``{col: value}`` dicts of Python ints."""
    rows: list[dict] = [{} for _ in range(a.shape[0])]
    for i, j, x in zip(a.rows.tolist(), a.cols.tolist(), a.vals.tolist()):
        rows[i][j] = x
    return rows


def _eliminate(rows: list[dict], cols: int, ring: ModRing, transform: bool,
               kernel: list | None = None):
    """Sparse forward elimination of ``rows``, the ``{col: value}`` dicts of
    a ``cols``-column matrix A (values reduced mod p^n, zeros absent); the
    dicts are consumed.

    Returns the pivots as (col, row, transform row) in increasing column
    order; rows are ``{col: value}`` dicts of Python ints, and transform
    rows (None unless ``transform``) give each row in terms of the rows of
    A.  Each row is kept in the bucket of its leading column, so column
    ``c`` visits only the rows that are nonzero there.  Eliminating a row
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
    eliminates them, so they span the left kernel of A.  ``left_kernel``
    hands it only the rows that its peel keeps (``_unforced_rows``): the
    others vanish in every kernel vector.
    """
    m = ring.modulus
    p = ring.p

    # buckets[c]: (rank, row, transform row) for each row leading at column c
    buckets: list[list] = [[] for _ in range(cols)]
    for i, row in enumerate(rows):
        if row:
            buckets[min(row)].append((i, row, {i: 1} if transform else None))
        elif kernel is not None:
            kernel.append({i: 1})
    next_rank = len(rows)

    def subtract(row: dict, q: int, tail) -> None:  # row -= q * tail, mod m
        for j, x in tail:
            y = (row.get(j, 0) - q * x) % m
            if y:
                row[j] = y
            else:
                row.pop(j, None)

    pivots: list[tuple[int, dict, dict | None]] = []  # (col, row, transform row)
    for col in range(cols):
        bucket = buckets[col]
        if not bucket:
            continue
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
                buckets[min(row)].append(entry)
            elif kernel is not None and row_t:
                kernel.append(row_t)
        if v > 0:
            s = p ** (ring.n - v)
            srow = {j: y for j, x in piv.items() if (y := x * s % m)}
            if srow or kernel is not None:
                srow_t = {j: y for j, x in piv_t.items() if (y := x * s % m)} if transform else None
                if srow:
                    buckets[min(srow)].append((next_rank, srow, srow_t))
                    next_rank += 1
                elif srow_t:
                    kernel.append(srow_t)
        pivots.append((col, piv, piv_t))
    return pivots


def solve_in_span(vector: np.ndarray, rows: np.ndarray, ring: ModRing):
    """Coefficients c with c @ rows == vector, or None if not in the span.

    ``rows`` need not be canonical; a Howell pass with transform is used.
    """
    return _span_solver(rows, ring)(vector)


def _span_solver(rows: np.ndarray, ring: ModRing):
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
    (kernel rank) x (rows of ``matrix``) array.

    ``matrix`` is dense or a :class:`SparseMatrix`; both become the same
    ``{col: value}`` rows.  First the rows that every kernel vector must
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
    """
    a = as_sparse(matrix, ring.modulus)
    nrows, ncols = a.shape
    if not nrows:
        return mzeros(0, 0)
    kept = _unforced_rows(a.rows, a.cols, a.vals, nrows, ring.p)
    renumber = np.cumsum(kept) - 1
    nkept = int(renumber[-1]) + 1
    e = np.flatnonzero(kept[a.rows])
    gens: list[dict] = []
    peeled = SparseMatrix(renumber[a.rows[e]], a.cols[e], a.vals[e], (nkept, ncols))
    _eliminate(_row_dicts(peeled), ncols, ring, transform=True, kernel=gens)
    h = _howell(gens, nkept, ring, False)
    out = mzeros(h.shape[0], nrows)
    out[:, kept] = h
    return out


def _unforced_rows(r: np.ndarray, c: np.ndarray, v: np.ndarray, nrows: int, p: int) -> np.ndarray:
    """Mask of the rows that the peel of ``left_kernel`` keeps, given the
    nonzero entries (r, c, v) of an ``nrows``-row matrix over Z/p^n.

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
    solve = _span_solver(basis, ring)
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
    return rows[[col for col, _, _ in _eliminate(_row_dicts(a), a.shape[1], fp, False)]]


# ---------------------------------------------------------------------------
# normal_form dispatcher and module invariants


def normal_form(matrix, ring=ZZ):
    """Canonical form plus transform certificates.

    Over Z: Smith normal form, returns (S, (U, V)) with U*M*V = S.
    Over Z/p^n: Howell form, returns (H, (T, T')) with T*M = H and T'*H = M
    row-span certificates.
    """
    if ring is ZZ:
        s, u, v = smith_normal_form(matrix)
        return s, (u, v)
    if not isinstance(ring, ModRing):
        raise ValueError("composite non-prime-power moduli are not supported")
    h, t = howell_form(matrix, ring, transform=True)
    a = np.asarray(matrix, dtype=np.int64) % ring.modulus
    if a.ndim == 1:
        a = a.reshape(1, -1)
    back = []
    for row in a:
        c = solve_in_span(row, h, ring) if h.shape[0] else (None if row.any() else mzeros(1, 0)[0])
        if c is None:
            raise AssertionError("Howell span lost a row (internal error)")
        back.append(c)
    tprime = np.vstack(back) % ring.modulus if back else mzeros(0, h.shape[0])
    return h, (t, tprime)


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


def invariant_factors_from_relations(relations: np.ndarray, generators: int, ring: ModRing) -> list[int]:
    """Invariant factors of R^generators / rowspan(relations) over R = Z/p^n:
    the module is the direct sum of Z/d_j with d_j | p^n, listed with
    d_j > 1 ascending."""
    if generators == 0:
        return []
    m = ring.modulus
    rel = np.asarray(relations, dtype=np.int64).reshape(-1, generators) % m
    factors, _, _ = local_smith(rel if rel.size else mzeros(0, generators), ring)
    return sorted(int(d) for d in factors if d != 1)


def module_invariants(pres: ModulePresentation) -> tuple[list[int], int]:
    """Invariant factors and total length of a finitely presented module."""
    facs = invariant_factors_from_relations(pres.relations, pres.generators, pres.ring)
    length = sum(v_int(d, pres.ring.p) for d in facs)
    return facs, length


def v_int(a: int, p: int) -> int:
    if a == 0:
        raise ValueError("valuation of 0")
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


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


# ---------------------------------------------------------------------------
# valuations and resultants


def padic_valuation(q, p: int) -> PAdicValue:
    """Exact v_p of a rational (Fraction or int); v_p(0) = +infinity."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        return PAdicValue(p, None)
    num, den = q.numerator, q.denominator
    return PAdicValue(p, Fraction(v_int(abs(num), p) - v_int(den, p)))


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
