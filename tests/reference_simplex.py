"""Earlier ``simplex`` constructions kept as references for the library ones.

``MonotoneMap``, ``epi_mono_factorize``, ``monotone_surjections`` and
``kan_block`` are the Kan block rule as ``simplex`` derived it, by the
epi-mono factorization of monotone maps, before it tabulated the rule on
surjection indices (``_kan_table``); the tests require the table to hold
the same rule on every surjection, and the references below build on it.
``double_kan``/``diagonal`` are the pair ``simplex`` used before its
bisimplicial modules became rule-based: every horizontal and vertical face
and degeneracy in the window is built up front as a dense matrix, and the
diagonal multiplies the stored maps.  ``kan_transform`` is the Kan
transform from before it became the row q = 0 of the double Kan
transform: it lays out its own summands (``_kan_blocks``), asks
``kan_block`` for every summand and adds one dense identity per identity
block.  ``normalized_complex`` is the normalized complex from before it
handed the face triples to ``left_kernel`` as one sparse matrix: it
scatters d_0 ... d_{n-1} into one dense stacked matrix, takes its kernel
as a Howell form of the dense [A | I] (no rows are peeled), and maps the
generators through the dense d_n.  ``validate_simplicial`` is
``SimplicialModule.validate`` from before it checked the identities on
triples: every face and degeneracy is built dense once and the five
identity families are checked with ``mmul``.  ``PerSummandKan`` builds
the operators of a double Kan transform as ``BisimplicialModule._operator``
did before they were built in one array pass per kind and direction: one
operator at a time, a loop over the summands of its source, each sent by
``_kan_plan`` to at most one summand of the target.  The tests require the
library's versions to equal these exactly, and ``validate`` to raise
exactly when ``validate_simplicial`` does, with the same message.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from reference_exactlin import augmented_left_kernel

from derhamkit.complexes import GradedSliceComplex
from derhamkit.exactlin import (
    ModRing,
    SparseMatrix,
    canonical,
    express_in_basis,
    howell_form,
    midentity,
    minimal_generators,
    mmul,
    mzeros,
    sparse_product,
)
from derhamkit.simplex import NormalizedData, SimplicialModule


@dataclass(frozen=True)
class MonotoneMap:
    """Nondecreasing map [m] -> [n]; ``values`` has length m+1."""

    source: int
    target: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.source + 1:
            raise ValueError("value list length must be source+1")
        if any(v < 0 or v > self.target for v in self.values):
            raise ValueError("values out of range")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be nondecreasing")

    def __call__(self, i: int) -> int:
        return self.values[i]

    def compose(self, other: "MonotoneMap") -> "MonotoneMap":
        """self o other (apply ``other`` first)."""
        if other.target != self.source:
            raise ValueError("maps not composable")
        return MonotoneMap(other.source, self.target, tuple(self.values[v] for v in other.values))

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and self.values == tuple(range(self.source + 1))

    @staticmethod
    def face(n: int, i: int) -> "MonotoneMap":
        """The injection [n-1] -> [n] whose image avoids i."""
        if not 0 <= i <= n:
            raise ValueError("face index out of range")
        return MonotoneMap(n - 1, n, tuple(v for v in range(n + 1) if v != i))

    @staticmethod
    def degeneracy(n: int, i: int) -> "MonotoneMap":
        """The surjection [n+1] -> [n] hitting i twice."""
        if not 0 <= i <= n:
            raise ValueError("degeneracy index out of range")
        return MonotoneMap(n + 1, n, tuple(v if v <= i else v - 1 for v in range(n + 2)))


def epi_mono_factorize(alpha: MonotoneMap) -> tuple[MonotoneMap, MonotoneMap]:
    """Unique factorization alpha = mono o epi."""
    image = sorted(set(alpha.values))
    mono = MonotoneMap(len(image) - 1, alpha.target, tuple(image))
    lookup = {v: k for k, v in enumerate(image)}
    epi = MonotoneMap(alpha.source, len(image) - 1, tuple(lookup[v] for v in alpha.values))
    return epi, mono


@lru_cache(maxsize=None)
def monotone_surjections(n: int, p: int) -> tuple[MonotoneMap, ...]:
    """All monotone surjections [n] ->> [p], deterministic order."""
    if p > n or p < 0:
        return ()
    out = []
    for steps in itertools.combinations(range(1, n + 1), p):
        vals = [0]
        for i in range(1, n + 1):
            vals.append(vals[-1] + (1 if i in steps else 0))
        out.append(MonotoneMap(n, p, tuple(vals)))
    return tuple(out)




@lru_cache(maxsize=None)  # the references below ask for the same blocks many times over
def kan_block(eta: MonotoneMap, alpha: MonotoneMap) -> tuple[tuple[int, ...], str] | None:
    """Kan block rule for summand eta: [n] ->> [p] under a monotone alpha.

    Factor eta o alpha = mono o eta'.  The block is the identity into
    summand eta' when mono is the identity ("id"), (-1)^p d: C_p -> C_{p-1}
    into summand eta' when mono is the last face [p-1] -> [p] ("d"), and
    zero otherwise (None).  Returns (eta'.values, kind) or None.
    """
    eta2, mono = epi_mono_factorize(eta.compose(alpha))
    if mono.is_identity:
        return eta2.values, "id"
    if mono.source == eta.target - 1 and mono.values == tuple(range(eta.target)):
        return eta2.values, "d"
    return None


@lru_cache(maxsize=None)
def _kan_plan(n: int, i: int, face: bool) -> MappingProxyType:
    """The ``kan_block`` rule of alpha = d_i or s_i on the summands of K_n,
    for any input: eta.values -> (eta'.values, kind) for every surjection
    eta: [n] ->> [p] whose block is not zero.  Read-only, as it is shared."""
    alpha = MonotoneMap.face(n, i) if face else MonotoneMap.degeneracy(n, i)
    plan = {}
    for p in range(n, -1, -1):
        for eta in monotone_surjections(n, p):
            rule = kan_block(eta, alpha)
            if rule is not None:
                plan[eta.values] = rule
    return MappingProxyType(plan)


def validate_simplicial(self: SimplicialModule) -> None:
    """Assert all five simplicial identity families on every slice."""
    r = self.ring
    # each dense map is read many times below: build it once
    face, degen = lru_cache(maxsize=None)(self.face), lru_cache(maxsize=None)(self.degen)
    for w in self.weights():
        for n in range(self.d_max + 1):
            # faces of faces
            for j in range(n + 1):
                for i in range(j):
                    if n >= 2:
                        lhs = mmul(face(n, j, w), face(n - 1, i, w), r)
                        rhs = mmul(face(n, i, w), face(n - 1, j - 1, w), r)
                        if (lhs != rhs).any():
                            raise ValueError(f"face identity fails at n={n}, i={i}, j={j}, w={w}")
            if n + 2 <= self.d_max:
                for j in range(n + 1):
                    for i in range(j + 1):
                        lhs = mmul(degen(n, j, w), degen(n + 1, i, w), r)
                        rhs = mmul(degen(n, i, w), degen(n + 1, j + 1, w), r)
                        if (lhs != rhs).any():
                            raise ValueError(f"degeneracy identity fails at n={n}, i={i}, j={j}, w={w}")
            if n + 1 <= self.d_max:
                for j in range(n + 1):
                    for i in range(n + 2):
                        lhs = mmul(degen(n, j, w), face(n + 1, i, w), r)
                        if i == j or i == j + 1:
                            rhs = midentity(self.dim(n, w))
                        elif i < j:
                            rhs = mmul(face(n, i, w), degen(n - 1, j - 1, w), r)
                        else:
                            rhs = mmul(face(n, i - 1, w), degen(n - 1, j, w), r)
                        if (lhs != rhs).any():
                            raise ValueError(f"mixed identity fails at n={n}, i={i}, j={j}, w={w}")


def _kan_blocks(n: int, dims_of_p) -> list[tuple[MonotoneMap, int, int]]:
    """Summand layout of K(C)_n: (surjection, p, offset); identity first."""
    out = []
    offset = 0
    for p in range(n, -1, -1):
        d = dims_of_p(p)
        if d == 0:
            continue
        for eta in monotone_surjections(n, p):
            out.append((eta, p, offset))
            offset += d
    return out


@dataclass
class BisimplicialModule:
    ring: ModRing
    p_max: int
    q_max: int
    dims: dict  # (p, q, w) -> int
    hfaces: dict  # (p, q, i, w) -> X_{p,q} -> X_{p-1,q}
    vfaces: dict  # (p, q, i, w) -> X_{p,q} -> X_{p,q-1}
    hdegens: dict = field(default_factory=dict)
    vdegens: dict = field(default_factory=dict)

    def dim(self, p, q, w):
        return self.dims.get((p, q, w), 0)

    def weights(self):
        return sorted({w for (_, _, w) in self.dims})

    def _get(self, table, p, q, i, w, rows, cols):
        d = table.get((p, q, i, w))
        if d is not None:
            return np.asarray(d, dtype=np.int64) % self.ring.modulus
        return mzeros(rows, cols)

    def hface(self, p, q, i, w):
        return self._get(self.hfaces, p, q, i, w, self.dim(p, q, w), self.dim(p - 1, q, w))

    def vface(self, p, q, i, w):
        return self._get(self.vfaces, p, q, i, w, self.dim(p, q, w), self.dim(p, q - 1, w))

    def hdegen(self, p, q, i, w):
        return self._get(self.hdegens, p, q, i, w, self.dim(p, q, w), self.dim(p + 1, q, w))

    def vdegen(self, p, q, i, w):
        return self._get(self.vdegens, p, q, i, w, self.dim(p, q, w), self.dim(p, q + 1, w))

    def validate(self) -> None:
        """Row/column simplicial identities plus horizontal-vertical commutation."""
        r = self.ring
        for w in self.weights():
            for q in range(self.q_max + 1):
                row = SimplicialModule(
                    r,
                    self.p_max,
                    {(p, 0): self.dim(p, q, w) for p in range(self.p_max + 1)},
                    {(p, i, 0): self.hface(p, q, i, w) for p in range(1, self.p_max + 1) for i in range(p + 1)},
                    {(p, i, 0): self.hdegen(p, q, i, w) for p in range(self.p_max) for i in range(p + 1)},
                )
                validate_simplicial(row)
            for p in range(self.p_max + 1):
                col = SimplicialModule(
                    r,
                    self.q_max,
                    {(q, 0): self.dim(p, q, w) for q in range(self.q_max + 1)},
                    {(q, i, 0): self.vface(p, q, i, w) for q in range(1, self.q_max + 1) for i in range(q + 1)},
                    {(q, i, 0): self.vdegen(p, q, i, w) for q in range(self.q_max) for i in range(q + 1)},
                )
                validate_simplicial(col)
            for p in range(1, self.p_max + 1):
                for q in range(1, self.q_max + 1):
                    for i in range(p + 1):
                        for j in range(q + 1):
                            hv = mmul(self.hface(p, q, i, w), self.vface(p - 1, q, j, w), r)
                            vh = mmul(self.vface(p, q, j, w), self.hface(p, q - 1, i, w), r)
                            if (hv != vh).any():
                                raise ValueError(f"h/v faces do not commute at {(p, q, i, j, w)}")


def diagonal(b: BisimplicialModule) -> SimplicialModule:
    """X_n = B_{n,n} with d_i = d_i^h d_i^v and s_i = s_i^h s_i^v."""
    if b.p_max != b.q_max:
        raise ValueError("diagonal needs a square window")
    n_max = b.p_max
    dims = {(n, w): b.dim(n, n, w) for n in range(n_max + 1) for w in b.weights() if b.dim(n, n, w)}
    faces = {}
    degens = {}
    for w in b.weights():
        for n in range(1, n_max + 1):
            for i in range(n + 1):
                faces[(n, i, w)] = mmul(b.vface(n, n, i, w), b.hface(n, n - 1, i, w), b.ring)
        for n in range(n_max):
            for i in range(n + 1):
                degens[(n, i, w)] = mmul(b.vdegen(n, n, i, w), b.hdegen(n, n + 1, i, w), b.ring)
    return SimplicialModule(b.ring, n_max, dims, faces, degens)


def double_kan(dc, p_max: int, q_max: int) -> BisimplicialModule:
    """Kan transform in both directions of a double complex with commuting
    differentials: X_{m,n} = sum over pairs of surjections of D_{p,q}."""
    from derhamkit.complexes import DoubleComplex

    assert isinstance(dc, DoubleComplex)
    dc.validate()
    ring = dc.ring
    weights = sorted({w for (_, _, w) in dc.terms})
    dims = {}
    hfaces = {}
    vfaces = {}
    hdegens = {}
    vdegens = {}

    for w in weights:
        def ddim(p, q):
            return dc.dim(p, q, w)

        layout = {}
        sizes = {}
        index = {}
        for m in range(p_max + 1):
            for n in range(q_max + 1):
                blocks = []
                off = 0
                for p in range(m, -1, -1):
                    for q in range(n, -1, -1):
                        d = ddim(p, q)
                        if d == 0:
                            continue
                        for eta in monotone_surjections(m, p):
                            for rho in monotone_surjections(n, q):
                                blocks.append((eta, rho, p, q, off))
                                off += d
                layout[(m, n)] = blocks
                sizes[(m, n)] = off
                index[(m, n)] = {(e.values, r.values): o for (e, r, _, _, o) in blocks}
                if off:
                    dims[(m, n, w)] = off

        def build(m, n, alpha, horizontal: bool):
            tgt_mn = (alpha.source, n) if horizontal else (m, alpha.source)
            out = mzeros(sizes[(m, n)], sizes.get(tgt_mn, 0))
            for (eta, rho, p, q, off) in layout[(m, n)]:
                rule = kan_block(eta if horizontal else rho, alpha)
                if rule is None:
                    continue
                label, kind = rule
                key = (label, rho.values) if horizontal else (eta.values, label)
                o2 = index[tgt_mn].get(key)
                if o2 is None:
                    continue
                if kind == "id":
                    blk = midentity(ddim(p, q))
                elif horizontal:
                    blk = (-1) ** p * dc.h(p, q, w)
                else:
                    blk = (-1) ** q * dc.v(p, q, w)
                out[off : off + blk.shape[0], o2 : o2 + blk.shape[1]] += blk
            return out % ring.modulus

        for m in range(p_max + 1):
            for n in range(q_max + 1):
                for i in range(m + 1):
                    if m >= 1:
                        hfaces[(m, n, i, w)] = build(m, n, MonotoneMap.face(m, i), True)
                    if m < p_max:
                        hdegens[(m, n, i, w)] = build(m, n, MonotoneMap.degeneracy(m, i), True)
                for i in range(n + 1):
                    if n >= 1:
                        vfaces[(m, n, i, w)] = build(m, n, MonotoneMap.face(n, i), False)
                    if n < q_max:
                        vdegens[(m, n, i, w)] = build(m, n, MonotoneMap.degeneracy(n, i), False)

    return BisimplicialModule(ring, p_max, q_max, dims, hfaces, vfaces, hdegens, vdegens)


def kan_transform(c: GradedSliceComplex, d_max: int | None = None) -> SimplicialModule:
    """Quasi-inverse to the normalized complex.

    K(C)_n sums C_p over monotone surjections [n] ->> [p]; each block of
    the action of a monotone map follows ``kan_block``.
    """
    if c.n_min < 0:
        raise ValueError("Kan transform needs a complex concentrated in degrees >= 0")
    if d_max is None:
        d_max = c.n_max
    ring = c.ring
    dims = {}
    faces = {}
    degens = {}

    for w in c.weights():
        def cdim(p):
            return c.dim(p, w)

        layout = {n: _kan_blocks(n, cdim) for n in range(d_max + 1)}
        sizes = {n: sum(cdim(p) for (_, p, _) in layout[n]) for n in range(d_max + 1)}
        index = {n: {eta.values: off for (eta, _, off) in layout[n]} for n in range(d_max + 1)}
        for n in range(d_max + 1):
            if sizes[n]:
                dims[(n, w)] = sizes[n]

        def block_action(n: int, alpha: MonotoneMap) -> np.ndarray:
            out = mzeros(sizes[n], sizes.get(alpha.source, 0))
            for (eta, p, off) in layout[n]:
                rule = kan_block(eta, alpha)
                if rule is None:
                    continue
                label, kind = rule
                off2 = index[alpha.source].get(label)
                if off2 is None:
                    continue
                blk = midentity(cdim(p)) if kind == "id" else (-1) ** p * c.diff(p, w)
                out[off : off + blk.shape[0], off2 : off2 + blk.shape[1]] += blk
            return out % ring.modulus

        for n in range(1, d_max + 1):
            for i in range(n + 1):
                faces[(n, i, w)] = block_action(n, MonotoneMap.face(n, i))
        for n in range(d_max):
            for i in range(n + 1):
                degens[(n, i, w)] = block_action(n, MonotoneMap.degeneracy(n, i))

    return SimplicialModule(ring, d_max, dims, faces, degens)


def normalized_complex(x: SimplicialModule, with_basis: bool = False):
    """N X_n = intersection of ker d_i (i < n), differential (-1)^n d_n."""
    ring = x.ring
    dims = {}
    diffs = {}
    basis: dict = {}
    for w in x.weights():
        for n in range(x.d_max + 1):
            dim = x.dim(n, w)
            if dim == 0:
                basis[(n, w)] = mzeros(0, 0)
                continue
            if n == 0:
                rows = midentity(dim)
            else:
                # d_0 ... d_{n-1} side by side, scattered from their triples
                cols = x.dim(n - 1, w)
                stacked = mzeros(dim, n * cols)
                for i in range(n):
                    f = x.faces.get((n, i, w))
                    if f is not None:
                        stacked[f.rows, f.cols + i * cols] = f.vals
                ker = augmented_left_kernel(stacked, ring)
                rows = minimal_generators(ker, ring)
                # ker is a Howell basis, so the rows span it iff they have it as Howell form
                if not np.array_equal(howell_form(rows, ring), ker):
                    raise AssertionError("normalized slice is not free (invalid simplicial input)")
            basis[(n, w)] = rows
            if rows.shape[0]:
                dims[(n, w)] = rows.shape[0]
            if n >= 1 and rows.shape[0]:
                img = mmul(rows, x.face(n, n, w), ring)
                if n % 2:
                    img = (-img) % ring.modulus
                prev = basis[(n - 1, w)]
                if prev.shape[0]:
                    diffs[(n, w)] = express_in_basis(img, prev, ring)
                elif img.any():
                    raise AssertionError("normalized differential escapes the lower term")
    cx = GradedSliceComplex(ring, 0, x.d_max, dims, diffs, trusted=(0, max(x.d_max - 1, 0)))
    cx.validate()
    if with_basis:
        return NormalizedData(cx, basis)
    return cx


class PerSummandKan:
    """The operators of ``simplex.double_kan(dc, p_max, q_max)``, one at a
    time, by a loop over the summands (eta, rho, p, q, offset) of the
    source that ``layout`` lists; ``index`` finds a target summand's
    offset by (eta.values, rho.values)."""

    def __init__(self, dc, p_max: int, q_max: int):
        self.dc, self.p_max, self.q_max = dc, p_max, q_max
        self.dims, self.layout, self.index = {}, {}, {}
        self._blocks = {}
        for w in sorted({w for (_, _, w) in dc.terms}):
            for m in range(p_max + 1):
                for n in range(q_max + 1):
                    blocks = []
                    off = 0
                    for p in range(m, -1, -1):
                        for q in range(n, -1, -1):
                            d = dc.dim(p, q, w)
                            if d == 0:
                                continue
                            for eta in monotone_surjections(m, p):
                                for rho in monotone_surjections(n, q):
                                    blocks.append((eta, rho, p, q, off))
                                    off += d
                    self.layout[(m, n, w)] = blocks
                    self.index[(m, n, w)] = {(e.values, r.values): o for (e, r, _, _, o) in blocks}
                    if off:
                        self.dims[(m, n, w)] = off

    def dim(self, m, n, w):
        return self.dims.get((m, n, w), 0)

    def operator(self, m, n, i, w, face: bool, directions: str) -> SparseMatrix:
        """d_i or s_i on X_{m,n} in the ``directions`` "h", "v" or "hv" (the
        diagonal: vertically, then horizontally) as a canonical triple; zero
        outside the window."""
        h, v = "h" in directions, "v" in directions
        step = -1 if face else 1
        target = (m + step * h, n + step * v, w)
        shape = (self.dim(m, n, w), self.dim(*target))
        modulus = self.dc.ring.modulus
        if not (0 <= i <= (m if h else n) and 0 <= target[0] <= self.p_max and 0 <= target[1] <= self.q_max):
            return canonical(*SparseMatrix(shape=shape), modulus)
        plan = _kan_plan(m if h else n, i, face)
        index = self.index.get(target, {})
        parts = []  # the triples of the non-identity blocks, moved to their offsets
        id_rows, id_cols = [], []  # the entries of all identity blocks
        for (eta, rho, p, q, off) in self.layout.get((m, n, w), ()):
            rule_h = plan.get(eta.values) if h else (eta.values, "id")
            rule_v = plan.get(rho.values) if v else (rho.values, "id")
            if rule_h is None or rule_v is None:
                continue
            (eta2, kind_h), (rho2, kind_v) = rule_h, rule_v
            off2 = index.get((eta2, rho2))
            if off2 is None:
                continue
            kind = ("v" if kind_v == "d" else "") + ("h" if kind_h == "d" else "")
            if kind:
                blk = self._block(p, q, w, kind)
                if blk.vals.size:
                    parts.append((blk.rows + off, blk.cols + off2, blk.vals))
            else:
                size = self.dc.dim(p, q, w)
                id_rows.extend(range(off, off + size))
                id_cols.extend(range(off2, off2 + size))
        if id_rows:
            parts.append((np.array(id_rows, dtype=np.int64), np.array(id_cols, dtype=np.int64),
                          np.ones(len(id_rows), dtype=np.int64)))
        if len(parts) < 2:
            return canonical(*parts[0], shape, modulus) if parts else canonical(*SparseMatrix(shape=shape), modulus)
        rows, cols, vals = (np.concatenate(part) for part in zip(*parts))
        if id_rows:
            order = np.argsort(rows, kind="stable")
            rows, cols, vals = rows[order], cols[order], vals[order]
        return canonical(rows, cols, vals, shape, modulus)

    def _block(self, p: int, q: int, w: int, kind: str) -> SparseMatrix:
        """The non-identity block leaving the summands of D_{p,q}: "h" is
        (-1)^p D_h, "v" is (-1)^q D_v and "vh" is (-1)^q D_v followed by
        (-1)^p D_h from D_{p,q-1}."""
        key = (p, q, w, kind)
        blk = self._blocks.get(key)
        if blk is None:
            m = self.dc.ring.modulus
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
