"""Earlier ``simplex`` constructions kept as references for the library ones.

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
identity families are checked with ``mmul``.  The tests require the
library's versions to equal these exactly, and ``validate`` to raise
exactly when ``validate_simplicial`` does, with the same message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from reference_exactlin import augmented_left_kernel

from derhamkit.complexes import GradedSliceComplex
from derhamkit.exactlin import (
    ModRing,
    express_in_basis,
    howell_form,
    midentity,
    minimal_generators,
    mmul,
    mzeros,
)
from derhamkit.simplex import (
    MonotoneMap,
    NormalizedData,
    SimplicialModule,
    kan_block,
    monotone_surjections,
)

# these references ask for the same blocks many times over
kan_block = lru_cache(maxsize=None)(kan_block)


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
    labels = {}

    for w in c.weights():
        def cdim(p):
            return c.dim(p, w)

        layout = {n: _kan_blocks(n, cdim) for n in range(d_max + 1)}
        sizes = {n: sum(cdim(p) for (_, p, _) in layout[n]) for n in range(d_max + 1)}
        index = {n: {eta.values: off for (eta, _, off) in layout[n]} for n in range(d_max + 1)}
        for n in range(d_max + 1):
            if sizes[n]:
                dims[(n, w)] = sizes[n]
                labels[(n, w)] = [(eta.values, p) for (eta, p, _) in layout[n] for _ in range(cdim(p))]

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

    return SimplicialModule(ring, d_max, dims, faces, degens, labels)


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
