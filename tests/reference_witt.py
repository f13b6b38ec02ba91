"""Tuple-level Witt arithmetic kept as the reference for ``witt.WittRing``.

``eval_poly`` is the structure-polynomial evaluation that ``WittRing`` used
before it coded base elements into numpy tables, unchanged apart from
taking the base ring as an argument.  It works on base-ring elements
directly, with the base ring's own add, mul and scale, so the tests can
require the coded arithmetic to return exactly the same coordinates.
``coding`` is the per-pair table build that the numpy tables of the base
rings replaced.  ``pair_tables`` and ``is_ring_map`` are the exhaustive
ring-map check that the check on additive generators replaced: the sum and
product of every pair of Witt vectors, compared with the target's tables,
and the image of 1.
``ghost``, ``theta_map`` and ``generator_ring_homomorphisms`` are the
one-Witt-vector-at-a-time paths that array evaluations on code tables and
digit rows replaced, computed with the rings' own tuple operations.
"""

from __future__ import annotations

import numpy as np

from derhamkit.witt import witt_additive_basis


def eval_poly(base, poly, values):
    """Evaluate an integer-coefficient structure polynomial on base values."""
    acc = base.zero
    pow_cache = {}
    for expts, coeff in poly.items():
        term = None
        for idx, k in enumerate(expts):
            if k == 0:
                continue
            key = (idx, k)
            if key not in pow_cache:
                v = values[idx]
                pw = base.one
                for _ in range(k):
                    pw = base.mul(pw, v)
                pow_cache[key] = pw
            term = pow_cache[key] if term is None else base.mul(term, pow_cache[key])
        if term is None:
            term = base.one
        acc = base.add(acc, base.scale(coeff, term))
    return acc


def witt_op(base, polys, *operands):
    """Coordinates of the Witt vector with structure polynomials ``polys``
    applied to the coordinates of ``operands``, over ``base``."""
    values = [c for w in operands for c in w.coords]
    return tuple(eval_poly(base, s, values) for s in polys)


def coding(base, rows=None):
    """(elements, code, add, mul) as ``WittRing.coding`` built them before
    base rings had numpy tables: one ``base.add`` and one ``base.mul`` per
    pair.  With ``rows``, only the table rows at those positions."""
    elems = list(base.enumerate())
    code = {e: i for i, e in enumerate(elems)}
    rows = range(len(elems)) if rows is None else rows
    add = np.array([[code[base.add(elems[i], b)] for b in elems] for i in rows], dtype=np.int64)
    mul = np.array([[code[base.mul(elems[i], b)] for b in elems] for i in rows], dtype=np.int64)
    return elems, code, add, mul


def pair_tables(wr):
    """(add, mul): integer arrays whose [i, j] entries are the positions in
    ``wr.enumerate()`` of a_i + a_j and a_i * a_j, for every pair.
    ValueError above 2^12 elements."""
    size = wr.size
    if size > 2 ** 12:
        raise ValueError(f"W_{wr.length} carrier of {size} elements exceeds the "
                         "bound 2^12 on exhaustive pair checks")
    digits = wr.coordinate_codes()
    values = [d[:, None] for d in digits] + [d[None, :] for d in digits]
    return tuple(np.broadcast_to(wr.positions(polys, values), (size, size))
                 for polys in (wr.table().add, wr.table().mul))


def is_ring_map(wr, images, target) -> bool:
    """Whether sending the i-th element of ``wr.enumerate()`` to the target
    element at position images[i] of ``target.enumerate()`` respects + and *
    on every pair of elements, and sends 1 to 1: the pair tables of ``wr``
    are compared with the target's own tables."""
    add_pos, mul_pos = pair_tables(wr)
    _, code, add, mul = target.tables
    img = np.asarray(images, dtype=np.int64)
    return (all(np.array_equal(img[pos], table[img[:, None], img[None, :]])
                for pos, table in ((add_pos, add), (mul_pos, mul)))
            and img[wr.position(wr.one)] == code[target.one])


def ghost(w, base) -> tuple:
    """Ghost components of one Witt vector, by the add, scale and power of
    ``base``: the Witt vector's base ring, or its ``TiltArithmetic``."""
    p = w.ring.p
    out = []
    for i in range(w.ring.length):
        acc = base.zero
        for j in range(i + 1):
            acc = base.add(acc, base.scale(p ** j, base.power(w.coords[j], p ** (i - j))))
        out.append(acc)
    return tuple(out)


def theta_map(w, model, lift=None) -> tuple:
    """theta(a_0..a_{n-1}) = sum p^i (lift of a_i[k])^{p^(k-i)} in O/p^n,
    one Witt vector at a time in O's tuple arithmetic."""
    o = model.ring_o()
    p = model.p
    acc = o.zero
    deflift = lambda rbar: tuple(rbar) + (0,) * (o.deg - len(rbar))
    lf = lift or deflift
    for i in range(w.ring.length):
        deepest = w.coords[i][model.k]
        val = o.power(o.element(lf(deepest)), p ** (model.k - i))
        acc = o.add(acc, o.scale(p ** i, val))
    return acc


def generator_ring_homomorphisms(wr, target):
    """``witt.generator_ring_homomorphisms`` with the images of all elements
    built one element at a time in the target's tuple arithmetic and
    checked by the exhaustive ``is_ring_map`` above; a candidate image g of
    [x] is kept only when it is the image of [x]."""
    _, coeffs = witt_additive_basis(wr)
    elems = list(wr.enumerate())
    x = [w.coords for w in elems].index(wr.teichmuller(wr.base.x_power(1)).coords)
    _, code, _, _ = target.tables
    gens = []
    for img in target.enumerate():
        images = []
        for e in range(len(elems)):
            acc = target.zero
            powg = target.one
            for c in coeffs[:, e].tolist():
                acc = target.add(acc, target.scale(c, powg))
                powg = target.mul(powg, img)
            images.append(acc)
        if images[x] == img and is_ring_map(wr, [code[t] for t in images], target):
            gens.append((img, {w.coords: t for w, t in zip(elems, images)}))
    return gens


class TiltArithmetic:
    """The per-element ring operations ``TiltRing`` had before Witt arithmetic
    and ghost maps ran on its tables: each acts on the deepest entries in
    O/p and looks the whole sequence up."""

    def __init__(self, tilt):
        self.omodp = tilt.omodp
        self.zero, self.one = tilt.zero, tilt.one
        self.sequence = {s[-1]: s for s in tilt.enumerate()}

    def enumerate(self):
        yield from self.sequence.values()

    def add(self, a, b):
        return self.sequence[self.omodp.add(a[-1], b[-1])]

    def mul(self, a, b):
        return self.sequence[self.omodp.mul(a[-1], b[-1])]

    def scale(self, c, a):
        return self.sequence[self.omodp.scale(c, a[-1])]

    def power(self, a, k: int):
        return self.sequence[self.omodp.power(a[-1], k)]
