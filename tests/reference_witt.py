"""Tuple-level Witt arithmetic kept as the reference for ``witt.WittRing``.

``eval_poly`` is the structure-polynomial evaluation that ``WittRing`` used
before it coded base elements into numpy tables, unchanged apart from
taking the base ring as an argument.  It works on base-ring elements
directly, with the base ring's own add, mul and scale, so the tests can
require the coded arithmetic to return exactly the same coordinates.
``coding`` and ``is_ring_map`` are the per-pair table build and ring-map
check that the numpy tables of the base and target rings replaced.
"""

from __future__ import annotations

import numpy as np


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


def is_ring_map(wr, images, target) -> bool:
    """``witt.is_ring_map`` as it was before targets had tables: the
    target's add and mul run once per pair of distinct images."""
    add_pos, mul_pos = wr.pair_tables
    distinct = list(dict.fromkeys(images))
    index = {t: i for i, t in enumerate(distinct)}
    img = np.array([index[t] for t in images], dtype=np.int64)
    for op, pos in ((target.add, add_pos), (target.mul, mul_pos)):
        # -1 marks a result outside the images, which no element maps to
        expected = np.array([[index.get(op(s, t), -1) for t in distinct] for s in distinct],
                            dtype=np.int64)
        if not np.array_equal(img[pos], expected[img[:, None], img[None, :]]):
            return False
    return True
