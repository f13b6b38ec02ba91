"""Tuple-level Witt arithmetic kept as the reference for ``witt.WittRing``.

``eval_poly`` is the structure-polynomial evaluation that ``WittRing`` used
before it coded base elements into numpy tables, unchanged apart from
taking the base ring as an argument.  It works on base-ring elements
directly, with the base ring's own add, mul and scale, so the tests can
require the coded arithmetic to return exactly the same coordinates.
"""

from __future__ import annotations


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
