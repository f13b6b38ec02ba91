"""Recursive monomial enumeration kept as the reference for
``polyalg.PolyAlgebra.monomials_of_weight``.

This is how the algebra listed the monomials of one weight before the
enumeration was built tail first: a recursion over the allowed variables
that copies its partial exponent list at every step, and one sort at the
end into reverse graded-lex order.
"""

from __future__ import annotations

from typing import Sequence

from derhamkit.polyalg import PolyAlgebra


def monomials_of_weight(alg: PolyAlgebra, w: int,
                        allowed: Sequence[int] | None = None) -> tuple[tuple[int, ...], ...]:
    idxs = list(range(alg.nvars)) if allowed is None else list(allowed)
    out: list[tuple[int, ...]] = []

    def rec(pos: int, remaining: int, acc: list[int]):
        if pos == len(idxs):
            if remaining == 0:
                e = [0] * alg.nvars
                for k, i in enumerate(idxs):
                    e[i] = acc[k]
                out.append(tuple(e))
            return
        wt = alg.weights[idxs[pos]]
        for c in range(remaining // wt + 1):
            rec(pos + 1, remaining - c * wt, acc + [c])

    rec(0, w, [])
    out.sort(reverse=True)
    return tuple(out)
