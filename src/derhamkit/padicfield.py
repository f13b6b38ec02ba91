"""Exact ramification arithmetic for monogenic extensions of Q_p.

An extension O_L = Z_p[b] is a ``upoly.Monogenic`` whose f, the monic
minimal polynomial of b, stays over Z.  Different ideals through
resultants, and module lengths of relative differentials through
``cotangent.kaehler_factors`` of the algebra read over Z/p^precision.
Valuations are exact rationals with denominator dividing the degree; no
p-adic floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .cotangent import kaehler_factors
from .exactlin import ModRing, PAdicValue, is_prime, resultant, v_int
from .upoly import Monogenic, cyclotomic_polynomial_ppower

__all__ = [
    "cyclotomic_extension",
    "different_valuation",
    "omega_invariants",
]


def cyclotomic_extension(p: int, r: int) -> Monogenic:
    """Q_p(zeta_{p^r}): totally ramified of degree p^(r-1)(p-1), as the
    algebra of Phi_{p^r} over F_p."""
    if not is_prime(p) or r < 1:
        raise ValueError("need a prime p and level r >= 1")
    return Monogenic(ModRing(p, 1), cyclotomic_polynomial_ppower(p, r))


def different_valuation(ext: Monogenic) -> PAdicValue:
    """v(f'(b)) = v_p(Res(f, f')) / [L : Q_p], exact."""
    res = resultant(list(ext.f_coeffs), ext.fprime())
    if res == 0:
        raise ValueError("inseparable polynomial: the different is undefined")
    return PAdicValue(ext.ring.p, Fraction(v_int(abs(res), ext.ring.p), ext.degree))


def omega_invariants(ext: Monogenic, precision: int):
    """Length over Z_p of Omega^1(O_L / Z_p) = O_L / (f'(b)).

    The lengths of its cyclic summands are the valuations of the invariant
    factors of Omega^1 of Z/p^precision[x]/(f), ``kaehler_factors`` of the
    extension's f read at that precision.  A summand of length precision or
    more saturates there: a singular multiplication by f' is an inseparable
    f, otherwise the precision is too small.  p^precision must be below
    2^31, as for any ``ModRing``; else ValueError.
    """
    alg = Monogenic(ModRing(ext.ring.p, precision), ext.f_coeffs)
    factors = kaehler_factors(alg)
    if alg.m in factors:
        if resultant(list(ext.f_coeffs), ext.fprime()) == 0:
            raise ValueError("inseparable: multiplication matrix is singular")
        raise ValueError(f"precision {precision} too small: length saturates at {ext.degree * precision}")
    lengths = sorted(v_int(d, ext.ring.p) for d in factors)
    return sum(lengths), lengths
