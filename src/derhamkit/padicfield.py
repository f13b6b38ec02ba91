"""Exact ramification arithmetic for monogenic extensions of Q_p.

Different ideals through resultants, and module lengths of relative
differentials through local Smith forms of multiplication matrices.
Valuations are exact rationals with denominator dividing the ramification
index; no p-adic floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .exactlin import ModRing, PAdicValue, is_prime, local_smith, resultant, v_int
from .upoly import multiplication_rows
from .witt import cyclotomic_polynomial_ppower

__all__ = [
    "MonogenicExtension",
    "cyclotomic_extension",
    "different_valuation",
    "omega_invariants",
]


class MonogenicExtension:
    """O_L = Z_p[b] for b with monic minimal polynomial f (constant first).

    The flavor is "cyclotomic" (prime-power, as ``cyclotomic_extension``
    builds it), "eisenstein" or "unramified" (f separable mod p); only the
    last sets the ramification index to 1.
    """

    def __init__(self, p: int, f_coeffs: tuple, flavor: str, level: int = 0):
        self.p = p
        self.f_coeffs = f_coeffs
        self.flavor = flavor
        self.level = level  # cyclotomic level r when flavor == "cyclotomic"

    @property
    def degree(self) -> int:
        return len(self.f_coeffs) - 1

    @property
    def ram_index(self) -> int:
        if self.flavor == "unramified":
            return 1
        return self.degree

    def fprime(self) -> list[int]:
        return [k * c for k, c in enumerate(self.f_coeffs)][1:]


def cyclotomic_extension(p: int, r: int) -> MonogenicExtension:
    """Q_p(zeta_{p^r}): totally ramified of degree p^(r-1)(p-1)."""
    if not is_prime(p) or r < 1:
        raise ValueError("need a prime p and level r >= 1")
    return MonogenicExtension(p, tuple(cyclotomic_polynomial_ppower(p, r)), "cyclotomic", r)


def different_valuation(ext: MonogenicExtension) -> PAdicValue:
    """v(f'(b)) = v_p(Res(f, f')) / [L : Q_p], exact."""
    res = resultant(list(ext.f_coeffs), ext.fprime())
    if res == 0:
        raise ValueError("inseparable polynomial: the different is undefined")
    val = Fraction(v_int(abs(res), ext.p), ext.degree)
    return PAdicValue(ext.p, val).with_index(ext.ram_index)


def omega_invariants(ext: MonogenicExtension, precision: int):
    """Length over Z_p of Omega^1(O_L / Z_p) = O_L / (f'(b)).

    The lengths of its cyclic summands are the valuations of the invariant
    factors of the multiplication-by-f'(b) matrix on the power basis of
    Z[x]/(f), read by ``local_smith`` over Z/p^precision.  A summand of
    length precision or more saturates there: a singular matrix is an
    inseparable f, otherwise the precision is too small.  p^precision must
    be below 2^31, as for any ``ModRing``; else ValueError.
    """
    ring = ModRing(ext.p, precision)
    # multiplication-by-f'(x) matrix on the power basis (rows = images), mod p^precision
    rows = multiplication_rows(ext.fprime(), ext.f_coeffs, ring.modulus)
    factors, _, _ = local_smith(rows, ring)
    if ring.modulus in factors:
        if resultant(list(ext.f_coeffs), ext.fprime()) == 0:
            raise ValueError("inseparable: multiplication matrix is singular")
        raise ValueError(f"precision {precision} too small: length saturates at {ext.degree * precision}")
    lengths = sorted(v_int(d, ext.p) for d in factors)
    return sum(lengths), lengths
