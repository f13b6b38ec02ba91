"""Exact ramification arithmetic for monogenic extensions of Q_p.

Different ideals through resultants, module lengths of relative
differentials through local Smith forms of multiplication matrices, and the
finite-level annihilator computations for the compatible system of p-power
roots of unity.  Valuations are exact rationals with denominator dividing
the ramification index; no p-adic floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import ModRing, PAdicValue, is_prime, local_smith, resultant, v_int
from .upoly import rem
from .witt import cyclotomic_polynomial_ppower

__all__ = [
    "MonogenicExtension",
    "cyclotomic_extension",
    "different_valuation",
    "omega_invariants",
    "fontaine_annihilator_check",
]


@dataclass(frozen=True)
class MonogenicExtension:
    """O_L = Z_p[b] for b with monic minimal polynomial f (constant first).

    The flavor is "cyclotomic" (prime-power, as ``cyclotomic_extension``
    builds it), "eisenstein" or "unramified" (f separable mod p); only the
    last sets the ramification index to 1.
    """

    p: int
    f_coeffs: tuple
    flavor: str
    level: int = 0  # cyclotomic level r when flavor == "cyclotomic"

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
    return _different_from_resultant(ext, resultant(list(ext.f_coeffs), ext.fprime()))


def _different_from_resultant(ext: MonogenicExtension, res: int) -> PAdicValue:
    """v(f'(b)) from res = Res(f, f')."""
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
    rows = [rem([0] * a + ext.fprime(), ext.f_coeffs, ring.modulus) for a in range(ext.degree)]
    factors, _, _ = local_smith(rows, ring)
    if ring.modulus in factors:
        if resultant(list(ext.f_coeffs), ext.fprime()) == 0:
            raise ValueError("inseparable: multiplication matrix is singular")
        raise ValueError(f"precision {precision} too small: length saturates at {ext.degree * precision}")
    lengths = sorted(v_int(d, ext.p) for d in factors)
    return sum(lengths), lengths


@dataclass
class AnnihilatorCheck:
    p: int
    r: int
    expected: Fraction
    via_different: Fraction
    via_uniformizer: Fraction
    dlog_matches_d: bool
    ok: bool


def fontaine_annihilator_check(p: int, r: int) -> AnnihilatorCheck:
    """The annihilator valuation of d(zeta_{p^r}) equals r - 1/(p-1).

    Two independent routes: the different valuation of Q_p(zeta_{p^r}) via
    the resultant, and v(p^r / (zeta_p - 1)) with v(zeta_p - 1) = 1/(p-1)
    computed from the norm of zeta_p - 1.  The dlog class differs from d by
    the unit zeta, so its annihilator agrees; checked through the shifted
    resultant Res(f, x f'(x)).
    """
    ext = cyclotomic_extension(p, r)
    expected = Fraction(r) - Fraction(1, p - 1)
    plain = resultant(list(ext.f_coeffs), ext.fprime())
    via_diff = _different_from_resultant(ext, plain).value

    # v(zeta_p - 1) from the norm in Q_p(zeta_p): Res(Phi_p, x - 1) = Phi_p(1) = p
    phi_p = cyclotomic_polynomial_ppower(p, 1)
    norm = resultant(phi_p, [-1, 1])
    v_unif = Fraction(v_int(abs(norm), p), p - 1)
    via_unif = Fraction(r) - v_unif

    # dlog vs d: multiply the annihilator generator by the unit zeta
    shifted = resultant(list(ext.f_coeffs), [0] + ext.fprime())
    dlog_same = v_int(abs(shifted), p) == v_int(abs(plain), p)

    ok = via_diff == expected and via_unif == expected and dlog_same
    return AnnihilatorCheck(p, r, expected, via_diff, via_unif, dlog_same, ok)
