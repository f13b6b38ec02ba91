"""Univariate polynomials over Z, Z/m and F_p, and the monogenic algebra.

Polynomials are coefficient lists, constant term first.  ``m=None`` means
exact integer arithmetic; otherwise results are reduced into ``[0, m)``.
``Monogenic`` is the one type for Z/p^n[x]/(f): a presentation's target
(``cotangent``), an extension of Q_p (``padicfield``) and a ring of
scalars of the Witt layer (``witt``).  ``parse_poly_string`` reads the
polynomials of the command line, and ``cyclotomic_polynomial_ppower`` gives
Phi_{p^m}, the f of the cyclotomic tower.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = ["trim", "mul", "rem", "Monogenic", "parse_poly_string", "cyclotomic_polynomial_ppower"]

# Largest algebra that is coded into tables (a base ring of Witt vectors, or
# the O/p of a tilt): the tables of N elements hold 2 N^2 int32 entries.
MAX_CODED = 2 ** 12


def trim(a) -> list[int]:
    """Copy of ``a`` without trailing zero coefficients."""
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


def mul(a, b, m: int) -> list[int]:
    """Product a * b over Z/m, of length len(a) + len(b) - 1."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % m for c in out]


def rem(a, f, m: int | None = None) -> list[int]:
    """Remainder of ``a`` modulo ``f`` as exactly deg f coefficients.

    Over Z/m the leading coefficient of f must be a unit mod m; over Z or
    Q (``m=None``, int or ``Fraction`` coefficients) f must be monic.
    Shorter inputs are zero-padded.
    """
    d = len(f) - 1
    if m is None:
        if f[-1] != 1:
            raise ValueError("division over Z needs a monic divisor")
        inv = 1
    else:
        inv = pow(f[-1], -1, m)
    out = list(a)
    for k in range(len(out) - 1, d - 1, -1):
        q = out[k] * inv if m is None else out[k] * inv % m
        if q:
            # out[k] itself is dropped below, so only the lower d terms move
            for j in range(d):
                out[k - d + j] -= q * f[j]
    out = out[:d] + [0] * (d - len(out))
    return out if m is None else [c % m for c in out]


_TERM = r"[+-]?(?P<c>[0-9]+)?(?P<x>\*?x(?:\^(?P<k>[0-9]+))?)?"  # compiled on first use, not at import


def parse_poly_string(text: str) -> list[int]:
    """Sums of integer monomials in one variable, e.g. '2*x^3 - x + 1', as
    constant-first coefficients.  Whitespace is ignored, and a term starts
    at every sign but a leading one.  Each term must match
    ``[+-]?(int)?(*?x(^int)?)?`` with an integer or an x in it; any other
    term is a ValueError that names it."""
    coeffs: dict[int, int] = {}
    for term in re.split(r"(?<=.)(?=[+-])", "".join(text.split())):
        match = re.fullmatch(_TERM, term)
        if match is None or not (match["c"] or match["x"]):
            raise ValueError(f"cannot read the term {term!r} of the polynomial {text!r}")
        c = int(match["c"] or 1)
        k = 0 if not match["x"] else int(match["k"] or 1)
        coeffs[k] = coeffs.get(k, 0) + (-c if term.startswith("-") else c)
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def cyclotomic_polynomial_ppower(p: int, m: int) -> list[int]:
    """Phi_{p^m}(x) = sum_{k<p} x^(k p^(m-1)), constant-first coefficients."""
    d = (p - 1) * p ** (m - 1)
    coeffs = [0] * (d + 1)
    for k in range(p):
        coeffs[k * p ** (m - 1)] = 1
    return coeffs


class Monogenic(NamedTuple("Monogenic", [("ring", object), ("f_coeffs", tuple)])):
    """The algebra Z/p^n[x]/(f) over ``ring`` = Z/p^n, with elements as
    coefficient tuples of length deg f, constant first.

    ``f_coeffs`` is f as given, over Z and trimmed, so that a resultant or
    a derivative reads the integer polynomial: x^2 - 3 keeps its -3.  Its
    leading coefficient c must be a unit mod p.  The arithmetic runs on the
    monic associate ``g`` = c^-1 f mod p^n, which generates the same ideal.
    Plain Z/p^n is f = x, and F_q is n = 1 with f irreducible mod p.  A
    tuple, so that algebras made from equal arguments are equal and hash
    alike; the instance also holds the derived fields and the ``tables``.
    """

    def __new__(cls, ring, f_coeffs):
        f = tuple(trim(f_coeffs))
        if len(f) < 2 or f[-1] % ring.p == 0:
            raise ValueError("f needs degree >= 1 and a leading coefficient prime to p")
        self = super().__new__(cls, ring, f)
        self.m = ring.modulus
        inv = pow(f[-1], -1, self.m)
        self.g = tuple(c * inv % self.m for c in f)
        self.degree = len(f) - 1
        self.zero = (0,) * self.degree
        one = [0] * self.degree
        one[0] = 1 % self.m
        self.one = tuple(one)
        return self

    @cached_property
    def _fold(self) -> list:
        """x^k mod g for deg <= k <= 2 deg - 2: the rows that fold the high
        half of a product of two elements back below x^deg."""
        return [self.x_power(k) for k in range(self.degree, 2 * self.degree - 1)]

    @property
    def is_monomial(self) -> bool:
        """Whether f is c x^d mod p^n."""
        return not any(self.g[:-1])

    def fprime(self) -> list[int]:
        """f' over Z, constant first."""
        return [k * c for k, c in enumerate(self.f_coeffs)][1:]

    def multiplication_rows(self, h) -> list[list[int]]:
        """The matrix of multiplication by h on the power basis, rows as
        images: row a is x^a h mod f, for a < deg f."""
        return [rem([0] * a + list(h), self.g, self.m) for a in range(self.degree)]

    @property
    def size(self) -> int:
        return self.m ** self.degree

    def element(self, coeffs) -> tuple:
        return tuple(rem(coeffs, self.g, self.m))

    def x_power(self, k: int) -> tuple:
        return self.element([0] * k + [1])

    def add(self, a, b):
        return tuple((x + y) % self.m for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.m for x in a)

    def scale(self, c, a):
        c %= self.m
        return tuple((c * x) % self.m for x in a)

    def mul(self, a, b):
        prod = mul(a, b, self.m)
        for k, row in enumerate(self._fold, self.degree):
            c = prod[k]
            if c:
                for t, r in enumerate(row):
                    prod[t] += c * r
        return tuple([x % self.m for x in prod[: self.degree]])

    def power(self, a, k: int):
        out = self.one
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return out

    def enumerate(self):
        for coeffs in itertools.product(range(self.m), repeat=self.degree):
            yield tuple(coeffs)

    def digits(self, codes) -> np.ndarray:
        """Digit rows of the elements at positions ``codes`` of ``enumerate()``:
        int64 row t holds coefficient t of each (the first digit varies
        slowest)."""
        return np.stack(np.unravel_index(codes, (self.m,) * self.degree))

    def codes(self, rows):
        """Positions in ``enumerate()`` of the elements whose coefficient t is
        rows[t]: one element (a tuple) or digit rows of many."""
        return np.ravel_multi_index(tuple(rows), (self.m,) * self.degree)

    def mul_rows(self, a, b) -> np.ndarray:
        """Digit rows of the products of the elements with digit rows ``a`` and
        ``b``, elementwise: the array form of ``mul``, folded by the same rows."""
        deg = self.degree
        prod = np.zeros((2 * deg - 1,) + np.shape(a)[1:], dtype=np.int64)
        for s in range(deg):
            prod[s : s + deg] += a[s] * b
        prod %= self.m
        for k, row in enumerate(self._fold, deg):
            prod[:deg] += np.multiply.outer(row, prod[k])
        return prod[:deg] % self.m

    @cached_property
    def tables(self):
        """(elements, code, add, mul): the elements in ``enumerate()`` order,
        the position of each, and int32 tables of the positions of their
        sums and products, built in numpy from the digit vectors of all
        elements.  ValueError above 2^12 elements."""
        if self.size > MAX_CODED:
            raise ValueError(f"base ring of {self.size} elements exceeds the coding bound 2^12")
        m, deg, size = self.m, self.degree, self.size
        weight = [m ** (deg - 1 - t) for t in range(deg)]  # the first digit varies slowest
        digits = self.digits(np.arange(size)).astype(np.int32)
        # rows[j][t] is digit t of a * x^j for every a: shift, then fold x^deg
        top = np.array([-c % m for c in self.g[:deg]], dtype=np.int32)[:, None]
        rows = [digits]
        for _ in range(deg - 1):
            shifted = np.zeros_like(digits)
            shifted[1:] = rows[-1][:-1]
            rows.append((shifted + rows[-1][-1] * top) % m)
        # every entry below is at most deg (m - 1)^2 or a code: below 2^31
        add = np.zeros((size, size), dtype=np.int32)
        mul = np.zeros((size, size), dtype=np.int32)
        term = np.empty((size, size), dtype=np.int32)
        acc = np.empty((size, size), dtype=np.int32)
        for t, w in enumerate(weight):
            np.add(digits[t][:, None], digits[t][None, :], out=term)
            term %= m
            term *= w
            add += term
            # digit t of a * b is sum_j (a * x^j)_t b_j
            acc.fill(0)
            for j in range(deg):
                np.multiply(rows[j][t][:, None], digits[j][None, :], out=term)
                acc += term
            acc %= m
            acc *= w
            mul += acc
        elems = list(self.enumerate())
        return elems, {e: i for i, e in enumerate(elems)}, add, mul

    def frobenius_inverse_table(self) -> dict:
        """{a^p: a} over all elements; ValueError unless a -> a^p is a bijection."""
        table = {self.power(a, self.ring.p): a for a in self.enumerate()}
        if len(table) != self.size:
            raise ValueError("Frobenius is not bijective on this ring")
        return table
