"""Univariate polynomial arithmetic over Z, Z/m and F_p.

Polynomials are coefficient lists, constant term first.  ``m=None`` means
exact integer arithmetic; otherwise results are reduced into ``[0, m)``.
"""

from __future__ import annotations

__all__ = ["trim", "mul", "rem", "multiplication_rows"]


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


def multiplication_rows(g, f, m: int) -> list[list[int]]:
    """The matrix of multiplication by g on the power basis of Z/m[x]/(f),
    rows as images: row a is x^a g mod f, for a < deg f."""
    return [rem([0] * a + list(g), f, m) for a in range(len(f) - 1)]
