"""The earlier ``padicfield.omega_invariants`` kept as the reference.

``omega_invariants`` is the route the library took before it read the
lengths off ``local_smith`` over Z/p^precision: the Smith normal form over
Z, in Python integers, of the multiplication-by-f'(b) matrix, with the
p-adic valuation of each diagonal entry as a length.  It is unchanged,
apart from dropping the transforms it never read.
"""

from __future__ import annotations

from derhamkit.exactlin import smith_normal_form, v_int
from derhamkit.upoly import rem


def omega_invariants(ext, precision: int):
    """(total length, sorted lengths) of Omega^1(O_L / Z_p), or ValueError
    for a zero diagonal entry or one of valuation >= ``precision``."""
    rows = [rem([0] * a + ext.fprime(), ext.f_coeffs) for a in range(ext.degree)]
    s, _, _ = smith_normal_form(rows)
    lengths = []
    for i in range(ext.degree):
        entry = s[i][i]
        if entry == 0:
            raise ValueError("inseparable: multiplication matrix is singular")
        v = v_int(abs(entry), ext.p)
        if v >= precision:
            raise ValueError(f"precision {precision} too small: length saturates at {ext.degree * precision}")
        lengths.append(v)
    return sum(lengths), sorted(lengths)
