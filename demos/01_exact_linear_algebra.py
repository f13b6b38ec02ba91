"""Exact canonical forms and resultants: the substrate everything rests on.

Run with: python3 demos/01_exact_linear_algebra.py
"""

import numpy as np

from derhamkit import ModRing, howell_form, quotient_invariants, resultant, smith_normal_form
from derhamkit.exactlin import left_kernel

print("Smith normal form over Z, with unimodular certificates")
m = [[2, 4], [6, 8]]
s, u, v = smith_normal_form(m)
print(f"  diag of SNF([[2,4],[6,8]]) = {[s[0][0], s[1][1]]}  (divisibility 2 | 4)")
um = [[sum(u[i][k] * m[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
umv = [[sum(um[i][k] * v[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
print(f"  U*M*V == S: {umv == s}")

print("\nHowell form over Z/4: canonical row spans where Gauss fails")
ring = ModRing(2, 2)
h, t = howell_form(np.array([[2, 1], [0, 2]]), ring, transform=True)
print(f"  Howell rows: {h.tolist()}  (T*M = H: {((t @ [[2,1],[0,2]]) % 4 == h).all()})")
print(f"  left kernel of [[2]]: {left_kernel(np.array([[2]]), ring).tolist()}")

print("\nInvariant factors of finitely presented Z/p^n modules")
facs = quotient_invariants(np.eye(2, dtype=np.int64), np.zeros((0, 2), dtype=np.int64), ModRing(3, 2))
print(f"  free rank 2 over Z/9: factors {facs}")
facs = quotient_invariants(np.eye(2, dtype=np.int64), np.array([[3, 0], [0, 1]]), ModRing(3, 2))
print(f"  (Z/9)^2 modulo the rows (3, 0), (0, 1): factors {facs}")

print("\nExact integer resultants")
print(f"  Res(x^2+x+1, 2x+1) = {resultant([1, 1, 1], [1, 2])}")
phi9 = [1, 0, 0, 1, 0, 0, 1]
dphi9 = [0, 0, 3, 0, 0, 6]
print(f"  Res(Phi_9, Phi_9') = {resultant(phi9, dphi9)} (3-adic valuation 9: the different)")
