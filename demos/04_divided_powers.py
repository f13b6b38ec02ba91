"""Divided powers: Gamma^n on maps, derived functors, the Koszul bridge.

Run with: python3 demos/04_divided_powers.py
"""

import numpy as np

from derhamkit import ModRing, derived_power, gamma_monomials, koszul_gamma_complex
from derhamkit.complexes import GradedSliceComplex
from derhamkit.pdpow import gamma_matrix

Z9 = ModRing(3, 2)

print("Gamma^n of a map, with exact divided-power coefficients")
print(f"  Gamma^2 of multiplication by 3 on Z/9: {gamma_matrix(np.array([[3]]), 2, Z9).tolist()}  (gamma_2(3t) = 9 gamma_2(t))")
print(f"  Gamma^2 of (1 1) from A to A^2: {gamma_matrix(np.array([[1, 1]]), 2, Z9).tolist()}  (gamma_2(s + t) = gamma_2(s) + st + gamma_2(t))")

print("\nRanks of divided power modules: Gamma^n(A^r) has binomial rank")
print(f"  Gamma^2(A^2) basis: {gamma_monomials(2, 2)}")

print("\nThe shift formula: derived wedge^n of E[1] is Gamma^n(E) in degree n")
ring = ModRing(2, 2)
e_shift = GradedSliceComplex(ring, 0, 1, {(1, 0): 2}, {})
rep = derived_power(e_shift, "wedge", 2, degrees=range(4))
print(f"  wedge^2 of (Z/4)^2 in degree 1: H_2 = {rep.factors(2, 0)}, other degrees empty")

print("\nThe Koszul complex between Gamma and wedge, exact on split inputs")
u = np.array([[1, 0]])
v = np.array([[0], [1]])
cx, exact = koszul_gamma_complex(u, v, 2, Z9)
print(f"  0 -> A -> A^2 -> A -> 0, n = 2: term ranks {[cx.dim(d, 0) for d in (3, 2, 1, 0)]}, exact: {exact}")
