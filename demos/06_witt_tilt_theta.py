"""Witt vectors, tilts of cyclotomic quotients, and the theta map.

Run with: python3 demos/06_witt_tilt_theta.py
"""

from derhamkit import (
    CyclotomicModel,
    ModRing,
    QuotientRing,
    WittRing,
    ker_theta_report,
    structure_polynomials,
    theta_map,
    tilt_ring,
)
from derhamkit.padicfield import cyclotomic_extension, different_valuation
from derhamkit.witt import epsilon_root_witt, epsilon_witt, xi_cyclotomic

print("Structure polynomials solved from the ghost equations (p = 2)")
t = structure_polynomials(2, 2)
print(f"  S_1 = {t.add[1]}")
print(f"  P_1 = {t.mul[1]}")

print("\nW_2(F_2) realizes Z/4: the carry in 1 + 1")
f2 = QuotientRing(ModRing(2, 1), (0, 1))
w = WittRing(2, 2, f2)
one = w.teichmuller(f2.one)
print(f"  (1,0) + (1,0) = {(one + one).coords}")

print("\nA finite tilt: O = Z[zeta_8]/(4), depth-2 compatible 2-power sequences")
model = CyclotomicModel(p=2, m=3, n=2, k=2)
tilt = tilt_ring(model)
print(f"  tilt carrier size: {tilt.size} (one sequence per element of O/2)")
wr = WittRing(2, 2, tilt)
o = model.ring_o()
eps = epsilon_witt(wr, tilt)
print(f"  theta([eps]) = 1: {theta_map(eps, model) == o.one}")
root = epsilon_root_witt(wr, tilt)
print(f"  theta([eps^(1/2)]) = zeta_2 = -1: {theta_map(root, model) == o.neg(o.one)}")
xi = xi_cyclotomic(wr, tilt)
print(f"  theta(1 + [eps^(1/2)]) = 0: {theta_map(xi, model) == o.zero}")

print("\nKernel generation in the finite model (evidence, not a theorem)")
rep = ker_theta_report(model)
print(f"  sizes {rep.sizes}; every kernel element a multiple of xi: {rep.kernel_generated_by_xi}")

print("\nRamification: the different of the cyclotomic extensions")
for p, r in ((3, 1), (3, 2), (2, 2)):
    v = different_valuation(cyclotomic_extension(p, r)).value
    print(f"  v(different) of Q_{p}(zeta_{p}^{r}) = {v}  (expected r - 1/(p-1))")
