"""Hodge-filtered derived de Rham algebras at desk scale.

Run with: python3 demos/05_derived_derham.py
"""

from derhamkit import (
    AlgebraPresentation,
    ModRing,
    build_derham,
    h0_shuffle_product,
    hodge_quotient_homology,
    pd_envelope_report,
    universal_thickening,
)
from derhamkit.complexes import homology_quotient

F2 = ModRing(2, 1)
Z4 = ModRing(2, 2)

print("Hodge quotients of the derived de Rham algebra of F_2 over F_2[x]")
f = build_derham(AlgebraPresentation(F2, "quotient", "x", (0, 1)),
                 hodge_cut=5, window=(0, 1), weight_bound=4)
for i in (1, 2, 3, 4):
    rep = hodge_quotient_homology(f, i, degrees=[0])
    dim = sum(len(e["factors"]) for (n, _), e in rep.entries.items() if n == 0)
    print(f"  dim H_0(quotient by F^{i}) = {dim}")

print("\nThe universal square-zero thickening of B = A/(y) for A = Z/4[y]")
t = universal_thickening(AlgebraPresentation(Z4, "quotient", "y", (0, 1)), weight_bound=2)
size = 1
for q in t.h0.values():
    size *= q.size
print(f"  H_0 of the F^2-truncation has {size} elements; matches A/(y^2): {t.comparison_bijective}")
print(f"  ideal squares to zero: {t.square_zero_ok}")

print("\nDivided powers emerge from the shuffle product on H_0")
fx = build_derham(AlgebraPresentation(Z4, "quotient", "x", (0, 1)),
                  hodge_cut=5, window=(0, 1), weight_bound=4)
qs = {w: homology_quotient(fx.total, 0, w) for w in range(5)}
# a basis element is its row: the wedge indices, then the exponents of x, t_1, ...
g1 = fx.basis_vectors(0, 1, [(1, 1, (1, 0, 0))])[0]  # dt_1
g2v = fx.basis_vectors(0, 2, [(2, 2, (1, 2, 0, 0, 0))])[0]  # dt_1 ^ dt_2
prod = h0_shuffle_product(fx, g1, 1, g1, 1)
print(f"  [dt_1] * [dt_1] has coordinates {qs[2].coords(prod)} against gamma_2 = {qs[2].coords(g2v)}")

print("\nThe full comparison with the divided power envelope A<t>/(t - f)")
rep = pd_envelope_report(AlgebraPresentation(Z4, "quotient", "x", (0, 0, 1)), weight_bound=4)
print(f"  f = x^2 over Z/4: slices match {all(v[2] for v in rep.slice_verdicts.values())}, "
      f"filtrations match {all(v[2] for v in rep.filtration_verdicts.values())}, "
      f"isomorphism certified {rep.iso_certified}")
