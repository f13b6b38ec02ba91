"""Cotangent complexes from certified finite resolutions.

Run with: python3 demos/03_cotangent_complexes.py
"""

from derhamkit import (
    AlgebraPresentation,
    FreeSimplicialResolution,
    ModRing,
    Monogenic,
    cotangent_homology,
    kaehler_factors,
    kaehler_presentation,
)
from derhamkit.padicfield import cyclotomic_extension, omega_invariants
from derhamkit.upoly import cyclotomic_polynomial_ppower

F3 = ModRing(3, 1)
F2 = ModRing(2, 1)
Z4 = ModRing(2, 2)

print("Bar-type resolution of R over R[x]: acyclicity certificate for Z/8")
# R = R[x]/(x): the dropped variable goes to x itself
bar = AlgebraPresentation(ModRing(2, 3), "quotient", "x", (0, 1))
res = FreeSimplicialResolution(bar, d_max=4, weight_bound=4)
cert = res.certify()
print(f"  certificate: kind={cert.kind}, ok={cert.ok}, degrees {cert.checked_degrees}")

print("\nKaehler differentials of familiar pairs")
kp = kaehler_presentation(AlgebraPresentation(F3, "hypersurface", "x", (0, 0, 0, 1)))
print(f"  F_3[x]/(x^3) over F_3: rank {kp.rank}, free: {kp.free_over_target}, invariants {kp.factors}")
kp = kaehler_presentation(AlgebraPresentation(F2, "hypersurface", "x", (1, 1, 1)))
print(f"  F_4 over F_2: invariants {kp.factors} (separable: the module vanishes)")

print("\nOne algebra for Phi_9: a presentation's target, a ring, an extension of Q_3")
phi9 = cyclotomic_polynomial_ppower(3, 2)
o = Monogenic(ModRing(3, 2), phi9)  # Z/9[x]/(Phi_9)
pres = AlgebraPresentation(ModRing(3, 2), "hypersurface", "x", phi9)
print(f"  the presentation's target is Z/9[x]/(Phi_9): {pres.target == o}, of degree {o.degree}")
print(f"  Omega^1 over Z/9: invariants {[c for c in kaehler_factors(o) if c > 1]}"
      f" = Kaehler presentation {kaehler_presentation(pres).factors}")
print(f"  over Z_3, from the same f over Z: length {omega_invariants(cyclotomic_extension(3, 2), precision=6)[0]}")

print("\nRegular quotients: the cotangent complex is the shifted conormal module")
for ring, f, label in ((F3, (0, 1), "F_3[x]/(x)"), (F2, (0, 0, 1), "F_2[x]/(x^2)"), (Z4, (0, 1), "Z/4[x]/(x)")):
    pres = AlgebraPresentation(ring, "quotient", "x", f)
    out = cotangent_homology(pres, (0, 1), weight_bound=3 * pres.degree, depth=4)
    h1 = {w: out.report.factors(1, w) for w in range(3 * pres.degree) if out.report.factors(1, w)}
    print(f"  {label}: H_0 length {out.report.total_length(0)}, H_1 slices {h1}")

print("\nEtale extensions have vanishing cotangent complexes")
etale = cotangent_homology(AlgebraPresentation(F2, "hypersurface", "x", (1, 1, 1)), (0, 1), 4, depth=4)
print(f"  F_4 over F_2: all homology trivial: {not etale.report.entries}")
