"""The simplicial kernel: Dold-Kan both ways, diagonals, shuffle counts.

Run with: python3 demos/02_dold_kan_and_shuffles.py
"""

import random

from derhamkit import ModRing, kan_transform, normalized_complex, unnormalized_complex
from derhamkit.complexes import GradedSliceComplex, slice_homology
from derhamkit.randomgen import random_complex
from derhamkit.simplex import shuffles

print("Kan transform of F_2 placed in degree 1: ranks count surjections")
ring2 = ModRing(2, 1)
c = GradedSliceComplex(ring2, 0, 1, {(1, 0): 1}, {})
x = kan_transform(c, d_max=5)
print(f"  ranks of K(C) in degrees 0..5: {[x.dim(n, 0) for n in range(6)]}")

print("\nRoundtrip N(K(C)) = C on a random complex over Z/9, literally")
rng = random.Random(0)
ring9 = ModRing(3, 2)
c = random_complex(ring9, rng, max_degree=4, max_rank=3)
n = normalized_complex(kan_transform(c, d_max=5))
print(f"  slice dims agree: {all(n.dim(*k) == v for k, v in c.dims.items())}")
print(f"  differentials agree: {all((n.diff(*k) == c.diff(*k)).all() for k in c.diffs)}")

print("\nNormalized vs unnormalized homology of the same simplicial module")
x = kan_transform(c, d_max=5)
u = unnormalized_complex(x)
nn = normalized_complex(x)
deg, w = 2, 0
print(f"  H_{deg} weight {w}: N gives {slice_homology(nn, deg, w)}, C gives {slice_homology(u, deg, w)}")

print("\nShuffle bookkeeping: (2,1)-shuffles of three letters")
for mu, nu, sign in shuffles(2, 1):
    print(f"  mu={mu} nu={nu} sign={sign:+d}")
