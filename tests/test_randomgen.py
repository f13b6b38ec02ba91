"""Seeded generators: the unit draw of random_invertible."""

import random

import numpy as np
import pytest

from derhamkit.exactlin import ModRing, mmul
from derhamkit.randomgen import random_invertible


def reference_random_invertible(dim, ring, rng):
    """random_invertible as it was when it drew units from the list of all
    units, kept to pin the random stream that every seeded report uses."""
    m = ring.modulus
    q = np.eye(dim, dtype=np.int64)
    qinv = np.eye(dim, dtype=np.int64)
    units = [u for u in range(1, m) if u % ring.p != 0]
    for _ in range(3 * dim):
        kind = rng.randrange(3)
        if dim < 2 and kind != 1:
            kind = 1
        if kind == 0:
            i, j = rng.sample(range(dim), 2)
            c = rng.randrange(m)
            q[i] = (q[i] + c * q[j]) % m
            qinv[:, j] = (qinv[:, j] - c * qinv[:, i]) % m
        elif kind == 1:
            i = rng.randrange(dim)
            u = rng.choice(units)
            q[i] = (q[i] * u) % m
            qinv[:, i] = (qinv[:, i] * pow(u, -1, m)) % m
        else:
            i, j = rng.sample(range(dim), 2)
            q[[i, j]] = q[[j, i]]
            qinv[:, [i, j]] = qinv[:, [j, i]]
    return q, qinv


@pytest.mark.parametrize("ring", [ModRing(2, 1), ModRing(2, 2), ModRing(3, 2), ModRing(5, 1),
                                  ModRing(3, 3), ModRing(7, 2)], ids=str)
def test_random_invertible_consumes_the_stream_of_the_list_draw(ring):
    for seed in range(40):
        for dim in (0, 1, 2, 3, 5):
            new, old = random.Random(seed), random.Random(seed)
            q, qinv = random_invertible(dim, ring, new)
            q_ref, qinv_ref = reference_random_invertible(dim, ring, old)
            for got, want in ((q, q_ref), (qinv, qinv_ref)):
                assert got.dtype == np.int64 and got.flags.c_contiguous
                assert got.shape == want.shape and (got == want).all()
            assert new.getstate() == old.getstate()


@pytest.mark.parametrize("ring", [ModRing(3, 19), ModRing(2, 30)], ids=str)
def test_random_invertible_at_the_largest_moduli(ring):
    # the list of units alone would hold about 8e8 (3^19) or 5e8 (2^30) ints
    q, qinv = random_invertible(4, ring, random.Random(3))
    assert (mmul(q, qinv, ring) == np.eye(4, dtype=np.int64)).all()
