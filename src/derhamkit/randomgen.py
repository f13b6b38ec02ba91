"""Seeded random generators for complexes and invertible matrices.

Suites and property tests draw their inputs from here so that reruns with
one seed are reproducible.  Random complexes are built in split canonical
form (homology slots plus matched arrow pairs, which makes d o d = 0 exact)
and then scrambled by invertible base changes per weight slice.
"""

from __future__ import annotations

import random

import numpy as np

from .complexes import GradedSliceComplex
from .exactlin import ModRing, mmul, mzeros

__all__ = ["random_complex", "random_invertible"]


def random_invertible(dim: int, ring: ModRing, rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """Random invertible matrix over Z/p^n with its inverse.

    3 * dim elementary operations, each a row operation on Q and the
    inverse column operation on Q^-1.  They run on lists of Python ints,
    Q by rows and Q^-1 by columns, and become int64 arrays once at the end.
    """
    m = ring.modulus
    q = [[int(i == j) for j in range(dim)] for i in range(dim)]
    qinv_t = [row[:] for row in q]  # the columns of Q^-1
    for _ in range(3 * dim):
        kind = rng.randrange(3)
        if dim < 2 and kind != 1:
            kind = 1
        if kind == 0:
            i, j = rng.sample(range(dim), 2)
            c = rng.randrange(m)
            q[i] = [(x + c * y) % m for x, y in zip(q[i], q[j])]
            qinv_t[j] = [(x - c * y) % m for x, y in zip(qinv_t[j], qinv_t[i])]
        elif kind == 1:
            i = rng.randrange(dim)
            # the k-th unit in increasing order, drawn as choice() would
            # draw from the list of all m - m/p units
            k = rng.randrange(m - m // ring.p)
            u = k + k // (ring.p - 1) + 1
            q[i] = [x * u % m for x in q[i]]
            u_inv = pow(u, -1, m)
            qinv_t[i] = [x * u_inv % m for x in qinv_t[i]]
        else:
            i, j = rng.sample(range(dim), 2)
            q[i], q[j] = q[j], q[i]
            qinv_t[i], qinv_t[j] = qinv_t[j], qinv_t[i]
    return (np.array(q, dtype=np.int64).reshape(dim, dim),
            np.array(qinv_t, dtype=np.int64).reshape(dim, dim).T.copy())


def random_complex(ring: ModRing, rng: random.Random, max_degree: int, max_rank: int,
                   weight_choices: tuple[int, ...] = (0,)) -> GradedSliceComplex:
    """Random bounded complex of free Z/p^n modules with exact d o d = 0."""
    m = ring.modulus
    slots = {n: [rng.choice(weight_choices) for _ in range(rng.randint(0, max_rank))]
             for n in range(max_degree + 1)}
    # matched arrows: a target slot never maps out, so d^2 = 0 on the nose
    targets: dict[int, set[int]] = {n: set() for n in range(max_degree + 1)}
    arrows: dict[int, list[tuple[int, int, int]]] = {n: [] for n in range(max_degree + 1)}
    for n in range(max_degree, 0, -1):
        free_sources = [i for i in range(len(slots[n])) if i not in targets[n]]
        used_targets: set[int] = set()
        for s in free_sources:
            if rng.random() < 0.45:
                continue
            w = slots[n][s]
            cands = [t for t in range(len(slots[n - 1]))
                     if slots[n - 1][t] == w and t not in used_targets]
            if not cands:
                continue
            t = rng.choice(cands)
            lam = rng.randrange(1, m)
            arrows[n].append((s, t, lam))
            used_targets.add(t)
        targets[n - 1] = used_targets

    dims: dict[tuple[int, int], int] = {}
    pos: dict[tuple[int, int], int] = {}
    for n, ws in slots.items():
        counter: dict[int, int] = {}
        for i, w in enumerate(ws):
            pos[(n, i)] = counter.get(w, 0)
            counter[w] = counter.get(w, 0) + 1
        for w, c in counter.items():
            dims[(n, w)] = c

    diffs: dict[tuple[int, int], np.ndarray] = {}
    for n in range(1, max_degree + 1):
        for (s, t, lam) in arrows[n]:
            w = slots[n][s]
            key = (n, w)
            if key not in diffs:
                diffs[key] = mzeros(dims.get((n, w), 0), dims.get((n - 1, w), 0))
            diffs[key][pos[(n, s)], pos[(n - 1, t)]] = lam

    # scramble with invertible base changes per slice
    qs = {}
    for (n, w), d in dims.items():
        qs[(n, w)] = random_invertible(d, ring, rng)
    new_diffs = {}
    for (n, w), mat in diffs.items():
        qinv = qs[(n, w)][1]
        lower = qs.get((n - 1, w))
        right = lower[0] if lower else np.eye(mat.shape[1], dtype=np.int64)
        new_diffs[(n, w)] = mmul(mmul(qinv, mat, ring), right, ring)

    cx = GradedSliceComplex(ring, 0, max_degree, dims, new_diffs)
    cx.validate()
    return cx
