"""Kernel linear algebra: Smith/Howell forms, invariants, valuations, resultants."""

import itertools
import random
import re
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_exactlin import augmented_left_kernel
from reference_exactlin import howell_form as reference_howell_form
from reference_exactlin import invariant_factors_from_relations as reference_invariant_factors
from reference_exactlin import left_kernel as reference_left_kernel
from reference_exactlin import local_smith as reference_local_smith
from reference_exactlin import minimal_generator_indices
from reference_exactlin import quotient_invariants as reference_quotient_invariants
from reference_exactlin import resultant as reference_resultant

from derhamkit import exactlin
from derhamkit.exactlin import (
    ModRing,
    PAdicValue,
    SliceQuotient,
    SparseMatrix,
    as_sparse,
    block_left_kernels,
    express_in_basis,
    howell_form,
    left_kernel,
    local_smith,
    minimal_generators,
    mmul,
    mzeros,
    quotient_invariants,
    resultant,
    smith_normal_form,
    solve_in_span,
    sparse_product,
    v_int,
)
from derhamkit.padicfield import cyclotomic_polynomial_ppower


def gcd_reduction_diagonal(matrix):
    """Independent Smith-diagonal oracle: d_k = gcd of k x k minors ratios."""
    from itertools import combinations

    rows = len(matrix)
    cols = len(matrix[0])
    dets_prev = 1
    diag = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[matrix[i][j] for j in ci] for i in ri]
                g = gcd(g, _det(sub))
        if g == 0:
            break
        diag.append(g // dets_prev)
        dets_prev = g
    return diag


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_smith_2x2_example():
    m = [[2, 4], [6, 8]]
    s, u, v = smith_normal_form(m)
    assert [s[0][0], s[1][1]] == [2, 4]
    assert gcd_reduction_diagonal(m) == [2, 4]


def test_smith_identity_trivial():
    s, u, v = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert all(s[i][i] == 1 for i in range(3))


def test_smith_certificates_and_chain():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        s, u, v = smith_normal_form(m)
        # U*M*V == S exactly
        um = [[sum(u[i][k] * m[k][j] for k in range(rows)) for j in range(cols)] for i in range(rows)]
        umv = [[sum(um[i][k] * v[k][j] for k in range(cols)) for j in range(cols)] for i in range(rows)]
        assert umv == s
        diag = [s[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
        # unimodularity
        assert abs(_det(u)) == 1
        assert abs(_det(v)) == 1


def test_howell_single_entry_trivial():
    ring = ModRing(2, 2)
    assert howell_form([[2]], ring).tolist() == [[2]]


def test_howell_certificates_and_span():
    ring = ModRing(3, 2)
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = np.array([[rng.randrange(9) for _ in range(cols)] for _ in range(rows)])
        h, t = howell_form(m, ring, transform=True)
        assert ((t @ m) % 9 == h).all()
        # every row of m lies in the span of H
        assert all(solve_in_span(row, h, ring) is not None for row in m % 9)
        # canonical: Howell of H is H
        assert (howell_form(h, ring) == h).all()
        # span property: random combinations lie in the span
        for _ in range(5):
            c = np.array([rng.randrange(9) for _ in range(rows)])
            assert solve_in_span((c @ m) % 9, h, ring) is not None


def test_a_composite_modulus_is_rejected():
    with pytest.raises(ValueError, match="not prime"):
        ModRing(6, 1)


def test_modring_prints_and_rejects_its_arguments_as_before():
    assert [str(ModRing(p, n)) for p, n in ((2, 1), (7, 1), (2, 2), (3, 3))] == ["F_2", "F_7", "Z/4", "Z/27"]
    for (p, n), message in (((6, 1), "modulus base 6 is not prime"), ((1, 3), "modulus base 1 is not prime"),
                            ((3, 0), "exponent must be >= 1"), ((5, -1), "exponent must be >= 1"),
                            ((2, 31), "modulus 2^31 is not below 2^31")):
        with pytest.raises(ValueError, match=re.escape(message)):
            ModRing(p, n)


def test_left_kernel():
    ring = ModRing(2, 2)
    rng = random.Random(5)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = np.array([[rng.randrange(4) for _ in range(cols)] for _ in range(rows)])
        k = left_kernel(m, ring)
        if k.shape[0]:
            assert not ((k @ m) % 4).any()
        # completeness: brute force over small dims
        if rows <= 3:
            for v in np.ndindex(*(4,) * rows):
                v = np.array(v)
                if not ((v @ m) % 4).any():
                    assert solve_in_span(v, k, ring) is not None if k.shape[0] else not v.any()


def test_solve_in_span():
    ring = ModRing(2, 3)
    rows = np.array([[2, 1, 0], [0, 4, 2]])
    v = (3 * rows[0] + 5 * rows[1]) % 8
    c = solve_in_span(v, rows, ring)
    assert c is not None
    assert ((c @ rows) % 8 == v).all()
    assert solve_in_span(np.array([1, 0, 0]), rows, ring) is None


def presentation_quotient(ring, gens, relations):
    """R^gens / span(relations) as a quotient of row spans."""
    return SliceQuotient.from_cycles_boundaries(np.eye(gens, dtype=np.int64), relations, ring)


def test_invariants_of_a_presentation_examples():
    q = presentation_quotient(ModRing(2, 2), 1, np.array([[2]]))
    assert q.factors == [2] and q.length() == 1

    q = presentation_quotient(ModRing(3, 2), 2, np.zeros((0, 2), dtype=np.int64))
    assert q.factors == [9, 9] and q.length() == 4

    # Kaehler module of F_3[x]/(x^3) over F_3: generator dx, relation 3x^2 dx = 0.
    # Expanded over F_3 in the monomial basis {dx, x dx, x^2 dx}: the relation is zero.
    q = presentation_quotient(ModRing(3, 1), 3, np.zeros((1, 3), dtype=np.int64))
    assert q.factors == [3, 3, 3] and q.length() == 3


def test_invariants_of_a_presentation_are_presentation_independent():
    ring = ModRing(2, 2)
    rng = random.Random(3)
    for _ in range(20):
        gens = rng.randint(1, 4)
        rels = rng.randint(0, 4)
        r = np.array([[rng.randrange(4) for _ in range(gens)] for _ in range(rels)]).reshape(rels, gens)
        base = quotient_invariants(np.eye(gens, dtype=np.int64), r, ring)
        assert base == reference_invariant_factors(r, gens, ring)
        # random invertible row/column operations preserve the quotient
        r2 = r.copy()
        for _ in range(6):
            if rels >= 2:
                i, j = rng.sample(range(rels), 2)
                r2[i] = (r2[i] + rng.randrange(4) * r2[j]) % 4
            if gens >= 2:
                i, j = rng.sample(range(gens), 2)
                r2[:, i] = (r2[:, i] + (2 * rng.randrange(2) + 1) * r2[:, j]) % 4
        # column ops must be invertible: unit multiplier used above
        assert quotient_invariants(np.eye(gens, dtype=np.int64), r2, ring) == base


def test_quotient_invariants_mod4_times_two():
    # 0 -> Z/4 --(*2)--> Z/4 -> 0: H_0 = Z/2, H_1 = Z/2
    ring = ModRing(2, 2)
    d1 = np.array([[2]])
    h0 = quotient_invariants(np.array([[1]]), d1, ring)
    h1 = quotient_invariants(left_kernel(d1, ring), np.zeros((0, 1), dtype=np.int64), ring)
    assert h0 == [2]
    assert h1 == [2]


def test_boundaries_without_cycles_are_rejected_and_an_empty_quotient_keeps_its_width():
    f3 = ModRing(3, 1)
    for quotient in (SliceQuotient.from_cycles_boundaries, quotient_invariants):
        with pytest.raises(ValueError, match="boundaries not contained in cycles"):
            quotient(mzeros(0, 2), [[1, 0]], f3)
    q = SliceQuotient.from_cycles_boundaries(mzeros(0, 2), mzeros(1, 2), f3)
    assert (q.ambient_dim, q.cycles.shape, q.gen_reps.shape, q.factors) == (2, (0, 2), (0, 2), [])


def test_boundaries_outside_the_cycles_are_rejected():
    for cycles, boundaries, ring in (([[1, 0]], [[0, 1]], ModRing(3, 1)), ([[2]], [[1]], ModRing(2, 2))):
        with pytest.raises(ValueError, match="boundaries not contained in cycles"):
            quotient_invariants(cycles, boundaries, ring)
    assert quotient_invariants([[2]], [[2]], ModRing(2, 2)) == []


@pytest.mark.parametrize("ring", [ModRing(2, 1), ModRing(3, 1), ModRing(5, 1), ModRing(2, 2), ModRing(2, 3),
                                  ModRing(3, 2), ModRing(5, 2), ModRing(5, 3)], ids=str)
def test_containment_of_boundaries_agrees_with_the_howell_form(ring):
    """from_cycles_boundaries raises exactly when the Howell form of the
    cycles and boundaries stacked differs from that of the cycles, on
    boundaries that are combinations of the cycles, plus a random error
    half of the time."""
    m = ring.modulus
    rng = np.random.default_rng(7000 + m)
    outcomes = set()
    for _ in range(60):
        rows, cols, brows = (int(x) for x in rng.integers(1, 5, size=3))
        c = rng.integers(0, m, size=(rows, cols)) * ring.p ** rng.integers(0, ring.n + 1, size=(rows, 1)) % m
        hk = howell_form(c, ring)
        b = rng.integers(0, m, size=(brows, rows)) @ c
        if rng.random() < 0.5:
            b += rng.integers(0, m, size=(brows, cols)) * ring.p ** rng.integers(0, ring.n + 1, size=(brows, 1))
        b %= m
        inside = np.array_equal(howell_form(np.vstack([hk, b]), ring), hk)
        outcomes.add(inside)
        if inside:
            q = SliceQuotient.from_cycles_boundaries(hk, b, ring)
            assert q.factors == reference_quotient_invariants(c, b, ring)
        else:
            with pytest.raises(ValueError, match="boundaries not contained in cycles"):
                SliceQuotient.from_cycles_boundaries(hk, b, ring)
    assert outcomes == {True, False}


def _cycles_and_boundaries(ring):
    """Random cycles C and boundaries R @ C inside their span, the rows of C
    and R scaled by random powers of p, after the zero-row and zero-column
    shapes."""
    m = ring.modulus
    rng = np.random.default_rng(2000 + m)
    shapes = [(0, 3, 0), (0, 3, 2), (3, 0, 2), (0, 0, 0), (0, 0, 3), (4, 0, 0), (2, 3, 0)]
    shapes += [tuple(int(x) for x in rng.integers(0, 8, size=3)) for _ in range(60)]
    for rows, cols, brows in shapes:
        c = rng.integers(0, m, size=(rows, cols)) * (rng.random((rows, cols)) < rng.random())
        c = c * ring.p ** rng.integers(0, ring.n + 1, size=(rows, 1)) % m
        r = rng.integers(0, m, size=(brows, rows)) * ring.p ** rng.integers(0, ring.n + 1, size=(brows, 1))
        yield c, r @ c % m


@pytest.mark.parametrize("ring", [ModRing(2, 1), ModRing(3, 1), ModRing(2, 2), ModRing(2, 3), ModRing(3, 2)],
                         ids=str)
def test_quotient_invariants_equal_the_reference_pipeline(ring):
    for c, b in _cycles_and_boundaries(ring):
        assert quotient_invariants(c, b, ring) == reference_quotient_invariants(c, b, ring)


@pytest.mark.parametrize("ring", [ModRing(p, a) for p in (2, 3, 5) for a in range(1, 5) if p ** a < 2 ** 31],
                         ids=str)
def test_cokernel_invariants_read_off_local_smith(ring):
    # the module R^g / span(relations): the factors of the relation matrix
    # itself, less the units, are those of (np.eye(g), relations), in order
    rng = np.random.default_rng(ring.modulus)
    for _ in range(200):
        g = int(rng.integers(1, 6))
        rel = rng.integers(0, ring.modulus, size=(int(rng.integers(0, 7)), g))
        rel = rel * ring.p ** rng.integers(0, ring.n + 1, size=(len(rel), 1)) % ring.modulus
        want = quotient_invariants(np.eye(g, dtype=np.int64), rel, ring)
        assert [c for c in local_smith(rel, ring)[0] if c > 1] == want


def test_v_int_examples():
    assert v_int(3, 3) == 1
    assert v_int(24, 2) == 3
    assert v_int(-50, 5) == 2
    assert v_int(7, 5) == 0
    with pytest.raises(ValueError):
        v_int(0, 5)


def test_v_int_laws():
    rng = random.Random(17)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        a = rng.randint(1, 400) * rng.choice([-1, 1])
        b = rng.randint(1, 400)
        assert v_int(a * b, p) == v_int(a, p) + v_int(b, p)
        if a + b != 0:
            assert v_int(a + b, p) >= min(v_int(a, p), v_int(b, p))


def test_padic_value_with_index_checks_the_denominator():
    v = PAdicValue(3, Fraction(3, 2))
    assert v.with_index(2) is v and v.with_index(4) is v
    with pytest.raises(ValueError, match="denominator not dividing e=3"):
        v.with_index(3)


def test_resultant_of_cyclotomic_and_x_minus_one_is_p():
    # Res(Phi_p, x - 1) = +-Phi_p(1) = +-p
    for p in (2, 3, 5, 7):
        assert abs(resultant(cyclotomic_polynomial_ppower(p, 1), [-1, 1])) == p


def test_resultant_examples():
    assert resultant([1, 1, 1], [1, 2]) == 3
    assert resultant([1, 0, 1], [0, 2]) == 4
    # Res(f, c) = c^(deg f)
    assert resultant([5, -1, 0, 7], [3]) == 27


def test_resultant_sign_law():
    rng = random.Random(23)
    for _ in range(40):
        df = rng.randint(1, 4)
        dg = rng.randint(1, 4)
        f = [rng.randint(-5, 5) for _ in range(df)] + [rng.randint(1, 5)]
        g = [rng.randint(-5, 5) for _ in range(dg)] + [rng.randint(1, 5)]
        assert resultant(f, g) == (-1) ** (df * dg) * resultant(g, f)


def test_resultant_multiplicative_vs_roots():
    # Res(x^2+x+1, x-1) = f(1) with monic linear g
    assert resultant([1, 1, 1], [-1, 1]) == 3
    # big cyclotomic-scale entries stay exact
    phi9 = [1, 0, 0, 1, 0, 0, 1]
    dphi9 = [0, 0, 3, 0, 0, 6]
    r = resultant(phi9, dphi9[:])
    assert r % 3 == 0 and r != 0


def test_howell_canonical_for_span():
    # two generating sets of one row span produce the identical Howell form
    ring = ModRing(2, 2)
    rng = random.Random(31)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = np.array([[rng.randrange(4) for _ in range(cols)] for _ in range(rows)])
        m2 = m.copy()
        for _ in range(8):
            i = rng.randrange(rows)
            j = rng.randrange(rows)
            if i != j:
                m2[i] = (m2[i] + rng.randrange(4) * m2[j]) % 4
            else:
                m2[i] = (m2[i] * (1 + 2 * rng.randrange(2))) % 4
        extra = (np.array([rng.randrange(4) for _ in range(rows)]) @ m2) % 4
        m2 = np.vstack([m2, extra])
        h1, h2 = howell_form(m, ring), howell_form(m2, ring)
        assert h1.shape == h2.shape and (h1 == h2).all()


def test_howell_span_property():
    # the defining property: any span element supported on columns >= c is a
    # combination of the Howell rows with pivot column >= c
    for ring in (ModRing(2, 2), ModRing(3, 2)):
        m_mod = ring.modulus
        rng = random.Random(41)
        for _ in range(25):
            rows = rng.randint(1, 4)
            cols = rng.randint(2, 5)
            mat = np.array([[rng.randrange(m_mod) for _ in range(cols)] for _ in range(rows)])
            h = howell_form(mat, ring)
            for _ in range(10):
                c = np.array([rng.randrange(m_mod) for _ in range(rows)])
                v = (c @ mat) % m_mod
                nz = np.nonzero(v)[0]
                if nz.size == 0:
                    continue
                start = nz[0]
                tail_rows = [r for r in h if (not r.any()) or np.nonzero(r)[0][0] >= start]
                if tail_rows:
                    assert solve_in_span(v, np.vstack(tail_rows), ring) is not None
                else:
                    assert False, "span element escapes all pivot tails"


def test_local_smith_matches_integer_smith():
    # cokernel factors over Z/p^n from the local diagonalization agree with
    # the integer Smith normal form of [relations; p^n I]
    rng = random.Random(71)
    for ring in (ModRing(2, 2), ModRing(3, 2), ModRing(2, 3)):
        m = ring.modulus
        for _ in range(40):
            rows = rng.randint(0, 5)
            cols = rng.randint(1, 5)
            rel = np.array([[rng.randrange(m) for _ in range(cols)] for _ in range(rows)]).reshape(rows, cols)
            got = reference_invariant_factors(rel, cols, ring)
            lifted = [[int(x) for x in r] for r in rel]
            lifted += [[m if i == j else 0 for j in range(cols)] for i in range(cols)]
            s, _, _ = smith_normal_form(lifted)
            want = sorted(int(s[i][i]) for i in range(cols) if s[i][i] > 1)
            assert got == want
            assert quotient_invariants(np.eye(cols, dtype=np.int64), rel, ring) == want
            # transform certificates: rel @ V has the diagonal span
            factors, v, vinv = local_smith(rel if rel.size else np.zeros((0, cols), dtype=np.int64),
                                           ring, want_transform=True)
            assert ((v @ vinv) % m == np.eye(cols, dtype=np.int64)).all()


# Z/2 ... Z/343
SMITH_RINGS = [ModRing(2, 1), ModRing(3, 1), ModRing(2, 2), ModRing(2, 3), ModRing(3, 2), ModRing(5, 2),
               ModRing(3, 3), ModRing(7, 3), ModRing(5, 5)]


def _smith_matrices(ring):
    """The empty shapes, a zero matrix and unreduced entries, then random
    matrices of every density whose rows and columns are scaled by random
    powers of p, so that pivots of every valuation occur, and last a
    unit-heavy 100 x 100 matrix with uniform entries."""
    m = ring.modulus
    rng = np.random.default_rng(3000 + m)
    yield from (mzeros(0, 0), mzeros(0, 3), mzeros(3, 0), mzeros(2, 3))
    yield np.array([[-1, m + ring.p], [-ring.p, 2 * m - 1]])
    for _ in range(80):
        rows, cols = (int(x) for x in rng.integers(1, 8, size=2))
        a = rng.integers(0, m, size=(rows, cols)) * (rng.random((rows, cols)) < rng.random())
        scale = ring.p ** rng.integers(0, ring.n + 1, size=(rows, 1)) * ring.p ** rng.integers(0, 2, size=(1, cols))
        yield a * scale % m
    yield rng.integers(0, m, size=(100, 100))


@pytest.mark.parametrize("ring", SMITH_RINGS, ids=str)
def test_local_smith_equals_the_reference(ring):
    """The factors, V and V^-1 of the trailing-block clearing are those of
    the full-width reference, with and without the transform."""
    for a in _smith_matrices(ring):
        before = a.copy()
        for want_transform in (False, True):
            got = local_smith(a, ring, want_transform)
            ref = reference_local_smith(a, ring, want_transform)
            assert got[0] == ref[0] and all(type(d) is int for d in got[0])
            for g, r in zip(got[1:], ref[1:]):
                if want_transform:
                    assert g.dtype == r.dtype and g.shape == r.shape and np.array_equal(g, r)
                else:
                    assert g is None and r is None
        assert np.array_equal(a, before)


# ---------------------------------------------------------------------------
# the sparse Howell kernel against the dense reference, output for output

KERNEL_RINGS = [ModRing(2, 1), ModRing(3, 1), ModRing(5, 1), ModRing(2, 2),
                ModRing(2, 3), ModRing(3, 2), ModRing(3, 3)]


def _assert_same_howell(matrix, ring):
    """H and T equal the reference exactly (shape, dtype, entries); T A = H."""
    for transform in (False, True):
        got = howell_form(matrix, ring, transform=transform)
        want = reference_howell_form(matrix, ring, transform=transform)
        got, want = (got, want) if transform else ((got,), (want,))
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert (g == w).all()
    h, t = got
    a = np.asarray(matrix, dtype=np.int64) % ring.modulus
    if a.ndim == 1:
        a = a.reshape(1, -1)
    assert ((t @ a) % ring.modulus == h).all()


def _random_reference_matrices(ring):
    m = ring.modulus
    rng = np.random.default_rng(1000 + m)
    for density in (0.01, 0.05, 0.2, 0.5, 1.0):
        for _ in range(12):
            rows, cols = (int(x) for x in rng.integers(1, 13, size=2))
            entries = rng.integers(-2 * m, 2 * m, size=(rows, cols))
            mask = rng.random((rows, cols)) < density
            mat = entries * mask
            if rows >= 3:  # duplicate rows and multiples of one row
                mat[1] = mat[0]
                mat[2] = (ring.p * mat[0]) % m
            yield mat


def _edge_case_matrices(ring):
    m = ring.modulus
    return [
        np.zeros((0, 4), dtype=np.int64),
        np.zeros((3, 0), dtype=np.int64),
        np.zeros((0, 0), dtype=np.int64),
        np.zeros((4, 5), dtype=np.int64),
        np.array([3, -1, 0, m, -m - 2]),  # 1-D input, negative entries
        [[0, 0, 0], [-1, -2, -3], [0, 0, 0], [-1, -2, -3]],  # zero and duplicate rows
        [[ring.p, 0, 1], [ring.p, 0, 1], [0, ring.p, ring.p]],
        [[m - 1] * 6] * 4,
        np.eye(5, dtype=np.int64) * ring.p,
    ]


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_howell_form_matches_dense_reference_on_random_matrices(ring):
    for mat in _random_reference_matrices(ring):
        _assert_same_howell(mat, ring)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_howell_form_matches_dense_reference_on_edge_cases(ring):
    for mat in _edge_case_matrices(ring):
        _assert_same_howell(mat, ring)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_left_kernel_is_a_howell_fixed_point_equal_to_the_two_pass_kernel(ring):
    for mat in [*_random_reference_matrices(ring), *_edge_case_matrices(ring)]:
        ker = left_kernel(mat, ring)
        want = reference_left_kernel(mat, ring)
        assert ker.shape == want.shape and ker.dtype == want.dtype
        assert (ker == want).all()
        if ker.shape[0]:
            assert (howell_form(ker, ring) == ker).all()


def _matrices(max_rows=5, max_cols=5):
    return st.sampled_from(KERNEL_RINGS).flatmap(
        lambda ring: st.tuples(
            st.just(ring),
            st.integers(1, max_rows).flatmap(lambda r: st.integers(1, max_cols).flatmap(
                lambda c: st.lists(st.lists(st.integers(0, ring.modulus - 1), min_size=c, max_size=c),
                                   min_size=r, max_size=r)))))


@settings(max_examples=150, deadline=None)
@given(_matrices(), st.randoms(use_true_random=False))
def test_howell_form_invariant_under_unimodular_row_operations(ring_mat, rnd):
    ring, mat = ring_mat
    m = ring.modulus
    a = np.array(mat, dtype=np.int64)
    b = a.copy()
    rows = b.shape[0]
    for _ in range(10):
        i, j = rnd.randrange(rows), rnd.randrange(rows)
        op = rnd.randrange(3)
        if op == 0 and i != j:
            b[i] = (b[i] + rnd.randrange(m) * b[j]) % m
        elif op == 1:
            b[i] = (b[i] * (rnd.randrange(m // ring.p) * ring.p + 1)) % m  # a unit
        else:
            b[[i, j]] = b[[j, i]]
    h, hb = howell_form(a, ring), howell_form(b, ring)
    assert h.shape == hb.shape and (h == hb).all()


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_left_kernel_annihilates(ring_mat):
    ring, mat = ring_mat
    a = np.array(mat, dtype=np.int64)
    ker = left_kernel(a, ring)
    assert ker.shape[1] == a.shape[0]
    assert not ((ker @ a) % ring.modulus).any()


def _kernel_inputs(ring):
    """Seeded and edge-case matrices, plus rows that the elimination turns
    to zero (duplicates, p-multiples, p^(n-1)-multiples) and columns whose
    pivots are not units, so that kernel vectors come from eliminated rows,
    from zero input rows and from stabilization rows."""
    m, p = ring.modulus, ring.p
    yield from _random_reference_matrices(ring)
    yield from _edge_case_matrices(ring)
    top = p ** (ring.n - 1)
    yield np.zeros((2, 3), dtype=np.int64)
    yield [[p, 0], [0, p], [p, p], [0, 0]]
    yield [[top, 1, 0], [0, top, top], [top, 1, 0], [0, 0, 0], [2 * top, 2, 0]]
    yield np.full((1, 0), 0, dtype=np.int64)
    yield np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_left_kernel_read_off_the_transform_equals_the_augmented_kernel(ring):
    for mat in _kernel_inputs(ring):
        ker = left_kernel(mat, ring)
        want = augmented_left_kernel(mat, ring)
        assert ker.shape == want.shape and ker.dtype == want.dtype
        assert (ker == want).all()


@st.composite
def _valued_matrices(draw):
    """Matrices of 0..6 rows and columns whose entries are p^k * x, so that
    every valuation occurs, over each of the kernel rings."""
    ring = draw(st.sampled_from(KERNEL_RINGS))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.tuples(st.integers(0, ring.n), st.integers(0, ring.modulus - 1)).map(
        lambda e: ring.p ** e[0] * e[1] % ring.modulus)
    mat = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return ring, np.array(mat, dtype=np.int64).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(_valued_matrices())
def test_left_kernel_equals_the_augmented_kernel_property(ring_mat):
    ring, a = ring_mat
    ker = left_kernel(a, ring)
    want = augmented_left_kernel(a, ring)
    assert ker.shape == want.shape and ker.dtype == want.dtype
    assert (ker == want).all()


# ---------------------------------------------------------------------------
# left kernels of sparse input, and the peel of forced rows


def _peel_cases(ring):
    """(name, matrix, rows the peel keeps) over ``ring``."""
    p, u = ring.p, ring.modulus - 1  # u is a unit
    chain = np.eye(6, 7, dtype=np.int64)  # rows 0-4 a chain; rows 5 and 6 share column 5
    chain[1:5, :4] += np.eye(4, dtype=np.int64) * u
    chain = np.vstack([chain, chain[5]])
    return [
        ("everything peeled", [[1, 2, 3], [0, u, 1], [0, 0, 1]], []),
        ("nothing peeled", [[1, 1], [1, u], [u, 1]], [0, 1, 2]),
        ("a peel chain", chain, [5, 6]),
        ("zero rows", [[0, 0], [1, 0], [0, 0]], [0, 2]),
        ("0 x k", np.zeros((0, 3), dtype=np.int64), []),
        ("k x 0", np.zeros((3, 0), dtype=np.int64), [0, 1, 2]),
        # over Z/p^n a lone p forces nothing: p^(n-1) (1, -1) is in the kernel
        ("a non-unit singleton column", [[p, 1], [0, 1]], [0, 1]),
    ]


def _as_sparse(mat, ring, rng) -> SparseMatrix:
    """``mat`` as a SparseMatrix with its triples shuffled, its values
    unreduced, and some entries that reduce to zero."""
    m = ring.modulus
    a = np.asarray(mat, dtype=np.int64)
    a = a.reshape(1, -1) if a.ndim == 1 else a
    r, c = np.nonzero((a % m != 0) | (rng.random(a.shape) < 0.2))
    v = a[r, c] % m + m * rng.integers(-2, 3, size=r.size)
    order = rng.permutation(r.size)
    return SparseMatrix(r[order], c[order], v[order], a.shape)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_left_kernel_of_dense_and_sparse_input_equals_the_two_pass_kernel(ring):
    rng = np.random.default_rng(ring.modulus)
    cases = [*_kernel_inputs(ring), *(mat for _, mat, _ in _peel_cases(ring))]
    for mat in cases:
        want = reference_left_kernel(mat, ring)
        for a in (mat, _as_sparse(mat, ring, rng)):
            ker = left_kernel(a, ring)
            assert ker.shape == want.shape and ker.dtype == want.dtype
            assert (ker == want).all()


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_the_peel_drops_just_the_rows_forced_to_zero(ring):
    for name, mat, kept in _peel_cases(ring):
        a = np.asarray(mat, dtype=np.int64) % ring.modulus
        r, c = np.nonzero(a)
        keep = exactlin._unforced_rows(r, c, a[r, c], a.shape[0], ring.p)
        assert np.flatnonzero(keep).tolist() == kept, name


def _block_diagonal(blocks):
    """The dense block-diagonal matrix of ``blocks``, and its row ends."""
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), dtype=np.int64)
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out, np.cumsum([b.shape[0] for b in blocks], dtype=np.int64)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_block_left_kernels_are_the_two_pass_kernels_of_the_blocks(ring):
    rng = np.random.default_rng(ring.modulus)
    blocks = [np.atleast_2d(np.asarray(mat, dtype=np.int64)) % ring.modulus
              for mat in [*_kernel_inputs(ring), *(mat for _, mat, _ in _peel_cases(ring))]]
    # a block whose kernel is empty, one of zero rows, one without rows and one without columns
    between = [np.eye(3, dtype=np.int64), np.zeros((2, 3), dtype=np.int64),
               np.zeros((0, 2), dtype=np.int64), np.ones((2, 0), dtype=np.int64)]
    empty = 0
    for start in range(0, len(blocks), 6):
        group = [b for pair in zip(blocks[start:start + 6], itertools.cycle(between)) for b in pair]
        a, ends = _block_diagonal(group)
        for matrix in (a, _as_sparse(a, ring, rng)):
            bases = block_left_kernels(matrix, ring, ends)
            assert len(bases) == len(group)
            for block, ker in zip(group, bases):
                want = reference_left_kernel(block, ring)
                assert ker.shape == want.shape and ker.dtype == want.dtype
                assert (ker == want).all()
                empty += block.shape[0] > 0 and ker.shape[0] == 0
    assert empty > 10


def test_block_left_kernels_reject_bad_row_ends_and_a_matrix_that_is_not_block_diagonal():
    ring = ModRing(3, 1)
    a = np.array([[1, 1], [1, 1]])
    for ends in ([], [1], [2, 1], [3]):
        with pytest.raises(ValueError, match="do not cut 2 rows"):
            block_left_kernels(a, ring, np.array(ends, dtype=np.int64))
    # v = (1, -1) is the kernel, and it crosses from block 0 into block 1
    with pytest.raises(ValueError, match="not block diagonal"):
        block_left_kernels(a, ring, [1, 2])
    assert block_left_kernels(a, ring, [2])[0].tolist() == left_kernel(a, ring).tolist() == [[1, 2]]
    # a matrix without rows is cut into no blocks, or into blocks without rows
    none = np.zeros((0, 3), dtype=np.int64)
    assert block_left_kernels(none, ring, []) == []
    assert [k.shape for k in block_left_kernels(none, ring, [0, 0])] == [(0, 0), (0, 0)]
    with pytest.raises(ValueError, match="do not cut 0 rows"):
        block_left_kernels(none, ring, [1])


@settings(max_examples=300, deadline=None)
@given(_valued_matrices(), st.integers(0, 2 ** 32 - 1))
def test_left_kernel_of_sparse_input_equals_the_augmented_kernel_property(ring_mat, seed):
    ring, a = ring_mat
    ker = left_kernel(_as_sparse(a, ring, np.random.default_rng(seed)), ring)
    want = augmented_left_kernel(a, ring)
    assert ker.shape == want.shape and ker.dtype == want.dtype
    assert (ker == want).all()


def test_a_sparse_matrix_with_an_entry_outside_its_shape_or_a_repeated_position_is_rejected():
    ring = ModRing(3, 1)

    def sparse(rows, cols):
        return SparseMatrix(np.array(rows), np.array(cols), np.ones(len(rows), dtype=np.int64), (2, 2))

    for rows, cols in (([0, 2], [0, 0]), ([0, 1], [0, 2]), ([-1], [0]), ([0], [-1])):
        with pytest.raises(ValueError, match="outside the 2 x 2 matrix"):
            left_kernel(sparse(rows, cols), ring)
    # a repeated position is summed, as everywhere: (0, 1) holds 1 + 1
    summed = np.array([[0, 2], [0, 1]])
    assert np.array_equal(left_kernel(sparse([0, 1, 0], [1, 1, 1]), ring), left_kernel(summed, ring))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]), st.integers(0, 5), st.integers(0, 5),
       st.integers(0, 5), st.data())
def test_the_sparse_product_equals_the_dense_product(pn, k, n, l, data):
    ring = ModRing(*pn)
    m = ring.modulus
    # mostly zeros, so that many joins on the middle index are empty
    entries = st.sampled_from([0] * 2 * m + list(range(1, m)))
    a, b = (np.array(data.draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)),
                     dtype=np.int64).reshape(r, c) for r, c in ((k, n), (n, l)))
    got = sparse_product(as_sparse(a, m), as_sparse(b, m), m)
    assert got.shape == (k, l) and got == as_sparse(mmul(a, b, ring), m)
    assert np.array_equal(got.dense(), mmul(a, b, ring))
    # the product is canonical as built, so as_sparse passes it through
    assert as_sparse(SparseMatrix(*got), m) == got and as_sparse(got, m) is got


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_minimal_generators_keep_the_rows_the_per_row_reference_keeps(ring):
    m = ring.modulus
    for mat in _kernel_inputs(ring):
        a = np.asarray(mat, dtype=np.int64) % m
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if not a.shape[0]:
            continue
        want = minimal_generator_indices(a, ring)
        got = minimal_generators(a, ring)
        assert got.shape == (len(want), a.shape[1]) and got.dtype == a.dtype
        assert (got == a[want]).all()


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_express_in_basis_equals_row_by_row_solve_in_span(ring):
    m = ring.modulus
    rng = np.random.default_rng(2000 + m)
    for basis in [*_random_reference_matrices(ring), *_edge_case_matrices(ring)]:
        b = np.asarray(basis, dtype=np.int64) % m
        if b.ndim == 1:
            b = b.reshape(1, -1)
        vectors = (rng.integers(0, m, size=(4, b.shape[0])) @ b) % m
        got = express_in_basis(vectors, b, ring)
        want = np.vstack([solve_in_span(v, b, ring) for v in vectors])
        assert got.shape == want.shape and got.dtype == want.dtype
        assert (got == want).all()


def test_express_in_basis_rejects_a_vector_outside_the_span():
    ring = ModRing(2, 2)
    basis = np.array([[2, 0], [0, 1]])
    assert (express_in_basis(np.array([[2, 3]]), basis, ring) == [[1, 3]]).all()
    for outside in ([1, 0], [3, 1]):
        with pytest.raises(ValueError, match="not in span"):
            express_in_basis(np.array([[2, 1], outside]), basis, ring)


def test_modring_modulus_is_computed_once_and_keeps_equality_on_p_and_n():
    ring = ModRing(3, 2)
    assert "modulus" not in vars(ring)
    assert ring.modulus == 9 and vars(ring)["modulus"] == 9
    fresh = ModRing(3, 2)
    assert ring == fresh and hash(ring) == hash(fresh)
    assert ring != ModRing(3, 1) and ModRing(3, 1).modulus == 3


def test_modring_rejects_moduli_beyond_int64_products():
    for p, n in ((2, 30), (3, 19)):
        assert ModRing(p, n).modulus < 2 ** 31
    for p, n in ((2, 31), (3, 20)):
        with pytest.raises(ValueError, match="2\\^31"):
            ModRing(p, n)


# ---------------------------------------------------------------------------
# mmul against the object-dtype reference, output for output

MMUL_RINGS = [ModRing(2, 1), ModRing(3, 1), ModRing(2, 2), ModRing(3, 2), ModRing(3, 3),
              ModRing(2, 20), ModRing(3, 12), ModRing(3, 19)]


def _assert_mmul_exact(a, b, ring):
    got = mmul(a, b, ring)
    want = (a.astype(object) @ b.astype(object)) % ring.modulus
    assert got.dtype == np.int64 and got.shape == want.shape
    assert (got == want).all()


@pytest.mark.parametrize("ring", MMUL_RINGS, ids=str)
def test_mmul_matches_object_reference_on_random_and_worst_case_matrices(ring):
    m = ring.modulus
    rng = np.random.default_rng(2000 + ring.p * 100 + ring.n)
    for rows, k, cols in ((1, 1, 1), (3, 7, 2), (12, 40, 9), (30, 64, 25)):
        _assert_mmul_exact(rng.integers(0, m, size=(rows, k)), rng.integers(0, m, size=(k, cols)), ring)
        _assert_mmul_exact(np.full((rows, k), m - 1), np.full((k, cols), m - 1), ring)
        _assert_mmul_exact(rng.integers(0, m, size=k), rng.integers(0, m, size=(k, cols)), ring)


def _path_edges():
    """(ring, k) with k the least inner dimension where k (m-1)^2 reaches
    2^53 or 2^62.  Edges above 2^16 are left out: up to Z/27 they lie beyond
    10^12, so every product there takes the float64 path."""
    for ring in MMUL_RINGS + [ModRing(3, 16), ModRing(2, 25)]:
        for bound in (2 ** 53, 2 ** 62):
            edge = -(-bound // (ring.modulus - 1) ** 2)
            if edge <= 2 ** 16:
                yield pytest.param(ring, edge, id=f"{ring}-k{edge}")


@pytest.mark.parametrize("ring,edge", _path_edges())
def test_mmul_is_exact_on_both_sides_of_each_path_bound(ring, edge):
    m = ring.modulus
    for k in (edge - 1, edge):  # all entries m - 1: the largest partial sums
        _assert_mmul_exact(np.full((2, k), m - 1), np.full((k, 3), m - 1), ring)


@pytest.mark.parametrize("ring", MMUL_RINGS, ids=str)
def test_mmul_on_empty_shapes(ring):
    for rows, k, cols in ((0, 4, 3), (3, 4, 0), (2, 0, 3), (0, 0, 0)):
        _assert_mmul_exact(np.zeros((rows, k), dtype=np.int64), np.zeros((k, cols), dtype=np.int64), ring)


def test_mmul_row_vector_does_not_overflow():
    ring = ModRing(3, 19)
    m = ring.modulus
    row, col = np.full(8, m - 1, dtype=np.int64), np.full((8, 1), m - 1, dtype=np.int64)
    assert mmul(row, col, ring).tolist() == [8]  # 8 (m-1)^2 = 8 mod m; int64 @ wraps


_PRIMES = (2, 3, 5, 7, 11, 13, 31, 251, 65521)


@st.composite
def _mmul_operands(draw):
    p = draw(st.sampled_from(_PRIMES))
    n = draw(st.integers(1, max(1, int(30 / np.log2(p)))))
    ring = ModRing(p, n)
    m = ring.modulus
    rows, k, cols = (draw(st.integers(0, 6)) for _ in range(3))
    entries = st.integers(-(m - 1), m - 1)
    a = np.array(draw(st.lists(entries, min_size=rows * k, max_size=rows * k)), dtype=np.int64)
    b = np.array(draw(st.lists(entries, min_size=k * cols, max_size=k * cols)), dtype=np.int64)
    return ring, a.reshape(rows, k), b.reshape(k, cols)


@settings(max_examples=300, deadline=None)
@given(_mmul_operands())
def test_mmul_matches_object_reference_property(operands):
    ring, a, b = operands
    _assert_mmul_exact(a, b, ring)


# ---------------------------------------------------------------------------
# Smith normal form and resultants against sympy


def _random_integer_matrix(rng, rows, cols, bound):
    return [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(cols)]
            for _ in range(rows)]


@pytest.mark.parametrize("seed", range(4))
def test_smith_normal_form_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_smith

    rng = random.Random(500 + seed)
    for k in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_integer_matrix(rng, rows, cols, 10 ** 12 if k % 8 == 0 else 30)
        if k % 5 == 0 and rows > 1:  # rank deficiency
            a[-1] = [2 * x for x in a[0]]
        s, u, v, vinv = smith_normal_form(a, want_vinv=True)
        am, sm, um, vm = (sympy.Matrix(x) for x in (a, s, u, v))
        assert um * am * vm == sm
        assert abs(um.det()) == 1 and abs(vm.det()) == 1
        assert vm * sympy.Matrix(vinv) == sympy.eye(cols)
        assert all(s[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        want = sympy_smith(am, domain=sympy.ZZ)
        assert [s[i][i] for i in range(min(rows, cols))] == \
            [abs(want[i, i]) for i in range(min(rows, cols))]


@pytest.mark.parametrize("seed", range(4))
def test_resultant_matches_sympy_sylvester_determinant(seed):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester

    x = sympy.symbols("x")
    rng = random.Random(600 + seed)
    for k in range(40):
        bound = 10 ** 9 if k % 8 == 0 else 9
        f, g = ([rng.randint(-bound, bound) for _ in range(rng.randint(2, 7))] for _ in range(2))
        f[-1] = f[-1] or 1
        g[-1] = g[-1] or -1
        fx, gx = (sympy.Poly(c[::-1], x).as_expr() for c in (f, g))
        got = resultant(f, g)
        assert got == sylvester(fx, gx, x, 1).det()
        # sympy.resultant (1.14) returns the opposite sign on some of these
        # inputs, e.g. Res(8x - 5, 5x^3 - 5x^2 + 7x + 8) = 5961 = 8^3 g(5/8)
        # against its -5961, so only the absolute value is compared with it
        assert abs(got) == abs(sympy.resultant(fx, gx, x))


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_int_poly(rng, degree, bound):
    coeffs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
    coeffs[-1] = coeffs[-1] or rng.choice([-1, 1])
    return coeffs


@pytest.mark.parametrize("seed", range(4))
def test_resultant_matches_sylvester_reference(seed):
    rng = random.Random(700 + seed)
    for k in range(120):
        bound = 10 ** 15 if k % 6 == 0 else 9
        f = _random_int_poly(rng, rng.randint(0, 8), bound)
        g = _random_int_poly(rng, rng.randint(0, 8), bound)
        shape = k % 5
        if shape == 1:  # zero constant terms, on one side or both
            f = [0] + f
            if rng.random() < 0.5:
                g = [0] + g
        elif shape == 2:  # a common factor: Res = 0
            h = _random_int_poly(rng, rng.randint(1, 3), 9)
            f, g = _int_poly_mul(f, h), _int_poly_mul(g, h)
        elif shape == 3:  # a constant on either side
            if rng.random() < 0.5:
                f = [rng.choice([-1, 1]) * rng.randint(1, bound)]
            else:
                g = [rng.choice([-1, 1]) * rng.randint(1, bound)]
        got = resultant(f, g)
        assert type(got) is int
        assert got == reference_resultant(f, g), (f, g)
        if shape == 2:
            assert got == 0


def test_resultant_edge_cases():
    assert resultant([0, 1], [0, 0, 3]) == 0
    assert resultant([7], [-2]) == 1
    assert resultant([-2], [1, 2, 3]) == 4
    assert resultant([1, 2, 3], [-2]) == 4
    # trailing zeros are not part of the degree
    assert resultant([1, 1, 1, 0, 0], [1, 2, 0]) == 3
    for f, g in (([], [1, 1]), ([0, 0], [1]), ([1, 1], [0])):
        with pytest.raises(ValueError, match="zero polynomial"):
            resultant(f, g)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_resultant_of_cyclotomic_and_derivative_closed_form(p):
    # |Res(Phi_{p^r}, Phi_{p^r}')| = |disc Phi_{p^r}| = p^(p^(r-1) (pr - r - 1))
    for r in (1, 2, 3):
        phi = cyclotomic_polynomial_ppower(p, r)
        dphi = [i * c for i, c in enumerate(phi)][1:]
        got = resultant(phi, dphi)
        assert type(got) is int
        assert abs(got) == p ** (p ** (r - 1) * (p * r - r - 1))


def test_resultant_of_a_linear_polynomial_is_a_root_evaluation():
    # Res(b + a x, g) = a^deg(g) * g(-b/a), the definition by roots
    rng = random.Random(31)
    for _ in range(60):
        a = rng.choice([k for k in range(-9, 10) if k])
        b = rng.randint(-9, 9)
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        g[-1] = g[-1] or 1
        root = Fraction(-b, a)
        value = a ** (len(g) - 1) * sum(c * root ** i for i, c in enumerate(g))
        assert resultant([b, a], g) == value
    assert resultant([-5, 8], [8, 7, -5, 5]) == 5961
