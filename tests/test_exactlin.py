"""Kernel linear algebra: Smith/Howell forms, invariants, valuations, resultants."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_exactlin import augmented_left_kernel
from reference_exactlin import howell_form as reference_howell_form
from reference_exactlin import left_kernel as reference_left_kernel
from reference_exactlin import minimal_generator_indices
from reference_exactlin import resultant as reference_resultant

from derhamkit import exactlin
from derhamkit.exactlin import (
    ZZ,
    ModRing,
    ModulePresentation,
    SparseMatrix,
    as_sparse,
    express_in_basis,
    howell_form,
    left_kernel,
    minimal_generators,
    mmul,
    module_invariants,
    normal_form,
    padic_valuation,
    quotient_invariants,
    resultant,
    smith_normal_form,
    solve_in_span,
    sparse_product,
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
    s, (u, v) = normal_form(m, ZZ)
    assert [s[0][0], s[1][1]] == [2, 4]
    assert gcd_reduction_diagonal(m) == [2, 4]


def test_smith_identity_trivial():
    s, (u, v) = normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ZZ)
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
    h, (t, tp) = normal_form([[2]], ring)
    assert h.tolist() == [[2]]


def test_howell_certificates_and_span():
    ring = ModRing(3, 2)
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = np.array([[rng.randrange(9) for _ in range(cols)] for _ in range(rows)])
        h, (t, tp) = normal_form(m, ring)
        assert ((t @ m) % 9 == h).all()
        assert ((tp @ h) % 9 == m % 9).all()
        # canonical: Howell of H is H
        assert (howell_form(h, ring) == h).all()
        # span property: random combinations lie in the span
        for _ in range(5):
            c = np.array([rng.randrange(9) for _ in range(rows)])
            assert solve_in_span((c @ m) % 9, h, ring) is not None


def test_howell_rejects_composite_modulus():
    with pytest.raises(ValueError):
        normal_form([[2]], ModRing(6, 1))


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


def test_module_invariants_examples():
    ring4 = ModRing(2, 2)
    facs, length = module_invariants(ModulePresentation(ring4, 1, np.array([[2]])))
    assert facs == [2] and length == 1

    ring9 = ModRing(3, 2)
    facs, length = module_invariants(ModulePresentation(ring9, 2, np.zeros((0, 2), dtype=np.int64)))
    assert facs == [9, 9] and length == 4

    # Kaehler module of F_3[x]/(x^3) over F_3: generator dx, relation 3x^2 dx = 0.
    # Expanded over F_3 in the monomial basis {dx, x dx, x^2 dx}: the relation is zero.
    ring3 = ModRing(3, 1)
    facs, length = module_invariants(ModulePresentation(ring3, 3, np.zeros((1, 3), dtype=np.int64)))
    assert facs == [3, 3, 3] and length == 3


def test_module_invariants_presentation_independent():
    ring = ModRing(2, 2)
    rng = random.Random(3)
    for _ in range(20):
        gens = rng.randint(1, 4)
        rels = rng.randint(0, 4)
        r = np.array([[rng.randrange(4) for _ in range(gens)] for _ in range(rels)]).reshape(rels, gens)
        base = module_invariants(ModulePresentation(ring, gens, r))
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
        assert module_invariants(ModulePresentation(ring, gens, r2)) == base


def test_quotient_invariants_mod4_times_two():
    # 0 -> Z/4 --(*2)--> Z/4 -> 0: H_0 = Z/2, H_1 = Z/2
    ring = ModRing(2, 2)
    d1 = np.array([[2]])
    h0 = quotient_invariants(np.array([[1]]), d1, ring)
    h1 = quotient_invariants(left_kernel(d1, ring), np.zeros((0, 1), dtype=np.int64), ring)
    assert h0 == [2]
    assert h1 == [2]


def test_padic_valuation_examples():
    assert padic_valuation(3, 3).value == 1
    assert padic_valuation(24, 2).value == 3
    assert padic_valuation(Fraction(7, 25), 5).value == -2
    assert padic_valuation(0, 5).is_infinite
    with pytest.raises(ValueError):
        padic_valuation(4, 6)


def test_padic_valuation_laws():
    rng = random.Random(17)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        a = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        b = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        va = padic_valuation(a, p).value
        vb = padic_valuation(b, p).value
        assert padic_valuation(a * b, p).value == va + vb
        s = a + b
        if s != 0:
            assert padic_valuation(s, p).value >= min(va, vb)


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
    from derhamkit.exactlin import invariant_factors_from_relations, local_smith, smith_normal_form

    rng = random.Random(71)
    for ring in (ModRing(2, 2), ModRing(3, 2), ModRing(2, 3)):
        m = ring.modulus
        for _ in range(40):
            rows = rng.randint(0, 5)
            cols = rng.randint(1, 5)
            rel = np.array([[rng.randrange(m) for _ in range(cols)] for _ in range(rows)]).reshape(rows, cols)
            got = invariant_factors_from_relations(rel, cols, ring)
            lifted = [[int(x) for x in r] for r in rel]
            lifted += [[m if i == j else 0 for j in range(cols)] for i in range(cols)]
            s, _, _ = smith_normal_form(lifted)
            want = sorted(int(s[i][i]) for i in range(cols) if s[i][i] > 1)
            assert got == want
            # transform certificates: rel @ V has the diagonal span
            factors, v, vinv = local_smith(rel if rel.size else np.zeros((0, cols), dtype=np.int64),
                                           ring, want_transform=True)
            assert ((v @ vinv) % m == np.eye(cols, dtype=np.int64)).all()


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
