"""Graded slice complexes: homology, total complexes, homology reports."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import reference_complexes

from derhamkit.exactlin import ModRing, SparseMatrix, howell_form, v_int
from derhamkit.complexes import (
    DoubleComplex,
    GradedSliceComplex,
    SliceQuotient,
    WindowError,
    homology_quotient,
    homology_report,
    slice_homology,
    total_complex,
)
from derhamkit.randomgen import random_complex, random_invertible


def two_term(ring, entry, w=0):
    # 0 -> R --(entry)--> R -> 0 in degrees 1, 0
    return GradedSliceComplex(
        ring, 0, 1, {(0, w): 1, (1, w): 1}, {(1, w): np.array([[entry]])}
    )


def test_mod4_multiplication_by_two():
    ring = ModRing(2, 2)
    cx = two_term(ring, 2)
    assert slice_homology(cx, 0, 0) == [2]
    assert slice_homology(cx, 1, 0) == [2]


@pytest.mark.parametrize("p,n,first,second,want", [
    (2, 2, 2, 2, [[2], [], [2]]),
    (2, 3, 2, 4, [[4], [], [2]]),
    (3, 2, 3, 3, [[3], [], [3]]),
], ids=["Z/4 x2 then x2", "Z/8 x2 then x4", "Z/9 x3 then x3"])
def test_homology_of_a_complex_that_does_not_split(p, n, first, second, want):
    # Z/p^n --(x first)--> Z/p^n --(x second)--> Z/p^n in degrees 2, 1, 0, and
    # neither arrow splits off.  By hand: H_0 = Z/(second), H_1 = ker(x second)
    # / im(x first) = 0 (both are the multiples of p^n / second), H_2 = ker(x first)
    ring = ModRing(p, n)
    cx = GradedSliceComplex(ring, 0, 2, {(k, 0): 1 for k in range(3)},
                            {(2, 0): np.array([[first]]), (1, 0): np.array([[second]])})
    for degree, factors in enumerate(want):
        assert slice_homology(cx, degree, 0) == factors
        assert homology_quotient(cx, degree, 0).factors == factors
        assert reference_complexes.homology_quotient(cx, degree, 0).factors == factors
    # mod p both arrows vanish: every H_k(C/p) is F_p, although H_1(C) has no cyclic factor
    red = GradedSliceComplex(ModRing(p, 1), 0, 2, {(k, 0): 1 for k in range(3)}, {})
    assert [len(slice_homology(red, k, 0)) for k in range(3)] == [1, 1, 1]
    assert [len(factors) for factors in want] == [1, 0, 1]


def test_zero_differentials_homology_is_terms():
    ring = ModRing(3, 2)
    cx = GradedSliceComplex(ring, 0, 2, {(0, 0): 2, (1, 1): 1, (2, 0): 3}, {})
    assert slice_homology(cx, 0, 0) == [9, 9]
    assert slice_homology(cx, 1, 1) == [9]
    assert slice_homology(cx, 2, 0) == [9, 9, 9]
    assert slice_homology(cx, 1, 0) == []


def test_out_of_window_rejected():
    ring = ModRing(2, 1)
    cx = GradedSliceComplex(ring, 0, 1, {(0, 0): 1}, {}, trusted=(0, 0))
    with pytest.raises(WindowError):
        slice_homology(cx, 1, 0)


def test_homology_independent_of_basis_order():
    ring = ModRing(2, 2)
    rng = random.Random(4)
    for _ in range(15):
        cx = random_complex(ring, rng, max_degree=3, max_rank=3)
        cx.validate()
        w = rng.choice(cx.weights() or [0])
        n = rng.randint(cx.n_min, cx.n_max)
        base = slice_homology(cx, n, w)
        # conjugate every slice at this weight by random invertible matrices
        qs = {
            deg: random_invertible(cx.dim(deg, w), ring, rng)
            for deg in cx.degrees()
            if cx.dim(deg, w)
        }
        dims = dict(cx.dims)
        diffs = dict(cx.diffs)
        for deg, (q, qinv) in qs.items():
            d = cx.diff(deg, w)
            if d.size:
                lower = qs.get(deg - 1)
                right = lower[0] if lower else np.eye(d.shape[1], dtype=np.int64)
                diffs[(deg, w)] = (qinv @ d @ right) % ring.modulus
        cx2 = GradedSliceComplex(ring, cx.n_min, cx.n_max, dims, diffs)
        cx2.validate()
        assert slice_homology(cx2, n, w) == base


def test_slice_quotient_representatives_and_coords():
    ring = ModRing(2, 2)
    cycles = np.array([[1, 0], [0, 2]])
    boundaries = np.array([[2, 0]])
    q = SliceQuotient.from_cycles_boundaries(cycles, boundaries, ring)
    assert sorted(q.factors) == [2, 2]
    for rep, d in zip(q.gen_reps, q.factors):
        c = q.coords(rep)
        assert c is not None and not all(x == 0 for x in c)
        assert q.coords((d * rep) % 4) == (0,) * len(q.factors)
    # coords is additive
    s = (q.gen_reps[0] + q.gen_reps[-1]) % 4
    ca = q.coords(q.gen_reps[0])
    cb = q.coords(q.gen_reps[-1])
    cs = q.coords(s)
    assert cs == tuple((a + b) % d for a, b, d in zip(ca, cb, q.factors))


def test_slice_quotient_coords_solve_through_one_solver_per_quotient(monkeypatch):
    from derhamkit import exactlin

    built = []
    solver = exactlin.span_solver

    def counting_solver(rows, ring):
        built.append(rows.shape)
        return solver(rows, ring)

    monkeypatch.setattr(exactlin, "span_solver", counting_solver)
    ring = ModRing(3, 2)
    cx = GradedSliceComplex(ring, 0, 1, {(0, 0): 2, (1, 0): 1}, {(1, 0): np.array([[3, 0]])})
    q = homology_quotient(cx, 0, 0)
    assert sorted(q.factors) == [3, 9]
    a, b = (tuple(q.coords(rep)) for rep in q.gen_reps)
    assert q.coords((q.gen_reps[0] + 2 * q.gen_reps[1]) % 9) == tuple(
        (x + 2 * y) % d for x, y, d in zip(a, b, q.factors))
    assert q.coords(np.array([3, 0])) == (0, 0)
    assert built == [(2, 2)]


def test_total_complex_one_column():
    ring = ModRing(2, 2)
    dc = DoubleComplex(
        ring,
        {(0, 0, 0): 1, (0, 1, 0): 1},
        {},
        {(0, 1, 0): np.array([[2]])},
    )
    tot = total_complex(dc)
    assert slice_homology(tot, 0, 0) == [2]
    assert slice_homology(tot, 1, 0) == [2]


def test_total_complex_two_column_square_block_assembly():
    # Koszul-style square for (a, b): rows 0 -> A -> A^2 -> A with commuting maps
    ring = ModRing(3, 2)
    a, b = 3, 6
    dc = DoubleComplex(
        ring,
        {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): 1},
        {(1, 0, 0): np.array([[a]]), (1, 1, 0): np.array([[a]])},
        {(0, 1, 0): np.array([[b]]), (1, 1, 0): np.array([[b]])},
    )
    tot = total_complex(dc)
    # hand-assembled blocks (p ascending): Tot_1 = (0,1) + (1,0), so
    # d_1 = [[b], [a]] and d_2 = [a | -b] with the (-1)^p twist on verticals
    assert tot.diff(1, 0).tolist() == [[b], [a]]
    assert tot.diff(2, 0).tolist() == [[a, -b % 9]]
    tot.validate()


def test_total_complex_rejects_noncommuting():
    ring = ModRing(2, 1)
    dc = DoubleComplex(
        ring,
        {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): 1},
        {(1, 0, 0): np.array([[1]]), (1, 1, 0): np.array([[1]])},
        {(0, 1, 0): np.array([[1]]), (1, 1, 0): np.array([[0]])},
    )
    with pytest.raises(ValueError):
        total_complex(dc)


def kunneth_dims(c1, c2, n, w, ring):
    out = 0
    for i in range(c1.n_min, c1.n_max + 1):
        for u in c1.weights():
            f1 = slice_homology(c1, i, u)
            if not f1:
                continue
            f2 = slice_homology(c2, n - i, w - u) if c2.n_min <= n - i <= c2.n_max else []
            out += len(f1) * len(f2)
    return out


def kunneth_cases():
    """(c1, c2, weight, tensor double complex) for the single-weight pairs
    of six seeded draws of complexes over F_5."""
    ring = ModRing(5, 1)
    rng = random.Random(12)
    out = []
    for _ in range(6):
        c1 = random_complex(ring, rng, max_degree=2, max_rank=2)
        c2 = random_complex(ring, rng, max_degree=2, max_rank=2)
        if len(c1.weights()) != 1 or len(c2.weights()) != 1:
            continue
        (u,), (v,) = c1.weights(), c2.weights()
        w = u + v
        terms = {(p, q, w): c1.dim(p, u) * c2.dim(q, v)
                 for p in c1.degrees() for q in c2.degrees() if c1.dim(p, u) and c2.dim(q, v)}
        horiz = {}
        vert = {}
        for (p, q, _) in terms:
            if (p - 1, q, w) in terms:
                horiz[(p, q, w)] = np.kron(c1.diff(p, u), np.eye(c2.dim(q, v), dtype=np.int64)) % 5
            if (p, q - 1, w) in terms:
                vert[(p, q, w)] = np.kron(np.eye(c1.dim(p, u), dtype=np.int64), c2.diff(q, v)) % 5
        out.append((c1, c2, w, DoubleComplex(ring, terms, horiz, vert)))
    return out


def test_total_complex_kunneth_over_field():
    cases = kunneth_cases()
    assert cases
    for c1, c2, w, dc in cases:
        tot = total_complex(dc)
        for n in range(tot.n_min, tot.n_max + 1):
            assert len(slice_homology(tot, n, w)) == kunneth_dims(c1, c2, n, w, dc.ring)


def _double_complexes():
    """The Kuenneth cases, the eilenberg-zilber suite's double complexes at
    seed 1 and the seeded ones of ``test_simplex`` (several weights, empty
    summands and the empty double complex)."""
    from test_simplex import _random_double_complexes, eilenberg_zilber_double_complexes

    return ([dc for *_, dc in kunneth_cases()] + eilenberg_zilber_double_complexes(seed=1)
            + [dc for seed in range(6) for dc in _random_double_complexes(seed)])


def _as_unreduced_triples(dc):
    """``dc`` rebuilt from its blocks as triples in reverse order with the
    values shifted by -p^n, so the constructor has to reduce them."""
    m = dc.ring.modulus

    def triples(blocks):
        return {key: SparseMatrix(d.rows[::-1], d.cols[::-1], d.vals[::-1] - m, d.shape) for key, d in blocks.items()}

    return DoubleComplex(dc.ring, dict(dc.terms), triples(dc.horiz), triples(dc.vert))


@pytest.mark.parametrize("form", ["dense", "triples"])
def test_total_complex_equals_the_dense_reference(form):
    cases = _double_complexes()
    assert any(not dc.terms for dc in cases)
    assert any(len({w for (_, _, w) in dc.terms}) > 1 for dc in cases)
    for dense in cases:
        dc = dense if form == "dense" else _as_unreduced_triples(dense)
        for (p, q, w) in dc.terms:
            assert np.array_equal(dc.h(p, q, w), dense.h(p, q, w))
            assert np.array_equal(dc.v(p, q, w), dense.v(p, q, w))
        reference_complexes.validate_double_complex(dc)
        got = total_complex(dc)
        want = reference_complexes.total_complex(dc)
        assert (got.n_min, got.n_max, got.trusted) == (want.n_min, want.n_max, want.trusted)
        assert list(got.dims.items()) == list(want.dims.items())
        assert got.diffs.keys() == want.diffs.keys()
        for (n, w) in got.dims:
            assert np.array_equal(got.diff(n, w), want.diff(n, w)), (n, w)


# kind, the blocks (p, q) made the identity at weight 1, the block named
FAULTS = [
    ("horizontal d^2 != 0", {"h": [(2, 1), (1, 1)]}, (2, 1, 1)),
    ("vertical d^2 != 0", {"v": [(1, 2), (1, 1)]}, (1, 2, 1)),
    ("horizontal and vertical differentials do not commute", {"h": [(2, 2)], "v": [(1, 2)]}, (2, 2, 1)),
]


@pytest.mark.parametrize("form", ["dense", "triples"])
@pytest.mark.parametrize("kind, planted, block", FAULTS)
def test_each_fault_raises_at_both_entry_points_naming_its_kind_and_block(kind, planted, block, form):
    from derhamkit.simplex import double_kan

    # rank-two terms on a 3 x 3 grid at two weights, all maps zero but the planted ones
    ring = ModRing(3, 2)
    terms = {(p, q, w): 2 for p in range(3) for q in range(3) for w in (0, 1)}
    eye = np.eye(2, dtype=np.int64)
    one = eye if form == "dense" else SparseMatrix(np.array([1, 0]), np.array([1, 0]), np.array([10, 1]), (2, 2))
    dc = DoubleComplex(ring, terms, *({(p, q, 1): one for (p, q) in planted.get(d, ())} for d in "hv"))
    named = re.escape(f"{kind} at {block}")
    degree = block[0] + block[1]
    with pytest.raises(ValueError, match=named):
        reference_complexes.validate_double_complex(dc)
    with pytest.raises(ValueError, match=rf"^not a double complex \({named}\): d\^2 != 0 at degree {degree}, weight 1$"):
        total_complex(dc)
    with pytest.raises(ValueError, match=rf"^not a double complex \({named}\)"):
        double_kan(dc, 2, 2)


def test_total_complex_and_the_dense_check_agree_on_planted_entries():
    rng = random.Random(4)
    tried = failed = 0
    for dc in _double_complexes():
        blocks = [(table, key) for table in (dc.horiz, dc.vert) for key in table]
        for table, key in rng.sample(blocks, min(len(blocks), 3)):
            d = table[key]
            k = rng.randrange(d.vals.size)
            planted = d._replace(vals=d.vals.copy())
            planted.vals[k] = (planted.vals[k] + 1) % dc.ring.modulus
            bad = DoubleComplex(dc.ring, dc.terms, {**dc.horiz, key: planted} if table is dc.horiz else dc.horiz,
                                {**dc.vert, key: planted} if table is dc.vert else dc.vert)
            try:
                reference_complexes.validate_double_complex(bad)
                want = None
            except ValueError as exc:
                want = str(exc)
            if want is None:
                total_complex(bad)
            else:
                with pytest.raises(ValueError, match=r"^not a double complex \("):
                    total_complex(bad)
            tried += 1
            failed += want is not None
    assert tried > failed > 0


def test_homology_report_entries_are_the_slice_factors():
    ring = ModRing(2, 2)
    rng = random.Random(3)
    cx = random_complex(ring, rng, max_degree=3, max_rank=3)
    hr = homology_report(cx)
    assert hr.trusted == cx.trusted and hr.entries
    for (n, w), entry in hr.entries.items():
        assert entry["factors"] == slice_homology(cx, n, w) == hr.factors(n, w)
        assert entry["length"] == sum(v_int(d, ring.p) for d in entry["factors"])


def length_audit(cx: GradedSliceComplex, weight: int) -> bool:
    """Rank-nullity bookkeeping per weight slice for free Z/p^n terms:
    sum of term lengths = sum of homology lengths + 2 * sum of image lengths."""
    ring = cx.ring
    n_lengths = 0
    h_lengths = 0
    im_lengths = 0
    for n in cx.degrees():
        n_lengths += cx.dim(n, weight) * ring.n
        if cx.in_trust_window(n):
            q = homology_quotient(cx, n, weight)
            h_lengths += q.length()
    for n in cx.degrees():
        d = cx.diff(n, weight)
        if d.size:
            im = howell_form(d, ring)
            for row in im:
                lead = row[np.nonzero(row)[0][0]] if row.any() else 0
                if lead:
                    im_lengths += ring.n - v_int(int(lead), ring.p)
    # only meaningful when the trust window covers the whole support
    return n_lengths == h_lengths + 2 * im_lengths


def test_rank_nullity_audit():
    ring = ModRing(2, 3)
    rng = random.Random(21)
    for _ in range(10):
        cx = random_complex(ring, rng, max_degree=3, max_rank=3)
        for w in cx.weights():
            assert length_audit(cx, w)


def test_devissage_probe_mod_p_reduction():
    # a complex of free Z/p^n modules whose mod-p reduction is exact is
    # itself exact; probed on seeded unit-arrow complexes plus a torsion
    # counterexample whose reduction fails exactness
    ring = ModRing(2, 2)
    fp = ModRing(2, 1)
    rng = random.Random(19)
    for _ in range(10):
        dims = {}
        diffs = {}
        # matched unit arrows only: mod-p reduction stays exact
        k = rng.randint(1, 3)
        dims[(1, 0)] = k
        dims[(0, 0)] = k
        unit = np.diag([1 + 2 * rng.randrange(2) for _ in range(k)]).astype(np.int64)
        diffs[(1, 0)] = unit % 4
        cx = GradedSliceComplex(ring, 0, 1, dims, diffs)
        red = GradedSliceComplex(fp, 0, 1, dict(dims), {kk: v % 2 for kk, v in diffs.items()})
        red_exact = all(not slice_homology(red, n, 0) for n in (0, 1))
        assert red_exact
        assert all(not slice_homology(cx, n, 0) for n in (0, 1))
    # torsion arrow: reduction not exact, original not exact
    cx = GradedSliceComplex(ring, 0, 1, {(0, 0): 1, (1, 0): 1}, {(1, 0): np.array([[2]])})
    red = GradedSliceComplex(fp, 0, 1, {(0, 0): 1, (1, 0): 1}, {(1, 0): np.array([[0]])})
    assert slice_homology(red, 0, 0) and slice_homology(cx, 0, 0)


@pytest.mark.parametrize("form", ["dense", "triples"])
def test_validate_raises_on_one_planted_entry(form):
    # over Z/4 every product below is a multiple of 4 or cancels, except the
    # planted one; sums of reduced products must be reduced again
    ring = ModRing(2, 2)
    d2 = np.array([[2, 2, 1], [1, 1, 0]])
    d1 = np.array([[2, 1], [2, 3], [0, 0]])
    dims = {(2, 0): 2, (1, 0): 3, (0, 0): 2}

    def as_form(a):
        if form == "dense":
            return a
        r, c = np.nonzero(a)
        return SparseMatrix(r[::-1], c[::-1], a[r, c][::-1], a.shape)  # any order is accepted

    GradedSliceComplex(ring, 0, 2, dims, {(2, 0): as_form(d2), (1, 0): as_form(d1)}).validate()
    planted = d1.copy()
    planted[2, 1] = 1  # d2 d1 gains exactly the entry (0, 1)
    cx = GradedSliceComplex(ring, 0, 2, dims, {(2, 0): as_form(d2), (1, 0): as_form(planted)})
    with pytest.raises(ValueError, match=r"^d\^2 != 0 at degree 2, weight 0$"):
        cx.validate()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]), st.integers(0, 6), st.integers(0, 6),
       st.data())
def test_dense_to_triples_to_diff_is_the_identity(pn, rows, cols, data):
    ring = ModRing(*pn)
    a = data.draw(arrays(np.int64, (rows, cols), elements=st.integers(0, ring.modulus - 1)))
    dims = {(1, 0): rows, (0, 0): cols}
    cx = GradedSliceComplex(ring, 0, 1, dims, {(1, 0): a})
    got = cx.diff(1, 0)
    assert got.dtype == np.int64 and got.shape == a.shape
    assert np.array_equal(got, a)
    if a.any():
        d = cx.diffs[(1, 0)]
        assert d.vals.min() >= 1 and d.vals.max() < ring.modulus
        assert np.all(np.diff(d.rows * max(cols, 1) + d.cols) > 0)  # row-major, no repeats
        # the stored triple, fed back in, gives the same complex
        assert np.array_equal(GradedSliceComplex(ring, 0, 1, dims, {(1, 0): d}).diff(1, 0), a)
    else:
        assert (1, 0) not in cx.diffs
    # the same matrix as shuffled, unreduced triples: every position twice, zeros too
    m = ring.modulus
    r, c = np.nonzero(np.ones_like(a))
    split = np.array(data.draw(st.lists(st.integers(-2 * m, 2 * m), min_size=r.size, max_size=r.size)),
                     dtype=np.int64)
    order = np.array(data.draw(st.permutations(range(2 * r.size))), dtype=np.int64)
    triples = SparseMatrix(np.concatenate([r, r])[order], np.concatenate([c, c])[order],
                           np.concatenate([a[r, c] - split, split])[order], a.shape)
    again = GradedSliceComplex(ring, 0, 1, dims, {(1, 0): triples})
    assert np.array_equal(again.diff(1, 0), a)
    assert again.diffs == cx.diffs


# maps that do not fit a 2 x 2 slice: triples with a row or column index
# below or above it, and dense matrices with too few or too many rows or
# columns (a 1 x 2 one used to be zero-padded, a 2 x 3 one to fail on read)
OUTSIDE_A_2_BY_2_SLICE = [
    *(SparseMatrix(np.array([r]), np.array([c]), np.array([1]), (2, 2)) for r, c in ((-1, 0), (2, 0), (0, -1), (0, 2))),
    *(np.ones(shape, dtype=np.int64) for shape in ((1, 2), (3, 2), (2, 1), (2, 3))),
]
OUTSIDE_IDS = ["row -1", "row 2", "column -1", "column 2", "dense 1x2", "dense 3x2", "dense 2x1", "dense 2x3"]


@pytest.mark.parametrize("bad", OUTSIDE_A_2_BY_2_SLICE, ids=OUTSIDE_IDS)
def test_a_slice_complex_rejects_a_map_that_does_not_fit_its_slice_naming_the_key(bad):
    with pytest.raises(ValueError, match=re.escape("the map at (1, 0)")):
        GradedSliceComplex(ModRing(3, 1), 0, 1, {(1, 0): 2, (0, 0): 2}, {(1, 0): bad})


@pytest.mark.parametrize("bad", OUTSIDE_A_2_BY_2_SLICE, ids=OUTSIDE_IDS)
def test_a_double_complex_rejects_a_block_that_does_not_fit_its_terms_naming_the_key(bad):
    terms = {(1, 0, 0): 2, (0, 0, 0): 2, (0, 1, 0): 2}
    with pytest.raises(ValueError, match=re.escape("the map at (1, 0, 0)")):
        DoubleComplex(ModRing(3, 1), terms, {(1, 0, 0): bad}, {})
    with pytest.raises(ValueError, match=re.escape("the map at (0, 1, 0)")):
        DoubleComplex(ModRing(3, 1), terms, {}, {(0, 1, 0): bad})


def test_triples_sum_repeated_positions():
    ring = ModRing(3, 1)
    coo = SparseMatrix(np.array([1, 0, 1, 1]), np.array([0, 1, 0, 1]), np.array([2, 4, 2, -1]), (2, 2))
    cx = GradedSliceComplex(ring, 0, 1, {(1, 0): 2, (0, 0): 2}, {(1, 0): coo})
    assert cx.diff(1, 0).tolist() == [[0, 1], [1, 2]]
    with pytest.raises(ValueError, match="outside a slice of 2 columns"):
        GradedSliceComplex(ring, 0, 1, {(1, 0): 2, (0, 0): 2}, {(1, 0): SparseMatrix(*np.array([[0], [2], [1]]), (2, 2))})
