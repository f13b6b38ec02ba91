"""Homology on the unit-contracted complex against the full-slice reference.

Invariant factors are canonical, so ``homology_quotient`` must return the
reference factor list exactly on every slice.  Representatives and
coordinates are not canonical; they are checked through the contract of
``SliceQuotient``: every ``gen_reps[j]`` is a cycle of the original complex
with coordinates the j-th unit tuple, every boundary has the zero class,
and the reference generators map onto the quotient.
"""

import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_complexes
import derhamkit.complexes as complexes
import derhamkit.derham as derham
from derhamkit.complexes import GradedSliceComplex, homology_quotient, reduce_complex, slice_homology
from derhamkit.exactlin import ModRing, mmul, quotient_invariants
from derhamkit.randomgen import random_complex
from derhamkit.suites import run_suite

RINGS = [ModRing(2, 1), ModRing(3, 1), ModRing(2, 2), ModRing(2, 3), ModRing(3, 2), ModRing(3, 3)]


def assert_slice_matches_reference(cx, n, w):
    ring = cx.ring
    q = homology_quotient(cx, n, w)
    ref = reference_complexes.homology_quotient(cx, n, w)
    assert q.factors == ref.factors
    k = len(q.factors)
    dim = cx.dim(n, w)
    assert q.gen_reps.shape == ((k, dim) if dim else (0, 0))
    d_here = cx.diff(n, w)
    if k and d_here.shape[1]:
        assert not mmul(q.gen_reps, d_here, ring).any()
    for j, rep in enumerate(q.gen_reps):
        assert q.coords(rep) == tuple(int(i == j) for i in range(k))
    for row in cx.diff(n + 1, w):
        assert q.coords(row) == (0,) * k
    # the reference generators have coordinates and generate the quotient
    coords = [q.coords(rep) for rep in ref.gen_reps]
    assert all(c is not None for c in coords)
    if k:
        relations = np.diag(q.factors).astype(np.int64)
        gens = np.array(coords, dtype=np.int64).reshape(-1, k)
        assert quotient_invariants(np.eye(k, dtype=np.int64), np.vstack([gens, relations]), ring) == []


def assert_complex_matches_reference(cx):
    for w in cx.weights():
        for n in cx.degrees():
            assert_slice_matches_reference(cx, n, w)


@st.composite
def _complexes(draw):
    ring = draw(st.sampled_from(RINGS))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    max_degree = draw(st.integers(1, 4))
    max_rank = draw(st.integers(1, 6))
    return random_complex(ring, random.Random(seed), max_degree, max_rank, weight_choices=(0, 1))


@settings(max_examples=120, deadline=None)
@given(_complexes())
def test_contracted_homology_matches_reference_on_random_complexes(cx):
    assert_complex_matches_reference(cx)


def _sparse_complex(ring, rng):
    """Sum of free modules and pieces R --lam--> R, put in a new basis by a
    few elementary changes, so rows of every length occur in every degree
    (a dense change of basis, as in ``random_complex``, makes all rows
    long)."""
    m = ring.modulus
    top = rng.randint(1, 4)
    dims = [rng.randint(0, 2) for _ in range(top + 1)]
    arrows = []
    for _ in range(rng.randint(1, 7)):
        n = rng.randint(1, top)
        arrows.append((n, dims[n], dims[n - 1], rng.randrange(1, m)))
        dims[n] += 1
        dims[n - 1] += 1
    diffs = {n: np.zeros((dims[n], dims[n - 1]), dtype=np.int64) for n in range(1, top + 1)}
    for n, i, j, lam in arrows:
        diffs[n][i, j] = lam
    for _ in range(rng.randint(0, 3 * sum(dims))):
        # new basis e_i + c e_j of C_k: row op on d_k, column op on d_(k+1)
        k = rng.randint(0, top)
        if dims[k] < 2:
            continue
        i, j = rng.sample(range(dims[k]), 2)
        c = rng.randrange(1, m)
        if k in diffs:
            diffs[k][i] = (diffs[k][i] + c * diffs[k][j]) % m
        if k + 1 in diffs:
            diffs[k + 1][:, j] = (diffs[k + 1][:, j] - c * diffs[k + 1][:, i]) % m
    cx = GradedSliceComplex(ring, 0, top, {(n, 0): d for n, d in enumerate(dims)},
                            {(n, 0): d for n, d in diffs.items()})
    cx.validate()
    return cx


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RINGS), st.integers(0, 2 ** 32 - 1))
def test_contracted_homology_matches_reference_on_sparse_complexes(ring, seed):
    assert_complex_matches_reference(_sparse_complex(ring, random.Random(seed)))


def _filtered_complex(ring, rng):
    """A complex with columns that d never lowers: free slots and pieces
    R --lam--> R from a column to a column at least as high, in a new basis
    by elementary changes e_i + c e_j with col(j) >= col(i), which keep
    every F^k (columns >= k) a subcomplex."""
    m = ring.modulus
    top = rng.randint(1, 4)
    ncols = rng.randint(1, 3)
    slots = {n: [rng.randrange(ncols) for _ in range(rng.randint(0, 2))] for n in range(top + 1)}
    arrows = []
    for _ in range(rng.randint(1, 7)):
        n = rng.randint(1, top)
        low = rng.randrange(ncols)
        high = rng.randrange(low, ncols)
        arrows.append((n, len(slots[n]), len(slots[n - 1]), rng.randrange(1, m)))
        slots[n].append(low)
        slots[n - 1].append(high)
    # order each degree by column, as a complex with columns must be
    order = {n: sorted(range(len(c)), key=c.__getitem__) for n, c in slots.items()}
    place = {n: {old: new for new, old in enumerate(o)} for n, o in order.items()}
    cols = {n: np.array(sorted(c), dtype=np.int64) for n, c in slots.items()}
    diffs = {n: np.zeros((len(cols[n]), len(cols[n - 1])), dtype=np.int64) for n in range(1, top + 1)}
    for n, i, j, lam in arrows:
        diffs[n][place[n][i], place[n - 1][j]] = lam
    for _ in range(rng.randint(0, 3 * sum(map(len, cols.values())))):
        k = rng.randint(0, top)
        if len(cols[k]) < 2:
            continue
        i, j = sorted(rng.sample(range(len(cols[k])), 2))  # col(j) >= col(i)
        c = rng.randrange(1, m)
        if k in diffs:
            diffs[k][i] = (diffs[k][i] + c * diffs[k][j]) % m
        if k + 1 in diffs:
            diffs[k + 1][:, j] = (diffs[k + 1][:, j] - c * diffs[k + 1][:, i]) % m
    cx = GradedSliceComplex(ring, 0, top, {(n, 0): len(c) for n, c in cols.items()},
                            {(n, 0): d for n, d in diffs.items()},
                            {(n, 0): c for n, c in cols.items() if len(c)})
    cx.validate()
    for (n, _), d in cx.diffs.items():
        assert (cols[n][d.rows] <= cols[n - 1][d.cols]).all()
    return cx


def _assert_same_contraction(got, want):
    assert got.ring == want.ring and got.dims == want.dims
    assert got.keep.keys() == want.keep.keys()
    for n, keep in want.keep.items():
        assert got.keep[n].dtype == keep.dtype and np.array_equal(got.keep[n], keep)
    assert got.diffs.keys() == want.diffs.keys()
    assert all(got.diffs[n] == d for n, d in want.diffs.items())
    assert got._f_steps == want._f_steps and got._g_steps == want._g_steps


def _without_columns(cx):
    return GradedSliceComplex(cx.ring, cx.n_min, cx.n_max, cx.dims, cx.diffs, trusted=cx.trusted)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_reduce_complex_equals_the_reference(ring):
    """Survivors, contracted differentials and f/g steps equal those of the
    reference contraction, on the random complexes above, and on complexes
    with columns both with and without them."""
    rng = random.Random(23)
    filtered = 0
    for k in range(40):
        cx = (random_complex(ring, rng, 4, 5, weight_choices=(0, 1)) if k % 2
              else _sparse_complex(ring, rng))
        fx = _filtered_complex(ring, rng)
        for c in (cx, fx, _without_columns(fx)):
            for w in c.weights():
                _assert_same_contraction(reduce_complex(c, w), reference_complexes.reduce_complex(c, w))
        filtered += len(set(np.concatenate(list(fx.columns.values())).tolist())) > 1
    assert filtered > 10


@pytest.mark.parametrize("ring", [ModRing(2, 1), ModRing(3, 2)], ids=str)
def test_reduce_complex_equals_the_reference_on_de_rham_complexes(ring):
    from derhamkit.cotangent import AlgebraPresentation

    for f_coeffs in ((0, 1), (0, 0, 1)):
        pres = AlgebraPresentation(ring, "quotient", "x", f_coeffs)
        cx = derham.build_derham(pres, hodge_cut=4, window=(0, 1), weight_bound=4).total
        for c in (cx, _without_columns(cx)):
            for w in c.weights():
                _assert_same_contraction(reduce_complex(c, w), reference_complexes.reduce_complex(c, w))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_slice_homology_is_the_factors_of_homology_quotient(ring):
    rng = random.Random(29)
    for k in range(30):
        cx = (random_complex(ring, rng, 4, 5, weight_choices=(0, 1)) if k % 2
              else _sparse_complex(ring, rng))
        for w in cx.weights():
            for n in cx.degrees():
                got = slice_homology(cx, n, w)
                assert got == homology_quotient(cx, n, w).factors
                assert got == reference_complexes.homology_quotient(cx, n, w).factors
                assert all(type(d) is int for d in got)


def test_z4_times_two_twice_has_homology_two_zero_two():
    # 0 -> Z/4 --2--> Z/4 --2--> Z/4 -> 0: H_2 = ker 2 = 2Z/4, H_1 = 0, H_0 = Z/4 / 2
    ring = ModRing(2, 2)
    cx = GradedSliceComplex(ring, 0, 2, {(0, 0): 1, (1, 0): 1, (2, 0): 1}, {(1, 0): [[2]], (2, 0): [[2]]})
    cx.validate()
    assert [slice_homology(cx, n, 0) for n in range(3)] == [[2], [], [2]]
    assert [homology_quotient(cx, n, 0).factors for n in range(3)] == [[2], [], [2]]


def test_boundaries_outside_the_cycles_raise_through_slice_homology_and_quotient_invariants():
    # Z/8 --2--> Z/8 --2--> Z/8 is no complex (d d = 4): in degree 1 the
    # boundary 2 lies outside the cycles 4 Z/8, and no unit is contracted
    ring = ModRing(2, 3)
    cx = GradedSliceComplex(ring, 0, 2, {(0, 0): 1, (1, 0): 1, (2, 0): 1}, {(1, 0): [[2]], (2, 0): [[2]]})
    with pytest.raises(ValueError, match="boundaries not contained in cycles"):
        slice_homology(cx, 1, 0)
    with pytest.raises(ValueError, match="boundaries not contained in cycles"):
        quotient_invariants([[4]], [[2]], ring)


def test_pivot_row_with_a_longer_row_below():
    # d_2(b) = a + a2 is shorter than d_1(a) = c1 + c2 + c3, so (b, a) is
    # cancelled first and row a of d_1 must leave with it: H_1 = 0, H_0 = F_2^2
    ring = ModRing(2, 1)
    cx = GradedSliceComplex(ring, 0, 2, {(0, 0): 3, (1, 0): 2, (2, 0): 1},
                            {(2, 0): np.array([[1, 1]]), (1, 0): np.array([[1, 1, 1], [1, 1, 1]])})
    cx.validate()
    assert [homology_quotient(cx, n, 0).factors for n in range(3)] == [[2, 2], [], []]
    assert_complex_matches_reference(cx)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_reduction_maps_are_inverse_chain_maps(ring):
    m = ring.modulus
    rng = np.random.default_rng(ring.modulus)
    for seed in range(8):
        cx = random_complex(ring, random.Random(seed), 4, 5, weight_choices=(0, 1))
        for w in cx.weights():
            red = reduce_complex(cx, w)
            for n in cx.degrees():
                dim, small = cx.dim(n, w), red.dim(n)
                # f g = id on the contracted complex
                eye = np.eye(small, dtype=np.int64)
                assert (red.project(n, red.lift(n, eye)) == eye).all()
                if not dim or not cx.dim(n - 1, w):
                    continue
                d, d_small = cx.diff(n, w), red.diff(n)
                assert d_small.shape == (small, red.dim(n - 1))
                # f and g commute with the differentials
                v = rng.integers(0, m, size=(3, dim))
                assert (red.project(n - 1, mmul(v, d, ring))
                        == mmul(red.project(n, v), d_small, ring)).all()
                u = rng.integers(0, m, size=(3, small))
                assert (mmul(red.lift(n, u), d, ring)
                        == red.lift(n - 1, mmul(u, d_small, ring))).all()
                # no unit entry is left
                assert not (d_small % ring.p).any()


def _assert_quotients_equal(got, want, vectors):
    assert got.ring == want.ring and got.ambient_dim == want.ambient_dim
    assert got._to_contracted is None and want._to_contracted is None
    for name in ("factors", "_all_factors"):
        a, b = getattr(got, name), getattr(want, name)
        assert a == b and [type(x) for x in a] == [type(x) for x in b], name
    for name in ("cycles", "gen_reps", "_vmat"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
    for v in vectors:
        assert got.coords(v) == want.coords(v)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_contracted_quotients_equal_the_reference_in_every_field(ring):
    """``Contraction.quotient`` against the reference quotient of the same
    contracted complex, with and without the short cut for d_n = d_(n+1) = 0."""
    m = ring.modulus
    rng, draw = random.Random(11), np.random.default_rng(11)
    free = other = 0
    for k in range(30):
        cx = (random_complex(ring, rng, 4, 5, weight_choices=(0, 1)) if k % 2
              else _sparse_complex(ring, rng))
        for w in cx.weights():
            red = reduce_complex(cx, w)
            small = GradedSliceComplex(ring, cx.n_min, cx.n_max, {(n, 0): red.dim(n) for n in cx.degrees()},
                                       {(n, 0): d for n, d in red.diffs.items()})
            for n in cx.degrees():
                got, want = red.quotient(n), reference_complexes.homology_quotient(small, n, 0)
                dim = red.dim(n)
                cycles = mmul(draw.integers(0, m, (4, want.cycles.shape[0])), want.cycles, ring) if dim else []
                vectors = [*cycles, *red.diff(n + 1), *draw.integers(0, m, (4, dim))]
                _assert_quotients_equal(got, want, vectors)
                if dim and n not in red.diffs and n + 1 not in red.diffs:
                    free += 1
                    arrays = (got.cycles, got.gen_reps, got._vmat)
                    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])
                    assert got.factors is not got._all_factors
                elif dim:
                    other += 1
    # over F_p no contracted differential is left, so every slice takes the short cut
    assert free > 0 and (other == 0) == (ring.n == 1)


def test_contraction_is_made_once_per_weight():
    ring = ModRing(3, 2)
    cx = random_complex(ring, random.Random(5), 4, 5, weight_choices=(0, 1))
    for w in cx.weights():
        homology_quotient(cx, 0, w)
        first = cx._contractions[w]
        for n in cx.degrees():
            homology_quotient(cx, n, w)
        assert cx._contractions[w] is first


@pytest.mark.parametrize("ring", [ModRing(2, 1), ModRing(3, 2)], ids=str)
@pytest.mark.parametrize("f_coeffs", [(0, 1), (0, 0, 1)], ids=["x", "x^2"])
def test_a_contraction_with_columns_keeps_every_filtration_step(ring, f_coeffs):
    """On a de Rham total complex, whose columns are the Hodge columns, the
    contracted d never lowers the column and has no unit inside a column,
    and f and g send the columns >= k into the columns >= k."""
    from derhamkit.cotangent import AlgebraPresentation

    pres = AlgebraPresentation(ring, "quotient", "x", f_coeffs)
    cx = derham.build_derham(pres, hodge_cut=6, window=(0, 1), weight_bound=5).total
    draw = np.random.default_rng(7)
    for w in cx.weights():
        red = cx.contraction(w)
        cols = {n: cx.columns[(n, w)] for n in red.dims}
        small = {n: cols[n][red.keep[n]] for n in red.dims}
        for n, d in red.diffs.items():
            below, above = small[n][d.rows], small[n - 1][d.cols]
            assert (below <= above).all() and not (d.vals[below == above] % ring.p).any()
        for n in red.dims:
            for k in range(cols[n][-1] + 1):
                v = draw.integers(0, ring.modulus, (3, len(cols[n]))) * (cols[n] >= k)
                assert not red.project(n, v)[:, small[n] < k].any()
                u = draw.integers(0, ring.modulus, (3, len(small[n]))) * (small[n] >= k)
                assert not red.lift(n, u)[:, cols[n] < k].any()


def test_coords_rejects_non_cycles():
    ring = ModRing(2, 2)
    # 0 -> R --1--> R -> 0: contracts to nothing; only 0 is a degree-1 cycle
    cx = GradedSliceComplex(ring, 0, 1, {(0, 0): 1, (1, 0): 1}, {(1, 0): np.array([[1]])})
    q = homology_quotient(cx, 1, 0)
    assert q.factors == [] and q.gen_reps.shape == (0, 1)
    assert q.coords(np.array([0])) == ()
    assert q.coords(np.array([2])) is None
    assert q.coords(np.array([1])) is None


# Suites at reduced parameters, with every homology_quotient and
# slice_homology call checked against the reference as it happens.
SUITE_CALLS = [
    ("drpd-modp", {"weight_bound": 3}),
    ("drpd-envelope", {"weight_bound": 3}),
    ("universal-thickening", {}),
    ("cotangent-regular", {}),
    ("koszul-gamma", {"cases": 5}),
    ("quillen-shift", {"power": 2}),
    ("dold-kan-roundtrip", {"cases": 5, "max_degree": 3, "max_rank": 3}),
    ("eilenberg-zilber", {"cases": 2}),
]


@pytest.mark.parametrize("name,params", SUITE_CALLS, ids=[c[0] for c in SUITE_CALLS])
def test_suite_slices_match_reference(monkeypatch, name, params):
    seen = []

    def checked(cx, n, w):
        assert_slice_matches_reference(cx, n, w)
        seen.append((n, w))
        return homology_quotient(cx, n, w)

    def checked_factors(cx, n, w):
        got = honest_factors(cx, n, w)
        assert_slice_matches_reference(cx, n, w)
        assert got == reference_complexes.homology_quotient(cx, n, w).factors
        seen.append((n, w))
        return got

    honest_factors = complexes.slice_homology
    monkeypatch.setattr(complexes, "homology_quotient", checked)
    monkeypatch.setattr(derham, "homology_quotient", checked)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("derhamkit") and getattr(module, "slice_homology", None) is honest_factors:
            monkeypatch.setattr(module, "slice_homology", checked_factors)
    report = run_suite(name, params, seed=1)
    assert report.summary["fail"] == 0
    assert seen
