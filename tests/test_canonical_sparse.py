"""Sparse matrices that the library builds canonical are trusted as built.

``as_sparse`` returns a matrix unchanged when a routine marked it canonical
at the modulus asked for (``exactlin.canonical``).  The producers that mark
their results are ``as_sparse`` itself, ``sparse_product``,
``BisimplicialModule._build`` (every Kan operator of a module, in one pass),
``simplex._face_blocks`` (the faces of every slice of a module, in one
pass) and the re-sliced functor images of
``pdpow.apply_functor_to_module``.  The tests here check that every result
of the last three is canonical (``test_exactlin`` checks the products), that
anything else (a directly built triple, a ``_replace``, another modulus) is
still checked, reduced, sorted and summed, and that the suites
re-canonicalise no trusted matrix.
"""

import sys

import numpy as np
import pytest
from test_simplex import _kan_inputs, eilenberg_zilber_double_complexes

from derhamkit import exactlin, pdpow, simplex
from derhamkit.complexes import DoubleComplex, GradedSliceComplex
from derhamkit.exactlin import ModRing, SparseMatrix, as_sparse, howell_form, left_kernel
from derhamkit.simplex import BisimplicialModule, SimplicialModule, diagonal, double_kan, kan_transform
from derhamkit.suites import run_suite


def assert_canonical(x, m):
    """``x`` is canonical mod m: the full canonicalisation of its plain
    triples gives it back, and ``as_sparse`` returns it as it is."""
    assert (type(x) is not SparseMatrix and as_sparse(SparseMatrix(*x), m) == x
            and as_sparse(x, m) is x), (x, m)


def _ops(b: BisimplicialModule, p: int, q: int, w: int):
    """Every face and degeneracy of ``b`` leaving (p, q) at weight w: "h"
    and "v" anywhere in the window and the diagonal "hv" where p == q."""
    for face in (True, False):
        for directions, top in (("h", p), ("v", q), ("hv", p if p == q else -1)):
            for i in range(top + 1):
                yield b._operator(p, q, i, w, face, directions)


def test_every_operator_of_the_seed_1_kan_transforms_is_canonical(monkeypatch):
    built = []
    honest = BisimplicialModule._build

    def recorded(self, *args):
        out = honest(self, *args)
        built.extend((op, self.ring.modulus) for op in out.values())
        return out

    monkeypatch.setattr(BisimplicialModule, "_build", recorded)
    for c in _kan_inputs(1):
        x = kan_transform(c, d_max=c.n_max + 1)
        assert all(x.degens[key] is not None for key in x.degens)
    assert len(built) > 50
    for out, m in built:
        assert_canonical(out, m)


def test_every_operator_of_the_eilenberg_zilber_double_kan_transforms_is_canonical():
    count = 0
    for dc in eilenberg_zilber_double_complexes(seed=1):
        b = double_kan(dc, 3, 3)
        for w in b.weights():
            for p in range(4):
                for q in range(4):
                    for out in _ops(b, p, q, w):
                        assert_canonical(out, b.ring.modulus)
                        count += out.vals.size > 0
    assert count > 1000


def _stacking_inputs():
    for c in _kan_inputs(1):
        yield kan_transform(c, d_max=c.n_max + 1)
    for dc in eilenberg_zilber_double_complexes(seed=1, cases=3):
        yield diagonal(double_kan(dc, 3, 3))


def _face_blocks(x):
    """``simplex._face_blocks`` on the slices of ``x`` as ``normalized_complex``
    lays them out, with those slices and their row offsets."""
    slices = [(n, w) for w in x.weights() for n in range(x.d_max + 1) if x.dim(n, w)]
    sizes = np.array([x.dim(n, w) for n, w in slices], dtype=np.int64)
    offsets = sizes.cumsum() - sizes
    return simplex._face_blocks(x, slices), slices, offsets.tolist()


def _block(a, rows, cols, m):
    """The block of ``a``, canonical mod m, on the row and column ranges, as
    a canonical triple; an entry of those rows outside the columns fails."""
    lo, hi = a.rows.searchsorted(rows)
    assert ((a.cols[lo:hi] >= cols[0]) & (a.cols[lo:hi] < cols[1])).all(), (rows, cols)
    return as_sparse(SparseMatrix(a.rows[lo:hi] - rows[0], a.cols[lo:hi] - cols[0], a.vals[lo:hi],
                                  (rows[1] - rows[0], cols[1] - cols[0])), m)


def test_the_stacked_faces_are_canonical():
    count = 0
    for x in _stacking_inputs():
        m = x.ring.modulus
        stacked, slices, offsets = _face_blocks(x)
        assert_canonical(stacked, m)
        start = 0  # the first column of the block of each slice
        for (n, w), row in zip(slices, offsets):
            rows, below = (row, row + x.dim(n, w)), x.dim(n - 1, w)
            width = n * below
            want = np.hstack([x.face(n, i, w) for i in range(n)]) if width else np.zeros((rows[1] - rows[0], 0))
            assert _block(stacked, rows, (start, start + width), m) == as_sparse(want, m), (n, w)
            start += width
            count += stacked.rows.searchsorted(rows[1]) > stacked.rows.searchsorted(rows[0])
        assert stacked.shape == (offsets[-1] + x.dim(*slices[-1]), start)
    assert count > 10


def test_a_block_column_offset_off_by_one_fails_the_stacked_faces_test(monkeypatch):
    honest = simplex._face_blocks

    def shifted(x, slices):
        stacked = honest(x, slices)
        # the entries of the rows of the second slice with entries move one column right
        rows = np.unique(stacked.rows)
        sizes = np.array([x.dim(n, w) for n, w in slices], dtype=np.int64)
        starts = sizes.cumsum() - sizes
        k = np.unique(starts.searchsorted(rows, side="right") - 1)[1]
        lo, hi = stacked.rows.searchsorted([starts[k], starts[k] + x.dim(*slices[k])])
        cols = stacked.cols.copy()
        cols[lo:hi] += 1
        shape = (stacked.shape[0], max(stacked.shape[1], int(cols.max()) + 1))
        return exactlin.canonical(stacked.rows, cols, stacked.vals, shape, x.ring.modulus)

    monkeypatch.setattr(simplex, "_face_blocks", shifted)
    with pytest.raises(AssertionError):
        test_the_stacked_faces_are_canonical()


def _resliced(monkeypatch):
    """Record every triple ``apply_functor_to_module`` marks canonical."""
    built = []
    honest = pdpow.canonical

    def recorded(*args):
        built.append((honest(*args), args[-1]))
        return built[-1][0]

    monkeypatch.setattr(pdpow, "canonical", recorded)
    return built


def test_every_resliced_functor_image_is_canonical(monkeypatch):
    built = _resliced(monkeypatch)
    made = []
    honest = pdpow.apply_functor_to_module
    monkeypatch.setattr(pdpow, "apply_functor_to_module", lambda *args: made.append(honest(*args)) or made[-1])
    assert run_suite("quillen-shift", {"power": 3}, seed=1).summary["fail"] == 0
    for fx in made:  # the degeneracies, which the suite does not read, are built on read
        assert all(fx.degens[key] is not None for key in fx.degens)
    assert len(built) == 216
    for c in _kan_inputs(1):  # several weights, and Gamma as well as the wedge
        for functor in ("gamma", "wedge"):
            fx = honest(kan_transform(c, d_max=3), functor, 2)
            assert all(fx.degens[key] is not None for key in fx.degens)
    assert len(built) > 300
    for out, m in built:
        assert_canonical(out, m)


def _shuffled(dense, m, rng):
    """``dense`` as plain triples in a random order, each nonzero entry
    split over two positions, with unreduced values."""
    r, c = np.nonzero(dense % m)
    extra = rng.integers(-3, 4, size=r.size) * m + rng.integers(0, m, size=r.size)
    rows, cols = np.concatenate([r, r]), np.concatenate([c, c])
    vals = np.concatenate([dense[r, c] - extra, extra])
    order = rng.permutation(rows.size)
    return SparseMatrix(rows[order], cols[order], vals[order], dense.shape)


def test_a_directly_built_or_replaced_matrix_is_canonicalised():
    rng = np.random.default_rng(5)
    dense = np.array([[0, 4, 7], [3, 0, 0], [0, 0, 8]])
    x = as_sparse(dense, 9)
    assert_canonical(x, 9)
    plain = SparseMatrix(*x)
    assert as_sparse(plain, 9) is not plain and as_sparse(plain, 9) == x
    shuffled = _shuffled(dense, 9, rng)
    assert as_sparse(shuffled, 9) == x
    # a _replace is plain triples again, whatever it holds
    for vals, dense_vals in ((x.vals + 9, dense), (x.vals * 3, dense * 3)):
        replaced = x._replace(vals=vals)
        assert as_sparse(replaced, 9) is not replaced
        assert as_sparse(replaced, 9) == as_sparse(dense_vals, 9)
    with pytest.raises(ValueError, match="outside the 2 x 3 matrix"):
        as_sparse(x._replace(shape=(2, 3)), 9)


def test_a_matrix_canonical_mod_9_is_reduced_for_a_mod_3_consumer():
    dense = np.array([[3, 1, 6], [0, 3, 0], [4, 0, 3], [6, 3, 2]])
    x = as_sparse(dense, 9)
    assert_canonical(x, 9)
    f3 = ModRing(3, 1)
    assert as_sparse(x, 3) == as_sparse(dense % 3, 3) and as_sparse(x, 3).vals.size == 3
    assert left_kernel(x, f3).tolist() == left_kernel(dense % 3, f3).tolist() == [[0, 1, 0, 0]]
    assert np.array_equal(howell_form(x, f3), howell_form(dense % 3, f3))


def test_every_container_canonicalises_shuffled_triples_with_repeated_positions():
    ring = ModRing(3, 2)
    rng = np.random.default_rng(7)
    d = np.array([[1, 8], [3, 0]])
    want = as_sparse(d, 9)
    x = SimplicialModule(ring, 1, {(0, 0): 2, (1, 0): 2}, {(1, 0, 0): _shuffled(d, 9, rng)},
                         {(0, 0, 0): _shuffled(d, 9, rng)})
    cx = GradedSliceComplex(ring, 0, 1, {(0, 0): 2, (1, 0): 2}, {(1, 0): _shuffled(d, 9, rng)})
    dc = DoubleComplex(ring, {(0, 0, 0): 2, (1, 0, 0): 2, (0, 1, 0): 2},
                       {(1, 0, 0): _shuffled(d, 9, rng)}, {(0, 1, 0): _shuffled(d, 9, rng)})
    for got in (x.faces[(1, 0, 0)], x.degens[(0, 0, 0)], cx.diffs[(1, 0)], dc.horiz[(1, 0, 0)],
                dc.vert[(0, 1, 0)]):
        assert got == want
        assert_canonical(got, 9)


def _patch_everywhere(monkeypatch, name, replacement):
    """Replace ``name`` in every loaded derhamkit module that holds the
    library's object of that name, as the benchmark's tracer does."""
    original = getattr(exactlin, name)
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "derhamkit" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def _count_recanonicalised(monkeypatch, calls):
    """For each trusted producer, (as_sparse calls that got a matrix it
    returned canonical at the same modulus, those of them that built a new
    matrix from it rather than return it) over the suite ``calls``."""
    built = {}  # id -> (matrix, modulus, producer) for every result of a trusted producer
    counts = {}

    def keep(out, m, producer):
        built[id(out)] = (out, m, producer)
        return out

    honest_as_sparse, honest_product = exactlin.as_sparse, exactlin.sparse_product
    honest_build, honest_stacked = BisimplicialModule._build, simplex._face_blocks
    honest_canonical = pdpow.canonical

    def counted_as_sparse(matrix, m):
        out = honest_as_sparse(matrix, m)
        trusted = built.get(id(matrix))
        if trusted is not None and trusted[0] is matrix and trusted[1] == m:
            seen = counts.setdefault(trusted[2], [0, 0])
            seen[0] += 1
            seen[1] += out is not matrix
        return keep(out, m, "as_sparse")

    def counted_build(self, *args):
        out = honest_build(self, *args)
        for op in out.values():
            keep(op, self.ring.modulus, "_build")
        return out

    _patch_everywhere(monkeypatch, "as_sparse", counted_as_sparse)
    _patch_everywhere(monkeypatch, "sparse_product", lambda a, b, m: keep(honest_product(a, b, m), m, "sparse_product"))
    monkeypatch.setattr(BisimplicialModule, "_build", counted_build)
    monkeypatch.setattr(simplex, "_face_blocks",
                        lambda x, slices: keep(honest_stacked(x, slices), x.ring.modulus, "_face_blocks"))
    monkeypatch.setattr(pdpow, "canonical", lambda *args: keep(honest_canonical(*args), args[-1], "resliced"))
    for name, params in calls:
        assert run_suite(name, params, seed=1).summary["fail"] == 0
    return {producer: tuple(seen) for producer, seen in counts.items()}


def test_the_simplicial_suites_recanonicalise_no_trusted_matrix(monkeypatch):
    counts = _count_recanonicalised(monkeypatch, [
        ("dold-kan-roundtrip", {"cases": 5, "max_degree": 5, "max_rank": 3}),
        ("eilenberg-zilber", {"cases": 2}),
        ("quillen-shift", {"power": 3}),
    ])
    assert sum(seen for seen, _ in counts.values()) > 1000
    assert counts["_build"][0] > 500 and counts["resliced"][0] > 100
    assert all(redone == 0 for _, redone in counts.values()), counts
