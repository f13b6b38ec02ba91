"""Dold-Kan machinery, monotone maps, bisimplicial diagonals, shuffles."""

import functools
import random
import re

import numpy as np
import pytest
import reference_simplex
from memory import run_cli, traced_peak
from reference_simplex import MonotoneMap, epi_mono_factorize, kan_block, monotone_surjections
from test_complexes import OUTSIDE_A_2_BY_2_SLICE, OUTSIDE_IDS

from derhamkit.complexes import (
    DoubleComplex,
    GradedSliceComplex,
    slice_homology,
    total_complex,
)
from derhamkit import simplex
from derhamkit.exactlin import ModRing, as_sparse, mmul
from derhamkit.randomgen import random_complex
from derhamkit.suites import run_suite
from derhamkit.simplex import (
    SimplicialModule,
    diagonal,
    double_kan,
    kan_transform,
    normalized_complex,
    shuffles,
    unnormalized_complex,
)


def test_epi_mono_factorize_examples():
    alpha = MonotoneMap(2, 2, (0, 0, 2))
    epi, mono = epi_mono_factorize(alpha)
    assert epi.values == (0, 0, 1) and epi.target == 1
    assert mono.values == (0, 2)

    ident = MonotoneMap(3, 3, (0, 1, 2, 3))
    epi, mono = epi_mono_factorize(ident)
    assert epi.is_identity and mono.is_identity

    face = MonotoneMap.face(4, 2)
    epi, mono = epi_mono_factorize(face)
    assert epi.is_identity and mono.values == face.values



def test_epi_mono_factorize_roundtrip_random():
    # alpha = mono o epi with epi onto and mono injective, for every shape
    rng = random.Random(2)
    for _ in range(200):
        m = rng.randint(0, 4)
        n = rng.randint(0, 4)
        alpha = MonotoneMap(m, n, tuple(sorted(rng.randint(0, n) for _ in range(m + 1))))
        epi, mono = epi_mono_factorize(alpha)
        assert mono.compose(epi) == alpha
        assert set(epi.values) == set(range(epi.target + 1))
        assert len(set(mono.values)) == mono.source + 1


def test_monotone_surjection_counts():
    # binomial(n, p) monotone surjections [n] ->> [p]
    from math import comb

    for n in range(6):
        for p in range(n + 1):
            assert len(monotone_surjections(n, p)) == comb(n, p)


def constant_module(ring, rank, d_max):
    c = GradedSliceComplex(ring, 0, 0, {(0, 0): rank}, {})
    return kan_transform(c, d_max=d_max)


def test_constant_simplicial_module():
    ring = ModRing(2, 3)
    x = constant_module(ring, 1, 4)
    x.validate()
    assert all(x.dim(n, 0) == 1 for n in range(5))
    n = normalized_complex(x)
    assert n.dim(0, 0) == 1 and all(n.dim(k, 0) == 0 for k in range(1, 5))
    c = unnormalized_complex(x)
    # alternating identities: ... -> B -> B -> B with 0, id, 0, id
    assert slice_homology(c, 0, 0) == [8]
    for k in range(1, 4):
        assert slice_homology(c, k, 0) == []


def test_kan_transform_of_shifted_module():
    # C = F_2 in degree 1: K(C)_n has rank n (count of surjections [n]->[1])
    ring = ModRing(2, 1)
    c = GradedSliceComplex(ring, 0, 1, {(1, 0): 1}, {})
    x = kan_transform(c, d_max=4)
    x.validate()
    assert [x.dim(n, 0) for n in range(5)] == [0, 1, 2, 3, 4]


def test_dold_kan_roundtrip_exact():
    rng = random.Random(42)
    for ring in (ModRing(2, 2), ModRing(3, 2), ModRing(5, 1)):
        for _ in range(8):
            c = random_complex(ring, rng, max_degree=4, max_rank=3, weight_choices=(0, 1))
            x = kan_transform(c, d_max=c.n_max + 1)
            x.validate()
            n = normalized_complex(x)
            # literal equality in the stored window of c
            for (deg, w), d in c.dims.items():
                assert n.dim(deg, w) == d
            for key in set(c.diffs) | {k for k in n.diffs if k[0] <= c.n_max}:
                assert (n.diff(*key) == c.diff(*key)).all()


def test_normalized_vs_unnormalized_homology():
    rng = random.Random(9)
    ring = ModRing(2, 2)
    for _ in range(5):
        c = random_complex(ring, rng, max_degree=3, max_rank=2)
        x = kan_transform(c, d_max=4)
        n = normalized_complex(x)
        u = unnormalized_complex(x)
        for deg in range(4):
            for w in set(n.weights()) | set(u.weights()):
                assert slice_homology(n, deg, w) == slice_homology(u, deg, w)


def test_homotopy_invariance_of_knk():
    # homology of N(X) equals homology of N(K(N(X)))
    rng = random.Random(11)
    ring = ModRing(3, 1)
    c = random_complex(ring, rng, max_degree=3, max_rank=2)
    x = kan_transform(c, d_max=4)
    n1 = normalized_complex(x)
    n2 = normalized_complex(kan_transform(n1, d_max=4))
    for deg in range(4):
        for w in set(n1.weights()) | set(n2.weights()):
            assert slice_homology(n1, deg, w) == slice_homology(n2, deg, w)


def tensor_double_complex(c1, c2, ring):
    """D_{p,q,w} = sum over u + v = w of C1_{p,u} (x) C2_{q,v}, d_h = d (x) 1, d_v = 1 (x) d."""
    m = ring.modulus
    terms = {}
    parts = {}  # (p, q, w) -> {(u, v): offset}
    for p in c1.degrees():
        for q in c2.degrees():
            for u in c1.weights():
                for v in c2.weights():
                    d1, d2 = c1.dim(p, u), c2.dim(q, v)
                    if d1 and d2:
                        key = (p, q, u + v)
                        parts.setdefault(key, {})[(u, v)] = terms.get(key, 0)
                        terms[key] = terms.get(key, 0) + d1 * d2
    horiz = {}
    vert = {}
    for (p, q, w), offsets in parts.items():
        for target, table, step in (((p - 1, q, w), horiz, 0), ((p, q - 1, w), vert, 1)):
            if target not in terms:
                continue
            mat = np.zeros((terms[(p, q, w)], terms[target]), dtype=np.int64)
            for (u, v), off in offsets.items():
                off2 = parts[target].get((u, v))
                if off2 is None:
                    continue
                if step == 0:
                    blk = np.kron(c1.diff(p, u), np.eye(c2.dim(q, v), dtype=np.int64))
                else:
                    blk = np.kron(np.eye(c1.dim(p, u), dtype=np.int64), c2.diff(q, v))
                mat[off : off + blk.shape[0], off2 : off2 + blk.shape[1]] = blk
            table[(p, q, w)] = mat % m
    return DoubleComplex(ring, terms, horiz, vert)


def eilenberg_zilber_double_complexes(seed=1, cases=10):
    """The double complexes the ``eilenberg-zilber`` suite draws at its defaults."""
    rng = random.Random(seed)
    ring = ModRing(2, 2)
    out = []
    while len(out) < cases:
        c1 = random_complex(ring, rng, 2, 2)
        c2 = random_complex(ring, rng, 2, 2)
        if c1.dims and c2.dims:
            out.append(tensor_double_complex(c1, c2, ring))
    return out


def test_eilenberg_zilber_small():
    rng = random.Random(5)
    ring = ModRing(2, 2)
    for _ in range(3):
        c1 = random_complex(ring, rng, max_degree=2, max_rank=2)
        c2 = random_complex(ring, rng, max_degree=2, max_rank=2)
        if not (c1.dims and c2.dims):
            continue
        dc = tensor_double_complex(c1, c2, ring)
        x = double_kan(dc, p_max=4, q_max=4)
        x.validate()
        diag = diagonal(x)
        diag.validate()
        n = normalized_complex(diag)
        tot = total_complex(dc)
        for deg in range(4):
            for w in set(n.weights()) | set(tot.weights()):
                lhs = slice_homology(n, deg, w)
                rhs = slice_homology(tot, deg, w) if tot.n_min <= deg <= tot.n_max else []
                assert lhs == rhs


@pytest.mark.parametrize("seed", range(6))
def test_double_kan_matches_kan_transform_on_a_row_and_a_column(seed):
    rng = random.Random(seed)
    ring = (ModRing(2, 2), ModRing(3, 1))[seed % 2]
    c = random_complex(ring, rng, max_degree=3, max_rank=3, weight_choices=(0, 1))
    d_max = c.n_max + 1
    k = kan_transform(c, d_max=d_max)
    row = double_kan(DoubleComplex(ring, {(p, 0, w): d for (p, w), d in c.dims.items()},
                                   {(p, 0, w): c.diff(p, w) for (p, w) in c.diffs}, {}),
                     d_max, 0)
    col = double_kan(DoubleComplex(ring, {(0, q, w): d for (q, w), d in c.dims.items()},
                                   {}, {(0, q, w): c.diff(q, w) for (q, w) in c.diffs}),
                     0, d_max)
    assert row.dims == {(n, 0, w): d for (n, w), d in k.dims.items()}
    assert col.dims == {(0, n, w): d for (n, w), d in k.dims.items()}
    # every face, also the zero ones that k does not store
    for (n, i, w) in [(n, i, w) for w in c.weights() for n in range(1, d_max + 1) for i in range(n + 1)]:
        assert np.array_equal(row._operator(n, 0, i, w, True, "h").dense(), k.face(n, i, w))
        assert np.array_equal(col._operator(0, n, i, w, True, "v").dense(), k.face(n, i, w))
    for (n, i, w) in k.degens:
        assert np.array_equal(row._operator(n, 0, i, w, False, "h").dense(), k.degen(n, i, w))
        assert np.array_equal(col._operator(0, n, i, w, False, "v").dense(), k.degen(n, i, w))


def test_diagonal_trivial_cases():
    ring = ModRing(2, 1)
    zero = DoubleComplex(ring, {}, {}, {})
    x = double_kan(zero, 2, 2)
    assert not x.dims
    const = DoubleComplex(ring, {(0, 0, 0): 1}, {}, {})
    d = diagonal(double_kan(const, 3, 3))
    d.validate()
    assert all(d.dim(n, 0) == 1 for n in range(4))


def _random_double_complexes(seed):
    """Seeded double complexes: single- and multi-weight, with empty summands."""
    rng = random.Random(seed)
    ring = (ModRing(2, 2), ModRing(3, 1), ModRing(3, 2))[seed % 3]
    weights = ((0,), (0, 1))[seed % 2]
    c1 = random_complex(ring, rng, max_degree=2, max_rank=2, weight_choices=weights)
    c2 = random_complex(ring, rng, max_degree=2, max_rank=2, weight_choices=weights)
    # degrees 0 and 2 only: every D_{1,q} is an empty summand
    gap = GradedSliceComplex(ring, 0, 2, {(0, 0): 1, (2, 0): 2}, {})
    return [tensor_double_complex(c1, c2, ring), tensor_double_complex(gap, c2, ring),
            tensor_double_complex(c1, gap, ring), DoubleComplex(ring, {}, {}, {})]


@pytest.mark.parametrize("seed", range(6))
def test_bisimplicial_maps_equal_the_eager_reference(seed):
    for dc in _random_double_complexes(seed):
        weights = sorted({w for (_, _, w) in dc.terms}) + [7]
        for p_max, q_max in ((4, 4), (3, 1), (0, 2)):
            x = double_kan(dc, p_max, q_max)
            ref = reference_simplex.double_kan(dc, p_max, q_max)
            assert x.dims == ref.dims
            # one step past the window on each side, where both give zero maps
            for m in range(-1, p_max + 2):
                for n in range(-1, q_max + 2):
                    for w in weights:
                        for i in range(-1, max(m, n) + 2):
                            for name, face, direction in (("hface", True, "h"), ("vface", True, "v"),
                                                          ("hdegen", False, "h"), ("vdegen", False, "v")):
                                got = x._operator(m, n, i, w, face, direction).dense()
                                want = getattr(ref, name)(m, n, i, w)
                                assert got.shape == want.shape and got.dtype == want.dtype
                                assert (got == want).all(), (name, m, n, i, w)


def test_multi_weight_inputs_reach_several_weights():
    dcs = [_random_double_complexes(seed)[0] for seed in range(1, 6, 2)]
    assert any(len({w for (_, _, w) in dc.terms}) > 1 for dc in dcs)


def test_diagonal_equals_the_eager_reference_on_the_eilenberg_zilber_cases():
    for dc in eilenberg_zilber_double_complexes(seed=1):
        x = double_kan(dc, 5, 5)
        got = diagonal(x)
        ref = reference_simplex.double_kan(dc, 5, 5)
        assert got.dims == {(n, w): ref.dim(n, n, w) for (n, n2, w) in ref.dims if n == n2}
        faces = {(n, i, w) for n in range(1, 6) for i in range(n + 1) for w in ref.weights()}
        assert got.degens.keys() == {(n, i, w) for n in range(5) for i in range(n + 1) for w in ref.weights()}
        nonzero = set()
        for (n, i, w) in faces:
            face = got.face(n, i, w)
            want = mmul(ref.vface(n, n, i, w), ref.hface(n, n - 1, i, w), dc.ring)
            assert face.shape == want.shape and (face == want).all()
            if want.any():
                nonzero.add((n, i, w))
        assert got.faces.keys() == nonzero  # a zero face is not stored
        for (n, i, w) in got.degens:
            degen = got.degen(n, i, w)
            want = mmul(ref.vdegen(n, n, i, w), ref.hdegen(n, n + 1, i, w), dc.ring)
            assert degen.shape == want.shape and (degen == want).all()


def test_validate_catches_one_vertical_block_with_the_wrong_sign():
    ring = ModRing(3, 1)
    c = GradedSliceComplex(ring, 0, 1, {(0, 0): 1, (1, 0): 1}, {(1, 0): np.array([[1]])})
    double_kan(tensor_double_complex(c, c, ring), 2, 2).validate()
    dc = tensor_double_complex(c, c, ring)
    x = double_kan(dc, 2, 2)  # no map is built yet, so x reads the flipped block
    # -d_v(1, 1) still squares to zero but no longer commutes with d_h
    d = dc.vert[(1, 1, 0)]
    dc.vert[(1, 1, 0)] = d._replace(vals=-d.vals % ring.modulus)
    with pytest.raises(ValueError, match="do not commute"):
        double_kan(dc, 2, 2)
    with pytest.raises(ValueError, match="h/v faces do not commute"):
        x.validate()


def _largest_eilenberg_zilber_case():
    return max(eilenberg_zilber_double_complexes(seed=1), key=lambda d: sum(d.terms.values()))


def test_diagonal_of_the_largest_eilenberg_zilber_case_peaks_below_64_mb():
    dc = _largest_eilenberg_zilber_case()
    diag, _, peak = traced_peak(lambda: diagonal(double_kan(dc, 5, 5)))
    assert diag.dim(5, 0) == 810
    assert peak < 64 * 2 ** 20


def test_the_largest_eilenberg_zilber_diagonal_holds_below_4_mib_once_built():
    dc = _largest_eilenberg_zilber_case()
    diag, held, _ = traced_peak(lambda: diagonal(double_kan(dc, 5, 5)))
    assert diag.dim(5, 0) == 810
    assert held < 4 * 2 ** 20


def test_normalized_complex_of_the_largest_eilenberg_zilber_diagonal_peaks_below_32_mb():
    diag = diagonal(double_kan(_largest_eilenberg_zilber_case(), 5, 5))
    n, _, peak = traced_peak(lambda: normalized_complex(diag))
    assert diag.dim(5, 0) == 810 and n.dims
    assert peak < 32 * 2 ** 20


def test_normalized_complex_of_the_largest_eilenberg_zilber_diagonal_peaks_below_4_mib():
    # the stacked faces reach block_left_kernels as triples, and most rows are peeled
    diag = diagonal(double_kan(_largest_eilenberg_zilber_case(), 5, 5))
    n, _, peak = traced_peak(lambda: normalized_complex(diag))
    assert diag.dim(5, 0) == 810 and n.dims
    assert peak < 4 * 2 ** 20


def test_normalized_complex_of_the_largest_eilenberg_zilber_diagonal_peaks_below_0_4_mib():
    # measured at 0.35 MiB with every slice in one batch: the faces are
    # merged by a counting sort, not a global sort, and each kernel basis is
    # made dense block by block
    diag = diagonal(double_kan(_largest_eilenberg_zilber_case(), 5, 5))
    n, _, peak = traced_peak(lambda: normalized_complex(diag))
    assert diag.dim(5, 0) == 810 and n.dims
    assert peak < 0.4 * 2 ** 20


def test_the_eilenberg_zilber_suite_peaks_below_8_mib():
    from derhamkit.suites import run_suite

    report, _, peak = traced_peak(lambda: run_suite("eilenberg-zilber", {"cases": 10}, seed=1))
    assert report.summary["fail"] == 0 and len(report.cases) == 10
    assert peak < 8 * 2 ** 20


def test_verify_eilenberg_zilber_stays_below_45_mb_of_child_rss():
    run = run_cli("verify", "eilenberg-zilber", "--cases", "10", "--seed", "1")
    assert run.returncode == 0 and " 0 fail," in run.out, run.out
    assert run.peak_mb < 45, f"peak RSS {run.peak_mb:.1f} MB"


def test_the_eilenberg_zilber_suite_peaks_below_40_mib():
    from derhamkit.suites import run_suite

    report, _, peak = traced_peak(lambda: run_suite("eilenberg-zilber", {"cases": 10}, seed=1))
    assert report.summary["fail"] == 0 and len(report.cases) == 10
    assert peak < 40 * 2 ** 20


def _kan_inputs(seed):
    """Seeded multi-weight complexes, one with empty degrees in the middle."""
    rng = random.Random(seed)
    ring = (ModRing(2, 2), ModRing(3, 1), ModRing(3, 2))[seed % 3]
    c = random_complex(ring, rng, max_degree=3, max_rank=3, weight_choices=(0, 1, 2))
    gap = GradedSliceComplex(ring, 0, 4, {(0, 0): 1, (2, 0): 2, (3, 0): 1, (4, 1): 2, (1, 1): 1},
                             {(3, 0): np.array([[1, ring.modulus - 1]])})
    return [c, gap]


@pytest.mark.parametrize("seed", range(6))
def test_kan_transform_equals_the_reference(seed):
    for c in _kan_inputs(seed):
        for d_max in (c.n_max, c.n_max + 2):
            got = kan_transform(c, d_max=d_max)
            want = reference_simplex.kan_transform(c, d_max=d_max)
            assert got.d_max == want.d_max and got.dims == want.dims
            assert got.faces.keys() == want.faces.keys()
            assert got.degens.keys() == {(n, i, w) for w in c.weights() for n in range(d_max) for i in range(n + 1)}
            assert got.degens.keys() >= want.degens.keys()
            for name, keys in (("face", got.faces.keys()), ("degen", got.degens.keys())):
                for key in keys:
                    a, b = getattr(got, name)(*key), getattr(want, name)(*key)
                    assert a.shape == b.shape and a.dtype == b.dtype
                    assert (a == b).all(), (name, key)


def _maps(x):
    """Every face and degeneracy of ``x`` in the window as a dense matrix,
    zero ones too."""
    slices = [(n, w) for w in x.weights() for n in range(x.d_max + 1)]
    faces = {(n, i, w): x.face(n, i, w) for (n, w) in slices if n for i in range(n + 1)}
    degens = {(n, i, w): x.degen(n, i, w) for (n, w) in slices if n < x.d_max for i in range(n + 1)}
    return faces, degens


def _planted(x, maps, table, key, pos, delta):
    """``x`` rebuilt from its dense ``maps`` with ``delta`` added at ``pos``
    of the map ``key`` of ``table`` (0 faces, 1 degeneracies)."""
    faces, degens = dict(maps[0]), dict(maps[1])
    changed = (faces, degens)[table]
    changed[key] = changed[key].copy()
    changed[key][pos] += delta
    return SimplicialModule(x.ring, x.d_max, dict(x.dims), faces, degens)


def _outcome(check, x):
    """The message of the ValueError ``check(x)`` raises, or None."""
    try:
        check(x)
    except ValueError as err:
        return str(err)
    return None


def test_single_entry_faults_in_k_of_f3_raise_the_mixed_and_degeneracy_messages():
    ring = ModRing(3, 1)
    x = kan_transform(GradedSliceComplex(ring, 0, 1, {(0, 0): 1, (1, 0): 1}, {(1, 0): np.array([[1]])}), 3)
    maps = _maps(x)
    assert _outcome(SimplicialModule.validate, x) is None
    seen = set()
    for table in (0, 1):
        for key, mat in maps[table].items():
            for pos in np.ndindex(mat.shape):
                y = _planted(x, maps, table, key, pos, 1)
                got = _outcome(SimplicialModule.validate, y)
                assert got is not None and got == _outcome(reference_simplex.validate_simplicial, y)
                seen.add((table, got.split(" fails")[0]))
    assert seen == {(0, "mixed identity"), (1, "degeneracy identity"), (1, "mixed identity")}


def test_one_entry_in_the_top_summand_of_a_face_breaks_just_the_face_identity_at_degree_2():
    # K(C)_2 = C_2 + C_0 for C in degrees 0 and 2, and d_0 is zero on the summand C_2
    ring = ModRing(3, 1)
    x = kan_transform(GradedSliceComplex(ring, 0, 2, {(0, 0): 1, (2, 0): 1}, {}), 2)
    # basis element 0 is the top summand C_2, which every face sends to zero
    assert all(not x.face(2, i, 0)[0].any() and x.face(2, i, 0)[1].any() for i in range(3))
    y = _planted(x, _maps(x), 0, (2, 0, 0), (0, 0), 1)
    # the families are checked degree by degree, so every mixed identity (n <= 1) held
    want = "face identity fails at n=2, i=0, j=1, w=0"
    assert _outcome(reference_simplex.validate_simplicial, y) == want
    assert _outcome(SimplicialModule.validate, y) == want


@pytest.mark.parametrize("seed", range(6))
def test_validate_raises_exactly_when_the_dense_reference_does(seed):
    rng = random.Random(seed)
    raised = 0
    for c in _kan_inputs(seed):
        x = kan_transform(c, c.n_max + 1)
        maps = _maps(x)
        for table in (0, 1):
            for key, mat in maps[table].items():
                if not mat.size:
                    continue
                pos = (rng.randrange(mat.shape[0]), rng.randrange(mat.shape[1]))
                y = _planted(x, maps, table, key, pos, rng.randrange(1, x.ring.modulus))
                got = _outcome(SimplicialModule.validate, y)
                assert got == _outcome(reference_simplex.validate_simplicial, y), (table, key, pos)
                raised += got is not None
    assert raised


def test_kan_inputs_have_several_weights_and_empty_degrees():
    for seed in range(6):
        c, gap = _kan_inputs(seed)
        assert gap.dim(1, 0) == 0 and gap.dim(3, 1) == 0
    assert any(len(_kan_inputs(seed)[0].weights()) > 1 for seed in range(6))


def _leading_entries(rows):
    return [int(row[np.flatnonzero(row)[0]]) for row in rows]


def _spy_on_the_kernels(monkeypatch):
    """Record, for every ``normalized_complex`` call, its slices (n, w), the
    row ends of its block matrix and the Howell bases that
    ``block_left_kernels`` returned, one per slice."""
    from derhamkit import simplex

    calls = []
    faces, kernels = simplex._face_blocks, simplex.block_left_kernels

    def face_spy(x, slices):
        calls.append({"slices": list(slices), "ring": x.ring})
        return faces(x, slices)

    def kernel_spy(a, ring, row_ends):
        out = kernels(a, ring, row_ends)
        calls[-1].update(ends=np.asarray(row_ends).tolist(), bases=[k.copy() for k in out])
        return out

    monkeypatch.setattr(simplex, "_face_blocks", face_spy)
    monkeypatch.setattr(simplex, "block_left_kernels", kernel_spy)
    return calls


def test_minimal_generators_keep_the_reference_rows_on_every_dold_kan_call(monkeypatch):
    from reference_exactlin import minimal_generator_indices

    from derhamkit.exactlin import minimal_generators
    from derhamkit.suites import run_suite

    calls = _spy_on_the_kernels(monkeypatch)
    report = run_suite("dold-kan-roundtrip", {"cases": 20, "max_degree": 5, "max_rank": 3}, seed=1)
    assert report.summary["fail"] == 0
    # the kernel of each slice of degree n >= 1 (degree 0 takes the whole slice)
    kernels = [(ker, call["ring"]) for call in calls for (n, _), ker in zip(call["slices"], call["bases"]) if n]
    assert len(kernels) > 100
    unit = 0
    for ker, ring in kernels:
        rows = minimal_generators(ker, ring)
        assert np.array_equal(rows, ker[minimal_generator_indices(ker, ring)])
        # a kernel with pivots 1 is the basis normalized_complex keeps as it is
        if all(x == 1 for x in _leading_entries(ker)):
            unit += 1
            assert np.array_equal(rows, ker)
    assert unit > 100


def test_shuffle_counts_and_signs():
    assert sum(1 for _ in shuffles(2, 1)) == 3
    assert sum(1 for _ in shuffles(0, 3)) == 1
    total = {s for *_ , s in shuffles(1, 1)}
    assert total == {1, -1}


def test_normalized_complex_rejects_a_slice_that_is_not_free():
    # over Z/4, ker d_0 = 2 Z/4 is not free: its only generator vanishes mod 2
    ring = ModRing(2, 2)
    x = SimplicialModule(ring, 1, {(0, 0): 1, (1, 0): 1},
                         {(1, 0, 0): np.array([[2]]), (1, 1, 0): np.array([[1]])}, {})
    with pytest.raises(AssertionError, match="not free"):
        normalized_complex(x)


def _module_with_faces(ring, dims, faces, w):
    """A module of one weight ``w`` with the given faces and no degeneracies
    (``normalized_complex`` reads faces only)."""
    return SimplicialModule(ring, max(dims), {(n, w): d for n, d in dims.items()},
                            {(n, i, w): np.array(f) for (n, i), f in faces.items()}, {})


def test_normalized_complex_failures_name_their_slice():
    ring = ModRing(2, 2)
    # ker d_0 = 2 Z/4 in degree 2 is not free
    x = _module_with_faces(ring, {0: 1, 1: 1, 2: 1},
                           {(1, 0): [[0]], (1, 1): [[0]], (2, 0): [[2]], (2, 1): [[0]], (2, 2): [[0]]}, 5)
    with pytest.raises(AssertionError, match=r"not free .*at \(degree 2, weight 5\)"):
        normalized_complex(x)
    # N_1 = ker d_0 = 0 (d_0 is a unit), N_2 = X_2, and d_2 is not zero
    x = _module_with_faces(ring, {0: 1, 1: 1, 2: 1},
                           {(1, 0): [[1]], (1, 1): [[0]], (2, 0): [[0]], (2, 1): [[0]], (2, 2): [[1]]}, 3)
    with pytest.raises(AssertionError, match=r"escapes the lower term at \(degree 2, weight 3\)"):
        normalized_complex(x)


def _modules_with_faces(ring, weights: dict):
    """One module whose weight w has the dims and faces ``weights[w]``, as
    ``_module_with_faces`` makes each weight."""
    parts = [_module_with_faces(ring, dims, faces, w) for w, (dims, faces) in weights.items()]
    return SimplicialModule(ring, max(x.d_max for x in parts), {k: v for x in parts for k, v in x.dims.items()},
                            {k: v for x in parts for k, v in x.faces.items()}, {})


def test_normalized_complex_with_a_zero_slice_between_nonzero_ones_equals_the_reference():
    ring = ModRing(3, 1)
    zero = {(n, i): [[0] * d for _ in range(r)] for n, r, d in ((2, 2, 0), (3, 1, 2)) for i in range(n + 1)}
    x = _modules_with_faces(ring, {
        # X_1 = 0 lies between X_0 and X_2; N_3 = X_3 and -d_3 sends it to (2, 1)
        0: ({0: 2, 1: 0, 2: 2, 3: 1}, {**zero, (3, 3): [[1, 2]]}),
        # d_0 is a unit, so the kernel of X_1 is empty, and X_2 = 0
        1: ({0: 1, 1: 1}, {(1, 0): [[1]], (1, 1): [[1]]}),
    })
    _assert_normalized_equals_the_reference(x)
    data = normalized_complex(x, with_basis=True)
    assert data.complex.dims == {(0, 0): 2, (2, 0): 2, (3, 0): 1, (0, 1): 1}
    assert data.basis[(1, 0)].shape == (0, 0) and data.basis[(1, 1)].shape == (0, 1)
    assert data.complex.diff(3, 0).tolist() == [[2, 1]]


@pytest.mark.parametrize("ring", [ModRing(2, 1), ModRing(3, 2)], ids=str)
def test_a_module_without_slices_normalizes_to_the_empty_complex(ring):
    from derhamkit.pdpow import apply_functor_to_module, derived_power

    data = normalized_complex(SimplicialModule(ring, 3, {}, {}, {}), with_basis=True)
    assert data.complex.dims == {} and data.basis == {}
    # wedge^2 of a rank-1 module is 0 in every degree
    c = GradedSliceComplex(ring, 0, 0, {(0, 0): 1}, {})
    fx = apply_functor_to_module(kan_transform(c, d_max=3), "wedge", 2)
    assert fx.dims == {}
    _assert_normalized_equals_the_reference(fx)
    report = derived_power(c, "wedge", 2)
    assert report.entries == {} and report.trusted == (0, 2)


def test_a_slice_that_is_not_free_inside_the_batch_fails_naming_its_slice():
    ring = ModRing(2, 2)
    free = {(n, i): [[0]] for n in (1, 2, 3) for i in range(n + 1)}
    weights = {0: ({0: 1, 1: 1, 2: 1, 3: 1}, free),
               # ker [d_0 | d_1] = 2 Z/4 in degree 2 is not free
               1: ({0: 1, 1: 1, 2: 1, 3: 1}, {**free, (2, 0): [[2]]}),
               2: ({0: 1, 1: 1, 2: 1}, {key: f for key, f in free.items() if key[0] < 3})}
    x = _modules_with_faces(ring, weights)
    with pytest.raises(AssertionError, match=r"not free .*at \(degree 2, weight 1\)"):
        normalized_complex(x)
    del weights[1]
    _assert_normalized_equals_the_reference(_modules_with_faces(ring, weights))


@functools.lru_cache(maxsize=None)
def _recorded(suite: str, params: tuple, builder: str) -> tuple:
    """(args, kwargs) of every call to ``builder`` (a name that ``suites`` or
    ``pdpow`` imports, such as ``kan_transform``, ``double_kan`` or
    ``normalized_complex``) that ``suite`` makes at seed 1, in call order."""
    from derhamkit import pdpow, suites

    seen = []
    with pytest.MonkeyPatch.context() as patch:
        for module in (suites, pdpow):
            honest = getattr(module, builder, None)
            if honest is not None:
                patch.setattr(module, builder,
                              lambda *args, _honest=honest, **kwargs: seen.append((args, kwargs)) or _honest(*args, **kwargs))
        assert run_suite(suite, dict(params), seed=1).summary["fail"] == 0
    return tuple(seen)


def _suite_inputs(suite: str, params: dict, builder: str) -> tuple:
    return _recorded(suite, tuple(sorted(params.items())), builder)


def _modules_normalized_by(suite, params):
    """The simplicial modules whose normalized complex ``suite`` takes."""
    return [args[0] for args, _ in _suite_inputs(suite, params, "normalized_complex")]


def _assert_normalized_equals_the_reference(x):
    got = normalized_complex(x, with_basis=True)
    want = reference_simplex.normalized_complex(x, with_basis=True)
    assert got.complex.dims == want.complex.dims
    for key in set(got.complex.dims) | set(got.complex.diffs) | set(want.complex.diffs):
        assert np.array_equal(got.complex.diff(*key), want.complex.diff(*key)), key
    assert got.basis.keys() == want.basis.keys()
    for key, rows in want.basis.items():
        assert got.basis[key].dtype == rows.dtype and np.array_equal(got.basis[key], rows), key


@pytest.mark.parametrize("suite,params,count", [
    ("dold-kan-roundtrip", {"cases": 20}, 60),  # Z/4, Z/9 and F_5
    ("eilenberg-zilber", {"cases": 10}, 10),
    ("quillen-shift", {"power": 3}, 12),
])
def test_normalized_complex_equals_the_reference_on_the_suite_inputs(suite, params, count):
    modules = _modules_normalized_by(suite, params)
    assert len(modules) == count
    for x in modules:
        _assert_normalized_equals_the_reference(x)


def _invertible(ring, rng, k):
    """A random invertible k x k matrix over ``ring`` and its inverse, as
    L P U with L, U unit triangular and P a permutation."""
    m = ring.modulus

    def unit_triangular(lower):
        nil = np.tril(rng.integers(0, m, (k, k)), -1)
        nil = nil if lower else nil.T
        inverse, power = np.eye(k, dtype=np.int64), np.eye(k, dtype=np.int64)
        for _ in range(1, k):  # (I + N)^-1 = sum of (-N)^j, as N is nilpotent
            power = mmul(power, -nil % m, ring)
            inverse = (inverse + power) % m
        return (np.eye(k, dtype=np.int64) + nil) % m, inverse

    perm = np.eye(k, dtype=np.int64)[rng.permutation(k)]
    (lo, lo_inv), (up, up_inv) = unit_triangular(True), unit_triangular(False)
    return mmul(mmul(lo, perm, ring), up, ring), mmul(mmul(up_inv, perm.T, ring), lo_inv, ring)


def _in_a_random_basis(x, rng):
    """``x`` with each slice X_{n,w} in a random basis: a vector v has the
    new coordinates v P_n^-1, so d_i becomes P_n d_i P_(n-1)^-1 and s_i
    becomes P_n s_i P_(n+1)^-1.  The result is isomorphic to ``x``, but its
    normalized kernels need not have pivots 1 over Z/p^n."""
    ring = x.ring
    change = {key: _invertible(ring, rng, d) for key, d in x.dims.items()}

    def conjugate(mat, n, k, w):
        return mmul(mmul(change[(n, w)][0], mat, ring), change[(k, w)][1], ring)

    faces = {(n, i, w): conjugate(x.face(n, i, w), n, n - 1, w)
             for w in x.weights() for n in range(1, x.d_max + 1) for i in range(n + 1)
             if x.dim(n, w) and x.dim(n - 1, w)}
    degens = {(n, i, w): conjugate(x.degen(n, i, w), n, n + 1, w)
              for w in x.weights() for n in range(x.d_max) for i in range(n + 1)
              if x.dim(n, w) and x.dim(n + 1, w)}
    return SimplicialModule(ring, x.d_max, dict(x.dims), faces, degens)


@pytest.mark.parametrize("ring", [ModRing(2, 1), ModRing(5, 1), ModRing(2, 2), ModRing(2, 3), ModRing(3, 2)],
                         ids=str)
def test_normalized_complex_equals_the_reference_with_and_without_pivots_1(monkeypatch, ring):
    import derhamkit.simplex

    fallbacks = []
    library = derhamkit.simplex.minimal_generators

    def spy(rows, r):
        fallbacks.append(_leading_entries(rows))
        return library(rows, r)

    monkeypatch.setattr(derhamkit.simplex, "minimal_generators", spy)
    rng, twist = random.Random(7), np.random.default_rng(7)
    for _ in range(5):
        c = random_complex(ring, rng, max_degree=3, max_rank=3)
        x = kan_transform(c, d_max=c.n_max + 1)
        before = len(fallbacks)
        _assert_normalized_equals_the_reference(x)
        # every kernel of a Kan transform has pivots 1, so no fallback ran
        assert len(fallbacks) == before
        y = _in_a_random_basis(x, twist)
        y.validate()
        _assert_normalized_equals_the_reference(y)
    # over F_p every Howell pivot is 1; over Z/p^n the new bases reach the fallback
    if ring.n == 1:
        assert fallbacks == []
    else:
        assert any(x != 1 for lead in fallbacks for x in lead)


def test_a_free_kernel_without_pivots_1_takes_the_minimal_generators():
    ring = ModRing(2, 2)
    # ker d_0 = Z/4 (2, 1): free, but its Howell basis (2, 1), (0, 2) has the pivot 2
    x = _module_with_faces(ring, {0: 1, 1: 2}, {(1, 0): [[1], [2]], (1, 1): [[1], [2]]}, 0)
    _assert_normalized_equals_the_reference(x)
    data = normalized_complex(x, with_basis=True)
    assert data.basis[(1, 0)].tolist() == [[2, 1]]


def test_a_differential_that_leaves_a_basis_with_pivots_1_raises():
    ring = ModRing(2, 2)
    # N_1 = ker d_0 = Z/4 (1, 0) has pivot 1, N_2 = X_2, and d_2 sends it to (0, 1)
    faces = {(1, 0): [[0], [1]], (1, 1): [[0], [1]], (2, 0): [[0, 0]], (2, 1): [[0, 0]]}
    inside = _module_with_faces(ring, {0: 1, 1: 2, 2: 1}, {**faces, (2, 2): [[3, 0]]}, 0)
    data = normalized_complex(inside, with_basis=True)
    assert data.basis[(1, 0)].tolist() == [[1, 0]] and data.complex.diff(2, 0).tolist() == [[3]]
    x = _module_with_faces(ring, {0: 1, 1: 2, 2: 1}, {**faces, (2, 2): [[0, 1]]}, 0)
    with pytest.raises(ValueError, match="not in span"):
        normalized_complex(x)
    with pytest.raises(ValueError, match="not in span"):
        reference_simplex.normalized_complex(x)


def test_on_a_kan_transform_the_peel_keeps_just_the_rows_of_the_normalized_part(monkeypatch):
    import derhamkit.exactlin

    unforced = derhamkit.exactlin._unforced_rows
    masks = []

    def record_kept(*args):
        masks.append(unforced(*args))
        return masks[-1]

    monkeypatch.setattr(derhamkit.exactlin, "_unforced_rows", record_kept)
    calls = _spy_on_the_kernels(monkeypatch)
    rng = random.Random(3)
    for ring in (ModRing(2, 2), ModRing(3, 2), ModRing(5, 1)):
        for _ in range(4):
            c = random_complex(ring, rng, max_degree=4, max_rank=3, weight_choices=(0, 1))
            normalized_complex(kan_transform(c, d_max=c.n_max + 1))
    assert len(masks) == len(calls) == 12
    kept, ranks = [], []
    for mask, call in zip(masks, calls):
        blocks = zip(call["slices"], [0, *call["ends"][:-1]], call["ends"], call["bases"])
        for (n, _), lo, hi, ker in blocks:
            if n:  # degree 0 takes the whole slice
                kept.append(int(mask[lo:hi].sum()))
                ranks.append(ker.shape[0])
    # N K(C)_n is the summand of the identity surjection, free on the rows
    # that every face d_0 ... d_{n-1} kills; the peel drops all the others
    assert kept == ranks and sum(kept) > 0


def test_normalized_with_basis_inclusion():
    from derhamkit.exactlin import mmul

    ring = ModRing(2, 2)
    c = GradedSliceComplex(ring, 0, 2, {(0, 0): 1, (1, 0): 2, (2, 0): 1},
                           {(1, 0): np.array([[2], [0]]), (2, 0): np.array([[0, 1]])})
    x = kan_transform(c, d_max=3)
    from derhamkit.simplex import normalized_complex as nc

    data = nc(x, with_basis=True)
    for (n, w), rows in data.basis.items():
        if n == 0 or not rows.shape[0]:
            continue
        for i in range(n):
            assert not mmul(rows, x.face(n, i, w), ring).any()
        assert data.complex.dim(n, w) == rows.shape[0]


@pytest.mark.parametrize("bad", OUTSIDE_A_2_BY_2_SLICE, ids=OUTSIDE_IDS)
def test_a_simplicial_module_rejects_a_map_that_does_not_fit_its_slice_naming_the_key(bad):
    dims = {(0, 0): 2, (1, 0): 2}
    with pytest.raises(ValueError, match=re.escape("the map at (1, 1, 0)")):
        SimplicialModule(ModRing(3, 1), 1, dims, {(1, 1, 0): bad}, {})
    with pytest.raises(ValueError, match=re.escape("the map at (0, 0, 0)")):
        SimplicialModule(ModRing(3, 1), 1, dims, {}, {(0, 0, 0): bad})


def test_stored_maps_are_reduced_once_and_read_only():
    ring = ModRing(3, 1)
    x = SimplicialModule(ring, 1, {(0, 0): 1, (1, 0): 1},
                         {(1, 0, 0): np.array([[4]]), (1, 1, 0): np.array([[-2]])},
                         {(0, 0, 0): np.array([[1]])})
    assert x.face(1, 0, 0).tolist() == [[1]] and x.face(1, 1, 0).tolist() == [[1]]
    # the stored triple is reduced once and shared; face() builds a dense copy
    assert x.faces[(1, 0, 0)].vals.tolist() == [1] and x.faces[(1, 1, 0)].vals.tolist() == [1]
    assert x.faces[(1, 0, 0)] is x.faces[(1, 0, 0)]
    k = kan_transform(_kan_inputs(0)[0])
    for mat in (x.face(1, 1, 0), x.degen(0, 0, 0), k.face(*next(iter(k.faces)))):
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 0] = 0


def _count_passes(monkeypatch):
    """Record ``face`` of every ``BisimplicialModule._build`` pass."""
    from derhamkit.simplex import BisimplicialModule

    calls = []
    honest = BisimplicialModule._build

    def counted(self, face, directions):
        calls.append(face)
        return honest(self, face, directions)

    monkeypatch.setattr(BisimplicialModule, "_build", counted)
    return calls


def test_kan_transform_builds_every_degeneracy_in_one_pass_when_the_first_is_read(monkeypatch):
    calls = _count_passes(monkeypatch)
    c = _kan_inputs(0)[0]
    d_max = c.n_max + 1
    k = kan_transform(c, d_max=d_max)
    keys = [(n, i, w) for w in c.weights() for n in range(d_max) for i in range(n + 1)]
    assert calls == [True]  # every face of every weight in one pass
    # the keys are known up front: listing and membership build nothing
    assert list(k.degens) == keys and len(k.degens) == len(keys) and keys[-1] in k.degens
    assert (d_max, 0, c.weights()[0]) not in k.degens
    assert calls == [True]
    want = reference_simplex.kan_transform(c, d_max=d_max)
    first = k.degens[keys[-1]]
    assert calls == [True, False]
    assert k.degens[keys[-1]] is first and (k.degen(*keys[-1]) == want.degen(*keys[-1])).all()
    for key in keys:
        assert (k.degen(*key) == want.degen(*key)).all(), key
    assert calls == [True, False]
    with pytest.raises(KeyError):
        k.degens[(d_max, 0, 0)]
    with pytest.raises(TypeError):
        k.degens[keys[0]] = first


def test_the_diagonal_builds_its_degeneracies_in_one_pass_when_the_first_is_read(monkeypatch):
    calls = _count_passes(monkeypatch)
    diag = diagonal(double_kan(_largest_eilenberg_zilber_case(), 5, 5))
    assert diag.weights() == [0]
    assert calls == [True]
    normalized_complex(diag)
    assert calls == [True]
    assert diag.degen(4, 2, 0).shape == (diag.dim(4, 0), 810)
    assert calls == [True, False]
    assert all(diag.degens[key] is not None for key in diag.degens) and calls == [True, False]


def _square(ring, corner):
    """A 2x2 double complex of rank-one terms, all maps 1 except the vertical
    one out of (1, 1), which is ``corner``; it commutes only for corner 1."""
    return DoubleComplex(
        ring,
        {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): 1},
        {(1, 0, 0): np.array([[1]]), (1, 1, 0): np.array([[1]])},
        {(0, 1, 0): np.array([[1]]), (1, 1, 0): np.array([[corner]])},
    )


def test_a_double_complex_is_validated_once_and_an_invalid_one_raises_at_both_entry_points(monkeypatch):
    ring = ModRing(2, 1)
    bad = _square(ring, 0)
    with pytest.raises(ValueError, match="do not commute"):
        double_kan(bad, 2, 2)
    # the total complex's own d∘d check sees the same fault
    with pytest.raises(ValueError, match=r"not a double complex .* d\^2 != 0 at degree 2, weight 0"):
        total_complex(bad)
    column = DoubleComplex(ring, {(0, q, 0): 1 for q in range(3)}, {},
                           {(0, 1, 0): np.array([[1]]), (0, 2, 0): np.array([[1]])})
    with pytest.raises(ValueError, match=r"vertical d\^2 != 0"):
        double_kan(column, 0, 2)
    with pytest.raises(ValueError, match=r"not a double complex .* d\^2 != 0"):
        total_complex(column)
    checks = []
    honest = DoubleComplex.validate
    monkeypatch.setattr(DoubleComplex, "validate", lambda self: checks.append(self) or honest(self))
    good = _square(ring, 1)
    double_kan(good, 2, 2)
    total_complex(good)
    assert checks == [good]


def _perturb_homology(monkeypatch, builder, degree):
    """Make ``suites.slice_homology`` report one extra factor p at ``degree``
    on the complexes that ``suites.<builder>`` returns; returns the
    (weight, honest factors) of each perturbed slice, in call order."""
    from derhamkit import suites

    built, seen = [], []
    honest_build, honest = getattr(suites, builder), suites.slice_homology

    def recorded(*args):
        cx = honest_build(*args)
        built.append(cx)
        return cx

    def perturbed(cx, deg, w):
        fac = honest(cx, deg, w)
        if deg == degree and any(cx is b for b in built):
            seen.append((w, fac))
            return fac + [cx.ring.p]
        return fac

    monkeypatch.setattr(suites, builder, recorded)
    monkeypatch.setattr(suites, "slice_homology", perturbed)
    return seen


def test_dold_kan_homology_failure_names_its_slice(monkeypatch):
    from derhamkit.suites import run_suite

    seen = _perturb_homology(monkeypatch, "normalized_complex", 1)
    report = run_suite("dold-kan-roundtrip", {"cases": 1, "max_degree": 2, "p": 3, "n": 1}, seed=1)
    cases = {c.name: c for c in report.cases}
    (w, fac) = seen[0]
    assert cases["F_3-case00-roundtrip"].status == "pass"
    homology = cases["F_3-case00-homology"]
    assert homology.status == "fail" and report.exit_code() == 1
    assert homology.computed == f"mismatch at (degree 1, weight {w}): expected {fac}, computed {fac + [3]}"


def test_dold_kan_roundtrip_failure_names_the_differing_differential(monkeypatch):
    from derhamkit import suites

    honest = suites.normalized_complex
    changed = []

    def perturbed(x):
        n = honest(x)
        (deg, w) = key = min(k for k in n.dims if k[0] >= 1 and n.dim(k[0] - 1, k[1]))
        d = n.diff(deg, w)
        d[0, 0] = (d[0, 0] + 1) % n.ring.modulus
        changed.append((key, n.diff(deg, w).tolist(), d.tolist()))
        return GradedSliceComplex(n.ring, n.n_min, n.n_max, n.dims, {**n.diffs, key: d})

    monkeypatch.setattr(suites, "normalized_complex", perturbed)
    report = suites.run_suite("dold-kan-roundtrip", {"cases": 1, "max_degree": 2, "p": 3, "n": 1}, seed=1)
    ((deg, w), want, got), = changed
    case = next(c for c in report.cases if c.name == "F_3-case00-roundtrip")
    assert case.status == "fail"
    assert case.computed == (f"mismatch at (degree {deg}, weight {w}): "
                             f"expected differential {want}, computed {got}")


def test_dold_kan_roundtrip_failure_names_the_differing_dim(monkeypatch):
    from derhamkit import suites

    honest = suites.normalized_complex
    dropped = []

    def perturbed(x):  # the top slice of N(K(C)) goes missing
        n = honest(x)
        key = max(n.dims)
        dropped.append((key, n.dim(*key)))
        return GradedSliceComplex(n.ring, n.n_min, n.n_max, {k: v for k, v in n.dims.items() if k != key},
                                  {k: d for k, d in n.diffs.items() if k not in (key, (key[0] + 1, key[1]))})

    monkeypatch.setattr(suites, "normalized_complex", perturbed)
    report = suites.run_suite("dold-kan-roundtrip", {"cases": 1, "max_degree": 3, "p": 3, "n": 1}, seed=1)
    ((deg, w), dim), = dropped
    case = next(c for c in report.cases if c.name == "F_3-case00-roundtrip")
    assert case.status == "fail"
    assert case.computed == f"mismatch at (degree {deg}, weight {w}): expected dim {dim}, computed dim 0"


def test_eilenberg_zilber_failure_names_its_slice(monkeypatch):
    from derhamkit.suites import run_suite

    seen = _perturb_homology(monkeypatch, "total_complex", 2)
    report = run_suite("eilenberg-zilber", {"cases": 1}, seed=1)
    (case,) = report.cases
    (w, fac) = seen[0]
    assert case.status == "fail" and report.exit_code() == 1
    assert case.computed == f"mismatch at (degree 2, weight {w}): expected {fac + [2]}, computed {fac}"


def test_the_kan_plan_is_the_kan_block_rule_on_every_surjection():
    from reference_simplex import _kan_plan

    top = 6
    for face in (True, False):
        table = simplex._kan_table(top, face)
        assert simplex._kan_table(top, face) is table and not table.flags.writeable
        want = []
        for n in range(1 if face else 0, top + 1):
            target = n - 1 if face else n + 1
            for i in range(n + 1):
                alpha = MonotoneMap.face(n, i) if face else MonotoneMap.degeneracy(n, i)
                plan = _kan_plan(n, i, face)
                etas = [eta for p in range(n + 1) for eta in monotone_surjections(n, p)]
                assert set(plan) <= {eta.values for eta in etas}
                for eta in etas:
                    assert plan.get(eta.values) == kan_block(eta, alpha), (n, i, face, eta)
                assert _kan_plan(n, i, face) is plan
                with pytest.raises(TypeError):
                    plan[etas[0].values] = None
            # the table holds the same rules on every (n, i), by surjection index, sorted by (p, e, i)
            for p in range(n + 1):
                for e, eta in enumerate(monotone_surjections(n, p)):
                    for i in range(n + 1):
                        rule = kan_block(eta, MonotoneMap.face(n, i) if face else MonotoneMap.degeneracy(n, i))
                        if rule is not None:
                            kind = int(rule[1] == "d")
                            images = [s.values for s in monotone_surjections(target, p - kind)]
                            want.append([n, p, e, i, kind, images.index(rule[0])])
        assert table.tolist() == want, face
        assert len(want) > 500


def test_kan_transform_rejects_a_complex_whose_differential_does_not_square_to_zero():
    ring = ModRing(3, 1)
    c = GradedSliceComplex(ring, 0, 2, {(0, 0): 1, (1, 0): 1, (2, 0): 1},
                           {(1, 0): np.array([[1]]), (2, 0): np.array([[1]])})
    with pytest.raises(ValueError, match=r"horizontal d\^2 != 0 at \(2, 0, 0\)"):
        kan_transform(c)


# ---------------------------------------------------------------------------
# the one-pass operators against the per-summand reference

DOLD_KAN = {"cases": 20, "max_degree": 5, "max_rank": 3}


def _assert_same(got, want, where):
    assert got.shape == want.shape, where
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype and np.array_equal(a, b), where


def _assert_kan_operators_match(inputs):
    """Every face and degeneracy of ``kan_transform(c, d_max)`` equals the
    per-summand operator on the row q = 0, zero ones included."""
    count = 0
    for (c,), kwargs in inputs:
        d_max = kwargs["d_max"]
        x = simplex.kan_transform(c, d_max=d_max)
        row = DoubleComplex(c.ring, {(p, 0, w): d for (p, w), d in c.dims.items()},
                            {(p, 0, w): d for (p, w), d in c.diffs.items()}, {})
        ref = reference_simplex.PerSummandKan(row, d_max, 0)
        for w in c.weights():
            for n in range(d_max + 1):
                for i in range(n + 1):
                    if n:
                        want = ref.operator(n, 0, i, w, True, "h")
                        _assert_same(x._face(n, i, w), want, ("face", n, i, w))
                        assert ((n, i, w) in x.faces) == bool(want.vals.size)
                        count += bool(want.vals.size)
                    if n < d_max:
                        _assert_same(x._degen(n, i, w), ref.operator(n, 0, i, w, False, "h"), ("degen", n, i, w))
    return count


def test_kan_faces_and_degeneracies_equal_the_per_summand_reference_on_the_dold_kan_inputs():
    inputs = _suite_inputs("dold-kan-roundtrip", DOLD_KAN, "kan_transform")
    assert len(inputs) == 60
    assert _assert_kan_operators_match(inputs) > 1000


def test_kan_faces_and_degeneracies_equal_the_per_summand_reference_on_the_quillen_shift_modules():
    inputs = _suite_inputs("quillen-shift", {"power": 3}, "kan_transform")
    assert len(inputs) == 12
    assert _assert_kan_operators_match(inputs) > 50


def test_bisimplicial_operators_equal_the_per_summand_reference_on_the_eilenberg_zilber_cases():
    inputs = _suite_inputs("eilenberg-zilber", {"cases": 10}, "double_kan")
    assert len(inputs) == 10
    count = 0
    for (dc,), kwargs in inputs:
        b = simplex.double_kan(dc, **kwargs)
        ref = reference_simplex.PerSummandKan(dc, b.p_max, b.q_max)
        assert b.dims == ref.dims
        for (m, n, w) in b.dims:
            for face in (True, False):
                for directions, top in (("h", m), ("v", n), ("hv", m if m == n else -1)):
                    for i in range(top + 1):
                        want = ref.operator(m, n, i, w, face, directions)
                        _assert_same(b._operator(m, n, i, w, face, directions), want,
                                     (m, n, i, w, face, directions))
                        count += bool(want.vals.size)
    assert count > 4000


def test_an_id_rule_flipped_to_d_in_the_table_fails_the_kan_equality_test(monkeypatch):
    honest = simplex._kan_table

    def flipped(top, face):
        table = honest(top, face).copy()
        ids = np.flatnonzero((table[:, 1] >= 1) & (table[:, 4] == 0))
        if ids.size:
            table[ids[0], 4] = 1
        return table

    _suite_inputs("dold-kan-roundtrip", DOLD_KAN, "kan_transform")  # recorded without the fault
    monkeypatch.setattr(simplex, "_kan_table", flipped)
    with pytest.raises(AssertionError):
        test_kan_faces_and_degeneracies_equal_the_per_summand_reference_on_the_dold_kan_inputs()


def test_an_offset_off_by_one_block_fails_the_bisimplicial_equality_test(monkeypatch):
    honest = simplex.double_kan

    def shifted(dc, p_max, q_max):
        b = honest(dc, p_max, q_max)
        k, p, q = (int(t[0]) for t in b.terms[:, 1:, 1:].nonzero())
        # the first summand block of X_{p+1,q+1} moves down by one block
        b.bases[k, p + 1, q + 1, p + 1, q + 1] += b.terms[k, p + 1, q + 1]
        return b

    _suite_inputs("eilenberg-zilber", {"cases": 10}, "double_kan")  # recorded without the fault
    monkeypatch.setattr(simplex, "double_kan", shifted)
    with pytest.raises(AssertionError):
        test_bisimplicial_operators_equal_the_per_summand_reference_on_the_eilenberg_zilber_cases()


def test_the_unnormalized_differential_is_the_alternating_sum_of_the_faces():
    for (c,), kwargs in _suite_inputs("dold-kan-roundtrip", DOLD_KAN, "kan_transform")[::7]:
        x = kan_transform(c, **kwargs)
        u = unnormalized_complex(x)
        assert u.dims == x.dims
        for (n, w) in x.dims:
            if n:
                want = sum((-1) ** i * x.face(n, i, w) for i in range(n + 1)) % c.ring.modulus
                got = u.diffs.get((n, w))
                assert np.array_equal(u.diff(n, w), want) and (got is None) == (not want.any())
                if got is not None:
                    assert got == as_sparse(want, c.ring.modulus)
