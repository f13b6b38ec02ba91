"""Divided powers: Gamma and wedge of matrices, derived functors, Koszul."""

import itertools
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_exactlin import wedge_matrix as reference_wedge_matrix

import derhamkit.pdpow as pdpow
from derhamkit.complexes import GradedSliceComplex
from derhamkit.cotangent import AlgebraPresentation
from derhamkit.derham import build_derham
from derhamkit.exactlin import ModRing, mmul
from derhamkit.pdpow import (
    derived_power,
    gamma_matrix,
    gamma_monomials,
    koszul_gamma_complex,
    wedge_matrix,
)
from derhamkit.randomgen import random_invertible
from derhamkit.suites import run_suite

import reference_derham

F2 = ModRing(2, 1)
Z9 = ModRing(3, 2)


def test_gamma_and_wedge_matrix_functorial():
    rng = random.Random(3)
    for ring in (Z9, ModRing(2, 2)):
        for n in (1, 2, 3):
            a = np.array([[rng.randrange(ring.modulus) for _ in range(3)] for _ in range(2)])
            b = np.array([[rng.randrange(ring.modulus) for _ in range(2)] for _ in range(3)])
            ab = (a @ b) % ring.modulus
            ga = gamma_matrix(a, n, ring)
            gb = gamma_matrix(b, n, ring)
            assert ((ga @ gb) % ring.modulus == gamma_matrix(ab, n, ring)).all()
            wa = wedge_matrix(a, n, ring)
            wb = wedge_matrix(b, n, ring)
            assert ((wa @ wb) % ring.modulus == wedge_matrix(ab, n, ring)).all()
    ident = np.eye(4, dtype=np.int64)
    assert (gamma_matrix(ident, 2, Z9) == np.eye(comb(5, 2), dtype=np.int64)).all()


def test_gamma_rank_count():
    assert len(gamma_monomials(2, 2)) == 3
    for r in range(1, 4):
        for n in range(4):
            assert len(gamma_monomials(r, n)) == comb(n + r - 1, n)


def test_compositions_are_every_exponent_tuple_in_lexicographic_order():
    for parts in range(4):
        for total in range(5):
            want = tuple(e for e in itertools.product(range(total + 1), repeat=parts) if sum(e) == total)
            assert pdpow._compositions(total, parts) == want
            assert gamma_monomials(parts, total) == list(want)
            # memoized, and each caller gets a list of its own
            assert pdpow._compositions(total, parts) is pdpow._compositions(total, parts)
            assert gamma_monomials(parts, total) is not gamma_monomials(parts, total)



@pytest.mark.parametrize("functor", ["gamma", "wedge"])
@pytest.mark.parametrize("ring", [Z9, F2, ModRing(3, 3)], ids=["Z9", "F2", "Z27"])
def test_functor_of_a_direct_sum_is_the_sum_of_tensor_products(functor, ring):
    # F^n(A + B) = sum_k F^k(A) (x) F^(n-k)(B): on monomial bases split into an
    # A part and a B part, every entry of F^n of a block-diagonal map is the
    # product of the two blocks' entries when the A parts have equal size, else 0
    rng = random.Random(7)
    m = ring.modulus
    for _ in range(4):
        (r1, s1), (r2, s2) = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(2)]
        a = np.array([[rng.randrange(m) for _ in range(s1)] for _ in range(r1)], dtype=np.int64)
        b = np.array([[rng.randrange(m) for _ in range(s2)] for _ in range(r2)], dtype=np.int64)
        phi = np.zeros((r1 + r2, s1 + s2), dtype=np.int64)
        phi[:r1, :s1], phi[r1:, s1:] = a, b
        for n in range(4):
            if functor == "gamma":
                basis = gamma_monomials
                split = lambda e, cut: (e[:cut], e[cut:], sum(e[:cut]))  # noqa: E731
                power = gamma_matrix
            else:
                basis = lambda rank, k: list(itertools.combinations(range(rank), k))  # noqa: E731
                split = lambda e, cut: (  # noqa: E731
                    tuple(i for i in e if i < cut), tuple(i - cut for i in e if i >= cut),
                    sum(i < cut for i in e))
                power = wedge_matrix
            got = power(phi, n, ring)
            blocks = {k: (power(a, k, ring), power(b, n - k, ring)) for k in range(n + 1)}
            index_a = {k: {e: i for i, e in enumerate(basis(r1, k))} for k in range(n + 1)}
            index_b = {k: {e: i for i, e in enumerate(basis(r2, n - k))} for k in range(n + 1)}
            col_a = {k: {e: i for i, e in enumerate(basis(s1, k))} for k in range(n + 1)}
            col_b = {k: {e: i for i, e in enumerate(basis(s2, n - k))} for k in range(n + 1)}
            want = np.zeros_like(got)
            for si, src in enumerate(basis(r1 + r2, n)):
                sa, sb, k = split(src, r1)
                for ti, tgt in enumerate(basis(s1 + s2, n)):
                    ta, tb, kt = split(tgt, s1)
                    if kt == k:
                        ga, gb = blocks[k]
                        want[si, ti] = ga[index_a[k][sa], col_a[k][ta]] * gb[index_b[k][sb], col_b[k][tb]] % m
            assert got.shape == want.shape and (got == want).all(), (functor, n)


def test_derived_gamma_of_free_module_degree_zero():
    ring = ModRing(2, 2)
    c = GradedSliceComplex(ring, 0, 0, {(0, 0): 2}, {})
    rep = derived_power(c, "gamma", 2, degrees=range(3))
    assert rep.factors(0, 0) == [4, 4, 4]
    assert all(not rep.factors(d, 0) for d in (1, 2))


@pytest.mark.parametrize("w", [0, -1])
def test_quillen_shift_small(w):
    # wedge^2 of (Z/4 in degree 1, weight w): H_2 = Z/4 in weight 2w, all
    # else zero in window; a negative weight is re-sliced like any other
    ring = ModRing(2, 2)
    c = GradedSliceComplex(ring, 0, 1, {(1, w): 1}, {})
    rep = derived_power(c, "wedge", 2, degrees=range(4))
    assert rep.factors(2, 2 * w) == [4]
    for d in (0, 1, 3):
        assert not rep.factors(d, 2 * w)


def test_koszul_gamma_split_example():
    # 0 -> A -> A^2 -> A -> 0 split over Z/9, n = 2: ranks 1, 3, 2, 0
    u = np.array([[1, 0]])
    v = np.array([[0], [1]])
    cx, exact = koszul_gamma_complex(u, v, 2, Z9)
    assert exact
    assert [cx.dim(d, 0) for d in (3, 2, 1, 0)] == [1, 3, 2, 0]
    assert 1 - 3 + 2 - 0 == 0


def test_koszul_gamma_degenerate_cases():
    # 0 -> A -> A -> 0 -> 0: reduces to Gamma^n(A) = Gamma^n(A)
    u = np.array([[1]])
    v = np.zeros((1, 0), dtype=np.int64)
    for n in (1, 2, 3):
        cx, exact = koszul_gamma_complex(u, v, n, Z9)
        assert exact
        assert cx.dim(n + 1, 0) == 1 and cx.dim(n, 0) == 1
    # 0 -> 0 -> A -> A -> 0, n = 1: A = A
    u = np.zeros((0, 1), dtype=np.int64)
    v = np.array([[1]])
    cx, exact = koszul_gamma_complex(u, v, 1, Z9)
    assert exact


def test_koszul_gamma_rejects_nonzero_composite():
    u = np.array([[1]])
    v = np.array([[1]])
    with pytest.raises(ValueError):
        koszul_gamma_complex(u, v, 2, Z9)


def test_koszul_gamma_random_split_exact():
    rng = random.Random(7)
    for ring in (Z9, F2):
        for _ in range(8):
            a = rng.randint(1, 2)
            c = rng.randint(1, 2)
            f = a + c
            q, qinv = random_invertible(f, ring, rng)
            u = (np.hstack([np.eye(a, dtype=np.int64), np.zeros((a, c), dtype=np.int64)]) @ q) % ring.modulus
            v = (qinv @ np.vstack([np.zeros((a, c), dtype=np.int64), np.eye(c, dtype=np.int64)])) % ring.modulus
            for n in (1, 2, 3):
                cx, exact = koszul_gamma_complex(u, v, n, ring)
                assert exact


# ---------------------------------------------------------------------------
# wedge^n by Laplace recursion against the per-minor reference

WEDGE_RINGS = [ModRing(2, 1), ModRing(3, 1), ModRing(2, 2), ModRing(3, 2), ModRing(3, 3), ModRing(3, 19)]


def assert_wedge_matches_reference(phi, n, ring):
    got = wedge_matrix(phi, n, ring)
    want = reference_wedge_matrix(phi, n, ring)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert (got == want).all()


@pytest.mark.parametrize("ring", WEDGE_RINGS, ids=str)
def test_wedge_matrix_matches_reference(ring):
    rng = random.Random(ring.modulus)
    m = ring.modulus
    for _ in range(60):
        r, s = rng.randint(1, 6), rng.randint(1, 6)
        phi = np.array([[rng.randint(-m, 2 * m - 1) for _ in range(s)] for _ in range(r)], dtype=np.int64)
        for n in range(min(r, s) + 2):
            assert_wedge_matches_reference(phi, n, ring)


def test_wedge_matrix_at_the_int64_edge():
    ring = ModRing(3, 19)
    m = ring.modulus
    for r, s in ((5, 5), (4, 6), (6, 3)):
        phi = np.full((r, s), m - 1, dtype=np.int64)
        phi[0, 0] = -1
        phi[-1, 1] = -(m - 1)
        for n in range(min(r, s) + 1):
            assert_wedge_matches_reference(phi, n, ring)


def test_wedge_matrix_degenerate_shapes():
    ring = Z9
    for r, s in ((0, 3), (3, 0), (0, 0)):
        phi = np.zeros((r, s), dtype=np.int64)
        for n in range(3):
            assert_wedge_matches_reference(phi, n, ring)
    phi = np.array([[1, 2, 3], [4, 5, 6]])
    assert (wedge_matrix(phi, 0, ring) == [[1]]).all()
    for n in (3, 4):
        out = wedge_matrix(phi, n, ring)
        assert out.shape == (comb(2, n), comb(3, n)) and out.dtype == np.int64
        assert_wedge_matches_reference(phi, n, ring)


def test_wedge_matrix_rejects_negative_power():
    with pytest.raises(ValueError):
        wedge_matrix(np.eye(2, dtype=np.int64), -1, Z9)


@st.composite
def _composable_pairs(draw):
    ring = draw(st.sampled_from(WEDGE_RINGS))
    r, k, s = (draw(st.integers(0, 5)) for _ in range(3))
    entries = st.integers(-ring.modulus, ring.modulus - 1)
    a = np.array(draw(st.lists(entries, min_size=r * k, max_size=r * k)), dtype=np.int64).reshape(r, k)
    b = np.array(draw(st.lists(entries, min_size=k * s, max_size=k * s)), dtype=np.int64).reshape(k, s)
    return ring, a, b, draw(st.integers(0, 5))


@settings(max_examples=150, deadline=None)
@given(_composable_pairs())
def test_wedge_matrix_is_multiplicative(case):
    ring, a, b, n = case
    ab = mmul(a % ring.modulus, b % ring.modulus, ring)
    product = mmul(wedge_matrix(a, n, ring), wedge_matrix(b, n, ring), ring)
    assert (wedge_matrix(ab, n, ring) == product).all()


def _checking_wedge(monkeypatch):
    """Check every wedge_matrix call against the reference as it happens."""
    seen = []
    library = pdpow.wedge_matrix

    def checked(phi, n, ring):
        assert_wedge_matches_reference(phi, n, ring)
        seen.append(phi.shape)
        return library(phi, n, ring)

    monkeypatch.setattr(pdpow, "wedge_matrix", checked)
    return seen


@pytest.mark.parametrize("call,entry,where", [
    (0, (1, 0), "degree 1, map d_0, weight 1"),
    (2, (0, 1), "degree 0, map s_0, weight 0"),
])
def test_a_functor_image_that_is_not_weight_preserving_names_its_map(monkeypatch, call, entry, where):
    from derhamkit.simplex import SimplicialModule

    one = np.array([[1]])
    x = SimplicialModule(F2, 1, {(n, w): 1 for n in (0, 1) for w in (0, 1)},
                         {(1, i, w): one for i in (0, 1) for w in (0, 1)},
                         {(0, 0, w): one for w in (0, 1)})
    fx = pdpow.apply_functor_to_module(x, "wedge", 1)  # wedge^1 is the identity
    assert fx.dims == x.dims and fx.faces.keys() == x.faces.keys() and fx.degens.keys() == x.degens.keys()
    made = []

    def leaky(phi, n, ring):
        # the flattened basis is (weight 0, weight 1): entry (1, 0) maps weight 1 to weight 0
        out = wedge_matrix(phi, n, ring)
        if len(made) == call:
            out[entry] = 1
        made.append(out)
        return out

    monkeypatch.setattr(pdpow, "wedge_matrix", leaky)
    with pytest.raises(AssertionError, match=rf"not weight-preserving at \({where}\)"):
        pdpow.apply_functor_to_module(x, "wedge", 1).degens[(0, 0, 0)]  # the degeneracies are built on read
    assert len(made) == call + 1


def test_the_functor_images_of_the_degeneracies_are_built_when_one_is_read(monkeypatch):
    from derhamkit.simplex import SimplicialModule

    one = np.array([[1]])
    x = SimplicialModule(F2, 1, {(n, 0): 1 for n in (0, 1)}, {(1, i, 0): one for i in (0, 1)}, {(0, 0, 0): one})
    made = []
    honest = pdpow.wedge_matrix
    monkeypatch.setattr(pdpow, "wedge_matrix", lambda phi, n, ring: made.append(phi) or honest(phi, n, ring))
    fx = pdpow.apply_functor_to_module(x, "wedge", 1)
    assert len(made) == 2 and list(fx.degens) == [(0, 0, 0)]  # the two faces
    assert (fx.degen(0, 0, 0) == one).all() and len(made) == 3
    fx.degen(0, 0, 0)
    assert len(made) == 3


def test_quillen_shift_wedges_match_reference(monkeypatch):
    seen = _checking_wedge(monkeypatch)
    report = run_suite("quillen-shift", {"power": 2}, seed=1)
    assert report.summary["fail"] == 0
    assert seen


def test_derived_power_route_wedges_match_reference(monkeypatch):
    # deg f = 1, as in drpd-modp: gr^level is compared with a derived wedge
    seen = _checking_wedge(monkeypatch)
    f = build_derham(AlgebraPresentation(ModRing(3, 1), "quotient", "x", (0, 1)),
                     hodge_cut=3, window=(0, 2), weight_bound=3)
    for level in (1, 2):
        assert reference_derham.graded_piece_report(f, level).ok
    assert seen


def test_quillen_shift_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, several ms in a fresh
    # process; re-slicing a functor image by weight must not need it
    code = ("import sys\n"
            "from derhamkit.suites import run_suite\n"
            "assert run_suite('quillen-shift', {'power': 3}).exit_code() == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
