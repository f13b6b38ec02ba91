"""Divided powers: products, composition, filtration, derived functors, Koszul."""

import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_exactlin import wedge_matrix as reference_wedge_matrix

import derhamkit.pdpow as pdpow
from derhamkit.complexes import GradedSliceComplex
from derhamkit.cotangent import AlgebraPresentation
from derhamkit.derham import build_derham, graded_piece_report
from derhamkit.exactlin import ModRing, mmul
from derhamkit.pdpow import (
    PDAlgebra,
    PDElement,
    compose_coefficient,
    derived_power,
    exterior_filtration,
    gamma_matrix,
    gamma_monomials,
    koszul_gamma_complex,
    pd_filtration,
    pd_gamma,
    pd_multiply,
    wedge_matrix,
)
from derhamkit.randomgen import random_invertible
from derhamkit.suites import run_suite

Z16 = ModRing(2, 4)
F2 = ModRing(2, 1)
Z9 = ModRing(3, 2)


def one_var(ring, trunc=12):
    return PDAlgebra(ring, ("t",), (1,), trunc)


def test_pd_product_binomials():
    alg = one_var(Z16)
    g = alg.gamma
    assert pd_multiply(g("t", 2), g("t", 3)) == g("t", 5).scale(10)
    alg2 = one_var(F2)
    assert pd_multiply(alg2.gamma("t", 2), alg2.gamma("t", 3)).is_zero()


def test_pd_unit():
    alg = one_var(Z16)
    rng = random.Random(1)
    x = PDElement(alg, {(k,): rng.randrange(16) for k in range(5)})
    assert pd_multiply(alg.one(), x) == x


def test_gamma_composition():
    alg = one_var(Z16)
    assert compose_coefficient(2, (2,)) == 3
    assert pd_gamma(2, alg.gamma("t", 2)) == alg.gamma("t", 4).scale(3)


def test_pd_axioms_random():
    rng = random.Random(5)
    alg = PDAlgebra(Z9, ("a", "b"), (1, 2), 10)
    ideal_monos = [e for e in alg.monomials() if sum(e) >= 1]
    for _ in range(10):
        x = PDElement(alg, {rng.choice(ideal_monos): rng.randrange(9) for _ in range(2)})
        y = PDElement(alg, {rng.choice(ideal_monos): rng.randrange(9) for _ in range(2)})
        lam = rng.randrange(9)
        for k in range(4):
            # additivity
            lhs = pd_gamma(k, x + y)
            rhs = alg.zero()
            for s in range(k + 1):
                rhs = rhs + pd_multiply(pd_gamma(s, x), pd_gamma(k - s, y))
            if not (lhs.truncated or rhs.truncated):
                assert lhs == rhs
            # scaling
            ls = pd_gamma(k, x.scale(lam))
            rs = pd_gamma(k, x).scale(pow(lam, k, 9))
            if not (ls.truncated or rs.truncated):
                assert ls == rs


def test_truncation_flag_is_sticky():
    alg = one_var(Z16, trunc=3)
    big = pd_multiply(alg.gamma("t", 2), alg.gamma("t", 2))
    assert big.is_zero() and big.truncated
    carried = big + alg.one()
    assert carried.truncated


def test_pd_filtration_levels():
    alg = one_var(Z16, trunc=6)
    lvl2 = pd_filtration(alg, 2)
    assert set(lvl2.basis) == {(j,) for j in range(2, 7)}
    lvl0 = pd_filtration(alg, 0)
    assert len(lvl0.basis) == 7
    # graded piece has rank one per level for a single generator
    for i in range(1, 6):
        assert len(pd_filtration(alg, i).basis) - len(pd_filtration(alg, i + 1).basis) == 1


def test_pd_filtration_closure_multigenerator():
    rng = random.Random(11)
    alg = PDAlgebra(Z9, ("a", "b"), (1, 1), 6)
    lvl = pd_filtration(alg, 2)
    ideal_monos = [e for e in alg.monomials() if sum(e) >= 1]
    # random products gamma_{j1}(y1) gamma_{j2}(y2) with j1 + j2 >= 2 stay in the span
    for _ in range(25):
        y1 = PDElement(alg, {rng.choice(ideal_monos): rng.randrange(1, 9)})
        y2 = PDElement(alg, {rng.choice(ideal_monos): rng.randrange(1, 9)})
        j1 = rng.randint(1, 3)
        j2 = rng.randint(max(1, 2 - j1), 3)
        prod = pd_multiply(pd_gamma(j1, y1), pd_gamma(j2, y2))
        assert lvl.contains(prod)


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


def test_derived_gamma_of_free_module_degree_zero():
    ring = ModRing(2, 2)
    c = GradedSliceComplex(ring, 0, 0, {(0, 0): 2}, {})
    rep = derived_power(c, "gamma", 2, degrees=range(3))
    assert rep.factors(0, 0) == [4, 4, 4]
    assert all(not rep.factors(d, 0) for d in (1, 2))


def test_quillen_shift_small():
    # wedge^2 of (Z/4 in degree 1): H_2 = Z/4, all else zero in window
    ring = ModRing(2, 2)
    c = GradedSliceComplex(ring, 0, 1, {(1, 0): 1}, {})
    rep = derived_power(c, "wedge", 2, degrees=range(4))
    assert rep.factors(2, 0) == [4]
    for d in (0, 1, 3):
        assert not rep.factors(d, 0)


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


def test_exterior_filtration_examples():
    ring = Z9
    # M' = A inside M = A^3, i = 2: graded ranks 0, 2, 1; total 3
    u = np.array([[1, 0, 0]])
    section = np.array([[0, 1, 0], [0, 0, 1]])
    rep = exterior_filtration(u, section, 2, ring)
    assert rep.ok
    assert rep.graded_ranks == [0, 2, 1]
    assert rep.total_rank == 3
    # i = 0: single piece
    rep0 = exterior_filtration(u, section, 0, ring)
    assert rep0.ok and rep0.total_rank == 1 and rep0.graded_ranks == [1]
    # i > rank M: zero
    rep4 = exterior_filtration(u, section, 4, ring)
    assert rep4.ok and rep4.total_rank == 0


def test_exterior_filtration_matches_per_minor_wedges(monkeypatch):
    # the reports built on the per-minor determinant wedges, as before the
    # Laplace recursion, on the examples above and on twisted splittings
    examples = [(np.array([[1, 0, 0]]), np.array([[0, 1, 0], [0, 0, 1]]), i, Z9) for i in range(5)]
    rng = random.Random(11)
    for ring in (Z9, F2, ModRing(3, 3)):
        for _ in range(3):
            a, c = rng.randint(1, 2), rng.randint(1, 2)
            q, _ = random_invertible(a + c, ring, rng)
            examples += [(q[:a], q[a:], i, ring) for i in range(a + c + 1)]
    got = [exterior_filtration(*ex) for ex in examples]

    def per_minor_wedge_rows(rows, rg, ring):
        stacked = np.array(rows, dtype=np.int64).reshape(len(rows), rg)
        return reference_wedge_matrix(stacked, len(rows), ring)[0]

    monkeypatch.setattr(pdpow, "_wedge_rows", per_minor_wedge_rows)
    assert got == [exterior_filtration(*ex) for ex in examples]
    assert all(rep.ok for rep in got)


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
        pdpow.apply_functor_to_module(x, "wedge", 1)
    assert len(made) == call + 1


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
        assert graded_piece_report(f, level).ok
    assert seen
