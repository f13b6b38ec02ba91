"""Polynomial algebras, slice bases, exponent rows; the dict-based forms of
``reference_polyalg`` (ring maps, de Rham differential, wedge products)."""

import itertools
import random

import numpy as np
import pytest

from derhamkit import polyalg
from derhamkit.exactlin import ModRing
from derhamkit.polyalg import PolyAlgebra, graded_slice_basis, row_positions

import reference_polyalg
from reference_polyalg import AlgebraMap, DifferentialForm, Poly, apply_map, derham_d, one, variable, wedge, zero

F5 = ModRing(5, 1)
Z4 = ModRing(2, 2)


def alg_xy(ring=F5):
    return PolyAlgebra(ring, ("x", "y"), (1, 1))


def dform(f: Poly) -> DifferentialForm:
    return DifferentialForm.from_poly(f)


def random_form(alg, rng, degree, max_exp=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, max_exp) for _ in range(alg.nvars))
        w = tuple(sorted(rng.sample(range(alg.nvars), degree))) if degree else ()
        if len(set(w)) == degree:
            terms[(e, w)] = rng.randrange(alg.ring.modulus)
    return DifferentialForm(alg, degree, terms)


def test_apply_map_substitution():
    a = PolyAlgebra(F5, ("x", "x1"), (1, 1), base_var="x")
    b = PolyAlgebra(F5, ("x",), (1,), base_var="x")
    phi = AlgebraMap(a, b, (variable(b, "x"), variable(b, "x")))
    f = variable(a, "x1") * variable(a, "x1")
    assert apply_map(phi, f) == variable(b, "x") * variable(b, "x")

    psi = AlgebraMap(a, b, (variable(b, "x"), zero(b)))
    g = variable(a, "x") * variable(a, "x1") + one(a)
    assert apply_map(psi, g) == one(b)

    ident = AlgebraMap(a, a, (variable(a, "x"), variable(a, "x1")))
    rng = random.Random(0)
    for _ in range(10):
        h = Poly(a, {(rng.randint(0, 3), rng.randint(0, 3)): rng.randrange(5) for _ in range(3)})
        assert apply_map(ident, h) == h


def test_apply_map_multiplicative_and_weight_preserving():
    a = PolyAlgebra(Z4, ("x", "t"), (1, 2))
    b = PolyAlgebra(Z4, ("x",), (1,))
    phi = AlgebraMap(a, b, (variable(b, "x"), variable(b, "x") * variable(b, "x")))
    assert phi.is_weight_compatible()
    rng = random.Random(1)
    for _ in range(20):
        f = Poly(a, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randrange(4) for _ in range(2)})
        g = Poly(a, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randrange(4) for _ in range(2)})
        assert apply_map(phi, f * g) == apply_map(phi, f) * apply_map(phi, g)
        if f.weight() is not None and not f.is_zero():
            img = apply_map(phi, f)
            assert img.is_zero() or img.weight() == f.weight()


def test_derham_d_examples():
    alg = alg_xy()
    x, y = variable(alg, "x"), variable(alg, "y")
    # d(x^2 y) = 2xy dx + x^2 dy
    d = derham_d(dform(x * x * y))
    expected = DifferentialForm(alg, 1, {((1, 1), (0,)): 2, ((2, 0), (1,)): 1})
    assert d == expected
    # d(dx) = 0
    dx = DifferentialForm(alg, 1, {(((0, 0)), (0,)): 1})
    assert derham_d(dx).is_zero()
    # d(x dy) = dx ^ dy
    xdy = DifferentialForm(alg, 1, {((1, 0), (1,)): 1})
    assert derham_d(xdy) == DifferentialForm(alg, 2, {((0, 0), (0, 1)): 1})


def test_d_squared_zero_random():
    rng = random.Random(7)
    alg = PolyAlgebra(F5, ("x", "y", "z"), (1, 1, 2))
    for deg in (0, 1):
        for _ in range(20):
            w = random_form(alg, rng, deg)
            assert derham_d(derham_d(w)).is_zero()


def test_leibniz_random():
    rng = random.Random(9)
    alg = PolyAlgebra(F5, ("x", "y", "z"), (1, 1, 1))
    for da, db in ((0, 0), (0, 1), (1, 1)):
        for _ in range(15):
            a = random_form(alg, rng, da)
            b = random_form(alg, rng, db)
            lhs = derham_d(wedge(a, b))
            rhs = wedge(derham_d(a), b) + wedge(a, derham_d(b)).scale((-1) ** da)
            assert lhs == rhs


def test_wedge_signs():
    alg = alg_xy()
    dx = DifferentialForm(alg, 1, {((0, 0), (0,)): 1})
    dy = DifferentialForm(alg, 1, {((0, 0), (1,)): 1})
    assert wedge(dx, dy) == wedge(dy, dx).scale(-1)
    assert wedge(dx, dx).is_zero()
    x, y = variable(alg, "x"), variable(alg, "y")
    xdx = DifferentialForm(alg, 1, {((1, 0), (0,)): 1})
    ydy = DifferentialForm(alg, 1, {((0, 1), (1,)): 1})
    assert wedge(xdx, ydy) == DifferentialForm(alg, 2, {((1, 1), (0, 1)): 1})


def test_graded_slice_basis_examples():
    kx = PolyAlgebra(F5, ("x",), (1,))
    assert graded_slice_basis(kx, 0, 2).tolist() == [[2]]

    kxx1 = PolyAlgebra(F5, ("x", "x1"), (1, 1), base_var="x")
    # rows: the wedge index, then the exponents; x dx, x1 dx, x dx1, x1 dx1
    basis = graded_slice_basis(kxx1, 1, 2)
    assert basis.dtype == np.int64
    assert basis.tolist() == [[0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1]]

    assert graded_slice_basis(kxx1, 1, 0).shape == (0, 3)


def monomial_count(weights, weight):
    """Number of monomials of the given weight: [t^weight] prod 1/(1-t^w)."""
    dp = [1] + [0] * weight
    for w in weights:
        for t in range(w, weight + 1):
            dp[t] += dp[t - w]
    return dp[weight]


def test_slice_basis_matches_generating_function():
    rng = random.Random(13)
    for _ in range(10):
        nv = rng.randint(1, 3)
        weights = tuple(rng.randint(1, 3) for _ in range(nv))
        alg = PolyAlgebra(F5, tuple(f"v{i}" for i in range(nv)), weights)
        w = rng.randint(0, 6)
        assert len(alg.monomials_of_weight(w)) == monomial_count(weights, w)
        # degree-1 slice: sum over which variable carries the d
        count = len(graded_slice_basis(alg, 1, w))
        expected = sum(monomial_count(weights, w - weights[j]) for j in range(nv) if weights[j] <= w)
        assert count == expected


def test_algebra_json_roundtrip():
    alg = PolyAlgebra(Z4, ("x", "t"), (1, 2), base_var="x")
    again = reference_polyalg.from_json(reference_polyalg.to_json(alg))
    assert again == alg


def test_equal_algebras_compare_and_hash_alike_whatever_their_tables_hold():
    alg = PolyAlgebra(Z4, ("x", "t"), (1, 2), base_var="x")
    alg.monomials_of_weight(4)
    fresh = PolyAlgebra(Z4, ("x", "t"), (1, 2), "x")
    assert fresh == alg and hash(fresh) == hash(alg)
    for other in (PolyAlgebra(Z4, ("x", "t"), (1, 2)), PolyAlgebra(F5, ("x", "t"), (1, 2), "x"),
                  PolyAlgebra(Z4, ("x", "t"), (1, 1), "x")):
        assert other != alg
    for args, message in (((("x", "x"), (1, 1)), "distinct"), ((("x", "t"), (1,)), "one weight per variable"),
                          ((("x",), (1,), "t"), "not among variables")):
        with pytest.raises(ValueError, match=message):
            PolyAlgebra(Z4, *args)


def test_weight_zero_variable_rejected():
    with pytest.raises(ValueError):
        PolyAlgebra(F5, ("x",), (0,))


def test_algebra_json_external_format():
    literal = '{"coeff":{"p":2,"n":2},"vars":[{"name":"x","weight":1}], "base_var":"x"}'
    alg = reference_polyalg.from_json(literal)
    assert alg.ring == Z4 and alg.variables == ("x",) and alg.base_var == "x"


def test_monomials_of_weight_is_memoized_in_descending_lex_order():
    alg = PolyAlgebra(F5, ("x", "s", "t"), (1, 2, 2))
    for w in range(7):
        brute = sorted((e for e in itertools.product(range(w + 1), repeat=3)
                        if reference_polyalg.monomial_weight(alg, e) == w), reverse=True)
        got = alg.monomials_of_weight(w)
        assert got.dtype == np.int64 and got.shape == (len(brute), 3)
        assert got.tolist() == [list(e) for e in brute]
        assert alg.monomials_of_weight(w) is got


@pytest.mark.parametrize("weights", [(), (1,), (2, 3, 1), (1, 2, 2, 2), (1, 3, 3, 3, 3), (1,) * 7])
def test_monomials_of_weight_equals_the_recursive_reference(weights):
    alg = PolyAlgebra(F5, tuple(f"v{i}" for i in range(len(weights))), weights)
    for w in range(-1, 9):
        want = reference_polyalg.monomials_of_weight(alg, w)
        got = alg.monomials_of_weight(w)
        assert got.shape == (len(want), len(weights)) and got.tolist() == [list(e) for e in want], w


def test_slice_bases_with_occurring_variables():
    alg = PolyAlgebra(F5, ("x", "s", "t"), (1, 2, 3))
    for w in range(12):
        for occurring in ((), (1,), (2,), (1, 2), (0, 1, 2)):
            for degree in range(3):
                full = graded_slice_basis(alg, degree, w, wedge_vars=(1, 2))
                keep = [all(r[degree + k] or k in r[:degree] for k in occurring) for r in full.tolist()]
                got = graded_slice_basis(alg, degree, w, wedge_vars=(1, 2), occurring=occurring)
                assert got.shape == (sum(keep), degree + 3)
                assert np.array_equal(got, full[np.array(keep, dtype=bool)]), (w, occurring, degree)


def drpd_block_keys(d: int) -> list[tuple[int, int, int]]:
    """The (j, i, w) of every block Omega^i(Q_j) with j d <= w (the others
    have no rows) whose basis the de Rham builds of ``drpd-modp`` up to
    weight bound 9 (Hodge cut 10, window top 2) and of ``drpd-envelope`` up
    to weight bound 10 (Hodge cut 10 // d + 1, window top 1) read at
    deg f = d: i below the cut and j - i from -1 to one past the window
    top.  The keys of a bound contain those of every lower bound."""
    keys = set()
    for wb, cut, top in ((9, 10, 2), (10, 10 // d + 1, 1)):
        keys |= {(j, i, w) for w in range(wb + 1) for j in range(w // d + 1)
                 for i in range(max(j - top - 1, 0), min(j + 2, cut))}
    return sorted(keys)


def slice_basis_mismatches(d: int) -> list[tuple[int, int, int]]:
    """The drpd blocks at deg f = d whose library rows (over a fresh
    resolution algebra per j, so every monomial table is built here) differ
    from the tuple reference: in dtype, shape or any entry."""
    algebras = {}
    out = []
    for j, i, w in drpd_block_keys(d):
        alg = algebras.setdefault(j, PolyAlgebra(F5, ("x", *(f"t{s}" for s in range(1, j + 1))), (1,) + (d,) * j))
        t_vars = range(1, j + 1)
        got = graded_slice_basis(alg, i, w, wedge_vars=t_vars, occurring=t_vars)
        want = reference_polyalg.form_rows(
            reference_polyalg.graded_slice_basis(alg, i, w, wedge_vars=t_vars, occurring=t_vars), i, j + 1)
        if got.dtype != np.int64 or got.shape != want.shape or not np.array_equal(got, want):
            out.append((j, i, w))
    return out


@pytest.mark.parametrize("d", [1, 2, 3], ids=["x", "x^2", "x^3"])
def test_slice_bases_equal_the_tuple_reference_on_every_drpd_block(d):
    assert len(drpd_block_keys(d)) == {1: 259, 2: 118, 3: 74}[d]
    assert slice_basis_mismatches(d) == []


def test_a_dropped_bump_row_is_caught(monkeypatch):
    # of two or more wedge sets, the last loses its bump row and so its rows:
    # first at Omega^1(Q_2), weight 2 (t_2 dt_1 and t_1 dt_2)
    honest = polyalg._bump_rows

    def dropped(*args):
        rows = honest(*args)
        return rows[:-1] if len(rows) > 1 else rows

    monkeypatch.setattr(polyalg, "_bump_rows", dropped)
    assert slice_basis_mismatches(1)[:3] == [(2, 1, 2), (2, 1, 3), (2, 1, 4)]


def test_two_swapped_monomial_rows_are_caught(monkeypatch):
    honest = PolyAlgebra.monomials_of_weight

    def swapped(self, w):
        rows = honest(self, w)
        return rows[[1, 0, *range(2, len(rows))]] if len(rows) > 1 else rows

    monkeypatch.setattr(PolyAlgebra, "monomials_of_weight", swapped)
    # first at Q_1, weight 2: x t_1 and t_1^2 change places
    assert slice_basis_mismatches(1)[:3] == [(1, 0, 2), (1, 0, 3), (1, 0, 4)]


def test_row_positions_finds_rows_also_past_the_int64_key_range():
    # rows that differ only in their first column, six columns of radix 2^40:
    # mixed-radix keys would need 240 bits, and wrapped int64 keys would
    # drop the first column, so the keys are ranked between columns
    rng = np.random.default_rng(5)
    for scale in (3, 2**40):
        prefixes = rng.choice(scale, size=min(scale, 20), replace=False)
        suffixes = np.unique(rng.integers(0, scale, size=(15, 5)), axis=0)
        suffixes[0] = scale - 1
        table = np.array([[a, *b] for a in prefixes for b in suffixes], dtype=np.int64)
        rng.shuffle(table)
        absent = table[:40].copy()
        absent[:20, 0] = scale  # a new first column
        absent[20:, 3] = scale  # a new later column
        rows = np.concatenate([table[rng.integers(0, len(table), 200)], absent])
        index = {tuple(r): k for k, r in enumerate(table.tolist())}
        pos, found = row_positions(table, rows)
        for r, k, hit in zip(rows.tolist(), pos.tolist(), found.tolist()):
            assert hit == (tuple(r) in index)
            if hit:
                assert k == index[tuple(r)]
    pos, found = row_positions(np.zeros((0, 2), dtype=np.int64), np.array([[1, 2]]))
    assert not found.any()
