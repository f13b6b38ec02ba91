"""Filtered de Rham complexes: Hodge quotients, graded pieces, thickenings,
divided-power envelope comparisons, and the shuffle ring structure."""

import collections
import hashlib
import sys
import time
import tracemalloc

import numpy as np
import pytest

from derhamkit import complexes, polyalg
from derhamkit.complexes import homology_quotient, homology_report, slice_homology
from derhamkit.cotangent import AlgebraPresentation, DepthError
from derhamkit.derham import (
    build_derham,
    h0_shuffle_product,
    hodge_quotient_homology,
    pd_envelope_report,
    universal_thickening,
)
from derhamkit.exactlin import ModRing, mzeros
from derhamkit.pdpow import derived_power
from derhamkit.suites import run_suite

import reference_cotangent
import reference_derham
import reference_polyalg
from memory import traced_peak

F2 = ModRing(2, 1)
F3 = ModRing(3, 1)
Z4 = ModRing(2, 2)


def pres_x(ring):
    return AlgebraPresentation(ring, "quotient", "x", (0, 1))


def test_build_structure_and_cut_one():
    # m = 1: the complex computes gr^0, i.e. the resolution itself: H_0 = B
    f = build_derham(pres_x(F2), hodge_cut=1, window=(0, 1), weight_bound=3)
    assert slice_homology(f.total, 0, 0) == [2]
    for w in (1, 2, 3):
        assert slice_homology(f.total, 0, w) == []
    # m = 2: the degree-0 term is Q_0 + Omega^1(Q_1)
    f2 = build_derham(pres_x(F2), hodge_cut=2, window=(0, 1), weight_bound=3)
    lay, total = f2.layout(0, 1)
    assert [(j, i) for (j, i, _) in lay] == [(0, 0), (1, 1)]
    assert total == 2  # x and dt_1 at weight 1


def test_depth_guard():
    from derhamkit.cotangent import FreeSimplicialResolution
    from derhamkit.derham import FilteredDeRhamComplex

    res = FreeSimplicialResolution(pres_x(F2), d_max=2, weight_bound=3)
    with pytest.raises(DepthError):
        FilteredDeRhamComplex(res, hodge_cut=3, window=(0, 2), weight_bound=3)


def test_hodge_quotient_dimensions_mod_p():
    for ring in (F2, F3):
        f = build_derham(pres_x(ring), hodge_cut=5, window=(0, 1), weight_bound=4)
        for i in range(1, 5):
            rep = hodge_quotient_homology(f, i, degrees=[0])
            dim = sum(len(e["factors"]) for (n, _), e in rep.entries.items() if n == 0)
            assert dim == i
        # i = 1: H_0 = B
        rep1 = hodge_quotient_homology(f, 1, degrees=[0])
        assert rep1.factors(0, 0) == [ring.modulus]


def test_hodge_quotient_sizes_mod_four():
    f = build_derham(pres_x(Z4), hodge_cut=4, window=(0, 1), weight_bound=3)
    for i in range(1, 5):
        rep = hodge_quotient_homology(f, min(i, 4), degrees=[0])
        size = 1
        for (n, _), e in rep.entries.items():
            if n == 0:
                for fac in e["factors"]:
                    size *= fac
        assert size == 4 ** min(i, 4)


def test_hodge_additivity_against_derived_power():
    # length H_0(F^i) - length H_0(F^{i-1}) equals the gr^{i-1} length
    # computed independently through the derived power functor
    from derhamkit.cotangent import shortcut_conormal_complex

    f = build_derham(pres_x(F2), hodge_cut=4, window=(0, 1), weight_bound=3)
    lengths = {}
    for i in range(1, 5):
        rep = hodge_quotient_homology(f, min(i, f.hodge_cut), degrees=[0])
        lengths[i] = sum(e["length"] for (n, _), e in rep.entries.items() if n == 0)
    small = shortcut_conormal_complex(pres_x(F2), 4)
    for i in range(2, 4):
        rep = derived_power(small, "wedge", i - 1, degrees=range(i))
        gr_len = sum(e["length"] for e in rep.entries.values())
        assert lengths[i] - lengths[i - 1] == gr_len


def test_graded_pieces():
    f = build_derham(pres_x(F3), hodge_cut=3, window=(0, 2), weight_bound=3)
    g0 = reference_derham.graded_piece_report(f, 0)
    assert g0.ok
    g2 = reference_derham.graded_piece_report(f, 2)
    assert g2.ok and g2.verdicts.get((0, 2)) == ([3], [3], True)
    # B = F_2[x]/(x^2): gr^1 is a rank-two (= rank-p) module
    fx2 = build_derham(AlgebraPresentation(F2, "quotient", "x", (0, 0, 1)),
                       hodge_cut=2, window=(0, 2), weight_bound=6)
    g1 = reference_derham.graded_piece_report(fx2, 1)
    assert g1.ok
    assert sum(len(l) for (l, _, _) in g1.verdicts.values()) == 2


def thickening_ok(t) -> bool:
    """Every verdict of a ``universal_thickening`` result."""
    return t.square_zero_ok and t.sequence_lengths_ok and t.comparison_bijective


def test_universal_thickening_z4():
    pres = AlgebraPresentation(Z4, "quotient", "y", (0, 1))
    t = universal_thickening(pres, weight_bound=2)
    assert thickening_ok(t)
    # 16 elements supported in weights <= 1
    size = 1
    for w, q in t.h0.items():
        size *= q.size
    assert size == 16
    assert t.h0[0].factors == [4] and t.h0[1].factors == [4]
    assert t.h0[2].factors == []


def _assert_square_is_zero_below_f2(f, prod):
    """``prod``, a degree-0 weight-2 vector of the cut-3 build ``f``, has no
    coordinate in the corner below column 2 and is zero in the H_0 of that
    corner, the F^2-truncation ``universal_thickening`` reads."""
    cx = f.quotient_complex(2)
    assert not prod[:cx.dim(0, 2)].any()
    q = homology_quotient(cx, 0, 2)
    assert q.coords(prod @ reference_derham.quotient_map(f, 3, 2, 0, 2)) == (0,) * len(q.factors)


def test_universal_thickening_square_zero_explicit():
    pres = AlgebraPresentation(Z4, "quotient", "y", (0, 1))
    # cut 3 keeps column 2, where the product of two column-1 forms lands
    f = build_derham(pres, hodge_cut=3, window=(0, 1), weight_bound=2)
    omega = f.basis_vectors(0, 1, [(1, 1, (1, 0, 0))])[0]
    prod = h0_shuffle_product(f, omega, 1, omega, 1)
    # dt_1 . dt_1 = -2 dt_1 ^ dt_2 = 2 dt_1 ^ dt_2 over Z/4
    assert prod.tolist() == (2 * f.basis_vectors(0, 2, [(2, 2, (1, 2, 0, 0, 0))])[0]).tolist()
    _assert_square_is_zero_below_f2(f, prod)
    planted = prod.copy()
    planted[np.searchsorted(f.total.columns[(0, 2)], 1)] += 1
    with pytest.raises(AssertionError):
        _assert_square_is_zero_below_f2(f, planted)


def test_ideal_squares_to_zero_multiplies_and_fails_on_a_column_one_term(monkeypatch):
    from derhamkit import derham

    honest, products = derham.h0_shuffle_product, []

    def recorded(*args):
        products.append(honest(*args))
        return products[-1]

    monkeypatch.setattr(derham, "h0_shuffle_product", recorded)
    report = run_suite("universal-thickening")
    assert report.exit_code() == 0
    # [dt_1] [dt_1] = -2 dt_1 ^ dt_2: the products are formed, in F^2
    assert products and any(p.any() for p in products)

    def with_column_one_term(f, u, wu, v, wv):
        prod = honest(f, u, wu, v, wv)
        prod[np.searchsorted(f.total.columns[(0, wu + wv)], 1)] += 1
        return prod

    monkeypatch.setattr(derham, "h0_shuffle_product", with_column_one_term)
    cases = {c.name: c.status for c in run_suite("universal-thickening").cases}
    assert cases.pop("ideal-squares-to-zero") == "fail"
    assert set(cases.values()) == {"pass"}


def test_universal_thickening_needs_vanishing_differentials():
    # F_2[x]/(x^2) over F_2: the Kaehler module is generated by dx, rank 1
    with pytest.raises(ValueError, match="needs vanishing relative differentials"):
        universal_thickening(AlgebraPresentation(F2, "hypersurface", "x", (0, 0, 1)), 2)


@pytest.mark.parametrize("f_coeffs", [(0, 1), (0, 0, 1)], ids=["x", "x^2"])
def test_basis_vectors_are_the_one_element_lookups(f_coeffs):
    """Every element of every slice, looked up all at once, gives the unit
    vector the one-element reference gives; an element not in its block,
    a block not in the slice and a row of the wrong width are KeyErrors."""
    f = build_derham(AlgebraPresentation(Z4, "quotient", "x", f_coeffs), hodge_cut=4, window=(0, 1),
                     weight_bound=5)
    for n in range(f.window[0], f.window[1] + 2):
        for w in range(6):
            lay, total = f.layout(n, w)
            elements = [(j, i, row.tolist()) for j, i, _ in lay for row in f.res.form_basis(j, i, w)]
            elements = elements[::-1]  # not in slice order
            got = f.basis_vectors(n, w, elements)
            assert got.dtype == np.int64 and got.shape == (len(elements), total)
            for vec, (j, i, row) in zip(got, elements):
                assert np.array_equal(vec, reference_derham.basis_vector(f, n, w, j, i, row))
    j, i, _ = f.layout(0, 4)[0][-1]
    row = f.res.form_basis(j, i, 4)[0].tolist()
    for bad in ((j, i, [*row[:-1], row[-1] + 7]), (j + 9, i + 9, row), (j, i, row + [0])):
        with pytest.raises(KeyError, match="is not in block"):
            f.basis_vectors(0, 4, [(j, i, row), bad])


def test_pd_envelope_x_over_z4():
    rep = pd_envelope_report(pres_x(Z4), weight_bound=4)
    assert rep.ok and rep.iso_certified and rep.higher_vanishing
    for w in range(5):
        facs, pd_facs, eq = rep.slice_verdicts[w]
        assert eq and facs == [4]


def test_pd_envelope_x_mod_two():
    rep = pd_envelope_report(pres_x(F2), weight_bound=5)
    assert rep.ok
    for w in range(6):
        facs, _, eq = rep.slice_verdicts[w]
        assert eq and facs == [2]  # one-dimensional slices


def test_pd_envelope_x_squared():
    rep = pd_envelope_report(AlgebraPresentation(Z4, "quotient", "x", (0, 0, 1)),
                             weight_bound=4)
    assert rep.ok and rep.iso_certified and rep.iso_failure is None


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (2, 3), (3, 3)], ids=["Z9", "Z25", "Z8", "Z27"])
def test_a_pd_coefficient_off_by_a_unit_first_fails_at_weight_p(monkeypatch, p, n):
    # gamma_1 gamma_{p-1} = p gamma_p becomes (p + 1) gamma_p.  For f = x every
    # slice of A<t>/(t - x) is cyclic, generated by gamma_w, whatever the
    # coefficients, so the factor verdicts stay equal; the generator-map
    # certification fails from weight p, the first whose relations use it
    from derhamkit import derham

    pres = AlgebraPresentation(ModRing(p, n), "quotient", "x", (0, 1))
    assert pd_envelope_report(pres, weight_bound=p).ok
    honest = derham._t_times_gamma
    monkeypatch.setattr(derham, "_t_times_gamma", lambda j, m: (honest(j, m) + (j == p - 1)) % m)
    assert pd_envelope_report(pres, weight_bound=p - 1).ok
    rep = pd_envelope_report(pres, weight_bound=p)
    assert not rep.ok and not rep.iso_certified and rep.iso_failure == p
    assert all(eq for *_, eq in [*rep.slice_verdicts.values(), *rep.filtration_verdicts.values()])
    assert pd_envelope_report(pres, weight_bound=p + 2).iso_failure == p


def test_the_drpd_envelope_suite_names_the_weight_where_the_generator_map_fails(monkeypatch):
    # over Z/4 the coefficient at j = p - 1 = 1 first enters the relations of weight 2
    from derhamkit import derham

    honest = derham._t_times_gamma
    monkeypatch.setattr(derham, "_t_times_gamma", lambda j, m: (honest(j, m) + (j == 1)) % m)
    cases = {c.name: c for c in run_suite("drpd-envelope", {"weight_bound": 4, "f": "x"}, seed=1).cases}
    assert cases["Z4-x-iso-certified"].status == "fail"
    assert cases["Z4-x-iso-certified"].computed == "failed at weight 2"
    assert cases["Z4-f-x-slices"].computed == "mismatch in the generator map: not a certified isomorphism at weight 2"
    assert cases["Z4-x-slices"].status == cases["Z4-x-filtration"].status == "pass"


def _perturb_envelope(monkeypatch, call, table, key):
    """Make the ``call``-th ``pd_envelope_report`` of the ``drpd-envelope``
    suite report one extra factor 2 on the de Rham side at ``key`` of its
    ``table``; returns the honest (de Rham, PD) factor lists there."""
    from derhamkit import suites

    honest, reports, seen = suites.pd_envelope_report, [], []

    def perturbed(*args, **kwargs):
        rep = honest(*args, **kwargs)
        reports.append(rep)
        if len(reports) == call:
            verdicts = getattr(rep, table)
            a, b, _ = verdicts[key]
            seen.append((a, b))
            verdicts[key] = (a + [2], b, False)
            rep.ok = False
        return rep

    monkeypatch.setattr(suites, "pd_envelope_report", perturbed)
    return seen


def _envelope_cases():
    report = run_suite("drpd-envelope", {"weight_bound": 4, "f": "x^2"}, seed=1)
    assert report.exit_code() == 1
    return {c.name: c for c in report.cases}


def test_drpd_envelope_slice_failure_names_its_weight(monkeypatch):
    seen = _perturb_envelope(monkeypatch, 1, "slice_verdicts", 2)
    cases = _envelope_cases()
    ((a, b),) = seen
    assert cases["Z4-x-slices"].status == "fail"
    assert cases["Z4-x-slices"].computed == f"mismatch at weight 2: de Rham {a + [2]}, PD envelope {b}"
    assert cases["Z4-x-filtration"].computed == "ok" and cases["Z4-f-x^2-slices"].computed == "ok"


def test_drpd_envelope_filtration_failure_names_its_level_and_weight(monkeypatch):
    seen = _perturb_envelope(monkeypatch, 1, "filtration_verdicts", (1, 2))
    cases = _envelope_cases()
    ((a, b),) = seen
    assert cases["Z4-x-filtration"].status == "fail"
    assert cases["Z4-x-filtration"].computed == (f"mismatch at (level 1, weight 2): "
                                                 f"de Rham {a + [2]}, PD envelope {b}")
    assert cases["Z4-x-slices"].computed == "ok" and cases["Z4-f-x^2-slices"].computed == "ok"


def test_drpd_envelope_failure_for_f_names_its_weight(monkeypatch):
    seen = _perturb_envelope(monkeypatch, 2, "slice_verdicts", 3)
    cases = _envelope_cases()
    ((a, b),) = seen
    assert cases["Z4-f-x^2-slices"].status == "fail"
    assert cases["Z4-f-x^2-slices"].computed == f"mismatch at weight 3: de Rham {a + [2]}, PD envelope {b}"
    assert cases["Z4-x-slices"].computed == "ok" and cases["Z4-x-filtration"].computed == "ok"


@pytest.mark.parametrize("field, value, where", [
    ("higher_vanishing", False, "in higher homology: H_n != 0 for some n >= 1"),
    ("iso_failure", 3, "in the generator map: not a certified isomorphism at weight 3"),
])
def test_drpd_envelope_failure_for_f_past_its_factor_lists_says_where(monkeypatch, field, value, where):
    from derhamkit import suites

    honest, reports = suites.pd_envelope_report, []

    def perturbed(*args, **kwargs):
        rep = honest(*args, **kwargs)
        reports.append(rep)
        if len(reports) == 2:
            setattr(rep, field, value)
            rep.ok = False
        return rep

    monkeypatch.setattr(suites, "pd_envelope_report", perturbed)
    cases = _envelope_cases()
    assert cases["Z4-f-x^2-slices"].status == "fail"
    assert cases["Z4-f-x^2-slices"].computed == "mismatch " + where


@pytest.mark.parametrize("scaled", [False, True], ids=["honest", "constants-times-p"])
def test_the_generation_check_rejects_a_generator_map_scaled_by_p(monkeypatch, scaled):
    # p * c_j still sends every relation into the boundaries and leaves the
    # sizes equal, so only the generation check can fail
    from derhamkit import derham

    honest = derham._envelope_constants
    if scaled:
        monkeypatch.setattr(derham, "_envelope_constants",
                            lambda f, *rest: ({j: f.ring.p * c for j, c in honest(f, *rest)[0].items()}, None))
    rep = pd_envelope_report(pres_x(Z4), weight_bound=4)
    assert rep.iso_certified is not scaled
    assert all(eq for _, _, eq in [*rep.slice_verdicts.values(), *rep.filtration_verdicts.values()])
    cases = {c.name: c for c in run_suite("drpd-envelope", {"weight_bound": 3, "f": "x^2"}, seed=1).cases}
    assert cases["Z4-x-iso-certified"].status == ("fail" if scaled else "pass")


def test_shuffle_ring_structure_divided_powers():
    f = build_derham(pres_x(Z4), hodge_cut=5, window=(0, 1), weight_bound=4)
    qs = {w: homology_quotient(f.total, 0, w) for w in range(5)}
    gam = {
        0: f.basis_vectors(0, 0, [(0, 0, (0,))])[0],
        1: f.basis_vectors(0, 1, [(1, 1, (1, 0, 0))])[0],
        2: f.basis_vectors(0, 2, [(2, 2, (1, 2, 0, 0, 0))])[0],
        3: f.basis_vectors(0, 3, [(3, 3, (1, 2, 3, 0, 0, 0, 0))])[0],
    }
    # unit
    assert qs[1].coords(h0_shuffle_product(f, gam[0], 0, gam[1], 1)) == qs[1].coords(gam[1])
    # gamma_a gamma_b = binom(a+b, a) gamma_{a+b}
    from math import comb

    for a in (1, 2):
        for b in (1, 2):
            if a + b > 3:
                continue
            prod = h0_shuffle_product(f, gam[a], a, gam[b], b)
            expected = (comb(a + b, a) * gam[a + b]) % 4
            assert qs[a + b].coords(prod) == qs[a + b].coords(expected)
    # commutativity and associativity on samples
    p12 = h0_shuffle_product(f, gam[1], 1, gam[2], 2)
    p21 = h0_shuffle_product(f, gam[2], 2, gam[1], 1)
    assert qs[3].coords(p12) == qs[3].coords(p21)
    lhs = h0_shuffle_product(f, h0_shuffle_product(f, gam[1], 1, gam[1], 1), 2, gam[1], 1)
    rhs = h0_shuffle_product(f, gam[1], 1, h0_shuffle_product(f, gam[1], 1, gam[1], 1), 2)
    assert qs[3].coords(lhs) == qs[3].coords(rhs)


@pytest.mark.parametrize("ring", [ModRing(5, 1), ModRing(3, 2)], ids=["F5", "Z9"])
def test_divided_power_product_signs(ring):
    # with g_k = dt_1 ^ ... ^ dt_k: g_a g_b = (-1)^(ab) binom(a+b, a) g_(a+b),
    # on the chain level; so gamma_k = (-1)^(k(k-1)/2) g_k multiply as
    # divided powers.  Over Z/4 (the test above) -2 = 2 hides the sign.
    from math import comb

    f = build_derham(pres_x(ring), hodge_cut=5, window=(0, 1), weight_bound=4)
    m = ring.modulus
    g = {k: f.basis_vectors(0, k, [(k, k, [*range(1, k + 1)] + [0] * (k + 1))])[0] for k in range(5)}
    gam = {k: (-1) ** (k * (k - 1) // 2) * g[k] % m for k in range(5)}
    for a in range(5):
        for b in range(5 - a):
            want = (-1) ** (a * b) * comb(a + b, a) * g[a + b] % m
            assert (h0_shuffle_product(f, g[a], a, g[b], b) == want).all(), (a, b)
            assert (h0_shuffle_product(f, gam[a], a, gam[b], b) == comb(a + b, a) * gam[a + b] % m).all()
    assert (h0_shuffle_product(f, g[1], 1, g[1], 1) == -2 * g[2] % m).all()
    assert (h0_shuffle_product(f, g[1], 1, g[2], 2) == 3 * g[3] % m).all()


H0_PRODUCT_RINGS = [ModRing(2, 1), ModRing(3, 1), ModRing(5, 1), ModRing(2, 2), ModRing(3, 2)]


@pytest.mark.parametrize("ring", H0_PRODUCT_RINGS, ids=["F2", "F3", "F5", "Z4", "Z9"])
def test_h0_product_equals_the_dict_reference_on_every_pair_of_basis_vectors(ring):
    # the products on exponent rows against the product through
    # DifferentialForm and ring maps on forms, at hodge cut 4 (columns
    # 0..3, so products into columns >= 4 are dropped on both sides)
    rng = np.random.default_rng(ring.modulus)
    for fc in ((0, 1), (0, 0, 1), (0, 0, 0, 1)):
        f = build_derham(AlgebraPresentation(ring, "quotient", "x", fc), hodge_cut=4, window=(0, 1),
                         weight_bound=8)
        ref = reference_polyalg.H0Multiplier(f)
        units = {w: np.eye(f.layout(0, w)[1], dtype=np.int64) for w in range(9)}
        for w1 in range(9):
            for w2 in range(9 - w1):
                for u in units[w1]:
                    for v in units[w2]:
                        assert np.array_equal(h0_shuffle_product(f, u, w1, v, w2), ref.multiply(u, w1, v, w2))
                # random vectors: several blocks and terms at once
                u = rng.integers(0, ring.modulus, len(units[w1]))
                v = rng.integers(0, ring.modulus, len(units[w2]))
                assert np.array_equal(h0_shuffle_product(f, u, w1, v, w2), ref.multiply(u, w1, v, w2))
        assert h0_shuffle_product(f, units[4][0], 4, units[5][0], 5) is None


def test_filtration_multiplicativity():
    # product of classes in F^a and F^b lands in F^{a+b}
    import numpy as np
    from derhamkit.exactlin import solve_in_span

    f = build_derham(pres_x(Z4), hodge_cut=5, window=(0, 1), weight_bound=4)
    g1 = f.basis_vectors(0, 1, [(1, 1, (1, 0, 0))])[0]
    g2 = f.basis_vectors(0, 2, [(2, 2, (1, 2, 0, 0, 0))])[0]
    prod = h0_shuffle_product(f, g1, 1, g2, 2)
    fil3 = f.filtration_coordinates(3, 0, 3)
    bnd = f.total.diff(1, 3)
    span = np.vstack([fil3, bnd]) if bnd.size else fil3
    assert solve_in_span(prod, span, Z4) is not None


def test_frobenius_splitting_dimension_audit():
    # over F_p with B = F_p over F_p[x]: per weight, the sum over columns of
    # graded-piece homology dimensions equals the dimension of H_j(LOmega)
    f = build_derham(pres_x(F2), hodge_cut=4, window=(0, 1), weight_bound=3)
    reports = [reference_derham.graded_piece_report(f, level) for level in range(4)]
    for j in (0, 1):
        for w in range(4):
            total = len(slice_homology(f.total, j, w))
            by_pieces = sum(
                len(rep.verdicts[(j, w)][0]) for rep in reports if (j, w) in rep.verdicts
            )
            assert total == by_pieces


def test_pd_envelope_mod_three():
    rep = pd_envelope_report(pres_x(F3), weight_bound=4)
    assert rep.ok
    for w in range(5):
        facs, _, eq = rep.slice_verdicts[w]
        assert eq and facs == [3]


def test_thickening_no_homology_below_zero():
    pres = AlgebraPresentation(Z4, "quotient", "y", (0, 1))
    f = build_derham(pres, hodge_cut=2, window=(0, 1), weight_bound=2)
    for w in range(3):
        assert homology_quotient(f.total, -1, w).factors == []


def test_thickening_other_rings():
    # Z/9[y]/(y) and Z/4[x]/(x^2): the thickening is A/(f^2) in each case
    from derhamkit.exactlin import ModRing as MR

    t9 = universal_thickening(AlgebraPresentation(MR(3, 2), "quotient", "y", (0, 1)), 2)
    assert thickening_ok(t9)
    t4 = universal_thickening(AlgebraPresentation(Z4, "quotient", "x", (0, 0, 1)), 4)
    assert thickening_ok(t4)
    # sizes: |A/(x^4)| restricted to weights <= 4 is 4^4
    size = 1
    for q in t4.h0.values():
        size *= q.size
    assert size == 4 ** 4


def test_h0_product_descends_and_is_commutative_on_random_cycles():
    import random

    import numpy as np
    from derhamkit.exactlin import left_kernel

    rng = random.Random(23)
    f = build_derham(pres_x(Z4), hodge_cut=4, window=(0, 1), weight_bound=3)
    qs = {w: homology_quotient(f.total, 0, w) for w in range(4)}
    for _ in range(12):
        w1, w2 = rng.randint(0, 1), rng.randint(0, 2)
        d1 = f.total.diff(0, w1)
        cyc1 = left_kernel(d1, Z4) if d1.size else np.eye(f.total.dim(0, w1), dtype=np.int64)
        d2 = f.total.diff(0, w2)
        cyc2 = left_kernel(d2, Z4) if d2.size else np.eye(f.total.dim(0, w2), dtype=np.int64)
        if not (cyc1.shape[0] and cyc2.shape[0]):
            continue
        u = (np.array([rng.randrange(4) for _ in range(cyc1.shape[0])]) @ cyc1) % 4
        v = (np.array([rng.randrange(4) for _ in range(cyc2.shape[0])]) @ cyc2) % 4
        prod = h0_shuffle_product(f, u, w1, v, w2)
        prod_rev = h0_shuffle_product(f, v, w2, u, w1)
        q = qs[w1 + w2]
        assert q.coords(prod) == q.coords(prod_rev)
        # shifting u by a boundary leaves the class of the product unchanged
        bnd = f.total.diff(1, w1)
        if bnd.size and bnd.shape[0]:
            shift = (u + bnd[rng.randrange(bnd.shape[0])]) % 4
            prod_shift = h0_shuffle_product(f, shift, w1, v, w2)
            assert q.coords(prod_shift) == q.coords(prod)


def test_hodge_quotient_maps_are_chain_maps():
    # the projections between level truncations, walked block by block,
    # commute with the differentials of the corners quotient_complex cuts
    from derhamkit.exactlin import mmul

    f = build_derham(pres_x(Z4), hodge_cut=4, window=(0, 1), weight_bound=3)
    for hi, lo in ((4, 3), (3, 2), (4, 1), (2, 1), (4, 0)):
        chi = f.quotient_complex(hi)
        clo = f.quotient_complex(lo)
        for w in range(4):
            for n in range(f.total.n_min, f.total.n_max + 1):
                pr_n = reference_derham.quotient_map(f, hi, lo, n, w)
                pr_n1 = reference_derham.quotient_map(f, hi, lo, n - 1, w)
                assert pr_n.shape == (chi.dim(n, w), clo.dim(n, w))
                lhs = mmul(chi.diff(n, w), pr_n1, Z4)
                rhs = mmul(pr_n, clo.diff(n, w), Z4)
                assert lhs.shape == rhs.shape and (lhs == rhs).all()


@pytest.mark.parametrize("ring", [Z4, ModRing(3, 1)], ids=str)
def test_hodge_quotient_complex_equals_the_build_at_that_cut(ring):
    # F^level is a subcomplex, so the quotient restricted from the top cut
    # is the complex a build at hodge_cut = level assembles
    f = build_derham(pres_x(ring), hodge_cut=4, window=(0, 1), weight_bound=4)
    for level in range(1, 4):
        got = f.quotient_complex(level)
        want = build_derham(pres_x(ring), hodge_cut=level, window=(0, 1), weight_bound=4).total
        assert (got.n_min, got.n_max, got.trusted) == (want.n_min, want.n_max, want.trusted)
        assert got.dims == want.dims
        assert got.diffs.keys() == want.diffs.keys()
        for key in want.diffs:
            assert (got.diff(*key) == want.diff(*key)).all()
        got.validate()


def _double_complex_blocks(f) -> list[tuple[str, int, int, int]]:
    """(map, j, i, w) of every block map the total complex of ``f`` is
    assembled from: each nonzero block Omega^i(Q_j) of its slices with a
    nonzero target Omega^i(Q_{j-1}) (horizontal) or Omega^{i+1}(Q_j)
    (vertical)."""
    terms = {(j, i, w) for w in range(f.weight_bound + 1)
             for n in range(f._n_min(f.hodge_cut), f.window[1] + 2) for j, i, _ in f.layout(n, w)[0]}
    return ([("face_sums", j, i, w) for j, i, w in terms if (j - 1, i, w) in terms]
            + [("exterior_derivatives", j, i, w) for j, i, w in terms if (j, i + 1, w) in terms])


_DENSE_BLOCKS = {"face_sums": reference_derham.horizontal_matrix,
                 "exterior_derivatives": reference_derham.vertical_matrix}


@pytest.mark.parametrize("ring", [F2, F3, Z4, ModRing(3, 2)], ids=str)
@pytest.mark.parametrize("f_coeffs", [(0, 1), (0, 0, 1), (0, 0, 0, 1)], ids=["x", "x^2", "x^3"])
def test_derham_triples_equal_the_dense_reference(ring, f_coeffs):
    pres = AlgebraPresentation(ring, "quotient", "x", f_coeffs)
    compared = 0
    for wb in range(6):
        f = build_derham(pres, hodge_cut=wb + 1, window=(0, 1), weight_bound=wb)
        for level in range(1, wb + 2):  # level wb + 1 is the total complex
            cx = f.quotient_complex(level)
            dims, diffs = reference_derham.assemble(f, level)
            reference_cotangent.assert_diffs_equal(cx, dims, diffs, range(cx.n_min - 1, cx.n_max + 2),
                                                   range(wb + 2))
        blocks = _double_complex_blocks(f)
        made = {name: getattr(f.res, name)([(j, i, w) for kind, j, i, w in blocks if kind == name])
                for name in _DENSE_BLOCKS}
        for name, j, i, w in blocks:
            want = _DENSE_BLOCKS[name](f, j, i, w)
            coo = made[name][(j, i, w)]
            got = mzeros(*want.shape)
            got[coo.rows, coo.cols] = coo.vals
            assert np.array_equal(got, want), (name, j, i, w)
            compared += 1
    # every block map of the builds at weight bounds 0..5, each compared once
    assert compared == {1: 110, 2: 32, 3: 12}[len(f_coeffs) - 1]


def _total_digest(pres) -> str:
    """SHA-256 of the total complexes of the builds at weight bounds 0..5
    (Hodge cut one past the bound, window (0, 1)): degrees, trusted window
    and dims, then the triples of every differential and the Hodge column
    of every basis element, slice by slice."""
    digest = hashlib.sha256()
    for wb in range(6):
        cx = build_derham(pres, hodge_cut=wb + 1, window=(0, 1), weight_bound=wb).total
        digest.update(repr((wb, cx.n_min, cx.n_max, cx.trusted, sorted(cx.dims.items()))).encode())
        for key, d in sorted(cx.diffs.items()):
            digest.update(repr((key, d.shape)).encode())
            for part in d[:3]:
                digest.update(np.asarray(part, dtype=np.int64).tobytes())
        for key, columns in sorted(cx.columns.items()):
            digest.update(repr(key).encode())
            digest.update(np.asarray(columns, dtype=np.int64).tobytes())
    return digest.hexdigest()


# pinned before the block maps were made in one pass per call; a rewrite of
# the de Rham build must leave every total complex byte-identical
_TOTAL_DIGESTS = {
    ("F_2", (0, 1)): "b2cbd17b8d8ac3f39d104db5aeffc9d8d8bdf2466a90b9cd2a2391b4be4b1b7f",
    ("F_2", (0, 0, 1)): "e37ab911af6ce03629f0ca6b697e1c5aee179e6851195a61f8e423865ea265a1",
    ("F_2", (0, 0, 0, 1)): "797c45005591949923a789597bcbc2a83cdb79e0cd09fe51e82af60f4a4d0b6e",
    ("F_3", (0, 1)): "96818b43a6886e34d7ab46f28bebcd3994f8ac898277bd2e4a75ffebe98658e4",
    ("F_3", (0, 0, 1)): "4447aa62a2454de8a17fcbbc8d73068d80ba9b40d7ef4e54ecd4ae00686348dd",
    ("F_3", (0, 0, 0, 1)): "569300825f994955be523c5afa4041660108bb2e7239953272c853e66bffde4c",
    ("Z/4", (0, 1)): "224a97625bef0b2c2a25f23d503b3472f9cf6815247e6dc5c135754092344c14",
    ("Z/4", (0, 0, 1)): "8af3bc375d3172178bf945cce0aede3f998399b954ad32ddf70d860b264b5445",
    ("Z/4", (0, 0, 0, 1)): "3e327870ecd11479cf0f1de478d737290099cd64088bd71186fb4a28d94e9211",
    ("Z/9", (0, 1)): "53826696b3aabb750b39f54bcf6e6739436234cb8c9da00dd247732c31b41e1f",
    ("Z/9", (0, 0, 1)): "68307a6005ea84d05b29fb4c29ba7018b6f887a4dab19f17317040638e09bdb7",
    ("Z/9", (0, 0, 0, 1)): "f04307dc58b2418cfa9fff4310897152b54e3019c56ce6779795c4ef32d008a9",
}


def test_derham_total_complexes_keep_their_pinned_digests():
    start = time.perf_counter()
    got = {(str(ring), f): _total_digest(AlgebraPresentation(ring, "quotient", "x", f))
           for ring in (F2, F3, Z4, ModRing(3, 2)) for f in ((0, 1), (0, 0, 1), (0, 0, 0, 1))}
    assert got == _TOTAL_DIGESTS
    assert time.perf_counter() - start < 5


def test_build_derham_weight_bound_6_peak_memory():
    # the dense assembly this replaced peaked near 1 GB at this size
    tracemalloc.start()
    try:
        build_derham(pres_x(F3), hodge_cut=7, window=(0, 2), weight_bound=6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_build_derham_weight_bound_10_holds_one_copy_of_each_basis_and_map():
    # drpd-modp's build at p = 2 holds 11.5 MiB: each block basis once, as
    # rows, and each block map once, in the total complex
    run = traced_peak(lambda: build_derham(pres_x(F2), hodge_cut=11, window=(0, 2), weight_bound=10))
    assert run.held < 16 * 2**20, f"held {run.held / 2**20:.1f} MiB"


def test_drpd_modp_build_makes_each_form_basis_once(monkeypatch):
    # drpd-modp's build at weight bound 4: the certificate of the resolution
    # and the de Rham blocks read one basis of each slice of forms
    honest = polyalg.graded_slice_basis
    calls = collections.Counter()

    def counting(algebra, form_degree, weight, **kwargs):
        calls[(algebra.nvars - 1, form_degree, weight)] += 1
        return honest(algebra, form_degree, weight, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("derhamkit") and getattr(module, "graded_slice_basis", None) is honest:
            monkeypatch.setattr(module, "graded_slice_basis", counting)
    for p in (2, 3):
        calls.clear()
        build_derham(pres_x(ModRing(p, 1)), hodge_cut=5, window=(0, 2), weight_bound=4)
        assert {i for _, i, _ in calls} == set(range(5))
        assert [key for key, count in calls.items() if count > 1] == [], p


def test_drpd_modp_failure_names_its_slice(monkeypatch):
    honest = complexes.slice_homology

    def perturbed(cx, degree, weight):
        fac = honest(cx, degree, weight)
        if (degree, weight) == (0, 2):
            return fac + [cx.ring.p]
        if (degree, weight) == (1, 1):
            return [cx.ring.p]
        return fac

    monkeypatch.setattr(complexes, "slice_homology", perturbed)
    report = run_suite("drpd-modp", {"weight_bound": 3, "window_top": 1}, seed=1)
    cases = {c.name: c for c in report.cases}
    slices, higher = cases["p3-weight-slices"], cases["p3-higher-vanishing"]
    assert slices.status == higher.status == "fail"
    assert slices.computed == "mismatch at (degree 0, weight 2): expected [3], computed [3, 3]"
    assert higher.computed == "nonzero at (degree 1, weight 1): expected [], computed [3]"
    assert report.exit_code() == 1


Z9 = ModRing(3, 2)


@pytest.mark.parametrize("f_coeffs", [(0, 1), (0, 0, 1)], ids=["x", "x^2"])
def test_form_basis_is_the_nondegenerate_part_of_the_full_block(f_coeffs):
    pres = AlgebraPresentation(F2, "quotient", "x", f_coeffs)
    f = build_derham(pres, hodge_cut=7, window=(0, 1), weight_bound=6)
    ref = reference_derham.build_unnormalized(pres, hodge_cut=7, window=(0, 1), weight_bound=6)
    for j in range(f.res.d_max + 1):
        for i in range(j + 1):
            for w in range(7):
                full = reference_polyalg.form_entries(ref.res.form_basis(j, i, w), i)
                want = [b for b in full if not reference_cotangent.is_degenerate(*b)]
                got = f.res.form_basis(j, i, w)
                assert got.shape == (len(want), i + j + 1), (j, i, w)
                assert reference_polyalg.form_entries(got, i) == want, (j, i, w)
                assert (len(want) > 0) == (j * pres.degree <= w)


def _hodge_mismatches(f, ref, weights):
    """(level, degree, weight) where a Hodge quotient of ``f`` and of the
    reference have different slice homology, degrees 0 and 1."""
    out = []
    for level in range(1, f.hodge_cut + 1):
        cx, rcx = f.quotient_complex(level), ref.quotient_complex(level)
        out += [(level, n, w) for n in (0, 1) for w in weights
                if slice_homology(cx, n, w) != slice_homology(rcx, n, w)]
    return out


@pytest.mark.parametrize("ring", [F2, F3, Z4, Z9], ids=str)
@pytest.mark.parametrize("f_coeffs", [(0, 1), (0, 0, 1), (0, 0, 0, 1)], ids=["x", "x^2", "x^3"])
def test_hodge_quotients_have_the_slice_homology_of_the_unnormalized_reference(ring, f_coeffs):
    # the weight-w slices of the level-L quotient are the same in every build
    # at weight bound >= w and Hodge cut >= L (higher columns are empty at
    # weight w), so the reference at bound 6, cut 7 serves every bound 0..6
    pres = AlgebraPresentation(ring, "quotient", "x", f_coeffs)
    ref = reference_derham.build_unnormalized(pres, hodge_cut=7, window=(0, 1), weight_bound=6)
    for wb in range(7):
        f = build_derham(pres, hodge_cut=wb + 1, window=(0, 1), weight_bound=wb)
        assert _hodge_mismatches(f, ref, range(wb + 1)) == [], wb


def test_a_kept_degenerate_form_or_a_dropped_nondegenerate_one_is_caught(monkeypatch):
    from derhamkit.cotangent import FreeSimplicialResolution

    pres = pres_x(F3)
    ref = reference_derham.build_unnormalized(pres, hodge_cut=5, window=(0, 1), weight_bound=4)
    honest = FreeSimplicialResolution.form_basis

    def patched(change):
        def form_basis(self, j, i, w):
            return change(j, i, w, honest(self, j, i, w))
        monkeypatch.setattr(FreeSimplicialResolution, "form_basis", form_basis)
        return build_derham(pres, hodge_cut=5, window=(0, 1), weight_bound=4)

    assert _hodge_mismatches(patched(lambda j, i, w, b: b), ref, range(5)) == []
    # x dt_1 in Omega^1(Q_2) is degenerate (no t_2): kept, degree 1 gains
    # homology at weight 2 in every quotient that has its column
    kept = patched(lambda j, i, w, b: np.vstack([b, [(1, 1, 0, 0)]]) if (j, i, w) == (2, 1, 2) else b)
    assert _hodge_mismatches(kept, ref, range(5)) == [(level, 1, 2) for level in range(2, 6)]
    # dt_1 ^ dt_2 in Omega^2(Q_2) is the degree-0 form of gamma_2(t);
    # dropped, H_0 at weight 2 changes in every quotient that has its column
    dropped = patched(lambda j, i, w, b: reference_polyalg.drop_row(b, (1, 2, 0, 0, 0)))
    assert _hodge_mismatches(dropped, ref, range(5)) == [(level, 0, 2) for level in range(3, 6)]
    # x t_2 dt_1 in Omega^1(Q_2) is a face image: dropped, the image is lost
    with pytest.raises(AssertionError, match="nondegenerate image"):
        patched(lambda j, i, w, b: reference_polyalg.drop_row(b, (1, 1, 0, 1)))
    # the 0-forms are also the slices of the resolution's chain complex, so
    # there its certificate fails first: x^2 in Q_1 kept, t_1 t_2 in Q_2 dropped
    with pytest.raises(ValueError, match="acyclicity certificate"):
        patched(lambda j, i, w, b: np.vstack([b, [(2, 0)]]) if (j, i, w) == (1, 0, 2) else b)
    with pytest.raises(ValueError, match="acyclicity certificate"):
        patched(lambda j, i, w, b: reference_polyalg.drop_row(b, (0, 1, 1)))


def test_h0_product_raises_on_a_nondegenerate_term_outside_the_basis(monkeypatch):
    # every form of Omega^j(Q_j) has all of dt_1..dt_j, so degree 0 has no
    # degenerate forms and a product term missing from the basis is a bug
    from derhamkit import derham

    f = build_derham(pres_x(Z4), hodge_cut=2, window=(0, 1), weight_bound=2)
    one = f.basis_vectors(0, 0, [(0, 0, (0,))])[0]
    omega = f.basis_vectors(0, 1, [(1, 1, (1, 0, 0))])[0]
    assert (h0_shuffle_product(f, one, 0, omega, 1) == omega).all()
    honest = derham._shuffle_terms

    def with_stray(*args):
        rows, coeffs = honest(*args)
        # x^3 dt_1 has weight 4, not 1
        return np.vstack([rows, [[3] + [0] * (rows.shape[1] - 1)]]), np.append(coeffs, 1)

    monkeypatch.setattr(derham, "_shuffle_terms", with_stray)
    with pytest.raises(AssertionError, match="nondegenerate"):
        h0_shuffle_product(f, one, 0, omega, 1)


@pytest.mark.parametrize("p", [5, 7])
def test_hodge_quotients_above_the_prime(p):
    # weight bound p + 1: the divided power gamma_p(t) = t^p / p! is in play
    wb = p + 1
    ring = ModRing(p, 1)
    f = build_derham(pres_x(ring), hodge_cut=wb + 1, window=(0, 2), weight_bound=wb)
    for i in range(1, wb + 1):
        rep = hodge_quotient_homology(f, i, degrees=[0])
        assert sum(len(e["factors"]) for e in rep.entries.values()) == i
    full = hodge_quotient_homology(f, wb + 1, degrees=range(3))
    for w in range(wb + 1):
        assert full.factors(0, w) == [p]
        assert full.factors(1, w) == full.factors(2, w) == []


@pytest.mark.parametrize("ring", [F2, F3, Z4, Z9], ids=str)
@pytest.mark.parametrize("f_coeffs", [(0, 1), (0, 0, 1), (0, 0, 0, 1)], ids=["x", "x^2", "x^3"])
def test_every_hodge_level_read_off_the_one_contraction_equals_its_quotient_complex(ring, f_coeffs):
    # the corner of the filtered contraction of the total complex is a
    # contraction of the quotient complex of that level, contracted on its
    # own: the same homology on every slice, the truncated top degree too
    pres = AlgebraPresentation(ring, "quotient", "x", f_coeffs)
    for wb in range(8):
        f = build_derham(pres, hodge_cut=wb + 1, window=(0, 1), weight_bound=wb)
        for level in range(wb + 2):
            quotient = f.quotient_complex(level)
            want = homology_report(quotient, degrees=range(2))
            assert hodge_quotient_homology(f, level) == want, (wb, level)
            corner = f.total.contracted.corner(level, quotient.n_min)
            assert ([homology_quotient(corner, *key).factors for key in quotient.dims]
                    == [homology_quotient(quotient, *key).factors for key in quotient.dims]), (wb, level)


Z8 = ModRing(2, 3)


@pytest.mark.parametrize("ring", [F2, F3, Z4, Z8, Z9], ids=str)
@pytest.mark.parametrize("f_coeffs", [(0, 1), (0, 0, 1)], ids=["x", "x^2"])
def test_envelope_filtration_verdicts_equal_the_dense_reference(ring, f_coeffs):
    pres = AlgebraPresentation(ring, "quotient", "x", f_coeffs)
    wb = 6
    rep = pd_envelope_report(pres, weight_bound=wb)
    assert rep.ok
    f = build_derham(pres, hodge_cut=wb // pres.degree + 1, window=(0, 1), weight_bound=wb)
    want = {(level, w) for w in range(wb + 1) for level in range(min(f.hodge_cut, w // pres.degree + 2))}
    assert rep.filtration_verdicts.keys() == want
    for (level, w), (hodge, _, _) in rep.filtration_verdicts.items():
        assert hodge == reference_derham.filtered_h0_factors(f, level, w), (level, w)


def test_filtration_rows_equal_the_block_walk():
    f = build_derham(pres_x(Z4), hodge_cut=4, window=(0, 1), weight_bound=4)
    for w in range(5):
        for n in range(f.total.n_min - 1, f.total.n_max + 1):
            for hi in range(f.hodge_cut + 1):
                assert np.array_equal(f.filtration_coordinates(hi, n, w),
                                      reference_derham.filtration_coordinates(f, hi, n, w)), (hi, n, w)
