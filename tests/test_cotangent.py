"""Resolutions, Kaehler presentations and cotangent homology."""

import collections
import random

import numpy as np
import pytest

from derhamkit.complexes import slice_homology
from derhamkit.exactlin import ModRing, left_kernel, quotient_invariants, v_int
from derhamkit.cotangent import (
    AlgebraPresentation,
    DepthError,
    FreeSimplicialResolution,
    cotangent_homology,
    degenerate_rows,
    kaehler_presentation,
    parse_poly_string,
    shortcut_conormal_complex,
)
from derhamkit.derham import build_derham
from derhamkit.polyalg import graded_slice_basis
from derhamkit.upoly import rem

import reference_cotangent
import reference_polyalg
from reference_polyalg import PolyDegeneracies, degeneracy, face, one, shuffle_product, variable, zero

F2 = ModRing(2, 1)
F3 = ModRing(3, 1)
Z4 = ModRing(2, 2)
Z8 = ModRing(2, 3)


def test_bar_resolution_face_table():
    res = FreeSimplicialResolution(AlgebraPresentation(Z8, "quotient", "x", (0, 1)), 4, 4)
    a1, a2 = res.algebra(1), res.algebra(2)
    t1, t2 = variable(a2, "t1"), variable(a2, "t2")
    # face images straight from the case table, with t_0 := x
    assert face(res, 2, 0)(t1) == variable(a1, "x")
    assert face(res, 2, 2)(t2) == zero(a1)
    assert face(res, 2, 1)(t2) == variable(a1, "t1")
    # degeneracy: s_0(t_1) = t_2 at level 1
    assert degeneracy(res, 1, 0)(variable(a1, "t1")) == t2


def test_bar_resolution_acyclicity_over_z8():
    res = FreeSimplicialResolution(AlgebraPresentation(Z8, "quotient", "x", (0, 1)), 4, 4)
    cert = res.certify()
    assert cert.ok and cert.kind == "exact-slices"
    cx = res.chain_complex()
    # H_0 = R concentrated in weight 0; degrees 1..3 vanish
    assert slice_homology(cx, 0, 0) == [8]
    for w in range(1, 5):
        assert slice_homology(cx, 0, w) == []
    for n in range(1, 4):
        for w in range(5):
            assert slice_homology(cx, n, w) == []


def test_simplicial_identities_of_resolution():
    # spot-check the simplicial identities on algebra generators
    res = FreeSimplicialResolution(AlgebraPresentation(F3, "quotient", "x", (0, 1)), 4, 3)
    rng = random.Random(0)
    for n in (2, 3):
        alg = res.algebra(n)
        polys = [variable(alg, v) for v in alg.variables]
        for j in range(n + 1):
            for i in range(j):
                lhs = face(res, n - 1, i)
                rhs = face(res, n - 1, j - 1)
                for f in polys:
                    a = lhs(face(res, n, j)(f))
                    b = rhs(face(res, n, i)(f))
                    assert a == b


def test_presentation_rejects_zero_divisor_and_zero_f():
    with pytest.raises(ValueError, match="zero divisor"):
        AlgebraPresentation(Z4, "quotient", "x", (0, 0, 2))
    with pytest.raises(ValueError):
        AlgebraPresentation(Z4, "quotient", "x", (0,))  # f = 0


def test_drpd_modp_runs_at_weight_bound_below_deg_f():
    from derhamkit.suites import run_suite

    rep = run_suite("drpd-modp", {"weight_bound": 0})
    assert rep.cases and rep.exit_code() == 0


def test_kaehler_presentations():
    # F_3[x]/(x^3) over F_3: relation 3 x^2 dx vanishes -> free rank 1, length 3
    kp = kaehler_presentation(AlgebraPresentation(F3, "hypersurface", "x", (0, 0, 0, 1)))
    assert kp.rank == 1 and kp.free_over_target
    assert kp.factors == [3, 3, 3]
    # F_4 over F_2 via x^2+x+1: f' = 1 is a unit, module vanishes
    kp3 = kaehler_presentation(AlgebraPresentation(F2, "hypersurface", "x", (1, 1, 1)))
    assert kp3.factors == [] and not kp3.free_over_target
    # quotient relative to A: zero module
    kp4 = kaehler_presentation(AlgebraPresentation(F3, "quotient", "x", (0, 1)))
    assert kp4.rank == 0


def test_cotangent_regular_quotient_examples():
    # B = F_3 = F_3[x]/(x): H_0 = 0, H_1 = F_3 (weight 1)
    res = cotangent_homology(AlgebraPresentation(F3, "quotient", "x", (0, 1)), (0, 1), 4, depth=4)
    assert res.report.factors(1, 1) == [3]
    assert res.report.total_length(0) == 0
    assert res.report.total_length(1) == 1
    # etale: F_4 over F_2: everything vanishes
    etale = cotangent_homology(AlgebraPresentation(F2, "hypersurface", "x", (1, 1, 1)), (0, 1), 4, depth=4)
    assert all(not e["factors"] for e in etale.report.entries.values())



@pytest.mark.parametrize("ring,f", [
    (F3, (0, 0, 0, 1)), (Z4, (0, 0, 1)), (ModRing(3, 2), (0, 0, 1)), (Z8, (2, 0, 1)),
    (ModRing(5, 2), (0, 5, 0, 1)), (F2, (1, 1, 1)),
], ids=["F3-x3", "Z4-x2", "Z9-x2", "Z8-x2+2", "Z25-x3+5x", "F2-etale"])
def test_h1_of_a_hypersurface_is_the_kernel_of_the_conormal_map(ring, f):
    # k -> k[x] -> C = k[x]/(f): H_1(L_{k[x]/k}) = 0, so H_1(L_{C/k}) is the
    # kernel of delta: (f)/(f^2) -> C dx, the generator going to f'(x) dx
    pres = AlgebraPresentation(ring, "hypersurface", "x", f)
    d = pres.degree
    delta = np.array([rem([0] * a + pres.fprime_coeffs(), pres.f_coeffs, ring.modulus) for a in range(d)],
                     dtype=np.int64) % ring.modulus
    ker = quotient_invariants(left_kernel(delta, ring), np.zeros((0, d), dtype=np.int64), ring)
    report = cotangent_homology(pres, (0, 1), 6).report
    assert report.factors(1, 0) == ker
    assert report.total_length(1) == sum(v_int(t, ring.p) for t in ker)


def test_cotangent_matches_conormal_shortcut():
    rng = random.Random(3)
    for ring in (F3, Z4):
        for _ in range(4):
            d = rng.randint(1, 3)
            unit = rng.choice([u for u in range(1, ring.modulus) if u % ring.p])
            pres = AlgebraPresentation(ring, "quotient", "x", (0,) * d + (unit,))
            got = cotangent_homology(pres, (0, 2), weight_bound=3 * d, depth=4)
            want = shortcut_conormal_complex(pres, 2)
            for w in set(got.complex.weights()) | set(want.weights()):
                for n in range(3):
                    assert slice_homology(got.complex, n, w) == slice_homology(want, n, w), (n, w)


def test_the_shortcut_case_names_the_first_slice_that_differs(monkeypatch):
    from derhamkit import suites
    from derhamkit.complexes import GradedSliceComplex

    made = suites.shortcut_conormal_complex

    def dropped(pres, window_top):  # (f)/(f^2) of F_2[x]/(x^2) loses its weight-3 slice
        cx = made(pres, window_top)
        if pres.degree == 2:
            dims = {k: v for k, v in cx.dims.items() if k != (1, 3)}
            cx = GradedSliceComplex(cx.ring, cx.n_min, cx.n_max, dims, {}, trusted=cx.trusted)
        return cx

    monkeypatch.setattr(suites, "shortcut_conormal_complex", dropped)
    report = suites.run_suite("cotangent-regular")
    cases = {c.name: c for c in report.cases}
    case = cases.pop("F_2[x]/(x^2)-shortcut")
    assert case.status == "fail" and report.exit_code() == 1
    assert case.computed == "mismatch at (degree 1, weight 3): expected [], computed [2]"
    assert {c.status for c in cases.values()} == {"pass"}


def test_equal_presentations_compare_and_hash_alike_after_reduction():
    pres = AlgebraPresentation(Z4, "hypersurface", "x", (1, 1, 1))
    for same in (AlgebraPresentation(Z4, "hypersurface", "x", (5, -3, 1, 0)),
                 AlgebraPresentation(ring=ModRing(2, 2), shape="hypersurface", f_coeffs=[1, 1, 1])):
        assert same == pres and hash(same) == hash(pres) and same.f_coeffs == (1, 1, 1)
    assert pres != AlgebraPresentation(Z4, "hypersurface", "y", (1, 1, 1))
    with pytest.raises(ValueError, match="needs monic f"):
        AlgebraPresentation(Z4, "hypersurface", "x", (1, 1, 3))
    with pytest.raises(ValueError, match="weight-homogeneous"):
        AlgebraPresentation(Z4, "quotient", "x", (1, 0, 1))


def test_an_unsupported_presentation_shape_is_a_value_error():
    for shape in ("free", "polynomial", ""):
        with pytest.raises(ValueError, match="unsupported shape"):
            AlgebraPresentation(F3, shape, "x", (0, 1))


def test_cotangent_depth_guard():
    pres = AlgebraPresentation(F3, "quotient", "x", (0, 1))
    with pytest.raises(DepthError):
        cotangent_homology(pres, (0, 2), 4, depth=3)


def test_cotangent_base_change_mod_p():
    # invariants of L_{B/A} (x) A/(p) match those computed over A/(p)
    pres4 = AlgebraPresentation(Z4, "quotient", "x", (0, 0, 1))
    pres2 = AlgebraPresentation(F2, "quotient", "x", (0, 0, 1))
    r4 = cotangent_homology(pres4, (0, 1), 6, depth=4)
    r2 = cotangent_homology(pres2, (0, 1), 6, depth=4)
    # flat base change: H_1 is free rank 1 over B in both cases, so the
    # mod-p invariants are the mod-p reductions slice by slice
    for (deg, w), e in r2.report.entries.items():
        facs4 = r4.report.factors(deg, w)
        assert len(e["factors"]) == len(facs4)


def test_shuffle_product_on_resolution():
    res = FreeSimplicialResolution(AlgebraPresentation(Z8, "quotient", "x", (0, 1)), 4, 6)
    degens = PolyDegeneracies(res)
    a0 = res.algebra(0)
    x = variable(a0, "x")
    # degree (0,0): plain product
    assert shuffle_product(x, 0, x, 0, degens) == x * x
    # unit in degree 0 shuffled with a degree-2 element gives it back
    a2 = res.algebra(2)
    y = variable(a2, "t1") * variable(a2, "t2")
    assert shuffle_product(one(a0), 0, y, 2, degens) == y
    # graded commutativity in odd degrees: x * y = -y * x for degree 1 pair
    a1 = res.algebra(1)
    u = variable(a1, "t1")
    v = variable(a1, "x") * variable(a1, "t1")
    lhs = shuffle_product(u, 1, v, 1, degens)
    rhs = shuffle_product(v, 1, u, 1, degens)
    assert lhs == -rhs


def test_a_printed_polynomial_parses_back_to_the_presentation():
    pres = AlgebraPresentation(Z4, "hypersurface", "x", (1, 1, 1))
    assert reference_cotangent.poly_to_string(pres.f_coeffs) == "1 + x + x^2"
    for f in ((1, 1, 1), (0, 3, 0, 1), (2, 0, 1)):
        pres = AlgebraPresentation(Z4, "hypersurface", "x", f)
        printed = reference_cotangent.poly_to_string(pres.f_coeffs)
        assert AlgebraPresentation(Z4, "hypersurface", "x", tuple(parse_poly_string(printed))) == pres


def test_cotangent_base_change_literal_reduction():
    # reducing the Z/4 cotangent complex mod 2 computes the F_2 cotangent
    # complex: invariant factors agree slice by slice (flat base change)
    pres4 = AlgebraPresentation(Z4, "quotient", "x", (0, 0, 1))
    pres2 = AlgebraPresentation(F2, "quotient", "x", (0, 0, 1))
    r4 = cotangent_homology(pres4, (0, 1), 6, depth=4)
    r2 = cotangent_homology(pres2, (0, 1), 6, depth=4)
    from derhamkit.complexes import GradedSliceComplex

    reduced = GradedSliceComplex(
        F2, r4.complex.n_min, r4.complex.n_max,
        dict(r4.complex.dims),
        {k: r4.complex.diff(*k) % 2 for k in r4.complex.diffs},
        trusted=r4.complex.trusted,
    )
    for deg in (0, 1):
        for w in set(reduced.weights()) | set(r2.complex.weights()):
            assert slice_homology(reduced, deg, w) == slice_homology(r2.complex, deg, w)


@pytest.mark.parametrize("ring", [F2, F3, Z4, ModRing(3, 2)], ids=str)
@pytest.mark.parametrize("f_coeffs", [(0, 1), (0, 0, 1), (0, 0, 0, 1), (0, 0, -1)],
                         ids=["x", "x^2", "x^3", "-x^2"])
def test_chain_complex_triples_equal_the_dense_reference(ring, f_coeffs):
    res = FreeSimplicialResolution(AlgebraPresentation(ring, "quotient", "x", f_coeffs), 6, 5)
    for wb in range(6):
        dims, diffs = reference_cotangent.chain_complex(res, wb)
        reference_cotangent.assert_diffs_equal(res.chain_complex(wb), dims, diffs, range(-1, 8), range(wb + 2))


Z9 = ModRing(3, 2)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_zero_form_basis_is_the_nondegenerate_part_of_the_full_slice(degree):
    res = FreeSimplicialResolution(AlgebraPresentation(F2, "quotient", "x", (0,) * degree + (1,)), 7, 9)
    for n in range(8):
        for w in range(10):
            full = res.algebra(n).monomials_of_weight(w).tolist()
            want = [e for e in full if not reference_cotangent.is_degenerate(e)]
            got = res.form_basis(n, 0, w)
            assert got.shape == (len(want), n + 1) and got.tolist() == want, (n, w)
            assert res.form_basis(n, 0, w) is got and not got.flags.writeable
            assert (len(want) > 0) == (n * degree <= w)


def test_degenerate_rows_agrees_with_the_reference_on_every_form():
    res = FreeSimplicialResolution(AlgebraPresentation(F2, "quotient", "x", (0, 1)), 5, 5)
    for j in range(6):
        for i in range(j + 1):
            for w in range(6):
                rows = graded_slice_basis(res.algebra(j), i, w, wedge_vars=range(1, j + 1))
                basis = reference_polyalg.form_entries(rows, i)
                mask = degenerate_rows(rows[:, i:], rows[:, :i])
                assert mask.tolist() == [reference_cotangent.is_degenerate(e, wdg) for e, wdg in basis]


def _slice_mismatches(cx, ref, degrees, weights):
    return [(n, w) for n in degrees for w in weights if slice_homology(cx, n, w) != slice_homology(ref, n, w)]


@pytest.mark.parametrize("ring", [F2, F3, Z4, Z9], ids=str)
@pytest.mark.parametrize("f_coeffs", [(0, 1), (0, 0, 1), (0, 0, 0, 1), (0, 0, -1)],
                         ids=["x", "x^2", "x^3", "-x^2"])
def test_normalized_resolution_has_the_slice_homology_of_the_unnormalized_reference(ring, f_coeffs):
    # a weight-w slice does not depend on the weight bound, so the reference
    # at bound 6 serves every bound 0..6
    pres = AlgebraPresentation(ring, "quotient", "x", f_coeffs)
    ref = reference_cotangent.UnnormalizedResolution(pres, 7, 6).chain_complex()
    res = FreeSimplicialResolution(pres, 7, 6)
    for wb in range(7):
        cx = res.chain_complex(wb)
        assert cx.weights() == list(range(wb + 1))
        assert _slice_mismatches(cx, ref, range(7), range(wb + 1)) == []
    assert res.certify().ok
    assert reference_cotangent.UnnormalizedResolution(pres, 7, 6).certify().ok


def test_a_kept_degenerate_monomial_or_a_dropped_nondegenerate_one_is_caught(monkeypatch):
    pres = AlgebraPresentation(F3, "quotient", "x", (0, 1))
    ref = reference_cotangent.UnnormalizedResolution(pres, 5, 4).chain_complex()
    honest = FreeSimplicialResolution.form_basis

    def patched(change):
        def form_basis(self, n, i, w):
            return change(n, w, honest(self, n, i, w))
        monkeypatch.setattr(FreeSimplicialResolution, "form_basis", form_basis)
        return FreeSimplicialResolution(pres, 5, 4).chain_complex()

    assert _slice_mismatches(patched(lambda n, w, b: b), ref, range(4), range(5)) == []
    # x^2 in Q_1 is degenerate (s_0 of x^2): kept, it is a cycle that no
    # nondegenerate element of Q_2 bounds
    kept = patched(lambda n, w, b: np.vstack([b, [(2, 0)]]) if (n, w) == (1, 2) else b)
    assert _slice_mismatches(kept, ref, range(4), range(5)) == [(1, 2)]
    # t_1 t_2 t_3 is the only nondegenerate monomial of Q_3 at weight 3;
    # dropped, the cycle it bounded in degree 2 survives
    dropped = patched(lambda n, w, b: reference_polyalg.drop_row(b, [0, 1, 1, 1]))
    assert _slice_mismatches(dropped, ref, range(4), range(5)) == [(2, 3)]
    # dropped from a target slice, its preimages' faces cannot be located
    with pytest.raises(AssertionError, match="nondegenerate image"):
        patched(lambda n, w, b: reference_polyalg.drop_row(b, [1, 1]))


def test_a_nondegenerate_image_dropped_below_the_deeper_blocks_of_its_call_is_caught(monkeypatch):
    # each call below also makes blocks of Q_2..Q_4, with wider rows than
    # the dropped one: it must still be read on its own level's width, where
    # it has every t_s, and not as a row missing the deeper t_s
    honest = FreeSimplicialResolution.form_basis
    dropped = {(1, 0, 2): [1, 1], (1, 1, 2): [1, 0, 1]}  # x t_1 and t_1 dt_1

    def form_basis(self, n, i, w):
        basis = honest(self, n, i, w)
        return reference_polyalg.drop_row(basis, dropped[(n, i, w)]) if (n, i, w) in dropped else basis

    monkeypatch.setattr(FreeSimplicialResolution, "form_basis", form_basis)
    res = FreeSimplicialResolution(AlgebraPresentation(F3, "quotient", "x", (0, 1)), 5, 4)
    deeper = [(n, i, w) for n in range(2, 5) for i in range(n) for w in (3, 4)]
    assert res.face_sums(deeper) and res.exterior_derivatives(deeper)
    # x t_1 is the face d_0 of t_1 t_2, and t_1 dt_1 is d(t_1^2) / 2
    with pytest.raises(AssertionError, match="nondegenerate image"):
        res.face_sums([(2, 0, 2)] + deeper)
    with pytest.raises(AssertionError, match="nondegenerate image"):
        res.exterior_derivatives([(1, 0, 2)] + deeper)


def _face_rule_presentations():
    """f = x, 3x^2 and x^3 over F_2, F_3, Z/4 and Z/9, where 3 is a unit."""
    return [AlgebraPresentation(ring, "quotient", "x", f) for ring in (F2, F3, Z4, Z9)
            for f in ((0, 1), (0, 0, 3), (0, 0, 0, 1)) if f[-1] % ring.p]


@pytest.mark.parametrize("pres", _face_rule_presentations(), ids=lambda p: f"{p.ring}-{p.f_coeffs}")
def test_face_exponents_equal_the_variable_table_reference(pres):
    res = FreeSimplicialResolution(pres, 6, 6)
    for n in range(1, 7):
        for w in range(7):
            expts = res.algebra(n).monomials_of_weight(w)
            got = res.face_exponents(n, expts)
            assert [len(a) for a in got] == [n + 1] * 3
            for i in range(n + 1):
                want = reference_cotangent.face_exponents(res, n, i, expts)
                for a, b in zip(got, want):
                    assert a[i].dtype == b.dtype and a[i].shape == b.shape and np.array_equal(a[i], b), (n, w, i)


_PER_BLOCK = {"face_sums": reference_cotangent.face_sum,
              "exterior_derivatives": reference_cotangent.exterior_derivative}


@pytest.mark.parametrize("pres", _face_rule_presentations(), ids=lambda p: f"{p.ring}-{p.f_coeffs}")
def test_every_block_map_of_every_build_equals_the_per_block_reference(pres, monkeypatch):
    # the maps each one-pass call of the builds at weight bounds 0..6 makes,
    # the certificate's chain complexes included, block by block
    made = []
    for name in _PER_BLOCK:
        def recording(self, keys, honest=getattr(FreeSimplicialResolution, name), name=name):
            out = honest(self, keys)
            made.append((name, self, out))
            return out
        monkeypatch.setattr(FreeSimplicialResolution, name, recording)
    for wb in range(7):
        build_derham(pres, hodge_cut=wb + 1, window=(0, 1), weight_bound=wb)
    compared = collections.Counter()
    for name, res, blocks in made:
        for (n, i, w), got in blocks.items():
            want = _PER_BLOCK[name](res, n, i, w)
            assert got.shape == want.shape and got == want, (name, n, i, w)
            assert all(a.dtype == np.int64 for a in got[:3]), (name, n, i, w)
            compared[name] += got.vals.size > 0
    assert compared["face_sums"] and compared["exterior_derivatives"], compared


def test_non_monomial_f_has_no_monomial_faces():
    res = FreeSimplicialResolution(AlgebraPresentation(F2, "hypersurface", "x", (1, 1, 1)), 2, 2)
    with pytest.raises(ValueError, match="monomial f"):
        res.face_exponents(1, np.zeros((1, 2), dtype=np.int64))


def test_wedge_images_of_the_face_targets_equal_the_reference():
    for n in range(1, 9):
        assert FreeSimplicialResolution.face_targets(n).shape == (n + 1, n + 1)
        for i in range(n + 1):
            targets = FreeSimplicialResolution.face_targets(n)[i]
            assert targets.dtype == np.int64
            assert np.array_equal(np.where(targets > 0, targets, -1), reference_cotangent.wedge_face(n, i)), (n, i)


def test_face_targets_are_made_once_per_level_and_read_only():
    targets = FreeSimplicialResolution.face_targets
    assert targets(4) is targets(4) and targets(4) is not targets(5)
    with pytest.raises(ValueError, match="read-only"):
        targets(4)[2, 0] = 1


def test_face_targets_satisfy_the_simplicial_identities():
    # as substitutions on x, t_1..t_n: -1 is 0, and 0 stays x or f (faces fix x)
    def then(first, second):
        return np.where(first >= 0, second[first], -1)

    targets = FreeSimplicialResolution.face_targets
    for n in range(2, 7):
        for j in range(n + 1):
            for i in range(j):
                lhs = then(targets(n)[j], targets(n - 1)[i])
                rhs = then(targets(n)[i], targets(n - 1)[j - 1])
                assert np.array_equal(lhs, rhs), (n, i, j)


_HYPERSURFACES = [AlgebraPresentation(F2, "hypersurface", "x", (1, 1, 1)),
                  AlgebraPresentation(Z4, "hypersurface", "x", (1, 1, 1)),
                  AlgebraPresentation(F3, "hypersurface", "x", (0, 0, 0, 1))]


@pytest.mark.parametrize("pres", _face_rule_presentations() + _HYPERSURFACES,
                         ids=lambda p: f"{p.shape}-{p.ring}-{p.f_coeffs}")
def test_cotangent_complex_equals_the_slot_reference(pres):
    for depth in range(1, 7):
        res = FreeSimplicialResolution(pres, depth, 4)
        got, want = res.cotangent_complex(), reference_cotangent.cotangent_complex(res)
        assert got.dims == want.dims and got.trusted == want.trusted
        assert got.diffs.keys() == want.diffs.keys()
        for key, a in got.diffs.items():
            assert a == want.diffs[key], (depth, key)
            assert all(x.dtype == np.int64 for x in a[:3])
