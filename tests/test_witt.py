"""Witt vectors, structure polynomials, tilts, theta and its kernel."""

import functools
import itertools
import random
import time

import numpy as np
import pytest
import reference_witt

from derhamkit import suites, upoly, witt
from derhamkit.exactlin import ModRing
from derhamkit.suites import run_suite
from derhamkit.witt import (
    CyclotomicModel,
    QuotientRing,
    WittRing,
    cyclotomic_polynomial_ppower,
    epsilon_root_witt,
    epsilon_witt,
    generator_ring_homomorphisms,
    is_ring_map,
    ker_theta_report,
    lift_homomorphism,
    structure_polynomials,
    theta_map,
    tilt_ring,
    xi_cyclotomic,
)


def plain_ring(p, n):
    return QuotientRing(ModRing(p, n), (0, 1))


def _model_id(model):
    return f"CyclotomicModel(p={model.p}, m={model.m}, n={model.n}, k={model.k})"


def test_witt_vectors_combine_over_equal_rings_only():
    base = plain_ring(2, 1)
    ring, same = WittRing(2, 2, base), WittRing(2, 2, base)
    assert same == ring and (same.one + ring.one).coords == (ring.one + ring.one).coords
    for other in (WittRing(2, 3, base), WittRing(2, 2, plain_ring(2, 1))):
        assert other != ring
        with pytest.raises(ValueError, match="different rings"):
            other.one + ring.one


def test_structure_polynomial_examples():
    t = structure_polynomials(2, 2)
    assert t.add[0] == {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}
    assert t.mul[0] == {(1, 0, 1, 0): 1}
    assert t.add[1] == {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (1, 0, 1, 0): -1}
    assert t.mul[1] == {(2, 0, 0, 1): 1, (0, 1, 2, 0): 1, (0, 1, 0, 1): 2}
    # integrality and ghost identities for p = 3 up to length 3
    structure_polynomials(3, 3)


def test_w2_f2_addition_matches_z4():
    f2 = plain_ring(2, 1)
    w = WittRing(2, 2, f2)
    one = w.teichmuller(f2.one)
    assert (one + one).coords == (f2.zero, f2.one)  # 1 + 1 = 2 in Z/4


def test_teichmuller_multiplicative_and_unit():
    f9 = QuotientRing(ModRing(3, 1), (1, 0, 1))  # F_9 = F_3[x]/(x^2+1)
    w = WittRing(3, 2, f9)
    rng = random.Random(1)
    elems = list(f9.enumerate())
    for _ in range(20):
        x = rng.choice(elems)
        y = rng.choice(elems)
        assert (w.teichmuller(x) * w.teichmuller(y)).coords == w.teichmuller(f9.mul(x, y)).coords
    assert (w.one * w.teichmuller(elems[3])).coords == w.teichmuller(elems[3]).coords


def test_ghost_homomorphy_over_z8():
    base = plain_ring(2, 3)  # Z/8
    w = WittRing(2, 3, base)
    rng = random.Random(7)
    for _ in range(100):
        a = w.vector(tuple((rng.randrange(8),) for _ in range(3)))
        b = w.vector(tuple((rng.randrange(8),) for _ in range(3)))
        ga, gb = a.ghost(), b.ghost()
        gs = (a + b).ghost()
        gp = (a * b).ghost()
        for i in range(3):
            assert gs[i] == base.add(ga[i], gb[i])
            assert gp[i] == base.mul(ga[i], gb[i])


def test_ghost_homomorphy_over_zp4():
    base = plain_ring(2, 4)  # Z/16
    w = WittRing(2, 4, base)
    rng = random.Random(9)
    for _ in range(30):
        a = w.vector(tuple((rng.randrange(16),) for _ in range(4)))
        b = w.vector(tuple((rng.randrange(16),) for _ in range(4)))
        gs = (a - b).ghost()
        ga, gb = a.ghost(), b.ghost()
        for i in range(4):
            assert gs[i] == base.add(ga[i], base.neg(gb[i]))


def test_w2_f2_has_one_ring_map_to_z4_labelled_by_the_image_of_x():
    # over F_2, x = 0: every candidate image of [x] gives the same map, and
    # only 0 is the image of [x]
    f2 = plain_ring(2, 1)
    w = WittRing(2, 2, f2)
    z4 = plain_ring(2, 2)
    ((label, images),) = generator_ring_homomorphisms(w, z4)
    assert label == (0,) == images[w.teichmuller(f2.x_power(1)).coords]
    assert sorted(images.values()) == sorted(z4.enumerate())  # an isomorphism


def test_the_w2_f2_case_fails_when_the_search_finds_no_bijective_map(monkeypatch):
    found = suites.generator_ring_homomorphisms

    def without_z4_maps(source, target):
        return [] if target.size == 4 else found(source, target)

    monkeypatch.setattr(suites, "generator_ring_homomorphisms", without_z4_maps)
    report = run_suite("witt-layer")
    cases = {c.name: c for c in report.cases}
    case = cases.pop("W2(F2)=Z/4")
    assert case.status == "fail" and case.computed == "none" and report.exit_code() == 1
    assert {c.status for c in cases.values()} == {"pass"}


def test_w2_f4_isomorphic_to_z4_adjoin_root():
    f4 = QuotientRing(ModRing(2, 1), (1, 1, 1))
    w = WittRing(2, 2, f4)
    target = QuotientRing(ModRing(2, 2), (1, 1, 1))  # Z/4[x]/(x^2+x+1)
    homs = generator_ring_homomorphisms(w, target)
    isos = [h for h in homs if len(set(h[1].values())) == 16]
    assert isos, "no isomorphism found by exhaustion"
    # the two maps, each labelled by the image of [x]: the identity lift and its Frobenius twist
    assert [label for label, _ in homs] == [(0, 1), (3, 3)]
    assert all(images[w.teichmuller(f4.x_power(1)).coords] == label for label, images in homs)


def test_p_filtration_layers():
    # p^i W_n(F_q) / p^(i+1) W_n(F_q) has q elements, realized by r -> p^i [r]
    for gpoly, q in (((0, 1), 2), ((1, 1, 1), 4)):
        fq = QuotientRing(ModRing(2, 1), gpoly)
        w = WittRing(2, 2, fq)
        p_w = {(x + x).coords for x in w.enumerate()}  # 2 * W
        assert len(p_w) == q
        # the map r -> p[r] hits each class once: p[r] - p[s] = 0 iff r = s
        reps = {}
        for r in fq.enumerate():
            tr = w.teichmuller(r)
            reps[r] = (tr + tr).coords
        assert len(set(reps.values())) == q
        # additive: p[r] + p[s] = p[r + s] modulo p^2 W = 0
        for r in fq.enumerate():
            for s in fq.enumerate():
                lhs = w.vector(reps[r]) + w.vector(reps[s])
                assert lhs.coords == reps[fq.add(r, s)]


def test_lift_homomorphism_identity_and_frobenius():
    f4 = QuotientRing(ModRing(2, 1), (1, 1, 1))
    w = WittRing(2, 2, f4)
    s = QuotientRing(ModRing(2, 2), (1, 1, 1))

    def reduction(a):
        return tuple(c % 2 for c in a)

    # identity reduction lifts to a ring isomorphism
    lift_id = lift_homomorphism(lambda r: r, f4, w, s, reduction)
    vals = {lift_id(x) for x in w.enumerate()}
    assert len(vals) == 16
    for a in w.enumerate():
        for b in w.enumerate():
            assert lift_id(a + b) == s.add(lift_id(a), lift_id(b))
            assert lift_id(a * b) == s.mul(lift_id(a), lift_id(b))
    # Frobenius reduction lifts; uniqueness by exhaustion over all ring maps
    frob = lambda r: f4.power(r, 2)
    lift_fr = lift_homomorphism(frob, f4, w, s, reduction)
    homs = generator_ring_homomorphisms(w, s)
    matching = []
    for img, images in homs:
        if all(reduction(images[w.teichmuller(r).coords]) == frob(r) for r in f4.enumerate()):
            matching.append(images)
    assert len(matching) == 1
    assert all(matching[0][x.coords] == lift_fr(x) for x in w.enumerate())


def test_lift_homomorphism_lift_independent():
    f4 = QuotientRing(ModRing(2, 1), (1, 1, 1))
    w = WittRing(2, 2, f4)
    s = QuotientRing(ModRing(2, 2), (1, 1, 1))
    reduction = lambda a: tuple(c % 2 for c in a)
    twisted = lambda rbar: tuple((c + 2) % 4 for c in rbar)  # lift shifted by p
    l1 = lift_homomorphism(lambda r: r, f4, w, s, reduction)
    l2 = lift_homomorphism(lambda r: r, f4, w, s, reduction, lifts=twisted)
    for x in w.enumerate():
        assert l1(x) == l2(x)


def test_lift_homomorphism_requires_perfect():
    notperf = QuotientRing(ModRing(2, 1), (0, 0, 1))  # F_2[x]/(x^2): Frobenius kills x
    w = WittRing(2, 2, notperf)
    s = QuotientRing(ModRing(2, 2), (0, 0, 1))
    with pytest.raises(ValueError):
        lift_homomorphism(lambda r: r, notperf, w, s, lambda a: tuple(c % 2 for c in a))


def test_cyclotomic_model_invariants():
    with pytest.raises(ValueError):
        CyclotomicModel(2, 2, 2, 2)  # k > m - 1
    with pytest.raises(ValueError):
        CyclotomicModel(2, 3, 2, 1)  # k < n
    m = CyclotomicModel(2, 3, 2, 2)
    assert m.ring_o().size == 4 ** 4


def test_tilt_ring_small_example():
    model = CyclotomicModel(2, 2, 1, 1)
    t = tilt_ring(model)
    elems = list(t.enumerate())
    assert len(elems) == 4  # O/2 = F_2[x]/((x+1)^2) has 4 compatible pairs
    assert all(t.validate(e) for e in elems)
    assert t.zero in elems and t.one in elems
    assert t.validate(t.epsilon())
    assert t.raise_frobenius_bijective()


def test_theta_identities():
    model = CyclotomicModel(2, 3, 2, 2)
    t = tilt_ring(model)
    w = WittRing(2, 2, t)
    o = model.ring_o()
    eps = epsilon_witt(w, t)
    assert theta_map(eps, model) == o.one
    assert theta_map(w.one, model) == o.one
    two = w.one + w.one
    assert theta_map(two, model) == o.scale(2, o.one)
    # theta([eps^{1/2}]) = zeta_2 = -1 exactly
    root = epsilon_root_witt(w, t)
    assert theta_map(root, model) == o.neg(o.one)
    # theta reduces mod p to the projection onto the zeroth entry
    import random

    rng = random.Random(3)
    elems = list(t.enumerate())
    for _ in range(20):
        a = w.vector((rng.choice(elems), rng.choice(elems)))
        th = theta_map(a, model)
        assert tuple(c % 2 for c in th) == a.coords[0][0]


def test_theta_sharp_lift_independent():
    model = CyclotomicModel(2, 3, 2, 2)
    t = tilt_ring(model)
    w = WittRing(2, 2, t)
    import random

    rng = random.Random(5)
    elems = list(t.enumerate())
    o = model.ring_o()
    twisted = lambda rbar: tuple((c + 2 * rng.randrange(2)) % 4 for c in rbar)
    for _ in range(20):
        a = w.vector((rng.choice(elems), rng.choice(elems)))
        assert theta_map(a, model) == theta_map(a, model, lift=twisted)


def test_ker_theta_model():
    model = CyclotomicModel(2, 3, 2, 2)
    rep = ker_theta_report(model)
    assert (rep.theta_is_ring_hom and rep.theta_epsilon_is_one and rep.theta_xi_zero
            and rep.eps_minus_one_in_kernel and rep.kernel_generated_by_xi)
    assert rep.sizes["tilt"] == 16 and rep.sizes["witt"] == 256
    assert rep.raise_frobenius_bijective
    # theta(1 + [eps^{1/2}]) = 1 + (-1) = 0
    t = tilt_ring(model)
    w = WittRing(2, 2, t)
    o = model.ring_o()
    xi = xi_cyclotomic(w, t)
    assert theta_map(xi, model) == o.zero
    # [1] - [1] = 0 is in the kernel
    assert theta_map(w.one - w.one, model) == o.zero


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial_ppower(2, 1) == [1, 1]
    assert cyclotomic_polynomial_ppower(2, 3) == [1, 0, 0, 0, 1]
    assert cyclotomic_polynomial_ppower(3, 2) == [1, 0, 0, 1, 0, 0, 1]


def test_ghost_components_of_a_shifted_vector():
    # V(a) = (0, a_0, ..., a_{k-2}) has w_i(V a) = p * w_{i-1}(a), and V is additive
    base = plain_ring(3, 2)  # Z/9
    w = WittRing(3, 2, base)
    import random

    def verschiebung(a):
        return w.vector((base.zero,) + a.coords[:-1])

    rng = random.Random(13)
    for _ in range(20):
        a = w.vector(tuple((rng.randrange(9),) for _ in range(2)))
        b = w.vector(tuple((rng.randrange(9),) for _ in range(2)))
        va = verschiebung(a)
        ga = a.ghost()
        gva = va.ghost()
        assert gva[0] == base.zero
        assert gva[1] == base.scale(3, ga[0])
        assert verschiebung(a + b).coords == (verschiebung(a) + verschiebung(b)).coords


def test_theta_model_odd_prime():
    model = CyclotomicModel(3, 2, 1, 1)
    t = tilt_ring(model)
    assert t.size == 729
    w = WittRing(3, 1, t)
    o = model.ring_o()
    eps = epsilon_witt(w, t)
    assert theta_map(eps, model) == o.one
    xi = xi_cyclotomic(w, t)
    assert theta_map(xi, model) == o.zero  # 1 + zeta_3 + zeta_3^2 = 0
    assert theta_map(eps - w.one, model) == o.zero


class _MemoizedBase:
    """A base ring's own zero, one, add, mul and scale, memoized so that the
    reference can run on every pair of a Witt carrier in a few seconds."""

    def __init__(self, base):
        self.zero, self.one = base.zero, base.one
        self.add, self.mul, self.scale = (functools.cache(op) for op in (base.add, base.mul, base.scale))


def _reference_base(base):
    """The per-element operations of ``base`` that the references use."""
    return reference_witt.TiltArithmetic(base) if isinstance(base, witt.TiltRing) else base


def _assert_matches_reference(w, index_pairs):
    """WittVector +, * and negation, and the pair tables, equal the tuple
    reference on the given pairs of enumeration positions."""
    t = w.table()
    base = _MemoizedBase(_reference_base(w.base))
    elems = list(w.enumerate())
    add_pos, mul_pos = reference_witt.pair_tables(w)
    for i, j in index_pairs:
        a, b = elems[i], elems[j]
        ref_add = reference_witt.witt_op(base, t.add, a, b)
        ref_mul = reference_witt.witt_op(base, t.mul, a, b)
        assert (a + b).coords == ref_add == elems[add_pos[i, j]].coords
        assert (a * b).coords == ref_mul == elems[mul_pos[i, j]].coords
    for i in {i for pair in index_pairs for i in pair}:
        assert (-elems[i]).coords == reference_witt.witt_op(base, t.neg, elems[i])


def test_coded_arithmetic_matches_reference_on_every_pair_of_w2_f4():
    f4 = QuotientRing(ModRing(2, 1), (1, 1, 1))
    w = WittRing(2, 2, f4)
    _assert_matches_reference(w, list(itertools.product(range(16), repeat=2)))


def test_coded_arithmetic_matches_reference_on_every_pair_of_w2_tilt():
    w = WittRing(2, 2, tilt_ring(CyclotomicModel(2, 3, 2, 2)))
    _assert_matches_reference(w, list(itertools.product(range(256), repeat=2)))


def test_coded_arithmetic_matches_reference_on_seeded_pairs_of_w3_z8():
    w = WittRing(2, 3, plain_ring(2, 3))
    rng = random.Random(11)
    _assert_matches_reference(w, [(rng.randrange(512), rng.randrange(512)) for _ in range(200)])


def test_is_ring_map_rejects_an_additive_map_that_is_not_multiplicative():
    f2 = plain_ring(2, 1)
    w = WittRing(2, 2, f2)
    z4 = plain_ring(2, 2)
    ((_, phi),) = generator_ring_homomorphisms(w, z4)
    images = np.array([phi[x.coords] for x in w.enumerate()]).T
    assert is_ring_map(w, images, z4)
    tripled = 3 * images % 4  # 3 phi(1) * 3 phi(1) = 1 != 3 phi(1)
    assert not is_ring_map(w, tripled, z4)


def test_carriers_above_the_coding_bound_are_rejected():
    big = QuotientRing(ModRing(2, 1), (0,) * 13 + (1,))  # F_2[x]/(x^13), 8192 elements
    w = WittRing(2, 1, big)
    with pytest.raises(ValueError, match="2\\^12"):
        w.one + w.one
    z128 = plain_ring(2, 7)
    with pytest.raises(ValueError, match="2\\^16"):
        WittRing(2, 3, z128).coordinate_codes()  # 2^21 elements
    assert WittRing(2, 2, z128).coordinate_codes()[0].shape == (2 ** 14,)
    with pytest.raises(ValueError, match="2\\^12"):
        reference_witt.pair_tables(WittRing(2, 2, z128))
    assert reference_witt.pair_tables(WittRing(2, 1, z128))[0].shape == (128, 128)


def test_theta_epsilon_reports_a_non_homomorphism_as_a_failed_case(monkeypatch):
    theta = witt.theta_digits

    def squared(model, codes, lift=None):  # multiplicative, but not additive in O/4
        digits = theta(model, codes, lift)
        return model.ring_o().mul_rows(digits, digits)

    monkeypatch.setattr(witt, "theta_digits", squared)
    rep = run_suite("theta-epsilon", {"p": 2, "m": 3, "n": 2, "k": 2}, seed=1)
    status = {case.name: case.status for case in rep.cases}
    assert status["theta-is-ring-hom"] == "fail"
    assert rep.exit_code() == 1


@pytest.mark.parametrize("shift", [1, 2], ids=["xi+1", "xi+2"])
def test_theta_epsilon_fails_theta_xi_and_kernel_generation_for_a_perturbed_xi(shift, monkeypatch):
    # xi + 1 is a unit, whose multiples are all of W; xi + 2 is not
    xi = witt.xi_cyclotomic

    def perturbed(wr, tilt):
        out = xi(wr, tilt)
        for _ in range(shift):
            out = out + wr.one
        return out

    monkeypatch.setattr(witt, "xi_cyclotomic", perturbed)
    rep = run_suite("theta-epsilon", {"p": 2, "m": 3, "n": 2, "k": 2}, seed=1)
    status = {case.name: case.status for case in rep.cases}
    assert status["theta-xi"] == status["kernel-multiples-of-xi"] == "fail"
    assert status["theta-is-ring-hom"] == status["theta-epsilon"] == "pass"
    assert rep.exit_code() == 1


def test_witt_layer_fails_ghost_homomorphy_for_a_perturbed_multiplication_polynomial(monkeypatch):
    honest = witt.structure_polynomials

    def perturbed(p, n):
        table = honest(p, n)
        if (p, n) != (2, 3):
            return table
        mul = [dict(s) for s in table.mul]
        expts = next(iter(mul[1]))
        mul[1][expts] += 1
        return witt.StructurePolynomialTable(p, n, table.add, tuple(mul), table.neg)

    monkeypatch.setattr(witt, "structure_polynomials", perturbed)
    rep = run_suite("witt-layer", {"cases": 100}, seed=1)
    status = {case.name: case.status for case in rep.cases}
    assert status["ghost-homomorphy-Z8"] == "fail"
    assert all(v == "pass" for k, v in status.items() if k != "ghost-homomorphy-Z8")
    assert rep.exit_code() == 1


def test_theta_epsilon_checks_the_enumerated_sizes_against_closed_forms(monkeypatch):
    report = suites.ker_theta_report

    def miscounted(model):
        rep = report(model)
        rep.sizes["tilt"] -= 1
        return rep

    monkeypatch.setattr(suites, "ker_theta_report", miscounted)
    rep = run_suite("theta-epsilon", {"p": 2, "m": 3, "n": 2, "k": 2}, seed=1)
    sizes = next(case for case in rep.cases if case.name == "model-enumerated-sizes")
    assert sizes.status == "fail" and "tilt=16" in sizes.expected and "tilt=15" in sizes.computed


def test_non_perfect_source_raises_once_frobenius_is_tabulated():
    notperf = QuotientRing(ModRing(2, 1), (0, 0, 1))  # F_2[x]/(x^2): Frobenius kills x
    with pytest.raises(ValueError, match="not bijective"):
        notperf.frobenius_inverse_table()
    assert len(QuotientRing(ModRing(2, 1), (1, 1, 1)).frobenius_inverse_table()) == 4


def test_lift_homomorphism_computes_the_source_frobenius_once(monkeypatch):
    f4 = QuotientRing(ModRing(2, 1), (1, 1, 1))
    s = QuotientRing(ModRing(2, 2), (1, 1, 1))
    calls = []
    power = QuotientRing.power
    monkeypatch.setattr(QuotientRing, "power", lambda self, a, k: calls.append(self) or power(self, a, k))
    lift_homomorphism(lambda r: r, f4, WittRing(2, 2, f4), s, lambda a: tuple(c % 2 for c in a))
    assert sum(ring is f4 for ring in calls) == f4.size


def _assert_tilt_ops_componentwise(t, i, j):
    """The tilt's tables, and the per-element reference operations, act
    entry by entry on the sequences at positions i and j."""
    o, ref = t.omodp, reference_witt.TiltArithmetic(t)
    seqs, _, add, mul = t.tables
    a, b = seqs[i], seqs[j]
    assert seqs[add[i, j]] == ref.add(a, b) == tuple(o.add(x, y) for x, y in zip(a, b))
    assert seqs[mul[i, j]] == ref.mul(a, b) == tuple(o.mul(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("model", [CyclotomicModel(2, 2, 1, 1), CyclotomicModel(2, 3, 2, 2)], ids=_model_id)
def test_tilt_operations_match_componentwise_on_every_pair(model):
    t = tilt_ring(model)
    ref = reference_witt.TiltArithmetic(t)
    elems = list(t.enumerate())
    assert len(set(elems)) == t.size and all(t.validate(e) for e in elems)
    for i, a in enumerate(elems):
        for j in range(len(elems)):
            _assert_tilt_ops_componentwise(t, i, j)
        for c in range(-2, 5):
            assert t.scale(c, a) == tuple(t.omodp.scale(c, x) for x in a)
        for k in range(6):
            assert ref.power(a, k) == tuple(t.omodp.power(x, k) for x in a)


def test_tilt_operations_match_componentwise_on_seeded_pairs_of_odd_tilt():
    t = tilt_ring(CyclotomicModel(3, 2, 1, 1))
    rng = random.Random(5)
    for _ in range(500):
        _assert_tilt_ops_componentwise(t, rng.randrange(t.size), rng.randrange(t.size))


TABLE_RINGS = {
    "F_2": plain_ring(2, 1),
    "Z/8": plain_ring(2, 3),
    "F_4": QuotientRing(ModRing(2, 1), (1, 1, 1)),
    "Z/4[x]/(x^2+x+1)": QuotientRing(ModRing(2, 2), (1, 1, 1)),
    "F_5[x]/(x^2+2)": QuotientRing(ModRing(5, 1), (2, 0, 1)),
    "O(2,3,2,2)": CyclotomicModel(2, 3, 2, 2).ring_o(),
    "O/p(2,3,2,2)": CyclotomicModel(2, 3, 2, 2).ring_o_mod_p(),
    "O(3,2,1,1)": CyclotomicModel(3, 2, 1, 1).ring_o(),
    "O/p(3,2,1,1)": CyclotomicModel(3, 2, 1, 1).ring_o_mod_p(),
}


def _table_rows(size):
    """Every row of a table up to 256 elements, and 24 seeded rows of the
    729-element rings, where the per-pair reference on every row takes
    seconds."""
    return range(size) if size <= 256 else sorted(random.Random(size).sample(range(size), 24))


def _assert_tables_match_reference(tables, base):
    elems, code, add, mul = tables
    rows = _table_rows(base.size)
    ref_elems, ref_code, ref_add, ref_mul = reference_witt.coding(_reference_base(base), rows)
    assert elems == ref_elems and code == ref_code
    assert add.dtype == mul.dtype == np.int32 and add.shape == mul.shape == (base.size, base.size)
    assert np.array_equal(add[rows], ref_add) and np.array_equal(mul[rows], ref_mul)


@pytest.mark.parametrize("name", list(TABLE_RINGS))
def test_quotient_ring_tables_and_folded_product_equal_the_per_pair_reference(name):
    ring = TABLE_RINGS[name]
    _assert_tables_match_reference(ring.tables, ring)
    elems = list(ring.enumerate())
    for i in _table_rows(ring.size):
        for b in elems:
            assert ring.mul(elems[i], b) == tuple(upoly.rem(upoly.mul(elems[i], b, ring.m), ring.g, ring.m))


@pytest.mark.parametrize("model", [CyclotomicModel(2, 3, 2, 2), CyclotomicModel(3, 2, 1, 1)], ids=_model_id)
def test_tilt_tables_and_witt_coding_equal_the_per_pair_reference(model):
    t = tilt_ring(model)
    _assert_tables_match_reference(t.tables, t)
    assert WittRing(model.p, model.n, t).coding is t.tables


def test_a_cyclotomic_model_builds_its_rings_once():
    model = CyclotomicModel(2, 3, 2, 2)
    assert model.ring_o() is model.ring_o() and model.ring_o_mod_p() is model.ring_o_mod_p()
    assert tilt_ring(model).omodp is model.ring_o_mod_p()


def test_is_ring_map_gives_the_reference_verdict_on_every_candidate(monkeypatch):
    verdicts = []
    check = witt.is_ring_map

    def compared(wr, images, target):
        verdict = check(wr, images, target)
        assert verdict == reference_witt.is_ring_map(wr, target.codes(images), target)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(witt, "is_ring_map", compared)
    f4 = QuotientRing(ModRing(2, 1), (1, 1, 1))
    generator_ring_homomorphisms(WittRing(2, 2, f4), QuotientRing(ModRing(2, 2), (1, 1, 1)))
    assert len(verdicts) == 16 and True in verdicts and False in verdicts
    del verdicts[:]
    generator_ring_homomorphisms(WittRing(2, 2, plain_ring(2, 1)), plain_ring(2, 2))
    assert verdicts == [True]


def test_is_ring_map_takes_a_target_above_the_coding_bound():
    # the target's arithmetic runs on digit rows: F_2[x]/(x^13), 8192
    # elements, would need 2^27 table entries
    big = QuotientRing(ModRing(2, 1), (0,) * 13 + (1,))
    w = WittRing(2, 1, plain_ring(2, 1))
    zero, one, x = np.array(big.zero), np.array(big.one), np.array(big.x_power(1))
    assert is_ring_map(w, np.stack([zero, one], axis=1), big)  # F_2 -> F_2[x]/(x^13)
    assert not is_ring_map(w, np.stack([zero, x], axis=1), big)  # 1 -> x: x^2 != x
    assert not is_ring_map(w, np.stack([one, one], axis=1), big)  # 0 -> 1: not additive
    with pytest.raises(ValueError, match="2\\^12"):
        big.tables


POWER_RINGS = {"Z/4": plain_ring(2, 2), **TABLE_RINGS}


@pytest.mark.parametrize("name", list(POWER_RINGS))
def test_power_equals_repeated_products_and_stops_squaring_after_the_last_bit(name, monkeypatch):
    # every base ring of the witt-layer and theta-epsilon suites, and F_25
    ring = POWER_RINGS[name]
    elems = list(ring.enumerate())
    calls = []
    honest = ring.mul
    monkeypatch.setattr(ring, "mul", lambda a, b: calls.append(1) or honest(a, b))
    for a in random.Random(ring.size).sample(elems, min(len(elems), 12)):
        want = ring.one
        for k in range(21):
            calls.clear()
            assert ring.power(a, k) == want, (a, k)
            assert len(calls) == bin(k).count("1") + max(k.bit_length() - 1, 0)
            want = honest(want, a)


def _twisted_lift(model):
    """A lift of O/p to O other than the digitwise one: add p to every digit
    of the elements whose first digit is nonzero."""
    m = model.ring_o().m
    return lambda z: tuple((c + model.p * (z[0] != 0)) % m for c in z)


THETA_MODELS = [CyclotomicModel(2, 3, 2, 2), CyclotomicModel(3, 2, 1, 1)]


@pytest.mark.parametrize("twisted", [False, True], ids=["default-lift", "twisted-lift"])
@pytest.mark.parametrize("model", THETA_MODELS, ids=_model_id)
def test_theta_on_every_element_equals_the_per_element_reference(model, twisted):
    t = tilt_ring(model)
    w = WittRing(model.p, model.n, t)
    lift = _twisted_lift(model) if twisted else None
    digits = witt.theta_digits(model, w.coordinate_codes(), lift)
    elems = list(w.enumerate())
    assert digits.shape == (model.ring_o().deg, len(elems))
    # theta_map calls a given lift on every element of O/p: check it on a sample
    one_by_one = set(random.Random(7).sample(range(len(elems)), 40)) if twisted else range(len(elems))
    for e, x in enumerate(elems):
        want = reference_witt.theta_map(x, model, lift)
        assert tuple(digits[:, e].tolist()) == want
        if e in one_by_one:
            assert theta_map(x, model, lift) == want


GHOST_RINGS = {
    "W_3(Z/8)": WittRing(2, 3, plain_ring(2, 3)),
    "W_2(F_4)": WittRing(2, 2, QuotientRing(ModRing(2, 1), (1, 1, 1))),
    "W_2(tilt(2,3,2,2))": WittRing(2, 2, tilt_ring(CyclotomicModel(2, 3, 2, 2))),
}


@pytest.mark.parametrize("name", list(GHOST_RINGS))
def test_ghost_on_every_element_equals_the_per_element_reference(name):
    w = GHOST_RINGS[name]
    elems, _, _, _ = w.coding
    base = _reference_base(w.base)
    ghosts = w.ghost(w.coordinate_codes())
    for e, x in enumerate(w.enumerate()):
        want = reference_witt.ghost(x, base)
        assert tuple(elems[g[e]] for g in ghosts) == want
        assert x.ghost() == want


@pytest.mark.parametrize("source, target", [
    (QuotientRing(ModRing(2, 1), (1, 1, 1)), QuotientRing(ModRing(2, 2), (1, 1, 1))),
    (plain_ring(2, 1), plain_ring(2, 2)),
], ids=["W_2(F_4)->Z/4[x]/(x^2+x+1)", "W_2(F_2)->Z/4"])
def test_generator_ring_homomorphisms_equal_the_per_element_reference(source, target):
    w = WittRing(2, 2, source)
    homs = generator_ring_homomorphisms(w, target)
    assert homs == reference_witt.generator_ring_homomorphisms(w, target)
    assert homs  # the identity-like lift at least


def test_theta_on_all_of_w2_at_2422_in_one_call():
    # 2^16 Witt vectors, the largest carrier enumerated: theta itself has no bound
    start = time.perf_counter()
    model = CyclotomicModel(2, 4, 2, 2)
    t = tilt_ring(model)
    w = WittRing(2, 2, t)
    digits = witt.theta_digits(model, w.coordinate_codes())
    elapsed = time.perf_counter() - start
    o = model.ring_o()
    assert digits.shape == (8, 2 ** 16)
    assert elapsed < 1, f"theta on W_2 at (2,4,2,2) took {elapsed:.2f} s"
    codes = o.codes(digits)
    assert codes[w.position(w.one)] == o.codes(o.one)
    assert codes[w.position(epsilon_witt(w, t))] == o.codes(o.one)
    assert codes[w.position(xi_cyclotomic(w, t))] == o.codes(o.zero)
    elems = list(t.enumerate())
    for e in random.Random(23).sample(range(2 ** 16), 300):
        x = w.vector((elems[e // 256], elems[e % 256]))
        assert tuple(digits[:, e].tolist()) == reference_witt.theta_map(x, model)


def _theta_maps(model):
    """(name, digit rows) of maps W_n(tilt) -> O: theta, and maps that fail
    one ring-map law each: theta^2 (not additive unless O is over F_2),
    theta with one image
    moved, 2 theta (additive, not unital), the zero map (additive and
    multiplicative, not unital) and the constant 1."""
    w = WittRing(model.p, model.n, tilt_ring(model))
    o = model.ring_o()
    theta = witt.theta_digits(model, w.coordinate_codes())
    moved = theta.copy()
    moved[0, -1] = (moved[0, -1] + 1) % o.m
    ones = np.broadcast_to(np.array(o.one)[:, None], theta.shape)
    return w, o, {"theta": theta, "theta^2": o.mul_rows(theta, theta), "moved": moved,
                  "2 theta": 2 * theta % o.m, "zero": np.zeros_like(theta), "one": ones}


@pytest.mark.parametrize("model", [CyclotomicModel(2, 2, 1, 1), *THETA_MODELS], ids=_model_id)
def test_the_generator_check_gives_the_exhaustive_verdict_on_theta_models(model):
    w, o, maps = _theta_maps(model)
    verdicts = {name: is_ring_map(w, images, o) for name, images in maps.items()}
    for name, images in maps.items():
        assert verdicts[name] == reference_witt.is_ring_map(w, o.codes(images), o), name
    # squaring is additive in characteristic 2: then theta^2 is a ring map too
    assert verdicts == {name: name == "theta" or (name == "theta^2" and o.m == 2) for name in maps}


def test_the_generators_are_the_shifted_unit_digit_vectors():
    w = WittRing(2, 2, tilt_ring(CyclotomicModel(2, 3, 2, 2)))  # O/p = F_2[x]/((x+1)^4)
    elems = list(w.enumerate())
    gens = [elems[g].coords for g in w.additive_generators()]
    sequence = reference_witt.TiltArithmetic(w.base).sequence  # deepest entry -> sequence
    units = [sequence[tuple(int(t == j) for t in range(4))] for j in range(4)]
    assert gens == [(u, w.base.zero) for u in units] + [(w.base.zero, u) for u in units]


def _reference_span(w, gens):
    """The subgroup of W generated by ``gens``, by the exhaustive pair tables."""
    add_pos, _ = reference_witt.pair_tables(w)
    reached = {w.position(w.zero)}
    while True:
        more = reached | {int(add_pos[a, g]) for a in reached for g in gens}
        if more == reached:
            return reached
        reached = more


@pytest.mark.parametrize("model", [CyclotomicModel(2, 3, 2, 2), CyclotomicModel(3, 2, 1, 1)], ids=_model_id)
def test_a_generating_set_with_one_element_dropped_fails_the_span_check(model, monkeypatch):
    w, o, maps = _theta_maps(model)
    gens = w.additive_generators()
    assert is_ring_map(w, maps["theta"], o)
    spans = []
    for k in range(gens.size):
        dropped = np.delete(gens, k)
        monkeypatch.setattr(WittRing, "additive_generators", lambda self: dropped)
        verdict = is_ring_map(WittRing(w.p, w.length, w.base), maps["theta"], o)  # a fresh generator_sums
        assert verdict == (len(_reference_span(w, dropped.tolist())) == w.size), k
        spans.append(verdict)
    # V^0[b] generates the quotient W / V W = R, so no other generator replaces it
    assert not any(spans[: gens.size // model.n])


def test_theta_epsilon_fails_the_ring_map_case_when_a_generator_is_dropped(monkeypatch):
    honest = WittRing.additive_generators
    monkeypatch.setattr(WittRing, "additive_generators", lambda self: honest(self)[1:])
    rep = run_suite("theta-epsilon", {"p": 2, "m": 3, "n": 2, "k": 2}, seed=1)
    status = {case.name: case.status for case in rep.cases}
    assert status.pop("theta-is-ring-hom") == "fail" and set(status.values()) == {"pass"}


def test_witt_additive_basis_writes_every_vector_as_its_combination():
    for base in (plain_ring(2, 1), QuotientRing(ModRing(2, 1), (1, 1, 1)), QuotientRing(ModRing(3, 1), (1, 0, 1))):
        w = WittRing(base.ring.p, 2, base)
        basis, coeffs = witt.witt_additive_basis(w)
        assert coeffs.shape == (base.deg, w.size)
        for e, x in enumerate(w.enumerate()):
            acc = w.zero
            for c, vec in zip(coeffs[:, e].tolist(), basis):
                for _ in range(c):
                    acc = acc + vec
            assert acc.coords == x.coords, e


def test_witt_additive_basis_rejects_a_basis_whose_combinations_collide():
    # over F_2[x]/(x^2), [x] + [x] = (0, x^2) = 0 in W_2, so 2 [x] = 0 collides
    notperf = QuotientRing(ModRing(2, 1), (0, 0, 1))
    with pytest.raises(AssertionError, match="collide"):
        witt.witt_additive_basis(WittRing(2, 2, notperf))
