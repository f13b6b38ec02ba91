"""Named verification suites: the user-facing map from statements to runs.

Each suite pins the finite models, tolerances and expected values for one
verified statement, draws any randomness from random.Random(seed) (the
stdlib Mersenne Twister, recorded in the report), and emits one pass/fail
case per check.  Reports serialize to a canonical JSON form;
reruns with the same parameters and seed reproduce every field except the
wall-clock entry.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from functools import partial
from math import comb

import numpy as np

from .complexes import DoubleComplex, GradedSliceComplex, slice_homology, total_complex
from .cotangent import AlgebraPresentation, cotangent_homology, parse_poly_string, shortcut_conormal_complex
from .derham import (
    build_derham,
    hodge_quotient_homology,
    pd_envelope_report,
    universal_thickening,
)
from .exactlin import ModRing
from .padicfield import cyclotomic_extension, different_valuation, omega_invariants
from .pdpow import derived_power, gamma_monomials, koszul_gamma_complex
from .randomgen import random_complex, random_invertible
from .simplex import (
    diagonal,
    double_kan,
    kan_transform,
    normalized_complex,
    unnormalized_complex,
)
from .witt import (
    CyclotomicModel,
    QuotientRing,
    WittRing,
    generator_ring_homomorphisms,
    ker_theta_report,
    lift_homomorphism,
)

__all__ = ["SuiteDescriptor", "SuiteReport", "list_suites", "run_suite", "SUITES"]

PASS = "pass"
FAIL = "fail"
TRUNCATED = "truncated-evidence"


class SuiteCase:
    def __init__(self, name: str, expected: str, computed: str, status: str):
        self.name = name
        self.expected = expected
        self.computed = computed
        self.status = status


class SuiteDescriptor:
    def __init__(self, name: str, anchor: str, params: tuple, runner: object):
        self.name = name
        self.anchor = anchor  # the mathematical statement the suite verifies
        self.params = params  # ((name, type, default), ...)
        self.runner = runner


class SuiteReport:
    def __init__(self, suite: str, params: dict, seed: int, cases: list, elapsed_ms: int):
        self.suite = suite
        self.params = params
        self.seed = seed
        self.cases = cases
        self.elapsed_ms = elapsed_ms

    @property
    def summary(self) -> dict:
        return {
            "pass": sum(1 for c in self.cases if c.status == PASS),
            "fail": sum(1 for c in self.cases if c.status == FAIL),
            "truncated": sum(1 for c in self.cases if c.status == TRUNCATED),
        }

    def exit_code(self, allow_truncated: bool = False) -> int:
        s = self.summary
        if not self.cases or s["fail"]:
            return 1
        if s["truncated"] and not allow_truncated:
            return 1
        return 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "params": self.params,
                "seed": self.seed,
                "cases": [
                    {"name": c.name, "expected": c.expected, "computed": c.computed, "status": c.status}
                    for c in self.cases
                ],
                "summary": self.summary,
                "elapsed_ms": self.elapsed_ms,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def to_text(self) -> str:
        lines = [f"suite {self.suite}  params {self.params}  seed {self.seed}"]
        for c in self.cases:
            lines.append(f"  [{c.status:>5}] {c.name}: expected {c.expected}, computed {c.computed}")
        s = self.summary
        lines.append(
            f"  {s['pass']} pass, {s['fail']} fail, {s['truncated']} truncated-evidence "
            f"({self.elapsed_ms} ms)"
        )
        return "\n".join(lines)


def _case(name, expected, computed, ok=None, truncated=False):
    if truncated:
        status = TRUNCATED
    else:
        status = PASS if (ok if ok is not None else expected == computed) else FAIL
    return SuiteCase(name, str(expected), str(computed), status)


# ---------------------------------------------------------------------------
# suite runners


def _ring_from_params(params) -> ModRing:
    return ModRing(params["p"], params["n"])


def run_dold_kan(params, rng):
    cases = []
    if params["p"]:
        rings = [ModRing(params["p"], max(params["n"], 1))]
    else:
        rings = [ModRing(2, 2), ModRing(3, 2), ModRing(5, 1)]
    for ring in rings:
        for t in range(params["cases"]):
            c = random_complex(ring, rng, params["max_degree"], params["max_rank"],
                               weight_choices=(0, 1))
            x = kan_transform(c, d_max=c.n_max + 1)
            n = normalized_complex(x)
            bad = _first_differing_slice(n, c)
            u = unnormalized_complex(x)
            weights = sorted(set(n.weights()) | set(u.weights()))
            keys = [(deg, w) for deg in range(c.n_max + 1) for w in weights]
            bad_h = _first_mismatch(partial(slice_homology, n),
                                    [(k, slice_homology(u, *k)) for k in keys])
            cases.append(_case(f"{ring}-case{t:02d}-roundtrip", "N(K(C)) = C",
                               "equal" if bad is None else "mismatch " + bad, ok=bad is None))
            cases.append(_case(f"{ring}-case{t:02d}-homology", "H(N) = H(C)",
                               "equal" if bad_h is None else "mismatch " + bad_h, ok=bad_h is None))
    return cases


def _first_differing_slice(got, want) -> str | None:
    """The first (degree, weight) up to the top degree of ``want`` where the
    complex ``got`` has another dimension or differential, named with both;
    None if they agree there."""
    for (n, w) in sorted(k for k in set(got.dims) | set(want.dims) if k[0] <= want.n_max):
        if got.dim(n, w) != want.dim(n, w):
            return f"at (degree {n}, weight {w}): expected dim {want.dim(n, w)}, computed dim {got.dim(n, w)}"
        a, b = got.diff(n, w), want.diff(n, w)
        if not np.array_equal(a, b):
            return f"at (degree {n}, weight {w}): expected differential {b.tolist()}, computed {a.tolist()}"
    return None


def run_eilenberg_zilber(params, rng):
    cases = []
    ring = _ring_from_params(params)
    made = 0
    while made < params["cases"]:
        c1 = random_complex(ring, rng, 2, 2)
        c2 = random_complex(ring, rng, 2, 2)
        if not (c1.dims and c2.dims):
            continue
        made += 1
        u = c1.weights()[0] if c1.weights() else 0
        v = c2.weights()[0] if c2.weights() else 0
        w = u + v
        terms = {}
        horiz = {}
        vert = {}
        for pdeg in c1.degrees():
            for q in c2.degrees():
                if c1.dim(pdeg, u) and c2.dim(q, v):
                    terms[(pdeg, q, w)] = c1.dim(pdeg, u) * c2.dim(q, v)
        for (pdeg, q, _) in terms:
            if (pdeg - 1, q, w) in terms:
                horiz[(pdeg, q, w)] = np.kron(c1.diff(pdeg, u), np.eye(c2.dim(q, v), dtype=np.int64)) % ring.modulus
            if (pdeg, q - 1, w) in terms:
                vert[(pdeg, q, w)] = np.kron(np.eye(c1.dim(pdeg, u), dtype=np.int64), c2.diff(q, v)) % ring.modulus
        dc = DoubleComplex(ring, terms, horiz, vert)
        x = double_kan(dc, p_max=5, q_max=5)
        diag = diagonal(x)
        ncx = normalized_complex(diag)
        tot = total_complex(dc)
        bad = _first_mismatch(partial(slice_homology, ncx),
                              [((deg, w), slice_homology(tot, deg, w) if tot.n_min <= deg <= tot.n_max else [])
                               for deg in range(5)])
        cases.append(_case(f"bisimplicial-{made:02d}", "pi_n(diag) = H_n(Tot), n <= 4",
                           "equal" if bad is None else "mismatch " + bad, ok=bad is None))
    return cases


def run_cotangent_regular(params, rng):
    cases = []
    targets = [
        (ModRing(3, 1), (0, 1), "F_3[x]/(x)"),
        (ModRing(2, 1), (0, 0, 1), "F_2[x]/(x^2)"),
        (ModRing(2, 2), (0, 1), "Z/4[x]/(x)"),
    ]
    for ring, f, label in targets:
        pres = AlgebraPresentation(ring, "quotient", "x", f)
        result = cotangent_homology(pres, (0, 2), weight_bound=3 * pres.degree, depth=4)
        h0_zero = result.report.total_length(0) == 0
        d = pres.degree
        h1_ok = all(
            result.report.factors(1, w + d) == [ring.modulus] for w in range(d)
        )
        short = shortcut_conormal_complex(pres, 2)
        weights = sorted(set(result.complex.weights()) | set(short.weights()))
        bad = _first_mismatch(partial(slice_homology, result.complex),
                              [((n, w), slice_homology(short, n, w)) for n in range(3) for w in weights])
        cases.append(_case(f"{label}-H0", "0", "0" if h0_zero else "nonzero", ok=h0_zero))
        cases.append(_case(f"{label}-H1", "B per weight", "match" if h1_ok else "mismatch", ok=h1_ok))
        cases.append(_case(f"{label}-shortcut", "I/I^2[1] equal",
                           "equal" if bad is None else "mismatch " + bad, ok=bad is None))
    return cases


def run_quillen_shift(params, rng):
    cases = []
    rings = [ModRing(params["p"], max(params["n"], 1))] if params["p"] else [ModRing(2, 2), ModRing(3, 1)]
    ranks = [params["rank"]] if params["rank"] else [1, 2]
    for ring in rings:
        for rank in ranks:
            e_shift = GradedSliceComplex(ring, 0, 1, {(1, 0): rank}, {})
            powers = [params["power"]] if params["p"] or params["rank"] else range(1, params["power"] + 1)
            for power in powers:
                rep = derived_power(e_shift, "wedge", power, degrees=range(power + 2))
                expected_rank = comb(power + rank - 1, power)
                got = rep.factors(power, 0)
                ok = got == [ring.modulus] * expected_rank
                for deg in range(power + 2):
                    if deg != power and rep.factors(deg, 0):
                        ok = False
                cases.append(_case(
                    f"{ring}-rank{rank}-n{power}",
                    f"Gamma^{power} in degree {power} (rank {expected_rank})",
                    str(got), ok=ok,
                ))
            audit = all(
                len(gamma_monomials(r, nn)) == comb(nn + r - 1, nn)
                for r in (1, 2, 3) for nn in range(0, 4)
            )
            cases.append(_case(f"{ring}-rank{rank}-gamma-count",
                               "binomial(n+r-1, n)", "match" if audit else "mismatch", ok=audit))
    return cases


def run_koszul_gamma(params, rng):
    cases = []
    for ring in (ModRing(3, 2), ModRing(2, 1)):
        for t in range(params["cases"]):
            a = rng.randint(1, 2)
            c = rng.randint(1, 2)
            f = a + c
            q, qinv = random_invertible(f, ring, rng)
            # u = [I_a | 0] q and v = q^-1 [0 ; I_c]: a split short exact sequence
            u, v = q[:a], qinv[:, a:]
            ok = True
            for nn in (1, 2, 3):
                _, exact = koszul_gamma_complex(u, v, nn, ring)
                ok = ok and exact
            cases.append(_case(f"{ring}-split-{t:02d}", "exact for n <= 3",
                               "exact" if ok else "not exact", ok=ok))
    # the two degenerate identity cases
    ring = ModRing(3, 2)
    u = np.array([[1]])
    v = np.zeros((1, 0), dtype=np.int64)
    _, exact1 = koszul_gamma_complex(u, v, 2, ring)
    cases.append(_case("degenerate-id-left", "Gamma^n(A) = Gamma^n(A)",
                       "exact" if exact1 else "not exact", ok=exact1))
    u = np.zeros((0, 1), dtype=np.int64)
    v = np.array([[1]])
    _, exact2 = koszul_gamma_complex(u, v, 1, ring)
    cases.append(_case("degenerate-id-right", "A = A", "exact" if exact2 else "not exact", ok=exact2))
    return cases


def run_drpd_modp(params, rng):
    return [case for p in (2, 3) for case in _drpd_modp_cases(p, params["weight_bound"], params["window_top"])]


def _drpd_modp_cases(p: int, wb: int, top: int) -> list:
    """The cases of one prime; its complex is freed when they are made,
    before the next prime's is built."""
    cases = []
    pres = AlgebraPresentation(ModRing(p, 1), "quotient", "x", (0, 1))
    f = build_derham(pres, hodge_cut=wb + 1, window=(0, top), weight_bound=wb)
    for i in range(1, wb + 1):
        rep = hodge_quotient_homology(f, i, degrees=[0])
        dim = sum(len(e["factors"]) for (deg, _), e in rep.entries.items() if deg == 0)
        cases.append(_case(f"p{p}-dim-H0-mod-F{i}", str(i), str(dim)))
    full = hodge_quotient_homology(f, wb + 1, degrees=range(top + 1))
    bad = _first_mismatch(full.factors, [((0, w), [p]) for w in range(wb + 1)])
    cases.append(_case(f"p{p}-weight-slices", "one-dimensional for w <= " + str(wb),
                       "ok" if bad is None else "mismatch " + bad, ok=bad is None))
    bad = _first_mismatch(full.factors, [((n, w), []) for n in range(1, top + 1) for w in range(wb + 1)])
    cases.append(_case(f"p{p}-higher-vanishing", f"H_1..H_{top} = 0 in window",
                       "ok" if bad is None else "nonzero " + bad, ok=bad is None))
    return cases


def _first_mismatch(factors, expected) -> str | None:
    """The first ((degree, weight), factors) in ``expected`` that
    ``factors(degree, weight)`` does not match, named with both factor
    lists; None if all match."""
    for (n, w), want in expected:
        got = factors(n, w)
        if got != want:
            return f"at (degree {n}, weight {w}): expected {want}, computed {got}"
    return None


def run_drpd_envelope(params, rng):
    cases = []
    z4 = ModRing(2, 2)
    rep = pd_envelope_report(AlgebraPresentation(z4, "quotient", "x", (0, 1)),
                             weight_bound=params["weight_bound"])
    bad = _first_failing_verdict(rep.slice_verdicts, lambda a, b, eq: eq and a == [4])
    cases.append(_case("Z4-x-slices", "(4) per weight", "ok" if bad is None else "mismatch " + bad,
                       ok=bad is None))
    bad = _first_failing_verdict(rep.filtration_verdicts)
    cases.append(_case("Z4-x-filtration", "Hodge = PD filtration",
                       "ok" if bad is None else "mismatch " + bad, ok=bad is None))
    cases.append(_case("Z4-x-iso-certified", "certified generator map",
                       "ok" if rep.iso_certified else f"failed at weight {rep.iso_failure}", ok=rep.iso_certified))
    fstr = params["f"]
    fco = tuple(parse_poly_string(fstr))
    rep2 = pd_envelope_report(AlgebraPresentation(z4, "quotient", "x", fco),
                              weight_bound=params["weight_bound"])
    bad = (_first_failing_verdict(rep2.slice_verdicts) or _first_failing_verdict(rep2.filtration_verdicts)
           or (None if rep2.higher_vanishing else "in higher homology: H_n != 0 for some n >= 1")
           or (None if rep2.iso_certified
               else f"in the generator map: not a certified isomorphism at weight {rep2.iso_failure}"))
    cases.append(_case(f"Z4-f-{fstr.replace(' ', '')}-slices", f"A<t>/(t - ({fstr})) slice match",
                       "ok" if bad is None else "mismatch " + bad, ok=bad is None))
    return cases


def _first_failing_verdict(verdicts, ok=lambda a, b, eq: eq) -> str | None:
    """The first weight, or (level, weight), of a ``pd_envelope_report``
    verdict table whose (de Rham factors, PD factors, equal) fails ``ok``,
    named with both factor lists; None if all pass."""
    for key, (a, b, eq) in sorted(verdicts.items()):
        if not ok(a, b, eq):
            where = f"(level {key[0]}, weight {key[1]})" if isinstance(key, tuple) else f"weight {key}"
            return f"at {where}: de Rham {a}, PD envelope {b}"
    return None


def run_universal_thickening(params, rng):
    cases = []
    pres = AlgebraPresentation(ModRing(2, 2), "quotient", "y", (0, 1))
    t = universal_thickening(pres, weight_bound=2)
    size = 1
    for q in t.h0.values():
        size *= q.size
    cases.append(_case("H0-size", "16", str(size)))
    cases.append(_case("comparison-with-A-mod-J2", "bijective per weight <= 2",
                       "ok" if t.comparison_bijective else "failed", ok=t.comparison_bijective))
    cases.append(_case("ideal-squares-to-zero", "0",
                       "ok" if t.square_zero_ok else "nonzero", ok=t.square_zero_ok))
    cases.append(_case("exact-sequence-lengths", "len H0 = len B + len H1(L)",
                       "ok" if t.sequence_lengths_ok else "mismatch", ok=t.sequence_lengths_ok))
    return cases


def run_witt_layer(params, rng):
    cases = []
    f2 = QuotientRing(ModRing(2, 1), (0, 1))
    w2 = WittRing(2, 2, f2)
    z4 = QuotientRing(ModRing(2, 2), (0, 1))
    isos = [h for h in generator_ring_homomorphisms(w2, z4) if len(set(h[1].values())) == z4.size]
    cases.append(_case("W2(F2)=Z/4", "isomorphism found", "found" if isos else "none", ok=bool(isos)))

    f4 = QuotientRing(ModRing(2, 1), (1, 1, 1))
    w4 = WittRing(2, 2, f4)
    target = QuotientRing(ModRing(2, 2), (1, 1, 1))
    homs = generator_ring_homomorphisms(w4, target)
    isos = [h for h in homs if len(set(h[1].values())) == 16]
    cases.append(_case("W2(F4)=Z/4[x]/(x^2+x+1)", "isomorphism found",
                       f"{len(isos)} found", ok=bool(isos)))

    base = QuotientRing(ModRing(2, 3), (0, 1))
    w8 = WittRing(2, 3, base)
    _, code, add, mul = w8.coding
    # the coordinate codes a_0, a_1, a_2, b_0, b_1, b_2 of every pair, one array each
    values = list(np.array([[code[(rng.randrange(8),)] for _ in range(6)]
                            for _ in range(params["cases"])]).T)
    ga, gb = w8.ghost(values[:3]), w8.ghost(values[3:])
    gs = w8.ghost([w8.eval_poly(s, values) for s in w8.table().add])
    gp = w8.ghost([w8.eval_poly(s, values) for s in w8.table().mul])
    ghost_ok = all(np.array_equal(s, add[x, y]) and np.array_equal(q, mul[x, y])
                   for x, y, s, q in zip(ga, gb, gs, gp))
    cases.append(_case("ghost-homomorphy-Z8", f"{params['cases']} pairs",
                       "ok" if ghost_ok else "violated", ok=ghost_ok))

    reduction = lambda x: tuple(c % 2 for c in x)
    frob = lambda r: f4.power(r, 2)
    lift = lift_homomorphism(frob, f4, w4, target, reduction)
    matching = [
        images for img, images in homs
        if all(reduction(images[w4.teichmuller(r).coords]) == frob(r) for r in f4.enumerate())
    ]
    unique = len(matching) == 1 and all(matching[0][x.coords] == lift(x) for x in w4.enumerate())
    cases.append(_case("frobenius-lift-unique-F4", "1", str(len(matching)), ok=unique))
    return cases


def run_theta_epsilon(params, rng):
    model = CyclotomicModel(params["p"], params["m"], params["n"], params["k"])
    rep = ker_theta_report(model)
    d = (model.p - 1) * model.p ** (model.m - 1)  # rank of O over Z/p^n
    closed = {"tilt": model.p ** d, "witt": model.p ** (d * model.n),
              "o_mod_p^n": model.p ** (model.n * d), "kernel": rep.sizes["kernel"]}
    expected = ", ".join(f"{k}={v}" for k, v in sorted(closed.items()))
    sizes = ", ".join(f"{k}={v}" for k, v in sorted(rep.sizes.items()))
    cases = [
        _case("model-enumerated-sizes", expected, sizes),
        _case("theta-is-ring-hom", "sums s + w (s in the additive generators, w in W), products of generator pairs",
              "ok" if rep.theta_is_ring_hom else "violated", ok=rep.theta_is_ring_hom),
        _case("theta-epsilon", "1", "1" if rep.theta_epsilon_is_one else "other",
              ok=rep.theta_epsilon_is_one),
        _case("theta-xi", "0", "0" if rep.theta_xi_zero else "other", ok=rep.theta_xi_zero),
        _case("eps-minus-1-in-kernel", "yes", "yes" if rep.eps_minus_one_in_kernel else "no",
              ok=rep.eps_minus_one_in_kernel),
        _case("kernel-multiples-of-xi", f"all {rep.sizes['kernel']} elements",
              "ok" if rep.kernel_generated_by_xi else "gap", ok=rep.kernel_generated_by_xi),
        _case("raise-frobenius-bijective", "yes",
              "yes" if rep.raise_frobenius_bijective else "no", ok=rep.raise_frobenius_bijective),
    ]
    return cases


def run_different_valuation(params, rng):
    # one case per level: the resultant route and the Smith-length route
    # must both match the closed form r - 1/(p-1)
    cases = []
    for r in range(1, params["r_max"] + 1):
        p = params["p"]
        ext = cyclotomic_extension(p, r)
        expected = Fraction(r) - Fraction(1, p - 1)
        got = different_valuation(ext).value
        total, _ = omega_invariants(ext, precision=int(expected) + 3)
        ok = got == expected and total == ext.degree * expected
        cases.append(_case(
            f"p{p}-r{r}",
            f"v = {expected}, length = {int(ext.degree * expected)}",
            f"v = {got}, length = {total}", ok=ok,
        ))
    return cases


SUITES = {
    d.name: d
    for d in [
        SuiteDescriptor(
            "dold-kan-roundtrip",
            "Dold-Kan correspondence: normalized o kan = identity; N and C share homology",
            (("cases", int, 20), ("max_degree", int, 5), ("max_rank", int, 3),
             ("p", int, 0), ("n", int, 0)),
            run_dold_kan,
        ),
        SuiteDescriptor(
            "eilenberg-zilber",
            "Eilenberg-Zilber: homotopy of the diagonal equals total-complex homology",
            (("p", int, 2), ("n", int, 2), ("cases", int, 10)),
            run_eilenberg_zilber,
        ),
        SuiteDescriptor(
            "cotangent-regular",
            "Cotangent complex of a regular quotient is the shifted conormal module",
            (),
            run_cotangent_regular,
        ),
        SuiteDescriptor(
            "quillen-shift",
            "Shift formula: derived wedge^n of E[1] is derived Gamma^n of E shifted by n",
            (("power", int, 3), ("p", int, 0), ("n", int, 0), ("rank", int, 0)),
            run_quillen_shift,
        ),
        SuiteDescriptor(
            "koszul-gamma",
            "Exactness of the Gamma-to-wedge Koszul complex on split exact sequences",
            (("cases", int, 20),),
            run_koszul_gamma,
        ),
        SuiteDescriptor(
            "drpd-modp",
            "Derived de Rham algebra of F_p over F_p[x] is the divided power algebra",
            (("weight_bound", int, 5), ("window_top", int, 2)),
            run_drpd_modp,
        ),
        SuiteDescriptor(
            "drpd-envelope",
            "Derived de Rham H_0 of a regular quotient is the PD envelope A<t>/(t-f)",
            (("weight_bound", int, 4), ("f", str, "x^2")),
            run_drpd_envelope,
        ),
        SuiteDescriptor(
            "universal-thickening",
            "H_0 of the F^2-truncation is the universal square-zero thickening A/J^2",
            (),
            run_universal_thickening,
        ),
        SuiteDescriptor(
            "witt-layer",
            "Witt vectors: flat Z/p^n lifts, ghost homomorphy, unique Frobenius lifts",
            (("cases", int, 100),),
            run_witt_layer,
        ),
        SuiteDescriptor(
            "theta-epsilon",
            "theta on Witt vectors of the tilt: ring map, theta([eps]) = 1, ker theta = (xi)",
            (("p", int, 2), ("m", int, 3), ("n", int, 2), ("k", int, 2)),
            run_theta_epsilon,
        ),
        SuiteDescriptor(
            "different-valuation",
            "Different of Q_p(zeta_{p^r}) has valuation r - 1/(p-1); lengths match",
            (("p", int, 3), ("r_max", int, 2)),
            run_different_valuation,
        ),
    ]
}


# the least value of each bounded parameter, in every suite that declares
# it; below it a suite would check nothing and still pass
MINIMUMS = {"cases": 1, "r_max": 1, "power": 1, "window_top": 1, "weight_bound": 0}


def list_suites() -> list[SuiteDescriptor]:
    return [SUITES[k] for k in sorted(SUITES)]


def run_suite(name: str, params: dict | None = None, seed: int = 0) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    desc = SUITES[name]
    known = {k for (k, _, _) in desc.params}
    params = dict(params or {})
    for k in params:
        if k not in known:
            raise ValueError(f"suite {name!r} does not accept parameter {k!r}")
    for (k, t, default) in desc.params:
        params.setdefault(k, default)
        if not isinstance(params[k], t):
            raise ValueError(f"parameter {k!r} must be {t.__name__}")
        if k in MINIMUMS and params[k] < MINIMUMS[k]:
            raise ValueError(f"parameter {k!r} must be at least {MINIMUMS[k]}, got {params[k]}")
    rng = random.Random(seed)
    t0 = time.monotonic()
    cases = desc.runner(params, rng)
    elapsed = int((time.monotonic() - t0) * 1000)
    cases.sort(key=lambda c: c.name)
    return SuiteReport(name, params, seed, cases, elapsed)
