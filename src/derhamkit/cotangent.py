"""Free simplicial resolutions and cotangent complexes of supported shapes.

Supported algebra presentations:

* ``free``: A -> A[y_1..y_m], cotangent concentrated in degree 0 and free.
* ``quotient``: A = k[x] -> B = A/(f) for f = c x^d with c a unit, computed
  relative to A.  The resolution Q_n = k[x][t_1..t_n] substitutes f for the
  dropped variable; with weight(x) = 1 and weight(t_i) = deg f every face
  map preserves weight and all computations split into finite slices.
* ``hypersurface``: k -> B = k[x]/(f) for monic f, computed relative to the
  coefficients k.  B is finite over k, so the cotangent terms B dx + sum
  B dt_i are finite with no truncation; acyclicity of the resolution is
  certified through the associated-graded complex where f degenerates to
  its leading monomial.  Separable f mod p is the unramified case.

The infinitely generated canonical resolution is never materialized; every
computation routes through these finite resolutions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .complexes import (
    GradedSliceComplex,
    HomologyReport,
    WindowError,
    homology_report,
    slice_homology,
)
from .exactlin import (
    ModRing,
    ModulePresentation,
    SparseMatrix,
    _span_solver,
    howell_form,
    left_kernel,
    module_invariants,
    mzeros,
    mmul,
    quotient_invariants,
    v_int,
)
from .polyalg import AlgebraMap, Poly, PolyAlgebra, exponent_rows, row_positions
from .upoly import gcd_degree, rem, trim

__all__ = [
    "AlgebraPresentation",
    "FreeSimplicialResolution",
    "DepthError",
    "bar_resolution",
    "base_change_resolution",
    "verify_nonzerodivisor",
    "kaehler_presentation",
    "cotangent_homology",
    "shortcut_conormal_complex",
    "FiniteBModule",
    "ext1_cotangent",
    "transitivity_report",
    "poly_from_coeffs",
]


class DepthError(ValueError):
    pass


def poly_from_coeffs(algebra: PolyAlgebra, var: str, coeffs) -> Poly:
    idx = algebra.var_index(var)
    terms = {}
    for k, c in enumerate(coeffs):
        if c % algebra.ring.modulus:
            e = [0] * algebra.nvars
            e[idx] = k
            terms[tuple(e)] = c
    return Poly(algebra, terms)


def _parse_poly_string(text: str) -> list[int]:
    """Sums of integer monomials in one variable, e.g. '2*x^3 - x + 1';
    returns constant-first coefficients."""
    s = text.replace(" ", "").replace("-", "+-")
    coeffs: dict[int, int] = {}
    for chunk in s.split("+"):
        if not chunk:
            continue
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:]
        if "x" in chunk:
            head, _, tail = chunk.partition("x")
            c = int(head.rstrip("*")) if head.rstrip("*") else 1
            k = int(tail[1:]) if tail.startswith("^") else 1
        else:
            c = int(chunk)
            k = 0
        coeffs[k] = coeffs.get(k, 0) + (-c if neg else c)
    return [coeffs.get(k, 0) for k in range(max(coeffs, default=0) + 1)]


def _poly_to_string(coeffs) -> str:
    bits = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            bits.append(str(c))
        elif k == 1:
            bits.append("x" if c == 1 else f"{c}*x")
        else:
            bits.append(f"x^{k}" if c == 1 else f"{c}*x^{k}")
    return " + ".join(bits) if bits else "0"


@dataclass(frozen=True)
class AlgebraPresentation:
    """Pair (base, target) in one of the supported shapes; ``f_coeffs`` is
    constant-first."""

    ring: ModRing
    shape: str
    var: str = "x"
    f_coeffs: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        if self.shape not in ("free", "quotient", "hypersurface"):
            raise ValueError(f"unsupported shape {self.shape!r}")
        if self.shape == "free":
            if self.free_rank < 1:
                raise ValueError("free shape needs at least one variable")
            return
        coeffs = trim(c % self.ring.modulus for c in self.f_coeffs)
        if len(coeffs) < 2:
            raise ValueError("f must have degree >= 1 (and be nonzero)")
        object.__setattr__(self, "f_coeffs", tuple(coeffs))
        if self.shape == "quotient":
            if any(c for c in coeffs[:-1]):
                raise ValueError(
                    "quotient shape needs a weight-homogeneous f = c*x^d; "
                    "use the hypersurface shape for general monic f"
                )
            if coeffs[-1] % self.ring.p == 0:
                raise ValueError("leading coefficient of f is a zero divisor")
        else:
            if coeffs[-1] != 1:
                raise ValueError("hypersurface shape needs monic f")

    @property
    def degree(self) -> int:
        return len(self.f_coeffs) - 1

    @property
    def is_monomial(self) -> bool:
        return all(c == 0 for c in self.f_coeffs[:-1])

    @property
    def is_unramified(self) -> bool:
        """f separable mod p, so the target is finite etale over k."""
        return (self.shape == "hypersurface"
                and gcd_degree(self.f_coeffs, self.fprime_coeffs(), self.ring.p) == 0)

    def reduce_mod_f(self, coeffs: list[int]) -> list[int]:
        """Coefficients reduced modulo f in the power basis of the quotient."""
        return rem(coeffs, self.f_coeffs, self.ring.modulus)

    def fprime_coeffs(self) -> list[int]:
        return [(k * c) % self.ring.modulus for k, c in enumerate(self.f_coeffs)][1:]

    def to_json(self) -> str:
        data = {"shape": self.shape, "coeff": {"p": self.ring.p, "n": self.ring.n}, "var": self.var}
        if self.shape == "free":
            data["rank"] = self.free_rank
        else:
            data["f"] = _poly_to_string(self.f_coeffs)
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "AlgebraPresentation":
        data = json.loads(text)
        ring = ModRing(data["coeff"]["p"], data["coeff"]["n"])
        if data["shape"] == "free":
            return AlgebraPresentation(ring, "free", data.get("var", "x"), free_rank=data["rank"])
        return AlgebraPresentation(ring, data["shape"], data.get("var", "x"),
                                   tuple(_parse_poly_string(data["f"])))


# ---------------------------------------------------------------------------
# the resolution


def degenerate_rows(expts: np.ndarray, wedges: np.ndarray | None = None) -> np.ndarray:
    """Mask of the degenerate basis elements x^a t^b dt_I of Q_n, given as
    exponent rows (x first, then t_1..t_n) and, for forms, rows of wedge
    indices I: those in which some t_s, 1 <= s <= n, occurs neither in the
    exponent nor under d.  These span the images of the degeneracies."""
    missing = expts[:, 1:] == 0
    if wedges is not None and wedges.size:
        missing[np.arange(len(wedges))[:, None], wedges - 1] = False
    return missing.any(axis=1)


def nondegenerate_positions(table: np.ndarray, images: np.ndarray,
                            form_degree: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``row_positions`` of images among the rows of a nondegenerate basis
    (the ``form_degree`` wedge indices, then the exponents).  An image that
    is not found must be degenerate, and is zero in C/D; a nondegenerate
    one raises, so that a missing basis element cannot pass as the quotient."""
    cols, found = row_positions(table, images)
    lost = images[~found]
    if not degenerate_rows(lost[:, form_degree:], lost[:, :form_degree]).all():
        raise AssertionError("a nondegenerate image is missing from the target basis")
    return cols, found


@dataclass
class AcyclicityCertificate:
    kind: str  # "exact-slices" or "associated-graded"
    weight_bound: int
    checked_degrees: tuple[int, int]
    ok: bool
    detail: str = ""


class FreeSimplicialResolution:
    """Q_n = k[x][t_1..t_n] resolving k[x]/(f), with the dropped variable
    sent to f; forms are taken relative to k[x] ("base") for the quotient
    shape and relative to k ("coefficients") for the hypersurface shape."""

    def __init__(self, pres: AlgebraPresentation, d_max: int, weight_bound: int):
        if pres.shape == "free":
            raise ValueError("free presentations do not need a resolution")
        if d_max < 1:
            raise ValueError("resolution depth must be >= 1")
        self.pres = pres
        self.ring = pres.ring
        self.d_max = d_max
        self.weight_bound = weight_bound
        self.relative = "base" if pres.shape == "quotient" else "coefficients"
        self.graded = pres.is_monomial
        self._certificate: AcyclicityCertificate | None = None
        self._alg_cache: dict[int, PolyAlgebra] = {}
        self._ftab_cache: dict = {}

    # -- simplicial algebra structure

    def algebra(self, n: int) -> PolyAlgebra:
        if n not in self._alg_cache:
            d = self.pres.degree
            names = (self.pres.var,) + tuple(f"t{i}" for i in range(1, n + 1))
            weights = (1,) + (d,) * n
            self._alg_cache[n] = PolyAlgebra(self.ring, names, weights, base_var=self.pres.var)
        return self._alg_cache[n]

    def f_poly(self, n: int) -> Poly:
        return poly_from_coeffs(self.algebra(n), self.pres.var, self.pres.f_coeffs)

    def face(self, n: int, i: int) -> AlgebraMap:
        """t_j -> t_j (j <= i, j != n), t_{j-1} (j > i, with t_0 := f), 0 (j = i = n)."""
        src = self.algebra(n)
        tgt = self.algebra(n - 1)
        images = [tgt.variable(self.pres.var)]
        for j in range(1, n + 1):
            if j == i == n:
                images.append(tgt.zero())
            elif j > i:
                images.append(self.f_poly(n - 1) if j == 1 else tgt.variable(f"t{j-1}"))
            else:
                images.append(tgt.variable(f"t{j}"))
        return AlgebraMap(src, tgt, tuple(images))

    def degeneracy(self, n: int, i: int) -> AlgebraMap:
        """t_j -> t_j (j <= i), t_{j+1} (j > i)."""
        src = self.algebra(n)
        tgt = self.algebra(n + 1)
        images = [tgt.variable(self.pres.var)]
        for j in range(1, n + 1):
            images.append(tgt.variable(f"t{j}" if j <= i else f"t{j+1}"))
        return AlgebraMap(src, tgt, tuple(images))

    def degeneracy_element(self, n: int, i: int, x: Poly) -> Poly:
        """Shuffle-product protocol: apply s_i at level n."""
        return self.degeneracy(n, i)(x)

    def face_variable_table(self, n: int, i: int) -> list[tuple[int, int, int] | None]:
        """Monomial fast path (monomial f only): entry s reads (target
        index, unit coefficient, power): the image of variable s at level n
        under face i is coeff * (var target)^power, or None when it dies.
        Index 0 is x; t_1 falling off the left becomes f = c x^d."""
        if not self.graded:
            raise ValueError("monomial face tables need monomial f")
        key = (n, i)
        cached = self._ftab_cache.get(key)
        if cached is not None:
            return cached
        d = self.pres.degree
        c = self.pres.f_coeffs[-1]
        table: list[tuple[int, int, int] | None] = [(0, 1, 1)]
        for s in range(1, n + 1):
            if s == i == n:
                table.append(None)
            elif s > i:
                table.append((0, c, d) if s == 1 else (s - 1, 1, 1))
            else:
                table.append((s, 1, 1))
        self._ftab_cache[key] = table
        return table

    def face_exponents(self, n: int, i: int, expts: np.ndarray):
        """Images of Q_n monomials (the rows of ``expts``) under face i,
        each a single monomial because f is: (mask of the rows that
        survive, exponent rows in Q_{n-1}, coefficients), the last two
        given for every row.  The exponents are ``expts`` times the face
        variable table; a row dies when a variable sent to 0 occurs in it,
        and its coefficient is c^k for t_1 -> c x^d occurring k times."""
        table = self.face_variable_table(n, i)
        m = self.ring.modulus
        move = np.zeros((n + 1, n), dtype=np.int64)  # Q_{n-1} has x, t_1..t_{n-1}
        dead = np.zeros(n + 1, dtype=bool)
        coeff = np.ones(len(expts), dtype=np.int64)
        for s, entry in enumerate(table):
            if entry is None:
                dead[s] = True
                continue
            tgt, c, power = entry
            move[s, tgt] = power
            if c != 1:
                k = expts[:, s]
                powers = np.array([pow(c, e, m) for e in range(int(k.max(initial=0)) + 1)], dtype=np.int64)
                coeff = coeff * powers[k] % m
        return ~(expts[:, dead] > 0).any(axis=1), expts @ move, coeff

    # -- slice bases of Q_n (graded flavor)

    def q_slice(self, n: int, w: int) -> list[tuple[int, ...]]:
        """Nondegenerate monomial basis of the weight-w slice of Q_n:
        t_1...t_n times each monomial of weight w - n deg f."""
        return self.algebra(n).monomials_containing(w, range(1, n + 1))

    def chain_complex(self, weight_bound: int | None = None) -> GradedSliceComplex:
        """N(Q_.) = C(Q_.)/D per weight slice; graded flavor only (slices
        are exact).

        The degenerate monomials D span an acyclic subcomplex, so the
        quotient has the homology of C(Q_.) (Dold-Kan normalization).  Each
        differential is one triple: the signed face images of a whole slice,
        located among the nondegenerate monomials of the target slice; an
        image that is not found is degenerate and dropped."""
        if not self.graded:
            raise ValueError("slice chain complex needs the weight-graded flavor")
        wb = self.weight_bound if weight_bound is None else weight_bound
        dims = {}
        diffs = {}
        for w in range(wb + 1):
            # nondegenerate slices vanish above simplicial degree w / deg f
            exps = []
            for n in range(self.d_max + 1):
                e = exponent_rows(self.q_slice(n, w), n + 1)
                if not len(e):
                    break
                exps.append(e)
                dims[(n, w)] = len(e)
            for n in range(1, len(exps)):
                rows, images, vals = [], [], []
                for i in range(n + 1):
                    alive, img, coeff = self.face_exponents(n, i, exps[n])
                    rows.append(np.flatnonzero(alive))
                    images.append(img[alive])
                    vals.append(-coeff[alive] if i % 2 else coeff[alive])
                cols, found = nondegenerate_positions(exps[n - 1], np.concatenate(images))
                diffs[(n, w)] = SparseMatrix(np.concatenate(rows)[found], cols[found], np.concatenate(vals)[found],
                                             (len(exps[n]), len(exps[n - 1])))
        cx = GradedSliceComplex(self.ring, 0, self.d_max, dims, diffs,
                                trusted=(0, self.d_max - 1))
        cx.validate()
        return cx

    def certify(self) -> AcyclicityCertificate:
        """H_0 = B and H_i = 0 for 0 < i <= d_max - 1, per weight <= bound.

        For non-monomial monic f the check runs on the associated-graded
        complex (f degenerated to its leading monomial): a filtered complex
        with exact graded slices is exact, with primitives of no larger
        weight, so the bound is honest for the original complex too.
        """
        if self._certificate is not None:
            return self._certificate
        if self.graded:
            target = self
            kind = "exact-slices"
            detail = "slice homology computed on the resolution itself"
        else:
            top = AlgebraPresentation(self.ring, "quotient", self.pres.var,
                                      (0,) * self.pres.degree + (1,))
            target = FreeSimplicialResolution(top, self.d_max, self.weight_bound)
            kind = "associated-graded"
            detail = "slice homology computed on the leading-monomial degeneration"
        cx = target.chain_complex()
        ok = True
        d = self.pres.degree
        for w in range(self.weight_bound + 1):
            h0 = slice_homology(cx, 0, w)
            expected = [self.ring.modulus] if w < d else []
            ok = ok and (h0 == expected)
            for n in range(1, self.d_max):
                ok = ok and not slice_homology(cx, n, w)
        self._certificate = AcyclicityCertificate(kind, self.weight_bound, (0, self.d_max - 1), ok, detail)
        return self._certificate

    # -- the cotangent complex

    def cotangent_slots(self, n: int) -> list[tuple[int, int]]:
        """Basis slots (e, s) of B (x) Omega^1(Q_n): coefficient x^e with
        e < deg f; s = 0 encodes dx (hypersurface flavor only), s >= 1
        encodes dt_s."""
        d = self.pres.degree
        srange = range(0, n + 1) if self.relative == "coefficients" else range(1, n + 1)
        return [(e, s) for s in srange for e in range(d)]

    def _face_slot_image(self, n: int, i: int, s: int):
        """Differential-slot image under face i at level n: (slot, poly
        multiplier coefficients) or (None, None) when it dies."""
        if s == 0:
            return 0, [1]
        if s == i == n:
            return None, None
        s2 = s if s <= i else s - 1
        if s2 == 0:
            if self.relative == "base":
                return None, None  # df = 0 relative to k[x]
            return 0, self.pres.fprime_coeffs()  # dt -> df = f'(x) dx
        return s2, [1]

    def cotangent_face_matrix(self, n: int, i: int) -> np.ndarray:
        src = self.cotangent_slots(n)
        tgt = self.cotangent_slots(n - 1)
        tindex = {t: k for k, t in enumerate(tgt)}
        out = mzeros(len(src), len(tgt))
        for a, (e, s) in enumerate(src):
            slot, mult = self._face_slot_image(n, i, s)
            if slot is None:
                continue
            coeffs = [0] * e + [c for c in mult]
            red = self.pres.reduce_mod_f(coeffs)
            for e2, c in enumerate(red):
                if c:
                    out[a, tindex[(e2, slot)]] = (out[a, tindex[(e2, slot)]] + c) % self.ring.modulus
        return out

    def cotangent_complex(self) -> GradedSliceComplex:
        """C(B (x) Omega^1_{Q_./rel}) as a slice complex.

        Graded flavor: slot (e, s >= 1) has weight e + deg f.  Hypersurface
        flavor: everything lives in one slice (weight 0), finite over k.
        """
        cert = self.certify()
        if not cert.ok:
            raise ValueError("resolution failed its acyclicity certificate")
        d = self.pres.degree
        graded_weights = self.relative == "base"

        def slot_weight(slot):
            e, s = slot
            return e + d if graded_weights else 0

        dims = {}
        diffs = {}
        for n in range(self.d_max + 1):
            src = self.cotangent_slots(n)
            by_w: dict[int, list[int]] = {}
            for idx, slot in enumerate(src):
                by_w.setdefault(slot_weight(slot), []).append(idx)
            for w, idxs in by_w.items():
                dims[(n, w)] = len(idxs)
            if n == 0:
                continue
            tgt = self.cotangent_slots(n - 1)
            full = mzeros(len(src), len(tgt))
            for i in range(n + 1):
                sign = -1 if i % 2 else 1
                full = full + sign * self.cotangent_face_matrix(n, i)
            full %= self.ring.modulus
            tgt_by_w: dict[int, list[int]] = {}
            for idx, slot in enumerate(tgt):
                tgt_by_w.setdefault(slot_weight(slot), []).append(idx)
            for w, idxs in by_w.items():
                cols = tgt_by_w.get(w, [])
                other = [k for k in range(len(tgt)) if k not in cols]
                if other and full[np.ix_(idxs, other)].any():
                    raise AssertionError("cotangent differential is not weight-preserving")
                diffs[(n, w)] = full[np.ix_(idxs, cols)] if cols else mzeros(len(idxs), 0)
        cx = GradedSliceComplex(self.ring, 0, self.d_max, dims, diffs,
                                trusted=(0, self.d_max - 2))
        cx.validate()
        return cx


def bar_resolution(ring: ModRing, d_max: int, weight_bound: int, var: str = "x") -> FreeSimplicialResolution:
    """Resolution of R over R[x] (the dropped variable goes to x itself)."""
    pres = AlgebraPresentation(ring, "quotient", var, (0, 1))
    return FreeSimplicialResolution(pres, d_max, weight_bound)


def base_change_resolution(bar: FreeSimplicialResolution, target: AlgebraPresentation) -> FreeSimplicialResolution:
    """Substitute x -> f in a bar resolution to resolve A/(f) over A = k[x];
    requires the mult-by-f injectivity check up to the weight bound."""
    if target.shape not in ("quotient", "hypersurface"):
        raise ValueError("base change targets a quotient presentation")
    if target.ring != bar.ring:
        raise ValueError("coefficient ring mismatch")
    verify_nonzerodivisor(target, bar.weight_bound)
    return FreeSimplicialResolution(target, bar.d_max, bar.weight_bound)


def verify_nonzerodivisor(pres: AlgebraPresentation, weight_bound: int) -> None:
    """Multiplication by f on k[x] must be injective up to the weight bound."""
    d = pres.degree
    rows = []
    # f * x^a for a <= weight_bound - d; none when weight_bound < deg f
    for a in range(weight_bound - d + 1):
        row = [0] * (weight_bound + 1)
        for k, c in enumerate(pres.f_coeffs):
            if a + k <= weight_bound:
                row[a + k] = c
        rows.append(row)
    matrix = np.array(rows, dtype=np.int64) if rows else mzeros(0, weight_bound + 1)
    ker = left_kernel(matrix, pres.ring)
    if ker.shape[0]:
        raise ValueError(
            f"f is a zero divisor up to weight {weight_bound}: kernel witness {ker[0].tolist()}"
        )


# ---------------------------------------------------------------------------
# Kaehler presentations


@dataclass
class KaehlerPresentation:
    """Presentation of the relative differentials of a supported pair."""

    pres: AlgebraPresentation
    rank: int  # generators over the target algebra
    free_over_target: bool
    k_presentation: ModulePresentation | None  # expansion over k when finite

    def invariants(self):
        if self.k_presentation is None:
            raise ValueError("no finite expansion for this shape")
        return module_invariants(self.k_presentation)


def kaehler_presentation(pres: AlgebraPresentation) -> KaehlerPresentation:
    ring = pres.ring
    if pres.shape == "free":
        return KaehlerPresentation(pres, pres.free_rank, True, None)
    if pres.shape == "quotient":
        # relative to A = k[x]: d kills every image, the module vanishes
        return KaehlerPresentation(pres, 0, False, ModulePresentation(ring, 0, mzeros(0, 0)))
    # hypersurface over k: generator dx with relation f'(x) dx
    d = pres.degree
    rows = [pres.reduce_mod_f([0] * a + pres.fprime_coeffs()) for a in range(d)]
    relations = np.array(rows, dtype=np.int64)
    kp = ModulePresentation(ring, d, relations)
    facs, _ = module_invariants(kp)
    free = facs == [ring.modulus] * d  # relation vanished: free of rank 1 over B
    return KaehlerPresentation(pres, 1, free, kp)


# ---------------------------------------------------------------------------
# cotangent homology


@dataclass
class CotangentResult:
    pres: AlgebraPresentation
    complex: GradedSliceComplex
    report: HomologyReport
    certificate: AcyclicityCertificate


def cotangent_homology(pres: AlgebraPresentation, window: tuple[int, int],
                       weight_bound: int, depth: int | None = None) -> CotangentResult:
    """Homology of the cotangent complex on the requested degree window;
    depth must be at least window top + 2 and is never silently truncated."""
    lo, hi = window
    if lo < 0:
        raise WindowError("cotangent complexes live in degrees >= 0")
    needed = hi + 2
    depth = needed if depth is None else depth
    if depth < needed:
        raise DepthError(f"depth {depth} insufficient for window top {hi} (need >= {needed})")
    if pres.shape == "free":
        dims = {(0, 1): pres.free_rank}
        cx = GradedSliceComplex(pres.ring, 0, hi + 1, dims, {}, trusted=(0, hi))
        rep = homology_report(cx, degrees=range(lo, hi + 1))
        cert = AcyclicityCertificate("exact-slices", weight_bound, (0, depth - 1), True,
                                     "constant resolution of a free algebra")
        return CotangentResult(pres, cx, rep, cert)
    verify_nonzerodivisor(pres, weight_bound)
    res = FreeSimplicialResolution(pres, depth, weight_bound)
    cert = res.certify()
    if not cert.ok:
        raise ValueError("acyclicity certificate failed")
    cx = res.cotangent_complex()
    rep = homology_report(cx, degrees=range(lo, hi + 1))
    _check_h0_matches_kaehler(pres, rep)
    return CotangentResult(pres, cx, rep, cert)


def _check_h0_matches_kaehler(pres: AlgebraPresentation, rep: HomologyReport) -> None:
    h0 = sorted(f for (n, _), e in rep.entries.items() if n == 0 for f in e["factors"])
    kae = kaehler_presentation(pres)
    if kae.k_presentation is None:
        return
    expected, _ = module_invariants(kae.k_presentation)
    if h0 != sorted(expected):
        raise AssertionError(f"H_0 of the cotangent complex {h0} != Kaehler invariants {expected}")


def shortcut_conormal_complex(pres: AlgebraPresentation, window_top: int) -> GradedSliceComplex:
    """The regular-quotient shortcut: (f)/(f^2) placed in degree 1.

    The conormal module is free of rank 1 over B; with weight(f) = d its
    weight-(w + d) slice is B's weight-w slice."""
    if pres.shape != "quotient":
        raise ValueError("shortcut only for the quotient shape")
    d = pres.degree
    dims = {(1, w + d): 1 for w in range(d)}
    return GradedSliceComplex(pres.ring, 0, max(window_top + 1, 1), dims, {},
                              trusted=(0, window_top))


# ---------------------------------------------------------------------------
# Ext^1 against the cotangent complex


@dataclass
class FiniteBModule:
    """Finite module over B = k[x]/(f): cokernel of ``relations`` on
    ``gens`` generators over k, with the action of x on generators.

    The action must preserve the relation span (checked)."""

    ring: ModRing
    gens: int
    relations: np.ndarray  # rows over k, width = gens
    x_action: np.ndarray  # gens x gens over k, row convention

    def __post_init__(self):
        m = self.ring.modulus
        self.relations = np.asarray(self.relations, dtype=np.int64).reshape(-1, self.gens) % m
        self.x_action = np.asarray(self.x_action, dtype=np.int64).reshape(self.gens, self.gens) % m
        if self.relations.shape[0]:
            moved = mmul(self.relations, self.x_action, self.ring)
            solve = _span_solver(self.relations, self.ring)
            for row in moved:
                if row.any() and solve(row) is None:
                    raise ValueError("x action does not preserve the relations")

    def poly_action(self, coeffs) -> np.ndarray:
        out = mzeros(self.gens, self.gens)
        power = np.eye(self.gens, dtype=np.int64)
        for c in coeffs:
            if c % self.ring.modulus:
                out = (out + c * power) % self.ring.modulus
            power = mmul(power, self.x_action, self.ring)
        return out

    def invariants(self) -> list[int]:
        facs, _ = module_invariants(ModulePresentation(self.ring, self.gens, self.relations))
        return facs


def ext1_cotangent(pres: AlgebraPresentation, module: FiniteBModule,
                   weight_bound: int = 6, depth: int = 3) -> list[int]:
    """Invariant factors of Ext^1 against the cotangent complex.

    Computed as H^1 of Hom_B(B (x) Omega^1(Q_.), I) from the first three
    resolution degrees.  Hom_B(B^r, I) = I^r is presented over k blockwise;
    for the quotient shape the result is cross-checked against
    Hom_B((f)/(f^2), I) = I."""
    if depth < 3:
        raise DepthError("Ext^1 needs resolution depth >= 3")
    ring = pres.ring
    if pres.shape == "free" or module.gens == 0:
        return []
    res = FreeSimplicialResolution(pres, depth, weight_bound)
    if not res.certify().ok:
        raise ValueError("acyclicity certificate failed")
    g = module.gens
    srange = 1 if res.relative == "base" else 0

    def slot_count(n):
        return n + 1 - srange

    def hom_delta(n):
        """Hom(I^{slots_n}) -> Hom(I^{slots_{n+1}}): phi -> phi o d_{n+1}."""
        rows = slot_count(n) * g
        cols = slot_count(n + 1) * g
        out = mzeros(rows, cols)
        slots_n = list(range(srange, n + 1))
        slots_n1 = list(range(srange, n + 2))
        for i in range(n + 2):
            sign = -1 if i % 2 else 1
            for a, s in enumerate(slots_n1):
                slot, mult = res._face_slot_image(n + 1, i, s)
                if slot is None or slot not in slots_n:
                    continue
                b = slots_n.index(slot)
                act = module.poly_action(mult)
                out[b * g : (b + 1) * g, a * g : (a + 1) * g] += sign * act
        return out % ring.modulus

    def block_relations(count):
        if count == 0 or module.relations.shape[0] == 0:
            return mzeros(0, count * g)
        blocks = []
        for b in range(count):
            row = mzeros(module.relations.shape[0], count * g)
            row[:, b * g : (b + 1) * g] = module.relations
            blocks.append(row)
        return np.vstack(blocks)

    n1 = slot_count(1) * g
    d1 = hom_delta(1)
    rel1 = block_relations(slot_count(1))
    rel2 = block_relations(slot_count(2))
    cycles = _preimage_rows(d1, rel2, ring)
    boundaries = rel1
    if slot_count(0):
        d0 = hom_delta(0)
        boundaries = np.vstack([boundaries, d0]) if boundaries.shape[0] else d0
    cycles_full = np.vstack([cycles, rel1]) if rel1.shape[0] else cycles
    facs = quotient_invariants(cycles_full if cycles_full.shape[0] else mzeros(0, n1),
                               boundaries if boundaries.shape[0] else mzeros(0, n1), ring)
    if pres.shape == "quotient":
        expected = module.invariants()
        if sorted(facs) != sorted(expected):
            raise AssertionError("Ext^1 disagrees with the conormal Hom module")
    return facs


def _preimage_rows(t: np.ndarray, rel_target: np.ndarray, ring: ModRing) -> np.ndarray:
    """Rows v with v @ t in span(rel_target)."""
    rows, cols = t.shape
    if cols == 0:
        return np.eye(rows, dtype=np.int64)
    stacked = np.vstack([t, rel_target]) if rel_target.shape[0] else t
    ker = left_kernel(stacked, ring)
    if ker.shape[0] == 0:
        return mzeros(0, rows)
    return howell_form(ker[:, :rows], ring)


# ---------------------------------------------------------------------------
# transitivity audits


@dataclass
class TransitivityReport:
    chain: str
    slice_verdicts: dict  # weight -> dict of named checks
    ok: bool

    def to_json(self) -> str:
        items = [{"weight": w, "checks": v} for w, v in sorted(self.slice_verdicts.items())]
        return json.dumps({"chain": self.chain, "ok": self.ok, "slices": items}, sort_keys=True)


def transitivity_report(ring: ModRing, chain: str, f_coeffs=None, g_coeffs=None,
                        weight_bound: int = 6) -> TransitivityReport:
    """Exactness audit of the six-term tail of the transitivity sequence.

    ``chain`` is one of "identity" (A -> A -> A), "quotient-tower"
    (k[x] -> k[x]/(f) -> k[x]/(g), g | f, both monomial), or
    "poly-then-quotient" (k -> k[x] -> k[x]/(f))."""
    if chain == "identity":
        return TransitivityReport(chain, {0: {"all-terms-zero": True}}, True)
    if chain == "quotient-tower":
        return _tower_audit(ring, f_coeffs, g_coeffs, weight_bound)
    if chain == "poly-then-quotient":
        return _poly_quotient_audit(ring, f_coeffs, weight_bound)
    raise ValueError(f"unsupported chain kind {chain!r}")


def _tower_audit(ring: ModRing, f_coeffs, g_coeffs, weight_bound: int) -> TransitivityReport:
    """Chain k[x] -> B = k[x]/(f) -> C = k[x]/(g) with g | f.

    All relative Kaehler terms vanish, so the six-term tail reduces to
    H_1(L_{B/A} (x) C) --alpha--> H_1(L_{C/A}) --beta--> H_1(L_{C/B}) -> 0
    with alpha multiplication by h = f/g and beta the conormal projection;
    both maps are built explicitly per weight slice and exactness at the
    middle and right spots is verified, together with nonnegative partial
    alternating sums of lengths.  The vanishing of the Kaehler terms holds
    for every such tower, so it is not listed as a check.
    """
    presf = AlgebraPresentation(ring, "quotient", "x", tuple(f_coeffs))
    presg = AlgebraPresentation(ring, "quotient", "x", tuple(g_coeffs))
    df, dg = presf.degree, presg.degree
    m = ring.modulus
    if df < dg:
        raise ValueError("g must divide f")
    cf, cg = presf.f_coeffs[-1], presg.f_coeffs[-1]
    ch = (cf * pow(cg, -1, m)) % m  # f = (ch x^{df-dg}) * g
    verdicts = {}
    ok = True
    for w in range(weight_bound + 1):
        alive5 = df <= w < df + dg
        alive4 = dg <= w < 2 * dg
        # X3 = (g)B/(g)^2 B at weight w, computed in B's slice basis {x^w}
        x3_facs = []
        if w < df:
            num = np.array([[cg]]) if w >= dg else mzeros(0, 1)
            den = np.array([[(cg * cg) % m]]) if w >= 2 * dg else mzeros(0, 1)
            x3_facs = quotient_invariants(num, den, ring) if num.shape[0] else []
        l5 = ring.n if alive5 else 0
        l4 = ring.n if alive4 else 0
        l3 = sum(v_int(t, ring.p) for t in x3_facs)
        # beta: X4 -> X3 is multiplication by the unit cg on cyclic slices
        beta_onto = (not x3_facs) or alive4
        # alpha: X5 -> X4 multiplies by the unit ch into exponent w - dg
        alpha_alive = alive5 and alive4
        # exactness at X3: beta onto; at X4: ker(beta) = im(alpha)
        ker_beta = 0 if (alive4 and x3_facs) else l4
        im_alpha = l4 if alpha_alive else 0
        checks = {
            "beta-onto": beta_onto,
            "exact-at-X4": ker_beta == im_alpha,
            "partial-sums-nonnegative": l3 <= l4 and (l4 - l3) <= l5,
        }
        verdicts[w] = checks
        ok = ok and all(checks.values())
    return TransitivityReport("quotient-tower", verdicts, ok)


def _poly_quotient_audit(ring: ModRing, f_coeffs, weight_bound: int) -> TransitivityReport:
    """Chain k -> k[x] -> C = k[x]/(f): the tail is
    H_1(L_{C/k}) -> (f)/(f^2) (x) C --delta--> C dx -> Omega^1_{C/k} -> 0
    with delta the conormal map sending the generator to f'(x) dx.  Exactness
    at the last spot holds by construction (Omega^1_{C/k[x]} = 0 receives
    everything), so it is not listed as a check."""
    pres = AlgebraPresentation(ring, "hypersurface", "x", tuple(f_coeffs))
    d = pres.degree
    rows = [pres.reduce_mod_f([0] * a + pres.fprime_coeffs()) for a in range(d)]
    delta = np.array(rows, dtype=np.int64) % ring.modulus  # C -> C dx, power basis
    x1_facs = quotient_invariants(np.eye(d, dtype=np.int64), delta, ring)
    l1 = sum(v_int(t, ring.p) for t in x1_facs)
    ker_delta = left_kernel(delta, ring)
    lker = _span_length(ker_delta, ring)
    result = cotangent_homology(pres, (0, 1), weight_bound)
    l4 = result.report.total_length(1)
    h0_len = result.report.total_length(0)
    checks = {
        "cokernel-matches-kaehler": h0_len == l1,
        "kernel-of-delta-matches-H1": lker == l4,  # H_1(L_{k[x]/k}) = 0 forces this
    }
    return TransitivityReport("poly-then-quotient", {0: checks}, all(checks.values()))


def _span_length(rows: np.ndarray, ring: ModRing) -> int:
    h = howell_form(rows, ring) if rows.shape[0] else rows
    total = 0
    for r in h:
        nz = np.nonzero(r)[0]
        if nz.size:
            total += ring.n - v_int(int(r[nz[0]]), ring.p)
    return total
