"""Free simplicial resolutions and cotangent complexes of supported shapes.

Supported algebra presentations:

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
    SparseMatrix,
    left_kernel,
    mzeros,
    quotient_invariants,
)
from .polyalg import PolyAlgebra, graded_slice_basis, row_positions
from .upoly import rem, trim

__all__ = [
    "AlgebraPresentation",
    "FreeSimplicialResolution",
    "DepthError",
    "verify_nonzerodivisor",
    "kaehler_presentation",
    "cotangent_homology",
    "shortcut_conormal_complex",
]


class DepthError(ValueError):
    pass


def parse_poly_string(text: str) -> list[int]:
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


@dataclass(frozen=True)
class AlgebraPresentation:
    """Pair (base, target) in one of the supported shapes; ``f_coeffs`` is
    constant-first."""

    ring: ModRing
    shape: str
    var: str = "x"
    f_coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        if self.shape not in ("quotient", "hypersurface"):
            raise ValueError(f"unsupported shape {self.shape!r}")
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

    def reduce_mod_f(self, coeffs: list[int]) -> list[int]:
        """Coefficients reduced modulo f in the power basis of the quotient."""
        return rem(coeffs, self.f_coeffs, self.ring.modulus)

    def fprime_coeffs(self) -> list[int]:
        return [(k * c) % self.ring.modulus for k, c in enumerate(self.f_coeffs)][1:]


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

    def q_slice(self, n: int, w: int) -> np.ndarray:
        """Nondegenerate monomial basis of the weight-w slice of Q_n, as
        exponent rows: t_1...t_n times each monomial of weight w - n deg f."""
        return graded_slice_basis(self.algebra(n), 0, w, occurring=range(1, n + 1))

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
                e = self.q_slice(n, w)
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
    factors: list[int]  # invariant factors over k


def kaehler_presentation(pres: AlgebraPresentation) -> KaehlerPresentation:
    ring = pres.ring
    if pres.shape == "quotient":
        # relative to A = k[x]: d kills every image, the module vanishes
        return KaehlerPresentation(pres, 0, False, [])
    # hypersurface over k: generator dx with relation f'(x) dx, over k on the power basis
    d = pres.degree
    rows = [pres.reduce_mod_f([0] * a + pres.fprime_coeffs()) for a in range(d)]
    factors = quotient_invariants(np.eye(d, dtype=np.int64), np.array(rows, dtype=np.int64), ring)
    # relation vanished: free of rank 1 over B
    return KaehlerPresentation(pres, 1, factors == [ring.modulus] * d, factors)


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
    expected = kaehler_presentation(pres).factors
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
