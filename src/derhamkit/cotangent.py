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

The face rule of the resolution is written once, as the target array of
``FreeSimplicialResolution.face_targets``: monomials (``face_exponents``),
the wedge indices of forms and the slots of the cotangent complex all read
their faces off it.  The resolution owns its forms relative to k[x]: the
nondegenerate bases (``form_basis``), the alternating face sum
(``face_sum``) and the exterior derivative (``exterior_derivative``).  Its
chain complex is the 0-form column, and the de Rham blocks are all of them.

The infinitely generated canonical resolution is never materialized; every
computation routes through these finite resolutions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

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
    as_sparse,
    local_smith,
)
from .polyalg import PolyAlgebra, graded_slice_basis, row_positions
from .upoly import multiplication_rows, trim

__all__ = [
    "AlgebraPresentation",
    "FreeSimplicialResolution",
    "DepthError",
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


class AlgebraPresentation(NamedTuple("AlgebraPresentation", [("ring", ModRing), ("shape", str), ("var", str),
                                                             ("f_coeffs", tuple)])):
    """Pair (base, target) in one of the supported shapes; ``f_coeffs`` is
    constant-first, reduced and trimmed.  A tuple, so that presentations
    made from equal arguments are equal and hash alike."""

    def __new__(cls, ring: ModRing, shape: str, var: str = "x", f_coeffs: tuple[int, ...] = ()):
        if shape not in ("quotient", "hypersurface"):
            raise ValueError(f"unsupported shape {shape!r}")
        coeffs = trim(c % ring.modulus for c in f_coeffs)
        if len(coeffs) < 2:
            raise ValueError("f must have degree >= 1 (and be nonzero)")
        if shape == "quotient":
            if any(c for c in coeffs[:-1]):
                raise ValueError(
                    "quotient shape needs a weight-homogeneous f = c*x^d; "
                    "use the hypersurface shape for general monic f"
                )
            if coeffs[-1] % ring.p == 0:
                raise ValueError("leading coefficient of f is a zero divisor")
        else:
            if coeffs[-1] != 1:
                raise ValueError("hypersurface shape needs monic f")
        return super().__new__(cls, ring, shape, var, tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.f_coeffs) - 1

    @property
    def is_monomial(self) -> bool:
        return all(c == 0 for c in self.f_coeffs[:-1])

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


def nondegenerate_matrix(rows: list, images: list, vals: list, shape: tuple[int, int], table: np.ndarray,
                         form_degree: int, m: int) -> SparseMatrix:
    """The matrix of ``shape`` mod m from per-term source rows, image rows
    and values: each image is located among the rows of the nondegenerate
    basis ``table`` (the ``form_degree`` wedge indices, then the exponents)
    and repeats are summed.  An image that is not found must be degenerate,
    and is zero in C/D; a nondegenerate one raises, so that a missing basis
    element cannot pass as the quotient."""
    if not rows:
        return SparseMatrix(shape=shape)
    images = np.concatenate(images)
    cols, found = row_positions(table, images)
    lost = images[~found]
    if not degenerate_rows(lost[:, form_degree:], lost[:, :form_degree]).all():
        raise AssertionError("a nondegenerate image is missing from the target basis")
    return as_sparse(SparseMatrix(np.concatenate(rows)[found], cols[found], np.concatenate(vals)[found], shape), m)


class AcyclicityCertificate:
    def __init__(self, kind: str, weight_bound: int, checked_degrees: tuple[int, int], ok: bool, detail: str = ""):
        self.kind = kind  # "exact-slices" or "associated-graded"
        self.weight_bound = weight_bound
        self.checked_degrees = checked_degrees
        self.ok = ok
        self.detail = detail


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
        self._forms: dict = {}  # (n, i, w) -> form_basis(n, i, w)

    # -- simplicial algebra structure

    def algebra(self, n: int) -> PolyAlgebra:
        if n not in self._alg_cache:
            d = self.pres.degree
            names = (self.pres.var,) + tuple(f"t{i}" for i in range(1, n + 1))
            weights = (1,) + (d,) * n
            self._alg_cache[n] = PolyAlgebra(self.ring, names, weights, base_var=self.pres.var)
        return self._alg_cache[n]

    @staticmethod
    @lru_cache(maxsize=None)
    def face_targets(n: int, i: int) -> np.ndarray:
        """The face rule d_i: Q_n -> Q_{n-1} on the variables x, t_1..t_n,
        as int64 targets among x, t_1..t_{n-1}: x stays x (entry 0), t_s
        goes to t_{s - (s > i)}, where target 0 means t_1 -> f, and t_n dies
        under d_n (-1).  Monomials, wedge indices and cotangent slots all
        read their faces off this one array, made once per (n, i) and
        read-only, since every caller shares it."""
        s = np.arange(n + 1)
        targets = s - (s > i)
        if i == n:
            targets[n] = -1
        targets.flags.writeable = False
        return targets

    def face_exponents(self, n: int, i: int, expts: np.ndarray):
        """Images of Q_n monomials (the rows of ``expts``) under face i,
        each a single monomial because f = c x^d is: (mask of the rows that
        survive, exponent rows in Q_{n-1}, coefficients), the last two
        given for every row.  The exponents are ``expts`` times the move
        matrix of ``face_targets``, with t_1 -> f moving to x^d; a variable
        sent to 0 moves to a spare last column, and a row dies when that
        column is nonzero.  The coefficient is c^k for t_1 -> f occurring k
        times."""
        if not self.graded:
            raise ValueError("monomial face images need monomial f")
        targets = self.face_targets(n, i)
        # x, t_1..t_{n-1} of Q_{n-1}, then the spare column that target -1 indexes
        move = np.zeros((n + 1, n + 1), dtype=np.int64)
        move[np.arange(n + 1), targets] = 1
        coeff = np.ones(len(expts), dtype=np.int64)
        if targets[1] == 0:  # t_1 -> f = c x^d
            move[1, 0] = self.pres.degree
            c, m = self.pres.f_coeffs[-1], self.ring.modulus
            if c != 1:
                k = expts[:, 1]
                coeff = np.array([pow(c, e, m) for e in range(int(k.max(initial=0)) + 1)], dtype=np.int64)[k]
        images = expts @ move
        return images[:, n] == 0, images[:, :n], coeff

    # -- the forms of Q_n relative to k[x] (graded flavor)

    def form_basis(self, n: int, i: int, w: int) -> np.ndarray:
        """Nondegenerate basis of the weight-w slice of Omega^i(Q_n) relative
        to k[x], as int64 rows: the i wedge indices, then the n + 1
        exponents; made once per (n, i, w) and read-only, since every
        caller shares it.  Every t_s occurs in the exponent or under d, so
        the 0-forms are t_1...t_n times each monomial of weight
        w - n deg f, and the slice is empty when n deg f > w."""
        key = (n, i, w)
        if key not in self._forms:
            if n * self.pres.degree > w:
                basis = np.zeros((0, i + n + 1), dtype=np.int64)
            else:
                t_vars = range(1, n + 1)
                basis = graded_slice_basis(self.algebra(n), i, w, wedge_vars=t_vars, occurring=t_vars)
            basis.flags.writeable = False
            self._forms[key] = basis
        return self._forms[key]

    def face_sum(self, n: int, i: int, w: int) -> SparseMatrix:
        """The alternating face sum Omega^i(Q_n) -> Omega^i(Q_{n-1}) on the
        weight-w slices of ``form_basis``.  The exponents move by
        ``face_exponents`` and the wedge indices by ``face_targets``: dt_s
        goes to dt_t for a target t > 0, and dies for t_1 -> f (df = 0
        relative to k[x]) and for t_n -> 0, as does a form whose wedge
        factors repeat."""
        src = self.form_basis(n, i, w)
        rows, images, vals = [], [], []
        for k in range(n + 1):
            targets = self.face_targets(n, k)
            mapped = np.where(targets > 0, targets, -1)[src[:, :i]]
            alive, e2, coeff = self.face_exponents(n, k, src[:, i:])
            keep = alive & (mapped > 0).all(axis=1) & (np.diff(mapped, axis=1) > 0).all(axis=1)
            rows.append(np.flatnonzero(keep))
            images.append(np.hstack([mapped[keep], e2[keep]]))
            vals.append(-coeff[keep] if k % 2 else coeff[keep])
        tgt = self.form_basis(n - 1, i, w)
        return nondegenerate_matrix(rows, images, vals, (len(src), len(tgt)), tgt, i, self.ring.modulus)

    def exterior_derivative(self, n: int, i: int, w: int) -> SparseMatrix:
        """The exterior derivative Omega^i(Q_n) -> Omega^{i+1}(Q_n) relative
        to k[x] on the weight-w slices of ``form_basis``."""
        src = self.form_basis(n, i, w)
        wdg, e = src[:, :i], src[:, i:]
        rows, images, vals = [], [], []
        for s in range(1, n + 1):
            keep = np.flatnonzero((e[:, s] > 0) & ~(wdg == s).any(axis=1))
            # d(t_s) moves past the wedge factors below s
            sign = 1 - 2 * ((wdg[keep] < s).sum(axis=1) % 2)
            e2 = e[keep]
            e2[:, s] -= 1
            wdg2 = np.sort(np.hstack([wdg[keep], np.full((len(keep), 1), s)]), axis=1)
            rows.append(keep)
            images.append(np.hstack([wdg2, e2]))
            vals.append(sign * e[keep, s])
        tgt = self.form_basis(n, i + 1, w)
        return nondegenerate_matrix(rows, images, vals, (len(src), len(tgt)), tgt, i + 1, self.ring.modulus)

    def chain_complex(self, weight_bound: int | None = None) -> GradedSliceComplex:
        """N(Q_.) = C(Q_.)/D per weight slice: the 0-forms of ``form_basis``
        with ``face_sum``; graded flavor only (slices are exact).

        The degenerate monomials D span an acyclic subcomplex, so the
        quotient has the homology of C(Q_.) (Dold-Kan normalization)."""
        if not self.graded:
            raise ValueError("slice chain complex needs the weight-graded flavor")
        wb = self.weight_bound if weight_bound is None else weight_bound
        dims = {}
        diffs = {}
        for w in range(wb + 1):
            # nondegenerate slices vanish above simplicial degree w / deg f
            for n in range(self.d_max + 1):
                size = len(self.form_basis(n, 0, w))
                if not size:
                    break
                dims[(n, w)] = size
                if n:
                    diffs[(n, w)] = self.face_sum(n, 0, w)
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

    def cotangent_complex(self) -> GradedSliceComplex:
        """C(B (x) Omega^1_{Q_./rel}) as a slice complex, on the slots (e, s)
        = x^e dt_s of each level, e < deg f (s = 0 is dx).

        Face i sends slot (e, s) to (e, t) for its target t =
        ``face_targets(n, i)[s]`` >= 1 and kills it for t = -1.  Relative to
        k[x] (graded flavor) d(f) = 0, so target 0 dies too; the slots
        s >= 1 of one e make the slice of weight e + deg f, and every such
        slice has the same differential.  Relative to k (hypersurface
        flavor) all slots make one slice (weight 0), finite over k: the dx
        slots stay, and target 0 is dt_1 -> df = f'(x) dx, which sends
        (e, 1) to the dx slots of f'(x) x^e mod f.  In its slice, slot
        (e, s) sits at (s - lo) * width + e, with lo the first s and width
        the number of e per slice.
        """
        cert = self.certify()
        if not cert.ok:
            raise ValueError("resolution failed its acyclicity certificate")
        d = self.pres.degree
        base = self.relative == "base"
        weights, lo, width = ([a + d for a in range(d)], 1, 1) if base else ([0], 0, d)
        if not base:  # row a: the dx slots of f'(x) x^a mod f
            df = np.array(multiplication_rows(self.pres.fprime_coeffs(), self.pres.f_coeffs, self.ring.modulus),
                          dtype=np.int64)
        e = np.arange(width)
        dims, diffs = {}, {}
        for n in range(self.d_max + 1):
            dims.update({(n, w): (n + 1 - lo) * width for w in weights})
            if n == 0:
                continue
            s = np.arange(lo, n + 1)
            rows, cols, vals = [], [], []
            for i in range(n + 1):
                t = self.face_targets(n, i)[s]
                sign = -1 if i % 2 else 1
                same = (t > 0) | (s == 0)  # dt_s -> dt_t and dx -> dx, x^e kept
                rows.append((((s[same] - lo) * width)[:, None] + e).ravel())
                cols.append((((t[same] - lo) * width)[:, None] + e).ravel())
                vals.append(np.full(rows[-1].size, sign))
                if not base and t[1] == 0:  # t_1 -> f: dt_1 -> f'(x) dx
                    rows.append(np.repeat(width + e, d))
                    cols.append(np.tile(e, d))
                    vals.append(sign * df.ravel())
            face_sum = SparseMatrix(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                                    ((n + 1 - lo) * width, (n - lo) * width))
            diffs.update({(n, w): face_sum for w in weights})
        cx = GradedSliceComplex(self.ring, 0, self.d_max, dims, diffs,
                                trusted=(0, self.d_max - 2))
        cx.validate()
        return cx


# ---------------------------------------------------------------------------
# Kaehler presentations


class KaehlerPresentation:
    """Presentation of the relative differentials of a supported pair."""

    def __init__(self, pres: AlgebraPresentation, rank: int, free_over_target: bool, factors: list[int]):
        self.pres = pres
        self.rank = rank  # generators over the target algebra
        self.free_over_target = free_over_target
        self.factors = factors  # invariant factors over k


def kaehler_presentation(pres: AlgebraPresentation) -> KaehlerPresentation:
    ring = pres.ring
    if pres.shape == "quotient":
        # relative to A = k[x]: d kills every image, the module vanishes
        return KaehlerPresentation(pres, 0, False, [])
    # hypersurface over k: generator dx with relation f'(x) dx, over k on the power basis
    rows = multiplication_rows(pres.fprime_coeffs(), pres.f_coeffs, ring.modulus)
    factors = [c for c in local_smith(rows, ring)[0] if c > 1]
    # relation vanished: free of rank 1 over B
    return KaehlerPresentation(pres, 1, factors == [ring.modulus] * pres.degree, factors)


# ---------------------------------------------------------------------------
# cotangent homology


class CotangentResult:
    def __init__(self, pres: AlgebraPresentation, complex: GradedSliceComplex, report: HomologyReport,
                 certificate: AcyclicityCertificate):
        self.pres = pres
        self.complex = complex
        self.report = report
        self.certificate = certificate


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
