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
nondegenerate bases (``form_basis``), the face sums (``face_sums``) and
the exterior derivatives (``exterior_derivatives``), one pass per call.
Its chain complex is the 0-form column, the de Rham blocks all of them.

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
    canonical,
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


def degenerate_rows(expts: np.ndarray, wedges: np.ndarray) -> np.ndarray:
    """Mask of the degenerate elements x^a t^b dt_I of Q_n, given as exponent
    rows (x first, then t_1..t_n) and rows of wedge indices I (no columns
    for 0-forms): those in which some t_s, 1 <= s <= n, occurs neither in
    the exponent nor under d.  These span the images of the degeneracies."""
    missing = expts[:, 1:] == 0
    missing[np.arange(len(wedges))[:, None], wedges - 1] = False
    return missing.any(axis=1)


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
    def face_targets(n: int) -> np.ndarray:
        """The face rule of Q_n, row i for d_i: Q_n -> Q_{n-1}: the int64
        targets of x, t_1..t_n among x, t_1..t_{n-1}.  x stays x, t_s goes to
        t_{s - (s > i)}, where 0 means t_1 -> f, and t_n dies under d_n (-1).
        Monomials, wedge indices and cotangent slots all read their faces
        off this one array, made once per n and read-only."""
        s = np.arange(n + 1)
        targets = s - (s > s[:, None])
        targets[n, n] = -1
        targets.flags.writeable = False
        return targets

    def face_exponents(self, n: int, expts: np.ndarray):
        """Images of the Q_n monomials ``expts`` under the faces i = 0..n,
        each a single monomial because f = c x^d is: (mask of the survivors,
        exponent rows in Q_{n-1}, coefficients), indexed by face, then row.
        The exponents are ``expts`` times the move matrices of
        ``face_targets``, with t_1 -> f moving to x^d; a variable sent to 0
        moves to a spare last column, and a row dies when that column is
        nonzero.  The coefficient is c^k for t_1 -> f occurring k times."""
        if not self.graded:
            raise ValueError("monomial face images need monomial f")
        targets = self.face_targets(n)
        # x, t_1..t_{n-1} of Q_{n-1}, then the spare column n that target -1 indexes
        move = (targets[:, :, None] % (n + 1) == np.arange(n + 1)).astype(np.int64)
        to_f = targets[:, 1] == 0  # t_1 -> f = c x^d
        move[to_f, 1, 0] = self.pres.degree
        coeff = np.ones((n + 1, len(expts)), dtype=np.int64)
        c, m, k = self.pres.f_coeffs[-1], self.ring.modulus, expts[:, 1]
        if c != 1:
            coeff[to_f] = np.array([pow(c, e, m) for e in range(int(k.max(initial=0)) + 1)], dtype=np.int64)[k]
        images = expts @ move
        return images[:, :, n] == 0, images[:, :, :n], coeff

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

    def face_sums(self, keys) -> dict:
        """{(n, i, w): the alternating face sum Omega^i(Q_n) -> Omega^i(Q_{n-1})
        on weight w} for the requested keys, in one pass (``_block_maps``).
        dt_s goes to dt_t for a target t > 0 and dies for t_1 -> f (df = 0
        relative to k[x]) and t_n -> 0, as do forms whose wedge factors repeat."""
        def terms(n, i, src):  # every face of every row at once
            targets = self.face_targets(n)
            mapped = np.where(targets > 0, targets, -1)[:, src[:, :i]]
            alive, e2, coeff = self.face_exponents(n, src[:, i:])
            alive &= (mapped[..., :1] > 0).all(axis=2) & (mapped[..., 1:] > mapped[..., :-1]).all(axis=2)
            face, rows = np.nonzero(alive)
            coeff = coeff[face, rows]
            return rows, np.concatenate([mapped[face, rows], e2[face, rows]], axis=1), np.where(face % 2, -coeff, coeff)
        return self._block_maps(list(keys), -1, 0, terms)

    def exterior_derivatives(self, keys) -> dict:
        """{(n, i, w): the exterior derivative Omega^i(Q_n) -> Omega^{i+1}(Q_n)
        relative to k[x] on the weight-w slices of ``form_basis``} for the
        requested keys, in one pass (``_block_maps``)."""
        def terms(n, i, src):  # every d(t_s) of every row at once
            wdg, e = src[:, :i], src[:, i:]
            under = np.zeros((len(src), n + 1), dtype=bool)  # dt_s is a wedge factor
            under[np.arange(len(src))[:, None], wdg] = True
            rows, s = np.nonzero((e[:, 1:] > 0) & ~under[:, 1:])
            s += 1
            sign = 1 - 2 * (under.cumsum(axis=1)[rows, s] % 2)  # d(t_s) moves past the factors below s
            e2 = e[rows]
            e2[np.arange(len(rows)), s] -= 1
            wdg2 = np.sort(np.concatenate([wdg[rows], s[:, None]], axis=1), axis=1)
            return rows, np.concatenate([wdg2, e2], axis=1), sign * e[rows, s]
        return self._block_maps(list(keys), 0, 1, terms)

    def _block_maps(self, keys, dn: int, di: int, terms) -> dict:
        """{(n, i, w): the map Omega^i(Q_n) -> Omega^{i+di}(Q_{n+dn}) on weight
        w} from the (source row, image row, value) of each term that
        ``terms(n, i, rows)`` gives.  Each column (n, i) runs all its weights
        through ``terms`` and one ``row_positions`` call; an image not found
        must be degenerate (zero in C/D), or a basis element is missing.  One
        ``as_sparse`` call sums the whole call (``simplex.unnormalized_complex``)."""
        shapes = [(len(self.form_basis(n, i, w)), len(self.form_basis(n + dn, i + di, w))) for n, i, w in keys]
        nrows, ncols = np.array(shapes, dtype=np.int64).reshape(-1, 2).T
        bases = (nrows * ncols).cumsum() - nrows * ncols
        columns = {}
        for b, (n, i, _) in enumerate(keys):
            columns.setdefault((n, i), []).append(b)
        # bases + row * ncols + col, less what the column's earlier blocks add to row and col
        entry_at, entries, vals = bases.copy(), [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for (n, i), bs in columns.items():
            entry_at[bs] -= (nrows[bs].cumsum() - nrows[bs]) * ncols[bs] + ncols[bs].cumsum() - ncols[bs]
            rows, images, v = terms(n, i, np.concatenate([self.form_basis(n, i, keys[b][2]) for b in bs]))
            cols, found = row_positions(np.concatenate([self.form_basis(n + dn, i + di, keys[b][2]) for b in bs]),
                                        images)
            lost = images[~found]
            if not degenerate_rows(lost[:, i + di:], lost[:, :i + di]).all():
                raise AssertionError("a nondegenerate image is missing from the target basis")
            at = np.repeat(bs, nrows[bs])[rows[found]]
            entries.append(entry_at[at] + rows[found] * ncols[at] + cols[found])
            vals.append(v[found])
        entries, vals = np.concatenate(entries), np.concatenate(vals)  # frees the lists before the sum
        summed = as_sparse(SparseMatrix(np.zeros_like(entries), entries, vals, (1, int((nrows * ncols).sum()))),
                           self.ring.modulus)
        at = bases.searchsorted(summed.cols, side="right") - 1
        rows, cols = np.divmod(summed.cols - bases[at], ncols[at])
        cuts = summed.cols.searchsorted(bases).tolist() + [summed.vals.size]
        return {key: canonical(rows[lo:hi], cols[lo:hi], summed.vals[lo:hi], shape, self.ring.modulus)
                for key, shape, lo, hi in zip(keys, shapes, cuts, cuts[1:])}

    def chain_complex(self, weight_bound: int | None = None) -> GradedSliceComplex:
        """N(Q_.) = C(Q_.)/D per weight slice: the 0-forms of ``form_basis``
        with ``face_sums``; graded flavor only (slices are exact).

        The degenerate monomials D span an acyclic subcomplex, so the
        quotient has the homology of C(Q_.) (Dold-Kan normalization)."""
        if not self.graded:
            raise ValueError("slice chain complex needs the weight-graded flavor")
        wb = self.weight_bound if weight_bound is None else weight_bound
        dims = {}
        for w in range(wb + 1):
            # nondegenerate slices vanish above simplicial degree w / deg f
            for n in range(self.d_max + 1):
                size = len(self.form_basis(n, 0, w))
                if not size:
                    break
                dims[(n, w)] = size
        diffs = {(n, w): d for (n, _, w), d in self.face_sums((n, 0, w) for n, w in dims if n).items()}
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
        ``face_targets(n)[i, s]`` >= 1 and kills it for t = -1.  Relative to
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
            t = self.face_targets(n)[:, s]  # every face at once
            face, k = np.nonzero((t > 0) | (s == 0))  # dt_s -> dt_t and dx -> dx, x^e kept
            rows = [(((s[k] - lo) * width)[:, None] + e).ravel()]
            cols = [(((t[face, k] - lo) * width)[:, None] + e).ravel()]
            vals = [np.repeat(1 - 2 * (face % 2), width)]
            if not base:  # face 0 sends t_1 -> f: dt_1 -> f'(x) dx
                rows, cols, vals = rows + [np.repeat(width + e, d)], cols + [np.tile(e, d)], vals + [df.ravel()]
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
