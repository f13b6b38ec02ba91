"""Hodge-filtered derived de Rham complexes over certified resolutions.

The total complex of the de Rham complexes of a free simplicial resolution
Q_n = k[x][t_1..t_n] of B = k[x]/(f), relative to A = k[x].  The block
Omega^i(Q_j) sits at (p, q) = (j, -i) of a double complex, in homological
degree j - i; the horizontal differential is the alternating face sum,
and the vertical one is the relative exterior derivative, which
``complexes.total_complex`` twists by (-1)^j when it assembles the block
triples.  The Hodge level cut m keeps columns i < m, modelling the
quotient by F^m; with weight(x) = 1 and weight(t) = deg f all slices are
finite and exact.

Every block is built on its nondegenerate forms only.  The degenerate forms
(some t_s occurring neither in the exponent nor under d) span an acyclic
sub-double-complex D that respects the Hodge columns, so the quotient by D
computes the same homology (Dold-Kan normalization; Weibel, An Introduction
to Homological Algebra, 8.3.7-8.3.8), and a weight-w slice has no blocks
above simplicial degree w / deg f.

The resolution owns the forms: each block basis is its ``form_basis``,
held once, and the block maps come from one ``face_sums`` and one
``exterior_derivatives`` call; ``_assemble`` keeps them in the total complex.

The Hodge-completed object is only ever handled as the family of its
finite levels, never as an inverse limit.  Each basis
element of the total complex carries its Hodge column i, so one filtered
contraction per weight (``complexes.reduce_complex``) serves every level:
the quotient by F^k is its corner of columns < k, and F^k H_0 its degree-0
cycles in columns >= k.
"""

from __future__ import annotations

import numpy as np

from .complexes import (
    DoubleComplex,
    GradedSliceComplex,
    HomologyReport,
    SliceQuotient,
    homology_quotient,
    homology_report,
    slice_homology,
    total_complex,
)
from .cotangent import (
    AlgebraPresentation,
    DepthError,
    FreeSimplicialResolution,
    kaehler_presentation,
)
from .exactlin import (
    left_kernel,
    local_smith,
    mmul,
    mzeros,
    quotient_invariants,
    span_solver,
)
from .polyalg import row_positions
from .simplex import shuffles
from .upoly import mul, rem

__all__ = [
    "FilteredDeRhamComplex",
    "ThickeningResult",
    "build_derham",
    "hodge_quotient_homology",
    "universal_thickening",
    "pd_envelope_report",
    "h0_shuffle_product",
]


class FilteredDeRhamComplex:
    """Assembled total complex of Omega^.(Q_.) below a Hodge cut."""

    def __init__(self, res: FreeSimplicialResolution, hodge_cut: int,
                 window: tuple[int, int], weight_bound: int):
        if res.relative != "base":
            raise ValueError("the de Rham builder runs on the quotient shape (relative to k[x])")
        self.res = res
        self.ring = res.ring
        self.pres = res.pres
        self.hodge_cut = hodge_cut
        self.window = window
        self.weight_bound = weight_bound
        needed_depth = _resolution_depth(res.pres, hodge_cut, window, weight_bound)
        if res.d_max < needed_depth:
            raise DepthError(
                f"resolution depth {res.d_max} insufficient: need {needed_depth} "
                f"for window top {window[1]} with Hodge cut {hodge_cut}"
            )
        cert = res.certify()
        if not cert.ok:
            raise ValueError("resolution failed its acyclicity certificate")
        self.certificate = cert
        self.total = self._assemble()

    # -- block bases

    def blocks(self, n: int, cut: int | None = None) -> list[tuple[int, int]]:
        cut = self.hodge_cut if cut is None else cut
        out = []
        for i in range(cut):
            j = n + i
            if 0 <= j <= self.res.d_max:
                out.append((j, i))
        return out

    def layout(self, n: int, w: int, cut: int | None = None):
        """[(j, i, offset)] plus the total dimension of the slice."""
        out = []
        off = 0
        for (j, i) in self.blocks(n, cut):
            size = len(self.res.form_basis(j, i, w))
            if size:
                out.append((j, i, off))
                off += size
        return out, off

    # -- total complexes

    def _n_min(self, cut: int) -> int:
        lo = self.window[0]
        return max(lo - 1 if cut > 1 else lo, -(cut - 1))

    def _assemble(self) -> GradedSliceComplex:
        """The total complex of the block double complex: Omega^i(Q_j) at
        (p, q) = (j, -i), so the vertical twist is (-1)^j and each slice
        lists its blocks by increasing i, as ``layout`` does; the column of
        a basis element is the i of its block."""
        cut = self.hodge_cut
        n_min, n_max = self._n_min(cut), self.window[1] + 1
        res = self.res
        terms = {(j, -i, w): len(res.form_basis(j, i, w))
                 for w in range(self.weight_bound + 1) for n in range(n_min, n_max + 1)
                 for (j, i, _) in self.layout(n, w, cut)[0]}
        horiz = {(j, -i, w): d for (j, i, w), d in
                 res.face_sums((j, -q, w) for (j, q, w) in terms if (j - 1, q, w) in terms).items()}
        vert = {(j, -i, w): d for (j, i, w), d in
                res.exterior_derivatives((j, -q, w) for (j, q, w) in terms if (j, q - 1, w) in terms).items()}
        cx = total_complex(DoubleComplex(self.ring, terms, horiz, vert))
        cx.n_min, cx.n_max, cx.trusted = n_min, n_max, self.window
        for (n, w), size in cx.dims.items():
            lay = self.layout(n, w, cut)[0]
            cx.columns[(n, w)] = np.repeat([i for _, i, _ in lay], np.diff([off for *_, off in lay] + [size]))
        return cx

    def quotient_complex(self, level: int) -> GradedSliceComplex:
        """The truncation modelling L-Omega / F^level (columns i < level):
        the corner of ``total`` below that level."""
        if level > self.hodge_cut:
            raise ValueError(f"level {level} above the built Hodge cut {self.hodge_cut}")
        return self.total.corner(level, self._n_min(level))

    def filtration_coordinates(self, level: int, n: int, w: int) -> np.ndarray:
        """Unit rows of the degree-n slice supported on columns >= level."""
        cols = self.total.columns.get((n, w), [])
        return np.eye(len(cols), dtype=np.int64)[np.searchsorted(cols, level):]

    def basis_vectors(self, n: int, w: int, elements) -> np.ndarray:
        """Coordinate vectors, in the slice basis, of block basis elements,
        as the rows of one matrix: each element is (j, i, row), with ``row``
        its row in block (j, i), the i wedge indices, then the j + 1
        exponents.

        The blocks of the slice, in layout order, make one table: each row
        is led by its block's place in the layout and padded with zeros to
        the widest block, so its place in the table is its slice index, and
        one ``row_positions`` call finds every element."""
        lay, total = self.layout(n, w)
        place = {(j, i): k for k, (j, i, _) in enumerate(lay)}
        blocks = [self.res.form_basis(j, i, w) for j, i, _ in lay]
        width = 1 + max((b.shape[1] for b in blocks), default=0)
        table, queries = mzeros(total, width), mzeros(len(elements), width)
        for k, ((_, _, off), b) in enumerate(zip(lay, blocks)):
            table[off:off + len(b), 0] = k
            table[off:off + len(b), 1:1 + b.shape[1]] = b
        for q, (j, i, row) in enumerate(elements):
            if (j, i) not in place or len(row) != i + j + 1:
                raise KeyError(f"{list(row)} is not in block ({j}, {i}) of degree {n} weight {w}")
            queries[q, 0] = place[(j, i)]
            queries[q, 1:1 + len(row)] = row
        pos, found = row_positions(table, queries)
        if not found.all():
            j, i, row = elements[int(np.flatnonzero(~found)[0])]
            raise KeyError(f"{list(row)} is not in block ({j}, {i}) of degree {n} weight {w}")
        out = mzeros(len(elements), total)
        out[np.arange(len(elements)), pos] = 1
        return out


def _resolution_depth(pres: AlgebraPresentation, hodge_cut: int, window: tuple[int, int],
                      weight_bound: int) -> int:
    """Simplicial depth the de Rham complex needs: one past the window top,
    plus its last Hodge column, below the cut and at most weight_bound / deg f."""
    return window[1] + 1 + min(hodge_cut - 1, weight_bound // pres.degree)


def build_derham(pres: AlgebraPresentation, hodge_cut: int, window: tuple[int, int],
                 weight_bound: int) -> FilteredDeRhamComplex:
    """Assemble the filtered de Rham complex for B = k[x]/(f) over k[x]."""
    if pres.shape != "quotient":
        raise ValueError("the de Rham builder expects the quotient shape")
    res = FreeSimplicialResolution(pres, _resolution_depth(pres, hodge_cut, window, weight_bound), weight_bound)
    return FilteredDeRhamComplex(res, hodge_cut, window, weight_bound)


def hodge_quotient_homology(f: FilteredDeRhamComplex, level: int,
                            degrees=None) -> HomologyReport:
    """Homology of L-Omega / F^level: the corner below that level of the
    filtered contraction of ``f.total``."""
    if level > f.hodge_cut:
        raise ValueError(f"level {level} exceeds the built cut {f.hodge_cut}")
    degs = list(degrees) if degrees is not None else list(range(f.window[0], f.window[1] + 1))
    return homology_report(f.total.contracted.corner(level, f._n_min(level)), degrees=degs)


# ---------------------------------------------------------------------------
# universal first-order thickening


class ThickeningResult:
    def __init__(self, pres: AlgebraPresentation, h0: dict, square_zero_ok: bool, sequence_lengths_ok: bool,
                 comparison_bijective: bool):
        self.pres = pres
        self.h0 = h0  # weight -> SliceQuotient
        self.square_zero_ok = square_zero_ok
        self.sequence_lengths_ok = sequence_lengths_ok
        self.comparison_bijective = comparison_bijective


def universal_thickening(pres: AlgebraPresentation, weight_bound: int) -> ThickeningResult:
    """H_0 of the F^2-truncated de Rham complex with its ring structure,
    compared against A/(f^2) via the lift-and-derive construction."""
    kae = kaehler_presentation(pres)
    if kae.rank != 0:
        raise ValueError("the universal thickening needs vanishing relative differentials")
    d = pres.degree
    ring = pres.ring
    m = ring.modulus
    # the cut-3 build keeps the column F^2 that the products land in; its
    # corner below level 2 is the F^2-truncation
    f = build_derham(pres, hodge_cut=3, window=(0, 1), weight_bound=weight_bound)
    cx = f.quotient_complex(2)

    h0 = {w: homology_quotient(cx, 0, w) for w in range(weight_bound + 1)}
    ideal = {w: _ideal_reps(f, q, w) for w, q in h0.items()}

    # explicit map to A/(f^2): theta reduces Q_0 = k[x] mod f^2, and the
    # derivation sends g dt_1 to (g at t_1 = 0) * f mod f^2
    f2 = mul(pres.f_coeffs, pres.f_coeffs, m)

    def reduce_f2(coeffs):
        return rem(coeffs, f2, m)

    def phi_vector(n0_vec: np.ndarray, w: int) -> np.ndarray:
        """Image in the weight-w slice of A/(f^2) (power basis x^w if w < 2d)."""
        out = mzeros(1, 1)[0] if w < 2 * d else mzeros(1, 0)[0]
        lay, _ = f.layout(0, w, 2)
        for (j, i, off) in lay:
            for e, c in zip(f.res.form_basis(j, i, w)[:, i:].tolist(), n0_vec[off:].tolist()):
                if not c:
                    continue
                if (j, i) == (0, 0):
                    # monomial x^w: reduce mod f^2
                    red = reduce_f2([0] * e[0] + [c])
                elif (j, i) == (1, 1) and e[1] == 0:
                    # g dt_1 with g = x^{e0} t_1^{e1}: evaluate at t_1 = 0
                    red = reduce_f2(mul([0] * e[0] + [c], pres.f_coeffs, m))
                else:
                    continue
                if w < 2 * d and w < len(red):
                    out[0] = (out[0] + red[w]) % m
        return out

    # phi kills boundaries (well-defined on H_0) and is bijective per slice
    comparison_ok = True
    for w in range(weight_bound + 1):
        q = h0[w]
        target_dim = 1 if w < 2 * d else 0
        img_rows = []
        for rep in q.gen_reps:
            img_rows.append(phi_vector(rep, w))
        bnd = cx.diff(1, w)
        for row in bnd:
            if phi_vector(row, w).any():
                comparison_ok = False
        # bijectivity: the induced map of finite modules is onto and sizes agree
        if target_dim:
            onto = any(int(r[0]) % ring.p for r in img_rows if r.size)
            sizes = q.size == m
            comparison_ok = comparison_ok and onto and sizes
        else:
            comparison_ok = comparison_ok and q.size == 1

    # square-zero: the ideal is F^1 H_0, and the product of two F^1
    # representatives lies in F^2, so it has no coordinate in the corner cx
    sq_ok = True
    for w1 in range(weight_bound + 1):
        for w2 in range(weight_bound + 1 - w1):
            for a in ideal[w1]:
                for b in ideal[w2]:
                    sq_ok = sq_ok and not h0_shuffle_product(f, a, w1, b, w2)[:cx.dim(0, w1 + w2)].any()

    # length bookkeeping of 0 -> H_1(L) -> H_0(LOmega/F^2) -> B -> 0
    seq_ok = True
    for w in range(weight_bound + 1):
        lb = ring.n if w < d else 0
        lh1 = ring.n if d <= w < 2 * d else 0  # conormal slice, free rank 1
        seq_ok = seq_ok and h0[w].length() == lb + lh1

    return ThickeningResult(pres, h0, sq_ok, seq_ok, comparison_ok)


def _ideal_reps(f: FilteredDeRhamComplex, q: SliceQuotient, w: int) -> list[np.ndarray]:
    """F^1 representatives, as slice vectors of ``f``, of the generators of
    ``q`` (H_0 of a corner of ``f``) that lie in F^1 modulo boundaries:
    the F^1 part of a solution of rep = F^1 coordinates + boundaries."""
    fil = f.filtration_coordinates(1, 0, w)
    if not (fil.shape[0] and q.gen_reps.shape[0]):
        return []
    boundaries = f.total.diff(1, w)
    solve = span_solver(np.vstack([fil, boundaries]) if boundaries.size else fil, f.ring)
    # the corner's coordinates come first; the columns it cuts away lie in
    # F^1, and f's boundaries project onto the corner's, so a padded rep is
    # in F^1 + boundaries of f exactly when rep is in F^1 + those of q
    reps = np.pad(q.gen_reps, ((0, 0), (0, fil.shape[1] - q.gen_reps.shape[1])))
    parts = (solve(rep) for rep in reps)
    return [c[:len(fil)] @ fil % f.ring.modulus for c in parts if c is not None]


def h0_shuffle_product(f: FilteredDeRhamComplex, u: np.ndarray, wu: int,
                       v: np.ndarray, wv: int):
    """Product of two degree-0 slice vectors; None above the weight bound.

    The degree-0 slice holds the blocks Omega^i(Q_i), whose basis elements
    are x^a t^b dt_1 ^ ... ^ dt_i, since every t_s occurs under d.  The
    product of u_i and v_j is the shuffle product of the simplicial algebra
    of forms times the Koszul sign (-1)^{ij}, in Omega^{i+j}(Q_{i+j}).  For
    an (i, j)-shuffle (mu, nu), s_nu sends t_s of u_i to t_{mu_s + 1} and
    s_mu sends t_s of v_j to t_{nu_s + 1}, and merging the wedges into
    dt_1 ^ ... ^ dt_{i+j} costs the shuffle sign again, so every term
    carries (-1)^{ij} alone: its exponent row is the sum of the two moved
    rows.  Columns at or above the Hodge cut are dropped (multiplication in
    the quotient).  A term missing from the target basis raises: no form of
    this slice is degenerate.
    """
    w = wu + wv
    if w > f.weight_bound:
        return None
    m = f.ring.modulus
    lay, total = f.layout(0, w)
    offsets = {i: off for _, i, off in lay}
    out = np.zeros(total, dtype=np.int64)
    for i1, eu, cu in _degree0_blocks(f, u, wu):
        for i2, ev, cv in _degree0_blocks(f, v, wv):
            col = i1 + i2
            if col >= f.hodge_cut:
                continue
            rows, coeffs = _shuffle_terms(eu, cu, i1, ev, cv, i2, m)
            pos, found = row_positions(f.res.form_basis(col, col, w)[:, col:], rows)
            if not found.all():
                raise AssertionError(f"shuffle product term {rows[~found][0].tolist()} "
                                     f"is nondegenerate but not in the basis")
            np.add.at(out, offsets[col] + pos, -coeffs if i1 * i2 % 2 else coeffs)
    return out % m


def _degree0_blocks(f: FilteredDeRhamComplex, vec: np.ndarray, w: int):
    """(i, exponent rows, coefficients) of the nonzero entries of a
    degree-0 slice vector, per block Omega^i(Q_i)."""
    vec = np.asarray(vec, dtype=np.int64) % f.ring.modulus
    for _, i, off in f.layout(0, w)[0]:
        rows = f.res.form_basis(i, i, w)
        nz = np.flatnonzero(vec[off:off + len(rows)])
        if nz.size:
            yield i, rows[nz, i:], vec[off + nz]


def _shuffle_terms(eu: np.ndarray, cu: np.ndarray, i1: int, ev: np.ndarray, cv: np.ndarray, i2: int,
                   m: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent rows (x, t_1..t_{i1+i2}) and coefficients mod m of the
    shuffle product terms of two blocks, without the Koszul sign: over the
    (i1, i2)-shuffles (mu, nu), the columns of u's t_s move to mu_s + 1 and
    those of v's to nu_s + 1, and every pair of terms adds its rows."""
    width = i1 + i2 + 1
    coeffs = np.outer(cu, cv).reshape(-1) % m
    rows = []
    for mu, nu, _ in shuffles(i1, i2):
        su = np.zeros((len(eu), width), dtype=np.int64)
        su[:, [0, *(k + 1 for k in mu)]] = eu
        sv = np.zeros((len(ev), width), dtype=np.int64)
        sv[:, [0, *(k + 1 for k in nu)]] = ev
        rows.append((su[:, None, :] + sv[None, :, :]).reshape(-1, width))
    return np.concatenate(rows), np.tile(coeffs, len(rows))


# ---------------------------------------------------------------------------
# the PD-envelope comparison


class PDEnvelopeReport:
    def __init__(self, pres: AlgebraPresentation, weight_bound: int, slice_verdicts: dict, filtration_verdicts: dict,
                 higher_vanishing: bool, iso_failure: int | None, ok: bool):
        self.pres = pres
        self.weight_bound = weight_bound
        self.slice_verdicts = slice_verdicts  # weight -> (h0 factors, pd factors, equal)
        self.filtration_verdicts = filtration_verdicts  # (level, weight) -> (hodge factors, pd factors, equal)
        self.higher_vanishing = higher_vanishing
        self.iso_failure = iso_failure  # the first weight whose generator map is not certified
        self.ok = ok

    @property
    def iso_certified(self) -> bool:
        return self.iso_failure is None


def _t_times_gamma(j: int, m: int) -> int:
    """The coefficient of gamma_{j+1}(t) in gamma_1(t) gamma_j(t) = (j+1)
    gamma_{j+1}(t), reduced mod m."""
    return (j + 1) % m


def pd_envelope_report(pres: AlgebraPresentation, weight_bound: int) -> PDEnvelopeReport:
    """Compare H_0(LOmega_{B/A}) with the PD algebra quotient A<t>/(t - f).

    Per weight slice the invariant factors must agree, the Hodge filtration
    must match the divided-power filtration, higher homology must vanish on
    the window, and the explicit generator-matching map gamma_j(t) ->
    [dt_1 ^ ... ^ dt_j] must be a certified isomorphism.
    """
    if pres.shape != "quotient":
        raise ValueError("PD envelope comparison runs on the quotient shape")
    ring = pres.ring
    m = ring.modulus
    d = pres.degree
    c_lead = pres.f_coeffs[-1]
    max_level = weight_bound // d + 1
    f = build_derham(pres, hodge_cut=max_level, window=(0, 1), weight_bound=weight_bound)

    # PD side: A<t>/(t - f) slice by slice in the basis x^a gamma_j(t);
    # its one product coefficient is the closed form of _t_times_gamma, so
    # this route is independent of the de Rham machinery

    def pd_basis(w):
        return [(w - j * d, j) for j in range(w // d + 1)]

    def pd_relation_rows(w):
        """(t - f) * x^a gamma_j of weight w - d, expanded at weight w."""
        rows = []
        basis = pd_basis(w)
        bindex = {b: k for k, b in enumerate(basis)}
        if w < d:
            return mzeros(0, len(basis))
        for (a, j) in pd_basis(w - d):
            row = mzeros(1, len(basis))[0]
            row[bindex[(a, j + 1)]] = _t_times_gamma(j, m)
            row[bindex[(a + d, j)]] = (-c_lead) % m
            rows.append(row)
        return np.vstack(rows) if rows else mzeros(0, len(basis))

    slice_verdicts = {}
    filtration_verdicts = {}
    ok = True
    h0 = {w: homology_quotient(f.total, 0, w) for w in range(weight_bound + 1)}
    gens = {w: _generator_vectors(f, w) for w in range(weight_bound + 1)}
    red = f.total.contracted
    constants, iso_failure = _envelope_constants(f, h0, gens)
    for w in range(weight_bound + 1):
        iso_ok = True
        q = h0[w]
        basis = pd_basis(w)
        rel = pd_relation_rows(w)
        pd_facs = [c for c in local_smith(rel, ring)[0] if c > 1]
        eq = sorted(q.factors) == sorted(pd_facs)
        slice_verdicts[w] = (q.factors, pd_facs, eq)
        ok = ok and eq

        # generator-matching map Phi: x^a gamma_j -> c_j [x^a dt_1 ^ .. ^ dt_j]
        phi_m = np.array([constants[j] for _, j in basis], dtype=np.int64)[:, None] * gens[w] % m
        # relations map to boundaries
        for row in rel:
            coords = q.coords(mmul(row, phi_m, ring))
            if coords is None or any(coords):
                iso_ok = False
        # surjectivity: images of pd basis classes generate H_0 slice
        img_coords = [q.coords(r) for r in phi_m]
        if any(c is None for c in img_coords):
            iso_ok = False
        else:
            gen_m = np.array(img_coords, dtype=np.int64)
            pd_size = 1
            for fac in pd_facs:
                pd_size *= fac
            if q.size != pd_size:
                iso_ok = False
            elif any(c > 1 for c in local_smith(np.vstack([gen_m, np.diag(q.factors)]), ring)[0]):
                iso_ok = False  # the coordinates of the images do not span the quotient
        if not iso_ok and (iso_failure is None or w < iso_failure):
            iso_failure = w

        # filtration comparison per level: F^level H_0 is the cycles of the
        # contraction in columns >= level modulo all boundaries; the PD side
        # is the span of the x^a gamma_j with j >= level
        d0, bnd = red.diff(0, w), red.diff(1, w)
        for level in range(0, min(max_level, w // d + 2)):
            start = int(np.searchsorted(red.columns.get((0, w), []), level))
            ker = left_kernel(d0[start:], ring)
            cycles = np.hstack([mzeros(len(ker), start), ker])
            hodge_facs = quotient_invariants(np.vstack([cycles, bnd]), bnd, ring)
            pd_span = np.eye(len(basis), dtype=np.int64)[[k for k, (_, j) in enumerate(basis) if j >= level]]
            pd_fil_facs = quotient_invariants(np.vstack([pd_span, rel]), rel, ring)
            eq = sorted(hodge_facs) == sorted(pd_fil_facs)
            filtration_verdicts[(level, w)] = (hodge_facs, pd_fil_facs, eq)
            ok = ok and eq

    higher = not any(slice_homology(f.total, 1, w) for w in range(weight_bound + 1))
    return PDEnvelopeReport(pres, weight_bound, slice_verdicts, filtration_verdicts,
                            higher, iso_failure, ok and higher and iso_failure is None)


def _generator_vectors(f: FilteredDeRhamComplex, w: int) -> np.ndarray:
    """The slice vectors of x^a dt_1 ^ .. ^ dt_j in degree 0, weight w, with
    a = w - j deg f, as rows j = 0 .. w // deg f: the images of the PD basis
    x^a gamma_j of weight w up to the constants c_j."""
    d = f.pres.degree
    return f.basis_vectors(0, w, [(j, j, [*range(1, j + 1), w - j * d] + [0] * j) for j in range(w // d + 1)])


def _envelope_constants(f: FilteredDeRhamComplex, h0: dict, gens: dict) -> tuple[dict, int | None]:
    """Unit constants c_j making gamma_j -> c_j [dt_1 ^ .. ^ dt_j] a map of
    algebras over A: every (t - f)-relation must land in the boundaries.

    The constant is forced (given c_j) whenever j+1 is invertible; at the
    degenerate transitions p | j+1 any unit consistent with the torsion
    part works, matching the unit ambiguity of filtered-algebra
    automorphisms that rescale the new divided-power generator; the first
    such unit is taken.  ``h0`` holds the H_0 quotient of every weight,
    ``gens`` its ``_generator_vectors``.
    Returns (constants, None), or, when no unit solution exists, constants
    1 and the weight of the first relation that no unit satisfies (the
    certification fails there).
    """
    ring = f.ring
    m = ring.modulus
    d = f.pres.degree
    c_lead = f.pres.f_coeffs[-1]
    weight_bound = f.weight_bound
    constants = {0: 1}
    units = [u for u in range(1, m) if u % ring.p]

    def cls(a, j):
        w = a + j * d
        return h0[w].coords(gens[w][j]), h0[w]

    for j in range(weight_bound // d + 1):
        candidates = units
        # the relation (t - f) x^a gamma_j, of weight a + (j + 1) d
        for a in range(0, weight_bound - (j + 1) * d + 1):
            u_next, q = cls(a, j + 1)
            u_prev, _ = cls(a + d, j)
            if u_next is not None and u_prev is not None:
                rhs = tuple((constants[j] * c_lead * y) % fct for y, fct in zip(u_prev, q.factors))
                candidates = [c for c in candidates
                              if tuple((c * (j + 1) * x) % fct for x, fct in zip(u_next, q.factors)) == rhs]
            if u_next is None or u_prev is None or not candidates:
                return {k: 1 for k in range(weight_bound // d + 2)}, a + (j + 1) * d
        constants[j + 1] = candidates[0]
    return constants, None
