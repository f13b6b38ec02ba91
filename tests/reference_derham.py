"""Dense de Rham blocks kept as the reference for
``derham.FilteredDeRhamComplex``.

This is how the de Rham builder made its differentials before they were
assembled as triples: each horizontal (alternating face sum) and vertical
(relative exterior derivative) block as a dense matrix, filled basis element
by basis element, and every total differential as one dense matrix with the
blocks added at their offsets.  ``assemble`` returns the dense ``dims`` and
``diffs`` the old code handed to ``GradedSliceComplex``.  It runs on the
library's nondegenerate block bases, and drops an image that is not among
them only after checking that it is degenerate.

``build_unnormalized`` is the builder as it was before its blocks were
normalized: the same assembly on every form of each block, degenerate ones
included, those of ``reference_cotangent.UnnormalizedResolution``.

``quotient_map``, ``filtration_coordinates`` and ``filtered_h0_factors`` are
the dense filtration path ``pd_envelope_report`` and the quotient maps took
before they read the Hodge columns and the filtered contraction: block
offsets walked through ``layout``, and F^level H_0 as the cycles of the
full degree-0 slice supported on the columns >= level, modulo the
boundaries of the full degree-1 slice.  The library no longer has a
quotient map; the tests use this one to check that the level truncations
``quotient_complex`` cuts are compatible.

``graded_piece_report`` is the comparison the library made before it was
dropped: gr^level of the Hodge filtration, the column complex
Omega^level(Q_.) with the face sum, against the derived exterior power of
the conormal shortcut for deg f = 1, and against Gamma^level of the
rank-one conormal module, written out by hand, for deg f > 1.  The
derived power does not serve for deg f > 1: it takes Gamma over k of the
rank-d k-module, not Gamma over B.

``basis_vector`` is the library's lookup of one block basis element before
``basis_vectors`` found all the elements it is given in one table: a
``layout`` walk and a ``row_positions`` call on one block per element.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from derhamkit.complexes import GradedSliceComplex, slice_homology
from derhamkit.cotangent import AlgebraPresentation, shortcut_conormal_complex
from derhamkit.derham import FilteredDeRhamComplex
from derhamkit.exactlin import howell_form, left_kernel, mmul, mzeros, quotient_invariants
from derhamkit.pdpow import derived_power
from derhamkit.polyalg import row_positions

import reference_cotangent
from reference_polyalg import form_entries


def build_unnormalized(pres: AlgebraPresentation, hodge_cut: int, window: tuple[int, int],
                       weight_bound: int) -> FilteredDeRhamComplex:
    """``derham.build_derham`` with unnormalized blocks, at the same depth."""
    depth = window[1] + 1 + min(hodge_cut - 1, weight_bound // pres.degree)
    res = reference_cotangent.UnnormalizedResolution(pres, depth, weight_bound)
    return FilteredDeRhamComplex(res, hodge_cut, window, weight_bound)


def face_images(j: int, k: int) -> dict:
    """Images of the t-variable indices 1..j under face k at level j:
    None means the wedge factor dies (t -> f has df = 0, or t -> 0)."""
    images = {}
    for s in range(1, j + 1):
        if s == k == j:
            images[s] = None
        elif s <= k and s != j:
            images[s] = s
        else:
            images[s] = None if s - 1 == 0 else s - 1
    return images


def horizontal_matrix(f: FilteredDeRhamComplex, j: int, i: int, w: int) -> np.ndarray:
    """Alternating face sum Omega^i(Q_j) -> Omega^i(Q_{j-1}) on slice w."""
    src = form_entries(f.res.form_basis(j, i, w), i)
    tgt = form_entries(f.res.form_basis(j - 1, i, w), i)
    tindex = {t: a for a, t in enumerate(tgt)}
    out = mzeros(len(src), len(tgt))
    for k in range(j + 1):
        sign = -1 if k % 2 else 1
        images = face_images(j, k)
        for a, (e, wdg) in enumerate(src):
            mapped = [images[s] for s in wdg]
            if any(s is None for s in mapped):
                continue
            if len(set(mapped)) != len(mapped):
                continue  # repeated wedge factor
            hit = reference_cotangent.face_monomial(f.res, j, k, e)
            if hit is None:
                continue
            c, e2 = hit
            key = (e2, tuple(mapped))
            if key in tindex:
                out[a, tindex[key]] = (out[a, tindex[key]] + sign * c) % f.ring.modulus
            else:
                assert reference_cotangent.is_degenerate(*key), (j, k, e, key)
    return out


def vertical_matrix(f: FilteredDeRhamComplex, j: int, i: int, w: int) -> np.ndarray:
    """Relative exterior derivative Omega^i(Q_j) -> Omega^{i+1}(Q_j)."""
    src = form_entries(f.res.form_basis(j, i, w), i)
    tgt = form_entries(f.res.form_basis(j, i + 1, w), i + 1)
    tindex = {t: a for a, t in enumerate(tgt)}
    out = mzeros(len(src), len(tgt))
    for a, (e, wdg) in enumerate(src):
        for s in range(1, j + 1):
            if e[s] == 0 or s in wdg:
                continue
            pos = sum(1 for q in wdg if q < s)
            sign = (-1) ** pos
            e2 = list(e)
            e2[s] -= 1
            key = (tuple(e2), wdg[:pos] + (s,) + wdg[pos:])
            if key in tindex:
                out[a, tindex[key]] = (out[a, tindex[key]] + sign * e[s]) % f.ring.modulus
            else:
                assert reference_cotangent.is_degenerate(*key), (j, e, key)
    return out


def assemble(f: FilteredDeRhamComplex, cut: int | None = None):
    """(dims, diffs) of the total complex below the Hodge cut, dense."""
    cut = f.hodge_cut if cut is None else cut
    n_min = f._n_min(cut)
    n_max = f.window[1] + 1
    dims = {}
    diffs = {}
    for w in range(f.weight_bound + 1):
        lay = {}
        for n in range(n_min, n_max + 1):
            lay[n], total = f.layout(n, w, cut)
            if total:
                dims[(n, w)] = total
        for n in range(n_min + 1, n_max + 1):
            src_total = dims.get((n, w), 0)
            tgt_total = dims.get((n - 1, w), 0)
            if not src_total or not tgt_total:
                continue
            tgt_off = {(j, i): off for (j, i, off) in lay[n - 1]}
            dmat = mzeros(src_total, tgt_total)
            for (j, i, off) in lay[n]:
                rows = len(f.res.form_basis(j, i, w))
                if (j - 1, i) in tgt_off:
                    h = horizontal_matrix(f, j, i, w)
                    o2 = tgt_off[(j - 1, i)]
                    dmat[off : off + rows, o2 : o2 + h.shape[1]] += h
                if (j, i + 1) in tgt_off:
                    v = vertical_matrix(f, j, i, w)
                    o2 = tgt_off[(j, i + 1)]
                    sgn = -1 if j % 2 else 1
                    dmat[off : off + rows, o2 : o2 + v.shape[1]] += sgn * v
            diffs[(n, w)] = dmat % f.ring.modulus
    return dims, diffs


def quotient_map(f: FilteredDeRhamComplex, level_hi: int, level_lo: int, n: int, w: int) -> np.ndarray:
    """Projection between the degree-n slices of two level truncations."""
    lay_hi, total_hi = f.layout(n, w, level_hi)
    lay_lo, total_lo = f.layout(n, w, level_lo)
    lo_off = {(j, i): off for (j, i, off) in lay_lo}
    out = mzeros(total_hi, total_lo)
    for (j, i, off) in lay_hi:
        if (j, i) in lo_off:
            size = len(f.res.form_basis(j, i, w))
            o2 = lo_off[(j, i)]
            out[off : off + size, o2 : o2 + size] = np.eye(size, dtype=np.int64)
    return out


def filtration_coordinates(f: FilteredDeRhamComplex, level: int, n: int, w: int) -> np.ndarray:
    """Unit rows of the degree-n slice supported on columns >= level."""
    lay, total = f.layout(n, w)
    rows = []
    for (j, i, off) in lay:
        if i >= level:
            size = len(f.res.form_basis(j, i, w))
            block = mzeros(size, total)
            block[:, off : off + size] = np.eye(size, dtype=np.int64)
            rows.append(block)
    return np.vstack(rows) if rows else mzeros(0, total)


def cycle_intersection(total, fil_rows: np.ndarray, n: int, w: int) -> np.ndarray:
    """Cycles of degree n supported on the filtration rows: the span of
    fil-combinations killed by the differential."""
    if fil_rows.shape[0] == 0:
        return fil_rows
    d = total.diff(n, w)
    if d.shape[1] == 0:
        return fil_rows
    composite = mmul(fil_rows, d, total.ring)
    ker = left_kernel(composite, total.ring)
    if ker.shape[0] == 0:
        return mzeros(0, fil_rows.shape[1])
    return howell_form(mmul(ker, fil_rows, total.ring), total.ring)


def filtered_h0_factors(f: FilteredDeRhamComplex, level: int, w: int) -> list[int]:
    """Invariant factors of F^level H_0 at weight w, on the dense slices."""
    fil = filtration_coordinates(f, level, 0, w)
    bnd = f.total.diff(1, w)
    cycles = cycle_intersection(f.total, fil, 0, w)
    return quotient_invariants(
        np.vstack([cycles, bnd]) if bnd.size else cycles, bnd, f.ring
    ) if cycles.shape[0] or bnd.size else []


def basis_vector(f: FilteredDeRhamComplex, n: int, w: int, j: int, i: int, row) -> np.ndarray:
    """Coordinate vector, in the slice basis, of the block basis element
    whose row (the i wedge indices, then the j + 1 exponents) is ``row``."""
    lay, total = f.layout(n, w)
    offsets = {(jj, ii): off for jj, ii, off in lay}
    pos, found = row_positions(f.res.form_basis(j, i, w), np.array([row], dtype=np.int64))
    if (j, i) not in offsets or not found[0]:
        raise KeyError(f"{list(row)} is not in block ({j}, {i}) of degree {n} weight {w}")
    v = mzeros(1, total)[0]
    v[offsets[(j, i)] + pos[0]] = 1
    return v


class GradedPieceReport(NamedTuple):
    level: int
    verdicts: dict  # (degree, weight) -> (left factors, right factors, equal)
    comparison_route: str
    ok: bool


def column_complex(f: FilteredDeRhamComplex, level: int) -> GradedSliceComplex:
    """gr^level of the Hodge filtration of ``f``: the forms
    Omega^level(Q_j) of its resolution in degrees j - level, with the face
    sum."""
    res = f.res
    dims = {}
    for w in range(f.weight_bound + 1):
        for j in range(level, res.d_max + 1):
            b = len(res.form_basis(j, level, w))
            if b:
                dims[(j - level, w)] = b
    sums = res.face_sums((n + level, level, w) for n, w in dims if (n - 1, w) in dims)
    diffs = {(j - level, w): d for (j, _, w), d in sums.items()}
    column = GradedSliceComplex(f.ring, 0, res.d_max - level, dims, diffs,
                                trusted=(0, res.d_max - level - 1))
    column.validate()
    return column


def graded_piece_report(f: FilteredDeRhamComplex, level: int) -> GradedPieceReport:
    """Compare gr^level of the Hodge filtration with the shifted derived
    exterior power of the cotangent complex.

    The comparison side: for deg f = 1 the derived exterior power of the
    conormal shortcut (quasi-isomorphic to the cotangent complex); for
    deg f > 1, Gamma^level of the rank-one conormal module placed in degree
    ``level`` gives the expected values."""
    if level >= f.hodge_cut and level != 0:
        raise ValueError("level must be below the Hodge cut")
    lo, hi = f.window
    d = f.pres.degree
    m = f.ring.modulus
    column = column_complex(f, level)
    if level == 0:
        # gr^0 is the resolution itself: H_0 = B
        route = "derived-power" if d == 1 else "conormal-gamma-oracle"
        rhs_entries = {(0, w): [m] for w in range(min(d, f.weight_bound + 1))}
    elif d == 1:
        route = "derived-power"
        small = shortcut_conormal_complex(f.pres, hi + level)
        rep = derived_power(small, "wedge", level, degrees=range(0, hi + level + 1))
        rhs_entries = {(n - level, w): e["factors"] for (n, w), e in rep.entries.items()}
    else:
        # Gamma^level of the free rank-1 conormal (weight d): after the
        # [-level] shift of the graded piece this sits in total degree 0
        route = "conormal-gamma-oracle"
        rhs_entries = {(0, level * d + e): [m] for e in range(d) if level * d + e <= f.weight_bound}
    verdicts = {}
    for n in [n for n in range(lo, hi + 1) if column.in_trust_window(n)]:
        for w in range(f.weight_bound + 1):
            lhs = slice_homology(column, n, w)
            rhs = rhs_entries.get((n, w), [])
            if lhs or rhs:
                verdicts[(n, w)] = (lhs, rhs, lhs == rhs)
    return GradedPieceReport(level, verdicts, route, all(eq for _, _, eq in verdicts.values()))
