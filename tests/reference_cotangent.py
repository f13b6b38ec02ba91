"""References for ``cotangent.FreeSimplicialResolution.chain_complex``.

Dense differentials: this is how the resolution built its slice
differentials before they were assembled as triples: one dense matrix per
face, looked up monomial by monomial, summed with alternating signs.  It
returns the dense ``dims`` and ``diffs`` the old code handed to
``GradedSliceComplex``, and ``assert_diffs_equal`` requires ``diff()`` of
the library's complex to equal such matrices in shape, dtype and every
entry.  It runs on the library's nondegenerate bases, and drops a face
image that is not among them only after checking that it is degenerate.

``UnnormalizedResolution`` is the resolution as it was before its forms
were normalized: every form of each slice, listed by the tuple slice basis
of ``reference_polyalg``, the degenerate ones included, so the chain
complex is C(Q_.) and not C(Q_.)/D, and the de Rham blocks are the whole
of Omega^i(Q_j).  Its chain complex is its own: a loop over every slice up
to the depth, with the per-block ``face_sum`` below, so that it shares
neither the library's slice loop nor its one-pass face sums.

``face_variable_table`` (with ``face_exponents``, the whole-slice
monomial faces read off it), ``wedge_face`` and ``cotangent_complex`` are
the three encodings of the face rule the library had before it wrote the rule
once, as ``FreeSimplicialResolution.face_targets``: a table of (target,
coefficient, power) per variable for monomials, the images of the wedge
indices of forms, and a slot-by-slot image for the cotangent complex, whose
dense face matrices were summed with alternating signs and cut into weight
slices.

``face_sum`` and ``exterior_derivative`` are the block maps as the
resolution made them before ``face_sums`` and ``exterior_derivatives``
made every requested block in one pass: one block per call, a loop over
the faces (with the per-face ``face_exponents`` above) or over the d t_s,
and a ``row_positions`` lookup in that block's target basis
(``nondegenerate_matrix``).

``poly_to_string`` prints constant-first coefficients as the polynomial
strings ``upoly.parse_poly_string`` reads, as the presentations'
JSON form did.  ``parse_poly_string`` is the reader the command line had
before each term was matched whole: it splits at the signs and takes the
digits around the first x, so it misreads some malformed strings ('x*x'
as x), and it is the reference only on well-formed ones.
"""

from __future__ import annotations

import numpy as np

from derhamkit.complexes import GradedSliceComplex
from derhamkit.cotangent import FreeSimplicialResolution, degenerate_rows
from derhamkit.exactlin import SparseMatrix, as_sparse, mzeros
from derhamkit.polyalg import row_positions
from derhamkit.upoly import rem

from reference_polyalg import Poly, face, form_rows, graded_slice_basis


def is_degenerate(expts: tuple[int, ...], wedge: tuple[int, ...] = ()) -> bool:
    """Some t_s of Q_n (exponent index s >= 1) occurs neither in the
    exponent nor under d, so the element lies in the image of a degeneracy."""
    return any(k == 0 and s not in wedge for s, k in enumerate(expts) if s >= 1)


class UnnormalizedResolution(FreeSimplicialResolution):
    """The forms of Q_n, degenerate ones included, and a chain complex of
    its own."""

    def form_basis(self, n: int, i: int, w: int) -> np.ndarray:
        key = (n, i, w)
        if key not in self._forms:
            self._forms[key] = form_rows(graded_slice_basis(self.algebra(n), i, w, wedge_vars=range(1, n + 1)),
                                         i, n + 1)
        return self._forms[key]

    def chain_complex(self, weight_bound: int | None = None) -> GradedSliceComplex:
        """C(Q_.) per weight slice: every n <= d_max of every weight, with no
        stop at an empty slice, and the per-block ``face_sum`` of each."""
        wb = self.weight_bound if weight_bound is None else weight_bound
        keys = [(n, w) for w in range(wb + 1) for n in range(self.d_max + 1)]
        dims = {(n, w): len(self.form_basis(n, 0, w)) for n, w in keys}
        diffs = {(n, w): face_sum(self, n, 0, w) for n, w in keys if n}
        cx = GradedSliceComplex(self.ring, 0, self.d_max, {k: d for k, d in dims.items() if d}, diffs,
                                trusted=(0, self.d_max - 1))
        cx.validate()
        return cx


def face_variable_table(res: FreeSimplicialResolution, n: int, i: int) -> list[tuple[int, int, int] | None]:
    """Monomial f only: entry s reads (target index, unit coefficient,
    power): the image of variable s at level n under face i is coeff *
    (var target)^power, or None when it dies.  Index 0 is x; t_1 falling
    off the left becomes f = c x^d."""
    if not res.graded:
        raise ValueError("monomial face tables need monomial f")
    d = res.pres.degree
    c = res.pres.f_coeffs[-1]
    table: list[tuple[int, int, int] | None] = [(0, 1, 1)]
    for s in range(1, n + 1):
        if s == i == n:
            table.append(None)
        elif s > i:
            table.append((0, c, d) if s == 1 else (s - 1, 1, 1))
        else:
            table.append((s, 1, 1))
    return table


def wedge_face(j: int, k: int) -> np.ndarray:
    """Images of the t-variable indices 1..j under face k at level j,
    indexed by the variable; -1 means the wedge factor dies (t -> f has
    df = 0, or t -> 0)."""
    images = np.full(j + 1, -1, dtype=np.int64)
    for s in range(1, j + 1):
        if s <= k and s != j:
            images[s] = s
        elif s > 1 and not s == k == j:
            images[s] = s - 1
    return images


def face_exponents(res: FreeSimplicialResolution, n: int, i: int, expts: np.ndarray):
    """(mask of the surviving rows, exponent rows in Q_{n-1}, coefficients)
    of the Q_n monomials ``expts`` under face i, from the variable table:
    ``expts`` times a move matrix, a mask for the dying variables, and
    c^k from a power table."""
    table = face_variable_table(res, n, i)
    m = res.ring.modulus
    move = np.zeros((n + 1, n), dtype=np.int64)
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


def face_sum(res: FreeSimplicialResolution, n: int, i: int, w: int) -> SparseMatrix:
    """The alternating face sum Omega^i(Q_n) -> Omega^i(Q_{n-1}) on the
    weight-w slices of ``form_basis``, one face at a time: the exponents
    move by ``face_exponents`` and the wedge indices by ``face_targets``."""
    src = res.form_basis(n, i, w)
    rows, images, vals = [], [], []
    for k in range(n + 1):
        targets = res.face_targets(n)[k]
        mapped = np.where(targets > 0, targets, -1)[src[:, :i]]
        alive, e2, coeff = face_exponents(res, n, k, src[:, i:])
        keep = alive & (mapped > 0).all(axis=1) & (np.diff(mapped, axis=1) > 0).all(axis=1)
        rows.append(np.flatnonzero(keep))
        images.append(np.hstack([mapped[keep], e2[keep]]))
        vals.append(-coeff[keep] if k % 2 else coeff[keep])
    tgt = res.form_basis(n - 1, i, w)
    return nondegenerate_matrix(rows, images, vals, (len(src), len(tgt)), tgt, i, res.ring.modulus)


def exterior_derivative(res: FreeSimplicialResolution, n: int, i: int, w: int) -> SparseMatrix:
    """The exterior derivative Omega^i(Q_n) -> Omega^{i+1}(Q_n) relative to
    k[x] on the weight-w slices of ``form_basis``, one d t_s at a time."""
    src = res.form_basis(n, i, w)
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
    tgt = res.form_basis(n, i + 1, w)
    return nondegenerate_matrix(rows, images, vals, (len(src), len(tgt)), tgt, i + 1, res.ring.modulus)


def face_monomial(res: FreeSimplicialResolution, n: int, i: int, expts: tuple[int, ...]):
    """Image of a Q_n monomial under face i: (coefficient, exponents in
    Q_{n-1}) or None; single-monomial because f is a monomial."""
    table = face_variable_table(res, n, i)
    out = [0] * n  # Q_{n-1} has n variables (x, t_1..t_{n-1})
    coeff = 1
    m = res.ring.modulus
    for s, k in enumerate(expts):
        if k == 0:
            continue
        entry = table[s]
        if entry is None:
            return None
        tgt, c, power = entry
        if c != 1:
            coeff = (coeff * pow(c, k, m)) % m
        out[tgt] += k * power
    return coeff, tuple(out)


def q_face_matrix(res: FreeSimplicialResolution, n: int, i: int, w: int) -> np.ndarray:
    src = [tuple(e) for e in res.form_basis(n, 0, w).tolist()]
    tgt = [tuple(e) for e in res.form_basis(n - 1, 0, w).tolist()]
    tindex = {e: k for k, e in enumerate(tgt)}
    out = mzeros(len(src), len(tgt))
    if res.graded:
        for a, e in enumerate(src):
            hit = face_monomial(res, n, i, e)
            if hit is not None:
                c, e2 = hit
                if e2 in tindex:
                    out[a, tindex[e2]] = c % res.ring.modulus
                else:
                    assert is_degenerate(e2), (n, i, e, e2)
        return out
    phi = face(res, n, i)
    for a, e in enumerate(src):
        img = phi(Poly(res.algebra(n), {e: 1}))
        for e2, c in img.terms.items():
            if e2 in tindex:
                out[a, tindex[e2]] = c
            else:
                assert is_degenerate(e2), (n, i, e, e2)
    return out


def chain_complex(res: FreeSimplicialResolution, weight_bound: int | None = None):
    """(dims, diffs) of C(Q_.) per weight slice, every differential dense."""
    wb = res.weight_bound if weight_bound is None else weight_bound
    dims = {}
    diffs = {}
    for w in range(wb + 1):
        for n in range(res.d_max + 1):
            dims[(n, w)] = len(res.form_basis(n, 0, w))
        for n in range(1, res.d_max + 1):
            d = mzeros(dims[(n, w)], dims[(n - 1, w)])
            for i in range(n + 1):
                sign = -1 if i % 2 else 1
                d = d + sign * q_face_matrix(res, n, i, w)
            diffs[(n, w)] = d % res.ring.modulus
    return dims, diffs


def assert_diffs_equal(cx, dims: dict, diffs: dict, degrees, weights) -> None:
    """``cx.diff(n, w)`` equals the dense ``diffs`` (a zero matrix where a
    key is missing) on every slice, and ``cx`` has the same nonzero dims."""
    assert cx.dims == {k: v for k, v in dims.items() if v}
    for n in degrees:
        for w in weights:
            want = diffs.get((n, w))
            if want is None:
                want = mzeros(dims.get((n, w), 0), dims.get((n - 1, w), 0))
            got = cx.diff(n, w)
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape, (n, w)
            assert np.array_equal(got, want), (n, w)


def cotangent_slots(res: FreeSimplicialResolution, n: int) -> list[tuple[int, int]]:
    """Basis slots (e, s) of B (x) Omega^1(Q_n): coefficient x^e with
    e < deg f; s = 0 encodes dx (hypersurface flavor only), s >= 1
    encodes dt_s."""
    d = res.pres.degree
    srange = range(0, n + 1) if res.relative == "coefficients" else range(1, n + 1)
    return [(e, s) for s in srange for e in range(d)]


def face_slot_image(res: FreeSimplicialResolution, n: int, i: int, s: int):
    """Differential-slot image under face i at level n: (slot, poly
    multiplier coefficients) or (None, None) when it dies."""
    if s == 0:
        return 0, [1]
    if s == i == n:
        return None, None
    s2 = s if s <= i else s - 1
    if s2 == 0:
        if res.relative == "base":
            return None, None  # df = 0 relative to k[x]
        return 0, res.pres.target.fprime()  # dt -> df = f'(x) dx
    return s2, [1]


def cotangent_face_matrix(res: FreeSimplicialResolution, n: int, i: int) -> np.ndarray:
    src = cotangent_slots(res, n)
    tgt = cotangent_slots(res, n - 1)
    tindex = {t: k for k, t in enumerate(tgt)}
    out = mzeros(len(src), len(tgt))
    for a, (e, s) in enumerate(src):
        slot, mult = face_slot_image(res, n, i, s)
        if slot is None:
            continue
        coeffs = [0] * e + [c for c in mult]
        red = rem(coeffs, res.pres.f_coeffs, res.ring.modulus)
        for e2, c in enumerate(red):
            if c:
                out[a, tindex[(e2, slot)]] = (out[a, tindex[(e2, slot)]] + c) % res.ring.modulus
    return out


def cotangent_complex(res: FreeSimplicialResolution) -> GradedSliceComplex:
    """C(B (x) Omega^1_{Q_./rel}) as a slice complex, from dense face
    matrices.  Graded flavor: slot (e, s >= 1) has weight e + deg f.
    Hypersurface flavor: everything lives in one slice (weight 0)."""
    d = res.pres.degree
    graded_weights = res.relative == "base"

    def slot_weight(slot):
        e, s = slot
        return e + d if graded_weights else 0

    dims = {}
    diffs = {}
    for n in range(res.d_max + 1):
        src = cotangent_slots(res, n)
        by_w: dict[int, list[int]] = {}
        for idx, slot in enumerate(src):
            by_w.setdefault(slot_weight(slot), []).append(idx)
        for w, idxs in by_w.items():
            dims[(n, w)] = len(idxs)
        if n == 0:
            continue
        tgt = cotangent_slots(res, n - 1)
        full = mzeros(len(src), len(tgt))
        for i in range(n + 1):
            sign = -1 if i % 2 else 1
            full = full + sign * cotangent_face_matrix(res, n, i)
        full %= res.ring.modulus
        tgt_by_w: dict[int, list[int]] = {}
        for idx, slot in enumerate(tgt):
            tgt_by_w.setdefault(slot_weight(slot), []).append(idx)
        for w, idxs in by_w.items():
            cols = tgt_by_w.get(w, [])
            other = [k for k in range(len(tgt)) if k not in cols]
            if other and full[np.ix_(idxs, other)].any():
                raise AssertionError("cotangent differential is not weight-preserving")
            diffs[(n, w)] = full[np.ix_(idxs, cols)] if cols else mzeros(len(idxs), 0)
    cx = GradedSliceComplex(res.ring, 0, res.d_max, dims, diffs, trusted=(0, res.d_max - 2))
    cx.validate()
    return cx


def poly_to_string(coeffs) -> str:
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
