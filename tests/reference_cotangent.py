"""References for ``cotangent.FreeSimplicialResolution.chain_complex``.

Dense differentials: this is how the resolution built its slice
differentials before they were assembled as triples: one dense matrix per
face, looked up monomial by monomial, summed with alternating signs.  It
returns the dense ``dims`` and ``diffs`` the old code handed to
``GradedSliceComplex``, and ``assert_diffs_equal`` requires ``diff()`` of
the library's complex to equal such matrices in shape, dtype and every
entry.  It runs on the library's nondegenerate bases, and drops a face
image that is not among them only after checking that it is degenerate.

``UnnormalizedResolution`` is the resolution as it was before its slices
were normalized: the same builder on every monomial of each slice, the
degenerate ones included, so the complex is C(Q_.) and not C(Q_.)/D.

``poly_to_string`` prints constant-first coefficients as the polynomial
strings ``cotangent.parse_poly_string`` reads, as the presentations'
JSON form did.
"""

from __future__ import annotations

import numpy as np

from derhamkit.cotangent import FreeSimplicialResolution
from derhamkit.exactlin import mzeros

from reference_polyalg import Poly, face


def is_degenerate(expts: tuple[int, ...], wedge: tuple[int, ...] = ()) -> bool:
    """Some t_s of Q_n (exponent index s >= 1) occurs neither in the
    exponent nor under d, so the element lies in the image of a degeneracy."""
    return any(k == 0 and s not in wedge for s, k in enumerate(expts) if s >= 1)


class UnnormalizedResolution(FreeSimplicialResolution):
    """C(Q_.) with every monomial of each slice, degenerate ones included."""

    def q_slice(self, n: int, w: int):
        return self.algebra(n).monomials_of_weight(w)


def face_monomial(res: FreeSimplicialResolution, n: int, i: int, expts: tuple[int, ...]):
    """Image of a Q_n monomial under face i: (coefficient, exponents in
    Q_{n-1}) or None; single-monomial because f is a monomial."""
    table = res.face_variable_table(n, i)
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
    src = [tuple(e) for e in res.q_slice(n, w).tolist()]
    tgt = [tuple(e) for e in res.q_slice(n - 1, w).tolist()]
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
            dims[(n, w)] = len(res.q_slice(n, w))
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
