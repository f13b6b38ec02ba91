"""Simplex-category combinatorics and the simplicial-module kernel.

A simplicial module stores its faces per degree and weight slice as
``exactlin.SparseMatrix`` triples, as the chain complexes of ``complexes``
store their differentials; its degeneracies are triples too, and the Kan
transform and the diagonal build each one only when it is first read.  The
identities are checked on the triples; dense matrices are made on request
(``face``, ``degen``).  The action of an arbitrary monotone map is derived
from its epi-mono factorization into generators.  The normalized complex
takes kernels of the first n faces, handed to ``left_kernel`` as triples,
with differential (-1)^n d_n.

There is one Kan operator.  The double Kan transform of a double complex
sums D_{p,q} over pairs of monotone surjections [m] ->> [p], [n] ->> [q];
a face or degeneracy moves each summand to at most one summand, by the
identity when the injective factor is trivial and by the signed
differential when it is the last face (``kan_block``, read through the
memoized ``_kan_plan``).  The Kan transform K(C) is the row q = 0 of the
double Kan transform of C, and the diagonal composes the two directions
block by block.  With these conventions the roundtrip normalized(kan(C))
is the identity on the nose, degreewise and on differentials.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable

import numpy as np

from .complexes import (
    DoubleComplex,
    GradedSliceComplex,
    _slice_maps,
)
from .exactlin import (
    ModRing,
    SparseMatrix,
    as_sparse,
    express_in_basis,
    howell_form,
    left_kernel,
    midentity,
    minimal_generators,
    mmul,
    mzeros,
    sparse_product,
)

__all__ = [
    "MonotoneMap",
    "epi_mono_factorize",
    "monotone_surjections",
    "SimplicialModule",
    "BisimplicialModule",
    "normalized_complex",
    "unnormalized_complex",
    "kan_transform",
    "kan_block",
    "diagonal",
    "double_kan",
    "shuffle_product",
    "shuffles",
    "complexes_equal",
]


@dataclass(frozen=True)
class MonotoneMap:
    """Nondecreasing map [m] -> [n]; ``values`` has length m+1."""

    source: int
    target: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.source + 1:
            raise ValueError("value list length must be source+1")
        if any(v < 0 or v > self.target for v in self.values):
            raise ValueError("values out of range")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be nondecreasing")

    def __call__(self, i: int) -> int:
        return self.values[i]

    def compose(self, other: "MonotoneMap") -> "MonotoneMap":
        """self o other (apply ``other`` first)."""
        if other.target != self.source:
            raise ValueError("maps not composable")
        return MonotoneMap(other.source, self.target, tuple(self.values[v] for v in other.values))

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and self.values == tuple(range(self.source + 1))

    @staticmethod
    def identity(n: int) -> "MonotoneMap":
        return MonotoneMap(n, n, tuple(range(n + 1)))

    @staticmethod
    def face(n: int, i: int) -> "MonotoneMap":
        """The injection [n-1] -> [n] whose image avoids i."""
        if not 0 <= i <= n:
            raise ValueError("face index out of range")
        return MonotoneMap(n - 1, n, tuple(v for v in range(n + 1) if v != i))

    @staticmethod
    def degeneracy(n: int, i: int) -> "MonotoneMap":
        """The surjection [n+1] -> [n] hitting i twice."""
        if not 0 <= i <= n:
            raise ValueError("degeneracy index out of range")
        return MonotoneMap(n + 1, n, tuple(v if v <= i else v - 1 for v in range(n + 2)))


def epi_mono_factorize(alpha: MonotoneMap) -> tuple[MonotoneMap, MonotoneMap]:
    """Unique factorization alpha = mono o epi."""
    image = sorted(set(alpha.values))
    mono = MonotoneMap(len(image) - 1, alpha.target, tuple(image))
    lookup = {v: k for k, v in enumerate(image)}
    epi = MonotoneMap(alpha.source, len(image) - 1, tuple(lookup[v] for v in alpha.values))
    return epi, mono


def generator_decomposition(alpha: MonotoneMap) -> list[tuple[str, int, int]]:
    """alpha as a composition of face/degeneracy generators.

    Returns [(kind, level, index), ...] in outermost-first order, so a
    contravariant functor applies the corresponding operators in list
    order.  ``level`` is the target simplicial degree of the generator's
    operator: for a face entry ("face", n, i) the operator is
    d_i: X_n -> X_{n-1}; for ("degen", n, i) it is s_i: X_n -> X_{n+1}.
    """
    epi, mono = epi_mono_factorize(alpha)
    gens: list[tuple[str, int, int]] = []
    # mono = face(b_1) o face(b_2) o ... with b_1 > b_2 > ... the missed values
    missed = sorted(set(range(alpha.target + 1)) - set(mono.values), reverse=True)
    level = alpha.target
    for b in missed:
        gens.append(("face", level, b))
        level -= 1
    # epi = degen(a_1) o degen(a_2) o ... with a_1 < a_2 < ... the doubled spots
    doubles = [i for i in range(epi.source) if epi.values[i] == epi.values[i + 1]]
    for a in doubles:
        gens.append(("degen", level, a))
        level += 1
    # verify by recomposition (innermost generator applied first)
    out = MonotoneMap.identity(alpha.source)
    for kind, n, i in reversed(gens):
        g = MonotoneMap.face(n, i) if kind == "face" else MonotoneMap.degeneracy(n, i)
        out = g.compose(out)
    if out.values != alpha.values or out.target != alpha.target:
        raise AssertionError(f"generator decomposition failed for {alpha}")
    return gens


@lru_cache(maxsize=None)
def monotone_surjections(n: int, p: int) -> tuple[MonotoneMap, ...]:
    """All monotone surjections [n] ->> [p], deterministic order."""
    if p > n or p < 0:
        return ()
    out = []
    for steps in itertools.combinations(range(1, n + 1), p):
        vals = [0]
        for i in range(1, n + 1):
            vals.append(vals[-1] + (1 if i in steps else 0))
        out.append(MonotoneMap(n, p, tuple(vals)))
    return tuple(out)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class OnRequest(Mapping):
    """A read-only mapping whose keys are fixed up front and whose value at a
    key is ``build(*key)``, made on the first read of that key and kept."""

    def __init__(self, keys: Iterable, build: Callable):
        self._keys = dict.fromkeys(keys)
        self._build = build
        self._built: dict = {}

    def __getitem__(self, key):
        if key not in self._built:
            if key not in self._keys:
                raise KeyError(key)
            self._built[key] = self._build(*key)
        return self._built[key]

    def __contains__(self, key) -> bool:
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


@dataclass
class SimplicialModule:
    """Degreewise weight-graded free modules with face and degeneracy maps.

    ``faces[(n, i, w)]`` is d_i: X_{n,w} -> X_{n-1,w} and ``degens[(n, i,
    w)]`` is s_i: X_{n,w} -> X_{n+1,w}, each a canonical
    :class:`SparseMatrix`.  The constructor also takes dense matrices and
    triples in any form, checks their shapes against ``dims`` and keeps the
    nonzero maps; a ``degens`` that is an :class:`OnRequest` mapping is kept
    as it is, so each degeneracy is built when it is first read.  ``face``
    and ``degen`` build the dense, read-only matrix on request.
    """

    ring: ModRing
    d_max: int
    dims: dict  # (n, w) -> int
    faces: dict  # (n, i, w) -> SparseMatrix of X_{n,w} -> X_{n-1,w}
    degens: Mapping  # (n, i, w) -> SparseMatrix of X_{n,w} -> X_{n+1,w}
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.ring.modulus
        self.dims = {k: v for k, v in self.dims.items() if v}
        self.faces = _slice_maps(self.faces, lambda n, i, w: (self.dim(n, w), self.dim(n - 1, w)), m)
        if not isinstance(self.degens, OnRequest):
            self.degens = _slice_maps(self.degens, lambda n, i, w: (self.dim(n, w), self.dim(n + 1, w)), m)

    def dim(self, n: int, w: int) -> int:
        return self.dims.get((n, w), 0)

    def weights(self) -> list[int]:
        return sorted({w for (_, w) in self.dims})

    def face(self, n: int, i: int, w: int) -> np.ndarray:
        return _read_only(self._face(n, i, w).dense())

    def degen(self, n: int, i: int, w: int) -> np.ndarray:
        return _read_only(self._degen(n, i, w).dense())

    def _face(self, n: int, i: int, w: int) -> SparseMatrix:
        return self.faces.get((n, i, w)) or SparseMatrix(shape=(self.dim(n, w), self.dim(n - 1, w)))

    def _degen(self, n: int, i: int, w: int) -> SparseMatrix:
        return self.degens.get((n, i, w)) or SparseMatrix(shape=(self.dim(n, w), self.dim(n + 1, w)))

    def validate(self) -> None:
        """Assert all five simplicial identity families on every slice, by
        sparse products."""
        m = self.ring.modulus
        face, degen = self._face, self._degen
        for w in self.weights():
            for n in range(self.d_max + 1):
                # faces of faces
                for j in range(n + 1):
                    for i in range(j):
                        if n >= 2:
                            lhs = sparse_product(face(n, j, w), face(n - 1, i, w), m)
                            rhs = sparse_product(face(n, i, w), face(n - 1, j - 1, w), m)
                            if lhs != rhs:
                                raise ValueError(f"face identity fails at n={n}, i={i}, j={j}, w={w}")
                if n + 2 <= self.d_max:
                    for j in range(n + 1):
                        for i in range(j + 1):
                            lhs = sparse_product(degen(n, j, w), degen(n + 1, i, w), m)
                            rhs = sparse_product(degen(n, i, w), degen(n + 1, j + 1, w), m)
                            if lhs != rhs:
                                raise ValueError(f"degeneracy identity fails at n={n}, i={i}, j={j}, w={w}")
                if n + 1 <= self.d_max:
                    identity = as_sparse(midentity(self.dim(n, w)), m)
                    for j in range(n + 1):
                        for i in range(n + 2):
                            lhs = sparse_product(degen(n, j, w), face(n + 1, i, w), m)
                            if i == j or i == j + 1:
                                rhs = identity
                            elif i < j:
                                rhs = sparse_product(face(n, i, w), degen(n - 1, j - 1, w), m)
                            else:
                                rhs = sparse_product(face(n, i - 1, w), degen(n - 1, j, w), m)
                            if lhs != rhs:
                                raise ValueError(f"mixed identity fails at n={n}, i={i}, j={j}, w={w}")

    def action(self, alpha: MonotoneMap, w: int) -> np.ndarray:
        """Matrix of X(alpha): X_{alpha.target} -> X_{alpha.source}."""
        if alpha.target > self.d_max or alpha.source > self.d_max:
            raise ValueError("monotone map outside the degree window")
        mat = midentity(self.dim(alpha.target, w))
        for kind, n, i in generator_decomposition(alpha):
            step = self.face(n, i, w) if kind == "face" else self.degen(n, i, w)
            mat = mmul(mat, step, self.ring)
        return mat

    def augmentation_rows(self, eps0: np.ndarray, w: int) -> list[np.ndarray]:
        """Extend eps_0 to all degrees; checks eps0 d_0 = eps0 d_1 and
        independence of the choice of [0] -> [n]."""
        if self.d_max >= 1:
            a = mmul(self.face(1, 0, w), eps0, self.ring)
            b = mmul(self.face(1, 1, w), eps0, self.ring)
            if (a != b).any():
                raise ValueError("eps0 does not satisfy the augmentation criterion")
        out = []
        for n in range(self.d_max + 1):
            choices = []
            for k in range(n + 1):
                alpha = MonotoneMap(0, n, (k,))
                choices.append(mmul(self.action(alpha, w), eps0, self.ring))
            for c in choices[1:]:
                if (c != choices[0]).any():
                    raise ValueError(f"augmentation depends on the [0]->[{n}] choice")
            out.append(choices[0])
        return out


def unnormalized_complex(x: SimplicialModule) -> GradedSliceComplex:
    """Associated chain complex with d_n = sum (-1)^i d_i."""
    diffs = {}
    for (n, w) in x.dims:
        faces = [(i, x.faces[(n, i, w)]) for i in range(n + 1) if (n, i, w) in x.faces]
        if n and faces:
            # the complex sums the signed triples at repeated positions
            diffs[(n, w)] = SparseMatrix(np.concatenate([f.rows for _, f in faces]),
                                         np.concatenate([f.cols for _, f in faces]),
                                         np.concatenate([-f.vals if i % 2 else f.vals for i, f in faces]),
                                         faces[0][1].shape)
    cx = GradedSliceComplex(x.ring, 0, x.d_max, dict(x.dims), diffs,
                            trusted=(0, max(x.d_max - 1, 0)))
    cx.validate()
    return cx


@dataclass
class NormalizedData:
    """Normalized complex plus the inclusion data into the ambient module."""

    complex: GradedSliceComplex
    basis: dict  # (n, w) -> rows of N X_{n,w} inside X_{n,w}


def normalized_complex(x: SimplicialModule, with_basis: bool = False):
    """N X_n = intersection of ker d_i (i < n), differential (-1)^n d_n.

    Each slice X_{n,w} hands the triples of d_0 ... d_{n-1}, side by side
    (the columns of d_i offset by i * dim X_{n-1,w}), to ``left_kernel`` as
    one :class:`SparseMatrix`; no dense slice is built.  ``left_kernel``
    first drops the rows that a column with a single unit entry forces to
    zero, and most rows go that way: on a Kan transform K(C) it keeps just
    the rows of the summand C_n, which is N K(C)_n.

    When every row of the kernel's Howell basis has leading entry 1 (always
    over F_p, and on every Kan transform), that basis is free and is the
    basis of the slice as it stands.  Otherwise the minimal generators of
    the kernel must span it, or the slice is not free and the input is not
    simplicial; only then do ``minimal_generators`` and the freeness check
    run.  The differential is the image of the basis under (-1)^n d_n,
    taken from the d_n triple, in the basis of the slice below.  When that
    basis has pivots 1, its rows are the unit vectors on the pivot columns,
    so the coordinates are the pivot columns of the image, checked by one
    product; otherwise ``express_in_basis`` solves for them.  An image
    outside the span raises ValueError either way; a slice that is not
    free, or a differential that escapes the lower term, fails naming its
    slice (degree n, weight w).
    """
    ring = x.ring
    m = ring.modulus
    dims = {}
    diffs = {}
    basis: dict = {}
    for w in x.weights():
        below = None  # pivot columns of the basis one degree down, if they are all 1
        for n in range(x.d_max + 1):
            dim = x.dim(n, w)
            if dim == 0:
                basis[(n, w)] = mzeros(0, 0)
                below = None
                continue
            rows = midentity(dim) if n == 0 else left_kernel(_stacked_faces(x, n, w), ring)
            here = _unit_pivots(rows)
            if here is None:
                ker = rows
                rows = minimal_generators(ker, ring)
                # ker is a Howell basis, so the rows span it iff they have it as Howell form
                if not np.array_equal(howell_form(rows, ring), ker):
                    raise AssertionError(f"normalized slice is not free (invalid simplicial input) "
                                         f"at (degree {n}, weight {w})")
            basis[(n, w)] = rows
            if rows.shape[0]:
                dims[(n, w)] = rows.shape[0]
            if n >= 1 and rows.shape[0]:
                # rows @ (-1)^n d_n: each entry of d_n adds a reduced column
                img = mzeros(x.dim(n - 1, w), rows.shape[0])
                d_n = x.faces.get((n, n, w))
                if d_n is not None:
                    np.add.at(img, d_n.cols, (rows[:, d_n.rows] * ((-1) ** n * d_n.vals) % m).T)
                img = img.T % m
                prev = basis[(n - 1, w)]
                if prev.shape[0] and below is not None:
                    coords = img[:, below]
                    if not np.array_equal(mmul(coords, prev, ring), img):
                        raise ValueError("vector not in span of the given basis")
                    diffs[(n, w)] = coords
                elif prev.shape[0]:
                    diffs[(n, w)] = express_in_basis(img, prev, ring)
                elif img.any():
                    raise AssertionError(f"normalized differential escapes the lower term "
                                         f"at (degree {n}, weight {w})")
            below = here
    cx = GradedSliceComplex(ring, 0, x.d_max, dims, diffs, trusted=(0, max(x.d_max - 1, 0)))
    cx.validate()
    if with_basis:
        return NormalizedData(cx, basis)
    return cx


def _unit_pivots(rows: np.ndarray) -> np.ndarray | None:
    """The leading column of each row of the Howell basis ``rows`` when
    every leading entry is 1, else None.  Such a basis is free, and a
    Howell form is zero above each pivot 1, so its rows restricted to
    these columns are the identity."""
    lead = (rows != 0).argmax(axis=1)
    return lead if (rows[np.arange(rows.shape[0]), lead] == 1).all() else None


def _stacked_faces(x: SimplicialModule, n: int, w: int) -> SparseMatrix:
    """[d_0 | d_1 | ... | d_{n-1}] on X_{n,w}, from the stored triples.

    The faces are canonical and side by side, so their positions are
    distinct, and a stable sort on the rows makes the whole row-major."""
    cols = x.dim(n - 1, w)
    faces = [x._face(n, i, w) for i in range(n)]
    rows = np.concatenate([f.rows for f in faces])
    order = rows.argsort(kind="stable")
    return SparseMatrix(rows[order], np.concatenate([f.cols + i * cols for i, f in enumerate(faces)])[order],
                        np.concatenate([f.vals for f in faces])[order], (x.dim(n, w), n * cols))


# ---------------------------------------------------------------------------
# Kan transform


def kan_block(eta: MonotoneMap, alpha: MonotoneMap) -> tuple[tuple[int, ...], str] | None:
    """Kan block rule for summand eta: [n] ->> [p] under a monotone alpha.

    Factor eta o alpha = mono o eta'.  The block is the identity into
    summand eta' when mono is the identity ("id"), (-1)^p d: C_p -> C_{p-1}
    into summand eta' when mono is the last face [p-1] -> [p] ("d"), and
    zero otherwise (None).  Returns (eta'.values, kind) or None.
    """
    eta2, mono = epi_mono_factorize(eta.compose(alpha))
    if mono.is_identity:
        return eta2.values, "id"
    if mono.source == eta.target - 1 and mono.values == tuple(range(eta.target)):
        return eta2.values, "d"
    return None


@lru_cache(maxsize=None)
def _kan_plan(n: int, i: int, face: bool) -> MappingProxyType:
    """The ``kan_block`` rule of alpha = d_i or s_i on the summands of K_n,
    for any input: eta.values -> (eta'.values, kind) for every surjection
    eta: [n] ->> [p] whose block is not zero.  Read-only, as it is shared."""
    alpha = MonotoneMap.face(n, i) if face else MonotoneMap.degeneracy(n, i)
    plan = {}
    for p in range(n, -1, -1):
        for eta in monotone_surjections(n, p):
            rule = kan_block(eta, alpha)
            if rule is not None:
                plan[eta.values] = rule
    return MappingProxyType(plan)


def kan_transform(c: GradedSliceComplex, d_max: int | None = None) -> SimplicialModule:
    """Quasi-inverse to the normalized complex: the row q = 0 of the double
    Kan transform of C, with the triples of C as its horizontal blocks.

    K(C)_n sums C_p over monotone surjections [n] ->> [p], and d_i, s_i act
    by the rule of ``kan_block``.  C is validated as that double complex, so
    a C with d∘d != 0 raises ValueError naming the block where it fails.
    The faces are built here, each degeneracy when it is first read.
    """
    if c.n_min < 0:
        raise ValueError("Kan transform needs a complex concentrated in degrees >= 0")
    if d_max is None:
        d_max = c.n_max
    dc = DoubleComplex(c.ring, {(p, 0, w): d for (p, w), d in c.dims.items()},
                       {(p, 0, w): d for (p, w), d in c.diffs.items()}, {})
    row = double_kan(dc, d_max, 0)
    dims = {(n, w): d for (n, _, w), d in row.dims.items()}
    labels = {(n, w): [(eta.values, p) for (eta, _, p, _, _) in row.layout[(n, 0, w)] for _ in range(c.dim(p, w))]
              for (n, w) in dims}
    weights = c.weights()
    faces = {(n, i, w): row._operator(n, 0, i, w, True, "h")
             for w in weights for n in range(1, d_max + 1) for i in range(n + 1)}
    degens = OnRequest(((n, i, w) for w in weights for n in range(d_max) for i in range(n + 1)),
                       lambda n, i, w: row._operator(n, 0, i, w, False, "h"))
    return SimplicialModule(c.ring, d_max, dims, faces, degens, labels)


def complexes_equal(c1: GradedSliceComplex, c2: GradedSliceComplex) -> bool:
    """Literal equality: same slice dimensions and identical matrices."""
    return c1.ring == c2.ring and c1.dims == c2.dims and c1.diffs == c2.diffs


# ---------------------------------------------------------------------------
# bisimplicial modules


@dataclass
class BisimplicialModule:
    """Double Kan transform of a double complex; maps are built on request.

    X_{m,n} sums D_{p,q} over pairs of surjections eta: [m] ->> [p] and
    rho: [n] ->> [q].  ``layout[(m, n, w)]`` lists the summands as
    (eta, rho, p, q, offset), and ``index[(m, n, w)]`` finds an offset by
    (eta.values, rho.values).  A horizontal operator acts on eta and a
    vertical one on rho by the plan ``_kan_plan``, so each summand goes to at
    most one summand, by the identity or by (-1)^p D_h, resp. (-1)^q D_v.  No
    map is stored: ``hface`` and the others assemble it from that rule when
    called.
    """

    dc: DoubleComplex
    p_max: int
    q_max: int
    dims: dict  # (m, n, w) -> int
    layout: dict  # (m, n, w) -> [(eta, rho, p, q, offset)]
    index: dict  # (m, n, w) -> {(eta.values, rho.values): offset}
    _blocks: dict = field(init=False, default_factory=dict, repr=False)  # see _block

    @property
    def ring(self) -> ModRing:
        return self.dc.ring

    def dim(self, p, q, w):
        return self.dims.get((p, q, w), 0)

    def weights(self):
        return sorted({w for (_, _, w) in self.dims})

    def hface(self, p, q, i, w):
        return self._operator(p, q, i, w, True, "h").dense()

    def vface(self, p, q, i, w):
        return self._operator(p, q, i, w, True, "v").dense()

    def hdegen(self, p, q, i, w):
        return self._operator(p, q, i, w, False, "h").dense()

    def vdegen(self, p, q, i, w):
        return self._operator(p, q, i, w, False, "v").dense()

    def _target(self, m, n, w, face: bool, directions: str) -> tuple[int, int, int]:
        step = -1 if face else 1
        return (m + step * ("h" in directions), n + step * ("v" in directions), w)

    def _operator(self, m, n, i, w, face: bool, directions: str) -> SparseMatrix:
        """d_i or s_i on X_{m,n} in the ``directions`` "h", "v" or "hv" (the
        diagonal: vertically, then horizontally) as a canonical triple; zero
        outside the window.

        The plan sends each summand (eta, rho, p, q) to at most one summand,
        rho alone vertically and then eta alone horizontally, so the block is
        I, (-1)^p D_h, (-1)^q D_v or (-1)^q D_v (-1)^p D_h: the product of
        the two maps, block by block, without building either.  Each other
        block is a stored triple moved to its offsets, and the entries of all
        identity blocks are listed together.  Each row lies in one block, so a
        stable sort on the rows makes the result row-major.
        """
        h, v = "h" in directions, "v" in directions
        target = self._target(m, n, w, face, directions)
        shape = (self.dim(m, n, w), self.dim(*target))
        if not (0 <= i <= (m if h else n) and 0 <= target[0] <= self.p_max and 0 <= target[1] <= self.q_max):
            return SparseMatrix(shape=shape)
        plan = _kan_plan(m if h else n, i, face)
        index = self.index.get(target, {})
        parts = []  # the triples of the non-identity blocks, moved to their offsets
        id_rows, id_cols = [], []  # the entries of all identity blocks
        for (eta, rho, p, q, off) in self.layout.get((m, n, w), ()):
            rule_h = plan.get(eta.values) if h else (eta.values, "id")
            rule_v = plan.get(rho.values) if v else (rho.values, "id")
            if rule_h is None or rule_v is None:
                continue
            (eta2, kind_h), (rho2, kind_v) = rule_h, rule_v
            off2 = index.get((eta2, rho2))
            if off2 is None:
                continue
            kind = ("v" if kind_v == "d" else "") + ("h" if kind_h == "d" else "")
            if kind:
                blk = self._block(p, q, w, kind)
                if blk.vals.size:
                    parts.append((blk.rows + off, blk.cols + off2, blk.vals))
            else:
                size = self.dc.dim(p, q, w)
                id_rows.extend(range(off, off + size))
                id_cols.extend(range(off2, off2 + size))
        if id_rows:
            parts.append((np.array(id_rows, dtype=np.int64), np.array(id_cols, dtype=np.int64),
                          np.ones(len(id_rows), dtype=np.int64)))
        if len(parts) < 2:
            return SparseMatrix(*parts[0], shape) if parts else SparseMatrix(shape=shape)
        rows, cols, vals = (np.concatenate(part) for part in zip(*parts))
        if id_rows:
            order = np.argsort(rows, kind="stable")
            rows, cols, vals = rows[order], cols[order], vals[order]
        return SparseMatrix(rows, cols, vals, shape)

    def _block(self, p: int, q: int, w: int, kind: str) -> SparseMatrix:
        """The non-identity block leaving the summands of D_{p,q}, canonical.

        "h" is (-1)^p D_h, "v" is (-1)^q D_v and "vh" is (-1)^q D_v followed
        by (-1)^p D_h from D_{p,q-1}.  Each is computed once per (p, q, w).
        """
        key = (p, q, w, kind)
        blk = self._blocks.get(key)
        if blk is None:
            m = self.ring.modulus
            if kind == "vh":
                blk = sparse_product(self._block(p, q, w, "v"), self._block(p, q - 1, w, "h"), m)
            else:
                stored, sign, target = ((self.dc.horiz, p, (p - 1, q, w)) if kind == "h"
                                        else (self.dc.vert, q, (p, q - 1, w)))
                blk = stored.get((p, q, w), SparseMatrix(shape=(self.dc.dim(p, q, w), self.dc.dim(*target))))
                if sign % 2:
                    blk = blk._replace(vals=m - blk.vals)
            self._blocks[key] = blk
        return blk

    def validate(self) -> None:
        """Row/column simplicial identities plus horizontal-vertical commutation."""
        r = self.ring
        op = self._operator
        for w in self.weights():
            for q in range(self.q_max + 1):
                row = SimplicialModule(
                    r,
                    self.p_max,
                    {(p, 0): self.dim(p, q, w) for p in range(self.p_max + 1)},
                    {(p, i, 0): op(p, q, i, w, True, "h") for p in range(1, self.p_max + 1) for i in range(p + 1)},
                    {(p, i, 0): op(p, q, i, w, False, "h") for p in range(self.p_max) for i in range(p + 1)},
                )
                row.validate()
            for p in range(self.p_max + 1):
                col = SimplicialModule(
                    r,
                    self.q_max,
                    {(q, 0): self.dim(p, q, w) for q in range(self.q_max + 1)},
                    {(q, i, 0): op(p, q, i, w, True, "v") for q in range(1, self.q_max + 1) for i in range(q + 1)},
                    {(q, i, 0): op(p, q, i, w, False, "v") for q in range(self.q_max) for i in range(q + 1)},
                )
                col.validate()
            for p in range(1, self.p_max + 1):
                for q in range(1, self.q_max + 1):
                    hf = [op(p, q, i, w, True, "h") for i in range(p + 1)]
                    hf_below = [op(p, q - 1, i, w, True, "h") for i in range(p + 1)]
                    vf = [op(p, q, j, w, True, "v") for j in range(q + 1)]
                    vf_left = [op(p - 1, q, j, w, True, "v") for j in range(q + 1)]
                    for i in range(p + 1):
                        for j in range(q + 1):
                            hv = sparse_product(hf[i], vf_left[j], r.modulus)
                            vh = sparse_product(vf[j], hf_below[i], r.modulus)
                            if hv != vh:
                                raise ValueError(f"h/v faces do not commute at {(p, q, i, j, w)}")


def diagonal(b: BisimplicialModule) -> SimplicialModule:
    """X_n = B_{n,n} with d_i = d_i^h d_i^v and s_i = s_i^h s_i^v.

    Each operator is composed summand by summand from the two Kan rules; no
    face or degeneracy of ``b`` is built.  The faces are built here, each
    degeneracy when it is first read.
    """
    if b.p_max != b.q_max:
        raise ValueError("diagonal needs a square window")
    n_max = b.p_max
    dims = {(n, w): b.dim(n, n, w) for n in range(n_max + 1) for w in b.weights() if b.dim(n, n, w)}
    weights = b.weights()
    faces = {(n, i, w): b._operator(n, n, i, w, True, "hv")
             for w in weights for n in range(1, n_max + 1) for i in range(n + 1)}
    degens = OnRequest(((n, i, w) for w in weights for n in range(n_max) for i in range(n + 1)),
                       lambda n, i, w: b._operator(n, n, i, w, False, "hv"))
    return SimplicialModule(b.ring, n_max, dims, faces, degens)


def double_kan(dc, p_max: int, q_max: int) -> BisimplicialModule:
    """Kan transform in both directions of a double complex with commuting
    differentials: X_{m,n} = sum over pairs of surjections of D_{p,q}.

    Validates ``dc`` and lays out the summands; maps are built on request.
    """
    assert isinstance(dc, DoubleComplex)
    dc.validate()
    dims = {}
    layout = {}
    index = {}
    for w in sorted({w for (_, _, w) in dc.terms}):
        for m in range(p_max + 1):
            for n in range(q_max + 1):
                blocks = []
                off = 0
                for p in range(m, -1, -1):
                    for q in range(n, -1, -1):
                        d = dc.dim(p, q, w)
                        if d == 0:
                            continue
                        for eta in monotone_surjections(m, p):
                            for rho in monotone_surjections(n, q):
                                blocks.append((eta, rho, p, q, off))
                                off += d
                layout[(m, n, w)] = blocks
                index[(m, n, w)] = {(e.values, r.values): o for (e, r, _, _, o) in blocks}
                if off:
                    dims[(m, n, w)] = off
    return BisimplicialModule(dc, p_max, q_max, dims, layout, index)


# ---------------------------------------------------------------------------
# shuffle products


def shuffles(i: int, j: int):
    """(i, j)-shuffles of {0..i+j-1} as (mu, nu, sign); mu has i elements."""
    universe = list(range(i + j))
    for mu in itertools.combinations(universe, i):
        nu = tuple(k for k in universe if k not in mu)
        inversions = sum(1 for a in mu for b in nu if a > b)
        yield mu, nu, (-1) ** inversions


def shuffle_product(x, i: int, y, j: int, algebra_data):
    """Product X_i x X_j -> X_{i+j} of a simplicial algebra.

    ``algebra_data`` provides ``degeneracy_element(n, k, elt)`` applying the
    degeneracy s_k at level n, and elements multiply with ``*``.  In
    degrees (0, 0) this is plain multiplication; otherwise the signed sum
    over (i, j)-shuffles, with the j-element block applied to x and the
    i-element block applied to y.
    """
    if i == 0 and j == 0:
        return x * y
    total = None
    for mu, nu, sign in shuffles(i, j):
        xs = x
        level = i
        for k in nu:  # ascending: valid degeneracy indices at each level
            xs = algebra_data.degeneracy_element(level, k, xs)
            level += 1
        ys = y
        level = j
        for k in mu:
            ys = algebra_data.degeneracy_element(level, k, ys)
            level += 1
        term = xs * ys
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total
