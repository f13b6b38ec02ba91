"""Truncated Witt vectors, tilts of cyclotomic quotient rings, and theta.

The structure polynomials are solved exactly from the ghost equations
w_i = sum p^j z_j^{p^(i-j)} over the rationals and verified integral and
ghost-compatible symbolically.  Witt arithmetic codes each base element
by its position in ``base.enumerate()`` and evaluates the structure
polynomials and the ghost map by indexing the base ring's int32 ``tables``
of the codes of sums and products, on single codes or on whole arrays.
The base rings and targets are ``upoly.Monogenic`` algebras (plain Z/p^n,
F_q, O and O/p), whose ``tables`` are built in numpy from the digit
vectors of all elements; a ``TiltRing`` relabels the tables of O/p.  Base rings
above 2^12 elements are not coded (ValueError), and Witt carriers above
2^16 elements are not enumerated (ValueError).

``is_ring_map`` checks a map on W = W_n(R), R of characteristic p, on the
additive generators S = {V^i[b] : i < n, b a unit digit vector of R}: it
is additive iff theta(s + w) = theta(s) + theta(w) for every s in S and
w in W, and then multiplicative iff theta(s t) = theta(s) theta(t) on the
pairs of S, and unital.  The |W| sums s + w of each generator are
evaluated on code arrays at once, once per Witt ring; their closure from
0 must reach all of W, so that S generating W is checked on every run.
The target's arithmetic runs on digit rows (sums mod p^n, products by
``Monogenic.mul_rows``), so targets need no tables.

Finite-depth tilts are compatible p-power sequences in O/p for
O = Z[zeta_{p^m}]/(p^n); they are not perfect rings, and every report
carries the (p, m, n, k) parameters.
theta sends (a_0..a_{n-1}) to sum p^i sharp(a_i shifted down i times),
where sharp raises an arbitrary lift of the deepest entry to its p-power;
the result is lift-independent for k >= n.  ``theta_digits`` evaluates it
on whole arrays of Witt vectors: the term of each coordinate is computed
once for every element of O/p, as digit rows of O multiplied by
``Monogenic.mul_rows``, so O needs no tables and theta has no size
bound.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .exactlin import ModRing, is_prime
from .upoly import MAX_CODED, Monogenic, cyclotomic_polynomial_ppower

__all__ = [
    "StructurePolynomialTable",
    "structure_polynomials",
    "WittRing",
    "WittVector",
    "lift_homomorphism",
    "is_ring_map",
    "CyclotomicModel",
    "TiltRing",
    "tilt_ring",
    "theta_digits",
    "theta_map",
    "ker_theta_report",
]

# Largest Witt carrier W that is enumerated: theta holds int64 arrays of |W|
# entries, one per digit of O, and the ring-map check int32 arrays of |S| |W|
# entries, for |S| = n log_p |R| additive generators.
MAX_CARRIER = 2 ** 16


# ---------------------------------------------------------------------------
# exact multivariate polynomials over Q (ghost solving only)


def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
        if out[e] == 0:
            del out[e]
    return out


def _pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
            if out[e] == 0:
                del out[e]
    return out


def _pscale(c, a):
    return {e: c * v for e, v in a.items() if c * v != 0}


def _ppow(a, k):
    nv = len(next(iter(a))) if a else 0
    out = {(0,) * nv: 1}
    for _ in range(k):
        out = _pmul(out, a)
    return out


def _pvar(idx, nvars):
    e = [0] * nvars
    e[idx] = 1
    return {tuple(e): 1}


def _ghost(coords, p, i):
    """w_i = sum_{j<=i} p^j z_j^{p^(i-j)} for symbolic coordinates."""
    out = {}
    for j in range(i + 1):
        out = _padd(out, _pscale(p ** j, _ppow(coords[j], p ** (i - j))))
    return out


class StructurePolynomialTable:
    """Integral addition/multiplication/negation polynomials for W_n."""

    def __init__(self, p: int, n: int, add: tuple, mul: tuple, neg: tuple):
        self.p = p
        self.n = n
        self.add = add  # S_0..S_{n-1} in x_0..x_{n-1}, y_0..y_{n-1}
        self.mul = mul  # P_0..P_{n-1}
        self.neg = neg  # N_0..N_{n-1} in x_0..x_{n-1}


@lru_cache(maxsize=None)
def structure_polynomials(p: int, n: int) -> StructurePolynomialTable:
    """Solve the ghost equations over Q and certify integrality plus the
    ghost identities w_i(S) = w_i(x) + w_i(y), w_i(P) = w_i(x) w_i(y)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= n <= 4:
        raise ValueError("table sizes support 1 <= n <= 4")
    nv = 2 * n
    xs = [_pvar(i, nv) for i in range(n)]
    ys = [_pvar(n + i, nv) for i in range(n)]

    def solve(target_of_i):
        """z_0..z_{n-1} with w_i(z) = target_of_i(i), checked integral."""
        polys = []
        for i in range(n):
            acc = target_of_i(i)
            for j in range(i):
                acc = _padd(acc, _pscale(-(p ** j), _ppow(polys[j], p ** (i - j))))
            poly = {}
            for e, c in acc.items():
                q = Fraction(c, p ** i)
                if q.denominator != 1:
                    raise AssertionError("non-integral structure polynomial (internal error)")
                poly[e] = int(q)
            polys.append(poly)
        return tuple(polys)

    xs1 = [_pvar(i, n) for i in range(n)]
    targets = {
        "addition": lambda i: _padd(_ghost(xs, p, i), _ghost(ys, p, i)),
        "multiplication": lambda i: _pmul(_ghost(xs, p, i), _ghost(ys, p, i)),
        "negation": lambda i: _pscale(-1, _ghost(xs1, p, i)),
    }
    add, mul, neg = (solve(target) for target in targets.values())

    # independent symbolic verification of the ghost identities
    for (name, target), polys in zip(targets.items(), (add, mul, neg)):
        for i in range(n):
            if _ghost(polys, p, i) != target(i):
                raise AssertionError(f"{name} ghost identity failed")
    return StructurePolynomialTable(p, n, add, mul, neg)


# ---------------------------------------------------------------------------
# Witt vectors over a base ring


class WittRing:
    def __init__(self, p: int, length: int, base: object):
        self.p = p
        self.length = length
        self.base = base  # Monogenic or TiltRing
        structure_polynomials(p, length)

    def __eq__(self, other) -> bool:
        """The same p and length over the very same base object."""
        return isinstance(other, WittRing) and (self.p, self.length) == (other.p, other.length) and self.base is other.base

    def table(self) -> StructurePolynomialTable:
        return structure_polynomials(self.p, self.length)

    def vector(self, coords) -> "WittVector":
        return WittVector(self, tuple(coords))

    @property
    def zero(self):
        return self.vector((self.base.zero,) * self.length)

    @property
    def one(self):
        return self.vector((self.base.one,) + (self.base.zero,) * (self.length - 1))

    def teichmuller(self, x) -> "WittVector":
        return self.vector((x,) + (self.base.zero,) * (self.length - 1))

    def enumerate(self):
        for coords in itertools.product(self.base.enumerate(), repeat=self.length):
            yield self.vector(coords)

    @property
    def coding(self):
        """(elements, code, add, mul) of the base ring: its ``tables``."""
        return self.base.tables

    def eval_poly(self, poly, values):
        """Evaluate an integer-coefficient structure polynomial on base codes:
        ``values`` holds one code, or one array of codes, per variable."""
        _, code, add, mul = self.coding
        acc = code[self.base.zero]
        for expts, coeff in poly.items():
            term = code[self.base.scale(coeff, self.base.one)]
            for idx, k in enumerate(expts):
                for _ in range(k):
                    term = mul[term, values[idx]]
            acc = add[acc, term]
        return acc

    def ghost(self, values):
        """Ghost components w_i = sum_{j<=i} p^j z_j^(p^(i-j)) of the Witt
        vectors with coordinate codes ``values`` (one code, or one array of
        codes, per coordinate), as base codes: powers and sums are lookups
        in the base ring's tables, and p^j enters as the code of
        ``base.scale(p^j, one)``."""
        _, code, add, mul = self.coding
        out = [code[self.base.zero]] * self.length
        for j, power in enumerate(values):
            scale = code[self.base.scale(self.p ** j, self.base.one)]
            for i in range(j, self.length):  # power is z_j^(p^(i-j))
                if i > j:
                    root = power
                    for _ in range(self.p - 1):
                        power = mul[power, root]
                out[i] = add[out[i], mul[scale, power]]
        return out

    @property
    def size(self) -> int:
        return self.base.size ** self.length

    def coordinates(self, positions) -> tuple:
        """The base code of coordinate i of the Witt vectors at ``positions``
        of ``enumerate()`` (the first coordinate varies slowest)."""
        return np.unravel_index(positions, (self.base.size,) * self.length)

    def coordinate_codes(self) -> tuple:
        """``coordinates`` of every element, in ``enumerate()`` order.
        ValueError above 2^16 elements, before any array is made."""
        if self.size > MAX_CARRIER:
            raise ValueError(f"W_{self.length} carrier of {self.size} elements exceeds the "
                             "enumeration bound 2^16")
        return self.coordinates(np.arange(self.size))

    def position(self, w: "WittVector") -> int:
        """The position of ``w`` in ``enumerate()``."""
        _, code, _, _ = self.coding
        return int(np.ravel_multi_index([code[c] for c in w.coords], (self.base.size,) * self.length))

    def positions(self, polys, values):
        """Positions in ``enumerate()`` of the Witt vectors whose coordinate i
        is ``eval_poly(polys[i], values)``: one, or an int64 array of them."""
        out = 0
        for s in polys:
            out = out * self.base.size + np.asarray(self.eval_poly(s, values), dtype=np.int64)
        return out

    def additive_generators(self) -> np.ndarray:
        """Positions of S = {V^i[b] : i < n, b a unit digit vector}: the
        vector with b in coordinate i and 0 elsewhere.  For a base of
        characteristic p whose digits are over F_p, S generates W_n
        additively (V^i W_(n-i) / V^(i+1) W_(n-i-1) is the base as a group);
        ``is_ring_map`` checks that it does."""
        size = self.base.size
        units = []  # the codes of the unit digit vectors, first digit first
        while self.p ** len(units) < size:
            units.insert(0, self.p ** len(units))
        return np.array([u * size ** (self.length - 1 - i) for i in range(self.length) for u in units],
                        dtype=np.int64)

    @cached_property
    def generator_sums(self) -> tuple:
        """(S, sums, spans): ``additive_generators()``; int32 rows of the
        positions of s + w for each s in S and every w (below 2^16), each
        evaluated on code arrays at once; and whether the closure of 0 under
        these sums is all of W.  They depend on W alone, so every map that
        ``is_ring_map`` checks on W reads the same ones."""
        gens = self.additive_generators()
        codes = list(self.coordinate_codes())
        sums = np.empty((gens.size, self.size), dtype=np.int32)
        reached = np.zeros(self.size, dtype=bool)
        reached[self.position(self.zero)] = True
        for row, *coords in zip(sums, *self.coordinates(gens)):
            row[:] = self.positions(self.table().add, coords + codes)
            while not reached[row[reached]].all():  # close under + s: the subgroup grows by <s>
                reached[row[reached]] = True
        return gens, sums, bool(reached.all())


class WittVector:
    def __init__(self, ring: WittRing, coords: tuple):
        self.ring = ring
        self.coords = coords

    def _apply(self, polys, *operands):
        elems, code, _, _ = self.ring.coding
        values = [code[c] for w in operands for c in w.coords]
        return WittVector(self.ring, tuple(elems[self.ring.eval_poly(s, values)] for s in polys))

    def __add__(self, other):
        self._check(other)
        return self._apply(self.ring.table().add, self, other)

    def __mul__(self, other):
        self._check(other)
        return self._apply(self.ring.table().mul, self, other)

    def __neg__(self):
        return self._apply(self.ring.table().neg, self)

    def __sub__(self, other):
        return self + (-other)

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("Witt vectors over different rings")

    def ghost(self) -> tuple:
        elems, code, _, _ = self.ring.coding
        return tuple(elems[g] for g in self.ring.ghost([code[c] for c in self.coords]))


def lift_homomorphism(phi, source: Monogenic, witt: WittRing, target: Monogenic,
                      reduction, lifts=None):
    """Lift phi: R -> S/p to the homomorphism W_n(R) -> S for perfect R.

    ``phi`` maps source elements to target-mod-p elements; ``reduction``
    maps target elements to target-mod-p elements; ``lifts`` optionally
    picks lifts (defaults to the coefficientwise lift).  Returns a function
    on Witt vectors; the formula is sum_i p^i tau(Frob^{-i} a_i) with
    tau(r) = lift(phi(r^{p^{-(n-1)}}))^{p^(n-1)}, which stabilizes because
    lifts differing mod p have equal p^j-th powers mod p^(j+1).  Raises
    ValueError when Frobenius is not bijective on R.
    """
    n = witt.length
    p = witt.p
    frob_inv = source.frobenius_inverse_table()

    def inv_frob(a, times):
        for _ in range(times):
            a = frob_inv[a]
        return a

    def default_lift(rbar):
        return tuple(rbar) + (0,) * (target.degree - len(rbar))

    lift = lifts or default_lift

    def tau(r):
        rbar = phi(inv_frob(r, n - 1))
        return target.power(target.element(lift(rbar)), p ** (n - 1))

    def apply(w: WittVector):
        acc = target.zero
        for i in range(n):
            acc = target.add(acc, target.scale(p ** i, tau(inv_frob(w.coords[i], i))))
        return acc

    return apply


# ---------------------------------------------------------------------------
# ring-map checks on additive generators, and homomorphism searches


def is_ring_map(wr: WittRing, images, target: Monogenic) -> bool:
    """Whether sending the i-th element of ``wr.enumerate()`` to the target
    element with digit column images[:, i] is a unital ring map, checked on
    the additive generators S of ``wr.generator_sums``: S generates W, the
    image of s + w is the sum of the images for every s in S and w in W,
    the image of s t is the product of the images on every pair of S, and 1
    goes to 1.  Sums are taken mod the target's modulus and products by
    ``target.mul_rows``."""
    images = np.asarray(images, dtype=np.int64)
    gens, sums, spans = wr.generator_sums
    if not spans or not all(np.array_equal(digit[row], (digit + digit[g]) % target.m)
                            for g, row in zip(gens, sums) for digit in images):
        return False
    left, right = np.repeat(gens, gens.size), np.tile(gens, gens.size)
    prods = wr.positions(wr.table().mul, list(wr.coordinates(left)) + list(wr.coordinates(right)))
    return (np.array_equal(images[:, prods], target.mul_rows(images[:, left], images[:, right]))
            and np.array_equal(images[:, wr.position(wr.one)], target.one))


def witt_additive_basis(wr: WittRing):
    """Teichmuller lifts [x^j] of the power basis of F_q, and the int64
    coefficients (row j for [x^j], column e for the element at position e
    of ``wr.enumerate()``) that write every Witt vector as their unique
    integer combination: every combination is summed on code arrays, and
    they must neither collide nor miss an element."""
    base: Monogenic = wr.base
    basis = [wr.teichmuller(base.x_power(i)) for i in range(base.degree)]
    m = wr.p ** wr.length
    _, code, _, _ = wr.coding
    coeffs = np.indices((m,) * len(basis)).reshape(len(basis), -1)  # the first varies slowest
    combos = np.full(coeffs.shape[1], wr.position(wr.zero), dtype=np.int64)
    for row, vec in zip(coeffs, basis):
        step = [code[c] for c in vec.coords]
        for c in range(1, m):  # add vec once more wherever its coefficient is at least c
            more = row >= c
            combos[more] = wr.positions(wr.table().add, list(wr.coordinates(combos[more])) + step)
    hits = np.bincount(combos, minlength=wr.size)  # np.unique would import numpy.ma, about 2 MB
    if hits.max() > 1:
        raise AssertionError("Teichmuller basis combinations collide")
    if hits.min() == 0:
        raise AssertionError("Teichmuller basis does not span")
    by_position = np.empty_like(coeffs)
    by_position[:, combos] = coeffs
    return basis, by_position


def generator_ring_homomorphisms(wr: WittRing, target: Monogenic):
    """All unital ring homomorphisms W_n(F_q) -> target, each once, labelled
    by the image g of the Teichmuller generator [x].

    The additive extension of [x^j] -> g^j is forced by the integer basis;
    a candidate g is kept when it sends [x] to g (over a prime field x = 0,
    so only g = 0 is kept) and ``is_ring_map`` holds.  The images of all
    elements, sum_j c_j g^j, are digit rows of the target."""
    _, coeffs = witt_additive_basis(wr)
    elems = [w.coords for w in wr.enumerate()]
    x = wr.position(wr.teichmuller(wr.base.x_power(1)))
    gens = []
    for g in target.enumerate():
        images = np.zeros((target.degree, wr.size), dtype=np.int64)
        power = target.one
        for row in coeffs:
            images += np.multiply.outer(power, row)
            power = target.mul(power, g)
        images %= target.m
        if tuple(images[:, x].tolist()) == g and is_ring_map(wr, images, target):
            gens.append((g, dict(zip(elems, map(tuple, images.T.tolist())))))
    return gens


# ---------------------------------------------------------------------------
# cyclotomic models, tilts, theta


class CyclotomicModel:
    """O = Z[zeta_{p^m}]/(p^n) with tilt depth k: k <= m-1 (enough p-power
    roots of unity for epsilon) and k >= n (theta precision)."""

    def __init__(self, p: int, m: int, n: int, k: int):
        if not is_prime(p):
            raise ValueError("p must be prime")
        if k > m - 1:
            raise ValueError("depth k needs k <= m - 1 (epsilon needs p-power roots)")
        if k < n:
            raise ValueError("theta precision needs k >= n")
        self.p = p
        self.m = m
        self.n = n
        self.k = k

    @cached_property
    def _rings(self) -> tuple[Monogenic, Monogenic]:
        g = cyclotomic_polynomial_ppower(self.p, self.m)
        return Monogenic(ModRing(self.p, self.n), g), Monogenic(ModRing(self.p, 1), g)

    def ring_o(self) -> Monogenic:
        return self._rings[0]

    def ring_o_mod_p(self) -> Monogenic:
        return self._rings[1]

    def zeta(self, level: int, ring: Monogenic) -> tuple:
        """zeta_{p^level} = x^(p^(m-level)) in the chosen quotient ring."""
        if level > self.m:
            raise ValueError("not enough roots of unity in the model")
        return ring.x_power(self.p ** (self.m - level))


class TiltRing:
    """All depth-k compatible p-power sequences in O/p, componentwise ring.

    The deepest entry determines the sequence (x_i = x_k^{p^(k-i)}), so the
    carrier is in bijection with O/p.  Frobenius is a ring map of O/p, so
    the ring operations act on deepest entries only: ``tables`` are those
    of O/p with each element replaced by its sequence.  The same-depth
    Frobenius is the componentwise p-th power (not injective here: the
    model is not perfect); the depth-raising Frobenius T_k -> T_{k+1}
    prepends x_0^p and is a bijection with inverse the left shift.
    """

    def __init__(self, model: CyclotomicModel):
        self.model = model
        self.omodp = model.ring_o_mod_p()
        if self.omodp.size > MAX_CODED:
            raise ValueError("tilt enumeration bound exceeded")
        self.p = model.p
        self.k = model.k
        # deepest entry -> whole sequence, in the enumeration order of O/p
        self._sequence = {z: self._from_deepest(z) for z in self.omodp.enumerate()}
        self.zero = self._sequence[self.omodp.zero]
        self.one = self._sequence[self.omodp.one]

    def _from_deepest(self, z) -> tuple:
        entries = [self.omodp.power(z, self.p ** (self.k - i)) for i in range(self.k)] + [z]
        return tuple(entries)

    def enumerate(self):
        yield from self._sequence.values()

    @cached_property
    def tables(self):
        """The ``tables`` of O/p, each element replaced by its sequence:
        the sequences come in the same enumeration order."""
        elems, _, add, mul = self.omodp.tables
        seqs = [self._sequence[z] for z in elems]
        return seqs, {s: i for i, s in enumerate(seqs)}, add, mul

    @property
    def size(self) -> int:
        return self.omodp.size

    def scale(self, c, a):
        return self._sequence[self.omodp.scale(c, a[-1])]

    def raise_frobenius_bijective(self) -> bool:
        """The depth-raising Frobenius T_{k-1}... -> T_k is a bijection."""
        lower = {t[1:] for t in self.enumerate()}  # depth k-1 truncations
        image = set()
        for t in lower:
            image.add((self.omodp.power(t[0], self.p),) + t)
        return image == set(self.enumerate())

    def validate(self, a) -> bool:
        return all(self.omodp.power(a[i + 1], self.p) == a[i] for i in range(len(a) - 1))

    def epsilon(self) -> tuple:
        """(1, zeta_p mod p, ..., zeta_{p^k} mod p)."""
        entries = [self.model.zeta(i, self.omodp) for i in range(self.k + 1)]
        assert self.validate(tuple(entries))
        return tuple(entries)


def tilt_ring(model: CyclotomicModel) -> TiltRing:
    return TiltRing(model)


def _theta_terms(model: CyclotomicModel, length: int, lift) -> list:
    """T_0..T_{length-1} as digit rows of O, one column per element z of
    O/p in ``enumerate()`` order: T_i[z] = p^i lift(z)^(p^(k-i)).  The
    default lift keeps the digits of z; ``lift`` maps an element of O/p to
    coefficients in O."""
    o, omodp, p, k = model.ring_o(), model.ring_o_mod_p(), model.p, model.k
    if lift is None:
        power = omodp.digits(np.arange(omodp.size))
    else:
        power = np.array([o.element(lift(z)) for z in omodp.enumerate()], dtype=np.int64).T
    terms = [None] * length
    for j in range(k + 1):  # power is lift(z)^(p^j), the power T_(k-j) needs
        if j:
            root = power
            for _ in range(p - 1):
                power = o.mul_rows(power, root)
        if k - j < length:
            terms[k - j] = power * p ** (k - j) % o.m
    return terms


def theta_digits(model: CyclotomicModel, codes, lift=None) -> np.ndarray:
    """theta of the Witt vectors over the depth-k tilt whose coordinate i has
    tilt code codes[i] (one code, or one array of codes, per coordinate),
    as int64 digit rows of O = Z[zeta]/(p^n): theta(a) = sum_i T_i[a_i],
    with every T_i computed once for all of O/p by ``_theta_terms``."""
    terms = _theta_terms(model, len(codes), lift)
    return sum(term[:, c] for term, c in zip(terms, codes)) % model.ring_o().m


def theta_map(w: WittVector, model: CyclotomicModel, lift=None) -> tuple:
    """theta(a_0..a_{n-1}) = sum p^i (lift of a_i[k])^{p^(k-i)} in O/p^n:
    ``theta_digits`` at the codes of the deepest entries of one vector."""
    omodp = model.ring_o_mod_p()
    return tuple(theta_digits(model, [omodp.codes(c[model.k]) for c in w.coords], lift).tolist())


class KerThetaReport:
    def __init__(self, model: CyclotomicModel, sizes: dict, theta_is_ring_hom: bool, theta_epsilon_is_one: bool,
                 theta_xi_zero: bool, eps_minus_one_in_kernel: bool, kernel_generated_by_xi: bool,
                 raise_frobenius_bijective: bool):
        self.model = model
        self.sizes = sizes
        self.theta_is_ring_hom = theta_is_ring_hom
        self.theta_epsilon_is_one = theta_epsilon_is_one
        self.theta_xi_zero = theta_xi_zero
        self.eps_minus_one_in_kernel = eps_minus_one_in_kernel
        self.kernel_generated_by_xi = kernel_generated_by_xi
        self.raise_frobenius_bijective = raise_frobenius_bijective


def xi_cyclotomic(wr: WittRing, tilt: TiltRing) -> WittVector:
    """1 + [eps^{1/p}] + ... + [eps^{1/p}]^(p-1), a candidate generator of
    ker theta assembled from the compatible root-of-unity system; eps^{1/p}
    is the left shift of the one-level-deeper root sequence."""
    t = epsilon_root_witt(wr, tilt)
    acc = wr.zero
    powv = wr.one
    for _ in range(wr.p):
        acc = acc + powv
        powv = powv * t
    return acc


def _extended_epsilon(tilt: TiltRing) -> tuple:
    """(1, zeta_p, ..., zeta_{p^(k+1)}) mod p: one level deeper than the
    tilt depth, so that the shifted sequence still has full depth."""
    model = tilt.model
    if tilt.k + 1 > model.m:
        raise ValueError("model lacks roots of unity for eps^{1/p}")
    return tuple(model.zeta(i, tilt.omodp) for i in range(tilt.k + 2))


def epsilon_witt(wr: WittRing, tilt: TiltRing) -> WittVector:
    return wr.teichmuller(tilt.epsilon())


def epsilon_root_witt(wr: WittRing, tilt: TiltRing) -> WittVector:
    extended = _extended_epsilon(tilt)
    return wr.teichmuller(tuple(extended[1 : tilt.k + 2]))


def ker_theta_report(model: CyclotomicModel) -> KerThetaReport:
    """Enumerate W_n(tilt), check that theta is a ring map on the additive
    generators (``is_ring_map``), check the theta identities on the
    canonical elements, and verify that the kernel is exactly the multiples
    of xi, from the |W| products w xi.  theta of every element is one array
    of O codes, read at the positions of eps, xi and eps - 1."""
    tilt = tilt_ring(model)
    wr = WittRing(model.p, model.n, tilt)
    codes = wr.coordinate_codes()  # first, so an oversized carrier fails at once
    o = model.ring_o()
    digits = theta_digits(model, codes)
    thetas = o.codes(digits)
    zero, one = o.codes(o.zero), o.codes(o.one)
    eps = epsilon_witt(wr, tilt)
    xi = xi_cyclotomic(wr, tilt)
    _, code, _, _ = wr.coding
    kernel = thetas == zero
    multiples = np.zeros_like(kernel)
    multiples[wr.positions(wr.table().mul, list(codes) + [code[c] for c in xi.coords])] = True

    return KerThetaReport(
        model,
        {"tilt": tilt.size, "witt": thetas.size, "kernel": int(kernel.sum()), "o_mod_p^n": o.size},
        is_ring_map(wr, digits, o),
        bool(thetas[wr.position(eps)] == one),
        bool(thetas[wr.position(xi)] == zero),
        bool(thetas[wr.position(eps - wr.one)] == zero),
        np.array_equal(kernel, multiples),
        tilt.raise_frobenius_bijective(),
    )
