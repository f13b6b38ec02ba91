"""Univariate polynomial helpers: remainders over Z/p^n and Z, gcd degrees."""

import random

import pytest

from derhamkit.upoly import gcd_degree, mul, rem, trim


def _add(a, b):
    n = max(len(a), len(b))
    return [(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)]


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_rem_mod_pn_recovers_remainder(p, n):
    rng = random.Random(100 * p + n)
    m = p ** n
    for _ in range(200):
        d = rng.randint(1, 4)
        f = [rng.randrange(m) for _ in range(d)]
        f.append(rng.choice([u for u in range(1, m) if u % p]))  # unit leading coefficient
        q = [rng.randrange(m) for _ in range(rng.randint(1, 5))]
        r = [rng.randrange(m) for _ in range(d)]
        a = [c % m for c in _add(mul(q, f, m), r)]
        assert rem(a, f, m) == r


def test_rem_over_z_with_monic_divisor():
    rng = random.Random(7)
    for _ in range(200):
        d = rng.randint(1, 4)
        f = [rng.randint(-9, 9) for _ in range(d)] + [1]
        q = [rng.randint(-20, 20) for _ in range(rng.randint(1, 5))]
        r = [rng.randint(-20, 20) for _ in range(d)]
        assert rem(_add(_int_mul(q, f), r), f) == r


def test_rem_over_z_needs_monic_divisor():
    with pytest.raises(ValueError):
        rem([1, 2, 3], [1, 2])


def test_rem_zero_pads_short_input():
    assert rem([3], [1, 0, 0, 1], 4) == [3, 0, 0]
    assert rem([], [5, 1], 7) == [0]
    assert rem([-1, 2], [0, 0, 0, 1]) == [-1, 2, 0]


def test_gcd_degree_over_fp():
    rng = random.Random(3)
    for p in (2, 3, 5, 7):
        for _ in range(50):
            # x - a and x - b coprime exactly when a != b mod p
            a, b = rng.randrange(p), rng.randrange(p)
            g = gcd_degree([-a, 1], [-b, 1], p)
            assert g == (1 if a == b else 0)
            # (x - a)^2 (x - c) and (x - a)^2 (x - e) with c != e share exactly (x - a)^2
            s = mul([-a, 1], [-a, 1], p)
            c, e = rng.sample(range(p), 2)
            assert gcd_degree(mul(s, [-c, 1], p), mul(s, [-e, 1], p), p) == 2
    # x^2 + 1 and x + 1 over F_3: coprime; over F_2: x^2 + 1 = (x + 1)^2
    assert gcd_degree([1, 0, 1], [1, 1], 3) == 0
    assert gcd_degree([1, 0, 1], [1, 1], 2) == 1
    assert gcd_degree([0], [0, 0], 5) == -1
    assert gcd_degree([2, 1], [0], 5) == 1


def test_trim():
    assert trim([1, 0, 2, 0, 0]) == [1, 0, 2]
    assert trim([0, 0]) == []
    assert trim(iter([3])) == [3]
