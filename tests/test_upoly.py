"""Univariate polynomial helpers: products, remainders and multiplication
matrices over Z/p^n and Z."""

import random

import pytest

from derhamkit.upoly import mul, multiplication_rows, rem, trim


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


@pytest.mark.parametrize("m", [4, 9, 25])
def test_multiplication_rows_multiply_in_the_quotient(m):
    # h g mod f is the coefficient row of h mod f times the matrix
    rng = random.Random(m)
    for _ in range(100):
        d = rng.randint(1, 4)
        f = [rng.randrange(m) for _ in range(d)] + [1]
        g = [rng.randrange(m) for _ in range(rng.randint(1, 6))]
        h = [rng.randrange(m) for _ in range(d)]
        rows = multiplication_rows(g, f, m)
        assert len(rows) == d and all(len(row) == d for row in rows)
        product = [sum(c * row[k] for c, row in zip(h, rows)) % m for k in range(d)]
        assert product == rem(mul(h, g, m), f, m)


def test_trim():
    assert trim([1, 0, 2, 0, 0]) == [1, 0, 2]
    assert trim([0, 0]) == []
    assert trim(iter([3])) == [3]
