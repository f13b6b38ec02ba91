"""Different valuations and differential module lengths."""

from fractions import Fraction

import pytest
import reference_padicfield

from derhamkit.exactlin import ModRing
from derhamkit.upoly import Monogenic
from derhamkit.padicfield import (
    cyclotomic_extension,
    different_valuation,
    omega_invariants,
)


def test_different_cyclotomic_examples():
    # Phi_9: 2 - 1/2 = 3/2
    assert different_valuation(cyclotomic_extension(3, 2)).value == Fraction(3, 2)
    # Phi_3 cross-check: Res(x^2+x+1, 2x+1) = 3, degree 2
    assert different_valuation(cyclotomic_extension(3, 1)).value == Fraction(1, 2)
    # Phi_2 = x + 1: trivial extension
    assert different_valuation(cyclotomic_extension(2, 1)).value == 0


def test_different_of_a_cyclotomic_level_is_r_minus_one_over_p_minus_one():
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            ext = cyclotomic_extension(p, r)
            assert different_valuation(ext).value == Fraction(r) - Fraction(1, p - 1), (p, r)


def test_different_eisenstein():
    ext = Monogenic(ModRing(3, 1), (-3, 0, 1))  # x^2 - 3 over Q_3
    assert different_valuation(ext).value == Fraction(1, 2)


def test_different_unramified_is_zero():
    ext = Monogenic(ModRing(2, 1), (1, 1, 1))
    assert different_valuation(ext).value == 0


def test_ramification_table():
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            v = different_valuation(cyclotomic_extension(p, r)).value
            assert v == Fraction(r) - Fraction(1, p - 1)


def test_omega_lengths():
    # Phi_9: length 9 = 6 * (3/2)
    total, layers = omega_invariants(cyclotomic_extension(3, 2), precision=6)
    assert total == 9
    # unramified lift of F_4: unit derivative, trivial module
    total, _ = omega_invariants(Monogenic(ModRing(2, 1), (1, 1, 1)), precision=4)
    assert total == 0
    # Phi_2: trivial extension
    total, _ = omega_invariants(cyclotomic_extension(2, 1), precision=4)
    assert total == 0


def test_omega_matches_resultant_route():
    # length = degree * v(different) whenever the precision suffices
    for p, r in ((2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        ext = cyclotomic_extension(p, r)
        v = different_valuation(ext).value
        total, _ = omega_invariants(ext, precision=int(v) + 3)
        assert total == ext.degree * v


def test_omega_precision_guard():
    with pytest.raises(ValueError, match="^precision 1 too small"):
        omega_invariants(cyclotomic_extension(3, 2), precision=1)


_OMEGA_CASES = ([(cyclotomic_extension(p, r), f"cyclotomic-{p}-{r}") for p in (2, 3, 5) for r in (1, 2, 3)]
                + [(Monogenic(ModRing(2, 1), (1, 1, 1)), "unramified-2-111"),
                   (Monogenic(ModRing(3, 1), (-3, 0, 0, 1)), "eisenstein-3-x3-3")])


@pytest.mark.parametrize("ext", [ext for ext, _ in _OMEGA_CASES], ids=[name for _, name in _OMEGA_CASES])
def test_omega_lengths_equal_the_integer_smith_form_route(ext):
    v = different_valuation(ext).value
    for precision in range(1, int(v) + 4):
        try:
            want = reference_padicfield.omega_invariants(ext, precision)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{err}$"):
                omega_invariants(ext, precision)
            continue
        assert omega_invariants(ext, precision) == want
        assert want[0] == ext.degree * v


def test_omega_of_a_singular_multiplication_matrix_is_inseparable():
    ext = Monogenic(ModRing(3, 1), (0, 0, 1))  # x^2: f' = 2x kills x
    for precision in (1, 3, 19):
        with pytest.raises(ValueError, match="^inseparable: multiplication matrix is singular$"):
            omega_invariants(ext, precision)


def test_omega_precision_at_the_modulus_limit_is_a_value_error():
    ext = cyclotomic_extension(5, 3)
    assert omega_invariants(ext, 13)[0] == 275  # 5^13 < 2^31
    with pytest.raises(ValueError, match=r"^modulus 5\^14 is not below 2\^31"):
        omega_invariants(ext, 14)


def test_lengths_grow_with_level():
    # p-primary torsion with annihilator exponents growing in r
    for p in (2, 3, 5):
        lengths = []
        for r in (1, 2, 3):
            ext = cyclotomic_extension(p, r)
            v = different_valuation(ext).value
            total, _ = omega_invariants(ext, precision=int(v) + 3)
            lengths.append(total)
        assert all(a < b for a, b in zip(lengths, lengths[1:])) or lengths[0] == 0
        assert lengths[-1] > lengths[-2] if lengths[-2] else True
