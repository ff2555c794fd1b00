import time

import pytest

from eisenlab.corering import AtLeast, Modulus, PadicPoly, valuation_p


def test_valuation_examples():
    assert valuation_p(3000, 5) == 3
    assert valuation_p(336, 7) == 1
    with pytest.raises(ValueError):
        valuation_p(0, 7)  # neither an int nor AtLeast; Modulus.valuation caps it


def test_valuation_negative_and_units():
    assert valuation_p(-50, 5) == 2
    assert valuation_p(1, 11) == 0


def test_modulus_basic():
    mod = Modulus(5, 3)
    assert mod.pM == 125
    assert mod.inv(2) * 2 % 125 == 1
    assert mod.is_unit(7) and not mod.is_unit(10)
    with pytest.raises(ValueError):
        Modulus(3, 2)  # p must exceed 3
    with pytest.raises(ValueError):
        Modulus(5, 0)


def test_modulus_refuses_wide_moduli_at_once():
    # 5^55 is the first power of 5 past 2^127; a precision read from a
    # records file can be far larger, and is refused without building p^M
    assert Modulus(5, 54).pM == 5**54
    for M in (55, 126, 127, 10**7):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"5\\^{M} does not fit a 128-bit word"):
            Modulus(5, M)
        assert time.perf_counter() - start < 0.5


def test_modulus_valuation_cap():
    mod = Modulus(5, 3)
    assert mod.valuation(50) == 2
    assert mod.valuation(0) == AtLeast(3)
    assert mod.valuation(125) == AtLeast(3)


def test_padic_poly_construction_and_trim():
    mod = Modulus(5, 2)
    f = PadicPoly([1, 2, 0, 0], mod)
    assert f.coeffs == [1, 2]
    assert f.degree == 1
    zero = PadicPoly([0, 0], mod)
    assert zero.is_zero() and zero.degree == 0
    # full multiples of p^M vanish
    g = PadicPoly([25, 1], mod)
    assert g.coeffs == [0, 1]


def _substitute_scaled(f, scale):
    """f(scale * y) (oracle)."""
    pM = f.modulus.pM
    return PadicPoly([(c * pow(scale, i, pM)) % pM for i, c in enumerate(f.coeffs)], f.modulus)


def test_padic_poly_arithmetic():
    mod = Modulus(5, 3)
    f = PadicPoly([1, 1], mod)
    g = PadicPoly([-1, 1], mod)
    assert (f * g).coeffs == [124, 0, 1]  # y^2 - 1
    assert (f + g).coeffs == [0, 2]
    h = _substitute_scaled(f, 5)  # f(5y) = 1 + 5y
    assert h.coeffs == [1, 5]
    assert PadicPoly([2, 0, 1], mod).reversed().coeffs == [1, 0, 2]


def test_distinguished_predicate():
    mod = Modulus(5, 3)
    assert PadicPoly([25, 5, 1], mod).is_distinguished()
    assert PadicPoly([0, 1], mod).is_distinguished()
    assert not PadicPoly([1, 5, 1], mod).is_distinguished()
    assert not PadicPoly([25, 5, 2], mod).is_distinguished()
