"""Polynomial arithmetic over GF(2)."""

import numpy as np
import pytest

from eccrng.codes import code_registry
from eccrng.gf2 import (
    Gf2Poly,
    _gf2_divmod,
    as_bit_array,
    poly_from_octal,
    poly_to_octal,
    poly_weight,
)


def test_octal_parse_cube_plus_x_plus_one():
    p = poly_from_octal("13")
    assert p.mask == 0b1011
    assert p.degree == 3
    assert p.weight == 3
    assert p.coefficients == (1, 1, 0, 1)


def test_octal_parse_pentanomial():
    p = poly_from_octal("45")
    assert p.mask == 0b100101
    assert p.degree == 5
    assert p.weight == 3


def test_octal_rejects_garbage():
    with pytest.raises(ValueError):
        poly_from_octal("")
    with pytest.raises(ValueError):
        poly_from_octal("82")
    with pytest.raises(ValueError):
        poly_from_octal("1a")


def test_zero_polynomial():
    z = Gf2Poly(0)
    assert z.is_zero
    assert z.degree == 0
    assert z.weight == 0
    assert z.coefficients == (0,)


def test_weight_of_long_generator():
    assert poly_weight(poly_from_octal("3551")) == 7


def test_reciprocal():
    assert poly_from_octal("13").reciprocal().mask == 0b1101
    assert Gf2Poly(0b10).reciprocal().mask == 0b1  # x -> 1
    assert Gf2Poly(0).reciprocal().is_zero


def test_registry_octal_round_trip():
    for code in code_registry():
        assert poly_to_octal(code.generator) == code.generator_octal


def test_registry_generator_degree_is_n_minus_k():
    for code in code_registry():
        assert code.generator.degree == code.n - code.k


def test_registry_generator_divides_cycle_polynomial():
    for code in code_registry():
        cycle = (1 << code.n) | 1  # x^n + 1
        quotient, remainder = _gf2_divmod(cycle, code.generator.mask)
        assert remainder == 0
        assert quotient.bit_length() - 1 == code.k  # deg(x^n + 1) - deg(g)


def test_divmod_rejects_zero_modulus():
    # a zero dividend first: with a nonzero one the unchecked division never returns
    for a in (0, 5):
        with pytest.raises(ValueError):
            _gf2_divmod(a, 0)


def test_registry_generator_weight_is_odd():
    # odd parity-tap count keeps the compressed bias law sign-preserving
    for code in code_registry():
        assert code.generator.weight % 2 == 1


def test_as_bit_array_accepts_text_and_whitespace():
    got = as_bit_array("01 10\n1")
    assert got.tolist() == [0, 1, 1, 0, 1]
    assert got.dtype == np.uint8
    # whitespace is exactly what str.isspace accepts, ASCII or not
    assert as_bit_array("0\x0b1\x1c0").tolist() == [0, 1, 0]
    assert as_bit_array("1\u30000").tolist() == [1, 0]


def test_as_bit_array_rejects_non_binary():
    with pytest.raises(ValueError):
        as_bit_array("01012")
    with pytest.raises(ValueError):
        as_bit_array("0\u00e91")
    with pytest.raises(ValueError):
        as_bit_array(np.array([0, 1, 2], dtype=np.uint8))
    with pytest.raises(ValueError):
        as_bit_array(np.zeros((2, 2), dtype=np.uint8))
