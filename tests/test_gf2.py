"""Polynomial arithmetic over GF(2)."""

import numpy as np
import pytest

from eccrng.codes import _band_offsets, code_registry, lookup_code
from eccrng.gf2 import _gf2_divmod, as_bit_array, poly_from_octal


def test_octal_parse_cube_plus_x_plus_one():
    p = poly_from_octal("13")
    assert p == 0b1011
    assert p.bit_length() - 1 == 3
    assert p.bit_count() == 3
    assert [(p >> i) & 1 for i in range(4)] == [1, 1, 0, 1]


def test_octal_parse_pentanomial():
    p = poly_from_octal("45")
    assert p == 0b100101
    assert p.bit_length() - 1 == 5
    assert p.bit_count() == 3


def test_octal_rejects_garbage():
    with pytest.raises(ValueError):
        poly_from_octal("")
    with pytest.raises(ValueError):
        poly_from_octal("82")
    with pytest.raises(ValueError):
        poly_from_octal("1a")


def test_zero_polynomial():
    z = poly_from_octal("0")
    assert z == 0
    assert z.bit_count() == 0
    assert _gf2_divmod(z, poly_from_octal("13")) == (0, 0)


def test_weight_of_long_generator():
    assert poly_from_octal("3551").bit_count() == 7


def test_reciprocal():
    # the band offsets read the generator highest degree first, so as
    # exponents they are its reciprocal: x^3 + x + 1 -> x^3 + x^2 + 1
    assert sum(1 << d for d in _band_offsets(lookup_code(7, 4, 1))) == 0b1101
    for code in code_registry():
        deg = code.n - code.k
        assert sum(1 << (deg - d) for d in _band_offsets(code)) == code.generator


def test_registry_octal_round_trip():
    for code in code_registry():
        assert format(code.generator, "o") == code.generator_octal


def test_registry_generator_degree_is_n_minus_k():
    for code in code_registry():
        assert code.generator.bit_length() - 1 == code.n - code.k


def test_registry_generator_divides_cycle_polynomial():
    for code in code_registry():
        cycle = (1 << code.n) | 1  # x^n + 1
        quotient, remainder = _gf2_divmod(cycle, code.generator)
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
        assert code.generator.bit_count() % 2 == 1


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
    # other dtypes are checked before the cast to uint8, which would wrap or
    # truncate these to 0/1
    for bad in ([256, 1], [-255], [0.2, 1.9, 0.7]):
        with pytest.raises(ValueError):
            as_bit_array(bad)


def test_as_bit_array_accepts_exact_bits_of_any_dtype():
    for good in ([True, False, True], [1, 0, 1], [1.0, 0.0, 1.0]):
        got = as_bit_array(good)
        assert got.dtype == np.uint8
        assert got.tolist() == [1, 0, 1]
    assert as_bit_array([]).size == 0
