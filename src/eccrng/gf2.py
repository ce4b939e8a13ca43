"""GF(2) polynomial primitives.

Polynomials over GF(2) are stored as Python integers: bit i of the integer
is the coefficient of x^i.  Addition is XOR, multiplication is carry-less,
reduction is long division by shifted XORs.  Octal notation follows the
classic coding-table convention: the octal digits, read in binary, give the
coefficients from the highest degree down, so "45" -> 100101 -> x^5+x^2+1.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "poly_from_octal",
    "as_bit_array",
]


def _gf2_divmod(a: int, m: int) -> tuple[int, int]:
    """Quotient and remainder of a / m over GF(2).

    Parameters
    ----------
    a, m : int
        Coefficient masks; m must be nonzero.
    """
    if m == 0:
        raise ValueError("division by the zero polynomial")
    dm = m.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= dm and a:
        shift = a.bit_length() - 1 - dm
        q |= 1 << shift
        a ^= m << shift
    return q, a


def poly_from_octal(octal_digits: str) -> int:
    """Parse a generator polynomial from coding-table octal notation.

    "45" -> binary 100101 -> x^5 + x^2 + 1.
    """
    if not isinstance(octal_digits, str) or not octal_digits:
        raise ValueError("octal polynomial string must be non-empty")
    if any(c not in "01234567" for c in octal_digits):
        raise ValueError(f"invalid octal polynomial {octal_digits!r}: digits must be 0-7")
    return int(octal_digits, 8)


def as_bit_array(bits) -> np.ndarray:
    """Normalize a bit sequence (iterable / text / ndarray) to a uint8 array of 0/1."""
    if isinstance(bits, str):
        codes = np.frombuffer(bits.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        is_digit = (codes == ord("0")) | (codes == ord("1"))
        if not is_digit.all():
            # whitespace is whatever str.isspace accepts; only the distinct
            # other characters are checked one by one
            if not all(chr(c).isspace() for c in np.unique(codes[~is_digit]).tolist()):
                raise ValueError("bit string may contain only 0, 1 and whitespace")
            codes = codes[is_digit]
        return (codes - ord("0")).astype(np.uint8)
    a = np.asarray(bits)
    if a.dtype != np.uint8:
        # checked before the cast, which would wrap 256 to 0 and truncate 1.9 to 1
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("bit sequence entries must be 0 or 1")
        a = a.astype(np.uint8)
    if a.ndim != 1:
        raise ValueError(f"bit sequence must be one-dimensional, got shape {a.shape}")
    if a.size and a.max() > 1:
        raise ValueError("bit sequence entries must be 0 or 1")
    return a

