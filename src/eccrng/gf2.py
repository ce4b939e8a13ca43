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
    "Gf2Poly",
    "poly_from_octal",
    "poly_to_octal",
    "poly_weight",
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


class Gf2Poly:
    """Polynomial over GF(2).

    Wraps an integer mask; treat instances as immutable.  Comparisons and
    hashing go through the mask, so polynomials work as dict keys.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        if not isinstance(mask, int) or mask < 0:
            raise ValueError(f"polynomial mask must be a non-negative integer, got {mask!r}")
        self.mask = mask

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is taken as 0 (coefficient there is 0)
        return max(self.mask.bit_length() - 1, 0)

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    @property
    def coefficients(self) -> tuple[int, ...]:
        """Coefficients from degree 0 upward; (0,) for the zero polynomial."""
        if self.mask == 0:
            return (0,)
        return tuple((self.mask >> i) & 1 for i in range(self.degree + 1))

    @property
    def weight(self) -> int:
        return self.mask.bit_count()

    def reciprocal(self) -> "Gf2Poly":
        """Coefficient order reversed within degree+1 positions."""
        d = self.degree
        r = 0
        for i in range(d + 1):
            if (self.mask >> i) & 1:
                r |= 1 << (d - i)
        return Gf2Poly(r)

    def __eq__(self, other) -> bool:
        return isinstance(other, Gf2Poly) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(("Gf2Poly", self.mask))

    def __repr__(self) -> str:
        if self.mask == 0:
            return "Gf2Poly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            if (self.mask >> i) & 1:
                terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        return f"Gf2Poly({' + '.join(terms)})"


def poly_from_octal(octal_digits: str) -> Gf2Poly:
    """Parse a generator polynomial from coding-table octal notation.

    "45" -> binary 100101 -> x^5 + x^2 + 1.
    """
    if not isinstance(octal_digits, str) or not octal_digits:
        raise ValueError("octal polynomial string must be non-empty")
    if any(c not in "01234567" for c in octal_digits):
        raise ValueError(f"invalid octal polynomial {octal_digits!r}: digits must be 0-7")
    return Gf2Poly(int(octal_digits, 8))


def poly_to_octal(p: Gf2Poly) -> str:
    return format(p.mask, "o")


def poly_weight(p: Gf2Poly) -> int:
    """Number of nonzero coefficients."""
    return p.weight


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
        a = a.astype(np.uint8)
    if a.ndim != 1:
        raise ValueError(f"bit sequence must be one-dimensional, got shape {a.shape}")
    if a.size and a.max() > 1:
        raise ValueError("bit sequence entries must be 0 or 1")
    return a

