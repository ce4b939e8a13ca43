"""Binary BCH codes and entropy compression through their generator structure.

The same banded k x n generator-coefficient matrix serves two purposes:

* ECC encoding: a k-bit message row-combines the matrix into an n-bit
  codeword (equivalently, carry-less multiplication by the reversed
  generator coefficients).
* Entropy compression: an n-bit raw block is multiplied from the right,
  z = G y, collapsing n physical bits into k whitened bits.  Each output
  bit is the XOR of weight(g) input bits, so an input bias e shrinks to
  e**weight(g) at the output (piling-up argument).

Row i of the matrix holds the generator coefficients highest-degree-first
starting at column i; every row fits exactly because deg(g) = n - k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bitio import as_bit_array

__all__ = [
    "BchCode",
    "DecodeResult",
    "code_registry",
    "lookup_code",
    "compress_stream_matrix",
    "bch_encode",
    "bch_decode",
    "predicted_output_bias",
]

# Standard narrow-sense binary BCH generator polynomials in octal notation
# (the digits in binary are the coefficients from the highest degree down:
# "45" -> 100101 -> x^5 + x^2 + 1), for every length 2^m - 1 used here.
# k = n - deg(g); minimum distance >= 2t + 1.  Sorted by (n, t).
_CODE_TABLE: tuple[tuple[int, int, int, str], ...] = (
    (7, 4, 1, "13"),
    (31, 26, 1, "45"),
    (31, 21, 2, "3551"),
    (31, 16, 3, "107657"),
    (31, 11, 5, "5423325"),
    (63, 57, 1, "103"),
    (63, 51, 2, "12471"),
    (63, 45, 3, "1701317"),
    (63, 39, 4, "166623567"),
    (127, 120, 1, "211"),
    (127, 113, 2, "41567"),
    (127, 106, 3, "11554743"),
    (127, 99, 4, "3447023271"),
)

@dataclass(frozen=True)
class BchCode:
    """A (n, k, t) binary BCH code; generator holds bit i = coefficient of x^i."""

    n: int
    k: int
    t: int
    generator_octal: str
    generator: int = field(init=False)

    def __post_init__(self):
        octal = self.generator_octal
        if not isinstance(octal, str) or not octal:
            raise ValueError("octal polynomial string must be non-empty")
        if any(c not in "01234567" for c in octal):
            raise ValueError(f"invalid octal polynomial {octal!r}: digits must be 0-7")
        g = int(octal, 8)
        if not (0 < self.k < self.n):
            raise ValueError(f"need 0 < k < n, got (n={self.n}, k={self.k})")
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if g.bit_length() - 1 != self.n - self.k:
            raise ValueError(
                f"generator degree {g.bit_length() - 1} != n - k = {self.n - self.k} "
                f"for ({self.n},{self.k},{self.t})"
            )
        object.__setattr__(self, "generator", g)

    def __str__(self) -> str:
        return f"({self.n},{self.k},{self.t})"


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Outcome of bch_decode: ok=False means no codeword within distance t."""

    ok: bool
    message: np.ndarray | None
    errors_corrected: int


@lru_cache(maxsize=None)
def _registry() -> tuple[BchCode, ...]:
    return tuple(BchCode(n, k, t, octal) for n, k, t, octal in _CODE_TABLE)


def code_registry() -> list[BchCode]:
    """All shipped codes, sorted by (n, t)."""
    return list(_registry())


def lookup_code(n: int, k: int, t: int) -> BchCode:
    for code in _registry():
        if (code.n, code.k, code.t) == (n, k, t):
            return code
    known = ", ".join(str(c) for c in _registry())
    raise ValueError(f"unknown code ({n},{k},{t}); available: {known}")


@lru_cache(maxsize=None)
def _band_offsets(code: BchCode) -> tuple[int, ...]:
    """Columns d (relative to the row) where a matrix row holds a 1.

    Row i holds the generator highest-degree-first from column i, so
    G[i, i + d] is the coefficient of x^(n-k-d); d = 0 is always present.
    """
    deg = code.n - code.k
    g = code.generator
    return tuple(d for d in range(deg + 1) if (g >> (deg - d)) & 1)


def compress_stream_matrix(code: BchCode, bits) -> np.ndarray:
    """Blockwise matrix compression of a bit stream.

    The stream is cut into complete n-bit blocks (a trailing partial block
    is discarded) and each block is multiplied by the banded matrix.  Because
    the band is the generator shifted one column per row, z = G y for all
    blocks at once is the XOR of the k-column windows of the blocks that
    start at each of the generator's nonzero coefficients.
    """
    y = as_bit_array(bits)
    n, k = code.n, code.k
    nblocks = y.size // n
    blocks = y[: nblocks * n].reshape(nblocks, n)
    z = blocks[:, :k].copy()  # offset 0, the leading coefficient
    for d in _band_offsets(code)[1:]:
        z ^= blocks[:, d : d + k]
    return z.reshape(-1)


def _int_from_bits(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _bits_from_int(v: int, length: int) -> np.ndarray:
    raw = np.frombuffer(v.to_bytes((length + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=length, bitorder="little")


def bch_encode(code: BchCode, message) -> np.ndarray:
    """Non-systematic encoding: the k-bit message selects rows of the matrix.

    Row i is the band shifted to column i, so the codeword is the XOR of the
    message shifted by every band offset: carry-less multiplication by the
    reversed generator.  Returns the n-bit codeword.
    """
    m = as_bit_array(message)
    if m.size != code.k:
        raise ValueError(f"message length {m.size} != k = {code.k}")
    mval = _int_from_bits(m)
    c = 0
    for d in _band_offsets(code):
        c ^= mval << d
    return _bits_from_int(c, code.n)


@lru_cache(maxsize=None)
def _gf_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """exp and log tables of GF(n + 1) over the length's t = 1 generator.

    That generator is the standard primitive polynomial of the field.  exp
    holds two periods and then zeros, and log[0] points into the zeros, so
    exp[log a + log b] is the product a * b for every a and b, 0 included.
    """
    m = n.bit_length()
    poly = lookup_code(n, n - m, 1).generator
    exp = np.zeros(4 * n + 1, dtype=np.int64)
    log = np.full(n + 1, 2 * n, dtype=np.int64)
    x = 1
    for i in range(n):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x >> m:
            x ^= poly
    if (log[1:] == 2 * n).any():  # some nonzero element is no power of x
        raise ValueError(f"0o{poly:o} is not primitive for GF(2^{m})")
    exp[n : 2 * n] = exp[:n]
    return exp, log


def _gf2_divmod(a: int, m: int) -> tuple[int, int]:
    """Quotient and remainder of a / m over GF(2), as coefficient masks; m must be nonzero."""
    if m == 0:
        raise ValueError("division by the zero polynomial")
    dm = m.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= dm and a:
        shift = a.bit_length() - 1 - dm
        q |= 1 << shift
        a ^= m << shift
    return q, a


def bch_decode(code: BchCode, received) -> DecodeResult:
    """Decode to the nearest codeword within distance t.

    Syndromes are evaluated at alpha^(n-j) for j = 1..2t because the banded
    matrix encodes with the generator coefficients reversed; with that
    convention the Chien roots are the error positions directly.  Returns
    ok=False when no codeword lies within distance t.
    """
    r = as_bit_array(received)
    n, t = code.n, code.t
    if r.size != n:
        raise ValueError(f"received length {r.size} != n = {n}")
    exp, log = _gf_tables(n)
    ones = np.flatnonzero(r)
    syndromes = np.bitwise_xor.reduce(exp[np.outer(np.arange(1, 2 * t + 1), -ones) % n], axis=1)
    word = _int_from_bits(r)
    nerr = 0
    if syndromes.any():
        # Berlekamp-Massey for a binary word: S_2j = S_j^2 makes the
        # discrepancy of every even step zero, so only the t odd steps run.
        # prev is sigma before the last length change, shift the number of
        # steps since then (each odd step and its even step count two).
        sigma = np.zeros(2 * t + 1, dtype=np.int64)
        sigma[0] = 1
        prev, prev_d, L, shift = sigma, 1, 0, 1
        for i in range(0, 2 * t, 2):
            window = syndromes[i - L : i + 1][::-1]
            d = int(np.bitwise_xor.reduce(exp[log[sigma[: L + 1]] + log[window]]))
            if d:
                coef = exp[log[d] + n - log[prev_d]]  # d / prev_d
                update = np.zeros_like(sigma)
                update[shift:] = exp[log[coef] + log[prev[: 2 * t + 1 - shift]]]
                if 2 * L <= i:
                    prev, prev_d, L, shift = sigma, d, i + 1 - L, 0
                sigma = sigma ^ update
            shift += 2
        if L > t or sigma[L] == 0:
            return DecodeResult(False, None, 0)
        # Chien search: sigma(alpha^p) for every position p at once
        powers = np.outer(np.arange(L + 1), np.arange(n)) % n
        values = np.bitwise_xor.reduce(exp[log[sigma[: L + 1], None] + powers], axis=0)
        roots = np.flatnonzero(values == 0)
        if roots.size != L:
            return DecodeResult(False, None, 0)
        for p in roots.tolist():
            word ^= 1 << p
        nerr = L

    reversed_generator = sum(1 << d for d in _band_offsets(code))
    quotient, remainder = _gf2_divmod(word, reversed_generator)
    if remainder != 0:
        return DecodeResult(False, None, 0)
    return DecodeResult(True, _bits_from_int(quotient, code.k), nerr)


def predicted_output_bias(code: BchCode, input_bias: float) -> float:
    """Piling-up prediction: output bias e**weight(g) for input bias e.

    Bias e means P(1) = (1 + e) / 2; every output bit XORs weight(g)
    independent input bits, so the deviation from 1/2 is e**w / 2.
    """
    if not 0.0 <= input_bias <= 1.0:
        raise ValueError(f"input bias must lie in [0, 1], got {input_bias}")
    return float(input_bias) ** code.generator.bit_count()
