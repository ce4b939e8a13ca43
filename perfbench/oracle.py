"""Independent reference for the post-processing pipeline and the bit-file encodings.

Written from the definitions of the stages, not from eccrng's code, so a
faster kernel that changes the output bits is caught on every seed, not only
on the seeds that have stored digests.  Speed does not matter here: the
reference runs once per benchmark run, outside every timed region.
"""

from __future__ import annotations

import numpy as np

# Narrow-sense binary BCH generator polynomials (octal) of the workload codes.
GENERATORS_OCTAL = {
    "7,4,1": "13",
    "31,16,3": "107657",
    "127,99,4": "3447023271",
}

ASCII_WRAP = 64


def von_neumann(bits: np.ndarray) -> np.ndarray:
    """Non-overlapping pairs: 01 -> 0, 10 -> 1, equal pairs and a lone last bit dropped."""
    pairs = bits[: bits.size - bits.size % 2].reshape(-1, 2)
    return pairs[pairs[:, 0] != pairs[:, 1], 0].copy()


def lfsr_feedback(bits: np.ndarray, taps: tuple[int, ...], seed: int) -> np.ndarray:
    """Feedback-injection register, written as a recurrence on the loaded values.

    u[i] is the i-th value loaded into cell 1; the first `width` entries are
    the preload (seed bit j-1 sits in cell j).  Step i expels u[i] and loads
    x[i] XOR the tapped cells.
    """
    width = max(taps)
    offsets = [width - t for t in taps if t > 0]
    u = [(seed >> (width - 1 - k)) & 1 for k in range(width)]
    for i, x in enumerate(bits.tolist()):
        v = x
        for off in offsets:
            v ^= u[i + off]
        u.append(v)
    return np.array(u[: bits.size], dtype=np.uint8)


def compress(bits: np.ndarray, n: int, k: int, generator_octal: str) -> np.ndarray:
    """Blockwise z = G y, G banded with the generator highest-degree-first in each row."""
    g = int(generator_octal, 8)
    deg = n - k
    nblocks = bits.size // n
    blocks = bits[: nblocks * n].reshape(nblocks, n)
    z = np.zeros((nblocks, k), dtype=np.uint8)
    for j in range(deg + 1):
        if (g >> (deg - j)) & 1:
            z ^= blocks[:, j : j + k]
    return z.reshape(-1)


def pipeline(stages, bits: np.ndarray, lfsr_seed: int) -> np.ndarray:
    out = bits
    for kind, value in stages:
        if kind == "rejection":
            out = von_neumann(out)
        elif kind == "lfsr":
            out = lfsr_feedback(out, tuple(int(t) for t in value.split(",")), lfsr_seed)
        elif kind == "ecc":
            n, k, _ = (int(v) for v in value.split(","))
            out = compress(out, n, k, GENERATORS_OCTAL[value])
        else:
            raise ValueError(f"no reference for stage {kind!r}")
    return out


def encode(bits: np.ndarray, encoding: str) -> bytes:
    """File bytes: packed is MSB-first with a zero-padded last byte; ascii wraps at 64."""
    if encoding == "packed":
        return np.packbits(bits).tobytes()
    text = (bits + ord("0")).astype(np.uint8).tobytes()
    lines = [text[i : i + ASCII_WRAP] for i in range(0, len(text), ASCII_WRAP)]
    return b"\n".join(lines) + b"\n" if lines else b""
