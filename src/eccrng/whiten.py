"""Whitening stages: von Neumann rejection, LFSR scrambling, stage pipelines.

The LFSR register is written as cells 1..N where cell j holds the bit loaded
j steps ago (cell N is the oldest).  Tap notation matches the usual PRBS
shorthand: a tuple like (3, 1, 0) means the new cell value is the XOR of
cells 3 and 1, and tap 0 marks the point where the incoming data bit is
XORed in.  Each step expels cell N as the output bit, so whitening keeps
the stream length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitio import as_bit_array, pack_words, unpack_words, xor_shifted
from .codes import BchCode, compress_stream_matrix

__all__ = [
    "FEEDBACK_INJECTION",
    "OUTPUT_XOR_INJECTION",
    "LfsrSpec",
    "RejectionStage",
    "LfsrStage",
    "EccStage",
    "PipelineSpec",
    "von_neumann",
    "lfsr_whiten",
    "run_pipeline",
]

# Injection modes: where the data stream couples into the register.
FEEDBACK_INJECTION = "feedback"      # vacated cell <- feedback XOR input
OUTPUT_XOR_INJECTION = "output-xor"  # free-running register; output <- expelled XOR input


def von_neumann(bits) -> np.ndarray:
    """Pairwise rejection: 01 -> 0, 10 -> 1, 00/11 dropped.

    A trailing unpaired bit is discarded.  Output bits are exactly unbiased
    for i.i.d. input regardless of the input bias.
    """
    b = as_bit_array(bits)
    npairs = b.size // 2
    first = b[0 : 2 * npairs : 2]
    second = b[1 : 2 * npairs : 2]
    return first[first != second]


@dataclass(frozen=True)
class LfsrSpec:
    """Tap tuple for a whitening register; width = largest tap."""

    taps: tuple[int, ...]

    def __post_init__(self):
        taps = tuple(sorted(set(int(t) for t in self.taps), reverse=True))
        if not taps or taps[-1] != 0 or len(taps) < 2:
            raise ValueError(f"taps must include 0 (input point) and a cell tap, got {self.taps}")
        if any(t < 0 for t in taps):
            raise ValueError(f"tap positions must be non-negative, got {self.taps}")
        object.__setattr__(self, "taps", taps)

    @property
    def width(self) -> int:
        return self.taps[0]


def _check_seed(spec: LfsrSpec, seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < (1 << spec.width):
        raise ValueError(
            f"seed {seed} out of range for a {spec.width}-cell register "
            f"(need 0 <= seed < {1 << spec.width})"
        )
    return seed


def _check_injection(injection: str) -> None:
    if injection not in (FEEDBACK_INJECTION, OUTPUT_XOR_INJECTION):
        raise ValueError(f"unknown injection mode {injection!r}")


def lfsr_whiten(spec: LfsrSpec, seed: int, bits, injection: str = FEEDBACK_INJECTION) -> np.ndarray:
    """Run the register over the stream; one output bit per input bit.

    seed bit j-1 preloads cell j.  Per step: feedback = XOR of tapped cells;
    in feedback injection the vacated cell is loaded with feedback XOR input
    and the expelled cell is the output; in output-xor injection the register
    free-runs and the output is the expelled cell XOR the input bit.

    Computed in closed form rather than step by step.  With s_t the bit
    loaded into cell 1 at step t, the expelled bit is s_(t-N), and over GF(2)
    the loaded stream is s = w / (1 + a(z)) with a(z) the sum of z^j over
    the cell taps.  w is the input preceded by N pseudo-input bits that
    reproduce the preload.  Since (1 + a)^(2^i) = 1 + a(z^(2^i)), dividing
    by 1 + a is multiplying by the product of 1 + a(z^(2^i)), and each factor
    is one round of shifted XORs over the whole stream.  The stream is held
    as 64-bit words, bit k in bit k % 64 of word k // 64 (bitio.pack_words),
    so each shift by d is a word offset of d // 64 and two XORs of words
    shifted by d % 64 (one when d is a multiple of 64).
    """
    _check_injection(injection)
    b = as_bit_array(bits)
    width = spec.width
    state = _check_seed(spec, seed)
    cell_taps = [t for t in spec.taps if t > 0]
    n = b.size

    # preload as s_(-N) .. s_(-1), oldest cell first, then its pseudo-input
    # preload * (1 + a) mod z^N
    raw = np.frombuffer(state.to_bytes((width + 7) // 8, "big"), dtype=np.uint8)
    preload = np.unpackbits(raw)[-width:]
    pseudo = preload.copy()
    for t in cell_taps:
        if t < width:
            pseudo[t:] ^= preload[: width - t]

    # allocated before the word arrays, so that the output sits below them in
    # memory and they leave one free block when they go, not a hole under it
    out = np.empty(n, dtype=np.uint8)
    # bit k of u becomes s_(k-N), so output bit t is bit t of u; the last N
    # input bits are loaded but never expelled
    words = pack_words(b)
    buffer = np.empty_like(words)
    u = np.zeros_like(words)
    if injection == FEEDBACK_INJECTION:
        xor_shifted(u, words, width, buffer)
    head = pack_words(pseudo)[: u.size]
    u[: head.size] ^= head
    v = np.empty_like(u)
    shift = 1
    while shift * cell_taps[-1] < n:
        # every shift reads the previous round's u, never a partial update
        np.copyto(v, u)
        for t in cell_taps:
            xor_shifted(v, u, t * shift, buffer)
        u, v = v, u
        shift *= 2
    if injection == OUTPUT_XOR_INJECTION:
        u ^= words
    return unpack_words(u, n, out)


# Each stage maps a bit array to a bit array with apply(bits) and names
# itself with label, the name used in manifests and bench output.


@dataclass(frozen=True)
class RejectionStage:
    """Von Neumann pairwise rejection stage."""

    @property
    def label(self) -> str:
        return "rejection"

    def apply(self, bits) -> np.ndarray:
        return von_neumann(bits)


@dataclass(frozen=True)
class LfsrStage:
    spec: LfsrSpec
    seed: int = 1
    injection: str = FEEDBACK_INJECTION

    def __post_init__(self):
        _check_seed(self.spec, self.seed)
        _check_injection(self.injection)

    @property
    def label(self) -> str:
        return "lfsr(%s)" % ",".join(str(t) for t in self.spec.taps)

    def apply(self, bits) -> np.ndarray:
        return lfsr_whiten(self.spec, self.seed, bits, self.injection)


@dataclass(frozen=True)
class EccStage:
    code: BchCode

    @property
    def label(self) -> str:
        return f"ecc{self.code}"

    def apply(self, bits) -> np.ndarray:
        return compress_stream_matrix(self.code, bits)


@dataclass(frozen=True)
class PipelineSpec:
    """Ordered whitening stages, applied first to last; at least one."""

    stages: tuple

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        for s in stages:
            if not isinstance(s, (RejectionStage, LfsrStage, EccStage)):
                raise ValueError(f"unknown pipeline stage {s!r}")
        object.__setattr__(self, "stages", stages)


def run_pipeline(pipeline: PipelineSpec, bits) -> np.ndarray:
    out = as_bit_array(bits)
    for stage in pipeline.stages:
        out = stage.apply(out)
    return out
