"""Bit-serial reference oracles for the whole-array production kernels.

Each oracle steps the hardware register one bit at a time, as the circuit
would.  They are slow and independent of the kernels they check, which is
what makes them useful as references: tests compare `lfsr_whiten` and
`compress_stream_matrix` against them bit for bit.
"""

import numpy as np

from eccrng.gf2 import as_bit_array
from eccrng.whiten import FEEDBACK_INJECTION


def serial_lfsr_whiten(spec, seed, bits, injection=FEEDBACK_INJECTION):
    """The whitening register stepped one input bit at a time.

    seed bit j-1 preloads cell j, which is bit j-1 of the state integer.
    Each step expels cell N; feedback injection loads feedback XOR input
    into cell 1, output-xor injection loads the feedback and XORs the input
    into the expelled bit.
    """
    state = seed
    fbmask = spec.feedback_mask
    statemask = (1 << spec.width) - 1
    oldest = spec.width - 1
    out = []
    for bit in np.asarray(bits).tolist():
        fb = (state & fbmask).bit_count() & 1
        expelled = (state >> oldest) & 1
        if injection == FEEDBACK_INJECTION:
            out.append(expelled)
            state = ((state << 1) | (fb ^ bit)) & statemask
        else:
            out.append(expelled ^ bit)
            state = ((state << 1) | fb) & statemask
    return np.array(out, dtype=np.uint8)


def compress_stream_shiftreg(code, bits):
    """Compression through a tapped shift register, one raw bit per shift.

    Raw bits enter a register of n-k+1 cells whose taps sit at the
    generator's nonzero coefficients.  After the register is primed with
    n-k bits of a block, every further shift emits one output bit (k per
    block), then the next block starts over; a trailing partial block is
    dropped.
    """
    y = as_bit_array(bits)
    n, k = code.n, code.k
    deg = n - k
    regmask = (1 << (deg + 1)) - 1
    nblocks = y.size // n
    out = np.empty(nblocks * k, dtype=np.uint8)
    seq = y[: nblocks * n].tolist()
    w = 0
    for start in range(0, nblocks * n, n):
        reg = 0
        for j in range(n):
            reg = ((reg << 1) | seq[start + j]) & regmask
            if j >= deg:
                out[w] = (reg & code.generator).bit_count() & 1
                w += 1
    return out
